#ifndef SETCOVER_STREAM_STREAM_H_
#define SETCOVER_STREAM_STREAM_H_

#include <cstddef>
#include <span>
#include <vector>

#include "instance/instance.h"
#include "stream/edge.h"

namespace setcover {

/// What a streaming algorithm may know before the stream starts.
///
/// m and n are assumed known by all algorithms in the paper. The stream
/// length N is assumed known by Algorithm 1 (paper §4.1 justifies this
/// w.l.o.g. via parallel guesses, implemented in core/multi_run).
struct StreamMetadata {
  uint32_t num_sets = 0;      // m
  uint32_t num_elements = 0;  // n
  size_t stream_length = 0;   // N
};

/// A fully materialized edge stream: metadata plus the edges in arrival
/// order. Orderings (stream/orderings.h) produce these from an instance.
struct EdgeStream {
  StreamMetadata meta;
  std::vector<Edge> edges;

  size_t size() const { return edges.size(); }
};

/// True when every edge names a set below meta.num_sets and an element
/// below meta.num_elements — the ids every algorithm sizes its per-set
/// and per-element state by. Stream-file readers mark a chunk that
/// breaks this damaged, and Session::Ingest refuses such a batch, so no
/// algorithm ever indexes past its state.
bool EdgesInRange(std::span<const Edge> edges, const StreamMetadata& meta);

/// Lists all incidences of `instance` in canonical set-major order
/// (set 0's elements ascending, then set 1's, ...). This is the raw
/// material every ordering permutes.
std::vector<Edge> MaterializeEdges(const SetCoverInstance& instance);

/// Wraps `edges` with metadata taken from `instance`.
EdgeStream MakeStream(const SetCoverInstance& instance,
                      std::vector<Edge> edges);

}  // namespace setcover

#endif  // SETCOVER_STREAM_STREAM_H_

#ifndef SETCOVER_CORE_STREAMING_ALGORITHM_H_
#define SETCOVER_CORE_STREAMING_ALGORITHM_H_

#include <algorithm>
#include <span>
#include <string>

#include "instance/instance.h"
#include "stream/stream.h"
#include "util/memory_meter.h"
#include "util/serialize.h"

namespace setcover {

/// Interface shared by every one-pass edge-arrival Set Cover algorithm in
/// this library.
///
/// Lifecycle: `Begin(meta)` once (resets all state; m, n and the assumed
/// stream length N come from `meta`), then `ProcessEdge` for each stream
/// item in arrival order, then `Finalize()` exactly once to obtain the
/// cover and certificate. Implementations must produce a valid cover for
/// every feasible instance regardless of arrival order — the guarantees
/// that depend on the order (approximation ratio, space) degrade, never
/// correctness.
///
/// Space accounting: implementations keep a MemoryMeter current with the
/// number of machine words their streaming state occupies; `Meter()`
/// exposes it. `StateWords()` is the instantaneous state size, which the
/// communication experiments use as the forwarded-message size.
class StreamingSetCoverAlgorithm {
 public:
  virtual ~StreamingSetCoverAlgorithm() = default;

  /// Short identifier for reports, e.g. "kk" or "random-order".
  virtual std::string Name() const = 0;

  /// Starts a fresh run. May be called again after Finalize() to reuse
  /// the object (all state and meters reset).
  virtual void Begin(const StreamMetadata& meta) = 0;

  /// Consumes the next stream item.
  virtual void ProcessEdge(const Edge& edge) = 0;

  /// Consumes a contiguous batch of stream items — semantically exactly
  /// `for (e : edges) ProcessEdge(e)`, which is what this default does.
  /// Hot algorithms override it with a tight non-virtual loop: the
  /// per-edge virtual dispatch the default pays is the single largest
  /// fixed cost at streaming rates. Overrides may reorder *internal*
  /// work (prefetching, counter batching) but must leave the algorithm
  /// in a state bit-identical to the per-edge path — same coins drawn
  /// in the same order, same EncodeState words, same meter values.
  /// RunStream spot-checks this invariant in debug builds and
  /// batch_equivalence_test enforces it for every registered algorithm
  /// at several batch shapes.
  virtual void ProcessEdgeBatch(std::span<const Edge> edges) {
    for (const Edge& e : edges) ProcessEdge(e);
  }

  /// Ends the stream and returns the cover plus certificate.
  virtual CoverSolution Finalize() = 0;

  /// Space accounting for the current/last run.
  virtual const MemoryMeter& Meter() const = 0;

  /// Size of the algorithm's forwardable state right now, in words —
  /// exactly what EncodeState would produce. Called once per party
  /// boundary in the communication experiments, so implementations
  /// override it with O(1) arithmetic over their container sizes (the
  /// Encoded*Words helpers in util/serialize.h); serialize_test checks
  /// the override against a real encode. This default performs a full
  /// encode and is only acceptable for algorithms outside those
  /// experiments. An implemented EncodeState always writes at least one
  /// word (every field carries a length prefix), so a zero-word encode
  /// means the no-op default below — only then does this fall back to
  /// the metered working set, as an order-of-magnitude stand-in rather
  /// than an exact message size.
  virtual size_t StateWords() const {
    StateEncoder encoder;
    EncodeState(&encoder);
    return encoder.SizeWords() > 0 ? encoder.SizeWords()
                                   : Meter().CurrentWords();
  }

  /// Serializes the algorithm's complete mid-stream state into the
  /// encoder — the exact message a party forwards in the one-way
  /// communication setting of §3. Implementations must write every
  /// word another party would need to continue the execution (modulo
  /// the shared random seed). The default writes nothing, in which
  /// case StateWords() falls back to the memory meter.
  virtual void EncodeState(StateEncoder* encoder) const { (void)encoder; }

  /// Reconstructs a mid-stream execution from a message produced by
  /// EncodeState on another instance: after a successful decode,
  /// continuing this instance is bit-identical to continuing the
  /// encoder's. Returns false when unsupported or on a malformed
  /// message (the instance is then in the freshly-Begun state). This
  /// is what makes the one-way communication protocols of §3 literal:
  /// party p+1 resumes the algorithm purely from party p's words.
  virtual bool DecodeState(const StreamMetadata& meta,
                           const std::vector<uint64_t>& words) {
    (void)meta;
    (void)words;
    return false;
  }
};

/// Default edges per ProcessEdgeBatch call, used by the execution
/// engine (engine::Execute / engine::Drive, see engine/engine.h) and by
/// the header-inline RunStream reference primitive below. Equal to the
/// stream file v2 chunk capacity (stream/stream_file.h), so checkpoint
/// positions and on-disk chunk boundaries stay aligned with batch
/// boundaries — a checkpoint is only ever taken between batches.
inline constexpr size_t kIngestBatchEdges = 4096;

/// Debug-build invariant check (satellite of the batch API contract):
/// processes `edges` through the virtual ProcessEdgeBatch, then rewinds
/// via EncodeState/DecodeState and replays the same edges through the
/// per-edge path, asserting the two leave bit-identical encoded state.
/// Skipped for algorithms whose state does not round-trip (no
/// EncodeState). The rewind re-bases the memory meter's peak, so debug
/// builds may report a slightly different first-batch peak; release
/// builds (NDEBUG) never call this.
void ProcessBatchCheckedForEquivalence(StreamingSetCoverAlgorithm& algorithm,
                                       const StreamMetadata& meta,
                                       std::span<const Edge> edges);

/// Feeds a whole materialized stream through `algorithm` in
/// kIngestBatchEdges-sized batches and finalizes. This is the reference
/// drive primitive the engine's pull loop is pinned against
/// (tests/engine_equivalence_test.cc); production callers should go
/// through engine::Execute, which adds sources, fault tolerance,
/// checkpointing, and reporting around the same loop.
inline CoverSolution RunStream(StreamingSetCoverAlgorithm& algorithm,
                               const EdgeStream& stream) {
  algorithm.Begin(stream.meta);
  std::span<const Edge> edges(stream.edges);
  for (size_t offset = 0; offset < edges.size();
       offset += kIngestBatchEdges) {
    std::span<const Edge> batch =
        edges.subspan(offset, std::min(kIngestBatchEdges,
                                       edges.size() - offset));
#ifndef NDEBUG
    if (offset == 0) {
      // Spot-check the batch/per-edge equivalence contract on the first
      // batch of every debug-build run; cheap relative to the stream.
      ProcessBatchCheckedForEquivalence(algorithm, stream.meta, batch);
      continue;
    }
#endif
    algorithm.ProcessEdgeBatch(batch);
  }
  return algorithm.Finalize();
}

}  // namespace setcover

#endif  // SETCOVER_CORE_STREAMING_ALGORITHM_H_

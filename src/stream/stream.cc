#include "stream/stream.h"

namespace setcover {

bool EdgesInRange(std::span<const Edge> edges, const StreamMetadata& meta) {
  // Branch-free so the loop vectorizes: a clean span costs one pass.
  uint32_t outside = 0;
  for (const Edge& edge : edges) {
    outside |= uint32_t(edge.set >= meta.num_sets) |
               uint32_t(edge.element >= meta.num_elements);
  }
  return outside == 0;
}

std::vector<Edge> MaterializeEdges(const SetCoverInstance& instance) {
  std::vector<Edge> edges;
  edges.reserve(instance.NumEdges());
  for (SetId s = 0; s < instance.NumSets(); ++s) {
    for (ElementId u : instance.Set(s)) edges.push_back({s, u});
  }
  return edges;
}

EdgeStream MakeStream(const SetCoverInstance& instance,
                      std::vector<Edge> edges) {
  EdgeStream stream;
  stream.meta = {instance.NumSets(), instance.NumElements(), edges.size()};
  stream.edges = std::move(edges);
  return stream;
}

}  // namespace setcover

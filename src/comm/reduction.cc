#include "comm/reduction.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "stream/edge.h"

namespace setcover {
namespace {

// Party-major prefix stream: party p contributes the partial sets
// T_b^p for every b in S_p, set-by-set (an adversarial order).
struct Prefix {
  std::vector<Edge> edges;
  std::vector<size_t> boundary_positions;  // after party 0 .. t-2
};

Prefix BuildPrefix(const Lemma1Family& family,
                   const DisjointnessInstance& disjointness) {
  Prefix prefix;
  const uint32_t t = family.t();
  for (uint32_t p = 0; p < t; ++p) {
    for (uint32_t b : disjointness.party_sets[p]) {
      // Party p streams its part of set T_b under the *shared* set id b:
      // in the uniquely-intersecting case the common set assembles to
      // full size √(n·t) across all parties — the edge-arrival crux.
      for (ElementId u : family.Part(b, p)) {
        prefix.edges.push_back({b, u});
      }
    }
    if (p + 1 < t) prefix.boundary_positions.push_back(prefix.edges.size());
  }
  return prefix;
}

}  // namespace

ReductionResult RunTheorem2Reduction(
    const Lemma1Family& family, const DisjointnessInstance& disjointness,
    const AlgorithmFactory& factory, uint64_t seed,
    const std::vector<uint32_t>& fork_indices) {
  const uint32_t m = family.m();
  const uint32_t n = family.n();
  const uint32_t s = family.SetSize();

  Prefix prefix = BuildPrefix(family, disjointness);
  const size_t complement_size = n - s;
  StreamMetadata meta;
  meta.num_sets = m + 1;  // the family's sets + the complement set
  meta.num_elements = n;
  meta.stream_length = prefix.edges.size() + complement_size;

  ReductionResult result;

  // Pass over the shared prefix once to measure the forwarded state at
  // every party boundary.
  {
    auto algorithm = factory(seed);
    algorithm->Begin(meta);
    size_t next_boundary = 0;
    for (size_t pos = 0; pos < prefix.edges.size(); ++pos) {
      algorithm->ProcessEdge(prefix.edges[pos]);
      if (next_boundary < prefix.boundary_positions.size() &&
          pos + 1 == prefix.boundary_positions[next_boundary]) {
        result.boundary_state_words.push_back(algorithm->StateWords());
        ++next_boundary;
      }
    }
  }
  for (size_t words : result.boundary_state_words) {
    result.max_boundary_state_words =
        std::max(result.max_boundary_state_words, words);
  }

  // Forked parallel runs: run j continues the (deterministically
  // replayed) execution on the complement set [n] \ T_j.
  std::vector<uint32_t> forks = fork_indices;
  if (forks.empty()) {
    forks.resize(m);
    std::iota(forks.begin(), forks.end(), 0);
  }

  result.min_estimate = std::numeric_limits<size_t>::max();
  const SetId complement_id = m;
  for (size_t f = 0; f < forks.size(); ++f) {
    const uint32_t j = forks[f];
    auto algorithm = factory(seed);
    algorithm->Begin(meta);
    for (const Edge& e : prefix.edges) algorithm->ProcessEdge(e);
    for (ElementId u : family.Complement(j)) {
      algorithm->ProcessEdge({complement_id, u});
    }
    CoverSolution solution = algorithm->Finalize();
    // Cover-size estimate: the cover size when everything is covered,
    // else "no finite cover" (elements absent from run j's instance).
    bool complete = std::all_of(
        solution.certificate.begin(), solution.certificate.end(),
        [](SetId w) { return w != kNoSet; });
    size_t estimate = complete ? solution.cover.size()
                               : std::numeric_limits<size_t>::max();
    if (estimate < result.min_estimate) {
      result.min_estimate = estimate;
      result.argmin_fork = static_cast<uint32_t>(f);
    }
  }

  // Disjoint-case OPT lower bound: the s - s/t elements of T_j outside
  // the (at most one) present part must be covered by sets whose
  // intersection with T_j is at most the family's worst cross
  // intersection.
  const uint32_t cross = std::max<uint32_t>(1, family.MaxCrossIntersection());
  result.disjoint_case_opt_lower_bound =
      std::max<size_t>(2, (s - family.PartSize()) / cross);
  return result;
}

ReductionResult RunTheorem2ReductionMessagePassing(
    const Lemma1Family& family, const DisjointnessInstance& disjointness,
    const AlgorithmFactory& factory, uint64_t seed,
    const std::vector<uint32_t>& fork_indices) {
  const uint32_t t = family.t();
  const uint32_t m = family.m();
  const uint32_t n = family.n();
  const uint32_t s = family.SetSize();

  Prefix prefix = BuildPrefix(family, disjointness);
  StreamMetadata meta;
  meta.num_sets = m + 1;
  meta.num_elements = n;
  meta.stream_length = prefix.edges.size() + (n - s);

  ReductionResult result;

  // Parties in sequence, each reconstructed from the previous one's
  // literal message.
  std::vector<uint64_t> message;
  size_t begin = 0;
  for (uint32_t p = 0; p < t; ++p) {
    size_t end = p + 1 < t ? prefix.boundary_positions[p]
                           : prefix.edges.size();
    auto algorithm = factory(seed);
    if (p == 0) {
      algorithm->Begin(meta);
    } else if (!algorithm->DecodeState(meta, message)) {
      result.message_passing_ok = false;
      return result;
    }
    for (size_t pos = begin; pos < end; ++pos) {
      algorithm->ProcessEdge(prefix.edges[pos]);
    }
    StateEncoder encoder;
    algorithm->EncodeState(&encoder);
    message = encoder.Words();
    if (p + 1 < t) {
      result.boundary_state_words.push_back(message.size());
      result.max_boundary_state_words =
          std::max(result.max_boundary_state_words, message.size());
    }
    begin = end;
  }

  // Forked parallel runs, each resumed from the final message.
  std::vector<uint32_t> forks = fork_indices;
  if (forks.empty()) {
    forks.resize(m);
    std::iota(forks.begin(), forks.end(), 0);
  }
  result.min_estimate = std::numeric_limits<size_t>::max();
  const SetId complement_id = m;
  for (size_t f = 0; f < forks.size(); ++f) {
    auto algorithm = factory(seed);
    if (!algorithm->DecodeState(meta, message)) {
      result.message_passing_ok = false;
      return result;
    }
    for (ElementId u : family.Complement(forks[f])) {
      algorithm->ProcessEdge({complement_id, u});
    }
    CoverSolution solution = algorithm->Finalize();
    bool complete = std::all_of(
        solution.certificate.begin(), solution.certificate.end(),
        [](SetId w) { return w != kNoSet; });
    size_t estimate = complete ? solution.cover.size()
                               : std::numeric_limits<size_t>::max();
    if (estimate < result.min_estimate) {
      result.min_estimate = estimate;
      result.argmin_fork = static_cast<uint32_t>(f);
    }
  }

  const uint32_t cross = std::max<uint32_t>(1, family.MaxCrossIntersection());
  result.disjoint_case_opt_lower_bound =
      std::max<size_t>(2, (s - family.PartSize()) / cross);
  return result;
}

}  // namespace setcover

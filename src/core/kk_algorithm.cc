#include "core/kk_algorithm.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/math.h"
#include "util/simd.h"

namespace setcover {

KkAlgorithm::KkAlgorithm(uint64_t seed, KkParams params)
    : seed_(seed), params_(params), rng_(seed) {
  degrees_words_ = meter_.Register("degrees");
  element_state_words_ = meter_.Register("element_state");
  solution_words_ = meter_.Register("solution");
}

void KkAlgorithm::Begin(const StreamMetadata& meta) {
  meta_ = meta;
  rng_ = Rng(seed_);
  sqrt_n_ = std::max<uint32_t>(
      1, static_cast<uint32_t>(ISqrt(meta.num_elements)));
  uncovered_degree_.assign(meta.num_sets, 0);
  first_set_.assign(meta.num_elements, kNoSet);
  certificate_.assign(meta.num_elements, kNoSet);
  covered_ = DynamicBitset(meta.num_elements);
  in_solution_ = DynamicBitset(meta.num_sets);
  solution_order_.clear();
  meter_.Reset();
  // One word per degree counter; R(u) and C(u) are one word each plus a
  // bit for the covered flag, charged as 2 words per element.
  meter_.Set(degrees_words_, meta.num_sets);
  meter_.Set(element_state_words_, 2 * size_t{meta.num_elements});
}

void KkAlgorithm::MaybeInclude(SetId s, uint32_t level) {
  if (in_solution_.Test(s)) return;
  double p = params_.inclusion_constant *
             std::ldexp(static_cast<double>(sqrt_n_), static_cast<int>(
                            std::min<uint32_t>(level, 62))) /
             static_cast<double>(meta_.num_sets);
  if (rng_.Bernoulli(p)) {
    in_solution_.Set(s);
    solution_order_.push_back(s);
    meter_.Add(solution_words_, 2);  // membership mark + order entry
  }
}

inline void KkAlgorithm::ProcessEdgeImpl(const Edge& edge) {
  const SetId s = edge.set;
  const ElementId u = edge.element;
  if (first_set_[u] == kNoSet) first_set_[u] = s;

  if (in_solution_.Test(s)) {
    // An included set covers everything of it arriving from now on.
    if (!covered_.Test(u)) {
      covered_.Set(u);
      certificate_[u] = s;
    }
    return;
  }
  if (covered_.Test(u)) return;

  // u is uncovered and S is not in the solution: bump the
  // uncovered-degree and run the probabilistic inclusion rule at every
  // level boundary i·√n. Most sets never reach degree √n, so the
  // register compare d >= sqrt_n_ settles the common case and the
  // modulo runs only for sets at or past their first boundary.
  uint32_t d = ++uncovered_degree_[s];
  if (d >= sqrt_n_ && d % sqrt_n_ == 0) {
    MaybeInclude(s, d / sqrt_n_);
    if (in_solution_.Test(s)) {
      covered_.Set(u);
      certificate_[u] = s;
    }
  }
}

void KkAlgorithm::ProcessEdge(const Edge& edge) { ProcessEdgeImpl(edge); }

void KkAlgorithm::ProcessEdgeBatch(std::span<const Edge> edges) {
  // Phase 1 screens the batch with gathered bitset/array reads: an edge
  // whose element was covered *and* had its first set recorded at
  // screen time is a proven no-op for the per-edge rule (both the
  // in-solution and the not-in-solution branch return without touching
  // state or drawing coins). Coverage and first_set only ever advance,
  // so a positive screen can never go stale within the stream. Phase 2
  // replays the surviving edges through the unchanged scalar rule, so
  // the result — coins, certificates, meters, checkpoint bytes — is
  // bit-identical to the per-edge path. (The first_set gather is what
  // makes the screen safe even on hostile DecodeState states where
  // covered(u) holds but first_set[u] is unset.)
  constexpr size_t kChunk = 512;
  uint32_t ids[kChunk];
  uint64_t covered_mask[kChunk / 64];
  uint64_t unseen_mask[kChunk / 64];
  const simd::Kernels& kernels = simd::Active();
  while (!edges.empty()) {
    const size_t chunk = std::min(edges.size(), kChunk);
    // The screen only pays once a decent fraction of elements is
    // covered — early in the stream almost every edge survives it, and
    // the gathers become pure overhead on top of a full scalar replay.
    // Count() is O(1), so this gate costs nothing, and it only changes
    // which (equivalent) path runs, never the outcome.
    if (covered_.Count() * 4 < covered_.size()) {
      for (size_t i = 0; i < chunk; ++i) ProcessEdgeImpl(edges[i]);
      edges = edges.subspan(chunk);
      continue;
    }
    for (size_t i = 0; i < chunk; ++i) ids[i] = edges[i].element;
    kernels.gather_bits(covered_.WordsData(), ids, chunk, covered_mask);
    kernels.gather_equal_u32(first_set_.data(), ids, chunk, kNoSet,
                             unseen_mask);
    const size_t mask_words = (chunk + 63) / 64;
    for (size_t w = 0; w < mask_words; ++w) {
      uint64_t live = ~(covered_mask[w] & ~unseen_mask[w]);
      if (w == mask_words - 1 && (chunk & 63) != 0) {
        live &= ~uint64_t{0} >> (64 - (chunk & 63));
      }
      const size_t base = w << 6;
      while (live != 0) {
        ProcessEdgeImpl(edges[base + size_t(std::countr_zero(live))]);
        live &= live - 1;
      }
    }
    edges = edges.subspan(chunk);
  }
}

CoverSolution KkAlgorithm::Finalize() {
  CoverSolution solution;
  solution.cover = solution_order_;
  solution.certificate = certificate_;
  // Patching: cover the leftovers with their first incident set.
  for (ElementId u = 0; u < meta_.num_elements; ++u) {
    if (solution.certificate[u] == kNoSet && first_set_[u] != kNoSet) {
      solution.certificate[u] = first_set_[u];
      if (in_solution_.Set(first_set_[u])) {
        solution.cover.push_back(first_set_[u]);
      }
    }
  }
  return solution;
}

size_t KkAlgorithm::StateWords() const {
  return 4 + EncodedU32VectorWords(uncovered_degree_.size()) +
         EncodedBoolVectorWords(covered_.size()) +
         EncodedU32VectorWords(first_set_.size()) +
         EncodedU32VectorWords(certificate_.size()) +
         EncodedU32VectorWords(solution_order_.size());
}

void KkAlgorithm::EncodeState(StateEncoder* encoder) const {
  // Everything a successor party needs: the coin stream position, the
  // per-set uncovered-degrees, the element flags/stores, and the
  // solution so far.
  for (uint64_t w : rng_.GetState()) encoder->PutWord(w);
  encoder->PutU32Vector(uncovered_degree_);
  encoder->PutBitset(covered_);  // byte-identical to the PutBoolVector copy
  encoder->PutU32Vector(first_set_);
  encoder->PutU32Vector(certificate_);
  encoder->PutU32Vector(solution_order_);
}

bool KkAlgorithm::DecodeState(const StreamMetadata& meta,
                              const std::vector<uint64_t>& words) {
  Begin(meta);
  StateDecoder decoder(words);
  std::array<uint64_t, 4> rng_state;
  for (uint64_t& w : rng_state) w = decoder.GetWord();
  std::vector<uint32_t> degrees = decoder.GetU32Vector();
  DynamicBitset covered;
  decoder.GetBitset(&covered);
  std::vector<uint32_t> first_set = decoder.GetU32Vector();
  std::vector<uint32_t> certificate = decoder.GetU32Vector();
  std::vector<uint32_t> solution = decoder.GetU32Vector();
  // Dense state is indexed by id, so every id must be range-checked
  // before it is trusted (the hash containers used to tolerate junk).
  bool ids_ok = true;
  for (uint32_t s : solution) ids_ok = ids_ok && s < meta.num_sets;
  for (uint32_t s : first_set)
    ids_ok = ids_ok && (s == kNoSet || s < meta.num_sets);
  if (!decoder.Done() || !ids_ok || degrees.size() != meta.num_sets ||
      covered.size() != meta.num_elements ||
      first_set.size() != meta.num_elements ||
      certificate.size() != meta.num_elements) {
    Begin(meta);  // reset any partial assignment
    return false;
  }
  rng_.SetState(rng_state);
  uncovered_degree_ = std::move(degrees);
  covered_ = std::move(covered);
  first_set_ = std::move(first_set);
  certificate_ = std::move(certificate);
  solution_order_ = std::move(solution);
  in_solution_ = DynamicBitset(meta.num_sets);
  for (SetId s : solution_order_) in_solution_.Set(s);
  meter_.Set(solution_words_, 2 * solution_order_.size());
  return true;
}

std::vector<size_t> KkAlgorithm::LevelHistogram() const {
  uint32_t max_level = 0;
  for (uint32_t d : uncovered_degree_)
    max_level = std::max(max_level, d / sqrt_n_);
  std::vector<size_t> histogram(max_level + 1, 0);
  for (uint32_t d : uncovered_degree_) ++histogram[d / sqrt_n_];
  return histogram;
}

}  // namespace setcover

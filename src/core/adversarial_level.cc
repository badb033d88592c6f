#include "core/adversarial_level.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/math.h"
#include "util/sampling.h"
#include "util/simd.h"

namespace setcover {

AdversarialLevelAlgorithm::AdversarialLevelAlgorithm(
    uint64_t seed, AdversarialLevelParams params)
    : seed_(seed), params_(params), rng_(seed) {
  levels_words_ = meter_.Register("levels");
  element_state_words_ = meter_.Register("element_state");
  solution_words_ = meter_.Register("solution");
}

void AdversarialLevelAlgorithm::Begin(const StreamMetadata& meta) {
  meta_ = meta;
  rng_ = Rng(seed_);
  const double sqrt_n =
      std::max(1.0, std::sqrt(static_cast<double>(meta.num_elements)));
  // Theorem 4 requires α >= 2√n; clamp requests below that.
  alpha_ = std::max(params_.alpha, 2.0 * sqrt_n);
  log_keep_ = std::log1p(-1.0 / alpha_);

  // L is sized for the promotions a run expects — one per α uncovered
  // edges, so at most N/α — so it seldom grows mid-stream. At most m/4
  // entries: the table then starts no larger than the 2m-word dense
  // array it replaced, and grows like any map if more sets promote.
  levels_.Reset(size_t(std::min<double>(
      meta.num_sets / 4, static_cast<double>(meta.stream_length) / alpha_)));
  first_set_.assign(meta.num_elements, kNoSet);
  certificate_.assign(meta.num_elements, kNoSet);
  covered_ = DynamicBitset(meta.num_elements);
  in_solution_ = DynamicBitset(meta.num_sets);
  solution_order_.clear();
  peak_promoted_ = 0;
  meter_.Reset();
  meter_.Set(element_state_words_, 2 * size_t{meta.num_elements});

  // Line 6: D_0 gets every set with probability p_0 = α/m, drawn as
  // geometric gaps between hits: one coin per sampled set, not per set
  // (util/sampling.h).
  const double p0 = alpha_ / static_cast<double>(meta.num_sets);
  ForEachBernoulliHit(rng_, meta.num_sets, p0, [&](SetId s) {
    in_solution_.Set(s);
    solution_order_.push_back(s);
    meter_.Add(solution_words_, 2);
  });
  promote_gap_ = DrawPromoteGap();
}

uint64_t AdversarialLevelAlgorithm::DrawPromoteGap() {
  // Failures before the first success, plus the success itself. The
  // compare runs on the double, so an infinite or NaN draw saturates.
  const double failures = GeometricFailures(rng_, log_keep_);
  return failures < double(kMaxPromoteGap) ? uint64_t(failures) + 1
                                           : kMaxPromoteGap;
}

void AdversarialLevelAlgorithm::MaybeInclude(SetId s, uint32_t level) {
  // p_ℓ = (α²/n)^ℓ · α/m, clamped to 1.
  const double ratio =
      alpha_ * alpha_ / static_cast<double>(meta_.num_elements);
  double p = alpha_ / static_cast<double>(meta_.num_sets);
  for (uint32_t i = 0; i < level && p < 1.0; ++i) p *= ratio;
  if (rng_.Bernoulli(p) && in_solution_.Set(s)) {
    solution_order_.push_back(s);
    meter_.Add(solution_words_, 2);
  }
}

// Out of line: it runs about once per α uncovered edges, and inlined,
// the map insert's probe and growth code cost the per-edge loop its
// registers.
__attribute__((noinline)) void AdversarialLevelAlgorithm::Promote(SetId s) {
  auto [level, inserted] = levels_.Slot(s);
  ++level;  // first promotion takes the fresh slot from 0 to 1
  if (inserted) {
    meter_.Add(levels_words_, 2);  // key + value
    peak_promoted_ = std::max(peak_promoted_, levels_.Size());
  }
  MaybeInclude(s, level);
  promote_gap_ = DrawPromoteGap();
}

inline void AdversarialLevelAlgorithm::ProcessEdgeImpl(const Edge& edge) {
  const SetId s = edge.set;
  const ElementId u = edge.element;
  // Lines 9-10: remember an arbitrary (first) covering set.
  if (first_set_[u] == kNoSet) first_set_[u] = s;
  // Lines 11-12: ignore edges to already covered elements.
  if (covered_.Test(u)) return;

  // Lines 14-21: promote with probability 1/α, the countdown reaching 0.
  if (--promote_gap_ == 0) Promote(s);

  // Lines 22-24: if S is (now) in the solution it dominates u.
  if (in_solution_.Test(s)) {
    covered_.Set(u);
    certificate_[u] = s;
  }
}

void AdversarialLevelAlgorithm::ProcessEdge(const Edge& edge) {
  ProcessEdgeImpl(edge);
}

void AdversarialLevelAlgorithm::ProcessEdgeBatch(std::span<const Edge> edges) {
  // Phase 1 screens with gathered reads: an edge whose element was
  // covered (and had first_set recorded) at screen time returns from
  // the per-edge rule before any coin is drawn, so skipping it is
  // exact. Coverage and first_set only ever advance within a stream, so
  // positive screens cannot go stale mid-chunk. Phase 2 replays the
  // survivors through the unchanged scalar rule — coin stream,
  // promotions, meters and checkpoint bytes are bit-identical to the
  // per-edge path (the differential suite pins this per tier).
  constexpr size_t kChunk = 512;
  uint32_t ids[kChunk];
  uint64_t covered_mask[kChunk / 64];
  uint64_t unseen_mask[kChunk / 64];
  const simd::Kernels& kernels = simd::Active();
  while (!edges.empty()) {
    const size_t chunk = std::min(edges.size(), kChunk);
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

CoverSolution AdversarialLevelAlgorithm::Finalize() {
  CoverSolution solution;
  solution.cover = solution_order_;
  solution.certificate = certificate_;
  // Lines 25-26: patch every uncovered element with R(u).
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

size_t AdversarialLevelAlgorithm::StateWords() const {
  return 5 + EncodedMapWords(levels_.Size()) +
         EncodedBoolVectorWords(covered_.size()) +
         EncodedU32VectorWords(first_set_.size()) +
         EncodedU32VectorWords(certificate_.size()) +
         EncodedU32VectorWords(solution_order_.size());
}

void AdversarialLevelAlgorithm::EncodeState(StateEncoder* encoder) const {
  // The space story of Theorem 4 made literal: only the *promoted*
  // sets' levels travel (Õ(m·n/α²) of them), plus Õ(n) element state
  // and the solution. The coins travel too: the RNG and the promotion
  // countdown, so a resumed or forwarded run flips the same coins.
  for (uint64_t w : rng_.GetState()) encoder->PutWord(w);
  encoder->PutWord(promote_gap_);
  encoder->PutSortedPairs(levels_.SortedEntries());
  encoder->PutBitset(covered_);  // byte-identical to the PutBoolVector copy
  encoder->PutU32Vector(first_set_);
  encoder->PutU32Vector(certificate_);
  encoder->PutU32Vector(solution_order_);
}

bool AdversarialLevelAlgorithm::DecodeState(
    const StreamMetadata& meta, const std::vector<uint64_t>& words) {
  Begin(meta);
  StateDecoder decoder(words);
  std::array<uint64_t, 4> rng_state;
  for (uint64_t& w : rng_state) w = decoder.GetWord();
  const uint64_t promote_gap = decoder.GetWord();
  auto levels = decoder.GetMap();
  DynamicBitset covered;
  decoder.GetBitset(&covered);
  std::vector<uint32_t> first_set = decoder.GetU32Vector();
  std::vector<uint32_t> certificate = decoder.GetU32Vector();
  std::vector<uint32_t> solution = decoder.GetU32Vector();
  // Dense state is indexed by id, so every id must be range-checked
  // before it is trusted (the hash containers used to tolerate junk).
  bool ids_ok = true;
  for (const auto& [s, level] : levels) ids_ok = ids_ok && s < meta.num_sets;
  for (uint32_t s : solution) ids_ok = ids_ok && s < meta.num_sets;
  for (uint32_t s : first_set)
    ids_ok = ids_ok && (s == kNoSet || s < meta.num_sets);
  if (!decoder.Done() || !ids_ok || promote_gap == 0 ||
      covered.size() != meta.num_elements ||
      first_set.size() != meta.num_elements ||
      certificate.size() != meta.num_elements) {
    Begin(meta);
    return false;
  }
  rng_.SetState(rng_state);
  promote_gap_ = promote_gap;
  for (const auto& [s, level] : levels) levels_.Slot(s).first = level;
  covered_ = std::move(covered);
  first_set_ = std::move(first_set);
  certificate_ = std::move(certificate);
  solution_order_ = std::move(solution);
  in_solution_ = DynamicBitset(meta.num_sets);
  for (SetId s : solution_order_) in_solution_.Set(s);
  peak_promoted_ = std::max(peak_promoted_, levels_.Size());
  meter_.Set(levels_words_, 2 * levels_.Size());
  meter_.Set(solution_words_, 2 * solution_order_.size());
  return true;
}

std::vector<size_t> AdversarialLevelAlgorithm::LevelHistogram() const {
  uint32_t max_level = 0;
  levels_.ForEach([&](uint32_t, uint32_t level) {
    max_level = std::max(max_level, level);
  });
  std::vector<size_t> histogram(max_level + 1, 0);
  histogram[0] = meta_.num_sets - levels_.Size();
  levels_.ForEach([&](uint32_t, uint32_t level) { ++histogram[level]; });
  return histogram;
}

}  // namespace setcover

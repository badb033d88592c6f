#ifndef SETCOVER_CORE_ADVERSARIAL_LEVEL_H_
#define SETCOVER_CORE_ADVERSARIAL_LEVEL_H_

#include <cstdint>
#include <vector>

#include "core/streaming_algorithm.h"
#include "util/bitset.h"
#include "util/id_map.h"
#include "util/memory_meter.h"
#include "util/rng.h"
#include "util/types.h"

namespace setcover {

/// Parameters of Algorithm 2. `alpha` is the target approximation factor
/// α; the paper's Theorem 4 requires α >= 2√n and the constructor clamps
/// smaller values up to that bound.
struct AdversarialLevelParams {
  /// Target approximation factor α. 0 means "use 2√n" (the smallest
  /// value Theorem 4 allows, where the algorithm's space matches the
  /// Theorem 2 lower bound up to poly-logs).
  double alpha = 0.0;
};

/// Algorithm 2 (Theorem 4): the one-pass adversarial-order algorithm
/// with expected approximation O(α log m) and space Õ(m·n/α²) for
/// α = Ω̃(√n) — the paper's improvement over the KK algorithm for large
/// approximation factors.
///
/// Every set carries a level ℓ, initially 0 and stored explicitly (map
/// L) only once it exceeds 0. When an edge (S, u) with u uncovered
/// arrives, S's level is incremented with probability 1/α (the paper's
/// Coin(1/α)); upon reaching level ℓ the set is included in the partial
/// cover D_ℓ with probability p_ℓ = (α²/n)^ℓ · α/m. D_0 is sampled up
/// front at rate α/m. Uncovered elements are patched with R(u) at the
/// end.
///
/// The Coin(1/α) flips are drawn as geometric gaps: a countdown holds
/// the uncovered-edge events left before the next promotion, redrawn
/// from Geometric(1/α) after each one. Every flip keeps its
/// distribution (i.i.d. Bernoulli(1/α) per uncovered edge); only the
/// coin stream differs from one coin per edge, and the hot loop pays a
/// decrement instead of a coin.
///
/// The space win over KK: no per-set degree array — only the levels of
/// promoted sets are stored, and (Theorem 4's analysis) only Õ(m·n/α²)
/// sets are ever promoted. L is a flat id → level map (util/id_map.h)
/// sized for the promotions a run expects, one per α uncovered edges,
/// and touched only on a promotion, so the per-edge loop never reads
/// it. What EncodeState forwards and the meter charges is exactly the
/// promoted entries (util/memory_meter.h documents why container
/// overhead is excluded from word accounting).
class AdversarialLevelAlgorithm : public StreamingSetCoverAlgorithm {
 public:
  explicit AdversarialLevelAlgorithm(uint64_t seed,
                                     AdversarialLevelParams params = {});

  std::string Name() const override { return "adversarial-level"; }
  void Begin(const StreamMetadata& meta) override;
  void ProcessEdge(const Edge& edge) override;
  void ProcessEdgeBatch(std::span<const Edge> edges) override;
  CoverSolution Finalize() override;
  const MemoryMeter& Meter() const override { return meter_; }
  void EncodeState(StateEncoder* encoder) const override;
  bool DecodeState(const StreamMetadata& meta,
                   const std::vector<uint64_t>& words) override;
  size_t StateWords() const override;

  /// The α in effect for the current run (after clamping). Valid after
  /// Begin().
  double EffectiveAlpha() const { return alpha_; }

  /// Ceiling of the promotion countdown. A gap this long never runs
  /// out on a real stream, so it stands for "no promotion" when 1/α is
  /// too small for a finite draw (a huge user α).
  static constexpr uint64_t kMaxPromoteGap = uint64_t{1} << 62;

  /// Number of sets holding each level at the end of the stream
  /// (entry ℓ counts sets with level exactly ℓ; entry 0 is m minus the
  /// promoted sets). Valid after Finalize().
  std::vector<size_t> LevelHistogram() const;

  /// Sets included by sampling into some D_ℓ (before patching).
  size_t SampledCoverSize() const { return solution_order_.size(); }

  /// Peak number of promoted sets (the size of L) — the quantity the
  /// Õ(m·n/α²) space bound is about.
  size_t PeakPromotedSets() const { return peak_promoted_; }

 private:
  void MaybeInclude(SetId s, uint32_t level);
  /// Lines 15-21: raise S's level in L (inserting it at level 1), run
  /// the inclusion coin for the new level and draw the next gap.
  void Promote(SetId s);
  inline void ProcessEdgeImpl(const Edge& edge);
  /// Uncovered-edge events up to and including the next promotion:
  /// Geometric(1/α) on {1, 2, ...}, saturated at kMaxPromoteGap.
  uint64_t DrawPromoteGap();

  uint64_t seed_;
  AdversarialLevelParams params_;
  Rng rng_;
  StreamMetadata meta_;
  double alpha_ = 1.0;
  double log_keep_ = 0.0;  // log1p(-1/α), the promotion gap's scale
  /// Uncovered-edge events left before the next promotion, >= 1; the
  /// event that takes it to 0 promotes. Part of the encoded state.
  uint64_t promote_gap_ = 1;

  IdMap levels_;                  // L: promoted sets only
  std::vector<SetId> first_set_;  // R(u)
  std::vector<SetId> certificate_;  // C(u)
  DynamicBitset covered_;         // U
  DynamicBitset in_solution_;     // ∪ D_ℓ
  std::vector<SetId> solution_order_;
  size_t peak_promoted_ = 0;

  MemoryMeter meter_;
  MemoryMeter::ComponentId levels_words_;
  MemoryMeter::ComponentId element_state_words_;
  MemoryMeter::ComponentId solution_words_;
};

}  // namespace setcover

#endif  // SETCOVER_CORE_ADVERSARIAL_LEVEL_H_

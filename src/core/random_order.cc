#include "core/random_order.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "util/math.h"
#include "util/sampling.h"
#include "util/simd.h"

namespace setcover {
namespace {

// Caps that keep 2^j / 2^i arithmetic finite on degenerate parameters.
constexpr uint32_t kMaxAlgorithms = 24;
constexpr uint32_t kMaxEpochs = 40;

double Pow2(uint32_t e) { return std::ldexp(1.0, static_cast<int>(e)); }

// double -> size_t for the N-derived lengths, saturating: a stream
// header's N reaches 2^64 - 1, which is 2^64 as a double, and the plain
// cast of that is undefined.
size_t SaturatingSize(double x) {
  constexpr double kTwoTo64 = 18446744073709551616.0;
  return x >= kTwoTo64 ? SIZE_MAX : x > 0.0 ? size_t(x) : 0;
}

}  // namespace

RandomOrderParams RandomOrderParams::PaperFaithful() {
  RandomOrderParams p;
  p.paper_faithful = true;
  p.sampling_constant = 1.0;
  p.tracking_rate_constant = 1.0;
  // special_threshold_constant / main_budget_fraction are ignored in
  // paper-faithful mode (literal formulas are used instead).
  return p;
}

RandomOrderAlgorithm::RandomOrderAlgorithm(uint64_t seed,
                                           RandomOrderParams params)
    : seed_(seed), params_(params), rng_(seed) {
  element_state_words_ = meter_.Register("element_state");
  epoch0_words_ = meter_.Register("epoch0_degrees");
  solution_words_ = meter_.Register("solution");
  tracked_words_ = meter_.Register("tracked_sets");
  tracking_counts_words_ = meter_.Register("tracking_counts");
  batch_counter_words_ = meter_.Register("batch_counters");
}

double RandomOrderAlgorithm::TrackingRate(uint32_t j) const {
  // q_j = min(1, c_q·2^j/n); the paper's c_q is 1.
  return std::min(1.0, params_.tracking_rate_constant * Pow2(j) /
                           std::max(1.0, double(meta_.num_elements)));
}

double RandomOrderAlgorithm::InclusionProbability(uint32_t j) const {
  // p_j = min(1, boost·2^j·p0); the paper has boost = 1.
  double boost =
      params_.paper_faithful ? 1.0 : params_.level_inclusion_boost;
  return std::min(1.0, boost * Pow2(j) * p0_);
}

uint32_t RandomOrderAlgorithm::SpecialThreshold(uint32_t j) const {
  if (params_.paper_faithful) {
    double log2m = Log2AtLeast(meta_.num_sets, 1.0);
    double t = double(j) * std::pow(log2m, 6.0);
    return t > 4e9 ? 4000000000u : std::max<uint32_t>(1, uint32_t(t));
  }
  return std::max<uint32_t>(
      1, static_cast<uint32_t>(
             std::lround(double(j) * params_.special_threshold_constant)));
}

double RandomOrderAlgorithm::MarkThreshold() const {
  const double n = std::max(1.0, double(meta_.num_elements));
  const double m = double(meta_.num_sets);
  const double big_n = std::max<double>(1.0, double(meta_.stream_length));
  if (params_.paper_faithful) {
    // Line 31 literally: 1.085 · m·2^{i-1} / (n²·log m).
    return params_.mark_margin * m * Pow2(cur_algorithm_ - 1) /
           (n * n * Log2AtLeast(meta_.num_sets, 1.0));
  }
  // Derived from the implemented schedule exactly as in Lemma 6's proof:
  // expected tracked count of an element with forward-degree
  // m/(2^j·√n) to special sets, when Q̃ was subsampled at rate
  // q_{j-1} and this epoch spans B·ℓ_i stream positions.
  const double sqrt_n = std::max(1.0, std::sqrt(n));
  const double heavy_degree = m / (Pow2(cur_epoch_) * sqrt_n);
  const double epoch_fraction =
      double(num_batches_) *
      double(subepoch_length_[cur_algorithm_]) / big_n;
  return params_.mark_margin * heavy_degree * cur_tracked_rate_ *
         epoch_fraction;
}

void RandomOrderAlgorithm::Begin(const StreamMetadata& meta) {
  meta_ = meta;
  rng_ = Rng(seed_);
  const double n = std::max(1.0, double(meta.num_elements));
  const double m = std::max(1.0, double(meta.num_sets));
  const double big_n = double(meta.stream_length);
  const double log2m = Log2AtLeast(meta.num_sets, 1.0);
  const double log2n = Log2AtLeast(meta.num_elements, 1.0);
  const double sqrt_n = std::max(1.0, std::sqrt(n));

  num_batches_ = std::max<uint32_t>(
      1, static_cast<uint32_t>(ISqrt(meta.num_elements)));
  batch_size_ = static_cast<uint32_t>(
      CeilDiv(std::max<uint32_t>(1, meta.num_sets), num_batches_));

  // K: number of algorithms A(i).
  if (params_.num_algorithms > 0) {
    num_algorithms_ = std::min(params_.num_algorithms, kMaxAlgorithms);
  } else {
    double paper_k =
        0.5 * log2n - 3.0 * Log2AtLeast(uint64_t(log2m), 0.0) - 2.0;
    if (paper_k >= 1.0) {
      num_algorithms_ =
          std::min<uint32_t>(kMaxAlgorithms, uint32_t(paper_k));
    } else {
      num_algorithms_ = std::max<uint32_t>(
          1, std::min<uint32_t>(3, uint32_t(std::max(0.0, 0.5 * log2n)) >= 2
                                       ? uint32_t(0.5 * log2n) - 2
                                       : 1));
    }
  }

  // J: epochs per algorithm.
  double paper_j = std::max(1.0, log2m - 0.5 * log2n);
  if (params_.num_epochs > 0) {
    num_epochs_ = std::min(params_.num_epochs, kMaxEpochs);
  } else if (params_.paper_faithful) {
    num_epochs_ = std::min<uint32_t>(kMaxEpochs, uint32_t(paper_j));
  } else {
    num_epochs_ = std::max<uint32_t>(
        1, std::min<uint32_t>(6, uint32_t(paper_j)));
  }

  p0_ = std::min(1.0, params_.sampling_constant * sqrt_n * log2m / m);

  // Epoch-0 detection prefix: Θ(√n·N·log m / m), capped at a small
  // constant stream fraction (Lemma 2 part 1 needs |I| <= 0.001·N; we
  // use the parameterized cap).
  double e0 = params_.sampling_constant * sqrt_n * big_n * log2m / m;
  epoch0_length_ =
      SaturatingSize(std::min(e0, params_.epoch0_fraction_cap * big_n));

  // Subepoch lengths ℓ_i.
  subepoch_length_.assign(num_algorithms_ + 1, 0);
  if (params_.paper_faithful) {
    for (uint32_t i = 1; i <= num_algorithms_; ++i) {
      subepoch_length_[i] =
          SaturatingSize(std::max(1.0, Pow2(i) * big_n / (n * log2m)));
    }
    main_remaining_ = meta.stream_length;  // schedule self-limits
  } else {
    main_remaining_ = SaturatingSize(params_.main_budget_fraction * big_n);
    double norm = Pow2(num_algorithms_ + 1) - 2.0;  // Σ 2^i
    for (uint32_t i = 1; i <= num_algorithms_; ++i) {
      subepoch_length_[i] = SaturatingSize(std::max(
          1.0, double(main_remaining_) * Pow2(i) /
                   (norm * double(num_epochs_) * double(num_batches_))));
    }
  }

  // Element state (lines 3-5).
  marked_ = DynamicBitset(meta.num_elements);
  first_set_.assign(meta.num_elements, kNoSet);
  witness_.assign(meta.num_elements, kNoSet);
  if (params_.use_sketch_epoch0) {
    epoch0_degree_.clear();
    // A set system has at most m·n incidences, so a header N past m·n
    // cannot size the sketch: min(N, m·n) is N for every real stream.
    const double incidences =
        std::min(big_n, double(meta.num_sets) * double(meta.num_elements));
    const size_t width = SaturatingSize(std::max(
        64.0, params_.sketch_width_factor * incidences * sqrt_n / m));
    epoch0_sketch_ =
        std::make_unique<CountMinSketch>(width, /*depth=*/4, seed_ ^ 0x5c);
  } else {
    epoch0_degree_.assign(meta.num_elements, 0);
    epoch0_sketch_.reset();
  }
  in_solution_ = DynamicBitset(meta.num_sets);
  solution_order_.clear();
  tracked_.Assign(meta.num_sets);
  tracked_next_.Assign(meta.num_sets);
  tracking_counts_.Assign(meta.num_elements);
  batch_counters_.assign(batch_size_, 0);
  stats_ = RandomOrderStats{};
  cur_epoch_stats_ = RandomOrderEpochStats{};

  meter_.Reset();
  meter_.Set(element_state_words_,
             2 * size_t{meta.num_elements} + marked_.WordsUsed());
  meter_.Set(epoch0_words_, epoch0_sketch_ != nullptr
                                ? epoch0_sketch_->WordsUsed()
                                : size_t{meta.num_elements});
  meter_.Set(batch_counter_words_, batch_size_);

  // Epoch 0 sampling (line 6): each set joins Sol with probability p_0,
  // drawn as geometric gaps between hits, one coin per sampled set
  // (util/sampling.h).
  ForEachBernoulliHit(rng_, meta.num_sets, p0_,
                      [&](SetId s) { AddToSolution(s); });
  stats_.epoch0_sampled = solution_order_.size();

  position_ = 0;
  cur_algorithm_ = 0;
  cur_epoch_ = 0;
  cur_batch_ = 0;
  cur_tracked_rate_ = 0.0;
  if (epoch0_length_ > 0) {
    phase_ = Phase::kEpoch0;
    phase_remaining_ = epoch0_length_;
  } else {
    epoch0_degree_.clear();
    meter_.Set(epoch0_words_, 0);
    StartAlgorithm(1);
  }
}

void RandomOrderAlgorithm::AddToSolution(SetId s) {
  // §4.2 space analysis: |Sol| never exceeds n — past that point the
  // trivial one-set-per-element cover (the patching fallback over
  // R(u)) is at least as good, so further additions are pointless and
  // would only grow the state.
  if (solution_order_.size() >= meta_.num_elements) return;
  if (in_solution_.Set(s)) {
    solution_order_.push_back(s);
    meter_.Add(solution_words_, 2);
  }
}

void RandomOrderAlgorithm::StartAlgorithm(uint32_t i) {
  if (i > num_algorithms_ || main_remaining_ == 0) {
    phase_ = Phase::kTail;
    // Release the main-loop structures.
    tracked_.ClearAll();
    tracked_next_.ClearAll();
    tracking_counts_.ClearAll();
    batch_counters_.clear();
    meter_.Set(tracked_words_, 0);
    meter_.Set(tracking_counts_words_, 0);
    meter_.Set(batch_counter_words_, 0);
    return;
  }
  phase_ = Phase::kMain;
  cur_algorithm_ = i;
  cur_epoch_ = 1;
  // Line 10: fresh tracking sample Q̃ at rate q_0, by the same
  // geometric-gap sampler.
  tracked_.ClearAll();
  cur_tracked_rate_ = TrackingRate(0);
  ForEachBernoulliHit(rng_, meta_.num_sets, cur_tracked_rate_,
                      [&](SetId s) { tracked_.Insert(s); });
  meter_.Set(tracked_words_, 2 * tracked_.Size());
  StartEpoch();
}

void RandomOrderAlgorithm::StartEpoch() {
  tracked_next_.ClearAll();
  tracking_counts_.ClearAll();
  meter_.Set(tracking_counts_words_, 0);
  meter_.Set(tracked_words_, 2 * tracked_.Size());
  cur_epoch_stats_ = RandomOrderEpochStats{};
  cur_epoch_stats_.algorithm_index = cur_algorithm_;
  cur_epoch_stats_.epoch = cur_epoch_;
  cur_epoch_stats_.tracked_sets = tracked_.Size();
  cur_batch_ = 0;
  StartSubepoch();
}

void RandomOrderAlgorithm::StartSubepoch() {
  std::fill(batch_counters_.begin(), batch_counters_.end(), 0);
  phase_remaining_ = subepoch_length_[cur_algorithm_];
}

void RandomOrderAlgorithm::EndEpoch() {
  // Line 31: mark unmarked elements whose tracked count certifies a
  // heavy forward-degree to special sets.
  double tau = MarkThreshold();
  if (tau >= params_.min_mark_threshold) {
    cur_epoch_stats_.mark_threshold = tau;
    tracking_counts_.ForEach([&](uint32_t u, const uint32_t& count) {
      if (double(count) >= tau && !marked_.Test(u)) {
        marked_.Set(u);
        ++cur_epoch_stats_.optimistically_marked;
      }
    });
  }
  stats_.epochs.push_back(cur_epoch_stats_);
  // Line 32: rotate the tracking sample.
  swap(tracked_, tracked_next_);
  tracked_next_.ClearAll();
  cur_tracked_rate_ = TrackingRate(cur_epoch_);
}

void RandomOrderAlgorithm::Advance() {
  ++position_;
  if (phase_ == Phase::kTail) return;

  if (phase_ == Phase::kEpoch0) {
    if (--phase_remaining_ == 0) {
      epoch0_degree_.clear();
      epoch0_degree_.shrink_to_fit();
      epoch0_sketch_.reset();
      meter_.Set(epoch0_words_, 0);
      StartAlgorithm(1);
    }
    return;
  }

  // Main phase.
  if (main_remaining_ > 0) --main_remaining_;
  if (--phase_remaining_ == 0 || main_remaining_ == 0) {
    if (main_remaining_ == 0) {
      // Budget exhausted: flush stats and fall through to the tail.
      stats_.epochs.push_back(cur_epoch_stats_);
      StartAlgorithm(num_algorithms_ + 1);
      return;
    }
    ++cur_batch_;
    if (cur_batch_ < num_batches_) {
      StartSubepoch();
      return;
    }
    EndEpoch();
    ++cur_epoch_;
    if (cur_epoch_ <= num_epochs_) {
      StartEpoch();
    } else {
      StartAlgorithm(cur_algorithm_ + 1);
    }
  }
}

inline void RandomOrderAlgorithm::ProcessEdgeImpl(const Edge& edge) {
  const SetId s = edge.set;
  const ElementId u = edge.element;
  // Line 4: remember the first covering set for patching.
  if (first_set_[u] == kNoSet) first_set_[u] = s;

  // Lines 20-21 / 34-36: sets already in the solution witness their
  // elements in every phase.
  if (in_solution_.Test(s)) {
    marked_.Set(u);
    if (witness_[u] == kNoSet) {
      witness_[u] = s;
      if (phase_ == Phase::kTail) ++stats_.tail_witnessed;
    }
    Advance();
    return;
  }
  // Line 22: marked elements contribute nothing further.
  if (marked_.Test(u)) {
    Advance();
    return;
  }

  if (phase_ == Phase::kEpoch0) {
    // Line 7: detect elements of degree ≥ 1.1·m/√n from their count in
    // the prefix (exact counters, or the Count-Min alternative).
    uint64_t d;
    if (epoch0_sketch_ != nullptr) {
      epoch0_sketch_->Add(u);
      d = epoch0_sketch_->Estimate(u);
    } else {
      d = ++epoch0_degree_[u];
    }
    const double n = std::max(1.0, double(meta_.num_elements));
    const double tau0 = params_.mark_margin *
                        (double(meta_.num_sets) / std::sqrt(n)) *
                        (double(epoch0_length_) /
                         std::max<double>(1.0, double(meta_.stream_length)));
    if (tau0 >= params_.min_mark_threshold && double(d) >= tau0) {
      marked_.Set(u);
      ++stats_.epoch0_marked;
    }
  } else if (phase_ == Phase::kMain) {
    // Lines 24-25: track edges incident to the sampled special sets.
    if (tracked_.Contains(s)) {
      auto [count, inserted] = tracking_counts_.Slot(u);
      ++count;
      if (inserted) meter_.Add(tracking_counts_words_, 2);
      ++cur_epoch_stats_.tracked_edges;
    }
    // Lines 26-30: per-batch counters and the special-set rule.
    if (s / batch_size_ == cur_batch_) {
      uint32_t idx = s - cur_batch_ * batch_size_;
      uint32_t c = ++batch_counters_[idx];
      if (c == SpecialThreshold(cur_epoch_)) {
        ++cur_epoch_stats_.special_sets;
        if (rng_.Bernoulli(InclusionProbability(cur_epoch_))) {
          AddToSolution(s);
          ++cur_epoch_stats_.added_to_solution;
          stats_.additions.push_back({s, position_});
        }
        if (rng_.Bernoulli(TrackingRate(cur_epoch_))) {
          if (tracked_next_.Insert(s)) {
            meter_.Add(tracked_words_, 2);
            ++cur_epoch_stats_.sampled_for_tracking;
          }
        }
      }
    }
  }
  Advance();
}

void RandomOrderAlgorithm::ProcessEdge(const Edge& edge) {
  ProcessEdgeImpl(edge);
}

void RandomOrderAlgorithm::ProcessEdgeBatch(std::span<const Edge> edges) {
  // Phase 1 screens the chunk: an edge with u marked, S not in the
  // solution, and first_set recorded only advances the position cursor
  // in the per-edge rule. Marked/first_set advance monotonically, so
  // those two screens cannot go stale; in_solution also only grows, but
  // in the *unsafe* direction (a set added mid-chunk would turn a
  // screened skip into the witnessing branch). AddToSolution calls are
  // rare — at most n per run — so the walk re-validates cheaply: while
  // |Sol| still equals its screen-time size every skip is exact, and
  // after any growth the remaining screened edges fall back to the full
  // scalar rule. Mid-chunk phase transitions are handled by the impl
  // itself, exactly as in the per-edge path.
  constexpr size_t kChunk = 512;
  uint32_t element_ids[kChunk];
  uint32_t set_ids[kChunk];
  uint64_t marked_mask[kChunk / 64];
  uint64_t insol_mask[kChunk / 64];
  uint64_t unseen_mask[kChunk / 64];
  const simd::Kernels& kernels = simd::Active();
  while (!edges.empty()) {
    const size_t chunk = std::min(edges.size(), kChunk);
    for (size_t i = 0; i < chunk; ++i) {
      element_ids[i] = edges[i].element;
      set_ids[i] = edges[i].set;
    }
    kernels.gather_bits(marked_.WordsData(), element_ids, chunk, marked_mask);
    kernels.gather_bits(in_solution_.WordsData(), set_ids, chunk, insol_mask);
    kernels.gather_equal_u32(first_set_.data(), element_ids, chunk, kNoSet,
                             unseen_mask);
    const size_t solution_at_screen = solution_order_.size();
    const size_t mask_words = (chunk + 63) / 64;
    for (size_t w = 0; w < mask_words; ++w) {
      uint64_t skip = marked_mask[w] & ~insol_mask[w] & ~unseen_mask[w];
      size_t limit = 64;
      if (w == mask_words - 1 && (chunk & 63) != 0) {
        limit = chunk & 63;
        skip &= ~uint64_t{0} >> (64 - limit);
      }
      const size_t base = w << 6;
      if (phase_ == Phase::kTail &&
          solution_order_.size() == solution_at_screen) {
        // Tail fast path: a skipped edge's Advance() is a bare
        // position_++ (kTail is terminal and reads nothing else), so a
        // word's worth of skips collapses to one add. Live edges still
        // run in order; their own Advance() calls interleave with pure
        // increments, which commute.
        position_ += size_t(std::popcount(skip));
        uint64_t live = ~skip & (limit == 64
                                     ? ~uint64_t{0}
                                     : (~uint64_t{0} >> (64 - limit)));
        while (live != 0) {
          ProcessEdgeImpl(edges[base + size_t(std::countr_zero(live))]);
          live &= live - 1;
        }
        continue;
      }
      for (size_t b = 0; b < limit; ++b) {
        if (((skip >> b) & 1) != 0 &&
            solution_order_.size() == solution_at_screen) {
          Advance();
        } else {
          ProcessEdgeImpl(edges[base + b]);
        }
      }
    }
    edges = edges.subspan(chunk);
  }
}

CoverSolution RandomOrderAlgorithm::Finalize() {
  if (phase_ == Phase::kMain) {
    stats_.epochs.push_back(cur_epoch_stats_);
  }
  for (ElementId u = 0; u < meta_.num_elements; ++u) {
    if (marked_.Test(u) && witness_[u] == kNoSet) {
      ++stats_.marked_without_witness;
    }
  }
  CoverSolution solution;
  solution.cover = solution_order_;
  solution.certificate = witness_;
  // Lines 37-38: patching phase.
  for (ElementId u = 0; u < meta_.num_elements; ++u) {
    if (solution.certificate[u] == kNoSet && first_set_[u] != kNoSet) {
      solution.certificate[u] = first_set_[u];
      stats_.patched_elements.push_back(u);
      if (in_solution_.Set(first_set_[u])) {
        solution.cover.push_back(first_set_[u]);
        ++stats_.patched;
      }
    }
  }
  return solution;
}

size_t RandomOrderAlgorithm::StateWords() const {
  // 4 RNG words + the tracked-rate word + 7 cursor scalars, then the
  // variable-size fields in EncodeState order.
  size_t words = 12;
  words += EncodedBoolVectorWords(meta_.num_elements);
  words += EncodedU32VectorWords(first_set_.size());
  words += EncodedU32VectorWords(witness_.size());
  words += EncodedU32VectorWords(epoch0_degree_.size());
  words += 1;  // sketch presence flag
  if (epoch0_sketch_ != nullptr) words += epoch0_sketch_->EncodedWords();
  words += EncodedU32VectorWords(solution_order_.size());
  words += EncodedSetWords(tracked_.Size());
  words += EncodedSetWords(tracked_next_.Size());
  words += EncodedMapWords(tracking_counts_.Size());
  words += EncodedU32VectorWords(batch_counters_.size());
  return words;
}

void RandomOrderAlgorithm::EncodeState(StateEncoder* encoder) const {
  // Cursor scalars first (phase, schedule position), then the element
  // state, solution, and the live tracking machinery.
  for (uint64_t w : rng_.GetState()) encoder->PutWord(w);
  uint64_t rate_bits;
  static_assert(sizeof(rate_bits) == sizeof(cur_tracked_rate_));
  std::memcpy(&rate_bits, &cur_tracked_rate_, sizeof(rate_bits));
  encoder->PutWord(rate_bits);
  encoder->PutWord(static_cast<uint64_t>(phase_));
  encoder->PutWord(position_);
  encoder->PutWord(phase_remaining_);
  encoder->PutWord(cur_algorithm_);
  encoder->PutWord(cur_epoch_);
  encoder->PutWord(cur_batch_);
  encoder->PutWord(main_remaining_);
  encoder->PutBitset(marked_);  // byte-identical to the PutBoolVector copy
  encoder->PutU32Vector(first_set_);
  encoder->PutU32Vector(witness_);
  encoder->PutU32Vector(epoch0_degree_);
  encoder->PutWord(epoch0_sketch_ != nullptr ? 1 : 0);
  if (epoch0_sketch_ != nullptr) epoch0_sketch_->EncodeTo(encoder);
  encoder->PutU32Vector(solution_order_);
  encoder->PutSortedIds(tracked_.SortedIds());
  encoder->PutSortedIds(tracked_next_.SortedIds());
  encoder->PutSortedPairs(tracking_counts_.SortedEntries());
  encoder->PutU32Vector(batch_counters_);
}

bool RandomOrderAlgorithm::DecodeState(
    const StreamMetadata& meta, const std::vector<uint64_t>& words) {
  Begin(meta);
  StateDecoder decoder(words);
  std::array<uint64_t, 4> rng_state;
  for (uint64_t& w : rng_state) w = decoder.GetWord();
  uint64_t rate_bits = decoder.GetWord();
  uint64_t phase = decoder.GetWord();
  uint64_t position = decoder.GetWord();
  uint64_t phase_remaining = decoder.GetWord();
  uint64_t cur_algorithm = decoder.GetWord();
  uint64_t cur_epoch = decoder.GetWord();
  uint64_t cur_batch = decoder.GetWord();
  uint64_t main_remaining = decoder.GetWord();
  DynamicBitset marked;
  decoder.GetBitset(&marked);
  std::vector<uint32_t> first_set = decoder.GetU32Vector();
  std::vector<uint32_t> witness = decoder.GetU32Vector();
  std::vector<uint32_t> epoch0_degree = decoder.GetU32Vector();
  uint64_t has_sketch = decoder.GetWord();
  // Begin() already rebuilt a sketch of the right geometry (it is a
  // deterministic function of seed, params and meta); restore its
  // counters in place. A mismatch marks the message malformed.
  bool sketch_ok =
      has_sketch == 0
          ? true
          : (epoch0_sketch_ != nullptr &&
             epoch0_sketch_->DecodeFrom(&decoder));
  std::vector<uint32_t> solution = decoder.GetU32Vector();
  auto tracked = decoder.GetSet();
  auto tracked_next = decoder.GetSet();
  auto tracking_counts = decoder.GetMap();
  std::vector<uint32_t> batch_counters = decoder.GetU32Vector();
  // Dense state is indexed by id, so every id must be range-checked
  // before it is trusted (the hash containers used to tolerate junk);
  // the batch-counter size check also closes a latent out-of-bounds
  // write in ProcessEdge on forged messages.
  bool ids_ok = true;
  for (uint32_t s : solution) ids_ok = ids_ok && s < meta.num_sets;
  for (uint32_t s : tracked) ids_ok = ids_ok && s < meta.num_sets;
  for (uint32_t s : tracked_next) ids_ok = ids_ok && s < meta.num_sets;
  for (const auto& [u, c] : tracking_counts)
    ids_ok = ids_ok && u < meta.num_elements;
  for (uint32_t s : first_set)
    ids_ok = ids_ok && (s == kNoSet || s < meta.num_sets);
  ids_ok = ids_ok &&
           (batch_counters.empty() || batch_counters.size() == batch_size_);
  if (!decoder.Done() || !sketch_ok || has_sketch > 1 || !ids_ok ||
      marked.size() != meta.num_elements ||
      first_set.size() != meta.num_elements ||
      witness.size() != meta.num_elements || phase > 2) {
    Begin(meta);  // also discards any partially-decoded sketch counters
    return false;
  }
  rng_.SetState(rng_state);
  std::memcpy(&cur_tracked_rate_, &rate_bits, sizeof(cur_tracked_rate_));
  phase_ = static_cast<Phase>(phase);
  position_ = position;
  phase_remaining_ = phase_remaining;
  cur_algorithm_ = static_cast<uint32_t>(cur_algorithm);
  cur_epoch_ = static_cast<uint32_t>(cur_epoch);
  cur_batch_ = static_cast<uint32_t>(cur_batch);
  main_remaining_ = main_remaining;
  marked_ = std::move(marked);
  first_set_ = std::move(first_set);
  witness_ = std::move(witness);
  epoch0_degree_ = std::move(epoch0_degree);
  solution_order_ = std::move(solution);
  in_solution_ = DynamicBitset(meta.num_sets);
  for (SetId s : solution_order_) in_solution_.Set(s);
  tracked_.ClearAll();
  for (SetId s : tracked) tracked_.Insert(s);
  tracked_next_.ClearAll();
  for (SetId s : tracked_next) tracked_next_.Insert(s);
  tracking_counts_.ClearAll();
  for (const auto& [u, c] : tracking_counts) tracking_counts_.Slot(u).first = c;
  batch_counters_ = std::move(batch_counters);
  // Restore meter components to the decoded sizes; instrumentation
  // stats are not part of the forwarded message and restart empty.
  if (has_sketch == 0 && params_.use_sketch_epoch0) {
    epoch0_sketch_.reset();
  }
  meter_.Set(epoch0_words_,
             phase_ != Phase::kEpoch0 ? 0
             : epoch0_sketch_ != nullptr
                 ? epoch0_sketch_->WordsUsed()
                 : size_t{meta.num_elements});
  meter_.Set(solution_words_, 2 * solution_order_.size());
  meter_.Set(tracked_words_, 2 * (tracked_.Size() + tracked_next_.Size()));
  meter_.Set(tracking_counts_words_, 2 * tracking_counts_.Size());
  meter_.Set(batch_counter_words_, batch_counters_.size());
  stats_ = RandomOrderStats{};
  cur_epoch_stats_ = RandomOrderEpochStats{};
  cur_epoch_stats_.algorithm_index = cur_algorithm_;
  cur_epoch_stats_.epoch = cur_epoch_;
  return true;
}

size_t RandomOrderAlgorithm::SubepochLength(uint32_t i) const {
  return (i >= 1 && i < subepoch_length_.size()) ? subepoch_length_[i] : 0;
}

}  // namespace setcover

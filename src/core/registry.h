#ifndef SETCOVER_CORE_REGISTRY_H_
#define SETCOVER_CORE_REGISTRY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/streaming_algorithm.h"

namespace setcover {

/// Options understood by the registry factory; algorithms ignore the
/// fields that do not apply to them.
struct AlgorithmOptions {
  uint64_t seed = 1;
  /// Target approximation factor α for adversarial-level /
  /// element-sampling (0 = each algorithm's default).
  double alpha = 0.0;
  /// Parallelism for multi-run algorithms (random-order-nguess fans its
  /// guesses out across this many threads). Results are bit-identical
  /// at any value; 1 = sequential. Single-run algorithms ignore it.
  unsigned threads = 1;
};

/// One self-describing registry row: everything the engine and the CLI
/// need to enumerate, document, and instantiate an algorithm without a
/// hard-coded name list. `supported_orders` names the arrival orders
/// under which the stated space/approximation guarantees hold
/// ("adversarial" means any order); correctness — a valid cover with a
/// valid certificate — is unconditional for every algorithm on every
/// order, exactly as in the paper.
struct AlgorithmInfo {
  std::string name;
  std::string description;  // one line, for `setcover_cli describe`
  std::string space_class;  // e.g. "O~(m)" — Table 1's space column
  std::string approx_class; // e.g. "O~(sqrt n)" — Table 1's ratio column
  std::vector<std::string> supported_orders;
  /// The algorithm can serve as the per-shard worker of a W > 1
  /// engine::Execute run (RunConfig::backend): W independent instances
  /// each consume the set-partitioned slice of the stream and their covers
  /// merge through the deterministic t-party protocol. Requires a
  /// single-run algorithm (no nested multi-run parallelism) whose
  /// per-shard space stays sublinear in the slice — the two trivial
  /// brackets that violate one of those stay unshardable.
  bool shardable = false;
  std::function<std::unique_ptr<StreamingSetCoverAlgorithm>(
      const AlgorithmOptions&)>
      factory;
};

/// The registry, in presentation order:
///   kk                      — Theorem 1 baseline
///   adversarial-level       — Algorithm 2 (Theorem 4)
///   random-order            — Algorithm 1 (Theorem 3)
///   random-order-sketch     — Algorithm 1 with Count-Min epoch 0
///   random-order-paper      — Algorithm 1 with the literal constants
///   random-order-nguess     — Algorithm 1 without the known-N assumption
///   element-sampling        — AKL-style α = o(√n) algorithm
///   set-arrival-threshold   — set-arrival baseline
///   first-set-patching      — trivial Õ(n)-space baseline
///   store-everything-greedy — trivial Θ(N)-space comparator
const std::vector<AlgorithmInfo>& AlgorithmRegistry();

/// Registry row for `name`, or nullptr for an unknown name.
const AlgorithmInfo* FindAlgorithm(const std::string& name);

/// Names accepted by MakeAlgorithmByName, in presentation order.
std::vector<std::string> RegisteredAlgorithmNames();

/// Creates the named algorithm, or nullptr for an unknown name.
std::unique_ptr<StreamingSetCoverAlgorithm> MakeAlgorithmByName(
    const std::string& name, const AlgorithmOptions& options = {});

/// Registered name closest to `name` by edit distance, or "" when
/// nothing is plausibly close (more than half the typed name would have
/// to change). Powers "did you mean" in CLI and engine errors.
std::string SuggestAlgorithmName(const std::string& name);

/// Ready-to-print diagnostic for an unknown algorithm name: the
/// registered names plus a nearest-name suggestion when one is close.
/// Shared by the CLI and engine::Execute so every entry point fails the
/// same helpful way.
std::string UnknownAlgorithmError(const std::string& name);

/// Names of the algorithms whose registry row marks them shardable, in
/// presentation order.
std::vector<std::string> ShardableAlgorithmNames();

/// Ready-to-print diagnostic for requesting shards with an algorithm
/// whose metadata is not shardable: says why it was refused and lists
/// the shardable names (plus a "did you mean" when the typed name is
/// close to a shardable one). Shared by the CLI and engine::Execute.
/// Assumes `name` is registered — unknown names
/// get UnknownAlgorithmError instead.
std::string NotShardableError(const std::string& name);

}  // namespace setcover

#endif  // SETCOVER_CORE_REGISTRY_H_

// NOW protocol parameters (Sections 2–3).
//
// The paper's free parameters and the knobs our reconstruction adds:
//   N      — maximum network size; the live size n stays in [sqrt(N), N];
//   tau    — fraction of nodes the (static) adversary controls,
//            tau <= 1/3 - epsilon;
//   k      — security parameter: clusters hold ~ k log N nodes; larger k
//            sharpens every whp bound (Lemma 1);
//   l      — split/merge hysteresis (> sqrt(2)): split above l*k*log N,
//            merge (dissolve) below k*log N / l;
//   alpha  — the overlay degree/expansion exponent log^{1+alpha} N.
#pragma once

#include <cstdint>

#include "cluster/rand_num.hpp"
#include "common/math_util.hpp"

namespace now::core {

/// How randCl produces its cluster sample.
enum class WalkMode {
  /// Simulate the biased CTRW hop by hop (faithful; used by all cost
  /// benches and correctness tests).
  kSimulate,
  /// Draw the endpoint directly from the walk's limit law (P[C] = |C|/n)
  /// and charge the modeled cost. Statistically equivalent up to the
  /// O(n^-c) walk bias the analysis discards (Section 4); used for
  /// long-horizon statistical experiments.
  kSampleExact,
};

/// Robustness regime (Remarks 1-2 of the paper).
enum class Robustness {
  /// Information-theoretic setting: tau <= 1/3 - eps, clusters sound while
  /// > 2/3 honest (a cluster is compromised at 1/3 Byzantine).
  kPlain,
  /// "One can tolerate a fraction of Byzantine nodes up to 1/2 - eps, but
  /// then we need to use cryptographic tools to allow for broadcast and
  /// Byzantine agreement" (Remark 1). With unforgeable signatures the
  /// cluster primitives stay sound up to an honest *majority*, so the
  /// compromise line moves to 1/2.
  kAuthenticated,
};

/// How the split/merge thresholds are computed. The paper's prose
/// (Section 3.3) uses log N; Algorithms 1-2 use log n (the *current* size).
/// Both are Theta(log N) while n is in [sqrt(N), N]; kDynamicCurrentN keeps
/// clusters proportionally smaller at small n.
enum class ThresholdMode { kStaticN, kDynamicCurrentN };

/// Which variant of the under-populated-cluster rule to run (DESIGN.md §5).
enum class MergePolicy {
  /// Algorithm 2: the cluster dissolves, is removed from the overlay, and
  /// its members re-join via Algorithm 1 (the variant the Section 4
  /// analysis models).
  kDissolve,
  /// Figure 2 prose: absorb the members of a randCl-chosen victim cluster
  /// instead.
  kAbsorb,
};

struct NowParams {
  std::uint64_t max_size = 1 << 14;  // N
  double tau = 0.15;
  int k = 3;
  double l = 1.5;
  double alpha = 0.1;

  double over_degree_constant = 1.0;
  double over_cap_factor = 3.0;

  /// Walk duration multiplier: a CTRW runs for ~ walk_factor * ln^2(#C)
  /// expected hops (the paper's O(log^2 n) walk length).
  double walk_factor = 1.0;
  WalkMode walk_mode = WalkMode::kSimulate;
  MergePolicy merge_policy = MergePolicy::kDissolve;
  cluster::RandNumMode rand_num_mode = cluster::RandNumMode::kFast;
  Robustness robustness = Robustness::kPlain;
  ThresholdMode threshold_mode = ThresholdMode::kStaticN;

  /// Disabling shuffling turns the system into the no-shuffle baseline the
  /// paper argues against in Section 3.3 (join-leave attacks then win).
  bool shuffle_enabled = true;

  /// The Byzantine fraction at which a cluster stops being trustworthy:
  /// 1/3 in the plain model, 1/2 with signatures (Remark 1).
  [[nodiscard]] double compromise_threshold() const {
    return robustness == Robustness::kPlain ? 1.0 / 3.0 : 1.0 / 2.0;
  }

  /// The size the thresholds are keyed to: N, or the current n in the
  /// Algorithms-1/2 variant. `current_n == 0` means "unknown, use N".
  [[nodiscard]] double threshold_base(std::size_t current_n = 0) const {
    if (threshold_mode == ThresholdMode::kDynamicCurrentN && current_n > 0) {
      return static_cast<double>(current_n);
    }
    return static_cast<double>(max_size);
  }

  /// Target cluster size k * ln(base).
  [[nodiscard]] std::size_t cluster_size_target(
      std::size_t current_n = 0) const {
    return ceil_log_pow(threshold_base(current_n), 1.0, 2) *
           static_cast<std::size_t>(k);
  }

  /// Split strictly above this size (l * k * ln(base)).
  [[nodiscard]] std::size_t split_threshold(std::size_t current_n = 0) const {
    const double t =
        l * static_cast<double>(k) * log_n(threshold_base(current_n));
    return static_cast<std::size_t>(t);
  }

  /// Merge strictly below this size (k * ln(base) / l).
  [[nodiscard]] std::size_t merge_threshold(std::size_t current_n = 0) const {
    const double t =
        static_cast<double>(k) * log_n(threshold_base(current_n)) / l;
    return static_cast<std::size_t>(t) + 1;  // merge when size < this
  }

  /// Upper bound on any cluster's size at any instant (a freshly joined
  /// node can push a cluster one past the split threshold before the split
  /// runs). Used as the denominator of randCl's acceptance step. Always
  /// keyed to N — it must upper-bound sizes across the whole run.
  [[nodiscard]] std::size_t cluster_size_bound() const {
    const double t =
        l * static_cast<double>(k) * log_n(static_cast<double>(max_size));
    return static_cast<std::size_t>(t) + 1;
  }
};

}  // namespace now::core

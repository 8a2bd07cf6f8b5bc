#pragma once

/// \file audit.hpp
/// Sampled exact-error audit engine: measures how tight the Theorem-1
/// truncation bound actually is on live evaluations.
///
/// The library *asserts* the paper's bounds analytically (tests compare
/// against direct summation on small systems), but production-size runs
/// never observe the bound's slack: Salmon & Warren's error
/// characterizations show observed multipole error commonly sits orders of
/// magnitude below the worst-case bound, which is exactly the information
/// an adaptive-degree law should be calibrated against. When enabled
/// (EvalConfig::audit_samples > 0), the evaluators sample K accepted M2P
/// interactions per evaluation, recompute each sampled cluster's exact P2P
/// partial sum, and record the tightness ratio
///
///     |phi_m2p - phi_exact| / Theorem-1 bound
///
/// into per-level, per-degree, and per-charge-magnitude histograms in the
/// metrics registry. A ratio above 1 means the rigorous bound was violated
/// — either a genuine bug or floating-point noise at denormal scales —
/// and is counted and warned about separately.
///
/// Determinism contract (the tier-1 gate applies to audits too): the
/// sample set must be bitwise identical across thread counts and block
/// sizes. Sampling is therefore *counter-based*: every accepted M2P
/// interaction is keyed by hashing (seed, target index, per-target
/// acceptance ordinal) — all schedule-independent quantities, since the
/// per-target DFS visits clusters in a fixed order — and the audit keeps
/// the K interactions with the smallest keys. Each thread maintains a
/// private top-K reservoir (a bounded max-heap, no allocation after
/// set_capacity); merging per-thread reservoirs yields the global top-K
/// because the global K smallest of a fixed multiset are each among the K
/// smallest of whichever reservoir saw them. No RNG state, no timing
/// dependence, no atomics on the hot path.
///
/// This header is tree-agnostic: evaluators capture samples (they know
/// nodes and targets) and pass an exact-sum callback to finalize(), so obs
/// stays free of core dependencies.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace treecode::obs::audit {

/// One sampled M2P interaction, captured during traversal.
struct Sample {
  std::uint64_t key = 0;     ///< sampling key; smaller = more likely audited
  std::uint64_t target = 0;  ///< evaluation-point index (schedule-independent)
  std::int64_t node = -1;    ///< tree node index of the accepted cluster
  int level = 0;             ///< tree level of the cluster
  int degree = 0;            ///< expansion degree actually evaluated
  double abs_charge = 0.0;   ///< cluster absolute-charge mass A
  double approx = 0.0;       ///< the M2P contribution added to the potential
  double bound = 0.0;        ///< Theorem-1 bound for this interaction
  /// Magnitude prefactor A / (r - a) of the cluster's potential at the
  /// target: the scale against which floating-point rounding of the
  /// approx-vs-exact comparison is measured. Theorem 1 bounds *truncation*
  /// error only; an observed difference at or below the rounding floor of
  /// this scale (point-like clusters have near-zero truncation error but
  /// never agree to better than ~eps * |phi|) carries no information about
  /// the bound and must not be scored against it.
  double noise_scale = 0.0;
};

/// Deterministic total order on samples: by key, then target, then node.
/// Ties on key alone are possible (hash collisions), so the comparator
/// extends to fields that uniquely identify the interaction — keeping the
/// selected set independent of encounter order.
[[nodiscard]] inline bool sample_less(const Sample& a, const Sample& b) noexcept {
  if (a.key != b.key) return a.key < b.key;
  if (a.target != b.target) return a.target < b.target;
  return a.node < b.node;
}

/// Stateless counter-based sampling key: a splitmix64-style mix of
/// (seed, target, ordinal). Uniform enough that "keep the K smallest keys"
/// is an unbiased uniform sample of all accepted interactions.
[[nodiscard]] std::uint64_t sample_key(std::uint64_t seed, std::uint64_t target,
                                       std::uint64_t ordinal) noexcept;

/// The sample of the `ordinal`-th accepted interaction of `target`: cluster
/// `node` (tree `level`, absolute charge `abs_charge`, radius `radius`) at
/// distance `r`, evaluated at `degree` to `approx` under Theorem-1 bound
/// `bound`. The fresh traversal and the replay both capture samples here.
[[nodiscard]] inline Sample make_sample(std::uint64_t seed, std::uint64_t target,
                                        std::uint64_t ordinal, std::int64_t node, int level,
                                        int degree, double abs_charge, double radius, double r,
                                        double approx, double bound) noexcept {
  // noise_scale: the cluster potential's scale at the target, A / (r - a).
  return {sample_key(seed, target, ordinal), target, node, level, degree, abs_charge,
          approx, bound, r > radius ? abs_charge / (r - radius) : 0.0};
}

/// Per-thread bounded reservoir of the K smallest-keyed samples seen.
/// offer() is O(log K) worst case and allocation-free after set_capacity().
class Reservoir {
 public:
  Reservoir() = default;

  /// Set capacity K and clear. K == 0 disables the reservoir (offer is a
  /// no-op), which is how non-auditing runs keep the accumulator cheap.
  void set_capacity(std::size_t k);

  [[nodiscard]] std::size_t capacity() const noexcept { return k_; }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// Consider one accepted interaction. Kept iff the reservoir is not yet
  /// full or `s` orders below the current worst kept sample.
  void offer(const Sample& s);

  /// The kept samples, in unspecified (heap) order.
  [[nodiscard]] const std::vector<Sample>& samples() const noexcept { return heap_; }

 private:
  std::size_t k_ = 0;
  std::vector<Sample> heap_;  ///< max-heap under sample_less
};

/// Merge per-thread reservoirs into the global K smallest samples, sorted
/// ascending under sample_less. Deterministic for any partition of the
/// interactions across reservoirs (including reservoir count/order),
/// because selection and ordering depend only on the samples themselves.
[[nodiscard]] std::vector<Sample> merge(std::span<const Reservoir> reservoirs,
                                        std::size_t k);

/// Aggregate audit outcome of one evaluation (lands in EvalStats).
struct Summary {
  std::uint64_t samples = 0;           ///< interactions audited
  std::uint64_t bound_violations = 0;  ///< tightness > 1 (or error with zero bound)
  double max_tightness = 0.0;          ///< largest finite tightness ratio
  double mean_tightness = 0.0;         ///< mean of finite tightness ratios
};

/// Audit the selected samples: for each, call `exact_of` to obtain the
/// cluster's exact P2P partial sum, form the tightness ratio
/// |approx - exact| / bound, and record it into registry histograms
/// (`audit.tightness`, `.L<level>`, `.p<degree>`, `.q<charge decade>`) and
/// counters (`audit.samples`, `audit.bound_violations`). An observed
/// difference at or below the rounding floor (kNoiseRelEps * noise_scale)
/// is truncation-unresolvable at double precision and scores ratio 0. Above
/// the floor, a sample with a nonpositive bound counts as a violation with
/// infinite ratio (histogrammed into the overflow bucket, excluded from
/// max/mean). Violations emit an obs::warn and a flight-recorder event.
///
/// `winners` must already be merge()-sorted; the mean is accumulated in
/// that order, so the summary is bitwise identical across schedules.
Summary finalize(std::span<const Sample> winners,
                 const std::function<double(const Sample&)>& exact_of);

/// Relative rounding floor used by finalize(): observed errors below
/// kNoiseRelEps * noise_scale are attributed to floating-point rounding of
/// the two summations, not to multipole truncation. 64 ulp absorbs the
/// accumulation error of both the expansion evaluation and the exact P2P
/// partial sum over a leaf-sized cluster.
inline constexpr double kNoiseRelEps = 64.0 * 2.220446049250313e-16;

}  // namespace treecode::obs::audit

#pragma once

/// \file operators.hpp
/// The multipole operator set: P2M, M2M, M2L, L2L, M2P, L2P, P2P.
///
/// Conventions (Greengard & Rokhlin; see harmonics.hpp):
///  * multipole expansion about center c:
///      Phi(P) = sum_{n<=p} sum_{|m|<=n} M_n^m Y_n^m(theta,phi) / r^(n+1),
///      M_n^m = sum_i q_i rho_i^n Y_n^{-m}(alpha_i, beta_i),
///    where (rho_i, alpha_i, beta_i) are spherical coordinates of source i
///    about c and (r, theta, phi) those of the evaluation point P.
///  * local expansion about center c:
///      Phi(P) = sum_{n<=p} sum_{|m|<=n} L_n^m Y_n^m(theta,phi) r^n.
///
/// Translations are the classical O(p^4) operators (Greengard's Lemmas
/// 3.2.3-3.2.5). M2M is *exact* order-by-order: shifted coefficients of
/// degree <= p depend only on source coefficients of degree <= p. M2L and
/// L2L are exact given the truncated source. Sources of lower degree than
/// the target are handled transparently (missing orders read as zero).

#include <span>

#include "geom/vec3.hpp"
#include "multipole/expansion.hpp"

namespace treecode {

// ---------------------------------------------------------------------------
// Particle -> multipole

/// Accumulate the multipole expansion of point charges about `center` into
/// `out` (which fixes the degree). Positions/charges are parallel spans.
void p2m(const Vec3& center, std::span<const Vec3> positions, std::span<const double> charges,
         MultipoleExpansion& out);

/// Accumulate the multipole expansion of point *dipoles* about `center`:
/// source i contributes the field d_i . grad_y (1/|x - y_i|), i.e. the
/// coefficients are M_n^m += d_i . grad_y [rho^n Y_n^{-m}(y)] — the
/// derivative of the regular solid harmonic at the source, computed with
/// the pole-safe Legendre-derivative recurrences. Used by the double-layer
/// (second-kind) boundary operator.
void p2m_dipole(const Vec3& center, std::span<const Vec3> positions,
                std::span<const Vec3> moments, MultipoleExpansion& out);

// ---------------------------------------------------------------------------
// Translations

/// Shift `src` (about src_center) and accumulate into `dst` (about
/// dst_center). Exact for orders <= min(src.degree, dst.degree); if
/// dst.degree > src.degree the missing source orders contribute nothing
/// (the usual truncation of the adaptive method).
void m2m(const MultipoleExpansion& src, const Vec3& src_center, MultipoleExpansion& dst,
         const Vec3& dst_center);

/// Convert `src` (multipole about src_center) into a local expansion about
/// dst_center, accumulating into `dst`. Requires the evaluation sphere of
/// `dst` to be well-separated from the source sphere (caller enforces the
/// MAC); degree of the internal harmonics is src.degree + dst.degree.
void m2l(const MultipoleExpansion& src, const Vec3& src_center, LocalExpansion& dst,
         const Vec3& dst_center);

/// Shift the local expansion `src` (about src_center) to dst_center,
/// accumulating into `dst`. Exact (triangular in the opposite direction of
/// m2m).
void l2l(const LocalExpansion& src, const Vec3& src_center, LocalExpansion& dst,
         const Vec3& dst_center);

// ---------------------------------------------------------------------------
// Evaluations

/// Potential and (optionally) its gradient at one point.
struct PotentialGrad {
  double potential = 0.0;
  Vec3 gradient{};  ///< grad Phi; the force on a unit charge is -grad Phi.
};

/// Evaluate the multipole expansion at `point` (outside the source sphere).
double m2p(const MultipoleExpansion& m, const Vec3& center, const Vec3& point);

// ---------------------------------------------------------------------------
// Evaluation basis: one fill, one apply
//
// m2p and p2m factor into a charge-independent geometric basis and a cheap
// dot product with the coefficients or charges. For m2p the basis is the
// target's solid-harmonic evaluation vector: w_m r^-(n+1) conj(Y_n^m), with
// w_0 = 1 and w_m = 2 for m > 0 folding in the m < 0 half of the sum, laid
// out as re/im pairs in tri_index order like the coefficients, so m2p is
// one flat dot product with no per-degree loop. For p2m it is the rho^n
// powers and conj(Y_n^m) of each source. One trig-free fill computes both
// from the Cartesian offset: cos(theta) = z/r and e^{i phi} = (x + iy)/rho_xy
// replace acos/atan2/sin/cos, and Y_n^m comes from a normalized Legendre
// recurrence whose coefficients sit in a static table (the m2p layout runs
// it with r^-(n+1) folded in). The fill is unrolled at compile time for
// degrees up to kUnrolledHarmonicsDegree and runs the same recurrence as a
// loop above. m2m, m2l, l2l and l2p take their Y_n^m from the same fill,
// into a workspace slot of their own. The gradient kernels and p2m_dipole
// also need dY/dtheta and Y/sin(theta) and still use
// eval_harmonics_derivs().
//
// The on-the-fly kernels are that fill plus the apply: m2p() fills the
// calling thread's workspace and runs m2p_apply_basis() on it, and p2m()
// does the same per particle with p2m_apply_basis(). A basis precomputed by
// m2p_basis()/p2m_basis() and stored in a compiled plan therefore replays
// bitwise-equal to the on-the-fly kernel by construction: both run the
// identical floating-point operations on identical doubles.

/// Degrees at or below this use a fill unrolled at compile time; higher
/// degrees (up to kMaxDegree) use the runtime loop over the same recurrence.
inline constexpr int kUnrolledHarmonicsDegree = 16;

/// Doubles needed to store the m2p basis for degree p: 2 * tri_size(p),
/// the re/im pairs of w_m r^-(n+1) conj(Y_n^m) at 2 * tri_index(n, m).
/// Y_0^0 = 1, so the first double is exactly 1/r.
[[nodiscard]] std::size_t m2p_basis_size(int p) noexcept;

/// Fill `out` (size >= m2p_basis_size(p)) with the solid-harmonic
/// evaluation basis of `point` relative to `center`. Precondition:
/// point != center.
void m2p_basis(int p, const Vec3& center, const Vec3& point, std::span<double> out);

/// Fill the calling thread's workspace with the m2p basis (as m2p_basis())
/// and return it. The pointer stays valid, and the basis unchanged, until
/// the thread's next m2p(), p2m() or m2p_basis_workspace() call, so one fill
/// can be applied to several expansions of the same node (batched replay).
const double* m2p_basis_workspace(int p, const Vec3& center, const Vec3& point);

/// Evaluate the expansion against a basis filled by m2p_basis() or
/// m2p_basis_workspace() with p == m.degree(). Bitwise-identical to
/// m2p(m, center, point).
double m2p_apply_basis(const MultipoleExpansion& m, const double* basis) noexcept;

/// The same factorization for p2m: per source particle the charge enters
/// through exactly two multiplies (q * rho^n, then the scale of conj(Y)),
/// so the rho powers and conjugated harmonics can be stored once per
/// (node, particle) and replayed for every new charge vector.

/// Doubles needed for the p2m basis of `count` particles at degree p:
/// count * ((p + 1) rho powers + 2 * tri_size(p) conj(Y) re/im pairs).
[[nodiscard]] std::size_t p2m_basis_size(int p, std::size_t count) noexcept;

/// Fill `out` (size >= p2m_basis_size(p, positions.size())) with the p2m
/// basis of the particles relative to `center`. A particle exactly at
/// `center` contributes only to the n = 0 term.
void p2m_basis(int p, const Vec3& center, std::span<const Vec3> positions,
               std::span<double> out);

/// Accumulate the particles' multipole contributions from a basis filled by
/// p2m_basis() with p == out.degree() and the same particle count/order.
/// Bitwise-identical to p2m(center, positions, charges, out).
void p2m_apply_basis(std::span<const double> charges, const double* basis,
                     MultipoleExpansion& out) noexcept;

/// Evaluate potential and analytic gradient of the multipole expansion.
PotentialGrad m2p_grad(const MultipoleExpansion& m, const Vec3& center, const Vec3& point);

/// Evaluate the local expansion at `point` (inside its validity sphere).
double l2p(const LocalExpansion& l, const Vec3& center, const Vec3& point);

/// Evaluate potential and analytic gradient of the local expansion.
PotentialGrad l2p_grad(const LocalExpansion& l, const Vec3& center, const Vec3& point);

// ---------------------------------------------------------------------------
// Direct kernels

/// Potential at `point` due to charges, by direct summation of
/// q / sqrt(|r|^2 + softening2). `softening2` is the square of the Plummer
/// softening length (0 = exact Coulomb/Newton kernel, the default used by
/// the error analysis; n-body integrations use a small epsilon to bound
/// close-encounter forces). Sources located exactly at `point` are skipped
/// (self-interaction rule) regardless of softening.
double p2p(const Vec3& point, std::span<const Vec3> positions, std::span<const double> charges,
           double softening2 = 0.0);

/// Multi-RHS direct summation: potentials at `point` against the same
/// particle set for several charge columns at once, accumulated into `out`
/// (out.size() == charge_columns.size(); out[c] is *overwritten*). Each
/// column performs the identical per-particle division on the identical
/// operands in the identical order as p2p() would on that column alone, so
/// out[c] is bitwise-equal to p2p(point, positions, charge_columns[c],
/// softening2). The positions/distances are computed once and shared across
/// columns — the arithmetic-intensity win of batched replay.
void p2p_batch(const Vec3& point, std::span<const Vec3> positions,
               std::span<const std::span<const double>> charge_columns,
               double softening2, std::span<double> out);

/// Potential and gradient at `point` by direct summation (softened as p2p).
PotentialGrad p2p_grad(const Vec3& point, std::span<const Vec3> positions,
                       std::span<const double> charges, double softening2 = 0.0);

/// Potential at `point` due to point dipoles, by direct summation of
/// d_i . (point - y_i) / |point - y_i|^3. Coincident sources are skipped.
double p2p_dipole(const Vec3& point, std::span<const Vec3> positions,
                  std::span<const Vec3> moments);

}  // namespace treecode

#include "multipole/operators.hpp"

#include <array>
#include <cassert>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

namespace treecode {

namespace {

/// Y_n^m for any sign of m from an m >= 0 packed array.
inline Complex y_signed(std::span<const Complex> Y, int n, int m) noexcept {
  return m >= 0 ? Y[tri_index(n, m)] : std::conj(Y[tri_index(n, -m)]);
}

/// rho^0..rho^p.
std::array<double, kMaxDegree + 1> powers(double rho, int p) noexcept {
  std::array<double, kMaxDegree + 1> out;
  out[0] = 1.0;
  for (int n = 1; n <= p; ++n) out[static_cast<std::size_t>(n)] = out[static_cast<std::size_t>(n - 1)] * rho;
  return out;
}

/// When translating between coincident centers the operators degenerate to
/// coefficient addition (degree-aware).
template <typename Expansion>
void add_coincident(const Expansion& src, Expansion& dst) {
  const int p = dst.degree() < src.degree() ? dst.degree() : src.degree();
  for (int n = 0; n <= p; ++n) {
    for (int m = 0; m <= n; ++m) dst.coeff(n, m) += src.coeff(n, m);
  }
}

/// Normalized Legendre functions Q_n^m = y_norm(n, m) P_n^m(cos theta), so
/// that Y_n^m = Q_n^m e^{i m phi}, by the recurrences
///   Q_m^m = -sin(theta) diag[m] Q_{m-1}^{m-1},  diag[m] = sqrt((2m-1)/(2m)),
///   Q_n^m = a[n,m] cos(theta) Q_{n-1}^m - b[n,m] Q_{n-2}^m   (n > m),
///   a[n,m] = (2n-1)/sqrt(n^2-m^2),  b[n,m] = sqrt(((n-1)^2-m^2)/(n^2-m^2)),
/// i.e. the (2n-1)/(n-m) column recurrence of legendre_all() with the y_norm
/// ratios folded into its coefficients. a and b are packed by tri_index.
struct LegendreTable {
  std::array<double, kMaxDegree + 1> diag{};
  std::array<double, tri_size(kMaxDegree)> a{};
  std::array<double, tri_size(kMaxDegree)> b{};
};

const LegendreTable& legendre_table() {
  static const LegendreTable table = [] {
    LegendreTable t;
    for (int m = 1; m <= kMaxDegree; ++m) {
      t.diag[static_cast<std::size_t>(m)] = std::sqrt((2.0 * m - 1.0) / (2.0 * m));
    }
    for (int m = 0; m <= kMaxDegree; ++m) {
      for (int n = m + 1; n <= kMaxDegree; ++n) {
        const double nm2 = static_cast<double>(n * n - m * m);
        t.a[tri_index(n, m)] = (2.0 * n - 1.0) / std::sqrt(nm2);
        t.b[tri_index(n, m)] = std::sqrt(static_cast<double>((n - 1) * (n - 1) - m * m) / nm2);
      }
    }
    return t;
  }();
  return table;
}

/// The Cartesian offset in the form the fill consumes: r, cos/sin of the
/// polar angle and e^{i phi}, with no trig calls. At r = 0 (a source on the
/// expansion center) and on the z axis (rho_xy = 0) the angles take
/// to_spherical()'s values theta = phi = 0 (or theta = pi below the center),
/// so the fill stays finite there.
struct Direction {
  double r = 0.0;
  double cos_t = 1.0;
  double sin_t = 0.0;
  double ex = 1.0;  // cos(phi)
  double ey = 0.0;  // sin(phi)
};

Direction direction(const Vec3& v) noexcept {
  Direction d;
  const double rho2 = v.x * v.x + v.y * v.y;
  d.r = std::sqrt(rho2 + v.z * v.z);
  if (rho2 == 0.0) {
    d.cos_t = v.z >= 0.0 ? 1.0 : -1.0;
    return d;
  }
  d.cos_t = v.z / d.r;
  const double rho = std::sqrt(rho2);
  d.sin_t = rho / d.r;
  const double inv_rho = 1.0 / rho;
  d.ex = v.x * inv_rho;
  d.ey = v.y * inv_rho;
  return d;
}

/// The calling thread's scratch for the kernels, all at kMaxDegree: the
/// fill's e^{i m phi} table, room for one m2p basis or one particle's p2m
/// basis, and the Y_n^m of one translation or l2p. It is heap memory,
/// allocated on the thread's first kernel call and never resized, so no
/// kernel call allocates. Not a stack array, on purpose: glibc binds a
/// thread to a malloc arena at its first allocation, and pool workers that
/// make that first allocation here, in plan compile and refresh as they did
/// with the earlier per-call vectors, keep the service's arenas, and with
/// them its peak RSS, where they were.
struct KernelWorkspace {
  std::array<double, 2 * (kMaxDegree + 1)> phase;
  std::array<double, 2 * tri_size(kMaxDegree) + kMaxDegree + 1> basis;
  std::array<Complex, tri_size(kMaxDegree)> harmonics;
};

KernelWorkspace& kernel_workspace() {
  thread_local const std::unique_ptr<KernelWorkspace> ws = std::make_unique<KernelWorkspace>();
  return *ws;
}

double* basis_workspace() { return kernel_workspace().basis.data(); }

/// What a fill stores at [2k, 2k+1], k = tri_index(n, m), as a re/im pair:
///   kHarmonics  Y_n^m (the translations and l2p);
///   kConjugate  conj(Y_n^m) (the p2m basis);
///   kSolid      w_m r^-(n+1) conj(Y_n^m), w_0 = 1 and w_m = 2 for m > 0
///               (the m2p basis: the solid harmonics of the target, weighted
///               so that m2p is their dot product with the m >= 0
///               coefficients).
enum class FillLayout { kHarmonics, kConjugate, kSolid };

/// One fill of the (0 <= m <= n <= p) triangle in layout L from the phase
/// table `e`, which already carries the conjugation sign and w_m. The
/// recurrence walks column by column: Q_m^m advances once per column, then
/// Q_n^m runs down the column. For kSolid every Q carries its r^-(n+1): the
/// seed is 1/r, the direction terms are cos(theta)/r and sin(theta)/r, and
/// the two-back term takes one more 1/r^2. The compile-time and runtime
/// instantiations below both drive these steps, so they perform the same
/// operations in the same order.
template <FillLayout L>
struct HarmonicsFill {
  const LegendreTable& t;
  const double* e;
  double* Y;
  double cos_t;        // cos(theta), over r when kSolid
  double sin_t;        // sin(theta), over r when kSolid
  double inv_r2 = 1.0; // 1/r^2 when kSolid; a multiply by 1 is exact otherwise
  double qmm = 1.0;    // Q_m^m of the current column
  double er = 1.0;     // phase of the current column
  double ei = 0.0;
  double q1 = 0.0;     // Q_{n-1}^m
  double q2 = 0.0;     // Q_{n-2}^m

  HarmonicsFill(const Direction& d, const double* phase, double* out) noexcept
      : t(legendre_table()), e(phase), Y(out), cos_t(d.cos_t), sin_t(d.sin_t) {
    if constexpr (L == FillLayout::kSolid) {
      const double inv_r = 1.0 / d.r;
      cos_t *= inv_r;
      sin_t *= inv_r;
      inv_r2 = inv_r * inv_r;
      qmm = inv_r;
    }
  }

  [[gnu::always_inline]] void store(std::size_t k, double q) noexcept {
    Y[2 * k] = q * er;
    Y[2 * k + 1] = q * ei;
  }

  [[gnu::always_inline]] void begin_column(int m) noexcept {
    const auto um = static_cast<std::size_t>(m);
    if (m > 0) qmm *= -sin_t * t.diag[um];
    er = e[2 * um];
    ei = e[2 * um + 1];
    q2 = 0.0;
    q1 = qmm;
    store(tri_index(m, m), qmm);
  }

  [[gnu::always_inline]] void step(int n, int m) noexcept {
    const std::size_t k = tri_index(n, m);
    const double q = t.a[k] * cos_t * q1 - t.b[k] * inv_r2 * q2;
    store(k, q);
    q2 = q1;
    q1 = q;
  }
};

template <FillLayout L>
void fill_harmonics_loop(int p, const Direction& d, const double* e, double* Y) noexcept {
  HarmonicsFill<L> f(d, e, Y);
  for (int m = 0; m <= p; ++m) {
    f.begin_column(m);
    for (int n = m + 1; n <= p; ++n) f.step(n, m);
  }
}

template <int kM, FillLayout L, int... kN>
[[gnu::always_inline]] inline void fill_column_unrolled(HarmonicsFill<L>& f,
                                                        std::integer_sequence<int, kN...>) noexcept {
  f.begin_column(kM);
  (f.step(kM + 1 + kN, kM), ...);
}

template <int kP, FillLayout L, int... kM>
[[gnu::always_inline]] inline void fill_columns_unrolled(HarmonicsFill<L>& f,
                                                         std::integer_sequence<int, kM...>) noexcept {
  (fill_column_unrolled<kM>(f, std::make_integer_sequence<int, kP - kM>{}), ...);
}

/// The fill with every (n, m) index a compile-time constant: straight-line
/// code with no column-end branches for the compiler to schedule across.
template <int kP, FillLayout L>
void fill_harmonics_unrolled(const Direction& d, const double* e, double* Y) noexcept {
  HarmonicsFill<L> f(d, e, Y);
  fill_columns_unrolled<kP>(f, std::make_integer_sequence<int, kP + 1>{});
}

using FillFn = void (*)(const Direction&, const double*, double*) noexcept;

template <FillLayout L, int... kP>
constexpr std::array<FillFn, sizeof...(kP)> make_fill_table(std::integer_sequence<int, kP...>) {
  return {&fill_harmonics_unrolled<kP, L>...};
}

template <FillLayout L>
constexpr auto kFillTable =
    make_fill_table<L>(std::make_integer_sequence<int, kUnrolledHarmonicsDegree + 1>{});

/// The one harmonics fill every m2p/p2m path, translation and l2p runs:
/// tabulate the phases e^{i m phi} in the thread's workspace, conjugated
/// and weighted as layout L stores them (negation and doubling are exact,
/// so this costs nothing), then run the recurrence, unrolled for
/// p <= kUnrolledHarmonicsDegree and as a loop above (measured faster end
/// to end than the loop alone; EXPERIMENTS.md).
template <FillLayout L>
void fill_harmonics(int p, const Direction& d, double* Y) noexcept {
  assert(p >= 0 && p <= kMaxDegree);
  constexpr double kSign = L == FillLayout::kHarmonics ? 1.0 : -1.0;
  constexpr double kWeight = L == FillLayout::kSolid ? 2.0 : 1.0;
  double* e = kernel_workspace().phase.data();
  e[0] = 1.0;
  e[1] = kSign * 0.0;
  double cr = 1.0;  // e^{i m phi}
  double ci = 0.0;
  for (std::size_t m = 1; m <= static_cast<std::size_t>(p); ++m) {
    const double next_r = cr * d.ex - ci * d.ey;
    ci = cr * d.ey + ci * d.ex;
    cr = next_r;
    e[2 * m] = kWeight * cr;
    e[2 * m + 1] = kSign * kWeight * ci;
  }
  if (p <= kUnrolledHarmonicsDegree) {
    kFillTable<L>[static_cast<std::size_t>(p)](d, e, Y);
  } else {
    fill_harmonics_loop<L>(p, d, e, Y);
  }
}

/// s[j] += c[j] * b[j] for the lanes j < count, with every lane index a
/// compile-time constant so the partial sums stay in registers.
template <std::size_t... kJ>
[[gnu::always_inline]] inline void accumulate_lanes(std::array<double, sizeof...(kJ)>& s,
                                                    const double* c, const double* b,
                                                    std::size_t count,
                                                    std::index_sequence<kJ...>) noexcept {
  ((kJ < count ? void(s[kJ] += c[kJ] * b[kJ]) : void()), ...);
}

/// One particle's p2m basis: rho^0..rho^p, then conj(Y_n^m) re/im pairs.
void fill_p2m_basis(int p, const Vec3& offset, double* out) noexcept {
  const Direction d = direction(offset);
  out[0] = 1.0;
  for (int n = 1; n <= p; ++n) out[n] = out[n - 1] * d.r;
  fill_harmonics<FillLayout::kConjugate>(p, d, out + p + 1);
}

/// Y_n^m (0 <= m <= n <= p) of direction `d` for the translations and l2p,
/// filled into the thread's workspace. std::complex<double> is laid out as
/// a re/im pair of doubles, which is the fill's layout.
std::span<const Complex> translation_harmonics(int p, const Direction& d) noexcept {
  Complex* Y = kernel_workspace().harmonics.data();
  fill_harmonics<FillLayout::kHarmonics>(p, d, reinterpret_cast<double*>(Y));
  return {Y, tri_size(p)};
}

}  // namespace

void p2m(const Vec3& center, std::span<const Vec3> positions, std::span<const double> charges,
         MultipoleExpansion& out) {
  assert(positions.size() == charges.size());
  const int p = out.degree();
  assert(p >= 0 && p <= kMaxDegree);
  double* basis = basis_workspace();
  for (std::size_t i = 0; i < positions.size(); ++i) {
    fill_p2m_basis(p, positions[i] - center, basis);
    p2m_apply_basis(charges.subspan(i, 1), basis, out);
  }
}

std::size_t p2m_basis_size(int p, std::size_t count) noexcept {
  return count * (static_cast<std::size_t>(p) + 1 + 2 * tri_size(p));
}

void p2m_basis(int p, const Vec3& center, std::span<const Vec3> positions,
               std::span<double> out) {
  assert(p >= 0 && p <= kMaxDegree);
  assert(out.size() >= p2m_basis_size(p, positions.size()));
  const std::size_t stride = p2m_basis_size(p, 1);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    fill_p2m_basis(p, positions[i] - center, out.data() + i * stride);
  }
}

void p2m_apply_basis(std::span<const double> charges, const double* basis,
                     MultipoleExpansion& out) noexcept {
  const int p = out.degree();
  const std::size_t stride = static_cast<std::size_t>(p) + 1 + 2 * tri_size(p);
  for (std::size_t i = 0; i < charges.size(); ++i) {
    const double* rho = basis + i * stride;
    const double* Yc = rho + p + 1;
    const double q = charges[i];
    for (int n = 0; n <= p; ++n) {
      const double qr = q * rho[n];
      for (int m = 0; m <= n; ++m) {
        const std::size_t k = 2 * tri_index(n, m);
        // The stored imaginary part is already conjugated.
        out.coeff(n, m) += Complex{qr * Yc[k], qr * Yc[k + 1]};
      }
    }
  }
}

void p2m_dipole(const Vec3& center, std::span<const Vec3> positions,
                std::span<const Vec3> moments, MultipoleExpansion& out) {
  assert(positions.size() == moments.size());
  const int p = out.degree();
  assert(p >= 0 && p <= kMaxDegree);
  thread_local std::vector<Complex> Y, dY, Ysin;
  Y.resize(tri_size(p));
  dY.resize(tri_size(p));
  Ysin.resize(tri_size(p));
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const Spherical s = to_spherical(positions[i] - center);
    eval_harmonics_derivs(p, s.theta, s.phi, Y, dY, Ysin);
    const double st = std::sin(s.theta);
    const double ct = std::cos(s.theta);
    const double sp = std::sin(s.phi);
    const double cp = std::cos(s.phi);
    const Vec3 rhat{st * cp, st * sp, ct};
    const Vec3 that{ct * cp, ct * sp, -st};
    const Vec3 phat{-sp, cp, 0.0};
    // Components of the dipole moment in the local spherical frame.
    const double dr = dot(moments[i], rhat);
    const double dth = dot(moments[i], that);
    const double dph = dot(moments[i], phat);
    // M_n^m += d . grad_y [rho^n conj(Y_n^m)]; the n = 0 term is constant
    // in y, so dipoles contribute nothing there (zero net charge).
    double rp = 1.0;  // rho^(n-1)
    for (int n = 1; n <= p; ++n) {
      for (int m = 0; m <= n; ++m) {
        const std::size_t idx = tri_index(n, m);
        // conj(i m Ysin) = -i m conj(Ysin)
        const Complex grad_f =
            rp * (dr * static_cast<double>(n) * std::conj(Y[idx]) +
                  dth * std::conj(dY[idx]) +
                  dph * Complex{0.0, -static_cast<double>(m)} * std::conj(Ysin[idx]));
        out.coeff(n, m) += grad_f;
      }
      rp *= s.r;
    }
  }
}

void m2m(const MultipoleExpansion& src, const Vec3& src_center, MultipoleExpansion& dst,
         const Vec3& dst_center) {
  const int pd = dst.degree();
  assert(pd >= 0 && pd <= kMaxDegree);
  const Direction d = direction(src_center - dst_center);
  if (d.r == 0.0) {
    add_coincident(src, dst);
    return;
  }
  const std::span<const Complex> Y = translation_harmonics(pd, d);
  const std::array<double, kMaxDegree + 1> rho_pow = powers(d.r, pd);

  for (int j = 0; j <= pd; ++j) {
    for (int k = 0; k <= j; ++k) {
      Complex acc{0.0, 0.0};
      for (int n = 0; n <= j; ++n) {
        const int jn = j - n;
        for (int m = -n; m <= n; ++m) {
          const int km = k - m;
          if (km < -jn || km > jn) continue;
          const Complex o = src.coeff_signed(jn, km);
          if (o == Complex{0.0, 0.0}) continue;
          const int absk = k;  // k >= 0 here
          const int absm = m < 0 ? -m : m;
          const int abskm = km < 0 ? -km : km;
          acc += o * ipow(absk - absm - abskm) *
                 (a_coeff(n, m) * a_coeff(jn, km) * rho_pow[static_cast<std::size_t>(n)]) *
                 y_signed(Y, n, -m);
        }
      }
      dst.coeff(j, k) += acc / a_coeff(j, k);
    }
  }
}

void m2l(const MultipoleExpansion& src, const Vec3& src_center, LocalExpansion& dst,
         const Vec3& dst_center) {
  const int ps = src.degree();
  const int pd = dst.degree();
  assert(ps >= 0 && pd >= 0 && ps + pd <= kMaxDegree);
  const Direction d = direction(src_center - dst_center);
  assert(d.r > 0.0 && "m2l requires separated centers");
  const int ptot = ps + pd;
  const std::span<const Complex> Y = translation_harmonics(ptot, d);
  // 1/rho^(j+n+1) for j+n in [0, ptot]
  std::array<double, kMaxDegree + 1> inv_rho_pow;
  inv_rho_pow[0] = 1.0 / d.r;
  for (int n = 1; n <= ptot; ++n) {
    inv_rho_pow[static_cast<std::size_t>(n)] = inv_rho_pow[static_cast<std::size_t>(n - 1)] / d.r;
  }

  for (int j = 0; j <= pd; ++j) {
    for (int k = 0; k <= j; ++k) {
      Complex acc{0.0, 0.0};
      for (int n = 0; n <= ps; ++n) {
        const double sign_n = (n % 2 == 0) ? 1.0 : -1.0;
        for (int m = -n; m <= n; ++m) {
          const Complex o = src.coeff_signed(n, m);
          if (o == Complex{0.0, 0.0}) continue;
          const int absm = m < 0 ? -m : m;
          const int mk = m - k;
          const int absmk = mk < 0 ? -mk : mk;
          acc += o * ipow(absmk - k - absm) *
                 (a_coeff(n, m) * a_coeff(j, k) /
                  (sign_n * a_coeff(j + n, mk))) *
                 y_signed(Y, j + n, mk) * inv_rho_pow[static_cast<std::size_t>(j + n)];
        }
      }
      dst.coeff(j, k) += acc;
    }
  }
}

void l2l(const LocalExpansion& src, const Vec3& src_center, LocalExpansion& dst,
         const Vec3& dst_center) {
  const int ps = src.degree();
  const int pd = dst.degree();
  assert(ps >= 0 && pd >= 0 && ps <= kMaxDegree);
  const Direction d = direction(src_center - dst_center);
  if (d.r == 0.0) {
    add_coincident(src, dst);
    return;
  }
  const std::span<const Complex> Y = translation_harmonics(ps, d);
  const std::array<double, kMaxDegree + 1> rho_pow = powers(d.r, ps);

  for (int j = 0; j <= pd && j <= ps; ++j) {
    for (int k = 0; k <= j; ++k) {
      Complex acc{0.0, 0.0};
      for (int n = j; n <= ps; ++n) {
        const int nj = n - j;
        const double sign_nj = ((n + j) % 2 == 0) ? 1.0 : -1.0;
        for (int m = -n; m <= n; ++m) {
          const int mk = m - k;
          if (mk < -nj || mk > nj) continue;
          const Complex o = src.coeff_signed(n, m);
          if (o == Complex{0.0, 0.0}) continue;
          const int absm = m < 0 ? -m : m;
          const int absmk = mk < 0 ? -mk : mk;
          acc += o * ipow(absm - absmk - k) *
                 (a_coeff(nj, mk) * a_coeff(j, k) /
                  (sign_nj * a_coeff(n, m))) *
                 y_signed(Y, nj, mk) * rho_pow[static_cast<std::size_t>(nj)];
        }
      }
      dst.coeff(j, k) += acc;
    }
  }
}

double m2p(const MultipoleExpansion& mexp, const Vec3& center, const Vec3& point) {
  return m2p_apply_basis(mexp, m2p_basis_workspace(mexp.degree(), center, point));
}

std::size_t m2p_basis_size(int p) noexcept {
  return 2 * tri_size(p);
}

void m2p_basis(int p, const Vec3& center, const Vec3& point, std::span<double> out) {
  assert(out.size() >= m2p_basis_size(p));
  const Direction d = direction(point - center);
  assert(d.r > 0.0);
  fill_harmonics<FillLayout::kSolid>(p, d, out.data());
}

const double* m2p_basis_workspace(int p, const Vec3& center, const Vec3& point) {
  double* basis = basis_workspace();
  m2p_basis(p, center, point, std::span<double>(basis, m2p_basis_size(p)));
  return basis;
}

double m2p_apply_basis(const MultipoleExpansion& mexp, const double* basis) noexcept {
  // The coefficients are re/im pairs in tri_index order, the basis's order,
  // and the basis already carries w_m r^-(n+1) and the conjugation, so
  // Re sum_m M_n^m Y_n^m / r^(n+1) over |m| <= n is one flat dot product.
  // Eight independent partial sums keep the adds off one latency chain;
  // they are combined in a fixed order, so every caller gets the same bits.
  constexpr std::size_t kLanes = 8;
  constexpr auto lanes = std::make_index_sequence<kLanes>{};
  const double* c = reinterpret_cast<const double*>(mexp.data().data());
  const std::size_t len = m2p_basis_size(mexp.degree());
  std::array<double, kLanes> s{};
  std::size_t i = 0;
  for (; i + kLanes <= len; i += kLanes) accumulate_lanes(s, c + i, basis + i, kLanes, lanes);
  accumulate_lanes(s, c + i, basis + i, len - i, lanes);
  return ((s[0] + s[2]) + (s[4] + s[6])) + ((s[1] + s[3]) + (s[5] + s[7]));
}

PotentialGrad m2p_grad(const MultipoleExpansion& mexp, const Vec3& center, const Vec3& point) {
  const int p = mexp.degree();
  const Spherical s = to_spherical(point - center);
  assert(s.r > 0.0);
  thread_local std::vector<Complex> Y, dY, Ysin;
  Y.resize(tri_size(p));
  dY.resize(tri_size(p));
  Ysin.resize(tri_size(p));
  eval_harmonics_derivs(p, s.theta, s.phi, Y, dY, Ysin);

  const double inv_r = 1.0 / s.r;
  double phi = 0.0;
  double dphi_dr = 0.0;        // d/dr
  double dphi_dth_over_r = 0.0;  // (1/r) d/dtheta
  double dphi_az = 0.0;          // (1/(r sin)) d/dphi
  double rpow = inv_r;           // 1/r^(n+1)
  for (int n = 0; n <= p; ++n) {
    double bval = (mexp.coeff(n, 0) * Y[tri_index(n, 0)]).real();
    double bth = (mexp.coeff(n, 0) * dY[tri_index(n, 0)]).real();
    double baz = 0.0;
    for (int m = 1; m <= n; ++m) {
      const Complex c = mexp.coeff(n, m);
      bval += 2.0 * (c * Y[tri_index(n, m)]).real();
      bth += 2.0 * (c * dY[tri_index(n, m)]).real();
      baz += -2.0 * m * (c * Ysin[tri_index(n, m)]).imag();
    }
    phi += bval * rpow;
    dphi_dr += -(n + 1) * bval * rpow * inv_r;
    dphi_dth_over_r += bth * rpow * inv_r;
    dphi_az += baz * rpow * inv_r;
    rpow *= inv_r;
  }
  const double st = std::sin(s.theta);
  const double ct = std::cos(s.theta);
  const double sp = std::sin(s.phi);
  const double cp = std::cos(s.phi);
  PotentialGrad out;
  out.potential = phi;
  const Vec3 rhat{st * cp, st * sp, ct};
  const Vec3 that{ct * cp, ct * sp, -st};
  const Vec3 phat{-sp, cp, 0.0};
  out.gradient = dphi_dr * rhat + dphi_dth_over_r * that + dphi_az * phat;
  return out;
}

double l2p(const LocalExpansion& lexp, const Vec3& center, const Vec3& point) {
  const int p = lexp.degree();
  assert(p >= 0 && p <= kMaxDegree);
  const Direction d = direction(point - center);
  const std::span<const Complex> Y = translation_harmonics(p, d);
  double phi = 0.0;
  double rpow = 1.0;  // r^n
  for (int n = 0; n <= p; ++n) {
    double bracket = (lexp.coeff(n, 0) * Y[tri_index(n, 0)]).real();
    for (int m = 1; m <= n; ++m) {
      bracket += 2.0 * (lexp.coeff(n, m) * Y[tri_index(n, m)]).real();
    }
    phi += bracket * rpow;
    rpow *= d.r;
  }
  return phi;
}

PotentialGrad l2p_grad(const LocalExpansion& lexp, const Vec3& center, const Vec3& point) {
  const int p = lexp.degree();
  const Spherical s = to_spherical(point - center);
  thread_local std::vector<Complex> Y, dY, Ysin;
  Y.resize(tri_size(p));
  dY.resize(tri_size(p));
  Ysin.resize(tri_size(p));
  eval_harmonics_derivs(p, s.theta, s.phi, Y, dY, Ysin);

  double phi = 0.0;
  double dphi_dr = 0.0;
  double dphi_dth_over_r = 0.0;  // sum over n of r^(n-1) * theta-bracket
  double dphi_az = 0.0;
  double rpow = 1.0;       // r^n
  double rpow_m1 = 0.0;    // r^(n-1), defined for n >= 1
  for (int n = 0; n <= p; ++n) {
    double bval = (lexp.coeff(n, 0) * Y[tri_index(n, 0)]).real();
    double bth = (lexp.coeff(n, 0) * dY[tri_index(n, 0)]).real();
    double baz = 0.0;
    for (int m = 1; m <= n; ++m) {
      const Complex c = lexp.coeff(n, m);
      bval += 2.0 * (c * Y[tri_index(n, m)]).real();
      bth += 2.0 * (c * dY[tri_index(n, m)]).real();
      baz += -2.0 * m * (c * Ysin[tri_index(n, m)]).imag();
    }
    phi += bval * rpow;
    if (n >= 1) {
      dphi_dr += n * bval * rpow_m1;
      dphi_dth_over_r += bth * rpow_m1;
      dphi_az += baz * rpow_m1;
    }
    rpow_m1 = rpow;
    rpow *= s.r;
  }
  const double st = std::sin(s.theta);
  const double ct = std::cos(s.theta);
  const double sp = std::sin(s.phi);
  const double cp = std::cos(s.phi);
  PotentialGrad out;
  out.potential = phi;
  const Vec3 rhat{st * cp, st * sp, ct};
  const Vec3 that{ct * cp, ct * sp, -st};
  const Vec3 phat{-sp, cp, 0.0};
  out.gradient = dphi_dr * rhat + dphi_dth_over_r * that + dphi_az * phat;
  return out;
}

double p2p(const Vec3& point, std::span<const Vec3> positions, std::span<const double> charges,
           double softening2) {
  double phi = 0.0;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const double r2 = distance2(point, positions[i]);
    if (r2 == 0.0) continue;
    phi += charges[i] / std::sqrt(r2 + softening2);
  }
  return phi;
}

void p2p_batch(const Vec3& point, std::span<const Vec3> positions,
               std::span<const std::span<const double>> charge_columns,
               double softening2, std::span<double> out) {
  const std::size_t k = charge_columns.size();
  for (std::size_t c = 0; c < k; ++c) out[c] = 0.0;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const double r2 = distance2(point, positions[i]);
    if (r2 == 0.0) continue;
    // One sqrt shared by every column: p2p() divides by
    // sqrt(r2 + softening2) computed from the same operands, so each
    // column's quotient — and therefore its running sum — is bitwise the
    // single-RHS value.
    const double denom = std::sqrt(r2 + softening2);
    for (std::size_t c = 0; c < k; ++c) out[c] += charge_columns[c][i] / denom;
  }
}

PotentialGrad p2p_grad(const Vec3& point, std::span<const Vec3> positions,
                       std::span<const double> charges, double softening2) {
  PotentialGrad out;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const Vec3 d = point - positions[i];
    const double r2 = norm2(d);
    if (r2 == 0.0) continue;
    const double inv_r = 1.0 / std::sqrt(r2 + softening2);
    const double inv_r3 = inv_r * inv_r * inv_r;
    out.potential += charges[i] * inv_r;
    // grad (q (r^2 + e^2)^{-1/2}) = -q r (r^2 + e^2)^{-3/2}
    out.gradient += d * (-charges[i] * inv_r3);
  }
  return out;
}

double p2p_dipole(const Vec3& point, std::span<const Vec3> positions,
                  std::span<const Vec3> moments) {
  double phi = 0.0;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const Vec3 d = point - positions[i];
    const double r2 = norm2(d);
    if (r2 == 0.0) continue;
    const double inv_r = 1.0 / std::sqrt(r2);
    phi += dot(moments[i], d) * inv_r * inv_r * inv_r;
  }
  return phi;
}

}  // namespace treecode

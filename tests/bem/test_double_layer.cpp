#include <gtest/gtest.h>

#include <cmath>

#include "bem/bem_operator.hpp"
#include "bem/double_layer.hpp"
#include "bem/meshgen.hpp"
#include "linalg/gmres.hpp"
#include "util/stats.hpp"

namespace treecode {
namespace {

DoubleLayerOperator::Options dl_options(int degree = 8, double alpha = 0.5) {
  DoubleLayerOperator::Options opt;
  opt.eval.alpha = alpha;
  opt.eval.degree = degree;
  opt.gauss_points = 6;
  return opt;
}

TEST(MeshOrientation, GeneratorsAreOutward) {
  EXPECT_NEAR(make_sphere(24, 48).signed_volume(), 4.0 * M_PI / 3.0,
              0.05 * 4.0 * M_PI / 3.0);
  EXPECT_NEAR(make_torus(48, 32, 1.0, 0.35).signed_volume(),
              2.0 * M_PI * M_PI * 1.0 * 0.35 * 0.35,
              0.05 * 2.0 * M_PI * M_PI * 0.35 * 0.35);
  EXPECT_GT(make_propeller(20, 40).signed_volume(), 0.0);
  EXPECT_GT(make_gripper(20, 40).signed_volume(), 0.0);
}

TEST(DoubleLayer, GaussFluxIdentity) {
  // W[1](x) = -4 pi inside, ~0 outside a closed outward-oriented surface.
  for (const auto make : {+[] { return make_sphere(20, 40); },
                          +[] { return make_propeller(24, 48); }}) {
    const TriangleMesh mesh = make();
    const DoubleLayerOperator K(mesh, dl_options(10, 0.4));
    const std::vector<double> ones(K.cols(), 1.0);
    const std::vector<Vec3> probes{{0, 0, 0.05}, {0.05, 0.02, 0.0},   // inside
                                   {5, 5, 5}, {-4, 0, 0}};            // outside
    const std::vector<double> w = K.potential_at(probes, ones);
    EXPECT_NEAR(w[0], -4.0 * M_PI, 0.05 * 4.0 * M_PI);
    EXPECT_NEAR(w[1], -4.0 * M_PI, 0.05 * 4.0 * M_PI);
    EXPECT_NEAR(w[2], 0.0, 0.05);
    EXPECT_NEAR(w[3], 0.0, 0.05);
  }
}

TEST(DoubleLayer, TreecodeMatchesDirect) {
  const TriangleMesh mesh = make_gripper(12, 24);
  const DoubleLayerOperator K(mesh, dl_options(10, 0.4));
  std::vector<double> x(K.cols());
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = 1.0 + std::sin(0.4 * static_cast<double>(i));
  std::vector<double> y_tree(K.rows()), y_direct(K.rows());
  K.apply(x, y_tree);
  K.apply_direct(x, y_direct);
  EXPECT_LT(relative_error_2norm(y_direct, y_tree), 1e-4);
}

TEST(DoubleLayer, ApplyReportsAcceptedInteractions) {
  const TriangleMesh mesh = make_gripper(12, 24);
  const DoubleLayerOperator K(mesh, dl_options(10, 0.4));
  const std::vector<double> x(K.cols(), 1.0);
  std::vector<double> y(K.rows());
  K.apply(x, y);
  const EvalStats& stats = K.last_stats();
  EXPECT_GT(stats.multipole_terms, 0u);
  EXPECT_GT(stats.m2p_count, 0u);
  EXPECT_LE(stats.min_degree_used, stats.max_degree_used);
}

TEST(DoubleLayer, SecondKindSolveReproducesInteriorField) {
  // Interior Dirichlet via (-2 pi I + K) sigma = f with f the trace of an
  // exterior point charge; W[sigma] inside must reproduce that field.
  const TriangleMesh mesh = make_sphere(16, 32);
  const DoubleLayerOperator K(mesh, dl_options(10, 0.4));
  const SecondKindDirichletOperator A(K);
  const Vec3 source{3.0, 0.5, -0.2};
  const std::vector<double> f = K.point_charge_rhs(source, 1.0);
  std::vector<double> sigma(A.cols(), 0.0);
  GmresOptions opt;
  opt.restart = 10;
  opt.tolerance = 1e-9;
  opt.max_iterations = 200;
  const GmresResult r = gmres(A, f, sigma, opt);
  ASSERT_TRUE(r.converged);
  const std::vector<Vec3> probes{{0, 0, 0}, {0.2, -0.3, 0.1}};
  const std::vector<double> u = K.potential_at(probes, sigma);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const double expected = 1.0 / distance(probes[i], source);
    // Accuracy here is limited by the plain-Gauss treatment of the weakly
    // singular kernel on collocation rows (a discretization property, not
    // a treecode one); it tightens under mesh refinement.
    EXPECT_NEAR(u[i], expected, 0.08 * expected) << i;
  }
}

TEST(DoubleLayer, SecondKindConvergesFasterThanFirstKind) {
  // The conditioning claim: on the same mesh and data, GMRES(10) needs far
  // fewer iterations for (-2 pi I + K) than for the first-kind single-layer
  // operator.
  const TriangleMesh mesh = make_propeller(16, 32);
  const Vec3 source{3.0, 1.0, 2.0};

  DoubleLayerOperator::Options dopt = dl_options(6, 0.5);
  const DoubleLayerOperator K(mesh, dopt);
  const SecondKindDirichletOperator A2(K);

  SingleLayerOperator::Options sopt;
  sopt.eval.alpha = 0.5;
  sopt.eval.degree = 6;
  sopt.gauss_points = 6;
  const SingleLayerOperator A1(mesh, sopt);

  GmresOptions opt;
  opt.restart = 10;
  opt.tolerance = 1e-8;
  opt.max_iterations = 500;

  std::vector<double> s1(A1.cols(), 0.0), s2(A2.cols(), 0.0);
  const std::vector<double> f = A1.point_charge_rhs(source, 1.0);
  const GmresResult r1 = gmres(A1, f, s1, opt);
  const GmresResult r2 = gmres(A2, f, s2, opt);
  ASSERT_TRUE(r2.converged);
  EXPECT_LT(r2.iterations, r1.iterations / 2)
      << "second-kind " << r2.iterations << " vs first-kind " << r1.iterations;
  EXPECT_LT(r2.iterations, 40);
}

TEST(DoubleLayer, ConstantDensityOnSurfaceGivesMinusTwoPi) {
  // The jump relation's on-surface value: K[1](x_i) ~ -2 pi at (smooth)
  // collocation points. Quadrature is only approximate for the weakly
  // singular kernel, so allow a generous band away from the poles.
  const TriangleMesh mesh = make_sphere(24, 48);
  const DoubleLayerOperator K(mesh, dl_options(10, 0.4));
  const std::vector<double> ones(K.cols(), 1.0);
  std::vector<double> y(K.rows());
  K.apply(ones, y);
  std::size_t close = 0;
  for (double v : y) {
    if (std::abs(v + 2.0 * M_PI) < 0.15 * 2.0 * M_PI) ++close;
  }
  EXPECT_GT(close, y.size() * 8 / 10);
}

}  // namespace
}  // namespace treecode

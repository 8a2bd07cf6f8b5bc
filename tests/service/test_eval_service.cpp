#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "bem/bem_operator.hpp"
#include "bem/meshgen.hpp"
#include "bitwise.hpp"
#include "dist/distributions.hpp"
#include "engine/eval_session.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "service/bem_tenant.hpp"
#include "service/eval_service.hpp"
#include "tree/octree.hpp"

namespace treecode {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

EvalConfig base_config() {
  EvalConfig cfg;
  cfg.alpha = 0.5;
  cfg.degree = 4;
  cfg.mode = DegreeMode::kAdaptive;
  cfg.threads = 2;
  return cfg;
}

service::EvalService::TenantOptions tenant_options() {
  service::EvalService::TenantOptions topt;
  topt.eval = base_config();
  return topt;
}

std::vector<double> charges_for(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> q(n);
  for (double& v : q) v = u(rng);
  return q;
}

// pump() mode keeps scheduling deterministic: queue k requests, pump once,
// and the whole queue is served as one coalesced batch — with each ticket's
// result bitwise-identical to a direct single-RHS evaluation.
TEST(EvalService, PumpCoalescesQueueIntoOneBatchBitwiseEqualToSingleRhs) {
  const ParticleSystem ps = dist::uniform_cube(900, 17);
  service::EvalService svc(service::EvalService::Options{.start_scheduler = false});
  ASSERT_TRUE(svc.try_register_tenant("t", ps, {}, tenant_options()).ok());

  std::vector<std::vector<double>> cols;
  std::vector<service::EvalService::Ticket> tickets;
  for (std::size_t c = 0; c < 5; ++c) {
    cols.push_back(charges_for(ps.size(), 40 + c));
    auto t = svc.try_submit("t", cols.back());
    ASSERT_TRUE(t.ok());
    tickets.push_back(std::move(t).value());
  }
  EXPECT_EQ(svc.pump(), 5u);  // one round serves the whole queue
  EXPECT_EQ(svc.pump(), 0u);  // nothing left

  // Reference results from an independent session over the same geometry.
  engine::EvalSession ref(Tree(ps), base_config());
  const auto plan = ref.try_compile_self().value_or_throw();
  for (std::size_t c = 0; c < 5; ++c) {
    auto result = tickets[c].wait();
    ASSERT_TRUE(result.ok());
    ref.try_update_charges(cols[c]).value_or_throw();
    const EvalResult single = ref.try_evaluate(*plan).value_or_throw();
    EXPECT_TRUE(bitwise_equal(result.value().potential, single.potential)) << c;
  }

  // A ticket's result moves out exactly once.
  const auto again = tickets[0].wait();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code, ErrorCode::kInvalidArgument);
}

TEST(EvalService, AdmissionTaxonomy) {
  const ParticleSystem ps = dist::uniform_cube(400, 3);
  service::EvalService svc(service::EvalService::Options{.start_scheduler = false});
  service::EvalService::TenantOptions topt = tenant_options();
  topt.max_queue_depth = 2;
  ASSERT_TRUE(svc.try_register_tenant("t", ps, {}, topt).ok());

  // Unknown tenant and bad names are invalid arguments, not rejections.
  const std::vector<double> q(ps.size(), 1.0);
  EXPECT_EQ(svc.try_submit("nobody", q).error().code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(svc.try_register_tenant("Bad Name!", ps, {}, topt).error().code,
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(svc.try_register_tenant("t", ps, {}, topt).error().code,
            ErrorCode::kInvalidArgument);  // duplicate

  // Wrong size and non-finite inputs are caught at admission.
  const std::vector<double> short_q(ps.size() - 3, 1.0);
  EXPECT_EQ(svc.try_submit("t", short_q).error().code, ErrorCode::kInvalidArgument);
  std::vector<double> nan_q(ps.size(), 1.0);
  nan_q[0] = kNan;
  EXPECT_EQ(svc.try_submit("t", nan_q).error().code, ErrorCode::kNonFinite);

  // Queue full -> deterministic kRejected backpressure.
  ASSERT_TRUE(svc.try_submit("t", q).ok());
  ASSERT_TRUE(svc.try_submit("t", q).ok());
  const std::uint64_t rejected_before =
      obs::registry().counter(obs::metric::kServiceRejected).value();
  const auto full = svc.try_submit("t", q);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.error().code, ErrorCode::kRejected);
  EXPECT_EQ(obs::registry().counter(obs::metric::kServiceRejected).value(),
            rejected_before + 1);

  while (svc.pump() > 0) {
  }
}

// Exhausting the error budget quarantines the tenant: subsequent submits
// are rejected (typed, counted), not evaluated.
TEST(EvalService, ErrorBudgetQuarantine) {
  const ParticleSystem ps = dist::uniform_cube(300, 9);
  service::EvalService svc(service::EvalService::Options{.start_scheduler = false});
  service::EvalService::TenantOptions topt = tenant_options();
  topt.error_budget = 2;
  ASSERT_TRUE(svc.try_register_tenant("t", ps, {}, topt).ok());

  std::vector<double> nan_q(ps.size(), 1.0);
  nan_q[5] = kNan;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(svc.try_submit("t", nan_q).error().code, ErrorCode::kNonFinite) << i;
  }
  // Budget (2) exceeded on the third error; good input is now rejected.
  const std::vector<double> good(ps.size(), 1.0);
  const auto rejected = svc.try_submit("t", good);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, ErrorCode::kRejected);
}

// Unregistering cancels queued work with kCancelled and removes the
// tenant; its plan bytes leave the engine gauges with it.
TEST(EvalService, UnregisterCancelsQueuedRequestsAndShedsPlanBytes) {
  const ParticleSystem ps = dist::uniform_cube(800, 21);
  const double plan_bytes_before =
      obs::registry().gauge(obs::metric::kEnginePlanBytes).value();
  service::EvalService svc(service::EvalService::Options{.start_scheduler = false});
  ASSERT_TRUE(svc.try_register_tenant("t", ps, {}, tenant_options()).ok());
  EXPECT_GT(obs::registry().gauge(obs::metric::kEnginePlanBytes).value(),
            plan_bytes_before);

  const std::vector<double> q(ps.size(), 1.0);
  auto t1 = svc.try_submit("t", q);
  auto t2 = svc.try_submit("t", q);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());

  ASSERT_TRUE(svc.try_unregister_tenant("t").ok());
  EXPECT_EQ(svc.num_tenants(), 0u);
  EXPECT_DOUBLE_EQ(obs::registry().gauge(obs::metric::kEnginePlanBytes).value(),
                   plan_bytes_before);

  for (auto* ticket : {&t1.value(), &t2.value()}) {
    const auto r = ticket->wait();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::kCancelled);
  }
  EXPECT_EQ(svc.try_unregister_tenant("t").error().code,
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(svc.try_submit("t", q).error().code, ErrorCode::kInvalidArgument);
}

// The background scheduler serves submissions without explicit pumping.
TEST(EvalService, BackgroundSchedulerServesSubmissions) {
  const ParticleSystem ps = dist::uniform_cube(600, 13);
  service::EvalService svc;  // scheduler on
  ASSERT_TRUE(svc.try_register_tenant("t", ps, {}, tenant_options()).ok());
  for (int i = 0; i < 6; ++i) {
    auto ticket = svc.try_submit("t", charges_for(ps.size(), 60 + i));
    ASSERT_TRUE(ticket.ok());
    const auto result = ticket.value().wait();
    ASSERT_TRUE(result.ok()) << result.error().message;
    EXPECT_EQ(result.value().potential.size(), ps.size());
  }
}

// The BEM operator as a tenant: bitwise-identical matvec to the in-process
// SingleLayerOperator, end to end through admission, batching, and replay.
TEST(EvalService, BemTenantMatvecBitwiseMatchesSingleLayerOperator) {
  const TriangleMesh mesh = make_sphere(8, 12);
  SingleLayerOperator::Options opt;
  opt.eval = base_config();
  const SingleLayerOperator direct(mesh, opt);

  service::EvalService svc;
  service::BemTenantOperator::Options bopt;
  bopt.eval = base_config();
  const service::BemTenantOperator tenant(svc, "bem", mesh, bopt);
  EXPECT_EQ(svc.num_tenants(), 1u);

  std::vector<double> x(mesh.num_vertices());
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 1.0 + 0.5 * std::sin(0.37 * static_cast<double>(i));
  }
  std::vector<double> y_direct(mesh.num_vertices());
  std::vector<double> y_service(mesh.num_vertices());
  direct.apply(x, y_direct);
  tenant.apply(x, y_service);
  EXPECT_TRUE(bitwise_equal(y_direct, y_service));
}

TEST(EvalService, StateJsonReportsTenantsQueuesAndBatchOccupancy) {
  const ParticleSystem ps = dist::uniform_cube(500, 29);
  service::EvalService svc(service::EvalService::Options{.start_scheduler = false});
  ASSERT_TRUE(svc.try_register_tenant("alpha", ps, {}, tenant_options()).ok());
  const std::vector<double> q(ps.size(), 1.0);
  auto t1 = svc.try_submit("alpha", q);
  auto t2 = svc.try_submit("alpha", q);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());

  obs::Json doc = svc.state_json();
  EXPECT_EQ(doc.at("schema").as_string(), "treecode-service/v1");
  EXPECT_EQ(doc.at("num_tenants").as_int(), 1);
  const obs::Json& tenant = doc.at("tenants").at(std::size_t{0});
  EXPECT_EQ(tenant.at("name").as_string(), "alpha");
  EXPECT_EQ(tenant.at("queue_depth").as_int(), 2);
  EXPECT_EQ(tenant.at("submitted").as_int(), 2);
  EXPECT_TRUE(tenant.contains("plan"));
  EXPECT_TRUE(tenant.contains("governor"));
  EXPECT_TRUE(tenant.contains("plan_cache"));

  EXPECT_EQ(svc.pump(), 2u);
  doc = svc.state_json();
  const obs::Json& after = doc.at("tenants").at(std::size_t{0});
  EXPECT_EQ(after.at("served").as_int(), 2);
  EXPECT_EQ(after.at("batches").as_int(), 1);
  EXPECT_EQ(after.at("max_batch_seen").as_int(), 2);
  (void)t1.value().wait();
  (void)t2.value().wait();

  // SLO rules cover the aggregate plus two per-tenant objectives.
  EXPECT_EQ(svc.slo_rules().size(), 3u);
}

}  // namespace
}  // namespace treecode

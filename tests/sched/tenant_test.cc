// Tenant model (PR 7): registry resolution, MultiTenantOptions validation,
// weighted fair-share core allocation under saturation and lane isolation
// for session follow-ups.
#include "sched/tenant.h"

#include <gtest/gtest.h>

#include "api/context.h"
#include "sched/task_scheduler.h"
#include "trace/wiki.h"

namespace stark {
namespace {

// --- registry -------------------------------------------------------------

TEST(TenantRegistry, DefaultTenantIsIdZero) {
  TenantRegistry reg;
  EXPECT_EQ(reg.size(), 1);
  EXPECT_EQ(reg.resolve(""), 0);
  EXPECT_EQ(reg.find(""), 0);
  EXPECT_EQ(reg.name(0), "");
  EXPECT_DOUBLE_EQ(reg.options(0).weight, 1.0);
}

TEST(TenantRegistry, ConfiguredTenantsGetDenseIdsInDeclarationOrder) {
  MultiTenantOptions mt;
  mt.tenants.push_back({"alpha", 2.0, 0.25, 4, 8});
  mt.tenants.push_back({"beta", 1.0, 0.0, 0, 0});
  TenantRegistry reg(mt);
  EXPECT_EQ(reg.size(), 3);
  EXPECT_EQ(reg.find("alpha"), 1);
  EXPECT_EQ(reg.find("beta"), 2);
  EXPECT_DOUBLE_EQ(reg.options(1).weight, 2.0);
  EXPECT_DOUBLE_EQ(reg.options(1).cache_quota, 0.25);
  EXPECT_EQ(reg.options(1).max_in_flight_jobs, 4);
  EXPECT_EQ(reg.options(1).max_pending_jobs, 8);
}

TEST(TenantRegistry, ResolveAutoRegistersUnknownNamesWithDefaults) {
  TenantRegistry reg;
  EXPECT_EQ(reg.find("adhoc"), kInvalidId);
  const TenantId id = reg.resolve("adhoc");
  EXPECT_EQ(id, 1);
  EXPECT_EQ(reg.resolve("adhoc"), id);  // stable on re-resolution
  EXPECT_DOUBLE_EQ(reg.options(id).weight, 1.0);
  EXPECT_DOUBLE_EQ(reg.options(id).cache_quota, 0.0);
}

// --- options validation ---------------------------------------------------

TEST(MultiTenantOptions, ValidateAcceptsAWellFormedConfig) {
  MultiTenantOptions mt;
  mt.fair_share = true;
  mt.tenants.push_back({"a", 3.0, 0.5, 2, 2});
  mt.tenants.push_back({"b", 1.0, 0.0, 0, 0});
  EXPECT_NO_THROW(mt.validate());
}

TEST(MultiTenantOptions, ValidateRejectsBadKnobs) {
  const auto reject = [](TenantOptions t) {
    MultiTenantOptions mt;
    mt.tenants.push_back(std::move(t));
    EXPECT_THROW(mt.validate(), std::invalid_argument);
  };
  reject({"", 1.0, 0.0, 0, 0});        // empty name
  reject({"a", 0.0, 0.0, 0, 0});       // non-positive weight
  reject({"a", -1.0, 0.0, 0, 0});      // negative weight
  reject({"a", 1.0, -0.1, 0, 0});      // quota below 0
  reject({"a", 1.0, 1.5, 0, 0});       // quota above 1
  reject({"a", 1.0, 0.0, -1, 0});      // negative in-flight override
  reject({"a", 1.0, 0.0, 0, -1});      // negative pending override

  MultiTenantOptions dup;
  dup.tenants.push_back({"same", 1.0, 0.0, 0, 0});
  dup.tenants.push_back({"same", 2.0, 0.0, 0, 0});
  EXPECT_THROW(dup.validate(), std::invalid_argument);
}

// --- fair-share core allocation ------------------------------------------

// Drives the TaskScheduler directly: two tenants with 2:1 weights, each
// holding a deep backlog of identical tasks on a fully saturated cluster.
class FairShareTest : public ::testing::Test {
 protected:
  void reset(bool fair_share, int servers = 4, int cores = 6) {
    ClusterConfig cc;
    cc.num_servers = servers;
    cc.server.cores = cores;
    cluster_ = std::make_unique<Cluster>(cc);
    sim_ = std::make_unique<sim::Simulation>();
    CostModel cost;
    cost.driver_dispatch_per_task = 0.0;
    cost.task_launch_overhead = 0.0;
    TaskScheduler::Options opts;
    opts.fair_share = fair_share;
    sched_ = std::make_unique<TaskScheduler>(
        *sim_, *cluster_, cost, opts, [](DatasetId) { return std::string{}; });
  }

  TaskScheduler::TaskSetPtr make_set(TenantId tenant, int n, double work) {
    auto ts = std::make_shared<TaskScheduler::TaskSet>();
    ts->tenant = tenant;
    for (int i = 0; i < n; ++i) {
      TaskSpec spec;
      spec.job = tenant;  // any distinct id per set
      spec.stage = 0;
      spec.index = i;
      spec.unit_id = i;
      spec.lo = i;
      spec.hi = i + 1;
      ts->tasks.push_back(std::move(spec));
    }
    ts->plan = [work](const TaskSpec&, ServerId) {
      TaskPlan p;
      p.cpu = work;
      return p;
    };
    ts->task_done = [](const TaskSpec&, const TaskMetrics&) {};
    ts->all_done = [] {};
    return ts;
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<TaskScheduler> sched_;
};

TEST_F(FairShareTest, TwoToOneWeightsConvergeToTwoToOneRunningCores) {
  reset(/*fair_share=*/true);  // 4 servers x 6 cores = 24
  sched_->set_tenant_weight(1, 2.0);
  sched_->set_tenant_weight(2, 1.0);
  // Deep backlogs: 200 one-second tasks each, far beyond 24 cores.
  sched_->submit(make_set(1, 200, 1.0));
  sched_->submit(make_set(2, 200, 1.0));
  // The first submit grabs every core; fairness emerges as completions
  // hand cores back one at a time to the lowest weighted share. One full
  // task generation is enough to converge.
  sim_->run(1.5);
  EXPECT_EQ(sched_->tenant_running_cores(1) + sched_->tenant_running_cores(2),
            24);
  EXPECT_EQ(sched_->tenant_running_cores(1), 16);
  EXPECT_EQ(sched_->tenant_running_cores(2), 8);
  // And it holds, generation after generation.
  sim_->run(4.5);
  EXPECT_EQ(sched_->tenant_running_cores(1), 16);
  EXPECT_EQ(sched_->tenant_running_cores(2), 8);
}

TEST_F(FairShareTest, EqualWeightsConvergeToEqualShares) {
  reset(/*fair_share=*/true);
  sched_->submit(make_set(1, 200, 1.0));
  sched_->submit(make_set(2, 200, 1.0));
  sim_->run(1.5);
  EXPECT_EQ(sched_->tenant_running_cores(1), 12);
  EXPECT_EQ(sched_->tenant_running_cores(2), 12);
}

TEST_F(FairShareTest, OffKeepsFifoAndStillCountsTenantCores) {
  reset(/*fair_share=*/false);
  sched_->set_tenant_weight(1, 2.0);
  sched_->submit(make_set(1, 200, 1.0));
  sched_->submit(make_set(2, 200, 1.0));
  sim_->run(1.5);
  // Plain FIFO: the first set keeps refilling every freed core; the
  // accounting still tracks who runs where.
  EXPECT_EQ(sched_->tenant_running_cores(1), 24);
  EXPECT_EQ(sched_->tenant_running_cores(2), 0);
}

// --- lanes: follow-ups survive shedding ----------------------------------

KeyHistogram small_hist() {
  trace::WikiTraceGen::Config c;
  c.num_urls = 256;
  return trace::WikiTraceGen(c).histogram(16 * kMiB, 0.9);
}

// A fresh arrival on the default lane must never shed a session's queued
// follow-up riding its own lane: each (tenant, lane) pair owns its queue.
TEST(TenantLanes, FollowupLaneIsNotShedByFreshArrivals) {
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = 4;
  o.overload.admission_enabled = true;
  o.overload.policy = AdmissionPolicy::kShedOldest;
  o.overload.max_in_flight_jobs = 1;
  o.overload.max_pending_jobs = 1;
  Context ctx(o);
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", small_hist(), part, "logs", {.materialize = false});

  std::vector<std::pair<JobId, JobStatus>> outcomes;
  auto cb = [&](const JobResult& r) { outcomes.push_back({r.id, r.status}); };
  // One in flight, then a queued follow-up on its own lane, then two fresh
  // default-lane arrivals hammering the (q, "") queue.
  const JobId running = ctx.dag().submit(
      ds, ActionType::kCount, SubmitOptions{.tenant = "q"}, cb);
  const JobId followup = ctx.dag().submit(
      ds, ActionType::kCount, SubmitOptions{.tenant = "q", .lane = "followup"},
      cb);
  const JobId fresh1 = ctx.dag().submit(
      ds, ActionType::kCount, SubmitOptions{.tenant = "q"}, cb);
  const JobId fresh2 = ctx.dag().submit(
      ds, ActionType::kCount, SubmitOptions{.tenant = "q"}, cb);
  ctx.sim().run();

  ASSERT_EQ(outcomes.size(), 4u);
  int shed = 0;
  for (const auto& [id, status] : outcomes) {
    if (status == JobStatus::kShed) {
      ++shed;
      // Only the default-lane queue sheds; the follow-up is untouchable.
      EXPECT_TRUE(id == fresh1 || id == fresh2);
      EXPECT_NE(id, followup);
      EXPECT_NE(id, running);
    }
  }
  EXPECT_EQ(shed, 1);  // fresh2's arrival displaced fresh1
  for (const auto& [id, status] : outcomes) {
    if (id == followup || id == running) {
      EXPECT_EQ(status, JobStatus::kCompleted);
    }
  }
}

// --- tenant plumbed end to end -------------------------------------------

TEST(TenantSubmit, JobResultCarriesTheResolvedTenant) {
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = 2;
  o.tenants.tenants.push_back({"analytics", 2.0, 0.0, 0, 0});
  Context ctx(o);
  auto part = ctx.collection_partitioner(4, 256);
  auto ds = ctx.ingest("d", small_hist(), part, "logs", {.materialize = false});
  std::string seen_name;
  TenantId seen_id = kInvalidId;
  ctx.dag().submit(ds, ActionType::kCount,
                   SubmitOptions{.tenant = "analytics"},
                   [&](const JobResult& r) {
                     seen_name = r.tenant;
                     seen_id = r.tenant_id;
                   });
  ctx.sim().run();
  EXPECT_EQ(seen_name, "analytics");
  EXPECT_EQ(seen_id, 1);  // declared first => id 1 (0 is the default)
}

}  // namespace
}  // namespace stark

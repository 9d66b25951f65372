// Unit tests for the access server: auth matrix, certificates, registry,
// scheduler, onboarding, maintenance jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>

#include "controller/rest_backend.hpp"
#include "device/android.hpp"
#include "device/browser.hpp"
#include "server/access_server.hpp"
#include "server/auth.hpp"
#include "server/certs.hpp"
#include "server/maintenance.hpp"
#include "server/registry.hpp"
#include "obs/export.hpp"
#include "server/scheduler.hpp"
#include "util/strings.hpp"

namespace blab::server {
namespace {

using util::Duration;
using util::TimePoint;

// ---------------------------------------------------------------- auth ----

TEST(AuthMatrixTest, DefaultsDenyByDefault) {
  AuthorizationMatrix matrix;
  EXPECT_TRUE(matrix.allows(Role::kAdmin, Permission::kApprovePipeline));
  EXPECT_TRUE(matrix.allows(Role::kExperimenter, Permission::kCreateJob));
  EXPECT_FALSE(matrix.allows(Role::kExperimenter,
                             Permission::kApprovePipeline));
  EXPECT_FALSE(matrix.allows(Role::kTester, Permission::kCreateJob));
  EXPECT_TRUE(matrix.allows(Role::kTester, Permission::kInteractiveSession));
}

TEST(AuthMatrixTest, GrantAndRevoke) {
  AuthorizationMatrix matrix;
  matrix.revoke(Role::kExperimenter, Permission::kCreateJob);
  EXPECT_FALSE(matrix.allows(Role::kExperimenter, Permission::kCreateJob));
  matrix.grant(Role::kTester, Permission::kCreateJob);
  EXPECT_TRUE(matrix.allows(Role::kTester, Permission::kCreateJob));
}

TEST(UserDirectoryTest, RegisterAuthenticateAuthorize) {
  UserDirectory users;
  auto token = users.register_user("alice", Role::kExperimenter);
  ASSERT_TRUE(token.ok());
  EXPECT_FALSE(users.register_user("alice", Role::kTester).ok());
  EXPECT_FALSE(users.register_user("", Role::kTester).ok());

  auto user = users.authenticate(token.value());
  ASSERT_TRUE(user.ok());
  EXPECT_EQ(user.value()->username, "alice");
  EXPECT_FALSE(users.authenticate("tok-bogus").ok());

  EXPECT_TRUE(users.authorize(token.value(), Permission::kCreateJob).ok());
  EXPECT_FALSE(
      users.authorize(token.value(), Permission::kApprovePipeline).ok());
}

TEST(UserDirectoryTest, HttpsRequired) {
  UserDirectory users;
  auto token = users.register_user("alice", Role::kAdmin);
  ASSERT_TRUE(token.ok());
  const auto st = users.authorize(token.value(), Permission::kViewConsole,
                                  /*over_https=*/false);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, util::ErrorCode::kPermissionDenied);
}

TEST(UserDirectoryTest, DisabledAccountsRejected) {
  UserDirectory users;
  auto token = users.register_user("bob", Role::kExperimenter);
  ASSERT_TRUE(token.ok());
  ASSERT_TRUE(users.disable_user("bob").ok());
  EXPECT_FALSE(users.authenticate(token.value()).ok());
  EXPECT_FALSE(users.disable_user("nobody").ok());
}

TEST(UserDirectoryTest, TokensAreUniquePerUser) {
  UserDirectory users;
  auto a = users.register_user("u1", Role::kTester);
  auto b = users.register_user("u2", Role::kTester);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a.value(), b.value());
}

// --------------------------------------------------------------- certs ----

TEST(CertsTest, IssueAndLifetime) {
  CertificateManager certs;
  EXPECT_TRUE(certs.needs_renewal(TimePoint::epoch())) << "never issued";
  const auto& cert = certs.issue(TimePoint::epoch());
  EXPECT_EQ(cert.common_name, "*.batterylab.dev");
  EXPECT_TRUE(cert.valid_at(TimePoint::epoch() + Duration::seconds(86400)));
  EXPECT_FALSE(certs.needs_renewal(TimePoint::epoch()));
  // 2/3 into the 90-day lifetime: renewal due.
  const auto later = TimePoint::epoch() + Duration::seconds(61.0 * 86400.0);
  EXPECT_TRUE(certs.needs_renewal(later));
}

TEST(CertsTest, DeploymentTracking) {
  CertificateManager certs;
  EXPECT_FALSE(certs.deploy_to("node1", TimePoint::epoch()).ok())
      << "nothing issued yet";
  certs.issue(TimePoint::epoch());
  ASSERT_TRUE(certs.deploy_to("node1", TimePoint::epoch()).ok());
  EXPECT_TRUE(certs.node_current("node1"));
  EXPECT_FALSE(certs.node_current("node2"));
  // Re-issue: node1 becomes stale.
  certs.issue(TimePoint::epoch() + Duration::seconds(86400));
  EXPECT_FALSE(certs.node_current("node1"));
}

TEST(CertsTest, ExpiredCertCannotDeploy) {
  CertificateManager certs;
  certs.issue(TimePoint::epoch());
  const auto after_expiry =
      TimePoint::epoch() + CertificateManager::kLifetime +
      Duration::seconds(1);
  EXPECT_FALSE(certs.deploy_to("node1", after_expiry).ok());
}

// ---------------------------------------------------- registry fixture ----

class PlatformFixture : public ::testing::Test {
 protected:
  PlatformFixture() : net{sim, 100}, server{sim, net} {
    net.add_host("internet");
    net.add_link("web", "internet",
                 net::LinkSpec::symmetric(Duration::millis(4), 900.0));
    vp = std::make_unique<api::VantagePoint>(sim, net);
    net.add_link(vp->controller_host(), "internet",
                 net::LinkSpec::symmetric(Duration::millis(6), 200.0));
    device::DeviceSpec spec;
    spec.serial = "J7DUO-1";
    auto dev = vp->add_device(spec);
    EXPECT_TRUE(dev.ok());
  }

  std::string add_user(const std::string& name, Role role) {
    auto token = server.users().register_user(name, role);
    EXPECT_TRUE(token.ok());
    return token.value();
  }

  sim::Simulator sim;
  net::Network net;
  AccessServer server;
  std::unique_ptr<api::VantagePoint> vp;
};

TEST_F(PlatformFixture, OnboardingRunsTheFullTutorial) {
  ASSERT_TRUE(server.onboard_vantage_point("node1", *vp).ok());
  const NodeRecord* node = server.registry().find("node1");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->state, NodeState::kApproved);
  EXPECT_TRUE(node->ssh_key_installed);
  EXPECT_TRUE(node->ip_whitelisted);
  // DNS entry exists and resolves to the controller.
  auto host = server.dns().resolve("node1.batterylab.dev");
  ASSERT_TRUE(host.ok());
  EXPECT_EQ(host.value(), vp->controller_host());
  // Certificate deployed.
  EXPECT_TRUE(server.certs().node_current("node1"));
  // Double onboarding rejected.
  EXPECT_FALSE(server.onboard_vantage_point("node1", *vp).ok());
}

TEST_F(PlatformFixture, ApprovalRequiresOnboardingSteps) {
  VantagePointRegistry& reg = server.registry();
  ASSERT_TRUE(reg.register_node("raw", vp.get()).ok());
  EXPECT_FALSE(reg.approve("raw").ok()) << "no key, no whitelist";
  ASSERT_TRUE(reg.mark_key_installed("raw").ok());
  EXPECT_FALSE(reg.approve("raw").ok()) << "still no whitelist";
  ASSERT_TRUE(reg.mark_ip_whitelisted("raw").ok());
  EXPECT_TRUE(reg.approve("raw").ok());
  EXPECT_EQ(reg.approved_labels().size(), 1u);
}

TEST_F(PlatformFixture, RetiredNodeLeavesDns) {
  ASSERT_TRUE(server.onboard_vantage_point("node1", *vp).ok());
  ASSERT_TRUE(server.registry().retire("node1").ok());
  EXPECT_FALSE(server.dns().resolve("node1.batterylab.dev").ok());
  EXPECT_EQ(server.registry().vantage_point("node1"), nullptr);
}

TEST_F(PlatformFixture, SshExecReachesController) {
  ASSERT_TRUE(server.onboard_vantage_point("node1", *vp).ok());
  vp->controller().ssh_server().set_command_handler(
      [](const std::string& cmd) {
        return net::SshCommandResult{0, "pi:" + cmd};
      });
  auto result = server.ssh_exec("node1", "uptime");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().output, "pi:uptime");
  EXPECT_FALSE(server.ssh_exec("ghost", "uptime").ok());
}

TEST_F(PlatformFixture, SshFromStrangerRejected) {
  ASSERT_TRUE(server.onboard_vantage_point("node1", *vp).ok());
  // A random host with a random key must be rejected by both IP lockdown
  // and the authorized_keys check.
  net.add_link("attacker", vp->controller_host(),
               net::LinkSpec::symmetric(Duration::millis(30), 10.0));
  net::SshClient mallory{net, "attacker",
                         net::SshKeyPair::generate("mallory")};
  auto result = mallory.exec_sync(
      net::Address{vp->controller_host(), net::kSshPort}, "id");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, util::ErrorCode::kPermissionDenied);
}

// ----------------------------------------------------------- scheduler ----

class SchedulerFixture : public PlatformFixture {
 protected:
  SchedulerFixture() {
    EXPECT_TRUE(server.onboard_vantage_point("node1", *vp).ok());
    admin_token = add_user("root", Role::kAdmin);
    exp_token = add_user("alice", Role::kExperimenter);
    tester_token = add_user("tess", Role::kTester);
  }

  Job trivial_job(const std::string& name) {
    Job job;
    job.name = name;
    job.script = [](JobContext& ctx) {
      ctx.workspace->log("ran on " + ctx.device_serial);
      return util::Status::ok_status();
    };
    return job;
  }

  std::string admin_token, exp_token, tester_token;
};

TEST_F(SchedulerFixture, SubmissionRequiresPermission) {
  EXPECT_FALSE(server.submit_job(tester_token, trivial_job("t")).ok())
      << "testers cannot create jobs";
  EXPECT_FALSE(server.submit_job("tok-invalid", trivial_job("t")).ok());
  auto id = server.submit_job(exp_token, trivial_job("ok"));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(server.scheduler().find(id.value())->owner, "alice");
}

TEST_F(SchedulerFixture, PipelineApprovalGate) {
  auto id = server.submit_job(exp_token, trivial_job("gated"));
  ASSERT_TRUE(id.ok());
  // Unapproved: dispatch skips it.
  auto ran = server.run_queue(exp_token);
  ASSERT_TRUE(ran.ok());
  EXPECT_EQ(ran.value(), 0u);
  // Experimenters cannot approve their own pipelines.
  EXPECT_FALSE(server.approve_pipeline(exp_token, id.value()).ok());
  ASSERT_TRUE(server.approve_pipeline(admin_token, id.value()).ok());
  ran = server.run_queue(exp_token);
  ASSERT_TRUE(ran.ok());
  EXPECT_EQ(ran.value(), 1u);
  const Job* job = server.scheduler().find(id.value());
  EXPECT_EQ(job->state, JobState::kSucceeded);
  EXPECT_FALSE(job->workspace.logs().empty());
}

TEST_F(SchedulerFixture, DeviceConstraintRespected) {
  Job job = trivial_job("pinned");
  job.constraints.device_serial = "NOPE";
  auto id = server.submit_job(exp_token, std::move(job));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(server.approve_pipeline(admin_token, id.value()).ok());
  EXPECT_EQ(server.run_queue(exp_token).value(), 0u)
      << "no such device anywhere";

  Job ok_job = trivial_job("pinned-ok");
  ok_job.constraints.device_serial = "J7DUO-1";
  auto id2 = server.submit_job(exp_token, std::move(ok_job));
  ASSERT_TRUE(server.approve_pipeline(admin_token, id2.value()).ok());
  EXPECT_EQ(server.run_queue(exp_token).value(), 1u);
}

TEST_F(SchedulerFixture, ModelConstraintRespected) {
  Job job = trivial_job("model");
  job.constraints.device_model = "Pixel 9";
  auto id = server.submit_job(exp_token, std::move(job));
  ASSERT_TRUE(server.approve_pipeline(admin_token, id.value()).ok());
  EXPECT_EQ(server.run_queue(exp_token).value(), 0u);
}

TEST_F(SchedulerFixture, FailingScriptMarksJobFailed) {
  Job job;
  job.name = "boom";
  job.script = [](JobContext&) -> util::Status {
    return util::make_error(util::ErrorCode::kUnknown, "script exploded");
  };
  auto id = server.submit_job(exp_token, std::move(job));
  ASSERT_TRUE(server.approve_pipeline(admin_token, id.value()).ok());
  EXPECT_EQ(server.run_queue(exp_token).value(), 1u);
  const Job* j = server.scheduler().find(id.value());
  EXPECT_EQ(j->state, JobState::kFailed);
  EXPECT_NE(j->failure_reason.find("script exploded"), std::string::npos);
}

TEST_F(SchedulerFixture, CrashedScriptReleasesMonitor) {
  Job job;
  job.name = "leaky";
  job.script = [](JobContext& ctx) -> util::Status {
    // Start a measurement and "crash" without stopping it.
    if (auto st = ctx.api->power_monitor(); !st.ok()) return st;
    if (auto st = ctx.api->set_voltage(3.85); !st.ok()) return st;
    if (auto st = ctx.api->start_monitor(ctx.device_serial); !st.ok()) {
      return st;
    }
    return util::make_error(util::ErrorCode::kUnknown, "crash mid-capture");
  };
  auto id = server.submit_job(exp_token, std::move(job));
  ASSERT_TRUE(server.approve_pipeline(admin_token, id.value()).ok());
  EXPECT_EQ(server.run_queue(exp_token).value(), 1u);
  EXPECT_FALSE(vp->monitor().capturing())
      << "scheduler safety net must stop the capture";
}

// ---------------------------------------------------------- auto-retry ----

class RetryFixture : public SchedulerFixture {
 protected:
  Job failing_job(const std::string& name) {
    Job job;
    job.name = name;
    job.script = [](JobContext&) -> util::Status {
      return util::make_error(util::ErrorCode::kUnknown, "script exploded");
    };
    return job;
  }
};

TEST_F(RetryFixture, AutoRetryDisabledByDefault) {
  auto id = server.submit_job(exp_token, failing_job("boom"));
  ASSERT_TRUE(server.approve_pipeline(admin_token, id.value()).ok());
  EXPECT_EQ(server.run_queue(exp_token).value(), 1u);
  const Job* j = server.scheduler().find(id.value());
  EXPECT_EQ(j->state, JobState::kFailed);
  EXPECT_FALSE(j->retried_by.valid()) << "max_attempts=1 means no retries";
  EXPECT_EQ(server.scheduler().auto_retries(), 0u);
}

TEST_F(RetryFixture, AutoRetryDefersByBackoffAndKeepsLineage) {
  const Duration backoff = Duration::minutes(5);
  server.scheduler().set_retry_policy({.max_attempts = 2, .backoff = backoff});
  auto id = server.submit_job(exp_token, failing_job("boom"));
  ASSERT_TRUE(server.approve_pipeline(admin_token, id.value()).ok());

  // First dispatch runs only the original: the auto-retry is queued with a
  // not_before in the future, so the same dispatch pass cannot run it.
  EXPECT_EQ(server.run_queue(exp_token).value(), 1u);
  const Job* original = server.scheduler().find(id.value());
  ASSERT_NE(original, nullptr);
  EXPECT_EQ(original->state, JobState::kFailed);
  ASSERT_TRUE(original->retried_by.valid());
  const JobId retry_id = original->retried_by;
  const Job* retry = server.scheduler().find(retry_id);
  ASSERT_NE(retry, nullptr);
  EXPECT_EQ(retry->retry_of, id.value());
  EXPECT_EQ(retry->attempt, 2u);
  EXPECT_EQ(retry->not_before, sim.now() + backoff);
  EXPECT_TRUE(retry->pipeline_approved) << "approval carries to the retry";

  // Before the backoff elapses the retry stays parked in the queue.
  EXPECT_EQ(server.run_queue(exp_token).value(), 0u);
  sim.run_for(backoff);
  EXPECT_EQ(server.run_queue(exp_token).value(), 1u);
  retry = server.scheduler().find(retry_id);
  EXPECT_EQ(retry->state, JobState::kFailed);
  EXPECT_FALSE(retry->retried_by.valid())
      << "max_attempts=2 caps the lineage at one auto-retry";

  EXPECT_EQ(server.scheduler().auto_retries(), 1u);
  const auto snap = sim.metrics().snapshot();
  EXPECT_EQ(snap.value_or("blab_scheduler_auto_retries_total",
                          {{"owner", "alice"}}),
            1.0);
  EXPECT_EQ(snap.value_or("blab_scheduler_node_jobs_failed_total",
                          {{"vp", "node1"}}),
            2.0);
}

TEST_F(RetryFixture, OwnerBudgetExhaustionIsCountedNotRetried) {
  const Duration backoff = Duration::minutes(1);
  server.scheduler().set_retry_policy(
      {.max_attempts = 3, .backoff = backoff, .owner_budget = 1});
  auto id = server.submit_job(exp_token, failing_job("boom"));
  ASSERT_TRUE(server.approve_pipeline(admin_token, id.value()).ok());

  EXPECT_EQ(server.run_queue(exp_token).value(), 1u);  // attempt 1 + retry
  sim.run_for(backoff);
  EXPECT_EQ(server.run_queue(exp_token).value(), 1u);  // attempt 2 fails
  const Job* original = server.scheduler().find(id.value());
  ASSERT_TRUE(original->retried_by.valid());
  const Job* retry = server.scheduler().find(original->retried_by);
  ASSERT_NE(retry, nullptr);
  EXPECT_EQ(retry->state, JobState::kFailed);
  EXPECT_FALSE(retry->retried_by.valid())
      << "alice's budget of 1 auto-retry is spent";

  EXPECT_EQ(server.scheduler().auto_retries(), 1u);
  const auto snap = sim.metrics().snapshot();
  EXPECT_EQ(snap.value_or("blab_scheduler_retry_budget_exhausted_total",
                          {{"owner", "alice"}}),
            1.0);
}

// The owner label carries a username, and registration only checks that it
// is non-empty. Quotes, backslashes and newlines in it must be escaped so
// the series still renders as one parseable line of /metrics.
TEST_F(RetryFixture, OwnerLabelIsEscapedInPrometheusText) {
  const std::string token = add_user("a\"b\\\nc", Role::kExperimenter);
  server.scheduler().set_retry_policy({.max_attempts = 2});
  auto id = server.submit_job(token, failing_job("boom"));
  ASSERT_TRUE(server.approve_pipeline(admin_token, id.value()).ok());
  EXPECT_EQ(server.run_queue(token).value(), 1u);
  ASSERT_EQ(server.scheduler().auto_retries(), 1u);

  const std::string text = obs::encode_prometheus(sim.metrics().snapshot());
  EXPECT_NE(text.find("\nblab_scheduler_auto_retries_total"
                      "{owner=\"a\\\"b\\\\\\nc\"} 1\n"),
            std::string::npos)
      << text;
  // A raw newline would split the series; every line must be a whole
  // TYPE comment or a whole sample.
  for (const std::string& line : util::split(text, '\n')) {
    if (line.empty()) continue;
    EXPECT_TRUE(line.starts_with("# TYPE blab_") || line.starts_with("blab_"))
        << line;
  }
}

// A job name is experimenter text that reaches GET /traces as the root
// span's "name" attribute. Control bytes must come out as \u00XX escapes: a
// raw byte below 0x20 makes the body invalid JSON.
TEST_F(SchedulerFixture, TracesEscapeControlBytesInJobNames) {
  auto id = server.submit_job(exp_token, trivial_job("cap\r\x01ture"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(server.approve_pipeline(admin_token, id.value()).ok());
  ASSERT_EQ(server.run_queue(exp_token).value(), 1u);

  controller::RestBackend rest{net, "ctrl.traces"};
  auto body = rest.call("traces", "job_id=" + id.value().str());
  ASSERT_TRUE(body.ok()) << body.error().str();
  EXPECT_NE(body.value().find("\"name\":\"cap\\u000d\\u0001ture\""),
            std::string::npos)
      << body.value();
  EXPECT_TRUE(std::none_of(body.value().begin(), body.value().end(),
                           [](char c) {
                             return static_cast<unsigned char>(c) < 0x20;
                           }))
      << body.value();
}

TEST_F(SchedulerFixture, JobsRunSequentiallyPerDevice) {
  std::vector<std::string> order;
  for (int i = 0; i < 3; ++i) {
    Job job;
    job.name = "job" + std::to_string(i);
    job.script = [&order, i](JobContext& ctx) {
      order.push_back("job" + std::to_string(i));
      // While we run, the device must be marked busy.
      (void)ctx;
      return util::Status::ok_status();
    };
    auto id = server.submit_job(exp_token, std::move(job));
    ASSERT_TRUE(server.approve_pipeline(admin_token, id.value()).ok());
  }
  EXPECT_EQ(server.run_queue(exp_token).value(), 3u);
  EXPECT_EQ(order,
            (std::vector<std::string>{"job0", "job1", "job2"}));
}

TEST_F(SchedulerFixture, BusyGuardVisibleInsideScript) {
  bool checked = false;
  Job job;
  job.name = "introspect";
  job.script = [&](JobContext& ctx) {
    checked = server.scheduler().device_busy(ctx.device_serial);
    return util::Status::ok_status();
  };
  auto id = server.submit_job(exp_token, std::move(job));
  ASSERT_TRUE(server.approve_pipeline(admin_token, id.value()).ok());
  EXPECT_EQ(server.run_queue(exp_token).value(), 1u);
  EXPECT_TRUE(checked) << "one job at a time per device (§3.1)";
  EXPECT_FALSE(server.scheduler().device_busy("J7DUO-1"));
}

TEST_F(SchedulerFixture, AbortQueuedJob) {
  auto id = server.submit_job(exp_token, trivial_job("doomed"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(server.scheduler().abort(id.value()).ok());
  EXPECT_EQ(server.scheduler().find(id.value())->state, JobState::kAborted);
  ASSERT_TRUE(server.approve_pipeline(admin_token, id.value()).ok());
  EXPECT_EQ(server.run_queue(exp_token).value(), 0u);
  EXPECT_FALSE(server.scheduler().abort(id.value()).ok())
      << "only queued jobs abort";
}

TEST_F(SchedulerFixture, TimedSessionOverrunFlagged) {
  Job job;
  job.name = "slow";
  job.max_duration = Duration::seconds(1);
  job.script = [](JobContext& ctx) {
    ctx.api->vantage_point().simulator().run_for(Duration::seconds(5));
    return util::Status::ok_status();
  };
  auto id = server.submit_job(exp_token, std::move(job));
  ASSERT_TRUE(server.approve_pipeline(admin_token, id.value()).ok());
  EXPECT_EQ(server.run_queue(exp_token).value(), 1u);
  EXPECT_TRUE(server.scheduler().find(id.value())->overran);
}

TEST_F(SchedulerFixture, VpnLocationConstraint) {
  net::VpnProvider vpn{net, "internet"};
  server.scheduler().attach_vpn(&vpn);
  std::string seen_region;
  Job job;
  job.name = "geo";
  job.constraints.network_location = "Japan";
  job.script = [&](JobContext& ctx) {
    auto* dev = ctx.api->vantage_point().find_device(ctx.device_serial);
    seen_region = dev->network_region();
    return util::Status::ok_status();
  };
  auto id = server.submit_job(exp_token, std::move(job));
  ASSERT_TRUE(server.approve_pipeline(admin_token, id.value()).ok());
  EXPECT_EQ(server.run_queue(exp_token).value(), 1u);
  EXPECT_EQ(seen_region, "Japan");
  // Tunnel torn down afterwards.
  EXPECT_EQ(vpn.active_location(vp->controller_host()), "");
  EXPECT_EQ(vp->find_device("J7DUO-1")->network_region(), "");
}

TEST_F(SchedulerFixture, LocationConstraintWithoutVpnStaysQueued) {
  Job job = trivial_job("geo-no-vpn");
  job.constraints.network_location = "Japan";
  auto id = server.submit_job(exp_token, std::move(job));
  ASSERT_TRUE(server.approve_pipeline(admin_token, id.value()).ok());
  EXPECT_EQ(server.run_queue(exp_token).value(), 0u);
  EXPECT_EQ(server.scheduler().find(id.value())->state, JobState::kQueued);
}

TEST_F(SchedulerFixture, LowControllerCpuConstraintDefersDispatch) {
  // §3.1: jobs run when "no other test is running (required) and low CPU
  // utilization (optional)". Saturate the Pi, require a low-CPU window.
  controller::ServiceDemand hog;
  hog.cpu = 0.70;
  vp->controller().resources().register_service("hog", hog);

  Job job = trivial_job("picky");
  job.constraints.max_controller_cpu = 0.50;
  auto id = server.submit_job(exp_token, std::move(job));
  ASSERT_TRUE(server.approve_pipeline(admin_token, id.value()).ok());
  EXPECT_EQ(server.run_queue(exp_token).value(), 0u)
      << "controller too loaded";
  EXPECT_EQ(server.scheduler().find(id.value())->state, JobState::kQueued);

  vp->controller().resources().unregister_service("hog");
  EXPECT_EQ(server.run_queue(exp_token).value(), 1u);
  EXPECT_EQ(server.scheduler().find(id.value())->state,
            JobState::kSucceeded);
}

TEST_F(SchedulerFixture, WorkspaceRetentionPurgesOldJobs) {
  // One job finishes now, another after five days; a "several days" TTL
  // sweep clears only the first.
  auto early = server.submit_job(exp_token, trivial_job("early"));
  ASSERT_TRUE(server.approve_pipeline(admin_token, early.value()).ok());
  EXPECT_EQ(server.run_queue(exp_token).value(), 1u);

  sim.run_for(Duration::seconds(5.0 * 86400.0));
  auto late = server.submit_job(exp_token, trivial_job("late"));
  ASSERT_TRUE(server.approve_pipeline(admin_token, late.value()).ok());
  EXPECT_EQ(server.run_queue(exp_token).value(), 1u);

  sim.run_for(Duration::seconds(2.0 * 86400.0));
  EXPECT_EQ(server.scheduler().purge_workspaces(
                Duration::seconds(4.0 * 86400.0)),
            1u);
  EXPECT_TRUE(server.scheduler().find(early.value())->workspace.purged());
  EXPECT_TRUE(server.scheduler().find(early.value())->workspace.logs().empty());
  EXPECT_FALSE(server.scheduler().find(late.value())->workspace.purged());
  EXPECT_FALSE(server.scheduler().find(late.value())->workspace.logs().empty());
  // Idempotent: nothing new to purge.
  EXPECT_EQ(server.scheduler().purge_workspaces(
                Duration::seconds(4.0 * 86400.0)),
            0u);
}

TEST_F(SchedulerFixture, WorkspaceRetentionTtlBoundaryIsInclusive) {
  // A job that finished *exactly* ttl ago is purged: the sweep uses
  // age >= ttl, and this pins that boundary.
  auto id = server.submit_job(exp_token, trivial_job("boundary"));
  ASSERT_TRUE(server.approve_pipeline(admin_token, id.value()).ok());
  EXPECT_EQ(server.run_queue(exp_token).value(), 1u);
  const TimePoint finished =
      server.scheduler().find(id.value())->finished_at;

  const Duration ttl = Duration::seconds(3.0 * 86400.0);
  // One microsecond shy of the TTL: survives.
  sim.run_until(finished + ttl - Duration::micros(1));
  EXPECT_EQ(server.scheduler().purge_workspaces(ttl), 0u);
  EXPECT_FALSE(server.scheduler().find(id.value())->workspace.purged());
  // Exactly at the TTL: purged.
  sim.run_until(finished + ttl);
  EXPECT_EQ(server.scheduler().purge_workspaces(ttl), 1u);
  EXPECT_TRUE(server.scheduler().find(id.value())->workspace.purged());
}

TEST_F(SchedulerFixture, AbortRejectsRunningJob) {
  // Jobs run to completion inside dispatch, so the only vantage from which
  // a running job is observable is its own script.
  std::optional<JobId> self;
  util::Status abort_status = util::Status::ok_status();
  bool busy_during = false;
  Job job;
  job.name = "self-abort";
  job.script = [&](JobContext& ctx) {
    busy_during = server.scheduler().device_busy(ctx.device_serial);
    abort_status = server.scheduler().abort(*self);
    return util::Status::ok_status();
  };
  auto id = server.submit_job(exp_token, std::move(job));
  ASSERT_TRUE(id.ok());
  self = id.value();
  ASSERT_TRUE(server.approve_pipeline(admin_token, id.value()).ok());
  EXPECT_EQ(server.run_queue(exp_token).value(), 1u);
  EXPECT_TRUE(busy_during);
  EXPECT_FALSE(abort_status.ok()) << "running jobs cannot be aborted";
  EXPECT_EQ(abort_status.error().code,
            util::ErrorCode::kFailedPrecondition);
  EXPECT_EQ(server.scheduler().find(id.value())->state,
            JobState::kSucceeded)
      << "the rejected abort left the run undisturbed";
}

TEST_F(SchedulerFixture, AbortRejectsFinishedJob) {
  auto id = server.submit_job(exp_token, trivial_job("done"));
  ASSERT_TRUE(server.approve_pipeline(admin_token, id.value()).ok());
  EXPECT_EQ(server.run_queue(exp_token).value(), 1u);
  const auto st = server.scheduler().abort(id.value());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, util::ErrorCode::kFailedPrecondition);
  EXPECT_EQ(server.scheduler().find(id.value())->state,
            JobState::kSucceeded);
}

TEST_F(SchedulerFixture, AbortedJobFreesItsDevice) {
  // Abort a queued job pinned to the only device, then verify the device is
  // not held: a follow-up job on the same serial dispatches immediately.
  Job pinned = trivial_job("condemned");
  pinned.constraints.device_serial = "J7DUO-1";
  auto id = server.submit_job(exp_token, std::move(pinned));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(server.scheduler().abort(id.value()).ok());
  EXPECT_FALSE(server.scheduler().device_busy("J7DUO-1"));

  Job successor = trivial_job("successor");
  successor.constraints.device_serial = "J7DUO-1";
  auto next = server.submit_job(exp_token, std::move(successor));
  ASSERT_TRUE(server.approve_pipeline(admin_token, next.value()).ok());
  EXPECT_EQ(server.run_queue(exp_token).value(), 1u);
  EXPECT_EQ(server.scheduler().find(next.value())->state,
            JobState::kSucceeded);
  EXPECT_FALSE(server.scheduler().device_busy("J7DUO-1"));
}

// --------------------------------------------------------- maintenance ----

TEST_F(SchedulerFixture, MonitorSafetyJobPowersDownIdleMonitor) {
  // Leave the socket on with no measurement running.
  ASSERT_TRUE(vp->power_socket().turn_on().ok());
  Job job = make_monitor_safety_job();
  auto id = server.submit_job(exp_token, std::move(job));
  ASSERT_TRUE(server.approve_pipeline(admin_token, id.value()).ok());
  EXPECT_EQ(server.run_queue(exp_token).value(), 1u);
  EXPECT_FALSE(vp->power_socket().is_on())
      << "idle Monsoon must be powered off (§3.1 safety)";
}

TEST_F(SchedulerFixture, CertRenewalJobRedeploysStaleNodes) {
  // Make the deployed cert stale by re-issuing.
  server.certs().issue(sim.now());
  ASSERT_FALSE(server.certs().node_current("node1"));
  Job job = make_cert_renewal_job(server);
  auto id = server.submit_job(exp_token, std::move(job));
  ASSERT_TRUE(server.approve_pipeline(admin_token, id.value()).ok());
  EXPECT_EQ(server.run_queue(exp_token).value(), 1u);
  EXPECT_TRUE(server.certs().node_current("node1"));
}

TEST_F(SchedulerFixture, FactoryResetClearsPackages) {
  auto* dev = vp->find_device("J7DUO-1");
  auto browser = std::make_unique<device::Browser>(
      *dev, device::BrowserProfile::chrome());
  device::Browser* b = browser.get();
  ASSERT_TRUE(dev->os().install(std::move(browser)).ok());
  ASSERT_TRUE(dev->os().start_activity(b->package()).ok());
  b->on_tap(0, 0);
  b->on_tap(0, 0);
  ASSERT_TRUE(b->first_run_complete());

  Job job = make_factory_reset_job();
  auto id = server.submit_job(exp_token, std::move(job));
  ASSERT_TRUE(server.approve_pipeline(admin_token, id.value()).ok());
  EXPECT_EQ(server.run_queue(exp_token).value(), 1u);
  EXPECT_FALSE(b->first_run_complete()) << "app data cleared";
  EXPECT_FALSE(b->running());
  const Job* j = server.scheduler().find(id.value());
  EXPECT_EQ(j->state, JobState::kSucceeded);
}

}  // namespace
}  // namespace blab::server

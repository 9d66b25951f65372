#include "testing/harness.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "device/android.hpp"
#include "device/device.hpp"
#include "device/video_player.hpp"
#include "net/vpn.hpp"
#include "obs/export.hpp"
#include "server/access_server.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace blab::testing {

namespace {

using util::Duration;
using util::TimePoint;

/// Sim-time cadence of the health-evaluation maintenance job (scheduled
/// checkpoints run at twice it). Scenario horizons are tens of simulated
/// seconds (3-6 steps of 2-5 s), so every scenario gets several evaluations.
constexpr Duration kHealthPeriod = Duration::seconds(2);
/// Total attempts per retry chain when RunOptions::retry_failed_jobs is on.
constexpr std::uint32_t kMaxAttempts = 2;

device::DeviceSpec make_device_spec(const DeviceGenSpec& gen) {
  switch (gen.kind) {
    case DeviceKind::kIphone: return device::DeviceSpec::iphone(gen.serial);
    case DeviceKind::kLaptop: return device::DeviceSpec::laptop(gen.serial);
    case DeviceKind::kIotSensor:
      return device::DeviceSpec::iot_sensor(gen.serial);
    case DeviceKind::kPhone: break;
  }
  device::DeviceSpec spec;
  spec.serial = gen.serial;
  return spec;
}

/// Everything scenario job scripts and fault handlers need to reach. Owned by
/// run_scenario; all pointers outlive every scheduled callback.
struct RunState {
  sim::Simulator* sim = nullptr;
  net::Network* net = nullptr;
  net::VpnProvider* vpn = nullptr;
  server::AccessServer* server = nullptr;
  TraceRecorder* recorder = nullptr;
  OracleContext* ctx = nullptr;
  std::vector<OracleFinding>* violations = nullptr;
  std::map<std::string, std::size_t> node_index;  ///< label -> ctx->nodes slot
  std::size_t faults_fired = 0;
};

/// Shared measurement pipeline for kMeasure and kVideo jobs: power and
/// program the Monsoon for the assigned device's pack voltage, capture for
/// `duration`, and hand the capture to the energy-conservation oracle.
util::Status run_measure(RunState* rs, server::JobContext& ctx,
                         Duration duration) {
  api::VantagePoint& vp = ctx.api->vantage_point();
  device::AndroidDevice* dev = vp.find_device(ctx.device_serial);
  if (dev == nullptr) {
    return util::make_error(util::ErrorCode::kNotFound,
                            "assigned device not found: " + ctx.device_serial);
  }
  // In-script double-booking probe: while this job runs, the scheduler must
  // be holding its device.
  if (!rs->server->scheduler().device_busy(ctx.device_serial)) {
    rs->violations->push_back(
        {"scheduler-safety",
         "running job's device missing from busy set: " + ctx.device_serial});
  }
  if (!ctx.api->monitor_powered()) {
    if (auto st = ctx.api->power_monitor(); !st.ok()) return st;
  }
  if (auto st = ctx.api->set_voltage(dev->spec().battery.nominal_voltage);
      !st.ok()) {
    return st;
  }
  auto cap = ctx.api->run_monitor(ctx.device_serial, duration);
  if (!cap.ok()) {
    ctx.workspace->log("measurement aborted");
    return cap.error();
  }
  const hw::Capture& capture = cap.value();
  const auto it = rs->node_index.find(ctx.node_label);
  const std::size_t node = it == rs->node_index.end() ? 0 : it->second;
  rs->ctx->captures.push_back(CaptureRecord{
      node, capture.start(), capture.start() + capture.duration(), capture});
  // Folding the sampled mean into the digest makes replay sensitive to the
  // measurement *values*, not just the event stream.
  rs->recorder->note(
      "capture " + ctx.device_serial + " n=" +
      std::to_string(capture.samples_ma().size()) + " mean=" +
      util::format_double(capture.mean_current_ma(), 6));
  ctx.workspace->store_artifact(
      "mean_ma", util::format_double(capture.mean_current_ma(), 3));
  // The scheduler archived this capture into the platform store; its
  // footer-served summary must match the sequential mean (only last-ulp
  // float-summation differences are tolerated), and its chunks must decode
  // back to the exact sample count. Folding the stored mean into the digest
  // makes replay sensitive to the whole encode/summarize path.
  store::CaptureStore* cs = rs->server->scheduler().capture_store();
  const auto cid = ctx.api->last_capture_id();
  if (cs != nullptr && cid.has_value()) {
    const auto stored = cs->mean_ma(*cid);
    const double mean = capture.mean_current_ma();
    if (!stored.ok() ||
        std::abs(stored.value() - mean) >
            1e-6 * std::max(1.0, std::abs(mean))) {
      rs->violations->push_back(
          {"capture-store",
           "archived summary diverges from capture " + cid->str() + ": " +
               (stored.ok() ? util::format_double(stored.value(), 6)
                            : stored.error().str()) +
               " vs " + util::format_double(mean, 6)});
    }
    const store::ChunkedCapture* archived = cs->find(*cid);
    if (archived == nullptr ||
        archived->sample_count() != capture.sample_count()) {
      rs->violations->push_back(
          {"capture-store", "archived sample count diverges for " +
                                cid->str()});
    }
    rs->recorder->note("store " + cid->str() + " chunks=" +
                       std::to_string(archived != nullptr
                                          ? archived->chunk_count()
                                          : 0) +
                       " mean=" +
                       util::format_double(stored.ok() ? stored.value() : -1.0,
                                           6));
  }
  return util::Status::ok_status();
}

server::JobScript make_script(const JobGenSpec& gen, RunState* rs) {
  const Duration duration = gen.measure_duration;
  switch (gen.kind) {
    case JobKind::kIdle:
      return [](server::JobContext& ctx) {
        ctx.workspace->log("idle tick");
        ctx.api->vantage_point().simulator().run_for(Duration::millis(200));
        return util::Status::ok_status();
      };
    case JobKind::kAdb:
      return [](server::JobContext& ctx) -> util::Status {
        api::VantagePoint& vp = ctx.api->vantage_point();
        device::AndroidDevice* dev = vp.find_device(ctx.device_serial);
        if (dev != nullptr &&
            dev->spec().platform == device::Platform::kIos) {
          ctx.workspace->log("adb skipped on iOS");
          return util::Status::ok_status();
        }
        auto out = ctx.api->execute_adb(ctx.device_serial, "dumpsys battery");
        if (!out.ok()) return out.error();
        ctx.workspace->log(out.value());
        return util::Status::ok_status();
      };
    case JobKind::kMeasure:
      return [rs, duration](server::JobContext& ctx) {
        return run_measure(rs, ctx, duration);
      };
    case JobKind::kVideo:
      return [rs, duration, name = gen.name](server::JobContext& ctx) {
        api::VantagePoint& vp = ctx.api->vantage_point();
        device::AndroidDevice* dev = vp.find_device(ctx.device_serial);
        device::VideoPlayerApp* player = nullptr;
        if (dev != nullptr &&
            dev->spec().platform == device::Platform::kAndroid) {
          auto app = std::make_unique<device::VideoPlayerApp>(
              *dev, "com.fz." + name);
          device::VideoPlayerApp* raw = app.get();
          if (dev->os().install(std::move(app)).ok() &&
              dev->os().start_activity(raw->package()).ok() &&
              raw->play("/sdcard/fuzz.mp4").ok()) {
            player = raw;
          }
        }
        auto st = run_measure(rs, ctx, duration);
        if (player != nullptr) (void)player->pause();
        return st;
      };
    case JobKind::kMirror:
      return [](server::JobContext& ctx) {
        if (auto st = ctx.api->device_mirroring(ctx.device_serial, true);
            !st.ok()) {
          return st;
        }
        ctx.api->vantage_point().simulator().run_for(Duration::millis(500));
        return ctx.api->device_mirroring(ctx.device_serial, false);
      };
  }
  return [](server::JobContext&) { return util::Status::ok_status(); };
}

server::Job make_job(const ScenarioSpec& spec, const JobGenSpec& gen,
                     RunState* rs) {
  server::Job job;
  job.name = gen.name;
  // Two simulated minutes bounds the worst-case credit hold: funded owners
  // can always cover it, near-broke ones get gated.
  job.max_duration = Duration::minutes(2);
  const NodeGenSpec& node = spec.nodes[gen.node];
  const DeviceGenSpec& dev = node.devices[gen.device % node.devices.size()];
  switch (gen.shape) {
    case ConstraintShape::kNone: break;
    case ConstraintShape::kPinSerial:
      job.constraints.device_serial = dev.serial;
      break;
    case ConstraintShape::kGhostSerial:
      job.constraints.device_serial = "FZ-GHOST-404";
      break;
    case ConstraintShape::kModel:
      job.constraints.device_model = make_device_spec(dev).model;
      break;
    case ConstraintShape::kPinNode:
      job.constraints.node_label = node.label;
      break;
    case ConstraintShape::kVpnLocation:
      job.constraints.network_location = gen.location;
      break;
  }
  job.script = make_script(gen, rs);
  return job;
}

void schedule_faults(const ScenarioSpec& spec, RunState* rs) {
  for (const FaultSpec& f : spec.faults) {
    api::VantagePoint* vp = rs->ctx->nodes[f.node];
    const NodeGenSpec& node = spec.nodes[f.node];
    const std::string serial =
        node.devices[f.device % node.devices.size()].serial;
    std::string label =
        std::string("fault:") + fault_kind_name(f.kind) + ":" + node.label;
    if (f.kind == FaultKind::kRelayFlap || f.kind == FaultKind::kWifiDrop ||
        f.kind == FaultKind::kWifiRestore ||
        f.kind == FaultKind::kUsbPowerCycle) {
      label += ":" + serial;
    }
    sim::Simulator* sim = rs->sim;
    switch (f.kind) {
      case FaultKind::kRelayFlap:
        sim->schedule_after(f.at, [rs, vp, serial] {
          ++rs->faults_fired;
          auto channel = vp->relay_channel_of(serial);
          if (!channel.ok()) return;
          auto pos = vp->relay().position(channel.value());
          if (!pos.ok()) return;
          const auto flipped = pos.value() == hw::RelayPosition::kBypass
                                   ? hw::RelayPosition::kBattery
                                   : hw::RelayPosition::kBypass;
          (void)vp->switch_power(serial, flipped);
        }, label);
        break;
      case FaultKind::kMainsLoss:
        sim->schedule_after(f.at, [rs, vp] {
          ++rs->faults_fired;
          (void)vp->power_socket().turn_off();
        }, label);
        break;
      case FaultKind::kMainsRestore:
        sim->schedule_after(f.at, [rs, vp] {
          ++rs->faults_fired;
          (void)vp->power_socket().turn_on();
        }, label);
        break;
      case FaultKind::kWifiDrop:
      case FaultKind::kWifiRestore:
        sim->schedule_after(
            f.at,
            [rs, vp, serial, enable = f.kind == FaultKind::kWifiRestore] {
              ++rs->faults_fired;
              device::AndroidDevice* dev = vp->find_device(serial);
              if (dev == nullptr) return;
              net::Link* wifi = rs->net->find_link(vp->controller_host(),
                                                   dev->host(), "wifi");
              if (wifi != nullptr) wifi->set_enabled(enable);
            },
            label);
        break;
      case FaultKind::kVpnConnect:
        sim->schedule_after(f.at, [rs, vp, location = f.location] {
          ++rs->faults_fired;
          (void)rs->vpn->connect(vp->controller_host(), location);
        }, label);
        break;
      case FaultKind::kVpnDisconnect:
        sim->schedule_after(f.at, [rs, vp] {
          ++rs->faults_fired;
          (void)rs->vpn->disconnect(vp->controller_host());
        }, label);
        break;
      case FaultKind::kNodeRetire:
        sim->schedule_after(f.at, [rs, node_label = node.label] {
          ++rs->faults_fired;
          (void)rs->server->registry().retire(node_label);
        }, label);
        break;
      case FaultKind::kNodeReonboard:
        // Onboarding flags (key, whitelist) persist through retirement, so
        // re-approval alone restores the node and its DNS record.
        sim->schedule_after(f.at, [rs, node_label = node.label] {
          ++rs->faults_fired;
          (void)rs->server->registry().approve(node_label);
        }, label);
        break;
      case FaultKind::kUsbPowerCycle:
        sim->schedule_after(f.at, [rs, vp, sim, serial, label] {
          ++rs->faults_fired;
          device::AndroidDevice* dev = vp->find_device(serial);
          if (dev == nullptr) return;
          (void)vp->usb_hub().set_port_power_for(dev->host(), false);
          vp->refresh_usb_power();
          sim->schedule_after(Duration::millis(800), [vp, dev] {
            (void)vp->usb_hub().set_port_power_for(dev->host(), true);
            vp->refresh_usb_power();
          }, label + ":restore");
        }, label);
        break;
    }
  }
}

/// Worker-pool map over a seed corpus. Results land at the index of their
/// seed, so the output order is deterministic no matter how many workers run
/// or which finishes first; the atomic claim index is the only coordination.
template <typename Result, typename Fn>
std::vector<Result> pooled_map(const std::vector<std::uint64_t>& seeds,
                               unsigned jobs, Fn fn) {
  std::vector<Result> results(seeds.size());
  if (jobs == 0) jobs = std::thread::hardware_concurrency();
  if (jobs == 0) jobs = 1;
  jobs = static_cast<unsigned>(
      std::min<std::size_t>(jobs, seeds.size()));
  if (jobs <= 1) {
    for (std::size_t i = 0; i < seeds.size(); ++i) results[i] = fn(seeds[i]);
    return results;
  }
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= seeds.size()) return;
      results[i] = fn(seeds[i]);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(jobs);
  for (unsigned w = 0; w < jobs; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return results;
}

std::string job_state_counts(const server::Scheduler& scheduler) {
  std::size_t queued = 0, running = 0, ok = 0, failed = 0, aborted = 0;
  for (const server::Job* job : scheduler.all_jobs()) {
    switch (job->state) {
      case server::JobState::kCreated:
      case server::JobState::kQueued: ++queued; break;
      case server::JobState::kRunning: ++running; break;
      case server::JobState::kSucceeded: ++ok; break;
      case server::JobState::kFailed: ++failed; break;
      case server::JobState::kAborted: ++aborted; break;
    }
  }
  std::ostringstream os;
  os << "jobs queued=" << queued << " running=" << running << " ok=" << ok
     << " failed=" << failed << " aborted=" << aborted;
  return os.str();
}

}  // namespace

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  return run_scenario(spec, RunOptions{});
}

ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const RunOptions& options) {
  ScenarioResult result;
  result.seed = spec.seed;
  result.description = describe(spec);

  // ---- deployment (mirrors the integration-test topology) -------------
  sim::Simulator sim;
  net::Network net{sim, spec.seed};
  server::AccessServer server{sim, net};
  net::VpnProvider vpn{net, "internet"};
  net.add_host("internet");
  net.add_link("web", "internet",
               net::LinkSpec::symmetric(Duration::millis(4), 900.0));
  server.scheduler().attach_vpn(&vpn);
  if (spec.enforce_credits) server.enable_credit_enforcement();
  if (!options.persist_dir.empty()) {
    if (auto st = server.enable_persistence(options.persist_dir); !st.ok()) {
      result.violations.push_back(
          {"persistence", "enable_persistence failed: " + st.str()});
      return result;
    }
  }

  TraceRecorder recorder{sim};
  recorder.note(result.description);

  OracleContext ctx;
  ctx.sim = &sim;
  ctx.server = &server;

  RunState state;
  state.sim = &sim;
  state.net = &net;
  state.vpn = &vpn;
  state.server = &server;
  state.recorder = &recorder;
  state.ctx = &ctx;
  state.violations = &result.violations;

  std::vector<std::unique_ptr<api::VantagePoint>> nodes;
  for (const NodeGenSpec& node : spec.nodes) {
    api::VantagePointConfig config;
    config.name = node.label;
    config.seed = spec.seed ^ util::fnv1a(node.label);
    auto vp = std::make_unique<api::VantagePoint>(sim, net, config);
    net.add_link(vp->controller_host(), "internet",
                 net::LinkSpec::symmetric(
                     Duration::seconds(node.wan_latency_ms / 1e3),
                     node.wan_mbps));
    for (const DeviceGenSpec& gen : node.devices) {
      auto added = vp->add_device(make_device_spec(gen));
      if (!added.ok()) continue;
      device::AndroidDevice* dev = added.value();
      for (const ProcessSpec& proc : gen.processes) {
        dev->processes().spawn(proc.name, proc.demand, proc.jitter);
      }
      dev->recompute_power();
      ctx.registered_serials.push_back(gen.serial);
    }
    (void)server.onboard_vantage_point(node.label, *vp);
    state.node_index[node.label] = ctx.nodes.size();
    ctx.nodes.push_back(vp.get());
    nodes.push_back(std::move(vp));
  }

  if (options.enable_health) {
    // After onboarding, so the SLO set covers every vantage point. The
    // recurring evaluation (and, with persistence, checkpoint) jobs ride the
    // ordinary maintenance pipeline and fold into the digest like any job.
    if (auto st = server.enable_health(); !st.ok()) {
      result.violations.push_back(
          {"health", "enable_health failed: " + st.str()});
      return result;
    }
    (void)server.schedule_health_evaluations(kHealthPeriod);
    if (server.persistence_enabled()) {
      (void)server.schedule_persist_checkpoints(kHealthPeriod * 2.0);
    }
  }

  // ---- users and funding ----------------------------------------------
  std::string admin_token;
  if (auto admin = server.users().register_user("fz-admin",
                                                server::Role::kAdmin);
      admin.ok()) {
    admin_token = admin.value();
  }
  std::vector<std::string> exp_names;
  std::vector<std::string> exp_tokens;
  for (std::size_t e = 0; e < spec.experimenters; ++e) {
    const std::string name = "fz-exp" + std::to_string(e);
    exp_names.push_back(name);
    auto token =
        server.users().register_user(name, server::Role::kExperimenter);
    exp_tokens.push_back(token.ok() ? token.value() : std::string{});
    if (spec.enforce_credits && e < spec.initial_credits.size()) {
      (void)server.credits().open_account(name, spec.initial_credits[e]);
    }
  }

  schedule_faults(spec, &state);

  OracleRegistry oracles;

  // ---- the scenario loop ----------------------------------------------
  bool killed = false;
  for (int step = 0; step < spec.steps; ++step) {
    recorder.note("step " + std::to_string(step) + " begin");
    for (const JobGenSpec& gen : spec.jobs) {
      if (gen.submit_step != step) continue;
      const std::string& token = exp_tokens[gen.owner % exp_tokens.size()];
      auto id = server.submit_job(token, make_job(spec, gen, &state));
      if (!id.ok()) continue;
      ++result.jobs_submitted;
      if (gen.approved) (void)server.approve_pipeline(admin_token, id.value());
    }
    if (auto ran = server.run_queue(exp_tokens.front()); ran.ok()) {
      result.jobs_dispatched += ran.value();
    }
    if (options.kill_after_steps >= 0 && step == options.kill_after_steps) {
      // Mid-step kill: advance a fraction of the step, then abandon the loop.
      // No oracles, no step-end note — the process is "dead".
      sim.run_for(std::min(options.kill_extra, spec.step_length));
      killed = true;
      break;
    }
    sim.run_for(spec.step_length);
    // Flush lazy battery integration so the sanity oracle sees fresh state.
    for (api::VantagePoint* vp : ctx.nodes) {
      for (const auto& serial : ctx.registered_serials) {
        if (device::AndroidDevice* dev = vp->find_device(serial)) {
          if (dev->powered_on()) dev->recompute_power();
        }
      }
    }
    for (auto& finding : oracles.run(ctx)) {
      result.violations.push_back(std::move(finding));
    }
    if (options.retry_failed_jobs) {
      // Step-end retry sweep: give every freshly failed/aborted chain one
      // more attempt (dispatch happens through the next step's run_queue).
      // The resubmit events and ids fold into the digest, keeping retry runs
      // replay-checked like everything else.
      server::Scheduler& scheduler = server.scheduler();
      std::vector<server::JobId> to_retry;
      for (const server::Job* job : scheduler.all_jobs()) {
        const bool terminal_bad = job->state == server::JobState::kFailed ||
                                  job->state == server::JobState::kAborted;
        if (terminal_bad && !job->retried_by.valid() &&
            job->attempt < kMaxAttempts) {
          to_retry.push_back(job->id);
        }
      }
      for (server::JobId id : to_retry) {
        auto retry = scheduler.resubmit(id);
        if (retry.ok()) {
          recorder.note("resubmit " + id.str() + " -> " + retry.value().str());
        }
      }
    }
    std::string balances = "balances";
    for (const std::string& name : exp_names) {
      const auto& ledger = server.credits().balances();
      const auto it = ledger.find(name);
      balances += " " + name + "=" +
                  (it == ledger.end()
                       ? std::string("-")
                       : util::format_double(it->second, 4));
    }
    recorder.note("step " + std::to_string(step) + " end: " +
                  job_state_counts(server.scheduler()) + "; " + balances);
  }
  if (!killed) recorder.note("scenario end");
  if (options.before_teardown) options.before_teardown(server);

  result.events_executed = sim.executed_events();
  result.captures = ctx.captures.size();
  result.faults_injected = state.faults_fired;
  result.metrics = sim.metrics().snapshot();
  result.metrics_text = obs::encode_prometheus(result.metrics);
  result.spans = sim.tracer().spans();
  result.trace_json = obs::encode_trace_json(result.spans);
  if (server.health_enabled()) {
    // Capture the REST bodies through the real endpoint handlers, so the
    // serial-vs-pooled byte-identity check covers the whole query path.
    controller::RestBackend* rest = server.health_rest();
    const auto grab = [&](const char* endpoint, const std::string& query) {
      auto body = rest->call(endpoint, query);
      return body.ok() ? body.value() : "error: " + body.error().str();
    };
    result.rollup_fleet_json = grab("rollup", "scope=fleet");
    result.rollup_job_json = grab("rollup", "scope=job");
    result.rollup_vantage_json = grab("rollup", "scope=vantage");
    result.health_json = grab("health", "");
  }
  result.digest = recorder.digest();
  result.digest_hex = recorder.digest_hex();
  result.trace = recorder.events();
  return result;
}

ScenarioResult run_scenario(std::uint64_t seed) {
  return run_scenario(generate_scenario(seed));
}

std::vector<ScenarioResult> run_corpus(const std::vector<std::uint64_t>& seeds,
                                       unsigned jobs) {
  return pooled_map<ScenarioResult>(
      seeds, jobs, [](std::uint64_t seed) { return run_scenario(seed); });
}

std::vector<ScenarioResult> run_corpus(const std::vector<std::uint64_t>& seeds,
                                       unsigned jobs,
                                       const RunOptions& options) {
  return pooled_map<ScenarioResult>(seeds, jobs, [&options](std::uint64_t seed) {
    return run_scenario(generate_scenario(seed), options);
  });
}

std::string ScenarioResult::violation_summary() const {
  std::ostringstream os;
  os << "seed " << seed << " (" << description << "): "
     << violations.size() << " oracle violation(s)";
  for (const auto& v : violations) {
    os << "\n  [" << v.oracle << "] " << v.detail;
  }
  return os.str();
}

ReplayReport replay_check(std::uint64_t seed) {
  ReplayReport report;
  report.seed = seed;
  const ScenarioSpec spec = generate_scenario(seed);
  report.first = run_scenario(spec);
  report.second = run_scenario(spec);
  report.divergence = first_divergence(report.first.trace,
                                       report.second.trace);
  report.deterministic = !report.divergence.diverged &&
                         report.first.digest == report.second.digest;
  return report;
}

std::vector<ReplayReport> run_replay_corpus(
    const std::vector<std::uint64_t>& seeds, unsigned jobs) {
  return pooled_map<ReplayReport>(
      seeds, jobs, [](std::uint64_t seed) { return replay_check(seed); });
}

std::string ReplayReport::describe() const {
  if (deterministic) {
    return "seed " + std::to_string(seed) + ": deterministic (digest " +
           first.digest_hex + ", " + std::to_string(first.trace.size()) +
           " events)";
  }
  return "seed " + std::to_string(seed) +
         " is non-deterministic: " + divergence.describe();
}

}  // namespace blab::testing

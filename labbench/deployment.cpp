#include "device/device.hpp"
#include "util/rng.hpp"

#include "bench.hpp"

namespace blab::labbench {

Deployment::Deployment(std::uint64_t seed, std::size_t node_count,
                       const std::string& persist_dir)
    : net{sim, seed}, server{sim, net} {
  util::Rng rng{mix(seed, 0x4465706c6f79ULL)};
  net.add_host("internet");
  for (std::size_t n = 0; n < node_count && status.ok(); ++n) {
    api::VantagePointConfig config;
    config.name = "vp-" + std::to_string(n);
    config.seed = mix(seed, util::fnv1a(config.name));
    auto vp = std::make_unique<api::VantagePoint>(sim, net, config);
    net.add_link(vp->controller_host(), "internet",
                 net::LinkSpec::symmetric(
                     util::Duration::millis(rng.uniform_int(5, 120)), 150.0));
    // Two devices per vantage point: an Android phone and an iPhone, each
    // running a seed-drawn background mix so the Monsoon sees real load
    // (the DST generator's ranges; heavier mixes outrun USB charging and
    // drain the battery over the hours of simulated time a run covers).
    for (std::size_t d = 0; d < 2; ++d) {
      device::DeviceSpec spec =
          d == 0 ? device::DeviceSpec{} : device::DeviceSpec::iphone({});
      spec.serial = serial(n, d);
      auto added = vp->add_device(spec);
      if (!added.ok()) {
        status = added.error();
        break;
      }
      device::AndroidDevice* dev = added.value();
      const auto procs = rng.uniform_int(0, 3);
      for (std::int64_t p = 0; p < procs; ++p) {
        dev->processes().spawn("bg-" + std::to_string(p),
                               rng.uniform(0.01, 0.15), rng.uniform(0.0, 0.4));
      }
      dev->recompute_power();
    }
    if (status.ok()) status = server.onboard_vantage_point(config.name, *vp);
    nodes.push_back(std::move(vp));
  }
  if (status.ok() && !persist_dir.empty()) {
    status = server.enable_persistence(persist_dir);
  }
  if (status.ok()) status = server.enable_health();
  auto admin = server.users().register_user("ops", server::Role::kAdmin);
  auto user =
      server.users().register_user("experimenter", server::Role::kExperimenter);
  if (status.ok() && !admin.ok()) status = admin.error();
  if (status.ok() && !user.ok()) status = user.error();
  if (status.ok()) {
    admin_token = admin.value();
    user_token = user.value();
  }
}

std::string Deployment::serial(std::size_t node, std::size_t device) const {
  return "VP" + std::to_string(node) + (device == 0 ? "-J7-" : "-IP-") +
         std::to_string(device);
}

server::JobId Deployment::submit(std::size_t node, std::size_t device,
                                 server::JobScript script) {
  server::Job job;
  job.name = "measure";
  job.constraints.node_label = "vp-" + std::to_string(node);
  job.constraints.device_serial = serial(node, device);
  job.script = std::move(script);
  auto id = server.submit_job(user_token, std::move(job));
  if (!id.ok()) return server::JobId{};
  if (!server.approve_pipeline(admin_token, id.value()).ok()) {
    return server::JobId{};
  }
  return id.value();
}

bool Deployment::run_queue() { return server.run_queue(user_token).ok(); }

util::Result<hw::Capture> measure(server::JobContext& ctx, sim::Simulator& sim,
                                  util::Duration length, Ledger& ledger,
                                  const MeasureSpans& spans) {
  ctx.api->attach_capture_store(nullptr, {});
  {
    Scope scope{ledger, spans.start};
    device::AndroidDevice* dev =
        ctx.api->vantage_point().find_device(ctx.device_serial);
    if (dev == nullptr) {
      return util::make_error(util::ErrorCode::kNotFound,
                              "assigned device not found: " + ctx.device_serial);
    }
    if (!ctx.api->monitor_powered()) {
      if (auto st = ctx.api->power_monitor(); !st.ok()) return st.error();
    }
    if (auto st = ctx.api->set_voltage(dev->spec().battery.nominal_voltage);
        !st.ok()) {
      return st.error();
    }
    if (auto st = ctx.api->start_monitor(ctx.device_serial); !st.ok()) {
      return st.error();
    }
  }
  {
    Scope scope{ledger, spans.run_for};
    sim.run_for(length);
  }
  Scope scope{ledger, spans.stop};
  return ctx.api->stop_monitor();
}

}  // namespace blab::labbench

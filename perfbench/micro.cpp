#include "micro.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>

#include "bench_logic.hpp"
#include "consolidate/backend.hpp"
#include "consolidate/decision.hpp"
#include "gpusim/engine.hpp"
#include "net/frame.hpp"
#include "power/trainer.hpp"
#include "router/router.hpp"
#include "server/client.hpp"
#include "server/protocol_wire.hpp"
#include "server/server.hpp"
#include "workloads/rodinia_like.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t).count();
}

/// The simulator and trained power model every in-process measurement
/// shares, built the way `ewcsim serve` builds its own.
struct Models {
  ewc::gpusim::FluidEngine engine;
  ewc::power::GpuPowerModel power;
};
const Models& models() {
  static const Models* m = [] {
    auto* out = new Models;
    ewc::power::ModelTrainer trainer(out->engine);
    out->power =
        trainer.train(ewc::workloads::rodinia_training_kernels()).model;
    return out;
  }();
  return *m;
}

/// A Backend with `ewcsim serve`'s recipe: the paper's templates plus one
/// covering the whole mix, and the mix's CPU profiles.
std::unique_ptr<ewc::consolidate::Backend> make_backend(
    const std::vector<MixItem>& mix, int threshold) {
  ewc::consolidate::BackendOptions options;
  options.batch_threshold = threshold;
  auto templates = ewc::consolidate::TemplateRegistry::paper_defaults();
  ewc::consolidate::ConsolidationTemplate t;
  t.name = "experiment_mix";
  for (const auto& m : mix) t.kernels.insert(m.spec.gpu.name);
  templates.add(std::move(t));
  auto backend = std::make_unique<ewc::consolidate::Backend>(
      models().engine, models().power, std::move(templates), options);
  for (const auto& m : mix) backend->set_cpu_profile(m.spec.gpu.name, m.spec.cpu);
  return backend;
}

ewc::gpusim::LaunchPlan launch_plan(const std::vector<MixItem>& mix,
                                    const BatchPlan& batch) {
  ewc::gpusim::LaunchPlan plan;
  plan.reuse_constant_data = ewc::consolidate::Optimizations{}.constant_data_reuse;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ewc::gpusim::KernelInstance inst;
    inst.desc = mix[static_cast<std::size_t>(batch[i])].spec.gpu;
    inst.owner = "perfbench-" + std::to_string(i % 3);
    inst.instance_id = static_cast<int>(i);
    plan.instances.push_back(std::move(inst));
  }
  return plan;
}

/// Mean nanoseconds of `op` over at least 20 ms, median of 5 reps.
template <typename Op>
double ns_per_op(Op op) {
  constexpr double kMinSeconds = 0.02;
  std::vector<double> reps;
  for (int rep = 0; rep < 5; ++rep) {
    std::size_t n = 0;
    const auto t0 = Clock::now();
    double elapsed = 0.0;
    do {
      for (int k = 0; k < 64; ++k) op();
      n += 64;
      elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
    } while (elapsed < kMinSeconds);
    reps.push_back(elapsed * 1e9 / static_cast<double>(n));
  }
  return median(reps);
}

}  // namespace

CodecNumbers measure_codec(const std::vector<MixItem>& mix) {
  CodecNumbers c;
  double total_weight = 0.0;
  std::vector<std::vector<std::byte>> launches;
  for (const auto& m : mix) {
    ewc::consolidate::LaunchRequest req;
    req.owner = "perfbench-0";
    req.request_id = 123456;
    req.trace_id = 0x1234567890abcdefULL;
    req.desc = m.spec.gpu;
    req.api_messages = 1;
    launches.push_back(ewc::server::encode_launch(req));
    c.launch_bytes += m.weight * static_cast<double>(
                                     ewc::net::kFrameHeaderSize +
                                     launches.back().size());
    total_weight += m.weight;
  }
  c.launch_bytes /= total_weight;

  ewc::consolidate::CompletionReply reply;
  reply.ok = true;
  reply.request_id = 123456;
  reply.finish_time = ewc::common::Duration::from_seconds(12.5);
  const auto completion = ewc::server::encode_completion(reply);
  c.completion_bytes =
      static_cast<double>(ewc::net::kFrameHeaderSize + completion.size());

  std::size_t sink = 0;
  std::size_t next = 0;
  c.encode_launch_ns = ns_per_op([&] {
    const auto& m = mix[next++ % mix.size()];
    ewc::consolidate::LaunchRequest req;
    req.owner = "perfbench-0";
    req.request_id = next;
    req.desc = m.spec.gpu;
    req.api_messages = 1;
    sink += ewc::server::encode_launch(req).size();
  });
  c.decode_launch_ns = ns_per_op([&] {
    const auto req = ewc::server::decode_launch(launches[next++ % launches.size()]);
    sink += req.has_value() ? req->desc.name.size() : 0;
  });
  c.encode_completion_ns = ns_per_op([&] {
    reply.request_id = next++;
    sink += ewc::server::encode_completion(reply).size();
  });
  c.decode_completion_ns = ns_per_op([&] {
    const auto r = ewc::server::decode_completion(completion);
    sink += r.has_value() ? static_cast<std::size_t>(r->ok) : 0;
  });
  // Keeps the timed work observable.
  if (sink == 0) c.launch_bytes = -1.0;
  return c;
}

RoundTrip measure_rtt_t1_us(const std::vector<MixItem>& mix,
                            const std::vector<BatchPlan>& plans,
                            bool via_router, std::string* error) {
  const RoundTrip failed{-1.0, -1.0};
  auto backend = make_backend(mix, 1);
  ewc::server::ServerOptions sopt;
  sopt.socket_path = "t1.sock";
  ewc::server::Server server(*backend, sopt);
  if (!server.start(error)) return failed;
  std::unique_ptr<ewc::router::Router> router;
  std::string endpoint = server.endpoint();
  if (via_router) {
    ewc::router::RouterOptions ropt;
    ropt.listen = "t1r.sock";
    ropt.shards = {server.endpoint()};
    router = std::make_unique<ewc::router::Router>(ropt);
    if (!router->start(error)) return failed;
    endpoint = router->endpoint();
  }
  std::vector<double> rtts;
  {
    auto conn = ewc::server::ClientConnection::connect(
        endpoint, "perfbench-t1", ewc::common::Duration::from_seconds(10.0),
        error);
    if (conn == nullptr) return failed;
    std::vector<int> order;
    for (const auto& p : plans) order.insert(order.end(), p.begin(), p.end());
    const std::size_t warm = 30;
    const std::size_t measured = 1000;
    for (std::size_t i = 0; i < warm + measured && !order.empty(); ++i) {
      ewc::consolidate::LaunchRequest req;
      req.owner = conn->owner();
      req.desc = mix[static_cast<std::size_t>(order[i % order.size()])].spec.gpu;
      req.api_messages = 1;
      const auto t0 = Clock::now();
      const auto reply =
          conn->launch(std::move(req), ewc::common::Duration::from_seconds(10.0));
      const double us = us_since(t0);
      if (!reply.ok) {
        if (error) *error = "t1 launch failed: " + reply.error;
        return failed;
      }
      if (i >= warm) rtts.push_back(us);
    }
  }
  if (router) router->stop();
  server.stop();
  backend->shutdown();
  return {median(rtts), percentile(rtts, 99)};
}

double measure_batch_us(const std::vector<MixItem>& mix,
                        const std::vector<BatchPlan>& plans) {
  if (plans.empty()) return 0.0;
  const int threshold = static_cast<int>(plans.front().size());
  auto backend = make_backend(mix, threshold);
  std::vector<double> times;
  std::uint64_t next_id = 1;
  const std::size_t warm = 3;
  for (std::size_t b = 0; b < plans.size(); ++b) {
    const BatchPlan& plan = plans[b];
    if (static_cast<int>(plan.size()) != threshold) continue;
    auto replies = std::make_shared<ewc::consolidate::ReplyChannel>();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < plan.size(); ++i) {
      ewc::consolidate::LaunchRequest req;
      req.owner = "perfbench-" + std::to_string(i % 3);
      req.request_id = next_id++;
      req.desc = mix[static_cast<std::size_t>(plan[i])].spec.gpu;
      req.api_messages = 1;
      req.reply = replies;
      backend->channel().send(std::move(req));
    }
    for (std::size_t i = 0; i < plan.size(); ++i) replies->receive();
    if (b >= warm) times.push_back(us_since(t0));
  }
  backend->shutdown();
  return median(times);
}

DecideNumbers measure_decide(const std::vector<MixItem>& mix,
                             const std::vector<BatchPlan>& plans) {
  DecideNumbers d;
  const auto& m = models();
  ewc::consolidate::BackendOptions defaults;
  ewc::consolidate::DecisionEngine engine(m.engine.device(), m.power,
                                          defaults.cpu_config, defaults.costs);
  struct Input {
    ewc::gpusim::LaunchPlan plan;
    std::vector<std::optional<ewc::cpusim::CpuTask>> profiles;
    ewc::common::Duration overhead;
  };
  std::vector<Input> inputs;
  for (const auto& batch : plans) {
    Input in;
    in.plan = launch_plan(mix, batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      auto task = mix[static_cast<std::size_t>(batch[i])].spec.cpu;
      task.instance_id = static_cast<int>(i);
      in.profiles.emplace_back(std::move(task));
    }
    in.overhead = engine.overhead(in.plan.instances,
                                  std::vector<std::size_t>(batch.size(), 0),
                                  std::vector<int>(batch.size(), 1),
                                  defaults.optimizations);
    inputs.push_back(std::move(in));
  }
  if (inputs.empty()) return d;

  // Mean microseconds per plan over whole passes, at least 0.1 s of them.
  auto mean_us = [&](auto&& op) {
    std::size_t calls = 0;
    const auto t0 = Clock::now();
    do {
      for (const auto& in : inputs) op(in);
      calls += inputs.size();
    } while (us_since(t0) < 1e5);
    return us_since(t0) / static_cast<double>(calls);
  };
  int chosen = 0;
  auto decide = [&](const Input& in) {
    chosen += static_cast<int>(
        engine.decide(in.plan, in.profiles, in.overhead, defaults.policy)
            .chosen);
  };
  d.cold_us = mean_us(decide);
  engine.enable_prediction_cache(1 << 16);
  for (const auto& in : inputs) decide(in);
  d.hit_rate = engine.prediction_cache_stats().hit_rate();
  d.warm_us = mean_us(decide);
  double sim_seconds = 0.0;
  d.engine_run_us = mean_us([&](const Input& in) {
    sim_seconds += m.engine.run(in.plan).total_time.seconds();
  });
  if (sim_seconds <= 0.0 || chosen < 0) d.engine_run_us = -1.0;
  return d;
}

}  // namespace perfbench

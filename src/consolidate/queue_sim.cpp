#include "consolidate/queue_sim.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <span>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "common/stats.hpp"
#include "obs/histogram.hpp"
#include "obs/tracer.hpp"
#include "trace/counters.hpp"

namespace ewc::consolidate {

QueueSimulator::QueueSimulator(
    const gpusim::FluidEngine& engine, power::GpuPowerModel power_model,
    std::map<std::string, workloads::InstanceSpec> catalogue,
    QueueSimOptions options)
    : engine_(engine),
      decision_(engine.device(), std::move(power_model), options.cpu_config,
                options.costs),
      catalogue_(std::move(catalogue)),
      options_(options) {
  if (options_.enable_sim_cache) {
    run_cache_ = std::make_unique<gpusim::SimCache<ExecCost>>(
        options_.sim_cache_capacity);
    run_key_prefix_ = gpusim::config_key_prefix(engine_.device(),
                                                &engine_.energy_config());
    decision_.enable_prediction_cache(options_.sim_cache_capacity);
  }
  decision_.set_pool(options_.pool);
}

QueueSimResult QueueSimulator::run(
    const std::vector<trace::Request>& requests) const {
  for (std::size_t i = 1; i < requests.size(); ++i) {
    if (requests[i].arrival_seconds < requests[i - 1].arrival_seconds) {
      throw std::invalid_argument("QueueSimulator: trace not sorted");
    }
  }

  QueueSimResult result;
  result.outcomes.reserve(requests.size());
  const double idle_w =
      engine_.energy_config().system_idle_with_gpu.watts();
  const double gpu_idle_delta_w =
      idle_w - engine_.energy_config().host_only_idle.watts();

  // Per-batch counters bump through cached handles: one registry lookup
  // here, then a lock-free atomic add per batch inside the loop.
  auto& counters = trace::Counters::instance();
  auto batches_ctr = counters.handle("queue_sim.batches");
  auto requests_ctr = counters.handle("queue_sim.requests");
  obs::Histogram* batch_hist =
      obs::HistogramRegistry::instance().get("queue_sim.batch_size");
  obs::Histogram* latency_hist = obs::HistogramRegistry::instance().get(
      "queue_sim.request_latency_seconds");

  std::size_t next = 0;
  double t_free = 0.0;
  double busy_and_gap_joules = 0.0;

  // Per-batch working buffers, hoisted so a long trace replay allocates them
  // once: after the first few batches each batch overwrites the previous
  // one's slots in place (same SoA-era discipline as FluidEngine's arena;
  // DecisionEngine's parallel evaluation depends on `plan` staying stable
  // for the batch).
  gpusim::LaunchPlan plan;
  plan.reuse_constant_data = options_.optimizations.constant_data_reuse;
  std::vector<std::optional<cpusim::CpuTask>> profiles;
  std::vector<std::size_t> staged;
  std::vector<int> messages;

  while (next < requests.size()) {
    // ---- form one batch: requests[first, next) ----
    const std::size_t first = next++;
    const double deadline =
        requests[first].arrival_seconds + options_.batch_timeout.seconds();
    while (static_cast<int>(next - first) < options_.batch_threshold &&
           next < requests.size() &&
           requests[next].arrival_seconds <= deadline) {
      ++next;
    }
    const std::span<const trace::Request> batch(requests.data() + first,
                                                next - first);
    const bool filled =
        static_cast<int>(batch.size()) >= options_.batch_threshold;
    // The batch triggers when it fills or when the timeout expires. An
    // under-filled batch always waits out the timeout: the runtime cannot
    // know the trace has drained, so a flush at the last arrival would
    // let the final batch jump its own deadline.
    double ready = filled ? batch.back().arrival_seconds : deadline;

    // ---- build the launch plan + profiles ----
    plan.instances.resize(batch.size());
    profiles.resize(batch.size());
    staged.resize(batch.size());
    messages.assign(batch.size(),
                    options_.optimizations.argument_batching ? 4 : 7);
    for (std::size_t b = 0; b < batch.size(); ++b) {
      auto it = catalogue_.find(batch[b].workload);
      if (it == catalogue_.end()) {
        throw std::out_of_range("QueueSimulator: unknown workload '" +
                                batch[b].workload + "'");
      }
      gpusim::KernelInstance& inst = plan.instances[b];
      inst.desc = it->second.gpu;
      inst.instance_id = static_cast<int>(b);
      char owner[16] = "user";
      const auto end = std::to_chars(owner + 4, std::end(owner),
                                     batch[b].user_id).ptr;
      inst.owner.assign(owner, end);
      profiles[b] = it->second.cpu;
      profiles[b]->instance_id = static_cast<int>(b);
      staged[b] = static_cast<std::size_t>(it->second.gpu.h2d_bytes.bytes());
    }

    const auto overhead = decision_.overhead(plan.instances, staged, messages,
                                             options_.optimizations);
    const auto decision =
        decision_.decide(plan, profiles, overhead, options_.policy);

    // ---- execute ----
    // Same batch shapes recur constantly in a datacenter replay, and a cache
    // hit is bit-identical to a fresh simulation (the key encodes every
    // input exactly), so memoizing the FluidEngine runs only saves time.
    // The replay reads a run's time and energy only, so only those are kept.
    const auto simulate = [&](std::string_view tag, auto&& fresh) {
      const auto cost = [](const gpusim::RunResult& run) {
        return ExecCost{run.total_time.seconds(), run.system_energy.joules()};
      };
      if (!run_cache_) return cost(fresh());
      const auto sig = gpusim::plan_signature_with_prefix(
          plan, run_key_prefix_, tag, /*include_instance_ids=*/true);
      if (auto hit = run_cache_->get(sig)) return *hit;
      const ExecCost fresh_cost = cost(fresh());
      run_cache_->put(sig, fresh_cost);
      return fresh_cost;
    };

    const double start = std::max(ready, t_free);

    double exec_seconds = 0.0;
    double exec_joules = 0.0;
    // The engine's sim-clock events are relative to its own t=0; anchor them
    // at this batch's execution start on the queue timeline.
    obs::SimClockScope sim_base(start + overhead.seconds());
    switch (decision.chosen) {
      case Alternative::kConsolidatedGpu: {
        const auto run = simulate("run", [&] { return engine_.run(plan); });
        exec_seconds = run.seconds;
        exec_joules = run.joules;
        break;
      }
      case Alternative::kIndividualGpu: {
        const auto run = simulate(
            "serial", [&] { return engine_.run_serial(plan.instances); });
        exec_seconds = run.seconds;
        exec_joules = run.joules;
        break;
      }
      case Alternative::kCpu: {
        // decide() simulated these tasks on this CpuConfig to estimate the
        // alternative: its makespan and energy are the run's.
        const auto& cpu = decision.chosen_estimate();
        exec_seconds = cpu.time.seconds();
        exec_joules = cpu.energy.joules() + gpu_idle_delta_w * exec_seconds;
        break;
      }
    }

    const double gap = start - t_free;  // node idles between batches
    const double finish = start + overhead.seconds() + exec_seconds;
    busy_and_gap_joules += gap * idle_w + overhead.seconds() * idle_w +
                           exec_joules;

    batches_ctr.inc();
    requests_ctr.add(static_cast<double>(batch.size()));
    batch_hist->record(static_cast<double>(batch.size()));
    if (obs::Tracer::enabled()) {
      // sim_base anchors at start+overhead; back up to the batch's start.
      obs::sim_span("queue_sim.batch", -overhead.seconds(),
                    finish - start, 0,
                    "\"requests\":" + std::to_string(batch.size()) +
                        ",\"chosen\":\"" +
                        alternative_name(decision.chosen) + "\"");
    }

    for (const auto& req : batch) {
      result.outcomes.emplace_back(req.user_id, req.workload,
                                   req.arrival_seconds, finish);
    }
    t_free = finish;
    result.batches += 1;
  }

  result.makespan = common::Duration::from_seconds(t_free);
  result.energy = common::Energy::from_joules(busy_and_gap_joules);

  std::vector<double> latencies;
  latencies.reserve(result.outcomes.size());
  for (const auto& o : result.outcomes) {
    latencies.push_back(o.latency_seconds());
  }
  latency_hist->record(latencies);
  result.mean_latency_seconds = common::mean(latencies);
  result.p95_latency_seconds = common::percentile(latencies, 95.0);

  if (run_cache_) result.run_cache_stats = run_cache_->stats();
  result.predict_cache_stats = decision_.prediction_cache_stats();
  counters.set("queue_sim.run_cache.hits",
               static_cast<double>(result.run_cache_stats.hits));
  counters.set("queue_sim.run_cache.misses",
               static_cast<double>(result.run_cache_stats.misses));
  counters.set("queue_sim.run_cache.evictions",
               static_cast<double>(result.run_cache_stats.evictions));
  counters.set("queue_sim.predict_cache.hits",
               static_cast<double>(result.predict_cache_stats.hits));
  counters.set("queue_sim.predict_cache.misses",
               static_cast<double>(result.predict_cache_stats.misses));
  counters.set("queue_sim.predict_cache.evictions",
               static_cast<double>(result.predict_cache_stats.evictions));
  return result;
}

}  // namespace ewc::consolidate

#include "consolidate/decision.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "fault/injector.hpp"
#include "obs/histogram.hpp"
#include "obs/tracer.hpp"

namespace ewc::consolidate {

const char* alternative_name(Alternative a) {
  switch (a) {
    case Alternative::kConsolidatedGpu: return "consolidated-gpu";
    case Alternative::kIndividualGpu: return "individual-gpu";
    case Alternative::kCpu: return "cpu";
  }
  return "?";
}

const AlternativeEstimate& Decision::chosen_estimate() const {
  for (const auto& e : estimates) {
    if (e.which == chosen) return e;
  }
  throw std::logic_error("Decision: chosen alternative missing");
}

DecisionEngine::DecisionEngine(gpusim::DeviceConfig dev,
                               power::GpuPowerModel power_model,
                               cpusim::CpuConfig cpu_cfg, FrameworkCosts costs)
    : dev_(dev),
      perf_(dev),
      power_(std::move(power_model)),
      cpu_cfg_(cpu_cfg),
      costs_(costs) {}

void DecisionEngine::enable_prediction_cache(std::size_t capacity) {
  cache_ = std::make_unique<gpusim::SimCache<Predictions>>(capacity);
}

void DecisionEngine::disable_prediction_cache() { cache_.reset(); }

gpusim::CacheStats DecisionEngine::prediction_cache_stats() const {
  return cache_ ? cache_->stats() : gpusim::CacheStats{};
}

DecisionEngine::Prediction DecisionEngine::predict_gpu(
    const gpusim::LaunchPlan& plan) const {
  const auto timing = perf_.predict(plan);
  const auto pw = power_.predict(dev_, plan, timing);
  return {timing.total_time, pw.system_energy,
          timing.type == perf::ConsolidationType::kType1};
}

DecisionEngine::Prediction DecisionEngine::predict_single(
    const gpusim::LaunchPlan& single) const {
  if (!cache_) return predict_gpu(single);
  // Keys are rebuilt in a per-thread buffer (the serial alternative may run
  // on a pool thread).
  thread_local std::string key;
  key.clear();
  gpusim::append_plan_key(key, single, /*config_prefix=*/"", "decide-single",
                          /*include_instance_ids=*/false);
  const std::uint64_t hash = gpusim::key_hash(key);
  if (auto hit = cache_->get(hash, key)) return hit->consolidated;
  Predictions p;
  p.consolidated = predict_gpu(single);
  cache_->put(gpusim::PlanSignature{hash, key}, p);
  return p.consolidated;
}

DecisionEngine::Prediction DecisionEngine::predict_cpu(
    const std::vector<std::optional<cpusim::CpuTask>>& profiles) const {
  std::vector<cpusim::CpuTask> tasks;
  tasks.reserve(profiles.size());
  for (const auto& p : profiles) tasks.push_back(*p);
  const auto run = cpusim::CpuEngine(cpu_cfg_).run(tasks);
  return {run.makespan, run.system_energy};
}

Duration DecisionEngine::overhead(
    const std::vector<gpusim::KernelInstance>& instances,
    const std::vector<std::size_t>& staged_bytes,
    const std::vector<int>& api_messages, const Optimizations& opts) const {
  if (instances.size() != staged_bytes.size() ||
      instances.size() != api_messages.size()) {
    throw std::invalid_argument("DecisionEngine::overhead: size mismatch");
  }
  const std::size_t n = instances.size();
  double secs = costs_.decision_eval.seconds();
  // Distinct kernel names met so far, pointing into `instances`; kept per
  // thread so a batch allocates nothing.
  thread_local std::vector<const std::string*> names;

  // Communication: with leader election, one frontend per homogeneous group
  // speaks for the group and the rest only register + ship data.
  names.clear();
  for (std::size_t i = 0; i < n; ++i) {
    int messages = api_messages[i];
    if (opts.leader_election &&
        !gpusim::insert_distinct_name(names, instances[i].desc.name)) {
      messages = std::min(messages, costs_.messages_follower);
    }
    secs += messages * costs_.ipc_round_trip.seconds();
  }

  // Staging: one shared pre-allocated buffer serializes the copies, and each
  // queued instance waits one extra round per predecessor. Without the
  // constant-data-reuse optimization, every instance additionally ships its
  // kernel's constant data (e.g. the AES T-tables) through the buffer.
  names.clear();  // now: kernels whose constant data went up
  for (std::size_t i = 0; i < n; ++i) {
    double bytes = static_cast<double>(staged_bytes[i]);
    const double cbytes = instances[i].desc.resources.constant_data.bytes();
    if (cbytes > 0.0) {
      if (!opts.constant_data_reuse ||
          gpusim::insert_distinct_name(names, instances[i].desc.name)) {
        bytes += cbytes;
        secs += costs_.staging_fixed.seconds();  // extra upload round trip
      }
    }
    secs += costs_.staging_fixed.seconds() +
            bytes / costs_.staging_bandwidth.bytes_per_second();
    secs += static_cast<double>(i) * costs_.staging_round.seconds();
  }

  // Frontend synchronization barrier before the combined launch.
  secs += static_cast<double>(n) * costs_.barrier_per_frontend.seconds();
  return Duration::from_seconds(secs);
}

Decision DecisionEngine::decide(
    const gpusim::LaunchPlan& plan,
    const std::vector<std::optional<cpusim::CpuTask>>& cpu_profiles,
    Duration framework_overhead, DecisionPolicy policy) const {
  if (plan.instances.empty()) {
    throw std::invalid_argument("DecisionEngine::decide: empty plan");
  }
  if (cpu_profiles.size() != plan.instances.size()) {
    throw std::invalid_argument("DecisionEngine::decide: profile count mismatch");
  }

  // Scripted predictor misbehavior: a fail is an exception (the Backend's
  // degraded path catches it), a stall burns wall time against the
  // decision deadline.
  if (auto a = fault::hit("decision.decide")) {
    if (a.kind == fault::ActionKind::kFail) {
      throw fault::InjectedFault("injected decision failure");
    }
    if (a.kind == fault::ActionKind::kStall ||
        a.kind == fault::ActionKind::kDelay) {
      fault::sleep_for(a.duration);
    }
  }

  static obs::Histogram* decide_hist =
      obs::HistogramRegistry::instance().get("decision.decide_seconds");
  const double t0_us = obs::Tracer::now_us();
  obs::ScopedSpan span("decision.decide");

  const bool have_profiles =
      std::all_of(cpu_profiles.begin(), cpu_profiles.end(),
                  [](const auto& p) { return p.has_value(); });

  // A candidate's key: its kernels, then what the CPU model reads of each
  // profile. It is rebuilt in a per-thread buffer.
  thread_local std::string key;
  std::uint64_t hash = 0;
  std::optional<Predictions> cached;
  if (cache_) {
    key.clear();
    gpusim::append_plan_key(key, plan, /*config_prefix=*/"", "decide",
                            /*include_instance_ids=*/false);
    key += have_profiles ? '1' : '0';
    if (have_profiles) {
      // Written in place: an append per profile would be a copy call each.
      constexpr std::size_t kFieldBytes = 3 * sizeof(double);
      std::size_t at = key.size();
      key.resize(at + kFieldBytes * cpu_profiles.size());
      for (const auto& p : cpu_profiles) {
        const double fields[] = {p->core_seconds,
                                 static_cast<double>(p->threads),
                                 p->cache_sensitivity};
        std::memcpy(key.data() + at, fields, kFieldBytes);
        at += kFieldBytes;
      }
    }
    hash = gpusim::key_hash(key);
    cached = cache_->get(hash, key);
  }

  Predictions pred;

  // (a) consolidated GPU.
  const auto eval_consolidated = [&] {
    pred.consolidated = predict_gpu(plan);
  };

  // (b) individual (serial) GPU execution. Each instance is predicted alone,
  // so the memo entry for a kernel shape is shared across batch positions.
  // Within the batch each distinct shape is predicted once; the sums still
  // run in batch order.
  const auto eval_individual = [&] {
    Duration total = Duration::zero();
    Energy energy = Energy::zero();
    // One single-instance plan and shape list per thread, reused across
    // scans and calls: the copy assignment below recycles their capacity
    // instead of re-allocating per candidate.
    thread_local gpusim::LaunchPlan single{{gpusim::KernelInstance{}}};
    thread_local std::vector<std::pair<const gpusim::KernelDesc*, Prediction>>
        shapes;
    shapes.clear();
    for (const auto& inst : plan.instances) {
      auto it = std::find_if(shapes.begin(), shapes.end(), [&](const auto& s) {
        return gpusim::bit_identical(*s.first, inst.desc);
      });
      if (it == shapes.end()) {
        single.instances[0].desc = inst.desc;
        shapes.emplace_back(&inst.desc, predict_single(single));
        it = std::prev(shapes.end());
      }
      total += it->second.time;
      energy += it->second.energy;
    }
    pred.individual.time = total;
    pred.individual.energy = energy;
  };

  // (c) CPU, from the provided profiles (paper: "we assume that CPU
  // performance and energy profiles are available").
  const auto eval_cpu = [&] {
    if (have_profiles) pred.cpu = predict_cpu(cpu_profiles);
  };

  if (cached) {
    pred = *cached;
  } else if (pool_ != nullptr) {
    // The GPU alternatives go to the pool; the CPU alternative runs here so
    // the calling thread contributes instead of blocking immediately.
    auto fa = pool_->submit(eval_consolidated);
    auto fb = pool_->submit(eval_individual);
    eval_cpu();
    fa.get();
    fb.get();
  } else {
    eval_consolidated();
    eval_individual();
    eval_cpu();
  }
  if (cache_ && !cached) cache_->put(gpusim::PlanSignature{hash, key}, pred);

  Decision d;
  d.estimates.resize(3);
  AlternativeEstimate& ea = d.estimates[0];
  ea.which = Alternative::kConsolidatedGpu;
  ea.time = pred.consolidated.time + framework_overhead;
  // During the overhead window the node sits near idle (host-side copies).
  ea.energy =
      pred.consolidated.energy + power_.idle_power() * framework_overhead;
  ea.note = pred.consolidated.type1 ? "type-1" : "type-2";
  AlternativeEstimate& eb = d.estimates[1];
  eb.which = Alternative::kIndividualGpu;
  eb.time = pred.individual.time;
  eb.energy = pred.individual.energy;
  AlternativeEstimate& ec = d.estimates[2];
  ec.which = Alternative::kCpu;
  if (have_profiles) {
    ec.time = pred.cpu.time;
    ec.energy = pred.cpu.energy;
  } else {
    ec.feasible = false;
    ec.note = "missing CPU profile";
  }

  switch (policy) {
    case DecisionPolicy::kAlwaysConsolidate:
      d.chosen = Alternative::kConsolidatedGpu;
      break;
    case DecisionPolicy::kNeverConsolidate:
      d.chosen = Alternative::kIndividualGpu;
      break;
    case DecisionPolicy::kModelBased: {
      const AlternativeEstimate* best = nullptr;
      for (const auto& e : d.estimates) {
        if (!e.feasible) continue;
        if (best == nullptr || e.energy < best->energy) best = &e;
      }
      d.chosen = best ? best->which : Alternative::kIndividualGpu;
      break;
    }
  }
  decide_hist->record((obs::Tracer::now_us() - t0_us) * 1e-6);
  if (span.active()) {
    span.set_args("\"instances\":" + std::to_string(plan.instances.size()) +
                  ",\"chosen\":\"" + alternative_name(d.chosen) + "\"");
  }
  return d;
}

}  // namespace ewc::consolidate

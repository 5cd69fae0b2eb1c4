// Micro-benchmarks (google-benchmark): throughput of the simulator and the
// prediction models themselves. The decision engine runs in the backend's
// request path, so its cost must stay negligible next to the workloads
// (paper Section VII: "the overhead of calculating performance and energy
// benefits is low").
#include <benchmark/benchmark.h>

#include <cstring>
#include <ctime>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "common/rng.hpp"
#include "consolidate/backend.hpp"
#include "consolidate/decision.hpp"
#include "cpusim/engine.hpp"
#include "gpusim/engine.hpp"
#include "gpusim/simd.hpp"
#include "perf/consolidation_model.hpp"
#include "power/event_rates.hpp"
#include "power/trainer.hpp"
#include "workloads/paper_configs.hpp"
#include "workloads/rodinia_like.hpp"

namespace {

using namespace ewc;

gpusim::LaunchPlan make_plan(int instances) {
  static const auto spec = workloads::encryption_12k();
  gpusim::LaunchPlan plan;
  for (int i = 0; i < instances; ++i) {
    plan.instances.push_back(gpusim::KernelInstance{spec.gpu, i, ""});
  }
  return plan;
}

void BM_EngineRun(benchmark::State& state) {
  gpusim::FluidEngine engine;
  const auto plan = make_plan(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(plan));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineRun)->Arg(1)->Arg(8)->Arg(32)->Arg(64);

// Phase-split engine timing: the advance loop (dispatch + fluid events) vs
// the rest of run() (statics, transfers, result assembly), separated via the
// engine's own wall_advance/wall_total instrumentation. Arg 2 selects the
// advance path (0 = scalar reference, 1 = SIMD), so one run of this
// benchmark in the default build yields the scalar-vs-SIMD speedup ratio CI
// publishes; in an EWC_SIMD=OFF build the SIMD rows are skipped.
void BM_EngineAdvance(benchmark::State& state) {
  gpusim::FluidEngine engine;
  const auto plan = make_plan(static_cast<int>(state.range(0)));
  const bool simd = state.range(1) != 0;
  if (simd && !gpusim::simd_compiled_in()) {
    state.SkipWithError("SIMD path not compiled in (EWC_SIMD=OFF)");
    return;
  }
  const bool prev = gpusim::simd_enabled();
  gpusim::set_simd_enabled(simd);
  double advance_s = 0.0;
  double total_s = 0.0;
  double events = 0.0;
  for (auto _ : state) {
    const auto run = engine.run(plan);
    advance_s += run.wall_advance_seconds;
    total_s += run.wall_total_seconds;
    events = static_cast<double>(run.fluid_events);
    benchmark::DoNotOptimize(&run);
  }
  gpusim::set_simd_enabled(prev);
  const auto iters = static_cast<double>(state.iterations());
  state.counters["advance_s_per_run"] = advance_s / iters;
  state.counters["advance_frac"] = total_s > 0.0 ? advance_s / total_s : 0.0;
  state.counters["fluid_events"] = events;
  state.counters["simd"] = simd ? 1.0 : 0.0;
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineAdvance)
    ->Args({8, 0})->Args({8, 1})
    ->Args({64, 0})->Args({64, 1})
    ->Args({256, 0})->Args({256, 1});

void BM_PerfPredict(benchmark::State& state) {
  perf::ConsolidationModel model;
  const auto plan = make_plan(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(plan));
  }
}
BENCHMARK(BM_PerfPredict)->Arg(2)->Arg(16)->Arg(64);

/// The ewcd benchmark's mixes, one entry per unit of weight: shard_heavy
/// draws its four enterprise kernels at equal weight, shard_light
/// encryption_6k and sorting_6k 2:1.
std::vector<workloads::InstanceSpec> mix_specs(bool heavy) {
  return heavy ? std::vector<workloads::InstanceSpec>{workloads::kmeans_256k(),
                                                      workloads::sha256_64k(),
                                                      workloads::compression_64m(),
                                                      workloads::encryption_6k()}
               : std::vector<workloads::InstanceSpec>{workloads::encryption_6k(),
                                                      workloads::encryption_6k(),
                                                      workloads::sorting_6k()};
}

/// One fixed 16-request batch of each mix.
std::vector<workloads::InstanceSpec> batch_specs(bool heavy) {
  const std::vector<workloads::InstanceSpec> mix = mix_specs(heavy);
  std::vector<workloads::InstanceSpec> batch;
  for (std::size_t i = 0; i < 16; ++i) batch.push_back(mix[i % mix.size()]);
  return batch;
}

gpusim::LaunchPlan batch_plan(
    const std::vector<workloads::InstanceSpec>& specs) {
  gpusim::LaunchPlan plan;
  plan.reuse_constant_data = consolidate::Optimizations{}.constant_data_reuse;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    plan.instances.push_back(
        gpusim::KernelInstance{specs[i].gpu, static_cast<int>(i), ""});
  }
  return plan;
}

void BM_PerfPredictBatch(benchmark::State& state, bool heavy) {
  perf::ConsolidationModel model;
  const auto plan = batch_plan(batch_specs(heavy));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(plan));
  }
}
BENCHMARK_CAPTURE(BM_PerfPredictBatch, shard_heavy, true);

/// The power model `ewcsim serve` trains, trained once per process.
const power::GpuPowerModel& served_power_model() {
  static const power::GpuPowerModel power = [] {
    gpusim::FluidEngine engine;
    return power::ModelTrainer(engine)
        .train(workloads::rodinia_training_kernels())
        .model;
  }();
  return power;
}

// One DecisionEngine::decide per iteration, as the daemon's batch thread
// runs it: trained power model, CPU profiles, no prediction cache.
void BM_Decide(benchmark::State& state, bool heavy) {
  const consolidate::BackendOptions defaults;
  consolidate::DecisionEngine engine(gpusim::tesla_c1060(),
                                     served_power_model(), defaults.cpu_config,
                                     defaults.costs);
  const auto specs = batch_specs(heavy);
  const auto plan = batch_plan(specs);
  std::vector<std::optional<cpusim::CpuTask>> profiles;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    profiles.emplace_back(specs[i].cpu);
    profiles.back()->instance_id = static_cast<int>(i);
  }
  const auto overhead = engine.overhead(
      plan.instances, std::vector<std::size_t>(specs.size(), 0),
      std::vector<int>(specs.size(), 1), defaults.optimizations);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.decide(plan, profiles, overhead, defaults.policy));
  }
}
BENCHMARK_CAPTURE(BM_Decide, shard_light, false);
BENCHMARK_CAPTURE(BM_Decide, shard_heavy, true);

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// One 16-request batch through a Backend built with `ewcsim serve`'s recipe,
// from Backend::channel() to its last reply. Batches are seeded draws from
// the mix (so shard_light's chunks rarely repeat, as in the daemon); the
// first 16 run as warm-up before timing starts. The wall time includes the
// channel hand-offs between this thread and the Backend's batch thread, so
// the batch thread's own cost is reported apart: `batch_thread_cpu_us` is
// the process's CPU time minus this thread's, per batch.
void BM_BackendBatch(benchmark::State& state, bool heavy) {
  constexpr int kBatch = 16;
  const gpusim::FluidEngine engine;
  const auto mix = mix_specs(heavy);
  auto templates = consolidate::TemplateRegistry::paper_defaults();
  consolidate::ConsolidationTemplate t;
  t.name = "experiment_mix";
  for (const auto& spec : mix) t.kernels.insert(spec.gpu.name);
  templates.add(std::move(t));
  consolidate::BackendOptions options;
  options.batch_threshold = kBatch;
  consolidate::Backend backend(engine, served_power_model(),
                               std::move(templates), options);
  for (const auto& spec : mix) backend.set_cpu_profile(spec.gpu.name, spec.cpu);

  common::Rng rng(heavy ? 0xbe7c4ull : 0x119447ull);
  std::vector<std::vector<consolidate::LaunchRequest>> batches(256);
  for (auto& batch : batches) {
    for (int i = 0; i < kBatch; ++i) {
      consolidate::LaunchRequest req;
      req.owner = "bench-s" + std::to_string(rng.uniform_int(0, 2));
      req.desc = mix[rng.pick_index(mix.size())].gpu;
      req.api_messages = 1;
      batch.push_back(std::move(req));
    }
  }
  auto replies = std::make_shared<consolidate::ReplyChannel>();
  std::size_t next = 0;
  const auto run_batch = [&] {
    for (auto req : batches[next++ % batches.size()]) {
      req.reply = replies;
      backend.channel().send(std::move(req));
    }
    for (int i = 0; i < kBatch; ++i) benchmark::DoNotOptimize(replies->receive());
  };
  for (int i = 0; i < 16; ++i) run_batch();
  const double process0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  const double thread0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  for (auto _ : state) run_batch();
  const double batch_thread_cpu =
      (cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - process0) -
      (cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - thread0);
  state.counters["batch_thread_cpu_us"] =
      1e6 * batch_thread_cpu / static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK_CAPTURE(BM_BackendBatch, shard_light, false)->UseRealTime();
BENCHMARK_CAPTURE(BM_BackendBatch, shard_heavy, true)->UseRealTime();

void BM_PowerPredict(benchmark::State& state) {
  gpusim::FluidEngine engine;
  power::ModelTrainer trainer(engine);
  const auto report = trainer.train(workloads::rodinia_training_kernels());
  perf::ConsolidationModel perf_model;
  const auto plan = make_plan(8);
  const auto timing = perf_model.predict(plan);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        report.model.predict(engine.device(), plan, timing));
  }
}
BENCHMARK(BM_PowerPredict);

void BM_PowerTraining(benchmark::State& state) {
  gpusim::FluidEngine engine;
  const auto kernels = workloads::rodinia_training_kernels();
  for (auto _ : state) {
    power::ModelTrainer trainer(engine);
    benchmark::DoNotOptimize(trainer.train(kernels));
  }
}
BENCHMARK(BM_PowerTraining);

void BM_CpuEngine(benchmark::State& state) {
  cpusim::CpuEngine cpu;
  std::vector<cpusim::CpuTask> tasks;
  for (int i = 0; i < state.range(0); ++i) {
    cpusim::CpuTask t;
    t.name = "t";
    t.core_seconds = 1.0 + 0.1 * i;
    t.threads = 1 + i % 8;
    t.cache_sensitivity = 0.4;
    t.instance_id = i;
    tasks.push_back(t);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cpu.run(tasks));
  }
}
BENCHMARK(BM_CpuEngine)->Arg(4)->Arg(32);

void BM_EventRateExtraction(benchmark::State& state) {
  gpusim::DeviceConfig dev;
  const auto plan = make_plan(16);
  for (auto _ : state) {
    auto totals = power::plan_event_totals(dev, plan);
    benchmark::DoNotOptimize(power::virtual_sm_rates(dev, totals, 1e9));
  }
}
BENCHMARK(BM_EventRateExtraction);

}  // namespace

// Hand-rolled BENCHMARK_MAIN so the run can end with the shared
// observability JSON block. --json/--json= is ours, not google-benchmark's,
// so it is stripped before Initialize (which rejects unknown flags).
int main(int argc, char** argv) {
  std::vector<char*> bench_argv;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      ++i;
      continue;
    }
    if (std::strncmp(argv[i], "--json=", 7) == 0) continue;
    bench_argv.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  ewc::bench::write_observability_json(argc, argv, "bench_micro");
  return 0;
}

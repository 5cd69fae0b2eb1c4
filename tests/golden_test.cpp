// Golden-digest + differential harness for the FluidEngine rewrite and the
// prediction models (ctest label: golden).
//
// Three layers of protection:
//   1. Checked-in FNV-1a digests of complete RunResults for the paper's
//      figure/table configurations. ANY change to the simulator's numerics
//      or event semantics — times, energies, per-SM counts, occupancy
//      samples, event counts — flips a digest. The scalar reference and the
//      SIMD path must BOTH reproduce every checked-in value (they are
//      bit-identical by construction; see docs/SIMULATOR.md).
//   2. A seeded differential fuzzer: ~1k randomized plans over varied
//      devices (SM counts, residency caps, bandwidth pressure, dispatch
//      policies) asserting the SIMD path bit-identical to the scalar
//      reference. There are NO tolerance exceptions; a failure prints the
//      seed and a minimal repro plan.
//   3. Checked-in digests of the Section V/VII predictions: every field of
//      ConsolidationModel::predict and every DecisionEngine::decide estimate
//      over a seeded battery of plans plus the benchmark's batch shapes. A
//      speed-up of the models must leave every one of them unchanged.
//   4. Checked-in digests of what the Backend reports and replies for
//      seeded sequences of the benchmark's 16-request batches, with the
//      daemon's backend recipe: a faster batch path (e.g. memoized engine
//      runs) must leave every report and every reply unchanged.
//
// Updating a digest is a deliberate act: rerun with EWC_GOLDEN_OUT=<file>
// (or read the failure message), verify the numeric change is intended, and
// paste the new value. CI builds both -DEWC_SIMD flavours and diffs their
// EWC_GOLDEN_OUT dumps, so a build-flavour-dependent digest cannot land.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "consolidate/backend.hpp"
#include "consolidate/decision.hpp"
#include "gpusim/engine.hpp"
#include "gpusim/simd.hpp"
#include "perf/consolidation_model.hpp"
#include "power/trainer.hpp"
#include "workloads/paper_configs.hpp"
#include "workloads/rodinia_like.hpp"

namespace ewc {
namespace {

// ---- canonical RunResult digest -------------------------------------------

class Fnv1a {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ull;
    }
  }
  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Canonical serialization of everything the simulator computes. The wall_*
/// fields are deliberately EXCLUDED: they are host-side measurements, not
/// simulation outputs.
std::uint64_t digest_run(const gpusim::RunResult& r) {
  Fnv1a d;
  d.f64(r.total_time.seconds());
  d.f64(r.kernel_time.seconds());
  d.f64(r.h2d_time.seconds());
  d.f64(r.d2h_time.seconds());
  d.f64(r.system_energy.joules());
  d.f64(r.avg_system_power.watts());
  d.u64(r.sm_stats.size());
  for (const auto& sm : r.sm_stats) {
    d.f64(sm.busy.seconds());
    d.i64(sm.blocks_executed);
    d.f64(sm.counts.fp);
    d.f64(sm.counts.int_ops);
    d.f64(sm.counts.sfu);
    d.f64(sm.counts.coalesced_tx);
    d.f64(sm.counts.uncoalesced_tx);
    d.f64(sm.counts.shared);
    d.f64(sm.counts.constant);
    d.f64(sm.counts.reg);
  }
  d.f64(r.device_counts.fp);
  d.f64(r.device_counts.int_ops);
  d.f64(r.device_counts.sfu);
  d.f64(r.device_counts.coalesced_tx);
  d.f64(r.device_counts.uncoalesced_tx);
  d.f64(r.device_counts.shared);
  d.f64(r.device_counts.constant);
  d.f64(r.device_counts.reg);
  d.u64(r.power_segments.size());
  for (const auto& s : r.power_segments) {
    d.f64(s.start.seconds());
    d.f64(s.length.seconds());
    d.f64(s.system_power.watts());
  }
  d.u64(r.completions.size());
  for (const auto& c : r.completions) {
    d.i64(c.instance_id);
    d.str(c.kernel_name);
    d.f64(c.finish_time.seconds());
  }
  d.u64(r.occupancy.size());
  for (const auto& o : r.occupancy) {
    d.f64(o.time.seconds());
    d.i64(o.busy_sms);
    d.i64(o.resident_blocks);
    d.f64(o.dram_utilization);
  }
  d.f64(r.avg_temp_delta_kelvin);
  d.f64(r.avg_dram_utilization);
  d.f64(r.avg_sm_utilization);
  d.u64(r.fluid_events);
  return d.value();
}

/// The minimal repro a digest mismatch prints: enough to reconstruct the
/// exact FluidEngine::run call in a debugger or one-off main().
std::string describe_plan(const gpusim::DeviceConfig& dev,
                          const gpusim::LaunchPlan& plan) {
  std::ostringstream os;
  os << "device{sms=" << dev.num_sms
     << ",blk/sm=" << dev.max_blocks_per_sm
     << ",bw=" << dev.dram_bandwidth.bytes_per_second()
     << ",policy=" << static_cast<int>(dev.dispatch_policy)
     << ",seed=" << dev.dispatch_seed << "} reuse_const="
     << plan.reuse_constant_data << " instances[";
  for (const auto& inst : plan.instances) {
    os << " " << inst.desc.name << "#" << inst.instance_id << "("
       << inst.desc.num_blocks << "x" << inst.desc.threads_per_block << ")";
  }
  os << " ]";
  return os.str();
}

struct PathDigests {
  std::uint64_t scalar = 0;
  std::uint64_t simd = 0;
};

/// Run the plan under the scalar reference and (when compiled in) the SIMD
/// path. Always restores the environment-selected path.
PathDigests run_both(const gpusim::FluidEngine& engine,
                     const gpusim::LaunchPlan& plan) {
  PathDigests out;
  gpusim::set_simd_enabled(false);
  out.scalar = digest_run(engine.run(plan));
  if (gpusim::simd_compiled_in()) {
    gpusim::set_simd_enabled(true);
    out.simd = digest_run(engine.run(plan));
    gpusim::set_simd_enabled(false);
  } else {
    out.simd = out.scalar;
  }
  return out;
}

// ---- golden fixtures -------------------------------------------------------

struct Fixture {
  const char* name;
  std::uint64_t expected;
  std::function<gpusim::FluidEngine()> engine;
  std::function<gpusim::LaunchPlan()> plan;
};

gpusim::LaunchPlan plan_of(const std::vector<workloads::InstanceSpec>& specs) {
  gpusim::LaunchPlan plan;
  int id = 0;
  for (const auto& s : specs) {
    plan.instances.push_back(gpusim::KernelInstance{s.gpu, id++, ""});
  }
  return plan;
}

gpusim::LaunchPlan replicated(const workloads::InstanceSpec& spec, int n) {
  gpusim::LaunchPlan plan;
  for (int i = 0; i < n; ++i) {
    plan.instances.push_back(gpusim::KernelInstance{spec.gpu, i, ""});
  }
  return plan;
}

std::vector<Fixture> fixtures() {
  const auto tesla = [] { return gpusim::FluidEngine(); };
  const auto fermi = [] {
    return gpusim::FluidEngine(gpusim::fermi_c2050(), gpusim::c2050_energy());
  };
  return {
      // Paper Table 1 mix on the paper's device.
      {"tesla-table1-mix", 0x884eebe7f428baf1ull, tesla,
       [] { return plan_of(workloads::table1_specs()); }},
      // Section III consolidation scenarios.
      {"tesla-scenario1", 0x38bb6788c2e49baeull, tesla,
       [] {
         return plan_of({workloads::scenario1_montecarlo(),
                         workloads::scenario1_encryption()});
       }},
      // Fermi device over the full enterprise catalogue.
      {"fermi-enterprise-mix", 0xf01ede87e478bf06ull, fermi,
       [] { return plan_of(workloads::enterprise_specs()); }},
      // Batching-threshold sweep points (Figure 3 regime): the same
      // enterprise kernel consolidated at increasing batch sizes.
      {"tesla-threshold-2", 0x0997703274a19a07ull, tesla,
       [] { return replicated(workloads::encryption_12k(), 2); }},
      {"tesla-threshold-8", 0x86f78a9071873343ull, tesla,
       [] { return replicated(workloads::encryption_12k(), 8); }},
      {"tesla-threshold-32", 0xd7296b86a6029cc3ull, tesla,
       [] { return replicated(workloads::encryption_12k(), 32); }},
      // Constant-data reuse (the h2d dedup path) over a hetero mix.
      {"tesla-reuse-constants", 0x7f812d9716d1daa7ull, tesla,
       [] {
         auto plan = plan_of({workloads::encryption_12k(),
                              workloads::encryption_12k(),
                              workloads::sorting_6k(),
                              workloads::search_10k()});
         plan.reuse_constant_data = true;
         return plan;
       }},
  };
}

TEST(GoldenDigests, FixturesReproduceOnBothPaths) {
  const char* out_path = std::getenv("EWC_GOLDEN_OUT");
  std::ofstream out;
  if (out_path != nullptr) out.open(out_path, std::ios::app);

  for (const auto& f : fixtures()) {
    const auto engine = f.engine();
    const auto plan = f.plan();
    const PathDigests got = run_both(engine, plan);
    if (out.is_open()) {
      char line[96];
      std::snprintf(line, sizeof line, "%s 0x%016llx\n", f.name,
                    static_cast<unsigned long long>(got.scalar));
      out << line;
    }
    EXPECT_EQ(got.scalar, got.simd)
        << "SIMD path diverged from scalar reference on fixture '" << f.name
        << "'\nrepro: " << describe_plan(engine.device(), plan);
    EXPECT_EQ(got.scalar, f.expected)
        << "golden digest mismatch on fixture '" << f.name << "': got 0x"
        << std::hex << got.scalar << ", expected 0x" << f.expected
        << std::dec << "\nrepro: " << describe_plan(engine.device(), plan)
        << "\nIf the numeric change is intentional, update the digest in "
           "tests/golden_test.cpp (policy: docs/SIMULATOR.md).";
  }
}

// ---- differential fuzz -----------------------------------------------------

gpusim::KernelDesc fuzz_kernel(common::Rng& rng, int index) {
  gpusim::KernelDesc k;
  k.name = "fuzz" + std::to_string(static_cast<int>(rng.uniform_int(0, 3)));
  k.num_blocks = static_cast<int>(rng.uniform_int(0, 70));
  k.threads_per_block = static_cast<int>(rng.uniform_int(1, 8)) * 32;
  k.mix.fp_insts = rng.uniform(0.0, 2.0e5);
  k.mix.int_insts = rng.uniform(0.0, 1.0e5);
  k.mix.sfu_insts = rng.uniform(0.0, 2.0e4);
  k.mix.coalesced_mem_insts = rng.uniform(0.0, 2.0e4);
  k.mix.uncoalesced_mem_insts = rng.uniform(0.0, 800.0);
  k.mix.shared_accesses = rng.uniform(0.0, 5.0e4);
  k.mix.const_accesses = rng.uniform(0.0, 5.0e4);
  k.mix.sync_insts = rng.uniform(0.0, 300.0);
  k.resources.registers_per_thread = static_cast<int>(rng.uniform_int(8, 32));
  k.resources.shared_mem_per_block = rng.uniform_int(0, 8) * 1024;
  if (rng.uniform(0.0, 1.0) < 0.3) {
    k.resources.constant_data = common::Bytes::from_bytes(
        static_cast<double>(rng.uniform_int(1, 16)) * 1024.0);
  }
  k.h2d_bytes = common::Bytes::from_bytes(rng.uniform(0.0, 1.0e6));
  k.d2h_bytes = common::Bytes::from_bytes(rng.uniform(0.0, 1.0e6));
  if (rng.uniform(0.0, 1.0) < 0.2) k.mlp = rng.uniform(1.0, 8.0);
  // Zero-work corner cases stay in the pool: blocks whose demands are all
  // zero exercise the dt == 0 retire path.
  if (rng.uniform(0.0, 1.0) < 0.1) {
    k.mix = gpusim::InstructionMix{};
  }
  (void)index;
  return k;
}

/// Randomized device: varied SM counts, residency caps, and a DRAM
/// bandwidth squeeze that forces mem_scale < 1 (the saturated regime).
gpusim::DeviceConfig fuzz_device(common::Rng& rng) {
  gpusim::DeviceConfig dev = gpusim::tesla_c1060();
  dev.num_sms = static_cast<int>(rng.uniform_int(1, 30));
  dev.max_blocks_per_sm = static_cast<int>(rng.uniform_int(1, 8));
  const double squeeze[] = {0.1, 0.5, 1.0};
  dev.dram_bandwidth = common::Bandwidth::from_bytes_per_second(
      dev.dram_bandwidth.bytes_per_second() *
      squeeze[rng.uniform_int(0, 2)]);
  const gpusim::DispatchPolicy policies[] = {
      gpusim::DispatchPolicy::kRoundRobin,
      gpusim::DispatchPolicy::kLeastLoadedWarps,
      gpusim::DispatchPolicy::kRandom};
  dev.dispatch_policy = policies[rng.uniform_int(0, 2)];
  dev.dispatch_seed = rng.uniform_int(1, 1 << 20);
  return dev;
}

class DifferentialFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialFuzz, SimdBitIdenticalToScalar) {
  if (!gpusim::simd_compiled_in()) {
    GTEST_SKIP() << "EWC_SIMD=OFF build: only the scalar path exists";
  }
  // 8 shards x 128 seeds = 1024 randomized plans.
  const int shard = GetParam();
  for (int i = 0; i < 128; ++i) {
    const std::uint64_t seed =
        0x90ddull + static_cast<std::uint64_t>(shard) * 128 + i;
    common::Rng rng(seed);
    const gpusim::DeviceConfig dev = fuzz_device(rng);
    gpusim::FluidEngine engine(dev);
    gpusim::LaunchPlan plan;
    plan.reuse_constant_data = rng.uniform(0.0, 1.0) < 0.5;
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 5));
    for (int j = 0; j < n; ++j) {
      gpusim::KernelInstance inst;
      inst.desc = fuzz_kernel(rng, j);
      while (inst.desc.num_blocks > 0 &&
             !inst.desc.block_fits_empty_sm(dev)) {
        inst.desc.threads_per_block -= 32;  // shrink until runnable
        if (inst.desc.threads_per_block <= 0) {
          inst.desc.threads_per_block = 32;
          inst.desc.resources.shared_mem_per_block = 0;
          inst.desc.resources.registers_per_thread = 8;
        }
      }
      inst.instance_id = j;
      plan.instances.push_back(std::move(inst));
    }
    const PathDigests got = run_both(engine, plan);
    ASSERT_EQ(got.scalar, got.simd)
        << "SIMD/scalar divergence at fuzz seed " << seed
        << "\nrepro: " << describe_plan(dev, plan);
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, DifferentialFuzz, ::testing::Range(0, 8));

// ---- prediction digests ----------------------------------------------------

void digest_prediction(Fnv1a& d, const perf::ConsolidationPrediction& p) {
  d.i64(static_cast<std::int64_t>(p.type));
  d.f64(p.kernel_time.seconds());
  d.f64(p.h2d_time.seconds());
  d.f64(p.d2h_time.seconds());
  d.f64(p.total_time.seconds());
  d.f64(p.execution_cycles);
  d.i64(p.critical_sm);
  d.u64(p.critical_sm_blocks.size());
  for (int b : p.critical_sm_blocks) d.i64(b);
  d.u64(p.per_instance.size());
  for (const auto& i : p.per_instance) {
    d.i64(i.instance_id);
    d.str(i.kernel_name);
    d.f64(i.kernel_time.seconds());
  }
}

void digest_decision(Fnv1a& d, const consolidate::Decision& dec) {
  d.i64(static_cast<std::int64_t>(dec.chosen));
  d.u64(dec.estimates.size());
  for (const auto& e : dec.estimates) {
    d.i64(static_cast<std::int64_t>(e.which));
    d.f64(e.time.seconds());
    d.f64(e.energy.joules());
    d.i64(e.feasible ? 1 : 0);
    d.str(e.note);
  }
}

/// A kernel the battery draws from, with its CPU profile when it has one.
struct PoolKernel {
  gpusim::KernelDesc gpu;
  std::optional<cpusim::CpuTask> cpu;
};

std::vector<PoolKernel> prediction_pool() {
  std::vector<PoolKernel> pool;
  for (const auto& specs :
       {workloads::enterprise_specs(), workloads::table1_specs()}) {
    for (const auto& s : specs) pool.push_back({s.gpu, s.cpu});
  }
  for (const auto& k : workloads::rodinia_training_kernels()) {
    pool.push_back({k, std::nullopt});
  }
  return pool;
}

/// One device's models, built the way `ewcsim serve` builds them.
struct DeviceModels {
  gpusim::FluidEngine engine;
  perf::ConsolidationModel perf;
  consolidate::DecisionEngine decision;
};

DeviceModels device_models(gpusim::FluidEngine engine) {
  power::ModelTrainer trainer(engine);
  auto power = trainer.train(workloads::rodinia_training_kernels()).model;
  consolidate::DecisionEngine decision(engine.device(), std::move(power),
                                       cpusim::CpuConfig{},
                                       consolidate::FrameworkCosts{});
  perf::ConsolidationModel perf(engine.device());
  return {std::move(engine), std::move(perf), std::move(decision)};
}

/// Digest the prediction of `instances` (into `pd`) and the decision over
/// them (into `dd`), with the backend's framework-overhead estimate.
void digest_plan(const DeviceModels& m, const std::vector<PoolKernel>& kernels,
                 bool reuse_constant_data, Fnv1a& pd, Fnv1a& dd,
                 int* type1_plans = nullptr) {
  gpusim::LaunchPlan plan;
  plan.reuse_constant_data = reuse_constant_data;
  std::vector<std::optional<cpusim::CpuTask>> profiles;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    plan.instances.push_back(gpusim::KernelInstance{
        kernels[i].gpu, static_cast<int>(i), "golden"});
    profiles.push_back(kernels[i].cpu);
    if (profiles.back()) profiles.back()->instance_id = static_cast<int>(i);
  }
  const auto pred = m.perf.predict(plan);
  if (type1_plans != nullptr &&
      pred.type == perf::ConsolidationType::kType1) {
    ++*type1_plans;
  }
  digest_prediction(pd, pred);
  consolidate::Optimizations opts;
  opts.constant_data_reuse = reuse_constant_data;
  const auto overhead =
      m.decision.overhead(plan.instances,
                          std::vector<std::size_t>(kernels.size(), 0),
                          std::vector<int>(kernels.size(), 1), opts);
  digest_decision(dd, m.decision.decide(plan, profiles, overhead));
}

struct NamedDigest {
  const char* name;
  std::uint64_t expected;
  std::uint64_t got;
};

void check_digests(const std::vector<NamedDigest>& digests) {
  const char* out_path = std::getenv("EWC_GOLDEN_OUT");
  std::ofstream out;
  if (out_path != nullptr) out.open(out_path, std::ios::app);
  for (const auto& g : digests) {
    if (out.is_open()) {
      char line[96];
      std::snprintf(line, sizeof line, "%s 0x%016llx\n", g.name,
                    static_cast<unsigned long long>(g.got));
      out << line;
    }
    EXPECT_EQ(g.got, g.expected)
        << "golden digest mismatch on '" << g.name << "': got 0x" << std::hex
        << g.got << ", expected 0x" << g.expected << std::dec
        << "\nThe models and the backend must stay bit-identical; if the "
           "numeric change is intentional, update the digest here.";
  }
}

TEST(GoldenPredictions, SeededBatteryReproduces) {
  const auto pool = prediction_pool();
  const DeviceModels devices[] = {
      device_models(gpusim::FluidEngine()),
      device_models(
          gpusim::FluidEngine(gpusim::fermi_c2050(), gpusim::c2050_energy()))};
  Fnv1a predict_d[2];
  Fnv1a decide_d[2];
  int type1_plans = 0;
  constexpr int kPlans = 1200;
  for (int seed = 0; seed < kPlans; ++seed) {
    common::Rng rng(0x9e3779b9ull + static_cast<std::uint64_t>(seed));
    const int dev = seed % 2;
    const bool reuse = rng.uniform(0.0, 1.0) < 0.5;
    // Short plans dominate so both consolidation types stay well covered.
    const int n = rng.uniform(0.0, 1.0) < 0.5
                      ? 1 + static_cast<int>(rng.uniform_int(0, 3))
                      : 1 + static_cast<int>(rng.uniform_int(0, 23));
    std::vector<PoolKernel> kernels;
    for (int j = 0; j < n; ++j) {
      kernels.push_back(pool[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(pool.size()) - 1))]);
    }
    digest_plan(devices[dev], kernels, reuse, predict_d[dev], decide_d[dev],
                &type1_plans);
  }
  // Both of the paper's consolidation types must be exercised.
  EXPECT_GE(type1_plans, kPlans / 10);
  EXPECT_LE(type1_plans, kPlans - kPlans / 10);
  // The replay's corners (residency caps, footprints that fit no SM, many
  // equal loads) on the differential fuzzer's randomized devices.
  Fnv1a fuzz_d;
  for (int seed = 0; seed < kPlans; ++seed) {
    common::Rng rng(0x5eedull + static_cast<std::uint64_t>(seed));
    const gpusim::DeviceConfig dev = fuzz_device(rng);
    gpusim::LaunchPlan plan;
    plan.reuse_constant_data = rng.uniform(0.0, 1.0) < 0.5;
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 23));
    for (int j = 0; j < n; ++j) {
      plan.instances.push_back(
          gpusim::KernelInstance{fuzz_kernel(rng, j), j, ""});
    }
    if (plan.total_blocks() == 0) continue;
    digest_prediction(fuzz_d, perf::ConsolidationModel(dev).predict(plan));
  }
  check_digests({
      {"predict-battery-fuzz", 0xf580b50454eb9d1aull, fuzz_d.value()},
      {"predict-battery-tesla", 0xd77df7c7e2dbfa00ull, predict_d[0].value()},
      {"predict-battery-fermi", 0xf0393a61e6e28f6dull, predict_d[1].value()},
      {"decide-battery-tesla", 0xefcfad3e20129e76ull, decide_d[0].value()},
      {"decide-battery-fermi", 0xd6189088a1bc186aull, decide_d[1].value()},
  });
}

TEST(GoldenPredictions, BenchmarkBatchShapesReproduce) {
  const DeviceModels tesla = device_models(gpusim::FluidEngine());
  const auto kernel = [](const workloads::InstanceSpec& s) {
    return PoolKernel{s.gpu, s.cpu};
  };
  // The benchmark's 16-request batches: shard_heavy draws its four
  // enterprise kernels at equal weight, shard_light encryption_6k and
  // sorting_6k 2:1.
  const PoolKernel heavy_mix[] = {
      kernel(workloads::kmeans_256k()), kernel(workloads::sha256_64k()),
      kernel(workloads::compression_64m()), kernel(workloads::encryption_6k())};
  const PoolKernel light_mix[] = {kernel(workloads::encryption_6k()),
                                  kernel(workloads::encryption_6k()),
                                  kernel(workloads::sorting_6k())};
  std::vector<PoolKernel> heavy;
  std::vector<PoolKernel> light;
  for (int i = 0; i < 16; ++i) {
    heavy.push_back(heavy_mix[i % 4]);
    light.push_back(light_mix[i % 3]);
  }
  Fnv1a heavy_p, heavy_d, light_p, light_d;
  const bool reuse = consolidate::Optimizations{}.constant_data_reuse;
  digest_plan(tesla, heavy, reuse, heavy_p, heavy_d);
  digest_plan(tesla, light, reuse, light_p, light_d);
  check_digests({
      {"predict-shard-heavy", 0x2823b9c8619c8681ull, heavy_p.value()},
      {"decide-shard-heavy", 0xca182c9147b3a947ull, heavy_d.value()},
      {"predict-shard-light", 0xd42baf80cdab63ebull, light_p.value()},
      {"decide-shard-light", 0xd0ed67372f28c342ull, light_d.value()},
  });
}

// ---- Backend digests --------------------------------------------------------

/// Push `batches` seeded 16-request batches drawn from `mix` (kernel, weight)
/// through a Backend built the way `ewcsim serve` builds one: tesla engine,
/// trained power model, paper templates plus an "experiment_mix" template
/// over the mix, the mix's CPU profiles, threshold 16. Digests every reply
/// (in delivery order) and then every BatchReport.
std::uint64_t digest_backend(
    const std::vector<std::pair<workloads::InstanceSpec, int>>& mix,
    int batches, std::uint64_t seed) {
  constexpr int kBatch = 16;
  const gpusim::FluidEngine engine;
  const auto power = power::ModelTrainer(engine)
                         .train(workloads::rodinia_training_kernels())
                         .model;
  consolidate::BackendOptions options;
  options.batch_threshold = kBatch;
  auto templates = consolidate::TemplateRegistry::paper_defaults();
  consolidate::ConsolidationTemplate t;
  t.name = "experiment_mix";
  std::vector<int> weighted;  // mix index, repeated by weight
  for (std::size_t m = 0; m < mix.size(); ++m) {
    t.kernels.insert(mix[m].first.gpu.name);
    weighted.insert(weighted.end(), static_cast<std::size_t>(mix[m].second),
                    static_cast<int>(m));
  }
  templates.add(std::move(t));
  consolidate::Backend backend(engine, power, std::move(templates), options);
  for (const auto& [spec, weight] : mix) {
    backend.set_cpu_profile(spec.gpu.name, spec.cpu);
  }

  Fnv1a d;
  common::Rng rng(seed);
  auto replies = std::make_shared<consolidate::ReplyChannel>();
  std::uint64_t next_id = 1;
  for (int b = 0; b < batches; ++b) {
    for (int i = 0; i < kBatch; ++i) {
      consolidate::LaunchRequest req;
      // Three sessions' owners, as the benchmark's clients send them.
      req.owner = "golden-s" + std::to_string(rng.uniform_int(0, 2));
      req.request_id = next_id++;
      req.desc = mix[static_cast<std::size_t>(
                         weighted[rng.pick_index(weighted.size())])]
                     .first.gpu;
      req.api_messages = 1;
      req.reply = replies;
      EXPECT_TRUE(backend.channel().send(std::move(req)));
    }
    for (int i = 0; i < kBatch; ++i) {
      const auto reply =
          replies->receive_for(common::Duration::from_seconds(60.0));
      if (!reply.has_value()) {
        ADD_FAILURE() << "no reply for batch " << b;
        return 0;
      }
      d.u64(reply->request_id);
      d.i64(static_cast<std::int64_t>(reply->where));
      d.i64(reply->ok ? 1 : 0);
      d.f64(reply->finish_time.seconds());
    }
  }
  backend.shutdown();
  const auto reports = backend.reports();
  d.u64(reports.size());
  for (const auto& r : reports) {
    d.i64(static_cast<std::int64_t>(r.executed));
    d.i64(r.consolidated_launches);
    d.f64(r.overhead.seconds());
    d.f64(r.execution_time.seconds());
    d.f64(r.total_time.seconds());
    d.f64(r.energy.joules());
  }
  return d.value();
}

TEST(GoldenBackend, BenchmarkBatchSequencesReproduce) {
  // shard_heavy: four enterprise kernels at equal weight; shard_light:
  // encryption_6k and sorting_6k 2:1 (the ewcd benchmark's mixes).
  const std::uint64_t heavy = digest_backend(
      {{workloads::kmeans_256k(), 1},
       {workloads::sha256_64k(), 1},
       {workloads::compression_64m(), 1},
       {workloads::encryption_6k(), 1}},
      240, 0xbacc0001ull);
  const std::uint64_t light = digest_backend(
      {{workloads::encryption_6k(), 2}, {workloads::sorting_6k(), 1}}, 240,
      0xbacc0002ull);
  check_digests({
      {"backend-shard-heavy", 0x854a2a786d4156aeull, heavy},
      {"backend-shard-light", 0xeea09baff02078f0ull, light},
  });
}

}  // namespace
}  // namespace ewc

// Tests for the analytic performance model (paper Section V), including the
// headline property validated by Figures 3 and 4: prediction error against
// the (independent) dynamic simulator stays within the paper's bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "gpusim/engine.hpp"
#include "perf/analytic.hpp"
#include "perf/consolidation_model.hpp"
#include "workloads/paper_configs.hpp"

namespace ewc::perf {
namespace {

using gpusim::KernelDesc;
using gpusim::KernelInstance;
using gpusim::LaunchPlan;

KernelDesc kernel(const char* name, int blocks, double fp, double coal,
                  double uncoal = 0.0) {
  KernelDesc k;
  k.name = name;
  k.num_blocks = blocks;
  k.threads_per_block = 256;
  k.mix.fp_insts = fp;
  k.mix.int_insts = fp * 0.25;
  k.mix.coalesced_mem_insts = coal;
  k.mix.uncoalesced_mem_insts = uncoal;
  return k;
}

LaunchPlan plan_of(std::initializer_list<KernelDesc> descs) {
  LaunchPlan p;
  int id = 0;
  for (const auto& d : descs) p.instances.push_back(KernelInstance{d, id++, ""});
  return p;
}

// ---------------- single-kernel analytic model ----------------

TEST(AnalyticModel, ComputeBoundPredictionIsExactForUniformGrid) {
  AnalyticModel model;
  gpusim::FluidEngine engine;
  KernelDesc k = kernel("c", 30, 5.0e5, 0.0);
  const auto pred = model.predict(k);
  const auto meas = engine.run(plan_of({k}));
  EXPECT_NEAR(pred.kernel_time.seconds(), meas.kernel_time.seconds(),
              0.01 * meas.kernel_time.seconds());
}

TEST(AnalyticModel, PureComputeKernelNotMemoryBound) {
  AnalyticModel model;
  const auto pred = model.predict(kernel("c", 30, 1.0e5, 0.0));
  EXPECT_FALSE(pred.parallelism.memory_bound);
  EXPECT_GT(pred.execution_cycles, 0.0);
}

TEST(AnalyticModel, SaturatingStreamIsMemoryBound) {
  AnalyticModel model;
  const auto pred = model.predict(kernel("m", 240, 100.0, 5.0e4));
  EXPECT_TRUE(pred.parallelism.memory_bound);
}

TEST(AnalyticModel, MwpBoundedByActiveWarps) {
  AnalyticModel model;
  KernelDesc k = kernel("m", 1, 100.0, 1.0e4);
  auto wp = model.warp_parallelism(k, 4.0, 1);
  EXPECT_LE(wp.mwp, 4.0);
  EXPECT_LE(wp.cwp, 4.0);
}

TEST(AnalyticModel, BandwidthFractionSlowsMemoryBoundKernel) {
  AnalyticModel model;
  KernelDesc k = kernel("m", 240, 100.0, 5.0e4);
  const auto full = model.predict(k, 1.0);
  const auto half = model.predict(k, 0.5);
  EXPECT_GT(half.kernel_time.seconds(), 1.5 * full.kernel_time.seconds());
}

TEST(AnalyticModel, BandwidthFractionValidation) {
  AnalyticModel model;
  KernelDesc k = kernel("m", 1, 100.0, 10.0);
  EXPECT_THROW(model.predict(k, 0.0), std::invalid_argument);
  EXPECT_THROW(model.predict(k, 1.5), std::invalid_argument);
}

TEST(AnalyticModel, WavesCountResidencyLimit) {
  AnalyticModel model;
  KernelDesc k = kernel("c", 480, 1.0e4, 0.0);
  k.resources.registers_per_thread = 60;  // one block per SM
  const auto pred = model.predict(k);
  EXPECT_EQ(pred.waves, 16);  // 480 / 30
}

TEST(AnalyticModel, TransferTimesMatchDeviceModel) {
  AnalyticModel model;
  const auto& dev = model.device();
  auto t = model.h2d_time(common::Bytes::from_mib(10.0));
  EXPECT_NEAR(t.seconds(),
              10.0 * 1024 * 1024 / dev.pcie_h2d.bytes_per_second() +
                  dev.transfer_latency.seconds(),
              1e-12);
  EXPECT_EQ(model.h2d_time(common::Bytes::zero()).seconds(), 0.0);
}

TEST(AnalyticModel, SoloBlockTimePositiveAndMonotone) {
  AnalyticModel model;
  KernelDesc small = kernel("k", 1, 1.0e4, 100.0);
  KernelDesc big = small.with_work_scale(4.0);
  EXPECT_GT(model.solo_block_time(small).seconds(), 0.0);
  EXPECT_GT(model.solo_block_time(big).seconds(),
            model.solo_block_time(small).seconds());
}

// ---------------- prediction-vs-simulation error bounds ----------------
// Figure 3: type-1 consolidations; paper says the extension "is accurate".
// We require < 15% error across a sweep of pairings.

struct Type1Case {
  const char* label;
  KernelDesc a;
  KernelDesc b;
};

class Type1Accuracy : public ::testing::TestWithParam<int> {};

std::vector<Type1Case> type1_cases() {
  return {
      {"compute+compute", kernel("a", 10, 3.0e5, 0.0), kernel("b", 12, 2.0e5, 0.0)},
      {"compute+memory", kernel("a", 10, 3.0e5, 0.0), kernel("b", 12, 100.0, 2.0e4)},
      {"memory+memory", kernel("a", 14, 100.0, 2.0e4), kernel("b", 15, 100.0, 3.0e4)},
      {"uncoal+coal", kernel("a", 8, 100.0, 0.0, 600.0), kernel("b", 10, 100.0, 2.0e4)},
      {"small+large", kernel("a", 3, 1.0e5, 1.0e3), kernel("b", 25, 4.0e5, 5.0e3)},
  };
}

TEST_P(Type1Accuracy, PredictionWithin15Percent) {
  const auto c = type1_cases()[static_cast<std::size_t>(GetParam())];
  ConsolidationModel model;
  gpusim::FluidEngine engine;
  LaunchPlan plan = plan_of({c.a, c.b});
  ASSERT_EQ(model.classify(plan), ConsolidationType::kType1) << c.label;
  const auto pred = model.predict(plan);
  const auto meas = engine.run(plan);
  EXPECT_LT(common::relative_error(pred.kernel_time.seconds(),
                                   meas.kernel_time.seconds()),
            0.15)
      << c.label << ": predicted " << pred.kernel_time.seconds()
      << " measured " << meas.kernel_time.seconds();
}

INSTANTIATE_TEST_SUITE_P(Pairs, Type1Accuracy, ::testing::Range(0, 5));

// Figure 4: type-2 consolidations (the paper's two scenarios); error < 12%.

TEST(Type2Accuracy, Scenario1StylePrediction) {
  ConsolidationModel model;
  gpusim::FluidEngine engine;
  const auto mc = workloads::scenario1_montecarlo();
  const auto enc = workloads::scenario1_encryption();
  LaunchPlan plan = plan_of({mc.gpu, enc.gpu});
  ASSERT_EQ(model.classify(plan), ConsolidationType::kType2);
  const auto pred = model.predict(plan);
  const auto meas = engine.run(plan);
  EXPECT_LT(common::relative_error(pred.total_time.seconds(),
                                   meas.total_time.seconds()),
            0.12)
      << "predicted " << pred.total_time.seconds() << " measured "
      << meas.total_time.seconds();
}

TEST(Type2Accuracy, Scenario2StylePrediction) {
  ConsolidationModel model;
  gpusim::FluidEngine engine;
  const auto bs = workloads::scenario2_blackscholes();
  const auto s = workloads::scenario2_search();
  LaunchPlan plan = plan_of({bs.gpu, s.gpu});
  ASSERT_EQ(model.classify(plan), ConsolidationType::kType2);
  const auto pred = model.predict(plan);
  const auto meas = engine.run(plan);
  EXPECT_LT(common::relative_error(pred.total_time.seconds(),
                                   meas.total_time.seconds()),
            0.12);
}

// ---------------- classification & structure ----------------

TEST(ConsolidationModel, ClassifiesByBlocksPerSm) {
  ConsolidationModel model;
  EXPECT_EQ(model.classify(plan_of({kernel("a", 15, 1, 0), kernel("b", 15, 1, 0)})),
            ConsolidationType::kType1);
  EXPECT_EQ(model.classify(plan_of({kernel("a", 16, 1, 0), kernel("b", 15, 1, 0)})),
            ConsolidationType::kType2);
}

TEST(ConsolidationModel, EmptyPlanThrows) {
  ConsolidationModel model;
  EXPECT_THROW(model.predict(LaunchPlan{}), std::invalid_argument);
}

TEST(ConsolidationModel, Type1ReportsPerInstanceTimes) {
  ConsolidationModel model;
  auto pred = model.predict(plan_of({kernel("a", 5, 2.0e5, 0.0),
                                     kernel("b", 5, 1.0e5, 0.0)}));
  ASSERT_EQ(pred.per_instance.size(), 2u);
  EXPECT_GT(pred.per_instance[0].kernel_time.seconds(),
            pred.per_instance[1].kernel_time.seconds());
  // Consolidated time is the longest constituent.
  EXPECT_NEAR(pred.kernel_time.seconds(),
              pred.per_instance[0].kernel_time.seconds(), 1e-12);
}

TEST(ConsolidationModel, Type2IdentifiesCriticalSm) {
  ConsolidationModel model;
  // 31 equal blocks: one SM gets 2 blocks and must be critical.
  auto pred = model.predict(plan_of({kernel("a", 31, 2.0e5, 0.0)}));
  EXPECT_EQ(pred.type, ConsolidationType::kType2);
  EXPECT_EQ(pred.critical_sm_blocks.size(), 2u);
}

TEST(ConsolidationModel, SerialPredictionSumsInstances) {
  ConsolidationModel model;
  KernelDesc k = kernel("a", 10, 2.0e5, 1.0e3);
  std::vector<KernelInstance> insts{{k, 0, ""}, {k, 1, ""}};
  const auto serial = model.predict_serial(insts);
  const auto one = model.analytic().predict(k);
  EXPECT_NEAR(serial.seconds(), 2.0 * one.total_time.seconds(), 1e-9);
}

TEST(ConsolidationModel, HarmfulConsolidationPredictedHarmful) {
  // The decision-relevant property behind Table 2: the model must predict
  // that consolidating two memory-bound kernels is not faster than serial.
  ConsolidationModel model;
  const auto mc = workloads::scenario1_montecarlo();
  const auto enc = workloads::scenario1_encryption();
  LaunchPlan plan = plan_of({mc.gpu, enc.gpu});
  const auto consolidated = model.predict(plan);
  std::vector<KernelInstance> insts{{mc.gpu, 0, ""}, {enc.gpu, 1, ""}};
  const auto serial = model.predict_serial(insts);
  EXPECT_GT(consolidated.total_time.seconds(), 0.9 * serial.seconds());
}

TEST(ConsolidationModel, BeneficialConsolidationPredictedBeneficial) {
  // Scenario 2: consolidated time should be well under the serial sum.
  ConsolidationModel model;
  const auto bs = workloads::scenario2_blackscholes();
  const auto s = workloads::scenario2_search();
  LaunchPlan plan = plan_of({bs.gpu, s.gpu});
  const auto consolidated = model.predict(plan);
  std::vector<KernelInstance> insts{{bs.gpu, 0, ""}, {s.gpu, 1, ""}};
  const auto serial = model.predict_serial(insts);
  EXPECT_LT(consolidated.total_time.seconds(), 0.9 * serial.seconds());
}

// Homogeneous sweep (the Figure 3 experiment's backbone): prediction error
// for n consolidated encryption instances stays small as n grows.
class HomogeneousSweep : public ::testing::TestWithParam<int> {};

TEST_P(HomogeneousSweep, EncryptionConsolidationPrediction) {
  const int n = GetParam();
  ConsolidationModel model;
  gpusim::FluidEngine engine;
  const auto spec = workloads::encryption_12k();
  LaunchPlan plan;
  for (int i = 0; i < n; ++i) {
    plan.instances.push_back(KernelInstance{spec.gpu, i, ""});
  }
  const auto pred = model.predict(plan);
  const auto meas = engine.run(plan);
  EXPECT_LT(common::relative_error(pred.total_time.seconds(),
                                   meas.total_time.seconds()),
            0.15)
      << n << " instances";
}

INSTANTIATE_TEST_SUITE_P(Counts, HomogeneousSweep,
                         ::testing::Values(1, 2, 3, 5, 7, 9, 10, 12));

// ---------------- type-2 overflow placement ----------------
// The round-at-a-time placement must reproduce the per-block tournament-tree
// replay it replaced bit for bit. That replay is kept below verbatim as the
// reference, with the std::set distinct-name counting the memory side and
// the h2d transfer used alongside it, so the comparisons also pin those.
//
// A NaN load cannot arise, so no case covers one. A load is a sum of
// solo_block_time() values, and for a KernelDesc with finite non-negative
// fields on a DeviceConfig with positive parameters that value lies in
// [0, +inf]: products and sums of such fields can overflow to +inf but never
// form inf - inf, 0 * inf or 0 / 0, and the one quotient that can read
// inf / inf (the average transaction size when both the byte and the
// transaction counts overflow) reaches solo_block_time() only as the
// second argument of std::max, which then returns the first one.
// AllMaxFieldsIsInfiniteNotNan pins that last case.
namespace tree_reference {

using gpusim::DeviceConfig;

/// One kernel's aggregate DRAM demand for the phased-sharing analysis.
struct MemDemand {
  std::string kernel;
  double bytes = 0.0;     ///< device-wide bytes the kernel must move
  double cap_rate = 0.0;  ///< bytes/s its resident warps can pull (MLP cap)
  double eff = 1.0;       ///< stream's DRAM row-locality efficiency
};

/// Phased bandwidth sharing: while several kernels have outstanding memory
/// demand, effective DRAM bandwidth (degraded by the demand-weighted stream
/// efficiency and the kernel-mixing penalty) is split proportionally to each
/// kernel's demand cap; when one kernel's demand drains, the shares are
/// recomputed. This refines the paper's "bandwidth sharing always happens"
/// assumption at kernel granularity while remaining a static model (no block
/// scheduling, no per-SM state). Returns each demand's finish time.
std::vector<double> phased_memory_finish(const gpusim::DeviceConfig& dev,
                                         std::vector<MemDemand> demands) {
  std::vector<double> finish(demands.size(), 0.0);
  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (demands[i].bytes > 0.0 && demands[i].cap_rate > 0.0) {
      active.push_back(i);
    }
  }
  double t = 0.0;
  while (!active.empty()) {
    double total_cap = 0.0;
    double eff_weighted = 0.0;
    std::set<std::string> names;
    for (std::size_t i : active) {
      total_cap += demands[i].cap_rate;
      eff_weighted += demands[i].cap_rate * demands[i].eff;
      names.insert(demands[i].kernel);
    }
    const double mixing = std::max(
        dev.min_mixing_efficiency,
        1.0 - dev.mixing_penalty_per_kernel *
                  (static_cast<double>(names.size()) - 1.0));
    const double eff_bw = dev.dram_bandwidth.bytes_per_second() *
                          (eff_weighted / total_cap) * mixing;
    const double scale = std::min(1.0, eff_bw / total_cap);

    // Next kernel to drain under the current shares.
    double dt = std::numeric_limits<double>::infinity();
    for (std::size_t i : active) {
      dt = std::min(dt, demands[i].bytes / (demands[i].cap_rate * scale));
    }
    t += dt;
    std::vector<std::size_t> still;
    for (std::size_t i : active) {
      demands[i].bytes -= demands[i].cap_rate * scale * dt;
      if (demands[i].bytes <= 1e-6) {
        finish[i] = t;
      } else {
        still.push_back(i);
      }
    }
    active = std::move(still);
  }
  return finish;
}

/// Build the per-instance demand vector for a plan. `one_block_per_sm`
/// restricts the demand cap to one block per SM (type 1); otherwise the cap
/// covers all simultaneously-resident blocks.
std::vector<MemDemand> plan_demands(const gpusim::DeviceConfig& dev,
                                    const LaunchPlan& plan,
                                    bool one_block_per_sm) {
  std::vector<MemDemand> demands(plan.instances.size());
  for (std::size_t i = 0; i < plan.instances.size(); ++i) {
    const auto& k = plan.instances[i].desc;
    if (k.num_blocks == 0 || !k.has_mem_work()) continue;
    const double warps = k.warps_per_block(dev);
    const int resident =
        one_block_per_sm
            ? k.num_blocks
            : std::min(k.num_blocks, max_resident_blocks(dev, k) * dev.num_sms);
    demands[i].kernel = k.name;
    demands[i].bytes =
        k.warp_mem_bytes(dev) * warps * static_cast<double>(k.num_blocks);
    demands[i].cap_rate =
        per_warp_memory_cap(dev, k) * warps * static_cast<double>(resident);
    demands[i].eff = k.dram_efficiency(dev);
  }
  return demands;
}

class Model {
 public:
  explicit Model(DeviceConfig dev) : dev_(dev), analytic_(dev) {}

  ConsolidationPrediction predict_type2(
      const LaunchPlan& plan) const {
    ConsolidationPrediction pred;
    pred.type = ConsolidationType::kType2;
    const double clock = dev_.shader_clock.hertz();

    // ---- replay the block scheduler (compute side + critical SM) ----
    // Mirror the GigaThread dispatch the paper describes: the combined grid is
    // distributed round-robin in template order, with blocks CO-RESIDING on an
    // SM while registers / shared memory / threads allow. Blocks that do not
    // fit anywhere are the "untouched" blocks the scheduler later redistributes
    // to whichever SM frees first — statically approximated by assigning them
    // to the SM with the lightest solo-time load (lowest index on a tie).
    struct SmLoad {
      double comp_cycles = 0.0;
      double stall_seconds = 0.0;  ///< serialized barrier-stall floor
      int threads = 0;
      int nblocks = 0;
      std::int64_t regs = 0;
      std::int64_t smem = 0;
    };
    /// A block's residency demand; nblocks (always one) is left implicit.
    struct Footprint {
      int threads = 0;
      std::int64_t regs = 0;
      std::int64_t smem = 0;
      bool covers(const Footprint& o) const {
        return threads >= o.threads && regs >= o.regs && smem >= o.smem;
      }
    };
    const auto num_sms = static_cast<std::size_t>(dev_.num_sms);
    std::vector<SmLoad> sms(num_sms);
    auto fits = [&](const SmLoad& sm, const Footprint& f) {
      return sm.nblocks + 1 <= dev_.max_blocks_per_sm &&
             sm.threads + f.threads <= dev_.max_threads_per_sm &&
             sm.regs + f.regs <= dev_.registers_per_sm &&
             sm.smem + f.smem <= dev_.shared_mem_per_sm;
    };

    // Tournament (winner) tree over the SMs' solo-time loads: leaf s is SM s,
    // and each inner node holds the lighter of its two children, the lower
    // index on a tie (a left subtree always holds the lower indices). The root
    // is the SM std::min_element over the loads would pick, and a load change
    // replays the SM's log2(SMs) matches, branch-free. Padding leaves weigh
    // +inf and never win.
    std::size_t leaves = 1;
    while (leaves < num_sms) leaves *= 2;
    std::vector<double> load(leaves, std::numeric_limits<double>::infinity());
    std::fill_n(load.begin(), num_sms, 0.0);
    std::vector<std::uint32_t> winner(2 * leaves);
    auto match = [&](std::size_t node) {
      const std::uint32_t l = winner[2 * node];
      const std::uint32_t r = winner[2 * node + 1];
      winner[node] = load[r] < load[l] ? r : l;
    };
    for (std::size_t s = 0; s < leaves; ++s) {
      winner[leaves + s] = static_cast<std::uint32_t>(s);
    }
    for (std::size_t node = leaves - 1; node > 0; --node) match(node);

    // Residency only grows during the replay, so a footprint that fit no SM
    // never fits later, and neither does any footprint covering it.
    std::vector<Footprint> failed;
    std::vector<int> block_sm;  ///< assigned SM per block, in grid order
    block_sm.reserve(static_cast<std::size_t>(std::max(plan.total_blocks(), 0)));
    int rr = 0;
    for (const auto& inst : plan.instances) {
      const auto& k = inst.desc;
      const double solo = analytic_.solo_block_time(k).seconds();
      const double warps = k.warps_per_block(dev_);
      const double comp = k.warp_compute_cycles(dev_) * warps;
      // Co-resident blocks stall concurrently; only serialized waves add.
      const double stall = k.warp_stall_cycles(dev_) /
                           (clock * max_resident_blocks(dev_, k));
      const Footprint fp{
          k.threads_per_block,
          static_cast<std::int64_t>(k.resources.registers_per_thread) *
              k.threads_per_block,
          k.resources.shared_mem_per_block};
      bool may_fit = std::none_of(
          failed.begin(), failed.end(),
          [&](const Footprint& f) { return fp.covers(f); });
      for (int b = 0; b < k.num_blocks; ++b) {
        int chosen = -1;
        for (int probe = 0; may_fit && probe < dev_.num_sms; ++probe) {
          const int s = (rr + probe) % dev_.num_sms;
          if (fits(sms[static_cast<std::size_t>(s)], fp)) {
            chosen = s;
            break;
          }
        }
        if (chosen >= 0) {
          SmLoad& sm = sms[static_cast<std::size_t>(chosen)];
          sm.threads += fp.threads;
          sm.nblocks += 1;
          sm.regs += fp.regs;
          sm.smem += fp.smem;
          rr = (chosen + 1) % dev_.num_sms;
        } else {
          if (may_fit) failed.push_back(fp);
          may_fit = false;
          chosen = static_cast<int>(winner[1]);
        }
        const auto c = static_cast<std::size_t>(chosen);
        load[c] += solo;
        sms[c].comp_cycles += comp;
        sms[c].stall_seconds += stall;
        for (std::size_t node = (leaves + c) / 2; node > 0; node /= 2) {
          match(node);
        }
        block_sm.push_back(chosen);
      }
    }

    double comp_worst = 0.0;
    double load_worst = 0.0;
    int critical = 0;
    for (std::size_t s = 0; s < sms.size(); ++s) {
      comp_worst = std::max(
          comp_worst, std::max(sms[s].comp_cycles / clock, sms[s].stall_seconds));
      if (load[s] > load_worst) {
        load_worst = load[s];
        critical = static_cast<int>(s);
      }
    }
    std::size_t block = 0;
    for (std::size_t i = 0; i < plan.instances.size(); ++i) {
      for (int b = 0; b < plan.instances[i].desc.num_blocks; ++b) {
        if (block_sm[block++] == critical) {
          pred.critical_sm_blocks.push_back(static_cast<int>(i));
        }
      }
    }

    // ---- memory side: phased device-level bandwidth sharing ----
    const auto finish =
        phased_memory_finish(dev_, plan_demands(dev_, plan, false));
    const double mem_worst =
        finish.empty() ? 0.0 : *std::max_element(finish.begin(), finish.end());

    // The merged "big workload" on the critical SM finishes when both its
    // compute serialization and the device's memory drain are done.
    const double worst = std::max(comp_worst, mem_worst);

    pred.kernel_time = Duration::from_seconds(worst);
    pred.critical_sm = critical;
    pred.h2d_time = transfer_h2d(plan);
    pred.d2h_time = transfer_d2h(plan);
    pred.total_time = pred.h2d_time + pred.kernel_time + pred.d2h_time;
    pred.execution_cycles = worst * clock;
    return pred;
  }

 private:
  Duration transfer_h2d(const LaunchPlan& plan) const {
    std::set<std::string> constants_seen;
    Duration t = Duration::zero();
    for (const auto& inst : plan.instances) {
      double bytes = inst.desc.h2d_bytes.bytes();
      double cbytes = inst.desc.resources.constant_data.bytes();
      if (cbytes > 0.0) {
        if (!plan.reuse_constant_data ||
            constants_seen.insert(inst.desc.name).second) {
          bytes += cbytes;
        }
      }
      t += analytic_.h2d_time(common::Bytes::from_bytes(bytes));
    }
    return t;
  }

  Duration transfer_d2h(const LaunchPlan& plan) const {
    Duration t = Duration::zero();
    for (const auto& inst : plan.instances) {
      t += analytic_.d2h_time(inst.desc.d2h_bytes);
    }
    return t;
  }

  DeviceConfig dev_;
  AnalyticModel analytic_;
};

}  // namespace tree_reference

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The round placement's type-2 prediction equals the tree replay's in
/// every field it sets, doubles by IEEE-754 bit pattern.
::testing::AssertionResult same_as_tree_replay(const gpusim::DeviceConfig& dev,
                                               const LaunchPlan& plan) {
  const ConsolidationModel model(dev);
  if (model.classify(plan) != ConsolidationType::kType2) {
    return ::testing::AssertionFailure() << "plan is not type 2";
  }
  const auto got = model.predict(plan);
  const auto want = tree_reference::Model(dev).predict_type2(plan);
  if (got.critical_sm != want.critical_sm) {
    return ::testing::AssertionFailure()
           << "critical_sm " << got.critical_sm << " vs " << want.critical_sm;
  }
  if (got.critical_sm_blocks != want.critical_sm_blocks) {
    return ::testing::AssertionFailure()
           << "critical_sm_blocks differ (" << got.critical_sm_blocks.size()
           << " vs " << want.critical_sm_blocks.size() << " blocks)";
  }
  const std::pair<double, double> fields[] = {
      {got.kernel_time.seconds(), want.kernel_time.seconds()},
      {got.h2d_time.seconds(), want.h2d_time.seconds()},
      {got.d2h_time.seconds(), want.d2h_time.seconds()},
      {got.total_time.seconds(), want.total_time.seconds()},
      {got.execution_cycles, want.execution_cycles}};
  for (const auto& [g, w] : fields) {
    if (bits(g) != bits(w)) {
      return ::testing::AssertionFailure()
             << std::hexfloat << g << " vs " << w << " (kernel_time "
             << got.kernel_time.seconds() << " vs "
             << want.kernel_time.seconds() << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

gpusim::DeviceConfig device_with_sms(int num_sms) {
  auto dev = gpusim::tesla_c1060();
  dev.num_sms = num_sms;
  return dev;
}

/// A kernel whose blocks fit no SM: all of them are overflow blocks.
KernelDesc never_resident(const char* name, int blocks, double fp) {
  KernelDesc k = kernel(name, blocks, fp, 0.0);
  k.resources.shared_mem_per_block = 32 * 1024;  // > the C1060's 16 KiB
  return k;
}

/// Draws a kernel for the seeded plans: shapes from tiny to residency-bound,
/// mixes with zero and nonzero parts, names from a small pool so the
/// distinct-name counting sees repeats.
KernelDesc random_kernel(common::Rng& rng) {
  static const char* const kNames[] = {"ka", "kb", "kc", "kd"};
  const auto maybe = [&](double hi) {
    return rng.uniform() < 0.25 ? 0.0 : rng.uniform(0.0, hi);
  };
  KernelDesc k;
  k.name = kNames[rng.pick_index(4)];
  k.num_blocks = static_cast<int>(rng.uniform() < 0.5 ? rng.uniform_int(0, 40)
                                                      : rng.uniform_int(0, 600));
  k.threads_per_block = 32 * static_cast<int>(rng.uniform_int(1, 16));
  k.resources.registers_per_thread = static_cast<int>(rng.uniform_int(4, 40));
  if (rng.uniform() < 0.4) {
    k.resources.shared_mem_per_block = rng.uniform_int(0, 20 * 1024);
  }
  k.mix.fp_insts = maybe(2.0e5);
  k.mix.int_insts = maybe(5.0e4);
  k.mix.sfu_insts = maybe(1.0e4);
  k.mix.sync_insts = maybe(200.0);
  k.mix.coalesced_mem_insts = maybe(2.0e4);
  k.mix.uncoalesced_mem_insts = maybe(800.0);
  if (rng.uniform() < 0.3) k.mlp = rng.uniform(0.5, 8.0);
  if (rng.uniform() < 0.3) {
    k.resources.constant_data = common::Bytes::from_kib(rng.uniform(1.0, 64.0));
  }
  k.h2d_bytes = common::Bytes::from_kib(maybe(4096.0));
  k.d2h_bytes = common::Bytes::from_kib(maybe(4096.0));
  return k;
}

TEST(Type2Placement, MatchesTreeReplayOnSeededPlans) {
  // Batches repeat a few shapes, as the daemon's do, so each plan draws 1-4
  // kernels and fills 1-12 positions from them.
  const int sm_counts[] = {1, 2, 7, 16, 30, 30, 30, 64};
  common::Rng rng(0x7a3e2ull);
  int compared = 0;
  for (int attempt = 0; compared < 10000; ++attempt) {
    ASSERT_LT(attempt, 40000) << "too few type-2 draws";
    auto dev = device_with_sms(sm_counts[rng.pick_index(8)]);
    dev.max_blocks_per_sm = static_cast<int>(rng.uniform_int(1, 8));
    std::vector<KernelDesc> shapes;
    const auto n_shapes = rng.uniform_int(1, 4);
    for (int s = 0; s < n_shapes; ++s) shapes.push_back(random_kernel(rng));
    LaunchPlan plan;
    plan.reuse_constant_data = rng.uniform() < 0.5;
    const auto n = rng.uniform_int(1, 12);
    for (int i = 0; i < n; ++i) {
      plan.instances.push_back(
          KernelInstance{shapes[rng.pick_index(shapes.size())], i, ""});
    }
    if (plan.total_blocks() <= dev.num_sms) continue;
    ASSERT_TRUE(same_as_tree_replay(dev, plan))
        << "plan " << compared << " (" << plan.instances.size()
        << " instances, " << plan.total_blocks() << " blocks, " << dev.num_sms
        << " SMs)";
    ++compared;
  }
}

TEST(Type2Placement, ZeroWorkBlocks) {
  // w = 0: the blocks add nothing, so the lightest SM takes every one.
  ConsolidationModel model;
  const KernelDesc idle = kernel("idle", 500, 0.0, 0.0);
  ASSERT_EQ(model.analytic().solo_block_time(idle).seconds(), 0.0);
  const auto dev = gpusim::tesla_c1060();
  EXPECT_TRUE(same_as_tree_replay(dev, plan_of({idle})));
  EXPECT_TRUE(same_as_tree_replay(
      dev, plan_of({kernel("busy", 300, 2.0e5, 1.0e3), idle,
                    kernel("busy", 77, 2.0e5, 1.0e3)})));
  EXPECT_TRUE(same_as_tree_replay(
      dev, plan_of({never_resident("a", 45, 1.0e5), idle})));
}

TEST(Type2Placement, InfiniteWorkBlocks) {
  // w = +inf: a per-thread count near DBL_MAX overflows the block's cycles.
  ConsolidationModel model;
  KernelDesc huge = kernel("huge", 40, std::numeric_limits<double>::max(), 0.0);
  ASSERT_TRUE(std::isinf(model.analytic().solo_block_time(huge).seconds()));
  const auto dev = gpusim::tesla_c1060();
  EXPECT_TRUE(same_as_tree_replay(dev, plan_of({huge})));
  EXPECT_TRUE(same_as_tree_replay(
      dev, plan_of({kernel("a", 250, 1.0e5, 1.0e3), huge,
                    kernel("b", 400, 3.0e4, 0.0)})));
  KernelDesc huge_nr = never_resident("huge", 70, 0.0);
  huge_nr.mix.fp_insts = std::numeric_limits<double>::max();
  EXPECT_TRUE(same_as_tree_replay(
      dev, plan_of({never_resident("a", 10, 1.0e5), huge_nr,
                    never_resident("b", 100, 2.0e3)})));
}

TEST(Type2Placement, AllMaxFieldsIsInfiniteNotNan) {
  // Every count at DBL_MAX: bytes and transactions both overflow, so the
  // average transaction size reads inf / inf = NaN, yet the block weight
  // stays +inf (see the note above tree_reference).
  ConsolidationModel model;
  KernelDesc k = kernel("max", 60, 0.0, 0.0);
  auto& m = k.mix;
  m.fp_insts = m.int_insts = m.sfu_insts = m.sync_insts =
      m.coalesced_mem_insts = m.uncoalesced_mem_insts =
          std::numeric_limits<double>::max();
  const double w = model.analytic().solo_block_time(k).seconds();
  EXPECT_FALSE(std::isnan(w));
  EXPECT_TRUE(std::isinf(w));
  EXPECT_TRUE(same_as_tree_replay(gpusim::tesla_c1060(),
                                  plan_of({kernel("a", 100, 1.0e5, 0.0), k})));
}

TEST(Type2Placement, EqualLoadsGoToTheLowestIndex) {
  // Nine equal overflow blocks on four idle SMs: two full rounds, then the
  // ninth block breaks a four-way tie, which SM 0 must win.
  const auto dev = device_with_sms(4);
  const auto plan = plan_of({never_resident("eq", 9, 1.0e5)});
  const auto pred = ConsolidationModel(dev).predict(plan);
  EXPECT_EQ(pred.critical_sm, 0);
  EXPECT_EQ(pred.critical_sm_blocks, std::vector<int>(3, 0));
  EXPECT_TRUE(same_as_tree_replay(dev, plan));
  // Resident blocks leave every SM at the same load too.
  EXPECT_TRUE(same_as_tree_replay(
      gpusim::tesla_c1060(),
      plan_of({kernel("r", 240, 1.0e5, 0.0), kernel("r", 241, 1.0e5, 0.0)})));
}

TEST(Type2Placement, OneSmAndNonPowerOfTwoSmCounts) {
  for (int sms : {1, 3, 7, 13, 30, 31}) {
    const auto plan =
        plan_of({kernel("a", 50, 1.0e5, 1.0e3), never_resident("b", 37, 3.0e4),
                 kernel("c", 91, 5.0e3, 2.0e4)});
    EXPECT_TRUE(same_as_tree_replay(device_with_sms(sms), plan))
        << sms << " SMs";
  }
}

TEST(Type2Placement, HugeGrid) {
  EXPECT_TRUE(same_as_tree_replay(
      gpusim::tesla_c1060(),
      plan_of({kernel("a", 120000, 1.0e4, 1.0e2), kernel("b", 3, 1.0e5, 0.0),
               never_resident("c", 50000, 2.5e3)})));
}

TEST(Type2Placement, SmallWeightAfterLargeWeight) {
  // 45 heavy blocks leave 15 SMs a full block heavier than the other 15;
  // the light kernel's rounds then each hold a single SM until it catches up.
  EXPECT_TRUE(same_as_tree_replay(
      gpusim::tesla_c1060(),
      plan_of({never_resident("heavy", 45, 1.0e6),
               never_resident("light", 2000, 1.0e2),
               never_resident("heavy", 7, 1.0e6)})));
}

TEST(Type2Placement, SmallerFootprintFitsAfterLargerFailed) {
  // "wide" fills every SM's shared memory with one block, so its overflow
  // starts at block 31; "slim" still fits beside it (seven more blocks per
  // SM), and its resident placements interleave with overflow rounds.
  KernelDesc wide = kernel("wide", 60, 2.0e5, 1.0e3);
  wide.threads_per_block = 512;
  wide.resources.shared_mem_per_block = 16 * 1024;
  KernelDesc slim = kernel("slim", 100, 1.0e4, 1.0e2);
  slim.threads_per_block = 64;
  slim.resources.registers_per_thread = 8;
  KernelDesc slim_more = slim;
  slim_more.num_blocks = 150;
  EXPECT_TRUE(same_as_tree_replay(gpusim::tesla_c1060(),
                                  plan_of({wide, slim, wide, slim_more, slim})));
}

}  // namespace
}  // namespace ewc::perf

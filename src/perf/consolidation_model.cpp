#include "perf/consolidation_model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace ewc::perf {

namespace {

/// One kernel's aggregate DRAM demand for the phased-sharing analysis.
struct MemDemand {
  const std::string* kernel = nullptr;  ///< name, owned by the plan
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
  std::vector<const std::string*> names;
  std::vector<std::size_t> still;
  while (!active.empty()) {
    double total_cap = 0.0;
    double eff_weighted = 0.0;
    names.clear();
    for (std::size_t i : active) {
      total_cap += demands[i].cap_rate;
      eff_weighted += demands[i].cap_rate * demands[i].eff;
      gpusim::insert_distinct_name(names, *demands[i].kernel);
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
    still.clear();
    for (std::size_t i : active) {
      demands[i].bytes -= demands[i].cap_rate * scale * dt;
      if (demands[i].bytes <= 1e-6) {
        finish[i] = t;
      } else {
        still.push_back(i);
      }
    }
    active.swap(still);
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
    demands[i].kernel = &k.name;
    demands[i].bytes =
        k.warp_mem_bytes(dev) * warps * static_cast<double>(k.num_blocks);
    demands[i].cap_rate =
        per_warp_memory_cap(dev, k) * warps * static_cast<double>(resident);
    demands[i].eff = k.dram_efficiency(dev);
  }
  return demands;
}

}  // namespace

ConsolidationModel::ConsolidationModel(gpusim::DeviceConfig dev)
    : dev_(dev), analytic_(dev) {}

ConsolidationType ConsolidationModel::classify(const LaunchPlan& plan) const {
  return plan.total_blocks() <= dev_.num_sms ? ConsolidationType::kType1
                                             : ConsolidationType::kType2;
}

Duration ConsolidationModel::transfer_h2d(const LaunchPlan& plan) const {
  std::vector<const std::string*> constants_seen;
  Duration t = Duration::zero();
  for (const auto& inst : plan.instances) {
    double bytes = inst.desc.h2d_bytes.bytes();
    double cbytes = inst.desc.resources.constant_data.bytes();
    if (cbytes > 0.0) {
      if (!plan.reuse_constant_data ||
          gpusim::insert_distinct_name(constants_seen, inst.desc.name)) {
        bytes += cbytes;
      }
    }
    t += analytic_.h2d_time(common::Bytes::from_bytes(bytes));
  }
  return t;
}

Duration ConsolidationModel::transfer_d2h(const LaunchPlan& plan) const {
  Duration t = Duration::zero();
  for (const auto& inst : plan.instances) {
    t += analytic_.d2h_time(inst.desc.d2h_bytes);
  }
  return t;
}

ConsolidationPrediction ConsolidationModel::predict(const LaunchPlan& plan) const {
  if (plan.instances.empty()) {
    throw std::invalid_argument("ConsolidationModel: empty plan");
  }
  return classify(plan) == ConsolidationType::kType1 ? predict_type1(plan)
                                                     : predict_type2(plan);
}

ConsolidationPrediction ConsolidationModel::predict_type1(
    const LaunchPlan& plan) const {
  ConsolidationPrediction pred;
  pred.type = ConsolidationType::kType1;
  const double clock = dev_.shader_clock.hertz();

  const auto finish =
      phased_memory_finish(dev_, plan_demands(dev_, plan, true));

  Duration longest = Duration::zero();
  for (std::size_t i = 0; i < plan.instances.size(); ++i) {
    const auto& k = plan.instances[i].desc;
    Duration t = Duration::zero();
    if (k.num_blocks > 0) {
      // One block per SM: the block's warps own the SM's issue bandwidth.
      const double warps = k.warps_per_block(dev_);
      const double comp_s = k.warp_compute_cycles(dev_) * warps / clock;
      const double stall_s = k.warp_stall_cycles(dev_) / clock;
      t = Duration::from_seconds(std::max({comp_s, stall_s, finish[i]}));
    }
    pred.per_instance.push_back(
        InstancePrediction{plan.instances[i].instance_id, k.name, t});
    longest = std::max(longest, t);
  }

  pred.kernel_time = longest;
  pred.h2d_time = transfer_h2d(plan);
  pred.d2h_time = transfer_d2h(plan);
  pred.total_time = pred.h2d_time + pred.kernel_time + pred.d2h_time;
  pred.execution_cycles = pred.kernel_time.seconds() * clock;
  return pred;
}

ConsolidationPrediction ConsolidationModel::predict_type2(
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

  // Overflow blocks go to the SM with the lightest solo-time load, the lower
  // index on a tie. `order` keeps the SMs sorted by (load, index), so its
  // head is that SM. Every overflow block of one instance weighs the same
  // `solo`: with next = fl(load[order[0]] + solo), each of the r SMs lighter
  // than `next` stays strictly lighter than every SM placed before it (their
  // loads only rise to `next` or above), so the next r picks are exactly
  // order[0..r) in turn. A round places them in one pass, in the same order
  // the one-at-a-time argmin would, so every SM sees the same sequence of
  // adds; then only the r grown SMs are merged back into the sorted tail.
  std::vector<double> load(num_sms, 0.0);
  const auto lighter = [&](std::uint32_t a, std::uint32_t b) {
    return load[a] < load[b] || (load[a] == load[b] && a < b);
  };
  std::vector<std::uint32_t> order(num_sms);
  for (std::size_t s = 0; s < num_sms; ++s) {
    order[s] = static_cast<std::uint32_t>(s);
  }
  std::vector<std::uint32_t> grown(num_sms);
  // order[0..m) holds SMs whose loads grew, order[m..) is still sorted:
  // restore the sort over all of it.
  const auto resettle = [&](std::size_t m) {
    if (m == 0) return;
    // A round's SMs grow in load order already: ~one comparison each.
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint32_t s = order[i];
      std::size_t j = i;
      for (; j > 0 && lighter(s, grown[j - 1]); --j) grown[j] = grown[j - 1];
      grown[j] = s;
    }
    // Untouched SMs lighter than every grown one slide to the front as a
    // block; the rest merge until the grown run is placed.
    auto tail = std::partition_point(
        order.begin() + static_cast<std::ptrdiff_t>(m), order.end(),
        [&](std::uint32_t s) { return lighter(s, grown[0]); });
    auto out = std::copy(order.begin() + static_cast<std::ptrdiff_t>(m),
                         tail, order.begin());
    for (std::size_t i = 0; i < m;) {
      if (tail != order.end() && lighter(*tail, grown[i])) {
        *out++ = *tail++;
      } else {
        *out++ = grown[i++];
      }
    }
  };
  // Resident placements land round-robin, anywhere in `order`; they are
  // merged back in once, before the next overflow block needs the head.
  std::vector<std::uint32_t> unsorted;
  std::vector<char> is_unsorted(num_sms, 0);
  const auto sync_order = [&] {
    if (unsorted.empty()) return;
    std::size_t back = num_sms;
    for (std::size_t j = num_sms; j-- > 0;) {
      if (!is_unsorted[order[j]]) order[--back] = order[j];
    }
    std::copy(unsorted.begin(), unsorted.end(), order.begin());
    for (std::uint32_t s : unsorted) is_unsorted[s] = 0;
    resettle(unsorted.size());
    unsorted.clear();
  };

  // Residency only grows during the replay, so a footprint that fit no SM
  // never fits later, and neither does any footprint covering it.
  std::vector<Footprint> failed;
  /// Blocks per (instance, SM), for the critical SM's block list.
  std::vector<int> blocks_on(plan.instances.size() * num_sms, 0);
  int rr = 0;
  for (std::size_t i = 0; i < plan.instances.size(); ++i) {
    const auto& k = plan.instances[i].desc;
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
    int* on = blocks_on.data() + i * num_sms;
    const auto place = [&](std::size_t s) {
      load[s] += solo;
      sms[s].comp_cycles += comp;
      sms[s].stall_seconds += stall;
      on[s] += 1;
    };

    const bool may_fit = std::none_of(
        failed.begin(), failed.end(),
        [&](const Footprint& f) { return fp.covers(f); });
    int b = 0;
    for (; may_fit && b < k.num_blocks; ++b) {
      int chosen = -1;
      for (int probe = 0; probe < dev_.num_sms; ++probe) {
        const int s = (rr + probe) % dev_.num_sms;
        if (fits(sms[static_cast<std::size_t>(s)], fp)) {
          chosen = s;
          break;
        }
      }
      if (chosen < 0) {
        failed.push_back(fp);
        break;
      }
      const auto c = static_cast<std::size_t>(chosen);
      SmLoad& sm = sms[c];
      sm.threads += fp.threads;
      sm.nblocks += 1;
      sm.regs += fp.regs;
      sm.smem += fp.smem;
      rr = (chosen + 1) % dev_.num_sms;
      place(c);
      if (!is_unsorted[c]) {
        is_unsorted[c] = 1;
        unsorted.push_back(static_cast<std::uint32_t>(c));
      }
    }

    auto left = static_cast<std::size_t>(k.num_blocks - b);
    if (left > 0) sync_order();
    while (left > 0) {
      const double next = load[order[0]] + solo;
      const std::size_t cap = std::min(left, num_sms);
      std::size_t r = 0;
      bool run_sorted = true;
      for (; r < cap; ++r) {
        const std::uint32_t s = order[r];
        if (!(load[s] < next)) break;
        place(s);
        // Rounding is monotone, so the run can only fall out of order
        // where two grown loads round to the same value.
        if (r > 0 && s < order[r - 1] && load[s] == load[order[r - 1]]) {
          run_sorted = false;
        }
      }
      if (r == 0) {
        // `solo` does not move the lightest load (zero-work blocks, or a
        // weight below its ulp): it stays the head for every block left.
        for (; left > 0; --left) place(order[0]);
        break;
      }
      left -= r;
      // Usually the grown run is still lighter than the untouched tail.
      if (!run_sorted || (r < num_sms && !lighter(order[r - 1], order[r]))) {
        resettle(r);
      }
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
  for (std::size_t i = 0; i < plan.instances.size(); ++i) {
    pred.critical_sm_blocks.insert(
        pred.critical_sm_blocks.end(),
        static_cast<std::size_t>(
            blocks_on[i * num_sms + static_cast<std::size_t>(critical)]),
        static_cast<int>(i));
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

Duration ConsolidationModel::predict_serial(
    const std::vector<gpusim::KernelInstance>& instances) const {
  Duration total = Duration::zero();
  for (const auto& inst : instances) {
    total += analytic_.predict(inst.desc).total_time;
  }
  return total;
}

}  // namespace ewc::perf

#include "gpusim/kernel_desc.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace ewc::gpusim {

InstructionMix InstructionMix::scaled(double factor) const {
  InstructionMix m = *this;
  m.fp_insts *= factor;
  m.int_insts *= factor;
  m.sfu_insts *= factor;
  m.sync_insts *= factor;
  m.coalesced_mem_insts *= factor;
  m.uncoalesced_mem_insts *= factor;
  m.shared_accesses *= factor;
  m.const_accesses *= factor;
  return m;
}

bool bit_identical(const KernelDesc& a, const KernelDesc& b) {
  const auto same = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  const InstructionMix& m = a.mix;
  const InstructionMix& n = b.mix;
  return a.num_blocks == b.num_blocks &&
         a.threads_per_block == b.threads_per_block &&
         same(m.fp_insts, n.fp_insts) && same(m.int_insts, n.int_insts) &&
         same(m.sfu_insts, n.sfu_insts) && same(m.sync_insts, n.sync_insts) &&
         same(m.coalesced_mem_insts, n.coalesced_mem_insts) &&
         same(m.uncoalesced_mem_insts, n.uncoalesced_mem_insts) &&
         same(m.shared_accesses, n.shared_accesses) &&
         same(m.const_accesses, n.const_accesses) &&
         a.resources.registers_per_thread == b.resources.registers_per_thread &&
         a.resources.shared_mem_per_block == b.resources.shared_mem_per_block &&
         same(a.resources.constant_data.bytes(),
              b.resources.constant_data.bytes()) &&
         same(a.mlp, b.mlp) && same(a.h2d_bytes.bytes(), b.h2d_bytes.bytes()) &&
         same(a.d2h_bytes.bytes(), b.d2h_bytes.bytes()) && a.name == b.name;
}

double KernelDesc::avg_tx_bytes(const DeviceConfig& dev) const {
  double txs = warp_mem_transactions(dev);
  if (txs <= 0.0) return dev.coalesced_tx_bytes;
  return warp_mem_bytes(dev) / txs;
}

double KernelDesc::coalesced_fraction() const {
  double total = mix.mem_insts();
  if (total <= 0.0) return 1.0;
  return mix.coalesced_mem_insts / total;
}

double KernelDesc::dram_efficiency(const DeviceConfig& dev) const {
  double f = coalesced_fraction();
  return dev.uncoalesced_dram_efficiency +
         f * (1.0 - dev.uncoalesced_dram_efficiency);
}

double KernelDesc::effective_mem_latency_cycles(const DeviceConfig& dev) const {
  double f = coalesced_fraction();
  double departure = f * dev.coalesced_departure_cycles +
                     (1.0 - f) * dev.uncoalesced_departure_cycles *
                         static_cast<double>(dev.warp_size) /
                         4.0;  // diverging warp issues warp_size/4 groups
  return dev.dram_latency_cycles + departure;
}

bool KernelDesc::block_fits_empty_sm(const DeviceConfig& dev) const {
  if (threads_per_block > dev.max_threads_per_sm) return false;
  if (warps_per_block(dev) > dev.max_warps_per_sm) return false;
  std::int64_t regs = static_cast<std::int64_t>(resources.registers_per_thread) *
                      threads_per_block;
  if (regs > dev.registers_per_sm) return false;
  if (resources.shared_mem_per_block > dev.shared_mem_per_sm) return false;
  return true;
}

KernelDesc KernelDesc::with_work_scale(double factor) const {
  KernelDesc k = *this;
  k.mix = mix.scaled(factor);
  return k;
}

int LaunchPlan::total_blocks() const {
  int n = 0;
  for (const auto& inst : instances) n += inst.desc.num_blocks;
  return n;
}

}  // namespace ewc::gpusim

#include "gpusim/sim_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <type_traits>

namespace ewc::gpusim {

std::uint64_t key_hash(std::string_view s) {
  // Four independent multiply-xor lanes over 8-byte words, so consecutive
  // words do not wait on each other's multiply.
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
  const auto mix = [](std::uint64_t h, std::uint64_t w) {
    h = (h ^ w) * kMul;
    return h ^ (h >> 32);
  };
  const auto load = [&](std::size_t at, std::size_t n) {
    std::uint64_t w = 0;
    std::memcpy(&w, s.data() + at, n);
    return w;
  };
  std::uint64_t lane[4] = {0xcbf29ce484222325ull ^ (s.size() * kMul),
                           0x84222325cbf29ce4ull, 0x243f6a8885a308d3ull,
                           0x13198a2e03707344ull};
  std::size_t i = 0;
  for (; i + 32 <= s.size(); i += 32) {
    for (std::size_t j = 0; j < 4; ++j) {
      lane[j] = mix(lane[j], load(i + 8 * j, 8));
    }
  }
  // Under 32 bytes remain: at most one more word per lane.
  for (std::size_t j = 0; i < s.size(); i += 8, ++j) {
    lane[j] = mix(lane[j], load(i, std::min<std::size_t>(8, s.size() - i)));
  }
  std::uint64_t h = mix(mix(mix(lane[0], lane[1]), lane[2]), lane[3]);
  // Final avalanche (MurmurHash3's fmix64): every input bit reaches the low
  // bits the hash table's bucket index is taken from.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

namespace {

template <typename T>
std::uint64_t word(T v) {
  if constexpr (std::is_floating_point_v<T>) {
    return std::bit_cast<std::uint64_t>(static_cast<double>(v));
  } else {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
  }
}

/// Appends each field as its raw 8 bytes: integers widened to 64 bits,
/// doubles as their IEEE-754 pattern, which distinguishes every value
/// (negative zero, subnormals, NaN payloads). Fixed width, so fields need no
/// separators, and one append per call keeps the per-lookup rebuild cheap.
template <typename... T>
void put(std::string& key, T... v) {
  const std::uint64_t words[] = {word(v)...};
  key.append(reinterpret_cast<const char*>(words), sizeof words);
}

void append_device_config(std::string& key, const DeviceConfig& dev) {
  put(key, dev.num_sms, dev.sps_per_sm, dev.warp_size,
      dev.shader_clock.hertz(), dev.max_blocks_per_sm, dev.max_threads_per_sm,
      dev.max_warps_per_sm, dev.registers_per_sm, dev.shared_mem_per_sm,
      dev.dram_bandwidth.bytes_per_second(), dev.dram_latency_cycles,
      dev.coalesced_departure_cycles, dev.uncoalesced_departure_cycles,
      dev.coalesced_tx_bytes, dev.uncoalesced_tx_bytes,
      dev.memory_level_parallelism, dev.uncoalesced_dram_efficiency,
      dev.mixing_penalty_per_kernel, dev.min_mixing_efficiency,
      dev.pcie_h2d.bytes_per_second(), dev.pcie_d2h.bytes_per_second(),
      dev.transfer_latency.seconds(), dev.cycles_per_alu_warp_inst,
      dev.cycles_per_sfu_warp_inst, dev.barrier_cost_cycles,
      dev.dispatch_policy, dev.dispatch_seed);
}

void append_energy_config(std::string& key, const EnergyConfig& energy) {
  put(key, energy.system_idle_with_gpu.watts(), energy.host_only_idle.watts(),
      energy.transfer_active_power.watts(), energy.fp_energy,
      energy.int_energy, energy.sfu_energy, energy.coalesced_tx_energy,
      energy.uncoalesced_tx_energy, energy.shared_access_energy,
      energy.const_access_energy, energy.register_access_energy,
      energy.thermal_tau_seconds, energy.thermal_k_ss,
      energy.leakage_w_per_kelvin);
}

void append_kernel(std::string& key, const KernelDesc& k) {
  // The name goes last, length-prefixed: it may hold any byte.
  put(key, k.name.size(), k.num_blocks, k.threads_per_block, k.mix.fp_insts,
      k.mix.int_insts, k.mix.sfu_insts, k.mix.sync_insts,
      k.mix.coalesced_mem_insts, k.mix.uncoalesced_mem_insts,
      k.mix.shared_accesses, k.mix.const_accesses,
      k.resources.registers_per_thread, k.resources.shared_mem_per_block,
      k.resources.constant_data.bytes(), k.mlp, k.h2d_bytes.bytes(),
      k.d2h_bytes.bytes());
  key += k.name;
}

}  // namespace

std::uint64_t device_config_hash(const DeviceConfig& dev) {
  std::string key;
  key.reserve(512);
  append_device_config(key, dev);
  return key_hash(key);
}

std::uint64_t energy_config_hash(const EnergyConfig& energy) {
  std::string key;
  key.reserve(256);
  append_energy_config(key, energy);
  return key_hash(key);
}

std::string config_key_prefix(const DeviceConfig& dev,
                              const EnergyConfig* energy) {
  std::string prefix;
  prefix.reserve(768);
  append_device_config(prefix, dev);
  prefix += '|';
  put(prefix, energy != nullptr);
  if (energy != nullptr) append_energy_config(prefix, *energy);
  return prefix;
}

void append_plan_key(std::string& key, const LaunchPlan& plan,
                     std::string_view config_prefix, std::string_view tag,
                     bool include_instance_ids) {
  key.reserve(key.size() + 64 + config_prefix.size() +
              160 * plan.instances.size());
  key += tag;
  key += '|';
  key += config_prefix;
  key += '|';
  put(key, plan.reuse_constant_data);
  // A run of bit-identical kernels is encoded once, after its length (and
  // its instances' ids): batches repeat shapes, and maximal runs keep the
  // encoding canonical.
  const auto& insts = plan.instances;
  for (std::size_t i = 0; i < insts.size();) {
    std::size_t end = i + 1;
    while (end < insts.size() && bit_identical(insts[end].desc, insts[i].desc)) {
      ++end;
    }
    key += '|';
    put(key, end - i);
    if (include_instance_ids) {
      for (std::size_t j = i; j < end; ++j) put(key, insts[j].instance_id);
    }
    append_kernel(key, insts[i].desc);
    i = end;
  }
}

PlanSignature plan_signature_with_prefix(const LaunchPlan& plan,
                                         std::string_view config_prefix,
                                         std::string_view tag,
                                         bool include_instance_ids) {
  PlanSignature sig;
  append_plan_key(sig.key, plan, config_prefix, tag, include_instance_ids);
  sig.hash = key_hash(sig.key);
  return sig;
}

PlanSignature plan_signature(const LaunchPlan& plan, const DeviceConfig& dev,
                             const EnergyConfig* energy, std::string_view tag,
                             bool include_instance_ids) {
  return plan_signature_with_prefix(plan, config_key_prefix(dev, energy), tag,
                                    include_instance_ids);
}

}  // namespace ewc::gpusim

// Kernel descriptors: the contract between workloads and the simulator.
//
// A KernelDesc characterizes one GPU kernel the way the paper's models do
// (Section VII): grid/block shape, per-thread instruction mix (computation
// instructions, coalesced/uncoalesced memory instructions, synchronization
// instructions), per-block resource footprint, and host<->device transfer
// sizes. Workload modules derive these counts from their actual algorithms.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "gpusim/device_config.hpp"

namespace ewc::gpusim {

using common::Bytes;

/// Per-thread dynamic instruction mix for one kernel.
struct InstructionMix {
  double fp_insts = 0.0;           ///< FP32 arithmetic
  double int_insts = 0.0;          ///< integer / address arithmetic
  double sfu_insts = 0.0;          ///< transcendental (sin, exp, log, ...)
  double sync_insts = 0.0;         ///< __syncthreads()
  double coalesced_mem_insts = 0.0;    ///< warp-coalesced global accesses
  double uncoalesced_mem_insts = 0.0;  ///< fully-diverging global accesses
  double shared_accesses = 0.0;    ///< shared-memory accesses
  double const_accesses = 0.0;     ///< constant-cache accesses

  double compute_insts() const { return fp_insts + int_insts + sfu_insts; }
  double mem_insts() const { return coalesced_mem_insts + uncoalesced_mem_insts; }

  InstructionMix scaled(double factor) const;
};

/// Per-block resource footprint (drives SM residency).
struct ResourceUsage {
  int registers_per_thread = 16;
  std::int64_t shared_mem_per_block = 0;  ///< bytes
  Bytes constant_data = Bytes::zero();    ///< uploaded once per kernel
};

/// Complete description of one kernel launch.
struct KernelDesc {
  std::string name;
  int num_blocks = 1;
  int threads_per_block = 256;
  InstructionMix mix;       ///< per-thread counts for the whole kernel run
  ResourceUsage resources;
  /// Per-kernel memory-level parallelism override (outstanding requests per
  /// warp); 0 uses the device default. Low values model dependent-access
  /// chains (table lookups, pointer chasing) that cannot pipeline and leave
  /// the kernel latency-bound far below DRAM bandwidth.
  double mlp = 0.0;
  Bytes h2d_bytes = Bytes::zero();  ///< input transfer per instance
  Bytes d2h_bytes = Bytes::zero();  ///< output transfer per instance

  int warps_per_block(const DeviceConfig& dev) const {
    return (threads_per_block + dev.warp_size - 1) / dev.warp_size;
  }

  /// Issue-cycle demand of one warp (paper: computation instructions).
  double warp_compute_cycles(const DeviceConfig& dev) const {
    return dev.warp_compute_cycles(mix.fp_insts, mix.int_insts, mix.sfu_insts);
  }

  /// Barrier-stall demand of one warp: latency that elapses without
  /// consuming issue slots or DRAM bandwidth (synchronization instructions).
  double warp_stall_cycles(const DeviceConfig& dev) const {
    return dev.warp_stall_cycles(mix.sync_insts);
  }

  /// DRAM bytes one warp moves over the kernel's lifetime.
  double warp_mem_bytes(const DeviceConfig& dev) const {
    return mix.coalesced_mem_insts * dev.coalesced_tx_bytes +
           mix.uncoalesced_mem_insts * static_cast<double>(dev.warp_size) *
               dev.uncoalesced_tx_bytes;
  }

  /// DRAM transactions one warp issues.
  double warp_mem_transactions(const DeviceConfig& dev) const {
    return mix.coalesced_mem_insts +
           mix.uncoalesced_mem_insts * static_cast<double>(dev.warp_size);
  }

  /// Mean bytes per DRAM transaction (128 for coalesced, 32 for diverging).
  double avg_tx_bytes(const DeviceConfig& dev) const;

  /// Effective memory-level parallelism (override or device default).
  double effective_mlp(const DeviceConfig& dev) const {
    return mlp > 0.0 ? mlp : dev.memory_level_parallelism;
  }

  /// Fraction of memory instructions that coalesce (1.0 = fully coalesced).
  double coalesced_fraction() const;

  /// DRAM row-locality efficiency of this kernel's stream in isolation.
  double dram_efficiency(const DeviceConfig& dev) const;

  /// Effective memory latency including the departure-delay penalty for
  /// uncoalesced transactions (paper Section VII's architecture parameters).
  double effective_mem_latency_cycles(const DeviceConfig& dev) const;

  /// True if a single block of this kernel fits an empty SM.
  bool block_fits_empty_sm(const DeviceConfig& dev) const;

  /// Whether the kernel does any global-memory work at all.
  bool has_mem_work() const { return mix.mem_insts() > 0.0; }
  bool has_compute_work() const { return mix.compute_insts() > 0.0; }

  /// Uniformly scale the per-thread work (used by workload generators to
  /// express "iterations").
  KernelDesc with_work_scale(double factor) const;
};

/// True iff every field of `a` and `b` matches, doubles by IEEE-754 bit
/// pattern: the models then compute bit-identical results for either.
bool bit_identical(const KernelDesc& a, const KernelDesc& b);

/// Adds `name` to `seen` unless an equal name is already there, and returns
/// whether it was added (std::set::insert's `.second`). `seen` points into
/// the caller's descs; a batch holds a handful of distinct kernel names, so
/// a linear scan beats a tree of string copies.
inline bool insert_distinct_name(std::vector<const std::string*>& seen,
                                 const std::string& name) {
  for (const std::string* s : seen) {
    if (*s == name) return false;
  }
  seen.push_back(&name);
  return true;
}

/// One runnable instance of a kernel (a user request in the ready state).
struct KernelInstance {
  KernelDesc desc;
  int instance_id = 0;  ///< unique within a launch plan
  std::string owner;    ///< originating frontend/user, for reporting
};

/// A launch plan: the unit the engine executes. For a consolidated launch
/// the plan holds several instances whose blocks form one combined grid, in
/// plan order (this mirrors the paper's precompiled templates, which
/// concatenate each instance's blocks and dispatch them round-robin).
struct LaunchPlan {
  std::vector<KernelInstance> instances;
  /// If true, instance transfers that carry identical constant data are
  /// uploaded only once (the framework's data-reuse optimization).
  bool reuse_constant_data = false;

  int total_blocks() const;
};

}  // namespace ewc::gpusim

// In-process timings of single layers, for the traced run: each calls one
// module's public functions directly on the workload's own inputs (its mix
// and the batch plans its schedule forms), so no tracing lives under src/.
#pragma once

#include <string>
#include <vector>

#include "workloads/paper_configs.hpp"

namespace perfbench {

struct MixItem {
  std::string name;  ///< catalogue name, as `ewcsim serve --workload` takes
  int weight = 1;
  ewc::workloads::InstanceSpec spec;
};

/// One batch: the mix indices of `threshold` consecutive scheduled
/// requests, in arrival order.
using BatchPlan = std::vector<int>;

struct CodecNumbers {
  double launch_bytes = 0.0;      ///< frame header + payload, mix-weighted
  double completion_bytes = 0.0;  ///< frame header + payload
  double encode_launch_ns = 0.0;
  double decode_launch_ns = 0.0;
  double encode_completion_ns = 0.0;
  double decode_completion_ns = 0.0;
};
/// net + server/protocol_wire: encode/decode of the mix's launch frames and
/// of a completion.
CodecNumbers measure_codec(const std::vector<MixItem>& mix);

/// server/server + server/reactor with no batching: an in-process Server
/// over a threshold-1 Backend (ewcsim serve's recipe), one launch() at a
/// time from one ClientConnection, optionally through an in-process Router.
struct RoundTrip {
  double p50_us = 0.0;
  double p99_us = 0.0;
};
/// Round-trip percentiles in microseconds; negative with *error set when
/// the server or router fails.
RoundTrip measure_rtt_t1_us(const std::vector<MixItem>& mix,
                            const std::vector<BatchPlan>& plans,
                            bool via_router, std::string* error);

/// consolidate/backend: median microseconds from handing one plan's
/// launches to Backend::channel() to its last reply, the Backend's batch
/// threshold being the plans' size.
double measure_batch_us(const std::vector<MixItem>& mix,
                        const std::vector<BatchPlan>& plans);

struct DecideNumbers {
  double cold_us = 0.0;  ///< mean decide() with the prediction cache off
  double warm_us = 0.0;  ///< mean decide() with a cache already filled
  /// Prediction-cache hit rate over one pass of the plans into an empty
  /// cache: how much the workload's batches repeat.
  double hit_rate = 0.0;
  double engine_run_us = 0.0;  ///< mean FluidEngine::run of one plan
};
/// consolidate/decision + perf + power, and gpusim: decide() and
/// FluidEngine::run on the workload's batch plans.
DecideNumbers measure_decide(const std::vector<MixItem>& mix,
                             const std::vector<BatchPlan>& plans);

}  // namespace perfbench

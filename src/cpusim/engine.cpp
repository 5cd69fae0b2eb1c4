#include "cpusim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace ewc::cpusim {

namespace {
constexpr double kEpsWork = 1e-9;
}

CpuEngine::CpuEngine(CpuConfig cfg) : cfg_(cfg) {}

CpuRunResult CpuEngine::run(const std::vector<CpuTask>& tasks) const {
  for (const auto& t : tasks) {
    if (t.core_seconds < 0.0 || t.threads < 1) {
      throw std::invalid_argument("CpuEngine: malformed task '" + t.name + "'");
    }
  }

  struct Live {
    const CpuTask* task;
    double rem;  ///< core-seconds remaining
  };
  std::vector<Live> live;
  live.reserve(tasks.size());
  std::vector<double> rates;
  rates.reserve(tasks.size());
  CpuRunResult result;
  result.completions.reserve(tasks.size());
  for (const auto& t : tasks) {
    if (t.core_seconds <= kEpsWork) {
      result.completions.push_back(
          CpuCompletion{t.instance_id, t.name, Duration::zero()});
    } else {
      live.push_back(Live{&t, t.core_seconds});
    }
  }

  const double cores = static_cast<double>(cfg_.num_cores);
  double t_now = 0.0;
  double energy_j = 0.0;
  double busy_core_integral = 0.0;

  while (!live.empty()) {
    // Total runnable threads and the per-thread core share.
    double total_threads = 0.0;
    double sensitivity_sum = 0.0;
    for (const auto& l : live) {
      total_threads += l.task->threads;
      sensitivity_sum += l.task->cache_sensitivity;
    }
    const double busy_cores = std::min(cores, total_threads);

    // Time-slicing efficiency: only bites when threads oversubscribe cores.
    double slice_eff = 1.0;
    if (total_threads > cores) {
      const double slice = cfg_.time_slice.seconds();
      const double overhead = cfg_.context_switch_cost.seconds() +
                              cfg_.cold_cache_refill.seconds() *
                                  (sensitivity_sum / static_cast<double>(live.size()));
      slice_eff = slice / (slice + overhead);
    }

    // Per-instance rates (core-seconds of work drained per wall second).
    double next_dt = std::numeric_limits<double>::infinity();
    rates.resize(live.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
      const Live& l = live[i];
      const double share =
          std::min(static_cast<double>(l.task->threads),
                   cores * l.task->threads / std::max(cores, total_threads));
      // Shared-cache contention from co-runners, weighted by sensitivity.
      const double co = static_cast<double>(live.size()) - 1.0;
      const double slow =
          std::min(cfg_.contention_max,
                   cfg_.contention_slope * co * l.task->cache_sensitivity);
      rates[i] = share * slice_eff / (1.0 + slow);
      next_dt = std::min(next_dt, l.rem / rates[i]);
    }

    // Advance to the next completion.
    const double dt = next_dt;
    for (std::size_t i = 0; i < live.size(); ++i) {
      live[i].rem -= rates[i] * dt;
    }
    t_now += dt;
    energy_j += (cfg_.idle_power.watts() +
                 cfg_.active_core_power.watts() * busy_cores) *
                dt;
    busy_core_integral += busy_cores * dt;

    for (std::size_t i = 0; i < live.size();) {
      if (live[i].rem <= kEpsWork * std::max(1.0, live[i].task->core_seconds)) {
        result.completions.push_back(CpuCompletion{
            live[i].task->instance_id, live[i].task->name,
            Duration::from_seconds(t_now)});
        live.erase(live.begin() + static_cast<long>(i));
      } else {
        ++i;
      }
    }
  }

  result.makespan = Duration::from_seconds(t_now);
  result.system_energy = Energy::from_joules(energy_j);
  result.avg_system_power =
      t_now > 0.0 ? result.system_energy / result.makespan : Power::zero();
  result.avg_busy_cores = t_now > 0.0 ? busy_core_integral / t_now : 0.0;
  return result;
}

}  // namespace ewc::cpusim

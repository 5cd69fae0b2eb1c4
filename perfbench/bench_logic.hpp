// The benchmark's own arithmetic, kept free of sockets and processes so
// selftest.cpp can check it on hand-built inputs: percentiles, batch-fill
// wait derived from an arrival schedule, the verdict of one capacity probe,
// the capacity search itself, and deltas of the daemon's kStats snapshots.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/histogram.hpp"

namespace perfbench {

/// Linear-interpolated percentile (p in [0, 100]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// Batch-fill wait of every request one shard receives. A shard closes a
/// batch when `threshold` launches are pending, so request i waits from its
/// own due time until the due time of the last member of its batch. `due`
/// holds the shard's due times in arrival order. The trailing partial batch
/// is left out: a flush closes it, not the threshold.
std::vector<double> fill_waits(const std::vector<double>& due, int threshold);

/// The `p`th percentile latency of each consecutive window of `n`
/// requests, `latency_s` being in due-time order. A ragged last window of
/// fewer than `n` requests is skipped.
std::vector<double> window_percentiles(const std::vector<double>& latency_s,
                                       std::size_t n, double p);

/// What one capacity probe measured. The window is the probe's schedule
/// minus its lead-in, so in-flight work at the window's two edges cancels
/// and `completions_in_window` falls short of `sends_in_window` only when a
/// backlog grows.
struct ProbeStats {
  std::uint64_t sent = 0;
  std::uint64_t lost = 0;
  std::uint64_t dup = 0;
  std::uint64_t failed = 0;    ///< ok=false replies other than rejections
  std::uint64_t rejected = 0;  ///< admission rejections
  std::uint64_t sends_in_window = 0;
  std::uint64_t completions_in_window = 0;
  /// p99 of reply time minus due time over requests due in the window;
  /// rejected requests count as missing the SLO.
  double p99_from_due_s = 0.0;
  /// p99 of the generator's own lateness: send time minus the later of the
  /// due time and the return of the previous send. Lateness inherited from
  /// a send that blocked on the daemon's socket is not counted.
  double self_late_p99_s = 0.0;
};

enum class Verdict { kPass, kFail, kInvalid };
const char* verdict_name(Verdict v);

/// A probe is invalid when the generator, not the daemon, fell behind;
/// otherwise it passes when nothing is lost, duplicated or failed, under 1%
/// is rejected, completions in the window reach 99% of its sends, and the
/// p99 from due time meets the SLO.
Verdict judge_probe(const ProbeStats& s, double slo_p99_s,
                    double late_limit_s);

/// Probes per capacity search; the staircase uses whatever bracketing and
/// bisection leave.
inline constexpr int kMaxProbes = 16;

struct SearchConfig {
  double start_rate = 0.0;   ///< rate the fixed phase ran at
  bool start_passes = true;  ///< whether that phase met the criteria
};

struct ProbeRecord {
  double rate = 0.0;
  Verdict verdict = Verdict::kInvalid;
};

struct SearchResult {
  double capacity = 0.0;  ///< rps; 0 when no rate passed
  std::vector<ProbeRecord> probes;
  /// The search ended early: the probe budget ran out before the bisection
  /// finished, or a rate stayed invalid.
  bool cut_short = false;
};

/// Double the offered rate from the start rate until the verdict flips (or
/// halve it, when the start rate fails), then bisect the bracket four times
/// in log space, to about 4%. While bracketing and bisecting, a rate fails
/// only when two probes fail, which is what lets one stalled probe pass
/// through. The probes left run a staircase from inside the final bracket:
/// up 4% after a pass, down 4% after a fail. The result is the geometric
/// mean of the staircase's rates, which estimates the rate a probe passes
/// half the time. `probe(rate, index)` runs one probe; `index` counts every
/// probe run so far, so each can draw a distinct schedule. An invalid probe
/// is re-run twice while bracketing or bisecting; a rate that stays invalid
/// ends the search at the last pass, and an invalid staircase probe ends
/// the staircase.
SearchResult find_capacity(
    const SearchConfig& config,
    const std::function<Verdict(double rate, int index)>& probe);

/// after - before for every counter in `after` (absent before = 0).
std::map<std::string, double> counter_delta(
    const std::map<std::string, double>& after,
    const std::map<std::string, double>& before);
double value_of(const std::map<std::string, double>& counters,
                const std::string& name);

/// The distribution recorded between two cumulative snapshots of the same
/// histogram: geometry is fixed and counts only grow, so counts subtract.
ewc::obs::HistogramSnapshot histogram_delta(
    const ewc::obs::HistogramSnapshot& after,
    const ewc::obs::HistogramSnapshot& before);
/// histogram_delta by name; an empty snapshot when `after` lacks it.
ewc::obs::HistogramSnapshot histogram_delta(
    const std::map<std::string, ewc::obs::HistogramSnapshot>& after,
    const std::map<std::string, ewc::obs::HistogramSnapshot>& before,
    const std::string& name);

}  // namespace perfbench

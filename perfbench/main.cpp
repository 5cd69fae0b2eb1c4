// ewcbench: the ewcd benchmark driver.
//
//   ewcbench --ewcsim PATH --workload NAME --seed N --seconds S --trace 0|1
//
// Starts the real `ewcsim serve` (and `ewcsim route`) processes for one
// workload, drives them open-loop from this process, checks every reply,
// and prints each metric as "metric NAME VALUE UNIT" followed, on the last
// line, by one JSON object {correct, attempted, failed, metrics}. --trace 0
// prints the end-to-end metrics; --trace 1 the per-layer ones. README.md in
// this directory defines every metric and why each workload exists.
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_logic.hpp"
#include "fleet.hpp"
#include "live.hpp"
#include "loadgen/loadgen.hpp"
#include "micro.hpp"

namespace {

using perfbench::MixItem;
using perfbench::PhaseResult;
using perfbench::Sessions;
namespace wl = ewc::workloads;

using perfbench::kThreshold;
/// Generator lateness (its own, see ProbeStats) above which a probe is
/// invalid rather than judged.
constexpr double kLateLimitS = 0.005;
/// The fixed phase runs as this many segments, each on a fresh fleet, one
/// before the capacity search and the rest spread through it, so that the
/// phase samples the whole run (README.md, "Why eight fresh segments").
constexpr int kSegments = 8;
constexpr int kProbesPerSegment = perfbench::kMaxProbes / kSegments;
/// p50_ms and p99_ms are medians of the p50s and p99s of windows this many
/// requests long: 10 ms at 10k rps, so a host's vCPU preemption of a few
/// milliseconds stays in a few windows (README.md, "Why 100-request
/// windows").
constexpr std::size_t kRequestsPerLatencyWindow = 100;

struct Workload {
  std::string name;
  std::vector<std::pair<std::string, int>> mix;
  int shards = 1;
  bool router = false;
  double fixed_rps = 0.0;
  double slo_p99_s = 0.0;
  int sessions = 3;  ///< launch sessions; the control connection is extra
};

// Why each workload exists is in README.md. Behind the router two launch
// sessions (plus control) keep one session per shard; with one shard three
// launch sessions use the fourth connection.
const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> w = {
      {"shard_light", {{"encryption_6k", 2}, {"sorting_6k", 1}}, 1, false,
       10000.0, 0.050, 3},
      {"shard_heavy",
       {{"kmeans_256k", 1},
        {"sha256_64k", 1},
        {"compression_64m", 1},
        {"encryption_6k", 1}},
       1, false, 2000.0, 0.250, 3},
      {"fleet_light", {{"encryption_6k", 2}, {"sorting_6k", 1}}, 2, true,
       10000.0, 0.050, 2},
  };
  return w;
}

wl::InstanceSpec spec_of(const std::string& name) {
  static const std::map<std::string, std::function<wl::InstanceSpec()>> c = {
      {"encryption_6k", wl::encryption_6k}, {"sorting_6k", wl::sorting_6k},
      {"kmeans_256k", wl::kmeans_256k},     {"sha256_64k", wl::sha256_64k},
      {"compression_64m", wl::compression_64m}};
  return c.at(name)();
}

struct Args {
  std::string ewcsim;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (k == "--ewcsim") a.ewcsim = v;
      else if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else return std::nullopt;
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || a.ewcsim.empty() || a.workload.empty() ||
      !(a.seconds >= 1.0)) {
    return std::nullopt;
  }
  return a;
}

/// Output: metric lines as they are set, the JSON object at the end.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      fail("metric " + name + " is not finite");
      value = -1.0;
    }
    std::printf("metric %s %.17g %s\n", name.c_str(), value, unit.c_str());
    metrics_.emplace_back(name, value, unit);
  }
  void fail(const std::string& why) {
    std::printf("# CHECK FAILED: %s\n", why.c_str());
    correct_ = false;
  }
  void check(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }
  void count(const PhaseResult& r) {
    attempted_ += r.sent;
    failed_ += r.lost + r.dup + r.failed + r.rejected;
  }
  bool correct() const { return correct_; }
  /// A run that failed a check reports the failure, not numbers.
  void print_json() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct_ ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (std::size_t i = 0; correct_ && i < metrics_.size(); ++i) {
      const auto& [name, value, unit] = metrics_[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", name.c_str(), value, unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::tuple<std::string, double, std::string>> metrics_;
};

/// Distinct, reproducible schedule seeds for the phases of one run.
std::uint64_t phase_seed(std::uint64_t seed, std::uint64_t phase) {
  return seed * 1000003ULL + phase * 7919ULL + 17ULL;
}

class Bench {
 public:
  Bench(const Args& args, const Workload& w, const perfbench::CoreSplit& split)
      : args_(args), w_(w), fleet_(fleet_spec(args, w), split.server) {
    for (const auto& [name, weight] : w.mix) {
      mix_.push_back({name, weight, spec_of(name)});
      descs_.push_back(mix_.back().spec.gpu);
    }
  }

  /// Poisson schedule at `rate`; with `count` > 0 exactly that many
  /// requests (a fixed request count), else everything in `seconds`.
  std::vector<ewc::loadgen::ScheduleEntry> schedule(double rate, double seconds,
                                                    std::uint64_t seed,
                                                    std::size_t count) const {
    ewc::loadgen::LoadgenConfig cfg;
    cfg.profile.kind = ewc::loadgen::ArrivalProfile::Kind::kPoisson;
    cfg.profile.rate = rate;
    for (const auto& m : mix_) {
      cfg.mix.push_back({m.name, static_cast<double>(m.weight), m.spec.gpu});
    }
    cfg.sessions = w_.sessions;
    cfg.duration_seconds = count > 0 ? 1.5 * seconds + 1.0 : seconds;
    cfg.seed = seed;
    auto s = ewc::loadgen::build_schedule(cfg);
    if (count > 0 && s.size() > count) s.resize(count);
    return s;
  }

  bool start_fleet(Report& report, double* setup_s) {
    std::string err;
    const double t = fleet_.start(&err);
    if (t < 0.0) {
      report.fail("fleet start: " + err);
      return false;
    }
    *setup_s = t;
    return true;
  }

  bool connect(Report& report) {
    std::string err;
    if (!perfbench::connect_sessions(fleet_.endpoint(), w_.sessions,
                                     &sessions_, &err)) {
      report.fail("connect: " + err);
      return false;
    }
    return true;
  }

  void disconnect() { sessions_ = Sessions{}; }

  PhaseResult run(const std::vector<ewc::loadgen::ScheduleEntry>& s) {
    return perfbench::run_phase(sessions_, s, descs_);
  }

  /// Stop the running fleet, if any, start a fresh one, connect and warm
  /// up. *setup_s is the start's set-up time.
  bool restart(Report& report, double* setup_s) {
    disconnect();
    return start_fleet(report, setup_s) && connect(report) && warmup(report);
  }

  /// The unmeasured lead-in: lets lazy set-up finish and caches fill.
  bool warmup(Report& report) {
    const double secs = 0.5;
    const auto r = run(schedule(w_.fixed_rps, secs, phase_seed(args_.seed, 0),
                                static_cast<std::size_t>(w_.fixed_rps * secs)));
    report.count(r);
    check_phase(report, r, "warmup", /*rejections_allowed=*/false);
    return report.correct();
  }

  void check_phase(Report& report, const PhaseResult& r,
                   const std::string& what, bool rejections_allowed) {
    report.check(r.lost == 0, what + ": " + std::to_string(r.lost) + " lost");
    report.check(r.dup == 0, what + ": " + std::to_string(r.dup) + " duplicated");
    report.check(r.failed == 0,
                 what + ": " + std::to_string(r.failed) + " failed");
    report.check(rejections_allowed || r.rejected == 0,
                 what + ": " + std::to_string(r.rejected) + " rejected");
    report.check(r.replies_valid,
                 what + ": a reply had an unknown where or a bad finish_time");
    std::string which;
    report.check(fleet_.alive(&which), what + ": " + which + " exited");
  }

  struct Snapshot {
    ewc::server::StatsReplyMsg stats;
    std::map<pid_t, double> cpu_s;  ///< per server process, every thread
    double driver_cpu_s = 0.0;
  };

  std::optional<Snapshot> snapshot(bool histograms) {
    Snapshot s;
    const auto stats = sessions_.control->stats(
        histograms, ewc::common::Duration::from_seconds(20.0));
    if (!stats.has_value()) return std::nullopt;
    s.stats = *stats;
    for (pid_t p : server_pids()) s.cpu_s[p] = perfbench::thread_cpu_seconds(p);
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    s.driver_cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                     1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                                ru.ru_stime.tv_usec);
    return s;
  }

  std::vector<pid_t> server_pids() const {
    auto pids = fleet_.shard_pids();
    if (fleet_.router_pid() > 0) pids.push_back(fleet_.router_pid());
    return pids;
  }

  static double cpu_delta(const Snapshot& a, const Snapshot& b,
                          const std::vector<pid_t>& pids) {
    double s = 0.0;
    for (pid_t p : pids) s += b.cpu_s.at(p) - a.cpu_s.at(p);
    return s;
  }

  /// The fixed-rate phase: a fixed request count at the workload's rate.
  struct Fixed {
    std::vector<ewc::loadgen::ScheduleEntry> sched;
    PhaseResult r;
    Snapshot before, after;
  };
  std::optional<Fixed> fixed_phase(Report& report, double seconds,
                                   std::uint64_t phase, bool histograms,
                                   const std::string& what) {
    Fixed f;
    f.sched = schedule(w_.fixed_rps, seconds, phase_seed(args_.seed, phase),
                       static_cast<std::size_t>(w_.fixed_rps * seconds));
    auto before = snapshot(histograms);
    f.r = run(f.sched);
    auto after = snapshot(histograms);
    report.count(f.r);
    if (!before || !after) {
      report.fail(what + ": kStats snapshot failed");
      return std::nullopt;
    }
    f.before = std::move(*before);
    f.after = std::move(*after);
    check_phase(report, f.r, what, /*rejections_allowed=*/false);
    const double replies = perfbench::value_of(
        perfbench::counter_delta(f.after.stats.counters, f.before.stats.counters),
        "server.replies");
    report.check(replies == static_cast<double>(f.r.sent),
                 what + ": daemon server.replies delta " +
                     std::to_string(replies) + " != sent " +
                     std::to_string(f.r.sent));
    report.check(f.r.ok == f.r.sent, what + ": not every request ok");
    return f;
  }

  /// Latency of each request from its due time, seconds (+inf when it was
  /// refused or never answered).
  static std::vector<double> latency_from_due(const PhaseResult& r) {
    std::vector<double> lat(r.sent);
    for (std::size_t i = 0; i < r.sent; ++i) {
      lat[i] = r.log->status[i].load() == perfbench::Status::kOk
                   ? r.log->replied[i] - r.log->due[i]
                   : std::numeric_limits<double>::infinity();
    }
    return lat;
  }

  perfbench::Verdict probe(Report& report, double rate, int index,
                           double lead_s, double window_s) {
    const auto sched = schedule(rate, lead_s + window_s,
                                phase_seed(args_.seed, 100 + index), 0);
    const auto r = run(sched);
    check_phase(report, r, "probe", /*rejections_allowed=*/true);
    perfbench::ProbeStats s;
    s.sent = r.sent;
    s.lost = r.lost;
    s.dup = r.dup;
    s.failed = r.failed;
    s.rejected = r.rejected;
    std::vector<double> in_window;
    const auto lat = latency_from_due(r);
    for (std::size_t i = 0; i < r.sent; ++i) {
      const double due = r.log->due[i];
      if (due >= lead_s && due < lead_s + window_s) {
        ++s.sends_in_window;
        in_window.push_back(lat[i]);
      }
      const double at = r.log->replied[i];
      if (r.log->status[i].load() != perfbench::Status::kNone &&
          at >= lead_s && at < lead_s + window_s) {
        ++s.completions_in_window;
      }
    }
    s.p99_from_due_s = perfbench::percentile(in_window, 99);
    s.self_late_p99_s = perfbench::percentile(r.log->self_late, 99);
    const auto v = perfbench::judge_probe(s, w_.slo_p99_s, kLateLimitS);
    std::printf(
        "# probe %d rate=%.0f %s p99_from_due_ms=%.3f rejected=%llu "
        "window=%llu/%llu self_late_p99_ms=%.3f drain_s=%.3f\n",
        index, rate, perfbench::verdict_name(v), s.p99_from_due_s * 1e3,
        static_cast<unsigned long long>(s.rejected),
        static_cast<unsigned long long>(s.completions_in_window),
        static_cast<unsigned long long>(s.sends_in_window),
        s.self_late_p99_s * 1e3, r.drain_s);
    std::fflush(stdout);
    return v;
  }

  void end_to_end(Report& report) {
    const double segment_s = args_.seconds / 30.0;
    std::vector<double> setups, window_p50s, window_p99s, rss;
    double cpu_s = 0.0, energy = 0.0;
    std::uint64_t ok = 0;
    int segments = 0;
    // One fixed-phase segment, a fixed request count on a fresh fleet.
    auto segment = [&]() {
      double setup = 0.0;
      if (!restart(report, &setup)) return false;
      setups.push_back(setup);
      const auto f = fixed_phase(report, segment_s, 1 + segments, false,
                                 "fixed segment " + std::to_string(segments));
      if (!f) return false;
      double mb = 0.0;
      for (pid_t p : server_pids()) mb += perfbench::peak_rss_mb(p);
      rss.push_back(mb);
      const auto lat = latency_from_due(f->r);
      const auto w50 =
          perfbench::window_percentiles(lat, kRequestsPerLatencyWindow, 50);
      const auto w99 =
          perfbench::window_percentiles(lat, kRequestsPerLatencyWindow, 99);
      const double seg_cpu = cpu_delta(f->before, f->after, server_pids());
      std::printf("# segment %d p50_ms=%.3f p99_ms=%.3f cpu_us_per_req=%.1f "
                  "setup_s=%.4f rss_mb=%.1f\n",
                  segments, 1e3 * perfbench::median(w50),
                  1e3 * perfbench::median(w99),
                  1e6 * seg_cpu / static_cast<double>(f->r.ok), setup, mb);
      std::fflush(stdout);
      window_p50s.insert(window_p50s.end(), w50.begin(), w50.end());
      window_p99s.insert(window_p99s.end(), w99.begin(), w99.end());
      cpu_s += seg_cpu;
      energy += perfbench::value_of(
          perfbench::counter_delta(f->after.stats.counters,
                                   f->before.stats.counters),
          "backend.total_energy_joules");
      ok += f->r.ok;
      ++segments;
      return report.correct();
    };

    if (!segment()) return;
    perfbench::SearchConfig cfg;
    cfg.start_rate = w_.fixed_rps;
    cfg.start_passes = report.correct() &&
                       perfbench::median(window_p99s) <= w_.slo_p99_s;
    const double window_s = args_.seconds / 30.0;
    bool healthy = true;
    const auto search = perfbench::find_capacity(
        cfg, [&](double rate, int index) {
          if (index > 0 && index % kProbesPerSegment == 0 &&
              segments < kSegments && healthy) {
            healthy = segment();
          }
          if (!healthy) return perfbench::Verdict::kInvalid;
          return probe(report, rate, index, 0.25 * window_s, window_s);
        });
    if (search.cut_short) {
      std::printf("# capacity search cut short after %zu probes\n",
                  search.probes.size());
    }
    while (healthy && segments < kSegments) healthy = segment();
    if (!healthy || !report.correct()) return;

    report.set("setup_s", perfbench::median(setups), "s");
    report.set("p50_ms", 1e3 * perfbench::median(window_p50s), "ms");
    report.set("p99_ms", 1e3 * perfbench::median(window_p99s), "ms");
    report.set("capacity_rps", search.capacity, "1/s");
    report.set("cpu_us_per_req", 1e6 * cpu_s / static_cast<double>(ok), "us");
    report.set("joules_per_req", energy / static_cast<double>(ok), "J");
    report.set("rss_mb", perfbench::median(rss), "MB");
  }

  void traced(Report& report) {
    const double S = args_.seconds;
    double setup = 0.0;
    if (!restart(report, &setup)) return;
    const double phase_s = 0.2 * S;
    const auto plain = fixed_phase(report, phase_s, 1, false, "untraced phase");
    const auto tr = fixed_phase(report, phase_s, 2, true, "traced phase");
    if (!plain || !tr) return;
    const PhaseResult& r = tr->r;
    const auto counters = perfbench::counter_delta(tr->after.stats.counters,
                                                   tr->before.stats.counters);
    auto delta = [&](const std::string& name) {
      return perfbench::value_of(counters, name);
    };
    auto hist = [&](const std::string& name) {
      return perfbench::histogram_delta(tr->after.stats.histograms,
                                        tr->before.stats.histograms, name);
    };
    const double n = static_cast<double>(r.sent);

    // driver
    std::vector<double> late(r.sent);
    std::vector<double> rtt;
    std::size_t consolidated = 0;
    for (std::size_t i = 0; i < r.sent; ++i) {
      late[i] = r.log->sent[i] - r.log->due[i];
      if (r.log->status[i].load() == perfbench::Status::kOk) {
        rtt.push_back(r.log->replied[i] - r.log->sent[i]);
        if (r.log->where[i] == 0) ++consolidated;
      }
    }
    const double plain_cpu =
        (plain->after.driver_cpu_s - plain->before.driver_cpu_s) /
        static_cast<double>(plain->r.sent);
    const double traced_cpu =
        (tr->after.driver_cpu_s - tr->before.driver_cpu_s) / n;
    report.set("gen.late_p99_ms", 1e3 * perfbench::percentile(late, 99), "ms");
    report.set("driver.trace_overhead_pct", 100.0 * (traced_cpu / plain_cpu - 1.0),
               "%");

    // server/client
    const double rtt_p50 = 1e3 * perfbench::percentile(rtt, 50);
    const double rtt_p99 = 1e3 * perfbench::percentile(rtt, 99);
    double reconnects = static_cast<double>(sessions_.control->reconnects());
    for (const auto& s : sessions_.launch) {
      reconnects += static_cast<double>(s->reconnects());
    }
    report.set("client.rtt_p50_ms", rtt_p50, "ms");
    report.set("client.rtt_p99_ms", rtt_p99, "ms");
    report.set("client.reconnects", reconnects, "count");

    // server/server + server/reactor, from the daemon's kStats
    const auto lat_h = hist("server.request_latency_seconds");
    const double server_p50 = 1e3 * lat_h.percentile(50);
    const double server_p99 = 1e3 * lat_h.percentile(99);
    report.set("server.latency_p50_ms", server_p50, "ms");
    report.set("server.latency_p99_ms", server_p99, "ms");
    report.set("server.wire_p50_ms", rtt_p50 - server_p50, "ms");
    report.set("server.rejected", delta("server.rejected"), "count");
    report.set("server.protocol_errors", delta("server.protocol_errors"), "count");

    // consolidate/backend
    const auto batch_h = hist("backend.batch_size");
    report.set("backend.batches", static_cast<double>(batch_h.total), "count");
    report.set("backend.batch_size_mean", batch_h.mean(), "count");
    report.set("backend.sim_s_per_req",
               delta("backend.total_time_seconds") / static_cast<double>(r.ok),
               "s");
    report.set("batch.fill_wait_p50_ms", 1e3 * fill_wait_p50(r), "ms");

    // consolidate/decision + perf + power
    const auto decide_h = hist("decision.decide_seconds");
    const double shard_cpu = cpu_delta(tr->before, tr->after, fleet_.shard_pids());
    report.set("decision.decide_mean_us", 1e6 * decide_h.mean(), "us");
    report.set("decision.decide_p99_us", 1e6 * decide_h.percentile(99), "us");
    report.set("decision.cpu_share", decide_h.sum / shard_cpu, "ratio");
    report.set("decision.consolidated_share",
               static_cast<double>(consolidated) / static_cast<double>(r.ok),
               "ratio");

    // router: everything outside the shards, behind the router only
    const bool fleet = fleet_.has_router();
    double skew = 0.0;
    if (fleet) {
      std::vector<double> per_shard;
      for (int i = 0; i < w_.shards; ++i) {
        per_shard.push_back(delta("shard." + std::to_string(i) + ".server.replies"));
      }
      double sum = 0.0, top = 0.0;
      for (double v : per_shard) {
        sum += v;
        top = std::max(top, v);
      }
      skew = top / (sum / static_cast<double>(per_shard.size()));
    }
    report.set("router.frames_per_req",
               fleet ? (delta("router.forwarded_frames") +
                        delta("router.returned_frames")) / n
                     : 0.0,
               "count");
    report.set("router.cpu_us_per_req",
               fleet ? 1e6 * cpu_delta(tr->before, tr->after, {fleet_.router_pid()}) / n
                     : 0.0,
               "us");
    report.set("router.placement_skew", skew, "ratio");

    disconnect();
    fleet_.stop();

    // In-process layer timings on the workload's own batch plans.
    std::vector<perfbench::BatchPlan> plans;
    for (std::size_t b = 0; b + kThreshold <= r.sent && plans.size() < 40;
         b += kThreshold) {
      perfbench::BatchPlan p;
      for (int k = 0; k < kThreshold; ++k) {
        p.push_back(static_cast<int>(
            tr->sched[b + static_cast<std::size_t>(k)].mix_index));
      }
      plans.push_back(std::move(p));
    }
    const auto codec = perfbench::measure_codec(mix_);
    report.set("codec.launch_bytes", codec.launch_bytes, "B");
    report.set("codec.completion_bytes", codec.completion_bytes, "B");
    report.set("codec.encode_launch_ns", codec.encode_launch_ns, "ns");
    report.set("codec.decode_launch_ns", codec.decode_launch_ns, "ns");
    report.set("codec.encode_completion_ns", codec.encode_completion_ns, "ns");
    report.set("codec.decode_completion_ns", codec.decode_completion_ns, "ns");

    // The router hop is what an in-process Router adds to the threshold-1
    // round trip; everything else on the path is the same in both.
    std::string err;
    const auto t1 = perfbench::measure_rtt_t1_us(mix_, plans, false, &err);
    report.check(t1.p50_us > 0.0, "server t1 round trip: " + err);
    report.set("server.rtt_t1_us", t1.p50_us, "us");
    perfbench::RoundTrip router_t1;
    if (fleet) {
      router_t1 = perfbench::measure_rtt_t1_us(mix_, plans, true, &err);
      report.check(router_t1.p50_us > 0.0, "router t1 round trip: " + err);
    }
    report.set("router.rtt_t1_us", router_t1.p50_us, "us");
    report.set("router.hop_p50_ms",
               fleet ? 1e-3 * (router_t1.p50_us - t1.p50_us) : 0.0, "ms");
    report.set("router.hop_p99_ms",
               fleet ? 1e-3 * (router_t1.p99_us - t1.p99_us) : 0.0, "ms");
    report.set("backend.batch_us",
               perfbench::measure_batch_us(mix_, plans), "us");
    const auto d = perfbench::measure_decide(mix_, plans);
    report.set("decision.decide_cold_us", d.cold_us, "us");
    report.set("decision.decide_warm_us", d.warm_us, "us");
    report.set("simcache.hit_rate", d.hit_rate, "ratio");
    report.set("engine.run_us", d.engine_run_us, "us");
  }

 private:
  static perfbench::FleetSpec fleet_spec(const Args& args, const Workload& w) {
    perfbench::FleetSpec f;
    f.ewcsim = args.ewcsim;
    for (const auto& [name, weight] : w.mix) {
      f.workload_flags.push_back(name + "=" + std::to_string(weight));
    }
    f.shards = w.shards;
    f.router = w.router;
    return f;
  }

  /// Batch-fill wait from the schedule alone (policy, not code): with one
  /// shard every session feeds it; behind the router each launch session
  /// is placed on its own shard.
  double fill_wait_p50(const PhaseResult& r) const {
    std::map<std::uint32_t, std::vector<double>> streams;
    for (std::size_t i = 0; i < r.sent; ++i) {
      streams[w_.router ? r.log->session[i] : 0].push_back(r.log->due[i]);
    }
    std::vector<double> waits;
    for (const auto& [key, due] : streams) {
      const auto w = perfbench::fill_waits(due, kThreshold);
      waits.insert(waits.end(), w.begin(), w.end());
    }
    return perfbench::percentile(waits, 50);
  }

  const Args& args_;
  const Workload& w_;
  perfbench::Fleet fleet_;
  std::vector<MixItem> mix_;
  std::vector<ewc::gpusim::KernelDesc> descs_;
  Sessions sessions_;
};

std::string host_line(const perfbench::CoreSplit& split) {
  char host[256] = {0};
  ::gethostname(host, sizeof host - 1);
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
      break;
    }
  }
  return std::string("# host=") + host + " cpu=\"" + model +
         "\" nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " cores: " + split.text;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: ewcbench --ewcsim PATH --workload NAME --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const auto& w : all_workloads()) {
    if (w.name == args->workload) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }
  ::signal(SIGPIPE, SIG_IGN);
  const auto split = perfbench::choose_core_split();
  ::sched_setaffinity(0, sizeof split.driver, &split.driver);
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
              workload->name.c_str(),
              static_cast<unsigned long long>(args->seed), args->seconds,
              args->trace ? 1 : 0);
  std::printf("%s\n", host_line(split).c_str());

  Report report;
  {
    Bench bench(*args, *workload, split);
    if (args->trace) {
      bench.traced(report);
    } else {
      bench.end_to_end(report);
    }
  }  // stops every server process
  report.print_json();
  return 0;
}

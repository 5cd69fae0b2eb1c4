// Self-tests for the benchmark's own logic (bench_logic.hpp). run.py runs
// this binary before every measurement and refuses to report numbers when
// it fails. Exit code 0 when every check holds.
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "bench_logic.hpp"
#include "obs/histogram.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++g_failures;
  }
}

bool near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

void test_percentile() {
  check(near(perfbench::percentile({}, 50), 0.0), "percentile of nothing");
  check(near(perfbench::percentile({3, 1, 2}, 50), 2.0), "odd median");
  check(near(perfbench::percentile({1, 2, 3, 4}, 50), 2.5), "even median");
  check(near(perfbench::percentile({1, 2, 3, 4, 5}, 100), 5.0), "p100");
  const double inf = std::numeric_limits<double>::infinity();
  check(std::isinf(perfbench::percentile({1, 2, inf, inf}, 99)),
        "refused requests push p99 to infinity");
  check(near(perfbench::percentile({1, 2, 3, inf}, 50), 2.5),
        "one refusal does not move p50");
}

void test_fill_waits() {
  // Threshold 3 over seven arrivals: batches {0,1,2} close at t=0.3 and
  // {3,4,5} at t=1.0; the seventh request is a flushed remainder.
  const std::vector<double> due = {0.0, 0.1, 0.3, 0.4, 0.4, 1.0, 1.5};
  const auto w = perfbench::fill_waits(due, 3);
  const std::vector<double> want = {0.3, 0.2, 0.0, 0.6, 0.6, 0.0};
  check(w.size() == want.size(), "fill waits drop the partial batch");
  for (std::size_t i = 0; i < want.size() && i < w.size(); ++i) {
    check(near(w[i], want[i]), "fill wait per request");
  }
  check(perfbench::fill_waits(due, 1) == std::vector<double>(7, 0.0),
        "threshold 1 never waits");
  check(perfbench::fill_waits({0.0, 1.0}, 3).empty(),
        "no full batch, no fill wait");
}

void test_window_percentiles() {
  // Four windows of 200 requests; the second stalls. Each window has its
  // own p50 and p99, and the stall stays in its window. A ragged fifth
  // window of 50 requests is skipped.
  std::vector<double> lat;
  for (int w = 0; w < 4; ++w) {
    for (int i = 0; i < 200; ++i) lat.push_back(w == 1 ? 0.5 : 0.001 * (1 + i % 3));
  }
  for (int i = 0; i < 50; ++i) lat.push_back(0.5);
  const auto p99s = perfbench::window_percentiles(lat, 200, 99);
  check(p99s == std::vector<double>({0.003, 0.5, 0.003, 0.003}),
        "per-window p99s; a ragged last window is skipped");
  check(near(perfbench::median(p99s), 0.003),
        "the median across windows is not moved by one stalled window");
  check(perfbench::window_percentiles(lat, 200, 50) ==
            std::vector<double>({0.002, 0.5, 0.002, 0.002}),
        "per-window p50s");
}

perfbench::ProbeStats healthy_probe() {
  perfbench::ProbeStats s;
  s.sent = 1000;
  s.sends_in_window = 800;
  s.completions_in_window = 800;
  s.p99_from_due_s = 0.010;
  s.self_late_p99_s = 0.0001;
  return s;
}

void test_judge_probe() {
  using perfbench::Verdict;
  using perfbench::judge_probe;
  auto s = healthy_probe();
  check(judge_probe(s, 0.05, 0.005) == Verdict::kPass, "healthy probe passes");
  s.self_late_p99_s = 0.02;
  check(judge_probe(s, 0.05, 0.005) == Verdict::kInvalid,
        "a late generator makes the probe invalid");
  s = healthy_probe();
  s.p99_from_due_s = 0.06;
  check(judge_probe(s, 0.05, 0.005) == Verdict::kFail, "SLO miss fails");
  s = healthy_probe();
  s.rejected = 10;
  check(judge_probe(s, 0.05, 0.005) == Verdict::kFail, "1% rejected fails");
  s.rejected = 9;
  check(judge_probe(s, 0.05, 0.005) == Verdict::kPass, "0.9% rejected passes");
  s = healthy_probe();
  s.completions_in_window = 791;
  check(judge_probe(s, 0.05, 0.005) == Verdict::kFail, "growing backlog fails");
  s = healthy_probe();
  s.lost = 1;
  check(judge_probe(s, 0.05, 0.005) == Verdict::kFail, "a lost request fails");
  s = healthy_probe();
  s.dup = 1;
  check(judge_probe(s, 0.05, 0.005) == Verdict::kFail, "a duplicate fails");
}

void test_capacity_search() {
  using perfbench::Verdict;
  // Oracle: the system holds up to `cap` rps.
  auto oracle = [](double cap) {
    return [cap](double rate, int) {
      return rate <= cap ? Verdict::kPass : Verdict::kFail;
    };
  };
  // Within one staircase step, 2^(1/16), of `cap` on either side.
  auto within_step = [](double capacity, double cap) {
    const double step = std::pow(2.0, 1.0 / 16);
    return capacity > cap / step && capacity < cap * step;
  };
  perfbench::SearchConfig cfg;
  cfg.start_rate = 10000;
  auto r = perfbench::find_capacity(cfg, oracle(95000));
  // Steps 20k, 40k, 80k pass, 160k fails; four bisections of [80k, 160k]
  // leave a bracket around 95k, and the staircase steps across it.
  check(!r.cut_short, "clean search is not cut short");
  check(r.probes.size() == static_cast<std::size_t>(perfbench::kMaxProbes),
        "the staircase spends the whole probe budget");
  check(within_step(r.capacity, 95000), "search finds the oracle capacity");

  // One stalled probe: the first probe at each rate above 30k fails once
  // regardless, as a random stall would. The retry recovers the result.
  std::map<double, int> seen;
  auto stalled = [&seen](double rate, int) {
    if (rate > 30000 && seen[rate]++ == 0 && rate <= 95000) {
      return Verdict::kFail;
    }
    return rate <= 95000 ? Verdict::kPass : Verdict::kFail;
  };
  const auto r2 = perfbench::find_capacity(cfg, stalled);
  check(within_step(r2.capacity, 95000), "stalled probes are retried away");

  // Only one stalled probe in the whole search, at 40k.
  int stall_left = 1;
  auto one_stall = [&stall_left](double rate, int) {
    if (rate == 40000 && stall_left-- > 0) return Verdict::kFail;
    return rate <= 95000 ? Verdict::kPass : Verdict::kFail;
  };
  const auto r3 = perfbench::find_capacity(cfg, one_stall);
  check(within_step(r3.capacity, 95000),
        "one stalled probe does not move capacity");

  // One lucky pass above the knee, in the staircase: the result stays
  // below it, where a highest-pass rule would take it.
  auto one_lucky = [](double rate, int index) {
    return rate <= 95000 || index == 12 ? Verdict::kPass : Verdict::kFail;
  };
  const auto r4 = perfbench::find_capacity(cfg, one_lucky);
  check(r4.probes[12].rate > 95000 && r4.probes[12].verdict == Verdict::kPass,
        "the lucky probe lands above the knee");
  check(r4.capacity < r4.probes[12].rate && within_step(r4.capacity, 95000),
        "one lucky pass does not set capacity");

  // An invalid probe (generator behind) is neither pass nor fail: it is
  // re-run, and a rate that stays invalid ends the search at the last pass.
  int invalid_left = 1;
  auto one_invalid = [&invalid_left](double rate, int) {
    if (rate == 80000 && invalid_left-- > 0) return Verdict::kInvalid;
    return rate <= 95000 ? Verdict::kPass : Verdict::kFail;
  };
  const auto r5 = perfbench::find_capacity(cfg, one_invalid);
  check(within_step(r5.capacity, 95000), "an invalid probe is re-run");
  auto always_invalid = [](double rate, int) {
    return rate >= 80000 ? Verdict::kInvalid : Verdict::kPass;
  };
  const auto r6 = perfbench::find_capacity(cfg, always_invalid);
  check(r6.cut_short && near(r6.capacity, 40000),
        "a rate the generator cannot offer ends the search");

  // A start rate that already fails searches downward.
  cfg.start_passes = false;
  const auto r7 = perfbench::find_capacity(cfg, oracle(3000));
  check(within_step(r7.capacity, 3000), "a failing start rate steps down");
  const auto r8 = perfbench::find_capacity(cfg, oracle(0.5));
  check(r8.capacity == 0.0, "nothing passes: capacity 0");
  cfg.start_passes = true;

  // The probe cap bounds the run even when every probe passes.
  const auto r9 = perfbench::find_capacity(cfg, oracle(1e12));
  check(r9.cut_short && r9.probes.size() ==
                            static_cast<std::size_t>(perfbench::kMaxProbes),
        "probe cap holds");
}

void test_stats_deltas() {
  const std::map<std::string, double> before = {{"server.replies", 100},
                                                {"server.rejected", 2}};
  const std::map<std::string, double> after = {{"server.replies", 164},
                                               {"server.rejected", 2},
                                               {"server.flushes", 3}};
  const auto d = perfbench::counter_delta(after, before);
  check(near(perfbench::value_of(d, "server.replies"), 64), "counter delta");
  check(near(perfbench::value_of(d, "server.rejected"), 0), "unchanged counter");
  check(near(perfbench::value_of(d, "server.flushes"), 3),
        "counter born between snapshots");
  check(near(perfbench::value_of(d, "absent"), 0), "absent counter reads 0");

  ewc::obs::Histogram h;
  for (int i = 0; i < 100; ++i) h.record(0.001);
  const auto first = h.snapshot();
  for (int i = 0; i < 300; ++i) h.record(0.1);
  const auto second = h.snapshot();
  const auto delta = perfbench::histogram_delta(second, first);
  check(delta.total == 300, "histogram delta count");
  check(near(delta.sum, 30.0, 1e-9), "histogram delta sum");
  check(delta.percentile(50) > 0.08 && delta.percentile(50) < 0.12,
        "histogram delta holds only the new samples");
  std::map<std::string, ewc::obs::HistogramSnapshot> a = {{"x", second}};
  std::map<std::string, ewc::obs::HistogramSnapshot> b = {};
  check(perfbench::histogram_delta(a, b, "x").total == 400,
        "histogram born between snapshots");
  check(perfbench::histogram_delta(a, b, "y").empty(), "absent histogram");
}

}  // namespace

int main() {
  test_percentile();
  test_fill_waits();
  test_window_percentiles();
  test_judge_probe();
  test_capacity_search();
  test_stats_deltas();
  if (g_failures != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("selftest: ok\n");
  return 0;
}

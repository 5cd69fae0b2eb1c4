#include "bench_logic.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (std::isinf(values[hi])) return frac > 0.0 ? values[hi] : values[lo];
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

std::vector<double> fill_waits(const std::vector<double>& due, int threshold) {
  std::vector<double> waits;
  if (threshold < 1) return waits;
  const std::size_t k = static_cast<std::size_t>(threshold);
  const std::size_t full = due.size() / k * k;
  waits.reserve(full);
  for (std::size_t first = 0; first < full; first += k) {
    const double closed_at = due[first + k - 1];
    for (std::size_t i = first; i < first + k; ++i) {
      waits.push_back(closed_at - due[i]);
    }
  }
  return waits;
}

std::vector<double> window_percentiles(const std::vector<double>& latency_s,
                                       std::size_t n, double p) {
  std::vector<double> per_window;
  for (std::size_t at = 0; n > 0 && at + n <= latency_s.size(); at += n) {
    per_window.push_back(percentile(
        std::vector<double>(latency_s.begin() + static_cast<long>(at),
                            latency_s.begin() + static_cast<long>(at + n)),
        p));
  }
  return per_window;
}

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kPass:
      return "pass";
    case Verdict::kFail:
      return "fail";
    case Verdict::kInvalid:
      return "invalid";
  }
  return "?";
}

Verdict judge_probe(const ProbeStats& s, double slo_p99_s,
                    double late_limit_s) {
  if (s.self_late_p99_s > late_limit_s) return Verdict::kInvalid;
  if (s.sent == 0 || s.sends_in_window == 0) return Verdict::kInvalid;
  if (s.lost != 0 || s.dup != 0 || s.failed != 0) return Verdict::kFail;
  if (static_cast<double>(s.rejected) >= 0.01 * static_cast<double>(s.sent)) {
    return Verdict::kFail;
  }
  if (static_cast<double>(s.completions_in_window) <
      0.99 * static_cast<double>(s.sends_in_window)) {
    return Verdict::kFail;
  }
  if (!(s.p99_from_due_s <= slo_p99_s)) return Verdict::kFail;
  return Verdict::kPass;
}

namespace {
constexpr double kFactor = 2.0;
constexpr int kBisectSteps = 4;
constexpr int kFailRetries = 1;
constexpr int kInvalidRetries = 2;
constexpr double kMinRate = 1.0;  ///< stepping down stops here: capacity 0
/// The staircase's step, as a power of two: the bisection's final
/// resolution, 2^(1/16).
constexpr double kStaircaseStep = 1.0 / 16.0;
}  // namespace

SearchResult find_capacity(
    const SearchConfig& config,
    const std::function<Verdict(double rate, int index)>& probe) {
  SearchResult result;
  // The verdict for one rate: a pass settles it; a fail must repeat; an
  // invalid probe is re-run and, if it stays invalid, ends the search (the
  // generator cannot offer this rate).
  auto judge = [&](double rate) {
    int fails = 0;
    int invalids = 0;
    for (;;) {
      if (static_cast<int>(result.probes.size()) >= kMaxProbes) {
        return Verdict::kInvalid;
      }
      const Verdict v =
          probe(rate, static_cast<int>(result.probes.size()));
      result.probes.push_back({rate, v});
      if (v == Verdict::kPass) return v;
      if (v == Verdict::kFail && ++fails > kFailRetries) return v;
      if (v == Verdict::kInvalid && ++invalids > kInvalidRetries) {
        return v;
      }
    }
  };

  double lo = 0.0;
  double hi = 0.0;
  if (config.start_passes) {
    lo = config.start_rate;
    for (double rate = lo * kFactor; hi == 0.0;
         rate *= kFactor) {
      const Verdict v = judge(rate);
      if (v == Verdict::kInvalid) {
        result.cut_short = true;
        result.capacity = lo;
        return result;
      }
      (v == Verdict::kPass ? lo : hi) = rate;
    }
  } else {
    hi = config.start_rate;
    for (double rate = hi / kFactor; lo == 0.0;
         rate /= kFactor) {
      if (rate < kMinRate) {
        result.capacity = 0.0;
        return result;
      }
      const Verdict v = judge(rate);
      if (v == Verdict::kInvalid) {
        result.cut_short = true;
        result.capacity = 0.0;
        return result;
      }
      (v == Verdict::kPass ? lo : hi) = rate;
    }
  }
  for (int step = 0; step < kBisectSteps; ++step) {
    const double mid = std::sqrt(lo * hi);
    const Verdict v = judge(mid);
    if (v == Verdict::kInvalid) {
      result.cut_short = true;
      result.capacity = lo;
      return result;
    }
    (v == Verdict::kPass ? lo : hi) = mid;
  }
  // Staircase: spend the rest of the budget one step up after a pass and
  // one step down after a fail, starting inside the final bracket. It
  // settles around the rate where a probe passes half the time. The result
  // is the geometric mean of the rates it visited, the next one included,
  // so no single lucky or stalled probe decides it.
  double rate = std::sqrt(lo * hi);
  double log_sum = 0.0;
  int visited = 0;
  for (;;) {
    log_sum += std::log(rate);
    ++visited;
    if (static_cast<int>(result.probes.size()) >= kMaxProbes) break;
    const Verdict v = probe(rate, static_cast<int>(result.probes.size()));
    result.probes.push_back({rate, v});
    if (v == Verdict::kInvalid) {
      result.cut_short = true;
      break;
    }
    rate *= std::exp2(v == Verdict::kPass ? kStaircaseStep : -kStaircaseStep);
  }
  result.capacity = std::exp(log_sum / visited);
  return result;
}

std::map<std::string, double> counter_delta(
    const std::map<std::string, double>& after,
    const std::map<std::string, double>& before) {
  std::map<std::string, double> d;
  for (const auto& [name, value] : after) d[name] = value - value_of(before, name);
  return d;
}

double value_of(const std::map<std::string, double>& counters,
                const std::string& name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

ewc::obs::HistogramSnapshot histogram_delta(
    const ewc::obs::HistogramSnapshot& after,
    const ewc::obs::HistogramSnapshot& before) {
  ewc::obs::HistogramSnapshot d;
  d.params = after.params;
  d.counts.resize(after.counts.size());
  for (std::size_t i = 0; i < after.counts.size(); ++i) {
    const std::uint64_t prev = i < before.counts.size() ? before.counts[i] : 0;
    d.counts[i] = after.counts[i] >= prev ? after.counts[i] - prev : 0;
    d.total += d.counts[i];
  }
  d.sum = after.sum - before.sum;
  return d;
}

ewc::obs::HistogramSnapshot histogram_delta(
    const std::map<std::string, ewc::obs::HistogramSnapshot>& after,
    const std::map<std::string, ewc::obs::HistogramSnapshot>& before,
    const std::string& name) {
  const auto a = after.find(name);
  if (a == after.end()) return {};
  const auto b = before.find(name);
  return b == before.end() ? a->second : histogram_delta(a->second, b->second);
}

}  // namespace perfbench

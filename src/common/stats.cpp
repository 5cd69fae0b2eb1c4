#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace ewc::common {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs.size() - 1));
}

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) return 0.0;
  // Selects the two order statistics it interpolates instead of sorting:
  // the values are the ones sorted[lo] and sorted[lo + 1] would hold.
  std::vector<double> v(xs.begin(), xs.end());
  if (p <= 0.0) return *std::min_element(v.begin(), v.end());
  if (p >= 100.0) return *std::max_element(v.begin(), v.end());
  double idx = p / 100.0 * static_cast<double>(v.size() - 1);
  std::size_t lo = static_cast<std::size_t>(idx);
  double frac = idx - static_cast<double>(lo);
  const auto at_lo = v.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(v.begin(), at_lo, v.end());
  if (lo + 1 >= v.size()) return *at_lo;
  return *at_lo * (1.0 - frac) + *std::min_element(at_lo + 1, v.end()) * frac;
}

double relative_error(double predicted, double measured) {
  if (measured == 0.0) {
    // 0/0 is a perfect (if degenerate) prediction; anything else has no
    // defined relative error — NaN, never a fake 0.
    return predicted == 0.0 ? 0.0
                            : std::numeric_limits<double>::quiet_NaN();
  }
  return std::abs(predicted - measured) / std::abs(measured);
}

RelativeErrorSummary relative_error_summary(std::span<const double> predicted,
                                            std::span<const double> measured) {
  if (predicted.size() != measured.size()) {
    throw std::invalid_argument("relative_error_summary: size mismatch");
  }
  RelativeErrorSummary out;
  double sum = 0.0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    const double e = relative_error(predicted[i], measured[i]);
    if (std::isnan(e)) {
      ++out.skipped;
      continue;
    }
    ++out.counted;
    sum += e;
    out.max = std::max(out.max, e);
  }
  if (out.counted > 0) out.mean = sum / static_cast<double>(out.counted);
  return out;
}

double mean_relative_error(std::span<const double> predicted,
                           std::span<const double> measured) {
  return relative_error_summary(predicted, measured).mean;
}

double max_relative_error(std::span<const double> predicted,
                          std::span<const double> measured) {
  return relative_error_summary(predicted, measured).max;
}

double correlation(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size() || xs.size() < 2) return 0.0;
  double mx = mean(xs), my = mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
    syy += (ys[i] - my) * (ys[i] - my);
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

}  // namespace ewc::common

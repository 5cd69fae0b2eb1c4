#include "obs/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ewc::obs {

double HistogramParams::bucket_lower(int i) const {
  return min_value * std::pow(growth, static_cast<double>(i));
}

namespace {

/// HistogramParams::bucket_index with std::log(p.growth) supplied, so
/// Histogram::record can compute that logarithm once per histogram.
int bucket_of(const HistogramParams& p, double v, double log_growth) {
  if (!(v > p.min_value)) return 0;  // also catches NaN and negatives
  const int i =
      static_cast<int>(std::floor(std::log(v / p.min_value) / log_growth));
  return std::clamp(i, 0, p.buckets);
}

}  // namespace

int HistogramParams::bucket_index(double v) const {
  return bucket_of(*this, v, std::log(growth));
}

double HistogramSnapshot::percentile(double p) const {
  if (total == 0) return 0.0;
  // NaN must be rejected before clamp: it survives std::clamp (every
  // comparison is false), makes `rank` NaN, and the scan below then walks
  // past every bucket and reports the overflow threshold as if the
  // histogram were saturated.
  if (std::isnan(p)) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the target observation, 0-based, linearly spread over the count
  // (matches common::percentile's interpolation on sorted samples).
  const double rank = p / 100.0 * static_cast<double>(total - 1);
  std::uint64_t seen = 0;
  for (int i = 0; i < static_cast<int>(counts.size()); ++i) {
    const std::uint64_t c = counts[static_cast<std::size_t>(i)];
    if (c == 0) continue;
    if (rank < static_cast<double>(seen + c)) {
      if (i >= params.buckets) return params.bucket_lower(params.buckets);
      // Interpolate inside the bucket by the fraction of its occupants
      // below the target rank.
      const double lo = params.bucket_lower(i);
      const double hi = params.bucket_lower(i + 1);
      // p=100 means "the maximum observed": report the covering (= last
      // occupied) bucket's upper edge. The rank formula alone would land
      // at an interior point — exactly `lo` when the bucket holds one
      // observation — understating the max by up to one growth factor.
      if (p >= 100.0) return hi;
      const double frac =
          (rank - static_cast<double>(seen)) / static_cast<double>(c);
      return lo + (hi - lo) * frac;
    }
    seen += c;
  }
  return params.bucket_lower(params.buckets);
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (!(params == other.params) || counts.size() != other.counts.size()) {
    throw std::invalid_argument(
        "HistogramSnapshot::merge: mismatched bucket geometry");
  }
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
  total += other.total;
  sum += other.sum;
}

Histogram::Histogram(HistogramParams params)
    : params_(params),
      log_growth_(std::log(params.growth)),
      counts_(static_cast<std::size_t>(params.buckets) + 1) {
  if (params_.min_value <= 0.0 || params_.growth <= 1.0 ||
      params_.buckets < 1) {
    throw std::invalid_argument("Histogram: bad bucket geometry");
  }
}

void Histogram::record(double value) {
  const int i = bucket_of(params_, value, log_growth_);
  counts_[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

void Histogram::record(std::span<const double> values) {
  std::vector<std::uint64_t> counts(counts_.size());
  for (double v : values) {
    ++counts[static_cast<std::size_t>(bucket_of(params_, v, log_growth_))];
  }
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] != 0) {
      counts_[i].fetch_add(counts[i], std::memory_order_relaxed);
    }
  }
  total_.fetch_add(values.size(), std::memory_order_relaxed);
  // The values are added to the sum in order, as record(double) would.
  double sum = sum_.load(std::memory_order_relaxed);
  double next;
  do {
    next = sum;
    for (double v : values) next += v;
  } while (!sum_.compare_exchange_weak(sum, next, std::memory_order_relaxed));
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.params = params_;
  s.counts.reserve(counts_.size());
  for (const auto& c : counts_) {
    s.counts.push_back(c.load(std::memory_order_relaxed));
  }
  s.total = total_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  // A snapshot racing record() can see total ahead of the bucket writes;
  // clamp so percentile() never walks past the bucket mass it actually saw.
  std::uint64_t bucket_mass = 0;
  for (auto c : s.counts) bucket_mass += c;
  s.total = std::min(s.total, bucket_mass);
  return s;
}

void Histogram::clear() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  total_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

HistogramRegistry& HistogramRegistry::instance() {
  // Leaked: recorded-into from arbitrary threads until process exit.
  static HistogramRegistry* r = new HistogramRegistry();
  return *r;
}

Histogram* HistogramRegistry::get(const std::string& name,
                                  HistogramParams params) {
  std::lock_guard lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, std::make_unique<Histogram>(params)).first;
  }
  return it->second.get();
}

std::map<std::string, HistogramSnapshot> HistogramRegistry::snapshot_all()
    const {
  std::lock_guard lock(mu_);
  std::map<std::string, HistogramSnapshot> out;
  for (const auto& [name, h] : histograms_) out.emplace(name, h->snapshot());
  return out;
}

void HistogramRegistry::clear() {
  std::lock_guard lock(mu_);
  for (auto& [name, h] : histograms_) h->clear();
}

}  // namespace ewc::obs

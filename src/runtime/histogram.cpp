#include "runtime/histogram.hpp"

#include <algorithm>
#include <bit>

namespace sfc::rt {

Histogram::Histogram() : buckets_(kNumBuckets, 0) {}

std::size_t Histogram::bucket_index(std::uint64_t value) noexcept {
  if (value < kExactBuckets) return static_cast<std::size_t>(value);
  const int msb = 63 - std::countl_zero(value);  // >= kFirstOctave here.
  // The 5 bits below the leading one select the linear sub-bucket.
  const auto sub =
      static_cast<std::size_t>(value >> (msb - 5)) & (kSubBuckets - 1);
  return kExactBuckets +
         static_cast<std::size_t>(msb - kFirstOctave) * kSubBuckets + sub;
}

std::uint64_t Histogram::bucket_upper_bound(std::size_t index) noexcept {
  if (index < kExactBuckets) return index;
  const std::size_t rel = index - kExactBuckets;
  const int msb = kFirstOctave + static_cast<int>(rel / kSubBuckets);
  const std::uint64_t sub = rel % kSubBuckets;
  // Bucket covers [ (32+sub) << (msb-5), ((32+sub+1) << (msb-5)) - 1 ].
  return ((kSubBuckets + sub + 1) << (msb - 5)) - 1;
}

void Histogram::record(std::uint64_t value) noexcept { record_n(value, 1); }

void Histogram::record_n(std::uint64_t value, std::uint64_t count) noexcept {
  if (count == 0) return;
  buckets_[bucket_index(value)] += count;
  count_ += count;
  sum_ += value * count;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void Histogram::merge(const Histogram& other) noexcept {
  for (std::size_t i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

std::uint64_t Histogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(count_));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    cumulative += buckets_[i];
    if (cumulative > target || (q >= 1.0 && cumulative >= count_)) {
      return std::min<std::uint64_t>(bucket_upper_bound(i), max_);
    }
  }
  return max_;
}

void Histogram::reset() noexcept {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = ~0ULL;
  max_ = 0;
}

std::vector<std::pair<std::uint64_t, double>> Histogram::cdf() const {
  std::vector<std::pair<std::uint64_t, double>> out;
  if (count_ == 0) return out;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    cumulative += buckets_[i];
    out.emplace_back(std::min<std::uint64_t>(bucket_upper_bound(i), max_),
                     static_cast<double>(cumulative) / static_cast<double>(count_));
  }
  return out;
}

SingleWriterHistogram::SingleWriterHistogram()
    : buckets_(std::make_unique<std::atomic<std::uint64_t>[]>(
          Histogram::kNumBuckets)) {}

void SingleWriterHistogram::merge_into(Histogram& out) const noexcept {
  for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    out.buckets_[i] += buckets_[i].load(std::memory_order_relaxed);
  }
  out.count_ += count_.load(std::memory_order_relaxed);
  out.sum_ += sum_.load(std::memory_order_relaxed);
  out.min_ = std::min(out.min_, min_.load(std::memory_order_relaxed));
  out.max_ = std::max(out.max_, max_.load(std::memory_order_relaxed));
}

}  // namespace sfc::rt

// Log-linear latency histogram (HDR-histogram style).
//
// Values below 64 are bucketed exactly; above that, each power-of-two
// octave is split into 32 linear sub-buckets (~3% relative precision).
// That is plenty for microsecond-to-second latency distributions and lets
// the recorder run at line rate (one increment, no allocation).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace sfc::rt {

class Histogram {
 public:
  Histogram();

  /// Records one value (e.g. nanoseconds).
  void record(std::uint64_t value) noexcept;

  /// Records @p count occurrences of @p value.
  void record_n(std::uint64_t value, std::uint64_t count) noexcept;

  /// Merges another histogram into this one (used to combine per-thread
  /// recorders after a run).
  void merge(const Histogram& other) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t min() const noexcept { return count_ ? min_ : 0; }
  std::uint64_t max() const noexcept { return max_; }
  double mean() const noexcept {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
  }

  /// Value at quantile q in [0,1] (e.g. 0.5, 0.99). Returns an upper bound
  /// of the bucket containing the quantile, clamped to the observed max.
  std::uint64_t quantile(double q) const noexcept;

  std::uint64_t p50() const noexcept { return quantile(0.50); }
  std::uint64_t p90() const noexcept { return quantile(0.90); }
  std::uint64_t p99() const noexcept { return quantile(0.99); }
  std::uint64_t p999() const noexcept { return quantile(0.999); }

  void reset() noexcept;

  /// CDF sampling: returns (value, cumulative_fraction) pairs for all
  /// non-empty buckets — exactly what Figure 11 plots.
  std::vector<std::pair<std::uint64_t, double>> cdf() const;

 private:
  friend class SingleWriterHistogram;

  // 64 exact buckets, then 58 octaves x 32 sub-buckets.
  static constexpr std::size_t kExactBuckets = 64;
  static constexpr std::size_t kSubBuckets = 32;
  static constexpr int kFirstOctave = 6;  // values >= 2^6 use octave buckets.
  static constexpr std::size_t kNumBuckets =
      kExactBuckets + (64 - kFirstOctave) * kSubBuckets;

  static std::size_t bucket_index(std::uint64_t value) noexcept;
  static std::uint64_t bucket_upper_bound(std::size_t index) noexcept;

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_{0};
  std::uint64_t sum_{0};
  std::uint64_t min_{~0ULL};
  std::uint64_t max_{0};
};

/// Histogram recorded by one thread and read by any: record() is relaxed
/// atomic loads and stores — no lock and no read-modify-write on the
/// recording path — and merge_into() copies the cells into a Histogram.
/// Cells are read one at a time, so a copy taken during a record() may
/// hold part of that one sample.
class SingleWriterHistogram {
 public:
  SingleWriterHistogram();

  /// Records one value. Only the owning thread may call this.
  void record(std::uint64_t value) noexcept {
    const auto bump = [](std::atomic<std::uint64_t>& cell, std::uint64_t d) {
      cell.store(cell.load(std::memory_order_relaxed) + d,
                 std::memory_order_relaxed);
    };
    bump(buckets_[Histogram::bucket_index(value)], 1);
    bump(count_, 1);
    bump(sum_, value);
    if (value < min_.load(std::memory_order_relaxed)) {
      min_.store(value, std::memory_order_relaxed);
    }
    if (value > max_.load(std::memory_order_relaxed)) {
      max_.store(value, std::memory_order_relaxed);
    }
  }

  /// Adds the recorded samples to @p out (any thread).
  void merge_into(Histogram& out) const noexcept;

 private:
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~0ULL};
  std::atomic<std::uint64_t> max_{0};
};

}  // namespace sfc::rt

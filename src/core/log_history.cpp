#include "core/log_history.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>

namespace sfc::ftc {

namespace {

constexpr std::align_val_t kRingAlign{rt::kCacheLineSize};
/// Words of the first active span (8 KiB: room for the largest record
/// plus a window of small ones).
constexpr std::uint64_t kInitialSpan = 1024;

/// Holds the writers' mutex in shared mode only (several data workers per
/// node). A conditional lock is beyond clang's thread-safety analysis; the
/// single-writer mode is a discipline the class comment states.
class WriterGuard {
 public:
  WriterGuard(Mutex& m, bool shared) SFC_NO_THREAD_SAFETY_ANALYSIS
      : m_(m), held_(shared) {
    // LINT_HOT_PATH_ALLOW(blocking-lock): several workers per node only
    if (SFC_UNLIKELY(held_)) m_.lock();
  }
  ~WriterGuard() SFC_NO_THREAD_SAFETY_ANALYSIS {
    if (SFC_UNLIKELY(held_)) m_.unlock();
  }
  WriterGuard(const WriterGuard&) = delete;
  WriterGuard& operator=(const WriterGuard&) = delete;

 private:
  Mutex& m_;
  const bool held_;
};

/// Words a record of @p wire bytes occupies (4 bytes of size header).
constexpr std::uint64_t record_words(std::size_t wire) noexcept {
  return (4 + wire + 7) / 8;
}

}  // namespace

LogHistory::LogHistory(std::size_t capacity, bool shared) : shared_(shared) {
  if (capacity == 0) return;
  cap_words_ = std::bit_ceil<std::uint64_t>(capacity * kBytesPerLog / 8);
  // Raw storage: pages are touched only as the active span reaches them.
  words_ = static_cast<std::uint64_t*>(
      ::operator new(cap_words_ * sizeof(std::uint64_t), kRingAlign));
  span_.store(std::min(cap_words_, kInitialSpan), std::memory_order_relaxed);
}

LogHistory::~LogHistory() {
  if (words_ != nullptr) ::operator delete(words_, kRingAlign);
}

std::uint64_t LogHistory::load_word(std::uint64_t pos,
                                    std::uint64_t span) const noexcept {
  return std::atomic_ref<std::uint64_t>(words_[pos & (span - 1)])
      .load(std::memory_order_relaxed);
}

void LogHistory::store_word(std::uint64_t pos, std::uint64_t span,
                            std::uint64_t v) noexcept {
  std::atomic_ref<std::uint64_t>(words_[pos & (span - 1)])
      .store(v, std::memory_order_relaxed);
}

std::size_t LogHistory::claim_words(std::size_t wire_bytes) const noexcept {
  return std::min(record_words(wire_bytes == 0 ? kMaxWireBytes : wire_bytes),
                  cap_words_);
}

bool LogHistory::make_room(std::size_t need) {
  const std::uint64_t begin = begin_.load(std::memory_order_relaxed);
  const std::uint64_t end = end_.load(std::memory_order_relaxed);
  std::uint64_t span = span_.load(std::memory_order_relaxed);
  while (span - (end - begin) - reserved_ < need) {
    if (span == cap_words_) return false;
    // Double the span. A live word keeps its slot unless its position has
    // the old span's bit set; those move up into the new half, which no
    // reader of the old span reads.
    for (std::uint64_t pos = begin; pos < end; ++pos) {
      if ((pos & span) != 0) store_word(pos, 2 * span, load_word(pos, span));
    }
    span *= 2;
    span_.store(span, std::memory_order_release);
  }
  return true;
}

bool LogHistory::reserve(std::size_t wire_bytes) {
  if (words_ == nullptr) return true;
  const WriterGuard guard(mutex_, shared_);
  const std::size_t need = claim_words(wire_bytes);
  if (!make_room(need)) {
    full_waits_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  reserved_ += need;
  return true;
}

void LogHistory::unreserve(std::size_t wire_bytes) {
  if (words_ == nullptr) return;
  const WriterGuard guard(mutex_, shared_);
  reserved_ -= claim_words(wire_bytes);
}

bool LogHistory::record(std::span<const std::uint8_t> wire, bool claimed,
                        std::size_t claim_bytes) {
  if (words_ == nullptr) return true;
  const WriterGuard guard(mutex_, shared_);
  return record_locked(wire, claimed, claim_bytes);
}

bool LogHistory::record_locked(std::span<const std::uint8_t> wire,
                               bool claimed, std::size_t claim_bytes) {
  if (claimed) reserved_ -= claim_words(claim_bytes);
  const std::uint64_t n = record_words(wire.size());
  if (wire.size() < 4 || wire.size() > kMaxWireBytes || !make_room(n)) {
    return false;
  }
  const std::uint64_t pos = end_.load(std::memory_order_relaxed);
  const std::uint64_t span = span_.load(std::memory_order_relaxed);
  // Orders the begin/span updates before these stores: a reader whose
  // copy saw one of them also sees the begin that freed its slot.
  std::atomic_thread_fence(std::memory_order_release);
  std::uint32_t mbox = 0;
  std::memcpy(&mbox, wire.data(), 4);
  store_word(pos, span, wire.size() | (std::uint64_t{mbox} << 32));
  for (std::uint64_t i = 1; i < n; ++i) {
    const std::size_t off = 4 + 8 * (i - 1);
    std::uint64_t w = 0;
    std::memcpy(&w, wire.data() + off, std::min<std::size_t>(8, wire.size() - off));
    store_word(pos + i, span, w);
  }
  newest_ = pos;
  end_.store(pos + n, std::memory_order_release);
  return true;
}

bool LogHistory::record(const PiggybackLog& log, bool claimed,
                        std::size_t claim_bytes) {
  const std::size_t n = wire_log_size(log);
  if (n > kMaxWireBytes) {  // Could never travel: refused, claim returned.
    if (claimed) unreserve(claim_bytes);
    return false;
  }
  std::uint8_t wire[kMaxWireBytes];
  write_wire_log(log, wire);
  return record({wire, n}, claimed, claim_bytes);
}

void LogHistory::prune(const MaxVector& commit) {
  if (words_ == nullptr) return;
  const WriterGuard guard(mutex_, shared_);
  prune_locked(commit);
}

void LogHistory::prune_locked(const MaxVector& commit) {
  const std::uint64_t begin = begin_.load(std::memory_order_relaxed);
  const std::uint64_t end = end_.load(std::memory_order_relaxed);
  const std::uint64_t span = span_.load(std::memory_order_relaxed);
  std::uint64_t pos = begin;
  while (pos < end) {
    // Word 1 is the dependency mask, the words after it the sequence
    // numbers of its partitions, in partition order.
    const std::uint64_t mask = load_word(pos + 1, span);
    std::uint64_t seq_at = pos + 2;
    bool covered = true;
    for (std::uint64_t m = mask; m != 0 && covered; m &= m - 1, ++seq_at) {
      const auto p = static_cast<std::size_t>(std::countr_zero(m));
      covered = load_word(seq_at, span) <= commit.seq[p];
    }
    if (!covered) break;
    pos += record_words(load_word(pos, span) & 0xffffffffU);
  }
  if (pos != begin) begin_.store(pos, std::memory_order_release);
}

std::size_t LogHistory::newest(std::uint8_t* out) const {
  if (words_ == nullptr) return 0;
  const WriterGuard guard(mutex_, shared_);
  const std::uint64_t begin = begin_.load(std::memory_order_relaxed);
  const std::uint64_t end = end_.load(std::memory_order_relaxed);
  if (begin == end || newest_ < begin) return 0;
  const std::uint64_t span = span_.load(std::memory_order_relaxed);
  const std::uint64_t w0 = load_word(newest_, span);
  const std::size_t wire = w0 & 0xffffffffU;
  const auto mbox = static_cast<std::uint32_t>(w0 >> 32);
  std::memcpy(out, &mbox, 4);
  for (std::uint64_t i = 1; i < record_words(wire); ++i) {
    const std::uint64_t w = load_word(newest_ + i, span);
    const std::size_t off = 4 + 8 * (i - 1);
    std::memcpy(out + off, &w, std::min<std::size_t>(8, wire - off));
  }
  return wire;
}

void LogHistory::snapshot(std::vector<std::uint64_t>& words) const {
  words.clear();
  if (words_ == nullptr) return;
  for (;;) {
    const std::uint64_t span = span_.load(std::memory_order_acquire);
    const std::uint64_t begin = begin_.load(std::memory_order_acquire);
    const std::uint64_t end = end_.load(std::memory_order_acquire);
    if (end - begin > span) continue;  // The span grew between the loads.
    words.resize(end - begin);
    for (std::uint64_t i = 0; i < words.size(); ++i) {
      words[i] = load_word(begin + i, span);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (span_.load(std::memory_order_relaxed) != span) continue;
    // Slots the writer reused during the copy held records before the
    // begin it had published by then: drop everything before that begin.
    const std::uint64_t now = begin_.load(std::memory_order_relaxed);
    if (now > begin) {
      words.erase(words.begin(),
                  words.begin() + static_cast<std::ptrdiff_t>(
                                      std::min(now, end) - begin));
    }
    return;
  }
}

void LogHistory::copy_after(const MaxVector& from,
                            std::vector<std::uint8_t>& out) const {
  std::vector<std::uint64_t> words;
  snapshot(words);
  const std::size_t count_at = out.size();
  out.resize(count_at + 4);
  std::uint32_t count = 0;
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(words.data());
  for (std::size_t i = 0; i < words.size();) {
    const std::size_t wire = words[i] & 0xffffffffU;
    const std::size_t n = record_words(wire);
    if (n > words.size() - i) break;  // Unreachable: records are whole.
    const std::span<const std::uint8_t> record{bytes + 8 * i + 4, wire};
    WireLog log;
    if (decode_wire_log(record, log) && !from.covers(log.dep)) {
      out.insert(out.end(), record.begin(), record.end());
      ++count;
    }
    i += n;
  }
  std::memcpy(out.data() + count_at, &count, 4);
}

std::size_t LogHistory::size() const {
  std::vector<std::uint64_t> words;
  snapshot(words);
  std::size_t count = 0;
  for (std::size_t i = 0; i < words.size(); ++count) {
    i += record_words(words[i] & 0xffffffffU);
  }
  return count;
}

}  // namespace sfc::ftc

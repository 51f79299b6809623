// Bounded lock-free multi-producer/multi-consumer queue (Vyukov style).
//
// Used where multiple middlebox threads feed a single link endpoint or a
// control-plane mailbox: each slot carries a sequence number that encodes
// whether it is ready for a producer or a consumer.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "runtime/common.hpp"

namespace sfc::rt {

template <typename T>
class MpmcQueue : NonCopyable {
 public:
  explicit MpmcQueue(std::size_t capacity)
      : mask_(next_pow2(capacity) - 1),
        slots_(std::make_unique<Slot[]>(mask_ + 1)) {
    for (std::size_t i = 0; i <= mask_; ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  bool try_push(T&& value) noexcept {
    return try_push_with([&value](T& slot) { slot = std::move(value); });
  }

  bool try_push(const T& value) noexcept {
    T copy = value;
    return try_push(std::move(copy));
  }

  std::optional<T> try_pop() noexcept {
    std::optional<T> out;
    try_pop_with([&out](T& slot) { out.emplace(std::move(slot)); });
    return out;
  }

  /// try_push() that builds the element in its slot: @p fill(T&) runs on
  /// the claimed slot before it is published, so a large element is
  /// written once instead of built elsewhere and copied in. @p fill runs
  /// only when a slot was claimed; false (fill not called) when full.
  template <typename Fill>
  bool try_push_with(Fill&& fill) noexcept {
    Slot* slot;
    auto pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      slot = &slots_[pos & mask_];
      const auto seq = slot->seq.load(std::memory_order_acquire);
      const auto diff = static_cast<std::intptr_t>(seq) -
                        static_cast<std::intptr_t>(pos);
      if (diff == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // Full.
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
    fill(slot->value);
    slot->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// try_pop() that reads the element in its slot: @p read(T&) runs on the
  /// claimed slot before it is released to producers, so a large element
  /// is never copied out. False (read not called) when empty.
  template <typename Read>
  bool try_pop_with(Read&& read) noexcept {
    Slot* slot;
    auto pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      slot = &slots_[pos & mask_];
      const auto seq = slot->seq.load(std::memory_order_acquire);
      const auto diff = static_cast<std::intptr_t>(seq) -
                        static_cast<std::intptr_t>(pos + 1);
      if (diff == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // Empty.
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
    read(slot->value);
    slot->seq.store(pos + mask_ + 1, std::memory_order_release);
    return true;
  }

  /// Pushes a prefix of @p values, reserving the whole run of slots with a
  /// single CAS on the producer cursor (vs one CAS per element for N
  /// try_push calls). Moves from the consumed prefix and returns its
  /// length; 0 when the queue is full. FIFO order of the burst is
  /// preserved, and bursts interleave safely with singleton push/pop.
  std::size_t try_push_n(std::span<T> values) noexcept {
    if (values.empty()) return 0;
    auto pos = head_.load(std::memory_order_relaxed);
    std::size_t n;
    for (;;) {
      // Count the ready slots from pos forward. A slot counted ready
      // cannot regress before our CAS: only the producer that wins
      // position pos+i may touch it, and winning requires advancing
      // head_ through pos — which would fail our CAS and retry.
      n = 0;
      while (n < values.size()) {
        const auto seq =
            slots_[(pos + n) & mask_].seq.load(std::memory_order_acquire);
        if (seq != pos + n) break;
        ++n;
      }
      if (n == 0) {
        // Distinguish "full" from "lost the race to another producer".
        const auto seq = slots_[pos & mask_].seq.load(std::memory_order_acquire);
        if (static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos) <
            0) {
          return 0;  // Full.
        }
        pos = head_.load(std::memory_order_relaxed);
        continue;
      }
      if (head_.compare_exchange_weak(pos, pos + n,
                                      std::memory_order_relaxed)) {
        break;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      Slot& slot = slots_[(pos + i) & mask_];
      slot.value = std::move(values[i]);
      slot.seq.store(pos + i + 1, std::memory_order_release);
    }
    return n;
  }

  /// Pops up to @p max elements into @p out, reserving the contiguous run
  /// of ready slots with a single CAS on the consumer cursor. Returns the
  /// number popped (0 when empty). The run preserves queue order.
  std::size_t try_pop_n(T* out, std::size_t max) noexcept {
    if (max == 0) return 0;
    auto pos = tail_.load(std::memory_order_relaxed);
    std::size_t n;
    for (;;) {
      n = 0;
      while (n < max) {
        const auto seq =
            slots_[(pos + n) & mask_].seq.load(std::memory_order_acquire);
        if (seq != pos + n + 1) break;
        ++n;
      }
      if (n == 0) {
        const auto seq = slots_[pos & mask_].seq.load(std::memory_order_acquire);
        if (static_cast<std::intptr_t>(seq) -
                static_cast<std::intptr_t>(pos + 1) <
            0) {
          return 0;  // Empty.
        }
        pos = tail_.load(std::memory_order_relaxed);
        continue;
      }
      if (tail_.compare_exchange_weak(pos, pos + n,
                                      std::memory_order_relaxed)) {
        break;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      Slot& slot = slots_[(pos + i) & mask_];
      out[i] = std::move(slot.value);
      slot.seq.store(pos + i + mask_ + 1, std::memory_order_release);
    }
    return n;
  }

  std::size_t size_approx() const noexcept {
    const auto head = head_.load(std::memory_order_acquire);
    const auto tail = tail_.load(std::memory_order_acquire);
    return head > tail ? head - tail : 0;
  }

  std::size_t capacity() const noexcept { return mask_ + 1; }

 private:
  struct Slot {
    std::atomic<std::size_t> seq{0};
    T value{};
  };

  const std::size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  alignas(kCacheLineSize) std::atomic<std::size_t> head_{0};
  alignas(kCacheLineSize) std::atomic<std::size_t> tail_{0};
};

}  // namespace sfc::rt

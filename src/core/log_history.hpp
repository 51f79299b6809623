// Retransmission history of one store (paper §4.1, §5.1): the log records
// a successor may still ask for, kept as raw wire bytes until a commit
// vector covers them.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "base/mutex.hpp"
#include "core/dep_vector.hpp"
#include "core/piggyback.hpp"
#include "packet/packet.hpp"
#include "runtime/common.hpp"

namespace sfc::ftc {

/// A fixed-capacity ring of wire log records, in the window idiom of
/// net::ReliableChannel (sctrltp's sctp_window): cache-line aligned,
/// allocated once and never zero-filled, written by one thread.
///
/// * Writers. The owning data worker — or, in shared mode (several data
///   workers per node, or the control thread replaying NACK replies or
///   finishing parked packets), any of them under a lock that exists for
///   that mode only; restore writes before the workers start. Only commit
///   vectors free room (prune); a full ring refuses (reserve() false) and
///   never evicts, so the caller waits.
/// * Readers (NACK replies, state fetch) copy bytes without a lock: they
///   snapshot [begin, end), copy it, and re-read begin; what the writer
///   overran in the meantime lies before the new begin and is skipped.
///
/// Records are 8-byte words: word 0 holds the wire size (low half) and the
/// record's first four bytes (its mbox), the rest of the record follows, so
/// the dependency mask and sequence numbers sit word-aligned. A record may
/// wrap around the ring end. The ring wraps within an active span — a
/// power of two that doubles, moving the wrapped part of the live window
/// once, only when the live window outgrows it — so pages past the largest
/// window ever live are never touched.
class LogHistory : rt::NonCopyable {
 public:
  /// Ring bytes per log of capacity: one cache line, which holds a record
  /// of up to 60 wire bytes (a one-write log of an 8-byte value on one
  /// partition is 40).
  static constexpr std::size_t kBytesPerLog = rt::kCacheLineSize;
  /// The largest record reserve() guarantees room for: a log must fit a
  /// packet to travel at all.
  static constexpr std::size_t kMaxWireBytes = pkt::Packet::kCapacity;

  /// @param capacity  Logs of kBytesPerLog each (rounded up to a power of
  ///                  two words); 0 keeps no history (a group's tail).
  /// @param shared    Several threads write: a lock serializes them.
  explicit LogHistory(std::size_t capacity, bool shared = false);
  ~LogHistory();

  bool enabled() const noexcept { return words_ != nullptr; }

  // --- Writer side. ---------------------------------------------------
  /// Claims room for one record of @p wire_bytes (0: the largest one a
  /// packet carries; a ring smaller than that must be empty) before the
  /// transaction or apply that produces it runs. False: the ring is full
  /// until a commit prunes it.
  bool reserve(std::size_t wire_bytes = 0);
  /// Returns a reserve(@p wire_bytes) claim that wrote nothing.
  void unreserve(std::size_t wire_bytes = 0);
  /// Appends one wire log record. With @p claimed, consumes a
  /// reserve(@p claim_bytes) claim, which guarantees room; without, the
  /// record takes free room. False (nothing written): no room, or a
  /// record larger than any packet carries.
  bool record(std::span<const std::uint8_t> wire, bool claimed = false,
              std::size_t claim_bytes = 0);
  /// record() for a materialized log (cold paths): serializes it first.
  bool record(const PiggybackLog& log, bool claimed = false,
              std::size_t claim_bytes = 0);
  /// Drops the covered prefix: every oldest record @p commit covers.
  void prune(const MaxVector& commit);
  /// Copies the newest record's wire bytes into @p out (room for
  /// kMaxWireBytes) and returns its size, 0 when the ring is empty.
  std::size_t newest(std::uint8_t* out) const;

  // --- Reader side (any thread, lock-free). -----------------------------
  /// Appends the records @p from does not cover, in order, to @p out in
  /// serialize_logs() format (u32 count, then the records).
  void copy_after(const MaxVector& from, std::vector<std::uint8_t>& out) const;
  /// Live records (a snapshot).
  std::size_t size() const;
  /// Refused reserve() calls: each one is a transaction or apply that
  /// waits for a commit to free room.
  std::uint64_t full_waits() const noexcept {
    return full_waits_.load(std::memory_order_relaxed);
  }

 private:
  /// Copies the live window out of the ring (whole records, oldest first).
  void snapshot(std::vector<std::uint64_t>& words) const;
  std::size_t claim_words(std::size_t wire_bytes) const noexcept;
  /// Grows the span until @p need words are free, if the capacity allows.
  bool make_room(std::size_t need);
  std::uint64_t load_word(std::uint64_t pos, std::uint64_t span) const noexcept;
  void store_word(std::uint64_t pos, std::uint64_t span,
                  std::uint64_t v) noexcept;
  bool record_locked(std::span<const std::uint8_t> wire, bool claimed,
                     std::size_t claim_bytes);
  void prune_locked(const MaxVector& commit);

  std::uint64_t* words_{nullptr};  ///< cap_words_ words, cache-line aligned.
  std::uint64_t cap_words_{0};     ///< Power of two.
  const bool shared_;
  /// Writer-side state: the words claimed by reserve(), and the logical
  /// position of the newest record.
  std::uint64_t reserved_{0};
  std::uint64_t newest_{0};
  alignas(rt::kCacheLineSize) std::atomic<std::uint64_t> begin_{0};
  std::atomic<std::uint64_t> end_{0};
  std::atomic<std::uint64_t> span_{0};  ///< Active span, a power of two.
  std::atomic<std::uint64_t> full_waits_{0};
  /// Serializes writers in shared mode only.
  mutable Mutex mutex_{ranks::kLeaf, "ftc.log_history"};
};

}  // namespace sfc::ftc

// Forwarder and the buffer->forwarder feedback channel (paper §5).
//
// The egress buffer copies each packet's surviving piggyback logs, as wire
// bytes, into a fixed-size record on the feedback channel; the forwarder at
// the chain ingress splices pending records onto incoming packets (merging
// several if the ingress is slower than the egress) so the state of
// chain-end middleboxes replicates at the chain-start servers. Commit
// vectors that heads (and middle replicas) upstream of their tail need
// return the same way, through a per-middlebox "latest commit" slot. When
// the chain is idle, the forwarder's node emits propagating packets
// instead.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "core/config.hpp"
#include "core/piggyback.hpp"
#include "packet/packet_io.hpp"
#include "packet/packet_pool.hpp"
#include "runtime/clock.hpp"
#include "runtime/mpmc_queue.hpp"

namespace sfc::ftc {

/// Frame length of a propagating packet, and the piggyback message bytes
/// its tailroom holds.
inline constexpr std::size_t kPropagatingFrame = 64;
inline constexpr std::size_t kPropagatingRoom = pkt::Packet::kCapacity -
                                                pkt::Packet::kDefaultHeadroom -
                                                kPropagatingFrame;

/// One buffer->forwarder hand-off: a serialized piggyback message (header
/// through footer, exactly as it will sit on the ingress packet) in a
/// fixed-size, allocation-free slot. A message larger than the slot spills:
/// it travels attached to a propagating packet, `carrier`, instead.
struct FeedbackRecord {
  static constexpr std::size_t kCapacity = 240;

  pkt::Packet* carrier{nullptr};
  std::uint32_t size{0};  ///< Bytes of `bytes` in use (0 for a spill).
  std::uint8_t bytes[kCapacity]{};

  std::span<const std::uint8_t> message() const noexcept {
    return {bytes, size};
  }
};

/// The paper's dedicated state-dissemination link from the buffer back to
/// the forwarder (their testbed used a separate 10 GbE link). Records are
/// written and read in their queue slots: a hand-off copies the message
/// bytes once, into the slot, and the forwarder copies them once more, onto
/// the ingress packet.
class FeedbackChannel : rt::NonCopyable {
 public:
  /// @param pool            Source of spill carriers.
  /// @param num_partitions  Commit-vector width of the chain's messages.
  /// @param commit_returns  Bit m set: the commit vectors of middlebox m
  ///                        return to the ingress (returns_commit).
  FeedbackChannel(pkt::PacketPool& pool, std::size_t num_partitions,
                  std::size_t capacity = 1024,
                  std::uint64_t commit_returns = 0)
      : pool_(pool),
        num_partitions_(num_partitions),
        queue_(capacity),
        commit_returns_(commit_returns),
        commits_(std::make_unique<CommitSlot[]>(
            static_cast<std::size_t>(std::bit_width(commit_returns)))) {}
  /// Returns the carriers of records never spliced to their pool.
  ~FeedbackChannel();

  /// True when @p mbox's commit vectors return to the ingress: some member
  /// of its replication group other than the tail (the head, a middle
  /// replica) sits at a position the commit does not pass between its
  /// tail and the buffer.
  bool returns_commit(MboxId mbox) const noexcept {
    return mbox < 64 && ((commit_returns_ >> mbox) & 1U) != 0;
  }

  /// The mbox bits returns_commit() is true for, in a ring of @p ring_size
  /// positions whose first @p num_mboxes carry middleboxes, replicated f+1
  /// times: m + f != ring_size. Below it the tail follows the head, so the
  /// commit never passes the head on its way to the buffer; above it the
  /// tail wraps to position m + f - ring_size > 0 and the group members
  /// before it are missed. Only a tail at position 0 is passed by all.
  static std::uint64_t commit_returns_for(std::uint32_t num_mboxes,
                                          std::uint32_t ring_size,
                                          std::uint32_t f) noexcept {
    std::uint64_t bits = 0;
    for (std::uint32_t m = 0; m < num_mboxes && m < 64; ++m) {
      if (f != 0 && m + f != ring_size) bits |= 1ULL << m;
    }
    return bits;
  }

  /// Buffer side: @p max is the newest commit vector of @p mbox (a
  /// returns_commit() middlebox), which advanced. Overwrites the slot: the
  /// forwarder splices the latest value once. One writer (the buffer).
  void publish_commit(MboxId mbox, const MaxVector& max) noexcept;

  /// Forwarder side: runs merge(MboxId, const MaxVector&) -> bool on each
  /// slot holding a value not spliced yet; a value merge() accepts is
  /// consumed, so each one rides exactly one packet around the ring.
  template <typename Merge>
  void splice_commits(Merge&& merge);

  /// A published commit vector has not been spliced yet.
  bool commit_pending() const noexcept;

  /// Buffer side: whether it holds packets waiting for commits. While it
  /// does, the forwarder keeps sending idle propagating packets — the
  /// commit that releases them may have been lost with a packet.
  void set_held(bool held) noexcept {
    if (held_.load(std::memory_order_relaxed) != held) {
      held_.store(held, std::memory_order_relaxed);
    }
  }
  bool held() const noexcept { return held_.load(std::memory_order_relaxed); }

  /// Hand-offs that found the queue full (or, for a spill, the pool empty)
  /// and waited for the forwarder to make room.
  std::uint64_t full_waits() const noexcept {
    return full_waits_.load(std::memory_order_relaxed);
  }

  /// Feeds back the logs of @p v as raw wire bytes, without its commit
  /// vectors (those return through the commit slots, or end at the
  /// buffer, paper §5.1).
  void push_logs(const PiggybackView& v);

  /// Feeds back @p msg as it is (the materializing submit path).
  void push(const PiggybackMessage& msg);

  /// Logs dropped because no packet could carry them: a single log larger
  /// than a propagating packet's tailroom (the paper's answer is jumbo
  /// frames).
  std::uint64_t oversize_drops() const noexcept {
    return oversize_drops_.load(std::memory_order_relaxed);
  }

  /// Runs fn(const FeedbackRecord&) on the oldest record, in its slot.
  /// Returns false when nothing is pending.
  template <typename Fn>
  bool pop_with(Fn&& fn) {
    return queue_.try_pop_with(
        [&fn](FeedbackRecord& r) { fn(std::as_const(r)); });
  }

  std::size_t pending_approx() const noexcept { return queue_.size_approx(); }

 private:
  /// Hands off a message of @p n parts (logs, in order) that
  /// size(first, last) measures and write(first, last, out) serializes for
  /// parts [first, last). A message larger than a propagating packet holds
  /// is split into several, each the longest run of parts that fits, so
  /// every record stays a complete message and feedback order is kept.
  template <typename Size, typename Write>
  void push_split(std::size_t n, Size&& size, Write&& write);

  /// Hands off a @p size-byte message that write(std::uint8_t*) serializes:
  /// into a slot, or onto a spill carrier when it exceeds one. The channel
  /// must not lose state: a full queue or an empty pool is waited out. A
  /// message larger than a carrier's tailroom is counted and dropped.
  template <typename Write>
  void push_message(std::size_t size, Write&& write);

  /// One middlebox's latest commit vector: a seqlock (even version =
  /// stable; each publish adds 2) over atomic words, and the version the
  /// forwarder spliced last.
  struct alignas(rt::kCacheLineSize) CommitSlot {
    std::atomic<std::uint64_t> version{0};
    std::atomic<std::uint64_t> taken{0};
    std::atomic<std::uint64_t> seq[state::kMaxPartitions]{};
  };

  pkt::PacketPool& pool_;
  const std::size_t num_partitions_;
  rt::MpmcQueue<FeedbackRecord> queue_;
  std::atomic<std::uint64_t> oversize_drops_{0};
  std::atomic<std::uint64_t> full_waits_{0};
  const std::uint64_t commit_returns_;
  std::unique_ptr<CommitSlot[]> commits_;
  std::atomic<bool> held_{false};
};

template <typename Merge>
void FeedbackChannel::splice_commits(Merge&& merge) {
  for (std::uint64_t bits = commit_returns_; bits != 0; bits &= bits - 1) {
    const auto m = static_cast<MboxId>(std::countr_zero(bits));
    CommitSlot& slot = commits_[m];
    std::uint64_t taken = slot.taken.load(std::memory_order_relaxed);
    const std::uint64_t v = slot.version.load(std::memory_order_acquire);
    if (v == taken || (v & 1U) != 0) continue;  // Nothing new, or mid-write.
    MaxVector max;
    for (std::size_t p = 0; p < num_partitions_; ++p) {
      max.seq[p] = slot.seq[p].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.version.load(std::memory_order_relaxed) != v) continue;
    // A racing splicer that took it first leaves a harmless duplicate.
    if (merge(m, std::as_const(max))) {
      slot.taken.compare_exchange_strong(taken, v, std::memory_order_relaxed);
    }
  }
}

class Forwarder : rt::NonCopyable {
 public:
  /// @param pool  Source of the propagating packets records fall back to.
  Forwarder(FeedbackChannel& feedback, const ChainConfig& cfg,
            pkt::PacketPool& pool)
      : feedback_(feedback), cfg_(cfg), pool_(pool) {
    last_activity_ns_.store(rt::now_ns());
  }

  /// Tailroom a packet needs before it takes one more record: any record
  /// fits (attached, or merged into a message already there).
  static constexpr std::size_t kSpliceRoom = FeedbackRecord::kCapacity;

  /// Splices pending records onto @p p, a packet without a message: the
  /// first becomes its tail with one memcpy, up to forwarder_merge_limit
  /// in all merge in place (PiggybackView::merge), and every returned
  /// commit vector not spliced yet merges in (PiggybackView::merge_commit).
  /// @p view receives the
  /// opened message (invalid when nothing was spliced). Records that cannot
  /// ride @p p — a spill, or every record when @p p's tailroom is short —
  /// ride propagating packets instead: they are stored in @p extra (room
  /// for two), in the order they must run right after @p p, and counted.
  /// Returns how many were stored.
  std::size_t splice(pkt::Packet& p, PiggybackView& view, pkt::Packet** extra);

  /// True when the chain has been idle long enough that pending state must
  /// be pushed with a propagating packet: fed-back logs, a returned commit,
  /// or packets the buffer holds (their commit may have been lost).
  bool propagation_due() const noexcept {
    return (feedback_.pending_approx() > 0 || feedback_.commit_pending() ||
            feedback_.held()) &&
           rt::now_ns() - last_activity_ns_.load(std::memory_order_relaxed) >
               cfg_.propagate_interval_ns;
  }

  void note_activity() noexcept {
    last_activity_ns_.store(rt::now_ns(), std::memory_order_relaxed);
  }

  /// Records that arrived as spills (too large for a slot).
  std::uint64_t spills() const noexcept {
    return spills_.load(std::memory_order_relaxed);
  }
  /// Ingress packets whose tailroom could not take a record.
  std::uint64_t tailroom_fallbacks() const noexcept {
    return fallbacks_.load(std::memory_order_relaxed);
  }

  /// Builds a propagating packet (no user payload; skips middleboxes).
  static pkt::Packet* make_propagating_packet(pkt::PacketPool& pool) {
    pkt::Packet* p = pool.alloc_raw();
    if (p == nullptr) return nullptr;
    pkt::FlowKey ctrl{0x7f000001, 0x7f000002, 9999, 9999,
                      pkt::Ipv4Header::kProtoUdp};
    pkt::PacketBuilder(*p).udp(ctrl, kPropagatingFrame);
    p->anno().is_control = true;
    return p;
  }

 private:
  FeedbackChannel& feedback_;
  const ChainConfig& cfg_;
  pkt::PacketPool& pool_;
  std::atomic<std::uint64_t> last_activity_ns_{0};
  std::atomic<std::uint64_t> spills_{0};
  std::atomic<std::uint64_t> fallbacks_{0};
};

}  // namespace sfc::ftc

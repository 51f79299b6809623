// Forwarder and the buffer->forwarder feedback channel (paper §5).
//
// The egress buffer copies each packet's surviving piggyback logs, as wire
// bytes, into a fixed-size record on the feedback channel; the forwarder at
// the chain ingress splices pending records onto incoming packets (merging
// several if the ingress is slower than the egress) so the state of
// chain-end middleboxes replicates at the chain-start servers. When the
// chain is idle, the forwarder's node emits propagating packets instead.
#pragma once

#include <atomic>
#include <cstdint>
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
  FeedbackChannel(pkt::PacketPool& pool, std::size_t num_partitions,
                  std::size_t capacity = 1024)
      : pool_(pool), num_partitions_(num_partitions), queue_(capacity) {}
  /// Returns the carriers of records never spliced to their pool.
  ~FeedbackChannel();

  /// Feeds back the logs of @p v as raw wire bytes, without its commit
  /// vectors (those end their journey at the buffer, paper §5.1).
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

  pkt::PacketPool& pool_;
  const std::size_t num_partitions_;
  rt::MpmcQueue<FeedbackRecord> queue_;
  std::atomic<std::uint64_t> oversize_drops_{0};
};

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
  /// in all merge in place (PiggybackView::merge). @p view receives the
  /// opened message (invalid when nothing was spliced). Records that cannot
  /// ride @p p — a spill, or every record when @p p's tailroom is short —
  /// ride propagating packets instead: they are stored in @p extra (room
  /// for two), in the order they must run right after @p p, and counted.
  /// Returns how many were stored.
  std::size_t splice(pkt::Packet& p, PiggybackView& view, pkt::Packet** extra);

  /// True when the chain has been idle long enough that pending state must
  /// be pushed with a propagating packet.
  bool propagation_due() const noexcept {
    return feedback_.pending_approx() > 0 &&
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

// Egress buffer (paper §5).
//
// Holds packets leaving the chain until the state updates they carried for
// wrap-around middleboxes (those whose tail sits at the chain start) are
// known to be f+1-replicated, i.e. covered by commit vectors observed on
// later packets. Strips the piggyback message and feeds its logs back to
// the forwarder, as wire bytes, via the feedback channel.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "base/mutex.hpp"
#include "core/config.hpp"
#include "core/forwarder.hpp"
#include "core/piggyback.hpp"
#include "net/link.hpp"
#include "obs/registry.hpp"

namespace sfc::ftc {

struct BufferStats {
  std::uint64_t submitted{0};
  std::uint64_t released{0};
  std::uint64_t released_immediately{0};
  std::uint64_t control_consumed{0};
  std::uint64_t high_water{0};
};

class EgressBuffer : rt::NonCopyable {
 public:
  /// @param egress    Link carrying released packets out of the chain.
  /// @param registry  Metrics sink; a private registry is used when null.
  /// @param max_held  Packets that can be held at once (the data pool's
  ///                  size): the hold ring is allocated for them up front,
  ///                  so holding never allocates.
  EgressBuffer(pkt::PacketPool& pool, net::Port& egress,
               FeedbackChannel& feedback, obs::Registry* registry = nullptr,
               std::size_t max_held = 1024);

  /// Accepts a packet at the end of the chain with its final piggyback
  /// message. Consumes both. Control (propagating) packets deliver their
  /// commits and are freed. A commit vector that advances the buffer's
  /// knowledge of a middlebox whose group has members the commit does not
  /// pass on its way here (FeedbackChannel::returns_commit) is published
  /// to the feedback channel's commit slot for the forwarder to return.
  void submit(pkt::Packet* p, PiggybackMessage&& msg);

  /// submit() for the zero-copy path: commits and pending-log headers are
  /// read straight off the packet tail via @p v, and the logs that must
  /// outlive the packet (the feedback hand-off to the forwarder) are copied
  /// as raw wire bytes. The tail is stripped before the packet is held or
  /// released, so packets leave the chain bare exactly as on the legacy
  /// path. @p v may be invalid (packet without a message) and is consumed.
  void submit_wire(pkt::Packet* p, PiggybackView& v);

  /// Absorbs commit vectors into the buffer's release knowledge (also
  /// called by the egress node before message stripping).
  void absorb(std::span<const CommitVector> commits);

  /// Re-checks held packets against current commit knowledge (called on
  /// submit; exposed for drain paths).
  void release_eligible();

  BufferStats stats() const;

  std::size_t held_count() const {
    LockGuard lock(mutex_);
    return n_held_;
  }

 private:
  /// Words of pending-log dependencies a hold keeps inline: per log its
  /// mbox, its dependency mask and one sequence number per touched
  /// partition (three words for a one-partition log).
  static constexpr std::size_t kHeldWords = 14;

  /// One held packet and the dependencies of the logs it carried, inline.
  /// A hold with more than kHeldWords words of them keeps all of them in
  /// spills_ under key `spill` (rare). Trivial, so the ring is allocated
  /// without being written.
  struct Held {
    pkt::Packet* packet;  ///< Null once released (out of order).
    std::uint32_t n_words;
    std::uint32_t spill;  ///< 0: the words are inline.
    std::uint64_t words[kHeldWords];
  };

  /// A fresh (empty) hold for @p p.
  static void reset(Held& held, pkt::Packet* p) noexcept {
    held.packet = p;
    held.n_words = 0;
    held.spill = 0;
  }
  /// Appends one log's dependencies to @p held.
  void add_dep(Held& held, MboxId mbox, const DepVector& dep)
      SFC_REQUIRES(mutex_);
  const std::uint64_t* deps_of(const Held& held) const SFC_REQUIRES(mutex_);

  bool is_covered(const Held& held) const SFC_REQUIRES(mutex_);
  /// Merges @p c into the buffer's commit knowledge and publishes it for
  /// return when it advanced.
  void absorb_locked(const CommitVector& c) SFC_REQUIRES(mutex_);
  /// The next free hold slot at the ring's end (the ring doubles if it is
  /// ever full, which max_held rules out in a chain).
  Held& push_held() SFC_REQUIRES(mutex_);
  /// Shared tail of submit()/submit_wire(), once the commits are absorbed:
  /// holds or releases the (already bare) packet in @p held, runs the
  /// prefix/periodic release scans.
  void submit_core(bool is_control, std::uint64_t trace_id, Held& held)
      SFC_REQUIRES(mutex_);
  /// Stages @p held's packet for release; flush_releases_locked() ships the
  /// whole batch with one bulk send (releases within a submit/scan coalesce).
  void release_locked(Held& held) SFC_REQUIRES(mutex_);
  void flush_releases_locked() SFC_REQUIRES(mutex_);
  /// Releases every covered hold, in or out of order.
  void release_covered_locked() SFC_REQUIRES(mutex_);
  /// Drops released slots off the ring's front.
  void trim_front_locked() SFC_REQUIRES(mutex_);

  pkt::PacketPool& pool_;
  net::Port& egress_;
  FeedbackChannel& feedback_;
  obs::Registry* registry_{nullptr};  ///< Span sink lookup (never null).

  /// Node-level rank: flush_releases_locked() drives the egress Link /
  /// ReliableChannel (lower ranks) while this is held.
  mutable Mutex mutex_{ranks::kNode, "ftc.egress_buffer"};
  /// Holds in arrival order: a ring of cap_ (a power of two) slots,
  /// [head_, head_ + span_) in use, n_held_ of them live.
  std::unique_ptr<Held[]> held_ SFC_GUARDED_BY(mutex_);
  std::size_t cap_ SFC_GUARDED_BY(mutex_){0};
  std::size_t head_ SFC_GUARDED_BY(mutex_){0};
  std::size_t span_ SFC_GUARDED_BY(mutex_){0};
  std::size_t n_held_ SFC_GUARDED_BY(mutex_){0};
  /// Dependencies of holds too large for their inline words.
  std::unordered_map<std::uint32_t, std::vector<std::uint64_t>> spills_
      SFC_GUARDED_BY(mutex_);
  std::uint32_t next_spill_ SFC_GUARDED_BY(mutex_){0};
  /// Scratch slot for a control packet (never held).
  Held scratch_ SFC_GUARDED_BY(mutex_){};
  std::unordered_map<MboxId, MaxVector> known_commits_ SFC_GUARDED_BY(mutex_);
  std::uint64_t full_scans_ SFC_GUARDED_BY(mutex_){0};

  // Release staging: packets released by the current submit/scan, shipped
  // in order with one send_burst.
  std::size_t n_stage_ SFC_GUARDED_BY(mutex_){0};
  pkt::Packet* release_stage_[kMaxBurst] SFC_GUARDED_BY(mutex_);

  std::unique_ptr<obs::Registry> own_registry_;
  obs::Counter* submitted_;
  obs::Counter* released_;
  obs::Counter* released_immediately_;
  obs::Counter* control_consumed_;
  obs::Gauge* held_gauge_;
  obs::Gauge* high_water_;
};

}  // namespace sfc::ftc

// Egress buffer (paper §5).
//
// Holds packets leaving the chain until the state updates they carried for
// wrap-around middleboxes (those whose tail sits at the chain start) are
// known to be f+1-replicated, i.e. covered by commit vectors observed on
// later packets. Strips the piggyback message and feeds its logs back to
// the forwarder, as wire bytes, via the feedback channel.
#pragma once

#include <cstdint>
#include <deque>
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
  /// @param egress  Link carrying released packets out of the chain.
  /// @param registry Metrics sink; a private registry is used when null.
  EgressBuffer(pkt::PacketPool& pool, net::Port& egress,
               FeedbackChannel& feedback, obs::Registry* registry = nullptr);

  /// Accepts a packet at the end of the chain with its final piggyback
  /// message. Consumes both. Control (propagating) packets deliver their
  /// commits and are freed.
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
    return held_.size();
  }

 private:
  struct PendingLog {
    MboxId mbox;
    DepVector dep;
  };

  struct Held {
    pkt::Packet* packet;
    std::vector<PendingLog> pending;
  };

  bool is_covered(const Held& held) const SFC_REQUIRES(mutex_);
  /// Shared tail of submit()/submit_wire(): absorbs @p commits, holds or
  /// releases the (already bare) packet, runs the prefix/periodic release
  /// scans.
  void submit_core(pkt::Packet* p, bool is_control, std::uint64_t trace_id,
                   std::span<const CommitVector> commits,
                   std::vector<PendingLog>&& pending) SFC_EXCLUDES(mutex_);
  /// Stages @p held's packet for release; flush_releases_locked() ships the
  /// whole batch with one bulk send (releases within a submit/scan coalesce).
  void release_locked(Held& held) SFC_REQUIRES(mutex_);
  void flush_releases_locked() SFC_REQUIRES(mutex_);

  pkt::PacketPool& pool_;
  net::Port& egress_;
  FeedbackChannel& feedback_;
  obs::Registry* registry_{nullptr};  ///< Span sink lookup (never null).

  /// Node-level rank: flush_releases_locked() drives the egress Link /
  /// ReliableChannel (lower ranks) while this is held.
  mutable Mutex mutex_{ranks::kNode, "ftc.egress_buffer"};
  std::deque<Held> held_ SFC_GUARDED_BY(mutex_);
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

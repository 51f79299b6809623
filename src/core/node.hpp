// FTC server node (paper §5): one ring position of a fault-tolerant chain.
//
// Each node hosts
//   * the head store of its own middlebox (if this ring position carries a
//     middlebox — chains shorter than f+1 are extended with pure replica
//     positions, paper §5.1),
//   * in-order appliers for the f preceding middleboxes (this node is a
//     member of their replication groups and the *tail* of exactly one),
//   * the data-plane workers that per packet: apply piggybacked logs, do
//     tail duty (strip + commit vector), run the packet transaction,
//     append the new log, and forward,
//   * a control endpoint (heartbeats, retransmissions, state fetch).
//
// Ring position 0 additionally runs the Forwarder, the last position the
// EgressBuffer.
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "base/mutex.hpp"
#include "core/buffer.hpp"
#include "core/config.hpp"
#include "core/forwarder.hpp"
#include "core/stores.hpp"
#include "mbox/middlebox.hpp"
#include "net/control.hpp"
#include "net/link.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "runtime/histogram.hpp"
#include "runtime/meter.hpp"
#include "runtime/worker.hpp"

namespace sfc::ftc {

/// Control-plane message types used by FTC nodes and the orchestrator.
enum CtrlMsg : std::uint32_t {
  kPing = 1,
  kPong,
  kNack,        ///< Retransmit request: payload = mbox id + MAX vector.
  kNackResp,    ///< Payload = mbox id + serialized logs.
  kFetchReq,    ///< State fetch: payload = mbox id.
  kFetchResp,   ///< Payload = mbox id + ok flag + store/MAX/history blob.
  kInit,        ///< Orchestrator -> new replica: begin recovery.
  kInitAck,
  kRecovered,   ///< New replica -> orchestrator: state recovery finished.
};

struct NodeStats {
  std::uint64_t packets_processed{0};
  std::uint64_t control_packets{0};
  std::uint64_t logs_applied{0};
  std::uint64_t logs_duplicate{0};
  std::uint64_t packets_parked{0};
  std::uint64_t nacks_sent{0};
  std::uint64_t nacks_served{0};
  std::uint64_t drops_filtered{0};
  std::uint64_t drops_unparseable{0};
  std::uint64_t oversize_detours{0};
};

/// The node's registry-backed counters. The hot path increments these
/// directly (relaxed atomics in the registry); stats() reads the same
/// cells, so there is no second bookkeeping copy.
struct NodeCounters {
  obs::Counter* packets_processed{nullptr};
  obs::Counter* control_packets{nullptr};
  obs::Counter* logs_applied{nullptr};
  obs::Counter* logs_duplicate{nullptr};
  obs::Counter* packets_parked{nullptr};
  obs::Counter* nacks_sent{nullptr};
  obs::Counter* nacks_served{nullptr};
  obs::Counter* drops_filtered{nullptr};
  obs::Counter* drops_unparseable{nullptr};
  obs::Counter* oversize_detours{nullptr};

  NodeStats snapshot() const {
    NodeStats s;
    s.packets_processed = packets_processed->value();
    s.control_packets = control_packets->value();
    s.logs_applied = logs_applied->value();
    s.logs_duplicate = logs_duplicate->value();
    s.packets_parked = packets_parked->value();
    s.nacks_sent = nacks_sent->value();
    s.nacks_served = nacks_served->value();
    s.drops_filtered = drops_filtered->value();
    s.drops_unparseable = drops_unparseable->value();
    s.oversize_detours = oversize_detours->value();
    return s;
  }
};

class FtcNode : rt::NonCopyable {
 public:
  using MboxFactory = std::function<std::unique_ptr<mbox::Middlebox>()>;

  struct Params {
    net::NodeId id{0};
    std::uint32_t position{0};    ///< Ring position.
    std::uint32_t ring_size{0};   ///< max(chain length, f+1).
    std::uint32_t num_mboxes{0};  ///< Real middleboxes (ring prefix).
    const ChainConfig* cfg{nullptr};
    pkt::PacketPool* pool{nullptr};
    net::ControlPlane* ctrl{nullptr};
    obs::Registry* registry{nullptr};  ///< Metrics/trace sink; a private
                                       ///< registry is used when null.
    MboxFactory mbox_factory;     ///< Empty for pure replica positions.
  };

  explicit FtcNode(Params params);
  ~FtcNode();

  // --- Wiring (done by the chain runtime / orchestrator). ---
  void attach_data_path(net::Port* in, net::Port* out);
  /// Makes this node the chain ingress. Also registers the head-ingress
  /// piggyback size histograms (the paper's Fig. 5 state-size axis).
  void set_forwarder(Forwarder* fwd);
  void set_buffer(EgressBuffer* buf) { buffer_ = buf; }
  /// Updates the ring predecessor (NACK target). A change clears the
  /// per-store NACK throttle state: the gap gate must not carry over to a
  /// freshly rerouted predecessor, or it would suppress the first
  /// legitimate NACK to a replacement node.
  void set_ring_pred(net::NodeId pred);

  /// Starts data workers and the control endpoint.
  void start();
  /// Starts only the control endpoint (a new replica before recovery).
  void start_control();
  /// Graceful stop (drains nothing; used at experiment teardown).
  void stop();
  /// Crash-stop failure (paper's fail-stop model): threads halt, state is
  /// lost, the control endpoint goes silent.
  void fail();
  bool has_failed() const noexcept { return failed_.load(); }

  // --- Recovery (paper §5.2), run on a fresh node. ---
  /// Fetches each store from @p sources (mbox id -> node currently holding
  /// that state): the head store from the ring successor, applier stores
  /// from the ring predecessor. Fetches run in parallel, one thread per
  /// replication group, mirroring the paper's control module.
  bool recover_from(const std::vector<std::pair<MboxId, net::NodeId>>& sources,
                    std::uint64_t timeout_ns = 5'000'000'000);

  // --- Introspection. ---
  net::NodeId id() const noexcept { return id_; }
  std::uint32_t position() const noexcept { return position_; }
  bool has_mbox() const noexcept { return head_ != nullptr; }
  HeadStore* head() noexcept { return head_.get(); }
  InOrderApplier* applier(MboxId mbox) noexcept;
  NodeStats stats() const;
  /// Parked packets, including those a drain has taken out to retry.
  std::size_t parked_count() const {
    LockGuard lock(park_mutex_);
    return parked_.size() + parked_in_hand_;
  }
  /// Per-store NACK throttle entries currently held (tests assert a ring
  /// predecessor change clears them; see set_ring_pred).
  std::size_t nack_throttle_entries() const {
    LockGuard lock(park_mutex_);
    return last_nack_ns_.size();
  }
  /// Quiescence stamp: the bursts this node's workers have taken so far,
  /// or nullopt while one holds packets or feedback it took from a queue
  /// and has not finished with (a polled burst, an idle-time propagating
  /// packet, an idle drain). Those sit in no queue, so quiescence checks
  /// must consult this too — they can carry logs the successors have not
  /// applied yet. Taken before and after the queue checks, two equal
  /// stamps show no worker took anything in between. A poll in progress
  /// is waited out: an empty one is no burst, so an idle chain reads idle.
  std::optional<std::uint64_t> burst_stamp() const;
  /// True while any cross-shard handoff ring holds an un-drained portion
  /// (shard-affine mode). Quiescence checks must consult this: an enqueued
  /// portion's log counted as applied at classification but its writes
  /// reach the store only at the owner's drain.
  bool handoff_pending() const noexcept {
    return handoff_mesh_ != nullptr &&
           (!handoff_mesh_->empty() ||
            handoff_deferred_count_.load(std::memory_order_acquire) != 0);
  }
  /// This node's protocol event trace (park/NACK/recovery transitions).
  const obs::EventTrace& trace() const noexcept { return *trace_; }
  const rt::Meter& meter() const noexcept { return meter_; }
  mbox::Middlebox* middlebox() noexcept { return mbox_.get(); }

  /// Ring position this node is the tail for (or ring_size if none).
  std::uint32_t tail_of() const noexcept;

  /// Per-packet cycle accounting for the Table-2 breakdown benchmark.
  struct CycleBreakdown {
    std::uint64_t packets{0};
    std::uint64_t process_cycles{0};   ///< Packet transaction execution.
    std::uint64_t piggyback_cycles{0}; ///< Extract/apply/append messages.
    std::uint64_t forward_cycles{0};
  };
  CycleBreakdown cycle_breakdown() const;
  void enable_cycle_accounting(bool on) noexcept { account_cycles_ = on; }

  /// Productive CPU time per packet (cycles), excluding time blocked on a
  /// full downstream queue. Used by the pipeline-throughput metric: on a
  /// timeshared host, the throughput a real one-server-per-stage
  /// deployment would reach is 1 / max over stages of this cost.
  double busy_cycles_per_packet() const {
    LockGuard lock(busy_mutex_);
    // Median: per-sample rdtsc spans include preemption by the other
    // simulated servers timesharing this host; outliers of milliseconds
    // would swamp a mean of sub-microsecond sections.
    return busy_hist_.count() ? static_cast<double>(busy_hist_.p50()) : 0.0;
  }

  /// @param weight Number of packets the (per-packet averaged) sample
  ///               covers: a full burst contributes one sample per packet,
  ///               so the median is packet-weighted, not burst-weighted.
  void record_busy(std::uint64_t cycles, std::uint64_t weight = 1) {
    LockGuard lock(busy_mutex_);
    busy_hist_.record_n(cycles, weight);
  }

 private:
  struct Work {
    pkt::Packet* packet{nullptr};
    PiggybackMessage msg;
    std::size_t next_log{0};
    std::uint64_t parked_at_ns{0};
    std::uint32_t thread_id{0};
  };

  /// Sentinel for ViewWork::held_at: no log of this packet is held.
  static constexpr std::uint32_t kNoHeldLog = ~0U;

  /// Per-packet state of the zero-copy burst path: the opened tail view
  /// plus the message-order index of the first log that stayed held after
  /// the burst apply (such packets fall back to the materializing
  /// park/drain machinery).
  struct ViewWork {
    PiggybackView view;
    std::uint32_t held_at{kNoHeldLog};
  };

  /// Packets one burst can run: the polled ones plus the propagating
  /// packets feedback records spilled onto (at most two per packet; the
  /// ingress stops splicing when they might not fit).
  static constexpr std::size_t kBurstViews = 2 * kMaxBurst;

  /// What a worker holds, published for burst_stamp(): bits 0-1 the
  /// phase, the rest the bursts taken so far.
  enum Phase : std::uint64_t { kIdle = 0, kPolling = 1, kHolding = 2 };

  /// Per data worker state, reused across bursts: the phase word, and the
  /// burst's packet and view arrays (built for the packets a burst holds,
  /// not for kBurstViews).
  struct WorkerState {
    alignas(rt::kCacheLineSize) std::atomic<std::uint64_t> phase{kIdle};
    std::uint64_t bursts{0};
    /// Head-ingress piggyback size distributions (recorded at the chain
    /// ingress only).
    rt::SingleWriterHistogram pb_bytes;
    rt::SingleWriterHistogram pb_logs;
    pkt::Packet* pkts[kBurstViews];
    ViewWork vw[kBurstViews];

    void set_phase(Phase ph) noexcept {
      phase.store((bursts << 2) | ph, std::memory_order_seq_cst);
    }
  };

  bool worker_body(std::uint32_t thread_id);
  /// Chain ingress: splices pending feedback onto the @p got polled
  /// packets (and the propagating packets records spill onto) into
  /// @p ws's arrays, opening every view. Returns the packets to run.
  std::size_t splice_feedback(pkt::Packet** rx, std::size_t got,
                              WorkerState& ws);
  /// Runs @p n packets with opened views through the zero-copy path:
  /// apply_logs_burst, then process_view and a parked drain per packet.
  void run_views(pkt::Packet** pkts, ViewWork* vw, std::size_t n,
                 std::uint32_t thread_id);
  /// Phase A over a whole rx burst of tail views: logs are grouped per
  /// applier so each MAX mutex and each touched store partition is taken
  /// once per burst, and applicable writes are copied straight from the
  /// wire. Marks packets with still-held logs in @p vw.
  void apply_logs_burst(ViewWork* vw, std::size_t n);
  /// Phases B-D on the packet tail in place. Falls back to the
  /// materializing path when a log is held or the tailroom runs out.
  void process_view(pkt::Packet* p, ViewWork& vw, std::uint32_t thread_id);
  void process_work(Work&& work);
  /// Phase A: applies piggyback logs in order. Returns false when blocked
  /// on a missing predecessor log (the caller parks the work).
  bool apply_logs(Work& work);
  void park(Work&& work);
  /// Phases B-D.
  void finish_work(Work&& work);
  void emit(pkt::Packet* p, PiggybackMessage&& msg);
  /// Immediate (non-staged) send with blocked-cycle accounting.
  void send_now(net::Port* out, pkt::Packet* p);
  void emit_propagating(PiggybackMessage&& msg);
  void drain_parked();
  /// Applies every handoff entry queued for worker @p thread_id's shard.
  /// Returns entries consumed. Owner-only (or control under quiesce).
  std::size_t drain_handoff(std::uint32_t thread_id);
  void check_parked_timeouts();
  void handle_control();
  void handle_init(const net::Message& req);
  void handle_fetch(const net::Message& req);
  void handle_nack(const net::Message& req);
  void handle_nack_resp(const net::Message& resp);
  bool replicates(MboxId mbox) const noexcept;
  void quiesce_and(const std::function<void()>& fn);

  // Identity / topology.
  const net::NodeId id_;
  const std::uint32_t position_;
  const std::uint32_t ring_size_;
  const std::uint32_t num_mboxes_;
  const ChainConfig& cfg_;
  pkt::PacketPool& pool_;
  net::ControlPlane& ctrl_;
  std::atomic<net::NodeId> ring_pred_id_{0};

  // Data path.
  std::atomic<net::Port*> in_link_{nullptr};
  std::atomic<net::Port*> out_link_{nullptr};
  Forwarder* forwarder_{nullptr};
  EgressBuffer* buffer_{nullptr};

  // State.
  std::unique_ptr<mbox::Middlebox> mbox_;
  std::unique_ptr<HeadStore> head_;
  std::map<MboxId, std::unique_ptr<InOrderApplier>> appliers_;

  // Shard-affine mode (cfg.ownership): partition→worker ownership map and
  // the SPSC handoff mesh carrying cross-shard portions to their owner.
  // Null in locked mode (and when threads_per_node exceeds the shard cap).
  std::unique_ptr<state::ShardMap> shard_map_;
  std::unique_ptr<StateHandoffMesh> handoff_mesh_;
  /// Per-owner parking lot for drained handoff entries whose predecessor
  /// seq sits in another producer's ring (rings are FIFO per producer, not
  /// across producers). Each element is touched only by its owning worker
  /// (or by control under quiesce); the atomic count feeds quiescence.
  std::array<std::vector<StateHandoff>, state::ShardMap::kMaxWorkers>
      handoff_deferred_;
  std::atomic<std::size_t> handoff_deferred_count_{0};

  // Hot-path caches, resolved once in the constructor (appliers_ is
  // immutable after construction): applier() walks this flat array (at
  // most f entries, usually one) instead of the std::map, and tail duty
  // skips the per-packet tail_of() + lookup.
  std::vector<std::pair<MboxId, InOrderApplier*>> applier_cache_;
  std::uint32_t tail_mbox_{0};               ///< == ring_size_ if none.
  InOrderApplier* tail_applier_{nullptr};
  std::size_t burst_size_{1};                ///< cfg clamp to [1, kMaxBurst].

  // Tail duty: applied-count at the last commit-vector attach.
  std::atomic<std::uint64_t> last_commit_attach_{~0ULL};

  // Parked packets awaiting missing piggyback logs. Node rank: held only
  // for container manipulation, but the registry's snapshot callbacks take
  // it (parked_count), so it must rank below obs.registry.
  mutable Mutex park_mutex_{ranks::kNode, "node.park"};
  std::vector<Work> parked_ SFC_GUARDED_BY(park_mutex_);
  /// Parked work a drain has taken out and not yet finished or re-parked.
  std::size_t parked_in_hand_ SFC_GUARDED_BY(park_mutex_){0};
  std::map<MboxId, std::uint64_t> last_nack_ns_ SFC_GUARDED_BY(park_mutex_);
  /// Mirror of parked_.size(), updated under park_mutex_, read lock-free
  /// by idle data workers: in shard mode the control thread must not run
  /// drain_parked (its transactions would dodge shard ownership), so
  /// workers poll this to pick up control-replayed unblocks.
  std::atomic<std::size_t> parked_size_{0};

  // Threads.
  std::vector<std::unique_ptr<rt::Worker>> workers_;
  std::unique_ptr<rt::Worker> control_worker_;
  std::atomic<bool> failed_{false};
  std::atomic<bool> quiesced_{false};
  std::atomic<int> active_workers_{0};
  std::unique_ptr<WorkerState[]> worker_state_;

  // Stats / observability.
  rt::Meter meter_;
  std::unique_ptr<obs::Registry> own_registry_;
  obs::Registry* registry_{nullptr};
  NodeCounters stats_;
  obs::EventTrace* trace_{nullptr};
  bool account_cycles_{false};
  mutable Mutex busy_mutex_{ranks::kLeaf, "node.busy_hist"};
  rt::Histogram busy_hist_ SFC_GUARDED_BY(busy_mutex_);
  bool pb_hists_registered_{false};
  std::atomic<std::uint64_t> cyc_packets_{0};
  std::atomic<std::uint64_t> cyc_process_{0};
  std::atomic<std::uint64_t> cyc_piggyback_{0};
  std::atomic<std::uint64_t> cyc_forward_{0};
};

}  // namespace sfc::ftc

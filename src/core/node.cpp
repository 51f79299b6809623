#include "core/node.hpp"

#include <algorithm>
#include <cstring>
#include <thread>

#include "obs/prof.hpp"
#include "obs/span.hpp"
#include "runtime/clock.hpp"
#include "runtime/logging.hpp"

namespace sfc::ftc {

namespace {

/// Cold path of the tracing branch: call only after trace_id != 0 (or,
/// for protocol-rate recovery spans, unconditionally — the sink check is
/// the gate).
inline void span_event(obs::Registry* reg, std::uint32_t site,
                       std::uint64_t trace_id, obs::SpanKind kind,
                       std::uint64_t a = 0) noexcept {
  if (auto* sink = reg->span_sink()) {
    sink->record(obs::SpanRecord{trace_id, rt::now_ns(), a, site, kind});
  }
}

// Cycles the current thread spent blocked on full downstream queues while
// processing the current packet; subtracted from busy accounting.
thread_local std::uint64_t t_blocked_cycles = 0;

// Per-thread burst scope. While a data worker processes one rx burst, its
// egress packets are staged in `tx` (flushed with one send_burst) and the
// per-packet bookkeeping (meter, packets_processed, cycle breakdown)
// accumulates here, flushed once per burst. Callers outside the owning
// node's burst loop — the control worker draining parked packets, the
// propagation path — see `owner != this` and take the immediate path, so
// protocol semantics never depend on an open scope.
struct BurstScope {
  sfc::ftc::FtcNode* owner{nullptr};
  sfc::net::Port* out{nullptr};
  std::size_t n_tx{0};
  std::uint64_t data_packets{0};
  std::uint64_t data_bytes{0};
  std::uint64_t control_packets{0};
  std::uint64_t cyc_packets{0};
  std::uint64_t cyc_process{0};
  std::uint64_t cyc_piggyback{0};
  std::uint64_t cyc_forward{0};
  // Budget profiler (obs/prof): the worker's slot while a profiled burst
  // is open (null otherwise — one thread-local null check per stage when
  // profiling is disabled), and the burst's per-stage cycle accumulators,
  // flushed to the slot once per burst. `prof_mark` is the chained stage
  // boundary: every bracket covers [prof_mark, now] and advances it, so
  // the stages tile the burst window — glue between brackets lands in the
  // next stage instead of going unattributed, and a nested bracket that
  // advanced the mark automatically shrinks its enclosing one.
  obs::ProfSlot* prof{nullptr};
  std::uint64_t prof_mark{0};
  std::uint64_t prof_cycles[obs::kProfStageCount]{};
  pkt::Packet* tx[sfc::ftc::kMaxBurst];

  void prof_add(obs::ProfStage stage, std::uint64_t d) noexcept {
    prof_cycles[static_cast<std::size_t>(stage)] += d;
  }
};
thread_local BurstScope t_burst;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + 4);
}

bool take_u32(std::span<const std::uint8_t>& in, std::uint32_t& v) {
  if (in.size() < 4) return false;
  std::memcpy(&v, in.data(), 4);
  in = in.subspan(4);
  return true;
}

void put_max(std::vector<std::uint8_t>& out, const MaxVector& v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(v.seq.data());
  out.insert(out.end(), p, p + sizeof(v.seq));
}

bool take_max(std::span<const std::uint8_t>& in, MaxVector& v) {
  if (in.size() < sizeof(v.seq)) return false;
  std::memcpy(v.seq.data(), in.data(), sizeof(v.seq));
  in = in.subspan(sizeof(v.seq));
  return true;
}

}  // namespace

FtcNode::FtcNode(Params params)
    : id_(params.id),
      position_(params.position),
      ring_size_(params.ring_size),
      num_mboxes_(params.num_mboxes),
      cfg_(*params.cfg),
      pool_(*params.pool),
      ctrl_(*params.ctrl) {
  if (params.registry != nullptr) {
    registry_ = params.registry;
  } else {
    own_registry_ = std::make_unique<obs::Registry>();
    registry_ = own_registry_.get();
  }
  const obs::Labels labels{{"node", std::to_string(id_)},
                           {"pos", std::to_string(position_)}};
  stats_.packets_processed = &registry_->counter("node.packets_processed", labels);
  stats_.control_packets = &registry_->counter("node.control_packets", labels);
  stats_.logs_applied = &registry_->counter("node.logs_applied", labels);
  stats_.logs_duplicate = &registry_->counter("node.logs_duplicate", labels);
  stats_.packets_parked = &registry_->counter("node.packets_parked", labels);
  stats_.nacks_sent = &registry_->counter("node.nacks_sent", labels);
  stats_.nacks_served = &registry_->counter("node.nacks_served", labels);
  stats_.drops_filtered = &registry_->counter("node.drops_filtered", labels);
  stats_.drops_unparseable =
      &registry_->counter("node.drops_unparseable", labels);
  stats_.oversize_detours =
      &registry_->counter("node.oversize_detours", labels);
  trace_ = &registry_->trace("node.events", labels);
  registry_->name_span_site(obs::span_site_node(id_),
                            "node " + std::to_string(id_) + " pos" +
                                std::to_string(position_));
  registry_->gauge_fn("node.parked", labels, [this] {
    return static_cast<double>(parked_count());
  });
  registry_->gauge_fn("node.mbox_packets", labels, [this] {
    return static_cast<double>(meter_.packets());
  });
  registry_->histogram_fn("node.busy_cycles", labels, [this] {
    LockGuard lock(busy_mutex_);
    return busy_hist_;
  });
  ctrl_.register_node(id_);
  if (position_ < num_mboxes_ && params.mbox_factory) {
    mbox_ = params.mbox_factory();
    head_ = std::make_unique<HeadStore>(position_, cfg_);
  }
  // Appliers for the f preceding ring positions that carry middleboxes.
  for (std::uint32_t k = 1; k <= cfg_.f && k < ring_size_; ++k) {
    const std::uint32_t m = (position_ + ring_size_ - k) % ring_size_;
    if (m < num_mboxes_) {
      // The group's tail (k == f) keeps no history.
      appliers_.emplace(m, std::make_unique<InOrderApplier>(m, cfg_, k < cfg_.f));
    }
  }
  // Hot-path caches (appliers_ is immutable from here on).
  for (const auto& [m, a] : appliers_) applier_cache_.emplace_back(m, a.get());
  tail_mbox_ = tail_of();
  tail_applier_ = tail_mbox_ != ring_size_ ? applier(tail_mbox_) : nullptr;
  burst_size_ = std::clamp<std::size_t>(cfg_.burst_size, 1, kMaxBurst);
  worker_state_ = std::make_unique<WorkerState[]>(cfg_.threads_per_node);

  // Shard-affine state (cfg.ownership): partition ownership + handoff
  // mesh, enabled before any worker exists. Appliers shard at any thread
  // count; the head's transaction fast path engages only when exactly one
  // thread transacts (multi-threaded heads keep wound-wait 2PL — that IS
  // their concurrency control).
  const auto workers = static_cast<std::uint32_t>(cfg_.threads_per_node);
  if (cfg_.ownership == Ownership::kShardAffine &&
      workers <= state::ShardMap::kMaxWorkers && !appliers_.empty()) {
    shard_map_ = std::make_unique<state::ShardMap>(cfg_.num_partitions, workers);
    // One producer row per data worker plus one for the control thread
    // (NACK replay offers from there and owns no shard).
    handoff_mesh_ = std::make_unique<StateHandoffMesh>(
        workers + 1, workers, cfg_.handoff_capacity);
    for (auto& [m, a] : appliers_) {
      a->enable_shard_affine(shard_map_.get(), handoff_mesh_.get());
    }
  }
  if (cfg_.ownership == Ownership::kShardAffine && head_ != nullptr &&
      cfg_.threads_per_node == 1) {
    head_->enable_shard_affine();
  }
  const obs::Labels slabels{{"node", std::to_string(id_)},
                            {"pos", std::to_string(position_)}};
  registry_->gauge_fn("state.partition_keys_hw", slabels, [this] {
    std::uint64_t hw = head_ != nullptr ? head_->store().keys_high_water() : 0;
    for (const auto& [m, a] : applier_cache_) {
      hw = std::max(hw, a->store().keys_high_water());
    }
    return static_cast<double>(hw);
  });
  registry_->gauge_fn("state.handoff_depth_hw", slabels, [this] {
    return handoff_mesh_ != nullptr
               ? static_cast<double>(handoff_mesh_->depth_high_water())
               : 0.0;
  });
  // Transactions and applies that waited for room in a full history.
  registry_->gauge_fn("history.full_waits", slabels, [this] {
    std::uint64_t waits =
        head_ != nullptr ? head_->history().full_waits() : 0;
    for (const auto& [m, a] : applier_cache_) {
      waits += a->history().full_waits();
    }
    return static_cast<double>(waits);
  });
  registry_->gauge_fn("state.owner_miss", slabels, [this] {
    return head_ != nullptr
               ? static_cast<double>(head_->txn_ctx().owner_misses())
               : 0.0;
  });
}

FtcNode::~FtcNode() {
  stop();
  // The shared registry outlives this node: drop snapshot callbacks that
  // capture `this` before the members they read are destroyed.
  registry_->remove_matching("node", std::to_string(id_));
}

void FtcNode::attach_data_path(net::Port* in, net::Port* out) {
  in_link_.store(in);
  out_link_.store(out);
}

void FtcNode::set_ring_pred(net::NodeId pred) {
  const net::NodeId old = ring_pred_id_.exchange(pred);
  if (old == pred || old == 0) return;
  // Rerouted to a different predecessor: the per-store NACK gap gate
  // tracked requests to the OLD node. A stale timestamp here would
  // silently swallow the first NACK the replacement needs to serve.
  LockGuard lock(park_mutex_);
  last_nack_ns_.clear();
}

void FtcNode::set_forwarder(Forwarder* fwd) {
  forwarder_ = fwd;
  if (fwd == nullptr || pb_hists_registered_) return;
  pb_hists_registered_ = true;
  const obs::Labels labels{{"node", std::to_string(id_)},
                           {"pos", std::to_string(position_)}};
  const auto merged = [this](rt::SingleWriterHistogram WorkerState::*hist) {
    rt::Histogram h;
    for (std::size_t t = 0; t < cfg_.threads_per_node; ++t) {
      (worker_state_[t].*hist).merge_into(h);
    }
    return h;
  };
  registry_->histogram_fn("piggyback.bytes_per_packet", labels, [merged] {
    return merged(&WorkerState::pb_bytes);
  });
  registry_->histogram_fn("piggyback.logs_per_packet", labels, [merged] {
    return merged(&WorkerState::pb_logs);
  });
}

std::optional<std::uint64_t> FtcNode::burst_stamp() const {
  std::uint64_t stamp = 0;
  for (std::size_t t = 0; t < cfg_.threads_per_node; ++t) {
    const std::atomic<std::uint64_t>& phase = worker_state_[t].phase;
    std::uint64_t seen = phase.load(std::memory_order_seq_cst);
    // A poll in progress has not shown yet whether it took packets: wait
    // for its outcome (polls never block; an empty one leaves the burst
    // count alone). The wait is bounded so a descheduled worker reads as
    // busy rather than stalling the caller.
    const std::uint64_t deadline = rt::now_ns() + 10'000'000;
    while ((seen & 3U) == kPolling) {
      std::this_thread::yield();
      if (rt::now_ns() > deadline) return std::nullopt;
      seen = phase.load(std::memory_order_seq_cst);
    }
    if ((seen & 3U) == kHolding) return std::nullopt;
    stamp += seen >> 2;
  }
  return stamp;
}

InOrderApplier* FtcNode::applier(MboxId mbox) noexcept {
  if (applier_cache_.empty()) {
    // Construction-time call (the cache is built after appliers_).
    const auto it = appliers_.find(mbox);
    return it != appliers_.end() ? it->second.get() : nullptr;
  }
  // At most f entries (usually one): a linear scan of a flat array beats
  // the std::map walk on the per-packet path.
  for (const auto& [m, a] : applier_cache_) {
    if (m == mbox) return a;
  }
  return nullptr;
}

std::uint32_t FtcNode::tail_of() const noexcept {
  if (cfg_.f == 0 || cfg_.f >= ring_size_) return ring_size_;
  const std::uint32_t m = (position_ + ring_size_ - cfg_.f) % ring_size_;
  return m < num_mboxes_ && m != position_ ? m : ring_size_;
}

bool FtcNode::replicates(MboxId mbox) const noexcept {
  return appliers_.count(mbox) != 0;
}

void FtcNode::start() {
  start_control();
  // A restart binds the head's transaction fast path to the new worker
  // thread (the previous owner thread is gone).
  if (head_ != nullptr) head_->txn_ctx().reset_owner();
  for (std::size_t t = 0; t < cfg_.threads_per_node; ++t) {
    auto worker = std::make_unique<rt::Worker>();
    worker->start("ftc-node-" + std::to_string(position_) + "-t" +
                      std::to_string(t),
                  [this, t] {
                    rt::set_current_shard(static_cast<std::uint32_t>(t));
                    return worker_body(static_cast<std::uint32_t>(t));
                  });
    workers_.push_back(std::move(worker));
  }
}

void FtcNode::start_control() {
  if (control_worker_) return;
  control_worker_ = std::make_unique<rt::Worker>();
  control_worker_->start("ftc-ctrl-" + std::to_string(position_), [this] {
    if (failed_.load(std::memory_order_acquire)) return false;
    handle_control();
    check_parked_timeouts();
    // Control work is low-rate (heartbeats in ms, NACK timers in ms):
    // sleep rather than spin so data-plane threads keep the CPU.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return true;  // The sleep above is the backoff.
  });
}

void FtcNode::stop() {
  workers_.clear();
  control_worker_.reset();
}

void FtcNode::fail() {
  failed_.store(true, std::memory_order_release);
  trace_->emit(obs::Event::kFailure, id_);
  span_event(registry_, obs::span_site_node(id_),
             obs::recovery_trace_id(position_), obs::SpanKind::kFail,
             position_);
  stop();
  // Crash-stop: parked packets are lost with the node.
  LockGuard lock(park_mutex_);
  for (auto& w : parked_) pool_.free_raw(w.packet);
  parked_.clear();
  parked_size_.store(0, std::memory_order_release);
}

bool FtcNode::worker_body(std::uint32_t thread_id) {
  if (failed_.load(std::memory_order_acquire)) return false;

  // Dekker with quiesce_and: announce activity FIRST, then check the
  // quiesce flag (both seq_cst). The old check-then-announce order let a
  // worker slip past a quiesce that had already seen active == 0 — benign
  // when quiesce only serialized stores, fatal now that the control thread
  // drains handoff rings (single-consumer) under quiesce.
  active_workers_.fetch_add(1, std::memory_order_seq_cst);
  if (quiesced_.load(std::memory_order_seq_cst)) {
    active_workers_.fetch_sub(1, std::memory_order_release);
    return false;
  }
  bool did_work = false;
  WorkerState& ws = worker_state_[thread_id];

  // Ingress duties: emit a propagating packet when the chain is idle but
  // state dissemination is pending (paper §5.1). It runs through this
  // node's full pipeline (its appliers are group members of the
  // wrap-around middleboxes too). Announced as held before the feedback
  // records leave their queue.
  if (thread_id == 0 && forwarder_ != nullptr && forwarder_->propagation_due()) {
    ++ws.bursts;
    ws.set_phase(kHolding);
    if (pkt::Packet* prop = Forwarder::make_propagating_packet(pool_)) {
      ws.pkts[0] = prop;
      const std::size_t n = splice_feedback(ws.pkts, 1, ws);
      run_views(ws.pkts, ws.vw, n, thread_id);
      did_work = true;
    }
    ws.set_phase(kIdle);
  }

  net::Port* in = in_link_.load(std::memory_order_acquire);
  if (in != nullptr) {
    pkt::Packet* rx[kMaxBurst];
    // Budget profiler gate: one acquire load + branch when disabled. The
    // slot lookup past the branch is a thread-local cache hit; the label
    // string is built only on the first burst of each worker thread.
    obs::ProfSlot* slot = nullptr;
    if (obs::HotProfiler* hp = obs::hot_profiler(); SFC_UNLIKELY(hp != nullptr)) {
      slot = hp->maybe_slot();
      if (slot == nullptr) {
        // The label string is built once per thread, on its first
        // profiled burst only.
        slot = hp->thread_slot(
            // LINT_HOT_PATH_ALLOW(string-growth): once per thread
            "ftc-node-" + std::to_string(position_) + "-t" +
            // LINT_HOT_PATH_ALLOW(string-growth): once per thread
            std::to_string(thread_id));
      }
    }
    // Publish the poll BEFORE popping: packets leave the link queue here
    // but are only applied/forwarded below, and quiescence checks
    // (ChainRuntime::quiescent) must never observe "links drained" while a
    // whole burst sits unapplied in this worker's hands.
    ws.set_phase(kPolling);
    const std::uint64_t pp0 = slot != nullptr ? rt::rdtsc() : 0;
    // Quiet mode: a burst must not touch the heap.
    const std::uint64_t allocs0 = slot != nullptr ? obs::thread_heap_allocs() : 0;
    const std::size_t got = in->poll_burst(rx, burst_size_);
    if (got == 0) {
      ws.set_phase(kIdle);
    } else {
      ++ws.bursts;
      ws.set_phase(kHolding);
      // Open the per-thread burst scope: emits from this burst stage into
      // t_burst.tx and per-packet bookkeeping accumulates, all flushed once
      // below.
      BurstScope& b = t_burst;
      b.owner = this;
      b.out = out_link_.load(std::memory_order_acquire);
      b.prof = slot;
      if (slot != nullptr) {
        const std::uint64_t t = rt::rdtsc();
        b.prof_add(obs::ProfStage::kPoll, t - pp0);
        b.prof_mark = t;
      }
      const std::uint64_t t0 = account_cycles_ ? rt::rdtsc() : 0;
      if (account_cycles_) t_blocked_cycles = 0;
      // Zero-copy path (paper §5.1's in-place processing): open every
      // tail once — at the chain ingress, the tail the feedback splice
      // attaches — apply the whole burst's logs grouped per applier and
      // store partition, then run phases B-D on the wire bytes in place.
      pkt::Packet** pkts = rx;
      std::size_t n = got;
      if (forwarder_ != nullptr) {
        pkts = ws.pkts;
        n = splice_feedback(rx, got, ws);
      } else {
        for (std::size_t i = 0; i < got; ++i) {
          if (SFC_UNLIKELY(rx[i]->anno().trace_id != 0)) {
            span_event(registry_, obs::span_site_node(id_),
                       rx[i]->anno().trace_id, obs::SpanKind::kNodeIngress,
                       position_);
          }
          ws.vw[i].view = PiggybackView::open(*rx[i]);
          ws.vw[i].held_at = kNoHeldLog;
        }
      }
      if (slot != nullptr) {
        const std::uint64_t t = rt::rdtsc();
        b.prof_add(obs::ProfStage::kViewWalk, t - b.prof_mark);
        b.prof_mark = t;
      }
      run_views(pkts, ws.vw, n, thread_id);
      // Burst boundary: apply cross-shard portions other workers (or the
      // control thread) queued for this worker's partitions. Timed as its
      // own primary stage inside the burst window.
      if (handoff_mesh_ != nullptr) {
        drain_handoff(thread_id);
        if (slot != nullptr) {
          const std::uint64_t t = rt::rdtsc();
          b.prof_add(obs::ProfStage::kHandoffDrain, t - b.prof_mark);
          b.prof_mark = t;
        }
      }
      b.owner = nullptr;
      // The whole burst tail — egress flush, meter/counter flush, cycle
      // accounting — bills to kEgressFlush: it opens at the chained mark
      // (the last per-packet bracket's exit) and closes at the timestamp
      // that ends the busy-wall window, so no per-burst glue goes missing.
      // Flush staged egress with one bulk send; stragglers block with
      // backpressure accounting, exactly like a per-packet send would.
      if (b.n_tx != 0) {
        const std::size_t sent = b.out->send_burst({b.tx, b.n_tx});
        if (sent < b.n_tx) {
          const std::uint64_t w0 = account_cycles_ ? rt::rdtsc() : 0;
          for (std::size_t i = sent; i < b.n_tx; ++i) {
            if (!b.out->send_blocking(b.tx[i])) pool_.free_raw(b.tx[i]);
          }
          if (account_cycles_) t_blocked_cycles += rt::rdtsc() - w0;
        }
        b.n_tx = 0;
      }
      // One meter/counter update per burst instead of per packet.
      if (b.data_packets != 0) {
        meter_.add(b.data_packets, b.data_bytes);
        stats_.packets_processed->add(b.data_packets);
        b.data_packets = 0;
        b.data_bytes = 0;
      }
      if (b.control_packets != 0) {
        stats_.control_packets->add(b.control_packets);
        b.control_packets = 0;
      }
      if (account_cycles_) {
        cyc_packets_.fetch_add(b.cyc_packets, std::memory_order_relaxed);
        cyc_process_.fetch_add(b.cyc_process, std::memory_order_relaxed);
        cyc_piggyback_.fetch_add(b.cyc_piggyback, std::memory_order_relaxed);
        cyc_forward_.fetch_add(b.cyc_forward, std::memory_order_relaxed);
        b.cyc_packets = b.cyc_process = b.cyc_piggyback = b.cyc_forward = 0;
        // Busy accounting records the per-packet average so the pipeline
        // throughput metric stays burst-invariant.
        record_busy((rt::rdtsc() - t0 - t_blocked_cycles) / n, n);
      }
      if (slot != nullptr) {
        // Busy wall ends here: the per-stage sums above must reconcile
        // against it, so the flush itself stays outside the window.
        const std::uint64_t wall_ts = rt::rdtsc();
        b.prof_add(obs::ProfStage::kEgressFlush, wall_ts - b.prof_mark);
        const std::uint64_t wall = wall_ts - pp0;
        for (std::size_t s = 0; s < obs::kProfStageCount; ++s) {
          if (b.prof_cycles[s] == 0) continue;
          slot->cycles[s].fetch_add(b.prof_cycles[s],
                                    std::memory_order_relaxed);
          b.prof_cycles[s] = 0;
        }
        // Primary stages share the burst's packet count as their op count.
        for (std::size_t s = 0; s < obs::kProfPrimaryStageCount; ++s) {
          slot->ops[s].fetch_add(n, std::memory_order_relaxed);
        }
        slot->packets.fetch_add(n, std::memory_order_relaxed);
        slot->bursts.fetch_add(1, std::memory_order_relaxed);
        slot->wall_cycles.fetch_add(wall, std::memory_order_relaxed);
        b.prof = nullptr;
        if (const std::uint64_t allocs = obs::thread_heap_allocs() - allocs0;
            SFC_UNLIKELY(allocs != 0)) {
          obs::prof_count(obs::ProfCounter::kHeapAlloc, allocs);
        }
      }
      did_work = true;
      ws.set_phase(kIdle);
    }
  }

  // Idle duties in shard mode: portions queued for this shard by other
  // workers or the control thread (NACK replay) must not wait for the
  // next ingress burst, and parked packets the control replay unblocked
  // are drained here — the control thread never transacts in shard mode.
  // Held like a burst while there is something to take.
  if (!did_work && handoff_mesh_ != nullptr &&
      (handoff_mesh_->pending(thread_id) ||
       !handoff_deferred_[thread_id].empty() ||
       parked_size_.load(std::memory_order_acquire) != 0)) {
    ++ws.bursts;
    ws.set_phase(kHolding);
    if (drain_handoff(thread_id) != 0) did_work = true;
    drain_parked();
    ws.set_phase(kIdle);
  }

  active_workers_.fetch_sub(1, std::memory_order_acq_rel);
  return did_work;
}

std::size_t FtcNode::splice_feedback(pkt::Packet** rx, std::size_t got,
                                     WorkerState& ws) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < got; ++i) {
    pkt::Packet* p = rx[i];
    if (SFC_UNLIKELY(p->anno().trace_id != 0)) {
      span_event(registry_, obs::span_site_node(id_), p->anno().trace_id,
                 obs::SpanKind::kNodeIngress, position_);
    }
    const std::size_t at = n;
    ws.pkts[n] = p;
    ViewWork& w = ws.vw[n++];
    w.held_at = kNoHeldLog;
    // Up to two propagating packets may follow; without room for them
    // (and for the packets still to come) the records wait.
    std::size_t extra = 0;
    if (n + 2 + (got - i - 1) <= kBurstViews) {
      extra = forwarder_->splice(*p, w.view, ws.pkts + n);
    } else {
      w.view = PiggybackView{};
    }
    for (std::size_t e = 0; e < extra; ++e, ++n) {
      ws.vw[n].view = PiggybackView::open(*ws.pkts[n]);
      ws.vw[n].held_at = kNoHeldLog;
    }
    if (!p->anno().is_control) {
      // Head-ingress distributions (the paper's state-size axis): the
      // message spliced for this packet — on it, or on the propagating
      // packets its records took — as one message on the wire, and how
      // many logs ride along.
      std::size_t bytes = kWireHeaderSize + kFooterSize;
      std::size_t logs = 0;
      for (std::size_t k = at; k < n; ++k) {
        const PiggybackView& v = ws.vw[k].view;
        if (!v.ok()) continue;
        bytes += v.tail_size() - (kWireHeaderSize + kFooterSize);
        logs += v.log_count();
      }
      ws.pb_bytes.record(bytes);
      ws.pb_logs.record(logs);
    }
  }
  forwarder_->note_activity();
  return n;
}

void FtcNode::run_views(pkt::Packet** pkts, ViewWork* vw, std::size_t n,
                        std::uint32_t thread_id) {
  BurstScope& b = t_burst;
  const bool prof_here = b.prof != nullptr && b.owner == this;
  bool any_traced = false;
  for (std::size_t i = 0; i < n && !any_traced; ++i) {
    any_traced = pkts[i]->anno().trace_id != 0;
  }
  const std::uint64_t span_t0 = any_traced ? rt::now_ns() : 0;
  const bool timed_apply = account_cycles_ || prof_here;
  const std::uint64_t ta0 = account_cycles_ ? rt::rdtsc() : 0;
  apply_logs_burst(vw, n);
  if (timed_apply) {
    const std::uint64_t now = rt::rdtsc();
    if (account_cycles_) {
      if (b.owner == this) {
        b.cyc_piggyback += now - ta0;
      } else {
        cyc_piggyback_.fetch_add(now - ta0, std::memory_order_relaxed);
      }
    }
    if (prof_here) {
      b.prof_add(obs::ProfStage::kLogApply, now - b.prof_mark);
      b.prof_mark = now;
    }
  }
  // Traced packets report the burst apply as a per-packet share.
  const std::uint64_t apply_share_ns =
      any_traced ? (rt::now_ns() - span_t0) / n : 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (SFC_UNLIKELY(pkts[i]->anno().trace_id != 0) &&
        vw[i].held_at == kNoHeldLog) {
      span_event(registry_, obs::span_site_node(id_),
                 pkts[i]->anno().trace_id, obs::SpanKind::kApply,
                 apply_share_ns);
    }
    process_view(pkts[i], vw[i], thread_id);
    if (prof_here) {
      // Starts from the chained mark (process_view's exit), so the
      // per-packet return glue bills here; a nested drain that advanced
      // the mark has already claimed its own time.
      drain_parked();
      const std::uint64_t t = rt::rdtsc();
      b.prof_add(obs::ProfStage::kParkDrain, t - b.prof_mark);
      b.prof_mark = t;
    } else {
      drain_parked();
    }
  }
}

std::size_t FtcNode::drain_handoff(std::uint32_t thread_id) {
  auto& deferred = handoff_deferred_[thread_id];
  const std::size_t was_deferred = deferred.size();
  const std::size_t popped =
      handoff_mesh_->drain(thread_id, [&deferred](StateHandoff& h) {
        deferred.push_back(std::move(h));
      });
  if (deferred.empty()) return 0;
  // Resolve until a full pass makes no progress: an entry future in one
  // pass becomes applicable once a lower-seq entry from another producer's
  // ring applies. Entries still future after that are waiting on a portion
  // not yet in any of this owner's rings (producer mid-push, or a genuine
  // gap pending NACK recovery) — they stay deferred for the next drain.
  std::size_t resolved = 0;
  bool progress = true;
  while (progress && !deferred.empty()) {
    progress = false;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < deferred.size(); ++i) {
      if (deferred[i].applier->apply_handoff(deferred[i])) {
        ++resolved;
        progress = true;
      } else {
        if (kept != i) deferred[kept] = std::move(deferred[i]);
        ++kept;
      }
    }
    deferred.resize(kept);
  }
  (void)popped;
  const std::size_t now_deferred = deferred.size();
  if (now_deferred != was_deferred) {
    if (now_deferred > was_deferred) {
      handoff_deferred_count_.fetch_add(now_deferred - was_deferred,
                                        std::memory_order_acq_rel);
    } else {
      handoff_deferred_count_.fetch_sub(was_deferred - now_deferred,
                                        std::memory_order_acq_rel);
    }
  }
  return resolved;
}

void FtcNode::process_work(Work&& work) {
  if (apply_logs(work)) {
    finish_work(std::move(work));
  } else {
    park(std::move(work));
  }
  // Either path may have unblocked (or re-checked) parked continuations:
  // after a successful apply, a held log may now fit; after a park, this
  // drain closes the race where the missing log landed between our offer
  // and the park insertion.
  if (t_burst.prof != nullptr && t_burst.owner == this) {
    drain_parked();
    const std::uint64_t t = rt::rdtsc();
    t_burst.prof_add(obs::ProfStage::kParkDrain, t - t_burst.prof_mark);
    t_burst.prof_mark = t;
  } else {
    drain_parked();
  }
}

bool FtcNode::apply_logs(Work& work) {
  const bool traced =
      work.packet != nullptr && work.packet->anno().trace_id != 0;
  const std::uint64_t span_t0 = traced ? rt::now_ns() : 0;
  const bool prof_here = t_burst.prof != nullptr && t_burst.owner == this;
  const bool timed = account_cycles_ || prof_here;
  const std::uint64_t t0 = account_cycles_ ? rt::rdtsc() : 0;
  bool complete = true;
  for (; work.next_log < work.msg.logs.size(); ++work.next_log) {
    const PiggybackLog& log = work.msg.logs[work.next_log];
    InOrderApplier* applier = this->applier(log.mbox);
    if (applier == nullptr) continue;  // Relay-only for this store.

    auto offer = applier->offer(log);
    if (offer == InOrderApplier::Offer::kHeld && cfg_.threads_per_node > 1) {
      // With multiple threads the missing predecessor log is usually in
      // flight on a sibling thread right now; a couple of yields beat the
      // full park/drain round trip.
      for (int spin = 0; spin < 4 && offer == InOrderApplier::Offer::kHeld;
           ++spin) {
        std::this_thread::yield();
        offer = applier->offer(log);
      }
    }
    if (offer == InOrderApplier::Offer::kHeld) {
      // A predecessor log is missing (reordered or lost upstream); the
      // caller parks the continuation.
      complete = false;
      break;
    }
    if (offer == InOrderApplier::Offer::kApplied) {
      stats_.logs_applied->inc();
    } else {
      stats_.logs_duplicate->inc();
    }
  }
  if (timed) {
    const std::uint64_t now = rt::rdtsc();
    if (account_cycles_) {
      const std::uint64_t d = now - t0;
      if (t_burst.owner == this) {
        t_burst.cyc_piggyback += d;
      } else {
        cyc_piggyback_.fetch_add(d, std::memory_order_relaxed);
      }
    }
    if (prof_here) {
      t_burst.prof_add(obs::ProfStage::kLogApply, now - t_burst.prof_mark);
      t_burst.prof_mark = now;
    }
  }
  if (traced && complete) {
    span_event(registry_, obs::span_site_node(id_),
               work.packet->anno().trace_id, obs::SpanKind::kApply,
               rt::now_ns() - span_t0);
  }
  return complete;
}

void FtcNode::apply_logs_burst(ViewWork* vw, std::size_t n) {
  if (applier_cache_.empty()) return;
  struct Origin {
    std::uint32_t pkt;
    std::uint32_t idx;
  };
  // Offered in chunks of kChunk logs, so a burst of bunched-up packets
  // stays in these inline arrays instead of spilling to the heap.
  constexpr std::size_t kChunk = 64;
  rt::SmallVector<WireLog, kChunk> logs;
  rt::SmallVector<Origin, kChunk> origin;
  rt::SmallVector<InOrderApplier::Offer, kChunk> results;
  std::uint64_t applied = 0;
  std::uint64_t duplicate = 0;
  for (const auto& [mbox, a] : applier_cache_) {
    const auto offer_chunk = [&, a = a] {
      a->offer_burst({logs.data(), logs.size()}, results.data());
      for (std::size_t k = 0; k < logs.size(); ++k) {
        auto offer = results[k];
        if (offer == InOrderApplier::Offer::kHeld &&
            cfg_.threads_per_node > 1) {
          // Same retry as apply_logs: with sibling threads the missing
          // predecessor is usually in flight right now, and retrying k in
          // order lets a successful retry unblock k+1 below.
          for (int spin = 0;
               spin < 4 && offer == InOrderApplier::Offer::kHeld; ++spin) {
            std::this_thread::yield();
            offer = a->offer_wire(logs[k]);
          }
        }
        switch (offer) {
          case InOrderApplier::Offer::kApplied:
            ++applied;
            break;
          case InOrderApplier::Offer::kDuplicate:
            ++duplicate;
            break;
          case InOrderApplier::Offer::kHeld: {
            // Remember the earliest held log (in message order): the
            // packet re-enters the legacy path from there; logs already
            // applied above re-offer as duplicates.
            std::uint32_t& held = vw[origin[k].pkt].held_at;
            held = std::min(held, origin[k].idx);
            break;
          }
        }
      }
      logs.clear();
      origin.clear();
      results.clear();
    };
    // Gather this applier's logs across the whole burst in rx order, so
    // one offer_burst takes the MAX mutex (and each touched store
    // partition lock) once per chunk instead of once per log.
    for (std::uint32_t i = 0; i < n; ++i) {
      const PiggybackView& v = vw[i].view;
      if (!v.ok()) continue;
      const std::size_t count = v.log_count();
      for (std::uint32_t j = 0; j < count; ++j) {
        WireLog log = v.log(j);
        if (log.mbox != mbox) continue;
        logs.push_back(log);
        origin.push_back(Origin{i, j});
        results.push_back(InOrderApplier::Offer::kHeld);
        if (logs.size() == kChunk) offer_chunk();
      }
    }
    if (!logs.empty()) offer_chunk();
  }
  if (applied != 0) stats_.logs_applied->add(applied);
  if (duplicate != 0) stats_.logs_duplicate->add(duplicate);
}

void FtcNode::process_view(pkt::Packet* p, ViewWork& vw,
                           std::uint32_t thread_id) {
  BurstScope& b = t_burst;
  const std::uint64_t trace_id = p->anno().trace_id;
  // Budget stage marks chain through b.prof_mark: each boundary timestamp
  // closes one stage and opens the next — across function boundaries — so
  // dispatch glue (parse, span/meter bookkeeping, call/return overhead)
  // lands in an adjacent stage instead of silently eroding reconciliation.
  const bool prof_here = b.prof != nullptr && b.owner == this;
  if (SFC_UNLIKELY(vw.held_at != kNoHeldLog)) {
    // A predecessor log is missing: leave the zero-copy path and continue
    // on the materializing park/drain machinery from the held log.
    Work work;
    work.packet = p;
    work.thread_id = thread_id;
    if (auto msg = extract_message(*p)) work.msg = std::move(*msg);
    work.next_log = vw.held_at;
    process_work(std::move(work));
    return;
  }
  PiggybackView& v = vw.view;

  // --- Phase B: tail duty, pruning, commit stripping, in place. ---
  const bool timed_b = account_cycles_ || prof_here;
  const std::uint64_t tb0 = account_cycles_ ? rt::rdtsc() : 0;
  if (InOrderApplier* a = tail_applier_) {
    if (v.ok() && v.log_count() != 0) {
      v.strip_logs_of(tail_mbox_);
      if (trace_id != 0) {
        span_event(registry_, obs::span_site_node(id_), trace_id,
                   obs::SpanKind::kStrip, tail_mbox_);
      }
    }
    // A propagating packet always carries the current commit: it may be
    // the one that repairs a commit lost with an earlier packet.
    const std::uint64_t applied = a->applied_count();
    if (applied != last_commit_attach_.load(std::memory_order_relaxed) ||
        p->anno().is_control) {
      if (!v.ok()) v = PiggybackView::create(*p, cfg_.num_partitions);
      if (v.ok() && v.set_commit(tail_mbox_, a->max())) {
        last_commit_attach_.store(applied, std::memory_order_relaxed);
        trace_->emit(obs::Event::kCommitAttach, tail_mbox_, applied);
        if (trace_id != 0) {
          span_event(registry_, obs::span_site_node(id_), trace_id,
                     obs::SpanKind::kCommitAttach, tail_mbox_);
        }
      } else {
        // Tailroom exhausted mid-attach (nothing recorded yet): finish on
        // the materializing path, which re-evaluates the attach and can
        // detour the message onto a propagating packet.
        Work work;
        work.packet = p;
        work.thread_id = thread_id;
        if (auto msg = extract_message(*p)) work.msg = std::move(*msg);
        work.next_log = work.msg.logs.size();
        if (timed_b) {
          const std::uint64_t now = rt::rdtsc();
          if (account_cycles_) b.cyc_piggyback += now - tb0;
          if (prof_here) {
            b.prof_add(obs::ProfStage::kTailCommit, now - b.prof_mark);
            b.prof_mark = now;
          }
        }
        finish_work(std::move(work));
        return;
      }
    }
  }
  if (v.ok() && v.commit_count() != 0) {
    rt::SmallVector<CommitVector, 2> commits;
    for (std::size_t i = 0; i < v.commit_count(); ++i) {
      CommitVector c;
      c.mbox = v.commit(i, c.max);
      commits.push_back(std::move(c));
    }
    // The buffer is the last consumer of commit vectors before stripping.
    if (buffer_ != nullptr) {
      buffer_->absorb({commits.data(), commits.size()});
    }
    for (const auto& c : commits) {
      if (head_ != nullptr && c.mbox == position_) head_->prune(c.max);
      if (InOrderApplier* ca = applier(c.mbox)) ca->prune(c.max);
    }
  }
  if (timed_b) {
    const std::uint64_t now = rt::rdtsc();
    if (account_cycles_) b.cyc_piggyback += now - tb0;
    if (prof_here) {
      b.prof_add(obs::ProfStage::kTailCommit, now - b.prof_mark);
      b.prof_mark = now;
    }
  }

  // --- Phase C: the packet transaction (paper §4.2). The tail stays on
  // the packet; parse_packet is told where the wire bytes end. ---
  mbox::Verdict verdict = mbox::Verdict::kForward;
  PiggybackLog new_log;
  bool have_log = false;
  if (mbox_ != nullptr && !p->anno().is_control) {
    auto parsed = pkt::parse_packet(*p, v.ok() ? v.wire_size() : 0);
    if (!parsed) {
      stats_.drops_unparseable->inc();
      verdict = mbox::Verdict::kDrop;
    } else {
      const std::uint64_t span_t0 = trace_id != 0 ? rt::now_ns() : 0;
      const bool timed_c = account_cycles_ || prof_here;
      const std::uint64_t t0 = account_cycles_ ? rt::rdtsc() : 0;
      mbox::ProcessContext pctx;
      pctx.thread_id = thread_id;
      pctx.num_threads = static_cast<std::uint32_t>(cfg_.threads_per_node);
      if (mbox_->stateless()) {
        verdict = mbox_->process_stateless(*p, *parsed, pctx);
      } else {
        if (SFC_UNLIKELY(!head_->history().reserve())) {
          // The history is full: the transaction waits (backpressure),
          // and later packets' commits free the room.
          Work work;
          work.packet = p;
          work.thread_id = thread_id;
          if (auto msg = extract_message(*p)) work.msg = std::move(*msg);
          work.next_log = work.msg.logs.size();
          park_for_room(std::move(work));
          return;
        }
        auto record = state::run_transaction(head_->txn_ctx(), [&](state::Txn& txn) {
          pctx.deferred_rewrite.reset();
          verdict = mbox_->process(txn, *p, *parsed, pctx);
        });
        if (!record.read_only()) {
          new_log = head_->log_of(std::move(record));
          have_log = true;
        } else {
          head_->history().unreserve();
        }
      }
      if (pctx.deferred_rewrite) pkt::rewrite_flow(*parsed, *pctx.deferred_rewrite);
      if (timed_c) {
        const std::uint64_t now = rt::rdtsc();
        if (account_cycles_) {
          b.cyc_process += now - t0;
          ++b.cyc_packets;
        }
        if (prof_here) {
          // Chained from the Phase B boundary: parse + dispatch glue count
          // as processing cost, not unattributed time.
          b.prof_add(obs::ProfStage::kProcess, now - b.prof_mark);
          b.prof_mark = now;
        }
      }
      if (trace_id != 0) {
        span_event(registry_, obs::span_site_node(id_), trace_id,
                   obs::SpanKind::kProcess, rt::now_ns() - span_t0);
      }
    }
  }

  // Meter wire bytes only, matching the legacy path where the tail was
  // stripped before the packet was measured.
  if (p->anno().is_control) {
    if (b.owner == this) {
      ++b.control_packets;
    } else {
      stats_.control_packets->inc();
    }
  } else if (b.owner == this) {
    ++b.data_packets;
    b.data_bytes += v.ok() ? v.wire_size() : p->size();
  } else {
    meter_.add(1, v.ok() ? v.wire_size() : p->size());
    stats_.packets_processed->inc();
  }

  // --- Phase D: emit, appending our own log in place. ---
  if (verdict == mbox::Verdict::kDrop) {
    // A filtering middlebox must not swallow in-flight state: its head
    // emits a propagating packet carrying the message (paper §5.1).
    stats_.drops_filtered->inc();
    PiggybackMessage out;
    if (auto msg = extract_message(*p)) out = std::move(*msg);
    if (have_log) {
      head_->history().record(new_log, true);
      out.logs.push_back(std::move(new_log));
    }
    pool_.free_raw(p);
    if (!out.empty()) emit_propagating(std::move(out));
    return;
  }
  const bool timed_d = account_cycles_ || prof_here;
  const std::uint64_t tf0 = account_cycles_ ? rt::rdtsc() : 0;
  const auto flush_forward = [&]() {
    if (!timed_d) return;
    const std::uint64_t now = rt::rdtsc();
    if (account_cycles_) b.cyc_forward += now - tf0;
    if (prof_here) {
      b.prof_add(obs::ProfStage::kAppend, now - b.prof_mark);
      b.prof_mark = now;
    }
  };
  if (have_log) {
    if (!v.ok()) v = PiggybackView::create(*p, cfg_.num_partitions);
    if (!v.ok() || !v.append_log(new_log)) {
      // The log outgrew this packet's tailroom. The materializing emit
      // handles it: it re-tries the append as a whole and detours the
      // message onto a propagating packet when it still cannot fit.
      head_->history().record(new_log, true);
      PiggybackMessage out;
      if (auto msg = extract_message(*p)) out = std::move(*msg);
      out.logs.push_back(std::move(new_log));
      emit(p, std::move(out));
      flush_forward();
      return;
    }
    // The history keeps the bytes just serialized onto the packet.
    const WireLog appended = v.log(v.log_count() - 1);
    head_->history().record({appended.bytes, appended.wire_size}, true);
  } else if (SFC_UNLIKELY(p->anno().is_control) && head_ != nullptr) {
    // A propagating packet carries this head's newest log not yet covered
    // by its tail's commit: if the packet that carried it was lost, a
    // successor learns of the gap (and NACKs) even after traffic stops.
    std::uint8_t* buf = worker_state_[thread_id].newest_log;
    if (const std::size_t n = head_->history().newest(buf); n != 0) {
      if (!v.ok()) v = PiggybackView::create(*p, cfg_.num_partitions);
      if (v.ok()) v.append_wire_log({buf, n});
    }
  }
  if (trace_id != 0) {
    span_event(registry_, obs::span_site_node(id_), trace_id,
               obs::SpanKind::kNodeEgress);
  }
  if (buffer_ != nullptr) {
    buffer_->submit_wire(p, v);
    flush_forward();
    return;
  }
  net::Port* out = out_link_.load(std::memory_order_acquire);
  if (out == nullptr) {
    pool_.free_raw(p);
    return;
  }
  // The tail already rides the packet: no append, just stage or send.
  if (b.owner == this && b.out == out && b.n_tx < kMaxBurst) {
    b.tx[b.n_tx++] = p;
  } else {
    send_now(out, p);
  }
  flush_forward();
}

void FtcNode::park(Work&& work) {
  work.parked_at_ns = rt::now_ns();
  const MboxId blocked_on = work.next_log < work.msg.logs.size()
                                ? work.msg.logs[work.next_log].mbox
                                : 0;
  if (work.packet->anno().trace_id != 0) {
    span_event(registry_, obs::span_site_node(id_), work.packet->anno().trace_id,
               obs::SpanKind::kPark, blocked_on);
  }
  std::size_t depth = 0;
  {
    LockGuard lock(park_mutex_);
    parked_.push_back(std::move(work));
    depth = parked_.size();
    parked_size_.store(depth, std::memory_order_release);
  }
  stats_.packets_parked->inc();
  trace_->emit(obs::Event::kPacketParked, blocked_on, depth);
}

bool FtcNode::finish_work(Work&& work) {
  pkt::Packet* p = work.packet;
  PiggybackMessage msg = std::move(work.msg);
  const std::uint64_t trace_id = p->anno().trace_id;

  // --- Phase B: tail duty, pruning, commit stripping (paper §5.1). ---
  const bool prof_here = t_burst.prof != nullptr && t_burst.owner == this;
  const bool timed = account_cycles_ || prof_here;
  // Chained budget marks through t_burst.prof_mark, same scheme as
  // process_view: boundaries close one stage and open the next so glue
  // between phases (and across the call) stays attributed.
  const std::uint64_t tb0 = account_cycles_ ? rt::rdtsc() : 0;
  if (InOrderApplier* a = tail_applier_) {
    const std::uint32_t tail_mbox = tail_mbox_;
    if (!msg.logs.empty()) {
      msg.strip_logs_of(tail_mbox);
      if (trace_id != 0) {
        span_event(registry_, obs::span_site_node(id_), trace_id,
                   obs::SpanKind::kStrip, tail_mbox);
      }
    }
    // Attach the commit vector only when it advanced: re-announcing an
    // unchanged MAX carries no information and costs 100+ bytes per
    // packet on read-heavy workloads.
    const std::uint64_t applied = a->applied_count();
    if (applied != last_commit_attach_.load(std::memory_order_relaxed) ||
        p->anno().is_control) {
      last_commit_attach_.store(applied, std::memory_order_relaxed);
      msg.set_commit(tail_mbox, a->max());
      trace_->emit(obs::Event::kCommitAttach, tail_mbox, applied);
      if (trace_id != 0) {
        span_event(registry_, obs::span_site_node(id_), trace_id,
                   obs::SpanKind::kCommitAttach, tail_mbox);
      }
    }
  }
  // The buffer is the last consumer of commit vectors before stripping.
  if (buffer_ != nullptr) buffer_->absorb({msg.commits.data(), msg.commits.size()});
  // Prune histories with every commit vector on board.
  for (const auto& c : msg.commits) {
    if (head_ != nullptr && c.mbox == position_) head_->prune(c.max);
    if (InOrderApplier* a = applier(c.mbox)) a->prune(c.max);
  }
  if (timed) {
    const std::uint64_t now = rt::rdtsc();
    if (account_cycles_) {
      const std::uint64_t d = now - tb0;
      if (t_burst.owner == this) {
        t_burst.cyc_piggyback += d;
      } else {
        cyc_piggyback_.fetch_add(d, std::memory_order_relaxed);
      }
    }
    if (prof_here) {
      t_burst.prof_add(obs::ProfStage::kTailCommit, now - t_burst.prof_mark);
      t_burst.prof_mark = now;
    }
  }

  // --- Phase C: the packet transaction (paper §4.2). ---
  mbox::Verdict verdict = mbox::Verdict::kForward;
  if (mbox_ != nullptr && !p->anno().is_control) {
    auto parsed = pkt::parse_packet(*p);
    if (!parsed) {
      stats_.drops_unparseable->inc();
      verdict = mbox::Verdict::kDrop;
    } else {
      const std::uint64_t span_t0 = trace_id != 0 ? rt::now_ns() : 0;
      const std::uint64_t t0 = account_cycles_ ? rt::rdtsc() : 0;
      mbox::ProcessContext pctx;
      pctx.thread_id = work.thread_id;
      pctx.num_threads = static_cast<std::uint32_t>(cfg_.threads_per_node);
      if (mbox_->stateless()) {
        verdict = mbox_->process_stateless(*p, *parsed, pctx);
      } else {
        if (!head_->history().reserve()) {
          work.packet = p;
          work.msg = std::move(msg);
          work.next_log = work.msg.logs.size();
          park_for_room(std::move(work));
          return false;
        }
        auto record = state::run_transaction(head_->txn_ctx(), [&](state::Txn& txn) {
          pctx.deferred_rewrite.reset();
          verdict = mbox_->process(txn, *p, *parsed, pctx);
        });
        if (!record.read_only()) {
          msg.logs.push_back(head_->make_log(std::move(record), true));
        } else {
          head_->history().unreserve();
        }
      }
      if (pctx.deferred_rewrite) pkt::rewrite_flow(*parsed, *pctx.deferred_rewrite);
      if (timed) {
        const std::uint64_t now = rt::rdtsc();
        if (account_cycles_) {
          const std::uint64_t d = now - t0;
          if (t_burst.owner == this) {
            t_burst.cyc_process += d;
            ++t_burst.cyc_packets;
          } else {
            cyc_process_.fetch_add(d, std::memory_order_relaxed);
            cyc_packets_.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (prof_here) {
          t_burst.prof_add(obs::ProfStage::kProcess, now - t_burst.prof_mark);
          t_burst.prof_mark = now;
        }
      }
      if (trace_id != 0) {
        span_event(registry_, obs::span_site_node(id_), trace_id,
                   obs::SpanKind::kProcess, rt::now_ns() - span_t0);
      }
    }
  }

  if (p->anno().is_control) {
    if (t_burst.owner == this) {
      ++t_burst.control_packets;
    } else {
      stats_.control_packets->inc();
    }
  } else if (t_burst.owner == this) {
    // Accumulate; worker_body flushes one meter/counter add per burst.
    ++t_burst.data_packets;
    t_burst.data_bytes += p->size();
  } else {
    meter_.add(1, p->size());
    stats_.packets_processed->inc();
  }

  // --- Phase D: emit. ---
  if (verdict == mbox::Verdict::kDrop) {
    // A filtering middlebox must not swallow in-flight state: its head
    // emits a propagating packet carrying the message (paper §5.1).
    stats_.drops_filtered->inc();
    pool_.free_raw(p);
    if (!msg.empty()) emit_propagating(std::move(msg));
    return true;
  }
  const std::uint64_t tf0 = account_cycles_ ? rt::rdtsc() : 0;
  emit(p, std::move(msg));
  if (timed) {
    const std::uint64_t now = rt::rdtsc();
    if (account_cycles_) {
      const std::uint64_t d = now - tf0;
      if (t_burst.owner == this) {
        t_burst.cyc_forward += d;
      } else {
        cyc_forward_.fetch_add(d, std::memory_order_relaxed);
      }
    }
    if (prof_here) {
      t_burst.prof_add(obs::ProfStage::kAppend, now - t_burst.prof_mark);
      t_burst.prof_mark = now;
    }
  }
  return true;
}

void FtcNode::park_for_room(Work&& work) {
  work.room_wait = true;
  if (!work.msg.commits.empty()) {
    PiggybackMessage commits;
    commits.commits = std::move(work.msg.commits);
    work.msg.commits.clear();
    emit_propagating(std::move(commits));
  }
  park(std::move(work));
}

void FtcNode::emit(pkt::Packet* p, PiggybackMessage&& msg) {
  if (p->anno().trace_id != 0) {
    span_event(registry_, obs::span_site_node(id_), p->anno().trace_id,
               obs::SpanKind::kNodeEgress);
  }
  if (buffer_ != nullptr) {
    buffer_->submit(p, std::move(msg));
    return;
  }
  net::Port* out = out_link_.load(std::memory_order_acquire);
  if (out == nullptr) {
    pool_.free_raw(p);
    return;
  }
  if (SFC_UNLIKELY(!append_message(*p, msg, cfg_.num_partitions))) {
    // The message outgrew this packet's tailroom (paper: use jumbo
    // frames). Detour: ship the message on a dedicated propagating packet
    // and send the data packet with an empty message (which always fits).
    stats_.oversize_detours->inc();
    emit_propagating(std::move(msg));
    append_message(*p, PiggybackMessage{}, cfg_.num_partitions);
  }
  BurstScope& b = t_burst;
  if (b.owner == this && b.out == out && b.n_tx < kMaxBurst) {
    // Data-path burst in flight: stage; worker_body flushes the whole
    // burst with one send_burst.
    b.tx[b.n_tx++] = p;
    return;
  }
  send_now(out, p);
}

void FtcNode::send_now(net::Port* out, pkt::Packet* p) {
  if (out->send(p)) return;
  // Exclude backpressure waits from busy accounting: a full downstream
  // queue is the next stage's problem, not this stage's work.
  const std::uint64_t w0 = account_cycles_ ? rt::rdtsc() : 0;
  if (!out->send_blocking(p)) pool_.free_raw(p);
  if (account_cycles_) t_blocked_cycles += rt::rdtsc() - w0;
}

void FtcNode::emit_propagating(PiggybackMessage&& msg) {
  if (msg.empty()) return;
  pkt::Packet* p = Forwarder::make_propagating_packet(pool_);
  if (p == nullptr) return;  // Pool exhausted; commits will ride later packets.
  if (buffer_ != nullptr) {
    buffer_->submit(p, std::move(msg));
    return;
  }
  net::Port* out = out_link_.load(std::memory_order_acquire);
  if (out == nullptr || !append_message(*p, msg, cfg_.num_partitions)) {
    pool_.free_raw(p);
    return;
  }
  if (!out->send_blocking(p)) pool_.free_raw(p);
}

void FtcNode::drain_parked() {
  // Runs once per packet-hop: nothing parked is the steady state, and it
  // costs one load. Every park() re-drains after parking, so work parked
  // by this thread is always seen here.
  if (parked_size_.load(std::memory_order_acquire) == 0) return;
  // Iterative and non-reentrant: finish_work() can cascade into further
  // processing, so a recursive drain could overflow the stack under loss.
  thread_local bool draining = false;
  if (draining) return;
  draining = true;

  for (;;) {
    std::vector<Work> candidates;
    {
      LockGuard lock(park_mutex_);
      if (parked_.empty()) break;
      candidates.swap(parked_);
      parked_in_hand_ += candidates.size();
      parked_size_.store(0, std::memory_order_release);
    }
    bool progress = false;
    // Once one packet found the head's history still full, the ones
    // behind it wait without another try: only a commit frees room.
    bool room_full = false;
    std::vector<Work> still_blocked;
    for (auto& work : candidates) {
      if (work.room_wait && room_full) {
        still_blocked.push_back(std::move(work));
        continue;
      }
      const std::size_t before = work.next_log;
      if (work.room_wait) {
        // Its logs were applied before it parked; only the room is new.
        work.room_wait = false;
        if (!finish_work(std::move(work))) {
          room_full = true;
          continue;
        }
        progress = true;
        continue;
      }
      if (apply_logs(work)) {
        const bool was_parked = work.parked_at_ns != 0;
        const MboxId unblocked = before < work.msg.logs.size()
                                     ? work.msg.logs[before].mbox
                                     : 0;
        if (was_parked && work.packet->anno().trace_id != 0) {
          span_event(registry_, obs::span_site_node(id_),
                     work.packet->anno().trace_id, obs::SpanKind::kUnpark,
                     rt::now_ns() - work.parked_at_ns);
        }
        if (!finish_work(std::move(work))) continue;  // Waits for room.
        if (was_parked) {
          trace_->emit(obs::Event::kPacketUnparked, unblocked,
                       still_blocked.size());
        }
        progress = true;
      } else {
        progress = progress || work.next_log != before;
        still_blocked.push_back(std::move(work));
      }
    }
    {
      LockGuard lock(park_mutex_);
      for (auto& work : still_blocked) parked_.push_back(std::move(work));
      parked_in_hand_ -= candidates.size();
      parked_size_.store(parked_.size(), std::memory_order_release);
    }
    if (!progress) break;
  }
  draining = false;
}

void FtcNode::check_parked_timeouts() {
  const std::uint64_t now = rt::now_ns();
  // Adaptive parked-work timeout: when the ingress transport measures an
  // RTO, track it (a NACK round trip rides the same path as the data), but
  // clamp between the configured floor and the fixed legacy timeout as
  // ceiling. Raw links expose no estimate and keep the fixed value.
  std::uint64_t park_timeout = cfg_.retransmit_timeout_ns;
  if (net::Port* in = in_link_.load(std::memory_order_acquire)) {
    if (const std::uint64_t rto = in->rto_ns(); rto != 0) {
      park_timeout = std::clamp(rto, cfg_.retransmit_timeout_floor_ns,
                                cfg_.retransmit_timeout_ns);
    }
  }
  std::vector<MboxId> to_nack;
  {
    LockGuard lock(park_mutex_);
    for (const auto& w : parked_) {
      if (now - w.parked_at_ns < park_timeout) continue;
      if (w.next_log >= w.msg.logs.size()) continue;
      const MboxId blocked_on = w.msg.logs[w.next_log].mbox;
      auto& last = last_nack_ns_[blocked_on];
      if (now - last < cfg_.nack_min_gap_ns) continue;
      last = now;
      to_nack.push_back(blocked_on);
    }
  }
  for (MboxId mbox : to_nack) {
    InOrderApplier* a = applier(mbox);
    if (a == nullptr) continue;
    net::Message req;
    req.type = kNack;
    req.from = id_;
    req.to = ring_pred_id_.load(std::memory_order_acquire);
    req.tag = (static_cast<std::uint64_t>(id_) << 32) | mbox;
    put_u32(req.payload, mbox);
    put_max(req.payload, a->max());
    const net::NodeId target = req.to;
    ctrl_.send(std::move(req));
    stats_.nacks_sent->inc();
    trace_->emit(obs::Event::kNackSent, mbox, target);
  }
}

void FtcNode::handle_control() {
  while (auto msg = ctrl_.poll(id_)) {
    switch (msg->type) {
      case kPing: {
        net::Message pong;
        pong.type = kPong;
        pong.from = id_;
        pong.to = msg->from;
        pong.tag = msg->tag;
        ctrl_.send(std::move(pong));
        break;
      }
      case kNack:
        handle_nack(*msg);
        break;
      case kNackResp:
        handle_nack_resp(*msg);
        break;
      case kFetchReq:
        handle_fetch(*msg);
        break;
      case kInit:
        handle_init(*msg);
        break;
      default:
        break;
    }
  }
}

void FtcNode::handle_init(const net::Message& req) {
  // Orchestrator-initiated recovery (paper §5.2). Payload: list of
  // (mbox id, source node id). The control worker is the only consumer of
  // this node's inbox, so recover_from() can poll for responses inline.
  std::span<const std::uint8_t> in(req.payload);
  std::uint32_t count = 0;
  if (!take_u32(in, count)) return;
  std::vector<std::pair<MboxId, net::NodeId>> sources;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t mbox = 0, node = 0;
    if (!take_u32(in, mbox) || !take_u32(in, node)) return;
    sources.emplace_back(mbox, node);
  }
  // Acknowledge initialization before fetching so the orchestrator can
  // separate initialization delay from state recovery delay (Figure 13).
  net::Message ack;
  ack.type = kInitAck;
  ack.from = id_;
  ack.to = req.from;
  ack.tag = req.tag;
  ctrl_.send(std::move(ack));
  trace_->emit(obs::Event::kRecoveryInit, sources.size());

  const std::uint64_t fetch_start = rt::now_ns();
  const bool ok = recover_from(sources);
  const std::uint64_t fetch_ns = rt::now_ns() - fetch_start;
  trace_->emit(obs::Event::kRecoveryDone, ok ? 1 : 0);
  registry_->timer("node.recovery_fetch_ns").record(fetch_ns);

  net::Message done;
  done.type = kRecovered;
  done.from = id_;
  done.to = req.from;
  done.tag = req.tag;
  done.payload.push_back(ok ? 1 : 0);
  const auto* p = reinterpret_cast<const std::uint8_t*>(&fetch_ns);
  done.payload.insert(done.payload.end(), p, p + 8);
  ctrl_.send(std::move(done));
}

void FtcNode::handle_nack(const net::Message& req) {
  std::span<const std::uint8_t> in(req.payload);
  std::uint32_t mbox = 0;
  MaxVector from;
  if (!take_u32(in, mbox) || !take_max(in, from)) return;

  net::Message resp;
  resp.type = kNackResp;
  resp.from = id_;
  resp.to = req.from;
  resp.tag = req.tag;
  put_u32(resp.payload, mbox);
  // The reply copies the history's wire records straight into the payload.
  const std::size_t count_at = resp.payload.size();
  if (head_ != nullptr && mbox == position_) {
    head_->history().copy_after(from, resp.payload);
  } else if (InOrderApplier* a = applier(mbox)) {
    a->history().copy_after(from, resp.payload);
  } else {
    serialize_logs({}, resp.payload);
  }
  std::uint32_t shipped = 0;
  std::memcpy(&shipped, resp.payload.data() + count_at, 4);
  ctrl_.send(std::move(resp));
  stats_.nacks_served->inc();
  trace_->emit(obs::Event::kNackServed, mbox, shipped);
}

void FtcNode::handle_nack_resp(const net::Message& resp) {
  std::span<const std::uint8_t> in(resp.payload);
  std::uint32_t mbox = 0;
  std::vector<WireLog> logs;  // Cursors into the payload.
  if (!take_u32(in, mbox) || !parse_logs(in, logs)) return;
  InOrderApplier* a = applier(mbox);
  if (a == nullptr) return;
  std::uint64_t applied = 0;
  for (const auto& log : logs) {
    if (a->offer_wire(log) == InOrderApplier::Offer::kApplied) {
      stats_.logs_applied->inc();
      ++applied;
    }
  }
  trace_->emit(obs::Event::kNackApplied, mbox, applied);
  // Shard mode: the replayed logs were routed into the owners' handoff
  // rings above; the unblocked parked packets must also re-run on a data
  // worker (their transactions are shard-owned), so leave the drain to the
  // workers' idle path instead of transacting from the control thread.
  if (handoff_mesh_ == nullptr) drain_parked();
}

void FtcNode::quiesce_and(const std::function<void()>& fn) {
  // seq_cst store pairs with the worker's announce-then-check (Dekker):
  // after the spin below observes active == 0, every worker either saw the
  // flag before touching anything or has fully left its iteration.
  quiesced_.store(true, std::memory_order_seq_cst);
  while (active_workers_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  if (handoff_mesh_ != nullptr) {
    // Workers are parked: write exclusivity transfers to this thread.
    // Flush in-flight cross-shard portions so fn() (serialization) sees a
    // consistent cut.
    for (std::uint32_t w = 0; w < shard_map_->num_workers(); ++w) {
      drain_handoff(w);
    }
  }
  fn();
  quiesced_.store(false, std::memory_order_release);
}

void FtcNode::handle_fetch(const net::Message& req) {
  std::span<const std::uint8_t> in(req.payload);
  std::uint32_t mbox = 0;
  if (!take_u32(in, mbox)) return;

  net::Message resp;
  resp.type = kFetchResp;
  resp.from = id_;
  resp.to = req.from;
  resp.tag = req.tag;
  put_u32(resp.payload, mbox);

  bool ok = false;
  // Paper §5.2: the fetch source stops admitting packets so the transfer
  // is a consistent cut; we quiesce the data workers for the serialization.
  // The blob is serialized straight into the response after the ok flag.
  const std::size_t ok_at = resp.payload.size();
  put_u32(resp.payload, 0);
  quiesce_and([&] {
    if (head_ != nullptr && mbox == position_) {
      head_->serialize(resp.payload);
      ok = true;
    } else if (InOrderApplier* a = applier(mbox)) {
      a->serialize(resp.payload);
      ok = true;
    }
  });
  const std::uint32_t ok_flag = ok ? 1 : 0;
  std::memcpy(resp.payload.data() + ok_at, &ok_flag, 4);
  ctrl_.send(std::move(resp));
}

bool FtcNode::recover_from(
    const std::vector<std::pair<MboxId, net::NodeId>>& sources,
    std::uint64_t timeout_ns) {
  // All fetch requests are issued up front and responses collected as they
  // arrive, so the per-group transfers overlap on the wire — the parallel
  // fetch the paper credits for the replication factor's negligible impact
  // on recovery time (§7.5).
  struct Fetch {
    MboxId mbox;
    net::NodeId source;
    bool done{false};
    bool ok{false};
  };
  std::vector<Fetch> fetches;
  for (const auto& [mbox, source] : sources) {
    fetches.push_back(Fetch{mbox, source, false, false});
    net::Message req;
    req.type = kFetchReq;
    req.from = id_;
    req.to = source;
    req.tag = (static_cast<std::uint64_t>(id_) << 32) | (mbox + 1);
    put_u32(req.payload, mbox);
    ctrl_.send(std::move(req));
    trace_->emit(obs::Event::kRecoveryFetchStart, mbox, source);
    span_event(registry_, obs::span_site_node(id_),
               obs::recovery_trace_id(position_), obs::SpanKind::kFetchStart,
               mbox);
  }

  const std::uint64_t deadline = rt::now_ns() + timeout_ns;
  std::size_t outstanding = fetches.size();
  while (outstanding > 0 && rt::now_ns() < deadline) {
    auto msg = ctrl_.poll(id_);
    if (!msg) {
      std::this_thread::yield();
      continue;
    }
    if (msg->type != kFetchResp) continue;
    std::span<const std::uint8_t> in(msg->payload);
    std::uint32_t mbox = 0, ok = 0;
    if (!take_u32(in, mbox) || !take_u32(in, ok)) continue;
    for (auto& f : fetches) {
      if (f.mbox != mbox || f.done) continue;
      f.done = true;
      --outstanding;
      if (ok == 0) break;
      if (head_ != nullptr && mbox == position_) {
        f.ok = head_->deserialize(in);
      } else if (InOrderApplier* a = applier(mbox)) {
        f.ok = a->deserialize(in);
      }
      trace_->emit(obs::Event::kRecoveryFetchDone, mbox, f.ok ? 1 : 0);
      span_event(registry_, obs::span_site_node(id_),
                 obs::recovery_trace_id(position_), obs::SpanKind::kFetchDone,
                 mbox);
      break;
    }
  }

  bool all_ok = outstanding == 0;
  for (const auto& f : fetches) all_ok = all_ok && f.ok;
  return all_ok;
}

NodeStats FtcNode::stats() const { return stats_.snapshot(); }


FtcNode::CycleBreakdown FtcNode::cycle_breakdown() const {
  CycleBreakdown b;
  b.packets = cyc_packets_.load();
  b.process_cycles = cyc_process_.load();
  b.piggyback_cycles = cyc_piggyback_.load();
  b.forward_cycles = cyc_forward_.load();
  return b;
}

}  // namespace sfc::ftc

#include "core/stores.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "obs/prof.hpp"
#include "runtime/worker.hpp"

namespace sfc::ftc {

namespace {

// Locks @p m, attributing contention to the applier MAX mutex when the
// hot-path profiler is installed (a failed try_lock means another worker
// held the mutex). One load + branch when disabled.
// TSA sees the returned scoped lock through the ACQUIRE annotation; the
// body is excluded because the defer/try/lock dance is not expressible.
UniqueLock lock_max_mutex(Mutex& m)
    SFC_ACQUIRE(m) SFC_NO_THREAD_SAFETY_ANALYSIS {
  UniqueLock lock(m, std::defer_lock);
  if (SFC_UNLIKELY(obs::hot_profiler() != nullptr)) {
    const bool uncontended = lock.try_lock();
    if (!uncontended) {
      obs::prof_count(obs::ProfCounter::kApplierMutexContended);
      lock.lock();
    }
    obs::prof_count(obs::ProfCounter::kApplierMutexAcquire);
  } else {
    lock.lock();
  }
  return lock;
}

// Failover transfer blob: store contents, then the MAX / dependency
// vector, then the retained log history. The format is shared by HeadStore
// and InOrderApplier because a failed head is restored FROM its
// successor's applier and vice versa (paper §5.2).
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

void put_vector(std::vector<std::uint8_t>& out, const MaxVector& v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(v.seq.data());
  out.insert(out.end(), p, p + sizeof(v.seq));
}

bool take_vector(std::span<const std::uint8_t>& in, MaxVector& v) {
  if (in.size() < sizeof(v.seq)) return false;
  std::memcpy(v.seq.data(), in.data(), sizeof(v.seq));
  in = in.subspan(sizeof(v.seq));
  return true;
}

/// Appends the length-prefixed store blob, serialized in place: the
/// length is patched in once the store has written itself.
void serialize_store(state::StateStore& store, std::vector<std::uint8_t>& out) {
  const std::size_t len_at = out.size();
  put_u32(out, 0);
  store.serialize(out);
  const auto len = static_cast<std::uint32_t>(out.size() - len_at - 4);
  std::memcpy(out.data() + len_at, &len, 4);
}

/// Writes the serialize_logs() blob that ends @p in into @p history.
/// Restore runs before the node's workers start, so this thread is the
/// history's only writer.
bool restore_history(LogHistory& history, std::span<const std::uint8_t> in) {
  std::vector<WireLog> logs;
  if (!parse_logs(in, logs) || !in.empty()) return false;
  for (const auto& log : logs) {
    if (!history.record({log.bytes, log.wire_size})) return false;
  }
  return true;
}

}  // namespace

void HeadStore::serialize(std::vector<std::uint8_t>& out) {
  serialize_store(store_, out);
  MaxVector deps;
  deps.seq = txn_ctx_.sequence_snapshot();
  put_vector(out, deps);
  history_.copy_after(MaxVector{}, out);
}

bool HeadStore::deserialize(std::span<const std::uint8_t> in) {
  std::uint32_t store_len = 0;
  if (!take_u32(in, store_len) || in.size() < store_len) return false;
  if (!store_.deserialize(in.subspan(0, store_len))) return false;
  in = in.subspan(store_len);
  MaxVector deps;
  if (!take_vector(in, deps)) return false;
  // Paper §5.2: the new head adopts the fetched MAX as its dependency
  // vector, so the next transactions continue the sequence numbers.
  txn_ctx_.restore_sequences(deps.seq);
  return restore_history(history_, in);
}

void InOrderApplier::enable_shard_affine(const state::ShardMap* map,
                                         StateHandoffMesh* mesh) {
  shard_map_ = map;
  mesh_ = mesh;
  store_.enable_shard_affine();
  // Carry any pre-enable MAX into the per-partition sequences. Enable runs
  // before the node's workers start, so there is no concurrent offer.
  LockGuard lock(mutex_);
  for (std::size_t p = 0; p < state::kMaxPartitions; ++p) {
    pseq_[p].store(max_.seq[p], std::memory_order_relaxed);
    enq_seq_[p].store(max_.seq[p], std::memory_order_relaxed);
  }
}

LogFit InOrderApplier::classify_pending(const DepVector& dep,
                                        std::uint64_t& pending) const noexcept {
  pending = 0;
  for (std::uint64_t m = dep.mask; m != 0; m &= m - 1) {
    const auto p = static_cast<std::size_t>(std::countr_zero(m));
    // The frontier is the applied seq OR the highest seq already admitted
    // into a handoff ring: an in-flight portion counts as covered (its
    // owner is guaranteed to drain it), so a batch of consecutive logs
    // offered from one thread classifies applicable log after log instead
    // of stalling on the first enqueue.
    const auto s = pseq_[p].load(std::memory_order_acquire);
    const auto f = std::max(s, enq_seq_[p].load(std::memory_order_acquire));
    if (dep.seq[p] <= f) continue;  // applied, or in flight to its owner
    if (dep.seq[p] != f + 1) return LogFit::kFuture;
    pending |= 1ULL << p;
  }
  return pending == 0 ? LogFit::kDuplicate : LogFit::kApplicable;
}

bool InOrderApplier::route_portions(const DepVector& dep, std::uint64_t pending,
                                    std::uint64_t& mine, const WireLog* wire,
                                    const state::WriteSet* writes) {
  const std::uint32_t self = rt::current_shard();
  const std::size_t producer =
      self == rt::kNoShard ? mesh_->producers() - 1 : self;

  // Split the pending portion by owning worker. One handoff entry per
  // foreign owner aggregates all of that owner's partitions. An owned
  // partition applies directly ONLY when nothing is in flight for it
  // (enq <= pseq): applying over an undrained ring entry would reorder
  // seqs, so the owner routes through its own ring (SPSC with itself on
  // both ends) and the drain restores order.
  mine = 0;
  std::uint64_t theirs[state::ShardMap::kMaxWorkers] = {};
  for (std::uint64_t m = pending; m != 0; m &= m - 1) {
    const auto p = static_cast<std::size_t>(std::countr_zero(m));
    const auto owner = shard_map_->owner_of(p);
    if (owner == self &&
        enq_seq_[p].load(std::memory_order_relaxed) <=
            pseq_[p].load(std::memory_order_relaxed)) {
      mine |= 1ULL << p;
    } else {
      theirs[owner] |= 1ULL << p;
    }
  }
  if (mine == pending) return true;  // fully owned: nothing to enqueue

  // All-or-nothing admission: as this thread is each target ring's only
  // producer, a positive free-slot pre-check cannot be invalidated before
  // our push, so either every portion is admitted or the whole log holds.
  for (std::uint32_t o = 0; o < shard_map_->num_workers(); ++o) {
    if (theirs[o] != 0 && !mesh_->can_push(producer, o)) return false;
  }
  for (std::uint32_t o = 0; o < shard_map_->num_workers(); ++o) {
    if (theirs[o] == 0) continue;
    StateHandoff h;
    h.applier = this;
    h.dep = dep;
    h.portion = theirs[o];
    if (wire != nullptr) {
      for_each_wire_write(*wire, [&](const state::WireUpdate& u) {
        const auto p = store_.partition_of(u.key);
        if ((theirs[o] >> p) & 1u) {
          h.writes.push_back(state::StateUpdate{
              u.key, state::Bytes(u.value.data(), u.value.size()), u.erase});
        }
      });
    } else {
      for (const auto& w : *writes) {
        const auto p = store_.partition_of(w.key);
        if ((theirs[o] >> p) & 1u) h.writes.push_back(w);
      }
    }
    mesh_->push(producer, o, std::move(h));
    obs::prof_count(obs::ProfCounter::kHandoffPush);
    // Advance the enqueued frontier AFTER the push: a thread that observes
    // the new frontier and enqueues seq+1 is guaranteed the seq entry is
    // already poppable, so an owner that drains its rings to exhaustion
    // can always resolve in-flight chains.
    for (std::uint64_t m = theirs[o]; m != 0; m &= m - 1) {
      const auto p = static_cast<std::size_t>(std::countr_zero(m));
      std::uint64_t cur = enq_seq_[p].load(std::memory_order_relaxed);
      while (cur < dep.seq[p] &&
             !enq_seq_[p].compare_exchange_weak(cur, dep.seq[p],
                                                std::memory_order_release,
                                                std::memory_order_relaxed)) {
      }
    }
  }
  return true;
}

InOrderApplier::Offer InOrderApplier::offer_shard(const PiggybackLog& log) {
  std::uint64_t pending = 0;
  switch (classify_pending(log.dep, pending)) {
    case LogFit::kDuplicate:
      return Offer::kDuplicate;
    case LogFit::kFuture:
      return Offer::kHeld;
    case LogFit::kApplicable:
      break;
  }
  const std::size_t wire = wire_log_size(log);
  if (!history_.reserve(wire)) return Offer::kHeld;
  std::uint64_t mine = 0;
  if (!route_portions(log.dep, pending, mine, nullptr, &log.writes)) {
    history_.unreserve(wire);
    return Offer::kHeld;
  }
  if (mine != 0) {
    store_.apply_owner({log.writes.data(), log.writes.size()}, mine);
    advance_pseq(log.dep, mine);
  }
  history_.record(log, true, wire);
  applied_.fetch_add(1, std::memory_order_release);
  return Offer::kApplied;
}

InOrderApplier::Offer InOrderApplier::offer_shard_wire(const WireLog& log) {
  std::uint64_t pending = 0;
  switch (classify_pending(log.dep, pending)) {
    case LogFit::kDuplicate:
      return Offer::kDuplicate;
    case LogFit::kFuture:
      return Offer::kHeld;
    case LogFit::kApplicable:
      break;
  }
  if (!history_.reserve(log.wire_size)) return Offer::kHeld;
  std::uint64_t mine = 0;
  if (!route_portions(log.dep, pending, mine, &log, nullptr)) {
    history_.unreserve(log.wire_size);
    return Offer::kHeld;
  }
  if (mine != 0) {
    // Owner-hit fast path: copy applicable writes straight from the wire
    // into the store — no lock, no atomic RMW, one seqlock version bump
    // per touched partition.
    rt::SmallVector<state::WireUpdate, 16> updates;
    for_each_wire_write(log, [&](const state::WireUpdate& u) {
      updates.push_back(u);
    });
    store_.apply_wire_owner({updates.data(), updates.size()}, mine);
    advance_pseq(log.dep, mine);
  }
  history_.record({log.bytes, log.wire_size}, true, log.wire_size);
  applied_.fetch_add(1, std::memory_order_release);
  return Offer::kApplied;
}

bool InOrderApplier::apply_handoff(StateHandoff& h) {
  // Re-classify each portion against pseq. Stale bits (racing producers
  // can enqueue duplicates of the same (partition, seq) portion; first
  // drain wins) and applied bits clear; future bits (predecessor seq in a
  // different ring of the same owner — rings are FIFO per producer, not
  // across producers) stay set for the caller to defer and retry.
  std::uint64_t fresh = 0;
  std::uint64_t future = 0;
  for (std::uint64_t m = h.portion; m != 0; m &= m - 1) {
    const auto p = static_cast<std::size_t>(std::countr_zero(m));
    const auto s = pseq_[p].load(std::memory_order_relaxed);
    if (h.dep.seq[p] == s + 1) {
      fresh |= 1ULL << p;
    } else if (h.dep.seq[p] > s + 1) {
      future |= 1ULL << p;
    }
  }
  if (fresh != 0) {
    store_.apply_owner({h.writes.data(), h.writes.size()}, fresh);
    advance_pseq(h.dep, fresh);
  }
  h.portion = future;
  return future == 0;
}

InOrderApplier::Offer InOrderApplier::offer(const PiggybackLog& log) {
  if (shard_map_ != nullptr) return offer_shard(log);
  const std::size_t wire = wire_log_size(log);
  {
    auto lock = lock_max_mutex(mutex_);
    switch (classify(max_, log.dep)) {
      case LogFit::kDuplicate:
        return Offer::kDuplicate;
      case LogFit::kFuture:
        return Offer::kHeld;
      case LogFit::kApplicable:
        break;
    }
    if (!history_.reserve(wire)) return Offer::kHeld;
    max_.advance(log.dep);
    // Apply inside the MAX mutex: the touched partitions' next logs only
    // become applicable after max_ advanced, and advancing before the
    // store write would let a dependent log overtake this one's writes.
    store_.apply(log.writes);
  }
  history_.record(log, true, wire);
  applied_.fetch_add(1, std::memory_order_release);
  return Offer::kApplied;
}

void InOrderApplier::offer_burst(std::span<const WireLog> logs,
                                 Offer* results) {
  if (shard_map_ != nullptr) {
    // Shard mode has no burst-wide mutex to amortize: each log classifies
    // against pseq and applies through the owner path (or routes through
    // the mesh) independently.
    for (std::size_t i = 0; i < logs.size(); ++i) {
      results[i] = offer_shard_wire(logs[i]);
    }
    return;
  }
  // Applicable writes across the burst, collected in log order so
  // same-key writes land newest-last, exactly as per-log applies would.
  rt::SmallVector<state::WireUpdate, 16> updates;
  std::uint64_t n_applied = 0;
  {
    auto lock = lock_max_mutex(mutex_);
    for (std::size_t i = 0; i < logs.size(); ++i) {
      switch (classify(max_, logs[i].dep)) {
        case LogFit::kDuplicate:
          results[i] = Offer::kDuplicate;
          continue;
        case LogFit::kFuture:
          results[i] = Offer::kHeld;
          continue;
        case LogFit::kApplicable:
          break;
      }
      if (!history_.reserve(logs[i].wire_size)) {
        results[i] = Offer::kHeld;  // No room until a commit prunes.
        continue;
      }
      max_.advance(logs[i].dep);
      for_each_wire_write(logs[i], [&](const state::WireUpdate& u) {
        updates.push_back(u);
      });
      results[i] = Offer::kApplied;
      ++n_applied;
    }
    // Apply inside the MAX mutex, same as offer(): the writes must be in
    // the store before the mutex releases, or a dependent log offered by
    // a sibling thread could overtake them.
    if (!updates.empty()) store_.apply_wire({updates.data(), updates.size()});
  }
  if (n_applied != 0) {
    // The history keeps the applied logs' wire bytes (a group's tail keeps
    // none); relayed logs are never copied.
    if (history_.enabled()) {
      for (std::size_t i = 0; i < logs.size(); ++i) {
        if (results[i] == Offer::kApplied) {
          history_.record({logs[i].bytes, logs[i].wire_size}, true,
                          logs[i].wire_size);
        }
      }
    }
    applied_.fetch_add(n_applied, std::memory_order_release);
  }
}

void InOrderApplier::serialize(std::vector<std::uint8_t>& out) {
  serialize_store(store_, out);
  put_vector(out, max());
  history_.copy_after(MaxVector{}, out);
}

bool InOrderApplier::deserialize(std::span<const std::uint8_t> in) {
  std::uint32_t store_len = 0;
  if (!take_u32(in, store_len) || in.size() < store_len) return false;
  if (!store_.deserialize(in.subspan(0, store_len))) return false;
  in = in.subspan(store_len);
  MaxVector restored;
  if (!take_vector(in, restored)) return false;
  // A tail keeps no history: the restored logs are validated and dropped.
  if (!restore_history(history_, in)) return false;
  {
    LockGuard lock(mutex_);
    max_ = restored;
  }
  if (shard_map_ != nullptr) {
    // Recovery runs quiesced (workers drained, control has exclusivity);
    // the restored vector seeds the per-partition sequences directly.
    for (std::size_t p = 0; p < state::kMaxPartitions; ++p) {
      pseq_[p].store(restored.seq[p], std::memory_order_release);
      enq_seq_[p].store(restored.seq[p], std::memory_order_release);
    }
  }
  applied_.fetch_add(1, std::memory_order_release);
  return true;
}

}  // namespace sfc::ftc

// Hot-path budget profiler and steady-state "quiet mode" assertions.
//
// The paper's Table 2 attributes FTC's per-packet cost to a handful of
// stages; this module does the same attribution *live*: every worker
// thread owns a cache-line-padded slot of per-stage TSC accumulators, and
// the data-path code brackets its burst-loop stages with rdtsc deltas when
// a profiler is installed. Installation is process-global and run-time
// gated — every instrumentation point costs one relaxed/acquire load plus
// one predictable branch when no profiler is installed (the same idiom as
// the SpanSampler's off-path check), and the profiler itself is always
// compiled in.
//
// Quiet mode turns steady-state invariants into hard assertions: once
// armed (after warmup), any pool-allocation failure, pool free-retry,
// contended partition-lock acquisition, contended applier MAX-mutex
// acquisition, blocking-send retry, or heap allocation inside a data
// worker's burst (counted per thread by the replaced operator new) is
// recorded as a violation. Callers
// (sfc_cli --quiet-assert, the budget-gate bench) dump the span flight
// recorder and fail the run when violations exist.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/mutex.hpp"
#include "runtime/clock.hpp"
#include "runtime/common.hpp"

namespace sfc::obs {

class Registry;  // registry export lives in prof.cpp; keep this header light

// ---------------------------------------------------------------------------
// Stages and counters

/// Stages of per-packet cost. The first kProfPrimaryStageCount stages are
/// the non-overlapping top-level pipeline phases of a worker's burst loop;
/// their cycle sums reconcile against the worker's busy wall-clock time.
/// The remaining stages are nested drill-downs (timed *inside* a primary
/// stage, possibly on another thread) and are reported separately.
enum class ProfStage : std::uint8_t {
  // Primary (non-overlapping; sum ~= busy wall time of the worker):
  kPoll = 0,     // ingress poll_burst on the in port
  kViewWalk,     // piggyback view open / frame classification
  kLogApply,     // per-burst replica log apply (grouped per applier)
  kTailCommit,   // tail duty: strip logs, attach commits, prune history
  kProcess,      // middlebox packet transaction
  kAppend,       // log append + egress staging / emit
  kEgressFlush,  // burst egress flush (send_burst + blocking stragglers)
  kParkDrain,    // parked-work drain + park bookkeeping
  kHandoffDrain, // cross-shard handoff ring drain (shard-affine mode)
  // Auxiliary (nested inside primary stages or on non-worker threads):
  kLinkSend,   // Port::send / send_burst internals (Link, ReliableChannel)
  kLinkPoll,   // Port::poll / poll_burst internals
  kStoreApply, // StateStore::apply_wire (inside kLogApply)
  kPoolAlloc,  // PacketPool::alloc_raw
  kPoolFree,   // PacketPool::free_raw
};
inline constexpr std::size_t kProfStageCount = 14;
inline constexpr std::size_t kProfPrimaryStageCount = 9;

const char* prof_stage_name(ProfStage stage) noexcept;

inline constexpr bool prof_stage_primary(ProfStage stage) noexcept {
  return static_cast<std::size_t>(stage) < kProfPrimaryStageCount;
}

/// Event counters: lock acquisition vs contention, allocation slow paths,
/// blocking-send retries. The *violation* subset trips quiet mode.
enum class ProfCounter : std::uint8_t {
  kPartitionLockAcquire = 0,
  kPartitionLockContended,  // violation: first CAS lost to another owner
  kApplierMutexAcquire,
  kApplierMutexContended,  // violation: MAX-mutex try_lock failed
  kPoolAllocFailure,       // violation: pool exhausted, alloc returned null
  kPoolFreeRetry,          // violation: free raced a concurrent alloc
  kSendRetry,              // violation: send_blocking spun on a full ring
  kOwnerMiss,              // violation: shard-affine txn on a non-owner thread
  kHandoffPush,            // cross-shard write handed to the owning worker
  kHeapAlloc,              // violation: a data-worker burst allocated
};
inline constexpr std::size_t kProfCounterCount = 10;

const char* prof_counter_name(ProfCounter c) noexcept;

inline constexpr bool prof_counter_is_violation(ProfCounter c) noexcept {
  return c != ProfCounter::kPartitionLockAcquire &&
         c != ProfCounter::kApplierMutexAcquire &&
         c != ProfCounter::kHandoffPush;
}

// ---------------------------------------------------------------------------
// Per-worker accumulator slot

/// One worker thread's accumulators. Cache-line aligned and written only by
/// the owning thread (relaxed atomics so concurrent report snapshots are
/// race-free under TSan).
struct alignas(rt::kCacheLineSize) ProfSlot {
  std::atomic<std::uint64_t> cycles[kProfStageCount];
  std::atomic<std::uint64_t> ops[kProfStageCount];
  std::atomic<std::uint64_t> packets{0};      // data packets this worker handled
  std::atomic<std::uint64_t> bursts{0};       // non-empty burst iterations
  std::atomic<std::uint64_t> wall_cycles{0};  // busy wall: cycles spent in
                                              // non-empty burst iterations
  std::atomic<std::uint64_t> counters[kProfCounterCount];
  char name[48]{};
  std::atomic<bool> used{false};

  void add(ProfStage stage, std::uint64_t delta_cycles,
           std::uint64_t op_count = 1) noexcept {
    const auto i = static_cast<std::size_t>(stage);
    cycles[i].fetch_add(delta_cycles, std::memory_order_relaxed);
    ops[i].fetch_add(op_count, std::memory_order_relaxed);
  }
};

/// RAII stage timer: accumulates the enclosed rdtsc delta (and an op count)
/// into @p slot, or does nothing when @p slot is null.
class ProfStageTimer {
 public:
  ProfStageTimer(ProfSlot* slot, ProfStage stage,
                 std::uint64_t op_count = 1) noexcept
      : slot_(slot) {
    if (SFC_UNLIKELY(slot_ != nullptr)) {
      stage_ = stage;
      ops_ = op_count;
      start_ = rt::rdtsc();
    }
  }
  ~ProfStageTimer() {
    if (SFC_UNLIKELY(slot_ != nullptr)) {
      slot_->add(stage_, rt::rdtsc() - start_, ops_);
    }
  }
  ProfStageTimer(const ProfStageTimer&) = delete;
  ProfStageTimer& operator=(const ProfStageTimer&) = delete;

 private:
  ProfSlot* slot_;
  ProfStage stage_{ProfStage::kPoll};
  std::uint64_t ops_{0};
  std::uint64_t start_{0};
};

// ---------------------------------------------------------------------------
// Reports

struct ProfViolation {
  ProfCounter kind;
  std::uint64_t ts_ns;  // wall-clock (steady) time the violation fired
  std::string worker;
};

struct BudgetStageRow {
  ProfStage stage;
  std::uint64_t cycles{0};
  std::uint64_t ops{0};
  double cycles_per_packet{0.0};  // cycles / denominator (see BudgetWorker)
  double ns_per_packet{0.0};
};

struct BudgetWorker {
  std::string worker;
  std::uint64_t packets{0};
  std::uint64_t bursts{0};
  std::uint64_t wall_cycles{0};
  /// sum(primary stage cycles) / wall_cycles; 0 when wall_cycles == 0.
  double reconciliation{0.0};
  std::vector<BudgetStageRow> stages;  // all kProfStageCount rows, in order
  std::uint64_t counters[kProfCounterCount]{};
};

struct BudgetReport {
  double tsc_hz{0.0};
  std::vector<BudgetWorker> workers;  // per-worker rows (used slots only)
  BudgetWorker total;                 // aggregate across workers
  bool quiet_armed{false};
  std::uint64_t quiet_violations{0};
  std::vector<ProfViolation> violations;  // first kMaxViolationRecords only
};

/// Renders a table2-style text table (ns/packet and cycles/packet per
/// stage, per worker plus the aggregate).
std::string budget_to_text(const BudgetReport& report);

// ---------------------------------------------------------------------------
// HotProfiler

class HotProfiler : rt::NonCopyable {
 public:
  static constexpr std::size_t kMaxSlots = 64;
  static constexpr std::size_t kMaxViolationRecords = 64;

  HotProfiler();
  ~HotProfiler();

  /// Fast path: the calling thread's slot, or nullptr if the thread has not
  /// registered with this profiler yet. Thread-local cached; no locking.
  ProfSlot* maybe_slot() noexcept;

  /// Registers (idempotently) the calling thread under @p name. Cheap after
  /// the first call per thread. Worker threads call this with their worker
  /// label; deep layers use auto_slot() instead.
  ProfSlot* thread_slot(std::string_view name);

  /// Like thread_slot() but auto-names unregistered threads "t<N>". Used by
  /// instrumentation points that do not know their worker's label.
  ProfSlot* auto_slot();

  /// Bumps @p c on the calling thread's slot. When quiet mode is armed and
  /// @p c is a violation counter, records a violation.
  void count(ProfCounter c, std::uint64_t n = 1) noexcept;

  // Quiet mode -------------------------------------------------------------
  void arm_quiet() noexcept;
  void disarm_quiet() noexcept;
  bool quiet_armed() const noexcept {
    return quiet_armed_.load(std::memory_order_acquire);
  }
  std::uint64_t quiet_violation_count() const noexcept {
    return quiet_violations_.load(std::memory_order_acquire);
  }
  /// True when quiet mode has been armed and nothing violated it.
  bool quiet_ok() const noexcept {
    return quiet_was_armed_.load(std::memory_order_acquire) &&
           quiet_violation_count() == 0;
  }
  std::vector<ProfViolation> violations() const;

  /// Zeroes every slot's accumulators and the whole quiet state — armed
  /// latch included, so callers re-arm explicitly (slots stay registered).
  /// Used at the warmup/measure boundary.
  void reset() noexcept;

  // Reporting --------------------------------------------------------------
  BudgetReport report() const;

  /// Publishes the budget as registry gauges (budget.ns_per_packet{stage,
  /// worker}, budget.cycles_per_packet{...}, budget.counter{kind},
  /// budget.reconciliation{worker}, budget.quiet_*) so it lands in every
  /// BENCH_*.json snapshot. Idempotent; call at report time.
  void export_metrics(Registry& registry) const;

  std::uint64_t generation() const noexcept { return gen_; }

 private:
  ProfSlot* register_thread(std::string_view name);
  BudgetWorker row_for(const ProfSlot* slot) const;

  const std::uint64_t gen_;
  ProfSlot slots_[kMaxSlots];
  std::atomic<std::uint32_t> next_slot_{0};
  /// A thread's first prof_count can fire inside PartitionLock::lock, so
  /// slot registration must rank below the partition locks.
  Mutex register_mutex_{ranks::kProfRegister, "prof.register"};

  std::atomic<bool> quiet_armed_{false};
  std::atomic<bool> quiet_was_armed_{false};
  std::atomic<std::uint64_t> quiet_violations_{0};
  /// Violations are recorded from arbitrary hot-path lock contexts
  /// (contended partition lock, applier MAX mutex), so this is nearly the
  /// innermost rank in the tree.
  mutable Mutex violation_mutex_{ranks::kProfViolation, "prof.violation"};
  std::vector<ProfViolation> violation_records_
      SFC_GUARDED_BY(violation_mutex_);
};

// ---------------------------------------------------------------------------
// Process-global installation (run-time gate)

namespace detail {
extern std::atomic<HotProfiler*> g_hot_profiler;
}

/// The installed profiler, or nullptr. This load + null check is the entire
/// disabled-path cost of every instrumentation point.
inline HotProfiler* hot_profiler() noexcept {
  return detail::g_hot_profiler.load(std::memory_order_acquire);
}

/// Installs @p p as the process-global profiler. Returns false (and leaves
/// the current profiler in place) if another profiler is already installed.
bool install_hot_profiler(HotProfiler* p) noexcept;

/// Uninstalls @p p if it is the installed profiler (no-op otherwise).
void uninstall_hot_profiler(HotProfiler* p) noexcept;

/// Calling thread's slot of the installed profiler (auto-registered), or
/// nullptr when no profiler is installed. Single branch when disabled.
inline ProfSlot* prof_slot() noexcept {
  HotProfiler* p = hot_profiler();
  if (SFC_UNLIKELY(p != nullptr)) return p->auto_slot();
  return nullptr;
}

/// Heap allocations (operator new, any form) the calling thread has made.
/// The library replaces the global operator new/delete to count them; a
/// data worker compares two readings around a burst (quiet mode).
std::uint64_t thread_heap_allocs() noexcept;

/// Bumps @p c on the installed profiler, if any. Single branch when
/// disabled.
inline void prof_count(ProfCounter c, std::uint64_t n = 1) noexcept {
  HotProfiler* p = hot_profiler();
  if (SFC_UNLIKELY(p != nullptr)) p->count(c, n);
}

}  // namespace sfc::obs

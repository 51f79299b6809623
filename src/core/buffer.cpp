#include "core/buffer.hpp"

#include <algorithm>

#include "obs/span.hpp"
#include "runtime/clock.hpp"

namespace sfc::ftc {
namespace {

inline void span_event(obs::Registry* reg, std::uint64_t trace_id,
                       obs::SpanKind kind) noexcept {
  if (auto* sink = reg->span_sink()) {
    sink->record(obs::SpanRecord{trace_id, rt::now_ns(), 0,
                                 obs::kSpanSiteBuffer, kind});
  }
}

}  // namespace

EgressBuffer::EgressBuffer(pkt::PacketPool& pool, net::Port& egress,
                           FeedbackChannel& feedback, obs::Registry* registry)
    : pool_(pool), egress_(egress), feedback_(feedback) {
  if (registry == nullptr) {
    own_registry_ = std::make_unique<obs::Registry>();
    registry = own_registry_.get();
  }
  registry_ = registry;
  registry->name_span_site(obs::kSpanSiteBuffer, "egress-buffer");
  submitted_ = &registry->counter("buffer.submitted");
  released_ = &registry->counter("buffer.released");
  released_immediately_ = &registry->counter("buffer.released_immediately");
  control_consumed_ = &registry->counter("buffer.control_consumed");
  held_gauge_ = &registry->gauge("buffer.held");
  high_water_ = &registry->gauge("buffer.high_water");
}

BufferStats EgressBuffer::stats() const {
  BufferStats s;
  s.submitted = submitted_->value();
  s.released = released_->value();
  s.released_immediately = released_immediately_->value();
  s.control_consumed = control_consumed_->value();
  s.high_water = static_cast<std::uint64_t>(high_water_->value());
  return s;
}

bool EgressBuffer::is_covered(const Held& held) const {
  for (const auto& pending : held.pending) {
    const auto it = known_commits_.find(pending.mbox);
    if (it == known_commits_.end() || !it->second.covers(pending.dep)) {
      return false;
    }
  }
  return true;
}

void EgressBuffer::release_locked(Held& held) {
  if (held.packet->anno().trace_id != 0) {
    span_event(registry_, held.packet->anno().trace_id,
               obs::SpanKind::kBufferRelease);
  }
  release_stage_[n_stage_++] = held.packet;
  held.packet = nullptr;
  if (n_stage_ == kMaxBurst) flush_releases_locked();
}

void EgressBuffer::flush_releases_locked() {
  if (n_stage_ == 0) return;
  // The egress link is drained by the measurement sink; block rather than
  // lose a released packet. One bulk send covers the common case; only
  // stragglers (egress momentarily full) fall back to blocking sends.
  const std::size_t sent = egress_.send_burst({release_stage_, n_stage_});
  for (std::size_t i = sent; i < n_stage_; ++i) {
    egress_.send_blocking(release_stage_[i]);
  }
  released_->add(n_stage_);
  n_stage_ = 0;
}

void EgressBuffer::absorb(std::span<const CommitVector> commits) {
  LockGuard lock(mutex_);
  for (const auto& c : commits) {
    auto [it, inserted] = known_commits_.try_emplace(c.mbox, c.max);
    if (!inserted) it->second.merge(c.max);
  }
}

void EgressBuffer::submit(pkt::Packet* p, PiggybackMessage&& msg) {
  // Cache: the packet leaves our hands inside submit_core (freed for
  // control packets, sent for released ones).
  const bool is_control = p->anno().is_control;
  const std::uint64_t trace_id = p->anno().trace_id;
  std::vector<PendingLog> pending;
  if (!is_control) {
    pending.reserve(msg.logs.size());
    for (const auto& log : msg.logs) {
      pending.push_back(PendingLog{log.mbox, log.dep});
    }
  }
  submit_core(p, is_control, trace_id, {msg.commits.data(), msg.commits.size()},
              std::move(pending));

  // Commit vectors end their journey here (tail -> ... -> buffer, paper
  // §5.1); only logs still traveling toward their wrap-around tails feed
  // back to the forwarder. Dropping commits also terminates the idle
  // propagation loop: once every log is stripped at its tail, feedback
  // messages become empty.
  msg.commits.clear();
  if (!msg.empty()) feedback_.push(msg);
}

void EgressBuffer::submit_wire(pkt::Packet* p, PiggybackView& v) {
  const bool is_control = p->anno().is_control;
  const std::uint64_t trace_id = p->anno().trace_id;
  rt::SmallVector<CommitVector, 2> commits;
  std::vector<PendingLog> pending;
  if (v.ok()) {
    for (std::size_t i = 0; i < v.commit_count(); ++i) {
      CommitVector c;
      c.mbox = v.commit(i, c.max);
      commits.push_back(std::move(c));
    }
    const std::size_t n = v.log_count();
    if (!is_control && n != 0) {
      pending.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        const WireLog log = v.log(i);
        pending.push_back(PendingLog{log.mbox, log.dep});
      }
    }
    // Surviving (wrap-around) logs outlive the packet on the feedback
    // channel: one copy of their wire bytes, never materialized. Commits
    // stay here, as on the materializing path.
    if (n != 0) feedback_.push_logs(v);
    v.strip_tail();  // The packet leaves the chain bare.
  }
  submit_core(p, is_control, trace_id, {commits.data(), commits.size()},
              std::move(pending));
}

void EgressBuffer::submit_core(pkt::Packet* p, bool is_control,
                               std::uint64_t trace_id,
                               std::span<const CommitVector> commits,
                               std::vector<PendingLog>&& pending) {
  LockGuard lock(mutex_);
  submitted_->inc();

  // Absorb the commit knowledge this packet carries.
  for (const auto& c : commits) {
    auto [it, inserted] = known_commits_.try_emplace(c.mbox, c.max);
    if (!inserted) it->second.merge(c.max);
  }

  if (is_control) {
    control_consumed_->inc();
    pool_.free_raw(p);
  } else {
    Held held{p, std::move(pending)};
    if (held.pending.empty() || is_covered(held)) {
      // Nothing outstanding (e.g. read-only path all along the chain, or
      // commits already caught up): release without holding.
      release_locked(held);
      released_immediately_->inc();
    } else {
      if (trace_id != 0) {
        span_event(registry_, trace_id, obs::SpanKind::kBufferHold);
      }
      held_.push_back(std::move(held));
      high_water_->set(std::max<std::int64_t>(
          high_water_->value(), static_cast<std::int64_t>(held_.size())));
    }
  }

  // Release the covered prefix. Commit vectors advance cumulatively per
  // partition and packets arrive roughly in commit order, so prefix
  // scanning is O(1) amortized where a full scan per submit would be
  // quadratic at saturation. A non-prefix-eligible hold is released at the
  // latest by the next commit for its partitions (or the periodic full
  // scan on control packets below).
  while (!held_.empty() && is_covered(held_.front())) {
    release_locked(held_.front());
    held_.pop_front();
  }
  if (is_control && ++full_scans_ % 4 == 0) {
    for (auto it = held_.begin(); it != held_.end();) {
      if (is_covered(*it)) {
        release_locked(*it);
        it = held_.erase(it);
      } else {
        ++it;
      }
    }
  }
  flush_releases_locked();
  held_gauge_->set(static_cast<std::int64_t>(held_.size()));
}

void EgressBuffer::release_eligible() {
  LockGuard lock(mutex_);
  for (auto it = held_.begin(); it != held_.end();) {
    if (is_covered(*it)) {
      release_locked(*it);
      it = held_.erase(it);
    } else {
      ++it;
    }
  }
  flush_releases_locked();
  held_gauge_->set(static_cast<std::int64_t>(held_.size()));
}

}  // namespace sfc::ftc

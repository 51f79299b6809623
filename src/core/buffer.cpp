#include "core/buffer.hpp"

#include <algorithm>
#include <bit>

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
                           FeedbackChannel& feedback, obs::Registry* registry,
                           std::size_t max_held)
    : pool_(pool),
      egress_(egress),
      feedback_(feedback),
      held_(std::make_unique_for_overwrite<Held[]>(
          std::bit_ceil(std::max<std::size_t>(1, max_held)))),
      cap_(std::bit_ceil(std::max<std::size_t>(1, max_held))) {
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

void EgressBuffer::add_dep(Held& held, MboxId mbox, const DepVector& dep) {
  const auto n = static_cast<std::uint32_t>(2 + std::popcount(dep.mask));
  std::uint64_t* out = nullptr;
  if (held.spill == 0 && held.n_words + n <= kHeldWords) {
    out = held.words + held.n_words;
  } else {
    // Past the inline words: the whole hold moves to a spill (rare: many
    // logs, or logs over many partitions), so deps_of() is one array.
    if (held.spill == 0) {
      held.spill = ++next_spill_ == 0 ? ++next_spill_ : next_spill_;
      spills_[held.spill].assign(held.words, held.words + held.n_words);
    }
    std::vector<std::uint64_t>& spill = spills_[held.spill];
    spill.resize(held.n_words + n);
    out = spill.data() + held.n_words;
  }
  held.n_words += n;
  *out++ = mbox;
  *out++ = dep.mask;
  for (std::uint64_t m = dep.mask; m != 0; m &= m - 1) {
    *out++ = dep.seq[static_cast<std::size_t>(std::countr_zero(m))];
  }
}

const std::uint64_t* EgressBuffer::deps_of(const Held& held) const {
  return held.spill == 0 ? held.words : spills_.at(held.spill).data();
}

bool EgressBuffer::is_covered(const Held& held) const {
  const std::uint64_t* w = deps_of(held);
  for (std::uint32_t i = 0; i < held.n_words;) {
    const auto mbox = static_cast<MboxId>(w[i]);
    const std::uint64_t mask = w[i + 1];
    i += 2;
    const auto it = known_commits_.find(mbox);
    if (it == known_commits_.end()) return false;
    for (std::uint64_t m = mask; m != 0; m &= m - 1, ++i) {
      if (w[i] > it->second.seq[static_cast<std::size_t>(std::countr_zero(m))]) {
        return false;
      }
    }
  }
  return true;
}

void EgressBuffer::absorb_locked(const CommitVector& c) {
  auto [it, inserted] = known_commits_.try_emplace(c.mbox, c.max);
  bool advanced = inserted;
  if (!inserted) {
    for (std::size_t p = 0; p < state::kMaxPartitions; ++p) {
      if (c.max.seq[p] > it->second.seq[p]) {
        it->second.seq[p] = c.max.seq[p];
        advanced = true;
      }
    }
  }
  // Only an advance is published, and the forwarder splices each value
  // once: a returned commit that comes around again changes nothing here,
  // so it cannot circulate.
  if (advanced && feedback_.returns_commit(c.mbox)) {
    feedback_.publish_commit(c.mbox, it->second);
  }
}

void EgressBuffer::release_locked(Held& held) {
  if (held.packet->anno().trace_id != 0) {
    span_event(registry_, held.packet->anno().trace_id,
               obs::SpanKind::kBufferRelease);
  }
  release_stage_[n_stage_++] = held.packet;
  held.packet = nullptr;
  if (SFC_UNLIKELY(held.spill != 0)) spills_.erase(held.spill);
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

EgressBuffer::Held& EgressBuffer::push_held() {
  if (span_ == cap_) {
    // Full: double the ring, keeping arrival order.
    auto bigger = std::make_unique_for_overwrite<Held[]>(2 * cap_);
    for (std::size_t i = 0; i < span_; ++i) {
      bigger[i] = held_[(head_ + i) & (cap_ - 1)];
    }
    held_ = std::move(bigger);
    cap_ *= 2;
    head_ = 0;
  }
  return held_[(head_ + span_++) & (cap_ - 1)];
}

void EgressBuffer::trim_front_locked() {
  while (span_ != 0 && held_[head_].packet == nullptr) {
    head_ = (head_ + 1) & (cap_ - 1);
    --span_;
  }
}

void EgressBuffer::release_covered_locked() {
  for (std::size_t i = 0; i < span_; ++i) {
    Held& h = held_[(head_ + i) & (cap_ - 1)];
    if (h.packet != nullptr && is_covered(h)) {
      release_locked(h);
      --n_held_;
    }
  }
  trim_front_locked();
}

void EgressBuffer::absorb(std::span<const CommitVector> commits) {
  LockGuard lock(mutex_);
  for (const auto& c : commits) absorb_locked(c);
}

void EgressBuffer::submit(pkt::Packet* p, PiggybackMessage&& msg) {
  {
    LockGuard lock(mutex_);
    for (const auto& c : msg.commits) absorb_locked(c);
    const bool is_control = p->anno().is_control;
    Held& held = is_control ? scratch_ : push_held();
    reset(held, p);
    if (!is_control) {
      for (const auto& log : msg.logs) add_dep(held, log.mbox, log.dep);
    }
    submit_core(is_control, p->anno().trace_id, held);
  }

  // Commit vectors do not ride the records: returned ones go through the
  // channel's commit slots (absorb_locked), the rest end here (paper
  // §5.1). Only logs still traveling toward their wrap-around tails feed
  // back to the forwarder.
  msg.commits.clear();
  if (!msg.empty()) feedback_.push(msg);
}

void EgressBuffer::submit_wire(pkt::Packet* p, PiggybackView& v) {
  // Surviving (wrap-around) logs outlive the packet on the feedback
  // channel: one copy of their wire bytes, never materialized, and no
  // commit vectors.
  if (v.ok() && v.log_count() != 0) feedback_.push_logs(v);
  LockGuard lock(mutex_);
  const bool is_control = p->anno().is_control;
  Held& held = is_control ? scratch_ : push_held();
  reset(held, p);
  if (v.ok()) {
    for (std::size_t i = 0; i < v.commit_count(); ++i) {
      CommitVector c;
      c.mbox = v.commit(i, c.max);
      absorb_locked(c);
    }
    if (!is_control) {
      for (std::size_t i = 0; i < v.log_count(); ++i) {
        const WireLog log = v.log(i);
        add_dep(held, log.mbox, log.dep);
      }
    }
    v.strip_tail();  // The packet leaves the chain bare.
  }
  submit_core(is_control, p->anno().trace_id, held);
}

void EgressBuffer::submit_core(bool is_control, std::uint64_t trace_id,
                               Held& held) {
  submitted_->inc();
  if (is_control) {
    control_consumed_->inc();
    pool_.free_raw(held.packet);
    held.packet = nullptr;
  } else if (held.n_words == 0 || is_covered(held)) {
    // Nothing outstanding (e.g. read-only path all along the chain, or
    // commits already caught up): release without holding, and give the
    // slot (the ring's last) back.
    release_locked(held);
    released_immediately_->inc();
    --span_;
  } else {
    if (trace_id != 0) span_event(registry_, trace_id, obs::SpanKind::kBufferHold);
    ++n_held_;
    high_water_->set(std::max<std::int64_t>(high_water_->value(),
                                            static_cast<std::int64_t>(n_held_)));
  }

  // Release the covered prefix. Commit vectors advance cumulatively per
  // partition and packets arrive roughly in commit order, so prefix
  // scanning is O(1) amortized where a full scan per submit would be
  // quadratic at saturation. A non-prefix-eligible hold is released at the
  // latest by the next commit for its partitions (or the periodic full
  // scan on control packets below).
  while (span_ != 0) {
    Held& front = held_[head_];
    if (front.packet != nullptr) {
      if (!is_covered(front)) break;
      release_locked(front);
      --n_held_;
    }
    head_ = (head_ + 1) & (cap_ - 1);
    --span_;
  }
  if (is_control && ++full_scans_ % 4 == 0) release_covered_locked();
  flush_releases_locked();
  held_gauge_->set(static_cast<std::int64_t>(n_held_));
  feedback_.set_held(n_held_ != 0);
}

void EgressBuffer::release_eligible() {
  LockGuard lock(mutex_);
  release_covered_locked();
  flush_releases_locked();
  held_gauge_->set(static_cast<std::int64_t>(n_held_));
  feedback_.set_held(n_held_ != 0);
}

}  // namespace sfc::ftc

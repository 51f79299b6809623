#include "core/forwarder.hpp"

#include <algorithm>
#include <bit>
#include <thread>

namespace sfc::ftc {

FeedbackChannel::~FeedbackChannel() {
  while (pop_with([this](const FeedbackRecord& r) {
    if (r.carrier != nullptr) pool_.free_raw(r.carrier);
  })) {
  }
}

template <typename Size, typename Write>
void FeedbackChannel::push_split(std::size_t n, Size&& size, Write&& write) {
  std::size_t first = 0;
  do {
    std::size_t last = n;
    if (SFC_UNLIKELY(size(first, last) > kPropagatingRoom)) {
      last = first + 1;
      while (last < n && size(first, last + 1) <= kPropagatingRoom) ++last;
    }
    push_message(size(first, last),
                 [&](std::uint8_t* out) { write(first, last, out); });
    first = last;
  } while (first < n);
}

template <typename Write>
void FeedbackChannel::push_message(std::size_t size, Write&& write) {
  pkt::Packet* carrier = nullptr;
  if (SFC_UNLIKELY(size > FeedbackRecord::kCapacity)) {
    if (size > kPropagatingRoom) {
      oversize_drops_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // A wait here (and for a queue slot below) lasts until the forwarder
    // consumes; it is counted (forwarder.feedback_full_waits), never a
    // loss.
    if ((carrier = Forwarder::make_propagating_packet(pool_)) == nullptr) {
      full_waits_.fetch_add(1, std::memory_order_relaxed);
      do {
        std::this_thread::yield();
      } while ((carrier = Forwarder::make_propagating_packet(pool_)) == nullptr);
    }
    write(carrier->push_back(size));
  }
  const auto fill = [&](FeedbackRecord& r) {
    r.carrier = carrier;
    r.size = carrier != nullptr ? 0 : static_cast<std::uint32_t>(size);
    if (carrier == nullptr) write(r.bytes);
  };
  if (!queue_.try_push_with(fill)) {
    full_waits_.fetch_add(1, std::memory_order_relaxed);
    do {
      std::this_thread::yield();
    } while (!queue_.try_push_with(fill));
  }
}

void FeedbackChannel::publish_commit(MboxId mbox,
                                     const MaxVector& max) noexcept {
  CommitSlot& slot = commits_[mbox];
  const std::uint64_t v = slot.version.load(std::memory_order_relaxed);
  slot.version.store(v + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  for (std::size_t p = 0; p < num_partitions_; ++p) {
    slot.seq[p].store(max.seq[p], std::memory_order_relaxed);
  }
  slot.version.store(v + 2, std::memory_order_release);
}

bool FeedbackChannel::commit_pending() const noexcept {
  for (std::uint64_t bits = commit_returns_; bits != 0; bits &= bits - 1) {
    const CommitSlot& slot = commits_[std::countr_zero(bits)];
    if (slot.version.load(std::memory_order_acquire) !=
        slot.taken.load(std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

void FeedbackChannel::push_logs(const PiggybackView& v) {
  push_split(
      v.log_count(),
      [&v](std::size_t first, std::size_t last) {
        return v.logs_message_size(first, last);
      },
      [&v](std::size_t first, std::size_t last, std::uint8_t* out) {
        v.copy_logs(first, last, out);
      });
}

void FeedbackChannel::push(const PiggybackMessage& msg) {
  // Parts: each log, then the commit vectors as one block, which travels
  // with the last logs.
  const std::span<const PiggybackLog> logs{msg.logs.data(), msg.logs.size()};
  const std::span<const CommitVector> commits{msg.commits.data(),
                                              msg.commits.size()};
  const auto logs_of = [logs](std::size_t first, std::size_t last) {
    last = std::min(last, logs.size());
    first = std::min(first, last);
    return logs.subspan(first, last - first);
  };
  const auto commits_of = [logs, commits](std::size_t last) {
    return last > logs.size() ? commits : std::span<const CommitVector>{};
  };
  push_split(
      logs.size() + (commits.empty() ? 0 : 1),
      [&](std::size_t first, std::size_t last) {
        return serialized_size(logs_of(first, last), commits_of(last),
                               num_partitions_);
      },
      [&](std::size_t first, std::size_t last, std::uint8_t* out) {
        serialize_message(logs_of(first, last), commits_of(last),
                          num_partitions_, out);
      });
}

std::size_t Forwarder::splice(pkt::Packet& p, PiggybackView& view,
                              pkt::Packet** extra) {
  view = PiggybackView{};
  const bool records = feedback_.pending_approx() != 0;
  if (!records && !feedback_.commit_pending()) return 0;
  std::size_t n_extra = 0;
  pkt::Packet* target = &p;
  if (SFC_UNLIKELY(p.tailroom() < kSpliceRoom)) {
    pkt::Packet* prop = make_propagating_packet(pool_);
    if (prop == nullptr) return 0;  // The records wait for a later packet.
    fallbacks_.fetch_add(1, std::memory_order_relaxed);
    extra[n_extra++] = prop;
    target = prop;
  }
  PiggybackView v;
  for (std::size_t i = 0; records && i < cfg_.forwarder_merge_limit; ++i) {
    if (v.ok() && target->tailroom() < kSpliceRoom) break;
    pkt::Packet* carrier = nullptr;
    const bool popped = feedback_.pop_with([&](const FeedbackRecord& r) {
      if (r.carrier != nullptr) {
        carrier = r.carrier;
      } else if (!v.ok()) {
        v = PiggybackView::attach(*target, r.message());
      } else {
        v.merge(r.message());
      }
    });
    if (!popped) break;
    if (SFC_UNLIKELY(carrier != nullptr)) {
      // Runs after what was spliced so far: feedback order is kept.
      spills_.fetch_add(1, std::memory_order_relaxed);
      extra[n_extra++] = carrier;
      break;
    }
  }
  // Returned commits ride the same packet; kSpliceRoom leaves room for
  // them. One that does not fit stays pending for the next packet.
  feedback_.splice_commits([&](MboxId mbox, const MaxVector& max) {
    if (!v.ok()) v = PiggybackView::create(*target, cfg_.num_partitions);
    return v.ok() && v.merge_commit(mbox, max);
  });
  if (target == &p) view = std::move(v);
  return n_extra;
}

}  // namespace sfc::ftc

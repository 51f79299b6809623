// Tests of the benchmark's own logic: the closed loop's window, open-loop
// stall accounting, seeded flow sequences, and the delivery checker.
// Build and run with `python3 ftcbench/run.py --self-test`.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "loadgen.hpp"

namespace ftcbench {
namespace {

/// Loopback port: what is sent comes back on poll, after @p hold polls.
/// Tracks packets inside it so tests can bound the generator's window.
class LoopbackPort final : public net::Port {
 public:
  explicit LoopbackPort(std::size_t hold_polls = 0, std::size_t capacity = 1 << 20)
      : hold_polls_(hold_polls), capacity_(capacity) {}

  bool send(pkt::Packet* p) override {
    if (q_.size() >= capacity_) return false;
    q_.push_back({p, polls_ + hold_polls_});
    max_inside_ = std::max(max_inside_, q_.size());
    return true;
  }
  bool send_blocking(pkt::Packet* p, std::uint64_t) override { return send(p); }
  std::size_t send_burst(std::span<pkt::Packet*> ps) override {
    std::size_t n = 0;
    while (n < ps.size() && send(ps[n])) ++n;
    return n;
  }
  pkt::Packet* poll() override {
    pkt::Packet* p = nullptr;
    return poll_burst(&p, 1) == 1 ? p : nullptr;
  }
  std::size_t poll_burst(pkt::Packet** out, std::size_t max) override {
    ++polls_;
    std::size_t n = 0;
    while (n < max && !q_.empty() && q_.front().ready_at <= polls_) {
      out[n++] = q_.front().p;
      q_.pop_front();
    }
    return n;
  }
  net::LinkStats stats() const noexcept override { return {}; }
  bool drained() const noexcept override { return q_.empty(); }

  std::size_t max_inside() const noexcept { return max_inside_; }

 private:
  struct Entry {
    pkt::Packet* p;
    std::uint64_t ready_at;
  };
  const std::size_t hold_polls_;
  const std::size_t capacity_;
  std::deque<Entry> q_;
  std::uint64_t polls_{0};
  std::size_t max_inside_{0};
};

LoadGen::Options options() { return LoadGen::Options{}; }

TEST(LoadGen, ClosedLoopNeverExceedsWindow) {
  pkt::PacketPool pool(4096);
  DeliveryChecker checker;
  FlowSequence seq({64, 0}, 7);
  for (const std::size_t window : {1, 7, 32, 100}) {
    LoopbackPort p(5);
    LoadGen g(pool, p, p, tgen::Workload{}, checker, options());
    const PhaseResult r = g.closed_loop(seq, 5000, window, 1, 10'000'000'000ull);
    EXPECT_FALSE(r.timed_out);
    EXPECT_EQ(r.delivered, 5000u);
    EXPECT_LE(r.max_in_flight, window);
    EXPECT_LE(p.max_inside(), window);
    EXPECT_EQ(p.max_inside(), window) << "the window should fill";
  }
  EXPECT_EQ(checker.result().missing, 0u);
}

TEST(LoadGen, ClosedLoopRetriesIngressRejectsWithinWindow) {
  pkt::PacketPool pool(4096);
  LoopbackPort port(/*hold_polls=*/3, /*capacity=*/10);
  DeliveryChecker checker;
  FlowSequence seq({64, 0}, 7);
  LoadGen gen(pool, port, port, tgen::Workload{}, checker, options());
  const PhaseResult r = gen.closed_loop(seq, 2000, 64, 0, 10'000'000'000ull);
  EXPECT_EQ(r.delivered, 2000u);
  EXPECT_GT(r.ingress_rejects, 0u);
  EXPECT_EQ(r.rejected, 0u) << "closed-loop refusals are retried";
  EXPECT_LE(r.max_in_flight, 64u);
  EXPECT_TRUE(checker.result().ok());
}

TEST(LoadGen, OpenLoopStallIsChargedToLaterPackets) {
  pkt::PacketPool pool(4096);
  LoopbackPort port;
  DeliveryChecker checker;
  FlowSequence seq({64, 0}, 7);
  // Synthetic clock: 100 ns per call, one 1 ms stall after call 2000.
  std::uint64_t t = 1'000'000, calls = 0;
  constexpr std::uint64_t kStall = 1'000'000;
  Clock clock = [&] {
    t += 100;
    if (++calls == 2000) t += kStall;
    return t;
  };
  LoadGen gen(pool, port, port, tgen::Workload{}, checker, options(), clock);
  // 1 Mpps: one packet due every microsecond.
  const PhaseResult r = gen.open_loop(seq, 3000, 1e6, 1'000'000'000ull);
  ASSERT_FALSE(r.timed_out);
  ASSERT_EQ(r.delivered, 3000u);
  ASSERT_EQ(r.latency_ns.size(), 3000u);
  // Before the stall latencies are a few clock ticks; the packet due just
  // before the stall ended waited for nearly the whole stall.
  std::uint64_t worst = 0;
  for (auto v : r.latency_ns) worst = std::max(worst, v);
  EXPECT_GE(worst, kStall * 9 / 10);
  std::vector<std::uint64_t> late = r.late_ns;
  EXPECT_GE(quantile(late, 1.0), static_cast<double>(kStall) * 0.9);
  // About stall / period packets were due during the stall; all of them
  // carry at least part of it.
  std::size_t charged = 0;
  for (auto v : r.latency_ns) charged += v >= 100'000 ? 1 : 0;
  EXPECT_GE(charged, 800u);
  EXPECT_LE(charged, 1100u);
}

TEST(LoadGen, OpenLoopIngressRejectIsAFailure) {
  pkt::PacketPool pool(4096);
  LoopbackPort port(/*hold_polls=*/1000, /*capacity=*/50);
  DeliveryChecker checker;
  FlowSequence seq({64, 0}, 7);
  std::uint64_t t = 0;
  Clock clock = [&] { return t += 1000; };
  LoadGen gen(pool, port, port, tgen::Workload{}, checker, options(), clock);
  const PhaseResult r = gen.open_loop(seq, 500, 1e7, 1'000'000'000ull);
  EXPECT_GT(r.rejected, 0u);
  EXPECT_EQ(r.sent + r.rejected, 500u);
  EXPECT_EQ(r.delivered, r.sent);
  EXPECT_TRUE(checker.result().ok()) << "rejected ids are not expected";
}

TEST(FlowSequence, SameSeedSameSequence) {
  for (const std::uint64_t churn : {std::uint64_t{0}, std::uint64_t{32}}) {
    FlowSequence a({1024, churn}, 99), b({1024, churn}, 99), c({1024, churn}, 100);
    EXPECT_EQ(a.prefill_order(), b.prefill_order());
    std::vector<std::size_t> sa, sb, sc;
    for (int i = 0; i < 100'000; ++i) {
      sa.push_back(a.next());
      sb.push_back(b.next());
      sc.push_back(c.next());
    }
    EXPECT_EQ(sa, sb);
    EXPECT_NE(sa, sc);
    EXPECT_EQ(a.flows_seen(), b.flows_seen());
  }
}

TEST(FlowSequence, ChurnReplacesExpiredFlowsWithFreshOnes) {
  FlowSequence seq({1024, 32}, 5);
  const auto prefill = seq.prefill_order();
  EXPECT_EQ(prefill.size(), 1024u);
  std::vector<bool> seen(1024, false);
  for (auto i : prefill) seen.at(i) = true;
  EXPECT_EQ(std::count(seen.begin(), seen.end(), true), 1024)
      << "the prefill is a permutation of the active flows";
  constexpr int kPackets = 320'000;
  std::size_t max_index = 0;
  for (int i = 0; i < kPackets; ++i) max_index = std::max(max_index, seq.next());
  const auto fresh = seq.flows_seen() - 1024;
  EXPECT_EQ(max_index + 1, seq.flows_seen()) << "fresh indices are never reused";
  // Mean lifetime ~31 packets after the cap: about one new flow per 31.
  EXPECT_GT(fresh, static_cast<std::size_t>(kPackets / 40));
  EXPECT_LT(fresh, static_cast<std::size_t>(kPackets / 24));
  FlowSequence still({1024, 0}, 5);
  for (int i = 0; i < 10'000; ++i) EXPECT_LT(still.next(), 1024u);
  EXPECT_EQ(still.flows_seen(), 1024u);
}

TEST(FlowSequence, ChurnStartsInSteadyState) {
  // The nat-churn shape: 16,384 active flows, mean lifetime 32. Each slot
  // sees only ~4 packets in the first 70,000, so fresh flows must come from
  // the initial flows' residual lifetimes, at about one per 31 packets.
  FlowSequence seq({16'384, 32}, 11);
  constexpr int kPackets = 70'000;
  for (int i = 0; i < kPackets; ++i) seq.next();
  const auto fresh = seq.flows_seen() - 16'384;
  EXPECT_GT(fresh, static_cast<std::size_t>(kPackets / 40));
  EXPECT_LT(fresh, static_cast<std::size_t>(kPackets / 24));
}

TEST(DeliveryChecker, FlagsDroppedAndDuplicatedIds) {
  DeliveryChecker c;
  for (std::uint64_t id = 1; id <= 10; ++id) c.injected(id);
  for (std::uint64_t id = 1; id <= 10; ++id) {
    if (id != 4) c.delivered(id);  // 4 dropped
  }
  c.delivered(7);   // duplicate
  c.delivered(99);  // never injected
  const auto r = c.result();
  EXPECT_EQ(r.injected, 10u);
  EXPECT_EQ(r.delivered, 9u);
  EXPECT_EQ(r.missing, 1u);
  EXPECT_EQ(r.duplicates, 1u);
  EXPECT_EQ(r.unknown, 1u);
  EXPECT_FALSE(r.ok());

  DeliveryChecker clean;
  for (std::uint64_t id = 1; id <= 3; ++id) clean.injected(id);
  clean.withdrawn(2);
  clean.delivered(1);
  clean.delivered(3);
  EXPECT_TRUE(clean.result().ok());
}

TEST(Quantile, NearestRank) {
  std::vector<std::uint64_t> v{5, 1, 4, 2, 3};
  EXPECT_EQ(quantile(v, 0.5), 3.0);
  EXPECT_EQ(quantile(v, 1.0), 5.0);
  EXPECT_EQ(quantile(v, 0.0), 1.0);
  std::vector<std::uint64_t> empty;
  EXPECT_EQ(quantile(empty, 0.5), 0.0);
}

}  // namespace
}  // namespace ftcbench

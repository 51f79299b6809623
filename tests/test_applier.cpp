// Tests for HeadStore / InOrderApplier / LogHistory: in-order application,
// holds, duplicates, pruning, retransmission bodies, failover transfer.
#include <gtest/gtest.h>

#include <thread>

#include "core/stores.hpp"
#include "packet/packet_io.hpp"

namespace sfc::ftc {
namespace {

ChainConfig test_cfg() {
  ChainConfig cfg;
  cfg.num_partitions = 16;
  cfg.history_capacity = 128;
  return cfg;
}

PiggybackLog log_for(state::StateStore& store, state::Key key,
                     std::uint64_t seq, std::uint64_t value) {
  PiggybackLog log;
  log.mbox = 0;
  const auto p = store.partition_of(key);
  log.dep.mask = 1ULL << p;
  log.dep.seq[p] = seq;
  log.writes.push_back({key, state::Bytes::of(value), false});
  return log;
}

TEST(InOrderApplier, AppliesInOrder) {
  const auto cfg = test_cfg();
  InOrderApplier a(0, cfg);
  const state::Key k = 7;
  EXPECT_EQ(a.offer(log_for(a.store(), k, 1, 10)), InOrderApplier::Offer::kApplied);
  EXPECT_EQ(a.offer(log_for(a.store(), k, 2, 20)), InOrderApplier::Offer::kApplied);
  EXPECT_EQ(a.store().get(k)->as<std::uint64_t>(), 20u);
  EXPECT_EQ(a.applied_count(), 2u);
}

TEST(InOrderApplier, HoldsFutureAppliesAfterGapFilled) {
  const auto cfg = test_cfg();
  InOrderApplier a(0, cfg);
  const state::Key k = 7;
  const auto second = log_for(a.store(), k, 2, 20);
  const auto first = log_for(a.store(), k, 1, 10);
  EXPECT_EQ(a.offer(second), InOrderApplier::Offer::kHeld);
  EXPECT_FALSE(a.store().get(k).has_value());
  EXPECT_EQ(a.offer(first), InOrderApplier::Offer::kApplied);
  EXPECT_EQ(a.offer(second), InOrderApplier::Offer::kApplied);
  EXPECT_EQ(a.store().get(k)->as<std::uint64_t>(), 20u);
}

TEST(InOrderApplier, DuplicateDetected) {
  const auto cfg = test_cfg();
  InOrderApplier a(0, cfg);
  const state::Key k = 7;
  const auto first = log_for(a.store(), k, 1, 10);
  EXPECT_EQ(a.offer(first), InOrderApplier::Offer::kApplied);
  EXPECT_EQ(a.offer(first), InOrderApplier::Offer::kDuplicate);
  EXPECT_EQ(a.applied_count(), 1u);
}

TEST(InOrderApplier, DisjointPartitionsApplyInAnyOrder) {
  const auto cfg = test_cfg();
  InOrderApplier a(0, cfg);
  state::Key k1 = 0, k2 = 1;
  while (a.store().partition_of(k1) == a.store().partition_of(k2)) ++k2;
  const auto la = log_for(a.store(), k1, 1, 111);
  const auto lb = log_for(a.store(), k2, 1, 222);
  EXPECT_EQ(a.offer(lb), InOrderApplier::Offer::kApplied);
  EXPECT_EQ(a.offer(la), InOrderApplier::Offer::kApplied);
  EXPECT_EQ(a.store().get(k1)->as<std::uint64_t>(), 111u);
  EXPECT_EQ(a.store().get(k2)->as<std::uint64_t>(), 222u);
}

TEST(InOrderApplier, MaxTracksAppliedLogs) {
  const auto cfg = test_cfg();
  InOrderApplier a(0, cfg);
  const state::Key k = 3;
  const auto p = a.store().partition_of(k);
  a.offer(log_for(a.store(), k, 1, 1));
  a.offer(log_for(a.store(), k, 2, 2));
  EXPECT_EQ(a.max().seq[p], 2u);
}

TEST(InOrderApplier, ConcurrentDisjointAppliesAllLand) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 2000;
  // Several applying threads share the history (its lock), and no commit
  // prunes it here: it must hold every log.
  auto cfg = test_cfg();
  cfg.threads_per_node = kThreads;
  cfg.history_capacity = kThreads * kPerThread;
  InOrderApplier a(0, cfg);

  // Pick one key per thread, all in distinct partitions.
  std::vector<state::Key> keys;
  for (state::Key k = 0; keys.size() < kThreads; ++k) {
    bool dup = false;
    for (auto e : keys) dup |= a.store().partition_of(e) == a.store().partition_of(k);
    if (!dup) keys.push_back(k);
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t s = 1; s <= kPerThread; ++s) {
        ASSERT_EQ(a.offer(log_for(a.store(), keys[t], s, s)),
                  InOrderApplier::Offer::kApplied);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(a.store().get(keys[t])->as<std::uint64_t>(), kPerThread);
  }
  EXPECT_EQ(a.applied_count(), kThreads * kPerThread);
}

TEST(InOrderApplier, EraseLogsApply) {
  const auto cfg = test_cfg();
  InOrderApplier a(0, cfg);
  const state::Key k = 5;
  a.offer(log_for(a.store(), k, 1, 10));
  PiggybackLog erase_log;
  erase_log.mbox = 0;
  const auto p = a.store().partition_of(k);
  erase_log.dep.mask = 1ULL << p;
  erase_log.dep.seq[p] = 2;
  erase_log.writes.push_back({k, state::Bytes{}, true});
  EXPECT_EQ(a.offer(erase_log), InOrderApplier::Offer::kApplied);
  EXPECT_FALSE(a.store().get(k).has_value());
}

/// The logs a copy_after() blob holds.
std::vector<PiggybackLog> logs_of(const std::vector<std::uint8_t>& blob) {
  std::span<const std::uint8_t> in(blob);
  std::vector<PiggybackLog> out;
  EXPECT_TRUE(deserialize_logs(in, out));
  EXPECT_TRUE(in.empty());
  return out;
}

TEST(LogHistory, RecordsAndServesRetransmissions) {
  LogHistory h(10);
  state::StateStore probe(16);
  for (std::uint64_t s = 1; s <= 5; ++s) {
    EXPECT_TRUE(h.record(log_for(probe, 7, s, s)));
  }
  EXPECT_EQ(h.size(), 5u);

  MaxVector have;
  have.seq[probe.partition_of(7)] = 3;
  std::vector<std::uint8_t> blob;
  h.copy_after(have, blob);
  const auto missing = logs_of(blob);
  ASSERT_EQ(missing.size(), 2u);
  EXPECT_EQ(missing[0], log_for(probe, 7, 4, 4));
  EXPECT_EQ(missing[1], log_for(probe, 7, 5, 5));
}

TEST(LogHistory, PruneDropsCoveredPrefix) {
  LogHistory h(10);
  state::StateStore probe(16);
  for (std::uint64_t s = 1; s <= 5; ++s) h.record(log_for(probe, 7, s, s));
  MaxVector commit;
  commit.seq[probe.partition_of(7)] = 3;
  h.prune(commit);
  EXPECT_EQ(h.size(), 2u);
}

// A full ring refuses new records instead of evicting old ones: the logs a
// successor may still ask for stay until a commit covers them.
TEST(LogHistory, CapacityBounded) {
  LogHistory h(4);  // 4 cache lines: five 40-byte records.
  state::StateStore probe(16);
  std::uint64_t recorded = 0;
  for (std::uint64_t s = 1; s <= 100; ++s) {
    if (h.record(log_for(probe, 7, s, s))) ++recorded;
  }
  EXPECT_EQ(recorded, 5u);
  EXPECT_EQ(h.size(), 5u);
  EXPECT_FALSE(h.reserve(64));
  EXPECT_EQ(h.full_waits(), 1u);
  std::vector<std::uint8_t> blob;
  h.copy_after(MaxVector{}, blob);
  const auto kept = logs_of(blob);
  ASSERT_EQ(kept.size(), 5u);
  EXPECT_EQ(kept.front(), log_for(probe, 7, 1, 1));  // Nothing evicted.

  // Only a commit frees room.
  MaxVector commit;
  commit.seq[probe.partition_of(7)] = 2;
  h.prune(commit);
  EXPECT_TRUE(h.reserve(64));
  EXPECT_TRUE(h.record(log_for(probe, 7, 6, 6), true, 64));
  EXPECT_EQ(h.size(), 4u);
}

// The ring's words are written and read across its end, and across the
// moves of its active span as the live window grows: every record reads
// back as written, in order.
TEST(LogHistory, WrapsAndGrowsWithoutLosingRecords) {
  LogHistory h(1024);
  state::StateStore probe(16);
  std::uint64_t next = 1;
  std::uint64_t oldest = 1;
  for (int round = 0; round < 300; ++round) {
    // The window grows to 150 live records (past the first span), then
    // shrinks to none.
    const std::uint64_t add = round < 150 ? 3 : 1;
    for (std::uint64_t i = 0; i < add; ++i, ++next) {
      PiggybackLog log = log_for(probe, 7, next, next);
      log.writes.push_back({9, state::Bytes::of(next * 3), round % 7 == 0});
      ASSERT_TRUE(h.reserve(wire_log_size(log)));
      ASSERT_TRUE(h.record(log, true, wire_log_size(log)));
    }
    MaxVector commit;
    commit.seq[probe.partition_of(7)] = oldest + 1;
    h.prune(commit);
    oldest += 2;
    std::vector<std::uint8_t> blob;
    h.copy_after(MaxVector{}, blob);
    const auto live = logs_of(blob);
    ASSERT_EQ(live.size(), next - oldest);
    for (std::size_t i = 0; i < live.size(); ++i) {
      ASSERT_EQ(live[i].dep.seq[probe.partition_of(7)], oldest + i);
      ASSERT_EQ(live[i].writes.back().value.as<std::uint64_t>(),
                (oldest + i) * 3);
    }
  }
}

// The head records the wire bytes it appended to the packet; a NACK reply
// copied out of the ring is byte-for-byte the serialize_logs() body of the
// materialized logs the requester lacks.
TEST(LogHistory, NackReplyFromRingMatchesSerializedLogs) {
  LogHistory h(1024);
  std::vector<PiggybackLog> logs;
  for (std::uint64_t i = 1; i <= 12; ++i) {
    PiggybackLog log;
    log.mbox = 3;
    log.dep.mask = (1ULL << (i % 4)) | (i % 3 == 0 ? 1ULL << 9 : 0);
    for (std::size_t p = 0; p < 16; ++p) {
      if (log.dep.touches(p)) log.dep.seq[p] = i;
    }
    std::vector<std::uint8_t> value(i * 5, static_cast<std::uint8_t>(i));
    log.writes.push_back({i, state::Bytes(value.data(), value.size()), false});
    if (i % 5 == 0) log.writes.push_back({i + 100, state::Bytes{}, true});
    logs.push_back(log);
  }
  pkt::Packet p;
  pkt::PacketBuilder(p).udp(
      pkt::FlowKey{1, 2, 3, 4, pkt::Ipv4Header::kProtoUdp}, 64);
  PiggybackView v = PiggybackView::create(p, 16);
  ASSERT_TRUE(v.ok());
  for (const auto& log : logs) {
    ASSERT_TRUE(v.append_log(log));
    const WireLog appended = v.log(v.log_count() - 1);
    ASSERT_TRUE(h.reserve());
    ASSERT_TRUE(h.record({appended.bytes, appended.wire_size}, true));
  }

  MaxVector from;  // The requester has partitions 1 and 9 up to seq 6.
  from.seq[1] = 6;
  from.seq[9] = 6;
  std::vector<PiggybackLog> missing;
  for (const auto& log : logs) {
    if (!from.covers(log.dep)) missing.push_back(log);
  }
  ASSERT_LT(missing.size(), logs.size());
  std::vector<std::uint8_t> oracle;
  serialize_logs(missing, oracle);
  std::vector<std::uint8_t> reply;
  h.copy_after(from, reply);
  EXPECT_EQ(reply, oracle);
}

TEST(ApplierTransfer, SerializeDeserializeRestoresStoreAndMax) {
  const auto cfg = test_cfg();
  InOrderApplier src(0, cfg);
  // Five keys in distinct partitions, each with its own sequence run.
  std::vector<state::Key> keys;
  for (state::Key k = 0; keys.size() < 5; ++k) {
    bool dup = false;
    for (auto e : keys) {
      dup |= src.store().partition_of(e) == src.store().partition_of(k);
    }
    if (!dup) keys.push_back(k);
  }
  for (std::uint64_t s = 1; s <= 10; ++s) {
    for (state::Key k : keys) {
      ASSERT_EQ(src.offer(log_for(src.store(), k, s, s * 10 + k)),
                InOrderApplier::Offer::kApplied);
    }
  }
  std::vector<std::uint8_t> blob;
  src.serialize(blob);

  InOrderApplier dst(0, cfg);
  ASSERT_TRUE(dst.deserialize(blob));
  EXPECT_EQ(dst.max(), src.max());
  for (state::Key k : keys) {
    ASSERT_TRUE(dst.store().get(k).has_value());
    EXPECT_EQ(dst.store().get(k)->as<std::uint64_t>(), 100 + k);
  }
}

TEST(HeadTransfer, HeadRestoresFromApplierBlob) {
  // Paper §5.2: a failed head is restored FROM its successor's applier:
  // store, MAX (as the new dependency vector), and the log history.
  const auto cfg = test_cfg();
  InOrderApplier successor(0, cfg);
  const state::Key k = 9;
  const auto p = successor.store().partition_of(k);
  for (std::uint64_t s = 1; s <= 3; ++s) {
    successor.offer(log_for(successor.store(), k, s, s * 100));
  }
  std::vector<std::uint8_t> blob;
  successor.serialize(blob);

  HeadStore head(0, cfg);
  ASSERT_TRUE(head.deserialize(blob));
  EXPECT_EQ(head.store().get(k)->as<std::uint64_t>(), 300u);

  // The restored dependency vector continues the sequence: the next
  // transaction touching partition p must get seq 4.
  auto record = state::run_transaction(head.txn_ctx(), [&](state::Txn& t) {
    t.write(k, state::Bytes::of<std::uint64_t>(400));
  });
  EXPECT_EQ(record.seqs[p], 4u);
}

TEST(HeadStore, MakeLogRecordsHistory) {
  const auto cfg = test_cfg();
  HeadStore head(3, cfg);
  auto record = state::run_transaction(head.txn_ctx(), [&](state::Txn& t) {
    t.write(1, state::Bytes::of<int>(5));
  });
  auto log = head.make_log(std::move(record));
  EXPECT_EQ(log.mbox, 3u);
  EXPECT_EQ(log.writes.size(), 1u);
  EXPECT_EQ(head.history().size(), 1u);

  // Commit covering the log prunes it.
  MaxVector commit;
  commit.advance(log.dep);
  head.prune(commit);
  EXPECT_EQ(head.history().size(), 0u);
}

TEST(HeadStore, ReadOnlyTxnProducesNoLog) {
  const auto cfg = test_cfg();
  HeadStore head(0, cfg);
  auto record = state::run_transaction(head.txn_ctx(), [&](state::Txn& t) {
    (void)t.read(1);
  });
  EXPECT_TRUE(record.read_only());
}

}  // namespace
}  // namespace sfc::ftc

// Unit tests for the egress buffer and forwarder (paper §5): hold/release
// semantics, commit absorption, feedback records, the forwarder's splice
// (checked against the materializing merge it replaced), spills and
// propagating packets.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "core/buffer.hpp"
#include "core/forwarder.hpp"
#include "packet/packet_io.hpp"
#include "runtime/clock.hpp"

namespace sfc::ftc {
namespace {

constexpr std::size_t kParts = 16;

/// Pops the oldest feedback record and reads it back as a message.
std::optional<PiggybackMessage> pop_message(FeedbackChannel& ch,
                                            pkt::PacketPool& pool) {
  std::optional<PiggybackMessage> out;
  ch.pop_with([&](const FeedbackRecord& r) {
    if (r.carrier != nullptr) {
      // The message was written inside the carrier's buffer.
      EXPECT_LE(r.carrier->headroom() + r.carrier->size(),
                pkt::Packet::kCapacity);
      out = extract_message(*r.carrier);
      pool.free_raw(r.carrier);
      return;
    }
    pkt::Packet p;
    pkt::PacketBuilder(p).udp(
        pkt::FlowKey{1, 2, 3, 4, pkt::Ipv4Header::kProtoUdp}, 64);
    if (PiggybackView::attach(p, r.message()).ok()) out = extract_message(p);
  });
  return out;
}

/// The message a packet carries, empty when it carries none.
PiggybackMessage message_of(pkt::Packet& p) {
  auto msg = extract_message(p);
  return msg ? std::move(*msg) : PiggybackMessage{};
}

struct Rig {
  pkt::PacketPool pool{64};
  net::Link egress{pool, net::LinkConfig{}};
  FeedbackChannel feedback{pool, kParts};
  EgressBuffer buffer{pool, egress, feedback};

  pkt::Packet* data_packet(std::uint64_t id) {
    pkt::Packet* p = pool.alloc_raw();
    pkt::PacketBuilder(*p).udp(
        pkt::FlowKey{1, 2, 3, 4, pkt::Ipv4Header::kProtoUdp}, 128);
    p->anno().packet_id = id;
    p->anno().ingress_ns = 1;
    return p;
  }

  PiggybackLog log_for(MboxId mbox, std::size_t partition, std::uint64_t seq) {
    PiggybackLog log;
    log.mbox = mbox;
    log.dep.mask = 1ULL << partition;
    log.dep.seq[partition] = seq;
    return log;
  }
};

TEST(EgressBuffer, EmptyMessageReleasesImmediately) {
  Rig rig;
  rig.buffer.submit(rig.data_packet(1), PiggybackMessage{});
  EXPECT_EQ(rig.buffer.held_count(), 0u);
  pkt::Packet* out = rig.egress.poll();
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->anno().packet_id, 1u);
  rig.pool.free_raw(out);
  EXPECT_EQ(rig.buffer.stats().released_immediately, 1u);
}

TEST(EgressBuffer, HoldsUntilCommitCovers) {
  Rig rig;
  PiggybackMessage msg;
  msg.logs.push_back(rig.log_for(2, 0, 5));
  rig.buffer.submit(rig.data_packet(1), std::move(msg));
  EXPECT_EQ(rig.buffer.held_count(), 1u);
  EXPECT_EQ(rig.egress.poll(), nullptr);

  // A later packet carries the commit for mbox 2 covering seq 5.
  PiggybackMessage commit_msg;
  MaxVector commit;
  commit.seq[0] = 5;
  commit_msg.set_commit(2, commit);
  rig.buffer.submit(rig.data_packet(2), std::move(commit_msg));

  // Both packets released (the second had no pending logs).
  EXPECT_EQ(rig.buffer.held_count(), 0u);
  int released = 0;
  while (pkt::Packet* p = rig.egress.poll()) {
    ++released;
    rig.pool.free_raw(p);
  }
  EXPECT_EQ(released, 2);
}

// A hold keeps its logs' dependencies inline; one with more than fit
// (here six logs) keeps them all in its spill and still releases exactly
// when a commit covers every one.
TEST(EgressBuffer, HoldWithManyLogsReleasesOnlyWhenAllCovered) {
  Rig rig;
  PiggybackMessage msg;
  for (std::size_t part = 0; part < 6; ++part) {
    msg.logs.push_back(rig.log_for(2, part, 10 + part));
  }
  rig.buffer.submit(rig.data_packet(1), std::move(msg));
  rig.buffer.submit(rig.data_packet(2), PiggybackMessage{});  // Behind it.
  EXPECT_EQ(rig.buffer.held_count(), 1u);

  MaxVector commit;
  for (std::size_t part = 0; part < 6; ++part) commit.seq[part] = 10 + part;
  commit.seq[5] = 14;  // One short on the last log.
  CommitVector cv{2, commit};
  rig.buffer.absorb({&cv, 1});
  rig.buffer.release_eligible();
  EXPECT_EQ(rig.buffer.held_count(), 1u);
  cv.max.seq[5] = 15;
  rig.buffer.absorb({&cv, 1});
  rig.buffer.release_eligible();
  EXPECT_EQ(rig.buffer.held_count(), 0u);
  std::vector<std::uint64_t> ids;
  while (pkt::Packet* p = rig.egress.poll()) {
    ids.push_back(p->anno().packet_id);
    rig.pool.free_raw(p);
  }
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{2, 1}));
}

TEST(EgressBuffer, InsufficientCommitKeepsHolding) {
  Rig rig;
  PiggybackMessage msg;
  msg.logs.push_back(rig.log_for(2, 0, 5));
  rig.buffer.submit(rig.data_packet(1), std::move(msg));

  PiggybackMessage commit_msg;
  MaxVector commit;
  commit.seq[0] = 4;  // One short.
  commit_msg.set_commit(2, commit);
  rig.buffer.submit(rig.data_packet(2), std::move(commit_msg));
  EXPECT_EQ(rig.buffer.held_count(), 1u);
}

TEST(EgressBuffer, ControlPacketsDeliverCommitsAndDie) {
  Rig rig;
  PiggybackMessage msg;
  msg.logs.push_back(rig.log_for(1, 3, 2));
  rig.buffer.submit(rig.data_packet(1), std::move(msg));
  EXPECT_EQ(rig.buffer.held_count(), 1u);

  pkt::Packet* prop = Forwarder::make_propagating_packet(rig.pool);
  PiggybackMessage commit_msg;
  MaxVector commit;
  commit.seq[3] = 2;
  commit_msg.set_commit(1, commit);
  rig.buffer.submit(prop, std::move(commit_msg));

  EXPECT_EQ(rig.buffer.held_count(), 0u);
  // Only the data packet leaves the chain; the propagating packet is
  // consumed.
  pkt::Packet* out = rig.egress.poll();
  ASSERT_NE(out, nullptr);
  EXPECT_FALSE(out->anno().is_control);
  rig.pool.free_raw(out);
  EXPECT_EQ(rig.egress.poll(), nullptr);
  EXPECT_EQ(rig.buffer.stats().control_consumed, 1u);
}

TEST(EgressBuffer, FeedsLogsBackWithoutCommits) {
  Rig rig;
  PiggybackMessage msg;
  msg.logs.push_back(rig.log_for(2, 0, 1));
  MaxVector commit;
  commit.seq[1] = 9;
  msg.set_commit(0, commit);
  rig.buffer.submit(rig.data_packet(1), std::move(msg));

  auto fed_back = pop_message(rig.feedback, rig.pool);
  ASSERT_TRUE(fed_back.has_value());
  EXPECT_EQ(fed_back->logs.size(), 1u);   // Wrap logs keep traveling.
  EXPECT_TRUE(fed_back->commits.empty()); // Commits end at the buffer.
}

TEST(EgressBuffer, SubmitWireFeedsBackLogBytesWithoutCommits) {
  Rig rig;
  PiggybackMessage msg;
  PiggybackLog log = rig.log_for(2, 0, 1);
  log.writes.push_back({5, state::Bytes::of(std::uint64_t{42}), false});
  msg.logs.push_back(log);
  MaxVector commit;
  commit.seq[1] = 9;
  msg.set_commit(0, commit);
  pkt::Packet* p = rig.data_packet(1);
  const std::size_t bare = p->size();
  ASSERT_TRUE(append_message(*p, msg, kParts));
  PiggybackView v = PiggybackView::open(*p);
  rig.buffer.submit_wire(p, v);
  EXPECT_EQ(p->size(), bare);  // Held bare.
  EXPECT_EQ(rig.buffer.held_count(), 1u);

  auto fed_back = pop_message(rig.feedback, rig.pool);
  ASSERT_TRUE(fed_back.has_value());
  ASSERT_EQ(fed_back->logs.size(), 1u);
  EXPECT_EQ(fed_back->logs[0], log);
  EXPECT_TRUE(fed_back->commits.empty());
}

/// Pops every pending record and merges them, in order, into one message.
PiggybackMessage pop_all(FeedbackChannel& ch, pkt::PacketPool& pool,
                         std::size_t& records) {
  PiggybackMessage all;
  records = 0;
  while (auto part = pop_message(ch, pool)) {
    all.merge(std::move(*part));
    ++records;
  }
  return all;
}

PiggybackLog log_with_value(MboxId mbox, std::uint64_t key, std::size_t len) {
  PiggybackLog log{mbox, {}, {}};
  log.dep.mask = 1;
  log.dep.seq[0] = key;
  std::vector<std::uint8_t> value(len, static_cast<std::uint8_t>(key));
  log.writes.push_back({key, state::Bytes(value.data(), value.size()), false});
  return log;
}

// The egress node's fallback hands the buffer a data packet's whole message
// plus its own log, which can exceed what any packet carries. It is split
// by logs into complete messages, each inside a carrier's tailroom, that
// read back in order as the original.
TEST(EgressBuffer, OversizeFeedbackSplitsAcrossCarriers) {
  Rig rig;
  PiggybackMessage msg;
  for (std::uint64_t i = 0; i < 12; ++i) {
    msg.logs.push_back(log_with_value(2, i + 1, 1000));  // 1,032 wire bytes.
  }
  ASSERT_GT(serialized_size(msg, kParts), kPropagatingRoom);
  const PiggybackMessage sent = msg;
  rig.buffer.submit(rig.data_packet(1), std::move(msg));

  std::size_t records = 0;
  EXPECT_EQ(pop_all(rig.feedback, rig.pool, records), sent);
  EXPECT_EQ(records, 4u);  // Three logs per carrier.
  EXPECT_EQ(rig.feedback.oversize_drops(), 0u);
}

// Same on the zero-copy path: a frame shorter than a propagating packet's
// leaves room for a message no carrier holds whole.
TEST(EgressBuffer, OversizeWireFeedbackSplitsAcrossCarriers) {
  Rig rig;
  PiggybackMessage msg;
  msg.logs.push_back(log_with_value(2, 1, 1920));
  msg.logs.push_back(log_with_value(2, 2, 1920));
  pkt::Packet* p = rig.pool.alloc_raw();
  pkt::PacketBuilder(*p).udp(
      pkt::FlowKey{1, 2, 3, 4, pkt::Ipv4Header::kProtoUdp}, 42);
  ASSERT_TRUE(append_message(*p, msg, kParts));
  PiggybackView v = PiggybackView::open(*p);
  ASSERT_GT(v.logs_message_size(0, v.log_count()), kPropagatingRoom);
  rig.buffer.submit_wire(p, v);

  std::size_t records = 0;
  EXPECT_EQ(pop_all(rig.feedback, rig.pool, records), msg);
  EXPECT_EQ(records, 2u);
}

// A single log larger than a propagating packet's tailroom cannot be fed
// back: it is counted and dropped, the logs around it still travel.
TEST(FeedbackChannel, LogLargerThanAnyPacketIsCountedAndDropped) {
  pkt::PacketPool pool(8);
  FeedbackChannel feedback(pool, kParts);
  PiggybackMessage msg;
  msg.logs.push_back(log_with_value(1, 1, 8));
  msg.logs.push_back(log_with_value(1, 2, kPropagatingRoom));
  msg.logs.push_back(log_with_value(1, 3, 8));
  feedback.push(msg);

  PiggybackMessage expected;
  expected.logs.push_back(msg.logs[0]);
  expected.logs.push_back(msg.logs[2]);
  std::size_t records = 0;
  EXPECT_EQ(pop_all(feedback, pool, records), expected);
  EXPECT_EQ(records, 2u);
  EXPECT_EQ(feedback.oversize_drops(), 1u);
}

// A hand-off into a full channel waits (counted) until the forwarder pops,
// and nothing is lost or reordered.
TEST(FeedbackChannel, FullQueueWaitsCountedAndLosesNothing) {
  pkt::PacketPool pool(8);
  FeedbackChannel feedback(pool, kParts, /*capacity=*/4);
  const auto message = [](std::uint64_t seq) {
    PiggybackMessage m;
    m.logs.push_back(log_with_value(1, seq, 8));
    return m;
  };
  for (std::uint64_t seq = 1; seq <= 4; ++seq) feedback.push(message(seq));
  EXPECT_EQ(feedback.full_waits(), 0u);

  std::atomic<int> pushed{0};
  std::thread producer([&] {
    for (std::uint64_t seq = 5; seq <= 6; ++seq) {
      feedback.push(message(seq));
      pushed.fetch_add(1);
    }
  });
  const auto deadline = rt::now_ns() + 5'000'000'000ull;
  while (feedback.full_waits() == 0 && rt::now_ns() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(feedback.full_waits(), 1u);
  EXPECT_EQ(pushed.load(), 0);  // Still waiting: the queue is full.

  // Each pop lets the producer go on; every message arrives, in order.
  std::vector<PiggybackMessage> got;
  while (got.size() < 6 && rt::now_ns() < deadline) {
    if (auto m = pop_message(feedback, pool)) {
      got.push_back(std::move(*m));
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_EQ(pushed.load(), 2);
  ASSERT_EQ(got.size(), 6u);
  for (std::uint64_t seq = 1; seq <= 6; ++seq) {
    EXPECT_EQ(got[seq - 1], message(seq));
  }
  EXPECT_GE(feedback.full_waits(), 1u);
}

// Returned commits: the buffer publishes each advance of a returning
// middlebox's commit into its slot, the forwarder merges the latest value
// into the next packet once, and a value that comes around again is not
// published twice — so a returned commit cannot circulate.
TEST(EgressBuffer, ReturnsAdvancedCommitsOnce) {
  pkt::PacketPool pool(64);
  net::Link egress{pool, net::LinkConfig{}};
  // Ring of two, f = 1: middlebox 0's tail (position 1) is downstream of
  // its head, middlebox 1's (position 0) is not.
  FeedbackChannel feedback(pool, kParts, 1024,
                           FeedbackChannel::commit_returns_for(2, 2, 1));
  EXPECT_TRUE(feedback.returns_commit(0));
  EXPECT_FALSE(feedback.returns_commit(1));
  EgressBuffer buffer(pool, egress, feedback);
  ChainConfig cfg;
  cfg.num_partitions = kParts;
  Forwarder fwd(feedback, cfg, pool);

  MaxVector c0;
  c0.seq[2] = 7;
  MaxVector c1;
  c1.seq[3] = 9;
  const CommitVector commits[] = {{0, c0}, {1, c1}};
  buffer.absorb(commits);
  EXPECT_TRUE(feedback.commit_pending());

  const auto splice_onto_fresh_packet = [&] {
    pkt::Packet p;
    pkt::PacketBuilder(p).udp(
        pkt::FlowKey{1, 2, 3, 4, pkt::Ipv4Header::kProtoUdp}, 64);
    PiggybackView view;
    pkt::Packet* extra[2];
    EXPECT_EQ(fwd.splice(p, view, extra), 0u);
    return message_of(p);
  };
  const PiggybackMessage first = splice_onto_fresh_packet();
  ASSERT_EQ(first.commits.size(), 1u);  // Middlebox 1's never returns.
  EXPECT_EQ(first.commits[0], (CommitVector{0, c0}));
  EXPECT_FALSE(feedback.commit_pending());
  EXPECT_TRUE(splice_onto_fresh_packet().empty());  // Consumed once.

  // The returned commit reaches the buffer again: no advance, no publish.
  buffer.absorb(commits);
  EXPECT_FALSE(feedback.commit_pending());
  // An advance is published, and only the latest value rides.
  c0.seq[2] = 8;
  buffer.absorb({{CommitVector{0, c0}}});
  c0.seq[5] = 1;
  buffer.absorb({{CommitVector{0, c0}}});
  const PiggybackMessage second = splice_onto_fresh_packet();
  ASSERT_EQ(second.commits.size(), 1u);
  EXPECT_EQ(second.commits[0].max, c0);
}

TEST(EgressBuffer, AbsorbWithoutSubmit) {
  Rig rig;
  PiggybackMessage msg;
  msg.logs.push_back(rig.log_for(2, 0, 1));
  rig.buffer.submit(rig.data_packet(1), std::move(msg));
  EXPECT_EQ(rig.buffer.held_count(), 1u);

  MaxVector commit;
  commit.seq[0] = 1;
  CommitVector cv{2, commit};
  rig.buffer.absorb({&cv, 1});
  rig.buffer.release_eligible();
  EXPECT_EQ(rig.buffer.held_count(), 0u);
}

TEST(Forwarder, SpliceMergesPendingRecords) {
  ChainConfig cfg;
  pkt::PacketPool pool(8);
  FeedbackChannel feedback(pool, cfg.num_partitions);
  Forwarder fwd(feedback, cfg, pool);

  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    PiggybackMessage m;
    PiggybackLog log;
    log.mbox = 7;
    log.dep.mask = 1;
    log.dep.seq[0] = seq;
    m.logs.push_back(log);
    feedback.push(m);
  }
  pkt::Packet p;
  pkt::PacketBuilder(p).udp(
      pkt::FlowKey{1, 2, 3, 4, pkt::Ipv4Header::kProtoUdp}, 64);
  PiggybackView view;
  pkt::Packet* extra[2];
  EXPECT_EQ(fwd.splice(p, view, extra), 0u);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view.log_count(), 3u);
  auto merged = message_of(p);
  EXPECT_EQ(merged.logs.size(), 3u);
  EXPECT_EQ(merged.logs[0].dep.seq[0], 1u);  // Order preserved.
  EXPECT_EQ(merged.logs[2].dep.seq[0], 3u);
}

TEST(Forwarder, MergeLimitBoundsPerPacketWork) {
  ChainConfig cfg;
  cfg.forwarder_merge_limit = 2;
  pkt::PacketPool pool(8);
  FeedbackChannel feedback(pool, cfg.num_partitions);
  Forwarder fwd(feedback, cfg, pool);
  for (int i = 0; i < 5; ++i) feedback.push(PiggybackMessage{});
  pkt::Packet p;
  pkt::PacketBuilder(p).udp(
      pkt::FlowKey{1, 2, 3, 4, pkt::Ipv4Header::kProtoUdp}, 64);
  PiggybackView view;
  pkt::Packet* extra[2];
  (void)fwd.splice(p, view, extra);
  EXPECT_EQ(feedback.pending_approx(), 3u);
}

TEST(Forwarder, PropagationDueOnlyWhenIdleAndPending) {
  ChainConfig cfg;
  cfg.propagate_interval_ns = 1'000'000;  // 1 ms.
  pkt::PacketPool pool(8);
  FeedbackChannel feedback(pool, cfg.num_partitions);
  Forwarder fwd(feedback, cfg, pool);
  EXPECT_FALSE(fwd.propagation_due());  // Nothing pending.
  feedback.push(PiggybackMessage{});
  EXPECT_FALSE(fwd.propagation_due());  // Pending but not idle yet.
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  EXPECT_TRUE(fwd.propagation_due());
  fwd.note_activity();
  EXPECT_FALSE(fwd.propagation_due());
}

TEST(Forwarder, PropagatingPacketIsControlAndParseable) {
  pkt::PacketPool pool(4);
  pkt::Packet* p = Forwarder::make_propagating_packet(pool);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->anno().is_control);
  EXPECT_TRUE(pkt::parse_packet(*p).has_value());
  pool.free_raw(p);
}

TEST(Forwarder, OversizeRecordSpillsOntoACarrier) {
  ChainConfig cfg;
  pkt::PacketPool pool(8);
  FeedbackChannel feedback(pool, cfg.num_partitions);
  Forwarder fwd(feedback, cfg, pool);
  PiggybackMessage small;
  small.logs.push_back(PiggybackLog{1, {}, {}});
  PiggybackMessage big;
  PiggybackLog log{2, {}, {}};
  std::vector<std::uint8_t> value(FeedbackRecord::kCapacity);
  log.writes.push_back({9, state::Bytes(value.data(), value.size()), false});
  big.logs.push_back(log);
  feedback.push(small);
  feedback.push(big);
  feedback.push(small);

  pkt::Packet p;
  pkt::PacketBuilder(p).udp(
      pkt::FlowKey{1, 2, 3, 4, pkt::Ipv4Header::kProtoUdp}, 64);
  PiggybackView view;
  pkt::Packet* extra[2];
  // The spill stops the splice: it runs next, the record after it waits.
  ASSERT_EQ(fwd.splice(p, view, extra), 1u);
  EXPECT_EQ(fwd.spills(), 1u);
  EXPECT_EQ(feedback.pending_approx(), 1u);
  EXPECT_TRUE(extra[0]->anno().is_control);
  EXPECT_EQ(message_of(p), small);
  EXPECT_EQ(message_of(*extra[0]), big);
  pool.free_raw(extra[0]);
}

TEST(Forwarder, ShortTailroomFallsBackToAPropagatingPacket) {
  ChainConfig cfg;
  pkt::PacketPool pool(8);
  FeedbackChannel feedback(pool, cfg.num_partitions);
  Forwarder fwd(feedback, cfg, pool);
  PiggybackMessage msg;
  msg.logs.push_back(PiggybackLog{1, {}, {}});
  feedback.push(msg);

  pkt::Packet jumbo;
  pkt::PacketBuilder(jumbo).udp(
      pkt::FlowKey{1, 2, 3, 4, pkt::Ipv4Header::kProtoUdp}, 64);
  jumbo.push_back(jumbo.tailroom() - Forwarder::kSpliceRoom + 1);
  const std::size_t size = jumbo.size();
  PiggybackView view;
  pkt::Packet* extra[2];
  ASSERT_EQ(fwd.splice(jumbo, view, extra), 1u);
  EXPECT_FALSE(view.ok());
  EXPECT_EQ(jumbo.size(), size);  // Untouched.
  EXPECT_EQ(fwd.tailroom_fallbacks(), 1u);
  EXPECT_EQ(message_of(*extra[0]), msg);
  pool.free_raw(extra[0]);
}

// Differential: splicing records onto bare packets gives, per packet, the
// message the materializing path built (pop up to the merge limit,
// PiggybackMessage::merge, append_message), read back with extract_message.
// Covers 0-8 records per packet, commit vectors of overlapping middleboxes,
// records too large for a slot (spills) and packets whose tailroom cannot
// take a record (fallbacks).
TEST(Forwarder, SpliceMatchesMaterializingMerge) {
  std::mt19937_64 rng(0x5eed5);
  ChainConfig cfg;
  cfg.num_partitions = 8;
  pkt::PacketPool pool(16);
  FeedbackChannel feedback(pool, cfg.num_partitions);
  Forwarder fwd(feedback, cfg, pool);
  const auto random_message = [&] {
    PiggybackMessage m;
    const std::size_t n_logs = rng() % 4;
    for (std::size_t i = 0; i < n_logs; ++i) {
      PiggybackLog log;
      log.mbox = static_cast<MboxId>(rng() % 3);
      const std::size_t part = rng() % cfg.num_partitions;
      log.dep.mask = 1ULL << part;
      log.dep.seq[part] = rng() % 100 + 1;
      std::vector<std::uint8_t> value(rng() % 4 == 0 ? 200 : rng() % 24);
      for (auto& b : value) b = static_cast<std::uint8_t>(rng());
      log.writes.push_back({rng() % 64, state::Bytes(value.data(), value.size()),
                            rng() % 5 == 0});
      m.logs.push_back(std::move(log));
    }
    const std::size_t n_commits = rng() % 3;
    for (std::size_t i = 0; i < n_commits; ++i) {
      MaxVector max;
      for (std::size_t part = 0; part < cfg.num_partitions; ++part) {
        max.seq[part] = rng() % 50;
      }
      m.set_commit(static_cast<MboxId>(rng() % 3), max);
    }
    return m;
  };
  const auto fits_slot = [&](const PiggybackMessage& m) {
    return serialized_size(m, cfg.num_partitions) <= FeedbackRecord::kCapacity;
  };

  std::size_t spills = 0, fallbacks = 0, merged_packets = 0;
  for (int round = 0; round < 400; ++round) {
    cfg.forwarder_merge_limit = 1 + rng() % 8;
    std::vector<PiggybackMessage> pushed;
    const std::size_t n = rng() % 9;
    for (std::size_t i = 0; i < n; ++i) {
      pushed.push_back(random_message());
      feedback.push(pushed.back());
    }
    std::size_t next = 0;
    while (next < pushed.size()) {
      pkt::Packet p;
      pkt::PacketBuilder(p).udp(
          pkt::FlowKey{1, 2, 3, 4, pkt::Ipv4Header::kProtoUdp}, 64);
      const bool jumbo = rng() % 8 == 0;
      if (jumbo) p.push_back(p.tailroom() - Forwarder::kSpliceRoom + 1);
      const std::size_t bare = p.size();
      PiggybackView view;
      pkt::Packet* extra[2];
      const std::size_t n_extra = fwd.splice(p, view, extra);

      // Oracle: the materializing forwarder's grouping and merge.
      std::vector<PiggybackMessage> expected;  // One per packet, in order.
      PiggybackMessage merged;
      std::size_t taken = 0;
      bool spill = false;
      while (taken < cfg.forwarder_merge_limit && next < pushed.size()) {
        PiggybackMessage m = pushed[next++];
        ++taken;
        if (!fits_slot(m)) {
          spill = true;
          expected.push_back(std::move(merged));
          expected.push_back(std::move(m));
          break;
        }
        merged.merge(std::move(m));
      }
      if (!spill) expected.push_back(std::move(merged));

      std::vector<PiggybackMessage> got;
      if (jumbo) {
        EXPECT_EQ(p.size(), bare);
        EXPECT_FALSE(view.ok());
        ASSERT_GE(n_extra, 1u);
        ++fallbacks;
      } else {
        got.push_back(message_of(p));
      }
      for (std::size_t e = 0; e < n_extra; ++e) {
        got.push_back(message_of(*extra[e]));
        pool.free_raw(extra[e]);
      }
      if (spill) ++spills;
      if (taken > 1) ++merged_packets;
      ASSERT_EQ(got.size(), expected.size()) << "round " << round;
      for (std::size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(got[k], expected[k]) << "round " << round << " packet " << k;
      }
    }
    ASSERT_EQ(feedback.pending_approx(), 0u);
  }
  EXPECT_EQ(fwd.spills(), spills);
  EXPECT_EQ(fwd.tailroom_fallbacks(), fallbacks);
  // The sequence exercised every case.
  EXPECT_GT(spills, 10u);
  EXPECT_GT(fallbacks, 10u);
  EXPECT_GT(merged_packets, 50u);
}

}  // namespace
}  // namespace sfc::ftc

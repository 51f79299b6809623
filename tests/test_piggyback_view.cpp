// Differential tests for the zero-copy piggyback view against the
// materializing serializer (which stays as the out-of-band path and serves
// as the oracle here), plus malformed-input rejection. Randomized cases
// use a fixed seed so failures reproduce.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <random>
#include <vector>

#include "core/config.hpp"
#include "core/piggyback.hpp"
#include "core/stores.hpp"
#include "packet/packet_io.hpp"

namespace sfc::ftc {
namespace {

constexpr std::size_t kParts = 8;  // Non-max width exercises zero-fill.

pkt::Packet make_wire_packet(std::size_t payload = 256) {
  pkt::Packet p;
  const pkt::FlowKey flow{0x0a000001, 0x08080808, 1234, 80,
                          pkt::Ipv4Header::kProtoUdp};
  pkt::PacketBuilder(p).udp(flow, payload);
  return p;
}

// Value bytes must outlive the logs (state::Bytes in a StateUpdate owns
// its bytes? No — Bytes copies; see state_store). Bytes owns a copy, so a
// temporary vector is fine.
PiggybackLog random_log(std::mt19937_64& rng) {
  PiggybackLog log;
  log.mbox = static_cast<MboxId>(rng() % 4);
  const std::size_t n_parts = 1 + rng() % 3;
  for (std::size_t i = 0; i < n_parts; ++i) {
    const std::size_t part = rng() % state::kMaxPartitions;
    log.dep.mask |= 1ULL << part;
    log.dep.seq[part] = rng() % 1000 + 1;
  }
  const std::size_t n_writes = rng() % 5;
  for (std::size_t i = 0; i < n_writes; ++i) {
    const std::uint64_t key = rng() % 512;
    const bool erase = rng() % 4 == 0;
    if (erase) {
      log.writes.push_back({key, state::Bytes{}, true});
    } else {
      std::vector<std::uint8_t> bytes(rng() % 300);
      for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
      log.writes.push_back(
          {key, state::Bytes(bytes.data(), bytes.size()), false});
    }
  }
  return log;
}

std::size_t log_wire_size(const PiggybackLog& log) {
  std::size_t n = 4 + 8 + 2 + 8 * static_cast<std::size_t>(
                                      std::popcount(log.dep.mask));
  for (const auto& w : log.writes) n += 10 + w.value.size();
  return n;
}

PiggybackMessage random_message(std::mt19937_64& rng, std::size_t max_logs) {
  PiggybackMessage msg;
  const std::size_t n_logs = rng() % (max_logs + 1);
  for (std::size_t i = 0; i < n_logs; ++i) msg.logs.push_back(random_log(rng));
  const std::size_t n_commits = rng() % 3;
  for (std::size_t i = 0; i < n_commits; ++i) {
    MaxVector max;
    for (std::size_t part = 0; part < kParts; ++part) max.seq[part] = rng();
    msg.set_commit(static_cast<MboxId>(i), max);
  }
  return msg;
}

std::vector<std::uint8_t> packet_bytes(const pkt::Packet& p) {
  return {p.data(), p.data() + p.size()};
}

MaxVector random_max(std::mt19937_64& rng) {
  MaxVector max;
  for (std::size_t part = 0; part < kParts; ++part) max.seq[part] = rng();
  return max;
}

TEST(PiggybackView, WalkMatchesExtract) {
  std::mt19937_64 rng(0xf7c1);
  for (int round = 0; round < 200; ++round) {
    pkt::Packet p = make_wire_packet();
    const PiggybackMessage msg = random_message(rng, 6);
    if (serialized_size(msg, kParts) > p.tailroom()) continue;
    ASSERT_TRUE(append_message(p, msg, kParts));

    PiggybackView v = PiggybackView::open(p);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.wire_size() + v.tail_size(), p.size());
    EXPECT_EQ(wire_size_hint(p), v.wire_size());
    ASSERT_EQ(v.log_count(), msg.logs.size());
    for (std::size_t i = 0; i < msg.logs.size(); ++i) {
      EXPECT_EQ(materialize_log(v.log(i)), msg.logs[i]);
      EXPECT_TRUE(v.has_logs_of(msg.logs[i].mbox));
    }
    ASSERT_EQ(v.commit_count(), msg.commits.size());
    for (std::size_t i = 0; i < msg.commits.size(); ++i) {
      MaxVector max;
      EXPECT_EQ(v.commit(i, max), msg.commits[i].mbox);
      EXPECT_EQ(max.seq, msg.commits[i].max.seq);
    }

    // The view only reads: the oracle must still parse the same message.
    auto extracted = extract_message(p);
    ASSERT_TRUE(extracted.has_value());
    EXPECT_EQ(*extracted, msg);
  }
}

// The tentpole property: the in-place mutators must produce byte-identical
// packets to the strip-modify-reattach round trip they replace.
TEST(PiggybackView, MutationsMatchMaterializingRoundTrip) {
  std::mt19937_64 rng(0xf7c2);
  for (int round = 0; round < 200; ++round) {
    pkt::Packet legacy = make_wire_packet();
    pkt::Packet inplace = make_wire_packet();
    PiggybackMessage msg = random_message(rng, 5);
    if (serialized_size(msg, kParts) > legacy.tailroom()) continue;
    ASSERT_TRUE(append_message(legacy, msg, kParts));
    ASSERT_TRUE(append_message(inplace, msg, kParts));
    PiggybackView v = PiggybackView::open(inplace);
    ASSERT_TRUE(v.ok());

    for (int op = 0; op < 6; ++op) {
      switch (rng() % 3) {
        case 0: {  // Tail duty: strip one middlebox's logs.
          const auto mbox = static_cast<MboxId>(rng() % 4);
          msg.strip_logs_of(mbox);
          v.strip_logs_of(mbox);
          break;
        }
        case 1: {  // Tail duty: attach/update a commit vector.
          const auto mbox = static_cast<MboxId>(rng() % 3);
          if (msg.find_commit(mbox) == nullptr &&
              4 + 8 * kParts > inplace.tailroom()) {
            break;  // A new entry would not fit; nothing to compare.
          }
          const MaxVector max = random_max(rng);
          msg.set_commit(mbox, max);
          ASSERT_TRUE(v.set_commit(mbox, max));
          break;
        }
        case 2: {  // Head duty: append this node's new log.
          const PiggybackLog log = random_log(rng);
          if (log_wire_size(log) > inplace.tailroom()) break;
          msg.logs.push_back(log);
          ASSERT_TRUE(v.append_log(log));
          break;
        }
      }
      // Legacy path re-serializes from scratch each time.
      ASSERT_TRUE(extract_message(legacy).has_value());
      ASSERT_TRUE(append_message(legacy, msg, kParts));
      ASSERT_EQ(packet_bytes(inplace), packet_bytes(legacy));
    }
  }
}

TEST(PiggybackView, CreateOnBarePacketAndStripTail) {
  pkt::Packet p = make_wire_packet();
  const std::size_t wire = p.size();
  EXPECT_FALSE(PiggybackView::open(p).ok());

  PiggybackView v = PiggybackView::create(p, kParts);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.log_count(), 0u);
  EXPECT_EQ(v.commit_count(), 0u);
  EXPECT_EQ(v.wire_size(), wire);

  MaxVector max;
  max.seq[2] = 7;
  ASSERT_TRUE(v.set_commit(3, max));
  ASSERT_TRUE(v.set_commit(3, max));  // Overwrite keeps one entry.
  EXPECT_EQ(v.commit_count(), 1u);

  v.strip_tail();
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(p.size(), wire);
  EXPECT_FALSE(has_message(p));
}

TEST(PiggybackView, SetCommitAndAppendRejectedWhenTailroomExhausted) {
  pkt::Packet p = make_wire_packet();
  PiggybackMessage big;
  PiggybackLog log;
  log.mbox = 1;
  log.dep.mask = 1;
  log.dep.seq[0] = 1;
  // Leave 40 free bytes after the append (48 bytes of header/log/footer
  // overhead ride along): too little for another log or a 4+8*kParts
  // commit entry.
  std::vector<std::uint8_t> bytes(p.tailroom() - 88, 0xcd);
  log.writes.push_back({1, state::Bytes(bytes.data(), bytes.size()), false});
  big.logs.push_back(log);
  ASSERT_TRUE(append_message(p, big, kParts));

  PiggybackView v = PiggybackView::open(p);
  ASSERT_TRUE(v.ok());
  const auto before = packet_bytes(p);
  EXPECT_FALSE(v.append_log(log));
  EXPECT_FALSE(v.set_commit(2, MaxVector{}));  // New entry needs room.
  EXPECT_EQ(packet_bytes(p), before);  // Rejected mutations leave no trace.
  ASSERT_TRUE(v.ok());
  ASSERT_EQ(v.log_count(), 1u);
  EXPECT_EQ(materialize_log(v.log(0)), log);
}

TEST(PiggybackView, MergeRejectsWithoutTouchingThePacket) {
  pkt::Packet p = make_wire_packet();
  PiggybackMessage base;
  base.logs.push_back(PiggybackLog{1, {}, {}});
  MaxVector max;
  max.seq[0] = 3;
  base.set_commit(1, max);
  ASSERT_TRUE(append_message(p, base, kParts));
  PiggybackView v = PiggybackView::open(p);
  ASSERT_TRUE(v.ok());
  const auto before = packet_bytes(p);

  const auto serialized = [](const PiggybackMessage& m, std::size_t parts) {
    std::vector<std::uint8_t> out(serialized_size(m, parts));
    serialize_message(m, parts, out.data());
    return out;
  };
  PiggybackMessage other;
  other.logs.push_back(PiggybackLog{2, {}, {}});
  other.set_commit(2, max);
  // Commit vectors of another width.
  EXPECT_FALSE(v.merge(serialized(other, kParts + 1)));
  // Truncated and corrupted bytes.
  auto bytes = serialized(other, kParts);
  EXPECT_FALSE(v.merge({bytes.data(), bytes.size() - 1}));
  bytes[bytes.size() - 1] ^= 0xff;
  EXPECT_FALSE(v.merge(bytes));
  // More than the tailroom holds.
  PiggybackMessage huge;
  PiggybackLog log{3, {}, {}};
  std::vector<std::uint8_t> value(p.tailroom(), 0xab);
  log.writes.push_back({1, state::Bytes(value.data(), value.size()), false});
  huge.logs.push_back(log);
  EXPECT_FALSE(v.merge(serialized(huge, kParts)));
  EXPECT_EQ(packet_bytes(p), before);

  // A valid merge: logs appended in order, commits merged componentwise.
  MaxVector higher;
  higher.seq[1] = 7;
  other.set_commit(1, higher);
  ASSERT_TRUE(v.merge(serialized(other, kParts)));
  EXPECT_EQ(v.log_count(), 2u);
  base.merge(std::move(other));
  auto got = extract_message(p);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, base);
}

// Replica apply differential: the burst wire path must leave the store,
// the MAX vector and the applied count exactly as per-log offers do.
TEST(PiggybackView, OfferBurstMatchesOffer) {
  ChainConfig cfg;
  std::mt19937_64 rng(0xf7c3);
  InOrderApplier legacy(0, cfg);
  InOrderApplier wire(0, cfg);

  std::array<std::uint64_t, state::kMaxPartitions> next{};
  std::vector<PiggybackLog> logs;
  for (int i = 0; i < 64; ++i) {
    PiggybackLog log;
    log.mbox = 0;
    const std::uint64_t key = rng() % 128;
    const std::size_t part = legacy.store().partition_of(key);
    log.dep.mask = 1ULL << part;
    log.dep.seq[part] = ++next[part];
    if (rng() % 5 == 0) {
      log.writes.push_back({key, state::Bytes{}, true});
    } else {
      std::vector<std::uint8_t> bytes(1 + rng() % 64);
      for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
      log.writes.push_back(
          {key, state::Bytes(bytes.data(), bytes.size()), false});
    }
    logs.push_back(std::move(log));
  }

  for (const auto& log : logs) {
    EXPECT_EQ(legacy.offer(log), InOrderApplier::Offer::kApplied);
  }

  // Wire side: ship the same logs in packet-sized groups of four.
  for (std::size_t base = 0; base < logs.size(); base += 4) {
    pkt::Packet p = make_wire_packet();
    PiggybackMessage msg;
    for (std::size_t i = base; i < base + 4; ++i) msg.logs.push_back(logs[i]);
    ASSERT_TRUE(append_message(p, msg, cfg.num_partitions));
    PiggybackView v = PiggybackView::open(p);
    ASSERT_TRUE(v.ok());
    std::vector<WireLog> wire_logs;
    for (std::size_t i = 0; i < v.log_count(); ++i) {
      wire_logs.push_back(v.log(i));
    }
    std::vector<InOrderApplier::Offer> results(wire_logs.size(),
                                               InOrderApplier::Offer::kHeld);
    wire.offer_burst({wire_logs.data(), wire_logs.size()}, results.data());
    for (const auto r : results) {
      EXPECT_EQ(r, InOrderApplier::Offer::kApplied);
    }
    // Re-offering the same packet's logs must classify as duplicates and
    // change nothing (parked packets re-enter this way).
    wire.offer_burst({wire_logs.data(), wire_logs.size()}, results.data());
    for (const auto r : results) {
      EXPECT_EQ(r, InOrderApplier::Offer::kDuplicate);
    }
  }

  EXPECT_EQ(legacy.applied_count(), wire.applied_count());
  EXPECT_EQ(legacy.max().seq, wire.max().seq);
  std::vector<std::uint8_t> blob_legacy, blob_wire;
  legacy.serialize(blob_legacy);
  wire.serialize(blob_wire);
  EXPECT_EQ(blob_legacy, blob_wire);
}

TEST(PiggybackView, OfferBurstHoldsFutureLogs) {
  ChainConfig cfg;
  InOrderApplier a(0, cfg);
  const std::uint64_t key = 9;
  const std::size_t part = a.store().partition_of(key);

  auto make = [&](std::uint64_t seq) {
    PiggybackLog log;
    log.mbox = 0;
    log.dep.mask = 1ULL << part;
    log.dep.seq[part] = seq;
    log.writes.push_back({key, state::Bytes::of<std::uint64_t>(seq), false});
    return log;
  };
  pkt::Packet p = make_wire_packet();
  PiggybackMessage msg;
  msg.logs.push_back(make(1));
  msg.logs.push_back(make(3));  // Gap: seq 2 is missing.
  msg.logs.push_back(make(2));  // Arrives later in the same burst.
  ASSERT_TRUE(append_message(p, msg, cfg.num_partitions));
  PiggybackView v = PiggybackView::open(p);
  ASSERT_TRUE(v.ok());
  WireLog wire_logs[3] = {v.log(0), v.log(1), v.log(2)};
  InOrderApplier::Offer results[3];
  a.offer_burst({wire_logs, 3}, results);
  EXPECT_EQ(results[0], InOrderApplier::Offer::kApplied);
  EXPECT_EQ(results[1], InOrderApplier::Offer::kHeld);
  EXPECT_EQ(results[2], InOrderApplier::Offer::kApplied);
  // The held log becomes applicable now that seq 2 landed.
  EXPECT_EQ(a.offer_wire(wire_logs[1]), InOrderApplier::Offer::kApplied);
  EXPECT_EQ(a.applied_count(), 3u);
}

// --- Malformed tails: open() must reject without touching the packet. ---

void expect_rejected(pkt::Packet& p) {
  const auto before = packet_bytes(p);
  EXPECT_FALSE(PiggybackView::open(p).ok());
  EXPECT_EQ(packet_bytes(p), before);
}

TEST(PiggybackViewMalformed, TruncatedTail) {
  std::mt19937_64 rng(0xf7c4);
  pkt::Packet p = make_wire_packet();
  ASSERT_TRUE(append_message(p, random_message(rng, 3), kParts));
  p.trim_back(1);
  expect_rejected(p);
  EXPECT_FALSE(extract_message(p).has_value());
}

TEST(PiggybackViewMalformed, CorruptFooterMagic) {
  std::mt19937_64 rng(0xf7c5);
  pkt::Packet p = make_wire_packet();
  ASSERT_TRUE(append_message(p, random_message(rng, 3), kParts));
  p.data()[p.size() - 1] ^= 0xff;
  expect_rejected(p);
}

TEST(PiggybackViewMalformed, BodyLenLargerThanPacket) {
  pkt::Packet p = make_wire_packet();
  ASSERT_TRUE(append_message(p, PiggybackMessage{}, kParts));
  // Footer layout: u32 body_len, u32 magic.
  const std::uint32_t huge = 0x7fffffff;
  std::memcpy(p.data() + p.size() - kFooterSize, &huge, 4);
  expect_rejected(p);
  EXPECT_FALSE(extract_message(p).has_value());
  EXPECT_EQ(wire_size_hint(p), p.size());  // Implausible tail: full frame.
}

TEST(PiggybackViewMalformed, OversizedLogCount) {
  pkt::Packet p = make_wire_packet();
  ASSERT_TRUE(append_message(p, PiggybackMessage{}, kParts));
  // Body header starts at size - footer - body_len (body_len == 8 here).
  const std::uint16_t count = 1000;
  std::memcpy(p.data() + p.size() - kFooterSize - kWireHeaderSize, &count, 2);
  expect_rejected(p);
}

TEST(PiggybackViewMalformed, PartitionCountBeyondMax) {
  pkt::Packet p = make_wire_packet();
  ASSERT_TRUE(append_message(p, PiggybackMessage{}, kParts));
  const auto parts = static_cast<std::uint16_t>(state::kMaxPartitions + 1);
  std::memcpy(p.data() + p.size() - kFooterSize - kWireHeaderSize + 4, &parts,
              2);
  expect_rejected(p);
}

TEST(PiggybackViewMalformed, DepMaskBeyondMaxPartitions) {
  pkt::Packet p = make_wire_packet();
  PiggybackMessage msg;
  PiggybackLog log;
  log.mbox = 1;
  log.dep.mask = 1;
  log.dep.seq[0] = 1;
  msg.logs.push_back(log);
  const std::size_t wire = p.size();
  ASSERT_TRUE(append_message(p, msg, kParts));
  // Log record begins right after the body header: u32 mbox, u64 mask.
  const std::uint64_t bad_mask = 1ULL << (state::kMaxPartitions + 3);
  std::memcpy(p.data() + wire + kWireHeaderSize + 4, &bad_mask, 8);
  expect_rejected(p);
}

TEST(PiggybackViewMalformed, WriteLengthOverrunsBody) {
  pkt::Packet p = make_wire_packet();
  PiggybackMessage msg;
  PiggybackLog log;
  log.mbox = 1;
  log.dep.mask = 1;
  log.dep.seq[0] = 1;
  std::vector<std::uint8_t> bytes(16, 0xee);
  log.writes.push_back({5, state::Bytes(bytes.data(), bytes.size()), false});
  msg.logs.push_back(log);
  const std::size_t before_size = p.size();
  ASSERT_TRUE(append_message(p, msg, kParts));
  // Write record: u64 key, u16 len|flags, bytes. It is the last thing
  // before the footer; inflate its length beyond the body.
  const std::size_t len_off = before_size + kWireHeaderSize + 4 + 8 + 8 + 2 + 8;
  const std::uint16_t bad_len = 0x7000;
  std::memcpy(p.data() + len_off, &bad_len, 2);
  expect_rejected(p);
  EXPECT_FALSE(extract_message(p).has_value());
}

}  // namespace
}  // namespace sfc::ftc

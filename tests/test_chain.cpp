// End-to-end chain integration tests: NF / FTC / FTMB pipelines carrying
// real traffic, state replication invariants, loss and reordering.
#include <gtest/gtest.h>

#include <thread>

#include "core/chain.hpp"
#include "mbox/firewall.hpp"
#include "mbox/gen.hpp"
#include "mbox/monitor.hpp"
#include "mbox/nat.hpp"
#include "tgen/traffic.hpp"

namespace sfc::ftc {
namespace {

using mbox::Middlebox;

FtcNode::MboxFactory monitor_factory(std::uint32_t sharing = 1) {
  return [sharing]() -> std::unique_ptr<Middlebox> {
    return std::make_unique<mbox::Monitor>(sharing);
  };
}

FtcNode::MboxFactory nat_factory() {
  return []() -> std::unique_ptr<Middlebox> {
    return std::make_unique<mbox::MazuNat>();
  };
}

ChainRuntime::Spec spec_for(ChainMode mode, std::size_t chain_len,
                            std::uint32_t f = 1, std::size_t threads = 1) {
  ChainRuntime::Spec spec;
  spec.mode = mode;
  spec.cfg.f = f;
  spec.cfg.threads_per_node = threads;
  spec.cfg.pool_packets = 2048;
  spec.cfg.propagate_interval_ns = 100'000;  // Aggressive idle propagation.
  for (std::size_t i = 0; i < chain_len; ++i) {
    spec.mbox_factories.push_back(monitor_factory());
  }
  return spec;
}

void pump_and_wait(ChainRuntime& chain, std::uint64_t packets,
                   const tgen::Workload& workload) {
  tgen::TrafficSource source(chain.pool(), chain.ingress(), workload);
  tgen::TrafficSink sink(chain.pool(), chain.egress());
  sink.start();
  source.start();
  const auto deadline = rt::now_ns() + 20'000'000'000ull;
  while (source.packets_sent() < packets && rt::now_ns() < deadline) {
    std::this_thread::yield();
  }
  source.stop();
  while (sink.packets_received() < packets && rt::now_ns() < deadline) {
    std::this_thread::yield();
  }
  // Drain stragglers before stopping the sink: the source can overshoot
  // `packets` between our observation and stop() taking effect, and
  // stopping the sink with packets still in flight wedges them behind the
  // egress link — per-mode bookkeeping (e.g. FTMB PAL counters) would then
  // never settle. Wait until the received count is stable for a beat.
  std::uint64_t last_received = sink.packets_received();
  std::uint64_t stable_since = rt::now_ns();
  while (rt::now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const std::uint64_t now_received = sink.packets_received();
    if (now_received != last_received) {
      last_received = now_received;
      stable_since = rt::now_ns();
    } else if (rt::now_ns() - stable_since > 50'000'000ull) {
      break;
    }
  }
  sink.stop();
  ASSERT_GE(sink.packets_received(), packets) << "chain did not deliver";
}

/// Waits until the idle-propagation machinery has flushed all replication
/// state: every buffer hold released and appliers converged.
void wait_for_convergence(ChainRuntime& chain, std::uint64_t timeout_ns) {
  const auto deadline = rt::now_ns() + timeout_ns;
  while (rt::now_ns() < deadline) {
    if (chain.quiescent()) {
      // Re-check after a beat: a packet can be between poll() and emit()
      // (in no queue) when we sample.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      if (chain.quiescent()) return;
      continue;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ADD_FAILURE() << "chain did not quiesce within timeout";
}

TEST(NfChain, DeliversAllPackets) {
  ChainRuntime chain(spec_for(ChainMode::kNf, 3));
  chain.start();
  tgen::Workload w;
  constexpr std::uint64_t kPackets = 2000;
  pump_and_wait(chain, kPackets, w);

  // Every Monitor in the chain counted every packet.
  for (std::uint32_t i = 0; i < 3; ++i) {
    auto* node = chain.nf_node(i);
    ASSERT_NE(node, nullptr);
    auto* monitor = dynamic_cast<mbox::Monitor*>(node->middlebox());
    const auto count = node->store().get(monitor->counter_key(0));
    ASSERT_TRUE(count.has_value());
    EXPECT_GE(count->as<std::uint64_t>(), kPackets);
  }
  chain.stop();
}

TEST(FtcChain, DeliversAllPacketsAndReplicates) {
  ChainRuntime chain(spec_for(ChainMode::kFtc, 3));
  chain.start();
  tgen::Workload w;
  constexpr std::uint64_t kPackets = 2000;
  pump_and_wait(chain, kPackets, w);
  wait_for_convergence(chain, 5'000'000'000ull);

  // Invariant: for each middlebox m, the replica store at m's successor
  // converges to the head store contents once the chain drains.
  for (std::uint32_t m = 0; m < 3; ++m) {
    auto* head_node = chain.ftc_node(m);
    auto* replica_node = chain.ftc_node((m + 1) % chain.ring_size());
    ASSERT_NE(head_node, nullptr);
    ASSERT_NE(replica_node, nullptr);
    auto* monitor = dynamic_cast<mbox::Monitor*>(head_node->middlebox());
    const state::Key key = monitor->counter_key(0);

    const auto head_count = head_node->head()->store().get(key);
    ASSERT_TRUE(head_count.has_value());
    EXPECT_GE(head_count->as<std::uint64_t>(), kPackets);

    InOrderApplier* applier = replica_node->applier(m);
    ASSERT_NE(applier, nullptr);
    const auto replica_count = applier->store().get(key);
    ASSERT_TRUE(replica_count.has_value()) << "mbox " << m;
    EXPECT_EQ(replica_count->as<std::uint64_t>(),
              head_count->as<std::uint64_t>())
        << "mbox " << m << " replica lag";
  }
  EXPECT_EQ(chain.buffer()->held_count(), 0u);
  chain.stop();
}

TEST(FtcChain, LossFreeIngressSplicesWithoutSpillOrFallback) {
  ChainRuntime chain(spec_for(ChainMode::kFtc, 2));
  chain.start();
  tgen::Workload w;
  constexpr std::uint64_t kPackets = 3000;
  pump_and_wait(chain, kPackets, w);
  wait_for_convergence(chain, 5'000'000'000ull);
  // Every fed-back record rode an ingress packet or an idle propagating
  // packet: none needed a spill carrier or a tailroom fallback.
  EXPECT_EQ(chain.forwarder()->spills(), 0u);
  EXPECT_EQ(chain.forwarder()->tailroom_fallbacks(), 0u);
  // And feedback did flow: the ingress replicates Monitor 1 from it.
  auto* monitor = dynamic_cast<mbox::Monitor*>(chain.ftc_node(1)->middlebox());
  const auto replica =
      chain.ftc_node(0)->applier(1)->store().get(monitor->counter_key(0));
  ASSERT_TRUE(replica.has_value());
  EXPECT_GE(replica->as<std::uint64_t>(), kPackets);
  chain.stop();
}

// Ingress packets too large to take a record hand their records to
// propagating packets; the head-ingress histograms still count the logs
// spliced for each of them.
TEST(FtcChain, TailroomFallbacksStillRecordSplicedLogs) {
  ChainRuntime chain(spec_for(ChainMode::kFtc, 2));
  chain.start();
  tgen::Workload w;
  w.frame_len = pkt::Packet::kCapacity - pkt::Packet::kDefaultHeadroom -
                Forwarder::kSpliceRoom + 1;
  pump_and_wait(chain, 1000, w);
  wait_for_convergence(chain, 5'000'000'000ull);
  EXPECT_GT(chain.forwarder()->tailroom_fallbacks(), 0u);
  double logs = 0;
  for (const auto& s : chain.registry().snapshot()) {
    if (s.name == "piggyback.logs_per_packet") {
      logs += s.hist.mean() * static_cast<double>(s.hist.count());
    }
  }
  EXPECT_GT(logs, 0.0);
  chain.stop();
}

TEST(FtcChain, IdleChainReadsQuiescentOnEveryCall) {
  ChainRuntime chain(spec_for(ChainMode::kFtc, 2));
  chain.start();
  tgen::Workload w;
  pump_and_wait(chain, 500, w);
  wait_for_convergence(chain, 5'000'000'000ull);
  // The workers keep polling their empty links; none of those polls may
  // make the idle chain read busy.
  int busy = 0;
  for (int i = 0; i < 2000; ++i) {
    if (!chain.quiescent()) ++busy;
  }
  EXPECT_EQ(busy, 0);
  chain.stop();
}

TEST(FtcChain, SingleMiddleboxChainExtendsRing) {
  // Chain of 1 middlebox with f=1 must extend to a ring of 2 (paper §5.1).
  ChainRuntime chain(spec_for(ChainMode::kFtc, 1));
  EXPECT_EQ(chain.ring_size(), 2u);
  chain.start();
  tgen::Workload w;
  constexpr std::uint64_t kPackets = 1000;
  pump_and_wait(chain, kPackets, w);
  wait_for_convergence(chain, 5'000'000'000ull);

  auto* head_node = chain.ftc_node(0);
  auto* replica_node = chain.ftc_node(1);
  EXPECT_TRUE(head_node->has_mbox());
  EXPECT_FALSE(replica_node->has_mbox());  // Pure replica extension.
  auto* monitor = dynamic_cast<mbox::Monitor*>(head_node->middlebox());
  const auto key = monitor->counter_key(0);
  const auto head_count = head_node->head()->store().get(key);
  const auto replica = replica_node->applier(0);
  ASSERT_NE(replica, nullptr);
  ASSERT_TRUE(head_count.has_value());
  ASSERT_TRUE(replica->store().get(key).has_value());
  EXPECT_EQ(replica->store().get(key)->as<std::uint64_t>(),
            head_count->as<std::uint64_t>());
  chain.stop();
}

TEST(FtcChain, NatChainRewritesAndReplicatesFlowTable) {
  ChainRuntime::Spec spec;
  spec.mode = ChainMode::kFtc;
  spec.cfg.f = 1;
  spec.cfg.threads_per_node = 1;
  spec.cfg.pool_packets = 2048;
  spec.cfg.propagate_interval_ns = 100'000;
  spec.mbox_factories = {monitor_factory(), nat_factory()};
  ChainRuntime chain(spec);
  chain.start();

  tgen::Workload w;
  w.num_flows = 16;
  constexpr std::uint64_t kPackets = 1000;
  pump_and_wait(chain, kPackets, w);
  wait_for_convergence(chain, 5'000'000'000ull);

  // The NAT (position 1) created one forward + one reverse mapping per
  // flow plus the port counter; its replica (ring position 0) must agree.
  auto* nat_node = chain.ftc_node(1);
  auto* replica_node = chain.ftc_node(0);
  InOrderApplier* applier = replica_node->applier(1);
  ASSERT_NE(applier, nullptr);
  EXPECT_EQ(nat_node->head()->store().total_entries(), 2 * w.num_flows + 1);
  EXPECT_EQ(applier->store().total_entries(), 2 * w.num_flows + 1);

  for (std::size_t i = 0; i < w.num_flows; ++i) {
    const auto key = w.flow(i).hash();
    const auto head_entry = nat_node->head()->store().get(key);
    const auto replica_entry = applier->store().get(key);
    ASSERT_TRUE(head_entry.has_value());
    ASSERT_TRUE(replica_entry.has_value());
    EXPECT_TRUE(*head_entry == *replica_entry);
  }
  chain.stop();
}

void run_lossy_retransmission_case(std::size_t burst_size) {
  auto spec = spec_for(ChainMode::kFtc, 3);
  spec.cfg.link.loss = 0.01;           // 1% loss on every hop.
  spec.cfg.link.delay_ns = 1000;       // Force the timed (lossy) path.
  spec.cfg.retransmit_timeout_ns = 2'000'000;
  spec.cfg.nack_min_gap_ns = 500'000;
  spec.cfg.burst_size = burst_size;
  ChainRuntime chain(spec);
  chain.start();

  tgen::Workload w;
  tgen::TrafficSource source(chain.pool(), chain.ingress(), w, 50'000.0);
  tgen::TrafficSink sink(chain.pool(), chain.egress());
  sink.start();
  source.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  source.stop();
  std::this_thread::sleep_for(std::chrono::milliseconds(600));

  // Some packets were lost (that is expected); state must stay consistent:
  // after convergence each replica matches its head exactly.
  wait_for_convergence(chain, 10'000'000'000ull);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  for (std::uint32_t m = 0; m < 3; ++m) {
    auto* head_node = chain.ftc_node(m);
    auto* replica_node = chain.ftc_node((m + 1) % chain.ring_size());
    auto* monitor = dynamic_cast<mbox::Monitor*>(head_node->middlebox());
    const auto key = monitor->counter_key(0);
    const auto head_count = head_node->head()->store().get(key);
    ASSERT_TRUE(head_count.has_value());
    InOrderApplier* applier = replica_node->applier(m);
    const auto replica_count = applier->store().get(key);
    ASSERT_TRUE(replica_count.has_value());
    EXPECT_EQ(replica_count->as<std::uint64_t>(),
              head_count->as<std::uint64_t>())
        << "replica of mbox " << m << " diverged under loss";
  }
  sink.stop();
  chain.stop();
}

TEST(FtcChain, SurvivesLossyLinksWithRetransmission) {
  run_lossy_retransmission_case(32);
}

TEST(FtcChain, SurvivesLossyLinksWithRetransmissionBurst1) {
  // Burst 1 = the pre-batching per-packet data path; loss -> NACK ->
  // retransmission must behave identically.
  run_lossy_retransmission_case(1);
}

void run_reordering_case(std::size_t burst_size) {
  auto spec = spec_for(ChainMode::kFtc, 2, /*f=*/1, /*threads=*/2);
  spec.cfg.link.delay_ns = 2000;
  spec.cfg.link.reorder = 0.05;
  spec.cfg.link.reorder_extra_ns = 50'000;
  spec.cfg.burst_size = burst_size;
  ChainRuntime chain(spec);
  chain.start();

  tgen::Workload w;
  constexpr std::uint64_t kPackets = 1500;
  pump_and_wait(chain, kPackets, w);
  wait_for_convergence(chain, 10'000'000'000ull);

  auto* head_node = chain.ftc_node(0);
  auto* replica_node = chain.ftc_node(1);
  auto* monitor = dynamic_cast<mbox::Monitor*>(head_node->middlebox());
  // With 2 threads at sharing level 1 there are two counters.
  for (std::uint32_t t = 0; t < 2; ++t) {
    const auto key = monitor->counter_key(t);
    const auto head_count = head_node->head()->store().get(key);
    if (!head_count) continue;  // Thread may not have processed anything.
    const auto replica_count = replica_node->applier(0)->store().get(key);
    ASSERT_TRUE(replica_count.has_value());
    EXPECT_EQ(replica_count->as<std::uint64_t>(),
              head_count->as<std::uint64_t>());
  }
  chain.stop();
}

TEST(FtcChain, ToleratesReorderingViaDependencyVectors) {
  run_reordering_case(32);
}

TEST(FtcChain, ToleratesReorderingViaDependencyVectorsBurst1) {
  run_reordering_case(1);
}

TEST(FtcChain, FilteringMiddleboxEmitsPropagatingPackets) {
  // Firewall drops half the traffic; the Monitor behind it must still
  // replicate correctly (drop-generated propagating packets carry state).
  ChainRuntime::Spec spec;
  spec.mode = ChainMode::kFtc;
  spec.cfg.f = 1;
  spec.cfg.threads_per_node = 1;
  spec.cfg.pool_packets = 2048;
  spec.cfg.propagate_interval_ns = 100'000;
  spec.mbox_factories = {
      monitor_factory(),
      []() -> std::unique_ptr<Middlebox> {
        // Deny all traffic to odd destination ports.
        std::vector<mbox::FirewallRule> rules;
        rules.push_back(mbox::FirewallRule{
            0, 0, 0, 0, /*dst_port=*/443, /*protocol=*/0, /*allow=*/false});
        return std::make_unique<mbox::Firewall>(std::move(rules), true);
      },
      monitor_factory(),
  };
  ChainRuntime chain(spec);
  chain.start();

  // Half the flows hit port 443 (denied), half port 80 (allowed).
  tgen::Workload denied;
  denied.dst_port = 443;
  denied.num_flows = 8;
  tgen::Workload allowed;
  allowed.dst_port = 80;
  allowed.num_flows = 8;

  tgen::TrafficSink sink(chain.pool(), chain.egress());
  sink.start();
  tgen::TrafficSource src_denied(chain.pool(), chain.ingress(), denied, 20'000);
  tgen::TrafficSource src_allowed(chain.pool(), chain.ingress(), allowed, 20'000);
  src_denied.start();
  src_allowed.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  src_denied.stop();
  src_allowed.stop();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  wait_for_convergence(chain, 5'000'000'000ull);

  // Monitor 0 (before the firewall) counted everything and must be fully
  // replicated at node 1 even though half its packets died at the firewall.
  auto* m0 = chain.ftc_node(0);
  auto* monitor = dynamic_cast<mbox::Monitor*>(m0->middlebox());
  const auto key = monitor->counter_key(0);
  const auto head_count = m0->head()->store().get(key);
  ASSERT_TRUE(head_count.has_value());
  const auto replica_count = chain.ftc_node(1)->applier(0)->store().get(key);
  ASSERT_TRUE(replica_count.has_value());
  EXPECT_EQ(replica_count->as<std::uint64_t>(), head_count->as<std::uint64_t>());
  EXPECT_GT(chain.ftc_node(1)->stats().drops_filtered, 0u);

  sink.stop();
  chain.stop();
}

TEST(FtmbChain, DeliversAndEmitsPals) {
  ChainRuntime chain(spec_for(ChainMode::kFtmb, 2));
  chain.start();
  tgen::Workload w;
  constexpr std::uint64_t kPackets = 1000;
  pump_and_wait(chain, kPackets, w);

  for (std::uint32_t i = 0; i < 2; ++i) {
    auto* master = chain.ftmb_master(i);
    auto* logger = chain.ftmb_logger(i);
    ASSERT_NE(master, nullptr);
    ASSERT_NE(logger, nullptr);
    // Monitor does one fetch_add = two accesses (read+write) per packet.
    EXPECT_GE(master->pals_sent(), kPackets);
    EXPECT_EQ(logger->pals_received(), master->pals_sent());
    EXPECT_GE(logger->inputs_logged(), kPackets);
  }
  chain.stop();
}

TEST(FtmbChain, SnapshotModeStalls) {
  auto spec = spec_for(ChainMode::kFtmbSnapshot, 2);
  spec.cfg.snapshot_interval_ns = 20'000'000;  // 20 ms for test speed.
  spec.cfg.snapshot_stall_ns = 2'000'000;
  ChainRuntime chain(spec);
  chain.start();
  tgen::Workload w;
  tgen::TrafficSource source(chain.pool(), chain.ingress(), w, 10'000);
  tgen::TrafficSink sink(chain.pool(), chain.egress());
  sink.start();
  source.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  source.stop();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  sink.stop();
  EXPECT_GT(chain.ftmb_master(0)->snapshot_stalls(), 5u);
  chain.stop();
}

TEST(FtcChain, ReplicationFactorTwoGroupsSpanTwoSuccessors) {
  // f=2 on a 4-chain: each middlebox's state must appear on BOTH
  // successors.
  auto spec = spec_for(ChainMode::kFtc, 4, /*f=*/2);
  ChainRuntime chain(spec);
  chain.start();
  tgen::Workload w;
  constexpr std::uint64_t kPackets = 1500;
  pump_and_wait(chain, kPackets, w);
  wait_for_convergence(chain, 10'000'000'000ull);

  for (std::uint32_t m = 0; m < 4; ++m) {
    auto* head_node = chain.ftc_node(m);
    auto* monitor = dynamic_cast<mbox::Monitor*>(head_node->middlebox());
    const auto key = monitor->counter_key(0);
    const auto head_count = head_node->head()->store().get(key);
    ASSERT_TRUE(head_count.has_value());
    for (std::uint32_t k = 1; k <= 2; ++k) {
      auto* replica_node = chain.ftc_node((m + k) % chain.ring_size());
      InOrderApplier* applier = replica_node->applier(m);
      ASSERT_NE(applier, nullptr) << "mbox " << m << " succ " << k;
      const auto count = applier->store().get(key);
      ASSERT_TRUE(count.has_value()) << "mbox " << m << " succ " << k;
      EXPECT_EQ(count->as<std::uint64_t>(), head_count->as<std::uint64_t>())
          << "mbox " << m << " succ " << k;
    }
  }
  chain.stop();
}

}  // namespace
}  // namespace sfc::ftc

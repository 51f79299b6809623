#include "orch/orchestrator.hpp"

#include <cstring>
#include <thread>

#include "obs/span.hpp"
#include "runtime/clock.hpp"
#include "runtime/logging.hpp"

namespace sfc::orch {

using ftc::CtrlMsg;

namespace {

/// Recovery-phase span on the orchestrator track. Protocol-rate: the sink
/// check is the gate (no per-packet cost involved).
inline void span_event(obs::Registry& reg, std::uint32_t position,
                       obs::SpanKind kind, std::uint64_t a = 0) noexcept {
  if (auto* sink = reg.span_sink()) {
    sink->record(obs::SpanRecord{obs::recovery_trace_id(position),
                                 rt::now_ns(), a, obs::kSpanSiteOrch, kind});
  }
}

}  // namespace

Orchestrator::Orchestrator(ftc::ChainRuntime& chain, OrchestratorConfig cfg)
    : chain_(chain), cfg_(cfg), ctrl_(chain.control()) {
  ctrl_.register_node(net::kOrchestratorNode);
  auto& registry = chain_.registry();
  const obs::Labels labels{{"node", "orch"}};
  pings_sent_ = &registry.counter("orch.pings_sent", labels);
  failures_counter_ = &registry.counter("orch.failures_detected", labels);
  recoveries_ = &registry.counter("orch.recoveries", labels);
  trace_ = &registry.trace("orch.events", labels);
  registry.name_span_site(obs::kSpanSiteOrch, "orchestrator");
}

Orchestrator::~Orchestrator() { stop(); }

void Orchestrator::start() {
  if (monitor_) return;
  monitor_ = std::make_unique<rt::Worker>();
  monitor_->start("orchestrator", [this] { return monitor_body(); });
}

void Orchestrator::stop() { monitor_.reset(); }

bool Orchestrator::monitor_body() {
  // Absorb pongs.
  while (auto msg = ctrl_.poll(net::kOrchestratorNode)) {
    if (msg->type == CtrlMsg::kPong) last_seen_ns_[msg->from] = rt::now_ns();
  }
  // Read after the pongs: a pong stamped later than `now` would wrap the
  // unsigned silence below and read as a failure.
  const std::uint64_t now = rt::now_ns();

  if (now < next_ping_ns_) return false;
  next_ping_ns_ = now + cfg_.heartbeat_interval_ns;

  std::vector<std::uint32_t> failed_positions;
  for (std::uint32_t pos = 0; pos < chain_.ring_size(); ++pos) {
    ftc::FtcNode* node = chain_.ftc_node(pos);
    if (node == nullptr) continue;
    const auto [it, first_sight] = last_seen_ns_.try_emplace(node->id(), now);
    if (!first_sight && now - it->second > cfg_.failure_timeout_ns) {
      failed_positions.push_back(pos);
      trace_->emit(obs::Event::kFailureDetected, node->id(), pos);
      span_event(chain_.registry(), pos, obs::SpanKind::kDetect, node->id());
      continue;
    }
    net::Message ping;
    ping.type = CtrlMsg::kPing;
    ping.from = net::kOrchestratorNode;
    ping.to = node->id();
    ping.tag = ++ping_seq_;
    ctrl_.send(std::move(ping));
    pings_sent_->inc();
  }

  if (!failed_positions.empty()) {
    failures_detected_.fetch_add(failed_positions.size());
    failures_counter_->add(failed_positions.size());
    SFC_LOG_INFO("orch") << failed_positions.size()
                         << " replica(s) failed; starting recovery";
    recover(failed_positions);
  }
  // Low-rate control work: sleep (in place of a spin backoff) so the data
  // plane keeps the CPU.
  std::this_thread::sleep_for(std::chrono::microseconds(500));
  return true;
}

std::vector<RecoveryReport> Orchestrator::recover(
    const std::vector<std::uint32_t>& positions) {
  // Serialized: the monitor and manual callers share this path. Outermost
  // rank in the tree: a recovery drives the control plane, node state
  // fetches, and registry timers while holding it.
  static Mutex recovery_mutex{ranks::kOrch, "orch.recovery"};
  LockGuard recovery_lock(recovery_mutex);

  struct Pending {
    RecoveryReport report;
    ftc::FtcNode* node{nullptr};
    std::uint64_t start_ns{0};
    std::uint64_t tag{0};
    bool acked{false};
    bool done{false};
  };
  std::vector<Pending> pending;

  // Manual recoveries (no monitor detection) get their "failure became
  // known" timestamp here; the monitor's earlier kDetect wins otherwise
  // (recovery_timelines keeps the first occurrence).
  for (std::uint32_t pos : positions) {
    span_event(chain_.registry(), pos, obs::SpanKind::kDetect);
  }

  // Step 1: spawn all replacements and hand each its fetch plan. Spawns
  // overlap; the simulated instantiation cost is paid once up front.
  std::this_thread::sleep_for(std::chrono::nanoseconds(cfg_.spawn_delay_ns));
  for (std::uint32_t pos : positions) {
    Pending p;
    p.start_ns = rt::now_ns();
    p.report.position = pos;
    if (ftc::FtcNode* old_node = chain_.ftc_node(pos)) {
      p.report.failed_node = old_node->id();
    }
    p.node = chain_.spawn_replacement(pos);
    p.report.new_node = p.node->id();
    trace_->emit(obs::Event::kRecoverySpawn, p.node->id(), pos);
    span_event(chain_.registry(), pos, obs::SpanKind::kSpawn, p.node->id());
    p.tag = 0xFEC0000000000000ull | p.node->id();
    pending.push_back(p);
  }

  // The fetch plan references the surviving replicas (paper §5.2).
  for (auto& p : pending) {
    const auto sources = chain_.recovery_sources(p.report.position);
    net::Message init;
    init.type = CtrlMsg::kInit;
    init.from = net::kOrchestratorNode;
    init.to = p.node->id();
    init.tag = p.tag;
    std::uint32_t count = static_cast<std::uint32_t>(sources.size());
    const auto* cp = reinterpret_cast<const std::uint8_t*>(&count);
    init.payload.insert(init.payload.end(), cp, cp + 4);
    for (const auto& [mbox, source] : sources) {
      const auto* mp = reinterpret_cast<const std::uint8_t*>(&mbox);
      init.payload.insert(init.payload.end(), mp, mp + 4);
      const auto* sp = reinterpret_cast<const std::uint8_t*>(&source);
      init.payload.insert(init.payload.end(), sp, sp + 4);
    }
    ctrl_.send(std::move(init));
  }

  // Step 2: collect init-acks and completions. The orchestrator updates no
  // routing until EVERY simultaneous failure has recovered (paper §5.2).
  const std::uint64_t deadline = rt::now_ns() + 30'000'000'000ull;
  std::size_t outstanding = pending.size();
  while (outstanding > 0 && rt::now_ns() < deadline) {
    auto msg = ctrl_.poll(net::kOrchestratorNode);
    if (!msg) {
      std::this_thread::yield();
      continue;
    }
    if (msg->type == CtrlMsg::kPong) {
      last_seen_ns_[msg->from] = rt::now_ns();
      continue;
    }
    for (auto& p : pending) {
      if (msg->tag != p.tag) continue;
      if (msg->type == CtrlMsg::kInitAck && !p.acked) {
        p.acked = true;
        p.report.initialization_ns = rt::now_ns() - p.start_ns;
        trace_->emit(obs::Event::kRecoveryInitAck, p.node->id());
        span_event(chain_.registry(), p.report.position,
                   obs::SpanKind::kInitAck, p.node->id());
      } else if (msg->type == CtrlMsg::kRecovered && !p.done) {
        p.done = true;
        --outstanding;
        p.report.success = !msg->payload.empty() && msg->payload[0] == 1;
        if (msg->payload.size() >= 9) {
          std::memcpy(&p.report.state_recovery_ns, msg->payload.data() + 1, 8);
        }
      }
      break;
    }
  }

  // Step 3: update routing rules, steering traffic through the new
  // replicas.
  for (auto& p : pending) {
    if (!p.done || !p.report.success) {
      SFC_LOG_ERROR("orch") << "recovery of position " << p.report.position
                            << " failed";
      continue;
    }
    const std::uint64_t reroute_start = rt::now_ns();
    chain_.wire_replacement(p.report.position, p.node);
    last_seen_ns_[p.node->id()] = rt::now_ns();
    p.report.rerouting_ns = rt::now_ns() - reroute_start;
    p.report.total_ns = rt::now_ns() - p.start_ns;
    recoveries_->inc();
    trace_->emit(obs::Event::kRecoveryRerouted, p.node->id(),
                 p.report.position);
    span_event(chain_.registry(), p.report.position, obs::SpanKind::kReroute,
               p.report.position);
    chain_.registry()
        .timer("orch.recovery_total_ns")
        .record(p.report.total_ns);
    SFC_LOG_INFO("orch") << "position " << p.report.position << " recovered in "
                         << p.report.total_ns / 1000000.0 << " ms";
  }

  std::vector<RecoveryReport> out;
  out.reserve(pending.size());
  {
    LockGuard lock(mutex_);
    for (auto& p : pending) {
      reports_.push_back(p.report);
      out.push_back(p.report);
    }
  }
  return out;
}

std::vector<RecoveryReport> Orchestrator::reports() const {
  LockGuard lock(mutex_);
  return reports_;
}

}  // namespace sfc::orch

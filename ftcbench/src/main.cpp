// FTC benchmark program.
//
//   ftcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--inject drop|dup|store]
//
// Every workload is a 2-position FTC ring (f = 1, one worker per node,
// burst 32) driven by the one-thread generator in loadgen.hpp. A run sets
// up chain instances in turn, a number proportional to --seconds, and on
// each:
//   1. times the set-up (construction, start, prefill until quiescent) and
//      warms up;
//   2. measures a closed-loop block with a fixed in-flight window (and, on
//      the last instance with --trace 1, one more block, traced);
//   3. runs an open-loop block: a fixed packet count at a fixed rate,
//      latency timed from each packet's due time;
//   4. fails and recovers each ring position once: Orchestrator::recover()
//      (no heartbeat thread; detection is a configured timeout, not program
//      speed), compare the replicas' stores with the nodes stopped, restart,
//      and push a short closed-loop check window through the new replica.
// The end-to-end metrics are medians over instances.
// Each instance's packet counts are fixed per workload: they scale neither
// with --seconds nor with how fast the code runs, so the state built (and
// recover_ms, peak_rss_mb) is fixed per workload.
// peak_rss_mb is the process's peak RSS when the first instance ends: later
// instances reuse whatever freed memory the allocator kept, which varies.
//
// --trace 1 additionally installs the chain's HotProfiler, samples spans,
// times the generator's own calls into packet/net, measures the isolated
// public-call costs of the layer ladder, and reports per-layer metrics.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. Any failed check makes the exit code nonzero.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/chain.hpp"
#include "core/piggyback.hpp"
#include "host.hpp"
#include "loadgen.hpp"
#include "mbox/monitor.hpp"
#include "mbox/nat.hpp"
#include "obs/prof.hpp"
#include "obs/span.hpp"
#include "orch/orchestrator.hpp"

using namespace sfc;
using namespace ftcbench;

namespace {

// --- Workloads. -------------------------------------------------------------

/// The middleboxes of a workload's 2-position ring.
enum class ChainKind {
  kMonitors,    ///< Monitor -> Monitor (Ch-2).
  kNatReplica,  ///< MazuNAT, ring extended with a pure replica.
  kNatMonitor,  ///< MazuNAT -> Monitor.
};

struct WorkloadSpec {
  const char* name;
  ChainKind chain;
  std::size_t frame_len;    ///< Ethernet frame bytes.
  FlowSequence::Config flows;
  /// Closed-loop packets measured on each chain instance (after a warm-up
  /// of a quarter as many). Fixed, so the state an instance builds does not
  /// depend on how fast the code runs.
  std::uint64_t block_packets;
  double open_rate_pps;     ///< Open-loop rate, ~1/4 of capacity.
  std::uint64_t open_block;  ///< Open-loop packets on each instance.
  /// Chain instances per second of --seconds; each runs every phase, and
  /// the end-to-end metrics are medians over them. Sized so that a run
  /// takes about --seconds on the seed code.
  double instances_per_second;

  /// Isolated ladder shape: writes per log and their value sizes.
  std::vector<std::size_t> log_value_sizes;

  bool nat() const noexcept { return chain != ChainKind::kMonitors; }
};

/// nat-monitor-churn keeps its NAT table cache-sized and puts a log on every
/// packet: with nat-churn's 16,384 flows and a pure replica, throughput
/// followed the host's memory latency from run to run (README, noise
/// finding 6).
const std::vector<WorkloadSpec>& workloads() {
  constexpr std::size_t kNatEntry = sizeof(mbox::NatEntry);
  static const std::vector<WorkloadSpec> w = {
      {"monitor-64B", ChainKind::kMonitors, 64, {64, 0}, 50'000, 100'000.0,
       11'000, 3.1, {8}},
      {"nat-monitor-churn", ChainKind::kNatMonitor, 64, {2'048, 32}, 40'000,
       125'000.0, 10'000, 3.6, {8}},
      {"nat-churn", ChainKind::kNatReplica, 64, {16'384, 32}, 55'000,
       150'000.0, 13'000, 3.0, {kNatEntry, kNatEntry, 8}},
      {"nat-256k-flows", ChainKind::kNatReplica, 256, {262'144, 0}, 800'000,
       200'000.0, 230'000, 0.3, {kNatEntry, kNatEntry, 8}},
  };
  return w;
}

constexpr std::size_t kWindow = 128;        // closed-loop packets in flight
constexpr std::uint64_t kCheckPackets = 10'000;  // per recovery cycle
constexpr std::uint64_t kLatencySampleEvery = 4; // closed-loop latencies
constexpr std::uint64_t kPhaseTimeoutNs = 30'000'000'000ull;
/// A run that has not finished by then is killed (exit 3, no result line).
constexpr auto kWatchdog = std::chrono::seconds(170);

ftc::ChainRuntime::Spec chain_spec(const WorkloadSpec& w, bool profile) {
  ftc::ChainRuntime::Spec spec;
  spec.mode = ftc::ChainMode::kFtc;
  spec.cfg.f = 1;
  spec.cfg.threads_per_node = 1;
  spec.cfg.burst_size = kBurst;
  spec.cfg.profile = profile;
  const auto nat = [] { return std::make_unique<mbox::MazuNat>(); };
  const auto monitor = [] { return std::make_unique<mbox::Monitor>(1); };
  switch (w.chain) {
    case ChainKind::kMonitors:
      spec.mbox_factories = {monitor, monitor};
      break;
    case ChainKind::kNatReplica:
      // One middlebox; the ring is extended with a pure replica (f + 1 = 2).
      spec.mbox_factories = {nat};
      break;
    case ChainKind::kNatMonitor:
      spec.mbox_factories = {nat, monitor};
      break;
  }
  return spec;
}

std::uint32_t src_ip_of(const pkt::Packet& p) {
  const std::uint8_t* ip = p.data() + pkt::EthernetHeader::kSize + 12;
  return (std::uint32_t{ip[0]} << 24) | (std::uint32_t{ip[1]} << 16) |
         (std::uint32_t{ip[2]} << 8) | ip[3];
}

bool wait_quiescent(ftc::ChainRuntime& chain, std::uint64_t timeout_ns) {
  const std::uint64_t deadline = rt::now_ns() + timeout_ns;
  while (!chain.quiescent()) {
    if (rt::now_ns() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double cycles_to_ns(std::uint64_t cycles, std::uint64_t calls) {
  if (calls == 0) return 0.0;
  return static_cast<double>(cycles) * 1e9 / rt::tsc_hz() /
         static_cast<double>(calls);
}

// --- Store comparison. ------------------------------------------------------

/// StateStore::serialize() output with each partition's entries sorted by
/// key: the unordered_map iteration order is not part of the state, so two
/// equal stores may serialize in different orders.
struct CanonicalStore {
  std::vector<std::uint8_t> bytes;
  std::uint64_t keys{0};
};

CanonicalStore canonical(const std::vector<std::uint8_t>& blob) {
  CanonicalStore out;
  std::span<const std::uint8_t> in(blob);
  const auto take = [&in](void* dst, std::size_t n) {
    if (in.size() < n) return false;
    std::memcpy(dst, in.data(), n);
    in = in.subspan(n);
    return true;
  };
  const auto put = [&out](const void* src, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(src);
    out.bytes.insert(out.bytes.end(), b, b + n);
  };
  std::uint32_t parts = 0;
  if (!take(&parts, 4)) return out;
  put(&parts, 4);
  for (std::uint32_t p = 0; p < parts; ++p) {
    std::uint32_t n = 0;
    if (!take(&n, 4)) return out;
    put(&n, 4);
    std::vector<std::pair<std::uint64_t, std::span<const std::uint8_t>>> es;
    es.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      std::uint64_t key = 0;
      std::uint32_t len = 0;
      if (!take(&key, 8) || !take(&len, 4) || in.size() < len) return out;
      es.emplace_back(key, in.subspan(0, len));
      in = in.subspan(len);
    }
    std::sort(es.begin(), es.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [key, value] : es) {
      const auto len = static_cast<std::uint32_t>(value.size());
      put(&key, 8);
      put(&len, 4);
      put(value.data(), value.size());
    }
    out.keys += n;
  }
  return out;
}

struct StoreCheck {
  bool equal{true};
  double serialize_ms{0};    ///< Recovered node's stores.
  double deserialize_ms{0};  ///< Same bytes into a fresh store.
  std::uint64_t bytes{0};
  std::uint64_t head_keys{0};
};

/// With the chain's nodes stopped: every replication group's head store
/// must equal its replica's applier store (entries and sequence vectors).
/// Times serializing the stores held by ring position @p recovered.
StoreCheck compare_groups(ftc::ChainRuntime& chain, std::uint32_t recovered,
                          std::size_t partitions) {
  StoreCheck c;
  const std::uint32_t ring = chain.ring_size();
  for (std::uint32_t m = 0; m < chain.num_mboxes(); ++m) {
    ftc::FtcNode* head_node = chain.ftc_node(m);
    ftc::FtcNode* replica = chain.ftc_node((m + 1) % ring);
    ftc::InOrderApplier* applier = replica->applier(m);
    if (head_node->head() == nullptr || applier == nullptr) {
      c.equal = false;
      continue;
    }
    std::vector<std::uint8_t> head_blob, replica_blob;
    const std::uint64_t t0 = rt::now_ns();
    head_node->head()->store().serialize(head_blob);
    const std::uint64_t t1 = rt::now_ns();
    applier->store().serialize(replica_blob);
    const std::uint64_t t2 = rt::now_ns();
    const bool head_recovered = m == recovered;
    const std::vector<std::uint8_t>& mine =
        head_recovered ? head_blob : replica_blob;
    if (head_recovered || (m + 1) % ring == recovered) {
      c.serialize_ms += static_cast<double>(head_recovered ? t1 - t0 : t2 - t1) * 1e-6;
      c.bytes += mine.size();
      state::StateStore scratch(partitions);
      const std::uint64_t t3 = rt::now_ns();
      const bool ok = scratch.deserialize(mine);
      c.deserialize_ms += static_cast<double>(rt::now_ns() - t3) * 1e-6;
      c.equal = c.equal && ok;
    }
    const CanonicalStore a = canonical(head_blob);
    const CanonicalStore b = canonical(replica_blob);
    c.head_keys += a.keys;
    c.equal = c.equal && !a.bytes.empty() && a.bytes == b.bytes &&
              head_node->head()->txn_ctx().sequence_snapshot() ==
                  applier->max().seq;
  }
  return c;
}

// --- Fault injection (checks the checks). ----------------------------------

/// Egress port wrapper that loses or duplicates one packet, for --inject.
class FaultyEgress final : public net::Port {
 public:
  FaultyEgress(net::Port& inner, pkt::PacketPool& pool, bool duplicate)
      : inner_(inner), pool_(pool), duplicate_(duplicate) {}

  bool send(pkt::Packet* p) override { return inner_.send(p); }
  bool send_blocking(pkt::Packet* p, std::uint64_t t) override {
    return inner_.send_blocking(p, t);
  }
  std::size_t send_burst(std::span<pkt::Packet*> ps) override {
    return inner_.send_burst(ps);
  }
  pkt::Packet* poll() override { return inner_.poll(); }
  std::size_t poll_burst(pkt::Packet** out, std::size_t max) override {
    std::size_t n = inner_.poll_burst(out, max > 1 ? max - 1 : max);
    for (std::size_t i = 0; i < n && !done_; ++i) {
      if (out[i]->anno().packet_id < 1000) continue;
      done_ = true;
      if (duplicate_ && n < max) {
        pkt::Packet* copy = pool_.alloc_raw();
        if (copy != nullptr) {
          out[i]->clone_into(*copy);
          out[n++] = copy;
        }
      } else if (!duplicate_) {
        pool_.free_raw(out[i]);
        out[i] = out[--n];
      }
    }
    return n;
  }
  net::LinkStats stats() const noexcept override { return inner_.stats(); }
  bool drained() const noexcept override { return inner_.drained(); }

 private:
  net::Port& inner_;
  pkt::PacketPool& pool_;
  const bool duplicate_;
  bool done_{false};
};

// --- Layer ladder (isolated public-call costs). -----------------------------

struct Isolated {
  double view_walk_ns{0};
  double store_apply_ns{0};
};

/// Times PiggybackView open + walk and StateStore::apply_wire on a frame
/// and log of the workload's shape, outside any chain. Median of 5 rounds.
Isolated isolated_costs(const WorkloadSpec& w, std::size_t partitions) {
  const tgen::Workload flows;
  pkt::Packet packet;
  pkt::PacketBuilder(packet).udp(flows.flow(1), w.frame_len);
  ftc::PiggybackMessage msg;
  ftc::PiggybackLog log;
  log.mbox = 0;
  std::vector<state::StateUpdate> updates;
  for (std::size_t i = 0; i < w.log_value_sizes.size(); ++i) {
    state::StateUpdate u;
    u.key = rt::splitmix64(0xabc + i);
    std::vector<std::uint8_t> v(w.log_value_sizes[i], static_cast<std::uint8_t>(i));
    u.value = state::Bytes(v.data(), v.size());
    log.writes.push_back(u);
    updates.push_back(u);
  }
  log.dep.mask = 1;
  log.dep.seq[0] = 1;
  msg.logs.push_back(log);
  msg.set_commit(0, ftc::MaxVector{});
  ftc::append_message(packet, msg, partitions);

  std::vector<state::WireUpdate> wire;
  for (const auto& u : updates) {
    wire.push_back(state::WireUpdate{u.key, u.value.span(), false});
  }
  state::StateStore store(partitions);
  store.apply_wire(wire);

  constexpr int kIters = 200'000;
  std::vector<double> walk, apply;
  std::uint64_t sink = 0;
  for (int round = 0; round < 5; ++round) {
    std::uint64_t t0 = rt::now_ns();
    for (int i = 0; i < kIters; ++i) {
      auto v = ftc::PiggybackView::open(packet);
      for (std::size_t l = 0; l < v.log_count(); ++l) {
        ftc::for_each_wire_write(v.log(l), [&sink](const state::WireUpdate& u) {
          sink += u.key + u.value.size();
        });
      }
    }
    walk.push_back(static_cast<double>(rt::now_ns() - t0) / kIters);
    t0 = rt::now_ns();
    for (int i = 0; i < kIters / 4; ++i) store.apply_wire(wire);
    apply.push_back(static_cast<double>(rt::now_ns() - t0) / (kIters / 4));
  }
  if (sink == 42) std::printf("#\n");  // keep the walk observable
  return Isolated{median(walk), median(apply)};
}

// --- Span decomposition. ----------------------------------------------------

struct SpanSplit {
  double buffer_hold_us{0};
  double hop_us{0};
  double transit_us{0};
  std::uint64_t traces{0};
};

/// Per sampled packet: end to end (generator emit -> sink receive) minus
/// the time inside nodes (ingress -> egress) and on links (enter -> exit);
/// the rest is the egress buffer's hold. Medians over packets.
SpanSplit split_spans(std::vector<obs::SpanRecord> rs) {
  std::stable_sort(rs.begin(), rs.end(), [](const auto& a, const auto& b) {
    return a.trace_id != b.trace_id ? a.trace_id < b.trace_id
                                    : a.ts_ns < b.ts_ns;
  });
  std::vector<std::uint64_t> hold, hop, transit;
  for (std::size_t i = 0; i < rs.size();) {
    std::size_t end = i;
    while (end < rs.size() && rs[end].trace_id == rs[i].trace_id) ++end;
    std::uint64_t emit = 0, recv = 0, node = 0, link = 0;
    std::map<std::uint32_t, std::uint64_t> node_in, link_in;
    for (std::size_t k = i; k < end; ++k) {
      const auto& r = rs[k];
      switch (r.kind) {
        case obs::SpanKind::kGenEmit: emit = r.ts_ns; break;
        case obs::SpanKind::kSinkRecv: recv = r.ts_ns; break;
        case obs::SpanKind::kNodeIngress: node_in[r.site] = r.ts_ns; break;
        case obs::SpanKind::kNodeEgress:
          if (auto it = node_in.find(r.site); it != node_in.end()) {
            node += r.ts_ns - it->second;
            node_in.erase(it);
          }
          break;
        case obs::SpanKind::kLinkEnter: link_in[r.site] = r.ts_ns; break;
        case obs::SpanKind::kLinkExit:
          if (auto it = link_in.find(r.site); it != link_in.end()) {
            link += r.ts_ns - it->second;
            link_in.erase(it);
          }
          break;
        default: break;
      }
    }
    i = end;
    if (emit == 0 || recv < emit) continue;
    const std::uint64_t e2e = recv - emit;
    hold.push_back(e2e > node + link ? e2e - node - link : 0);
    hop.push_back(node);
    transit.push_back(link);
  }
  SpanSplit s;
  s.traces = hold.size();
  s.buffer_hold_us = quantile(hold, 0.5) * 1e-3;
  s.hop_us = quantile(hop, 0.5) * 1e-3;
  s.transit_us = quantile(transit, 0.5) * 1e-3;
  return s;
}

// --- Registry helpers. ------------------------------------------------------

struct RegistryView {
  std::vector<obs::Sample> samples;
  double sum(const std::string& name) const {
    double s = 0;
    for (const auto& x : samples) {
      if (x.name == name && x.kind != obs::Sample::Kind::kHistogram) s += x.value;
    }
    return s;
  }
  double max(const std::string& name) const {
    double m = 0;
    for (const auto& x : samples) {
      if (x.name == name) m = std::max(m, x.value);
    }
    return m;
  }
  double hist_mean(const std::string& name) const {
    rt::Histogram h;
    for (const auto& x : samples) {
      if (x.name == name && x.kind == obs::Sample::Kind::kHistogram) h.merge(x.hist);
    }
    return h.mean();
  }
};

// --- Output. ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[96];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // JSON has no inf/nan; a phase that delivered nothing already failed.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  std::string inject;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "ftcbench: %s\nusage: ftcbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--inject drop|dup|store]\n"
               "workloads:",
               msg);
  for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--inject") a.inject = v;
    else usage(("unknown flag " + k).c_str());
  }
  if (a.seconds <= 0) usage("--seconds must be positive");
  if (!a.inject.empty() && a.inject != "drop" && a.inject != "dup" &&
      a.inject != "store") {
    usage("--inject takes drop, dup or store");
  }
  return a;
}

/// One chain with its generator: constructed and started, not yet
/// prefilled. Members are destroyed generator first, chain last.
struct Instance {
  Instance(const WorkloadSpec& w, const Args& args, LoadGen::Options opt)
      : chain(std::make_unique<ftc::ChainRuntime>(chain_spec(w, args.trace))),
        seq(w.flows, args.seed) {
    if (chain->profiler() != nullptr) {
      obs::uninstall_hot_profiler(chain->profiler());  // untraced until asked
    }
    chain->start();
    net::Port* egress = &chain->egress();
    if (args.inject == "drop" || args.inject == "dup") {
      faulty = std::make_unique<FaultyEgress>(chain->egress(), chain->pool(),
                                              args.inject == "dup");
      egress = faulty.get();
    }
    gen = std::make_unique<LoadGen>(chain->pool(), chain->ingress(), *egress,
                                    tgen::Workload{}, checker, std::move(opt));
  }

  std::unique_ptr<ftc::ChainRuntime> chain;
  std::unique_ptr<FaultyEgress> faulty;
  DeliveryChecker checker;
  FlowSequence seq;
  std::unique_ptr<LoadGen> gen;
};

/// Ends the process if the run overruns kWatchdog (a hang must not keep
/// the caller waiting); disarmed and joined by its destructor.
class Watchdog {
 public:
  Watchdog()
      : thread_([this] {
          std::unique_lock lock(mutex_);
          if (!cv_.wait_for(lock, kWatchdog, [this] { return done_; })) {
            std::fprintf(stderr, "ftcbench: run exceeded %lld s, aborting\n",
                         static_cast<long long>(kWatchdog.count()));
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard lock(mutex_);
      done_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_{false};
  std::thread thread_;  // last: starts after the members it uses
};

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const WorkloadSpec* wp = nullptr;
  for (const auto& w : workloads()) {
    if (args.workload == w.name) wp = &w;
  }
  if (wp == nullptr) usage(("unknown workload " + args.workload).c_str());
  const WorkloadSpec& w = *wp;
  const Watchdog watchdog;

  const double s = args.seconds;
  const int instances =
      std::max(1, static_cast<int>(std::lround(s * w.instances_per_second)));

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  const auto fail = [&](std::uint64_t n, const std::string& what) {
    if (n == 0) return;
    failed += n;
    failures.push_back(what + " x" + std::to_string(n));
  };

  // Output check: MazuNAT rewrites the source to its external address;
  // monitors forward untouched (sources stay inside 10/8).
  const auto check_output = [nat = w.nat(),
                             external = mbox::MazuNat::Config{}.external_ip](
                                const pkt::Packet& p) {
    const std::uint32_t src = src_ip_of(p);
    return nat ? src == external : (src >> 24) == 10;
  };

  std::uint64_t pool_stalls = 0, ingress_rejects = 0;
  const auto account = [&](const PhaseResult& r, const char* phase) {
    attempted += r.sent + r.rejected;
    pool_stalls += r.pool_stalls;
    ingress_rejects += r.ingress_rejects;
    fail(r.rejected, std::string(phase) + " ingress reject");
    fail(r.bad_output, std::string(phase) + " wrong output");
    fail(r.timed_out ? 1 : 0, std::string(phase) + " timeout");
  };
  const auto rate_mpps = [](const PhaseResult& r) {
    return static_cast<double>(r.delivered) / r.seconds() * 1e-6;
  };

  // Fail/recover cycles on one instance: position 0, then position 1.
  // recover_ms and the phase split are position 0's (the first middlebox's
  // head: MazuNAT on the NAT chains), recovered from the store that live
  // traffic built. Position 1 is reported on its own: it fetches from the
  // freshly recovered position 0, and its recovery takes several ms even
  // with a tiny state (see README).
  std::vector<double> recover_ms, init_ms, fetch_ms, reroute_ms;
  std::vector<double> recover1_ms, fetch1_ms;
  std::vector<double> ser_ms, deser_ms, state_bytes;
  std::uint64_t head_keys = 0;
  const auto recover_cycles = [&](Instance& in) {
    ftc::ChainRuntime& ch = *in.chain;
    orch::Orchestrator orchestrator(ch);  // never start()ed: no heartbeats
    const std::size_t partitions = ch.spec().cfg.num_partitions;
    for (std::uint32_t pos = 0; pos < 2; ++pos) {
      if (!wait_quiescent(ch, 10'000'000'000ull)) fail(1, "not quiescent");
      ch.fail_position(pos);
      const auto reports = orchestrator.recover({pos});
      ++attempted;
      if (reports.size() != 1 || !reports[0].success) {
        fail(1, "recovery");
        return;
      }
      const auto& r = reports[0];
      if (pos == 0) {
        recover_ms.push_back(static_cast<double>(r.total_ns) * 1e-6);
        init_ms.push_back(static_cast<double>(r.initialization_ns) * 1e-6);
        fetch_ms.push_back(static_cast<double>(r.state_recovery_ns) * 1e-6);
        reroute_ms.push_back(static_cast<double>(r.rerouting_ns) * 1e-6);
      } else {
        recover1_ms.push_back(static_cast<double>(r.total_ns) * 1e-6);
        fetch1_ms.push_back(static_cast<double>(r.state_recovery_ns) * 1e-6);
      }

      // Stores, with the chain stopped: the recovered node must hold exactly
      // what the surviving replica holds.
      if (!wait_quiescent(ch, 10'000'000'000ull)) fail(1, "not quiescent");
      for (std::uint32_t p = 0; p < ch.ring_size(); ++p) ch.ftc_node(p)->stop();
      if (args.inject == "store" && pos == 0 && recover_ms.size() == 1) {
        ftc::FtcNode* n = ch.ftc_node(pos);
        state::StateStore& st = n->has_mbox() ? n->head()->store()
                                              : n->applier(0)->store();
        const std::uint64_t bogus = 0xbadc0ffee;
        st.apply(std::vector<state::StateUpdate>{
            {0x5eed, state::Bytes(&bogus, sizeof(bogus)), false}});
      }
      const StoreCheck sc = compare_groups(ch, pos, partitions);
      fail(sc.equal ? 0 : 1, "replica stores differ after recovery");
      if (pos == 0) {
        ser_ms.push_back(sc.serialize_ms);
        deser_ms.push_back(sc.deserialize_ms);
        state_bytes.push_back(static_cast<double>(sc.bytes));
        head_keys = sc.head_keys;
      }
      for (std::uint32_t p = 0; p < ch.ring_size(); ++p) ch.ftc_node(p)->start();

      account(in.gen->closed_loop(in.seq, kCheckPackets, kWindow, 0,
                                  kPhaseTimeoutNs),
              "check window");
    }
  };

  // Final checks on an instance: every packet delivered exactly once and
  // each monitor's counter equal to the packets delivered (each packet
  // bumps it exactly once).
  DeliveryChecker::Result delivery;
  double peak_rss = 0;
  const auto finish = [&](Instance& in) {
    ftc::ChainRuntime& ch = *in.chain;
    if (!wait_quiescent(ch, 10'000'000'000ull)) fail(1, "final not quiescent");
    ch.stop();
    const DeliveryChecker::Result r = in.checker.result();
    fail(r.missing, "packet never delivered");
    fail(r.duplicates, "packet delivered twice");
    fail(r.unknown, "unknown packet delivered");
    delivery.injected += r.injected;
    delivery.delivered += r.delivered;
    delivery.missing += r.missing;
    delivery.duplicates += r.duplicates;
    if (peak_rss == 0) peak_rss = host::peak_rss_mb();
    for (std::uint32_t m = 0; m < ch.num_mboxes(); ++m) {
      ftc::FtcNode* n = ch.ftc_node(m);
      auto* mon = dynamic_cast<mbox::Monitor*>(n->middlebox());
      if (mon == nullptr) continue;
      const auto v = n->head()->store().get(mon->counter_key(0));
      const std::uint64_t count = v ? v->as<std::uint64_t>() : 0;
      fail(count == r.delivered ? 0 : 1, "monitor count != delivered");
    }
  };

  // --- Every phase, on each of several chain instances. --------------------
  // One chain instance's speed varies with where its memory and threads
  // land, so no single instance decides the run: each instance is set up
  // (timed for setup_s), warmed up, measured over a fixed closed-loop and
  // open-loop packet count, and recovered once per position, and the run
  // reports medians over instances. The host's speed drifts over seconds,
  // so a longer run takes more instances rather than longer ones. Recovery slows
  // with each earlier recovery on the same chain, and a store rebuilt by a
  // recovery serializes faster than one built by traffic, so each
  // position-0 sample is the first recovery of its own chain. With
  // --trace 1, the last instance also runs the traced closed-loop block and
  // samples spans in its open-loop block.
  LoadGen::Options opt{w.frame_len, check_output};
  opt.span_seed = args.seed;
  const std::uint64_t block_packets = w.block_packets;
  const std::uint64_t open_block = w.open_block;
  std::vector<double> setup_s, inst_mpps, inst_p90, inst_p50, inst_open_p50;
  std::vector<std::uint64_t> open_lat, open_late;  // pooled over instances
  host::CpuTimes noise_cpu;  // summed deltas over the measured blocks
  std::uint64_t nivcsw = 0;
  int busy = 0;
  std::string busy_names;
  obs::BudgetReport budget;
  RegistryView reg;
  PhaseResult traced;
  SpanSplit split;
  std::unique_ptr<Instance> inst;
  for (int k = 0; k < instances; ++k) {
    if (inst) {
      finish(*inst);
      inst.reset();
    }
    const std::uint64_t t0 = rt::now_ns();
    inst = std::make_unique<Instance>(w, args, opt);
    ftc::ChainRuntime& ch = *inst->chain;
    LoadGen& gen = *inst->gen;
    FlowSequence& seq = inst->seq;
    account(gen.closed_loop_flows(seq.prefill_order(), kWindow, kPhaseTimeoutNs),
            "prefill");
    fail(wait_quiescent(ch, 10'000'000'000ull) ? 0 : 1, "prefill not quiescent");
    setup_s.push_back(static_cast<double>(rt::now_ns() - t0) * 1e-9);

    account(gen.closed_loop(seq, block_packets / 4, kWindow, 0, kPhaseTimeoutNs),
            "warmup");

    // Host noise is recorded over the measured blocks, where it moves the
    // figures.
    const host::CpuTimes cpu0 = host::cpu_times();
    const std::uint64_t nivcsw0 = host::involuntary_switches();
    const auto threads0 = host::thread_cpu();
    const std::uint64_t tb0 = rt::now_ns();
    PhaseResult block = gen.closed_loop(seq, block_packets, kWindow,
                                        kLatencySampleEvery, kPhaseTimeoutNs);
    const double wall_s = static_cast<double>(rt::now_ns() - tb0) * 1e-9;
    const host::CpuTimes cpu1 = host::cpu_times();
    noise_cpu.total += cpu1.total - cpu0.total;
    noise_cpu.steal += cpu1.steal - cpu0.steal;
    nivcsw += host::involuntary_switches() - nivcsw0;
    busy_names.clear();
    busy = std::max(busy, host::busy_threads(threads0, host::thread_cpu(),
                                             wall_s, &busy_names));
    account(block, "closed");
    inst_mpps.push_back(rate_mpps(block));
    inst_p90.push_back(quantile(block.latency_ns, 0.9) * 1e-3);
    inst_p50.push_back(quantile(block.latency_ns, 0.5) * 1e-3);

    const bool traced_instance = args.trace && k + 1 == instances;
    if (traced_instance) {
      // Profiler on; registry counters and generator call timers reset at
      // the start of this block.
      obs::install_hot_profiler(ch.profiler());
      ch.profiler()->reset();
      ch.registry().reset_counters();
      gen.set_time_calls(true);
      traced = gen.closed_loop(seq, block_packets, kWindow, kLatencySampleEvery,
                               kPhaseTimeoutNs);
      account(traced, "traced closed");
      budget = ch.profiler()->report();
      reg.samples = ch.registry().snapshot();
    }

    std::unique_ptr<obs::SpanCollector> spans;
    if (traced_instance) {
      spans = std::make_unique<obs::SpanCollector>(&ch.registry());
      gen.set_spans(spans.get());
    }
    PhaseResult open =
        gen.open_loop(seq, open_block, w.open_rate_pps, kPhaseTimeoutNs);
    account(open, "open");
    if (spans) {
      gen.set_spans(nullptr);
      split = split_spans(spans->snapshot());
    }
    inst_open_p50.push_back(quantile(open.latency_ns, 0.5) * 1e-3);
    open_lat.insert(open_lat.end(), open.latency_ns.begin(), open.latency_ns.end());
    open_late.insert(open_late.end(), open.late_ns.begin(), open.late_ns.end());

    recover_cycles(*inst);
  }
  const double steal = host::steal_share(host::CpuTimes{}, noise_cpu);
  const double mpps = median(inst_mpps);
  const double loaded_p90_us = median(inst_p90);
  const double p50_us = median(inst_open_p50);
  const double open_p90_us = quantile(open_lat, 0.9) * 1e-3;
  const double open_p99_us = quantile(open_lat, 0.99) * 1e-3;
  const double open_p999_us = quantile(open_lat, 0.999) * 1e-3;
  const double late_p99_us = quantile(open_late, 0.99) * 1e-3;

  finish(*inst);
#if SFC_LOCK_RANK_CHECKS
  const int lock_rank_checks = 1;
#else
  const int lock_rank_checks = 0;
#endif

  // --- Human-readable report. ------------------------------------------------
  std::printf("workload %s seed %llu seconds %g trace %d\n", w.name,
              static_cast<unsigned long long>(args.seed), s, args.trace ? 1 : 0);
  std::printf("host: build %s lock_rank_checks %d; closed loop: "
              "steal_share %.4f involuntary_switches %llu busy_threads %d "
              "(%s)\n",
              FTCBENCH_BUILD_TYPE, lock_rank_checks, steal,
              static_cast<unsigned long long>(nivcsw), busy, busy_names.c_str());
  std::printf("setup: %zu x, median %.4f s\n", setup_s.size(), median(setup_s));
  std::printf("memory: peak RSS %.1f MB when the first instance ended, "
              "%.1f MB over the run\n",
              peak_rss, host::peak_rss_mb());
  std::printf("closed: %zu instances x %llu packets, window %zu, median %.4f "
              "Mpps, p50 %.2f us, p90 %.2f us (one latency per %llu packets)\n",
              inst_mpps.size(), static_cast<unsigned long long>(block_packets),
              kWindow, mpps, median(inst_p50), loaded_p90_us,
              static_cast<unsigned long long>(kLatencySampleEvery));
  std::printf("closed per instance (Mpps):");
  for (double v : inst_mpps) std::printf(" %.4f", v);
  std::printf("\n");

  std::printf("open: %zu instances x %llu packets at %.0f pps, median p50 "
              "%.2f us; pooled p90 %.2f p99 %.2f p99.9 %.2f us over %zu "
              "samples; generator late p99 %.2f us\n",
              inst_open_p50.size(), static_cast<unsigned long long>(open_block),
              w.open_rate_pps, p50_us, open_p90_us, open_p99_us, open_p999_us,
              open_lat.size(), late_p99_us);
  std::printf("recovery position 0: %zu cycles, median %.3f ms (init %.3f "
              "fetch %.3f reroute %.3f)\n",
              recover_ms.size(), median(recover_ms), median(init_ms),
              median(fetch_ms), median(reroute_ms));
  std::printf("recovery position 1: %zu cycles, median %.3f ms (fetch %.3f)\n",
              recover1_ms.size(), median(recover1_ms), median(fetch1_ms));
  for (const auto* v : {&recover_ms, &recover1_ms}) {
    std::printf("recovery cycles position %d (ms):", v == &recover_ms ? 0 : 1);
    for (double x : *v) std::printf(" %.3f", x);
    std::printf("\n");
  }
  std::printf("delivery: injected %llu delivered %llu missing %llu dup %llu\n",
              static_cast<unsigned long long>(delivery.injected),
              static_cast<unsigned long long>(delivery.delivered),
              static_cast<unsigned long long>(delivery.missing),
              static_cast<unsigned long long>(delivery.duplicates));
  std::printf("failed_frac %.6g (%llu of %llu)\n",
              attempted ? static_cast<double>(failed) / attempted : 0.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const auto& f : failures) std::printf("FAILED: %s\n", f.c_str());

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"delivered_mpps", mpps, "Mpps"},
        {"p50_us", p50_us, "us"},
        {"loaded_p90_us", loaded_p90_us, "us"},
        {"recover_ms", median(recover_ms), "ms"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss, "MB"},
    };
  } else {
    const auto stage_ns = [&](obs::ProfStage st) {
      return budget.total.stages.empty()
                 ? 0.0
                 : budget.total.stages[static_cast<std::size_t>(st)].ns_per_packet;
    };
    const double node_wall_ns =
        budget.total.packets == 0
            ? 0.0
            : static_cast<double>(budget.total.wall_cycles) * 1e9 /
                  budget.tsc_hz / static_cast<double>(budget.total.packets);
    // Overhead compares the last instance traced and untraced; the ladder's
    // end-to-end rung is the run's untraced figure.
    const double untraced_mpps = mpps;
    const double traced_mpps = rate_mpps(traced);
    const Isolated iso =
        isolated_costs(w, inst->chain->spec().cfg.num_partitions);
    const double e2e_ns = untraced_mpps > 0 ? 1e3 / untraced_mpps : 0.0;
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    // Primary stages are per packet-hop; the store-apply drill-down is per
    // apply call (comparable to the isolated call) and, for the ladder's
    // wall rung, also spread over every packet-hop.
    const double view_chain = stage_ns(obs::ProfStage::kViewWalk);
    const double apply_call = stage_ns(obs::ProfStage::kStoreApply);
    const double apply_per_packet =
        budget.total.packets == 0
            ? 0.0
            : static_cast<double>(
                  budget.total
                      .stages[static_cast<std::size_t>(obs::ProfStage::kStoreApply)]
                      .cycles) *
                  1e9 / budget.tsc_hz / static_cast<double>(budget.total.packets);
    const CallTimers& t = inst->gen->timers();
    const double submitted = reg.sum("buffer.submitted");
    std::printf("ladder (ns/packet): view_walk isolated %.1f chain %.1f | "
                "store_apply isolated %.1f/call chain %.1f/call %.1f/packet | "
                "node wall %.1f | e2e %.1f\n",
                iso.view_walk_ns, view_chain, iso.store_apply_ns, apply_call,
                apply_per_packet, node_wall_ns, e2e_ns);
    std::printf("spans: %llu sampled packets in the open loop\n",
                static_cast<unsigned long long>(split.traces));
    std::printf("%s", obs::budget_to_text(budget).c_str());
    metrics = {
        {"core.view_walk_ns", view_chain, "ns"},
        {"core.log_apply_ns", stage_ns(obs::ProfStage::kLogApply), "ns"},
        {"core.tail_commit_ns", stage_ns(obs::ProfStage::kTailCommit), "ns"},
        {"core.append_ns", stage_ns(obs::ProfStage::kAppend), "ns"},
        {"core.logs_per_packet", reg.hist_mean("piggyback.logs_per_packet"), "count"},
        {"core.piggyback_bytes_per_packet",
         reg.hist_mean("piggyback.bytes_per_packet"), "B"},
        {"core.poll_ns", stage_ns(obs::ProfStage::kPoll), "ns"},
        {"core.egress_flush_ns", stage_ns(obs::ProfStage::kEgressFlush), "ns"},
        {"core.park_drain_ns", stage_ns(obs::ProfStage::kParkDrain), "ns"},
        {"core.handoff_drain_ns", stage_ns(obs::ProfStage::kHandoffDrain), "ns"},
        {"core.node_wall_ns", node_wall_ns, "ns"},
        {"core.reconciliation", budget.total.reconciliation, "ratio"},
        {"core.parked", reg.sum("node.packets_parked"), "count"},
        {"core.nacks", reg.sum("node.nacks_sent"), "count"},
        {"core.buffer_hold_us", split.buffer_hold_us, "us"},
        {"core.buffer_held_hw", reg.max("buffer.high_water"), "count"},
        {"core.buffer_immediate_frac",
         ratio(reg.sum("buffer.released_immediately"), submitted), "ratio"},
        {"core.hop_us", split.hop_us, "us"},
        {"net.transit_us", split.transit_us, "us"},
        {"mbox.process_ns", stage_ns(obs::ProfStage::kProcess), "ns"},
        {"state.apply_ns", apply_call, "ns"},
        {"state.owner_miss", reg.sum("state.owner_miss"), "count"},
        {"state.handoff_depth_hw", reg.max("state.handoff_depth_hw"), "count"},
        {"state.keys", static_cast<double>(head_keys), "count"},
        {"state.serialize_ms", median(ser_ms), "ms"},
        {"state.deserialize_ms", median(deser_ms), "ms"},
        {"state.bytes", median(state_bytes), "B"},
        {"orch.state_fetch_ms", median(fetch_ms), "ms"},
        {"orch.init_ms", median(init_ms), "ms"},
        {"orch.reroute_ms", median(reroute_ms), "ms"},
        {"orch.recover_pos1_ms", median(recover1_ms), "ms"},
        {"packet.alloc_ns", cycles_to_ns(t.alloc_cycles, t.alloc_calls), "ns"},
        {"packet.build_ns", cycles_to_ns(t.build_cycles, t.build_calls), "ns"},
        {"packet.free_ns", cycles_to_ns(t.free_cycles, t.free_calls), "ns"},
        {"net.send_burst_ns", cycles_to_ns(t.send_cycles, t.send_calls), "ns"},
        {"net.poll_burst_ns", cycles_to_ns(t.poll_cycles, t.poll_calls), "ns"},
        {"net.egress_burst_pkts",
         ratio(static_cast<double>(traced.delivered),
               static_cast<double>(traced.egress_polls)),
         "count"},
        {"net.link_dropped_full", reg.sum("link.dropped_full"), "count"},
        {"net.send_retries", reg.sum("link.send_retries"), "count"},
        {"gen.pool_stalls", static_cast<double>(pool_stalls), "count"},
        {"gen.ingress_rejects", static_cast<double>(ingress_rejects), "count"},
        {"gen.late_p99_us", late_p99_us, "us"},
        {"sink.open_p90_us", open_p90_us, "us"},
        {"sink.open_p99_us", open_p99_us, "us"},
        {"trace.overhead_frac", 1.0 - ratio(traced_mpps, inst_mpps.back()),
         "ratio"},
        {"ladder.view_walk_isolated_ns", iso.view_walk_ns, "ns"},
        {"ladder.store_apply_isolated_ns", iso.store_apply_ns, "ns"},
        {"ladder.e2e_ns", e2e_ns, "ns"},
        {"ladder.view_walk_gap_chain", ratio(view_chain, iso.view_walk_ns), "ratio"},
        {"ladder.store_apply_gap_chain", ratio(apply_call, iso.store_apply_ns),
         "ratio"},
        {"ladder.store_apply_chain_per_packet_ns", apply_per_packet, "ns"},
        {"ladder.view_walk_gap_wall", ratio(node_wall_ns, view_chain), "ratio"},
        {"ladder.store_apply_gap_wall", ratio(node_wall_ns, apply_per_packet),
         "ratio"},
        {"ladder.gap_e2e_wall", ratio(e2e_ns, node_wall_ns), "ratio"},
        {"host.steal_frac", steal, "ratio"},
        {"host.involuntary_switches", static_cast<double>(nivcsw), "count"},
        {"host.busy_threads", static_cast<double>(busy), "count"},
    };
  }
  print_result(failed == 0, std::max<std::uint64_t>(attempted, 1), failed,
               metrics);
  return failed == 0 ? 0 : 1;
}

// One-thread load generator for the FTC benchmark.
//
// A single thread both injects packets into the chain ingress and drains
// the chain egress, so a run has exactly one generator thread next to the
// chain workers. It uses only public packet/net APIs (PacketPool,
// PacketBuilder, Port) and tgen::Workload::flow() for 5-tuples; the
// threaded tgen::TrafficSource/TrafficSink are deliberately not used (their
// two spinning threads and pool-exhaustion saturation made the measured
// numbers depend on the host scheduler rather than on the chain).
//
// Two load shapes:
//   * closed loop: at most `window` packets in flight; a packet is sent only
//     when an earlier one has left the chain. Latency is timed from the
//     send.
//   * open loop: packet i is due at t0 + i / rate regardless of progress.
//     Latency is timed from the due time, so a generator stall is charged
//     to every packet due after it; lateness (send - due) is reported.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <numeric>
#include <vector>

#include "core/config.hpp"
#include "net/link.hpp"
#include "obs/span.hpp"
#include "packet/packet_io.hpp"
#include "packet/packet_pool.hpp"
#include "runtime/clock.hpp"
#include "runtime/rng.hpp"
#include "tgen/traffic.hpp"

namespace ftcbench {

using namespace sfc;

/// Generator bursts match the chain's data-path burst.
inline constexpr std::size_t kBurst = 32;
/// Traced runs sample one packet id in this many into spans.
inline constexpr std::uint64_t kSpanEvery = 64;

/// Monotonic nanosecond clock; tests substitute a synthetic one.
using Clock = std::function<std::uint64_t()>;

inline Clock steady_clock() {
  return [] { return rt::now_ns(); };
}

/// Exact quantile (nearest rank) of @p v; reorders @p v. 0 when empty.
inline double quantile(std::vector<std::uint64_t>& v, double q) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(v.size())) - 1;
  const auto k = static_cast<std::size_t>(
      std::clamp(rank, 0.0, static_cast<double>(v.size() - 1)));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

/// Deterministic per-packet flow choice. Without churn every packet picks
/// one of `active` flows uniformly. With churn (mean lifetime > 0) each of
/// the `active` slots impersonates one flow for a bounded-Pareto number of
/// packets, after which a never-seen flow index replaces it. The sequence
/// starts in steady state: fresh flows appear at the steady rate from the
/// first packet on.
class FlowSequence {
 public:
  struct Config {
    std::size_t active{64};
    std::uint64_t churn_mean_packets{0};  ///< 0 = flows live forever.
  };
  static constexpr double kChurnAlpha = 1.5;       ///< Pareto shape (> 1).
  static constexpr double kChurnCap = 4096;        ///< Longest lifetime.

  FlowSequence(Config cfg, std::uint64_t seed)
      : cfg_(cfg), rng_(seed, 0x666c6f77) {
    if (cfg_.churn_mean_packets != 0) {
      // Each initial flow is part-way through a length-biased lifetime
      // (the lifetime of whatever flow a slot holds at a random moment).
      // Fresh lifetimes would expire no flow before every slot had served
      // at least the shortest lifetime, about active x 11 packets.
      slots_.resize(cfg_.active);
      for (auto& s : slots_) {
        s.index = fresh_++;
        s.remaining = bounded(length_biased_lifetime());
      }
    } else {
      fresh_ = cfg_.active;
    }
  }

  /// Flow index of the next packet.
  std::size_t next() noexcept {
    const std::size_t slot = bounded(cfg_.active);
    if (slots_.empty()) return slot;
    Slot& s = slots_[slot];
    if (s.remaining == 0) {
      s.index = fresh_++;
      s.remaining = lifetime();
    }
    --s.remaining;
    return s.index;
  }

  /// The initially active flows, each once, in a seed-determined order:
  /// the prefill that builds state before measurement.
  std::vector<std::size_t> prefill_order() {
    std::vector<std::size_t> order(cfg_.active);
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[bounded(i)]);
    }
    return order;
  }

  /// Distinct flow indices handed out so far (initial set included).
  std::size_t flows_seen() const noexcept { return fresh_; }

 private:
  struct Slot {
    std::size_t index{0};
    std::uint64_t remaining{0};
  };

  std::size_t bounded(std::size_t n) noexcept {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(rng_.next()) * n) >> 32);
  }

  double unit() noexcept {
    return (static_cast<double>(rng_.next()) + 0.5) / 4294967296.0;
  }

  /// Pareto scale: mean churn_mean_packets before the cap.
  double xm() const noexcept {
    return static_cast<double>(cfg_.churn_mean_packets) * (kChurnAlpha - 1.0) /
           kChurnAlpha;
  }

  /// Pareto lifetime clamped to kChurnCap, inverse-CDF sampling.
  std::uint64_t lifetime() noexcept {
    const double draw = xm() * std::pow(1.0 - unit(), -1.0 / kChurnAlpha);
    return static_cast<std::uint64_t>(std::clamp(draw, 1.0, kChurnCap));
  }

  /// lifetime() drawn with probability proportional to its value: density
  /// ~ x^-alpha on [xm, cap) (a Pareto of shape alpha - 1, truncated at the
  /// cap) plus the cap's point mass, each weighted by its share of the mean.
  std::uint64_t length_biased_lifetime() noexcept {
    const double x0 = xm();
    const double shape = kChurnAlpha - 1.0;
    const double tail = std::pow(x0 / kChurnCap, shape);
    const double body = kChurnAlpha / shape * x0 * (1.0 - tail);
    const double capped = kChurnCap * std::pow(x0 / kChurnCap, kChurnAlpha);
    if (unit() * (body + capped) < capped) {
      return static_cast<std::uint64_t>(kChurnCap);
    }
    const double draw = x0 * std::pow(1.0 - unit() * (1.0 - tail), -1.0 / shape);
    return static_cast<std::uint64_t>(std::clamp(draw, 1.0, kChurnCap));
  }

  Config cfg_;
  rt::Pcg32 rng_;
  std::vector<Slot> slots_;
  std::size_t fresh_{0};
};

/// Exactly-once delivery check over dense packet ids (1, 2, ...).
class DeliveryChecker {
 public:
  struct Result {
    std::uint64_t injected{0};
    std::uint64_t delivered{0};
    std::uint64_t missing{0};
    std::uint64_t duplicates{0};
    std::uint64_t unknown{0};
    bool ok() const noexcept {
      return missing == 0 && duplicates == 0 && unknown == 0;
    }
  };

  void injected(std::uint64_t id) {
    if (id >= state_.size()) state_.resize(std::max<std::size_t>(id + 1, state_.size() * 2), kNone);
    state_[id] = kInFlight;
    ++r_.injected;
    ++in_flight_;
  }

  /// The packet was refused before entering the chain (counted elsewhere
  /// as a failure); it is no longer expected at the egress.
  void withdrawn(std::uint64_t id) {
    if (id < state_.size() && state_[id] == kInFlight) {
      state_[id] = kNone;
      --r_.injected;
      --in_flight_;
    }
  }

  void delivered(std::uint64_t id) {
    if (id >= state_.size() || state_[id] == kNone) {
      ++r_.unknown;
      return;
    }
    if (state_[id] == kDelivered) {
      ++r_.duplicates;
      return;
    }
    state_[id] = kDelivered;
    ++r_.delivered;
    --in_flight_;
  }

  std::uint64_t in_flight() const noexcept { return in_flight_; }

  /// Totals so far; every packet still in flight counts as missing.
  Result result() const noexcept {
    Result r = r_;
    r.missing = in_flight_;
    return r;
  }

 private:
  static constexpr std::uint8_t kNone = 0;
  static constexpr std::uint8_t kInFlight = 1;
  static constexpr std::uint8_t kDelivered = 2;
  std::vector<std::uint8_t> state_;
  Result r_{};
  std::uint64_t in_flight_{0};
};

/// Benchmark-side timers around the generator's calls into the packet and
/// net layers (traced runs only). Cycle counts from rdtsc.
struct CallTimers {
  std::uint64_t alloc_cycles{0}, alloc_calls{0};
  std::uint64_t build_cycles{0}, build_calls{0};
  std::uint64_t free_cycles{0}, free_calls{0};
  std::uint64_t send_cycles{0}, send_calls{0};
  std::uint64_t poll_cycles{0}, poll_calls{0};
};

/// What one phase measured.
struct PhaseResult {
  std::uint64_t sent{0};        ///< Accepted by the ingress port.
  std::uint64_t delivered{0};   ///< Drained from the egress port.
  std::uint64_t rejected{0};    ///< Refused by the ingress (open loop).
  std::uint64_t bad_output{0};  ///< Delivered packets failing the check.
  std::uint64_t pool_stalls{0};
  std::uint64_t ingress_rejects{0};  ///< Ingress refusals (any loop).
  std::uint64_t egress_polls{0};     ///< Non-empty egress polls.
  std::uint64_t max_in_flight{0};
  std::uint64_t t_begin_ns{0};
  std::uint64_t t_end_ns{0};  ///< When the last packet was delivered.
  bool timed_out{false};
  std::vector<std::uint64_t> latency_ns;  ///< Sampled latencies.
  std::vector<std::uint64_t> late_ns;     ///< Open loop: send - due.

  double seconds() const noexcept {
    return t_end_ns > t_begin_ns
               ? static_cast<double>(t_end_ns - t_begin_ns) * 1e-9
               : 0.0;
  }
};

/// The generator. Not thread-safe: one thread drives it.
class LoadGen {
 public:
  struct Options {
    std::size_t frame_len{64};
    /// Predicate on each delivered packet (output correctness); null
    /// accepts everything.
    std::function<bool(const pkt::Packet&)> check_output;
    /// Seed of the span sampler (traced runs, see set_spans).
    std::uint64_t span_seed{0};
  };

  /// Once everything is sent, a phase gives up waiting for the rest after
  /// this long without a delivery (the checker then reports them lost).
  static constexpr std::uint64_t kIdleTimeoutNs = 1'000'000'000;

  LoadGen(pkt::PacketPool& pool, net::Port& ingress, net::Port& egress,
          const tgen::Workload& flows, DeliveryChecker& checker,
          Options opt, Clock clock = steady_clock())
      : pool_(pool),
        ingress_(ingress),
        egress_(egress),
        flows_(flows),
        checker_(checker),
        opt_(std::move(opt)),
        clock_(std::move(clock)),
        sampler_(kSpanEvery, opt_.span_seed) {}

  ~LoadGen() {
    for (std::size_t i = 0; i < n_retry_; ++i) pool_.free_raw(retry_[i]);
  }

  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Span sink for sampled packets (generator emit + sink receive); null
  /// disables span recording.
  void set_spans(obs::SpanCollector* spans) noexcept { spans_ = spans; }
  void set_time_calls(bool on) noexcept { time_calls_ = on; }
  const CallTimers& timers() const noexcept { return timers_; }

  /// Sends exactly `flow_indices.size()` packets (one per index, in order)
  /// with at most @p window in flight, then waits for all of them.
  PhaseResult closed_loop_flows(const std::vector<std::size_t>& flow_indices,
                                std::size_t window,
                                std::uint64_t timeout_ns) {
    std::size_t k = 0;
    return closed(flow_indices.size(), window, 0, timeout_ns,
                  [&] { return flow_indices[k++]; });
  }

  /// Closed loop of @p packets packets drawn from @p seq. One latency in
  /// every @p sample_every packets is kept (0 = none).
  PhaseResult closed_loop(FlowSequence& seq, std::uint64_t packets,
                          std::size_t window, std::uint64_t sample_every,
                          std::uint64_t timeout_ns) {
    return closed(packets, window, sample_every, timeout_ns,
                  [&] { return seq.next(); });
  }

  /// Open loop: @p packets packets at @p rate_pps, each timed from its due
  /// time. Ingress refusals are failures (the packet is dropped, not
  /// retried). Returns once every accepted packet has been delivered.
  PhaseResult open_loop(FlowSequence& seq, std::uint64_t packets,
                        double rate_pps, std::uint64_t timeout_ns) {
    PhaseResult r;
    r.latency_ns.reserve(packets);
    r.late_ns.reserve(packets);
    const double period_ns = 1e9 / rate_pps;
    r.t_begin_ns = clock_();
    last_progress_ns_ = r.t_begin_ns;
    const std::uint64_t t0 = r.t_begin_ns;
    const std::uint64_t deadline = t0 + timeout_ns;
    const std::uint64_t base = checker_.in_flight();
    std::uint64_t next = 0;  // index of the next packet to send
    pkt::Packet* tx[ftc::kMaxBurst];
    for (;;) {
      const std::uint64_t now = clock_();
      drain_once(now, r, 1);
      if (next == packets && checker_.in_flight() == base) break;
      if (now > deadline || (next == packets && idle(now))) {
        r.timed_out = true;
        break;
      }
      std::size_t n = 0;
      while (next < packets && n < kBurst) {
        const auto due =
            t0 + static_cast<std::uint64_t>(static_cast<double>(next) * period_ns);
        if (due > now) break;
        pkt::Packet* p = alloc();
        if (p == nullptr) {
          ++r.pool_stalls;
          break;
        }
        build(*p, seq.next(), due);
        r.late_ns.push_back(now - due);
        tx[n++] = p;
        ++next;
      }
      if (n == 0) continue;
      const std::size_t accepted = send(tx, n);
      r.sent += accepted;
      for (std::size_t i = accepted; i < n; ++i) {
        ++r.rejected;
        ++r.ingress_rejects;
        checker_.withdrawn(tx[i]->anno().packet_id);
        free(tx[i]);
      }
      last_progress_ns_ = now;
      r.max_in_flight = std::max(r.max_in_flight, checker_.in_flight() - base);
    }
    r.t_end_ns = last_delivery_ns_;
    return r;
  }

 private:
  template <typename NextFlow>
  PhaseResult closed(std::uint64_t packets, std::size_t window,
                     std::uint64_t sample_every, std::uint64_t timeout_ns,
                     NextFlow&& next_flow) {
    PhaseResult r;
    if (sample_every != 0) r.latency_ns.reserve(packets / sample_every + 1);
    window = std::max<std::size_t>(1, window);
    r.t_begin_ns = clock_();
    last_progress_ns_ = r.t_begin_ns;
    const std::uint64_t deadline = r.t_begin_ns + timeout_ns;
    const std::uint64_t base = checker_.in_flight();
    std::uint64_t built = 0;
    pkt::Packet* tx[ftc::kMaxBurst];
    for (;;) {
      const std::uint64_t now = clock_();
      drain_once(now, r, sample_every);
      if (built == packets && n_retry_ == 0 && checker_.in_flight() == base) {
        break;
      }
      if (now > deadline || (built == packets && idle(now))) {
        r.timed_out = true;
        break;
      }
      // Retries first (ids already assigned), then new packets, never
      // exceeding the window.
      const std::uint64_t in_flight = checker_.in_flight() - base;
      if (in_flight >= window) continue;
      std::size_t room = std::min<std::uint64_t>(window - in_flight, kBurst);
      std::size_t n = 0;
      while (n < room && n < n_retry_) tx[n] = retry_[n], ++n;
      const std::size_t retried = n;
      if (retried < n_retry_) {
        std::memmove(retry_, retry_ + retried,
                     (n_retry_ - retried) * sizeof(pkt::Packet*));
      }
      n_retry_ -= retried;
      while (n < room && built < packets) {
        pkt::Packet* p = alloc();
        if (p == nullptr) {
          ++r.pool_stalls;
          break;
        }
        build(*p, next_flow(), now);
        ++built;
        tx[n++] = p;
      }
      if (n == 0) continue;
      // Send time is the latency origin; retried packets restart it.
      for (std::size_t i = 0; i < retried; ++i) tx[i]->anno().ingress_ns = now;
      const std::size_t accepted = send(tx, n);
      r.sent += accepted;
      if (accepted != 0) last_progress_ns_ = now;
      r.ingress_rejects += n - accepted;
      for (std::size_t i = accepted; i < n; ++i) {
        retry_[n_retry_++] = tx[i];
      }
      r.max_in_flight =
          std::max(r.max_in_flight, checker_.in_flight() - base);
    }
    r.t_end_ns = last_delivery_ns_;
    return r;
  }

  /// One egress poll: checks and frees what left the chain.
  void drain_once(std::uint64_t now, PhaseResult& r,
                  std::uint64_t sample_every) {
    pkt::Packet* rx[ftc::kMaxBurst];
    const std::size_t got = timed(timers_.poll_cycles, timers_.poll_calls, [&] {
      return egress_.poll_burst(rx, ftc::kMaxBurst);
    });
    if (got == 0) return;
    ++r.egress_polls;
    for (std::size_t i = 0; i < got; ++i) {
      pkt::Packet* p = rx[i];
      const auto& a = p->anno();
      if (a.is_control || a.packet_id == 0) {
        free(p);
        continue;
      }
      checker_.delivered(a.packet_id);
      ++r.delivered;
      const std::uint64_t lat = now >= a.ingress_ns ? now - a.ingress_ns : 0;
      if (sample_every != 0 && a.packet_id % sample_every == 0) {
        r.latency_ns.push_back(lat);
      }
      if (a.trace_id != 0 && spans_ != nullptr) {
        spans_->record(obs::SpanRecord{a.trace_id, now, lat,
                                       obs::kSpanSiteSink,
                                       obs::SpanKind::kSinkRecv});
      }
      if (opt_.check_output && !opt_.check_output(*p)) ++r.bad_output;
      free(p);
    }
    last_delivery_ns_ = now;
    last_progress_ns_ = now;
  }

  bool idle(std::uint64_t now) const noexcept {
    return now - last_progress_ns_ > kIdleTimeoutNs;
  }

  /// Runs @p fn, adding its rdtsc cycles and one call to the given
  /// counters when call timing is on.
  template <typename Fn>
  auto timed(std::uint64_t& cycles, std::uint64_t& calls, Fn&& fn)
      -> decltype(fn()) {
    if (!time_calls_) return fn();
    const std::uint64_t c0 = rt::rdtsc();
    auto out = fn();
    cycles += rt::rdtsc() - c0;
    ++calls;
    return out;
  }

  pkt::Packet* alloc() {
    return timed(timers_.alloc_cycles, timers_.alloc_calls,
                 [&] { return pool_.alloc_raw(); });
  }

  void free(pkt::Packet* p) {
    timed(timers_.free_cycles, timers_.free_calls, [&] {
      pool_.free_raw(p);
      return 0;
    });
  }

  /// Builds the next packet of flow @p flow_index; @p origin_ns is its
  /// latency origin (send time or due time).
  void build(pkt::Packet& p, std::size_t flow_index, std::uint64_t origin_ns) {
    const pkt::FlowKey flow = flows_.flow(flow_index);
    timed(timers_.build_cycles, timers_.build_calls, [&] {
      pkt::PacketBuilder(p).udp(flow, opt_.frame_len);
      return 0;
    });
    const std::uint64_t id = ++next_id_;
    auto& a = p.anno();
    a.packet_id = id;
    a.ingress_ns = origin_ns;
    a.flow_hash = flow.rss_hash();
    a.trace_id = (spans_ != nullptr && sampler_.sampled(id)) ? id : 0;
    if (a.trace_id != 0) {
      spans_->record(obs::SpanRecord{id, origin_ns, a.flow_hash,
                                     obs::kSpanSiteGen,
                                     obs::SpanKind::kGenEmit});
    }
    checker_.injected(id);
  }

  std::size_t send(pkt::Packet** tx, std::size_t n) {
    return timed(timers_.send_cycles, timers_.send_calls,
                 [&] { return ingress_.send_burst({tx, n}); });
  }

  pkt::PacketPool& pool_;
  net::Port& ingress_;
  net::Port& egress_;
  const tgen::Workload flows_;
  DeliveryChecker& checker_;
  Options opt_;
  Clock clock_;
  obs::SpanSampler sampler_;
  obs::SpanCollector* spans_{nullptr};
  bool time_calls_{false};
  std::uint64_t next_id_{0};
  std::uint64_t last_delivery_ns_{0};
  std::uint64_t last_progress_ns_{0};  ///< Last send or delivery.
  CallTimers timers_;
  /// Closed loop: packets the ingress refused, resent before new ones.
  pkt::Packet* retry_[ftc::kMaxBurst];
  std::size_t n_retry_{0};
};

}  // namespace ftcbench

// The two tree workloads: tree421_bulk (the paper's 4-2-1 testbed tree,
// bulk intervals) and tree10k_sparse (a 10,001-node tree with 20 items
// per leaf). Both run the event-driven ConcurrentEdgeTree on nproc - 1
// scheduler workers fed by this process's one driver thread, closed loop;
// the query poller runs on that same thread in the slack between pushes.
// The traced run of tree421_bulk adds an open-loop phase at a fixed
// offered load (see open_loop_valid for why it is not an end-to-end
// measurement).
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "layers.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "runtime/concurrent_tree.hpp"

namespace perfbench {

namespace ac = approxiot::core;
namespace ar = approxiot::runtime;
namespace ao = approxiot::obs;

namespace {

constexpr std::size_t kWindowIntervals = 10;
constexpr double kFraction = 0.4;

struct TreeSpec {
  std::vector<std::size_t> widths;
  std::size_t items_per_leaf;
  std::size_t substreams;
  /// Distinct pre-generated intervals, pushed round-robin.
  std::size_t pool_intervals;
  /// Untimed warm-up intervals pushed by every set-up.
  std::size_t warmup_intervals;
  std::size_t setup_reps;
  /// Open-loop offered load of the traced run, items/s (0: none).
  double offered_rate;
  /// Closed-loop query poller: true polls run_query while the driver
  /// waits for the window to reach the root (drains of seconds); false
  /// issues one run_query after the window's pushes (drains of ms, where
  /// a sleeping poller would mostly measure its own wake-ups).
  bool poll_during_drain;
  /// Traced runs stop their closed loop after this many intervals, so the
  /// tracer's memory and the sequential replay stay bounded.
  std::size_t trace_interval_cap;
};

// The open-loop rate is fixed (see workloads.json) and never recomputed,
// so a change that moves saturation keeps the same offered load.
const TreeSpec kTree421{{4, 2}, 25000, 16, 16, 20, 9, 6e6, false, 2000};
const TreeSpec kTree10k{{8000, 1600, 320, 64, 16}, 20, 4, 6, 2, 3, 0.0,
                        true, 20};

struct Inputs {
  /// pool[interval][leaf] = that leaf's items.
  std::vector<std::vector<std::vector<Item>>> pool;
  std::vector<double> sums;  // exact SUM per pool interval
  double items_per_interval{0.0};
};

Inputs make_inputs(const TreeSpec& spec, std::uint64_t seed) {
  Inputs in;
  InputRng rng(derive_seed(seed, 1));
  in.pool.resize(spec.pool_intervals);
  for (auto& interval : in.pool) {
    double sum = 0.0;
    interval.resize(spec.widths.front());
    for (auto& leaf : interval) {
      leaf = gaussian_interval(rng, spec.items_per_leaf, spec.substreams);
      sum += exact_sum(leaf);
    }
    in.sums.push_back(sum);
  }
  in.items_per_interval = static_cast<double>(spec.widths.front()) *
                          static_cast<double>(spec.items_per_leaf);
  return in;
}

ac::EdgeTreeConfig edge_tree_config(const TreeSpec& spec,
                                    std::uint64_t seed) {
  ac::EdgeTreeConfig config;
  config.layer_widths = spec.widths;
  config.engine = ac::EngineKind::kApproxIoT;
  config.sampling_fraction = kFraction;
  config.rng_seed = derive_seed(seed, 2);
  return config;
}

/// Root tap: every interval's items carry its due time in created_at_us,
/// so the first root bundle of an interval gives (due, fold) — read right
/// after the root merged it into Θ. Runs on the root's worker only; the
/// driver reads `folds` after a drain, which orders the writes before it.
struct FoldTap {
  std::vector<std::pair<std::int64_t, std::int64_t>> folds;
  std::int64_t last{-1};
  /// Intervals folded so far; the one field the driver reads mid-run.
  std::atomic<std::size_t> folded{0};

  void on_bundle(const ac::SampledBundle& bundle) {
    if (bundle.item_count() == 0) return;
    const std::int64_t stamp = bundle.sample.items().front().created_at_us;
    if (stamp == last) return;
    last = stamp;
    folds.emplace_back(stamp, now_us());
    folded.fetch_add(1, std::memory_order_release);
  }

  std::vector<double> latencies_ms(std::int64_t since_us) const {
    std::vector<double> out;
    for (const auto& [due, fold] : folds) {
      if (due >= since_us) out.push_back(static_cast<double>(fold - due) * 1e-3);
    }
    return out;
  }
};

/// What one closed- or open-loop phase measured.
struct Phase {
  double wall_s{0.0};
  double push_s{0.0};
  std::size_t intervals{0};
  std::int64_t start_us{0};
  std::vector<double> window_rates;  // items/s per closed window
  std::vector<double> drain_ms;
  std::vector<double> query_ms;
  std::vector<double> send_lag_ms;
};

/// One tree and its driver thread state, from construction to stop.
class Session {
 public:
  Session(const TreeSpec& spec, Inputs& inputs, const RunOptions& options,
          Report& report, ao::StatsRegistry* stats, ao::Tracer* tracer)
      : spec_(spec), in_(inputs), report_(report) {
    tap_.folds.reserve(1 << 16);
    ar::ConcurrentTreeConfig config;
    config.tree = edge_tree_config(spec, options.seed);
    config.backpressure = ar::BackpressurePolicy::kBlock;
    config.runtime_mode = ar::RuntimeMode::kEvents;
    config.event_workers = options.workers;
    config.workers_per_node = 1;
    config.root_tap = [this](const ac::SampledBundle& b) { tap_.on_bundle(b); };
    config.stats = stats;
    config.tracer = tracer;
    tree_ = std::make_unique<ar::ConcurrentEdgeTree>(std::move(config));
    for (std::size_t k = 0; k < spec.warmup_intervals; ++k) {
      push(now_us());
      if (in_window_ == kWindowIntervals) close(nullptr);
    }
    if (in_window_ > 0) close(nullptr);
  }

  /// Pushes whole windows back to back until `seconds` have passed (or
  /// `max_intervals` were pushed).
  Phase closed_loop(double seconds, std::size_t max_intervals) {
    Phase phase;
    phase.start_us = now_us();
    const double start = now_s();
    while (true) {
      const double window_start = now_s();
      for (std::size_t k = 0; k < kWindowIntervals; ++k) {
        const double t0 = now_s();
        push(now_us());
        phase.push_s += now_s() - t0;
      }
      if (spec_.poll_during_drain) {
        poll_until_folded(phase);
      } else {
        query(phase);
      }
      close(&phase);
      phase.intervals += kWindowIntervals;
      phase.window_rates.push_back(
          static_cast<double>(kWindowIntervals) * in_.items_per_interval /
          (now_s() - window_start));
      if (now_s() - start >= seconds || phase.intervals >= max_intervals) {
        break;
      }
    }
    phase.wall_s = now_s() - start;
    return phase;
  }

  /// Open loop: interval k is due at start + k * period and is stamped
  /// with that due time, whether or not the tree kept up. One run_query
  /// per interval slot, after the push.
  Phase open_loop(double seconds, double rate) {
    Phase phase;
    const double period_us = in_.items_per_interval / rate * 1e6;
    phase.start_us = now_us();
    const auto epoch = std::chrono::steady_clock::now() -
                       std::chrono::microseconds(phase.start_us);
    const double end_us =
        static_cast<double>(phase.start_us) + seconds * 1e6;
    for (double due = static_cast<double>(phase.start_us); due < end_us;
         due += period_us) {
      const auto due_us = static_cast<std::int64_t>(std::llround(due));
      std::this_thread::sleep_until(epoch + std::chrono::microseconds(due_us));
      phase.send_lag_ms.push_back(static_cast<double>(now_us() - due_us) *
                                  1e-3);
      push(due_us);
      ++phase.intervals;
      query(phase);
      if (in_window_ == kWindowIntervals) close(&phase);
    }
    if (in_window_ > 0) close(&phase);
    phase.wall_s = static_cast<double>(now_us() - phase.start_us) * 1e-6;
    return phase;
  }

  void stop() { tree_->stop(); }

  [[nodiscard]] std::vector<double> latencies_ms(std::int64_t since) const {
    return tap_.latencies_ms(since);
  }
  [[nodiscard]] std::size_t node_count() const { return tree_->node_count(); }

  // Everything pushed and every window result, for the sequential replay.
  std::vector<std::size_t> pushed;
  std::vector<std::size_t> window_ends;  // pushed.size() at each close
  std::vector<ac::ApproxResult> results;
  std::vector<double> results_items;
  std::size_t timed_from{0};  // first result after the warm-up
  // Per timed window: 95 % margin and realized error of SUM, % of SUM.
  std::vector<double> bound_pct;
  std::vector<double> error_pct;
  double max_error_margins{0.0};  // max |SUM* - SUM| / margin, every window

 private:
  void push(std::int64_t stamp) {
    auto& interval = in_.pool[next_];
    for (auto& leaf : interval) {
      for (Item& item : leaf) item.created_at_us = stamp;
    }
    tree_->push_interval(interval);
    report_.op(true);
    pushed.push_back(next_);
    window_truth_ += in_.sums[next_];
    ++in_window_;
    next_ = (next_ + 1) % in_.pool.size();
  }

  /// The dashboard poller in the slack of a closed loop: run_query every
  /// millisecond until every pushed interval reached the root (bounded,
  /// in case an interval folds without root output; close_window drains
  /// anyway).
  void poll_until_folded(Phase& phase) {
    const double give_up = now_s() + 60.0;
    while (tap_.folded.load(std::memory_order_acquire) < pushed.size() &&
           now_s() < give_up) {
      query(phase);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  void query(Phase& phase) {
    const double t0 = now_s();
    const ac::ApproxResult result = tree_->run_query();
    phase.query_ms.push_back((now_s() - t0) * 1e3);
    report_.op(result.estimated_count >= 0.0, "run_query: negative count");
  }

  /// close_window (drains first) + the Eq. 8 count and SUM checks.
  void close(Phase* phase) {
    const double t0 = now_s();
    const ac::ApproxResult result = tree_->close_window();
    const double drain_ms = (now_s() - t0) * 1e3;
    const double items = static_cast<double>(in_window_) *
                         in_.items_per_interval;
    char why[192];
    std::snprintf(why, sizeof why,
                  "window %zu: estimated count %.17g != %.17g pushed",
                  results.size(), result.estimated_count, items);
    report_.op(count_matches(result.estimated_count, items), why);
    std::snprintf(why, sizeof why,
                  "window %zu: SUM* %.17g off the exact %.17g by more than "
                  "%g margins",
                  results.size(), result.sum.point, window_truth_, kSumMargins);
    report_.op(sum_within_margin(result.sum.point, result.sum.margin,
                                 window_truth_),
               why);
    max_error_margins =
        std::max(max_error_margins,
                 std::fabs(result.sum.point - window_truth_) /
                     result.sum.margin);
    if (phase != nullptr) {
      phase->drain_ms.push_back(drain_ms);
      bound_pct.push_back(100.0 * result.sum.margin /
                          std::fabs(result.sum.point));
      error_pct.push_back(100.0 *
                          std::fabs(result.sum.point - window_truth_) /
                          std::fabs(window_truth_));
    } else {
      timed_from = results.size() + 1;
    }
    results.push_back(result);
    results_items.push_back(items);
    window_ends.push_back(pushed.size());
    in_window_ = 0;
    window_truth_ = 0.0;
  }

  const TreeSpec& spec_;
  Inputs& in_;
  Report& report_;
  FoldTap tap_;
  std::size_t next_{0};
  std::size_t in_window_{0};
  double window_truth_{0.0};
  // Last: its destructor stops the workers before the tap and state die.
  std::unique_ptr<ar::ConcurrentEdgeTree> tree_;
};

/// set-up (median of spec.setup_reps constructions + warm-ups); returns
/// the last session.
std::unique_ptr<Session> set_up(const TreeSpec& spec, Inputs& inputs,
                                const RunOptions& options, Report& report,
                                double& setup_s) {
  std::vector<double> samples;
  std::unique_ptr<Session> session;
  for (std::size_t r = 0; r < spec.setup_reps; ++r) {
    session.reset();
    const double t0 = now_s();
    session = std::make_unique<Session>(spec, inputs, options, report,
                                        nullptr, nullptr);
    samples.push_back(now_s() - t0);
  }
  setup_s = median(samples);
  return session;
}

void report_end_to_end(const std::vector<double>& latencies,
                       const std::vector<double>& queries, double ingest,
                       double setup_s, const Session& session,
                       Report& report) {
  report.set("setup_s", setup_s, "s");
  report.set("ingest_items_per_s", ingest, "1/s");
  report.set("latency_p50_ms", segmented_quantile(latencies, 0.5), "ms");
  report.set("latency_p99_ms", segmented_quantile(latencies, 0.99), "ms");
  report.set("query_p99_ms", segmented_quantile(queries, 0.99), "ms");
  report.set("sum_error_bound_pct", median(session.bound_pct), "%");
  report.set("peak_rss_mb", peak_rss_mb(), "MB");
  std::printf(
      "{\"detail\":{\"windows\":%zu,\"latency_samples\":%zu,"
      "\"query_samples\":%zu,\"sum_rel_error_pct\":%.6g,"
      "\"max_sum_error_margins\":%.4g}}\n",
      session.bound_pct.size(), latencies.size(), queries.size(),
      median(session.error_pct), session.max_error_margins);
}

/// Open-loop honesty: the generator may run late while the driver thread
/// closes a window (close_window drains), and that lateness is inside the
/// latencies, which are timed from the due time. A phase whose send lag
/// p99 exceeds kLagBoundPeriods interval periods fell so far behind its
/// schedule that it did not offer the load it claims: invalid.
///
/// The open loop is a traced-run (per-layer) measurement: at a load where
/// the scheduler workers park between intervals, its latencies are
/// dominated by how fast a virtualised host wakes an idle CPU, and vary
/// run to run far beyond any end-to-end bound.
constexpr double kLagBoundPeriods = 5.0;

bool open_loop_valid(const Phase& phase, double rate, double items,
                     Report& report) {
  const double lag_p99 = quantile(phase.send_lag_ms, 0.99);
  const double bound_ms = kLagBoundPeriods * items / rate * 1e3;
  const bool valid = lag_p99 <= bound_ms;
  std::printf(
      "{\"detail\":{\"offered_items_per_s\":%.6g,\"send_lag_p50_ms\":%.4g,"
      "\"send_lag_p99_ms\":%.4g,\"send_lag_bound_ms\":%.4g,\"valid\":%s,"
      "\"query_p50_ms\":%.4g,\"close_window_p50_ms\":%.4g}}\n",
      rate, quantile(phase.send_lag_ms, 0.5), lag_p99, bound_ms,
      valid ? "true" : "false", quantile(phase.query_ms, 0.5),
      quantile(phase.drain_ms, 0.5));
  if (!valid) {
    report.fail("open loop invalid: send lag p99 " + std::to_string(lag_p99) +
                " ms > " + std::to_string(bound_ms) + " ms");
  }
  return valid;
}

/// Sequential replay: the same intervals, window boundaries and seeds
/// through core::EdgeTree — the oracle every traced window must equal bit
/// for bit. Also the single-threaded baseline and the full-window Θ for
/// core.query_us.
double replay_sequential(const TreeSpec& spec, const Inputs& in,
                         const RunOptions& options, const Session& session,
                         Report& report) {
  ac::EdgeTree tree(edge_tree_config(spec, options.seed));
  double tick_s = 0.0;
  std::size_t next = 0;
  bool queried = false;
  for (std::size_t w = 0; w < session.window_ends.size(); ++w) {
    for (; next < session.window_ends[w]; ++next) {
      const double t0 = now_s();
      tree.tick(in.pool[session.pushed[next]]);
      tick_s += now_s() - t0;
    }
    if (!queried && w >= session.timed_from &&
        session.results_items[w] ==
            static_cast<double>(kWindowIntervals) * in.items_per_interval) {
      measure_query(tree.theta(), report);
      queried = true;
    }
    const ac::ApproxResult r = tree.close_window();
    const ac::ApproxResult& c = session.results[w];
    const bool same = r.sum.point == c.sum.point &&
                      r.sum.margin == c.sum.margin &&
                      r.mean.point == c.mean.point &&
                      r.mean.margin == c.mean.margin &&
                      r.estimated_count == c.estimated_count &&
                      r.sampled_items == c.sampled_items;
    report.op(same, "window " + std::to_string(w) +
                        ": concurrent result differs from EdgeTree");
  }
  if (!queried) report.set("core.query_us", 0.0, "us");
  const double rate = static_cast<double>(session.pushed.size()) *
                      in.items_per_interval / tick_s;
  report.set("core.edge_tree_items_per_s", rate, "1/s");
  return rate;
}

double sum_hist(const ao::StatsSnapshot& delta, const std::string& prefix,
                const std::string& suffix, bool counters) {
  double total = 0.0;
  const auto matches = [&](const std::string& name) {
    return name.rfind(prefix, 0) == 0 && name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
  };
  if (counters) {
    for (const auto& [name, value] : delta.counters) {
      if (matches(name)) total += static_cast<double>(value);
    }
  } else {
    for (const auto& [name, h] : delta.histograms) {
      if (matches(name)) total += h.sum;
    }
  }
  return total;
}

void run_tree(const TreeSpec& spec, const RunOptions& options,
              Report& report) {
  Inputs inputs = make_inputs(spec, options.seed);
  const bool two_phase = spec.offered_rate > 0.0;
  std::string shape;
  for (std::size_t width : spec.widths) shape += std::to_string(width) + ",";
  std::printf(
      "{\"params\":{\"shape\":[%s1],\"items_per_leaf_per_interval\":%zu,"
      "\"substreams\":%zu,\"window_intervals\":%zu,\"pool_intervals\":%zu,"
      "\"phase_b_offered_items_per_s\":%.17g,\"fraction\":%.17g}}\n",
      shape.c_str(), spec.items_per_leaf, spec.substreams, kWindowIntervals,
      spec.pool_intervals, spec.offered_rate, kFraction);

  if (!options.trace) {
    double setup_s = 0.0;
    auto session = set_up(spec, inputs, options, report, setup_s);
    const Phase a = session->closed_loop(options.seconds, SIZE_MAX);
    session->stop();
    report_end_to_end(session->latencies_ms(a.start_us), a.query_ms,
                      median(a.window_rates), setup_s, *session, report);
    return;
  }

  // Traced run: an untraced closed loop (after the same set-up as an
  // untraced run) for the overhead baseline, then a tree bound to a stats
  // registry and a tracer.
  double untraced_ingest = 0.0;
  {
    double setup_s = 0.0;
    auto plain = set_up(spec, inputs, options, report, setup_s);
    untraced_ingest =
        median(plain->closed_loop(options.seconds * 0.3, SIZE_MAX)
                   .window_rates);
  }
  ao::StatsRegistry stats;
  ao::Tracer tracer;
  Session session(spec, inputs, options, report, &stats, &tracer);
  const ao::StatsSnapshot before = stats.snapshot();
  const std::int64_t t0 = tracer.now_us();
  const Phase a = session.closed_loop(
      options.seconds * (two_phase ? 0.35 : 0.7), spec.trace_interval_cap);
  const std::int64_t t1 = tracer.now_us();
  const ao::StatsSnapshot delta = stats.snapshot().delta_since(before);
  Phase b;
  if (two_phase) b = session.open_loop(options.seconds * 0.35, spec.offered_rate);
  session.stop();

  const double traced_ingest = median(a.window_rates);
  const double node_intervals =
      static_cast<double>(session.node_count()) *
      static_cast<double>(a.intervals);
  if (two_phase &&
      open_loop_valid(b, spec.offered_rate, inputs.items_per_interval,
                      report)) {
    const std::vector<double> latencies = session.latencies_ms(b.start_us);
    std::printf(
        "{\"detail\":{\"open_loop_latency_p50_ms\":%.6g,"
        "\"open_loop_latency_p99_ms\":%.6g,"
        "\"open_loop_query_p99_ms\":%.6g}}\n",
        segmented_quantile(latencies, 0.5),
        segmented_quantile(latencies, 0.99),
        segmented_quantile(b.query_ms, 0.99));
  }
  report.set("runtime.push_blocked_frac", a.push_s / a.wall_s, "ratio");
  report.set("runtime.drain_ms_p50", median(a.drain_ms), "ms");
  report.set("runtime.us_per_node_interval", a.wall_s * 1e6 / node_intervals,
             "us");
  report_ledger(tracer, t0, t1,
                std::min(options.workers, session.node_count()), report);
  report.set("runtime.runs_per_node_interval",
             sum_hist(delta, "tree/sched/w", "/runs", true) / node_intervals,
             "count");
  report.set("runtime.steals_per_node_interval",
             sum_hist(delta, "tree/sched/w", "/steals", true) /
                 node_intervals,
             "count");
  report.set("runtime.channel_block_wait_ms",
             sum_hist(delta, "tree/", "/block_wait_us", false) * 1e-3, "ms");
  report.set("obs.trace_overhead_pct",
             100.0 * (untraced_ingest / traced_ingest - 1.0), "%");
  report.set("obs.trace_events", static_cast<double>(tracer.event_count()),
             "count");

  double sampled = 0.0;
  double ingested = 0.0;
  for (std::size_t w = session.timed_from; w < session.results.size(); ++w) {
    sampled += static_cast<double>(session.results[w].sampled_items);
    ingested += session.results_items[w];
  }
  report.set("core.sampled_fraction", sampled / ingested, "ratio");
  report.set("sum_rel_error_pct", median(session.error_pct), "%");

  const double sequential =
      replay_sequential(spec, inputs, options, session, report);
  report.set("runtime.parallel_speedup", untraced_ingest / sequential, "x");

  std::vector<std::vector<Item>> leaves;
  for (const auto& interval : inputs.pool) {
    for (const auto& leaf : interval) {
      if (leaves.size() < 64) leaves.push_back(leaf);
    }
  }
  measure_core_layers(leaves, edge_tree_config(spec, options.seed), 0.5,
                      report);
}

}  // namespace

void run_tree421_bulk(const RunOptions& options, Report& report) {
  run_tree(kTree421, options, report);
}

void run_tree10k_sparse(const RunOptions& options, Report& report) {
  run_tree(kTree10k, options, report);
}

}  // namespace perfbench

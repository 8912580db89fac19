// flowqueue_fig4: the paper's Fig. 4 deployment on the in-process
// substrates, as in examples/kafka_style_pipeline.cpp. The generator
// publishes wire-encoded ticks of the Fig. 10(c) skewed mix to "sources";
// an edge TopologyDriver samples into "layer1"; a datacenter driver
// samples into "root"; a Consumer decodes "root" into one Θ per 1 s
// stream-time window and approximate_query answers it. Closed loop, one
// thread: publish a tick, pump both drivers until idle; at a window's
// last tick, advance both drivers to the window boundary (the
// punctuation that flushes the window) and answer the window.
//
// Partition logs are append-only, so the pipeline is rebuilt every
// kSegmentWindows windows (stream time restarts at 0) to keep memory
// bounded; the rebuild is inside the timed loop. Every pipeline build
// moves the thread to the next CPU (CpuRotation), so a run samples every
// vCPU of the host rather than the one it happened to start on.
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "core/error.hpp"
#include "core/pipeline.hpp"
#include "core/wire.hpp"
#include "flowqueue/broker.hpp"
#include "flowqueue/consumer.hpp"
#include "flowqueue/producer.hpp"
#include "layers.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "streams/driver.hpp"
#include "streams/sampling_processor.hpp"

namespace perfbench {

namespace ac = approxiot::core;
namespace ao = approxiot::obs;
namespace fq = approxiot::flowqueue;
namespace st = approxiot::streams;
using approxiot::SimTime;

namespace {

// The rate of the repository's own Fig. 10(c) reproduction
// (bench/bench_fig10_skew.cpp: skewed_poisson(20000.0)): 20k items/s, so
// 2,000 items per 100 ms tick. Each window's sub-stream counts are exact
// (skewed_poisson_items over the whole window, then cut into ticks):
// rounding per tick would drop the 0.01 % λ = 1e7 sub-stream, 2 items a
// window.
constexpr std::size_t kWindowItems = 20000;
constexpr std::size_t kTicksPerWindow = 10;  // 1 s stream-time windows
constexpr std::size_t kTickItems = kWindowItems / kTicksPerWindow;
constexpr std::int64_t kTickUs = 100000;
constexpr std::size_t kPoolWindows = 64;
constexpr std::size_t kSegmentWindows = 16;
constexpr std::size_t kSetupReps = 41;
constexpr double kFraction = 0.4;  // end to end over the two layers

struct Obs {
  ao::StatsRegistry* stats{nullptr};
  ao::Tracer* tracer{nullptr};
};

/// Broker, three topics, the two sampling drivers, the publisher and the
/// root reader. Declaration order is destruction order in reverse: the
/// broker outlives every client.
struct Pipeline {
  fq::Broker broker;
  std::unique_ptr<st::TopologyDriver> edge;
  std::unique_ptr<st::TopologyDriver> dc;
  std::unique_ptr<fq::Producer> producer;
  std::unique_ptr<fq::Consumer> reader;

  Pipeline(std::uint64_t seed, const Obs& obs, Report& report) {
    for (const char* topic : {"sources", "layer1", "root"}) {
      report.op(broker.create_topic(topic, 1).is_ok(), "create_topic");
    }
    edge = make_driver("sources", "layer1", "edge", derive_seed(seed, 10));
    dc = make_driver("layer1", "root", "dc", derive_seed(seed, 11));
    if (obs.stats != nullptr || obs.tracer != nullptr) {
      edge->bind_obs(obs.stats, obs.tracer);
      dc->bind_obs(obs.stats, obs.tracer);
    }
    report.op(edge->start().is_ok() && dc->start().is_ok(), "driver start");
    producer = std::make_unique<fq::Producer>(broker);
    reader = std::make_unique<fq::Consumer>(broker, "root-reader");
    report.op(reader->assign({fq::TopicPartition{"root", 0}}).is_ok(),
              "root reader assign");
    if (obs.stats != nullptr) {
      reader->bind_stats(*obs.stats, "flowqueue/root-reader");
    }
  }

  std::unique_ptr<st::TopologyDriver> make_driver(const char* in,
                                                  const char* out,
                                                  const char* name,
                                                  std::uint64_t seed) {
    ac::NodeConfig node;
    node.cost_function = "fraction";
    node.budget.sampling_fraction = std::sqrt(kFraction);
    node.interval = SimTime::from_seconds(1.0);
    node.rng_seed = seed;
    st::TopologyBuilder builder;
    builder.add_source("in", in)
        .add_processor(
            "sampler",
            [node] { return std::make_unique<st::SamplingProcessor>(node); },
            {"in"})
        .add_sink("out", out, {"sampler"});
    return std::make_unique<st::TopologyDriver>(
        broker, std::move(builder.build()).value(), name);
  }

  std::uint64_t bytes(const char* topic) {
    auto t = broker.topic(topic);
    return t ? t.value()->bytes_appended() : 0;
  }
};

struct Ticks {
  std::vector<std::vector<Item>> pool;
  std::vector<double> sums;
};

/// kPoolWindows windows of the skewed mix, cut into ticks; the runner
/// publishes them round-robin, a whole window at a time.
Ticks make_ticks(std::uint64_t seed) {
  Ticks ticks;
  InputRng rng(derive_seed(seed, 1));
  for (std::size_t w = 0; w < kPoolWindows; ++w) {
    const std::vector<Item> window = skewed_poisson_items(rng, kWindowItems);
    for (std::size_t k = 0; k < kTicksPerWindow; ++k) {
      const auto begin =
          window.begin() + static_cast<std::ptrdiff_t>(k * kTickItems);
      ticks.pool.emplace_back(begin,
                              begin + static_cast<std::ptrdiff_t>(kTickItems));
      ticks.sums.push_back(exact_sum(ticks.pool.back()));
    }
  }
  return ticks;
}

/// The closed-loop driver: owns the pipeline of the current segment.
class Runner {
 public:
  Runner(Ticks& ticks, std::uint64_t seed, Obs obs, CpuRotation& cpus,
         Report& report)
      : ticks_(ticks), seed_(seed), obs_(obs), cpus_(cpus), report_(report) {
    rebuild();
    run_window(false);  // untimed warm-up window
  }

  void run(double seconds) {
    const double start = now_s();
    do {
      const double t0 = now_s();
      if (window_ == kSegmentWindows) rebuild();
      run_window(true);
      window_rates.push_back(static_cast<double>(kWindowItems) /
                             (now_s() - t0));
    } while (now_s() - start < seconds);
    wall_s = now_s() - start;
    flush_segment_bytes();
  }

  // Measurements over timed windows.
  std::vector<double> window_rates;
  std::vector<double> latency_ms;
  std::vector<double> query_ms;
  std::vector<double> bound_pct;
  std::vector<double> error_pct;
  double max_error_margins{0.0};  // max |SUM* - SUM| / margin
  double wall_s{0.0};
  double send_s{0.0};
  double edge_pump_s{0.0};
  double dc_pump_s{0.0};
  double items{0.0};
  double sampled{0.0};
  double estimated{0.0};
  double bytes_all{0.0};
  double bytes_root{0.0};
  double max_lag{0.0};
  std::vector<std::vector<Item>> last_window;  // one leaf: the window's items
  ac::ThetaStore last_theta;

 private:
  void rebuild() {
    flush_segment_bytes();
    pipeline_.reset();
    cpus_.step();
    pipeline_ = std::make_unique<Pipeline>(seed_, obs_, report_);
    window_ = 0;
  }

  void flush_segment_bytes() {
    if (pipeline_ == nullptr) return;
    bytes_root += static_cast<double>(pipeline_->bytes("root"));
    bytes_all += static_cast<double>(pipeline_->bytes("sources") +
                                     pipeline_->bytes("layer1") +
                                     pipeline_->bytes("root"));
    pipeline_.reset();
  }

  void run_window(bool timed) {
    Pipeline& p = *pipeline_;
    const std::int64_t window_start = static_cast<std::int64_t>(window_) *
                                      kTickUs *
                                      static_cast<std::int64_t>(kTicksPerWindow);
    const SimTime boundary{window_start +
                           kTickUs * static_cast<std::int64_t>(kTicksPerWindow)};
    double truth = 0.0;
    double last_publish = 0.0;
    std::vector<Item> window_items;
    for (std::size_t k = 0; k < kTicksPerWindow; ++k) {
      const std::size_t slot = next_tick_;
      next_tick_ = (next_tick_ + 1) % ticks_.pool.size();
      const std::int64_t ts = window_start + static_cast<std::int64_t>(k) * kTickUs;
      ac::ItemBundle bundle;
      bundle.items = ticks_.pool[slot];
      for (Item& item : bundle.items) item.created_at_us = ts;
      if (!timed) {
        window_items.insert(window_items.end(), bundle.items.begin(),
                            bundle.items.end());
      }
      truth += ticks_.sums[slot];

      last_publish = now_s();
      auto sent = p.producer->send("sources", "gen",
                                   ac::encode_bundle(bundle), SimTime{ts});
      const double t1 = now_s();
      report_.op(sent.is_ok(), "publish to sources failed");
      if (timed) send_s += t1 - last_publish;
      pump(*p.edge, nullptr, timed ? &edge_pump_s : nullptr);
      pump(*p.dc, nullptr, timed ? &dc_pump_s : nullptr);
    }
    // The window's punctuation: flush the edge at the boundary. Its flush
    // forwards one record per tick, all stamped with the boundary, and the
    // first of them already fires the datacenter's punctuation; advancing
    // the datacenter one more interval flushes the rest. Every record is
    // sampled on its own (weights per record), so the root groups items
    // into windows by their created_at stamps, exactly.
    const SimTime dc_flush{boundary.us + kTickUs * static_cast<std::int64_t>(
                                             kTicksPerWindow)};
    pump(*p.edge, &boundary, timed ? &edge_pump_s : nullptr);
    pump(*p.dc, &dc_flush, timed ? &dc_pump_s : nullptr);

    // Read the root topic into this window's Θ and answer it.
    p.reader->update_stats();
    max_lag = std::max(max_lag, static_cast<double>(p.reader->total_lag()));
    ac::ThetaStore theta;
    bool misrouted = false;
    while (true) {
      auto batch = p.reader->poll(1024);
      if (!batch) {
        report_.fail("root poll: " + batch.status().to_string());
        break;
      }
      if (batch.value().empty()) break;
      for (const fq::Record& record : batch.value()) {
        auto decoded = ac::decode_bundle(record.value);
        report_.op(decoded.is_ok(), "root record failed to decode");
        if (!decoded) continue;
        ac::SampledBundle sampled_bundle;
        sampled_bundle.w_out = decoded.value().w_in;
        for (const Item& item : decoded.value().items) {
          misrouted = misrouted || item.created_at_us < window_start ||
                      item.created_at_us >= boundary.us;
          sampled_bundle.sample[item.source].push_back(item);
        }
        theta.add(sampled_bundle);
      }
    }
    const double t_query = now_s();
    const ac::ApproxResult result = ac::approximate_query(theta);
    const double done = now_s();
    const double produced = static_cast<double>(kWindowItems);
    report_.op(!misrouted && count_matches(result.estimated_count, produced),
               "window " + std::to_string(window_) + ": estimated count " +
                   std::to_string(result.estimated_count) + " != " +
                   std::to_string(produced) + " produced" +
                   (misrouted ? " (items from another window)" : ""));
    report_.op(sum_within_margin(result.sum.point, result.sum.margin, truth),
               "window " + std::to_string(window_) + ": SUM* " +
                   std::to_string(result.sum.point) + " off the exact " +
                   std::to_string(truth) + " by more than " +
                   std::to_string(kSumMargins) + " margins");
    max_error_margins =
        std::max(max_error_margins,
                 std::fabs(result.sum.point - truth) / result.sum.margin);
    ++window_;
    if (!timed) {
      last_window.assign(1, std::move(window_items));
      last_theta = theta;
      return;
    }
    // The first window of a segment runs on a new broker and a new CPU,
    // cold: an artefact of the rebuild, kept out of the timing tails.
    if (window_ > 1) {
      query_ms.push_back((done - t_query) * 1e3);
      latency_ms.push_back((done - last_publish) * 1e3);
    }
    bound_pct.push_back(100.0 * result.sum.margin / std::fabs(result.sum.point));
    error_pct.push_back(100.0 * std::fabs(result.sum.point - truth) /
                        std::fabs(truth));
    items += produced;
    sampled += static_cast<double>(result.sampled_items);
    estimated += result.estimated_count;
  }

  void pump(st::TopologyDriver& driver, const SimTime* advance,
            double* clock) {
    const double t0 = now_s();
    const approxiot::Status status = driver.run_until_idle();
    report_.op(status.is_ok(), "run_until_idle: " + status.to_string());
    if (advance != nullptr) driver.advance_stream_time(*advance);
    if (clock != nullptr) *clock += now_s() - t0;
  }

  Ticks& ticks_;
  std::uint64_t seed_;
  Obs obs_;
  CpuRotation& cpus_;
  Report& report_;
  std::unique_ptr<Pipeline> pipeline_;
  std::size_t window_{0};
  std::size_t next_tick_{0};
};

/// Single-threaded baseline for the same job without the queues: a
/// sequential EdgeTree with one leaf and a root (two sampling layers,
/// like edge + datacenter), one tick per 1 s window.
double edge_tree_baseline(const std::vector<Item>& window,
                          std::uint64_t seed, double budget_s,
                          Report& report) {
  ac::EdgeTreeConfig config;
  config.layer_widths = {1};
  config.sampling_fraction = kFraction;
  config.rng_seed = derive_seed(seed, 2);
  ac::EdgeTree tree(config);
  const std::vector<std::vector<Item>> interval{window};
  double spent = 0.0;
  std::size_t ticks = 0;
  while (ticks < 3 || spent < budget_s) {
    const double t0 = now_s();
    tree.tick(interval);
    spent += now_s() - t0;
    ++ticks;
    (void)tree.close_window();
  }
  const double rate = static_cast<double>(ticks * window.size()) / spent;
  report.set("core.edge_tree_items_per_s", rate, "1/s");
  return rate;
}

/// set-up: kSetupReps pipeline constructions, each with its warm-up
/// window; returns the last runner and the median set-up time.
std::unique_ptr<Runner> set_up(Ticks& ticks, std::uint64_t seed,
                               CpuRotation& cpus, Report& report,
                               double& setup_s) {
  std::vector<double> samples;
  std::unique_ptr<Runner> runner;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    runner.reset();
    const double t0 = now_s();
    runner = std::make_unique<Runner>(ticks, seed, Obs{}, cpus, report);
    samples.push_back(now_s() - t0);
  }
  setup_s = median(std::move(samples));
  return runner;
}

}  // namespace

void run_flowqueue_fig4(const RunOptions& options, Report& report) {
  Ticks ticks = make_ticks(options.seed);
  std::printf(
      "{\"params\":{\"items_per_tick\":%zu,\"window_ticks\":%zu,"
      "\"pool_windows\":%zu,\"segment_windows\":%zu,\"fraction\":%.17g}}\n",
      kTickItems, kTicksPerWindow, kPoolWindows, kSegmentWindows, kFraction);

  CpuRotation cpus;
  if (!options.trace) {
    double setup_s = 0.0;
    auto runner = set_up(ticks, options.seed, cpus, report, setup_s);
    runner->run(options.seconds);
    report.op(count_matches(runner->estimated, runner->items),
              "estimated counts over all windows != items produced");
    report.set("setup_s", setup_s, "s");
    report.set("ingest_items_per_s", median(runner->window_rates), "1/s");
    report.set("latency_p50_ms", segmented_quantile(runner->latency_ms, 0.5),
               "ms");
    report.set("latency_p99_ms",
               segmented_quantile(runner->latency_ms, 0.99), "ms");
    report.set("query_p99_ms", segmented_quantile(runner->query_ms, 0.99),
               "ms");
    report.set("sum_error_bound_pct", median(runner->bound_pct), "%");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    std::printf(
        "{\"detail\":{\"windows\":%zu,\"sum_rel_error_pct\":%.6g,"
        "\"max_sum_error_margins\":%.4g}}\n",
        runner->bound_pct.size(), median(runner->error_pct),
        runner->max_error_margins);
    return;
  }

  double untraced_ingest = 0.0;
  {
    double setup_s = 0.0;
    auto plain = set_up(ticks, options.seed, cpus, report, setup_s);
    plain->run(options.seconds * 0.4);
    untraced_ingest = median(plain->window_rates);
  }
  ao::StatsRegistry stats;
  ao::Tracer tracer;
  Runner runner(ticks, options.seed, Obs{&stats, &tracer}, cpus, report);
  runner.run(options.seconds * 0.6);
  report.op(count_matches(runner.estimated, runner.items),
            "estimated counts over all windows != items produced");
  const ao::StatsSnapshot snap = stats.snapshot();
  const auto punct = snap.histograms.find("streams/edge/punctuate_us");

  report.set("flowqueue.send_frac", runner.send_s / runner.wall_s, "ratio");
  report.set("flowqueue.bytes_per_item", runner.bytes_all / runner.items,
             "bytes");
  report.set("flowqueue.root_bytes_per_item",
             runner.bytes_root / runner.items, "bytes");
  report.set("flowqueue.max_lag_records", runner.max_lag, "count");
  report.set("streams.edge_pump_frac", runner.edge_pump_s / runner.wall_s,
             "ratio");
  report.set("streams.dc_pump_frac", runner.dc_pump_s / runner.wall_s,
             "ratio");
  report.set("streams.punctuate_us_p50",
             punct != snap.histograms.end() ? punct->second.p50 : 0.0, "us");
  report.set("obs.trace_overhead_pct",
             100.0 * (untraced_ingest / median(runner.window_rates) - 1.0),
             "%");
  report.set("obs.trace_events", static_cast<double>(tracer.event_count()),
             "count");
  report.set("core.sampled_fraction", runner.sampled / runner.items, "ratio");
  report.set("sum_rel_error_pct", median(runner.error_pct), "%");

  const double sequential =
      edge_tree_baseline(runner.last_window.front(), options.seed, 0.5, report);
  report.set("runtime.parallel_speedup", untraced_ingest / sequential, "x");
  measure_query(runner.last_theta, report);
  ac::EdgeTreeConfig leaf_config;
  leaf_config.layer_widths = {1};
  leaf_config.sampling_fraction = kFraction;
  leaf_config.rng_seed = derive_seed(options.seed, 2);
  measure_core_layers(runner.last_window, leaf_config, 0.5, report);
}

}  // namespace perfbench

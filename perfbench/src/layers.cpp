#include "layers.hpp"

#include <cstdlib>
#include <map>
#include <string>

#include "core/error.hpp"
#include "core/stratified.hpp"
#include "core/whsamp.hpp"
#include "core/wire.hpp"

namespace perfbench {

namespace ac = approxiot::core;

namespace {

/// Runs `pass` (one sweep over `items` items) repeatedly for about
/// `budget_s` seconds (at least 5 sweeps); median ns per item.
template <typename Pass>
double ns_per_item(double budget_s, std::size_t items, Pass&& pass) {
  std::vector<double> samples;
  double spent = 0.0;
  while (samples.size() < 5 || (spent < budget_s && samples.size() < 20000)) {
    const double t0 = now_s();
    pass();
    const double dt = now_s() - t0;
    spent += dt;
    samples.push_back(dt * 1e9 / static_cast<double>(items));
  }
  return median(std::move(samples));
}

}  // namespace

void measure_core_layers(const std::vector<std::vector<Item>>& leaves,
                         const ac::EdgeTreeConfig& tree, double budget_s,
                         Report& report) {
  std::size_t items = 0;
  for (const auto& leaf : leaves) items += leaf.size();
  const double slice = budget_s / 5.0;
  const double fraction = ac::per_layer_fraction(
      tree.sampling_fraction, tree.layer_widths.size() + 1);
  std::uint64_t sink = 0;

  ac::StratifiedBatch batch;
  ac::StratifyScratch scratch;
  report.set("core.stratify_ns_per_item", ns_per_item(slice, items, [&] {
               for (const auto& leaf : leaves) {
                 batch.assign(leaf, scratch);
                 sink += batch.size();
               }
             }),
             "ns");

  std::vector<ac::StratifiedBatch> strata(leaves.size());
  for (std::size_t i = 0; i < leaves.size(); ++i) strata[i].assign(leaves[i]);
  ac::WHSampler sampler(approxiot::Rng(tree.rng_seed));
  const ac::WeightMap sources;  // raw source data: every weight is 1
  report.set("core.sample_ns_per_item", ns_per_item(slice, items, [&] {
               for (std::size_t i = 0; i < leaves.size(); ++i) {
                 const auto size = std::max<std::size_t>(
                     1, static_cast<std::size_t>(
                            fraction * static_cast<double>(leaves[i].size())));
                 sink += sampler.sample_strata(strata[i], size, sources)
                             .item_count();
               }
             }),
             "ns");

  std::vector<std::vector<ac::ItemBundle>> psis(leaves.size());
  std::vector<ac::ItemBundle> bundles(leaves.size());
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    bundles[i].items = leaves[i];
    psis[i].push_back(bundles[i]);
  }
  auto stage = ac::make_pipeline_stage(ac::edge_tree_stage_config(tree, 0, 0));
  report.set("core.stage_ns_per_item", ns_per_item(slice, items, [&] {
               for (const auto& psi : psis) {
                 sink += stage->process_interval(psi).size();
               }
             }),
             "ns");

  std::vector<std::vector<std::uint8_t>> payloads(leaves.size());
  report.set("core.encode_ns_per_item", ns_per_item(slice, items, [&] {
               for (std::size_t i = 0; i < bundles.size(); ++i) {
                 payloads[i] = ac::encode_bundle(bundles[i]);
                 sink += payloads[i].size();
               }
             }),
             "ns");
  bool decoded = true;
  report.set("core.decode_ns_per_item", ns_per_item(slice, items, [&] {
               for (const auto& payload : payloads) {
                 auto bundle = ac::decode_bundle(payload);
                 decoded = decoded && bundle.is_ok();
                 if (bundle) sink += bundle.value().items.size();
               }
             }),
             "ns");
  report.op(decoded, "core replay: decode_bundle rejected its own encoding");
  if (sink == 0) report.fail("core replay produced nothing");
}

void fill_missing_per_layer(Report& report) {
  // Every per-layer metric in BENCHMARK.json, with its unit.
  static const std::pair<const char*, const char*> kPerLayer[] = {
      {"runtime.push_blocked_frac", "ratio"},
      {"runtime.drain_ms_p50", "ms"},
      {"runtime.us_per_node_interval", "us"},
      {"runtime.stage_exec_frac", "ratio"},
      {"runtime.pump_self_frac", "ratio"},
      {"runtime.root_merge_frac", "ratio"},
      {"runtime.idle_frac", "ratio"},
      {"runtime.ledger_gap_pct", "%"},
      {"runtime.runs_per_node_interval", "count"},
      {"runtime.steals_per_node_interval", "count"},
      {"runtime.channel_block_wait_ms", "ms"},
      {"runtime.exec_us_p50.L0", "us"},
      {"runtime.exec_us_p50.L1", "us"},
      {"runtime.exec_us_p50.L2", "us"},
      {"runtime.exec_us_p50.L3", "us"},
      {"runtime.exec_us_p50.L4", "us"},
      {"runtime.exec_us_p50.root", "us"},
      {"runtime.parallel_speedup", "x"},
      {"core.stratify_ns_per_item", "ns"},
      {"core.sample_ns_per_item", "ns"},
      {"core.stage_ns_per_item", "ns"},
      {"core.encode_ns_per_item", "ns"},
      {"core.decode_ns_per_item", "ns"},
      {"core.query_us", "us"},
      {"core.edge_tree_items_per_s", "1/s"},
      {"core.sampled_fraction", "ratio"},
      {"sum_rel_error_pct", "%"},
      {"flowqueue.send_frac", "ratio"},
      {"flowqueue.bytes_per_item", "bytes"},
      {"flowqueue.root_bytes_per_item", "bytes"},
      {"flowqueue.max_lag_records", "count"},
      {"streams.edge_pump_frac", "ratio"},
      {"streams.dc_pump_frac", "ratio"},
      {"streams.punctuate_us_p50", "us"},
      {"obs.trace_overhead_pct", "%"},
      {"obs.trace_events", "count"},
  };
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : kPerLayer) {
    const auto it =
        std::find_if(report.metrics.begin(), report.metrics.end(),
                     [&](const Metric& m) { return m.name == name; });
    ordered.push_back(it != report.metrics.end() ? *it
                                                 : Metric{name, 0.0, unit});
  }
  report.metrics = std::move(ordered);
}

void measure_query(const ac::ThetaStore& theta, Report& report) {
  std::vector<double> samples;
  for (int i = 0; i < 7; ++i) {
    const double t0 = now_s();
    const ac::ApproxResult result = ac::approximate_query(theta);
    samples.push_back((now_s() - t0) * 1e6);
    if (result.sampled_items == 0) report.fail("core replay: empty theta");
  }
  report.set("core.query_us", median(std::move(samples)), "us");
}

namespace {

struct Span {
  std::int64_t begin;
  std::int64_t end;
};

/// Extracts the string value of `"key":"..."` from one to_jsonl() line.
std::string string_field(const std::string& line, const char* key) {
  const std::string tag = std::string("\"") + key + "\":\"";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + tag.size();
  return line.substr(begin, line.find('"', begin) - begin);
}

/// Integer value of `"key":N`; -1 when absent.
std::int64_t int_field(const std::string& line, const char* key) {
  const std::string tag = std::string("\"") + key + "\":";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return -1;
  return std::strtoll(line.c_str() + at + tag.size(), nullptr, 10);
}

/// "tree/L2/n7" -> "L2", "tree/root" -> "root".
std::string layer_of(const std::string& track) {
  if (track == "tree/root") return "root";
  const std::size_t slash = track.find('/', 5);
  return track.substr(5, slash - 5);
}

}  // namespace

void report_ledger(const approxiot::obs::Tracer& tracer, std::int64_t t0_us,
                   std::int64_t t1_us, std::size_t workers, Report& report) {
  const auto clip = [&](const Span& s) {
    return static_cast<double>(
        std::max<std::int64_t>(0, std::min(s.end, t1_us) -
                                      std::max(s.begin, t0_us)));
  };

  // Job spans live on the worker tracks (named after the node task they
  // ran); stage-execute / root-merge spans live on the node tracks.
  std::map<std::string, std::vector<Span>> jobs;  // by node
  std::map<std::string, std::vector<Span>> on_worker;  // jobs by worker track
  std::map<std::string, std::vector<Span>> work;  // by node, both kinds
  std::map<std::string, std::vector<double>> exec_us;  // by layer
  double busy = 0.0;
  double stage = 0.0;
  double merge = 0.0;

  const std::string jsonl = tracer.to_jsonl();
  std::size_t pos = 0;
  while (pos < jsonl.size()) {
    std::size_t eol = jsonl.find('\n', pos);
    if (eol == std::string::npos) eol = jsonl.size();
    const std::string line = jsonl.substr(pos, eol - pos);
    pos = eol + 1;
    const std::int64_t dur = int_field(line, "dur_us");
    if (dur < 0) continue;  // instant event
    const Span span{int_field(line, "ts_us"), int_field(line, "ts_us") + dur};
    const std::string track = string_field(line, "track");
    const std::string name = string_field(line, "name");
    if (track.rfind("tree/sched/", 0) == 0) {
      jobs[name].push_back(span);
      on_worker[track].push_back(span);
      busy += clip(span);
    } else if (name == "stage-execute" || name == "root-merge") {
      work[track].push_back(span);
      (name == "stage-execute" ? stage : merge) += clip(span);
      if (name == "stage-execute" && span.begin >= t0_us &&
          span.begin < t1_us) {
        exec_us[layer_of(track)].push_back(static_cast<double>(dur));
      }
    }
  }

  // Self time of the pump: each job minus the stage spans nested in it.
  double nested = 0.0;
  for (auto& [node, spans] : work) {
    auto& node_jobs = jobs[node];
    std::sort(node_jobs.begin(), node_jobs.end(),
              [](const Span& a, const Span& b) { return a.begin < b.begin; });
    for (const Span& s : spans) {
      auto it = std::upper_bound(
          node_jobs.begin(), node_jobs.end(), s.begin,
          [](std::int64_t t, const Span& job) { return t < job.begin; });
      if (it != node_jobs.begin() && std::prev(it)->end >= s.end) {
        nested += clip(s);
      }
    }
  }

  // Idle is measured on its own, from the gaps between job spans on each
  // worker track (a worker with no job in the window idled throughout), so
  // the four slices are independent: jobs that overlap or are recorded
  // twice push the sum past capacity instead of cancelling out.
  const double window = static_cast<double>(t1_us - t0_us);
  const std::size_t silent = workers - std::min(workers, on_worker.size());
  double idle = window * static_cast<double>(silent);
  for (auto& [track, spans] : on_worker) {
    std::sort(spans.begin(), spans.end(),
              [](const Span& a, const Span& b) { return a.begin < b.begin; });
    std::int64_t cursor = t0_us;
    for (const Span& s : spans) {
      if (s.begin > cursor) idle += clip(Span{cursor, s.begin});
      cursor = std::max(cursor, s.end);
    }
    if (cursor < t1_us) idle += static_cast<double>(t1_us - cursor);
  }

  const double capacity = static_cast<double>(workers) * window;
  const double pump_self = busy - nested;
  const double gap_pct =
      100.0 * std::fabs(stage + merge + pump_self + idle - capacity) /
      capacity;
  report.set("runtime.stage_exec_frac", stage / capacity, "ratio");
  report.set("runtime.pump_self_frac", pump_self / capacity, "ratio");
  report.set("runtime.root_merge_frac", merge / capacity, "ratio");
  report.set("runtime.idle_frac", idle / capacity, "ratio");
  report.set("runtime.ledger_gap_pct", gap_pct, "%");
  report.op(on_worker.size() <= workers && busy <= capacity &&
                gap_pct <= kLedgerGapPct,
            "worker-time ledger does not add up: " +
                std::to_string(on_worker.size()) + " worker tracks for " +
                std::to_string(workers) + " workers, busy " +
                std::to_string(busy) + " us of " + std::to_string(capacity) +
                " us, gap " + std::to_string(gap_pct) + " %");
  for (auto& [layer, samples] : exec_us) {
    report.set("runtime.exec_us_p50." + layer, median(std::move(samples)),
               "us");
  }
}

}  // namespace perfbench

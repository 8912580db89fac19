// Per-layer measurements shared by the workloads' traced runs:
//   - core replays: the benchmark times its own calls into core's public
//     functions (stratify, sample, leaf stage, wire encode/decode, query)
//     over the workload's own leaf intervals;
//   - the worker-time ledger: job / stage-execute / root-merge spans from
//     the tracer the tree was bound to, split into four slices of
//     wall time x scheduler workers.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "core/pipeline.hpp"
#include "core/theta_store.hpp"
#include "obs/trace.hpp"

namespace perfbench {

/// Times StratifiedBatch::assign, WHSampler::sample_strata, a leaf
/// PipelineStage::process_interval, encode_bundle and decode_bundle over
/// `leaves` (each a leaf interval of the workload) for about
/// `budget_s` seconds in total, reporting core.*_ns_per_item.
void measure_core_layers(const std::vector<std::vector<Item>>& leaves,
                         const approxiot::core::EdgeTreeConfig& tree,
                         double budget_s, Report& report);

/// core.query_us: median wall time of approximate_query over `theta`.
void measure_query(const approxiot::core::ThetaStore& theta, Report& report);

/// Largest ledger gap, % of wall x workers, at which the ledger reconciles.
constexpr double kLedgerGapPct = 10.0;

/// Worker-time ledger over [t0_us, t1_us] (tracer time) for a tree run on
/// `workers` scheduler workers. Reports runtime.{stage_exec,pump_self,
/// root_merge,idle}_frac, runtime.ledger_gap_pct and the per-layer
/// runtime.exec_us_p50.* from the stage-execute spans. A ledger that does
/// not reconcile (more worker tracks than workers, job time above wall x
/// workers, or a gap above kLedgerGapPct) fails the run.
void report_ledger(const approxiot::obs::Tracer& tracer, std::int64_t t0_us,
                   std::int64_t t1_us, std::size_t workers, Report& report);

}  // namespace perfbench

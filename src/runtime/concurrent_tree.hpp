// ConcurrentEdgeTree: the paper's no-coordination claim, executed.
//
// core::EdgeTree ticks its layers in lockstep from one thread. This
// runtime gives every tree node its own worker: a node consumes one
// IntervalMessage per interval from each child's BoundedChannel, runs the
// exact same core::PipelineStage (WHS / SRS / native / snapshot), and
// pushes its (W^out, sample) output upstream. Layers therefore *pipeline*
// — the leaves may be sampling interval k+3 while the root is still on
// interval k — and the only inter-thread contact is the channels, mirroring
// how ApproxIoT's layers coordinate solely through Kafka topics.
//
// Determinism: stages are built with core::edge_tree_stage_config, so with
// kBlock backpressure (lossless) and workers_per_node == 1, the ConcurrentEdgeTree
// produces bit-identical samples, weights and Θ to a sequential EdgeTree
// fed the same input — the equivalence the runtime test suite pins down.
// With workers_per_node > 1, every node shards its reservoirs over one
// shared core::PooledSamplingExecutor (§III-E): the shard workers are
// created once, with the tree, and per-interval sampling only dispatches
// closures to them — no thread is spawned on the hot path. Samples then
// differ from the sequential tree but the Eq. 8 weight invariant still
// holds.
//
// Backpressure: kBlock propagates pressure source-wards and loses
// nothing. kDropNewest sheds whole interval messages at full channels and
// counts them — a coarse extra sampling stage for overload; see
// bounded_channel.hpp for why ApproxIoT can absorb that.
//
// Two execution substrates run the SAME logical node graph:
//   kThreads — one long-running OS thread per node (the original
//              runtime; node count capped by OS thread limits);
//   kEvents  — every node is a parkable task on a fixed-size
//              work-stealing JobScheduler, woken by channel readiness
//              (see job_scheduler.hpp). Node count becomes a data-
//              structure dimension: one process runs 10k+ logical nodes
//              on an 8-worker pool.
// Both modes produce bit-identical output for equal tree configs: a task
// never runs on two workers at once, Ψ is assembled in child order either
// way, and every RNG lives in the node's stage (not in any worker), so
// the only thing the scheduler can change is wall-clock interleaving.
// kThreads is kept as the oracle the equivalence tests pin kEvents to.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/adaptive.hpp"
#include "core/batch.hpp"
#include "core/checkpoint.hpp"
#include "core/control_plane.hpp"
#include "core/pipeline.hpp"
#include "core/theta_store.hpp"
#include "obs/trace.hpp"
#include "runtime/bounded_channel.hpp"
#include "runtime/job_scheduler.hpp"
#include "runtime/metrics.hpp"
#include "runtime/thread_pool.hpp"

namespace approxiot::runtime {

/// Which execution substrate runs the node graph (see file comment).
enum class RuntimeMode {
  kThreads,  ///< one OS thread per node — the oracle
  kEvents,   ///< nodes are tasks on a work-stealing JobScheduler
};

[[nodiscard]] constexpr const char* runtime_mode_name(
    RuntimeMode mode) noexcept {
  switch (mode) {
    case RuntimeMode::kThreads:
      return "threads";
    case RuntimeMode::kEvents:
      return "events";
  }
  return "?";
}

/// One interval's worth of Ψ contribution travelling over one tree edge.
/// `bundles` may be empty (an interval in which the child produced
/// nothing); the message still flows so receivers can align intervals.
struct IntervalMessage {
  std::int64_t interval{0};
  std::vector<core::ItemBundle> bundles;
};

struct ConcurrentTreeConfig {
  /// Topology, engine, fractions, seeds — shared with core::EdgeTree.
  core::EdgeTreeConfig tree{};
  /// Interval messages in flight per edge before backpressure kicks in.
  std::size_t channel_capacity{8};
  BackpressurePolicy backpressure{BackpressurePolicy::kBlock};
  /// Execution substrate. kThreads spends one OS thread per node (caps
  /// trees at a few hundred nodes); kEvents multiplexes every node over
  /// `event_workers` scheduler workers and is bit-identical to kThreads
  /// for equal tree configs.
  RuntimeMode runtime_mode{RuntimeMode::kThreads};
  /// Worker pool size for kEvents (0 = hardware concurrency), clamped to
  /// the node count. The pool size never changes the sampling output —
  /// only how many nodes make progress at once.
  std::size_t event_workers{0};
  /// Reservoir-sharding workers inside each WHS node (§III-E). With > 1
  /// the tree builds one shared PooledSamplingExecutor for all nodes
  /// (unless `sampling_executor` is supplied).
  std::size_t workers_per_node{1};
  /// Optional externally owned execution substrate for within-node
  /// sharded sampling; overrides workers_per_node-driven construction so
  /// several trees (or a tree plus stream processors) can share one
  /// persistent worker pool.
  std::shared_ptr<core::SamplingExecutor> sampling_executor{};
  /// Optional: called from the root's thread for every sampled bundle the
  /// root adds to Θ (e.g. to republish results into a flowqueue topic).
  std::function<void(const core::SampledBundle&)> root_tap{};

  /// §IV-B live feedback: the root observes its window's confidence
  /// interval, an AdaptiveController proposes the next end-to-end
  /// fraction, and the tree publishes policy epoch N+1 on the control
  /// plane — all without stopping the node workers, which pick the new
  /// epoch up at their next interval boundary.
  struct AdaptiveFeedback {
    bool enabled{false};
    core::AdaptiveConfig controller{};
    /// Root intervals between mid-window observations of Θ. 0 == observe
    /// only at close_window() (window-synchronous: with a drain() before
    /// each close the whole loop is deterministic); > 0 additionally
    /// observes the running window every N completed root intervals,
    /// adapting mid-stream.
    std::size_t intervals_per_observation{0};
    /// Confidence level for mid-window observations. Keep it equal to
    /// the confidence passed to close_window(): the controller's target
    /// relative error is defined against ONE interval width, and mixing
    /// sigma levels would give the loop two different fixed points.
    double confidence{stats::kConfidence95};
  };
  AdaptiveFeedback adaptive{};

  /// Observability (optional, unowned; must outlive the tree). When
  /// `stats` is null the tree falls back to the `metrics` registry passed
  /// to the constructor (its obs backend), so existing call sites get the
  /// hierarchical stats for free. Per node "tree/L{layer}/n{i}" (root:
  /// "tree/root"): exec/wait-latency histograms, an input-occupancy
  /// histogram, item/interval counters, and per-edge channel depth/block/
  /// drop stats. A `tracer` additionally gives every node its own track
  /// with channel-wait / stage-execute / root-merge spans (plus
  /// window-close and policy-publish events on "tree/control"), each
  /// annotated with the resolved policy_epoch. Instrumentation reads
  /// clocks and counters only — sampling output is bit-identical with or
  /// without it.
  obs::StatsRegistry* stats{nullptr};
  obs::Tracer* tracer{nullptr};

  /// Built-in chaos driver: every `kill_every_n_intervals` completed root
  /// intervals the tree kills one random non-root node (optionally
  /// capturing its state first), leaves it dead for `dead_intervals` root
  /// intervals, then revives it (optionally restoring the capture). Runs
  /// entirely on the root worker inside complete_root_interval, so it is
  /// deterministic for a fixed seed and interval schedule. Intervals that
  /// reach a dead node are swallowed into lost_weight/lost_items — the
  /// surviving sub-streams stay exact per Eq. 8 and the window result is
  /// flagged degraded.
  struct ChaosConfig {
    bool enabled{false};
    /// Root intervals between kills (>= 1 when enabled).
    std::size_t kill_every_n_intervals{8};
    /// Root intervals a victim stays dead before its scheduled revival.
    std::size_t dead_intervals{2};
    /// Capture the victim's stage state at kill and restore it at
    /// revival. Off = the revived node restarts from its constructed
    /// state (cold restart; weights re-derive from remembered carry).
    bool checkpoint_restore{true};
    std::uint64_t seed{42};
  };
  ChaosConfig chaos{};
};

class ConcurrentEdgeTree {
 public:
  /// Builds the tree and starts one worker per node immediately.
  /// `metrics` (optional, unowned) receives runtime counters/latencies.
  explicit ConcurrentEdgeTree(ConcurrentTreeConfig config,
                              MetricsRegistry* metrics = nullptr);

  ConcurrentEdgeTree(const ConcurrentEdgeTree&) = delete;
  ConcurrentEdgeTree& operator=(const ConcurrentEdgeTree&) = delete;

  ~ConcurrentEdgeTree();

  [[nodiscard]] std::size_t leaf_count() const noexcept;
  [[nodiscard]] std::size_t node_count() const noexcept;

  /// Feeds one interval of source data (one item vector per leaf).
  /// Under kBlock this blocks when the leaves are saturated; under
  /// kDropNewest it may shed the interval at full leaf channels.
  void push_interval(const std::vector<std::vector<Item>>& items_per_leaf);

  /// Blocks until every pushed interval has been folded into the root's
  /// Θ. Only meaningful under kBlock (lossless): with drops in play some
  /// intervals never reach the root and stop() is the only full barrier.
  void drain();

  /// Closes the source channels and joins every node worker. All pushed
  /// data still in flight is flushed through the tree first. Idempotent.
  void stop();

  /// drain()s (kBlock only — under kDropNewest a shed interval would make
  /// a full drain wait forever, so the window closes over whatever has
  /// reached the root), runs the window query over Θ, clears Θ.
  core::ApproxResult close_window(double confidence = stats::kConfidence95);

  /// Query without clearing. Safe while workers run (Θ is locked), but
  /// the result is a snapshot of whatever has reached the root so far.
  [[nodiscard]] core::ApproxResult run_query(
      double confidence = stats::kConfidence95) const;

  /// Root Θ. Call only when quiescent (after drain() or stop()).
  [[nodiscard]] const core::ThetaStore& theta() const noexcept {
    return theta_;
  }

  struct TreeMetrics {
    std::uint64_t items_ingested{0};
    std::uint64_t items_at_root{0};
    std::uint64_t intervals_pushed{0};
    std::uint64_t intervals_completed{0};  // by the root
    std::uint64_t messages_dropped{0};     // kDropNewest sheds, all edges
    std::vector<std::uint64_t> items_forwarded_per_layer;
  };
  /// Interval/ingest counters are always consistent (taken under lock);
  /// items_forwarded_per_layer reads the node stages' plain counters, so
  /// like theta() it is exact only when quiescent (after drain()/stop()).
  /// Polling it mid-flight races with the node workers.
  [[nodiscard]] TreeMetrics metrics() const;

  [[nodiscard]] core::EngineKind engine() const noexcept {
    return config_.tree.engine;
  }

  // --- live control plane (§IV-B) ---------------------------------------

  /// The policy store every stage resolves at its interval boundaries.
  /// Non-null when the config carried one or adaptive feedback is on.
  [[nodiscard]] const std::shared_ptr<core::ControlPlane>& control_plane()
      const noexcept {
    return config_.tree.control_plane;
  }
  /// Current policy epoch (0 without a control plane).
  [[nodiscard]] core::PolicyEpoch policy_epoch() const noexcept {
    return config_.tree.control_plane != nullptr
               ? config_.tree.control_plane->epoch()
               : 0;
  }
  /// Publishes a new end-to-end fraction as epoch N+1 (manual feedback —
  /// the adaptive loop does this on its own when enabled). Requires a
  /// control plane. Safe while workers run.
  core::PolicyEpoch publish_fraction(double end_to_end);
  /// The adaptive controller's current end-to-end fraction (the config's
  /// initial fraction until the first observation; requires adaptive
  /// feedback enabled, otherwise returns the frozen config fraction).
  [[nodiscard]] double adaptive_fraction() const;
  /// Fraction trajectory of the adaptive controller (empty when feedback
  /// is disabled). Snapshot by value: the controller lives on the root's
  /// feedback path, so the history may grow concurrently.
  [[nodiscard]] std::vector<double> adaptive_history() const;

  /// kEvents chaos/recovery hook: wakes every node task spuriously (see
  /// JobScheduler::notify_all). Correctness must not depend on wake
  /// precision, so a storm of kicks may change nothing but wasted cycles
  /// — the property the chaos tests hammer on. No-op under kThreads.
  /// Safe while workers run.
  void kick();

  // --- fault injection & recovery ----------------------------------------

  /// Marks node (layer, index) dead. Its worker keeps draining channels
  /// (so the tree never deadlocks under kBlock) but swallows every
  /// interval into lost_weight/lost_items instead of sampling, and
  /// forwards empty interval messages so parents stay aligned. With
  /// `capture` the worker snapshots the stage's state (reservoir, RNG,
  /// weight carry, epoch) at its next interval — the capture revive_node
  /// can restore. Safe while workers run; the root cannot be killed
  /// (kill the whole tree instead). Addressing: layer == layer_widths
  /// indexes the root, same convention as core::EdgeTree.
  void kill_node(std::size_t layer, std::size_t index, bool capture = true);

  /// Brings a killed node back. With `restore` (and a capture available)
  /// the worker restores the captured stage state before its next
  /// interval — continuing the reservoir streak bit-identically; without
  /// it the node restarts cold from its constructed state.
  void revive_node(std::size_t layer, std::size_t index,
                   bool restore = true);

  [[nodiscard]] bool node_dead(std::size_t layer, std::size_t index) const;

  struct FaultMetrics {
    std::uint64_t kills{0};
    std::uint64_t revives{0};
    std::uint64_t lost_items{0};
    double lost_weight{0.0};
  };
  [[nodiscard]] FaultMetrics fault_metrics() const;

  // --- checkpoint / restore ----------------------------------------------

  /// Serializes the full tree state (stages, Θ, control plane, fault
  /// accounting) in the SAME byte layout as core::EdgeTree::checkpoint,
  /// so snapshots are interchangeable between the sequential and
  /// concurrent executions. Call only when quiescent (after drain() with
  /// no concurrent push, or before the first push): a mid-flight snapshot
  /// would tear across layers that are pipelining different intervals.
  [[nodiscard]] core::Checkpoint checkpoint() const;

  /// Restores a kTree checkpoint (from this class or core::EdgeTree) into
  /// this tree. Same quiescence requirement as checkpoint(). Interval
  /// sequence numbers restart at 0 — the channel protocol is private to
  /// one run; only sampling state carries over.
  void restore(const core::Checkpoint& checkpoint);

 private:
  /// Event-mode task state. Only the one worker currently running the
  /// node's task touches it (the JobScheduler's state machine guarantees
  /// a task never runs on two workers at once), so no locks: the hand-off
  /// between successive runs synchronises through the scheduler.
  struct EventState {
    JobScheduler::TaskId task{0};
    /// Interval currently being assembled.
    std::int64_t interval{0};
    /// Next input (child index) to resolve for `interval`. Parking at the
    /// FIRST unready input — instead of taking whatever is ready — is
    /// what keeps Ψ in child order, and therefore every RNG draw
    /// bit-identical to the thread-per-node runtime.
    std::size_t gather_cursor{0};
    /// Ψ gathered so far for `interval`, in child order.
    std::vector<core::ItemBundle> psi;
    /// One buffered message per child that already sent a LATER interval.
    std::vector<std::optional<IntervalMessage>> held;
    std::vector<bool> finished;
    /// Output built but not yet accepted by a full downstream channel
    /// (kBlock only); re-offered on the next writable wake.
    std::optional<IntervalMessage> pending_out;
    bool done{false};
  };

  /// Per-node kill/revive state. The atomics are the cross-thread
  /// surface: kill_node/revive_node (any thread) flip request flags, and
  /// the node's own worker — the only thread ever touching the stage —
  /// acts on them at its next interval boundary. `saved` is written by
  /// the worker (self-capture) and read by the worker (restore), with
  /// `mutex` guarding against a concurrent external checkpoint() reading
  /// it; the dead flag's release/acquire pairing orders the request flags.
  struct FaultState {
    std::atomic<bool> dead{false};
    std::atomic<bool> capture_requested{false};
    std::atomic<bool> restore_requested{false};
    std::mutex mutex;
    std::optional<core::Checkpoint> saved;
  };

  struct NodeRuntime {
    std::unique_ptr<core::PipelineStage> stage;
    std::vector<BoundedChannel<IntervalMessage>*> inputs;
    BoundedChannel<IntervalMessage>* output{nullptr};  // null at the root
    std::size_t layer{0};
    /// unique_ptr so NodeRuntime stays movable (FaultState holds a mutex
    /// and atomics). Allocated for every node at construction.
    std::unique_ptr<FaultState> fault;
    std::unique_ptr<EventState> event;  // kEvents only
    // Per-node observability sinks, resolved once at construction (null /
    // kNoTrack when unbound — the loop hooks then cost one null check,
    // and APPROXIOT_NO_STATS compiles even that away).
    obs::Histogram* exec_us{nullptr};
    obs::Histogram* wait_us{nullptr};
    obs::LinearHistogram* occupancy{nullptr};
    obs::Counter* items_in{nullptr};
    obs::Counter* intervals{nullptr};
    obs::TrackId track{obs::ScopedSpan::kNoTrack};
  };

  void node_loop(NodeRuntime& node);
  /// Event-mode task body: makes every kind of progress possible (flush
  /// parked output, gather, execute, repeat) and returns when blocked;
  /// channel readiness waiters re-queue it via the scheduler.
  void event_pump(NodeRuntime& node);
  /// Runs the node's stage over the assembled Ψ — shared by both modes so
  /// the per-interval semantics (root Θ fold, tap, interval completion,
  /// exec spans) cannot diverge. Root: returns nullopt after folding into
  /// Θ; non-root: returns the message to forward upstream.
  std::optional<IntervalMessage> execute_node_interval(
      NodeRuntime& node, std::int64_t interval,
      const std::vector<core::ItemBundle>& psi);
  /// Builds the scheduler, registers one task per node, wires channel
  /// readiness to task wakes, and starts the workers.
  void start_event_runtime();
  void complete_root_interval(std::int64_t interval);
  /// Registers per-node/per-edge stats and trace tracks; called from the
  /// constructor before any worker starts (registration is not
  /// synchronised against the node loops).
  void bind_observability();
  [[nodiscard]] std::string node_scope(std::size_t layer,
                                       std::size_t index) const;
  /// Timestamp source for spans/latency: tracer-relative when tracing
  /// (span timestamps must share the tracer's epoch), steady-clock
  /// microseconds otherwise. Durations are valid on either.
  [[nodiscard]] std::int64_t obs_now_us() const;
  /// Feeds one observed result into the controller and publishes a new
  /// epoch when the proposed fraction moved. Called from the root worker
  /// (mid-window observations) and from close_window() callers.
  void observe_and_publish(const core::ApproxResult& result);

  [[nodiscard]] NodeRuntime& node_at(std::size_t layer, std::size_t index);
  [[nodiscard]] const NodeRuntime& node_at(std::size_t layer,
                                           std::size_t index) const;
  /// Dead-node interval path: swallow Ψ into the lost accounting and
  /// mark the window degraded. Runs on the node's own worker.
  void absorb_dead_interval(const std::vector<core::ItemBundle>& psi);
  /// Chaos driver step; runs on the root worker only (single-threaded in
  /// both runtime modes — complete_root_interval is only ever called from
  /// the root node's task/thread), so its state needs no lock.
  void chaos_step();

  ConcurrentTreeConfig config_;
  MetricsRegistry* metrics_{nullptr};

  /// Resolved observability sinks (config_.stats, or the metrics
  /// registry's obs backend, or null).
  obs::StatsRegistry* stats_{nullptr};
  obs::Tracer* tracer_{nullptr};
  obs::TrackId control_track_{obs::ScopedSpan::kNoTrack};
  obs::Counter* windows_closed_{nullptr};

  /// §IV-B loop state; adaptive_mutex_ serialises the root worker's
  /// mid-window observations against close_window() observations.
  mutable std::mutex adaptive_mutex_;
  std::unique_ptr<core::AdaptiveController> controller_;
  std::size_t intervals_since_observation_{0};

  /// Shared shard-execution substrate for every node's sampling lane.
  /// Declared before nodes_ so it outlives the lanes created from it.
  std::shared_ptr<core::SamplingExecutor> sampling_executor_;

  std::vector<std::unique_ptr<BoundedChannel<IntervalMessage>>> channels_;
  std::vector<BoundedChannel<IntervalMessage>*> leaf_inputs_;
  // nodes_[layer][index]; the root is the single node of the last layer.
  std::vector<std::vector<NodeRuntime>> nodes_;

  core::ThetaStore theta_;
  mutable std::mutex theta_mutex_;

  /// Serialises whole push_interval calls: interval seqs must reach the
  /// leaf channels in assignment order or receivers would mistake a
  /// reordered interval for a dropped one. Separate from state_mutex_ so
  /// a producer blocked on a full leaf channel does not stall the root's
  /// completion bookkeeping.
  std::mutex push_mutex_;
  mutable std::mutex state_mutex_;
  std::condition_variable drained_cv_;
  std::int64_t next_interval_{0};
  std::uint64_t items_ingested_{0};
  std::uint64_t items_at_root_{0};
  std::uint64_t intervals_completed_{0};
  std::map<std::int64_t, std::int64_t> push_times_us_;
  bool stopped_{false};
  /// Fault accounting, guarded by state_mutex_ (written by whichever
  /// worker owns a dead node's interval, read by close_window/run_query).
  double lost_weight_{0.0};
  std::uint64_t lost_items_{0};
  bool window_degraded_{false};
  /// Cumulative across windows (fault_metrics); the per-window pair above
  /// resets at close_window like EdgeTree's.
  double total_lost_weight_{0.0};
  std::uint64_t total_lost_items_{0};
  std::uint64_t kills_{0};
  std::uint64_t revives_{0};
  /// Chaos driver state; root-worker-only (see chaos_step).
  Rng chaos_rng_{0};
  std::size_t chaos_since_kill_{0};
  /// (layer, index, revive-at-completed-interval-count) per dead victim.
  std::vector<std::tuple<std::size_t, std::size_t, std::uint64_t>>
      chaos_pending_;
  /// kEvents: the root task observed end-of-stream (all closes cascaded
  /// through); guarded by state_mutex_, signalled on drained_cv_.
  bool root_finished_{false};

  // Last members: one of these is the execution substrate, and its
  // destructor joins every worker before channels/stages die.
  std::unique_ptr<ThreadPool> pool_;          // kThreads
  std::unique_ptr<JobScheduler> scheduler_;   // kEvents
};

}  // namespace approxiot::runtime

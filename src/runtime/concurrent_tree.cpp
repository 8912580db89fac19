#include "runtime/concurrent_tree.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/hooks.hpp"

namespace approxiot::runtime {

namespace {

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ConcurrentEdgeTree::ConcurrentEdgeTree(ConcurrentTreeConfig config,
                                       MetricsRegistry* metrics)
    : config_(std::move(config)), metrics_(metrics) {
  core::validate_edge_tree_config(config_.tree);
  const auto& widths = config_.tree.layer_widths;

  // Resolve observability sinks before anything that registers against
  // them (the executor binds lanes at stage construction time).
  stats_ = config_.stats;
  if (stats_ == nullptr && metrics_ != nullptr) stats_ = &metrics_->stats();
  tracer_ = config_.tracer;

  // Live feedback needs a control plane to publish on. When none was
  // supplied, seed one whose epoch-0 policy mirrors the tree config —
  // behaviour-neutral until the first observation publishes epoch 1.
  if (config_.adaptive.enabled) {
    if (config_.tree.engine == core::EngineKind::kNative) {
      // Native stages never bind a policy (no budget to steer): the
      // controller would publish epochs nobody applies and report a
      // fraction trajectory disconnected from reality.
      throw std::invalid_argument(
          "adaptive feedback requires a sampling engine (native stages "
          "have no budget to adapt)");
    }
    if (config_.tree.control_plane == nullptr) {
      config_.tree.control_plane = core::make_control_plane(config_.tree);
    }
    controller_ = std::make_unique<core::AdaptiveController>(
        config_.tree.sampling_fraction, config_.adaptive.controller);
  }

  // One persistent shard-execution substrate shared by every node: its
  // workers are created here, once, and per-interval sampling only
  // enqueues work on them (the ROADMAP's "persistent per-node sampling
  // workers"). An externally supplied executor wins, so callers can pool
  // several runtimes on one worker set.
  sampling_executor_ = config_.sampling_executor;
  if (sampling_executor_ == nullptr && config_.workers_per_node > 1 &&
      config_.tree.engine == core::EngineKind::kApproxIoT) {
    // Only WHS stages consume the executor; building one for SRS/native
    // trees would spawn pool threads nothing ever dispatches to.
    sampling_executor_ = core::PooledSamplingExecutor::for_seed(
        config_.workers_per_node, config_.tree.rng_seed);
    // Privately constructed substrate: safe to bind our sinks (a shared,
    // caller-owned executor may already be bound elsewhere — hands off).
    AIOT_OBS(if (sampling_executor_ != nullptr &&
                 (stats_ != nullptr || tracer_ != nullptr)) {
      sampling_executor_->bind_obs(stats_, tracer_, "executor");
    });
  }

  auto new_channel = [this]() {
    channels_.push_back(std::make_unique<BoundedChannel<IntervalMessage>>(
        config_.channel_capacity, config_.backpressure));
    return channels_.back().get();
  };

  // Source -> leaf channels.
  leaf_inputs_.reserve(widths[0]);
  for (std::size_t i = 0; i < widths[0]; ++i) {
    leaf_inputs_.push_back(new_channel());
  }

  // Nodes, layer by layer; the root is the single node of layer n.
  nodes_.resize(widths.size() + 1);
  for (std::size_t layer = 0; layer <= widths.size(); ++layer) {
    const std::size_t width = layer < widths.size() ? widths[layer] : 1;
    nodes_[layer].resize(width);
    for (std::size_t i = 0; i < width; ++i) {
      core::StageConfig sc =
          core::edge_tree_stage_config(config_.tree, layer, i);
      sc.executor = sampling_executor_;
      NodeRuntime& node = nodes_[layer][i];
      node.stage = core::make_pipeline_stage(sc);
      node.layer = layer;
      node.fault = std::make_unique<FaultState>();
      node.output = layer < widths.size() ? new_channel() : nullptr;
    }
  }

  if (config_.chaos.enabled) {
    if (config_.chaos.kill_every_n_intervals == 0) {
      throw std::invalid_argument(
          "chaos: kill_every_n_intervals must be >= 1");
    }
    chaos_rng_.reseed(config_.chaos.seed);
  }

  // Wiring. Leaves read the source channels; node i of layer L feeds
  // parent i * next_width / width (the EdgeTree block mapping), and a
  // parent's inputs keep child-index order so Ψ ordering — and therefore
  // every RNG draw — matches the sequential tree exactly.
  for (std::size_t i = 0; i < widths[0]; ++i) {
    nodes_[0][i].inputs.push_back(leaf_inputs_[i]);
  }
  for (std::size_t layer = 0; layer < widths.size(); ++layer) {
    const std::size_t next_width =
        layer + 1 < widths.size() ? widths[layer + 1] : 1;
    for (std::size_t i = 0; i < widths[layer]; ++i) {
      const std::size_t parent = i * next_width / widths[layer];
      nodes_[layer + 1][parent].inputs.push_back(nodes_[layer][i].output);
    }
  }

  // Register stats and trace tracks before any worker exists — the node
  // loops read their NodeRuntime sinks without synchronisation.
  bind_observability();

  if (config_.runtime_mode == RuntimeMode::kEvents) {
    start_event_runtime();
    return;
  }

  // kThreads: one long-running worker per node; the pool is sized to
  // match, so each node loop owns a thread for the runtime's lifetime.
  std::size_t total_nodes = 0;
  for (const auto& layer : nodes_) total_nodes += layer.size();
  pool_ = std::make_unique<ThreadPool>(total_nodes, config_.tree.rng_seed);
  for (auto& layer : nodes_) {
    for (NodeRuntime& node : layer) {
      pool_->submit([this, &node](WorkerContext&) { node_loop(node); });
    }
  }
}

void ConcurrentEdgeTree::start_event_runtime() {
  std::size_t total_nodes = 0;
  for (const auto& layer : nodes_) total_nodes += layer.size();

  std::size_t workers = config_.event_workers;
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  workers = std::min(workers, total_nodes);

  JobScheduler::Options options;
  options.workers = workers;
  options.stats = stats_;
  options.tracer = tracer_;
  options.scope = "tree/sched";
  scheduler_ = std::make_unique<JobScheduler>(std::move(options));

  // One task per node. The task body makes all possible progress and
  // parks; channel readiness re-queues it. Registration happens before
  // start(), so workers never see a half-built task table.
  for (std::size_t layer = 0; layer < nodes_.size(); ++layer) {
    for (std::size_t i = 0; i < nodes_[layer].size(); ++i) {
      NodeRuntime& node = nodes_[layer][i];
      node.event = std::make_unique<EventState>();
      node.event->held.resize(node.inputs.size());
      node.event->finished.assign(node.inputs.size(), false);
      core::PipelineStage* stage = node.stage.get();
      node.event->task = scheduler_->add_task(
          node_scope(layer, i), [this, &node] { event_pump(node); },
          [stage] {
            return static_cast<std::int64_t>(stage->policy_epoch());
          });
    }
  }

  // Readiness wiring: a push into (or close of) any input wakes the
  // consumer; a pop from (or close of) a node's output wakes the
  // producer so a parked forward can be re-offered. Set before start()
  // — waiter installation is not synchronised against channel traffic.
  for (auto& layer : nodes_) {
    for (NodeRuntime& node : layer) {
      const JobScheduler::TaskId task = node.event->task;
      for (auto* input : node.inputs) {
        input->set_readable_waiter(
            [this, task] { scheduler_->notify(task); });
      }
      if (node.output != nullptr) {
        node.output->set_writable_waiter(
            [this, task] { scheduler_->notify(task); });
      }
    }
  }

  scheduler_->start();
}

std::string ConcurrentEdgeTree::node_scope(std::size_t layer,
                                           std::size_t index) const {
  if (layer + 1 == nodes_.size()) return "tree/root";
  return "tree/L" + std::to_string(layer) + "/n" + std::to_string(index);
}

std::int64_t ConcurrentEdgeTree::obs_now_us() const {
  return tracer_ != nullptr ? tracer_->now_us() : now_us();
}

void ConcurrentEdgeTree::bind_observability() {
  AIOT_OBS(
      if (stats_ == nullptr && tracer_ == nullptr) return;
      for (std::size_t layer = 0; layer < nodes_.size(); ++layer) {
        for (std::size_t i = 0; i < nodes_[layer].size(); ++i) {
          NodeRuntime& node = nodes_[layer][i];
          const std::string scope = node_scope(layer, i);
          if (stats_ != nullptr) {
            node.exec_us = &stats_->histogram(scope + "/exec_us");
            node.wait_us = &stats_->histogram(scope + "/wait_us");
            node.occupancy =
                &stats_->linear_histogram(scope + "/occupancy", 0.0, 1.0, 20);
            node.items_in = &stats_->counter(scope + "/items_in");
            node.intervals = &stats_->counter(scope + "/intervals");
            for (std::size_t c = 0; c < node.inputs.size(); ++c) {
              const std::string edge = scope + "/in" + std::to_string(c);
              ChannelStats cs;
              cs.depth = &stats_->gauge(edge + "/depth");
              cs.block_wait_us = &stats_->histogram(edge + "/block_wait_us");
              cs.dropped = &stats_->counter(edge + "/dropped");
              node.inputs[c]->bind_stats(cs);
            }
          }
          if (tracer_ != nullptr) node.track = tracer_->register_track(scope);
        }
      }
      if (stats_ != nullptr) {
        windows_closed_ = &stats_->counter("tree/windows_closed");
      }
      if (tracer_ != nullptr) {
        control_track_ = tracer_->register_track("tree/control");
      }
      // Epoch-publish events: observed at the plane itself, so manual
      // publish_fraction() calls are recorded exactly like the adaptive
      // loop's. (Rebinds any hook a caller set on a shared plane.)
      if (config_.tree.control_plane != nullptr) {
        obs::Counter* publishes =
            stats_ != nullptr ? &stats_->counter("tree/policy/publishes")
                              : nullptr;
        obs::Gauge* epoch_gauge =
            stats_ != nullptr ? &stats_->gauge("tree/policy/epoch") : nullptr;
        obs::Gauge* fraction_gauge =
            stats_ != nullptr ? &stats_->gauge("tree/policy/fraction")
                              : nullptr;
        config_.tree.control_plane->set_publish_hook(
            [publishes, epoch_gauge, fraction_gauge, tracer = tracer_,
             track = control_track_](const core::SamplingPolicy& policy) {
              if (publishes != nullptr) publishes->increment();
              if (epoch_gauge != nullptr) {
                epoch_gauge->set(static_cast<double>(policy.epoch));
              }
              if (fraction_gauge != nullptr) {
                fraction_gauge->set(policy.budget.sampling_fraction);
              }
              if (tracer != nullptr &&
                  track != obs::ScopedSpan::kNoTrack) {
                tracer->instant(track, "policy-publish",
                                static_cast<std::int64_t>(policy.epoch));
              }
            });
      });
}

ConcurrentEdgeTree::~ConcurrentEdgeTree() { stop(); }

std::size_t ConcurrentEdgeTree::leaf_count() const noexcept {
  return config_.tree.layer_widths.front();
}

std::size_t ConcurrentEdgeTree::node_count() const noexcept {
  std::size_t n = 0;
  for (const auto& layer : nodes_) n += layer.size();
  return n;
}

void ConcurrentEdgeTree::push_interval(
    const std::vector<std::vector<Item>>& items_per_leaf) {
  if (items_per_leaf.size() != leaf_count()) {
    throw std::invalid_argument(
        "push_interval() expects one item vector per leaf");
  }

  // One lock across seq assignment AND the channel pushes: two producers
  // interleaving their pushes would deliver seqs out of order, and a
  // receiver treats a lower-seq message arriving late as stale.
  std::lock_guard<std::mutex> push_lock(push_mutex_);

  std::int64_t seq = 0;
  std::uint64_t total_items = 0;
  for (const auto& items : items_per_leaf) total_items += items.size();
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (stopped_) {
      throw std::logic_error("push_interval() after stop()");
    }
    seq = next_interval_++;
    items_ingested_ += total_items;
    push_times_us_[seq] = now_us();
  }

  // Pushes happen outside the state lock: under kBlock a saturated leaf
  // parks the producer right here — that is the backpressure surface.
  for (std::size_t i = 0; i < items_per_leaf.size(); ++i) {
    IntervalMessage msg;
    msg.interval = seq;
    if (!items_per_leaf[i].empty()) {
      core::ItemBundle bundle;
      bundle.items = items_per_leaf[i];
      msg.bundles.push_back(std::move(bundle));
    }
    leaf_inputs_[i]->push(std::move(msg));
  }

  if (metrics_ != nullptr) {
    metrics_->counter("runtime.intervals_pushed").increment();
    metrics_->counter("runtime.items_ingested").increment(total_items);
  }
}

void ConcurrentEdgeTree::drain() {
  std::unique_lock<std::mutex> lock(state_mutex_);
  drained_cv_.wait(lock, [this] {
    return stopped_ ||
           intervals_completed_ >= static_cast<std::uint64_t>(next_interval_);
  });
}

void ConcurrentEdgeTree::stop() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  for (auto* channel : leaf_inputs_) channel->close();
  if (pool_ != nullptr) {
    pool_->shutdown();
  } else {
    // kEvents: the closes cascade layer by layer (each finishing node
    // closes its output, waking its parent) until the root task observes
    // end-of-stream; only then is the worker pool quiescent and safe to
    // join. Everything still in flight is flushed through, exactly like
    // the thread-per-node shutdown.
    {
      std::unique_lock<std::mutex> lock(state_mutex_);
      drained_cv_.wait(lock, [this] { return root_finished_; });
    }
    scheduler_->shutdown();
  }
  drained_cv_.notify_all();

  if (metrics_ != nullptr) {
    const TreeMetrics m = metrics();
    metrics_->gauge("runtime.messages_dropped")
        .set(static_cast<double>(m.messages_dropped));
    for (std::size_t layer = 0; layer < m.items_forwarded_per_layer.size();
         ++layer) {
      metrics_
          ->gauge("runtime.items_forwarded.layer" + std::to_string(layer))
          .set(static_cast<double>(m.items_forwarded_per_layer[layer]));
    }
  }
}

core::ApproxResult ConcurrentEdgeTree::close_window(double confidence) {
  [[maybe_unused]] std::int64_t t_close = 0;
  AIOT_OBS(t_close = obs_now_us(););
  // Under kDropNewest a shed trailing interval never completes, so a full
  // drain() could wait forever; the window then closes over whatever
  // reached the root (the drop already was a sampling decision).
  if (config_.backpressure == BackpressurePolicy::kBlock) drain();
  core::ApproxResult result;
  {
    std::lock_guard<std::mutex> lock(theta_mutex_);
    result = core::approximate_query(theta_, confidence);
    theta_.clear();
  }
  // Loss accounting is per window, same semantics as EdgeTree: report and
  // reset; the next window opens degraded only if some node is still dead.
  bool any_dead = false;
  for (const auto& layer : nodes_) {
    for (const NodeRuntime& node : layer) {
      if (node.fault->dead.load(std::memory_order_acquire)) any_dead = true;
    }
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    result.lost_weight = lost_weight_;
    result.lost_items = lost_items_;
    result.degraded = window_degraded_ || lost_items_ > 0;
    lost_weight_ = 0.0;
    lost_items_ = 0;
    window_degraded_ = any_dead;
  }
  AIOT_OBS(
      if (windows_closed_ != nullptr) windows_closed_->increment();
      if (tracer_ != nullptr &&
          control_track_ != obs::ScopedSpan::kNoTrack) {
        tracer_->complete(control_track_, "window-close", t_close,
                          obs_now_us(),
                          static_cast<std::int64_t>(policy_epoch()));
      });
  // §IV-B: the closed window's error bound drives the next policy epoch.
  // Outside theta_mutex_ — publishing must never block the root worker's
  // Θ additions.
  if (controller_ != nullptr) observe_and_publish(result);
  return result;
}

void ConcurrentEdgeTree::observe_and_publish(
    const core::ApproxResult& result) {
  // An empty window (no samples at all) carries no error signal the
  // controller should act on — relative_margin() would be infinite and
  // spuriously ramp the fraction to max.
  if (result.sampled_items == 0) return;
  // adaptive_mutex_ spans observe AND compare-and-publish: a mid-window
  // observation racing a close_window() observation must publish in the
  // order the controller moved, or the plane could settle on the older
  // of two proposals while controller_->fraction() reports the newer.
  std::lock_guard<std::mutex> lock(adaptive_mutex_);
  const double next = controller_->observe(result.sum);
  intervals_since_observation_ = 0;
  auto& plane = config_.tree.control_plane;
  if (plane != nullptr &&
      plane->snapshot()->budget.sampling_fraction != next) {
    const core::PolicyEpoch epoch = plane->publish_fraction(next);
    if (metrics_ != nullptr) {
      metrics_->counter("runtime.policy_publishes").increment();
      metrics_->gauge("runtime.policy_epoch")
          .set(static_cast<double>(epoch));
      metrics_->gauge("runtime.policy_fraction").set(next);
    }
  }
}

void ConcurrentEdgeTree::kick() {
  if (scheduler_ != nullptr) scheduler_->notify_all();
}

core::PolicyEpoch ConcurrentEdgeTree::publish_fraction(double end_to_end) {
  if (config_.tree.control_plane == nullptr) {
    throw std::logic_error("publish_fraction() without a control plane");
  }
  return config_.tree.control_plane->publish_fraction(end_to_end);
}

double ConcurrentEdgeTree::adaptive_fraction() const {
  if (controller_ == nullptr) return config_.tree.sampling_fraction;
  std::lock_guard<std::mutex> lock(adaptive_mutex_);
  return controller_->fraction();
}

std::vector<double> ConcurrentEdgeTree::adaptive_history() const {
  if (controller_ == nullptr) return {};
  std::lock_guard<std::mutex> lock(adaptive_mutex_);
  return controller_->history();
}

core::ApproxResult ConcurrentEdgeTree::run_query(double confidence) const {
  core::ApproxResult result;
  {
    std::lock_guard<std::mutex> lock(theta_mutex_);
    result = core::approximate_query(theta_, confidence);
  }
  std::lock_guard<std::mutex> lock(state_mutex_);
  result.lost_weight = lost_weight_;
  result.lost_items = lost_items_;
  result.degraded = window_degraded_ || lost_items_ > 0;
  return result;
}

ConcurrentEdgeTree::TreeMetrics ConcurrentEdgeTree::metrics() const {
  TreeMetrics m;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    m.items_ingested = items_ingested_;
    m.items_at_root = items_at_root_;
    m.intervals_pushed = static_cast<std::uint64_t>(next_interval_);
    m.intervals_completed = intervals_completed_;
  }
  for (const auto& channel : channels_) {
    m.messages_dropped += channel->dropped();
  }
  // Per-layer forwarded counts (excluding the root, matching EdgeTree).
  for (std::size_t layer = 0; layer + 1 < nodes_.size(); ++layer) {
    std::uint64_t forwarded = 0;
    for (const NodeRuntime& node : nodes_[layer]) {
      forwarded += node.stage->metrics().items_out;
    }
    m.items_forwarded_per_layer.push_back(forwarded);
  }
  return m;
}

// ---------------------------------------------------------------------------
// Fault injection & recovery

ConcurrentEdgeTree::NodeRuntime& ConcurrentEdgeTree::node_at(
    std::size_t layer, std::size_t index) {
  if (layer >= nodes_.size() || index >= nodes_[layer].size()) {
    throw std::invalid_argument("concurrent tree: no node at (layer, index)");
  }
  return nodes_[layer][index];
}

const ConcurrentEdgeTree::NodeRuntime& ConcurrentEdgeTree::node_at(
    std::size_t layer, std::size_t index) const {
  return const_cast<ConcurrentEdgeTree*>(this)->node_at(layer, index);
}

void ConcurrentEdgeTree::kill_node(std::size_t layer, std::size_t index,
                                   bool capture) {
  NodeRuntime& node = node_at(layer, index);
  if (node.output == nullptr) {
    throw std::invalid_argument(
        "the root cannot be killed (stop() the tree instead)");
  }
  FaultState& fault = *node.fault;
  if (fault.dead.load(std::memory_order_acquire)) return;  // idempotent
  // Request order matters: the capture flag must be visible before the
  // worker observes dead == true, which the release store guarantees.
  fault.capture_requested.store(capture, std::memory_order_relaxed);
  fault.dead.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++kills_;
    window_degraded_ = true;
  }
  AIOT_OBS(
      if (stats_ != nullptr) stats_->counter("tree/faults/kills").increment();
      if (tracer_ != nullptr && control_track_ != obs::ScopedSpan::kNoTrack) {
        tracer_->instant(control_track_, "node-kill",
                         static_cast<std::int64_t>((layer << 16) | index));
      });
}

void ConcurrentEdgeTree::revive_node(std::size_t layer, std::size_t index,
                                     bool restore) {
  NodeRuntime& node = node_at(layer, index);
  FaultState& fault = *node.fault;
  if (!fault.dead.load(std::memory_order_acquire)) return;  // idempotent
  // A capture the worker never serviced (killed and revived between two
  // of its intervals) must be cancelled: a stale self-capture AFTER
  // revival would pass live state off as the at-death snapshot.
  fault.capture_requested.store(false, std::memory_order_relaxed);
  bool has_capture = false;
  {
    std::lock_guard<std::mutex> lock(fault.mutex);
    has_capture = fault.saved.has_value();
  }
  fault.restore_requested.store(restore && has_capture,
                                std::memory_order_relaxed);
  fault.dead.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++revives_;
  }
  AIOT_OBS(
      if (stats_ != nullptr) {
        stats_->counter("tree/faults/revives").increment();
      } if (tracer_ != nullptr &&
            control_track_ != obs::ScopedSpan::kNoTrack) {
        tracer_->instant(control_track_, "node-revive",
                         static_cast<std::int64_t>((layer << 16) | index));
      });
}

bool ConcurrentEdgeTree::node_dead(std::size_t layer,
                                   std::size_t index) const {
  return node_at(layer, index).fault->dead.load(std::memory_order_acquire);
}

ConcurrentEdgeTree::FaultMetrics ConcurrentEdgeTree::fault_metrics() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  FaultMetrics m;
  m.kills = kills_;
  m.revives = revives_;
  m.lost_items = total_lost_items_;
  m.lost_weight = total_lost_weight_;
  return m;
}

void ConcurrentEdgeTree::absorb_dead_interval(
    const std::vector<core::ItemBundle>& psi) {
  // Σ over items of W^in(source) — the same Eq. 8 identity EdgeTree's
  // swallow_lost relies on: interior bundles carry a weight per stratum
  // and leaf input is raw weight-1 data, so the sum equals the original
  // delivered count of the dead subtree, exactly.
  double weight = 0.0;
  std::uint64_t items = 0;
  for (const core::ItemBundle& bundle : psi) {
    for (const Item& item : bundle.items) {
      weight += bundle.w_in.get(item.source);
      ++items;
    }
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    lost_weight_ += weight;
    lost_items_ += items;
    total_lost_weight_ += weight;
    total_lost_items_ += items;
    window_degraded_ = true;
  }
  AIOT_OBS(if (stats_ != nullptr && items > 0) {
    stats_->counter("tree/faults/lost_items").increment(items);
    stats_->gauge("tree/faults/lost_weight").set(total_lost_weight_);
  });
}

void ConcurrentEdgeTree::chaos_step() {
  // Root-worker-only: complete_root_interval is called exclusively from
  // the root node's thread (kThreads) or task (kEvents — a task never
  // runs on two workers at once), so this state is single-threaded.
  std::uint64_t completed = 0;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    completed = intervals_completed_;
  }
  for (auto it = chaos_pending_.begin(); it != chaos_pending_.end();) {
    if (std::get<2>(*it) <= completed) {
      revive_node(std::get<0>(*it), std::get<1>(*it),
                  config_.chaos.checkpoint_restore);
      it = chaos_pending_.erase(it);
    } else {
      ++it;
    }
  }
  if (++chaos_since_kill_ < config_.chaos.kill_every_n_intervals) return;
  chaos_since_kill_ = 0;
  // Victim: a uniformly random alive non-root node.
  std::vector<std::pair<std::size_t, std::size_t>> alive;
  for (std::size_t layer = 0; layer + 1 < nodes_.size(); ++layer) {
    for (std::size_t i = 0; i < nodes_[layer].size(); ++i) {
      if (!nodes_[layer][i].fault->dead.load(std::memory_order_acquire)) {
        alive.emplace_back(layer, i);
      }
    }
  }
  if (alive.empty()) return;
  const auto [layer, index] = alive[chaos_rng_.next_below(alive.size())];
  kill_node(layer, index, config_.chaos.checkpoint_restore);
  chaos_pending_.emplace_back(layer, index,
                              completed + config_.chaos.dead_intervals);
}

// ---------------------------------------------------------------------------
// Checkpoint / restore
//
// Section order (shared byte-for-byte with core::EdgeTree::checkpoint so
// snapshots are interchangeable between the two executions): fingerprint,
// live end-to-end fraction, control plane, stages in layer-major order
// with the root last, Θ, tree counters, fault state.

core::Checkpoint ConcurrentEdgeTree::checkpoint() const {
  core::CheckpointWriter writer(core::CheckpointKind::kTree);
  core::write_tree_fingerprint(writer, config_.tree);
  writer.put_double(config_.tree.sampling_fraction);
  core::write_control_plane(writer, config_.tree.control_plane.get());
  for (const auto& layer : nodes_) {
    for (const NodeRuntime& node : layer) node.stage->save_state(writer);
  }
  {
    std::lock_guard<std::mutex> lock(theta_mutex_);
    writer.put_theta(theta_);
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    writer.put_u64(items_ingested_);
    writer.put_u64(items_at_root_);
  }
  // Dead flags take the detach-flag slots: one bool per node, layer-major,
  // root last — a dead node restores as a detached subtree in EdgeTree
  // and vice versa.
  for (const auto& layer : nodes_) {
    for (const NodeRuntime& node : layer) {
      writer.put_bool(node.fault->dead.load(std::memory_order_acquire));
    }
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    writer.put_double(lost_weight_);
    writer.put_u64(lost_items_);
    writer.put_bool(window_degraded_);
  }
  return writer.finish();
}

void ConcurrentEdgeTree::restore(const core::Checkpoint& checkpoint) {
  core::CheckpointReader reader(checkpoint, core::CheckpointKind::kTree);
  core::verify_tree_fingerprint(reader, config_.tree);
  config_.tree.sampling_fraction = reader.get_double();
  core::restore_control_plane(reader, config_.tree.control_plane.get());
  for (auto& layer : nodes_) {
    for (NodeRuntime& node : layer) node.stage->restore_state(reader);
  }
  {
    std::lock_guard<std::mutex> lock(theta_mutex_);
    reader.get_theta(theta_);
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    items_ingested_ = reader.get_u64();
    items_at_root_ = reader.get_u64();
  }
  for (auto& layer : nodes_) {
    for (NodeRuntime& node : layer) {
      FaultState& fault = *node.fault;
      fault.capture_requested.store(false, std::memory_order_relaxed);
      fault.restore_requested.store(false, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(fault.mutex);
        fault.saved.reset();
      }
      fault.dead.store(reader.get_bool(), std::memory_order_release);
    }
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    lost_weight_ = reader.get_double();
    lost_items_ = reader.get_u64();
    window_degraded_ = reader.get_bool();
  }
  reader.expect_exhausted();
}

void ConcurrentEdgeTree::node_loop(NodeRuntime& node) {
  const std::size_t n_inputs = node.inputs.size();
  std::vector<std::optional<IntervalMessage>> held(n_inputs);
  std::vector<bool> finished(n_inputs, false);

  for (std::int64_t interval = 0;; ++interval) {
    [[maybe_unused]] std::int64_t t_phase = 0;
    AIOT_OBS(t_phase = obs_now_us(););

    // Assemble this interval's Ψ: one contribution per child, in child
    // order. A child whose message for this interval was shed (drop
    // policy) shows up as a held message for a later interval — it then
    // contributes nothing now, exactly as if its sensors were silent.
    std::vector<core::ItemBundle> psi;
    for (std::size_t c = 0; c < n_inputs; ++c) {
      if (held[c].has_value()) {
        if (held[c]->interval == interval) {
          for (core::ItemBundle& bundle : held[c]->bundles) {
            psi.push_back(std::move(bundle));
          }
          held[c].reset();
        }
        continue;
      }
      if (finished[c]) continue;
      for (;;) {
        auto msg = node.inputs[c]->pop();
        if (!msg.has_value()) {
          finished[c] = true;
          break;
        }
        if (msg->interval < interval) continue;  // stale; cannot happen
        if (msg->interval == interval) {
          for (core::ItemBundle& bundle : msg->bundles) {
            psi.push_back(std::move(bundle));
          }
        } else {
          held[c] = std::move(*msg);
        }
        break;
      }
    }

    // End of stream: every input closed and drained, nothing held back,
    // nothing gathered. Deciding this *after* gathering keeps the last
    // real interval in and phantom trailing intervals out — each node
    // processes exactly the intervals that were fed to it, like EdgeTree.
    bool all_finished = true;
    bool any_held = false;
    for (std::size_t c = 0; c < n_inputs; ++c) {
      all_finished = all_finished && finished[c];
      any_held = any_held || held[c].has_value();
    }
    if (all_finished && !any_held && psi.empty()) break;

    // The gather phase is over: everything between t_phase and here was
    // spent blocked on (or checking) the input channels.
    AIOT_OBS(
        if (node.wait_us != nullptr || node.track != obs::ScopedSpan::kNoTrack ||
            node.occupancy != nullptr || node.items_in != nullptr) {
          const std::int64_t t_ready = obs_now_us();
          if (node.wait_us != nullptr) {
            node.wait_us->record(static_cast<double>(t_ready - t_phase));
          }
          if (tracer_ != nullptr &&
              node.track != obs::ScopedSpan::kNoTrack && t_ready > t_phase) {
            tracer_->complete(node.track, "channel-wait", t_phase, t_ready);
          }
          if (node.occupancy != nullptr && n_inputs > 0) {
            double depth = 0.0;
            double capacity = 0.0;
            for (auto* input : node.inputs) {
              depth += static_cast<double>(input->size());
              capacity += static_cast<double>(input->capacity());
            }
            node.occupancy->record(capacity > 0.0 ? depth / capacity : 0.0);
          }
          if (node.items_in != nullptr) {
            std::uint64_t gathered = 0;
            for (const core::ItemBundle& bundle : psi) {
              gathered += bundle.items.size();
            }
            node.items_in->increment(gathered);
          }
          if (node.intervals != nullptr) node.intervals->increment();
          t_phase = t_ready;  // the execute phase starts here
        });

    // Run the stage even on an empty Ψ — interval bookkeeping (budget
    // history, snapshot periods) must advance exactly as in EdgeTree.
    std::optional<IntervalMessage> out =
        execute_node_interval(node, interval, psi);
    if (out.has_value()) node.output->push(std::move(*out));
  }

  if (node.output != nullptr) node.output->close();
}

std::optional<IntervalMessage> ConcurrentEdgeTree::execute_node_interval(
    NodeRuntime& node, std::int64_t interval,
    const std::vector<core::ItemBundle>& psi) {
  const bool is_root = node.output == nullptr;

  // Fault gate. All stage access stays on this worker — the only thread
  // that ever touches node.stage — so capture/restore need no stage lock:
  // kill_node/revive_node only flip request flags, and the dead flag's
  // release/acquire pairing publishes them to us.
  FaultState& fault = *node.fault;
  if (fault.dead.load(std::memory_order_acquire)) {
    if (fault.capture_requested.exchange(false, std::memory_order_acq_rel)) {
      // Self-capture at the moment of death: the stage state after the
      // last interval it completed alive.
      core::Checkpoint saved = core::checkpoint_stage(*node.stage);
      std::lock_guard<std::mutex> lock(fault.mutex);
      fault.saved = std::move(saved);
    }
    absorb_dead_interval(psi);
    if (is_root) {
      // A dead root still completes the interval (drain() must not hang)
      // — it just folds nothing into Θ.
      complete_root_interval(interval);
      return std::nullopt;
    }
    // Forward an empty message so the parent's interval alignment — and
    // the end-of-stream cascade — survive the outage.
    IntervalMessage out;
    out.interval = interval;
    return out;
  }
  if (fault.restore_requested.exchange(false, std::memory_order_acq_rel)) {
    std::lock_guard<std::mutex> lock(fault.mutex);
    if (fault.saved.has_value()) {
      core::restore_stage(*node.stage, *fault.saved);
    }
  }

  [[maybe_unused]] std::int64_t t_phase = 0;
  AIOT_OBS(t_phase = obs_now_us(););

  if (is_root) {
    std::uint64_t arrived = 0;
    for (const core::ItemBundle& bundle : psi) {
      arrived += bundle.items.size();
    }
    std::vector<core::SampledBundle> outputs =
        node.stage->process_interval(psi);
    AIOT_OBS(
        const std::int64_t epoch =
            static_cast<std::int64_t>(node.stage->policy_epoch());
        const std::int64_t t_done = obs_now_us();
        if (node.exec_us != nullptr) {
          node.exec_us->record(static_cast<double>(t_done - t_phase));
        }
        if (tracer_ != nullptr &&
            node.track != obs::ScopedSpan::kNoTrack) {
          tracer_->complete(node.track, "stage-execute", t_phase, t_done,
                            epoch);
        }
        t_phase = t_done;);
    // Build the interval's Θ pairs (one item-vector allocation per pair)
    // outside theta_mutex_; the lock covers only the splice, so queries
    // and window closes never wait on the copies.
    core::ThetaStore delta;
    for (const core::SampledBundle& bundle : outputs) delta.add(bundle);
    {
      std::lock_guard<std::mutex> lock(theta_mutex_);
      theta_.merge(std::move(delta));
    }
    AIOT_OBS(
        if (tracer_ != nullptr &&
            node.track != obs::ScopedSpan::kNoTrack) {
          tracer_->complete(
              node.track, "root-merge", t_phase, obs_now_us(),
              static_cast<std::int64_t>(node.stage->policy_epoch()));
        });
    if (config_.root_tap) {
      for (const core::SampledBundle& bundle : outputs) {
        config_.root_tap(bundle);
      }
    }
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      items_at_root_ += arrived;
    }
    complete_root_interval(interval);
    return std::nullopt;
  }

  IntervalMessage out;
  out.interval = interval;
  std::vector<core::SampledBundle> outputs =
      node.stage->process_interval(psi);
  AIOT_OBS(
      if (node.exec_us != nullptr ||
          node.track != obs::ScopedSpan::kNoTrack) {
        const std::int64_t t_done = obs_now_us();
        if (node.exec_us != nullptr) {
          node.exec_us->record(static_cast<double>(t_done - t_phase));
        }
        if (tracer_ != nullptr &&
            node.track != obs::ScopedSpan::kNoTrack) {
          tracer_->complete(
              node.track, "stage-execute", t_phase, t_done,
              static_cast<std::int64_t>(node.stage->policy_epoch()));
        }
      });
  out.bundles.reserve(outputs.size());
  for (core::SampledBundle& bundle : outputs) {
    out.bundles.push_back(std::move(bundle).to_bundle());
  }
  return out;
}

void ConcurrentEdgeTree::event_pump(NodeRuntime& node) {
  EventState& ev = *node.event;
  if (ev.done) return;  // late spurious wake after end-of-stream

  for (;;) {
    // Phase 0: a forward parked on a full downstream channel (kBlock)
    // must leave before anything else — output order is interval order.
    if (ev.pending_out.has_value()) {
      if (node.output->try_push_from(*ev.pending_out)) {
        ev.pending_out.reset();
      } else if (node.output->closed()) {
        ev.pending_out.reset();  // undeliverable, same as a failed push()
      } else {
        return;  // parked; the consumer's next pop wakes us
      }
    }

    // Phase 1: resolve inputs for ev.interval strictly in child order,
    // parking at the FIRST unready one (not skipping ahead keeps Ψ — and
    // every RNG draw — bit-identical to the thread-per-node gather).
    // Identical per-child semantics to node_loop: a held later-interval
    // message means the child contributes nothing this interval.
    while (ev.gather_cursor < node.inputs.size()) {
      const std::size_t c = ev.gather_cursor;
      if (ev.held[c].has_value()) {
        if (ev.held[c]->interval == ev.interval) {
          for (core::ItemBundle& bundle : ev.held[c]->bundles) {
            ev.psi.push_back(std::move(bundle));
          }
          ev.held[c].reset();
        }
        ++ev.gather_cursor;
        continue;
      }
      if (ev.finished[c]) {
        ++ev.gather_cursor;
        continue;
      }
      bool resolved = false;
      for (;;) {
        auto msg = node.inputs[c]->try_pop();
        if (!msg.has_value()) {
          if (node.inputs[c]->drained()) {
            ev.finished[c] = true;
            resolved = true;
          }
          break;
        }
        if (msg->interval < ev.interval) continue;  // stale; cannot happen
        if (msg->interval == ev.interval) {
          for (core::ItemBundle& bundle : msg->bundles) {
            ev.psi.push_back(std::move(bundle));
          }
        } else {
          ev.held[c] = std::move(*msg);
        }
        resolved = true;
        break;
      }
      if (!resolved) return;  // parked on input c; its next push wakes us
      ++ev.gather_cursor;
    }

    // End-of-stream test — same placement as node_loop: after gathering,
    // so the last real interval is in and phantom trailing ones are out.
    bool all_finished = true;
    bool any_held = false;
    for (std::size_t c = 0; c < node.inputs.size(); ++c) {
      all_finished = all_finished && ev.finished[c];
      any_held = any_held || ev.held[c].has_value();
    }
    if (all_finished && !any_held && ev.psi.empty()) {
      ev.done = true;
      if (node.output != nullptr) {
        node.output->close();  // cascades the shutdown to the parent
      } else {
        {
          std::lock_guard<std::mutex> lock(state_mutex_);
          root_finished_ = true;
        }
        drained_cv_.notify_all();  // stop() waits for the root to finish
      }
      return;
    }

    AIOT_OBS(
        if (node.occupancy != nullptr && !node.inputs.empty()) {
          double depth = 0.0;
          double capacity = 0.0;
          for (auto* input : node.inputs) {
            depth += static_cast<double>(input->size());
            capacity += static_cast<double>(input->capacity());
          }
          node.occupancy->record(capacity > 0.0 ? depth / capacity : 0.0);
        } if (node.items_in != nullptr) {
          std::uint64_t gathered = 0;
          for (const core::ItemBundle& bundle : ev.psi) {
            gathered += bundle.items.size();
          }
          node.items_in->increment(gathered);
        } if (node.intervals != nullptr) node.intervals->increment(););

    std::optional<IntervalMessage> out =
        execute_node_interval(node, ev.interval, ev.psi);
    ev.psi.clear();
    ev.gather_cursor = 0;
    ++ev.interval;

    if (out.has_value()) {
      if (config_.backpressure == BackpressurePolicy::kBlock) {
        // Offer via the pending slot so a full channel parks us instead
        // of blocking a pool worker (which could deadlock the pool).
        ev.pending_out = std::move(out);
      } else {
        // kDropNewest never blocks: push() sheds at a full channel and
        // counts the loss, exactly like the thread-per-node runtime.
        node.output->push(std::move(*out));
      }
    }
  }
}

void ConcurrentEdgeTree::complete_root_interval(std::int64_t interval) {
  std::int64_t latency_us = -1;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++intervals_completed_;
    auto it = push_times_us_.find(interval);
    if (it != push_times_us_.end()) {
      latency_us = now_us() - it->second;
      push_times_us_.erase(it);
    }
  }
  drained_cv_.notify_all();

  if (metrics_ != nullptr) {
    metrics_->counter("runtime.intervals_completed").increment();
    if (latency_us >= 0) {
      metrics_->histogram("runtime.interval_latency_us")
          .record(static_cast<double>(latency_us));
    }
  }

  // Built-in chaos: kill/revive decisions ride the root's own interval
  // completions, so the fault schedule is deterministic per seed.
  if (config_.chaos.enabled) chaos_step();

  // Mid-window feedback (§IV-B live): every N completed root intervals,
  // observe the running window's confidence interval and let the
  // controller republish — from the root's own thread, while every other
  // worker keeps flowing. Upstream nodes adopt the new epoch at their
  // next interval boundary: the feedback edge is out-of-band, carried by
  // the control plane instead of the data channels.
  if (controller_ != nullptr &&
      config_.adaptive.intervals_per_observation > 0) {
    bool due = false;
    {
      std::lock_guard<std::mutex> lock(adaptive_mutex_);
      due = ++intervals_since_observation_ >=
            config_.adaptive.intervals_per_observation;
    }
    if (due) observe_and_publish(run_query(config_.adaptive.confidence));
  }
}

}  // namespace approxiot::runtime

#include "mpisim/runtime.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "mpisim/error.hpp"
#include "mpisim/faults/engine.hpp"
#include "obs/counters.hpp"
#include "obs/spans.hpp"
#include "support/log.hpp"

namespace mpisect::mpisim {

World::World(int nranks, WorldOptions options)
    : nranks_(nranks), options_(std::move(options)), rng_(options_.seed) {
  require(nranks_ > 0, Err::Arg, "world size must be positive");
  clocks_.resize(static_cast<std::size_t>(nranks_));
  final_times_.assign(static_cast<std::size_t>(nranks_), 0.0);
  // Keep the network model's placement and seed coherent with the world.
  options_.machine.net.seed = options_.seed;
  // Opportunistic progress polls the network on every MPI entry; fold that
  // per-entry cost into the per-message CPU overheads so every existing
  // charge site (and the machine snapshot recorded in trace headers) pays
  // it without change.
  if (options_.progress.mode == ProgressMode::Opportunistic) {
    options_.machine.net.send_overhead += options_.progress.entry_overhead;
    options_.machine.net.recv_overhead += options_.progress.entry_overhead;
  }
  executor_ =
      make_executor(options_.exec, options_.workers, options_.stack_kb);
  executor_->set_mem_account(&stack_account_);
  records_ = std::make_unique<RecordPools>(*executor_);
  // Exact deadlock signal: every live rank parked, no wake pending. Give
  // the checker first look at the wait graph, then tear the world down.
  executor_->set_quiescence_handler([this] {
    if (deadlock_handler_) deadlock_handler_();
    abort();
  });
  if (!options_.faults.empty()) {
    fault_engine_ = std::make_unique<faults::FaultEngine>(
        options_.faults, options_.seed, nranks_);
  }
  // No world communicator yet: run() builds one per run, and CommImpl
  // itself defers per-peer channels to first touch, so an unstarted world
  // holds no per-rank communication state at all.
}

World::~World() = default;

void World::attach_extension(std::shared_ptr<Extension> ext) {
  extensions_.push_back(std::move(ext));
}

double World::elapsed() const noexcept {
  if (final_times_.empty()) return 0.0;
  // Seed with -infinity: replay what-ifs can rescale virtual time into
  // negative territory and a 0.0 seed would silently clamp the makespan.
  double m = -std::numeric_limits<double>::infinity();
  for (double t : final_times_) m = std::max(m, t);
  return m;
}

void World::run(const RankMain& rank_main) {
  require(!aborted_.load(), Err::Aborted, "world previously aborted");
  // The previous run's world communicator dies here; tell lifecycle hooks
  // (comm-leak analyses pair every create with a free) while the clocks
  // still carry that run's final times.
  if (world_comm_announced_ && !tool_stack_.empty()) {
    const int old_context = world_comm_->context_id();
    for (int r = 0; r < nranks_; ++r) {
      Ctx ctx(*this, r, clocks_[static_cast<std::size_t>(r)]);
      tool_stack_.notify_reverse(&hooks::Tool::on_comm_free, ctx, old_context);
    }
  }
  world_comm_announced_ = false;
  // Fresh clocks (and a fresh world communicator, so sequence counters and
  // stale messages from a previous run cannot leak into this one). Reset
  // final times too: a failed run must not leave stale per-rank values.
  final_times_.assign(static_cast<std::size_t>(nranks_), 0.0);
  std::vector<int> all(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) all[static_cast<std::size_t>(r)] = r;
  world_comm_ =
      std::make_shared<CommImpl>(*this, Group(std::move(all)),
                                 next_context_id());
  world_comm_announced_ = !tool_stack_.empty();
  for (int r = 0; r < nranks_; ++r) {
    double skew = 0.0;
    if (options_.start_skew_sigma > 0.0) {
      skew = std::abs(options_.start_skew_sigma *
                      rng_.gaussian(support::stream_id(
                                        static_cast<std::uint64_t>(r) + 1,
                                        0xA110C),
                                    0));
    }
    clocks_[static_cast<std::size_t>(r)].reset(skew);
  }

  std::mutex err_mu;
  std::exception_ptr first_error;
  std::vector<int> raised;  ///< ranks that threw, logged in rank order
  const auto record_raise = [&](int r) {
    {
      const std::lock_guard lock(err_mu);
      if (!first_error) first_error = std::current_exception();
      raised.push_back(r);
    }
    abort();
  };

  auto rank_body = [&](int r) {
    Ctx ctx(*this, r, clocks_[static_cast<std::size_t>(r)]);
    try {
      if (!tool_stack_.empty()) {
        CommLifecycle info;
        info.context = world_comm_->context_id();
        info.parent_context = -1;
        info.rank = r;
        info.size = nranks_;
        info.world_ranks = &world_comm_->group().world_ranks();
        tool_stack_.notify(&hooks::Tool::on_comm_create, ctx, info);
        CallInfo ci;
        ci.call = MpiCall::Init;
        ci.rank = r;
        ci.comm_size = nranks_;
        ci.t_virtual = ctx.now();
        tool_stack_.notify(&hooks::Tool::on_call_begin, ctx, ci);
        tool_stack_.notify_reverse(&hooks::Tool::on_call_end, ctx, ci);
      }
      for (auto& ext : extensions_) ext->on_rank_init(ctx);
      rank_main(ctx);
      for (auto it = extensions_.rbegin(); it != extensions_.rend(); ++it) {
        (*it)->on_rank_finalize(ctx);
      }
      if (!tool_stack_.empty()) {
        CallInfo ci;
        ci.call = MpiCall::Finalize;
        ci.rank = r;
        ci.comm_size = nranks_;
        ci.t_virtual = ctx.now();
        tool_stack_.notify(&hooks::Tool::on_call_begin, ctx, ci);
        tool_stack_.notify_reverse(&hooks::Tool::on_call_end, ctx, ci);
      }
      final_times_[static_cast<std::size_t>(r)] = ctx.now();
    } catch (const MpiError& e) {
      if (e.code() == Err::Killed) {
        // Injected kill: the rank retires quietly at its time of death.
        // The world keeps running — ranks that depend on this one block
        // until the scheduler proves quiescence, which the checker then
        // classifies as an injected fault rather than a native deadlock.
        final_times_[static_cast<std::size_t>(r)] = ctx.now();
        return;
      }
      record_raise(r);
    } catch (...) {
      record_raise(r);
    }
  };

  {
    const obs::Span span("world.run");
    executor_->run(nranks_, rank_body);
  }
  // Workers catch in a racy order; the log does not depend on it.
  std::ranges::sort(raised);
  for (const int r : raised) {
    MPISECT_LOG_ERROR("rank %d raised; aborting world", r);
  }

  // Fold this run's wall-clock scheduling totals and memory high-water
  // marks into the process-wide obs counters (the obs_* series of serve's
  // stats page and mpisect-top --export prom). Observation only — the
  // virtual-time results above are already final.
  {
    auto& oc = obs::counters();
    const ExecStats& st = executor_->stats();
    const auto ld = [](const std::atomic<std::uint64_t>& a) {
      return a.load(std::memory_order_relaxed);
    };
    const auto add = [&ld](std::atomic<std::uint64_t>& to,
                           const std::atomic<std::uint64_t>& from) {
      to.fetch_add(ld(from), std::memory_order_relaxed);
    };
    add(oc.sched_parks, st.parks);
    add(oc.sched_wakes, st.wakes);
    add(oc.sched_switches, st.switches);
    add(oc.sched_busy_ns, st.busy_ns);
    add(oc.sched_idle_ns, st.idle_ns);
    add(oc.sched_ready_depth_sum, st.ready_depth_sum);
    add(oc.sched_ready_depth_samples, st.ready_depth_samples);
    add(oc.sched_switch_latency_ns, st.switch_latency_ns);
    add(oc.sched_switch_latency_samples, st.switch_latency_samples);
    obs::update_max(oc.mem_channel_bytes_hwm, mem_account_.total_hwm());
    // Live peak, not cumulative mmap churn: stacks are pooled and reused
    // across ranks, so the high-water mark is what the run actually held.
    obs::update_max(oc.mem_stack_bytes_hwm, ld(st.stack_bytes_hwm));
    obs::update_max(oc.mem_ranks, static_cast<std::uint64_t>(nranks_));
  }

  if (first_error) {
    std::rethrow_exception(first_error);
  }
  if (aborted_.load()) {
    throw MpiError(Err::Aborted, "world aborted without recorded cause");
  }
}

// ---------------------------------------------------------------------------
// Ctx
// ---------------------------------------------------------------------------

Ctx::Ctx(World& world, int world_rank, VirtualClock& clock) noexcept
    : world_(world), rank_(world_rank), clock_(clock) {}

Comm Ctx::world_comm() noexcept {
  return Comm(this, world_.world_comm_, rank_);
}

void Ctx::compute(double seconds) {
  fault_checkpoint();
  // A progress thread owns a core (or hardware thread): every compute
  // charge pays its tax, deterministically.
  seconds *= world_.progress().compute_factor();
  const double sigma = machine().compute_noise_sigma;
  if (sigma > 0.0) {
    const double g = world_.rng().gaussian(
        support::stream_id(static_cast<std::uint64_t>(rank_) + 1, 0xC0117),
        next_op_id());
    seconds *= std::max(0.0, 1.0 + sigma * g);
  }
  if (auto* fe = world_.fault_engine()) {
    seconds *= fe->compute_factor(rank_, clock_.now());
  }
  clock_.advance(seconds);
}

void Ctx::compute_flops(double flops) {
  compute(machine().compute_seconds(flops));
}

void Ctx::compute_exact(double seconds) noexcept {
  seconds *= world_.progress().compute_factor();
  if (auto* fe = world_.fault_engine()) {
    seconds *= fe->compute_factor(rank_, clock_.now());
  }
  clock_.advance(seconds);
}

void Ctx::fault_checkpoint() {
  auto* fe = world_.fault_engine();
  if (fe == nullptr) return;
  if (const double s = fe->take_stall(rank_, clock_.now()); s > 0.0) {
    TapFault tf;
    tf.kind = FaultKind::Stall;
    tf.src_world = rank_;
    tf.seconds = s;
    tf.t = clock_.now();
    clock_.advance(s);
    world_.tool_stack().notify(&hooks::Tool::on_fault, *this, tf);
  }
  if (fe->kill_due(rank_, clock_.now())) {
    fe->record_kill(rank_, clock_.now());
    TapFault tf;
    tf.kind = FaultKind::Kill;
    tf.src_world = rank_;
    tf.t = clock_.now();
    world_.tool_stack().notify(&hooks::Tool::on_fault, *this, tf);
    throw MpiError(Err::Killed,
                   "rank " + std::to_string(rank_) +
                       " killed by fault plan at t=" +
                       std::to_string(clock_.now()));
  }
}

void Ctx::pcontrol(int level, const char* label) {
  const hooks::ToolStack& tools = world_.tool_stack();
  if (tools.empty()) return;
  // Generic begin/end bracket around the Pcontrol event (PMPI wrappers see
  // MPI_Pcontrol like any other entry point; `peer` carries the level).
  CallInfo ci;
  ci.call = MpiCall::Pcontrol;
  ci.rank = rank_;
  ci.comm_size = world_.size();
  ci.peer = level;
  ci.t_virtual = now();
  tools.notify(&hooks::Tool::on_call_begin, *this, ci);
  tools.notify(&hooks::Tool::on_pcontrol, *this, level, label);
  tools.notify_reverse(&hooks::Tool::on_call_end, *this, ci);
}

}  // namespace mpisect::mpisim

#include "checker/checker.hpp"

#include <string>
#include <utility>

#include "checker/report.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/faults/engine.hpp"

namespace mpisect::checker {

using mpisim::CallInfo;
using mpisim::MpiCall;

std::shared_ptr<MpiChecker> MpiChecker::install(mpisim::World& world,
                                                CheckerOptions options) {
  if (auto existing = world.shared_extension<MpiChecker>()) return existing;
  auto self = std::make_shared<MpiChecker>(world, options);
  world.attach_extension(self);
  return self;
}

MpiChecker::MpiChecker(mpisim::World& world, CheckerOptions options)
    : world_(&world),
      options_(options),
      waitgraph_(world.size()),
      resources_(world.size()),
      consistency_(world.size()),
      lint_(world.size()) {
  world_->tool_stack().attach(this, mpisim::hooks::kOrderChecker);
  attached_ = true;
  if (options_.deadlock_detection) {
    world_->set_deadlock_handler([this] { on_quiescence(); });
    handler_installed_ = true;
  }
}

MpiChecker::~MpiChecker() { detach(); }

void MpiChecker::detach() {
  if (handler_installed_) {
    world_->set_deadlock_handler(nullptr);
    handler_installed_ = false;
  }
  if (attached_) {
    world_->tool_stack().detach(this);
    attached_ = false;
  }
}

void MpiChecker::on_call_begin(mpisim::Ctx& ctx, const CallInfo& info) {
  handle_begin(ctx, info);
}

void MpiChecker::on_call_end(mpisim::Ctx& ctx, const CallInfo& info) {
  handle_end(ctx, info);
}

void MpiChecker::on_section_enter(mpisim::Ctx& ctx, mpisim::Comm& comm,
                                  const char* label, char* data) {
  (void)data;
  lint_.on_event(ctx.rank(), comm.context_id(), /*enter=*/true, label,
                 ctx.now());
}

void MpiChecker::on_section_leave(mpisim::Ctx& ctx, mpisim::Comm& comm,
                                  const char* label, char* data) {
  (void)data;
  lint_.on_event(ctx.rank(), comm.context_id(), /*enter=*/false, label,
                 ctx.now());
}

void MpiChecker::on_section_error(mpisim::Ctx& ctx, mpisim::Comm& comm,
                                  const char* label, int code) {
  (void)comm;
  lint_.on_error(ctx.rank(), label, code, ctx.now(), sink_);
}

void MpiChecker::on_comm_create(mpisim::Ctx& ctx,
                                const mpisim::CommLifecycle& info) {
  comms_.on_create(info, ctx.now());
}

void MpiChecker::on_comm_free(mpisim::Ctx& ctx, int context) {
  comms_.on_free(ctx.rank(), context);
}

int MpiChecker::peer_world(int context, int comm_rank) const {
  if (comm_rank < 0) return -1;
  return comms_.world_rank_of(context, comm_rank);
}

void MpiChecker::handle_begin(mpisim::Ctx& ctx, const CallInfo& info) {
  const int wr = ctx.rank();
  switch (info.call) {
    case MpiCall::Isend:
      resources_.on_request_start(wr, info);
      consistency_.on_send(wr, peer_world(info.comm_context, info.peer), info);
      break;
    case MpiCall::Irecv:
      resources_.on_request_start(wr, info);
      consistency_.on_recv(wr, peer_world(info.comm_context, info.peer), info);
      break;
    case MpiCall::Send:
      consistency_.on_send(wr, peer_world(info.comm_context, info.peer), info);
      waitgraph_.block(wr, info.call, info.comm_context,
                       peer_world(info.comm_context, info.peer),
                       info.t_virtual);
      break;
    case MpiCall::Recv:
      consistency_.on_recv(wr, peer_world(info.comm_context, info.peer), info);
      waitgraph_.block(wr, info.call, info.comm_context,
                       peer_world(info.comm_context, info.peer),
                       info.t_virtual);
      break;
    case MpiCall::Probe:
      waitgraph_.block(wr, info.call, info.comm_context,
                       peer_world(info.comm_context, info.peer),
                       info.t_virtual);
      break;
    case MpiCall::Sendrecv:
      // Matching becomes ambiguous for the observer — taint the pairs.
      consistency_.on_sendrecv(wr, info.comm_context);
      waitgraph_.block(wr, info.call, info.comm_context,
                       peer_world(info.comm_context, info.peer),
                       info.t_virtual);
      break;
    case MpiCall::Wait: {
      // Give the wait a direction from the request it completes.
      CallInfo start;
      int pw = -1;
      if (resources_.lookup_open(wr, info.request, &start)) {
        pw = peer_world(start.comm_context, start.peer);
      }
      waitgraph_.block(wr, info.call, info.comm_context, pw, info.t_virtual);
      break;
    }
    case MpiCall::Test: {
      // A test poll can park (spin budget exhausted) between its begin and
      // end hooks, so it participates in the wait graph exactly like Wait;
      // a completed or yielding poll unblocks immediately at end.
      CallInfo start;
      int pw = -1;
      if (resources_.lookup_open(wr, info.request, &start)) {
        pw = peer_world(start.comm_context, start.peer);
      }
      waitgraph_.block(wr, info.call, info.comm_context, pw, info.t_virtual);
      break;
    }
    case MpiCall::Iallreduce:
    case MpiCall::Ibarrier:
      // Nonblocking collectives: the post opens a request (completed by
      // Wait) and must line up across members like any collective.
      resources_.on_request_start(wr, info);
      consistency_.on_collective(wr, info);
      break;
    default:
      if (mpisim::is_collective(info.call)) {
        consistency_.on_collective(wr, info);
        if (mpisim::is_blocking(info.call)) {
          waitgraph_.block(wr, info.call, info.comm_context, -1,
                           info.t_virtual);
        }
      }
      break;
  }
}

void MpiChecker::handle_end(mpisim::Ctx& ctx, const CallInfo& info) {
  const int wr = ctx.rank();
  switch (info.call) {
    case MpiCall::Wait:
      resources_.on_request_complete(wr, info.request);
      waitgraph_.unblock(wr, info.call, info.comm_context);
      break;
    case MpiCall::Finalize:
      waitgraph_.set_finished(wr);
      break;
    case MpiCall::Test:
      waitgraph_.unblock(wr, info.call, info.comm_context);
      break;
    case MpiCall::Isend:
    case MpiCall::Irecv:
    case MpiCall::Iallreduce:
    case MpiCall::Ibarrier:
      break;  // nonblocking: tracked at begin, completed by Wait
    default:
      if (mpisim::is_blocking(info.call)) {
        waitgraph_.unblock(wr, info.call, info.comm_context);
      }
      break;
  }
}

void MpiChecker::on_rank_init(mpisim::Ctx& ctx) {
  waitgraph_.set_running(ctx.rank());
}

void MpiChecker::on_rank_finalize(mpisim::Ctx& ctx) { (void)ctx; }

void MpiChecker::on_quiescence() {
  // Runs on whichever rank task (or scheduler worker) proved quiescence.
  // The scheduler fires at most once per run, but an abort already in
  // flight can race the proof — don't double-report.
  if (deadlock_reported_.load() || world_->aborted()) return;

  // A hang under an active fault plan whose kills or message losses fired
  // is the plan working as injected, not a native deadlock — classify it
  // as such, naming the faulting ranks, and skip the cycle analysis.
  if (auto* fe = world_->fault_engine();
      fe != nullptr && (fe->any_kill_fired() || fe->any_loss())) {
    const auto states = waitgraph_.snapshot();
    double t_max = 0.0;
    std::string blocked;
    for (std::size_t r = 0; r < states.size(); ++r) {
      const auto& st = states[r];
      if (st.phase != RankWaitState::Phase::Blocked) continue;
      if (!blocked.empty()) blocked += "; ";
      blocked += "rank " + std::to_string(r) + " blocked in " +
                 mpisim::mpi_call_name(st.call);
      t_max = st.t_virtual > t_max ? st.t_virtual : t_max;
    }
    for (const int r : fe->killed_ranks()) {
      Diagnostic d;
      d.category = Category::InjectedFault;
      d.severity = Severity::Error;
      d.rank = r;
      d.t_virtual = fe->counters(r).kill_time;
      d.site = "fault plan";
      d.message = "rank " + std::to_string(r) +
                  " was killed by the fault plan at t=" +
                  std::to_string(fe->counters(r).kill_time) +
                  "; surviving ranks blocked waiting on it" +
                  (blocked.empty() ? std::string() : " (" + blocked + ")");
      sink_.emit(std::move(d));
    }
    if (fe->killed_ranks().empty()) {
      Diagnostic d;
      d.category = Category::InjectedFault;
      d.severity = Severity::Error;
      d.t_virtual = t_max;
      d.site = "fault plan";
      d.message =
          "world quiescent after injected message loss (retransmit budget "
          "exhausted): " +
          fe->summary() +
          (blocked.empty() ? std::string() : " (" + blocked + ")");
      sink_.emit(std::move(d));
    }
    deadlock_reported_.store(true);
    world_->abort();  // wake the blocked ranks with Err::Aborted
    return;
  }

  report_deadlock(waitgraph_.snapshot());
}

void MpiChecker::report_deadlock(const std::vector<RankWaitState>& states) {
  const WaitGraph::Analysis analysis = WaitGraph::analyze(states, comms_);
  if (analysis.cycles.empty() && analysis.orphans.empty()) {
    // Quiescence is exact — the world IS deadlocked even when the wait
    // graph can't name a cycle (e.g. a rank blocked below the hook layer).
    // Report what is known instead of staying silent.
    Diagnostic d;
    d.category = Category::Deadlock;
    d.severity = Severity::Error;
    double t_max = 0.0;
    std::string detail;
    bool test_loop = false;
    for (std::size_t r = 0; r < states.size(); ++r) {
      const auto& st = states[r];
      if (st.phase != RankWaitState::Phase::Blocked) continue;
      if (st.call == MpiCall::Test) test_loop = true;
      if (d.rank < 0) {
        d.rank = static_cast<int>(r);
        d.comm_context = st.comm_context;
        d.site = mpisim::mpi_call_name(st.call);
      }
      if (!detail.empty()) detail += "; ";
      detail += "rank " + std::to_string(r) + " blocked in " +
                mpisim::mpi_call_name(st.call);
      t_max = st.t_virtual > t_max ? st.t_virtual : t_max;
    }
    d.t_virtual = t_max;
    // A rank parked inside MPI_Test distinguishes the classic test-loop
    // livelock (polling a request whose completion never arrives) from an
    // opaque deadlock below the hook layer.
    d.message =
        (test_loop
             ? std::string("test-loop livelock: rank(s) polling MPI_Test on "
                           "a request whose completion can never arrive")
             : std::string("world quiescent: no rank can make progress, but "
                           "no wait-for cycle is provable from the observed "
                           "calls")) +
        (detail.empty() ? std::string() : " (" + detail + ")");
    sink_.emit(std::move(d));
    deadlock_reported_.store(true);
    world_->abort();  // wake the blocked ranks with Err::Aborted
    return;
  }

  for (const auto& cycle : analysis.cycles) {
    Diagnostic d;
    d.category = Category::Deadlock;
    d.severity = Severity::Error;
    d.rank = cycle.ranks.front();
    std::string chain;
    std::string detail;
    double t_max = 0.0;
    for (const int r : cycle.ranks) {
      const auto& st = states[static_cast<std::size_t>(r)];
      if (!chain.empty()) chain += "->";
      chain += std::to_string(r);
      if (!detail.empty()) detail += "; ";
      detail += "rank " + std::to_string(r) + " blocked in " +
                mpisim::mpi_call_name(st.call) + " on context " +
                std::to_string(st.comm_context);
      if (!st.collective) {
        detail += st.peer_world >= 0
                      ? " (peer " + std::to_string(st.peer_world) + ")"
                      : " (any source)";
      }
      t_max = st.t_virtual > t_max ? st.t_virtual : t_max;
    }
    chain += "->" + std::to_string(cycle.ranks.front());
    const auto& first = states[static_cast<std::size_t>(cycle.ranks.front())];
    d.comm_context = first.comm_context;
    d.t_virtual = t_max;
    d.site = mpisim::mpi_call_name(first.call);
    d.message = "wait-for cycle " + chain + ": " + detail;
    sink_.emit(std::move(d));
  }

  for (const auto& [waiter, peer] : analysis.orphans) {
    const auto& st = states[static_cast<std::size_t>(waiter)];
    Diagnostic d;
    d.category = Category::Deadlock;
    d.severity = Severity::Error;
    d.rank = waiter;
    d.comm_context = st.comm_context;
    d.t_virtual = st.t_virtual;
    d.site = mpisim::mpi_call_name(st.call);
    d.message = "rank " + std::to_string(waiter) + " blocked in " +
                mpisim::mpi_call_name(st.call) + " waiting on rank " +
                std::to_string(peer) + ", which already reached MPI_Finalize";
    sink_.emit(std::move(d));
  }

  deadlock_reported_.store(true);
  world_->abort();  // wake the blocked ranks with Err::Aborted
}

void MpiChecker::analyze() {
  if (analyzed_.exchange(true)) return;
  // An aborted run (deadlock, error unwind) truncates every rank's log at
  // an arbitrary point — the passes keep their prefix comparisons but drop
  // the "never happened" classes, which would all fire spuriously. A rank
  // killed by the fault plan truncates its own log the same way even when
  // the world finished gracefully.
  const auto* fe = world_->fault_engine();
  const bool aborted =
      world_->aborted() || (fe != nullptr && fe->any_kill_fired());
  resources_.analyze(comms_, sink_, aborted);
  consistency_.analyze(comms_, sink_, aborted);
  lint_.analyze(comms_, sink_, aborted);
}

}  // namespace mpisect::checker

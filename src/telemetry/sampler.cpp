#include "telemetry/sampler.hpp"

#include <algorithm>
#include <cmath>

#include "mpisim/comm.hpp"
#include "support/log.hpp"

namespace mpisect::telemetry {

std::shared_ptr<TelemetrySampler> TelemetrySampler::install(
    mpisim::World& world, SamplerOptions options) {
  if (auto existing = world.shared_extension<TelemetrySampler>()) {
    return existing;
  }
  auto self = std::make_shared<TelemetrySampler>(world, options);
  world.attach_extension(self);
  return self;
}

TelemetrySampler::TelemetrySampler(mpisim::World& world,
                                   SamplerOptions options)
    : world_(&world),
      options_(options),
      registry_(world.size()),
      eager_threshold_(world.machine().net.eager_threshold) {
  ranks_.reserve(static_cast<std::size_t>(world.size()));
  for (int r = 0; r < world.size(); ++r) {
    ranks_.push_back(std::make_unique<RankState>());
  }
  if (options_.standard_instruments) {
    const Scope R = Scope::Rank;
    std_.msgs_sent = registry_.add_counter("mpi.msgs_sent", R,
                                           "point-to-point and collective-"
                                           "internal messages deposited",
                                           "messages");
    std_.bytes_sent =
        registry_.add_counter("mpi.bytes_sent", R, "payload bytes deposited",
                              "bytes");
    std_.msgs_eager = registry_.add_counter(
        "mpi.msgs_eager", R, "messages at or under the eager threshold",
        "messages");
    std_.msgs_rendezvous = registry_.add_counter(
        "mpi.msgs_rendezvous", R, "messages over the eager threshold",
        "messages");
    std_.recvs_posted = registry_.add_counter("mpi.recvs_posted", R,
                                              "receives posted", "messages");
    std_.msgs_received = registry_.add_counter(
        "mpi.msgs_received", R, "receives completed", "messages");
    std_.bytes_received = registry_.add_counter(
        "mpi.bytes_received", R, "payload bytes received", "bytes");
    std_.probes =
        registry_.add_counter("mpi.probes", R, "probes that matched", "calls");
    std_.coll_entries = registry_.add_counter(
        "mpi.coll_entries", R, "collective entry overheads charged", "calls");
    std_.nbc_posted = registry_.add_counter(
        "progress.nbc_posted", R, "nonblocking collectives posted", "calls");
    std_.nbc_completed = registry_.add_counter(
        "progress.nbc_completed", R, "nonblocking collective fences completed",
        "calls");
    std_.test_calls = registry_.add_counter(
        "progress.test_calls", Scope::Process,
        "MPI_Test polls (scheduling-dependent, hence process scope)",
        "calls");
    std_.mpi_calls = registry_.add_counter(
        "mpi.calls", R, "intercepted MPI entry points", "calls");
    std_.section_enters = registry_.add_counter(
        "sections.enters", R, "MPIX_Section entries", "sections");
    std_.omp_regions = registry_.add_counter(
        "omp.regions", R, "MiniOMP worksharing regions charged", "regions");
    std_.omp_compute_s = registry_.add_counter(
        "omp.compute_seconds", R, "parallel compute charged", "seconds");
    std_.omp_imbalance_s = registry_.add_counter(
        "omp.imbalance_seconds", R, "schedule imbalance charged", "seconds");
    std_.omp_overhead_s = registry_.add_counter(
        "omp.overhead_seconds", R, "fork/join overhead charged", "seconds");
    std_.fault_drops = registry_.add_counter(
        "faults.drops", R, "injected wire-attempt drops (retransmitted)",
        "messages");
    std_.fault_lost = registry_.add_counter(
        "faults.lost", R, "messages lost after retransmit budget exhausted",
        "messages");
    std_.fault_duplicates = registry_.add_counter(
        "faults.duplicates", R, "duplicate deliveries injected", "messages");
    std_.fault_retransmit_s = registry_.add_counter(
        "faults.retransmit_seconds", R, "retransmit delay charged to wires",
        "seconds");
    std_.fault_stalls = registry_.add_counter(
        "faults.stalls", R, "rank stall events taken", "events");
    std_.fault_stall_s = registry_.add_counter(
        "faults.stall_seconds", R, "stall seconds charged", "seconds");
    std_.fault_kills = registry_.add_counter(
        "faults.kills", R, "rank kills fired by the fault plan", "events");
    std_.send_queue_depth = registry_.add_distribution(
        "channel.send_queue_depth", 0.0, 64.0, 16,
        "unmatched messages in the destination channel after a deposit",
        "messages");
    std_.recv_queue_depth = registry_.add_distribution(
        "channel.recv_queue_depth", 0.0, 64.0, 16,
        "unmatched posted receives after a post", "messages");
  }
  world.tool_stack().attach(this, mpisim::hooks::kOrderTelemetry);
  attached_ = true;
  MPISECT_LOG_DEBUG("telemetry: sampler installed, dt=%g ring=%zu",
                    options_.dt, options_.ring_capacity);
}

TelemetrySampler::~TelemetrySampler() { detach(); }

void TelemetrySampler::detach() {
  if (!attached_) return;
  world_->tool_stack().detach(this);
  attached_ = false;
}

void TelemetrySampler::on_section_enter(mpisim::Ctx& ctx,
                                        mpisim::Comm& /*comm*/,
                                        const char* label, char* /*data*/) {
  RankState& rs = state(ctx);
  advance(rs, ctx.rank(), ctx.now());
  rs.stack.push_back(labels_.intern(label));
  registry_.inc(std_.section_enters, ctx.rank());
}

void TelemetrySampler::on_section_leave(mpisim::Ctx& ctx,
                                        mpisim::Comm& /*comm*/,
                                        const char* /*label*/,
                                        char* /*data*/) {
  RankState& rs = state(ctx);
  advance(rs, ctx.rank(), ctx.now());
  if (!rs.stack.empty()) rs.stack.pop_back();
}

void TelemetrySampler::on_call_begin(mpisim::Ctx& ctx,
                                     const mpisim::CallInfo& info) {
  RankState& rs = state(ctx);
  advance(rs, ctx.rank(), info.t_virtual);
  ++rs.call_depth;
  registry_.inc(std_.mpi_calls, ctx.rank());
}

void TelemetrySampler::on_call_end(mpisim::Ctx& ctx,
                                   const mpisim::CallInfo& info) {
  RankState& rs = state(ctx);
  advance(rs, ctx.rank(), info.t_virtual);
  if (rs.call_depth > 0) --rs.call_depth;
}

void TelemetrySampler::on_send_post(mpisim::Ctx& ctx,
                                    const mpisim::TapSend& tap) {
  RankState& rs = state(ctx);
  advance(rs, ctx.rank(), ctx.now());
  registry_.inc(std_.msgs_sent, ctx.rank());
  registry_.inc(std_.bytes_sent, ctx.rank(), static_cast<double>(tap.bytes));
  registry_.inc(tap.bytes > eager_threshold_ ? std_.msgs_rendezvous
                                             : std_.msgs_eager,
                ctx.rank());
  registry_.observe(std_.send_queue_depth,
                    static_cast<double>(tap.queue_depth));
}

void TelemetrySampler::on_recv_post(mpisim::Ctx& ctx,
                                    const mpisim::TapRecvPost& tap) {
  RankState& rs = state(ctx);
  advance(rs, ctx.rank(), ctx.now());
  registry_.inc(std_.recvs_posted, ctx.rank());
  registry_.observe(std_.recv_queue_depth,
                    static_cast<double>(tap.queue_depth));
}

void TelemetrySampler::on_recv_wait(mpisim::Ctx& ctx,
                                    const mpisim::TapRecvWait& tap) {
  RankState& rs = state(ctx);
  advance(rs, ctx.rank(), ctx.now());
  registry_.inc(std_.msgs_received, ctx.rank());
  registry_.inc(std_.bytes_received, ctx.rank(),
                static_cast<double>(tap.bytes));
}

void TelemetrySampler::on_probe(mpisim::Ctx& ctx,
                                const mpisim::TapProbe& /*tap*/) {
  RankState& rs = state(ctx);
  advance(rs, ctx.rank(), ctx.now());
  registry_.inc(std_.probes, ctx.rank());
}

void TelemetrySampler::on_coll_entry(mpisim::Ctx& ctx, std::uint64_t /*op*/,
                                     double /*t_before*/) {
  RankState& rs = state(ctx);
  advance(rs, ctx.rank(), ctx.now());
  registry_.inc(std_.coll_entries, ctx.rank());
}

void TelemetrySampler::on_request_test(mpisim::Ctx& ctx,
                                       const mpisim::TapRequestTest& /*tap*/) {
  // No advance(): poll counts are scheduling-dependent, so this counter is
  // process-scoped and must stay out of the per-rank window series.
  registry_.inc(std_.test_calls, ctx.rank());
}

void TelemetrySampler::on_nbc_post(mpisim::Ctx& ctx,
                                   const mpisim::TapNbcPost& /*tap*/) {
  RankState& rs = state(ctx);
  advance(rs, ctx.rank(), ctx.now());
  registry_.inc(std_.nbc_posted, ctx.rank());
}

void TelemetrySampler::on_nbc_complete(mpisim::Ctx& ctx,
                                       const mpisim::TapNbcComplete& /*tap*/) {
  RankState& rs = state(ctx);
  advance(rs, ctx.rank(), ctx.now());
  registry_.inc(std_.nbc_completed, ctx.rank());
}

void TelemetrySampler::on_omp_region(mpisim::Ctx& ctx,
                                     const mpisim::TapOmpRegion& r) {
  RankState& rs = state(ctx);
  advance(rs, ctx.rank(), ctx.now());
  registry_.inc(std_.omp_regions, ctx.rank());
  registry_.inc(std_.omp_compute_s, ctx.rank(), r.compute);
  registry_.inc(std_.omp_imbalance_s, ctx.rank(), r.imbalance);
  registry_.inc(std_.omp_overhead_s, ctx.rank(), r.overhead);
}

void TelemetrySampler::on_fault(mpisim::Ctx& ctx, const mpisim::TapFault& f) {
  RankState& rs = state(ctx);
  advance(rs, ctx.rank(), ctx.now());
  switch (f.kind) {
    case mpisim::FaultKind::Drop:
      registry_.inc(std_.fault_drops, ctx.rank(),
                    static_cast<double>(f.attempts - 1));
      registry_.inc(std_.fault_retransmit_s, ctx.rank(), f.seconds);
      break;
    case mpisim::FaultKind::Loss:
      registry_.inc(std_.fault_lost, ctx.rank());
      registry_.inc(std_.fault_drops, ctx.rank(),
                    static_cast<double>(f.attempts - 1));
      registry_.inc(std_.fault_retransmit_s, ctx.rank(), f.seconds);
      break;
    case mpisim::FaultKind::Duplicate:
      registry_.inc(std_.fault_duplicates, ctx.rank());
      break;
    case mpisim::FaultKind::Stall:
      registry_.inc(std_.fault_stalls, ctx.rank());
      registry_.inc(std_.fault_stall_s, ctx.rank(), f.seconds);
      break;
    case mpisim::FaultKind::Kill:
      registry_.inc(std_.fault_kills, ctx.rank());
      break;
  }
}

void TelemetrySampler::attribute(RankState& rs, double d) {
  if (d <= 0.0) return;
  if (!rs.stack.empty()) {
    std::size_t idx = rs.stack.size() - 1;
    if (options_.phase_depth > 0) {
      idx = std::min(idx, static_cast<std::size_t>(options_.phase_depth));
    }
    const sections::LabelId id = rs.stack[idx];
    if (id >= rs.busy.size()) rs.busy.resize(id + 1, 0.0);
    if (rs.busy[id] == 0.0) rs.touched.push_back(id);
    rs.busy[id] += d;
  }
  if (rs.call_depth > 0) rs.mpi_seconds += d;
}

void TelemetrySampler::flush_window(RankState& rs, int rank) {
  Sample s;
  s.interval = rs.window;
  std::sort(rs.touched.begin(), rs.touched.end());
  s.sections.reserve(rs.touched.size());
  for (const sections::LabelId id : rs.touched) {
    s.sections.emplace_back(id, rs.busy[id]);
    rs.busy[id] = 0.0;
  }
  rs.touched.clear();
  s.mpi_seconds = rs.mpi_seconds;
  registry_.snapshot_rank(rank, rs.scratch);
  s.deltas.resize(rs.scratch.size());
  for (std::size_t i = 0; i < rs.scratch.size(); ++i) {
    s.deltas[i] = rs.scratch[i] - rs.last_snapshot[i];
  }
  rs.last_snapshot = rs.scratch;
  rs.mpi_seconds = 0.0;

  const std::lock_guard lock(rs.mu);
  rs.ring.push_back(std::move(s));
  if (rs.ring.size() > options_.ring_capacity) {
    rs.ring.pop_front();
    ++rs.dropped;
  }
}

void TelemetrySampler::advance(RankState& rs, int rank, double t) {
  if (!rs.active) return;
  if (t < rs.t_last) t = rs.t_last;  // defensive: clocks are monotone
  const double dt = options_.dt;
  if (dt <= 0.0) {
    rs.t_last = t;
    return;
  }
  while (true) {
    const double wend = static_cast<double>(rs.window + 1) * dt;
    if (t < wend) break;
    if (!within_bound(rs)) return;
    attribute(rs, wend - rs.t_last);
    rs.t_last = wend;
    flush_window(rs, rank);
    ++rs.window;
  }
  attribute(rs, t - rs.t_last);
  rs.t_last = t;
}

void TelemetrySampler::on_rank_init(mpisim::Ctx& ctx) {
  RankState& rs = state(ctx);
  rs.t_last = ctx.now();
  rs.window =
      options_.dt > 0.0
          ? static_cast<std::uint64_t>(std::floor(rs.t_last / options_.dt))
          : 0;
  rs.stack.clear();
  rs.call_depth = 0;
  rs.busy.clear();
  rs.touched.clear();
  rs.mpi_seconds = 0.0;
  registry_.snapshot_rank(ctx.rank(), rs.last_snapshot);
  {
    const std::lock_guard lock(rs.mu);
    rs.ring.clear();
    rs.dropped = 0;
  }
  rs.active = true;
}

void TelemetrySampler::on_rank_finalize(mpisim::Ctx& ctx) {
  RankState& rs = state(ctx);
  advance(rs, ctx.rank(), ctx.now());
  // Flush the trailing partial window so the series covers the whole run.
  if (options_.dt > 0.0 && rs.active && within_bound(rs)) {
    flush_window(rs, ctx.rank());
  }
  rs.active = false;
}

bool TelemetrySampler::within_bound(RankState& rs) noexcept {
  if (rs.window < kMaxTimelineWindows) return true;
  bound_exceeded_.store(true);
  rs.active = false;
  return false;
}

std::vector<TelemetrySampler::Sample> TelemetrySampler::samples(
    int rank) const {
  const RankState& rs = *ranks_.at(static_cast<std::size_t>(rank));
  const std::lock_guard lock(rs.mu);
  return {rs.ring.begin(), rs.ring.end()};
}

std::uint64_t TelemetrySampler::dropped(int rank) const {
  const RankState& rs = *ranks_.at(static_cast<std::size_t>(rank));
  const std::lock_guard lock(rs.mu);
  return rs.dropped;
}

}  // namespace mpisect::telemetry

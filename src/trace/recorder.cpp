#include "trace/recorder.hpp"

#include <algorithm>

#include "mpisim/comm.hpp"

namespace mpisect::trace {

using mpisim::CallInfo;
using mpisim::MpiCall;

namespace {

/// Collectives that charge an entry overhead and whose internal traffic
/// the taps itemize. Split/dup are captured as CommSync events instead.
bool is_traced_collective(MpiCall c) noexcept {
  switch (c) {
    case MpiCall::Barrier:
    case MpiCall::Bcast:
    case MpiCall::Reduce:
    case MpiCall::Allreduce:
    case MpiCall::Scatter:
    case MpiCall::Scatterv:
    case MpiCall::Gather:
    case MpiCall::Gatherv:
    case MpiCall::Allgather:
    case MpiCall::Alltoall:
      return true;
    default:
      return false;
  }
}

}  // namespace

std::shared_ptr<TraceRecorder> TraceRecorder::install(mpisim::World& world,
                                                      RecorderOptions options) {
  if (auto existing = world.shared_extension<TraceRecorder>()) return existing;
  auto self = std::make_shared<TraceRecorder>(world, std::move(options));
  world.attach_extension(self);
  return self;
}

TraceRecorder::TraceRecorder(mpisim::World& world, RecorderOptions options)
    : world_(&world),
      options_(std::move(options)),
      bufs_(static_cast<std::size_t>(world.size())) {
  world.tool_stack().attach(this, mpisim::hooks::kOrderRecorder);
  attached_ = true;
}

TraceRecorder::~TraceRecorder() { detach(); }

void TraceRecorder::detach() {
  if (!attached_) return;
  world_->tool_stack().detach(this);
  attached_ = false;
}

Event& TraceRecorder::push(RankBuf& b, EventKind kind, double t_before) {
  Event ev;
  ev.kind = kind;
  ev.has_time = t_before != b.last_t;
  ev.t_before = t_before;
  b.events.push_back(ev);
  return b.events.back();
}

void TraceRecorder::on_begin(mpisim::Ctx& ctx, const CallInfo& info) {
  RankBuf& b = buf(ctx);
  if (info.call == MpiCall::Init) {
    b.reset(ctx.now());
    return;
  }
  if (info.call == MpiCall::Finalize) {
    const double now = ctx.now();
    Event& ev = push(b, EventKind::Finalize, now);
    ev.has_time = true;  // always timestamped: anchors the footer check
    b.t_final = now;
    b.finalized = true;
    b.last_t = now;
    return;
  }
  if (is_traced_collective(info.call)) {
    Event& ev = push(b, EventKind::CollBegin, ctx.now());
    ev.comm = info.comm_context;
    ev.label = static_cast<std::uint32_t>(info.call);
    ev.peer = info.peer;
    ev.bytes = info.bytes;
    // op backpatched by the on_coll_entry tap, which fires next.
  }
}

void TraceRecorder::on_end(mpisim::Ctx& ctx, const CallInfo& info) {
  if (!is_traced_collective(info.call)) return;
  RankBuf& b = buf(ctx);
  Event& ev = push(b, EventKind::CollEnd, ctx.now());
  ev.comm = info.comm_context;
  b.last_t = ctx.now();
}

void TraceRecorder::on_section(mpisim::Ctx& ctx, mpisim::Comm& comm,
                               const char* label, bool enter) {
  RankBuf& b = buf(ctx);
  const double now = ctx.now();
  const std::uint32_t id = intern(label);
  const int context = comm.context_id();
  Event& ev = push(b, enter ? EventKind::SectionEnter : EventKind::SectionExit,
                   now);
  ev.comm = context;
  ev.label = id;
  b.last_t = now;
  if (enter) {
    b.section_stack.emplace_back(context, id, now);
  } else if (!b.section_stack.empty()) {
    const auto [c, l, t_in] = b.section_stack.back();
    b.section_stack.pop_back();
    auto& [count, inclusive] = b.totals[{c, l}];
    ++count;
    inclusive += now - t_in;
  }
}

void TraceRecorder::on_call_begin(mpisim::Ctx& ctx, const CallInfo& info) {
  on_begin(ctx, info);
}

void TraceRecorder::on_call_end(mpisim::Ctx& ctx, const CallInfo& info) {
  on_end(ctx, info);
}

void TraceRecorder::on_section_enter(mpisim::Ctx& ctx, mpisim::Comm& comm,
                                     const char* label, char* /*data*/) {
  on_section(ctx, comm, label, /*enter=*/true);
}

void TraceRecorder::on_section_leave(mpisim::Ctx& ctx, mpisim::Comm& comm,
                                     const char* label, char* /*data*/) {
  on_section(ctx, comm, label, /*enter=*/false);
}

void TraceRecorder::on_pcontrol(mpisim::Ctx& ctx, int level,
                                const char* label) {
  RankBuf& b = buf(ctx);
  const double now = ctx.now();
  Event& ev = push(b, EventKind::Pcontrol, now);
  ev.peer = level;
  ev.label = intern(label);
  b.last_t = now;
}

void TraceRecorder::on_send_post(mpisim::Ctx& ctx, const mpisim::TapSend& t) {
  RankBuf& b = buf(ctx);
  const std::uint64_t ordinal = b.send_count++;
  b.open_sends[t.token] = ordinal;
  Event& ev = push(b, EventKind::SendPost, t.t_before);
  ev.comm = t.comm_context;
  ev.peer = t.dst_world;
  ev.tag = t.tag;
  ev.bytes = t.bytes;
  ev.seq = t.seq;
  ev.op = t.op;
  b.last_t = ctx.now();
}

void TraceRecorder::on_send_wait(mpisim::Ctx& ctx,
                                 const mpisim::TapSendWait& t) {
  RankBuf& b = buf(ctx);
  const auto it = b.open_sends.find(t.token);
  if (it != b.open_sends.end()) {
    Event& ev = push(b, EventKind::SendWait, t.t_before);
    ev.op = b.send_count - 1 - it->second;
    b.open_sends.erase(it);
    b.last_t = ctx.now();
  }
}

void TraceRecorder::on_recv_post(mpisim::Ctx& ctx,
                                 const mpisim::TapRecvPost& t) {
  RankBuf& b = buf(ctx);
  const std::uint64_t ordinal = b.recv_post_count++;
  b.open_recvs[t.token] = ordinal;
  b.recv_event_index[t.token] = b.events.size();
  Event& ev = push(b, EventKind::RecvPost, ctx.now());
  ev.comm = t.comm_context;
  ev.peer = Event::kUnmatched;
  ev.post_src = t.src_posted;
  ev.tag = t.tag_posted;
  b.last_t = ctx.now();
}

void TraceRecorder::on_recv_wait(mpisim::Ctx& ctx,
                                 const mpisim::TapRecvWait& t) {
  RankBuf& b = buf(ctx);
  const auto idx = b.recv_event_index.find(t.token);
  if (idx != b.recv_event_index.end()) {
    b.events[idx->second].peer = t.src_world;
    b.events[idx->second].seq = t.seq;
    b.recv_event_index.erase(idx);
  }
  const auto it = b.open_recvs.find(t.token);
  if (it != b.open_recvs.end()) {
    Event& ev = push(b, EventKind::RecvWait, t.t_before);
    ev.seq = b.recv_post_count - 1 - it->second;
    ev.op = t.op;
    b.open_recvs.erase(it);
    b.last_t = ctx.now();
  }
}

void TraceRecorder::on_probe(mpisim::Ctx& ctx, const mpisim::TapProbe& t) {
  RankBuf& b = buf(ctx);
  Event& ev = push(b, EventKind::Probe, t.t_before);
  ev.comm = t.comm_context;
  ev.peer = t.src_world;
  ev.seq = t.seq;
  ev.post_src = t.src_posted;
  ev.tag = t.tag_posted;
  b.last_t = ctx.now();
}

void TraceRecorder::on_nbc_post(mpisim::Ctx& ctx,
                                const mpisim::TapNbcPost& t) {
  RankBuf& b = buf(ctx);
  Event& ev = push(b, EventKind::NbcPost, t.t_before);
  ev.comm = t.comm_context;
  ev.label = static_cast<std::uint32_t>(t.call);
  ev.peer = t.members;
  ev.bytes = t.bytes;
  ev.seq = t.gen;
  ev.op = t.op;
  b.last_t = ctx.now();
}

void TraceRecorder::on_nbc_complete(mpisim::Ctx& ctx,
                                    const mpisim::TapNbcComplete& t) {
  RankBuf& b = buf(ctx);
  Event& ev = push(b, EventKind::NbcComplete, t.t_before);
  ev.comm = t.comm_context;
  ev.seq = t.gen;
  b.last_t = ctx.now();
}

void TraceRecorder::on_comm_sync(mpisim::Ctx& ctx,
                                 const mpisim::TapCommSync& t) {
  RankBuf& b = buf(ctx);
  Event& ev = push(b, EventKind::CommSync, t.t_before);
  ev.comm = t.comm_context;
  ev.peer = t.members;
  ev.seq = static_cast<std::uint64_t>(t.rounds);
  b.last_t = ctx.now();
}

void TraceRecorder::on_coll_entry(mpisim::Ctx& ctx, std::uint64_t op,
                                  double t_before) {
  RankBuf& b = buf(ctx);
  if (!b.events.empty() && b.events.back().kind == EventKind::CollBegin) {
    b.events.back().op = op;
    b.events.back().has_time = t_before != b.last_t;
    b.events.back().t_before = t_before;
  }
  b.last_t = ctx.now();
}

void TraceRecorder::label_remap(std::vector<std::string>& sorted,
                                std::vector<std::uint32_t>& remap) const {
  // Remap label ids to lexicographic order: interning order depends on
  // which rank thread saw a label first, and byte-identical files for
  // same-seed runs are a determinism guarantee of the format.
  const std::vector<std::string> names = labels_.all();
  sorted = names;
  std::sort(sorted.begin(), sorted.end());
  remap.resize(names.size());
  for (std::size_t old = 0; old < names.size(); ++old) {
    const auto it = std::lower_bound(sorted.begin(), sorted.end(), names[old]);
    remap[old] = static_cast<std::uint32_t>(it - sorted.begin());
  }
}

RankStream TraceRecorder::build_rank(
    int r, const std::vector<std::uint32_t>& remap) const {
  const RankBuf& b = bufs_[static_cast<std::size_t>(r)];
  RankStream rs;
  rs.rank = r;
  rs.t0 = b.t0;
  rs.t_final = b.t_final;
  rs.events = b.events;
  for (Event& ev : rs.events) {
    if (ev.kind == EventKind::SectionEnter ||
        ev.kind == EventKind::SectionExit ||
        ev.kind == EventKind::Pcontrol) {
      ev.label = remap[ev.label];
    }
  }
  for (const auto& [key, val] : b.totals) {
    rs.totals.push_back(SectionTotal{key.first, remap[key.second],
                                     val.first, val.second});
  }
  std::sort(rs.totals.begin(), rs.totals.end(),
            [](const SectionTotal& a, const SectionTotal& x) {
              return a.comm != x.comm ? a.comm < x.comm : a.label < x.label;
            });
  return rs;
}

TraceFile TraceRecorder::skeleton() const {
  TraceFile tf;
  tf.header.app = options_.app;
  tf.header.seed = world_->options().seed;
  tf.header.start_skew_sigma = world_->options().start_skew_sigma;
  tf.header.nranks = world_->size();
  tf.header.telemetry_dt = options_.telemetry_dt;
  tf.header.progress = world_->progress();
  // Note: world machine() already carries the opportunistic entry-overhead
  // fold applied at World construction, so a recorded-model replay needs
  // no progress arithmetic on the overhead draws.
  tf.header.machine = world_->machine();

  std::vector<std::uint32_t> remap;
  label_remap(tf.labels, remap);
  tf.ranks.reserve(static_cast<std::size_t>(world_->size()));
  for (int r = 0; r < world_->size(); ++r) {
    RankStream rs = build_rank(r, remap);
    rs.events.clear();
    rs.events.shrink_to_fit();
    tf.ranks.push_back(std::move(rs));
  }
  return tf;
}

RankStream TraceRecorder::finish_rank(int r) const {
  std::vector<std::string> sorted;
  std::vector<std::uint32_t> remap;
  label_remap(sorted, remap);
  return build_rank(r, remap);
}

TraceFile TraceRecorder::finish() const {
  TraceFile tf = skeleton();
  std::vector<std::string> sorted;
  std::vector<std::uint32_t> remap;
  label_remap(sorted, remap);
  for (int r = 0; r < world_->size(); ++r) {
    tf.ranks[static_cast<std::size_t>(r)] = build_rank(r, remap);
  }
  return tf;
}

std::uint64_t TraceRecorder::total_events() const noexcept {
  std::uint64_t n = 0;
  for (const auto& b : bufs_) n += b.events.size();
  return n;
}

void TraceRecorder::save(const std::string& path) const {
  std::vector<std::string> sorted;
  std::vector<std::uint32_t> remap;
  label_remap(sorted, remap);
  const TraceFile sk = skeleton();  // header + labels; ranks unused here
  TraceStreamWriter w(path, sk.header, sk.labels, world_->size());
  for (int r = 0; r < world_->size(); ++r) {
    w.write_rank(build_rank(r, remap));
  }
  w.close();
}

}  // namespace mpisect::trace

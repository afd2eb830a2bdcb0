#include "mpisim/comm.hpp"

#include <algorithm>
#include <cstring>
#include <map>

#include "mpisim/error.hpp"
#include "mpisim/faults/engine.hpp"
#include "mpisim/runtime.hpp"

namespace mpisect::mpisim {

// ---------------------------------------------------------------------------
// Group
// ---------------------------------------------------------------------------

Group::Group(std::vector<int> world_ranks)
    : world_ranks_(std::move(world_ranks)) {}

int Group::world_rank(int group_rank) const {
  require(group_rank >= 0 && group_rank < size(), Err::Rank,
          "group rank out of range");
  return world_ranks_[static_cast<std::size_t>(group_rank)];
}

int Group::rank_of_world(int world_rank) const noexcept {
  for (std::size_t i = 0; i < world_ranks_.size(); ++i) {
    if (world_ranks_[i] == world_rank) return static_cast<int>(i);
  }
  return -1;
}

// ---------------------------------------------------------------------------
// CommImpl
// ---------------------------------------------------------------------------

CommImpl::CommImpl(World& world, Group group, int context_id)
    : world_(world),
      group_(std::move(group)),
      context_id_(context_id),
      split_sync_(group_.size(), world.executor(), world.abort_flag()),
      publish_sync_(group_.size(), world.executor(), world.abort_flag()),
      u64_sync_(group_.size(), world.executor(), world.abort_flag()),
      nbc_sync_(group_.size(), world.executor(), world.abort_flag()) {
  const auto n = static_cast<std::size_t>(group_.size());
  // Channel slots start empty: channel(i) materializes rank i's matching
  // engine on first touch, so constructing a 65k-rank communicator costs
  // O(p) pointers, not O(p) mutex+waitpoint+queue structures.
  channels_ = std::make_unique<std::atomic<Channel*>[]>(n);
  for (std::size_t i = 0; i < n; ++i) {
    channels_[i].store(nullptr, std::memory_order_relaxed);
  }
  rank_states_.resize(n);
}

CommImpl::~CommImpl() {
  const auto n = static_cast<std::size_t>(group_.size());
  for (std::size_t i = 0; i < n; ++i) {
    delete channels_[i].load(std::memory_order_relaxed);
  }
}

Channel& CommImpl::channel(int comm_rank) {
  require(comm_rank >= 0 && comm_rank < size(), Err::Rank,
          "channel rank out of range");
  std::atomic<Channel*>& slot = channels_[static_cast<std::size_t>(comm_rank)];
  Channel* ch = slot.load(std::memory_order_acquire);
  if (ch != nullptr) return *ch;
  const std::lock_guard lock(chan_mu_);
  ch = slot.load(std::memory_order_relaxed);
  if (ch == nullptr) {
    // The channel belongs to comm rank `comm_rank`; queued bytes are
    // charged to that rank's world-level memory account.
    ch = new Channel(world_.executor(), world_.abort_flag(),
                     world_.progress().rendezvous_extra(),
                     &world_.mem_account().rank(group_.world_rank(comm_rank)),
                     &world_.records());
    slot.store(ch, std::memory_order_release);
  }
  return *ch;
}

CommImpl::RankState& CommImpl::rank_state(int comm_rank) {
  require(comm_rank >= 0 && comm_rank < size(), Err::Rank,
          "rank state out of range");
  return rank_states_[static_cast<std::size_t>(comm_rank)];
}

std::uint64_t& CommImpl::SendSeq::widen(int dst) {
  wide_ = std::make_unique<std::unordered_map<int, std::uint64_t>>();
  wide_->reserve(2 * kLinearMax);
  for (const Entry& e : entries_) wide_->emplace(e.dst, e.count);
  entries_ = {};
  return (*wide_)[dst];
}

// ---------------------------------------------------------------------------
// Raw (hook-free) point-to-point helpers
// ---------------------------------------------------------------------------

namespace {

// Records come from the world's pools. The sender (receiver) holds its
// party in the message (posted receive) from raw_start_send (raw_post_recv)
// until the matching finish, which releases it; a send or receive unwound
// by an abort keeps its record out of circulation until the world dies.

/// Begin a send: charge sender CPU overhead, stamp virtual times, deposit
/// into the destination channel. Returns the message for completion;
/// `channel_done` is set when the deposit already ended the channel's part
/// (matched a posted receive, or black-holed the message).
Message* raw_start_send(Ctx& ctx, CommImpl& impl, int my_rank,
                        const void* buf, std::size_t bytes, int dst, int tag,
                        bool& channel_done) {
  require(dst >= 0 && dst < impl.size(), Err::Rank, "send: bad destination");
  const NetworkModel& net = ctx.machine().net;
  auto& rs = impl.rank_state(my_rank);
  const int gsrc = impl.group().world_rank(my_rank);
  const int gdst = impl.group().world_rank(dst);
  const std::uint64_t seq = rs.send_seq[dst]++;

  const std::uint64_t op = ctx.next_op_id();
  const double t_before = ctx.now();
  ctx.clock().advance(net.cpu_overhead(gsrc, net.send_overhead, op, 0));

  Message* msg = ctx.world().records().messages.acquire();
  msg->src = my_rank;
  msg->tag = tag;
  msg->seq = seq;
  msg->bytes = bytes;
  if (buf != nullptr && bytes != 0) {
    const auto* p = static_cast<const std::byte*>(buf);
    msg->payload.assign(p, p + bytes);
  }
  msg->t_send_start = ctx.now();
  msg->wire_cost = net.transfer_cost(gsrc, gdst, bytes, seq);
  msg->rendezvous = bytes > net.eager_threshold;

  // Fault injection: the engine decides this message's fate from its
  // logical identity (edge, sequence number), so the decision is identical
  // across scheduler backends. Degradation and retransmit delay fold into
  // the wire cost; a lost message is flagged for the channel to black-hole.
  faults::WireFate fate;
  faults::FaultEngine* const fe = ctx.world().fault_engine();
  if (fe != nullptr) {
    fate = fe->wire_fate(gsrc, gdst, seq, msg->t_send_start,
                         tag >= kInternalTagBase);
    msg->wire_cost =
        msg->wire_cost * fate.cost_factor + fate.add_latency + fate.extra_delay;
    msg->fault_lost = fate.lost;
  }
  msg->t_avail = msg->t_send_start + msg->wire_cost;

  const std::size_t depth = impl.channel(dst).deposit(msg);
  channel_done = depth == 0;
  ctx.world().tool_stack().notify(
      &hooks::Tool::on_send_post, ctx,
      TapSend{msg, impl.context_id(), gsrc, gdst, tag, bytes, seq, op,
              t_before, depth});

  if (fe != nullptr && (fate.lost || fate.attempts > 1 || fate.duplicate)) {
    if (fate.duplicate && !fe->dedup_duplicates() && !fate.lost) {
      // Resilience off: the duplicate copy reaches the matching engine one
      // retransmit timeout behind the original, where it can corrupt
      // wildcard receives — exactly the hazard dedup exists to remove.
      Message* copy = ctx.world().records().messages.acquire();
      *copy = *msg;
      copy->parties_done = 1;  // no sender ever waits on the copy
      copy->fault_duplicate = true;
      copy->wire_cost += fe->plan().retransmit.rto;
      copy->t_avail = copy->t_send_start + copy->wire_cost;
      impl.channel(dst).deposit(copy);
    }
    if (auto& tools = ctx.world().tool_stack(); !tools.empty()) {
      TapFault tf;
      tf.kind = fate.lost ? FaultKind::Loss
                : fate.attempts > 1 ? FaultKind::Drop
                                    : FaultKind::Duplicate;
      tf.comm_context = impl.context_id();
      tf.src_world = gsrc;
      tf.dst_world = gdst;
      tf.seq = seq;
      tf.attempts = fate.attempts;
      tf.seconds = fate.extra_delay;
      tf.t = ctx.now();
      tools.notify(&hooks::Tool::on_fault, ctx, tf);
    }
  }
  return msg;
}

/// Complete a send: a rendezvous sender blocks until the transfer finishes.
void raw_finish_send(Ctx& ctx, CommImpl& impl, int dst, Message* msg,
                     bool channel_done) {
  const double t_before = ctx.now();
  Channel& ch = impl.channel(dst);
  if (msg->rendezvous) {
    const double t = ch.wait_delivered(msg);
    ctx.clock().sync_to(t);
    channel_done = true;
  }
  ctx.world().tool_stack().notify(&hooks::Tool::on_send_wait, ctx,
                                  TapSendWait{msg, t_before});
  ch.release(msg, channel_done);
}

PostedRecv* raw_post_recv(Ctx& ctx, CommImpl& impl, int my_rank, void* buf,
                          std::size_t max_bytes, int src, int tag) {
  require(src == kAnySource || (src >= 0 && src < impl.size()), Err::Rank,
          "recv: bad source");
  PostedRecv* pr = ctx.world().records().recvs.acquire();
  pr->src = src;
  pr->tag = tag;
  pr->t_post = ctx.now();
  pr->buf = buf;
  pr->max_bytes = max_bytes;
  const std::size_t depth = impl.channel(my_rank).post(pr);
  if (auto& tools = ctx.world().tool_stack(); !tools.empty()) {
    const int src_posted =
        src == kAnySource ? kAnySource : impl.group().world_rank(src);
    tools.notify(&hooks::Tool::on_recv_post, ctx,
                 TapRecvPost{pr, impl.context_id(), depth, src_posted, tag});
  }
  return pr;
}

Status raw_finish_recv(Ctx& ctx, CommImpl& impl, int my_rank,
                       PostedRecv* pr) {
  const double t_before = ctx.now();
  Channel& ch = impl.channel(my_rank);
  Status st = ch.wait_recv(pr);
  ctx.clock().sync_to(st.t_complete);
  const NetworkModel& net = ctx.machine().net;
  const int grank = impl.group().world_rank(my_rank);
  const std::uint64_t op = ctx.next_op_id();
  ctx.clock().advance(net.cpu_overhead(grank, net.recv_overhead, op, 1));
  st.t_complete = ctx.now();
  if (auto& tools = ctx.world().tool_stack(); !tools.empty()) {
    tools.notify(&hooks::Tool::on_recv_wait, ctx,
                 TapRecvWait{pr, impl.context_id(),
                             impl.group().world_rank(st.source), st.seq,
                             st.bytes, op, t_before});
  }
  ch.release(pr, /*channel_done=*/true);
  return st;
}

}  // namespace

// ---------------------------------------------------------------------------
// Hook plumbing
// ---------------------------------------------------------------------------

namespace {

CallInfo make_info(const Comm& comm, MpiCall call, int peer, std::size_t bytes,
                   int tag) {
  CallInfo ci;
  ci.call = call;
  ci.comm_context = comm.context_id();
  ci.rank = comm.rank();
  ci.comm_size = comm.size();
  ci.peer = peer;
  ci.tag = tag;
  ci.bytes = bytes;
  ci.t_virtual = comm.ctx().now();
  return ci;
}

void fire_begin(Ctx& ctx, CallInfo& ci) {
  if (auto& tools = ctx.world().tool_stack(); !tools.empty()) {
    ci.t_virtual = ctx.now();
    tools.notify(&hooks::Tool::on_call_begin, ctx, ci);
  }
}

void fire_end(Ctx& ctx, CallInfo& ci) {
  if (auto& tools = ctx.world().tool_stack(); !tools.empty()) {
    ci.t_virtual = ctx.now();
    tools.notify_reverse(&hooks::Tool::on_call_end, ctx, ci);
  }
}

/// Notify tools that the caller became a member of a new communicator.
void fire_comm_create(Ctx& ctx, CommImpl& impl, int parent_context,
                      int comm_rank) {
  auto& tools = ctx.world().tool_stack();
  if (tools.empty()) return;
  CommLifecycle info;
  info.context = impl.context_id();
  info.parent_context = parent_context;
  info.rank = comm_rank;
  info.size = impl.size();
  info.world_ranks = &impl.group().world_ranks();
  tools.notify(&hooks::Tool::on_comm_create, ctx, info);
}

/// RAII begin/end bracket for one intercepted call. Doubles as the MPI-call
/// fault checkpoint: a due stall or kill fires before the begin hook, so a
/// killed rank never emits an unbalanced begin/end pair.
class HookScope {
 public:
  HookScope(Ctx& ctx, CallInfo ci) : ctx_(ctx), ci_(ci) {
    ctx_.fault_checkpoint();
    fire_begin(ctx_, ci_);
  }
  ~HookScope() { fire_end(ctx_, ci_); }
  HookScope(const HookScope&) = delete;
  HookScope& operator=(const HookScope&) = delete;

 private:
  Ctx& ctx_;
  CallInfo ci_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Comm: basics
// ---------------------------------------------------------------------------

int Comm::size() const noexcept { return impl_ ? impl_->size() : 0; }

int Comm::context_id() const noexcept {
  return impl_ ? impl_->context_id() : -1;
}

int Comm::world_rank_of(int comm_rank) const {
  require(valid(), Err::Comm, "null communicator");
  return impl_->group().world_rank(comm_rank);
}

double Comm::wtime() const noexcept { return ctx_->now(); }

void Comm::charge_collective_entry() {
  const NetworkModel& net = ctx_->machine().net;
  const int grank = impl_->group().world_rank(rank_);
  const std::uint64_t op = ctx_->next_op_id();
  const double t_before = ctx_->now();
  ctx_->clock().advance(net.cpu_overhead(grank, net.send_overhead, op, 2));
  ctx_->world().tool_stack().notify(&hooks::Tool::on_coll_entry, *ctx_, op,
                                    t_before);
}

int Comm::next_internal_tag() {
  auto& rs = impl_->rank_state(rank_);
  return kInternalTagBase + static_cast<int>(rs.coll_seq++ % 1024);
}

// ---------------------------------------------------------------------------
// Comm: point-to-point
// ---------------------------------------------------------------------------

void Comm::send(const void* buf, std::size_t bytes, int dst, int tag) {
  require(valid(), Err::Comm, "null communicator");
  require(tag >= 0 && tag < kTagUb, Err::Tag, "user tag out of range");
  const HookScope hook(*ctx_, make_info(*this, MpiCall::Send, dst, bytes, tag));
  bool done = false;
  Message* msg =
      raw_start_send(*ctx_, *impl_, rank_, buf, bytes, dst, tag, done);
  raw_finish_send(*ctx_, *impl_, dst, msg, done);
}

Status Comm::recv(void* buf, std::size_t max_bytes, int src, int tag) {
  require(valid(), Err::Comm, "null communicator");
  require(tag == kAnyTag || (tag >= 0 && tag < kTagUb), Err::Tag,
          "user tag out of range");
  const HookScope hook(*ctx_, make_info(*this, MpiCall::Recv, src, max_bytes, tag));
  PostedRecv* pr =
      raw_post_recv(*ctx_, *impl_, rank_, buf, max_bytes, src, tag);
  return raw_finish_recv(*ctx_, *impl_, rank_, pr);
}

void Comm::send_internal(const void* buf, std::size_t bytes, int dst,
                         int tag) {
  bool done = false;
  Message* msg =
      raw_start_send(*ctx_, *impl_, rank_, buf, bytes, dst, tag, done);
  raw_finish_send(*ctx_, *impl_, dst, msg, done);
}

Status Comm::recv_internal(void* buf, std::size_t max_bytes, int src,
                           int tag) {
  PostedRecv* pr =
      raw_post_recv(*ctx_, *impl_, rank_, buf, max_bytes, src, tag);
  return raw_finish_recv(*ctx_, *impl_, rank_, pr);
}

void Comm::sendrecv_internal(const void* sendbuf, std::size_t send_bytes,
                             int dst, void* recvbuf, std::size_t recv_bytes,
                             int src, int tag) {
  bool done = false;
  Message* msg = raw_start_send(*ctx_, *impl_, rank_, sendbuf, send_bytes,
                                dst, tag, done);
  PostedRecv* pr =
      raw_post_recv(*ctx_, *impl_, rank_, recvbuf, recv_bytes, src, tag);
  raw_finish_recv(*ctx_, *impl_, rank_, pr);
  raw_finish_send(*ctx_, *impl_, dst, msg, done);
}

Status Comm::sendrecv(const void* sendbuf, std::size_t send_bytes, int dst,
                      int send_tag, void* recvbuf, std::size_t recv_bytes,
                      int src, int recv_tag) {
  require(valid(), Err::Comm, "null communicator");
  const HookScope hook(
      *ctx_, make_info(*this, MpiCall::Sendrecv, dst, send_bytes, send_tag));
  bool done = false;
  Message* msg = raw_start_send(*ctx_, *impl_, rank_, sendbuf, send_bytes,
                                dst, send_tag, done);
  PostedRecv* pr =
      raw_post_recv(*ctx_, *impl_, rank_, recvbuf, recv_bytes, src, recv_tag);
  const Status st = raw_finish_recv(*ctx_, *impl_, rank_, pr);
  raw_finish_send(*ctx_, *impl_, dst, msg, done);
  return st;
}

Status Comm::probe(int src, int tag) {
  require(valid(), Err::Comm, "null communicator");
  const HookScope hook(*ctx_, make_info(*this, MpiCall::Probe, src, 0, tag));
  const double t_before = ctx_->now();
  const Status st = impl_->channel(rank_).probe(src, tag, ctx_->now());
  ctx_->clock().sync_to(st.t_complete);
  if (auto& tools = ctx_->world().tool_stack(); !tools.empty()) {
    const int src_posted =
        src == kAnySource ? kAnySource : impl_->group().world_rank(src);
    tools.notify(&hooks::Tool::on_probe, *ctx_,
                 TapProbe{impl_->context_id(),
                          impl_->group().world_rank(st.source), st.seq,
                          t_before, src_posted, tag});
  }
  return st;
}

Comm::Request Comm::isend(const void* buf, std::size_t bytes, int dst,
                          int tag) {
  require(valid(), Err::Comm, "null communicator");
  require(tag >= 0 && tag < kTagUb, Err::Tag, "user tag out of range");
  const std::uint64_t req_id = ctx_->next_request_id();
  {
    CallInfo ci = make_info(*this, MpiCall::Isend, dst, bytes, tag);
    ci.request = req_id;
    fire_begin(*ctx_, ci);
    fire_end(*ctx_, ci);
  }
  Request::State* st = ctx_->world().records().requests.acquire();
  st->kind = Request::Kind::Send;
  st->msg = raw_start_send(*ctx_, *impl_, rank_, buf, bytes, dst, tag,
                           st->channel_done);
  st->channel = &impl_->channel(dst);
  st->impl = impl_;
  st->pools = &ctx_->world().records();
  st->ctx = ctx_;
  st->peer = dst;
  st->comm_context = impl_->context_id();
  st->comm_rank = rank_;
  st->comm_size = impl_->size();
  st->id = req_id;
  return Request(st);
}

Comm::Request Comm::irecv(void* buf, std::size_t max_bytes, int src, int tag) {
  require(valid(), Err::Comm, "null communicator");
  const std::uint64_t req_id = ctx_->next_request_id();
  {
    CallInfo ci = make_info(*this, MpiCall::Irecv, src, max_bytes, tag);
    ci.request = req_id;
    fire_begin(*ctx_, ci);
    fire_end(*ctx_, ci);
  }
  Request::State* st = ctx_->world().records().requests.acquire();
  st->kind = Request::Kind::Recv;
  st->recv = raw_post_recv(*ctx_, *impl_, rank_, buf, max_bytes, src, tag);
  st->channel = &impl_->channel(rank_);
  st->impl = impl_;
  st->pools = &ctx_->world().records();
  st->ctx = ctx_;
  st->peer = src;
  st->comm_context = impl_->context_id();
  st->comm_rank = rank_;
  st->comm_size = impl_->size();
  st->id = req_id;
  return Request(st);
}

Comm::Request Comm::nbc_post(MpiCall call, const void* sendbuf, void* recvbuf,
                             int count, Datatype type, ReduceOp op,
                             std::size_t bytes) {
  const std::uint64_t req_id = ctx_->next_request_id();
  {
    CallInfo ci = make_info(*this, call, -1, bytes, -1);
    ci.request = req_id;
    fire_begin(*ctx_, ci);
    fire_end(*ctx_, ci);
  }
  // Charge the posting overhead on the collective-entry jitter stream
  // (salt 2), same as a blocking collective's entry. Not routed through
  // charge_collective_entry: the on_coll_entry tap backpatches the
  // preceding CollBegin trace event, which a nonblocking post doesn't have
  // — the op id travels in TapNbcPost instead.
  const NetworkModel& net = ctx_->machine().net;
  const int grank = impl_->group().world_rank(rank_);
  const std::uint64_t op_id = ctx_->next_op_id();
  const double t_before = ctx_->now();
  ctx_->clock().advance(net.cpu_overhead(grank, net.send_overhead, op_id, 2));

  auto& rs = impl_->rank_state(rank_);
  const std::uint64_t gen = rs.nbc_gen++;
  std::vector<std::byte> contribution;
  if (sendbuf != nullptr && bytes != 0) {
    const auto* p = static_cast<const std::byte*>(sendbuf);
    contribution.assign(p, p + bytes);
  }
  impl_->nbc_sync().post(gen, rank_, ctx_->now(), std::move(contribution));
  ctx_->world().tool_stack().notify(
      &hooks::Tool::on_nbc_post, *ctx_,
      TapNbcPost{impl_->context_id(), gen, call, size(), bytes, op_id,
                 t_before});

  Request::State* st = ctx_->world().records().requests.acquire();
  st->kind = Request::Kind::Coll;
  st->impl = impl_;
  st->pools = &ctx_->world().records();
  st->ctx = ctx_;
  st->comm_context = impl_->context_id();
  st->comm_rank = rank_;
  st->comm_size = impl_->size();
  st->id = req_id;
  st->nbc = std::make_unique<Request::NbcState>();
  st->nbc->call = call;
  st->nbc->gen = gen;
  st->nbc->bytes = bytes;
  st->nbc->count = count;
  st->nbc->type = type;
  st->nbc->op = op;
  st->nbc->recvbuf = recvbuf;
  return Request(st);
}

Comm::Request Comm::iallreduce(const void* sendbuf, void* recvbuf, int count,
                               Datatype type, ReduceOp op) {
  require(valid(), Err::Comm, "null communicator");
  require(count >= 0, Err::Count, "iallreduce: negative count");
  const std::size_t bytes =
      static_cast<std::size_t>(count) * datatype_size(type);
  return nbc_post(MpiCall::Iallreduce, sendbuf, recvbuf, count, type, op,
                  bytes);
}

Comm::Request Comm::ibarrier() {
  require(valid(), Err::Comm, "null communicator");
  return nbc_post(MpiCall::Ibarrier, nullptr, nullptr, 0, Datatype{},
                  ReduceOp{}, 0);
}

Status Comm::Request::wait() {
  require(s_ != nullptr, Err::Arg, "wait on null request");
  if (s_->done) return s_->status;
  Ctx& ctx = *s_->ctx;
  CallInfo ci;
  ci.call = MpiCall::Wait;
  ci.comm_context = s_->comm_context;
  ci.rank = s_->comm_rank;
  ci.comm_size = s_->comm_size;
  ci.peer = s_->peer;
  ci.request = s_->id;
  fire_begin(ctx, ci);
  if (s_->kind == Kind::Recv) {
    const double t_before = ctx.now();
    Status st = s_->channel->wait_recv(s_->recv);
    s_->channel_done = true;
    ctx.clock().sync_to(st.t_complete);
    const NetworkModel& net = ctx.machine().net;
    const std::uint64_t op = ctx.next_op_id();
    ctx.clock().advance(
        net.cpu_overhead(ctx.rank(), net.recv_overhead, op, 1));
    st.t_complete = ctx.now();
    s_->status = st;
    if (auto& tools = ctx.world().tool_stack(); !tools.empty()) {
      tools.notify(&hooks::Tool::on_recv_wait, ctx,
                   TapRecvWait{s_->recv, s_->comm_context,
                               s_->impl->group().world_rank(st.source),
                               st.seq, st.bytes, op, t_before});
    }
  } else if (s_->kind == Kind::Coll) {
    const double t_wait_entry = ctx.now();
    auto [values, max_post] = s_->impl->nbc_sync().fence(s_->nbc->gen);
    if (s_->nbc->call == MpiCall::Iallreduce && s_->nbc->recvbuf != nullptr &&
        !values.empty() && !values[0].empty()) {
      // Combine in comm-rank order so every member computes identical bytes
      // regardless of which rank fenced first.
      std::vector<std::byte> acc = values[0];
      for (std::size_t r = 1; r < values.size(); ++r) {
        apply_op(s_->nbc->op, s_->nbc->type, values[r].data(), acc.data(),
                 s_->nbc->count);
      }
      std::memcpy(s_->nbc->recvbuf, acc.data(), acc.size());
    }
    const ProgressModel& pm = ctx.world().progress();
    const double algo =
        ctx.machine().net.nbc_cost(s_->comm_size, s_->nbc->bytes);
    const double t_done = pm.nbc_complete_time(t_wait_entry, max_post, algo);
    ctx.clock().sync_to(t_done);
    s_->status = Status{kAnySource, -1, s_->nbc->bytes, ctx.now()};
    ctx.world().tool_stack().notify(
        &hooks::Tool::on_nbc_complete, ctx,
        TapNbcComplete{s_->comm_context, s_->nbc->gen, t_wait_entry, t_done});
  } else {
    const double t_before = ctx.now();
    if (s_->msg->rendezvous) {
      const double t = s_->channel->wait_delivered(s_->msg);
      ctx.clock().sync_to(t);
      s_->channel_done = true;
    }
    s_->status =
        Status{kAnySource, s_->msg->tag, s_->msg->bytes, ctx.now()};
    ctx.world().tool_stack().notify(&hooks::Tool::on_send_wait, ctx,
                                    TapSendWait{s_->msg, t_before});
  }
  s_->done = true;
  release_record();
  fire_end(ctx, ci);
  return s_->status;
}

void Comm::Request::release_record() noexcept {
  if (s_->msg != nullptr) {
    s_->channel->release(s_->msg, s_->channel_done);
    s_->msg = nullptr;
  }
  if (s_->recv != nullptr) {
    s_->channel->release(s_->recv, s_->channel_done);
    s_->recv = nullptr;
  }
}

void Comm::Request::retire() noexcept {
  release_record();
  s_->pools->requests.release(s_);
}

namespace {

/// Consecutive failed test() polls a request tolerates before the poller
/// parks on the completion event instead of yielding. Yielding keeps
/// latency low when the completing rank is about to run; parking bounds a
/// test loop whose peer never arrives, so the world still reaches exact
/// quiescence (where the checker classifies the livelock).
constexpr int kTestSpinBudget = 64;

}  // namespace

bool Comm::Request::test() {
  require(s_ != nullptr, Err::Arg, "test on null request");
  Ctx& ctx = *s_->ctx;
  CallInfo ci;
  ci.call = MpiCall::Test;
  ci.comm_context = s_->comm_context;
  ci.rank = s_->comm_rank;
  ci.comm_size = s_->comm_size;
  ci.peer = s_->peer;
  ci.request = s_->id;
  fire_begin(ctx, ci);
  bool completed = s_->done;
  if (!completed) {
    switch (s_->kind) {
      case Kind::Recv:
        completed = s_->channel->test_recv(s_->recv);
        break;
      case Kind::Send:
        completed = s_->channel->test_send(s_->msg);
        break;
      case Kind::Coll:
        completed = s_->impl->nbc_sync().ready(s_->nbc->gen);
        break;
    }
  }
  ctx.world().tool_stack().notify(&hooks::Tool::on_request_test, ctx,
                                  TapRequestTest{s_->id, completed, ctx.now()});
  if (completed) {
    s_->test_spins = 0;
  } else if (++s_->test_spins <= kTestSpinBudget) {
    // A failed poll must hand the CPU to the rank that would complete this
    // request — the historical bug was a cooperative test loop spinning
    // while its peer never got scheduled.
    ctx.world().executor().yield();
  } else {
    // Spin budget exhausted: park on the completion event. Done between
    // the begin and end hooks so a quiescent world shows this rank blocked
    // inside MPI_Test and the checker can name the test-loop livelock.
    switch (s_->kind) {
      case Kind::Recv:
        s_->channel->park_recv_incomplete(s_->recv);
        break;
      case Kind::Send:
        s_->channel->park_send_incomplete(s_->msg);
        break;
      case Kind::Coll:
        s_->impl->nbc_sync().park_not_ready(s_->nbc->gen);
        break;
    }
  }
  fire_end(ctx, ci);
  return completed;
}

void waitall(std::span<Comm::Request> requests) {
  Ctx* ctx = nullptr;
  for (auto& r : requests) {
    if (r.valid()) {
      ctx = r.s_->ctx;
      break;
    }
  }
  if (ctx == nullptr) return;
  if (ctx->world().progress().mode == ProgressMode::BlockingOnly) {
    // Historical semantics, kept bit-compatible: complete strictly in
    // index order, each request charging as its wait() reaches it.
    for (auto& r : requests) {
      if (r.valid()) r.wait();
    }
    return;
  }
  // Progress engines: completion is dated by delivery, not by array
  // position. Receives complete first in index order, then sends and
  // collective fences — a rendezvous send parked at a low index can no
  // longer delay dating a receive that completed earlier in virtual time,
  // and the result is invariant to request order within each class (every
  // send already deposited and every receive already posted at the isend/
  // irecv, so no completion here depends on another request in the span).
  for (auto& r : requests) {
    if (r.valid() && r.s_->kind == Comm::Request::Kind::Recv) r.wait();
  }
  for (auto& r : requests) {
    if (r.valid() && r.s_->kind != Comm::Request::Kind::Recv) r.wait();
  }
}

// ---------------------------------------------------------------------------
// Comm: collectives
// ---------------------------------------------------------------------------

void Comm::barrier() {
  require(valid(), Err::Comm, "null communicator");
  const HookScope hook(*ctx_, make_info(*this, MpiCall::Barrier, -1, 0, -1));
  charge_collective_entry();
  const int tag = next_internal_tag();
  const int p = size();
  // Dissemination barrier: ceil(log2 p) rounds of pairwise exchanges.
  for (int k = 1; k < p; k <<= 1) {
    const int dst = (rank_ + k) % p;
    const int src = (rank_ - k % p + p) % p;
    sendrecv_internal(nullptr, 0, dst, nullptr, 0, src, tag);
  }
}

void Comm::bcast_binomial(void* buf, std::size_t bytes, int root, int tag) {
  const int p = size();
  const int vr = (rank_ - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if ((vr & mask) != 0) {
      const int src = ((vr - mask) + root) % p;
      recv_internal(buf, bytes, src, tag);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vr + mask < p) {
      const int dst = ((vr + mask) + root) % p;
      send_internal(buf, bytes, dst, tag);
    }
    mask >>= 1;
  }
}

void Comm::bcast(void* buf, std::size_t bytes, int root) {
  require(valid(), Err::Comm, "null communicator");
  require(root >= 0 && root < size(), Err::Rank, "bcast: bad root");
  const HookScope hook(*ctx_, make_info(*this, MpiCall::Bcast, root, bytes, -1));
  charge_collective_entry();
  bcast_binomial(buf, bytes, root, next_internal_tag());
}

void Comm::reduce_binomial(const void* sendbuf, void* recvbuf, int count,
                           Datatype type, ReduceOp op, int root, int tag) {
  const int p = size();
  const std::size_t bytes =
      static_cast<std::size_t>(count) * datatype_size(type);
  const bool modeled = sendbuf == nullptr;

  std::vector<std::byte> acc;
  std::vector<std::byte> scratch;
  if (!modeled) {
    const auto* src = static_cast<const std::byte*>(sendbuf);
    acc.assign(src, src + bytes);
    scratch.resize(bytes);
  }

  const int vr = (rank_ - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if ((vr & mask) == 0) {
      const int peer_vr = vr | mask;
      if (peer_vr < p) {
        const int peer = (peer_vr + root) % p;
        recv_internal(modeled ? nullptr : scratch.data(), bytes, peer, tag);
        if (!modeled) apply_op(op, type, scratch.data(), acc.data(), count);
      }
    } else {
      const int peer = ((vr & ~mask) + root) % p;
      send_internal(modeled ? nullptr : acc.data(), bytes, peer, tag);
      break;
    }
    mask <<= 1;
  }
  if (rank_ == root && !modeled && recvbuf != nullptr) {
    std::memcpy(recvbuf, acc.data(), bytes);
  }
}

void Comm::reduce(const void* sendbuf, void* recvbuf, int count, Datatype type,
                  ReduceOp op, int root) {
  require(valid(), Err::Comm, "null communicator");
  require(root >= 0 && root < size(), Err::Rank, "reduce: bad root");
  require(count >= 0, Err::Count, "reduce: negative count");
  const std::size_t bytes =
      static_cast<std::size_t>(count) * datatype_size(type);
  const HookScope hook(*ctx_, make_info(*this, MpiCall::Reduce, root, bytes, -1));
  charge_collective_entry();
  reduce_binomial(sendbuf, recvbuf, count, type, op, root, next_internal_tag());
}

void Comm::allreduce(const void* sendbuf, void* recvbuf, int count,
                     Datatype type, ReduceOp op) {
  require(valid(), Err::Comm, "null communicator");
  require(count >= 0, Err::Count, "allreduce: negative count");
  const std::size_t bytes =
      static_cast<std::size_t>(count) * datatype_size(type);
  const HookScope hook(*ctx_,
                       make_info(*this, MpiCall::Allreduce, -1, bytes, -1));
  charge_collective_entry();
  const int tag_reduce = next_internal_tag();
  const int tag_bcast = next_internal_tag();
  const bool modeled = sendbuf == nullptr;
  reduce_binomial(sendbuf, recvbuf, count, type, op, 0, tag_reduce);
  bcast_binomial(modeled ? nullptr : recvbuf, bytes, 0, tag_bcast);
}

void Comm::scatter(const void* sendbuf, std::size_t bytes_per_rank,
                   void* recvbuf, int root) {
  require(valid(), Err::Comm, "null communicator");
  require(root >= 0 && root < size(), Err::Rank, "scatter: bad root");
  const HookScope hook(
      *ctx_, make_info(*this, MpiCall::Scatter, root, bytes_per_rank, -1));
  charge_collective_entry();
  const int tag = next_internal_tag();
  const int p = size();
  if (rank_ == root) {
    const auto* base = static_cast<const std::byte*>(sendbuf);
    for (int r = 0; r < p; ++r) {
      const void* chunk =
          base == nullptr
              ? nullptr
              : base + static_cast<std::size_t>(r) * bytes_per_rank;
      if (r == root) {
        if (chunk != nullptr && recvbuf != nullptr) {
          std::memcpy(recvbuf, chunk, bytes_per_rank);
        }
        continue;
      }
      send_internal(chunk, bytes_per_rank, r, tag);
    }
  } else {
    recv_internal(recvbuf, bytes_per_rank, root, tag);
  }
}

void Comm::scatterv(const void* sendbuf, std::span<const std::size_t> counts,
                    std::span<const std::size_t> displs, void* recvbuf,
                    std::size_t recv_bytes, int root) {
  require(valid(), Err::Comm, "null communicator");
  require(root >= 0 && root < size(), Err::Rank, "scatterv: bad root");
  const HookScope hook(
      *ctx_, make_info(*this, MpiCall::Scatterv, root, recv_bytes, -1));
  charge_collective_entry();
  const int tag = next_internal_tag();
  const int p = size();
  if (rank_ == root) {
    require(counts.size() >= static_cast<std::size_t>(p) &&
                displs.size() >= static_cast<std::size_t>(p),
            Err::Arg, "scatterv: counts/displs too short");
    const auto* base = static_cast<const std::byte*>(sendbuf);
    for (int r = 0; r < p; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      const void* chunk = base == nullptr ? nullptr : base + displs[ri];
      if (r == root) {
        if (chunk != nullptr && recvbuf != nullptr) {
          std::memcpy(recvbuf, chunk, std::min(counts[ri], recv_bytes));
        }
        continue;
      }
      send_internal(chunk, counts[ri], r, tag);
    }
  } else {
    recv_internal(recvbuf, recv_bytes, root, tag);
  }
}

void Comm::gather(const void* sendbuf, std::size_t bytes_per_rank,
                  void* recvbuf, int root) {
  require(valid(), Err::Comm, "null communicator");
  require(root >= 0 && root < size(), Err::Rank, "gather: bad root");
  const HookScope hook(
      *ctx_, make_info(*this, MpiCall::Gather, root, bytes_per_rank, -1));
  charge_collective_entry();
  const int tag = next_internal_tag();
  const int p = size();
  if (rank_ == root) {
    auto* base = static_cast<std::byte*>(recvbuf);
    for (int r = 0; r < p; ++r) {
      void* slot = base == nullptr
                       ? nullptr
                       : base + static_cast<std::size_t>(r) * bytes_per_rank;
      if (r == root) {
        if (slot != nullptr && sendbuf != nullptr) {
          std::memcpy(slot, sendbuf, bytes_per_rank);
        }
        continue;
      }
      recv_internal(slot, bytes_per_rank, r, tag);
    }
  } else {
    send_internal(sendbuf, bytes_per_rank, root, tag);
  }
}

void Comm::gatherv(const void* sendbuf, std::size_t send_bytes, void* recvbuf,
                   std::span<const std::size_t> counts,
                   std::span<const std::size_t> displs, int root) {
  require(valid(), Err::Comm, "null communicator");
  require(root >= 0 && root < size(), Err::Rank, "gatherv: bad root");
  const HookScope hook(
      *ctx_, make_info(*this, MpiCall::Gatherv, root, send_bytes, -1));
  charge_collective_entry();
  const int tag = next_internal_tag();
  const int p = size();
  if (rank_ == root) {
    require(counts.size() >= static_cast<std::size_t>(p) &&
                displs.size() >= static_cast<std::size_t>(p),
            Err::Arg, "gatherv: counts/displs too short");
    auto* base = static_cast<std::byte*>(recvbuf);
    for (int r = 0; r < p; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      void* slot = base == nullptr ? nullptr : base + displs[ri];
      if (r == root) {
        if (slot != nullptr && sendbuf != nullptr) {
          std::memcpy(slot, sendbuf, std::min(send_bytes, counts[ri]));
        }
        continue;
      }
      recv_internal(slot, counts[ri], r, tag);
    }
  } else {
    send_internal(sendbuf, send_bytes, root, tag);
  }
}

void Comm::allgather(const void* sendbuf, std::size_t bytes_per_rank,
                     void* recvbuf) {
  require(valid(), Err::Comm, "null communicator");
  const HookScope hook(
      *ctx_, make_info(*this, MpiCall::Allgather, -1, bytes_per_rank, -1));
  charge_collective_entry();
  const int tag = next_internal_tag();
  const int p = size();
  auto* base = static_cast<std::byte*>(recvbuf);
  auto block = [&](int origin) -> std::byte* {
    return base == nullptr
               ? nullptr
               : base + static_cast<std::size_t>(origin) * bytes_per_rank;
  };
  if (base != nullptr && sendbuf != nullptr) {
    std::memcpy(block(rank_), sendbuf, bytes_per_rank);
  }
  // Ring: at step s, forward the block that originated at (rank - s).
  const int right = (rank_ + 1) % p;
  const int left = (rank_ - 1 + p) % p;
  for (int s = 0; s < p - 1; ++s) {
    const int send_origin = (rank_ - s + p) % p;
    const int recv_origin = (rank_ - s - 1 + p) % p;
    sendrecv_internal(block(send_origin), bytes_per_rank, right,
                      block(recv_origin), bytes_per_rank, left, tag);
  }
}

void Comm::alltoall(const void* sendbuf, std::size_t bytes_per_rank,
                    void* recvbuf) {
  require(valid(), Err::Comm, "null communicator");
  const HookScope hook(
      *ctx_, make_info(*this, MpiCall::Alltoall, -1, bytes_per_rank, -1));
  charge_collective_entry();
  const int tag = next_internal_tag();
  const int p = size();
  const auto* sbase = static_cast<const std::byte*>(sendbuf);
  auto* rbase = static_cast<std::byte*>(recvbuf);
  if (sbase != nullptr && rbase != nullptr) {
    std::memcpy(rbase + static_cast<std::size_t>(rank_) * bytes_per_rank,
                sbase + static_cast<std::size_t>(rank_) * bytes_per_rank,
                bytes_per_rank);
  }
  for (int s = 1; s < p; ++s) {
    const int dst = (rank_ + s) % p;
    const int src = (rank_ - s + p) % p;
    const void* out =
        sbase == nullptr
            ? nullptr
            : sbase + static_cast<std::size_t>(dst) * bytes_per_rank;
    void* in = rbase == nullptr
                   ? nullptr
                   : rbase + static_cast<std::size_t>(src) * bytes_per_rank;
    sendrecv_internal(out, bytes_per_rank, dst, in, bytes_per_rank, src, tag);
  }
}

// ---------------------------------------------------------------------------
// Comm: management
// ---------------------------------------------------------------------------

namespace {

/// Deterministic split bookkeeping shared by every member: ordered distinct
/// colors, and per color the member list sorted by (key, parent rank).
struct SplitPlan {
  std::vector<int> colors;  // ascending, non-negative only
  std::map<int, std::vector<std::pair<int, int>>> members;  // color -> (key, parent rank)
};

SplitPlan plan_split(const std::vector<CommImpl::SplitItem>& items) {
  SplitPlan plan;
  for (int r = 0; r < static_cast<int>(items.size()); ++r) {
    const auto& it = items[static_cast<std::size_t>(r)];
    if (it.color < 0) continue;
    plan.members[it.color].emplace_back(it.key, r);
  }
  for (auto& [color, mem] : plan.members) {
    std::sort(mem.begin(), mem.end());
    plan.colors.push_back(color);
  }
  return plan;
}

}  // namespace

Comm Comm::split(int color, int key) {
  require(valid(), Err::Comm, "null communicator");
  const HookScope hook(*ctx_, make_info(*this, MpiCall::CommSplit, -1, 0, -1));
  auto& rs = impl_->rank_state(rank_);
  const std::uint64_t gen = rs.sync_gen++;

  auto [items, t_entry_max] = impl_->split_sync().exchange(
      gen, rank_, ctx_->now(), CommImpl::SplitItem{color, key});
  const SplitPlan plan = plan_split(items);

  // Rank 0 of the parent creates the child impls (one per color, in color
  // order); everyone else receives them through the publish rendezvous.
  CommImpl::CommMap impls;
  if (rank_ == 0) {
    impls = std::make_shared<std::vector<std::shared_ptr<CommImpl>>>();
    for (const int c : plan.colors) {
      std::vector<int> wranks;
      for (const auto& [k, parent_rank] : plan.members.at(c)) {
        (void)k;
        wranks.push_back(impl_->group().world_rank(parent_rank));
      }
      impls->push_back(std::make_shared<CommImpl>(
          ctx_->world(), Group(std::move(wranks)),
          ctx_->world().next_context_id()));
    }
  }
  auto [published, t_publish_max] =
      impl_->publish_sync().exchange(gen, rank_, ctx_->now(), impls);
  impls = published[0];

  // Model the synchronizing cost: everyone leaves after the last entrant
  // plus a logarithmic metadata exchange.
  const double lat = ctx_->machine().net.inter_node.latency;
  const double t_before = ctx_->now();
  double rounds = 1.0;
  for (int k = 1; k < size(); k <<= 1) rounds += 1.0;
  ctx_->clock().sync_to(std::max(t_entry_max, t_publish_max) + rounds * lat);
  ctx_->world().tool_stack().notify(
      &hooks::Tool::on_comm_sync, *ctx_,
      TapCommSync{impl_->context_id(), gen, size(), static_cast<int>(rounds),
                  t_before});

  if (color < 0) return Comm{};
  // Locate my color and my rank within it.
  const auto cit = std::find(plan.colors.begin(), plan.colors.end(), color);
  const auto color_index =
      static_cast<std::size_t>(std::distance(plan.colors.begin(), cit));
  const auto& mem = plan.members.at(color);
  int new_rank = -1;
  for (int i = 0; i < static_cast<int>(mem.size()); ++i) {
    if (mem[static_cast<std::size_t>(i)].second == rank_) {
      new_rank = i;
      break;
    }
  }
  require(new_rank >= 0, Err::Internal, "split: self not found in plan");
  fire_comm_create(*ctx_, *impls->at(color_index), impl_->context_id(),
                   new_rank);
  return Comm(ctx_, impls->at(color_index), new_rank);
}

Comm Comm::dup() {
  require(valid(), Err::Comm, "null communicator");
  const HookScope hook(*ctx_, make_info(*this, MpiCall::CommDup, -1, 0, -1));
  auto& rs = impl_->rank_state(rank_);
  const std::uint64_t gen = rs.sync_gen++;
  auto [items, t_entry_max] = impl_->split_sync().exchange(
      gen, rank_, ctx_->now(), CommImpl::SplitItem{0, rank_});
  (void)items;

  CommImpl::CommMap impls;
  if (rank_ == 0) {
    impls = std::make_shared<std::vector<std::shared_ptr<CommImpl>>>();
    impls->push_back(std::make_shared<CommImpl>(
        ctx_->world(), impl_->group(), ctx_->world().next_context_id()));
  }
  auto [published, t_publish_max] =
      impl_->publish_sync().exchange(gen, rank_, ctx_->now(), impls);
  const double lat = ctx_->machine().net.inter_node.latency;
  const double t_before = ctx_->now();
  ctx_->clock().sync_to(std::max(t_entry_max, t_publish_max) + lat);
  ctx_->world().tool_stack().notify(
      &hooks::Tool::on_comm_sync, *ctx_,
      TapCommSync{impl_->context_id(), gen, size(), 1, t_before});
  fire_comm_create(*ctx_, *published[0]->at(0), impl_->context_id(), rank_);
  return Comm(ctx_, published[0]->at(0), rank_);
}

void Comm::free() {
  require(valid(), Err::Comm, "free on null communicator");
  require(&impl() != &ctx_->world_comm().impl(), Err::Comm,
          "cannot free the world communicator");
  const int context = impl_->context_id();
  {
    const HookScope hook(*ctx_,
                         make_info(*this, MpiCall::CommFree, -1, 0, -1));
    ctx_->world().tool_stack().notify_reverse(&hooks::Tool::on_comm_free,
                                              *ctx_, context);
  }
  impl_.reset();
  rank_ = -1;
}

std::pair<std::vector<std::uint64_t>, double> Comm::collsync_u64(
    std::uint64_t value) {
  require(valid(), Err::Comm, "null communicator");
  auto& rs = impl_->rank_state(rank_);
  const std::uint64_t gen = rs.sync_gen++;
  return impl_->u64_sync().exchange(gen, rank_, ctx_->now(), value);
}

}  // namespace mpisect::mpisim

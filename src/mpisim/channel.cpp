#include "mpisim/channel.hpp"

#include <algorithm>
#include <cstring>

#include "mpisim/comm.hpp"
#include "mpisim/error.hpp"

namespace mpisect::mpisim {

// ---------------------------------------------------------------------------
// Channel
// ---------------------------------------------------------------------------

Channel::~Channel() {
  // Credit back whatever never matched so the world's MemAccount drains to
  // zero when all channels die (a leak here would poison the next world's
  // high-water mark reading).
  for (MsgNode* n = um_all_.head; n != nullptr;) {
    MsgNode* next = n->next[3];
    if (mem_ != nullptr) mem_->sub(queued_bytes(*n->msg));
    party_done(n->msg);
    delete n;
    n = next;
  }
  if (mem_ != nullptr && pr_count_ > 0) {
    mem_->sub(pr_count_ * sizeof(PostedRecv));
  }
  const auto drop_lane = [this](std::uint64_t /*key*/, RecvList& lane) {
    for (RecvNode* n = lane.head; n != nullptr;) {
      RecvNode* next = n->next;
      party_done(n->recv);
      delete n;
      n = next;
    }
  };
  pr_by_pair_.for_each(drop_lane);
  pr_by_src_.for_each(drop_lane);
  pr_by_tag_.for_each(drop_lane);
  drop_lane(0, pr_any_);
  for (MsgNode* n = msg_free_; n != nullptr;) {
    MsgNode* next = n->next[0];
    delete n;
    n = next;
  }
  for (RecvNode* n = recv_free_; n != nullptr;) {
    RecvNode* next = n->next;
    delete n;
    n = next;
  }
}

void Channel::complete_match(Message* msg, PostedRecv* recv) {
  double t_deliver = 0.0;
  if (msg->rendezvous) {
    t_deliver = std::max(msg->t_send_start, recv->t_post) + msg->wire_cost +
                rendezvous_extra_;
  } else {
    t_deliver = std::max(recv->t_post, msg->t_avail);
  }

  recv->truncated = msg->bytes > recv->max_bytes;
  if (recv->buf != nullptr && !msg->payload.empty()) {
    const std::size_t n = std::min(msg->payload.size(), recv->max_bytes);
    std::memcpy(recv->buf, msg->payload.data(), n);
  }
  recv->status.source = msg->src;
  recv->status.tag = msg->tag;
  recv->status.bytes = msg->bytes;
  recv->status.t_complete = t_deliver;
  recv->status.seq = msg->seq;
  recv->completed = true;

  msg->t_deliver = t_deliver;
  msg->delivered = true;
  party_done(msg);
  party_done(recv);
}

void Channel::party_done(Message* msg) {
  if (++msg->parties_done == 2 && pools_ != nullptr) {
    pools_->messages.release(msg);
  }
}

void Channel::party_done(PostedRecv* recv) {
  if (++recv->parties_done == 2 && pools_ != nullptr) {
    pools_->recvs.release(recv);
  }
}

void Channel::release(Message* msg, bool channel_done) {
  if (channel_done) {
    if (pools_ != nullptr) pools_->messages.release(msg);
    return;
  }
  const std::lock_guard lock(mu_);
  party_done(msg);
}

void Channel::release(PostedRecv* recv, bool channel_done) {
  if (channel_done) {
    if (pools_ != nullptr) pools_->recvs.release(recv);
    return;
  }
  const std::lock_guard lock(mu_);
  party_done(recv);
}

void Channel::check_abort() const {
  if (abort_ != nullptr && abort_->load(std::memory_order_relaxed)) {
    throw MpiError(Err::Aborted, "world aborted while waiting in channel");
  }
}

// --- node pools ------------------------------------------------------------

Channel::MsgNode* Channel::alloc_msg_node() {
  if (msg_free_ == nullptr) return new MsgNode;
  MsgNode* n = msg_free_;
  msg_free_ = n->next[0];
  *n = MsgNode{};
  return n;
}

void Channel::free_msg_node(MsgNode* n) {
  n->msg = nullptr;
  n->next[0] = msg_free_;
  msg_free_ = n;
}

Channel::RecvNode* Channel::alloc_recv_node() {
  if (recv_free_ == nullptr) return new RecvNode;
  RecvNode* n = recv_free_;
  recv_free_ = n->next;
  n->next = nullptr;
  return n;
}

void Channel::free_recv_node(RecvNode* n) {
  n->recv = nullptr;
  n->next = recv_free_;
  recv_free_ = n;
}

// --- index lists -----------------------------------------------------------

void Channel::append(MsgList& list, MsgNode* n, int k) noexcept {
  n->prev[k] = list.tail;
  n->next[k] = nullptr;
  if (list.tail != nullptr) {
    list.tail->next[k] = n;
  } else {
    list.head = n;
  }
  list.tail = n;
}

void Channel::remove(MsgList& list, MsgNode* n, int k) noexcept {
  if (n->prev[k] != nullptr) {
    n->prev[k]->next[k] = n->next[k];
  } else {
    list.head = n->next[k];
  }
  if (n->next[k] != nullptr) {
    n->next[k]->prev[k] = n->prev[k];
  } else {
    list.tail = n->prev[k];
  }
}

void Channel::remove_keyed(LaneTable<MsgList>& table, std::uint64_t key,
                           MsgNode* n, int k) noexcept {
  MsgList* list = table.find(key);
  remove(*list, n, k);
  if (list->head == nullptr) table.erase(key);
}

void Channel::link_msg(Message* msg) {
  MsgNode* n = alloc_msg_node();
  n->msg = msg;
  append(um_by_pair_[pair_key(msg->src, msg->tag)], n, 0);
  if (wild_index_) {
    append(um_by_src_[one_key(msg->src)], n, 1);
    append(um_by_tag_[one_key(msg->tag)], n, 2);
  }
  append(um_all_, n, 3);
}

void Channel::unlink_msg(MsgNode* n) {
  const Message& m = *n->msg;
  remove_keyed(um_by_pair_, pair_key(m.src, m.tag), n, 0);
  if (wild_index_) {
    remove_keyed(um_by_src_, one_key(m.src), n, 1);
    remove_keyed(um_by_tag_, one_key(m.tag), n, 2);
  }
  remove(um_all_, n, 3);
}

void Channel::index_wildcards() {
  // Walking the arrival list appends in arrival order, so the new lists are
  // exactly what linking every message on deposit would have built.
  wild_index_ = true;
  for (MsgNode* n = um_all_.head; n != nullptr; n = n->next[3]) {
    append(um_by_src_[one_key(n->msg->src)], n, 1);
    append(um_by_tag_[one_key(n->msg->tag)], n, 2);
  }
}

Channel::MsgList* Channel::probe_lane(int src, int tag) {
  if (src != kAnySource && tag != kAnyTag) {
    return um_by_pair_.find(pair_key(src, tag));
  }
  if (src == kAnySource && tag == kAnyTag) return &um_all_;
  if (!wild_index_) index_wildcards();
  if (src != kAnySource) return um_by_src_.find(one_key(src));
  return um_by_tag_.find(one_key(tag));
}

// --- public operations -----------------------------------------------------

std::size_t Channel::deposit(Message* msg) {
  const std::lock_guard lock(mu_);
  if (msg->fault_lost) {
    // Injected loss: the retransmit budget was exhausted, so the message
    // never reaches the matching engine. An eager sender proceeds unaware;
    // a rendezvous sender blocks in wait_delivered until quiescence, where
    // the checker attributes the hang to the fault plan.
    party_done(msg);
    return um_count_;
  }
  // Candidate receive lanes for this (src,tag): one per wildcard class.
  // Each lane's head is its earliest-posted member, so the global earliest
  // compatible receive is the min post-ordinal among the four heads: the
  // first compatible receive in post order.
  LaneTable<RecvList>* tables[3] = {&pr_by_pair_, &pr_by_src_, &pr_by_tag_};
  const std::uint64_t keys[3] = {pair_key(msg->src, msg->tag),
                                 one_key(msg->src), one_key(msg->tag)};
  RecvList* lanes[4] = {nullptr, nullptr, nullptr, &pr_any_};
  if (pr_count_ > 0) {
    for (int k = 0; k < 3; ++k) lanes[k] = tables[k]->find(keys[k]);
  }
  int best = -1;
  for (int k = 0; k < 4; ++k) {
    if (lanes[k] != nullptr && lanes[k]->head != nullptr &&
        (best < 0 || lanes[k]->head->ord < lanes[best]->head->ord)) {
      best = k;
    }
  }
  if (best >= 0) {
    RecvList* lane = lanes[best];
    RecvNode* n = lane->head;
    lane->head = n->next;
    if (lane->head == nullptr) {
      lane->tail = nullptr;
      if (best < 3) tables[best]->erase(keys[best]);
    }
    complete_match(msg, n->recv);
    free_recv_node(n);
    --pr_count_;
    if (mem_ != nullptr) mem_->sub(sizeof(PostedRecv));
    wp_.notify_all();
    return 0;
  }
  link_msg(msg);
  ++um_count_;
  if (mem_ != nullptr) mem_->add(queued_bytes(*msg));
  // Wake probers waiting for a matching envelope.
  wp_.notify_all();
  return um_count_;
}

std::size_t Channel::post(PostedRecv* recv) {
  const std::lock_guard lock(mu_);
  // The receive's wildcard class picks the one message index whose head is
  // the earliest-arrival compatible message (every index list preserves
  // arrival order).
  const MsgList* lane =
      um_count_ > 0 ? probe_lane(recv->src, recv->tag) : nullptr;
  if (lane != nullptr && lane->head != nullptr) {
    MsgNode* n = lane->head;
    Message* msg = n->msg;
    if (mem_ != nullptr) mem_->sub(queued_bytes(*msg));
    // Unlink first: the match may return the message to the pools.
    unlink_msg(n);
    free_msg_node(n);
    --um_count_;
    complete_match(msg, recv);
    wp_.notify_all();
    return 0;
  }
  RecvNode* n = alloc_recv_node();
  n->recv = recv;
  n->ord = pr_ord_++;
  RecvList* dest = nullptr;
  if (recv->src != kAnySource && recv->tag != kAnyTag) {
    dest = &pr_by_pair_[pair_key(recv->src, recv->tag)];
  } else if (recv->src != kAnySource) {
    dest = &pr_by_src_[one_key(recv->src)];
  } else if (recv->tag != kAnyTag) {
    dest = &pr_by_tag_[one_key(recv->tag)];
  } else {
    dest = &pr_any_;
  }
  if (dest->tail != nullptr) {
    dest->tail->next = n;
  } else {
    dest->head = n;
  }
  dest->tail = n;
  ++pr_count_;
  if (mem_ != nullptr) mem_->add(sizeof(PostedRecv));
  return pr_count_;
}

Status Channel::wait_recv(const PostedRecv* recv) {
  std::unique_lock lock(mu_);
  while (!recv->completed) {
    check_abort();
    wp_.wait(lock);
  }
  if (recv->truncated) {
    throw MpiError(Err::Truncate, "message longer than receive buffer");
  }
  return recv->status;
}

bool Channel::test_recv(const PostedRecv* recv) {
  const std::lock_guard lock(mu_);
  return recv->completed;
}

bool Channel::test_send(const Message* msg) {
  const std::lock_guard lock(mu_);
  return !msg->rendezvous || msg->delivered;
}

void Channel::park_recv_incomplete(const PostedRecv* recv) {
  std::unique_lock lock(mu_);
  // Predicate checked under the same lock the park registers under, so a
  // completion between the caller's failed test and this park cannot be a
  // lost wake — it either flips `completed` before we check, or notifies
  // after the WaitPoint registration.
  if (recv->completed) return;
  check_abort();
  wp_.wait(lock);
  check_abort();
}

void Channel::park_send_incomplete(const Message* msg) {
  std::unique_lock lock(mu_);
  if (!msg->rendezvous || msg->delivered) return;
  check_abort();
  wp_.wait(lock);
  check_abort();
}

double Channel::wait_delivered(const Message* msg) {
  std::unique_lock lock(mu_);
  while (!msg->delivered) {
    check_abort();
    wp_.wait(lock);
  }
  return msg->t_deliver;
}

Status Channel::probe(int src, int tag, double t_probe) {
  std::unique_lock lock(mu_);
  for (;;) {
    const MsgList* lane = probe_lane(src, tag);
    if (lane != nullptr && lane->head != nullptr) {
      const Message* found = lane->head->msg;
      Status st;
      st.source = found->src;
      st.tag = found->tag;
      st.bytes = found->bytes;
      st.seq = found->seq;
      // Completion time of a hypothetical receive posted at t_probe —
      // the same delivery model complete_match applies. In particular a
      // rendezvous message still pays its wire cost; reporting
      // max(t_send_start, t_probe) alone would claim availability earlier
      // than any matching recv could ever complete.
      st.t_complete =
          found->rendezvous
              ? std::max(found->t_send_start, t_probe) + found->wire_cost +
                    rendezvous_extra_
              : std::max(t_probe, found->t_avail);
      return st;
    }
    check_abort();
    wp_.wait(lock);
  }
}

std::size_t Channel::pending_messages() {
  const std::lock_guard lock(mu_);
  return um_count_;
}

std::size_t Channel::pending_recvs() {
  const std::lock_guard lock(mu_);
  return pr_count_;
}

}  // namespace mpisect::mpisim

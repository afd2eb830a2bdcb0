// Reference matcher: a test-only oracle for mpisim::Channel.
//
// It restates the matching rules of channel.hpp as linear scans over two
// deques, with no lanes, ordinals or index lists:
//
//   * a deposit matches the first compatible posted receive in post order;
//   * a post matches the earliest-arrived compatible queued message;
//   * a probe sees what a post at t_probe would match, without consuming;
//   * eager delivery:      t_deliver = max(t_post, t_avail)
//     rendezvous delivery: t_deliver = max(t_send_start, t_post)
//                                      + wire_cost + rendezvous_extra;
//   * a message flagged fault_lost is dropped at deposit;
//   * a queued message is charged sizeof(Message) + payload bytes, a
//     posted receive sizeof(PostedRecv), until it matches.
//
// The oracle never calls into the channel, so its times and matches are
// an independent check rather than the channel's own arithmetic replayed.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

#include "mpisim/message.hpp"

namespace mpisect::testutil {

class ReferenceMatcher {
 public:
  /// What a receive completed with (or a probe would complete with).
  struct Outcome {
    int source = 0;
    int tag = 0;
    std::size_t bytes = 0;
    double t_complete = 0.0;
    bool truncated = false;
  };

  explicit ReferenceMatcher(double rendezvous_extra = 0.0)
      : extra_(rendezvous_extra) {}

  /// Sender side. Returns the queued-message count after the call
  /// (0 = matched), as Channel::deposit does.
  std::size_t deposit(const mpisim::Message& m) {
    const std::size_t id = sent_.size();
    sent_.emplace_back();
    if (m.fault_lost) return queued_.size();
    for (auto it = posted_.begin(); it != posted_.end(); ++it) {
      if (compatible(it->recv, m)) {
        complete(Queued{id, m}, *it);
        charge(-static_cast<long long>(sizeof(mpisim::PostedRecv)));
        posted_.erase(it);
        return 0;
      }
    }
    queued_.push_back(Queued{id, m});
    charge(static_cast<long long>(sizeof(mpisim::Message) + m.payload.size()));
    return queued_.size();
  }

  /// Receiver side. Returns the posted-receive count after the call
  /// (0 = matched), as Channel::post does.
  std::size_t post(const mpisim::PostedRecv& r) {
    const Posted p{recvd_.size(), r};
    recvd_.emplace_back();
    for (auto it = queued_.begin(); it != queued_.end(); ++it) {
      if (compatible(r, it->msg)) {
        complete(*it, p);
        charge(-static_cast<long long>(sizeof(mpisim::Message) +
                                       it->msg.payload.size()));
        queued_.erase(it);
        return 0;
      }
    }
    posted_.push_back(p);
    charge(static_cast<long long>(sizeof(mpisim::PostedRecv)));
    return posted_.size();
  }

  /// What a receive posted at t_probe would complete with right now.
  [[nodiscard]] std::optional<Outcome> probe(int src, int tag,
                                             double t_probe) const {
    mpisim::PostedRecv r;
    r.src = src;
    r.tag = tag;
    r.t_post = t_probe;
    for (const Queued& q : queued_) {
      if (compatible(r, q.msg)) return outcome(q.msg, r);
    }
    return std::nullopt;
  }

  /// The i-th posted receive's outcome, or nullopt while it is unmatched.
  [[nodiscard]] const std::optional<Outcome>& recv(std::size_t i) const {
    return recvd_.at(i);
  }
  /// The i-th deposited message's delivery time, or nullopt while it is
  /// unmatched (always nullopt for a lost message).
  [[nodiscard]] const std::optional<double>& delivered(std::size_t i) const {
    return sent_.at(i);
  }

  [[nodiscard]] std::size_t pending_messages() const {
    return queued_.size();
  }
  [[nodiscard]] std::size_t pending_recvs() const { return posted_.size(); }
  /// Bytes currently charged and their high-water mark.
  [[nodiscard]] std::size_t bytes() const {
    return static_cast<std::size_t>(bytes_);
  }
  [[nodiscard]] std::size_t bytes_hwm() const {
    return static_cast<std::size_t>(hwm_);
  }

 private:
  struct Queued {
    std::size_t id;
    mpisim::Message msg;
  };
  struct Posted {
    std::size_t id;
    mpisim::PostedRecv recv;
  };

  static bool compatible(const mpisim::PostedRecv& r,
                         const mpisim::Message& m) {
    return (r.src == mpisim::kAnySource || r.src == m.src) &&
           (r.tag == mpisim::kAnyTag || r.tag == m.tag);
  }

  [[nodiscard]] Outcome outcome(const mpisim::Message& m,
                                const mpisim::PostedRecv& r) const {
    Outcome o;
    o.source = m.src;
    o.tag = m.tag;
    o.bytes = m.bytes;
    o.truncated = m.bytes > r.max_bytes;
    o.t_complete = m.rendezvous ? std::max(m.t_send_start, r.t_post) +
                                      m.wire_cost + extra_
                                : std::max(r.t_post, m.t_avail);
    return o;
  }

  void complete(const Queued& q, const Posted& p) {
    const Outcome o = outcome(q.msg, p.recv);
    recvd_[p.id] = o;
    sent_[q.id] = o.t_complete;
  }

  void charge(long long delta) {
    bytes_ += delta;
    hwm_ = std::max(hwm_, bytes_);
  }

  double extra_;
  std::deque<Queued> queued_;
  std::deque<Posted> posted_;
  std::vector<std::optional<Outcome>> recvd_;
  std::vector<std::optional<double>> sent_;
  long long bytes_ = 0;
  long long hwm_ = 0;
};

}  // namespace mpisect::testutil

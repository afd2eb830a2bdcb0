// Direct unit tests of the matching engine (Channel) — below the Comm
// layer, exercising matching rules and virtual-time math in isolation.
// Channels block through an Executor; these tests use the thread backend
// so plain test threads can poke at the channel from outside a World.
#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mpisim/channel.hpp"
#include "mpisim/error.hpp"
#include "mpisim/lane_table.hpp"
#include "mpisim/scheduler.hpp"
#include "obs/memory.hpp"
#include "support/rng.hpp"

#include "reference_matcher.hpp"

namespace {

using namespace mpisect::mpisim;
using mpisect::testutil::ReferenceMatcher;

struct ChannelFixture {
  std::atomic<bool> abort{false};
  std::unique_ptr<Executor> exec = make_executor(ExecBackend::Threads);
  Channel ch{*exec, &abort};
};

/// A record that lives until the test process exits: a Channel refers to
/// records by plain pointer, and one built without record pools never
/// frees them.
template <typename T>
T* keep() {
  static std::mutex mu;
  static std::deque<T> records;
  const std::lock_guard lock(mu);
  return &records.emplace_back();
}

Message* make_msg(int src, int tag, double t_send, double cost,
                  bool rendezvous = false, std::size_t bytes = 8) {
  Message* msg = keep<Message>();
  msg->src = src;
  msg->tag = tag;
  msg->bytes = bytes;
  msg->t_send_start = t_send;
  msg->wire_cost = cost;
  msg->t_avail = t_send + cost;
  msg->rendezvous = rendezvous;
  return msg;
}

PostedRecv* make_recv(int src, int tag, double t_post,
                      std::size_t max_bytes = 64) {
  PostedRecv* pr = keep<PostedRecv>();
  pr->src = src;
  pr->tag = tag;
  pr->t_post = t_post;
  pr->max_bytes = max_bytes;
  return pr;
}

TEST(Channel, DepositThenPostMatches) {
  ChannelFixture f;
  f.ch.deposit(make_msg(0, 5, 1.0, 0.25));
  EXPECT_EQ(f.ch.pending_messages(), 1u);
  auto pr = make_recv(0, 5, 2.0);
  f.ch.post(pr);
  EXPECT_EQ(f.ch.pending_messages(), 0u);
  const Status st = f.ch.wait_recv(pr);
  EXPECT_EQ(st.source, 0);
  EXPECT_EQ(st.tag, 5);
  // Eager: delivery at max(t_post, t_avail) = max(2.0, 1.25) = 2.0.
  EXPECT_DOUBLE_EQ(st.t_complete, 2.0);
}

TEST(Channel, PostThenDepositMatches) {
  ChannelFixture f;
  auto pr = make_recv(0, 5, 0.5);
  f.ch.post(pr);
  EXPECT_EQ(f.ch.pending_recvs(), 1u);
  f.ch.deposit(make_msg(0, 5, 1.0, 0.25));
  EXPECT_EQ(f.ch.pending_recvs(), 0u);
  // Receiver was early: delivery at t_avail = 1.25.
  EXPECT_DOUBLE_EQ(f.ch.wait_recv(pr).t_complete, 1.25);
}

TEST(Channel, RendezvousDeliveryFromMatchPoint) {
  ChannelFixture f;
  auto msg = make_msg(0, 1, 1.0, 0.5, /*rendezvous=*/true);
  f.ch.deposit(msg);
  auto pr = make_recv(0, 1, 3.0);
  f.ch.post(pr);
  // Rendezvous: transfer starts at max(t_send, t_post) = 3.0 -> 3.5.
  EXPECT_DOUBLE_EQ(f.ch.wait_recv(pr).t_complete, 3.5);
  EXPECT_DOUBLE_EQ(f.ch.wait_delivered(msg), 3.5);
}

TEST(Channel, TagFiltering) {
  ChannelFixture f;
  f.ch.deposit(make_msg(0, 1, 1.0, 0.1));
  f.ch.deposit(make_msg(0, 2, 1.0, 0.1));
  auto pr = make_recv(0, 2, 1.0);
  f.ch.post(pr);
  EXPECT_EQ(f.ch.wait_recv(pr).tag, 2);
  EXPECT_EQ(f.ch.pending_messages(), 1u);  // the tag-1 message remains
}

TEST(Channel, WildcardsMatchFirstArrived) {
  ChannelFixture f;
  f.ch.deposit(make_msg(3, 7, 1.0, 0.1));
  f.ch.deposit(make_msg(1, 9, 1.0, 0.1));
  auto pr = make_recv(kAnySource, kAnyTag, 1.0);
  f.ch.post(pr);
  const Status st = f.ch.wait_recv(pr);
  EXPECT_EQ(st.source, 3);  // queue order
  EXPECT_EQ(st.tag, 7);
}

TEST(Channel, PostedRecvOrderRespected) {
  ChannelFixture f;
  auto pr1 = make_recv(0, kAnyTag, 1.0);
  auto pr2 = make_recv(0, kAnyTag, 2.0);
  f.ch.post(pr1);
  f.ch.post(pr2);
  f.ch.deposit(make_msg(0, 4, 0.0, 0.1));
  EXPECT_TRUE(f.ch.test_recv(pr1));   // earliest posted matches first
  EXPECT_FALSE(f.ch.test_recv(pr2));
}

TEST(Channel, PayloadCopiedOnMatch) {
  ChannelFixture f;
  auto msg = make_msg(0, 0, 0.0, 0.0, false, 4);
  const std::byte payload[4] = {std::byte{1}, std::byte{2}, std::byte{3},
                                std::byte{4}};
  msg->payload.assign(payload, payload + 4);
  f.ch.deposit(msg);
  std::byte out[4] = {};
  auto pr = make_recv(0, 0, 0.0);
  pr->buf = out;
  pr->max_bytes = 4;
  f.ch.post(pr);
  f.ch.wait_recv(pr);
  EXPECT_EQ(out[3], std::byte{4});
}

TEST(Channel, TruncationFlaggedAtWait) {
  ChannelFixture f;
  f.ch.deposit(make_msg(0, 0, 0.0, 0.0, false, /*bytes=*/128));
  auto pr = make_recv(0, 0, 0.0, /*max_bytes=*/16);
  f.ch.post(pr);
  EXPECT_THROW(f.ch.wait_recv(pr), MpiError);
}

TEST(Channel, ProbeDoesNotConsume) {
  ChannelFixture f;
  f.ch.deposit(make_msg(2, 6, 1.0, 0.5));
  const Status st = f.ch.probe(2, 6, 0.0);
  EXPECT_EQ(st.bytes, 8u);
  EXPECT_DOUBLE_EQ(st.t_complete, 1.5);  // availability
  EXPECT_EQ(f.ch.pending_messages(), 1u);
}

TEST(Channel, RendezvousProbeMatchesRecvDeliveryModel) {
  // Regression: probe used to report max(t_send_start, t_probe) for a
  // rendezvous message — earlier than any matching recv could complete,
  // because complete_match charges the wire after the handshake. A probe
  // at time t must report what a recv posted at t would see.
  ChannelFixture f;
  f.ch.deposit(make_msg(0, 1, 1.0, 0.5, /*rendezvous=*/true));
  const Status probed = f.ch.probe(0, 1, 3.0);
  EXPECT_DOUBLE_EQ(probed.t_complete, 3.5);  // max(1.0, 3.0) + 0.5

  auto pr = make_recv(0, 1, 3.0);
  f.ch.post(pr);
  EXPECT_DOUBLE_EQ(f.ch.wait_recv(pr).t_complete, probed.t_complete);
}

TEST(Channel, ProbeThenRecvNeverEarlierThanDirectRecv) {
  // Probe-then-recv completes at the recv's own delivery time, which can
  // never undercut a direct recv posted at the probe time (rendezvous pays
  // the wire twice — once hypothetically at probe, once for real).
  for (const bool rendezvous : {false, true}) {
    ChannelFixture direct;
    direct.ch.deposit(make_msg(0, 1, 1.0, 0.5, rendezvous));
    auto pr_direct = make_recv(0, 1, 3.0);
    direct.ch.post(pr_direct);
    const double t_direct = direct.ch.wait_recv(pr_direct).t_complete;

    ChannelFixture probed;
    probed.ch.deposit(make_msg(0, 1, 1.0, 0.5, rendezvous));
    const Status st = probed.ch.probe(0, 1, 3.0);
    auto pr = make_recv(0, 1, st.t_complete);  // recv after the probe
    probed.ch.post(pr);
    const double t_probed = probed.ch.wait_recv(pr).t_complete;

    EXPECT_GE(t_probed, t_direct);
    if (!rendezvous) {
      // Eager availability is a property of the message alone, so probing
      // first costs nothing.
      EXPECT_DOUBLE_EQ(t_probed, t_direct);
    }
  }
}

TEST(Channel, ProbeAnySourceAnyTagEarliestQueuedWins) {
  ChannelFixture f;
  f.ch.deposit(make_msg(3, 7, 1.0, 0.1));
  f.ch.deposit(make_msg(1, 9, 0.5, 0.1));
  const Status st = f.ch.probe(kAnySource, kAnyTag, 2.0);
  // Queue order decides, not timestamps: the (3, 7) message arrived first.
  EXPECT_EQ(st.source, 3);
  EXPECT_EQ(st.tag, 7);
  EXPECT_EQ(f.ch.pending_messages(), 2u);
  // A wildcard recv agrees with what the probe reported.
  auto pr = make_recv(kAnySource, kAnyTag, 2.0);
  f.ch.post(pr);
  const Status recv_st = f.ch.wait_recv(pr);
  EXPECT_EQ(recv_st.source, st.source);
  EXPECT_EQ(recv_st.tag, st.tag);
  EXPECT_DOUBLE_EQ(recv_st.t_complete, st.t_complete);
}

TEST(Channel, AbortWakesBlockedWaiter) {
  ChannelFixture f;
  auto pr = make_recv(0, 0, 0.0);
  f.ch.post(pr);
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    f.abort.store(true);
    f.exec->wake_all();  // no polling: abort must wake waiters explicitly
  });
  EXPECT_THROW(f.ch.wait_recv(pr), MpiError);
  killer.join();
}

TEST(Channel, AbortWakesRendezvousSender) {
  ChannelFixture f;
  auto msg = make_msg(0, 0, 0.0, 1.0, /*rendezvous=*/true);
  f.ch.deposit(msg);
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    f.abort.store(true);
    f.exec->wake_all();
  });
  EXPECT_THROW((void)f.ch.wait_delivered(msg), MpiError);
  killer.join();
}

// ---------------------------------------------------------------------------
// Channel vs the reference matcher (tests/reference_matcher.hpp)
// ---------------------------------------------------------------------------

/// A Channel and the reference matcher fed the same history. deposit() and
/// post() check that both return the same count; expect_agree() checks
/// every receive, every message and both queue lengths.
struct Lockstep {
  explicit Lockstep(double rendezvous_extra = 0.0,
                    mpisect::obs::MemAccount::RankMem* mem = nullptr)
      : ch{*exec, &abort, rendezvous_extra, mem}, ref{rendezvous_extra} {}

  std::atomic<bool> abort{false};
  std::unique_ptr<Executor> exec = make_executor(ExecBackend::Threads);
  Channel ch;
  ReferenceMatcher ref;
  std::vector<Message*> msgs;
  std::vector<PostedRecv*> recvs;

  void deposit(Message* m) {
    msgs.push_back(m);
    const std::size_t want = ref.deposit(*m);
    ASSERT_EQ(ch.deposit(m), want)
        << "deposit " << msgs.size() - 1 << " (" << m->src << "," << m->tag
        << ")";
  }
  PostedRecv* post(PostedRecv* r) {
    recvs.push_back(r);
    const std::size_t want = ref.post(*r);
    EXPECT_EQ(ch.post(r), want) << "post " << recvs.size() - 1 << " ("
                                << r->src << "," << r->tag << ")";
    return r;
  }

  void expect_agree(const std::string& where = "") {
    EXPECT_EQ(ch.pending_messages(), ref.pending_messages()) << where;
    EXPECT_EQ(ch.pending_recvs(), ref.pending_recvs()) << where;
    for (std::size_t i = 0; i < recvs.size(); ++i) {
      const auto& want = ref.recv(i);
      ASSERT_EQ(ch.test_recv(recvs[i]), want.has_value())
          << where << " recv " << i;
      if (!want) continue;
      const PostedRecv& got = *recvs[i];
      EXPECT_EQ(got.status.source, want->source) << where << " recv " << i;
      EXPECT_EQ(got.status.tag, want->tag) << where << " recv " << i;
      EXPECT_EQ(got.status.bytes, want->bytes) << where << " recv " << i;
      EXPECT_EQ(got.status.t_complete, want->t_complete)
          << where << " recv " << i;
      EXPECT_EQ(got.truncated, want->truncated) << where << " recv " << i;
    }
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      const auto& want = ref.delivered(i);
      ASSERT_EQ(msgs[i]->delivered, want.has_value()) << where << " msg " << i;
      if (want) {
        EXPECT_EQ(msgs[i]->t_deliver, *want) << where << " msg " << i;
      }
    }
  }
};

// A deposit must take the minimum post ordinal ACROSS wildcard lanes, not
// just the head of its exact-(src,tag) lane — post order is global.
TEST(ChannelReference, WildcardLanesRespectGlobalPostOrder) {
  Lockstep f;
  auto any_any = f.post(make_recv(kAnySource, kAnyTag, 1.0));  // ordinal 0
  auto exact = f.post(make_recv(2, 5, 1.0));                   // ordinal 1
  auto any_tag = f.post(make_recv(kAnySource, 5, 1.0));        // ordinal 2
  f.deposit(make_msg(2, 5, 0.0, 0.1));  // compatible with all three
  EXPECT_TRUE(f.ch.test_recv(any_any));  // earliest ordinal wins
  EXPECT_FALSE(f.ch.test_recv(exact));
  EXPECT_FALSE(f.ch.test_recv(any_tag));
  f.deposit(make_msg(2, 5, 0.0, 0.1));
  EXPECT_TRUE(f.ch.test_recv(exact));  // then post order again
  EXPECT_FALSE(f.ch.test_recv(any_tag));
  f.deposit(make_msg(2, 5, 0.0, 0.1));
  EXPECT_TRUE(f.ch.test_recv(any_tag));
  f.expect_agree();
}

// A (src, ANY) receive must find the earliest-ARRIVAL message from that
// source even when other sources' messages interleave the queue.
TEST(ChannelReference, SourceWildcardFindsEarliestArrivalFromSource) {
  Lockstep f;
  f.deposit(make_msg(1, 10, 1.0, 0.1));
  f.deposit(make_msg(2, 20, 1.0, 0.1));
  f.deposit(make_msg(1, 30, 1.0, 0.1));
  auto pr = f.post(make_recv(1, kAnyTag, 2.0));
  EXPECT_EQ(f.ch.wait_recv(pr).tag, 10);  // first arrival from source 1
  auto pr2 = f.post(make_recv(1, kAnyTag, 2.0));
  EXPECT_EQ(f.ch.wait_recv(pr2).tag, 30);
  EXPECT_EQ(f.ch.pending_messages(), 1u);  // source 2 untouched
  f.expect_agree();
}

TEST(ChannelReference, ProbeSeesEarliestCompatible) {
  Lockstep f(0.5);
  f.deposit(make_msg(4, 1, 1.0, 0.1));
  f.deposit(make_msg(3, 1, 0.5, 0.1, /*rendezvous=*/true));
  const Status by_tag = f.ch.probe(kAnySource, 1, 2.0);
  EXPECT_EQ(by_tag.source, 4);  // arrival order, not timestamps
  const Status by_src = f.ch.probe(3, kAnyTag, 2.0);
  EXPECT_EQ(by_src.source, 3);
  EXPECT_EQ(f.ch.pending_messages(), 2u);
  // Both probes report what the oracle's hypothetical receive would get.
  const auto want_tag = f.ref.probe(kAnySource, 1, 2.0);
  const auto want_src = f.ref.probe(3, kAnyTag, 2.0);
  ASSERT_TRUE(want_tag && want_src);
  EXPECT_EQ(by_tag.source, want_tag->source);
  EXPECT_EQ(by_tag.t_complete, want_tag->t_complete);
  EXPECT_EQ(by_src.source, want_src->source);
  EXPECT_EQ(by_src.t_complete, want_src->t_complete);  // rendezvous + extra
  f.expect_agree();
}

// Randomized: any interleaving of deposits and posts across sources, tags
// and wildcard classes must match exactly as the oracle does (source, tag,
// completion time, leftover queues).
TEST(ChannelReference, RandomizedHistoriesAgree) {
  const mpisect::support::CounterRng rng(0xD1FF);
  std::uint64_t ctr = 0;
  for (int round = 0; round < 50; ++round) {
    Lockstep f;
    for (int op = 0; op < 40; ++op) {
      const bool is_post = rng.below(0, ctr++, 2) == 1;
      const int src = static_cast<int>(rng.below(1, ctr++, 4));
      const int tag = static_cast<int>(rng.below(2, ctr++, 3));
      const double t = 0.25 * static_cast<double>(op);
      if (is_post) {
        const bool any_src = rng.below(3, ctr, 3) == 0;
        const bool any_tag = rng.below(4, ctr++, 3) == 0;
        f.post(make_recv(any_src ? kAnySource : src, any_tag ? kAnyTag : tag,
                         t));
      } else {
        f.deposit(make_msg(src, tag, t, 0.125));
      }
    }
    f.expect_agree("round " + std::to_string(round));
  }
}

// Flat lanes under stress, against the oracle: more than
// LaneTable::kLinearMax (8) distinct (src,tag), source and tag keys (the
// tables widen to a hash index), the 1024-value internal collective tag
// cycle, lanes drained and refilled, and receives of all four wildcard
// classes. Every call's return value, every match and every Status must
// agree, the channel's MemAccount slot must track the oracle's charge and
// high-water mark, and drain to zero once the channel dies.
TEST(ChannelReference, FlatLanesAgreeWithReferenceAcrossWidenAndTagCycle) {
  constexpr int kSources = 12;
  mpisect::obs::MemAccount mem(1);
  const mpisect::support::CounterRng rng(0xF1A7);
  std::uint64_t ctr = 0;
  {
    Lockstep f(0.25, &mem.rank(0));
    double t = 0.0;
    auto deposit = [&](int src, int tag) {
      t += 0.125;
      const bool rdv = (ctr++ % 5) == 0;
      const std::size_t bytes = 8 + (ctr % 7) * 16;
      f.deposit(make_msg(src, tag, t, 0.0625, rdv, bytes));
    };
    auto wildcard = [&](int src, int tag, std::uint64_t cls) {
      t += 0.125;
      f.post(make_recv(cls & 1 ? kAnySource : src, cls & 2 ? kAnyTag : tag, t,
                       256));
    };

    for (int round = 0; round < 3; ++round) {
      // Fill 36 pair lanes (12 sources x 3 tags) in arrival order, then
      // drain them with receives of every wildcard class, and refill.
      for (int tag = 0; tag < 3; ++tag) {
        for (int src = 0; src < kSources; ++src) deposit(src, tag);
      }
      for (int k = 0; k < 3 * kSources; ++k) {
        const int src = static_cast<int>(rng.below(0, ctr++, kSources));
        wildcard(src, static_cast<int>(rng.below(1, ctr++, 3)), k % 4);
      }
      // Leftover receives (a wildcard may have taken another lane's
      // message) are consumed by fresh deposits.
      for (int k = 0; k < 3 * kSources; ++k) {
        const int src = static_cast<int>(rng.below(2, ctr++, kSources));
        deposit(src, static_cast<int>(rng.below(3, ctr++, 3)));
      }
    }
    // Collective traffic: every operation takes the next internal tag, so
    // a channel sees each of the 1024 values come and go twice over.
    for (int seq = 0; seq < 2100; ++seq) {
      const int tag = kInternalTagBase + seq % 1024;
      const int src = seq % kSources;
      if (seq % 3 == 0) {
        wildcard(src, tag, 0);
        deposit(src, tag);
      } else {
        deposit(src, tag);
        wildcard(src, tag, rng.below(4, ctr++, 4));
      }
    }
    // Random mix over more keys than kLinearMax, leaving both queues
    // non-empty for the destructor to credit back.
    for (int op = 0; op < 600; ++op) {
      const int src = static_cast<int>(rng.below(5, ctr++, kSources));
      const int tag = static_cast<int>(rng.below(6, ctr++, 10));
      if (rng.below(7, ctr++, 2) == 0) {
        deposit(src, tag);
      } else {
        wildcard(src, tag, rng.below(8, ctr++, 4));
      }
    }

    EXPECT_GT(f.ch.pending_messages() + f.ch.pending_recvs(), 0u);
    f.expect_agree();
    EXPECT_EQ(mem.rank(0).hwm.load(), f.ref.bytes_hwm());
    EXPECT_EQ(mem.rank(0).current.load(), f.ref.bytes());
    EXPECT_GT(mem.rank(0).current.load(), 0u);
  }
  EXPECT_EQ(mem.rank(0).current.load(), 0u);
}

// LaneTable against std::map under random inserts and erases, with key
// counts that cross kLinearMax in both directions and force index rebuilds
// and backward-shift deletions (keys collide in the low bits on purpose).
TEST(LaneTable, RandomInsertEraseMatchesMap) {
  const mpisect::support::CounterRng rng(0x1A7E);
  LaneTable<int> table;
  std::map<std::uint64_t, int> ref;
  std::uint64_t ctr = 0;
  for (int op = 0; op < 20000; ++op) {
    // Phases of growth and shrinkage: the live key count swings between a
    // few and a few hundred.
    const bool grow = (op / 2500) % 2 == 0;
    const std::uint64_t hi = rng.below(0, ctr++, 64);
    const std::uint64_t key = (hi << 32) | (rng.below(1, ctr++, 8) << 10);
    if (rng.below(2, ctr++, 4) < (grow ? 3u : 1u)) {
      table[key] += 1;
      ref[key] += 1;
    } else {
      table.erase(key);
      ref.erase(key);
    }
    if (op % 97 == 0) {
      for (const auto& [k, v] : ref) {
        const int* got = table.find(k);
        ASSERT_NE(got, nullptr) << "op " << op << " key " << k;
        ASSERT_EQ(*got, v) << "op " << op << " key " << k;
      }
      std::size_t n = 0;
      table.for_each([&](std::uint64_t k, int& v) {
        ++n;
        EXPECT_EQ(ref.at(k), v);
      });
      ASSERT_EQ(n, ref.size()) << "op " << op;
    }
    ASSERT_EQ(table.find(key) != nullptr, ref.count(key) == 1) << "op " << op;
  }
}

}  // namespace

// Steady-state heap allocations of the point-to-point path. Messages,
// posted receives and request states come from the world's record pools,
// so once a run is warm a ping-pong allocates (almost) nothing per message.
//
// This binary replaces the global operator new/delete with counting
// versions, which is why it is its own test executable: the count covers
// every allocation in the process, and no other suite should pay for it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "mpisim/comm.hpp"
#include "mpisim/runtime.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_alloc_aligned(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace mpisect::mpisim;

/// Messages per ping-pong iteration: each rank isends once and sends once.
constexpr int kMessagesPerIter = 4;

/// Allocations made by one 2-rank ping-pong world running `iters`
/// iterations of irecv + isend + waitall, then a blocking send/recv pair.
std::uint64_t pingpong_allocs(int iters, int workers) {
  WorldOptions opts;
  opts.workers = workers;
  World world(2, opts);
  const std::uint64_t before = g_allocs.load();
  world.run([iters](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    const int peer = 1 - comm.rank();
    std::vector<Comm::Request> reqs;
    reqs.reserve(2);
    for (int i = 0; i < iters; ++i) {
      reqs.clear();
      reqs.push_back(comm.irecv(nullptr, 64, peer, 0));
      reqs.push_back(comm.isend(nullptr, 64, peer, 0));
      waitall(reqs);
      if (comm.rank() == 0) {
        comm.send(nullptr, 64, peer, 1);
        comm.recv(nullptr, 64, peer, 1);
      } else {
        comm.recv(nullptr, 64, peer, 1);
        comm.send(nullptr, 64, peer, 1);
      }
    }
  });
  return g_allocs.load() - before;
}

// Warm-up cost (threads, fibers, first pool blocks) is the same for K and
// 2K iterations, so the difference is what K more iterations cost.
TEST(AllocBudget, PingPongAllocatesAtMostATenthPerMessage) {
  constexpr int kIters = 2000;
  for (const int workers : {1, 4}) {
    const std::uint64_t k = pingpong_allocs(kIters, workers);
    const std::uint64_t k2 = pingpong_allocs(2 * kIters, workers);
    const double per_message =
        (static_cast<double>(k2) - static_cast<double>(k)) /
        (kIters * kMessagesPerIter);
    EXPECT_LE(per_message, 0.1)
        << "workers=" << workers << ": " << k << " allocations for "
        << kIters << " iterations, " << k2 << " for " << 2 * kIters;
  }
}

}  // namespace

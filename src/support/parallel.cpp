#include "support/parallel.hpp"

#include <sched.h>

#include <algorithm>
#include <system_error>
#include <thread>
#include <vector>

#include "support/spec.hpp"

namespace mpisect::support {

namespace {

/// MPISECT_WORKERS shares ExecModel::kMaxWorkers' bound.
constexpr int kMaxWorkersEnv = 1024;

/// Budget slots taken by live crews.
std::atomic<std::size_t> g_helpers{0};

}  // namespace

int usable_cores() {
  int n = 0;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) n = CPU_COUNT(&set);
  if (n <= 0) n = static_cast<int>(std::thread::hardware_concurrency());
  n = std::max(n, 1);
  if (const int cap = env_int("MPISECT_WORKERS", kMaxWorkersEnv); cap > 0) {
    n = std::min(n, cap);
  }
  return n;
}

Crew::Crew(std::size_t want) {
  if (want <= 1) return;
  const auto budget = static_cast<std::size_t>(usable_cores() - 1);
  std::size_t live = g_helpers.load();
  for (;;) {
    const std::size_t free = live < budget ? budget - live : 0;
    const std::size_t take = std::min(want - 1, free);
    if (take == 0) return;
    if (g_helpers.compare_exchange_weak(live, live + take)) {
      helpers_ = take;
      return;
    }
  }
}

Crew::~Crew() { g_helpers.fetch_sub(helpers_); }

void Crew::dispatch(Call call, void* ctx) {
  std::vector<std::jthread> threads;
  threads.reserve(helpers_);
  for (std::size_t i = 1; i <= helpers_; ++i) {
    try {
      threads.emplace_back([=] { call(ctx, i); });
    } catch (const std::system_error&) {
      break;  // out of threads: the ones running, and this one, suffice
    }
  }
  call(ctx, 0);
}  // joins the helpers

}  // namespace mpisect::support

// MPI_Section runtime semantics: nesting invariants, MPI_MAIN bracketing,
// callbacks with the 32-byte payload, validation mode, stack inspection,
// and the label registry's concurrent interning.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/sections/api.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/runtime.hpp"

namespace {

using namespace mpisect;
using namespace mpisect::sections;
using mpisim::Comm;
using mpisim::Ctx;
using mpisim::MachineModel;
using mpisim::World;
using mpisim::WorldOptions;

WorldOptions ideal_options() {
  WorldOptions opts;
  opts.machine = MachineModel::ideal();
  return opts;
}

TEST(SectionApi, EnterExitBalancedOk) {
  World world(2, ideal_options());
  auto rt = SectionRuntime::install(world);
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    EXPECT_EQ(MPIX_Section_enter(comm, "A"), kSectionOk);
    EXPECT_EQ(MPIX_Section_enter(comm, "B"), kSectionOk);
    EXPECT_EQ(MPIX_Section_exit(comm, "B"), kSectionOk);
    EXPECT_EQ(MPIX_Section_exit(comm, "A"), kSectionOk);
  });
  const auto counters = rt->counters();
  // 2 ranks x (MPI_MAIN + A + B).
  EXPECT_EQ(counters.enters, 6u);
  EXPECT_EQ(counters.exits, 6u);
  EXPECT_EQ(counters.errors, 0u);
}

TEST(SectionApi, NoRuntimeInstalled) {
  World world(1, ideal_options());
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    EXPECT_EQ(MPIX_Section_enter(comm, "X"), kSectionErrNoRuntime);
  });
}

TEST(SectionApi, BadLabelRejected) {
  World world(1, ideal_options());
  SectionRuntime::install(world);
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    EXPECT_EQ(MPIX_Section_enter(comm, nullptr), kSectionErrBadLabel);
    EXPECT_EQ(MPIX_Section_enter(comm, ""), kSectionErrBadLabel);
  });
}

TEST(SectionApi, MismatchedExitRejected) {
  World world(1, ideal_options());
  auto rt = SectionRuntime::install(world);
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    EXPECT_EQ(MPIX_Section_enter(comm, "outer"), kSectionOk);
    EXPECT_EQ(MPIX_Section_exit(comm, "inner"), kSectionErrNotNested);
    EXPECT_EQ(MPIX_Section_exit(comm, "outer"), kSectionOk);
  });
  EXPECT_GE(rt->counters().errors, 1u);
}

TEST(SectionApi, ExitWithoutEnterIsEmptyStackAfterMainExit) {
  // Inside the app, the stack always holds MPI_MAIN; popping a wrong label
  // is NotNested, and only a truly empty stack gives EmptyStack.
  World world(1, ideal_options());
  auto rt = SectionRuntime::install(world);
  world.run([&](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    EXPECT_EQ(MPIX_Section_exit(comm, "ghost"), kSectionErrNotNested);
    // Drain MPI_MAIN manually, then the stack really is empty.
    EXPECT_EQ(MPIX_Section_exit(comm, kMainSectionLabel), kSectionOk);
    EXPECT_EQ(MPIX_Section_exit(comm, "ghost"), kSectionErrEmptyStack);
    // Restore MPI_MAIN so finalize's implicit exit stays balanced.
    EXPECT_EQ(MPIX_Section_enter(comm, kMainSectionLabel), kSectionOk);
  });
  EXPECT_GE(rt->counters().errors, 2u);
}

TEST(SectionApi, MainSectionAutomatic) {
  World world(2, ideal_options());
  auto rt = SectionRuntime::install(world);
  std::atomic<int> saw_main{0};
  world.hooks().section_enter_cb = [&](Ctx&, Comm&, const char* label,
                                       char*) {
    if (std::string(label) == kMainSectionLabel) ++saw_main;
  };
  world.run([&](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    // Inside the app we are exactly one level deep: MPI_MAIN.
    EXPECT_EQ(rt->stack_string(ctx, comm), kMainSectionLabel);
  });
  EXPECT_EQ(saw_main.load(), 2);
  EXPECT_EQ(rt->counters().enters, rt->counters().exits);
}

TEST(SectionApi, LeakedSectionsForceUnwoundAtFinalize) {
  World world(1, ideal_options());
  auto rt = SectionRuntime::install(world);
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    MPIX_Section_enter(comm, "leaky");
    MPIX_Section_enter(comm, "leakier");
    // never exited — finalize must unwind them and still close MPI_MAIN
  });
  EXPECT_EQ(rt->counters().enters, rt->counters().exits);
}

TEST(SectionCallbacks, PayloadPreservedEnterToLeave) {
  World world(2, ideal_options());
  SectionRuntime::install(world);
  std::atomic<int> checked{0};
  world.hooks().section_enter_cb = [](Ctx& ctx, Comm&, const char* label,
                                      char* data) {
    if (std::string(label) == "work") {
      const double stamp = ctx.now() + 1000.0;
      std::memcpy(data, &stamp, sizeof stamp);
    }
  };
  world.hooks().section_leave_cb = [&](Ctx& ctx, Comm&, const char* label,
                                       char* data) {
    if (std::string(label) == "work") {
      double stamp = 0.0;
      std::memcpy(&stamp, data, sizeof stamp);
      EXPECT_GE(stamp, 1000.0);  // the payload written at enter survived
      EXPECT_LE(stamp, ctx.now() + 1000.0);
      ++checked;
    }
  };
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    MPIX_Section_enter(comm, "work");
    ctx.compute_exact(0.5);
    MPIX_Section_exit(comm, "work");
  });
  EXPECT_EQ(checked.load(), 2);
}

TEST(SectionCallbacks, NestedPayloadsIndependent) {
  World world(1, ideal_options());
  SectionRuntime::install(world);
  std::vector<int> leave_order;
  world.hooks().section_enter_cb = [](Ctx&, Comm&, const char* label,
                                      char* data) {
    const int v = label[0];
    std::memcpy(data, &v, sizeof v);
  };
  world.hooks().section_leave_cb = [&](Ctx&, Comm&, const char*, char* data) {
    int v = 0;
    std::memcpy(&v, data, sizeof v);
    leave_order.push_back(v);
  };
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    MPIX_Section_enter(comm, "a");
    MPIX_Section_enter(comm, "b");
    MPIX_Section_exit(comm, "b");
    MPIX_Section_exit(comm, "a");
  });
  // leave order: b, a, MPI_MAIN ('M').
  ASSERT_EQ(leave_order.size(), 3u);
  EXPECT_EQ(leave_order[0], 'b');
  EXPECT_EQ(leave_order[1], 'a');
  EXPECT_EQ(leave_order[2], 'M');
}

TEST(SectionScoped, RaiiBalances) {
  World world(1, ideal_options());
  auto rt = SectionRuntime::install(world);
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    {
      const ScopedSection s(comm, "scope");
      EXPECT_EQ(s.enter_result(), kSectionOk);
    }
  });
  EXPECT_EQ(rt->counters().enters, rt->counters().exits);
  EXPECT_EQ(rt->counters().errors, 0u);
}

TEST(SectionStacks, PerCommunicatorIndependence) {
  World world(2, ideal_options());
  auto rt = SectionRuntime::install(world);
  world.run([&](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    Comm sub = comm.dup();
    MPIX_Section_enter(comm, "on-world");
    MPIX_Section_enter(sub, "on-sub");
    // The stacks are independent: exiting on one comm does not disturb
    // the other.
    EXPECT_EQ(MPIX_Section_exit(comm, "on-world"), kSectionOk);
    EXPECT_EQ(MPIX_Section_exit(sub, "on-sub"), kSectionOk);
  });
  EXPECT_EQ(rt->counters().errors, 0u);
}

TEST(SectionStacks, SnapshotShowsNesting) {
  World world(1, ideal_options());
  auto rt = SectionRuntime::install(world);
  world.run([&](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    MPIX_Section_enter(comm, "communication");
    MPIX_Section_enter(comm, "load-balancing");
    // The "debugger" use case: where am I?
    EXPECT_EQ(rt->stack_string(ctx, comm),
              "MPI_MAIN / communication / load-balancing");
    const auto snap = rt->stack_snapshot(ctx, comm);
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[2].depth, 2);
    MPIX_Section_exit(comm, "load-balancing");
    MPIX_Section_exit(comm, "communication");
  });
}

TEST(SectionValidation, AgreementPasses) {
  WorldOptions opts = ideal_options();
  opts.validate_sections = true;
  World world(4, opts);
  auto rt = SectionRuntime::install(world);
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(MPIX_Section_enter(comm, "agreed"), kSectionOk);
      EXPECT_EQ(MPIX_Section_exit(comm, "agreed"), kSectionOk);
    }
  });
  EXPECT_GT(rt->counters().validation_rounds, 0u);
  EXPECT_EQ(rt->counters().errors, 0u);
}

TEST(SectionValidation, DisagreementDetected) {
  WorldOptions opts = ideal_options();
  opts.validate_sections = true;
  World world(2, opts);
  SectionRuntime::install(world);
  std::atomic<int> mismatches{0};
  world.run([&](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    const char* label = ctx.rank() == 0 ? "alpha" : "beta";
    if (MPIX_Section_enter(comm, label) == kSectionErrMismatch) ++mismatches;
    MPIX_Section_exit(comm, label);
  });
  EXPECT_EQ(mismatches.load(), 2);  // both ranks detect the divergence
}

TEST(SectionValidation, CanBeToggledOff) {
  WorldOptions opts = ideal_options();
  opts.validate_sections = true;
  World world(2, opts);
  auto rt = SectionRuntime::install(world);
  rt->set_validation(false);
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    // Divergent labels are NOT caught without validation — the calls are
    // purely local ("non-blocking collective").
    const char* label = ctx.rank() == 0 ? "a" : "b";
    EXPECT_EQ(MPIX_Section_enter(comm, label), kSectionOk);
    EXPECT_EQ(MPIX_Section_exit(comm, label), kSectionOk);
  });
  EXPECT_EQ(rt->counters().errors, 0u);
}

TEST(SectionEnterIsNonBlocking, NoVirtualTimeCost) {
  World world(2, ideal_options());
  SectionRuntime::install(world);
  std::vector<double> costs(2);
  world.run([&](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    // Rank 1 is far behind rank 0; entering a section must NOT synchronize
    // them (unlike a barrier).
    if (ctx.rank() == 0) ctx.compute_exact(100.0);
    const double before = ctx.now();
    MPIX_Section_enter(comm, "free");
    MPIX_Section_exit(comm, "free");
    costs[static_cast<std::size_t>(ctx.rank())] = ctx.now() - before;
  });
  EXPECT_DOUBLE_EQ(costs[0], 0.0);
  EXPECT_DOUBLE_EQ(costs[1], 0.0);
}

TEST(SectionLabels, InterningStableAndShared) {
  LabelRegistry reg;
  const auto a = reg.intern("HALO");
  const auto b = reg.intern("CONVOLVE");
  EXPECT_NE(a, b);
  EXPECT_EQ(reg.intern("HALO"), a);
  EXPECT_EQ(reg.name(a), "HALO");
  EXPECT_EQ(reg.lookup("CONVOLVE"), b);
  EXPECT_EQ(reg.lookup("missing"), kInvalidLabel);
  EXPECT_EQ(reg.name(12345), "?");
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.all().size(), 2u);
}

// Eight threads intern overlapping label sets into one registry: ids must
// come out dense, every thread must see the same id for a label, and
// name/lookup must agree with intern. Then two registries seeded in
// opposite orders are hit from all threads at once: each must keep its own
// ids (a hit cache shared across registries would leak one into the other),
// also when a registry reuses the address of a destroyed one.
TEST(SectionLabels, ConcurrentInternIsDenseAndPerRegistry) {
  constexpr int kThreads = 8;
  constexpr int kLabels = 96;
  std::vector<std::string> text(kLabels);
  for (int i = 0; i < kLabels; ++i) text[i] = "label-" + std::to_string(i);

  LabelRegistry reg;
  std::vector<std::vector<LabelId>> seen(
      kThreads, std::vector<LabelId>(kLabels, kInvalidLabel));
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Thread t covers half the labels starting at 12 t, in its own
        // stride order, three times over (later passes are all hits).
        for (int pass = 0; pass < 3; ++pass) {
          for (int k = 0; k < kLabels / 2; ++k) {
            const int i = (12 * t + 7 * k) % kLabels;
            const LabelId id = reg.intern(text[i]);
            if (seen[t][i] == kInvalidLabel) seen[t][i] = id;
            EXPECT_EQ(id, seen[t][i]);
            EXPECT_EQ(reg.lookup(text[i]), id);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  ASSERT_EQ(reg.size(), static_cast<std::size_t>(kLabels));
  std::vector<bool> used(kLabels, false);
  for (int i = 0; i < kLabels; ++i) {
    const LabelId id = reg.lookup(text[i]);
    ASSERT_LT(id, static_cast<LabelId>(kLabels)) << text[i];
    EXPECT_FALSE(used[id]) << "id " << id << " handed out twice";
    used[id] = true;
    EXPECT_EQ(reg.name(id), text[i]);
    EXPECT_EQ(reg.intern(text[i]), id);
    for (int t = 0; t < kThreads; ++t) {
      if (seen[t][i] != kInvalidLabel) {
        EXPECT_EQ(seen[t][i], id);
      }
    }
  }
  EXPECT_EQ(reg.all()[reg.lookup(text[5])], text[5]);

  for (int round = 0; round < 3; ++round) {
    auto forward = std::make_unique<LabelRegistry>();
    auto backward = std::make_unique<LabelRegistry>();
    for (int i = 0; i < kLabels; ++i) {
      ASSERT_EQ(forward->intern(text[i]), static_cast<LabelId>(i));
      ASSERT_EQ(backward->intern(text[kLabels - 1 - i]),
                static_cast<LabelId>(i));
    }
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int k = 0; k < kLabels; ++k) {
          const int i = (t + 5 * k) % kLabels;
          EXPECT_EQ(forward->intern(text[i]), static_cast<LabelId>(i));
          EXPECT_EQ(backward->intern(text[i]),
                    static_cast<LabelId>(kLabels - 1 - i));
          EXPECT_EQ(backward->lookup(text[i]),
                    static_cast<LabelId>(kLabels - 1 - i));
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(forward->size(), static_cast<std::size_t>(kLabels));
    EXPECT_EQ(backward->size(), static_cast<std::size_t>(kLabels));
  }
}

TEST(SectionLabels, HashDiffersByContent) {
  EXPECT_NE(label_hash("HALO"), label_hash("HALp"));
  EXPECT_EQ(label_hash("X"), label_hash("X"));
}

TEST(SectionResultNames, AllNamed) {
  for (int code = 0; code <= 6; ++code) {
    EXPECT_NE(std::string(section_result_name(code)), "MPIX_ERR_SECTION_UNKNOWN");
  }
}

}  // namespace

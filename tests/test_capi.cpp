// C ABI of the section interface (include/mpix_section.h): the extern "C"
// entry points round-trip through a real world, the callback pair fires
// with its persistent 32-byte payload beside the attached tools (and may be
// registered from every rank at once), error codes match the C++ enum, and
// the header itself compiles under a plain C compiler (capi_c_smoke.c, a
// C11 translation unit linked into this binary).
#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "core/sections/api.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/runtime.hpp"
#include "mpix_section.h"
#include "profiler/section_profiler.hpp"

extern "C" {
int mpix_c_smoke_register(MPIX_Comm comm);
int mpix_c_smoke_roundtrip(MPIX_Comm comm, const char* label);
int mpix_c_smoke_enter_count(void);
int mpix_c_smoke_exit_count(void);
int mpix_c_smoke_null_comm(void);
}

namespace {

using namespace mpisect;

TEST(SectionCApi, ErrorCodesMatchTheCxxEnum) {
  EXPECT_EQ(MPIX_SECTION_OK, sections::kSectionOk);
  EXPECT_EQ(MPIX_SECTION_ERR_NO_RUNTIME, sections::kSectionErrNoRuntime);
  EXPECT_EQ(MPIX_SECTION_ERR_BAD_LABEL, sections::kSectionErrBadLabel);
  EXPECT_EQ(MPIX_SECTION_ERR_NOT_NESTED, sections::kSectionErrNotNested);
  EXPECT_EQ(MPIX_SECTION_ERR_EMPTY_STACK, sections::kSectionErrEmptyStack);
  EXPECT_EQ(MPIX_SECTION_ERR_MISMATCH, sections::kSectionErrMismatch);
  EXPECT_EQ(MPIX_SECTION_ERR_COMM, sections::kSectionErrComm);
  EXPECT_EQ(MPIX_SECTION_ERR_LEAKED, sections::kSectionErrLeaked);
  EXPECT_EQ(MPIX_SECTION_DATA_BYTES,
            static_cast<int>(mpisim::kSectionDataBytes));
}

TEST(SectionCApi, NullCommIsRejectedFromPlainC) {
  EXPECT_EQ(mpix_c_smoke_null_comm(), 0);
}

TEST(SectionCApi, EnterExitRoundTripsThroughTheCAbi) {
  mpisim::World world(2, {});
  sections::SectionRuntime::install(world);
  world.run([](mpisim::Ctx& ctx) {
    mpisim::Comm comm = ctx.world_comm();
    const MPIX_Comm h = sections::mpix_handle(comm);
    EXPECT_EQ(mpix_c_smoke_roundtrip(h, "C_PHASE"), MPIX_SECTION_OK);
    // Exit without enter surfaces the C++ error code across the ABI: the
    // runtime's implicit MPI_MAIN root is still open, so this is a
    // nesting mismatch rather than an empty stack.
    EXPECT_EQ(MPIX_Section_exit(h, "C_PHASE"),
              MPIX_SECTION_ERR_NOT_NESTED);
    EXPECT_EQ(MPIX_Section_enter(h, ""), MPIX_SECTION_ERR_BAD_LABEL);
  });
}

TEST(SectionCApi, CallbackPairFiresWithPersistentPayload) {
  mpisim::World world(1, {});
  sections::SectionRuntime::install(world);
  world.run([](mpisim::Ctx& ctx) {
    mpisim::Comm comm = ctx.world_comm();
    const MPIX_Comm h = sections::mpix_handle(comm);
    ASSERT_EQ(mpix_c_smoke_register(h), MPIX_SECTION_OK);
    ASSERT_EQ(mpix_c_smoke_roundtrip(h, "CB"), MPIX_SECTION_OK);
    ASSERT_EQ(mpix_c_smoke_roundtrip(h, "CB"), MPIX_SECTION_OK);
    // Unregister: later sections must not fire the C callbacks.
    ASSERT_EQ(MPIX_Section_set_callbacks(h, nullptr, nullptr),
              MPIX_SECTION_OK);
    ASSERT_EQ(mpix_c_smoke_roundtrip(h, "CB"), MPIX_SECTION_OK);
  });
  EXPECT_EQ(mpix_c_smoke_enter_count(), 2);
  EXPECT_EQ(mpix_c_smoke_exit_count(), 2);  // -1000 if the payload was lost
}

std::atomic<int> g_work_enters{0};
std::atomic<int> g_work_exits{0};

void count_work_enter(MPIX_Comm, const char* label, char*) {
  if (std::string(label) == "work") ++g_work_enters;
}

void count_work_exit(MPIX_Comm, const char* label, char*) {
  if (std::string(label) == "work") ++g_work_exits;
}

// Registering the C pair after a tool attached must not disconnect the
// tool: both observe every later section.
TEST(SectionCApi, SetCallbacksKeepsAttachedTools) {
  g_work_enters = 0;
  g_work_exits = 0;
  mpisim::World world(2, {});
  sections::SectionRuntime::install(world);
  profiler::SectionProfiler prof(world);
  world.run([](mpisim::Ctx& ctx) {
    mpisim::Comm comm = ctx.world_comm();
    ASSERT_EQ(MPIX_Section_set_callbacks(sections::mpix_handle(comm),
                                         count_work_enter, count_work_exit),
              MPIX_SECTION_OK);
    comm.barrier();
    sections::MPIX_Section_enter(comm, "work");
    ctx.compute_exact(1.0);
    sections::MPIX_Section_exit(comm, "work");
  });
  const auto totals = prof.totals_for("work");
  EXPECT_EQ(totals.instances, 1);
  EXPECT_EQ(totals.ranks_seen, 2);
  EXPECT_NEAR(totals.mean_per_process, 1.0, 1e-12);
  EXPECT_EQ(g_work_enters.load(), 2);
  EXPECT_EQ(g_work_exits.load(), 2);
}

// Ranks on different scheduler workers register the pair while others fire
// it; ThreadSanitizer checks the registration is race-free.
TEST(SectionCApi, ConcurrentSetCallbacksFromEveryRank) {
  g_work_enters = 0;
  g_work_exits = 0;
  mpisim::WorldOptions opts;
  opts.workers = 4;
  mpisim::World world(4, opts);
  sections::SectionRuntime::install(world);
  world.run([](mpisim::Ctx& ctx) {
    mpisim::Comm comm = ctx.world_comm();
    const MPIX_Comm h = sections::mpix_handle(comm);
    comm.barrier();
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(MPIX_Section_set_callbacks(h, count_work_enter,
                                           count_work_exit),
                MPIX_SECTION_OK);
      ASSERT_EQ(MPIX_Section_enter(h, "work"), MPIX_SECTION_OK);
      ASSERT_EQ(MPIX_Section_exit(h, "work"), MPIX_SECTION_OK);
    }
  });
  EXPECT_EQ(g_work_enters.load(), 8000);
  EXPECT_EQ(g_work_exits.load(), 8000);
}

TEST(SectionCApi, SetCallbacksNeedsARuntime) {
  mpisim::World world(1, {});
  world.run([](mpisim::Ctx& ctx) {
    mpisim::Comm comm = ctx.world_comm();
    EXPECT_EQ(MPIX_Section_set_callbacks(sections::mpix_handle(comm),
                                         count_work_enter, count_work_exit),
              MPIX_SECTION_ERR_NO_RUNTIME);
  });
}

}  // namespace

// ToolStack registration semantics: attach order controls observation
// nesting (ascending on begin events, descending on end events), the C
// callbacks of MPIX_Section_set_callbacks bracket the attached tools,
// detach is symmetric, and the stack never perturbs virtual time.
#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/sections/api.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/runtime.hpp"
#include "mpisim/toolstack.hpp"
#include "mpix_section.h"

namespace {

using namespace mpisect;
using mpisim::hooks::Tool;

/// Appends "<name>+" on begin events and "<name>-" on end events to a
/// shared log (mutex-guarded: tool methods run on rank threads).
class LoggingTool final : public Tool {
 public:
  LoggingTool(std::string name, std::vector<std::string>& log)
      : name_(std::move(name)), log_(&log) {}

  void on_call_begin(mpisim::Ctx&, const mpisim::CallInfo&) override {
    push(name_ + "+");
  }
  void on_call_end(mpisim::Ctx&, const mpisim::CallInfo&) override {
    push(name_ + "-");
  }
  void on_section_enter(mpisim::Ctx&, mpisim::Comm&, const char* label,
                        char*) override {
    push(name_ + "+enter:" + label);
  }
  void on_section_leave(mpisim::Ctx&, mpisim::Comm&, const char* label,
                        char*) override {
    push(name_ + "-leave:" + label);
  }

 private:
  void push(std::string entry) {
    static std::mutex mu;
    const std::lock_guard<std::mutex> lock(mu);
    log_->push_back(std::move(entry));
  }

  std::string name_;
  std::vector<std::string>* log_;
};

void run_barrier(mpisim::World& world) {
  world.run([](mpisim::Ctx& ctx) { ctx.world_comm().barrier(); });
}

TEST(ToolStack, BeginAscendingEndDescending) {
  mpisim::World world(1, {});
  std::vector<std::string> log;
  LoggingTool outer("outer", log);
  LoggingTool inner("inner", log);
  world.tool_stack().attach(&inner, /*order=*/20);
  world.tool_stack().attach(&outer, /*order=*/10);  // order beats attach time
  run_barrier(world);
  world.tool_stack().detach(&outer);
  world.tool_stack().detach(&inner);

  // Find the barrier call bracket: outer must bracket inner, PMPI-style.
  std::vector<std::string> calls;
  for (const auto& e : log) {
    if (e == "outer+" || e == "inner+" || e == "outer-" || e == "inner-") {
      calls.push_back(e);
    }
  }
  ASSERT_GE(calls.size(), 4u);
  EXPECT_EQ(calls[0], "outer+");
  EXPECT_EQ(calls[1], "inner+");
  EXPECT_EQ(calls[calls.size() - 2], "inner-");
  EXPECT_EQ(calls[calls.size() - 1], "outer-");
}

TEST(ToolStack, SectionCallbacksNestTheSameWay) {
  mpisim::World world(1, {});
  sections::SectionRuntime::install(world);
  std::vector<std::string> log;
  LoggingTool a("a", log);
  LoggingTool b("b", log);
  world.tool_stack().attach(&a, 10);
  world.tool_stack().attach(&b, 20);
  world.run([](mpisim::Ctx& ctx) {
    mpisim::Comm comm = ctx.world_comm();
    sections::MPIX_Section_enter(comm, "PHASE");
    sections::MPIX_Section_exit(comm, "PHASE");
  });
  world.tool_stack().detach(&a);
  world.tool_stack().detach(&b);

  std::vector<std::string> sec;
  for (const auto& e : log) {
    if (e.find("enter:PHASE") != std::string::npos ||
        e.find("leave:PHASE") != std::string::npos) {
      sec.push_back(e);
    }
  }
  ASSERT_EQ(sec.size(), 4u);
  EXPECT_EQ(sec[0], "a+enter:PHASE");
  EXPECT_EQ(sec[1], "b+enter:PHASE");
  EXPECT_EQ(sec[2], "b-leave:PHASE");
  EXPECT_EQ(sec[3], "a-leave:PHASE");
}

// Log of the plain-C callback pair below (C function pointers carry no
// state; the test world has one rank, so no lock is needed).
std::vector<std::string>* g_c_log = nullptr;

void c_enter(MPIX_Comm, const char* label, char*) {
  g_c_log->push_back(std::string("c+enter:") + label);
}

void c_exit(MPIX_Comm, const char* label, char*) {
  g_c_log->push_back(std::string("c-leave:") + label);
}

TEST(ToolStack, CCallbacksFireFirstOnEnterAndLastOnExit) {
  mpisim::World world(1, {});
  sections::SectionRuntime::install(world);
  std::vector<std::string> log;
  g_c_log = &log;
  LoggingTool a("a", log);
  LoggingTool b("b", log);
  world.tool_stack().attach(&a, 10);
  world.tool_stack().attach(&b, 20);
  world.run([](mpisim::Ctx& ctx) {
    mpisim::Comm comm = ctx.world_comm();
    ASSERT_EQ(MPIX_Section_set_callbacks(sections::mpix_handle(comm),
                                         c_enter, c_exit),
              MPIX_SECTION_OK);
    sections::MPIX_Section_enter(comm, "PHASE");
    sections::MPIX_Section_exit(comm, "PHASE");
  });
  world.tool_stack().detach(&a);
  world.tool_stack().detach(&b);
  g_c_log = nullptr;

  std::vector<std::string> sec;
  for (const auto& e : log) {
    if (e.find(":PHASE") != std::string::npos) sec.push_back(e);
  }
  const std::vector<std::string> expected{
      "c+enter:PHASE", "a+enter:PHASE", "b+enter:PHASE",
      "b-leave:PHASE", "a-leave:PHASE", "c-leave:PHASE"};
  EXPECT_EQ(sec, expected);
}

TEST(ToolStack, DetachStopsDeliveryAndShrinksTheStack) {
  mpisim::World world(1, {});
  std::vector<std::string> log;
  LoggingTool tool("tool", log);
  world.tool_stack().attach(&tool, 10);
  EXPECT_EQ(world.tool_stack().size(), 1u);
  world.tool_stack().detach(&tool);
  EXPECT_EQ(world.tool_stack().size(), 0u);
  world.tool_stack().detach(&tool);  // idempotent
  run_barrier(world);
  EXPECT_TRUE(log.empty());
}

TEST(ToolStack, AttachedToolsDoNotPerturbVirtualTime) {
  double bare = 0.0;
  {
    mpisim::WorldOptions opts;
    opts.machine = mpisim::MachineModel::nehalem_cluster();
    mpisim::World world(4, opts);
    world.run([](mpisim::Ctx& ctx) {
      for (int i = 0; i < 8; ++i) ctx.world_comm().barrier();
    });
    bare = world.elapsed();
  }
  {
    mpisim::WorldOptions opts;
    opts.machine = mpisim::MachineModel::nehalem_cluster();
    mpisim::World world(4, opts);
    std::vector<std::string> log;
    LoggingTool tool("tool", log);
    world.tool_stack().attach(&tool, 10);
    world.run([](mpisim::Ctx& ctx) {
      for (int i = 0; i < 8; ++i) ctx.world_comm().barrier();
    });
    world.tool_stack().detach(&tool);
    EXPECT_EQ(world.elapsed(), bare);  // bitwise
  }
}

}  // namespace

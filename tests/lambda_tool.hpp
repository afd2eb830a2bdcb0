// LambdaTool: a hooks::Tool whose events forward to std::function members,
// for tests that observe a few events without writing a Tool subclass.
//
//   testutil::LambdaTool tool(world);
//   tool.call_begin = [&](Ctx&, const CallInfo& info) { ... };
//   world.run(...);
//
// It attaches on construction and detaches on destruction, so declare it
// after the World it watches. Unset members ignore their event.
#pragma once

#include <functional>

#include "mpisim/runtime.hpp"
#include "mpisim/toolstack.hpp"

namespace mpisect::testutil {

class LambdaTool final : public mpisim::hooks::Tool {
 public:
  explicit LambdaTool(mpisim::World& world,
                      int order = mpisim::hooks::kOrderProfiler)
      : world_(world) {
    world_.tool_stack().attach(this, order);
  }
  ~LambdaTool() override { world_.tool_stack().detach(this); }
  LambdaTool(const LambdaTool&) = delete;
  LambdaTool& operator=(const LambdaTool&) = delete;

  using CallFn = std::function<void(mpisim::Ctx&, const mpisim::CallInfo&)>;
  using SectionFn = std::function<void(mpisim::Ctx&, const char*, char*)>;

  CallFn call_begin;
  CallFn call_end;
  SectionFn section_enter;
  SectionFn section_leave;
  std::function<void(mpisim::Ctx&, int, const char*)> pcontrol;
  std::function<void(mpisim::Ctx&, const mpisim::CommLifecycle&)> comm_create;
  std::function<void(mpisim::Ctx&, int)> comm_free;

  void on_call_begin(mpisim::Ctx& ctx, const mpisim::CallInfo& i) override {
    if (call_begin) call_begin(ctx, i);
  }
  void on_call_end(mpisim::Ctx& ctx, const mpisim::CallInfo& i) override {
    if (call_end) call_end(ctx, i);
  }
  void on_section_enter(mpisim::Ctx& ctx, mpisim::Comm&, const char* label,
                        char* data) override {
    if (section_enter) section_enter(ctx, label, data);
  }
  void on_section_leave(mpisim::Ctx& ctx, mpisim::Comm&, const char* label,
                        char* data) override {
    if (section_leave) section_leave(ctx, label, data);
  }
  void on_pcontrol(mpisim::Ctx& ctx, int level, const char* label) override {
    if (pcontrol) pcontrol(ctx, level, label);
  }
  void on_comm_create(mpisim::Ctx& ctx,
                      const mpisim::CommLifecycle& info) override {
    if (comm_create) comm_create(ctx, info);
  }
  void on_comm_free(mpisim::Ctx& ctx, int context) override {
    if (comm_free) comm_free(ctx, context);
  }

 private:
  mpisim::World& world_;
};

}  // namespace mpisect::testutil

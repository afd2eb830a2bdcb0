// Tool registration and dispatch — the one way the runtime reaches a tool.
//
// Real MPI tools interpose at link time (the tool defines MPI_Send, the
// runtime provides PMPI_Send). Here a tool derives from hooks::Tool,
// overrides only the events it cares about, and registers with
//
//   world.tool_stack().attach(&tool, order);
//
// The application never names the tool — the decoupling the paper's
// MPI_Section proposal relies on. Every event site of the runtime calls the
// world's stack directly: begin-type events run the tools in ascending
// `order`, end-type events (on_call_end, on_section_leave, on_comm_free) in
// descending order, so a tool with a lower order brackets the ones above it
// like stacked PMPI wrapper libraries. Ties dispatch in attach order. Tools
// never charge virtual time; order therefore affects only observation
// nesting, never simulation results.
//
// Detach is symmetric (`detach(&tool)`); the stack never owns a tool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mpisim/hooks.hpp"

namespace mpisect::mpisim::hooks {

/// Conventional attach orders for the in-tree tools (ascending = outermost
/// first on begin events). Gaps are deliberate: user tools can slot between.
inline constexpr int kOrderProfiler = 10;
inline constexpr int kOrderChecker = 20;
inline constexpr int kOrderRecorder = 30;
inline constexpr int kOrderTelemetry = 40;
inline constexpr int kOrderFaults = 50;

/// Base class for stack-registered tools. Every method is an empty-bodied
/// virtual observing one event; override what you need. Methods run on rank
/// threads and must not charge virtual time.
class Tool {
 public:
  virtual ~Tool() = default;

  // PMPI view: public entry points, sections, communicator lifecycle.
  virtual void on_call_begin(Ctx&, const CallInfo&) {}
  virtual void on_call_end(Ctx&, const CallInfo&) {}
  /// MPIX_Section_enter_cb(comm, label, data[32]) (paper Fig. 2): `data`
  /// points to 32 bytes of tool storage preserved until the matching leave.
  virtual void on_section_enter(Ctx&, Comm&, const char* /*label*/,
                                char* /*data*/) {}
  /// MPIX_Section_leave_cb(comm, label, data[32]).
  virtual void on_section_leave(Ctx&, Comm&, const char* /*label*/,
                                char* /*data*/) {}
  /// The sections layer rejected an operation; `code` is a
  /// sections::SectionResult value and `comm` may be invalid.
  virtual void on_section_error(Ctx&, Comm&, const char* /*label*/,
                                int /*code*/) {}
  /// MPI_Pcontrol(level, label) — the IPM-style phase baseline (Sec. 6).
  virtual void on_pcontrol(Ctx&, int /*level*/, const char* /*label*/) {}
  /// The caller became a member of a new communicator (world, split, dup).
  virtual void on_comm_create(Ctx&, const CommLifecycle&) {}
  /// The caller freed its handle to communicator `context`.
  virtual void on_comm_free(Ctx&, int /*context*/) {}

  // Message-level view (see the Tap* descriptors in hooks.hpp).
  virtual void on_send_post(Ctx&, const TapSend&) {}
  virtual void on_send_wait(Ctx&, const TapSendWait&) {}
  virtual void on_recv_post(Ctx&, const TapRecvPost&) {}
  virtual void on_recv_wait(Ctx&, const TapRecvWait&) {}
  virtual void on_probe(Ctx&, const TapProbe&) {}
  virtual void on_request_test(Ctx&, const TapRequestTest&) {}
  virtual void on_nbc_post(Ctx&, const TapNbcPost&) {}
  virtual void on_nbc_complete(Ctx&, const TapNbcComplete&) {}
  virtual void on_comm_sync(Ctx&, const TapCommSync&) {}
  /// Collective-entry CPU overhead charged with op id `op`; `t_before` is
  /// the clock before the charge.
  virtual void on_coll_entry(Ctx&, std::uint64_t /*op*/, double /*t_before*/) {}
  virtual void on_omp_region(Ctx&, const TapOmpRegion&) {}
  virtual void on_fault(Ctx&, const TapFault&) {}
};

/// The attached tools of one world, obtained through World::tool_stack().
class ToolStack {
 public:
  ToolStack() = default;
  ToolStack(const ToolStack&) = delete;
  ToolStack& operator=(const ToolStack&) = delete;

  /// Register `tool` at `order` (see kOrder* above). Ties dispatch in
  /// attach order; re-attaching moves the tool to its new place. The stack
  /// borrows the pointer; detach before the tool dies. Attach/detach
  /// before World::run, not from rank threads.
  void attach(Tool* tool, int order);
  /// Remove a previously attached tool (no-op if absent).
  void detach(Tool* tool);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  /// Deliver a begin-type event: `(tool->*event)(ctx, args...)` for every
  /// tool in ascending order.
  template <typename Event, typename... Args>
  void notify(Event event, Ctx& ctx, Args&&... args) const {
    for (const Entry& e : entries_) (e.tool->*event)(ctx, args...);
  }
  /// Deliver an end-type event (on_call_end, on_section_leave,
  /// on_comm_free) in descending order.
  template <typename Event, typename... Args>
  void notify_reverse(Event event, Ctx& ctx, Args&&... args) const {
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      (it->tool->*event)(ctx, args...);
    }
  }

 private:
  struct Entry {
    Tool* tool = nullptr;
    int order = 0;
  };

  std::vector<Entry> entries_;  ///< sorted by (order, attach sequence)
};

}  // namespace mpisect::mpisim::hooks

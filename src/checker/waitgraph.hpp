// Cross-rank wait-for graph for deadlock detection.
//
// Every rank task publishes what it is currently blocked on (receive,
// wait, probe, rendezvous send, collective) on entry to a blocking call and
// clears the slot on exit. When the scheduler proves quiescence — every
// live rank parked with no wake pending (checker.cpp's deadlock handler) —
// the snapshot is analyzed:
//
//   * p2p edges: a blocked receive/wait/probe/send points at the world rank
//     it needs; an any-source receive conservatively points at every other
//     member of its communicator;
//   * collective edges: a rank blocked in the Nth collective on a context
//     points at every member that has neither completed that ordinal nor
//     arrived at it (per-rank completed-collective counters disambiguate
//     rounds, so a root legitimately running ahead creates no edge);
//   * a cycle is a deadlock; an edge to a finalized rank is an orphaned
//     wait (also a deadlock — the peer can never satisfy it).
//
// All mutation is mutex-protected: rank tasks write their own slot, the
// quiescence handler reads all of them.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "checker/comm_registry.hpp"
#include "mpisim/hooks.hpp"

namespace mpisect::checker {

/// What one world rank is doing right now, as seen through the hooks.
struct RankWaitState {
  enum class Phase { Running, Blocked, Finished };
  Phase phase = Phase::Running;

  // Valid while phase == Blocked:
  mpisim::MpiCall call = mpisim::MpiCall::Init;
  bool collective = false;
  int comm_context = -1;
  int peer_world = -1;  ///< awaited world rank; -1 = any source / unknown
  double t_virtual = 0.0;
  std::uint64_t coll_ordinal = 0;  ///< which collective round (if collective)

  /// Completed collectives per context (ordinal disambiguation).
  std::map<int, std::uint64_t> coll_done;
};

class WaitGraph {
 public:
  explicit WaitGraph(int nranks);

  /// Rank thread: entering a blocking call. For collectives the ordinal is
  /// assigned from the rank's completed-count for that context.
  void block(int rank, mpisim::MpiCall call, int comm_context, int peer_world,
             double t_virtual);
  /// Rank thread: the blocking call returned.
  void unblock(int rank, mpisim::MpiCall call, int comm_context);
  void set_running(int rank);
  void set_finished(int rank);

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(nranks_);
  }
  [[nodiscard]] std::vector<RankWaitState> snapshot() const;

  struct Cycle {
    std::vector<int> ranks;  ///< in wait-for order, first = smallest member
  };
  struct Analysis {
    std::vector<Cycle> cycles;
    /// (waiter, finished peer) pairs: waits that can never be satisfied.
    std::vector<std::pair<int, int>> orphans;
  };
  /// Analyze a quiescent snapshot. Pure function of the snapshot + registry.
  [[nodiscard]] static Analysis analyze(
      const std::vector<RankWaitState>& states, const CommRegistry& comms);

 private:
  std::size_t nranks_;
  mutable std::mutex mu_;
  std::vector<RankWaitState> states_;
};

}  // namespace mpisect::checker

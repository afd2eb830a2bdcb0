// Communicator bookkeeping built from CommLifecycle hook events.
//
// mpicheck learns about every communicator the application creates through
// hooks::Tool::on_comm_create — world creation, split, dup — with zero app
// cooperation. The registry answers the two questions the analyses need:
//   * group resolution: which world rank is comm rank k of context c?
//     (the wait-for graph runs on world ranks; CallInfo peers are comm
//     ranks), and
//   * lifecycle accounting: which members created a handle and never freed
//     it (MPI_Comm_free hygiene, reported by the leak pass).
#pragma once

#include <map>
#include <mutex>
#include <vector>

#include "mpisim/hooks.hpp"

namespace mpisect::checker {

class CommRegistry {
 public:
  struct Record {
    int context = -1;
    int parent_context = -1;
    std::vector<int> world_ranks;  ///< indexed by comm rank
    std::vector<char> created;     ///< per member: handle observed
    std::vector<char> freed;       ///< per member: handle freed
    double t_create = 0.0;
  };

  /// Record that `info.rank` became a member of `info.context`.
  void on_create(const mpisim::CommLifecycle& info, double t_virtual);
  /// Record that world rank `world_rank` freed its handle to `context`.
  void on_free(int world_rank, int context);

  /// World rank of comm rank `comm_rank` in `context`; -1 if unknown.
  [[nodiscard]] int world_rank_of(int context, int comm_rank) const;
  /// Member world ranks of `context` (empty if unknown).
  [[nodiscard]] std::vector<int> members(int context) const;
  /// Snapshot of every registered communicator, by context id.
  [[nodiscard]] std::vector<Record> records() const;

 private:
  mutable std::mutex mu_;
  std::map<int, Record> comms_;
};

}  // namespace mpisect::checker

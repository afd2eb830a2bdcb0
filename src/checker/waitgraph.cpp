#include "checker/waitgraph.hpp"

#include <algorithm>

namespace mpisect::checker {

WaitGraph::WaitGraph(int nranks)
    : nranks_(static_cast<std::size_t>(nranks)),
      states_(static_cast<std::size_t>(nranks)) {}

void WaitGraph::block(int rank, mpisim::MpiCall call, int comm_context,
                      int peer_world, double t_virtual) {
  const std::lock_guard lock(mu_);
  auto& st = states_[static_cast<std::size_t>(rank)];
  st.phase = RankWaitState::Phase::Blocked;
  st.call = call;
  st.collective = mpisim::is_collective(call);
  st.comm_context = comm_context;
  st.peer_world = peer_world;
  st.t_virtual = t_virtual;
  if (st.collective) st.coll_ordinal = st.coll_done[comm_context];
}

void WaitGraph::unblock(int rank, mpisim::MpiCall call, int comm_context) {
  const std::lock_guard lock(mu_);
  auto& st = states_[static_cast<std::size_t>(rank)];
  st.phase = RankWaitState::Phase::Running;
  if (mpisim::is_collective(call)) ++st.coll_done[comm_context];
}

void WaitGraph::set_running(int rank) {
  const std::lock_guard lock(mu_);
  auto& st = states_[static_cast<std::size_t>(rank)];
  st = RankWaitState{};  // fresh run: clear Finished and collective counters
}

void WaitGraph::set_finished(int rank) {
  const std::lock_guard lock(mu_);
  states_[static_cast<std::size_t>(rank)].phase =
      RankWaitState::Phase::Finished;
}

std::vector<RankWaitState> WaitGraph::snapshot() const {
  const std::lock_guard lock(mu_);
  return states_;
}

namespace {

/// True if member `m` cannot be the reason rank `r` is stuck in collective
/// round (context, ordinal): it already completed that round, or it is
/// blocked in the same round right now.
bool collective_arrived(const RankWaitState& m, int context,
                        std::uint64_t ordinal) {
  const auto it = m.coll_done.find(context);
  const std::uint64_t done = it == m.coll_done.end() ? 0 : it->second;
  if (done > ordinal) return true;
  return m.phase == RankWaitState::Phase::Blocked && m.collective &&
         m.comm_context == context && m.coll_ordinal == ordinal;
}

std::vector<std::vector<int>> build_edges(
    const std::vector<RankWaitState>& states, const CommRegistry& comms) {
  const int n = static_cast<int>(states.size());
  std::vector<std::vector<int>> edges(states.size());
  for (int r = 0; r < n; ++r) {
    const auto& st = states[static_cast<std::size_t>(r)];
    if (st.phase != RankWaitState::Phase::Blocked) continue;
    auto& out = edges[static_cast<std::size_t>(r)];
    if (st.collective) {
      for (const int m : comms.members(st.comm_context)) {
        if (m == r || m < 0 || m >= n) continue;
        if (!collective_arrived(states[static_cast<std::size_t>(m)],
                                st.comm_context, st.coll_ordinal)) {
          out.push_back(m);
        }
      }
    } else if (st.peer_world >= 0 && st.peer_world < n) {
      out.push_back(st.peer_world);
    } else if (st.peer_world < 0) {
      // Any-source wait: conservatively depends on every other member.
      for (const int m : comms.members(st.comm_context)) {
        if (m != r && m >= 0 && m < n) out.push_back(m);
      }
    }
  }
  return edges;
}

/// DFS cycle search; returns each distinct cycle once (deduped by its
/// sorted member set), rotated so the smallest rank leads.
std::vector<WaitGraph::Cycle> find_cycles(
    const std::vector<std::vector<int>>& edges) {
  const int n = static_cast<int>(edges.size());
  std::vector<WaitGraph::Cycle> cycles;
  std::vector<std::vector<int>> seen_sets;
  std::vector<int> color(edges.size(), 0);  // 0=white 1=on-stack 2=done
  std::vector<int> stack;

  // Iterative DFS with explicit edge indices.
  for (int root = 0; root < n; ++root) {
    if (color[static_cast<std::size_t>(root)] != 0) continue;
    std::vector<std::pair<int, std::size_t>> frames{{root, 0}};
    color[static_cast<std::size_t>(root)] = 1;
    stack.push_back(root);
    while (!frames.empty()) {
      auto& [node, next] = frames.back();
      const auto& out = edges[static_cast<std::size_t>(node)];
      if (next < out.size()) {
        const int to = out[next++];
        if (color[static_cast<std::size_t>(to)] == 1) {
          // Back edge: the cycle is the stack suffix starting at `to`.
          const auto it = std::find(stack.begin(), stack.end(), to);
          std::vector<int> members(it, stack.end());
          std::vector<int> key = members;
          std::sort(key.begin(), key.end());
          if (std::find(seen_sets.begin(), seen_sets.end(), key) ==
              seen_sets.end()) {
            seen_sets.push_back(key);
            const auto min_it =
                std::min_element(members.begin(), members.end());
            std::rotate(members.begin(), min_it, members.end());
            cycles.push_back({std::move(members)});
          }
        } else if (color[static_cast<std::size_t>(to)] == 0) {
          color[static_cast<std::size_t>(to)] = 1;
          stack.push_back(to);
          frames.emplace_back(to, 0);
        }
      } else {
        color[static_cast<std::size_t>(node)] = 2;
        stack.pop_back();
        frames.pop_back();
      }
    }
  }
  return cycles;
}

}  // namespace

WaitGraph::Analysis WaitGraph::analyze(
    const std::vector<RankWaitState>& states, const CommRegistry& comms) {
  Analysis result;
  const auto edges = build_edges(states, comms);
  result.cycles = find_cycles(edges);
  for (std::size_t r = 0; r < states.size(); ++r) {
    if (states[r].phase != RankWaitState::Phase::Blocked) continue;
    for (const int to : edges[r]) {
      if (states[static_cast<std::size_t>(to)].phase ==
          RankWaitState::Phase::Finished) {
        result.orphans.emplace_back(static_cast<int>(r), to);
        break;
      }
    }
  }
  return result;
}

}  // namespace mpisect::checker

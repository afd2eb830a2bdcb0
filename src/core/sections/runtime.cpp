#include "core/sections/runtime.hpp"

#include "support/log.hpp"

namespace mpisect::sections {

const char* section_result_name(int code) noexcept {
  switch (code) {
    case kSectionOk: return "MPI_SUCCESS";
    case kSectionErrNoRuntime: return "MPIX_ERR_SECTION_NO_RUNTIME";
    case kSectionErrBadLabel: return "MPIX_ERR_SECTION_BAD_LABEL";
    case kSectionErrNotNested: return "MPIX_ERR_SECTION_NOT_NESTED";
    case kSectionErrEmptyStack: return "MPIX_ERR_SECTION_EMPTY_STACK";
    case kSectionErrMismatch: return "MPIX_ERR_SECTION_MISMATCH";
    case kSectionErrComm: return "MPIX_ERR_SECTION_COMM";
    case kSectionErrLeaked: return "MPIX_ERR_SECTION_LEAKED";
  }
  return "MPIX_ERR_SECTION_UNKNOWN";
}

namespace {

/// Notify tools of a rejected/invalid section operation (PMPI-style:
/// correctness tools hook this to turn runtime rejections into findings).
int fire_section_error(mpisim::Ctx& ctx, mpisim::Comm& comm,
                       const char* label, int code) {
  auto& cb = ctx.world().hooks().section_error_cb;
  if (cb) cb(ctx, comm, label, code);
  return code;
}

}  // namespace

SectionRuntime::SectionRuntime(int world_size)
    : ranks_(static_cast<std::size_t>(world_size)) {}

std::shared_ptr<SectionRuntime> SectionRuntime::install(mpisim::World& world) {
  if (auto existing = world.shared_extension<SectionRuntime>()) {
    return existing;
  }
  auto rt = std::make_shared<SectionRuntime>(world.size());
  rt->validate_.store(world.options().validate_sections);
  world.attach_extension(rt);
  return rt;
}

SectionRuntime* SectionRuntime::find(mpisim::World& world) {
  return world.find_extension<SectionRuntime>();
}

SectionRuntime::RankState& SectionRuntime::state_of(const mpisim::Ctx& ctx) {
  return ranks_[static_cast<std::size_t>(ctx.rank())];
}

const SectionRuntime::RankState& SectionRuntime::state_of(
    const mpisim::Ctx& ctx) const {
  return ranks_[static_cast<std::size_t>(ctx.rank())];
}

int SectionRuntime::validate(mpisim::Ctx& ctx, mpisim::Comm& comm,
                             LabelId label, int depth, bool entering) {
  // Cross-check that every rank of the communicator is entering/leaving the
  // same label at the same depth. The rendezvous synchronizes the real
  // threads but charges no virtual time — it is a checking device, not a
  // modelled MPI operation ("non-intrusive").
  auto& st = state_of(ctx);
  ++st.counters.validation_rounds;
  const std::uint64_t token =
      label_hash(labels_.name(label)) ^
      (static_cast<std::uint64_t>(depth) << 1) ^
      (entering ? 1ULL : 0ULL);
  auto [tokens, t_max] = comm.collsync_u64(token);
  (void)t_max;
  for (const auto t : tokens) {
    if (t != token) {
      ++st.counters.errors;
      MPISECT_LOG_WARN(
          "section validation mismatch on comm %d (rank %d, label '%s')",
          comm.context_id(), comm.rank(), labels_.name(label).c_str());
      return kSectionErrMismatch;
    }
  }
  return kSectionOk;
}

int SectionRuntime::enter(mpisim::Ctx& ctx, mpisim::Comm& comm,
                          const char* label) {
  if (!comm.valid()) {
    return fire_section_error(ctx, comm, label, kSectionErrComm);
  }
  if (label == nullptr || *label == '\0') {
    return fire_section_error(ctx, comm, label, kSectionErrBadLabel);
  }

  auto& st = state_of(ctx);
  ++st.counters.enters;
  const LabelId id = labels_.intern(label);
  auto& stack = st.stacks[comm.context_id()];

  ActiveSection section;
  section.label = id;
  section.instance = st.occurrences[occurrence_key(comm.context_id(), id)]++;
  section.t_in = ctx.now();
  section.depth = static_cast<int>(stack.size());
  stack.push_back(section);

  if (validate_.load(std::memory_order_relaxed)) {
    const int rc = validate(ctx, comm, id, section.depth, /*entering=*/true);
    if (rc != kSectionOk) return fire_section_error(ctx, comm, label, rc);
  }

  // Tool notification (MPIX_Section_enter_cb, paper Fig. 2). The data
  // pointer aliases the stack slot so the payload survives to the exit.
  auto& cb = ctx.world().hooks().section_enter_cb;
  if (cb) cb(ctx, comm, label, stack.back().data.data());
  return kSectionOk;
}

int SectionRuntime::exit(mpisim::Ctx& ctx, mpisim::Comm& comm,
                         const char* label) {
  if (!comm.valid()) {
    return fire_section_error(ctx, comm, label, kSectionErrComm);
  }
  if (label == nullptr || *label == '\0') {
    return fire_section_error(ctx, comm, label, kSectionErrBadLabel);
  }

  auto& st = state_of(ctx);
  ++st.counters.exits;
  const auto it = st.stacks.find(comm.context_id());
  if (it == st.stacks.end() || it->second.empty()) {
    ++st.counters.errors;
    return fire_section_error(ctx, comm, label, kSectionErrEmptyStack);
  }
  auto& stack = it->second;
  const LabelId id = labels_.intern(label);
  if (stack.back().label != id) {
    ++st.counters.errors;
    MPISECT_LOG_WARN("section exit '%s' does not match open section '%s'",
                     label, labels_.name(stack.back().label).c_str());
    return fire_section_error(ctx, comm, label, kSectionErrNotNested);
  }

  if (validate_.load(std::memory_order_relaxed)) {
    const int rc = validate(ctx, comm, id, stack.back().depth,
                            /*entering=*/false);
    if (rc != kSectionOk) {
      stack.pop_back();
      return fire_section_error(ctx, comm, label, rc);
    }
  }

  auto& cb = ctx.world().hooks().section_leave_cb;
  if (cb) cb(ctx, comm, label, stack.back().data.data());
  stack.pop_back();
  return kSectionOk;
}

std::vector<ActiveSection> SectionRuntime::stack_snapshot(
    const mpisim::Ctx& ctx, const mpisim::Comm& comm) const {
  const auto& st = state_of(ctx);
  const auto it = st.stacks.find(comm.context_id());
  if (it == st.stacks.end()) return {};
  return it->second;
}

int SectionRuntime::open_depth(const mpisim::Ctx& ctx,
                               const mpisim::Comm& comm) const {
  const auto& st = state_of(ctx);
  const auto it = st.stacks.find(comm.context_id());
  return it == st.stacks.end() ? 0 : static_cast<int>(it->second.size());
}

std::string SectionRuntime::stack_string(const mpisim::Ctx& ctx,
                                         const mpisim::Comm& comm) const {
  std::string out;
  for (const auto& s : stack_snapshot(ctx, comm)) {
    if (!out.empty()) out += " / ";
    out += labels_.name(s.label);
  }
  return out;
}

SectionCounters SectionRuntime::counters() const {
  SectionCounters total;
  for (const auto& rs : ranks_) {
    total.enters += rs.counters.enters;
    total.exits += rs.counters.exits;
    total.validation_rounds += rs.counters.validation_rounds;
    total.errors += rs.counters.errors;
  }
  return total;
}

void SectionRuntime::on_rank_init(mpisim::Ctx& ctx) {
  mpisim::Comm world = ctx.world_comm();
  enter(ctx, world, kMainSectionLabel);
}

void SectionRuntime::on_rank_finalize(mpisim::Ctx& ctx) {
  mpisim::Comm world = ctx.world_comm();
  // Force-unwind any sections the application leaked (with a warning), so
  // MPI_MAIN always closes and tools see balanced events.
  auto& st = state_of(ctx);
  auto it = st.stacks.find(world.context_id());
  if (it != st.stacks.end()) {
    while (it->second.size() > 1) {
      const std::string leaked = labels_.name(it->second.back().label);
      MPISECT_LOG_WARN("rank %d leaked open section '%s' at finalize",
                       ctx.rank(), leaked.c_str());
      fire_section_error(ctx, world, leaked.c_str(), kSectionErrLeaked);
      exit(ctx, world, leaked.c_str());
      it = st.stacks.find(world.context_id());
      if (it == st.stacks.end()) return;
    }
  }
  exit(ctx, world, kMainSectionLabel);
}

}  // namespace mpisect::sections

#include "mpisim/scheduler.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <deque>
#include <stdexcept>
#include <thread>
#include <utility>

#include "mpisim/error.hpp"
#include "obs/memory.hpp"
#include "obs/spans.hpp"
#include "support/log.hpp"
#include "support/parallel.hpp"
#include "support/spec.hpp"

// glibc's swapcontext saves and restores the signal mask, an rt_sigprocmask
// syscall on every switch. The simulator never changes the mask, so on
// x86-64 a fiber switch is a plain register swap in user space. Other
// architectures, and a build that asks for CET (-fcf-protection), keep
// ucontext: glibc's switch maintains the shadow stack, this one does not.
#if defined(__x86_64__) && !defined(__CET__)
#define MPISECT_ASM_FIBERS 1
#else
#include <ucontext.h>
#endif

// Sanitizer fiber annotations: without these, a fiber switch looks like a wild
// stack change to ASan and a missing happens-before to TSan.
#if defined(__SANITIZE_ADDRESS__)
#define MPISECT_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MPISECT_ASAN_FIBERS 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define MPISECT_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MPISECT_TSAN_FIBERS 1
#endif
#endif
#if defined(MPISECT_ASAN_FIBERS)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(MPISECT_TSAN_FIBERS)
#include <sanitizer/tsan_interface.h>
#endif

namespace mpisect::mpisim {

// ---------------------------------------------------------------------------
// Executor base: waitpoint registry, abort wake, quiescence dispatch
// ---------------------------------------------------------------------------

Executor::~Executor() = default;

void Executor::add_waitpoint(WaitPoint* wp) {
  const std::lock_guard lock(reg_mu_);
  wp->reg_index_ = waitpoints_.size();
  waitpoints_.push_back(wp);
}

void Executor::remove_waitpoint(WaitPoint* wp) {
  // O(1) swap-remove via the index stashed on the waitpoint — a 65k-rank
  // world tears down one waitpoint per channel, and a linear registry scan
  // per removal would make teardown quadratic.
  const std::lock_guard lock(reg_mu_);
  const std::size_t i = wp->reg_index_;
  if (i < waitpoints_.size() && waitpoints_[i] == wp) {
    waitpoints_[i] = waitpoints_.back();
    waitpoints_[i]->reg_index_ = i;
    waitpoints_.pop_back();
  }
}

void Executor::set_quiescence_handler(std::function<void()> handler) {
  const std::lock_guard lock(reg_mu_);
  quiescence_ = std::move(handler);
}

void Executor::fire_quiescence() {
  std::function<void()> handler;
  {
    const std::lock_guard lock(reg_mu_);
    handler = quiescence_;
  }
  if (handler) {
    MPISECT_LOG_DEBUG("scheduler: quiescence — every live rank parked with "
                      "no wake pending");
    handler();
  }
}

void Executor::wake_all() noexcept {
  const std::lock_guard lock(reg_mu_);
  for (WaitPoint* wp : waitpoints_) do_wake(*wp);
}

namespace {

/// The executor whose worker pool this thread belongs to, and its index
/// there (set by FiberExecutor's workers for their lifetime).
thread_local const Executor* tl_worker_exec = nullptr;
thread_local int tl_worker_index = -1;

}  // namespace

int Executor::current_worker() const noexcept {
  return tl_worker_exec == this ? tl_worker_index : -1;
}

std::uint64_t Executor::epoch(const WaitPoint& wp) noexcept {
  return wp.epoch_.load(std::memory_order_relaxed);
}

void Executor::bump_epoch(WaitPoint& wp) noexcept {
  wp.epoch_.fetch_add(1, std::memory_order_relaxed);
  wp.cv_.notify_all();
}

void Executor::wait_epoch(WaitPoint& wp,
                          std::unique_lock<std::mutex>& owner_lk,
                          std::uint64_t seen) {
  wp.cv_.wait(owner_lk, [&wp, seen] { return epoch(wp) != seen; });
}

void Executor::do_wake(WaitPoint& wp) {
  // Bump the epoch under the owner mutex: a waiter holds that mutex from
  // reading the epoch until its cv wait releases it, so the bump either
  // happens-before the epoch read (the waiter then returns immediately) or
  // the notify finds the waiter already blocked. Never a lost wake.
  const std::lock_guard lock(wp.owner_mu_);
  bump_epoch(wp);
}

// ---------------------------------------------------------------------------
// Fiber contexts: a user-space register switch on x86-64, ucontext elsewhere
// ---------------------------------------------------------------------------

#if defined(MPISECT_ASM_FIBERS)
// mpisect_fiber_jump(void** save_sp, void* load_sp), in the style of
// boost.context's fcontext: push the SysV callee-saved registers (rbp, rbx,
// r12-r15), MXCSR and the x87 control word on the running stack, store the
// stack pointer to *save_sp, load load_sp, pop the other context's words
// and return into it. Caller-saved registers are the caller's business, as
// for any call. Frame, low to high: [mxcsr | x87 cw] r12 r13 r14 r15 rbx
// rbp return-address.
asm(R"(
	.pushsection .text
	.p2align 4
	.globl	mpisect_fiber_jump
	.hidden	mpisect_fiber_jump
	.type	mpisect_fiber_jump, @function
mpisect_fiber_jump:
	pushq	%rbp
	pushq	%rbx
	pushq	%r15
	pushq	%r14
	pushq	%r13
	pushq	%r12
	subq	$8, %rsp
	stmxcsr	(%rsp)
	fnstcw	4(%rsp)
	movq	%rsp, (%rdi)
	movq	%rsi, %rsp
	ldmxcsr	(%rsp)
	fldcw	4(%rsp)
	addq	$8, %rsp
	popq	%r12
	popq	%r13
	popq	%r14
	popq	%r15
	popq	%rbx
	popq	%rbp
	ret
	.size	mpisect_fiber_jump, .-mpisect_fiber_jump
	.popsection
)");
extern "C" void mpisect_fiber_jump(void** save_sp, void* load_sp);
#endif

namespace {

/// A suspended execution context: a saved stack pointer, or a ucontext.
struct FiberContext {
#if defined(MPISECT_ASM_FIBERS)
  void* sp = nullptr;
#else
  ucontext_t uc{};
#endif
};

/// Save the running context into `from` and resume `to`.
inline void switch_context(FiberContext& from, FiberContext& to) {
#if defined(MPISECT_ASM_FIBERS)
  mpisect_fiber_jump(&from.sp, to.sp);
#else
  swapcontext(&from.uc, &to.uc);
#endif
}

/// Prepare `c` so that the first switch to it calls entry() on the stack
/// [bottom, bottom + bytes). entry must never return.
void make_context(FiberContext& c, void* bottom, std::size_t bytes,
                  void (*entry)()) {
#if defined(MPISECT_ASM_FIBERS)
  // The first frame mpisect_fiber_jump pops: the creating thread's MXCSR
  // and x87 control word (what getcontext would have captured), zeroed
  // callee-saved registers, entry as the return address, and a null
  // return address above it that ends unwinding. The stack top is page
  // aligned; entry starts with rsp = top - 8, the ABI's alignment at a
  // function's first instruction.
  std::uint32_t csr = 0;
  std::uint16_t cw = 0;
  asm volatile("stmxcsr %0" : "=m"(csr));
  asm volatile("fnstcw %0" : "=m"(cw));
  auto* top = reinterpret_cast<std::uintptr_t*>(static_cast<char*>(bottom) +
                                                bytes);
  std::uintptr_t* sp = top - 9;
  sp[0] = csr | (static_cast<std::uintptr_t>(cw) << 32);
  for (int i = 1; i <= 6; ++i) sp[i] = 0;
  sp[7] = reinterpret_cast<std::uintptr_t>(entry);
  sp[8] = 0;
  c.sp = sp;
#else
  (void)getcontext(&c.uc);
  c.uc.uc_stack.ss_sp = bottom;
  c.uc.uc_stack.ss_size = bytes;
  c.uc.uc_link = nullptr;
  makecontext(&c.uc, entry, 0);
#endif
}

// ---------------------------------------------------------------------------
// Process-wide fiber stack pool
// ---------------------------------------------------------------------------

/// Guard-paged slabs of kStacksPerSlab stacks, one set per stack size,
/// shared by every executor in the process. A World's fibers take stacks
/// here and give them back as they finish, so the next World of the same
/// stack size reuses mapped, already-faulted stacks instead of paying
/// mmap + first-touch faults + munmap again. Slabs with no stack in use
/// are idle; past kMaxIdleStackBytes of them, a slab is unmapped the moment
/// it goes idle. The pool is never destroyed (an executor may outlive any
/// static destructor's turn); the process exit returns its mappings.
class StackPool {
  struct Slab;

 public:
  struct Stack {
    char* bottom = nullptr;  ///< usable stack low address
    std::size_t bytes = 0;
    Slab* slab = nullptr;
  };

  static StackPool& instance() {
    static StackPool* const pool = new StackPool;
    return *pool;
  }

  /// A stack of `bytes` (page multiple). Sets `mapped` if a slab had to be
  /// mapped for it.
  Stack take(std::size_t bytes, bool& mapped) {
    mapped = false;
    std::unique_lock lock(mu_);
    SizeClass& cls = size_class(bytes);
    while (cls.avail.empty()) {
      if (cls.mapping) {  // one worker maps; the others wait for its slab
        slab_mapped_.wait(lock, [&cls] { return !cls.mapping; });
        continue;
      }
      // mmap outside the lock: a syscall under it would stall every
      // worker's stack take and give behind this one.
      cls.mapping = true;
      lock.unlock();
      Slab* slab = map_slab(cls);
      lock.lock();
      cls.mapping = false;
      slab_mapped_.notify_all();
      require(slab != nullptr, Err::Internal, "fiber stack mmap failed");
      mapped = true;
      slab->avail_pos = cls.avail.size();
      cls.avail.push_back(slab);
      mapped_bytes_ += slab->map_bytes;
      idle_bytes_ += slab->map_bytes;
      ++maps_;
    }
    Slab* slab = cls.avail.back();
    if (slab->free_mask == kAllFree) idle_bytes_ -= slab->map_bytes;
    const int i = std::countr_zero(slab->free_mask);
    slab->free_mask &= ~(1u << i);
    if (slab->free_mask == 0) cls.avail.pop_back();
    return {slab->base + slab->guard + static_cast<std::size_t>(i) * bytes,
            bytes, slab};
  }

  void give(const Stack& s) {
    Slab* slab = s.slab;
    const int i = static_cast<int>(
        static_cast<std::size_t>(s.bottom - slab->base - slab->guard) /
        s.bytes);
    std::unique_lock lock(mu_);
    SizeClass& cls = *slab->cls;
    if (slab->free_mask == 0) {
      slab->avail_pos = cls.avail.size();
      cls.avail.push_back(slab);
    }
    slab->free_mask |= 1u << i;
    if (slab->free_mask != kAllFree) return;
    if (idle_bytes_ + slab->map_bytes <= kMaxIdleStackBytes) {
      idle_bytes_ += slab->map_bytes;
      return;
    }
    // Over the idle bound: this slab goes back to the kernel.
    Slab* last = cls.avail.back();
    last->avail_pos = slab->avail_pos;
    cls.avail[slab->avail_pos] = last;
    cls.avail.pop_back();
    mapped_bytes_ -= slab->map_bytes;
    ++unmaps_;
    lock.unlock();
    munmap(slab->base, slab->map_bytes);
    delete slab;
  }

  StackPoolStats stats() {
    const std::lock_guard lock(mu_);
    return {maps_, unmaps_, idle_bytes_, mapped_bytes_};
  }

 private:
  struct SizeClass;
  struct Slab {
    char* base = nullptr;
    std::size_t map_bytes = 0;
    std::size_t guard = 0;
    SizeClass* cls = nullptr;
    std::uint32_t free_mask = 0;  ///< bit i set: stack i is idle
    std::size_t avail_pos = 0;    ///< index in cls->avail while listed
  };
  /// Slabs of one stack size; `avail` lists those with an idle stack.
  struct SizeClass {
    std::size_t stack_bytes = 0;
    std::vector<Slab*> avail;
    bool mapping = false;  ///< a worker is mapping a slab of this size
  };

  static_assert(kStacksPerSlab <= 32, "free_mask holds one bit per stack");
  static constexpr std::uint32_t kAllFree =
      static_cast<std::uint32_t>((std::uint64_t{1} << kStacksPerSlab) - 1);

  StackPool() = default;

  /// Caller holds mu_. Classes never move (unique_ptr), so the reference
  /// stays valid after the lock is released.
  SizeClass& size_class(std::size_t bytes) {
    for (auto& c : classes_) {
      if (c->stack_bytes == bytes) return *c;
    }
    classes_.push_back(std::make_unique<SizeClass>());
    classes_.back()->stack_bytes = bytes;
    return *classes_.back();
  }

  /// Map one slab of cls's stacks: a guard page at the low end (stacks
  /// grow down, so an overflow off the slab faults instead of silently
  /// corrupting a neighbouring mapping), then kStacksPerSlab stacks.
  /// nullptr if the mapping fails.
  static Slab* map_slab(SizeClass& cls) {
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    const std::size_t map_bytes = page + kStacksPerSlab * cls.stack_bytes;
    void* base = mmap(nullptr, map_bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    if (base == MAP_FAILED) return nullptr;
    mprotect(base, page, PROT_NONE);
    auto* slab = new Slab;
    slab->base = static_cast<char*>(base);
    slab->map_bytes = map_bytes;
    slab->guard = page;
    slab->free_mask = kAllFree;
    slab->cls = &cls;
    return slab;
  }

  std::mutex mu_;
  std::condition_variable slab_mapped_;  ///< a SizeClass::mapping ended
  std::vector<std::unique_ptr<SizeClass>> classes_;  ///< a few sizes at most
  std::size_t idle_bytes_ = 0;
  std::size_t mapped_bytes_ = 0;
  std::uint64_t maps_ = 0;
  std::uint64_t unmaps_ = 0;
};

}  // namespace

StackPoolStats stack_pool_stats() { return StackPool::instance().stats(); }

// ---------------------------------------------------------------------------
// The fiber scheduler: stackful fibers on a fixed worker pool
// ---------------------------------------------------------------------------

class FiberExecutor;

/// One rank of the current run: its fiber context, its stack, and the
/// handoff slots the worker and the fiber use to talk across a switch.
struct FiberTask {
  FiberContext ctx;
  StackPool::Stack stack;  ///< from the process-wide pool while started
  int rank = -1;
  FiberExecutor* exec = nullptr;
  const std::function<void(int)>* body = nullptr;
  int home = 0;  ///< ready lane every wake and yield of this rank goes to
  bool finished = false;
  /// Set by yield() before switching out: the worker requeues the task on
  /// its home lane instead of counting it parked.
  bool yielding = false;
  /// Stack + context are materialized by the first worker that resumes the
  /// task (lazy: unstarted ranks hold no stack, finished ranks give theirs
  /// back to the pool, so live stack demand tracks concurrently-active
  /// ranks, not nranks).
  bool started = false;
  /// Where to switch back to; re-set by whichever worker resumes us, so a
  /// task migrating between workers always returns to the right one.
  FiberContext* ret = nullptr;
  /// Park handshake. A parking fiber registers itself on the waitpoint and
  /// releases the owner mutex BEFORE switching out (so lock ownership stays
  /// with the fiber), which means a notifier can move it to a ready lane
  /// while its context is still being saved. `resumable` closes that race:
  /// cleared by the fiber before registering, set by its worker once the
  /// switch has returned (context fully saved); a resuming worker spins
  /// until it is set.
  std::atomic<bool> resumable{true};
  /// Steady-clock stamp of the wake that made this task ready; consumed by
  /// the resuming worker for the switch-latency stat. 0 = not timing.
  std::atomic<std::uint64_t> wake_ns{0};
#if defined(MPISECT_TSAN_FIBERS)
  void* tsan_fiber = nullptr;
  void* ret_tsan = nullptr;
#endif
#if defined(MPISECT_ASAN_FIBERS)
  void* asan_save = nullptr;
  const void* ret_stack_bottom = nullptr;
  std::size_t ret_stack_size = 0;
#endif
};

namespace {

constexpr std::size_t kDefaultStackKb = 1024;
constexpr std::size_t kMinStackKb = 64;

std::size_t fiber_stack_bytes(std::size_t stack_kb) noexcept {
  std::size_t kb = kDefaultStackKb;
  if (stack_kb > 0) {
    kb = std::max(kMinStackKb, stack_kb);
  } else if (const int env = support::env_int(
                 "MPISECT_STACK_KB", static_cast<int>(ExecModel::kMaxStackKb));
             env > 0) {
    kb = std::max(kMinStackKb, static_cast<std::size_t>(env));
  }
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return ((kb * 1024 + page - 1) / page) * page;
}

/// The fiber currently executing on this worker thread. Accessed only
/// through the noinline accessors below: a fiber can migrate between worker
/// threads across a park, and routing every access through an opaque call
/// keeps the compiler from caching the TLS address across a switch.
thread_local FiberTask* tl_current_fiber = nullptr;

__attribute__((noinline)) FiberTask* current_fiber() {
  return tl_current_fiber;
}

__attribute__((noinline)) void set_current_fiber(FiberTask* t) {
  tl_current_fiber = t;
}

/// Switch from the currently running fiber back to its worker. final_exit
/// marks the fiber's last switch (it will never be resumed).
void fiber_switch_out(FiberTask& t, bool final_exit) {
#if defined(MPISECT_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(final_exit ? nullptr : &t.asan_save,
                                 t.ret_stack_bottom, t.ret_stack_size);
#else
  (void)final_exit;
#endif
#if defined(MPISECT_TSAN_FIBERS)
  __tsan_switch_to_fiber(t.ret_tsan, 0);
#endif
  switch_context(t.ctx, *t.ret);
  // Only a parked fiber comes back here (a finished one never resumes).
#if defined(MPISECT_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(t.asan_save, &t.ret_stack_bottom,
                                  &t.ret_stack_size);
#endif
}

void fiber_trampoline() {
  FiberTask* t = current_fiber();
#if defined(MPISECT_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(nullptr, &t->ret_stack_bottom,
                                  &t->ret_stack_size);
#endif
  (*t->body)(t->rank);
  t->finished = true;
  fiber_switch_out(*t, /*final_exit=*/true);
  // Unreachable: a finished fiber is never put back on a ready lane.
  MPISECT_LOG_ERROR("fiber %d resumed after exit", t->rank);
  std::abort();
}

}  // namespace

class FiberExecutor final : public Executor {
 public:
  explicit FiberExecutor(int workers, std::size_t stack_kb = 0)
      : workers_(std::max(1, workers)),
        stack_bytes_(fiber_stack_bytes(stack_kb)) {}

  void run(int n, const std::function<void(int)>& body) override {
    stats_.reset();
    // Latch the wall-clock instrumentation decision once per run: the
    // hot paths below read a plain bool instead of the atomic, and the
    // decision cannot flip mid-run. Timing never touches virtual time —
    // it only reads the steady clock around scheduling transitions.
    timed_ = obs::timing_enabled();
    const obs::Span run_span("sched.run");
    nw_ = std::min(workers_, std::max(1, n));
    MPISECT_LOG_DEBUG("scheduler: %d ranks on %d workers", n, nw_);
    total_ = n;
    finished_.store(0, std::memory_order_relaxed);
    runnable_.store(n, std::memory_order_relaxed);
    fired_.store(false, std::memory_order_relaxed);
    shutdown_ = n == 0;
    lanes_ = std::make_unique<Lane[]>(static_cast<std::size_t>(nw_));
    tasks_.clear();
    tasks_.reserve(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      auto t = std::make_unique<FiberTask>();
      t->rank = r;
      t->exec = this;
      t->body = &body;
      // Contiguous blocks: halo neighbours share a home lane, so their
      // deposits, matches and wakes stay on one core.
      t->home = static_cast<int>(static_cast<std::int64_t>(r) * nw_ / n);
      // Stack + makecontext happen lazily on first resume (see
      // start_task): an unstarted rank costs one FiberTask, not a stack
      // mapping, which is what lets 65k-rank worlds start up in O(active).
      lanes_[t->home].ready.push_back(t.get());
      tasks_.push_back(std::move(t));
    }

    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(nw_));
    for (int i = 0; i < nw_; ++i) {
      pool.emplace_back([this, i] { worker_main(i); });
    }
    // The worker that retires the last task shuts the pool down. Finished
    // tasks released their stacks + sanitizer fibers on the worker that
    // retired them — nothing left to tear down but the task records.
    for (auto& w : pool) w.join();
    tasks_.clear();
  }

  [[nodiscard]] int workers() const noexcept override { return workers_; }

  void yield() noexcept override {
    FiberTask* t = current_fiber();
    if (t == nullptr || t->exec != this) {
      std::this_thread::yield();
      return;
    }
    // The worker puts us at the back of our home lane once the switch has
    // saved this context, so every runnable rank of the lane gets CPU time
    // before we spin again. The task stays counted runnable, so quiescence
    // correctly stays off while a yielding rank exists.
    t->yielding = true;
    fiber_switch_out(*t, /*final_exit=*/false);
  }

 protected:
  void do_wait(WaitPoint& wp, std::unique_lock<std::mutex>& lk) override {
    FiberTask* t = current_fiber();
    if (t == nullptr || t->exec != this) {
      // Off-fiber caller (unit tests, external threads): epoch-guarded cv
      // wait, invisible to quiescence accounting.
      wait_epoch(wp, lk, epoch(wp));
      return;
    }
    // Park. Register on the waitpoint while still holding the owner mutex
    // — a notifier (which must hold it to notify) can therefore never miss
    // a half-parked task — then release the mutex here on the fiber, so
    // lock ownership never crosses a context switch, and hand the CPU back
    // to the worker. When a notify (or abort wake) moves us to our home
    // lane, a worker resumes us here; re-acquire the owner mutex to
    // restore the caller's invariant.
    t->resumable.store(false, std::memory_order_relaxed);
    stats_.parks.fetch_add(1, std::memory_order_relaxed);
    wp.parked_.push_back(t);
    lk.unlock();
    fiber_switch_out(*t, /*final_exit=*/false);
    lk.lock();
  }

  void do_notify(WaitPoint& wp) override {
    // Caller holds wp's owner mutex, so no blocked or about-to-block waiter
    // can miss this bump (see Executor::do_wake).
    bump_epoch(wp);
    // Every write to parked_ holds the owner mutex, which the caller holds
    // too, so an empty list here is exact: nobody is parked and nobody is
    // half-way through parking. Most notifies (a deposit or post with no
    // waiter) end in wake_parked's empty check without touching a lane.
    wake_parked(wp);
  }

  void do_wake(WaitPoint& wp) override {
    // Executor::do_wake, and the parked tasks move while the owner mutex is
    // still held: that keeps every write to parked_ under it, which
    // do_notify's early return relies on.
    const std::lock_guard lock(wp.owner_mu_);
    bump_epoch(wp);
    wake_parked(wp);
  }

 private:
  void allocate_stack(FiberTask& t) {
    bool mapped = false;
    t.stack = StackPool::instance().take(stack_bytes_, mapped);
    if (mapped) stats_.slab_maps.fetch_add(1, std::memory_order_relaxed);
    const std::size_t bytes = t.stack.bytes;
    stats_.stack_bytes.fetch_add(bytes, std::memory_order_relaxed);
    const std::uint64_t live =
        live_stack_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    obs::update_max(stats_.stack_bytes_hwm, live);
    if (mem_ != nullptr) mem_->rank(t.rank).add(bytes);
  }

  void release_stack(FiberTask& t) {
    live_stack_bytes_.fetch_sub(t.stack.bytes, std::memory_order_relaxed);
    if (mem_ != nullptr) mem_->rank(t.rank).sub(t.stack.bytes);
    StackPool::instance().give(t.stack);
    t.stack = {};
  }

  /// First resume of a task: give it a stack and a context. Runs on the
  /// resuming worker, outside every lane lock (a slab mmap under one would
  /// serialize that lane's workers behind a syscall).
  void start_task(FiberTask& t) {
    allocate_stack(t);
#if defined(MPISECT_ASAN_FIBERS)
    // A pooled stack still carries the poisoned redzones of the frames its
    // last fiber abandoned at exit; clear them before building a new frame.
    __asan_unpoison_memory_region(t.stack.bottom, t.stack.bytes);
#endif
    make_context(t.ctx, t.stack.bottom, t.stack.bytes, fiber_trampoline);
#if defined(MPISECT_TSAN_FIBERS)
    t.tsan_fiber = __tsan_create_fiber(0);
#endif
    t.started = true;
  }

  /// Move every task parked on wp to its home lane. Caller holds wp's owner
  /// mutex, which guards parked_.
  void wake_parked(WaitPoint& wp) {
    const std::size_t k = wp.parked_.size();
    if (k == 0) return;
    // Count the tasks runnable before publishing any: a fiber waker is
    // itself counted, so the count cannot touch 0 between here and the
    // woken tasks' next park.
    const auto depth = static_cast<std::uint64_t>(
        runnable_.fetch_add(static_cast<int>(k), std::memory_order_acq_rel) +
        static_cast<int>(k));
    if (timed_) {
      const std::uint64_t stamp = obs::now_ns();
      for (FiberTask* t : wp.parked_) {
        t->wake_ns.store(stamp, std::memory_order_relaxed);
      }
    }
    push(wp.parked_.data(), k);
    wp.parked_.clear();
    stats_.wakes.fetch_add(k, std::memory_order_relaxed);
    stats_.ready_depth_sum.fetch_add(depth, std::memory_order_relaxed);
    stats_.ready_depth_samples.fetch_add(1, std::memory_order_relaxed);
  }

  /// Append tasks to their home lanes (one lock hold per run of tasks that
  /// share a lane), then wake sleeping workers. A sleeper registers in
  /// sleepers_ before it checks the lanes under their locks, so either it
  /// sees these tasks or this load sees it.
  void push(FiberTask* const* ts, std::size_t k) {
    for (std::size_t i = 0; i < k;) {
      Lane& lane = lanes_[ts[i]->home];
      const std::lock_guard g(lane.mu);
      do {
        lane.ready.push_back(ts[i]);
      } while (++i < k && ts[i]->home == ts[i - 1]->home);
    }
    if (sleepers_.load(std::memory_order_relaxed) == 0) return;
    const std::lock_guard g(idle_mu_);
    if (k > 1) {
      idle_cv_.notify_all();
    } else {
      idle_cv_.notify_one();
    }
  }

  /// Own lane first, then steal from the others in turn.
  FiberTask* pop(int self) {
    for (int i = 0; i < nw_; ++i) {
      Lane& lane = lanes_[(self + i) % nw_];
      const std::lock_guard g(lane.mu);
      if (!lane.ready.empty()) {
        FiberTask* t = lane.ready.front();
        lane.ready.pop_front();
        return t;
      }
    }
    return nullptr;
  }

  /// Sleep until some lane has a task (true) or the run is over (false).
  bool sleep() {
    std::unique_lock lock(idle_mu_);
    sleepers_.fetch_add(1, std::memory_order_relaxed);
    idle_cv_.wait(lock, [this] {
      if (shutdown_) return true;
      for (int i = 0; i < nw_; ++i) {
        const std::lock_guard g(lanes_[i].mu);
        if (!lanes_[i].ready.empty()) return true;
      }
      return false;
    });
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    return !shutdown_;
  }

  /// The runnable count just reached 0. With ranks unfinished, every live
  /// rank is parked with no wake pending (a pending wake is a counted
  /// task) — exact deadlock, reported once per run.
  void on_no_runnable() {
    if (finished_.load(std::memory_order_acquire) < total_ &&
        !fired_.exchange(true, std::memory_order_acq_rel)) {
      fire_quiescence();
    }
  }

  void worker_main(int self) {
    tl_worker_exec = this;
    tl_worker_index = self;
    FiberContext worker_ctx;
#if defined(MPISECT_TSAN_FIBERS)
    void* const worker_tsan = __tsan_get_current_fiber();
#endif
#if defined(MPISECT_ASAN_FIBERS)
    void* asan_save = nullptr;
#endif
    for (;;) {
      FiberTask* t = pop(self);
      if (t == nullptr) {
        const std::uint64_t t_idle0 = timed_ ? obs::now_ns() : 0;
        const bool more = sleep();
        if (timed_) {
          stats_.idle_ns.fetch_add(obs::now_ns() - t_idle0,
                                   std::memory_order_relaxed);
        }
        if (!more) break;
        continue;
      }
      stats_.switches.fetch_add(1, std::memory_order_relaxed);
      // A freshly notified task may still be mid-park on another worker
      // (its context not yet saved); wait for the handshake. The window is
      // one context switch, so spinning beats blocking.
      while (!t->resumable.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      if (!t->started) start_task(*t);

      std::uint64_t t_run0 = 0;
      if (timed_) {
        t_run0 = obs::now_ns();
        // Wake-to-resume latency: how long a woken fiber sat in the ready
        // queue before a worker picked it up.
        const std::uint64_t w = t->wake_ns.exchange(0,
                                                    std::memory_order_relaxed);
        if (w != 0 && t_run0 > w) {
          stats_.switch_latency_ns.fetch_add(t_run0 - w,
                                             std::memory_order_relaxed);
          stats_.switch_latency_samples.fetch_add(1,
                                                  std::memory_order_relaxed);
        }
      }

      t->ret = &worker_ctx;
#if defined(MPISECT_TSAN_FIBERS)
      t->ret_tsan = worker_tsan;
#endif
      set_current_fiber(t);
#if defined(MPISECT_ASAN_FIBERS)
      __sanitizer_start_switch_fiber(&asan_save, t->stack.bottom,
                                     t->stack.bytes);
#endif
#if defined(MPISECT_TSAN_FIBERS)
      __tsan_switch_to_fiber(t->tsan_fiber, 0);
#endif
      switch_context(worker_ctx, t->ctx);
#if defined(MPISECT_ASAN_FIBERS)
      __sanitizer_finish_switch_fiber(asan_save, nullptr, nullptr);
#endif
      set_current_fiber(nullptr);
      if (timed_) {
        stats_.busy_ns.fetch_add(obs::now_ns() - t_run0,
                                 std::memory_order_relaxed);
      }

      if (t->finished) {
        // Retire the fiber's resources right here: its context will never
        // be resumed, so the stack can serve the next unstarted rank.
#if defined(MPISECT_TSAN_FIBERS)
        __tsan_destroy_fiber(t->tsan_fiber);
        t->tsan_fiber = nullptr;
#endif
        release_stack(*t);
        const bool last =
            finished_.fetch_add(1, std::memory_order_acq_rel) + 1 == total_;
        if (runnable_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          on_no_runnable();
        }
        if (last) {
          const std::lock_guard g(idle_mu_);
          shutdown_ = true;
          idle_cv_.notify_all();
        }
      } else if (t->yielding) {
        t->yielding = false;
        push(&t, 1);
      } else {
        // The task parked (it registered itself on the waitpoint and
        // released the owner mutex before switching out). Its context is
        // now fully saved: uncount it, then complete the handshake so a
        // notified resume can proceed.
        const bool none =
            runnable_.fetch_sub(1, std::memory_order_acq_rel) == 1;
        t->resumable.store(true, std::memory_order_release);
        if (none) on_no_runnable();
      }
    }
    tl_worker_exec = nullptr;
    tl_worker_index = -1;
  }

  struct alignas(64) Lane {
    std::mutex mu;
    std::deque<FiberTask*> ready;
  };

  int workers_;
  std::size_t stack_bytes_;
  /// Whether this run reads wall clocks (latched from obs::timing_enabled
  /// before the worker pool starts; workers see it via thread creation).
  bool timed_ = false;
  int nw_ = 1;  ///< workers this run (min(workers_, n)), one lane each
  int total_ = 0;
  std::unique_ptr<Lane[]> lanes_;
  std::vector<std::unique_ptr<FiberTask>> tasks_;
  std::atomic<std::uint64_t> live_stack_bytes_{0};
  /// Tasks ready or running. Its own cache line: every park and wake
  /// updates it from every worker.
  alignas(64) std::atomic<int> runnable_{0};
  std::atomic<int> finished_{0};
  std::atomic<bool> fired_{false};
  alignas(64) std::atomic<int> sleepers_{0};  ///< read by every push
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  bool shutdown_ = false;  ///< guarded by idle_mu_
};

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

int resolve_workers(int workers) noexcept {
  if (workers > 0) return workers;
  if (const int env = support::env_int("MPISECT_WORKERS", ExecModel::kMaxWorkers);
      env > 0) {
    return env;
  }
  return support::usable_cores();
}

std::unique_ptr<Executor> make_executor(int workers, std::size_t stack_kb) {
  return std::make_unique<FiberExecutor>(resolve_workers(workers), stack_kb);
}

// ---------------------------------------------------------------------------
// ExecModel: the --exec spec
// ---------------------------------------------------------------------------

ExecModel ExecModel::parse(const std::string& spec) {
  support::SpecParts parts;
  try {
    parts = support::parse_spec(spec);
  } catch (const std::invalid_argument& e) {
    throw MpiError(Err::Arg, std::string("exec ") + e.what());
  }

  if (parts.preset != "cooperative") {
    throw MpiError(Err::Arg, "unknown exec preset '" + parts.preset +
                                 "' (expected " + choices() + ")");
  }
  ExecModel m;
  for (const auto& [key, raw] : parts.options) {
    int value = 0;
    try {
      value = support::spec_int(raw);
    } catch (const std::invalid_argument& e) {
      throw MpiError(Err::Arg, std::string("exec ") + e.what());
    }
    if (key == "workers") {
      if (value > kMaxWorkers) {
        throw MpiError(Err::Arg, "exec workers=" + raw +
                                     " exceeds the bound of " +
                                     std::to_string(kMaxWorkers));
      }
      m.workers = value;
    } else if (key == "stack") {
      if (static_cast<std::size_t>(value) > kMaxStackKb) {
        throw MpiError(Err::Arg, "exec stack=" + raw +
                                     " KiB exceeds the bound of " +
                                     std::to_string(kMaxStackKb) + " KiB");
      }
      m.stack_kb = static_cast<std::size_t>(value);
    } else {
      throw MpiError(Err::Arg,
                     "unknown exec option '" + key + "' for cooperative");
    }
  }
  return m;
}

std::string ExecModel::choices() {
  return "cooperative[:workers=N,stack=KB]";
}

}  // namespace mpisect::mpisim

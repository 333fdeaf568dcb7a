#include "runtime/thread_registry.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "analysis/sched_point.hpp"
#include "common/op_counters.hpp"

namespace wcq {

namespace {

constexpr unsigned kWords = ThreadRegistry::kMaxThreads / 64;

std::atomic<std::uint64_t> g_bitmap[kWords];
std::atomic<unsigned> g_high_water{0};
std::atomic<unsigned> g_live{0};

// Exit-hook table. The lock serializes registration, unregistration and
// hook invocation; hook bodies are bounded queue operations (magazine
// flushes), so holding the lock across them is cheap and buys the
// teardown guarantee unregister_exit_hook() documents. Both
// objects are function-local statics: the main thread's SlotHolder runs its
// hooks during thread_local destruction, which [basic.start.term] orders
// before static-duration destruction, and the lazy construction dodges the
// static-init-order fiasco for queues constructed before main().
struct HookEntry {
  std::uint64_t handle;
  ThreadRegistry::ExitHook fn;
  void* ctx;
};

std::mutex& hook_mutex() {
  static std::mutex m;
  return m;
}

std::vector<HookEntry>& hook_table() {
  static std::vector<HookEntry> t;
  return t;
}

std::uint64_t g_next_hook_handle{1};

void run_exit_hooks(unsigned slot) {
  std::lock_guard<std::mutex> lk(hook_mutex());
  for (const HookEntry& h : hook_table()) {
    h.fn(h.ctx, slot);
  }
}

unsigned acquire_slot() {
  for (unsigned w = 0; w < kWords; ++w) {
    std::uint64_t bits = g_bitmap[w].load(std::memory_order_relaxed);
    while (bits != ~std::uint64_t{0}) {
      const unsigned bit = static_cast<unsigned>(__builtin_ctzll(~bits));
      WCQ_SCHED_POINT(kRegistry);
      if (g_bitmap[w].compare_exchange_weak(bits, bits | (1ULL << bit),
                                            std::memory_order_acq_rel)) {
        const unsigned slot = w * 64 + bit;
        // Release on advance pairs with the acquire load in high_water():
        // reclamation/helping scans size their record iteration by
        // high_water() and must observe everything this thread published
        // before its slot became visible (the bitmap claim above). A relaxed
        // advance would let a scanner see the new high-water mark without
        // those prior writes.
        unsigned hw = g_high_water.load(std::memory_order_relaxed);
        WCQ_SCHED_POINT(kRegistry);
        while (hw < slot + 1 &&
               !g_high_water.compare_exchange_weak(hw, slot + 1,
                                                   std::memory_order_release,
                                                   std::memory_order_relaxed)) {
        }
        g_live.fetch_add(1, std::memory_order_relaxed);
        return slot;
      }
    }
  }
  std::fprintf(stderr,
               "wcq: more than %u concurrent threads registered; rebuild with "
               "a larger ThreadRegistry::kMaxThreads\n",
               ThreadRegistry::kMaxThreads);
  std::abort();
}

void release_slot(unsigned slot) {
  g_bitmap[slot / 64].fetch_and(~(1ULL << (slot % 64)),
                                std::memory_order_acq_rel);
  g_live.fetch_sub(1, std::memory_order_relaxed);
}

// The calling thread's slot while it holds one, else -1 (holds() reads it
// without constructing the SlotHolder).
thread_local int tl_slot = -1;

struct SlotHolder {
  unsigned slot;
  SlotHolder() : slot(acquire_slot()) { tl_slot = static_cast<int>(slot); }
  ~SlotHolder() {
    // Hooks run first: the slot is still this thread's, so a hook may issue
    // queue operations (the magazine flush enqueues into fq, whose ring
    // reads ThreadRegistry::tid() — re-entering tid() here returns this
    // holder's still-alive `slot` member, valid for the whole dtor body).
    run_exit_hooks(slot);
    tl_slot = -1;
    release_slot(slot);
  }
};

}  // namespace

unsigned ThreadRegistry::tid() {
  thread_local SlotHolder holder;
  opcount::count_registry();
  return holder.slot;
}

bool ThreadRegistry::holds(unsigned tid) {
  return tl_slot == static_cast<int>(tid);
}

unsigned ThreadRegistry::high_water() {
  opcount::count_registry();
  return g_high_water.load(std::memory_order_acquire);
}

unsigned ThreadRegistry::live_threads() {
  return g_live.load(std::memory_order_relaxed);
}

std::uint64_t ThreadRegistry::register_exit_hook(ExitHook fn, void* ctx) {
  std::lock_guard<std::mutex> lk(hook_mutex());
  const std::uint64_t handle = g_next_hook_handle++;
  hook_table().push_back(HookEntry{handle, fn, ctx});
  return handle;
}

void ThreadRegistry::unregister_exit_hook(std::uint64_t handle) {
  std::lock_guard<std::mutex> lk(hook_mutex());
  auto& t = hook_table();
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].handle == handle) {
      t.erase(t.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

}  // namespace wcq

// Process-wide thread-slot registry and thread-exit hooks.
//
// wCQ's helping protocol needs a bounded array of per-thread records indexed
// by a dense thread id (the paper's NUM_THRDS / TID). We assign each OS
// thread a dense slot on first use and release it when the thread exits, so
// short-lived threads (common in tests) recycle low ids and per-queue record
// arrays stay small.
//
// Slot acquisition is a lock-free scan over a bitmap; it runs once per thread
// lifetime, after which `tid()` is a thread_local read.
//
// Exit hooks (DESIGN.md §9): subsystems that keep per-tid state outside a
// queue operation — the index-magazine free-index caches — register a
// callback that fires on the exiting thread, after its last queue operation
// and *before* its slot is released (so the callback may still perform queue
// operations under the dying tid). Hooks run serialized under one internal
// lock; unregister_exit_hook() blocks until any in-flight invocation
// completes, so after it returns the hook's context can be torn down.
// A hook body that races other work on its per-queue state must be safe
// on its own: BoundedQueue's magazine flush takes each cached index by CAS
// and needs no lock of its own.
#pragma once

#include <atomic>
#include <cstdint>

namespace wcq {

class ThreadRegistry {
 public:
  // Upper bound on simultaneously-live registered threads. Queues may be
  // configured with a smaller `max_threads`; they reject tids beyond it.
  static constexpr unsigned kMaxThreads = 256;

  // Dense id of the calling thread; acquires a slot on first call.
  // Terminates the process if more than kMaxThreads threads are live
  // (documented hard limit, as in the paper's static NUM_THRDS).
  //
  // Every call is metered as a registry lookup (opcount::count_registry, as
  // is high_water()): the per-thread session handles (DESIGN.md §10) exist
  // to resolve this once per thread instead of once per layer per
  // operation, and the bench gate asserts that reduction.
  static unsigned tid();

  // One past the highest slot ever acquired; helping loops iterate only
  // [0, high_water()) instead of the full kMaxThreads. The acquire load here
  // pairs with the release advance in acquire_slot(), so a scan that
  // observes slot s < high_water() also observes the claim of slot s.
  static unsigned high_water();

  // Number of currently-held slots (test hook).
  static unsigned live_threads();

  // --- exit hooks ----------------------------------------------------------

  using ExitHook = void (*)(void* ctx, unsigned tid);

  // Register `fn` to run (as fn(ctx, tid)) on every registered thread's
  // exit, on the exiting thread itself, before its slot is released.
  // Returns a handle for unregister_exit_hook. Hooks must not register or
  // unregister hooks, and must be bounded (they run under the hook lock).
  static std::uint64_t register_exit_hook(ExitHook fn, void* ctx);

  // Remove a hook. Blocks until any in-flight invocation of it completes;
  // after return the hook will never run again and `ctx` may be destroyed.
  static void unregister_exit_hook(std::uint64_t handle);
};

}  // namespace wcq

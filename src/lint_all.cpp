// Lint anchor TU (DESIGN.md §11): includes every public header so that
// clang-tidy — which only analyzes translation units listed in
// compile_commands.json — sees the header-only rings, reclamation and
// scaling layers, not just the handful of .cpp files in libwcq. Built only
// under -DWCQ_LINT=ON (the CI static-analysis configuration); it ships no
// code of its own.
#include "analysis/sched_point.hpp"
#include "baselines/cc_queue.hpp"
#include "baselines/crturn_queue.hpp"
#include "baselines/faa_queue.hpp"
#include "baselines/lcrq.hpp"
#include "baselines/ms_queue.hpp"
#include "baselines/ymc_queue.hpp"
#include "common/align.hpp"
#include "common/alloc_meter.hpp"
#include "common/backoff.hpp"
#include "common/cpu.hpp"
#include "common/dwcas.hpp"
#include "common/env.hpp"
#include "common/op_counters.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/bounded_queue.hpp"
#include "core/entry.hpp"
#include "core/remap.hpp"
#include "core/scq.hpp"
#include "core/session_guard.hpp"
#include "core/unbounded_queue.hpp"
#include "core/wcq.hpp"
#include "core/wcq_llsc.hpp"
#include "portability/llsc.hpp"
#include "reclaim/hazard_pointers.hpp"
#include "reclaim/segment_pool.hpp"
#include "runtime/channel.hpp"
#include "runtime/eventcount.hpp"
#include "runtime/thread_registry.hpp"
#include "scale/index_magazine.hpp"
#include "scale/sharded_queue.hpp"

// Instantiate the class templates the headers only declare generically, so
// the analyzer walks their member bodies too.
namespace wcq {
template class BoundedQueue<std::uint64_t, WCQ>;
template class BoundedQueue<std::uint64_t, SCQ>;
template class BoundedQueue<std::uint64_t, WCQLLSC>;
template class BoundedQueue<std::uint64_t, MpscRing>;
template class BoundedQueue<std::uint64_t, SpmcRing>;
template class Channel<std::uint64_t, BoundedQueue<std::uint64_t, WCQ>>;
template class Channel<std::uint64_t, ShardedQueue<std::uint64_t, WCQ>>;
}  // namespace wcq

// wCQ for architectures with ordinary LL/SC (paper §4, Fig 9).
//
// PowerPC and MIPS lack CAS2. The paper's §4 observation: wCQ's slow path
// needs to *read* both words of an entry pair but only ever *updates* one of
// them at a time, so the pair can live in one LL/SC reservation granule —
// LL one word, plain-load the other, SC the updated word; the SC fails if
// *anything* in the granule changed (reservation-granule semantics). This
// gives weak-CAS behavior: sporadic failures, single-word load atomicity on
// failure — both of which wCQ's retry loops tolerate.
//
// Backends (DESIGN.md §15): each LL/SC backend is itself BasicWCQ's entry
// ops, a fused `update_value`/`update_note` pair. `LLSCSim`
// (portability/llsc.hpp) models the reservation granule on top of CAS2
// with injected sporadic failures; `LLSCNative`
// (portability/llsc_native.hpp) is real AArch64 LDAXP/STLXP in one asm
// block per update.
//
// The global Head/Tail pairs keep CAS2 in this build; the paper replaces
// those with a single-word CAS over a (thread-index, 48-bit counter)
// packing, a narrowing that is orthogonal to the Fig 9 entry decomposition
// validated here.
#pragma once

#include "core/wcq.hpp"
#include "portability/llsc.hpp"
#include "portability/llsc_native.hpp"

namespace wcq {

// The portable wCQ variant (paper §4). Same algorithm, same guarantees;
// entry-pair updates go through the LL/SC reservation-granule model.
using WCQLLSC = BasicWCQ<LLSCSim>;

#if defined(WCQ_HAS_NATIVE_LLSC)
// Same algorithm over the hardware exclusive monitor (AArch64 only).
using WCQLLSCNative = BasicWCQ<LLSCNative>;
#endif

}  // namespace wcq

// Environment-variable knobs.
//
// Benchmarks default to CI-friendly sizes and scale up to the paper's
// parameters (10 runs x 10,000,000 ops) via environment variables or flags;
// this keeps `for b in build/bench/*; do $b; done` fast while making the full
// reproduction a one-liner (see EXPERIMENTS.md).
#pragma once

#include <cstdint>
#include <string>

namespace wcq {

std::uint64_t env_u64(const char* name, std::uint64_t fallback);
bool env_flag(const char* name, bool fallback);
std::string env_str(const char* name, const std::string& fallback);

}  // namespace wcq

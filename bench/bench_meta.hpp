/// What the bench CLIs share: their largest accepted budget, and the "meta"
/// header for bench JSON artifacts (BENCH_table1.json, bench_su4 --json).
/// The header records the environment a baseline was produced under — the
/// thread count its solves ran at, whether the Z3 backend was compiled in,
/// build type, and the solver budget — so a regenerated file carries
/// enough context to interpret wall-time drift. Purely
/// informational: consumers that scan for top-level fields must keep those
/// fields *before* the meta object (bench/sat_smoke_main.cpp's scanner
/// finds the first textual occurrence of a key).

#pragma once

#include <cstddef>
#include <ostream>
#include <string>

#include "reason/engine.hpp"

namespace qxmap::bench {

/// Largest per-solve budget the CLIs accept (~11.6 days), so the solver
/// deadline stays far inside the clock's range.
inline constexpr long long kMaxBudgetMs = 1'000'000'000;

#ifdef NDEBUG
inline constexpr const char* kBuildType = "release";
#else
inline constexpr const char* kBuildType = "debug";
#endif

/// Writes `"meta": {...}` (no trailing comma/newline) at `indent` spaces.
/// `threads` is the thread count the harness ran its solves at.
inline void write_meta_json(std::ostream& os, int threads, long long budget_ms, int indent = 2) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  os << pad << "\"meta\": {\"threads\": " << threads
     << ", \"z3\": " << (reason::z3_available() ? "true" : "false") << ", \"build_type\": \""
     << kBuildType << "\", \"budget_ms\": " << budget_ms << "}";
}

}  // namespace qxmap::bench

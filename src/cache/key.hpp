// Content-addressed cache keys for per-unit analysis results.
//
// A key is a 128-bit hash of everything the serialized UnitPayload depends
// on: the lowered CFG of the analyzed function (statements with their
// operand spellings, malloc/havoc struct types, successor edges, loop
// nesting and source locations — findings quote line numbers, so a line
// shift is a real output change), the pvar typing environment, the full
// struct table (the governor's ⊤ saturation reads it), the salvage
// degradation summary (the payload replays those fields verbatim), the
// analysis options that steer the fixpoint, and the checker on/off switch.
//
// Deliberately excluded: the unit *name* (two files with identical content
// share one entry — that is the "content-addressed" in the name), the batch
// worker count (it only picks which process runs a unit), and wall-clock
// state of any kind.
//
// Version skew is part of the key: the PSASNAP1 format version and the
// metrics counter vocabulary are mixed in, so a binary with a different wire
// format computes different keys and never trusts a stale entry — and even a
// same-key entry from a skewed build fails its deep validation and is
// evicted (see cache.hpp).
//
// Beneath the unit key sits the function-granular tier (docs/CACHING.md):
// per-function keys that replace the unit key's "every sibling CFG" clause
// with the function's *direct callees' summary content hashes*. An edit then
// invalidates exactly the functions whose observable inputs changed — a
// callee edit that leaves the callee's summary bytes identical stops the
// cascade at the callee.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"

namespace psa::cache {

struct CacheKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const CacheKey&, const CacheKey&) = default;

  /// 32 lowercase hex chars; the cache entry's file stem.
  [[nodiscard]] std::string hex() const;
};

/// Key of one prepared unit under one engine configuration. `check` covers
/// the checker findings embedded in the payload; `salvage` the frontend mode
/// that produced the CFG.
[[nodiscard]] CacheKey cache_key(const analysis::ProgramAnalysis& program,
                                 const analysis::Options& options, bool check,
                                 bool salvage);

/// One direct callee's contribution to a function-tier key: its name and the
/// content hash of its FunctionSummary (ipa::summary_hash). `has_summary` is
/// false for callees with no summary at all (externs, helpers that failed to
/// lower) — their call sites take the havoc fallback, and an extern later
/// gaining a body must change the key.
struct CalleeDep {
  std::string name;
  bool has_summary = false;
  std::uint64_t summary_hash = 0;

  friend bool operator==(const CalleeDep&, const CalleeDep&) = default;
};

/// Key of one function's *summary* cache entry: the function's own lowered
/// CFG, the struct table, the engine options and salvage mode, the wire
/// versions, and its direct-callee summary hashes (`deps`, sorted by name by
/// the caller). The checker switch is deliberately absent — summaries carry
/// no findings.
[[nodiscard]] CacheKey function_summary_key(
    const analysis::ProgramAnalysis& program, const analysis::FunctionCfg& fn,
    const analysis::Options& options, bool salvage,
    const std::vector<CalleeDep>& deps);

/// Key of the target function's *result* entry (the full UnitPayload bytes):
/// like the unit key, but the sibling-CFG clause is replaced by the target's
/// direct-callee summary hashes. Sibling edits that do not change any callee
/// summary leave this key — and the cached report — valid.
[[nodiscard]] CacheKey function_result_key(
    const analysis::ProgramAnalysis& program, const analysis::Options& options,
    bool check, bool salvage, const std::vector<CalleeDep>& deps);

}  // namespace psa::cache

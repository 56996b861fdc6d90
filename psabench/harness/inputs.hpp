// Workload inputs. Everything the analyzer receives is built here from the
// benchmark seed; the analyzer never sees the seed itself.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "driver/unit.hpp"

namespace psabench {

/// What the output checks know about a unit, independent of the analyzer.
enum class UnitKind : std::uint8_t {
  kClean,      // clean corpus program
  kBuggy,      // seeded defect: expected rule at a known line
  kDirty,      // salvage fixture: hand-written degradation counts
  kGenerated,  // seeded random program: checked by the concrete oracle
  kEdited,     // one-line edit of a corpus program: concrete oracle too
};

struct BenchUnit {
  psa::driver::AnalysisUnit unit;
  UnitKind kind = UnitKind::kClean;
};

/// The 29 corpus_cold units: 18 clean, 6 buggy, 5 dirty, corpus order.
[[nodiscard]] std::vector<BenchUnit> corpus_cold_units();

/// `count` generated programs; program i is a function of (seed, i) only.
[[nodiscard]] std::vector<BenchUnit> generated_units(std::uint64_t seed,
                                                     std::size_t count,
                                                     std::string_view prefix);

/// Clean corpus programs whose cold L1 analysis takes well under two
/// seconds: the daemon's warm set.
[[nodiscard]] std::vector<BenchUnit> warm_units();

/// Every one-line edit of the small warm units that the frontend accepts,
/// round-robin over the units, each unit's edits in an order shuffled by
/// `seed`. An edit inserts one scalar statement after a statement line of
/// main, which shifts the lowered CFG and so misses the cache.
[[nodiscard]] std::vector<BenchUnit> corpus_edits(std::uint64_t seed);

enum class RequestKind : std::uint8_t { kHit, kEditGenerated, kEditCorpus };

struct Request {
  std::int64_t due_ns = 0;  // offset from the window start
  RequestKind kind = RequestKind::kHit;
  BenchUnit unit;
};

/// The daemon_edits schedule: `rate` requests per second for `seconds`,
/// evenly spaced; per ten requests, eight hits on the warm set, one new
/// generated program and one corpus edit.
[[nodiscard]] std::vector<Request> request_schedule(std::uint64_t seed,
                                                    double rate,
                                                    double seconds);

/// 64-bit mix used to derive every per-item seed.
[[nodiscard]] std::uint64_t mix(std::uint64_t a, std::uint64_t b);

}  // namespace psabench

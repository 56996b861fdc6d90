// Output checks. Each unit's verdict is compared with what the benchmark
// knows without the analyzer: the seeded defect of a buggy program, the
// hand-written salvage counts of a dirty one, and, for generated or edited
// programs, concrete executions of the independent interpreter in
// tests/testing/concrete_oracle.hpp that the exit state must cover.
#pragma once

#include <string>

#include "driver/supervisor.hpp"
#include "inputs.hpp"

namespace psabench {

/// Empty when the unit passes; otherwise what was wrong.
[[nodiscard]] std::string check_unit(const BenchUnit& unit,
                                     const psa::driver::UnitReport& report,
                                     unsigned oracle_runs);

/// Digest of the unit's report fields: outcome, status, exit-state size,
/// salvage counts and every finding's rule and location. A regression
/// reference, not ground truth.
[[nodiscard]] std::string unit_digest(const psa::driver::UnitReport& report);

/// 64-bit FNV-1a of `text`, as 16 hex digits.
[[nodiscard]] std::string text_digest(std::string_view text);

}  // namespace psabench

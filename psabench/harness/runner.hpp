// The traced unit runner: the same steps as driver::run_unit_serialized
// (frontend, cache probe, summaries, fixpoint, checkers, serialize, cache
// store), called one public layer function at a time so that each call gets
// its own span and counter delta. The traced run's batch report must equal
// the untraced run's, which is what keeps this mirror honest.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "analysis/analyzer.hpp"
#include "cache/cache.hpp"
#include "driver/supervisor.hpp"
#include "support/interner.hpp"
#include "trace.hpp"

namespace psabench {

/// analysis::prepare, step by step. With a non-null `interner` the parser
/// interns into it (the output checks use this to share symbol ids with a
/// deserialized payload); otherwise lang::parse_source makes a fresh one.
/// Spans lang.parse, lang.sema and cfg.build go to `tracer` when non-null.
[[nodiscard]] psa::analysis::ProgramAnalysis prepare_unit(
    std::string_view source, std::string_view function, bool salvage,
    std::shared_ptr<psa::support::Interner> interner = nullptr,
    Tracer* tracer = nullptr, std::string_view owner = {});

/// driver::run_unit_serialized with a span around every layer call.
[[nodiscard]] std::string traced_run_unit(const psa::driver::AnalysisUnit& unit,
                                          const psa::analysis::Options& engine,
                                          bool check, bool salvage,
                                          psa::cache::ResultCache* cache,
                                          Tracer& tracer);

/// A driver::UnitRunner around traced_run_unit. Each call records into a
/// fresh tracer and writes its spans to `<span_dir>/<pid>-<n>.spans` as the
/// unit ends, so the spans of forked workers reach the benchmark.
[[nodiscard]] psa::driver::UnitRunner make_traced_runner(
    std::string span_dir, bool check, bool salvage,
    std::shared_ptr<psa::cache::ResultCache> cache);

}  // namespace psabench

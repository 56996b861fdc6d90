#include "checks.hpp"

#include <cstdio>
#include <sstream>

#include "checker/checker.hpp"
#include "client/queries.hpp"
#include "corpus/corpus.hpp"
#include "runner.hpp"
#include "testing/concrete_oracle.hpp"

namespace psabench {

namespace driver = psa::driver;

namespace {

std::string check_buggy(const driver::UnitPayload& payload) {
  const auto* bug = psa::corpus::find_buggy_program(payload.unit_name);
  if (bug == nullptr) return "unknown buggy program";
  for (const auto& f : payload.findings) {
    if (psa::checker::rule_id(f.kind) == bug->expected_rule &&
        f.loc.line == bug->defect_line) {
      return {};
    }
  }
  return "seeded " + std::string(bug->expected_rule) + " at line " +
         std::to_string(bug->defect_line) + " not reported";
}

std::string check_dirty(const driver::UnitReport& report) {
  const auto* dirty = psa::corpus::find_dirty_program(report.unit.name);
  if (dirty == nullptr) return "unknown dirty program";
  if (report.outcome.kind != driver::UnitOutcomeKind::kPartial) {
    return "dirty unit not partial";
  }
  const driver::UnitPayload& p = *report.payload;
  if (p.havoc_sites != dirty->expected_havoc_sites ||
      p.skipped_decls != dirty->expected_skipped_decls ||
      p.functions_analyzable != dirty->expected_functions_analyzable ||
      p.functions_total != dirty->expected_functions_total) {
    return "salvage counts differ from the hand-written ones";
  }
  return {};
}

/// The exit state must cover every completed concrete run, and at least one
/// run must complete, so that the check is never passed vacuously. The
/// program is re-parsed into the payload's interner so that its symbols and
/// the deserialized graphs share ids.
std::string check_oracle(const BenchUnit& unit,
                         const driver::UnitPayload& payload, unsigned runs) {
  const psa::analysis::ProgramAnalysis program = prepare_unit(
      unit.unit.source, unit.unit.function, true, payload.interner);
  if (program.cfg.exit() != payload.exit_node) return "exit node differs";
  const auto& at_exit = payload.result.per_node[payload.exit_node];
  unsigned completed = 0;
  for (unsigned seed = 0; seed < runs; ++seed) {
    const auto outcome = psa::oracle::run_concrete(program, seed);
    if (!outcome.completed) continue;
    ++completed;
    if (!psa::oracle::alias_pattern_covered(program, at_exit, outcome.heap)) {
      return "concrete run " + std::to_string(seed) +
             ": alias/null pattern not covered";
    }
    for (const auto& [type, sel] : psa::oracle::concrete_shsel(outcome.heap)) {
      const auto& decl = program.unit.types.struct_decl(type);
      const std::string struct_name{program.interner().spelling(decl.name)};
      const std::string sel_name{program.interner().spelling(sel)};
      if (!psa::client::may_be_shared_via(program, at_exit, struct_name,
                                          sel_name)) {
        return "concrete run " + std::to_string(seed) + ": " + struct_name +
               "." + sel_name + " shared but proven unshared";
      }
    }
  }
  if (completed == 0) {
    return "none of " + std::to_string(runs) + " concrete runs completed";
  }
  return {};
}

}  // namespace

std::string check_unit(const BenchUnit& unit, const driver::UnitReport& report,
                       unsigned oracle_runs) {
  if (report.outcome.failed() || !report.payload) {
    return "unit failed: " + driver::describe(report.outcome) + " " +
           report.outcome.detail;
  }
  switch (unit.kind) {
    case UnitKind::kClean:
      if (report.outcome.kind != driver::UnitOutcomeKind::kOk) {
        return "clean unit not ok";
      }
      return {};
    case UnitKind::kBuggy:
      return check_buggy(*report.payload);
    case UnitKind::kDirty:
      return check_dirty(report);
    case UnitKind::kGenerated:
    case UnitKind::kEdited:
      return check_oracle(unit, *report.payload, oracle_runs);
  }
  return "unknown unit kind";
}

std::string unit_digest(const driver::UnitReport& report) {
  std::ostringstream out;
  out << driver::describe(report.outcome) << '|' << report.outcome.detail;
  if (report.payload) {
    const driver::UnitPayload& p = *report.payload;
    out << '|' << psa::analysis::to_string(p.result.status) << '|'
        << p.exit_graphs() << '|' << p.exit_nodes() << '|' << p.havoc_sites
        << '|' << p.skipped_decls << '|' << p.functions_analyzable << '|'
        << p.functions_total;
    for (const auto& f : p.findings) {
      out << '|' << psa::checker::rule_id(f.kind) << '@' << f.loc.line << ':'
          << f.loc.column;
    }
  }
  return text_digest(out.str());
}

std::string text_digest(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

}  // namespace psabench

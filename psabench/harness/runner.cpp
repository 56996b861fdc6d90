#include "runner.hpp"

#include <unistd.h>

#include <fstream>
#include <sstream>

#include "cache/key.hpp"
#include "cfg/cfg.hpp"
#include "cfg/induction.hpp"
#include "checker/checker.hpp"
#include "driver/incremental.hpp"
#include "driver/payload.hpp"
#include "ipa/summarize.hpp"
#include "lang/lexer.hpp"
#include "lang/parser.hpp"
#include "lang/sema.hpp"
#include "support/metrics.hpp"

namespace psabench {

namespace analysis = psa::analysis;
namespace cache = psa::cache;
namespace driver = psa::driver;
namespace support = psa::support;

analysis::ProgramAnalysis prepare_unit(
    std::string_view source, std::string_view function, bool salvage,
    std::shared_ptr<support::Interner> interner, Tracer* tracer,
    std::string_view owner) {
  support::DiagnosticEngine diags;
  diags.set_salvage(salvage);

  analysis::ProgramAnalysis program;
  {
    ScopedSpan span(tracer, "lang.parse", owner);
    if (interner) {
      psa::lang::Lexer lexer(source, diags);
      psa::lang::Parser parser(lexer.lex_all(), std::move(interner), diags);
      program.unit = parser.parse_unit();
    } else {
      program.unit = psa::lang::parse_source(source, diags);
    }
  }
  if (diags.has_errors()) throw analysis::FrontendError(diags.to_string());
  {
    ScopedSpan span(tracer, "lang.sema", owner);
    program.sema = psa::lang::analyze(program.unit, diags);
  }
  if (diags.has_errors()) throw analysis::FrontendError(diags.to_string());

  program.salvage.functions_analyzable = program.sema.functions.size();
  program.salvage.functions_total =
      program.sema.functions.size() + program.unit.skipped.size();
  if (salvage && program.sema.functions.empty()) {
    std::string detail = diags.to_string();
    if (detail.empty()) detail = "no function survived the salvage frontend";
    throw analysis::FrontendError(std::move(detail));
  }

  const support::Symbol fn_sym = program.unit.interner->lookup(function);
  const psa::lang::FunctionInfo* info =
      fn_sym.valid() ? program.sema.find(fn_sym) : nullptr;
  if (info == nullptr) {
    // The benchmark's inputs always define their target; the exact wording
    // of analysis::prepare's message is not needed here.
    throw analysis::FrontendError("function '" + std::string(function) +
                                  "' not found or not salvageable");
  }

  {
    ScopedSpan span(tracer, "cfg.build", owner);
    program.cfg = psa::cfg::build_cfg(program.unit, *info, diags);
    if (diags.has_errors()) throw analysis::FrontendError(diags.to_string());
    program.induction = psa::cfg::detect_induction_pvars(program.cfg);
    std::size_t nodes = program.cfg.size();
    for (const auto& fi : program.sema.functions) {
      if (&fi == info) {
        program.unit_cfgs.push_back(
            {fi.decl->name, program.cfg, program.induction});
        continue;
      }
      support::DiagnosticEngine local;
      local.set_salvage(true);
      psa::cfg::Cfg helper_cfg = psa::cfg::build_cfg(program.unit, fi, local);
      if (local.has_errors()) continue;
      nodes += helper_cfg.size();
      psa::cfg::InductionInfo helper_ind =
          psa::cfg::detect_induction_pvars(helper_cfg);
      program.unit_cfgs.push_back(
          {fi.decl->name, std::move(helper_cfg), std::move(helper_ind)});
    }
    span.add("cfg_nodes", nodes);
  }

  for (const auto& node : program.cfg.nodes()) {
    if (node.stmt.op == psa::cfg::SimpleOp::kHavoc) {
      ++program.salvage.havoc_sites;
    }
  }
  program.salvage.skipped_decls = program.unit.skipped.size();
  program.salvage.unsupported_count = diags.unsupported_count();
  if (program.salvage.degraded()) {
    std::ostringstream os;
    for (const auto& d : diags.all()) {
      if (d.severity == support::Severity::kUnsupported) {
        os << support::to_string(d) << '\n';
      }
    }
    program.salvage.diagnostics = os.str();
    PSA_COUNT_N(support::Counter::kHavocSites, program.salvage.havoc_sites);
    PSA_COUNT_N(support::Counter::kSkippedDecls,
                program.salvage.skipped_decls);
    PSA_COUNT(support::Counter::kSalvagedUnits);
  }
  return program;
}

namespace {

/// analysis::analyze_program, step by step.
analysis::AnalysisResult analyze_traced(const analysis::ProgramAnalysis& program,
                                        const analysis::Options& options,
                                        Tracer& tracer,
                                        std::string_view owner) {
  analysis::Options opts = options;
  opts.types = &program.unit.types;
  support::MetricsRegion unit_region;
  psa::ipa::SummaryTable summaries;
  if (opts.enable_summaries && opts.summaries == nullptr) {
    bool any_call = false;
    for (const auto& fc : program.unit_cfgs) {
      for (const auto& node : fc.cfg.nodes()) {
        any_call |= node.stmt.op == psa::cfg::SimpleOp::kCall;
      }
    }
    if (any_call) {
      ScopedSpan span(&tracer, "ipa.summarize", owner);
      summaries = psa::ipa::compute_summaries(program, opts);
      opts.summaries = &summaries;
    }
  }
  analysis::AnalysisResult result;
  {
    ScopedSpan span(&tracer, "analysis.fixpoint", owner);
    result = analysis::analyze_cfg(program.cfg, program.induction, opts);
    span.add("peak_bytes", result.peak_bytes());
  }
  result.ops = unit_region.delta();
  return result;
}

/// A cache probe that may re-issue a hit under this unit's identity.
std::optional<std::string> probe(cache::ResultCache& cache,
                                 const cache::CacheKey& key,
                                 cache::EntryTier tier,
                                 const driver::AnalysisUnit& unit,
                                 const support::MetricsRegion& unit_metrics,
                                 Tracer& tracer, bool* self_heal,
                                 std::string* hit_bytes) {
  cache::ResultCache::Lookup found;
  {
    ScopedSpan span(&tracer, "cache.lookup", unit.name);
    found = cache.lookup(key, cache::LookupFault::kNone, tier);
    if (found.status == cache::ResultCache::Lookup::Status::kHit) {
      span.add("bytes_read", found.bytes.size());
    }
  }
  if (found.status == cache::ResultCache::Lookup::Status::kEvicted) {
    *self_heal = true;
  }
  if (found.status != cache::ResultCache::Lookup::Status::kHit) {
    return std::nullopt;
  }
  try {
    driver::UnitPayload cached;
    {
      ScopedSpan span(&tracer, "driver.deserialize", unit.name);
      cached = driver::deserialize_unit_payload(found.bytes);
    }
    cached.unit_name = unit.name;
    cached.function = unit.function;
    cached.metrics = unit_metrics.delta();
    if (hit_bytes != nullptr) *hit_bytes = found.bytes;
    ScopedSpan span(&tracer, "driver.serialize", unit.name);
    std::string bytes = driver::serialize_unit_payload(cached, *cached.interner);
    span.add("payload_bytes", bytes.size());
    return bytes;
  } catch (const psa::rsg::SnapshotError& e) {
    cache.evict(key, e.what());
    *self_heal = true;
    return std::nullopt;
  }
}

}  // namespace

std::string traced_run_unit(const driver::AnalysisUnit& unit,
                            const analysis::Options& engine, bool check,
                            bool salvage, cache::ResultCache* cache,
                            Tracer& tracer) {
  ScopedSpan unit_span(&tracer, "driver.unit", unit.name);
  const support::MetricsRegion unit_metrics;
  driver::UnitPayload payload;
  payload.unit_name = unit.name;
  payload.function = unit.function;
  try {
    const analysis::ProgramAnalysis program =
        prepare_unit(unit.source, unit.function, salvage, nullptr, &tracer,
                     unit.name);

    cache::CacheKey key;
    cache::CacheKey func_key;
    bool func_key_valid = false;
    psa::ipa::SummaryTable summaries;
    bool inject_summaries = false;
    if (cache != nullptr) {
      {
        ScopedSpan span(&tracer, "cache.key", unit.name);
        key = cache::cache_key(program, engine, check, salvage);
      }
      bool self_heal = false;
      if (auto bytes = probe(*cache, key, cache::EntryTier::kUnit, unit,
                             unit_metrics, tracer, &self_heal, nullptr)) {
        return *bytes;
      }
      if (self_heal) PSA_COUNT(support::Counter::kCacheSelfHeals);

      if (engine.enable_summaries) {
        const std::vector<support::Symbol> roots =
            driver::demand_roots(program.cfg);
        if (!roots.empty()) {
          driver::CachedSummaries reuse(*cache, program, engine, salvage);
          ScopedSpan span(&tracer, "ipa.summarize", unit.name);
          summaries = psa::ipa::compute_summaries(program, engine, &reuse,
                                                  &roots);
        }
        inject_summaries = true;
      }
      {
        ScopedSpan span(&tracer, "cache.key", unit.name);
        func_key = cache::function_result_key(
            program, engine, check, salvage,
            driver::callee_deps(program.cfg, program.interner(), summaries));
      }
      func_key_valid = true;
      bool func_self_heal = false;
      std::string hit_bytes;
      if (auto bytes = probe(*cache, func_key, cache::EntryTier::kFunction,
                             unit, unit_metrics, tracer, &func_self_heal,
                             &hit_bytes)) {
        ScopedSpan span(&tracer, "cache.store", unit.name);
        (void)cache->store(key, hit_bytes);
        return *bytes;
      }
      if (func_self_heal) PSA_COUNT(support::Counter::kCacheSelfHeals);
    }

    analysis::Options engine_run = engine;
    if (inject_summaries) engine_run.summaries = &summaries;
    payload.result = analyze_traced(program, engine_run, tracer, unit.name);
    payload.exit_node = program.cfg.exit();
    payload.skipped_decls =
        static_cast<std::uint32_t>(program.salvage.skipped_decls);
    payload.havoc_sites =
        static_cast<std::uint32_t>(program.salvage.havoc_sites);
    payload.unsupported_count =
        static_cast<std::uint32_t>(program.salvage.unsupported_count);
    payload.functions_analyzable =
        static_cast<std::uint32_t>(program.salvage.functions_analyzable);
    payload.functions_total =
        static_cast<std::uint32_t>(program.salvage.functions_total);
    payload.salvage_diagnostics = program.salvage.diagnostics;
    if (check) {
      ScopedSpan span(&tracer, "checker.run", unit.name);
      payload.checked = true;
      payload.findings = psa::checker::run_checkers(program, payload.result);
      span.add("findings", payload.findings.size());
    }
    payload.metrics = unit_metrics.delta();
    std::string bytes;
    {
      ScopedSpan span(&tracer, "driver.serialize", unit.name);
      bytes = driver::serialize_unit_payload(payload, program.interner());
      span.add("payload_bytes", bytes.size());
    }
    {
      // Replays the supervisor's decode of these bytes (it runs inside
      // run_batch, out of the benchmark's reach).
      ScopedSpan span(&tracer, "driver.deserialize", unit.name);
      (void)driver::deserialize_unit_payload(bytes);
    }
    const bool cacheable =
        payload.result.converged() &&
        (engine.deadline_ms == 0 || payload.result.degradation.empty());
    if (cache != nullptr && cacheable) {
      ScopedSpan span(&tracer, "cache.store", unit.name);
      if (func_key_valid) {
        (void)cache->store(func_key, bytes, cache::StoreFault::kNone,
                           cache::EntryTier::kFunction);
      }
      (void)cache->store(key, bytes);
    }
    return bytes;
  } catch (const analysis::FrontendError& e) {
    payload = driver::UnitPayload{};
    payload.unit_name = unit.name;
    payload.function = unit.function;
    payload.frontend_ok = false;
    payload.frontend_error = e.what();
    payload.metrics = unit_metrics.delta();
    const support::Interner empty;
    return driver::serialize_unit_payload(payload, empty);
  }
}

driver::UnitRunner make_traced_runner(std::string span_dir, bool check,
                                      bool salvage,
                                      std::shared_ptr<cache::ResultCache> cache) {
  return [span_dir = std::move(span_dir), check, salvage, cache](
             const driver::AnalysisUnit& unit,
             const analysis::Options& engine) {
    static unsigned seq = 0;
    Tracer tracer;
    std::string bytes =
        traced_run_unit(unit, engine, check, salvage, cache.get(), tracer);
    std::ofstream out(span_dir + "/" + std::to_string(::getpid()) + "-" +
                          std::to_string(seq++) + ".spans",
                      std::ios::binary);
    out << tracer.serialize();
    return bytes;
  };
}

}  // namespace psabench

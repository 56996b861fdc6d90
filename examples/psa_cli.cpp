// psa_cli — the command-line driver: analyze C files from disk.
//
//   $ ./psa_cli FILE.c [FILE.c ...]
//                      [--function=NAME] [--level=1|2|3] [--progressive]
//                      [--per-statement] [--dot=OUT.dot] [--annotate]
//                      [--check] [--sarif=OUT.sarif]
//                      [--profile] [--metrics-out=FILE.jsonl]
//                      [--no-widen] [--memory-budget=BYTES]
//                      [--no-summaries] [--summary-iters=N]
//                      [--deadline-ms=MS] [--max-visits=N] [--hard-fail]
//                      [--isolate[=on|off]] [--jobs=N] [--timeout-ms=MS]
//                      [--checkpoint=DIR] [--resume] [--corpus]
//                      [--corpus-dirty] [--strict-frontend]
//                      [--cache-dir=DIR] [--cache-max-bytes=N]
//                      [--cache-max-age=SECONDS]
//                      [--serve=SOCK] [--connect=SOCK]
//                      [--fault-campaign=DIR] [--campaign-kinds=K1,K2,...]
//                      [--campaign-max-ops=N] [--campaign-full-corpus]
//                      [--help]
//
// Two modes share one exit-code contract (see below):
//
// DETAILED mode (default): each file is analyzed in-process and gets the
// full report (status, cost, exit-state shape facts, loop parallelism,
// governor summary); --dot writes the exit RSRSG as graphviz; --progressive
// runs the L1 -> L2 -> L3 driver; --check prints the memory-safety findings
// (docs/CHECKERS.md) and --sarif writes them as SARIF 2.1.0.
//
// BATCH mode (any of --isolate / --jobs / --timeout-ms / --checkpoint /
// --resume / --corpus): the crash-isolated supervisor (docs/RESILIENCE.md)
// runs every unit in a sandboxed worker process — a crash, hang or memory
// blow-up costs one unit, never the batch. --timeout-ms arms the per-unit
// watchdog, --jobs runs workers concurrently, --checkpoint journals
// progress so a killed batch is resumable with --resume, --corpus analyzes
// the bundled corpus programs, and --sarif merges the findings of every
// completed unit into one SARIF log. Batch workers run the SALVAGE
// frontend by default (docs/RESILIENCE.md): a unit mixing analyzable
// functions with unsupported C completes as a *partial* unit — skipped
// declarations are stubbed, unsupported statements lower to sound havoc,
// findings whose every witness crosses havocked state are downgraded to
// "possible (degraded frontend)" — instead of failing with a frontend
// error. --strict-frontend restores the fail-fast behavior (any
// unsupported construct rejects the unit); --corpus-dirty analyzes the
// bundled dirty corpus (salvage acceptance fixtures). The batch report on
// stdout is
// deterministic: resuming an interrupted run reproduces the uninterrupted
// report byte for byte. --isolate=off keeps the same reporting but runs
// in-process (only exceptions are contained). Detailed-mode flags that need
// a live analysis (--progressive, --per-statement, --annotate, --dot) are
// rejected in batch mode.
//
// SERVICE mode (docs/SERVICE.md): --serve=SOCK runs the persistent analysis
// daemon on a unix socket with the content-addressed result cache
// (--cache-dir) resident; SIGTERM drains it gracefully (exit 0). --connect
// =SOCK streams a batch from a running daemon (PSARPC2): unit results arrive
// one frame at a time, a torn stream is resumed over a fresh connection
// re-requesting only the unfinished units, and past the retry budget the
// remainder falls back to local analysis — the report is byte-identical
// either way. --cache-dir also works without a daemon: batch workers look
// up each unit's content-addressed key and skip the fixpoint on a hit, so a
// warm re-run re-analyzes only edited units. --cache-max-bytes /
// --cache-max-age bound the cache: after the batch (or, for the daemon,
// after each request) entries unused past the age limit expire and the
// oldest are evicted until the directory fits the byte cap (crash-safe,
// concurrent-sweeper-safe; docs/SERVICE.md). Daemon knobs via environment:
// PSA_SERVE_INFLIGHT (handler cap), PSA_SERVE_QUEUE (waiting connections),
// PSA_SERVE_HEARTBEAT_MS (stream liveness), PSA_SERVE_REQUEST_DEADLINE_MS.
//
// OBSERVABILITY (both modes, docs/OBSERVABILITY.md): --profile prints the
// phase-timer / operation-counter / gauge summary (stdout in detailed mode;
// stderr in batch mode, where stdout is the deterministic report);
// --metrics-out writes one psa.metrics.v1 JSONL record per analyzed unit
// plus a final aggregate record that equals the element-wise sum of the
// unit records.
//
// Exit codes (asserted by tests/driver/cli_integration_test.cpp):
//   0  every unit analyzed, no findings
//   1  every unit analyzed, memory-safety findings reported
//   2  bad usage
//   3  some units failed (crash / timeout / oom / exit / frontend error)
//   4  every unit failed
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/profile.hpp"
#include "analysis/progressive.hpp"
#include "checker/checker.hpp"
#include "checker/sarif.hpp"
#include "client/dot.hpp"
#include "client/parallelism.hpp"
#include "client/queries.hpp"
#include "client/report.hpp"
#include "driver/campaign.hpp"
#include "driver/supervisor.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "support/metrics.hpp"

namespace {

using namespace psa;

struct CliOptions {
  std::vector<std::string> files;
  std::string function = "main";
  int level = 1;
  bool progressive = false;
  bool per_statement = false;
  bool annotate = false;
  bool check = false;
  bool help = false;
  bool list_counters = false;
  bool profile = false;
  std::string metrics_path;
  std::string sarif_path;
  std::string dot_path;
  analysis::Options engine;

  // Batch mode.
  bool batch = false;
  bool isolate = true;
  std::size_t jobs = 1;
  std::uint64_t timeout_ms = 0;
  std::string checkpoint_dir;
  bool resume = false;
  bool corpus = false;
  bool corpus_dirty = false;
  bool strict_frontend = false;

  // Fault-campaign mode (docs/RESILIENCE.md, "The I/O fault space").
  std::string campaign_dir;
  std::vector<std::string> campaign_kinds;
  std::uint64_t campaign_max_ops = 0;
  bool campaign_full_corpus = false;

  // Service mode (docs/SERVICE.md).
  std::string cache_dir;
  std::uint64_t cache_max_bytes = 0;
  std::uint64_t cache_max_age_s = 0;
  std::string serve_socket;
  std::string connect_socket;
};

bool parse_args(int argc, char** argv, CliOptions& out) try {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](std::string_view prefix) -> std::string {
      return arg.substr(prefix.size());
    };
    if (arg.rfind("--function=", 0) == 0) {
      out.function = value_of("--function=");
    } else if (arg.rfind("--level=", 0) == 0) {
      out.level = std::stoi(value_of("--level="));
      if (out.level < 1 || out.level > 3) return false;
    } else if (arg == "--progressive") {
      out.progressive = true;
    } else if (arg == "--per-statement") {
      out.per_statement = true;
    } else if (arg == "--annotate") {
      out.annotate = true;
    } else if (arg == "--check") {
      out.check = true;
    } else if (arg == "--help") {
      out.help = true;
      return true;  // short-circuits: other arguments are not validated
    } else if (arg == "--list-counters") {
      out.list_counters = true;
      return true;  // short-circuits like --help: needs no input files
    } else if (arg == "--profile") {
      out.profile = true;
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      out.metrics_path = value_of("--metrics-out=");
      if (out.metrics_path.empty()) return false;
    } else if (arg.rfind("--sarif=", 0) == 0) {
      out.sarif_path = value_of("--sarif=");
      out.check = true;
    } else if (arg.rfind("--dot=", 0) == 0) {
      out.dot_path = value_of("--dot=");
    } else if (arg == "--no-widen") {
      out.engine.widen_threshold = 0;
    } else if (arg == "--no-summaries") {
      out.engine.enable_summaries = false;
    } else if (arg.rfind("--summary-iters=", 0) == 0) {
      out.engine.max_summary_iters = std::stoull(value_of("--summary-iters="));
    } else if (arg.rfind("--memory-budget=", 0) == 0) {
      out.engine.memory_budget_bytes =
          std::stoull(value_of("--memory-budget="));
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      out.engine.deadline_ms = std::stoull(value_of("--deadline-ms="));
    } else if (arg.rfind("--max-visits=", 0) == 0) {
      out.engine.max_node_visits = std::stoull(value_of("--max-visits="));
    } else if (arg == "--hard-fail") {
      out.engine.budget_policy = analysis::BudgetPolicy::kHardFail;
    } else if (arg == "--isolate" || arg == "--isolate=on") {
      out.batch = true;
      out.isolate = true;
    } else if (arg == "--isolate=off") {
      out.batch = true;
      out.isolate = false;
    } else if (arg.rfind("--jobs=", 0) == 0) {
      out.batch = true;
      out.jobs = std::stoul(value_of("--jobs="));
      if (out.jobs == 0) return false;
    } else if (arg.rfind("--timeout-ms=", 0) == 0) {
      out.batch = true;
      out.timeout_ms = std::stoull(value_of("--timeout-ms="));
    } else if (arg.rfind("--checkpoint=", 0) == 0) {
      out.batch = true;
      out.checkpoint_dir = value_of("--checkpoint=");
    } else if (arg == "--resume") {
      out.batch = true;
      out.resume = true;
    } else if (arg == "--corpus") {
      out.batch = true;
      out.corpus = true;
    } else if (arg == "--corpus-dirty") {
      out.batch = true;
      out.corpus_dirty = true;
    } else if (arg == "--strict-frontend") {
      out.batch = true;
      out.strict_frontend = true;
    } else if (arg.rfind("--cache-dir=", 0) == 0) {
      out.batch = true;
      out.cache_dir = value_of("--cache-dir=");
      if (out.cache_dir.empty()) return false;
    } else if (arg.rfind("--cache-max-bytes=", 0) == 0) {
      out.batch = true;
      out.cache_max_bytes = std::stoull(value_of("--cache-max-bytes="));
      if (out.cache_max_bytes == 0) return false;
    } else if (arg.rfind("--cache-max-age=", 0) == 0) {
      out.batch = true;
      out.cache_max_age_s = std::stoull(value_of("--cache-max-age="));
      if (out.cache_max_age_s == 0) return false;
    } else if (arg.rfind("--fault-campaign=", 0) == 0) {
      out.campaign_dir = value_of("--fault-campaign=");
      if (out.campaign_dir.empty()) return false;
    } else if (arg.rfind("--campaign-kinds=", 0) == 0) {
      out.campaign_kinds.clear();
      std::istringstream kinds(value_of("--campaign-kinds="));
      std::string kind;
      while (std::getline(kinds, kind, ',')) {
        if (!kind.empty()) out.campaign_kinds.push_back(kind);
      }
      if (out.campaign_kinds.empty()) return false;
    } else if (arg.rfind("--campaign-max-ops=", 0) == 0) {
      out.campaign_max_ops = std::stoull(value_of("--campaign-max-ops="));
      if (out.campaign_max_ops == 0) return false;
    } else if (arg == "--campaign-full-corpus") {
      out.campaign_full_corpus = true;
    } else if (arg.rfind("--serve=", 0) == 0) {
      out.serve_socket = value_of("--serve=");
      if (out.serve_socket.empty()) return false;
    } else if (arg.rfind("--connect=", 0) == 0) {
      out.batch = true;
      out.connect_socket = value_of("--connect=");
      if (out.connect_socket.empty()) return false;
    } else if (!arg.empty() && arg[0] != '-') {
      out.files.push_back(arg);
    } else {
      return false;
    }
  }
  if (!out.campaign_dir.empty()) {
    // Campaign mode is exclusive: it generates its own corpus and re-execs
    // this binary per scenario, so it takes no files and no other mode.
    return out.files.empty() && !out.batch && out.serve_socket.empty();
  }
  if (!out.campaign_kinds.empty() || out.campaign_max_ops > 0 ||
      out.campaign_full_corpus) {
    return false;  // --campaign-* knobs require --fault-campaign
  }
  if (!out.serve_socket.empty()) {
    // Serve mode is exclusive: the daemon takes work over the socket, not
    // from the command line.
    return out.files.empty() && !out.corpus && !out.corpus_dirty &&
           out.connect_socket.empty();
  }
  if (out.batch) {
    // Batch reports come from serialized payloads; flags that need the live
    // in-memory analysis are detailed-mode only.
    if (out.progressive || out.per_statement || out.annotate ||
        !out.dot_path.empty()) {
      return false;
    }
    if (out.resume && out.checkpoint_dir.empty()) return false;
    return !out.files.empty() || out.corpus || out.corpus_dirty;
  }
  return !out.files.empty();
} catch (const std::exception&) {
  return false;  // malformed numeric value (stoi/stoull)
}

// The canonical flag reference. README.md embeds this text verbatim in a
// fenced code block and tests/driver/cli_integration_test.cpp diffs the two
// — update both together.
constexpr const char* kHelpText =
    "usage: psa_cli FILE.c [FILE.c ...] [--function=NAME]\n"
    "               [--level=1|2|3] [--progressive]\n"
    "               [--per-statement] [--annotate] [--dot=OUT.dot]\n"
    "               [--check] [--sarif=OUT.sarif]\n"
    "               [--profile] [--metrics-out=FILE.jsonl]\n"
    "               [--no-widen] [--no-summaries] [--summary-iters=N]\n"
    "               [--memory-budget=BYTES] [--deadline-ms=MS]\n"
    "               [--max-visits=N] [--hard-fail]\n"
    "       batch:  [--isolate[=on|off]] [--jobs=N] [--timeout-ms=MS]\n"
    "               [--checkpoint=DIR] [--resume] [--corpus]\n"
    "               [--corpus-dirty] [--strict-frontend]\n"
    "               [--cache-dir=DIR] [--cache-max-bytes=N]\n"
    "               [--cache-max-age=SECONDS]\n"
    "       serve:  [--serve=SOCK] [--connect=SOCK] [--cache-dir=DIR]\n"
    "               [--cache-max-bytes=N] [--cache-max-age=SECONDS]\n"
    "       fault:  [--fault-campaign=DIR] [--campaign-kinds=K1,K2,...]\n"
    "               [--campaign-max-ops=N] [--campaign-full-corpus]\n"
    "       --help  print this reference and exit\n"
    "       --list-counters  print every metrics counter name and exit\n"
    "exit codes: 0 ok, 1 findings, 2 bad usage, 3 some units failed,\n"
    "            4 all units failed (partial units count as analyzed)\n";

int usage() {
  std::cerr << kHelpText;
  return driver::kExitBadUsage;
}

/// Analyze one file end to end in detailed mode. Returns the number of
/// findings via `findings_out`; false on failure (unreadable file or
/// frontend rejection) — the caller keeps going with the other inputs.
bool run_file(const std::string& file, const CliOptions& cli,
              std::size_t& findings_out,
              std::vector<analysis::UnitMetrics>& metrics_out) {
  std::ifstream in(file);
  if (!in) {
    std::cerr << "cannot open '" << file << "'\n";
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string source = buffer.str();

  try {
    // Whole-file delta: parse + CFG + fixpoint + checkers. Closed right
    // before the metric record is built.
    const support::MetricsRegion unit_region;
    const analysis::ProgramAnalysis program =
        analysis::prepare(source, cli.function);

    analysis::AnalysisResult result;
    std::string level_str;
    if (cli.progressive) {
      const std::vector<analysis::ShapeCriterion> criteria = {
          {"no-possibly-cyclic-structure",
           [](const analysis::ProgramAnalysis& p,
              const analysis::AnalysisResult& r) {
             for (const auto sym : p.cfg.pointer_vars()) {
               const std::string name{p.interner().spelling(sym)};
               if (client::classify_structure(p, r.at_exit(p.cfg), name) ==
                   client::StructureKind::kCyclic) {
                 return false;
               }
             }
             return true;
           }},
      };
      analysis::Options engine = cli.engine;
      const auto out = analysis::run_progressive(program, criteria, engine);
      for (const auto& attempt : out.attempts) {
        std::cout << rsg::to_string(attempt.level) << ": "
                  << analysis::to_string(attempt.result.status);
        if (!attempt.failed_criteria.empty()) {
          std::cout << " (failed:";
          for (const auto& c : attempt.failed_criteria) std::cout << ' ' << c;
          std::cout << ')';
        }
        if (!attempt.stop_reason.empty()) {
          std::cout << " [stop: " << attempt.stop_reason << ']';
        }
        std::cout << '\n';
      }
      if (out.resource_exhausted) {
        std::cout << "stopped: " << out.stop_reason << '\n';
      }
      result = out.best().result;
      level_str = std::string(rsg::to_string(out.best().level));
      std::cout << "final level: " << rsg::to_string(out.best().level)
                << "\n\n";
    } else {
      analysis::Options engine = cli.engine;
      engine.level = static_cast<rsg::AnalysisLevel>(cli.level);
      level_str = std::string(rsg::to_string(engine.level));
      result = analysis::analyze_program(program, engine);
    }

    client::ReportOptions report;
    report.per_statement = cli.per_statement;
    std::cout << client::format_analysis_report(program, result, report);

    if (cli.annotate) {
      std::cout << "\nannotated source:\n"
                << client::annotate_source(
                       source, client::detect_parallel_loops(program, result));
    }

    if (!cli.dot_path.empty()) {
      std::ofstream dot(cli.dot_path);
      dot << client::to_dot(result.at_exit(program.cfg), program.interner());
      std::cout << "\nexit RSRSG written to " << cli.dot_path << '\n';
    }

    if (cli.check) {
      const auto findings = checker::run_checkers(program, result);
      findings_out += findings.size();
      std::cout << "\nmemory-safety findings (" << findings.size() << "):\n"
                << checker::format_findings(findings, program);
      if (!cli.sarif_path.empty()) {
        checker::SarifOptions sarif;
        sarif.artifact_uri = file;
        std::ofstream out(cli.sarif_path);
        out << checker::to_sarif(findings, sarif);
        std::cout << "SARIF log written to " << cli.sarif_path << '\n';
      }
    }

    if (cli.profile || !cli.metrics_path.empty()) {
      analysis::UnitMetrics m = analysis::collect_unit_metrics(
          file, cli.function, level_str, result);
      // Widen from the fixpoint-only result.ops to the whole-file delta so
      // the parse/cfg/checker phase timers are attributed to this unit.
      m.ops = unit_region.delta();
      if (cli.profile) std::cout << '\n' << analysis::format_profile(m);
      metrics_out.push_back(std::move(m));
    }
  } catch (const analysis::FrontendError& e) {
    std::cerr << file << ": frontend error (skipped):\n" << e.what();
    return false;
  }
  return true;
}

int run_batch_mode(const CliOptions& cli) {
  std::vector<driver::AnalysisUnit> units;
  for (const std::string& file : cli.files) {
    driver::AnalysisUnit unit;
    unit.name = file;
    unit.function = cli.function;
    unit.source_path = file;
    units.push_back(std::move(unit));
  }
  if (cli.corpus) {
    for (driver::AnalysisUnit& unit : driver::corpus_units()) {
      unit.function = "main";  // corpus programs are whole `main` bodies
      units.push_back(std::move(unit));
    }
  }
  if (cli.corpus_dirty) {
    for (driver::AnalysisUnit& unit : driver::corpus_dirty_units()) {
      unit.function = "main";
      units.push_back(std::move(unit));
    }
  }

  driver::BatchOptions batch;
  batch.isolate = cli.isolate;
  batch.jobs = cli.jobs;
  batch.checkpoint_dir = cli.checkpoint_dir;
  batch.resume = cli.resume;
  batch.cache_dir = cli.cache_dir;
  batch.cache_max_bytes = cli.cache_max_bytes;
  batch.cache_max_age_ms = cli.cache_max_age_s * 1000;
  batch.unit_timeout_ms = cli.timeout_ms;
  batch.check = cli.check;
  batch.strict_frontend = cli.strict_frontend;
  batch.engine = cli.engine;
  batch.engine.level = static_cast<rsg::AnalysisLevel>(cli.level);
  // Progress goes to stderr so stdout stays the deterministic batch report
  // (the resume acceptance test compares it byte for byte).
  batch.log = [](const std::string& line) { std::cerr << line << '\n'; };

  driver::BatchResult result;
  try {
    if (!cli.connect_socket.empty()) {
      // Via the daemon, with the availability contract of
      // service/client.hpp: retries with backoff, then an in-process
      // fallback with the exact same options — a dead daemon never fails
      // the build, and the report is byte-identical either way.
      service::ClientOptions connect;
      connect.socket_path = cli.connect_socket;
      connect.log = [](const std::string& line) {
        std::cerr << line << '\n';
      };
      service::RequestOutcome outcome =
          service::run_request(units, batch, connect);
      result = std::move(outcome.result);
    } else {
      result = driver::run_batch(units, batch);
    }
  } catch (const std::exception& e) {
    std::cerr << "batch setup failed: " << e.what() << '\n';
    return driver::kExitBadUsage;
  }

  std::cout << driver::format_batch_report(result);

  if (!cli.sarif_path.empty()) {
    std::ofstream out(cli.sarif_path);
    out << checker::to_sarif_batch(driver::batch_findings(result));
    std::cerr << "SARIF log written to " << cli.sarif_path << '\n';
  }

  if (cli.profile || !cli.metrics_path.empty()) {
    const std::string level_str(
        rsg::to_string(static_cast<rsg::AnalysisLevel>(cli.level)));
    std::vector<analysis::UnitMetrics> metrics;
    for (const driver::UnitReport& ur : result.units) {
      // Failed units (crash / timeout / frontend error) carry no analysis
      // result to gauge; the batch report already accounts for them.
      if (!ur.payload || !ur.payload->frontend_ok) continue;
      analysis::UnitMetrics m = analysis::collect_unit_metrics(
          ur.unit.name, ur.unit.function, level_str, ur.payload->result);
      // The worker-side whole-unit delta (frontend + fixpoint + checkers),
      // shipped inside the payload — valid across forked and in-process
      // workers alike.
      m.ops = ur.payload->metrics;
      metrics.push_back(std::move(m));
    }
    const analysis::UnitMetrics aggregate =
        analysis::aggregate_metrics(metrics);
    if (!cli.metrics_path.empty()) {
      std::ofstream out(cli.metrics_path);
      for (const analysis::UnitMetrics& m : metrics) {
        out << analysis::to_metrics_json(m, "unit");
      }
      out << analysis::to_metrics_json(aggregate, "aggregate");
      std::cerr << "metrics written to " << cli.metrics_path << '\n';
    }
    // stderr: stdout must stay the byte-deterministic batch report.
    if (cli.profile) std::cerr << analysis::format_profile(aggregate);
  }

  return driver::batch_exit_code(result);
}

int run_serve_mode(const CliOptions& cli) {
  service::DaemonOptions daemon;
  daemon.socket_path = cli.serve_socket;
  daemon.cache_dir = cli.cache_dir;
  daemon.cache_max_bytes = cli.cache_max_bytes;
  daemon.cache_max_age_ms = cli.cache_max_age_s * 1000;
  daemon.jobs = cli.jobs;
  if (const char* env = std::getenv("PSA_SERVE_INFLIGHT")) {
    try {
      daemon.max_inflight = std::max<std::size_t>(1, std::stoul(env));
    } catch (const std::exception&) {
      std::cerr << "serve: ignoring malformed PSA_SERVE_INFLIGHT\n";
    }
  }
  if (const char* env = std::getenv("PSA_SERVE_QUEUE")) {
    try {
      daemon.max_queued = std::stoul(env);
    } catch (const std::exception&) {
      std::cerr << "serve: ignoring malformed PSA_SERVE_QUEUE\n";
    }
  }
  if (const char* env = std::getenv("PSA_SERVE_HEARTBEAT_MS")) {
    try {
      daemon.heartbeat_ms = std::stoull(env);
    } catch (const std::exception&) {
      std::cerr << "serve: ignoring malformed PSA_SERVE_HEARTBEAT_MS\n";
    }
  }
  if (const char* env = std::getenv("PSA_SERVE_REQUEST_DEADLINE_MS")) {
    try {
      daemon.request_deadline_ms = std::stoull(env);
    } catch (const std::exception&) {
      std::cerr << "serve: ignoring malformed PSA_SERVE_REQUEST_DEADLINE_MS\n";
    }
  }
  daemon.log = [](const std::string& line) { std::cerr << line << '\n'; };
  return service::run_daemon(daemon);
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!parse_args(argc, argv, cli)) return usage();
  if (cli.help) {
    std::cout << kHelpText;
    return driver::kExitOk;
  }
  if (cli.list_counters) {
    // One stable name per line: the machine-readable counter vocabulary.
    // scripts/doc_drift.sh diffs this against docs/OBSERVABILITY.md.
    for (std::size_t i = 0; i < support::kCounterCount; ++i) {
      std::cout << support::counter_name(static_cast<support::Counter>(i))
                << '\n';
    }
    return driver::kExitOk;
  }

  if (!cli.campaign_dir.empty()) {
    // Deterministic fault-space sweep (docs/RESILIENCE.md): re-exec this
    // binary once per (durable op, fault kind) and check the soundness
    // invariants machine-checkably.
    driver::CampaignOptions campaign;
    campaign.exe = argv[0];
    campaign.workdir = cli.campaign_dir;
    if (!cli.campaign_kinds.empty()) campaign.kinds = cli.campaign_kinds;
    campaign.max_ops = cli.campaign_max_ops;
    campaign.full_corpus = cli.campaign_full_corpus;
    return driver::run_fault_campaign(campaign);
  }
  if (!cli.serve_socket.empty()) return run_serve_mode(cli);
  if (cli.batch) return run_batch_mode(cli);

  std::size_t succeeded = 0;
  std::size_t findings = 0;
  std::vector<analysis::UnitMetrics> metrics;
  for (std::size_t i = 0; i < cli.files.size(); ++i) {
    if (cli.files.size() > 1) {
      if (i != 0) std::cout << '\n';
      std::cout << "=== " << cli.files[i] << " ===\n";
    }
    if (run_file(cli.files[i], cli, findings, metrics)) ++succeeded;
  }
  if (!cli.metrics_path.empty()) {
    std::ofstream out(cli.metrics_path);
    for (const analysis::UnitMetrics& m : metrics) {
      out << analysis::to_metrics_json(m, "unit");
    }
    out << analysis::to_metrics_json(analysis::aggregate_metrics(metrics),
                                     "aggregate");
    std::cout << "metrics written to " << cli.metrics_path << '\n';
  }
  if (succeeded == 0) return driver::kExitAllUnitsFailed;
  if (succeeded < cli.files.size()) return driver::kExitSomeUnitsFailed;
  if (findings > 0) return driver::kExitFindings;
  return driver::kExitOk;
}

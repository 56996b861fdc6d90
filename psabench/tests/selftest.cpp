// The benchmark's own tests: the traced runner mirrors the driver's, every
// named count repeats exactly on one seed, and different seeds give
// different inputs that still pass the output checks.
//
//   python3 psabench/run.py --selftest
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "cache/key.hpp"
#include "checks.hpp"
#include "driver/payload.hpp"
#include "driver/supervisor.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "runner.hpp"
#include "support/metrics.hpp"

namespace psabench {
namespace {

using psa::support::Counter;

std::string work_dir(const std::string& leaf) {
  const char* root = std::getenv("PSABENCH_WORK");
  return std::string(root != nullptr ? root : "psabench-selftest") + "/" + leaf;
}

RunConfig small_config(const std::string& workload, std::uint64_t seed,
                       bool trace, const std::string& leaf) {
  RunConfig config;
  config.workload = workload;
  config.seed = seed;
  config.seconds = 3;
  config.trace = trace;
  config.work_dir = work_dir(leaf);
  config.max_passes = 1;
  config.small_units = 40;
  config.setup_reps = 1;
  config.oracle_runs = 8;
  return config;
}

/// Every count of `a` equals `b`'s, except the names in `timing_dependent`.
void expect_same_counts(const RunResult& a, const RunResult& b,
                        std::set<std::string> timing_dependent = {}) {
  ASSERT_FALSE(a.counts.empty());
  for (const char* name :
       {"cfg.nodes", "analysis.visits", "rsg.join_attempts",
        "rsg.compress_calls", "io.fsyncs", "cache.hits", "cache.misses",
        "peak_rsg_mb"}) {
    EXPECT_TRUE(a.counts.contains(name)) << name;
  }
  ASSERT_EQ(a.counts.size(), b.counts.size());
  for (const auto& [name, value] : a.counts) {
    if (timing_dependent.contains(name)) continue;
    EXPECT_EQ(value, b.counts.at(name)) << name;
  }
}

TEST(Runner, MirrorsTheDriverRunner) {
  psa::analysis::Options engine;
  for (const BenchUnit& u : corpus_cold_units()) {
    if (u.unit.name == "sparse_lu" || u.unit.name == "barnes_hut" ||
        u.unit.name == "tree_mirror" || u.unit.name == "em3d_like" ||
        u.unit.name == "sparse_matmat" || u.unit.name == "binary_tree") {
      continue;  // slow; covered by the corpus_cold count test
    }
    const auto mirror = prepare_unit(u.unit.source, "main", true);
    const auto original = psa::analysis::prepare(
        u.unit.source, "main", psa::analysis::FrontendOptions{true});
    EXPECT_EQ(psa::cache::cache_key(mirror, engine, true, true).hex(),
              psa::cache::cache_key(original, engine, true, true).hex())
        << u.unit.name;

    Tracer tracer;
    psa::driver::UnitReport traced;
    traced.payload = psa::driver::deserialize_unit_payload(
        traced_run_unit(u.unit, engine, true, true, nullptr, tracer));
    psa::driver::UnitReport plain;
    plain.payload = psa::driver::deserialize_unit_payload(
        psa::driver::run_unit_serialized(u.unit, engine, true, true));
    EXPECT_EQ(unit_digest(traced), unit_digest(plain)) << u.unit.name;
    EXPECT_FALSE(tracer.spans().empty());
  }
}

/// `source` with the first statement line of main written twice.
std::string edit_main(const std::string& source) {
  std::istringstream in(source);
  std::string out;
  bool in_main = false;
  bool edited = false;
  for (std::string line; std::getline(in, line);) {
    out += line + '\n';
    if (line.find("main(") != std::string::npos) in_main = true;
    const auto first = line.find_first_not_of(' ');
    if (!in_main || edited || first == std::string::npos ||
        line.back() != ';' || line.compare(first, 7, "struct ") == 0 ||
        line.compare(first, 4, "int ") == 0) {
      continue;
    }
    out += line + '\n';
    edited = true;
  }
  return out;
}

/// The names of the cache entries in `dir`, sorted.
std::vector<std::string> entry_names(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".entry") {
      names.push_back(e.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// The names of the non-timer counters whose deltas differ, or "".
std::string different_counters(const psa::support::MetricsSnapshot& a,
                               const psa::support::MetricsSnapshot& b) {
  std::string names;
  for (std::size_t i = 0; i < psa::support::kCounterCount; ++i) {
    const auto c = static_cast<Counter>(i);
    if (!psa::support::is_timer(c) && a[c] != b[c]) {
      names += std::string(psa::support::counter_name(c)) + ' ';
    }
  }
  return names;
}

// The cache path of the mirror: unit-tier hits, function-tier summary and
// result hits, promotion, and stores must match the driver's step for step.
// Each unit runs cold and warm, after a one-line edit of main (unit and
// function-result miss; summaries of unedited callees hit), and with an
// uncalled helper whose body is then edited (unit miss, function-result
// hit, promotion).
TEST(Runner, MirrorsTheDriverCachePath) {
  namespace fs = std::filesystem;
  using psa::support::MetricsRegion;
  psa::analysis::Options engine;
  std::vector<BenchUnit> units;
  for (const BenchUnit& u : corpus_cold_units()) {
    if (u.unit.name == "sll" || u.unit.name == "queue" ||
        u.unit.name == "list_pipeline" || u.unit.name == "dirty_mixed_calls") {
      units.push_back(u);
    }
  }
  ASSERT_EQ(units.size(), 4u);
  for (const BenchUnit& u : units) {
    const std::string traced_dir = work_dir("mirror-cache/traced");
    const std::string driver_dir = work_dir("mirror-cache/driver");
    for (const std::string& d : {traced_dir, driver_dir}) {
      fs::remove_all(d);
      fs::create_directories(d);
    }
    psa::cache::ResultCache traced_cache(traced_dir);
    psa::cache::ResultCache driver_cache(driver_dir);

    psa::driver::AnalysisUnit line_edit = u.unit;
    line_edit.source = edit_main(u.unit.source);
    ASSERT_NE(line_edit.source, u.unit.source) << u.unit.name;
    psa::driver::AnalysisUnit helper = u.unit;
    helper.source += "\nvoid unused_probe() {\n  int k;\n  k = 0;\n}\n";
    psa::driver::AnalysisUnit helper_edit = u.unit;
    helper_edit.source +=
        "\nvoid unused_probe() {\n  int k;\n  k = 0;\n  k = 1;\n}\n";
    enum class Expect { kStore, kUnitHit, kFunctionHit };
    const struct {
      const char* step;
      const psa::driver::AnalysisUnit& unit;
      Expect expect;
    } steps[] = {
        {"cold", u.unit, Expect::kStore},
        {"warm", u.unit, Expect::kUnitHit},
        {"line edit", line_edit, Expect::kStore},
        {"line edit, warm", line_edit, Expect::kUnitHit},
        {"uncalled helper", helper, Expect::kStore},
        // Unit miss; the function-result entry of main hits and is promoted.
        {"uncalled helper edited", helper_edit, Expect::kFunctionHit},
        {"uncalled helper edited, warm", helper_edit, Expect::kUnitHit},
    };
    for (const auto& [step, unit, expect] : steps) {
      const std::string what = u.unit.name + ", " + step;
      Tracer tracer;
      const MetricsRegion traced_region;
      psa::driver::UnitReport traced;
      traced.payload = psa::driver::deserialize_unit_payload(traced_run_unit(
          unit, engine, true, true, &traced_cache, tracer));
      const psa::support::MetricsSnapshot traced_ops = traced_region.delta();

      const MetricsRegion driver_region;
      psa::driver::UnitReport plain;
      plain.payload = psa::driver::deserialize_unit_payload(
          psa::driver::run_unit_serialized(unit, engine, true, true,
                                           &driver_cache));
      const psa::support::MetricsSnapshot driver_ops = driver_region.delta();

      ASSERT_TRUE(plain.payload->frontend_ok) << what;
      EXPECT_EQ(unit_digest(traced), unit_digest(plain)) << what;
      EXPECT_EQ(different_counters(traced_ops, driver_ops), "") << what;
      EXPECT_EQ(entry_names(traced_dir), entry_names(driver_dir)) << what;
      switch (expect) {
        case Expect::kStore:
          EXPECT_EQ(driver_ops[Counter::kCacheMisses], 1u) << what;
          EXPECT_EQ(driver_ops[Counter::kCacheStores], 1u) << what;
          break;
        case Expect::kUnitHit:
          EXPECT_EQ(driver_ops[Counter::kCacheHits], 1u) << what;
          break;
        case Expect::kFunctionHit:
          EXPECT_EQ(driver_ops[Counter::kCacheMisses], 1u) << what;
          EXPECT_GT(driver_ops[Counter::kFuncCacheHits], 0u) << what;
          EXPECT_EQ(driver_ops[Counter::kCacheStores], 1u) << what;
          break;
      }
    }
  }
}

TEST(Determinism, SmallUnitsCountsRepeat) {
  const RunResult a =
      run_workload(small_config("small_units", 5, true, "small-a"));
  const RunResult b =
      run_workload(small_config("small_units", 5, true, "small-b"));
  EXPECT_TRUE(a.correct);
  EXPECT_TRUE(b.correct);
  expect_same_counts(a, b);
}

TEST(Determinism, CorpusColdCountsRepeat) {
  const RunResult a =
      run_workload(small_config("corpus_cold", 1, true, "corpus-a"));
  const RunResult b =
      run_workload(small_config("corpus_cold", 1, true, "corpus-b"));
  EXPECT_TRUE(a.correct);
  EXPECT_TRUE(b.correct);
  EXPECT_EQ(a.failed, 0u);
  expect_same_counts(a, b);
}

TEST(Determinism, DaemonEditsCountsRepeat) {
  const RunResult a =
      run_workload(small_config("daemon_edits", 3, true, "daemon-a"));
  const RunResult b =
      run_workload(small_config("daemon_edits", 3, true, "daemon-b"));
  EXPECT_TRUE(a.correct);
  EXPECT_TRUE(b.correct);
  // The daemon journals a "queued" record (one fsynced append) when a
  // request arrives before the previous handler has been reaped, which
  // depends on timing; every other count must repeat.
  expect_same_counts(a, b, {"io.writes", "io.fsyncs"});
  EXPECT_GT(a.counts.at("cache.hits"), 0);
  EXPECT_GT(a.counts.at("cache.misses"), 0);
}

TEST(Seeds, DifferentSeedsGiveDifferentInputsThatPassTheChecks) {
  const auto one = generated_units(1, 20, "gen");
  const auto two = generated_units(2, 20, "gen");
  std::size_t differing = 0;
  for (std::size_t i = 0; i < one.size(); ++i) {
    differing += one[i].unit.source != two[i].unit.source ? 1 : 0;
  }
  EXPECT_GT(differing, 15u);

  const auto sched_one = request_schedule(1, 12, 5);
  const auto sched_two = request_schedule(2, 12, 5);
  ASSERT_EQ(sched_one.size(), sched_two.size());
  std::size_t differing_requests = 0;
  for (std::size_t i = 0; i < sched_one.size(); ++i) {
    differing_requests +=
        sched_one[i].unit.unit.source != sched_two[i].unit.unit.source ? 1 : 0;
  }
  EXPECT_GT(differing_requests, 0u);

  const RunResult a =
      run_workload(small_config("small_units", 1, false, "seed-1"));
  const RunResult b =
      run_workload(small_config("small_units", 2, false, "seed-2"));
  EXPECT_TRUE(a.correct);
  EXPECT_TRUE(b.correct);
  EXPECT_EQ(a.failed + b.failed, 0u);
  EXPECT_NE(a.digests, b.digests);
}

}  // namespace
}  // namespace psabench

// The benchmark's entry points: one run of one workload, as the command
// line (main.cpp) and the self-test (tests/selftest.cpp) drive it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace psabench {

struct RunConfig {
  std::string workload;  // corpus_cold | small_units | daemon_edits
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for caches, sockets, snapshots and span files. The
  /// run empties it first.
  std::string work_dir;
  /// Closed-loop workloads stop after this many passes even when time is
  /// left (0: time-bound only; the self-test uses 1).
  std::size_t max_passes = 0;
  /// Generated programs per small_units pass.
  std::size_t small_units = 1000;
  /// Repetitions of the daemon_edits set-up (a prewarm takes seconds);
  /// setup_s is their median.
  int setup_reps = 3;
  /// Concrete oracle executions per generated or edited program.
  unsigned oracle_runs = 16;
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (untraced) or per-layer metrics (traced).
  std::vector<std::pair<std::string, Metric>> metrics;
  /// Printed in the table only: measured, but too noisy run to run on a
  /// shared host to carry a bound (see README.md, "Steadiness").
  std::vector<std::pair<std::string, Metric>> unbounded;
  /// Deterministic counts the self-test compares across runs.
  std::map<std::string, double> counts;
  /// Per-unit report digests of the first pass (regression reference).
  std::map<std::string, std::string> digests;
  /// First few failed checks, and summary lines for the human-readable
  /// table printed before the JSON result.
  std::vector<std::string> problems;
  std::vector<std::string> notes;
};

[[nodiscard]] RunResult run_workload(const RunConfig& config);

}  // namespace psabench

// The symbolic-execution engine (§2, Fig. 2 of the paper): a worklist
// fixpoint over the statement-level CFG. Every CFG node accumulates the
// RSRSG holding *after* its statement; the input of a node is the reduced
// union of its predecessors' outputs.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/governor.hpp"
#include "analysis/rsrsg.hpp"
#include "analysis/semantics.hpp"
#include "cfg/cfg.hpp"
#include "cfg/induction.hpp"
#include "support/memory_stats.hpp"
#include "support/metrics.hpp"

namespace psa::analysis {

/// What the engine does when a budget (visits, memory, RSRSG cardinality)
/// trips mid-fixpoint.
enum class BudgetPolicy : std::uint8_t {
  /// Degrade through the governor's widening ladder and keep going: the run
  /// always terminates with a sound, coarser result plus a
  /// DegradationReport. The default — production analyzers never abort.
  kDegrade,
  /// Legacy behavior (and the paper's own failure mode): stop and report the
  /// failed status. The client gets partial per-node states.
  kHardFail,
};

struct Options {
  rsg::AnalysisLevel level = rsg::AnalysisLevel::kL1;

  /// JOIN compatible RSGs inside every RSRSG (§4.3). Off only for ablation.
  bool enable_join = true;
  /// Share-attribute link pruning (§4.2). Off only for ablation.
  bool share_pruning = true;

  /// Widening: when a statement's RSRSG exceeds this many graphs, ALIAS-
  /// equal members are force-joined with conservative property merges (see
  /// rsg::force_join). 0 disables widening — the pure paper semantics, which
  /// can take the paper's own 17-minute L1 runs on Barnes-Hut-like codes.
  std::size_t widen_threshold = 48;

  /// Guard rails. The paper's compiler ran out of memory on Sparse LU at
  /// L2/L3 (Table 1); memory_budget_bytes reproduces that failure mode
  /// deterministically (0 = unlimited).
  std::size_t max_rsgs_per_set = 4096;
  std::uint64_t max_node_visits = 2'000'000;
  std::uint64_t memory_budget_bytes = 0;

  /// Wall-clock deadline for one run in milliseconds (0 = none). On expiry
  /// under kDegrade the engine collapses every state to the governor's top
  /// rung and drains the remaining fixpoint within a grace period of one
  /// more deadline (total <= 2x); if even the drain overruns — or under
  /// kHardFail — the run stops with AnalysisStatus::kDeadline.
  std::uint64_t deadline_ms = 0;

  /// Optional cooperative cancellation; not owned, may be signalled from any
  /// thread. A cancelled run stops at the next poll point with
  /// AnalysisStatus::kCancelled (cancellation never drains: the caller asked
  /// for the run to end, not for a coarser answer).
  const CancelToken* cancel = nullptr;

  /// Budget-breach handling; see BudgetPolicy.
  BudgetPolicy budget_policy = BudgetPolicy::kDegrade;

  /// Struct declarations of the analyzed unit; not owned. Set automatically
  /// by analyze_program. Lets the governor's kSummarize rung saturate the
  /// may-structure with every *type-correct* link, making its ⊤ a fixed
  /// point under further joins (see rsg::summarize_top). Optional: without
  /// it the top rung is unsaturated — still sound, slower to converge.
  const lang::TypeTable* types = nullptr;

  // --- Interprocedural analysis (src/ipa, docs/ALGORITHMS.md). ------------

  /// Master switch for the summary pass: analyze_program computes function
  /// summaries for the unit and kCall statements apply them. Off, every
  /// call site takes the sound havoc fallback (the PR 5 behavior).
  bool enable_summaries = true;
  /// Kleene iteration cap for recursive call-graph SCCs; an over-cap cycle
  /// falls back to havoc at its call sites (summaries stay analyzed=false).
  std::size_t max_summary_iters = 8;
  /// Node-visit budget for each per-callee summary fixpoint (smaller than
  /// max_node_visits: a summary that needs the full intraprocedural budget
  /// is not worth its cost — the callee degrades to havoc instead).
  std::uint64_t summary_visit_budget = 200'000;
  /// Summary table for the kCall transfer; not owned. Set automatically by
  /// analyze_program (null or missing entries fall back to havoc).
  const ipa::SummaryTable* summaries = nullptr;
  /// Entry states for the fixpoint instead of the single empty
  /// configuration; not owned. Used by the summary computation to start a
  /// callee from its abstracted parameter bindings. Null or empty = the
  /// usual empty-graph entry.
  const std::vector<rsg::Rsg>* entry_states = nullptr;

  [[nodiscard]] rsg::LevelPolicy policy() const { return {level}; }
  [[nodiscard]] rsg::PruneOptions prune_options() const {
    return {share_pruning};
  }
};

enum class AnalysisStatus : std::uint8_t {
  kConverged,
  kOutOfMemory,      // exceeded Options::memory_budget_bytes
  kIterationLimit,   // exceeded Options::max_node_visits
  kSetLimit,         // an RSRSG exceeded Options::max_rsgs_per_set
  kDeadline,         // Options::deadline_ms expired (drain included)
  kCancelled,        // the CancelToken was signalled
};

[[nodiscard]] std::string_view to_string(AnalysisStatus status);

/// True for every status caused by resource exhaustion rather than a
/// completed fixpoint — the progressive driver must not escalate past these
/// (a higher level is strictly more expensive and fails the same way).
[[nodiscard]] constexpr bool is_resource_status(AnalysisStatus s) noexcept {
  return s != AnalysisStatus::kConverged;
}

struct AnalysisResult {
  AnalysisStatus status = AnalysisStatus::kConverged;
  /// RSRSG after each CFG node (indexed by cfg::NodeId).
  std::vector<Rsrsg> per_node;
  double seconds = 0.0;
  support::MemorySnapshot memory;
  std::uint64_t node_visits = 0;
  /// What the governor had to do to keep the run alive (empty when no budget
  /// tripped). A converged-but-degraded result is sound but coarser.
  DegradationReport degradation;
  /// Operation-counter deltas of this run (all-zero in PSA_METRICS=0
  /// builds). The non-timer counters are deterministic for a fixed input and
  /// options; see support/metrics.hpp and docs/OBSERVABILITY.md.
  support::MetricsSnapshot ops;

  [[nodiscard]] bool converged() const noexcept {
    return status == AnalysisStatus::kConverged;
  }
  [[nodiscard]] bool degraded() const noexcept {
    return !degradation.empty();
  }
  /// The RSRSG at the function exit.
  [[nodiscard]] const Rsrsg& at_exit(const cfg::Cfg& cfg) const {
    return per_node[cfg.exit()];
  }
  /// Peak bytes of RSG storage during the run (Table-1 "Space").
  [[nodiscard]] std::uint64_t peak_bytes() const noexcept {
    return memory.peak_bytes;
  }
};

/// Run the fixpoint. Opens a support::MemoryRegion for the duration so the
/// result's memory snapshot covers exactly this run even when other
/// allocations (earlier units of an in-process batch) share the process.
[[nodiscard]] AnalysisResult analyze_cfg(const cfg::Cfg& cfg,
                                         const cfg::InductionInfo& induction,
                                         const Options& options = {});

}  // namespace psa::analysis

// Fault injection for the resource governor: drive every budget to its
// pathological extreme on the Fig. 1 doubly-linked-list program and check
// that the degraded fixpoint is (a) still a fixpoint — kConverged — with the
// right DegradationReport, and (b) still *sound* against the concrete-
// interpreter oracle. Plus deadline/cancellation behavior and the legacy
// hard-fail policy.
#include "analysis/governor.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "analysis/analyzer.hpp"
#include "corpus/corpus.hpp"
#include "testing/concrete_oracle.hpp"

namespace psa::analysis {
namespace {

const corpus::CorpusProgram& dll() { return *corpus::find_program("dll"); }

/// Shared assertion: a degraded run must still converge, report what it did,
/// and cover every concrete execution of the program.
void expect_sound_degraded(const ProgramAnalysis& program,
                           const AnalysisResult& result,
                           AnalysisStatus expected_trigger) {
  ASSERT_EQ(result.status, AnalysisStatus::kConverged);
  ASSERT_TRUE(result.degraded());
  bool trigger_seen = result.degradation.events.empty();
  for (const DegradationEvent& e : result.degradation.events) {
    EXPECT_NE(e.rung, DegradationRung::kNone);
    trigger_seen |= e.trigger == expected_trigger;
  }
  EXPECT_TRUE(trigger_seen);
  EXPECT_GT(oracle::expect_covers_concrete(program, result.at_exit(program.cfg),
                                           40),
            0);
}

TEST(GovernorTest, VisitBudgetOfOneDegradesSoundly) {
  const auto program = prepare(dll().source);
  Options options;
  options.max_node_visits = 1;
  const auto result = analyze_program(program, options);
  expect_sound_degraded(program, result, AnalysisStatus::kIterationLimit);
  // One visit per allowance trips the ladder all the way up.
  EXPECT_EQ(result.degradation.worst_rung(), DegradationRung::kSummarize);
  EXPECT_GT(result.degradation
                .rung_applications[static_cast<int>(DegradationRung::kWiden)],
            0u);
}

TEST(GovernorTest, MemoryBudgetOfOneByteDegradesSoundly) {
  const auto program = prepare(dll().source);
  Options options;
  options.memory_budget_bytes = 1;  // unreachable by construction
  const auto result = analyze_program(program, options);
  expect_sound_degraded(program, result, AnalysisStatus::kOutOfMemory);
  // No state fits in one byte: the governor must detect the budget as
  // unreachable rather than thrash forever.
  EXPECT_TRUE(result.degradation.memory_budget_unreachable);
  EXPECT_EQ(result.degradation.worst_rung(), DegradationRung::kSummarize);
}

TEST(GovernorTest, TransientMemorySpikesStaySound) {
  // Regression: a transfer fan-out aborted on a memory spike that drained
  // before the loop-top re-check used to leave the memoization cache
  // claiming inputs whose outputs never landed — silently losing may-facts
  // (and letting kHardFail converge past its budget). Sweep budgets around
  // the program's natural peak so some runs trip only transiently.
  const auto program = prepare(dll().source);
  for (const std::uint64_t budget :
       {std::uint64_t{8} << 10, std::uint64_t{16} << 10, std::uint64_t{32} << 10,
        std::uint64_t{64} << 10}) {
    Options options;
    options.memory_budget_bytes = budget;
    const auto result = analyze_program(program, options);
    ASSERT_EQ(result.status, AnalysisStatus::kConverged) << budget;
    EXPECT_GT(oracle::expect_covers_concrete(program,
                                             result.at_exit(program.cfg), 40),
              0)
        << "budget " << budget;
  }
}

TEST(GovernorTest, SetCapOfOneDegradesSoundly) {
  const auto program = prepare(dll().source);
  Options options;
  options.max_rsgs_per_set = 1;
  const auto result = analyze_program(program, options);
  expect_sound_degraded(program, result, AnalysisStatus::kSetLimit);
}

TEST(GovernorTest, AllBudgetsAtOnceDegradeSoundly) {
  const auto program = prepare(dll().source);
  Options options;
  options.max_node_visits = 1;
  options.memory_budget_bytes = 1;
  options.max_rsgs_per_set = 1;
  const auto result = analyze_program(program, options);
  ASSERT_EQ(result.status, AnalysisStatus::kConverged);
  ASSERT_TRUE(result.degraded());
  EXPECT_GT(oracle::expect_covers_concrete(program, result.at_exit(program.cfg),
                                           40),
            0);
}

TEST(GovernorTest, DeadlineZeroMeansNoDeadline) {
  // 0 is the documented "no deadline" default, not an instant expiry.
  const auto program = prepare(dll().source);
  Options options;
  options.deadline_ms = 0;
  const auto result = analyze_program(program, options);
  EXPECT_EQ(result.status, AnalysisStatus::kConverged);
  EXPECT_FALSE(result.degradation.deadline_drain);
}

TEST(GovernorTest, DeadlineInterruptsRunWithinTwiceTheBudget) {
  // The acceptance bound: a run must come back within ~2x the deadline (the
  // drain allowance) — never run to natural completion.
  const auto program = prepare(corpus::barnes_hut().source);
  Options options;
  options.level = rsg::AnalysisLevel::kL3;
  options.deadline_ms = 50;
  const auto result = analyze_program(program, options);
  // Either the drain finished the coarse fixpoint in the grace period, or
  // the run stopped hard at 2x. Both must note the drain.
  EXPECT_TRUE(result.status == AnalysisStatus::kConverged ||
              result.status == AnalysisStatus::kDeadline)
      << to_string(result.status);
  EXPECT_TRUE(result.degradation.deadline_drain);
  // 2x the 50 ms deadline plus generous slack for one in-flight statement
  // and CI jitter; the undisturbed run takes far longer than this.
  EXPECT_LT(result.seconds, 2.0);
}

TEST(GovernorTest, DeadlineHardFailStopsWithoutDraining) {
  const auto program = prepare(corpus::barnes_hut().source);
  Options options;
  options.level = rsg::AnalysisLevel::kL3;
  options.deadline_ms = 10;
  options.budget_policy = BudgetPolicy::kHardFail;
  const auto result = analyze_program(program, options);
  EXPECT_EQ(result.status, AnalysisStatus::kDeadline);
  EXPECT_FALSE(result.degradation.deadline_drain);
  EXPECT_LT(result.seconds, 2.0);
}

TEST(GovernorTest, PreCancelledTokenStopsImmediately) {
  const auto program = prepare(dll().source);
  CancelToken token;
  token.cancel();
  Options options;
  options.cancel = &token;
  const auto result = analyze_program(program, options);
  EXPECT_EQ(result.status, AnalysisStatus::kCancelled);
  EXPECT_EQ(result.node_visits, 0u);
}

TEST(GovernorTest, CancellationFromAnotherThreadStopsRun) {
  const auto program = prepare(corpus::barnes_hut().source);
  CancelToken token;
  Options options;
  options.level = rsg::AnalysisLevel::kL3;
  options.cancel = &token;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.cancel();
  });
  const auto result = analyze_program(program, options);
  canceller.join();
  // Cancellation never drains: the caller asked for the run to end.
  EXPECT_EQ(result.status, AnalysisStatus::kCancelled);
  EXPECT_FALSE(result.degradation.deadline_drain);
  EXPECT_LT(result.seconds, 2.0);
}

TEST(GovernorTest, HardFailPreservesLegacySetLimitStatus) {
  const auto program = prepare(dll().source);
  Options options;
  options.max_rsgs_per_set = 1;
  options.budget_policy = BudgetPolicy::kHardFail;
  const auto result = analyze_program(program, options);
  EXPECT_EQ(result.status, AnalysisStatus::kSetLimit);
  EXPECT_FALSE(result.degraded());
}

TEST(GovernorTest, SparseLuMemoryBudgetAcceptance) {
  // The issue's acceptance criterion, and the paper's own Table-1 failure:
  // Sparse LU runs out of memory at L2. Under kHardFail the budget kills the
  // run; under the governor the same budget yields a converged, degraded,
  // still-sound result.
  const auto program = prepare(corpus::sparse_lu().source);
  Options options;
  options.level = rsg::AnalysisLevel::kL2;
  options.memory_budget_bytes = 64 * 1024;

  Options hard = options;
  hard.budget_policy = BudgetPolicy::kHardFail;
  const auto dead = analyze_program(program, hard);
  ASSERT_EQ(dead.status, AnalysisStatus::kOutOfMemory);

  const auto result = analyze_program(program, options);
  ASSERT_EQ(result.status, AnalysisStatus::kConverged);
  ASSERT_TRUE(result.degraded());
  // Sparse LU's concrete runs are long; give the interpreter more steps so
  // the sweep exercises real final stores (completed runs are what get
  // checked either way).
  oracle::expect_covers_concrete(program, result.at_exit(program.cfg), 20,
                                 20000);
}

TEST(GovernorTest, DegradedResultsCoverUndegradedFacts) {
  // Monotonicity spot check: anything the degraded exit state claims
  // impossible must also be impossible in the precise run. We check the
  // contrapositive on SHSEL: precise "maybe" implies degraded "maybe".
  const auto program = prepare(dll().source);
  const auto precise = analyze_program(program, {});
  Options tight;
  tight.max_node_visits = 1;
  const auto degraded = analyze_program(program, tight);
  ASSERT_TRUE(precise.converged());
  ASSERT_EQ(degraded.status, AnalysisStatus::kConverged);
  for (std::size_t i = 0; i < program.unit.types.struct_count(); ++i) {
    const auto& decl =
        program.unit.types.struct_decl(static_cast<lang::StructId>(i));
    const std::string struct_name{program.interner().spelling(decl.name)};
    for (const auto sel : program.unit.types.all_selectors()) {
      const std::string sel_name{program.interner().spelling(sel)};
      if (client::may_be_shared_via(program, precise.at_exit(program.cfg),
                                    struct_name, sel_name)) {
        EXPECT_TRUE(client::may_be_shared_via(
            program, degraded.at_exit(program.cfg), struct_name, sel_name))
            << struct_name << "." << sel_name
            << ": degraded state dropped a may-fact (UNSOUND)";
      }
    }
  }
}

TEST(GovernorTest, ReportSummaryMentionsRungs) {
  const auto program = prepare(dll().source);
  Options options;
  options.max_node_visits = 1;
  const auto result = analyze_program(program, options);
  const std::string summary = result.degradation.summary();
  EXPECT_NE(summary.find("degradation"), std::string::npos);
  EXPECT_NE(summary.find("widen"), std::string::npos);
}

}  // namespace
}  // namespace psa::analysis

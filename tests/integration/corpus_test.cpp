// Integration: every corpus program runs through the full pipeline.
#include <gtest/gtest.h>

#include "analysis/analyzer.hpp"
#include "checker/checker.hpp"
#include "client/queries.hpp"
#include "corpus/corpus.hpp"
#include "support/metrics.hpp"

namespace psa {
namespace corpus {

// gtest prints a pointer parameter as its address, and gtest_discover_tests
// copies that print into the CTest name, which then changes on every run of
// a position-independent binary. Printing the program's name keeps the
// CorpusAnalysisTest names the same from build to build.
static void PrintTo(const CorpusProgram* p, std::ostream* os) {
  *os << p->name;
}

}  // namespace corpus

namespace {

using analysis::AnalysisResult;
using analysis::prepare;
using analysis::ProgramAnalysis;

TEST(CorpusTest, RegistryIsPopulated) {
  const auto& all = corpus::all_programs();
  EXPECT_GE(all.size(), 10u);
  int table1 = 0;
  for (const auto& p : all) table1 += p.in_table1 ? 1 : 0;
  EXPECT_EQ(table1, 4);  // the paper's four codes
  EXPECT_EQ(corpus::find_program("no_such_program"), nullptr);
  EXPECT_EQ(corpus::sparse_matvec().name, "sparse_matvec");
  EXPECT_EQ(corpus::sparse_matmat().name, "sparse_matmat");
  EXPECT_EQ(corpus::sparse_lu().name, "sparse_lu");
  EXPECT_EQ(corpus::barnes_hut().name, "barnes_hut");
}

TEST(CorpusTest, EveryProgramPassesTheFrontend) {
  for (const auto& p : corpus::all_programs()) {
    EXPECT_NO_THROW({
      const auto program = prepare(p.source);
      EXPECT_GT(program.cfg.size(), 2u) << p.name;
      EXPECT_FALSE(program.cfg.pointer_vars().empty()) << p.name;
    }) << p.name;
  }
}

// Parameterized over the corpus: L1 analysis converges (or hits a declared
// guard rail for the heavy LU case) with a sound, non-empty final RSRSG.
class CorpusAnalysisTest
    : public ::testing::TestWithParam<const corpus::CorpusProgram*> {};

TEST_P(CorpusAnalysisTest, L1AnalysisProducesExitState) {
  const corpus::CorpusProgram& p = *GetParam();
  const auto program = prepare(p.source);
  analysis::Options options;
  options.max_node_visits = 200'000;
  if (p.name == "sparse_lu") {
    // The heaviest code of the paper's Table 1 (12'15'' and an OOM at L2/L3
    // on their machine): bound the budget tightly and only require the
    // guard rail to fire cleanly. kHardFail keeps the historical abort;
    // the degraded-convergence path is covered by governor_test.cpp.
    options.max_node_visits = 5'000;
    options.budget_policy = analysis::BudgetPolicy::kHardFail;
    const auto bounded = analysis::analyze_program(program, options);
    EXPECT_EQ(bounded.status, analysis::AnalysisStatus::kIterationLimit);
    return;
  }
  const auto result = analysis::analyze_program(program, options);
  EXPECT_TRUE(result.converged()) << analysis::to_string(result.status);
  EXPECT_FALSE(result.at_exit(program.cfg).empty());
}

std::vector<const corpus::CorpusProgram*> corpus_pointers() {
  std::vector<const corpus::CorpusProgram*> out;
  for (const auto& p : corpus::all_programs()) out.push_back(&p);
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllPrograms, CorpusAnalysisTest, ::testing::ValuesIn(corpus_pointers()),
    [](const ::testing::TestParamInfo<const corpus::CorpusProgram*>& info) {
      return std::string(info.param->name);
    });

TEST(CorpusTest, SparseMatVecShapeFacts) {
  const auto program = prepare(corpus::sparse_matvec().source);
  const auto result = analysis::analyze_program(program, {});
  ASSERT_TRUE(result.converged());
  const auto& at_exit = result.at_exit(program.cfg);
  ASSERT_FALSE(at_exit.empty());
  // Rows, elements, and both vectors end up unshared: the analysis proves
  // the structures are what the code means them to be.
  EXPECT_FALSE(client::may_be_shared(program, at_exit, "row"));
  EXPECT_FALSE(client::may_be_shared(program, at_exit, "elem"));
  EXPECT_FALSE(client::may_be_shared(program, at_exit, "vec"));
}

TEST(CorpusTest, SparseMatMatShapeFacts) {
  const auto program = prepare(corpus::sparse_matmat().source);
  analysis::Options options;
  options.max_node_visits = 500'000;
  const auto result = analysis::analyze_program(program, options);
  ASSERT_TRUE(result.converged());
  const auto& at_exit = result.at_exit(program.cfg);
  ASSERT_FALSE(at_exit.empty());
  EXPECT_FALSE(client::may_be_shared_via(program, at_exit, "elem", "nxtc"));
}

TEST(CorpusTest, NaryTreeChildListsUnshared) {
  const auto program = prepare(corpus::find_program("nary_tree")->source);
  const auto result = analysis::analyze_program(program, {});
  ASSERT_TRUE(result.converged());
  const auto& at_exit = result.at_exit(program.cfg);
  EXPECT_FALSE(client::may_be_shared_via(program, at_exit, "cell", "child"));
  EXPECT_FALSE(client::may_be_shared_via(program, at_exit, "cell", "sib"));
}

TEST(CorpusTest, TwoListsRemainDistinguished) {
  const auto program = prepare(corpus::find_program("two_lists")->source);
  const auto result = analysis::analyze_program(program, {});
  ASSERT_TRUE(result.converged());
  const auto& at_exit = result.at_exit(program.cfg);
  // The reference-pattern property separates the two heads at every level.
  EXPECT_FALSE(client::paths_may_alias(program, at_exit, "h->la", "h->lb"));
}

TEST(CorpusTest, VisitMarksEveryNodeMarkedOnce) {
  const auto program = prepare(corpus::find_program("visit_marks")->source);
  for (const auto level : {rsg::AnalysisLevel::kL2, rsg::AnalysisLevel::kL3}) {
    analysis::Options options;
    options.level = level;
    const auto result = analysis::analyze_program(program, options);
    ASSERT_TRUE(result.converged());
    const auto& at_exit = result.at_exit(program.cfg);
    // Each list node is referenced by at most one marker.
    EXPECT_FALSE(client::may_be_shared_via(program, at_exit, "node", "ref"))
        << rsg::to_string(level);
  }
}

TEST(CorpusTest, ListPipelinePreparesWithoutDegradation) {
  // The interprocedural witness: three helpers plus main, all in the
  // analyzable subset — no salvage, no havoc sites, four lowered CFGs.
  const auto program = prepare(corpus::find_program("list_pipeline")->source);
  EXPECT_FALSE(program.salvage.degraded());
  EXPECT_EQ(program.salvage.havoc_sites, 0u);
  EXPECT_EQ(program.unit_cfgs.size(), 4u);
}

TEST(CorpusTest, ListPipelineSummarizesEveryCallAndStaysClean) {
  const auto program = prepare(corpus::find_program("list_pipeline")->source);
#if PSA_METRICS
  const support::MetricsRegion region;
#endif
  const auto result = analysis::analyze_program(program, {});
  ASSERT_TRUE(result.converged());
  EXPECT_FALSE(result.degraded());
#if PSA_METRICS
  // The burn-down: before summaries, each of the five call sites was a
  // whole-graph havoc; now every one is a summary application.
  const auto delta = region.delta();
  EXPECT_EQ(delta[support::Counter::kCallHavocFallback], 0u);
  EXPECT_GE(delta[support::Counter::kSummaryApplied], 5u);
  EXPECT_GE(delta[support::Counter::kSummaryComputed], 3u);
#endif
  // Golden findings: exactly one note. release() is summarized, so the
  // region widens to maybe-freed rather than freed — the summary cannot
  // prove the teardown freed *every* cell, and the checkers honestly report
  // the residue as a may-still-be-live note. Crucially it is a full-
  // confidence finding (degraded == false): summaries, unlike the old call
  // havoc, taint nothing.
  const auto findings = checker::run_checkers(program, result);
  ASSERT_EQ(findings.size(), 1u)
      << checker::format_findings(findings, program);
  EXPECT_EQ(findings[0].kind, checker::CheckKind::kLeakAtExit);
  EXPECT_FALSE(findings[0].degraded);
}

}  // namespace
}  // namespace psa

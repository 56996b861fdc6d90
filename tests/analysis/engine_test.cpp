// The worklist fixpoint: convergence, loop summarization, guard rails,
// determinism, thread independence.
#include "analysis/engine.hpp"

#include <gtest/gtest.h>

#include "analysis/analyzer.hpp"
#include "corpus/corpus.hpp"

namespace psa::analysis {
namespace {

using rsg::Cardinality;
using rsg::kNoNode;
using rsg::NodeRef;
using rsg::Rsg;

constexpr std::string_view kListBuild = R"(
  struct node { struct node *nxt; int v; };
  void main() {
    struct node *list; struct node *t;
    int i; int n;
    list = NULL; i = 0; n = 100;
    while (i < n) {
      t = malloc(sizeof(struct node));
      t->nxt = list;
      list = t;
      i = i + 1;
    }
    t = NULL;
  }
)";

TEST(EngineTest, ConvergesOnLoops) {
  const auto program = prepare(kListBuild);
  const auto result = analyze_program(program, {});
  EXPECT_TRUE(result.converged());
  EXPECT_GT(result.node_visits, 0u);
  EXPECT_GT(result.seconds, 0.0);
}

TEST(EngineTest, UnboundedListBecomesSummary) {
  const auto program = prepare(kListBuild);
  const auto result = analyze_program(program, {});
  const auto& at_exit = result.at_exit(program.cfg);
  ASSERT_FALSE(at_exit.empty());
  // Some graph must contain a summary node (lists of length >= 3), and
  // every graph stays unshared.
  bool some_summary = false;
  for (const Rsg& g : at_exit.graphs()) {
    for (const NodeRef n : g.node_refs()) {
      if (g.props(n).cardinality == Cardinality::kMany) some_summary = true;
      EXPECT_FALSE(g.props(n).shared);
    }
  }
  EXPECT_TRUE(some_summary);
}

TEST(EngineTest, EmptyAndShortListsRepresented) {
  const auto program = prepare(kListBuild);
  const auto result = analyze_program(program, {});
  const auto& at_exit = result.at_exit(program.cfg);
  bool list_null = false;
  bool list_bound = false;
  for (const Rsg& g : at_exit.graphs()) {
    (g.pvar_target(program.symbol("list")) == kNoNode ? list_null : list_bound) =
        true;
  }
  EXPECT_TRUE(list_null);   // the loop may run zero times
  EXPECT_TRUE(list_bound);  // or at least once
}

TEST(EngineTest, PerNodeStatesCoverReachableStatements) {
  const auto program = prepare(kListBuild);
  const auto result = analyze_program(program, {});
  ASSERT_EQ(result.per_node.size(), program.cfg.size());
  EXPECT_FALSE(result.per_node[program.cfg.entry()].empty());
  EXPECT_FALSE(result.per_node[program.cfg.exit()].empty());
}

TEST(EngineTest, IterationLimitReportedUnderHardFail) {
  const auto program = prepare(kListBuild);
  Options options;
  options.max_node_visits = 3;
  options.budget_policy = BudgetPolicy::kHardFail;
  const auto result = analyze_program(program, options);
  EXPECT_EQ(result.status, AnalysisStatus::kIterationLimit);
}

TEST(EngineTest, IterationLimitDegradesToConvergence) {
  const auto program = prepare(kListBuild);
  Options options;
  options.max_node_visits = 3;  // kDegrade is the default
  const auto result = analyze_program(program, options);
  EXPECT_EQ(result.status, AnalysisStatus::kConverged);
  EXPECT_TRUE(result.degraded());
}

TEST(EngineTest, MemoryBudgetReportedUnderHardFail) {
  const auto program = prepare(corpus::find_program("sparse_matvec")->source);
  Options options;
  options.memory_budget_bytes = 64 * 1024;  // far too small
  options.budget_policy = BudgetPolicy::kHardFail;
  const auto result = analyze_program(program, options);
  EXPECT_EQ(result.status, AnalysisStatus::kOutOfMemory);
}

TEST(EngineTest, MemoryBudgetDegradesToConvergence) {
  const auto program = prepare(corpus::find_program("sparse_matvec")->source);
  Options options;
  options.memory_budget_bytes = 64 * 1024;  // far too small
  const auto result = analyze_program(program, options);
  EXPECT_EQ(result.status, AnalysisStatus::kConverged);
  EXPECT_TRUE(result.degraded());
}

TEST(EngineTest, UndegradedRunReportsNothing) {
  const auto program = prepare(kListBuild);
  const auto result = analyze_program(program, {});
  EXPECT_TRUE(result.converged());
  EXPECT_FALSE(result.degraded());
  EXPECT_EQ(result.degradation.summary(), "no degradation");
}

TEST(EngineTest, MemorySnapshotPopulated) {
  const auto program = prepare(kListBuild);
  const auto result = analyze_program(program, {});
  EXPECT_GT(result.peak_bytes(), 0u);
  EXPECT_GT(result.memory.graphs_created, 0u);
  EXPECT_GT(result.memory.nodes_created, 0u);
}

TEST(EngineTest, DeterministicAcrossRuns) {
  const auto program = prepare(kListBuild);
  const auto r1 = analyze_program(program, {});
  const auto r2 = analyze_program(program, {});
  ASSERT_EQ(r1.per_node.size(), r2.per_node.size());
  for (std::size_t i = 0; i < r1.per_node.size(); ++i) {
    EXPECT_TRUE(r1.per_node[i].equals(r2.per_node[i])) << "stmt " << i;
  }
}

TEST(EngineTest, JoinAblationGrowsSets) {
  const auto program = prepare(corpus::find_program("sll")->source);
  Options with_join;
  Options without_join;
  without_join.enable_join = false;
  without_join.widen_threshold = 0;  // measure the raw effect
  with_join.widen_threshold = 0;
  const auto rj = analyze_program(program, with_join);
  const auto rn = analyze_program(program, without_join);
  ASSERT_TRUE(rj.converged());
  ASSERT_TRUE(rn.converged());
  std::size_t joined_total = 0;
  std::size_t unjoined_total = 0;
  for (std::size_t i = 0; i < rj.per_node.size(); ++i) {
    joined_total += rj.per_node[i].size();
    unjoined_total += rn.per_node[i].size();
  }
  EXPECT_LT(joined_total, unjoined_total);
}

TEST(EngineTest, StatusToString) {
  EXPECT_EQ(to_string(AnalysisStatus::kConverged), "converged");
  EXPECT_EQ(to_string(AnalysisStatus::kOutOfMemory), "out of memory budget");
  EXPECT_EQ(to_string(AnalysisStatus::kIterationLimit), "iteration limit");
  EXPECT_EQ(to_string(AnalysisStatus::kSetLimit), "RSRSG size limit");
  EXPECT_EQ(to_string(AnalysisStatus::kDeadline), "deadline expired");
  EXPECT_EQ(to_string(AnalysisStatus::kCancelled), "cancelled");
}

TEST(EngineTest, AllLevelsConvergeOnSmallPrograms) {
  for (const char* name : {"sll", "dll", "list_reverse", "nary_tree"}) {
    const auto program = prepare(corpus::find_program(name)->source);
    for (const auto level :
         {rsg::AnalysisLevel::kL1, rsg::AnalysisLevel::kL2,
          rsg::AnalysisLevel::kL3}) {
      Options options;
      options.level = level;
      const auto result = analyze_program(program, options);
      EXPECT_TRUE(result.converged())
          << name << " at " << rsg::to_string(level);
      EXPECT_FALSE(result.at_exit(program.cfg).empty())
          << name << " at " << rsg::to_string(level);
    }
  }
}

}  // namespace
}  // namespace psa::analysis

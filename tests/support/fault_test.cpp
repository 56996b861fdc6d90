// FaultPlan parsing and matching (the PSA_FAULT_AT test knob). The
// injection side-effects themselves are proven end to end elsewhere: unit
// kinds by cli_integration_test.cpp, where they kill real sandboxed workers;
// durable-op kinds by io_test.cpp; cache and daemon kinds by cache_test.cpp
// and service_e2e_test.cpp.
#include "support/fault.hpp"

#include <gtest/gtest.h>

#include <new>
#include <stdexcept>
#include <string>
#include <vector>

namespace psa::support {
namespace {

TEST(FaultPlanTest, ParsesSingleEntry) {
  const FaultPlan plan = FaultPlan::parse("dll:crash");
  EXPECT_EQ(plan.for_unit("dll"), FaultKind::kCrash);
  EXPECT_EQ(plan.for_unit("sll"), FaultKind::kNone);
}

TEST(FaultPlanTest, ParsesEveryKind) {
  const FaultPlan plan = FaultPlan::parse(
      "a:crash,b:segv,c:hang,d:oom,e:throw,g:cacheflip,h:sockdrop,"
      "i:streamtear,j:evictrace,#1:enospc,#2:eio,#3:shortwrite,"
      "#4:tornrename,#5:crash");
  EXPECT_EQ(plan.for_unit("a"), FaultKind::kCrash);
  EXPECT_EQ(plan.for_unit("b"), FaultKind::kSegv);
  EXPECT_EQ(plan.for_unit("c"), FaultKind::kHang);
  EXPECT_EQ(plan.for_unit("d"), FaultKind::kOom);
  EXPECT_EQ(plan.for_unit("e"), FaultKind::kThrow);
  EXPECT_EQ(plan.for_unit("g"), FaultKind::kCacheFlip);
  EXPECT_EQ(plan.for_unit("h"), FaultKind::kSockDrop);
  EXPECT_EQ(plan.for_unit("i"), FaultKind::kStreamTear);
  EXPECT_EQ(plan.for_unit("j"), FaultKind::kEvictRace);
  EXPECT_EQ(plan.for_op(1, "p"), FaultKind::kEnospc);
  EXPECT_EQ(plan.for_op(2, "p"), FaultKind::kEio);
  EXPECT_EQ(plan.for_op(3, "p"), FaultKind::kShortWrite);
  EXPECT_EQ(plan.for_op(4, "p"), FaultKind::kTornRename);
  EXPECT_EQ(plan.for_op(5, "p"), FaultKind::kCrash);
}

TEST(FaultPlanTest, EveryKindFiresOnlyAtItsOwnSite) {
  for (const FaultKindRow& row : kFaultKinds) {
    SCOPED_TRACE(std::string(row.name));
    const std::string name(row.name);
    if (row.site == FaultSite::kDurableOp) {
      const FaultPlan by_number = FaultPlan::parse("#3:" + name);
      EXPECT_EQ(by_number.for_op(3, "any"), row.kind);
      EXPECT_EQ(by_number.for_op(4, "any"), FaultKind::kNone);  // once
      EXPECT_EQ(by_number.for_unit("#3"), FaultKind::kNone);
      const FaultPlan by_path = FaultPlan::parse("@mark:" + name);
      EXPECT_EQ(by_path.for_op(1, "a/marked"), row.kind);
      EXPECT_EQ(by_path.for_op(2, "b/marked"), row.kind);  // every match
      EXPECT_EQ(by_path.for_op(3, "other"), FaultKind::kNone);
      EXPECT_EQ(by_path.for_unit("@mark"), FaultKind::kNone);
    } else {
      const FaultPlan plan = FaultPlan::parse("u.c:" + name);
      EXPECT_EQ(plan.for_unit("u.c"), row.kind);
      EXPECT_EQ(plan.for_unit("v.c"), FaultKind::kNone);
      EXPECT_EQ(plan.for_op(1, "u.c"), FaultKind::kNone);
    }
  }
}

TEST(FaultPlanTest, DropsSiteMismatchedEntries) {
  // A kind only parses at a target of its own site: an io kind on a unit,
  // or a unit/cache/daemon kind on an op, is as malformed as a typo.
  for (const char* spec :
       {"dll:enospc", "dll:tornrename", "12:eio", "#3:sockdrop", "#1:segv",
        "@x:cacheflip", "@x:evictrace", "#2:hang"}) {
    SCOPED_TRACE(spec);
    EXPECT_TRUE(FaultPlan::parse(spec).empty());
  }
}

TEST(FaultPlanTest, UnitAndOpEntriesFireOnlyAtTheirOwnSite) {
  const FaultPlan plan = FaultPlan::parse("dll:crash,#2:enospc");
  EXPECT_EQ(plan.for_unit("dll"), FaultKind::kCrash);
  EXPECT_EQ(plan.for_op(2, "dll"), FaultKind::kEnospc);
  // The unit entry never matches an op (not even one whose path names the
  // unit), and the op entry never matches a unit.
  EXPECT_EQ(plan.for_op(1, "dll"), FaultKind::kNone);
  EXPECT_EQ(plan.for_unit("#2"), FaultKind::kNone);
  EXPECT_EQ(plan.for_unit("2"), FaultKind::kNone);
}

TEST(FaultPlanTest, ServiceFaultKindsRoundTripTheirNames) {
  // The service-layer faults are honored at dedicated fault points (daemon
  // stream, cache lookup), so inject_fault must treat them as no-ops — a
  // worker that merely PARSES the plan must not die on them.
  EXPECT_EQ(FaultPlan::parse("u:streamtear").for_unit("u"),
            FaultKind::kStreamTear);
  EXPECT_EQ(FaultPlan::parse("u:evictrace").for_unit("u"),
            FaultKind::kEvictRace);
  inject_fault(FaultKind::kStreamTear);
  inject_fault(FaultKind::kEvictRace);
  inject_fault(FaultKind::kEnospc);
  SUCCEED();
}

TEST(FaultPlanTest, IgnoresMalformedEntries) {
  // A typo in a test knob must never arm anything (and never throw).
  const FaultPlan plan =
      FaultPlan::parse("missing-colon,unit:unknown-kind,:crash,ok:oom,");
  EXPECT_EQ(plan.for_unit("missing-colon"), FaultKind::kNone);
  EXPECT_EQ(plan.for_unit("unit"), FaultKind::kNone);
  EXPECT_EQ(plan.for_unit("ok"), FaultKind::kOom);
  // Malformed op targets: no number, zero, trailing junk, empty substring,
  // and an unknown kind on a well-formed number.
  for (const char* spec : {"not-a-spec", "12:unknown-kind", "#:enospc",
                           "#0:enospc", "#1x:eio", "@:eio", "#7:"}) {
    SCOPED_TRACE(spec);
    EXPECT_TRUE(FaultPlan::parse(spec).empty());
  }
}

TEST(FaultPlanTest, EmptySpecIsEmptyPlan) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_EQ(FaultPlan::parse("").for_unit("anything"), FaultKind::kNone);
  EXPECT_EQ(FaultPlan::parse("").for_op(1, "anything"), FaultKind::kNone);
}

TEST(FaultPlanTest, UnitNamesWithColonsUseLastColon) {
  // rfind(':') split: unit names and path substrings may contain colons.
  const FaultPlan plan = FaultPlan::parse("dir:file.c:crash,@a:b:eio");
  EXPECT_EQ(plan.for_unit("dir:file.c"), FaultKind::kCrash);
  EXPECT_EQ(plan.for_op(9, "x/a:b/y"), FaultKind::kEio);
}

TEST(FaultPlanTest, DurableOpKindsAreTheCampaignVocabulary) {
  EXPECT_EQ(fault_kind_names(FaultSite::kDurableOp),
            (std::vector<std::string>{"enospc", "eio", "shortwrite",
                                      "tornrename", "crash"}));
}

TEST(InjectFaultTest, NoneIsANoOp) {
  inject_fault(FaultKind::kNone);  // must return normally
  SUCCEED();
}

TEST(InjectFaultTest, OomThrowsBadAlloc) {
  EXPECT_THROW(inject_fault(FaultKind::kOom), std::bad_alloc);
}

TEST(InjectFaultTest, ThrowThrowsRuntimeError) {
  EXPECT_THROW(inject_fault(FaultKind::kThrow), std::runtime_error);
}

}  // namespace
}  // namespace psa::support

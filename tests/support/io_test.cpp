// The durable-I/O layer (src/support/io): atomic publish and checked append
// semantics, process-global op numbering, PSA_IO_TRACE golden-run recording,
// and the durable-op faults of PSA_FAULT_AT (#<n> and @<substr> targets,
// support/fault.hpp) — every kind's on-disk contract (what lands, what
// never lands, what is left torn for recovery sweeps) is pinned here;
// docs/RESILIENCE.md "The I/O fault space" is the prose version of this
// file.
#include "support/io.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace psa::support::io {
namespace {

namespace fs = std::filesystem;

/// Sets an environment variable for one test and restores emptiness after —
/// a leaked fault plan would poison every later test in the process.
class EnvGuard {
 public:
  EnvGuard(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~EnvGuard() { ::unsetenv(name_); }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::unsetenv("PSA_FAULT_AT");
    ::unsetenv("PSA_IO_TRACE");
    dir_ = (fs::path(::testing::TempDir()) /
            ("psa-io-" + std::string(::testing::UnitTest::GetInstance()
                                         ->current_test_info()
                                         ->name())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    ::unsetenv("PSA_FAULT_AT");
    ::unsetenv("PSA_IO_TRACE");
    fs::remove_all(dir_);
  }

  std::string path(const std::string& name) const {
    return (fs::path(dir_) / name).string();
  }

  std::string dir_;
};

TEST_F(IoTest, AtomicWritePublishesBytesAndRemovesTmp) {
  const auto result =
      atomic_write(path("a.tmp"), path("a.final"), "hello durable world");
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(slurp(path("a.final")), "hello durable world");
  EXPECT_FALSE(fs::exists(path("a.tmp")));
}

TEST_F(IoTest, CheckedAppendAppendsRecordsInOrder) {
  EXPECT_TRUE(checked_append(path("j"), "one\n").ok);
  EXPECT_TRUE(checked_append(path("j"), "two\n").ok);
  EXPECT_EQ(slurp(path("j")), "one\ntwo\n");
}

TEST_F(IoTest, CheckedRenameMoves) {
  EXPECT_TRUE(atomic_write(path("b.tmp"), path("b"), "payload").ok);
  EXPECT_TRUE(checked_rename(path("b"), path("c")).ok);
  EXPECT_FALSE(fs::exists(path("b")));
  EXPECT_EQ(slurp(path("c")), "payload");
}

TEST_F(IoTest, OpNumbersAdvancePerDurableOp) {
  ensure_initialized();
  const std::uint64_t before = ops_issued();
  (void)atomic_write(path("n.tmp"), path("n"), "x");
  (void)checked_append(path("j"), "y\n");
  EXPECT_EQ(ops_issued(), before + 2);
}

TEST_F(IoTest, TraceRecordsEveryOpWithNumberKindAndPath) {
  const std::string trace = path("trace.log");
  {
    EnvGuard guard("PSA_IO_TRACE", trace);
    (void)atomic_write(path("t.tmp"), path("t.final"), "abc");
    (void)checked_append(path("t.journal"), "line\n");
  }
  const std::string recorded = slurp(trace);
  EXPECT_NE(recorded.find("atomic_write"), std::string::npos) << recorded;
  EXPECT_NE(recorded.find("append"), std::string::npos) << recorded;
  EXPECT_NE(recorded.find("t.final"), std::string::npos) << recorded;
  EXPECT_NE(recorded.find("t.journal"), std::string::npos) << recorded;
  EXPECT_NE(recorded.find(" ok"), std::string::npos) << recorded;
  // Every line is "op <number> ...": machine-parseable by the campaign.
  std::istringstream lines(recorded);
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.rfind("op ", 0), 0u) << line;
  }
}

TEST_F(IoTest, NumericFaultFiresExactlyOnce) {
  ensure_initialized();
  const std::uint64_t target = ops_issued() + 1;
  EnvGuard guard("PSA_FAULT_AT", "#" + std::to_string(target) + ":enospc");
  const auto faulted = atomic_write(path("f.tmp"), path("f"), "doomed");
  EXPECT_FALSE(faulted.ok);
  EXPECT_FALSE(fs::exists(path("f")));
  EXPECT_FALSE(fs::exists(path("f.tmp")));  // enospc fails before any byte
  // The selector already passed: the very next op succeeds even though the
  // environment variable is still set.
  const auto clean = atomic_write(path("g.tmp"), path("g"), "fine");
  EXPECT_TRUE(clean.ok) << clean.error;
  EXPECT_EQ(slurp(path("g")), "fine");
}

TEST_F(IoTest, PathFaultFiresOnEveryMatchingOp) {
  EnvGuard guard("PSA_FAULT_AT", "@marked:enospc");
  EXPECT_FALSE(atomic_write(path("m.tmp"), path("marked-1"), "x").ok);
  EXPECT_FALSE(checked_append(path("marked-2"), "y\n").ok);
  EXPECT_TRUE(atomic_write(path("o.tmp"), path("other"), "z").ok);
  EXPECT_FALSE(fs::exists(path("marked-1")));
  EXPECT_FALSE(fs::exists(path("marked-2")));
  EXPECT_EQ(slurp(path("other")), "z");
}

TEST_F(IoTest, ShortWriteLeavesTornTmpNeverThePublishedFile) {
  EnvGuard guard("PSA_FAULT_AT", "@victim:shortwrite");
  const auto result =
      atomic_write(path("victim.tmp"), path("victim"), "0123456789");
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(fs::exists(path("victim")));  // never published
  // The torn tmp is deliberately left behind: recovery sweeps
  // (cache recover(), checkpoint open) must see and clear it.
  ASSERT_TRUE(fs::exists(path("victim.tmp")));
  EXPECT_LT(fs::file_size(path("victim.tmp")), 10u);
}

TEST_F(IoTest, ShortWriteOnAppendLeavesTornRecord) {
  EXPECT_TRUE(checked_append(path("tj"), "whole-line\n").ok);
  {
    EnvGuard guard("PSA_FAULT_AT", "@tj:shortwrite");
    EXPECT_FALSE(checked_append(path("tj"), "torn-line\n").ok);
  }
  const std::string content = slurp(path("tj"));
  EXPECT_NE(content.find("whole-line\n"), std::string::npos);
  EXPECT_EQ(content.find("torn-line\n"), std::string::npos);  // torn, no \n
}

TEST_F(IoTest, EioNeverPublishesAndCleansTmp) {
  EnvGuard guard("PSA_FAULT_AT", "@eiod:eio");
  EXPECT_FALSE(atomic_write(path("eiod.tmp"), path("eiod"), "bytes").ok);
  // fsync "failed": durability unknown, so the tmp is withdrawn and the
  // final path never appears.
  EXPECT_FALSE(fs::exists(path("eiod")));
  EXPECT_FALSE(fs::exists(path("eiod.tmp")));
}

TEST_F(IoTest, TornRenameLeavesDurableTmpUnpublished) {
  EnvGuard guard("PSA_FAULT_AT", "@torn:tornrename");
  EXPECT_FALSE(atomic_write(path("torn.tmp"), path("torn"), "bytes").ok);
  EXPECT_FALSE(fs::exists(path("torn")));
  ASSERT_TRUE(fs::exists(path("torn.tmp")));  // fully written + fsynced
  EXPECT_EQ(slurp(path("torn.tmp")), "bytes");
}

TEST_F(IoTest, MalformedFaultSpecArmsNothing) {
  EnvGuard guard("PSA_FAULT_AT", "not-a-spec");
  EXPECT_TRUE(atomic_write(path("ok.tmp"), path("ok"), "x").ok);
  EnvGuard guard2("PSA_FAULT_AT", "12:unknown-kind");
  EXPECT_TRUE(checked_append(path("ok2"), "y\n").ok);
  EnvGuard guard3("PSA_FAULT_AT", "@ok3:unknown-kind");
  EXPECT_TRUE(atomic_write(path("ok3.tmp"), path("ok3"), "z").ok);
}

using IoDeathTest = IoTest;

TEST_F(IoDeathTest, CrashFaultCompletesTheOpThenDiesWithContractCode) {
  const std::string final_path = path("pub");
  const std::string tmp_path = path("pub.tmp");
  EXPECT_EXIT(
      {
        ::setenv("PSA_FAULT_AT", "@pub:crash", 1);
        (void)atomic_write(tmp_path, final_path, "landed");
        std::_Exit(0);  // unreachable: the op must crash first
      },
      ::testing::ExitedWithCode(kCrashExitCode), "");
  // The child completed the durable publish before dying — that is the
  // "crash immediately after the op" contract the resume invariant needs.
  EXPECT_EQ(slurp(final_path), "landed");
}

}  // namespace
}  // namespace psa::support::io

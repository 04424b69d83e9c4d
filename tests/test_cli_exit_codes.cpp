// Exit-code contract suite for fannet_cli: every code the tool documents
// (docs/cli.md "Exit codes" table) is pinned by actually invoking the built
// binary and asserting the observed status.  Scripts branch on these codes
// (the sweep chunking loop in docs/cli.md does exactly that), so a drifted
// code is an API break — this suite turns it into a red test.
//
// The binary path and the source tree root arrive as compile definitions
// (FANNET_CLI_PATH, FANNET_SOURCE_DIR) wired up in CMakeLists.txt; the
// suite is skipped if the harness was built without them.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

namespace fannet {
namespace {

#if defined(FANNET_CLI_PATH) && defined(FANNET_SOURCE_DIR)

/// Runs the CLI with `args`, stdout/stderr discarded, and returns its exit
/// status (-1 when it died to a signal — always a test failure).
int run_cli(const std::string& args) {
  const std::string command =
      std::string(FANNET_CLI_PATH) + " " + args + " >/dev/null 2>&1";
  const int raw = std::system(command.c_str());
  if (raw == -1 || !WIFEXITED(raw)) return -1;
  return WEXITSTATUS(raw);
}

/// A scratch directory per test for --json-dir / --resume artifacts.
class CliExitCodes : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test *and* per process: ctest -j runs each test in its
    // own process, so a shared path would let two tests clobber each
    // other's scratch state mid-run.
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           ("fannet_cli_exit_codes_" + std::string(info->name()) + "_" +
            std::to_string(static_cast<long>(::getpid())));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string dir() const { return dir_.string(); }

 private:
  std::filesystem::path dir_;
};

TEST_F(CliExitCodes, DocumentedTableCoversExactlyCodesZeroThroughFour) {
  // The docs table is the contract this suite pins; if a code is added or
  // removed there, a case must be added or removed here.
  std::ifstream docs(std::string(FANNET_SOURCE_DIR) + "/docs/cli.md");
  ASSERT_TRUE(docs.is_open()) << "docs/cli.md not readable";
  std::stringstream buffer;
  buffer << docs.rdbuf();
  const std::string text = buffer.str();
  const std::size_t section = text.find("## Exit codes");
  ASSERT_NE(section, std::string::npos);
  const std::string table = text.substr(section, text.find("\n## ", section + 1) - section);
  for (const char* row : {"| `0` |", "| `1` |", "| `2` |", "| `3` |", "| `4` |"}) {
    EXPECT_NE(table.find(row), std::string::npos)
        << "docs/cli.md exit-code table lost the row " << row;
  }
  EXPECT_EQ(table.find("| `5` |"), std::string::npos)
      << "docs/cli.md documents an exit code this suite does not pin";
}

TEST_F(CliExitCodes, ZeroOnSuccess) {
  EXPECT_EQ(run_cli("engines --json-dir " + dir()), 0);
  EXPECT_EQ(run_cli("--help"), 0);
  // A deadline past what the clock can represent never expires.
  EXPECT_EQ(run_cli("tolerance --small --threads 2 --deadline-ms "
                    "18446744073709551615 --json-dir " + dir()),
            0);
}

TEST_F(CliExitCodes, OneOnRuntimeFailure) {
  // The analysis itself succeeds; writing BENCH_*.json "into" a regular
  // file is the runtime failure (ENOTDIR fails for any euid, unlike a
  // nonexistent path, which CI sandboxes may auto-create).
  const std::string blocker = dir() + "/not-a-dir";
  std::ofstream(blocker) << "occupied";
  EXPECT_EQ(run_cli("tolerance --small --threads 2 --json-dir " + blocker),
            1);
}

TEST_F(CliExitCodes, TwoOnUsageError) {
  EXPECT_EQ(run_cli("no-such-command"), 2);
  EXPECT_EQ(run_cli("tolerance --no-such-flag"), 2);
  EXPECT_EQ(run_cli("tolerance --threads"), 2);       // flag without value
  EXPECT_EQ(run_cli("tolerance --threads hello"), 2); // non-numeric value
  EXPECT_EQ(run_cli(""), 2);                          // missing command
  // A sign on an unsigned flag, or a value past the flag's type.
  EXPECT_EQ(run_cli("tolerance --small --threads 2 --deadline-ms -1"), 2);
  EXPECT_EQ(run_cli("tolerance --small --threads 2 --start-range 4294967297"),
            2);
}

TEST_F(CliExitCodes, ThreeWhenSweepShardsStayPending) {
  // One shard per invocation over a multi-shard campaign: the first run
  // must stop with pending work (exit 3); draining the journal to
  // completion must flip to exit 0.
  const std::string journal = dir() + "/sweep.jsonl";
  const std::string base = "sweep --small --threads 2 --analysis tolerance "
                           "--resume " + journal + " --json-dir " + dir();
  EXPECT_EQ(run_cli(base + " --shard-size 1 --max-shards 1"), 3);
  EXPECT_EQ(run_cli(base + " --shard-size 1"), 0);  // no cap: finishes
}

TEST_F(CliExitCodes, FourWhenDeadlineCutsProbes) {
  // A 1 ms deadline against enumerate at the full ±50 start range cuts
  // every probe; the run still completes and reports, then exits 4.
  EXPECT_EQ(run_cli("tolerance --small --threads 2 --engine enumerate "
                    "--start-range 50 --deadline-ms 1 --json-dir " + dir()),
            4);
}

#else

TEST(CliExitCodes, DISABLED_HarnessNotConfigured) {
  GTEST_SKIP() << "FANNET_CLI_PATH / FANNET_SOURCE_DIR not defined";
}

#endif  // FANNET_CLI_PATH && FANNET_SOURCE_DIR

}  // namespace
}  // namespace fannet

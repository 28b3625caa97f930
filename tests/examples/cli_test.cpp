// Tests for the shared example CLI (examples/example_util.h), pinning the
// usage-error contract: an out-dir that cannot be created, a flag value
// that is not a plain decimal number, or a "--" flag the example does not
// know must make require_valid() return 2, so examples exit loudly instead
// of silently writing nothing or doing something else than asked. The
// companion ctest entries (CliOutDirFailure.*, CliBadFlagFailure.*,
// WILL_FAIL) hold each example binary to actually honoring it.

#include "example_util.h"

#include <filesystem>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace scent::examples {
namespace {

/// Owns the argument strings: Cli keeps views into argv.
struct Args {
  std::vector<std::string> strings;
  std::vector<char*> argv;
  explicit Args(std::vector<std::string> args) : strings(std::move(args)) {
    argv.push_back(const_cast<char*>("test"));
    for (std::string& a : strings) argv.push_back(a.data());
  }
  Cli parse(std::initializer_list<std::string_view> own_flags = {}) {
    return Cli::parse(static_cast<int>(argv.size()), argv.data(), own_flags);
  }
};

Cli parse_args(std::vector<std::string> args) {
  return Args{std::move(args)}.parse();
}

TEST(CliExamples, SharedFlagsParse) {
  const Cli cli = parse_args({"--threads=8", "--trace-out=t.json"});
  EXPECT_EQ(cli.threads, 8u);
  EXPECT_EQ(cli.trace_out, "t.json");
  EXPECT_EQ(cli.out_dir, ".");
  EXPECT_TRUE(cli.out_dir_ok);
  EXPECT_TRUE(cli.flags_ok);
  EXPECT_EQ(cli.require_valid(), 0);
}

TEST(CliExamples, NonNumericThreadsFailsLoudly) {
  for (const char* bad : {"--threads=abc", "--threads=", "--threads=4x",
                          "--threads=-1", "--threads=99999999999"}) {
    SCOPED_TRACE(bad);
    const Cli cli = parse_args({bad});
    EXPECT_FALSE(cli.flags_ok);
    EXPECT_EQ(cli.require_valid(), 2);
  }
  // 0 is a number (hardware concurrency), not a usage error.
  EXPECT_EQ(parse_args({"--threads=0"}).require_valid(), 0);
}

TEST(CliExamples, UnknownFlagFailsLoudly) {
  // Every writer emits v2 and no example takes --snapshot-version, so a
  // script asking for v1 must fail rather than silently get v2.
  for (const char* bad : {"--snapshot-version=1", "--snapshot-version=2",
                          "--days=3", "--digest-only", "--threads"}) {
    SCOPED_TRACE(bad);
    const Cli cli = parse_args({bad});
    EXPECT_FALSE(cli.flags_ok);
    EXPECT_EQ(cli.require_valid(), 2);
  }
  // Arguments that are not flags are left alone.
  EXPECT_EQ(parse_args({"positional"}).require_valid(), 0);
}

TEST(CliExamples, OwnFlagsParseStrictly) {
  Args args{{"--days=12", "--kill-after-day=-1", "--digest-only"}};
  Cli cli = args.parse({"--days=", "--kill-after-day=", "--kill-mid-day=",
                        "--digest-only", "--verbose"});
  unsigned days = 6;
  long kill_after_day = 5;
  long kill_mid_day = -1;
  cli.read("--days=", days);
  cli.read("--kill-after-day=", kill_after_day);
  cli.read("--kill-mid-day=", kill_mid_day);
  EXPECT_EQ(days, 12u);
  EXPECT_EQ(kill_after_day, -1);
  EXPECT_EQ(kill_mid_day, -1);  // absent: keeps its default
  EXPECT_TRUE(cli.has("--digest-only"));
  EXPECT_FALSE(cli.has("--verbose"));
  EXPECT_EQ(cli.require_valid(), 0);
}

TEST(CliExamples, NonNumericOwnFlagValueFailsLoudly) {
  // A lenient parse would turn each of these into 0 or a digit prefix: a
  // 0-day campaign, or a kill right after day 0.
  for (const char* bad : {"--days=abc", "--days=", "--days=4x", "--days=-1",
                          "--kill-after-day=two", "--kill-after-day=1.5",
                          "--kill-after-day=99999999999999999999"}) {
    SCOPED_TRACE(bad);
    Args args{{bad}};
    Cli cli = args.parse({"--days=", "--kill-after-day="});
    unsigned days = 6;
    long kill_after_day = -1;
    cli.read("--days=", days);
    cli.read("--kill-after-day=", kill_after_day);
    EXPECT_FALSE(cli.flags_ok);
    EXPECT_EQ(cli.require_valid(), 2);
  }
}

TEST(CliExamples, CreatesMissingOutDir) {
  const std::string dir = std::string{::testing::TempDir()} +
                          "/scent_cli_ok_" +
                          std::to_string(reinterpret_cast<std::uintptr_t>(&dir));
  const Cli cli = parse_args({"--out-dir=" + dir + "/nested"});
  EXPECT_TRUE(cli.out_dir_ok);
  EXPECT_EQ(cli.require_valid(), 0);
  EXPECT_TRUE(std::filesystem::is_directory(dir + "/nested"));
  EXPECT_EQ(cli.path("x.tsv"), dir + "/nested/x.tsv");
  std::filesystem::remove_all(dir);
}

TEST(CliExamples, ExistingOutDirIsAccepted) {
  const Cli cli = parse_args({"--out-dir=" + std::string{::testing::TempDir()}});
  EXPECT_TRUE(cli.out_dir_ok);
  EXPECT_EQ(cli.require_valid(), 0);
}

TEST(CliExamples, UncreatableOutDirFailsLoudly) {
  // /dev/null is a file, so a directory can never be created beneath it.
  const Cli cli = parse_args({"--out-dir=/dev/null/sub"});
  EXPECT_FALSE(cli.out_dir_ok);
  EXPECT_EQ(cli.require_valid(), 2);
}

TEST(CliExamples, EmptyOutDirFallsBackToDot) {
  const Cli cli = parse_args({"--out-dir="});
  EXPECT_EQ(cli.out_dir, ".");
  EXPECT_TRUE(cli.out_dir_ok);
}

}  // namespace
}  // namespace scent::examples

// Negative-path coverage for the mhbc_tool CLI: every malformed
// invocation must exit non-zero with a diagnostic on stderr, never
// succeed silently or crash — and with the documented exit-code class:
// 2 for usage errors, 3 for I/O failures (missing/unwritable/corrupt
// files), 4 for computations that reject loadable input. The binary path
// is injected by CMake as MHBC_TOOL_PATH (the test target depends on the
// mhbc_tool target and is skipped when examples are not built).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#define MHBC_TOOL_TEST_SUPPORTED 1
#else
#define MHBC_TOOL_TEST_SUPPORTED 0
#endif

namespace {

namespace fs = std::filesystem;

struct ToolRun {
  int exit_code = -1;
  std::string stderr_text;
};

// mhbc_tool's documented exit-code classes (examples/mhbc_tool.cpp).
constexpr int kExitUsage = 2;
constexpr int kExitIo = 3;
constexpr int kExitCompute = 4;

class ToolCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
#if !MHBC_TOOL_TEST_SUPPORTED
    GTEST_SKIP() << "subprocess harness requires a POSIX shell";
#endif
    dir_ = fs::temp_directory_path() / "mhbc_tool_cli_test";
    fs::create_directories(dir_);
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string Path(const std::string& leaf) { return (dir_ / leaf).string(); }

  /// Shell-quotes one argument (paths may contain spaces or metachars).
  static std::string Quote(const std::string& arg) {
    std::string quoted = "'";
    for (const char c : arg) {
      if (c == '\'') {
        quoted += "'\\''";
      } else {
        quoted += c;
      }
    }
    quoted += "'";
    return quoted;
  }

  /// Runs the tool with `args`, discarding stdout and capturing stderr.
  /// Call sites must Quote() any path they embed in `args`.
  ToolRun Run(const std::string& args) {
    ToolRun run;
#if MHBC_TOOL_TEST_SUPPORTED
    const std::string err_file = Path("stderr.txt");
    const std::string command = Quote(MHBC_TOOL_PATH) + " " + args +
                                " > /dev/null 2> " + Quote(err_file);
    const int raw = std::system(command.c_str());
    run.exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
    std::ifstream err(err_file);
    std::ostringstream text;
    text << err.rdbuf();
    run.stderr_text = text.str();
#else
    (void)args;
#endif
    return run;
  }

  /// Runs the tool with `args`, capturing stdout (for positive-path
  /// output assertions) and discarding stderr.
  std::string RunStdout(const std::string& args, int* exit_code) {
#if MHBC_TOOL_TEST_SUPPORTED
    const std::string out_file = Path("stdout.txt");
    const std::string command = Quote(MHBC_TOOL_PATH) + " " + args + " > " +
                                Quote(out_file) + " 2> /dev/null";
    const int raw = std::system(command.c_str());
    *exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
    std::ifstream out(out_file);
    std::ostringstream text;
    text << out.rdbuf();
    return text.str();
#else
    (void)args;
    *exit_code = -1;
    return "";
#endif
  }

  /// Writes a small valid edge-list graph and returns its path,
  /// shell-quoted for embedding in Run() args.
  std::string ValidGraph() {
    const std::string path = Path("graph.txt");
    std::ofstream out(path);
    for (int v = 1; v < 12; ++v) out << 0 << " " << v << "\n";
    for (int v = 1; v < 11; ++v) out << v << " " << v + 1 << "\n";
    return Quote(path);
  }

  /// `expected_code` < 0 accepts any non-zero exit; otherwise the exact
  /// documented exit-code class is asserted.
  void ExpectFailure(const std::string& args, const std::string& needle,
                     int expected_code = -1) {
    const ToolRun run = Run(args);
    EXPECT_NE(run.exit_code, 0) << "succeeded: mhbc_tool " << args;
    if (expected_code >= 0) {
      EXPECT_EQ(run.exit_code, expected_code)
          << "wrong exit class for: mhbc_tool " << args
          << "\nstderr: " << run.stderr_text;
    }
    EXPECT_NE(run.stderr_text.find("error:"), std::string::npos)
        << "no diagnostic for: mhbc_tool " << args
        << "\nstderr: " << run.stderr_text;
    if (!needle.empty()) {
      EXPECT_NE(run.stderr_text.find(needle), std::string::npos)
          << "diagnostic for 'mhbc_tool " << args << "' missing '" << needle
          << "': " << run.stderr_text;
    }
  }

  fs::path dir_;
};

TEST_F(ToolCliTest, SanityAValidInvocationSucceeds) {
  const ToolRun run = Run("stats " + ValidGraph());
  EXPECT_EQ(run.exit_code, 0) << run.stderr_text;
}

TEST_F(ToolCliTest, UnknownSubcommandFails) {
  ExpectFailure("frobnicate " + ValidGraph(), "unknown command",
                kExitUsage);
}

TEST_F(ToolCliTest, WrongArityFails) {
  ExpectFailure("exact " + ValidGraph(), "unknown command or wrong arity",
                kExitUsage);
  ExpectFailure("topk " + ValidGraph(), "", kExitUsage);
  ExpectFailure("generate ba 10 " + Quote(Path("out.txt")), "", kExitUsage);
}

TEST_F(ToolCliTest, UnknownFlagAndMalformedThreadsFail) {
  ExpectFailure("--frobnicate stats " + ValidGraph(), "unknown flag",
                kExitUsage);
  ExpectFailure("--threads=abc stats " + ValidGraph(), "--threads",
                kExitUsage);
  ExpectFailure("--graph= stats", "--graph", kExitUsage);
}

TEST_F(ToolCliTest, MalformedSpdThreadsFails) {
  ExpectFailure("--spd-threads=abc stats " + ValidGraph(), "--spd-threads",
                kExitUsage);
  ExpectFailure("--spd-threads= stats " + ValidGraph(), "--spd-threads",
                kExitUsage);
  ExpectFailure("--spd-threads=99999 stats " + ValidGraph(),
                "implausibly large", kExitUsage);
}

TEST_F(ToolCliTest, SpdThreadsFlagIsAcceptedAndReportedInJson) {
  const std::string graph = ValidGraph();
  int exit_code = -1;
  // exact: the kernel/spd_threads fields must reflect the flag.
  const std::string exact = RunStdout(
      "--spd-threads=2 --json exact " + graph + " 0", &exit_code);
  EXPECT_EQ(exit_code, 0) << exact;
  EXPECT_NE(exact.find("\"kernel\": \"hybrid\""), std::string::npos) << exact;
  EXPECT_NE(exact.find("\"spd_threads\": 2"), std::string::npos) << exact;
  // estimate: every report object carries them too.
  const std::string estimate = RunStdout(
      "--spd-threads=4 --json estimate " + graph + " 0,1 mh 200 7",
      &exit_code);
  EXPECT_EQ(estimate.find("\"kernel\": \"hybrid\"") != std::string::npos &&
                estimate.find("\"spd_threads\": 4") != std::string::npos,
            true)
      << estimate;
  EXPECT_EQ(exit_code, 0) << estimate;
  // The default (1, sequential passes) is reported verbatim, and results
  // are identical to the intra-parallel run — same value at any width.
  const std::string plain =
      RunStdout("--json exact " + graph + " 0", &exit_code);
  EXPECT_EQ(exit_code, 0) << plain;
  EXPECT_NE(plain.find("\"spd_threads\": 1"), std::string::npos) << plain;
  const auto value_of = [](const std::string& json) {
    const std::string key = "\"value\": ";
    const std::size_t at = json.find(key);
    return at == std::string::npos ? std::string()
                                   : json.substr(at, json.find(',', at) - at);
  };
  EXPECT_EQ(value_of(plain), value_of(exact));
  EXPECT_FALSE(value_of(plain).empty());
}

TEST_F(ToolCliTest, JsonEstimateReportsScreenedReads) {
  // The tool's default memo holds every source of a small graph, so no
  // read is screened; the field is present with its count.
  int exit_code = -1;
  const std::string estimate = RunStdout(
      "--json estimate " + ValidGraph() + " 0 mh 200 7", &exit_code);
  EXPECT_EQ(exit_code, 0) << estimate;
  EXPECT_NE(estimate.find("\"screened_reads\": 0"), std::string::npos)
      << estimate;
}

TEST_F(ToolCliTest, MissingGraphFileFails) {
  ExpectFailure("stats " + Quote(Path("no-such-graph.txt")), "", kExitIo);
  ExpectFailure(Quote("--graph=" + Path("nope.mhbc")) + " stats", "",
                kExitIo);
}

TEST_F(ToolCliTest, UnknownEstimatorAndBadVerticesFail) {
  const std::string graph = ValidGraph();
  ExpectFailure("estimate " + graph + " 1,2 frobnicator", "unknown estimator",
                kExitUsage);
  ExpectFailure("estimate " + graph + " junk", "no vertex ids", kExitUsage);
  ExpectFailure("estimate " + graph + " 9999 mh 100", "out of range",
                kExitCompute);
  // Numbers parse whole: a trailing typo never truncates to a valid value.
  ExpectFailure("exact " + graph + " abc", "non-negative integer",
                kExitUsage);
  ExpectFailure("exact " + graph + " 5x", "non-negative integer", kExitUsage);
  ExpectFailure("topk " + graph + " 3x", "non-negative integer", kExitUsage);
  ExpectFailure("topk " + graph + " 3 0.1x", "finite number", kExitUsage);
  ExpectFailure("topk " + graph + " 3 0.1 inf", "finite number", kExitUsage);
  const std::string out = Quote(Path("generated.txt"));
  ExpectFailure("generate grid 4x 4 " + out, "non-negative integer",
                kExitUsage);
  ExpectFailure("generate er 20 0.5x 1 " + out, "finite number", kExitUsage);
  ExpectFailure("generate ws 20 4 nan 1 " + out, "finite number", kExitUsage);
  EXPECT_FALSE(fs::exists(Path("generated.txt")));
}

TEST_F(ToolCliTest, EstimatorTheGraphRulesOutIsAUsageError) {
  // The same file ingested as directed: distance and geisberger assume
  // symmetric distances, so asking for them is a usage error (exit 2),
  // while an estimator that supports directed graphs runs.
  const std::string graph = ValidGraph();
  for (const char* kind : {"geisberger", "distance"}) {
    ExpectFailure("--directed estimate " + graph + " 1 " + kind + " 50",
                  "undirected graphs only", kExitUsage);
  }
  EXPECT_EQ(Run("--directed estimate " + graph + " 1 uniform 50").exit_code,
            0);
  int exit_code = -1;
  const std::string table = RunStdout("estimators", &exit_code);
  EXPECT_EQ(exit_code, 0);
  EXPECT_NE(table.find("| directed |"), std::string::npos) << table;
}

TEST_F(ToolCliTest, MutateRejectsMissingAndMalformedEditScripts) {
  const std::string graph = ValidGraph();
  ExpectFailure("mutate " + graph + " " + Quote(Path("no.edits")) + " 1,2",
                "", kExitIo);

  const std::string bad = Path("bad.edits");
  std::ofstream(bad) << "add 0 1\nfrobnicate 2 3\n";
  ExpectFailure("mutate " + graph + " " + Quote(bad) + " 1,2", "unknown op",
                kExitCompute);

  const std::string invalid = Path("invalid.edits");
  std::ofstream(invalid) << "remove 0 11\nremove 0 11\n";  // second: gone
  ExpectFailure("mutate " + graph + " " + Quote(invalid) + " 1,2",
                "no such edge", kExitCompute);
}

TEST_F(ToolCliTest, ConvertOntoUnwritablePathFails) {
  const std::string graph = ValidGraph();
  // A destination inside a directory that does not exist can never be
  // opened for writing, root or not.
  const std::string unwritable =
      Path("missing-subdir") + "/deeper/out.mhbc";
  ExpectFailure("convert " + graph + " " + Quote(unwritable), "", kExitIo);
  const std::string unwritable_mtx =
      Path("missing-subdir") + "/deeper/out.mtx";
  ExpectFailure("convert " + graph + " " + Quote(unwritable_mtx), "",
                kExitIo);
}

TEST_F(ToolCliTest, InspectOnCorruptSnapshotFails) {
  const std::string graph = ValidGraph();
  const std::string snapshot = Path("graph.mhbc");
  ASSERT_EQ(Run("convert " + graph + " " + Quote(snapshot)).exit_code, 0);
  // Corrupt one payload byte (XOR so the byte is guaranteed to change);
  // inspect must exit non-zero on the checksum mismatch.
  std::fstream file(snapshot,
                    std::ios::binary | std::ios::in | std::ios::out);
  file.seekg(100);
  const int byte = file.get();
  file.seekp(100);
  file.put(static_cast<char>(static_cast<unsigned char>(byte) ^ 0xA5u));
  file.close();
  const ToolRun run = Run("inspect " + Quote(snapshot));
  EXPECT_EQ(run.exit_code, kExitIo) << run.stderr_text;
}

}  // namespace

// seo-trace stage-tool CLI tests: the real trace-* binaries (paths baked
// in by CMake) over the smoke and fleet-smoke trace streams.  Pins the
// bytes of every report and of the JSON export, the exit-code contract
// (0 ok, 1 rejected or unreadable stream or failed write, 2 usage error)
// and the passthrough identity the unix-pipe chaining rests on.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/fingerprint.hpp"
#include "sim/sweep.hpp"
#include "sim/trace.hpp"

namespace seo {
namespace {

const char* const kHistogram = SEO_TRACE_HISTOGRAM_TOOL;
const char* const kEnergy = SEO_TRACE_ENERGY_TOOL;
const char* const kAudit = SEO_TRACE_AUDIT_TOOL;
const char* const kExport = SEO_TRACE_EXPORT_TOOL;

std::string path_in_tmp(const std::string& name) {
  return ::testing::TempDir() + "/trace_tools_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string digest_of(const std::string& bytes) {
  FingerprintHasher hasher;
  hasher.mix_bytes(bytes.data(), bytes.size());
  return fingerprint_hex(hasher.digest());
}

/// Writes the stream `sweep --trace-out` would write for `config` to a
/// temp file once per process and returns its path.
std::string trace_file(const std::string& name, const SweepConfig& config) {
  const std::string path = path_in_tmp(name + ".trace");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  OrderedTraceSink sink(out);
  (void)run_sweep(config, &sink);
  sink.finish();
  return path;
}

const std::string& smoke_trace() {
  static const std::string path = trace_file("smoke", smoke_sweep());
  return path;
}

const std::string& fleet_trace() {
  static const std::string path = trace_file("fleet", fleet_smoke_sweep());
  return path;
}

struct ToolRun {
  int status = -1;  ///< exit code, or -1 when the tool did not exit
  std::string out;
  std::string err;
};

/// Runs `tool args` (args are passed to the shell as written), with stdin
/// from `stdin_path` when given, and captures stdout and stderr; stdout
/// goes to `stdout_path` instead when given.
ToolRun run_tool(const std::string& tool, const std::string& args,
                 const std::string& stdin_path = "",
                 const std::string& stdout_path = "") {
  const std::string out =
      stdout_path.empty() ? path_in_tmp("stdout") : stdout_path;
  const std::string err = path_in_tmp("stderr");
  std::string cmd = tool + " " + args;
  if (!stdin_path.empty()) cmd += " < " + stdin_path;
  cmd += " > " + out + " 2> " + err;
  const int status = std::system(cmd.c_str());
  ToolRun run;
  if (WIFEXITED(status)) run.status = WEXITSTATUS(status);
  if (stdout_path.empty()) run.out = slurp(out);
  run.err = slurp(err);
  return run;
}

struct Tool {
  const char* path;
  const char* name;
};

const std::vector<Tool>& stage_tools() {
  static const std::vector<Tool> tools = {
      {kHistogram, "trace-deadline-histogram"},
      {kEnergy, "trace-energy-report"},
      {kAudit, "trace-safety-audit"},
      {kExport, "trace-export"},
  };
  return tools;
}

// Digests recorded from the tools before they moved onto the shared
// stage driver; a change to any report byte or summary line shows here.
TEST(TraceTools, ReportsArePinned) {
  struct Case {
    const char* tool;
    std::string args;
    const char* digest;
    const char* stderr_text;
  };
  const std::string smoke = smoke_trace();
  const std::string fleet = fleet_trace();
  const std::vector<Case> cases = {
      {kHistogram, smoke, "cb491bfbb7c215a2",
       "trace-deadline-histogram: 6357 intervals across 32 episodes\n"},
      {kHistogram, "--unconstrained " + fleet, "c095728504372cc3",
       "trace-deadline-histogram: 3712 intervals across 24 episodes\n"},
      {kEnergy, smoke, "3b28ded5246fd82b", "trace-energy-report: 32 episodes\n"},
      {kEnergy, "--by-vehicle " + fleet, "3ab19531ab680b05",
       "trace-energy-report: 24 episodes\n"},
      {kAudit, smoke, "539b64930bc56360",
       "trace-safety-audit: 32/32 episodes reported\n"},
      {kAudit, "--engaged-only " + smoke, "d0028f228cf68ae2",
       "trace-safety-audit: 24/32 episodes reported\n"},
      {kExport, smoke, "9ab7c2a923190adf", "trace-export: 32 episodes\n"},
      {kExport, "--format json " + smoke, "c5e1803793562212",
       "trace-export: 32 episodes\n"},
      {kExport, "--format json " + fleet, "35dcd656d82f4982",
       "trace-export: 24 episodes\n"},
  };
  for (const Case& c : cases) {
    const ToolRun run = run_tool(c.tool, c.args);
    SCOPED_TRACE(std::string(c.tool) + " " + c.args);
    EXPECT_EQ(run.status, 0) << run.err;
    EXPECT_EQ(digest_of(run.out), c.digest);
    EXPECT_EQ(run.err, c.stderr_text);
  }
}

TEST(TraceTools, ReportGoesToOutputFile) {
  const std::string report = path_in_tmp("report.csv");
  const ToolRun to_file = run_tool(kAudit, smoke_trace() + " -o " + report);
  ASSERT_EQ(to_file.status, 0) << to_file.err;
  EXPECT_TRUE(to_file.out.empty());
  const ToolRun to_stdout = run_tool(kAudit, "-", smoke_trace());
  ASSERT_EQ(to_stdout.status, 0) << to_stdout.err;
  EXPECT_EQ(slurp(report), to_stdout.out);
}

TEST(TraceTools, HelpPrintsUsageAndExitsZero) {
  for (const Tool& tool : stage_tools()) {
    const ToolRun run = run_tool(tool.path, "--help");
    SCOPED_TRACE(tool.name);
    EXPECT_EQ(run.status, 0);
    EXPECT_EQ(run.out.rfind(std::string("usage: ") + tool.name +
                                " [FILE|-] [options]\n",
                            0),
              0u)
        << run.out;
    EXPECT_NE(run.out.find("--passthrough"), std::string::npos);
    EXPECT_TRUE(run.err.empty());
  }
}

TEST(TraceTools, MisuseExitsTwoWithTheUsage) {
  struct Case {
    std::string args;
    std::string message;  ///< first stderr line
  };
  for (const Tool& tool : stage_tools()) {
    std::vector<Case> cases = {
        {"--bogus " + smoke_trace(), "unknown argument: --bogus"},
        {smoke_trace() + " extra", "unknown argument: extra"},
        {smoke_trace() + " -o", "missing value for -o"},
        {"--passthrough " + smoke_trace(),
         std::string(tool.name) +
             ": --passthrough forwards the binary stream on stdout; "
             "route the report with -o PATH"},
    };
    if (std::string(tool.name) == "trace-export") {
      cases.push_back({"--format xml " + smoke_trace(),
                       "trace-export: unknown format 'xml' (csv|json)"});
      cases.push_back({"--format", "missing value for --format"});
    }
    for (const Case& c : cases) {
      const ToolRun run = run_tool(tool.path, c.args);
      SCOPED_TRACE(std::string(tool.name) + " " + c.args);
      EXPECT_EQ(run.status, 2);
      EXPECT_TRUE(run.out.empty());
      EXPECT_EQ(run.err.rfind(c.message + "\nusage: " + tool.name + " ", 0),
                0u)
          << run.err;
    }
  }
}

TEST(TraceTools, DamagedOrMissingInputExitsOne) {
  const std::string truncated = path_in_tmp("truncated.trace");
  {
    const std::string bytes = slurp(smoke_trace());
    std::ofstream out(truncated, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), 4096);
  }
  const std::string missing = path_in_tmp("no_such.trace");
  for (const Tool& tool : stage_tools()) {
    SCOPED_TRACE(tool.name);
    const ToolRun cut = run_tool(tool.path, truncated + " -o /dev/null");
    EXPECT_EQ(cut.status, 1);
    EXPECT_EQ(cut.err.rfind(std::string(tool.name) +
                                ": rejected stream (truncated): ",
                            0),
              0u)
        << cut.err;
    const ToolRun absent = run_tool(tool.path, missing);
    EXPECT_EQ(absent.status, 1);
    EXPECT_EQ(absent.err, std::string(tool.name) + ": cannot open " +
                              missing + " for reading\n");
  }
}

TEST(TraceTools, PassthroughCopiesTheInputByteForByte) {
  const std::string bytes = slurp(smoke_trace());
  for (const Tool& tool : stage_tools()) {
    SCOPED_TRACE(tool.name);
    const ToolRun run =
        run_tool(tool.path, "--passthrough -o /dev/null", smoke_trace());
    EXPECT_EQ(run.status, 0) << run.err;
    EXPECT_TRUE(run.out == bytes);
  }
}

TEST(TraceTools, FailedWriteExitsOne) {
  // /dev/full fails every write, as a full disk does: the report (to -o or
  // to stdout) and the passthrough stream must not pass for written.
  const auto ends_with = [](const std::string& text, const std::string& tail) {
    return text.size() >= tail.size() &&
           text.compare(text.size() - tail.size(), tail.size(), tail) == 0;
  };
  for (const Tool& tool : stage_tools()) {
    SCOPED_TRACE(tool.name);
    const std::string failed = std::string(tool.name) + ": write failed\n";
    const ToolRun to_file =
        run_tool(tool.path, smoke_trace() + " -o /dev/full");
    EXPECT_EQ(to_file.status, 1);
    EXPECT_TRUE(ends_with(to_file.err, failed)) << to_file.err;
    const ToolRun to_stdout =
        run_tool(tool.path, smoke_trace(), "", "/dev/full");
    EXPECT_EQ(to_stdout.status, 1);
    EXPECT_TRUE(ends_with(to_stdout.err, failed)) << to_stdout.err;
    const ToolRun passthrough = run_tool(
        tool.path, "--passthrough -o /dev/null", smoke_trace(), "/dev/full");
    EXPECT_EQ(passthrough.status, 1);
    EXPECT_TRUE(ends_with(passthrough.err, failed)) << passthrough.err;
  }
}

}  // namespace
}  // namespace seo

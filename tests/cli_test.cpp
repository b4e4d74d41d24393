// xroutectl CLI contract: unknown subcommands and missing arguments print
// the usage text and exit 2; help exits 0; documented verdict exit codes
// hold. Runs the real binary (XROUTECTL_PATH, injected by CMake).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "router/broker_options.hpp"

namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;  ///< stdout + stderr, interleaved
};

CliResult run_cli(const std::string& args) {
  // Unique per process AND per call: ctest runs each test in its own
  // process, all sharing TempDir().
  static int invocation = 0;
  std::string capture = ::testing::TempDir() + "xroutectl_cli_" +
                        std::to_string(::getpid()) + "_" +
                        std::to_string(invocation++) + ".txt";
  std::string command =
      std::string(XROUTECTL_PATH) + " " + args + " > " + capture + " 2>&1";
  int raw = std::system(command.c_str());
  CliResult result;
  result.exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  std::ifstream in(capture);
  std::ostringstream os;
  os << in.rdbuf();
  result.output = os.str();
  std::remove(capture.c_str());
  return result;
}

TEST(XroutectlCli, UnknownCommandPrintsUsageAndExitsTwo) {
  CliResult result = run_cli("frobnicate");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("unknown command 'frobnicate'"),
            std::string::npos);
  EXPECT_NE(result.output.find("usage: xroutectl"), std::string::npos);
}

TEST(XroutectlCli, NoCommandPrintsUsageAndExitsTwo) {
  CliResult result = run_cli("");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("usage: xroutectl"), std::string::npos);
}

TEST(XroutectlCli, MissingArgumentsPrintUsageAndExitTwo) {
  for (const char* args : {"parse", "covers '/a'", "match", "serve",
                           "connect 127.0.0.1", "sub 127.0.0.1 1", "pub"}) {
    CliResult result = run_cli(args);
    EXPECT_EQ(result.exit_code, 2) << "args: " << args;
    EXPECT_NE(result.output.find("usage: xroutectl"), std::string::npos)
        << "args: " << args;
  }
}

// Unknown flags (the removed `--tree` included) fail before any socket
// opens, instead of being read as a file name after earlier documents
// were already published.
TEST(XroutectlCli, PubRejectsUnknownFlags) {
  CliResult result = run_cli("pub 127.0.0.1 1 doc.xml --tree");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("pub: unknown flag '--tree'"),
            std::string::npos);
  EXPECT_NE(result.output.find("usage: xroutectl"), std::string::npos);
}

TEST(XroutectlCli, HelpExitsZero) {
  CliResult result = run_cli("help");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("usage: xroutectl"), std::string::npos);
  EXPECT_NE(result.output.find("serve"), std::string::npos);
}

TEST(XroutectlCli, CoversVerdictExitCodes) {
  EXPECT_EQ(run_cli("covers '/a' '/a/b'").exit_code, 0);
  EXPECT_EQ(run_cli("covers '/a/b' '/a'").exit_code, 1);
}

TEST(XroutectlCli, ParseEchoesTheXpe) {
  CliResult result = run_cli("parse '/a/b'");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("/a/b"), std::string::npos);
}

TEST(XroutectlCli, ConnectFailsCleanlyWhenNoBrokerListens) {
  // Port 1 is essentially never bound; one dial, no retry, exit 1.
  CliResult result = run_cli("connect 127.0.0.1 1");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("no broker"), std::string::npos);
}

TEST(XroutectlCli, BadPortIsAUsageError) {
  CliResult result = run_cli("connect 127.0.0.1 notaport");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("bad port"), std::string::npos);
}

/// Writes `text` to a unique temp file and returns its path.
std::string write_temp(const std::string& tag, const std::string& text) {
  std::string path = ::testing::TempDir() + "xroutectl_cli_" + tag + "_" +
                     std::to_string(::getpid()) + ".txt";
  std::ofstream out(path);
  out << text;
  return path;
}

TEST(XroutectlCli, ServeBrokerOptionErrorsAreUsageErrors) {
  std::string overlay = write_temp("overlay", "broker 0 127.0.0.1 45123\n");
  // Bad knob value, invalid value, unknown knobs, malformed --option: all
  // usage errors (exit 2) with the parser's message, before any socket is
  // opened.
  for (const char* args :
       {" 0 --threads zero", " 0 --threads 0", " 0 --option bogus=1",
        " 0 --option no-equals", " 0 --threads 4 --option shards=2"}) {
    CliResult result = run_cli("serve " + overlay + args);
    EXPECT_EQ(result.exit_code, 2) << "args: " << args;
    EXPECT_NE(result.output.find("usage: xroutectl"), std::string::npos)
        << "args: " << args;
  }
  std::remove(overlay.c_str());
}

TEST(XroutectlCli, OverlayOptionLinesAreValidatedAtParse) {
  std::string overlay = write_temp(
      "overlay_bad", "broker 0 127.0.0.1 45123\noption threads many\n");
  CliResult result = run_cli("serve " + overlay + " 0");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("overlay file line 2"), std::string::npos);
  std::remove(overlay.c_str());
}

TEST(XroutectlCli, FaultPlanOptionLinesAreValidated) {
  // A valid option line parses and runs; a bad one is a ParseError.
  std::string good = write_temp(
      "plan_good",
      "topology chain 2\nsubscribers 2\ndocuments 2\noption covering off\n");
  EXPECT_EQ(run_cli("faultsim " + good).exit_code, 0);
  std::string bad =
      write_temp("plan_bad", "topology chain 2\noption threads 4 extra\n");
  CliResult result = run_cli("faultsim " + bad);
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("option"), std::string::npos);
  // Parses fine, but the discrete-event simulator only runs sequential
  // brokers: a clear rejection, not UB or silent fallback.
  std::string threaded =
      write_temp("plan_threaded", "topology chain 2\noption threads 4\n");
  CliResult rejected = run_cli("faultsim " + threaded);
  EXPECT_EQ(rejected.exit_code, 2);
  EXPECT_NE(rejected.output.find("single-threaded"), std::string::npos);
  std::remove(good.c_str());
  std::remove(bad.c_str());
  std::remove(threaded.c_str());
}

// -- The one option parser ---------------------------------------------------

TEST(BrokerOptionParser, ExactErrorTextPerFailureMode) {
  xroute::BrokerOptions options;
  EXPECT_EQ(options.parse_option("covering", "maybe"),
            "option 'covering': expected on/off/true/false/1/0, got 'maybe'");
  EXPECT_EQ(options.parse_option("threads", "zero"),
            "option 'threads': expected a non-negative integer, got 'zero'");
  // Merging needs a path universe no textual surface supplies: its keys
  // are not options.
  EXPECT_EQ(options.parse_option("merge_interval", "3"),
            "unknown broker option 'merge_interval'");
  EXPECT_EQ(options.parse_option("bogus", "1"),
            "unknown broker option 'bogus'");
  EXPECT_EQ(options.parse_option("no-equals"),
            "expected key=value, got 'no-equals'");
  EXPECT_EQ(options.parse_option("merging", "on"),
            "unknown broker option 'merging'");
  EXPECT_FALSE(options.merging_enabled);
  // Successful parses mutate the struct and return empty.
  EXPECT_EQ(options.parse_option("threads=4"), "");
  EXPECT_EQ(options.match_threads, 4u);
}

TEST(XroutectlCli, EverySurfaceEmitsTheSameOptionErrorText) {
  // BrokerOptions::parse_option is the single parser behind `xroutectl
  // --option`, overlay `option` lines and fault-plan `option` lines, so
  // one knob misspelled the same way produces the same message on every
  // surface.
  const std::string expected =
      "option 'threads': expected a non-negative integer, got 'many'";

  std::string overlay = write_temp(
      "surface_overlay", "broker 0 127.0.0.1 45123\noption threads many\n");
  CliResult via_overlay = run_cli("serve " + overlay + " 0");
  EXPECT_EQ(via_overlay.exit_code, 2);
  EXPECT_NE(via_overlay.output.find(expected), std::string::npos)
      << via_overlay.output;
  std::remove(overlay.c_str());

  std::string clean = write_temp("surface_overlay_clean",
                                 "broker 0 127.0.0.1 45123\n");
  CliResult via_flag = run_cli("serve " + clean + " 0 --option threads=many");
  EXPECT_EQ(via_flag.exit_code, 2);
  EXPECT_NE(via_flag.output.find(expected), std::string::npos)
      << via_flag.output;
  std::remove(clean.c_str());

  std::string plan = write_temp("surface_plan",
                                "topology chain 2\noption threads many\n");
  CliResult via_plan = run_cli("faultsim " + plan);
  EXPECT_EQ(via_plan.exit_code, 2);
  EXPECT_NE(via_plan.output.find(expected), std::string::npos)
      << via_plan.output;
  std::remove(plan.c_str());
}

// -- broadcast serve / tune --------------------------------------------------

TEST(XroutectlCli, BroadcastServeThenTuneDeliversByteExactly) {
  std::string prefix = ::testing::TempDir() + "xroutectl_cli_air_" +
                       std::to_string(::getpid());
  CliResult serve = run_cli("broadcast serve --tape " + prefix +
                            " --channels 2 --cycle 8 --docs 60 --seed 5"
                            " --zipf 0.6");
  ASSERT_EQ(serve.exit_code, 0) << serve.output;
  EXPECT_NE(serve.output.find("{\"channel\": 1,"), std::string::npos)
      << serve.output;

  CliResult tune = run_cli("broadcast tune --tape " + prefix + ".ch0 --tape " +
                           prefix + ".ch1 --xpe /a/b --xpe //c");
  EXPECT_EQ(tune.exit_code, 0) << tune.output;
  for (const char* field : {"\"missed\": 0", "\"spurious\": 0",
                            "\"byte_mismatches\": 0", "\"doze_ratio\":"}) {
    EXPECT_NE(tune.output.find(field), std::string::npos)
        << "missing " << field << " in: " << tune.output;
  }
  std::remove((prefix + ".ch0").c_str());
  std::remove((prefix + ".ch1").c_str());
}

TEST(XroutectlCli, BroadcastUsageErrors) {
  for (const char* args : {"broadcast", "broadcast dance",
                           "broadcast tune --xpe /a"}) {
    CliResult result = run_cli(args);
    EXPECT_EQ(result.exit_code, 2) << "args: " << args;
  }
  // A tape path that does not exist is a runtime failure, not usage.
  CliResult missing =
      run_cli("broadcast tune --tape /nonexistent.ch0 --xpe /a");
  EXPECT_NE(missing.exit_code, 0);
}

}  // namespace

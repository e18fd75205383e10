/**
 * @file
 * run_experiment exit codes: --help prints the flags and exits 0;
 * unknown flags and sizes the run cannot honour (too few graphs for
 * the 10-fold split, no epochs, no folds) fail with a clear fatal
 * (exit 1) before training, never an assert abort.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <string>
#include <utility>

namespace {

struct CliResult
{
    int exitCode = -1;
    std::string output;
};

/** Run run_experiment with `flags`, capturing stdout and stderr. */
CliResult
runCli(const std::string &flags)
{
    const std::string cmd =
        std::string(GNNPERF_RUN_EXPERIMENT) + " " + flags + " 2>&1";
    CliResult result;
    FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return result;
    char buf[512];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr)
        result.output += buf;
    const int status = pclose(pipe);
    if (WIFEXITED(status))
        result.exitCode = WEXITSTATUS(status);
    else if (WIFSIGNALED(status))
        result.exitCode = 128 + WTERMSIG(status);
    return result;
}

} // namespace

TEST(Cli, HelpPrintsFlagsAndExitsZero)
{
    const CliResult r = runCli("--help");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    for (const char *flag :
         {"--task", "--model", "--dataset", "--epochs", "--folds",
          "--graphs", "--seeds", "--threads", "--ir", "--allocator",
          "--stats-out", "--events-out", "--roofline-out", "--bench-out",
          "--trace-out", "--verbose", "--version", "--help"})
        EXPECT_NE(r.output.find(std::string(flag) + " "),
                  std::string::npos)
            << flag << "\n" << r.output;
}

TEST(Cli, UnknownFlagsAreFatal)
{
    // Typos of real flags, and a flag that no longer exists: each must
    // stop the run and name the flag, not be ignored or swallow the
    // next argument.
    const std::pair<const char *, const char *> cases[] = {
        {"--thread 4", "--thread"},
        {"--allocater direct", "--allocater"},
        {"--hwprof", "--hwprof"},
    };
    for (const auto &[flags, name] : cases) {
        const CliResult r = runCli(
            std::string("--task graph --model GCN --dataset enzymes "
                        "--graphs 20 --epochs 1 --folds 1 ") +
            flags);
        EXPECT_EQ(r.exitCode, 1) << flags << "\n" << r.output;
        EXPECT_NE(r.output.find(std::string("unknown flag ") + name),
                  std::string::npos)
            << flags << "\n" << r.output;
    }
}

TEST(Cli, SwitchWithValueIsFatal)
{
    const CliResult r = runCli("--verbose=1");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    EXPECT_NE(r.output.find("--verbose takes no value"),
              std::string::npos)
        << r.output;
}

TEST(Cli, TooFewGraphsForTheTenFoldSplitIsFatal)
{
    const CliResult r = runCli("--task graph --graphs 3 --folds 1");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    EXPECT_NE(r.output.find("[fatal]"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("10-fold"), std::string::npos) << r.output;
}

TEST(Cli, ZeroGraphsIsFatal)
{
    const CliResult r = runCli("--task graph --graphs 0 --folds 1");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    EXPECT_NE(r.output.find("--graphs"), std::string::npos) << r.output;
}

TEST(Cli, NonPositiveEpochsIsFatal)
{
    for (const char *flags :
         {"--task graph --graphs 20 --folds 1 --epochs 0",
          "--task graph --graphs 20 --folds 1 --epochs -1",
          "--task node --epochs -1"}) {
        const CliResult r = runCli(flags);
        EXPECT_EQ(r.exitCode, 1) << flags << "\n" << r.output;
        EXPECT_NE(r.output.find("--epochs"), std::string::npos)
            << flags << "\n" << r.output;
    }
}

TEST(Cli, ZeroFoldsIsFatal)
{
    const CliResult r = runCli("--task graph --graphs 20 --folds 0");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    EXPECT_NE(r.output.find("--folds"), std::string::npos) << r.output;
}

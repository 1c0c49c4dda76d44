/**
 * @file
 * Unit tests for the CLI argument parser.
 */

#include <gtest/gtest.h>

#include "util/args.hh"

using namespace tlc;

namespace {

ArgParser
parse(std::initializer_list<const char *> argv)
{
    std::vector<const char *> v(argv);
    return ArgParser(static_cast<int>(v.size()), v.data());
}

} // namespace

TEST(ArgParser, EqualsSyntax)
{
    auto a = parse({"prog", "--refs=1000", "--bench=gcc1"});
    EXPECT_EQ(a.getInt("refs"), 1000);
    EXPECT_EQ(a.getString("bench"), "gcc1");
}

TEST(ArgParser, SpaceSyntax)
{
    auto a = parse({"prog", "--refs", "1000"});
    EXPECT_EQ(a.getInt("refs"), 1000);
}

TEST(ArgParser, BareFlagIsTrue)
{
    auto a = parse({"prog", "--verbose"});
    EXPECT_TRUE(a.getBool("verbose"));
    EXPECT_TRUE(a.has("verbose"));
    EXPECT_FALSE(a.has("quiet"));
}

TEST(ArgParser, Defaults)
{
    auto a = parse({"prog"});
    EXPECT_EQ(a.getInt("refs", 77), 77);
    EXPECT_EQ(a.getString("bench", "li"), "li");
    EXPECT_FALSE(a.getBool("verbose", false));
    EXPECT_TRUE(a.getBool("verbose", true));
    EXPECT_DOUBLE_EQ(a.getDouble("scale", 2.5), 2.5);
}

TEST(ArgParser, Positional)
{
    auto a = parse({"prog", "file1", "--k=v", "file2"});
    ASSERT_EQ(a.positional().size(), 2u);
    EXPECT_EQ(a.positional()[0], "file1");
    EXPECT_EQ(a.positional()[1], "file2");
    EXPECT_EQ(a.programName(), "prog");
}

TEST(ArgParser, BooleanSpellings)
{
    auto a = parse({"prog", "--x=true", "--y=0", "--z=yes"});
    EXPECT_TRUE(a.getBool("x"));
    EXPECT_FALSE(a.getBool("y"));
    EXPECT_TRUE(a.getBool("z"));
}

TEST(ArgParser, KeysListsOptions)
{
    auto a = parse({"prog", "--b=1", "--a=2"});
    auto keys = a.keys();
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys[0], "a"); // map ordering
    EXPECT_EQ(keys[1], "b");
}

TEST(ArgParser, DoubleParsing)
{
    auto a = parse({"prog", "--scale=0.25"});
    EXPECT_DOUBLE_EQ(a.getDouble("scale"), 0.25);
}

TEST(SweepFlags, RequestModeRejectsFlagsItWouldDrop)
{
    // The request document describes the whole run, so a sweep flag
    // request mode never reads is fatal, naming the flag, instead of
    // being silently dropped.
    for (const char *stray :
         {"--isolate=process", "--inject-crash-at=0", "--manifest=m.json",
          "--trace-out=t.json", "--metrics-out=x.json", "--refs=100",
          "--figure=fig05"}) {
        SCOPED_TRACE(stray);
        const std::string flag(stray, std::string(stray).find('='));
        EXPECT_EXIT(cli::sweepFlagsFromArgs(
                        parse({"prog", "--request=r.json", stray}), 1000),
                    ::testing::ExitedWithCode(1),
                    flag + " does not apply with --request");
    }
    const cli::SweepFlags f = cli::sweepFlagsFromArgs(
        parse({"prog", "--request=r.json", "--stats-out=s.json",
               "--result-store=s.tlrs", "--store-fsync", "--progress",
               "--threads=2", "--quiet", "--verbose", "--profile"}),
        1000);
    EXPECT_EQ(f.requestFile, "r.json");
    EXPECT_EQ(f.statsOut, "s.json");
}

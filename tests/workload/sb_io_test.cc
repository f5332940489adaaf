#include "workload/sb_io.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "bounds/superblock_bounds.hh"
#include "eval/pipeline.hh"
#include "temp_dir.hh"
#include "workload/generator.hh"
#include "workload/paper_figures.hh"

namespace balance
{
namespace
{

TEST(SbIo, RoundTripFigure)
{
    Superblock orig = paperFigure2(0.4);
    Superblock copy = parseSuperblock(writeSuperblock(orig));
    ASSERT_EQ(copy.numOps(), orig.numOps());
    ASSERT_EQ(copy.numBranches(), orig.numBranches());
    EXPECT_EQ(copy.name(), orig.name());
    EXPECT_DOUBLE_EQ(copy.execFrequency(), orig.execFrequency());
    for (OpId v = 0; v < orig.numOps(); ++v) {
        EXPECT_EQ(copy.op(v).cls, orig.op(v).cls);
        EXPECT_EQ(copy.op(v).latency, orig.op(v).latency);
        EXPECT_DOUBLE_EQ(copy.op(v).exitProb, orig.op(v).exitProb);
        ASSERT_EQ(copy.succs(v).size(), orig.succs(v).size());
        for (std::size_t e = 0; e < copy.succs(v).size(); ++e) {
            EXPECT_EQ(copy.succs(v)[e].op, orig.succs(v)[e].op);
            EXPECT_EQ(copy.succs(v)[e].latency,
                      orig.succs(v)[e].latency);
        }
    }
}

TEST(SbIo, RoundTripRandomPopulation)
{
    Rng rng(111);
    GeneratorParams params;
    std::vector<Superblock> sbs;
    for (int i = 0; i < 10; ++i) {
        Rng child = rng.fork();
        sbs.push_back(
            generateSuperblock(child, params, "r" + std::to_string(i)));
    }
    std::ostringstream oss;
    writeSuperblocks(oss, sbs);
    std::istringstream iss(oss.str());
    auto copies = readSuperblocks(iss);
    ASSERT_EQ(copies.size(), sbs.size());
    for (std::size_t i = 0; i < sbs.size(); ++i) {
        EXPECT_EQ(copies[i].numOps(), sbs[i].numOps());
        EXPECT_EQ(copies[i].numEdges(), sbs[i].numEdges());
    }
}

TEST(SbIo, RoundTripPreservesBounds)
{
    // Serialization must be semantically lossless: the full bound
    // vector of the parsed copy matches the original on every
    // machine configuration.
    Rng rng(212);
    GeneratorParams params;
    for (int i = 0; i < 5; ++i) {
        Rng child = rng.fork();
        Superblock orig = generateSuperblock(child, params, "rt");
        Superblock copy = parseSuperblock(writeSuperblock(orig));
        GraphContext ctxA(orig);
        GraphContext ctxB(copy);
        for (const MachineModel &m :
             {MachineModel::gp2(), MachineModel::fs6()}) {
            WctBounds a = computeWctBounds(ctxA, m);
            WctBounds b = computeWctBounds(ctxB, m);
            EXPECT_DOUBLE_EQ(a.cp, b.cp);
            EXPECT_DOUBLE_EQ(a.hu, b.hu);
            EXPECT_DOUBLE_EQ(a.rj, b.rj);
            EXPECT_DOUBLE_EQ(a.lc, b.lc);
            EXPECT_DOUBLE_EQ(a.pw, b.pw);
            EXPECT_DOUBLE_EQ(a.tw, b.tw);
        }
    }
}

TEST(SbIo, ParsesHandWrittenText)
{
    const char *text = R"(
# a tiny superblock
superblock hand
freq 2.5
op 0 int 1 a
op 1 mem 2
branch 2 0.3 1 side
branch 3 0.7 1
edge 0 2 1
edge 1 3 2
end
)";
    Superblock sb = parseSuperblock(text);
    EXPECT_EQ(sb.name(), "hand");
    EXPECT_DOUBLE_EQ(sb.execFrequency(), 2.5);
    EXPECT_EQ(sb.numOps(), 4);
    EXPECT_EQ(sb.op(0).name, "a");
    EXPECT_EQ(sb.op(1).latency, 2);
    // The loader reinserted the control edge 2 -> 3.
    bool control = false;
    for (const Adjacent &e : sb.succs(2))
        control = control || e.op == 3;
    EXPECT_TRUE(control);
}

TEST(SbIo, FileRoundTrip)
{
    std::string path = makeTempDir("balance_sb_io_test") + "/file.sb";
    std::vector<Superblock> sbs;
    sbs.push_back(paperFigure1(0.25));
    sbs.push_back(paperFigure6());
    saveSuperblockFile(path, sbs);
    auto loaded = loadSuperblockFile(path);
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded[0].numOps(), sbs[0].numOps());
    EXPECT_EQ(loaded[1].numOps(), sbs[1].numOps());
    std::remove(path.c_str());
}

TEST(SbIo, RejectsOutOfOrderIds)
{
    const char *text = R"(
superblock bad
op 1 int 1
end
)";
    EXPECT_DEATH({ auto s = parseSuperblock(text); (void)s; },
                 "out of order");
}

TEST(SbIo, RejectsUnknownDirective)
{
    EXPECT_DEATH(
        { auto s = parseSuperblock("superblock x\nbogus 1\nend\n");
          (void)s; },
        "unknown directive");
}

TEST(SbIo, RejectsBackwardEdge)
{
    const char *text = R"(
superblock bad
op 0 int 1
branch 1 1.0 1
edge 1 0 1
end
)";
    EXPECT_DEATH({ auto s = parseSuperblock(text); (void)s; },
                 "bad edge");
}

TEST(SbIo, RejectsMissingEnd)
{
    EXPECT_DEATH(
        { auto s = parseSuperblock("superblock x\nop 0 int 1\n");
          (void)s; },
        "missing 'end'");
}

// The checked entry points exist for untrusted input (the service
// layer): every malformed document must come back as false + error,
// never a fatal. Each case here would abort via parseSuperblock.
TEST(SbIo, TryParseReportsErrorsWithoutAborting)
{
    const char *cases[][2] = {
        {"", "expected exactly one superblock, found 0"},
        {"superblock x\nend\n", "no operations"},
        {"superblock x\nop 0 int 1\nend\n", "at least one exit"},
        {"superblock x\nbogus 1\nend\n", "unknown directive"},
        {"superblock x\nop 1 int 1\nend\n", "out of order"},
        {"superblock x\nop 0 int 1\nbranch 1 1.0 1\nedge 1 0 1\nend\n",
         "bad edge"},
        {"superblock x\nop 0 int 1\n", "missing 'end'"},
        {"superblock x\nop 0 int -3\nbranch 1 1.0 1\nend\n",
         "latency"},
        {"superblock x\nop 0 int 1\nbranch 1 1.5 1\nend\n",
         "probability"},
        {"superblock x\nop 0 int 1\nbranch 1 0.8 1\n"
         "branch 2 0.8 1\nend\n",
         "probabilities"},
        {"superblock x\nfreq -1\nop 0 int 1\nbranch 1 1.0 1\nend\n",
         "freq"},
        {"superblock x\nop 0 int notanumber\nbranch 1 1.0 1\nend\n",
         "number"},
    };
    for (const auto &[text, expect] : cases) {
        Superblock sb;
        std::string error;
        EXPECT_FALSE(tryParseSuperblock(text, &sb, &error)) << text;
        EXPECT_NE(error.find(expect), std::string::npos)
            << "input: " << text << "\nerror: " << error;
    }
}

TEST(SbIo, TryParseAcceptsWellFormedAndMatchesFatalPath)
{
    std::string text = writeSuperblock(paperFigure6());
    Superblock sb;
    std::string error;
    ASSERT_TRUE(tryParseSuperblock(text, &sb, &error)) << error;
    EXPECT_EQ(writeSuperblock(sb), text);
    EXPECT_EQ(sb.numOps(), parseSuperblock(text).numOps());
}

TEST(SbIo, TryReadSuperblocksRejectsTrailingSecondBlockInTryParse)
{
    // tryParseSuperblock wants exactly one superblock; the stream
    // reader takes any number.
    std::string two = writeSuperblock(paperFigure6()) +
                      writeSuperblock(paperFigure1(0.25));
    Superblock sb;
    std::string error;
    EXPECT_FALSE(tryParseSuperblock(two, &sb, &error));

    std::istringstream is(two);
    std::vector<Superblock> all;
    ASSERT_TRUE(tryReadSuperblocks(is, all, &error)) << error;
    EXPECT_EQ(all.size(), 2u);
}

} // namespace
} // namespace balance

#include "cfg/superblock_form.hh"

#include <gtest/gtest.h>

#include "bounds/superblock_bounds.hh"
#include "cfg/cfg_gen.hh"
#include "core/balance_scheduler.hh"
#include "eval/pipeline.hh"
#include "graph/analysis.hh"

namespace balance
{
namespace
{

/**
 * Two-block trace region:
 *   b0: r0 = load; r1 = r0 + ...; branch on r1 -> off (p=0.2) / b1
 *   off: uses r1 (so r1 is live at the side exit)
 *   b1: r2 = r1; store r2; exits region
 * Trace = [b0, b1].
 */
CfgProgram
smallRegion()
{
    CfgProgram cfg;
    CfgBlock b0;
    b0.name = "b0";
    CfgInstr load;
    load.cls = OpClass::Memory;
    load.isLoad = true;
    load.latency = Latencies::load;
    load.dest = 0;
    b0.instrs.push_back(load);
    CfgInstr add;
    add.dest = 1;
    add.srcs = {0};
    b0.instrs.push_back(add);
    b0.branchSrcs = {1};
    b0.takenTarget = 2; // the off-trace block
    b0.takenProb = 0.2;
    b0.fallthrough = 1;
    b0.frequency = 100.0;
    cfg.addBlock(b0);

    CfgBlock b1;
    b1.name = "b1";
    CfgInstr mov;
    mov.dest = 2;
    mov.srcs = {1};
    b1.instrs.push_back(mov);
    CfgInstr store;
    store.cls = OpClass::Memory;
    store.isStore = true;
    store.srcs = {2};
    b1.instrs.push_back(store);
    b1.frequency = 80.0;
    cfg.addBlock(b1);

    CfgBlock off;
    off.name = "off";
    CfgInstr use;
    use.dest = 3;
    use.srcs = {1};
    off.instrs.push_back(use);
    off.frequency = 20.0;
    cfg.addBlock(off);
    return cfg;
}

TEST(SuperblockForm, ShapeAndProbabilities)
{
    CfgProgram cfg = smallRegion();
    Liveness live(cfg, DynBitset(std::size_t(cfg.numVRegs())));
    Trace trace;
    trace.blocks = {0, 1};
    Superblock sb = formSuperblock(cfg, trace, live, "t");

    // load, add, side exit, mov, store, final exit.
    EXPECT_EQ(sb.numOps(), 6);
    ASSERT_EQ(sb.numBranches(), 2);
    EXPECT_NEAR(sb.exitProb(sb.branches()[0]), 0.2, 1e-12);
    EXPECT_NEAR(sb.exitProb(sb.branches()[1]), 0.8, 1e-12);
    EXPECT_DOUBLE_EQ(sb.execFrequency(), 100.0);
    sb.validate();
}

TEST(SuperblockForm, DataFlowEdges)
{
    CfgProgram cfg = smallRegion();
    Liveness live(cfg, DynBitset(std::size_t(cfg.numVRegs())));
    Trace trace;
    trace.blocks = {0, 1};
    Superblock sb = formSuperblock(cfg, trace, live, "t");
    GraphContext ctx(sb);

    // load(0) -> add(1) with the 2-cycle load latency.
    bool found = false;
    for (const Adjacent &e : sb.succs(0)) {
        if (e.op == 1) {
            EXPECT_EQ(e.latency, Latencies::load);
            found = true;
        }
    }
    EXPECT_TRUE(found);
    // add feeds the side exit's condition and the mov.
    EXPECT_TRUE(ctx.predSets().isPred(1, 2));
    EXPECT_TRUE(ctx.predSets().isPred(1, 3));
}

TEST(SuperblockForm, LiveOutValueAnchorsToSideExit)
{
    CfgProgram cfg = smallRegion();
    Liveness live(cfg, DynBitset(std::size_t(cfg.numVRegs())));
    Trace trace;
    trace.blocks = {0, 1};
    Superblock sb = formSuperblock(cfg, trace, live, "t");
    GraphContext ctx(sb);
    // r1 (defined by op 1) is used in the off-trace block, so op 1
    // must precede the side exit (op 2).
    EXPECT_TRUE(ctx.predSets().isPred(1, 2));
    // r0 (the load) is NOT live at the side exit: the load's only
    // required anchor is through its consumer.
    bool direct = false;
    for (const Adjacent &e : sb.succs(0))
        direct = direct || e.op == 2;
    EXPECT_FALSE(direct);
}

TEST(SuperblockForm, StoreCannotSpeculateAboveExit)
{
    CfgProgram cfg = smallRegion();
    Liveness live(cfg, DynBitset(std::size_t(cfg.numVRegs())));
    Trace trace;
    trace.blocks = {0, 1};
    Superblock sb = formSuperblock(cfg, trace, live, "t");
    // The store (op 4) has an incoming edge from the side exit
    // (op 2): it may not move above it.
    bool restricted = false;
    for (const Adjacent &e : sb.preds(4))
        restricted = restricted || e.op == 2;
    EXPECT_TRUE(restricted);
}

TEST(SuperblockForm, LoadSpeculationPolicy)
{
    // With load speculation off, a block-1 load gains an edge from
    // the earlier exit.
    CfgProgram cfg = smallRegion();
    // Make the second block's first instr a load instead of a mov.
    cfg.blockMut(1).instrs[0].cls = OpClass::Memory;
    cfg.blockMut(1).instrs[0].isLoad = true;
    cfg.blockMut(1).instrs[0].latency = Latencies::load;
    Liveness live(cfg, DynBitset(std::size_t(cfg.numVRegs())));
    Trace trace;
    trace.blocks = {0, 1};

    FormOptions spec;
    spec.speculateLoads = true;
    Superblock specSb = formSuperblock(cfg, trace, live, "spec", spec);
    FormOptions noSpec;
    noSpec.speculateLoads = false;
    Superblock safeSb =
        formSuperblock(cfg, trace, live, "safe", noSpec);

    auto hasEdge = [](const Superblock &sb, OpId from, OpId to) {
        for (const Adjacent &e : sb.succs(from)) {
            if (e.op == to)
                return true;
        }
        return false;
    };
    EXPECT_FALSE(hasEdge(specSb, 2, 3));
    EXPECT_TRUE(hasEdge(safeSb, 2, 3));
}

TEST(SuperblockForm, RenamingRemovesFalseDependences)
{
    // A block that redefines r1 after a use: without renaming the
    // redefinition waits (anti edge); with renaming it does not.
    CfgProgram cfg;
    CfgBlock b0;
    CfgInstr d1;
    d1.dest = 1;
    b0.instrs.push_back(d1); // op 0: r1 = ...
    CfgInstr use;
    use.dest = 2;
    use.srcs = {1};
    b0.instrs.push_back(use); // op 1: r2 = r1
    CfgInstr redef;
    redef.dest = 1;
    b0.instrs.push_back(redef); // op 2: r1 = ... (fresh value)
    b0.branchSrcs = {2};
    b0.frequency = 10.0;
    cfg.addBlock(b0);

    Liveness live(cfg, DynBitset(std::size_t(cfg.numVRegs())));
    Trace trace;
    trace.blocks = {0};

    auto hasEdge = [](const Superblock &sb, OpId from, OpId to) {
        for (const Adjacent &e : sb.succs(from)) {
            if (e.op == to)
                return true;
        }
        return false;
    };

    FormOptions plain;
    Superblock unrenamed = formSuperblock(cfg, trace, live, "u", plain);
    EXPECT_TRUE(hasEdge(unrenamed, 0, 2)); // output dependence
    EXPECT_TRUE(hasEdge(unrenamed, 1, 2)); // anti dependence

    FormOptions renamed;
    renamed.renameRegisters = true;
    Superblock ssa = formSuperblock(cfg, trace, live, "r", renamed);
    EXPECT_FALSE(hasEdge(ssa, 0, 2));
    EXPECT_FALSE(hasEdge(ssa, 1, 2));
}

TEST(SuperblockForm, RenamingUnlocksSpeculation)
{
    // The block-1 definition clobbers a register live at the side
    // exit: hoisting is restricted without renaming, free with it.
    CfgProgram cfg = smallRegion();
    // Make the mov redefine r1 (live at the side exit).
    cfg.blockMut(1).instrs[0].dest = 1;
    Liveness live(cfg, DynBitset(std::size_t(cfg.numVRegs())));
    Trace trace;
    trace.blocks = {0, 1};

    auto restricted = [](const Superblock &sb, OpId exit, OpId op) {
        for (const Adjacent &e : sb.preds(op)) {
            if (e.op == exit)
                return true;
        }
        return false;
    };

    FormOptions plain;
    Superblock unrenamed =
        formSuperblock(cfg, trace, live, "u", plain);
    EXPECT_TRUE(restricted(unrenamed, 2, 3));

    FormOptions renamed;
    renamed.renameRegisters = true;
    Superblock ssa = formSuperblock(cfg, trace, live, "r", renamed);
    EXPECT_FALSE(restricted(ssa, 2, 3));
}

TEST(SuperblockForm, RenamingNeverHurtsSchedules)
{
    Rng rng(1717);
    BalanceScheduler bal;
    for (int trial = 0; trial < 10; ++trial) {
        Rng child = rng.fork();
        CfgProgram cfg = generateCfg(child);
        Liveness live = Liveness::allLiveOut(cfg);
        FormOptions plain;
        FormOptions renamed;
        renamed.renameRegisters = true;
        for (const Trace &trace : selectTraces(cfg)) {
            Superblock a = formSuperblock(cfg, trace, live, "p", plain);
            Superblock b =
                formSuperblock(cfg, trace, live, "r", renamed);
            MachineModel m = MachineModel::gp2();
            GraphContext ctxA(a);
            GraphContext ctxB(b);
            Schedule sa = bal.run(ctxA, m);
            Schedule sb = bal.run(ctxB, m);
            sa.validate(a, m);
            sb.validate(b, m);
            // Renaming only removes constraints; the renamed graph's
            // bound can only be lower or equal.
            GraphContext cA(a);
            GraphContext cB(b);
            EXPECT_LE(computeWctBounds(cB, m).cp,
                      computeWctBounds(cA, m).cp + 1e-9);
        }
    }
}

TEST(SuperblockForm, RandomRegionsProduceValidSuperblocks)
{
    Rng rng(991);
    for (int trial = 0; trial < 20; ++trial) {
        Rng child = rng.fork();
        CfgProgram cfg = generateCfg(child);
        auto sbs = formSuperblocks(cfg, "r" + std::to_string(trial));
        EXPECT_FALSE(sbs.empty());
        for (const Superblock &sb : sbs) {
            sb.validate();
            double total = 0.0;
            for (OpId b : sb.branches())
                total += sb.exitProb(b);
            EXPECT_NEAR(total, 1.0, 1e-6) << sb.name();
        }
    }
}

} // namespace
} // namespace balance

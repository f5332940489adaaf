/**
 * @file
 * Command-line superblock tool over the .sb interchange format:
 *
 *   sb_tool gen <count> <file.sb> [seed]    generate a population
 *   sb_tool suite <scale> <file.sb> [seed]  export the SPECint95-like
 *                                           suite (scale in (0,1])
 *   sb_tool info <file.sb>                  summarize superblocks
 *   sb_tool bounds <file.sb> <machine>      print all lower bounds
 *   sb_tool sched <file.sb> <machine> <heuristic>
 *                                           schedule and print
 *   sb_tool slack <file.sb> <machine>       per-op EarlyRC/LateRC
 *   sb_tool dot <file.sb> <index>           emit Graphviz DOT
 *
 * Heuristics: SR, CP, G*, DHASY, Help, Balance, Best.
 */

#include <iostream>
#include <string>

#include "bounds/superblock_bounds.hh"
#include "eval/experiment.hh"
#include "graph/dot.hh"
#include "support/table.hh"
#include "workload/generator.hh"
#include "workload/sb_io.hh"

using namespace balance;

namespace
{

int
usage()
{
    std::cerr
        << "usage:\n"
        << "  sb_tool gen <count> <file.sb> [seed]\n"
        << "  sb_tool suite <scale> <file.sb> [seed]\n"
        << "  sb_tool info <file.sb>\n"
        << "  sb_tool bounds <file.sb> <GP1|GP2|GP4|FS4|FS6|FS8>\n"
        << "  sb_tool sched <file.sb> <machine> "
           "<SR|CP|G*|DHASY|Help|Balance|Best>\n"
        << "  sb_tool slack <file.sb> <machine>\n"
        << "  sb_tool dot <file.sb> <index>\n";
    return 1;
}

std::shared_ptr<const Scheduler>
schedulerByName(const std::string &name)
{
    for (const SchedulerEntry &e : schedulerTable()) {
        if (name == e.name)
            return e.scheduler;
    }
    bsFatal("unknown heuristic '", name,
            "' (expected SR, CP, G*, DHASY, Help, Balance, or Best)");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    std::string cmd = argv[1];

    if (cmd == "gen") {
        if (argc < 4)
            return usage();
        int count = std::atoi(argv[2]);
        if (count <= 0)
            bsFatal("count must be positive");
        std::uint64_t seed = argc > 4
            ? std::uint64_t(std::atoll(argv[4]))
            : 12345;
        Rng rng(seed);
        GeneratorParams params;
        std::vector<Superblock> sbs;
        for (int i = 0; i < count; ++i) {
            Rng child = rng.fork();
            sbs.push_back(generateSuperblock(
                child, params, "gen.sb" + std::to_string(i)));
        }
        saveSuperblockFile(argv[3], sbs);
        std::cout << "wrote " << count << " superblocks to " << argv[3]
                  << "\n";
        return 0;
    }

    if (cmd == "suite") {
        if (argc < 4)
            return usage();
        double scale = std::atof(argv[2]);
        if (scale <= 0.0 || scale > 1.0)
            bsFatal("scale must be in (0, 1]");
        SuiteOptions suiteOpts;
        suiteOpts.scale = scale;
        if (argc > 4)
            suiteOpts.seed = std::uint64_t(std::atoll(argv[4]));
        auto suite = buildSuite(suiteOpts);
        std::vector<Superblock> all;
        for (auto &prog : suite) {
            for (auto &sb : prog.superblocks)
                all.push_back(std::move(sb));
        }
        saveSuperblockFile(argv[3], all);
        std::cout << "wrote " << all.size() << " suite superblocks to "
                  << argv[3] << "\n";
        return 0;
    }

    auto sbs = loadSuperblockFile(argv[2]);
    if (cmd == "info") {
        TextTable table;
        table.setHeader({"name", "ops", "edges", "branches", "freq"});
        for (const Superblock &sb : sbs) {
            table.addRow({sb.name(), std::to_string(sb.numOps()),
                          std::to_string(sb.numEdges()),
                          std::to_string(sb.numBranches()),
                          fmtDouble(sb.execFrequency(), 1)});
        }
        std::cout << table.render();
        return 0;
    }

    if (cmd == "bounds") {
        if (argc < 4)
            return usage();
        MachineModel machine = MachineModel::byName(argv[3]);
        TextTable table;
        table.setHeader({"name", "CP", "Hu", "RJ", "LC", "PW", "TW",
                         "tightest"});
        for (const Superblock &sb : sbs) {
            GraphContext ctx(sb);
            WctBounds b = computeWctBounds(ctx, machine);
            table.addRow({sb.name(), fmtDouble(b.cp, 3),
                          fmtDouble(b.hu, 3), fmtDouble(b.rj, 3),
                          fmtDouble(b.lc, 3), fmtDouble(b.pw, 3),
                          fmtDouble(b.tw, 3),
                          fmtDouble(b.tightest(), 3)});
        }
        std::cout << table.render();
        return 0;
    }

    if (cmd == "sched") {
        if (argc < 5)
            return usage();
        MachineModel machine = MachineModel::byName(argv[3]);
        auto sched = schedulerByName(argv[4]);
        for (const Superblock &sb : sbs) {
            GraphContext ctx(sb);
            Schedule s = sched->run(ctx, machine);
            s.validate(sb, machine);
            std::cout << s.render(sb, machine) << "\n";
        }
        return 0;
    }

    if (cmd == "slack") {
        if (argc < 4)
            return usage();
        MachineModel machine = MachineModel::byName(argv[3]);
        for (const Superblock &sb : sbs) {
            GraphContext ctx(sb);
            BoundsToolkit toolkit(ctx, machine);
            std::cout << "superblock " << sb.name() << " on "
                      << machine.name() << "\n";
            TextTable table;
            table.setHeader({"op", "class", "EarlyRC",
                             "LateRC(final)", "slack"});
            int lastExit = sb.numBranches() - 1;
            const auto &lateRC = toolkit.lateRC(lastExit);
            for (OpId v = 0; v < sb.numOps(); ++v) {
                int early = toolkit.earlyRC()[std::size_t(v)];
                int late = lateRC[std::size_t(v)];
                bool bounded = late != lateUnconstrained;
                table.addRow({std::to_string(v),
                              opClassName(sb.op(v).cls),
                              std::to_string(early),
                              bounded ? std::to_string(late) : "-",
                              bounded ? std::to_string(late - early)
                                      : "-"});
            }
            std::cout << table.render() << "\n";
        }
        return 0;
    }

    if (cmd == "dot") {
        if (argc < 4)
            return usage();
        std::size_t index = std::size_t(std::atoll(argv[3]));
        if (index >= sbs.size())
            bsFatal("index out of range: ", index, " of ", sbs.size());
        std::cout << toDot(sbs[index]);
        return 0;
    }
    return usage();
}

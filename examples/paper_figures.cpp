/**
 * @file
 * Walks through the paper's motivating figures (Sections 2-3) on a
 * two-issue machine: prints each fixture, the bounds, and the
 * schedules the relevant heuristics produce, annotated with the
 * claims the figures illustrate.
 *
 * Run: ./build/examples/paper_figures
 */

#include <iostream>

#include "bounds/superblock_bounds.hh"
#include "core/balance_scheduler.hh"
#include "eval/pipeline.hh"
#include "sched/heuristics.hh"
#include "sched/optimal.hh"
#include "support/table.hh"
#include "workload/paper_figures.hh"

using namespace balance;

namespace
{

void
banner(const std::string &title)
{
    std::cout << "\n=== " << title << " ===\n";
}

void
showSchedule(const std::string &label, const Schedule &s,
             const Superblock &sb, const MachineModel &m)
{
    std::cout << label << "\n" << s.render(sb, m);
}

} // namespace

int
main()
{
    MachineModel m = MachineModel::gp2();
    std::cout << "machine: " << m.describe() << "\n";

    {
        banner("Figure 1: CP vs SR on a superblock with slack");
        Superblock sb = paperFigure1(0.2);
        GraphContext ctx(sb);
        std::cout << "final exit: dependence bound 7, resource bound "
                     "ceil(16/2) = 8; the one-cycle gap lets the side "
                     "exit go early for free.\n";
        showSchedule("Critical Path (delays the side exit):",
                     CriticalPathScheduler().run(ctx, m), sb, m);
        showSchedule("Successive Retirement (optimal here):",
                     SuccessiveRetirementScheduler().run(ctx, m), sb, m);
        showSchedule("Balance:", BalanceScheduler().run(ctx, m), sb, m);
    }

    {
        banner("Figure 2: needs beat help counting (Observation 1)");
        Superblock sb = paperFigure2(0.4);
        GraphContext ctx(sb);
        std::cout << "branch 6 needs op 4 in cycle 0 (dependence); "
                     "branch 3 needs one of {0,1,2} per decision once "
                     "slots tighten.\n";
        showSchedule("DHASY:", DhasyScheduler().run(ctx, m), sb, m);
        showSchedule("Balance (optimal (2,3)):",
                     BalanceScheduler().run(ctx, m), sb, m);
    }

    {
        banner("Figure 3: resource-aware late times (Observation 2)");
        Superblock sb = paperFigure3(0.4);
        GraphContext ctx(sb);
        BoundsToolkit toolkit(ctx, m);
        OpId br9 = sb.branches()[1];
        std::cout << "EarlyRC[branch 9] = "
                  << toolkit.earlyRC()[std::size_t(br9)]
                  << "; dependence late of op 4 would be 2, LateRC "
                  << "tightens it to " << toolkit.lateRC(1)[4] << ".\n";
        showSchedule("Balance (op 4 issues by its LateRC window):",
                     BalanceScheduler().run(ctx, m), sb, m);
    }

    {
        banner("Figure 4: probability-dependent tradeoff "
               "(Observation 3)");
        TextTable table;
        table.setHeader({"side P", "pairwise point", "optimal wct",
                         "Balance wct"});
        for (double p : {0.2, 0.4, 0.6, 0.8}) {
            Superblock sb = paperFigure4(p);
            GraphContext ctx(sb);
            BoundsToolkit toolkit(ctx, m);
            const PairPoint &pt = toolkit.pairwise()->pair(0, 1);
            OptimalResult opt = optimalSchedule(ctx, m);
            double bal = BalanceScheduler().run(ctx, m).wct(sb);
            table.addRow({fmtDouble(p, 2),
                          "(" + std::to_string(pt.x) + ", " +
                              std::to_string(pt.y) + ")",
                          fmtDouble(opt.wct, 3), fmtDouble(bal, 3)});
        }
        std::cout << table.render();
        std::cout << "the pairwise bound flips from (3,4) to (2,5) at "
                     "P = 0.5, and Balance follows it.\n";
    }

    {
        banner("Figure 6: the ERC bound");
        Superblock sb = paperFigure6();
        GraphContext ctx(sb);
        WctBounds bounds = computeWctBounds(ctx, m);
        std::cout << "naive resource bound ceil(8/2) = 4; the "
                     "Hu/ERC bound finds 5 (ops {0,2,3,4,5} need five "
                     "slots by cycle 1).\n"
                  << "CP wct " << fmtDouble(bounds.cp, 3) << " vs Hu "
                  << fmtDouble(bounds.hu, 3) << "\n";
    }
    return 0;
}

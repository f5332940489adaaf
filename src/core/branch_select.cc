#include "core/branch_select.hh"

#include <algorithm>
#include <numeric>

#include "support/diagnostics.hh"

namespace balance
{

bool
BranchNeeds::hasNeeds() const
{
    if (!needEach.empty())
        return true;
    for (const auto &group : needOne) {
        if (!group.empty())
            return true;
    }
    return false;
}

void
SelectionResult::candidateOps(std::vector<OpId> &out) const
{
    out.assign(takeEach.begin(), takeEach.end());
    for (const auto &group : takeOne)
        out.insert(out.end(), group.begin(), group.end());
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
}

bool
SelectionResult::unconstrained() const
{
    if (!takeEach.empty())
        return false;
    for (const auto &group : takeOne) {
        if (!group.empty())
            return false;
    }
    return true;
}

namespace
{

/** One pass of Fig. 7 in @p order, its result written to @p result. */
void
runPass(const SchedState &state, std::span<const BranchNeeds> needs,
        const std::vector<int> &order, SelectionScratch &scratch,
        SelectionResult &result)
{
    const MachineModel &machine = state.machine();
    const std::size_t pools = std::size_t(machine.numResources());
    auto poolOf = [&](OpId v) {
        return std::size_t(machine.poolOf(state.sb().op(v).cls));
    };

    result.outcome.assign(needs.size(), BranchOutcome::Ignored);
    result.takeOne.resize(pools);
    for (auto &group : result.takeOne)
        group.clear();

    // TakeEach is the result's own list, with membership flags and
    // per-pool counts on the side (flags are cleared again on exit).
    std::vector<OpId> &takeEach = result.takeEach;
    takeEach.clear();
    std::vector<char> &inTakeEach = scratch.inTakeEach;
    if (inTakeEach.size() < std::size_t(state.sb().numOps()))
        inTakeEach.resize(std::size_t(state.sb().numOps()), 0);
    std::vector<int> &eachPool = scratch.eachPool;
    eachPool.assign(pools, 0);
    // Per pool: the running TakeOne intersection. `active` means the
    // constraint exists and is not yet satisfied by TakeEach.
    std::vector<std::vector<OpId>> &takeOne = scratch.takeOne;
    takeOne.resize(pools);
    for (auto &group : takeOne)
        group.clear();
    std::vector<char> &takeOneActive = scratch.takeOneActive;
    takeOneActive.assign(pools, 0);
    std::vector<std::vector<OpId>> &staged = scratch.staged;
    staged.resize(pools);
    std::vector<char> &stagedSet = scratch.stagedSet;
    stagedSet.assign(pools, 0);
    std::vector<int> &eachCount = scratch.eachCount;
    std::vector<OpId> &added = scratch.added;

    auto satisfiedByTakeEach = [&](const std::vector<OpId> &group) {
        return std::any_of(group.begin(), group.end(), [&](OpId v) {
            return inTakeEach[std::size_t(v)] != 0;
        });
    };
    auto inAdded = [&](OpId v) {
        return std::find(added.begin(), added.end(), v) != added.end();
    };

    for (int idx : order) {
        const BranchNeeds &b = needs[std::size_t(idx)];
        if (!b.hasNeeds()) {
            result.outcome[std::size_t(idx)] = BranchOutcome::Ignored;
            continue;
        }

        // Tentative TakeEach' = TakeEach u NeedEach[b]; all members
        // must be issuable together in the current cycle.
        added.clear();
        bool feasible = true;
        for (OpId v : b.needEach) {
            if (!inTakeEach[std::size_t(v)]) {
                if (!state.isDepReady(v)) {
                    feasible = false;
                    break;
                }
                added.push_back(v);
            }
        }

        // Stage the TakeOne' intersections.
        if (feasible) {
            // Pool counts of TakeEach' (TakeEach plus the additions).
            eachCount.assign(eachPool.begin(), eachPool.end());
            auto inTakeEachPrime = [&](OpId v) {
                return inTakeEach[std::size_t(v)] || inAdded(v);
            };
            for (OpId v : added)
                ++eachCount[poolOf(v)];

            for (std::size_t r = 0; r < pools && feasible; ++r) {
                const std::vector<OpId> &need = b.needOne[r];
                const std::vector<OpId> &existingSet = takeOne[r];
                bool existing = takeOneActive[r];

                // A constraint met by TakeEach' costs nothing more.
                bool needMet =
                    !need.empty() &&
                    std::any_of(need.begin(), need.end(),
                                inTakeEachPrime);
                bool existingMet =
                    existing && satisfiedByTakeEach(existingSet);
                if (!existingMet && existing) {
                    existingMet = std::any_of(existingSet.begin(),
                                              existingSet.end(), inAdded);
                }

                // Only ready operations outside TakeEach' count: the
                // base set (the need, the existing intersection, or
                // both intersected) is filtered straight into the
                // staging slot.
                std::vector<OpId> &usable = staged[r];
                usable.clear();
                auto consider = [&](OpId v) {
                    if (!inTakeEachPrime(v) && state.isDepReady(v))
                        usable.push_back(v);
                };
                bool active = false;
                if (!need.empty() && !needMet) {
                    if (existing && !existingMet) {
                        // Intersection of both constraints.
                        for (OpId v : need) {
                            if (std::find(existingSet.begin(),
                                          existingSet.end(), v) !=
                                existingSet.end())
                                consider(v);
                        }
                    } else {
                        for (OpId v : need)
                            consider(v);
                    }
                    active = true;
                } else if (existing && !existingMet) {
                    for (OpId v : existingSet)
                        consider(v);
                    active = true;
                }

                if (active) {
                    // The pool must have a slot left for one of them
                    // after TakeEach'.
                    if (usable.empty() ||
                        eachCount[r] + 1 > state.freeNow(ResourceId(r))) {
                        feasible = false;
                        break;
                    }
                    stagedSet[r] = 1;
                } else {
                    // Constraint absent or satisfied by TakeEach':
                    // nothing to stage; the commit step clears a
                    // satisfied existing constraint.
                    stagedSet[r] = 0;
                }
            }

            // Pool capacity for TakeEach' itself.
            if (feasible) {
                for (std::size_t r = 0; r < pools; ++r) {
                    if (eachCount[r] > state.freeNow(ResourceId(r))) {
                        feasible = false;
                        break;
                    }
                }
            }
        }

        if (!feasible) {
            result.outcome[std::size_t(idx)] = BranchOutcome::Delayed;
            continue;
        }

        // Commit.
        for (OpId v : added) {
            if (inTakeEach[std::size_t(v)])
                continue;
            inTakeEach[std::size_t(v)] = 1;
            takeEach.push_back(v);
            ++eachPool[poolOf(v)];
        }
        for (std::size_t r = 0; r < pools; ++r) {
            if (stagedSet[r]) {
                takeOne[r].swap(staged[r]);
                takeOneActive[r] = 1;
            } else if (takeOneActive[r] &&
                       satisfiedByTakeEach(takeOne[r])) {
                takeOneActive[r] = 0;
                takeOne[r].clear();
            }
        }
        result.outcome[std::size_t(idx)] = BranchOutcome::Selected;
    }

    for (OpId v : takeEach)
        inTakeEach[std::size_t(v)] = 0;
    for (std::size_t r = 0; r < pools; ++r) {
        if (takeOneActive[r])
            result.takeOne[r].assign(takeOne[r].begin(), takeOne[r].end());
    }

    // Rank before tradeoff revision: selected minus delayed.
    result.rank = 0.0;
    for (std::size_t i = 0; i < needs.size(); ++i) {
        switch (result.outcome[i]) {
          case BranchOutcome::Selected:
          case BranchOutcome::DelayedOk:
            result.rank += needs[i].weight;
            break;
          case BranchOutcome::Delayed:
            result.rank -= needs[i].weight;
            break;
          case BranchOutcome::Ignored:
            break;
        }
    }
}

} // namespace

const SelectionResult &
selectPass(const SchedState &state, std::span<const BranchNeeds> needs,
           const std::vector<int> &order, SelectionScratch &scratch)
{
    runPass(state, needs, order, scratch, scratch.current);
    return scratch.current;
}

namespace
{

/**
 * Revise delayed outcomes to delayedOK where the pairwise bound says
 * the delay is part of the optimal tradeoff, and recompute the rank.
 */
void
applyDelayedOkRevision(const SchedState &state,
                       std::span<const BranchNeeds> needs,
                       const TradeoffInputs &tradeoff,
                       SelectionResult &sel,
                       std::vector<SelectionDebug::Note> *notes = nullptr)
{
    if (!tradeoff.pairwise || !tradeoff.earlyRC || !tradeoff.sb)
        return;
    const Superblock &sb = *tradeoff.sb;
    (void)state;
    if (notes)
        notes->clear();

    for (std::size_t i = 0; i < needs.size(); ++i) {
        if (sel.outcome[i] != BranchOutcome::Delayed)
            continue;
        int bi = needs[i].branchIdx;
        OpId opI = sb.branches()[std::size_t(bi)];
        int eI = (*tradeoff.earlyRC)[std::size_t(opI)];
        for (std::size_t j = 0; j < needs.size(); ++j) {
            if (sel.outcome[j] != BranchOutcome::Selected)
                continue;
            int bj = needs[j].branchIdx;
            const PairPoint &pt = bi < bj
                ? tradeoff.pairwise->pair(bi, bj)
                : tradeoff.pairwise->pair(bj, bi);
            int valI = bi < bj ? pt.x : pt.y;
            // The optimal joint solution already delays i, and the
            // one-cycle slip this decision causes stays within it.
            if (valI > eI && needs[i].dynEarly + 1 <= valI) {
                sel.outcome[i] = BranchOutcome::DelayedOk;
                if (notes) {
                    notes->push_back({bi, bj, valI, eI,
                                      needs[i].dynEarly});
                }
                break;
            }
        }
    }

    sel.rank = 0.0;
    for (std::size_t i = 0; i < needs.size(); ++i) {
        switch (sel.outcome[i]) {
          case BranchOutcome::Selected:
          case BranchOutcome::DelayedOk:
            sel.rank += needs[i].weight;
            break;
          case BranchOutcome::Delayed:
            sel.rank -= needs[i].weight;
            break;
          case BranchOutcome::Ignored:
            break;
        }
    }
}

} // namespace

const SelectionResult &
selectCompatibleBranches(const SchedState &state,
                         std::span<const BranchNeeds> needs,
                         const TradeoffInputs &tradeoff,
                         SelectionScratch &scratch, SchedulerStats *stats,
                         SelectionDebug *debug)
{
    // Initial order: decreasing weight, program order on ties.
    std::vector<int> &order = scratch.order;
    order.resize(needs.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        if (needs[std::size_t(a)].weight != needs[std::size_t(b)].weight)
            return needs[std::size_t(a)].weight >
                   needs[std::size_t(b)].weight;
        return needs[std::size_t(a)].branchIdx <
               needs[std::size_t(b)].branchIdx;
    });

    std::vector<SelectionDebug::Note> *notes =
        debug ? &scratch.passNotes : nullptr;

    SelectionResult &best = scratch.best;
    runPass(state, needs, order, scratch, best);
    applyDelayedOkRevision(state, needs, tradeoff, best, notes);
    if (debug) {
        debug->notes = scratch.passNotes;
        debug->reorders = 0;
    }
    if (stats) {
        ++stats->selectionPasses;
        stats->loopTrips += (long long)(needs.size());
    }

    if (!tradeoff.pairwise || !tradeoff.earlyRC || !tradeoff.sb)
        return best;
    const Superblock &sb = *tradeoff.sb;

    // The latest pass's outcomes drive the next swap; the first
    // round reads the initial selection itself.
    const SelectionResult *latest = &best;
    std::vector<int> &curOrder = scratch.curOrder;
    curOrder.assign(order.begin(), order.end());
    for (int round = 0; round < tradeoff.maxReorders; ++round) {
        // Find a (delayed i, selected j) pair where the pairwise
        // bound prefers delaying j and j precedes i in the order.
        int swapI = -1;
        int swapJ = -1;
        for (std::size_t i = 0;
             i < needs.size() && swapI < 0; ++i) {
            if (latest->outcome[i] != BranchOutcome::Delayed)
                continue;
            for (std::size_t j = 0; j < needs.size(); ++j) {
                if (latest->outcome[j] != BranchOutcome::Selected)
                    continue;
                int bi = needs[i].branchIdx;
                int bj = needs[j].branchIdx;
                OpId opJ = sb.branches()[std::size_t(bj)];
                int eJ = (*tradeoff.earlyRC)[std::size_t(opJ)];
                const PairPoint &pt = bi < bj
                    ? tradeoff.pairwise->pair(bi, bj)
                    : tradeoff.pairwise->pair(bj, bi);
                int valJ = bi < bj ? pt.y : pt.x;
                if (valJ > eJ && needs[j].dynEarly + 1 <= valJ) {
                    auto posI = std::find(curOrder.begin(),
                                          curOrder.end(), int(i));
                    auto posJ = std::find(curOrder.begin(),
                                          curOrder.end(), int(j));
                    if (posJ < posI) {
                        swapI = int(i);
                        swapJ = int(j);
                        break;
                    }
                }
            }
        }
        if (swapI < 0)
            break;

        auto posI = std::find(curOrder.begin(), curOrder.end(), swapI);
        auto posJ = std::find(curOrder.begin(), curOrder.end(), swapJ);
        std::iter_swap(posI, posJ);
        SelectionResult &current = scratch.current;
        runPass(state, needs, curOrder, scratch, current);
        applyDelayedOkRevision(state, needs, tradeoff, current, notes);
        latest = &current;
        if (debug)
            ++debug->reorders;
        if (stats) {
            ++stats->selectionPasses;
            stats->loopTrips += (long long)(needs.size());
        }
        if (current.rank > best.rank) {
            best = current;
            if (debug)
                debug->notes = scratch.passNotes;
        }
    }
    return best;
}

} // namespace balance

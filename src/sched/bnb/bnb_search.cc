#include "sched/bnb/bnb_search.hh"

#include <algorithm>
#include <limits>

#include "sched/bnb/bnb.hh"
#include "support/diagnostics.hh"

namespace balance
{

namespace
{

/** Pools per machine are tiny; fixed local arrays in the odometer. */
constexpr int kMaxBnbPools = 8;
/** Pruning tolerance, matching sched/optimal.cc. */
constexpr double kPruneEps = 1e-12;

/** BnbContext::equivClass of @p sb. */
std::vector<std::int32_t>
equivClasses(const Superblock &sb)
{
    int n = sb.numOps();
    std::vector<std::int32_t> cls(std::size_t(n), -1);

    // Key: operation class plus the exact successor (op, latency)
    // list. Identical keys mean the two operations impose identical
    // constraints on everything downstream and consume the same
    // pool slot, so they are interchangeable wherever both are ready.
    std::vector<std::vector<long long>> keys(static_cast<std::size_t>(n));
    std::vector<OpId> ids;
    for (OpId v = 0; v < n; ++v) {
        if (sb.op(v).isBranch())
            continue;
        std::vector<long long> &key = keys[std::size_t(v)];
        key.push_back((long long)(sb.op(v).cls));
        std::vector<std::pair<int, int>> succ;
        for (const Adjacent &e : sb.succs(v))
            succ.push_back({int(e.op), e.latency});
        std::sort(succ.begin(), succ.end());
        for (const auto &[op, lat] : succ) {
            key.push_back(op);
            key.push_back(lat);
        }
        ids.push_back(v);
    }
    std::sort(ids.begin(), ids.end(), [&](OpId a, OpId b) {
        if (keys[std::size_t(a)] != keys[std::size_t(b)])
            return keys[std::size_t(a)] < keys[std::size_t(b)];
        return a < b;
    });

    std::int32_t next = 0;
    for (std::size_t i = 0; i < ids.size();) {
        std::size_t j = i + 1;
        while (j < ids.size() &&
               keys[std::size_t(ids[j])] == keys[std::size_t(ids[i])])
            ++j;
        if (j - i > 1) {
            for (std::size_t k = i; k < j; ++k)
                cls[std::size_t(ids[k])] = next;
            ++next;
        }
        i = j;
    }
    return cls;
}

} // namespace

BnbScratch &
threadLocalBnbScratch()
{
    thread_local BnbScratch scratch;
    return scratch;
}

BnbContext::BnbContext(const GraphContext &ctx, const MachineModel &machine,
                       std::vector<int> staticEarly)
    : sb(ctx.sb()), machine(machine), staticEarly(std::move(staticEarly)),
      equivClass(equivClasses(sb))
{
    int n = sb.numOps();
    bsAssert(int(this->staticEarly.size()) == n,
             "bnb: static floors sized wrong");
    for (std::int32_t c : equivClass)
        numClasses = std::max(numClasses, c + 1);
    pool.resize(std::size_t(n));
    for (OpId v = 0; v < n; ++v)
        pool[std::size_t(v)] = machine.poolOf(sb.op(v).cls);

    // Which branches' slot counts each op feeds, evaluated once per
    // call: v is in closure(b) when v <= b and v has a height to b.
    closureBegin.reserve(std::size_t(n) + 1);
    for (OpId v = 0; v < n; ++v) {
        closureBegin.push_back(std::int32_t(closureOf.size()));
        for (int bi = 0; bi < sb.numBranches(); ++bi) {
            if (v <= sb.branches()[std::size_t(bi)] &&
                ctx.heightToBranch(bi)[std::size_t(v)] >= 0)
                closureOf.push_back(bi);
        }
    }
    closureBegin.push_back(std::int32_t(closureOf.size()));
}

BnbSubtreeSearch::BnbSubtreeSearch(const BnbContext &context,
                                   ScratchArena &scratch)
    : context(context), sb(context.sb), machine(context.machine),
      numOps(sb.numOps()), numPools(machine.numResources())
{
    bsAssert(numOps > 0 && numOps <= maxBnbOps,
             "bnb: superblock size out of range: ", numOps);
    bsAssert(numPools <= kMaxBnbPools, "bnb: too many pools");

    long long edges = 0;
    for (OpId v = 0; v < numOps; ++v)
        edges += (long long)(sb.succs(v).size());

    std::size_t n = std::size_t(numOps);
    std::size_t maxFrames = n + 2;
    std::size_t maxTake =
        std::size_t(std::min(numOps, machine.totalWidth()));

    issue = scratch.alloc<std::int32_t>(n);
    predsLeft = scratch.alloc<std::int32_t>(n);
    readyAt = scratch.alloc<std::int32_t>(n);
    sweep = scratch.alloc<std::int32_t>(n);
    perPool = scratch.alloc<std::int32_t>(std::size_t(numPools));
    closureLeft = scratch.alloc<std::int32_t>(
        std::size_t(sb.numBranches()) * std::size_t(numPools));
    frames = scratch.alloc<Frame>(maxFrames);
    readyBuf = scratch.alloc<std::int32_t>(maxFrames * n);
    groupBuf =
        scratch.alloc<std::int32_t>(maxFrames * std::size_t(numPools + 1));
    comboBuf = scratch.alloc<std::int32_t>(maxFrames * maxTake);
    chosenBuf = scratch.alloc<std::int32_t>(maxFrames * maxTake);
    undoBuf = scratch.alloc<Undo>(std::size_t(edges) + 2);
    classMark = scratch.alloc<std::int64_t>(
        std::size_t(std::max(context.numClasses, 1)));
    // The arena hands out uninitialized memory; the epoch scheme
    // needs a clean slate once per engine.
    std::fill(classMark.begin(), classMark.end(), std::int64_t(0));
}

void
BnbSubtreeSearch::materialize(const BnbPrefix &prefix)
{
    for (OpId v = 0; v < numOps; ++v)
        issue[std::size_t(v)] = -1;
    for (const auto &[op, cycle] : prefix.assign) {
        bsAssert(issue[std::size_t(op)] < 0, "bnb: duplicate assignment");
        issue[std::size_t(op)] = cycle;
    }
    scheduledCount = int(prefix.assign.size());
    for (OpId v = 0; v < numOps; ++v) {
        int left = 0;
        int at = 0;
        for (const Adjacent &p : sb.preds(v)) {
            if (issue[std::size_t(p.op)] < 0)
                ++left;
            else
                at = std::max(at,
                              issue[std::size_t(p.op)] + p.latency);
        }
        predsLeft[std::size_t(v)] = left;
        readyAt[std::size_t(v)] = at;
    }
    std::fill(closureLeft.begin(), closureLeft.end(), 0);
    for (OpId v = 0; v < numOps; ++v) {
        if (issue[std::size_t(v)] < 0)
            adjustClosureLeft(v, 1);
    }
    readyTop = 0;
    groupTop = 0;
    comboTop = 0;
    chosenTop = 0;
    undoTop = 0;
}

double
BnbSubtreeSearch::replayedWct() const
{
    // Branch order, so the float sum is one fixed sequence no matter
    // which search path originally produced the prefix.
    double w = 0.0;
    for (OpId b : sb.branches()) {
        if (issue[std::size_t(b)] >= 0)
            w += sb.exitProb(b) *
                 (issue[std::size_t(b)] + sb.op(b).latency);
    }
    return w;
}

int
BnbSubtreeSearch::nextDecisionCycle(int cycle) const
{
    int best = std::numeric_limits<int>::max();
    for (OpId v = 0; v < numOps; ++v) {
        if (issue[std::size_t(v)] < 0 &&
            predsLeft[std::size_t(v)] == 0) {
            best = std::min(best,
                            std::max(cycle, readyAt[std::size_t(v)]));
        }
    }
    bsAssert(best != std::numeric_limits<int>::max(),
             "bnb: stalled search with no pending operation");
    return best;
}

bool
BnbSubtreeSearch::pushFrame(int cycle, double wctAtEntry)
{
    bsAssert(std::size_t(depth) < frames.size(),
             "bnb: frame stack overflow");
    Frame &f = frames[std::size_t(depth)];
    f.cycle = cycle;
    f.wctAtEntry = wctAtEntry;
    f.readyBegin = readyTop;
    f.groupBegin = groupTop;

    // Counting sort of the ready set by pool: offsets first, then a
    // second ascending pass so each group stays in id order (the
    // dominance canonicalization relies on that).
    std::int32_t *off = &groupBuf[std::size_t(groupTop)];
    for (int p = 0; p <= numPools; ++p)
        off[p] = 0;
    for (OpId v = 0; v < numOps; ++v) {
        if (issue[std::size_t(v)] < 0 &&
            predsLeft[std::size_t(v)] == 0 &&
            readyAt[std::size_t(v)] <= cycle) {
            ++off[context.pool[std::size_t(v)] + 1];
        }
    }
    off[0] = readyTop;
    for (int p = 0; p < numPools; ++p)
        off[p + 1] += off[p];
    for (int p = 0; p < numPools; ++p)
        perPool[std::size_t(p)] = off[p];
    for (OpId v = 0; v < numOps; ++v) {
        if (issue[std::size_t(v)] < 0 &&
            predsLeft[std::size_t(v)] == 0 &&
            readyAt[std::size_t(v)] <= cycle) {
            int p = context.pool[std::size_t(v)];
            readyBuf[std::size_t(perPool[std::size_t(p)]++)] = v;
        }
    }
    bsAssert(off[numPools] > readyTop,
             "bnb: pushed frame with empty ready set");
    readyTop = off[numPools];
    groupTop += numPools + 1;

    std::int32_t totalTake = 0;
    for (int p = 0; p < numPools; ++p)
        totalTake += std::min(machine.width(p), off[p + 1] - off[p]);
    f.comboBegin = comboTop;
    f.chosenBegin = chosenTop;
    comboTop += totalTake;
    chosenTop += totalTake;
    f.undoBegin = undoTop;
    f.totalTake = totalTake;
    f.applied = 0;
    f.started = 0;
    ++depth;
    return true;
}

void
BnbSubtreeSearch::popFrame(const Frame &f)
{
    bsAssert(!f.applied, "bnb: popping an applied frame");
    readyTop = f.readyBegin;
    groupTop = f.groupBegin;
    comboTop = f.comboBegin;
    chosenTop = f.chosenBegin;
    undoTop = f.undoBegin;
    --depth;
}

bool
BnbSubtreeSearch::nextCombo(Frame &f)
{
    const std::int32_t *off = &groupBuf[std::size_t(f.groupBegin)];
    if (!f.started) {
        f.started = 1;
        std::int32_t at = f.comboBegin;
        for (int p = 0; p < numPools; ++p) {
            int take = std::min(machine.width(p), off[p + 1] - off[p]);
            for (int i = 0; i < take; ++i)
                comboBuf[std::size_t(at + i)] = i;
            at += take;
        }
        return true;
    }

    std::int32_t base[kMaxBnbPools];
    int take[kMaxBnbPools];
    int gsize[kMaxBnbPools];
    std::int32_t at = f.comboBegin;
    for (int p = 0; p < numPools; ++p) {
        gsize[p] = off[p + 1] - off[p];
        take[p] = std::min(machine.width(p), gsize[p]);
        base[p] = at;
        at += take[p];
    }
    for (int p = numPools - 1; p >= 0; --p) {
        std::int32_t *idx = &comboBuf[std::size_t(base[p])];
        int t = take[p];
        int i = t - 1;
        while (i >= 0 && idx[i] == gsize[p] - t + i)
            --i;
        if (i < 0)
            continue; // this pool's combinations are exhausted
        ++idx[i];
        for (int k = i + 1; k < t; ++k)
            idx[k] = idx[k - 1] + 1;
        for (int q = p + 1; q < numPools; ++q) {
            std::int32_t *reset = &comboBuf[std::size_t(base[q])];
            for (int k = 0; k < take[q]; ++k)
                reset[k] = k;
        }
        return true;
    }
    return false;
}

bool
BnbSubtreeSearch::comboDominated(const Frame &f)
{
    ++classEpoch;
    const std::int32_t *off = &groupBuf[std::size_t(f.groupBegin)];
    std::int32_t base = f.comboBegin;
    for (int p = 0; p < numPools; ++p) {
        int g = off[p + 1] - off[p];
        int t = std::min(machine.width(p), g);
        if (t > 0 && t < g) {
            const std::int32_t *idx = &comboBuf[std::size_t(base)];
            int ci = 0;
            for (int pos = 0; pos < g; ++pos) {
                OpId v = readyBuf[std::size_t(off[p] + pos)];
                std::int32_t c = context.equivClass[std::size_t(v)];
                if (ci < t && idx[ci] == pos) {
                    ++ci;
                    // A ready lower-id twin was skipped: swapping it
                    // in yields the same WCT, and that combination
                    // is enumerated anyway.
                    if (c >= 0 &&
                        classMark[std::size_t(c)] == classEpoch)
                        return true;
                } else if (c >= 0) {
                    classMark[std::size_t(c)] = classEpoch;
                }
            }
        }
        base += t;
    }
    return false;
}

double
BnbSubtreeSearch::applyChoice(Frame &f)
{
    bsAssert(!f.applied && undoTop == f.undoBegin,
             "bnb: double apply");
    const std::int32_t *off = &groupBuf[std::size_t(f.groupBegin)];
    std::int32_t comboAt = f.comboBegin;
    std::int32_t chosenAt = f.chosenBegin;
    for (int p = 0; p < numPools; ++p) {
        int take = std::min(machine.width(p), off[p + 1] - off[p]);
        for (int i = 0; i < take; ++i) {
            chosenBuf[std::size_t(chosenAt++)] =
                readyBuf[std::size_t(
                    off[p] + comboBuf[std::size_t(comboAt + i)])];
        }
        comboAt += take;
    }

    double w = f.wctAtEntry;
    int cycle = f.cycle;
    for (std::int32_t i = f.chosenBegin;
         i < f.chosenBegin + f.totalTake; ++i) {
        OpId v = chosenBuf[std::size_t(i)];
        issue[std::size_t(v)] = cycle;
        ++scheduledCount;
        adjustClosureLeft(v, -1);
        const Operation &op = sb.op(v);
        if (op.isBranch())
            w += sb.exitProb(v) * (cycle + op.latency);
        for (const Adjacent &e : sb.succs(v)) {
            --predsLeft[std::size_t(e.op)];
            undoBuf[std::size_t(undoTop++)] = {
                e.op, readyAt[std::size_t(e.op)]};
            readyAt[std::size_t(e.op)] =
                std::max(readyAt[std::size_t(e.op)],
                         cycle + e.latency);
        }
    }
    f.applied = 1;
    return w;
}

void
BnbSubtreeSearch::undoChoice(Frame &f)
{
    // Reverse order: when several applied edges targeted the same
    // successor, the earliest log entry holds the true prior value
    // and must win the restore.
    for (std::int32_t i = undoTop - 1; i >= f.undoBegin; --i)
        readyAt[std::size_t(undoBuf[std::size_t(i)].op)] =
            undoBuf[std::size_t(i)].prevReadyAt;
    undoTop = f.undoBegin;
    for (std::int32_t i = f.chosenBegin + f.totalTake - 1;
         i >= f.chosenBegin; --i) {
        OpId v = chosenBuf[std::size_t(i)];
        issue[std::size_t(v)] = -1;
        --scheduledCount;
        adjustClosureLeft(v, 1);
        for (const Adjacent &e : sb.succs(v))
            ++predsLeft[std::size_t(e.op)];
    }
    f.applied = 0;
}

void
BnbSubtreeSearch::adjustClosureLeft(OpId v, int delta)
{
    std::int32_t r = context.pool[std::size_t(v)];
    for (std::int32_t i = context.closureBegin[std::size_t(v)];
         i < context.closureBegin[std::size_t(v) + 1]; ++i) {
        closureLeft[std::size_t(context.closureOf[std::size_t(i)]) *
                        std::size_t(numPools) +
                    std::size_t(r)] += delta;
    }
}

double
BnbSubtreeSearch::lowerBound(int cycle, double scheduledWct)
{
    // Dependence sweep over unscheduled operations (ids are
    // topological, so predecessors are already final), floored by
    // the static per-op issue bounds (EarlyRC when available).
    for (OpId v = 0; v < numOps; ++v) {
        if (issue[std::size_t(v)] >= 0)
            continue;
        int e = std::max(cycle, readyAt[std::size_t(v)]);
        e = std::max(e, context.staticEarly[std::size_t(v)]);
        for (const Adjacent &p : sb.preds(v)) {
            if (issue[std::size_t(p.op)] < 0)
                e = std::max(e, sweep[std::size_t(p.op)] + p.latency);
        }
        sweep[std::size_t(v)] = e;
    }

    double lb = scheduledWct;
    for (int bi = 0; bi < sb.numBranches(); ++bi) {
        OpId b = sb.branches()[std::size_t(bi)];
        if (issue[std::size_t(b)] >= 0)
            continue;
        lb += sb.exitProb(b) *
              (std::max(sweep[std::size_t(b)], slotFloor(bi, cycle)) +
               sb.op(b).latency);
    }
    return lb;
}

double
BnbSubtreeSearch::floorBound(int cycle, double scheduledWct) const
{
    // lowerBound()'s branch-order sum with each branch's sweep value
    // cut to the floors the sweep starts from, so no term exceeds
    // lowerBound()'s at any cycle >= @p cycle.
    double lb = scheduledWct;
    for (int bi = 0; bi < sb.numBranches(); ++bi) {
        OpId b = sb.branches()[std::size_t(bi)];
        if (issue[std::size_t(b)] >= 0)
            continue;
        int e = std::max(cycle, readyAt[std::size_t(b)]);
        e = std::max(e, context.staticEarly[std::size_t(b)]);
        lb += sb.exitProb(b) *
              (std::max(e, slotFloor(bi, cycle)) + sb.op(b).latency);
    }
    return lb;
}

int
BnbSubtreeSearch::slotFloor(int bi, int cycle) const
{
    // Slot counting per pool over the branch's unscheduled closure,
    // as in sched/optimal.cc, from the counts the search maintains.
    const std::int32_t *left =
        &closureLeft[std::size_t(bi) * std::size_t(numPools)];
    int resLb = cycle;
    for (int r = 0; r < numPools; ++r) {
        int n = left[r];
        if (n == 0)
            continue;
        int width = machine.width(r);
        int extra = n <= width ? 0 : (n - width + width - 1) / width;
        resLb = std::max(resLb, cycle + extra);
    }
    return resLb;
}

BnbSubtreeOutcome
BnbSubtreeSearch::run(const BnbPrefix &prefix, double incumbentWct,
                      long long nodeBudget)
{
    BnbSubtreeOutcome out;
    materialize(prefix);

    bool haveRef = incumbentWct >= 0.0;
    double ref = haveRef ? incumbentWct : 0.0;
    auto offerLeaf = [&](double w) {
        if (haveRef && w >= ref)
            return;
        haveRef = true;
        ref = w;
        out.haveBest = true;
        out.bestWct = w;
        out.bestIssue.assign(issue.begin(), issue.end());
        ++out.stats.incumbentUpdates;
    };

    if (scheduledCount == numOps) {
        offerLeaf(replayedWct());
        out.completed = true;
        return out;
    }

    int dc = nextDecisionCycle(prefix.nextCycle);
    pushFrame(dc, replayedWct());
    bool aborted = false;
    while (depth > 0) {
        Frame &f = frames[std::size_t(depth - 1)];
        if (f.applied)
            undoChoice(f);
        if (!nextCombo(f)) {
            popFrame(f);
            continue;
        }
        if (comboDominated(f)) {
            ++out.stats.prunedDominance;
            continue;
        }
        double w = applyChoice(f);
        ++out.stats.nodes;
        bool leaf = scheduledCount == numOps;
        if (leaf)
            offerLeaf(w);
        if (out.stats.nodes >= nodeBudget) {
            aborted = true;
            break;
        }
        if (leaf)
            continue;
        // The floor first: it prunes most children without the scan
        // and the sweep, and never where lowerBound() would not.
        if (haveRef && floorBound(f.cycle + 1, w) >= ref - kPruneEps) {
            ++out.stats.prunedBound;
            continue;
        }
        int dc2 = nextDecisionCycle(f.cycle + 1);
        if (haveRef && lowerBound(dc2, w) >= ref - kPruneEps) {
            ++out.stats.prunedBound;
            continue;
        }
        pushFrame(dc2, w);
    }
    out.completed = !aborted;
    return out;
}

BnbSubtreeOutcome
BnbSubtreeSearch::splitChildren(const BnbPrefix &prefix,
                                double incumbentWct,
                                long long nodeBudget,
                                std::vector<BnbPrefix> &out)
{
    BnbSubtreeOutcome outcome;
    outcome.completed = true;
    materialize(prefix);

    bool haveRef = incumbentWct >= 0.0;
    double ref = haveRef ? incumbentWct : 0.0;
    auto offerLeaf = [&](double w) {
        if (haveRef && w >= ref)
            return;
        haveRef = true;
        ref = w;
        outcome.haveBest = true;
        outcome.bestWct = w;
        outcome.bestIssue.assign(issue.begin(), issue.end());
        ++outcome.stats.incumbentUpdates;
    };

    if (scheduledCount == numOps) {
        offerLeaf(replayedWct());
        return outcome;
    }

    int dc = nextDecisionCycle(prefix.nextCycle);
    pushFrame(dc, replayedWct());
    Frame &f = frames[0];
    while (true) {
        if (f.applied)
            undoChoice(f);
        if (!nextCombo(f))
            break;
        if (comboDominated(f)) {
            ++outcome.stats.prunedDominance;
            continue;
        }
        double w = applyChoice(f);
        ++outcome.stats.nodes;
        bool leaf = scheduledCount == numOps;
        if (leaf)
            offerLeaf(w);
        if (outcome.stats.nodes >= nodeBudget) {
            // Mid-enumeration cut: the caller discards the emitted
            // children and keeps the whole prefix as abandoned.
            outcome.completed = false;
            break;
        }
        if (leaf)
            continue;
        if (haveRef && floorBound(f.cycle + 1, w) >= ref - kPruneEps) {
            ++outcome.stats.prunedBound;
            continue;
        }
        // A child the floor keeps stores the full bound as its lb.
        int dc2 = nextDecisionCycle(f.cycle + 1);
        double lb = lowerBound(dc2, w);
        if (haveRef && lb >= ref - kPruneEps) {
            ++outcome.stats.prunedBound;
            continue;
        }
        BnbPrefix child;
        child.assign = prefix.assign;
        for (std::int32_t i = f.chosenBegin;
             i < f.chosenBegin + f.totalTake; ++i)
            child.assign.push_back(
                {chosenBuf[std::size_t(i)], f.cycle});
        child.nextCycle = f.cycle + 1;
        child.lb = lb;
        out.push_back(std::move(child));
    }
    if (f.applied)
        undoChoice(f);
    popFrame(f);
    return outcome;
}

} // namespace balance

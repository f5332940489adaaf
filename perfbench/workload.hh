/**
 * @file
 * The workload interface the round loop in main.cc drives, and the
 * quality and layer accounting every workload fills in.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "measure.hh"

namespace perfbench
{

/**
 * Frequency-weighted schedule quality over the units that carry a
 * proven lower bound. Deterministic for a given seed.
 */
struct Quality
{
    double fBalance = 0.0; //!< sum f * WCT(Balance)
    double fBound = 0.0;   //!< sum f * best proven lower bound
    double fBest = 0.0;    //!< sum f * best WCT any method found
    int bounded = 0;       //!< units with a proven bound
    int certified = 0;     //!< ... whose best WCT equals it

    /** Fold one unit in. */
    void add(double f, double balanceWct, double bound, double best);
};

/**
 * What a traced run collects: span self times folded per unit into
 * fastest-of-k per layer, and exact counts that must repeat.
 */
struct TraceSink
{
    SpanLog log;
    /** Per layer name, per unit: fastest self time (ms). */
    std::map<std::string, FastestOf> layers;
    /** Per unit: fastest unit time no layer span covers (ms). */
    FastestOf other;
    /** Exact counts of one round; every round must repeat them. */
    std::map<std::string, long long> counts;

    /**
     * Fold the spans recorded from @p firstSpan on (one round) into
     * the per-unit minima. The self time of a unit's root span
     * ("unit") is its "other" time. A span whose name starts with '-'
     * repeats work the traced path had to redo (see evaluate.cc): it
     * is dropped from every total, its parent's self time included.
     * Set-up spans (unit -1) land in slot @p units.
     */
    void foldRound(std::size_t firstSpan, std::size_t units);
};

/** One benchmark workload (see README.md for why each exists). */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Generate, render and parse the inputs (timed as set-up). */
    virtual void setUp(SpanLog *log) = 0;

    /** Release per-round resources (untimed). */
    virtual void tearDown() {}

    /** @return the number of units in one round. */
    virtual std::size_t units() const = 0;

    /** @return the superblocks unit @p u schedules (1, or a batch). */
    virtual int superblocksIn(std::size_t u) const { (void)u; return 1; }

    /**
     * Run every unit once, recording one untraced sample per unit
     * into @p times; when @p trace is set, also produce one traced
     * sample per unit (spans carrying that unit's id).
     */
    virtual void runRound(int round, FastestOf &times,
                          TraceSink *trace) = 0;

    /**
     * Checks made once, outside the timed rounds (the bitwise
     * comparison with the frozen reference engine).
     */
    virtual void finalChecks() = 0;

    /** Derive layers that only per-unit minima define (traced runs). */
    virtual void
    finishTrace(const FastestOf &times, TraceSink &trace)
    {
        (void)times;
        (void)trace;
    }

    /** Units attempted / failed over all rounds and final checks. */
    long long attempted = 0;
    long long failed = 0;
    /** First failure, for the report. */
    std::string firstFailure;
    Quality quality;

  protected:
    /** Count one attempted unit; a non-empty @p failure fails it. */
    void tally(const std::string &failure);
};

/** @return the workload named @p name, or null. */
std::unique_ptr<Workload> makeEvalWorkload(const std::string &name,
                                           std::uint64_t seed);
std::unique_ptr<Workload> makeServiceWorkload(std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH

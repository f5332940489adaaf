/**
 * @file
 * Timing primitives shared by every workload: per-unit fastest-of-k
 * sample stores, the latency summaries, the span log of traced runs,
 * the host calibration probe and peak RSS.
 *
 * A unit is one entry-point call on one input. A run is k rounds and
 * every round runs every unit once, so each unit collects k samples
 * spread over the whole run; its time is the fastest of them. The
 * host this runs on swings between a fast and a ~35% slower state
 * for anywhere from 0.1 s to minutes, so a single sample (or one
 * contiguous block of them) takes on whatever state the host was in.
 */

#ifndef PERFBENCH_MEASURE_HH
#define PERFBENCH_MEASURE_HH

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "support/stats.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** @return milliseconds elapsed between @p t0 and @p t1. */
inline double
msBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/** Fastest sample per unit over the rounds of one run. */
class FastestOf
{
  public:
    explicit FastestOf(std::size_t units = 0);

    /** Record one sample (milliseconds) of unit @p unit. */
    void add(std::size_t unit, double ms);

    /** @return the number of units. */
    std::size_t size() const { return best.size(); }

    /** @return the fastest sample of @p unit (0 when none). */
    double at(std::size_t unit) const;

    /** @return the sum over units of their fastest samples. */
    double sum() const;

    /** @return every unit's fastest sample, for percentile queries. */
    balance::SampleStat samples() const;

  private:
    std::vector<double> best;
};

/**
 * The highest percentile that still has at least ten values beyond
 * it, from a fixed ladder (99.9, 99.5, 99, 98, 95, 90, 75, 50).
 */
struct TailStat
{
    double value = 0.0;
    double percentile = 50.0;
    int beyond = 0;
};

/** @return the tail statistic of @p s (nearest-rank percentiles). */
TailStat tailPercentile(const balance::SampleStat &s);

/**
 * In-memory span log of a traced run. A span records its name, start,
 * end, parent and unit id; nothing is written until the run ends.
 * Self time is a span's duration minus that of its direct children.
 */
class SpanLog
{
  public:
    /** Open a span under the innermost open one; @return its id. */
    int open(const char *name, int unit);

    /** Close span @p id (must be the innermost open span). */
    void close(int id);

    /**
     * Self time per span name, in milliseconds, summed per unit over
     * the spans recorded from index @p first on. Slot @p units
     * collects spans recorded with unit -1 (set-up).
     */
    std::vector<std::map<std::string, double>>
    selfByUnit(std::size_t first, std::size_t units) const;

    /** @return the number of spans recorded so far. */
    std::size_t size() const { return spans.size(); }

  private:
    struct Span
    {
        const char *name;
        Clock::time_point start;
        Clock::time_point end;
        int parent;
        int unit;
    };
    std::vector<Span> spans;
    std::vector<int> openStack;
};

/** RAII span; a null log makes it a no-op. */
class Scoped
{
  public:
    Scoped(SpanLog *log, const char *name, int unit)
        : log(log), id(log ? log->open(name, unit) : -1)
    {}
    ~Scoped()
    {
        if (log)
            log->close(id);
    }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    SpanLog *log;
    int id;
};

/**
 * Time a fixed integer calibration kernel (2.3-2.7 ms on a 4-core
 * 2.1 GHz Xeon VM). A host diagnostic only: it never scales another
 * metric.
 */
double hostProbeMs();

/** @return this process's peak resident set size in MiB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HH

#include "measure.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "support/diagnostics.hh"

namespace perfbench
{

FastestOf::FastestOf(std::size_t units)
    : best(units, std::numeric_limits<double>::infinity())
{}

void
FastestOf::add(std::size_t unit, double ms)
{
    best[unit] = std::min(best[unit], ms);
}

double
FastestOf::at(std::size_t unit) const
{
    return std::isfinite(best[unit]) ? best[unit] : 0.0;
}

double
FastestOf::sum() const
{
    double s = 0.0;
    for (std::size_t u = 0; u < best.size(); ++u)
        s += at(u);
    return s;
}

balance::SampleStat
FastestOf::samples() const
{
    balance::SampleStat s;
    for (std::size_t u = 0; u < best.size(); ++u)
        s.add(at(u));
    return s;
}

TailStat
tailPercentile(const balance::SampleStat &s)
{
    TailStat t;
    const double n = double(s.count());
    if (n == 0)
        return t;
    for (double p : {99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0}) {
        // The rank SampleStat::percentile() reads: ceil(p/100 * n).
        double rank = std::max(1.0, std::ceil(p / 100.0 * n));
        if (n - rank >= 10) {
            t.value = s.percentile(p);
            t.percentile = p;
            t.beyond = int(n - rank);
            return t;
        }
    }
    // Too few units for any percentile to have ten beyond it: the
    // slowest unit.
    t.value = s.max();
    t.percentile = 100.0;
    return t;
}

int
SpanLog::open(const char *name, int unit)
{
    int parent = openStack.empty() ? -1 : openStack.back();
    spans.push_back({name, Clock::now(), {}, parent, unit});
    int id = int(spans.size()) - 1;
    openStack.push_back(id);
    return id;
}

void
SpanLog::close(int id)
{
    bsAssert(!openStack.empty() && openStack.back() == id,
             "span closed out of order");
    spans[std::size_t(id)].end = Clock::now();
    openStack.pop_back();
}

std::vector<std::map<std::string, double>>
SpanLog::selfByUnit(std::size_t first, std::size_t units) const
{
    bsAssert(openStack.empty(), "folding a span log with open spans");
    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = first; i < spans.size(); ++i) {
        double d = msBetween(spans[i].start, spans[i].end);
        self[i] += d;
        if (spans[i].parent >= int(first))
            self[std::size_t(spans[i].parent)] -= d;
    }
    std::vector<std::map<std::string, double>> out(units + 1);
    for (std::size_t i = first; i < spans.size(); ++i) {
        int u = spans[i].unit;
        bsAssert(u >= -1 && u < int(units), "span unit out of range");
        out[u < 0 ? units : std::size_t(u)][spans[i].name] += self[i];
    }
    return out;
}

double
hostProbeMs()
{
    // xorshift over a 16 KiB table: integer ALU plus L1 loads, no
    // allocation, fixed work.
    static std::uint32_t table[4096];
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    auto t0 = Clock::now();
    for (int i = 0; i < 1 << 20; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        table[x & 4095] += std::uint32_t(x >> 32);
    }
    auto t1 = Clock::now();
    asm volatile("" : : "r"(x) : "memory"); // keeps the loop alive
    return msBetween(t0, t1);
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

} // namespace perfbench

#include "workload.hh"

#include <algorithm>
#include <cmath>

namespace perfbench
{

void
Quality::add(double f, double balanceWct, double bound, double best)
{
    fBalance += f * balanceWct;
    fBound += f * bound;
    fBest += f * best;
    ++bounded;
    if (std::fabs(best - bound) <= 1e-9 * std::max(1.0, bound))
        ++certified;
}

void
TraceSink::foldRound(std::size_t firstSpan, std::size_t units)
{
    std::vector<std::map<std::string, double>> self =
        log.selfByUnit(firstSpan, units);
    if (other.size() != units + 1)
        other = FastestOf(units + 1);
    for (std::size_t u = 0; u <= units; ++u) {
        for (const auto &[name, ms] : self[u]) {
            if (name.empty() || name[0] == '-')
                continue;
            if (name == "unit") {
                other.add(u, ms);
                continue;
            }
            auto it = layers.find(name);
            if (it == layers.end())
                it = layers.emplace(name, FastestOf(units + 1)).first;
            it->second.add(u, ms);
        }
    }
}

void
Workload::tally(const std::string &failure)
{
    ++attempted;
    if (failure.empty())
        return;
    ++failed;
    if (firstFailure.empty())
        firstFailure = failure;
}

} // namespace perfbench

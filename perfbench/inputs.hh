/**
 * @file
 * Input generation for the four workloads.
 *
 * Each workload has a fixed population of superblock *shapes*, drawn
 * from the program's generator with fixed master seeds. The workload
 * seed makes the inputs from them: it renames every superblock,
 * renumbers the operations of every basic block in a seeded
 * topological order (so op ids, and every tie the schedulers and the
 * certifier break by id, change), and shuffles the order the units
 * run in. The result is sent through the program's .sb text format,
 * so the program sees only parsed inputs. A fresh draw of graphs per
 * seed is not used: the cost of these algorithms is so concentrated
 * in a few superblocks (TW: a handful of 9-12-branch blocks; B&B:
 * whichever instances exhaust their budget) that with fresh graphs
 * sb_per_s moved by 48-77% (IQR / median) over five seeds.
 *
 * Generating the shapes, relabelling, rendering and parsing, once per
 * round, is what `setup_s` times.
 */

#ifndef PERFBENCH_INPUTS_HH
#define PERFBENCH_INPUTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "graph/superblock.hh"
#include "machine/machine_model.hh"

namespace perfbench
{

/** One (superblock, machine) evaluation. */
struct UnitRef
{
    int sb = 0;      //!< index into the workload's superblocks
    int machine = 0; //!< index into the workload's machines
};

/** Superblocks of one workload plus the units over them. */
struct EvalInputs
{
    std::vector<balance::Superblock> superblocks;
    std::vector<balance::MachineModel> machines;
    std::vector<UnitRef> units;
};

/** Mix the workload seed into a per-purpose 64-bit seed. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t purpose);

/**
 * `suite`: the paper tables' synthetic SPECint95 suite (default suite
 * seed) at suiteScale, every superblock on all six paper machines.
 */
EvalInputs suiteShapes();

/**
 * `large`: four paper-maximum superblocks (the generator's giant
 * shape at 40, 93, 146 and 200 blocks, 150-607 ops) on GP2 and FS8.
 */
EvalInputs largeShapes();

/** `certify`: bnb_perf's 50-100-op population on GP2 and FS4. */
EvalInputs certifyShapes();

/** Node budget of every `certify` search. */
constexpr long long certifyNodeBudget = 50000;

/** Scale of the `suite` workload's SPECint95 suite. */
constexpr double suiteScale = 0.05;

/** Superblocks of the `service` workload. */
struct ServiceShapes
{
    /** Light requests: small suite-shaped superblocks. */
    std::vector<balance::Superblock> light;
    /** Heavy requests: 6-12 branches, so TW runs on every one. */
    std::vector<balance::Superblock> heavy;
};

/** `service`: the request superblocks. */
ServiceShapes serviceShapes();

/**
 * The seed's variant of @p sbs as .sb text (writeSuperblock()): each
 * one rebuilt as "<name>@<seed>" with its ops renumbered in a seeded
 * topological order within each basic block.
 */
std::vector<std::string> relabel(const std::vector<balance::Superblock> &sbs,
                                 std::uint64_t seed);

/** Parse the output of relabel(). */
std::vector<balance::Superblock>
parseAll(const std::vector<std::string> &texts);

/** Shuffle the order of @p in's units by @p seed. */
void shuffleUnits(EvalInputs &in, std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_HH

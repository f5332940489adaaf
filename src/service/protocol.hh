/**
 * @file
 * Request/response schema for the scheduling service (docs/SERVICE.md).
 *
 * A request is a JSON object:
 *
 *   {
 *     "superblock": "<.sb text>",        // required (workload/sb_io.hh)
 *     "machine":    "gp4",               // optional, default "gp4"
 *     "scheduler":  "balance",           // optional: balance | cp | sr |
 *                                        //   gstar | dhasy | help | best
 *     "bounds":     true,                // optional: emit the bound ladder
 *     "certify":    false,               // optional: run the B&B certifier
 *     "bnb_max_nodes": 200000            // optional node cap for certify
 *   }
 *
 * or a batch { "requests": [ <object>, ... ] }. A response mirrors the
 * shape: a single result object, or { "results": [ ... ] }. Parsing is
 * fully checked — malformed JSON, unknown machines, bad .sb text, and
 * out-of-range options all produce an error string, never an abort,
 * because request bodies are untrusted input.
 *
 * Responses carry no request-identity or cache-state fields: identical
 * requests must produce bitwise-identical bodies whether served from
 * the GraphContext cache or scheduled fresh, and regardless of the
 * worker pool size (the repo-wide determinism contract). Cache state
 * travels in the X-Balance-Cache response header instead.
 */

#ifndef BALANCE_SERVICE_PROTOCOL_HH
#define BALANCE_SERVICE_PROTOCOL_HH

#include <string>
#include <vector>

#include "bounds/superblock_bounds.hh"
#include "graph/superblock.hh"
#include "machine/machine_model.hh"
#include "support/json.hh"

namespace balance
{

/** One parsed scheduling request. */
struct ServiceRequest
{
    Superblock sb;                  ///< parsed superblock
    std::string machine = "GP4";    ///< canonical display name
    std::string scheduler = "balance";
    bool bounds = true;             ///< include the bound ladder
    bool certify = false;           ///< run the B&B certifier
    long long bnbMaxNodes = 200000; ///< certifier node budget
};

/** A parsed request body: one or many requests. */
struct ServiceRequestSet
{
    std::vector<ServiceRequest> requests;
    bool batch = false; ///< body used the {"requests": [...]} form
};

/** One scheduling result (engine output, serialized by
 *  renderServiceResponse). */
struct ServiceResult
{
    std::string name;      ///< superblock name
    std::string machine;   ///< canonical machine name
    std::string scheduler; ///< scheduler key that ran
    double wct = 0.0;      ///< weighted completion time of the schedule
    int makespan = 0;      ///< last issue cycle + latency
    std::vector<int> issue; ///< issue cycle per op, program order

    bool haveBounds = false;
    WctBounds bounds;        ///< six-bound ladder
    double tightest = 0.0;   ///< max of the ladder

    bool haveBnb = false;
    double bnbWct = 0.0;       ///< certified incumbent WCT
    double bnbLowerBound = 0.0; ///< certified lower bound
    bool bnbProven = false;    ///< incumbent proven optimal
    bool bnbExhausted = false; ///< node budget exhausted
    long long bnbNodes = 0;    ///< nodes expanded

    bool cacheHit = false; ///< served from the GraphContext cache
                           ///< (header-only; never serialized)
};

/**
 * Largest cycle span a request may carry: the op count plus, per op,
 * the longest latency it imposes (its own or an outgoing edge's). A
 * serial schedule in program order fits in that many cycles, so
 * every EarlyRC, relaxation placement and schedule cycle lies within
 * a small multiple of it, and so does every cycle-indexed table one
 * request can make the engine allocate (a RelaxTable per Triplewise
 * lane among them). Machine latencies keep even 4096 ops far below.
 */
constexpr long long maxCycleSpan = 1 << 16;

/** Parse limits for one request body. */
struct ProtocolLimits
{
    /** Max requests per batch body. */
    std::size_t maxBatch = 64;
    /** Max ops per superblock accepted over the wire. */
    int maxOps = 4096;
    /** Hard cap applied to bnb_max_nodes. */
    long long bnbNodeCap = 1 << 22;
};

/**
 * Checked MachineModel lookup (machine/machine_model.hh names,
 * case-insensitive). Unlike MachineModel::byName this cannot
 * terminate the process on unknown names.
 * @return true and fills @p out (when non-null) on success.
 */
bool machineByNameChecked(const std::string &name, MachineModel *out);

/** @return true when @p key names a servable scheduler. */
bool schedulerKeyValid(const std::string &key);

/**
 * Parse and validate one request body (single object or batch).
 * @return true on success; false with a client-facing message in
 *         @p error otherwise.
 */
bool parseServiceRequestSet(const std::string &body,
                            const ProtocolLimits &limits,
                            ServiceRequestSet &out, std::string *error);

/** Serialize one result as a JSON object into @p w. */
void writeServiceResult(JsonWriter &w, const ServiceResult &r);

/**
 * Serialize a full response body: a single object when @p batch is
 * false, {"results": [...]} otherwise.
 */
std::string renderServiceResponse(const std::vector<ServiceResult> &rs,
                                  bool batch);

/** Serialize {"error": <message>}. */
std::string renderServiceError(const std::string &message);

} // namespace balance

#endif // BALANCE_SERVICE_PROTOCOL_HH

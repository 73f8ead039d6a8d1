/**
 * @file
 * Shared core types: function specs and request records.
 */

#ifndef INFLESS_CORE_TYPES_HH
#define INFLESS_CORE_TYPES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hh"

namespace infless::core {

/** Index of a deployed function within a platform. */
using FunctionId = std::int32_t;

/** Sentinel for "no function". */
constexpr FunctionId kNoFunction = -1;

/**
 * What a developer declares when deploying an inference function — the
 * template of Fig. 5: the model and a latency SLO. Everything else
 * (batchsize, resources, scaling) is the platform's job.
 */
struct FunctionSpec
{
    /** Function name (unique per platform). */
    std::string name;
    /** Model-zoo model backing the function. */
    std::string model;
    /** End-to-end latency SLO. */
    sim::Tick sloTicks = 200 * sim::kTicksPerMs;
    /** Largest batchsize the platform may use (paper caps at 32). */
    int maxBatch = 32;
};

/** Index of a deployed function chain within a platform. */
using ChainId = std::int32_t;

/** Sentinel for "not part of a chain". */
constexpr ChainId kNoChain = -1;

/** How a chain's end-to-end SLO is divided among its stages. */
enum class SloSplit
{
    /** Each stage gets a share proportional to its predicted execution
     *  time (slow stages get more budget). */
    Proportional,
    /** Every stage gets an equal share. */
    Equal
};

/**
 * An inference function chain (the paper's §7 future work): stages
 * execute in sequence, each stage's output feeding the next, under one
 * end-to-end latency SLO.
 */
struct ChainSpec
{
    std::string name;
    /** Stage models, in execution order. */
    std::vector<std::string> models;
    /** End-to-end latency SLO across all stages. */
    sim::Tick sloTicks = 400 * sim::kTicksPerMs;
    /** Stage-budget policy. */
    SloSplit split = SloSplit::Proportional;
    /** Largest batchsize any stage may use. */
    int maxBatch = 32;
};

/**
 * Per-request bookkeeping kept by the platform from arrival to its
 * terminal point (completion or drop), in a RequestTable.
 */
struct RequestRecord
{
    FunctionId function = kNoFunction;
    sim::Tick arrival = 0;

    /** Chain membership (kNoChain for plain function requests). */
    ChainId chain = kNoChain;
    /** Stage index within the chain. */
    int stage = 0;
    /** Arrival time at the head of the chain (end-to-end latency base). */
    sim::Tick rootArrival = 0;
    /** Latency parts accumulated over completed stages. */
    sim::Tick coldAccum = 0;
    sim::Tick queueAccum = 0;
    sim::Tick execAccum = 0;
    sim::Tick batchAccum = 0;

    /** Re-dispatches already consumed after failures (retry budget). */
    int retries = 0;
    /** Whether the request was ever re-dispatched (failover accounting:
     *  set on retry, cleared when the completion is counted). */
    bool retried = false;
    /** Set once the request reached its terminal point (RequestTable);
     *  sits in the tail padding, so the record stays 72 bytes. */
    bool retired = false;
};

static_assert(sizeof(RequestRecord) == 72,
              "RequestRecord grew past 72 bytes");

} // namespace infless::core

#endif // INFLESS_CORE_TYPES_HH

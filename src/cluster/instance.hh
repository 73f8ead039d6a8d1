/**
 * @file
 * Function instance (container) lifecycle.
 *
 * An Instance is one launched container serving one function with a fixed
 * (batchsize, cpu, gpu) configuration. INFless's non-uniform scaling means
 * two instances of the same function may carry different configs.
 */

#ifndef INFLESS_CLUSTER_INSTANCE_HH
#define INFLESS_CLUSTER_INSTANCE_HH

#include <cstdint>
#include <iosfwd>
#include <string>

#include "cluster/resources.hh"
#include "cluster/server.hh"
#include "sim/time.hh"

namespace infless::cluster {

/** Unique id of an instance within a platform run. */
using InstanceId = std::int64_t;

/** Sentinel for "no instance". */
constexpr InstanceId kNoInstance = -1;

/** Configuration an instance is launched with. */
struct InstanceConfig
{
    int batchSize = 1;
    Resources resources;

    bool operator==(const InstanceConfig &o) const = default;

    /** Render as "(b=4, cpu=2000mc, gpu=10%)". */
    std::string str() const;
};

/** Stream the str() rendering (lazy assertion messages). */
std::ostream &operator<<(std::ostream &os, const InstanceConfig &c);

/** Lifecycle states of an instance. */
enum class InstanceState
{
    ColdStarting, ///< container being created / model loading
    Idle,         ///< warm and waiting for work
    Busy,         ///< executing a batch
    Reaped        ///< terminated; resources returned
};

/** Human-readable state name. */
const char *instanceStateName(InstanceState s);

/**
 * One running container.
 *
 * The platform layer drives state transitions; this class only validates
 * them and keeps accounting used by the metrics module.
 */
class Instance
{
  public:
    Instance(InstanceId id, InstanceConfig config, ServerId server,
             sim::Tick created, bool cold);

    InstanceId id() const { return id_; }
    const InstanceConfig &config() const { return config_; }
    ServerId serverId() const { return server_; }
    InstanceState state() const { return state_; }
    sim::Tick createdAt() const { return created_; }

    /** Whether the launch paid a cold start. */
    bool wasCold() const { return cold_; }

    /** Transition ColdStarting -> Idle once the container is warm. */
    void becomeWarm(sim::Tick now);

    /** Transition Idle -> Busy when a batch starts executing. */
    void startBatch(int batch_fill);

    /** Transition Busy -> Idle when the running batch completes. */
    void finishBatch(sim::Tick now);

    /** Transition (Idle|ColdStarting) -> Reaped on scale-in / keep-alive
     *  expiry. */
    void reap();

    /**
     * Transition any live state -> Reaped when the hosting server
     * crashes. Unlike reap(), a Busy instance may die mid-batch.
     */
    void crash();

    /** Last time the instance finished work (or became warm). */
    sim::Tick lastActive() const { return lastActive_; }

    /** Batches executed so far. */
    std::int64_t batchesExecuted() const { return batchesExecuted_; }

    /** Requests served so far (sum of batch fills). */
    std::int64_t requestsServed() const { return requestsServed_; }

  private:
    InstanceId id_;
    InstanceConfig config_;
    ServerId server_;
    InstanceState state_ = InstanceState::ColdStarting;
    bool cold_;

    sim::Tick created_;
    sim::Tick lastActive_;

    std::int64_t batchesExecuted_ = 0;
    std::int64_t requestsServed_ = 0;
};

} // namespace infless::cluster

#endif // INFLESS_CLUSTER_INSTANCE_HH

/**
 * @file
 * The serverless inference platform (Fig. 4).
 *
 * Platform ties every subsystem together: functions deploy with an SLO,
 * request traces inject arrival events, the batch-aware dispatcher routes
 * requests into per-instance queues, the auto-scaling engine launches and
 * drains instances via the greedy scheduler, and the keep-alive policy
 * governs pre-warming and reaping.
 *
 * The baselines (OpenFaaS+, BATCH) subclass Platform and override the
 * protected policy hooks; the simulation engine, batching machinery and
 * accounting are shared, mirroring how the paper re-hosts BATCH on
 * OpenFaaS for a fair comparison.
 */

#ifndef INFLESS_CORE_PLATFORM_HH
#define INFLESS_CORE_PLATFORM_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/cluster.hh"
#include "cluster/container_runtime.hh"
#include "cluster/instance.hh"
#include "coldstart/lsth.hh"
#include "coldstart/policy.hh"
#include "core/batch_queue.hh"
#include "core/dispatcher.hh"
#include "core/request_table.hh"
#include "core/scheduler.hh"
#include "core/types.hh"
#include "faults/fault_injector.hh"
#include "faults/retry_policy.hh"
#include "health/outlier_ejector.hh"
#include "metrics/collector.hh"
#include "models/exec_model.hh"
#include "models/latency_cache.hh"
#include "models/model_zoo.hh"
#include "obs/options.hh"
#include "obs/prof_scope.hh"
#include "obs/trace_recorder.hh"
#include "overload/overload.hh"
#include "profiler/cop.hh"
#include "profiler/op_profile_db.hh"
#include "sim/simulation.hh"
#include "sim/tick_log.hh"
#include "workload/trace.hh"

namespace infless::core {

/** Everything tunable about a platform run. */
struct PlatformOptions
{
    /** Scheduler configuration (grid, ablation flags). */
    SchedulerConfig scheduler;
    /** COP predictor configuration (safety offset; OP ablations). */
    profiler::CopOptions cop;
    /** Execution-surface parameters. */
    models::ExecParams exec;
    /** Per-function keep-alive policy factory (default: LSTH). */
    coldstart::PolicyFactory keepAlive;
    /** Root random seed. */
    std::uint64_t seed = 1;
    /**
     * Injected failure surface (disabled by default: all rates zero). The
     * fault RNG stream derives from `seed` independently of the workload
     * streams, so enabling faults never shifts arrival randomness.
     */
    faults::FaultProfile faults;
    /** Failover discipline for requests lost to crashes. */
    faults::RetryPolicy retry;
    /**
     * Observability: request tracing and controller profiling (both off
     * by default). Tracing never perturbs the simulation — it schedules
     * no events and draws no randomness — and profiling measures wall
     * clock outside simulated time, so enabling either leaves every
     * simulation output bit-identical.
     */
    obs::ObsOptions obs;
    /**
     * Overload control plane: deadline-aware admission, queue eviction,
     * circuit breakers and brownout (all off by default; the disabled
     * config is bit-identical to not having the subsystem).
     */
    overload::OverloadConfig overload;
    /**
     * Failure-domain topology (zone/rack per server; disabled by
     * default). Assignment is a pure function of the server id; a
     * multi-cell ShardedPlatform rejects it. Enabling the
     * topology alone changes no placement — only spreadWeight > 0 or
     * domain-outage faults consume it.
     */
    cluster::TopologyConfig topology;
    /**
     * Per-server rolling health scoring + outlier ejection (off by
     * default; the disabled config schedules nothing and is
     * bit-identical to not having the subsystem).
     */
    health::HealthConfig health;
};

/** Launch/served tallies of one instance configuration (Fig. 13). */
struct ConfigUsage
{
    cluster::InstanceConfig config;
    std::int64_t launches = 0;
    std::int64_t requestsServed = 0;
};

/** Point-in-time view of one live instance (observability API). */
struct InstanceSnapshot
{
    cluster::InstanceId id = cluster::kNoInstance;
    FunctionId function = kNoFunction;
    cluster::InstanceConfig config;
    cluster::ServerId server = cluster::kNoServer;
    cluster::InstanceState state = cluster::InstanceState::ColdStarting;
    bool draining = false;
    /** Dispatcher target rate and Eq. 1 window. */
    double targetRate = 0.0;
    double rUp = 0.0;
    double rLow = 0.0;
    /** Requests currently waiting in the batch queue. */
    std::size_t queueDepth = 0;
};

/** Point-in-time view of a function's overload defenses (their
 *  counters are in functionMetrics()). */
struct OverloadSnapshot
{
    overload::BreakerState breakerState = overload::BreakerState::Closed;
    bool brownoutActive = false;
};

/**
 * The INFless platform (and base for the baseline platforms).
 */
class Platform
{
  public:
    /**
     * @param num_servers Cluster size (paper: 8 local, 2,000 simulated);
     *        each machine mirrors the Table 2 testbed node.
     * @param opts Run configuration.
     */
    explicit Platform(std::size_t num_servers, PlatformOptions opts = {});

    /**
     * Run on an explicit machine fleet (e.g. CPU-only servers).
     */
    explicit Platform(cluster::Cluster machines, PlatformOptions opts = {});
    virtual ~Platform();

    Platform(const Platform &) = delete;
    Platform &operator=(const Platform &) = delete;

    /** System name for reports. */
    virtual std::string name() const { return "INFless"; }

    /** Deploy a function; returns its id. */
    FunctionId deploy(const FunctionSpec &spec);

    /**
     * Deploy a function chain (paper 7): each stage becomes a function
     * whose latency budget is a split of the end-to-end SLO; completing
     * a stage forwards the request to the next one.
     */
    ChainId deployChain(const ChainSpec &spec);

    /** Inject a pre-materialized arrival trace for a function. */
    void injectTrace(FunctionId fn, workload::ArrivalTrace trace);

    /** Materialize and inject a rate series (Poisson arrivals). */
    void injectRateSeries(FunctionId fn,
                          const workload::RateSeries &series);

    /** Materialize and inject a rate series at a chain's head stage. */
    void injectChainRateSeries(ChainId chain,
                               const workload::RateSeries &series);

    /** Run the simulation up to an absolute tick; panics if @p until
     *  lies before the clock. */
    void run(sim::Tick until);

    // Introspection --------------------------------------------------------

    sim::Simulation &simulation() { return sim_; }
    const sim::Simulation &simulation() const { return sim_; }
    const cluster::Cluster &cluster() const { return cluster_; }
    const PlatformOptions &options() const { return opts_; }

    /** Aggregate metrics over all functions. */
    const metrics::RunMetrics &totalMetrics() const { return total_; }

    /** Metrics of a single function. */
    const metrics::RunMetrics &functionMetrics(FunctionId fn) const;

    /** Time the run ended (argument of the last run()). */
    sim::Tick endTime() const { return endTime_; }

    /** Time-weighted mean of the cluster fragment ratio (Fig. 17b). */
    double meanFragmentRatio() const;

    /** Configuration usage tallies of a function (Fig. 13). */
    std::vector<ConfigUsage> configUsage(FunctionId fn) const;

    /** Live (non-reaped) instances of a function. */
    int liveInstanceCount(FunctionId fn) const;

    /** Snapshots of a function's live instances (observability). */
    std::vector<InstanceSnapshot> instanceSnapshots(FunctionId fn) const;

    /** Total live instances across functions. O(1): a running count. */
    int liveInstanceCount() const { return liveInstances_; }

    /**
     * Requests admitted but not yet settled: live queues, executing
     * batches, retry backoffs and the ingress delay stage. Zero once a
     * run has fully drained.
     */
    std::int64_t inFlightRequests() const;

    /**
     * Request records held: one per in-flight request, since a record
     * retires when its request completes or drops. Zero after a drain.
     */
    std::int64_t liveRequestRecords() const { return requests_.live(); }

    /**
     * Bytes held by injected traces not yet replayed. A trace is kept
     * delta-encoded, and each chunk of it is freed once replay has read
     * past it, so this shrinks as arrivals fire and is 0 once every
     * injected arrival has been scheduled.
     */
    std::size_t heldArrivalBytes() const;

    /** Scheduling passes (Algorithm 1 invocations) run so far. */
    std::uint64_t schedulerDecisions() const
    {
        return scheduler_.decisions();
    }

    /** Instances ever launched. */
    std::int64_t totalLaunches() const;

    /** Number of deployed functions. */
    std::size_t functionCount() const { return functions_.size(); }

    /** Function spec lookup. */
    const FunctionSpec &spec(FunctionId fn) const;

    /** End-to-end metrics of a chain (latency vs the chain SLO). */
    const metrics::RunMetrics &chainMetrics(ChainId chain) const;

    /** Stage function ids of a chain, in order. */
    const std::vector<FunctionId> &chainStages(ChainId chain) const;

    /** Number of deployed chains. */
    std::size_t chainCount() const { return chains_.size(); }

    // Fault control plane ---------------------------------------------------

    /**
     * Crash a server now: resident instances are killed, their resources
     * released, pending per-instance timers cancelled, and every queued or
     * in-flight request is failed over through the retry policy (or
     * dropped when retries are exhausted/disabled). Idempotent while the
     * server is down. Usable directly from tests — no fault profile
     * required.
     */
    void injectServerCrash(cluster::ServerId id);

    /**
     * Recover a crashed server: its capacity rejoins the placement index
     * and the scheduler can target it again. Idempotent while up.
     */
    void injectServerRecovery(cluster::ServerId id);

    /** The fault injector, or nullptr when the profile is disabled. */
    const faults::FaultInjector *faultInjector() const
    {
        return faults_.get();
    }

    /**
     * Fraction of aggregate server-uptime over the run so far:
     * 1 - downtime / (servers x elapsed).
     */
    double clusterAvailability() const;

    // Failure domains / gray failures ---------------------------------------

    /**
     * Crash every server of @p zone at once (a correlated
     * failure-domain outage): one DomainOutage trace instant + flight
     * trigger, then the ordinary injectServerCrash path per member.
     * The seeded domain-outage fault stream lands here; tests may call
     * it directly. Zones span the whole fleet, which is why a
     * multi-cell ShardedPlatform rejects a topology.
     */
    void injectDomainOutage(cluster::DomainId zone);

    /**
     * Repair @p zone: every member recovers (including members that were
     * down for an unrelated i.i.d. crash — zone repair heals its whole
     * blast radius).
     */
    void injectDomainRepair(cluster::DomainId zone);

    /**
     * Ground-truth gray exec-time multiplier of server @p id (1.0 =
     * healthy), derived at construction from the seed and the server
     * id.
     */
    double grayMultiplier(cluster::ServerId id) const;

    /** Override a server's gray multiplier (a test hook); panics
     *  unless 0 <= @p id < cluster().size() and @p mult >= 1. */
    void setGrayMultiplier(cluster::ServerId id, double mult);

    // Health / outlier ejection ---------------------------------------------

    /** The outlier ejector, or nullptr when health.enabled is false. */
    const health::OutlierEjector *healthEjector() const
    {
        return health_.get();
    }

    /** Servers currently quarantined by the ejector. */
    std::size_t quarantinedServers() const
    {
        return cluster_.quarantinedServers();
    }

    /**
     * Put every live instance on @p id on the reconfiguration drain path
     * (fast-reap grace timer) so the server empties; health ejection
     * uses it. Queued work is still served or re-routed by the existing
     * drain machinery — nothing is dropped up front.
     */
    void drainServer(cluster::ServerId id);

    // Observability ---------------------------------------------------------

    /** The request-lifecycle span store (empty unless tracing is on). */
    const obs::TraceRecorder &tracer() const { return tracer_; }

    /** Controller overhead histograms (empty unless profiling is on). */
    const obs::OverheadProfiler &overheads() const { return prof_; }

    /** Windowed SLO attainment / burn-rate monitor (inert unless
     *  obs.slo.enabled). */
    const obs::SloMonitor &sloMonitor() const { return monitor_; }

    /** Anomaly-triggered flight recorder (inert unless
     *  obs.flight.enabled). */
    const obs::FlightRecorder &flightRecorder() const { return flight_; }

    // Overload control plane ------------------------------------------------

    /** Breaker/brownout state of one function. */
    OverloadSnapshot overloadSnapshot(FunctionId fn) const;

    /**
     * Request conservation: for every function,
     * arrivals == completions + drops + in-flight, where in-flight spans
     * live queues, executing batches, retry backoffs and the ingress
     * delay stage. The request table must also hold exactly one live
     * record per in-flight request (records retire at completion or
     * drop). Checked automatically after every run() (unless the event
     * engine truncated); public for tests.
     *
     * @param diagnostic When non-null, receives one line per leaking
     *        function (and one for a record-count mismatch) on failure.
     * @return true when every function and the request table balance.
     */
    bool auditConservation(std::string *diagnostic = nullptr) const;

  protected:
    /** Runtime state of one instance. */
    struct InstanceRuntime
    {
        cluster::Instance inst;
        BatchQueue queue;
        RpsBounds bounds;
        sim::Tick execPredicted = 0;
        double targetRate = 0.0;
        double servedInEpoch = 0.0;
        bool draining = false;
        /** Reconfiguration drain: reap on a short grace timer instead of
         *  the keep-alive window. */
        bool fastReap = false;
        /** Grace expired while busy: reap at the next batch boundary,
         *  re-routing whatever is still queued. */
        bool reapAsap = false;
        bool prewarmed = false;
        /** Fleet generation the instance belongs to (reconfiguration
         *  bumps the function's generation). */
        std::int64_t generation = 0;
        sim::Tick warmAt = sim::kTickNever;
        /** Predicted end of the startup phase (admission control's
         *  cold-start remainder; warmAt stays kTickNever until warm). */
        sim::Tick warmExpectedAt = 0;
        /** When the executor last went idle (warm with no running batch);
         *  kTickNever while a batch runs. Latency attribution only. */
        sim::Tick idleSince = sim::kTickNever;
        /** idleSince snapshot taken when the current batch started: the
         *  instant the executor became available to that batch. */
        sim::Tick batchAvailAt = sim::kTickNever;
        sim::EventId timeoutEvent = sim::kNoEvent;
        sim::EventId expiryEvent = sim::kNoEvent;
        std::size_t usageKey = 0;
        FunctionId fn = kNoFunction;
        /** Requests of the batch currently executing, and the only copy
         *  of it (failed over when a crash kills the instance mid-batch).
         *  Its buffer is reused from batch to batch. */
        std::vector<RequestIndex> inFlight{};
        /** Bumped when the instance is crash-killed: the non-cancellable
         *  batch-completion event compares it and dead-letters itself. */
        std::uint32_t liveEpoch = 0;
    };

    /** Runtime state of one deployed function. */
    struct FunctionState
    {
        FunctionSpec spec;
        const models::ModelInfo *model = nullptr;
        std::vector<std::size_t> live; ///< indices into instances_
        std::unique_ptr<coldstart::KeepAlivePolicy> policy;
        RateEstimator rate;
        sim::Tick lastInvocation = -1;
        /** Chain membership of this function (kNoChain if standalone). */
        ChainId chain = kNoChain;
        /** Stage index within the chain. */
        int stage = 0;
        sim::EventId prewarmEvent = sim::kNoEvent;
        sim::Tick lastReconfig = -sim::kTicksPerHour;
        sim::Tick lastReactive = -sim::kTicksPerSec;
        /** While now < reconfigHold the function is mid-reconfiguration:
         *  ordinary scale-out is suppressed and each tick advances the
         *  rolling replacement instead. */
        sim::Tick reconfigHold = 0;
        /** Current fleet generation. */
        std::int64_t generation = 0;
        metrics::RunMetrics metrics;
        cluster::Resources allocated;
        std::vector<ConfigUsage> usage;
        std::map<std::tuple<int, std::int64_t, std::int64_t>, std::size_t>
            usageIndex;

        // Overload control plane -------------------------------------------
        overload::CircuitBreaker breaker;
        overload::BrownoutController brownout;
        /** Failover re-dispatches waiting out their backoff; part of the
         *  conservation audit's in-flight term. */
        std::int64_t pendingRetries = 0;
        /** Requests inside the ingress-delay stage (OTP buffer); part of
         *  the conservation audit's in-flight term. */
        std::int64_t pendingIngress = 0;

        explicit FunctionState(const overload::OverloadConfig &oc)
            : breaker(oc.breaker), brownout(oc.brownout)
        {
        }
    };

    // Baseline hooks --------------------------------------------------------

    /**
     * Plan instances for residual load; the default runs Algorithm 1.
     * Implementations must allocate plan resources on the cluster.
     */
    virtual std::vector<LaunchPlan> planScaleOut(FunctionState &fn,
                                                 double residual_rps);

    /** One-to-one request mapping (OpenFaaS+): a request only goes to an
     *  unoccupied instance. */
    virtual bool oneToOne() const { return false; }

    /** Extra ingress latency before dispatch (the OTP buffer layer). */
    virtual sim::Tick ingressDelay() const { return 0; }

    /**
     * Uniform scaling (the baselines). INFless actively drains excess
     * instances, spreads requests by target rate, and periodically
     * re-derives the optimal batch-resource decisions for the measured
     * rate, performing a rolling (make-before-break) fleet replacement
     * when the current instances are far from optimal (5 in Fig. 4). A
     * uniform-scaling platform does none of the three: it never scales
     * in, packs requests onto the lowest-index instances, and never
     * reconfigures running instances.
     */
    virtual bool uniformScaling() const { return false; }

    // Shared internals for subclasses ---------------------------------------

    const profiler::CopPredictor &predictor() const { return predictor_; }
    const GreedyScheduler &scheduler() const { return scheduler_; }
    cluster::Cluster &mutableCluster() { return cluster_; }
    FunctionState &functionState(FunctionId fn);

  private:
    /** Runtime state of one deployed chain. */
    struct ChainState
    {
        ChainSpec spec;
        std::vector<FunctionId> stages;
        metrics::RunMetrics metrics;
    };

    // Event handlers ---------------------------------------------------------

    void onArrival(FunctionId fn);
    /** Shared arrival path: account the request and route it. */
    void ingestRequest(FunctionId fn, RequestIndex request);
    /** Move a finished chain request to its next stage (or finish it);
     *  retires the finished stage's record either way. */
    void advanceChain(RequestIndex request, sim::Tick now);
    void routeRequest(FunctionId fn, RequestIndex request);
    void tryStartBatch(std::size_t idx);
    void startBatch(std::size_t idx);
    /** Complete the batch in inFlight, then reuse its buffer. */
    void onBatchComplete(std::size_t idx, sim::Tick started,
                         sim::Tick exec_time);
    void onWarm(std::size_t idx);
    /** Auto-scaling engine period. */
    static constexpr sim::Tick kScalerPeriod = sim::kTicksPerSec;
    void scalerTick();
    /** Periodic outlier-ejector evaluation: eject (quarantine + drain)
     *  and re-admit per its deterministic decisions. */
    void healthTick();
    void maybeReconfigure(FunctionId fn, double measured);
    void continueReconfigure(FunctionId fn, double measured);

    // Instance lifecycle ------------------------------------------------------

    std::size_t launchInstance(FunctionId fn, const LaunchPlan &plan,
                               bool prewarmed_launch);
    void reapInstance(std::size_t idx);
    /** Teardown shared by reap and kill: cancel both timers, release the
     *  resources, leave the live list and record the new allocation. */
    void releaseInstance(std::size_t idx);
    /** Crash-kill an instance: fail over its queue and in-flight batch. */
    void killInstance(std::size_t idx);
    /** Indices of the live instances on server @p id, ascending: found
     *  through the functions' live lists, so the cost tracks the live
     *  fleet, not every instance the run ever launched. */
    std::vector<std::size_t> liveInstancesOn(cluster::ServerId id) const;
    void armTimeout(std::size_t idx);
    void armExpiry(std::size_t idx);
    /** Cancel a per-instance timer and clear its handle. */
    void cancelTimer(sim::EventId &id)
    {
        sim_.events().cancel(id); // false, and no effect, on kNoEvent
        id = sim::kNoEvent;
    }
    void maybePrewarm(FunctionId fn);

    // Helpers -----------------------------------------------------------------

    /** Add @p n to counter @p c of @p f's metrics and of the total. */
    void tally(FunctionState &f, metrics::Counter c, std::int64_t n = 1)
    {
        f.metrics.add(c, n);
        total_.add(c, n);
    }

    void refreshTargets(FunctionState &fn);
    void recordAllocationChange();
    void completeRequest(std::size_t idx, RequestIndex request,
                         sim::Tick started, sim::Tick exec_time);
    /** Account one dropped request (function, total and chain metrics). */
    void dropRequest(FunctionState &f, RequestIndex request, sim::Tick now);
    /** Drop with explicit control over breaker/brownout feedback (sheds
     *  must not count as failures of admitted requests). */
    void dropRequestInternal(FunctionState &f, RequestIndex request,
                             sim::Tick now, bool feed_health);
    /** Re-dispatch a failure-lost request per the retry policy, or drop
     *  it once its attempts are used up (exactly one drop per request). */
    void failoverRequest(FunctionId fn, RequestIndex request);

    // Overload control plane --------------------------------------------------

    /** True while any non-draining live instance is still cold-starting
     *  (drops during provisioning bypass the breaker). */
    bool coldCapacityPending(const FunctionState &f) const;
    /** Backoff-limited reactive scale-out; true when an attempt ran
     *  (shared by the routing dead-end and capacity-driven sheds). */
    bool maybeReactiveScaleOut(FunctionId fn);
    /** Which ingress defense rejected a request (metrics/trace tag). */
    enum class ShedCause : std::uint8_t
    {
        Admission, ///< static feedforward predicate
        Breaker    ///< open/half-open circuit breaker
    };

    /** One pass over a function's live instances with queue room. */
    struct LiveScan
    {
        /** Weighted pick among non-draining eligible instances. */
        WeightedPick serving;
        /** The same among draining ones: the make-before-break
         *  fallback. */
        WeightedPick draining;
        /** Static admission: whether any instance has room, and the
         *  best predicted sojourn among those (when asked for). */
        bool anyRoom = false;
        sim::Tick admitBest = sim::kTickNever;

        /** Routing target: serving first, then draining; kNone when
         *  nothing is eligible. */
        std::size_t pick() const
        {
            std::size_t idx = serving.pick();
            return idx != WeightedPick::kNone ? idx : draining.pick();
        }
    };
    /** Scan @p f's live instances for routing, and for static admission
     *  when @p admission. */
    LiveScan scanLive(const FunctionState &f, bool admission) const;
    /** Circuit-breaker gate at ingress; false = shed. */
    bool admitRequest(FunctionId fn, RequestIndex request);
    /** Static admission predicate over @p scan; false = shed. */
    bool admitStatic(FunctionId fn, RequestIndex request,
                     const LiveScan &scan);
    /** Account one shed and drop the request. */
    void shedRequest(FunctionState &f, RequestIndex request, sim::Tick now,
                     ShedCause cause);
    /** Evict the oldest queued request fleet-wide to seat @p request;
     *  false when eviction is off or no queue has anything to evict. */
    bool tryEvictInto(FunctionId fn, RequestIndex request);
    // Observability emit paths ------------------------------------------------

    /** Emit a request-lifecycle span to the sampling tracer (if it wants
     *  the request) and the flight recorder (always when enabled). */
    void emitSpan(obs::SpanKind kind, RequestIndex request, FunctionId fn,
                  std::int32_t server, std::int64_t instance,
                  sim::Tick start, sim::Tick duration);
    /** Emit a function-level instant (breaker/brownout transitions). */
    void emitFunctionEvent(obs::SpanKind kind, FunctionId fn, sim::Tick at);
    /** Emit a cluster-level instant (crash, recovery, ejection, ...). */
    void emitClusterEvent(obs::SpanKind kind, std::int32_t server,
                          sim::Tick at);

    /** Surface the breaker's state change just made to metrics and the
     *  tracer. */
    void noteBreakerEdge(FunctionId fn);
    /** Surface the brownout enter/exit just made to metrics and the
     *  tracer. */
    void noteBrownoutEdge(FunctionId fn);
    double aggregateRUp(const FunctionState &fn) const;
    std::size_t usageKeyFor(FunctionState &fn,
                            const cluster::InstanceConfig &config);
    /** Domain occupancy of @p fn's non-draining live instances — the
     *  anti-affinity spread score input (inert at weight 0). */
    SpreadContext spreadContextFor(const FunctionState &fn) const;
    /** &ctx when spread scoring is active (spreadWeight > 0 on a fleet
     *  with failure domains), else nullptr: the scheduler never sees a
     *  context and takes its covering-class argmax. */
    SpreadContext *spreadArg(SpreadContext &ctx) const;

    /** One injected trace, read by its replay cursor. */
    struct TraceFeed
    {
        FunctionId fn;
        sim::TickLog ticks;
    };
    void scheduleNextArrival(std::size_t feed_idx);

    sim::Simulation sim_;
    cluster::Cluster cluster_;
    const models::ModelZoo &zoo_;
    models::ExecModel exec_;
    /** Memo in front of exec_.trueTicks — the batch-pricing hot path. */
    models::LatencyCache execCache_;
    profiler::OpProfileDb profileDb_;
    profiler::CopPredictor predictor_;
    GreedyScheduler scheduler_;
    cluster::ContainerRuntime runtime_;
    PlatformOptions opts_;

    std::vector<FunctionState> functions_;
    std::vector<ChainState> chains_;
    std::vector<InstanceRuntime> instances_;
    /** Sum of every function's live.size(), kept by launchInstance()
     *  and releaseInstance(). */
    int liveInstances_ = 0;
    /** Records of requests not yet completed or dropped. */
    RequestTable requests_;
    std::vector<TraceFeed> feeds_;
    /** Slots of fully replayed feeds, reused by the next injection. */
    std::vector<std::size_t> freeFeeds_;

    metrics::RunMetrics total_;
    metrics::TimeWeightedMean fragRatio_;
    /** Request-lifecycle span store (no storage when tracing is off). */
    obs::TraceRecorder tracer_;
    /** Wall-clock controller overhead histograms. */
    obs::OverheadProfiler prof_;
    /** Windowed SLO attainment / burn-rate monitor. */
    obs::SloMonitor monitor_;
    /** Anomaly-triggered flight recorder (always-on span ring). */
    obs::FlightRecorder flight_;
    cluster::InstanceId nextInstanceId_ = 0;
    sim::Tick endTime_ = 0;
    std::shared_ptr<sim::Simulation::Periodic> scalerHandle_;

    /** Fault injector (null when the profile is disabled). */
    std::unique_ptr<faults::FaultInjector> faults_;
    /** Crash start of each server that is down now, by id. Up servers
     *  hold no entry, so the fleet pays nothing for this while healthy. */
    std::map<cluster::ServerId, sim::Tick> serverDownSince_;
    /** Completed downtime summed over all servers. */
    sim::Tick serverDownAccum_ = 0;

    /** Ground-truth gray exec multiplier per server (empty = all 1.0). */
    std::vector<double> grayMult_;
    /** Outlier ejector (null when health scoring is disabled). */
    std::unique_ptr<health::OutlierEjector> health_;
    std::shared_ptr<sim::Simulation::Periodic> healthHandle_;
};

} // namespace infless::core

#endif // INFLESS_CORE_PLATFORM_HH

/**
 * @file
 * The INFless performance benchmark driver.
 *
 * One process runs one workload. A repetition synthesizes the workload's
 * arrival traces from --seed with the workload:: library, builds the
 * platform, deploys the functions, injects the finished traces (together
 * timed as set-up), then times one run() to the horizon. Repetitions
 * continue until --seconds are spent (at least three), and the medians
 * are reported. Every repetition is checked (see checks.hh) and must
 * reproduce the same digest of the simulated outputs.
 *
 * With --trace the process alternates untraced repetitions with traced
 * ones: controller profiling on and run() called in 250 ms slices, each
 * slice timed. Afterwards probes time public calls on copies of the
 * final state. The traced digest must equal the untraced one. The output
 * is then the per-layer metrics instead of the end-to-end ones.
 *
 * Every metric prints as `workload metric value unit`; the last line of
 * stdout is one JSON object {correct, attempted, failed, metrics}. With
 * --out the same data (plus the digest and per-repetition values) is
 * written as JSON, and a traced run also writes its spans as
 * trace_<workload>.json (Chrome trace-event format).
 *
 * The driver calls only the library's public API. README.md defines the
 * workloads and every metric.
 */

#include <sys/resource.h>

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "checks.hh"
#include "cluster/cluster.hh"
#include "core/platform.hh"
#include "core/scheduler.hh"
#include "core/sharded_platform.hh"
#include "metrics/collector.hh"
#include "models/latency_cache.hh"
#include "models/model_zoo.hh"
#include "obs/slo_monitor.hh"
#include "obs/trace_recorder.hh"
#include "profiler/cop.hh"
#include "profiler/op_profile_db.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "workload/azure_synth.hh"
#include "workload/generators.hh"
#include "workload/trace.hh"

namespace {

using namespace infless;
using Clock = std::chrono::steady_clock;

constexpr sim::Tick kSec = sim::kTicksPerSec;
constexpr sim::Tick kMs = sim::kTicksPerMs;
/** Slice length of a traced run = ShardedPlatform's lockstep window. */
constexpr sim::Tick kSlice = 250 * kMs;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile of @p v (p in [0, 100]). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/**
 * Percentile of a latency histogram, interpolated by rank inside the
 * bucket that holds it. LatencyHistogram::percentile() returns the
 * bucket's upper edge, which is ~10 % coarse and so reads identically
 * for runs whose true percentiles differ.
 */
double
histPercentile(const metrics::LatencyHistogram &h, double p)
{
    if (h.count() == 0)
        return 0.0;
    double target = std::max(1.0, std::ceil(p / 100.0 *
                                            static_cast<double>(h.count())));
    double seen = 0.0;
    double lower = 0.0;
    for (std::size_t b = 0; b < h.bucketCount(); ++b) {
        auto in_bucket = static_cast<double>(h.bucketSamples(b));
        auto upper = static_cast<double>(h.bucketUpperBound(b));
        if (in_bucket > 0.0 && seen + in_bucket >= target) {
            double frac = (target - seen) / in_bucket;
            double v = lower + frac * (upper - lower);
            return std::clamp(v, static_cast<double>(h.min()),
                              static_cast<double>(h.max()));
        }
        seen += in_bucket;
        lower = upper;
    }
    return static_cast<double>(h.max());
}

double
ticksToMs(double ticks)
{
    return ticks / static_cast<double>(kMs);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/** One benchmark workload: fleet, functions, options and traffic. */
struct Workload
{
    std::string name;
    std::size_t servers = 0;
    /** 1 = flat core::Platform; more = core::ShardedPlatform cells. */
    std::size_t cells = 1;
    core::PlatformOptions opts;
    std::vector<core::FunctionSpec> functions;
    /** Every arrival lies in [0, traceEnd). */
    sim::Tick traceEnd = 0;
    /** run() horizon: traceEnd plus the drain. */
    sim::Tick horizon = 0;
    /** One arrival trace per function, a pure function of the seed. */
    std::function<std::vector<workload::ArrivalTrace>(const Workload &,
                                                      std::uint64_t)>
        traffic;
};

/**
 * Set the trace length and drain. Smoke mode keeps ~1/50 of the trace,
 * rounded up to whole rate bins of @p bin and at least two seconds.
 */
void
setLengths(Workload &w, sim::Tick trace, sim::Tick drain, bool smoke,
           sim::Tick bin = kSec)
{
    sim::Tick smoke_len = std::max(trace / 50, 2 * kSec);
    w.traceEnd = smoke ? (smoke_len + bin - 1) / bin * bin : trace;
    w.horizon = w.traceEnd + drain;
}

core::FunctionSpec
functionSpec(const std::string &model, std::size_t index, sim::Tick slo)
{
    core::FunctionSpec spec;
    spec.name = model + "-" + std::to_string(index);
    spec.model = model;
    spec.sloTicks = slo;
    return spec;
}

/** Poisson arrivals of each function's rate series, one seeded stream
 *  per function. */
std::vector<workload::ArrivalTrace>
poissonTraces(const std::vector<workload::RateSeries> &series,
              std::uint64_t seed)
{
    std::vector<workload::ArrivalTrace> out;
    for (std::size_t f = 0; f < series.size(); ++f) {
        sim::Rng rng(sim::hashCombine(seed, 0xA5A5'0000ULL + f));
        out.push_back(workload::ArrivalTrace::fromRateSeries(series[f], rng));
    }
    return out;
}

/** Constant @p rps per function over the trace, in 1-second bins (the
 *  library's default bin is a minute, which would outrun the trace). */
std::vector<workload::RateSeries>
constantSeries(const Workload &w, double rps)
{
    return std::vector<workload::RateSeries>(
        w.functions.size(), workload::constantRate(rps, w.traceEnd, kSec));
}

/**
 * azure-2k: the paper's 2,000-server scale and production traffic shape.
 * Azure patterns are synthetic (the trace is not redistributable). Each
 * function replays the first 20 minutes of its synthesized day 10x
 * time-compressed (1-minute bins become 6-second bins), so episodes and
 * bursts land on the autoscaler's timescale inside a short run. Tighter
 * compression puts ~1 % of requests behind cold starts, right where p99
 * jumps from ~200 ms to ~1.7 s.
 */
Workload
azure2k(bool smoke)
{
    const auto &zoo = models::ModelZoo::shared();
    static const char *const kPool[] = {
        "ResNet-50", "SSD",       "VGGNet",     "MobileNet",
        "LSTM-2365", "ResNet-20", "TextCNN-69", "DSSM-2365"};
    Workload w;
    w.name = "azure-2k";
    w.servers = 2000;
    w.opts.seed = 11;
    for (std::size_t f = 0; f < 60; ++f)
        w.functions.push_back(functionSpec(zoo.get(kPool[f % 8]).name, f,
                                           200 * kMs));
    constexpr sim::Tick kBin = 6 * kSec;
    setLengths(w, 120 * kSec, 10 * kSec, smoke, kBin);
    w.traffic = [](const Workload &wl, std::uint64_t seed) {
        constexpr std::uint64_t kShapeSeed = 2022;
        std::vector<workload::RateSeries> out;
        std::size_t n = wl.functions.size();
        auto minutes = static_cast<std::size_t>(wl.traceEnd / kBin);
        for (std::size_t f = 0; f < n; ++f) {
            // Rates are spread evenly over [20, 120] rps and each shape is
            // fixed by the function index, so the seed varies the
            // arrivals, not the offered load or the traffic shape.
            double rate = 20.0 + 100.0 * (static_cast<double>(f) + 0.5) /
                                     static_cast<double>(n);
            workload::TracePattern pattern = workload::kAllPatterns[f % 3];
            workload::RateSeries series;
            // A sporadic window can be idle throughout; redraw the shape
            // (as the paper-figure harness does) until it has activity.
            for (std::uint64_t attempt = 0; attempt < 16; ++attempt) {
                workload::RateSeries day = workload::synthesizeTrace(
                    pattern, rate, 1.0, sim::hashCombine(kShapeSeed,
                                                         f * 16 + attempt));
                series = day.truncated(
                    static_cast<sim::Tick>(minutes) * sim::kTicksPerMin);
                series.binWidth = kBin;
                double mean = series.meanRps();
                if (mean > 0.05 * rate) {
                    series = series.scaled(rate / mean);
                    break;
                }
            }
            out.push_back(std::move(series));
        }
        return poissonTraces(out, seed);
    };
    return w;
}

/** The zoo round-robin function set of the 100k-server workloads. */
void
zooFunctions(Workload &w, std::size_t count)
{
    const auto &zoo = models::ModelZoo::shared();
    for (std::size_t f = 0; f < count; ++f)
        w.functions.push_back(functionSpec(
            zoo.all()[f % zoo.all().size()].name, f, 200 * kMs));
}

/**
 * flat-100k: 100,000 servers behind one flat control plane. The cold
 * fleet's launch storm makes every launch and reap pay the fleet-wide
 * scans, so fleet-proportional cost dominates. Arrivals are evenly
 * spaced with a seeded phase per function: each launch or reap costs
 * tens of milliseconds here, and Poisson noise would flip enough
 * autoscaler decisions to move the run time by a fifth between seeds.
 */
Workload
flat100k(bool smoke)
{
    Workload w;
    w.name = "flat-100k";
    w.servers = 100'000;
    w.opts.seed = 12;
    zooFunctions(w, 8);
    setLengths(w, 30 * kSec, 5 * kSec, smoke);
    w.traffic = [](const Workload &wl, std::uint64_t seed) {
        constexpr double kRps = 100.0;
        const workload::ArrivalTrace even =
            workload::uniformArrivals(kRps, wl.traceEnd);
        const sim::Tick gap = even.arrivals().front();
        std::vector<workload::ArrivalTrace> out;
        for (std::size_t f = 0; f < wl.functions.size(); ++f) {
            sim::Rng rng(sim::hashCombine(seed, f));
            sim::Tick phase = rng.uniformInt(0, gap - 1);
            std::vector<sim::Tick> ticks;
            for (sim::Tick t : even.arrivals())
                ticks.push_back(t - gap + phase);
            out.emplace_back(std::move(ticks));
        }
        return out;
    };
    return w;
}

/**
 * cells-100k: the same fleet and functions split into 16 cells of a
 * ShardedPlatform, run on the hardware threads. The only workload with
 * routing, barriers and the worker pool. Each function offers 800 rps
 * (6,400 rps in all, as 64 functions at 100 rps would), so every cell
 * sees enough traffic per function to batch.
 */
Workload
cells100k(bool smoke)
{
    Workload w;
    w.name = "cells-100k";
    w.servers = 100'000;
    w.cells = 16;
    w.opts.seed = 13;
    zooFunctions(w, 8);
    setLengths(w, 30 * kSec, 5 * kSec, smoke);
    w.traffic = [](const Workload &wl, std::uint64_t seed) {
        return poissonTraces(constantSeries(wl, 800.0), seed);
    };
    return w;
}

/**
 * chaos-6: six servers in three zones under every failure class and the
 * full overload and observability stack. The request path runs through
 * sheds, evictions, failovers and span emission; the fleet is too small
 * for scans or scheduling to matter.
 */
Workload
chaos6(bool smoke)
{
    Workload w;
    w.name = "chaos-6";
    w.servers = 6;
    // Fixed platform seed: the fault scenario (which servers are gray,
    // when crashes and zone outages hit) is part of the workload; the
    // benchmark seed varies the traffic. At this seed server 2 is gray.
    w.opts.seed = 7;
    w.opts.topology.zones = 3;
    w.opts.topology.racksPerZone = 1;
    w.opts.topology.rackSize = 2;
    w.opts.scheduler.spreadWeight = 0.5;
    w.opts.health.enabled = true;
    w.opts.overload = overload::OverloadConfig::fullStack();
    w.opts.obs.slo.enabled = true;
    w.opts.obs.flight.enabled = true;
    w.opts.obs.trace.sampleRate = 1.0;
    std::vector<double> base_rps;
    for (const auto &model : models::ModelZoo::osvtModels()) {
        w.functions.push_back(
            functionSpec(model, w.functions.size(), 200 * kMs));
        base_rps.push_back(150.0);
    }
    for (const auto &model : models::ModelZoo::qaRobotModels()) {
        w.functions.push_back(
            functionSpec(model, w.functions.size(), 50 * kMs));
        base_rps.push_back(300.0);
    }
    setLengths(w, 900 * kSec, 30 * kSec, smoke);
    auto &faults = w.opts.faults;
    faults.serverMtbfSec = 600.0;
    faults.serverMttrSec = 30.0;
    faults.startupFailureProb = 0.02;
    faults.domainOutageMtbfSec = 900.0;
    faults.domainOutageMttrSec = 60.0;
    faults.grayFraction = 0.10;
    faults.grayFactor = 4.0;
    // No crash after the trace ends, so every retry chain settles inside
    // the drain and conservation is exact at the horizon.
    faults.crashHorizon = w.traceEnd;
    w.traffic = [base_rps](const Workload &wl, std::uint64_t seed) {
        // Staggered burst trains: 3 s at 2x base, then 7 s at 0.4x.
        std::vector<workload::RateSeries> out;
        auto bins = static_cast<std::size_t>(wl.traceEnd / kSec);
        for (std::size_t f = 0; f < base_rps.size(); ++f) {
            workload::RateSeries s;
            s.binWidth = kSec;
            for (std::size_t b = 0; b < bins; ++b)
                s.rps.push_back((b + 2 * f) % 10 < 3 ? 2.0 * base_rps[f]
                                                       : 0.4 * base_rps[f]);
            out.push_back(std::move(s));
        }
        return poissonTraces(out, seed);
    };
    return w;
}

std::vector<Workload>
allWorkloads(bool smoke)
{
    return {azure2k(smoke), flat100k(smoke), cells100k(smoke),
            chaos6(smoke)};
}

// ---------------------------------------------------------------------------
// One system under test (flat or sharded), with a uniform view
// ---------------------------------------------------------------------------

struct System
{
    std::unique_ptr<core::Platform> flat;
    std::unique_ptr<core::ShardedPlatform> sharded;
    /** Every cell's platform (the flat platform is its only cell). */
    std::vector<const core::Platform *> cells;

    void run(sim::Tick until)
    {
        if (flat)
            flat->run(until);
        else
            sharded->run(until);
    }

    const metrics::RunMetrics &total() const
    {
        return flat ? flat->totalMetrics() : sharded->totalMetrics();
    }

    std::uint64_t events() const
    {
        std::uint64_t sum = 0;
        for (const core::Platform *c : cells)
            sum += c->simulation().events().executed();
        return sum;
    }

    std::int64_t routedTo(std::size_t cell) const
    {
        return flat ? total().arrivals() : sharded->routedTo(cell);
    }
};

struct Setup
{
    std::unique_ptr<System> system;
    std::int64_t injected = 0;
    /** Slice boundaries that carry an arrival (traced runs skip them). */
    std::unordered_set<sim::Tick> busyBoundaries;
    std::vector<std::string> errors;
};

Setup
buildSystem(const Workload &w, std::uint64_t seed, bool profiling,
            std::size_t threads)
{
    Setup s;
    std::vector<workload::ArrivalTrace> traces = w.traffic(w, seed);
    for (std::size_t f = 0; f < traces.size(); ++f) {
        const workload::ArrivalTrace &t = traces[f];
        if (!t.empty() && t.duration() >= w.traceEnd)
            s.errors.push_back("trace of " + w.functions[f].name +
                               " ends after its window");
        s.injected += static_cast<std::int64_t>(t.size());
        if (profiling) {
            for (sim::Tick a : t.arrivals())
                if (a % kSlice == 0)
                    s.busyBoundaries.insert(a);
        }
    }

    core::PlatformOptions opts = w.opts;
    opts.obs.profiling = profiling;
    s.system = std::make_unique<System>();
    System &sys = *s.system;
    if (w.cells == 1) {
        sys.flat = std::make_unique<core::Platform>(w.servers, opts);
        for (std::size_t f = 0; f < w.functions.size(); ++f)
            sys.flat->injectTrace(sys.flat->deploy(w.functions[f]),
                                  std::move(traces[f]));
        sys.cells.push_back(sys.flat.get());
    } else {
        core::CellOptions cell_opts;
        cell_opts.cells = w.cells;
        cell_opts.windowTicks = kSlice;
        cell_opts.threads = threads;
        sys.sharded = std::make_unique<core::ShardedPlatform>(
            w.servers, opts, cell_opts);
        for (std::size_t f = 0; f < w.functions.size(); ++f)
            sys.sharded->injectTrace(sys.sharded->deploy(w.functions[f]),
                                     std::move(traces[f]));
        for (std::size_t c = 0; c < sys.sharded->cellCount(); ++c)
            sys.cells.push_back(&sys.sharded->cell(c));
    }
    return s;
}

// ---------------------------------------------------------------------------
// Simulated outputs: digest and sim_* metrics
// ---------------------------------------------------------------------------

/** FNV-1a over 64-bit words. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
    void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
    void add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
    void add(const metrics::LatencyHistogram &hist)
    {
        add(hist.count());
        add(hist.sum());
        for (std::size_t b = 0; b < hist.bucketCount(); ++b)
            add(hist.bucketSamples(b));
    }
};

std::uint64_t
simDigest(const System &sys, sim::Tick horizon)
{
    const metrics::RunMetrics &m = sys.total();
    Digest d;
    for (std::int64_t v :
         {m.arrivals(), m.completions(), m.drops(), m.sloViolations(),
          m.coldLaunches(), m.warmLaunches(), m.batches(),
          m.serverCrashes(), m.startupFailures(), m.retries(),
          m.failovers(), m.lostBatchRequests(), m.sheds(),
          m.breakerSheds(), m.queueEvictions(), m.breakerOpens(),
          m.limiterSheds(), m.healthEjections(), m.domainOutages()})
        d.add(v);
    d.add(m.throughputPerResource(horizon, cluster::kDefaultBeta));
    for (const metrics::LatencyHistogram *h :
         {&m.latency(), &m.queueTime(), &m.execTime(), &m.coldTime(),
          &m.batchTime()})
        d.add(*h);
    for (const core::Platform *c : sys.cells) {
        d.add(c->simulation().events().executed());
        d.add(c->inFlightRequests());
        d.add(static_cast<std::int64_t>(c->liveInstanceCount()));
        d.add(c->meanFragmentRatio());
    }
    return d.h;
}

struct SimMetrics
{
    double goodputRps = 0.0;
    double latencyP50Ms = 0.0;
    double latencyP99Ms = 0.0;
    double dropRate = 0.0;
    double tputPerResource = 0.0;
};

SimMetrics
simMetrics(const System &sys, sim::Tick horizon)
{
    const metrics::RunMetrics &m = sys.total();
    SimMetrics s;
    s.goodputRps = static_cast<double>(m.completions() - m.sloViolations()) /
                   sim::ticksToSec(horizon);
    s.latencyP50Ms = ticksToMs(histPercentile(m.latency(), 50.0));
    s.latencyP99Ms = ticksToMs(histPercentile(m.latency(), 99.0));
    // Sheds are drops too (Platform::shedRequest drops the request).
    s.dropRate = m.arrivals() > 0 ? static_cast<double>(m.drops()) /
                                        static_cast<double>(m.arrivals())
                                  : 0.0;
    s.tputPerResource =
        m.throughputPerResource(horizon, cluster::kDefaultBeta);
    return s;
}

std::vector<std::string>
checkSystem(const System &sys, std::int64_t injected)
{
    benchmark::RunFacts f;
    f.injected = injected;
    const metrics::RunMetrics &m = sys.total();
    f.arrivals = m.arrivals();
    f.completions = m.completions();
    f.drops = m.drops();
    for (const core::Platform *c : sys.cells) {
        f.truncated = f.truncated || c->simulation().events().truncated();
        f.inFlight += c->inFlightRequests();
        f.cellsBalanced = f.cellsBalanced && c->auditConservation();
    }
    return benchmark::checkRun(f);
}

// ---------------------------------------------------------------------------
// Bench-level spans (the traced run's timeline)
// ---------------------------------------------------------------------------

struct Span
{
    std::string name;
    double startUs = 0.0;
    double durUs = 0.0;
    std::string args; ///< pre-rendered JSON object body, may be empty
};

struct SpanLog
{
    Clock::time_point origin = Clock::now();
    std::vector<Span> spans;

    double usSince(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - origin).count();
    }
    void add(std::string name, Clock::time_point start, std::string args = {})
    {
        double s = usSince(start);
        spans.push_back({std::move(name), s, usSince(Clock::now()) - s,
                         std::move(args)});
    }
    void write(std::ostream &os) const
    {
        os << "{\"traceEvents\": [\n";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            os << "  {\"name\": \"" << s.name
               << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
               << std::fixed << std::setprecision(3) << s.startUs
               << ", \"dur\": " << s.durUs << ", \"args\": {" << s.args
               << "}}" << (i + 1 < spans.size() ? "," : "") << "\n";
        }
        os << "]}\n";
    }
};

// ---------------------------------------------------------------------------
// Repetitions
// ---------------------------------------------------------------------------

struct Rep
{
    bool traced = false;
    double setupS = 0.0;
    double wallS = 0.0;
    std::uint64_t digest = 0;
    SimMetrics sim;
    std::vector<std::string> errors;
    /** Heap bytes in use after the run minus before set-up. */
    double heapBytes = 0.0;
    /** Process peak RSS after this repetition. */
    double maxRssMb = 0.0;
    // Traced repetitions only --------------------------------------------
    std::vector<double> sliceMs;
    /** Lockstep windows per slice (2 where a busy boundary was skipped). */
    std::vector<std::size_t> sliceWindows;
    /** Events each cell executed in each slice. */
    std::vector<std::vector<std::uint64_t>> sliceCellEvents;
};

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
heapInUse()
{
    struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd);
}

/**
 * One repetition. Untraced: one run() to the horizon. Traced: run() in
 * 250 ms slices, skipping any slice boundary that carries an arrival —
 * ShardedPlatform closes the final window of a run(), so a boundary
 * arrival would be routed a window early and change the outputs.
 */
Rep
runRep(const Workload &w, std::uint64_t seed, bool traced,
       std::size_t threads, SpanLog *log,
       std::unique_ptr<System> *keep = nullptr)
{
    Rep rep;
    rep.traced = traced;
    double heap_before = heapInUse();
    auto setup_start = Clock::now();
    Setup s = buildSystem(w, seed, traced, threads);
    rep.setupS = secondsSince(setup_start);
    if (log)
        log->add("setup", setup_start);
    rep.errors = s.errors;
    System &sys = *s.system;

    auto run_start = Clock::now();
    if (!traced) {
        sys.run(w.horizon);
        rep.wallS = secondsSince(run_start);
    } else {
        std::vector<std::uint64_t> last(sys.cells.size(), 0);
        sim::Tick cursor = 0;
        while (cursor < w.horizon) {
            sim::Tick end = std::min(cursor + kSlice, w.horizon);
            std::size_t windows = 1;
            while (end < w.horizon && s.busyBoundaries.count(end)) {
                end = std::min(end + kSlice, w.horizon);
                ++windows;
            }
            auto slice_start = Clock::now();
            sys.run(end);
            double ms = 1e3 * secondsSince(slice_start);
            std::vector<std::uint64_t> per_cell(sys.cells.size(), 0);
            std::uint64_t slice_events = 0;
            for (std::size_t c = 0; c < sys.cells.size(); ++c) {
                std::uint64_t now =
                    sys.cells[c]->simulation().events().executed();
                per_cell[c] = now - last[c];
                slice_events += per_cell[c];
                last[c] = now;
            }
            rep.sliceMs.push_back(ms);
            rep.sliceWindows.push_back(windows);
            rep.sliceCellEvents.push_back(std::move(per_cell));
            if (log)
                log->add("slice", slice_start,
                         "\"sim_end_ms\": " + std::to_string(end / kMs) +
                             ", \"events\": " +
                             std::to_string(slice_events));
            cursor = end;
        }
        rep.wallS = secondsSince(run_start);
    }
    if (log)
        log->add("run", run_start);

    rep.heapBytes = heapInUse() - heap_before;
    rep.maxRssMb = peakRssMb();
    rep.digest = simDigest(sys, w.horizon);
    rep.sim = simMetrics(sys, w.horizon);
    for (std::string &e : checkSystem(sys, s.injected))
        rep.errors.push_back(std::move(e));
    if (keep)
        *keep = std::move(s.system);
    return rep;
}

// ---------------------------------------------------------------------------
// Probes: public calls timed on copies of the final state
// ---------------------------------------------------------------------------

/** Keeps probe results observable so the timed calls are not elided. */
volatile double probeSink = 0.0;

/** Mean wall ns per call of @p f, in batches until @p min_s elapse. */
template <typename F>
double
nsPerCall(F &&f, double min_s = 0.02)
{
    std::uint64_t batch = 1;
    std::uint64_t calls = 0;
    double acc = 0.0;
    auto start = Clock::now();
    double elapsed = 0.0;
    while (elapsed < min_s) {
        for (std::uint64_t i = 0; i < batch; ++i)
            acc += static_cast<double>(f());
        calls += batch;
        elapsed = secondsSince(start);
        if (elapsed < min_s / 16)
            batch *= 2;
    }
    probeSink = probeSink + acc;
    return 1e9 * elapsed / static_cast<double>(calls);
}

/** One instance's batch cycle: arm a far deadline and a batch-window
 *  timer; the fixed batch completion usually cancels both. */
void
batchCycle(sim::EventQueue &q, std::uint64_t *sum, std::uint64_t state,
           int hops, sim::Tick period)
{
    *sum += state ^ static_cast<std::uint64_t>(q.now());
    if (hops <= 0)
        return;
    state = state * 0x9e3779b97f4a7c15ULL + 1;
    sim::EventId deadline = q.schedule(q.now() + 40 * period,
                                       [sum, state] { *sum ^= state; });
    sim::EventId window =
        q.schedule(q.now() + period + 2,
                   [&q, sum, state, hops, period, deadline] {
                       q.cancel(deadline);
                       batchCycle(q, sum, state, hops - 1, period);
                   });
    if ((state & 15) == 0)
        return; // the batch window expires and continues the chain
    q.scheduleFixed(q.now() + period, [&q, sum, state, hops, period, window,
                                       deadline] {
        q.cancel(window);
        q.cancel(deadline);
        batchCycle(q, sum, state, hops - 1, period);
    });
}

/** ns per executed event of an EventQueue drain of 4,000 batch cycles. */
double
drainNsPerEvent()
{
    std::vector<double> samples;
    for (int rep = 0; rep < 3; ++rep) {
        sim::EventQueue q;
        std::uint64_t sum = 0;
        sim::Rng rng(4242);
        for (int i = 0; i < 4000; ++i) {
            std::uint64_t state = rng.raw();
            auto period = static_cast<sim::Tick>(rng.uniformInt(1, 16));
            q.scheduleFixed(rng.uniformInt(1, 64), [&q, &sum, state,
                                                    period] {
                batchCycle(q, &sum, state, 32, period);
            });
        }
        auto start = Clock::now();
        q.runAll();
        samples.push_back(1e9 * secondsSince(start) /
                          static_cast<double>(q.executed()));
        probeSink = probeSink + static_cast<double>(sum);
    }
    return median(samples);
}

struct ProbeResults
{
    double totalAllocatedNs = 0.0;
    double fragmentRatioNs = 0.0;
    double bestFitNs = 0.0;
    double allocReleaseNs = 0.0;
    double scheduleNs = 0.0;
    double copRawColdNs = 0.0;
    double copPredictWarmNs = 0.0;
    double latencyCacheNs = 0.0;
    double recordCompletionNs = 0.0;
    double traceRecordNs = 0.0;
    double sloRecordNs = 0.0;
    double drainNsPerEvent = 0.0;
};

/** Distinct models of the workload's functions, in deploy order. */
std::vector<const models::ModelInfo *>
deployedModels(const Workload &w)
{
    std::vector<const models::ModelInfo *> out;
    for (const core::FunctionSpec &f : w.functions) {
        const models::ModelInfo *m = &models::ModelZoo::shared().get(f.model);
        if (std::find(out.begin(), out.end(), m) == out.end())
            out.push_back(m);
    }
    return out;
}

ProbeResults
runProbes(const Workload &w, const System &sys, SpanLog &log)
{
    ProbeResults r;
    auto t = Clock::now();
    // Cells are near-equal contiguous slices, so cell 0 stands for all.
    const cluster::Cluster final_fleet = sys.cells[0]->cluster();
    cluster::Cluster fleet = final_fleet;
    const cluster::Resources req{1000, 10, 2048};
    r.totalAllocatedNs = nsPerCall(
        [&] { return fleet.totalAllocated().cpuMillicores; });
    r.fragmentRatioNs = nsPerCall([&] { return fleet.fragmentRatio(); });
    r.bestFitNs = nsPerCall(
        [&] { return fleet.bestFit(req, cluster::kDefaultBeta); });
    cluster::ServerId target = fleet.bestFit(req, cluster::kDefaultBeta);
    r.allocReleaseNs = nsPerCall([&] {
        if (target == cluster::kNoServer || !fleet.allocate(target, req))
            return 0;
        fleet.release(target, req);
        return 1;
    });
    log.add("probe_cluster", t);

    t = Clock::now();
    models::ExecModel exec(w.opts.exec);
    profiler::OpProfileDb db(exec);
    profiler::CopPredictor warm(db, w.opts.cop);
    core::GreedyScheduler sched(warm, w.opts.scheduler);
    std::vector<const models::ModelInfo *> used = deployedModels(w);
    for (const models::ModelInfo *m : used)
        sched.prewarm(*m, 32);
    std::vector<double> schedule_ns;
    for (int round = 0; round < 3; ++round) {
        for (const core::FunctionSpec &f : w.functions) {
            if (schedule_ns.size() >= 64)
                break;
            cluster::Cluster copy = final_fleet;
            const models::ModelInfo &m =
                models::ModelZoo::shared().get(f.model);
            auto start = Clock::now();
            auto plans = sched.schedule(m, 100.0, f.sloTicks, f.maxBatch,
                                        copy);
            schedule_ns.push_back(1e9 * secondsSince(start));
            probeSink = probeSink + static_cast<double>(plans.size());
        }
    }
    r.scheduleNs = median(schedule_ns);
    log.add("probe_schedule", t);

    t = Clock::now();
    const core::SchedulerConfig &sc = w.opts.scheduler;
    std::vector<std::pair<const models::ModelInfo *, cluster::Resources>>
        points;
    for (const models::ModelInfo *m : used)
        for (std::int64_t cpu : sc.cpuChoices)
            for (std::int64_t gpu : sc.gpuChoices)
                points.push_back({m, cluster::Resources{cpu, gpu, 0}});
    // Cold composition: a fresh predictor over the warmed profile db, so
    // each call misses its memo and composes over Dag::criticalPath.
    std::uint64_t cold_calls = 0;
    auto cold_start = Clock::now();
    double acc = 0.0;
    while (cold_calls == 0 || secondsSince(cold_start) < 0.02) {
        profiler::CopPredictor fresh(db, w.opts.cop);
        for (const auto &[m, res] : points) {
            acc += fresh.rawMicros(*m, 8, res);
            ++cold_calls;
        }
    }
    r.copRawColdNs =
        1e9 * secondsSince(cold_start) / static_cast<double>(cold_calls);
    std::size_t next = 0;
    r.copPredictWarmNs = nsPerCall([&] {
        const auto &[m, res] = points[next++ % points.size()];
        return warm.predict(*m, 8, res);
    });
    models::LatencyCache cache;
    for (const auto &[m, res] : points)
        acc += cache.trueTicks(exec, *m, 8, res);
    r.latencyCacheNs = nsPerCall([&] {
        const auto &[m, res] = points[next++ % points.size()];
        return cache.trueTicks(exec, *m, 8, res);
    });
    probeSink = probeSink + acc;
    log.add("probe_pricing", t);

    t = Clock::now();
    metrics::RunMetrics rm;
    sim::Tick now = 0;
    r.recordCompletionNs = nsPerCall([&] {
        now += 997;
        metrics::LatencyBreakdown parts;
        parts.queue = now % 50'000;
        parts.exec = 20'000 + now % 7'000;
        rm.recordCompletion(now, parts, 200 * kMs);
        return 0;
    });
    obs::TraceRecorder tracer;
    tracer.configure(obs::TraceConfig{1.0, std::size_t{1} << 16});
    std::int64_t request = 0;
    r.traceRecordNs = nsPerCall([&] {
        ++request;
        tracer.record(obs::SpanKind::Exec, request, 1, 2, request / 8,
                      request * 10, 500);
        return 0;
    });
    obs::SloMonitor monitor;
    obs::SloMonitorConfig slo_cfg;
    slo_cfg.enabled = true;
    monitor.configure(slo_cfg);
    monitor.registerFunction(0, 200 * kMs);
    sim::Tick at = 0;
    r.sloRecordNs = nsPerCall([&] {
        at += 997;
        monitor.recordCompletion(0, at, 30'000 + at % 9'000, 0, 5'000,
                                 1'000, 24'000 + at % 9'000);
        return 0;
    });
    log.add("probe_record", t);

    t = Clock::now();
    r.drainNsPerEvent = drainNsPerEvent();
    log.add("probe_drain", t);
    return r;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

std::string
num(double v)
{
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
}

/** Controller-phase stats summed over cells (p50/p99: count-weighted
 *  mean of the per-cell percentiles; exact for a flat platform). */
obs::PhaseStats
phaseStats(const System &sys, obs::Phase phase)
{
    obs::PhaseStats out;
    double p50 = 0.0;
    double p99 = 0.0;
    for (const core::Platform *c : sys.cells) {
        obs::PhaseStats s = c->overheads().stats(phase);
        out.count += s.count;
        out.totalUs += s.totalUs;
        p50 += s.p50Us * static_cast<double>(s.count);
        p99 += s.p99Us * static_cast<double>(s.count);
    }
    if (out.count > 0) {
        out.p50Us = p50 / static_cast<double>(out.count);
        out.p99Us = p99 / static_cast<double>(out.count);
    }
    return out;
}

std::vector<Metric>
layerMetrics(const System &sys, const std::vector<Rep> &reps,
             const ProbeResults &probe, std::size_t threads)
{
    std::vector<double> untraced_wall;
    std::vector<double> traced_wall;
    std::vector<double> slice_ms;
    std::vector<double> window_ms;
    double straggle_num = 0.0;
    double straggle_den = 0.0;
    double heap = 0.0;
    std::size_t windows = 0; // lockstep windows of one traced repetition
    for (const Rep &r : reps) {
        (r.traced ? traced_wall : untraced_wall).push_back(r.wallS);
        if (!r.traced)
            continue;
        heap = r.heapBytes;
        windows = 0;
        for (std::size_t n : r.sliceWindows)
            windows += n;
        for (std::size_t i = 0; i < r.sliceMs.size(); ++i) {
            slice_ms.push_back(r.sliceMs[i]);
            window_ms.push_back(r.sliceMs[i] /
                                static_cast<double>(r.sliceWindows[i]));
            const auto &ev = r.sliceCellEvents[i];
            double mx = 0.0;
            double sum = 0.0;
            for (std::uint64_t e : ev) {
                mx = std::max(mx, static_cast<double>(e));
                sum += static_cast<double>(e);
            }
            straggle_num += mx - sum / static_cast<double>(ev.size());
            straggle_den += mx;
        }
    }
    const double wall = median(untraced_wall);
    const double traced = median(traced_wall);
    const metrics::RunMetrics &m = sys.total();
    const double events = static_cast<double>(sys.events());

    std::uint64_t cancels = 0;
    double scans = 0.0;
    std::int64_t routed_max = 0;
    std::int64_t routed_sum = 0;
    std::uint64_t trace_spans = 0;
    std::uint64_t flight_spans = 0;
    for (std::size_t c = 0; c < sys.cells.size(); ++c) {
        const core::Platform &p = *sys.cells[c];
        cancels += p.simulation().events().cancellations();
        // Each launch and each reap or kill rescans the cell's fleet.
        scans += static_cast<double>(2 * p.totalLaunches() -
                                     p.liveInstanceCount());
        routed_max = std::max(routed_max, sys.routedTo(c));
        routed_sum += sys.routedTo(c);
        trace_spans += p.tracer().recorded();
        flight_spans += p.flightRecorder().recorded();
    }

    obs::PhaseStats sched = phaseStats(sys, obs::Phase::Schedule);
    obs::PhaseStats scaler = phaseStats(sys, obs::Phase::Autoscaler);
    obs::PhaseStats cop = phaseStats(sys, obs::Phase::CopSolve);
    obs::PhaseStats policy = phaseStats(sys, obs::Phase::ColdStartPolicy);
    const double parallel =
        static_cast<double>(std::min(threads, sys.cells.size()));
    std::uint64_t decisions = 0;
    for (const core::Platform *c : sys.cells)
        decisions += c->schedulerDecisions();

    return {
        {"sim.events", events, "count"},
        {"sim.ns_per_event", 1e9 * wall / events, "ns"},
        {"sim.events_per_s", events / wall, "1/s"},
        {"sim.cancel_ratio",
         static_cast<double>(cancels) / (events + static_cast<double>(cancels)),
         "ratio"},
        {"sim.slice_ms_p50", percentile(slice_ms, 50), "ms"},
        {"sim.slice_ms_p99", percentile(slice_ms, 99), "ms"},
        {"sim.drain_ns_per_event", probe.drainNsPerEvent, "ns"},
        {"cluster.total_allocated_ns", probe.totalAllocatedNs, "ns"},
        {"cluster.fragment_ratio_ns", probe.fragmentRatioNs, "ns"},
        {"cluster.best_fit_ns", probe.bestFitNs, "ns"},
        {"cluster.alloc_release_ns", probe.allocReleaseNs, "ns"},
        {"cluster.scan_share_est",
         scans * (probe.totalAllocatedNs + probe.fragmentRatioNs) /
             (1e9 * wall * parallel),
         "ratio"},
        {"core.sched.decisions", static_cast<double>(decisions), "count"},
        {"core.sched.total_s", sched.totalUs / 1e6, "s"},
        {"core.sched.us_p50", sched.p50Us, "us"},
        {"core.sched.us_p99", sched.p99Us, "us"},
        {"core.sched.schedule_ns", probe.scheduleNs, "ns"},
        {"core.autoscaler.ticks", static_cast<double>(scaler.count),
         "count"},
        {"core.autoscaler.total_s", scaler.totalUs / 1e6, "s"},
        {"core.autoscaler.us_p99", scaler.p99Us, "us"},
        {"core.outside_autoscaler_s",
         traced - scaler.totalUs / 1e6 / parallel, "s"},
        {"core.launches", static_cast<double>(m.launches()), "count"},
        {"core.cold_launch_rate", m.coldLaunchRate(), "ratio"},
        {"core.batch_fill", m.meanBatchFill(), "req"},
        // Means, not tails: these simulated durations take a few discrete
        // values, so their p99 sits on a point mass and reads the same on
        // every seed. The means add up: cold + queue + exec = latency.
        {"core.queue_ms_mean", ticksToMs(m.queueTime().mean()), "ms"},
        {"core.batch_ms_mean", ticksToMs(m.batchTime().mean()), "ms"},
        {"core.exec_ms_mean", ticksToMs(m.execTime().mean()), "ms"},
        {"coldstart.cold_ms_mean", ticksToMs(m.coldTime().mean()), "ms"},
        {"core.cells.windows", static_cast<double>(windows), "count"},
        {"core.cells.window_ms_p50", percentile(window_ms, 50), "ms"},
        {"core.cells.window_ms_p99", percentile(window_ms, 99), "ms"},
        {"core.cells.straggler_idle_frac",
         straggle_den > 0.0 ? straggle_num / straggle_den : 0.0, "ratio"},
        {"core.cells.route_max_share",
         routed_sum > 0 ? static_cast<double>(routed_max) /
                              static_cast<double>(routed_sum)
                        : 0.0,
         "ratio"},
        {"profiler.cop.calls", static_cast<double>(cop.count), "count"},
        {"profiler.cop.total_s", cop.totalUs / 1e6, "s"},
        {"profiler.cop.us_p99", cop.p99Us, "us"},
        {"profiler.cop.raw_cold_ns", probe.copRawColdNs, "ns"},
        {"profiler.cop.predict_warm_ns", probe.copPredictWarmNs, "ns"},
        {"models.exec_cache.hit_rate", m.execCacheHitRate(), "ratio"},
        {"models.latency_cache_ns", probe.latencyCacheNs, "ns"},
        {"coldstart.policy.calls", static_cast<double>(policy.count),
         "count"},
        {"coldstart.policy.total_s", policy.totalUs / 1e6, "s"},
        {"metrics.drop_rate", reps.front().sim.dropRate, "ratio"},
        {"metrics.tput_per_resource", reps.front().sim.tputPerResource,
         "req/res-s"},
        {"metrics.record_completion_ns", probe.recordCompletionNs, "ns"},
        {"metrics.heap_bytes_per_request",
         heap / static_cast<double>(m.arrivals()), "B"},
        {"overload.sheds",
         static_cast<double>(m.sheds() + m.breakerSheds() +
                             m.limiterSheds()),
         "count"},
        {"overload.evictions", static_cast<double>(m.queueEvictions()),
         "count"},
        {"overload.breaker_opens", static_cast<double>(m.breakerOpens()),
         "count"},
        {"faults.crashes", static_cast<double>(m.serverCrashes()), "count"},
        {"faults.failovers", static_cast<double>(m.failovers()), "count"},
        {"faults.lost_batch_requests",
         static_cast<double>(m.lostBatchRequests()), "count"},
        {"health.ejections", static_cast<double>(m.healthEjections()),
         "count"},
        {"obs.trace.spans", static_cast<double>(trace_spans), "count"},
        {"obs.flight.spans", static_cast<double>(flight_spans), "count"},
        {"obs.trace.record_ns", probe.traceRecordNs, "ns"},
        {"obs.slo.record_ns", probe.sloRecordNs, "ns"},
        {"obs.profiling_overhead", traced / wall - 1.0, "ratio"},
    };
}

std::vector<Metric>
endToEndMetrics(const std::vector<Rep> &reps)
{
    std::vector<double> wall;
    std::vector<double> setup;
    for (const Rep &r : reps) {
        wall.push_back(r.wallS);
        setup.push_back(r.setupS);
    }
    const SimMetrics &s = reps.front().sim;
    return {
        {"wall_s", median(wall), "s"},
        {"setup_s", median(setup), "s"},
        // After the first repetition: later ones only add allocator reuse.
        {"peak_rss_mb", reps.front().maxRssMb, "MiB"},
        {"sim_goodput_rps", s.goodputRps, "req/s"},
        {"sim_latency_p50_ms", s.latencyP50Ms, "ms"},
        {"sim_latency_p99_ms", s.latencyP99Ms, "ms"},
    };
}

std::string
hex(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
    return os.str();
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    bool smoke = false;
    std::size_t threads = 0;
    std::string out;
    bool list = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "infless_bench: " << why << "\n"
              << "usage: infless_bench --workload NAME [--seed N] "
                 "[--seconds S] [--trace [0|1]] [--smoke] [--threads N] "
                 "[--out DIR] | --list\n";
    std::exit(2);
}

bool
parseUnsigned(const char *s, std::uint64_t &out)
{
    if (s == nullptr || *s == '\0' || *s == '-')
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || *end != '\0')
        return false;
    out = v;
    return true;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        std::uint64_t n = 0;
        if (arg == "--workload" && value) {
            a.workload = value;
            ++i;
        } else if (arg == "--seed") {
            if (!parseUnsigned(value, a.seed))
                usage("--seed needs a non-negative integer");
            ++i;
        } else if (arg == "--seconds") {
            if (!parseUnsigned(value, n) || n > 3600)
                usage("--seconds needs an integer in [0, 3600]");
            a.seconds = static_cast<double>(n);
            ++i;
        } else if (arg == "--trace") {
            a.trace = true;
            if (value && (std::strcmp(value, "0") == 0 ||
                          std::strcmp(value, "1") == 0)) {
                a.trace = value[0] == '1';
                ++i;
            }
        } else if (arg == "--smoke") {
            a.smoke = true;
        } else if (arg == "--threads") {
            if (!parseUnsigned(value, n) || n == 0 || n > 1024)
                usage("--threads needs an integer in [1, 1024]");
            a.threads = static_cast<std::size_t>(n);
            ++i;
        } else if (arg == "--out" && value) {
            a.out = value;
            ++i;
        } else if (arg == "--list") {
            a.list = true;
        } else {
            usage("unknown or incomplete argument '" + arg + "'");
        }
    }
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    // Fixed thresholds: glibc otherwise raises them after large frees, and
    // peak RSS then depends on allocation history rather than on live
    // memory (it moved by 13 % between seeds of one workload).
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    mallopt(M_TRIM_THRESHOLD, 128 * 1024);
    Args args = parseArgs(argc, argv);
    std::vector<Workload> workloads = allWorkloads(args.smoke);
    if (args.list) {
        for (const Workload &w : workloads)
            std::cout << w.name << "\n";
        return 0;
    }
    auto it = std::find_if(workloads.begin(), workloads.end(),
                           [&](const Workload &w) {
                               return w.name == args.workload;
                           });
    if (it == workloads.end())
        usage("unknown workload '" + args.workload + "'");
    const Workload &w = *it;
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const std::size_t threads = args.threads ? args.threads : hw;

    // A round is one untraced repetition, or an untraced + traced pair.
    // At least three untraced rounds (one pair, or one round in smoke
    // mode); more while the next round is expected to fit the budget.
    SpanLog log;
    std::vector<Rep> reps;
    std::unique_ptr<System> last_traced;
    const std::size_t min_rounds = args.trace || args.smoke ? 1 : 3;
    auto start = Clock::now();
    for (std::size_t rounds = 1;; ++rounds) {
        reps.push_back(runRep(w, args.seed, false, threads, nullptr));
        if (args.trace) {
            last_traced.reset();
            reps.push_back(
                runRep(w, args.seed, true, threads, &log, &last_traced));
        }
        bool failed = std::any_of(reps.begin(), reps.end(),
                                  [](const Rep &r) {
                                      return !r.errors.empty();
                                  });
        double elapsed = secondsSince(start);
        double per_round = elapsed / static_cast<double>(rounds);
        if (failed || (rounds >= min_rounds &&
                       (args.smoke || elapsed + per_round > args.seconds)))
            break;
    }

    // Every repetition must be correct and reproduce the same digest.
    std::int64_t failed = 0;
    std::vector<std::string> errors;
    for (const Rep &r : reps) {
        std::vector<std::string> e = r.errors;
        if (r.digest != reps.front().digest)
            e.push_back(std::string(r.traced ? "traced" : "untraced") +
                        " digest " + hex(r.digest) + " != first " +
                        hex(reps.front().digest));
        if (!e.empty())
            ++failed;
        for (std::string &m : e)
            errors.push_back(std::move(m));
    }

    std::vector<Metric> out;
    if (args.trace) {
        ProbeResults probe = runProbes(w, *last_traced, log);
        out = layerMetrics(*last_traced, reps, probe, threads);
    } else {
        out = endToEndMetrics(reps);
    }
    for (const Metric &m : out)
        if (!std::isfinite(m.value))
            errors.push_back("metric " + m.name + " is not finite");
    if (failed == 0 && !errors.empty())
        failed = 1;
    const bool correct = errors.empty();

    for (const std::string &e : errors)
        std::cerr << "infless_bench: " << w.name << ": " << e << "\n";
    std::cout << w.name << " digest " << hex(reps.front().digest)
              << " hex\n";
    for (const Metric &m : out)
        std::cout << w.name << " " << m.name << " " << num(m.value) << " "
                  << m.unit << "\n";

    std::ostringstream metrics_json;
    metrics_json << "{";
    for (std::size_t i = 0; i < out.size(); ++i)
        metrics_json << (i ? ", " : "") << "\"" << out[i].name
                     << "\": {\"value\": " << num(out[i].value)
                     << ", \"unit\": \"" << out[i].unit << "\"}";
    metrics_json << "}";

    if (!args.out.empty()) {
        std::string stem = args.out + "/" + w.name + "-seed" +
                           std::to_string(args.seed) +
                           (args.trace ? "-trace" : "");
        std::ofstream js(stem + ".json");
        js << "{\"workload\": \"" << w.name << "\", \"seed\": " << args.seed
           << ", \"trace\": " << (args.trace ? "true" : "false")
           << ", \"smoke\": " << (args.smoke ? "true" : "false")
           << ", \"hardware_threads\": " << hw << ", \"threads\": "
           << threads << ", \"digest\": \"" << hex(reps.front().digest)
           << "\", \"correct\": " << (correct ? "true" : "false")
           << ", \"reps\": [";
        for (std::size_t i = 0; i < reps.size(); ++i)
            js << (i ? ", " : "") << "{\"traced\": "
               << (reps[i].traced ? "true" : "false")
               << ", \"setup_s\": " << num(reps[i].setupS)
               << ", \"wall_s\": " << num(reps[i].wallS)
               << ", \"max_rss_mb\": " << num(reps[i].maxRssMb) << "}";
        js << "], \"metrics\": " << metrics_json.str() << "}\n";
        bool written = static_cast<bool>(js);
        if (args.trace) {
            std::ofstream tr(args.out + "/trace_" + w.name + ".json");
            log.write(tr);
            written = written && static_cast<bool>(tr);
        }
        if (!written)
            std::cerr << "infless_bench: cannot write results under "
                      << args.out << "\n";
    }

    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << reps.size()
              << ", \"failed\": " << failed
              << ", \"metrics\": " << metrics_json.str() << "}\n";
    return correct ? 0 : 1;
}

/**
 * @file
 * Command-line simulation runner: drive any of the three systems with a
 * synthetic pattern or a real Azure-format trace file, and get the run's
 * headline metrics (optionally a provisioning timeline CSV).
 *
 * Examples:
 *   infless_sim --pattern bursty --mean 80 --minutes 20
 *   infless_sim --system batch --model LSTM-2365 --slo 50
 *   infless_sim --trace mytrace.csv --timeline provisioning.csv
 */

#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "baselines/batch_otp.hh"
#include "baselines/openfaas_plus.hh"
#include "core/platform.hh"
#include "sim/logging.hh"
#include "metrics/report.hh"
#include "metrics/timeline.hh"
#include "models/model_zoo.hh"
#include "workload/azure_synth.hh"
#include "workload/trace_io.hh"

using namespace infless;

namespace {

struct Options
{
    std::string system = "infless";
    std::string pattern = "periodic";
    std::string trace;
    std::string timeline;
    std::string model = "ResNet-50";
    double meanRps = 60.0;
    int minutes = 15;
    int sloMs = 200;
    std::size_t servers = 8;
    std::uint64_t seed = 1;
};

int
usage()
{
    std::cerr
        << "usage: infless_sim [options]\n"
           "  --system infless|openfaas|batch   platform (default infless)\n"
           "  --pattern sporadic|periodic|bursty  synthetic trace shape\n"
           "  --trace FILE.csv   Azure-format trace (overrides --pattern)\n"
           "  --model NAME       zoo model for synthetic runs\n"
           "  --mean RPS         synthetic mean rate (default 60)\n"
           "  --minutes M        run length (default 15)\n"
           "  --slo MS           latency SLO (default 200)\n"
           "  --servers N        cluster size (default 8)\n"
           "  --seed S           random seed (default 1)\n"
           "  --timeline FILE.csv  write a provisioning timeline\n";
    return 2;
}

std::unique_ptr<core::Platform>
makePlatform(const Options &opts)
{
    core::PlatformOptions popts;
    popts.seed = opts.seed;
    if (opts.system == "infless")
        return std::make_unique<core::Platform>(opts.servers, popts);
    if (opts.system == "openfaas")
        return std::make_unique<baselines::OpenFaasPlus>(opts.servers,
                                                         popts);
    if (opts.system == "batch")
        return std::make_unique<baselines::BatchOtp>(opts.servers, popts);
    sim::fatal("unknown system: ", opts.system);
}

int
run(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                sim::fatal("missing value for ", arg);
            return argv[i];
        };
        if (arg == "--system")
            opts.system = next();
        else if (arg == "--pattern")
            opts.pattern = next();
        else if (arg == "--trace")
            opts.trace = next();
        else if (arg == "--model")
            opts.model = next();
        else if (arg == "--mean")
            opts.meanRps = std::stod(next());
        else if (arg == "--minutes")
            opts.minutes = std::stoi(next());
        else if (arg == "--slo")
            opts.sloMs = std::stoi(next());
        else if (arg == "--servers")
            opts.servers = static_cast<std::size_t>(std::stoul(next()));
        else if (arg == "--seed")
            opts.seed = std::stoull(next());
        else if (arg == "--timeline")
            opts.timeline = next();
        else
            return usage();
    }

    auto platform = makePlatform(opts);
    sim::Tick horizon =
        static_cast<sim::Tick>(opts.minutes) * sim::kTicksPerMin;

    if (!opts.trace.empty()) {
        // One function per trace row; models assigned round-robin from
        // the zoo's application bundles.
        auto traces = workload::readAzureCsv(opts.trace);
        auto bundle = models::ModelZoo::osvtModels();
        std::size_t next_model = 0;
        for (const auto &[name, series] : traces) {
            core::FunctionSpec spec;
            spec.name = name;
            spec.model = bundle[next_model++ % bundle.size()];
            spec.sloTicks = sim::msToTicks(opts.sloMs);
            auto fn = platform->deploy(spec);
            platform->injectRateSeries(fn, series.truncated(horizon));
        }
    } else {
        workload::TracePattern pattern;
        if (opts.pattern == "sporadic")
            pattern = workload::TracePattern::Sporadic;
        else if (opts.pattern == "periodic")
            pattern = workload::TracePattern::Periodic;
        else if (opts.pattern == "bursty")
            pattern = workload::TracePattern::Bursty;
        else
            return usage();
        core::FunctionSpec spec;
        spec.name = opts.model + "-fn";
        spec.model = opts.model;
        spec.sloTicks = sim::msToTicks(opts.sloMs);
        auto fn = platform->deploy(spec);
        platform->injectRateSeries(
            fn, workload::synthesizeTrace(pattern, opts.meanRps, 1.0,
                                          opts.seed)
                    .truncated(horizon));
    }

    metrics::TimelineSampler sampler(platform->simulation(),
                                     10 * sim::kTicksPerSec);
    sampler.track("weighted_alloc", [&] {
        return platform->cluster().totalAllocated().weighted(
            cluster::kDefaultBeta);
    });
    sampler.track("live_instances", [&] {
        return static_cast<double>(platform->liveInstanceCount());
    });

    platform->run(horizon + 10 * sim::kTicksPerSec);

    const auto &m = platform->totalMetrics();
    metrics::printHeading(std::cout, platform->name() + " run summary");
    metrics::TextTable table({"metric", "value"});
    table.addRow({"functions", std::to_string(platform->functionCount())});
    table.addRow({"requests", std::to_string(m.arrivals())});
    table.addRow({"completed", std::to_string(m.completions())});
    table.addRow({"dropped", std::to_string(m.drops())});
    table.addRow({"SLO violations",
                  metrics::fmtPercent(m.sloViolationRate())});
    table.addRow({"p99 latency (ms)",
                  metrics::fmt(
                      sim::ticksToMs(m.latency().percentile(99)), 1)});
    table.addRow({"mean batch fill", metrics::fmt(m.meanBatchFill(), 1)});
    table.addRow({"throughput/resource",
                  metrics::fmt(m.throughputPerResource(
                                   platform->endTime(),
                                   cluster::kDefaultBeta),
                               1)});
    table.addRow({"cold launches", std::to_string(m.coldLaunches())});
    table.print(std::cout);

    if (!opts.timeline.empty()) {
        std::ofstream os(opts.timeline);
        if (!os)
            sim::fatal("cannot write timeline: ", opts.timeline);
        sampler.writeCsv(os);
        std::cout << "timeline written to " << opts.timeline << "\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Bad arguments and malformed trace files raise FatalError: report
    // them and exit non-zero instead of aborting.
    try {
        return run(argc, argv);
    } catch (const sim::FatalError &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
}

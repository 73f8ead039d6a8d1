#include "metrics/timeline.hh"

#include <ostream>

#include "sim/logging.hh"

namespace infless::metrics {

TimelineSampler::TimelineSampler(sim::Simulation &sim, sim::Tick period)
    : sim_(sim)
{
    sim::simAssert(period > 0, "sampling period must be positive");
    handle_ = sim_.every(period, [this] { sample(); });
}

TimelineSampler::~TimelineSampler()
{
    stop();
}

void
TimelineSampler::stop()
{
    if (handle_)
        handle_->stop();
}

void
TimelineSampler::track(const std::string &name, Probe probe)
{
    sim::simAssert(!probes_.count(name), "duplicate series: ", name);
    sim::simAssert(times_.empty(),
                   "track() must precede the first sample");
    names_.push_back(name);
    probes_[name] = std::move(probe);
    values_[name] = {};
}

void
TimelineSampler::trackCounter(const std::string &name, Probe probe)
{
    track(name, std::move(probe));
    counterLast_[name] = 0.0;
}

void
TimelineSampler::sample()
{
    times_.push_back(sim_.now());
    for (const auto &name : names_) {
        double v = probes_[name]();
        auto counter = counterLast_.find(name);
        if (counter != counterLast_.end()) {
            double delta = v - counter->second;
            // A cumulative counter that moved backwards was reset
            // (subsystem restart): treat the new value as a fresh ramp
            // from zero rather than reporting a negative spike.
            if (delta < 0.0)
                delta = v;
            counter->second = v;
            v = delta;
        }
        values_[name].push_back(v);
    }
}

const std::vector<double> &
TimelineSampler::series(const std::string &name) const
{
    auto it = values_.find(name);
    sim::simAssert(it != values_.end(), "unknown series: ", name);
    return it->second;
}

void
TimelineSampler::writeCsv(std::ostream &os) const
{
    os << "time_sec";
    for (const auto &name : names_)
        os << ',' << name;
    os << '\n';
    for (std::size_t row = 0; row < times_.size(); ++row) {
        os << sim::ticksToSec(times_[row]);
        for (const auto &name : names_)
            os << ',' << values_.at(name)[row];
        os << '\n';
    }
}

} // namespace infless::metrics

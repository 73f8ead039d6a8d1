#include "coldstart/lsth.hh"

#include <cmath>
#include <sstream>

#include "sim/logging.hh"

namespace infless::coldstart {

LsthPolicy::LsthPolicy(LsthParams params)
    : params_(params),
      hist_({kShortDuration, kLongDuration}, params.binWidth,
            kHistogramRange)
{
    sim::simAssert(params.gamma >= 0.0 && params.gamma <= 1.0,
                   "gamma must lie in [0, 1]");
}

void
LsthPolicy::recordInvocation(sim::Tick now)
{
    hist_.recordInvocation(now);
}

KeepAliveDecision
LsthPolicy::decide(sim::Tick now) const
{
    hist_.evict(now);
    bool short_ok = hist_.count(kShort) >= params_.minSamples;
    bool long_ok = hist_.count(kLong) >= params_.minSamples;
    if (!short_ok && !long_ok)
        return KeepAliveDecision{0, kFallbackKeepAlive};

    double gamma = params_.gamma;
    if (!long_ok)
        gamma = 0.0; // trust only the short horizon
    else if (!short_ok)
        gamma = 1.0; // trust only the long horizon

    auto blend = [gamma](sim::Tick l, sim::Tick s) {
        return static_cast<sim::Tick>(std::llround(
            gamma * static_cast<double>(l) +
            (1.0 - gamma) * static_cast<double>(s)));
    };

    sim::Tick head = blend(hist_.percentileLower(kHeadPercentile, kLong),
                           hist_.percentileLower(kHeadPercentile, kShort));
    sim::Tick tail = blend(hist_.percentile(kTailPercentile, kLong),
                           hist_.percentile(kTailPercentile, kShort));
    return HybridHistogramPolicy::windowsFrom(head, tail, kWindowMargin);
}

std::string
LsthPolicy::name() const
{
    std::ostringstream os;
    os << "lsth(gamma=" << params_.gamma << ")";
    return os.str();
}

PolicyFactory
LsthPolicy::factory(LsthParams params)
{
    return [params]() { return std::make_unique<LsthPolicy>(params); };
}

} // namespace infless::coldstart

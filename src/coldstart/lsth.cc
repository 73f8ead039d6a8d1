#include "coldstart/lsth.hh"

#include <cmath>
#include <sstream>

#include "sim/logging.hh"

namespace infless::coldstart {

LsthPolicy::LsthPolicy(double gamma)
    : gamma_(gamma),
      hist_({kShortDuration, kLongDuration}, kHistogramBinWidth,
            kHistogramRange)
{
    sim::simAssert(gamma >= 0.0 && gamma <= 1.0,
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
    bool short_ok = hist_.count(kShort) >= kMinSamples;
    bool long_ok = hist_.count(kLong) >= kMinSamples;
    if (!short_ok && !long_ok)
        return KeepAliveDecision{0, kFallbackKeepAlive};

    double gamma = gamma_;
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
    os << "lsth(gamma=" << gamma_ << ")";
    return os.str();
}

PolicyFactory
LsthPolicy::factory(double gamma)
{
    return [gamma]() { return std::make_unique<LsthPolicy>(gamma); };
}

} // namespace infless::coldstart

#include "coldstart/hhp.hh"

#include <algorithm>
#include <cmath>

namespace infless::coldstart {

HybridHistogramPolicy::HybridHistogramPolicy()
    : hist_({kTrackedDuration}, kHistogramBinWidth, kHistogramRange)
{
}

void
HybridHistogramPolicy::recordInvocation(sim::Tick now)
{
    hist_.recordInvocation(now);
}

KeepAliveDecision
HybridHistogramPolicy::windowsFrom(sim::Tick head, sim::Tick tail,
                                   double margin)
{
    auto prewarm = static_cast<sim::Tick>(
        std::floor(static_cast<double>(head) * (1.0 - margin)));
    auto keep_until = static_cast<sim::Tick>(
        std::ceil(static_cast<double>(tail) * (1.0 + margin)));
    prewarm = std::max<sim::Tick>(0, prewarm);
    keep_until = std::max(keep_until, prewarm + sim::kTicksPerMin);
    return KeepAliveDecision{prewarm, keep_until - prewarm};
}

KeepAliveDecision
HybridHistogramPolicy::decide(sim::Tick now) const
{
    hist_.evict(now);
    if (hist_.count() < kMinSamples) {
        // Conservative: keep warm continuously.
        return KeepAliveDecision{0, kFallbackKeepAlive};
    }
    // Head from the lower bin edge (pre-warm early), tail from the upper
    // edge (keep alive late): conservative on both sides.
    sim::Tick head = hist_.percentileLower(kHeadPercentile);
    sim::Tick tail = hist_.percentile(kTailPercentile);
    return windowsFrom(head, tail, kWindowMargin);
}

PolicyFactory
HybridHistogramPolicy::factory()
{
    return [] { return std::make_unique<HybridHistogramPolicy>(); };
}

} // namespace infless::coldstart

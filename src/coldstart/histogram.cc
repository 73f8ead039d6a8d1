#include "coldstart/histogram.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace infless::coldstart {

IdleTimeHistogram::IdleTimeHistogram(std::vector<sim::Tick> windows)
    : log_(std::max<std::size_t>(1, windows.size()))
{
    sim::simAssert(!windows.empty(), "histogram needs at least one window");
    for (sim::Tick horizon : windows) {
        sim::simAssert(horizon > 0, "histogram windows must be positive");
        windows_.push_back(Window{horizon, {}, 0});
    }
}

const IdleTimeHistogram::Window &
IdleTimeHistogram::at(std::size_t w) const
{
    sim::simAssert(w < windows_.size(), "no histogram window ", w);
    return windows_[w];
}

std::size_t
IdleTimeHistogram::binOf(sim::Tick gap)
{
    // One overflow bin past the range.
    return std::min(static_cast<std::size_t>(gap / kHistogramBinWidth),
                    kBinCount - 1);
}

void
IdleTimeHistogram::recordInvocation(sim::Tick now)
{
    sim::simAssert(now >= lastInvocation_ && now >= 0,
                   "invocations must be non-negative and in time order: ",
                   now, " after ", lastInvocation_);
    if (lastInvocation_ >= 0) {
        evict(now);
        std::size_t bin = binOf(now - lastInvocation_);
        log_.push(now);
        for (Window &win : windows_) {
            if (win.bins.empty())
                win.bins.assign(kBinCount, 0);
            ++win.bins[bin];
            ++win.total;
            if (win.oldest == sim::kTickNever) {
                win.oldest = now;
                win.before = lastInvocation_;
            }
        }
    }
    lastInvocation_ = now;
}

void
IdleTimeHistogram::evict(sim::Tick now)
{
    for (std::size_t w = 0; w < windows_.size(); ++w) {
        Window &win = windows_[w];
        sim::Tick cutoff = now - win.horizon;
        while (win.oldest < cutoff) {
            sim::Tick sample = log_.take(w);
            --win.bins[binOf(sample - win.before)];
            --win.total;
            win.before = sample;
            win.oldest = log_.done(w) ? sim::kTickNever : log_.peek(w);
        }
    }
}

std::size_t
IdleTimeHistogram::logSize() const
{
    std::uint64_t held = 0;
    for (std::size_t w = 0; w < windows_.size(); ++w)
        held = std::max(held, log_.unread(w));
    return static_cast<std::size_t>(held);
}

std::size_t
IdleTimeHistogram::count(std::size_t w) const
{
    return static_cast<std::size_t>(at(w).total);
}

std::size_t
IdleTimeHistogram::percentileBin(const Window &win, double p) const
{
    auto target = static_cast<std::int64_t>(
        std::ceil(p / 100.0 * static_cast<double>(win.total)));
    target = std::max<std::int64_t>(1, target);
    std::int64_t seen = 0;
    for (std::size_t bin = 0; bin < win.bins.size(); ++bin) {
        seen += win.bins[bin];
        if (seen >= target)
            return bin;
    }
    return win.bins.size() - 1;
}

sim::Tick
IdleTimeHistogram::percentile(double p, std::size_t w) const
{
    sim::simAssert(p >= 0.0 && p <= 100.0, "percentile out of range: ", p);
    const Window &win = at(w);
    if (win.total == 0)
        return 0;
    std::size_t bin = percentileBin(win, p);
    if (bin == win.bins.size() - 1)
        return kHistogramRange; // overflow reports as the cap
    return static_cast<sim::Tick>(bin + 1) * kHistogramBinWidth;
}

sim::Tick
IdleTimeHistogram::percentileLower(double p, std::size_t w) const
{
    sim::simAssert(p >= 0.0 && p <= 100.0, "percentile out of range: ", p);
    const Window &win = at(w);
    if (win.total == 0)
        return 0;
    std::size_t bin = percentileBin(win, p);
    if (bin == win.bins.size() - 1)
        return kHistogramRange;
    return static_cast<sim::Tick>(bin) * kHistogramBinWidth;
}

} // namespace infless::coldstart

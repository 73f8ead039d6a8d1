#include "coldstart/histogram.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/logging.hh"

namespace infless::coldstart {

IdleTimeHistogram::IdleTimeHistogram(std::vector<sim::Tick> windows,
                                     sim::Tick bin_width, sim::Tick range)
    : binWidth_(bin_width), range_(range),
      log_(std::max<std::size_t>(1, windows.size()), /*tagged=*/true)
{
    sim::simAssert(!windows.empty(), "histogram needs at least one window");
    sim::simAssert(bin_width > 0 && range > 0,
                   "histogram parameters must be positive");
    // One overflow bin past the range.
    binCount_ = static_cast<std::size_t>(range / bin_width) + 2;
    sim::simAssert(binCount_ - 1 <= std::numeric_limits<std::uint16_t>::max(),
                   "histogram bin count must fit in uint16: ", binCount_);
    for (sim::Tick horizon : windows) {
        sim::simAssert(horizon > 0, "histogram parameters must be positive");
        windows_.push_back(Window{horizon, {}, 0});
    }
}

const IdleTimeHistogram::Window &
IdleTimeHistogram::at(std::size_t w) const
{
    sim::simAssert(w < windows_.size(), "no histogram window ", w);
    return windows_[w];
}

std::uint16_t
IdleTimeHistogram::binOf(sim::Tick gap) const
{
    if (gap < 0)
        gap = 0;
    auto bin = static_cast<std::size_t>(gap / binWidth_);
    return static_cast<std::uint16_t>(std::min(bin, binCount_ - 1));
}

void
IdleTimeHistogram::recordInvocation(sim::Tick now)
{
    if (lastInvocation_ >= 0 && now >= lastInvocation_)
        addSample(now - lastInvocation_, now);
    lastInvocation_ = now;
}

void
IdleTimeHistogram::addSample(sim::Tick gap, sim::Tick now)
{
    evict(now);
    std::uint16_t bin = binOf(gap);
    log_.push(now, bin);
    for (Window &win : windows_) {
        if (win.bins.empty())
            win.bins.assign(binCount_, 0);
        ++win.bins[bin];
        ++win.total;
        if (win.oldest == sim::kTickNever)
            win.oldest = now;
    }
}

void
IdleTimeHistogram::evict(sim::Tick now)
{
    for (std::size_t w = 0; w < windows_.size(); ++w) {
        Window &win = windows_[w];
        sim::Tick cutoff = now - win.horizon;
        while (win.oldest < cutoff) {
            sim::TickLog::Record sample = log_.take(w);
            --win.bins[sample.tag];
            --win.total;
            win.oldest = log_.done(w) ? sim::kTickNever : log_.peek(w).tick;
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
        return range_; // overflow reports as the cap
    return static_cast<sim::Tick>(bin + 1) * binWidth_;
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
        return range_;
    return static_cast<sim::Tick>(bin) * binWidth_;
}

} // namespace infless::coldstart

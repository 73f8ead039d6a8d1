/**
 * @file
 * Sliding-window idle-time histogram.
 *
 * The histogram policies (HHP, LSTH) characterize a function's idle-time
 * distribution over one or more tracked durations. Samples older than a
 * window are evicted from it, so each window follows the workload.
 */

#ifndef INFLESS_COLDSTART_HISTOGRAM_HH
#define INFLESS_COLDSTART_HISTOGRAM_HH

#include <cstdint>
#include <vector>

#include "sim/tick_log.hh"
#include "sim/time.hh"

namespace infless::coldstart {

/**
 * Fixed-bin histograms of idle gaps over several retention windows that
 * share one sample log.
 *
 * Every window sees the same samples; it differs only in how long it
 * keeps them. The log stores each sample once, as a sim::TickLog record
 * (observedAt delta, bin): about 3 bytes per sample at production rates.
 * Each window reads the log through its own cursor, which stops at its
 * oldest retained sample, and keeps its own bin counts, so every query
 * answers exactly what a separate single-window histogram would. Log
 * chunks every window has passed are freed, and a window's bins are
 * allocated on its first sample, so a function never invoked holds no
 * histogram storage.
 */
class IdleTimeHistogram
{
  public:
    /**
     * @param windows Retention horizons, one per window: a window drops
     *        samples observed before now-window (HHP's "tracked
     *        duration", e.g. 4 h; LSTH uses 1 h and 24 h).
     * @param bin_width Histogram granularity (1 minute, as in HHP).
     * @param range Largest representable idle time; larger gaps land in
     *        the overflow bin.
     */
    explicit IdleTimeHistogram(std::vector<sim::Tick> windows,
                               sim::Tick bin_width = sim::kTicksPerMin,
                               sim::Tick range = 4 * sim::kTicksPerHour);

    /**
     * Observe an invocation at @p now; derives the idle gap from the
     * previous invocation automatically.
     */
    void recordInvocation(sim::Tick now);

    /** Insert an explicit idle-gap sample observed at @p now. */
    void addSample(sim::Tick gap, sim::Tick now);

    /** Drop, from every window, samples observed before now - window. */
    void evict(sim::Tick now);

    /** Number of samples window @p w retains. */
    std::size_t count(std::size_t w = 0) const;

    /**
     * Idle-time percentile of window @p w in ticks (p in [0, 100]),
     * reported as the *upper* edge of the containing bin — conservative
     * for keep-alive tails (keep a little longer). Overflow samples
     * report as the range cap. Returns 0 when empty.
     */
    sim::Tick percentile(double p, std::size_t w = 0) const;

    /**
     * Like percentile(), but reported as the *lower* edge of the
     * containing bin — conservative for pre-warming heads (load a little
     * earlier).
     */
    sim::Tick percentileLower(double p, std::size_t w = 0) const;

    /** Samples held in the shared log (those the slowest window keeps). */
    std::size_t logSize() const;

    /** Bytes of log storage held. */
    std::size_t heldBytes() const { return log_.heldBytes(); }

  private:
    struct Window
    {
        sim::Tick horizon;
        /** Empty until the first sample; then binCount_ entries. */
        std::vector<std::int64_t> bins;
        std::int64_t total = 0;
        /** Tick of the next sample this window's cursor reads;
         *  kTickNever once it has read every sample. */
        sim::Tick oldest = sim::kTickNever;
    };

    const Window &at(std::size_t w) const;
    std::uint16_t binOf(sim::Tick gap) const;
    std::size_t percentileBin(const Window &win, double p) const;

    sim::Tick binWidth_;
    sim::Tick range_;
    /** Bins per window, the overflow bin included. */
    std::size_t binCount_;
    sim::Tick lastInvocation_ = -1;
    std::vector<Window> windows_;
    /** The shared sample log; cursor w is window w's oldest sample. */
    sim::TickLog log_;
};

} // namespace infless::coldstart

#endif // INFLESS_COLDSTART_HISTOGRAM_HH

/**
 * @file
 * Per-instance batch queue (§3.2, built-in non-uniform batching).
 *
 * Every instance aggregates requests in its own queue. A batch is
 * released when the queue holds a full batch, or when the head request's
 * submission deadline (SLO minus predicted execution time) passes. While
 * the instance is busy executing, at most one further batch may
 * accumulate; beyond that requests are dropped (Fig. 6a's
 * over-submission).
 */

#ifndef INFLESS_CORE_BATCH_QUEUE_HH
#define INFLESS_CORE_BATCH_QUEUE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/time.hh"

namespace infless::core {

/** Index into the platform's request table. */
using RequestIndex = std::int64_t;

/**
 * FIFO of waiting requests with batch-release bookkeeping.
 */
class BatchQueue
{
  public:
    /**
     * @param batch_size Batch the queue aggregates toward.
     * @param max_wait Longest a head request may wait before the partial
     *        batch must be submitted (t_slo - t_exec).
     */
    BatchQueue(int batch_size, sim::Tick max_wait);

    int batchSize() const { return batchSize_; }

    /**
     * Try to enqueue a request.
     *
     * @return false when the queue already holds a full batch and the
     *         request must be dropped, evicted into, or re-routed.
     */
    bool push(RequestIndex request, sim::Tick now);

    /** Requests currently waiting. */
    std::size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }

    /** Whether a full batch is waiting. */
    bool hasFullBatch() const
    {
        return size() >= static_cast<std::size_t>(batchSize_);
    }

    /** Whether another request can still enter. */
    bool hasRoom() const { return !hasFullBatch(); }

    /**
     * Deadline by which the head request forces submission
     * (kTickNever when empty).
     */
    sim::Tick headDeadline() const;

    /** Arrival time of the head request (kTickNever when empty). */
    sim::Tick headArrival() const;

    /**
     * Pop up to a full batch.
     *
     * @return Request indices in arrival order; empty when idle.
     */
    std::vector<RequestIndex> takeBatch();

    /** Drain everything (instance reaped mid-queue). */
    std::vector<RequestIndex> drain();

    /**
     * Remove and return the oldest queued request (overload eviction;
     * callers check headDeadline() first so only a request that is
     * already doomed to miss its SLO gets bumped). Panics when empty.
     */
    RequestIndex evictOldest();

  private:
    struct Entry
    {
        RequestIndex request;
        sim::Tick arrival;
    };

    int batchSize_;
    sim::Tick maxWait_;
    std::deque<Entry> entries_;
};

} // namespace infless::core

#endif // INFLESS_CORE_BATCH_QUEUE_HH

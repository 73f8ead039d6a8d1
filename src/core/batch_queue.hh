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
 *
 * A queue never holds more than one batch, so it is a fixed ring of
 * batchSize slots: push, pop and size() are O(1) and allocation-free.
 */

#ifndef INFLESS_CORE_BATCH_QUEUE_HH
#define INFLESS_CORE_BATCH_QUEUE_HH

#include <cstdint>
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

    /**
     * Try to enqueue a request.
     *
     * @return false when the queue already holds a full batch and the
     *         request must be dropped, evicted into, or re-routed.
     */
    bool push(RequestIndex request, sim::Tick now);

    /** Requests currently waiting. */
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Whether a full batch is waiting. */
    bool hasFullBatch() const
    {
        return size_ >= slots_.size();
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
     * Pop up to a full batch into @p into, replacing its contents, in
     * arrival order (empty when idle). Reusing @p into across batches
     * keeps the hand-off allocation-free.
     */
    void takeBatch(std::vector<RequestIndex> &into);

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

    /** Remove the head entry; the queue must not be empty. */
    Entry popFront();

    sim::Tick maxWait_;
    /** One slot per batch member; the live entries are size_ slots
     *  from head_, wrapping at the end. */
    std::vector<Entry> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace infless::core

#endif // INFLESS_CORE_BATCH_QUEUE_HH

#include "core/batch_queue.hh"

#include "sim/logging.hh"

namespace infless::core {

BatchQueue::BatchQueue(int batch_size, sim::Tick max_wait)
    : batchSize_(batch_size), maxWait_(max_wait)
{
    sim::simAssert(batch_size >= 1, "batch size must be >= 1");
    sim::simAssert(max_wait >= 0, "max wait must be >= 0");
}

bool
BatchQueue::push(RequestIndex request, sim::Tick now)
{
    if (!hasRoom())
        return false;
    entries_.push_back(Entry{request, now});
    return true;
}

sim::Tick
BatchQueue::headDeadline() const
{
    if (entries_.empty())
        return sim::kTickNever;
    return entries_.front().arrival + maxWait_;
}

sim::Tick
BatchQueue::headArrival() const
{
    if (entries_.empty())
        return sim::kTickNever;
    return entries_.front().arrival;
}

std::vector<RequestIndex>
BatchQueue::takeBatch()
{
    std::vector<RequestIndex> batch;
    while (!entries_.empty() &&
           batch.size() < static_cast<std::size_t>(batchSize_)) {
        batch.push_back(entries_.front().request);
        entries_.pop_front();
    }
    return batch;
}

RequestIndex
BatchQueue::evictOldest()
{
    sim::simAssert(!entries_.empty(), "evictOldest on empty queue");
    RequestIndex victim = entries_.front().request;
    entries_.pop_front();
    return victim;
}

std::vector<RequestIndex>
BatchQueue::drain()
{
    std::vector<RequestIndex> all;
    while (!entries_.empty()) {
        all.push_back(entries_.front().request);
        entries_.pop_front();
    }
    return all;
}

} // namespace infless::core

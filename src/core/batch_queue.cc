#include "core/batch_queue.hh"

#include "sim/logging.hh"

namespace infless::core {

BatchQueue::BatchQueue(int batch_size, sim::Tick max_wait)
    : maxWait_(max_wait)
{
    sim::simAssert(batch_size >= 1, "batch size must be >= 1");
    sim::simAssert(max_wait >= 0, "max wait must be >= 0");
    slots_.resize(static_cast<std::size_t>(batch_size));
}

bool
BatchQueue::push(RequestIndex request, sim::Tick now)
{
    if (!hasRoom())
        return false;
    std::size_t tail = head_ + size_;
    if (tail >= slots_.size())
        tail -= slots_.size();
    slots_[tail] = Entry{request, now};
    ++size_;
    return true;
}

sim::Tick
BatchQueue::headDeadline() const
{
    if (empty())
        return sim::kTickNever;
    return slots_[head_].arrival + maxWait_;
}

sim::Tick
BatchQueue::headArrival() const
{
    if (empty())
        return sim::kTickNever;
    return slots_[head_].arrival;
}

BatchQueue::Entry
BatchQueue::popFront()
{
    Entry e = slots_[head_];
    if (++head_ == slots_.size())
        head_ = 0;
    --size_;
    return e;
}

void
BatchQueue::takeBatch(std::vector<RequestIndex> &into)
{
    // The ring holds at most one batch, so a take empties it.
    into.clear();
    into.reserve(size_);
    while (!empty())
        into.push_back(popFront().request);
}

RequestIndex
BatchQueue::evictOldest()
{
    sim::simAssert(!empty(), "evictOldest on empty queue");
    return popFront().request;
}

std::vector<RequestIndex>
BatchQueue::drain()
{
    std::vector<RequestIndex> all;
    takeBatch(all);
    return all;
}

} // namespace infless::core

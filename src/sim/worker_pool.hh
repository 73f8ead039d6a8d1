/**
 * @file
 * Persistent thread pool for intra-run cell parallelism.
 *
 * The sharded platform runs its independent cell engines side by side
 * in one parallelFor per run() call, and the bench sweeps run their
 * points the same way. WorkerPool keeps its workers alive across
 * parallelFor() calls, so repeated runs spawn no threads, and hands out
 * indices through one atomic counter. The bench sweeps use one pool per
 * sweep.
 *
 * Determinism contract: parallelFor(n, body) invokes body(i) exactly once
 * for every i in [0, n) and returns only after all invocations finished.
 * Which thread runs which index is unspecified, so body(i) must touch
 * only state owned by index i (each cell owns its platform); under that
 * discipline results are byte-identical for every pool size, including
 * the serial pool.
 */

#ifndef INFLESS_SIM_WORKER_POOL_HH
#define INFLESS_SIM_WORKER_POOL_HH

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace infless::sim {

class WorkerPool
{
  public:
    /** Pool size used when the constructor gets threads == 0: the
     *  hardware concurrency, at least 1. */
    static std::size_t
    defaultThreads()
    {
        return std::max(1u, std::thread::hardware_concurrency());
    }

    /**
     * @param threads Total workers including the calling thread (the
     *        caller participates in every parallelFor); 0 picks
     *        defaultThreads(), 1 runs everything serially.
     */
    explicit WorkerPool(std::size_t threads = 0)
    {
        if (threads == 0)
            threads = defaultThreads();
        for (std::size_t t = 0; t + 1 < threads; ++t)
            workers_.emplace_back([this] { workerLoop(); });
    }

    ~WorkerPool()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        workCv_.notify_all();
        for (auto &worker : workers_)
            worker.join();
    }

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /**
     * Run body(i) for every i in [0, n), possibly concurrently, and
     * return once all invocations completed. The first exception thrown
     * by any invocation is rethrown on the caller after the job drains.
     */
    void
    parallelFor(std::size_t n, const std::function<void(std::size_t)> &body)
    {
        if (n == 0)
            return;
        if (workers_.empty() || n == 1) {
            for (std::size_t i = 0; i < n; ++i)
                body(i);
            return;
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            body_ = &body;
            jobSize_ = n;
            next_.store(0, std::memory_order_relaxed);
            error_ = nullptr;
            busyWorkers_ = workers_.size();
            ++generation_;
        }
        workCv_.notify_all();
        runJob();
        std::unique_lock<std::mutex> lock(mutex_);
        doneCv_.wait(lock, [this] { return busyWorkers_ == 0; });
        body_ = nullptr;
        if (error_)
            std::rethrow_exception(error_);
    }

  private:
    void
    workerLoop()
    {
        std::uint64_t seen = 0;
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(mutex_);
                workCv_.wait(lock, [this, seen] {
                    return stop_ || generation_ != seen;
                });
                if (stop_)
                    return;
                seen = generation_;
            }
            runJob();
            {
                std::lock_guard<std::mutex> lock(mutex_);
                if (--busyWorkers_ == 0)
                    doneCv_.notify_all();
            }
        }
    }

    /** Claim and run indices until the job is exhausted. */
    void
    runJob()
    {
        for (;;) {
            std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
            if (i >= jobSize_)
                return;
            try {
                (*body_)(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex_);
                if (!error_)
                    error_ = std::current_exception();
                // Poison the counter so outstanding workers stop claiming.
                next_.store(jobSize_, std::memory_order_relaxed);
            }
        }
    }

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable workCv_;
    std::condition_variable doneCv_;
    std::uint64_t generation_ = 0;
    std::size_t busyWorkers_ = 0;
    bool stop_ = false;
    const std::function<void(std::size_t)> *body_ = nullptr;
    std::size_t jobSize_ = 0;
    std::exception_ptr error_;
    std::atomic<std::size_t> next_{0};
};

} // namespace infless::sim

#endif // INFLESS_SIM_WORKER_POOL_HH

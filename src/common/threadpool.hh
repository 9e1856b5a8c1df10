/**
 * @file
 * A small fixed-size worker pool with a bounded task queue.
 *
 * Built for the engine's background translation pipeline but fully
 * generic: N worker threads drain a FIFO queue of tasks; submission
 * observes back-pressure (trySubmit fails when the queue is at
 * capacity instead of growing without bound), and drain() gives the
 * producer a barrier -- it returns once every queued task has been
 * both dequeued and finished.
 *
 * Each task receives the index of the worker context executing it
 * (0..workers-1), so callers can give every worker its own
 * unsynchronized scratch state (the async SBT gives each context its
 * own translator) instead of sharing one behind a lock.
 */

#ifndef CDVM_COMMON_THREADPOOL_HH
#define CDVM_COMMON_THREADPOOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hh"

namespace cdvm
{

/** Fixed worker pool with a bounded FIFO queue. */
class ThreadPool
{
  public:
    /** A unit of work; ctx is the executing worker's index. */
    using Task = std::function<void(unsigned ctx)>;

    /**
     * Start `workers` threads (minimum 1) behind a queue holding at
     * most `queue_cap` waiting tasks (minimum 1).
     */
    explicit ThreadPool(unsigned workers, std::size_t queue_cap = 64);

    /** Drains the queue, finishes in-flight tasks, joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue a task, or fail immediately when the queue is full
     * (back-pressure: the producer decides whether to retry, drop, or
     * do the work inline).
     */
    bool trySubmit(Task t);

    /**
     * Barrier: wait until the queue is empty and no worker is running
     * a task. Tasks submitted by other threads while draining extend
     * the wait; the engine's single-producer discipline never does.
     */
    void drain();

    unsigned workers() const { return numWorkers; }

    /** Tasks fully executed so far. */
    u64 executed() const;

  private:
    void workerLoop(unsigned ctx);

    const unsigned numWorkers;
    const std::size_t cap;

    mutable std::mutex mu;
    std::condition_variable cvWork; //!< queue became non-empty / stop
    std::condition_variable cvIdle; //!< queue drained + workers idle
    std::deque<Task> queue;
    unsigned active = 0; //!< workers currently running a task
    bool stopping = false;
    u64 nExecuted = 0;

    std::vector<std::thread> threads;
};

} // namespace cdvm

#endif // CDVM_COMMON_THREADPOOL_HH

#include "common/threadpool.hh"

#include <algorithm>

namespace cdvm
{

ThreadPool::ThreadPool(unsigned workers, std::size_t queue_cap)
    : numWorkers(std::max(workers, 1u)),
      cap(std::max<std::size_t>(queue_cap, 1))
{
    threads.reserve(numWorkers);
    for (unsigned i = 0; i < numWorkers; ++i)
        threads.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mu);
        stopping = true;
    }
    cvWork.notify_all();
    for (std::thread &t : threads)
        t.join();
}

bool
ThreadPool::trySubmit(Task t)
{
    {
        std::lock_guard<std::mutex> lk(mu);
        if (queue.size() >= cap)
            return false;
        queue.push_back(std::move(t));
    }
    cvWork.notify_one();
    return true;
}

void
ThreadPool::drain()
{
    std::unique_lock<std::mutex> lk(mu);
    cvIdle.wait(lk, [this] { return queue.empty() && active == 0; });
}

u64
ThreadPool::executed() const
{
    std::lock_guard<std::mutex> lk(mu);
    return nExecuted;
}

void
ThreadPool::workerLoop(unsigned ctx)
{
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
        cvWork.wait(lk,
                    [this] { return stopping || !queue.empty(); });
        if (queue.empty()) {
            // stopping and nothing left to do.
            return;
        }
        Task t = std::move(queue.front());
        queue.pop_front();
        ++active;
        lk.unlock();
        t(ctx);
        lk.lock();
        --active;
        ++nExecuted;
        if (queue.empty() && active == 0)
            cvIdle.notify_all();
    }
}

} // namespace cdvm

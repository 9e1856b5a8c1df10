/**
 * @file
 * The async SBT's one install rule, shared by the timing model
 * (StagedPipeline) and the functional engine (AsyncSbtEngine): a
 * request for n instructions of optimization made at clock `now` goes
 * to the least-loaded of N contexts (the lowest index on a tie),
 * starts at max(free, now) and is due n x L later, L being Delta_SBT
 * in pre-hot execution units. Due requests leave in (deadline,
 * request) order. No host time is read, so an async run repeats.
 */

#ifndef CDVM_ENGINE_ASYNC_CONTEXTS_HH
#define CDVM_ENGINE_ASYNC_CONTEXTS_HH

#include <algorithm>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace cdvm::engine
{

/** N virtual background contexts and the jobs booked on them. */
template <typename Job>
class AsyncContexts
{
  public:
    /** A booked job and the clock at which it installs. */
    struct Booked
    {
        double due;
        Job job;
    };

    AsyncContexts(unsigned contexts, double latency_per_insn)
        : freeAt(contexts, 0.0), latencyPerInsn(latency_per_insn)
    {
    }

    /** Book insns of optimization requested at now on the least-loaded
     *  context; @return its deadline. */
    double
    book(double now, u64 insns, Job job)
    {
        std::size_t ctx = 0;
        for (std::size_t i = 1; i < freeAt.size(); ++i)
            if (freeAt[i] < freeAt[ctx])
                ctx = i;
        const double start = std::max(freeAt[ctx], now);
        const double deadline =
            start + static_cast<double>(insns) * latencyPerInsn;
        freeAt[ctx] = deadline;
        // After every equal deadline: ties leave in request order.
        auto at = std::upper_bound(
            queue.begin(), queue.end(), deadline,
            [](double d, const Booked &b) { return d < b.due; });
        queue.insert(at, Booked{deadline, std::move(job)});
        return deadline;
    }

    /** True when the earliest deadline is at or before now. */
    bool
    due(double now) const
    {
        return !queue.empty() && queue.front().due <= now;
    }

    /** Remove and return the earliest-due job (queue non-empty). */
    Job
    pop()
    {
        Job j = std::move(queue.front().job);
        queue.erase(queue.begin());
        return j;
    }

    /** Jobs booked and not yet popped, in (deadline, request) order. */
    const std::vector<Booked> &booked() const { return queue; }

  private:
    /** Per-context busy-until clock. */
    std::vector<double> freeAt;
    double latencyPerInsn;
    std::vector<Booked> queue;
};

} // namespace cdvm::engine

#endif // CDVM_ENGINE_ASYNC_CONTEXTS_HH

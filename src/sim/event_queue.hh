/**
 * @file
 * Discrete-event queue driving all time-triggered simulator activity
 * (FWB scans, log scrubbing, periodic monitors). Core/thread progress
 * is driven by the cpu::Scheduler, which interleaves with this queue
 * on a common tick.
 *
 * Layout: one binary min-heap on (when, seq). Timed events are few
 * and far apart (the FWB scan period follows from the log size and
 * the NVRAM write bandwidth), so the heap never holds more than a
 * handful of entries.
 */

#ifndef SNF_SIM_EVENT_QUEUE_HH
#define SNF_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/types.hh"

namespace snf::sim
{

/**
 * A time-ordered queue of callbacks. Events scheduled for the same tick
 * execute in scheduling order (FIFO), which keeps runs deterministic.
 */
class EventQueue
{
  public:
    using Callback = std::function<void(Tick)>;

    /** Schedule @p cb to run at absolute tick @p when. */
    void schedule(Tick when, Callback cb);

    /** Tick of the earliest pending event, or kTickNever if empty.
     *  A single load: the scheduler probes it before every step. */
    Tick nextEventTick() const { return nextTick; }

    bool empty() const { return heap.empty(); }

    /**
     * Execute every event with tick <= @p now.
     * @return the number of events executed.
     */
    std::size_t runUntil(Tick now);

    /** Lifetime perf counters. */
    std::uint64_t statScheduled() const { return statScheduled_; }
    std::uint64_t statExecuted() const { return statExecuted_; }

  private:
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;
    };

    /** Heap order: the root is the earliest (when, seq). */
    static bool
    later(const Event &a, const Event &b)
    {
        return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }

    std::vector<Event> heap;
    Tick nextTick = kTickNever;
    std::uint64_t nextSeq = 0;

    std::uint64_t statScheduled_ = 0;
    std::uint64_t statExecuted_ = 0;
};

} // namespace snf::sim

#endif // SNF_SIM_EVENT_QUEUE_HH

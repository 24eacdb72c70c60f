#include "sim/event_queue.hh"

#include <algorithm>
#include <utility>

namespace snf::sim
{

void
EventQueue::schedule(Tick when, Callback cb)
{
    ++statScheduled_;
    heap.push_back(Event{when, nextSeq++, std::move(cb)});
    std::push_heap(heap.begin(), heap.end(), later);
    nextTick = heap.front().when;
}

std::size_t
EventQueue::runUntil(Tick now)
{
    std::size_t executed = 0;
    while (nextTick <= now) {
        // Pop before invoking: the callback may schedule follow-ups,
        // which then order after it by seq even on the same tick.
        std::pop_heap(heap.begin(), heap.end(), later);
        Event e = std::move(heap.back());
        heap.pop_back();
        nextTick = heap.empty() ? kTickNever : heap.front().when;
        e.cb(e.when);
        ++executed;
        ++statExecuted_;
    }
    return executed;
}

} // namespace snf::sim

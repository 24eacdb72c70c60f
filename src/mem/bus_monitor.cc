#include "mem/bus_monitor.hh"

namespace snf::mem
{

BusMonitor::BusMonitor()
    : statGroup("bus_monitor"),
      orderViol(statGroup.counter("order_violations")),
      overwrite(statGroup.counter("overwrite_hazards")),
      checkedWritebacks(statGroup.counter("checked_writebacks"))
{
}

void
BusMonitor::onLogAppend(Addr dataLine, Tick tick)
{
    pending[dataLine].push_back(PendingLog{tick, kTickNever});
}

void
BusMonitor::onLogDrain(Addr dataLine, Tick appendTick, Tick drainTick)
{
    std::vector<PendingLog> *records = pending.find(dataLine);
    if (!records)
        return;
    for (auto &p : *records) {
        if (p.append == appendTick && p.drain == kTickNever) {
            p.drain = drainTick;
            return;
        }
    }
}

Tick
BusMonitor::lastWritebackOf(Addr dataLine) const
{
    const Tick *done = lastWb.find(dataLine);
    return done ? *done : 0;
}

void
BusMonitor::onDataWriteback(Addr dataLine, Tick startTick, Tick doneTick)
{
    lastWb[dataLine] = doneTick;
    if (probe)
        probe(sim::ProbeEvent::DataWriteback, doneTick, dataLine);
    std::vector<PendingLog> *records = pending.find(dataLine);
    if (!records)
        return;
    checkedWritebacks.inc();
    std::size_t kept = 0;
    for (const PendingLog &p : *records) {
        // Records appended before this write-back started must have
        // drained by the time the data reaches NVRAM.
        if (p.append <= startTick &&
            (p.drain == kTickNever || p.drain > doneTick)) {
            orderViol.inc();
        }
        // A record durable by then is retired; the rest stay, in
        // append order.
        if (p.drain == kTickNever || p.drain > doneTick)
            (*records)[kept++] = p;
    }
    records->resize(kept);
    if (kept == 0)
        pending.erase(dataLine);
}

void
BusMonitor::onLogOverwriteHazard()
{
    overwrite.inc();
}

void
BusMonitor::reset()
{
    pending.clear();
    lastWb.clear();
    statGroup.resetAll();
}

} // namespace snf::mem

/**
 * @file
 * Production-scale YCSB engine (DESIGN §8): 50/50 read/update over a
 * keyspace of up to millions of 64-byte records, with Zipf-skewed key
 * selection (--zipf-theta). Without a CC scheme the keyspace is
 * partitioned round-robin across threads and the skew applies within
 * each partition; with CC every thread samples the full keyspace, so
 * high theta concentrates conflicts on a handful of hot records.
 *
 * A record is version word + 4 payload words, every payload word
 * written equal to the version — verify() detects torn or lost
 * updates on the (possibly recovered) image.
 */

#ifndef SNF_OLTP_YCSB_HH
#define SNF_OLTP_YCSB_HH

#include "oltp/engine.hh"

namespace snf::oltp
{

/** See file comment. */
class YcsbEngine : public OltpEngine
{
  public:
    std::string name() const override { return "oltp-ycsb"; }

    void setup(System &sys, const WorkloadParams &params) override;

    sim::Co<void> thread(System &sys, Thread &t,
                         const WorkloadParams &params) override;

    bool verify(const mem::BackingStore &nvram,
                std::string *why) const override;

    std::uint64_t keys() const { return nkeys; }

    /** NVRAM address of record @p k (version word first). */
    Addr recordAddr(std::uint64_t k) const
    {
        return records + k * kRecordBytes;
    }

  private:
    enum TxType : std::size_t
    {
        kRead = 0,
        kUpdate = 1,
    };

    static constexpr std::uint64_t kRecordBytes = 64;
    static constexpr std::uint64_t kPayloadWords = 4;

    Addr records = 0;
    Addr dramIndex = 0;
    std::uint64_t nkeys = 0;
    double theta = 0.0;
    bool ccOn = false;
};

} // namespace snf::oltp

#endif // SNF_OLTP_YCSB_HH

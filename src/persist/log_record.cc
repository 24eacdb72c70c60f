#include "persist/log_record.hh"

#include <array>
#include <cstring>

#include "sim/logging.hh"

namespace snf::persist
{

const char *
slotClassName(SlotClass cls)
{
    switch (cls) {
      case SlotClass::Empty:
        return "empty";
      case SlotClass::Torn:
        return "torn";
      case SlotClass::CrcFail:
        return "crc-fail";
      case SlotClass::Valid:
        return "valid";
    }
    return "?";
}

LogRecord
LogRecord::update(std::uint8_t thread, std::uint16_t tx, Addr addr,
                  std::uint8_t size,
                  std::optional<std::uint64_t> undoVal,
                  std::optional<std::uint64_t> redoVal)
{
    SNF_ASSERT(size > 0 && size <= 8, "log record size %u", size);
    SNF_ASSERT(undoVal || redoVal, "log record without values");
    LogRecord r;
    r.thread = thread;
    r.tx = tx;
    r.addr = addr & 0x0000ffffffffffffULL;
    r.size = size;
    if (undoVal) {
        r.hasUndo = true;
        r.undo = *undoVal;
    }
    if (redoVal) {
        r.hasRedo = true;
        r.redo = *redoVal;
    }
    return r;
}

LogRecord
LogRecord::commit(std::uint8_t thread, std::uint16_t tx,
                  std::uint32_t nUpdates)
{
    LogRecord r;
    r.thread = thread;
    r.tx = tx;
    r.isCommit = true;
    r.size = 0;
    r.nUpdates = nUpdates;
    return r;
}

LogRecord
LogRecord::prepare(std::uint8_t thread, std::uint16_t tx,
                   std::uint32_t nUpdatesInShard,
                   std::uint64_t commitSeq)
{
    LogRecord r;
    r.thread = thread;
    r.tx = tx;
    r.isPrepare = true;
    r.size = 0;
    r.nUpdates = nUpdatesInShard;
    r.commitSeq = commitSeq;
    return r;
}

LogRecord
LogRecord::commitMasked(std::uint8_t thread, std::uint16_t tx,
                        std::uint32_t nUpdatesInShard,
                        std::uint64_t commitSeq,
                        std::uint64_t shardMask)
{
    SNF_ASSERT(shardMask != 0, "masked commit with empty mask");
    LogRecord r;
    r.thread = thread;
    r.tx = tx;
    r.isCommit = true;
    r.hasShardMask = true;
    r.size = 0;
    r.nUpdates = nUpdatesInShard;
    r.commitSeq = commitSeq;
    r.shardMask = shardMask;
    return r;
}

std::uint32_t
LogRecord::payloadBytes() const
{
    // Prepare records append the 8-byte commit sequence number to the
    // header; masked commits append the sequence number and the
    // participation mask. Neither carries undo/redo values.
    if (isPrepare)
        return kHeaderBytes + 8;
    if (hasShardMask)
        return kHeaderBytes + 16;
    std::uint32_t n = kHeaderBytes;
    if (hasUndo)
        n += 8;
    if (hasRedo)
        n += 8;
    return n;
}

std::uint32_t
LogRecord::crc32(const std::uint8_t *data, std::uint32_t n)
{
    // Slicing-by-8 over the reflected 0xEDB88320 polynomial: the same
    // values as the bitwise definition, eight bytes per step. t[0] is
    // the classic byte table; t[k][b] is the CRC of byte b followed
    // by k zero bytes. The recovery scan CRCs every written log slot,
    // which puts this on the crash sweep's critical path.
    using Table = std::array<std::uint32_t, 256>;
    static const std::array<Table, 8> t = [] {
        std::array<Table, 8> tab{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int b = 0; b < 8; ++b)
                c = (c >> 1) ^ (0xedb88320u & (~(c & 1) + 1));
            tab[0][i] = c;
        }
        for (std::uint32_t i = 0; i < 256; ++i)
            for (std::size_t k = 1; k < 8; ++k)
                tab[k][i] = (tab[k - 1][i] >> 8) ^
                            tab[0][tab[k - 1][i] & 0xffu];
        return tab;
    }();
    auto le32 = [](const std::uint8_t *p) {
        return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
               std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
    };
    std::uint32_t crc = 0xffffffffu;
    for (; n >= 8; data += 8, n -= 8) {
        const std::uint32_t lo = le32(data) ^ crc;
        const std::uint32_t hi = le32(data + 4);
        crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
              t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
              t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
              t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++data, --n)
        crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xffu];
    return ~crc;
}

void
LogRecord::serialize(std::uint8_t out[kSlotBytes], bool torn) const
{
    std::memset(out, 0, kSlotBytes);
    std::uint8_t flags = kFlagWritten;
    if (torn)
        flags |= kFlagTorn;
    if (hasUndo)
        flags |= kFlagHasUndo;
    if (hasRedo)
        flags |= kFlagHasRedo;
    if (isCommit)
        flags |= kFlagCommit;
    if (isPrepare)
        flags |= kFlagPrepare;
    if (hasShardMask)
        flags |= kFlagShardMask;
    out[0] = flags;
    out[1] = thread;
    std::memcpy(out + 2, &tx, 2);
    out[4] = size;
    out[5] = kFormatVersion;
    if (isCommit || isPrepare) {
        std::memcpy(out + 6, &nUpdates, 4);
    } else {
        std::uint64_t a = addr & 0x0000ffffffffffffULL;
        std::memcpy(out + 6, &a, 6);
    }
    if (isPrepare || hasShardMask) {
        std::memcpy(out + kHeaderBytes, &commitSeq, 8);
        if (hasShardMask)
            std::memcpy(out + kHeaderBytes + 8, &shardMask, 8);
    } else {
        std::uint32_t off = kHeaderBytes;
        if (hasUndo) {
            std::memcpy(out + off, &undo, 8);
            off += 8;
        }
        if (hasRedo)
            std::memcpy(out + off, &redo, 8);
    }
    // The CRC covers the entire written payload (torn bit included)
    // with the CRC field itself as zero; it goes in last.
    std::uint32_t crc = crc32(out, payloadBytes());
    std::memcpy(out + 12, &crc, 4);
}

std::optional<LogRecord>
LogRecord::deserialize(const std::uint8_t in[kSlotBytes], bool &tornOut)
{
    std::uint8_t flags = in[0];
    if (!(flags & kFlagWritten))
        return std::nullopt;
    tornOut = (flags & kFlagTorn) != 0;
    LogRecord r;
    r.thread = in[1];
    std::memcpy(&r.tx, in + 2, 2);
    r.size = in[4];
    r.hasUndo = (flags & kFlagHasUndo) != 0;
    r.hasRedo = (flags & kFlagHasRedo) != 0;
    r.isCommit = (flags & kFlagCommit) != 0;
    r.isPrepare = (flags & kFlagPrepare) != 0;
    r.hasShardMask = (flags & kFlagShardMask) != 0;
    if (r.isCommit || r.isPrepare) {
        std::memcpy(&r.nUpdates, in + 6, 4);
    } else {
        std::uint64_t a = 0;
        std::memcpy(&a, in + 6, 6);
        r.addr = a;
    }
    if (r.isPrepare || r.hasShardMask) {
        std::memcpy(&r.commitSeq, in + kHeaderBytes, 8);
        if (r.hasShardMask)
            std::memcpy(&r.shardMask, in + kHeaderBytes + 8, 8);
    } else {
        std::uint32_t off = kHeaderBytes;
        if (r.hasUndo) {
            std::memcpy(&r.undo, in + off, 8);
            off += 8;
        }
        if (r.hasRedo)
            std::memcpy(&r.redo, in + off, 8);
    }
    return r;
}

SlotInfo
classifySlot(const std::uint8_t in[LogRecord::kSlotBytes])
{
    SlotInfo info;
    if (!(in[0] & LogRecord::kFlagWritten)) {
        bool anySet = false;
        for (std::uint32_t i = 0; i < LogRecord::kSlotBytes; ++i)
            anySet |= in[i] != 0;
        info.cls = anySet ? SlotClass::Torn : SlotClass::Empty;
        return info;
    }
    if (in[5] != LogRecord::kFormatVersion) {
        info.cls = SlotClass::CrcFail;
        return info;
    }
    bool torn = false;
    auto rec = LogRecord::deserialize(in, torn);
    // A damaged size field could push payloadBytes() past the slot;
    // reject before computing the CRC over out-of-range bytes.
    if (!rec || rec->payloadBytes() > LogRecord::kSlotBytes ||
        (rec->isCommit && rec->isPrepare) ||
        (rec->hasShardMask && !rec->isCommit) ||
        ((rec->isPrepare || rec->hasShardMask) &&
         (rec->hasUndo || rec->hasRedo || rec->size != 0)) ||
        (!rec->isCommit && !rec->isPrepare &&
         (rec->size == 0 || rec->size > 8))) {
        info.cls = SlotClass::CrcFail;
        return info;
    }
    std::uint8_t img[LogRecord::kSlotBytes];
    std::memcpy(img, in, LogRecord::kSlotBytes);
    std::uint32_t stored = 0;
    std::memcpy(&stored, img + 12, 4);
    std::memset(img + 12, 0, 4);
    if (LogRecord::crc32(img, rec->payloadBytes()) != stored) {
        info.cls = SlotClass::CrcFail;
        return info;
    }
    info.cls = SlotClass::Valid;
    info.torn = torn;
    info.rec = *rec;
    return info;
}

} // namespace snf::persist

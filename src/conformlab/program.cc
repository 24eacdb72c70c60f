#include "conformlab/program.hh"

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/flag_table.hh"
#include "sim/logging.hh"

namespace snf::conformlab
{

bool
Program::hasLoads() const
{
    for (const ProgTx &tx : txs)
        for (const ProgOp &op : tx.ops)
            if (op.isLoad())
                return true;
    return false;
}

std::size_t
Program::operationCount() const
{
    std::size_t n = 0;
    for (const ProgTx &tx : txs)
        n += 2 + tx.ops.size(); // begin + ops + commit/abort
    return n;
}

std::string
emitProgram(const Program &p)
{
    std::ostringstream out;
    bool v2 = p.sharedSlots != 0 || p.hasLoads();
    out << "snfprog " << (v2 ? 2 : 1) << "\n";
    out << "threads " << p.threads << "\n";
    out << "slots " << p.slotsPerThread << "\n";
    if (p.sharedSlots != 0)
        out << "shared " << p.sharedSlots << "\n";
    out << "seed " << p.seed << "\n";
    for (const ProgTx &tx : p.txs) {
        out << "tx " << tx.thread << " "
            << (tx.aborts ? "abort" : "commit") << " " << tx.delay
            << "\n";
        for (const ProgOp &op : tx.ops) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "0x%llx",
                          static_cast<unsigned long long>(op.value));
            switch (op.kind) {
              case ProgOpKind::Store:
                out << "  store " << op.slot << " " << buf << "\n";
                break;
              case ProgOpKind::Load:
                out << "  load " << op.slot << "\n";
                break;
              case ProgOpKind::SharedStore:
                out << "  sstore " << op.slot << " " << buf << "\n";
                break;
              case ProgOpKind::SharedLoad:
                out << "  sload " << op.slot << "\n";
                break;
            }
        }
    }
    out << "end\n";
    return out.str();
}

namespace
{

bool
fail(std::string *err, std::size_t lineNo, const std::string &what)
{
    if (err)
        *err = strfmt("line %zu: %s", lineNo, what.c_str());
    return false;
}

/**
 * Read the next word as a strict count (tryParseCount: no sign, no
 * trailing garbage, no overflow) that fits @p out's type. istream >>
 * would read "-4294967295" into a uint32_t as 1 and stop at "2x".
 */
template <typename T>
bool
readCount(std::istream &in, T *out)
{
    std::string word;
    std::uint64_t n = 0;
    if (!(in >> word) || !tryParseCount(word.c_str(), &n) ||
        n > std::numeric_limits<T>::max())
        return false;
    *out = static_cast<T>(n);
    return true;
}

} // namespace

bool
parseProgram(const std::string &text, Program *out, std::string *err)
{
    Program p;
    p.txs.clear();
    std::uint32_t version = 0;
    bool sawEnd = false;
    std::istringstream in(text);
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        std::istringstream ls(line);
        std::string word;
        if (!(ls >> word) || word[0] == '#')
            continue;
        if (sawEnd)
            return fail(err, lineNo, "content after 'end'");
        if (version == 0) {
            if (word != "snfprog" || !readCount(ls, &version) ||
                (version != 1 && version != 2))
                return fail(err, lineNo,
                            "expected 'snfprog 1' or 'snfprog 2' "
                            "header");
            continue;
        }
        if (word == "threads") {
            if (!readCount(ls, &p.threads) || p.threads == 0 ||
                p.threads > 64)
                return fail(err, lineNo, "bad thread count");
        } else if (word == "slots") {
            if (!readCount(ls, &p.slotsPerThread) ||
                p.slotsPerThread == 0)
                return fail(err, lineNo, "bad slots-per-thread");
        } else if (word == "shared") {
            if (version < 2)
                return fail(err, lineNo,
                            "'shared' needs a format-2 header");
            if (!readCount(ls, &p.sharedSlots) || p.sharedSlots == 0 ||
                p.sharedSlots > 4096)
                return fail(err, lineNo, "bad shared slot count");
        } else if (word == "seed") {
            if (!readCount(ls, &p.seed))
                return fail(err, lineNo, "bad seed");
        } else if (word == "tx") {
            ProgTx tx;
            std::string outcome;
            if (!readCount(ls, &tx.thread) || !(ls >> outcome) ||
                !readCount(ls, &tx.delay))
                return fail(err, lineNo,
                            "expected 'tx THREAD commit|abort DELAY'");
            if (tx.thread >= p.threads)
                return fail(err, lineNo, "tx thread out of range");
            if (outcome == "abort")
                tx.aborts = true;
            else if (outcome != "commit")
                return fail(err, lineNo,
                            "tx outcome must be commit or abort");
            p.txs.push_back(tx);
        } else if (word == "store" || word == "sstore") {
            if (p.txs.empty())
                return fail(err, lineNo, "store before any tx");
            ProgOp op;
            std::string value;
            if (!readCount(ls, &op.slot) || !(ls >> value))
                return fail(err, lineNo,
                            "expected '" + word + " SLOT VALUE'");
            if (word == "sstore") {
                if (version < 2)
                    return fail(err, lineNo,
                                "'sstore' needs a format-2 header");
                op.kind = ProgOpKind::SharedStore;
                if (op.slot >= p.sharedSlots)
                    return fail(err, lineNo,
                                "shared slot out of range");
            } else if (op.slot >= p.slotsPerThread) {
                return fail(err, lineNo, "store slot out of range");
            }
            if (!tryParseCount(value.c_str(), &op.value))
                return fail(err, lineNo, "bad store value");
            p.txs.back().ops.push_back(op);
        } else if (word == "load" || word == "sload") {
            if (version < 2)
                return fail(err, lineNo,
                            "'" + word + "' needs a format-2 header");
            if (p.txs.empty())
                return fail(err, lineNo, "load before any tx");
            ProgOp op;
            if (!readCount(ls, &op.slot))
                return fail(err, lineNo,
                            "expected '" + word + " SLOT'");
            if (word == "sload") {
                op.kind = ProgOpKind::SharedLoad;
                if (op.slot >= p.sharedSlots)
                    return fail(err, lineNo,
                                "shared slot out of range");
            } else {
                op.kind = ProgOpKind::Load;
                if (op.slot >= p.slotsPerThread)
                    return fail(err, lineNo,
                                "load slot out of range");
            }
            p.txs.back().ops.push_back(op);
        } else if (word == "end") {
            sawEnd = true;
        } else {
            return fail(err, lineNo, "unknown directive '" + word +
                                         "'");
        }
    }
    if (version == 0)
        return fail(err, lineNo, "missing 'snfprog' header");
    if (!sawEnd)
        return fail(err, lineNo, "missing 'end'");
    *out = p;
    return true;
}

bool
loadProgramFile(const std::string &path, Program *out,
                std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        if (err)
            *err = "cannot open " + path;
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    if (!parseProgram(text.str(), out, err)) {
        if (err)
            *err = path + ": " + *err;
        return false;
    }
    return true;
}

bool
saveProgramFile(const std::string &path, const Program &p)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << emitProgram(p);
    return static_cast<bool>(out);
}

} // namespace snf::conformlab

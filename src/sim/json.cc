#include "sim/json.hh"

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "sim/logging.hh"

namespace snf
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += std::string("\\") + c;
        else if (c == '\n')
            out += "\\n";
        else if (c == '\t')
            out += "\\t";
        else if (c == '\r')
            out += "\\r";
        else if (static_cast<unsigned char>(c) < 0x20)
            out += strfmt("\\u%04x", static_cast<unsigned>(c));
        else
            out += c;
    }
    return out;
}

void
JsonWriter::item(const char *key)
{
    if (!stack.empty()) {
        Level &l = stack.back();
        if (l.inlined)
            os << (l.empty ? "" : ", ");
        else
            os << (l.empty ? "\n" : ",\n")
               << std::string(2 * stack.size(), ' ');
        l.empty = false;
    }
    if (key)
        os << '"' << jsonEscape(key) << "\": ";
}

JsonWriter &
JsonWriter::open(const char *key, char open, char close, bool inlined)
{
    item(key);
    os << open;
    bool outerInline = !stack.empty() && stack.back().inlined;
    stack.push_back({close, inlined || outerInline});
    return *this;
}

JsonWriter &
JsonWriter::object(const char *key, bool inlined)
{
    return open(key, '{', '}', inlined);
}

JsonWriter &
JsonWriter::array(const char *key)
{
    return open(key, '[', ']', false);
}

JsonWriter &
JsonWriter::end()
{
    Level l = stack.back();
    stack.pop_back();
    if (!l.inlined && !l.empty)
        os << '\n' << std::string(2 * stack.size(), ' ');
    os << l.close;
    if (stack.empty())
        os << '\n';
    return *this;
}

JsonWriter &
JsonWriter::field(const char *key, const std::string &v)
{
    item(key);
    os << '"' << jsonEscape(v) << '"';
    return *this;
}

JsonWriter &
JsonWriter::field(const char *key, const char *v)
{
    return field(key, std::string(v));
}

JsonWriter &
JsonWriter::field(const char *key, bool v)
{
    item(key);
    os << (v ? "true" : "false");
    return *this;
}

JsonWriter &
JsonWriter::fixed(const char *key, double v, int precision)
{
    item(key);
    std::ios_base::fmtflags flags = os.flags();
    std::streamsize prec = os.precision();
    os << std::fixed << std::setprecision(precision) << v;
    os.flags(flags);
    os.precision(prec);
    return *this;
}

void
writeOutput(const std::string &path,
            const std::function<void(std::ostream &)> &emit)
{
    // Through stdio rather than std::cout: with gcc 12, a library
    // object that includes <iostream> makes every binary linking it
    // (snfbench included) initialize the standard streams at startup,
    // about 0.4 MB more resident memory on a crash-sweep run.
    std::ostringstream doc;
    emit(doc);
    if (path == "-") {
        std::fwrite(doc.str().data(), 1, doc.str().size(), stdout);
        return;
    }
    std::ofstream f(path);
    if (!f)
        fatal("cannot write '%s'", path.c_str());
    f << doc.str();
}

} // namespace snf

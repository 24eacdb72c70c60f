/**
 * @file
 * The one JSON emitter behind every tool report: a streaming writer
 * that owns escaping, indentation and comma placement. Numbers go
 * through the stream's default formatting (or a fixed precision on
 * request), the same bytes a hand-written `os << v` prints.
 *
 * Layout: a block container puts each member on its own line, two
 * spaces deeper than the line that opened it, and closes on a line
 * of its own; an inline container, and everything inside it, stays
 * on one line with ", " between members. Empty containers print as
 * {} and []. Closing the outermost container ends the line.
 */

#ifndef SNF_SIM_JSON_HH
#define SNF_SIM_JSON_HH

#include <functional>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

namespace snf
{

/** JSON string escaping (quotes, backslashes, control characters). */
std::string jsonEscape(const std::string &s);

class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os(os) {}

    /**
     * Open an object or array, as the member @p key of the enclosing
     * object, or as an array element when @p key is null. An array is
     * inline when its parent is.
     */
    JsonWriter &object(const char *key = nullptr, bool inlined = false);
    JsonWriter &array(const char *key = nullptr);
    /** Close the innermost open container. */
    JsonWriter &end();

    /** A member "key": v, or an array element when @p key is null. */
    JsonWriter &field(const char *key, const std::string &v);
    JsonWriter &field(const char *key, const char *v);
    JsonWriter &field(const char *key, bool v);

    template <typename T>
        requires std::is_arithmetic_v<T>
    JsonWriter &
    field(const char *key, T v)
    {
        item(key);
        os << v;
        return *this;
    }

    /** A real printed with @p precision digits after the point. */
    JsonWriter &fixed(const char *key, double v, int precision);

  private:
    struct Level
    {
        char close;
        bool inlined;
        bool empty = true;
    };

    /** Separator, line break and indent, then the key if any. */
    void item(const char *key);
    JsonWriter &open(const char *key, char open, char close,
                     bool inlined);

    std::ostream &os;
    std::vector<Level> stack;
};

/**
 * Run @p emit on stdout when @p path is "-", else on the file at
 * @p path; fatal() when that cannot be opened.
 */
void writeOutput(const std::string &path,
                 const std::function<void(std::ostream &)> &emit);

} // namespace snf

#endif // SNF_SIM_JSON_HH

/**
 * @file
 * JSON helper implementation: escaping, number formatting, and a
 * recursive-descent syntax checker.
 */

#include "json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/logging.hh"

namespace tlc {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

std::string
jsonQuote(const std::string &s)
{
    return "\"" + jsonEscape(s) + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    // %.17g round-trips any double but prints 0.1 as
    // 0.10000000000000001; try increasing precision until the value
    // survives a parse round trip.
    for (int prec = 6; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        double back = 0.0;
        if (std::sscanf(buf, "%lf", &back) == 1 && back == v)
            break;
    }
    std::string out = buf;
    // "1e+06" is valid JSON, but "inf"/"nan" never reach here.
    return out;
}

// ---------------------------------------------------------------------
// Syntax checker
// ---------------------------------------------------------------------

namespace {

/** Cursor over the document; all check* functions advance it. */
struct Cursor
{
    const char *p;
    const char *end;

    bool eof() const { return p >= end; }
    char peek() const { return *p; }

    void skipWs()
    {
        while (p < end &&
               (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
            ++p;
        }
    }

    bool consume(char c)
    {
        if (p < end && *p == c) {
            ++p;
            return true;
        }
        return false;
    }

    bool literal(const char *lit)
    {
        const char *q = p;
        while (*lit) {
            if (q >= end || *q != *lit)
                return false;
            ++q;
            ++lit;
        }
        p = q;
        return true;
    }
};

bool checkValue(Cursor &c);

bool
checkString(Cursor &c)
{
    if (!c.consume('"'))
        return false;
    while (!c.eof()) {
        unsigned char ch = static_cast<unsigned char>(*c.p++);
        if (ch == '"')
            return true;
        if (ch < 0x20)
            return false; // raw control character
        if (ch == '\\') {
            if (c.eof())
                return false;
            char esc = *c.p++;
            switch (esc) {
              case '"':
              case '\\':
              case '/':
              case 'b':
              case 'f':
              case 'n':
              case 'r':
              case 't':
                break;
              case 'u':
                for (int i = 0; i < 4; ++i) {
                    if (c.eof() ||
                        !std::isxdigit(static_cast<unsigned char>(*c.p))) {
                        return false;
                    }
                    ++c.p;
                }
                break;
              default:
                return false;
            }
        }
    }
    return false; // unterminated
}

bool
checkNumber(Cursor &c)
{
    c.consume('-');
    if (c.eof() || !std::isdigit(static_cast<unsigned char>(c.peek())))
        return false;
    if (!c.consume('0')) {
        while (!c.eof() && std::isdigit(static_cast<unsigned char>(c.peek())))
            ++c.p;
    }
    if (c.consume('.')) {
        if (c.eof() || !std::isdigit(static_cast<unsigned char>(c.peek())))
            return false;
        while (!c.eof() && std::isdigit(static_cast<unsigned char>(c.peek())))
            ++c.p;
    }
    if (!c.eof() && (c.peek() == 'e' || c.peek() == 'E')) {
        ++c.p;
        if (!c.eof() && (c.peek() == '+' || c.peek() == '-'))
            ++c.p;
        if (c.eof() || !std::isdigit(static_cast<unsigned char>(c.peek())))
            return false;
        while (!c.eof() && std::isdigit(static_cast<unsigned char>(c.peek())))
            ++c.p;
    }
    return true;
}

bool
checkObject(Cursor &c)
{
    if (!c.consume('{'))
        return false;
    c.skipWs();
    if (c.consume('}'))
        return true;
    for (;;) {
        c.skipWs();
        if (!checkString(c))
            return false;
        c.skipWs();
        if (!c.consume(':'))
            return false;
        if (!checkValue(c))
            return false;
        c.skipWs();
        if (c.consume('}'))
            return true;
        if (!c.consume(','))
            return false;
    }
}

bool
checkArray(Cursor &c)
{
    if (!c.consume('['))
        return false;
    c.skipWs();
    if (c.consume(']'))
        return true;
    for (;;) {
        if (!checkValue(c))
            return false;
        c.skipWs();
        if (c.consume(']'))
            return true;
        if (!c.consume(','))
            return false;
    }
}

bool
checkValue(Cursor &c)
{
    c.skipWs();
    if (c.eof())
        return false;
    switch (c.peek()) {
      case '{':
        return checkObject(c);
      case '[':
        return checkArray(c);
      case '"':
        return checkString(c);
      case 't':
        return c.literal("true");
      case 'f':
        return c.literal("false");
      case 'n':
        return c.literal("null");
      default:
        return checkNumber(c);
    }
}

} // namespace

bool
jsonSyntaxOk(const std::string &text)
{
    Cursor c{text.data(), text.data() + text.size()};
    if (!checkValue(c))
        return false;
    c.skipWs();
    return c.eof();
}

// ---------------------------------------------------------------------
// Value parser
// ---------------------------------------------------------------------

JsonValue
JsonValue::makeBool(bool b)
{
    JsonValue v;
    v.type_ = Type::Bool;
    v.bool_ = b;
    return v;
}

JsonValue
JsonValue::makeNumber(double n)
{
    JsonValue v;
    v.type_ = Type::Number;
    v.num_ = n;
    return v;
}

JsonValue
JsonValue::makeString(std::string s)
{
    JsonValue v;
    v.type_ = Type::String;
    v.str_ = std::move(s);
    return v;
}

JsonValue
JsonValue::makeArray(std::vector<JsonValue> items)
{
    JsonValue v;
    v.type_ = Type::Array;
    v.items_ = std::move(items);
    return v;
}

JsonValue
JsonValue::makeObject(std::vector<Member> members)
{
    JsonValue v;
    v.type_ = Type::Object;
    v.members_ = std::move(members);
    return v;
}

bool
JsonValue::boolean() const
{
    tlc_assert(type_ == Type::Bool, "JsonValue is not a bool");
    return bool_;
}

double
JsonValue::number() const
{
    tlc_assert(type_ == Type::Number, "JsonValue is not a number");
    return num_;
}

const std::string &
JsonValue::str() const
{
    tlc_assert(type_ == Type::String, "JsonValue is not a string");
    return str_;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    tlc_assert(type_ == Type::Array, "JsonValue is not an array");
    return items_;
}

const std::vector<JsonValue::Member> &
JsonValue::members() const
{
    tlc_assert(type_ == Type::Object, "JsonValue is not an object");
    return members_;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    tlc_assert(type_ == Type::Object, "JsonValue is not an object");
    for (const auto &m : members_) {
        if (m.first == key)
            return &m.second;
    }
    return nullptr;
}

Expected<std::uint64_t>
JsonValue::asU64() const
{
    if (type_ != Type::Number)
        return statusf(StatusCode::ParseError, "expected an integer");
    constexpr double kMaxExact = 9007199254740992.0; // 2^53
    if (num_ < 0 || num_ > kMaxExact || num_ != std::floor(num_))
        return statusf(StatusCode::ParseError,
                       "expected a non-negative integer, got %s",
                       jsonNumber(num_).c_str());
    return static_cast<std::uint64_t>(num_);
}

namespace {

constexpr int kMaxParseDepth = 64;

/** Recursive-descent parser building JsonValue trees. */
struct Parser
{
    Cursor c;
    Status error; ///< first failure, with byte offset context
    const char *begin;

    /** Record the first failure; always false, so parse steps can
     *  `return fail("...")`. */
    bool fail(const char *what)
    {
        if (error.ok()) {
            error = statusf(StatusCode::ParseError,
                            "JSON parse error at byte %zu: %s",
                            static_cast<std::size_t>(c.p - begin), what);
        }
        return false;
    }

    bool parseString(std::string &out)
    {
        if (!c.consume('"'))
            return fail("expected a string");
        out.clear();
        while (!c.eof()) {
            unsigned char ch = static_cast<unsigned char>(*c.p++);
            if (ch == '"')
                return true;
            if (ch < 0x20)
                return fail("raw control character in string");
            if (ch != '\\') {
                out += static_cast<char>(ch);
                continue;
            }
            if (c.eof())
                break;
            char esc = *c.p++;
            switch (esc) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'u': {
                unsigned cp = 0;
                if (!parseHex4(cp))
                    return false;
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    // High surrogate: require the matching low half.
                    if (!c.literal("\\u"))
                        return fail("lone high surrogate in \\u escape");
                    unsigned lo = 0;
                    if (!parseHex4(lo))
                        return false;
                    if (lo < 0xDC00 || lo > 0xDFFF)
                        return fail("invalid low surrogate in \\u escape");
                    cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                    return fail("lone low surrogate in \\u escape");
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                return fail("invalid escape character");
            }
        }
        return fail("unterminated string");
    }

    bool parseHex4(unsigned &out)
    {
        unsigned v = 0;
        for (int i = 0; i < 4; ++i) {
            if (c.eof() ||
                !std::isxdigit(static_cast<unsigned char>(*c.p)))
                return fail("invalid \\u escape");
            char h = *c.p++;
            unsigned d;
            if (h >= '0' && h <= '9')
                d = static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
                d = static_cast<unsigned>(h - 'a' + 10);
            else
                d = static_cast<unsigned>(h - 'A' + 10);
            v = (v << 4) | d;
        }
        out = v;
        return true;
    }

    static void appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    bool parseNumber(JsonValue &out)
    {
        const char *start = c.p;
        if (!checkNumber(c))
            return fail("invalid number");
        std::string digits(start, c.p);
        out = JsonValue::makeNumber(std::strtod(digits.c_str(), nullptr));
        return true;
    }

    bool parseValue(JsonValue &out, int depth)
    {
        if (depth > kMaxParseDepth)
            return fail("nesting deeper than 64 levels");
        c.skipWs();
        if (c.eof())
            return fail("unexpected end of document");
        switch (c.peek()) {
          case '{': {
            ++c.p;
            std::vector<JsonValue::Member> members;
            c.skipWs();
            if (c.consume('}')) {
                out = JsonValue::makeObject(std::move(members));
                return true;
            }
            for (;;) {
                c.skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                for (const auto &m : members) {
                    if (m.first == key)
                        return fail("duplicate object key");
                }
                c.skipWs();
                if (!c.consume(':'))
                    return fail("expected ':' after object key");
                JsonValue v;
                if (!parseValue(v, depth + 1))
                    return false;
                members.emplace_back(std::move(key), std::move(v));
                c.skipWs();
                if (c.consume('}'))
                    break;
                if (!c.consume(','))
                    return fail("expected ',' or '}' in object");
            }
            out = JsonValue::makeObject(std::move(members));
            return true;
          }
          case '[': {
            ++c.p;
            std::vector<JsonValue> items;
            c.skipWs();
            if (c.consume(']')) {
                out = JsonValue::makeArray(std::move(items));
                return true;
            }
            for (;;) {
                JsonValue v;
                if (!parseValue(v, depth + 1))
                    return false;
                items.push_back(std::move(v));
                c.skipWs();
                if (c.consume(']'))
                    break;
                if (!c.consume(','))
                    return fail("expected ',' or ']' in array");
            }
            out = JsonValue::makeArray(std::move(items));
            return true;
          }
          case '"': {
            std::string s;
            if (!parseString(s))
                return false;
            out = JsonValue::makeString(std::move(s));
            return true;
          }
          case 't':
            if (!c.literal("true"))
                return fail("invalid literal");
            out = JsonValue::makeBool(true);
            return true;
          case 'f':
            if (!c.literal("false"))
                return fail("invalid literal");
            out = JsonValue::makeBool(false);
            return true;
          case 'n':
            if (!c.literal("null"))
                return fail("invalid literal");
            out = JsonValue{};
            return true;
          default:
            return parseNumber(out);
        }
    }
};

} // namespace

Expected<JsonValue>
jsonParse(const std::string &text)
{
    Parser p{Cursor{text.data(), text.data() + text.size()}, Status{},
             text.data()};
    JsonValue v;
    if (!p.parseValue(v, 0))
        return p.error;
    p.c.skipWs();
    if (!p.c.eof()) {
        p.fail("trailing garbage after document");
        return p.error;
    }
    return v;
}

} // namespace tlc

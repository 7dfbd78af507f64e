#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>

namespace maestro::util {

namespace {
const Json kNullJson{};
}

const Json& Json::at(std::string_view key) const {
  if (type_ != Type::Object) return kNullJson;
  const auto it = obj_.find(key);
  return it != obj_.end() ? it->second : kNullJson;
}

std::optional<std::uint64_t> Json::as_uint() const {
  // 2^64 is exact as a double, and every integral double below it converts
  // to uint64 exactly. NaN fails the first comparison, +inf the second.
  constexpr double kTwoTo64 = 18446744073709551616.0;
  if (type_ != Type::Number || !(num_ >= 0.0) || !(num_ < kTwoTo64) ||
      num_ != std::floor(num_)) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(num_);
}

namespace {

/// Appends `d` in the writer's number format (see json.hpp).
void append_number(std::string& out, double d) {
  if (std::isnan(d) || std::isinf(d)) {
    out += "null";
    return;
  }
  char buf[32];
  // Integral values print without decimal point for readability.
  const auto res = d == std::floor(d) && std::abs(d) < 1e15
                       ? std::to_chars(buf, buf + sizeof buf, static_cast<std::int64_t>(d))
                       : std::to_chars(buf, buf + sizeof buf, d, std::chars_format::general, 17);
  out.append(buf, res.ptr);
}

void append_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
          out.append(u, sizeof u);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_escaped(out, s);
  return out;
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

void Json::dump_to(std::string& out) const {
  switch (type_) {
    case Type::Null: out += "null"; return;
    case Type::Bool: out += bool_ ? "true" : "false"; return;
    case Type::Number: append_number(out, num_); return;
    case Type::String: append_escaped(out, str_); return;
    case Type::Array: {
      out.push_back('[');
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i) out.push_back(',');
        arr_[i].dump_to(out);
      }
      out.push_back(']');
      return;
    }
    case Type::Object: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out.push_back(',');
        first = false;
        append_escaped(out, k);
        out.push_back(':');
        v.dump_to(out);
      }
      out.push_back('}');
      return;
    }
  }
  out += "null";
}

namespace {

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::size_t depth = 0;  ///< containers currently open

  void skip_ws() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) ++pos;
  }

  bool eat(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool match(std::string_view word) {
    if (text.substr(pos, word.size()) == word) {
      pos += word.size();
      return true;
    }
    return false;
  }

  std::optional<Json> value() {
    skip_ws();
    if (pos >= text.size()) return std::nullopt;
    const char c = text[pos];
    if (c == '{' || c == '[') {
      // Bounded recursion: a frame of nothing but brackets must not be able
      // to overflow the stack of a server that parses untrusted input.
      if (depth == Json::kMaxParseDepth) return std::nullopt;
      ++depth;
      auto v = c == '{' ? object() : array();
      --depth;
      return v;
    }
    if (c == '"') {
      auto s = string();
      if (!s) return std::nullopt;
      return Json{std::move(*s)};
    }
    if (match("true")) return Json{true};
    if (match("false")) return Json{false};
    if (match("null")) return Json{nullptr};
    return number();
  }

  std::optional<std::string> string() {
    if (!eat('"')) return std::nullopt;
    std::string out;
    while (pos < text.size()) {
      // Copy the run up to the next quote or backslash in one append.
      const std::size_t stop = text.find_first_of("\"\\", pos);
      if (stop == std::string_view::npos) break;
      out.append(text.data() + pos, stop - pos);
      pos = stop + 1;
      if (text[stop] == '"') return out;
      if (pos >= text.size()) return std::nullopt;
      const char e = text[pos++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos + 4 > text.size()) return std::nullopt;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return std::nullopt;
          }
          // Only BMP codepoints below 0x80 round-trip through our writer;
          // encode others as UTF-8.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return std::nullopt;
      }
    }
    return std::nullopt;
  }

  std::optional<Json> number() {
    const std::size_t start = pos;
    if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) || text[pos] == '.' ||
            text[pos] == 'e' || text[pos] == 'E' || text[pos] == '-' || text[pos] == '+')) {
      ++pos;
    }
    if (pos == start) return std::nullopt;
    double d = 0.0;
    const auto* first = text.data() + start;
    const auto* last = text.data() + pos;
    const auto [ptr, ec] = std::from_chars(first, last, d);
    if (ec != std::errc{} || ptr != last) return std::nullopt;
    return Json{d};
  }

  std::optional<Json> array() {
    if (!eat('[')) return std::nullopt;
    JsonArray arr;
    skip_ws();
    if (eat(']')) return Json{std::move(arr)};
    for (;;) {
      auto v = value();
      if (!v) return std::nullopt;
      arr.push_back(std::move(*v));
      if (eat(']')) return Json{std::move(arr)};
      if (!eat(',')) return std::nullopt;
    }
  }

  std::optional<Json> object() {
    if (!eat('{')) return std::nullopt;
    JsonObject obj;
    skip_ws();
    if (eat('}')) return Json{std::move(obj)};
    for (;;) {
      skip_ws();
      auto key = string();
      if (!key) return std::nullopt;
      if (!eat(':')) return std::nullopt;
      auto v = value();
      if (!v) return std::nullopt;
      obj.emplace(std::move(*key), std::move(*v));
      if (eat('}')) return Json{std::move(obj)};
      if (!eat(',')) return std::nullopt;
    }
  }
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text) {
  Parser p{text};
  auto v = p.value();
  if (!v) return std::nullopt;
  p.skip_ws();
  if (p.pos != text.size()) return std::nullopt;
  return v;
}

std::optional<std::uint64_t> parse_u64(std::string_view s) {
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (s.empty() || ec != std::errc{} || end != s.data() + s.size()) return std::nullopt;
  return v;
}

std::optional<std::uint64_t> id_from_json(const Json& j) {
  if (j.is_number()) return j.as_uint();
  if (!j.is_string()) return 0;
  return parse_u64(j.as_string());
}

}  // namespace maestro::util

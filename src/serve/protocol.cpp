#include "serve/protocol.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace hemo::serve {

namespace {

/// Cursor over one request line.  The grammar is the flat subset the
/// protocol promises: an object of string keys with string, number, bool
/// or array-of-string values.
struct Parser {
  const std::string& text;
  std::size_t pos = 0;
  std::string error;

  explicit Parser(const std::string& t) : text(t) {}

  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])))
      ++pos;
  }

  bool fail(const std::string& message) {
    if (error.empty())
      error = message + " at byte " + std::to_string(pos);
    return false;
  }

  bool expect(char c) {
    skip_ws();
    if (pos >= text.size() || text[pos] != c)
      return fail(std::string("expected '") + c + "'");
    ++pos;
    return true;
  }

  bool peek(char c) {
    skip_ws();
    return pos < text.size() && text[pos] == c;
  }

  bool parse_string(std::string* out) {
    skip_ws();
    if (pos >= text.size() || text[pos] != '"')
      return fail("expected string");
    ++pos;
    out->clear();
    while (pos < text.size() && text[pos] != '"') {
      char c = text[pos++];
      if (c == '\\') {
        if (pos >= text.size()) return fail("unterminated escape");
        const char esc = text[pos++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          default: return fail("unsupported escape");
        }
      }
      *out += c;
    }
    if (pos >= text.size()) return fail("unterminated string");
    ++pos;  // closing quote
    return true;
  }

  bool parse_number(double* out) {
    skip_ws();
    const char* begin = text.c_str() + pos;
    char* end = nullptr;
    *out = std::strtod(begin, &end);
    if (end == begin) return fail("expected number");
    // strtod accepts "nan"/"inf" spellings and overflows to infinity;
    // none of those is a JSON number, and letting one through would feed
    // non-finite limits into admission control.
    if (!std::isfinite(*out)) return fail("expected a finite number");
    pos += static_cast<std::size_t>(end - begin);
    return true;
  }

  bool parse_string_array(std::vector<std::string>* out) {
    if (!expect('[')) return false;
    out->clear();
    if (peek(']')) {
      ++pos;
      return true;
    }
    for (;;) {
      std::string item;
      if (!parse_string(&item)) return false;
      out->push_back(std::move(item));
      if (peek(',')) {
        ++pos;
        continue;
      }
      return expect(']');
    }
  }

};

bool parse_op(const std::string& name, Op* out) {
  if (name == "submit") *out = Op::kSubmit;
  else if (name == "tenant") *out = Op::kTenant;
  else if (name == "stats") *out = Op::kStats;
  else if (name == "shutdown") *out = Op::kShutdown;
  else return false;
  return true;
}

}  // namespace

bool parse_request(const std::string& line, Request* out, std::string* error) {
  Parser p(line);
  Request req;
  bool have_op = false;

  auto fail = [&](const std::string& message) {
    *error = message;
    return false;
  };

  if (!p.expect('{')) return fail(p.error);
  if (!p.peek('}')) {
    for (;;) {
      std::string key;
      if (!p.parse_string(&key)) return fail(p.error);
      if (!p.expect(':')) return fail(p.error);

      if (key == "op") {
        std::string op;
        if (!p.parse_string(&op)) return fail(p.error);
        if (!parse_op(op, &req.op)) return fail("unknown op '" + op + "'");
        have_op = true;
      } else if (key == "tenant") {
        if (!p.parse_string(&req.tenant)) return fail(p.error);
      } else if (key == "name") {
        if (!p.parse_string(&req.name)) return fail(p.error);
      } else if (key == "figure") {
        if (!p.parse_string(&req.figure)) return fail(p.error);
      } else if (key == "series") {
        if (!p.parse_string_array(&req.series)) return fail(p.error);
      } else if (key == "weight" || key == "budget") {
        double v = 0.0;
        if (!p.parse_number(&v)) return fail(p.error);
        if (v <= 0.0) return fail("'" + key + "' must be positive");
        (key == "weight" ? req.weight : req.budget) = v;
      } else if (key == "max_pending") {
        double v = 0.0;
        if (!p.parse_number(&v)) return fail(p.error);
        // The int cast below is UB outside int's range, so bound first.
        if (v < 1.0 ||
            v > static_cast<double>(std::numeric_limits<int>::max()))
          return fail("'max_pending' must be between 1 and 2147483647");
        req.max_pending = static_cast<int>(v);
      } else if (key == "deadline_ms") {
        double v = 0.0;
        if (!p.parse_number(&v)) return fail(p.error);
        // Bounded like max_pending: the value becomes a milliseconds rep,
        // so an absurd magnitude must not overflow the cast.
        if (v < 0.0 || v > 1e12)
          return fail("'deadline_ms' must be between 0 and 1e12");
        req.deadline_ms = v;
      } else {
        return fail("unknown field '" + key + "'");
      }

      if (p.peek(',')) {
        ++p.pos;
        continue;
      }
      break;
    }
  }
  if (!p.expect('}')) return fail(p.error);
  p.skip_ws();
  if (p.pos != line.size()) return fail("trailing bytes after object");

  if (!have_op) return fail("missing 'op'");
  if (req.op == Op::kSubmit && req.tenant.empty())
    return fail("submit requires 'tenant'");
  if (req.op == Op::kTenant && req.tenant.empty())
    return fail("tenant op requires 'tenant'");

  *out = std::move(req);
  return true;
}

bool build_series(const Request& request, std::vector<rt::SeriesSpec>* out,
                  std::string* error) {
  out->clear();
  if (!request.figure.empty()) {
    bool known = false;
    for (const std::string& f : rt::known_figures())
      known |= (f == request.figure);
    if (!known) {
      *error = "unknown figure '" + request.figure + "'";
      return false;
    }
    *out = rt::figure_matrix(request.figure);
  }
  for (const std::string& text : request.series) {
    rt::SeriesSpec spec;
    if (!rt::parse_series(text, &spec)) {
      *error = "bad series '" + text +
               "'; expected system:model[:app[:workload]]";
      return false;
    }
    out->push_back(spec);
  }
  if (out->empty()) {
    *error = "submit names no work: pass 'figure' and/or 'series'";
    return false;
  }
  return true;
}

}  // namespace hemo::serve

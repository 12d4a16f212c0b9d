#include "analysis/flux_extract.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <regex>
#include <sstream>
#include <tuple>

#include "base/contracts.hpp"

#ifndef HEMO_REPO_DIR
#error "HEMO_REPO_DIR must be defined by the build system"
#endif

namespace hemo::analysis {

namespace {

// ---------------------------------------------------------------------------
// Text utilities.
// ---------------------------------------------------------------------------

/// Comments, string/char literals and preprocessor lines blanked out
/// (newlines preserved), so braces and subscripts inside them never confuse
/// the walk, and a directive such as `#pragma GCC unroll 19` never stands
/// between a loop and the statement before it.
std::string strip_comments(const std::string& in) {
  std::string out = in;
  enum class State { kCode, kLine, kDirective, kBlock, kString, kChar };
  State state = State::kCode;
  bool line_start = true;  // only blanks so far on this line of code
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const char next = i + 1 < out.size() ? out[i + 1] : '\0';
    if (c == '\n') line_start = true;
    switch (state) {
      case State::kCode:
        if (c == '#' && line_start) state = State::kDirective;
        else if (c == '/' && next == '/') state = State::kLine;
        else if (c == '/' && next == '*') state = State::kBlock;
        else if (c == '"') state = State::kString;
        else if (c == '\'') state = State::kChar;
        if (state != State::kCode && c != '\n') out[i] = ' ';
        if (!std::isspace(static_cast<unsigned char>(c))) line_start = false;
        break;
      case State::kLine:
        if (c == '\n') state = State::kCode;
        else out[i] = ' ';
        break;
      case State::kDirective:
        // A backslash-newline continues the directive onto the next line.
        if (c == '\\' && next == '\n') {
          out[i] = ' ';
          ++i;
        } else if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n') { out[i + 1] = ' '; ++i; }
        } else if (c == '"') {
          out[i] = ' ';
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n') { out[i + 1] = ' '; ++i; }
        } else if (c == '\'') {
          out[i] = ' ';
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

int line_at(const std::string& text, std::size_t pos) {
  return 1 + static_cast<int>(
                 std::count(text.begin(),
                            text.begin() + static_cast<std::ptrdiff_t>(
                                               std::min(pos, text.size())),
                            '\n'));
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

void skip_ws(const std::string& text, std::size_t& pos, std::size_t end) {
  while (pos < end && std::isspace(static_cast<unsigned char>(text[pos])))
    ++pos;
}

/// Position one past the delimiter matching text[pos] ('(' or '{' or '[').
std::size_t match_delim(const std::string& text, std::size_t pos) {
  const char open = text[pos];
  const char close = open == '(' ? ')' : open == '{' ? '}' : ']';
  int depth = 0;
  for (std::size_t i = pos; i < text.size(); ++i) {
    if (text[i] == open) ++depth;
    else if (text[i] == close && --depth == 0) return i + 1;
  }
  return text.size();
}

bool word_at(const std::string& text, std::size_t pos, std::size_t end,
             const char* word) {
  const std::size_t len = std::strlen(word);
  if (pos + len > end) return false;
  if (text.compare(pos, len, word) != 0) return false;
  if (pos + len < end && ident_char(text[pos + len])) return false;
  if (pos > 0 && ident_char(text[pos - 1])) return false;
  return true;
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Splits on commas at paren/bracket/brace depth zero.
std::vector<std::string> split_top_level(const std::string& text, char sep) {
  std::vector<std::string> parts;
  int depth = 0;
  std::string current;
  for (const char c : text) {
    if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
    else if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
    if (c == sep && depth == 0) {
      parts.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!trim(current).empty()) parts.push_back(current);
  return parts;
}

// ---------------------------------------------------------------------------
// Symbols.
// ---------------------------------------------------------------------------

enum class SymKind { kDevice, kKernelArgs, kLocalArray, kConstTable, kScalar };

struct Sym {
  SymKind kind = SymKind::kScalar;
  ArrayRole role = ArrayRole::kScratch;
  int elem_bytes = 8;
  std::string canonical;  // name reported in the IR
};

using SymTab = std::map<std::string, Sym>;

ArrayRole role_for_name(const std::string& name) {
  if (name == "f_in" || name == "f_out" || name == "f" || name == "f_old" ||
      name == "f_new")
    return ArrayRole::kDistribution;
  if (name == "adjacency") return ArrayRole::kAdjacency;
  if (name == "node_type") return ArrayRole::kNodeType;
  if (name == "indices") return ArrayRole::kIndexList;
  if (name == "send" || name == "recv") return ArrayRole::kHaloBuffer;
  if (name == "kWeights" || name == "kC") return ArrayRole::kConstantTable;
  return ArrayRole::kScratch;
}

int elem_bytes_for_type(const std::string& type) {
  if (type.find("double") != std::string::npos) return 8;
  if (type.find("float") != std::string::npos) return 4;
  if (type.find("int64") != std::string::npos) return 8;
  if (type.find("PointIndex") != std::string::npos) return 8;
  if (type.find("uint8") != std::string::npos) return 1;
  if (type.find("char") != std::string::npos) return 1;
  if (type.find("uint32") != std::string::npos) return 4;
  return 8;
}

Sym device_sym(const std::string& name, const std::string& type) {
  Sym sym;
  sym.role = role_for_name(name);
  sym.kind = sym.role == ArrayRole::kConstantTable ? SymKind::kConstTable
                                                   : SymKind::kDevice;
  sym.elem_bytes = elem_bytes_for_type(type);
  sym.canonical = name;
  return sym;
}

/// The KernelArgs ABI (lbm/kernels.hpp): any KernelArgs-typed variable
/// exposes these array fields, whatever its spelling at the access site.
const SymTab& kernel_args_fields() {
  static const SymTab fields = [] {
    SymTab t;
    t["f_in"] = Sym{SymKind::kDevice, ArrayRole::kDistribution, 8, "f_in"};
    t["f_out"] = Sym{SymKind::kDevice, ArrayRole::kDistribution, 8, "f_out"};
    t["f"] = Sym{SymKind::kDevice, ArrayRole::kDistribution, 8, "f"};
    t["adjacency"] = Sym{SymKind::kDevice, ArrayRole::kAdjacency, 8,
                         "adjacency"};
    t["node_type"] = Sym{SymKind::kDevice, ArrayRole::kNodeType, 1,
                         "node_type"};
    return t;
  }();
  return fields;
}

/// Per-call flop cost of leaf functions the walk does not inline (their
/// bodies touch only lattice constants, never device memory).
const std::map<std::string, double>& intrinsic_flops() {
  static const std::map<std::string, double> table = {
      {"equilibrium", 12.0}, {"c", 0.0}, {"opposite", 0.0},
      {"pulsatile_scale", 6.0},
  };
  return table;
}

// ---------------------------------------------------------------------------
// Definitions parsed from sources.
// ---------------------------------------------------------------------------

struct Param {
  std::string name;
  Sym sym;            // default binding when the call site gives none
  bool arrayish = false;
};

struct FunctionDef {
  std::string name;
  std::vector<Param> params;
  std::string body;
  std::string file;
  int line = 0;
};

struct FunctorDef {
  std::string name;
  SymTab members;
  std::string body;
  std::string file;
  int line = 0;
};

using Registry = std::map<std::string, FunctionDef>;

Param parse_param(const std::string& decl_in) {
  Param p;
  const std::string decl = trim(decl_in);
  if (decl.empty()) return p;
  if (decl.find("KernelArgs") != std::string::npos) {
    p.sym.kind = SymKind::kKernelArgs;
    p.arrayish = true;
  } else if (decl.find('*') != std::string::npos ||
             decl.find('[') != std::string::npos) {
    p.arrayish = true;
  }
  // Name: the last identifier before any '['.
  const std::string head = decl.substr(0, decl.find('['));
  static const std::regex kLastIdent(R"(([A-Za-z_]\w*)\s*$)");
  std::smatch m;
  if (std::regex_search(head, m, kLastIdent)) p.name = m[1].str();
  if (p.arrayish && p.sym.kind != SymKind::kKernelArgs) {
    // Array-typed value params ("double f[kQ]") are caller stack arrays
    // unless the call site binds device memory; pointers default to the
    // device role their name implies.
    if (decl.find('[') != std::string::npos &&
        decl.find('*') == std::string::npos) {
      p.sym.kind = SymKind::kLocalArray;
      p.sym.role = ArrayRole::kLocal;
    } else {
      p.sym = device_sym(p.name, decl);
    }
    p.sym.canonical = p.name;
  }
  return p;
}

/// Member declarations of a functor, from the struct text preceding
/// operator(): raw pointers become device arrays, KernelArgs members the
/// ABI bundle, everything else launch scalars.
SymTab parse_members(const std::string& text) {
  SymTab members;
  for (const std::string& stmt_raw : split_top_level(text, ';')) {
    const std::string stmt = trim(stmt_raw);
    if (stmt.empty()) continue;
    static const std::regex kPointer(
        R"(^(?:const\s+)?([\w:]+)\s*\*\s*(\w+)(\s*=.*)?$)");
    static const std::regex kValue(
        R"(^(?:const\s+)?([\w:<>]+)\s+(\w+)(\s*=.*)?$)");
    std::smatch m;
    if (std::regex_match(stmt, m, kPointer)) {
      members[m[2].str()] = device_sym(m[2].str(), m[1].str());
    } else if (std::regex_match(stmt, m, kValue)) {
      if (m[1].str().find("KernelArgs") != std::string::npos) {
        Sym sym;
        sym.kind = SymKind::kKernelArgs;
        sym.canonical = m[2].str();
        members[m[2].str()] = sym;
      }
      // Scalars (n, omega, ...) resolve to "not an array": no entry.
    }
  }
  return members;
}

void parse_file(const FluxSource& source, Registry* registry,
                std::vector<FunctorDef>* functors) {
  const std::string text = strip_comments(source.content);

  // Free inline functions.
  static const std::regex kInlineFn(R"(\binline\s+[\w:<>&\s\*]*?(\w+)\s*\()");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), kInlineFn);
       it != std::sregex_iterator(); ++it) {
    const std::size_t paren = static_cast<std::size_t>(it->position(1)) +
                              it->length(1);
    std::size_t open = text.find('(', paren);
    if (open == std::string::npos) continue;
    const std::size_t close = match_delim(text, open);
    std::size_t brace = close;
    skip_ws(text, brace, text.size());
    // Skip qualifiers between ) and { (e.g. "const", "noexcept").
    while (brace < text.size() && text[brace] != '{' && text[brace] != ';' &&
           text[brace] != '(')
      ++brace;
    if (brace >= text.size() || text[brace] != '{') continue;
    FunctionDef fn;
    fn.name = (*it)[1].str();
    fn.file = source.file;
    fn.line = line_at(text, static_cast<std::size_t>(it->position(0)));
    for (const std::string& param :
         split_top_level(text.substr(open + 1, close - open - 2), ','))
      fn.params.push_back(parse_param(param));
    fn.body = text.substr(brace + 1, match_delim(text, brace) - brace - 2);
    (*registry)[fn.name] = std::move(fn);
  }

  // Kernel functors: structs with an operator().
  static const std::regex kStruct(R"(\bstruct\s+(\w+)\s*\{)");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), kStruct);
       it != std::sregex_iterator(); ++it) {
    const std::size_t open =
        static_cast<std::size_t>(it->position(0)) + it->length(0) - 1;
    const std::size_t close = match_delim(text, open);
    const std::string body = text.substr(open + 1, close - open - 2);
    const std::size_t op = body.find("operator()");
    if (op == std::string::npos) continue;
    FunctorDef functor;
    functor.name = (*it)[1].str();
    functor.file = source.file;
    functor.line = line_at(text, static_cast<std::size_t>(it->position(0)));
    functor.members = parse_members(body.substr(0, op));
    std::size_t params_open = body.find('(', op + 10);
    if (params_open == std::string::npos) continue;
    const std::size_t params_close = match_delim(body, params_open);
    std::size_t brace = params_close;
    while (brace < body.size() && body[brace] != '{') ++brace;
    if (brace >= body.size()) continue;
    functor.body = body.substr(brace + 1, match_delim(body, brace) - brace - 2);
    functors->push_back(std::move(functor));
  }
}

// ---------------------------------------------------------------------------
// Structure tree: loops, branch alternatives, statements.
// ---------------------------------------------------------------------------

struct Node {
  enum Kind { kSeq, kLoop, kBranch, kStmt } kind = kSeq;
  std::vector<std::unique_ptr<Node>> children;  // Seq / Loop body / Branch alts
  double factor = 1.0;                          // kLoop trip count
  std::string text;                             // kStmt statement text
};

using NodePtr = std::unique_ptr<Node>;

NodePtr make_node(Node::Kind kind) {
  auto node = std::make_unique<Node>();
  node->kind = kind;
  return node;
}

double loop_factor(const std::string& header) {
  const std::vector<std::string> parts = split_top_level(header, ';');
  if (parts.size() < 2) return 1.0;
  static const std::regex kBound(R"([<>]=?\s*([\w.]+))");
  std::smatch m;
  if (!std::regex_search(parts[1], m, kBound)) return 1.0;
  const std::string bound = m[1].str();
  if (bound == "kQ") return 19.0;
  if (!bound.empty() &&
      std::all_of(bound.begin(), bound.end(),
                  [](char c) { return std::isdigit(static_cast<unsigned char>(c)); }))
    return std::stod(bound);
  return 1.0;  // symbolic bound (per-point kernels do not loop over n)
}

bool ends_with_jump(const Node& node) {
  if (node.kind == Node::kStmt) {
    const std::string t = trim(node.text);
    return t.rfind("continue", 0) == 0 || t.rfind("return", 0) == 0 ||
           t.rfind("break", 0) == 0;
  }
  if (!node.children.empty())
    return ends_with_jump(*node.children.back());
  return false;
}

class BlockParser {
 public:
  explicit BlockParser(const std::string& text) : text_(text) {}

  NodePtr parse() { return parse_block(0, text_.size()); }

 private:
  const std::string& text_;

  /// One statement: everything up to the first ';' at local depth zero
  /// (lambdas and nested calls keep their ';' and ',' inside).
  std::string read_statement(std::size_t& pos, std::size_t end) {
    const std::size_t start = pos;
    int depth = 0;
    while (pos < end) {
      const char c = text_[pos];
      if (c == '(' || c == '[' || c == '{') ++depth;
      else if (c == ')' || c == ']' || c == '}') --depth;
      else if (c == ';' && depth == 0) {
        ++pos;
        return text_.substr(start, pos - start - 1);
      }
      ++pos;
    }
    return text_.substr(start, end - start);
  }

  /// Body of an if/for: a braced block, or a single statement.
  NodePtr read_body(std::size_t& pos, std::size_t end) {
    skip_ws(text_, pos, end);
    if (pos < end && text_[pos] == '{') {
      const std::size_t close = match_delim(text_, pos);
      NodePtr block = parse_block(pos + 1, close - 1);
      pos = close;
      return block;
    }
    if (word_at(text_, pos, end, "for")) return parse_for(pos, end);
    auto stmt = make_node(Node::kStmt);
    stmt->text = read_statement(pos, end);
    auto seq = make_node(Node::kSeq);
    seq->children.push_back(std::move(stmt));
    return seq;
  }

  NodePtr parse_for(std::size_t& pos, std::size_t end) {
    pos += 3;  // "for"
    skip_ws(text_, pos, end);
    HEMO_EXPECTS(pos < end && text_[pos] == '(');
    const std::size_t close = match_delim(text_, pos);
    const std::string header = text_.substr(pos + 1, close - pos - 2);
    pos = close;
    auto loop = make_node(Node::kLoop);
    loop->factor = loop_factor(header);
    loop->children.push_back(read_body(pos, end));
    return loop;
  }

  NodePtr parse_block(std::size_t pos, std::size_t end) {
    auto seq = make_node(Node::kSeq);
    while (true) {
      skip_ws(text_, pos, end);
      if (pos >= end) break;
      if (text_[pos] == '{') {  // bare scope
        const std::size_t close = match_delim(text_, pos);
        seq->children.push_back(parse_block(pos + 1, close - 1));
        pos = close;
        continue;
      }
      if (word_at(text_, pos, end, "for")) {
        seq->children.push_back(parse_for(pos, end));
        continue;
      }
      if (word_at(text_, pos, end, "if")) {
        auto branch = make_node(Node::kBranch);
        bool has_else = false;
        while (true) {
          // At an "if": consume the condition, then its body.  Condition
          // subscripts are real loads; charge them as a statement ahead
          // of the branch (an upper bound for else-if chains, matching
          // the branch-max philosophy).
          pos += 2;
          skip_ws(text_, pos, end);
          HEMO_EXPECTS(pos < end && text_[pos] == '(');
          const std::size_t cond_open = pos;
          pos = match_delim(text_, pos);
          auto cond = make_node(Node::kStmt);
          cond->text = text_.substr(cond_open + 1, pos - cond_open - 2);
          seq->children.push_back(std::move(cond));
          branch->children.push_back(read_body(pos, end));
          const std::size_t save = pos;
          skip_ws(text_, pos, end);
          if (!word_at(text_, pos, end, "else")) {
            pos = save;
            break;
          }
          pos += 4;
          skip_ws(text_, pos, end);
          if (word_at(text_, pos, end, "if")) continue;
          branch->children.push_back(read_body(pos, end));
          has_else = true;
          break;
        }
        if (!has_else) {
          if (ends_with_jump(*branch->children.back())) {
            // `if (...) { ...; continue; }`: the rest of this block is
            // the implicit else branch.
            branch->children.push_back(parse_block(pos, end));
            seq->children.push_back(std::move(branch));
            return seq;
          }
          branch->children.push_back(make_node(Node::kSeq));
        }
        seq->children.push_back(std::move(branch));
        continue;
      }
      auto stmt = make_node(Node::kStmt);
      stmt->text = read_statement(pos, end);
      if (!trim(stmt->text).empty()) seq->children.push_back(std::move(stmt));
    }
    return seq;
  }
};

// ---------------------------------------------------------------------------
// Evaluation: fold the tree into per-array access counts.
// ---------------------------------------------------------------------------

struct AccMeta {
  ArrayRole role = ArrayRole::kScratch;
  int elem_bytes = 8;
};

struct Counts {
  // (array, role, dir, stride) -> expected accesses per point.  Role is
  // part of the key so a stack local that shadows a device array's name
  // (the AA kernels' `double f[kQ]` beside args.f) keeps its own bucket
  // instead of being charged as device distribution traffic.
  std::map<std::tuple<std::string, int, int, int>, double> acc;
  std::map<std::pair<std::string, int>, AccMeta> meta;
  double flops = 0.0;

  void add(const std::string& array, AccessDir dir, StrideClass stride,
           double count, ArrayRole role, int elem_bytes) {
    acc[{array, static_cast<int>(role), static_cast<int>(dir),
         static_cast<int>(stride)}] += count;
    meta[{array, static_cast<int>(role)}] = AccMeta{role, elem_bytes};
  }

  void merge_sum(const Counts& other) {
    for (const auto& [key, count] : other.acc) acc[key] += count;
    for (const auto& [key, m] : other.meta) meta[key] = m;
    flops += other.flops;
  }

  void scale(double factor) {
    for (auto& [key, count] : acc) count *= factor;
    flops *= factor;
  }

  /// Branch merge: element-wise maximum (the upper bound the model
  /// charges; a branch can only realize one alternative per point).
  static Counts branch_max(const std::vector<Counts>& alts) {
    Counts out;
    for (const Counts& alt : alts) {
      for (const auto& [key, count] : alt.acc) {
        auto it = out.acc.find(key);
        if (it == out.acc.end()) out.acc[key] = count;
        else it->second = std::max(it->second, count);
      }
      for (const auto& [key, m] : alt.meta) out.meta[key] = m;
      out.flops = std::max(out.flops, alt.flops);
    }
    return out;
  }
};

StrideClass classify_stride(std::string index) {
  static const std::regex kCast(R"(static_cast<[^<>]*>)");
  index = std::regex_replace(index, kCast, "");
  if (index.find('[') != std::string::npos) return StrideClass::kGather;
  static const std::regex kAoS(R"(\*\s*kQ\b|\bkQ\s*\*)");
  if (std::regex_search(index, kAoS)) return StrideClass::kAoS;
  static const std::regex kSoA(R"(\*\s*(?:[A-Za-z_]\w*(?:\.|->))?n\b|\bn\s*\*)");
  if (std::regex_search(index, kSoA)) return StrideClass::kSoA;
  return StrideClass::kUnit;
}

class Evaluator {
 public:
  Evaluator(const Registry& registry) : registry_(registry) {}

  Counts eval(const Node& node, SymTab& syms, int depth) const {
    switch (node.kind) {
      case Node::kSeq: {
        Counts out;
        for (const NodePtr& child : node.children)
          out.merge_sum(eval(*child, syms, depth));
        return out;
      }
      case Node::kLoop: {
        Counts out = eval(*node.children.front(), syms, depth);
        out.scale(node.factor);
        return out;
      }
      case Node::kBranch: {
        std::vector<Counts> alts;
        for (const NodePtr& child : node.children) {
          SymTab branch_syms = syms;  // branch-scoped declarations
          alts.push_back(eval(*child, branch_syms, depth));
        }
        return Counts::branch_max(alts);
      }
      case Node::kStmt:
        return eval_statement(node.text, syms, depth);
    }
    return Counts{};
  }

 private:
  const Registry& registry_;

  /// Resolves a dotted access base ("a.f_in", "args", "f") to a symbol.
  const Sym* resolve(const std::string& base, SymTab& syms,
                     std::string* canonical) const {
    static const std::regex kSep(R"(\.|->)");
    std::sregex_token_iterator it(base.begin(), base.end(), kSep, -1), sep_end;
    std::vector<std::string> parts(it, sep_end);
    if (parts.empty()) return nullptr;
    const auto first = syms.find(parts.front());
    if (first != syms.end() && first->second.kind == SymKind::kKernelArgs &&
        parts.size() > 1) {
      const SymTab& fields = kernel_args_fields();
      const auto field = fields.find(parts.back());
      if (field == fields.end()) return nullptr;  // scalar field (n, omega)
      *canonical = field->second.canonical;
      return &field->second;
    }
    if (first != syms.end() && parts.size() == 1 &&
        first->second.kind != SymKind::kScalar &&
        first->second.kind != SymKind::kKernelArgs) {
      *canonical = first->second.canonical.empty() ? parts.front()
                                                   : first->second.canonical;
      return &first->second;
    }
    // Unknown subscripted name: register it as an implicit device array so
    // fixture kernels need no boilerplate declarations.
    if (parts.size() == 1 && first == syms.end()) {
      Sym sym = device_sym(parts.front(), "double");
      auto [slot, inserted] = syms.emplace(parts.front(), sym);
      (void)inserted;
      *canonical = parts.front();
      return &slot->second;
    }
    return nullptr;
  }

  Counts eval_statement(const std::string& raw, SymTab& syms,
                        int depth) const {
    Counts out;
    const std::string stmt = trim(raw);
    if (stmt.empty() || stmt == "continue" || stmt == "break") return out;

    // Local declarations introduce register-class arrays and KernelArgs
    // bundles; a pure declaration contributes no traffic.
    static const std::regex kLocalArray(
        R"(^(?:const\s+)?(double|float|int|std::int64_t|std::uint32_t|auto)\s+(\w+)\s*\[)");
    std::smatch m;
    if (std::regex_search(stmt, m, kLocalArray) &&
        stmt.find('=') == std::string::npos) {
      Sym sym;
      sym.kind = SymKind::kLocalArray;
      sym.role = ArrayRole::kLocal;
      sym.canonical = m[2].str();
      syms[m[2].str()] = sym;
      return out;
    }
    static const std::regex kLocalArgs(R"(KernelArgs\s+(\w+)\s*$)");
    if (std::regex_search(stmt, m, kLocalArgs)) {
      Sym sym;
      sym.kind = SymKind::kKernelArgs;
      sym.canonical = m[1].str();
      syms[m[1].str()] = sym;
      return out;
    }

    // Calls into the shared inline kernel bodies.
    static const std::regex kCall(R"(([A-Za-z_][A-Za-z0-9_:]*)\s*\()");
    for (auto it = std::sregex_iterator(stmt.begin(), stmt.end(), kCall);
         it != std::sregex_iterator(); ++it) {
      const std::size_t name_pos = static_cast<std::size_t>(it->position(1));
      // Skip member calls (x.size()) but keep qualified ones (ns::fn()).
      std::size_t before = name_pos;
      while (before > 0 &&
             std::isspace(static_cast<unsigned char>(stmt[before - 1])))
        --before;
      if (before > 0 && (stmt[before - 1] == '.' ||
                         (before > 1 && stmt[before - 2] == '-' &&
                          stmt[before - 1] == '>')))
        continue;
      std::string name = (*it)[1].str();
      const std::size_t colons = name.rfind("::");
      if (colons != std::string::npos) name = name.substr(colons + 2);

      const auto flops_it = intrinsic_flops().find(name);
      if (flops_it != intrinsic_flops().end()) {
        out.flops += flops_it->second;
        continue;
      }
      const auto fn_it = registry_.find(name);
      if (fn_it == registry_.end() || depth > 16) continue;
      const FunctionDef& fn = fn_it->second;

      const std::size_t open = name_pos + it->length(1) +
                               (stmt.substr(name_pos + it->length(1))
                                    .find('(')); // first '(' after the name
      const std::size_t close = match_delim(stmt, open);
      const std::vector<std::string> args =
          split_top_level(stmt.substr(open + 1, close - open - 2), ',');

      SymTab callee_syms;
      for (std::size_t k = 0; k < fn.params.size(); ++k) {
        const Param& formal = fn.params[k];
        if (!formal.arrayish || formal.name.empty()) continue;
        Sym bound = formal.sym;
        if (k < args.size()) {
          std::string actual = trim(args[k]);
          while (!actual.empty() && (actual[0] == '&' || actual[0] == '*'))
            actual = trim(actual.substr(1));
          static const std::regex kIdent(R"(^[\w:]+(?:(?:\.|->)\w+)*$)");
          if (std::regex_match(actual, kIdent)) {
            std::string canonical;
            if (const Sym* sym = resolve(actual, syms, &canonical)) {
              bound = *sym;
              bound.canonical = canonical;
            } else if (syms.contains(actual) &&
                       syms.at(actual).kind == SymKind::kKernelArgs) {
              bound = syms.at(actual);
            }
          }
        }
        if (bound.canonical.empty()) bound.canonical = formal.name;
        callee_syms[formal.name] = bound;
      }
      BlockParser parser(fn.body);
      const NodePtr tree = parser.parse();
      out.merge_sum(eval(*tree, callee_syms, depth + 1));
    }

    // Assignment split: subscripts on the left-hand side are stores.
    std::size_t assign_pos = std::string::npos;
    bool compound = false;
    {
      int d = 0;
      for (std::size_t i = 0; i < stmt.size(); ++i) {
        const char c = stmt[i];
        if (c == '(' || c == '[' || c == '{') ++d;
        else if (c == ')' || c == ']' || c == '}') --d;
        if (d != 0 || c != '=') continue;
        const char prev = i > 0 ? stmt[i - 1] : '\0';
        const char next = i + 1 < stmt.size() ? stmt[i + 1] : '\0';
        if (next == '=' || prev == '=' || prev == '<' || prev == '>' ||
            prev == '!')
          continue;
        assign_pos = i;
        compound = prev == '+' || prev == '-' || prev == '*' || prev == '/' ||
                   prev == '|' || prev == '&' || prev == '^';
        break;
      }
    }

    // Subscript accesses, outermost first; nested indices are loads.
    std::vector<std::pair<std::size_t, std::size_t>> index_ranges;
    scan_subscripts(stmt, 0, stmt.size(), assign_pos, compound, false, syms,
                    &out, &index_ranges);

    // Arithmetic outside subscript index expressions counts as flops.
    for (std::size_t i = 0; i < stmt.size(); ++i) {
      const char c = stmt[i];
      if (c != '+' && c != '-' && c != '*' && c != '/') continue;
      const char next = i + 1 < stmt.size() ? stmt[i + 1] : '\0';
      const char prev = i > 0 ? stmt[i - 1] : '\0';
      if ((c == '+' && (next == '+' || prev == '+')) ||
          (c == '-' && (next == '-' || prev == '-' || next == '>')))
        continue;
      if (c == '*' && (prev == '(' || prev == ',' ||
                       (i + 1 < stmt.size() &&
                        std::isalpha(static_cast<unsigned char>(next)) == 0 &&
                        next == ' ' && false)))
        continue;  // crude deref guard; declarations were filtered above
      bool in_index = false;
      for (const auto& [b, e] : index_ranges)
        if (i >= b && i < e) { in_index = true; break; }
      if (!in_index) out.flops += 1.0;
    }
    return out;
  }

  /// Finds subscripts in stmt[begin, end); `nested` marks index-expression
  /// context (always loads).  Records each index range for the flop scan.
  void scan_subscripts(
      const std::string& stmt, std::size_t begin, std::size_t end,
      std::size_t assign_pos, bool compound, bool nested, SymTab& syms,
      Counts* out,
      std::vector<std::pair<std::size_t, std::size_t>>* index_ranges) const {
    static const std::regex kBase(R"(([A-Za-z_]\w*(?:(?:\.|->)\w+)*)\s*\[)");
    std::size_t pos = begin;
    while (pos < end) {
      const std::string window = stmt.substr(pos, end - pos);
      std::smatch m;
      if (!std::regex_search(window, m, kBase)) return;
      const std::size_t base_start = pos + static_cast<std::size_t>(m.position(1));
      const std::size_t open = pos + static_cast<std::size_t>(m.position(0)) +
                               static_cast<std::size_t>(m.length(0)) - 1;
      const std::size_t close = match_delim(stmt, open);
      const std::string base = m[1].str();
      const std::string index = stmt.substr(open + 1, close - open - 2);
      index_ranges->emplace_back(open + 1, close - 1);

      std::string canonical;
      if (const Sym* sym = resolve(base, syms, &canonical)) {
        const StrideClass stride = classify_stride(index);
        const ArrayRole role = sym->kind == SymKind::kLocalArray
                                   ? ArrayRole::kLocal
                                   : sym->role;
        const bool is_store = !nested && assign_pos != std::string::npos &&
                              base_start < assign_pos;
        if (is_store) {
          out->add(canonical, AccessDir::kStore, stride, 1.0, role,
                   sym->elem_bytes);
          if (compound)
            out->add(canonical, AccessDir::kLoad, stride, 1.0, role,
                     sym->elem_bytes);
        } else {
          out->add(canonical, AccessDir::kLoad, stride, 1.0, role,
                   sym->elem_bytes);
        }
      }
      // Nested subscripts inside this index are loads.
      scan_subscripts(stmt, open + 1, close - 1, assign_pos, compound, true,
                      syms, out, index_ranges);
      pos = close;
    }
  }
};

KernelProfile profile_functor(const FunctorDef& functor,
                              const Registry& registry) {
  KernelProfile profile;
  profile.kernel = functor.name;
  profile.file = functor.file;
  profile.line = functor.line;

  SymTab syms = functor.members;
  BlockParser parser(functor.body);
  const NodePtr tree = parser.parse();
  const Evaluator evaluator(registry);
  Counts counts = evaluator.eval(*tree, syms, 0);

  for (const auto& [key, count] : counts.acc) {
    if (count <= 0.0) continue;
    const auto& [array, role, dir, stride] = key;
    const AccMeta& meta = counts.meta.at({array, role});
    ArrayAccess access;
    access.array = array;
    access.role = meta.role;
    access.dir = static_cast<AccessDir>(dir);
    access.stride = static_cast<StrideClass>(stride);
    access.count_per_point = count;
    access.elem_bytes = meta.elem_bytes;
    profile.accesses.push_back(std::move(access));
  }
  std::sort(profile.accesses.begin(), profile.accesses.end(),
            [](const ArrayAccess& a, const ArrayAccess& b) {
              return std::tie(a.array, a.role, a.dir, a.stride) <
                     std::tie(b.array, b.role, b.dir, b.stride);
            });
  profile.flops_per_point = counts.flops;
  return profile;
}

std::string read_repo_file(const std::string& relative) {
  const std::string path = std::string(HEMO_REPO_DIR) + "/" + relative;
  std::ifstream in(path);
  HEMO_EXPECTS(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

std::vector<KernelProfile> extract_kernel_profiles(
    const std::vector<FluxSource>& sources) {
  Registry registry;
  std::vector<FunctorDef> functors;
  for (const FluxSource& source : sources)
    parse_file(source, &registry, &functors);
  std::vector<KernelProfile> profiles;
  profiles.reserve(functors.size());
  for (const FunctorDef& functor : functors)
    profiles.push_back(profile_functor(functor, registry));
  sort_profiles(profiles);
  return profiles;
}

std::vector<KernelProfile> extract_dialect_profiles(
    port::CorpusDialect dialect) {
  const char* prefix = "";
  switch (dialect) {
    case port::CorpusDialect::kCudax: prefix = "cudax/"; break;
    case port::CorpusDialect::kHipx: prefix = "hipx/"; break;
    case port::CorpusDialect::kSyclx: prefix = "syclx/"; break;
    case port::CorpusDialect::kKokkosx: prefix = "kokkosx/"; break;
  }
  std::vector<FluxSource> sources;
  sources.push_back(FluxSource{std::string(prefix) + "kernels.h",
                               port::read_corpus_file(dialect, "kernels.h")});
  sources.push_back(
      FluxSource{"lbm/kernels.hpp", read_repo_file("src/lbm/kernels.hpp")});
  std::vector<KernelProfile> profiles = extract_kernel_profiles(sources);
  // The shared header defines no functors, so every profile is dialect-
  // local; keep only those (defensive against future lbm structs).
  std::erase_if(profiles, [&](const KernelProfile& p) {
    return p.file.rfind(prefix, 0) != 0;
  });
  return profiles;
}

bool is_hot_loop_kernel(const std::string& kernel) {
  return kernel == "StreamCollideKernel" || kernel == "StreamOnlyKernel" ||
         kernel == "CollideOnlyKernel" ||
         kernel == "StreamCollideAAEvenKernel" ||
         kernel == "StreamCollideAAOddKernel";
}

}  // namespace hemo::analysis

#include "pdslint.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>

namespace pdslint {
namespace {

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

bool Contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

bool IsHeaderPath(const std::string& path) {
  return path.size() > 2 && path.compare(path.size() - 2, 2, ".h") == 0;
}

std::string Basename(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

// ---------------------------------------------------------------------------
// Pass 0: split into lines, blank out comments and string/char literals in a
// "code" view, and keep the comment text per line for waiver parsing.
// ---------------------------------------------------------------------------

struct Scrubbed {
  std::vector<std::string> code;      // literals/comments replaced by spaces
  std::vector<std::string> comments;  // comment text only, per line
};

Scrubbed Scrub(const std::string& content) {
  enum State { kCode, kLineComment, kBlockComment, kString, kChar };
  Scrubbed out;
  std::string code_line, comment_line;
  State state = kCode;
  for (size_t i = 0; i < content.size(); ++i) {
    char c = content[i];
    char next = i + 1 < content.size() ? content[i + 1] : '\0';
    if (c == '\n') {
      if (state == kLineComment) state = kCode;
      out.code.push_back(code_line);
      out.comments.push_back(comment_line);
      code_line.clear();
      comment_line.clear();
      continue;
    }
    switch (state) {
      case kCode:
        if (c == '/' && next == '/') {
          state = kLineComment;
          ++i;
          code_line += "  ";
        } else if (c == '/' && next == '*') {
          state = kBlockComment;
          ++i;
          code_line += "  ";
        } else if (c == '"') {
          state = kString;
          code_line += '"';
        } else if (c == '\'') {
          state = kChar;
          code_line += '\'';
        } else {
          code_line += c;
        }
        break;
      case kLineComment:
        comment_line += c;
        code_line += ' ';
        break;
      case kBlockComment:
        if (c == '*' && next == '/') {
          state = kCode;
          ++i;
          code_line += "  ";
        } else {
          comment_line += c;
          code_line += ' ';
        }
        break;
      case kString:
        if (c == '\\') {
          code_line += "  ";
          ++i;
        } else if (c == '"') {
          state = kCode;
          code_line += '"';
        } else {
          code_line += ' ';
        }
        break;
      case kChar:
        if (c == '\\') {
          code_line += "  ";
          ++i;
        } else if (c == '\'') {
          state = kCode;
          code_line += '\'';
        } else {
          code_line += ' ';
        }
        break;
    }
  }
  out.code.push_back(code_line);
  out.comments.push_back(comment_line);
  return out;
}

// ---------------------------------------------------------------------------
// Pass 1: brace-frame structure. Classifies each `{ ... }` block as a
// namespace, type, function, loop, control block, or initializer so rules
// can ask "which function encloses line N?" and "is line N inside a loop?".
// ---------------------------------------------------------------------------

enum class FrameKind { kFile, kNamespace, kType, kFunction, kLoop, kControl, kInit };

struct Frame {
  FrameKind kind = FrameKind::kFile;
  int parent = -1;
  int open_line = 0;   // 0-based
  int close_line = -1; // filled at the closing brace; last line if unclosed
};

struct Structure {
  std::vector<Frame> frames;       // frames[0] is the synthetic file frame
  std::vector<int> line_frame;     // innermost frame at the start of each line
};

const std::regex kControlHead(R"((^|[^\w])(if|switch|catch|else)\b)");
const std::regex kLoopHead(R"((^|[^\w])(for|while|do)\b)");
const std::regex kTypeHead(R"((^|[^\w])(class|struct|union|enum)\s)");

FrameKind ClassifyHead(const std::string& head, int paren_depth) {
  if (paren_depth > 0) return FrameKind::kInit;
  if (head.find("namespace") != std::string::npos) return FrameKind::kNamespace;
  if (std::regex_search(head, kLoopHead)) return FrameKind::kLoop;
  if (std::regex_search(head, kControlHead)) return FrameKind::kControl;
  std::string t = Trim(head);
  if (t.empty() || t.back() == '=' || t.back() == ',' || t.back() == '(') {
    return FrameKind::kInit;
  }
  if (std::regex_search(head, kTypeHead) &&
      head.find('(') == std::string::npos) {
    return FrameKind::kType;
  }
  if (head.find('(') != std::string::npos) return FrameKind::kFunction;
  return FrameKind::kInit;
}

Structure BuildStructure(const std::vector<std::string>& code) {
  Structure st;
  st.frames.push_back(Frame{});  // file frame
  st.frames[0].close_line = static_cast<int>(code.size()) - 1;
  std::vector<int> stack{0};
  std::string head;
  int paren_depth = 0;
  for (size_t ln = 0; ln < code.size(); ++ln) {
    st.line_frame.push_back(stack.back());
    for (char c : code[ln]) {
      switch (c) {
        case '(':
          ++paren_depth;
          head += c;
          break;
        case ')':
          if (paren_depth > 0) --paren_depth;
          head += c;
          break;
        case '{': {
          Frame f;
          f.kind = ClassifyHead(head, paren_depth);
          f.parent = stack.back();
          f.open_line = static_cast<int>(ln);
          st.frames.push_back(f);
          stack.push_back(static_cast<int>(st.frames.size()) - 1);
          head.clear();
          break;
        }
        case '}':
          if (stack.size() > 1) {
            st.frames[stack.back()].close_line = static_cast<int>(ln);
            stack.pop_back();
          }
          head.clear();
          break;
        case ';':
          if (paren_depth == 0) head.clear();
          else head += c;
          break;
        default:
          head += c;
      }
    }
  }
  for (Frame& f : st.frames) {
    if (f.close_line < 0) f.close_line = static_cast<int>(code.size()) - 1;
  }
  return st;
}

// Innermost enclosing function frame for a line; -1 when at namespace scope.
int EnclosingFunction(const Structure& st, int line) {
  int f = st.line_frame[line];
  while (f >= 0 && st.frames[f].kind != FrameKind::kFunction) {
    f = st.frames[f].parent;
  }
  return f;
}

// True when the line sits inside a loop of its enclosing function (or inside
// any loop when at namespace scope). Also catches the brace-less
// `for (...) stmt;` shape by peeking at the current and two previous lines.
bool InLoop(const Structure& st, const std::vector<std::string>& code,
            int line) {
  for (int f = st.line_frame[line]; f >= 0; f = st.frames[f].parent) {
    if (st.frames[f].kind == FrameKind::kLoop) return true;
    if (st.frames[f].kind == FrameKind::kFunction) break;
  }
  static const std::regex loop_start(R"(^\s*(for|while)\s*\()");
  for (int i = line; i >= 0 && i >= line - 2; --i) {
    if (std::regex_search(code[i], loop_start)) return true;
  }
  return false;
}

// True when any frame at or above `line`'s position is at namespace/file
// scope only (no type/function frame) — i.e. the line declares at namespace
// scope.
bool AtNamespaceScope(const Structure& st, int line) {
  for (int f = st.line_frame[line]; f >= 0; f = st.frames[f].parent) {
    FrameKind k = st.frames[f].kind;
    if (k == FrameKind::kFunction || k == FrameKind::kType ||
        k == FrameKind::kLoop || k == FrameKind::kControl ||
        k == FrameKind::kInit) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Waivers
// ---------------------------------------------------------------------------

// `// pdslint: ram-exempt(reason)` or `// pdslint: exempt(rule, reason)`.
// The reason runs to the last ')' so it may itself contain parentheses.
// `// pdslint: declassify(reason)` is the secret-flow rule's waiver form: it
// both suppresses findings on the covered lines and stops taint propagation
// through them (the value is deliberately made public).
const std::regex kWaiverShort(R"(pdslint:\s*([a-z-]+)-exempt\((.*)\))");
const std::regex kWaiverLong(R"(pdslint:\s*exempt\(\s*([a-z-]+)\s*,\s*(.*)\))");
const std::regex kDeclassify(R"(pdslint:\s*declassify\((.*)\))");

struct WaiverSpan {
  int first_line;  // 0-based, inclusive
  int last_line;   // 0-based, inclusive
  Rule rule;
  size_t index;    // into report->waivers
};

struct FileWaivers {
  std::vector<WaiverSpan> spans;
};

void CollectWaivers(const std::string& path, const Scrubbed& s,
                    const Structure& st, Report* report, FileWaivers* fw) {
  for (size_t ln = 0; ln < s.comments.size(); ++ln) {
    if (s.comments[ln].find("pdslint:") == std::string::npos) continue;
    // A waiver may wrap onto following comment-only lines; join them so the
    // closing ')' is seen.
    std::string comment = s.comments[ln];
    for (size_t j = ln + 1;
         j < s.comments.size() && !s.comments[j].empty() &&
         Trim(s.code[j]).empty() &&
         s.comments[j].find("pdslint:") == std::string::npos;
         ++j) {
      comment += ' ' + s.comments[j];
    }
    std::smatch m;
    std::string rule_name, reason;
    if (std::regex_search(comment, m, kWaiverShort)) {
      rule_name = m[1];
      reason = Trim(m[2]);
    } else if (std::regex_search(comment, m, kWaiverLong)) {
      rule_name = m[1];
      reason = Trim(m[2]);
    } else if (std::regex_search(comment, m, kDeclassify)) {
      rule_name = "secret-flow";
      reason = Trim(m[1]);
    } else {
      continue;
    }
    Rule rule;
    if (!ParseRuleName(rule_name, &rule)) continue;
    // A waiver on a code-bearing line covers that line. A waiver on its own
    // line covers the next line with code — and when that line starts a
    // function, the whole function body (so one justified exemption covers a
    // lexer loop instead of ten line-waivers; the budget still counts it).
    int target = static_cast<int>(ln);
    int last = target;
    if (Trim(s.code[ln]).empty()) {
      for (size_t j = ln + 1; j < s.code.size(); ++j) {
        if (!Trim(s.code[j]).empty()) {
          target = static_cast<int>(j);
          last = target;
          break;
        }
      }
      // Multi-line signatures put the `{` up to a few lines below the
      // declaration start; accept a function frame opening in that window.
      for (size_t fi = 1; fi < st.frames.size(); ++fi) {
        const Frame& f = st.frames[fi];
        if (f.kind == FrameKind::kFunction && f.open_line >= target &&
            f.open_line <= target + 3) {
          last = f.close_line;
          break;
        }
      }
    }
    Waiver w;
    w.file = path;
    w.line = target + 1;
    w.rule = rule;
    w.reason = reason;
    report->waivers.push_back(w);
    fw->spans.push_back(WaiverSpan{target, last, rule,
                                   report->waivers.size() - 1});
  }
}

// ---------------------------------------------------------------------------
// Finding emission (waiver-aware, occurrence-numbered)
// ---------------------------------------------------------------------------

struct Emitter {
  const std::string& path;
  const std::vector<std::string>& raw_lines;
  Report* report;
  FileWaivers* waivers;
  std::map<std::pair<Rule, std::string>, int> occurrence;

  void Emit(int line0, Rule rule, std::string message) {
    for (const WaiverSpan& span : waivers->spans) {
      if (span.rule == rule && line0 >= span.first_line &&
          line0 <= span.last_line) {
        report->waivers[span.index].used = true;
        return;
      }
    }
    Finding f;
    f.file = path;
    f.line = line0 + 1;
    f.rule = rule;
    f.message = std::move(message);
    f.snippet = Trim(line0 < static_cast<int>(raw_lines.size())
                         ? raw_lines[line0]
                         : "");
    f.occurrence = occurrence[{rule, f.snippet}]++;
    report->findings.push_back(std::move(f));
  }
};

std::vector<std::string> SplitLines(const std::string& content) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : content) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  lines.push_back(cur);
  return lines;
}

// ---------------------------------------------------------------------------
// Rule: ram-alloc
// ---------------------------------------------------------------------------

const std::regex kAllocPrimitive(
    R"((^|[^\w.])new\b|\b(malloc|calloc|realloc|strdup)\s*\()");
const std::regex kGrowthCall(
    R"((\.|->)\s*(push_back|emplace_back|emplace|insert|append)\s*\()");
const std::regex kStringConcat(R"(\+=)");
const std::regex kGaugeMention(
    R"(\bRamCharge\b|\bRamGauge\b|\bgauge\b|\bgauge_\b|\bcharge\b|\bcharge_\b|ram_gauge|\bAcquire\s*\(|\bGrow\s*\()");

bool FunctionMentions(const Structure& st,
                      const std::vector<std::string>& code, int line,
                      const std::regex& pattern) {
  int f = EnclosingFunction(st, line);
  if (f < 0) return false;
  for (int i = st.frames[f].open_line; i <= st.frames[f].close_line; ++i) {
    if (std::regex_search(code[i], pattern)) return true;
  }
  return false;
}

// Growth into a container the function reserved up-front is bounded: the
// allocation happens (and should be charged) at the reservation, not in the
// loop. Lexical, so a reserve on any container in the function suppresses
// all growth findings there — documented in DESIGN.md.
const std::regex kReserveMention(R"((\.|->)\s*reserve\s*\()");

void CheckRamAlloc(const std::string& module, const Scrubbed& s,
                   const Structure& st, Emitter* em) {
  for (size_t ln = 0; ln < s.code.size(); ++ln) {
    const std::string& line = s.code[ln];
    bool primitive = std::regex_search(line, kAllocPrimitive);
    bool growth = std::regex_search(line, kGrowthCall) &&
                  InLoop(st, s.code, static_cast<int>(ln));
    bool concat = std::regex_search(line, kStringConcat) &&
                  line.find('"') != std::string::npos &&
                  InLoop(st, s.code, static_cast<int>(ln));
    if (!primitive && !growth && !concat) continue;
    int line0 = static_cast<int>(ln);
    if (FunctionMentions(st, s.code, line0, kGaugeMention)) continue;
    if (!primitive && FunctionMentions(st, s.code, line0, kReserveMention)) {
      continue;
    }
    const char* what = primitive ? "direct heap allocation"
                      : growth  ? "unbounded container growth in a loop"
                                : "string concatenation in a loop";
    em->Emit(line0, Rule::kRamAlloc,
             std::string(what) + " in embedded module '" + module +
                 "' without mcu::RamGauge accounting; charge the gauge or "
                 "add '// pdslint: ram-exempt(<reason>)'");
  }
}

// ---------------------------------------------------------------------------
// Rule: obs-in-embedded
// ---------------------------------------------------------------------------

// Registry lookups and name interning take a mutex and may allocate; on an
// embedded hot path they must be hoisted to setup (a constructor or a
// function-local static) and the returned pointer reused per event.
const std::regex kObsRegistryLookup(
    R"((\.|->|::)\s*(GetCounter|GetGauge|GetHistogram|Intern)\s*\()");
// A span whose name is composed per construction heap-allocates per event;
// span names in embedded modules must be string literals (or interned once
// at setup, outside any loop).
const std::regex kObsSpanDecl(R"(\bobs\s*::\s*Span\s+\w+\s*\()");
const std::regex kObsDynamicName(
    R"(std\s*::\s*to_string\s*\(|std\s*::\s*string\s*\(|\.\s*c_str\s*\(\s*\))");

void CheckObsInEmbedded(const std::string& module, const Scrubbed& s,
                        const Structure& st, Emitter* em) {
  for (size_t ln = 0; ln < s.code.size(); ++ln) {
    const std::string& line = s.code[ln];
    int line0 = static_cast<int>(ln);
    if (std::regex_search(line, kObsRegistryLookup) &&
        InLoop(st, s.code, line0)) {
      em->Emit(line0, Rule::kObsInEmbedded,
               "obs registry lookup / Intern inside a loop in embedded "
               "module '" + module +
                   "'; resolve the metric pointer once at setup and reuse "
                   "it on the hot path");
      continue;
    }
    if (std::regex_search(line, kObsSpanDecl) &&
        std::regex_search(line, kObsDynamicName)) {
      em->Emit(line0, Rule::kObsInEmbedded,
               "span name composed per event in embedded module '" + module +
                   "'; use a string literal (or Tracer::Intern at setup)");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: net-bounded-frame
// ---------------------------------------------------------------------------

// A function whose name says it turns wire bytes into structures. The name
// sits on the line opening the function's brace frame or (multi-line
// signatures) up to two lines above it; statement lines — ending in ';' —
// are skipped so a call to DecodeFoo() just above an unrelated brace does
// not make that block a decoder.
const std::regex kDecoderName(R"(\b(Decode|Deserialize|Parse)\w*\s*\()");
// Anything that sizes or grows a container — the allocations a lying
// length field would drive.
const std::regex kFrameAlloc(
    R"((\.|->)\s*(reserve|resize|push_back|emplace_back|emplace|insert|append)\s*\(|(^|[^\w.])new\b|\b(malloc|calloc|realloc)\s*\()");
// The compile-time bounds the codec declares (kMaxFramePayload,
// kMaxBatchTuples, ...). Mentioning one before the allocation is the
// machine-checkable shape of "declared length checked against a bound".
const std::regex kBoundMention(R"(\bkMax\w+)");
// Packed-aggregate frames (RoundKind::kPackedCollect) carry a slot-count-
// sized label list one way and a single large ciphertext the other; both
// lengths are peer-controlled, so code on the packed path needs the packed-
// specific bounds (kMaxPackedSlots / kMaxPackedCiphertextBytes), not just
// the generic tuple bounds.
const std::regex kPackedMention(R"(\bkPackedCollect\b)");
const std::regex kPackedBound(R"(\bkMaxPacked\w+)");
// Materializing a BigInt from wire bytes allocates proportionally to the
// blob; on the packed path it is the ciphertext-length allocation.
const std::regex kWireMaterialize(R"(\bFromBytes\s*\()");

void CheckNetBoundedFrame(const std::string& module, const Scrubbed& s,
                          const Structure& st, Emitter* em) {
  for (size_t fi = 1; fi < st.frames.size(); ++fi) {
    const Frame& f = st.frames[fi];
    if (f.kind != FrameKind::kFunction) continue;
    bool is_decoder = false;
    for (int i = f.open_line; i >= 0 && i >= f.open_line - 2; --i) {
      std::string t = Trim(s.code[i]);
      if (!t.empty() && t.back() == ';') continue;
      if (std::regex_search(s.code[i], kDecoderName)) {
        is_decoder = true;
        break;
      }
    }
    bool packed = false;
    for (int i = f.open_line; i <= f.close_line; ++i) {
      if (std::regex_search(s.code[i], kPackedMention)) {
        packed = true;
        break;
      }
    }
    // Packed path, any function: FromBytes on a frame blob must sit behind a
    // kMaxPacked* length check (the ciphertext-length bound).
    if (packed) {
      bool packed_bounded = false;
      for (int i = f.open_line; i <= f.close_line; ++i) {
        if (std::regex_search(s.code[i], kPackedBound)) packed_bounded = true;
        if (!packed_bounded && std::regex_search(s.code[i], kWireMaterialize)) {
          em->Emit(i, Rule::kNetBoundedFrame,
                   "packed-aggregate path in module '" + module +
                       "' materializes a wire blob before checking it "
                       "against a kMaxPacked* bound; the peer controls the "
                       "ciphertext length");
        }
      }
    }
    if (!is_decoder) continue;
    bool bounded = false;
    bool packed_bounded = false;
    for (int i = f.open_line; i <= f.close_line; ++i) {
      if (std::regex_search(s.code[i], kBoundMention)) bounded = true;
      if (std::regex_search(s.code[i], kPackedBound)) packed_bounded = true;
      bool alloc = std::regex_search(s.code[i], kFrameAlloc);
      if (!bounded && alloc) {
        em->Emit(i, Rule::kNetBoundedFrame,
                 "decoder in module '" + module +
                     "' allocates before checking the declared length "
                     "against a compile-time kMax* bound; a hostile peer "
                     "controls that length");
      } else if (packed && !packed_bounded && alloc) {
        // Decoders special-casing the packed round must bound the slot
        // count with the packed-specific constant, not just kMaxBatchTuples
        // (2^16 tuples is far past any packed slot layout).
        em->Emit(i, Rule::kNetBoundedFrame,
                 "packed-round decoder in module '" + module +
                     "' allocates before checking the slot count against "
                     "kMaxPackedSlots");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: result-nodiscard
// ---------------------------------------------------------------------------

const std::regex kResultDecl(
    R"(^\s*((static|virtual|inline|explicit|constexpr)\s+)*(Status|Result<[^;={]*>)\s+[A-Za-z_]\w*\s*\()");
const std::regex kResultTypeAlone(
    R"(^\s*((static|virtual|inline|explicit|constexpr)\s+)*(Status|Result<[\w:<>,\s*&]*>)\s*$)");
const std::regex kNextLineIsDecl(R"(^\s*[A-Za-z_]\w*\s*\()");

void CheckResultNodiscard(const Scrubbed& s, Emitter* em) {
  for (size_t ln = 0; ln < s.code.size(); ++ln) {
    const std::string& line = s.code[ln];
    std::string trimmed = Trim(line);
    if (trimmed.rfind("return", 0) == 0 || trimmed.rfind("using", 0) == 0 ||
        trimmed.rfind("friend", 0) == 0 || trimmed.rfind("typedef", 0) == 0) {
      continue;
    }
    bool decl = std::regex_search(line, kResultDecl);
    if (!decl && std::regex_search(line, kResultTypeAlone) &&
        ln + 1 < s.code.size() &&
        std::regex_search(s.code[ln + 1], kNextLineIsDecl)) {
      decl = true;
    }
    if (!decl) continue;
    if (line.find("[[nodiscard]]") != std::string::npos) continue;
    if (ln > 0 && s.code[ln - 1].find("[[nodiscard]]") != std::string::npos) {
      continue;
    }
    em->Emit(static_cast<int>(ln), Rule::kResultNodiscard,
             "Status/Result-returning declaration without [[nodiscard]]; "
             "dropped errors must not compile");
  }
}

// ---------------------------------------------------------------------------
// Rule: result-guard
// ---------------------------------------------------------------------------

const std::regex kValueCall(R"(\.\s*value\s*\(\s*\))");
const std::regex kGuardMention(
    R"(\.\s*ok\s*\(|has_value\s*\(|ASSIGN_OR_RETURN|RETURN_IF_ERROR|ASSERT_|EXPECT_|CHECK|\.\s*status\s*\()");

void CheckResultGuard(const Scrubbed& s, const Structure& st, Emitter* em) {
  for (size_t ln = 0; ln < s.code.size(); ++ln) {
    if (!std::regex_search(s.code[ln], kValueCall)) continue;
    int f = EnclosingFunction(st, static_cast<int>(ln));
    if (f < 0) continue;  // namespace-scope initializer; out of scope
    bool guarded = false;
    for (int i = st.frames[f].open_line; i <= static_cast<int>(ln); ++i) {
      if (std::regex_search(s.code[i], kGuardMention)) {
        guarded = true;
        break;
      }
    }
    if (guarded) continue;
    em->Emit(static_cast<int>(ln), Rule::kResultGuard,
             ".value() reached without a preceding ok()/has_value()/"
             "PDS_ASSIGN_OR_RETURN guard in the same function");
  }
}

// ---------------------------------------------------------------------------
// Header hygiene rules
// ---------------------------------------------------------------------------

void CheckHeaderGuard(const Scrubbed& s, Emitter* em) {
  bool pragma_once = false, ifndef = false, define = false;
  for (const std::string& line : s.code) {
    std::string t = Trim(line);
    if (t.rfind("#pragma once", 0) == 0) pragma_once = true;
    if (t.rfind("#ifndef", 0) == 0) ifndef = true;
    if (ifndef && t.rfind("#define", 0) == 0) define = true;
  }
  if (pragma_once || (ifndef && define)) return;
  em->Emit(0, Rule::kHeaderGuard,
           "header has no include guard (#ifndef/#define pair or "
           "#pragma once)");
}

const std::regex kUsingNamespaceRe(R"(^\s*using\s+namespace\b)");

void CheckUsingNamespace(const Scrubbed& s, Emitter* em) {
  for (size_t ln = 0; ln < s.code.size(); ++ln) {
    if (std::regex_search(s.code[ln], kUsingNamespaceRe)) {
      em->Emit(static_cast<int>(ln), Rule::kUsingNamespace,
               "'using namespace' in a header leaks into every includer");
    }
  }
}

const std::regex kExternMutable(R"(^\s*extern\s+(?!const\b|constexpr\b)\w)");
const std::regex kInlineOrStaticVar(
    R"(^\s*(inline|static)\s+(inline\s+|static\s+)*(?!const\b|constexpr\b|void\b|class\b|struct\b|enum\b|union\b)[A-Za-z_][\w:<>,]*\s+[A-Za-z_]\w*\s*(=|;|\{))");

void CheckGlobalVar(const Scrubbed& s, const Structure& st, Emitter* em) {
  for (size_t ln = 0; ln < s.code.size(); ++ln) {
    if (!AtNamespaceScope(st, static_cast<int>(ln))) continue;
    const std::string& line = s.code[ln];
    if (line.find('(') != std::string::npos) continue;  // function-ish
    bool hit = std::regex_search(line, kExternMutable) ||
               std::regex_search(line, kInlineOrStaticVar);
    if (!hit) continue;
    em->Emit(static_cast<int>(ln), Rule::kGlobalVar,
             "mutable namespace-scope global in a header outside common/; "
             "globals defeat the per-token RAM budget");
  }
}

// ---------------------------------------------------------------------------
// Rules: secret-flow and const-time (shared taint engine)
//
// The annotation vocabulary (all in comments, so the compiler never sees it):
//   // pdslint: secret              on a declaration: that identifier holds
//                                   secret material (module-scoped); on a
//                                   function definition: its return value is
//                                   secret everywhere
//   // pdslint: secret(a, b)        on a function definition: the named
//                                   parameters are secret inside it
//   // pdslint: sink                on a function declaration — calls with a
//                                   tainted argument are findings
//   // pdslint: sink(F, G, ...)     same, naming the sink functions directly
//   // pdslint: declassify(reason)  waiver form of the secret-flow rule:
//                                   suppresses findings on the covered lines
//                                   AND stops taint through them
//
// Built-in seeds (no annotation needed): declarations of SymmetricKey /
// PrivateKey / HmacKey values, and any call to a function named Decrypt*
// (decrypt outputs in crypto::/mcu:: are secret by construction).
// Sanitizers — calls that legitimately consume a secret — are
// Encrypt*/Hmac*/Mac/Attest.
// ---------------------------------------------------------------------------

const std::regex kAnnSecretParams(R"(pdslint:\s*secret\(([^)]*)\))");
const std::regex kAnnSecretBare(R"(pdslint:\s*secret\b)");
const std::regex kAnnSinkList(R"(pdslint:\s*sink\(([^)]*)\))");
const std::regex kAnnSinkBare(R"(pdslint:\s*sink\b)");
// A key type followed by '(', '{' or '::' is a constructor, a temporary or
// a qualifier, not a declaration of a key value.
const std::regex kSecretTypeDecl(
    R"(\b(SymmetricKey|PrivateKey|HmacKey)\b(?!\s*(?:\(|\{|::)))");
const std::regex kIdent(R"([A-Za-z_]\w*)");
const std::regex kCallName(R"(([A-Za-z_]\w*)\s*\()");
const std::regex kSanitizerCall(R"(\b(Encrypt\w*|Hmac\w*|Mac|Attest)\s*\()");
const std::regex kPrintCall(
    R"(\b(printf|fprintf|snprintf|puts|fputs)\s*\(|\b(std\s*::\s*)?(cout|cerr|clog)\b\s*<<)");
// Assignment target: the identifier opening the lvalue chain directly before
// (an optional member/subscript chain and) an assignment operator.
const std::regex kAssign(
    R"(([A-Za-z_]\w*)((?:\.[A-Za-z_]\w*|->[A-Za-z_]\w*|\[[^\][]*\])*)\s*(?:[-+*/|&^]|<<|>>)?=(?!=))");
const std::regex kAssignMacro(R"((?:PDS_)?ASSIGN_OR_RETURN\s*\(\s*([^,]*),)");
// Growth into a container taints the container.
const std::regex kContainerPut(
    R"(([A-Za-z_]\w*)((?:\.[A-Za-z_]\w*|->[A-Za-z_]\w*|\[[^\][]*\])*)\s*(?:\.|->)\s*(push_back|emplace_back|emplace|insert|append|assign|push|push_front)\s*\()");
// A byte copy taints its destination: `memcpy(temp, rk + 4, 4)`.
const std::regex kMemCopy(
    R"(\b(?:std\s*::\s*)?mem(?:cpy|move)\s*\(\s*&?\s*([A-Za-z_]\w*))");
const std::regex kCtBranchHead(
    R"(^\s*(?:\}\s*)?(?:else\s+)?(if|while|for|switch)\s*\()");
const std::regex kReturnStmt(R"(^\s*(?:co_)?return\b)");

// Index expression of every subscript in `text`, nested ones included:
// `kSbox[s[i]]` yields "i" and "s[i]".
std::vector<std::string> SubscriptIndexes(const std::string& text) {
  std::vector<std::string> out;
  std::vector<size_t> open;
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '[') {
      open.push_back(i);
    } else if (text[i] == ']' && !open.empty()) {
      out.push_back(text.substr(open.back() + 1, i - open.back() - 1));
      open.pop_back();
    }
  }
  return out;
}

bool IsKeywordIdent(const std::string& id) {
  static const std::set<std::string> kw = {
      "if",     "for",    "while",  "switch",  "return", "sizeof", "catch",
      "const",  "auto",   "static", "else",    "case",   "do",     "new",
      "delete", "struct", "class",  "enum",    "union",  "using",  "typedef",
      "void",   "int",    "bool",   "char",    "double", "float",  "long",
      "short",  "signed", "unsigned"};
  return kw.count(id) != 0;
}

bool PrefixMatches(const std::vector<std::string>& prefixes,
                   const std::string& basename) {
  for (const std::string& p : prefixes) {
    if (basename.rfind(p, 0) == 0) return true;
  }
  return false;
}

// Statements: body lines joined until one ends in ';', '{', '}' or ':' at
// the top level, so multi-line calls and conditions are matched as one text.
struct Statement {
  int line0 = 0;
  std::string text;
};

std::vector<Statement> JoinStatements(const Scrubbed& s, int begin, int end) {
  std::vector<Statement> out;
  std::string cur;
  int start = -1;
  for (int i = begin; i <= end && i < static_cast<int>(s.code.size()); ++i) {
    std::string t = Trim(s.code[i]);
    if (t.empty()) continue;
    if (cur.empty()) start = i;
    cur += t;
    cur += ' ';
    char last = t.back();
    if (last == ';' || last == '{' || last == '}' || last == ':' ||
        static_cast<int>(cur.size()) > 2000) {
      out.push_back(Statement{start, cur});
      cur.clear();
    }
  }
  if (!Trim(cur).empty()) out.push_back(Statement{start, cur});
  return out;
}

// First identifier followed by '(' that is not a control keyword — the
// function name on a signature line (qualifiers like SsiServer:: precede
// their own '(' only at the call, so the first hit is the right one).
std::string FirstCalleeName(const std::string& text) {
  auto begin = std::sregex_iterator(text.begin(), text.end(), kCallName);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    std::string name = (*it)[1];
    if (!IsKeywordIdent(name)) return name;
  }
  return "";
}

// Name of the function whose frame is `fi`: scan the signature from up to
// two lines above the opening brace, skipping complete statements.
std::string FunctionNameOf(const Scrubbed& s, const Structure& st, int fi) {
  const Frame& f = st.frames[fi];
  for (int i = f.open_line; i >= 0 && i >= f.open_line - 2; --i) {
    std::string t = Trim(s.code[i]);
    if (!t.empty() && t.back() == ';' && i != f.open_line) continue;
    std::string name = FirstCalleeName(s.code[i]);
    if (!name.empty()) return name;
  }
  return "";
}

// Identifier declared on a line: for a function-ish line the callee name,
// otherwise the identifier directly before ';', '=', '{' or '['.
std::string DeclaredNameOn(const std::string& code) {
  std::string t = Trim(code);
  if (t.rfind("using", 0) == 0 || t.rfind("typedef", 0) == 0) return "";
  if (code.find('(') != std::string::npos) return FirstCalleeName(code);
  static const std::regex decl(R"(([A-Za-z_]\w*)\s*(?:[;={\[]))");
  std::smatch m;
  if (std::regex_search(code, m, decl)) return m[1];
  return "";
}

void SplitNames(const std::string& list, std::set<std::string>* out) {
  auto begin = std::sregex_iterator(list.begin(), list.end(), kIdent);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    out->insert(it->str());
  }
}

struct FileAnnotations {
  std::map<int, std::set<std::string>> fn_secret_params;  // frame -> names
  std::set<std::string> secret_names;  // module-scoped secret identifiers
  std::set<std::string> secret_fns;    // functions returning secrets
  std::set<std::string> sink_fns;
};

// Function frame opening at (or within three lines below) a target line —
// the same window the waiver spans use for multi-line signatures.
int FunctionFrameAt(const Structure& st, int target) {
  for (size_t fi = 1; fi < st.frames.size(); ++fi) {
    const Frame& f = st.frames[fi];
    if (f.kind == FrameKind::kFunction && f.open_line >= target &&
        f.open_line <= target + 3) {
      return static_cast<int>(fi);
    }
  }
  return -1;
}

FileAnnotations CollectAnnotations(const Scrubbed& s, const Structure& st) {
  FileAnnotations ann;
  for (size_t ln = 0; ln < s.comments.size(); ++ln) {
    if (s.comments[ln].find("pdslint:") == std::string::npos) continue;
    // An annotation may wrap onto following comment-only lines (long sink
    // lists); join them so the closing ')' is seen.
    std::string comment = s.comments[ln];
    for (size_t j = ln + 1;
         j < s.comments.size() && !s.comments[j].empty() &&
         Trim(s.code[j]).empty() &&
         s.comments[j].find("pdslint:") == std::string::npos;
         ++j) {
      comment += ' ' + s.comments[j];
    }
    // Target line: the annotated code line itself, or the next code-bearing
    // line when the annotation sits on its own line.
    int target = static_cast<int>(ln);
    if (Trim(s.code[ln]).empty()) {
      for (size_t j = ln + 1; j < s.code.size(); ++j) {
        if (!Trim(s.code[j]).empty()) {
          target = static_cast<int>(j);
          break;
        }
      }
    }
    std::smatch m;
    if (std::regex_search(comment, m, kAnnSinkList)) {
      SplitNames(m[1], &ann.sink_fns);
    } else if (std::regex_search(comment, m, kAnnSinkBare)) {
      std::string name = DeclaredNameOn(s.code[target]);
      if (!name.empty()) ann.sink_fns.insert(name);
    } else if (std::regex_search(comment, m, kAnnSecretParams)) {
      int fi = FunctionFrameAt(st, target);
      if (fi >= 0) SplitNames(m[1], &ann.fn_secret_params[fi]);
    } else if (std::regex_search(comment, m, kAnnSecretBare)) {
      std::string tcode = Trim(s.code[target]);
      if (!tcode.empty() && tcode.back() == ';') {
        // A ';'-terminated target is a declaration, never a definition
        // head — a function that happens to open a few lines below must
        // not claim the annotation. A prototype marks the function's
        // return value secret; a variable becomes a module secret.
        std::string name = DeclaredNameOn(s.code[target]);
        if (name.empty()) {
        } else if (tcode.find('(') != std::string::npos) {
          ann.secret_fns.insert(name);
        } else {
          ann.secret_names.insert(name);
        }
      } else {
        int fi = FunctionFrameAt(st, target);
        if (fi >= 0) {
          std::string name = FunctionNameOf(s, st, fi);
          if (!name.empty()) ann.secret_fns.insert(name);
        } else {
          std::string name = DeclaredNameOn(s.code[target]);
          if (!name.empty()) ann.secret_names.insert(name);
        }
      }
    }
  }
  // Built-in seed: a SymmetricKey / PrivateKey / HmacKey declaration names
  // a secret.
  for (size_t ln = 0; ln < s.code.size(); ++ln) {
    const std::string& code = s.code[ln];
    std::string t = Trim(code);
    if (t.rfind("using", 0) == 0 || t.rfind("typedef", 0) == 0 ||
        t.rfind("struct", 0) == 0 || t.rfind("class", 0) == 0) {
      continue;
    }
    std::smatch m;
    if (!std::regex_search(code, m, kSecretTypeDecl)) continue;
    std::string rest = m.suffix();
    std::smatch id;
    if (std::regex_search(rest, id, kIdent)) {
      ann.secret_names.insert(id.str());
    }
  }
  return ann;
}

// A parsed file plus everything the taint passes need.
struct TaintFile {
  std::string path;
  std::string module;
  std::string basename;
  Scrubbed s;
  Structure st;
  FileAnnotations ann;
  bool const_time = false;
  bool ssi = false;
};

bool NameMatchesSecretFn(const SourceIndex& index, const std::string& module,
                         const std::string& name) {
  if (name.rfind("Decrypt", 0) == 0) return true;
  if (index.secret_functions.count({"*", name})) return true;
  return index.secret_functions.count({module, name}) != 0;
}

// Extract the parenthesized argument zone of the first call to `name`.
std::string CallArgsZone(const std::string& text, const std::string& name) {
  size_t pos = 0;
  while ((pos = text.find(name, pos)) != std::string::npos) {
    bool left_ok = pos == 0 || (!isalnum(static_cast<unsigned char>(
                                    text[pos - 1])) &&
                                text[pos - 1] != '_');
    size_t after = pos + name.size();
    while (after < text.size() && isspace(static_cast<unsigned char>(
                                      text[after]))) {
      ++after;
    }
    if (!left_ok || after >= text.size() || text[after] != '(') {
      pos += name.size();
      continue;
    }
    int depth = 0;
    size_t start = after + 1;
    for (size_t i = after; i < text.size(); ++i) {
      if (text[i] == '(') ++depth;
      if (text[i] == ')') {
        --depth;
        if (depth == 0) return text.substr(start, i - start);
      }
    }
    return text.substr(start);
  }
  return "";
}

// The per-function taint state: tainted identifier -> short provenance
// chain for the diagnostic ("fleet_key -> cfg (line 12) -> node (line 19)").
using TaintMap = std::map<std::string, std::string>;

// First tainted identifier (or secret call) in `text`; empty if clean.
std::string FirstTaintIn(const std::string& text, const TaintMap& tainted,
                         const std::set<std::string>& module_secrets,
                         const SourceIndex& index, const std::string& module,
                         std::string* why) {
  auto begin = std::sregex_iterator(text.begin(), text.end(), kIdent);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    std::string id = it->str();
    auto t = tainted.find(id);
    if (t != tainted.end()) {
      if (why) *why = t->second;
      return id;
    }
    if (module_secrets.count(id)) {
      if (why) *why = "secret '" + id + "'";
      return id;
    }
  }
  auto cbegin = std::sregex_iterator(text.begin(), text.end(), kCallName);
  for (auto it = cbegin; it != std::sregex_iterator(); ++it) {
    std::string name = (*it)[1];
    if (IsKeywordIdent(name)) continue;
    if (NameMatchesSecretFn(index, module, name)) {
      if (why) *why = "decrypt/secret output of '" + name + "()'";
      return name;
    }
  }
  return "";
}

void TaintName(TaintMap* tainted, const std::string& name,
               const std::string& from, int line1) {
  if (name.empty() || IsKeywordIdent(name)) return;
  std::string chain = from + " -> " + name + " (line " +
                      std::to_string(line1) + ")";
  if (chain.size() > 300) chain = "..." + chain.substr(chain.size() - 297);
  auto it = tainted->find(name);
  if (it == tainted->end()) (*tainted)[name] = chain;
}

// Range-for over a tainted container taints the loop bindings:
// `for (const auto& [g, st] : partial)`. Identifiers starting uppercase are
// type names under the repo's style and are skipped.
void TaintRangeForBindings(TaintMap* tainted, const std::string& text,
                           const std::string& why, int line1) {
  static const std::regex range_for(R"(for\s*\(([^:;]*?):([^;]*)\))");
  std::smatch m;
  if (!std::regex_search(text, m, range_for)) return;
  std::string decls = m[1];
  auto begin = std::sregex_iterator(decls.begin(), decls.end(), kIdent);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    std::string id = it->str();
    if (IsKeywordIdent(id) || isupper(static_cast<unsigned char>(id[0]))) {
      continue;
    }
    TaintName(tainted, id, why, line1);
  }
}

bool InSpanOfRule(const FileWaivers& fw, int line0, Rule rule,
                  Report* report, bool mark_used) {
  for (const WaiverSpan& span : fw.spans) {
    if (span.rule == rule && line0 >= span.first_line &&
        line0 <= span.last_line) {
      if (mark_used) report->waivers[span.index].used = true;
      return true;
    }
  }
  return false;
}

// One propagation-plus-detection pass over a top-level function (nested
// lambda frames are folded in: captures share the enclosing taint state).
// With a null emitter it only answers "does this function return a secret?"
// — the fixpoint pass BuildIndex iterates.
bool PropagateFunction(const TaintFile& tf, int fi, const SourceIndex& index,
                       const FileWaivers& fw, Report* report, Emitter* em) {
  const Frame& f = tf.st.frames[fi];
  auto mit = index.module_secrets.find(tf.module);
  static const std::set<std::string> kEmpty;
  const std::set<std::string>& msecrets =
      mit == index.module_secrets.end() ? kEmpty : mit->second;

  TaintMap tainted;
  // Parameter seeds drive detection only, not secret-return inference
  // (em == nullptr): a caller passing a secret argument already taints its
  // own statement, so inferring "returns secret" from a secret *parameter*
  // would double-count and cascade taint through every call site.
  if (em != nullptr) {
    auto pit = tf.ann.fn_secret_params.find(fi);
    if (pit != tf.ann.fn_secret_params.end()) {
      for (const std::string& p : pit->second) {
        tainted[p] = "secret parameter '" + p + "'";
      }
    }
  }

  std::vector<Statement> stmts =
      JoinStatements(tf.s, f.open_line, f.close_line);
  bool returns_secret = false;
  std::set<int> flow_flagged, ct_flagged;

  // Two rounds so taint carried backwards by loops still lands.
  for (int round = 0; round < 2; ++round) {
    for (const Statement& stmt : stmts) {
      std::string why;
      std::string hit = FirstTaintIn(stmt.text, tainted, msecrets, index,
                                     tf.module, &why);
      bool is_tainted = !hit.empty();

      // Declassified lines sanitize: no findings, no propagation.
      if (InSpanOfRule(fw, stmt.line0, Rule::kSecretFlow, report,
                       /*mark_used=*/is_tainted)) {
        continue;
      }
      bool sanitized = std::regex_search(stmt.text, kSanitizerCall);

      if (is_tainted && !sanitized) {
        int line1 = stmt.line0 + 1;
        std::smatch m;
        if (std::regex_search(stmt.text, m, kAssignMacro)) {
          std::string decl = m[1];
          std::string last;
          auto b = std::sregex_iterator(decl.begin(), decl.end(), kIdent);
          for (auto it = b; it != std::sregex_iterator(); ++it) {
            if (!IsKeywordIdent(it->str())) last = it->str();
          }
          TaintName(&tainted, last, why, line1);
        }
        if (std::regex_search(stmt.text, m, kAssign)) {
          TaintName(&tainted, m[1], why, line1);
        }
        if (std::regex_search(stmt.text, m, kContainerPut)) {
          TaintName(&tainted, m[1], why, line1);
        }
        if (std::regex_search(stmt.text, m, kMemCopy)) {
          TaintName(&tainted, m[1], why, line1);
        }
        TaintRangeForBindings(&tainted, stmt.text, why, line1);
        if (std::regex_search(stmt.text, kReturnStmt)) {
          returns_secret = true;
        }
      }

      if (em == nullptr || round == 0) continue;  // detect on final round

      // ---- secret-flow sinks ----
      if (!flow_flagged.count(stmt.line0)) {
        std::string sink_name;
        auto cb = std::sregex_iterator(stmt.text.begin(), stmt.text.end(),
                                       kCallName);
        for (auto it = cb; it != std::sregex_iterator(); ++it) {
          std::string name = (*it)[1];
          if (index.sink_functions.count(name) == 0) continue;
          std::string zone = CallArgsZone(stmt.text, name);
          if (std::regex_search(zone, kSanitizerCall)) continue;
          std::string zwhy;
          if (!FirstTaintIn(zone, tainted, msecrets, index, tf.module, &zwhy)
                   .empty()) {
            sink_name = name;
            why = zwhy;
            break;
          }
        }
        if (!sink_name.empty()) {
          flow_flagged.insert(stmt.line0);
          em->Emit(stmt.line0, Rule::kSecretFlow,
                   "secret reaches sink '" + sink_name +
                       "' without Encrypt*/Hmac/Mac/Attest or a "
                       "declassify waiver; path: " + why);
        } else if (is_tainted && !sanitized &&
                   std::regex_search(stmt.text, kPrintCall)) {
          flow_flagged.insert(stmt.line0);
          em->Emit(stmt.line0, Rule::kSecretFlow,
                   "secret reaches a log/print call; path: " + why);
        } else if (tf.ssi && is_tainted) {
          flow_flagged.insert(stmt.line0);
          em->Emit(stmt.line0, Rule::kSecretFlow,
                   "secret material inside SSI-compiled code (the SSI must "
                   "see ciphertext and bounded metadata only); path: " + why);
        }
      }

      // ---- const-time ----
      if (tf.const_time && !ct_flagged.count(stmt.line0)) {
        std::smatch bm;
        std::string ct_why;
        if (std::regex_search(stmt.text, bm, kCtBranchHead)) {
          std::string cond = CallArgsZone(stmt.text, bm[1]);
          std::string twhy;
          std::string tid = FirstTaintIn(cond, tainted, msecrets, index,
                                         tf.module, &twhy);
          if (!tid.empty()) {
            bool early_exit =
                stmt.text.find("break") != std::string::npos ||
                stmt.text.find("return") != std::string::npos ||
                stmt.text.find("continue") != std::string::npos;
            ct_flagged.insert(stmt.line0);
            em->Emit(stmt.line0, Rule::kConstTime,
                     std::string("secret-dependent ") +
                         (early_exit ? "early exit" : "branch") +
                         " (timing leak): '" + bm[1].str() +
                         "' condition depends on " + twhy);
          }
        } else {
          size_t q = stmt.text.find('?');
          if (q != std::string::npos &&
              stmt.text.find(':', q) != std::string::npos) {
            std::string cond = stmt.text.substr(0, q);
            std::string twhy;
            if (!FirstTaintIn(cond, tainted, msecrets, index, tf.module,
                              &twhy)
                     .empty()) {
              ct_flagged.insert(stmt.line0);
              em->Emit(stmt.line0, Rule::kConstTime,
                       "secret-dependent select (?:) — both arms must be "
                       "computed and masked; condition depends on " + twhy);
            }
          }
        }
        if (!ct_flagged.count(stmt.line0)) {
          for (const std::string& idx : SubscriptIndexes(stmt.text)) {
            std::string twhy;
            if (!FirstTaintIn(idx, tainted, msecrets, index, tf.module,
                              &twhy)
                     .empty()) {
              ct_flagged.insert(stmt.line0);
              em->Emit(stmt.line0, Rule::kConstTime,
                       "secret-indexed table load (cache-timing leak): "
                       "index depends on " + twhy);
              break;
            }
          }
        }
      }
    }
  }
  return returns_secret;
}

// Top-level function frames: a kFunction frame with no kFunction ancestor
// (lambda bodies are analyzed as part of their enclosing function, sharing
// its taint state through captures).
bool IsTopLevelFunction(const Structure& st, int fi) {
  if (st.frames[fi].kind != FrameKind::kFunction) return false;
  for (int p = st.frames[fi].parent; p >= 0; p = st.frames[p].parent) {
    if (st.frames[p].kind == FrameKind::kFunction) return false;
  }
  return true;
}

TaintFile ParseTaintFile(const std::string& path, const std::string& content,
                         const Options& options) {
  TaintFile tf;
  tf.path = path;
  tf.module = ModuleOf(path);
  tf.basename = Basename(path);
  tf.s = Scrub(content);
  tf.st = BuildStructure(tf.s.code);
  tf.ann = CollectAnnotations(tf.s, tf.st);
  tf.const_time = PrefixMatches(options.const_time_files, tf.basename);
  tf.ssi = PrefixMatches(options.ssi_files, tf.basename);
  return tf;
}

void CheckSecretFlow(const TaintFile& tf, const SourceIndex& index,
                     const FileWaivers& fw, Report* report, Emitter* em) {
  for (size_t fi = 1; fi < tf.st.frames.size(); ++fi) {
    if (!IsTopLevelFunction(tf.st, static_cast<int>(fi))) continue;
    PropagateFunction(tf, static_cast<int>(fi), index, fw, report, em);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

const char* RuleName(Rule rule) {
  switch (rule) {
    case Rule::kRamAlloc: return "ram-alloc";
    case Rule::kResultNodiscard: return "result-nodiscard";
    case Rule::kResultGuard: return "result-guard";
    case Rule::kHeaderGuard: return "header-guard";
    case Rule::kUsingNamespace: return "using-namespace";
    case Rule::kGlobalVar: return "global-var";
    case Rule::kObsInEmbedded: return "obs-in-embedded";
    case Rule::kNetBoundedFrame: return "net-bounded-frame";
    case Rule::kSecretFlow: return "secret-flow";
    case Rule::kConstTime: return "const-time";
  }
  return "unknown";
}

bool ParseRuleName(const std::string& name, Rule* out) {
  if (name == "ram" || name == "ram-alloc") *out = Rule::kRamAlloc;
  else if (name == "nodiscard" || name == "result-nodiscard") *out = Rule::kResultNodiscard;
  else if (name == "guard" || name == "result-guard") *out = Rule::kResultGuard;
  else if (name == "header-guard") *out = Rule::kHeaderGuard;
  else if (name == "using-namespace") *out = Rule::kUsingNamespace;
  else if (name == "global-var") *out = Rule::kGlobalVar;
  else if (name == "obs" || name == "obs-in-embedded") *out = Rule::kObsInEmbedded;
  else if (name == "frame" || name == "net-bounded-frame") *out = Rule::kNetBoundedFrame;
  else if (name == "secret" || name == "secret-flow") *out = Rule::kSecretFlow;
  else if (name == "ct" || name == "const-time") *out = Rule::kConstTime;
  else return false;
  return true;
}

std::string ModuleOf(const std::string& path) {
  std::string norm = path;
  std::replace(norm.begin(), norm.end(), '\\', '/');
  size_t src = norm.rfind("/src/");
  if (norm.rfind("src/", 0) == 0) src = 0;
  else if (src != std::string::npos) src += 1;  // skip leading '/'
  if (src != std::string::npos) {
    size_t start = src + 4;
    size_t end = norm.find('/', start);
    if (end != std::string::npos) return norm.substr(start, end - start);
  }
  size_t slash = norm.find_last_of('/');
  if (slash == std::string::npos) return "";
  size_t prev = norm.find_last_of('/', slash - 1);
  return norm.substr(prev + 1, slash - prev - 1);
}

SourceIndex BuildIndex(
    const std::vector<std::pair<std::string, std::string>>& files,
    const Options& options) {
  SourceIndex index;
  std::vector<TaintFile> parsed;
  parsed.reserve(files.size());
  // Pass one: annotations and built-in type seeds.
  for (const auto& [path, content] : files) {
    parsed.push_back(ParseTaintFile(path, content, options));
    const TaintFile& tf = parsed.back();
    for (const std::string& n : tf.ann.secret_fns) {
      index.secret_functions.insert({"*", n});
    }
    for (const std::string& n : tf.ann.secret_names) {
      index.module_secrets[tf.module].insert(n);
    }
    for (const std::string& n : tf.ann.sink_fns) {
      index.sink_functions.insert(n);
    }
  }
  // Pass two: iterate "does this function return a secret?" to a fixpoint,
  // so a secret flowing out through a helper taints the helper's call sites
  // in other files. Sanitizer-named functions are the boundary by definition
  // and never inferred secret-returning. Declassify spans already cut
  // propagation inside PropagateFunction, so they cut inference too.
  static const std::regex kSanitizerName(R"(^(Encrypt\w*|Hmac\w*|Mac|Attest)$)");
  Report scratch;
  std::vector<FileWaivers> fws(parsed.size());
  for (size_t i = 0; i < parsed.size(); ++i) {
    CollectWaivers(parsed[i].path, parsed[i].s, parsed[i].st, &scratch,
                   &fws[i]);
  }
  for (int round = 0; round < 4; ++round) {
    bool changed = false;
    for (size_t i = 0; i < parsed.size(); ++i) {
      const TaintFile& tf = parsed[i];
      for (size_t fi = 1; fi < tf.st.frames.size(); ++fi) {
        if (!IsTopLevelFunction(tf.st, static_cast<int>(fi))) continue;
        if (!PropagateFunction(tf, static_cast<int>(fi), index, fws[i],
                               &scratch, nullptr)) {
          continue;
        }
        std::string name =
            FunctionNameOf(tf.s, tf.st, static_cast<int>(fi));
        if (name.empty() || std::regex_match(name, kSanitizerName)) continue;
        if (index.secret_functions.insert({tf.module, name}).second) {
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  return index;
}

void AnalyzeFile(const std::string& path, const std::string& content,
                 const Options& options, Report* report) {
  SourceIndex index = BuildIndex({{path, content}}, options);
  AnalyzeFile(path, content, options, index, report);
}

void AnalyzeFile(const std::string& path, const std::string& content,
                 const Options& options, const SourceIndex& index,
                 Report* report) {
  const std::string module = ModuleOf(path);
  const bool is_header = IsHeaderPath(path);
  Scrubbed s = Scrub(content);
  Structure st = BuildStructure(s.code);
  FileWaivers fw;
  CollectWaivers(path, s, st, report, &fw);
  std::vector<std::string> raw = SplitLines(content);
  Emitter em{path, raw, report, &fw, {}};

  if (Contains(options.embedded_modules, module)) {
    CheckRamAlloc(module, s, st, &em);
    CheckObsInEmbedded(module, s, st, &em);
  }
  if (Contains(options.framed_modules, module)) {
    CheckNetBoundedFrame(module, s, st, &em);
  }
  if (is_header && Contains(options.nodiscard_modules, module)) {
    CheckResultNodiscard(s, &em);
  }
  CheckResultGuard(s, st, &em);
  if (is_header) {
    CheckHeaderGuard(s, &em);
    CheckUsingNamespace(s, &em);
    if (module != "common") CheckGlobalVar(s, st, &em);
  }
  TaintFile tf = ParseTaintFile(path, content, options);
  CheckSecretFlow(tf, index, fw, report, &em);
  ++report->files_scanned;
}

Report AnalyzeTree(const std::vector<std::string>& roots,
                   const Options& options) {
  namespace fs = std::filesystem;
  Report report;
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    fs::path p(root);
    if (fs::is_regular_file(p)) {
      files.push_back(p.string());
      continue;
    }
    if (!fs::is_directory(p)) continue;
    for (auto it = fs::recursive_directory_iterator(p);
         it != fs::recursive_directory_iterator(); ++it) {
      const fs::path& entry = it->path();
      std::string name = entry.filename().string();
      if (it->is_directory() &&
          (name.rfind("build", 0) == 0 || name.rfind(".", 0) == 0)) {
        it.disable_recursion_pending();
        continue;
      }
      if (!it->is_regular_file()) continue;
      std::string ext = entry.extension().string();
      if (ext == ".h" || ext == ".cc" || ext == ".cpp") {
        files.push_back(entry.string());
      }
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<std::pair<std::string, std::string>> contents;
  contents.reserve(files.size());
  for (const std::string& file : files) {
    std::ifstream in(file, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    contents.emplace_back(file, buf.str());
  }
  SourceIndex index = BuildIndex(contents, options);
  for (const auto& [file, content] : contents) {
    AnalyzeFile(file, content, options, index, &report);
  }
  return report;
}

std::string Fingerprint(const Finding& finding) {
  std::ostringstream out;
  out << RuleName(finding.rule) << '|' << ModuleOf(finding.file) << '/'
      << Basename(finding.file) << '|' << std::hex << Fnv1a(finding.snippet)
      << '#' << std::dec << finding.occurrence;
  return out.str();
}

std::string FormatFinding(const Finding& finding) {
  std::ostringstream out;
  out << finding.file << ':' << finding.line << ": [" << RuleName(finding.rule)
      << "] " << finding.message;
  return out.str();
}

}  // namespace pdslint

#ifndef PDS_TOOLS_PDSLINT_PDSLINT_H_
#define PDS_TOOLS_PDSLINT_PDSLINT_H_

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

/// pdslint — repo-specific static analysis for libpds.
///
/// Enforces the invariants the tutorial's Part II imposes on embedded code
/// (tiny-RAM accounting through mcu::RamGauge) and the repo-wide error
/// discipline (every fallible call returns a [[nodiscard]] Status/Result and
/// value() is only reached behind a guard), plus basic header hygiene.
///
/// The analyzer is deliberately lexical: it strips comments and string
/// literals, tracks brace structure (namespace / type / function / loop
/// frames), and applies line-oriented rules. That is enough to make the
/// invariants machine-checked without a full C++ frontend, and false
/// positives have two escape hatches: an inline waiver comment
/// (`// pdslint: ram-exempt(<reason>)`) counted against a budget, and a
/// baseline file for grandfathered findings.
namespace pdslint {

enum class Rule {
  kRamAlloc,         // unaccounted allocation in an embedded module
  kResultNodiscard,  // Status/Result-returning header API missing [[nodiscard]]
  kResultGuard,      // .value() with no ok()/has_value()/ASSIGN_OR_RETURN guard
  kHeaderGuard,      // header without include guard / #pragma once
  kUsingNamespace,   // `using namespace` at header scope
  kGlobalVar,        // mutable namespace-scope global in a header outside common/
  kObsInEmbedded,    // obs registry lookup in a loop / dynamic span name in an
                     // embedded module (instrumentation must be preallocated)
  kNetBoundedFrame,  // wire decoder allocates from a declared length without
                     // checking it against a compile-time kMax* bound first
  kSecretFlow,       // secret-tagged value reaches a sink (net frame encoder,
                     // obs name/label, SSI-compiled code, print) without a
                     // sanitizer (Encrypt*/Hmac/Mac/Attest) or declassify
  kConstTime,        // secret-dependent branch / secret-indexed table load in
                     // a crypto kernel file (montgomery*/bigint*/aes*/
                     // sha256*/hmac*)
};

/// Stable rule name used in diagnostics, waivers, and baselines.
const char* RuleName(Rule rule);

/// Parses a rule name or waiver alias ("ram" == "ram-alloc", "guard" ==
/// "result-guard", "nodiscard" == "result-nodiscard", "obs" ==
/// "obs-in-embedded", "frame" == "net-bounded-frame", "secret" ==
/// "secret-flow", "ct" == "const-time"). Returns false when unknown.
bool ParseRuleName(const std::string& name, Rule* out);

struct Finding {
  std::string file;     // path as passed to AnalyzeFile
  int line = 0;         // 1-based
  Rule rule = Rule::kRamAlloc;
  std::string message;
  std::string snippet;  // trimmed source line, for fingerprinting
  int occurrence = 0;   // Nth identical (file, rule, snippet) triple
};

struct Waiver {
  std::string file;
  int line = 0;         // line the waiver applies to
  Rule rule = Rule::kRamAlloc;
  std::string reason;
  bool used = false;    // suppressed at least one would-be finding
};

struct Options {
  /// Modules under the tiny-RAM rule (tutorial Part II: code that must run
  /// in the secure MCU's <128 KB of RAM; "net" includes the token-side wire
  /// runtime, which shares that budget, and "sim" hosts a million token
  /// endpoints in one process so its per-token state is held to the same
  /// reserve-don't-grow discipline).
  std::vector<std::string> embedded_modules{"embdb", "search", "logstore",
                                            "flash", "mcu", "net", "sim"};
  /// Modules whose headers must spell [[nodiscard]] on every
  /// Status/Result-returning declaration.
  std::vector<std::string> nodiscard_modules{"common", "crypto", "embdb",
                                             "logstore", "mcu", "flash",
                                             "net", "sim"};
  /// Modules whose Decode*/Deserialize*/Parse* functions handle untrusted
  /// wire input and must check declared lengths against a compile-time kMax*
  /// bound before any allocation (the net-bounded-frame rule). "sim"
  /// carries real net::Frame bytes, so any decode helper it grows is under
  /// the same rule.
  std::vector<std::string> framed_modules{"net", "sim"};
  /// Basename prefixes of the crypto kernel files under the const-time rule
  /// (secret-dependent branches and secret-indexed loads are findings): the
  /// Paillier arithmetic and the token's symmetric primitives.
  std::vector<std::string> const_time_files{"montgomery", "bigint", "aes",
                                            "sha256", "hmac"};
  /// Basename prefixes of files compiled into the SSI: any secret-tagged
  /// value or decrypt output appearing there is a secret-flow finding (the
  /// SSI must see ciphertext only).
  std::vector<std::string> ssi_files{"ssi_server"};
  /// Maximum number of inline waivers across the scanned tree; -1 = no cap.
  int max_waivers = -1;
};

/// Cross-file symbol table for the secret-flow rule, built in two passes:
/// pass one collects `// pdslint: secret` / `// pdslint: sink` annotations
/// and the built-in seeds (SymmetricKey/PrivateKey/HmacKey declarations,
/// Decrypt* functions), pass two iterates per-function taint propagation to a
/// fixpoint so functions *returning* secrets taint their call sites across
/// files.
struct SourceIndex {
  /// Functions whose return value is secret, keyed (module, name).
  /// Annotated functions use module "*" (match in any module); inferred
  /// ones are module-scoped so unrelated same-name helpers don't collide.
  std::set<std::pair<std::string, std::string>> secret_functions;
  /// Module -> identifiers holding secret material in that module.
  std::map<std::string, std::set<std::string>> module_secrets;
  /// Functions that are sinks (`// pdslint: sink`): net frame encoders,
  /// obs registry lookups / span constructors.
  std::set<std::string> sink_functions;
};

/// Builds the secret-flow symbol table over (path, content) pairs.
SourceIndex BuildIndex(
    const std::vector<std::pair<std::string, std::string>>& files,
    const Options& options);

struct Report {
  std::vector<Finding> findings;
  std::vector<Waiver> waivers;
  int files_scanned = 0;
};

/// Module a path belongs to: the first component after the last "src/"
/// segment, else the name of the immediate parent directory ("" for none).
/// `tests/pdslint_fixtures/embdb/x.cc` therefore lands in module "embdb".
std::string ModuleOf(const std::string& path);

/// Runs every applicable rule over one file's contents, appending findings
/// and waivers to `report`. Builds a single-file SourceIndex, so
/// cross-file secret propagation needs AnalyzeTree (or the overload below).
void AnalyzeFile(const std::string& path, const std::string& content,
                 const Options& options, Report* report);

/// Same, but resolves secret/sink symbols against a pre-built index.
void AnalyzeFile(const std::string& path, const std::string& content,
                 const Options& options, const SourceIndex& index,
                 Report* report);

/// Recursively analyzes every .h/.cc/.cpp under each root (a root may also be
/// a single file). Skips build*/ and hidden directories.
Report AnalyzeTree(const std::vector<std::string>& roots,
                   const Options& options);

/// Content-keyed fingerprint, stable across unrelated edits (no line
/// numbers): "<rule>|<module>/<basename>|<hash-of-snippet>#<occurrence>".
std::string Fingerprint(const Finding& finding);

/// "file:line: [rule] message".
std::string FormatFinding(const Finding& finding);

}  // namespace pdslint

#endif  // PDS_TOOLS_PDSLINT_PDSLINT_H_

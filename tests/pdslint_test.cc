// Fixture-driven tests for the pdslint analyzer (tools/pdslint). Each rule
// must fire on a known-bad input and stay silent on a known-good one; the
// waiver and baseline machinery must behave as documented.

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pdslint.h"

namespace {

using pdslint::AnalyzeFile;
using pdslint::Finding;
using pdslint::Options;
using pdslint::Report;
using pdslint::Rule;

std::string FixturePath(const std::string& rel) {
  return std::string(PDSLINT_FIXTURE_DIR) + "/" + rel;
}

Report Lint(const std::string& rel) {
  std::string path = FixturePath(rel);
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  Report report;
  AnalyzeFile(path, buf.str(), Options(), &report);
  return report;
}

std::vector<int> LinesFor(const Report& r, Rule rule) {
  std::vector<int> lines;
  for (const Finding& f : r.findings) {
    if (f.rule == rule) lines.push_back(f.line);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(PdslintModuleOf, ResolvesSrcAndFixturePaths) {
  EXPECT_EQ(pdslint::ModuleOf("src/embdb/value.cc"), "embdb");
  EXPECT_EQ(pdslint::ModuleOf("/root/repo/src/mcu/ram_gauge.h"), "mcu");
  EXPECT_EQ(pdslint::ModuleOf("tests/pdslint_fixtures/search/x.cc"), "search");
}

TEST(PdslintRamRule, FlagsEveryBadShape) {
  Report r = Lint("embdb/bad_ram.cc");
  std::vector<int> lines = LinesFor(r, Rule::kRamAlloc);
  ASSERT_EQ(lines.size(), 4u) << "new, malloc, loop growth, loop concat";
  // new int[64]; malloc(256); push_back in loop; += "chunk" in loop.
  EXPECT_EQ(lines[0], 9);
  EXPECT_EQ(lines[1], 13);
  EXPECT_EQ(lines[2], 18);
  EXPECT_EQ(lines[3], 24);
}

TEST(PdslintRamRule, SilentOnAccountedReservedOrUnloopedCode) {
  Report r = Lint("embdb/good_ram.cc");
  EXPECT_TRUE(r.findings.empty())
      << pdslint::FormatFinding(r.findings.front());
}

TEST(PdslintRamRule, WaiversSuppressAndAreCounted) {
  Report r = Lint("embdb/waived_ram.cc");
  EXPECT_TRUE(r.findings.empty())
      << pdslint::FormatFinding(r.findings.front());
  ASSERT_EQ(r.waivers.size(), 2u);
  for (const auto& w : r.waivers) {
    EXPECT_TRUE(w.used) << "waiver at line " << w.line << " unused";
    EXPECT_EQ(w.rule, Rule::kRamAlloc);
    EXPECT_FALSE(w.reason.empty());
  }
}

TEST(PdslintRamRule, IgnoresNonEmbeddedModules) {
  // Same bad content, but attributed to a non-embedded module: the tiny-RAM
  // rule must not apply.
  std::ifstream in(FixturePath("embdb/bad_ram.cc"), std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  Report report;
  AnalyzeFile("src/global/bad_ram.cc", buf.str(), Options(), &report);
  EXPECT_TRUE(LinesFor(report, Rule::kRamAlloc).empty());
}

TEST(PdslintObsRule, FlagsLookupsInLoopsAndDynamicSpanNames) {
  Report r = Lint("search/bad_obs.cc");
  std::vector<int> lines = LinesFor(r, Rule::kObsInEmbedded);
  ASSERT_EQ(lines.size(), 3u)
      << "registry lookup in loop, Intern in loop, dynamic span name";
  EXPECT_EQ(lines[0], 10);
  EXPECT_EQ(lines[1], 17);
  EXPECT_EQ(lines[2], 22);
}

TEST(PdslintObsRule, SilentOnPreallocatedInstrumentation) {
  Report r = Lint("search/good_obs.cc");
  EXPECT_TRUE(r.findings.empty())
      << pdslint::FormatFinding(r.findings.front());
}

TEST(PdslintObsRule, IgnoresNonEmbeddedModules) {
  std::ifstream in(FixturePath("search/bad_obs.cc"), std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  Report report;
  AnalyzeFile("src/global/bad_obs.cc", buf.str(), Options(), &report);
  EXPECT_TRUE(LinesFor(report, Rule::kObsInEmbedded).empty());
}

TEST(PdslintFrameRule, FlagsUnboundedDecoderAllocations) {
  Report r = Lint("net/bad_frame.cc");
  std::vector<int> lines = LinesFor(r, Rule::kNetBoundedFrame);
  ASSERT_EQ(lines.size(), 3u) << "reserve, push_back, resize";
  EXPECT_EQ(lines[0], 17);  // names.reserve(n) from a wire count
  EXPECT_EQ(lines[1], 19);  // push_back loop driven by the same count
  EXPECT_EQ(lines[2], 27);  // out.resize(len) from a wire length
}

TEST(PdslintFrameRule, SilentOnBoundCheckedDecoders) {
  Report r = Lint("net/good_frame.cc");
  EXPECT_TRUE(r.findings.empty())
      << pdslint::FormatFinding(r.findings.front());
}

TEST(PdslintFrameRule, IgnoresModulesOutsideNet) {
  // Same unbounded decoders, but attributed to a non-wire module: only net
  // parses untrusted peer bytes, so the rule must not apply.
  std::ifstream in(FixturePath("net/bad_frame.cc"), std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  Report report;
  AnalyzeFile("src/global/bad_frame.cc", buf.str(), Options(), &report);
  EXPECT_TRUE(LinesFor(report, Rule::kNetBoundedFrame).empty());
}

TEST(PdslintNodiscardRule, FlagsUnannotatedDeclarations) {
  Report r = Lint("common/bad_nodiscard.h");
  std::vector<int> lines = LinesFor(r, Rule::kResultNodiscard);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], 9);   // Status Open();
  EXPECT_EQ(lines[1], 10);  // Result<int> Compute() const;
  EXPECT_EQ(lines[2], 11);  // static Status Validate(int);
  EXPECT_EQ(lines[3], 17);  // Status GlobalInit();
}

TEST(PdslintNodiscardRule, SilentOnAnnotatedDeclarations) {
  Report r = Lint("common/good_nodiscard.h");
  EXPECT_TRUE(r.findings.empty())
      << pdslint::FormatFinding(r.findings.front());
}

TEST(PdslintGuardRule, FlagsUnguardedValue) {
  Report r = Lint("global/bad_guard.cc");
  std::vector<int> lines = LinesFor(r, Rule::kResultGuard);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], 6);
}

TEST(PdslintGuardRule, SilentOnGuardedValue) {
  Report r = Lint("global/good_guard.cc");
  EXPECT_TRUE(r.findings.empty())
      << pdslint::FormatFinding(r.findings.front());
}

TEST(PdslintHeaderRules, FlagHygieneViolations) {
  Report r = Lint("anon/bad_header.h");
  EXPECT_EQ(LinesFor(r, Rule::kHeaderGuard).size(), 1u);
  ASSERT_EQ(LinesFor(r, Rule::kUsingNamespace).size(), 1u);
  EXPECT_EQ(LinesFor(r, Rule::kUsingNamespace)[0], 6);
  ASSERT_EQ(LinesFor(r, Rule::kGlobalVar).size(), 1u);
  EXPECT_EQ(LinesFor(r, Rule::kGlobalVar)[0], 10);
}

TEST(PdslintHeaderRules, SilentOnHygienicHeader) {
  Report r = Lint("anon/good_header.h");
  EXPECT_TRUE(r.findings.empty())
      << pdslint::FormatFinding(r.findings.front());
}

TEST(PdslintFingerprint, StableAcrossLineShiftsDistinctAcrossOccurrences) {
  Report a = Lint("embdb/bad_ram.cc");
  ASSERT_FALSE(a.findings.empty());

  // Shift the file down by three blank lines: fingerprints must not change.
  std::ifstream in(FixturePath("embdb/bad_ram.cc"), std::ios::binary);
  std::ostringstream buf;
  buf << "\n\n\n" << in.rdbuf();
  Report b;
  AnalyzeFile(FixturePath("embdb/bad_ram.cc"), buf.str(), Options(), &b);
  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(pdslint::Fingerprint(a.findings[i]),
              pdslint::Fingerprint(b.findings[i]));
    EXPECT_NE(a.findings[i].line, b.findings[i].line);
  }

  // All fingerprints are distinct, even for identical rule/snippet pairs.
  std::set<std::string> prints;
  for (const Finding& f : a.findings) prints.insert(pdslint::Fingerprint(f));
  EXPECT_EQ(prints.size(), a.findings.size());
}

TEST(PdslintRuleNames, RoundTrip) {
  for (Rule rule : {Rule::kRamAlloc, Rule::kResultNodiscard,
                    Rule::kResultGuard, Rule::kHeaderGuard,
                    Rule::kUsingNamespace, Rule::kGlobalVar,
                    Rule::kObsInEmbedded, Rule::kNetBoundedFrame,
                    Rule::kSecretFlow, Rule::kConstTime}) {
    Rule parsed;
    ASSERT_TRUE(pdslint::ParseRuleName(pdslint::RuleName(rule), &parsed));
    EXPECT_EQ(parsed, rule);
  }
  Rule parsed;
  EXPECT_TRUE(pdslint::ParseRuleName("ram", &parsed));
  EXPECT_EQ(parsed, Rule::kRamAlloc);
  EXPECT_TRUE(pdslint::ParseRuleName("obs", &parsed));
  EXPECT_EQ(parsed, Rule::kObsInEmbedded);
  EXPECT_TRUE(pdslint::ParseRuleName("frame", &parsed));
  EXPECT_EQ(parsed, Rule::kNetBoundedFrame);
  EXPECT_TRUE(pdslint::ParseRuleName("secret", &parsed));
  EXPECT_EQ(parsed, Rule::kSecretFlow);
  EXPECT_TRUE(pdslint::ParseRuleName("ct", &parsed));
  EXPECT_EQ(parsed, Rule::kConstTime);
  EXPECT_FALSE(pdslint::ParseRuleName("no-such-rule", &parsed));
}

// ---------------------------------------------------------------------------
// secret-flow
// ---------------------------------------------------------------------------

TEST(PdslintSecretFlow, FlagsEveryLeakShape) {
  Report r = Lint("net/bad_secret_flow.cc");
  std::vector<int> lines = LinesFor(r, Rule::kSecretFlow);
  std::vector<int> expected{27, 33, 40, 46, 53, 61, 72, 77, 82, 88, 96, 103};
  ASSERT_EQ(lines.size(), expected.size())
      << "direct sink, assignment, member write, decrypt output, container "
         "insert, range-for binding, secret-returning call, printf, stream, "
         "secret param, compound assignment, ASSIGN_OR_RETURN macro";
  EXPECT_EQ(lines, expected);
}

TEST(PdslintSecretFlow, SilentOnSanitizedOrDeclassifiedFlows) {
  Report r = Lint("net/good_secret_flow.cc");
  EXPECT_TRUE(r.findings.empty())
      << pdslint::FormatFinding(r.findings.front());
  // The one declassify waiver must be attributed to the rule, carry its
  // reason, and actually suppress something (the tainted fingerprint send).
  ASSERT_EQ(r.waivers.size(), 1u);
  EXPECT_EQ(r.waivers[0].rule, Rule::kSecretFlow);
  EXPECT_TRUE(r.waivers[0].used);
  EXPECT_FALSE(r.waivers[0].reason.empty());
}

TEST(PdslintSecretFlow, CatchesPlantedFleetKeyFrameLeak) {
  // The acceptance leak: a SymmetricKey fleet key (built-in seed, no
  // annotation) serialized into a net frame encoder.
  Report r = Lint("net/leak_secret_frame.cc");
  std::vector<int> lines = LinesFor(r, Rule::kSecretFlow);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], 25);
  EXPECT_NE(r.findings[0].message.find("EncodeHello"), std::string::npos);
}

TEST(PdslintSecretFlow, CatchesHmacKeyMidstatesInFrame) {
  // A token's MAC key is an HmacKey (cached HMAC midstates), a built-in
  // seed like SymmetricKey: its bytes reaching the frame encoder must be
  // flagged with no annotation.
  Report r = Lint("net/leak_hmac_key_frame.cc");
  std::vector<int> lines = LinesFor(r, Rule::kSecretFlow);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], 32);
  EXPECT_NE(r.findings[0].message.find("EncodeMessage"), std::string::npos);
}

TEST(PdslintSecretFlow, CatchesCiphertextCopiedIntoDiagnosticLog) {
  // The adversarial-reply leak: a tampering-diagnosis helper folds a
  // secret-annotated ciphertext into the diagnostic string it prints.
  // Detection tooling must not become the exfiltration path.
  Report r = Lint("net/leak_adversarial_log.cc");
  std::vector<int> lines = LinesFor(r, Rule::kSecretFlow);
  ASSERT_GE(lines.size(), 1u);
  bool print_flagged = false;
  for (size_t i = 0; i < r.findings.size(); ++i) {
    if (r.findings[i].rule == Rule::kSecretFlow &&
        r.findings[i].message.find("log/print") != std::string::npos) {
      print_flagged = true;
    }
  }
  EXPECT_TRUE(print_flagged) << pdslint::FormatFinding(r.findings.front());
}

TEST(PdslintSecretFlow, CatchesKeyMaterialFoldedIntoTraceId) {
  // The distributed-tracing leak: fleet-key bytes folded into a trace_id
  // that reaches the frame encoder through Message::trace. Trace ids travel
  // cleartext on every traced frame, so the taint must follow the member
  // assignment into EncodeMessage — the real codepath seeds trace ids from
  // the non-secret RNG.
  Report r = Lint("net/leak_trace_id.cc");
  std::vector<int> lines = LinesFor(r, Rule::kSecretFlow);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], 47);
  EXPECT_NE(r.findings[0].message.find("EncodeMessage"), std::string::npos);
}

TEST(PdslintSecretFlow, CatchesCiphertextInSimEventRecord) {
  // The simulator leak: a secret-annotated Paillier ciphertext copied into
  // the per-link event record and handed to the record sink. The sim event
  // log is dumped wholesale by bench tooling, so it must only ever carry
  // frame sizes and kinds — never payload bytes.
  Report r = Lint("sim/leak_event_record.cc");
  std::vector<int> lines = LinesFor(r, Rule::kSecretFlow);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], 35);
  EXPECT_NE(r.findings[0].message.find("RecordEvent"), std::string::npos);
}

TEST(PdslintSimModule, SilentOnMetadataOnlyEventLog) {
  // The sim module is under the embedded-RAM and secret-flow rules like
  // net: a metadata-only event log with reserve-bounded growth is the
  // idiom src/sim actually uses and must stay silent.
  Report r = Lint("sim/good_event_record.cc");
  EXPECT_TRUE(r.findings.empty())
      << pdslint::FormatFinding(r.findings.front());
}

TEST(PdslintSimModule, SimIsUnderTheEmbeddedAndFramedRules) {
  Options opts;
  auto has = [](const std::vector<std::string>& v, const char* m) {
    return std::find(v.begin(), v.end(), m) != v.end();
  };
  EXPECT_TRUE(has(opts.embedded_modules, "sim"));
  EXPECT_TRUE(has(opts.nodiscard_modules, "sim"));
  EXPECT_TRUE(has(opts.framed_modules, "sim"));
}

TEST(PdslintSecretFlow, FlagsAnySecretInSsiCompiledCode) {
  Report r = Lint("net/ssi_server_bad.cc");
  std::vector<int> lines = LinesFor(r, Rule::kSecretFlow);
  std::vector<int> expected{23, 24, 25, 29, 30, 31, 38};
  ASSERT_EQ(lines.size(), expected.size())
      << "decrypt + its uses, fleet key + its uses, secret param (even "
         "behind a sanitizer the SSI must not hold the key)";
  EXPECT_EQ(lines, expected);
}

TEST(PdslintSecretFlow, SilentOnCiphertextOnlySsiCode) {
  Report r = Lint("net/ssi_server_good.cc");
  EXPECT_TRUE(r.findings.empty())
      << pdslint::FormatFinding(r.findings.front());
  ASSERT_EQ(r.waivers.size(), 1u);
  EXPECT_EQ(r.waivers[0].rule, Rule::kSecretFlow);
  EXPECT_TRUE(r.waivers[0].used) << "declassify on the aggregate decrypt";
}

TEST(PdslintSecretFlow, PropagatesThroughHelperReturnsAcrossFiles) {
  // keys.cc returns a decrypt output; wire.cc (a different file in the same
  // module) sends that helper's result to a sink. Only the cross-file index
  // can see the flow.
  const std::string keys_path = "src/net/keys.cc";
  const std::string keys =
      "using Bytes = int;\n"
      "Bytes DecryptSealedBlob(Bytes sealed);\n"
      "Bytes LoadFleetKey(Bytes sealed) {\n"
      "  Bytes k = DecryptSealedBlob(sealed);\n"
      "  return k;\n"
      "}\n";
  const std::string wire_path = "src/net/wire.cc";
  const std::string wire =
      "using Bytes = int;\n"
      "// pdslint: sink(EncodeFrame)\n"
      "Bytes EncodeFrame(Bytes payload);\n"
      "Bytes LoadFleetKey(Bytes sealed);\n"
      "Bytes Handle(Bytes sealed) {\n"
      "  Bytes key = LoadFleetKey(sealed);\n"
      "  return EncodeFrame(key);\n"
      "}\n";
  Options options;
  pdslint::SourceIndex index =
      pdslint::BuildIndex({{keys_path, keys}, {wire_path, wire}}, options);
  Report cross;
  AnalyzeFile(wire_path, wire, options, index, &cross);
  std::vector<int> lines = LinesFor(cross, Rule::kSecretFlow);
  ASSERT_EQ(lines.size(), 1u) << "LoadFleetKey must be inferred secret";
  EXPECT_EQ(lines[0], 7);

  // Without keys.cc in the index the helper is opaque and nothing fires.
  Report solo;
  AnalyzeFile(wire_path, wire, options, &solo);
  EXPECT_TRUE(LinesFor(solo, Rule::kSecretFlow).empty());
}

// ---------------------------------------------------------------------------
// const-time
// ---------------------------------------------------------------------------

TEST(PdslintConstTime, FlagsEveryLeakShape) {
  Report r = Lint("crypto/montgomery_bad.cc");
  std::vector<int> lines = LinesFor(r, Rule::kConstTime);
  std::vector<int> expected{17, 28, 39, 50, 59, 68, 75, 83, 93, 100, 110, 111};
  ASSERT_EQ(lines.size(), expected.size())
      << "if/while/for/switch on secret, early exits, ternary, table loads, "
         "propagated locals, zero-digit skip loop";
  EXPECT_EQ(lines, expected);
}

TEST(PdslintConstTime, SilentOnBranchlessKernels) {
  Report r = Lint("crypto/montgomery_good.cc");
  EXPECT_TRUE(r.findings.empty())
      << pdslint::FormatFinding(r.findings.front());
  ASSERT_EQ(r.waivers.size(), 1u);
  EXPECT_EQ(r.waivers[0].rule, Rule::kConstTime);
  EXPECT_TRUE(r.waivers[0].used) << "reasoned exempt on the digit-0 skip";
  EXPECT_FALSE(r.waivers[0].reason.empty());
}

TEST(PdslintConstTime, CatchesPlantedLeakyLadder) {
  // The acceptance leak: a square-and-multiply ladder whose multiply step
  // branches on the secret exponent bit.
  Report r = Lint("crypto/montgomery_leak.cc");
  std::vector<int> lines = LinesFor(r, Rule::kConstTime);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], 21);
  EXPECT_NE(r.findings[0].message.find("secret-dependent"),
            std::string::npos);
}

TEST(PdslintConstTime, CatchesPlantedByteWiseSbox) {
  // The pre-masked-scan portable AES: SubBytes and the key schedule's
  // SubWord index kSbox by secret state. The nested subscript and the
  // memcpy into the key-schedule word must both carry the taint.
  Report r = Lint("crypto/aes_leak.cc");
  std::vector<int> lines = LinesFor(r, Rule::kConstTime);
  std::vector<int> expected{21, 22, 23, 24, 36};
  ASSERT_EQ(lines, expected) << "SubWord's four loads and SubBytes' load";
  for (const Finding& f : r.findings) {
    EXPECT_NE(f.message.find("secret-indexed table load"), std::string::npos)
        << pdslint::FormatFinding(f);
  }
}

TEST(PdslintConstTime, ScopedToKernelFiles) {
  // The rule covers the Paillier kernels (montgomery*/bigint*) and the
  // token's symmetric primitives (aes*/sha256*/hmac*). The same leaky
  // shapes elsewhere are not under it (general crypto code may branch on
  // secrets it then discards).
  std::ifstream in(FixturePath("crypto/montgomery_bad.cc"),
                   std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  for (const char* path : {"src/crypto/paillier_extras.cc",
                           "src/crypto/cipher.cc", "src/mcu/secure_token.cc"}) {
    Report report;
    AnalyzeFile(path, buf.str(), Options(), &report);
    EXPECT_TRUE(LinesFor(report, Rule::kConstTime).empty()) << path;
  }
  const size_t all = LinesFor(Lint("crypto/montgomery_bad.cc"),
                              Rule::kConstTime).size();
  for (const char* path : {"src/crypto/aes.cc", "src/crypto/sha256.cc",
                           "src/crypto/hmac.cc", "src/crypto/bigint.cc"}) {
    Report report;
    AnalyzeFile(path, buf.str(), Options(), &report);
    EXPECT_EQ(LinesFor(report, Rule::kConstTime).size(), all) << path;
  }
}

// ---------------------------------------------------------------------------
// net-bounded-frame: packed-aggregate path
// ---------------------------------------------------------------------------

TEST(PdslintFrameRule, FlagsUnboundedPackedPath) {
  Report r = Lint("net/bad_packed_frame.cc");
  std::vector<int> lines = LinesFor(r, Rule::kNetBoundedFrame);
  ASSERT_EQ(lines.size(), 2u)
      << "FromBytes before the ciphertext bound; resize before the slot "
         "bound";
  EXPECT_EQ(lines[0], 35);
  EXPECT_EQ(lines[1], 47);
  EXPECT_NE(r.findings[0].message.find("kMaxPacked"), std::string::npos);
  EXPECT_NE(r.findings[1].message.find("kMaxPackedSlots"),
            std::string::npos);
}

TEST(PdslintFrameRule, SilentOnBoundedPackedPath) {
  Report r = Lint("net/good_packed_frame.cc");
  EXPECT_TRUE(r.findings.empty())
      << pdslint::FormatFinding(r.findings.front());
}

// ---------------------------------------------------------------------------
// Waiver hygiene over the real tree
// ---------------------------------------------------------------------------

TEST(PdslintWaiverHygiene, RepoTreeIsCleanAndEveryWaiverIsReasonedAndUsed) {
  // The tree the lint CI job scans must stay finding-free, every waiver must
  // carry a non-empty reason and suppress a real would-be finding, and the
  // count must fit the first line of .lint-budget (growing the waiver count
  // requires bumping that file in the same commit).
  std::string repo(PDSLINT_REPO_DIR);
  Report r = pdslint::AnalyzeTree(
      {repo + "/src", repo + "/examples/ssi_demo.cpp"}, Options());
  EXPECT_TRUE(r.findings.empty())
      << pdslint::FormatFinding(r.findings.front());
  int secret_or_ct = 0;
  for (const auto& w : r.waivers) {
    EXPECT_FALSE(w.reason.empty())
        << w.file << ":" << w.line << " waiver has no reason";
    EXPECT_TRUE(w.used) << w.file << ":" << w.line << " waiver is stale";
    if (w.rule == Rule::kSecretFlow || w.rule == Rule::kConstTime) {
      ++secret_or_ct;
    }
  }
  std::ifstream budget_in(repo + "/.lint-budget");
  int budget = -1;
  budget_in >> budget;
  ASSERT_GT(budget, 0) << "unreadable .lint-budget";
  EXPECT_LE(static_cast<int>(r.waivers.size()), budget);
  // The issue caps the two new rules at 6 reasoned waivers inside src/;
  // the demo adds two provisioning declassifies on top.
  EXPECT_LE(secret_or_ct, 8);
}

}  // namespace

// End-to-end integration: the full tutorial story in one test file.
// A fleet of PDS nodes holds household data behind token-resident
// policies; a statistics agency runs a secure GROUP-BY through the
// [TNP14] protocols using only what the Share policy exposes; every
// access is audited; and the SSI's recorded view stays ciphertext-only.

#include <gtest/gtest.h>

#include <memory>

#include "global/agg_protocols.h"
#include "pds/pds_node.h"

namespace pds {
namespace {

using ac::Action;
using ac::Subject;
using embdb::ColumnType;
using embdb::Schema;
using embdb::Tuple;
using embdb::Value;
using global::AggFunc;
using global::Participant;
using global::PlainAggregate;
using node::PdsNode;

class FleetIntegrationTest : public ::testing::Test {
 protected:
  static constexpr size_t kNodes = 12;

  void SetUp() override {
    crypto::SymmetricKey fleet_key = crypto::KeyFromString("integration");
    Rng rng(99);
    const char* cities[] = {"lyon", "paris", "nice"};

    for (size_t i = 0; i < kNodes; ++i) {
      PdsNode::Config cfg;
      cfg.node_id = i + 1;
      cfg.fleet_key = fleet_key;
      cfg.flash_geometry.page_size = 512;
      cfg.flash_geometry.pages_per_block = 8;
      cfg.flash_geometry.block_count = 256;
      nodes_.push_back(std::make_unique<PdsNode>(cfg));
      PdsNode& node = *nodes_.back();

      Schema bills("bills", {{"id", ColumnType::kUint64, ""},
                             {"city", ColumnType::kString, ""},
                             {"amount", ColumnType::kDouble, ""},
                             {"note", ColumnType::kString, ""}});
      ASSERT_TRUE(node.DefineTable(bills).ok());
      node.policies().AddRule(
          {"owner", Action::kInsert, "bills", {}, std::nullopt});
      node.policies().AddRule(
          {"owner", Action::kRead, "bills", {}, std::nullopt});
      // The agency may share ONLY (city, amount) — not the free-text note.
      node.policies().AddRule({"stats-agency", Action::kShare, "bills",
                               {"city", "amount"}, std::nullopt});

      Subject owner{"owner", "user-" + std::to_string(i)};
      int rows = 2 + static_cast<int>(rng.Uniform(4));
      for (int r = 0; r < rows; ++r) {
        Tuple t = {Value::U64(static_cast<uint64_t>(r)),
                   Value::Str(cities[rng.Uniform(3)]),
                   Value::F64(static_cast<double>(rng.Uniform(10000)) / 100),
                   Value::Str("private free text")};
        ASSERT_TRUE(node.InsertAs(owner, "bills", t).ok());
      }
    }
  }

  /// Builds protocol participants through the policy-checked export path.
  Result<std::vector<Participant>> ExportFleet(const Subject& subject) {
    std::vector<Participant> participants;
    for (auto& node : nodes_) {
      Participant p;
      p.token = &node->token();
      PDS_RETURN_IF_ERROR(
          node->ExportAs(subject, "bills", "city", "amount", &p.tuples));
      participants.push_back(std::move(p));
    }
    return participants;
  }

  std::vector<std::unique_ptr<PdsNode>> nodes_;
};

TEST_F(FleetIntegrationTest, AgencyRunsSecureAggregateEndToEnd) {
  auto participants = ExportFleet({"stats-agency", "insee"});
  ASSERT_TRUE(participants.ok()) << participants.status().ToString();

  auto expected = PlainAggregate(*participants, AggFunc::kAvg);
  ASSERT_FALSE(expected.empty());

  global::SecureAggProtocol protocol({/*partition_capacity=*/64});
  auto output = protocol.Execute(*participants, AggFunc::kAvg);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  ASSERT_EQ(output->groups.size(), expected.size());
  for (auto& [city, avg] : expected) {
    EXPECT_NEAR(output->groups[city], avg, 1e-9) << city;
  }
  // The SSI saw only ciphertext, each tuple distinct.
  EXPECT_FALSE(output->leakage.plaintext_groups_visible);
  EXPECT_EQ(output->leakage.distinct_classes,
            output->leakage.tuples_observed);
}

TEST_F(FleetIntegrationTest, UnauthorizedSubjectCannotExport) {
  auto denied = ExportFleet({"advertiser", "acme"});
  EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(FleetIntegrationTest, EveryExportIsAudited) {
  uint64_t before = nodes_[0]->audit_entries();
  ASSERT_TRUE(ExportFleet({"stats-agency", "insee"}).ok());
  EXPECT_EQ(nodes_[0]->audit_entries(), before + 1);

  auto log = nodes_[0]->ReadAuditLog();
  ASSERT_TRUE(log.ok());
  bool found = false;
  for (const std::string& line : *log) {
    if (line.find("stats-agency") != std::string::npos &&
        line.find("share") != std::string::npos &&
        line.find("ALLOW") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(FleetIntegrationTest, TamperedNodeDropsOutOfProtocol) {
  auto participants = ExportFleet({"stats-agency", "insee"});
  ASSERT_TRUE(participants.ok());
  // One token is physically attacked: it zeroizes and the protocol run
  // fails loudly rather than producing partial results.
  nodes_[3]->token().Tamper();
  global::WhiteNoiseProtocol protocol({0.2, 1});
  auto output = protocol.Execute(*participants, AggFunc::kSum);
  EXPECT_FALSE(output.ok());

  // Excluding the tampered node, the rest of the fleet still answers.
  std::vector<Participant> healthy;
  for (size_t i = 0; i < participants->size(); ++i) {
    if (i != 3) {
      healthy.push_back((*participants)[i]);
    }
  }
  auto output2 = protocol.Execute(healthy, AggFunc::kSum);
  ASSERT_TRUE(output2.ok());
  auto expected = PlainAggregate(healthy, AggFunc::kSum);
  for (auto& [city, sum] : expected) {
    EXPECT_NEAR(output2->groups[city], sum, 1e-9);
  }
}

TEST_F(FleetIntegrationTest, LocalSqlOverOwnedData) {
  // The owner can also drive the node's database through the SQL surface.
  int rows = 0;
  Status s = nodes_[0]->db().Query(
      "SELECT city, amount FROM bills WHERE amount >= 0.0",
      [&](const Tuple& t) {
        EXPECT_EQ(t.size(), 2u);
        ++rows;
        return Status::Ok();
      });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(rows, 0);
}

}  // namespace
}  // namespace pds

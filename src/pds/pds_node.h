#ifndef PDS_PDS_PDS_NODE_H_
#define PDS_PDS_PDS_NODE_H_

#include <memory>
#include <string>
#include <vector>

#include "ac/policy.h"
#include "common/result.h"
#include "embdb/database.h"
#include "flash/flash.h"
#include "global/common.h"
#include "logstore/sequential_log.h"
#include "mcu/secure_token.h"

namespace pds::node {

/// A complete Personal Data Server: the tutorial's secure portable token —
/// secure MCU (SecureToken + RamGauge), NAND flash chip, the embedded
/// database of Part II, token-resident access control, and an append-only
/// audit log on flash.
///
/// All query entry points take a Subject and are policy-checked inside the
/// node; the audit trail records every decision.
class PdsNode {
 public:
  struct Config {
    uint64_t node_id = 0;
    crypto::SymmetricKey fleet_key{};
    size_t ram_budget_bytes = 64 * 1024;
    flash::Geometry flash_geometry;
    uint64_t rng_seed = 1;
    /// Blocks reserved for the audit log.
    uint32_t audit_blocks = 4;
  };

  explicit PdsNode(const Config& config);

  PdsNode(const PdsNode&) = delete;
  PdsNode& operator=(const PdsNode&) = delete;

  uint64_t id() const { return token_->id(); }
  mcu::SecureToken& token() { return *token_; }
  embdb::Database& db() { return *db_; }
  flash::FlashChip& chip() { return *chip_; }
  mcu::RamGauge& ram() { return token_->ram(); }
  ac::PolicySet& policies() { return policies_; }

  /// Defines a table (schema setup is an owner-level operation).
  Status DefineTable(const embdb::Schema& schema,
                     const embdb::Database::TableOptions& options = {});

  /// Policy-checked insert.
  Result<uint64_t> InsertAs(const ac::Subject& subject,
                            const std::string& table,
                            const embdb::Tuple& tuple);

  /// Policy-checked select: projects `columns` (empty = all) of rows
  /// matching `predicates`, conjoined with the policy's mandatory filters.
  Status QueryAs(const ac::Subject& subject, const std::string& table,
                 const std::vector<embdb::Predicate>& predicates,
                 const std::vector<std::string>& columns,
                 const std::function<Status(const embdb::Tuple&)>& emit);

  /// Policy-checked export of (group, value) tuples for global protocols —
  /// the Action::kShare gate. Values are read in plaintext here because the
  /// caller is the node itself; the global layer encrypts them inside the
  /// token before anything leaves. A string value column is refused with
  /// InvalidArgument (after the decision is audited): it has no sum.
  Status ExportAs(const ac::Subject& subject, const std::string& table,
                  const std::string& group_column,
                  const std::string& value_column,
                  std::vector<global::SourceTuple>* out);

  /// Reads back the audit trail (owner operation).
  Result<std::vector<std::string>> ReadAuditLog();
  uint64_t audit_entries() const { return audit_count_; }

 private:
  Status Audit(const ac::AuditEntry& entry);
  static double NumericValue(const embdb::Value& v);

  std::unique_ptr<flash::FlashChip> chip_;
  std::unique_ptr<mcu::SecureToken> token_;
  std::unique_ptr<embdb::Database> db_;
  ac::PolicySet policies_;
  logstore::RecordLog audit_log_;
  uint64_t audit_count_ = 0;
};

}  // namespace pds::node

#endif  // PDS_PDS_PDS_NODE_H_

#include "pds/pds_node.h"

namespace pds::node {

PdsNode::PdsNode(const Config& config) {
  chip_ = std::make_unique<flash::FlashChip>(config.flash_geometry);

  mcu::SecureToken::Config token_config;
  token_config.token_id = config.node_id;
  token_config.fleet_key = config.fleet_key;
  token_config.ram_budget_bytes = config.ram_budget_bytes;
  token_config.rng_seed = config.rng_seed;
  token_ = std::make_unique<mcu::SecureToken>(token_config);

  db_ = std::make_unique<embdb::Database>(chip_.get(), &token_->ram());

  Result<flash::Partition> audit_part =
      db_->allocator()->Allocate(config.audit_blocks);
  if (audit_part.ok()) {
    audit_log_ = logstore::RecordLog(*audit_part);
  }
}

Status PdsNode::Audit(const ac::AuditEntry& entry) {
  std::string line = entry.ToString();
  PDS_RETURN_IF_ERROR(
      audit_log_.Append(ByteView(std::string_view(line))).status());
  ++audit_count_;
  return Status::Ok();
}

Status PdsNode::DefineTable(const embdb::Schema& schema,
                            const embdb::Database::TableOptions& options) {
  return db_->CreateTable(schema, options);
}

Result<uint64_t> PdsNode::InsertAs(const ac::Subject& subject,
                                   const std::string& table,
                                   const embdb::Tuple& tuple) {
  ac::Decision decision =
      policies_.Check(subject, ac::Action::kInsert, table, {});
  PDS_RETURN_IF_ERROR(Audit({subject, ac::Action::kInsert, table,
                             decision.allowed}));
  if (!decision.allowed) {
    return Status::PermissionDenied(subject.role + " may not insert into " +
                                    table);
  }
  return db_->Insert(table, tuple);
}

Status PdsNode::QueryAs(
    const ac::Subject& subject, const std::string& table,
    const std::vector<embdb::Predicate>& predicates,
    const std::vector<std::string>& columns,
    const std::function<Status(const embdb::Tuple&)>& emit) {
  ac::Decision decision =
      policies_.Check(subject, ac::Action::kRead, table, columns);
  PDS_RETURN_IF_ERROR(
      Audit({subject, ac::Action::kRead, table, decision.allowed}));
  if (!decision.allowed) {
    return Status::PermissionDenied(subject.role + " may not read " + table);
  }
  embdb::TableHeap* heap = db_->table(table);
  if (heap == nullptr) {
    return Status::NotFound("table " + table);
  }

  // Conjoin the caller's predicates with the policy's mandatory filters.
  std::vector<embdb::Predicate> all = predicates;
  all.insert(all.end(), decision.mandatory_filters.begin(),
             decision.mandatory_filters.end());

  // Resolve projection.
  std::vector<int> proj;
  for (const std::string& c : columns) {
    int idx = heap->schema().ColumnIndex(c);
    if (idx < 0) {
      return Status::NotFound("column " + c);
    }
    proj.push_back(idx);
  }

  return db_->SelectScan(table, all,
                         [&](uint64_t rowid, const embdb::Tuple& tuple) {
                           (void)rowid;
                           if (proj.empty()) {
                             return emit(tuple);
                           }
                           embdb::Tuple projected;
                           projected.reserve(proj.size());
                           for (int idx : proj) {
                             projected.push_back(
                                 tuple[static_cast<size_t>(idx)]);
                           }
                           return emit(projected);
                         });
}

double PdsNode::NumericValue(const embdb::Value& v) {
  switch (v.type()) {
    case embdb::ColumnType::kUint64:
      return static_cast<double>(v.AsU64());
    case embdb::ColumnType::kInt64:
      return static_cast<double>(v.AsI64());
    case embdb::ColumnType::kDouble:
      return v.AsF64();
    case embdb::ColumnType::kString:  // ExportAs refuses these
      break;
  }
  return 0.0;
}

Status PdsNode::ExportAs(const ac::Subject& subject, const std::string& table,
                         const std::string& group_column,
                         const std::string& value_column,
                         std::vector<global::SourceTuple>* out) {
  ac::Decision decision = policies_.Check(
      subject, ac::Action::kShare, table, {group_column, value_column});
  PDS_RETURN_IF_ERROR(
      Audit({subject, ac::Action::kShare, table, decision.allowed}));
  if (!decision.allowed) {
    return Status::PermissionDenied(subject.role + " may not share " + table);
  }
  embdb::TableHeap* heap = db_->table(table);
  if (heap == nullptr) {
    return Status::NotFound("table " + table);
  }
  int gcol = heap->schema().ColumnIndex(group_column);
  int vcol = heap->schema().ColumnIndex(value_column);
  if (gcol < 0 || vcol < 0) {
    return Status::NotFound("export columns not found");
  }
  if (heap->schema().columns()[static_cast<size_t>(vcol)].type ==
      embdb::ColumnType::kString) {
    return Status::InvalidArgument("value column " + value_column +
                                   " is not numeric");
  }

  out->clear();
  return db_->SelectScan(
      table, decision.mandatory_filters,
      [&](uint64_t, const embdb::Tuple& tuple) {
        out->push_back({tuple[static_cast<size_t>(gcol)].ToString(),
                        NumericValue(tuple[static_cast<size_t>(vcol)])});
        return Status::Ok();
      });
}

Result<std::vector<std::string>> PdsNode::ReadAuditLog() {
  std::vector<std::string> entries;
  logstore::RecordLog::Reader reader = audit_log_.NewReader();
  Bytes record;
  while (!reader.AtEnd()) {
    PDS_RETURN_IF_ERROR(reader.Next(&record));
    entries.push_back(ByteView(record).ToString());
  }
  return entries;
}

}  // namespace pds::node

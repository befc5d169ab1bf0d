#include "logstore/external_sort.h"

#include <algorithm>
#include <cstring>

#include "logstore/sequential_log.h"

namespace pds::logstore {

namespace {

/// Streaming cursor over a run: a view of its current page, records in
/// order. The merge charges one page of RAM per cursor, the page a device
/// must hold while it reads it.
class RunCursor {
 public:
  RunCursor(flash::Partition* partition, uint32_t num_pages,
            uint64_t num_records, size_t record_size, uint32_t page_size)
      : partition_(partition),
        num_pages_(num_pages),
        remaining_(num_records),
        record_size_(record_size),
        records_per_page_(page_size / record_size),
        in_page_(records_per_page_) {}

  bool AtEnd() const { return remaining_ == 0; }

  /// Pointer to the current record (valid until Advance).
  Status Current(const uint8_t** out) {
    if (AtEnd()) {
      return Status::OutOfRange("run exhausted");
    }
    if (in_page_ >= records_per_page_) {
      if (next_page_ >= num_pages_) {
        return Status::Corruption("run shorter than declared");
      }
      PDS_RETURN_IF_ERROR(partition_->ViewPage(next_page_, &page_));
      ++next_page_;
      in_page_ = 0;
    }
    *out = page_.data() + in_page_ * record_size_;
    return Status::Ok();
  }

  void Advance() {
    ++in_page_;
    --remaining_;
  }

 private:
  flash::Partition* partition_;
  uint32_t num_pages_;
  uint64_t remaining_;
  size_t record_size_;
  size_t records_per_page_;

  ByteView page_;
  uint32_t next_page_ = 0;
  size_t in_page_;
};

}  // namespace

ExternalSorter::ExternalSorter(flash::PartitionAllocator* allocator,
                               const Options& options, mcu::RamGauge* gauge)
    : allocator_(allocator), options_(options), gauge_(gauge) {
  buffer_capacity_records_ =
      std::max<size_t>(1, options_.ram_budget_bytes / options_.record_size);
}

Status ExternalSorter::Add(ByteView record) {
  if (finished_) {
    return Status::FailedPrecondition("sorter already finished");
  }
  if (record.size() != options_.record_size) {
    return Status::InvalidArgument("record size mismatch");
  }
  if (buffer_.size() / options_.record_size >= buffer_capacity_records_) {
    PDS_RETURN_IF_ERROR(SpillRun());
  }
  PDS_RETURN_IF_ERROR(gauge_->Acquire(options_.record_size));
  buffer_.insert(buffer_.end(), record.data(), record.data() + record.size());
  ++num_records_;
  return Status::Ok();
}

Result<ExternalSorter::Run> ExternalSorter::AllocRun(uint64_t record_count) {
  const size_t rs = options_.record_size;
  const uint32_t ps = allocator_->geometry().page_size;
  const uint32_t ppb = allocator_->geometry().pages_per_block;
  const size_t records_per_page = ps / rs;
  if (records_per_page == 0) {
    return Status::InvalidArgument("record larger than flash page");
  }
  const uint32_t pages_needed = static_cast<uint32_t>(
      (record_count + records_per_page - 1) / records_per_page);
  const uint32_t blocks_needed =
      std::max<uint32_t>(1, (pages_needed + ppb - 1) / ppb);
  PDS_ASSIGN_OR_RETURN(flash::Partition partition,
                       allocator_->Allocate(blocks_needed));

  Run run;
  run.partition = partition;
  run.num_pages = pages_needed;
  run.num_records = record_count;
  return run;
}

Status ExternalSorter::SpillRun() {
  if (buffer_.empty()) {
    return Status::Ok();
  }
  const size_t rs = options_.record_size;
  const uint64_t count = buffer_.size() / rs;

  // Sort record-wise by memcmp.
  std::vector<const uint8_t*> ptrs(count);
  for (uint64_t i = 0; i < count; ++i) {
    ptrs[i] = buffer_.data() + i * rs;
  }
  std::sort(ptrs.begin(), ptrs.end(),
            [rs](const uint8_t* a, const uint8_t* b) {
              return std::memcmp(a, b, rs) < 0;
            });

  PDS_ASSIGN_OR_RETURN(Run run, AllocRun(count));
  SequentialLog log(run.partition);
  const uint32_t ps = run.partition.page_size();
  const size_t records_per_page = ps / rs;
  Bytes page;
  page.reserve(ps);
  for (uint64_t i = 0; i < count; ++i) {
    page.insert(page.end(), ptrs[i], ptrs[i] + rs);
    if (page.size() + rs > ps || i + 1 == count) {
      PDS_ASSIGN_OR_RETURN(uint32_t pg, log.AppendPage(ByteView(page)));
      (void)pg;
      page.clear();
    }
  }
  (void)records_per_page;

  runs_.push_back(std::move(run));
  gauge_->Release(buffer_.size());
  buffer_.clear();
  return Status::Ok();
}

Status ExternalSorter::MergeRuns(const std::vector<Run*>& inputs,
                                 const std::function<Status(ByteView)>& emit,
                                 Run* out) {
  const size_t rs = options_.record_size;
  uint64_t total = 0;
  for (Run* run : inputs) {
    total += run->num_records;
  }

  // One page buffer per input run, charged to the gauge.
  size_t charged_ram = 0;
  std::vector<RunCursor> cursors;
  cursors.reserve(inputs.size());
  Status status = Status::Ok();
  for (Run* run : inputs) {
    uint32_t ps = run->partition.page_size();
    status = gauge_->Acquire(ps);
    if (!status.ok()) {
      gauge_->Release(charged_ram);
      return status;
    }
    charged_ram += ps;
    cursors.emplace_back(&run->partition, run->num_pages, run->num_records,
                         rs, ps);
  }

  // Output: either the caller's emit, or a new run written page by page.
  SequentialLog out_log;
  Bytes out_page;
  uint32_t out_ps = 0;
  if (out != nullptr) {
    Result<Run> alloc = AllocRun(total);
    if (!alloc.ok()) {
      gauge_->Release(charged_ram);
      return alloc.status();
    }
    *out = std::move(alloc).value();
    out_log = SequentialLog(out->partition);
    out_ps = out->partition.page_size();
    status = gauge_->Acquire(out_ps);
    if (!status.ok()) {
      gauge_->Release(charged_ram);
      return status;
    }
    charged_ram += out_ps;
    out_page.reserve(out_ps);
  }

  uint64_t emitted = 0;
  while (emitted < total && status.ok()) {
    // Linear min-scan: fan-in is small (bounded by RAM budget / page size).
    int best = -1;
    const uint8_t* best_rec = nullptr;
    for (size_t i = 0; i < cursors.size(); ++i) {
      if (cursors[i].AtEnd()) {
        continue;
      }
      const uint8_t* rec = nullptr;
      status = cursors[i].Current(&rec);
      if (!status.ok()) {
        break;
      }
      if (best < 0 || std::memcmp(rec, best_rec, rs) < 0) {
        best = static_cast<int>(i);
        best_rec = rec;
      }
    }
    if (!status.ok()) {
      break;
    }
    if (best < 0) {
      status = Status::Corruption("merge ran dry before expected end");
      break;
    }
    if (out != nullptr) {
      out_page.insert(out_page.end(), best_rec, best_rec + rs);
      ++emitted;
      cursors[best].Advance();
      if (out_page.size() + rs > out_ps || emitted == total) {
        Result<uint32_t> pg = out_log.AppendPage(ByteView(out_page));
        if (!pg.ok()) {
          status = pg.status();
          break;
        }
        out_page.clear();
      }
    } else {
      status = emit(ByteView(best_rec, rs));
      if (!status.ok()) {
        break;
      }
      ++emitted;
      cursors[best].Advance();
    }
  }

  gauge_->Release(charged_ram);
  return status;
}

Status ExternalSorter::Finish(const std::function<Status(ByteView)>& emit) {
  if (finished_) {
    return Status::FailedPrecondition("sorter already finished");
  }
  finished_ = true;
  const size_t rs = options_.record_size;

  if (runs_.empty()) {
    // Everything fits in RAM: sort and emit directly.
    const uint64_t count = buffer_.size() / rs;
    std::vector<const uint8_t*> ptrs(count);
    for (uint64_t i = 0; i < count; ++i) {
      ptrs[i] = buffer_.data() + i * rs;
    }
    std::sort(ptrs.begin(), ptrs.end(),
              [rs](const uint8_t* a, const uint8_t* b) {
                return std::memcmp(a, b, rs) < 0;
              });
    Status status = Status::Ok();
    for (const uint8_t* p : ptrs) {
      status = emit(ByteView(p, rs));
      if (!status.ok()) {
        break;
      }
    }
    gauge_->Release(buffer_.size());
    buffer_.clear();
    return status;
  }

  PDS_RETURN_IF_ERROR(SpillRun());

  // Determine merge fan-in from the RAM budget (one page per run plus one
  // output page).
  const uint32_t ps = runs_.front().partition.page_size();
  size_t fan_in = std::max<size_t>(
      2, options_.ram_budget_bytes / ps > 1
             ? options_.ram_budget_bytes / ps - 1
             : 2);

  // Multi-pass merge until a single pass can emit everything.
  std::vector<Run> current = std::move(runs_);
  runs_.clear();
  while (current.size() > fan_in) {
    std::vector<Run> next;
    for (size_t i = 0; i < current.size(); i += fan_in) {
      size_t end = std::min(current.size(), i + fan_in);
      std::vector<Run*> group;
      for (size_t j = i; j < end; ++j) {
        group.push_back(&current[j]);
      }
      if (group.size() == 1) {
        next.push_back(std::move(*group[0]));
        continue;
      }
      Run merged;
      PDS_RETURN_IF_ERROR(MergeRuns(group, emit, &merged));
      // Consumed runs go back to the allocator (temporary logs are
      // de-allocated on the block grain, as the tutorial prescribes).
      for (Run* consumed : group) {
        PDS_RETURN_IF_ERROR(allocator_->Free(consumed->partition));
      }
      next.push_back(std::move(merged));
    }
    current = std::move(next);
  }

  std::vector<Run*> final_group;
  for (Run& run : current) {
    final_group.push_back(&run);
  }
  PDS_RETURN_IF_ERROR(MergeRuns(final_group, emit, nullptr));
  for (Run& run : current) {
    PDS_RETURN_IF_ERROR(allocator_->Free(run.partition));
  }
  return Status::Ok();
}

}  // namespace pds::logstore

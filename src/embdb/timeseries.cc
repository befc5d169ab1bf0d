#include "embdb/timeseries.h"

#include <algorithm>
#include <cstring>

namespace pds::embdb {

TimeSeriesStore::TimeSeriesStore(flash::Partition data_partition,
                                 flash::Partition summary_partition,
                                 mcu::RamGauge* gauge)
    : data_log_(data_partition),
      summary_log_(summary_partition),
      gauge_(gauge) {}

TimeSeriesStore::~TimeSeriesStore() {
  if (charged_ram_ > 0) {
    gauge_->Release(charged_ram_);
  }
}

Status TimeSeriesStore::Init() {
  if (initialized_) {
    return Status::FailedPrecondition("already initialized");
  }
  size_t ram = data_log_.page_size() + summary_log_.page_size();
  PDS_RETURN_IF_ERROR(gauge_->Acquire(ram));
  charged_ram_ = ram;
  initialized_ = true;
  return Status::Ok();
}

void TimeSeriesStore::EncodeSummary(const PageSummary& s, uint8_t* out) {
  EncodeU64(out, s.min_ts);
  EncodeU64(out + 8, s.max_ts);
  uint64_t bits;
  std::memcpy(&bits, &s.min_v, 8);
  EncodeU64(out + 16, bits);
  std::memcpy(&bits, &s.max_v, 8);
  EncodeU64(out + 24, bits);
  std::memcpy(&bits, &s.sum_v, 8);
  EncodeU64(out + 32, bits);
  EncodeU64(out + 40, s.count);
}

TimeSeriesStore::PageSummary TimeSeriesStore::DecodeSummary(
    const uint8_t* in) {
  PageSummary s;
  s.min_ts = GetU64(in);
  s.max_ts = GetU64(in + 8);
  uint64_t bits = GetU64(in + 16);
  std::memcpy(&s.min_v, &bits, 8);
  bits = GetU64(in + 24);
  std::memcpy(&s.max_v, &bits, 8);
  bits = GetU64(in + 32);
  std::memcpy(&s.sum_v, &bits, 8);
  s.count = GetU64(in + 40);
  return s;
}

Status TimeSeriesStore::SealOpenPage() {
  if (open_points_ == 0) {
    return Status::Ok();
  }
  PDS_ASSIGN_OR_RETURN(uint32_t page,
                       data_log_.AppendPage(ByteView(open_page_)));
  (void)page;
  open_page_.clear();
  open_points_ = 0;

  uint8_t encoded[kSummarySize];
  EncodeSummary(open_summary_, encoded);
  summary_buffer_.insert(summary_buffer_.end(), encoded,
                         encoded + kSummarySize);
  open_summary_ = PageSummary();

  if (summary_buffer_.size() + kSummarySize > summary_log_.page_size()) {
    PDS_ASSIGN_OR_RETURN(uint32_t spage,
                         summary_log_.AppendPage(ByteView(summary_buffer_)));
    (void)spage;
    summary_buffer_.clear();
  }
  return Status::Ok();
}

Status TimeSeriesStore::Append(uint64_t timestamp, double value) {
  if (!initialized_) {
    return Status::FailedPrecondition("store not initialized");
  }
  if (any_point_ && timestamp <= last_ts_) {
    return Status::InvalidArgument(
        "timestamps must be strictly increasing (sensor log order)");
  }
  uint8_t encoded[kPointSize];
  EncodeU64(encoded, timestamp);
  uint64_t bits;
  std::memcpy(&bits, &value, 8);
  EncodeU64(encoded + 8, bits);
  open_page_.insert(open_page_.end(), encoded, encoded + kPointSize);

  if (open_points_ == 0) {
    open_summary_.min_ts = timestamp;
    open_summary_.min_v = value;
    open_summary_.max_v = value;
  }
  open_summary_.max_ts = timestamp;
  open_summary_.min_v = std::min(open_summary_.min_v, value);
  open_summary_.max_v = std::max(open_summary_.max_v, value);
  open_summary_.sum_v += value;
  ++open_summary_.count;
  ++open_points_;

  last_ts_ = timestamp;
  any_point_ = true;
  ++num_points_;

  if (open_page_.size() + kPointSize > data_log_.page_size()) {
    PDS_RETURN_IF_ERROR(SealOpenPage());
  }
  return Status::Ok();
}

namespace {
struct PagePlan {
  uint32_t page = 0;
  bool fully_covered = false;
  TimeSeriesStore::RangeAggregate summary_agg;
};
}  // namespace

Status TimeSeriesStore::Range(uint64_t t1, uint64_t t2,
                              const std::function<Status(const Point&)>& emit,
                              QueryStats* stats) {
  if (stats != nullptr) {
    *stats = QueryStats();
  }
  if (t1 > t2) {
    return Status::InvalidArgument("t1 > t2");
  }
  // Phase 1: summary scan to find overlapping sealed pages. The touched-page
  // list is data-dependent, so charge it against the MCU gauge as it grows.
  std::vector<uint32_t> touched;
  PDS_ASSIGN_OR_RETURN(mcu::RamCharge touched_charge,
                       mcu::RamCharge::Make(gauge_, 0));
  uint32_t sealed_pages = data_log_.num_pages();
  uint32_t summary_index = 0;
  ByteView page;
  const size_t spp = summary_log_.page_size() / kSummarySize;
  for (uint32_t sp = 0;
       sp < summary_log_.num_pages() && summary_index < sealed_pages; ++sp) {
    PDS_RETURN_IF_ERROR(summary_log_.ViewPage(sp, &page));
    if (stats != nullptr) {
      ++stats->summary_pages;
    }
    for (size_t f = 0; f < spp && summary_index < sealed_pages; ++f) {
      PageSummary s = DecodeSummary(page.data() + f * kSummarySize);
      if (s.max_ts >= t1 && s.min_ts <= t2) {
        PDS_RETURN_IF_ERROR(touched_charge.Grow(sizeof(uint32_t)));
        touched.push_back(summary_index);
      } else if (stats != nullptr) {
        ++stats->pages_skipped;
      }
      ++summary_index;
    }
  }
  // Summaries still in the RAM buffer.
  for (size_t off = 0; off + kSummarySize <= summary_buffer_.size() &&
                       summary_index < sealed_pages;
       off += kSummarySize) {
    PageSummary s = DecodeSummary(summary_buffer_.data() + off);
    if (s.max_ts >= t1 && s.min_ts <= t2) {
      PDS_RETURN_IF_ERROR(touched_charge.Grow(sizeof(uint32_t)));
      touched.push_back(summary_index);
    } else if (stats != nullptr) {
      ++stats->pages_skipped;
    }
    ++summary_index;
  }

  // Phase 2: fetch the touched pages, emit matching points.
  for (uint32_t p : touched) {
    PDS_RETURN_IF_ERROR(data_log_.ViewPage(p, &page));
    if (stats != nullptr) {
      ++stats->data_pages;
    }
    for (size_t off = 0; off + kPointSize <= page.size();
         off += kPointSize) {
      Point point;
      point.timestamp = GetU64(page.data() + off);
      uint64_t bits = GetU64(page.data() + off + 8);
      std::memcpy(&point.value, &bits, 8);
      // Page tails padded with 0xFF decode as huge timestamps: out of
      // range by construction (timestamps are increasing).
      if (point.timestamp < t1) {
        continue;
      }
      if (point.timestamp > t2) {
        break;
      }
      PDS_RETURN_IF_ERROR(emit(point));
    }
  }

  // Phase 3: the open page in RAM.
  for (size_t off = 0; off + kPointSize <= open_page_.size();
       off += kPointSize) {
    Point point;
    point.timestamp = GetU64(open_page_.data() + off);
    uint64_t bits = GetU64(open_page_.data() + off + 8);
    std::memcpy(&point.value, &bits, 8);
    if (point.timestamp < t1) {
      continue;
    }
    if (point.timestamp > t2) {
      break;
    }
    PDS_RETURN_IF_ERROR(emit(point));
  }
  return Status::Ok();
}

Result<TimeSeriesStore::RangeAggregate> TimeSeriesStore::Aggregate(
    uint64_t t1, uint64_t t2, QueryStats* stats) {
  if (stats != nullptr) {
    *stats = QueryStats();
  }
  if (t1 > t2) {
    return Status::InvalidArgument("t1 > t2");
  }
  RangeAggregate agg;
  bool first = true;
  auto fold_point = [&](const Point& p) {
    if (first) {
      agg.min = p.value;
      agg.max = p.value;
      first = false;
    }
    agg.min = std::min(agg.min, p.value);
    agg.max = std::max(agg.max, p.value);
    agg.sum += p.value;
    ++agg.count;
  };
  auto fold_summary = [&](const PageSummary& s) {
    if (first) {
      agg.min = s.min_v;
      agg.max = s.max_v;
      first = false;
    }
    agg.min = std::min(agg.min, s.min_v);
    agg.max = std::max(agg.max, s.max_v);
    agg.sum += s.sum_v;
    agg.count += s.count;
  };

  // Walk summaries; fully-covered pages fold without touching data.
  std::vector<uint32_t> partial;
  uint32_t sealed_pages = data_log_.num_pages();
  uint32_t summary_index = 0;
  ByteView page;
  const size_t spp = summary_log_.page_size() / kSummarySize;
  auto consider = [&](const PageSummary& s, uint32_t data_page) {
    if (s.max_ts < t1 || s.min_ts > t2) {
      if (stats != nullptr) {
        ++stats->pages_skipped;
      }
      return;
    }
    if (s.min_ts >= t1 && s.max_ts <= t2) {
      fold_summary(s);
    } else {
      partial.push_back(data_page);
    }
  };
  for (uint32_t sp = 0;
       sp < summary_log_.num_pages() && summary_index < sealed_pages; ++sp) {
    PDS_RETURN_IF_ERROR(summary_log_.ViewPage(sp, &page));
    if (stats != nullptr) {
      ++stats->summary_pages;
    }
    for (size_t f = 0; f < spp && summary_index < sealed_pages; ++f) {
      consider(DecodeSummary(page.data() + f * kSummarySize), summary_index);
      ++summary_index;
    }
  }
  for (size_t off = 0; off + kSummarySize <= summary_buffer_.size() &&
                       summary_index < sealed_pages;
       off += kSummarySize) {
    consider(DecodeSummary(summary_buffer_.data() + off), summary_index);
    ++summary_index;
  }

  // Partial edge pages: fetch and fold point by point.
  for (uint32_t p : partial) {
    PDS_RETURN_IF_ERROR(data_log_.ViewPage(p, &page));
    if (stats != nullptr) {
      ++stats->data_pages;
    }
    for (size_t off = 0; off + kPointSize <= page.size();
         off += kPointSize) {
      Point point;
      point.timestamp = GetU64(page.data() + off);
      uint64_t bits = GetU64(page.data() + off + 8);
      std::memcpy(&point.value, &bits, 8);
      if (point.timestamp < t1) {
        continue;
      }
      if (point.timestamp > t2) {
        break;
      }
      fold_point(point);
    }
  }

  // The open page in RAM.
  for (size_t off = 0; off + kPointSize <= open_page_.size();
       off += kPointSize) {
    Point point;
    point.timestamp = GetU64(open_page_.data() + off);
    uint64_t bits = GetU64(open_page_.data() + off + 8);
    std::memcpy(&point.value, &bits, 8);
    if (point.timestamp >= t1 && point.timestamp <= t2) {
      fold_point(point);
    }
  }
  return agg;
}

}  // namespace pds::embdb

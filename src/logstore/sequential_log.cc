#include "logstore/sequential_log.h"

#include <algorithm>
#include <cstring>

namespace pds::logstore {

Result<uint32_t> SequentialLog::AppendPage(ByteView data) {
  if (head_ >= capacity_pages()) {
    return Status::ResourceExhausted("sequential log full");
  }
  PDS_RETURN_IF_ERROR(partition_.ProgramPage(head_, data));
  return head_++;
}

Status SequentialLog::ViewPage(uint32_t page, ByteView* out) {
  if (page >= head_) {
    return Status::OutOfRange("page beyond log head");
  }
  return partition_.ViewPage(page, out);
}

Status SequentialLog::Reset() {
  PDS_RETURN_IF_ERROR(partition_.EraseAll());
  head_ = 0;
  return Status::Ok();
}

Result<uint64_t> RecordLog::Append(ByteView record) {
  if (record.size() >= 0xFFFFFFFFULL) {
    return Status::InvalidArgument("record too large");
  }
  uint64_t address = size_bytes_;

  Bytes framed;
  framed.reserve(4 + record.size());
  PutU32(&framed, static_cast<uint32_t>(record.size()));
  framed.insert(framed.end(), record.data(), record.data() + record.size());

  size_t pos = 0;
  const uint32_t ps = page_size();
  while (pos < framed.size()) {
    size_t room = ps - tail_.size();
    size_t take = std::min(room, framed.size() - pos);
    tail_.insert(tail_.end(), framed.begin() + pos, framed.begin() + pos + take);
    pos += take;
    if (tail_.size() == ps) {
      PDS_ASSIGN_OR_RETURN(uint32_t page, log_.AppendPage(ByteView(tail_)));
      (void)page;
      tail_.clear();
    }
  }
  size_bytes_ += framed.size();
  ++num_records_;
  return address;
}

uint32_t RecordLog::num_pages_used() const {
  return log_.num_pages() + (tail_.empty() ? 0 : 1);
}

Status RecordLog::ReadSpan(uint64_t offset, size_t len, uint8_t* out) {
  if (offset + len > size_bytes_) {
    return Status::OutOfRange("read beyond record log");
  }
  const uint32_t ps = page_size();
  uint64_t flushed_bytes = static_cast<uint64_t>(log_.num_pages()) * ps;
  size_t done = 0;
  ByteView page;
  while (done < len) {
    uint64_t cur = offset + done;
    if (cur >= flushed_bytes) {
      // In the RAM tail.
      size_t tail_off = static_cast<size_t>(cur - flushed_bytes);
      size_t take = std::min(len - done, tail_.size() - tail_off);
      std::memcpy(out + done, tail_.data() + tail_off, take);
      done += take;
    } else {
      uint32_t page_index = static_cast<uint32_t>(cur / ps);
      uint32_t in_page = static_cast<uint32_t>(cur % ps);
      PDS_RETURN_IF_ERROR(log_.ViewPage(page_index, &page));
      size_t take = std::min<size_t>(len - done, ps - in_page);
      std::memcpy(out + done, page.data() + in_page, take);
      done += take;
    }
  }
  return Status::Ok();
}

Status RecordLog::ReadAt(uint64_t offset, Bytes* record) {
  if (offset + 4 > size_bytes_) {
    return Status::OutOfRange("read beyond record log");
  }
  const uint32_t ps = page_size();
  uint64_t flushed_bytes = static_cast<uint64_t>(log_.num_pages()) * ps;
  uint32_t in_page = static_cast<uint32_t>(offset % ps);

  // Fast path: length prefix and record on a single flushed page — one IO.
  if (offset + 4 <= flushed_bytes && in_page + 4 <= ps) {
    ByteView page;
    PDS_RETURN_IF_ERROR(
        log_.ViewPage(static_cast<uint32_t>(offset / ps), &page));
    const uint8_t* prefix = page.data() + in_page;
    uint32_t len = GetU32(prefix);
    if (offset + 4 + len > size_bytes_) {
      return Status::Corruption("record length beyond log end");
    }
    if (in_page + 4 + len <= ps) {
      record->assign(prefix + 4, prefix + 4 + len);
      return Status::Ok();
    }
    // Record spans pages: copy the prefix we already have, span the rest.
    record->resize(len);
    size_t head = ps - (in_page + 4);
    std::memcpy(record->data(), prefix + 4, head);
    return ReadSpan(offset + 4 + head, len - head, record->data() + head);
  }

  uint8_t len_buf[4];
  PDS_RETURN_IF_ERROR(ReadSpan(offset, 4, len_buf));
  uint32_t len = GetU32(len_buf);
  if (offset + 4 + len > size_bytes_) {
    return Status::Corruption("record length beyond log end");
  }
  record->resize(len);
  return ReadSpan(offset + 4, len, record->data());
}

Status RecordLog::Reader::FetchSpan(uint64_t offset, size_t len,
                                    uint8_t* out) {
  const uint32_t ps = log_->page_size();
  uint64_t flushed_bytes =
      static_cast<uint64_t>(log_->log_.num_pages()) * ps;
  size_t done = 0;
  while (done < len) {
    uint64_t cur = offset + done;
    if (cur >= flushed_bytes) {
      size_t tail_off = static_cast<size_t>(cur - flushed_bytes);
      size_t take = std::min(len - done, log_->tail_.size() - tail_off);
      std::memcpy(out + done, log_->tail_.data() + tail_off, take);
      done += take;
    } else {
      int64_t page_index = static_cast<int64_t>(cur / ps);
      uint32_t in_page = static_cast<uint32_t>(cur % ps);
      if (page_index != cached_page_index_) {
        PDS_RETURN_IF_ERROR(log_->log_.ViewPage(
            static_cast<uint32_t>(page_index), &cached_page_));
        cached_page_index_ = page_index;
      }
      size_t take = std::min<size_t>(len - done, ps - in_page);
      std::memcpy(out + done, cached_page_.data() + in_page, take);
      done += take;
    }
  }
  return Status::Ok();
}

Status RecordLog::Reader::Next(Bytes* record) {
  if (AtEnd()) {
    return Status::OutOfRange("end of record log");
  }
  uint8_t len_buf[4];
  PDS_RETURN_IF_ERROR(FetchSpan(offset_, 4, len_buf));
  uint32_t len = GetU32(len_buf);
  if (offset_ + 4 + len > log_->size_bytes_) {
    return Status::Corruption("record length beyond log end");
  }
  record->resize(len);
  PDS_RETURN_IF_ERROR(FetchSpan(offset_ + 4, len, record->data()));
  offset_ += 4 + len;
  return Status::Ok();
}

Status RecordLog::Reset() {
  PDS_RETURN_IF_ERROR(log_.Reset());
  tail_.clear();
  size_bytes_ = 0;
  num_records_ = 0;
  return Status::Ok();
}

}  // namespace pds::logstore

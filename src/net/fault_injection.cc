#include "net/fault_injection.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>

namespace pds::net {

namespace {

/// Sleep applied by a realized delay fault.
constexpr uint32_t kDelayMs = 10;

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kDelay:
      return "delay";
    case FaultKind::kDuplicate:
      return "duplicate";
    case FaultKind::kReorder:
      return "reorder";
    case FaultKind::kTruncate:
      return "truncate";
    case FaultKind::kBitFlip:
      return "bitflip";
    case FaultKind::kChurn:
      return "churn";
  }
  return "unknown";
}

void InjectionLog::Add(Injection injection) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.push_back(std::move(injection));
}

size_t InjectionLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

uint64_t InjectionLog::Count(FaultKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const Injection& e : entries_) {
    if (e.kind == kind) ++n;
  }
  return n;
}

std::vector<Injection> InjectionLog::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

std::string InjectionLog::ToString() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(entries_.size() * 48);  // bounds the growth below up-front
  for (const Injection& e : entries_) {
    char line[64];
    std::snprintf(line, sizeof(line), "[%s #%llu] %s", e.direction,
                  static_cast<unsigned long long>(e.frame_index),
                  FaultKindName(e.kind));
    out += line;
    if (!e.detail.empty()) {
      out += ": ";
      out += e.detail;
    }
    out += '\n';
  }
  return out;
}

void InjectionLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

FaultInjectingTransport::FaultInjectingTransport(
    std::unique_ptr<Transport> inner, FaultPlan plan, InjectionLog* log,
    Clock* clock)
    : inner_(std::move(inner)),
      plan_(plan),
      log_(log),
      clock_(clock != nullptr ? clock : WallClock()),
      rng_(plan.seed) {}

bool FaultInjectingTransport::BudgetLeft() const {
  return plan_.max_injections == 0 || injections_ < plan_.max_injections;
}

void FaultInjectingTransport::Log(uint64_t index, FaultKind kind,
                                  const char* direction, std::string detail) {
  ++injections_;
  if (log_ != nullptr) {
    log_->Add(Injection{index, kind, direction, std::move(detail)});
  }
}

FaultInjectingTransport::Verdict FaultInjectingTransport::MutateFrame(
    Bytes* frame, uint64_t index, const char* direction, bool* duplicate) {
  *duplicate = false;
  // Fixed draw order per frame so a given seed realizes the same injection
  // sequence regardless of which rates a scenario enables.
  bool drop = rng_.Bernoulli(plan_.drop_rate);
  bool delay = rng_.Bernoulli(plan_.delay_rate);
  bool dup = rng_.Bernoulli(plan_.duplicate_rate);
  bool reorder = rng_.Bernoulli(plan_.reorder_rate);
  bool truncate = rng_.Bernoulli(plan_.truncate_rate);
  bool bitflip = rng_.Bernoulli(plan_.bitflip_rate);

  if (drop && BudgetLeft()) {
    Log(index, FaultKind::kDrop, direction, "");
    return Verdict::kDrop;
  }
  if (delay && BudgetLeft()) {
    char d[48];
    std::snprintf(d, sizeof(d), "held %u ms",
                  static_cast<unsigned>(kDelayMs));
    Log(index, FaultKind::kDelay, direction, d);
    clock_->SleepMs(kDelayMs);
  }
  if (truncate && BudgetLeft() && frame->size() > 1) {
    size_t cut = 1 + static_cast<size_t>(rng_.Uniform(
                         std::min<uint64_t>(7, frame->size() - 1)));
    char d[48];
    std::snprintf(d, sizeof(d), "removed %zu tail bytes", cut);
    Log(index, FaultKind::kTruncate, direction, d);
    frame->resize(frame->size() - cut);
  }
  if (bitflip && BudgetLeft() && !frame->empty()) {
    size_t byte = static_cast<size_t>(rng_.Uniform(frame->size()));
    unsigned bit = static_cast<unsigned>(rng_.Uniform(8));
    (*frame)[byte] = static_cast<uint8_t>((*frame)[byte] ^ (1u << bit));
    char d[48];
    std::snprintf(d, sizeof(d), "flipped bit %u of byte %zu", bit, byte);
    Log(index, FaultKind::kBitFlip, direction, d);
  }
  if (reorder && BudgetLeft()) {
    Log(index, FaultKind::kReorder, direction, "held until next frame");
    return Verdict::kHold;
  }
  // The caller realizes the duplicate (logs it, spends budget) only when
  // its copy goes out.
  *duplicate = dup && BudgetLeft();
  return Verdict::kForward;
}

Status FaultInjectingTransport::Send(ByteView frame) {
  const uint64_t index = send_index_++;
  if (!plan_.has_faults() || index < plan_.skip_first) {
    return inner_->Send(frame);
  }
  Bytes mutated = frame.ToBytes();
  bool duplicate = false;
  Verdict verdict = MutateFrame(&mutated, index, "send", &duplicate);
  if (verdict == Verdict::kHold) {
    if (has_held_send_) {
      // Two holds in a row: release the older one first to bound memory.
      PDS_RETURN_IF_ERROR(inner_->Send(held_send_));
    }
    held_send_ = std::move(mutated);
    has_held_send_ = true;
    return Status::Ok();
  }
  if (verdict == Verdict::kDrop) {
    // The caller sees success — that is the whole point of a lossy link.
    return Status::Ok();
  }
  PDS_RETURN_IF_ERROR(inner_->Send(mutated));
  if (duplicate) {
    PDS_RETURN_IF_ERROR(inner_->Send(mutated));
    Log(index, FaultKind::kDuplicate, "send", "");
  }
  if (has_held_send_) {
    Bytes held = std::move(held_send_);
    has_held_send_ = false;
    return inner_->Send(held);
  }
  return Status::Ok();
}

Result<Bytes> FaultInjectingTransport::Recv(uint32_t deadline_ms) {
  Result<Bytes> got = RecvFrame(deadline_ms);
  if (got.ok() && plan_.disconnect_after_replies > 0 &&
      send_index_ >= plan_.skip_first &&
      ++replies_ == plan_.disconnect_after_replies) {
    Log(recv_index_ - 1, FaultKind::kChurn, "recv",
        "closed after " + std::to_string(replies_) + " replies");
    Close();
  }
  return got;
}

Result<Bytes> FaultInjectingTransport::RecvFrame(uint32_t deadline_ms) {
  if (!plan_.has_faults()) {
    return inner_->Recv(deadline_ms);
  }
  if (held_recv_due_) {
    return ReleaseHeldRecv();
  }
  for (;;) {
    Result<Bytes> got = inner_->Recv(deadline_ms);
    if (!got.ok()) {
      // Peer gone or deadline: flush a held frame if we have one so a
      // reordered frame is not lost forever.
      if (has_held_recv_) {
        return ReleaseHeldRecv();
      }
      return got;
    }
    uint64_t index = recv_index_++;
    Bytes frame = std::move(got.value());
    if (send_index_ < plan_.skip_first) {
      return frame;
    }
    bool duplicate = false;
    Verdict verdict = MutateFrame(&frame, index, "recv", &duplicate);
    if (verdict == Verdict::kDrop) continue;  // wait for the next frame
    if (verdict == Verdict::kHold) {
      if (!has_held_recv_) {
        held_recv_ = std::move(frame);
        has_held_recv_ = true;
        continue;
      }
      // Two holds in a row: release the older one first to bound memory.
      std::swap(frame, held_recv_);
    } else if (has_held_recv_) {
      // This frame overtakes the held one, which goes out on the next Recv.
      // The cell is taken, so a duplicate drawn for this frame gets no copy.
      held_recv_due_ = true;
    } else if (duplicate) {
      // The copy goes out on the next Recv.
      held_recv_ = frame;
      has_held_recv_ = true;
      held_recv_due_ = true;
      Log(index, FaultKind::kDuplicate, "recv", "");
    }
    return frame;
  }
}

Bytes FaultInjectingTransport::ReleaseHeldRecv() {
  has_held_recv_ = false;
  held_recv_due_ = false;
  return std::move(held_recv_);
}

void FaultInjectingTransport::Close() {
  // Flush any held frame so a peer blocked on it can make progress before
  // seeing the close.
  if (has_held_send_) {
    has_held_send_ = false;
    (void)inner_->Send(held_send_);
  }
  inner_->Close();
}

bool FaultInjectingTransport::closed() const { return inner_->closed(); }

}  // namespace pds::net

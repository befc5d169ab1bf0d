#include "global/common.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace pds::global {

Bytes EncodeAggPayload(bool fake, double sum, uint64_t count,
                       const std::string& group) {
  Bytes out;
  out.reserve(17 + group.size());
  out.push_back(fake ? 1 : 0);
  uint64_t bits;
  std::memcpy(&bits, &sum, 8);
  PutU64(&out, bits);
  PutU64(&out, count);
  out.insert(out.end(), group.begin(), group.end());
  return out;
}

Result<AggPayload> DecodeAggPayload(ByteView in) {
  if (in.size() < 17) {
    return Status::Corruption("agg payload too short");
  }
  AggPayload p;
  p.fake = in[0] != 0;
  uint64_t bits = GetU64(in.data() + 1);
  std::memcpy(&p.sum, &bits, 8);
  p.count = GetU64(in.data() + 9);
  p.group = in.subview(17, in.size() - 17).ToString();
  return p;
}

double LeakageReport::MaxClassFraction() const {
  if (tuples_observed == 0 || class_sizes.empty()) {
    return 0.0;
  }
  uint64_t max = 0;
  for (uint64_t s : class_sizes) {
    max = std::max(max, s);
  }
  return static_cast<double>(max) / static_cast<double>(tuples_observed);
}

double LeakageReport::ClassEntropyBits() const {
  if (tuples_observed == 0) {
    return 0.0;
  }
  double h = 0.0;
  for (uint64_t s : class_sizes) {
    if (s == 0) {
      continue;
    }
    double p = static_cast<double>(s) / static_cast<double>(tuples_observed);
    h -= p * std::log2(p);
  }
  return h;
}

std::map<std::string, double> FinalizeGroups(
    const std::map<std::string, GroupState>& states, AggFunc func) {
  std::map<std::string, double> out;
  for (const auto& [group, s] : states) {
    if (s.count == 0) {
      continue;
    }
    switch (func) {
      case AggFunc::kSum:
        out[group] = s.sum;
        break;
      case AggFunc::kCount:
        out[group] = static_cast<double>(s.count);
        break;
      case AggFunc::kAvg:
        out[group] = s.sum / static_cast<double>(s.count);
        break;
    }
  }
  return out;
}

std::map<std::string, double> PlainAggregate(
    const std::vector<Participant>& participants, AggFunc func) {
  std::map<std::string, double> sums;
  std::map<std::string, uint64_t> counts;
  for (const Participant& p : participants) {
    for (const SourceTuple& t : p.tuples) {
      sums[t.group] += t.value;
      ++counts[t.group];
    }
  }
  std::map<std::string, double> out;
  for (auto& [group, sum] : sums) {
    switch (func) {
      case AggFunc::kSum:
        out[group] = sum;
        break;
      case AggFunc::kCount:
        out[group] = static_cast<double>(counts[group]);
        break;
      case AggFunc::kAvg:
        out[group] = sum / static_cast<double>(counts[group]);
        break;
    }
  }
  return out;
}

}  // namespace pds::global

#include "support/fault.hpp"

#include <charconv>
#include <chrono>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <system_error>
#include <thread>

namespace psa::support {

std::vector<std::string> fault_kind_names(FaultSite site) {
  std::vector<std::string> names;
  for (const FaultKindRow& row : kFaultKinds) {
    if (row.site == site) names.emplace_back(row.name);
  }
  return names;
}

FaultPlan FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  while (!spec.empty()) {
    const std::size_t comma = spec.find(',');
    const std::string_view entry = spec.substr(0, comma);
    spec = comma == std::string_view::npos ? std::string_view{}
                                           : spec.substr(comma + 1);
    const std::size_t colon = entry.rfind(':');
    if (colon == std::string_view::npos || colon == 0) continue;
    const std::string_view target = entry.substr(0, colon);
    Entry parsed{Target::kUnit, std::string(target), 0, FaultKind::kNone};
    if (target.front() == '#') {
      parsed.target = Target::kOpNumber;
      const char* end = target.data() + target.size();
      const auto [stop, error] =
          std::from_chars(target.data() + 1, end, parsed.op);
      if (error != std::errc{} || stop != end || parsed.op == 0) continue;
    } else if (target.front() == '@') {
      parsed.target = Target::kPathSubstr;
      parsed.key.erase(0, 1);
      if (parsed.key.empty()) continue;
    }
    const bool op_target = parsed.target != Target::kUnit;
    for (const FaultKindRow& row : kFaultKinds) {
      if (row.name == entry.substr(colon + 1) &&
          (row.site == FaultSite::kDurableOp) == op_target) {
        parsed.kind = row.kind;
        plan.entries_.push_back(std::move(parsed));
        break;
      }
    }
  }
  return plan;
}

FaultPlan FaultPlan::from_env() {
  const char* spec = std::getenv("PSA_FAULT_AT");
  return spec == nullptr ? FaultPlan{} : parse(spec);
}

FaultKind FaultPlan::for_unit(std::string_view unit_name) const {
  for (const Entry& entry : entries_) {
    if (entry.target == Target::kUnit && entry.key == unit_name) {
      return entry.kind;
    }
  }
  return FaultKind::kNone;
}

FaultKind FaultPlan::for_op(std::uint64_t op, std::string_view path) const {
  for (const Entry& entry : entries_) {
    if ((entry.target == Target::kOpNumber && entry.op == op) ||
        (entry.target == Target::kPathSubstr &&
         path.find(entry.key) != std::string_view::npos)) {
      return entry.kind;
    }
  }
  return FaultKind::kNone;
}

void inject_fault(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      std::abort();
    case FaultKind::kSegv: {
      volatile int* p = nullptr;
      *p = 42;  // NOLINT: the point is the invalid write
      return;   // unreachable
    }
    case FaultKind::kHang:
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
    case FaultKind::kOom:
      throw std::bad_alloc();
    case FaultKind::kThrow:
      throw std::runtime_error("injected fault: throw");
    default:
      return;  // kNone, or a kind that fires at its own fault point
  }
}

}  // namespace psa::support

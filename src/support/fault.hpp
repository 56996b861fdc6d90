// Deliberate fault injection: one plan, one grammar, one environment
// variable (docs/RESILIENCE.md, "Fault injection").
//
//   PSA_FAULT_AT=<target>:<kind>[,<target>:<kind>...]
//
// A target is an analysis unit name (split at the LAST colon, so unit names
// may contain colons), `#<n>` (the n-th durable op of the process tree,
// support/io.hpp, fired exactly once) or `@<substr>` (every durable op whose
// path contains <substr>). Each kind fires at the site its kFaultKinds row
// names; unit targets reach every site but the durable-op one, op targets
// only that one. An entry with no colon, an unknown kind, or a kind outside
// its target's site is dropped: a typo in a test knob arms nothing and
// never fails a batch.
//
//   unit start   crash (std::abort), segv (null write), hang (sleep
//                forever), oom (throw std::bad_alloc), throw (throw
//                std::runtime_error). Honored ONLY inside a sandboxed
//                worker, so a stray plan costs at most one unit.
//   cache store  cacheflip: the store completes, then one bit of the entry
//                is flipped on disk; the PSASNAP1 checksum must catch it.
//   cache lookup evictrace: the entry vanishes between the decision to read
//                and the read; a clean miss, never torn bytes.
//   daemon       sockdrop: the handler hangs up without replying.
//                streamtear: the handler sends half a result frame and
//                hangs up (docs/SERVICE.md).
//   durable op   enospc (fails before any byte lands), eio (the fsync
//                fails; nothing is published), shortwrite (half the bytes
//                land), tornrename (durable tmp, no rename), crash (the op
//                completes, then _Exit(io::kCrashExitCode)).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace psa::support {

enum class FaultKind : std::uint8_t {
  kNone = 0,
  kCrash,
  kSegv,
  kHang,
  kOom,
  kThrow,
  kCacheFlip,
  kEvictRace,
  kSockDrop,
  kStreamTear,
  kEnospc,
  kEio,
  kShortWrite,
  kTornRename,
};

enum class FaultSite : std::uint8_t {
  kUnitStart,
  kCacheStore,
  kCacheLookup,
  kDaemon,
  kDurableOp,
};

struct FaultKindRow {
  FaultKind kind;
  std::string_view name;
  FaultSite site;
};

/// The kind vocabulary. `crash` has a row at two sites. The durable-op rows
/// are in the order the fault campaign sweeps them.
inline constexpr FaultKindRow kFaultKinds[] = {
    {FaultKind::kCrash, "crash", FaultSite::kUnitStart},
    {FaultKind::kSegv, "segv", FaultSite::kUnitStart},
    {FaultKind::kHang, "hang", FaultSite::kUnitStart},
    {FaultKind::kOom, "oom", FaultSite::kUnitStart},
    {FaultKind::kThrow, "throw", FaultSite::kUnitStart},
    {FaultKind::kCacheFlip, "cacheflip", FaultSite::kCacheStore},
    {FaultKind::kEvictRace, "evictrace", FaultSite::kCacheLookup},
    {FaultKind::kSockDrop, "sockdrop", FaultSite::kDaemon},
    {FaultKind::kStreamTear, "streamtear", FaultSite::kDaemon},
    {FaultKind::kEnospc, "enospc", FaultSite::kDurableOp},
    {FaultKind::kEio, "eio", FaultSite::kDurableOp},
    {FaultKind::kShortWrite, "shortwrite", FaultSite::kDurableOp},
    {FaultKind::kTornRename, "tornrename", FaultSite::kDurableOp},
    {FaultKind::kCrash, "crash", FaultSite::kDurableOp},
};

/// Names of the kinds that fire at `site`, in table order.
[[nodiscard]] std::vector<std::string> fault_kind_names(FaultSite site);

/// The parsed PSA_FAULT_AT plan: which unit or durable op gets which fault.
class FaultPlan {
 public:
  [[nodiscard]] static FaultPlan parse(std::string_view spec);

  /// Plan from PSA_FAULT_AT; one getenv and an empty plan when unset.
  [[nodiscard]] static FaultPlan from_env();

  /// First entry matching the unit, or kNone.
  [[nodiscard]] FaultKind for_unit(std::string_view unit_name) const;

  /// First entry matching durable op number `op` on `path`, or kNone.
  [[nodiscard]] FaultKind for_op(std::uint64_t op,
                                 std::string_view path) const;

  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

 private:
  enum class Target : std::uint8_t { kUnit, kOpNumber, kPathSubstr };
  struct Entry {
    Target target;
    std::string key;  // unit name or path substring
    std::uint64_t op;
    FaultKind kind;
  };
  std::vector<Entry> entries_;
};

/// Fire a unit-start `kind` at the call site: kOom and kThrow raise; kCrash,
/// kSegv and kHang never return. Every other kind (kNone included) is a
/// no-op here, because it fires at its own site.
void inject_fault(FaultKind kind);

}  // namespace psa::support

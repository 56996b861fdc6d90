// Spans recorded by the benchmark around its calls into the analyzer's
// layers. Each span carries a name (the layer call), start/end on the
// monotonic clock (comparable across forked processes), its parent span and
// the unit or request it belongs to, plus counter deltas taken at the same
// boundaries. Spans live in memory; forked workers hand theirs back through
// one file per unit, written when the unit ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/metrics.hpp"

namespace psabench {

/// CLOCK_MONOTONIC nanoseconds: one timeline for the benchmark and every
/// process it forks.
[[nodiscard]] std::int64_t now_ns();

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: no recorded parent
  std::string name;
  std::string owner;  // unit name or request id
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Counter deltas and benchmark-side counts measured at this span.
  std::vector<std::pair<std::string, std::uint64_t>> counts;

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
  [[nodiscard]] std::uint64_t count(std::string_view key) const;
};

class Tracer {
 public:
  /// Opens a span as a child of the innermost open span.
  std::uint64_t begin(std::string_view name, std::string_view owner);
  /// Closes span `id` (must be the innermost open one).
  void end(std::uint64_t id);
  /// Adds a count to the innermost open span.
  void add(std::string_view key, std::uint64_t value);
  /// Adds every non-zero, non-timer counter of `delta` to the innermost open
  /// span, keyed by the registry's counter name.
  void add_counters(const psa::support::MetricsSnapshot& delta);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  std::vector<Span>& spans() { return spans_; }
  void append(std::vector<Span> more);

  /// One line per span; parse_spans() is the inverse.
  [[nodiscard]] std::string serialize() const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  // indices into spans_
  std::uint64_t next_seq_ = 1;
};

[[nodiscard]] std::vector<Span> parse_spans(std::string_view text);

/// RAII span with a counter region over the same interval.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name, std::string_view owner);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void add(std::string_view key, std::uint64_t value);

 private:
  Tracer* tracer_;
  std::uint64_t id_ = 0;
  psa::support::MetricsRegion region_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals. Keyed by span id.
[[nodiscard]] std::map<std::uint64_t, std::int64_t> self_times(
    const std::vector<Span>& spans);

}  // namespace psabench

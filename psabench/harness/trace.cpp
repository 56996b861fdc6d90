#include "trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <ctime>
#include <sstream>

namespace psabench {

std::int64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::uint64_t Span::count(std::string_view key) const {
  std::uint64_t total = 0;
  for (const auto& [k, v] : counts) {
    if (k == key) total += v;
  }
  return total;
}

std::uint64_t Tracer::begin(std::string_view name, std::string_view owner) {
  Span span;
  // Ids stay unique across the forked workers whose spans are merged.
  span.id = (static_cast<std::uint64_t>(::getpid()) << 32) | next_seq_++;
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.name = std::string(name);
  span.owner = std::string(owner);
  span.start_ns = now_ns();
  open_.push_back(spans_.size());
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::end(std::uint64_t id) {
  if (open_.empty() || spans_[open_.back()].id != id) return;
  spans_[open_.back()].end_ns = now_ns();
  open_.pop_back();
}

void Tracer::add(std::string_view key, std::uint64_t value) {
  if (open_.empty()) return;
  spans_[open_.back()].counts.emplace_back(std::string(key), value);
}

void Tracer::add_counters(const psa::support::MetricsSnapshot& delta) {
  for (std::size_t i = 0; i < psa::support::kCounterCount; ++i) {
    const auto c = static_cast<psa::support::Counter>(i);
    if (psa::support::is_timer(c) || delta.values[i] == 0) continue;
    add(psa::support::counter_name(c), delta.values[i]);
  }
}

void Tracer::append(std::vector<Span> more) {
  for (Span& s : more) spans_.push_back(std::move(s));
}

std::string Tracer::serialize() const {
  std::ostringstream out;
  for (const Span& s : spans_) {
    out << s.id << ' ' << s.parent << ' ' << s.start_ns << ' ' << s.end_ns
        << ' ' << s.name << ' ' << s.owner;
    for (const auto& [k, v] : s.counts) out << ' ' << k << '=' << v;
    out << '\n';
  }
  return out.str();
}

std::vector<Span> parse_spans(std::string_view text) {
  std::vector<Span> spans;
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    Span s;
    if (!(fields >> s.id >> s.parent >> s.start_ns >> s.end_ns >> s.name >>
          s.owner)) {
      continue;
    }
    std::string kv;
    while (fields >> kv) {
      const auto eq = kv.find('=');
      if (eq == std::string::npos) continue;
      s.counts.emplace_back(kv.substr(0, eq),
                            std::stoull(kv.substr(eq + 1)));
    }
    spans.push_back(std::move(s));
  }
  return spans;
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string_view name,
                       std::string_view owner)
    : tracer_(tracer) {
  if (tracer_ != nullptr) id_ = tracer_->begin(name, owner);
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  tracer_->add_counters(region_.delta());
  tracer_->end(id_);
}

void ScopedSpan::add(std::string_view key, std::uint64_t value) {
  if (tracer_ != nullptr) tracer_->add(key, value);
}

std::map<std::uint64_t, std::int64_t> self_times(
    const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::uint64_t, std::int64_t> out;
  for (const Span& s : spans) {
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = 0;
      std::int64_t cur_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    out[s.id] = s.duration_ns() - covered;
  }
  return out;
}

}  // namespace psabench

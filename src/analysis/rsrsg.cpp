#include "analysis/rsrsg.hpp"

#include <algorithm>
#include <sstream>

#include "support/metrics.hpp"

namespace psa::analysis {

bool Rsrsg::insert(Rsg g, const LevelPolicy& policy, bool enable_join) {
  const std::uint64_t fp = rsg::fingerprint(g);
  return insert_with_fp(std::move(g), fp, policy, enable_join);
}

const std::vector<rsg::NodeCompatContext>& Rsrsg::member_contexts(
    std::size_t i) const {
  if (contexts_[i] == nullptr) {
    contexts_[i] = std::make_shared<const std::vector<rsg::NodeCompatContext>>(
        rsg::compute_compat_contexts(graphs_[i]));
  }
  return *contexts_[i];
}

bool Rsrsg::insert_with_fp(Rsg g, std::uint64_t fp, const LevelPolicy& policy,
                           bool enable_join) {
  if (widened_) {
    // Widened mode: coarsen the incoming graph and fold it monotonically
    // into its ALIAS-matching member.
    rsg::coarsen(g, policy);
    fp = rsg::fingerprint(g);
    for (std::size_t i = 0; i < graphs_.size(); ++i) {
      if (fingerprints_[i] == fp && rsg::rsg_equal(graphs_[i], g))
        return false;
    }
    for (std::size_t i = 0; i < graphs_.size(); ++i) {
      if (!rsg::alias_equal(graphs_[i], g)) continue;
      Rsg folded = rsg::force_join(graphs_[i], g, policy);
      rsg::coarsen(folded, policy);
      const std::uint64_t folded_fp = rsg::fingerprint(folded);
      if (folded_fp == fingerprints_[i] && rsg::rsg_equal(folded, graphs_[i]))
        return false;  // absorbed, nothing new
      graphs_[i] = std::move(folded);
      fingerprints_[i] = folded_fp;
      contexts_[i] = nullptr;
      return true;
    }
    graphs_.push_back(std::move(g));
    fingerprints_.push_back(fp);
    contexts_.push_back(nullptr);
    return true;
  }

  // Exact duplicate?
  for (std::size_t i = 0; i < graphs_.size(); ++i) {
    if (fingerprints_[i] == fp && rsg::rsg_equal(graphs_[i], g)) return false;
  }

  if (enable_join) {
    // Fuse into the first compatible member; the join may enable further
    // fusions, so re-insert the result. Candidate contexts are computed once
    // and member contexts cached across inserts.
    std::shared_ptr<const std::vector<rsg::NodeCompatContext>> g_ctx;
    for (std::size_t i = 0; i < graphs_.size(); ++i) {
      PSA_COUNT(support::Counter::kJoinAttempts);
      if (!rsg::alias_equal(graphs_[i], g)) {  // cheap pre-filter
        PSA_COUNT(support::Counter::kJoinRejectedAlias);
        continue;
      }
      if (g_ctx == nullptr) {
        g_ctx = std::make_shared<const std::vector<rsg::NodeCompatContext>>(
            rsg::compute_compat_contexts(g));
      }
      if (!rsg::compatible_with_contexts(graphs_[i], member_contexts(i), g,
                                         *g_ctx, policy)) {
        PSA_COUNT(support::Counter::kJoinRejectedCompat);
      } else {
        PSA_COUNT(support::Counter::kJoinAccepts);
        Rsg joined = rsg::join(graphs_[i], g, policy);
        graphs_.erase(graphs_.begin() + static_cast<std::ptrdiff_t>(i));
        fingerprints_.erase(fingerprints_.begin() +
                            static_cast<std::ptrdiff_t>(i));
        contexts_.erase(contexts_.begin() + static_cast<std::ptrdiff_t>(i));
        insert(std::move(joined), policy, enable_join);
        return true;  // the set changed even if the join was absorbing
      }
    }
  }

  graphs_.push_back(std::move(g));
  fingerprints_.push_back(fp);
  contexts_.push_back(nullptr);
  return true;
}

bool Rsrsg::merge(const Rsrsg& other, const LevelPolicy& policy,
                  bool enable_join) {
  bool changed = false;
  for (std::size_t i = 0; i < other.graphs_.size(); ++i) {
    // Reuse the cached fingerprint: the common case in the engine's input
    // accumulation is a duplicate, decided by u64 comparisons only.
    changed |= insert_with_fp(other.graphs_[i], other.fingerprints_[i], policy,
                              enable_join);
  }
  return changed;
}

bool Rsrsg::widen(const LevelPolicy& policy, std::size_t max_graphs) {
  if (widened_ && graphs_.size() <= max_graphs) return false;
  return degrade_members(policy, nullptr);
}

bool Rsrsg::degrade_members(const LevelPolicy& policy,
                            const std::function<void(Rsg&)>& transform) {
  const bool was_widened = widened_;
  widened_ = true;
  // Re-insert every member through the widened-mode path: coarsen, then fold
  // ALIAS-equal members together. The result has at most one member per
  // ALIAS relation.
  std::vector<Rsg> members;
  members.swap(graphs_);
  std::vector<std::uint64_t> old_fps;
  old_fps.swap(fingerprints_);
  contexts_.clear();
  for (Rsg& g : members) {
    if (transform) transform(g);
    insert(std::move(g), policy, /*enable_join=*/true);
  }
  // A widened set may *legitimately* exceed max_graphs (one member per
  // ALIAS pattern is the floor), so "still too big" is not "changed".
  // Report change only when folding actually moved something — otherwise a
  // caller re-widening an over-threshold set on every visit would requeue
  // its successors forever.
  if (!was_widened || graphs_.size() != old_fps.size()) return true;
  // Same cardinality: changed iff some member's fingerprint moved. (Order-
  // sensitive and thus conservative — a spurious `true` only requeues the
  // successors once more.)
  for (std::size_t i = 0; i < old_fps.size(); ++i) {
    if (fingerprints_[i] != old_fps[i]) return true;
  }
  return false;
}

Rsrsg Rsrsg::restore(std::vector<Rsg> graphs, bool widened) {
  Rsrsg set;
  set.widened_ = widened;
  set.graphs_ = std::move(graphs);
  set.fingerprints_.reserve(set.graphs_.size());
  for (const Rsg& g : set.graphs_) {
    set.fingerprints_.push_back(rsg::fingerprint(g));
  }
  set.contexts_.assign(set.graphs_.size(), nullptr);
  return set;
}

std::size_t Rsrsg::footprint_bytes() const {
  std::size_t bytes = 0;
  for (const Rsg& g : graphs_) bytes += g.footprint_bytes();
  return bytes;
}

std::size_t Rsrsg::total_nodes() const {
  std::size_t n = 0;
  for (const Rsg& g : graphs_) n += g.node_count();
  return n;
}

bool Rsrsg::equals(const Rsrsg& other) const {
  if (graphs_.size() != other.graphs_.size()) return false;
  // Multiset match: each member must pair with a distinct isomorphic member.
  std::vector<bool> used(other.graphs_.size(), false);
  for (std::size_t i = 0; i < graphs_.size(); ++i) {
    bool matched = false;
    for (std::size_t j = 0; j < other.graphs_.size(); ++j) {
      if (used[j] || fingerprints_[i] != other.fingerprints_[j]) continue;
      if (rsg::rsg_equal(graphs_[i], other.graphs_[j])) {
        used[j] = true;
        matched = true;
        break;
      }
    }
    if (!matched) return false;
  }
  return true;
}

std::string Rsrsg::dump(const support::Interner& interner) const {
  std::ostringstream os;
  os << "RSRSG with " << graphs_.size() << " graph(s)\n";
  for (std::size_t i = 0; i < graphs_.size(); ++i) {
    os << "--- rsg " << i << " ---\n" << graphs_[i].dump(interner);
  }
  return os.str();
}

}  // namespace psa::analysis

#include "analysis/engine.hpp"

#include <algorithm>
#include <deque>
#include <set>
#include <unordered_map>

#include "support/metrics.hpp"
#include "support/timer.hpp"

namespace psa::analysis {

std::string_view to_string(AnalysisStatus status) {
  switch (status) {
    case AnalysisStatus::kConverged: return "converged";
    case AnalysisStatus::kOutOfMemory: return "out of memory budget";
    case AnalysisStatus::kIterationLimit: return "iteration limit";
    case AnalysisStatus::kSetLimit: return "RSRSG size limit";
    case AnalysisStatus::kDeadline: return "deadline expired";
    case AnalysisStatus::kCancelled: return "cancelled";
  }
  return "unknown";
}

namespace {

class Engine {
 public:
  Engine(const cfg::Cfg& cfg, const cfg::InductionInfo& induction,
         const Options& options)
      : cfg_(cfg), options_(options) {
    ctx_.policy = options.policy();
    ctx_.prune = options.prune_options();
    ctx_.cfg = &cfg;
    ctx_.induction = &induction;
    ctx_.types = options.types;
    ctx_.summaries = options.enable_summaries ? options.summaries : nullptr;
    // Selector universe for the kHavoc transfer — same construction as the
    // governor's (every selector some statement mentions).
    {
      std::set<rsg::Symbol> sels;
      for (const cfg::CfgNode& node : cfg.nodes()) {
        if (node.stmt.sel.valid()) sels.insert(node.stmt.sel);
      }
      selectors_.assign(sels.begin(), sels.end());
    }
    ctx_.selectors = &selectors_;
  }

  AnalysisResult run() {
    // Attribution windows instead of the old global MemoryStats reset: a
    // reset would zero live_bytes while payload graphs of *earlier* units in
    // the same process are still alive, underflowing the gauge when they
    // die. Regions snapshot a baseline and report per-run deltas.
    support::MemoryRegion memory_region;
    support::MetricsRegion ops_region;
    PSA_PHASE_TIMER(fixpoint_timer, fixpoint_wall_counter(),
                    fixpoint_cpu_counter());
    support::WallTimer timer;

    AnalysisResult result;
    result.per_node.resize(cfg_.size());

    ResourceGovernor governor(options_, cfg_);
    const bool degrade = options_.budget_policy == BudgetPolicy::kDegrade;

    std::deque<cfg::NodeId> worklist;
    std::vector<bool> queued(cfg_.size(), false);
    std::vector<bool> visited(cfg_.size(), false);
    worklist.push_back(cfg_.entry());
    queued[cfg_.entry()] = true;

    // Requeue every statement: after a global degradation (drain, memory
    // relief, visit ladder) all states got coarser, so everything must be
    // re-transferred to restore the fixpoint.
    const auto requeue_all = [&] {
      for (cfg::NodeId n = 0; n < cfg_.size(); ++n) {
        if (!queued[n]) {
          queued[n] = true;
          worklist.push_back(n);
        }
      }
    };

    AnalysisStatus status = AnalysisStatus::kConverged;
    std::uint64_t visits = 0;
    // The visit ladder: each trip of max_node_visits escalates every live
    // statement one rung and grants another allowance of the original
    // budget; once every statement sits at the top rung the count becomes
    // unbounded (the widened lattice is finite, so the fixpoint terminates).
    std::uint64_t visit_allowance = options_.max_node_visits;
    bool visits_unbounded = false;
    bool memory_checks = options_.memory_budget_bytes != 0;
    int fruitless_reliefs = 0;
    // A fan-out aborted on a *transient* memory spike: the partial outputs
    // are freed on abort, so live bytes may be back under budget by the
    // time the loop top re-checks — latch the trip so the loop top responds
    // anyway instead of retrying the same doomed visit forever.
    bool fanout_memory_trip = false;
    cfg::NodeId fanout_trip_node = 0;
    const auto memory_tripped = [&] {
      return memory_checks && memory_region.delta().live_bytes >
                                  options_.memory_budget_bytes;
    };

    while (!worklist.empty()) {
      // --- Cancellation and deadline (cooperative poll). -----------------
      const auto interrupt = governor.poll();
      if (interrupt == ResourceGovernor::Interrupt::kCancelled) {
        status = AnalysisStatus::kCancelled;
        break;
      }
      if (interrupt == ResourceGovernor::Interrupt::kDeadline) {
        if (!degrade || !governor.begin_drain()) {
          // Hard fail, or the 2x drain allowance itself ran out.
          status = AnalysisStatus::kDeadline;
          break;
        }
        // Drain: collapse every live state to the top rung, forget the
        // transfer memoization (an interrupted fan-out may have recorded
        // inputs whose outputs never landed — re-transferring everything
        // restores soundness), and redo the now-cheap fixpoint within the
        // extended allowance.
        for (cfg::NodeId n = 0; n < cfg_.size(); ++n) {
          if (!result.per_node[n].empty()) {
            governor.collapse(n, result.per_node[n],
                              AnalysisStatus::kDeadline);
          }
        }
        governor.raise_floor(DegradationRung::kSummarize);
        transfer_cache_.clear();
        requeue_all();
        continue;
      }

      // --- Visit budget. --------------------------------------------------
      if (!visits_unbounded && visits >= visit_allowance) {
        if (!degrade) {
          status = AnalysisStatus::kIterationLimit;
          break;
        }
        bool any = false;
        for (cfg::NodeId n = 0; n < cfg_.size(); ++n) {
          if (result.per_node[n].empty()) continue;
          any |= governor.escalate(n, result.per_node[n],
                                   AnalysisStatus::kIterationLimit) !=
                 DegradationRung::kNone;
        }
        if (!any) {
          // Every live statement is already maximally coarse; counting
          // further visits buys nothing. Hold future states to the top rung
          // and let the widened fixpoint run out.
          governor.raise_floor(DegradationRung::kSummarize);
          visits_unbounded = true;
        } else {
          visit_allowance += options_.max_node_visits;
        }
        requeue_all();
        continue;
      }
      ++visits;
      PSA_COUNT(support::Counter::kWorklistVisits);

      // --- Memory budget. -------------------------------------------------
      if (memory_tripped() || fanout_memory_trip) {
        const bool forced = fanout_memory_trip;
        fanout_memory_trip = false;
        if (!degrade) {
          status = AnalysisStatus::kOutOfMemory;
          break;
        }
        --visits;  // relief replaces this visit
        const std::uint64_t target =
            std::max<std::uint64_t>(1, options_.memory_budget_bytes / 2);
        const auto live_bytes = [&] {
          return memory_region.delta().live_bytes;
        };
        // Step 1: escalate the heaviest states down to half the budget
        // (headroom: states escalated only to the line would trip again
        // immediately), preserving the transfer memoization — clearing it
        // forces a full recompute sweep, which is the expensive part of a
        // relief.
        std::vector<cfg::NodeId> escalated;
        bool escalatable = true;
        while (escalatable && live_bytes() > target) {
          escalatable = false;
          std::vector<cfg::NodeId> by_weight;
          for (cfg::NodeId n = 0; n < cfg_.size(); ++n) {
            if (!result.per_node[n].empty()) by_weight.push_back(n);
          }
          std::sort(by_weight.begin(), by_weight.end(),
                    [&](cfg::NodeId a, cfg::NodeId b) {
                      return result.per_node[a].footprint_bytes() >
                             result.per_node[b].footprint_bytes();
                    });
          for (const cfg::NodeId n : by_weight) {
            if (governor.escalate(n, result.per_node[n],
                                  AnalysisStatus::kOutOfMemory) ==
                DegradationRung::kNone) {
              continue;
            }
            escalated.push_back(n);
            escalatable = true;
            if (live_bytes() <= target) break;
          }
        }
        if (forced && escalated.empty()) {
          // The trip came from an aborted fan-out whose spike has already
          // drained: nothing is over the target now, but retrying the visit
          // at its current precision would spike (and abort) again. Coarsen
          // the aborted statement's *inputs* — its predecessors' states —
          // so the retry shrinks.
          for (const cfg::NodeId p : cfg_.node(fanout_trip_node).preds) {
            if (result.per_node[p].empty()) continue;
            if (governor.escalate(p, result.per_node[p],
                                  AnalysisStatus::kOutOfMemory) !=
                DegradationRung::kNone) {
              escalated.push_back(p);
            }
          }
        }
        if (live_bytes() > target) {
          // Step 2: the states alone cannot reach the target — the
          // memoization cache is what the budget cannot afford. Without
          // memoization every sweep recomputes its transfers, so precision
          // is unaffordable too: drop the cache and hold every state,
          // present and future, to the top rung. The frontier is then born
          // coarse instead of re-tripping the budget (and re-wiping the
          // cache) at every advance.
          transfer_cache_.clear();
          governor.raise_floor(DegradationRung::kSummarize);
        }
        if (live_bytes() > options_.memory_budget_bytes ||
            (escalated.empty() && ++fruitless_reliefs >= 3)) {
          // Even the maximally coarse states exceed the budget (or relief
          // has nothing left to coarsen and keeps tripping on cache
          // refills): the budget is unreachable for this input. Finish
          // soundly over budget rather than die — exactly the Table-1
          // Sparse-LU failure this governor exists to absorb.
          governor.raise_floor(DegradationRung::kSummarize);
          governor.note_memory_unreachable();
          memory_checks = false;
        }
        if (!escalated.empty()) fruitless_reliefs = 0;
        // Coarsened outputs must be re-consumed: requeue the successors of
        // every escalated statement (a cache drop alone invalidates
        // nothing — transfers are pure, memoization is only a shortcut).
        for (const cfg::NodeId n : escalated) {
          for (const cfg::NodeId s : cfg_.node(n).succs) {
            if (!queued[s]) {
              queued[s] = true;
              worklist.push_back(s);
            }
          }
        }
        continue;
      }

      const cfg::NodeId id = worklist.front();
      worklist.pop_front();
      queued[id] = false;
      if (visited[id]) {
        PSA_COUNT(support::Counter::kWorklistRevisits);
      } else {
        visited[id] = true;
      }

      // Input: the union of the predecessors' RSRSGs (the entry's input is
      // the single empty configuration: every pvar NULL). The reduction
      // (JOIN) of the sentence's own RSRSG happens on the *output* side
      // below, so the input need not be materialized — each predecessor
      // graph feeds the transfer directly, and graphs already transferred
      // on an earlier visit are skipped (the transfer is a pure function of
      // the input graph and outputs accumulate). This memoization makes the
      // per-visit cost proportional to the number of *new* input graphs.
      auto& cache = transfer_cache_[id];
      std::vector<std::pair<std::uint64_t, std::size_t>> fresh_keys;
      const auto consider = [&](const rsg::Rsg& g, std::uint64_t fp) {
        auto& bucket = cache.by_fp[fp];
        for (const rsg::Rsg& known : bucket) {
          if (rsg::rsg_equal(known, g)) {
            PSA_COUNT(support::Counter::kTransferCacheHits);
            return;
          }
        }
        PSA_COUNT(support::Counter::kTransferCacheMisses);
        bucket.push_back(g);
        fresh_keys.emplace_back(fp, bucket.size() - 1);
      };
      if (id == cfg_.entry() && cache.by_fp.empty()) {
        if (options_.entry_states != nullptr &&
            !options_.entry_states->empty()) {
          // Summary runs start from the callee's abstracted parameter
          // bindings instead of the all-NULL configuration.
          for (const rsg::Rsg& g : *options_.entry_states) {
            consider(g, rsg::fingerprint(g));
          }
        } else {
          rsg::Rsg empty;
          consider(empty, rsg::fingerprint(empty));
        }
      }
      for (const cfg::NodeId p : cfg_.node(id).preds) {
        const Rsrsg& pred_out = result.per_node[p];
        for (std::size_t i = 0; i < pred_out.graphs().size(); ++i) {
          consider(pred_out.graphs()[i], pred_out.fingerprint_at(i));
        }
      }
      std::vector<const rsg::Rsg*> fresh;
      fresh.reserve(fresh_keys.size());
      for (const auto& [fp, idx] : fresh_keys) {
        fresh.push_back(&cache.by_fp[fp][idx]);
      }

      std::vector<std::vector<rsg::Rsg>> produced(fresh.size());
      // The fan-out is where the combinatorial blow-ups live (a statement
      // with thousands of fresh inputs, Table 1's Sparse-LU explosion), so
      // the stop predicate covers the memory budget as well as
      // deadline/cancel — a loop-top-only check would let a single visit
      // run away unboundedly before the budget is ever consulted.
      const auto abort_fanout = [&] {
        return governor.interrupted() || memory_tripped();
      };
      for (std::size_t i = 0; i < fresh.size(); ++i) {
        if (abort_fanout()) break;
        produced[i] = execute_statement(*fresh[i], cfg_.node(id), ctx_);
      }
      if (abort_fanout()) {
        // Outputs of an aborted fan-out are partial: un-record the inputs
        // considered this visit so a later visit re-transfers them (entries
        // were appended per bucket in fresh_keys order, so reverse pops
        // restore the cache exactly). Without this the cache would keep
        // claiming inputs whose outputs never landed — a transient memory
        // spike that drains before the loop-top check would then lose
        // may-facts for good.
        for (auto it = fresh_keys.rbegin(); it != fresh_keys.rend(); ++it) {
          const auto bucket = cache.by_fp.find(it->first);
          bucket->second.pop_back();
          if (bucket->second.empty()) cache.by_fp.erase(bucket);
        }
        if (!governor.interrupted()) {
          // Not deadline or cancellation, so the memory budget tripped:
          // latch it for the loop top, whose own check may already see live
          // bytes back under budget.
          fanout_memory_trip = true;
          fanout_trip_node = id;
        }
        // Requeue the node and let the loop-top checks decide (drain,
        // relief, or stop).
        if (!queued[id]) {
          queued[id] = true;
          worklist.push_front(id);
        }
        continue;
      }

      // Accumulate into the node's RSRSG; propagate only on change.
      bool changed = false;
      for (auto& batch : produced) {
        for (auto& g : batch) {
          changed |= result.per_node[id].insert(std::move(g), ctx_.policy,
                                                options_.enable_join);
        }
      }
      // A degraded statement is held to its rung: fresh precision inserted
      // above is re-coarsened so cost can never creep back. An unchanged
      // set is already conformant (every content change passes through this
      // reapply, and escalation applies its transform directly), so the
      // sweep is skipped — it is a full degrade pass over the set and would
      // otherwise dominate the coarse fixpoint's cost.
      if (changed) changed |= governor.reapply(id, result.per_node[id]);
      if (options_.widen_threshold != 0 &&
          result.per_node[id].size() > options_.widen_threshold) {
        PSA_COUNT(support::Counter::kWidenings);
        changed |= result.per_node[id].widen(ctx_.policy,
                                             options_.widen_threshold);
      }
      if (result.per_node[id].size() > options_.max_rsgs_per_set) {
        if (!degrade) {
          status = AnalysisStatus::kSetLimit;
          break;
        }
        // Escalate this statement until the set fits or the ladder tops
        // out. At the top the widened set keeps one member per ALIAS
        // pattern — if even that exceeds the cap the cap is unreachable and
        // the (bounded) set is carried over it.
        while (result.per_node[id].size() > options_.max_rsgs_per_set &&
               governor.escalate(id, result.per_node[id],
                                 AnalysisStatus::kSetLimit) !=
                   DegradationRung::kNone) {
          changed = true;
        }
      }

      if (changed || visits == 1) {
        for (const cfg::NodeId s : cfg_.node(id).succs) {
          if (!queued[s]) {
            queued[s] = true;
            worklist.push_back(s);
          }
        }
      }
    }

    result.status = status;
    result.node_visits = visits;
    result.seconds = timer.elapsed_seconds();
    result.memory = memory_region.delta();
    result.degradation = governor.take_report();
    result.ops = ops_region.delta();
    return result;
  }

  [[nodiscard]] support::Counter fixpoint_wall_counter() const {
    switch (options_.level) {
      case rsg::AnalysisLevel::kL1:
        return support::Counter::kPhaseFixpointL1WallNs;
      case rsg::AnalysisLevel::kL2:
        return support::Counter::kPhaseFixpointL2WallNs;
      case rsg::AnalysisLevel::kL3:
        return support::Counter::kPhaseFixpointL3WallNs;
    }
    return support::Counter::kPhaseFixpointL1WallNs;
  }
  [[nodiscard]] support::Counter fixpoint_cpu_counter() const {
    switch (options_.level) {
      case rsg::AnalysisLevel::kL1:
        return support::Counter::kPhaseFixpointL1CpuNs;
      case rsg::AnalysisLevel::kL2:
        return support::Counter::kPhaseFixpointL2CpuNs;
      case rsg::AnalysisLevel::kL3:
        return support::Counter::kPhaseFixpointL3CpuNs;
    }
    return support::Counter::kPhaseFixpointL1CpuNs;
  }

 private:
  /// Per-node record of input graphs already transferred, bucketed by
  /// structural fingerprint (collisions resolved exactly by rsg_equal).
  struct TransferCache {
    std::unordered_map<std::uint64_t, std::vector<rsg::Rsg>> by_fp;
  };

  const cfg::Cfg& cfg_;
  const Options& options_;
  TransferContext ctx_;
  std::vector<rsg::Symbol> selectors_;  // kHavoc selector universe
  std::unordered_map<cfg::NodeId, TransferCache> transfer_cache_;
};

}  // namespace

AnalysisResult analyze_cfg(const cfg::Cfg& cfg,
                           const cfg::InductionInfo& induction,
                           const Options& options) {
  Engine engine(cfg, induction, options);
  return engine.run();
}

}  // namespace psa::analysis

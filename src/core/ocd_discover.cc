#include "core/ocd_discover.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/fault_injection.h"
#include "common/prof.h"
#include "common/snapshot.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/checker.h"
#include "core/list_partition.h"
#include "od/dependency_set.h"

namespace ocdd::core {

namespace {

using od::AttributeList;
using od::AttributeListEq;
using od::AttributeListHash;

/// One node of the candidate tree: the pair (X, Y) of an OCD candidate.
struct Candidate {
  AttributeList x;
  AttributeList y;

  friend bool operator==(const Candidate& a, const Candidate& b) {
    return a.x == b.x && a.y == b.y;
  }
};

struct CandidateHash {
  std::size_t operator()(const Candidate& c) const {
    AttributeListHash h;
    return h(c.x) * 1000003ULL ^ h(c.y);
  }
};

using IdSpan = std::span<const ColumnId>;

/// Heap-inclusive footprint estimate of one candidate, the unit the
/// RunContext memory budget is charged in for the level frontier.
std::size_t CandidateBytes(const Candidate& c) {
  return sizeof(Candidate) +
         (c.x.size() + c.y.size()) * sizeof(rel::ColumnId);
}

/// Per-candidate check outcome, filled by the (possibly parallel) check
/// phase and consumed by the sequential generation phase.
struct CheckedCandidate {
  bool checked = false;  // false when the budget aborted before this one
  bool ocd_valid = false;
  bool od_xy = false;
  bool od_yx = false;
};

/// One distinct rank vector of the partition cache, shared by every cached
/// list whose rows it orders (order-equivalent lists, and `LA` wherever
/// `L → A`, all have byte-identical dense ranks).
struct SharedRanks {
  ListPartition part;
  std::uint64_t hash = 0;
  std::size_t refs = 0;  // cached lists pointing here
};

struct CacheEntry {
  SharedRanks* ranks = nullptr;
  std::uint64_t live_mark = 0;  // Driver::live_mark_ when last marked live
};

/// A rank vector refined during a layer whose content was not cached yet:
/// one per distinct content, shared by the layer's lists that produce it,
/// until publish interns it (or the budget turns it away).
struct PendingRanks {
  ListPartition part;
  std::uint64_t hash = 0;
  SharedRanks* published = nullptr;
};

class Driver {
 public:
  Driver(const rel::CodedRelation& relation, const OcdDiscoverOptions& options)
      : relation_(relation), options_(options), checker_(relation) {
    ctx_ = options.run_context != nullptr ? options.run_context : &local_ctx_;
    if (options.max_checks != 0) ctx_->set_check_budget(options.max_checks);
    if (options.time_limit_seconds > 0.0) {
      ctx_->set_time_limit_seconds(options.time_limit_seconds);
    }
  }

  OcdDiscoverResult Run() {
    WallTimer timer;
    OcdDiscoverResult result;

    if (options_.apply_column_reduction) {
      result.reduction = ReduceColumns(relation_);
    } else {
      for (ColumnId c = 0; c < relation_.num_columns(); ++c) {
        result.reduction.reduced_universe.push_back(c);
      }
    }
    const std::vector<ColumnId>& universe = result.reduction.reduced_universe;

    od::DependencyStore store;
    std::vector<Candidate> level;
    std::size_t level_bytes = 0;
    std::size_t current_level = 2;
    bool aborted = false;
    StopReason cap_reason = StopReason::kNone;

    CheckpointStats& ck = result.checkpoint_stats;
    ck.enabled = options_.checkpoint.enabled();
    std::unique_ptr<SnapshotStore> snap;
    const std::uint64_t fingerprint =
        ck.enabled ? relation_.Fingerprint() : 0;
    if (ck.enabled) {
      snap = std::make_unique<SnapshotStore>(options_.checkpoint.dir,
                                             "ocddiscover");
      snap->set_fault_injector(ctx_->fault_injector());
    }

    // State blob captured at the last level boundary (start of the level
    // currently in flight); written on cadence, and at drain when the run
    // stops mid-level so a restart redoes at most one level.
    auto encode_state = [&](bool completed_flag) {
      SnapshotBuilder b;
      ByteWriter meta;
      meta.U32(1);  // state format version
      meta.U64(fingerprint);
      meta.U64(current_level);
      meta.U64(result.levels_completed);
      meta.U64(TotalChecks());
      meta.U64(result.candidates_generated);
      meta.U8(completed_flag ? 1 : 0);
      b.AddSection("meta", meta.Take());
      ByteWriter fr;
      fr.U32(static_cast<std::uint32_t>(level.size()));
      for (const Candidate& c : level) {
        fr.IdVec(c.x.ids());
        fr.IdVec(c.y.ids());
      }
      b.AddSection("frontier", fr.Take());
      ByteWriter cl;
      cl.U32(static_cast<std::uint32_t>(store.ods().size()));
      for (const od::OrderDependency& d : store.ods()) {
        cl.IdVec(d.lhs.ids());
        cl.IdVec(d.rhs.ids());
      }
      cl.U32(static_cast<std::uint32_t>(store.ocds().size()));
      for (const od::OrderCompatibility& d : store.ocds()) {
        cl.IdVec(d.lhs.ids());
        cl.IdVec(d.rhs.ids());
      }
      b.AddSection("claims", cl.Take());
      return b.Encode();
    };

    auto write_snapshot = [&](const std::string& blob) {
      Result<std::uint64_t> gen =
          snap->Write(blob, options_.checkpoint.keep_generations);
      if (gen.ok()) {
        ++ck.snapshots_written;
        ctx_->MarkCheckpointed();
        return true;
      }
      ck.warning = gen.status().message();
      return false;
    };

    auto decode_state = [&](const SnapshotView& view) {
      const std::string* meta_s = view.Find("meta");
      const std::string* fr_s = view.Find("frontier");
      const std::string* cl_s = view.Find("claims");
      if (meta_s == nullptr || fr_s == nullptr || cl_s == nullptr) {
        ck.warning = "resume skipped: snapshot missing sections";
        return false;
      }
      ByteReader meta(*meta_s);
      if (meta.U32() != 1) {
        ck.warning = "resume skipped: unknown snapshot state version";
        return false;
      }
      if (meta.U64() != fingerprint) {
        ck.warning = "resume skipped: snapshot is for a different relation";
        return false;
      }
      std::uint64_t s_level = meta.U64();
      std::uint64_t s_levels_completed = meta.U64();
      std::uint64_t s_checks = meta.U64();
      std::uint64_t s_candidates = meta.U64();
      meta.U8();  // completed flag; an empty frontier says the same thing
      if (!meta.ok()) {
        ck.warning = "resume skipped: snapshot meta damaged";
        return false;
      }
      ByteReader fr(*fr_s);
      std::uint32_t n = fr.U32();
      std::vector<Candidate> restored;
      restored.reserve(n);
      for (std::uint32_t i = 0; i < n && fr.ok(); ++i) {
        AttributeList x(fr.IdVec());
        AttributeList y(fr.IdVec());
        restored.push_back(Candidate{std::move(x), std::move(y)});
      }
      if (!fr.ok()) {
        ck.warning = "resume skipped: snapshot frontier damaged";
        return false;
      }
      ByteReader cl(*cl_s);
      od::DependencyStore restored_store;
      std::uint32_t num_ods = cl.U32();
      for (std::uint32_t i = 0; i < num_ods && cl.ok(); ++i) {
        AttributeList lhs(cl.IdVec());
        AttributeList rhs(cl.IdVec());
        restored_store.AddOd(
            od::OrderDependency{std::move(lhs), std::move(rhs)});
      }
      std::uint32_t num_ocds = cl.U32();
      for (std::uint32_t i = 0; i < num_ocds && cl.ok(); ++i) {
        AttributeList lhs(cl.IdVec());
        AttributeList rhs(cl.IdVec());
        restored_store.AddOcd(
            od::OrderCompatibility{std::move(lhs), std::move(rhs)});
      }
      if (!cl.ok()) {
        ck.warning = "resume skipped: snapshot claims damaged";
        return false;
      }
      // Commit: replay the frontier's memory charge, then adopt the state.
      std::size_t restored_bytes = 0;
      for (const Candidate& c : restored) {
        std::size_t bytes = CandidateBytes(c);
        if (!ctx_->ChargeMemory(bytes)) {
          aborted = true;
          break;
        }
        restored_bytes += bytes;
      }
      level = std::move(restored);
      level_bytes = restored_bytes;
      current_level = static_cast<std::size_t>(s_level);
      result.levels_completed = static_cast<std::size_t>(s_levels_completed);
      result.candidates_generated = s_candidates;
      checks_base_ = s_checks;
      store = std::move(restored_store);
      return true;
    };

    bool resumed = false;
    if (ck.enabled && options_.checkpoint.resume) {
      Result<LoadedSnapshot> loaded = snap->Load();
      if (loaded.ok()) {
        ck.corrupt_skipped = loaded->corrupt_skipped;
        if (decode_state(loaded->view)) {
          resumed = true;
          ck.resumed = true;
          ck.resumed_generation = loaded->generation;
        }
      } else {
        ck.warning = "resume skipped: " + loaded.status().message();
      }
    }

    if (!resumed) {
      // Level ℓ = 2: all unordered single-attribute pairs (Algorithm 1
      // line 4).
      for (std::size_t i = 0; i < universe.size() && !aborted; ++i) {
        for (std::size_t j = i + 1; j < universe.size(); ++j) {
          Candidate c{AttributeList{universe[i]}, AttributeList{universe[j]}};
          std::size_t bytes = CandidateBytes(c);
          if (!ctx_->ChargeMemory(bytes)) {
            aborted = true;
            break;
          }
          level_bytes += bytes;
          level.push_back(std::move(c));
        }
      }
      result.candidates_generated += level.size();
    }

    std::unique_ptr<ThreadPool> pool;
    if (options_.num_threads > 1) {
      pool = std::make_unique<ThreadPool>(options_.num_threads);
    }

    std::string pending_blob;
    bool pending_written = true;
    try {
      while (!level.empty() && !aborted) {
        if (snap) {
          prof::ScopedTimer ck_timer(prof::Phase::kCheckpoint);
          pending_blob = encode_state(false);
          pending_written = false;
          if (ctx_->CheckpointDue()) {
            pending_written = write_snapshot(pending_blob);
          }
        }
        ctx_->AtInjectionPoint("ocd.level");
        if (ctx_->ShouldStop()) {
          aborted = true;
          break;
        }
        if (options_.max_level != 0 && current_level > options_.max_level) {
          aborted = true;
          cap_reason = StopReason::kLevelCap;
          break;
        }

        // Hook pre-resolution (sequential): candidates whose outcome the
        // hook can prove are served up front, so the partition pipeline
        // below never pays for their lists and the check phase skips them.
        std::vector<CheckedCandidate> checked(level.size());
        std::vector<char> served;
        if (options_.check_hook != nullptr) {
          served.assign(level.size(), 0);
          for (std::size_t i = 0; i < level.size(); ++i) {
            CandidateOutcome out;
            if (options_.check_hook->Lookup(level[i].x, level[i].y, &out)) {
              served[i] = 1;
              checked[i] =
                  CheckedCandidate{true, out.ocd_valid, out.od_xy, out.od_yx};
              ++hook_served_;
            }
          }
        }

        // Sorted-partition mode: make sure both sides of every candidate
        // have a cached rank vector before the (parallel, read-only) check
        // phase. Refinement itself is parallel — see
        // PrepareLevelPartitions.
        if (options_.use_sorted_partitions) {
          PrepareLevelPartitions(level, pool.get(),
                                 served.empty() ? nullptr : &served);
        }

        auto check_one = [&](std::size_t i) {
          if (!served.empty() && served[i] != 0) return;
          if (ctx_->ShouldStop()) return;
          ctx_->AtInjectionPoint("ocd.check");
          const Candidate& c = level[i];
          CheckedCandidate& out = checked[i];
          out.checked = true;

          const ListPartition* px = FindPartition(c.x);
          const ListPartition* py = FindPartition(c.y);
          if (px != nullptr && py != nullptr) {
            // One row pass fills both directions' extremes, answering the
            // OCD single check (swap only, Theorem 4.1) and both embedded
            // ODs X → Y and Y → X at once — the rank vectors are streamed
            // once instead of twice. The check accounting is unchanged:
            // 1 OCD check, plus 2 OD checks at valid nodes.
            part_checks_.fetch_add(1, std::memory_order_relaxed);
            ctx_->CountCheck(1);
            OdCheckOutcome xy;
            OdCheckOutcome yx;
            ListPartition::CheckOdBoth(*px, *py, &xy, &yx);
            out.ocd_valid = !xy.has_swap;
            if (out.ocd_valid) {
              part_checks_.fetch_add(2, std::memory_order_relaxed);
              ctx_->CountCheck(2);
              out.od_xy = xy.valid();
              out.od_yx = yx.valid();
            }
            return;
          }

          ctx_->CountCheck(1);
          out.ocd_valid = checker_.HoldsOcd(c.x, c.y);
          if (out.ocd_valid) {
            // §4.2.1: at every valid OCD node, test both embedded ODs. These
            // drive pruning and are emitted when valid (Algorithm 3).
            ctx_->CountCheck(2);
            out.od_xy = checker_.HoldsOd(c.x, c.y);
            out.od_yx = checker_.HoldsOd(c.y, c.x);
          }
        };

        if (pool) {
          Status check_status = pool->ParallelFor(level.size(), check_one);
          if (!check_status.ok()) {
            // A check task threw (fault injection or otherwise): the pool
            // contained it; stop the run and return the sound prefix.
            ctx_->RequestStop(StopReason::kFaultInjected);
          }
        } else {
          for (std::size_t i = 0; i < level.size(); ++i) check_one(i);
        }
        aborted = ctx_->stop_requested();

        // Feed every data-backed outcome to the hook (sequential, like
        // Lookup). Candidates the budget stopped before checking are not
        // reported — their outcome is unknown.
        if (options_.check_hook != nullptr) {
          for (std::size_t i = 0; i < level.size(); ++i) {
            if (served[i] != 0 || !checked[i].checked) continue;
            ++hook_recomputed_;
            options_.check_hook->Observe(
                level[i].x, level[i].y,
                CandidateOutcome{checked[i].ocd_valid, checked[i].od_xy,
                                 checked[i].od_yx});
          }
        }

        // Drop the cached lists no child of this level will read, before
        // the children themselves take up memory.
        if (options_.use_sorted_partitions && !aborted) {
          EvictDeadLists(level, checked, universe);
        }

        // Sequential generation phase: emission + next level (deduplicated).
        // On abort the emission still runs — every candidate the check phase
        // finished contributes to the partial result — but no children are
        // generated.
        std::vector<Candidate> next;
        std::size_t next_bytes = 0;
        // Deduplicate through indices into `next`, so each child is stored
        // once. A child is pushed, then kept only if its index is new and
        // its memory charge succeeds — order and charges are those of a
        // check-then-push.
        auto hash_at = [&next](std::size_t i) {
          return CandidateHash{}(next[i]);
        };
        auto equal_at = [&next](std::size_t a, std::size_t b) {
          return next[a] == next[b];
        };
        std::unordered_set<std::size_t, decltype(hash_at), decltype(equal_at)>
            seen(0, hash_at, equal_at);
        auto offer = [&](Candidate child) {
          next.push_back(std::move(child));
          const std::size_t i = next.size() - 1;
          if (!seen.insert(i).second) {
            next.pop_back();
            return true;
          }
          std::size_t bytes = CandidateBytes(next[i]);
          if (!ctx_->ChargeMemory(bytes)) {
            seen.erase(i);
            next.pop_back();
            return false;
          }
          next_bytes += bytes;
          return true;
        };
        prof::ScopedTimer generate_timer(prof::Phase::kGenerate);
        for (std::size_t i = 0; i < level.size(); ++i) {
          const Candidate& c = level[i];
          const CheckedCandidate& r = checked[i];
          if (!r.checked || !r.ocd_valid) continue;
          ctx_->AtInjectionPoint("ocd.generate");

          store.AddOcd(od::OrderCompatibility{c.x, c.y});
          if (r.od_xy) store.AddOd(od::OrderDependency{c.x, c.y});
          if (r.od_yx) store.AddOd(od::OrderDependency{c.y, c.x});
          if (aborted) continue;

          const bool extend_x = ExtendsX(r);
          const bool extend_y = ExtendsY(r);
          if (!extend_x && !extend_y) continue;

          for (ColumnId a : universe) {
            if (c.x.Contains(a) || c.y.Contains(a)) continue;
            if (extend_x && !offer(Candidate{c.x.WithAppended(a), c.y})) {
              aborted = true;
              break;
            }
            if (extend_y && !offer(Candidate{c.x, c.y.WithAppended(a)})) {
              aborted = true;
              break;
            }
          }
          if (options_.max_candidates_per_level != 0 &&
              next.size() > options_.max_candidates_per_level) {
            aborted = true;
            cap_reason = StopReason::kLevelCap;
            break;
          }
        }

        if (!aborted) {
          result.levels_completed = current_level;
        }
        result.candidates_generated += next.size();
        level = std::move(next);
        ctx_->ReleaseMemory(level_bytes);
        level_bytes = next_bytes;
        ++current_level;
      }
    } catch (const FaultInjectedError&) {
      // An injection point fired `kThrow` in the sequential path. The
      // emitted prefix in `store` is intact and sound; report the stop.
      ctx_->RequestStop(StopReason::kFaultInjected);
      aborted = true;
    }
    ctx_->ReleaseMemory(level_bytes);

    aborted = aborted || ctx_->stop_requested();

    // Drain-to-checkpoint: a stopped run persists the state captured at the
    // last level boundary, so `--resume` redoes at most the level that was
    // in flight. A finished run writes a final generation (empty frontier)
    // so resuming a completed run is a no-op that returns the full result.
    if (snap) {
      prof::ScopedTimer ck_timer(prof::Phase::kCheckpoint);
      if (aborted) {
        if (!pending_written && !pending_blob.empty()) {
          write_snapshot(pending_blob);
        }
      } else {
        level.clear();
        write_snapshot(encode_state(true));
      }
    }

    result.stop_state.checks = TotalChecks();
    result.stop_state.level = current_level;
    result.stop_state.frontier_size = level.size();

    store.Finalize();
    result.ocds = store.ocds();
    result.ods = store.ods();
    result.num_checks = TotalChecks();
    result.completed = !aborted;
    result.stop_reason =
        ctx_->stop_reason() != StopReason::kNone ? ctx_->stop_reason()
                                                 : cap_reason;
    result.hook_served = hook_served_;
    result.hook_recomputed = hook_recomputed_;
    result.partition_cache_bytes = peak_cache_bytes_;
    result.elapsed_seconds = timer.ElapsedSeconds();
    return result;
  }

 private:
  std::uint64_t TotalChecks() const {
    // checks_base_ carries the checks of previous attempts when this run
    // was resumed from a snapshot, keeping reported totals cumulative.
    return checks_base_ + checker_.stats().TotalChecks() +
           part_checks_.load(std::memory_order_relaxed);
  }

  /// Cached-partition lookup; nullptr when the list was not cached (the
  /// caller falls back to the sort-based checker). Read-only, thread-safe
  /// during the check phase.
  const ListPartition* FindPartition(const od::AttributeList& list) const {
    if (!options_.use_sorted_partitions) return nullptr;
    auto it = part_cache_.find(list);
    return it == part_cache_.end() ? nullptr : &it->second.ranks->part;
  }

  /// The entry of `table` whose rank vector is byte-identical to `part`,
  /// or nullptr. Read-only on `interned_`, so refinement workers may probe
  /// it while a layer computes.
  template <typename Table>
  static typename Table::mapped_type::pointer FindSame(
      const Table& table, const ListPartition& part, std::uint64_t hash) {
    auto [it, end] = table.equal_range(hash);
    for (; it != end; ++it) {
      if (it->second->part.SameRanks(part)) return it->second.get();
    }
    return nullptr;
  }

  /// Drops one cached list's reference; the last one frees the vector and
  /// returns its bytes to the budget.
  void Release(SharedRanks* ranks) {
    if (--ranks->refs != 0) return;
    cache_bytes_ -= ranks->part.MemoryBytes();
    auto [it, end] = interned_.equal_range(ranks->hash);
    for (; it != end; ++it) {
      if (it->second.get() == ranks) {
        interned_.erase(it);
        return;
      }
    }
  }

  /// Theorem 3.9: generation extends a side of a valid candidate only
  /// while its full OD does not hold (always, with pruning off).
  bool ExtendsX(const CheckedCandidate& r) const {
    return !r.od_xy || !options_.apply_od_pruning;
  }
  bool ExtendsY(const CheckedCandidate& r) const {
    return !r.od_yx || !options_.apply_od_pruning;
  }

  /// Live-set eviction, run after a level's checks and before its children
  /// are generated. A child `XA ~ Y` or `X ~ YA` of a candidate reads `Y`
  /// (or `X`) and `XA` (or `YA`), refined from `X` (or `Y`) when not
  /// cached. So for every candidate that spawns children this keeps the
  /// longest cached prefix of each side and each cached one-attribute
  /// extension of a side it extends, and drops every other cached list.
  /// Sequential and a pure function of the cache and the level, so the
  /// budget stays thread-count-independent.
  void EvictDeadLists(const std::vector<Candidate>& level,
                      const std::vector<CheckedCandidate>& checked,
                      const std::vector<ColumnId>& universe) {
    ++live_mark_;
    auto mark_longest_prefix = [&](const AttributeList& side) {
      for (std::size_t len = side.size(); len > 0; --len) {
        auto it = part_cache_.find(IdSpan(side.ids().data(), len));
        if (it != part_cache_.end()) {
          it->second.live_mark = live_mark_;
          return;
        }
      }
    };
    std::vector<ColumnId> extended;
    auto mark_extension = [&](const AttributeList& side, ColumnId a) {
      extended.assign(side.ids().begin(), side.ids().end());
      extended.push_back(a);
      auto it = part_cache_.find(IdSpan(extended));
      if (it != part_cache_.end()) it->second.live_mark = live_mark_;
    };
    for (std::size_t i = 0; i < level.size(); ++i) {
      const CheckedCandidate& r = checked[i];
      if (!r.checked || !r.ocd_valid) continue;
      const bool extend_x = ExtendsX(r);
      const bool extend_y = ExtendsY(r);
      if (!extend_x && !extend_y) continue;
      const Candidate& c = level[i];
      mark_longest_prefix(c.x);
      mark_longest_prefix(c.y);
      for (ColumnId a : universe) {
        if (c.x.Contains(a) || c.y.Contains(a)) continue;
        if (extend_x) mark_extension(c.x, a);
        if (extend_y) mark_extension(c.y, a);
      }
    }
    for (auto it = part_cache_.begin(); it != part_cache_.end();) {
      if (it->second.live_mark == live_mark_) {
        ++it;
        continue;
      }
      Release(it->second.ranks);
      it = part_cache_.erase(it);
    }
  }

  /// Two-phase per-level partition pipeline. Phase 1 (sequential) plans
  /// every list the level needs that the cache is missing, starting each
  /// side from its longest cached prefix, so the plan's order depends only
  /// on the cache and the candidate order — never on thread count. Phase 2
  /// refines the plan layer by layer (all lists of one length are
  /// independent once the shorter ones are published) on the pool,
  /// sorting each layer by parent so sibling refinements on one worker
  /// share the parent's rank histogram, then publishes sequentially under
  /// the cache budget.
  ///
  /// Each distinct rank vector is stored once. A worker refines into its
  /// own scratch partition and looks the content up among the vectors
  /// already cached (read-only while the layer computes); only content
  /// that is new gets copied out, once per distinct vector of the layer.
  /// Publish charges the budget once per new vector, in sorted order.
  ///
  /// Budget overflow stays graceful: an over-budget partition is dropped,
  /// its descendants are skipped, and the affected candidates fall back to
  /// the sort-based checker. The RunContext is consulted between layers so
  /// a stopped run does not grind through refinements whose checks will
  /// never execute. `served`, when non-null, flags candidates already
  /// answered by the check hook — their lists are not planned (nor
  /// refined, nor charged to the cache budget), which is where the
  /// incremental walk's partition savings come from.
  void PrepareLevelPartitions(const std::vector<Candidate>& level,
                              ThreadPool* pool,
                              const std::vector<char>* served = nullptr) {
    struct Job {
      od::AttributeList list;
      SharedRanks* ranks = nullptr;     // cached vector with these ranks, or
      PendingRanks* pending = nullptr;  // new content awaiting publish
      bool computed = false;
    };
    std::vector<Job> jobs;
    std::unordered_multimap<std::uint64_t, std::unique_ptr<PendingRanks>>
        pending;  // this layer's new content
    std::mutex pending_mu;
    std::size_t max_len = 0;
    std::vector<std::vector<Job*>> layers;
    {
      prof::ScopedTimer plan_timer(prof::Phase::kPlan);
      std::unordered_set<AttributeList, AttributeListHash, AttributeListEq>
          planned;
      auto plan_list = [&](const od::AttributeList& list) {
        const ColumnId* ids = list.ids().data();
        std::size_t have = list.size();
        for (; have > 0; --have) {
          IdSpan prefix(ids, have);
          if (part_cache_.find(prefix) != part_cache_.end() ||
              planned.find(prefix) != planned.end()) {
            break;
          }
        }
        for (std::size_t k = have + 1; k <= list.size(); ++k) {
          od::AttributeList prefix(std::vector<ColumnId>(ids, ids + k));
          planned.insert(prefix);
          jobs.emplace_back();
          jobs.back().list = std::move(prefix);
        }
      };
      for (std::size_t i = 0; i < level.size(); ++i) {
        if (served != nullptr && (*served)[i] != 0) continue;
        plan_list(level[i].x);
        plan_list(level[i].y);
      }
      if (jobs.empty()) return;

      for (const Job& j : jobs) max_len = std::max(max_len, j.list.size());
      layers.resize(max_len + 1);
      for (Job& j : jobs) layers[j.list.size()].push_back(&j);
    }

    auto compute_job = [&](Job& job) {
      thread_local RefineScratch scratch;
      thread_local ListPartition refined;
      const ListPartition* built = &refined;
      ListPartition column;
      const std::size_t len = job.list.size();
      if (len == 1) {
        column = ListPartition::ForColumn(relation_, job.list[0]);
        built = &column;
      } else {
        auto parent =
            part_cache_.find(IdSpan(job.list.ids().data(), len - 1));
        if (parent == part_cache_.end()) return;  // dropped by the budget
        parent->second.ranks->part.RefineInto(relation_, job.list[len - 1],
                                              &scratch, &refined);
      }
      const std::uint64_t hash = built->ContentHash();
      job.ranks = FindSame(interned_, *built, hash);
      if (job.ranks == nullptr) {
        // New content: one pending copy per distinct vector of the layer,
        // whichever worker gets here first.
        std::lock_guard<std::mutex> lock(pending_mu);
        job.pending = FindSame(pending, *built, hash);
        if (job.pending == nullptr) {
          job.pending = pending
                            .emplace(hash, std::make_unique<PendingRanks>(
                                               PendingRanks{*built, hash}))
                            ->second.get();
        }
      }
      job.computed = true;
    };

    for (std::size_t len = 1; len <= max_len; ++len) {
      std::vector<Job*>& layer = layers[len];
      if (layer.empty()) continue;
      if (ctx_->stop_requested()) return;
      // Group siblings: jobs that refine the same parent become adjacent,
      // so one worker's contiguous block reuses the parent histogram.
      // Deterministic (pure list comparison), hence thread-count-stable.
      std::stable_sort(layer.begin(), layer.end(),
                       [](const Job* a, const Job* b) {
                         return a->list.ids() < b->list.ids();
                       });
      if (pool != nullptr && layer.size() > 1) {
        Status status = pool->ParallelFor(
            layer.size(), [&](std::size_t i) { compute_job(*layer[i]); });
        if (!status.ok()) {
          // A refinement threw (allocation failure or similar): contained
          // by the pool; stop the run and let the level unwind.
          ctx_->RequestStop(StopReason::kFaultInjected);
          return;
        }
      } else {
        for (Job* j : layer) compute_job(*j);
      }
      // Publish in the sorted (deterministic) order: the first list with a
      // pending vector charges the budget for it and interns it; later
      // lists with the same ranks share it. Which worker refined a vector
      // never matters — only content and order do. The cached copy is made
      // here, on the driver thread, and the workers' pending copies are
      // freed with the layer, so worker heaps only ever hold one layer's
      // new content.
      prof::ScopedTimer publish_timer(prof::Phase::kPublish);
      for (Job* j : layer) {
        if (!j->computed) continue;
        SharedRanks* ranks = j->ranks;
        if (ranks == nullptr) {
          if (j->pending->published == nullptr) Publish(j->pending);
          ranks = j->pending->published;
          if (ranks == nullptr) continue;  // over budget: sort fallback
        }
        ++ranks->refs;
        part_cache_.emplace(std::move(j->list), CacheEntry{ranks, 0});
      }
      pending.clear();
    }
  }

  /// Interns a copy of a pending vector, charging the budget; leaves
  /// `published` null when it does not fit.
  void Publish(PendingRanks* pending) {
    std::size_t bytes = pending->part.MemoryBytes();
    if (options_.max_partition_cache_bytes != 0 &&
        cache_bytes_ + bytes > options_.max_partition_cache_bytes) {
      return;
    }
    prof::AddAlloc(bytes);
    cache_bytes_ += bytes;
    peak_cache_bytes_ = std::max(peak_cache_bytes_, cache_bytes_);
    auto shared = std::make_unique<SharedRanks>(
        SharedRanks{pending->part, pending->hash, 0});
    pending->published = shared.get();
    interned_.emplace(pending->hash, std::move(shared));
  }

  const rel::CodedRelation& relation_;
  const OcdDiscoverOptions& options_;
  OrderChecker checker_;
  RunContext local_ctx_;
  RunContext* ctx_ = nullptr;
  std::uint64_t checks_base_ = 0;
  std::uint64_t hook_served_ = 0;
  std::uint64_t hook_recomputed_ = 0;
  std::atomic<std::uint64_t> part_checks_{0};
  /// The partition cache: each cached list points at its interned rank
  /// vector; lists that order the rows the same way share one.
  std::unordered_map<AttributeList, CacheEntry, AttributeListHash,
                     AttributeListEq>
      part_cache_;
  /// Distinct cached rank vectors by content hash (collisions resolved by
  /// `ListPartition::SameRanks`).
  std::unordered_multimap<std::uint64_t, std::unique_ptr<SharedRanks>>
      interned_;
  std::uint64_t live_mark_ = 0;
  /// Bytes of the distinct cached vectors, and their peak over the run.
  std::size_t cache_bytes_ = 0;
  std::size_t peak_cache_bytes_ = 0;
};

}  // namespace

OcdDiscoverResult DiscoverOcds(const rel::CodedRelation& relation,
                               const OcdDiscoverOptions& options) {
  Driver driver(relation, options);
  return driver.Run();
}

}  // namespace ocdd::core

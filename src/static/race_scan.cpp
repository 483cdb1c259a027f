#include "static/race_scan.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "baselines/naive.hpp"
#include "core/replay.hpp"
#include "fuzz/differential.hpp"
#include "support/assert.hpp"
#include "support/flat_hash_map.hpp"
#include "verify/certificate.hpp"
#include "verify/lockset_filter.hpp"

namespace race2d {

namespace {

const char* kind_name(AccessKind k) {
  switch (k) {
    case AccessKind::kRead:   return "read";
    case AccessKind::kWrite:  return "write";
    case AccessKind::kRetire: return "retire";
  }
  return "?";
}

bool conflicting(AccessKind prior, AccessKind racing) {
  // Two reads commute; everything else (a write or a retire on either
  // side) conflicts — the detector's rule exactly.
  return !(prior == AccessKind::kRead && racing == AccessKind::kRead);
}

/// First mutex the two sorted locksets share, or 0 when disjoint.
Loc common_mutex(const std::vector<Loc>& a, const std::vector<Loc>& b) {
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return a[i];
    if (a[i] < b[j]) ++i;
    else ++j;
  }
  return 0;
}

bool has_lock_events(const Trace& trace) {
  return std::any_of(trace.begin(), trace.end(), [](const TraceEvent& e) {
    return e.op == TraceOp::kAcquire || e.op == TraceOp::kRelease;
  });
}

/// Replays the finding's witness trace through the dynamic detector and the
/// certifier. The witness has exactly two counted accesses: ordinal 1 is
/// the prior side, ordinal 2 the racing side, both at witness_loc. A race
/// must survive the lockset filter and certify; a guarded finding must be
/// reported by the lock-agnostic detector, then suppressed by the filter.
void confirm_finding(StaticRaceFinding& f) {
  std::vector<RaceReport> reports = detect_races_trace(f.witness);
  const RaceReport* hit = nullptr;
  for (const RaceReport& r : reports) {
    if (r.access_index == 2 && r.loc == f.witness_loc) {
      hit = &r;
      break;
    }
  }
  if (hit == nullptr) {
    std::ostringstream os;
    os << "dynamic detector reported " << reports.size()
       << " race(s) on the witness, none exposing access #2 at loc 0x"
       << std::hex << f.witness_loc;
    f.confirm_detail = os.str();
    return;
  }
  if (f.guarded || has_lock_events(f.witness)) {
    const TaskGraph graph = build_task_graph(f.witness);
    const HappensBeforeOracle oracle(graph);
    const GuardedFilterResult filtered =
        filter_guarded_races(f.witness, {*hit}, oracle);
    if (f.guarded) {
      if (filtered.suppressed != 1) {
        f.confirm_detail =
            "lockset filter kept a pair the static scan called guarded";
        return;
      }
      f.confirmed = true;  // guardedness is the claim; nothing to certify
      return;
    }
    if (filtered.reports.empty()) {
      f.confirm_detail =
          "lockset filter suppressed a pair the static scan called racy";
      return;
    }
  }
  for (const CertifiedReport& c : certify_races(f.witness, {*hit})) {
    if (!c.certified) {
      f.confirm_detail = "certifier found no independent witness pair";
      return;
    }
    if (c.certificate.prior_ordinal != 1 || c.certificate.racing_ordinal != 2) {
      std::ostringstream os;
      os << "certificate pins ordinals (" << c.certificate.prior_ordinal
         << ", " << c.certificate.racing_ordinal << "), expected (1, 2)";
      f.confirm_detail = os.str();
      return;
    }
    const CertificateCheck check = check_certificate(f.witness, c.certificate);
    if (!check.ok) {
      f.confirm_detail = "certificate re-check failed: " + check.reason;
      return;
    }
  }
  f.confirmed = true;
}

}  // namespace

std::string to_string(const StaticRaceFinding& f) {
  std::ostringstream os;
  os << "node " << f.prior_node << ' ' << kind_name(f.prior_kind)
     << " || node " << f.racing_node << ' ' << kind_name(f.racing_kind)
     << " over " << to_string(f.overlap) << " at loc 0x" << std::hex
     << f.witness_loc << std::dec << " (regions #" << f.prior_ordinal
     << ", #" << f.racing_ordinal << ")";
  if (f.guarded)
    os << " [guarded by mutex 0x" << std::hex << f.guard << std::dec << ']';
  if (f.confirmed) os << " [confirmed]";
  else if (!f.confirm_detail.empty()) os << " [UNCONFIRMED: " << f.confirm_detail << ']';
  return os.str();
}

std::vector<ConfigRacePair> scan_config_races(const ConfigModel& model) {
  const std::vector<RegionInstance>& regions = model.lowered.regions;
  // Segment the location line at every interval endpoint: within
  // [b, next_b) each region covers either everything or nothing, so the
  // per-location automaton runs once per segment.
  std::vector<Loc> bounds;
  bounds.reserve(regions.size() * 2);
  for (const RegionInstance& r : regions) {
    bounds.push_back(r.interval.lo);
    if (r.interval.hi != ~Loc{0}) bounds.push_back(r.interval.hi + 1);
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  std::vector<ConfigRacePair> out;
  FlatHashMap<std::uint64_t, std::uint8_t> seen;  // prior * N + racing
  const std::uint64_t n = regions.size();
  std::vector<const RegionInstance*> live;
  for (const Loc b : bounds) {
    live.clear();
    for (const RegionInstance& r : regions) {
      if (!r.interval.contains(b)) continue;
      if (r.kind == AccessKind::kRetire) {
        if (live.empty()) continue;  // dead retire: the detector skips it
        for (const RegionInstance* p : live) {
          if (!model.mhp(p->ordinal, r.ordinal)) continue;
          const std::uint64_t key = p->ordinal * n + r.ordinal;
          if (std::uint8_t* hit = seen.find(key); hit != nullptr) continue;
          seen[key] = 1;
          const Loc guard = common_mutex(p->lockset, r.lockset);
          out.push_back({p->ordinal, r.ordinal,
                         p->interval.intersection(r.interval), b, guard != 0,
                         guard});
        }
        live.clear();  // a counted retire closes the storage lifetime
        continue;
      }
      for (const RegionInstance* p : live) {
        if (!conflicting(p->kind, r.kind)) continue;
        if (!model.mhp(p->ordinal, r.ordinal)) continue;
        const std::uint64_t key = p->ordinal * n + r.ordinal;
        if (std::uint8_t* hit = seen.find(key); hit != nullptr) continue;
        seen[key] = 1;
        const Loc guard = common_mutex(p->lockset, r.lockset);
        out.push_back({p->ordinal, r.ordinal,
                       p->interval.intersection(r.interval), b, guard != 0,
                       guard});
      }
      live.push_back(&r);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ConfigRacePair& a, const ConfigRacePair& b) {
              return a.racing_ordinal != b.racing_ordinal
                         ? a.racing_ordinal < b.racing_ordinal
                         : a.prior_ordinal < b.prior_ordinal;
            });
  return out;
}

StaticRaceResult analyze_skeleton(const Skeleton& s,
                                  const StaticRaceOptions& options) {
  StaticRaceResult out;
  DisciplineOptions dopt;
  dopt.mode = options.mode;
  dopt.max_configs = options.max_configs;
  dopt.max_events = options.max_events;
  dopt.max_future_instances = options.max_future_instances;
  out.discipline = verify_discipline(s, dopt);
  LockAnalysisOptions lockopt;
  lockopt.mode = options.mode;
  lockopt.max_configs = options.max_configs;
  lockopt.max_events = options.max_events;
  lockopt.max_future_instances = options.max_future_instances;
  out.locks = verify_locks(s, lockopt);
  if (!validate_skeleton(s).ok()) return out;  // shape errors: no findings
  if (options.mode == DisciplineMode::kStrict && skeleton_traits(s).has_futures)
    return out;  // the discipline report carries S018; nothing to scan

  StaticMhpOptions mopt;
  mopt.mode = options.mode;
  mopt.max_configs = options.max_configs;
  mopt.max_events = options.max_events;
  mopt.max_future_instances = options.max_future_instances;
  const StaticMhpEngine engine(s, mopt);
  out.truncated = engine.truncated();
  out.configs_total = engine.configs_total();
  out.configs_scanned = engine.models().size();

  LowerOptions wopt;
  wopt.mode = LowerMode::kWitness;
  wopt.discipline = options.mode;
  wopt.max_events = options.max_events;
  wopt.max_future_instances = options.max_future_instances;
  // Dedup across configs and segments: one finding (the first witness) per
  // (prior node, racing node, kind, kind, guarded) tuple — the guarded bit
  // is part of the identity, so a pair that is guarded in one config and
  // exposed in another yields both verdicts.
  FlatHashMap<std::uint64_t, std::uint8_t> reported;
  const std::uint64_t node_count = index_skeleton(s).size();
  for (const auto& model : engine.models()) {
    for (const ConfigRacePair& pair : scan_config_races(*model)) {
      const RegionInstance& prior = model->lowered.regions[pair.prior_ordinal];
      const RegionInstance& racing =
          model->lowered.regions[pair.racing_ordinal];
      const std::uint64_t key =
          (((prior.node * node_count + racing.node) * 4 +
            static_cast<std::uint64_t>(prior.kind)) *
               4 +
           static_cast<std::uint64_t>(racing.kind)) *
              2 +
          (pair.guarded ? 1 : 0);
      if (std::uint8_t* hit = reported.find(key); hit != nullptr) continue;
      reported[key] = 1;

      StaticRaceFinding f;
      f.prior_node = prior.node;
      f.racing_node = racing.node;
      f.prior_kind = prior.kind;
      f.racing_kind = racing.kind;
      f.overlap = pair.overlap;
      f.config = model->config;
      f.prior_ordinal = pair.prior_ordinal;
      f.racing_ordinal = pair.racing_ordinal;
      f.witness_loc = pair.segment_lo;
      f.guarded = pair.guarded;
      f.guard = pair.guard;
      f.prior_lockset = prior.lockset;
      f.racing_lockset = racing.lockset;
      wopt.witness_prior = pair.prior_ordinal;
      wopt.witness_racing = pair.racing_ordinal;
      wopt.witness_loc = pair.segment_lo;
      LoweredTrace witness = lower_skeleton(s, model->config, wopt);
      R2D_ASSERT(witness.ok);  // same config lowered cleanly in kMarkers
      f.witness = std::move(witness.trace);
      if (options.confirm) confirm_finding(f);
      out.findings.push_back(std::move(f));
    }
  }
  return out;
}

AgreementResult check_static_dynamic_agreement(const Skeleton& s,
                                               const StaticRaceOptions& options,
                                               bool differential) {
  AgreementResult out;
  if (!validate_skeleton(s).ok()) {
    out.ok = false;
    out.failure = "skeleton has shape errors; nothing to compare";
    return out;
  }
  // Auto-upgrade: a future-bearing skeleton is only analyzable relaxed, so
  // the sweep switches modes instead of skipping the whole family.
  const DisciplineMode mode = skeleton_traits(s).has_futures
                                  ? DisciplineMode::kRelaxedFutures
                                  : options.mode;
  StaticMhpOptions mopt;
  mopt.mode = mode;
  mopt.max_configs = options.max_configs;
  mopt.max_events = options.max_events;
  mopt.max_future_instances = options.max_future_instances;
  const StaticMhpEngine engine(s, mopt);
  LowerOptions fopt;
  fopt.mode = LowerMode::kFull;
  fopt.discipline = mode;
  fopt.max_events = options.max_events;
  fopt.max_future_instances = options.max_future_instances;
  for (const auto& model : engine.models()) {
    LoweredTrace full = lower_skeleton(s, model->config, fopt);
    if (!full.ok) {
      if (full.violation == LintCode::kSkelBudgetExceeded)
        continue;  // too wide to replay exhaustively; not a disagreement
      // Markers mode lowered cleanly, full mode cannot violate more: the
      // modes share the structural stream.
      out.ok = false;
      out.failure = "kFull lowering violated where kMarkers passed under " +
                    to_string(s, model->config) + ": " + full.detail;
      return out;
    }
    const std::vector<ConfigRacePair> pairs = scan_config_races(*model);
    const bool static_race =
        std::any_of(pairs.begin(), pairs.end(),
                    [](const ConfigRacePair& p) { return !p.guarded; });
    bool dynamic_race = false;
    std::size_t dynamic_count = 0;
    std::string dynamic_first = "none";
    if (full.future_arcs.empty()) {
      // Lock-aware twin of detect_races_trace: guarded pairs are
      // suppressed by the same disjoint-lockset condition the static side
      // applied, so the verdicts stay comparable on lock families.
      const GuardedFilterResult filtered =
          detect_races_trace_guarded(full.trace);
      dynamic_race = !filtered.reports.empty();
      dynamic_count = filtered.reports.size();
      if (!filtered.reports.empty())
        dynamic_first = to_string(filtered.reports.front());
    } else {
      // The online detector sees only the trace's fork-join order; the
      // future→get edges live beside it. Judge the dynamic side with the
      // naive §2.3 detector over the AUGMENTED kFull task graph — the same
      // happens-before the static scan used, decided per location instead
      // of per segment — then lockset-filter with the augmented oracle.
      TaskGraph graph = build_task_graph(full.trace);
      augment_task_graph_with_futures(
          graph, full.trace, full.future_arcs,
          region_first_vertices_full(graph, full.trace, full.regions));
      NaiveResult naive = detect_races_naive(graph);
      std::vector<RaceReport> reports = std::move(naive.races);
      if (!reports.empty() && has_lock_events(full.trace)) {
        const HappensBeforeOracle oracle(graph);
        GuardedFilterResult filtered =
            filter_guarded_races(full.trace, reports, oracle);
        reports = std::move(filtered.reports);
      }
      dynamic_race = !reports.empty();
      dynamic_count = reports.size();
      if (!reports.empty()) dynamic_first = to_string(reports.front());
    }
    if (static_race != dynamic_race) {
      std::ostringstream os;
      os << "verdict mismatch under " << to_string(s, model->config)
         << ": static=" << (static_race ? "race" : "clean")
         << " dynamic=" << (dynamic_race ? "race" : "clean") << " ("
         << dynamic_count << " dynamic report(s), first: " << dynamic_first
         << ')';
      out.ok = false;
      out.failure = os.str();
      return out;
    }
    if (differential) {
      const DifferentialResult d =
          run_differential(full.trace, full.features);
      if (!d.ok) {
        out.ok = false;
        out.failure = "differential panel failed under " +
                      to_string(s, model->config) + ": " + d.failure;
        return out;
      }
    }
    if (static_race) ++out.racy_configs;
    ++out.configs_checked;
  }
  return out;
}

}  // namespace race2d

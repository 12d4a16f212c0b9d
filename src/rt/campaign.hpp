#pragma once
// Campaign layer of hemo-rt: turns the paper's evaluation matrix —
// {systems} x {programming models} x {apps} x {workloads} x {schedule
// points} — into a job graph and executes it concurrently on the
// work-stealing executor, with the expensive intermediates (workload
// voxelizations, decompositions, halo plans) shared through the
// ArtifactCache and per-point fault isolation through the job layer.
//
// Determinism: every (series, schedule point) job computes from the same
// inputs regardless of scheduling, and results are written into
// pre-assigned slots, so a campaign's output is bit-identical for any
// worker count — including 1, which is the serial path.
//
// Fault tolerance: a point whose job throws (or times out) is retried
// with backoff; if it still fails, the failure is captured on that point
// and the rest of the campaign completes normally.

#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/types.hpp"
#include "hal/model.hpp"
#include "perf/model.hpp"
#include "rt/cache.hpp"
#include "rt/executor.hpp"
#include "rt/job.hpp"
#include "sim/simulator.hpp"
#include "sys/hardware.hpp"

namespace hemo::rt {

// ---------------------------------------------------------------------------
// Workloads by name, so campaign specs are plain data.
// ---------------------------------------------------------------------------

enum class WorkloadKind { kCylinderSlab, kCylinderBisection, kAorta };

inline constexpr WorkloadKind kAllWorkloads[] = {
    WorkloadKind::kCylinderSlab, WorkloadKind::kCylinderBisection,
    WorkloadKind::kAorta};

std::string_view workload_name(WorkloadKind kind);

/// Builds the workload from scratch (voxelize + fresh stats memo): the
/// uncached serial path, and the producer behind the cached artifact.
sim::Workload make_workload(WorkloadKind kind);

/// The cached workload artifact: voxelized once per cache, shared by every
/// job that prices it.
std::shared_ptr<sim::Workload> shared_workload(ArtifactCache& cache,
                                               WorkloadKind kind);

/// The cached decomposition + halo-plan artifact of one rank count,
/// aliasing into the workload's stats memo (the returned pointer keeps the
/// workload alive).
std::shared_ptr<const sim::RankStats> shared_rank_stats(
    ArtifactCache& cache, const std::shared_ptr<sim::Workload>& workload,
    int n_ranks);

// ---------------------------------------------------------------------------
// Campaign specification.
// ---------------------------------------------------------------------------

/// One curve of the evaluation matrix: a (system, model, app, workload)
/// combination priced over the system's full piecewise schedule.
struct SeriesSpec {
  sys::SystemId system = sys::SystemId::kSummit;
  hal::Model model = hal::Model::kCuda;
  sim::App app = sim::App::kHarvey;
  WorkloadKind workload = WorkloadKind::kCylinderBisection;
};

/// "Summit/CUDA/HARVEY/cylinder-bisection" — job names and report rows.
std::string series_label(const SeriesSpec& spec);

struct CampaignSpec {
  std::string name = "campaign";
  std::vector<SeriesSpec> series;
  int workers = 0;  // <= 0: hardware concurrency
  /// Per-point timeout/retry defaults; JobOptions::name is overridden with
  /// the point's label.
  JobOptions job;
  /// Optional override for workload acquisition (bench shared statics,
  /// ablation variants).  When set, the campaign does not consult the
  /// artifact cache for workloads; the provider's workload must outlive
  /// the campaign AND the cache (its rank stats are cached by reference).
  std::function<std::shared_ptr<sim::Workload>(const SeriesSpec&)>
      workload_provider;
  /// Test hook, called at the start of every attempt; throwing fails the
  /// attempt (used to seed faults in the retry tests).
  std::function<void(const SeriesSpec&, const sys::SchedulePoint&,
                     int attempt)>
      fault_injector;
  /// Statically validates every series' workload before pricing it: a
  /// small decomposition of the measured lattice is built and run through
  /// DistributedSolver::validate() (lattice, partition and halo-exchange
  /// checkers, rules LC001-LC010).  Error diagnostics become structured
  /// failures on every point of the offending series — the campaign
  /// completes and reports them instead of pricing a corrupted geometry.
  bool preflight = false;
  int preflight_ranks = 4;
};

// ---------------------------------------------------------------------------
// Campaign results.
// ---------------------------------------------------------------------------

struct PointResult {
  sys::SchedulePoint schedule;
  sim::SimPoint sim;            // valid iff ok()
  perf::Prediction prediction;  // valid iff ok()
  int attempts = 0;
  std::optional<JobFailure> failure;

  bool ok() const { return !failure.has_value(); }
};

struct SeriesResult {
  SeriesSpec spec;
  std::vector<PointResult> points;  // schedule order
};

// ---------------------------------------------------------------------------
// Point-level pricing: the unit of work both run_campaign and the
// hemo-serve dispatcher execute.  Factored out so the serving tier prices
// points through literally the same code path as the batch campaign —
// the byte-identical-output guarantee between the two rests on this.
// ---------------------------------------------------------------------------

/// The optional per-point hooks of CampaignSpec, bundled so price_point
/// can be called outside a campaign (the serving tier passes none).
struct PointHooks {
  std::function<std::shared_ptr<sim::Workload>(const SeriesSpec&)>
      workload_provider;
  std::function<void(const SeriesSpec&, const sys::SchedulePoint&,
                     int attempt)>
      fault_injector;
};

/// Canonical identity of one evaluation point — the coalescing and
/// result-memo key of the serving tier:
/// "point/Summit/CUDA/HARVEY/aorta/devices=64/size=2".
std::string point_key(const SeriesSpec& series,
                      const sys::SchedulePoint& schedule);

/// The structured failure a series gets when the study never evaluated
/// its model on its system (attempts = 0, one message per point);
/// nullopt when the combination is available.
std::optional<JobFailure> unavailable_failure(const SeriesSpec& series);

/// Prices one (series, schedule point) with job-level retry/timeout and
/// artifact sharing through `cache`.  Never throws: a failed job is
/// captured on the returned PointResult.  Availability is NOT checked
/// here (see unavailable_failure).
PointResult price_point(ArtifactCache& cache, const SeriesSpec& series,
                        const sys::SchedulePoint& schedule,
                        const JobOptions& job, const PointHooks& hooks = {});

struct CampaignResult {
  std::string name;
  int workers = 0;
  double wall_s = 0.0;
  std::vector<SeriesResult> series;  // spec order
  ArtifactCache::Stats cache;                 // aggregate across shards
  std::vector<ArtifactCache::Stats> cache_shards;  // per lock stripe
  Executor::Stats executor;

  /// Optional pre-rendered JSON object from the hemo-flux static traffic
  /// audit (analysis::traffic_audit_json).  Filled by the campaign tool,
  /// not by run_campaign — rt stays independent of the analysis layer.
  /// When non-empty, write_campaign_json emits it as "traffic_audit".
  std::string traffic_audit_json;

  std::size_t total_points() const;
  std::size_t failed_points() const;
  /// The captured failures, in deterministic (series, point) order.
  std::vector<JobFailure> failures() const;
};

/// Runs the campaign on a private artifact cache.
CampaignResult run_campaign(const CampaignSpec& spec);

/// Runs the campaign sharing `cache` (e.g. across several campaigns or
/// with the bench layer's process-wide cache).
CampaignResult run_campaign(const CampaignSpec& spec, ArtifactCache& cache);

// ---------------------------------------------------------------------------
// Figure matrices and spec parsing.
// ---------------------------------------------------------------------------

/// The full evaluation matrix behind one of the paper's figures: "fig3",
/// "fig4", "fig5", "fig6", "fig7", or "all" (their concatenation).
/// Aborts on an unknown figure name (use known_figures() to validate).
std::vector<SeriesSpec> figure_matrix(std::string_view figure);
std::vector<std::string> known_figures();

bool parse_system(std::string_view text, sys::SystemId* out);
bool parse_model(std::string_view text, hal::Model* out);
bool parse_app(std::string_view text, sim::App* out);
bool parse_workload(std::string_view text, WorkloadKind* out);

/// "system:model:app:workload", e.g. "crusher:hip:harvey:aorta".  The app
/// and workload parts are optional ("crusher:hip" prices HARVEY on the
/// bisection cylinder).
bool parse_series(std::string_view text, SeriesSpec* out);

// ---------------------------------------------------------------------------
// Result sinks.
// ---------------------------------------------------------------------------

/// One CSV row per (series, point) with status/attempts/error columns.
void write_campaign_csv(const CampaignResult& result, std::ostream& os);

/// Full structured dump: campaign metadata, cache/executor counters, and
/// every point (failures included).
void write_campaign_json(const CampaignResult& result, std::ostream& os);

// The one JSON writer of each runtime record, shared by the campaign JSON
// and serve's wire events.  *_members writers omit the enclosing braces.

/// "devices", "size_multiplier", "attempts", "status", then "mflups",
/// "iteration_s" and "predicted_mflups", or "error".
void write_point_members(const PointResult& point, std::ostream& os);
/// "hits", "misses", "evictions" and "entries".
void write_cache_members(const ArtifactCache::Stats& stats, std::ostream& os);
/// The whole object: {"submitted": ..., "queue_high_watermark": ...}.
void write_executor_json(const Executor::Stats& stats, std::ostream& os);

}  // namespace hemo::rt

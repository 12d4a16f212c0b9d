#include "rt/campaign.hpp"

#include <cctype>
#include <chrono>
#include <ostream>
#include <stdexcept>

#include "analysis/diagnostics.hpp"
#include "base/contracts.hpp"
#include "base/format.hpp"
#include "base/table.hpp"
#include "decomp/partition.hpp"
#include "harvey/distributed_solver.hpp"
#include "sim/profiles.hpp"

namespace hemo::rt {

namespace {

std::string lower(std::string_view text) {
  std::string out(text);
  for (char& c : out)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string_view system_token(sys::SystemId id) {
  switch (id) {
    case sys::SystemId::kSummit: return "summit";
    case sys::SystemId::kPolaris: return "polaris";
    case sys::SystemId::kCrusher: return "crusher";
    case sys::SystemId::kSunspot: return "sunspot";
  }
  return "?";
}

std::string_view app_name(sim::App app) {
  return app == sim::App::kHarvey ? "HARVEY" : "ProxyApp";
}

struct Priced {
  sim::SimPoint sim;
  perf::Prediction prediction;
};

/// Preflight validation: decomposes the measured lattice the way the
/// workload itself would and runs the distributed solver's static
/// validators.  Returns "" when clean, else a one-line summary of the
/// error diagnostics (warnings do not fail a series).
std::string preflight_errors(const sim::Workload& workload, int ranks) {
  const std::shared_ptr<const lbm::SparseLattice> lattice =
      workload.lattice_ptr();
  const int r = std::max<int>(
      1, std::min<std::int64_t>(ranks, lattice->size()));
  decomp::Partition partition =
      workload.kind() == sim::DecompositionKind::kSlab
          ? decomp::slab_partition(*lattice, r)
          : decomp::bisection_partition(*lattice, r);
  const harvey::DistributedSolver solver(lattice, std::move(partition),
                                         lbm::SolverOptions{});
  const std::vector<analysis::Diagnostic> diagnostics = solver.validate();
  const int errors =
      analysis::count_at(diagnostics, analysis::Severity::kError);
  if (errors == 0) return "";
  std::string msg = "preflight: " + std::to_string(errors) +
                    " validation error(s) on workload '" + workload.name() +
                    "' at " + std::to_string(r) + " ranks";
  for (const analysis::Diagnostic& d : diagnostics) {
    if (d.severity != analysis::Severity::kError) continue;
    msg += "; first: [" + d.rule_id + "] " + d.message;
    break;
  }
  return msg;
}

}  // namespace

std::string_view workload_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kCylinderSlab: return "cylinder-slab";
    case WorkloadKind::kCylinderBisection: return "cylinder-bisection";
    case WorkloadKind::kAorta: return "aorta";
  }
  return "?";
}

sim::Workload make_workload(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kCylinderSlab:
      return sim::Workload::cylinder(sim::DecompositionKind::kSlab);
    case WorkloadKind::kCylinderBisection:
      return sim::Workload::cylinder(sim::DecompositionKind::kBisection);
    case WorkloadKind::kAorta:
      return sim::Workload::aorta();
  }
  HEMO_ASSERT(false);  // unreachable
  return sim::Workload::aorta();
}

std::shared_ptr<sim::Workload> shared_workload(ArtifactCache& cache,
                                               WorkloadKind kind) {
  const std::string key =
      canonical_key({"workload", std::string(workload_name(kind))});
  return cache.get_or_compute<sim::Workload>(key, [kind] {
    return std::make_shared<sim::Workload>(make_workload(kind));
  });
}

std::shared_ptr<const sim::RankStats> shared_rank_stats(
    ArtifactCache& cache, const std::shared_ptr<sim::Workload>& workload,
    int n_ranks) {
  HEMO_EXPECTS(workload != nullptr);
  // measured_points disambiguates workloads that share a name but were
  // built at different measurement resolutions within one process.
  const std::string key = canonical_key(
      {"stats", workload->name(),
       "points=" + std::to_string(workload->measured_points()),
       "ranks=" + std::to_string(n_ranks)});
  return cache.get_or_compute<const sim::RankStats>(key, [&] {
    // Aliasing: the artifact points into the workload's own stats memo
    // and shares ownership of the workload.
    return std::shared_ptr<const sim::RankStats>(workload,
                                                 &workload->stats(n_ranks));
  });
}

std::string series_label(const SeriesSpec& spec) {
  std::string label = sys::system_spec(spec.system).name;
  label += '/';
  label += hal::name_of(spec.model);
  label += '/';
  label += app_name(spec.app);
  label += '/';
  label += workload_name(spec.workload);
  return label;
}

std::string point_key(const SeriesSpec& series,
                      const sys::SchedulePoint& schedule) {
  return canonical_key({"point", series_label(series),
                        "devices=" + std::to_string(schedule.devices),
                        "size=" + std::to_string(schedule.size_multiplier)});
}

std::optional<JobFailure> unavailable_failure(const SeriesSpec& series) {
  if (sim::model_available(series.system, series.model)) return std::nullopt;
  return JobFailure{series_label(series), 0, false,
                    std::string(hal::name_of(series.model)) +
                        " was not evaluated on " +
                        sys::system_spec(series.system).name +
                        " in the study"};
}

PointResult price_point(ArtifactCache& cache, const SeriesSpec& series,
                        const sys::SchedulePoint& schedule,
                        const JobOptions& job, const PointHooks& hooks) {
  PointResult out;
  out.schedule = schedule;

  JobOptions options = job;
  options.name = series_label(series) +
                 "/devices=" + std::to_string(schedule.devices) +
                 "/size=" + std::to_string(schedule.size_multiplier);

  JobOutcome<Priced> outcome =
      run_job<Priced>(options, [&](int attempt) -> Priced {
        if (hooks.fault_injector)
          hooks.fault_injector(series, schedule, attempt);
        const std::shared_ptr<sim::Workload> workload =
            hooks.workload_provider ? hooks.workload_provider(series)
                                    : shared_workload(cache, series.workload);
        // Warm the shared decomposition/halo artifact through the
        // instrumented cache; simulate() then hits the workload's
        // own memo for the same rank count.
        shared_rank_stats(cache, workload, schedule.devices);
        const sim::ClusterSimulator simulator(series.system, series.model,
                                              series.app);
        Priced priced;
        priced.sim = simulator.simulate(*workload, schedule.devices,
                                        schedule.size_multiplier);
        priced.prediction = simulator.predict(*workload, schedule.devices,
                                              schedule.size_multiplier);
        return priced;
      });

  out.attempts = outcome.attempts;
  if (outcome.ok()) {
    out.sim = outcome.value->sim;
    out.prediction = outcome.value->prediction;
  } else {
    out.failure = std::move(outcome.failure);
  }
  return out;
}

std::size_t CampaignResult::total_points() const {
  std::size_t n = 0;
  for (const SeriesResult& s : series) n += s.points.size();
  return n;
}

std::size_t CampaignResult::failed_points() const {
  std::size_t n = 0;
  for (const SeriesResult& s : series)
    for (const PointResult& p : s.points)
      if (!p.ok()) ++n;
  return n;
}

std::vector<JobFailure> CampaignResult::failures() const {
  std::vector<JobFailure> out;
  for (const SeriesResult& s : series)
    for (const PointResult& p : s.points)
      if (p.failure) out.push_back(*p.failure);
  return out;
}

CampaignResult run_campaign(const CampaignSpec& spec) {
  ArtifactCache cache;
  return run_campaign(spec, cache);
}

CampaignResult run_campaign(const CampaignSpec& spec, ArtifactCache& cache) {
  using clock = std::chrono::steady_clock;
  const clock::time_point start = clock::now();

  CampaignResult out;
  out.name = spec.name;

  // Pre-assign every result slot so the output layout is fixed before any
  // job runs: ordering is (series, schedule point), independent of worker
  // count and steal pattern.
  out.series.resize(spec.series.size());
  for (std::size_t s = 0; s < spec.series.size(); ++s) {
    out.series[s].spec = spec.series[s];
    const std::vector<sys::SchedulePoint> schedule = sys::piecewise_schedule(
        sys::system_spec(spec.series[s].system).max_devices);
    out.series[s].points.resize(schedule.size());
    for (std::size_t k = 0; k < schedule.size(); ++k)
      out.series[s].points[k].schedule = schedule[k];
  }

  Executor executor({spec.workers, /*queue_capacity=*/4096});
  out.workers = executor.workers();

  for (std::size_t s = 0; s < out.series.size(); ++s) {
    const SeriesSpec& series = out.series[s].spec;

    // A model the study never ran on this system is a structured failure
    // of the whole series, not an abort (profile_for's contract would
    // otherwise kill the process).
    if (const std::optional<JobFailure> unavailable =
            unavailable_failure(series)) {
      for (PointResult& point : out.series[s].points)
        point.failure = unavailable;
      continue;
    }

    if (spec.preflight) {
      // Validation failures are structured, per-series, and non-fatal to
      // the rest of the campaign — exactly like any other point failure.
      std::string error;
      try {
        const std::shared_ptr<sim::Workload> workload =
            spec.workload_provider ? spec.workload_provider(series)
                                   : shared_workload(cache, series.workload);
        error = preflight_errors(*workload, spec.preflight_ranks);
      } catch (const std::exception& ex) {
        error = std::string("preflight: ") + ex.what();
      }
      if (!error.empty()) {
        for (PointResult& point : out.series[s].points)
          point.failure = JobFailure{series_label(series), 0, false, error};
        continue;
      }
    }

    for (PointResult& point : out.series[s].points) {
      PointResult* slot = &point;
      executor.submit([&spec, &cache, &series, slot] {
        PointHooks hooks;
        hooks.workload_provider = spec.workload_provider;
        hooks.fault_injector = spec.fault_injector;
        *slot = price_point(cache, series, slot->schedule, spec.job, hooks);
      });
    }
  }

  executor.wait_idle();
  out.executor = executor.stats();
  executor.shutdown();
  out.cache = cache.stats();
  out.cache_shards = cache.shard_stats();
  out.wall_s = std::chrono::duration<double>(clock::now() - start).count();
  return out;
}

std::vector<SeriesSpec> figure_matrix(std::string_view figure) {
  const std::string name = lower(figure);
  std::vector<SeriesSpec> specs;

  if (name == "all") {
    for (const std::string& f : known_figures()) {
      if (f == "all") continue;
      const std::vector<SeriesSpec> part = figure_matrix(f);
      specs.insert(specs.end(), part.begin(), part.end());
    }
    return specs;
  }

  if (name == "fig3") {
    // Native models on the cylinder, HARVEY and proxy (hardware panels).
    for (const sys::SystemId id : sys::kAllSystems) {
      const sys::SystemSpec& spec = sys::system_spec(id);
      specs.push_back({id, spec.native_model, sim::App::kHarvey,
                       WorkloadKind::kCylinderBisection});
      specs.push_back({id, spec.native_model, sim::App::kProxy,
                       WorkloadKind::kCylinderBisection});
    }
    return specs;
  }
  if (name == "fig4") {
    // Native models on the aorta, HARVEY only.
    for (const sys::SystemId id : sys::kAllSystems)
      specs.push_back({id, sys::system_spec(id).native_model,
                       sim::App::kHarvey, WorkloadKind::kAorta});
    return specs;
  }
  if (name == "fig5") {
    // Every backend on the cylinder, both apps (software panels).
    for (const sys::SystemId id : sys::kAllSystems)
      for (const sim::App app : {sim::App::kHarvey, sim::App::kProxy})
        for (const hal::Model model : sys::system_spec(id).harvey_models)
          specs.push_back({id, model, app, WorkloadKind::kCylinderBisection});
    return specs;
  }
  if (name == "fig6") {
    // Every backend on the aorta, HARVEY only.
    for (const sys::SystemId id : sys::kAllSystems)
      for (const hal::Model model : sys::system_spec(id).harvey_models)
        specs.push_back({id, model, sim::App::kHarvey, WorkloadKind::kAorta});
    return specs;
  }
  if (name == "fig7") {
    // Runtime composition: native HARVEY aorta on the Fig. 7 systems.
    for (const sys::SystemId id :
         {sys::SystemId::kPolaris, sys::SystemId::kCrusher,
          sys::SystemId::kSunspot})
      specs.push_back({id, sys::system_spec(id).native_model,
                       sim::App::kHarvey, WorkloadKind::kAorta});
    return specs;
  }

  HEMO_EXPECTS(false && "unknown figure name");
  return specs;
}

std::vector<std::string> known_figures() {
  return {"fig3", "fig4", "fig5", "fig6", "fig7", "all"};
}

bool parse_system(std::string_view text, sys::SystemId* out) {
  const std::string name = lower(text);
  for (const sys::SystemId id : sys::kAllSystems)
    if (name == system_token(id)) {
      *out = id;
      return true;
    }
  return false;
}

bool parse_model(std::string_view text, hal::Model* out) {
  const std::string name = lower(text);
  for (const hal::Model m : hal::kAllModels)
    if (name == lower(hal::name_of(m))) {
      *out = m;
      return true;
    }
  return false;
}

bool parse_app(std::string_view text, sim::App* out) {
  const std::string name = lower(text);
  if (name == "harvey") {
    *out = sim::App::kHarvey;
    return true;
  }
  if (name == "proxy" || name == "proxyapp") {
    *out = sim::App::kProxy;
    return true;
  }
  return false;
}

bool parse_workload(std::string_view text, WorkloadKind* out) {
  const std::string name = lower(text);
  if (name == "cylinder" || name == "cylinder-bisection") {
    *out = WorkloadKind::kCylinderBisection;
    return true;
  }
  if (name == "cylinder-slab") {
    *out = WorkloadKind::kCylinderSlab;
    return true;
  }
  if (name == "aorta") {
    *out = WorkloadKind::kAorta;
    return true;
  }
  return false;
}

bool parse_series(std::string_view text, SeriesSpec* out) {
  std::vector<std::string> parts;
  std::string current;
  for (const char c : text) {
    if (c == ':') {
      parts.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  parts.push_back(current);
  if (parts.size() < 2 || parts.size() > 4) return false;

  SeriesSpec spec;
  if (!parse_system(parts[0], &spec.system)) return false;
  if (!parse_model(parts[1], &spec.model)) return false;
  if (parts.size() >= 3 && !parse_app(parts[2], &spec.app)) return false;
  if (parts.size() >= 4 && !parse_workload(parts[3], &spec.workload))
    return false;
  *out = spec;
  return true;
}

void write_campaign_csv(const CampaignResult& result, std::ostream& os) {
  Table table({"campaign", "system", "model", "app", "workload", "devices",
               "size_multiplier", "status", "attempts", "mflups",
               "iteration_s", "predicted_mflups", "error"});
  for (const SeriesResult& series : result.series) {
    const sys::SystemSpec& sys_spec = sys::system_spec(series.spec.system);
    for (const PointResult& p : series.points) {
      const bool ok = p.ok();
      table.add_row(
          {result.name, sys_spec.name, std::string(hal::name_of(series.spec.model)),
           std::string(app_name(series.spec.app)),
           std::string(workload_name(series.spec.workload)),
           std::to_string(p.schedule.devices),
           std::to_string(p.schedule.size_multiplier),
           !ok ? (p.failure->timed_out ? "timeout" : "failed") : "ok",
           std::to_string(p.attempts), ok ? fmt_double(p.sim.mflups) : "",
           ok ? fmt_double(p.sim.iteration_s) : "",
           ok ? fmt_double(p.prediction.mflups) : "",
           ok ? "" : p.failure->message});
    }
  }
  table.print_csv(os);
}

void write_point_members(const PointResult& point, std::ostream& os) {
  os << "\"devices\": " << point.schedule.devices
     << ", \"size_multiplier\": " << point.schedule.size_multiplier
     << ", \"attempts\": " << point.attempts;
  if (point.ok()) {
    os << ", \"status\": \"ok\", \"mflups\": " << fmt_double(point.sim.mflups)
       << ", \"iteration_s\": " << fmt_double(point.sim.iteration_s)
       << ", \"predicted_mflups\": " << fmt_double(point.prediction.mflups);
  } else {
    os << ", \"status\": \""
       << (point.failure->timed_out ? "timeout" : "failed")
       << "\", \"error\": \"" << json_escape(point.failure->message) << "\"";
  }
}

void write_cache_members(const ArtifactCache::Stats& stats, std::ostream& os) {
  os << "\"hits\": " << stats.hits << ", \"misses\": " << stats.misses
     << ", \"evictions\": " << stats.evictions
     << ", \"entries\": " << stats.entries;
}

void write_executor_json(const Executor::Stats& stats, std::ostream& os) {
  os << "{\"submitted\": " << stats.submitted
     << ", \"executed\": " << stats.executed << ", \"stolen\": " << stats.stolen
     << ", \"queue_high_watermark\": " << stats.queue_high_watermark << "}";
}

void write_campaign_json(const CampaignResult& result, std::ostream& os) {
  os << "{\n";
  os << "  \"campaign\": \"" << json_escape(result.name) << "\",\n";
  os << "  \"workers\": " << result.workers << ",\n";
  os << "  \"wall_s\": " << fmt_double(result.wall_s) << ",\n";
  os << "  \"points\": " << result.total_points() << ",\n";
  os << "  \"failed_points\": " << result.failed_points() << ",\n";
  os << "  \"cache\": {";
  write_cache_members(result.cache, os);
  os << ", \"hit_rate\": " << fmt_double(result.cache.hit_rate());
  if (!result.cache_shards.empty()) {
    os << ",\n    \"shards\": [";
    for (std::size_t i = 0; i < result.cache_shards.size(); ++i) {
      os << (i ? ",\n               " : "") << "{";
      write_cache_members(result.cache_shards[i], os);
      os << "}";
    }
    os << "]";
  }
  os << "},\n";
  os << "  \"executor\": ";
  write_executor_json(result.executor, os);
  os << ",\n";
  if (!result.traffic_audit_json.empty())
    os << "  \"traffic_audit\": " << result.traffic_audit_json << ",\n";
  os << "  \"series\": [\n";
  for (std::size_t s = 0; s < result.series.size(); ++s) {
    const SeriesResult& series = result.series[s];
    os << "    {\"system\": \""
       << json_escape(sys::system_spec(series.spec.system).name)
       << "\", \"model\": \"" << hal::name_of(series.spec.model)
       << "\", \"app\": \"" << app_name(series.spec.app)
       << "\", \"workload\": \"" << workload_name(series.spec.workload)
       << "\",\n     \"points\": [\n";
    for (std::size_t k = 0; k < series.points.size(); ++k) {
      os << "      {";
      write_point_members(series.points[k], os);
      os << "}" << (k + 1 < series.points.size() ? "," : "") << "\n";
    }
    os << "     ]}" << (s + 1 < result.series.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace hemo::rt

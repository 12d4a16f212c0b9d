// hemo_campaign: CLI driver for the hemo::rt campaign runtime.
//
//   hemo_campaign --figure [fig3|fig4|fig5|fig6|fig7|all]
//                 [--series system:model[:app[:workload]]]...
//                 [--workers N] [--retries N] [--timeout-ms N]
//                 [--name NAME] [--csv FILE|-] [--json FILE|-]
//                 [--preflight [RANKS]] [--traffic-audit] [--quiet]
//                 [--strict]
//       Price an evaluation matrix concurrently on the work-stealing
//       executor with artifact caching and per-point retry.  --figure and
//       --series compose (figure matrix first, then extra series).  A
//       failed point is reported, not fatal; --strict exits nonzero when
//       any point failed.  --preflight statically validates each series'
//       workload (DistributedSolver::validate, rules LC001-LC010) before
//       pricing; validation errors become structured failures on the
//       series' points.  --traffic-audit embeds the hemo-flux static
//       memory-traffic report (per-dialect bytes/point vs the Section 6
//       model) as a "traffic_audit" block in the --json output.
//
//   hemo_campaign --list
//       Print the known figures, systems, models, apps and workloads.
//
// Examples:
//   hemo_campaign --figure fig5 --workers 8 --csv fig5.csv
//   hemo_campaign --series crusher:hip:harvey:aorta --json -

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/flux_rules.hpp"
#include "base/parse.hpp"
#include "base/table.hpp"
#include "perf/model.hpp"
#include "rt/campaign.hpp"
#include "sim/profiles.hpp"

namespace {

using namespace hemo;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--figure fig3|fig4|fig5|fig6|fig7|all]\n"
      "       %*s [--series system:model[:app[:workload]]]...\n"
      "       %*s [--workers N] [--retries N] [--timeout-ms N]\n"
      "       %*s [--name NAME] [--csv FILE|-] [--json FILE|-]\n"
      "       %*s [--preflight [RANKS]] [--traffic-audit] [--quiet] "
      "[--strict]\n"
      "       %s --list\n",
      argv0, static_cast<int>(std::strlen(argv0)), "",
      static_cast<int>(std::strlen(argv0)), "",
      static_cast<int>(std::strlen(argv0)), "",
      static_cast<int>(std::strlen(argv0)), "", argv0);
  return 2;
}

int list_vocabulary() {
  std::cout << "figures:  ";
  for (const std::string& f : rt::known_figures()) std::cout << f << ' ';
  std::cout << "\nsystems:  summit polaris crusher sunspot\n";
  std::cout << "models:   ";
  for (const hal::Model m : hal::kAllModels)
    std::cout << hal::name_of(m) << ' ';
  std::cout << "\napps:     harvey proxy\n";
  std::cout << "workloads: ";
  for (const rt::WorkloadKind w : rt::kAllWorkloads)
    std::cout << rt::workload_name(w) << ' ';
  std::cout << "\n\navailability (system: models evaluated in the study):\n";
  for (const sys::SystemId id : sys::kAllSystems) {
    std::cout << "  " << sys::system_spec(id).name << ":";
    for (const hal::Model m : hal::kAllModels)
      if (sim::model_available(id, m)) std::cout << ' ' << hal::name_of(m);
    std::cout << '\n';
  }
  return 0;
}

/// Writes a sink to `path` ("-" for stdout); returns false on I/O failure.
template <class WriteFn>
bool write_sink(const std::string& path, const char* what, WriteFn&& write) {
  if (path == "-") {
    write(std::cout);
    return true;
  }
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "hemo_campaign: cannot open %s file '%s'\n", what,
                 path.c_str());
    return false;
  }
  write(os);
  return os.good();
}

void print_summary(const rt::CampaignResult& result) {
  Table table({"Series", "Points", "OK", "Failed", "Min MFLUPS",
               "Max MFLUPS"});
  for (const rt::SeriesResult& series : result.series) {
    std::size_t ok = 0;
    double lo = 0.0, hi = 0.0;
    for (const rt::PointResult& p : series.points) {
      if (!p.ok()) continue;
      if (ok == 0) {
        lo = hi = p.sim.mflups;
      } else {
        lo = std::min(lo, p.sim.mflups);
        hi = std::max(hi, p.sim.mflups);
      }
      ++ok;
    }
    table.add_row({rt::series_label(series.spec),
                   std::to_string(series.points.size()), std::to_string(ok),
                   std::to_string(series.points.size() - ok),
                   ok ? Table::num(lo, 0) : "-", ok ? Table::num(hi, 0) : "-"});
  }
  table.print_aligned(std::cout);
  std::cout << "\ncampaign '" << result.name << "': "
            << result.total_points() << " points, "
            << result.failed_points() << " failed, " << result.workers
            << " workers, wall " << Table::num(result.wall_s, 3) << " s\n";
  std::cout << "cache: " << result.cache.hits << " hits / "
            << result.cache.misses << " misses ("
            << Table::num(100.0 * result.cache.hit_rate(), 1)
            << "% hit rate), " << result.cache.evictions << " evictions, "
            << result.cache_shards.size() << " shard(s)\n";
  std::cout << "executor: " << result.executor.executed << " jobs executed, "
            << result.executor.stolen << " stolen, queue high watermark "
            << result.executor.queue_high_watermark << "\n";
  for (const rt::JobFailure& failure : result.failures())
    std::cout << "  " << rt::describe(failure) << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  std::string figure;
  std::vector<rt::SeriesSpec> series;
  std::string name = "campaign";
  std::string csv_path;
  std::string json_path;
  int workers = 0;
  int retries = -1;
  int timeout_ms = -1;
  bool quiet = false;
  bool strict = false;
  bool preflight = false;
  bool traffic_audit = false;
  int preflight_ranks = 4;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--list") return list_vocabulary();
    if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "--figure") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      figure = v;
      bool known = false;
      for (const std::string& f : rt::known_figures()) known |= (f == figure);
      if (!known) {
        std::fprintf(stderr, "unknown figure '%s' (try --list)\n", v);
        return 2;
      }
    } else if (arg == "--series") {
      const char* v = value();
      rt::SeriesSpec spec;
      if (v == nullptr || !rt::parse_series(v, &spec)) {
        std::fprintf(stderr,
                     "bad --series '%s'; expected "
                     "system:model[:app[:workload]] (try --list)\n",
                     v == nullptr ? "" : v);
        return 2;
      }
      series.push_back(spec);
    } else if (arg == "--name") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      name = v;
    } else if (arg == "--csv") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      csv_path = v;
    } else if (arg == "--json") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      json_path = v;
    } else if (arg == "--workers") {
      const char* v = value();
      if (v == nullptr || !parse_int(v, &workers) || workers < 0)
        return usage(argv[0]);
    } else if (arg == "--retries") {
      const char* v = value();
      if (v == nullptr || !parse_int(v, &retries) || retries < 0)
        return usage(argv[0]);
    } else if (arg == "--preflight") {
      preflight = true;
      // Optional rank-count operand; leave it for the next iteration when
      // the following token is another flag.
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        const char* v = value();
        if (!parse_int(v, &preflight_ranks) || preflight_ranks < 1)
          return usage(argv[0]);
      }
    } else if (arg == "--traffic-audit") {
      traffic_audit = true;
    } else if (arg == "--timeout-ms") {
      const char* v = value();
      if (v == nullptr || !parse_int(v, &timeout_ms) || timeout_ms < 0)
        return usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }

  rt::CampaignSpec spec;
  spec.name = name;
  if (!figure.empty()) spec.series = rt::figure_matrix(figure);
  spec.series.insert(spec.series.end(), series.begin(), series.end());
  if (spec.series.empty()) {
    std::fprintf(stderr, "nothing to run: pass --figure and/or --series\n");
    return usage(argv[0]);
  }
  spec.workers = workers;
  spec.preflight = preflight;
  spec.preflight_ranks = preflight_ranks;
  if (retries >= 0) spec.job.retry.max_attempts = retries + 1;
  if (timeout_ms >= 0)
    spec.job.timeout = std::chrono::milliseconds(timeout_ms);

  // The CLI prices on a sharded cache — the serving-tier configuration —
  // so the per-shard stats block in --json reflects real lock striping.
  rt::ArtifactCache cache(/*capacity=*/256, /*shards=*/16);
  rt::CampaignResult result = rt::run_campaign(spec, cache);
  if (traffic_audit)
    result.traffic_audit_json =
        analysis::traffic_audit_json(perf::ModelParams{});

  if (!quiet) print_summary(result);

  bool sinks_ok = true;
  if (!csv_path.empty())
    sinks_ok &= write_sink(csv_path, "csv", [&](std::ostream& os) {
      rt::write_campaign_csv(result, os);
    });
  if (!json_path.empty())
    sinks_ok &= write_sink(json_path, "json", [&](std::ostream& os) {
      rt::write_campaign_json(result, os);
    });

  if (!sinks_ok) return 1;
  if (strict && result.failed_points() > 0) return 1;
  return 0;
}

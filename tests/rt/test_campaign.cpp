// Campaign layer: deterministic results at any worker count, seeded-fault
// retry, structured failure capture, figure matrices, spec parsing, and
// the CSV/JSON sinks.

#include "rt/campaign.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace hemo::rt {
namespace {

/// A small but non-trivial matrix: two systems, both apps, one cylinder
/// workload — enough jobs to exercise stealing and cache sharing.
std::vector<SeriesSpec> small_matrix() {
  return {
      {sys::SystemId::kSummit, hal::Model::kCuda, sim::App::kHarvey,
       WorkloadKind::kCylinderBisection},
      {sys::SystemId::kCrusher, hal::Model::kHip, sim::App::kProxy,
       WorkloadKind::kCylinderBisection},
  };
}

CampaignResult run_small(int workers) {
  CampaignSpec spec;
  spec.name = "test";
  spec.series = small_matrix();
  spec.workers = workers;
  ArtifactCache cache;  // private per run: runs share nothing
  return run_campaign(spec, cache);
}

TEST(Campaign, BitIdenticalResultsAtAnyWorkerCount) {
  const CampaignResult serial = run_small(1);
  ASSERT_EQ(serial.failed_points(), 0u);
  ASSERT_GT(serial.total_points(), 0u);

  for (const int workers : {2, 8}) {
    const CampaignResult concurrent = run_small(workers);
    ASSERT_EQ(concurrent.series.size(), serial.series.size());
    for (std::size_t s = 0; s < serial.series.size(); ++s) {
      const auto& a = serial.series[s].points;
      const auto& b = concurrent.series[s].points;
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t k = 0; k < a.size(); ++k) {
        ASSERT_TRUE(b[k].ok());
        EXPECT_EQ(a[k].schedule.devices, b[k].schedule.devices);
        EXPECT_EQ(a[k].schedule.size_multiplier, b[k].schedule.size_multiplier);
        // Exact equality on purpose: determinism means the same bits.
        EXPECT_EQ(a[k].sim.mflups, b[k].sim.mflups);
        EXPECT_EQ(a[k].sim.iteration_s, b[k].sim.iteration_s);
        EXPECT_EQ(a[k].sim.worst_rank.comm_s, b[k].sim.worst_rank.comm_s);
        EXPECT_EQ(a[k].prediction.mflups, b[k].prediction.mflups);
      }
    }
  }
}

TEST(Campaign, SeededFaultIsRetriedToSuccess) {
  CampaignSpec spec;
  spec.series = {small_matrix().front()};
  spec.workers = 2;
  spec.fault_injector = [](const SeriesSpec&, const sys::SchedulePoint& point,
                           int attempt) {
    if (point.devices == 4 && attempt <= 2)
      throw std::runtime_error("seeded transient fault");
  };

  const CampaignResult result = run_campaign(spec);
  EXPECT_EQ(result.failed_points(), 0u);
  for (const PointResult& p : result.series.front().points) {
    EXPECT_TRUE(p.ok());
    EXPECT_EQ(p.attempts, p.schedule.devices == 4 ? 3 : 1);
  }

  // The retried point's numbers match an unfaulted run exactly.
  const CampaignResult clean = run_small(1);
  for (std::size_t k = 0; k < clean.series.front().points.size(); ++k)
    EXPECT_EQ(result.series.front().points[k].sim.mflups,
              clean.series.front().points[k].sim.mflups);
}

TEST(Campaign, PermanentFaultDegradesOnePointNotTheCampaign) {
  CampaignSpec spec;
  spec.series = {small_matrix().front()};
  spec.job.retry.max_attempts = 2;
  spec.fault_injector = [](const SeriesSpec&, const sys::SchedulePoint& point,
                           int) {
    if (point.devices == 8) throw std::runtime_error("seeded permanent fault");
  };

  const CampaignResult result = run_campaign(spec);
  EXPECT_EQ(result.failed_points(), 1u);
  for (const PointResult& p : result.series.front().points) {
    if (p.schedule.devices == 8) {
      EXPECT_FALSE(p.ok());
      EXPECT_EQ(p.attempts, 2);
      EXPECT_NE(p.failure->message.find("seeded permanent fault"),
                std::string::npos);
    } else {
      EXPECT_TRUE(p.ok());
    }
  }
  ASSERT_EQ(result.failures().size(), 1u);

  // Both sinks carry the failure without losing the healthy points.
  std::ostringstream csv;
  write_campaign_csv(result, csv);
  EXPECT_NE(csv.str().find("failed"), std::string::npos);
  EXPECT_NE(csv.str().find("seeded permanent fault"), std::string::npos);
  std::ostringstream json;
  write_campaign_json(result, json);
  EXPECT_NE(json.str().find("\"status\": \"failed\""), std::string::npos);
  EXPECT_NE(json.str().find("\"failed_points\": 1"), std::string::npos);
}

TEST(Campaign, UnavailableModelYieldsStructuredFailures) {
  CampaignSpec spec;
  // SYCL was never evaluated on Summit; profile_for would abort, so the
  // campaign must pre-check and degrade gracefully.
  spec.series = {{sys::SystemId::kSummit, hal::Model::kSycl,
                  sim::App::kHarvey, WorkloadKind::kCylinderBisection}};
  const CampaignResult result = run_campaign(spec);
  EXPECT_EQ(result.failed_points(), result.total_points());
  EXPECT_GT(result.total_points(), 0u);
  for (const PointResult& p : result.series.front().points) {
    EXPECT_FALSE(p.ok());
    EXPECT_EQ(p.attempts, 0);
    EXPECT_NE(p.failure->message.find("not evaluated"), std::string::npos);
  }
}

TEST(Campaign, WorkloadArtifactsAreSharedThroughTheCache) {
  ArtifactCache cache;
  const auto first = shared_workload(cache, WorkloadKind::kCylinderBisection);
  const auto second = shared_workload(cache, WorkloadKind::kCylinderBisection);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);

  const auto stats4 = shared_rank_stats(cache, first, 4);
  const auto stats4_again = shared_rank_stats(cache, first, 4);
  EXPECT_EQ(stats4.get(), stats4_again.get());
  EXPECT_EQ(stats4->n_ranks, 4);
  EXPECT_EQ(stats4->points.size(), 4u);
}

TEST(Campaign, FigureMatricesAreNonEmptyAndAvailable) {
  std::size_t sum = 0;
  for (const std::string& figure : known_figures()) {
    if (figure == "all") continue;
    const std::vector<SeriesSpec> specs = figure_matrix(figure);
    EXPECT_FALSE(specs.empty()) << figure;
    sum += specs.size();
    // Figure matrices reproduce the study: every combination was run.
    for (const SeriesSpec& s : specs)
      EXPECT_TRUE(sim::model_available(s.system, s.model))
          << figure << ": " << series_label(s);
  }
  EXPECT_EQ(figure_matrix("all").size(), sum);
}

TEST(Campaign, ParsesSeriesSpecs) {
  SeriesSpec spec;
  ASSERT_TRUE(parse_series("crusher:hip:harvey:aorta", &spec));
  EXPECT_EQ(spec.system, sys::SystemId::kCrusher);
  EXPECT_EQ(spec.model, hal::Model::kHip);
  EXPECT_EQ(spec.app, sim::App::kHarvey);
  EXPECT_EQ(spec.workload, WorkloadKind::kAorta);

  ASSERT_TRUE(parse_series("summit:cuda", &spec));
  EXPECT_EQ(spec.system, sys::SystemId::kSummit);
  EXPECT_EQ(spec.app, sim::App::kHarvey);  // default
  EXPECT_EQ(spec.workload, WorkloadKind::kCylinderBisection);  // default

  ASSERT_TRUE(parse_series("polaris:kokkos-sycl:proxy", &spec));
  EXPECT_EQ(spec.model, hal::Model::kKokkosSycl);
  EXPECT_EQ(spec.app, sim::App::kProxy);

  EXPECT_FALSE(parse_series("atlantis:cuda", &spec));
  EXPECT_FALSE(parse_series("summit:morsecode", &spec));
  EXPECT_FALSE(parse_series("summit", &spec));
  EXPECT_FALSE(parse_series("summit:cuda:harvey:aorta:extra", &spec));
}

TEST(Campaign, SeriesLabelsAreHumanReadable) {
  const SeriesSpec spec{sys::SystemId::kCrusher, hal::Model::kHip,
                        sim::App::kHarvey, WorkloadKind::kAorta};
  EXPECT_EQ(series_label(spec), "Crusher/HIP/HARVEY/aorta");
}


TEST(Campaign, TrafficAuditBlockIsEmittedWhenFilled) {
  CampaignSpec spec;
  spec.series = {{sys::SystemId::kSummit, hal::Model::kCuda,
                  sim::App::kHarvey, WorkloadKind::kCylinderBisection}};
  CampaignResult result = run_campaign(spec);

  // Absent by default: rt does not depend on the analysis layer.
  std::ostringstream without;
  write_campaign_json(result, without);
  EXPECT_EQ(without.str().find("traffic_audit"), std::string::npos);

  // The campaign tool fills the field with the pre-rendered hemo-flux
  // object; the sink must embed it verbatim under "traffic_audit".
  result.traffic_audit_json = "{\"version\": \"hemo-flux/1\"}";
  std::ostringstream with;
  write_campaign_json(result, with);
  EXPECT_NE(
      with.str().find("\"traffic_audit\": {\"version\": \"hemo-flux/1\"}"),
      std::string::npos);
}

}  // namespace
}  // namespace hemo::rt

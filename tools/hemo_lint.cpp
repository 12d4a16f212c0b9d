// hemo_lint: CLI driver for the hemo::analysis subsystem.
//
//   hemo_lint --corpus [cudax|hipx|syclx|kokkosx|all] [--json] [--werror]
//             [--min-rules N]
//       Lint the porting-study corpus.  Exits nonzero if --werror and any
//       error-severity diagnostic fired, or if fewer than N distinct
//       rules fired (regression guard used by ctest).
//
//   hemo_lint --lattice [periodic|inletoutlet] [--scale S] [--ranks R]
//             [--json]
//       Build a cylinder geometry, run the lattice consistency checker
//       (plus partition/halo-plan checks when --ranks > 1) and exit
//       nonzero if any diagnostic fired: a clean geometry must be silent.
//
//   hemo_lint --flux [cudax|hipx|syclx|kokkosx|all] [--json]
//       Static memory-traffic audit (MT rules) of the dialect corpora
//       against the Section 6 model.  With --json, emits the combined
//       {"traffic": ..., "findings": ...} document.  Exits 2 on any
//       finding: the checked-in corpora must be traffic-clean.
//
//   hemo_lint --concurrency [--json]
//       Static concurrency audit (CC rules) of src/rt + src/resilience.
//       Exits 2 on any finding.
//
//   Any analysis mode also accepts:
//     --baseline FILE       suppress findings recorded in FILE
//     --emit-baseline FILE  write the current findings to FILE and exit 0
//
//   hemo_lint --list-rules
//       Print the unified rule registry (HL/LC/RS/MT/CC).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/baseline.hpp"
#include "analysis/concurrency.hpp"
#include "analysis/flux_rules.hpp"
#include "analysis/lattice_check.hpp"
#include "analysis/registry.hpp"
#include "analysis/report.hpp"
#include "analysis/rules.hpp"
#include "base/parse.hpp"
#include "decomp/partition.hpp"
#include "geom/cylinder.hpp"
#include "perf/model.hpp"
#include "port/corpus.hpp"

namespace {

using namespace hemo;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --corpus [cudax|hipx|syclx|kokkosx|all] [--json] "
               "[--werror] [--min-rules N]\n"
               "       %s --lattice [periodic|inletoutlet] [--scale S] "
               "[--ranks R] [--json]\n"
               "       %s --flux [cudax|hipx|syclx|kokkosx|all] [--json]\n"
               "       %s --concurrency [--json]\n"
               "       %s --list-rules\n"
               "  analysis modes also accept --baseline FILE and "
               "--emit-baseline FILE\n",
               argv0, argv0, argv0, argv0, argv0);
  return 1;
}

int bad_number(const std::string& flag, const char* value, const char* argv0) {
  std::fprintf(stderr, "%s requires a valid number, got '%s'\n", flag.c_str(),
               value == nullptr ? "" : value);
  return usage(argv0);
}

void print(const std::vector<analysis::Diagnostic>& diagnostics, bool json) {
  std::cout << (json ? analysis::json_report(diagnostics)
                     : analysis::text_report(diagnostics));
}

bool parse_dialects(const std::string& which,
                    std::vector<port::CorpusDialect>* out) {
  if (which == "all" || which.empty()) {
    *out = {port::CorpusDialect::kCudax, port::CorpusDialect::kHipx,
            port::CorpusDialect::kSyclx, port::CorpusDialect::kKokkosx};
  } else if (which == "cudax") {
    *out = {port::CorpusDialect::kCudax};
  } else if (which == "hipx") {
    *out = {port::CorpusDialect::kHipx};
  } else if (which == "syclx") {
    *out = {port::CorpusDialect::kSyclx};
  } else if (which == "kokkosx") {
    *out = {port::CorpusDialect::kKokkosx};
  } else {
    std::fprintf(stderr, "unknown corpus dialect '%s'\n", which.c_str());
    return false;
  }
  return true;
}

/// Baseline handling shared by every analysis mode.  Returns false (and
/// sets *exit_code) when the run should stop after emitting a baseline,
/// or when the baseline file cannot be read.
bool apply_baseline_flags(std::vector<analysis::Diagnostic>* all,
                          const std::string& baseline_path,
                          const std::string& emit_baseline_path,
                          int* exit_code) {
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in.good()) {
      std::fprintf(stderr, "hemo_lint: cannot read baseline '%s'\n",
                   baseline_path.c_str());
      *exit_code = 1;
      return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    *all = analysis::apply_baseline(*all,
                                    analysis::parse_baseline(buffer.str()));
  }
  if (!emit_baseline_path.empty()) {
    std::ofstream out(emit_baseline_path);
    if (!out.good()) {
      std::fprintf(stderr, "hemo_lint: cannot write baseline '%s'\n",
                   emit_baseline_path.c_str());
      *exit_code = 1;
      return false;
    }
    out << analysis::write_baseline(*all);
    std::fprintf(stderr, "hemo_lint: wrote %zu finding(s) to baseline %s\n",
                 all->size(), emit_baseline_path.c_str());
    *exit_code = 0;
    return false;
  }
  return true;
}

int run_corpus(const std::string& which, bool json, bool werror, int min_rules,
               const std::string& baseline_path,
               const std::string& emit_baseline_path) {
  std::vector<port::CorpusDialect> dialects;
  if (!parse_dialects(which, &dialects)) return 1;

  std::vector<analysis::Diagnostic> all;
  for (const port::CorpusDialect d : dialects) {
    std::vector<analysis::Diagnostic> ds = analysis::lint_corpus(d);
    all.insert(all.end(), ds.begin(), ds.end());
  }
  analysis::sort_diagnostics(all);
  int exit_code = 0;
  if (!apply_baseline_flags(&all, baseline_path, emit_baseline_path,
                            &exit_code))
    return exit_code;
  print(all, json);

  const int distinct = analysis::distinct_rule_count(all);
  if (distinct < min_rules) {
    std::fprintf(stderr,
                 "hemo_lint: only %d distinct rules fired, expected >= %d "
                 "(lint regression?)\n",
                 distinct, min_rules);
    return 2;
  }
  if (werror && analysis::count_at(all, analysis::Severity::kError) > 0)
    return 2;
  return 0;
}

int run_lattice(const std::string& ends_name, double scale, int ranks,
                bool json, const std::string& baseline_path,
                const std::string& emit_baseline_path) {
  if (ends_name != "periodic" && ends_name != "inletoutlet") {
    std::fprintf(stderr, "unknown lattice ends '%s'\n", ends_name.c_str());
    return 1;
  }
  geom::CylinderSpec spec;
  spec.scale = scale;
  const geom::CylinderEnds ends = (ends_name == "periodic")
                                      ? geom::CylinderEnds::kPeriodic
                                      : geom::CylinderEnds::kInletOutlet;
  const auto lattice = geom::make_cylinder_lattice(spec, ends);
  // Every rank must own at least one point (bisection_partition's
  // precondition); refuse here instead of aborting there.
  if (ranks > lattice->size()) {
    std::fprintf(stderr, "--ranks %d exceeds the lattice's %lld points\n",
                 ranks, static_cast<long long>(lattice->size()));
    return 1;
  }

  std::vector<analysis::Diagnostic> all = analysis::check_lattice(*lattice);
  if (ranks > 1) {
    const decomp::Partition partition =
        decomp::bisection_partition(*lattice, ranks);
    std::vector<analysis::Diagnostic> ds =
        analysis::check_partition(*lattice, partition);
    all.insert(all.end(), ds.begin(), ds.end());
    const decomp::HaloPlan plan = decomp::build_halo_plan(*lattice, partition);
    ds = analysis::check_halo_plan(*lattice, partition, plan);
    all.insert(all.end(), ds.begin(), ds.end());
  }
  analysis::sort_diagnostics(all);
  int exit_code = 0;
  if (!apply_baseline_flags(&all, baseline_path, emit_baseline_path,
                            &exit_code))
    return exit_code;
  print(all, json);
  return all.empty() ? 0 : 2;
}

int run_flux(const std::string& which, bool json,
             const std::string& baseline_path,
             const std::string& emit_baseline_path) {
  std::vector<port::CorpusDialect> dialects;
  if (!parse_dialects(which, &dialects)) return 1;
  const perf::ModelParams params;

  std::vector<analysis::Diagnostic> all;
  if (which == "all" || which.empty()) {
    all = analysis::audit_all_corpora(params);  // includes MT006
  } else {
    for (const port::CorpusDialect d : dialects) {
      std::vector<analysis::Diagnostic> ds =
          analysis::audit_corpus_traffic(d, params);
      all.insert(all.end(), ds.begin(), ds.end());
    }
    analysis::sort_diagnostics(all);
  }
  int exit_code = 0;
  if (!apply_baseline_flags(&all, baseline_path, emit_baseline_path,
                            &exit_code))
    return exit_code;
  if (json) {
    std::cout << "{\"traffic\": " << analysis::traffic_audit_json(params)
              << ", \"findings\": " << analysis::json_report(all) << "}\n";
  } else {
    print(all, json);
  }
  return all.empty() ? 0 : 2;
}

int run_concurrency(bool json, const std::string& baseline_path,
                    const std::string& emit_baseline_path) {
  std::vector<analysis::Diagnostic> all =
      analysis::check_runtime_concurrency();
  int exit_code = 0;
  if (!apply_baseline_flags(&all, baseline_path, emit_baseline_path,
                            &exit_code))
    return exit_code;
  print(all, json);
  return all.empty() ? 0 : 2;
}

int list_rules() {
  for (const analysis::RuleInfo& r : analysis::rule_registry())
    std::printf("%s  %-36s  %-7s  %s\n", r.id.c_str(), r.name.c_str(),
                analysis::severity_name(r.severity), r.summary.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode;
  std::string mode_arg;
  bool json = false;
  bool werror = false;
  int min_rules = 0;
  double scale = 1.0;
  int ranks = 1;
  std::string baseline_path;
  std::string emit_baseline_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (arg == "--corpus" || arg == "--lattice" || arg == "--flux") {
      mode = arg;
      // Optional positional operand (dialect / end treatment).
      if (i + 1 < argc && argv[i + 1][0] != '-') mode_arg = argv[++i];
    } else if (arg == "--concurrency" || arg == "--list-rules") {
      mode = arg;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--werror") {
      werror = true;
    } else if (arg == "--min-rules") {
      const char* v = next();
      if (v == nullptr || !parse_int(v, &min_rules) || min_rules < 0)
        return bad_number(arg, v, argv[0]);
    } else if (arg == "--scale") {
      const char* v = next();
      if (v == nullptr || !parse_double(v, &scale) ||
          scale < geom::kMinScale || scale > geom::kMaxScale)
        return bad_number(arg, v, argv[0]);
    } else if (arg == "--ranks") {
      const char* v = next();
      if (v == nullptr || !parse_int(v, &ranks) || ranks < 1)
        return bad_number(arg, v, argv[0]);
    } else if (arg == "--baseline") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      baseline_path = v;
    } else if (arg == "--emit-baseline") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      emit_baseline_path = v;
    } else {
      return usage(argv[0]);
    }
  }

  if (mode == "--corpus")
    return run_corpus(mode_arg, json, werror, min_rules, baseline_path,
                      emit_baseline_path);
  if (mode == "--lattice")
    return run_lattice(mode_arg.empty() ? "inletoutlet" : mode_arg, scale,
                       ranks, json, baseline_path, emit_baseline_path);
  if (mode == "--flux")
    return run_flux(mode_arg, json, baseline_path, emit_baseline_path);
  if (mode == "--concurrency")
    return run_concurrency(json, baseline_path, emit_baseline_path);
  if (mode == "--list-rules") return list_rules();
  return usage(argv[0]);
}

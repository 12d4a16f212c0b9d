// hemobench: runs one benchmark workload and prints its result as the last
// line of standard output.
//
//   hemobench --workload <cyl-device|dist-resilient|serve-open> --seed N
//             --seconds S --trace <0|1> [--workdir DIR] [--source-id ID]
//
// --trace 0 prints the end-to-end metrics of the named workload.  --trace 1
// prints the per-layer metrics: it runs the named workload for S seconds
// with spans on, and the other two workloads for their fixed prefix only,
// so every layer of the layer map is measured in every traced run.  Spans
// go to DIR/spans-<workload>-<seed>.json.  The line before the result holds
// the host fingerprint.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <string>

#include "hal/kokkosx.hpp"
#include "workloads.hpp"

namespace {

using namespace hemo::bench;

using WorkloadFn = RunResult (*)(const WorkloadContext&);

const std::map<std::string, WorkloadFn>& workloads() {
  static const std::map<std::string, WorkloadFn> all = {
      {"cyl-device", &run_cyl_device},
      {"dist-resilient", &run_dist_resilient},
      {"serve-open", &run_serve_open}};
  return all;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/hemobench/work";
  std::string source_id = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "hemobench: " << why
            << "\nusage: hemobench --workload <cyl-device|dist-resilient|"
               "serve-open> --seed N --seconds S --trace <0|1> "
               "[--workdir DIR] [--source-id ID]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = value == "1";
      } else if (flag == "--workdir") {
        a.workdir = value;
      } else if (flag == "--source-id") {
        a.source_id = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (workloads().count(a.workload) == 0)
    usage("unknown workload '" + a.workload + "'");
  if (!(a.seconds >= 0.0)) usage("--seconds must be >= 0");
  return a;
}

std::string metrics_json(const Metrics& metrics) {
  std::string out = "{";
  bool first = true;
  for (const Metrics::Entry& e : metrics.entries()) {
    if (!first) out += ", ";
    first = false;
    out += json_quote(e.name) + ": {\"value\": ";
    append_json_number(&out, e.value);
    out += ", \"unit\": " + json_quote(e.unit) + "}";
  }
  return out + "}";
}

std::string meta_json(const Args& args, const HostFingerprint& host) {
  std::string out = "{\"workload\": " + json_quote(args.workload) +
                    ", \"seed\": " + std::to_string(args.seed) +
                    ", \"seconds\": ";
  append_json_number(&out, args.seconds);
  out += ", \"trace\": " + std::to_string(args.trace ? 1 : 0) +
         ", \"source\": " + json_quote(args.source_id) +
         ", \"host\": {\"nproc\": " + std::to_string(host.nproc) +
         ", \"l2_bytes\": " + std::to_string(host.l2_bytes) +
         ", \"llc_bytes\": " + std::to_string(host.llc_bytes) +
         ", \"triad_gbps\": ";
  append_json_number(&out, host.triad_gbps);
  return out + "}}";
}

int run(const Args& args) {
  std::filesystem::create_directories(args.workdir);
  const HostFingerprint host = host_fingerprint();
  const std::string meta = meta_json(args, host);
  std::cout << "{\"hemobench\": " << meta << "}" << std::endl;

  // One Kokkos backend per process, initialised here so no solver's
  // lifetime decides when the runtime goes away.
  hemo::hal::kokkosx::initialize(hemo::hal::Backend::kCuda);

  Tracer tracer(args.trace);
  WorkloadContext ctx;
  ctx.seed = args.seed;
  ctx.tracer = &tracer;
  ctx.workdir = args.workdir;

  RunResult named;
  Metrics metrics;
  if (!args.trace) {
    ctx.seconds = args.seconds;
    named = workloads().at(args.workload)(ctx);
    metrics = named.end_to_end;
    metrics.set("peak_rss_mb", peak_rss_mib(), "MiB");
  } else {
    for (const auto& [name, fn] : workloads()) {
      ctx.seconds = name == args.workload ? args.seconds : 0.0;
      RunResult pass = fn(ctx);
      metrics.merge(pass.layers);
      named.attempted += pass.attempted;
      named.failed += pass.failed;
      named.errors.insert(named.errors.end(), pass.errors.begin(),
                          pass.errors.end());
    }
    metrics.set("trace.spans", static_cast<double>(tracer.spans().size()),
                "count");
    const std::string path = args.workdir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    if (!tracer.write_json(path, meta))
      named.errors.push_back("could not write " + path);
    std::cerr << "hemobench: spans written to " << path << "\n";
  }
  hemo::hal::kokkosx::finalize();

  for (const std::string& e : named.errors)
    std::cerr << "hemobench: ORACLE FAILURE: " << e << "\n";
  std::cout << "{\"correct\": " << (named.correct() ? "true" : "false")
            << ", \"attempted\": " << named.attempted
            << ", \"failed\": " << named.failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return named.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "hemobench: " << e.what() << "\n";
    return 2;
  }
}

#include "analysis/flux_rules.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "base/format.hpp"
#include "lbm/d3q19.hpp"
#include "lbm/propagation.hpp"
#include "port/corpus.hpp"

namespace hemo::analysis {

namespace {

constexpr double kTolerance = 1e-9;

bool differs(double a, double b) { return std::fabs(a - b) > kTolerance; }

std::string fmt(double v) {
  std::ostringstream out;
  if (v == static_cast<long long>(v)) {
    out << static_cast<long long>(v);
  } else {
    out << v;
  }
  return out.str();
}

Diagnostic make(const std::string& rule, const std::string& file, int line,
                std::string message, std::string fixit) {
  const std::vector<RuleInfo>& rules = flux_rules();
  Diagnostic d;
  d.rule_id = rule;
  for (const RuleInfo& info : rules)
    if (info.id == rule) d.severity = info.severity;
  d.file = file;
  d.line = line;
  d.message = std::move(message);
  d.fixit_hint = std::move(fixit);
  return d;
}

const char* dialect_label(port::CorpusDialect dialect) {
  switch (dialect) {
    case port::CorpusDialect::kCudax: return "cudax";
    case port::CorpusDialect::kHipx: return "hipx";
    case port::CorpusDialect::kSyclx: return "syclx";
    case port::CorpusDialect::kKokkosx: return "kokkosx";
  }
  return "?";
}

}  // namespace

const std::vector<RuleInfo>& flux_rules() {
  static const std::vector<RuleInfo> rules = {
      {"MT001", "model-bytes-mismatch", Severity::kError,
       "hot-loop distribution bytes/point disagree with "
       "perf::ModelParams::bytes_per_point"},
      {"MT002", "aos-hot-loop", Severity::kError,
       "non-coalesced AoS distribution access on a hot-loop kernel"},
      {"MT003", "redundant-reload", Severity::kWarning,
       "hot-loop kernel re-loads a distribution array beyond the 19 "
       "populations per point"},
      {"MT004", "non-fused-update", Severity::kWarning,
       "stream-only and collide-only kernels launched from one "
       "translation unit: non-fused update doubles write-allocate "
       "traffic"},
      {"MT005", "halo-payload-mismatch", Severity::kError,
       "halo pack/unpack payload disagrees with "
       "halo_bytes_per_surface_point"},
      {"MT006", "dialect-divergence", Severity::kError,
       "distribution bytes/point differ between dialects for the same "
       "kernel"},
  };
  return rules;
}

std::vector<Diagnostic> audit_traffic(
    const std::string& dialect_label,
    const std::vector<KernelProfile>& profiles,
    const perf::ModelParams& params) {
  std::vector<Diagnostic> out;
  for (const KernelProfile& p : profiles) {
    const std::string where = dialect_label.empty()
                                  ? p.kernel
                                  : dialect_label + "/" + p.kernel;
    if (is_hot_loop_kernel(p.kernel)) {
      // MT001: the hot loop's streamed distribution traffic must match
      // the model charge for its propagation pattern.  Pull kernels make
      // two array passes (19 loads of f_in + 19 stores of f_out =
      // params.bytes_per_point); in-place kernels (the AA pair and the
      // collide-only ablation) make one pass over their single array, so
      // they are charged the single-pass fraction of the same parameter.
      const lbm::Propagation pattern =
          p.in_place_distribution_update() ? lbm::Propagation::kAAInPlace
                                           : lbm::Propagation::kPullSoA;
      const double expected =
          params.bytes_per_point *
          (lbm::propagation_passes(pattern) /
           lbm::propagation_passes(lbm::Propagation::kPullSoA));
      const double derived = p.streamed_distribution_bytes_per_point();
      if (differs(derived, expected)) {
        out.push_back(make(
            "MT001", p.file, p.line,
            where + ": derived " + fmt(derived) +
                " distribution B/point, model charges " + fmt(expected) +
                " for a " + lbm::propagation_name(pattern) + " kernel",
            "make the kernel move exactly 19 populations of 8 bytes per "
            "array pass per point, or update ModelParams and Figs. 5-6"));
      }
      // MT002: AoS layout serializes the coalesced hot loop.
      if (p.touches_stride(ArrayRole::kDistribution, StrideClass::kAoS)) {
        out.push_back(make(
            "MT002", p.file, p.line,
            where + ": distribution accessed with AoS stride (f[i*kQ+q]) "
                    "on the hot loop",
            "index distributions as f[q*n+i] (SoA) so consecutive threads "
            "touch consecutive addresses"));
      }
      // MT003: more than one load of the same distribution array per
      // population means the kernel refetches what registers already hold.
      // Role-gated: a local stack array named `f` is register-class and
      // never counts.
      std::map<std::string, double> dist_loads;
      for (const ArrayAccess& a : p.accesses)
        if (a.role == ArrayRole::kDistribution && a.dir == AccessDir::kLoad)
          dist_loads[a.array] += a.count_per_point;
      for (const auto& [array, loads] : dist_loads) {
        if (loads > static_cast<double>(lbm::kQ) + kTolerance) {
          out.push_back(make(
              "MT003", p.file, p.line,
              where + ": " + fmt(loads) + " loads/point of " + array +
                  " exceed the " + fmt(lbm::kQ) + " populations",
              "cache gathered populations in a stack array instead of "
              "re-loading device memory"));
        }
      }
    }
    // MT005: each halo value crossing a face is one 8-byte double; the
    // model charges 5 of them per surface point.
    const bool pack = p.kernel.find("PackHalo") != std::string::npos;
    const bool unpack = p.kernel.find("UnpackHalo") != std::string::npos;
    if (pack || unpack) {
      const double payload =
          pack ? p.bytes_per_point(ArrayRole::kHaloBuffer, AccessDir::kStore)
               : p.bytes_per_point(ArrayRole::kHaloBuffer, AccessDir::kLoad);
      const double per_surface_point =
          payload * static_cast<double>(kHaloValuesPerSurfacePoint);
      if (differs(per_surface_point, params.halo_bytes_per_surface_point)) {
        out.push_back(make(
            "MT005", p.file, p.line,
            where + ": " + fmt(payload) + " halo payload B/value => " +
                fmt(per_surface_point) + " B/surface point, model charges " +
                fmt(params.halo_bytes_per_surface_point),
            "pack exactly one 8-byte double per crossing population, or "
            "update halo_bytes_per_surface_point"));
      }
    }
  }
  return out;
}

std::vector<Diagnostic> audit_launch_fusion(
    const std::vector<FluxSource>& sources) {
  std::vector<Diagnostic> out;
  for (const FluxSource& source : sources) {
    // The definitions themselves live in kernels.h; only launch sites
    // count as a fusion hazard.
    if (source.file.find("kernels.h") != std::string::npos) continue;
    const std::size_t stream = source.content.find("StreamOnlyKernel");
    const std::size_t collide = source.content.find("CollideOnlyKernel");
    if (stream == std::string::npos || collide == std::string::npos) continue;
    const std::size_t second = std::max(stream, collide);
    const int line =
        1 + static_cast<int>(std::count(
                source.content.begin(),
                source.content.begin() + static_cast<std::ptrdiff_t>(second),
                '\n'));
    out.push_back(make(
        "MT004", source.file, line,
        "StreamOnlyKernel and CollideOnlyKernel launched from one "
        "translation unit: the intermediate field is written, re-loaded "
        "and re-written (3*19*8 extra B/point vs the fused kernel)",
        "launch StreamCollideKernel instead of the split pair on the hot "
        "path"));
  }
  return out;
}

std::vector<Diagnostic> audit_dialect_divergence(
    const std::vector<std::pair<std::string, std::vector<KernelProfile>>>&
        dialects) {
  std::vector<Diagnostic> out;
  // kernel -> (first dialect seen, its bytes/point)
  std::map<std::string, std::pair<std::string, double>> reference;
  for (const auto& [label, profiles] : dialects) {
    for (const KernelProfile& p : profiles) {
      const double bytes = p.streamed_distribution_bytes_per_point();
      const auto it = reference.find(p.kernel);
      if (it == reference.end()) {
        reference[p.kernel] = {label, bytes};
        continue;
      }
      if (differs(bytes, it->second.second)) {
        out.push_back(make(
            "MT006", p.file, p.line,
            p.kernel + ": " + label + " moves " + fmt(bytes) +
                " distribution B/point but " + it->second.first + " moves " +
                fmt(it->second.second),
            "the four dialects must implement the same traffic; fix the "
            "divergent port"));
      }
    }
  }
  return out;
}

std::vector<Diagnostic> audit_corpus_traffic(port::CorpusDialect dialect,
                                             const perf::ModelParams& params) {
  const std::string label = dialect_label(dialect);
  std::vector<Diagnostic> out =
      audit_traffic(label, extract_dialect_profiles(dialect), params);
  std::vector<FluxSource> launch_sources;
  for (const std::string& name : port::corpus_files())
    launch_sources.push_back(FluxSource{
        label + "/" + name, port::read_corpus_file(dialect, name)});
  std::vector<Diagnostic> fusion = audit_launch_fusion(launch_sources);
  out.insert(out.end(), fusion.begin(), fusion.end());
  sort_diagnostics(out);
  return out;
}

std::vector<Diagnostic> audit_all_corpora(const perf::ModelParams& params) {
  std::vector<Diagnostic> out;
  std::vector<std::pair<std::string, std::vector<KernelProfile>>> per_dialect;
  for (const port::CorpusDialect dialect :
       {port::CorpusDialect::kCudax, port::CorpusDialect::kHipx,
        port::CorpusDialect::kSyclx, port::CorpusDialect::kKokkosx}) {
    std::vector<Diagnostic> one = audit_corpus_traffic(dialect, params);
    out.insert(out.end(), one.begin(), one.end());
    per_dialect.emplace_back(dialect_label(dialect),
                             extract_dialect_profiles(dialect));
  }
  std::vector<Diagnostic> divergence = audit_dialect_divergence(per_dialect);
  out.insert(out.end(), divergence.begin(), divergence.end());
  sort_diagnostics(out);
  return out;
}

std::string traffic_audit_json(const perf::ModelParams& params) {
  std::ostringstream out;
  out << "{\"version\": \"hemo-flux/1\", \"model\": {\"bytes_per_point\": "
      << fmt(params.bytes_per_point) << ", \"aa_bytes_per_point\": "
      << fmt(lbm::propagation_bytes_per_point(lbm::Propagation::kAAInPlace))
      << ", \"halo_bytes_per_surface_point\": "
      << fmt(params.halo_bytes_per_surface_point) << "}, \"dialects\": [";
  bool first_dialect = true;
  for (const port::CorpusDialect dialect :
       {port::CorpusDialect::kCudax, port::CorpusDialect::kHipx,
        port::CorpusDialect::kSyclx, port::CorpusDialect::kKokkosx}) {
    if (!first_dialect) out << ", ";
    first_dialect = false;
    out << "{\"dialect\": \"" << dialect_label(dialect)
        << "\", \"kernels\": [";
    const std::vector<KernelProfile> profiles =
        extract_dialect_profiles(dialect);
    bool first_kernel = true;
    for (const KernelProfile& p : profiles) {
      if (!first_kernel) out << ", ";
      first_kernel = false;
      out << "{\"kernel\": \"" << json_escape(p.kernel) << "\", \"file\": \""
          << json_escape(p.file) << "\", \"line\": " << p.line
          << ", \"hot_loop\": " << (is_hot_loop_kernel(p.kernel) ? "true"
                                                                 : "false")
          << ", \"propagation\": \""
          << (p.in_place_distribution_update()
                  ? lbm::propagation_name(lbm::Propagation::kAAInPlace)
                  : lbm::propagation_name(lbm::Propagation::kPullSoA))
          << "\", \"distribution_bytes_per_point\": "
          << fmt(p.distribution_bytes_per_point())
          << ", \"streamed_distribution_bytes_per_point\": "
          << fmt(p.streamed_distribution_bytes_per_point())
          << ", \"total_bytes_per_point\": " << fmt(p.total_bytes_per_point())
          << ", \"flops_per_point\": " << fmt(p.flops_per_point)
          << ", \"accesses\": [";
      bool first_access = true;
      for (const ArrayAccess& a : p.accesses) {
        if (!first_access) out << ", ";
        first_access = false;
        out << "{\"array\": \"" << json_escape(a.array) << "\", \"role\": \""
            << role_name(a.role) << "\", \"dir\": \"" << dir_name(a.dir)
            << "\", \"stride\": \"" << stride_name(a.stride)
            << "\", \"count_per_point\": " << fmt(a.count_per_point)
            << ", \"elem_bytes\": " << a.elem_bytes << "}";
      }
      out << "]}";
    }
    out << "]}";
  }
  out << "]}";
  return out.str();
}

}  // namespace hemo::analysis

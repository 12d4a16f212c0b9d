#include "common.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <thread>

namespace hemo::bench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

WindowSummary summarize_windows(const std::vector<Window>& windows) {
  WindowSummary s;
  s.per_step_ms.reserve(windows.size());
  for (const Window& w : windows) {
    if (w.steps <= 0) continue;
    ++s.windows;
    s.steps += w.steps;
    s.seconds += w.seconds;
    s.per_step_ms.push_back(w.seconds * 1e3 / w.steps);
  }
  s.step_ms_p10 = quantile(s.per_step_ms, 0.10);
  s.step_ms_p50 = quantile(s.per_step_ms, 0.50);
  return s;
}

void Metrics::set(std::string_view name, double value, std::string_view unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = std::string(unit);
      return;
    }
  }
  entries_.push_back(Entry{std::string(name), value, std::string(unit)});
}

bool Metrics::has(std::string_view name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.name == name; });
}

double Metrics::get(std::string_view name) const {
  for (const Entry& e : entries_)
    if (e.name == name) return e.value;
  return std::numeric_limits<double>::quiet_NaN();
}

void Metrics::merge(const Metrics& other) {
  for (const Entry& e : other.entries_) set(e.name, e.value, e.unit);
}

void set_unit_metrics(RunResult* result, double throughput, double p10_ms,
                      double p50_ms, double tail_ms,
                      const std::vector<double>& setup_reps_s) {
  Metrics& m = result->end_to_end;
  m.set("throughput", throughput, "1/s");
  m.set("latency_p50_ms", p50_ms, "ms");
  m.set("latency_p10_ms", p10_ms, "ms");
  m.set("latency_tail_ms", tail_ms, "ms");
  m.set("setup_s", quantile(setup_reps_s, 0.5), "s");
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double measure_triad_gbps(std::size_t n, int reps) {
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  const double scalar = 0.4;
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    double* __restrict pa = a.data();
    const double* __restrict pb = b.data();
    const double* __restrict pc = c.data();
    for (std::size_t i = 0; i < n; ++i) pa[i] = pb[i] + scalar * pc[i];
    best = std::min(best, seconds_since(t0));
  }
  // Keep the stores observable so the loop is not elided.
  volatile double sink = a[n / 2];
  (void)sink;
  return 3.0 * static_cast<double>(n) * sizeof(double) / best / 1e9;
}

HostFingerprint host_fingerprint() {
  HostFingerprint fp;
  fp.nproc = static_cast<int>(std::thread::hardware_concurrency());
  fp.l2_bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
  fp.llc_bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (fp.llc_bytes <= 0) fp.llc_bytes = fp.l2_bytes;
  // 3 x 64 MiB: far past any per-core L2, the level the solver working
  // sets overflow.  The triad runs in a child process so its arrays stay
  // out of this process's peak RSS, which peak_rss_mb reports.
  fp.triad_gbps = std::numeric_limits<double>::quiet_NaN();
  int fds[2];
  if (pipe(fds) != 0) return fp;
  const pid_t child = fork();
  if (child == 0) {
    close(fds[0]);
    const double gbps = measure_triad_gbps(std::size_t{8} << 20, 5);
    const ssize_t written = write(fds[1], &gbps, sizeof gbps);
    _exit(written == static_cast<ssize_t>(sizeof gbps) ? 0 : 1);
  }
  close(fds[1]);
  if (child > 0) {
    double gbps = 0.0;
    if (read(fds[0], &gbps, sizeof gbps) == static_cast<ssize_t>(sizeof gbps))
      fp.triad_gbps = gbps;
    waitpid(child, nullptr, 0);
  }
  close(fds[0]);
  return fp;
}

void append_json_number(std::string* out, double value) {
  if (!std::isfinite(value)) {
    out->append("null");
    return;
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  out->append(buf, res.ptr);
}

std::string json_quote(std::string_view text) {
  std::string out = "\"";
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') {
      out.push_back('\\');
      out.push_back(ch);
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out.append(" ");
    } else {
      out.push_back(ch);
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace hemo::bench

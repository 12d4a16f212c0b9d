#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <unordered_map>

namespace hemo::bench {

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::record(std::uint64_t id, std::string_view name,
                    std::uint64_t parent, std::uint64_t group,
                    Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return;
  Span span;
  span.id = id;
  span.parent = parent;
  span.group = group;
  span.name = std::string(name);
  span.start_ms = seconds_between(epoch_, start) * 1e3;
  span.end_ms = seconds_between(epoch_, end) * 1e3;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::uint64_t Tracer::record(std::string_view name, std::uint64_t parent,
                             std::uint64_t group, Clock::time_point start,
                             Clock::time_point end) {
  if (!enabled_) return 0;
  const std::uint64_t id = next_id();
  record(id, name, parent, group, start, end);
  return id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::write_json(const std::string& path,
                        const std::string& meta_json) const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = self_times_ms(all);
  std::string out = "{\"meta\": " + meta_json + ", \"spans\": [\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out += "{\"id\": " + std::to_string(s.id) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"group\": " + std::to_string(s.group) +
           ", \"name\": " + json_quote(s.name) + ", \"start_ms\": ";
    append_json_number(&out, s.start_ms);
    out += ", \"end_ms\": ";
    append_json_number(&out, s.end_ms);
    out += ", \"self_ms\": ";
    append_json_number(&out, self[i]);
    out += i + 1 < all.size() ? "},\n" : "}\n";
  }
  out += "]}\n";
  std::ofstream file(path, std::ios::trunc);
  file << out;
  return static_cast<bool>(file);
}

double union_length(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  bool open = false;
  double lo = 0.0, hi = 0.0;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    if (!open || start > hi) {
      if (open) total += hi - lo;
      lo = start;
      hi = end;
      open = true;
    } else {
      hi = std::max(hi, end);
    }
  }
  if (open) total += hi - lo;
  return total;
}

std::vector<double> self_times_ms(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> covered(spans.size());
  for (const Span& s : spans) {
    const auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const Span& p = spans[it->second];
    const double lo = std::max(s.start_ms, p.start_ms);
    const double hi = std::min(s.end_ms, p.end_ms);
    if (hi > lo) covered[it->second].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = (spans[i].end_ms - spans[i].start_ms) -
              union_length(std::move(covered[i]));
  return self;
}

}  // namespace hemo::bench

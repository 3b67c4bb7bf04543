#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace perfbench {

double peak_rss_mib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(i, values.size() - 1)];
}

std::int64_t SpanLog::begin(const char* name, std::int64_t parent, std::uint64_t id) {
  if (!enabled_) return kNoSpan;
  double start = wall_now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start, start, parent, id});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::end(std::int64_t handle) {
  if (handle == kNoSpan) return;
  double end = wall_now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(handle)].end = end;
}

std::int64_t SpanLog::record(const char* name, double start, double end, std::int64_t parent,
                             std::uint64_t id) {
  if (!enabled_) return kNoSpan;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start, end, parent, id});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::vector<SpanTotals> SpanLog::totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Children's intervals per parent, merged so overlapping children (the
  // ingestion thread's spans under a parallel scan) are not counted twice.
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != kNoSpan) children[static_cast<std::size_t>(s.parent)].push_back({s.start, s.end});
  }
  std::map<std::string, SpanTotals> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    double duration = s.end - s.start;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double reach = s.start;
    for (auto [a, b] : kids) {
      a = std::max(a, reach);
      b = std::min(b, s.end);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    SpanTotals& t = by_name[s.name];
    t.name = s.name;
    t.count += 1;
    t.total_s += duration;
    t.self_s += duration - covered;
  }
  std::vector<SpanTotals> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

bool SpanLog::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(f, "index\tname\tstart_s\tend_s\tparent\tid\n");
  double origin = spans_.empty() ? 0 : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%.9f\t%.9f\t%lld\t%llu\n", i, s.name, s.start - origin,
                 s.end - origin, static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.id));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

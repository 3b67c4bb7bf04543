// Shared pieces of the benchmark: clocks, order statistics, the metric list
// a run prints, and the in-memory span log of a traced run.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// --- clocks ------------------------------------------------------------------

inline double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double cpu_clock(clockid_t id) {
  timespec ts{};
  ::clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Real CPU time (user + system) of every thread of this process.
inline double process_cpu() { return cpu_clock(CLOCK_PROCESS_CPUTIME_ID); }
// Real CPU time of the calling thread.
inline double thread_cpu() { return cpu_clock(CLOCK_THREAD_CPUTIME_ID); }

// Peak resident set size of this process so far, in MiB.
double peak_rss_mib();

// --- order statistics --------------------------------------------------------

// Median (mean of the middle pair for even sizes); 0 for an empty sample.
[[nodiscard]] double median(std::vector<double> values);
// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);

// --- metrics -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// --- spans -------------------------------------------------------------------

inline constexpr std::int64_t kNoSpan = -1;

// One timed interval at a layer boundary. `parent` indexes the span that
// caused it (kNoSpan for a root); `id` is the contract ordinal or request
// number the span belongs to.
struct Span {
  const char* name = "";
  double start = 0;
  double end = 0;
  std::int64_t parent = kNoSpan;
  std::uint64_t id = 0;
};

// Per-name totals over every closed span: self time is the span's duration
// minus the part of it covered by its children.
struct SpanTotals {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0;
  double self_s = 0;
};

// Spans are kept in memory (thread-safe appends) and written out once, when
// the run ends. A disabled log records nothing and costs one branch.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  // Opens a span and returns its handle, or kNoSpan when disabled.
  std::int64_t begin(const char* name, std::int64_t parent = kNoSpan, std::uint64_t id = 0);
  void end(std::int64_t handle);
  // Records an already measured interval.
  std::int64_t record(const char* name, double start, double end,
                      std::int64_t parent = kNoSpan, std::uint64_t id = 0);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::vector<SpanTotals> totals() const;
  // Tab-separated dump: index, name, start, end, parent, id.
  [[nodiscard]] bool write_tsv(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

// RAII span; a no-op on a disabled log.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::int64_t parent = kNoSpan, std::uint64_t id = 0)
      : log_(log), handle_(log.begin(name, parent, id)) {}
  ~ScopedSpan() { log_.end(handle_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int64_t handle() const { return handle_; }

 private:
  SpanLog& log_;
  std::int64_t handle_;
};

}  // namespace perfbench

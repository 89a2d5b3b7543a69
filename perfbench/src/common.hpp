#pragma once

/// \file common.hpp
/// Shared plumbing of the perfbench workloads: run arguments, the result
/// report (the one JSON line the benchmark prints last), statistics helpers
/// and the in-memory span recorder used by traced runs.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Pool lanes of every multi-lane engine the benchmark drives itself.  A
/// lane is a pool worker or the thread that helps in wait_idle(); 3 lanes
/// keep the program's busy threads below the 4 cores the benchmark was
/// sized on.
inline constexpr unsigned kLanes = 3;

/// Steady-clock instant captured during static initialization: the start of
/// the cold set-up that setup_s reports.
extern const Clock::time_point process_start;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Mean of `v` without its lowest and highest `frac` share of values.
[[nodiscard]] double trimmed_mean(std::vector<double> v, double frac);

/// Peak resident set size of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

/// Metrics, operation counts and the correctness verdict of one run.
class Report {
 public:
  void metric(const std::string& name, double value, const char* unit);
  /// Record a failed correctness check (the run reports correct=false).
  void fail(const std::string& what);
  void attempted(std::uint64_t n) { attempted_ += n; }
  void failed(std::uint64_t n) { failed_ += n; }
  [[nodiscard]] bool correct() const noexcept { return failures_.empty(); }
  /// The single-line JSON result object.
  [[nodiscard]] std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// In-memory span recorder.  Spans are recorded by the benchmark around its
/// calls into each layer's public functions (the library itself carries no
/// benchmark instrumentation); names start with the layer ("la.", "core.",
/// "engine.", ...).  Recording is single-threaded: every span opens and
/// closes on the benchmark's driving thread.
class Tracer {
 public:
  struct Record {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;  ///< index of the enclosing span, -1 at top level
  };

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] int open(const char* name);
  void close(int id);
  /// Write every record as JSON ({"spans": [...]}, times in microseconds
  /// since the first span) to `path`; false on I/O failure.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  std::vector<Record> records_;
  std::vector<int> stack_;
  bool enabled_ = false;
};

/// Scoped span; a no-op while the tracer is disabled.
class Span {
 public:
  Span(Tracer& t, const char* name) : t_(t), id_(t.enabled() ? t.open(name) : -1) {}
  ~Span() {
    if (id_ >= 0) t_.close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// Workload entry points; each fills `rep` and returns normally (failed
/// checks are recorded in the report, not thrown).
void run_paper(const Args& a, long n, long k, Report& rep, Tracer& tr);
void run_tenant_mix(const Args& a, Report& rep, Tracer& tr);
void run_stream(const Args& a, Report& rep, Tracer& tr);

/// Checker self-test: feeds every correctness check a corrupted answer.
/// Returns the process exit code (0 when every check rejected its
/// corruption and accepted the uncorrupted answer).
int run_selftest();

}  // namespace perfbench

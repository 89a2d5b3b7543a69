/// \file main.cpp
/// perfbench entry point.
///
///   perfbench --workload <paper_n6|paper_n48|tenant_mix|stream>
///             --seed <n> --seconds <s> --trace <0|1>
///   perfbench --selftest
///
/// Prints progress on stderr and, as the last line of stdout, one JSON
/// object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
/// metrics are the end-to-end ones; with --trace 1 the per-layer ones (and
/// the span dump lands in .bench_out/).  Exit status: 0 on a completed run
/// whose checks all passed, 1 when a check failed, 2 on bad arguments.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common.hpp"

namespace perfbench {

const Clock::time_point process_start = Clock::now();

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double trimmed_mean(std::vector<double> v, double frac) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const auto drop = static_cast<std::size_t>(frac * static_cast<double>(v.size()));
  double sum = 0.0;
  for (std::size_t i = drop; i < v.size() - drop; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * drop);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

void Report::metric(const std::string& name, double value, const char* unit) {
  metrics_.push_back({name, value, unit});
}

void Report::fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  failures_.push_back(what);
}

std::string Report::json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": " << attempted_
     << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": ";
    if (std::isfinite(m.value))
      os << m.value;
    else
      os << "null";
    os << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

int Tracer::open(const char* name) {
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now().time_since_epoch())
                       .count();
  records_.push_back({name, now, -1, stack_.empty() ? -1 : stack_.back()});
  stack_.push_back(static_cast<int>(records_.size() - 1));
  return stack_.back();
}

void Tracer::close(int id) {
  records_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

bool Tracer::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  const std::int64_t t0 = records_.empty() ? 0 : records_.front().start_ns;
  f << "{\"spans\": [\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.end_ns < 0) continue;
    f << (i ? ",\n" : "") << "{\"id\": " << i << ", \"name\": \"" << r.name
      << "\", \"parent\": " << r.parent << ", \"start_us\": "
      << static_cast<double>(r.start_ns - t0) * 1e-3
      << ", \"dur_us\": " << static_cast<double>(r.end_ns - r.start_ns) * 1e-3 << "}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <paper_n6|paper_n48|tenant_mix|stream> "
               "--seed <n> --seconds <s> --trace <0|1>\n"
               "       perfbench --selftest\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--selftest") return run_selftest();
      if (i + 1 >= argc) return usage();
      const std::string val = argv[++i];
      if (flag == "--workload") {
        a.workload = val;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(val);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(val);
      } else if (flag == "--trace") {
        a.trace = std::stoi(val) != 0;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (!have_workload || !(a.seconds > 0.0)) return usage();

  Report rep;
  Tracer tr;
  tr.set_enabled(a.trace);
  try {
    if (a.workload == "paper_n6")
      run_paper(a, 6, 16384, rep, tr);
    else if (a.workload == "paper_n48")
      run_paper(a, 48, 512, rep, tr);
    else if (a.workload == "tenant_mix")
      run_tenant_mix(a, rep, tr);
    else if (a.workload == "stream")
      run_stream(a, rep, tr);
    else
      return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s aborted: %s\n", a.workload.c_str(), e.what());
    return 1;
  }

  if (a.trace) {
    std::error_code ec;
    std::filesystem::create_directories(".bench_out", ec);
    const std::string path =
        ".bench_out/spans-" + a.workload + "-" + std::to_string(a.seed) + ".json";
    tr.set_enabled(false);
    if (!tr.write(path))
      std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    else
      std::fprintf(stderr, "perfbench: span dump in %s\n", path.c_str());
  }
  std::fflush(stderr);
  std::printf("%s\n", rep.json().c_str());
  return rep.correct() ? 0 : 1;
}

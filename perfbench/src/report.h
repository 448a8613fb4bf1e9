// Result record and statistics shared by the end-to-end and traced runs.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// Samples the value was computed from, and for a percentile how many
  /// of them lie above it (printed so every percentile shows its support).
  std::uint64_t samples = 0;
  std::uint64_t beyond = 0;
  /// False for a per-layer metric of a layer the workload never reaches.
  bool reached = true;
};

struct RunResult {
  std::uint64_t attempted = 0;
  /// Exceptions, non-exact outcomes, error replies and wrong answers.
  std::uint64_t failed = 0;
  /// Wrong answers alone (or, traced, replays that disagree).
  std::uint64_t mismatches = 0;
  std::vector<Metric> metrics;
  /// Median HostProbe scale of the run; 0 where times are unscaled.
  double host_scale = 0;
};

/// Linear interpolation between closest ranks; `values` must be non-empty.
inline double Percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  double rank = q * static_cast<double>(values.size() - 1);
  std::size_t low = static_cast<std::size_t>(rank);
  std::size_t high = std::min(low + 1, values.size() - 1);
  return values[low] + (rank - static_cast<double>(low)) *
                           (values[high] - values[low]);
}

/// Throughput of one pass from each op's median latency over the passes
/// run: a transient slowdown of the shared host during one pass moves a
/// median only if it hits most passes. `per_op[i]` holds op i's latencies.
inline double PassSeconds(const std::vector<std::vector<double>>& per_op) {
  double total = 0;
  for (const std::vector<double>& latencies : per_op) {
    if (!latencies.empty()) total += Percentile(latencies, 0.5);
  }
  return total;
}

inline Metric PercentileMetric(const std::string& name,
                               const std::vector<double>& seconds, double q) {
  Metric metric{name, 0, "ms", seconds.size(), 0};
  if (seconds.empty()) return metric;
  double value = Percentile(seconds, q);
  metric.value = value * 1e3;
  metric.beyond = static_cast<std::uint64_t>(
      std::count_if(seconds.begin(), seconds.end(),
                    [value](double s) { return s > value; }));
  return metric;
}

/// The process's resident-set high-water mark (VmHWM). Unlike
/// getrusage's ru_maxrss it restarts at exec, so it does not report the
/// launching process's peak.
inline double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_

// harness.h - timing, allocation counting, statistics and result plumbing
// shared by the benchmark's workloads.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock, seconds.
[[nodiscard]] double wall_now();
/// User + system CPU of the whole process, seconds.
[[nodiscard]] double cpu_now();
/// Peak resident set of the process since start or the last
/// reset_peak_rss(), MB.
[[nodiscard]] double peak_rss_mb();
/// Trims the heap and restarts the peak-RSS watermark (Linux clear_refs).
void reset_peak_rss();

/// Allocation counting (the benchmark binary replaces operator new). Off by
/// default so the end-to-end run pays one predictable branch per
/// allocation; the traced run turns it on for all its iterations.
void set_alloc_counting(bool on);
[[nodiscard]] std::uint64_t allocs_now();

/// Wall, CPU and allocations of one directly timed call.
struct Cost {
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t allocs = 0;
};

class CostTimer {
 public:
  CostTimer() : wall_(wall_now()), cpu_(cpu_now()), allocs_(allocs_now()) {}
  [[nodiscard]] Cost stop() const {
    return {wall_now() - wall_, cpu_now() - cpu_, allocs_now() - allocs_};
  }

 private:
  double wall_;
  double cpu_;
  std::uint64_t allocs_;
};

template <class F>
Cost measure(F&& fn) {
  const CostTimer timer;
  fn();
  return timer.stop();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Named metrics with units, in insertion-independent (sorted) order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  /// Records a directly timed call as <name>.cpu_s and <name>.allocs.
  void set_call(const std::string& name, const Cost& cost) {
    set(name + ".cpu_s", cost.cpu_s, "s");
    set(name + ".allocs", static_cast<double>(cost.allocs), "count");
  }
  struct Value {
    double value = 0;
    std::string unit;
  };
  [[nodiscard]] const std::map<std::string, Value>& values() const noexcept {
    return values_;
  }

 private:
  std::map<std::string, Value> values_;
};

/// Oracle ledger: every check is one attempted operation; a failed one is
/// reported on stderr and fails the run.
class Verdict {
 public:
  bool check(bool ok, const std::string& what);
  void add_attempts(std::uint64_t n) { attempted_ += n; }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Removes a directory tree, ignoring errors.
void remove_tree(const std::string& path);
/// Total size of the regular files directly inside `dir` whose name ends
/// in `suffix`.
[[nodiscard]] std::uint64_t dir_bytes(const std::string& dir,
                                      const std::string& suffix);

}  // namespace perfbench

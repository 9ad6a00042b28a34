// Shared plumbing of the wall-clock benchmark: command-line arguments, the
// result every run prints, the benchmark's own span recorder and process
// resource readings.
#ifndef WALLBENCH_REPORT_H_
#define WALLBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wallbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  /// Engine of the exec-* workloads ("ce"; "occ"/"2pl" for reference runs).
  std::string engine = "ce";
  bool self_test = false;
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--engine E]` or
/// `--self-test`. Returns false (after printing why) on anything else.
bool ParseArgs(int argc, char** argv, Args* args);

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one run prints as its last line. `failed` counts operations that
/// returned an error or failed a check; `errors` says why (stderr only).
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  /// A whole-run check failed: the result is wrong, not one operation.
  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  /// One JSON object: {"correct":..,"attempted":..,"failed":..,"metrics":..}.
  std::string ToJson() const;
};

/// Spans recorded by the benchmark around its calls into the program:
/// name, start, end and the enclosing span. Disabled recorders cost one
/// branch per call. Kept in memory and written once, at the end.
class Spans {
 public:
  explicit Spans(bool enabled);

  /// Opens a span nested in the innermost open one; returns its id.
  int Begin(const char* name);
  void End(int id);

  /// Self time per span name, in milliseconds: each span's duration minus
  /// the part its child spans cover, summed over spans of that name.
  std::map<std::string, double> SelfMs() const;

  /// Chrome trace-event JSON ("X" events, parent id in args) that
  /// Perfetto and chrome://tracing load.
  bool WriteChromeJson(const std::string& path) const;

  /// RAII helper: `Spans::Scope s(spans, "pool_run");`.
  class Scope {
   public:
    Scope(Spans& spans, const char* name)
        : spans_(spans), id_(spans.Begin(name)) {}
    ~Scope() { spans_.End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int id_;
  };

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int parent;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// User + system CPU seconds of the whole process (all threads).
double ProcessCpuSeconds();

/// Peak resident set size of the process, in MiB.
double PeakRssMb();

/// `value` per transaction; 0 when no transaction committed.
inline double PerTxn(double value, uint64_t txns) {
  return txns == 0 ? 0 : value / static_cast<double>(txns);
}

/// Median (p = 50) or other percentile of `values`, nearest-rank on a
/// sorted copy. 0 for an empty input.
double PercentileOf(std::vector<double> values, double p);

}  // namespace wallbench

#endif  // WALLBENCH_REPORT_H_

#ifndef FLEX_PERFBENCH_BENCH_H_
#define FLEX_PERFBENCH_BENCH_H_

// Shared scaffolding of the whole-stack benchmark: run options, the
// workload interface, sample statistics, per-layer accumulation and the
// span arithmetic (self time) the traced runs use.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/trace.h"

namespace flex::perfbench {

using Clock = std::chrono::steady_clock;

/// Steady-clock instant taken during static initialisation, before main:
/// the start of the cold set-up that `setup_s` measures.
Clock::time_point ProcessStart();

inline double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}
inline double MillisSince(Clock::time_point t) {
  return SecondsSince(t) * 1e3;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Per-run scratch directory (WAL files); removed when the run ends.
  std::string run_dir;
};

// ------------------------------------------------------------ statistics

double Median(std::vector<double> samples);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty set.
double Quantile(std::vector<double> samples, double q);
double Geomean(const std::vector<double>& values);

// ----------------------------------------------------------- per layer

/// Per-layer samples of one run. A metric's value is the median of its
/// samples; each sample is one request, one pass, one round or one run,
/// as the workload defines it. Metrics of layers a workload never runs
/// keep no samples and report 0.
class LayerStats {
 public:
  void Add(const std::string& name, double sample) {
    samples_[name].push_back(sample);
  }
  /// Adds to the open unit (request, pass); EndUnit() turns every open sum
  /// into one sample.
  void Accumulate(const std::string& name, double value) {
    open_[name] += value;
  }
  void EndUnit();
  void Merge(const LayerStats& other);

  const std::map<std::string, std::vector<double>>& samples() const {
    return samples_;
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> open_;
};

/// Read-only index over one trace's spans: children and self time.
class SpanIndex {
 public:
  explicit SpanIndex(const trace::Trace& trace);

  const std::vector<trace::Span>& spans() const { return spans_; }
  /// Duration minus the summed durations of the direct children.
  double SelfMicros(size_t index) const;
  /// Durations of the direct children of span `index` named `name`
  /// (prefix match when `prefix`).
  std::vector<double> ChildDurations(size_t index, const std::string& name,
                                     bool prefix = false) const;
  /// Index of the first span named `name`, or -1.
  int Find(const std::string& name) const;

 private:
  std::vector<trace::Span> spans_;
  std::vector<std::vector<size_t>> children_;
};

/// Waits (up to a second) until every span of `trace` has ended.
/// HiActorEngine resolves a task's future before its "hiactor.execute"
/// span ends, so a caller must not read or free the trace as soon as
/// Run() or Execute() returns.
void WaitForClosedSpans(const trace::Trace& trace);

/// Folds the query-layer and runtime spans of one traced QueryService
/// request (interpreter operators, storage reads, HiActor queue/execute,
/// Gaia shards/exchange) into the open unit of `layers`, once every span
/// has ended.
void AccumulateQuerySpans(const trace::Trace& trace, LayerStats* layers);

// -------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The outcome of one run: operations attempted and failed (timed
/// operations plus correctness checks) and the reported metrics.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  /// Records one correctness check.
  void Check(bool ok, const std::string& what);
  void CountOps(uint64_t ops, uint64_t failed_ops) {
    attempted += ops;
    failed += failed_ops;
  }
};

/// The end-to-end metrics every workload reports (BENCHMARK.json's
/// end_to_end list, in order).
struct EndToEnd {
  double ops_per_s = 0;
  /// Geometric mean over the workload's operation kinds of each kind's
  /// median latency.
  double geomean_ms = 0;
  /// Extra named figures printed in the human-readable report only.
  std::vector<Metric> detail;
};

/// One workload: set-up (timed as setup_s), warm-up, the timed closed
/// loop, outside-timed layer probes, and the correctness checks.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void Setup(const Options& options, LayerStats* setup_layers) = 0;
  virtual void WarmUp() = 0;
  /// Runs the closed loop for `seconds`; `layers` is null when untraced.
  virtual EndToEnd Measure(double seconds, LayerStats* layers,
                           Outcome* outcome) = 0;
  /// Layer probes timed from outside the program (traced run only).
  virtual void Probe(LayerStats* layers) {}
  virtual void Check(Outcome* outcome) = 0;
};

std::unique_ptr<Workload> MakeInteractive();
std::unique_ptr<Workload> MakeBi();
std::unique_ptr<Workload> MakeAnalytics();
std::unique_ptr<Workload> MakeHtap();

}  // namespace flex::perfbench

#endif  // FLEX_PERFBENCH_BENCH_H_

// flexbench: one workload of the whole-stack benchmark per invocation.
//
//   flexbench --workload interactive|bi|analytics|htap --seed N
//             --seconds S --trace 0|1
//
// With --trace 0 the run measures the end-to-end metrics with tracing
// off. With --trace 1 it measures half the time untraced and half traced,
// prints the per-layer metrics (median and sample count) and the tracing
// overhead of each end-to-end metric. The last line of standard output is
// always one JSON object: correct, attempted, failed, and metrics (each
// metric's value and sample count: the end-to-end metrics untraced, every
// per-layer metric the workload sampled when traced).

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"

namespace flex::perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: flexbench --workload interactive|bi|analytics|htap "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "interactive") return MakeInteractive();
  if (name == "bi") return MakeBi();
  if (name == "analytics") return MakeAnalytics();
  if (name == "htap") return MakeHtap();
  return nullptr;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintE2E(const char* label, double setup_s, const EndToEnd& e2e) {
  std::printf("%-9s setup_s %.4f  ops_per_s %.2f  geomean_ms %.5f\n", label,
              setup_s, e2e.ops_per_s, e2e.geomean_ms);
  for (const Metric& m : e2e.detail) {
    std::printf("%-9s   %-34s %14.5f %s\n", label, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

int Run(const Options& options) {
  std::unique_ptr<Workload> workload = MakeWorkload(options.workload);
  if (workload == nullptr) return Usage();

  LayerStats layers;
  workload->Setup(options, &layers);
  const double setup_s = SecondsSince(ProcessStart());
  workload->WarmUp();

  Outcome outcome;
  EndToEnd e2e;
  if (!options.trace) {
    e2e = workload->Measure(options.seconds, nullptr, &outcome);
    PrintE2E("untraced", setup_s, e2e);
  } else {
    const EndToEnd plain =
        workload->Measure(options.seconds / 2, nullptr, &outcome);
    const EndToEnd traced =
        workload->Measure(options.seconds / 2, &layers, &outcome);
    workload->Probe(&layers);
    PrintE2E("untraced", setup_s, plain);
    PrintE2E("traced", setup_s, traced);
    std::printf("tracing overhead (traced - untraced): ops_per_s %+.2f  "
                "geomean_ms %+.5f\n",
                traced.ops_per_s - plain.ops_per_s,
                traced.geomean_ms - plain.geomean_ms);
    for (size_t i = 0; i < plain.detail.size() && i < traced.detail.size();
         ++i) {
      std::printf("tracing overhead: %-34s %+.5f %s\n",
                  plain.detail[i].name.c_str(),
                  traced.detail[i].value - plain.detail[i].value,
                  plain.detail[i].unit.c_str());
    }
  }
  workload->Check(&outcome);
  for (const std::string& f : outcome.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  // A timed operation that errs or returns a wrong-sized answer fails the
  // run just as a failed check does.
  const bool correct = outcome.failed == 0;

  // Each metric as its value and sample count; run.py names the units and
  // orders them by BENCHMARK.json.
  std::string metrics;
  auto add = [&](const std::string& name, double value, size_t samples) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + JsonNumber(value) +
               ", \"samples\": " + std::to_string(samples) + "}";
  };
  if (!options.trace) {
    add("setup_s", setup_s, 1);
    add("ops_per_s", e2e.ops_per_s, 1);
    add("geomean_ms", e2e.geomean_ms, 1);
  } else {
    for (const auto& [name, samples] : layers.samples()) {
      add(name, Median(samples), samples.size());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace flex::perfbench

int main(int argc, char** argv) {
  using flex::perfbench::Options;
  Options options;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return flex::perfbench::Usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     options.seconds > 0 && options.seconds <= 3600;
    } else if (arg == "--trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
    } else {
      return flex::perfbench::Usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    return flex::perfbench::Usage();
  }
  // Run outputs (the WAL) live under .bench_runs/ in the working
  // directory and are removed when the run ends.
  namespace fs = std::filesystem;
  options.run_dir = (fs::path(".bench_runs") /
                     (options.workload + "-" + std::to_string(options.seed) +
                      "-" + std::to_string(::getpid())))
                        .string();
  fs::create_directories(options.run_dir);
  const int rc = flex::perfbench::Run(options);
  std::error_code ec;
  fs::remove_all(options.run_dir, ec);
  fs::remove(".bench_runs", ec);  // Only when no other run uses it.
  return rc;
}

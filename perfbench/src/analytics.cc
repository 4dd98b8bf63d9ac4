// analytics — the only workload that runs grape and the partitioner. A
// seeded R-MAT graph (scale 17, edge factor 16) is hash-partitioned into 1
// and into 4 fragments; each round runs PageRank (10 iterations) at f1 and
// at f4, then BFS from vertex 0 and WCC at f4, all through
// grape::RunPieChecked. f1 is the same computation as f4 without flush,
// barriers and partition skew, which makes it the control.

#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "checks.h"
#include "common/logging.h"
#include "common/metric_names.h"
#include "common/metrics.h"
#include "datagen/generators.h"
#include "grape/apps/pagerank.h"
#include "grape/apps/traversal.h"
#include "grape/fragment.h"

namespace flex::perfbench {

namespace {

constexpr int kPageRankIterations = 10;
constexpr double kDamping = 0.85;
constexpr vid_t kBfsSource = 0;

using Fragments = std::vector<std::unique_ptr<grape::Fragment>>;

enum Kind { kPageRankF1, kPageRankF4, kBfsF4, kWccF4, kNumKinds };
const char* const kKindNames[kNumKinds] = {
    "analytics.pagerank_f1_ms", "analytics.pagerank_f4_ms",
    "analytics.bfs_f4_ms", "analytics.wcc_f4_ms"};

/// Merges each fragment's inner-vertex results into one global vector.
template <typename App, typename Msg, typename T, typename Get>
std::vector<T> Merge(const Fragments& frags,
                     const std::vector<std::unique_ptr<grape::PieApp<Msg>>>& apps,
                     Get get) {
  std::vector<T> out(frags[0]->total_vertices());
  for (size_t f = 0; f < frags.size(); ++f) {
    const auto& values = get(static_cast<const App&>(*apps[f]));
    for (vid_t v : frags[f]->inner_vertices()) out[v] = values[v];
  }
  return out;
}

class Analytics : public Workload {
 public:
  void Setup(const Options& options, LayerStats* setup_layers) override {
    datagen::RmatParams params;
    params.scale = 17;
    params.edge_factor = 16.0;
    params.seed = options.seed;
    Clock::time_point t = Clock::now();
    graph_ = datagen::GenerateRmat(params);
    setup_layers->Add("datagen.generate_s", SecondsSince(t));
    p1_ = std::make_unique<EdgeCutPartitioner>(graph_.num_vertices, 1);
    p4_ = std::make_unique<EdgeCutPartitioner>(graph_.num_vertices, 4);
    f1_ = grape::Partition(graph_, *p1_);
    t = Clock::now();
    f4_ = grape::Partition(graph_, *p4_);
    setup_layers->Add("grape.fragment_build_s", SecondsSince(t));
    size_t max_edges = 0;
    for (const auto& frag : f4_) {
      max_edges = std::max(max_edges, frag->num_inner_edges());
    }
    partition_share_ = static_cast<double>(max_edges) /
                       static_cast<double>(graph_.num_edges());
    setup_layers->Add("graph.partition_max_edge_share", partition_share_);
    std::printf("input: R-MAT seed %llu, %u vertices, %zu edges\n",
                static_cast<unsigned long long>(options.seed),
                graph_.num_vertices, graph_.num_edges());
  }

  void WarmUp() override {
    double ms = 0;
    for (int k = 0; k < kNumKinds; ++k) {
      RunKind(static_cast<Kind>(k), nullptr, &ms);
    }
    // Check() inspects the first timed run of each kind.
    pagerank_f1_.clear();
    pagerank_f4_.clear();
    bfs_f4_.clear();
    wcc_f4_.clear();
  }

  EndToEnd Measure(double seconds, LayerStats* layers,
                   Outcome* outcome) override {
    std::vector<std::vector<double>> kind_ms(kNumKinds);
    uint64_t ops = 0, failed = 0;
    auto& reg = metrics::MetricsRegistry::Instance();
    const metrics::Counter* msgs = reg.GetCounter(metrics::kMsgsSentTotal);
    const metrics::Counter* bytes =
        reg.GetCounter(metrics::kMsgBytesFlushedTotal);
    std::vector<double> round_s;
    const Clock::time_point start = Clock::now();
    do {
      const Clock::time_point round_start = Clock::now();
      // Per round of the workload: supersteps, flush and compute of the
      // three f4 runs; the f1 run is the control and stays out.
      double supersteps = 0, superstep_us = 0, flush_us = 0;
      const uint64_t msgs0 = msgs->Value(), bytes0 = bytes->Value();
      for (int k = 0; k < kNumKinds; ++k) {
        std::unique_ptr<trace::Trace> trace;
        if (layers != nullptr && k != kPageRankF1) {
          trace = std::make_unique<trace::Trace>(kKindNames[k]);
        }
        double ms = 0;
        const int rounds = RunKind(static_cast<Kind>(k), trace.get(), &ms);
        kind_ms[k].push_back(ms);
        ++ops;
        if (rounds < 0) {
          ++failed;
          continue;
        }
        if (trace != nullptr) {
          supersteps += rounds;
          for (const trace::Span& span : trace->spans()) {
            if (span.category == "superstep") superstep_us += span.duration_us();
            if (span.category == "flush") flush_us += span.duration_us();
          }
        }
      }
      round_s.push_back(SecondsSince(round_start));
      if (layers != nullptr) {
        const double n = std::max(supersteps, 1.0);
        layers->Add("grape.supersteps", supersteps);
        layers->Add("grape.superstep_us", superstep_us / n);
        layers->Add("grape.flush_us", flush_us / n);
        layers->Add("grape.compute_us", (superstep_us - flush_us) / n);
        // Counter deltas include the f1 run's, which sends nothing
        // between fragments but its broadcast of dangling mass.
        layers->Add("grape.msgs_sent",
                    static_cast<double>(msgs->Value() - msgs0));
        layers->Add("grape.bytes_flushed",
                    static_cast<double>(bytes->Value() - bytes0));
      }
    } while (SecondsSince(start) < seconds);
    outcome->CountOps(ops, failed);

    EndToEnd e2e;
    e2e.ops_per_s = static_cast<double>(kNumKinds) / Median(round_s);
    std::vector<double> medians;
    for (int k = 0; k < kNumKinds; ++k) {
      medians.push_back(Median(kind_ms[k]));
      e2e.detail.push_back({kKindNames[k], medians.back(), "ms"});
    }
    e2e.geomean_ms = Geomean(medians);
    e2e.detail.push_back({"analytics.rounds",
                          static_cast<double>(kind_ms[0].size()), "count"});
    return e2e;
  }

  void Check(Outcome* outcome) override {
    const std::vector<double> ranks =
        ReferencePageRank(graph_, kPageRankIterations, kDamping);
    std::string why = CheckRanks(pagerank_f1_, ranks, 1e-9);
    outcome->Check(why.empty(), "PageRank f1: " + why);
    why = CheckRanks(pagerank_f4_, ranks, 1e-9);
    outcome->Check(why.empty(), "PageRank f4: " + why);
    why = CheckDepths(bfs_f4_, ReferenceBfs(graph_, kBfsSource));
    outcome->Check(why.empty(), "BFS f4: " + why);
    why = CheckComponents(wcc_f4_, graph_);
    outcome->Check(why.empty(), "WCC f4: " + why);
    const double share = PartitionMaxEdgeShare(graph_, *p4_);
    outcome->Check(share == partition_share_,
                   "graph.partition_max_edge_share " +
                       std::to_string(partition_share_) +
                       " != recomputed " + std::to_string(share));
  }

 private:
  /// Runs one algorithm and sets `ms` to the time RunPieChecked took;
  /// returns its rounds, or -1 on failure. Keeps the merged result of the
  /// first successful run of each kind for Check().
  int RunKind(Kind kind, trace::Trace* trace, double* ms) {
    grape::PieOptions options;
    options.trace = trace;
    switch (kind) {
      case kPageRankF1:
      case kPageRankF4: {
        const Fragments& frags = kind == kPageRankF1 ? f1_ : f4_;
        auto& keep = kind == kPageRankF1 ? pagerank_f1_ : pagerank_f4_;
        return RunApps<grape::PageRankApp, double>(
            frags, options, ms, &keep,
            [] {
              return std::make_unique<grape::PageRankApp>(kPageRankIterations,
                                                          kDamping);
            },
            [](const grape::PageRankApp& app) -> const std::vector<double>& {
              return app.ranks();
            });
      }
      case kBfsF4:
        return RunApps<grape::BfsApp, uint32_t>(
            f4_, options, ms, &bfs_f4_,
            [] { return std::make_unique<grape::BfsApp>(kBfsSource); },
            [](const grape::BfsApp& app) -> const std::vector<uint32_t>& {
              return app.depths();
            });
      case kWccF4:
        return RunApps<grape::WccApp, uint32_t>(
            f4_, options, ms, &wcc_f4_,
            [] { return std::make_unique<grape::WccApp>(); },
            [](const grape::WccApp& app) -> const std::vector<uint32_t>& {
              return app.labels();
            });
      default:
        return -1;
    }
  }

  /// `T` is both the app's message type and its per-vertex result type.
  template <typename App, typename T, typename Make, typename Get>
  int RunApps(const Fragments& frags, const grape::PieOptions& options,
              double* ms, std::vector<T>* keep, Make make, Get get) {
    std::vector<std::unique_ptr<grape::PieApp<T>>> apps;
    for (size_t f = 0; f < frags.size(); ++f) apps.push_back(make());
    const Clock::time_point t = Clock::now();
    Result<int> rounds = grape::RunPieChecked(frags, apps, options);
    *ms = MillisSince(t);
    if (!rounds.ok()) return -1;
    if (keep->empty()) *keep = Merge<App, T, T>(frags, apps, get);
    return rounds.value();
  }

  EdgeList graph_;
  std::unique_ptr<EdgeCutPartitioner> p1_, p4_;
  Fragments f1_, f4_;
  double partition_share_ = 0;
  std::vector<double> pagerank_f1_, pagerank_f4_;
  std::vector<uint32_t> bfs_f4_, wcc_f4_;
};

}  // namespace

std::unique_ptr<Workload> MakeAnalytics() {
  return std::make_unique<Analytics>();
}

}  // namespace flex::perfbench

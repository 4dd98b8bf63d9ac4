// The two read-only SNB workloads over one sealed GART snapshot:
//
//   interactive — 2 client threads, closed loop, each replaying a fixed
//     seeded sequence of 70% short (S1-S7) and 30% complex (C1-C14) reads
//     through QueryService::Run on HiActor: the OLTP path, where
//     per-request overhead (plan cache, admission, HiActor queue and
//     hand-off, point lookups) dominates.
//   bi — one client repeating passes over the 20 BI queries on Gaia with
//     4 workers: the OLAP path (sharded prefix, exchange, blocking suffix,
//     fused scans).

#include <cstdio>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "common/logging.h"
#include "common/metric_names.h"
#include "common/metrics.h"
#include "query/service.h"
#include "snb/snb.h"
#include "storage/gart/gart_store.h"

namespace flex::perfbench {

namespace {

constexpr size_t kPersons = 4000;
constexpr size_t kWorkers = 4;

/// One pre-drawn read: the query, its binding and its kind's slot.
struct Request {
  const snb::QuerySpec* spec = nullptr;
  std::vector<PropertyValue> params;
  size_t kind = 0;
};

/// Registry counters read before and after a traced phase.
struct CounterSnapshot {
  uint64_t scans, adj_visits, index_lookups, batches, batch_rows;
  query::PlanCacheStats cache;

  static CounterSnapshot Take(const query::QueryService& service) {
    auto& reg = metrics::MetricsRegistry::Instance();
    const metrics::Histogram* rows =
        reg.GetHistogram(metrics::kQueryRowsPerBatch);
    return {reg.GetCounter(metrics::kStorageScansTotal)->Value(),
            reg.GetCounter(metrics::kStorageAdjVisitsTotal)->Value(),
            reg.GetCounter(metrics::kStorageIndexLookupsTotal)->Value(),
            rows->TotalCount(), rows->SumMicros(),
            service.plan_cache().stats()};
  }
};

/// Adds the per-query counter metrics of a traced phase of `queries`.
void AddCounterDeltas(const CounterSnapshot& a, const CounterSnapshot& b,
                      double queries, LayerStats* layers) {
  layers->Add("storage.scans_per_query", (b.scans - a.scans) / queries);
  layers->Add("storage.adj_visits_per_query",
              (b.adj_visits - a.adj_visits) / queries);
  layers->Add("storage.index_lookups_per_query",
              (b.index_lookups - a.index_lookups) / queries);
  if (b.batches > a.batches) {
    layers->Add("query.rows_per_batch",
                static_cast<double>(b.batch_rows - a.batch_rows) /
                    static_cast<double>(b.batches - a.batches));
  }
  const double hits = static_cast<double>(b.cache.hits - a.cache.hits);
  const double misses = static_cast<double>(b.cache.misses - a.cache.misses);
  if (hits + misses > 0) {
    layers->Add("query.plan_cache_hit_ratio", hits / (hits + misses));
  }
}

/// The shared SNB set-up: generate, load into GART, seal, serve.
class SnbWorkload : public Workload {
 public:
  void Setup(const Options& options, LayerStats* setup_layers) override {
    options_ = options;
    schema_ = snb::SnbSchema::Build();
    snb::SnbConfig config;
    config.num_persons = kPersons;
    config.seed = options.seed;
    Clock::time_point t = Clock::now();
    data_ = snb::GenerateSnb(config, &stats_);
    setup_layers->Add("snb.generate_s", SecondsSince(t));
    t = Clock::now();
    auto store = storage::GartStore::Build(data_);
    FLEX_CHECK(store.ok());
    store_ = std::move(store).value();
    setup_layers->Add("storage.load_s", SecondsSince(t));
    snapshot_ = store_->GetSnapshot();
    service_ =
        std::make_unique<query::QueryService>(snapshot_.get(), kWorkers);
    DrawRequests();
    std::printf("input: SNB seed %llu, %zu persons, %zu vertices, %zu edges\n",
                static_cast<unsigned long long>(options.seed),
                stats_.num_persons, data_.total_vertices(),
                data_.total_edges());
  }

  void Probe(LayerStats* layers) override {
    // Compile cost per distinct template, from outside the service.
    std::vector<const snb::QuerySpec*> templates;
    for (const auto& spec : Suite()) templates.push_back(&spec);
    for (const snb::QuerySpec* spec : templates) {
      std::vector<double> us;
      for (int rep = 0; rep < 9; ++rep) {
        Clock::time_point t = Clock::now();
        auto plan = service_->Compile(query::Language::kCypher, spec->cypher);
        us.push_back(MillisSince(t) * 1e3);
        FLEX_CHECK(plan.ok());
      }
      layers->Add("query.compile_us", Median(us));
    }
    // GRIN accessor cost on the GART snapshot: a property read per vertex
    // and a batched KNOWS expansion per person.
    const grin::GrinGraph& g = *snapshot_;
    for (int rep = 0; rep < 5; ++rep) {
      struct Ctx {
        const grin::GrinGraph* g;
        int64_t sum = 0;
        size_t n = 0;
      } ctx{&g};
      Clock::time_point t = Clock::now();
      for (label_t label : {schema_.person, schema_.post}) {
        g.VisitVertices(
            label, nullptr, nullptr,
            [](void* c, vid_t v) {
              auto* ctx = static_cast<Ctx*>(c);
              ctx->sum += ctx->g->GetVertexProperty(v, 1).is_empty() ? 0 : 1;
              ++ctx->n;
              return true;
            },
            &ctx);
      }
      layers->Add("grin.ns_per_vertex",
                  SecondsSince(t) * 1e9 / static_cast<double>(ctx.n));

      std::vector<vid_t> persons;
      g.VisitVertices(
          schema_.person, nullptr, nullptr,
          [](void* c, vid_t v) {
            static_cast<std::vector<vid_t>*>(c)->push_back(v);
            return true;
          },
          &persons);
      size_t edges = 0;
      t = Clock::now();
      g.GetNeighborsBatch(
          persons, Direction::kBoth, schema_.knows,
          [](void* c, size_t, Direction, const grin::AdjChunk& chunk) {
            *static_cast<size_t*>(c) += chunk.neighbors.size();
            return true;
          },
          &edges);
      layers->Add("grin.ns_per_edge",
                  SecondsSince(t) * 1e9 / static_cast<double>(edges));
    }
  }

 protected:
  virtual const std::vector<snb::QuerySpec>& Suite() const = 0;
  virtual void DrawRequests() = 0;

  /// Runs one request; returns its rows (empty on failure, reported).
  Result<std::vector<ir::Row>> RunOne(const Request& req,
                                      query::EngineKind engine,
                                      trace::Trace* trace) {
    query::RunOptions run;
    run.engine = engine;
    run.trace = trace;
    return service_->Run(query::Language::kCypher, req.spec->cypher, run,
                         req.params);
  }

  /// Compares each request's warm-up answer and its answer in the timed
  /// loop against NaiveGraphDB (and, for S1, S3, BI1 and BI2, against
  /// answers computed from the generated data).
  void CheckAnswers(const std::vector<const Request*>& requests,
                    const std::vector<std::vector<ir::Row>>& warm,
                    const std::vector<std::vector<ir::Row>>& timed,
                    Outcome* outcome) {
    query::NaiveGraphDB naive(snapshot_.get());
    for (size_t i = 0; i < requests.size(); ++i) {
      const Request& req = *requests[i];
      const std::string& name = req.spec->name;
      const bool ordered = OrderIsTotal(name);
      auto want = naive.Run(query::Language::kCypher, req.spec->cypher,
                            req.params);
      std::vector<ir::Row> own;
      bool has_own = true;
      if (name == "S1") {
        own = ExpectedS1(data_, schema_, req.params[0].AsInt64());
      } else if (name == "S3") {
        own = ExpectedS3(data_, schema_, req.params[0].AsInt64());
      } else if (name == "BI1") {
        own = ExpectedBi1(data_, schema_);
      } else if (name == "BI2") {
        own = ExpectedBi2(data_, schema_);
      } else {
        has_own = false;
      }
      for (const auto* answers : {&warm, &timed}) {
        const std::string phase = answers == &warm ? " (warm-up)" : " (timed)";
        const std::vector<ir::Row>& got = (*answers)[i];
        std::string why = want.ok() ? CompareRows(got, want.value(), ordered)
                                    : want.status().message();
        outcome->Check(why.empty(),
                       name + phase + " vs NaiveGraphDB: " + why);
        if (has_own) {
          why = CompareRows(got, own, ordered);
          outcome->Check(why.empty(),
                         name + phase + " vs generated data: " + why);
        }
      }
    }
  }

  Options options_;
  snb::SnbSchema schema_;
  snb::SnbStats stats_;
  PropertyGraphData data_;
  std::unique_ptr<storage::GartStore> store_;
  std::unique_ptr<grin::GrinGraph> snapshot_;
  std::unique_ptr<query::QueryService> service_;
};

// ------------------------------------------------------------ interactive

constexpr size_t kClients = 2;
/// Long rounds: a round's time is dominated by its few complex reads on
/// hub persons, so many distinct bindings keep it alike across seeds.
constexpr size_t kRequestsPerRound = 20000;
/// Warm-up answers checked against NaiveGraphDB, per client.
constexpr size_t kCheckedPerClient = 300;

class Interactive : public SnbWorkload {
 public:
  Interactive()
      : shorts_(snb::InteractiveShortQueries()),
        complexes_(snb::InteractiveComplexQueries()) {
    suite_ = shorts_;
    suite_.insert(suite_.end(), complexes_.begin(), complexes_.end());
  }

  void WarmUp() override {
    answers_.assign(kClients, {});
    answer_sizes_.assign(kClients, {});
    RunClients([&](size_t c) {
      for (const Request& req : rounds_[c]) {
        auto rows = RunOne(req, query::EngineKind::kHiActor, nullptr);
        FLEX_CHECK(rows.ok());
        answer_sizes_[c].push_back(rows.value().size());
        if (answers_[c].size() < kCheckedPerClient) {
          answers_[c].push_back(std::move(rows).value());
        }
      }
    });
  }

  EndToEnd Measure(double seconds, LayerStats* layers,
                   Outcome* outcome) override {
    struct Client {
      std::vector<std::vector<double>> kind_ms;
      std::vector<double> round_s;
      uint64_t ops = 0, failed = 0;
      LayerStats layers;
    };
    std::vector<Client> clients(kClients);
    // The first timed phase keeps the answers that Check() compares.
    const bool keep = timed_answers_.empty();
    if (keep) timed_answers_.assign(kClients, {});
    const CounterSnapshot before = CounterSnapshot::Take(*service_);
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    RunClients([&](size_t c) {
      Client& me = clients[c];
      me.kind_ms.assign(suite_.size(), {});
      do {  // Whole rounds of the client's fixed sequence.
        const Clock::time_point round_start = Clock::now();
        for (size_t i = 0; i < rounds_[c].size(); ++i) {
          const Request& req = rounds_[c][i];
          std::unique_ptr<trace::Trace> trace;
          if (layers != nullptr) {
            trace = std::make_unique<trace::Trace>(req.spec->name);
          }
          const Clock::time_point t = Clock::now();
          auto rows = RunOne(req, query::EngineKind::kHiActor, trace.get());
          me.kind_ms[req.kind].push_back(MillisSince(t));
          ++me.ops;
          // Same snapshot, same binding: the warm-up answer's size.
          if (!rows.ok() || rows.value().size() != answer_sizes_[c][i]) {
            ++me.failed;
          }
          if (keep && timed_answers_[c].size() < kCheckedPerClient) {
            timed_answers_[c].push_back(rows.ok() ? std::move(rows).value()
                                                  : std::vector<ir::Row>{});
          }
          if (trace != nullptr) {
            AccumulateQuerySpans(*trace, &me.layers);
            me.layers.EndUnit();
          }
        }
        me.round_s.push_back(SecondsSince(round_start));
      } while (Clock::now() < deadline);
    });
    std::vector<std::vector<double>> kind_ms(suite_.size());
    std::vector<double> all, shorts, complexes, round_s;
    uint64_t ops = 0;
    for (Client& me : clients) {
      ops += me.ops;
      round_s.insert(round_s.end(), me.round_s.begin(), me.round_s.end());
      outcome->CountOps(me.ops, me.failed);
      for (size_t k = 0; k < suite_.size(); ++k) {
        auto& v = me.kind_ms[k];
        kind_ms[k].insert(kind_ms[k].end(), v.begin(), v.end());
        all.insert(all.end(), v.begin(), v.end());
        auto& cls = k < shorts_.size() ? shorts : complexes;
        cls.insert(cls.end(), v.begin(), v.end());
      }
      if (layers != nullptr) layers->Merge(me.layers);
    }
    if (layers != nullptr) {
      AddCounterDeltas(before, CounterSnapshot::Take(*service_),
                       static_cast<double>(ops), layers);
    }
    EndToEnd e2e;
    // The clients run their rounds side by side: both rounds' requests
    // over the median round time.
    e2e.ops_per_s = static_cast<double>(kClients * kRequestsPerRound) /
                    Median(round_s);
    std::vector<double> medians;
    for (const auto& v : kind_ms) medians.push_back(Median(v));
    e2e.geomean_ms = Geomean(medians);
    e2e.detail = {
        {"interactive.qps", e2e.ops_per_s, "queries/s"},
        {"interactive.short_p50_ms", Median(shorts), "ms"},
        {"interactive.complex_p50_ms", Median(complexes), "ms"},
        {"interactive.p99_ms", Quantile(all, 0.99), "ms"},
        {"interactive.requests", static_cast<double>(all.size()), "count"},
    };
    return e2e;
  }

  void Check(Outcome* outcome) override {
    std::vector<const Request*> requests;
    std::vector<std::vector<ir::Row>> warm, timed;
    for (size_t c = 0; c < kClients; ++c) {
      for (size_t i = 0; i < kCheckedPerClient; ++i) {
        requests.push_back(&rounds_[c][i]);
        warm.push_back(answers_[c][i]);
        timed.push_back(timed_answers_[c][i]);
      }
    }
    CheckAnswers(requests, warm, timed, outcome);
  }

 protected:
  const std::vector<snb::QuerySpec>& Suite() const override { return suite_; }

  void DrawRequests() override {
    rounds_.assign(kClients, {});
    for (size_t c = 0; c < kClients; ++c) {
      Rng rng(options_.seed * 1000003 + 17 * c + 1);
      for (size_t i = 0; i < kRequestsPerRound; ++i) {
        const bool is_short = rng.NextDouble() < 0.7;
        const size_t pick = rng.Uniform(is_short ? shorts_.size()
                                                 : complexes_.size());
        const size_t kind = is_short ? pick : shorts_.size() + pick;
        rounds_[c].push_back({&suite_[kind], suite_[kind].params(rng, stats_),
                              kind});
      }
    }
  }

 private:
  template <typename Fn>
  void RunClients(Fn fn) {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) threads.emplace_back(fn, c);
    for (auto& t : threads) t.join();
  }

  std::vector<snb::QuerySpec> shorts_, complexes_, suite_;
  std::vector<std::vector<Request>> rounds_;
  /// Warm-up answers: the first kCheckedPerClient in full, all by size.
  std::vector<std::vector<std::vector<ir::Row>>> answers_;
  std::vector<std::vector<size_t>> answer_sizes_;
  /// The first kCheckedPerClient answers of each client's first timed round.
  std::vector<std::vector<std::vector<ir::Row>>> timed_answers_;
};

// --------------------------------------------------------------------- bi

class Bi : public SnbWorkload {
 public:
  Bi() : suite_(snb::BiQueries()) {}

  void WarmUp() override {
    answers_.clear();
    for (const Request& req : pass_) {
      auto rows = RunOne(req, query::EngineKind::kGaia, nullptr);
      FLEX_CHECK(rows.ok());
      answers_.push_back(std::move(rows).value());
    }
  }

  EndToEnd Measure(double seconds, LayerStats* layers,
                   Outcome* outcome) override {
    std::vector<std::vector<double>> kind_ms(pass_.size());
    std::vector<double> pass_ms;
    uint64_t ops = 0, failed = 0;
    // The first timed pass keeps the answers that Check() compares.
    const bool keep = timed_answers_.empty();
    const CounterSnapshot before = CounterSnapshot::Take(*service_);
    const Clock::time_point start = Clock::now();
    do {
      const Clock::time_point pass_start = Clock::now();
      for (size_t i = 0; i < pass_.size(); ++i) {
        std::unique_ptr<trace::Trace> trace;
        if (layers != nullptr) {
          trace = std::make_unique<trace::Trace>(pass_[i].spec->name);
        }
        const Clock::time_point t = Clock::now();
        auto rows = RunOne(pass_[i], query::EngineKind::kGaia, trace.get());
        kind_ms[i].push_back(MillisSince(t));
        ++ops;
        if (!rows.ok() || rows.value().size() != answers_[i].size()) {
          ++failed;
        }
        if (keep && timed_answers_.size() < pass_.size()) {
          timed_answers_.push_back(rows.ok() ? std::move(rows).value()
                                             : std::vector<ir::Row>{});
        }
        if (trace != nullptr) AccumulateQuerySpans(*trace, layers);
      }
      pass_ms.push_back(MillisSince(pass_start));
      if (layers != nullptr) layers->EndUnit();  // Per pass.
    } while (SecondsSince(start) < seconds);
    outcome->CountOps(ops, failed);
    if (layers != nullptr) {
      AddCounterDeltas(before, CounterSnapshot::Take(*service_),
                       static_cast<double>(ops), layers);
    }
    EndToEnd e2e;
    e2e.ops_per_s = static_cast<double>(pass_.size()) * 1e3 / Median(pass_ms);
    std::vector<double> medians;
    for (const auto& v : kind_ms) medians.push_back(Median(v));
    e2e.geomean_ms = Geomean(medians);
    e2e.detail = {
        {"bi.suite_ms", Median(pass_ms), "ms"},
        {"bi.geomean_ms", e2e.geomean_ms, "ms"},
        {"bi.passes", static_cast<double>(pass_ms.size()), "count"},
    };
    for (size_t i = 0; i < pass_.size(); ++i) {
      e2e.detail.push_back(
          {"bi." + pass_[i].spec->name + "_ms", medians[i], "ms"});
    }
    return e2e;
  }

  void Check(Outcome* outcome) override {
    std::vector<const Request*> requests;
    for (const Request& req : pass_) requests.push_back(&req);
    CheckAnswers(requests, answers_, timed_answers_, outcome);
  }

 protected:
  const std::vector<snb::QuerySpec>& Suite() const override { return suite_; }

  void DrawRequests() override {
    Rng rng(options_.seed * 1000003 + 7);
    pass_.clear();
    for (size_t k = 0; k < suite_.size(); ++k) {
      pass_.push_back({&suite_[k], suite_[k].params(rng, stats_), k});
    }
  }

 private:
  std::vector<snb::QuerySpec> suite_;
  std::vector<Request> pass_;
  /// Each query's warm-up answer and its answer in the first timed pass.
  std::vector<std::vector<ir::Row>> answers_, timed_answers_;
};

}  // namespace

std::unique_ptr<Workload> MakeInteractive() {
  return std::make_unique<Interactive>();
}
std::unique_ptr<Workload> MakeBi() { return std::make_unique<Bi>(); }

}  // namespace flex::perfbench

// htap — the SNB store of the read workloads with writes beside the reads.
// One writer commits a fixed seeded sequence of 16-record batches through
// DurableStore (one WAL write plus one fsync per commit, the WAL in the
// run's own directory) while 2 readers run fixed sequences of short reads
// through HiActor, each on a snapshot pinned for that request. At the end
// the WAL is replayed into a fresh store built from the same data. This is
// the only workload that runs the WAL, MVCC publication and recovery.
//
// The work runs in episodes of kRoundsPerEpisode rounds. Each episode
// starts from a freshly loaded store, so every episode commits the same
// batches and replays a WAL of the same size: the store never grows with
// the run's length or the machine's speed, and neither does the cost of
// reading it. In every round the writer commits kBatchesPerRound batches
// and each reader runs its kReadsPerRound reads.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench.h"
#include "common/barrier.h"
#include "common/logging.h"
#include "common/metric_names.h"
#include "common/metrics.h"
#include "query/service.h"
#include "snb/snb.h"
#include "storage/durable_store.h"
#include "storage/gart/gart_store.h"

namespace flex::perfbench {

namespace {

constexpr size_t kPersons = 4000;
constexpr size_t kWorkers = 4;
constexpr size_t kReaders = 2;
constexpr size_t kRoundsPerEpisode = 16;
constexpr size_t kBatchesPerRound = 64;
constexpr size_t kReadsPerRound = 400;
/// Fresh oid ranges for written vertices (the generator's ranges end
/// below 4'000'000 + tags).
constexpr oid_t kNewPersonBase = 5'000'000;
constexpr oid_t kNewPostBase = 6'000'000;

struct Read {
  size_t kind = 0;  // Index into the short-read suite.
  std::vector<PropertyValue> params;
};

/// What a reader saw: the pinned epoch and its Person count.
struct Observation {
  version_t version;
  vid_t persons;
};

class Htap : public Workload {
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
    shorts_ = snb::InteractiveShortQueries();
    reads_.assign(kReaders, {});
    for (size_t r = 0; r < kReaders; ++r) {
      Rng rng(options.seed * 1000003 + 101 * r + 3);
      for (size_t i = 0; i < kReadsPerRound; ++i) {
        const size_t kind = rng.Uniform(shorts_.size());
        reads_[r].push_back({kind, shorts_[kind].params(rng, stats_)});
      }
    }
    StartEpisode(setup_layers);
    std::printf("input: SNB seed %llu, %zu persons, %zu vertices, %zu edges\n",
                static_cast<unsigned long long>(options.seed),
                stats_.num_persons, data_.total_vertices(),
                data_.total_edges());
  }

  void WarmUp() override {
    for (size_t r = 0; r < kReaders; ++r) {
      for (const Read& read : reads_[r]) {
        std::vector<double> unused_ms;
        FLEX_CHECK(ReadOnce(read, nullptr, nullptr, &unused_ms));
      }
    }
  }

  EndToEnd Measure(double seconds, LayerStats* layers,
                   Outcome* outcome) override {
    // kind_ms: the 7 short reads, then commit, then recovery.
    const size_t commit_kind = shorts_.size(), recover_kind = commit_kind + 1;
    std::vector<std::vector<double>> kind_ms(recover_kind + 1);
    std::vector<double> round_s, writer_busy_s, reader_busy_s;
    const Clock::time_point start = Clock::now();
    do {
      if (episode_used_) StartEpisode(nullptr);
      episode_used_ = true;
      RunEpisode(layers, outcome, &kind_ms, &round_s, &writer_busy_s,
                 &reader_busy_s);
      kind_ms[recover_kind].push_back(Recover(layers, outcome));
    } while (SecondsSince(start) < seconds);

    EndToEnd e2e;
    e2e.ops_per_s =
        static_cast<double>(kBatchesPerRound + kReaders * kReadsPerRound) /
        Median(round_s);
    std::vector<double> medians;
    for (const auto& v : kind_ms) medians.push_back(Median(v));
    e2e.geomean_ms = Geomean(medians);
    e2e.detail = {
        {"htap.commits_per_s", kBatchesPerRound / Median(writer_busy_s),
         "commits/s"},
        {"htap.commit_p50_ms", medians[commit_kind], "ms"},
        // Both readers run at once: one round's reads over their busy time.
        {"htap.read_qps", kReaders * kReadsPerRound / Median(reader_busy_s),
         "reads/s"},
        {"htap.recover_ms", medians[recover_kind], "ms"},
        {"htap.episodes", static_cast<double>(kind_ms[recover_kind].size()),
         "count"},
        {"htap.wal_records_per_episode", static_cast<double>(staged_records_),
         "count"},
    };
    return e2e;
  }

  /// Every episode checks itself when it ends (RunEpisode, Recover).
  void Check(Outcome* outcome) override {}

 private:
  /// A freshly loaded store, a WAL of its own and a service over it.
  void StartEpisode(LayerStats* setup_layers) {
    // The previous episode's service and snapshot go before its store.
    service_.reset();
    base_snapshot_.reset();
    durable_.reset();
    Clock::time_point t = Clock::now();
    auto built = storage::GartStore::Build(data_);
    FLEX_CHECK(built.ok());
    std::shared_ptr<storage::GartStore> gart = std::move(built).value();
    if (setup_layers != nullptr) {
      setup_layers->Add("storage.load_s", SecondsSince(t));
    }
    gart_ = gart.get();
    wal_path_ = options_.run_dir + "/htap.wal";
    std::filesystem::remove(wal_path_);
    auto opened = storage::DurableStore::Open(gart, wal_path_);
    FLEX_CHECK(opened.ok());
    durable_ = std::move(opened).value();
    base_snapshot_ = durable_->PinSnapshot();
    base_version_ = durable_->read_version();
    loaded_persons_ = base_snapshot_->NumVerticesOfLabel(schema_.person);
    loaded_edges_.clear();
    for (label_t l : {schema_.knows, schema_.likes, schema_.post_has_creator}) {
      loaded_edges_.push_back(gart_->CountEdges(l));
    }
    service_ =
        std::make_unique<query::QueryService>(base_snapshot_.get(), kWorkers);
    plans_.clear();
    for (const auto& spec : shorts_) {
      auto plan = service_->Compile(query::Language::kCypher, spec.cypher);
      FLEX_CHECK(plan.ok());
      plans_.push_back(
          std::make_shared<const ir::Plan>(std::move(plan).value()));
    }
    next_person_ = next_post_ = 0;
    staged_records_ = 0;
    persons_at_.assign(1, 0);  // Committed persons through base_version_.
    std::fill(std::begin(committed_edges_), std::end(committed_edges_), 0);
  }

  /// The episode's rounds, the writer and the readers in lockstep per
  /// round; then the episode's count checks.
  void RunEpisode(LayerStats* layers, Outcome* outcome,
                  std::vector<std::vector<double>>* kind_ms,
                  std::vector<double>* round_s,
                  std::vector<double>* writer_busy_s,
                  std::vector<double>* reader_busy_s) {
    auto& reg = metrics::MetricsRegistry::Instance();
    const metrics::Counter* records =
        reg.GetCounter(metrics::kWalRecordsAppendedTotal);
    const metrics::Counter* syncs = reg.GetCounter(metrics::kWalSyncsTotal);
    const metrics::Counter* batches =
        reg.GetCounter(metrics::kWalBatchesCommittedTotal);
    const uint64_t records0 = records->Value(), syncs0 = syncs->Value(),
                   batches0 = batches->Value();

    struct Role {
      std::vector<std::vector<double>> kind_ms;
      std::vector<double> busy_s;
      uint64_t ops = 0, failed = 0;
      LayerStats layers;
      std::vector<Observation> seen;
    };
    std::vector<Role> roles(kReaders + 1);  // Readers, then the writer.
    for (Role& role : roles) role.kind_ms.assign(kind_ms->size(), {});
    Barrier barrier(kReaders + 1);
    // Written by whichever thread leads each round's barrier.
    Clock::time_point round_start = Clock::now();
    auto body = [&](size_t who) {
      Role& me = roles[who];
      LayerStats* my_layers = layers != nullptr ? &me.layers : nullptr;
      for (size_t round = 0; round < kRoundsPerEpisode; ++round) {
        const Clock::time_point t = Clock::now();
        if (who == kReaders) {
          WriteRound(round, &me.kind_ms[shorts_.size()], my_layers, &me.ops,
                     &me.failed);
        } else {
          for (const Read& read : reads_[who]) {
            ++me.ops;
            if (!ReadOnce(read, my_layers, &me.seen,
                          &me.kind_ms[read.kind])) {
              ++me.failed;
            }
          }
        }
        me.busy_s.push_back(SecondsSince(t));
        if (barrier.Await()) {
          round_s->push_back(SecondsSince(round_start));
          round_start = Clock::now();
        }
        barrier.Await();  // Publishes round_start before the next round.
      }
    };
    std::vector<std::thread> threads;
    for (size_t who = 0; who <= kReaders; ++who) threads.emplace_back(body, who);
    for (auto& t : threads) t.join();

    std::vector<Observation> seen;
    for (size_t who = 0; who <= kReaders; ++who) {
      Role& role = roles[who];
      outcome->CountOps(role.ops, role.failed);
      for (size_t k = 0; k < kind_ms->size(); ++k) {
        (*kind_ms)[k].insert((*kind_ms)[k].end(), role.kind_ms[k].begin(),
                             role.kind_ms[k].end());
      }
      auto& busy = who < kReaders ? *reader_busy_s : *writer_busy_s;
      busy.insert(busy.end(), role.busy_s.begin(), role.busy_s.end());
      seen.insert(seen.end(), role.seen.begin(), role.seen.end());
      if (layers != nullptr) layers->Merge(role.layers);
    }
    if (layers != nullptr) {
      layers->Add("storage.wal_bytes_per_record",
                  static_cast<double>(std::filesystem::file_size(wal_path_)) /
                      static_cast<double>(records->Value() - records0));
      layers->Add("storage.wal_syncs_per_commit",
                  static_cast<double>(syncs->Value() - syncs0) /
                      static_cast<double>(batches->Value() - batches0));
    }

    // Every pinned snapshot shows the loaded persons plus those committed
    // through its epoch.
    size_t bad = 0;
    for (const Observation& o : seen) {
      const size_t epoch = o.version - base_version_;
      if (epoch >= persons_at_.size() ||
          o.persons != loaded_persons_ + persons_at_[epoch]) {
        ++bad;
      }
    }
    outcome->Check(bad == 0, std::to_string(bad) + " of " +
                                 std::to_string(seen.size()) +
                                 " pinned snapshots miscounted persons");
    // The final snapshot holds the loaded counts plus what was committed.
    auto snap = durable_->PinSnapshot();
    outcome->Check(snap->NumVerticesOfLabel(schema_.person) ==
                       loaded_persons_ + persons_at_.back(),
                   "final Person count");
    const label_t labels[3] = {schema_.knows, schema_.likes,
                               schema_.post_has_creator};
    for (int i = 0; i < 3; ++i) {
      outcome->Check(gart_->CountEdges(labels[i]) ==
                         loaded_edges_[i] + committed_edges_[i],
                     "final edge count of " +
                         schema_.schema.edge_label(labels[i]).name);
    }
  }

  /// One read on a freshly pinned snapshot; appends its latency to `ms`.
  bool ReadOnce(const Read& read, LayerStats* layers,
                std::vector<Observation>* seen, std::vector<double>* ms) {
    std::unique_ptr<trace::Trace> trace;
    if (layers != nullptr) trace = std::make_unique<trace::Trace>("read");
    const Clock::time_point t = Clock::now();
    std::shared_ptr<const grin::GrinGraph> snap = durable_->PinSnapshot();
    if (layers != nullptr) layers->Add("storage.pin_us", MillisSince(t) * 1e3);
    if (seen != nullptr) {
      seen->push_back(
          {snap->SnapshotVersion(), snap->NumVerticesOfLabel(schema_.person)});
    }
    Result<std::vector<ir::Row>> rows = Status::OK();
    {
      trace::ScopedSpan span(trace.get(), "execute", "bench");
      runtime::QueryTask task;
      task.plan = plans_[read.kind];
      task.params = read.params;
      task.graph = std::move(snap);
      task.trace = trace.get();
      task.trace_parent = span.id();
      rows = service_->hiactor().Execute(std::move(task));
    }
    ms->push_back(MillisSince(t));
    if (trace != nullptr) {
      AccumulateQuerySpans(*trace, layers);
      layers->EndUnit();
    }
    return rows.ok();
  }

  /// Commits round `round` of the episode's seeded 16-record batches.
  void WriteRound(size_t round, std::vector<double>* commit_ms,
                  LayerStats* layers, uint64_t* ops, uint64_t* failed) {
    Rng rng(options_.seed * 1000003 + 7919 * round + 5);
    for (size_t b = 0; b < kBatchesPerRound; ++b) {
      const oid_t person = kNewPersonBase + next_person_++;
      const oid_t post = kNewPostBase + next_post_++;
      auto old_person = [&] {
        return static_cast<oid_t>(rng.Uniform(stats_.num_persons));
      };
      auto date = [&] { return static_cast<int64_t>(rng.Uniform(1000)); };
      bool ok = true;
      auto stage = [&](Status st) { ok = ok && st.ok(); };
      stage(durable_->AppendVertex(
          schema_.person, person,
          {PropertyValue(std::string("New")),
           PropertyValue(std::to_string(person)), PropertyValue(date()),
           PropertyValue(static_cast<int64_t>(rng.Uniform(100)))}));
      stage(durable_->AppendVertex(
          schema_.post, post,
          {PropertyValue(date()),
           PropertyValue(static_cast<int64_t>(rng.Uniform(2000))),
           PropertyValue(std::string("Firefox"))}));
      stage(durable_->AppendEdge(schema_.post_has_creator, post, person));
      for (int i = 0; i < 4; ++i) {
        stage(durable_->AppendEdge(schema_.knows, person, old_person(), 1.0,
                                   date()));
      }
      for (int i = 0; i < 4; ++i) {
        const oid_t liked = i == 0 ? post
                                   : static_cast<oid_t>(
                                         snb::kPostBase +
                                         rng.Uniform(stats_.num_posts));
        stage(durable_->AppendEdge(schema_.likes, old_person(), liked, 1.0,
                                   date()));
      }
      for (int i = 0; i < 5; ++i) {
        stage(durable_->UpdateProperty(
            schema_.person, old_person(), 3,
            PropertyValue(static_cast<int64_t>(rng.Uniform(100)))));
      }
      staged_records_ += durable_->staged_records();

      std::unique_ptr<trace::Trace> trace;
      if (layers != nullptr) trace = std::make_unique<trace::Trace>("commit");
      storage::CommitOptions commit;
      commit.trace = trace.get();
      const Clock::time_point t = Clock::now();
      Result<version_t> version = durable_->CommitBatch(commit);
      const double ms = MillisSince(t);
      commit_ms->push_back(ms);
      ++*ops;
      if (!ok || !version.ok()) {
        ++*failed;
        continue;
      }
      persons_at_.resize(version.value() - base_version_ + 1,
                         persons_at_.back());
      persons_at_.back() += 1;
      committed_edges_[0] += 4;
      committed_edges_[1] += 4;
      committed_edges_[2] += 1;
      if (trace != nullptr) {
        const SpanIndex index(*trace);
        const int wal = index.Find("wal.append");
        const double wal_us =
            wal < 0 ? 0.0 : static_cast<double>(index.spans()[wal].duration_us());
        layers->Add("storage.wal_append_us", wal_us);
        layers->Add("storage.commit_apply_us",
                    std::max(0.0, ms * 1e3 - wal_us));
      }
    }
  }

  /// Replays a copy of the episode's WAL into a fresh store built from the
  /// same data; returns how long DurableStore::Open took, in ms. Checks the
  /// replayed record count and, on the run's first episode, the replayed
  /// store's fingerprint against the live one (a full scan of both).
  double Recover(LayerStats* layers, Outcome* outcome) {
    const std::string copy = options_.run_dir + "/recover.wal";
    std::filesystem::copy_file(
        wal_path_, copy, std::filesystem::copy_options::overwrite_existing);
    auto fresh = storage::GartStore::Build(data_);
    FLEX_CHECK(fresh.ok());
    std::unique_ptr<trace::Trace> trace;
    if (layers != nullptr) trace = std::make_unique<trace::Trace>("recover");
    const Clock::time_point t = Clock::now();
    auto recovered = storage::DurableStore::Open(
        std::shared_ptr<storage::MutableGraphStore>(std::move(fresh).value()),
        copy, trace.get());
    const double ms = MillisSince(t);
    outcome->Check(recovered.ok(), "WAL replay failed");
    if (recovered.ok()) {
      const auto& stats = recovered.value()->recovery_stats();
      outcome->Check(stats.applied_records == staged_records_,
                     "replayed " + std::to_string(stats.applied_records) +
                         " records, staged " +
                         std::to_string(staged_records_));
      if (!fingerprint_checked_) {
        fingerprint_checked_ = true;
        outcome->Check(
            storage::SnapshotFingerprint(*recovered.value()->PinSnapshot()) ==
                storage::SnapshotFingerprint(*durable_->PinSnapshot()),
            "replayed store fingerprint differs from the live one");
      }
      if (trace != nullptr) {
        const SpanIndex index(*trace);
        const int span = index.Find("storage.recover");
        if (span >= 0 && index.spans()[span].duration_us() > 0) {
          layers->Add("storage.replay_records_per_s",
                      static_cast<double>(stats.applied_records) * 1e6 /
                          static_cast<double>(
                              index.spans()[span].duration_us()));
        }
      }
    }
    std::filesystem::remove(copy);
    return ms;
  }

  Options options_;
  snb::SnbSchema schema_;
  snb::SnbStats stats_;
  PropertyGraphData data_;
  std::vector<snb::QuerySpec> shorts_;
  std::vector<std::vector<Read>> reads_;
  bool fingerprint_checked_ = false;
  /// True once the current episode's store has taken writes.
  bool episode_used_ = false;

  // The current episode (StartEpisode).
  storage::GartStore* gart_ = nullptr;  // Owned by durable_'s backend.
  std::string wal_path_;
  std::unique_ptr<storage::DurableStore> durable_;
  std::unique_ptr<grin::GrinGraph> base_snapshot_;
  std::unique_ptr<query::QueryService> service_;
  std::vector<std::shared_ptr<const ir::Plan>> plans_;
  version_t base_version_ = 0;
  vid_t loaded_persons_ = 0;
  std::vector<size_t> loaded_edges_;  // KNOWS, LIKES, POST_HAS_CREATOR.

  // Writer state (the writer thread only, during an episode).
  oid_t next_person_ = 0, next_post_ = 0;
  uint64_t staged_records_ = 0;
  /// Persons committed through epoch base_version_ + i.
  std::vector<vid_t> persons_at_;
  size_t committed_edges_[3] = {0, 0, 0};
};

}  // namespace

std::unique_ptr<Workload> MakeHtap() { return std::make_unique<Htap>(); }

}  // namespace flex::perfbench

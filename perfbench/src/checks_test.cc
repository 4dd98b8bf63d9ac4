// Tests of the benchmark's correctness checks: each oracle accepts the
// right answer and rejects one wrong one. Run from the checkout root
// (`python3 perfbench/run.py --self-test`); exits non-zero on a failure.

#include <cstdio>
#include <filesystem>
#include <string>

#include "checks.h"
#include "common/logging.h"
#include "datagen/generators.h"
#include "query/service.h"
#include "storage/durable_store.h"
#include "storage/gart/gart_store.h"

namespace flex::perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

EdgeList SmallGraph() {
  datagen::RmatParams params;
  params.scale = 10;
  params.edge_factor = 8;
  params.seed = 7;
  return datagen::GenerateRmat(params);
}

void TestRanks() {
  const EdgeList g = SmallGraph();
  std::vector<double> ranks = ReferencePageRank(g, 10, 0.85);
  Expect(CheckRanks(ranks, ranks, 1e-9).empty(), "ranks: reference passes");
  ranks[17] += 1e-6;
  Expect(!CheckRanks(ranks, ReferencePageRank(g, 10, 0.85), 1e-9).empty(),
         "ranks: one rank off by 1e-6 fails");
}

void TestDepths() {
  const EdgeList g = SmallGraph();
  std::vector<uint32_t> depths = ReferenceBfs(g, 0);
  Expect(CheckDepths(depths, depths).empty(), "bfs: reference passes");
  for (uint32_t& d : depths) {
    if (d != 0 && d != UINT32_MAX) {
      ++d;
      break;
    }
  }
  Expect(!CheckDepths(depths, ReferenceBfs(g, 0)).empty(),
         "bfs: one wrong depth fails");
}

void TestComponents() {
  EdgeList g;
  g.num_vertices = 5;
  g.edges = {{0, 1}, {2, 1}, {3, 4}};
  Expect(CheckComponents({7, 7, 7, 9, 9}, g).empty(),
         "wcc: any labels of the right partition pass");
  Expect(!CheckComponents({7, 7, 7, 7, 7}, g).empty(),
         "wcc: merged components fail");
  Expect(!CheckComponents({7, 7, 8, 9, 9}, g).empty(),
         "wcc: split component fails");
}

void TestRows() {
  std::vector<ir::Row> want = {
      ir::Row{PropertyValue(int64_t{1}), PropertyValue(std::string("a"))},
      ir::Row{PropertyValue(int64_t{2}), PropertyValue(std::string("b"))}};
  std::vector<ir::Row> swapped = {want[1], want[0]};
  Expect(CompareRows(swapped, want, /*ordered=*/false).empty(),
         "rows: unordered compare ignores order");
  Expect(!CompareRows(swapped, want, /*ordered=*/true).empty(),
         "rows: ordered compare sees order");
  std::vector<ir::Row> dropped = {want[0]};
  Expect(!CompareRows(dropped, want, false).empty(),
         "rows: one dropped row fails");
}

/// A real answer of a query whose ORDER BY fixes the row order must fail
/// the comparison once two of its rows swap; a count-only ORDER BY is
/// compared as a multiset.
void TestOrderedAnswers() {
  const snb::SnbSchema s = snb::SnbSchema::Build();
  snb::SnbConfig config;
  config.num_persons = 200;
  snb::SnbStats stats;
  const PropertyGraphData data = snb::GenerateSnb(config, &stats);
  auto store = storage::GartStore::Build(data).value();
  auto snapshot = store->GetSnapshot();
  query::NaiveGraphDB naive(snapshot.get());
  for (const snb::QuerySpec& spec : snb::BiQueries()) {
    if (spec.name != "BI1" && spec.name != "BI10" && spec.name != "BI18") {
      continue;
    }
    const std::vector<ir::Row> want =
        naive.Run(query::Language::kCypher, spec.cypher, {}).value();
    std::vector<ir::Row> swapped = want;
    FLEX_CHECK(swapped.size() >= 2);
    std::swap(swapped.front(), swapped.back());
    const bool ordered = OrderIsTotal(spec.name);
    const std::string why = CompareRows(swapped, want, ordered);
    if (spec.name == "BI1") {
      Expect(!ordered && why.empty(),
             "order: BI1 (ORDER BY count only) compares as a multiset");
    } else {
      Expect(ordered && !why.empty(),
             (spec.name + ": two swapped rows fail").c_str());
    }
  }
}

void TestPartitionShare() {
  EdgeList g;
  g.num_vertices = 8;
  g.edges = {{0, 1}, {0, 2}, {4, 1}, {1, 3}};
  EdgeCutPartitioner p(8, 2);
  size_t on_zero = 0;
  for (const RawEdge& e : g.edges) on_zero += p.GetPartition(e.src) == 0;
  const double share =
      std::max(on_zero, g.edges.size() - on_zero) / 4.0;
  Expect(PartitionMaxEdgeShare(g, p) == share,
         "partition share: matches a direct count");
}

/// The recovery check compares fingerprints of the live store and the
/// replayed one; a replay that misses the last batch must not match.
void TestFingerprint() {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(".bench_runs") / "checks_test";
  fs::create_directories(dir);
  const snb::SnbSchema s = snb::SnbSchema::Build();
  snb::SnbConfig config;
  config.num_persons = 50;
  snb::SnbStats stats;
  const PropertyGraphData data = snb::GenerateSnb(config, &stats);
  auto fresh = [&] {
    return std::shared_ptr<storage::MutableGraphStore>(
        storage::GartStore::Build(data).value());
  };
  const std::string wal = (dir / "live.wal").string();
  auto live = storage::DurableStore::Open(fresh(), wal).value();
  uintmax_t first_batch_end = 0;
  for (int b = 0; b < 2; ++b) {
    FLEX_CHECK(live->AppendVertex(s.person, 9000 + b,
                                  {PropertyValue(std::string("x")),
                                   PropertyValue(std::string("y")),
                                   PropertyValue(int64_t{1}),
                                   PropertyValue(int64_t{2})})
                   .ok());
    FLEX_CHECK(live->AppendEdge(s.knows, 9000 + b, 0, 1.0, 5).ok());
    FLEX_CHECK(live->CommitBatch().ok());
    if (b == 0) first_batch_end = fs::file_size(wal);
  }
  const uint32_t live_fp = storage::SnapshotFingerprint(*live->PinSnapshot());

  auto replay = [&](uintmax_t bytes) {
    const std::string copy = (dir / "copy.wal").string();
    fs::copy_file(wal, copy, fs::copy_options::overwrite_existing);
    fs::resize_file(copy, bytes);
    auto recovered = storage::DurableStore::Open(fresh(), copy).value();
    return storage::SnapshotFingerprint(*recovered->PinSnapshot());
  };
  Expect(replay(fs::file_size(wal)) == live_fp,
         "fingerprint: full replay matches the live store");
  Expect(replay(first_batch_end) != live_fp,
         "fingerprint: store missing its last batch differs");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace flex::perfbench

int main() {
  using namespace flex::perfbench;
  TestRanks();
  TestDepths();
  TestComponents();
  TestRows();
  TestOrderedAnswers();
  TestPartitionShare();
  TestFingerprint();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

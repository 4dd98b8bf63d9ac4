#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <numeric>
#include <set>
#include <unordered_map>

#include "query/interpreter.h"

namespace flex::perfbench {

namespace {

template <typename... Args>
std::string Printf(const char* fmt, Args... args) {
  char buf[200];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

/// Row index of each oid in a vertex batch.
std::unordered_map<oid_t, size_t> RowOf(
    const PropertyGraphData::VertexBatch& batch) {
  std::unordered_map<oid_t, size_t> out;
  for (size_t i = 0; i < batch.oids.size(); ++i) out[batch.oids[i]] = i;
  return out;
}

/// Minimal union-find with path halving.
struct UnionFind {
  explicit UnionFind(size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  uint32_t Find(uint32_t v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  }
  void Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
  std::vector<uint32_t> parent;
};

}  // namespace

std::string CompareRows(const std::vector<ir::Row>& got,
                        const std::vector<ir::Row>& want, bool ordered) {
  std::vector<std::string> g = query::RowsToStrings(got);
  std::vector<std::string> w = query::RowsToStrings(want);
  if (!ordered) {
    std::sort(g.begin(), g.end());
    std::sort(w.begin(), w.end());
  }
  if (g.size() != w.size()) {
    return "row count " + std::to_string(g.size()) + " != expected " +
           std::to_string(w.size());
  }
  for (size_t i = 0; i < g.size(); ++i) {
    if (g[i] != w[i]) {
      return "row " + std::to_string(i) + " [" + g[i] + "] != expected [" +
             w[i] + "]";
    }
  }
  return "";
}

bool OrderIsTotal(const std::string& name) {
  // Queries whose ORDER BY ends in a key that fixes the whole row, read
  // off the suites in src/snb/workloads.cc: a group key (C3-C6, C10, C12,
  // C14, BI2-BI7, BI9-BI18, BI20), or a vertex id that determines every
  // returned column (S2, S3, S7, C2, C8, C9, C11; a post has one creator,
  // a comment one creator and one parent), so rows that tie are equal.
  // Left out: S1, S4-S6 and C13 return one row or have no ORDER BY; C1
  // (lastName), C7 (a liker's likes on one date), BI1, BI8 and BI19
  // (count only) leave ties between different rows.
  static const std::set<std::string> kTotal = {
      "S2",   "S3",   "S7",   "C2",   "C3",   "C4",   "C5",   "C6",
      "C8",   "C9",   "C10",  "C11",  "C12",  "C14",  "BI2",  "BI3",
      "BI4",  "BI5",  "BI6",  "BI7",  "BI9",  "BI10", "BI11", "BI12",
      "BI13", "BI14", "BI15", "BI16", "BI17", "BI18", "BI20"};
  return kTotal.count(name) > 0;
}

std::vector<ir::Row> ExpectedS1(const PropertyGraphData& data,
                                const snb::SnbSchema& s, int64_t person) {
  const auto& persons = data.vertices[s.person];
  for (size_t i = 0; i < persons.oids.size(); ++i) {
    if (persons.oids[i] != static_cast<oid_t>(person)) continue;
    const auto& row = persons.rows[i];  // firstName, lastName, birthday, city
    return {ir::Row{row[0], row[1], row[2], row[3]}};
  }
  return {};
}

std::vector<ir::Row> ExpectedS3(const PropertyGraphData& data,
                                const snb::SnbSchema& s, int64_t person) {
  const auto& persons = data.vertices[s.person];
  const auto row_of = RowOf(persons);
  const auto& knows = data.edges[s.knows];
  // (creationDate, friend oid) for KNOWS edges in either direction.
  std::vector<std::pair<int64_t, oid_t>> hits;
  for (size_t e = 0; e < knows.src_oids.size(); ++e) {
    const int64_t date = knows.rows[e][0].AsInt64();
    if (knows.src_oids[e] == static_cast<oid_t>(person)) {
      hits.push_back({date, knows.dst_oids[e]});
    }
    if (knows.dst_oids[e] == static_cast<oid_t>(person)) {
      hits.push_back({date, knows.src_oids[e]});
    }
  }
  // ORDER BY k.creationDate DESC, f.id
  std::sort(hits.begin(), hits.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<ir::Row> out;
  for (const auto& [date, f] : hits) {
    const auto& frow = persons.rows[row_of.at(f)];
    out.push_back(ir::Row{PropertyValue(static_cast<int64_t>(f)), frow[0],
                          PropertyValue(date)});
  }
  return out;
}

std::vector<ir::Row> ExpectedBi1(const PropertyGraphData& data,
                                 const snb::SnbSchema& s) {
  // browserUsed -> (count, sum of length)
  std::map<std::string, std::pair<int64_t, int64_t>> groups;
  for (const auto& row : data.vertices[s.post].rows) {
    auto& g = groups[row[2].AsString()];
    g.first += 1;
    g.second += row[1].AsInt64();
  }
  std::vector<ir::Row> out;
  for (const auto& [browser, g] : groups) {
    out.push_back(ir::Row{
        PropertyValue(browser), PropertyValue(g.first),
        PropertyValue(static_cast<double>(g.second) /
                      static_cast<double>(g.first))});
  }
  return out;
}

std::vector<ir::Row> ExpectedBi2(const PropertyGraphData& data,
                                 const snb::SnbSchema& s) {
  const auto& tags = data.vertices[s.tag];
  const auto row_of = RowOf(tags);
  std::map<std::string, int64_t> counts;  // tag name -> posts
  for (oid_t t : data.edges[s.post_has_tag].dst_oids) {
    counts[tags.rows[row_of.at(t)][0].AsString()] += 1;
  }
  std::vector<std::pair<int64_t, std::string>> ranked;
  for (const auto& [name, n] : counts) ranked.push_back({n, name});
  // ORDER BY n DESC, t.name LIMIT 20
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  if (ranked.size() > 20) ranked.resize(20);
  std::vector<ir::Row> out;
  for (const auto& [n, name] : ranked) {
    out.push_back(ir::Row{PropertyValue(name), PropertyValue(n)});
  }
  return out;
}

std::vector<double> ReferencePageRank(const EdgeList& graph, int iterations,
                                      double damping) {
  const size_t n = graph.num_vertices;
  std::vector<uint32_t> out_degree(n, 0);
  for (const RawEdge& e : graph.edges) ++out_degree[e.src];
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);
  for (int it = 0; it < iterations; ++it) {
    double dangling = 0.0;
    for (size_t v = 0; v < n; ++v) {
      if (out_degree[v] == 0) dangling += rank[v];
    }
    std::fill(next.begin(), next.end(), 0.0);
    for (const RawEdge& e : graph.edges) {
      next[e.dst] += rank[e.src] / static_cast<double>(out_degree[e.src]);
    }
    const double base = (1.0 - damping) / static_cast<double>(n) +
                        damping * dangling / static_cast<double>(n);
    for (size_t v = 0; v < n; ++v) rank[v] = base + damping * next[v];
  }
  return rank;
}

std::string CheckRanks(const std::vector<double>& got,
                       const std::vector<double>& want, double tol) {
  if (got.size() != want.size()) {
    return "rank vector has " + std::to_string(got.size()) + " entries, " +
           std::to_string(want.size()) + " expected";
  }
  double mass = 0.0;
  for (size_t v = 0; v < got.size(); ++v) {
    if (!(std::fabs(got[v] - want[v]) <= tol)) {
      return Printf("rank of vertex %zu is %.17g, reference %.17g", v,
                    got[v], want[v]);
    }
    mass += got[v];
  }
  if (!(std::fabs(mass - 1.0) <= tol)) {
    return Printf("rank mass %.17g differs from 1 by more than %g", mass,
                  tol);
  }
  return "";
}

std::vector<uint32_t> ReferenceBfs(const EdgeList& graph, vid_t source) {
  const size_t n = graph.num_vertices;
  std::vector<uint32_t> offsets(n + 1, 0);
  for (const RawEdge& e : graph.edges) ++offsets[e.src + 1];
  for (size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  std::vector<vid_t> targets(graph.edges.size());
  std::vector<uint32_t> fill(offsets.begin(), offsets.end() - 1);
  for (const RawEdge& e : graph.edges) targets[fill[e.src]++] = e.dst;

  std::vector<uint32_t> depth(n, UINT32_MAX);
  std::deque<vid_t> queue;
  depth[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    const vid_t v = queue.front();
    queue.pop_front();
    for (uint32_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const vid_t u = targets[i];
      if (depth[u] == UINT32_MAX) {
        depth[u] = depth[v] + 1;
        queue.push_back(u);
      }
    }
  }
  return depth;
}

std::string CheckDepths(const std::vector<uint32_t>& got,
                        const std::vector<uint32_t>& want) {
  if (got.size() != want.size()) return "depth vector size differs";
  for (size_t v = 0; v < got.size(); ++v) {
    if (got[v] != want[v]) {
      return Printf("depth of vertex %zu is %u, reference %u", v, got[v],
                    want[v]);
    }
  }
  return "";
}

std::string CheckComponents(const std::vector<uint32_t>& labels,
                            const EdgeList& graph) {
  const size_t n = graph.num_vertices;
  if (labels.size() != n) return "label vector size differs";
  UnionFind uf(n);
  for (const RawEdge& e : graph.edges) uf.Union(e.src, e.dst);
  // Same partition <=> root -> label and label -> root are both functions.
  std::unordered_map<uint32_t, uint32_t> label_of_root, root_of_label;
  for (uint32_t v = 0; v < n; ++v) {
    const uint32_t root = uf.Find(v);
    const uint32_t label = label_of_root.emplace(root, labels[v]).first->second;
    const uint32_t owner = root_of_label.emplace(labels[v], root).first->second;
    if (label != labels[v] || owner != root) {
      return Printf("vertex %u (label %u) breaks the union-find component "
                    "of root %u",
                    v, labels[v], root);
    }
  }
  return "";
}

double PartitionMaxEdgeShare(const EdgeList& graph,
                             const EdgeCutPartitioner& partitioner) {
  std::vector<size_t> per(partitioner.num_partitions(), 0);
  for (const RawEdge& e : graph.edges) ++per[partitioner.GetPartition(e.src)];
  const size_t max = *std::max_element(per.begin(), per.end());
  return static_cast<double>(max) / static_cast<double>(graph.edges.size());
}

}  // namespace flex::perfbench

#ifndef FLEX_PERFBENCH_CHECKS_H_
#define FLEX_PERFBENCH_CHECKS_H_

// Correctness oracles of the benchmark. Each is computed apart from the
// program under test (plain loops over the generated inputs) or checks a
// property the method must have. They return an empty string when the
// answer holds and a one-line reason when it does not.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/edge_list.h"
#include "graph/partitioner.h"
#include "graph/property_table.h"
#include "ir/row.h"
#include "snb/snb.h"

namespace flex::perfbench {

// ------------------------------------------------------------ query rows

/// Compares result rows. `ordered` compares the sequences; otherwise the
/// rows are compared as multisets (a query whose ORDER BY leaves ties, or
/// that has none, fixes no row order).
std::string CompareRows(const std::vector<ir::Row>& got,
                        const std::vector<ir::Row>& want, bool ordered);

/// True when the query's ORDER BY fixes the order of every returned row.
bool OrderIsTotal(const std::string& query_name);

/// Answers of S1, S3, BI1 and BI2 computed straight from the generated
/// data (no store, no engine).
std::vector<ir::Row> ExpectedS1(const PropertyGraphData& data,
                                const snb::SnbSchema& s, int64_t person);
std::vector<ir::Row> ExpectedS3(const PropertyGraphData& data,
                                const snb::SnbSchema& s, int64_t person);
std::vector<ir::Row> ExpectedBi1(const PropertyGraphData& data,
                                 const snb::SnbSchema& s);
std::vector<ir::Row> ExpectedBi2(const PropertyGraphData& data,
                                 const snb::SnbSchema& s);

// ------------------------------------------------------------- analytics

/// Power iteration with PageRankApp's rules: ranks start at 1/n, each of
/// `iterations` rounds sets rank = (1-d)/n + d*dangling/n + d*sum of
/// in-contributions, where dangling is the rank mass of vertices without
/// out-edges.
std::vector<double> ReferencePageRank(const EdgeList& graph, int iterations,
                                      double damping);
/// Per-vertex |got - want| <= tol, and the rank mass sums to 1 within tol.
std::string CheckRanks(const std::vector<double>& got,
                       const std::vector<double>& want, double tol);

/// Plain queue BFS along out-edges; unreached vertices get UINT32_MAX.
std::vector<uint32_t> ReferenceBfs(const EdgeList& graph, vid_t source);
std::string CheckDepths(const std::vector<uint32_t>& got,
                        const std::vector<uint32_t>& want);

/// WCC labels must induce exactly the partition a union-find over the
/// undirected edges computes; the label values themselves are free.
std::string CheckComponents(const std::vector<uint32_t>& labels,
                            const EdgeList& graph);

/// Largest per-partition share of edges, counting each edge at the owner
/// of its source as the partitioner assigns it.
double PartitionMaxEdgeShare(const EdgeList& graph,
                             const EdgeCutPartitioner& partitioner);

}  // namespace flex::perfbench

#endif  // FLEX_PERFBENCH_CHECKS_H_

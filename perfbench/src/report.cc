#include <algorithm>
#include <cmath>
#include <thread>
#include <unordered_map>

#include "bench.h"

namespace flex::perfbench {

namespace {
const Clock::time_point kProcessStart = Clock::now();
}  // namespace

Clock::time_point ProcessStart() { return kProcessStart; }

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (rank - lo);
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

double Geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void LayerStats::EndUnit() {
  for (const auto& [name, sum] : open_) samples_[name].push_back(sum);
  open_.clear();
}

void LayerStats::Merge(const LayerStats& other) {
  for (const auto& [name, values] : other.samples_) {
    auto& mine = samples_[name];
    mine.insert(mine.end(), values.begin(), values.end());
  }
}

SpanIndex::SpanIndex(const trace::Trace& trace) : spans_(trace.spans()) {
  std::unordered_map<uint64_t, size_t> by_id;
  for (size_t i = 0; i < spans_.size(); ++i) by_id[spans_[i].id] = i;
  children_.resize(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto it = by_id.find(spans_[i].parent);
    if (it != by_id.end()) children_[it->second].push_back(i);
  }
}

double SpanIndex::SelfMicros(size_t index) const {
  double self = static_cast<double>(spans_[index].duration_us());
  for (size_t c : children_[index]) {
    self -= static_cast<double>(spans_[c].duration_us());
  }
  return std::max(self, 0.0);
}

std::vector<double> SpanIndex::ChildDurations(size_t index,
                                              const std::string& name,
                                              bool prefix) const {
  std::vector<double> out;
  for (size_t c : children_[index]) {
    const std::string& n = spans_[c].name;
    if (prefix ? n.rfind(name, 0) == 0 : n == name) {
      out.push_back(static_cast<double>(spans_[c].duration_us()));
    }
  }
  return out;
}

int SpanIndex::Find(const std::string& name) const {
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

void WaitForClosedSpans(const trace::Trace& trace) {
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(1);
  for (;;) {
    bool open = false;
    for (const trace::Span& span : trace.spans()) open |= span.end_us == 0;
    if (!open || Clock::now() > give_up) return;
    std::this_thread::yield();
  }
}

void AccumulateQuerySpans(const trace::Trace& trace, LayerStats* layers) {
  WaitForClosedSpans(trace);
  // Operator spans are named by ir::OpKindName; the fused operators nest
  // their work in an "op.fused_*" child, so both levels count as fused.
  static const std::unordered_map<std::string, std::string> kOpMetric = {
      {"SCAN", "query.op.SCAN_self_us"},
      {"EXPAND", "query.op.EXPAND_self_us"},
      {"SELECT", "query.op.SELECT_self_us"},
      {"PROJECT", "query.op.PROJECT_self_us"},
      {"GROUP", "query.op.GROUP_self_us"},
      {"ORDER", "query.op.ORDER_self_us"},
      {"DEDUP", "query.op.DEDUP_self_us"},
      {"LIMIT", "query.op.LIMIT_self_us"},
      {"FUSED_SCAN", "query.op.fused_scan_self_us"},
      {"op.fused_scan", "query.op.fused_scan_self_us"},
      {"FUSED_EXPAND", "query.op.fused_expand_self_us"},
      {"op.fused_expand", "query.op.fused_expand_self_us"},
  };
  const SpanIndex index(trace);
  const auto& spans = index.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const trace::Span& span = spans[i];
    if (span.category == "operator") {
      auto it = kOpMetric.find(span.name);
      if (it != kOpMetric.end()) {
        layers->Accumulate(it->second, index.SelfMicros(i));
      }
    } else if (span.name == "storage.read") {
      layers->Accumulate("storage.read_self_us", index.SelfMicros(i));
    } else if (span.name == "hiactor.queue") {
      layers->Accumulate("runtime.hiactor_queue_us",
                         static_cast<double>(span.duration_us()));
    } else if (span.name == "hiactor.execute") {
      layers->Accumulate("runtime.hiactor_execute_us",
                         static_cast<double>(span.duration_us()));
    } else if (span.name == "execute" &&
               !index.ChildDurations(i, "hiactor.execute").empty()) {
      // The service's execute span on the HiActor path: what is neither
      // queueing nor executing is the hand-off between client and shard.
      layers->Accumulate("runtime.hiactor_handoff_us", index.SelfMicros(i));
    } else if (span.name == "gaia") {
      const std::vector<double> shards =
          index.ChildDurations(i, "gaia.shard[", /*prefix=*/true);
      const std::vector<double> exchange =
          index.ChildDurations(i, "gaia.exchange");
      double prefix = 0, mean = 0;
      for (double d : shards) {
        prefix = std::max(prefix, d);
        mean += d / static_cast<double>(shards.size());
      }
      const double exchange_us = exchange.empty() ? 0.0 : exchange[0];
      // Shards run in parallel, so the prefix costs its longest shard;
      // the rest of the engine span is the blocking suffix.
      const double suffix = std::max(
          0.0, static_cast<double>(span.duration_us()) - prefix - exchange_us);
      layers->Accumulate("runtime.gaia_prefix_us", prefix);
      layers->Accumulate("runtime.gaia_exchange_us", exchange_us);
      layers->Accumulate("runtime.gaia_suffix_us", suffix);
      if (!shards.empty() && mean > 0) {
        layers->Add("runtime.gaia_shard_skew", prefix / mean);
      }
    }
  }
}

void Outcome::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

}  // namespace flex::perfbench

#include "src/sim/metrics.h"

#include <algorithm>

#include "src/util/hotpath.h"

namespace bftbase {

void MetricsRegistry::Inc(std::string_view name, int node, int tag,
                          uint64_t delta) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::map<Key, uint64_t>())
             .first;
  }
  it->second[{node, tag}] += delta;
}

void MetricsRegistry::Set(std::string_view name, uint64_t value, int node,
                          int tag) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::map<Key, uint64_t>())
             .first;
  }
  it->second[{node, tag}] = value;
}

void SyncHotPathCounters(MetricsRegistry& metrics) {
  const hotpath::Counters& c = hotpath::counters();
  metrics.Set("hot.sha256_invocations", c.sha256_invocations);
  metrics.Set("hot.sha256_blocks", c.sha256_blocks);
  metrics.Set("hot.bytes_hashed", c.bytes_hashed);
  metrics.Set("hot.sha256_oneshot", c.sha256_oneshot);
  metrics.Set("hot.sha256_ni_blocks", c.sha256_ni_blocks);
  metrics.Set("hot.sha256_multi_blocks", c.sha256_multi_blocks);
  metrics.Set("hot.hmac_lane_batches", c.hmac_lane_batches);
  metrics.Set("hot.tree_nodes_rehashed", c.tree_nodes_rehashed);
  metrics.Set("hot.tree_nodes_preserved", c.tree_nodes_preserved);
  metrics.Set("hot.encode_allocs", c.encode_allocs);
  metrics.Set("hot.encode_reuses", c.encode_reuses);
  metrics.Set("hot.digest_memo_hits", c.digest_memo_hits);
  metrics.Set("hot.digest_memo_misses", c.digest_memo_misses);
  metrics.Set("hot.event_pool_allocs", c.event_pool_allocs);
  metrics.Set("hot.event_pool_reuses", c.event_pool_reuses);
  metrics.Set("hot.events_pruned", c.events_pruned);
  metrics.Set("hot.events_requeued", c.events_requeued);
  metrics.Set("hot.pool_jobs", c.pool_jobs);
  metrics.Set("hot.pool_mac_shard_jobs", c.pool_mac_shard_jobs);
  metrics.Set("hot.pool_digest_shard_jobs", c.pool_digest_shard_jobs);
}

void MetricsRegistry::Counter::Rebind() {
  auto it = registry_->counters_.find(name_);
  if (it == registry_->counters_.end()) {
    it = registry_->counters_
             .emplace(name_, std::map<Key, uint64_t>())
             .first;
  }
  cells_ = &it->second;
  cell_ = nullptr;
  generation_ = registry_->generation_;
}

void MetricsRegistry::Observe(std::string_view name, int64_t value, int node,
                              int tag) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::map<Key, HistogramCell>())
             .first;
  }
  HistogramCell& cell = it->second[{node, tag}];
  if (cell.count == 0) {
    cell.min = value;
    cell.max = value;
  } else {
    cell.min = std::min(cell.min, value);
    cell.max = std::max(cell.max, value);
  }
  ++cell.count;
  cell.sum += value;
}

uint64_t MetricsRegistry::Get(std::string_view name, int node, int tag) const {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    return 0;
  }
  auto cell = it->second.find({node, tag});
  return cell == it->second.end() ? 0 : cell->second;
}

uint64_t MetricsRegistry::Total(std::string_view name) const {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    return 0;
  }
  uint64_t total = 0;
  for (const auto& [key, value] : it->second) {
    total += value;
  }
  return total;
}

uint64_t MetricsRegistry::TotalForNode(std::string_view name, int node) const {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    return 0;
  }
  uint64_t total = 0;
  for (const auto& [key, value] : it->second) {
    if (key.first == node) {
      total += value;
    }
  }
  return total;
}

uint64_t MetricsRegistry::TotalForTag(std::string_view name, int tag) const {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    return 0;
  }
  uint64_t total = 0;
  for (const auto& [key, value] : it->second) {
    if (key.second == tag) {
      total += value;
    }
  }
  return total;
}

MetricsRegistry::HistogramSnapshot MetricsRegistry::Histogram(
    std::string_view name) const {
  HistogramSnapshot snap;
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    return snap;
  }
  for (const auto& [key, cell] : it->second) {
    if (snap.count == 0) {
      snap.min = cell.min;
      snap.max = cell.max;
    } else {
      snap.min = std::min(snap.min, cell.min);
      snap.max = std::max(snap.max, cell.max);
    }
    snap.count += cell.count;
    snap.sum += cell.sum;
  }
  return snap;
}

std::vector<MetricsRegistry::CounterRow> MetricsRegistry::CounterRows(
    std::string_view prefix) const {
  std::vector<CounterRow> rows;
  for (const auto& [name, cells] : counters_) {
    if (name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    for (const auto& [key, value] : cells) {
      rows.push_back(CounterRow{name, key.first, key.second, value});
    }
  }
  return rows;
}

void MetricsRegistry::Reset() {
  ++generation_;
  counters_.clear();
  histograms_.clear();
}

void MetricsRegistry::ResetPrefix(std::string_view prefix) {
  ++generation_;
  auto erase_prefixed = [&](auto& table) {
    for (auto it = table.begin(); it != table.end();) {
      if (it->first.compare(0, prefix.size(), prefix) == 0) {
        it = table.erase(it);
      } else {
        ++it;
      }
    }
  };
  erase_prefixed(counters_);
  erase_prefixed(histograms_);
}

}  // namespace bftbase

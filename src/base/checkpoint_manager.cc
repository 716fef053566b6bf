#include "src/base/checkpoint_manager.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <optional>
#include <vector>

#include "src/crypto/sha256_multi.h"
#include "src/util/hotpath.h"
#include "src/util/log.h"
#include "src/util/workerpool.h"

namespace bftbase {

CheckpointManager::CheckpointManager(Simulation* sim, ServiceAdapter* adapter,
                                     bool full_copy_checkpoints)
    : sim_(sim), adapter_(adapter), full_copy_(full_copy_checkpoints) {
  FullResync(/*seq=*/0, /*protocol_state=*/Bytes());
}

void CheckpointManager::ChargeDigest(size_t bytes) {
  sim_->ChargeCpu(sim_->cost().DigestCost(bytes));
}

void CheckpointManager::OnModify(size_t object_index) {
  size_t leaf = LeafForObject(object_index);
  if (leaf >= leaf_count_) {
    // A brand-new object: it has no value at the previous checkpoint, so
    // there is nothing to copy; the leaf array grows at the next checkpoint.
    new_leaves_.insert(leaf);
    return;
  }
  if (!dirty_.insert(leaf).second) {
    return;  // already copied for the current checkpoint interval
  }
  if (full_copy_) {
    return;  // no COW: the next checkpoint snapshots everything anyway
  }
  // First modification since the latest checkpoint: snapshot the value the
  // object had at that checkpoint (it has not been modified since, so the
  // current abstract value IS the checkpoint value).
  auto it = checkpoints_.find(latest_seq_);
  assert(it != checkpoints_.end());
  ObjectCopy copy;
  copy.value = adapter_->GetObj(object_index);
  copy.digest = leaf_digests_[leaf];
  ++cow_copies_taken_;
  it->second.cow.emplace(leaf, std::move(copy));
}

Digest CheckpointManager::TakeCheckpoint(SeqNum seq,
                                         const Bytes& protocol_state) {
  assert(seq > latest_seq_);
  // Account for array growth since the previous checkpoint.
  size_t new_leaf_count = adapter_->ObjectCount() + 1;
  if (new_leaf_count > leaf_count_) {
    for (size_t leaf = leaf_count_; leaf < new_leaf_count; ++leaf) {
      dirty_.insert(leaf);
    }
    leaf_count_ = new_leaf_count;
    leaf_digests_.resize(leaf_count_);
    tree_.Resize(leaf_count_);
  }
  new_leaves_.clear();

  protocol_state_ = protocol_state;
  dirty_.insert(0);

  if (full_copy_) {
    // Ablation mode (bench E4): snapshot the entire abstract state.
    Checkpoint full;
    full.seq = seq;
    full.leaf_count = leaf_count_;
    for (size_t leaf = 0; leaf < leaf_count_; ++leaf) {
      Bytes value = leaf == 0 ? protocol_state_
                              : adapter_->GetObj(ObjectForLeaf(leaf));
      ChargeDigest(value.size());
      Digest digest = Digest::Of(value);
      leaf_digests_[leaf] = digest;
      tree_.SetLeaf(leaf, digest);
      full.cow.emplace(leaf, ObjectCopy{std::move(value), digest});
    }
    Digest root = tree_.Root();
    sim_->ChargeCpu(static_cast<SimTime>(tree_.TakeRecomputedNodes()) *
                    sim_->cost().DigestCost(tree_.branching() * Digest::kSize));
    full.root = root;
    latest_seq_ = seq;
    latest_root_ = root;
    checkpoints_.emplace(seq, std::move(full));
    last_checkpoint_updates_.clear();
    for (size_t leaf = 0; leaf < leaf_count_; ++leaf) {
      last_checkpoint_updates_.push_back(leaf);
    }
    dirty_.clear();
    return root;
  }

  // Copy-on-write mode: only leaves touched since the previous checkpoint
  // need their digest recomputed. Every replica digests the same abstract
  // objects, so each leaf is first looked up in the simulation's digest
  // cache (on this thread, before any pool job runs); only the misses are
  // hashed, as interleaved SHA-256 lanes (same digests, simulated charges
  // and logical-work counters as hashing them one at a time), and stored
  // back after the joins, in leaf order.
  DigestCache& cache = sim_->digests();
  std::vector<size_t> leaves(dirty_.begin(), dirty_.end());
  std::vector<Bytes> values;
  std::vector<Digest> digests(leaves.size());
  std::vector<size_t> misses;  // positions in `leaves`
  std::vector<BytesView> miss_views;
  values.reserve(leaves.size());
  for (size_t i = 0; i < leaves.size(); ++i) {
    const size_t leaf = leaves[i];
    values.push_back(leaf == 0 ? protocol_state_
                               : adapter_->GetObj(ObjectForLeaf(leaf)));
    ChargeDigest(values.back().size());
    BytesView view(values.back().data(), values.back().size());
    if (std::optional<Digest> hit = cache.Lookup(view)) {
      digests[i] = *hit;
    } else {
      misses.push_back(i);
      miss_views.push_back(view);
    }
  }
  std::vector<std::array<uint8_t, Digest::kSize>> hashed(misses.size());
  // Epilogue sharding: DigestMany processes inputs in independent groups
  // of kMaxLanes in order, so splitting the miss range at lane-multiple
  // boundaries produces byte-identical digests AND identical logical-work
  // counters per chunk. Chunks run as worker-pool jobs (inline at the join
  // when the pool has no threads); `values`/`miss_views`/`hashed` outlive
  // the joins below, and the merge order is the fixed leaf order
  // regardless of which worker finished first.
  constexpr size_t kChunk = 8 * sha256_multi::kMaxLanes;
  const size_t count = miss_views.size();
  auto* out = reinterpret_cast<uint8_t(*)[Digest::kSize]>(hashed.data());
  if (count > kChunk) {
    std::vector<WorkerPool::JobRef> jobs;
    jobs.reserve(count / kChunk + 1);
    for (size_t off = 0; off < count; off += kChunk) {
      const size_t len = std::min(kChunk, count - off);
      const BytesView* in = miss_views.data() + off;
      uint8_t(*chunk_out)[Digest::kSize] = out + off;
      ++hotpath::counters().pool_digest_shard_jobs;
      jobs.push_back(WorkerPool::Global().Submit([in, chunk_out, len] {
        sha256_multi::DigestMany(in, chunk_out, len);
      }));
    }
    for (const WorkerPool::JobRef& job : jobs) {
      WorkerPool::Global().Join(job);
    }
  } else {
    sha256_multi::DigestMany(miss_views.data(), out, count);
  }
  for (size_t j = 0; j < misses.size(); ++j) {
    digests[misses[j]] = Digest(hashed[j]);
    cache.Store(miss_views[j], digests[misses[j]]);
  }
  for (size_t i = 0; i < leaves.size(); ++i) {
    leaf_digests_[leaves[i]] = digests[i];
    tree_.SetLeaf(leaves[i], digests[i]);
  }
  Digest root = tree_.Root();
  sim_->ChargeCpu(static_cast<SimTime>(tree_.TakeRecomputedNodes()) *
                  sim_->cost().DigestCost(tree_.branching() * Digest::kSize));

  Checkpoint checkpoint;
  checkpoint.seq = seq;
  checkpoint.root = root;
  checkpoint.leaf_count = leaf_count_;
  checkpoints_.emplace(seq, std::move(checkpoint));
  latest_seq_ = seq;
  latest_root_ = root;
  last_checkpoint_updates_.assign(dirty_.begin(), dirty_.end());
  dirty_.clear();
  return root;
}

void CheckpointManager::DiscardBefore(SeqNum seq) {
  checkpoints_.erase(checkpoints_.begin(), checkpoints_.lower_bound(seq));
  // Never drop the latest checkpoint: it is what we serve.
  if (checkpoints_.empty()) {
    Checkpoint checkpoint;
    checkpoint.seq = latest_seq_;
    checkpoint.root = latest_root_;
    checkpoint.leaf_count = leaf_count_;
    checkpoints_.emplace(latest_seq_, std::move(checkpoint));
  }
}

Digest CheckpointManager::LeafDigest(size_t index) {
  assert(index < leaf_count_);
  return leaf_digests_[index];
}

Bytes CheckpointManager::LeafValue(size_t index) {
  assert(index < leaf_count_);
  // If the leaf was modified after the latest checkpoint, its checkpoint
  // value lives in the latest checkpoint's COW set.
  auto cp_it = checkpoints_.find(latest_seq_);
  if (cp_it != checkpoints_.end()) {
    auto cow_it = cp_it->second.cow.find(index);
    if (cow_it != cp_it->second.cow.end()) {
      return cow_it->second.value;
    }
  }
  if (index == 0) {
    return protocol_state_;
  }
  return adapter_->GetObj(ObjectForLeaf(index));
}

Digest CheckpointManager::CurrentLeafDigest(size_t index) {
  assert(index < leaf_count_);
  if (dirty_.count(index) == 0) {
    return leaf_digests_[index];
  }
  if (index == 0) {
    // The live protocol blob is refreshed only at checkpoints; its current
    // digest equals the checkpointed one.
    return leaf_digests_[index];
  }
  Bytes value = adapter_->GetObj(ObjectForLeaf(index));
  ChargeDigest(value.size());
  return Digest::Of(value);
}

bool CheckpointManager::HasDirtyInRange(size_t first, size_t last) const {
  auto it = dirty_.lower_bound(first);
  return it != dirty_.end() && *it < last;
}

Bytes CheckpointManager::InstallFetchedState(
    SeqNum seq, const Digest& root, size_t leaf_count,
    const std::vector<ObjectUpdate>& leaf_updates) {
  if (leaf_count > leaf_count_) {
    leaf_count_ = leaf_count;
    leaf_digests_.resize(leaf_count_);
    tree_.Resize(leaf_count_);
  }

  std::vector<ObjectUpdate> object_updates;
  object_updates.reserve(leaf_updates.size());
  for (const ObjectUpdate& update : leaf_updates) {
    assert(update.index < leaf_count_);
    ChargeDigest(update.value.size());
    Digest digest = Digest::Of(update.value);
    leaf_digests_[update.index] = digest;
    tree_.SetLeaf(update.index, digest);
    if (update.index == 0) {
      protocol_state_ = update.value;
    } else {
      object_updates.push_back(
          ObjectUpdate{ObjectForLeaf(update.index), update.value});
    }
  }
  // One consistent put_objs call, as the library guarantees (paper §2.2).
  adapter_->PutObjs(object_updates);

  // Leaves modified since our last checkpoint whose LIVE value already
  // matched the target were (correctly) not fetched, but the tree still
  // holds their stale checkpoint digests; refresh them so the recomputed
  // root reflects the installed state.
  std::set<size_t> updated;
  for (const ObjectUpdate& update : leaf_updates) {
    updated.insert(update.index);
  }
  for (size_t leaf : dirty_) {
    if (leaf >= leaf_count_ || updated.count(leaf) > 0) {
      continue;
    }
    Bytes value =
        leaf == 0 ? protocol_state_ : adapter_->GetObj(ObjectForLeaf(leaf));
    ChargeDigest(value.size());
    Digest digest = Digest::Of(value);
    leaf_digests_[leaf] = digest;
    tree_.SetLeaf(leaf, digest);
  }

  Digest recomputed = tree_.Root();
  tree_.TakeRecomputedNodes();
  last_install_root_ok_ = recomputed == root;
  if (recomputed != root) {
    // All individual values were digest-verified during the fetch, so a root
    // mismatch means our presumed-matching leaves did not actually match.
    // This fires only if local state was corrupted undetectably; log loudly.
    LOG_ERROR << "state install: root mismatch after fetch (have "
              << recomputed.Hex() << ", want " << root.Hex() << ")";
  }

  dirty_.clear();
  new_leaves_.clear();
  last_checkpoint_updates_.clear();
  checkpoints_.clear();
  Checkpoint checkpoint;
  checkpoint.seq = seq;
  checkpoint.root = root;
  checkpoint.leaf_count = leaf_count_;
  checkpoints_.emplace(seq, std::move(checkpoint));
  latest_seq_ = seq;
  latest_root_ = root;
  return protocol_state_;
}

void CheckpointManager::FullResync(SeqNum seq, const Bytes& protocol_state) {
  leaf_count_ = adapter_->ObjectCount() + 1;
  leaf_digests_.assign(leaf_count_, Digest());
  tree_.Resize(leaf_count_);
  protocol_state_ = protocol_state;
  for (size_t leaf = 0; leaf < leaf_count_; ++leaf) {
    Bytes value =
        leaf == 0 ? protocol_state_ : adapter_->GetObj(ObjectForLeaf(leaf));
    ChargeDigest(value.size());
    Digest digest = Digest::Of(value);
    leaf_digests_[leaf] = digest;
    tree_.SetLeaf(leaf, digest);
  }
  latest_root_ = tree_.Root();
  sim_->ChargeCpu(static_cast<SimTime>(tree_.TakeRecomputedNodes()) *
                  sim_->cost().DigestCost(tree_.branching() * Digest::kSize));
  latest_seq_ = seq;
  dirty_.clear();
  new_leaves_.clear();
  last_checkpoint_updates_.clear();
  checkpoints_.clear();
  Checkpoint checkpoint;
  checkpoint.seq = seq;
  checkpoint.root = latest_root_;
  checkpoint.leaf_count = leaf_count_;
  checkpoints_.emplace(seq, std::move(checkpoint));
}

size_t CheckpointManager::CowBytes() const {
  size_t total = 0;
  for (const auto& [seq, checkpoint] : checkpoints_) {
    for (const auto& [leaf, copy] : checkpoint.cow) {
      total += copy.value.size();
    }
  }
  return total;
}

}  // namespace bftbase

// Unit and property tests for the hierarchical state-partition tree.
#include <gtest/gtest.h>

#include <iterator>

#include "src/base/partition_tree.h"
#include "src/util/hotpath.h"
#include "src/util/rng.h"

namespace bftbase {
namespace {

Digest LeafDigest(int i) {
  return Digest::Of(ToBytes("leaf" + std::to_string(i)));
}

TEST(PartitionTree, RootChangesWithAnyLeaf) {
  PartitionTree tree(4);
  tree.Resize(64);
  for (int i = 0; i < 64; ++i) {
    tree.SetLeaf(i, LeafDigest(i));
  }
  Digest root = tree.Root();
  tree.SetLeaf(37, Digest::Of(ToBytes("changed")));
  EXPECT_NE(tree.Root(), root);
  tree.SetLeaf(37, LeafDigest(37));
  EXPECT_EQ(tree.Root(), root);  // restoring the leaf restores the root
}

TEST(PartitionTree, IdenticalLeavesGiveIdenticalRoots) {
  PartitionTree a(16);
  PartitionTree b(16);
  a.Resize(100);
  b.Resize(100);
  for (int i = 0; i < 100; ++i) {
    a.SetLeaf(i, LeafDigest(i));
  }
  // Set b's leaves in a different order; the root must not care.
  for (int i = 99; i >= 0; --i) {
    b.SetLeaf(i, LeafDigest(i));
  }
  EXPECT_EQ(a.Root(), b.Root());
}

TEST(PartitionTree, DifferentSizesGiveDifferentRoots) {
  PartitionTree a(16);
  PartitionTree b(16);
  a.Resize(10);
  b.Resize(11);
  // Same digests for the shared prefix; extra zero leaf in b.
  for (int i = 0; i < 10; ++i) {
    a.SetLeaf(i, LeafDigest(i));
    b.SetLeaf(i, LeafDigest(i));
  }
  EXPECT_NE(a.Root(), b.Root());
}

TEST(PartitionTree, LazyRecomputationTouchesOnlyDirtyPath) {
  PartitionTree tree(16);
  tree.Resize(16 * 16 * 16);  // three interior levels
  for (size_t i = 0; i < tree.leaf_count(); ++i) {
    tree.SetLeaf(i, LeafDigest(static_cast<int>(i)));
  }
  tree.Root();
  tree.TakeRecomputedNodes();

  tree.SetLeaf(123, Digest::Of(ToBytes("x")));
  tree.Root();
  uint64_t recomputed = tree.TakeRecomputedNodes();
  // Only the path from the leaf to the root (depth nodes) is recomputed.
  EXPECT_LE(recomputed, static_cast<uint64_t>(tree.depth()));
  EXPECT_GE(recomputed, 1u);
}

TEST(PartitionTree, ChildDigestsMatchNodeDigests) {
  PartitionTree tree(4);
  tree.Resize(64);
  for (int i = 0; i < 64; ++i) {
    tree.SetLeaf(i, LeafDigest(i));
  }
  tree.Root();
  for (int level = 0; level < tree.depth(); ++level) {
    for (size_t index = 0; index < tree.LevelWidth(level); ++index) {
      auto children = tree.ChildDigests(level, index);
      for (size_t c = 0; c < children.size(); ++c) {
        EXPECT_EQ(children[c], tree.NodeDigest(level + 1, index * 4 + c));
      }
    }
  }
}

TEST(PartitionTree, LeafRangeCoversAllLeavesExactlyOnce) {
  PartitionTree tree(4);
  tree.Resize(50);  // not a power of the branching factor
  for (int level = 0; level <= tree.depth(); ++level) {
    std::vector<bool> covered(tree.leaf_count(), false);
    size_t width = tree.LevelWidth(level);
    for (size_t index = 0; index < width; ++index) {
      auto [first, last] = tree.LeafRange(level, index);
      for (size_t leaf = first; leaf < last; ++leaf) {
        EXPECT_FALSE(covered[leaf]) << "level " << level;
        covered[leaf] = true;
      }
    }
    for (size_t leaf = 0; leaf < tree.leaf_count(); ++leaf) {
      EXPECT_TRUE(covered[leaf]) << "level " << level << " leaf " << leaf;
    }
  }
}

TEST(PartitionTree, GrowKeepsExistingLeaves) {
  PartitionTree tree(4);
  tree.Resize(10);
  for (int i = 0; i < 10; ++i) {
    tree.SetLeaf(i, LeafDigest(i));
  }
  tree.Resize(100);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(tree.Leaf(i), LeafDigest(i));
  }
  EXPECT_TRUE(tree.Leaf(50).IsZero());
}

TEST(PartitionTree, IncrementalGrowRehashMatchesFullRebuild) {
  // Growing the tree re-hashes only the genuinely stale paths; every root
  // must equal a freshly built tree's. The cost-model node count (which
  // feeds the simulated CPU charge) is pinned per step: these are the counts
  // the rebuild-everything path charged, recorded before it was retired,
  // and the real work splits them into rehashed and preserved nodes.
  struct Pin {
    int branching;
    uint64_t recomputed[6];
    uint64_t rehashed;
    uint64_t preserved;
  };
  const Pin pins[] = {
      {2, {6, 11, 15, 41, 44, 102}, 174, 45},
      {4, {3, 4, 5, 14, 15, 35}, 61, 15},
      {16, {1, 1, 1, 4, 4, 8}, 15, 4},
  };
  const int sizes[] = {5, 9, 16, 40, 41, 100};
  for (const Pin& pin : pins) {
    hotpath::ResetCounters();
    PartitionTree tree(pin.branching);
    int set = 0;
    for (size_t step = 0; step < std::size(sizes); ++step) {
      tree.Resize(sizes[step]);
      for (; set < sizes[step]; ++set) {
        tree.SetLeaf(set, LeafDigest(set));
      }
      const Digest root = tree.Root();
      EXPECT_EQ(tree.TakeRecomputedNodes(), pin.recomputed[step])
          << "branching " << pin.branching << " step " << step;
      const hotpath::Counters saved = hotpath::counters();
      PartitionTree fresh(pin.branching);
      fresh.Resize(sizes[step]);
      for (int i = 0; i < sizes[step]; ++i) {
        fresh.SetLeaf(i, LeafDigest(i));
      }
      EXPECT_EQ(root, fresh.Root())
          << "branching " << pin.branching << " step " << step;
      hotpath::counters() = saved;  // count only the grown tree's work
    }
    EXPECT_EQ(hotpath::counters().tree_nodes_rehashed, pin.rehashed)
        << "branching " << pin.branching;
    EXPECT_EQ(hotpath::counters().tree_nodes_preserved, pin.preserved)
        << "branching " << pin.branching;
  }
}

TEST(PartitionTree, GrowThenMutateOldAndNewLeavesStaysConsistent) {
  // Preserved subtree digests must not go stale silently: after a grow,
  // mutate leaves inside and outside the preserved region and compare
  // against a freshly built tree.
  PartitionTree tree(4);
  tree.Resize(16);
  for (int i = 0; i < 16; ++i) {
    tree.SetLeaf(i, LeafDigest(i));
  }
  tree.Root();
  tree.Resize(60);  // same depth for branching 4 (capacity 64)
  for (int i = 16; i < 60; ++i) {
    tree.SetLeaf(i, LeafDigest(i));
  }
  tree.SetLeaf(3, Digest::Of(ToBytes("mutated-old")));
  tree.SetLeaf(45, Digest::Of(ToBytes("mutated-new")));
  PartitionTree fresh(4);
  fresh.Resize(60);
  for (int i = 0; i < 60; ++i) {
    fresh.SetLeaf(i, LeafDigest(i));
  }
  fresh.SetLeaf(3, Digest::Of(ToBytes("mutated-old")));
  fresh.SetLeaf(45, Digest::Of(ToBytes("mutated-new")));
  EXPECT_EQ(tree.Root(), fresh.Root());
}

// Property sweep: across branching factors and sizes, incremental updates
// always give the same root as a freshly built tree with the same leaves.
class PartitionTreeProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PartitionTreeProperty, IncrementalEqualsFresh) {
  auto [branching, leaves] = GetParam();
  Rng rng(branching * 1000 + leaves);
  PartitionTree incremental(branching);
  incremental.Resize(leaves);
  std::vector<Digest> values(leaves);
  for (int i = 0; i < leaves; ++i) {
    values[i] = LeafDigest(i);
    incremental.SetLeaf(i, values[i]);
  }
  incremental.Root();
  // 100 random single-leaf updates with interleaved root queries.
  for (int step = 0; step < 100; ++step) {
    int leaf = static_cast<int>(rng.NextBelow(leaves));
    values[leaf] = Digest::Of(ToBytes("v" + std::to_string(step)));
    incremental.SetLeaf(leaf, values[leaf]);
    if (step % 7 == 0) {
      incremental.Root();
    }
  }
  PartitionTree fresh(branching);
  fresh.Resize(leaves);
  for (int i = 0; i < leaves; ++i) {
    fresh.SetLeaf(i, values[i]);
  }
  EXPECT_EQ(incremental.Root(), fresh.Root());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionTreeProperty,
    ::testing::Combine(::testing::Values(2, 4, 16, 64),
                       ::testing::Values(1, 5, 16, 100, 1000)));

}  // namespace
}  // namespace bftbase

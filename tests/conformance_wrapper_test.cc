// Focused unit tests for FsConformanceWrapper internals: oid allocation,
// generation management, reserved names, the staging directory, abstract
// statfs and array exhaustion.
#include <gtest/gtest.h>

#include "src/base/replica_service.h"
#include "src/basefs/basefs_group.h"
#include "src/basefs/conformance_wrapper.h"
#include "src/util/xdr.h"

namespace bftbase {
namespace {

class WrapperTest : public ::testing::TestWithParam<FsVendor> {
 protected:
  WrapperTest() : sim_(1) {
    FsConformanceWrapper::Options options;
    options.array_size = 16;  // small so exhaustion is testable
    wrapper_ = std::make_unique<FsConformanceWrapper>(
        &sim_, [this] { return MakeFileSystem(GetParam(), &sim_, 0); },
        options);
  }

  NfsReply Run(const NfsCall& call, int64_t now_us = 5000) {
    Bytes out = wrapper_->Execute(call.Encode(), 100,
                                  ReplicaService::EncodeNondet(now_us),
                                  false);
    auto reply = NfsReply::Decode(call.proc, out);
    EXPECT_TRUE(reply.ok());
    return *reply;
  }

  NfsReply Create(Oid dir, const std::string& name) {
    NfsCall call;
    call.proc = NfsProc::kCreate;
    call.oid = dir;
    call.name = name;
    return Run(call);
  }
  NfsReply Remove(Oid dir, const std::string& name) {
    NfsCall call;
    call.proc = NfsProc::kRemove;
    call.oid = dir;
    call.name = name;
    return Run(call);
  }

  Simulation sim_;
  std::unique_ptr<FsConformanceWrapper> wrapper_;
};

TEST_P(WrapperTest, OidAllocationIsLowestFreeIndex) {
  NfsReply a = Create(kRootOid, "a");
  NfsReply b = Create(kRootOid, "b");
  ASSERT_EQ(a.stat, NfsStat::kOk);
  ASSERT_EQ(b.stat, NfsStat::kOk);
  EXPECT_EQ(OidIndex(a.oid), 1u);  // index 0 is the root
  EXPECT_EQ(OidIndex(b.oid), 2u);

  // Free index 1 and create again: the slot is reused with a bumped
  // generation (paper §3.1).
  ASSERT_EQ(Remove(kRootOid, "a").stat, NfsStat::kOk);
  NfsReply c = Create(kRootOid, "c");
  EXPECT_EQ(OidIndex(c.oid), 1u);
  EXPECT_EQ(OidGeneration(c.oid), OidGeneration(a.oid) + 1);
  EXPECT_NE(c.oid, a.oid);  // distinct object identity
}

TEST_P(WrapperTest, FreedMiddleIndexIsAllocatedNext) {
  // Allocation stays lowest-free when a middle entry is freed after higher
  // ones were taken, and again after a recovery restore (RestartClean, then
  // PutObjs of a checkpoint) frees entries in the middle.
  for (const char* name : {"a", "b", "c", "d"}) {
    ASSERT_EQ(Create(kRootOid, name).stat, NfsStat::kOk);
  }
  ASSERT_EQ(Remove(kRootOid, "b").stat, NfsStat::kOk);  // frees index 2
  NfsReply e = Create(kRootOid, "e");
  ASSERT_EQ(e.stat, NfsStat::kOk);
  EXPECT_EQ(OidIndex(e.oid), 2u);
  EXPECT_EQ(OidIndex(Create(kRootOid, "f").oid), 5u);

  // Checkpoint value: indices 0..5 in use except 3 ("c" removed).
  ASSERT_EQ(Remove(kRootOid, "c").stat, NfsStat::kOk);
  std::vector<ObjectUpdate> checkpoint;
  for (size_t i = 0; i < wrapper_->ObjectCount(); ++i) {
    checkpoint.push_back({i, wrapper_->GetObj(i)});
  }
  // Diverge past the checkpoint (index 3, then 6, are taken), then recover.
  EXPECT_EQ(OidIndex(Create(kRootOid, "g").oid), 3u);
  EXPECT_EQ(OidIndex(Create(kRootOid, "h").oid), 6u);
  wrapper_->RestartClean();
  wrapper_->PutObjs(checkpoint);
  EXPECT_EQ(OidIndex(Create(kRootOid, "i").oid), 3u);
  EXPECT_EQ(OidIndex(Create(kRootOid, "j").oid), 6u);

  // Restoring the checkpoint onto the live state (no RestartClean) frees
  // 3 and 6 again.
  wrapper_->PutObjs(checkpoint);
  EXPECT_EQ(OidIndex(Create(kRootOid, "k").oid), 3u);
}

TEST_P(WrapperTest, StaleOidsRejected) {
  NfsReply a = Create(kRootOid, "gone");
  ASSERT_EQ(Remove(kRootOid, "gone").stat, NfsStat::kOk);
  NfsCall get;
  get.proc = NfsProc::kGetAttr;
  get.oid = a.oid;
  EXPECT_EQ(Run(get).stat, NfsStat::kStale);
  // Wrong generation on a live index is stale too.
  NfsCall bad;
  bad.proc = NfsProc::kGetAttr;
  bad.oid = MakeOid(0, 99);
  EXPECT_EQ(Run(bad).stat, NfsStat::kStale);
}

TEST_P(WrapperTest, ReservedNameIsInvisibleAndRefused) {
  // Force the staging directory into existence via put_objs.
  AbstractFsObject file;
  file.generation = 2;
  file.type = FileType::kRegular;
  file.mode = 0644;
  file.file_data = ToBytes("staged once");
  AbstractFsObject root;
  root.generation = 1;
  root.type = FileType::kDirectory;
  root.mode = 0755;
  root.dir_entries = {{"f", MakeOid(1, 2)}};
  wrapper_->PutObjs({ObjectUpdate{0, root.Encode()},
                     ObjectUpdate{1, file.Encode()}});

  // The concrete staging dir exists on the wrapped server...
  auto raw = wrapper_->wrapped_fs()->Lookup(wrapper_->wrapped_fs()->Root(),
                                            kStagingDirName);
  EXPECT_EQ(raw.stat, NfsStat::kOk);
  // ...but is invisible through the abstract interface.
  NfsCall list;
  list.proc = NfsProc::kReaddir;
  list.oid = kRootOid;
  NfsReply listing = Run(list);
  for (const auto& [name, oid] : listing.entries) {
    EXPECT_NE(name, kStagingDirName);
  }
  NfsCall look;
  look.proc = NfsProc::kLookup;
  look.oid = kRootOid;
  look.name = kStagingDirName;
  EXPECT_EQ(Run(look).stat, NfsStat::kNoEnt);
  // And clients cannot create it.
  EXPECT_EQ(Create(kRootOid, kStagingDirName).stat, NfsStat::kAcces);
}

TEST_P(WrapperTest, ArrayExhaustionReportsNoSpace) {
  // 16 slots, one taken by the root: 15 creates succeed, the 16th fails.
  for (int i = 0; i < 15; ++i) {
    ASSERT_EQ(Create(kRootOid, "f" + std::to_string(i)).stat, NfsStat::kOk)
        << i;
  }
  EXPECT_EQ(Create(kRootOid, "overflow").stat, NfsStat::kNoSpc);
  // Statfs reflects the abstract array, not the vendor's disk.
  NfsCall statfs;
  statfs.proc = NfsProc::kStatfs;
  NfsReply out = Run(statfs);
  EXPECT_EQ(out.free_blocks, 0u);
  EXPECT_EQ(out.total_blocks, 16u * 16u);
  // Freeing a slot restores space.
  ASSERT_EQ(Remove(kRootOid, "f3").stat, NfsStat::kOk);
  EXPECT_EQ(Create(kRootOid, "overflow").stat, NfsStat::kOk);
}

TEST_P(WrapperTest, TimestampsComeFromNondetNotVendorClock) {
  NfsCall create;
  create.proc = NfsProc::kCreate;
  create.oid = kRootOid;
  create.name = "stamped";
  NfsReply made = Run(create, /*now_us=*/777000);
  ASSERT_EQ(made.stat, NfsStat::kOk);
  EXPECT_EQ(made.attr.mtime_us, 777000);
  EXPECT_EQ(made.attr.ctime_us, 777000);
  // A later write updates mtime to the new agreed value.
  NfsCall write;
  write.proc = NfsProc::kWrite;
  write.oid = made.oid;
  write.data = ToBytes("x");
  NfsReply wrote = Run(write, /*now_us=*/888000);
  EXPECT_EQ(wrote.attr.mtime_us, 888000);
}

TEST_P(WrapperTest, TentativeMutationsRefused) {
  NfsCall create;
  create.proc = NfsProc::kCreate;
  create.oid = kRootOid;
  create.name = "nope";
  Bytes out = wrapper_->Execute(create.Encode(), 100,
                                Bytes(), /*tentative=*/true);
  auto reply = NfsReply::Decode(NfsProc::kCreate, out);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->stat, NfsStat::kRoFs);
  // Reads are allowed tentatively.
  NfsCall get;
  get.proc = NfsProc::kGetAttr;
  get.oid = kRootOid;
  out = wrapper_->Execute(get.Encode(), 100, Bytes(), /*tentative=*/true);
  reply = NfsReply::Decode(NfsProc::kGetAttr, out);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->stat, NfsStat::kOk);
}

TEST_P(WrapperTest, MalformedOperationRejectedGracefully) {
  Bytes out = wrapper_->Execute(ToBytes("not xdr"), 100, Bytes(), false);
  XdrReader r(out);
  EXPECT_EQ(static_cast<NfsStat>(r.GetUint32()), NfsStat::kInval);
}

INSTANTIATE_TEST_SUITE_P(AllVendors, WrapperTest,
                         ::testing::Values(FsVendor::kLinear, FsVendor::kTree,
                                           FsVendor::kLog),
                         [](const auto& info) {
                           return std::string(FsVendorName(info.param));
                         });

}  // namespace
}  // namespace bftbase

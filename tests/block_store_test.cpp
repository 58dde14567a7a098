// File-backed block store: persistence, recovery, replay.
#include "chain/block_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "temp_path.h"
#include "workloads/workloads.h"

namespace dcert::chain {
namespace {

/// Temp file path unique per test, removed on destruction.
struct TempFile {
  explicit TempFile(const std::string& name)
      : path(testutil::UniqueTempPath("dcert_store_" + name + ".bin")) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

struct StoreRig {
  ChainConfig config;
  std::shared_ptr<const ContractRegistry> registry;
  std::unique_ptr<FullNode> node;
  std::unique_ptr<Miner> miner;
  workloads::AccountPool pool{4, 808};
  std::unique_ptr<workloads::WorkloadGenerator> gen;

  StoreRig() {
    config.difficulty_bits = 2;
    registry = workloads::MakeBlockbenchRegistry(1);
    node = std::make_unique<FullNode>(config, registry);
    miner = std::make_unique<Miner>(*node);
    workloads::WorkloadGenerator::Params params;
    params.kind = workloads::Workload::kKvStore;
    params.instances_per_workload = 1;
    gen = std::make_unique<workloads::WorkloadGenerator>(params, pool);
  }

  Block NextBlock() {
    auto block = miner->MineBlock(gen->NextBlockTxs(3), 100 + node->Height());
    if (!block.ok() || !node->SubmitBlock(block.value())) {
      throw std::runtime_error("mining failed");
    }
    return block.value();
  }
};

TEST(Crc32Test, KnownVectors) {
  // Standard check value for "123456789".
  EXPECT_EQ(Crc32(StrBytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32({}), 0u);
  EXPECT_NE(Crc32(StrBytes("a")), Crc32(StrBytes("b")));
}

TEST(BlockStoreTest, AppendGetRoundTrip) {
  TempFile file("roundtrip");
  StoreRig rig;
  auto store = BlockStore::Open(file.path);
  ASSERT_TRUE(store.ok()) << store.message();
  ASSERT_TRUE(store.value().Append(rig.node->GetBlock(0)).ok());
  for (int i = 0; i < 5; ++i) {
    Block blk = rig.NextBlock();
    ASSERT_TRUE(store.value().Append(blk).ok());
  }
  EXPECT_EQ(store.value().Count(), 6u);
  for (std::uint64_t h = 0; h <= 5; ++h) {
    auto block = store.value().Get(h);
    ASSERT_TRUE(block.ok()) << block.message();
    EXPECT_EQ(block.value().header.Hash(), rig.node->GetBlock(h).header.Hash());
  }
  EXPECT_FALSE(store.value().Get(6).ok());
}

TEST(BlockStoreTest, RejectsOutOfOrderAppend) {
  TempFile file("order");
  StoreRig rig;
  auto store = BlockStore::Open(file.path);
  ASSERT_TRUE(store.ok());
  Block b1 = rig.NextBlock();
  EXPECT_FALSE(store.value().Append(b1).ok());  // height 1 before genesis
  ASSERT_TRUE(store.value().Append(rig.node->GetBlock(0)).ok());
  EXPECT_TRUE(store.value().Append(b1).ok());
  EXPECT_FALSE(store.value().Append(b1).ok());  // duplicate height
}

TEST(BlockStoreTest, ReopenSeesAllRecords) {
  TempFile file("reopen");
  StoreRig rig;
  {
    auto store = BlockStore::Open(file.path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value().Append(rig.node->GetBlock(0)).ok());
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(store.value().Append(rig.NextBlock()).ok());
  }
  auto reopened = BlockStore::Open(file.path);
  ASSERT_TRUE(reopened.ok()) << reopened.message();
  EXPECT_EQ(reopened.value().Count(), 4u);
  EXPECT_FALSE(reopened.value().RecoveredFromTornTail());
  auto tip = reopened.value().Get(3);
  ASSERT_TRUE(tip.ok());
  EXPECT_EQ(tip.value().header.height, 3u);
}

TEST(BlockStoreTest, TornTailTruncatedOnReopen) {
  TempFile file("torn");
  StoreRig rig;
  {
    auto store = BlockStore::Open(file.path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value().Append(rig.node->GetBlock(0)).ok());
    ASSERT_TRUE(store.value().Append(rig.NextBlock()).ok());
  }
  // Simulate a crash mid-append: garbage partial record at the end.
  {
    std::ofstream out(file.path, std::ios::binary | std::ios::app);
    const char garbage[] = {0x44, 0x43, 0x52, 0x54, 0x50};  // magic + partial len
    out.write(garbage, sizeof(garbage));
  }
  auto recovered = BlockStore::Open(file.path);
  ASSERT_TRUE(recovered.ok()) << recovered.message();
  EXPECT_TRUE(recovered.value().RecoveredFromTornTail());
  EXPECT_EQ(recovered.value().Count(), 2u);
  // And appends continue cleanly after recovery.
  EXPECT_TRUE(recovered.value().Append(rig.NextBlock()).ok());
  EXPECT_EQ(recovered.value().Count(), 3u);
}

TEST(BlockStoreTest, CorruptPayloadDetected) {
  TempFile file("corrupt");
  StoreRig rig;
  {
    auto store = BlockStore::Open(file.path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value().Append(rig.node->GetBlock(0)).ok());
    ASSERT_TRUE(store.value().Append(rig.NextBlock()).ok());
  }
  // Flip a byte inside the second record's payload.
  {
    std::fstream f(file.path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-10, std::ios::end);
    char b;
    f.seekg(f.tellp());
    f.read(&b, 1);
    f.seekp(-10, std::ios::end);
    b ^= 1;
    f.write(&b, 1);
  }
  auto reopened = BlockStore::Open(file.path);
  ASSERT_TRUE(reopened.ok());
  // The corrupt record (and everything after) is dropped; the prefix stays.
  EXPECT_TRUE(reopened.value().RecoveredFromTornTail());
  EXPECT_EQ(reopened.value().Count(), 1u);
}

TEST(BlockStoreTest, ReplayRebuildsFullNode) {
  TempFile file("replay");
  StoreRig rig;
  auto store = BlockStore::Open(file.path);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value().Append(rig.node->GetBlock(0)).ok());
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(store.value().Append(rig.NextBlock()).ok());

  auto replayed = ReplayFromStore(store.value(), rig.config, rig.registry);
  ASSERT_TRUE(replayed.ok()) << replayed.message();
  EXPECT_EQ(replayed.value().Height(), rig.node->Height());
  EXPECT_EQ(replayed.value().Tip().header.Hash(), rig.node->Tip().header.Hash());
  EXPECT_EQ(replayed.value().State().Root(), rig.node->State().Root());
}

TEST(BlockStoreTest, ReplayRejectsForeignGenesis) {
  TempFile file("foreign");
  StoreRig rig;
  auto store = BlockStore::Open(file.path);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value().Append(rig.node->GetBlock(0)).ok());

  ChainConfig other = rig.config;
  other.genesis_timestamp += 1;  // different genesis
  EXPECT_FALSE(ReplayFromStore(store.value(), other, rig.registry).ok());
}

}  // namespace
}  // namespace dcert::chain

// Batched certification (SigGenSpan / ProcessBlockBatch).
#include <gtest/gtest.h>

#include "dcert/enclave_program.h"
#include "dcert/issuer.h"
#include "dcert/superlight.h"
#include "query/historical_index.h"
#include "workloads/workloads.h"

namespace dcert::core {
namespace {

using workloads::AccountPool;
using workloads::Workload;
using workloads::WorkloadGenerator;

struct BatchRig {
  chain::ChainConfig config;
  std::shared_ptr<const chain::ContractRegistry> registry;
  std::unique_ptr<CertificateIssuer> ci;
  std::unique_ptr<chain::FullNode> miner_node;
  std::unique_ptr<chain::Miner> miner;
  AccountPool pool{4, 91};
  std::unique_ptr<WorkloadGenerator> gen;

  BatchRig() {
    config.difficulty_bits = 2;
    registry = workloads::MakeBlockbenchRegistry(1);
    ci = std::make_unique<CertificateIssuer>(config, registry);
    miner_node = std::make_unique<chain::FullNode>(config, registry);
    miner = std::make_unique<chain::Miner>(*miner_node);
    WorkloadGenerator::Params params;
    params.kind = Workload::kKvStore;
    params.instances_per_workload = 1;
    gen = std::make_unique<WorkloadGenerator>(params, pool);
  }

  std::vector<chain::Block> NextBlocks(int n, std::size_t txs = 4) {
    std::vector<chain::Block> blocks;
    for (int i = 0; i < n; ++i) {
      auto block =
          miner->MineBlock(gen->NextBlockTxs(txs), 100 + miner_node->Height());
      if (!block.ok()) throw std::runtime_error(block.message());
      if (!miner_node->SubmitBlock(block.value())) throw std::runtime_error("s");
      blocks.push_back(block.value());
    }
    return blocks;
  }
};

TEST(BatchTest, SpanCertValidatesOnClient) {
  BatchRig rig;
  auto blocks = rig.NextBlocks(4);
  auto cert = rig.ci->ProcessBlockBatch(blocks);
  ASSERT_TRUE(cert.ok()) << cert.message();
  EXPECT_EQ(rig.ci->Node().Height(), 4u);
  EXPECT_EQ(rig.ci->LastTiming().ecalls, 1u);

  SuperlightClient client(ExpectedEnclaveMeasurement());
  EXPECT_TRUE(client.ValidateAndAccept(blocks.back().header, cert.value()).ok());
  EXPECT_EQ(client.Height(), 4u);
}

TEST(BatchTest, MixedBatchAndSingleCertificationChains) {
  BatchRig rig;
  auto first = rig.NextBlocks(3);
  ASSERT_TRUE(rig.ci->ProcessBlockBatch(first).ok());
  // Continue with single-block certification: the recursive chain resumes
  // from the span certificate.
  auto next = rig.NextBlocks(2);
  for (const auto& blk : next) {
    auto cert = rig.ci->ProcessBlock(blk);
    ASSERT_TRUE(cert.ok()) << cert.message();
  }
  EXPECT_EQ(rig.ci->Node().Height(), 5u);
}

TEST(BatchTest, EmptyAndNonContiguousBatchesRejected) {
  BatchRig rig;
  EXPECT_FALSE(rig.ci->ProcessBlockBatch({}).ok());
  auto blocks = rig.NextBlocks(3);
  // Out of order: the second block does not extend the tip after the first
  // was skipped.
  std::vector<chain::Block> gap{blocks[1], blocks[2]};
  EXPECT_FALSE(rig.ci->ProcessBlockBatch(gap).ok());
}

TEST(BatchTest, TamperedSpanBlockRejectedByEnclave) {
  // Drive SigGenSpan directly: a tampered middle block fails the whole span.
  BatchRig rig;
  auto blocks = rig.NextBlocks(3);

  EnclaveConfig ec;
  ec.genesis_hash = chain::MakeGenesisBlock(rig.config).header.Hash();
  ec.registry_digest = rig.registry->Digest();
  ec.difficulty_bits = rig.config.difficulty_bits;
  CertEnclaveProgram program(ec, rig.registry, StrBytes("batch-key"));

  chain::FullNode replay(rig.config, rig.registry);
  std::vector<StateUpdateProof> proofs;
  for (const auto& blk : blocks) {
    auto exec = chain::ExecuteBlockTxs(blk.txs, *rig.registry, replay.State());
    ASSERT_TRUE(exec.ok());
    proofs.push_back(BuildStateUpdateProof(exec.value().reads,
                                           exec.value().writes, replay.State()));
    ASSERT_TRUE(replay.SubmitBlock(blk).ok());
  }
  chain::BlockHeader genesis = chain::MakeGenesisBlock(rig.config).header;

  // Genuine span signs.
  auto good = program.SigGenSpan(genesis, std::nullopt, blocks, proofs);
  ASSERT_TRUE(good.ok()) << good.message();

  // Tampered middle block: rejected.
  auto tampered = blocks;
  tampered[1].header.state_root[0] ^= 1;
  chain::MineNonce(tampered[1].header);
  EXPECT_FALSE(program.SigGenSpan(genesis, std::nullopt, tampered, proofs).ok());

  // Mismatched proof count: rejected.
  std::vector<StateUpdateProof> short_proofs(proofs.begin(), proofs.end() - 1);
  EXPECT_FALSE(program.SigGenSpan(genesis, std::nullopt, blocks, short_proofs).ok());
}

TEST(BatchTest, BatchingDisablesBackfill) {
  BatchRig rig;
  ASSERT_TRUE(rig.ci->ProcessBlockBatch(rig.NextBlocks(2)).ok());
  // Intermediate blocks carry no certificates, so late index attachment
  // (which must anchor each historical block) refuses cleanly.
  EXPECT_FALSE(
      rig.ci->AttachIndexWithBackfill(std::make_shared<query::HistoricalIndex>())
          .ok());
}

TEST(BatchTest, SpanIsRefusedWithAnAttachedIndex) {
  // A span certificate signs only the last header, and Alg. 5 certifies an
  // index against each block's own certificate, so the batch route refuses
  // while an index is attached and leaves the issuer untouched.
  BatchRig rig;
  auto hist = std::make_shared<query::HistoricalIndex>("historical");
  rig.ci->AttachIndex(hist);
  auto blocks = rig.NextBlocks(2);
  const Hash256 genesis_root = rig.ci->Node().State().Root();
  EXPECT_FALSE(rig.ci->ProcessBlockBatch({blocks[0]}).ok());
  EXPECT_EQ(rig.ci->Node().Height(), 0u);
  EXPECT_EQ(rig.ci->Node().State().Root(), genesis_root);
  EXPECT_FALSE(rig.ci->LatestCert().has_value());
  EXPECT_FALSE(rig.ci->LatestIndexCert("historical").has_value());

  // Per-block certification then runs Alg. 5 for both blocks, and a
  // superlight client accepts each index certificate.
  SuperlightClient client(ExpectedEnclaveMeasurement());
  for (const chain::Block& blk : blocks) {
    auto certs = rig.ci->ProcessBlockHierarchical(blk);
    ASSERT_TRUE(certs.ok()) << certs.message();
    ASSERT_EQ(certs.value().size(), 1u);
    ASSERT_TRUE(client.ValidateAndAccept(blk.header, *rig.ci->LatestCert()).ok());
    Status st = client.AcceptIndexCert(blk.header, certs.value()[0],
                                       hist->CurrentDigest(), "historical");
    EXPECT_TRUE(st.ok()) << st.message();
  }
  EXPECT_EQ(client.Height(), 2u);
}

}  // namespace
}  // namespace dcert::core

// Determinism proofs for the parallel hot paths: whatever the scheduling,
// the parallel implementations must produce byte-identical proofs, roots,
// digests, and certificates to their serial counterparts.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <stdexcept>
#include <vector>

#include "ckpt/checkpointed_issuer.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "crypto/sha256.h"
#include "dcert/issuer.h"
#include "mht/smt.h"
#include "temp_path.h"
#include "workloads/workloads.h"

namespace dcert {
namespace {

Hash256 RandomHash(Rng& rng) { return crypto::Sha256::Digest(rng.NextBytes(16)); }

mht::SparseMerkleTree RandomTree(Rng& rng, std::size_t n,
                                 std::vector<Hash256>* keys_out = nullptr) {
  mht::SparseMerkleTree tree;
  for (std::size_t i = 0; i < n; ++i) {
    Hash256 key = RandomHash(rng);
    tree.Update(key, RandomHash(rng));
    if (keys_out != nullptr) keys_out->push_back(key);
  }
  return tree;
}

TEST(ParallelEquivalenceTest, ProveKeysParallelMatchesSerial) {
  common::ThreadPool pool(4);
  Rng rng(7);
  for (int round = 0; round < 5; ++round) {
    std::vector<Hash256> present;
    mht::SparseMerkleTree tree = RandomTree(rng, 300, &present);
    // Mix of present keys (with duplicates) and absent keys.
    std::vector<Hash256> query;
    for (int i = 0; i < 200; ++i) {
      query.push_back(present[rng.NextBelow(present.size())]);
    }
    for (int i = 0; i < 50; ++i) query.push_back(RandomHash(rng));
    query.push_back(query.front());

    mht::SmtMultiProof serial = tree.ProveKeysSerial(query);
    mht::SmtMultiProof parallel = tree.ProveKeysParallel(query, pool);
    EXPECT_EQ(serial.Serialize(), parallel.Serialize()) << "round " << round;
    EXPECT_EQ(serial.Serialize(), tree.ProveKeys(query).Serialize());
  }
}

TEST(ParallelEquivalenceTest, ProveKeysParallelEmptyAndTiny) {
  common::ThreadPool pool(4);
  Rng rng(8);
  mht::SparseMerkleTree tree = RandomTree(rng, 10);
  EXPECT_EQ(tree.ProveKeysParallel({}, pool).Serialize(),
            tree.ProveKeysSerial({}).Serialize());
  std::vector<Hash256> one{RandomHash(rng)};
  EXPECT_EQ(tree.ProveKeysParallel(one, pool).Serialize(),
            tree.ProveKeysSerial(one).Serialize());
}

TEST(ParallelEquivalenceTest, UpdateBatchMatchesSerialUpdates) {
  common::ThreadPool pool(4);
  Rng rng(9);
  for (int round = 0; round < 5; ++round) {
    std::vector<Hash256> keys;
    mht::SparseMerkleTree serial = RandomTree(rng, 200, &keys);
    // Rebuild an identical tree for the batched run.
    mht::SparseMerkleTree batched;
    for (const Hash256& k : keys) batched.Update(k, serial.Get(k));
    ASSERT_EQ(serial.Root(), batched.Root());

    // A batch mixing overwrites, fresh inserts, and deletions.
    std::map<Hash256, Hash256> batch;
    for (int i = 0; i < 100; ++i) {
      batch[keys[rng.NextBelow(keys.size())]] = RandomHash(rng);  // overwrite
    }
    for (int i = 0; i < 100; ++i) batch[RandomHash(rng)] = RandomHash(rng);
    for (int i = 0; i < 50; ++i) {
      batch[keys[rng.NextBelow(keys.size())]] = Hash256();  // delete
    }

    for (const auto& [k, vh] : batch) serial.Update(k, vh);
    batched.UpdateBatchWith(batch, pool);

    EXPECT_EQ(serial.Root(), batched.Root()) << "round " << round;
    EXPECT_EQ(serial.Size(), batched.Size());
    // Structure equality through proofs over every touched key.
    std::vector<Hash256> touched;
    for (const auto& [k, vh] : batch) touched.push_back(k);
    EXPECT_EQ(serial.ProveKeysSerial(touched).Serialize(),
              batched.ProveKeysSerial(touched).Serialize());
    // Subsequent single-key updates behave identically on both trees.
    Hash256 extra_key = RandomHash(rng);
    Hash256 extra_val = RandomHash(rng);
    serial.Update(extra_key, extra_val);
    batched.Update(extra_key, extra_val);
    EXPECT_EQ(serial.Root(), batched.Root());
  }
}

TEST(ParallelEquivalenceTest, UpdateBatchAutoPathMatches) {
  Rng rng(10);
  std::vector<Hash256> keys;
  mht::SparseMerkleTree a = RandomTree(rng, 100, &keys);
  mht::SparseMerkleTree b;
  for (const Hash256& k : keys) b.Update(k, a.Get(k));

  std::map<Hash256, Hash256> batch;
  for (int i = 0; i < 200; ++i) batch[RandomHash(rng)] = RandomHash(rng);
  for (const auto& [k, vh] : batch) a.Update(k, vh);
  b.UpdateBatch(batch);
  EXPECT_EQ(a.Root(), b.Root());
}

/// The fixed seeded chain the certificate golden covers: 40 SmallBank blocks
/// of 8 transactions, then 20 IOHeavy blocks of 2 transactions (32 keys each).
struct GoldenChain {
  chain::ChainConfig config;
  std::shared_ptr<const chain::ContractRegistry> registry;
  std::vector<chain::Block> blocks;

  GoldenChain() {
    config.difficulty_bits = 4;
    registry = workloads::MakeBlockbenchRegistry(2);
    workloads::AccountPool accounts(24, 1201);
    workloads::WorkloadGenerator::Params sb;
    sb.kind = workloads::Workload::kSmallBank;
    sb.seed = 1202;
    sb.instances_per_workload = 2;
    workloads::WorkloadGenerator::Params io;
    io.kind = workloads::Workload::kIoHeavy;
    io.seed = 1203;
    io.instances_per_workload = 2;
    workloads::WorkloadGenerator sb_gen(sb, accounts);
    workloads::WorkloadGenerator io_gen(io, accounts);

    chain::FullNode node(config, registry);
    chain::Miner miner(node);
    for (int i = 0; i < 60; ++i) {
      auto txs = i < 40 ? sb_gen.NextBlockTxs(8) : io_gen.NextBlockTxs(2);
      auto blk = miner.MineBlock(std::move(txs), 1700000000 + node.Height() * 15);
      if (!blk.ok()) throw std::runtime_error(blk.message());
      if (Status st = node.SubmitBlock(blk.value()); !st) {
        throw std::runtime_error(st.message());
      }
      blocks.push_back(std::move(blk.value()));
    }
  }
};

Hash256 DigestOfCerts(const std::vector<core::BlockCertificate>& certs) {
  crypto::Sha256 ctx;
  for (const core::BlockCertificate& cert : certs) ctx.Update(cert.Serialize());
  return ctx.Finalize();
}

// SHA-256 over the serialized certificates of the golden chain, in height
// order. Certificate bytes are a compatibility surface (superlight clients,
// cert logs, checkpoints), so any change to how the issuer builds them must
// show up here first.
constexpr char kGoldenCertDigest[] =
    "71374495e908a9420200b58c5d0e25cbf2e62233290765adc9acd533c6430583";

TEST(ParallelEquivalenceTest, CertificateBytesMatchGolden) {
  const GoldenChain golden;

  core::CertificateIssuer serial_ci(golden.config, golden.registry);
  std::vector<core::BlockCertificate> serial;
  for (const chain::Block& blk : golden.blocks) {
    auto cert = serial_ci.ProcessBlock(blk);
    ASSERT_TRUE(cert.ok()) << cert.message();
    serial.push_back(cert.value());
  }

  const std::string dir = testutil::UniqueTempPath("golden");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::vector<core::BlockCertificate> checkpointed;
  {
    core::DurableIssuerOptions opts;
    opts.block_log_path = dir + "/blocks.log";
    opts.cert_log_path = dir + "/certs.log";
    opts.sealed_key_path = dir + "/sealed.key";
    opts.segment_records = 16;
    ckpt::CheckpointConfig ck;
    ck.dir = dir + "/ckpt";
    ck.interval = 20;
    auto opened = ckpt::CheckpointedIssuer::Open(golden.config, golden.registry,
                                                 opts, ck);
    ASSERT_TRUE(opened.ok()) << opened.message();
    ckpt::CheckpointedIssuer issuer = std::move(opened.value());
    for (const chain::Block& blk : golden.blocks) {
      ASSERT_TRUE(issuer.CertifyBlock(blk).ok());
      checkpointed.push_back(*issuer.Durable().Issuer().LatestCert());
    }
  }
  std::filesystem::remove_all(dir);

  EXPECT_EQ(DigestOfCerts(serial).ToHex(), kGoldenCertDigest);
  EXPECT_EQ(DigestOfCerts(checkpointed).ToHex(), kGoldenCertDigest);
}

}  // namespace
}  // namespace dcert

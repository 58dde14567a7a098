#include "inputs.h"

#include <stdexcept>
#include <string>

#include "common/rng.h"
#include "dcert/issuer.h"
#include "harness.h"
#include "query/extraction.h"

namespace dcert::perfbench {

namespace {

constexpr std::uint64_t kTimestampBase = 1'700'000'000;

std::uint64_t SplitMix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

chain::Block Mine(const chain::FullNode& node, std::vector<chain::Transaction> txs) {
  auto block = chain::Miner(node).MineBlock(std::move(txs),
                                            kTimestampBase + (node.Height() + 1) * 15);
  if (!block.ok()) throw std::runtime_error("mining: " + block.message());
  return std::move(block.value());
}

}  // namespace

CertifyInputs MakeCertifyInputs(workloads::Workload kind, std::size_t blocks,
                                std::size_t block_txs, std::uint64_t seed) {
  CertifyInputs in;
  in.config.difficulty_bits = 4;
  in.registry = workloads::MakeBlockbenchRegistry(4);
  in.block_txs = block_txs;
  chain::FullNode miner_node(in.config, in.registry);
  workloads::AccountPool pool(64, seed);
  workloads::WorkloadGenerator::Params params;
  params.kind = kind;
  params.seed = seed;
  params.instances_per_workload = 4;
  workloads::WorkloadGenerator gen(params, pool);
  for (std::size_t i = 0; i < blocks; ++i) {
    chain::Block blk = Mine(miner_node, gen.NextBlockTxs(block_txs));
    if (Status st = miner_node.SubmitBlock(blk); !st) {
      throw std::runtime_error("miner submit: " + st.message());
    }
    in.blocks.push_back(std::move(blk));
  }
  in.final_root = miner_node.Tip().header.state_root;
  return in;
}

void GroundTruth::AddBlock(const chain::Block& blk) {
  for (const query::HistEntry& e : query::ExtractHistoricalWrites(blk)) {
    by_account_[e.account_word].push_back(
        {e.version, query::VersionHeight(e.version), e.value_word});
  }
}

std::vector<query::HistoricalVersion> GroundTruth::Versions(
    std::uint64_t account, std::uint64_t from, std::uint64_t to) const {
  std::vector<query::HistoricalVersion> out;
  const auto it = by_account_.find(account);
  if (it == by_account_.end()) return out;
  for (const query::HistoricalVersion& v : it->second) {
    if (v.block_height >= from && v.block_height <= to) out.push_back(v);
  }
  return out;
}

mht::MbAggregate GroundTruth::Aggregate(std::uint64_t account,
                                        std::uint64_t from,
                                        std::uint64_t to) const {
  mht::MbAggregate agg;
  for (const query::HistoricalVersion& v : Versions(account, from, to)) {
    agg.count += 1;
    agg.sum += v.value;
  }
  return agg;
}

ServeInputs MakeServeInputs(std::size_t initial_blocks, std::size_t feed_blocks,
                            std::size_t block_txs, std::size_t accounts, double zipf_s,
                            std::uint64_t seed) {
  ServeInputs in;
  for (std::size_t r = 0; r < accounts; ++r) {
    in.account_words.push_back(SplitMix(seed ^ (r * 0x632be59bd9b4e019ULL)));
  }

  chain::ChainConfig config;
  config.difficulty_bits = 4;
  auto registry = workloads::MakeBlockbenchRegistry(1);
  core::CertificateIssuer ci(config, registry);
  auto hist = std::make_shared<query::HistoricalIndex>("historical");
  ci.AttachIndex(hist);
  workloads::AccountPool pool(16, seed);
  Rng rng(seed ^ 0x5e4e5e4e5e4eULL);
  const Zipf zipf(accounts, zipf_s);
  const std::uint64_t kv_contract =
      workloads::ContractId(workloads::Workload::kKvStore, 0);

  for (std::size_t i = 0; i < initial_blocks + feed_blocks; ++i) {
    // Every transaction is a KVStore put, so every one adds a version; hot
    // ranks are both written and queried most.
    std::vector<chain::Transaction> txs;
    for (std::size_t t = 0; t < block_txs; ++t) {
      const std::uint64_t word = in.account_words[zipf.Draw(rng)];
      txs.push_back(pool.MakeTx(rng.NextBelow(pool.size()), kv_contract,
                                {0, word, rng.NextU64() | 1}));
    }
    chain::Block blk = Mine(ci.Node(), std::move(txs));
    auto icerts = ci.ProcessBlockHierarchical(blk);
    if (!icerts.ok()) throw std::runtime_error("pre-certify: " + icerts.message());
    in.truth.AddBlock(blk);
    svc::AnnounceRequest ann;
    ann.block = std::move(blk);
    ann.block_cert = *ci.LatestCert();
    ann.index_digest = hist->CurrentDigest();
    ann.index_cert = icerts.value()[0];
    (i < initial_blocks ? in.initial : in.feed).push_back(std::move(ann));
  }
  return in;
}

std::vector<QueryDraw> MakeQueryStream(std::size_t n, std::size_t accounts,
                                       double zipf_s, std::uint64_t seed) {
  Rng rng(seed ^ 0x9a3e9a3e9a3eULL);
  const Zipf zipf(accounts, zipf_s);
  std::vector<QueryDraw> out(n);
  for (QueryDraw& q : out) {
    q.rank = static_cast<std::uint32_t>(zipf.Draw(rng));
    const std::uint64_t k = rng.NextBelow(10);
    q.kind = k < 4   ? QueryKind::kFullHistory
             : k < 8 ? QueryKind::kRecent
                     : QueryKind::kAggregate;
  }
  return out;
}

std::pair<std::uint64_t, std::uint64_t> Window(QueryKind kind,
                                               std::uint64_t tip) {
  if (kind == QueryKind::kRecent) {
    return {tip > kRecentBlocks ? tip - kRecentBlocks + 1 : 1, tip};
  }
  return {1, tip};
}

}  // namespace dcert::perfbench

// Seeded input generation for the benchmark. Everything a run feeds DCert —
// pre-mined blocks, pre-certified announcements, the query stream — is a
// pure function of the seed and the sizes passed in; the program under test only
// ever sees the generated inputs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "chain/block.h"
#include "chain/node.h"
#include "common/bytes.h"
#include "mht/mbtree.h"
#include "query/historical_index.h"
#include "svc/protocol.h"
#include "workloads/workloads.h"

namespace dcert::perfbench {

/// Blocks for the certify phase: one epoch of a chain mined from genesis.
struct CertifyInputs {
  chain::ChainConfig config;
  std::shared_ptr<const chain::ContractRegistry> registry;
  std::vector<chain::Block> blocks;
  std::size_t block_txs = 0;
  /// The miner's state root after the last block: the issuer must match it.
  Hash256 final_root;
};

CertifyInputs MakeCertifyInputs(workloads::Workload kind, std::size_t blocks,
                                std::size_t block_txs, std::uint64_t seed);

/// Expected answers, derived from the fixture blocks with
/// query::ExtractHistoricalWrites (independent of any SP or proof).
class GroundTruth {
 public:
  void AddBlock(const chain::Block& blk);
  std::vector<query::HistoricalVersion> Versions(std::uint64_t account,
                                                 std::uint64_t from,
                                                 std::uint64_t to) const;
  mht::MbAggregate Aggregate(std::uint64_t account, std::uint64_t from,
                             std::uint64_t to) const;

 private:
  std::map<std::uint64_t, std::vector<query::HistoricalVersion>> by_account_;
};

/// The certified KVStore chain the SP fleet serves: `initial` is announced
/// before timing starts, `feed` during the run. Every block carries
/// `block_txs` puts.
struct ServeInputs {
  std::vector<svc::AnnounceRequest> initial;
  std::vector<svc::AnnounceRequest> feed;
  /// Account word of each Zipf rank (spread over the 64-bit key space so
  /// key-range shards split the load).
  std::vector<std::uint64_t> account_words;
  GroundTruth truth;
};

ServeInputs MakeServeInputs(std::size_t initial_blocks, std::size_t feed_blocks,
                            std::size_t block_txs, std::size_t accounts, double zipf_s,
                            std::uint64_t seed);

enum class QueryKind : std::uint8_t { kFullHistory, kRecent, kAggregate };

/// One seeded draw of the query stream; its window is resolved against the
/// initial chain's tip, so a draw asks the same question whenever it is sent.
struct QueryDraw {
  std::uint32_t rank = 0;
  QueryKind kind = QueryKind::kFullHistory;
  bool operator==(const QueryDraw&) const = default;
};

/// The query stream: Zipf(zipf_s)-skewed ranks, 40% full-history windows,
/// 40% recent windows, 20% full-history aggregates.
std::vector<QueryDraw> MakeQueryStream(std::size_t n, std::size_t accounts,
                                       double zipf_s, std::uint64_t seed);

/// Height window of `kind` ending at `tip`.
std::pair<std::uint64_t, std::uint64_t> Window(QueryKind kind,
                                               std::uint64_t tip);

/// Blocks a recent window spans: the window of the historical-query
/// experiment (Fig. 11) in EXPERIMENTS.md.
inline constexpr std::uint64_t kRecentBlocks = 20;

}  // namespace dcert::perfbench

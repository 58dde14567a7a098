// Serve phase: a 2-shard x 1-replica SP fleet (svc::SpServer on TCP
// loopback, key-range shards) answers verified historical queries from
// light clients (fleet::FleetClient) while a feeder announces new certified
// blocks to both shards at a fixed cadence. Phase 1 is open loop at a fixed
// offered rate (independent light clients); phase 2 is closed loop
// (capacity). Every answer is checked against the fixture's ground truth.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fleet/fleet_client.h"
#include "fleet/shard_map.h"
#include "harness.h"
#include "inputs.h"
#include "obs/metrics.h"
#include "svc/sp_client.h"
#include "svc/sp_server.h"
#include "svc/tcp_transport.h"

namespace dcert::perfbench {

inline constexpr std::uint32_t kShards = 2;

/// The running fleet (set-up): servers listening, initial chain announced.
class Fleet {
 public:
  Fleet(const ServeInputs& in, std::size_t sp_workers);

  const fleet::ShardMap& Map() const { return map_; }
  std::uint16_t Port(std::uint32_t shard) const { return tcp_[shard]->Port(); }
  svc::SpServer& Server(std::uint32_t shard) { return *servers_[shard]; }

 private:
  fleet::ShardMap map_;
  // Declared first so they outlive the servers, which stop them.
  std::vector<std::unique_ptr<svc::TcpServerTransport>> tcp_;
  std::vector<std::unique_ptr<svc::SpServer>> servers_;
};

/// Phase-1 offered queries per second: about a quarter of the phase-2
/// capacity measured on a 4-core Xeon host (1.7-2.4k q/s with three
/// light-client threads).
inline constexpr double kPhase1Rate = 500.0;
/// The feeder announces one block per interval, so a phase-1 round of 1000
/// queries runs beside about eight announcements (see NOTES.md for why this
/// cadence and how little the gated metrics depend on it).
inline constexpr double kFeedIntervalMs = 250.0;

struct ServeConfig {
  std::size_t round_queries;  // phase-1 queries per round
  std::size_t workers;        // light-client threads, both phases
  bool trace;
  std::uint64_t seed;         // of the query stream
};

struct ServeResult {
  /// Phase 1: every round replays the same draws; by round, then draw.
  std::vector<std::vector<OpenLoopSample>> rounds;
  /// Phase 2: verified answers per second of each burst.
  std::vector<double> burst_qps;
  std::uint64_t burst_attempted = 0;
  std::uint64_t burst_ok = 0;
  /// Announcement -> both shards accepted, each announcement of the run.
  std::vector<double> ingest_ms;
  std::uint64_t announced = 0;
  std::uint64_t announce_failed = 0;
  std::uint64_t wrong_answers = 0;
  std::string error;  // first failure seen
  // Traced runs: spans of the odd-numbered phase-1 queries (sent through
  // the same layer calls FleetClient makes) and their proof sizes.
  SpanLog spans;
  std::vector<double> proof_kb;
  // Layer counters over all serve segments.
  std::uint64_t queries = 0, subqueries = 0, failovers = 0, verify_failures = 0;
  std::uint64_t served = 0, shed = 0, cache_hits = 0, cache_misses = 0,
                cache_invalidations = 0;
  std::uint64_t tcp_bytes = 0;
  double handler_ms_p50 = 0.0;
  double announce_handler_ms_p50 = 0.0;
};

struct TracedClient;

/// Drives light clients and the feeder against a running fleet, one serve
/// segment per Cycle call.
class ServeLoad {
 public:
  ServeLoad(Fleet& fleet, const ServeInputs& in, ServeConfig cfg);
  ~ServeLoad();
  ServeLoad(const ServeLoad&) = delete;
  ServeLoad& operator=(const ServeLoad&) = delete;

  /// One serve segment: while the feeder announces the next certified blocks
  /// to both shards at its cadence, an open-loop round replays the phase-1
  /// draws at the offered rate, then a closed-loop burst runs `burst_s`.
  void Cycle(double burst_s);

  /// Collects the layer counters; call once, after the last Cycle.
  ServeResult Finish();

 private:
  /// Sends draw `idx` from worker `w` and checks the verified answer against
  /// the ground truth.
  bool Query(std::size_t idx, std::size_t w, bool trace);
  void NoteError(const std::string& e);

  Fleet& fleet_;
  const ServeInputs& in_;
  ServeConfig cfg_;
  std::vector<QueryDraw> draws_;
  Hash256 measurement_;
  /// Every window ends here, at the initial chain's tip, so a draw's answer
  /// and its work are the same in every round however far the feed has got.
  std::uint64_t window_tip_;
  std::vector<std::unique_ptr<fleet::FleetClient>> clients_;
  std::vector<std::unique_ptr<TracedClient>> traced_;
  std::vector<std::unique_ptr<svc::SpClient>> feed_clients_;
  std::size_t next_feed_ = 0;
  std::size_t next_burst_draw_ = 0;
  std::atomic<std::uint64_t> wrong_{0};
  std::mutex err_mu_;
  ServeResult res_;
  std::vector<svc::SpServerStats> base_stats_;
  obs::MetricsSnapshot base_registry_;
};

/// Accounts the query stream draws from: the smallest power of two larger
/// than the reply cache (8 shards x 256 entries), so the cache cannot hold
/// the working set.
inline constexpr std::size_t kAccounts = 4096;
/// YCSB's default Zipfian constant (Cooper et al., SoCC 2010).
inline constexpr double kZipfS = 0.99;

}  // namespace dcert::perfbench

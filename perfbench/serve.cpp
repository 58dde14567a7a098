#include "serve.h"

#include <cmath>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "dcert/enclave_program.h"
#include "dcert/superlight.h"
#include "fleet/fleet_client.h"
#include "obs/metrics.h"
#include "svc/sp_client.h"

namespace dcert::perfbench {

/// One light client sending queries through the layer calls FleetClient
/// makes (FleetClient::QueryReplica), each call in its own span.
struct TracedClient {
  std::vector<std::unique_ptr<svc::SpClient>> shards;
  SpanLog log;
  std::vector<double> proof_kb;
  std::uint64_t verify_failures = 0;
};

namespace {

fleet::ShardMap MakeMap() {
  fleet::ShardMapConfig mc;
  mc.version = 1;
  mc.key_shards = kShards;
  auto map = fleet::ShardMap::Create(mc);
  if (!map.ok()) throw std::runtime_error("shard map: " + map.message());
  return std::move(map.value());
}

svc::Connector Dial(std::uint16_t port) {
  return [port] { return svc::TcpClientTransport::Connect("127.0.0.1", port); };
}

/// A merged, verified answer: versions for a historical window, the summed
/// aggregate for an aggregate query.
struct Answer {
  std::vector<query::HistoricalVersion> versions;
  mht::MbAggregate aggregate;
};

Result<Answer> TracedQuery(const fleet::ShardMap& map, TracedClient& tc,
                           const Hash256& measurement, std::uint64_t trace,
                           bool aggregate, std::uint64_t account,
                           std::uint64_t from, std::uint64_t to) {
  using R = Result<Answer>;
  SpanLog& log = tc.log;
  ScopedSpan root(log, "fleet.query", trace, 0);
  Answer out;
  double kb = 0.0;
  auto verify_failed = [&tc](const Status& st) {
    ++tc.verify_failures;
    return R(st);
  };
  for (const fleet::ShardMap::SubQuery& sub : map.Split(account, from, to)) {
    svc::SpClient& c = *tc.shards[sub.shard_id];
    bool answered = false;
    for (int race = 0; race < 3 && !answered; ++race) {
      auto reply = [&] {
        ScopedSpan s(log, "svc.query_rtt", trace, root.id());
        return aggregate ? c.AggregateSharded(map.Version(), sub.shard_id, account,
                                              sub.from_height, sub.to_height)
                         : c.HistoricalSharded(map.Version(), sub.shard_id, account,
                                               sub.from_height, sub.to_height);
      }();
      if (!reply.ok()) return R(reply.status());
      kb += static_cast<double>(reply.value().proof.Serialize().size()) / 1024.0;
      auto tip = [&] {
        ScopedSpan s(log, "svc.tip_rtt", trace, root.id());
        return c.FetchTipSharded(map.Version(), sub.shard_id);
      }();
      if (!tip.ok()) return R(tip.status());
      const svc::TipInfo& t = tip.value();
      if (t.header.height != reply.value().tip_height) continue;  // raced a block
      {
        ScopedSpan s(log, "dcert.cert_validate", trace, root.id());
        core::SuperlightClient verifier(measurement);
        if (Status st = verifier.ValidateAndAccept(t.header, t.block_cert); !st) {
          return verify_failed(st);
        }
        if (Status st = verifier.AcceptIndexCert(t.header, t.index_cert,
                                                 t.index_digest, "historical");
            !st) {
          return verify_failed(st);
        }
      }
      ScopedSpan s(log, "query.proof_verify", trace, root.id());
      if (aggregate) {
        auto agg = query::HistoricalIndex::VerifyAggregateQuery(
            t.index_digest, account, sub.from_height, sub.to_height,
            reply.value().proof);
        if (!agg.ok()) return verify_failed(agg.status());
        out.aggregate += agg.value();
      } else {
        auto versions = query::HistoricalIndex::VerifyQuery(
            t.index_digest, account, sub.from_height, sub.to_height,
            reply.value().proof);
        if (!versions.ok()) return verify_failed(versions.status());
        out.versions.insert(out.versions.end(), versions.value().begin(),
                            versions.value().end());
      }
      answered = true;
    }
    if (!answered) return R::Error("tip kept advancing during query");
  }
  tc.proof_kb.push_back(kb);
  return out;
}

/// Phase-2 draws, cycled; distinct from the phase-1 round's draws.
constexpr std::size_t kBurstDraws = 1 << 16;

std::uint64_t RegistryCounter(const obs::MetricsSnapshot& s, const char* name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

obs::HistogramSnapshot RegistryHistogram(const obs::MetricsSnapshot& s,
                                         const char* name) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? obs::HistogramSnapshot{} : it->second;
}

}  // namespace

Fleet::Fleet(const ServeInputs& in, std::size_t sp_workers) : map_(MakeMap()) {
  for (std::uint32_t shard = 0; shard < kShards; ++shard) {
    svc::SpServerConfig config;
    config.workers = sp_workers;
    config.shard = map_.AssignmentFor(shard);
    config.shard_map = map_.Serialize();
    tcp_.push_back(std::make_unique<svc::TcpServerTransport>(0));
    servers_.push_back(std::make_unique<svc::SpServer>(config));
    if (Status st = servers_.back()->Serve(*tcp_.back()); !st) {
      throw std::runtime_error("serve: " + st.message());
    }
    for (const svc::AnnounceRequest& ann : in.initial) {
      if (Status st = servers_.back()->Announce(ann); !st) {
        throw std::runtime_error("initial announce: " + st.message());
      }
    }
  }
}

ServeLoad::ServeLoad(Fleet& fleet, const ServeInputs& in, ServeConfig cfg)
    : fleet_(fleet),
      in_(in),
      cfg_(cfg),
      draws_(MakeQueryStream(cfg.round_queries + kBurstDraws, kAccounts, kZipfS,
                             cfg.seed)),
      measurement_(core::ExpectedEnclaveMeasurement()),
      window_tip_(in.initial.back().block.header.height) {
  auto backends = [&fleet](std::uint32_t shard, std::uint32_t) {
    return Dial(fleet.Port(shard));
  };
  for (std::size_t w = 0; w < cfg_.workers; ++w) {
    clients_.push_back(std::make_unique<fleet::FleetClient>(fleet.Map(), backends));
    traced_.push_back(std::make_unique<TracedClient>());
    for (std::uint32_t shard = 0; shard < kShards; ++shard) {
      traced_.back()->shards.push_back(std::make_unique<svc::SpClient>(
          Dial(fleet.Port(shard)), svc::RetryPolicy{}));
    }
  }
  for (std::uint32_t shard = 0; shard < kShards; ++shard) {
    feed_clients_.push_back(
        std::make_unique<svc::SpClient>(Dial(fleet.Port(shard)), svc::RetryPolicy{}));
    base_stats_.push_back(fleet.Server(shard).Stats());
  }
  base_registry_ = obs::MetricsRegistry::Global().Snapshot();
}

ServeLoad::~ServeLoad() = default;

void ServeLoad::NoteError(const std::string& e) {
  std::lock_guard<std::mutex> lk(err_mu_);
  if (res_.error.empty()) res_.error = e;
}

bool ServeLoad::Query(std::size_t idx, std::size_t w, bool trace) {
  const QueryDraw& q = draws_[idx];
  const auto [from, to] = Window(q.kind, window_tip_);
  const std::uint64_t account = in_.account_words[q.rank];
  const bool aggregate = q.kind == QueryKind::kAggregate;
  auto fail = [&](const Status& st) {
    NoteError("query: " + st.message());
    return false;
  };
  Answer got;
  if (trace) {
    // Draws repeat every round; the trace id must not.
    const std::uint64_t trace_id = res_.rounds.size() * cfg_.round_queries + idx;
    auto r = TracedQuery(fleet_.Map(), *traced_[w], measurement_, trace_id, aggregate,
                         account, from, to);
    if (!r.ok()) return fail(r.status());
    got = std::move(r.value());
  } else if (aggregate) {
    auto r = clients_[w]->Aggregate(account, from, to);
    if (!r.ok()) return fail(r.status());
    got.aggregate = r.value();
  } else {
    auto r = clients_[w]->Historical(account, from, to);
    if (!r.ok()) return fail(r.status());
    got.versions = std::move(r.value());
  }
  bool right;
  if (aggregate) {
    const mht::MbAggregate want = in_.truth.Aggregate(account, from, to);
    right = got.aggregate.count == want.count && got.aggregate.sum == want.sum;
  } else {
    right = got.versions == in_.truth.Versions(account, from, to);
  }
  if (!right) {
    wrong_.fetch_add(1);
    NoteError("wrong answer for account " + std::to_string(account));
  }
  return right;
}

void ServeLoad::Cycle(double burst_s) {
  std::mutex stop_mu;
  std::condition_variable stop_cv;
  bool stop = false;
  // Each segment shifts the feeder's phase (golden-ratio steps), so an
  // announcement does not hit the same draws of the replayed round every time.
  const double phase = std::fmod(0.6180339887 * static_cast<double>(res_.rounds.size()), 1.0);
  std::thread feeder([&] {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t j = 0; next_feed_ < in_.feed.size(); ++j) {
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(
                       kFeedIntervalMs * (static_cast<double>(j) + phase)));
      {
        std::unique_lock<std::mutex> lk(stop_mu);
        if (stop_cv.wait_until(lk, due, [&] { return stop; })) return;
      }
      const svc::AnnounceRequest& ann = in_.feed[next_feed_++];
      const Clock::time_point sent = Clock::now();
      bool ok = true;
      for (auto& c : feed_clients_) {
        if (auto r = c->Announce(ann); !r.ok()) {
          ok = false;
          NoteError("announce: " + r.message());
        }
      }
      ++res_.announced;
      if (!ok) {
        ++res_.announce_failed;
        next_feed_ = in_.feed.size();  // later blocks cannot extend the tip
        return;
      }
      res_.ingest_ms.push_back(MsBetween(sent, Clock::now()));
    }
  });

  res_.rounds.push_back(RunOpenLoop(
      cfg_.round_queries, kPhase1Rate, cfg_.workers,
      [&](std::size_t i, std::size_t w) { return Query(i, w, cfg_.trace && i % 2 == 1); }));

  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> ok{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(burst_s));
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < cfg_.workers; ++w) {
    threads.emplace_back([&, w] {
      while (Clock::now() < end) {
        const std::size_t k = (next_burst_draw_ + next.fetch_add(1)) % kBurstDraws;
        if (Query(cfg_.round_queries + k, w, false)) ok.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  res_.burst_qps.push_back(static_cast<double>(ok.load()) /
                           (MsBetween(start, Clock::now()) / 1e3));
  res_.burst_attempted += next.load();
  res_.burst_ok += ok.load();
  next_burst_draw_ += next.load();

  {
    std::lock_guard<std::mutex> lk(stop_mu);
    stop = true;
  }
  stop_cv.notify_all();
  feeder.join();
}

ServeResult ServeLoad::Finish() {
  res_.wrong_answers = wrong_.load();
  for (const auto& c : clients_) {
    const fleet::FleetClientStats s = c->Stats();
    res_.queries += s.queries;
    res_.subqueries += s.subqueries;
    res_.failovers += s.failovers;
    res_.verify_failures += s.verify_failures;
  }
  for (const auto& tc : traced_) {
    res_.spans.Append(tc->log);
    res_.proof_kb.insert(res_.proof_kb.end(), tc->proof_kb.begin(), tc->proof_kb.end());
    res_.verify_failures += tc->verify_failures;
  }
  for (std::uint32_t shard = 0; shard < kShards; ++shard) {
    const svc::SpServerStats& before = base_stats_[shard];
    const svc::SpServerStats after = fleet_.Server(shard).Stats();
    res_.served += after.served - before.served;
    res_.shed += after.shed - before.shed;
    res_.cache_hits += after.cache.hits - before.cache.hits;
    res_.cache_misses += after.cache.misses - before.cache.misses;
    res_.cache_invalidations += after.cache.invalidations - before.cache.invalidations;
  }
  // Server latency histograms are registered by name, so the registry holds
  // the most recently started shard's.
  const obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Global().Snapshot().DeltaFrom(base_registry_);
  res_.tcp_bytes = RegistryCounter(delta, "net.tcp.bytes_in");
  res_.handler_ms_p50 =
      RegistryHistogram(delta, "svc.latency.historical_ns")
          .MergedWith(RegistryHistogram(delta, "svc.latency.aggregate_ns"))
          .Quantile(0.5) / 1e6;
  res_.announce_handler_ms_p50 =
      RegistryHistogram(delta, "svc.latency.announce_ns").Quantile(0.5) / 1e6;
  return std::move(res_);
}

}  // namespace dcert::perfbench

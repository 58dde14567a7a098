// The DCert benchmark program. One run sets the system up several times
// (timing each set-up), certifies blocks through the deployed issuer, then
// serves verified queries from a 2-shard SP fleet while certified blocks keep
// arriving, and prints one JSON result line. See NOTES.md for the workloads,
// the metrics and what each layer metric should move.
//
//   dcert_perfbench --workload <certify_sb|certify_io>
//                   --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//                   [--src-digest <hex>]
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <future>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "certify.h"
#include "common/build_info.h"
#include "common/thread_pool.h"
#include "crypto/sha256_batch.h"
#include "harness.h"
#include "inputs.h"
#include "serve.h"

using namespace dcert;
using namespace dcert::perfbench;

namespace {

/// The block mix a workload's issuer certifies. Every run reports every
/// end-to-end metric, so both workloads also run the same serve phase.
struct Plan {
  workloads::Workload certify_kind;
  std::size_t block_txs;
};

std::optional<Plan> PlanFor(const std::string& workload) {
  using workloads::Workload;
  // Block sizes put a block near 11 ms on a 4-core Xeon host for both
  // workloads (8 SmallBank txs, or 2 IOHeavy txs of 32 keys each).
  if (workload == "certify_sb") return Plan{Workload::kSmallBank, 8};
  if (workload == "certify_io") return Plan{Workload::kIoHeavy, 2};
  return std::nullopt;
}

// Fixed sizes, recorded in every result.
constexpr std::size_t kSetups = 3;
// The run alternates a certify and a serve segment `kCycles` times, so every
// kind of measurement is spread over the whole run. Certify gets
// kCertifyShare of the run, the phase-2 bursts kBurstShare, phase 1 the rest.
constexpr std::size_t kCycles = 10;
constexpr double kCertifyShare = 0.35;
constexpr double kBurstShare = 0.2;
// 100 distinct blocks give p90 its ten blocks beyond.
constexpr std::size_t kEpochBlocks = 100;
// The queried history: 60 blocks, so a full-history window is three recent
// windows long. Every serve block, queried or fed, carries 4 puts; set-up
// time grows with the number of puts it pre-certifies.
constexpr std::size_t kServeInitialBlocks = 60;
constexpr std::size_t kServeBlockTxs = 4;
constexpr std::size_t kSpWorkers = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string workdir;
  std::string src_digest = "unknown";
};

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--workdir") a.workdir = v;
    else if (k == "--src-digest") a.src_digest = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (a.workdir.empty()) throw std::invalid_argument("--workdir is required");
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
  return a;
}

struct Setup {
  CertifyInputs certify;
  ServeInputs serve;
  std::unique_ptr<Fleet> fleet;
};

/// Mining + pre-certifying both fixtures (concurrently: they are independent)
/// and starting the fleet with the initial chain announced.
std::unique_ptr<Setup> DoSetup(const Plan& plan, std::size_t feed_blocks,
                               std::uint64_t seed) {
  auto certify = std::async(std::launch::async, [&] {
    return MakeCertifyInputs(plan.certify_kind, kEpochBlocks, plan.block_txs, seed);
  });
  auto s = std::make_unique<Setup>();
  s->serve = MakeServeInputs(kServeInitialBlocks, feed_blocks, kServeBlockTxs, kAccounts,
                             kZipfS, seed);
  s->certify = certify.get();
  s->fleet = std::make_unique<Fleet>(s->serve, kSpWorkers);
  return s;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Metrics of the result line, in insertion order.
class Metrics {
 public:
  void Put(const std::string& name, double value, const std::string& unit) {
    rows_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      char buf[128];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", rows_[i].name.c_str(), rows_[i].value,
                    rows_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }
  void Print() const {
    for (const Row& r : rows_) {
      std::printf("  %-30s %14.4f %s\n", r.name.c_str(), r.value, r.unit.c_str());
    }
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

/// A statistic the run could not support (too few samples for its
/// percentile) fails the run instead of reporting a made-up value.
double Need(std::optional<double> v, const char* what) {
  if (!v) throw std::runtime_error(std::string(what) + ": too few samples");
  return *v;
}

double Mean(const std::vector<double>& xs) {
  double sum = 0.0;
  for (double x : xs) sum += x;
  return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

void PutCertifyLayers(Metrics& m, const CertifyResult& c) {
  const auto self = SelfTimesByName(c.spans.Spans());
  auto med = [&](const char* span) {
    const auto it = self.find(span);
    return it == self.end() ? 0.0 : Median(it->second);
  };
  const double rwset = med("chain.rwset"), proof = med("mht.proof"),
               enclave = med("sgxsim.enclave"), commit = med("chain.commit"),
               durable = med("ckpt.certify_block");
  m.Put("chain.rwset_ms", rwset, "ms");
  m.Put("mht.proof_ms", proof, "ms");
  m.Put("sgxsim.enclave_ms", enclave, "ms");
  m.Put("sgxsim.enclave_modeled_ms", Median(c.enclave_modeled_ms), "ms");
  m.Put("chain.commit_ms", commit, "ms");
  m.Put("ckpt.durable_ms", durable, "ms");
  // What the per-stage medians leave of the traced per-block median.
  const double traced = Median(RootDurations(c.spans.Spans(), "ckpt.certify_block"));
  m.Put("certify.leftover_ms", traced - (rwset + proof + enclave + commit + durable), "ms");
  m.Put("certify.traced_block_ms", traced, "ms");
  const double blocks = static_cast<double>(std::max<std::size_t>(1, c.block_ms.size()));
  auto per_block = [&](const char* counter, double scale) {
    const auto it = c.counter_deltas.find(counter);
    return it == c.counter_deltas.end()
               ? 0.0
               : static_cast<double>(it->second) / scale / blocks;
  };
  m.Put("ckpt.seals", per_block("ci.ckpt.written", 1), "count/block");
  m.Put("ckpt.bytes_written", per_block("ci.ckpt.bytes_written", 1024), "kB/block");
  m.Put("sgxsim.ecalls", per_block("sgx.ecalls", 1), "count/block");
  m.Put("sgxsim.ecall_input_kb", per_block("sgx.ecall_input_bytes", 1024), "kB/block");
  m.Put("sgxsim.epc_pages_evicted", per_block("sgx.epc.pages_evicted", 1), "count/block");
  m.Put("common.pool_tasks", per_block("common.pool.tasks_executed", 1), "count/block");
}

void PutServeLayers(Metrics& m, const ServeResult& s) {
  const auto self = SelfTimesByName(s.spans.Spans());
  auto med = [&](const char* span) {
    const auto it = self.find(span);
    return it == self.end() ? 0.0 : Median(it->second);
  };
  const double validate = med("dcert.cert_validate"), tip = med("svc.tip_rtt"),
               rtt = med("svc.query_rtt"), verify = med("query.proof_verify"),
               fleet_self = med("fleet.query");
  m.Put("dcert.cert_validate_ms", validate, "ms");
  m.Put("svc.tip_rtt_ms", tip, "ms");
  m.Put("svc.query_rtt_ms", rtt, "ms");
  m.Put("query.proof_verify_ms", verify, "ms");
  m.Put("query.proof_kb", Median(s.proof_kb), "kB");
  m.Put("fleet.traced_self_ms", fleet_self, "ms");
  // What the per-layer medians leave of the traced per-query median.
  const double traced = Median(RootDurations(s.spans.Spans(), "fleet.query"));
  m.Put("serve.leftover_ms", traced - (validate + tip + rtt + verify + fleet_self), "ms");
  m.Put("serve.traced_query_ms", traced, "ms");
  // Even-numbered phase-1 queries went through FleetClient untraced.
  std::vector<double> untraced, late;
  for (const std::vector<OpenLoopSample>& round : s.rounds) {
    for (std::size_t i = 0; i < round.size(); ++i) {
      late.push_back(round[i].late_ms);
      if (i % 2 == 0 && round[i].ok) untraced.push_back(round[i].service_ms);
    }
  }
  m.Put("fleet.residual_ms", Median(untraced) - (validate + tip + rtt + verify), "ms");
  m.Put("svc.handler_ms_p50", s.handler_ms_p50, "ms");
  const double lookups = static_cast<double>(s.cache_hits + s.cache_misses);
  m.Put("svc.cache_hit_ratio", lookups > 0 ? s.cache_hits / lookups : 0.0, "ratio");
  m.Put("svc.cache_hits", static_cast<double>(s.cache_hits), "count");
  m.Put("svc.cache_misses", static_cast<double>(s.cache_misses), "count");
  m.Put("svc.cache_invalidations", static_cast<double>(s.cache_invalidations), "count");
  const double admitted = static_cast<double>(s.served + s.shed);
  m.Put("svc.shed_ratio", admitted > 0 ? s.shed / admitted : 0.0, "ratio");
  m.Put("svc.announce_ms", s.announce_handler_ms_p50, "ms");
  const double queries = static_cast<double>(std::max<std::uint64_t>(1, s.queries));
  m.Put("fleet.subqueries_per_query", s.subqueries / queries, "ratio");
  m.Put("fleet.failovers", static_cast<double>(s.failovers), "count");
  m.Put("fleet.verify_failures", static_cast<double>(s.verify_failures), "count");
  // Wire bytes include the feeder's announcements.
  m.Put("net.tcp_kb_per_query",
        s.tcp_bytes / 1024.0 / static_cast<double>(late.size() + s.burst_attempted),
        "kB/query");
  m.Put("gen.late_ms_p99", Need(Percentile(late, 0.99), "gen.late_ms_p99"), "ms");
}

/// End-to-end metrics. Certify statistics are over each fixture block's
/// fastest certification, query latencies over each phase-1 draw's fastest
/// round (see Repetitions in harness.h). Capacity and ingest have no
/// repeated items: capacity is the best burst, and ingest pools all
/// announcements.
void PutEndToEnd(Metrics& m, const Plan& plan, const std::vector<double>& setup_s,
                 const CertifyResult& cert, const ServeResult& serve) {
  m.Put("setup_s", Median(setup_s), "s");
  m.Put("peak_rss_mb", PeakRssMb(), "MB");
  const std::vector<double> blocks = MinPerItem(cert.block_ms, cert.block_idx);
  // Seal and compaction blocks are in the mean: they run inside CertifyBlock.
  m.Put("cert_tx_per_s", 1e3 * static_cast<double>(plan.block_txs) / Mean(blocks),
        "tx/s");
  m.Put("cert_block_ms_p50", Median(blocks), "ms");
  m.Put("cert_block_ms_p90", Need(Percentile(blocks, 0.9), "cert_block_ms_p90"), "ms");
  std::vector<double> latency;
  std::vector<std::size_t> draw;
  for (const std::vector<OpenLoopSample>& round : serve.rounds) {
    for (std::size_t i = 0; i < round.size(); ++i) {
      if (!round[i].ok) continue;
      latency.push_back(round[i].latency_ms);
      draw.push_back(i);
    }
  }
  const std::vector<double> queries = MinPerItem(latency, draw);
  m.Put("query_ms_p50", Median(queries), "ms");
  m.Put("query_ms_p99", Need(Percentile(queries, 0.99), "query_ms_p99"), "ms");
  m.Put("query_sat_qps", *std::max_element(serve.burst_qps.begin(), serve.burst_qps.end()),
        "q/s");
  m.Put("ingest_ms_p50", Need(Percentile(serve.ingest_ms, 0.5), "ingest_ms_p50"), "ms");
}

int Run(const Args& args) {
  const std::optional<Plan> plan = PlanFor(args.workload);
  if (!plan) throw std::invalid_argument("unknown workload " + args.workload);
  // Light-client threads plus the feeder fill the host's cores.
  const std::size_t workers = std::max(2u, std::thread::hardware_concurrency()) - 1;
  const double cycles = static_cast<double>(kCycles);
  // Every round replays the same draws, at least the 1000 a p99 needs.
  const double phase1_share = 1.0 - kCertifyShare - kBurstShare;
  const std::size_t round_queries = std::max(
      MinSamplesFor(0.99),
      static_cast<std::size_t>(kPhase1Rate * phase1_share * args.seconds / cycles));
  const double burst_s = kBurstShare * args.seconds / cycles;
  // Enough blocks for the feeder to announce through every serve segment,
  // with room for the rounds to run long on a slow host.
  const double serve_s = cycles * (static_cast<double>(round_queries) / kPhase1Rate + burst_s);
  const auto feed_blocks =
      static_cast<std::size_t>(std::ceil(1.25 * serve_s * 1000.0 / kFeedIntervalMs));

  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (std::size_t r = 0; r < kSetups; ++r) {
    setup.reset();
    const Clock::time_point t0 = Clock::now();
    setup = DoSetup(*plan, feed_blocks, args.seed);
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
  }

  CertifyConfig cc;
  cc.dir = args.workdir;
  cc.trace = args.trace;
  const ServeConfig sc{.round_queries = round_queries, .workers = workers,
                       .trace = args.trace, .seed = args.seed};

  CertifyResult cert;
  ServeResult serve;
  {
    ServeLoad load(*setup->fleet, setup->serve, sc);
    for (std::size_t c = 0; c < kCycles && cert.correct; ++c) {
      CertifyEpochs(setup->certify, cc, kCertifyShare * args.seconds / cycles, cert);
      load.Cycle(burst_s);
    }
    serve = load.Finish();
  }
  setup.reset();

  std::uint64_t attempted = cert.block_ms.size() + cert.failed + serve.burst_attempted +
                            serve.announced;
  std::uint64_t failed = cert.failed + (serve.burst_attempted - serve.burst_ok) +
                         serve.announce_failed;
  for (const std::vector<OpenLoopSample>& round : serve.rounds) {
    attempted += round.size();
    for (const OpenLoopSample& x : round) failed += x.ok ? 0 : 1;
  }
  const bool correct = cert.correct && serve.wrong_answers == 0 &&
                       serve.verify_failures == 0;

  Metrics m;
  if (!correct) {
    // No metrics from a run whose outputs were wrong.
  } else if (!args.trace) {
    PutEndToEnd(m, *plan, setup_s, cert, serve);
  } else {
    PutCertifyLayers(m, cert);
    PutServeLayers(m, serve);
  }

  std::printf("workload %s seed %llu trace %d: %zu blocks certified (%llu epochs "
              "of %zu), %zu rounds of %zu queries, %llu burst queries, "
              "%llu announcements; %llu attempted, %llu failed\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, cert.block_ms.size(),
              static_cast<unsigned long long>(cert.epochs), kEpochBlocks,
              serve.rounds.size(), round_queries,
              static_cast<unsigned long long>(serve.burst_attempted),
              static_cast<unsigned long long>(serve.announced),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  m.Print();
  if (!cert.error.empty()) std::printf("certify error: %s\n", cert.error.c_str());
  if (!serve.error.empty()) std::printf("serve error: %s\n", serve.error.c_str());
  std::printf(
      "meta {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"host_cores\": %u, "
      "\"sha_batch_backend\": \"%s\", \"sha_stream_backend\": \"%s\", "
      "\"sp_workers\": %zu, \"shared_pool_workers\": %zu, \"light_client_threads\": %zu, "
      "\"flush_policy\": \"write per append, no fsync\", \"ckpt_interval\": %llu, "
      "\"epoch_blocks\": %zu, \"block_txs\": %zu, \"cycles\": %zu, "
      "\"phase1_rate_qps\": %g, \"round_queries\": %zu, \"burst_s\": %g, "
      "\"feed_interval_ms\": %g, \"serve_block_txs\": %zu, \"setup_runs\": %zu, "
      "\"git_sha\": \"%s\", \"build_type\": \"%s\", \"src_digest\": \"%s\", "
      "\"cert_digest\": \"%s\", \"wrong_answers\": %llu}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
      std::thread::hardware_concurrency(),
      crypto::ShaBackendName(crypto::ActiveBatchBackend()),
      crypto::ShaBackendName(crypto::ActiveStreamBackend()), kSpWorkers,
      common::ThreadPool::Shared().WorkerCount(), workers,
      static_cast<unsigned long long>(kCkptInterval), kEpochBlocks, plan->block_txs,
      kCycles, kPhase1Rate, round_queries, burst_s, kFeedIntervalMs, kServeBlockTxs,
      kSetups, common::GitSha().c_str(), common::BuildType().c_str(),
      args.src_digest.c_str(), CertDigest(cert).ToHex().c_str(),
      static_cast<unsigned long long>(serve.wrong_answers));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(Parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dcert_perfbench: %s\n", e.what());
    return 2;
  }
}

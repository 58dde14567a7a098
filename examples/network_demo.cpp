// The full DCert workflow (paper Fig. 2) over the SP serving protocol: a
// miner proposes KVStore blocks; an SGX-enabled Certificate
// Issuer certifies each block and its historical index (hierarchical
// scheme); every certified block is announced to a Query Service Provider
// over the wire; two superlight clients follow the SP's certified tip and
// verify a historical query against the certified index digest. Every hop
// crosses the in-process loopback transport as encoded frames, so the SP and
// the transport stay untrusted exactly as over TCP.
#include <cstdio>

#include "chain/node.h"
#include "dcert/issuer.h"
#include "dcert/superlight.h"
#include "query/historical_index.h"
#include "svc/sp_client.h"
#include "svc/sp_server.h"
#include "svc/transport.h"
#include "workloads/workloads.h"

using namespace dcert;

namespace {

/// A superlight client that trusts nothing but certificates: it fetches the
/// SP's tip and validates the block and index certificates itself.
bool FollowTip(svc::SpClient& sp, core::SuperlightClient& client) {
  auto tip = sp.FetchTip();
  if (!tip.ok()) return false;
  const svc::TipInfo& t = tip.value();
  if (client.HasState() && t.header.height <= client.Height()) return true;
  return client.ValidateAndAccept(t.header, t.block_cert).ok() &&
         client.AcceptIndexCert(t.header, t.index_cert, t.index_digest,
                                "historical")
             .ok();
}

}  // namespace

int main() {
  chain::ChainConfig config;
  config.difficulty_bits = 6;
  auto registry = workloads::MakeBlockbenchRegistry(2);

  chain::FullNode miner_node(config, registry);
  chain::Miner miner(miner_node);
  workloads::AccountPool accounts(16, 2022);
  workloads::WorkloadGenerator::Params params;
  params.kind = workloads::Workload::kKvStore;
  params.instances_per_workload = 2;
  params.kv_keys = 12;
  workloads::WorkloadGenerator gen(params, accounts);

  core::CertificateIssuer ci(config, registry);
  auto ci_index = std::make_shared<query::HistoricalIndex>("historical");
  ci.AttachIndex(ci_index);

  svc::SpServer sp(svc::SpServerConfig{});
  svc::LoopbackTransport wire;
  if (Status st = sp.Serve(wire); !st) {
    std::fprintf(stderr, "serve: %s\n", st.message().c_str());
    return 1;
  }
  svc::SpClient ci_link(wire.Connect());
  svc::SpClient alice_link(wire.Connect());
  svc::SpClient bob_link(wire.Connect());
  core::SuperlightClient alice(core::ExpectedEnclaveMeasurement());
  core::SuperlightClient bob(core::ExpectedEnclaveMeasurement());

  // Forty blocks: mine, certify block + index, announce, let alice follow
  // every tip and bob every tenth.
  constexpr int kBlocks = 40;
  for (int i = 0; i < kBlocks; ++i) {
    auto block = miner.MineBlock(gen.NextBlockTxs(15), 1700000000 + i * 15);
    if (!block.ok() || !miner_node.SubmitBlock(block.value())) return 1;
    auto index_certs = ci.ProcessBlockHierarchical(block.value());
    if (!index_certs.ok()) {
      std::fprintf(stderr, "certify: %s\n", index_certs.message().c_str());
      return 1;
    }
    svc::AnnounceRequest ann;
    ann.block = block.value();
    ann.block_cert = *ci.LatestCert();
    ann.index_digest = ci_index->CurrentDigest();
    ann.index_cert = index_certs.value()[0];
    if (auto acked = ci_link.Announce(ann); !acked.ok()) {
      std::fprintf(stderr, "announce: %s\n", acked.message().c_str());
      return 1;
    }
    if (!FollowTip(alice_link, alice)) return 1;
    if ((i + 1) % 10 == 0 && !FollowTip(bob_link, bob)) return 1;
  }

  // A verified historical query: the reply's proof must check out against
  // the index digest alice accepted from the certificates.
  const std::uint64_t tip = alice.Height();
  constexpr std::uint64_t account = 3;  // a KVStore key the workload writes
  auto reply = alice_link.Historical(account, 1, tip);
  if (!reply.ok()) {
    std::fprintf(stderr, "query: %s\n", reply.message().c_str());
    return 1;
  }
  auto versions = query::HistoricalIndex::VerifyQuery(
      *alice.CertifiedIndexDigest("historical"), account, 1, tip,
      reply.value().proof);

  const svc::SpServerStats stats = sp.Stats();
  std::printf("miner proposed:        %d blocks\n", kBlocks);
  std::printf("CI height:             %llu\n",
              static_cast<unsigned long long>(ci.Node().Height()));
  std::printf("SP applied:            %llu blocks (rejected %llu), served %llu\n",
              static_cast<unsigned long long>(stats.blocks_applied),
              static_cast<unsigned long long>(stats.announce_rejected),
              static_cast<unsigned long long>(stats.served));
  std::printf("alice height:          %llu, storage %zu bytes\n",
              static_cast<unsigned long long>(alice.Height()),
              alice.StorageBytes());
  std::printf("bob height:            %llu, report checks %llu\n",
              static_cast<unsigned long long>(bob.Height()),
              static_cast<unsigned long long>(bob.ReportVerifications()));
  if (versions.ok()) {
    std::printf("account %llu over [1, %llu]: %zu verified versions "
                "(proof %zu bytes)\n",
                static_cast<unsigned long long>(account),
                static_cast<unsigned long long>(tip), versions.value().size(),
                reply.value().proof.ByteSize());
  }
  sp.Shutdown();

  const bool healthy = versions.ok() && alice.Height() == ci.Node().Height() &&
                       bob.Height() == ci.Node().Height() &&
                       stats.announce_rejected == 0;
  std::printf("\n%s\n", healthy ? "workflow healthy: clients tracked the chain "
                                  "and verified a query from certificates alone"
                                : "WORKFLOW UNHEALTHY");
  return healthy ? 0 : 1;
}

#include "certify.h"

#include <filesystem>

#include "ckpt/checkpointed_issuer.h"
#include "crypto/sha256.h"
#include "dcert/enclave_program.h"
#include "dcert/superlight.h"
#include "obs/metrics.h"

namespace dcert::perfbench {

namespace {

std::vector<std::uint64_t> ReadCounters() {
  std::vector<std::uint64_t> out;
  for (const char* name : kCertifyCounters) {
    out.push_back(obs::MetricsRegistry::Global().GetCounter(name)->Value());
  }
  return out;
}

/// The issuer's stage timers run serially inside one CertifyBlock call, so
/// laying their spans end to end from the call's start covers exactly their
/// summed time; the root's self time is then everything else the call did
/// (logs, shadow index, seal, compaction).
void AddStageSpans(SpanLog& log, std::uint64_t trace, Clock::time_point start,
                   Clock::time_point end, const core::CertTiming& t) {
  Span root;
  root.name = "ckpt.certify_block";
  root.trace = trace;
  root.start = start;
  root.end = end;
  log.Add(root);
  const std::uint32_t root_id = log.Spans().back().id;
  Clock::time_point at = start;
  const std::pair<const char*, std::uint64_t> stages[] = {
      {"chain.rwset", t.rwset_ns},
      {"mht.proof", t.proof_ns},
      {"sgxsim.enclave", t.enclave_wall_ns},
      {"chain.commit", t.commit_ns}};
  for (const auto& [name, ns] : stages) {
    Span s;
    s.name = name;
    s.trace = trace;
    s.parent = root_id;
    s.start = at;
    at += std::chrono::nanoseconds(ns);
    s.end = at;
    log.Add(s);
  }
}

}  // namespace

void CertifyEpochs(const CertifyInputs& in, const CertifyConfig& cfg,
                   double budget_s, CertifyResult& res) {
  const Clock::time_point start = Clock::now();
  double epoch_ms = 0.0;  // the last epoch's wall time
  do {
    const Clock::time_point epoch_start = Clock::now();
    const std::uint64_t epoch = res.epochs;
    const std::string dir = cfg.dir + "/certify-" + std::to_string(epoch);
    std::filesystem::create_directories(dir);
    core::DurableIssuerOptions opts;
    opts.block_log_path = dir + "/blocks.log";
    opts.cert_log_path = dir + "/certs.log";
    opts.sealed_key_path = dir + "/sealed.key";
    opts.fsync_on_append = false;
    opts.segment_records = cfg.segment_records;
    ckpt::CheckpointConfig ck;
    ck.dir = dir + "/ckpt";
    ck.interval = cfg.ckpt_interval;
    auto opened = ckpt::CheckpointedIssuer::Open(in.config, in.registry, opts, ck);
    if (!opened.ok()) {
      res.correct = false;
      res.error = "open issuer: " + opened.message();
      return;
    }
    // Scoped so the issuer closes its logs before the directory goes.
    {
      ckpt::CheckpointedIssuer issuer = std::move(opened.value());
      core::SuperlightClient light(core::ExpectedEnclaveMeasurement());
      for (std::size_t i = 0; i < in.blocks.size() && res.correct; ++i) {
        const chain::Block& blk = in.blocks[i];
        const std::vector<std::uint64_t> before =
            cfg.trace ? ReadCounters() : std::vector<std::uint64_t>{};
        const Clock::time_point t0 = Clock::now();
        const Status st = issuer.CertifyBlock(blk);
        const Clock::time_point t1 = Clock::now();
        if (!st) {
          ++res.failed;
          res.correct = false;
          res.error = "certify block " + std::to_string(i + 1) + ": " + st.message();
          break;
        }
        res.block_ms.push_back(MsBetween(t0, t1));
        res.block_idx.push_back(i);
        const core::CertificateIssuer& ci = issuer.Durable().Issuer();
        if (cfg.trace) {
          const std::vector<std::uint64_t> after = ReadCounters();
          for (std::size_t c = 0; c < after.size(); ++c) {
            res.counter_deltas[kCertifyCounters[c]] += after[c] - before[c];
          }
          AddStageSpans(res.spans, res.block_ms.size(), t0, t1, ci.LastTiming());
          res.enclave_modeled_ms.push_back(
              static_cast<double>(ci.LastTiming().enclave_modeled_ns) / 1e6);
        }

        // Correctness, untimed: a superlight client accepts every
        // certificate in chain order, and every epoch re-issues the first
        // epoch's certificates byte for byte.
        const core::BlockCertificate& cert = *ci.LatestCert();
        if (Status v = light.ValidateAndAccept(blk.header, cert); !v) {
          res.correct = false;
          res.error = "light client rejected block " + std::to_string(i + 1) +
                      ": " + v.message();
          break;
        }
        Bytes bytes = cert.Serialize();
        if (epoch == 0) {
          res.first_epoch.push_back(std::move(bytes));
        } else if (bytes != res.first_epoch[i]) {
          res.correct = false;
          res.error = "certificate " + std::to_string(i + 1) +
                      " differs from the first epoch's";
        }
      }
      if (res.correct &&
          issuer.Durable().Issuer().Node().State().Root() != in.final_root) {
        res.correct = false;
        res.error = "issuer state root differs from the miner's";
      }
    }
    std::filesystem::remove_all(dir);
    ++res.epochs;
    epoch_ms = MsBetween(epoch_start, Clock::now());
    // Start another epoch only if it should end within the budget.
  } while (res.correct && MsBetween(start, Clock::now()) + epoch_ms < budget_s * 1e3);
}

Hash256 CertDigest(const CertifyResult& res) {
  crypto::Sha256 h;
  for (const Bytes& b : res.first_epoch) h.Update(b);
  return h.Finalize();
}

}  // namespace dcert::perfbench

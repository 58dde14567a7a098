// Certify phase: one issuer, deployed as ckpt::CheckpointedIssuer (block and
// certificate logs, checkpoint cadence, log compaction), certifies the
// pre-mined blocks one at a time in a closed loop. Each epoch certifies the
// whole fixture from genesis with a fresh issuer, so every block is
// certified once per epoch and the per-block work does not depend on how
// long the run is.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "harness.h"
#include "inputs.h"

namespace dcert::perfbench {

/// Blocks between sealed checkpoints: with 100-block epochs, 5% of blocks
/// carry a seal.
inline constexpr std::uint64_t kCkptInterval = 20;
/// Records per log segment (compaction drops whole sealed segments).
inline constexpr std::uint64_t kSegmentRecords = 16;

struct CertifyConfig {
  std::uint64_t ckpt_interval = kCkptInterval;
  std::uint64_t segment_records = kSegmentRecords;
  /// Directory for logs and checkpoints; emptied after each epoch.
  std::string dir;
  bool trace = false;
};

struct CertifyResult {
  std::vector<double> block_ms;        // one CertifyBlock call each
  std::vector<std::size_t> block_idx;  // which fixture block it certified
  std::uint64_t failed = 0;
  std::uint64_t epochs = 0;
  bool correct = true;
  std::string error;  // first failure or correctness violation
  /// Serialized certificates of the first epoch, by block.
  std::vector<Bytes> first_epoch;
  /// Traced runs: a root span per block with its stage spans, the modelled
  /// enclave time per block, and registry counter deltas summed over blocks.
  SpanLog spans;
  std::vector<double> enclave_modeled_ms;
  std::map<std::string, std::uint64_t> counter_deltas;
};

/// Certifies whole epochs, appending to `res`: at least one, and more while
/// the next is expected to end within `budget_s`. Stops early once `res`
/// records a failure.
void CertifyEpochs(const CertifyInputs& in, const CertifyConfig& cfg,
                   double budget_s, CertifyResult& res);

/// SHA-256 over the first epoch's certificates.
Hash256 CertDigest(const CertifyResult& res);

/// Registry counters attributed to the certify path in traced runs.
inline const char* const kCertifyCounters[] = {
    "ci.ckpt.written",       "ci.ckpt.bytes_written", "sgx.ecalls",
    "sgx.ecall_input_bytes", "sgx.epc.pages_evicted", "common.pool.tasks_executed"};

}  // namespace dcert::perfbench

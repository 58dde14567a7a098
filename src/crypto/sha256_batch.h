// Multi-buffer SHA-256: hashes many independent messages in one call. On
// AVX2 it fills eight SIMD lanes (transposed rounds); on SHA-NI and scalar it
// walks the jobs one at a time through the single-stream compressor. This is
// the engine behind batched Merkle-node rehashing — every tree in src/mht
// feeds its per-level sibling-pair jobs through HashMany.
//
// Backend selection is resolved once per process from CPU features, with a
// runtime override for testing the fallback paths on any machine:
//   DCERT_FORCE_SHA_BACKEND=scalar|shani|avx2   (scalar = portable everywhere)
// Requesting an unsupported ISA falls back to the best supported backend
// (never to an unsupported one); ActiveBatchBackend()/ActiveStreamBackend()
// report what actually runs.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"

namespace dcert::crypto {

enum class ShaBackend : std::uint8_t {
  kScalar = 0,  // portable C++ (always available)
  kShaNi = 1,   // x86 SHA extensions, one stream at a time
  kAvx2 = 2,    // 8-lane transposed rounds (batch path only)
};

/// Stable lowercase name ("scalar", "shani", "avx2") for logs and JSON.
const char* ShaBackendName(ShaBackend b);

/// True when this CPU can run the backend at all.
bool ShaBackendSupported(ShaBackend b);

/// Backend the multi-buffer batch path (HashMany) uses, after env overrides.
ShaBackend ActiveBatchBackend();

/// Backend the single-stream path (class Sha256) uses, after env overrides.
/// AVX2 has no single-stream advantage, so forcing avx2 affects the batch
/// path only; the stream path then picks the best of SHA-NI/scalar.
ShaBackend ActiveStreamBackend();

/// One independent message to hash. `out` receives the full SHA-256 digest.
struct HashJob {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
  Hash256* out = nullptr;
};

/// Hashes every job (one-shot SHA-256 each) using the active batch backend.
/// Jobs may have arbitrary, differing lengths; the AVX2 backend groups lanes
/// by padded block count internally. Byte-identical to Sha256::Digest per job.
void HashMany(const HashJob* jobs, std::size_t n);

/// One pre-padded message: `blocks` points at m complete 64-byte blocks
/// (message, 0x80 pad, zeros, big-endian bit length already laid out).
/// `out` receives the 32 digest bytes; it may alias the job's own message
/// bytes (a digest feeding the next round of a fold chain) — every input
/// block is fully consumed before any digest is stored.
struct PaddedJob {
  const std::uint8_t* blocks = nullptr;
  std::uint8_t* out = nullptr;
};

/// Hashes n pre-padded messages of identical geometry (m blocks each) on the
/// active batch backend. This is the lowest-overhead entry: the tree layers
/// materialize fixed-shape node messages (65 bytes → m=2, 33 bytes → m=1)
/// straight into padded buffers and skip per-job padding analysis entirely.
void HashPadded(const PaddedJob* jobs, std::size_t n, std::size_t m);

namespace internal {

/// Number of 64-byte blocks the padded message occupies.
inline std::size_t PaddedBlockCount(std::size_t size) {
  return (size + 9 + 63) / 64;
}

/// Runs HashMany on an explicit backend (equivalence tests, per-backend
/// benches). Requesting an unsupported backend throws std::runtime_error.
void HashManyWith(ShaBackend backend, const HashJob* jobs, std::size_t n);

/// Pure resolution logic, exposed for tests: maps an override string
/// ("scalar" / "shani" / "avx2", nullptr/empty = no override) to the backend
/// the named path would use. `batch` selects batch-path (AVX2 eligible) vs
/// stream-path rules. The result is always a supported backend.
ShaBackend ResolveShaBackend(const char* override_name, bool batch);

}  // namespace internal

}  // namespace dcert::crypto

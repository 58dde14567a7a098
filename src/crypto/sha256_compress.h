// Internal: SHA-256 compression-function dispatch. The portable scalar
// implementation always exists; on x86-64 CPUs with the SHA extensions a
// hardware path is selected at runtime (verified against the same NIST
// vectors by the test suite).
#pragma once

#include <cstddef>
#include <cstdint>

namespace dcert::crypto::internal {

/// Compresses `n` consecutive 64-byte blocks into `state`.
using CompressFn = void (*)(std::uint32_t state[8], const std::uint8_t* blocks,
                            std::size_t n);

void CompressScalar(std::uint32_t state[8], const std::uint8_t* blocks,
                    std::size_t n);

/// Hardware (SHA-NI) path; only callable when ShaNiSupported() is true.
void CompressShaNi(std::uint32_t state[8], const std::uint8_t* blocks,
                   std::size_t n);
bool ShaNiSupported();

/// AVX2 8-lane transposed-state path: eight independent messages advance one
/// 64-byte block per step. `states` is lane-major (lane i's 8 words at
/// states + 8*i); `blocks` holds n*8 pointers, blocks[b*8 + lane] = lane i's
/// b-th block. Only callable when Avx2Supported() is true.
void CompressAvx2x8(std::uint32_t* states, const std::uint8_t* const* blocks,
                    std::size_t n);
bool Avx2Supported();

/// Implementation for the single-stream path on this process (resolved once;
/// honours DCERT_FORCE_SHA_BACKEND).
CompressFn GetCompressFn();

/// Round constants, shared by both implementations.
extern const std::uint32_t kSha256K[64];

}  // namespace dcert::crypto::internal

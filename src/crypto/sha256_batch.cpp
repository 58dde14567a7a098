#include "crypto/sha256_batch.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/sha256_compress.h"

namespace dcert::crypto {

namespace {

constexpr std::uint32_t kIv[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                  0xa54ff53a, 0x510e527f, 0x9b05688c,
                                  0x1f83d9ab, 0x5be0cd19};

// A job plus its padded-block geometry. Blocks that lie fully inside the
// message are read in place; only the final one or two blocks (0x80 pad,
// zeros, big-endian bit length) are materialized into `tail`.
struct Prepared {
  const HashJob* job;
  std::size_t blocks;  // total padded blocks
  std::size_t full;    // blocks fully inside job->data (= size / 64)
  std::uint8_t tail[128];

  const std::uint8_t* BlockPtr(std::size_t b) const {
    return b < full ? job->data + b * 64 : tail + (b - full) * 64;
  }
};

void Prepare(const HashJob& job, Prepared& p) {
  p.job = &job;
  p.blocks = internal::PaddedBlockCount(job.size);
  p.full = job.size / 64;
  const std::size_t tail_blocks = p.blocks - p.full;  // always 1 or 2
  std::memset(p.tail, 0, tail_blocks * 64);
  const std::size_t rem = job.size - p.full * 64;
  if (rem > 0) std::memcpy(p.tail, job.data + p.full * 64, rem);
  p.tail[rem] = 0x80;
  const std::uint64_t bit_count = static_cast<std::uint64_t>(job.size) * 8;
  std::uint8_t* len_at = p.tail + tail_blocks * 64 - 8;
  for (int i = 0; i < 8; ++i) {
    len_at[i] = static_cast<std::uint8_t>(bit_count >> (8 * (7 - i)));
  }
}

void StoreDigest(const std::uint32_t s[8], std::uint8_t* p) {
  for (int i = 0; i < 8; ++i) {
    const std::uint32_t be = __builtin_bswap32(s[i]);
    std::memcpy(p + 4 * i, &be, 4);
  }
}

void StoreDigest(const std::uint32_t s[8], Hash256* out) {
  StoreDigest(s, out->begin());
}

// Indices sorted by padded block count so equal-length runs can share lanes.
std::vector<std::size_t> SortedByBlocks(const std::vector<Prepared>& prep) {
  std::vector<std::size_t> order(prep.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return prep[a].blocks < prep[b].blocks;
                   });
  return order;
}

// Runs up to 8 prepared jobs of equal block count through the AVX2 8-lane
// compressor. Unused lanes duplicate lane 0 (one 8-wide compress per block
// regardless); only real lanes store their digest.
void Avx2Group(const Prepared* const* group, std::size_t lanes) {
  const std::size_t m = group[0]->blocks;
  constexpr std::size_t kStackBlocks = 32;
  const std::uint8_t* stack_ptrs[8 * kStackBlocks];
  std::vector<const std::uint8_t*> heap_ptrs;
  const std::uint8_t** ptrs = stack_ptrs;
  if (m > kStackBlocks) {
    heap_ptrs.resize(8 * m);
    ptrs = heap_ptrs.data();
  }
  for (std::size_t blk = 0; blk < m; ++blk) {
    for (std::size_t lane = 0; lane < 8; ++lane) {
      const Prepared& p = *group[std::min(lane, lanes - 1)];
      ptrs[blk * 8 + lane] = p.BlockPtr(blk);
    }
  }
  alignas(32) std::uint32_t states[64];
  for (int lane = 0; lane < 8; ++lane) {
    std::memcpy(states + 8 * lane, kIv, sizeof(kIv));
  }
  internal::CompressAvx2x8(states, ptrs, m);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    StoreDigest(states + 8 * lane, group[lane]->job->out);
  }
}

// True when every job pads to the same block count — the dominant case on
// the Merkle paths (fixed 65-byte node messages). The AVX2 path then skips
// index sorting and bulk preparation and works lane-group at a time on the
// stack, which roughly halves per-hash overhead for small messages.
bool UniformBlocks(const HashJob* jobs, std::size_t n) {
  const std::size_t b0 = internal::PaddedBlockCount(jobs[0].size);
  for (std::size_t i = 1; i < n; ++i) {
    if (internal::PaddedBlockCount(jobs[i].size) != b0) return false;
  }
  return true;
}

// Scalar and SHA-NI hash one job at a time: contiguous prefix in one
// compress call, then the materialized tail blocks. Interleaving SHA-NI
// streams lost its A/B (EXPERIMENTS.md), so there is no lane grouping.
void HashManyEach(internal::CompressFn fn, const HashJob* jobs, std::size_t n) {
  Prepared p;
  for (std::size_t i = 0; i < n; ++i) {
    Prepare(jobs[i], p);
    std::uint32_t s[8];
    std::memcpy(s, kIv, sizeof(s));
    if (p.full > 0) fn(s, p.job->data, p.full);
    fn(s, p.tail, p.blocks - p.full);
    StoreDigest(s, p.job->out);
  }
}

void HashManyAvx2(const HashJob* jobs, std::size_t n) {
  if (UniformBlocks(jobs, n)) {
    Prepared lanes[8];
    const Prepared* group[8];
    for (std::size_t i = 0; i < n; i += 8) {
      const std::size_t take = std::min<std::size_t>(8, n - i);
      for (std::size_t k = 0; k < take; ++k) {
        Prepare(jobs[i + k], lanes[k]);
        group[k] = &lanes[k];
      }
      Avx2Group(group, take);
    }
    return;
  }
  std::vector<Prepared> prep(n);
  for (std::size_t i = 0; i < n; ++i) Prepare(jobs[i], prep[i]);
  const std::vector<std::size_t> order = SortedByBlocks(prep);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i + 1;
    while (j < n && prep[order[j]].blocks == prep[order[i]].blocks) ++j;
    while (i < j) {
      const Prepared* group[8];
      const std::size_t take = std::min<std::size_t>(8, j - i);
      for (std::size_t k = 0; k < take; ++k) group[k] = &prep[order[i + k]];
      Avx2Group(group, take);
      i += take;
    }
  }
}

// Pre-padded jobs are contiguous m-block messages, so the single-stream
// arrangement needs no pointer tables at all: seed, compress, store.
void HashPaddedEach(internal::CompressFn fn, const PaddedJob* jobs,
                    std::size_t n, std::size_t m) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t s[8];
    std::memcpy(s, kIv, sizeof(s));
    fn(s, jobs[i].blocks, m);
    StoreDigest(s, jobs[i].out);
  }
}

void HashPaddedAvx2(const PaddedJob* jobs, std::size_t n, std::size_t m) {
  constexpr std::size_t kStackBlocks = 32;
  const std::uint8_t* stack_ptrs[8 * kStackBlocks];
  std::vector<const std::uint8_t*> heap_ptrs;
  const std::uint8_t** ptrs = stack_ptrs;
  if (m > kStackBlocks) {
    heap_ptrs.resize(8 * m);
    ptrs = heap_ptrs.data();
  }
  for (std::size_t i = 0; i < n; i += 8) {
    const std::size_t lanes = std::min<std::size_t>(8, n - i);
    for (std::size_t blk = 0; blk < m; ++blk) {
      for (std::size_t lane = 0; lane < 8; ++lane) {
        ptrs[blk * 8 + lane] =
            jobs[i + std::min(lane, lanes - 1)].blocks + blk * 64;
      }
    }
    alignas(32) std::uint32_t states[64];
    for (int lane = 0; lane < 8; ++lane) {
      std::memcpy(states + 8 * lane, kIv, sizeof(kIv));
    }
    internal::CompressAvx2x8(states, ptrs, m);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      StoreDigest(states + 8 * lane, jobs[i + lane].out);
    }
  }
}

}  // namespace

void HashPadded(const PaddedJob* jobs, std::size_t n, std::size_t m) {
  if (n == 0) return;
  switch (ActiveBatchBackend()) {
    case ShaBackend::kScalar:
      HashPaddedEach(&internal::CompressScalar, jobs, n, m);
      break;
    case ShaBackend::kShaNi:
      HashPaddedEach(&internal::CompressShaNi, jobs, n, m);
      break;
    case ShaBackend::kAvx2:
      HashPaddedAvx2(jobs, n, m);
      break;
  }
}

const char* ShaBackendName(ShaBackend b) {
  switch (b) {
    case ShaBackend::kScalar: return "scalar";
    case ShaBackend::kShaNi: return "shani";
    case ShaBackend::kAvx2: return "avx2";
  }
  return "unknown";
}

bool ShaBackendSupported(ShaBackend b) {
  switch (b) {
    case ShaBackend::kScalar: return true;
    case ShaBackend::kShaNi: return internal::ShaNiSupported();
    case ShaBackend::kAvx2: return internal::Avx2Supported();
  }
  return false;
}

ShaBackend ActiveBatchBackend() {
  static const ShaBackend backend = internal::ResolveShaBackend(
      std::getenv("DCERT_FORCE_SHA_BACKEND"), /*batch=*/true);
  return backend;
}

ShaBackend ActiveStreamBackend() {
  static const ShaBackend backend = internal::ResolveShaBackend(
      std::getenv("DCERT_FORCE_SHA_BACKEND"), /*batch=*/false);
  return backend;
}

void HashMany(const HashJob* jobs, std::size_t n) {
  internal::HashManyWith(ActiveBatchBackend(), jobs, n);
}

namespace internal {

ShaBackend ResolveShaBackend(const char* override_name, bool batch) {
  const auto best = [batch]() {
    if (ShaNiSupported()) return ShaBackend::kShaNi;
    if (batch && Avx2Supported()) return ShaBackend::kAvx2;
    return ShaBackend::kScalar;
  };
  if (override_name == nullptr || override_name[0] == '\0') return best();
  std::string name(override_name);
  for (char& c : name) c = static_cast<char>(std::tolower(c));
  if (name == "scalar") return ShaBackend::kScalar;
  if (name == "shani" || name == "sha-ni" || name == "sha_ni") {
    return ShaNiSupported() ? ShaBackend::kShaNi : best();
  }
  if (name == "avx2") {
    // AVX2 is a batch-only backend; the stream path falls through to its
    // best supported implementation.
    return (batch && Avx2Supported()) ? ShaBackend::kAvx2 : best();
  }
  return best();  // unknown name: graceful fallback
}

void HashManyWith(ShaBackend backend, const HashJob* jobs, std::size_t n) {
  if (n == 0) return;
  if (!ShaBackendSupported(backend)) {
    throw std::runtime_error(std::string("sha256 backend unsupported: ") +
                             ShaBackendName(backend));
  }
  switch (backend) {
    case ShaBackend::kScalar:
      HashManyEach(&internal::CompressScalar, jobs, n);
      break;
    case ShaBackend::kShaNi:
      HashManyEach(&internal::CompressShaNi, jobs, n);
      break;
    case ShaBackend::kAvx2: HashManyAvx2(jobs, n); break;
  }
}

}  // namespace internal

}  // namespace dcert::crypto

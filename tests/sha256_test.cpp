// SHA-256 and HMAC-SHA256 against published test vectors (FIPS 180-4 / RFC 4231).
#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/sha256_batch.h"
#include "crypto/sha256_compress.h"

namespace dcert::crypto {
namespace {

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(Sha256::Digest({}).ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(Sha256::Digest(StrBytes("abc")).ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      Sha256::Digest(StrBytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
          .ToHex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionA) {
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.Update(StrBytes(chunk));
  EXPECT_EQ(ctx.Finalize().ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 ctx;
    ctx.Update(StrBytes(msg.substr(0, split)));
    ctx.Update(StrBytes(msg.substr(split)));
    EXPECT_EQ(ctx.Finalize(), Sha256::Digest(StrBytes(msg))) << "split=" << split;
  }
}

TEST(Sha256Test, ExactBlockBoundaries) {
  // Messages of length 55, 56, 63, 64, 65 exercise every padding branch.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::string msg(len, 'x');
    Sha256 a;
    a.Update(StrBytes(msg));
    Hash256 streamed = a.Finalize();
    EXPECT_EQ(streamed, Sha256::Digest(StrBytes(msg))) << "len=" << len;
  }
}

TEST(Sha256Test, Digest2IsConcatenation) {
  Bytes a = StrBytes("hello ");
  Bytes b = StrBytes("world");
  EXPECT_EQ(Sha256::Digest2(a, b), Sha256::Digest(StrBytes("hello world")));
}

TEST(Sha256Test, FinalizeTwiceThrows) {
  Sha256 ctx;
  ctx.Update(StrBytes("x"));
  ctx.Finalize();
  EXPECT_THROW(ctx.Finalize(), std::logic_error);
  EXPECT_THROW(ctx.Update(StrBytes("y")), std::logic_error);
}

TEST(Sha256Test, ResetAllowsReuse) {
  Sha256 ctx;
  ctx.Update(StrBytes("abc"));
  ctx.Finalize();
  ctx.Reset();
  ctx.Update(StrBytes("abc"));
  EXPECT_EQ(ctx.Finalize().ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// RFC 4231 test case 1.
TEST(HmacSha256Test, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(HmacSha256(key, StrBytes("Hi There")).ToHex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2 ("Jefe").
TEST(HmacSha256Test, Rfc4231Case2) {
  EXPECT_EQ(HmacSha256(StrBytes("Jefe"), StrBytes("what do ya want for nothing?")).ToHex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 3: 20x 0xaa key, 50x 0xdd data.
TEST(HmacSha256Test, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  EXPECT_EQ(HmacSha256(key, data).ToHex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

// RFC 4231 test case 6: key longer than the block size gets hashed first.
TEST(HmacSha256Test, LongKeyIsHashed) {
  Bytes key(131, 0xaa);
  EXPECT_EQ(
      HmacSha256(key, StrBytes("Test Using Larger Than Block-Size Key - Hash Key First"))
          .ToHex(),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256Test, DifferentKeysDiffer) {
  EXPECT_NE(HmacSha256(StrBytes("k1"), StrBytes("m")),
            HmacSha256(StrBytes("k2"), StrBytes("m")));
}

// Dispatch: on SHA-NI hardware the resolved compress function must be the
// hardware path (otherwise every digest silently takes the scalar road) —
// unless the runtime override (DCERT_FORCE_SHA_BACKEND) forces
// the fallback, which is exactly how the CI forced-scalar leg runs this
// whole suite.
TEST(Sha256DispatchTest, ResolvesHardwarePathWhenSupported) {
  if (ActiveStreamBackend() == ShaBackend::kShaNi) {
    EXPECT_EQ(internal::GetCompressFn(), &internal::CompressShaNi);
  } else {
    EXPECT_EQ(internal::GetCompressFn(), &internal::CompressScalar);
  }
  if (internal::ShaNiSupported() &&
      std::getenv("DCERT_FORCE_SHA_BACKEND") == nullptr) {
    EXPECT_EQ(ActiveStreamBackend(), ShaBackend::kShaNi);
  }
}

// Both compress implementations must agree on multi-block inputs (the NI
// path processes blocks in a hardware loop; vectors above only cover it
// indirectly through whole digests).
TEST(Sha256DispatchTest, CompressImplementationsAgreeOnMultiBlockInputs) {
  if (!internal::ShaNiSupported()) {
    GTEST_SKIP() << "no SHA-NI on this host; scalar path is the only path";
  }
  // SHA-256 initial state (FIPS 180-4).
  const std::uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                  0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  for (std::size_t nblocks : {1u, 2u, 3u, 7u, 16u}) {
    std::vector<std::uint8_t> data(64 * nblocks);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::uint8_t>((i * 131 + 7 * nblocks) & 0xff);
    }
    std::uint32_t scalar_state[8], ni_state[8];
    std::copy(std::begin(kInit), std::end(kInit), scalar_state);
    std::copy(std::begin(kInit), std::end(kInit), ni_state);
    internal::CompressScalar(scalar_state, data.data(), nblocks);
    internal::CompressShaNi(ni_state, data.data(), nblocks);
    for (int w = 0; w < 8; ++w) {
      EXPECT_EQ(scalar_state[w], ni_state[w])
          << "word " << w << ", blocks " << nblocks;
    }
  }
}

// --- multi-buffer backend equivalence -------------------------------------

std::vector<ShaBackend> SupportedBackends() {
  std::vector<ShaBackend> v{ShaBackend::kScalar};
  if (ShaBackendSupported(ShaBackend::kShaNi)) v.push_back(ShaBackend::kShaNi);
  if (ShaBackendSupported(ShaBackend::kAvx2)) v.push_back(ShaBackend::kAvx2);
  return v;
}

// Every supported multi-buffer backend must reproduce the streaming digest
// bit-for-bit over random message lengths (padding boundaries included),
// batch sizes covering partial and multiple SIMD lane groups, and ragged
// tails where lanes carry different block counts.
TEST(Sha256BatchTest, BackendFuzzEquivalence) {
  Rng rng(20260809);
  constexpr std::size_t kBoundary[] = {0,  1,  31,  32,  33,  55,  56,
                                       63, 64, 65,  119, 120, 127, 128,
                                       129, 191, 192, 300};
  for (int round = 0; round < 40; ++round) {
    const std::size_t n = 1 + rng.NextBelow(17);  // 1..17 jobs per batch
    std::vector<Bytes> msgs(n);
    std::vector<Hash256> outs(n);
    std::vector<Hash256> expected(n);
    std::vector<HashJob> jobs(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t len =
          rng.NextBelow(2) == 0
              ? kBoundary[rng.NextBelow(std::size(kBoundary))]
              : rng.NextBelow(301);
      msgs[i] = rng.NextBytes(len);
      expected[i] = Sha256::Digest(msgs[i]);
      jobs[i] = {msgs[i].data(), msgs[i].size(), &outs[i]};
    }
    for (ShaBackend backend : SupportedBackends()) {
      std::fill(outs.begin(), outs.end(), Hash256());
      internal::HashManyWith(backend, jobs.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(outs[i], expected[i])
            << "backend " << ShaBackendName(backend) << ", round " << round
            << ", job " << i << ", len " << msgs[i].size();
      }
    }
  }
}

// HashPadded is the fold-loop entry: pre-padded fixed-geometry messages. It
// must match the streaming digest, including when a job's output aliases its
// own message bytes (the in-place chaining idiom in the SMT batch rehash).
TEST(Sha256BatchTest, HashPaddedMatchesOneShotIncludingAliasedOutput) {
  Rng rng(7);
  constexpr std::size_t kJobs = 37;  // exercises quad, pair, and tail paths
  std::vector<std::uint8_t> slots(kJobs * 128);
  std::vector<std::uint8_t> outs(kJobs * 32);
  std::vector<Hash256> expected(kJobs);
  std::vector<PaddedJob> jobs(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    std::uint8_t* slot = slots.data() + i * 128;
    const Bytes msg = rng.NextBytes(65);
    std::memcpy(slot, msg.data(), 65);
    slot[65] = 0x80;
    std::memset(slot + 66, 0, 60);
    slot[126] = 0x02;  // 65 * 8 = 520 = 0x0208 bits
    slot[127] = 0x08;
    expected[i] = Sha256::Digest(msg);
    jobs[i] = {slot, outs.data() + i * 32};
  }
  HashPadded(jobs.data(), kJobs, /*m=*/2);
  for (std::size_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(std::memcmp(outs.data() + i * 32, expected[i].begin(), 32), 0)
        << "job " << i;
  }
  // Aliased: each digest lands on bytes [1,33) of its own message slot.
  for (std::size_t i = 0; i < kJobs; ++i) {
    jobs[i].out = slots.data() + i * 128 + 1;
  }
  HashPadded(jobs.data(), kJobs, /*m=*/2);
  for (std::size_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(std::memcmp(slots.data() + i * 128 + 1, expected[i].begin(), 32),
              0)
        << "aliased job " << i;
  }
}

// Runtime dispatch must never hand out a backend the CPU cannot run, no
// matter what the override string says.
TEST(Sha256DispatchTest, ResolveNeverSelectsUnsupportedBackend) {
  const char* overrides[] = {nullptr, "",     "scalar", "shani",
                             "sha-ni", "avx2", "AVX2",   "bogus"};
  for (const char* ov : overrides) {
    for (bool batch : {false, true}) {
      const ShaBackend b = internal::ResolveShaBackend(ov, batch);
      EXPECT_TRUE(ShaBackendSupported(b))
          << "override '" << (ov == nullptr ? "<null>" : ov) << "' batch "
          << batch << " resolved to unsupported "
          << ShaBackendName(b);
    }
  }
  // Scalar is always honored; AVX2 is batch-only so the stream path must
  // fall back to something else.
  EXPECT_EQ(internal::ResolveShaBackend("scalar", true), ShaBackend::kScalar);
  EXPECT_EQ(internal::ResolveShaBackend("scalar", false), ShaBackend::kScalar);
  EXPECT_NE(internal::ResolveShaBackend("avx2", false), ShaBackend::kAvx2);
  // Whatever is live right now must be runnable here.
  EXPECT_TRUE(ShaBackendSupported(ActiveBatchBackend()));
  EXPECT_TRUE(ShaBackendSupported(ActiveStreamBackend()));
}

TEST(Sha256DispatchTest, HashManyWithRejectsUnsupportedBackend) {
  if (ShaBackendSupported(ShaBackend::kAvx2)) {
    GTEST_SKIP() << "every backend is supported on this host";
  }
  Hash256 out;
  const std::uint8_t byte = 0x42;
  HashJob job{&byte, 1, &out};
  EXPECT_THROW(internal::HashManyWith(ShaBackend::kAvx2, &job, 1),
               std::runtime_error);
}

}  // namespace
}  // namespace dcert::crypto

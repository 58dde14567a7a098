// Schnorr signature tests: correctness, determinism, and forgery rejection.
#include "crypto/signature.h"

#include <gtest/gtest.h>

#include "crypto/sha256.h"

namespace dcert::crypto {
namespace {

Hash256 Msg(std::string_view s) { return Sha256::Digest(StrBytes(s)); }

TEST(SignatureTest, SignVerifyRoundTrip) {
  SecretKey sk = SecretKey::FromSeed(StrBytes("seed-1"));
  Hash256 m = Msg("hello dcert");
  Signature sig = sk.Sign(m);
  EXPECT_TRUE(Verify(sk.Public(), m, sig));
}

TEST(SignatureTest, SigningIsDeterministic) {
  SecretKey sk = SecretKey::FromSeed(StrBytes("seed-2"));
  Hash256 m = Msg("msg");
  EXPECT_EQ(sk.Sign(m), sk.Sign(m));
}

TEST(SignatureTest, DifferentMessagesDifferentSignatures) {
  SecretKey sk = SecretKey::FromSeed(StrBytes("seed-3"));
  EXPECT_NE(sk.Sign(Msg("a")), sk.Sign(Msg("b")));
}

TEST(SignatureTest, WrongMessageRejected) {
  SecretKey sk = SecretKey::FromSeed(StrBytes("seed-4"));
  Signature sig = sk.Sign(Msg("genuine"));
  EXPECT_FALSE(Verify(sk.Public(), Msg("forged"), sig));
}

TEST(SignatureTest, WrongKeyRejected) {
  SecretKey sk1 = SecretKey::FromSeed(StrBytes("seed-5"));
  SecretKey sk2 = SecretKey::FromSeed(StrBytes("seed-6"));
  Hash256 m = Msg("msg");
  EXPECT_FALSE(Verify(sk2.Public(), m, sk1.Sign(m)));
}

TEST(SignatureTest, TamperedSignatureRejected) {
  SecretKey sk = SecretKey::FromSeed(StrBytes("seed-7"));
  Hash256 m = Msg("msg");
  Signature sig = sk.Sign(m);

  Signature bad_r = sig;
  bad_r.r = Curve().Fp().Add(bad_r.r, U256(1));
  EXPECT_FALSE(Verify(sk.Public(), m, bad_r));

  Signature bad_s = sig;
  bad_s.s = Curve().Fn().Add(bad_s.s, U256(1));
  EXPECT_FALSE(Verify(sk.Public(), m, bad_s));
}

TEST(SignatureTest, OutOfRangeComponentsRejected) {
  SecretKey sk = SecretKey::FromSeed(StrBytes("seed-8"));
  Hash256 m = Msg("msg");
  Signature sig = sk.Sign(m);

  Signature huge_r = sig;
  huge_r.r = Curve().P();  // >= p
  EXPECT_FALSE(Verify(sk.Public(), m, huge_r));

  Signature huge_s = sig;
  huge_s.s = Curve().N();  // >= n
  EXPECT_FALSE(Verify(sk.Public(), m, huge_s));
}

TEST(SignatureTest, SerializeRoundTrip) {
  SecretKey sk = SecretKey::FromSeed(StrBytes("seed-9"));
  Hash256 m = Msg("serialize me");
  Signature sig = sk.Sign(m);
  Bytes encoded = sig.Serialize();
  ASSERT_EQ(encoded.size(), 64u);
  auto decoded = Signature::Deserialize(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, sig);
  EXPECT_TRUE(Verify(sk.Public(), m, *decoded));
}

TEST(SignatureTest, DeserializeRejectsOutOfRange) {
  Bytes all_ff(64, 0xff);
  EXPECT_FALSE(Signature::Deserialize(all_ff).has_value());
  Bytes short_buf(63, 0);
  EXPECT_FALSE(Signature::Deserialize(short_buf).has_value());
}

TEST(SignatureTest, PublicKeySerializeRoundTrip) {
  SecretKey sk = SecretKey::FromSeed(StrBytes("seed-10"));
  Bytes encoded = sk.Public().Serialize();
  ASSERT_EQ(encoded.size(), 64u);
  auto decoded = PublicKey::Deserialize(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, sk.Public());
}

TEST(SignatureTest, SeedsProduceDistinctKeys) {
  SecretKey a = SecretKey::FromSeed(StrBytes("alpha"));
  SecretKey b = SecretKey::FromSeed(StrBytes("beta"));
  EXPECT_NE(a.Public(), b.Public());
  // Same seed reproduces the same key.
  SecretKey a2 = SecretKey::FromSeed(StrBytes("alpha"));
  EXPECT_EQ(a.Public(), a2.Public());
}

// Known-answer vectors: public key, signature, and verification outcome for
// 16 seeded key/digest pairs. Signing is deterministic, so these bytes pin the
// whole curve kernel (keygen, nonce point, challenge) against silent drift.
struct KnownAnswer {
  const char* public_key_hex;
  const char* signature_hex;
};

constexpr KnownAnswer kKnownAnswers[] = {
    {"f1787748941601409f8c8b27816f4e9cbd91dfecf3d1d63fce03930dfaaf96bb"
     "a6f45e384113c55f08c43d50e70bffbbf1a0804bee3421620036b99612e1a312",
     "7023ef177dd7074492f5b398b652ea16bac5094c84aaefb947d5eb4f9aa5e3d2"
     "c1e7e2299a29f0d7ab162951e5f773a94fbc7dbc75cce3295be2c890115a2f13"},
    {"3907cbf7a7df30dbcd3d79c535aaba8d478872ed6257fd7addbfb4dd56cc7f4f"
     "d3243ba83f267a03a5842033c5123968737ac10fbe3a9cea547fce75e00a98d3",
     "29152ea2f34fe6f7863cf6daff7dfd27875f02f291a9772102d3a2f44f02cc80"
     "55406dccaefca137f826c4b25db32427fad4a23032f491a887880d25eaee6a45"},
    {"4847c53f6423be95a3a7e139f9c920c0ec746ff76a2449b8574aba258c936d8a"
     "d1520292edc35b8c67a85b7566cf393a454c00a8e53aeddb632b8b4de5f7af4d",
     "a86c50360d4b781f193e68f5aeb4bcf3151c6576f79ee7f84fd0268a7a201496"
     "44d79cd749264cab7826c0156212c681a7b5cf9842c5786e19da60998cb1d2e1"},
    {"5a2ebdc38b06b8e7f366be2f63f1a3e1b0497bf99cd425f57747dee138885bec"
     "ad1ed349e98d6612938c39b1e467307d6b75170170eddb48e69413b937377418",
     "9d2252a9f2849a517d38a08ac4daa0cc34d79421aa892a1ec11814acca2cb442"
     "f23c7f1de9a362c179f08e3af04749f5f337fbd8737c10fdbc50f8ce9933a8b4"},
    {"a0987474c40b5626c004fed5705f7eed21f9d2e22bbf55de5d02477ec4f9acf7"
     "5c1d090b5b76ed7ced1419e7745a16641303e66f012c79a578f661ea9cedd586",
     "5e3b219bce6a912135c34aec20d5a9b557c63dd863aaa42ed0ccc9ace87e558b"
     "973e4ea15f860909e9b3875dc65427fa6e5822db7e30c92d19fdbf74aed8e594"},
    {"da667b813c798580dd3a229a28e4ab65836ff53de21797dd43fcef7557932303"
     "13b69807f00e51190b798487ad34551ec6a02c15c343d592b28ec4520c839d94",
     "a2091432857d6b0b580862827ae6634b01e0f11987032f92a7e9214337d16650"
     "ca2b535e7368cf5a5b6a3a2c6fc3db283d262835937739fccbba00741a5352ec"},
    {"94805a2ae7c7eda4dd318d15d43f075adb67a601bd04519c8ba04e7c2d256235"
     "8a93a6d030ea16829dbca775ef09f83a12060788b9a1589e1cc3c9a997132bed",
     "ccf9e0124141b824df94e965fb735cc1bd519f725080050e2c9a58f54d454bf8"
     "f48201f439024c721479373b00a9d12d1ca6b5106ea5d199d3f8239c6611f7a5"},
    {"a708233c6640309fcaf81c37c34376b9a5921feddb650c2ceb15f52e767556a6"
     "77356514dc1f1da4c2f291625465ac40ee0c7244833ed12f9cb12f43f64d339b",
     "06285c220f8e3f3820c18089156309e36ba70338c21ac98ca76db8e1d24727c7"
     "83b0e460497f9d665e3a40bd804db027c0ba1465277bcd9189f731ce42681f36"},
    {"851241aed1facdffc534ad317bfa203f4c479466f98a96c2c3650bcc1d1cec4f"
     "dda27bff058bca6bc6d9e7abb51b1f270d54ba8e02881c3e2b1adde31bfd3926",
     "2f3f99f39e34ff668e8da5b2f1bd94752c5539d8b3c30a0544ed1a43d0035716"
     "033b4a6dcadfc91a0b3122e09378f1a7f7f5844b3bc2a464bc1364f51c5d986d"},
    {"87f6b73ea56cf12e9070710cfbbf817c7000e978f2893a4d1d4075e7d165b473"
     "10696ce86e9fc4f00ba6a0aa57a979887ccbb3040912bddc59d839b18e54c21f",
     "853d8c257564b94f7249e96b33a8ace5bf3cf3a6a4e0ed8ec2b2e17e869d372a"
     "15e778026bac412febb094a9f883a68d486a8956f4e3e41660ad1fd9b4adc30e"},
    {"06d30376410fd28ba9eb2bece6e6c8a3ac10c1b736e8c5dc9250a2c809e3eca7"
     "8da704eea967cc9f999c61854c3ef2b2000c0d2f7996ad4882db732f065eadc8",
     "9996f8e487f2521ff797b6c998d19cf035a1f601dcdd21b53c334c71e35f99a3"
     "62a2b639d6a6b3ee6409af77a5fdbc0e0aeeadcc2035f34008ea94f758bebb4d"},
    {"0e512cf313d3f277a911afea6a2e1359704d974cc392fe8464ce5802a0c1a8e1"
     "28bb04e887299a66ade904802ce03f753ca4b2703eeaeb9fe2178a5fcdda3db3",
     "9b8b7addb32f3c1549da245ec09538afe279e7c09cc5eff93e4029b4b8bb3310"
     "f4f2a347d631d9081560c061d8a08cb93c3f7910fabdb73a30f9ec2b1360f59f"},
    {"6f524b005964075403abb74c10723d9a93d8678698a3219b1571d118351375ac"
     "a366a8b02b44f1691fb067f4b5441f5d44aebed6a099d3509cf4ca9d28de710e",
     "00bf6c113c7252c458ba83b979ef0c395d6cf5a3e65e7c5fea4a552ce995eae3"
     "696afa137e14ae66e28de40edbe0534521ec32290cd8b2c2f6b97a9300aac487"},
    {"febb89be05ff4610880df281ea3a212a4fc4f632bbc03a48d275b7c38a6aae61"
     "280ec45f91d82c9e6cc7977483c1fa749905fa468b918a9df50101b5bdb2bd9b",
     "cd512f41ad485252025a7bc1a7674be79549fbaee70da370a8864110f5ed1c97"
     "a2fa4ce1e8acb5467b2774ac50dd2ec5ed125000ec9c0a4367c8163f841c53a8"},
    {"5a8d76e65c206ce4f4d8dff1002f89c338d65ff2fb912734d5bd0cc71d17778c"
     "671046ea7bf5dcc5abd9216677321ed65ff6e34e068c907b8f000973de4f58d7",
     "0425332e37d9848f245f5e6a87fc54b12f5b8b89e9c6b371de79ef164f4b733d"
     "03728b7c0b4a4e10f3f15ef070b20f01917c46396502bc91d934212815f151a5"},
    {"d915bfafe98e66e144bd291e7d20a3b60b31de9e5913f0dddb1d5d375852ef67"
     "e8d1a68ed89d1a9a65a92d94b005fc05c2c775d8b7496400bfb6667617283221",
     "0402b8a1b4fb3c53e52ea681fb4171b0caa8bbdc3d879423314a17599f0e14a3"
     "402507313a7ab535646893346ef7e8a5602a6b8a91e8e7f69668a0671a1b7b97"},
};

TEST(SignatureTest, KnownAnswerVectors) {
  ASSERT_EQ(std::size(kKnownAnswers), 16u);
  for (std::size_t i = 0; i < std::size(kKnownAnswers); ++i) {
    SecretKey sk = SecretKey::FromSeed(StrBytes("kat-seed-" + std::to_string(i)));
    Hash256 m = Msg("kat-msg-" + std::to_string(i));
    Signature sig = sk.Sign(m);
    EXPECT_EQ(ToHex(sk.Public().Serialize()), kKnownAnswers[i].public_key_hex)
        << "vector " << i;
    EXPECT_EQ(ToHex(sig.Serialize()), kKnownAnswers[i].signature_hex)
        << "vector " << i;
    EXPECT_TRUE(Verify(sk.Public(), m, sig)) << "vector " << i;
    EXPECT_FALSE(Verify(sk.Public(), Msg("kat-other-" + std::to_string(i)), sig))
        << "vector " << i;
  }
}

// Parameterized sweep: many (seed, message) combinations round-trip, and a
// signature never validates under a different message or key.
class SignatureSweep : public ::testing::TestWithParam<int> {};

TEST_P(SignatureSweep, RoundTripAndCrossRejection) {
  int i = GetParam();
  SecretKey sk = SecretKey::FromSeed(StrBytes("sweep-seed-" + std::to_string(i)));
  Hash256 m = Msg("sweep-msg-" + std::to_string(i));
  Signature sig = sk.Sign(m);
  EXPECT_TRUE(Verify(sk.Public(), m, sig));
  Hash256 other = Msg("sweep-msg-" + std::to_string(i + 1));
  EXPECT_FALSE(Verify(sk.Public(), other, sig));
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, SignatureSweep, ::testing::Range(0, 8));

// --- batched verification --------------------------------------------------

// A valid flood signed by a handful of signers: one VerifyJob per message,
// signers repeating so the batch path exercises its per-pk challenge merge.
struct BatchFixture {
  std::vector<SecretKey> signers;
  std::vector<Hash256> digests;
  std::vector<Signature> sigs;
  std::vector<VerifyJob> jobs;

  explicit BatchFixture(std::size_t n, std::size_t n_signers = 4) {
    for (std::size_t s = 0; s < n_signers; ++s) {
      signers.push_back(
          SecretKey::FromSeed(StrBytes("batch-signer-" + std::to_string(s))));
    }
    digests.reserve(n);
    sigs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      digests.push_back(Msg("batch-msg-" + std::to_string(i)));
      sigs.push_back(signers[i % n_signers].Sign(digests[i]));
    }
    jobs.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      jobs[i] = {&signers[i % n_signers].Public(), &digests[i], &sigs[i]};
    }
  }
};

TEST(VerifyBatchTest, AllValidMatchesSingleShot) {
  BatchFixture fx(12);
  const std::vector<bool> batch = VerifyBatch(fx.jobs.data(), fx.jobs.size());
  ASSERT_EQ(batch.size(), fx.jobs.size());
  for (std::size_t i = 0; i < fx.jobs.size(); ++i) {
    EXPECT_TRUE(batch[i]) << "index " << i;
    EXPECT_EQ(batch[i], Verify(*fx.jobs[i].pk, *fx.jobs[i].digest,
                               *fx.jobs[i].sig));
  }
}

TEST(VerifyBatchTest, IdentifiesEachCorruptedIndex) {
  for (std::size_t corrupt_at : {0u, 3u, 7u}) {
    BatchFixture fx(8);
    fx.sigs[corrupt_at].s = Curve().Fn().Add(fx.sigs[corrupt_at].s, U256(1));
    const std::vector<bool> batch = VerifyBatch(fx.jobs.data(), fx.jobs.size());
    ASSERT_EQ(batch.size(), fx.jobs.size());
    for (std::size_t i = 0; i < fx.jobs.size(); ++i) {
      EXPECT_EQ(batch[i], i != corrupt_at) << "index " << i << " with "
                                           << corrupt_at << " corrupted";
    }
  }
}

TEST(VerifyBatchTest, MultipleCorruptionsAllIsolated) {
  BatchFixture fx(10);
  fx.sigs[1].r = Curve().Fp().Add(fx.sigs[1].r, U256(1));  // tampered r
  fx.digests[4] = Msg("substituted-message");              // wrong digest
  fx.sigs[8] = fx.sigs[0];                                 // sig/msg mismatch
  const std::vector<bool> batch = VerifyBatch(fx.jobs.data(), fx.jobs.size());
  ASSERT_EQ(batch.size(), fx.jobs.size());
  for (std::size_t i = 0; i < fx.jobs.size(); ++i) {
    const bool expect_ok = i != 1 && i != 4 && i != 8;
    EXPECT_EQ(batch[i], expect_ok) << "index " << i;
    EXPECT_EQ(batch[i], Verify(*fx.jobs[i].pk, *fx.jobs[i].digest,
                               *fx.jobs[i].sig))
        << "batch disagrees with single-shot at " << i;
  }
}

TEST(VerifyBatchTest, EmptyAndSingleElementBatches) {
  EXPECT_TRUE(VerifyBatch(nullptr, 0).empty());

  BatchFixture fx(1);
  EXPECT_EQ(VerifyBatch(fx.jobs.data(), 1), std::vector<bool>{true});
  fx.sigs[0].s = Curve().Fn().Add(fx.sigs[0].s, U256(1));
  EXPECT_EQ(VerifyBatch(fx.jobs.data(), 1), std::vector<bool>{false});
}

TEST(VerifyBatchTest, SingleSignerFloodMergesAndStillIsolatesFailures) {
  BatchFixture fx(16, /*n_signers=*/1);
  fx.sigs[5].s = Curve().Fn().Add(fx.sigs[5].s, U256(1));
  fx.sigs[11].s = Curve().Fn().Add(fx.sigs[11].s, U256(1));
  const std::vector<bool> batch = VerifyBatch(fx.jobs.data(), fx.jobs.size());
  ASSERT_EQ(batch.size(), fx.jobs.size());
  for (std::size_t i = 0; i < fx.jobs.size(); ++i) {
    EXPECT_EQ(batch[i], i != 5 && i != 11) << "index " << i;
  }
}

}  // namespace
}  // namespace dcert::crypto

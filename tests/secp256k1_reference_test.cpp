// Differential tests of the secp256k1 kernel (fixed-base comb, GLV + wNAF
// ladder, mixed additions, addition-chain inverse and square root) against a
// deliberately naive reference: affine double-and-add where every group
// operation inverts through ModArith::Pow.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "crypto/secp256k1.h"
#include "crypto/secp256k1_internal.h"

namespace dcert::crypto {
namespace {

const AffinePoint kInfinity{U256(0), U256(0), true};

U256 Minus(const U256& a, std::uint64_t b) {
  std::uint64_t borrow = 0;
  return Sub(a, U256(b), borrow);
}

/// a^-1 mod p by Fermat, through the generic square-and-multiply.
U256 RefInv(const U256& a) { return Curve().Fp().Pow(a, Minus(Curve().P(), 2)); }

AffinePoint RefNeg(const AffinePoint& p) {
  if (p.infinity) return p;
  return {p.x, Curve().Fp().Neg(p.y), false};
}

/// Textbook affine chord-and-tangent addition.
AffinePoint RefAdd(const AffinePoint& p, const AffinePoint& q) {
  const ModArith& fp = Curve().Fp();
  if (p.infinity) return q;
  if (q.infinity) return p;
  U256 slope;
  if (p.x == q.x) {
    if (p.y != q.y || p.y.IsZero()) return kInfinity;
    const U256 x2 = fp.Mul(p.x, p.x);
    slope = fp.Mul(fp.Add(fp.Add(x2, x2), x2), RefInv(fp.Add(p.y, p.y)));
  } else {
    slope = fp.Mul(fp.Sub(q.y, p.y), RefInv(fp.Sub(q.x, p.x)));
  }
  const U256 x3 = fp.Sub(fp.Sub(fp.Mul(slope, slope), p.x), q.x);
  const U256 y3 = fp.Sub(fp.Mul(slope, fp.Sub(p.x, x3)), p.y);
  return {x3, y3, false};
}

/// k·p by double-and-add over all 256 bits of k (k need not be below n).
AffinePoint RefMul(const U256& k, const AffinePoint& p) {
  AffinePoint acc = kInfinity;
  for (int i = 255; i >= 0; --i) {
    acc = RefAdd(acc, acc);
    if (k.Bit(i)) acc = RefAdd(acc, p);
  }
  return acc;
}

AffinePoint Affine(const JacobianPoint& j) { return j.ToAffine(); }

U256 RandomU256(Rng& rng) {
  return U256(rng.NextU64(), rng.NextU64(), rng.NextU64(), rng.NextU64());
}

U256 RandomScalar(Rng& rng) { return Curve().Fn().Reduce(RandomU256(rng)); }

/// Scalars at the edges of the comb, the GLV split and the wNAF recoding.
std::vector<U256> EdgeScalars() {
  const U256& n = Curve().N();
  const U256 all_ones(~0ull, ~0ull, ~0ull, ~0ull);
  return {
      U256(0),
      U256(1),
      U256(2),
      Minus(n, 1),
      n,
      U256(1, 0, 1, 0),                     // 2^128 + 1
      U256(~0ull, ~0ull, 0, 0),             // 2^128 - 1
      U256(0, 0, 0, 1ull << 63),            // 2^255
      all_ones,                             // 2^256 - 1 (above n)
      U256(~0ull, ~0ull, ~0ull, 0),         // 192 ones
      U256(0xfffffffffffff000ull, ~0ull, 0xffffffffull, 0),  // a long inner run
      U256(0x7f7f7f7f7f7f7f7full, 0x7f7f7f7f7f7f7f7full,
           0x7f7f7f7f7f7f7f7full, 0x7f7f7f7f7f7f7f7full),  // 7-one runs
      internal::GlvLambda(),
  };
}

/// Named points with known discrete logs (P = dlog·G).
struct KnownPoint {
  const char* name;
  U256 dlog;
  AffinePoint point;
};

const std::vector<KnownPoint>& KnownPoints() {
  static const std::vector<KnownPoint> points = [] {
    const AffinePoint& g = Generator();
    std::vector<KnownPoint> out = {
        {"G", U256(1), g},
        {"-G", Minus(Curve().N(), 1), RefNeg(g)},
        {"lambdaG", internal::GlvLambda(),
         {Curve().Fp().Mul(internal::GlvBeta(), g.x), g.y, false}},
    };
    Rng rng(7001);
    for (const char* name : {"Q1", "Q2"}) {
      const U256 m = RandomScalar(rng);
      out.push_back({name, m, RefMul(m, g)});
    }
    return out;
  }();
  return points;
}

/// Random scalars whose GLV halves reach the 128-bit bound, alternating
/// between k1 and k2 reaching it (the two never do so at once).
std::vector<U256> ScalarsWithMaximalHalves(std::size_t count) {
  std::vector<U256> out;
  Rng rng(7002);
  while (out.size() < count) {
    const U256 k = RandomScalar(rng);
    internal::SignedScalar k1, k2;
    internal::SplitLambda(k, k1, k2);
    const internal::SignedScalar& half = out.size() % 2 == 0 ? k1 : k2;
    if (half.magnitude.Bit(127)) out.push_back(k);
  }
  return out;
}

// --- field ------------------------------------------------------------------

TEST(Secp256k1ReferenceTest, InverseChainMatchesPow) {
  const ModArith& fp = Curve().Fp();
  Rng rng(7100);
  std::vector<U256> zs = {U256(1), U256(2), Minus(Curve().P(), 1)};
  for (int i = 0; i < 24; ++i) zs.push_back(fp.Reduce(RandomU256(rng)));
  for (const U256& z : zs) {
    if (z.IsZero()) continue;
    const U256 x = fp.Reduce(RandomU256(rng));
    const U256 y = fp.Reduce(RandomU256(rng));
    // (x, y, z).ToAffine() = (x/z^2, y/z^3): the kernel's chain vs Pow.
    const U256 zinv = RefInv(z);
    const U256 zinv2 = fp.Mul(zinv, zinv);
    const AffinePoint got = JacobianPoint{x, y, z}.ToAffine();
    EXPECT_EQ(got.x, fp.Mul(x, zinv2)) << z.ToHex();
    EXPECT_EQ(got.y, fp.Mul(y, fp.Mul(zinv2, zinv))) << z.ToHex();
  }
}

TEST(Secp256k1ReferenceTest, ReductionCarriesOutOfTheSecondFold) {
  // z is chosen so that (1/z)^2 = 2^255, and x so that x·2^255 folds to
  // 2^256 - 1 plus a high word: the second fold of the reduction carries out
  // of 256 bits, a path random inputs reach with probability ~2^-190.
  const ModArith& fp = Curve().Fp();
  const U256 x = U256::FromHex(
      "6c85cdf5d558f8ccc7727a7ad41a913c869bb80247b6bf4c4f8fedc45bb5959e");
  const U256 z = U256::FromHex(
      "1dd6b36732c3a7906f8d707e23703547210c790573632359b1edb4300e3ac9b1");
  const U256 zinv = RefInv(z);
  ASSERT_EQ(fp.Mul(zinv, zinv), U256(0, 0, 0, 1ull << 63));
  EXPECT_EQ(JacobianPoint({x, U256(1), z}).ToAffine().x,
            fp.Mul(x, U256(0, 0, 0, 1ull << 63)));
}

TEST(Secp256k1ReferenceTest, ProductsFoldingToPPlusOneAreCanonical) {
  // x·z^-2 ≡ 1 when x = z^2: the folds of such a product almost always leave
  // p + 1, which only the final subtraction of the reduction maps back to 1.
  const ModArith& fp = Curve().Fp();
  Rng rng(7102);
  for (int i = 0; i < 8; ++i) {
    const U256 z = fp.Reduce(RandomU256(rng));
    if (z.IsZero()) continue;
    const U256 z2 = fp.Mul(z, z);
    const AffinePoint got = JacobianPoint{z2, fp.Mul(z2, z), z}.ToAffine();
    EXPECT_EQ(got.x, U256(1)) << z.ToHex();
    EXPECT_EQ(got.y, U256(1)) << z.ToHex();
  }
}

TEST(Secp256k1ReferenceTest, SquareRootChainMatchesPow) {
  const ModArith& fp = Curve().Fp();
  std::uint64_t carry = 0;
  const U256 sqrt_exp = Shr(Add(Curve().P(), U256(1), carry), 2);  // (p + 1) / 4
  ASSERT_EQ(sqrt_exp.ToHex(),
            "3fffffffffffffffffffffffffffffffffffffffffffffffffffffffbfffff0c");
  Rng rng(7101);
  std::vector<U256> xs = {U256(0), U256(1), Generator().x, Minus(Curve().P(), 1)};
  for (int i = 0; i < 48; ++i) xs.push_back(fp.Reduce(RandomU256(rng)));
  int lifted = 0;
  for (const U256& x : xs) {
    const U256 rhs = fp.Add(fp.Mul(fp.Mul(x, x), x), U256(7));
    U256 y = fp.Pow(rhs, sqrt_exp);
    const bool on_curve = fp.Mul(y, y) == rhs;
    if (y.IsOdd()) y = fp.Neg(y);
    const auto got = LiftX(x);
    ASSERT_EQ(got.has_value(), on_curve) << x.ToHex();
    if (!on_curve) continue;
    ++lifted;
    EXPECT_EQ(got->x, x);
    EXPECT_EQ(got->y, y) << x.ToHex();
    EXPECT_TRUE(got->IsOnCurve());
  }
  EXPECT_GT(lifted, 10);  // about half of all x lift
  EXPECT_FALSE(LiftX(Curve().P()).has_value());
}

// --- GLV constants and split ------------------------------------------------

TEST(Secp256k1ReferenceTest, GlvConstantsAreCubeRootsOfUnity) {
  const ModArith& fp = Curve().Fp();
  const ModArith& fn = Curve().Fn();
  const U256& beta = internal::GlvBeta();
  const U256& lambda = internal::GlvLambda();
  EXPECT_NE(beta, U256(1));
  EXPECT_NE(lambda, U256(1));
  EXPECT_EQ(fp.Mul(fp.Mul(beta, beta), beta), U256(1));
  EXPECT_EQ(fn.Mul(fn.Mul(lambda, lambda), lambda), U256(1));
  // λ·G = (β·Gx, Gy), by the reference and by the kernel.
  const AffinePoint lambda_g{fp.Mul(beta, Generator().x), Generator().y, false};
  EXPECT_EQ(RefMul(lambda, Generator()), lambda_g);
  EXPECT_EQ(Affine(ScalarMulBase(lambda)), lambda_g);
  EXPECT_EQ(Affine(ScalarMul(lambda, Generator())), lambda_g);
}

TEST(Secp256k1ReferenceTest, SplitRecombinesWithinBound) {
  const ModArith& fn = Curve().Fn();
  Rng rng(7200);
  std::vector<U256> ks;
  for (const U256& k : EdgeScalars()) ks.push_back(fn.Reduce(k));
  for (int i = 0; i < 500; ++i) ks.push_back(RandomScalar(rng));
  auto signed_mod_n = [&](const internal::SignedScalar& s) {
    return s.negative ? fn.Neg(s.magnitude) : s.magnitude;
  };
  for (const U256& k : ks) {
    internal::SignedScalar k1, k2;
    internal::SplitLambda(k, k1, k2);
    // |k1|, |k2| < 2^128.
    EXPECT_TRUE((k1.magnitude.limbs[2] | k1.magnitude.limbs[3]) == 0) << k.ToHex();
    EXPECT_TRUE((k2.magnitude.limbs[2] | k2.magnitude.limbs[3]) == 0) << k.ToHex();
    const U256 recombined =
        fn.Add(signed_mod_n(k1), fn.Mul(internal::GlvLambda(), signed_mod_n(k2)));
    EXPECT_EQ(recombined, k) << k.ToHex();
  }
  EXPECT_EQ(ScalarsWithMaximalHalves(4).size(), 4u);
}

// --- group operations -------------------------------------------------------

TEST(Secp256k1ReferenceTest, ScalarMulBaseMatchesReference) {
  std::vector<U256> ks = EdgeScalars();
  Rng rng(7300);
  for (int i = 0; i < 4; ++i) ks.push_back(RandomU256(rng));
  for (const U256& k : ScalarsWithMaximalHalves(2)) ks.push_back(k);
  for (const U256& k : ks) {
    EXPECT_EQ(Affine(ScalarMulBase(k)), RefMul(k, Generator())) << k.ToHex();
  }
}

TEST(Secp256k1ReferenceTest, ScalarMulMatchesReference) {
  Rng rng(7301);
  const std::vector<U256> edges = EdgeScalars();
  const std::vector<U256> maximal = ScalarsWithMaximalHalves(3);
  for (const KnownPoint& kp : KnownPoints()) {
    std::vector<U256> ks = {edges[0], edges[1], edges[3], edges[4], edges[8]};
    ks.push_back(edges[5 + rng.NextBelow(edges.size() - 5)]);
    ks.push_back(maximal[rng.NextBelow(maximal.size())]);
    ks.push_back(RandomScalar(rng));
    for (const U256& k : ks) {
      EXPECT_EQ(Affine(ScalarMul(k, kp.point)), RefMul(k, kp.point))
          << kp.name << " k=" << k.ToHex();
    }
  }
}

TEST(Secp256k1ReferenceTest, DoubleScalarMulMatchesReference) {
  Rng rng(7302);
  const std::vector<U256> edges = EdgeScalars();
  const std::vector<U256> maximal = ScalarsWithMaximalHalves(2);
  const ModArith& fn = Curve().Fn();
  struct Case {
    U256 a, b;
    std::size_t point;
  };
  std::vector<Case> cases = {
      {maximal[0], maximal[1], 3},
      {edges[3], edges[8], 4},        // (n-1)·G + (2^256-1)·Q2
      {U256(0), RandomScalar(rng), 2},
      {RandomScalar(rng), U256(0), 3},
      {U256(5), fn.Neg(U256(5)), 0},   // 5G - 5G = ∞
      {U256(5), U256(5), 1},           // 5G + 5(-G) = ∞
      {U256(5), U256(7), 0},           // both terms on G
  };
  for (int i = 0; i < 3; ++i) {
    cases.push_back({RandomScalar(rng), RandomScalar(rng),
                     static_cast<std::size_t>(rng.NextBelow(KnownPoints().size()))});
  }
  for (const Case& c : cases) {
    const KnownPoint& kp = KnownPoints()[c.point];
    // Expected via discrete logs: (a + b·dlog)·G, one reference multiplication.
    const U256 total = fn.Add(fn.Reduce(c.a), fn.Mul(fn.Reduce(c.b), kp.dlog));
    EXPECT_EQ(Affine(DoubleScalarMul(c.a, c.b, kp.point)), RefMul(total, Generator()))
        << kp.name << " a=" << c.a.ToHex() << " b=" << c.b.ToHex();
  }
  // The independent route for one case: two reference multiplications.
  const KnownPoint& q = KnownPoints()[3];
  EXPECT_EQ(Affine(DoubleScalarMul(maximal[1], maximal[0], q.point)),
            RefAdd(RefMul(maximal[1], Generator()), RefMul(maximal[0], q.point)));
}

TEST(Secp256k1ReferenceTest, MultiScalarMulMatchesReference) {
  Rng rng(7303);
  const ModArith& fn = Curve().Fn();
  const std::vector<KnownPoint>& pts = KnownPoints();
  const std::vector<U256> edges = EdgeScalars();
  // Random mixes of every known point (G's terms go to the static tables),
  // with edge scalars and a duplicated term. Expected via discrete logs.
  for (int round = 0; round < 5; ++round) {
    std::vector<MsmTerm> terms;
    U256 total(0);
    auto add_term = [&](const U256& k, std::size_t idx) {
      terms.push_back({k, pts[idx].point});
      total = fn.Add(total, fn.Mul(fn.Reduce(k), pts[idx].dlog));
    };
    const std::size_t n = 2 + rng.NextBelow(6);
    const std::size_t first = rng.NextBelow(pts.size());
    const U256 first_k = RandomScalar(rng);
    add_term(first_k, first);
    for (std::size_t i = 1; i < n; ++i) {
      const U256 k = rng.NextBelow(3) == 0 ? edges[rng.NextBelow(edges.size())]
                                           : RandomScalar(rng);
      add_term(k, rng.NextBelow(pts.size()));
    }
    add_term(first_k, first);  // the same point and scalar again
    EXPECT_EQ(Affine(MultiScalarMul(terms.data(), terms.size())),
              RefMul(total, Generator()))
        << "round " << round;
  }
}

TEST(Secp256k1ReferenceTest, RepeatedTermsTakeTheDoublingCase) {
  // Two identical terms add the same table entry onto an accumulator that
  // already equals it, so the mixed addition must fall back to doubling.
  Rng rng(7305);
  const ModArith& fn = Curve().Fn();
  const KnownPoint& q = KnownPoints()[4];
  const std::vector<MsmTerm> ones = {{U256(1), q.point}, {U256(1), q.point}};
  EXPECT_EQ(Affine(MultiScalarMul(ones.data(), ones.size())), RefMul(U256(2), q.point));
  for (int i = 0; i < 3; ++i) {
    const U256 k = RandomScalar(rng);
    const std::vector<MsmTerm> twice = {{k, q.point}, {k, q.point}};
    EXPECT_EQ(Affine(MultiScalarMul(twice.data(), twice.size())),
              RefMul(fn.Mul(fn.Add(k, k), q.dlog), Generator()))
        << k.ToHex();
  }
}

TEST(Secp256k1ReferenceTest, CancellingMultiScalarMulIsInfinity) {
  Rng rng(7304);
  const ModArith& fn = Curve().Fn();
  const std::vector<KnownPoint>& pts = KnownPoints();
  const AffinePoint& q = pts[3].point;
  const U256 k = RandomScalar(rng);
  const std::vector<std::vector<MsmTerm>> cancelling = {
      {{k, q}, {fn.Neg(k), q}},                 // k·Q + (n-k)·Q
      {{k, q}, {k, RefNeg(q)}},                 // k·Q + k·(-Q)
      {{k, pts[0].point}, {k, pts[1].point}},   // k·G + k·(-G), G routed
      {{k, pts[2].point}, {fn.Mul(k, internal::GlvLambda()), pts[1].point}},
      {{U256(0), q}, {k, kInfinity}},           // nothing live
  };
  for (std::size_t i = 0; i < cancelling.size(); ++i) {
    EXPECT_TRUE(MultiScalarMul(cancelling[i].data(), cancelling[i].size()).IsInfinity())
        << "case " << i;
  }
  EXPECT_TRUE(MultiScalarMul(nullptr, 0).IsInfinity());
  // A cancelling pair inside a larger sum leaves exactly the rest.
  const std::vector<MsmTerm> mixed = {{k, q}, {U256(3), pts[4].point}, {fn.Neg(k), q}};
  EXPECT_EQ(Affine(MultiScalarMul(mixed.data(), mixed.size())),
            RefMul(U256(3), pts[4].point));
}

}  // namespace
}  // namespace dcert::crypto

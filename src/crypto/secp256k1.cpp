#include "crypto/secp256k1.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "crypto/secp256k1_internal.h"

namespace dcert::crypto {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

// p = 2^256 - 2^32 - 977
const U256 kP = U256::FromHex(
    "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
const U256 kPc = U256::FromHex("1000003d1");
// n = group order
const U256 kN = U256::FromHex(
    "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141");
const U256 kNc = U256::FromHex("14551231950b75fc4402da1732fc9bebf");

const ModArith& FpArith() {
  static const ModArith fp(kP, kPc);
  return fp;
}

const ModArith& FnArith() {
  static const ModArith fn(kN, kNc);
  return fn;
}

const AffinePoint kG = {
    U256::FromHex("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"),
    U256::FromHex("483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8"),
    false};

// GLV endomorphism: λ·(x, y) = (β·x, y) for every curve point, with
// λ^3 ≡ 1 (mod n) and β^3 ≡ 1 (mod p).
const U256 kLambda = U256::FromHex(
    "5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72");
const U256 kBeta = U256::FromHex(
    "7ae96a2b657c07106e64479eac3434e99cf0497512f58995c1396c28719501ee");
// Scalar-split lattice: g_i = round(2^384 · b_i / n) and the negated basis
// vectors -b1, -b2 (mod n).
const U256 kG1 = U256::FromHex(
    "3086d221a7d46bcde86c90e49284eb153daa8a1471e8ca7fe893209a45dbb031");
const U256 kG2 = U256::FromHex(
    "e4437ed6010e88286f547fa90abfe4c4221208ac9df506c61571b4ae8ac47f71");
const U256 kMinusB1 = U256::FromHex("e4437ed6010e88286f547fa90abfe4c3");
const U256 kMinusB2 = U256::FromHex(
    "fffffffffffffffffffffffffffffffe8a280ac50774346dd765cda83db1562c");
const U256 kHalfN = U256::FromHex(
    "7fffffffffffffffffffffffffffffff5d576e7357a4501ddfe92f46681b20a0");

// ---- Field arithmetic mod p = 2^256 - kFold ---------------------------------
// Elements are U256 values fully reduced into [0, p).

constexpr u64 kFold = 0x1000003d1ULL;  // 2^256 mod p

inline u64 Lo(u128 v) { return static_cast<u64>(v); }
inline u64 Hi(u128 v) { return static_cast<u64>(v >> 64); }

/// Maps carry·2^256 + r into [0, p), given r + kFold < 2^256 whenever carry is
/// set. Both cases add kFold: 2^256 ≡ kFold, and r >= p exactly when r + kFold
/// overflows.
inline U256 FeFinish(u64 r0, u64 r1, u64 r2, u64 r3, u64 carry) {
  u128 acc = static_cast<u128>(r0) + kFold;
  const u64 s0 = Lo(acc);
  acc = static_cast<u128>(r1) + Hi(acc);
  const u64 s1 = Lo(acc);
  acc = static_cast<u128>(r2) + Hi(acc);
  const u64 s2 = Lo(acc);
  acc = static_cast<u128>(r3) + Hi(acc);
  const u64 s3 = Lo(acc);
  if ((carry | Hi(acc)) != 0) return U256(s0, s1, s2, s3);
  return U256(r0, r1, r2, r3);
}

/// Reduces the 512-bit t[0..7] mod p: two folds of the high half by kFold.
inline U256 FeReduce(const u64 t[8]) {
  u128 acc = static_cast<u128>(t[4]) * kFold + t[0];
  u64 r0 = Lo(acc);
  acc = static_cast<u128>(t[5]) * kFold + t[1] + Hi(acc);
  u64 r1 = Lo(acc);
  acc = static_cast<u128>(t[6]) * kFold + t[2] + Hi(acc);
  u64 r2 = Lo(acc);
  acc = static_cast<u128>(t[7]) * kFold + t[3] + Hi(acc);
  u64 r3 = Lo(acc);
  // Second fold: the 34-bit overflow times kFold lands in the low limbs.
  acc = static_cast<u128>(Hi(acc)) * kFold + r0;
  r0 = Lo(acc);
  acc = static_cast<u128>(r1) + Hi(acc);
  r1 = Lo(acc);
  acc = static_cast<u128>(r2) + Hi(acc);
  r2 = Lo(acc);
  acc = static_cast<u128>(r3) + Hi(acc);
  r3 = Lo(acc);
  // Limbs 1-3 of p are all ones, so without a carry r < p unless they are
  // too; skipping FeFinish then takes its carry chain off the common path.
  if (Hi(acc) == 0 && (r1 & r2 & r3) != ~u64{0}) return U256(r0, r1, r2, r3);
  return FeFinish(r0, r1, r2, r3, Hi(acc));
}

U256 FeMul(const U256& x, const U256& y) {
  const u64 a0 = x.limbs[0], a1 = x.limbs[1], a2 = x.limbs[2], a3 = x.limbs[3];
  const u64 b0 = y.limbs[0], b1 = y.limbs[1], b2 = y.limbs[2], b3 = y.limbs[3];
  u64 t[8];
  u128 acc = static_cast<u128>(a0) * b0;
  t[0] = Lo(acc);
  acc = static_cast<u128>(a0) * b1 + Hi(acc);
  t[1] = Lo(acc);
  acc = static_cast<u128>(a0) * b2 + Hi(acc);
  t[2] = Lo(acc);
  acc = static_cast<u128>(a0) * b3 + Hi(acc);
  t[3] = Lo(acc);
  t[4] = Hi(acc);

  acc = static_cast<u128>(a1) * b0 + t[1];
  t[1] = Lo(acc);
  acc = static_cast<u128>(a1) * b1 + t[2] + Hi(acc);
  t[2] = Lo(acc);
  acc = static_cast<u128>(a1) * b2 + t[3] + Hi(acc);
  t[3] = Lo(acc);
  acc = static_cast<u128>(a1) * b3 + t[4] + Hi(acc);
  t[4] = Lo(acc);
  t[5] = Hi(acc);

  acc = static_cast<u128>(a2) * b0 + t[2];
  t[2] = Lo(acc);
  acc = static_cast<u128>(a2) * b1 + t[3] + Hi(acc);
  t[3] = Lo(acc);
  acc = static_cast<u128>(a2) * b2 + t[4] + Hi(acc);
  t[4] = Lo(acc);
  acc = static_cast<u128>(a2) * b3 + t[5] + Hi(acc);
  t[5] = Lo(acc);
  t[6] = Hi(acc);

  acc = static_cast<u128>(a3) * b0 + t[3];
  t[3] = Lo(acc);
  acc = static_cast<u128>(a3) * b1 + t[4] + Hi(acc);
  t[4] = Lo(acc);
  acc = static_cast<u128>(a3) * b2 + t[5] + Hi(acc);
  t[5] = Lo(acc);
  acc = static_cast<u128>(a3) * b3 + t[6] + Hi(acc);
  t[6] = Lo(acc);
  t[7] = Hi(acc);
  return FeReduce(t);
}

U256 FeSqr(const U256& x) {
  const u64 a0 = x.limbs[0], a1 = x.limbs[1], a2 = x.limbs[2], a3 = x.limbs[3];
  u64 t[8];
  // Off-diagonal products a_i·a_j (i < j) into t[1..6].
  u128 acc = static_cast<u128>(a0) * a1;
  t[1] = Lo(acc);
  acc = static_cast<u128>(a0) * a2 + Hi(acc);
  t[2] = Lo(acc);
  acc = static_cast<u128>(a0) * a3 + Hi(acc);
  t[3] = Lo(acc);
  t[4] = Hi(acc);
  acc = static_cast<u128>(a1) * a2 + t[3];
  t[3] = Lo(acc);
  acc = static_cast<u128>(a1) * a3 + t[4] + Hi(acc);
  t[4] = Lo(acc);
  t[5] = Hi(acc);
  acc = static_cast<u128>(a2) * a3 + t[5];
  t[5] = Lo(acc);
  t[6] = Hi(acc);
  // Double them.
  t[7] = t[6] >> 63;
  t[6] = (t[6] << 1) | (t[5] >> 63);
  t[5] = (t[5] << 1) | (t[4] >> 63);
  t[4] = (t[4] << 1) | (t[3] >> 63);
  t[3] = (t[3] << 1) | (t[2] >> 63);
  t[2] = (t[2] << 1) | (t[1] >> 63);
  t[1] = t[1] << 1;
  // Add the squares a_i^2 at limb 2i.
  u128 sq = static_cast<u128>(a0) * a0;
  t[0] = Lo(sq);
  acc = static_cast<u128>(t[1]) + Hi(sq);
  t[1] = Lo(acc);
  sq = static_cast<u128>(a1) * a1;
  acc = static_cast<u128>(t[2]) + Lo(sq) + Hi(acc);
  t[2] = Lo(acc);
  acc = static_cast<u128>(t[3]) + Hi(sq) + Hi(acc);
  t[3] = Lo(acc);
  sq = static_cast<u128>(a2) * a2;
  acc = static_cast<u128>(t[4]) + Lo(sq) + Hi(acc);
  t[4] = Lo(acc);
  acc = static_cast<u128>(t[5]) + Hi(sq) + Hi(acc);
  t[5] = Lo(acc);
  sq = static_cast<u128>(a3) * a3;
  acc = static_cast<u128>(t[6]) + Lo(sq) + Hi(acc);
  t[6] = Lo(acc);
  acc = static_cast<u128>(t[7]) + Hi(sq) + Hi(acc);
  t[7] = Lo(acc);
  return FeReduce(t);
}

U256 FeAdd(const U256& a, const U256& b) {
  u128 acc = static_cast<u128>(a.limbs[0]) + b.limbs[0];
  const u64 r0 = Lo(acc);
  acc = static_cast<u128>(a.limbs[1]) + b.limbs[1] + Hi(acc);
  const u64 r1 = Lo(acc);
  acc = static_cast<u128>(a.limbs[2]) + b.limbs[2] + Hi(acc);
  const u64 r2 = Lo(acc);
  acc = static_cast<u128>(a.limbs[3]) + b.limbs[3] + Hi(acc);
  return FeFinish(r0, r1, r2, Lo(acc), Hi(acc));
}

U256 FeSub(const U256& a, const U256& b) {
  std::uint64_t borrow = 0;
  U256 d = Sub(a, b, borrow);
  if (borrow == 0) return d;
  // d = a - b + 2^256; adding p means subtracting kFold, which cannot wrap
  // because a - b > -p.
  std::uint64_t unused = 0;
  return Sub(d, U256(kFold), unused);
}

U256 FeNeg(const U256& a) {
  if (a.IsZero()) return a;
  std::uint64_t borrow = 0;
  return Sub(kP, a, borrow);
}

U256 FeDbl(const U256& a) { return FeAdd(a, a); }

/// a^(2^n).
U256 FeSqrN(U256 a, int n) {
  for (int i = 0; i < n; ++i) a = FeSqr(a);
  return a;
}

/// a^(2^k - 1) for the block lengths of the inversion and square-root chains.
struct FeChain {
  U256 x2, x3, x22, x223;
};

FeChain FeOnesChain(const U256& a) {
  FeChain c;
  c.x2 = FeMul(FeSqr(a), a);
  c.x3 = FeMul(FeSqr(c.x2), a);
  const U256 x6 = FeMul(FeSqrN(c.x3, 3), c.x3);
  const U256 x9 = FeMul(FeSqrN(x6, 3), c.x3);
  const U256 x11 = FeMul(FeSqrN(x9, 2), c.x2);
  c.x22 = FeMul(FeSqrN(x11, 11), x11);
  const U256 x44 = FeMul(FeSqrN(c.x22, 22), c.x22);
  const U256 x88 = FeMul(FeSqrN(x44, 44), x44);
  const U256 x176 = FeMul(FeSqrN(x88, 88), x88);
  const U256 x220 = FeMul(FeSqrN(x176, 44), x44);
  c.x223 = FeMul(FeSqrN(x220, 3), c.x3);
  return c;
}

/// a^(p-2) = a^-1 (0 maps to 0). p - 2 has blocks of ones of lengths
/// 223, 22, 1, 2, 1 (high to low).
U256 FeInv(const U256& a) {
  const FeChain c = FeOnesChain(a);
  U256 t = FeMul(FeSqrN(c.x223, 23), c.x22);
  t = FeMul(FeSqrN(t, 5), a);
  t = FeMul(FeSqrN(t, 3), c.x2);
  return FeMul(FeSqrN(t, 2), a);
}

/// a^((p+1)/4), a square root of a whenever one exists (p ≡ 3 mod 4).
U256 FeSqrt(const U256& a) {
  const FeChain c = FeOnesChain(a);
  U256 t = FeMul(FeSqrN(c.x223, 23), c.x22);
  t = FeMul(FeSqrN(t, 6), c.x2);
  return FeSqrN(t, 2);
}

}  // namespace

// ---- Group arithmetic --------------------------------------------------------

JacobianPoint Double(const JacobianPoint& p) {
  if (p.IsInfinity() || p.y.IsZero()) return JacobianPoint::Infinity();
  // dbl-2009-l (a = 0): 2M + 5S.
  const U256 a = FeSqr(p.x);
  const U256 b = FeSqr(p.y);
  const U256 c = FeSqr(b);
  const U256 d = FeDbl(FeSub(FeSub(FeSqr(FeAdd(p.x, b)), a), c));
  const U256 e = FeAdd(FeDbl(a), a);
  const U256 x3 = FeSub(FeSqr(e), FeDbl(d));
  const U256 c8 = FeDbl(FeDbl(FeDbl(c)));
  const U256 y3 = FeSub(FeMul(e, FeSub(d, x3)), c8);
  const U256 z3 = FeMul(FeDbl(p.y), p.z);
  return {x3, y3, z3};
}

JacobianPoint AddJacobian(const JacobianPoint& p, const JacobianPoint& q) {
  if (p.IsInfinity()) return q;
  if (q.IsInfinity()) return p;
  // add-2007-bl: 11M + 5S.
  const U256 z1z1 = FeSqr(p.z);
  const U256 z2z2 = FeSqr(q.z);
  const U256 u1 = FeMul(p.x, z2z2);
  const U256 u2 = FeMul(q.x, z1z1);
  const U256 s1 = FeMul(FeMul(p.y, z2z2), q.z);
  const U256 s2 = FeMul(FeMul(q.y, z1z1), p.z);
  if (u1 == u2) {
    if (s1 == s2) return Double(p);
    return JacobianPoint::Infinity();
  }
  const U256 h = FeSub(u2, u1);
  const U256 i = FeSqr(FeDbl(h));
  const U256 j = FeMul(h, i);
  const U256 r = FeDbl(FeSub(s2, s1));
  const U256 v = FeMul(u1, i);
  const U256 x3 = FeSub(FeSub(FeSqr(r), j), FeDbl(v));
  const U256 y3 = FeSub(FeMul(r, FeSub(v, x3)), FeDbl(FeMul(s1, j)));
  const U256 z3 = FeMul(FeSub(FeSub(FeSqr(FeAdd(p.z, q.z)), z1z1), z2z2), h);
  return {x3, y3, z3};
}

namespace {

/// Affine table entry; never the point at infinity.
struct Ge {
  U256 x;
  U256 y;
};

/// p + q for an affine q (madd-2007-bl: 7M + 4S), including the doubling and
/// cancelling cases.
JacobianPoint AddGe(const JacobianPoint& p, const U256& qx, const U256& qy) {
  if (p.IsInfinity()) return {qx, qy, U256(1)};
  const U256 z1z1 = FeSqr(p.z);
  const U256 u2 = FeMul(qx, z1z1);
  const U256 s2 = FeMul(qy, FeMul(p.z, z1z1));
  const U256 h = FeSub(u2, p.x);
  const U256 r = FeDbl(FeSub(s2, p.y));
  if (h.IsZero()) {
    if (r.IsZero()) return Double(p);
    return JacobianPoint::Infinity();
  }
  const U256 hh = FeSqr(h);
  const U256 i = FeDbl(FeDbl(hh));
  const U256 j = FeMul(h, i);
  const U256 v = FeMul(p.x, i);
  const U256 x3 = FeSub(FeSub(FeSqr(r), j), FeDbl(v));
  const U256 y3 = FeSub(FeMul(r, FeSub(v, x3)), FeDbl(FeMul(p.y, j)));
  const U256 z3 = FeSub(FeSub(FeSqr(FeAdd(p.z, h)), z1z1), hh);
  return {x3, y3, z3};
}

/// Converts non-infinity Jacobian points to affine with one field inversion
/// (Montgomery's trick); out[i].x holds the running z-products meanwhile.
void BatchToAffine(const JacobianPoint* in, Ge* out, std::size_t n) {
  if (n == 0) return;
  out[0].x = in[0].z;
  for (std::size_t i = 1; i < n; ++i) out[i].x = FeMul(out[i - 1].x, in[i].z);
  U256 inv = FeInv(out[n - 1].x);  // (z_0 ⋯ z_{n-1})^-1
  for (std::size_t i = n; i-- > 0;) {
    U256 zinv = inv;
    if (i > 0) {
      zinv = FeMul(inv, out[i - 1].x);
      inv = FeMul(inv, in[i].z);
    }
    const U256 zinv2 = FeSqr(zinv);
    out[i].x = FeMul(in[i].x, zinv2);
    out[i].y = FeMul(in[i].y, FeMul(zinv2, zinv));
  }
}

/// out[i] = (2i+1)·p for i < count, in Jacobian coordinates.
void OddMultiples(const AffinePoint& p, std::size_t count, JacobianPoint* out) {
  out[0] = JacobianPoint::FromAffine(p);
  const JacobianPoint two = Double(out[0]);
  for (std::size_t i = 1; i < count; ++i) out[i] = AddJacobian(out[i - 1], two);
}

/// λ·q for each entry: (β·x, y).
void ApplyEndomorphism(const Ge* in, Ge* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = {FeMul(kBeta, in[i].x), in[i].y};
}

// wNAF widths: width-5 tables (8 odd multiples) are built per call for each
// variable point, width-8 tables (64 odd multiples) once for G and λG.
constexpr int kWindowP = 5;
constexpr int kWindowG = 8;
constexpr std::size_t kTableP = std::size_t{1} << (kWindowP - 2);
constexpr std::size_t kTableG = std::size_t{1} << (kWindowG - 2);

struct GeneratorWnafTables {
  std::array<Ge, kTableG> g;         // (2i+1)·G
  std::array<Ge, kTableG> lambda_g;  // (2i+1)·λG
};

const GeneratorWnafTables& GeneratorWnaf() {
  static const GeneratorWnafTables tables = [] {
    GeneratorWnafTables t;
    std::vector<JacobianPoint> jac(kTableG);
    OddMultiples(kG, kTableG, jac.data());
    BatchToAffine(jac.data(), t.g.data(), kTableG);
    ApplyEndomorphism(t.g.data(), t.lambda_g.data(), kTableG);
    return t;
  }();
  return tables;
}

// Fixed-base comb for k·G: window w holds j·16^w·G for j = 1..15, so a
// multiplication is one mixed addition per nonzero nibble and no doublings.
constexpr std::size_t kCombWindows = 64;
constexpr std::size_t kCombEntries = 15;
using CombTable = std::array<std::array<Ge, kCombEntries>, kCombWindows>;

const CombTable& GeneratorComb() {
  static const CombTable comb = [] {
    std::vector<JacobianPoint> jac(kCombWindows * kCombEntries);
    JacobianPoint base = JacobianPoint::FromAffine(kG);
    for (std::size_t w = 0; w < kCombWindows; ++w) {
      JacobianPoint* row = &jac[w * kCombEntries];
      row[0] = base;
      for (std::size_t j = 1; j < kCombEntries; ++j) row[j] = AddJacobian(row[j - 1], base);
      base = Double(row[7]);  // 16·base = 2·(8·base)
    }
    CombTable t;
    BatchToAffine(jac.data(), t[0].data(), jac.size());
    return t;
  }();
  return comb;
}

// ---- Scalars: GLV split and wNAF ---------------------------------------------

using internal::SignedScalar;

SignedScalar FromModN(const U256& r) {
  if (r > kHalfN) {
    std::uint64_t borrow = 0;
    return {Sub(kN, r, borrow), true};
  }
  return {r, false};
}

/// round(k·g / 2^384) for k < n.
U256 MulShift384(const U256& k, const U256& g) {
  const U512 prod = Mul(k, g);
  U256 c(prod.limbs[6], prod.limbs[7], 0, 0);
  std::uint64_t carry = 0;
  return Add(c, U256(prod.limbs[5] >> 63), carry);
}

/// Bits [pos, pos + count) of k (count <= 8); bits past 255 read as zero.
inline int BitsAt(const U256& k, int pos, int count) {
  if (pos >= 256) return 0;
  const std::size_t limb = static_cast<std::size_t>(pos) / 64;
  const int shift = pos % 64;
  u64 v = k.limbs[limb] >> shift;
  if (shift + count > 64 && limb + 1 < 4) v |= k.limbs[limb + 1] << (64 - shift);
  return static_cast<int>(v & ((u64{1} << count) - 1));
}

int BitLength(const U256& k) {
  for (int i = 3; i >= 0; --i) {
    const u64 limb = k.limbs[static_cast<std::size_t>(i)];
    if (limb != 0) return 64 * i + 64 - __builtin_clzll(limb);
  }
  return 0;
}

// Room for a full 256-bit magnitude plus the final carry position.
constexpr std::size_t kMaxWnaf = 257;

/// One wNAF digit stream of the shared ladder, added from an odd-multiples
/// table: digit d contributes sign(d)·table[(|d|-1)/2], negated again when
/// `negate` is set. The ladder reads every stream up to the longest one, so
/// digits past `length` must stay zero.
struct WnafStream {
  std::array<std::int8_t, kMaxWnaf> digits{};
  int length = 0;
  const Ge* table = nullptr;
  bool negate = false;
};

/// Width-w NAF of k into zeroed `digits`: odd digits in (-2^(w-1), 2^(w-1)),
/// any two nonzero digits at least w positions apart. Returns the number of
/// positions used.
int Wnaf(const U256& k, int w, std::int8_t* digits) {
  const int len = BitLength(k) + 1;
  int last_set = -1;
  int carry = 0;
  for (int bit = 0; bit < len;) {
    if (BitsAt(k, bit, 1) == carry) {
      ++bit;
      continue;
    }
    const int now = std::min(w, len - bit);
    int word = BitsAt(k, bit, now) + carry;
    carry = (word >> (w - 1)) & 1;
    word -= carry << w;
    digits[bit] = static_cast<std::int8_t>(word);
    last_set = bit;
    bit += now;
  }
  return last_set + 1;
}

void AddStream(std::vector<WnafStream>& streams, const SignedScalar& k, int w,
               const Ge* table) {
  if (k.magnitude.IsZero()) return;
  WnafStream& s = streams.emplace_back();
  s.length = Wnaf(k.magnitude, w, s.digits.data());
  s.table = table;
  s.negate = k.negative;
}

/// Σ over streams, with one doubling per digit position (Strauss–Shamir).
JacobianPoint RunLadder(const std::vector<WnafStream>& streams) {
  int top = 0;
  for (const WnafStream& s : streams) top = std::max(top, s.length);
  JacobianPoint acc = JacobianPoint::Infinity();
  for (int i = top - 1; i >= 0; --i) {
    acc = Double(acc);
    for (const WnafStream& s : streams) {
      const int d = s.digits[static_cast<std::size_t>(i)];
      if (d == 0) continue;
      const Ge& e = s.table[static_cast<std::size_t>((d < 0 ? -d : d) >> 1)];
      acc = AddGe(acc, e.x, (d < 0) != s.negate ? FeNeg(e.y) : e.y);
    }
  }
  return acc;
}

/// g_scalar·G + Σ terms[i].scalar·terms[i].point. Every scalar is reduced mod
/// n and split by GLV; G's halves use the static width-8 tables, each other
/// point gets width-5 tables of P and λP, all normalised with one inversion.
JacobianPoint GlvMultiply(const U256& g_scalar, const MsmTerm* terms, std::size_t n) {
  const ModArith& fn = FnArith();
  U256 g_sum = fn.Reduce(g_scalar);
  std::vector<MsmTerm> live;  // the other points, scalars reduced and nonzero
  live.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const U256 k = fn.Reduce(terms[i].scalar);
    if (terms[i].point.infinity || k.IsZero()) continue;
    if (terms[i].point == kG) {
      g_sum = fn.Add(g_sum, k);
    } else {
      live.push_back({k, terms[i].point});
    }
  }

  // tables[i·8 ..] holds the odd multiples of P_i; the second half holds
  // those of λP_i at the same offsets.
  const std::size_t n_entries = live.size() * kTableP;
  std::vector<JacobianPoint> jac(n_entries);
  for (std::size_t i = 0; i < live.size(); ++i) {
    OddMultiples(live[i].point, kTableP, &jac[i * kTableP]);
  }
  std::vector<Ge> tables(2 * n_entries);
  BatchToAffine(jac.data(), tables.data(), n_entries);
  ApplyEndomorphism(tables.data(), tables.data() + n_entries, n_entries);

  std::vector<WnafStream> streams;
  streams.reserve(2 * live.size() + 2);
  SignedScalar k1, k2;
  if (!g_sum.IsZero()) {
    const GeneratorWnafTables& gt = GeneratorWnaf();
    internal::SplitLambda(g_sum, k1, k2);
    AddStream(streams, k1, kWindowG, gt.g.data());
    AddStream(streams, k2, kWindowG, gt.lambda_g.data());
  }
  for (std::size_t i = 0; i < live.size(); ++i) {
    internal::SplitLambda(live[i].scalar, k1, k2);
    AddStream(streams, k1, kWindowP, &tables[i * kTableP]);
    AddStream(streams, k2, kWindowP, &tables[n_entries + i * kTableP]);
  }
  return RunLadder(streams);
}

}  // namespace

namespace internal {

const U256& GlvLambda() { return kLambda; }
const U256& GlvBeta() { return kBeta; }

void SplitLambda(const U256& k, SignedScalar& k1, SignedScalar& k2) {
  const ModArith& fn = FnArith();
  const U256 c1 = MulShift384(k, kG1);
  const U256 c2 = MulShift384(k, kG2);
  const U256 r2 = fn.Add(fn.Mul(c1, kMinusB1), fn.Mul(c2, kMinusB2));
  const U256 r1 = fn.Sub(k, fn.Mul(r2, kLambda));
  k1 = FromModN(r1);
  k2 = FromModN(r2);
}

}  // namespace internal

const ModArith& Secp256k1Params::Fp() const { return FpArith(); }
const ModArith& Secp256k1Params::Fn() const { return FnArith(); }
const U256& Secp256k1Params::P() const { return kP; }
const U256& Secp256k1Params::N() const { return kN; }

const Secp256k1Params& Curve() {
  static const Secp256k1Params params;
  return params;
}

const AffinePoint& Generator() { return kG; }

Bytes AffinePoint::Serialize() const {
  if (infinity) throw std::logic_error("AffinePoint::Serialize: infinity");
  Bytes out = x.ToBytesBE();
  Bytes ybytes = y.ToBytesBE();
  out.insert(out.end(), ybytes.begin(), ybytes.end());
  return out;
}

std::optional<AffinePoint> AffinePoint::Deserialize(ByteView bytes64) {
  if (bytes64.size() != 64) return std::nullopt;
  AffinePoint p;
  p.x = U256::FromBytesBE(bytes64.subspan(0, 32));
  p.y = U256::FromBytesBE(bytes64.subspan(32, 32));
  p.infinity = false;
  if (p.x >= kP || p.y >= kP) return std::nullopt;
  if (!p.IsOnCurve()) return std::nullopt;
  return p;
}

bool AffinePoint::IsOnCurve() const {
  if (infinity) return false;
  return FeSqr(y) == FeAdd(FeMul(FeSqr(x), x), U256(7));
}

JacobianPoint JacobianPoint::Infinity() { return {U256(1), U256(1), U256(0)}; }

JacobianPoint JacobianPoint::FromAffine(const AffinePoint& p) {
  if (p.infinity) return Infinity();
  return {p.x, p.y, U256(1)};
}

AffinePoint JacobianPoint::ToAffine() const {
  if (IsInfinity()) return {U256(0), U256(0), true};
  const U256 zinv = FeInv(z);
  const U256 zinv2 = FeSqr(zinv);
  return {FeMul(x, zinv2), FeMul(y, FeMul(zinv2, zinv)), false};
}

JacobianPoint AddMixed(const JacobianPoint& p, const AffinePoint& q) {
  if (q.infinity) return p;
  return AddGe(p, q.x, q.y);
}

JacobianPoint ScalarMul(const U256& k, const AffinePoint& p) {
  const MsmTerm term{k, p};
  return GlvMultiply(U256(0), &term, 1);
}

JacobianPoint ScalarMulBase(const U256& k) {
  const CombTable& comb = GeneratorComb();
  JacobianPoint acc = JacobianPoint::Infinity();
  for (std::size_t w = 0; w < kCombWindows; ++w) {
    const unsigned nibble =
        static_cast<unsigned>(k.limbs[w / 16] >> ((w % 16) * 4)) & 0xfu;
    if (nibble != 0) {
      const Ge& e = comb[w][nibble - 1];
      acc = AddGe(acc, e.x, e.y);
    }
  }
  return acc;
}

JacobianPoint DoubleScalarMul(const U256& a, const U256& b, const AffinePoint& p) {
  if (p.infinity || b.IsZero()) return ScalarMulBase(a);
  const MsmTerm term{b, p};
  return GlvMultiply(a, &term, 1);
}

JacobianPoint MultiScalarMul(const MsmTerm* terms, std::size_t n) {
  return GlvMultiply(U256(0), terms, n);
}

std::optional<AffinePoint> LiftX(const U256& x) {
  if (x >= kP) return std::nullopt;
  const U256 rhs = FeAdd(FeMul(FeSqr(x), x), U256(7));
  U256 y = FeSqrt(rhs);
  if (FeSqr(y) != rhs) return std::nullopt;
  if (y.IsOdd()) y = FeNeg(y);
  return AffinePoint{x, y, false};
}

}  // namespace dcert::crypto

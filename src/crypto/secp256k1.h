// secp256k1 group arithmetic (Jacobian coordinates over a specialised mod-p
// field). Only what the signature scheme needs: point add/double, scalar
// multiplication, and (de)serialization of affine points.
#pragma once

#include <optional>

#include "crypto/u256.h"

namespace dcert::crypto {

/// Field and group parameters of secp256k1.
struct Secp256k1Params {
  const ModArith& Fp() const;     // arithmetic mod the field prime p
  const ModArith& Fn() const;     // arithmetic mod the group order n
  const U256& P() const;          // field prime
  const U256& N() const;          // group order
};

/// Singleton accessor (the parameter tables are immutable).
const Secp256k1Params& Curve();

/// Affine point; infinity is represented by the dedicated flag.
struct AffinePoint {
  U256 x;
  U256 y;
  bool infinity = false;

  /// 64-byte uncompressed encoding x||y (big-endian). Infinity is not
  /// serializable — callers must never sign/publish it.
  Bytes Serialize() const;
  static std::optional<AffinePoint> Deserialize(ByteView bytes64);

  /// True iff the point satisfies y^2 = x^3 + 7 over Fp.
  bool IsOnCurve() const;
  bool operator==(const AffinePoint&) const = default;
};

/// Jacobian point (X/Z^2, Y/Z^3) for inversion-free chains of operations.
struct JacobianPoint {
  U256 x;
  U256 y;
  U256 z;  // z == 0 encodes infinity

  static JacobianPoint Infinity();
  static JacobianPoint FromAffine(const AffinePoint& p);
  AffinePoint ToAffine() const;
  bool IsInfinity() const { return z.IsZero(); }
};

JacobianPoint Double(const JacobianPoint& p);
JacobianPoint AddJacobian(const JacobianPoint& p, const JacobianPoint& q);
JacobianPoint AddMixed(const JacobianPoint& p, const AffinePoint& q);

/// k * P (GLV split, wNAF ladder).
JacobianPoint ScalarMul(const U256& k, const AffinePoint& p);
/// k * G with the fixed generator (precomputed comb, no doublings).
JacobianPoint ScalarMulBase(const U256& k);
/// a*G + b*P — the verifier's workhorse (Shamir's trick).
JacobianPoint DoubleScalarMul(const U256& a, const U256& b, const AffinePoint& p);

/// One term of a multi-scalar multiplication.
struct MsmTerm {
  U256 scalar;
  AffinePoint point;
};

/// Σ scalar_i * point_i with one shared doubling ladder (Strauss): ~129
/// doublings total regardless of n, plus ~43 wNAF additions per term after
/// the GLV split. The batch verifier's workhorse.
JacobianPoint MultiScalarMul(const MsmTerm* terms, std::size_t n);

/// The even-Y curve point with x-coordinate `x`, or nullopt when x is not on
/// the curve (or >= p). BIP340-style x-only decompression.
std::optional<AffinePoint> LiftX(const U256& x);

const AffinePoint& Generator();

}  // namespace dcert::crypto

// Internals of the secp256k1 kernel, exposed for the differential tests: the
// GLV endomorphism constants and the scalar split that the multiplication
// ladder runs on.
#pragma once

#include "crypto/u256.h"

namespace dcert::crypto::internal {

/// λ (mod n) and β (mod p) with λ·(x, y) = (β·x, y) for every curve point.
const U256& GlvLambda();
const U256& GlvBeta();

/// (negative ? -1 : 1) · magnitude.
struct SignedScalar {
  U256 magnitude;
  bool negative = false;
};

/// Splits k (< n) into k1 + λ·k2 ≡ k (mod n) with |k1|, |k2| < 2^128.
void SplitLambda(const U256& k, SignedScalar& k1, SignedScalar& k2);

}  // namespace dcert::crypto::internal

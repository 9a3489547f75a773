//! The secp256k1 elliptic curve and ECDSA, from scratch.
//!
//! Implements the curve `y² = x³ + 7` over the prime field
//! `p = 2^256 − 2^32 − 977`, with group order `n`, Jacobian-coordinate point
//! arithmetic, and ECDSA with deterministic (RFC-6979-style, Keccak-based)
//! nonces.
//!
//! Both moduli lie just below `2^256`, so a 512-bit product reduces by
//! folding its high half back in: `2^256 ≡ 2^32 + 977 (mod p)` and
//! `2^256 ≡ 2^256 − n (mod n)`, a 129-bit constant. Both inverses (mod `p`
//! and mod `n`) use one binary extended Euclidean algorithm.
//!
//! Verification computes `u1·G + u2·Q` by Shamir's trick: one shared
//! doubling chain over width-`w` NAF digits of both scalars, adding odd
//! multiples of `G` from a table built once and odd multiples of `Q` built
//! per call and made affine with one batched inversion. The final
//! `x(R) ≡ r (mod n)` test runs in Jacobian coordinates, so a verify makes
//! two inversions: the batched one for `Q`'s table, and `s⁻¹`.
//!
//! This is an educational implementation: it is *not* constant-time (the
//! NAF digits, table lookups and inversions all depend on secret values)
//! and must never guard real funds. Within the simulation it provides
//! authentic transaction authentication semantics (unforgeability against
//! the simulated adversaries, who do not mount timing attacks).

use crate::keccak::Keccak256;
use crate::u256::U256;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// The field prime `p = 2^256 − 2^32 − 977`.
const P: U256 = U256::from_limbs([0xFFFF_FFFE_FFFF_FC2F, u64::MAX, u64::MAX, u64::MAX]);

/// `2^256 − p = 2^32 + 977`, so `2^256 ≡ P_FOLD (mod p)`.
const P_FOLD: u64 = 0x1_0000_03D1;

/// The group order `n`.
const N: U256 = U256::from_limbs([
    0xBFD2_5E8C_D036_4141,
    0xBAAE_DCE6_AF48_A03B,
    0xFFFF_FFFF_FFFF_FFFE,
    u64::MAX,
]);

/// `2^256 − n` (129 bits, little-endian limbs), so `2^256 ≡ N_FOLD (mod n)`.
const N_FOLD: [u64; 3] = [0x402D_A173_2FC9_BEBF, 0x4551_2319_50B7_5FC4, 1];

/// NAF width for the multiples of `G`: a 64-point (4.5 KiB) static table.
const G_WINDOW: usize = 8;

/// NAF width for the multiples of any other point: an 8-point table per call.
const P_WINDOW: usize = 5;

/// The field prime `p = 2^256 − 2^32 − 977`.
pub fn field_prime() -> &'static U256 {
    &P
}

/// The group order `n`.
pub fn group_order() -> &'static U256 {
    &N
}

/// The generator point `G`.
pub fn generator() -> &'static AffinePoint {
    static G: OnceLock<AffinePoint> = OnceLock::new();
    G.get_or_init(|| AffinePoint {
        x: U256::from_hex("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"),
        y: U256::from_hex("483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8"),
        infinity: false,
    })
}

// Field arithmetic modulo p. Inputs are reduced (`< p`) except for `fmul`
// and `fsqr`, whose fold reduces any 512-bit product; every output is
// reduced, so equal elements have equal limbs.

/// Multiplies two field elements modulo `p`.
fn fmul(a: &U256, b: &U256) -> U256 {
    reduce_p(a.widening_mul(b))
}

/// Squares a field element.
fn fsqr(a: &U256) -> U256 {
    fmul(a, a)
}

/// Reduces a 512-bit value modulo `p` by folding `2^256 ≡ P_FOLD` twice,
/// then at most one conditional subtraction.
fn reduce_p(w: [u64; 8]) -> U256 {
    // First fold: lo + hi·P_FOLD < 2^290, the fifth limb left in `acc`.
    let mut r = [0u64; 4];
    let mut acc = 0u128;
    for i in 0..4 {
        acc += w[i] as u128 + w[i + 4] as u128 * P_FOLD as u128;
        r[i] = acc as u64;
        acc >>= 64;
    }
    // Second fold: the fifth limb (< 2^34) times P_FOLD is < 2^68.
    acc *= P_FOLD as u128;
    for limb in &mut r {
        acc += *limb as u128;
        *limb = acc as u64;
        acc >>= 64;
    }
    // Subtracting p is adding P_FOLD modulo 2^256. It is due when the second
    // fold wrapped past 2^256 (what is left is then < 2^68, so adding cannot
    // wrap again) or when r ≥ p, which is exactly when adding wraps.
    let r = U256::from_limbs(r);
    let (reduced, wrapped) = r.overflowing_add(&U256::from_u64(P_FOLD));
    if acc != 0 || wrapped {
        reduced
    } else {
        r
    }
}

/// `a + b (mod p)`: as in `reduce_p`, subtracting p is adding `P_FOLD`.
fn fadd(a: &U256, b: &U256) -> U256 {
    let (sum, carry) = a.overflowing_add(b);
    let (reduced, wrapped) = sum.overflowing_add(&U256::from_u64(P_FOLD));
    if carry || wrapped {
        reduced
    } else {
        sum
    }
}

/// `a − b (mod p)`: on a borrow, adding p is subtracting `P_FOLD`.
fn fsub(a: &U256, b: &U256) -> U256 {
    let (diff, borrow) = a.overflowing_sub(b);
    if borrow {
        diff.overflowing_sub(&U256::from_u64(P_FOLD)).0
    } else {
        diff
    }
}

/// `−a (mod p)`.
fn fneg(a: &U256) -> U256 {
    fsub(&U256::ZERO, a)
}

/// `a / 2 (mod p)`.
fn fhalf(a: &U256) -> U256 {
    half_mod(a, &P)
}

/// `a⁻¹ (mod p)`, with 0 mapping to 0.
fn finv(a: &U256) -> U256 {
    inv_mod(a, &P)
}

// Scalar arithmetic modulo n.

/// Reduces any 256-bit value modulo `n`: one conditional subtraction, since
/// `2^256 < 2n`.
fn nreduce(a: &U256) -> U256 {
    if a >= &N {
        a.overflowing_sub(&N).0
    } else {
        *a
    }
}

/// Multiplies two scalars modulo `n`.
fn nmul(a: &U256, b: &U256) -> U256 {
    reduce_n(a.widening_mul(b))
}

/// Reduces a 512-bit value modulo `n`. Each fold replaces the high half by
/// its product with `N_FOLD`: below 2^386, 2^260, 2^256 + 2^133, then
/// 2^256, and one conditional subtraction finishes.
fn reduce_n(w: [u64; 8]) -> U256 {
    let w = (0..4).fold(w, |w, _| fold_n(&w));
    debug_assert_eq!(w[4..], [0; 4]);
    nreduce(&U256::from_limbs([w[0], w[1], w[2], w[3]]))
}

/// `lo + hi·N_FOLD` for the halves `lo`, `hi` of `w`.
fn fold_n(w: &[u64; 8]) -> [u64; 8] {
    let mut out = [w[0], w[1], w[2], w[3], 0, 0, 0, 0];
    for (i, &hi) in w[4..].iter().enumerate() {
        if hi == 0 {
            continue;
        }
        let mut acc = 0u128;
        for (j, &c) in N_FOLD.iter().enumerate() {
            acc += out[i + j] as u128 + hi as u128 * c as u128;
            out[i + j] = acc as u64;
            acc >>= 64;
        }
        for limb in &mut out[i + N_FOLD.len()..] {
            acc += *limb as u128;
            *limb = acc as u64;
            acc >>= 64;
        }
    }
    out
}

/// `a⁻¹ (mod n)` for `a ≠ 0`.
fn ninv(a: &U256) -> U256 {
    inv_mod(a, &N)
}

// Inversion, shared by both moduli.

/// `a⁻¹ (mod m)` for an odd prime `m` and `a < m` (0 maps to 0), by the
/// binary extended Euclidean algorithm. It keeps `x1·a ≡ u` and `x2·a ≡ v`
/// from `(u, v) = (a, m)`, strips factors of two from `u` and `v` and
/// subtracts the smaller from the larger until one of them is 1. The odd
/// `u ≠ v` differ by an even amount, so each round takes at least one bit
/// off `u` or `v`: at most 512 rounds.
fn inv_mod(a: &U256, m: &U256) -> U256 {
    debug_assert!(a < m);
    if a.is_zero() {
        return U256::ZERO;
    }
    let (mut u, mut v) = (*a, *m);
    let (mut x1, mut x2) = (U256::ONE, U256::ZERO);
    let mut rounds = 0;
    loop {
        rounds += 1;
        debug_assert!(rounds <= 512, "binary GCD did not converge");
        strip_twos(&mut u, &mut x1, m);
        strip_twos(&mut v, &mut x2, m);
        if u == U256::ONE {
            return x1;
        }
        if v == U256::ONE {
            return x2;
        }
        if u >= v {
            u = u.overflowing_sub(&v).0;
            x1 = x1.sub_mod(&x2, m);
        } else {
            v = v.overflowing_sub(&u).0;
            x2 = x2.sub_mod(&x1, m);
        }
    }
}

/// Divides a non-zero `u` by its largest power-of-two factor `2^k`, and `x`
/// by `2^k` modulo `m`. Whole zero limbs go first, then the remaining
/// `k mod 64` bits; `u` is stored back after both, so a `u` whose low limb
/// alone is zero keeps `x·a ≡ u`.
fn strip_twos(u: &mut U256, x: &mut U256, m: &U256) {
    let mut limbs = u.to_limbs();
    while limbs[0] == 0 {
        limbs = [limbs[1], limbs[2], limbs[3], 0];
        for _ in 0..64 {
            *x = half_mod(x, m);
        }
    }
    let k = limbs[0].trailing_zeros();
    if k > 0 {
        for i in 0..3 {
            limbs[i] = limbs[i] >> k | limbs[i + 1] << (64 - k);
        }
        limbs[3] >>= k;
        for _ in 0..k {
            *x = half_mod(x, m);
        }
    }
    *u = U256::from_limbs(limbs);
}

/// `x / 2 (mod m)` for odd `m` and `x < m`: `x` or `x + m`, whichever is
/// even, shifted right (the sum's carry becomes the top bit). Branch-free,
/// since the parity is a coin flip the predictor would miss half the time.
fn half_mod(x: &U256, m: &U256) -> U256 {
    let (x, m) = (x.to_limbs(), m.to_limbs());
    let mask = 0u64.wrapping_sub(x[0] & 1);
    let mut sum = [0u64; 4];
    let mut acc = 0u128;
    for i in 0..4 {
        acc += x[i] as u128 + (m[i] & mask) as u128;
        sum[i] = acc as u64;
        acc >>= 64;
    }
    let top = acc as u64;
    U256::from_limbs([
        sum[0] >> 1 | sum[1] << 63,
        sum[1] >> 1 | sum[2] << 63,
        sum[2] >> 1 | sum[3] << 63,
        sum[3] >> 1 | top << 63,
    ])
}

/// A point on secp256k1 in affine coordinates (or the point at infinity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AffinePoint {
    /// x-coordinate.
    pub x: U256,
    /// y-coordinate.
    pub y: U256,
    /// Whether this is the identity element.
    pub infinity: bool,
}

impl AffinePoint {
    /// The point at infinity (group identity).
    pub const INFINITY: AffinePoint = AffinePoint {
        x: U256::ZERO,
        y: U256::ZERO,
        infinity: true,
    };

    /// Checks the curve equation `y² = x³ + 7 (mod p)` for coordinates in
    /// `[0, p)`; a coordinate `≥ p` is not a field element and fails.
    pub fn is_on_curve(&self) -> bool {
        if self.infinity {
            return true;
        }
        if self.x >= P || self.y >= P {
            return false;
        }
        let lhs = fsqr(&self.y);
        let rhs = fadd(&fmul(&fsqr(&self.x), &self.x), &U256::from_u64(7));
        lhs == rhs
    }

    /// Serializes as 64 bytes (x ‖ y, big-endian). Infinity is all zeros.
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        if !self.infinity {
            out[..32].copy_from_slice(&self.x.to_be_bytes());
            out[32..].copy_from_slice(&self.y.to_be_bytes());
        }
        out
    }

    /// The inverse point `(x, −y)`.
    fn negate(&self) -> AffinePoint {
        AffinePoint {
            y: fneg(&self.y),
            ..*self
        }
    }
}

impl fmt::Display for AffinePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.infinity {
            write!(f, "Point(infinity)")
        } else {
            write!(f, "Point({}, {})", self.x, self.y)
        }
    }
}

/// A point in Jacobian projective coordinates `(X, Y, Z)` with
/// `x = X/Z²`, `y = Y/Z³`.
#[derive(Debug, Clone, Copy)]
struct JacobianPoint {
    x: U256,
    y: U256,
    z: U256,
}

impl JacobianPoint {
    const INFINITY: JacobianPoint = JacobianPoint {
        x: U256::ONE,
        y: U256::ONE,
        z: U256::ZERO,
    };

    fn from_affine(p: &AffinePoint) -> Self {
        if p.infinity {
            JacobianPoint::INFINITY
        } else {
            JacobianPoint {
                x: p.x,
                y: p.y,
                z: U256::ONE,
            }
        }
    }

    fn is_infinity(&self) -> bool {
        self.z.is_zero()
    }

    fn to_affine(self) -> AffinePoint {
        if self.is_infinity() {
            return AffinePoint::INFINITY;
        }
        self.scaled(&finv(&self.z))
    }

    /// The affine point, given `zinv = Z⁻¹`.
    fn scaled(&self, zinv: &U256) -> AffinePoint {
        let zinv2 = fsqr(zinv);
        let zinv3 = fmul(&zinv2, zinv);
        AffinePoint {
            x: fmul(&self.x, &zinv2),
            y: fmul(&self.y, &zinv3),
            infinity: false,
        }
    }

    /// Point doubling (a = 0). These are the dbl-2009-l results scaled by
    /// `λ = 1/2`, the same point: `L = 3X²/2`, `S = Y²`, `T = −X·S`,
    /// `X3 = L² + 2T`, `Y3 = −(L·(X3 + T) + S²)`, `Z3 = Y·Z`.
    fn double(&self) -> JacobianPoint {
        if self.is_infinity() || self.y.is_zero() {
            return JacobianPoint::INFINITY;
        }
        let s = fsqr(&self.y);
        let xx = fsqr(&self.x);
        let l = fhalf(&fadd(&fadd(&xx, &xx), &xx));
        let t = fneg(&fmul(&self.x, &s));
        let x3 = fadd(&fsqr(&l), &fadd(&t, &t));
        let y3 = fneg(&fadd(&fmul(&l, &fadd(&x3, &t)), &fsqr(&s)));
        JacobianPoint {
            x: x3,
            y: y3,
            z: fmul(&self.y, &self.z),
        }
    }

    /// Mixed addition of a Jacobian point and an affine point: with
    /// `H = x2·Z1² − X1` and `R = y2·Z1³ − Y1`, `X3 = R² − H³ − 2·X1·H²`,
    /// `Y3 = R·(X1·H² − X3) − Y1·H³`, `Z3 = Z1·H`.
    fn add_affine(&self, q: &AffinePoint) -> JacobianPoint {
        if q.infinity {
            return *self;
        }
        if self.is_infinity() {
            return JacobianPoint::from_affine(q);
        }
        let z1z1 = fsqr(&self.z);
        let h = fsub(&fmul(&q.x, &z1z1), &self.x);
        let r = fsub(&fmul(&fmul(&q.y, &z1z1), &self.z), &self.y);
        if h.is_zero() {
            return if r.is_zero() {
                self.double()
            } else {
                JacobianPoint::INFINITY
            };
        }
        JacobianPoint::add_tail(&h, &r, &self.x, &self.y, fmul(&self.z, &h))
    }

    /// Addition of two Jacobian points: the formulas of `add_affine` with
    /// `U1 = X1·Z2²`, `S1 = Y1·Z2³` for `X1`, `Y1` and `Z3 = Z1·Z2·H`.
    fn add(&self, q: &JacobianPoint) -> JacobianPoint {
        if q.is_infinity() {
            return *self;
        }
        if self.is_infinity() {
            return *q;
        }
        let z1z1 = fsqr(&self.z);
        let z2z2 = fsqr(&q.z);
        let u1 = fmul(&self.x, &z2z2);
        let s1 = fmul(&fmul(&self.y, &z2z2), &q.z);
        let h = fsub(&fmul(&q.x, &z1z1), &u1);
        let r = fsub(&fmul(&fmul(&q.y, &z1z1), &self.z), &s1);
        if h.is_zero() {
            return if r.is_zero() {
                self.double()
            } else {
                JacobianPoint::INFINITY
            };
        }
        JacobianPoint::add_tail(&h, &r, &u1, &s1, fmul(&fmul(&self.z, &q.z), &h))
    }

    /// The common tail of both additions, from `H`, `R`, `U1`, `S1`, `Z3`.
    fn add_tail(h: &U256, r: &U256, u1: &U256, s1: &U256, z3: U256) -> JacobianPoint {
        let hh = fsqr(h);
        let hhh = fmul(h, &hh);
        let v = fmul(u1, &hh);
        let x3 = fsub(&fsub(&fsqr(r), &hhh), &fadd(&v, &v));
        let y3 = fsub(&fmul(r, &fsub(&v, &x3)), &fmul(s1, &hhh));
        JacobianPoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }
}

/// Converts finite Jacobian points to affine with a single inversion
/// (Montgomery's trick: invert the product of every `Z`, then peel off one
/// factor per point).
fn batch_to_affine(points: &[JacobianPoint]) -> Vec<AffinePoint> {
    let mut prefix = Vec::with_capacity(points.len());
    let mut product = U256::ONE;
    for p in points {
        debug_assert!(!p.is_infinity());
        product = fmul(&product, &p.z);
        prefix.push(product);
    }
    // `inv` is (Z_0 ⋯ Z_i)⁻¹ as i walks down.
    let mut inv = finv(&product);
    let mut out = vec![AffinePoint::INFINITY; points.len()];
    for i in (0..points.len()).rev() {
        let zinv = if i == 0 {
            inv
        } else {
            fmul(&inv, &prefix[i - 1])
        };
        inv = fmul(&inv, &points[i].z);
        out[i] = points[i].scaled(&zinv);
    }
    out
}

/// The odd multiples `P, 3P, …, (2^(w−1) − 1)·P` of a finite point, affine.
fn odd_multiples(p: &AffinePoint, w: usize) -> Vec<AffinePoint> {
    let first = JacobianPoint::from_affine(p);
    let twice = first.double();
    let mut multiples = vec![first];
    for i in 1..1 << (w - 2) {
        let next = multiples[i - 1].add(&twice);
        multiples.push(next);
    }
    batch_to_affine(&multiples)
}

/// The odd multiples of `G` for [`G_WINDOW`], built on first use.
fn g_table() -> &'static [AffinePoint] {
    static TABLE: OnceLock<Vec<AffinePoint>> = OnceLock::new();
    TABLE.get_or_init(|| odd_multiples(generator(), G_WINDOW))
}

/// Digits of a width-`w` NAF: `k = Σ dᵢ·2^i`, each `dᵢ` zero or odd with
/// `|dᵢ| < 2^(w−1)`, and at most one non-zero digit in any `w` consecutive
/// positions. A 256-bit `k` needs 257 positions.
type Naf = [i8; 257];

/// The width-`w` NAF of `k` (`2 ≤ w ≤ 8`).
fn wnaf(k: &U256, w: usize) -> Naf {
    let limbs = k.to_limbs();
    // `count` (≤ 8) bits of k from `pos` on, zero past bit 255.
    let bits = |pos: usize, count: usize| -> u64 {
        let (limb, shift) = (pos / 64, pos % 64);
        if limb >= 4 {
            return 0;
        }
        let mut v = limbs[limb] >> shift;
        if shift + count > 64 && limb + 1 < 4 {
            v |= limbs[limb + 1] << (64 - shift);
        }
        v & ((1 << count) - 1)
    };
    let mut digits = [0i8; 257];
    let mut carry = 0;
    let mut pos = 0;
    while pos < digits.len() {
        if bits(pos, 1) == carry {
            pos += 1;
            continue;
        }
        let word = bits(pos, w) + carry;
        carry = word >> (w - 1) & 1;
        digits[pos] = (word as i64 - ((carry as i64) << w)) as i8;
        pos += w;
    }
    debug_assert_eq!(carry, 0);
    digits
}

/// `Σ kᵢ·Pᵢ` over `(NAF of kᵢ, odd multiples of Pᵢ)` terms, sharing one
/// doubling chain (Shamir's trick).
fn linear_combination(terms: &[(&Naf, &[AffinePoint])]) -> JacobianPoint {
    let mut acc = JacobianPoint::INFINITY;
    let top = terms
        .iter()
        .filter_map(|(digits, _)| digits.iter().rposition(|&d| d != 0))
        .max();
    let Some(top) = top else {
        return acc;
    };
    for i in (0..=top).rev() {
        acc = acc.double();
        for (digits, table) in terms {
            let d = digits[i];
            if d > 0 {
                acc = acc.add_affine(&table[d as usize / 2]);
            } else if d < 0 {
                acc = acc.add_affine(&table[d.unsigned_abs() as usize / 2].negate());
            }
        }
    }
    acc
}

/// `k·G` from the static table.
fn mul_g(k: &U256) -> JacobianPoint {
    linear_combination(&[(&wnaf(k, G_WINDOW), g_table())])
}

/// `true` when the affine x of `point` is `≡ r (mod n)`, tested without an
/// inversion. Since `x < p < 2n`, `x` is `r` or `r + n`, and the latter only
/// when `r + n < p`; so compare `X` against `r·Z²` and `(r + n)·Z²`.
fn x_matches_scalar(point: &JacobianPoint, r: &U256) -> bool {
    if point.is_infinity() {
        return false;
    }
    let zz = fsqr(&point.z);
    if fmul(r, &zz) == point.x {
        return true;
    }
    let (r_plus_n, carry) = r.overflowing_add(&N);
    !carry && r_plus_n < P && fmul(&r_plus_n, &zz) == point.x
}

/// Scalar multiplication `k·P` (`k` taken modulo `n`) for a point `P` on the
/// curve, by width-5 NAF over a table of `P`'s odd multiples.
pub fn scalar_mul(k: &U256, p: &AffinePoint) -> AffinePoint {
    if p.infinity {
        return AffinePoint::INFINITY;
    }
    let table = odd_multiples(p, P_WINDOW);
    linear_combination(&[(&wnaf(&nreduce(k), P_WINDOW), &table)]).to_affine()
}

/// An ECDSA secret key (a non-zero scalar modulo `n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecretKey {
    scalar: U256,
}

impl SecretKey {
    /// Creates a secret key from a scalar, reducing modulo `n`.
    ///
    /// Returns `None` for the zero scalar.
    pub fn from_scalar(scalar: U256) -> Option<Self> {
        let reduced = nreduce(&scalar);
        if reduced.is_zero() {
            None
        } else {
            Some(SecretKey { scalar: reduced })
        }
    }

    /// Derives a key deterministically from a 64-bit seed (test/simulation
    /// convenience; hashes the seed so nearby seeds give unrelated keys).
    pub fn from_seed(seed: u64) -> Self {
        let mut h = Keccak256::new();
        h.update(b"parole-secret-key");
        h.update(&seed.to_be_bytes());
        let digest = h.finalize();
        SecretKey::from_scalar(U256::from_be_bytes(digest.as_bytes()))
            .expect("hash output is astronomically unlikely to be 0 mod n")
    }

    /// The corresponding public key `d·G`.
    pub fn public_key(&self) -> PublicKey {
        PublicKey {
            point: mul_g(&self.scalar).to_affine(),
        }
    }

    /// Signs a 32-byte message digest with a deterministic nonce.
    ///
    /// The nonce is `keccak(d ‖ z ‖ ctr) mod n`, retried on the (negligible)
    /// degenerate cases — the same determinism benefit as RFC 6979 without
    /// the full HMAC-DRBG construction.
    pub fn sign(&self, digest: &[u8; 32]) -> Signature {
        let z = nreduce(&U256::from_be_bytes(digest));
        let mut ctr: u64 = 0;
        loop {
            let mut h = Keccak256::new();
            h.update(&self.scalar.to_be_bytes());
            h.update(digest);
            h.update(&ctr.to_be_bytes());
            let k = nreduce(&U256::from_be_bytes(h.finalize().as_bytes()));
            ctr += 1;
            if k.is_zero() {
                continue;
            }
            let r = nreduce(&mul_g(&k).to_affine().x);
            if r.is_zero() {
                continue;
            }
            let s = nmul(&ninv(&k), &z.add_mod(&nmul(&r, &self.scalar), &N));
            if s.is_zero() {
                continue;
            }
            return Signature { r, s };
        }
    }
}

/// An ECDSA public key (a curve point).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PublicKey {
    point: AffinePoint,
}

impl PublicKey {
    /// The underlying curve point.
    pub fn point(&self) -> &AffinePoint {
        &self.point
    }

    /// Uncompressed 64-byte encoding (x ‖ y).
    pub fn to_bytes(&self) -> [u8; 64] {
        self.point.to_bytes()
    }

    /// Verifies an ECDSA signature over a 32-byte digest.
    pub fn verify(&self, digest: &[u8; 32], sig: &Signature) -> bool {
        if sig.r.is_zero() || sig.s.is_zero() || sig.r >= N || sig.s >= N {
            return false;
        }
        // `is_on_curve` also rejects coordinates ≥ p, which a deserialized
        // key can carry and the field arithmetic below must never see.
        if self.point.infinity || !self.point.is_on_curve() {
            return false;
        }
        let z = nreduce(&U256::from_be_bytes(digest));
        let sinv = ninv(&sig.s);
        let u1 = nmul(&z, &sinv);
        let u2 = nmul(&sig.r, &sinv);
        // R = u1·G + u2·Q
        let q_table = odd_multiples(&self.point, P_WINDOW);
        let sum = linear_combination(&[
            (&wnaf(&u1, G_WINDOW), g_table()),
            (&wnaf(&u2, P_WINDOW), &q_table),
        ]);
        x_matches_scalar(&sum, &sig.r)
    }
}

/// An ECDSA signature `(r, s)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Signature {
    /// The `r` component.
    pub r: U256,
    /// The `s` component.
    pub s: U256,
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sig(r={}, s={})", self.r, self.s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference the fast arithmetic is checked against: the generic
    /// [`U256`] modular operations (binary long division, Fermat inversion)
    /// under the dbl-2009-l doubling and madd-2007-bl mixed addition, and
    /// plain double-and-add.
    mod oracle {
        use super::super::{generator, AffinePoint, Signature, N, P};
        use crate::u256::U256;

        #[derive(Clone, Copy)]
        struct Jacobian {
            x: U256,
            y: U256,
            z: U256,
        }

        const INFINITY: Jacobian = Jacobian {
            x: U256::ONE,
            y: U256::ONE,
            z: U256::ZERO,
        };

        pub fn mul(a: &U256, b: &U256) -> U256 {
            a.mul_mod(b, &P)
        }

        fn add(a: &U256, b: &U256) -> U256 {
            a.add_mod(b, &P)
        }

        fn sub(a: &U256, b: &U256) -> U256 {
            a.sub_mod(b, &P)
        }

        fn double(p: &Jacobian) -> Jacobian {
            if p.z.is_zero() || p.y.is_zero() {
                return INFINITY;
            }
            let a = mul(&p.x, &p.x);
            let b = mul(&p.y, &p.y);
            let c = mul(&b, &b);
            let xb = add(&p.x, &b);
            let inner = sub(&sub(&mul(&xb, &xb), &a), &c);
            let d = add(&inner, &inner);
            let e = add(&add(&a, &a), &a);
            let x3 = sub(&mul(&e, &e), &add(&d, &d));
            let c2 = add(&c, &c);
            let c4 = add(&c2, &c2);
            let y3 = sub(&mul(&e, &sub(&d, &x3)), &add(&c4, &c4));
            let yz = mul(&p.y, &p.z);
            Jacobian {
                x: x3,
                y: y3,
                z: add(&yz, &yz),
            }
        }

        fn add_affine(p: &Jacobian, q: &AffinePoint) -> Jacobian {
            if q.infinity {
                return *p;
            }
            if p.z.is_zero() {
                return Jacobian {
                    x: q.x,
                    y: q.y,
                    z: U256::ONE,
                };
            }
            let z1z1 = mul(&p.z, &p.z);
            let u2 = mul(&q.x, &z1z1);
            let s2 = mul(&mul(&q.y, &p.z), &z1z1);
            if u2 == p.x {
                return if s2 == p.y { double(p) } else { INFINITY };
            }
            let h = sub(&u2, &p.x);
            let hh = mul(&h, &h);
            let hh2 = add(&hh, &hh);
            let i = add(&hh2, &hh2);
            let j = mul(&h, &i);
            let d = sub(&s2, &p.y);
            let r = add(&d, &d);
            let v = mul(&p.x, &i);
            let x3 = sub(&sub(&mul(&r, &r), &j), &add(&v, &v));
            let y1j = mul(&p.y, &j);
            let y3 = sub(&mul(&r, &sub(&v, &x3)), &add(&y1j, &y1j));
            let zh = add(&p.z, &h);
            let z3 = sub(&sub(&mul(&zh, &zh), &z1z1), &hh);
            Jacobian {
                x: x3,
                y: y3,
                z: z3,
            }
        }

        fn to_affine(p: &Jacobian) -> AffinePoint {
            if p.z.is_zero() {
                return AffinePoint::INFINITY;
            }
            let zinv = p.z.inv_mod_prime(&P);
            let zinv2 = mul(&zinv, &zinv);
            AffinePoint {
                x: mul(&p.x, &zinv2),
                y: mul(&p.y, &mul(&zinv2, &zinv)),
                infinity: false,
            }
        }

        /// `k·P` by double-and-add, `k` taken modulo `n`.
        pub fn scalar_mul(k: &U256, p: &AffinePoint) -> AffinePoint {
            let k = k.rem(&N);
            let mut acc = INFINITY;
            for i in (0..k.bits()).rev() {
                acc = double(&acc);
                if k.bit(i) {
                    acc = add_affine(&acc, p);
                }
            }
            to_affine(&acc)
        }

        /// `A + B`.
        pub fn point_add(a: &AffinePoint, b: &AffinePoint) -> AffinePoint {
            let a = if a.infinity {
                INFINITY
            } else {
                Jacobian {
                    x: a.x,
                    y: a.y,
                    z: U256::ONE,
                }
            };
            to_affine(&add_affine(&a, b))
        }

        /// `y` with `y² = x³ + 7`, when `x³ + 7` is a square mod p.
        pub fn lift_x(x: &U256) -> Option<U256> {
            let rhs = add(&mul(&mul(x, x), x), &U256::from_u64(7));
            // p ≡ 3 (mod 4): a square root is rhs^((p + 1) / 4).
            let (p_plus_1, _) = P.overflowing_add(&U256::ONE);
            let exp = U256::from_limbs({
                let l = p_plus_1.to_limbs();
                [
                    l[0] >> 2 | l[1] << 62,
                    l[1] >> 2 | l[2] << 62,
                    l[2] >> 2 | l[3] << 62,
                    l[3] >> 2,
                ]
            });
            let y = rhs.pow_mod(&exp, &P);
            (mul(&y, &y) == rhs).then_some(y)
        }

        /// ECDSA verification as specified: inverse of `s`, two scalar
        /// multiplications, an affine sum and `x mod n == r`.
        pub fn verify(q: &AffinePoint, digest: &[u8; 32], sig: &Signature) -> bool {
            if sig.r.is_zero() || sig.s.is_zero() || sig.r >= N || sig.s >= N {
                return false;
            }
            if q.infinity || q.x >= P || q.y >= P {
                return false;
            }
            let rhs = add(&mul(&mul(&q.x, &q.x), &q.x), &U256::from_u64(7));
            if mul(&q.y, &q.y) != rhs {
                return false;
            }
            let z = U256::from_be_bytes(digest).rem(&N);
            let sinv = sig.s.inv_mod_prime(&N);
            let u1 = z.mul_mod(&sinv, &N);
            let u2 = sig.r.mul_mod(&sinv, &N);
            let sum = point_add(&scalar_mul(&u1, generator()), &scalar_mul(&u2, q));
            !sum.infinity && sum.x.rem(&N) == sig.r
        }
    }

    fn arb_u256() -> impl Strategy<Value = U256> {
        prop::array::uniform4(any::<u64>()).prop_map(U256::from_limbs)
    }

    fn minus(a: &U256, k: u64) -> U256 {
        a.overflowing_sub(&U256::from_u64(k)).0
    }

    /// `2^(64·i)`: a value whose low `i` limbs are zero.
    fn limb_power(i: usize) -> U256 {
        let mut limbs = [0u64; 4];
        limbs[i] = 1;
        U256::from_limbs(limbs)
    }

    /// Reduced field elements: uniform values, values in `[n, p)`, and the
    /// edges 0, 1, p − 1, n − 1, n, 2^64, 2^128.
    fn arb_fe() -> impl Strategy<Value = U256> {
        let edges = [
            U256::ZERO,
            U256::ONE,
            minus(&P, 1),
            minus(&N, 1),
            N,
            limb_power(1),
            limb_power(2),
        ];
        let gap = P.overflowing_sub(&N).0;
        prop_oneof![
            (0..edges.len()).prop_map(move |i| edges[i]),
            arb_u256().prop_map(move |v| N.overflowing_add(&v.rem(&gap)).0),
            arb_u256().prop_map(|v| v.rem(&P)),
            arb_u256().prop_map(|v| v.rem(&P)),
        ]
    }

    /// Scalars below `n`: uniform values and the edges 0, 1, 2, n − 2, n − 1,
    /// 2^64, 2^128.
    fn arb_scalar() -> impl Strategy<Value = U256> {
        let edges = [
            U256::ZERO,
            U256::ONE,
            U256::from_u64(2),
            minus(&N, 2),
            minus(&N, 1),
            limb_power(1),
            limb_power(2),
        ];
        prop_oneof![
            (0..edges.len()).prop_map(move |i| edges[i]),
            arb_u256().prop_map(|v| v.rem(&N)),
            arb_u256().prop_map(|v| v.rem(&N)),
        ]
    }

    /// An arbitrary 32-byte digest.
    fn arb_digest() -> impl Strategy<Value = [u8; 32]> {
        prop::array::uniform32(any::<u8>())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The mod-p fold arithmetic equals the generic reduction.
        #[test]
        fn field_ops_match_generic(a in arb_fe(), b in arb_fe()) {
            prop_assert_eq!(fmul(&a, &b), a.mul_mod(&b, &P));
            prop_assert_eq!(fsqr(&a), a.mul_mod(&a, &P));
            prop_assert_eq!(fadd(&a, &b), a.add_mod(&b, &P));
            prop_assert_eq!(fsub(&a, &b), a.sub_mod(&b, &P));
            prop_assert_eq!(fneg(&a), U256::ZERO.sub_mod(&a, &P));
            prop_assert_eq!(fhalf(&a).mul_mod(&U256::from_u64(2), &P), a);
        }

        /// The fold reduces any 512-bit product, reduced inputs or not.
        #[test]
        fn fold_reductions_accept_unreduced_products(a in arb_u256(), b in arb_u256()) {
            prop_assert_eq!(fmul(&a, &b), a.mul_mod(&b, &P));
            prop_assert_eq!(nmul(&a, &b), a.mul_mod(&b, &N));
            prop_assert_eq!(nreduce(&a), a.rem(&N));
        }

        /// The mod-n fold arithmetic equals the generic reduction.
        #[test]
        fn scalar_ops_match_generic(a in arb_scalar(), b in arb_scalar()) {
            prop_assert_eq!(nmul(&a, &b), a.mul_mod(&b, &N));
        }

        /// The NAF digits are odd, bounded and spaced `w` apart, and sum
        /// back to the scalar.
        #[test]
        fn wnaf_digits_recompose(k in arb_u256(), w in 2usize..=8) {
            let digits = wnaf(&k, w);
            let mut last: Option<usize> = None;
            let mut sum = U256::ZERO; // Σ dᵢ·2^i mod n, by Horner from the top
            for (i, &d) in digits.iter().enumerate().rev() {
                sum = sum.add_mod(&sum, &N);
                if d != 0 {
                    prop_assert!(d % 2 != 0 && (d.unsigned_abs() as u32) < 1 << (w - 1));
                    if let Some(prev) = last {
                        prop_assert!(prev - i >= w);
                    }
                    last = Some(i);
                    let m = U256::from_u64(d.unsigned_abs() as u64);
                    sum = if d > 0 { sum.add_mod(&m, &N) } else { sum.sub_mod(&m, &N) };
                }
            }
            prop_assert_eq!(sum, k.rem(&N));
        }
    }

    proptest! {
        // Each case runs the generic Fermat inversion, slow unoptimized.
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The binary-GCD inverses equal Fermat over the generic reduction
        /// (0 maps to 0 in the field).
        #[test]
        fn inverses_match_generic(a in arb_fe(), s in arb_scalar()) {
            prop_assert_eq!(finv(&a), if a.is_zero() { U256::ZERO } else { a.inv_mod_prime(&P) });
            prop_assume!(!s.is_zero());
            prop_assert_eq!(ninv(&s), s.inv_mod_prime(&N));
        }
    }

    proptest! {
        // Each case runs several generic double-and-add multiplications.
        #![proptest_config(ProptestConfig::with_cases(5))]

        /// NAF multiplication (static table for G, per-call table for
        /// another point) equals double-and-add.
        #[test]
        fn scalar_mul_matches_double_and_add(k in arb_scalar(), seed in any::<u64>()) {
            let g = generator();
            prop_assert_eq!(mul_g(&k).to_affine(), oracle::scalar_mul(&k, g));
            let q = SecretKey::from_seed(seed).public_key();
            prop_assert_eq!(scalar_mul(&k, q.point()), oracle::scalar_mul(&k, q.point()));
        }

        /// Verification agrees with the specification on valid signatures,
        /// tampered digests, wrong keys and random `(r, s)`.
        #[test]
        fn verify_matches_reference(
            seed in any::<u64>(),
            digest in arb_digest(),
            other in arb_digest(),
            r in arb_scalar(),
            s in arb_scalar(),
        ) {
            let sk = SecretKey::from_seed(seed);
            let pk = sk.public_key();
            let wrong = SecretKey::from_seed(seed ^ 1).public_key();
            let sig = sk.sign(&digest);
            let random = Signature { r, s };
            for (key, msg, sig, want) in [
                (&pk, &digest, &sig, Some(true)),
                (&pk, &other, &sig, (other != digest).then_some(false)),
                (&wrong, &digest, &sig, Some(false)),
                (&pk, &digest, &random, None),
            ] {
                let fast = key.verify(msg, sig);
                prop_assert_eq!(fast, oracle::verify(key.point(), msg, sig));
                if let Some(want) = want {
                    prop_assert_eq!(fast, want);
                }
            }
        }
    }

    #[test]
    fn fold_constants_match_the_moduli() {
        assert_eq!(
            P,
            U256::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
        );
        assert_eq!(
            N,
            U256::from_hex("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141")
        );
        // P + P_FOLD and N + N_FOLD are exactly 2^256.
        assert_eq!(
            P.overflowing_add(&U256::from_u64(P_FOLD)),
            (U256::ZERO, true)
        );
        let n_fold = U256::from_limbs([N_FOLD[0], N_FOLD[1], N_FOLD[2], 0]);
        assert_eq!(N.overflowing_add(&n_fold), (U256::ZERO, true));
    }

    #[test]
    fn folds_reduce_the_largest_wide_value() {
        // 2^512 − 1 = (2^256 − 1)·2^256 + (2^256 − 1). Mod p its first fold
        // leaves 2^256 − 1 − P_FOLD with P_FOLD above it, so the second fold
        // wraps past 2^256: a case no random product reaches.
        let ones = U256::from_limbs([u64::MAX; 4]);
        for (modulus, two_256, reduce) in [
            (P, U256::from_u64(P_FOLD), reduce_p as fn([u64; 8]) -> U256),
            (
                N,
                U256::from_limbs([N_FOLD[0], N_FOLD[1], N_FOLD[2], 0]),
                reduce_n,
            ),
        ] {
            let m = ones.rem(&modulus);
            let want = m.mul_mod(&two_256, &modulus).add_mod(&m, &modulus);
            assert_eq!(reduce([u64::MAX; 8]), want);
        }
    }

    #[test]
    fn inverses_of_values_with_zero_low_limbs_match_generic() {
        // A zero low limb above an odd limb makes the binary GCD shift by
        // whole limbs only; random values reach that with odds of 2^-64.
        let three = U256::from_u64(3);
        let values = [
            limb_power(1),
            limb_power(1).mul_mod(&three, &N),
            limb_power(2),
            limb_power(3),
            limb_power(1).overflowing_add(&limb_power(2)).0,
        ];
        for a in values {
            assert_eq!(finv(&a), a.inv_mod_prime(&P), "a = {a}");
            assert_eq!(ninv(&a), a.inv_mod_prime(&N), "a = {a}");
        }
    }

    #[test]
    fn verify_handles_s_with_zero_low_limbs() {
        // For each such s, pick the digest that makes (r, s) a valid
        // signature under nonce k: z = s·k − r·d (mod n).
        let sk = SecretKey::from_seed(17);
        let pk = sk.public_key();
        let k = U256::from_hex("3c9f0a52e81d47b6");
        let r = nreduce(&mul_g(&k).to_affine().x);
        for s in [
            limb_power(1),
            limb_power(1).mul_mod(&U256::from_u64(3), &N),
            limb_power(2),
            limb_power(3),
        ] {
            let z = nmul(&s, &k).sub_mod(&nmul(&r, &sk.scalar), &N);
            let digest = z.to_be_bytes();
            let sig = Signature { r, s };
            assert!(pk.verify(&digest, &sig), "s = {s}");
            assert!(oracle::verify(pk.point(), &digest, &sig), "s = {s}");
            let forged = Signature {
                r: U256::from_u64(5),
                s,
            };
            assert!(!pk.verify(&digest, &forged), "s = {s}");
            assert!(!oracle::verify(pk.point(), &digest, &forged), "s = {s}");
        }
    }

    #[test]
    fn scalar_mul_edge_scalars_match_double_and_add() {
        let q = SecretKey::from_seed(5).public_key();
        for k in [
            U256::ZERO,
            U256::ONE,
            minus(&N, 1),
            N,
            U256::from_limbs([u64::MAX; 4]),
        ] {
            for p in [generator(), q.point()] {
                assert_eq!(scalar_mul(&k, p), oracle::scalar_mul(&k, p), "k = {k}");
            }
            assert_eq!(
                mul_g(&nreduce(&k)).to_affine(),
                oracle::scalar_mul(&k, generator())
            );
        }
        assert!(scalar_mul(&U256::ONE, &AffinePoint::INFINITY).infinity);
    }

    #[test]
    fn g_table_holds_the_odd_multiples_of_g() {
        let table = g_table();
        assert_eq!(table.len(), 1 << (G_WINDOW - 2));
        for i in [0usize, 1, 2, table.len() - 1] {
            let k = U256::from_u64(2 * i as u64 + 1);
            assert_eq!(table[i], oracle::scalar_mul(&k, generator()));
        }
    }

    /// Key derivation and signing pinned to the values the pre-fold code
    /// produced: every signed test and benchmark fingerprint depends on them.
    #[test]
    fn known_answers_are_bit_identical() {
        let vectors: [(u64, &[u8], [&str; 4]); 3] = [
            (
                1,
                b"parole kat one",
                [
                    "f149a18b003d49de3cdcee895eb8442ee012da6d42d0ab78155a5a9f7b2fcc44",
                    "51e4076d88aec0cc3d5be6edf2249519bdcd11ee936edf09842e7a0f7b5135c8",
                    "dab062c9a4b3aadc420c95ddcb0254dc8bc79d35645d87e20a3edd4f5ccccc3a",
                    "004570b5a435e128ec701495bf9a04105394f872212a24d26288eade456dfcb8",
                ],
            ),
            (
                42,
                b"parole kat two",
                [
                    "b54befe91ebda2d6e771240a399c5aaf99debfe96d4568a548ac4677b2b51b6b",
                    "7f42105aa0ca85032016e85c2d1ad043c283a8dd4a442323bc23556db2ebf5f8",
                    "f490abde61d19a029f8bc1f91caa89684b23d9143a9efdf8e2319e099c1a0005",
                    "4bfb07f6c2396f7e3d20c208ce36ea86bf590417f0a016aee26cb98bddea399a",
                ],
            ),
            (
                0xdead_beef,
                b"parole kat three",
                [
                    "17d9773335b3b06175150a3735ea3fcd223a852ab6c200a11e3256744d8c66b2",
                    "9081566661859d819b40c8fd5eb3c5b8ca9fef26104605790e73ce423bcc6d5e",
                    "0fbe8f06db7bb27a6a36a24a897afd2d0825717f6dbd484275a0c7e4d1b29490",
                    "700426456f3b3402e1012b6af8a31b089e2e349bb4d5f1aeae56ecce09a7158b",
                ],
            ),
        ];
        for (seed, msg, [x, y, r, s]) in vectors {
            let sk = SecretKey::from_seed(seed);
            let pk = sk.public_key();
            assert_eq!(pk.point().x, U256::from_hex(x), "seed {seed}");
            assert_eq!(pk.point().y, U256::from_hex(y), "seed {seed}");
            let digest = crate::keccak::keccak256(msg).into_bytes();
            let sig = sk.sign(&digest);
            assert_eq!(sig.r, U256::from_hex(r), "seed {seed}");
            assert_eq!(sig.s, U256::from_hex(s), "seed {seed}");
            assert!(pk.verify(&digest, &sig));
        }
    }

    #[test]
    fn digests_reducing_to_zero_leave_only_the_q_term() {
        // z ≡ 0 makes u1 = 0, so the G term of the combination is empty.
        let sk = SecretKey::from_seed(21);
        let pk = sk.public_key();
        for digest in [[0u8; 32], N.to_be_bytes()] {
            let sig = sk.sign(&digest);
            assert!(pk.verify(&digest, &sig));
            assert!(oracle::verify(pk.point(), &digest, &sig));
        }
    }

    #[test]
    fn verify_rejects_non_canonical_coordinates_without_panicking() {
        // x = 1 lies on the curve (1 + 7 = 8 is a square mod p). Serde
        // builds a key field by field, so x = 1 + p reaches `verify` as is.
        let y = oracle::lift_x(&U256::ONE).expect("8 is a square mod p");
        assert!(AffinePoint {
            x: U256::ONE,
            y,
            infinity: false
        }
        .is_on_curve());
        let key = PublicKey {
            point: AffinePoint {
                x: U256::ONE.overflowing_add(&P).0,
                y,
                infinity: false,
            },
        };
        assert!(!key.point().is_on_curve());
        let digest = crate::keccak::keccak256(b"non-canonical").into_bytes();
        let sig = SecretKey::from_seed(3).sign(&digest);
        assert!(!key.verify(&digest, &sig));
        assert!(!oracle::verify(key.point(), &digest, &sig));
        // A y-coordinate ≥ p is refused the same way.
        let high_y = AffinePoint {
            x: U256::ONE,
            y: P,
            infinity: false,
        };
        assert!(!high_y.is_on_curve());
    }

    #[test]
    fn x_check_covers_both_candidates_for_x() {
        // x = n + 2 lies on the curve and in [n, p), so its r is 2 and only
        // the r + n candidate can match it.
        let x = N.overflowing_add(&U256::from_u64(2)).0;
        let y = oracle::lift_x(&x).expect("(n + 2)³ + 7 is a square mod p");
        let lambda = U256::from_hex("5f2b9c1e0d4a3b2c");
        let lambda2 = oracle::mul(&lambda, &lambda);
        let point = JacobianPoint {
            x: oracle::mul(&x, &lambda2),
            y: oracle::mul(&y, &oracle::mul(&lambda2, &lambda)),
            z: lambda,
        };
        assert_eq!(point.to_affine().x, x);
        assert!(x_matches_scalar(&point, &U256::from_u64(2)));
        assert!(!x_matches_scalar(&point, &U256::from_u64(3)));
        assert!(!x_matches_scalar(&point, &U256::ONE));

        // An x below n matches only itself: r + n would exceed p.
        let g = generator();
        let g_scaled = JacobianPoint {
            x: oracle::mul(&g.x, &lambda2),
            y: oracle::mul(&g.y, &oracle::mul(&lambda2, &lambda)),
            z: lambda,
        };
        assert!(x_matches_scalar(&g_scaled, &g.x));
        assert!(!x_matches_scalar(&g_scaled, &minus(&g.x, 1)));
        assert!(!x_matches_scalar(&JacobianPoint::INFINITY, &U256::ONE));
    }

    #[test]
    fn generator_is_on_curve() {
        assert!(generator().is_on_curve());
    }

    #[test]
    fn two_g_matches_known_vector() {
        let two_g = scalar_mul(&U256::from_u64(2), generator());
        assert_eq!(
            two_g.x,
            U256::from_hex("c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5")
        );
        assert_eq!(
            two_g.y,
            U256::from_hex("1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a")
        );
        assert!(two_g.is_on_curve());
    }

    #[test]
    fn scalar_one_is_generator() {
        let p = scalar_mul(&U256::ONE, generator());
        assert_eq!(&p, generator());
    }

    #[test]
    fn order_times_g_is_infinity() {
        // n·G = O. scalar_mul reduces k mod n, so use composition instead:
        // (n-1)·G + G = O.
        let (n_minus_1, _) = group_order().overflowing_sub(&U256::ONE);
        let p = scalar_mul(&n_minus_1, generator());
        let sum = JacobianPoint::from_affine(&p)
            .add_affine(generator())
            .to_affine();
        assert!(sum.infinity);
    }

    #[test]
    fn scalar_mul_distributes() {
        // 5G == 2G + 3G
        let five = scalar_mul(&U256::from_u64(5), generator());
        let two = scalar_mul(&U256::from_u64(2), generator());
        let three = scalar_mul(&U256::from_u64(3), generator());
        let sum = JacobianPoint::from_affine(&two)
            .add_affine(&three)
            .to_affine();
        assert_eq!(five, sum);
        assert!(five.is_on_curve());
    }

    #[test]
    fn sign_verify_roundtrip() {
        let sk = SecretKey::from_seed(7);
        let pk = sk.public_key();
        assert!(pk.point().is_on_curve());
        let digest = crate::keccak::keccak256(b"attack at dawn").into_bytes();
        let sig = sk.sign(&digest);
        assert!(pk.verify(&digest, &sig));
    }

    #[test]
    fn verify_rejects_tampered_message() {
        let sk = SecretKey::from_seed(8);
        let pk = sk.public_key();
        let digest = crate::keccak::keccak256(b"original").into_bytes();
        let sig = sk.sign(&digest);
        let other = crate::keccak::keccak256(b"tampered").into_bytes();
        assert!(!pk.verify(&other, &sig));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let sk1 = SecretKey::from_seed(9);
        let sk2 = SecretKey::from_seed(10);
        let digest = crate::keccak::keccak256(b"msg").into_bytes();
        let sig = sk1.sign(&digest);
        assert!(!sk2.public_key().verify(&digest, &sig));
    }

    #[test]
    fn verify_rejects_degenerate_signature() {
        let pk = SecretKey::from_seed(11).public_key();
        let digest = [0u8; 32];
        let zero_sig = Signature {
            r: U256::ZERO,
            s: U256::ZERO,
        };
        assert!(!pk.verify(&digest, &zero_sig));
        let big_sig = Signature {
            r: *group_order(),
            s: U256::ONE,
        };
        assert!(!pk.verify(&digest, &big_sig));
    }

    #[test]
    fn deterministic_signatures() {
        let sk = SecretKey::from_seed(12);
        let digest = crate::keccak::keccak256(b"same message").into_bytes();
        assert_eq!(sk.sign(&digest), sk.sign(&digest));
    }

    #[test]
    fn fold_reduction_agrees_with_generic() {
        let a = U256::from_hex("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
        let b = U256::from_hex("9c1185a5c5e9fc54612808977ee8f548b2258d31a8d56e7fcf0bdcdd3c5dd2a4");
        let fast = fmul(&a, &b);
        let slow = a.mul_mod(&b, field_prime());
        assert_eq!(fast, slow);
    }
}

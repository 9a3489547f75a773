//! 256-bit unsigned integer arithmetic.
//!
//! A minimal big-integer type sized for secp256k1 field and scalar math.
//! Limbs are `u64`, little-endian (`limbs[0]` is least significant).
//! The generic modular operations work for any modulus: [`U256::mul_mod`]
//! reduces 512-bit products by binary long division and
//! [`U256::inv_mod_prime`] is a Fermat power over it, at microseconds per
//! multiplication. The secp256k1 code does not use them on its hot paths (it
//! folds products by its moduli's special form instead); its tests use them
//! as the reference the fast arithmetic is checked against.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A 256-bit unsigned integer.
///
/// # Example
///
/// ```
/// use parole_crypto::U256;
/// let a = U256::from_u64(7);
/// let b = U256::from_u64(5);
/// let m = U256::from_u64(11);
/// assert_eq!(a.mul_mod(&b, &m), U256::from_u64(2)); // 35 mod 11
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct U256 {
    limbs: [u64; 4],
}

impl U256 {
    /// Zero.
    pub const ZERO: U256 = U256 { limbs: [0; 4] };
    /// One.
    pub const ONE: U256 = U256 {
        limbs: [1, 0, 0, 0],
    };

    /// Constructs from little-endian limbs.
    pub const fn from_limbs(limbs: [u64; 4]) -> Self {
        U256 { limbs }
    }

    /// The little-endian limbs.
    pub const fn to_limbs(self) -> [u64; 4] {
        self.limbs
    }

    /// Constructs from a single `u64`.
    pub const fn from_u64(v: u64) -> Self {
        U256 {
            limbs: [v, 0, 0, 0],
        }
    }

    /// Parses a 32-byte big-endian representation.
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for (i, limb) in limbs.iter_mut().enumerate() {
            let start = 32 - (i + 1) * 8;
            *limb = u64::from_be_bytes(bytes[start..start + 8].try_into().expect("8"));
        }
        U256 { limbs }
    }

    /// Serializes to 32 big-endian bytes.
    pub fn to_be_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, limb) in self.limbs.iter().enumerate() {
            let start = 32 - (i + 1) * 8;
            out[start..start + 8].copy_from_slice(&limb.to_be_bytes());
        }
        out
    }

    /// Parses a (possibly `0x`-prefixed) hex string of up to 64 digits.
    ///
    /// # Panics
    ///
    /// Panics on invalid hex; intended for compile-time style constants in
    /// tests and curve parameters.
    pub fn from_hex(s: &str) -> Self {
        let hex = s.strip_prefix("0x").unwrap_or(s);
        assert!(hex.len() <= 64, "hex literal too long");
        let mut bytes = [0u8; 32];
        let padded = format!("{hex:0>64}");
        for (i, chunk) in padded.as_bytes().chunks(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16).expect("hex digit");
            let lo = (chunk[1] as char).to_digit(16).expect("hex digit");
            bytes[i] = (hi * 16 + lo) as u8;
        }
        U256::from_be_bytes(&bytes)
    }

    /// `true` when the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs == [0; 4]
    }

    /// `true` when the value is odd.
    pub fn is_odd(&self) -> bool {
        self.limbs[0] & 1 == 1
    }

    /// Value of bit `i` (0 = least significant).
    pub fn bit(&self, i: usize) -> bool {
        debug_assert!(i < 256);
        self.limbs[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> usize {
        for i in (0..4).rev() {
            if self.limbs[i] != 0 {
                return 64 * i + (64 - self.limbs[i].leading_zeros() as usize);
            }
        }
        0
    }

    /// Low 64 bits.
    pub fn low_u64(&self) -> u64 {
        self.limbs[0]
    }

    /// Wrapping addition, returning the carry-out.
    #[allow(clippy::needless_range_loop)] // limb index couples out/self/rhs
    pub fn overflowing_add(&self, rhs: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = false;
        for i in 0..4 {
            let (s1, c1) = self.limbs[i].overflowing_add(rhs.limbs[i]);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            out[i] = s2;
            carry = c1 || c2;
        }
        (U256 { limbs: out }, carry)
    }

    /// Wrapping subtraction, returning the borrow-out.
    #[allow(clippy::needless_range_loop)] // limb index couples out/self/rhs
    pub fn overflowing_sub(&self, rhs: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = false;
        for i in 0..4 {
            let (d1, b1) = self.limbs[i].overflowing_sub(rhs.limbs[i]);
            let (d2, b2) = d1.overflowing_sub(borrow as u64);
            out[i] = d2;
            borrow = b1 || b2;
        }
        (U256 { limbs: out }, borrow)
    }

    /// Full 256×256 → 512-bit multiplication.
    pub fn widening_mul(&self, rhs: &U256) -> [u64; 8] {
        let mut out = [0u64; 8];
        for i in 0..4 {
            let mut carry: u128 = 0;
            for j in 0..4 {
                let cur = out[i + j] as u128 + self.limbs[i] as u128 * rhs.limbs[j] as u128 + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            out[i + 4] = carry as u64;
        }
        out
    }

    /// Reduces a 512-bit value (little-endian limbs) modulo `m` by binary
    /// long division.
    fn reduce_wide(wide: [u64; 8], m: &U256) -> U256 {
        assert!(!m.is_zero(), "modulus must be non-zero");
        // Find the highest set bit of the 512-bit value.
        let mut top = 0usize;
        for i in (0..8).rev() {
            if wide[i] != 0 {
                top = 64 * i + (64 - wide[i].leading_zeros() as usize);
                break;
            }
        }
        let mut rem = U256::ZERO;
        for i in (0..top).rev() {
            // rem = rem << 1 | bit_i. Since rem < m and m may exceed 2^255,
            // the shifted value can be a 257-bit quantity; `spill` records
            // the dropped 2^256 bit.
            let spill = rem.bit(255);
            let mut shifted = rem.shl1();
            if wide[i / 64] >> (i % 64) & 1 == 1 {
                shifted.limbs[0] |= 1;
            }
            rem = if spill {
                // True value is 2^256 + shifted, which is guaranteed to be in
                // [m, 2m) because rem < m; subtracting m once lands in [0, m)
                // and the wrapping subtraction absorbs the spilled bit.
                shifted.overflowing_sub(m).0
            } else {
                let (sub, borrow) = shifted.overflowing_sub(m);
                if borrow {
                    shifted
                } else {
                    sub
                }
            };
        }
        rem
    }

    /// Logical left shift by one bit (drops the top bit).
    #[allow(clippy::needless_range_loop)] // limb index couples out/self/rhs
    fn shl1(&self) -> U256 {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        for i in 0..4 {
            out[i] = self.limbs[i] << 1 | carry;
            carry = self.limbs[i] >> 63;
        }
        U256 { limbs: out }
    }

    /// `self mod m`.
    pub fn rem(&self, m: &U256) -> U256 {
        if self < m {
            return *self;
        }
        let mut wide = [0u64; 8];
        wide[..4].copy_from_slice(&self.limbs);
        U256::reduce_wide(wide, m)
    }

    /// `(self + rhs) mod m`; inputs must already be `< m`.
    pub fn add_mod(&self, rhs: &U256, m: &U256) -> U256 {
        debug_assert!(self < m && rhs < m);
        let (sum, carry) = self.overflowing_add(rhs);
        if carry || &sum >= m {
            let (red, _) = sum.overflowing_sub(m);
            red
        } else {
            sum
        }
    }

    /// `(self - rhs) mod m`; inputs must already be `< m`.
    pub fn sub_mod(&self, rhs: &U256, m: &U256) -> U256 {
        debug_assert!(self < m && rhs < m);
        let (diff, borrow) = self.overflowing_sub(rhs);
        if borrow {
            let (wrapped, _) = diff.overflowing_add(m);
            wrapped
        } else {
            diff
        }
    }

    /// `(self × rhs) mod m`.
    pub fn mul_mod(&self, rhs: &U256, m: &U256) -> U256 {
        U256::reduce_wide(self.widening_mul(rhs), m)
    }

    /// `self^exp mod m` by square-and-multiply.
    pub fn pow_mod(&self, exp: &U256, m: &U256) -> U256 {
        let mut result = U256::ONE.rem(m);
        let base = self.rem(m);
        let nbits = exp.bits();
        let mut acc = base;
        for i in 0..nbits {
            if exp.bit(i) {
                result = result.mul_mod(&acc, m);
            }
            acc = acc.mul_mod(&acc, m);
        }
        result
    }

    /// Modular inverse via Fermat's little theorem (`m` must be prime and
    /// `self` non-zero mod `m`).
    pub fn inv_mod_prime(&self, m: &U256) -> U256 {
        // a^(m-2) mod m
        let (m_minus_2, _) = m.overflowing_sub(&U256::from_u64(2));
        self.pow_mod(&m_minus_2, m)
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..4).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x")?;
        for b in self.to_be_bytes() {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl From<u64> for U256 {
    fn from(v: u64) -> Self {
        U256::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn be_bytes_roundtrip() {
        let v = U256::from_hex(
            "0x0123456789abcdef_fedcba9876543210"
                .replace('_', "")
                .as_str(),
        );
        assert_eq!(U256::from_be_bytes(&v.to_be_bytes()), v);
    }

    #[test]
    fn hex_parse_and_display() {
        let v = U256::from_hex("ff");
        assert_eq!(v, U256::from_u64(255));
        assert!(v.to_string().ends_with("ff"));
    }

    #[test]
    fn add_sub_carry_borrow() {
        let max = U256::from_limbs([u64::MAX; 4]);
        let (sum, carry) = max.overflowing_add(&U256::ONE);
        assert!(carry);
        assert_eq!(sum, U256::ZERO);
        let (diff, borrow) = U256::ZERO.overflowing_sub(&U256::ONE);
        assert!(borrow);
        assert_eq!(diff, max);
    }

    #[test]
    fn widening_mul_small() {
        let a = U256::from_u64(u64::MAX);
        let wide = a.widening_mul(&a);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        assert_eq!(wide[0], 1);
        assert_eq!(wide[1], u64::MAX - 1);
        assert_eq!(wide[2..], [0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn mod_arith_small_numbers() {
        let m = U256::from_u64(97);
        let a = U256::from_u64(60);
        let b = U256::from_u64(50);
        assert_eq!(a.add_mod(&b, &m), U256::from_u64(13));
        assert_eq!(b.sub_mod(&a, &m), U256::from_u64(87));
        assert_eq!(a.mul_mod(&b, &m), U256::from_u64(3000 % 97));
        assert_eq!(a.pow_mod(&U256::from_u64(96), &m), U256::ONE); // Fermat
        let inv = a.inv_mod_prime(&m);
        assert_eq!(a.mul_mod(&inv, &m), U256::ONE);
    }

    #[test]
    fn rem_reduces_large_values() {
        let m = U256::from_hex("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141");
        let big = U256::from_limbs([u64::MAX; 4]);
        let r = big.rem(&m);
        assert!(r < m);
        // big - m < m here, so r should equal big - m.
        let (expect, _) = big.overflowing_sub(&m);
        assert_eq!(r, expect);
    }

    #[test]
    fn bits_and_bit_access() {
        assert_eq!(U256::ZERO.bits(), 0);
        assert_eq!(U256::ONE.bits(), 1);
        let v = U256::from_limbs([0, 0, 0, 1]);
        assert_eq!(v.bits(), 193);
        assert!(v.bit(192));
        assert!(!v.bit(0));
    }

    #[test]
    fn pow_mod_identity_cases() {
        let m = U256::from_u64(101);
        assert_eq!(U256::from_u64(5).pow_mod(&U256::ZERO, &m), U256::ONE);
        assert_eq!(U256::from_u64(5).pow_mod(&U256::ONE, &m), U256::from_u64(5));
    }
}

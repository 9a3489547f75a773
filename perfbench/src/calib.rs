//! Machine-speed calibration: every timed interval is paired with a fixed
//! calibration kernel run right next to it, and reported in reference
//! seconds — the seconds it would have taken had the machine run the
//! kernel at its reference speed.
//!
//! On a shared host the speed available for this kind of work drifts as
//! the neighbours' load comes and goes: by up to 1.8× over minutes on a
//! shared 2-vCPU Xeon VM, where the calibration kernel and the workloads
//! slowed together while a latency-bound loop hardly slowed at all (which
//! points at contention for the core's execution units rather than a lower
//! clock). A slowdown that lasts a whole run moves every raw time of that
//! run alike, and no statistic over the run can remove it; dividing each
//! interval by the kernel's speed measured beside it does.
//!
//! The kernel is the benchmark's own code and calls nothing of the program,
//! so a change to the program moves the reported times and never the
//! calibration. It is register-only integer work of the two kinds the
//! workloads spend their time on — Keccak-f\[1600\] permutations (state
//! roots, transaction hashes) and 256-bit multiply-accumulate (secp256k1
//! field arithmetic) — so it leaves the workload's caches untouched.

use std::hint::black_box;
use std::time::Instant;

/// Seconds one calibration slice takes at the reference speed: a nominal
/// figure, about its median time on a shared 2-vCPU 2.0 GHz Xeon VM (the
/// same VM ran it in 32 µs in quiet minutes and 65 µs in busy ones).
pub const REFERENCE_SLICE_SECS: f64 = 50e-6;

/// Calibration time spent per second of measured interval.
const SHARE: f64 = 1.0 / 16.0;

/// Fewest slices one calibration runs.
const MIN_SLICES: usize = 4;

/// Keccak-f\[1600\] round constants.
const RC: [u64; 24] = [
    0x0000_0000_0000_0001,
    0x0000_0000_0000_8082,
    0x8000_0000_0000_808a,
    0x8000_0000_8000_8000,
    0x0000_0000_0000_808b,
    0x0000_0000_8000_0001,
    0x8000_0000_8000_8081,
    0x8000_0000_0000_8009,
    0x0000_0000_0000_008a,
    0x0000_0000_0000_0088,
    0x0000_0000_8000_8009,
    0x0000_0000_8000_000a,
    0x0000_0000_8000_808b,
    0x8000_0000_0000_008b,
    0x8000_0000_0000_8089,
    0x8000_0000_0000_8003,
    0x8000_0000_0000_8002,
    0x8000_0000_0000_0080,
    0x0000_0000_0000_800a,
    0x8000_0000_8000_000a,
    0x8000_0000_8000_8081,
    0x8000_0000_0000_8080,
    0x0000_0000_8000_0001,
    0x8000_0000_8000_8008,
];

/// Keccak-f\[1600\] rotation offsets, indexed `x + 5y`.
const ROT: [u32; 25] = [
    0, 1, 62, 28, 27, 36, 44, 6, 55, 20, 3, 10, 43, 25, 39, 41, 45, 15, 21, 8, 18, 2, 61, 56, 14,
];

/// The Keccak-f\[1600\] permutation.
fn keccak_f(a: &mut [u64; 25]) {
    for rc in RC {
        let mut c = [0u64; 5];
        for x in 0..5 {
            c[x] = a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20];
        }
        for x in 0..5 {
            let d = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
            for y in 0..5 {
                a[x + 5 * y] ^= d;
            }
        }
        let mut b = [0u64; 25];
        for x in 0..5 {
            for y in 0..5 {
                b[y + 5 * ((2 * x + 3 * y) % 5)] = a[x + 5 * y].rotate_left(ROT[x + 5 * y]);
            }
        }
        for x in 0..5 {
            for y in 0..5 {
                a[x + 5 * y] = b[x + 5 * y] ^ (!b[(x + 1) % 5 + 5 * y] & b[(x + 2) % 5 + 5 * y]);
            }
        }
        a[0] ^= rc;
    }
}

/// `rounds` schoolbook 256×256-bit products, each folded back into the
/// next multiplicand.
fn mul_256(seed: u64, rounds: usize) -> u64 {
    let mut a = [seed | 1, 2, 3, 4];
    let b: [u64; 4] = [
        0xffff_ffff_0000_0001,
        0x1234_5678_9abc_def1,
        0xdead_beef,
        0xfeed_face,
    ];
    for _ in 0..rounds {
        let mut r = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let t = u128::from(a[i]) * u128::from(b[j]) + u128::from(r[i + j]) + carry;
                r[i + j] = t as u64;
                carry = t >> 64;
            }
            r[i + 4] = carry as u64;
        }
        a = [r[0] ^ r[4], r[1] ^ r[5], r[2] ^ r[6], (r[3] ^ r[7]) | 1];
    }
    a[0]
}

/// One calibration slice: 32 permutations and 1500 products.
fn slice(seed: u64) -> u64 {
    let mut state = [seed; 25];
    for _ in 0..32 {
        keccak_f(&mut state);
    }
    state[0] ^ mul_256(state[1], 1500)
}

/// Runs a calibration sized to an interval of `secs` (a sixteenth of it,
/// at least [`MIN_SLICES`] slices) and returns the median seconds per
/// slice, so an interrupt landing in one slice does not move it.
pub fn calibrate(secs: f64) -> f64 {
    let slices = ((secs * SHARE / REFERENCE_SLICE_SECS).ceil() as usize).max(MIN_SLICES);
    let mut times = Vec::with_capacity(slices);
    for i in 0..slices {
        let t = Instant::now();
        black_box(slice(black_box(i as u64)));
        times.push(t.elapsed().as_secs_f64());
    }
    crate::stats::median(&times)
}

/// `secs` measured while the machine ran a slice in `slice_secs`, in
/// reference seconds.
pub fn to_reference(secs: f64, slice_secs: f64) -> f64 {
    secs * REFERENCE_SLICE_SECS / slice_secs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keccak_f_matches_the_reference_permutation() {
        // Keccak-f[1600] applied to the all-zero state (the Keccak team's
        // published test vector, first lane).
        let mut a = [0u64; 25];
        keccak_f(&mut a);
        assert_eq!(a[0], 0xf125_8f79_40e1_dde7);
    }

    #[test]
    fn reference_seconds_scale_with_the_slice_time() {
        assert_eq!(to_reference(2.0, REFERENCE_SLICE_SECS), 2.0);
        assert_eq!(to_reference(2.0, 2.0 * REFERENCE_SLICE_SECS), 1.0);
        assert!(calibrate(0.0) > 0.0);
    }
}

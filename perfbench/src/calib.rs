//! Machine-speed calibration of host timings.
//!
//! The benchmark runs on a shared VM whose speed drifts: a neighbour on
//! the same physical core or cache can slow every instruction stream by
//! half for seconds at a time, so the same op's wall time ranges over
//! 1.7x within one run, and a run's median follows whichever periods it
//! lands in. A short burst of a fixed reference kernel — SHA-256
//! compression over a fixed buffer, code of the benchmark's own that no
//! change to the program can speed up — runs between ops at least every
//! [`PERIOD`], and each host timing is scaled by the reference's nominal
//! burst time over the burst times measured around it. A calibrated
//! time is the op's wall time on a machine that runs the reference at
//! its nominal speed; it moves with the program and not with the
//! machine's contention. Raw wall times are printed next to it.

use crate::median;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Bytes the reference kernel hashes per burst.
const BURST_BYTES: usize = 256 << 10;
/// Longest gap between bursts while host timings are being taken.
const PERIOD: Duration = Duration::from_millis(50);
/// Bursts on each side of a timing that its scale is taken from.
const NEIGHBOURS: usize = 2;
/// The reference kernel's nominal speed, MiB/s: about its speed on a
/// lightly loaded core of the 2-vCPU Xeon VM the bounds were set on.
pub const NOMINAL_MIB_S: u64 = 224;
/// One burst's time at the nominal speed, seconds.
const NOMINAL_BURST_S: f64 = BURST_BYTES as f64 / (NOMINAL_MIB_S << 20) as f64;

/// The instant every [`Timing`] is placed against.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One host timing: when it happened and how long it took.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Midpoint, seconds after the epoch.
    pub at: f64,
    /// Wall time, seconds.
    pub secs: f64,
}

impl Timing {
    /// The interval from `t0` to now.
    pub fn since(t0: Instant) -> Self {
        let t1 = Instant::now();
        let secs = (t1 - t0).as_secs_f64();
        Timing {
            at: t0.saturating_duration_since(epoch()).as_secs_f64() + secs / 2.0,
            secs,
        }
    }
}

/// The bursts of one run.
#[derive(Debug)]
pub struct Calibration {
    last: Option<Instant>,
    data: Vec<u8>,
    /// `(midpoint, burst seconds)` in time order.
    bursts: Vec<(f64, f64)>,
}

impl Default for Calibration {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibration {
    pub fn new() -> Self {
        epoch();
        Calibration {
            last: None,
            data: (0..BURST_BYTES).map(|i| (i * 131 + 7) as u8).collect(),
            bursts: Vec::new(),
        }
    }

    /// Runs one reference burst.
    pub fn burst(&mut self) {
        let t0 = Instant::now();
        std::hint::black_box(sha256_blocks(std::hint::black_box(&self.data)));
        let t = Timing::since(t0);
        self.bursts.push((t.at, t.secs));
        self.last = Some(Instant::now());
    }

    /// Runs a burst if none ran in the last [`PERIOD`]; call between
    /// timings.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= PERIOD) {
            self.burst();
        }
    }

    /// `t`'s wall time at the reference speed: scaled by the nominal
    /// burst time over the median of the [`NEIGHBOURS`] bursts on each
    /// side of it.
    pub fn calibrated(&self, t: Timing) -> f64 {
        assert!(!self.bursts.is_empty(), "calibrating without a burst");
        let i = self.bursts.partition_point(|&(at, _)| at <= t.at);
        let lo = i.saturating_sub(NEIGHBOURS);
        let hi = (i + NEIGHBOURS).min(self.bursts.len());
        let near: Vec<f64> = self.bursts[lo..hi].iter().map(|&(_, s)| s).collect();
        t.secs * NOMINAL_BURST_S / median(&near)
    }

    /// The run's median reference speed, MiB/s.
    pub fn median_mib_s(&self) -> f64 {
        let secs: Vec<f64> = self.bursts.iter().map(|&(_, s)| s).collect();
        BURST_BYTES as f64 / (1u64 << 20) as f64 / median(&secs)
    }

    /// Bursts run so far.
    pub fn bursts(&self) -> usize {
        self.bursts.len()
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// The reference kernel: SHA-256 compression over every whole 64-byte
/// block of `data` (no padding: only the work matters).
fn sha256_blocks(data: &[u8]) -> [u32; 8] {
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    for block in data.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (x, y) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *x = x.wrapping_add(y);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_block_matches_the_sha256_of_the_empty_string() {
        // The padded empty message is one block: 0x80 then zeros.
        let mut block = [0u8; 64];
        block[0] = 0x80;
        assert_eq!(
            sha256_blocks(&block),
            [
                0xe3b0c442, 0x98fc1c14, 0x9afbf4c8, 0x996fb924, 0x27ae41e4, 0x649b934c, 0xa495991b,
                0x7852b855
            ]
        );
    }

    #[test]
    fn a_timing_is_scaled_by_the_bursts_around_it() {
        let mut c = Calibration::new();
        c.bursts = vec![
            (0.0, NOMINAL_BURST_S),
            (1.0, 2.0 * NOMINAL_BURST_S),
            (2.0, 2.0 * NOMINAL_BURST_S),
            (3.0, 2.0 * NOMINAL_BURST_S),
            (9.0, NOMINAL_BURST_S),
        ];
        // Two bursts on each side of t = 2.5; the median (nearest rank)
        // of those four is 2x nominal.
        let t = Timing { at: 2.5, secs: 3.0 };
        assert!((c.calibrated(t) - 1.5).abs() < 1e-12);
    }
}

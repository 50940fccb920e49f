//! Table-driven GHASH (the universal hash inside SP 800-38D GCM), for the
//! portable GCM backend.
//!
//! On x86_64 hosts with PCLMULQDQ the GCM datapath multiplies with
//! carry-less multiplication instead (the `hw` module); this module
//! serves every other host. The seed multiplied in GF(2^128) with a
//! 128-iteration bit loop per 16-byte block. This module replaces it with
//! Shoup-style nibble-indexed tables: because the map X ↦ X·H is linear
//! over GF(2), the product decomposes into one lookup per input nibble
//! position,
//!
//! ```text
//! X·H = XOR over j in 0..32 of T[j][nibble_j(X)],   T[j][v] = (v·x^{4j})·H
//! ```
//!
//! so a block costs 32 small loads + XORs instead of 128 shift/XOR
//! rounds. Tables for H..H⁴ (8 KiB each, 32 KiB per key — small enough
//! to stay L1-resident next to the AES T-tables) are built once per key
//! in [`GhashTable::new`] (~11 µs with the AES schedule); the powers drive
//! the four-way aggregated update (see [`GhashTable`]). The lookups are
//! indexed by secret data, so unlike PCLMULQDQ this path is not
//! constant-time.
//!
//! Bit convention: operands are big-endian `u128`s in GCM's reflected
//! ordering — the most significant bit of byte 0 is the coefficient of
//! x^0, so byte `i`, bit `j` (from the byte's MSB) carries x^{8i+j}.

/// The GCM reduction constant for right-shift doubling.
const R: u128 = 0xe1 << 120;

/// Multiplies by x in GF(2^128) under the reflected GCM convention.
#[inline]
fn mulx(v: u128) -> u128 {
    (v >> 1) ^ ((v & 1) * R)
}

/// Per-key GHASH multiplication tables for `H`, `H²`, `H³` and `H⁴`.
///
/// The higher-power tables let the accumulator absorb four blocks per
/// step — `acc ← (acc⊕b₀)·H⁴ ⊕ b₁·H³ ⊕ b₂·H² ⊕ b₃·H` — with the four
/// products independent. The single-block Horner recurrence is bound by
/// the serial latency of one table-lookup round trip per block;
/// four-way aggregation quarters that chain.
///
/// Tables are nibble-indexed (Shoup 4-bit): 32 nibble positions × 16
/// entries × 16 bytes = 8 KiB per power, 32 KiB for all four — small
/// enough to stay L1-resident next to the AES T-tables, where a
/// byte-indexed variant (64 KiB per power) would bounce off L2 on every
/// lookup and leave the Horner chain latency-bound.
#[derive(Clone)]
pub(crate) struct GhashTable {
    /// `pows[p][j][v] = (v at nibble position j) · H^(p+1)`.
    pows: [Box<[[u128; 16]; 32]>; 4],
}

/// Builds the 32 nibble-position tables for one hash key.
fn build_tables(h: u128) -> Box<[[u128; 16]; 32]> {
    // basis[e] = x^e · H.
    let mut basis = [0u128; 128];
    basis[0] = h;
    for e in 1..128 {
        basis[e] = mulx(basis[e - 1]);
    }
    let mut t = Box::new([[0u128; 16]; 32]);
    for (j, table) in t.iter_mut().enumerate() {
        for v in 1..16usize {
            let low = v & v.wrapping_neg();
            table[v] = if v == low {
                // Single bit: nibble bit m (from MSB) is exponent 4j+m,
                // and m = 3 - trailing_zeros.
                basis[4 * j + 3 - low.trailing_zeros() as usize]
            } else {
                table[v - low] ^ table[low]
            };
        }
    }
    t
}

/// One table-driven product against a prebuilt power table.
#[inline]
fn mul_with(t: &[[u128; 16]; 32], x: u128) -> u128 {
    let bytes = x.to_be_bytes();
    let mut acc = t[0][(bytes[0] >> 4) as usize] ^ t[1][(bytes[0] & 0xf) as usize];
    for (i, &byte) in bytes.iter().enumerate().skip(1) {
        acc ^= t[2 * i][(byte >> 4) as usize] ^ t[2 * i + 1][(byte & 0xf) as usize];
    }
    acc
}

impl GhashTable {
    /// Builds the byte-position tables for hash key `h` and its powers.
    pub(crate) fn new(h: u128) -> GhashTable {
        let t1 = build_tables(h);
        // Successive powers via the freshly built H table: H^(n+1) = H^n · H.
        let h2 = mul_with(&t1, h);
        let h3 = mul_with(&t1, h2);
        let h4 = mul_with(&t1, h3);
        GhashTable { pows: [t1, build_tables(h2), build_tables(h3), build_tables(h4)] }
    }

    /// Computes `x · H`.
    #[inline]
    pub(crate) fn mul(&self, x: u128) -> u128 {
        mul_with(&self.pows[0], x)
    }

    /// Computes `x · H^pow` (`pow` in 1..=4).
    #[inline]
    pub(crate) fn mul_pow(&self, pow: usize, x: u128) -> u128 {
        mul_with(&self.pows[pow - 1], x)
    }
}

/// Streaming GHASH accumulator over a [`GhashTable`].
pub(crate) struct Ghash<'t> {
    table: &'t GhashTable,
    acc: u128,
}

impl<'t> Ghash<'t> {
    pub(crate) fn new(table: &'t GhashTable) -> Ghash<'t> {
        Ghash { table, acc: 0 }
    }

    /// Absorbs `data`, zero-padding the final partial block.
    pub(crate) fn update(&mut self, data: &[u8]) {
        // Bulk: four blocks per step. (acc⊕b₀)·H⁴, b₁·H³, b₂·H² and b₃·H
        // are independent lookup fans, so the out-of-order core overlaps
        // them; the single-block form stalls on each product in turn.
        let mut quads = data.chunks_exact(64);
        for quad in quads.by_ref() {
            let b = |k: usize| {
                u128::from_be_bytes(quad[16 * k..16 * (k + 1)].try_into().expect("16-byte lane"))
            };
            self.acc = self.table.mul_pow(4, self.acc ^ b(0))
                ^ self.table.mul_pow(3, b(1))
                ^ self.table.mul_pow(2, b(2))
                ^ self.table.mul(b(3));
        }
        let mut blocks = quads.remainder().chunks_exact(16);
        for block in blocks.by_ref() {
            let word = u128::from_be_bytes(block.try_into().expect("16-byte chunk"));
            self.acc = self.table.mul(self.acc ^ word);
        }
        let rem = blocks.remainder();
        if !rem.is_empty() {
            let mut block = [0u8; 16];
            block[..rem.len()].copy_from_slice(rem);
            self.acc = self.table.mul(self.acc ^ u128::from_be_bytes(block));
        }
    }

    /// Absorbs the 64-bit lengths block and produces the hash.
    pub(crate) fn finalize(mut self, aad_len: usize, ct_len: usize) -> u128 {
        let lengths = ((aad_len as u128 * 8) << 64) | (ct_len as u128 * 8);
        self.acc = self.table.mul(self.acc ^ lengths);
        self.acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::gf_mul;

    #[test]
    fn table_mul_matches_bitwise_oracle() {
        let mut x: u128 = 0x0123_4567_89ab_cdef_0011_2233_4455_6677;
        for h in [1u128 << 127, 0xdead_beef_u128, u128::MAX, 0x5a5a << 64] {
            let table = GhashTable::new(h);
            for _ in 0..64 {
                x = x.wrapping_mul(0x2545_f491_4f6c_dd1d).rotate_left(17) ^ h;
                assert_eq!(table.mul(x), gf_mul(x, h), "h={h:x} x={x:x}");
            }
            // Edge operands.
            assert_eq!(table.mul(0), 0);
            assert_eq!(table.mul(1 << 127), h, "1 * H == H");
            assert_eq!(table.mul(u128::MAX), gf_mul(u128::MAX, h));
        }
    }

    #[test]
    fn mulx_agrees_with_oracle_doubling() {
        // x^1 in the reflected convention is the second-highest bit.
        let x_poly: u128 = 1 << 126;
        for v in [0x1234_5678u128, u128::MAX, 1, 1 << 127] {
            assert_eq!(mulx(v), gf_mul(v, x_poly));
        }
    }

    #[test]
    fn power_tables_match_oracle() {
        let h = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210_u128;
        let table = GhashTable::new(h);
        let mut hp = h; // H^pow via the oracle
        for pow in 1..=4 {
            let mut x: u128 = 1;
            for _ in 0..64 {
                x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31) ^ h;
                assert_eq!(table.mul_pow(pow, x), gf_mul(x, hp), "pow={pow} x={x:x}");
            }
            hp = gf_mul(hp, h);
        }
    }

    /// The two-block aggregated update must match the one-block Horner
    /// recurrence at every length mod 32 (pair path, odd-block tail,
    /// partial-block tail).
    #[test]
    fn paired_update_matches_single_block_horner() {
        let h = 0xaae0_6992_acbf_52a3_e8f4_a96e_c920_6be9_u128;
        let table = GhashTable::new(h);
        let data: Vec<u8> = (0..167).map(|i| (i * 37 % 256) as u8).collect();
        for len in 0..data.len() {
            let mut g = Ghash::new(&table);
            g.update(&data[..len]);
            let got = g.finalize(0, len);

            let mut acc = 0u128;
            for chunk in data[..len].chunks(16) {
                let mut block = [0u8; 16];
                block[..chunk.len()].copy_from_slice(chunk);
                acc = gf_mul(acc ^ u128::from_be_bytes(block), h);
            }
            acc = gf_mul(acc ^ ((len as u128) * 8), h);
            assert_eq!(got, acc, "len={len}");
        }
    }

    #[test]
    fn ghash_accumulator_matches_manual_horner() {
        let h = 0x66e9_4bd4_ef8a_2c3b_884c_fa59_ca34_2b2e_u128;
        let table = GhashTable::new(h);
        let data = [0xabu8; 40]; // 2.5 blocks
        let mut g = Ghash::new(&table);
        g.update(&data);
        let got = g.finalize(0, data.len());

        // Manual Horner evaluation with the bitwise oracle.
        let mut acc = 0u128;
        for chunk in data.chunks(16) {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            acc = gf_mul(acc ^ u128::from_be_bytes(block), h);
        }
        acc = gf_mul(acc ^ ((data.len() as u128) * 8), h);
        assert_eq!(got, acc);
    }
}

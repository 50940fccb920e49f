//! FIPS-180-4 SHA-256.
//!
//! [`Sha256::new`] picks the compression backend once, from what the CPU
//! reports: SHA-NI (`sha256rnds2`/`sha256msg1`/`sha256msg2`, in the `hw`
//! module) on x86_64 hosts with the `sha`, `ssse3` and `sse4.1` features,
//! and the portable FIPS-180-4 round loop everywhere else. Both run every
//! full block the caller hands [`Sha256::update`] in one call, and both
//! produce the same digest.

#[cfg(target_arch = "x86_64")]
use crate::hw::ShaNi;
use crate::Backend;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A 32-byte SHA-256 digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Hex-encodes the digest.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
    0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use ccai_crypto::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
    compressor: Compressor,
}

/// The compression backend a hasher was built with.
#[derive(Debug, Clone, Copy)]
enum Compressor {
    #[cfg(target_arch = "x86_64")]
    ShaNi(ShaNi),
    Portable,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher, on SHA-NI when the host supports it and
    /// on the portable round loop otherwise.
    pub fn new() -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(sha) = ShaNi::detect() {
            return Self::with(Compressor::ShaNi(sha));
        }
        Self::with(Compressor::Portable)
    }

    /// Creates a hasher on the portable round loop whatever the host
    /// supports: the differential reference for SHA-NI.
    #[cfg(any(test, feature = "scalar-oracle"))]
    pub fn new_portable() -> Self {
        Self::with(Compressor::Portable)
    }

    fn with(compressor: Compressor) -> Self {
        Sha256 { state: H0, buffer: [0u8; 64], buffer_len: 0, total_len: 0, compressor }
    }

    /// The backend this hasher runs on.
    pub fn backend(&self) -> Backend {
        match self.compressor {
            #[cfg(target_arch = "x86_64")]
            Compressor::ShaNi(_) => Backend::Hardware,
            Compressor::Portable => Backend::Portable,
        }
    }

    /// Absorbs more input.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take]
                .copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.compress(&[block]);
                self.buffer_len = 0;
            }
        }
        let (blocks, rest) = data.as_chunks::<64>();
        self.compress(blocks);
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffer_len = rest.len();
        }
    }

    /// Finishes and returns the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit length.
        self.update_padding(0x80);
        while self.buffer_len != 56 {
            self.update_padding(0x00);
        }
        let len_bytes = bit_len.to_be_bytes();
        for &b in &len_bytes {
            self.update_padding(b);
        }
        debug_assert_eq!(self.buffer_len, 0);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    fn update_padding(&mut self, byte: u8) {
        self.buffer[self.buffer_len] = byte;
        self.buffer_len += 1;
        if self.buffer_len == 64 {
            let block = self.buffer;
            self.compress(&[block]);
            self.buffer_len = 0;
        }
    }

    /// Runs the compression function over `blocks` in order.
    fn compress(&mut self, blocks: &[[u8; 64]]) {
        match self.compressor {
            #[cfg(target_arch = "x86_64")]
            Compressor::ShaNi(sha) => sha.compress(&mut self.state, blocks),
            Compressor::Portable => {
                for block in blocks {
                    self.compress_block(block);
                }
            }
        }
    }

    /// The portable FIPS-180-4 compression function, one block.
    fn compress_block(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input() {
        assert_eq!(
            sha256(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            sha256(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha256(&data).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
        let oneshot = sha256(&data);
        for chunk_size in [1usize, 3, 7, 63, 64, 65, 127, 500] {
            let mut h = Sha256::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Exercise padding at block boundaries: 55, 56, 63, 64, 65 bytes.
        for len in [55usize, 56, 63, 64, 65] {
            let data = vec![0x61u8; len];
            let d1 = sha256(&data);
            let mut h = Sha256::new();
            h.update(&data[..len / 2]);
            h.update(&data[len / 2..]);
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }

    #[test]
    fn digest_display_and_debug() {
        let d = sha256(b"abc");
        assert!(format!("{d}").starts_with("ba7816bf"));
        assert!(format!("{d:?}").contains("ba7816bf"));
    }

    /// The hasher [`Sha256::new`] picks on this host, then the portable
    /// one.
    fn backends() -> [Sha256; 2] {
        [Sha256::new(), Sha256::new_portable()]
    }

    fn hash_with(mut h: Sha256, data: &[u8]) -> Digest {
        h.update(data);
        h.finalize()
    }

    /// The FIPS-180-4 example vectors through every backend.
    #[test]
    fn fips180_vectors_through_every_backend() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 4] = [
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (&million_a, "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"),
        ];
        for (data, want) in vectors {
            for h in backends() {
                let path = h.backend();
                assert_eq!(hash_with(h, data).to_hex(), want, "{path:?} len {}", data.len());
            }
        }
    }

    /// Two `update` calls split anywhere in a three-block message, and
    /// three calls split at any pair of points, equal the one-shot digest
    /// on every backend.
    #[test]
    fn incremental_update_at_every_split_of_a_three_block_message() {
        let data: Vec<u8> = (0..192u32).map(|i| (i * 73 % 256) as u8).collect();
        let oneshot = hash_with(Sha256::new_portable(), &data);
        for make in [Sha256::new, Sha256::new_portable] {
            for i in 0..=data.len() {
                for j in i..=data.len() {
                    let mut h = make();
                    h.update(&data[..i]);
                    h.update(&data[i..j]);
                    h.update(&data[j..]);
                    assert_eq!(h.finalize(), oneshot, "{:?} split {i}/{j}", make().backend());
                }
            }
        }
    }

    /// SHA-NI and the portable round loop agree at every length across
    /// the padding boundaries and on multi-block bulk input.
    #[test]
    fn backends_agree_at_every_length() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i * 131 % 251) as u8).collect();
        for len in (0..=300).chain([1000, 4095, 4096]) {
            let [hw, portable] = backends();
            assert_eq!(hash_with(hw, &data[..len]), hash_with(portable, &data[..len]), "len {len}");
        }
    }
}

//! Hardware crypto kernels for x86_64: AES-NI + PCLMULQDQ AES-GCM and
//! SHA-NI SHA-256.
//!
//! This is the only module of the workspace allowed `unsafe`. It is what
//! the paper's Adaptor runs on (§5, "optimization on security
//! operations"): the TVM seals workload pages with AES-NI, and the same
//! instructions serve the simulated PCIe-SC's AES-GCM-SHA engine and the
//! xPU's SHA-256 kernel surrogate here.
//!
//! * **AES** — key expansion with `aeskeygenassist`, then an
//!   8-block-interleaved CTR keystream (`aesenc` has a multi-cycle
//!   latency but a throughput of one or two per cycle, so eight
//!   independent blocks keep the unit busy).
//! * **GHASH** — `pclmulqdq` products against precomputed `H¹..H⁸`: eight
//!   ciphertext blocks are multiplied by `H⁸..H¹`, their 256-bit products
//!   summed, and the sum reduced once (Intel's carry-less multiplication
//!   white paper, algorithm 5, with aggregated reduction).
//! * **SHA-256** — `sha256rnds2`/`sha256msg1`/`sha256msg2` over as many
//!   64-byte blocks as one call is handed.
//!
//! Every instruction here is data-independent in timing: no lookup is
//! indexed by key, plaintext or hash state, unlike the T-table AES and
//! Shoup GHASH fallback in [`crate::aes`] and [`crate::ghash`].
//!
//! # Safety contract
//!
//! Every kernel is a `#[target_feature]` function, and running one on a
//! CPU that lacks the features is undefined behaviour. The module hands
//! out exactly two witness types, [`HwGcm`] and [`ShaNi`], whose only
//! constructors run `is_x86_feature_detected!` for the kernel's whole
//! feature set and return `None` otherwise. Their fields are private to
//! this module, so holding one proves the check passed, and each unsafe
//! call into a kernel is a method on a witness. All memory access goes
//! through [`load`] and [`store`]: unaligned 16-byte SSE2 moves through
//! `&[u8; 16]` references, so no pointer arithmetic and no alignment
//! assumption appears anywhere.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

use crate::aes::Key;
use std::arch::x86_64::*;

/// Unaligned 16-byte load.
#[inline(always)]
fn load(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: `bytes` references 16 readable bytes; `loadu` has no
    // alignment requirement, and SSE2 is part of the x86_64 baseline.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

/// Unaligned 16-byte store.
#[inline(always)]
fn store(bytes: &mut [u8; 16], v: __m128i) {
    // SAFETY: `bytes` references 16 writable bytes; `storeu` has no
    // alignment requirement, and SSE2 is part of the x86_64 baseline.
    unsafe { _mm_storeu_si128(bytes.as_mut_ptr().cast(), v) }
}

/// AES-GCM key state for the hardware path: the expanded AES round keys
/// and the GHASH key powers.
///
/// A value exists only if [`HwGcm::new`] saw the host report `aes`,
/// `pclmulqdq`, `ssse3` and `sse4.1`.
#[derive(Clone)]
pub(crate) struct HwGcm {
    /// Round keys; AES-128 uses the first 11.
    rk: [__m128i; 15],
    /// 10 (AES-128) or 14 (AES-256).
    rounds: usize,
    /// `h[i]` is `H^(i+1)` in GHASH's byte-reflected domain.
    h: [__m128i; 8],
}

impl HwGcm {
    /// Expands `key`, or returns `None` when the host lacks AES-NI,
    /// PCLMULQDQ, SSSE3 or SSE4.1.
    pub(crate) fn new(key: &Key) -> Option<HwGcm> {
        let detected = is_x86_feature_detected!("aes")
            && is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        // SAFETY: `detected` confirmed every feature `gcm_init` enables.
        detected.then(|| unsafe { gcm_init(key) })
    }

    /// Encrypts `buf` in place under counters 2.. and returns the tag.
    pub(crate) fn seal(&self, nonce: &[u8; 12], buf: &mut [u8], aad: &[u8]) -> [u8; 16] {
        // SAFETY: `self` exists only if `HwGcm::new` detected the
        // features `gcm_seal` enables.
        unsafe { gcm_seal(self, nonce, buf, aad) }
    }

    /// The tag of `ciphertext` under `aad`, without decrypting.
    pub(crate) fn tag(&self, nonce: &[u8; 12], ciphertext: &[u8], aad: &[u8]) -> [u8; 16] {
        // SAFETY: `self` exists only if `HwGcm::new` detected the
        // features `gcm_tag` enables.
        unsafe { gcm_tag(self, nonce, ciphertext, aad) }
    }

    /// XORs the CTR keystream (counters 2..) over `data` in place.
    pub(crate) fn ctr_xor(&self, nonce: &[u8; 12], data: &mut [u8]) {
        // SAFETY: `self` exists only if `HwGcm::new` detected the
        // features `gcm_ctr_xor` enables.
        unsafe { gcm_ctr_xor(self, nonce, data) }
    }
}

/// `k ⊕ (k ≪ 32) ⊕ (k ≪ 64) ⊕ (k ≪ 96)`: the running XOR of the previous
/// round key's words that every FIPS-197 key-expansion step needs.
#[target_feature(enable = "sse2")]
#[inline]
fn spread(k: __m128i) -> __m128i {
    let k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
    let k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
    _mm_xor_si128(k, _mm_slli_si128::<4>(k))
}

/// Key-expansion step with `RotWord`, `SubWord` and `RCON`: the next
/// AES-128 round key from `prev` (`base == prev`), or an even AES-256
/// round key from the two before it.
#[target_feature(enable = "aes")]
#[inline]
fn expand_rot<const RCON: i32>(base: __m128i, prev: __m128i) -> __m128i {
    let assist = _mm_shuffle_epi32::<0xff>(_mm_aeskeygenassist_si128::<RCON>(prev));
    _mm_xor_si128(spread(base), assist)
}

/// AES-256's odd key-expansion step: `SubWord` without rotation or RCON.
#[target_feature(enable = "aes")]
#[inline]
fn expand_sub(base: __m128i, prev: __m128i) -> __m128i {
    let assist = _mm_shuffle_epi32::<0xaa>(_mm_aeskeygenassist_si128::<0>(prev));
    _mm_xor_si128(spread(base), assist)
}

#[target_feature(enable = "aes")]
fn expand128(key: &[u8; 16]) -> [__m128i; 15] {
    let mut rk = [_mm_setzero_si128(); 15];
    rk[0] = load(key);
    rk[1] = expand_rot::<0x01>(rk[0], rk[0]);
    rk[2] = expand_rot::<0x02>(rk[1], rk[1]);
    rk[3] = expand_rot::<0x04>(rk[2], rk[2]);
    rk[4] = expand_rot::<0x08>(rk[3], rk[3]);
    rk[5] = expand_rot::<0x10>(rk[4], rk[4]);
    rk[6] = expand_rot::<0x20>(rk[5], rk[5]);
    rk[7] = expand_rot::<0x40>(rk[6], rk[6]);
    rk[8] = expand_rot::<0x80>(rk[7], rk[7]);
    rk[9] = expand_rot::<0x1b>(rk[8], rk[8]);
    rk[10] = expand_rot::<0x36>(rk[9], rk[9]);
    rk
}

#[target_feature(enable = "aes")]
fn expand256(key: &[u8; 32]) -> [__m128i; 15] {
    let (halves, _) = key.as_chunks::<16>();
    let mut rk = [_mm_setzero_si128(); 15];
    rk[0] = load(&halves[0]);
    rk[1] = load(&halves[1]);
    rk[2] = expand_rot::<0x01>(rk[0], rk[1]);
    rk[3] = expand_sub(rk[1], rk[2]);
    rk[4] = expand_rot::<0x02>(rk[2], rk[3]);
    rk[5] = expand_sub(rk[3], rk[4]);
    rk[6] = expand_rot::<0x04>(rk[4], rk[5]);
    rk[7] = expand_sub(rk[5], rk[6]);
    rk[8] = expand_rot::<0x08>(rk[6], rk[7]);
    rk[9] = expand_sub(rk[7], rk[8]);
    rk[10] = expand_rot::<0x10>(rk[8], rk[9]);
    rk[11] = expand_sub(rk[9], rk[10]);
    rk[12] = expand_rot::<0x20>(rk[10], rk[11]);
    rk[13] = expand_sub(rk[11], rk[12]);
    rk[14] = expand_rot::<0x40>(rk[12], rk[13]);
    rk
}

/// Encrypts one block.
#[target_feature(enable = "aes")]
#[inline]
fn encrypt1(g: &HwGcm, block: __m128i) -> __m128i {
    let mut b = _mm_xor_si128(block, g.rk[0]);
    for k in &g.rk[1..g.rounds] {
        b = _mm_aesenc_si128(b, *k);
    }
    _mm_aesenclast_si128(b, g.rk[g.rounds])
}

/// Encrypts eight blocks with the rounds interleaved across them.
#[target_feature(enable = "aes")]
#[inline]
fn encrypt8(g: &HwGcm, mut b: [__m128i; 8]) -> [__m128i; 8] {
    for x in &mut b {
        *x = _mm_xor_si128(*x, g.rk[0]);
    }
    for k in &g.rk[1..g.rounds] {
        for x in &mut b {
            *x = _mm_aesenc_si128(*x, *k);
        }
    }
    for x in &mut b {
        *x = _mm_aesenclast_si128(*x, g.rk[g.rounds]);
    }
    b
}

/// The counter block `nonce ‖ 0` that [`counter_block`] fills in.
#[inline]
fn nonce_block(nonce: &[u8; 12]) -> __m128i {
    let mut j = [0u8; 16];
    j[..12].copy_from_slice(nonce);
    load(&j)
}

/// `nonce ‖ counter` (big-endian counter in bytes 12..16).
#[target_feature(enable = "sse4.1")]
#[inline]
fn counter_block(base: __m128i, counter: u32) -> __m128i {
    _mm_insert_epi32::<3>(base, i32::from_ne_bytes(counter.to_be_bytes()))
}

/// Keystream blocks for counters `counter..counter + 8`.
#[target_feature(enable = "aes,sse4.1")]
#[inline]
fn keystream8(g: &HwGcm, base: __m128i, counter: u32) -> [__m128i; 8] {
    let mut b = [base; 8];
    for (k, x) in b.iter_mut().enumerate() {
        *x = counter_block(base, counter.wrapping_add(k as u32));
    }
    encrypt8(g, b)
}

/// Reverses the 16 bytes: a GCM block ↔ its value in GHASH's reflected
/// domain (an integer whose most significant bit is the coefficient of
/// x⁰, as `u128::from_be_bytes` reads it on the portable path).
#[target_feature(enable = "ssse3")]
#[inline]
fn bswap(v: __m128i) -> __m128i {
    _mm_shuffle_epi8(v, _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f))
}

/// An unreduced 256-bit carry-less product, as its low, middle and high
/// 128-bit partial sums.
#[derive(Clone, Copy)]
struct Wide {
    lo: __m128i,
    mid: __m128i,
    hi: __m128i,
}

/// Schoolbook 128×128 carry-less multiply, unreduced.
#[target_feature(enable = "pclmulqdq")]
#[inline]
fn clmul(a: __m128i, b: __m128i) -> Wide {
    Wide {
        lo: _mm_clmulepi64_si128::<0x00>(a, b),
        mid: _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(a, b), _mm_clmulepi64_si128::<0x01>(a, b)),
        hi: _mm_clmulepi64_si128::<0x11>(a, b),
    }
}

#[target_feature(enable = "sse2")]
#[inline]
fn wide_xor(a: Wide, b: Wide) -> Wide {
    Wide {
        lo: _mm_xor_si128(a.lo, b.lo),
        mid: _mm_xor_si128(a.mid, b.mid),
        hi: _mm_xor_si128(a.hi, b.hi),
    }
}

/// Reduces a sum of reflected-domain products modulo the GCM polynomial
/// `x¹²⁸ + x⁷ + x² + x + 1`.
///
/// The product of two bit-reflected operands is the reflected product
/// shifted right by one, so the 256-bit value is first shifted left by
/// one bit; the reduction then folds the low half into the high half by
/// the shifts that multiply by `x⁷ + x² + x + 1` in reflected order.
#[target_feature(enable = "sse2")]
#[inline]
fn reduce(w: Wide) -> __m128i {
    let lo = _mm_xor_si128(w.lo, _mm_slli_si128::<8>(w.mid));
    let hi = _mm_xor_si128(w.hi, _mm_srli_si128::<8>(w.mid));

    // [hi:lo] <<= 1 across the 32-bit lanes and the 128-bit halves.
    let lo_carry = _mm_srli_epi32::<31>(lo);
    let hi_carry = _mm_srli_epi32::<31>(hi);
    let lo = _mm_or_si128(_mm_slli_epi32::<1>(lo), _mm_slli_si128::<4>(lo_carry));
    let hi = _mm_or_si128(
        _mm_or_si128(_mm_slli_epi32::<1>(hi), _mm_slli_si128::<4>(hi_carry)),
        _mm_srli_si128::<12>(lo_carry),
    );

    // First phase: the bits that multiplying by x, x² and x⁷ (left
    // shifts by 31, 30 and 25 in reflected order) carry across lanes.
    let a = _mm_xor_si128(
        _mm_xor_si128(_mm_slli_epi32::<31>(lo), _mm_slli_epi32::<30>(lo)),
        _mm_slli_epi32::<25>(lo),
    );
    let spill = _mm_srli_si128::<4>(a);
    let lo = _mm_xor_si128(lo, _mm_slli_si128::<12>(a));

    // Second phase: the same products' in-lane part (right shifts by 1,
    // 2 and 7), then fold the reduced low half into the high half.
    let b = _mm_xor_si128(
        _mm_xor_si128(_mm_srli_epi32::<1>(lo), _mm_srli_epi32::<2>(lo)),
        _mm_xor_si128(_mm_srli_epi32::<7>(lo), spill),
    );
    _mm_xor_si128(hi, _mm_xor_si128(lo, b))
}

/// `a · b` in GF(2¹²⁸), reflected domain.
#[target_feature(enable = "pclmulqdq")]
#[inline]
fn gf_mul(a: __m128i, b: __m128i) -> __m128i {
    reduce(clmul(a, b))
}

/// Absorbs `x.len()` (1..=8) reflected blocks with one reduction:
/// `acc ← (acc ⊕ x₀)·Hⁿ ⊕ x₁·Hⁿ⁻¹ ⊕ … ⊕ xₙ₋₁·H`.
#[target_feature(enable = "pclmulqdq")]
#[inline]
fn ghash_blocks(h: &[__m128i; 8], acc: __m128i, x: &[__m128i]) -> __m128i {
    let n = x.len();
    let mut w = clmul(_mm_xor_si128(acc, x[0]), h[n - 1]);
    for (k, xk) in x.iter().enumerate().skip(1) {
        w = wide_xor(w, clmul(*xk, h[n - 1 - k]));
    }
    reduce(w)
}

/// Loads up to eight blocks and absorbs them with one reduction.
#[target_feature(enable = "pclmulqdq,ssse3")]
#[inline]
fn ghash_group(h: &[__m128i; 8], acc: __m128i, group: &[[u8; 16]]) -> __m128i {
    let mut x = [_mm_setzero_si128(); 8];
    for (xk, block) in x.iter_mut().zip(group) {
        *xk = bswap(load(block));
    }
    ghash_blocks(h, acc, &x[..group.len()])
}

/// Absorbs `data`, zero-padding the final partial block.
#[target_feature(enable = "pclmulqdq,ssse3")]
fn ghash_update(h: &[__m128i; 8], mut acc: __m128i, data: &[u8]) -> __m128i {
    let (blocks, partial) = data.as_chunks::<16>();
    let (octets, rest) = blocks.as_chunks::<8>();
    for octet in octets {
        acc = ghash_group(h, acc, octet);
    }
    if !rest.is_empty() {
        acc = ghash_group(h, acc, rest);
    }
    if !partial.is_empty() {
        let mut block = [0u8; 16];
        block[..partial.len()].copy_from_slice(partial);
        acc = gf_mul(_mm_xor_si128(acc, bswap(load(&block))), h[0]);
    }
    acc
}

/// XORs keystream blocks over up to 128 bytes of `data`.
#[target_feature(enable = "sse2")]
#[inline]
fn xor_keystream(ks: &[__m128i; 8], data: &mut [u8]) {
    debug_assert!(data.len() <= 128, "a tail is shorter than one 8-block slab");
    for (chunk, k) in data.chunks_mut(16).zip(ks) {
        let mut block = [0u8; 16];
        block[..chunk.len()].copy_from_slice(chunk);
        let v = _mm_xor_si128(load(&block), *k);
        store(&mut block, v);
        chunk.copy_from_slice(&block[..chunk.len()]);
    }
}

#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn gcm_init(key: &Key) -> HwGcm {
    let (rk, rounds) = match key {
        Key::Aes128(k) => (expand128(k), 10),
        Key::Aes256(k) => (expand256(k), 14),
    };
    let mut g = HwGcm { rk, rounds, h: [_mm_setzero_si128(); 8] };
    let h = bswap(encrypt1(&g, _mm_setzero_si128()));
    let mut power = h;
    for slot in &mut g.h {
        *slot = power;
        power = gf_mul(power, h);
    }
    g
}

/// Absorbs the lengths block and masks the hash with `E(K, nonce ‖ 1)`.
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn gcm_finish(g: &HwGcm, base: __m128i, acc: __m128i, aad_len: usize, ct_len: usize) -> [u8; 16] {
    let bits = |len: usize| (len as u64).wrapping_mul(8) as i64;
    let lengths = _mm_set_epi64x(bits(aad_len), bits(ct_len));
    let s = gf_mul(_mm_xor_si128(acc, lengths), g.h[0]);
    let mask = encrypt1(g, counter_block(base, 1));
    let mut tag = [0u8; 16];
    store(&mut tag, _mm_xor_si128(bswap(s), mask));
    tag
}

#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn gcm_seal(g: &HwGcm, nonce: &[u8; 12], buf: &mut [u8], aad: &[u8]) -> [u8; 16] {
    let base = nonce_block(nonce);
    let total = buf.len();
    let mut acc = ghash_update(&g.h, _mm_setzero_si128(), aad);
    let mut counter = 2u32; // counter 1 masks the tag
    let (slabs, tail) = buf.as_chunks_mut::<128>();
    // Software-pipelined by one slab: GHASH of slab i-1's ciphertext
    // (still in registers) runs beside slab i's AES rounds, so neither
    // unit waits on the other's latency chain.
    let mut pending: Option<[__m128i; 8]> = None;
    for slab in slabs {
        let ks = keystream8(g, base, counter);
        if let Some(ct) = pending {
            acc = ghash_blocks(&g.h, acc, &ct);
        }
        let (blocks, _) = slab.as_chunks_mut::<16>();
        let mut ct = [_mm_setzero_si128(); 8];
        for ((block, k), c) in blocks.iter_mut().zip(&ks).zip(&mut ct) {
            let v = _mm_xor_si128(load(block), *k);
            store(block, v);
            *c = bswap(v);
        }
        pending = Some(ct);
        counter = counter.wrapping_add(8);
    }
    if let Some(ct) = pending {
        acc = ghash_blocks(&g.h, acc, &ct);
    }
    if !tail.is_empty() {
        xor_keystream(&keystream8(g, base, counter), tail);
        acc = ghash_update(&g.h, acc, tail);
    }
    gcm_finish(g, base, acc, aad.len(), total)
}

#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn gcm_tag(g: &HwGcm, nonce: &[u8; 12], ciphertext: &[u8], aad: &[u8]) -> [u8; 16] {
    let acc = ghash_update(&g.h, _mm_setzero_si128(), aad);
    let acc = ghash_update(&g.h, acc, ciphertext);
    gcm_finish(g, nonce_block(nonce), acc, aad.len(), ciphertext.len())
}

#[target_feature(enable = "aes,sse4.1")]
fn gcm_ctr_xor(g: &HwGcm, nonce: &[u8; 12], data: &mut [u8]) {
    let base = nonce_block(nonce);
    let mut counter = 2u32;
    let (slabs, tail) = data.as_chunks_mut::<128>();
    for slab in slabs {
        let ks = keystream8(g, base, counter);
        let (blocks, _) = slab.as_chunks_mut::<16>();
        for (block, k) in blocks.iter_mut().zip(&ks) {
            let v = _mm_xor_si128(load(block), *k);
            store(block, v);
        }
        counter = counter.wrapping_add(8);
    }
    if !tail.is_empty() {
        xor_keystream(&keystream8(g, base, counter), tail);
    }
}

/// Witness that the host runs SHA-NI (with SSSE3 and SSE4.1).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShaNi(());

impl ShaNi {
    /// `Some` only when the host reports `sha`, `ssse3` and `sse4.1`.
    pub(crate) fn detect() -> Option<ShaNi> {
        let detected = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        detected.then_some(ShaNi(()))
    }

    /// Runs the SHA-256 compression function over every block in order.
    pub(crate) fn compress(self, state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // SAFETY: a `ShaNi` exists only if `detect` confirmed every
        // feature `sha256_blocks` enables.
        unsafe { sha256_blocks(state, blocks) }
    }
}

/// FIPS-180-4 round constants as sixteen little-endian lanes of four,
/// one per `sha256rnds2` pair.
const K_LANES: [[u8; 16]; 16] = {
    let mut lanes = [[0u8; 16]; 16];
    let mut i = 0;
    while i < 64 {
        let bytes = crate::sha256::K[i].to_le_bytes();
        let mut b = 0;
        while b < 4 {
            lanes[i / 4][4 * (i % 4) + b] = bytes[b];
            b += 1;
        }
        i += 1;
    }
    lanes
};

/// The working state in the layout `sha256rnds2` takes.
struct ShaState {
    abef: __m128i,
    cdgh: __m128i,
}

/// Four rounds with message words `w` and round constants `K_LANES[i]`.
#[target_feature(enable = "sha")]
#[inline]
fn rounds4(s: &mut ShaState, w: __m128i, i: usize) {
    let wk = _mm_add_epi32(w, load(&K_LANES[i]));
    s.cdgh = _mm_sha256rnds2_epu32(s.cdgh, s.abef, wk);
    s.abef = _mm_sha256rnds2_epu32(s.abef, s.cdgh, _mm_shuffle_epi32::<0x0e>(wk));
}

/// Message words `4i..4i+4` of the schedule from the four groups before
/// them (`w4` the oldest, `w1` the newest).
#[target_feature(enable = "sha,ssse3")]
#[inline]
fn schedule(w4: __m128i, w3: __m128i, w2: __m128i, w1: __m128i) -> __m128i {
    let sum = _mm_add_epi32(_mm_sha256msg1_epu32(w4, w3), _mm_alignr_epi8::<4>(w1, w2));
    _mm_sha256msg2_epu32(sum, w1)
}

#[target_feature(enable = "sha,ssse3,sse4.1")]
fn sha256_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    let lane = |w: u32| w as i32;
    // Big-endian message words within each 32-bit lane.
    let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    // The instructions keep the state as ABEF / CDGH.
    let abcd = _mm_set_epi32(lane(state[3]), lane(state[2]), lane(state[1]), lane(state[0]));
    let efgh = _mm_set_epi32(lane(state[7]), lane(state[6]), lane(state[5]), lane(state[4]));
    let badc = _mm_shuffle_epi32::<0xb1>(abcd);
    let hgfe = _mm_shuffle_epi32::<0x1b>(efgh);
    let mut s = ShaState {
        abef: _mm_alignr_epi8::<8>(badc, hgfe),
        cdgh: _mm_blend_epi16::<0xf0>(hgfe, badc),
    };

    for block in blocks {
        let (abef_in, cdgh_in) = (s.abef, s.cdgh);
        let (q, _) = block.as_chunks::<16>();
        let mut w0 = _mm_shuffle_epi8(load(&q[0]), be_words);
        let mut w1 = _mm_shuffle_epi8(load(&q[1]), be_words);
        let mut w2 = _mm_shuffle_epi8(load(&q[2]), be_words);
        let mut w3 = _mm_shuffle_epi8(load(&q[3]), be_words);
        rounds4(&mut s, w0, 0);
        rounds4(&mut s, w1, 1);
        rounds4(&mut s, w2, 2);
        rounds4(&mut s, w3, 3);
        for i in (4..16).step_by(4) {
            w0 = schedule(w0, w1, w2, w3);
            rounds4(&mut s, w0, i);
            w1 = schedule(w1, w2, w3, w0);
            rounds4(&mut s, w1, i + 1);
            w2 = schedule(w2, w3, w0, w1);
            rounds4(&mut s, w2, i + 2);
            w3 = schedule(w3, w0, w1, w2);
            rounds4(&mut s, w3, i + 3);
        }
        s.abef = _mm_add_epi32(s.abef, abef_in);
        s.cdgh = _mm_add_epi32(s.cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32::<0x1b>(s.abef);
    let dchg = _mm_shuffle_epi32::<0xb1>(s.cdgh);
    let mut out = [[0u8; 16]; 2];
    store(&mut out[0], _mm_blend_epi16::<0xf0>(feba, dchg)); // ABCD
    store(&mut out[1], _mm_alignr_epi8::<8>(dchg, feba)); // EFGH
    for (word, bytes) in state.iter_mut().zip(out.as_flattened().as_chunks::<4>().0) {
        *word = u32::from_le_bytes(*bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::gf_mul as gf_mul_oracle;

    fn to_u128(v: __m128i) -> u128 {
        let mut b = [0u8; 16];
        store(&mut b, v);
        u128::from_le_bytes(b)
    }

    fn from_u128(x: u128) -> __m128i {
        load(&x.to_le_bytes())
    }

    /// The reflected-domain multiply must equal the bit-serial oracle on
    /// the same `u128` convention.
    #[test]
    fn clmul_multiply_matches_bitwise_oracle() {
        if HwGcm::new(&Key::Aes128([0; 16])).is_none() {
            return;
        }
        let mut x: u128 = 0x0123_4567_89ab_cdef_0011_2233_4455_6677;
        for h in [1u128 << 127, 1, 0xdead_beef_u128, u128::MAX, 0x5a5a << 64] {
            for _ in 0..256 {
                x = x.wrapping_mul(0x2545_f491_4f6c_dd1d).rotate_left(17) ^ h;
                // SAFETY: the early return above proved PCLMULQDQ.
                let got = to_u128(unsafe { gf_mul(from_u128(x), from_u128(h)) });
                assert_eq!(got, gf_mul_oracle(x, h), "h={h:x} x={x:x}");
            }
        }
    }

    #[test]
    fn key_powers_match_oracle() {
        let Some(g) = HwGcm::new(&Key::Aes256([0x5c; 32])) else { return };
        let h = to_u128(g.h[0]);
        let mut power = h;
        for (i, slot) in g.h.iter().enumerate() {
            assert_eq!(to_u128(*slot), power, "H^{}", i + 1);
            power = gf_mul_oracle(power, h);
        }
    }
}

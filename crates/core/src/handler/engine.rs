//! The AES-GCM-SHA engine (§7.2).
//!
//! The FPGA prototype implements this as "an AES-GCM-SHA hardware engine
//! for de/encryption and integrity checks"; here it is the functional
//! core around `ccai-crypto`, instrumented with the byte/op counters the
//! performance model prices.
//!
//! Ciphertext is emitted *detached*: the ciphertext has the plaintext's
//! length (CTR keystream) and the 16-byte tag is returned separately for
//! the Authentication Tag Manager to ship out-of-band.

use ccai_crypto::{AesGcm, Key};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// Engine activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Plaintext bytes encrypted.
    pub bytes_encrypted: u64,
    /// Ciphertext bytes decrypted (successfully).
    pub bytes_decrypted: u64,
    /// Encryption operations.
    pub seal_ops: u64,
    /// Decryption operations attempted.
    pub open_ops: u64,
    /// Decryptions that failed authentication.
    pub auth_failures: u64,
}

/// Key schedules a [`CryptoEngine`] keeps at most. Streams are rekeyed
/// per session, so an unbounded cache would grow with every key the
/// engine has ever seen; past this many the oldest schedule is dropped
/// and rebuilt on its next use.
const CIPHER_CACHE_CAPACITY: usize = 32;

/// Stack-allocated cache key: the raw key bytes widened to the larger
/// key size. Comparing this is allocation-free, unlike the `Vec<u8>` key
/// the seed used (one heap allocation per crypto call).
#[derive(Clone, Copy, PartialEq, Eq)]
struct KeyFingerprint {
    len: u8,
    bytes: [u8; 32],
}

impl KeyFingerprint {
    fn of(key: &Key) -> KeyFingerprint {
        let raw = key.as_bytes();
        let mut bytes = [0u8; 32];
        bytes[..raw.len()].copy_from_slice(raw);
        KeyFingerprint { len: raw.len() as u8, bytes }
    }
}

/// The crypto engine with a small key-schedule cache.
pub struct CryptoEngine {
    /// Key schedules in insertion order, at most
    /// [`CIPHER_CACHE_CAPACITY`]. A pure memo: which keys it holds never
    /// changes an output.
    ciphers: VecDeque<(KeyFingerprint, AesGcm)>,
    stats: EngineStats,
}

impl fmt::Debug for CryptoEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CryptoEngine").field("stats", &self.stats).finish()
    }
}

impl Default for CryptoEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl CryptoEngine {
    /// Creates an idle engine.
    pub fn new() -> Self {
        CryptoEngine { ciphers: VecDeque::new(), stats: EngineStats::default() }
    }

    /// The cached schedule for `key`, built (evicting the oldest entry
    /// when the cache is full) on a miss.
    fn cipher(&mut self, key: &Key) -> &AesGcm {
        let fingerprint = KeyFingerprint::of(key);
        let slot = match self.ciphers.iter().position(|(f, _)| *f == fingerprint) {
            Some(slot) => slot,
            None => {
                if self.ciphers.len() == CIPHER_CACHE_CAPACITY {
                    self.ciphers.pop_front();
                }
                self.ciphers.push_back((fingerprint, AesGcm::new(key)));
                self.ciphers.len() - 1
            }
        };
        &self.ciphers[slot].1
    }

    /// Encrypts a chunk; returns `(ciphertext, tag)` with
    /// `ciphertext.len() == plaintext.len()`. Rides the cipher's detached
    /// API directly: one allocation for the ciphertext, no concatenation
    /// or truncation.
    pub fn seal_detached(
        &mut self,
        key: &Key,
        nonce: &[u8; 12],
        plaintext: &[u8],
        aad: &[u8],
    ) -> (Vec<u8>, [u8; 16]) {
        self.stats.seal_ops += 1;
        self.stats.bytes_encrypted += plaintext.len() as u64;
        self.cipher(key).seal_detached(nonce, plaintext, aad)
    }

    /// Encrypts a chunk in place, returning the detached tag. The
    /// zero-copy variant of [`CryptoEngine::seal_detached`] for callers
    /// that already own a mutable staging buffer.
    pub fn seal_in_place_detached(
        &mut self,
        key: &Key,
        nonce: &[u8; 12],
        buf: &mut [u8],
        aad: &[u8],
    ) -> [u8; 16] {
        self.stats.seal_ops += 1;
        self.stats.bytes_encrypted += buf.len() as u64;
        self.cipher(key).seal_in_place_detached(nonce, buf, aad)
    }

    /// Decrypts a chunk against its detached tag.
    ///
    /// # Errors
    ///
    /// `Err(())` if the tag fails to verify (tampered data, wrong key,
    /// wrong nonce or wrong AAD). No plaintext is released.
    #[allow(clippy::result_unit_err)]
    pub fn open_detached(
        &mut self,
        key: &Key,
        nonce: &[u8; 12],
        ciphertext: &[u8],
        tag: &[u8; 16],
        aad: &[u8],
    ) -> Result<Vec<u8>, ()> {
        self.stats.open_ops += 1;
        match self.cipher(key).open_detached(nonce, ciphertext, tag, aad) {
            Ok(plain) => {
                self.stats.bytes_decrypted += plain.len() as u64;
                Ok(plain)
            }
            Err(_) => {
                self.stats.auth_failures += 1;
                Err(())
            }
        }
    }

    /// Verifies and decrypts a chunk in place against its detached tag.
    /// On failure the buffer is left as ciphertext.
    ///
    /// # Errors
    ///
    /// `Err(())` if the tag fails to verify; no plaintext is produced.
    #[allow(clippy::result_unit_err)]
    pub fn open_in_place_detached(
        &mut self,
        key: &Key,
        nonce: &[u8; 12],
        buf: &mut [u8],
        tag: &[u8; 16],
        aad: &[u8],
    ) -> Result<(), ()> {
        self.stats.open_ops += 1;
        match self.cipher(key).open_in_place_detached(nonce, buf, tag, aad) {
            Ok(()) => {
                self.stats.bytes_decrypted += buf.len() as u64;
                Ok(())
            }
            Err(_) => {
                self.stats.auth_failures += 1;
                Err(())
            }
        }
    }

    /// Computes a standalone integrity tag over plaintext data (the A3
    /// "integrity check (plain)" primitive).
    pub fn plain_tag(&mut self, key: &Key, nonce: &[u8; 12], data: &[u8]) -> [u8; 16] {
        self.cipher(key).tag_only(nonce, data)
    }

    /// Verifies a standalone integrity tag.
    pub fn verify_plain_tag(
        &mut self,
        key: &Key,
        nonce: &[u8; 12],
        data: &[u8],
        tag: &[u8; 16],
    ) -> bool {
        let ok = self.cipher(key).verify_tag_only(nonce, data, tag);
        if !ok {
            self.stats.auth_failures += 1;
        }
        ok
    }

    /// Engine counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Serializes the engine's activity counters. The key-schedule cache
    /// carries no durable state — it repopulates lazily on first use after
    /// a restore.
    pub fn encode_snapshot(&self, enc: &mut ccai_sim::snapshot::Encoder) {
        enc.u64(self.stats.bytes_encrypted);
        enc.u64(self.stats.bytes_decrypted);
        enc.u64(self.stats.seal_ops);
        enc.u64(self.stats.open_ops);
        enc.u64(self.stats.auth_failures);
    }

    /// Restores the activity counters from a snapshot.
    ///
    /// # Errors
    ///
    /// [`ccai_sim::SnapshotError::Truncated`] on exhausted input.
    pub fn restore_snapshot(
        &mut self,
        dec: &mut ccai_sim::snapshot::Decoder<'_>,
    ) -> Result<(), ccai_sim::SnapshotError> {
        let stats = EngineStats {
            bytes_encrypted: dec.u64()?,
            bytes_decrypted: dec.u64()?,
            seal_ops: dec.u64()?,
            open_ops: dec.u64()?,
            auth_failures: dec.u64()?,
        };
        self.stats = stats;
        self.ciphers.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> Key {
        Key::Aes128([0x21; 16])
    }

    #[test]
    fn detached_round_trip_preserves_length() {
        let mut engine = CryptoEngine::new();
        let plaintext = vec![0x44u8; 4096];
        let (ct, tag) = engine.seal_detached(&key(), &[1; 12], &plaintext, b"aad");
        assert_eq!(ct.len(), plaintext.len(), "CTR ciphertext is size-preserving");
        assert_ne!(ct, plaintext);
        let back = engine.open_detached(&key(), &[1; 12], &ct, &tag, b"aad").unwrap();
        assert_eq!(back, plaintext);
    }

    #[test]
    fn tamper_and_wrong_context_fail() {
        let mut engine = CryptoEngine::new();
        let (ct, tag) = engine.seal_detached(&key(), &[1; 12], b"data", b"aad");
        let mut bad_ct = ct.clone();
        bad_ct[0] ^= 1;
        assert!(engine.open_detached(&key(), &[1; 12], &bad_ct, &tag, b"aad").is_err());
        assert!(engine.open_detached(&key(), &[2; 12], &ct, &tag, b"aad").is_err());
        assert!(engine.open_detached(&key(), &[1; 12], &ct, &tag, b"dad").is_err());
        let mut bad_tag = tag;
        bad_tag[15] ^= 1;
        assert!(engine.open_detached(&key(), &[1; 12], &ct, &bad_tag, b"aad").is_err());
        assert_eq!(engine.stats().auth_failures, 4);
    }

    #[test]
    fn counters_track_bytes() {
        let mut engine = CryptoEngine::new();
        let (ct, tag) = engine.seal_detached(&key(), &[1; 12], &[0; 1000], b"");
        engine.open_detached(&key(), &[1; 12], &ct, &tag, b"").unwrap();
        let stats = engine.stats();
        assert_eq!(stats.bytes_encrypted, 1000);
        assert_eq!(stats.bytes_decrypted, 1000);
        assert_eq!(stats.seal_ops, 1);
        assert_eq!(stats.open_ops, 1);
    }

    #[test]
    fn plain_tags() {
        let mut engine = CryptoEngine::new();
        let tag = engine.plain_tag(&key(), &[3; 12], b"mmio write");
        assert!(engine.verify_plain_tag(&key(), &[3; 12], b"mmio write", &tag));
        assert!(!engine.verify_plain_tag(&key(), &[3; 12], b"mmio writf", &tag));
    }

    #[test]
    fn in_place_variants_count_stats_and_round_trip() {
        let mut engine = CryptoEngine::new();
        let mut buf = vec![0x5Au8; 4096];
        let original = buf.clone();
        let tag = engine.seal_in_place_detached(&key(), &[7; 12], &mut buf, b"aad");
        assert_ne!(buf, original);
        engine
            .open_in_place_detached(&key(), &[7; 12], &mut buf, &tag, b"aad")
            .unwrap();
        assert_eq!(buf, original);
        // A failed in-place open must count an auth failure and not a
        // decrypted byte.
        let mut bad_tag = tag;
        bad_tag[3] ^= 1;
        let mut sealed_again = buf.clone();
        let tag2 = engine.seal_in_place_detached(&key(), &[8; 12], &mut sealed_again, b"");
        assert_ne!(tag2, bad_tag);
        assert!(engine
            .open_in_place_detached(&key(), &[8; 12], &mut sealed_again, &bad_tag, b"")
            .is_err());
        let stats = engine.stats();
        assert_eq!(stats.seal_ops, 2);
        assert_eq!(stats.open_ops, 2);
        assert_eq!(stats.bytes_encrypted, 8192);
        assert_eq!(stats.bytes_decrypted, 4096);
        assert_eq!(stats.auth_failures, 1);
    }

    #[test]
    fn fingerprint_distinguishes_key_widths() {
        // A 16-byte zero key and a 32-byte zero key share their first 16
        // bytes; the fingerprint's length field must keep their cached
        // schedules apart.
        let mut engine = CryptoEngine::new();
        let k128 = Key::Aes128([0; 16]);
        let k256 = Key::Aes256([0; 32]);
        let (ct1, tag1) = engine.seal_detached(&k128, &[0; 12], b"same input", b"");
        let (ct2, _) = engine.seal_detached(&k256, &[0; 12], b"same input", b"");
        assert_ne!(ct1, ct2);
        assert!(engine.open_detached(&k128, &[0; 12], &ct1, &tag1, b"").is_ok());
        assert!(engine.open_detached(&k256, &[0; 12], &ct1, &tag1, b"").is_err());
    }

    #[test]
    fn key_cache_is_transparent() {
        let mut engine = CryptoEngine::new();
        let k1 = Key::Aes128([1; 16]);
        let k2 = Key::Aes128([2; 16]);
        let (ct1, tag1) = engine.seal_detached(&k1, &[0; 12], b"x", b"");
        let (ct2, _) = engine.seal_detached(&k2, &[0; 12], b"x", b"");
        assert_ne!(ct1, ct2);
        assert!(engine.open_detached(&k1, &[0; 12], &ct1, &tag1, b"").is_ok());
        assert!(engine.open_detached(&k2, &[0; 12], &ct1, &tag1, b"").is_err());
    }

    /// A fresh stream key per request (as the interactive fleet serves)
    /// must not grow the cache past its bound, and eviction must not
    /// change any result: the long-lived environment key keeps verifying
    /// across evictions.
    #[test]
    fn cipher_cache_stays_bounded_over_10k_requests() {
        let mut engine = CryptoEngine::new();
        let env = Key::Aes256([0xE7; 32]);
        let env_tag = engine.plain_tag(&env, &[1; 12], b"register write");
        for request in 0u32..10_000 {
            let mut raw = [0u8; 16];
            raw[..4].copy_from_slice(&request.to_le_bytes());
            let stream = Key::Aes128(raw);
            let (ct, tag) = engine.seal_detached(&stream, &[2; 12], b"prompt", b"aad");
            let plain = engine.open_detached(&stream, &[2; 12], &ct, &tag, b"aad").unwrap();
            assert_eq!(plain, b"prompt");
            assert!(engine.verify_plain_tag(&env, &[1; 12], b"register write", &env_tag));
            assert!(engine.ciphers.len() <= CIPHER_CACHE_CAPACITY, "request {request}");
        }
        assert_eq!(engine.ciphers.len(), CIPHER_CACHE_CAPACITY);
        assert_eq!(engine.stats().auth_failures, 0);
    }
}

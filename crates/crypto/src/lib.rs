//! Cryptographic substrate for the ccAI reproduction.
//!
//! The ccAI prototype relies on three cryptographic facilities:
//!
//! 1. **AES-GCM** for workload confidentiality and integrity over the PCIe
//!    bus — the Adaptor encrypts in the TVM (with AES-NI on the real system)
//!    and the PCIe-SC's AES-GCM-SHA hardware engine decrypts/verifies
//!    (§4.2, §7.2). The paper's parameters are 12-byte nonce + 4-byte
//!    counter IVs and 16-byte authentication tags.
//! 2. **Hashing/signing** for trust establishment — PCR measurement chains,
//!    attestation-key signatures over PCR quotes (§6).
//! 3. **Diffie-Hellman** session-key exchange between the verifier and the
//!    ccAI platform (§6, Fig. 6).
//!
//! No crypto crates exist in the sanctioned offline dependency set, so every
//! primitive is implemented here from the public definitions:
//!
//! * [`aes`] — FIPS-197 AES-128/256 block cipher;
//! * [`gcm`] — NIST SP 800-38D Galois/Counter Mode ([`AesGcm`]);
//! * [`sha256`](mod@sha256) — FIPS-180-4 SHA-256;
//! * [`hmac`] — RFC 2104 HMAC-SHA256 and RFC 5869 HKDF;
//! * [`bignum`] — odd-modulus Montgomery arithmetic for [`dh`]/[`schnorr`];
//! * [`dh`] — finite-field Diffie-Hellman over RFC 3526 MODP groups;
//! * [`schnorr`] — Schnorr signatures in the prime-order subgroup;
//! * [`iv`] — the IV manager with the H100-style exhaustion policy (§6);
//! * [`ct`] — constant-time comparison helpers.
//!
//! # Backends
//!
//! The bulk primitives run on the CPU's crypto instructions where it has
//! them, as the paper's Adaptor does. [`AesGcm::new`] and [`Sha256::new`]
//! each pick a [`Backend`] once, from `is_x86_feature_detected!`:
//!
//! * **Hardware** — on x86_64 with AES-NI + PCLMULQDQ (AES-GCM: ~3 GiB/s
//!   per core at 4 KiB chunks, 0.15 µs key setup) or SHA-NI (SHA-256:
//!   ~1.2 GiB/s). These kernels live in one private module, the only
//!   place in the workspace allowed `unsafe`; their timing does not
//!   depend on keys or data.
//! * **Portable** — everywhere else: T-table AES with Shoup-table GHASH
//!   (~0.15–0.3 GiB/s, ~11 µs key setup for 32 KiB of tables) and the
//!   FIPS-180-4 SHA-256 round loop (~0.2 GiB/s). The table lookups are
//!   indexed by secret bytes, so this path is not constant-time.
//!
//! Both backends produce identical bytes; nothing but the host's CPU
//! features chooses between them. The seed's byte-at-a-time AES-GCM is
//! retained in `scalar` (tests + the `scalar-oracle` feature) as the
//! differential oracle, and under the same `cfg` `AesGcm::new_portable`
//! and `Sha256::new_portable` reach the portable backend on any host.
//! The asymmetric primitives favour clarity over speed.
//!
//! # Example
//!
//! ```
//! use ccai_crypto::{AesGcm, Key};
//!
//! let key = Key::Aes128([0x42; 16]);
//! let cipher = AesGcm::new(&key);
//! let nonce = [7u8; 12];
//! let sealed = cipher.seal(&nonce, b"model weights", b"header");
//! let opened = cipher.open(&nonce, &sealed, b"header").expect("tag verifies");
//! assert_eq!(opened, b"model weights");
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod bignum;
pub mod ct;
pub mod dh;
pub mod gcm;
mod ghash;
pub mod hmac;
// The one module allowed `unsafe`: feature-detected AES-NI, PCLMULQDQ and
// SHA-NI kernels. See its safety contract.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod hw;
pub mod iv;
#[cfg(any(test, feature = "scalar-oracle"))]
pub mod scalar;
pub mod schnorr;
pub mod sha256;

pub use aes::{Aes, Key};
pub use dh::{DhGroup, DhKeyPair, DhPublic};
pub use gcm::{AesGcm, OpenError, NONCE_LEN, TAG_LEN};
pub use hmac::{hkdf, hkdf_expand, hkdf_extract, hmac_sha256};
pub use iv::{IvManager, IvStatus};
pub use schnorr::{SchnorrKeyPair, SchnorrPublic, Signature};
pub use sha256::{sha256, Digest, Sha256};

/// Which implementation an [`AesGcm`] or [`Sha256`] instance runs on.
///
/// Chosen once, when the instance is built, from what the host CPU
/// reports; nothing else selects it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// AES-NI + PCLMULQDQ (AES-GCM) or SHA-NI (SHA-256), on x86_64 hosts
    /// that report those features.
    Hardware,
    /// Portable safe Rust: T-table AES with Shoup-table GHASH, or the
    /// FIPS-180-4 round loop.
    Portable,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fails when the host reports the features a hardware kernel needs
    /// but the constructor picked the portable backend. Without it, a
    /// detection bug would let every differential test pass on the
    /// fallback alone while the datapath claims the fast path.
    #[test]
    fn hardware_backend_is_selected_when_the_host_supports_it() {
        let gcm = AesGcm::new(&Key::Aes128([0; 16]));
        let sha = Sha256::new();
        #[cfg(target_arch = "x86_64")]
        let (aes_ni, sha_ni) = (
            is_x86_feature_detected!("aes") && is_x86_feature_detected!("pclmulqdq"),
            is_x86_feature_detected!("sha"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (aes_ni, sha_ni) = (false, false);
        assert_eq!(gcm.backend() == Backend::Hardware, aes_ni, "AES-GCM backend {:?}", gcm.backend());
        assert_eq!(sha.backend() == Backend::Hardware, sha_ni, "SHA-256 backend {:?}", sha.backend());
    }
}

//! Cryptographic substrate for the Ajanta reproduction.
//!
//! The paper (Section 5.2) deliberately treats *"any credential-related
//! functions and protocols at an abstract level"*; what the system needs
//! from cryptography is **functional**: tamper-evidence, signer identity,
//! keyed integrity for network frames, and public-key certificates binding
//! names to keys. This crate supplies exactly those functions, built from
//! scratch:
//!
//! * [`sha256`] — a complete FIPS 180-4 SHA-256 (real, test-vectored),
//!   compressing on the CPU's SHA extensions where it has them.
//! * [`hmac`] — HMAC-SHA256 per RFC 2104 (real, RFC 4231 vectors).
//! * [`sig`] — Schnorr signatures over a 62-bit safe-prime group.
//! * [`cert`] — public-key certificates and chains with expiry.
//! * [`rng`] — a deterministic seedable generator for reproducible
//!   experiments.
//!
//! # Security caveat (simulation-grade signatures)
//!
//! The hash and MAC are genuine. The **signature group is far too small to
//! be secure** (62-bit modulus; discrete logs in such a group are weekend
//! work). It is used here because the reproduction needs the *behaviour* of
//! signatures — unforgeability against the simulated adversaries in
//! `ajanta-net`, key/certificate plumbing, and realistic relative costs —
//! not protection of real assets. Do not reuse outside the simulation.

// `deny`, not `forbid`: the one `unsafe` in the workspace's non-test code
// is the SHA-256 dispatcher's call into its SHA-extension kernel, allowed
// at that call right after the CPU feature check (sha256.rs).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cert;
pub mod hmac;
pub mod modmath;
pub mod rng;
pub mod sha256;
pub mod sig;
mod wire_impls;

pub use cert::{Certificate, CertificateError, RootOfTrust};
pub use hmac::HmacSha256;
pub use rng::DetRng;
pub use sha256::{ctr_keystream_xor, sha256, Digest, Sha256};
pub use sig::{KeyPair, PublicKey, SecretKey, Signature, SignatureError};

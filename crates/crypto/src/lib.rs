//! Cryptographic substrate for the SeDA secure DNN accelerator.
//!
//! This crate provides bit-exact software models of the hardware primitives
//! the SeDA architecture (DAC 2025) builds on:
//!
//! * [`aes`] — AES-128 (FIPS-197) with an exposed key schedule, because
//!   SeDA's bandwidth-aware encryption XORs round keys from the engine's
//!   `keyExpansion` module into its one-time pads.
//! * [`ctr`] — AES-CTR with the `PA || VN` counter construction used by
//!   secure accelerators for off-chip memory encryption.
//! * [`otp`] — the three pad-generation strategies the paper compares:
//!   T-AES (engine bank), shared-OTP (insecure strawman), and B-AES
//!   (SeDA's single-engine bandwidth-aware mechanism, Algorithm 1).
//! * [`sha256`] — SHA-256 and HMAC-SHA-256, the hash behind block MACs,
//!   with a keyed [`HmacSha256`](sha256::HmacSha256) context that derives
//!   the key's inner and outer midstates once per key, not once per tag,
//!   and tags four equal-length messages at once over a four-lane
//!   compression ([`mac4`](sha256::HmacSha256::mac4)).
//! * [`mac`] — truncated 64-bit block MACs, with and without position
//!   binding, and the XOR-fold used for layer/model MACs (Algorithm 2).
//!
//! # Examples
//!
//! Encrypt a 64 B protected block with the bandwidth-aware strategy and
//! authenticate it with a position-bound MAC:
//!
//! ```
//! use seda_crypto::ctr::CounterSeed;
//! use seda_crypto::mac::{BlockPosition, PositionBoundMac};
//! use seda_crypto::otp::{BandwidthAwareOtp, OtpStrategy};
//!
//! let enc = BandwidthAwareOtp::new([0x2b; 16]);
//! let mac = PositionBoundMac::new([0x7e; 16]);
//!
//! let seed = CounterSeed::new(0x8000, 0);
//! let mut block = [0u8; 64];
//! enc.apply(seed, &mut block); // encrypt
//! let tag = mac.tag(&block, seed.pa, seed.vn, BlockPosition::new(0, 0, 0));
//!
//! enc.apply(seed, &mut block); // decrypt
//! assert_eq!(block, [0u8; 64]);
//! let _ = tag;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod ctr;
pub mod mac;
pub mod otp;
pub mod sha256;

pub use aes::Aes128;
pub use ctr::{AesCtr, CounterSeed};
pub use mac::{BlockPosition, MacTag, PositionBoundMac, TagMismatch, XorAccumulator};
pub use otp::{BandwidthAwareOtp, OtpStrategy, SharedOtp, TraditionalOtp};
pub use sha256::Sha256;

//! Attack/defense demonstrations from the paper's algorithms.
//!
//! * [`seca`] — Algorithm 1: the Single-Element Collision Attack on
//!   shared one-time pads, defeated by B-AES per-segment pads.
//! * [`vn_replay`] — the two-time-pad break that version-number reuse
//!   causes, defeated by monotone on-chip VN generation.
//!
//! Algorithm 2, the Re-Permutation Attack on XOR-folded layer MACs, runs
//! against the at-rest image in `seda-adversary`: its `layer-ct`
//! configuration's positionless fold accepts a within-layer block shuffle
//! that the position-bound `layer-mac` configuration rejects.

pub mod seca;
pub mod vn_replay;

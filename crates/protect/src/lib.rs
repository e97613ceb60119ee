//! Memory-protection schemes for DNN accelerators.
//!
//! This crate models how each protection scheme of the SeDA evaluation
//! (§IV, Table III) rewrites an accelerator's demand traffic into actual
//! DRAM requests:
//!
//! * [`scheme::Unprotected`] — the normalization baseline.
//! * [`block_mac::BlockMacScheme`] — SGX flavour (MAC + VN + integrity
//!   tree through 8 KB/16 KB LRU caches) and MGX flavour (MAC only, VNs
//!   on-chip), each at 64 B or 512 B protection granularity.
//! * [`securator::SecuratorScheme`] — a Securator-style layer-level
//!   XOR-MAC check (32 B blocks, no position binding), kept for the
//!   security ablations and the redundant-hash-work comparison.
//! * [`seda::SedaScheme`] — SeDA's multi-level integrity verification:
//!   on-chip VNs, tiling-matched optBlk MACs folded into layer MACs, and
//!   an on-chip model MAC; layer MACs optionally stored off-chip for the
//!   paper's fairness configuration.
//!
//! Every scheme implements [`scheme::ProtectionScheme`], turning
//! [`seda_scalesim::Burst`]s into [`seda_dram::Request`]s — written as runs
//! of consecutive lines into a [`seda_dram::RunBuf`] — while tallying a
//! [`scheme::TrafficBreakdown`] per category (demand, overfetch, MAC, VN,
//! tree, layer MAC) — the decomposition behind Fig. 5.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block_mac;
pub mod cache;
pub mod error;
pub mod layout;
pub mod scheme;
pub mod securator;
pub mod seda;
pub mod verifier;
pub mod vn;

pub use block_mac::{
    BlockMacKind, BlockMacScheme, DEFAULT_MAC_CACHE_BYTES, DEFAULT_VN_CACHE_BYTES,
};
pub use cache::MetaCache;
pub use error::ProtectError;
pub use layout::MetaLayout;
pub use scheme::{ProtectionScheme, SchemeInfo, TrafficBreakdown, Unprotected};
pub use securator::SecuratorScheme;
pub use seda::{LayerMacStore, SedaScheme};
pub use verifier::HashEngine;
pub use vn::OnChipVn;

/// The paper's protected-region size (16 GB, §IV-A).
pub const PROTECTED_BYTES: u64 = 16 << 30;

/// Builds the full scheme lineup of Fig. 5/6: baseline, SGX-64B, SGX-512B,
/// MGX-64B, MGX-512B, SeDA (layer MACs off-chip).
pub fn paper_lineup() -> Vec<Box<dyn ProtectionScheme>> {
    vec![
        Box::new(Unprotected::new()),
        Box::new(BlockMacScheme::new(BlockMacKind::Sgx, 64, PROTECTED_BYTES)),
        Box::new(BlockMacScheme::new(BlockMacKind::Sgx, 512, PROTECTED_BYTES)),
        Box::new(BlockMacScheme::new(BlockMacKind::Mgx, 64, PROTECTED_BYTES)),
        Box::new(BlockMacScheme::new(BlockMacKind::Mgx, 512, PROTECTED_BYTES)),
        Box::new(SedaScheme::new(LayerMacStore::OffChip, PROTECTED_BYTES)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineup_matches_figure_order() {
        let names: Vec<String> = paper_lineup().iter().map(|s| s.name().to_owned()).collect();
        assert_eq!(
            names,
            ["baseline", "SGX-64B", "SGX-512B", "MGX-64B", "MGX-512B", "SeDA"]
        );
    }
}

/// Builds a scheme from its Fig. 5/6 label (`"baseline"`, `"SGX-64B"`,
/// `"SGX-512B"`, `"MGX-64B"`, `"MGX-512B"`, `"SeDA"`, or `"Securator"`).
/// Returns `None` for unknown labels.
pub fn scheme_by_name(name: &str) -> Option<Box<dyn ProtectionScheme>> {
    Some(match name {
        "baseline" => Box::new(Unprotected::new()),
        "SGX-64B" => Box::new(BlockMacScheme::new(BlockMacKind::Sgx, 64, PROTECTED_BYTES)),
        "SGX-512B" => Box::new(BlockMacScheme::new(BlockMacKind::Sgx, 512, PROTECTED_BYTES)),
        "MGX-64B" => Box::new(BlockMacScheme::new(BlockMacKind::Mgx, 64, PROTECTED_BYTES)),
        "MGX-512B" => Box::new(BlockMacScheme::new(BlockMacKind::Mgx, 512, PROTECTED_BYTES)),
        "SeDA" => Box::new(SedaScheme::new(LayerMacStore::OffChip, PROTECTED_BYTES)),
        "Securator" => Box::new(SecuratorScheme::new(PROTECTED_BYTES)),
        _ => return None,
    })
}

/// [`scheme_by_name`] with a typed error for unknown labels.
///
/// # Errors
///
/// Returns [`ProtectError::UnknownScheme`] when `name` is not in the
/// registry.
pub fn try_scheme_by_name(name: &str) -> Result<Box<dyn ProtectionScheme>, ProtectError> {
    scheme_by_name(name).ok_or_else(|| ProtectError::UnknownScheme {
        name: name.to_owned(),
    })
}

#[cfg(test)]
mod name_tests {
    use super::*;

    #[test]
    fn every_lineup_name_resolves() {
        for s in paper_lineup() {
            let rebuilt = scheme_by_name(s.name()).expect("lineup names resolve");
            assert_eq!(rebuilt.name(), s.name());
        }
        assert!(scheme_by_name("Securator").is_some());
        assert!(scheme_by_name("nope").is_none());
    }

    #[test]
    fn unknown_scheme_is_a_typed_error() {
        assert!(try_scheme_by_name("SeDA").is_ok());
        assert_eq!(
            try_scheme_by_name("nope").err(),
            Some(ProtectError::UnknownScheme {
                name: "nope".to_owned()
            })
        );
    }
}

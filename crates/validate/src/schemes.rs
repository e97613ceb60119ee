//! Traffic-conservation invariants for every protection scheme.
//!
//! A scheme rewrites demand bursts into 64 B DRAM requests and tallies a
//! [`TrafficBreakdown`]. Whatever the scheme, three things must hold on
//! any burst stream: the demand bytes the accelerator asked for survive
//! the rewrite unchanged, every emitted request is attributed to exactly
//! one tally category (`requests × 64 == total()`), and scheme-specific
//! metadata costs match their first-principles counts — SeDA's two lines
//! per distinct layer, Securator's two lines per layer switch, SGX/MGX
//! MAC traffic equal to the metadata-cache miss/writeback counts.

use crate::ensure;
use seda_adversary::Rng;
use seda_dram::RunBuf;
use seda_protect::scheme::{line_down, line_up, LINE_BYTES};
use seda_protect::{
    scheme_by_name, BlockMacKind, BlockMacScheme, ProtectionScheme, TrafficBreakdown,
    PROTECTED_BYTES,
};
use seda_scalesim::{Burst, TensorKind};
use std::collections::BTreeSet;

/// All registry labels the harness exercises.
const SCHEMES: [&str; 7] = [
    "baseline",
    "SGX-64B",
    "SGX-512B",
    "MGX-64B",
    "MGX-512B",
    "SeDA",
    "Securator",
];

/// A randomized burst stream: several layers, interleaved with
/// double-buffering-style overlap, mixed tensors, unaligned runs, and
/// both reads and writes.
fn random_stream(rng: &mut Rng) -> Vec<Burst> {
    let layers = rng.range(1, 4) as u32;
    let count = rng.range(8, 40);
    let mut stream = Vec::new();
    for _ in 0..count {
        let layer = rng.below(u64::from(layers)) as u32;
        let tensor = *rng.pick(&[TensorKind::Ifmap, TensorKind::Filter, TensorKind::Ofmap]);
        // Unaligned starts and odd lengths exercise the 64 B-grid and
        // protection-block edge handling (overfetch, RMW fills).
        let addr = rng.below(1 << 22) + u64::from(layer) * (1 << 24);
        let bytes = rng.range(1, 4096);
        stream.push(if tensor == TensorKind::Ofmap || rng.coin(1, 5) {
            Burst::write(addr, bytes, tensor, layer)
        } else {
            Burst::read(addr, bytes, tensor, layer)
        });
    }
    stream
}

/// Grid-aligned demand bytes a scheme must tally for one burst.
fn demand_span(b: &Burst) -> u64 {
    line_up(b.end()) - line_down(b.addr)
}

fn run_scheme(
    scheme: &mut dyn ProtectionScheme,
    stream: &[Burst],
) -> (Vec<seda_dram::Request>, TrafficBreakdown) {
    let mut out = RunBuf::new();
    for burst in stream {
        scheme.transform(burst, &mut out);
    }
    let mut requests: Vec<seda_dram::Request> = out.iter().collect();
    scheme.finish(&mut |r| requests.push(r));
    (requests, scheme.breakdown())
}

fn check_conservation(
    name: &str,
    stream: &[Burst],
    requests: &[seda_dram::Request],
    tally: &TrafficBreakdown,
) -> Result<(), String> {
    // Demand bytes are preserved exactly, per direction.
    let want_read: u64 = stream.iter().filter(|b| !b.is_write).map(demand_span).sum();
    let want_write: u64 = stream.iter().filter(|b| b.is_write).map(demand_span).sum();
    ensure!(
        tally.demand_read == want_read,
        "{name}: demand_read {} != grid-aligned burst reads {}",
        tally.demand_read,
        want_read
    );
    ensure!(
        tally.demand_write == want_write,
        "{name}: demand_write {} != grid-aligned burst writes {}",
        tally.demand_write,
        want_write
    );
    // Every emitted request lands in exactly one tally category.
    ensure!(
        requests.len() as u64 * LINE_BYTES == tally.total(),
        "{name}: {} requests x 64 B != breakdown total {} \
         (unattributed or double-counted traffic)",
        requests.len(),
        tally.total()
    );
    // Requests sit on the 64 B grid.
    ensure!(
        requests.iter().all(|r| r.addr % LINE_BYTES == 0),
        "{name}: emitted a misaligned request"
    );
    Ok(())
}

/// One randomized case: a stream replayed through every scheme.
pub fn check_case(rng: &mut Rng) -> Result<(), String> {
    let stream = random_stream(rng);
    let mut totals = std::collections::HashMap::new();
    for name in SCHEMES {
        let mut scheme =
            scheme_by_name(name).ok_or_else(|| format!("{name} missing from registry"))?;
        let (requests, tally) = run_scheme(scheme.as_mut(), &stream);
        check_conservation(name, &stream, &requests, &tally)?;
        totals.insert(name, tally.total());

        match name {
            "baseline" => ensure!(
                tally.total() == tally.demand(),
                "baseline moved non-demand bytes"
            ),
            "SeDA" => check_seda(&stream, &requests, &tally)?,
            "Securator" => check_securator(&stream, &tally)?,
            _ => {}
        }
    }
    // SGX pays for VNs and tree walks on top of the same MAC structure, so
    // it can never beat MGX at equal granularity.
    for g in ["64B", "512B"] {
        ensure!(
            totals[format!("SGX-{g}").as_str()] >= totals[format!("MGX-{g}").as_str()],
            "SGX-{g} moved fewer bytes than MGX-{g}"
        );
    }
    check_block_mac_cache_accounting(&stream)
}

fn check_seda(
    stream: &[Burst],
    requests: &[seda_dram::Request],
    tally: &TrafficBreakdown,
) -> Result<(), String> {
    ensure!(
        tally.overfetch_read == 0,
        "SeDA overfetched {} bytes; optBlk granularity must match runs",
        tally.overfetch_read
    );
    ensure!(
        tally.mac_read == 0 && tally.vn_read == 0 && tally.tree_read == 0,
        "SeDA fetched block-MAC/VN/tree metadata"
    );
    // Exactly one layer-MAC line read and one written per distinct layer.
    let layers: BTreeSet<u32> = stream.iter().map(|b| b.layer).collect();
    let want = layers.len() as u64 * 2 * LINE_BYTES;
    ensure!(
        tally.layer_mac == want,
        "SeDA layer_mac {} != {} ({} distinct layers x 2 lines)",
        tally.layer_mac,
        want,
        layers.len()
    );
    let meta: Vec<_> = requests
        .iter()
        .filter(|r| r.addr >= 2 * PROTECTED_BYTES)
        .collect();
    ensure!(
        meta.len() as u64 * LINE_BYTES == want
            && meta.iter().filter(|r| r.is_write).count() == layers.len(),
        "SeDA metadata requests don't match one read + one write per layer"
    );
    Ok(())
}

fn check_securator(stream: &[Burst], tally: &TrafficBreakdown) -> Result<(), String> {
    // Securator tracks only the current layer: every change of layer in
    // the stream costs one MAC read (and one write retiring the previous
    // layer), with the final layer retired by finish().
    let mut switches = 0u64;
    let mut current = None;
    for b in stream {
        if current != Some(b.layer) {
            switches += 1;
            current = Some(b.layer);
        }
    }
    let want = 2 * switches * LINE_BYTES;
    ensure!(
        tally.layer_mac == want,
        "Securator layer_mac {} != {} ({switches} layer switches x 2 lines)",
        tally.layer_mac,
        want
    );
    Ok(())
}

/// The SGX/MGX traffic tallies must agree with the metadata caches' own
/// accounting: a MAC line read is exactly a MAC-cache miss, a MAC line
/// write exactly a writeback, and likewise for the shared VN/tree cache.
fn check_block_mac_cache_accounting(stream: &[Burst]) -> Result<(), String> {
    for (kind, granularity) in [
        (BlockMacKind::Sgx, 64),
        (BlockMacKind::Sgx, 512),
        (BlockMacKind::Mgx, 64),
        (BlockMacKind::Mgx, 512),
    ] {
        let mut scheme = BlockMacScheme::new(kind, granularity, PROTECTED_BYTES);
        let (_, tally) = run_scheme(&mut scheme, stream);
        let name = format!("{kind:?}-{granularity}B");
        let (_, mac_misses, mac_wb) = scheme.mac_cache_stats();
        ensure!(
            tally.mac_read == mac_misses * LINE_BYTES,
            "{name}: mac_read {} != {mac_misses} cache misses x 64",
            tally.mac_read
        );
        ensure!(
            tally.mac_write == mac_wb * LINE_BYTES,
            "{name}: mac_write {} != {mac_wb} writebacks x 64",
            tally.mac_write
        );
        match scheme.vn_cache_stats() {
            Some((_, vn_misses, vn_wb)) => {
                ensure!(
                    tally.vn_read + tally.tree_read == vn_misses * LINE_BYTES,
                    "{name}: VN+tree reads {} != {vn_misses} cache misses x 64",
                    tally.vn_read + tally.tree_read
                );
                ensure!(
                    tally.vn_write + tally.tree_write == vn_wb * LINE_BYTES,
                    "{name}: VN+tree writes {} != {vn_wb} writebacks x 64",
                    tally.vn_write + tally.tree_write
                );
            }
            None => ensure!(
                tally.vn_read + tally.vn_write + tally.tree_read + tally.tree_write == 0,
                "{name}: MGX moved VN/tree bytes despite on-chip VNs"
            ),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::{run_family, Family};

    #[test]
    fn schemes_family_passes_fixed_seed() {
        let report = run_family(
            Family::Schemes,
            0xD1FF_0003,
            Family::Schemes.default_cases(),
        );
        assert!(report.passed(), "{report}");
    }
}

//! Run-encoded lowering against the per-line view.
//!
//! The pipeline lowers each layer into runs ([`LoweredTrace::relower`]
//! repeats its step) and replays them with [`DramSim::run_runs`]; the
//! per-line packed view ([`LoweredTrace::layer`]) and
//! [`DramSim::run_batch_packed`] are the reference. Random burst streams
//! go through every scheme kind — SGX and MGX at random granularities and
//! metadata-cache sizes, SeDA with on- and off-chip layer MACs, Securator,
//! the baseline — and each case checks that:
//!
//! * every layer's runs are canonical: `len > 0`, and no run continues
//!   its predecessor (the buffer merged everything it could within the
//!   layer);
//! * expanding a layer's runs gives exactly [`LoweredTrace::layer`], and
//!   the layer's request count is that slice's length;
//! * over two inferences plus the `finish` drain, replaying the runs
//!   ends every layer on the same DRAM clock as replaying the per-line
//!   view, with identical `DramStats` and bank occupancy.
//!
//! Streams mix contiguous bursts (so runs merge across bursts, never
//! across layers: each lowers into its own buffer), repeats and random
//! jumps, in both directions and with unaligned edges. Case 0 runs a real
//! trace instead: NCF on the server NPU through every scheme kind and the
//! lineup's MGX-64B.

use crate::ensure;
use seda::pipeline::{dram_config_for, LoweredTrace};
use seda_adversary::Rng;
use seda_dram::run::expand;
use seda_dram::{DramSim, RunBuf};
use seda_models::zoo;
use seda_protect::{
    BlockMacKind, BlockMacScheme, LayerMacStore, ProtectionScheme, SecuratorScheme, SedaScheme,
    Unprotected, PROTECTED_BYTES,
};
use seda_scalesim::{simulate_model, Burst, ModelSim, NpuConfig, TensorKind};

/// A block-MAC scheme draw.
#[derive(Debug, Clone, Copy)]
struct BlockMacSpec {
    kind: BlockMacKind,
    granularity: u64,
    mac_cache: u64,
    vn_cache: u64,
}

impl BlockMacSpec {
    fn build(self) -> BlockMacScheme {
        BlockMacScheme::with_caches(
            self.kind,
            self.granularity,
            PROTECTED_BYTES,
            self.mac_cache,
            self.vn_cache,
        )
    }
}

/// One scheme draw, buildable twice so both paths start from the same
/// cold state.
#[derive(Debug, Clone, Copy)]
enum SchemeSpec {
    Baseline,
    BlockMac(BlockMacSpec),
    Seda(LayerMacStore),
    Securator,
}

impl SchemeSpec {
    fn build(self) -> Box<dyn ProtectionScheme> {
        match self {
            SchemeSpec::Baseline => Box::new(Unprotected::new()),
            SchemeSpec::BlockMac(spec) => Box::new(spec.build()),
            SchemeSpec::Seda(store) => Box::new(SedaScheme::new(store, PROTECTED_BYTES)),
            SchemeSpec::Securator => Box::new(SecuratorScheme::new(PROTECTED_BYTES)),
        }
    }
}

/// Every scheme kind, block-MAC schemes at a random granularity and
/// random metadata-cache sizes (multiples of one 8-way set of 64 B lines).
fn random_schemes(rng: &mut Rng) -> Vec<SchemeSpec> {
    let mut specs = vec![
        SchemeSpec::Baseline,
        SchemeSpec::Seda(LayerMacStore::OffChip),
        SchemeSpec::Seda(LayerMacStore::OnChip),
        SchemeSpec::Securator,
    ];
    for kind in [BlockMacKind::Sgx, BlockMacKind::Mgx] {
        specs.push(SchemeSpec::BlockMac(BlockMacSpec {
            kind,
            granularity: 64 << rng.below(5),
            mac_cache: 512 << rng.below(6),
            vn_cache: 512 << rng.below(6),
        }));
    }
    specs
}

/// A random burst stream for one layer, continuing from `cursor`.
fn random_bursts(rng: &mut Rng, layer: u32, cursor: &mut u64) -> Vec<Burst> {
    let count = rng.range(1, 24);
    let mut bursts = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let bytes = if rng.coin(1, 3) {
            rng.range(1, 200)
        } else {
            rng.range(64, 8192)
        };
        match rng.below(4) {
            // Contiguous with the previous burst: runs merge across it.
            0 | 1 => {}
            // Re-read the previous span: repeats never merge.
            2 => *cursor = cursor.saturating_sub(bytes),
            _ => *cursor = rng.below(1 << 26),
        }
        let tensor = *rng.pick(&[TensorKind::Ifmap, TensorKind::Filter, TensorKind::Ofmap]);
        bursts.push(if tensor == TensorKind::Ofmap || rng.coin(1, 6) {
            Burst::write(*cursor, bytes, tensor, layer)
        } else {
            Burst::read(*cursor, bytes, tensor, layer)
        });
        *cursor += bytes;
    }
    bursts
}

/// LeNet's layer structure with every layer's bursts replaced by a
/// random stream.
fn random_sim(rng: &mut Rng) -> ModelSim {
    let mut sim = simulate_model(&NpuConfig::edge(), &zoo::lenet());
    let mut cursor = rng.below(1 << 26);
    for layer in &mut sim.layers {
        layer.bursts = random_bursts(rng, layer.index, &mut cursor);
    }
    sim
}

fn check_canonical(ctx: &str, lowered: &LoweredTrace) -> Result<(), String> {
    for li in 0..lowered.layers() {
        let runs = lowered.layer_runs(li);
        ensure!(
            runs.iter().all(|r| r.len > 0),
            "{ctx}: layer {li} holds an empty run"
        );
        if let Some(w) = runs.windows(2).find(|w| w[0].next() == w[1].head) {
            return Err(format!(
                "{ctx}: layer {li} run {:?} continues {:?} (not merged)",
                w[1], w[0]
            ));
        }
        let layer = lowered.layer(li);
        ensure!(
            expand(runs).eq(layer.iter().copied()),
            "{ctx}: layer {li} runs do not expand to the per-line view"
        );
        ensure!(
            lowered.layer_requests(li) == layer.len() as u64,
            "{ctx}: layer {li} counts {} requests, the per-line view holds {}",
            lowered.layer_requests(li),
            layer.len()
        );
    }
    Ok(())
}

/// Lowers two inferences plus the `finish` drain through `scheme` and
/// replays each lowering twice, per line and by runs, checking the
/// per-line view after every lowering and the DRAM clock after every
/// layer.
fn check_scheme(
    ctx: &str,
    sim: &ModelSim,
    npu: &NpuConfig,
    scheme: &mut dyn ProtectionScheme,
) -> Result<(), String> {
    let mut line_dram = DramSim::new(dram_config_for(npu));
    let mut run_dram = DramSim::new(dram_config_for(npu));
    let mut lowered = LoweredTrace::default();
    for inference in 0..2 {
        let ctx = format!("{ctx} inference {inference}");
        lowered.relower(sim, scheme);
        check_canonical(&ctx, &lowered)?;
        for li in 0..lowered.layers() {
            line_dram.run_batch_packed(lowered.layer(li));
            run_dram.run_runs(lowered.layer_runs(li));
            ensure!(
                line_dram.elapsed_cycles() == run_dram.elapsed_cycles(),
                "{ctx}: layer {li} ends at cycle {} per line, {} by runs",
                line_dram.elapsed_cycles(),
                run_dram.elapsed_cycles()
            );
        }
    }
    let mut flush = RunBuf::new();
    scheme.finish(&mut |r| flush.push(r));
    line_dram.run_batch_packed(&expand(flush.runs()).collect::<Vec<_>>());
    run_dram.run_runs(flush.runs());
    ensure!(
        line_dram.stats() == run_dram.stats()
            && line_dram.elapsed_cycles() == run_dram.elapsed_cycles()
            && line_dram.bank_occupancy_cycles() == run_dram.bank_occupancy_cycles(),
        "{ctx}: DRAM state diverges\n  per line: {:?}\n  by runs:  {:?}",
        line_dram.stats(),
        run_dram.stats()
    );
    Ok(())
}

/// Checks `sim` on `npu` through every scheme kind of `rng`'s draw.
fn check_trace(rng: &mut Rng, sim: &ModelSim, npu: &NpuConfig) -> Result<(), String> {
    for spec in random_schemes(rng) {
        check_scheme(&format!("{spec:?}"), sim, npu, spec.build().as_mut())?;
    }
    Ok(())
}

/// One randomized case: a random trace through every scheme kind.
pub fn check_case(rng: &mut Rng) -> Result<(), String> {
    let sim = random_sim(rng);
    check_trace(rng, &sim, &NpuConfig::edge())
}

/// Case 0: NCF's real trace on the server NPU through every scheme kind
/// and the lineup's MGX-64B.
pub fn real_trace(seed: u64) -> Result<(), String> {
    let npu = NpuConfig::server();
    let sim = simulate_model(&npu, &zoo::ncf());
    check_trace(&mut Rng::for_stream(seed, 0), &sim, &npu)?;
    let mut mgx = BlockMacScheme::new(BlockMacKind::Mgx, 64, PROTECTED_BYTES);
    check_scheme("ncf server MGX-64B", &sim, &npu, &mut mgx)
}

#[cfg(test)]
mod tests {
    use crate::{run_family, Family};

    #[test]
    fn runs_family_passes_fixed_seed() {
        let report = run_family(Family::Runs, 0x5EDA_0012, Family::Runs.default_cases());
        assert!(report.passed(), "{report}");
    }
}

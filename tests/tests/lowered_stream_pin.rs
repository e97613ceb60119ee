//! Pins the exact lowered request stream, not just its totals.
//!
//! LeNet, DLRM and a 256-token transformer decode step are lowered on
//! both NPUs under the six Fig. 5/6 lineup schemes plus Securator, over
//! two back-to-back inferences and the end-of-run `finish` drain. Every
//! layer's expanded packed stream, every layer boundary, the drain and
//! the final `TrafficBreakdown` are folded into one FNV-1a digest. Any
//! change to the order, direction or address of a single emitted line —
//! or to where a layer ends — moves the digest.

use seda::pipeline::LoweredTrace;
use seda::protect::{paper_lineup, scheme_by_name, ProtectionScheme, TrafficBreakdown};
use seda::scalesim::{simulate_model, NpuConfig};
use seda_models::zoo;

/// The pinned digest of the stream described in the module docs.
const LOWERED_STREAM_DIGEST: u64 = 0x36a9_3f1d_58a2_c8b1;

/// FNV-1a over 64-bit words, byte by byte.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn traffic(&mut self, t: &TrafficBreakdown) {
        for w in [
            t.demand_read,
            t.demand_write,
            t.overfetch_read,
            t.mac_read,
            t.mac_write,
            t.vn_read,
            t.vn_write,
            t.tree_read,
            t.tree_write,
            t.layer_mac,
        ] {
            self.word(w);
        }
    }
}

fn schemes() -> Vec<Box<dyn ProtectionScheme>> {
    let mut all = paper_lineup();
    all.push(scheme_by_name("Securator").expect("Securator is registered"));
    all
}

#[test]
fn lowered_stream_is_pinned() {
    let mut h = Fnv::new();
    let mut lines = 0u64;
    for npu in [NpuConfig::server(), NpuConfig::edge()] {
        for model in [zoo::lenet(), zoo::dlrm(), zoo::transformer_decode(256)] {
            let sim = simulate_model(&npu, &model);
            for mut scheme in schemes() {
                let mut lowered = LoweredTrace::default();
                for _ in 0..2 {
                    lowered.relower(&sim, scheme.as_mut());
                    assert_eq!(lowered.layers(), sim.layers.len());
                    let mut end = 0u64;
                    for li in 0..lowered.layers() {
                        let layer = lowered.layer(li);
                        for &p in layer {
                            h.word(p);
                        }
                        end += layer.len() as u64;
                        h.word(end);
                    }
                    assert_eq!(end, lowered.requests().len() as u64);
                    lines += end;
                }
                let mut drain = Vec::new();
                scheme.finish(&mut |r| drain.push(r));
                h.word(drain.len() as u64);
                for r in &drain {
                    h.word(r.pack());
                }
                h.traffic(&scheme.breakdown());
            }
        }
    }
    assert!(lines > 0);
    assert_eq!(
        h.0, LOWERED_STREAM_DIGEST,
        "lowered stream changed: digest {:#018x} over {lines} lines",
        h.0
    );
}

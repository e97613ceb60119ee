//! Property-based integration tests across crates: arbitrary burst
//! streams through every protection scheme, and arbitrary tensors through
//! the crypto lifecycle.

use proptest::prelude::*;
use seda::protect::{
    BlockMacKind, BlockMacScheme, LayerMacStore, ProtectionScheme, SedaScheme, Unprotected,
    PROTECTED_BYTES,
};
use seda::scalesim::{Burst, TensorKind};
use seda_crypto::ctr::CounterSeed;
use seda_crypto::otp::{BandwidthAwareOtp, OtpStrategy, TraditionalOtp};
use seda_dram::{Request, RunBuf};

fn arb_burst() -> impl Strategy<Value = Burst> {
    (
        0u64..(1 << 24),
        1u64..20_000,
        any::<bool>(),
        0u32..4,
        prop_oneof![
            Just(TensorKind::Ifmap),
            Just(TensorKind::Filter),
            Just(TensorKind::Ofmap)
        ],
    )
        .prop_map(|(addr, bytes, is_write, layer, tensor)| {
            // Inference writes only ofmaps.
            let tensor = if is_write { TensorKind::Ofmap } else { tensor };
            Burst {
                addr,
                bytes,
                is_write,
                tensor,
                layer,
            }
        })
}

fn run_scheme(
    scheme: &mut dyn ProtectionScheme,
    bursts: &[Burst],
) -> (Vec<Request>, seda::protect::TrafficBreakdown) {
    let mut out = RunBuf::new();
    for b in bursts {
        scheme.transform(b, &mut out);
    }
    let mut reqs: Vec<Request> = out.iter().collect();
    scheme.finish(&mut |r| reqs.push(r));
    (reqs, scheme.breakdown())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tally_matches_emitted_requests(bursts in prop::collection::vec(arb_burst(), 1..40)) {
        // Every scheme's byte tally must equal 64 B times its request count.
        let mut schemes: Vec<Box<dyn ProtectionScheme>> = vec![
            Box::new(Unprotected::new()),
            Box::new(BlockMacScheme::new(BlockMacKind::Sgx, 64, PROTECTED_BYTES)),
            Box::new(BlockMacScheme::new(BlockMacKind::Sgx, 512, PROTECTED_BYTES)),
            Box::new(BlockMacScheme::new(BlockMacKind::Mgx, 64, PROTECTED_BYTES)),
            Box::new(BlockMacScheme::new(BlockMacKind::Mgx, 512, PROTECTED_BYTES)),
            Box::new(SedaScheme::new(LayerMacStore::OffChip, PROTECTED_BYTES)),
        ];
        for s in schemes.iter_mut() {
            let name = s.name().to_owned();
            let (reqs, tally) = run_scheme(s.as_mut(), &bursts);
            prop_assert_eq!(reqs.len() as u64 * 64, tally.total(), "{}", name);
            // All requests land on the 64 B grid.
            prop_assert!(reqs.iter().all(|r| r.addr % 64 == 0), "{}", name);
        }
    }

    #[test]
    fn demand_is_scheme_invariant(bursts in prop::collection::vec(arb_burst(), 1..40)) {
        let (_, base) = run_scheme(&mut Unprotected::new(), &bursts);
        for mut s in [
            BlockMacScheme::new(BlockMacKind::Sgx, 64, PROTECTED_BYTES),
            BlockMacScheme::new(BlockMacKind::Mgx, 512, PROTECTED_BYTES),
        ] {
            let (_, t) = run_scheme(&mut s, &bursts);
            prop_assert_eq!(t.demand(), base.demand());
        }
    }

    #[test]
    fn protection_never_reduces_traffic(bursts in prop::collection::vec(arb_burst(), 1..40)) {
        let (_, base) = run_scheme(&mut Unprotected::new(), &bursts);
        for mut s in seda::protect::paper_lineup() {
            let (_, t) = run_scheme(s.as_mut(), &bursts);
            prop_assert!(t.total() >= base.total(), "{}", s.name());
        }
    }

    #[test]
    fn seda_metadata_is_bounded_by_layer_count(bursts in prop::collection::vec(arb_burst(), 1..60)) {
        let mut seda = SedaScheme::new(LayerMacStore::OffChip, PROTECTED_BYTES);
        let (_, t) = run_scheme(&mut seda, &bursts);
        // At most one read+write line per layer *transition*, and layers
        // may be revisited in arbitrary burst orders.
        let transitions = 1 + bursts.windows(2).filter(|w| w[0].layer != w[1].layer).count() as u64;
        prop_assert!(t.metadata() <= transitions * 2 * 64);
        prop_assert_eq!(t.overfetch_read, 0u64);
    }

    #[test]
    fn crypto_lifecycle_roundtrips(data in prop::collection::vec(any::<u8>(), 1..2048),
                                   pa in 0u64..(1 << 40), vn in 0u64..(1 << 30)) {
        for strategy in [true, false] {
            let mut buf = data.clone();
            let seed = CounterSeed::new(pa, vn);
            if strategy {
                let s = BandwidthAwareOtp::new([0x61; 16]);
                s.apply(seed, &mut buf);
                s.apply(seed, &mut buf);
            } else {
                let s = TraditionalOtp::new([0x61; 16]);
                s.apply(seed, &mut buf);
                s.apply(seed, &mut buf);
            }
            prop_assert_eq!(&buf, &data);
        }
    }
}

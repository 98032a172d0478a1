//! Shared-cone evaluation invariants: deduplicated featurization must be
//! byte-for-byte indistinguishable from a naive per-signal oracle, for
//! adversarial cone structures and under `conesta` artifact corruption.

use proptest::prelude::*;
use rtl_timer_repro::bog::{extract_signal_cone, Bog, BogVariant};
use rtl_timer_repro::liberty::Library;
use rtl_timer_repro::rtl_timer::cache::stage;
use rtl_timer_repro::rtl_timer::dataset::{
    build_all_variant_data_scratch, build_cone_shard, merge_shards, shard_seed, FeaturizeScratch,
    VariantData,
};
use rtl_timer_repro::rtl_timer::features::design_features;
use rtl_timer_repro::store::Store;
use std::sync::Arc;

fn liberty() -> Library {
    Library::pseudo_bog()
}

fn blasted(src: &str, top: &str) -> Bog {
    rtl_timer_repro::bog::blast(&rtl_timer_repro::verilog::compile(src, top).expect("compiles"))
}

/// The naive per-signal oracle: every signal's cone is extracted,
/// converted and evaluated on its own by the monolithic
/// [`build_cone_shard`] — no shared evaluation, no store — and the shards
/// are merged with the variant graph's design features.
fn per_signal_oracle(sog: &Bog, lib: &Library, clock: f64, design_seed: u64) -> Vec<VariantData> {
    BogVariant::ALL
        .iter()
        .enumerate()
        .map(|(vi, &variant)| {
            let shards: Vec<_> = sog
                .signals()
                .iter()
                .enumerate()
                .map(|(sig, s)| {
                    let cone = extract_signal_cone(sog, sig).to_variant(variant);
                    let seed = shard_seed(design_seed, vi, &s.name);
                    Arc::new(build_cone_shard(&cone, s.width as usize, lib, clock, seed))
                })
                .collect();
            merge_shards(variant, design_features(&sog.to_variant(variant)), &shards)
        })
        .collect()
}

/// f64 slices compared as raw bits: `==` on floats would conflate
/// `-0.0`/`0.0` and hide NaN divergence, and "bit-exact" is the contract.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_bit_identical(a: &[VariantData], b: &[VariantData]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.variant, y.variant);
        assert_eq!(x.groups, y.groups);
        assert_eq!(bits(&x.endpoint_sta_at), bits(&y.endpoint_sta_at));
        assert_eq!(bits(&x.driving_regs), bits(&y.driving_regs));
        assert_eq!(bits(&x.design_feats), bits(&y.design_feats));
        assert_eq!(x.rows.len(), y.rows.len());
        for (r, s) in x.rows.iter().zip(&y.rows) {
            assert_eq!(bits(&r.features), bits(&s.features));
            assert_eq!(r.ops, s.ops);
            assert_eq!(r.endpoint, s.endpoint);
            assert_eq!(r.tok_feats.len(), s.tok_feats.len());
            for (tf, sf) in r.tok_feats.iter().zip(&s.tok_feats) {
                assert_eq!(bits(tf), bits(sf));
            }
        }
    }
}

/// A design with `twins` isomorphic register cones (same structure over
/// disjoint input lanes, distinct names) plus one deliberately different
/// cone — the adversarial case for structural fingerprinting.
fn twin_source(width: u32, twins: usize, op: &str) -> String {
    let x = width - 1;
    let mut ports = String::new();
    let mut body = String::new();
    for i in 0..twins {
        ports.push_str(&format!(
            "input [{x}:0] a{i}, input [{x}:0] b{i}, output [{x}:0] q{i}, "
        ));
        body.push_str(&format!(
            "reg [{x}:0] r{i};\nalways @(posedge clk) r{i} <= (a{i} {op} b{i}) ^ (r{i} >> 1);\nassign q{i} = r{i};\n"
        ));
    }
    format!(
        "module t(input clk, {ports}input [{x}:0] c, output [{x}:0] qz);\n\
         reg [{x}:0] rz;\n\
         always @(posedge clk) rz <= c + {w}'d3;\n\
         assign qz = rz;\n\
         {body}endmodule",
        w = width
    )
}

/// A wide adder with feedback — cones the twin-lane proptest below never
/// builds — at two clocks: the shared-cone path matches the oracle bit
/// for bit and fills one shard per signal × variant.
#[test]
fn dedup_matches_oracle_on_a_feedback_adder() {
    let adder = "module m(input clk, input [15:0] a, input [15:0] b, output [15:0] q);
                   reg [15:0] r;
                   reg [15:0] s;
                   always @(posedge clk) begin
                     r <= a + b;
                     s <= s + (r ^ a);
                   end
                   assign q = s;
                 endmodule";
    let lib = liberty();
    let sog = blasted(adder, "m");
    for clock in [1.0, 0.37] {
        let store = Store::in_memory();
        let dedup = build_all_variant_data_scratch(
            &store,
            &sog,
            &lib,
            clock,
            7,
            &mut FeaturizeScratch::new(),
        );
        assert_bit_identical(&dedup, &per_signal_oracle(&sog, &lib, clock, 7));
        assert_eq!(
            store.stats().namespace(stage::SHARD).misses as usize,
            sog.signals().len() * 4
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For arbitrary small designs with shared bit-lane structure and
    /// extreme clocks, the deduplicated path (shared seed-independent
    /// evaluation + seeded replay) matches the naive per-signal oracle
    /// bit for bit, and the shared evaluation really is shared.
    #[test]
    fn dedup_matches_naive_bit_for_bit(
        width in 2u32..7,
        twins in 2usize..4,
        pick in 0usize..4,
        seed in 0u64..1000,
        clock_pick in 0usize..4,
    ) {
        let ops = ["+", "&", "^", "|"];
        // Includes a denormal-adjacent and a huge clock: arithmetic near
        // the extremes is where a reordered kernel would drift first.
        let clocks = [1.0f64, 0.037, 4.9e-300, 8.1e12];
        let clock = clocks[clock_pick];
        let sog = blasted(&twin_source(width, twins, ops[pick]), "t");
        let lib = liberty();

        let dedup_store = Store::in_memory();
        let mut scratch = FeaturizeScratch::new();
        let dedup =
            build_all_variant_data_scratch(&dedup_store, &sog, &lib, clock, seed, &mut scratch);
        assert_bit_identical(&dedup, &per_signal_oracle(&sog, &lib, clock, seed));

        // One shard per signal × variant, and the twins collapse onto
        // shared evaluations (fewer conesta entries than shard entries).
        let d = dedup_store.stats();
        prop_assert_eq!(d.namespace(stage::SHARD).misses as usize, sog.signals().len() * 4);
        let conesta = d.namespace(stage::CONESTA).misses;
        prop_assert!(conesta > 0);
        prop_assert!(
            conesta < d.namespace(stage::SHARD).misses,
            "isomorphic cones should share evaluations ({} conesta vs {} shard)",
            conesta,
            d.namespace(stage::SHARD).misses
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A corrupted `conesta` disk entry must degrade to recompute (same
    /// bytes out) and heal the entry in place, whichever byte is flipped.
    #[test]
    fn corrupt_conesta_entry_degrades_and_heals(
        seed in 0u64..100,
        flip in 1u8..255,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "rtlt-conesta-heal-{}-{}-{}",
            std::process::id(),
            seed,
            flip
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let sog = blasted(&twin_source(4, 2, "^"), "t");
        let lib = liberty();
        let clock = 0.73;

        let reference = {
            let store = Store::on_disk(&dir);
            let mut scratch = FeaturizeScratch::new();
            let out =
                build_all_variant_data_scratch(&store, &sog, &lib, clock, seed, &mut scratch);
            store.flush();
            out
        };

        // Corrupt every conesta payload and drop the derived shards so the
        // rebuild is forced through the (now poisoned) kernel cache.
        let conesta_dir = dir.join(stage::CONESTA);
        let mut corrupted = 0usize;
        for entry in std::fs::read_dir(&conesta_dir).expect("conesta dir") {
            let path = entry.expect("dir entry").path();
            let mut bytes = std::fs::read(&path).expect("read entry");
            let mid = bytes.len() / 2;
            bytes[mid] ^= flip;
            std::fs::write(&path, &bytes).expect("write corrupt entry");
            corrupted += 1;
        }
        prop_assert!(corrupted > 0);
        std::fs::remove_dir_all(dir.join(stage::SHARD)).expect("drop shards");

        let rebuilt = {
            let store = Store::on_disk(&dir);
            let mut scratch = FeaturizeScratch::new();
            let out =
                build_all_variant_data_scratch(&store, &sog, &lib, clock, seed, &mut scratch);
            store.flush();
            // The corrupt payloads fail their checksum, so every conesta
            // read degrades to a recompute rather than decoding garbage.
            prop_assert_eq!(store.stats().namespace(stage::CONESTA).misses as usize, corrupted);
            out
        };
        assert_bit_identical(&reference, &rebuilt);

        // Healed: a third cold store now serves conesta from disk again.
        {
            let _ = std::fs::remove_dir_all(dir.join(stage::SHARD));
            let store = Store::on_disk(&dir);
            let mut scratch = FeaturizeScratch::new();
            let again =
                build_all_variant_data_scratch(&store, &sog, &lib, clock, seed, &mut scratch);
            prop_assert_eq!(store.stats().namespace(stage::CONESTA).misses, 0);
            assert_bit_identical(&reference, &again);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

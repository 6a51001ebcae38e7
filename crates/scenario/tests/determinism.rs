//! Corpus determinism: a scenario is a pure function of
//! `(master_seed, index)` — byte-identical across calls and threads —
//! and adjacent indices draw from independent streams.

use netdag_scenario::{generate, ScenarioParams};
use proptest::prelude::*;

fn spec_bytes(master_seed: u64, index: u64, params: &ScenarioParams) -> String {
    serde_json::to_string(&generate(master_seed, index, params)).expect("scenario serializes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Repeated generation is byte-identical, including when the
    /// second generation happens on a different thread: nothing in the
    /// generator may read ambient state (time, thread id, a global
    /// RNG).
    #[test]
    fn generation_is_pure_across_calls_and_threads(
        master_seed in proptest::arbitrary::any::<u64>(),
        index in 0u64..1_000_000,
    ) {
        let params = ScenarioParams::default();
        let here = spec_bytes(master_seed, index, &params);
        let again = spec_bytes(master_seed, index, &params);
        prop_assert_eq!(&here, &again);
        let on_threads: Vec<String> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| scope.spawn(|| spec_bytes(master_seed, index, &params)))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("generator thread"))
                .collect()
        });
        for elsewhere in on_threads {
            prop_assert_eq!(&here, &elsewhere);
        }
    }

    /// Adjacent indices must not reuse generator streams: across a
    /// window of consecutive scenarios every serialized spec is
    /// distinct (beyond the index stamp itself), because each aspect
    /// derives from SplitMix64-separated `(seed, stream, index)`
    /// chunks.
    #[test]
    fn adjacent_indices_are_independent(
        master_seed in proptest::arbitrary::any::<u64>(),
        start in 0u64..1_000_000,
    ) {
        let params = ScenarioParams::default();
        let mut bodies = std::collections::HashSet::new();
        for index in start..start + 8 {
            let mut sc = generate(master_seed, index, &params);
            // Erase the identity stamp so equality would mean actual
            // stream reuse, not just a differing index field.
            sc.index = 0;
            prop_assert!(
                bodies.insert(serde_json::to_string(&sc).expect("scenario serializes")),
                "index {} reproduced an earlier scenario body", index
            );
        }
    }

    /// Different master seeds shift every scenario.
    #[test]
    fn master_seed_separates_corpora(
        master_seed in proptest::arbitrary::any::<u64>(),
        index in 0u64..1_000_000,
    ) {
        let params = ScenarioParams::default();
        prop_assert_ne!(
            spec_bytes(master_seed, index, &params),
            spec_bytes(master_seed.wrapping_add(1), index, &params)
        );
    }
}

/// Mesh layouts rebuild identically too: the topology is not stored in
/// the scenario, so `topology()` must re-derive the same geometry every
/// time.
#[test]
fn mesh_topologies_rebuild_identically() {
    let params = ScenarioParams::default();
    let mut meshes = 0;
    for index in 0..200 {
        let sc = generate(2020, index, &params);
        if sc.mesh_range.is_none() {
            continue;
        }
        meshes += 1;
        let a = sc.topology().expect("mesh builds");
        let b = sc.topology().expect("mesh rebuilds");
        assert_eq!(a, b, "index {index}");
    }
    assert!(meshes > 10, "corpus covers the mesh family ({meshes})");
}

//! Workspace-level integration test: the batch-proving service consumed
//! through the umbrella crate, the way a downstream user would.

use zkvc::core::api::RawCircuit;
use zkvc::core::matmul::Strategy;
use zkvc::core::Backend;
use zkvc::runtime::{circuit_shape_digest, prove_batch, JobSpec, KeyCache, ProofEnvelope};

#[test]
fn batch_service_end_to_end_through_umbrella() {
    // A mixed batch: both backends, a CRPC strategy and a vanilla one.
    let specs = vec![
        JobSpec::new(3, 4, 3),
        JobSpec::new(3, 4, 3),
        JobSpec::new(3, 4, 3).with_backend(Backend::Spartan),
        JobSpec::new(2, 2, 2)
            .with_strategy(Strategy::Vanilla)
            .with_backend(Backend::Spartan),
    ];
    let report = prove_batch(&specs, 2, 123);
    assert!(report.all_verified());
    assert_eq!(report.results.len(), 4);
    assert_eq!(
        report.cache.misses, 3,
        "three distinct (shape, backend) pairs"
    );
    assert_eq!(report.cache.hits, 1);

    // Each proof decodes from bytes and reports the right backend.
    for (result, spec) in report.results.iter().zip(&specs) {
        let envelope = ProofEnvelope::from_bytes(&result.proof_bytes).expect("decodes");
        assert_eq!(envelope.backend, spec.backend());
    }
}

#[test]
fn shape_digest_drives_key_reuse_across_callers() {
    // Two independently built same-shape circuits digest identically, and
    // the cache hands back the same key object for both.
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkvc::core::matmul::MatMulBuilder;

    let build = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        MatMulBuilder::new(2, 3, 2)
            .strategy(Strategy::Vanilla)
            .build_random(&mut rng)
            .cs
    };
    let cs1 = build(1);
    let cs2 = build(2);
    assert_eq!(circuit_shape_digest(&cs1), circuit_shape_digest(&cs2));

    let cache = KeyCache::new();
    let (k1, hit1) = cache.get_or_setup_circuit(Backend::Groth16, &RawCircuit::new(&cs1));
    let (k2, hit2) = cache.get_or_setup_circuit(Backend::Groth16, &RawCircuit::new(&cs2));
    assert!(!hit1 && hit2);
    assert_eq!(k1.digest, k2.digest);

    // And the shared key proves/verifies both assignments.
    let mut rng = StdRng::seed_from_u64(3);
    for cs in [&cs1, &cs2] {
        let system = Backend::Groth16.system();
        let artifacts = system.prove(&k1.prover, &RawCircuit::new(cs), &mut rng);
        assert!(system.verify(&k2.verifier, &artifacts));
    }
}

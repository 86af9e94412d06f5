//! Integration tests spanning the whole stack: matmul circuits through both
//! proof-system backends, including adversarial cases.

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc::core::api::RawCircuit;
use zkvc::core::matmul::{MatMulBuilder, Strategy, ZSource};
use zkvc::core::Backend;
use zkvc::ff::{Field, Fr, PrimeField};

fn matrices(a: usize, n: usize, b: usize, seed: i64) -> (Vec<Vec<i64>>, Vec<Vec<i64>>) {
    let x = (0..a)
        .map(|i| {
            (0..n)
                .map(|k| ((i as i64 + 1) * (k as i64 + 2) + seed) % 97 - 48)
                .collect()
        })
        .collect();
    let w = (0..n)
        .map(|k| {
            (0..b)
                .map(|j| ((k as i64 + 3) * (j as i64 + 1) - seed) % 89 - 44)
                .collect()
        })
        .collect();
    (x, w)
}

#[test]
fn every_strategy_proves_and_verifies_on_both_backends() {
    let mut rng = StdRng::seed_from_u64(1);
    let (x, w) = matrices(4, 6, 5, 3);
    for strategy in Strategy::ALL {
        let job = MatMulBuilder::new(4, 6, 5)
            .strategy(strategy)
            .build_integers(&x, &w);
        assert!(job.cs.is_satisfied(), "{strategy:?}");
        for backend in Backend::ALL {
            let system = backend.system();
            let (pk, vk) = system.setup(&job, &mut rng);
            let artifacts = system.prove(&pk, &job, &mut rng);
            assert!(
                system.verify(&vk, &artifacts),
                "{strategy:?} on {backend:?}"
            );
        }
    }
}

#[test]
fn zkvc_strategy_reduces_constraints_as_the_paper_claims() {
    let (a, n, b) = (8usize, 12usize, 10usize);
    let (x, w) = matrices(a, n, b, 7);
    let vanilla = MatMulBuilder::new(a, n, b)
        .strategy(Strategy::Vanilla)
        .build_integers(&x, &w);
    let zkvc = MatMulBuilder::new(a, n, b)
        .strategy(Strategy::CrpcPsq)
        .build_integers(&x, &w);
    // O(abn) -> O(n)
    assert_eq!(vanilla.stats.num_constraints, a * b * n + a * b);
    assert_eq!(zkvc.stats.num_constraints, n);
    assert!(zkvc.stats.num_constraints * 50 < vanilla.stats.num_constraints);
    // Identical results.
    assert_eq!(vanilla.y, zkvc.y);
}

#[test]
fn groth16_proof_does_not_verify_for_a_different_statement() {
    let mut rng = StdRng::seed_from_u64(2);
    let (x, w) = matrices(3, 4, 3, 1);
    let job = MatMulBuilder::new(3, 4, 3)
        .strategy(Strategy::CrpcPsq)
        .build_integers(&x, &w);
    let system = Backend::Groth16.system();
    let (pk, vk) = system.setup(&job, &mut rng);
    let artifacts = system.prove(&pk, &job, &mut rng);
    // Same circuit, different witness/statement: the verification key does
    // not carry over to a circuit with different constants.
    let (x2, w2) = matrices(3, 4, 3, 9);
    let other = MatMulBuilder::new(3, 4, 3)
        .strategy(Strategy::CrpcPsq)
        .build_integers(&x2, &w2);
    // The proof still verifies under its own public inputs (there are none
    // beyond the statement structure), but a tampered proof must fail.
    let mut bad = artifacts;
    if let zkvc::core::backend::ProofData::Groth16 { proof, .. } = &mut bad.data {
        proof.a = (proof.a.to_projective() + zkvc::curve::G1Projective::generator()).to_affine();
    }
    assert!(!system.verify(&vk, &bad));
    let _ = other;
}

#[test]
fn dishonest_witness_cannot_be_proved_with_spartan() {
    // Corrupt one output element of the CRPC job; the prover runs anyway and
    // the verifier must reject.
    let mut rng = StdRng::seed_from_u64(3);
    let (x, w) = matrices(3, 3, 3, 5);
    let job = MatMulBuilder::new(3, 3, 3)
        .strategy(Strategy::CrpcPsq)
        .build_integers(&x, &w);
    let mut cs = job.cs;
    let mut witness = cs.witness_assignment().to_vec();
    let y_index = 3 * 3 + 3 * 3; // first output variable after the inputs
    witness[y_index] += Fr::from_u64(1);
    cs.set_witness_assignment(witness);
    assert!(!cs.is_satisfied());
    let system = Backend::Spartan.system();
    let circuit = RawCircuit::new(&cs);
    let (pk, vk) = system.setup(&circuit, &mut rng);
    let artifacts = system.prove(&pk, &circuit, &mut rng);
    assert!(!system.verify(&vk, &artifacts));
}

#[test]
fn fixed_z_matches_transcript_z_semantics() {
    // Completeness does not depend on where Z comes from.
    let (x, w) = matrices(2, 5, 2, 11);
    let fixed = MatMulBuilder::new(2, 5, 2)
        .strategy(Strategy::Crpc)
        .z_source(ZSource::Fixed(Fr::from_u64(31337)))
        .build_integers(&x, &w);
    let transcript = MatMulBuilder::new(2, 5, 2)
        .strategy(Strategy::Crpc)
        .build_integers(&x, &w);
    assert!(fixed.cs.is_satisfied());
    assert!(transcript.cs.is_satisfied());
    assert_eq!(fixed.y, transcript.y);
    assert_ne!(fixed.z, Fr::zero());
}

#[test]
fn interactive_baseline_agrees_with_snark_statement() {
    // The same product proved by the zkCNN-style interactive protocol and by
    // the zkVC SNARK path.
    let (x, w) = matrices(4, 4, 4, 13);
    let to_field = |m: &Vec<Vec<i64>>| -> Vec<Vec<Fr>> {
        m.iter()
            .map(|r| r.iter().map(|v| Fr::from_i64(*v)).collect())
            .collect()
    };
    let xf = to_field(&x);
    let wf = to_field(&w);
    let claim = zkvc::interactive::MatMulClaim::compute(&xf, &wf);
    let proof = zkvc::interactive::prove_matmul(&xf, &wf, &claim);
    assert!(zkvc::interactive::verify_matmul(&xf, &wf, &claim, &proof));

    let job = MatMulBuilder::new(4, 4, 4)
        .strategy(Strategy::CrpcPsq)
        .build_integers(&x, &w);
    assert_eq!(job.y, claim.y, "both pipelines attest to the same product");
}

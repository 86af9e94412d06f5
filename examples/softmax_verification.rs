//! Verify a SoftMax computation in zero knowledge: the non-linear
//! approximation pipeline of §III-C in isolation (max check, clipped Taylor
//! exponential, verified division), proved with the Groth16 backend.
//!
//! Run with: `cargo run --release --example softmax_verification`

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc::core::api::RawCircuit;
use zkvc::core::fixed::FixedPointConfig;
use zkvc::core::nonlinear::{synthesize_softmax, SoftmaxConfig};
use zkvc::core::Backend;
use zkvc::ff::{Fr, PrimeField};
use zkvc::r1cs::{ConstraintSystem, LinearCombination};

fn main() {
    let cfg = SoftmaxConfig::default();
    let fixed = FixedPointConfig::default();
    let logits = [1.25f64, -0.5, 0.75, 2.0, -1.0, 0.0];
    let quantised: Vec<i64> = logits.iter().map(|v| fixed.quantize(*v)).collect();

    println!("Logits: {logits:?}");
    println!("Quantised (scale 2^{}): {quantised:?}", fixed.fraction_bits);

    let mut cs = ConstraintSystem::<Fr>::new();
    let inputs: Vec<LinearCombination<Fr>> = quantised
        .iter()
        .map(|q| cs.alloc_witness(Fr::from_i64(*q)).into())
        .collect();
    let outputs = synthesize_softmax(&mut cs, &inputs, &cfg).expect("inputs are in range");
    assert!(cs.is_satisfied());
    println!(
        "SoftMax circuit: {} constraints, {} variables",
        cs.num_constraints(),
        cs.num_variables()
    );

    // Compare the in-circuit approximation against the real softmax.
    let exp: Vec<f64> = logits.iter().map(|v| v.exp()).collect();
    let total: f64 = exp.iter().sum();
    println!("{:<8} {:>12} {:>12}", "index", "true", "in-circuit");
    for (i, out) in outputs.iter().enumerate() {
        let circuit_val = cs.value(*out).to_canonical()[0] as f64 / fixed.scale() as f64;
        println!("{:<8} {:>12.4} {:>12.4}", i, exp[i] / total, circuit_val);
    }

    let mut rng = StdRng::seed_from_u64(5);
    let system = Backend::Groth16.system();
    let circuit = RawCircuit::new(&cs);
    let (pk, vk) = system.setup(&circuit, &mut rng);
    let artifacts = system.prove(&pk, &circuit, &mut rng);
    let ok = system.verify(&vk, &artifacts);
    println!(
        "\nGroth16 proof of the SoftMax evaluation: {} bytes, proved in {:.3?}, verified: {ok}",
        artifacts.metrics.proof_size_bytes, artifacts.metrics.prove_time
    );
    assert!(ok);
}

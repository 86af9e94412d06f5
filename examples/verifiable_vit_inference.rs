//! End-to-end verifiable Vision-Transformer inference: compile a (small)
//! ViT with the zkVC hybrid token-mixer schedule into a circuit, prove the
//! forward pass with both backends and verify the proofs.
//!
//! Run with: `cargo run --release --example verifiable_vit_inference`
//! The model here is a reduced ViT so the example finishes in seconds; the
//! `table3` harness in `zkvc-bench` runs the paper's configurations.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc::core::api::RawCircuit;
use zkvc::core::matmul::Strategy;
use zkvc::core::Backend;
use zkvc::nn::circuit::ModelCircuit;
use zkvc::nn::mixer::MixerSchedule;
use zkvc::nn::models::VitConfig;

fn main() {
    // A ViT with 3 layers, 2 heads, hidden dim 16, 8 tokens, 10 classes.
    let model = VitConfig::custom(3, 2, 16, 8, 10).to_model();
    let schedule = MixerSchedule::zkvc_hybrid(3);
    println!(
        "Compiling {} with the '{}' mixer schedule...",
        model.name, schedule.name
    );

    let circuit = ModelCircuit::build(&model, &schedule, Strategy::CrpcPsq, 2024);
    assert!(
        circuit.cs.is_satisfied(),
        "the forward pass must satisfy its own circuit"
    );

    println!("Per-layer constraint breakdown:");
    for layer in &circuit.layers {
        println!(
            "  {:<28} {:>8} constraints  {:>8} variables",
            layer.label, layer.constraints, layer.variables
        );
    }
    println!(
        "  {:<28} {:>8} constraints  {:>8} variables",
        "TOTAL",
        circuit.num_constraints(),
        circuit.num_variables()
    );
    println!(
        "Class logits (fixed-point field elements): {:?}",
        circuit.logits
    );

    let mut rng = StdRng::seed_from_u64(9);
    let raw = RawCircuit::new(&circuit.cs);
    for backend in Backend::ALL {
        let system = backend.system();
        let t0 = Instant::now();
        let (pk, vk) = system.setup(&raw, &mut rng);
        let setup_time = t0.elapsed();
        let artifacts = system.prove(&pk, &raw, &mut rng);
        let t1 = Instant::now();
        let ok = system.verify(&vk, &artifacts);
        let verify_time = t1.elapsed();
        println!(
            "{:<8}  setup: {:>8.3?}  prove: {:>8.3?}  verify: {:>8.3?}  proof: {:>7} bytes  ok: {}",
            backend.name(),
            setup_time,
            artifacts.metrics.prove_time,
            verify_time,
            artifacts.metrics.proof_size_bytes,
            ok
        );
        assert!(ok);
    }
}

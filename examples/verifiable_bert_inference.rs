//! Verifiable BERT-style inference: compare token-mixer schedules on a
//! reduced BERT and prove the cheapest and the hybrid one.
//!
//! Run with: `cargo run --release --example verifiable_bert_inference`

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc::core::api::RawCircuit;
use zkvc::core::matmul::Strategy;
use zkvc::core::Backend;
use zkvc::nn::circuit::ModelCircuit;
use zkvc::nn::mixer::MixerSchedule;
use zkvc::nn::models::{BertConfig, ModelConfig};

fn main() {
    // Reduce the paper's BERT (4 layers, 256 dim, 128 tokens) to 1/16 scale
    // so the example runs in seconds.
    let base = BertConfig::paper().to_model().scaled_down(16);
    let model = ModelConfig {
        name: "BERT (example scale)".to_string(),
        input_dim: base.input_dim,
        layers: base.layers,
        num_classes: 3,
    };
    let n = model.num_layers();

    println!(
        "Constraint cost of each token-mixer schedule on {}:",
        model.name
    );
    let schedules = [
        MixerSchedule::soft_approx(n),
        MixerSchedule::soft_free_s(n),
        MixerSchedule::soft_free_l(n),
        MixerSchedule::zkvc_hybrid_nlp(n),
    ];
    let mut circuits = Vec::new();
    for schedule in schedules {
        let circuit = ModelCircuit::build(&model, &schedule, Strategy::CrpcPsq, 31);
        assert!(circuit.cs.is_satisfied());
        println!(
            "  {:<12} {:>9} constraints",
            schedule.name,
            circuit.num_constraints()
        );
        circuits.push((schedule, circuit));
    }

    // Prove the zkVC hybrid with the transparent backend.
    let (schedule, circuit) = circuits.last().unwrap();
    let mut rng = StdRng::seed_from_u64(77);
    let system = Backend::Spartan.system();
    let raw = RawCircuit::new(&circuit.cs);
    let (pk, vk) = system.setup(&raw, &mut rng);
    let artifacts = system.prove(&pk, &raw, &mut rng);
    let ok = system.verify(&vk, &artifacts);
    println!(
        "\nProved the '{}' schedule with the Spartan backend in {:.3?} ({} byte proof). Verified: {ok}",
        schedule.name, artifacts.metrics.prove_time, artifacts.metrics.proof_size_bytes
    );
    assert!(ok);
}

//! End-to-end tests of the `zkvc` binary: prove/verify round trips for
//! matmul *and* model-preset jobs, statement-binding rejection, and
//! data-driven exit codes (`0` ok, `1` bad proof, `2` bad invocation).

use std::path::PathBuf;
use std::process::{Command, Output};

use zkvc_runtime::{JobOptions, JobSpec, ProofEnvelope, ProvingPool};

fn zkvc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_zkvc"))
        .args(args)
        .output()
        .expect("zkvc binary runs")
}

fn tmp_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zkvc-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn matmul_prove_verify_roundtrip_and_binding_rejection() {
    let proof = tmp_file("matmul.bin");
    let proof_str = proof.to_str().unwrap();

    // Prove Y = X*W with public outputs (the default) on Spartan (fast in
    // debug builds) and verify it.
    let out = zkvc(&[
        "prove",
        "--spec",
        "2x3x2:zkvc:s",
        "--seed",
        "7",
        "--key-cache",
        "none",
        "--out",
        proof_str,
    ]);
    assert!(
        out.status.success(),
        "prove failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("public outputs"), "{stdout}");

    let out = zkvc(&[
        "verify",
        "--spec",
        "2x3x2:zkvc:s",
        "--seed",
        "7",
        "--key-cache",
        "none",
        "--in",
        proof_str,
    ]);
    assert!(
        out.status.success(),
        "verify failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("statement binding: OK"), "{stdout}");
    assert!(stdout.contains("verification: OK"), "{stdout}");

    // A different seed rebuilds the same circuit shape with a different Y:
    // the replayed proof must fail statement binding with exit code 1.
    let out = zkvc(&[
        "verify",
        "--spec",
        "2x3x2:zkvc:s",
        "--seed",
        "8",
        "--key-cache",
        "none",
        "--in",
        proof_str,
    ]);
    assert_eq!(out.status.code(), Some(1), "replay must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("statement binding: MISMATCH"), "{stdout}");
}

#[test]
fn model_job_proves_and_verifies_through_the_cli() {
    let proof = tmp_file("mixer.bin");
    let proof_str = proof.to_str().unwrap();

    let out = zkvc(&[
        "prove",
        "--spec",
        "mixer-block:spartan",
        "--seed",
        "3",
        "--key-cache",
        "none",
        "--out",
        proof_str,
    ]);
    assert!(
        out.status.success(),
        "model prove failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("mixer-block"), "{stdout}");

    let out = zkvc(&[
        "verify",
        "--spec",
        "mixer-block:spartan",
        "--seed",
        "3",
        "--key-cache",
        "none",
        "--in",
        proof_str,
    ]);
    assert!(
        out.status.success(),
        "model verify failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("statement binding: OK"), "{stdout}");

    // The model proof must not verify as some other preset's statement.
    let out = zkvc(&[
        "verify",
        "--spec",
        "bert-block:spartan",
        "--seed",
        "3",
        "--key-cache",
        "none",
        "--in",
        proof_str,
    ]);
    assert_eq!(out.status.code(), Some(1), "cross-preset verify must fail");
}

#[test]
fn cli_proof_is_the_pool_request_mode_proof() {
    // `zkvc prove --spec S --seed N` and a pool job submitted with
    // `JobOptions::seed(N)` run the same request-mode job: once the CLI
    // envelope drops its embedded vk, the bytes must match the pool's
    // keyless envelope exactly. A batch job goes first so the request
    // job's pool id is not 0: the statement id stays pinned to 0 anyway.
    for (spec, name) in [("3x3x3:zkvc:g", "req-g.bin"), ("2x3x2:zkvc:s", "req-s.bin")] {
        let path = tmp_file(name);
        let path_str = path.to_str().unwrap();
        let out = zkvc(&[
            "prove",
            "--spec",
            spec,
            "--seed",
            "11",
            "--key-cache",
            "none",
            "--out",
            path_str,
        ]);
        assert!(
            out.status.success(),
            "{spec}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let (job, _) = JobSpec::parse(spec).unwrap();
        let cli = ProofEnvelope::from_bytes(&std::fs::read(&path).unwrap())
            .expect("CLI envelope decodes");
        // The file is self-contained: Groth16 embeds its vk.
        assert_eq!(
            cli.embedded_vk().is_some(),
            job.backend() == zkvc_core::Backend::Groth16
        );
        let pool = ProvingPool::new(1);
        pool.submit(job, JobOptions::new());
        let id = pool.submit(job, JobOptions::new().seed(11));
        let report = pool.join();
        let pooled = &report.results[id];
        assert!(pooled.verified, "{spec}");
        assert_eq!(cli.without_vk().to_bytes(), pooled.proof_bytes, "{spec}");
    }
}

#[test]
fn usage_errors_exit_2() {
    // Unknown command.
    assert_eq!(zkvc(&["frobnicate"]).status.code(), Some(2));
    // Malformed spec.
    let out = zkvc(&["prove", "--spec", "2x2", "--out", "/dev/null"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad spec"));
    // Unknown flag.
    let out = zkvc(&["prove-batch", "--spec", "2x2x2", "--sede", "7"]);
    assert_eq!(out.status.code(), Some(2));
    // Missing file.
    let out = zkvc(&[
        "verify",
        "--spec",
        "2x2x2:s",
        "--key-cache",
        "none",
        "--in",
        "/nonexistent/proof.bin",
    ]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn malformed_envelope_exits_2() {
    let path = tmp_file("garbage.bin");
    std::fs::write(&path, b"definitely not a proof").unwrap();
    let out = zkvc(&[
        "verify",
        "--spec",
        "2x2x2:s",
        "--key-cache",
        "none",
        "--in",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("malformed proof envelope"));
}

#[test]
fn backend_mismatch_exits_2() {
    let proof = tmp_file("spartan.bin");
    let proof_str = proof.to_str().unwrap();
    let out = zkvc(&[
        "prove",
        "--spec",
        "2x2x2:s",
        "--key-cache",
        "none",
        "--out",
        proof_str,
    ]);
    assert!(out.status.success());
    let out = zkvc(&[
        "verify",
        "--spec",
        "2x2x2:g",
        "--key-cache",
        "none",
        "--in",
        proof_str,
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("spartan"));
}

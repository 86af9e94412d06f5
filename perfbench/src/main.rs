//! The zkVC benchmark binary. `run.py` builds it and `zkvc`, then runs
//! one workload per process:
//!
//! ```text
//! zkvc-perfbench --workload prove-g|prove-s|serve-mix --seed N --seconds S
//!                --trace 0|1 --zkvc-bin PATH --run-dir DIR
//!                [--git-commit C] [--source-digest D]
//! ```
//!
//! It prints a provenance line, one line per metric, and the JSON result
//! line last; it exits 1 when any proof fails to verify or a check fails.
//! See README.md.

mod inproc;
mod replay;
mod report;
mod serve_mix;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use inproc::Inproc;
use report::Outcome;
use serve_mix::Mix;
use trace::Recorder;

/// Run-wide parameters every workload reads.
#[derive(Clone, Debug)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Pool workers / serve workers / jobs in flight: one per core, or
    /// the workload's cap when lower.
    pub threads: usize,
}

/// zkVC-G on the paper's Fig. 3 shape, Y public.
const PROVE_G: Inproc = Inproc {
    spec: "49x64x128:crpc+psq:groth16",
    max_workers: usize::MAX,
    setup_reps: 2,
    slo_ms: 1500.0,
    replays: 3,
};

/// zkVC-S on the Fig. 3 quick shape. One job at a time: the prover's
/// own threads use every core, and a second job in flight would make
/// its latency swing with any neighbour on a shared host (README.md).
const PROVE_S: Inproc = Inproc {
    spec: "8x8x16:crpc+psq:spartan",
    max_workers: 1,
    setup_reps: 15,
    slo_ms: 1500.0,
    replays: 5,
};

/// Small matmuls mixed with model blocks, open loop.
const SERVE_MIX: Mix = Mix {
    small: "8x8x16:crpc+psq:groth16",
    model: "vit-micro:crpc+psq:groth16",
    rate: 10.0,
    slo_small_ms: 250.0,
    slo_model_ms: 2500.0,
    setup_reps: 2,
    replays: 3,
};

struct Args {
    workload: String,
    params: Params,
    zkvc_bin: PathBuf,
    run_dir: PathBuf,
    git_commit: String,
    source_digest: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let need = |flag: &str| get(flag).ok_or_else(|| format!("missing {flag}"));
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Ok(Args {
        workload: need("--workload")?,
        params: Params {
            seed: need("--seed")?.parse().map_err(|_| "bad --seed")?,
            seconds: need("--seconds")?.parse().map_err(|_| "bad --seconds")?,
            trace: need("--trace")? == "1",
            threads,
        },
        zkvc_bin: need("--zkvc-bin")?.into(),
        run_dir: need("--run-dir")?.into(),
        git_commit: get("--git-commit").unwrap_or_else(|| "unknown".into()),
        source_digest: get("--source-digest").unwrap_or_else(|| "unknown".into()),
    })
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("zkvc-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Static kernel dispatch, whatever profile the host has cached.
    let tune = match zkvc::runtime::tune::startup(Some("none")) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("zkvc-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let inproc = match args.workload.as_str() {
        "prove-g" => Some(PROVE_G),
        "prove-s" => Some(PROVE_S),
        _ => None,
    };
    let cores = args.params.threads;
    if let Some(w) = &inproc {
        args.params.threads = cores.min(w.max_workers);
    }
    let p = &args.params;
    println!(
        "provenance {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"cores\":{},\"threads\":{},\"connections\":1,\"tune\":\"{}\",\"tune_profile_digest\":\"{}\",\"git_commit\":\"{}\",\"source_digest\":\"{}\"}}",
        args.workload,
        p.seed,
        p.seconds,
        u8::from(p.trace),
        cores,
        p.threads,
        tune.digest(),
        zkvc::runtime::tune::profile_digest(&tune.profile),
        args.git_commit,
        args.source_digest,
    );

    let mut rec = Recorder::new(p.trace);
    let mut out = Outcome::default();
    let ran = match (&inproc, args.workload.as_str()) {
        (Some(w), _) => inproc::run(w, p, &mut rec, &mut out),
        (None, "serve-mix") => serve_mix::run(
            &SERVE_MIX,
            p,
            &args.zkvc_bin,
            &args.run_dir,
            &mut rec,
            &mut out,
        ),
        (None, other) => Err(format!("unknown workload {other:?}")),
    };
    if let Err(e) = ran {
        eprintln!("zkvc-perfbench: {} failed: {e}", args.workload);
        return ExitCode::from(2);
    }
    if p.trace {
        let path = args
            .run_dir
            .with_file_name(format!("trace-{}-seed{}.jsonl", args.workload, p.seed));
        match std::fs::write(&path, rec.to_json_lines()) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    for line in out.human_lines(p.trace) {
        println!("{line}");
    }
    let (line, correct) = out.result_line(p.trace);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! `prove-g` and `prove-s`: a warm, closed-loop prove-many through
//! `ProvingPool` with one job in flight per pool worker, on one shape
//! whose keys were set up (through `KeyCache`, as the pool does) before
//! timing.

use std::collections::HashMap;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use zkvc::core::api::{compile_shape, generate_witness_for};
use zkvc::core::{ProverKey, VerifierKey};
use zkvc::ff::{Field, Fr, PrimeField};
use zkvc::runtime::{
    build_statement, CircuitKeys, JobOptions, JobResult, JobSpec, KeyCache, PoolConfig,
    ProofEnvelope, ProvingPool, ResultSink,
};

use crate::replay::{self, SpartanReplay};
use crate::report::{self, Outcome};
use crate::stats::{self, ms};
use crate::trace::Recorder;
use crate::Params;

/// Highest percentile `latency_tail_ms` reports: both workloads' windows
/// give 100 to 200 samples, enough for p90 but not always for p95 (see
/// [`stats::tail`]).
const TAIL_TOP: f64 = 90.0;

/// One in-process workload.
#[derive(Clone, Copy, Debug)]
pub struct Inproc {
    pub spec: &'static str,
    /// Most pool workers (and jobs in flight); fewer when the host has
    /// fewer cores.
    pub max_workers: usize,
    /// Set-ups timed per untraced run (the median is reported).
    pub setup_reps: usize,
    /// Per-request latency limit for `slo_met_frac`, in ms.
    pub slo_ms: f64,
    /// Proves replayed step by step in a traced run.
    pub replays: usize,
}

/// A completed pool job as the client saw it. Proof bytes are not kept
/// (so memory does not grow with throughput): the proof is decoded and
/// verified as it lands, and only a digest of its public inputs is kept
/// for the statement-binding check after the window.
struct Done {
    id: usize,
    latency: Duration,
    queue_wait: Duration,
    bytes: usize,
    /// The pool's own verdict (no error, verified).
    pool_ok: bool,
    /// Decode + verify time and the public inputs' digest, when the proof
    /// decoded and verified against the held key.
    client: Option<(f64, [u8; 32])>,
    /// Every check passed, statement binding included (set after the
    /// window).
    verified: bool,
}

/// One set-up as the pool would run it on a cold cache: statement, shape
/// compile, backend set-up, template registration.
pub fn setup(spec: &JobSpec, seed: u64) -> (Arc<KeyCache>, Arc<CircuitKeys>, Duration) {
    let cache = Arc::new(KeyCache::with_seed(seed));
    let t0 = Instant::now();
    let statement = build_statement(seed, 0, spec);
    let (keys, _) =
        cache.get_or_setup_template(spec.backend(), seed, &spec.to_string(), statement.as_ref());
    (cache, keys, t0.elapsed())
}

/// Keeps `in_flight` jobs in the pool until `window` has passed, then
/// drains. Returns the completions and the time of the last one.
/// Each proof is decoded and verified on this thread as it lands, after
/// its replacement job is submitted; `first_ok` keeps one verified
/// envelope for the tamper check.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    pool: &ProvingPool,
    rx: &mpsc::Receiver<(JobResult, Instant)>,
    spec: JobSpec,
    in_flight: usize,
    window: Duration,
    vk: &VerifierKey,
    first_ok: &mut Option<ProofEnvelope>,
    rec: &mut Recorder,
) -> Result<(Vec<Done>, Instant), String> {
    let start = Instant::now();
    let mut submitted: HashMap<usize, Instant> = HashMap::new();
    let submit = |rec: &mut Recorder, submitted: &mut HashMap<usize, Instant>| {
        rec.span("pool.submit", |_| {
            let t = Instant::now();
            submitted.insert(pool.submit(spec, JobOptions::new()), t);
        });
    };
    for _ in 0..in_flight {
        submit(rec, &mut submitted);
    }
    let mut done = Vec::new();
    let mut last = start;
    while !submitted.is_empty() {
        let (result, at) = rx
            .recv_timeout(Duration::from_secs(120))
            .map_err(|_| "pool stopped answering".to_string())?;
        let sent = submitted
            .remove(&result.id)
            .ok_or_else(|| format!("unknown job id {}", result.id))?;
        last = at;
        if start.elapsed() < window {
            submit(rec, &mut submitted);
        }
        let client = client_verify(rec, vk, &result.proof_bytes).map(|(env, took)| {
            let digest = publics_digest(&env.public_inputs);
            first_ok.get_or_insert(env);
            (took, digest)
        });
        done.push(Done {
            id: result.id,
            latency: at - sent,
            queue_wait: result.queue_wait,
            bytes: result.proof_bytes.len(),
            pool_ok: result.error.is_none() && result.verified,
            client,
            verified: false,
        });
    }
    Ok((done, last))
}

pub fn run(w: &Inproc, p: &Params, rec: &mut Recorder, out: &mut Outcome) -> Result<(), String> {
    let (spec, _) = JobSpec::parse(w.spec).map_err(|e| e.to_string())?;
    let seed = p.seed;

    // Set-up, timed on fresh caches; the last one serves the loop.
    let reps = if p.trace { 1 } else { w.setup_reps };
    let mut setups = Vec::new();
    let mut warm = None;
    for _ in 0..reps {
        let (cache, keys, took) = setup(&spec, seed);
        setups.push(took.as_secs_f64());
        warm = Some((cache, keys));
    }
    let (cache, keys) = warm.expect("at least one set-up");
    out.set("setup_s", stats::median(&setups).unwrap_or(f64::NAN));
    out.note("setup_s", format!("median of {reps} set-ups"));

    let (tx, rx) = mpsc::channel();
    let sink: ResultSink = Arc::new(move |r: &JobResult| {
        let _ = tx.send((r.clone(), Instant::now()));
    });
    let pool = ProvingPool::configured(
        PoolConfig::new(p.threads).seed(seed).retain_results(false),
        Arc::clone(&cache),
        Some(sink),
    );

    // Warm-up round, then the timed window (split untraced/traced when
    // tracing, so the trace's own cost can be read off).
    let mut off = Recorder::new(false);
    let mut first_ok = None;
    let vk = &keys.verifier;
    let mut run_loop = |window: Duration, rec: &mut Recorder| {
        closed_loop(&pool, &rx, spec, p.threads, window, vk, &mut first_ok, rec)
    };
    let (mut warmup, _) = run_loop(Duration::ZERO, &mut off)?;
    let window = Duration::from_secs_f64(p.seconds);
    let t0 = Instant::now();
    let (mut timed, end, mut traced) = if p.trace {
        let (a, _) = run_loop(window / 2, &mut off)?;
        let (b, end) = run_loop(window / 2, rec)?;
        (a, end, b)
    } else {
        let (a, end) = run_loop(window, &mut off)?;
        (a, end, Vec::new())
    };
    let wall = (end - t0).as_secs_f64();
    drop(pool.join());

    // Statement binding: each verified proof's public inputs must be its
    // statement's outputs, rebuilt from the seed and job id.
    for d in warmup.iter_mut().chain(&mut timed).chain(&mut traced) {
        d.verified = d.pool_ok
            && d.client.is_some_and(|(_, digest)| {
                digest == publics_digest(&build_statement(seed, d.id, &spec).public_outputs())
            });
    }

    out.set("proofs_per_s", (timed.len() + traced.len()) as f64 / wall);
    latency_metrics(out, &timed, w.slo_ms);
    if p.trace {
        let p50 = |v: &[Done]| stats::median(&v.iter().map(|d| ms(d.latency)).collect::<Vec<_>>());
        if let (Some(a), Some(b)) = (p50(&timed), p50(&traced)) {
            out.set("trace.overhead", b / a);
        }
    }
    let all: Vec<&Done> = warmup.iter().chain(&timed).chain(&traced).collect();
    let queue: Vec<f64> = all.iter().map(|d| ms(d.queue_wait)).collect();
    out.set("pool.queue_wait_ms", stats::median(&queue).unwrap_or(0.0));
    out.set("cache.hit_rate", cache.stats().hit_rate());
    let sizes: Vec<f64> = all.iter().map(|d| d.bytes as f64).collect();
    out.set("proof_bytes", stats::median(&sizes).unwrap_or(f64::NAN));

    let mut verify_ms = Vec::new();
    for d in &all {
        out.attempted += 1;
        match d.client {
            Some((took, _)) if d.verified => {
                out.verified += 1;
                verify_ms.push(took);
            }
            _ => out.failed += 1,
        }
    }
    out.set(
        "verify_p50_ms",
        stats::median(&verify_ms).unwrap_or(f64::NAN),
    );
    out.set(
        "verified_frac",
        out.verified as f64 / out.attempted.max(1) as f64,
    );
    match &first_ok {
        Some(env) => out.check(tamper_rejected(env, vk), "tampered public input accepted"),
        None => out.check(false, "no verified proof to tamper with"),
    }
    verify_layers(rec, out, first_ok.as_ref(), vk);

    if p.trace {
        replays(w.replays, &spec, seed, &keys, rec, out)?;
    }
    out.set(
        "peak_rss_mb",
        report::peak_rss_mb("self").unwrap_or(f64::NAN),
    );
    Ok(())
}

/// `latency_*`, `small_latency_*` (one class here, so the same figures)
/// and `slo_met_frac` (a request that failed a check misses its limit).
fn latency_metrics(out: &mut Outcome, timed: &[Done], slo_ms: f64) {
    let lat: Vec<f64> = timed.iter().map(|d| ms(d.latency)).collect();
    let p50 = stats::median(&lat).unwrap_or(f64::NAN);
    out.set("latency_p50_ms", p50);
    out.set("small_latency_p50_ms", p50);
    if let Some(t) = stats::tail(&lat, TAIL_TOP) {
        for name in ["latency_tail_ms", "small_latency_tail_ms"] {
            out.set(name, t.value);
            out.note(name, format!("p{}, {} samples beyond", t.pct, t.beyond));
        }
    }
    let met = timed
        .iter()
        .filter(|d| d.verified && ms(d.latency) <= slo_ms)
        .count();
    out.set("slo_met_frac", met as f64 / timed.len().max(1) as f64);
    out.note("slo_met_frac", format!("limit {slo_ms} ms"));
}

/// Decodes an envelope and verifies it against `vk`. Returns the
/// envelope and the decode+verify time in ms when it verifies.
pub fn client_verify(
    rec: &mut Recorder,
    vk: &VerifierKey,
    bytes: &[u8],
) -> Option<(ProofEnvelope, f64)> {
    let t0 = Instant::now();
    let env = rec
        .span("serial.decode", |_| ProofEnvelope::decode(bytes))
        .ok()?;
    let name = match vk {
        VerifierKey::Groth16(_) => "groth16.verify",
        VerifierKey::Spartan(_) => "spartan.verify",
    };
    let ok = rec.span(name, |_| env.verify_with_key(vk));
    let took = ms(t0.elapsed());
    ok.then_some((env, took))
}

/// A digest of public inputs, for binding checks without keeping them.
fn publics_digest(publics: &[Fr]) -> [u8; 32] {
    let bytes: Vec<u8> = publics.iter().flat_map(Fr::to_bytes_le).collect();
    zkvc::hash::sha256(&bytes)
}

/// Flips one public input of a verified envelope: `verify` must say no.
pub fn tamper_rejected(env: &ProofEnvelope, vk: &VerifierKey) -> bool {
    let mut forged = env.clone();
    match forged.public_inputs.first_mut() {
        Some(x) => *x += Fr::one(),
        None => return false,
    }
    !forged.verify_with_key(vk)
}

/// Per-layer figures of the client-side checks: decode and verify (from
/// the spans recorded while verifying), and for Groth16 the public-input
/// MSM on its own, timed on `env`.
pub fn verify_layers(
    rec: &mut Recorder,
    out: &mut Outcome,
    env: Option<&ProofEnvelope>,
    vk: &VerifierKey,
) {
    if !rec.enabled() {
        return;
    }
    if let (VerifierKey::Groth16(vk), Some(env)) = (vk, env) {
        for _ in 0..5 {
            rec.span("groth16.prepare_inputs", |_| {
                zkvc::groth16::prepare_inputs(vk, &env.public_inputs)
            });
        }
    }
    let by_name = rec.self_ms_by_name();
    for (span, metric) in [
        ("serial.decode", "serial.decode_ms"),
        ("groth16.verify", "groth16.verify_ms"),
        ("spartan.verify", "spartan.verify_ms"),
        ("groth16.prepare_inputs", "groth16.prepare_inputs_ms"),
    ] {
        if let Some(v) = by_name.get(span) {
            out.set(metric, stats::median(v).unwrap_or(0.0));
        }
    }
}

/// Set-up layer figures plus `replays` step-by-step proves of fresh
/// statements on the same key.
pub fn replays(
    replays: usize,
    spec: &JobSpec,
    seed: u64,
    keys: &CircuitKeys,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Result<(), String> {
    let m = &keys.shape.matrices;
    out.set("r1cs.constraints", m.num_constraints() as f64);
    out.set("r1cs.variables", m.num_variables() as f64);
    let statement = build_statement(seed, 0, spec);
    let shape = rec.span("r1cs.shape_compile", |_| compile_shape(statement.as_ref()));
    if shape.digest != keys.digest {
        return Err("recompiled shape digest differs from the cached key's".into());
    }
    let spartan = match &keys.prover {
        ProverKey::Groth16(pk) => {
            out.set("groth16.setup_s", keys.setup_time.as_secs_f64());
            out.set("ff.fft_size", pk.h_domain.size() as f64);
            let points = pk.a_query.len()
                + pk.b_g2_query.len()
                + pk.b_g1_query.len()
                + pk.l_query.len()
                + pk.h_domain.size()
                - 1;
            out.set("curve.msm_points", points as f64);
            None
        }
        ProverKey::Spartan(_) => {
            out.set("spartan.preprocess_ms", ms(keys.setup_time));
            Some(SpartanReplay::new(m))
        }
    };

    let mut matched = true;
    for i in 0..replays {
        let id = 1_000_000 + i;
        let statement = rec.span("core.statement", |_| build_statement(seed, id, spec));
        let witness = rec.span("r1cs.witness", |_| {
            generate_witness_for(statement.as_ref(), &keys.shape)
        });
        // Any prover seed will do: the real prove and its replay share it.
        if let Err(e) =
            replay::prove_and_replay(rec, &keys.prover, spartan.as_ref(), &witness, id as u64)
        {
            eprintln!("{e}");
            matched = false;
        }
    }
    out.check(matched, "replay reproduces the real proof");
    replay_metrics(rec, out, replays);
    Ok(())
}

/// Per-layer figures from the replay spans: layer self time per replayed
/// prove, and coverage = replayed phase time over the real prove time.
fn replay_metrics(rec: &Recorder, out: &mut Outcome, replays: usize) {
    let by_name = rec.self_ms_by_name();
    let per_replay = |span: &str| {
        by_name
            .get(span)
            .map(|v| v.iter().sum::<f64>() / replays.max(1) as f64)
    };
    let median = |span: &str| by_name.get(span).and_then(|v| stats::median(v));
    for (span, metric) in [
        ("core.statement", "core.statement_ms"),
        ("r1cs.witness", "r1cs.witness_ms"),
        ("r1cs.shape_compile", "r1cs.shape_compile_ms"),
        ("groth16.prove", "groth16.prove_ms"),
        ("spartan.prove", "spartan.prove_ms"),
    ] {
        if let Some(v) = median(span) {
            out.set(metric, v);
        }
    }
    for (span, metric) in [
        ("qap.h", "qap.h_ms"),
        ("ff.fft", "ff.fft_ms"),
        ("curve.msm.a", "curve.msm_ms.a"),
        ("curve.msm.b_g2", "curve.msm_ms.b_g2"),
        ("curve.msm.b_g1", "curve.msm_ms.b_g1"),
        ("curve.msm.l", "curve.msm_ms.l"),
        ("curve.msm.h", "curve.msm_ms.h"),
        ("spartan.commit", "spartan.commit_ms"),
        ("spartan.matvec", "spartan.matvec_ms"),
        ("spartan.sc1", "spartan.sc1_ms"),
        ("spartan.mvec", "spartan.mvec_ms"),
        ("spartan.sc2", "spartan.sc2_ms"),
        ("spartan.ipa", "spartan.ipa_ms"),
    ] {
        if let Some(v) = per_replay(span) {
            out.set(metric, v);
        }
    }
    for (root, prove) in [
        (replay::GROTH16_ROOT, "groth16.prove"),
        (replay::SPARTAN_ROOT, "spartan.prove"),
    ] {
        let covered = rec.covered_ms(root);
        if let Some(real) = by_name.get(prove) {
            let ratios: Vec<f64> = covered.iter().zip(real).map(|(c, r)| c / r).collect();
            if let Some(c) = stats::median(&ratios) {
                out.set("trace.coverage", c);
                out.note(
                    "trace.coverage",
                    format!("{prove}, median of {} replays", ratios.len()),
                );
            }
        }
    }
}

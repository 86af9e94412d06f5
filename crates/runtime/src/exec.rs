//! The one job executor — statement, keys, witness pass, prove, keyless
//! envelope, self-verify — run by the proving pool, the remote worker and
//! `zkvc prove`. A job is deterministic in `(spec, seed, statement id)`,
//! so all three emit the same proof bytes for it. They differ only in the
//! stop condition, the key lookup ([`Job::shipped`]) and how they render
//! the outcome.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc_core::api::generate_witness_for;
use zkvc_core::ProofArtifacts;
use zkvc_ff::cancel::{self, CancelCheck, Cancelled};

use crate::cache::{CircuitKeys, KeyCache};
use crate::pool::{build_statement, envelope_verifies, JobError};
use crate::serial::ProofEnvelope;
use crate::spec::JobSpec;

/// The prover randomness of statement `statement_id` at `seed`.
pub(crate) fn prover_rng(seed: u64, statement_id: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (statement_id as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// One job as the executor sees it.
#[derive(Debug)]
pub(crate) struct Job<'a> {
    pub(crate) spec: &'a JobSpec,
    pub(crate) seed: u64,
    pub(crate) statement_id: usize,
    /// Past this instant the job stops: at pickup, after the statement
    /// build, or at the next kernel checkpoint.
    pub(crate) deadline: Option<Instant>,
    /// The shape digest a coordinator shipped with the job: its cache
    /// entry is used when present. Otherwise, and always when `None`, the
    /// keys come from the spec's template entry, set up on first use.
    pub(crate) shipped: Option<&'a [u8; 32]>,
}

/// A proved job: the proof, the keys it was made and checked with, and
/// the phase timings.
#[derive(Debug)]
pub struct ProvedJob {
    /// The keys the proof was made and verified with.
    pub keys: Arc<CircuitKeys>,
    /// Whether the keys came from the cache rather than a fresh setup.
    pub cache_hit: bool,
    /// The proof, its public inputs and the prover metrics.
    pub artifacts: ProofArtifacts,
    /// The keyless envelope bytes (Groth16 vks travel out of band).
    pub proof_bytes: Vec<u8>,
    /// Whether the decoded envelope binds the statement's public outputs
    /// and verifies against `keys`.
    pub verified: bool,
    /// Statement build plus witness pass.
    pub build_time: Duration,
    /// Proving against the keys.
    pub prove_time: Duration,
    /// Decoding and verifying the envelope.
    pub verify_time: Duration,
}

/// Proves `spec` in request mode at `seed`: statement id 0, keys set up
/// from `seed`, no deadline. `zkvc prove --spec S --seed N` runs this, and
/// so does a pool job submitted with
/// [`JobOptions::seed`](crate::JobOptions::seed): both emit the same proof.
pub fn prove_request(spec: &JobSpec, seed: u64) -> Result<ProvedJob, JobError> {
    let job = Job {
        spec,
        seed,
        statement_id: 0,
        deadline: None,
        shipped: None,
    };
    execute(&KeyCache::new(), &job, || false, false)
}

fn past(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// Runs one job under the cancellation and panic guards. Never panics: a
/// panic becomes [`JobError::Panicked`], a kernel cancellation checkpoint
/// the deadline or cancel error that tripped it.
///
/// `cancelled` is the caller's stop condition besides the deadline. It
/// joins the kernel cancellation check, which is re-installed inside MSM
/// worker threads, hence `'static`. `pickup_fault` arms the
/// `pool.pickup.panic` fault point, which only the local pool fires.
pub(crate) fn execute(
    cache: &KeyCache,
    job: &Job<'_>,
    cancelled: impl Fn() -> bool + Send + Sync + 'static,
    pickup_fault: bool,
) -> Result<ProvedJob, JobError> {
    let deadline = job.deadline;
    let check: CancelCheck = Arc::new(move || past(deadline) || cancelled());
    // The deadline wins over a cancel: a draining server that outlives a
    // job's budget still answers `deadline_exceeded`.
    let status = || {
        if past(deadline) {
            Err(JobError::DeadlineExceeded)
        } else if check() {
            Err(JobError::Cancelled)
        } else {
            Ok(())
        }
    };
    status()?;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if pickup_fault {
            crate::fault::fire_panic("pool.pickup.panic");
        }
        let _cancel = cancel::install(Arc::clone(&check));
        prove(cache, job, &status)
    }));
    match outcome {
        Ok(result) => result,
        Err(payload) if payload.is::<Cancelled>() => {
            Err(status().err().unwrap_or(JobError::Cancelled))
        }
        Err(payload) => Err(JobError::Panicked(panic_message(payload.as_ref()))),
    }
}

fn prove(
    cache: &KeyCache,
    job: &Job<'_>,
    status: &dyn Fn() -> Result<(), JobError>,
) -> Result<ProvedJob, JobError> {
    let t0 = Instant::now();
    let statement = build_statement(job.seed, job.statement_id, job.spec);
    let statement_time = t0.elapsed();
    // A stop that lands mid-build skips the much dearer setup and prove.
    status()?;

    // On a warm template no synthesis runs: the compiled shape and the
    // keys come straight from the cache.
    let backend = job.spec.backend();
    let (keys, cache_hit) = match job.shipped.and_then(|d| cache.get(d, backend, job.seed)) {
        Some(keys) => (keys, true),
        None => cache.get_or_setup_template(
            backend,
            job.seed,
            &job.spec.to_string(),
            statement.as_ref(),
        ),
    };

    // The witness pass, validated against the cached shape, is the only
    // per-job synthesis.
    let t1 = Instant::now();
    let witness = generate_witness_for(statement.as_ref(), &keys.shape);
    let build_time = statement_time + t1.elapsed();

    let mut rng = prover_rng(job.seed, job.statement_id);
    let t2 = Instant::now();
    crate::fault::fire_delay("pool.prove.delay");
    let artifacts = backend
        .system()
        .prove_assignment(&keys.prover, &witness, &mut rng);
    let prove_time = t2.elapsed();

    // Cross the byte boundary before verifying, as a remote consumer
    // would; the envelope's publics must be the statement's outputs.
    let proof_bytes = ProofEnvelope::from_artifacts(&artifacts)
        .without_vk()
        .to_bytes();
    let t3 = Instant::now();
    let verified = envelope_verifies(&proof_bytes, &witness.instance, |envelope| {
        envelope.verify_with_key(&keys.verifier)
    });
    Ok(ProvedJob {
        keys,
        cache_hit,
        artifacts,
        proof_bytes,
        verified,
        build_time,
        prove_time,
        verify_time: t3.elapsed(),
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

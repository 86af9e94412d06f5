//! A uniform prove/verify interface over the two ZKP backends used in the
//! paper: Groth16 (`zkVC-G`) and the Spartan-style transparent SNARK
//! (`zkVC-S`).
//!
//! The proving logic lives in the [`crate::api`] module behind the
//! [`ProofSystem`] trait; [`Backend`] is a `Copy`, hashable tag that parses
//! and prints the backend tokens of job specs and dispatches to its system
//! with [`Backend::system`].

use core::fmt;
use std::str::FromStr;
use std::time::Duration;

use zkvc_ff::Fr;
use zkvc_groth16 as groth16;
use zkvc_spartan::{SpartanProof, SpartanProver, SpartanVerifier};

use crate::api::{ProofSystem, GROTH16, SPARTAN};

/// The proof system used underneath a zkVC circuit.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Groth16 over the pairing curve — constant proof size and
    /// verification, per-circuit trusted setup (`zkVC-G`).
    Groth16,
    /// The Spartan-style transparent SNARK — no trusted setup,
    /// logarithmic-size proofs (`zkVC-S`).
    Spartan,
}

impl Backend {
    /// Both backends, in the order used by the harnesses.
    pub const ALL: [Backend; 2] = [Backend::Groth16, Backend::Spartan];

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Groth16 => "groth16",
            Backend::Spartan => "spartan",
        }
    }

    /// The [`ProofSystem`] implementation this tag dispatches to.
    pub fn system(&self) -> &'static dyn ProofSystem {
        match self {
            Backend::Groth16 => &GROTH16,
            Backend::Spartan => &SPARTAN,
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when a [`Backend`] or
/// [`Strategy`](crate::matmul::Strategy) token fails to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownTokenError {
    /// What was being parsed ("backend", "strategy").
    pub what: &'static str,
    /// The offending input token.
    pub token: String,
}

impl fmt::Display for UnknownTokenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown {} {:?}", self.what, self.token)
    }
}

impl std::error::Error for UnknownTokenError {}

impl FromStr for Backend {
    type Err = UnknownTokenError;

    /// Parses a backend token as used in job specs: `groth16` (alias `g`)
    /// or `spartan` (alias `s`), case-insensitive.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "groth16" | "g" => Ok(Backend::Groth16),
            "spartan" | "s" => Ok(Backend::Spartan),
            _ => Err(UnknownTokenError {
                what: "backend",
                token: s.to_string(),
            }),
        }
    }
}

/// Timing and size measurements collected while producing a proof.
#[derive(Clone, Debug)]
pub struct ProveMetrics {
    /// Backend used.
    pub backend: Backend,
    /// Time spent in setup / preprocessing (CRS generation for Groth16,
    /// transparent preprocessing for Spartan).
    pub setup_time: Duration,
    /// Time spent producing the proof.
    pub prove_time: Duration,
    /// Serialised proof size in bytes.
    pub proof_size_bytes: usize,
    /// Number of R1CS constraints proved.
    pub num_constraints: usize,
    /// Number of R1CS variables.
    pub num_variables: usize,
}

/// The proof plus everything needed to verify it.
// Variant sizes legitimately differ: a Groth16 vk embeds its gamma_abc
// vector while Spartan's proof is boxed; both are heap-dominated anyway.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum ProofData {
    /// A Groth16 proof with its verification key.
    Groth16 {
        /// Verification key produced by the trusted setup.
        vk: groth16::VerifyingKey,
        /// The proof.
        proof: groth16::Proof,
    },
    /// A Spartan-style proof (the verifier re-derives its preprocessing from
    /// the circuit structure).
    Spartan {
        /// The proof.
        proof: Box<SpartanProof>,
    },
}

/// The output of [`ProofSystem::prove`]: the proof data, the public inputs
/// it binds, and the collected metrics.
#[derive(Clone, Debug)]
pub struct ProofArtifacts {
    /// The proof and verification material.
    pub data: ProofData,
    /// The public inputs the proof commits to.
    pub public_inputs: Vec<Fr>,
    /// Prover-side measurements.
    pub metrics: ProveMetrics,
}

/// Reusable prover-side key material for one circuit *shape*, produced by
/// [`ProofSystem::setup`]: the Groth16 CRS, or the Spartan preprocessed
/// instance. Computing this once and proving many statements against it is
/// what makes batch proving amortise (see `zkvc-runtime`'s `KeyCache`).
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum ProverKey {
    /// Groth16 proving key (circuit-specific CRS).
    Groth16(groth16::ProvingKey),
    /// Spartan preprocessed prover state (transparent, no trusted setup).
    Spartan(SpartanProver),
}

impl ProverKey {
    /// The backend this key belongs to.
    pub fn backend(&self) -> Backend {
        match self {
            ProverKey::Groth16(_) => Backend::Groth16,
            ProverKey::Spartan(_) => Backend::Spartan,
        }
    }
}

/// Reusable verifier-side key material for one circuit shape, produced by
/// [`ProofSystem::setup`].
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum VerifierKey {
    /// Groth16 verification key.
    Groth16(groth16::VerifyingKey),
    /// Spartan preprocessed verifier state.
    Spartan(SpartanVerifier),
}

impl VerifierKey {
    /// The backend this key belongs to.
    pub fn backend(&self) -> Backend {
        match self {
            VerifierKey::Groth16(_) => Backend::Groth16,
            VerifierKey::Spartan(_) => Backend::Spartan,
        }
    }
}

#[cfg(test)]
mod tests {
    //! The backend contract, exercised through [`Backend::system`].

    use super::*;
    use crate::api::RawCircuit;
    use crate::matmul::{MatMulBuilder, MatMulJob, Strategy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Instant;
    use zkvc_ff::PrimeField;
    use zkvc_r1cs::ConstraintSystem;

    fn job(strategy: Strategy) -> MatMulJob {
        let x = vec![vec![1i64, -2, 3], vec![4, 5, -6]];
        let w = vec![vec![7i64, 8], vec![-9, 10], vec![11, -12]];
        MatMulBuilder::new(2, 3, 2)
            .strategy(strategy)
            .build_integers(&x, &w)
    }

    /// `x * x = x²` with `x²` public.
    fn square_cs(x: u64) -> ConstraintSystem<Fr> {
        let mut cs = ConstraintSystem::<Fr>::new();
        let out = cs.alloc_instance(Fr::from_u64(x * x));
        let w = cs.alloc_witness(Fr::from_u64(x));
        cs.enforce(w.into(), w.into(), out.into());
        cs
    }

    #[test]
    fn groth16_backend_roundtrip_all_strategies() {
        let mut rng = StdRng::seed_from_u64(11);
        let system = Backend::Groth16.system();
        for strategy in Strategy::ALL {
            let j = job(strategy);
            let (pk, vk) = system.setup(&j, &mut rng);
            let artifacts = system.prove(&pk, &j, &mut rng);
            assert!(system.verify(&vk, &artifacts), "{strategy:?}");
            assert!(system.verify_with_circuit(&j, &artifacts), "{strategy:?}");
            assert_eq!(artifacts.metrics.proof_size_bytes, 195);
            assert_eq!(artifacts.metrics.num_constraints, j.stats.num_constraints);
        }
    }

    #[test]
    fn spartan_backend_roundtrip_all_strategies() {
        let mut rng = StdRng::seed_from_u64(12);
        let system = Backend::Spartan.system();
        for strategy in Strategy::ALL {
            let j = job(strategy);
            let (pk, vk) = system.setup(&j, &mut rng);
            let artifacts = system.prove(&pk, &j, &mut rng);
            assert!(system.verify(&vk, &artifacts), "{strategy:?}");
            assert!(system.verify_with_circuit(&j, &artifacts), "{strategy:?}");
            assert!(artifacts.metrics.proof_size_bytes > 0);
        }
    }

    #[test]
    fn cross_backend_verification_fails() {
        let mut rng = StdRng::seed_from_u64(13);
        let j = job(Strategy::CrpcPsq);
        let g = Backend::Groth16.system().prove_oneshot(&j, &mut rng);
        assert!(!Backend::Spartan.system().verify_with_circuit(&j, &g));
    }

    #[test]
    fn tampered_public_inputs_rejected() {
        // Use a circuit with a real public input to check binding.
        let mut rng = StdRng::seed_from_u64(14);
        let cs = square_cs(12);
        let circuit = RawCircuit::new(&cs);
        for backend in Backend::ALL {
            let system = backend.system();
            let mut artifacts = system.prove_oneshot(&circuit, &mut rng);
            assert!(
                system.verify_with_circuit(&circuit, &artifacts),
                "{backend:?}"
            );
            artifacts.public_inputs[0] = Fr::from_u64(143);
            assert!(
                !system.verify_with_circuit(&circuit, &artifacts),
                "{backend:?}"
            );
        }
    }

    #[test]
    fn split_setup_prove_reuses_keys_across_statements() {
        // One setup, many proofs: the core amortisation contract the
        // runtime's KeyCache builds on. The two statements share a circuit
        // shape but carry different assignments.
        let mut rng = StdRng::seed_from_u64(21);
        let x1 = vec![vec![1i64, 2], vec![3, 4]];
        let x2 = vec![vec![5i64, 6], vec![7, 8]];
        let w = vec![vec![9i64, 1], vec![2, 3]];
        for backend in Backend::ALL {
            let system = backend.system();
            let build = |x: &Vec<Vec<i64>>| {
                MatMulBuilder::new(2, 2, 2)
                    .strategy(Strategy::Vanilla)
                    .build_integers(x, &w)
            };
            let j1 = build(&x1);
            let j2 = build(&x2);
            let (pk, vk) = system.setup(&j1, &mut rng);
            assert_eq!(pk.backend(), backend);
            assert_eq!(vk.backend(), backend);
            let a1 = system.prove(&pk, &j1, &mut rng);
            let a2 = system.prove(&pk, &j2, &mut rng);
            assert!(system.verify(&vk, &a1), "{backend:?} stmt 1");
            assert!(system.verify(&vk, &a2), "{backend:?} stmt 2");
            assert_eq!(a1.metrics.setup_time, Duration::ZERO);
            // The keyed verifier agrees with the re-preprocessing one.
            assert!(system.verify_with_circuit(&j2, &a2));
        }
    }

    #[test]
    fn keyed_verification_binds_public_inputs() {
        // Matmul jobs carry no instance variables by default, so
        // public-input binding needs a circuit that actually has one.
        let mut rng = StdRng::seed_from_u64(24);
        let cs = square_cs(11);
        let circuit = RawCircuit::new(&cs);
        for backend in Backend::ALL {
            let system = backend.system();
            let (pk, vk) = system.setup(&circuit, &mut rng);
            let mut artifacts = system.prove(&pk, &circuit, &mut rng);
            assert!(system.verify(&vk, &artifacts), "{backend:?}");
            artifacts.public_inputs[0] = Fr::from_u64(120);
            assert!(
                !system.verify(&vk, &artifacts),
                "{backend:?} accepted tampered public input"
            );
        }
    }

    #[test]
    fn mismatched_keys_are_rejected() {
        let mut rng = StdRng::seed_from_u64(22);
        let j = job(Strategy::CrpcPsq);
        let (_pk_g, vk_g) = Backend::Groth16.system().setup(&j, &mut rng);
        let spartan_artifacts = Backend::Spartan.system().prove_oneshot(&j, &mut rng);
        // Verifying Spartan artifacts with a Groth16 key is a mismatch, not
        // a panic.
        assert!(!Backend::Groth16.system().verify(&vk_g, &spartan_artifacts));
        assert!(!Backend::Spartan.system().verify(&vk_g, &spartan_artifacts));
    }

    #[test]
    #[should_panic(expected = "backend/key mismatch")]
    fn proving_with_wrong_key_panics() {
        let mut rng = StdRng::seed_from_u64(23);
        let j = job(Strategy::CrpcPsq);
        let (pk, _vk) = Backend::Spartan.system().setup(&j, &mut rng);
        Backend::Groth16.system().prove(&pk, &j, &mut rng);
    }

    #[test]
    fn metrics_are_populated() {
        let mut rng = StdRng::seed_from_u64(15);
        let j = job(Strategy::CrpcPsq);
        let system = Backend::Spartan.system();
        let (pk, vk) = system.setup(&j, &mut rng);
        let artifacts = system.prove(&pk, &j, &mut rng);
        assert!(artifacts.metrics.prove_time > Duration::ZERO);
        assert_eq!(artifacts.metrics.backend, Backend::Spartan);
        assert_eq!(artifacts.metrics.num_variables, j.stats.num_variables);
        let t0 = Instant::now();
        assert!(system.verify(&vk, &artifacts));
        assert!(t0.elapsed() > Duration::ZERO);
    }

    #[test]
    fn backend_parses_and_displays() {
        for backend in Backend::ALL {
            assert_eq!(backend.to_string().parse::<Backend>(), Ok(backend));
        }
        assert_eq!("g".parse::<Backend>(), Ok(Backend::Groth16));
        assert_eq!("S".parse::<Backend>(), Ok(Backend::Spartan));
        let err = "nope".parse::<Backend>().unwrap_err();
        assert_eq!(err.what, "backend");
        assert!(err.to_string().contains("nope"));
    }
}

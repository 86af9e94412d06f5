//! The circuit-generic proving API: the [`Circuit`] and [`ProofSystem`]
//! traits that decouple *what* is proved from *how* it is proved.
//!
//! As of the compile-once / prove-many split, a [`Circuit`] is a *driver*:
//! its [`Circuit::synthesize`] emits the constraint structure (and,
//! when the sink carries values, the witness) into any
//! [`ConstraintSink`]. Running it against a [`ShapeBuilder`] yields a
//! [`CompiledShape`] — flat CSR matrices plus the canonical shape digest —
//! **without ever materialising a witness value**; running it against a
//! [`WitnessFiller`] yields only the flat
//! assignment for a shape compiled earlier. Setup consumes shapes, proving
//! consumes assignments, and a prove-many workload compiles each shape
//! exactly once.
//!
//! The two systems built in this workspace are [`Groth16System`] (`zkVC-G`)
//! and [`SpartanSystem`] (`zkVC-S`); the [`Backend`] enum remains as a thin
//! dispatcher over them for callers that want a `Copy` value instead of a
//! trait object.
//!
//! A circuit's **public outputs** are its instance assignment: the values a
//! proof *binds*. A circuit with no instance variables (e.g. a matmul with
//! X, W and Y all private) only commits to its shape — any honest proof for
//! the same shape verifies interchangeably. Exposing outputs as public
//! inputs (see `MatMulBuilder::public_outputs`) upgrades that to
//! statement-level binding: a proof replayed against different claimed
//! outputs fails verification.
//!
//! ```rust
//! use zkvc_core::api::{compile_shape, Circuit, ProofSystem};
//! use zkvc_core::matmul::{MatMulBuilder, Strategy};
//! use zkvc_core::Backend;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let x = vec![vec![1i64, 2], vec![3, 4]];
//! let w = vec![vec![5i64, 6], vec![7, 8]];
//! let job = MatMulBuilder::new(2, 2, 2)
//!     .strategy(Strategy::CrpcPsq)
//!     .public_outputs(true)
//!     .build_integers(&x, &w);
//!
//! // Pick a proof system at runtime; `job` is just a `Circuit`.
//! let system: &dyn ProofSystem = Backend::Spartan.system();
//! let (pk, vk) = system.setup(&job, &mut rng);
//! let artifacts = system.prove(&pk, &job, &mut rng);
//! assert!(system.verify(&vk, &artifacts));
//!
//! // The proof binds the public outputs: tampering with Y must fail.
//! let mut tampered = artifacts.clone();
//! tampered.public_inputs[0] += zkvc_ff::Fr::one();
//! # use zkvc_ff::Field;
//! assert!(!system.verify(&vk, &tampered));
//! ```

use std::sync::Arc;
use std::time::Instant;

use rand::RngCore;
use zkvc_ff::Fr;
use zkvc_groth16 as groth16;
use zkvc_r1cs::{
    replay, CompiledShape, ConstraintSink, ConstraintSystem, LinearCombination, ShapeBuilder,
    WitnessAssignment, WitnessFiller,
};
use zkvc_spartan::{SpartanProver, SpartanVerifier};

use crate::backend::{Backend, ProofArtifacts, ProofData, ProverKey, VerifierKey};

/// A statement plus (when asked for) its witness, as a synthesis driver.
///
/// `synthesize` must be **pass-oblivious**: it emits the same allocation
/// and constraint sequence whether or not the sink wants values, and only
/// computes witness data when it does (the `Option`-returning sink
/// evaluators make the skip natural). That contract is what lets
/// [`compile_shape`] run witness-free and [`generate_witness`] skip all
/// structural bookkeeping.
pub trait Circuit {
    /// Drives synthesis into the sink: structure always, values only when
    /// `sink.wants_values()`.
    fn synthesize(&self, sink: &mut dyn ConstraintSink<Fr>);

    /// Human-readable label for reports and diagnostics.
    fn name(&self) -> String {
        "r1cs".to_string()
    }

    /// The public outputs this statement binds — the circuit's instance
    /// assignment, in allocation order. Empty for circuits that keep every
    /// value private (shape-level binding only).
    ///
    /// The default runs a witness pass; implementors that cache their
    /// outputs should override it.
    fn public_outputs(&self) -> Vec<Fr> {
        let mut filler = WitnessFiller::new();
        self.synthesize(&mut filler);
        filler.finish().instance
    }

    /// A collision-resistant fingerprint of the circuit *structure* (not
    /// the assignment): the identity under which proving/verifying key
    /// material is reusable. The default compiles the shape — witness-free
    /// — and takes its digest; implementors holding a prebuilt
    /// [`ConstraintSystem`] may override with [`circuit_shape_digest`].
    fn shape_digest(&self) -> [u8; 32] {
        compile_shape(self).digest
    }

    /// The number of public outputs this circuit's *statement* exposes —
    /// what the static analyzer checks the compiled shape against. For a
    /// well-formed circuit this equals the instance count; a circuit that
    /// declares more than its shape allocates (a matmul compiled with its
    /// outputs left private) is flagged `unbound-public` by
    /// `CompiledShape::analyze`.
    ///
    /// The default counts [`Circuit::public_outputs`] (a witness pass);
    /// implementors that know their statement arity should override with
    /// the cheap answer.
    fn declared_publics(&self) -> usize {
        self.public_outputs().len()
    }
}

/// Runs the witness-free shape pass over a circuit, producing its
/// [`CompiledShape`]: CSR matrices plus the canonical digest. No witness
/// value is ever materialised.
pub fn compile_shape<C: Circuit + ?Sized>(circuit: &C) -> CompiledShape<Fr> {
    let mut builder = ShapeBuilder::new();
    circuit.synthesize(&mut builder);
    builder.finish()
}

/// Runs the witness pass over a circuit, producing only the flat
/// instance/witness assignment. No constraints are stored.
pub fn generate_witness<C: Circuit + ?Sized>(circuit: &C) -> WitnessAssignment<Fr> {
    let mut filler = WitnessFiller::new();
    circuit.synthesize(&mut filler);
    filler.finish()
}

/// [`generate_witness`] validated against an already-compiled shape:
/// panics if the circuit's structure diverged from the shape (a
/// pass-obliviousness bug in the circuit).
pub fn generate_witness_for<C: Circuit + ?Sized>(
    circuit: &C,
    shape: &CompiledShape<Fr>,
) -> WitnessAssignment<Fr> {
    let mut filler = WitnessFiller::new();
    circuit.synthesize(&mut filler);
    filler.finish_for(shape)
}

/// A raw constraint system viewed as a [`Circuit`], for callers that
/// synthesise R1CS directly instead of going through a builder. Synthesis
/// replays the stored system into the sink, so the legacy eager pipeline
/// and the two-pass pipeline produce identical shapes and digests.
#[derive(Clone, Debug)]
pub struct RawCircuit<'a> {
    cs: &'a ConstraintSystem<Fr>,
    label: &'a str,
}

impl<'a> RawCircuit<'a> {
    /// Wraps a constraint system with the default label.
    pub fn new(cs: &'a ConstraintSystem<Fr>) -> Self {
        RawCircuit { cs, label: "r1cs" }
    }

    /// Wraps a constraint system with a custom label.
    pub fn named(cs: &'a ConstraintSystem<Fr>, label: &'a str) -> Self {
        RawCircuit { cs, label }
    }

    /// The wrapped constraint system.
    pub fn constraint_system(&self) -> &ConstraintSystem<Fr> {
        self.cs
    }
}

impl Circuit for RawCircuit<'_> {
    fn synthesize(&self, sink: &mut dyn ConstraintSink<Fr>) {
        replay(self.cs, sink);
    }

    fn name(&self) -> String {
        self.label.to_string()
    }

    fn public_outputs(&self) -> Vec<Fr> {
        self.cs.instance_assignment().to_vec()
    }

    fn shape_digest(&self) -> [u8; 32] {
        circuit_shape_digest(self.cs)
    }
}

/// A zero-knowledge proof system that can prove and verify any [`Circuit`]:
/// per-shape `setup`, per-statement `prove`, and `verify` against prepared
/// key material.
///
/// The split API is shape/assignment-level: [`ProofSystem::setup_shape`]
/// consumes a witness-free [`CompiledShape`] (and the returned keys retain
/// it), [`ProofSystem::prove_assignment`] consumes only a statement's flat
/// [`WitnessAssignment`]. The circuit-level methods are conveniences that
/// compile/fill on the caller's behalf.
///
/// The trait is object-safe — the runtime's pool, cache and CLI all work
/// with `&dyn ProofSystem` — which is why randomness arrives as
/// `&mut dyn RngCore` rather than a generic parameter.
pub trait ProofSystem: Send + Sync {
    /// The [`Backend`] tag this system dispatches as.
    fn backend(&self) -> Backend;

    /// Short system name ("groth16", "spartan").
    fn name(&self) -> &'static str {
        self.backend().name()
    }

    /// Runs the per-circuit-shape setup — CRS generation for Groth16,
    /// transparent preprocessing for Spartan — from a compiled shape.
    /// Witness-free by construction: a shape pass never materialises
    /// values, and this method only sees its output.
    fn setup_shape(
        &self,
        shape: &Arc<CompiledShape<Fr>>,
        rng: &mut dyn RngCore,
    ) -> (ProverKey, VerifierKey);

    /// Proves a statement given only its flat assignment, against a key
    /// prepared by [`ProofSystem::setup_shape`] for the statement's shape.
    /// This is the prove-many hot path: no synthesis, no matrix
    /// extraction. The returned metrics report zero setup time (the key is
    /// assumed amortised).
    ///
    /// # Panics
    /// Panics if the key belongs to a different proof system or the
    /// assignment does not match the key's shape.
    fn prove_assignment(
        &self,
        key: &ProverKey,
        witness: &WitnessAssignment<Fr>,
        rng: &mut dyn RngCore,
    ) -> ProofArtifacts;

    /// Verifies artifacts against a key prepared by
    /// [`ProofSystem::setup_shape`]. Returns `false` (rather than
    /// panicking) on key/proof mismatch.
    fn verify(&self, key: &VerifierKey, artifacts: &ProofArtifacts) -> bool;

    /// Verifies against a compiled shape without prepared keys: Spartan
    /// re-derives its preprocessing from the shape, while Groth16 trusts
    /// the verification key embedded in the artifacts. When the expected
    /// key material is known, prefer [`ProofSystem::verify`], which binds
    /// the proof to that key.
    fn verify_with_shape(&self, shape: &CompiledShape<Fr>, artifacts: &ProofArtifacts) -> bool;

    /// Circuit-level setup: compiles the shape (witness-free) and runs
    /// [`ProofSystem::setup_shape`].
    fn setup(&self, circuit: &dyn Circuit, rng: &mut dyn RngCore) -> (ProverKey, VerifierKey) {
        self.setup_shape(&Arc::new(compile_shape(circuit)), rng)
    }

    /// Circuit-level prove: runs the witness pass and
    /// [`ProofSystem::prove_assignment`].
    ///
    /// # Panics
    /// Panics if the key belongs to a different proof system.
    fn prove(
        &self,
        key: &ProverKey,
        circuit: &dyn Circuit,
        rng: &mut dyn RngCore,
    ) -> ProofArtifacts {
        self.prove_assignment(key, &generate_witness(circuit), rng)
    }

    /// Circuit-level keyless verification: compiles the shape and runs
    /// [`ProofSystem::verify_with_shape`].
    fn verify_with_circuit(&self, circuit: &dyn Circuit, artifacts: &ProofArtifacts) -> bool {
        self.verify_with_shape(&compile_shape(circuit), artifacts)
    }

    /// One-shot setup + prove, with the setup time recorded in the
    /// metrics. The shape is compiled once and shared by both steps.
    fn prove_oneshot(&self, circuit: &dyn Circuit, rng: &mut dyn RngCore) -> ProofArtifacts {
        let t0 = Instant::now();
        let shape = Arc::new(compile_shape(circuit));
        let (pk, _vk) = self.setup_shape(&shape, rng);
        let setup_time = t0.elapsed();
        let witness = generate_witness_for(circuit, &shape);
        let mut artifacts = self.prove_assignment(&pk, &witness, rng);
        artifacts.metrics.setup_time = setup_time;
        artifacts
    }
}

/// The Groth16 proof system (`zkVC-G`): constant proof size and pairing
/// verification, per-circuit trusted setup.
#[derive(Copy, Clone, Debug, Default)]
pub struct Groth16System;

/// The Spartan-style transparent proof system (`zkVC-S`): no trusted setup,
/// logarithmic-size proofs.
#[derive(Copy, Clone, Debug, Default)]
pub struct SpartanSystem;

/// The static [`Groth16System`] instance [`Backend::system`] dispatches to.
pub static GROTH16: Groth16System = Groth16System;

/// The static [`SpartanSystem`] instance [`Backend::system`] dispatches to.
pub static SPARTAN: SpartanSystem = SpartanSystem;

fn artifacts_from(
    data: ProofData,
    proof_size_bytes: usize,
    backend: Backend,
    public_inputs: Vec<Fr>,
    num_constraints: usize,
    num_variables: usize,
    prove_time: std::time::Duration,
) -> ProofArtifacts {
    ProofArtifacts {
        data,
        public_inputs,
        metrics: crate::backend::ProveMetrics {
            backend,
            setup_time: std::time::Duration::ZERO,
            prove_time,
            proof_size_bytes,
            num_constraints,
            num_variables,
        },
    }
}

impl ProofSystem for Groth16System {
    fn backend(&self) -> Backend {
        Backend::Groth16
    }

    fn setup_shape(
        &self,
        shape: &Arc<CompiledShape<Fr>>,
        rng: &mut dyn RngCore,
    ) -> (ProverKey, VerifierKey) {
        let (pk, vk) = groth16::setup_shape(Arc::clone(shape), rng);
        (ProverKey::Groth16(pk), VerifierKey::Groth16(vk))
    }

    fn prove_assignment(
        &self,
        key: &ProverKey,
        witness: &WitnessAssignment<Fr>,
        rng: &mut dyn RngCore,
    ) -> ProofArtifacts {
        let ProverKey::Groth16(pk) = key else {
            panic!(
                "backend/key mismatch: Groth16 cannot prove with a {:?} key",
                key.backend()
            );
        };
        let z = witness.full();
        let t0 = Instant::now();
        let proof = groth16::prove_assignment(pk, &z, rng);
        let prove_time = t0.elapsed();
        let size = proof.size_in_bytes();
        artifacts_from(
            ProofData::Groth16 {
                vk: pk.vk.clone(),
                proof,
            },
            size,
            Backend::Groth16,
            witness.instance.clone(),
            pk.shape.num_constraints(),
            pk.shape.num_variables(),
            prove_time,
        )
    }

    fn verify(&self, key: &VerifierKey, artifacts: &ProofArtifacts) -> bool {
        match (key, &artifacts.data) {
            (VerifierKey::Groth16(vk), ProofData::Groth16 { proof, .. }) => {
                groth16::verify(vk, &artifacts.public_inputs, proof)
            }
            _ => false,
        }
    }

    fn verify_with_shape(&self, _shape: &CompiledShape<Fr>, artifacts: &ProofArtifacts) -> bool {
        match &artifacts.data {
            ProofData::Groth16 { vk, proof } => {
                groth16::verify(vk, &artifacts.public_inputs, proof)
            }
            _ => false,
        }
    }
}

impl ProofSystem for SpartanSystem {
    fn backend(&self) -> Backend {
        Backend::Spartan
    }

    fn setup_shape(
        &self,
        shape: &Arc<CompiledShape<Fr>>,
        _rng: &mut dyn RngCore,
    ) -> (ProverKey, VerifierKey) {
        // Preprocess once; the verifier reuses the prover's instance
        // instead of re-deriving it from the shape.
        let prover = SpartanProver::preprocess_shape(shape);
        let verifier = prover.to_verifier();
        (ProverKey::Spartan(prover), VerifierKey::Spartan(verifier))
    }

    fn prove_assignment(
        &self,
        key: &ProverKey,
        witness: &WitnessAssignment<Fr>,
        rng: &mut dyn RngCore,
    ) -> ProofArtifacts {
        let ProverKey::Spartan(prover) = key else {
            panic!(
                "backend/key mismatch: Spartan cannot prove with a {:?} key",
                key.backend()
            );
        };
        let t0 = Instant::now();
        let proof = prover.prove_assignment(&witness.instance, &witness.witness, rng);
        let prove_time = t0.elapsed();
        let size = proof.size_in_bytes();
        artifacts_from(
            ProofData::Spartan {
                proof: Box::new(proof),
            },
            size,
            Backend::Spartan,
            witness.instance.clone(),
            prover.num_constraints(),
            prover.num_variables(),
            prove_time,
        )
    }

    fn verify(&self, key: &VerifierKey, artifacts: &ProofArtifacts) -> bool {
        match (key, &artifacts.data) {
            (VerifierKey::Spartan(verifier), ProofData::Spartan { proof }) => {
                verifier.verify(&artifacts.public_inputs, proof)
            }
            _ => false,
        }
    }

    fn verify_with_shape(&self, shape: &CompiledShape<Fr>, artifacts: &ProofArtifacts) -> bool {
        match &artifacts.data {
            ProofData::Spartan { proof } => {
                SpartanVerifier::preprocess_shape(shape).verify(&artifacts.public_inputs, proof)
            }
            _ => false,
        }
    }
}

/// Pins each value to its public counterpart with one equality constraint
/// per cell: `(value_i - public_i) * 1 = 0`.
///
/// This is the one audited form of the statement-binding construction,
/// shared by the CRPC public-output matmuls and `zkvc-nn`'s logit binding.
/// Per-cell constraints are essential: any single *aggregate* relation
/// over the publics (e.g. the CRPC Z-fold, whose `Z` is public) can be
/// satisfied by a forged assignment with the same aggregate, whereas one
/// constraint per cell gives every public output its own independent
/// column in the verification key.
///
/// # Panics
/// Panics if the two slices differ in length.
pub fn bind_public_outputs<S: ConstraintSink<Fr> + ?Sized>(
    cs: &mut S,
    values: &[LinearCombination<Fr>],
    publics: &[LinearCombination<Fr>],
) {
    assert_eq!(
        values.len(),
        publics.len(),
        "binding requires one public cell per value"
    );
    for (value, public) in values.iter().zip(publics.iter()) {
        cs.enforce_named(
            value.clone() - public,
            LinearCombination::constant(zkvc_ff::Field::one()),
            LinearCombination::zero(),
            "public output binding",
        );
    }
}

/// Computes the shape digest of a constraint system: a collision-resistant
/// fingerprint of the R1CS *structure* (constraint matrices, coefficient
/// values and the instance/witness split — not the assignment).
///
/// Two constraint systems get the same digest iff Groth16 CRS material and
/// Spartan preprocessed state are interchangeable between them. The
/// encoding is injective: every section is length-prefixed and each
/// linear-combination term serialises its resolved column index alongside
/// the canonical coefficient bytes. The same digest is produced —
/// witness-free — by the shape pass (see
/// [`ShapeBuilder::finish`](zkvc_r1cs::ShapeBuilder::finish)); the
/// canonical implementation lives in `zkvc-r1cs` and this is a re-export
/// kept at its historical path.
pub fn circuit_shape_digest(cs: &ConstraintSystem<Fr>) -> [u8; 32] {
    zkvc_r1cs::shape_digest(cs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::{MatMulBuilder, Strategy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkvc_ff::{Field, PrimeField};

    fn square_cs(x: u64) -> ConstraintSystem<Fr> {
        let mut cs = ConstraintSystem::<Fr>::new();
        let out = cs.alloc_instance(Fr::from_u64(x * x));
        let w = cs.alloc_witness(Fr::from_u64(x));
        cs.enforce(w.into(), w.into(), out.into());
        cs
    }

    #[test]
    fn trait_objects_prove_and_verify_both_systems() {
        let mut rng = StdRng::seed_from_u64(31);
        let cs = square_cs(12);
        let circuit = RawCircuit::named(&cs, "square");
        assert_eq!(circuit.name(), "square");
        assert_eq!(circuit.public_outputs(), vec![Fr::from_u64(144)]);
        for backend in Backend::ALL {
            let system: &dyn ProofSystem = backend.system();
            assert_eq!(system.backend(), backend);
            assert_eq!(system.name(), backend.name());
            let (pk, vk) = system.setup(&circuit, &mut rng);
            let artifacts = system.prove(&pk, &circuit, &mut rng);
            assert!(system.verify(&vk, &artifacts), "{backend:?}");
            assert!(
                system.verify_with_circuit(&circuit, &artifacts),
                "{backend:?}"
            );
            // The proof binds its public outputs.
            let mut tampered = artifacts.clone();
            tampered.public_inputs[0] += Fr::one();
            assert!(!system.verify(&vk, &tampered), "{backend:?}");
        }
    }

    #[test]
    fn split_shape_and_witness_pipeline_roundtrips() {
        // The fully split flow: compile once, fill witnesses per
        // statement, prove against the shape-bound key.
        let mut rng = StdRng::seed_from_u64(35);
        let cs12 = square_cs(12);
        let cs13 = square_cs(13);
        let shape = Arc::new(compile_shape(&RawCircuit::new(&cs12)));
        assert_eq!(shape.digest, circuit_shape_digest(&cs12));
        for backend in Backend::ALL {
            let system = backend.system();
            let (pk, vk) = system.setup_shape(&shape, &mut rng);
            for cs in [&cs12, &cs13] {
                let witness = generate_witness_for(&RawCircuit::new(cs), &shape);
                assert_eq!(witness.full(), cs.full_assignment());
                let artifacts = system.prove_assignment(&pk, &witness, &mut rng);
                assert!(system.verify(&vk, &artifacts), "{backend:?}");
                assert!(system.verify_with_shape(&shape, &artifacts), "{backend:?}");
                assert_eq!(artifacts.public_inputs, witness.instance);
            }
        }
    }

    #[test]
    fn setup_is_witness_free() {
        // A circuit whose witness closures panic when invoked: setup and
        // shape digests must run without touching them.
        struct PanickyWitness;
        impl Circuit for PanickyWitness {
            fn synthesize(&self, sink: &mut dyn ConstraintSink<Fr>) {
                use zkvc_r1cs::SinkExt;
                let out = sink.alloc_instance_lazy(|| panic!("instance value materialised"));
                let w = sink.alloc_witness_lazy(|| panic!("witness value materialised"));
                sink.enforce(w.into(), w.into(), out.into());
            }
        }
        let circuit = PanickyWitness;
        let shape = compile_shape(&circuit);
        assert_eq!(shape.num_constraints(), 1);
        assert_eq!(shape.num_instance(), 1);
        assert_eq!(shape.num_witness(), 1);
        assert_eq!(circuit.shape_digest(), shape.digest);
        let mut rng = StdRng::seed_from_u64(36);
        for backend in Backend::ALL {
            // Both the shape-level and the circuit-level setup paths never
            // materialise a value.
            let _ = backend
                .system()
                .setup_shape(&Arc::new(shape.clone()), &mut rng);
            let _ = backend.system().setup(&circuit, &mut rng);
        }
        // The witness pass, by contrast, must blow up.
        assert!(std::panic::catch_unwind(|| generate_witness(&circuit)).is_err());
    }

    #[test]
    fn oneshot_records_setup_time_and_cross_system_verify_fails() {
        let mut rng = StdRng::seed_from_u64(32);
        let cs = square_cs(5);
        let circuit = RawCircuit::new(&cs);
        let g = Backend::Groth16.system().prove_oneshot(&circuit, &mut rng);
        let s = Backend::Spartan.system().prove_oneshot(&circuit, &mut rng);
        let (_pk, vk_s) = Backend::Spartan.system().setup(&circuit, &mut rng);
        // A Groth16 proof against a Spartan key is a mismatch, not a panic.
        assert!(!Backend::Spartan.system().verify(&vk_s, &g));
        assert!(Backend::Spartan.system().verify(&vk_s, &s));
        assert!(!Backend::Groth16.system().verify_with_circuit(&circuit, &s));
    }

    #[test]
    #[should_panic(expected = "backend/key mismatch")]
    fn proving_with_foreign_key_panics() {
        let mut rng = StdRng::seed_from_u64(33);
        let cs = square_cs(4);
        let circuit = RawCircuit::new(&cs);
        let (pk, _vk) = Backend::Spartan.system().setup(&circuit, &mut rng);
        Backend::Groth16.system().prove(&pk, &circuit, &mut rng);
    }

    #[test]
    fn matmul_job_is_a_circuit() {
        let mut rng = StdRng::seed_from_u64(34);
        let job = MatMulBuilder::new(2, 3, 2)
            .strategy(Strategy::CrpcPsq)
            .build_random(&mut rng);
        let circuit: &dyn Circuit = &job;
        assert_eq!(circuit.shape_digest(), circuit_shape_digest(&job.cs));
        assert!(circuit.name().contains("2x3x2"));
        // Private-output jobs bind nothing.
        assert!(circuit.public_outputs().is_empty());
    }

    #[test]
    fn digest_ignores_assignment_values() {
        assert_eq!(
            circuit_shape_digest(&square_cs(3)),
            circuit_shape_digest(&square_cs(7))
        );
    }

    #[test]
    fn digest_distinguishes_structure() {
        let base = circuit_shape_digest(&square_cs(3));

        // Extra constraint.
        let mut cs = square_cs(3);
        cs.enforce_zero(LinearCombination::zero());
        assert_ne!(circuit_shape_digest(&cs), base);

        // Extra (unconstrained) variable.
        let mut cs = square_cs(3);
        cs.alloc_witness(Fr::zero());
        assert_ne!(circuit_shape_digest(&cs), base);

        // Different coefficient.
        let mut cs = ConstraintSystem::<Fr>::new();
        let out = cs.alloc_instance(Fr::from_u64(18));
        let w = cs.alloc_witness(Fr::from_u64(3));
        cs.enforce(
            LinearCombination::from(w) * Fr::from_u64(2),
            w.into(),
            out.into(),
        );
        assert_ne!(circuit_shape_digest(&cs), base);

        // Instance/witness split matters even with identical matrices.
        let mut cs = ConstraintSystem::<Fr>::new();
        let out = cs.alloc_witness(Fr::from_u64(9));
        let w = cs.alloc_witness(Fr::from_u64(3));
        cs.enforce(w.into(), w.into(), out.into());
        assert_ne!(circuit_shape_digest(&cs), base);
    }
}

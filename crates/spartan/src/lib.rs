//! # zkvc-spartan
//!
//! A Spartan-style transparent zk-SNARK for R1CS (Setty, CRYPTO 2020),
//! used as the `zkVC-S` backend of the paper. No trusted setup: the proof
//! consists of
//!
//! 1. a Pedersen vector commitment to the witness,
//! 2. a degree-3 sum-check reducing `Az ∘ Bz - Cz = 0` to a random point,
//! 3. a degree-2 sum-check reducing the three matrix-vector claims to one
//!    evaluation of the assignment MLE, and
//! 4. a Bulletproofs-style inner-product argument opening that evaluation
//!    against the witness commitment.
//!
//! Deviation from the original Spartan (documented in DESIGN.md, S2): the
//! verifier evaluates the multilinear extensions of the public R1CS matrices
//! directly (`O(nnz)` field work) instead of via SPARK sparse-polynomial
//! commitments, so verification is linear in the matrix density rather than
//! poly-logarithmic. Prover cost — the quantity the paper's experiments
//! measure — has the same profile as Spartan.
//!
//! ## Example
//!
//! ```rust
//! use zkvc_spartan::SpartanProver;
//! use zkvc_r1cs::{CompiledShape, ConstraintSystem};
//! use zkvc_ff::{Fr, PrimeField};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut cs = ConstraintSystem::<Fr>::new();
//! let out = cs.alloc_instance(Fr::from_u64(36));
//! let x = cs.alloc_witness(Fr::from_u64(6));
//! cs.enforce(x.into(), x.into(), out.into());
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let prover = SpartanProver::preprocess_shape(&CompiledShape::from_cs(&cs));
//! let proof = prover.prove_assignment(cs.instance_assignment(), cs.witness_assignment(), &mut rng);
//! let verifier = prover.to_verifier();
//! assert!(verifier.verify(cs.instance_assignment(), &proof));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

mod ipa;
mod pedersen;
mod serial;
mod snark;
pub mod sumcheck;

pub use ipa::{InnerProductProof, IpaGenerators};
pub use pedersen::PedersenGenerators;
pub use snark::{SpartanProof, SpartanProver, SpartanVerifier};

//! # zkvc-groth16
//!
//! A from-scratch implementation of the Groth16 zk-SNARK
//! (J. Groth, "On the Size of Pairing-Based Non-Interactive Arguments",
//! EUROCRYPT 2016) over the zkVC pairing curve. This is the `zkVC-G`
//! backend of the paper: constant-size proofs (3 group elements), constant
//! verification time (3 pairings + one small MSM), and a prover dominated by
//! three multi-scalar multiplications plus the QAP quotient FFTs.
//!
//! The trusted setup is circuit-specific; `zkvc-core` re-runs it per matrix
//! shape, exactly as libsnark does for the paper's experiments.
//!
//! ## Example
//!
//! ```rust
//! use std::sync::Arc;
//! use zkvc_groth16::{prove_assignment, setup_shape, verify};
//! use zkvc_r1cs::{CompiledShape, ConstraintSystem};
//! use zkvc_ff::{Fr, PrimeField};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // x * x = 25 with public 25.
//! let mut cs = ConstraintSystem::<Fr>::new();
//! let out = cs.alloc_instance(Fr::from_u64(25));
//! let x = cs.alloc_witness(Fr::from_u64(5));
//! cs.enforce(x.into(), x.into(), out.into());
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let (pk, vk) = setup_shape(Arc::new(CompiledShape::from_cs(&cs)), &mut rng);
//! let proof = prove_assignment(&pk, &cs.full_assignment(), &mut rng);
//! assert!(verify(&vk, cs.instance_assignment(), &proof));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

mod keys;
mod prover;
mod verifier;

pub use keys::{setup_shape, Proof, ProvingKey, VerifyingKey};
pub use prover::prove_assignment;
pub use verifier::{prepare_inputs, verify};

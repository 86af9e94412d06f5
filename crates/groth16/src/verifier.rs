//! The Groth16 verifier: one small MSM over the public inputs plus three
//! pairings (the fourth, `e(alpha, beta)`, is cached in the verification
//! key).

use zkvc_curve::{msm, pairing, G1Projective};
use zkvc_ff::Fr;

use crate::keys::{Proof, VerifyingKey};

/// Aggregates the public inputs into the single group element
/// `sum_i x_i * gamma_abc_i` (with `x_0 = 1`).
///
/// # Panics
/// Panics if the number of public inputs does not match the verification
/// key.
pub fn prepare_inputs(vk: &VerifyingKey, public_inputs: &[Fr]) -> G1Projective {
    assert_eq!(
        public_inputs.len() + 1,
        vk.gamma_abc_g1.len(),
        "public input count does not match the verification key"
    );
    let mut scalars = Vec::with_capacity(public_inputs.len() + 1);
    scalars.push(zkvc_ff::Field::one());
    scalars.extend_from_slice(public_inputs);
    msm(&vk.gamma_abc_g1, &scalars)
}

/// Verifies a proof against the public inputs.
///
/// Checks the Groth16 equation
/// `e(A, B) = e(alpha, beta) * e(sum_i x_i gamma_abc_i, gamma) * e(C, delta)`.
pub fn verify(vk: &VerifyingKey, public_inputs: &[Fr], proof: &Proof) -> bool {
    if public_inputs.len() + 1 != vk.gamma_abc_g1.len() {
        return false;
    }
    if !proof.a.is_on_curve() || !proof.b.is_on_curve() || !proof.c.is_on_curve() {
        return false;
    }
    let acc = prepare_inputs(vk, public_inputs).to_affine();

    let lhs = pairing(&proof.a, &proof.b);
    let rhs = vk.alpha_beta_gt + pairing(&acc, &vk.gamma_g2) + pairing(&proof.c, &vk.delta_g2);
    lhs == rhs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::setup_shape;
    use crate::prover::prove_assignment;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use zkvc_ff::{Field, PrimeField};
    use zkvc_r1cs::{CompiledShape, ConstraintSystem};

    #[test]
    fn wrong_input_count_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut cs = ConstraintSystem::<Fr>::new();
        let out = cs.alloc_instance(Fr::from_u64(4));
        let x = cs.alloc_witness(Fr::from_u64(2));
        cs.enforce(x.into(), x.into(), out.into());
        let (pk, vk) = setup_shape(Arc::new(CompiledShape::from_cs(&cs)), &mut rng);
        let proof = prove_assignment(&pk, &cs.full_assignment(), &mut rng);
        assert!(verify(&vk, &[Fr::from_u64(4)], &proof));
        // too many / too few public inputs
        assert!(!verify(&vk, &[Fr::from_u64(4), Fr::from_u64(1)], &proof));
        assert!(!verify(&vk, &[], &proof));
    }

    #[test]
    fn multi_instance_circuit() {
        // public (p, q), witness (a, b) with a*b = p and a+b = q
        let mut rng = StdRng::seed_from_u64(6);
        let mut cs = ConstraintSystem::<Fr>::new();
        let p = cs.alloc_instance(Fr::from_u64(21));
        let q = cs.alloc_instance(Fr::from_u64(10));
        let a = cs.alloc_witness(Fr::from_u64(3));
        let b = cs.alloc_witness(Fr::from_u64(7));
        cs.enforce(a.into(), b.into(), p.into());
        cs.enforce(
            zkvc_r1cs::LinearCombination::from(a) + zkvc_r1cs::LinearCombination::from(b),
            zkvc_r1cs::LinearCombination::constant(Fr::one()),
            q.into(),
        );
        assert!(cs.is_satisfied());
        let (pk, vk) = setup_shape(Arc::new(CompiledShape::from_cs(&cs)), &mut rng);
        let proof = prove_assignment(&pk, &cs.full_assignment(), &mut rng);
        assert!(verify(&vk, &[Fr::from_u64(21), Fr::from_u64(10)], &proof));
        // swapped public inputs must fail
        assert!(!verify(&vk, &[Fr::from_u64(10), Fr::from_u64(21)], &proof));
    }
}

//! Key material: the circuit-specific CRS (proving key + verifying key) and
//! the proof object.

use std::sync::Arc;

use rand::Rng;
use zkvc_curve::{pairing, G1Affine, G1Projective, Gt};
use zkvc_ff::{Field, Fr};
use zkvc_qap::evaluate_qap_at_point;
use zkvc_r1cs::CompiledShape;

/// A Groth16 proof: three group elements, independent of circuit size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Proof {
    /// `[A]_1`.
    pub a: G1Affine,
    /// `[B]_2` (same group as G1 for the Type-1 pairing).
    pub b: G1Affine,
    /// `[C]_1`.
    pub c: G1Affine,
}

impl Proof {
    /// Serialised proof size in bytes (uncompressed points).
    pub fn size_in_bytes(&self) -> usize {
        3 * 65
    }

    /// Serialises the proof.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size_in_bytes());
        out.extend_from_slice(&self.a.to_bytes());
        out.extend_from_slice(&self.b.to_bytes());
        out.extend_from_slice(&self.c.to_bytes());
        out
    }

    /// Deserialises a proof, validating that all points are on the curve.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 3 * 65 {
            return None;
        }
        let mut buf = [0u8; 65];
        buf.copy_from_slice(&bytes[..65]);
        let a = G1Affine::from_bytes(&buf)?;
        buf.copy_from_slice(&bytes[65..130]);
        let b = G1Affine::from_bytes(&buf)?;
        buf.copy_from_slice(&bytes[130..195]);
        let c = G1Affine::from_bytes(&buf)?;
        Some(Proof { a, b, c })
    }
}

/// The verification key: enough to check proofs for one circuit.
#[derive(Clone, Debug)]
pub struct VerifyingKey {
    /// `[alpha]_1`.
    pub alpha_g1: G1Affine,
    /// `[beta]_2`.
    pub beta_g2: G1Affine,
    /// `[gamma]_2`.
    pub gamma_g2: G1Affine,
    /// `[delta]_2`.
    pub delta_g2: G1Affine,
    /// `[(beta A_i(tau) + alpha B_i(tau) + C_i(tau)) / gamma]_1` for the
    /// constant-one wire and every instance variable.
    pub gamma_abc_g1: Vec<G1Affine>,
    /// Cached `e(alpha, beta)` used by every verification.
    pub alpha_beta_gt: Gt,
}

impl VerifyingKey {
    /// Serialised size in bytes (used for the paper's proof-size/verifier
    /// cost accounting).
    pub fn size_in_bytes(&self) -> usize {
        (4 + self.gamma_abc_g1.len()) * 65 + 64
    }

    /// Canonical byte serialisation: the four fixed points, then a `u32`
    /// count followed by the `gamma_abc` points. The cached pairing
    /// `e(alpha, beta)` is *not* stored; [`Self::from_bytes`] recomputes it,
    /// so a deserialised key cannot carry an inconsistent cache.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity((4 + self.gamma_abc_g1.len()) * 65 + 4);
        out.extend_from_slice(&self.alpha_g1.to_bytes());
        out.extend_from_slice(&self.beta_g2.to_bytes());
        out.extend_from_slice(&self.gamma_g2.to_bytes());
        out.extend_from_slice(&self.delta_g2.to_bytes());
        out.extend_from_slice(&(self.gamma_abc_g1.len() as u32).to_le_bytes());
        for p in &self.gamma_abc_g1 {
            out.extend_from_slice(&p.to_bytes());
        }
        out
    }

    /// Deserialises a key written by [`Self::to_bytes`], validating that
    /// every point is on the curve and recomputing the cached pairing.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let point = |off: usize| -> Option<G1Affine> {
            let mut buf = [0u8; 65];
            buf.copy_from_slice(bytes.get(off..off + 65)?);
            G1Affine::from_bytes(&buf)
        };
        let alpha_g1 = point(0)?;
        let beta_g2 = point(65)?;
        let gamma_g2 = point(130)?;
        let delta_g2 = point(195)?;
        let count_bytes: [u8; 4] = bytes.get(260..264)?.try_into().ok()?;
        let count = u32::from_le_bytes(count_bytes) as usize;
        if bytes.len() != 264 + count * 65 {
            return None;
        }
        let mut gamma_abc_g1 = Vec::with_capacity(count);
        for i in 0..count {
            gamma_abc_g1.push(point(264 + i * 65)?);
        }
        Some(VerifyingKey {
            alpha_g1,
            beta_g2,
            gamma_g2,
            delta_g2,
            gamma_abc_g1,
            alpha_beta_gt: pairing(&alpha_g1, &beta_g2),
        })
    }
}

/// The proving key (CRS): everything the prover needs.
#[derive(Clone, Debug)]
pub struct ProvingKey {
    /// The verification key (the prover embeds it in proofs' metadata).
    pub vk: VerifyingKey,
    /// The compiled circuit shape (CSR matrices) the CRS was generated
    /// for. Proving consumes it directly, so a statement only supplies its
    /// flat witness assignment — no per-proof constraint synthesis or
    /// matrix extraction.
    pub shape: Arc<CompiledShape<Fr>>,
    /// The QAP quotient domain (with its precomputed twiddle tables), built
    /// once at setup so repeated proofs against this key skip the per-proof
    /// domain construction.
    pub h_domain: zkvc_ff::EvaluationDomain<Fr>,
    /// `[beta]_1`.
    pub beta_g1: G1Affine,
    /// `[delta]_1`.
    pub delta_g1: G1Affine,
    /// `[A_i(tau)]_1` for every variable.
    pub a_query: Vec<G1Affine>,
    /// `[B_i(tau)]_1` for every variable.
    pub b_g1_query: Vec<G1Affine>,
    /// `[B_i(tau)]_2` for every variable.
    pub b_g2_query: Vec<G1Affine>,
    /// `[tau^i Z(tau) / delta]_1` for `i = 0..d-1`.
    pub h_query: Vec<G1Affine>,
    /// `[(beta A_i + alpha B_i + C_i) / delta]_1` for witness variables.
    pub l_query: Vec<G1Affine>,
    /// Number of instance variables (excluding the constant one).
    pub num_instance: usize,
}

impl ProvingKey {
    /// Total number of group elements in the CRS (a proxy for CRS size).
    pub fn num_elements(&self) -> usize {
        self.a_query.len()
            + self.b_g1_query.len()
            + self.b_g2_query.len()
            + self.h_query.len()
            + self.l_query.len()
            + self.vk.gamma_abc_g1.len()
            + 6
    }
}

/// Runs the circuit-specific trusted setup against a compiled shape,
/// producing a proving key and a verification key. This is the witness-free
/// entry point: nothing here ever sees an assignment, only the CSR
/// constraint matrices.
pub fn setup_shape<R: Rng + ?Sized>(
    shape: Arc<CompiledShape<Fr>>,
    rng: &mut R,
) -> (ProvingKey, VerifyingKey) {
    let matrices = &shape.matrices;

    // Toxic waste.
    let tau = Fr::random(rng);
    let alpha = Fr::random(rng);
    let beta = Fr::random(rng);
    let gamma = loop {
        let g = Fr::random(rng);
        if !g.is_zero() {
            break g;
        }
    };
    let delta = loop {
        let d = Fr::random(rng);
        if !d.is_zero() {
            break d;
        }
    };
    let gamma_inv = gamma.inverse().expect("gamma != 0");
    let delta_inv = delta.inverse().expect("delta != 0");

    let qap = evaluate_qap_at_point(matrices, &tau);
    let num_vars = matrices.num_variables();
    let num_instance = matrices.num_instance;

    let g = G1Projective::generator();

    // scalar batches -> projective points -> batch normalize
    let a_query_s: Vec<Fr> = qap.a.clone();
    let b_query_s: Vec<Fr> = qap.b.clone();

    let mut gamma_abc_s = Vec::with_capacity(num_instance + 1);
    let mut l_query_s = Vec::with_capacity(num_vars - num_instance - 1);
    for i in 0..num_vars {
        let combined = beta * qap.a[i] + alpha * qap.b[i] + qap.c[i];
        if i <= num_instance {
            gamma_abc_s.push(combined * gamma_inv);
        } else {
            l_query_s.push(combined * delta_inv);
        }
    }

    // h_query scalars: tau^i * Z(tau) / delta for i in 0..d-1
    let d = qap.domain_size;
    let zt_over_delta = qap.zt * delta_inv;
    let mut h_query_s = Vec::with_capacity(d - 1);
    let mut tau_pow = Fr::one();
    for _ in 0..d - 1 {
        h_query_s.push(tau_pow * zt_over_delta);
        tau_pow *= tau;
    }

    let to_affine = |scalars: &[Fr]| -> Vec<G1Affine> {
        let projective: Vec<G1Projective> = scalars.iter().map(|s| g * *s).collect();
        G1Projective::batch_to_affine(&projective)
    };

    let a_query = to_affine(&a_query_s);
    let b_query = to_affine(&b_query_s);
    let h_query = to_affine(&h_query_s);
    let l_query = to_affine(&l_query_s);
    let gamma_abc_g1 = to_affine(&gamma_abc_s);

    let alpha_g1 = (g * alpha).to_affine();
    let beta_g1 = (g * beta).to_affine();
    let beta_g2 = beta_g1;
    let gamma_g2 = (g * gamma).to_affine();
    let delta_g1 = (g * delta).to_affine();
    let delta_g2 = delta_g1;

    let vk = VerifyingKey {
        alpha_g1,
        beta_g2,
        gamma_g2,
        delta_g2,
        gamma_abc_g1,
        alpha_beta_gt: pairing(&alpha_g1, &beta_g2),
    };

    let h_domain = zkvc_qap::qap_domain::<Fr>(matrices.num_constraints())
        .expect("constraint count exceeds the field's FFT capacity");
    let pk = ProvingKey {
        vk: vk.clone(),
        shape,
        h_domain,
        beta_g1,
        delta_g1,
        a_query,
        b_g1_query: b_query.clone(),
        b_g2_query: b_query,
        h_query,
        l_query,
        num_instance,
    };

    (pk, vk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkvc_ff::PrimeField;
    use zkvc_r1cs::ConstraintSystem;

    fn setup_cs(cs: &ConstraintSystem<Fr>, rng: &mut StdRng) -> (ProvingKey, VerifyingKey) {
        setup_shape(Arc::new(CompiledShape::from_cs(cs)), rng)
    }

    fn square_circuit() -> ConstraintSystem<Fr> {
        let mut cs = ConstraintSystem::<Fr>::new();
        let out = cs.alloc_instance(Fr::from_u64(49));
        let x = cs.alloc_witness(Fr::from_u64(7));
        cs.enforce(x.into(), x.into(), out.into());
        cs
    }

    #[test]
    fn setup_shapes() {
        let cs = square_circuit();
        let mut rng = StdRng::seed_from_u64(3);
        let (pk, vk) = setup_cs(&cs, &mut rng);
        assert_eq!(pk.a_query.len(), cs.num_variables());
        assert_eq!(pk.b_g2_query.len(), cs.num_variables());
        assert_eq!(vk.gamma_abc_g1.len(), cs.num_instance() + 1);
        assert_eq!(pk.l_query.len(), cs.num_witness());
        assert!(pk.num_elements() > 0);
        assert!(vk.size_in_bytes() > 0);
    }

    #[test]
    fn proof_serialization_roundtrip() {
        let g = G1Projective::generator().to_affine();
        let p = Proof { a: g, b: g, c: g };
        let bytes = p.to_bytes();
        assert_eq!(bytes.len(), p.size_in_bytes());
        assert_eq!(Proof::from_bytes(&bytes).unwrap(), p);
        assert!(Proof::from_bytes(&bytes[..100]).is_none());
        let mut corrupted = bytes;
        corrupted[1] ^= 0xff;
        assert!(Proof::from_bytes(&corrupted).is_none());
    }

    #[test]
    fn verifying_key_serialization_roundtrip() {
        let cs = square_circuit();
        let mut rng = StdRng::seed_from_u64(4);
        let (_pk, vk) = setup_cs(&cs, &mut rng);
        let bytes = vk.to_bytes();
        let back = VerifyingKey::from_bytes(&bytes).expect("round trip");
        assert_eq!(back.alpha_g1, vk.alpha_g1);
        assert_eq!(back.beta_g2, vk.beta_g2);
        assert_eq!(back.gamma_g2, vk.gamma_g2);
        assert_eq!(back.delta_g2, vk.delta_g2);
        assert_eq!(back.gamma_abc_g1, vk.gamma_abc_g1);
        // The pairing cache must be recomputed, not trusted from the wire.
        assert_eq!(back.alpha_beta_gt, vk.alpha_beta_gt);
        // Truncated and padded inputs are rejected.
        assert!(VerifyingKey::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        let mut padded = bytes;
        padded.push(0);
        assert!(VerifyingKey::from_bytes(&padded).is_none());
    }

    #[test]
    fn deserialized_key_verifies_real_proof_and_flips_fail() {
        // End-to-end: proof + vk cross a byte boundary, then every
        // single-bit flip of the proof is either rejected at decode time or
        // fails verification.
        let cs = square_circuit();
        let mut rng = StdRng::seed_from_u64(5);
        let (pk, vk) = setup_cs(&cs, &mut rng);
        let proof = crate::prove_assignment(&pk, &cs.full_assignment(), &mut rng);

        let vk2 = VerifyingKey::from_bytes(&vk.to_bytes()).unwrap();
        let proof_bytes = proof.to_bytes();
        let proof2 = Proof::from_bytes(&proof_bytes).unwrap();
        assert!(crate::verify(&vk2, cs.instance_assignment(), &proof2));

        for byte_idx in 0..proof_bytes.len() {
            let mut tampered = proof_bytes.clone();
            tampered[byte_idx] ^= 1;
            match Proof::from_bytes(&tampered) {
                None => {} // rejected by curve-membership validation
                Some(p) => assert!(
                    !crate::verify(&vk2, cs.instance_assignment(), &p),
                    "flipped byte {byte_idx} still verified"
                ),
            }
        }
    }
}

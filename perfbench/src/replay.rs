//! Step-by-step replays of one prove on the same key and assignment the
//! production call used, with a span around every layer call. A replay
//! re-derives the exact proof the real `prove_assignment` produced (the
//! check that the phases it times are the phases the prover runs), and the
//! replay root's covered time over the real prove time is the trace's
//! coverage.

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc::core::backend::ProofData;
use zkvc::core::{Backend, ProofArtifacts, ProverKey};
use zkvc::curve::msm;
use zkvc::ff::poly::eq_evals;
use zkvc::ff::{Field, Fr, MultilinearPolynomial};
use zkvc::groth16::{Proof, ProvingKey};
use zkvc::hash::Transcript;
use zkvc::qap::compute_h_coefficients_in;
use zkvc::r1cs::{R1csMatrices, SparseMatrix, WitnessAssignment};
use zkvc::spartan::sumcheck;
use zkvc::spartan::{InnerProductProof, IpaGenerators, SpartanProof};

use crate::trace::Recorder;

/// Span names of the replay roots; coverage is computed under them.
pub const GROTH16_ROOT: &str = "replay.groth16";
pub const SPARTAN_ROOT: &str = "replay.spartan";

/// Runs the real prove under a `<backend>.prove` span, then the matching
/// replay. Errors when the replay does not reproduce the real proof.
pub fn prove_and_replay(
    rec: &mut Recorder,
    prover: &ProverKey,
    spartan: Option<&SpartanReplay>,
    witness: &WitnessAssignment<Fr>,
    rng_seed: u64,
) -> Result<(), String> {
    match prover {
        ProverKey::Groth16(pk) => {
            let real = rec.span("groth16.prove", |_| {
                Backend::Groth16.system().prove_assignment(
                    prover,
                    witness,
                    &mut StdRng::seed_from_u64(rng_seed),
                )
            });
            let replayed = groth16(rec, pk, witness, rng_seed);
            fft(rec, pk, witness);
            match real.data {
                ProofData::Groth16 { proof, .. } if proof == replayed => Ok(()),
                _ => Err("groth16 replay diverged from the real proof".into()),
            }
        }
        ProverKey::Spartan(_) => {
            let replay = spartan.ok_or("spartan replay needs its instance")?;
            let real: ProofArtifacts = rec.span("spartan.prove", |_| {
                Backend::Spartan.system().prove_assignment(
                    prover,
                    witness,
                    &mut StdRng::seed_from_u64(rng_seed),
                )
            });
            let replayed = replay.prove(rec, &witness.instance, &witness.witness);
            match real.data {
                ProofData::Spartan { proof } if proof.to_bytes() == replayed.to_bytes() => Ok(()),
                _ => Err("spartan replay diverged from the real proof".into()),
            }
        }
    }
}

/// `groth16::prove_assignment`, one span per QAP and MSM call.
fn groth16(
    rec: &mut Recorder,
    pk: &ProvingKey,
    witness: &WitnessAssignment<Fr>,
    seed: u64,
) -> Proof {
    let z = witness.full();
    let mut rng = StdRng::seed_from_u64(seed);
    rec.span(GROTH16_ROOT, |rec| {
        let h = rec.span("qap.h", |_| {
            compute_h_coefficients_in(&pk.h_domain, &pk.shape.matrices, &z)
        });
        let r = Fr::random(&mut rng);
        let s = Fr::random(&mut rng);
        let delta = pk.delta_g1.to_projective();

        let a = rec.span("curve.msm.a", |_| msm(&pk.a_query, &z))
            + pk.vk.alpha_g1.to_projective()
            + delta * r;
        let b_g2 = rec.span("curve.msm.b_g2", |_| msm(&pk.b_g2_query, &z))
            + pk.vk.beta_g2.to_projective()
            + pk.vk.delta_g2.to_projective() * s;
        let b_g1 = rec.span("curve.msm.b_g1", |_| msm(&pk.b_g1_query, &z))
            + pk.beta_g1.to_projective()
            + delta * s;
        let l = rec.span("curve.msm.l", |_| {
            msm(&pk.l_query, &z[pk.num_instance + 1..])
        });
        let h_acc = rec.span("curve.msm.h", |_| msm(&pk.h_query[..h.len()], &h));
        let c = l + h_acc + a * s + b_g1 * r - delta * (r * s);
        Proof {
            a: a.to_affine(),
            b: b_g2.to_affine(),
            c: c.to_affine(),
        }
    })
}

/// The seven transforms inside `compute_h_coefficients_in` (three iFFTs,
/// three coset FFTs, one coset iFFT) on the key's own domain, each under
/// an `ff.fft` span.
fn fft(rec: &mut Recorder, pk: &ProvingKey, witness: &WitnessAssignment<Fr>) {
    let z = witness.full();
    let domain = &pk.h_domain;
    let m = &pk.shape.matrices;
    let mut evals: Vec<Vec<Fr>> = [&m.a, &m.b, &m.c]
        .into_iter()
        .map(|mat| {
            let mut v = mat.mul_vector(&z);
            v.resize(domain.size(), Fr::zero());
            v
        })
        .collect();
    for v in &mut evals {
        rec.span("ff.fft", |_| domain.ifft_in_place(v));
    }
    for v in &mut evals {
        rec.span("ff.fft", |_| domain.coset_fft_in_place(v));
    }
    let z_inv = domain
        .vanishing_on_coset()
        .inverse()
        .expect("coset vanishing value is non-zero");
    let mut h: Vec<Fr> = (0..domain.size())
        .map(|i| (evals[0][i] * evals[1][i] - evals[2][i]) * z_inv)
        .collect();
    rec.span("ff.fft", |_| domain.coset_ifft_in_place(&mut h));
}

/// The Spartan instance as `SpartanProver::preprocess_shape` derives it
/// (witness columns remapped to the upper half, generators over the
/// padded witness length), rebuilt from public pieces for the replay.
#[derive(Debug)]
pub struct SpartanReplay {
    mats: [SparseMatrix<Fr>; 3],
    num_io: usize,
    num_witness: usize,
    n_half: usize,
    m_pad: usize,
    gens: IpaGenerators,
}

impl SpartanReplay {
    pub fn new(m: &R1csMatrices<Fr>) -> Self {
        let num_io = m.num_instance;
        let n_half = (num_io + 1).max(m.num_witness).max(2).next_power_of_two();
        let remap = |mat: &SparseMatrix<Fr>| SparseMatrix {
            num_rows: mat.num_rows,
            num_cols: 2 * n_half,
            row_ptr: mat.row_ptr.clone(),
            col_idx: mat
                .col_idx
                .iter()
                .map(|&col| {
                    if col <= num_io {
                        col
                    } else {
                        n_half + col - num_io - 1
                    }
                })
                .collect(),
            vals: mat.vals.clone(),
        };
        SpartanReplay {
            mats: [remap(&m.a), remap(&m.b), remap(&m.c)],
            num_io,
            num_witness: m.num_witness,
            n_half,
            m_pad: m.num_constraints().max(2).next_power_of_two(),
            gens: IpaGenerators::new(n_half, b"zkvc-spartan-witness"),
        }
    }

    /// `SpartanProver::prove_assignment`, one span per phase.
    fn prove(&self, rec: &mut Recorder, io: &[Fr], witness: &[Fr]) -> SpartanProof {
        let mut witness = witness.to_vec();
        witness.resize(self.n_half, Fr::zero());
        let mut z = vec![Fr::zero(); 2 * self.n_half];
        z[0] = Fr::one();
        z[1..1 + io.len()].copy_from_slice(io);
        z[self.n_half..].copy_from_slice(&witness);
        let [a, b, c] = &self.mats;

        rec.span(SPARTAN_ROOT, |rec| {
            let mut t = Transcript::new(b"zkvc-spartan-v1");
            t.append_u64(b"num constraints", a.num_rows as u64);
            t.append_u64(b"num io", self.num_io as u64);
            t.append_u64(b"num witness", self.num_witness as u64);
            t.append_fields(b"io", io);

            let comm_w = rec.span("spartan.commit", |_| self.gens.commit(&witness));
            t.append_point(b"comm_w", &comm_w.to_affine());

            let tau = t.challenge_fields(b"tau", self.m_pad.trailing_zeros() as usize);
            let [az, bz, cz] = rec.span("spartan.matvec", |_| {
                [a, b, c].map(|mat| {
                    let mut v = mat.mul_vector(&z);
                    v.resize(self.m_pad, Fr::zero());
                    MultilinearPolynomial::from_evaluations(v)
                })
            });
            let e = MultilinearPolynomial::from_evaluations(eq_evals(&tau));
            let (sc1, rx, (_, va, vb, vc)) = rec.span("spartan.sc1", |_| {
                sumcheck::prove_cubic(&Fr::zero(), &e, &az, &bz, &cz, &mut t)
            });
            t.append_field(b"va", &va);
            t.append_field(b"vb", &vb);
            t.append_field(b"vc", &vc);

            let r_a = t.challenge_field(b"r_a");
            let r_b = t.challenge_field(b"r_b");
            let r_c = t.challenge_field(b"r_c");
            let claim2 = r_a * va + r_b * vb + r_c * vc;
            let m_vec = rec.span("spartan.mvec", |_| {
                let chi_rx = eq_evals(&rx);
                let mut m_vec = vec![Fr::zero(); 2 * self.n_half];
                for (mat, weight) in [(a, r_a), (b, r_b), (c, r_c)] {
                    for (x, chi) in chi_rx.iter().enumerate().take(mat.num_rows) {
                        let w = weight * *chi;
                        if w.is_zero() {
                            continue;
                        }
                        for (col, val) in mat.row(x) {
                            m_vec[col] += w * *val;
                        }
                    }
                }
                m_vec
            });
            let m_poly = MultilinearPolynomial::from_evaluations(m_vec);
            let z_poly = MultilinearPolynomial::from_evaluations(z.clone());
            let (sc2, ry, _) = rec.span("spartan.sc2", |_| {
                sumcheck::prove_quadratic(&claim2, &m_poly, &z_poly, &mut t)
            });

            let log_cols = (2 * self.n_half).trailing_zeros() as usize;
            let chi_ry_w = eq_evals(&ry[..log_cols - 1]);
            let eval_w: Fr = witness.iter().zip(&chi_ry_w).map(|(w, c)| *w * *c).sum();
            t.append_field(b"eval_w", &eval_w);
            let ipa = rec.span("spartan.ipa", |_| {
                InnerProductProof::prove(&self.gens, &mut t, &witness, &chi_ry_w)
            });
            SpartanProof {
                comm_w,
                sc1,
                claims: (va, vb, vc),
                sc2,
                eval_w,
                ipa,
            }
        })
    }
}

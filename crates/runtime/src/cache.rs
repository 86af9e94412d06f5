//! The key cache: one shape compile + one `setup` per circuit shape,
//! shared by every job.
//!
//! [`KeyCache`] maps a circuit-shape digest (plus backend and setup seed)
//! to the [`CircuitKeys`] produced by
//! [`ProofSystem::setup_shape`](zkvc_core::ProofSystem::setup_shape) — and,
//! since the compile-once / prove-many split, the [`CompiledShape`] itself
//! (CSR matrices) is stored beside the keys, so anything that needs the
//! structure later (witness-pass validation, Spartan re-preprocessing, the
//! CLI) reads it from the cache instead of re-synthesising.
//!
//! Lookups are lock-light: a short-held map mutex hands out a per-entry
//! [`OnceLock`], so concurrent workers proving different shapes never
//! serialise each other's setups, and concurrent workers racing on the
//! *same* new shape run setup exactly once (the losers block on the
//! `OnceLock` and reuse the winner's keys).
//!
//! On top of the digest-keyed map sits a **template index**: a caller-chosen
//! string key (the pool uses the job spec) that memoises the digest lookup
//! *and* the shape compile. The first job of a template runs the
//! witness-free shape pass once; every later job on the warm template skips
//! constraint synthesis entirely and goes straight to its witness pass.
//!
//! Setup randomness is derived deterministically from the shape digest and
//! a setup seed, so a batch re-run with the same seed reproduces
//! byte-identical CRS material and proofs. For Groth16 this means the CRS
//! trapdoor is derivable from public data — the right trade-off for a
//! benchmarking/amortisation runtime, and the same "challenge baked into
//! the CRS" assumption the paper's measured zkVC-G flow already makes; a
//! deployment needing a real ceremony would inject entropy via
//! [`KeyCache::with_seed`].
//!
//! Entries are keyed by `(shape digest, backend, setup seed)`. The seed in
//! the key is what lets one long-lived cache serve a resident `zkvc serve`
//! process across requests carrying *different* seeds: each seed gets its
//! own deterministic CRS (so serve proofs stay verifiable offline by
//! `zkvc verify --seed N`, which re-derives setup from the same seed),
//! while repeat shapes under the same seed hit the cache and stay
//! O(prove). Batch pools pass their pool seed for every job, so their
//! behaviour is unchanged: one setup per shape per batch.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc_core::api::{compile_shape, Circuit};
use zkvc_core::{Backend, ProverKey, VerifierKey};
use zkvc_ff::Fr;
use zkvc_r1cs::CompiledShape;

/// The cached product of one shape compile + setup run for one circuit
/// shape.
#[derive(Debug)]
pub struct CircuitKeys {
    /// Backend the keys belong to.
    pub backend: Backend,
    /// Shape digest the keys were generated for.
    pub digest: [u8; 32],
    /// Setup seed the key material was derived under.
    pub setup_seed: u64,
    /// The compiled circuit shape (CSR matrices) the keys were generated
    /// for — cached beside the keys so warm jobs validate their witness
    /// pass against it without any re-synthesis.
    pub shape: Arc<CompiledShape<Fr>>,
    /// Prover-side key material.
    pub prover: ProverKey,
    /// Verifier-side key material.
    pub verifier: VerifierKey,
    /// How long the setup took (amortised across every job that hits this
    /// entry).
    pub setup_time: Duration,
}

/// Aggregate cache counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from an existing entry.
    pub hits: u64,
    /// Lookups that ran a fresh setup.
    pub misses: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Entries evicted to stay under the shape-byte bound.
    pub evictions: u64,
    /// Total compiled-shape bytes currently resident.
    pub shape_bytes: usize,
}

impl CacheStats {
    /// Fraction of lookups served from cache, in `[0, 1]`; zero when no
    /// lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

type CacheKey = ([u8; 32], Backend, u64);
type TemplateKey = (String, Backend, u64);
type Cell = Arc<OnceLock<Arc<CircuitKeys>>>;

/// One digest-keyed cache entry: the setup cell plus its last-use stamp
/// (a logical clock tick, not wall time — the eviction scan only compares
/// recency).
#[derive(Debug, Default)]
struct Slot {
    cell: OnceLock<Arc<CircuitKeys>>,
    last_use: AtomicU64,
}

/// A concurrent, shape-keyed cache of compiled shapes and proving/verifying
/// keys, with a template index for synthesis-free warm lookups.
///
/// By default the cache grows without bound — the right behaviour for a
/// one-shot batch, where every shape in flight is live. A resident server
/// instead constructs it with [`KeyCache::bound_shape_bytes`]: whenever the
/// compiled shapes' total CSR footprint exceeds the bound, least-recently
/// used entries (and their template aliases) are evicted until it fits.
/// Hot shapes are re-stamped on every lookup, so steady traffic keeps them
/// warm while one-off shapes age out. The entry just inserted is never
/// evicted by its own insertion, so a single shape larger than the whole
/// bound still serves (and is dropped by the *next* distinct shape).
#[derive(Debug, Default)]
pub struct KeyCache {
    entries: Mutex<HashMap<CacheKey, Arc<Slot>>>,
    templates: Mutex<HashMap<TemplateKey, Cell>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    clock: AtomicU64,
    max_shape_bytes: Option<usize>,
    seed: u64,
}

impl KeyCache {
    /// An empty cache with the default (zero) setup seed.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache whose setup randomness additionally mixes in `seed`.
    pub fn with_seed(seed: u64) -> Self {
        KeyCache {
            seed,
            ..Self::default()
        }
    }

    /// Bounds the total compiled-shape footprint (in bytes, as measured by
    /// [`CompiledShape::approx_bytes`]); exceeding it evicts
    /// least-recently-used entries. `zkvc serve` uses this so a long-lived
    /// process fed an unbounded variety of specs cannot grow its key cache
    /// without limit.
    pub fn bound_shape_bytes(mut self, max_bytes: usize) -> Self {
        self.max_shape_bytes = Some(max_bytes);
        self
    }

    /// The configured shape-byte bound, if any.
    pub fn shape_byte_bound(&self) -> Option<usize> {
        self.max_shape_bytes
    }

    /// Next tick of the logical recency clock.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Re-stamps the entry backing `keys` as just-used (no-op when the
    /// entry was evicted concurrently).
    fn touch(&self, keys: &CircuitKeys) {
        let stamp = self.tick();
        if let Some(slot) = self.entries.lock().expect("key cache poisoned").get(&(
            keys.digest,
            keys.backend,
            keys.setup_seed,
        )) {
            slot.last_use.store(stamp, Ordering::Relaxed);
        }
    }

    /// Enforces the shape-byte bound: evicts initialised entries in
    /// least-recently-used order (never `protect`, never a cell whose setup
    /// is still in flight) until the resident footprint fits, then drops
    /// template aliases of everything evicted.
    fn evict_to_bound(&self, protect: &CacheKey) {
        let Some(bound) = self.max_shape_bytes else {
            return;
        };
        let mut evicted: Vec<Arc<CircuitKeys>> = Vec::new();
        {
            let mut map = self.entries.lock().expect("key cache poisoned");
            loop {
                let mut total = 0usize;
                let mut victim: Option<(CacheKey, u64, usize)> = None;
                for (key, slot) in map.iter() {
                    let Some(keys) = slot.cell.get() else {
                        continue; // setup in flight: unaccounted, unevictable
                    };
                    let bytes = keys.shape.approx_bytes();
                    total += bytes;
                    if key == protect {
                        continue;
                    }
                    let stamp = slot.last_use.load(Ordering::Relaxed);
                    if victim.as_ref().is_none_or(|(_, s, _)| stamp < *s) {
                        victim = Some((*key, stamp, bytes));
                    }
                }
                if total <= bound {
                    break;
                }
                let Some((key, _, _)) = victim else {
                    break; // only the protected / in-flight entries remain
                };
                if let Some(slot) = map.remove(&key) {
                    if let Some(keys) = slot.cell.get() {
                        evicted.push(keys.clone());
                    }
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if !evicted.is_empty() {
            self.templates
                .lock()
                .expect("key cache poisoned")
                .retain(|_, cell| match cell.get() {
                    Some(keys) => !evicted.iter().any(|e| Arc::ptr_eq(e, keys)),
                    None => true, // template compile in flight
                });
        }
    }

    /// Trait-object entry point: any [`Circuit`] — a matmul statement, a
    /// whole model forward pass — is cached under its compiled shape's
    /// digest and the cache's own default setup seed. The shape pass is
    /// witness-free; no witness value is materialised on this path.
    pub fn get_or_setup_circuit(
        &self,
        backend: Backend,
        circuit: &dyn Circuit,
    ) -> (Arc<CircuitKeys>, bool) {
        self.get_or_setup_circuit_seeded(backend, circuit, self.seed)
    }

    /// Seed-explicit entry point: the entry is keyed by
    /// `(digest, backend, seed)`, so jobs carrying different seeds
    /// (resident `zkvc serve` requests) get independent — and independently
    /// reproducible — key material, while same-seed jobs still share one
    /// setup.
    ///
    /// Warm lookups cost one [`Circuit::shape_digest`] — O(hash) for
    /// circuits holding a prebuilt constraint system, one witness-free
    /// shape pass for lazy statements — and never lower a shape to CSR;
    /// only the first (miss) call compiles. Pool jobs that know their spec
    /// should prefer [`KeyCache::get_or_setup_template`], whose warm path
    /// skips even the digest.
    pub fn get_or_setup_circuit_seeded(
        &self,
        backend: Backend,
        circuit: &dyn Circuit,
        seed: u64,
    ) -> (Arc<CircuitKeys>, bool) {
        let digest = circuit.shape_digest();
        if let Some(keys) = self.get(&digest, backend, seed) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (keys, true);
        }
        let (keys, hit) = self.get_or_setup_shape(backend, Arc::new(compile_shape(circuit)), seed);
        debug_assert_eq!(keys.digest, digest, "shape digest mismatch across passes");
        (keys, hit)
    }

    /// Shape-level entry point: caches a pre-compiled shape under its
    /// digest, running setup at most once.
    pub fn get_or_setup_shape(
        &self,
        backend: Backend,
        shape: Arc<CompiledShape<Fr>>,
        seed: u64,
    ) -> (Arc<CircuitKeys>, bool) {
        let digest = shape.digest;
        let key = (digest, backend, seed);
        let slot = {
            let mut map = self.entries.lock().expect("key cache poisoned");
            map.entry(key).or_default().clone()
        };

        let mut ran_setup = false;
        let keys = slot
            .cell
            .get_or_init(|| {
                ran_setup = true;
                Arc::new(Self::run_setup(backend, shape, seed))
            })
            .clone();
        slot.last_use.store(self.tick(), Ordering::Relaxed);

        if ran_setup {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.evict_to_bound(&key);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        (keys, !ran_setup)
    }

    /// Template-indexed entry point — the pool's warm path. `template` is
    /// any string that, together with `(backend, seed)`, uniquely
    /// determines the circuit shape (the pool uses the job spec; every
    /// job of one spec shares a shape by construction).
    ///
    /// On a template hit, **no synthesis of any kind runs**: the circuit
    /// is untouched and the cached keys (with their compiled shape) come
    /// straight back. On a template miss, the circuit's shape is compiled
    /// once — witness-free — and deduplicated against the digest-keyed
    /// map, so two different templates with identical structure still
    /// share one setup.
    pub fn get_or_setup_template(
        &self,
        backend: Backend,
        seed: u64,
        template: &str,
        circuit: &dyn Circuit,
    ) -> (Arc<CircuitKeys>, bool) {
        let cell = {
            let mut map = self.templates.lock().expect("key cache poisoned");
            map.entry((template.to_string(), backend, seed))
                .or_insert_with(|| Arc::new(OnceLock::new()))
                .clone()
        };
        let mut compiled = false;
        let mut inner_hit = false;
        let keys = cell
            .get_or_init(|| {
                compiled = true;
                let (keys, hit) =
                    self.get_or_setup_shape(backend, Arc::new(compile_shape(circuit)), seed);
                inner_hit = hit;
                keys
            })
            .clone();
        if compiled {
            (keys, inner_hit)
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.touch(&keys);
            (keys, true)
        }
    }

    /// Compiles nothing and proves nothing: the one place setup actually
    /// runs, deterministically seeded from the digest + backend + seed.
    fn run_setup(backend: Backend, shape: Arc<CompiledShape<Fr>>, seed: u64) -> CircuitKeys {
        let digest = shape.digest;
        let mut rng = StdRng::seed_from_u64(setup_seed(&digest, backend, seed));
        let t0 = Instant::now();
        let (prover, verifier) = backend.system().setup_shape(&shape, &mut rng);
        CircuitKeys {
            backend,
            digest,
            setup_seed: seed,
            shape,
            prover,
            verifier,
            setup_time: t0.elapsed(),
        }
    }

    /// Fetches an existing entry without running setup (`None` when the
    /// entry is absent or its setup is still in flight on another
    /// thread). `zkvc serve` uses this to stream a shape's verification
    /// key the moment its first job completes.
    pub fn get(&self, digest: &[u8; 32], backend: Backend, seed: u64) -> Option<Arc<CircuitKeys>> {
        let stamp = self.tick();
        self.entries
            .lock()
            .expect("key cache poisoned")
            .get(&(*digest, backend, seed))
            .and_then(|slot| {
                let keys = slot.cell.get().cloned()?;
                slot.last_use.store(stamp, Ordering::Relaxed);
                Some(keys)
            })
    }

    /// A snapshot of every fully-initialised cache entry (entries whose
    /// setup is still in flight on another thread are skipped). Used by the
    /// pool to assemble the once-per-batch key table.
    pub fn entries(&self) -> Vec<Arc<CircuitKeys>> {
        self.entries
            .lock()
            .expect("key cache poisoned")
            .values()
            .filter_map(|slot| slot.cell.get().cloned())
            .collect()
    }

    /// Counters and current size (distinct shapes; template aliases do not
    /// count).
    pub fn stats(&self) -> CacheStats {
        let (entries, shape_bytes) = {
            let map = self.entries.lock().expect("key cache poisoned");
            let bytes = map
                .values()
                .filter_map(|slot| slot.cell.get())
                .map(|keys| keys.shape.approx_bytes())
                .sum();
            (map.len(), bytes)
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
            evictions: self.evictions.load(Ordering::Relaxed),
            shape_bytes,
        }
    }

    /// Drops every cached entry and template alias (counters are kept).
    pub fn clear(&self) {
        self.entries.lock().expect("key cache poisoned").clear();
        self.templates.lock().expect("key cache poisoned").clear();
    }
}

/// Mixes the shape digest, backend tag and setup seed into the rng seed
/// the backend's setup runs from.
fn setup_seed(digest: &[u8; 32], backend: Backend, seed: u64) -> u64 {
    let mut mixed = u64::from_le_bytes(digest[..8].try_into().expect("8 bytes"));
    mixed ^= seed.rotate_left(17);
    mixed ^= match backend {
        Backend::Groth16 => 0x4752_4F54_4831_3600, // "GROTH16\0"
        Backend::Spartan => 0x5350_4152_5441_4E00, // "SPARTAN\0"
    };
    mixed
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkvc_core::api::RawCircuit;
    use zkvc_core::matmul::{MatMulBuilder, Strategy};
    use zkvc_r1cs::ConstraintSystem;

    /// The cache entry for the shape of `cs` at the cache's own seed.
    fn lookup(
        cache: &KeyCache,
        backend: Backend,
        cs: &ConstraintSystem<Fr>,
    ) -> (Arc<CircuitKeys>, bool) {
        cache.get_or_setup_circuit(backend, &RawCircuit::new(cs))
    }

    fn matmul_cs(seed: u64, n: usize) -> ConstraintSystem<Fr> {
        let mut rng = StdRng::seed_from_u64(seed);
        MatMulBuilder::new(2, n, 2)
            .strategy(Strategy::Vanilla)
            .build_random(&mut rng)
            .cs
    }

    #[test]
    fn same_shape_hits_different_shape_misses() {
        let cache = KeyCache::new();
        let (k1, hit1) = lookup(&cache, Backend::Spartan, &matmul_cs(1, 3));
        let (k2, hit2) = lookup(&cache, Backend::Spartan, &matmul_cs(2, 3));
        assert!(!hit1 && hit2);
        assert_eq!(k1.digest, k2.digest);
        assert!(Arc::ptr_eq(&k1, &k2));

        // Different shape and different backend each get their own entry.
        let (_k3, hit3) = lookup(&cache, Backend::Spartan, &matmul_cs(3, 4));
        let (_k4, hit4) = lookup(&cache, Backend::Groth16, &matmul_cs(4, 3));
        assert!(!hit3 && !hit4);

        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.entries, 3);
        assert!((stats.hit_rate() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn cached_keys_prove_and_verify_fresh_statements() {
        let cache = KeyCache::new();
        let mut rng = StdRng::seed_from_u64(99);
        for backend in Backend::ALL {
            let cs1 = matmul_cs(10, 3);
            let cs2 = matmul_cs(11, 3);
            let (keys, _) = lookup(&cache, backend, &cs1);
            let (keys_again, hit) = lookup(&cache, backend, &cs2);
            assert!(hit, "{backend:?}");
            let system = backend.system();
            let artifacts = system.prove(&keys_again.prover, &RawCircuit::new(&cs2), &mut rng);
            assert!(system.verify(&keys.verifier, &artifacts), "{backend:?}");
        }
    }

    #[test]
    fn cached_shape_matches_circuit() {
        let cache = KeyCache::new();
        let cs = matmul_cs(12, 3);
        let (keys, _) = lookup(&cache, Backend::Groth16, &cs);
        assert_eq!(keys.shape.digest, keys.digest);
        assert_eq!(keys.shape.num_constraints(), cs.num_constraints());
        assert_eq!(keys.shape.num_instance(), cs.num_instance());
        assert!(keys.shape.matrices.is_satisfied(&cs.full_assignment()));
    }

    #[test]
    fn concurrent_lookups_run_setup_once() {
        let cache = Arc::new(KeyCache::new());
        let mut handles = Vec::new();
        for i in 0..8 {
            let cache = cache.clone();
            handles.push(std::thread::spawn(move || {
                let cs = matmul_cs(100 + i, 3);
                lookup(&cache, Backend::Spartan, &cs).0
            }));
        }
        let keys: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "exactly one setup for one shape");
        assert_eq!(stats.hits, 7);
        assert!(keys.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
    }

    #[test]
    fn template_index_skips_synthesis_on_warm_shapes() {
        // A circuit that counts how many times it is synthesised: the
        // template path must compile it exactly once no matter how many
        // jobs arrive.
        use std::sync::atomic::AtomicUsize;
        use zkvc_core::api::Circuit;
        use zkvc_r1cs::{ConstraintSink, SinkExt};

        struct Counting<'a> {
            syntheses: &'a AtomicUsize,
        }
        impl Circuit for Counting<'_> {
            fn synthesize(&self, sink: &mut dyn ConstraintSink<zkvc_ff::Fr>) {
                self.syntheses.fetch_add(1, Ordering::Relaxed);
                use zkvc_ff::PrimeField;
                let out = sink.alloc_instance_lazy(|| Fr::from_u64(49));
                let w = sink.alloc_witness_lazy(|| Fr::from_u64(7));
                sink.enforce(w.into(), w.into(), out.into());
            }
        }

        let syntheses = AtomicUsize::new(0);
        let cache = KeyCache::new();
        let circuit = Counting {
            syntheses: &syntheses,
        };
        let (k1, hit1) =
            cache.get_or_setup_template(Backend::Spartan, 0, "square:spartan", &circuit);
        assert!(!hit1);
        assert_eq!(syntheses.load(Ordering::Relaxed), 1);
        for _ in 0..5 {
            let (k, hit) =
                cache.get_or_setup_template(Backend::Spartan, 0, "square:spartan", &circuit);
            assert!(hit);
            assert!(Arc::ptr_eq(&k, &k1));
        }
        // Warm lookups ran the circuit zero additional times.
        assert_eq!(syntheses.load(Ordering::Relaxed), 1);

        // A second template with the same structure compiles once more but
        // reuses the digest-level entry (no second setup).
        let (k2, hit2) = cache.get_or_setup_template(Backend::Spartan, 0, "square-alias", &circuit);
        assert!(hit2, "digest-level dedup is a hit");
        assert!(Arc::ptr_eq(&k2, &k1));
        assert_eq!(syntheses.load(Ordering::Relaxed), 2);
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn entries_are_seed_aware() {
        let cache = KeyCache::with_seed(1);
        let cs = matmul_cs(5, 3);
        let circuit = RawCircuit::new(&cs);
        let digest = circuit.shape_digest();

        // Default-seed lookup and an explicit same-seed lookup share one
        // entry; a different seed gets its own (deterministic) setup.
        let (k1, hit1) = cache.get_or_setup_circuit(Backend::Spartan, &circuit);
        let (k2, hit2) = cache.get_or_setup_circuit_seeded(Backend::Spartan, &circuit, 1);
        let (k3, hit3) = cache.get_or_setup_circuit_seeded(Backend::Spartan, &circuit, 2);
        assert!(!hit1 && hit2 && !hit3);
        assert!(Arc::ptr_eq(&k1, &k2));
        assert_eq!(k1.setup_seed, 1);
        assert_eq!(k3.setup_seed, 2);
        assert_eq!(cache.stats().entries, 2);

        // get() fetches without setting up, per (digest, backend, seed).
        assert!(cache.get(&digest, Backend::Spartan, 1).is_some());
        assert!(cache.get(&digest, Backend::Spartan, 2).is_some());
        assert!(cache.get(&digest, Backend::Spartan, 3).is_none());
        assert!(cache.get(&digest, Backend::Groth16, 1).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2), "get() is not a lookup");
    }

    #[test]
    fn byte_bound_evicts_cold_shapes_and_keeps_hot_ones_warm() {
        use zkvc_core::api::compile_shape;
        let hot_cs = matmul_cs(1, 3);
        let probe = compile_shape(&RawCircuit::new(&hot_cs)).approx_bytes();
        let max_cold = compile_shape(&RawCircuit::new(&matmul_cs(1, 9))).approx_bytes();
        assert!(probe > 0);
        // Room for the hot shape plus any single cold one — never two colds.
        let bound = probe + max_cold;
        let cache = KeyCache::new().bound_shape_bytes(bound);
        assert_eq!(cache.shape_byte_bound(), Some(bound));

        let (hot, _) =
            cache.get_or_setup_template(Backend::Spartan, 0, "hot", &RawCircuit::new(&hot_cs));
        // A stream of one-off shapes (largest first), with the hot template
        // touched after each: the strangers age out, the hot entry never
        // does.
        for n in (4..10).rev() {
            let cs = matmul_cs(1, n);
            cache.get_or_setup_template(
                Backend::Spartan,
                0,
                &format!("cold-{n}"),
                &RawCircuit::new(&cs),
            );
            let (again, hit) =
                cache.get_or_setup_template(Backend::Spartan, 0, "hot", &RawCircuit::new(&hot_cs));
            assert!(hit, "hot shape must stay warm while n={n} streams past");
            assert!(Arc::ptr_eq(&again, &hot));
        }

        let stats = cache.stats();
        assert!(stats.evictions >= 4, "cold shapes were evicted: {stats:?}");
        assert!(
            stats.shape_bytes <= bound,
            "resident bytes respect the bound: {stats:?}"
        );
        assert!(
            cache.get(&hot.digest, Backend::Spartan, 0).is_some(),
            "hot entry still resident at digest level"
        );
        // An evicted template alias was purged with its entry: looking it
        // up again re-runs setup instead of serving dropped keys.
        let (_, hit) = cache.get_or_setup_template(
            Backend::Spartan,
            0,
            "cold-9",
            &RawCircuit::new(&matmul_cs(1, 9)),
        );
        assert!(!hit, "evicted template must miss");
    }

    #[test]
    fn bound_never_evicts_the_entry_just_inserted() {
        // A bound smaller than any single shape: each insertion survives
        // its own eviction pass and is displaced by the next shape.
        let cache = KeyCache::new().bound_shape_bytes(1);
        let (k1, hit1) = lookup(&cache, Backend::Spartan, &matmul_cs(1, 3));
        assert!(!hit1);
        assert!(cache.get(&k1.digest, Backend::Spartan, 0).is_some());

        let (k2, _) = lookup(&cache, Backend::Spartan, &matmul_cs(1, 4));
        assert!(
            cache.get(&k1.digest, Backend::Spartan, 0).is_none(),
            "previous oversized entry displaced"
        );
        assert!(cache.get(&k2.digest, Backend::Spartan, 0).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn clear_retains_counters() {
        let cache = KeyCache::new();
        lookup(&cache, Backend::Spartan, &matmul_cs(1, 2));
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.misses, 1);
    }
}

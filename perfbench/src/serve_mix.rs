//! `serve-mix`: an open loop against a `zkvc serve --listen unix:` child
//! on a seeded arrival schedule. Nine of ten requests are a small,
//! high-priority matmul; one is a model block. Latency counts from each
//! request's due time.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zkvc::core::VerifierKey;
use zkvc::ff::Fr;
use zkvc::groth16::VerifyingKey;
use zkvc::runtime::wire::{field, parse_json_object, Json};
use zkvc::runtime::{build_statement, JobSpec, ProofEnvelope};

use crate::inproc::{client_verify, replays, tamper_rejected, verify_layers};
use crate::report::{self, Outcome};
use crate::stats::{self, ms, Arrival};
use crate::trace::Recorder;
use crate::Params;

/// The mixed serving workload.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub small: &'static str,
    pub model: &'static str,
    /// Fixed arrival rate, requests per second.
    pub rate: f64,
    /// Per-class latency limits for `slo_met_frac`, in ms.
    pub slo_small_ms: f64,
    pub slo_model_ms: f64,
    /// Set-ups timed per untraced run; each uses its own statement seed,
    /// so each pays the full set-up of both shapes.
    pub setup_reps: usize,
    /// Model proves replayed step by step in a traced run.
    pub replays: usize,
}

/// One request in this many is a model block. With one in five (the
/// first design) about half the small requests overlapped a model prove,
/// which put the all-request median on the edge between the overlapped
/// and the free small requests and made it swing between runs; one in ten
/// keeps the medians inside the free mode and the tail inside the models.
const MODEL_EVERY: usize = 10;

/// The request classes, in the order `Mix` names them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Class {
    Small,
    Model,
}

/// One server line, as the reader thread saw it.
enum Event {
    Ready,
    /// A key line, already filed into the session's key table.
    Filed,
    Key {
        digest: String,
        seed: u64,
        vk: Box<VerifyingKey>,
    },
    Answer(Answer),
    Closed,
    Garbage(String),
}

/// A `result` or `error` line for one request id.
#[derive(Debug)]
struct Answer {
    id: String,
    at: Instant,
    /// The server's own verdict (`false` on every error line).
    verified: bool,
    /// Refused before admission (an `error` line with a retry hint).
    shed: bool,
    cache_hit: bool,
    queue_ms: f64,
    /// Build + prove + verify time the server reports.
    work_ms: f64,
    prove_ms: f64,
    proof: Option<Vec<u8>>,
}

/// The `zkvc serve` child; killed and reaped on drop.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_server(bin: &Path, run_dir: &Path, sock: &Path, p: &Params) -> Result<Server, String> {
    let xdg = run_dir.join("xdg");
    std::fs::create_dir_all(&xdg).map_err(|e| format!("{}: {e}", xdg.display()))?;
    let child = Command::new(bin)
        .args(["serve", "--listen"])
        .arg(format!("unix:{}", sock.display()))
        .args(["--workers", &p.threads.to_string()])
        .args(["--seed", &p.seed.to_string()])
        .args([
            "--tune-profile",
            "none",
            "--key-cache",
            "none",
            "--cache-bytes",
            "none",
        ])
        .args([
            "--idle-timeout",
            "none",
            "--session-bound",
            "4096",
            "--queue-bound",
            "4096",
        ])
        .env("XDG_CACHE_HOME", &xdg)
        .env_remove("ZKVC_TUNE")
        .env_remove("ZKVC_KEY_CACHE")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    Ok(Server(child))
}

fn connect(sock: &Path, server: &mut Server) -> Result<UnixStream, String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(s) = UnixStream::connect(sock) {
            return Ok(s);
        }
        if let Ok(Some(status)) = server.0.try_wait() {
            return Err(format!("zkvc serve exited early: {status}"));
        }
        if Instant::now() > deadline {
            return Err("zkvc serve never started listening".into());
        }
        thread::sleep(Duration::from_millis(20));
    }
}

fn unhex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(s.get(i..i + 2)?, 16).ok())
        .collect()
}

fn parse_line(line: &str, at: Instant) -> Event {
    let Ok(fields) = parse_json_object(line) else {
        return Event::Garbage(line.to_string());
    };
    let str_of = |k: &str| match field(&fields, k) {
        Some(Json::Str(s)) => Some(s.clone()),
        _ => None,
    };
    let num_of = |k: &str| match field(&fields, k) {
        Some(Json::Num(raw)) => raw.parse::<f64>().ok(),
        _ => None,
    };
    match str_of("type").as_deref() {
        Some("ready") => Event::Ready,
        Some("key") => {
            let vk = str_of("vk_hex")
                .and_then(|h| unhex(&h))
                .and_then(|b| VerifyingKey::from_bytes(&b));
            let seed = match field(&fields, "seed") {
                Some(Json::Num(raw)) => raw.parse::<u64>().ok(),
                _ => None,
            };
            match (str_of("shape_digest"), seed, vk) {
                (Some(digest), Some(seed), Some(vk)) => Event::Key {
                    digest,
                    seed,
                    vk: Box::new(vk),
                },
                _ => Event::Garbage(line.to_string()),
            }
        }
        Some(kind @ ("result" | "error")) => {
            let Some(id) = str_of("id") else {
                return Event::Garbage(line.to_string());
            };
            let num = |k: &str| num_of(k).unwrap_or(0.0);
            Event::Answer(Answer {
                id,
                at,
                verified: field(&fields, "verified") == Some(&Json::Bool(true)),
                shed: kind == "error" && field(&fields, "retry_after_ms").is_some(),
                cache_hit: field(&fields, "cache_hit") == Some(&Json::Bool(true)),
                queue_ms: num("queue_ms"),
                work_ms: num("build_ms") + num("prove_ms") + num("verify_ms"),
                prove_ms: num("prove_ms"),
                proof: str_of("proof_hex").and_then(|h| unhex(&h)),
            })
        }
        Some("summary") => Event::Closed,
        _ => Event::Garbage(line.to_string()),
    }
}

/// The client connection: a writer on this thread, a reader thread
/// feeding `events`.
struct Session {
    writer: UnixStream,
    events: mpsc::Receiver<Event>,
    reader: Option<thread::JoinHandle<()>>,
    keys: HashMap<(String, u64), VerifyingKey>,
    answers: HashMap<String, Answer>,
}

impl Session {
    fn open(stream: UnixStream) -> Result<Self, String> {
        let read_half = stream.try_clone().map_err(|e| e.to_string())?;
        let (tx, events) = mpsc::channel();
        let reader = thread::spawn(move || {
            let mut lines = BufReader::new(read_half);
            let mut line = String::new();
            loop {
                line.clear();
                match lines.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        let event = parse_line(line.trim(), Instant::now());
                        let closed = matches!(event, Event::Closed);
                        if tx.send(event).is_err() || closed {
                            break;
                        }
                    }
                }
            }
            let _ = tx.send(Event::Closed);
        });
        let mut session = Session {
            writer: stream,
            events,
            reader: Some(reader),
            keys: HashMap::new(),
            answers: HashMap::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match session.next_event(deadline)? {
                Event::Ready => return Ok(session),
                Event::Closed => return Err("server closed before its ready line".into()),
                _ => {}
            }
        }
    }

    fn send(&mut self, line: &str) -> Result<Instant, String> {
        let mut buf = line.as_bytes().to_vec();
        buf.push(b'\n');
        self.writer.write_all(&buf).map_err(|e| e.to_string())?;
        Ok(Instant::now())
    }

    /// The next event before `deadline`, key lines filed on the way.
    fn next_event(&mut self, deadline: Instant) -> Result<Event, String> {
        let wait = deadline.saturating_duration_since(Instant::now());
        match self.events.recv_timeout(wait) {
            Err(mpsc::RecvTimeoutError::Timeout) => Err("timed out waiting for the server".into()),
            Err(mpsc::RecvTimeoutError::Disconnected) => Ok(Event::Closed),
            Ok(Event::Key { digest, seed, vk }) => {
                self.keys.insert((digest, seed), *vk);
                Ok(Event::Filed)
            }
            Ok(Event::Garbage(line)) => Err(format!("unexpected server line: {line}")),
            Ok(other) => Ok(other),
        }
    }

    /// Files events until every id in `ids` is answered.
    fn await_answers(&mut self, ids: &[String], deadline: Instant) -> Result<(), String> {
        while ids.iter().any(|id| !self.answers.contains_key(id)) {
            match self.next_event(deadline)? {
                Event::Answer(a) => {
                    self.answers.insert(a.id.clone(), a);
                }
                Event::Closed => return Err("server closed the session early".into()),
                _ => {}
            }
        }
        Ok(())
    }
}

impl Drop for Session {
    /// Closes the socket, which ends the reader thread, and joins it.
    fn drop(&mut self) {
        let _ = self.writer.shutdown(std::net::Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

fn request(spec: &str, id: &str, seed: u64, class: Class) -> String {
    let priority = match class {
        Class::Small => "high",
        Class::Model => "normal",
    };
    format!("{{\"spec\":\"{spec}\",\"id\":\"{id}\",\"seed\":{seed},\"priority\":\"{priority}\"}}")
}

/// The class order: one model request in every `MODEL_EVERY`, at a
/// seeded phase, so models are evenly spaced and the share of small
/// requests that overlap a model prove is the same in every run.
fn schedule(seed: u64, n: usize) -> Vec<Class> {
    let phase = StdRng::seed_from_u64(seed ^ 0x5EED_0FA2_217A_1500).gen_range(0..MODEL_EVERY);
    (0..n)
        .map(|i| {
            if i % MODEL_EVERY == phase {
                Class::Model
            } else {
                Class::Small
            }
        })
        .collect()
}

/// Client-side checks of serve answers: decode, bind to the statement
/// the request named, verify against the streamed key for its shape
/// (looked up by the locally recomputed shape digest).
#[derive(Default)]
struct Checker {
    /// (class, seed) → the statement's public outputs and shape digest.
    statements: HashMap<(Class, u64), (Vec<Fr>, String)>,
    /// One verified envelope per class, for the tamper check.
    first_ok: HashMap<Class, (ProofEnvelope, VerifierKey)>,
}

impl Checker {
    /// The decode+verify time in ms, or `None` when a check failed.
    fn check(&mut self, rec: &mut Recorder, keys: &Keys, req: &Sent, a: &Answer) -> Option<f64> {
        let (expected, digest) =
            self.statements
                .entry((req.class, req.seed))
                .or_insert_with(|| {
                    let (spec, _) = JobSpec::parse(req.spec).expect("workload spec parses");
                    let statement = build_statement(req.seed, 0, &spec);
                    let digest = statement
                        .shape_digest()
                        .iter()
                        .map(|b| format!("{b:02x}"))
                        .collect();
                    (statement.public_outputs(), digest)
                });
        let vk = keys
            .get(&(digest.clone(), req.seed))
            .cloned()
            .map(VerifierKey::Groth16);
        match (&a.proof, vk) {
            (Some(bytes), Some(vk)) if a.verified => client_verify(rec, &vk, bytes)
                .filter(|(env, _)| env.public_inputs == *expected)
                .map(|(env, took)| {
                    self.first_ok.entry(req.class).or_insert((env, vk));
                    took
                }),
            _ => None,
        }
    }
}

type Keys = HashMap<(String, u64), VerifyingKey>;

/// What the client sent under one id.
struct Sent {
    class: Class,
    spec: &'static str,
    seed: u64,
}

pub fn run(
    m: &Mix,
    p: &Params,
    zkvc_bin: &Path,
    run_dir: &Path,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Result<(), String> {
    let spec_of = |c: Class| if c == Class::Small { m.small } else { m.model };
    let sock: PathBuf = run_dir.join("s");
    let mut server = spawn_server(zkvc_bin, run_dir, &sock, p)?;
    let stream = connect(&sock, &mut server)?;
    let mut session = Session::open(stream)?;
    let mut sent: Vec<(String, Sent)> = Vec::new();
    let mut checker = Checker::default();

    // Set-up: each rep warms both shapes under its own statement seed
    // (rep 0 uses the run seed, which the timed phase then reuses). The
    // server's own build/prove/verify time is taken out of each warm
    // request, leaving shape compile + set-up + transport.
    let reps = if p.trace { 1 } else { m.setup_reps };
    let mut setups = Vec::new();
    for rep in 0..reps {
        let seed = p.seed.wrapping_add(rep as u64);
        let mut total = 0.0;
        for class in [Class::Small, Class::Model] {
            let spec = spec_of(class);
            let id = format!("setup{rep}-{spec}");
            let at = session.send(&request(spec, &id, seed, class))?;
            session.await_answers(std::slice::from_ref(&id), at + Duration::from_secs(150))?;
            let a = &session.answers[&id];
            total += (ms(a.at - at) - a.work_ms) / 1e3;
            sent.push((id, Sent { class, spec, seed }));
        }
        setups.push(total);
    }
    out.set("setup_s", stats::median(&setups).unwrap_or(f64::NAN));
    out.note(
        "setup_s",
        format!("median of {reps} set-ups of both shapes"),
    );

    // The timed open loop. Answers are checked after the window, with the
    // server idle, so client-side work does not contend with serving.
    // When tracing, the second half sends under spans so the trace's own
    // cost shows as `trace.overhead`.
    let n = (m.rate * p.seconds).round().max(2.0) as usize;
    let classes = schedule(p.seed, n);
    let start = Instant::now() + Duration::from_millis(50);
    let mut timed: Vec<(String, Class, Instant, Instant)> = Vec::with_capacity(n);
    for (i, class) in classes.iter().enumerate() {
        let due = start + Duration::from_secs_f64(i as f64 / m.rate);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            thread::sleep(wait);
        }
        let id = format!("t{i}");
        let line = request(spec_of(*class), &id, p.seed, *class);
        let at = if p.trace && i >= n / 2 {
            rec.span("wire.send", |_| session.send(&line))?
        } else {
            session.send(&line)?
        };
        timed.push((id.clone(), *class, due, at));
        sent.push((
            id,
            Sent {
                class: *class,
                spec: spec_of(*class),
                seed: p.seed,
            },
        ));
    }
    let ids: Vec<String> = timed.iter().map(|t| t.0.clone()).collect();
    session.await_answers(&ids, Instant::now() + Duration::from_secs(150))?;
    out.set(
        "peak_rss_mb",
        report::peak_rss_mb(&server.0.id().to_string()).unwrap_or(f64::NAN),
    );
    let answers = std::mem::take(&mut session.answers);
    let keys = std::mem::take(&mut session.keys);
    drop(session);
    drop(server);

    // Every answer, set-up ones included, is checked and accounted for.
    let (mut verify_ms, mut sizes, mut errors) = (vec![], vec![], 0usize);
    let mut verified: HashSet<&str> = HashSet::new();
    for (id, req) in &sent {
        out.attempted += 1;
        let Some(a) = answers.get(id) else {
            errors += 1;
            out.failed += 1;
            continue;
        };
        if a.shed {
            out.shed += 1;
            continue;
        }
        if let Some(bytes) = &a.proof {
            sizes.push(bytes.len() as f64);
        }
        match checker.check(rec, &keys, req, a) {
            Some(took) => {
                out.verified += 1;
                verify_ms.push(took);
                verified.insert(id);
            }
            None => {
                errors += 1;
                out.failed += 1;
            }
        }
    }
    out.set("serve.shed", out.shed as f64);
    out.set("serve.errors", errors as f64);
    out.set(
        "verify_p50_ms",
        stats::median(&verify_ms).unwrap_or(f64::NAN),
    );
    out.set("proof_bytes", stats::median(&sizes).unwrap_or(f64::NAN));
    out.set(
        "verified_frac",
        out.verified as f64 / out.attempted.max(1) as f64,
    );
    for class in [Class::Small, Class::Model] {
        match checker.first_ok.get(&class) {
            Some((env, vk)) => {
                out.check(tamper_rejected(env, vk), "tampered public input accepted")
            }
            None => out.check(false, "no verified proof to tamper with"),
        }
    }

    // Timing figures from the timed requests.
    let mut lat = Vec::new();
    let mut by_class: HashMap<Class, Vec<f64>> = HashMap::new();
    let mut queue: HashMap<Class, Vec<f64>> = HashMap::new();
    let (mut late, mut overhead, mut model_prove, mut all_queue) = (vec![], vec![], vec![], vec![]);
    let (mut met, mut hits, mut last) = (0usize, 0usize, start);
    for (i, (id, class, due, at)) in timed.iter().enumerate() {
        let a = &answers[id];
        let arrival = Arrival {
            due: *due,
            sent: *at,
            answered: a.at,
        };
        let l = ms(arrival.latency());
        if !p.trace || i < n / 2 {
            lat.push(l);
        }
        by_class.entry(*class).or_default().push(l);
        queue.entry(*class).or_default().push(a.queue_ms);
        all_queue.push(a.queue_ms);
        late.push(ms(arrival.lateness()));
        overhead.push(ms(arrival.round_trip()) - a.queue_ms - a.work_ms);
        if *class == Class::Model {
            model_prove.push(a.prove_ms);
        }
        let limit = if *class == Class::Small {
            m.slo_small_ms
        } else {
            m.slo_model_ms
        };
        if verified.contains(id.as_str()) && l <= limit {
            met += 1;
        }
        hits += usize::from(a.cache_hit);
        last = last.max(a.at);
    }
    if p.trace {
        let traced: Vec<f64> = timed[n / 2..]
            .iter()
            .map(|t| ms(answers[&t.0].at - t.2))
            .collect();
        if let (Some(a), Some(b)) = (stats::median(&lat), stats::median(&traced)) {
            out.set("trace.overhead", b / a);
        }
    }
    out.set("proofs_per_s", n as f64 / (last - start).as_secs_f64());
    out.set("latency_p50_ms", stats::median(&lat).unwrap_or(f64::NAN));
    let small = by_class.remove(&Class::Small).unwrap_or_default();
    out.set(
        "small_latency_p50_ms",
        stats::median(&small).unwrap_or(f64::NAN),
    );
    for (name, samples) in [("latency_tail_ms", &lat), ("small_latency_tail_ms", &small)] {
        if let Some(t) = stats::tail(samples, stats::TAIL_LADDER[0]) {
            out.set(name, t.value);
            out.note(name, format!("p{}, {} samples beyond", t.pct, t.beyond));
        }
    }
    out.set("slo_met_frac", met as f64 / n as f64);
    out.note(
        "slo_met_frac",
        format!(
            "limits {} ms small, {} ms model",
            m.slo_small_ms, m.slo_model_ms
        ),
    );
    let med = |v: Option<&Vec<f64>>| v.and_then(|v| stats::median(v)).unwrap_or(0.0);
    out.set("serve.queue_ms.small", med(queue.get(&Class::Small)));
    out.set("serve.queue_ms.model", med(queue.get(&Class::Model)));
    out.set("serve.prove_ms.model", med(Some(&model_prove)));
    out.set("serve.overhead_ms", med(Some(&overhead)));
    out.set("pool.queue_wait_ms", med(Some(&all_queue)));
    out.set(
        "load.late_ms",
        stats::percentile(&stats::sorted(&late), 90.0).unwrap_or(0.0),
    );
    out.set("cache.hit_rate", hits as f64 / n as f64);

    if p.trace {
        if let Some((env, vk)) = checker.first_ok.get(&Class::Model) {
            verify_layers(rec, out, Some(env), vk);
        }
        // The model shape's layers, replayed in this process once the
        // server is gone (its set-up is repeated here for the keys).
        let (spec, _) = JobSpec::parse(m.model).map_err(|e| e.to_string())?;
        let (_, keys, _) = crate::inproc::setup(&spec, p.seed);
        replays(m.replays, &spec, p.seed, &keys, rec, out)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_spaces_models_evenly() {
        let a = schedule(7, 100);
        assert_eq!(a, schedule(7, 100));
        assert!(
            (0..40).any(|s| schedule(s, 100) != a),
            "the seed moves the phase"
        );
        for block in a.chunks(MODEL_EVERY) {
            assert_eq!(block.iter().filter(|c| **c == Class::Model).count(), 1);
        }
        let models: Vec<usize> = (0..100).filter(|i| a[*i] == Class::Model).collect();
        assert!(models.windows(2).all(|w| w[1] - w[0] == MODEL_EVERY));
        assert_eq!(schedule(7, 12).len(), 12);
    }

    #[test]
    fn answer_lines_parse() {
        let at = Instant::now();
        let line = r#"{"type":"result","id":"t3","job":3,"spec":"8x8x16:crpc+psq:groth16","seed":1,"verified":true,"cache_hit":true,"worker":0,"constraints":136,"shape_digest":"ab","queue_ms":1.5,"build_ms":2.0,"prove_ms":10.0,"verify_ms":3.0,"proof_bytes":2,"proof_hex":"0aff"}"#;
        let Event::Answer(a) = parse_line(line, at) else {
            panic!("not an answer")
        };
        assert_eq!(a.id, "t3");
        assert!(a.verified && a.cache_hit && !a.shed);
        assert_eq!((a.queue_ms, a.work_ms, a.prove_ms), (1.5, 15.0, 10.0));
        assert_eq!(a.proof, Some(vec![0x0a, 0xff]));
        let shed =
            r#"{"type":"error","id":"t4","code":3,"error":"overloaded","retry_after_ms":100}"#;
        let Event::Answer(a) = parse_line(shed, at) else {
            panic!("not an answer")
        };
        assert!(a.shed && !a.verified);
        assert!(matches!(parse_line("nonsense", at), Event::Garbage(_)));
    }
}

//! Chaos tests: the serving stack under seeded fault injection, per-job
//! deadlines, overload shedding, and graceful drain under pressure.
//!
//! Two kinds of harness:
//!
//! * **In-process** `serve_listener` servers for deadline and shedding
//!   semantics, where the test needs precise control of timing and the
//!   pool (fault schedules stay disarmed — `ZKVC_FAULTS` is process
//!   global and the test binary must not arm it for itself).
//! * **Subprocess** `zkvc serve --listen` servers (via
//!   `CARGO_BIN_EXE_zkvc`) with a `ZKVC_FAULTS` schedule armed in the
//!   child's environment, driven by the retrying client library. The
//!   invariants: no hang, no lost accepted job, exactly one terminal
//!   answer per request id, and the server survives every injected fault
//!   (clean SIGTERM drain, exit 0).

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use zkvc_runtime::{
    run_client, serve_listener, AnyStream, ClientConfig, Error, JobSpec, ListenAddr, NetConfig,
    NetSummary, ServeConfig,
};

/// A spec slow enough that a short deadline lands mid-kernel, not between
/// jobs. The arithmetic crates build optimised even in the debug profile,
/// so the spec must make the interruptible prove (~0.27 s on two cores)
/// dwarf both the 15 ms deadline floor below and the statement and
/// witness build (~0.05 s), which no kernel checkpoint interrupts: the
/// vanilla strategy's O(abn) constraints do.
const SLOW_SPEC: &str = "24x24x24:vanilla:g";
/// A spec fast enough to saturate-and-release quickly in shed tests.
const FAST_SPEC: &str = "2x2x2:zkvc:s";

struct Server {
    addr: ListenAddr,
    shutdown: Arc<AtomicBool>,
    handle: thread::JoinHandle<Result<NetSummary, Error>>,
}

impl Server {
    fn start_unix(name: &str, config: NetConfig) -> Server {
        let path =
            std::env::temp_dir().join(format!("zkvc-chaos-{}-{name}.sock", std::process::id()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel();
        let handle = {
            let shutdown = Arc::clone(&shutdown);
            let addr = ListenAddr::Unix(path);
            thread::spawn(move || {
                serve_listener(&addr, config, shutdown, move |bound| {
                    tx.send(bound.clone()).expect("report bound address");
                })
            })
        };
        let addr = rx.recv().expect("server bound");
        Server {
            addr,
            shutdown,
            handle,
        }
    }

    fn finish(self) -> NetSummary {
        self.shutdown.store(true, Ordering::SeqCst);
        self.handle
            .join()
            .expect("server thread")
            .expect("serve_listener")
    }
}

/// Sends one request line and reads lines until the matching result
/// (skipping key announcements), returning the result line and the wall
/// time from write to read.
fn roundtrip(
    writer: &mut AnyStream,
    reader: &mut BufReader<AnyStream>,
    request: &str,
    id_token: &str,
) -> (String, Duration) {
    let t0 = Instant::now();
    writer
        .write_all(request.as_bytes())
        .and_then(|_| writer.write_all(b"\n"))
        .expect("write request");
    let mut line = String::new();
    loop {
        line.clear();
        assert_ne!(
            reader.read_line(&mut line).expect("read response"),
            0,
            "eof before result for {id_token}"
        );
        let trimmed = line.trim();
        if trimmed.contains("\"type\":\"result\"") && trimmed.contains(id_token) {
            return (trimmed.to_string(), t0.elapsed());
        }
    }
}

#[test]
fn deadline_interrupts_mid_kernel_and_answers_deadline_exceeded() {
    let server = Server::start_unix("deadline", NetConfig::new(ServeConfig::new(2).seed(3)));
    let stream = AnyStream::connect(&server.addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    // First prove pays for setup and warms the key cache; the second is
    // the uninterrupted warm baseline the deadline run is measured
    // against.
    let warm = format!("{{\"spec\":\"{SLOW_SPEC}\",\"id\":\"warm\"}}");
    let (line, _) = roundtrip(&mut writer, &mut reader, &warm, "\"warm\"");
    assert!(line.contains("\"verified\":true"), "warm-up failed: {line}");
    let base = format!("{{\"spec\":\"{SLOW_SPEC}\",\"id\":\"base\"}}");
    let (line, baseline) = roundtrip(&mut writer, &mut reader, &base, "\"base\"");
    assert!(
        line.contains("\"verified\":true"),
        "baseline failed: {line}"
    );

    // A deadline a small fraction of the measured warm baseline (the
    // prove alone is ~70% of the roundtrip, so a quarter of it lands
    // mid-prove): the proof must stop mid-MSM/mid-FFT (the cancel
    // checkpoints), not run to completion and get discarded afterwards.
    // Deriving from the baseline keeps the test honest on any machine
    // and build profile.
    let deadline_ms = (baseline.as_millis() as u64 / 4).max(15);
    let ddl = format!("{{\"spec\":\"{SLOW_SPEC}\",\"id\":\"ddl\",\"deadline_ms\":{deadline_ms}}}");
    let (line, elapsed) = roundtrip(&mut writer, &mut reader, &ddl, "\"ddl\"");
    assert!(
        line.contains("\"verified\":false")
            && line.contains("\"code\":4")
            && line.contains("\"kind\":\"deadline_exceeded\""),
        "want a deadline_exceeded answer, got: {line}"
    );
    assert!(
        elapsed < baseline / 2,
        "deadline job took {elapsed:?}, not well under the {baseline:?} baseline — \
         the kernel checkpoints did not interrupt it"
    );

    writer.shutdown_write().expect("half-close");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("drain responses");
    assert!(rest.contains("\"type\":\"summary\""));
    let totals = server.finish();
    assert_eq!(totals.jobs, 3);
    assert_eq!(totals.verified, 2);
    assert_eq!(totals.failed, 1, "the deadline job counts as failed");
}

#[test]
fn sigterm_drain_does_not_outwait_a_deadline() {
    let server = Server::start_unix("drain-ddl", NetConfig::new(ServeConfig::new(1).seed(3)));
    let stream = AnyStream::connect(&server.addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    // The first prove pays for setup; the second measures the warm
    // uninterrupted prove, so "the drain returned early" below is
    // relative to this machine, not wall-clock guesses.
    let warm = format!("{{\"spec\":\"{SLOW_SPEC}\",\"id\":\"warm\"}}");
    let (_, _) = roundtrip(&mut writer, &mut reader, &warm, "\"warm\"");
    let base = format!("{{\"spec\":\"{SLOW_SPEC}\",\"id\":\"base\"}}");
    let (_, baseline) = roundtrip(&mut writer, &mut reader, &base, "\"base\"");

    // A deadline-bearing job goes in and gets picked up (single worker,
    // empty queue); the connection stays open — no EOF — so the drain is
    // triggered purely by the shutdown flag, with the proof mid-kernel.
    // The deadline is a quarter of the warm baseline (mid-prove, see the
    // deadline test above); SIGTERM lands well before it expires.
    let deadline_ms = (baseline.as_millis() as u64 / 4).max(15);
    writer
        .write_all(
            format!("{{\"spec\":\"{SLOW_SPEC}\",\"id\":\"ddl\",\"deadline_ms\":{deadline_ms}}}\n")
                .as_bytes(),
        )
        .expect("write deadline job");
    thread::sleep(Duration::from_millis((deadline_ms / 3).max(5)));

    let t0 = Instant::now();
    server.shutdown.store(true, Ordering::SeqCst);
    let mut lines = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).expect("read response") == 0 {
            break;
        }
        let trimmed = line.trim().to_string();
        let is_summary = trimmed.contains("\"type\":\"summary\"");
        lines.push(trimmed);
        if is_summary {
            break;
        }
    }
    let drained_in = t0.elapsed();

    let result = lines
        .iter()
        .find(|l| l.contains("\"type\":\"result\"") && l.contains("\"ddl\""))
        .expect("the accepted job still gets its terminal line");
    assert!(
        result.contains("\"kind\":\"deadline_exceeded\""),
        "drain must answer the deadline, not finish the proof: {result}"
    );
    assert!(
        lines.iter().any(|l| l.contains("\"type\":\"summary\"")),
        "the session still gets its summary line on drain"
    );
    assert!(
        drained_in < baseline / 2,
        "drain took {drained_in:?}; waiting past the deadline would take \
         about the {baseline:?} baseline"
    );
    let totals = server.finish();
    assert_eq!(totals.jobs, 3);
    assert_eq!(totals.failed, 1);
}

#[test]
fn admission_bound_sheds_and_the_retrying_client_recovers() {
    // One worker, global admission bound of 1: while the slow job below
    // holds the pool, every other request must be answered with a shed
    // error (never queued), and a client with enough retry budget must
    // ride it out and finish clean.
    let server = Server::start_unix(
        "shed",
        NetConfig::new(ServeConfig::new(1).seed(3))
            .admission_bound(Some(1))
            .retry_after_ms(40),
    );

    let stream = AnyStream::connect(&server.addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writer
        .write_all(format!("{{\"spec\":\"{SLOW_SPEC}\",\"id\":\"hog\"}}\n").as_bytes())
        .expect("write slow job");
    // Admission is synchronous with the session's submit loop; give it a
    // beat so in_flight is 1 before the clients arrive.
    thread::sleep(Duration::from_millis(150));

    // An impatient client exhausts its budget while the pool is held and
    // must surface the availability failure as its own error class.
    let spec = JobSpec::parse(FAST_SPEC).expect("spec").0;
    let impatient = ClientConfig::new(server.addr.clone(), spec)
        .count(1)
        .retries(1)
        .backoff_ms(10)
        .retry_seed(9);
    match run_client(&impatient) {
        Err(Error::RetriesExhausted { attempts, last }) => {
            assert_eq!(attempts, 2);
            assert!(last.contains("shed"), "last failure names the shed: {last}");
            assert_eq!(
                Error::RetriesExhausted { attempts, last }.exit_code(),
                3,
                "exhausted retries are an availability failure, exit 3"
            );
        }
        other => panic!("impatient client should exhaust retries, got {other:?}"),
    }

    // A patient client outlasts the hog: shed at first, then admitted.
    let patient = ClientConfig::new(server.addr.clone(), spec)
        .count(2)
        .retries(8)
        .backoff_ms(100)
        .retry_seed(9);
    let report = run_client(&patient).expect("patient client finishes");
    assert!(report.all_ok(), "after retries everything settles clean");
    assert_eq!(report.results(), 2);
    assert!(report.sheds() >= 1, "the first attempt must have been shed");
    assert!(report.attempts() >= 2);

    // The hog was never shed: it drains normally.
    writer.shutdown_write().expect("half-close");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("drain hog session");
    assert!(rest.contains("\"hog\"") && rest.contains("\"verified\":true"));
    let totals = server.finish();
    assert!(totals.shed >= 3, "impatient (2 attempts) + patient (>=1)");
    assert_eq!(totals.jobs, 3, "shed requests never became jobs");
}

// ---------------------------------------------------------------------
// Subprocess chaos: a real `zkvc serve --listen` with ZKVC_FAULTS armed.
// ---------------------------------------------------------------------

struct ChaosServer {
    child: Child,
    addr: ListenAddr,
    stderr_path: PathBuf,
    sock_path: PathBuf,
}

impl ChaosServer {
    /// Spawns `zkvc serve --listen unix:...` with the given fault
    /// schedule armed in the child environment, waiting until the socket
    /// accepts.
    fn spawn(name: &str, faults: &str, extra_args: &[&str]) -> ChaosServer {
        let tag = format!("{}-{name}", std::process::id());
        let sock_path = std::env::temp_dir().join(format!("zkvc-chaos-proc-{tag}.sock"));
        let stderr_path = std::env::temp_dir().join(format!("zkvc-chaos-log-{tag}.txt"));
        let _ = std::fs::remove_file(&sock_path);
        let stderr_file = std::fs::File::create(&stderr_path).expect("chaos log file");
        let child = Command::new(env!("CARGO_BIN_EXE_zkvc"))
            .args([
                "serve",
                "--listen",
                &format!("unix:{}", sock_path.display()),
                "--workers",
                "2",
                "--seed",
                "3",
                "--key-cache",
                "none",
            ])
            .args(extra_args)
            .env("ZKVC_FAULTS", faults)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr_file)
            .spawn()
            .expect("spawn zkvc serve");
        let addr = ListenAddr::Unix(sock_path.clone());
        // The listener is up once a connect succeeds (the socket file
        // alone can exist before the accept loop runs).
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if AnyStream::connect(&addr).is_ok() {
                break;
            }
            assert!(Instant::now() < deadline, "server never came up");
            thread::sleep(Duration::from_millis(50));
        }
        ChaosServer {
            child,
            addr,
            stderr_path,
            sock_path,
        }
    }

    /// SIGTERMs the child and asserts the drain is clean: exit status 0
    /// within a bounded wait. Returns the chaos log (stderr) contents.
    fn terminate(mut self) -> String {
        let pid = self.child.id().to_string();
        let status = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .expect("send SIGTERM");
        assert!(status.success(), "kill -TERM failed");
        let deadline = Instant::now() + Duration::from_secs(60);
        let status = loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                break status;
            }
            assert!(
                Instant::now() < deadline,
                "server did not drain within 60s of SIGTERM"
            );
            thread::sleep(Duration::from_millis(50));
        };
        assert!(
            status.success(),
            "server must survive every injected fault and drain on SIGTERM, got {status:?}"
        );
        let log = std::fs::read_to_string(&self.stderr_path).unwrap_or_default();
        let _ = std::fs::remove_file(&self.sock_path);
        log
    }
}

/// Checks the per-request invariants on a finished client report: every
/// id answered exactly once, ids unique, nothing from another session.
fn assert_one_terminal_answer_each(report: &zkvc_runtime::ClientReport, expected_jobs: usize) {
    let ids: Vec<&str> = report
        .sessions
        .iter()
        .flat_map(|s| s.jobs.iter().map(|j| j.id.as_str()))
        .collect();
    let unique: HashSet<&str> = ids.iter().copied().collect();
    assert_eq!(
        ids.len(),
        expected_jobs,
        "every accepted request gets exactly one terminal answer"
    );
    assert_eq!(unique.len(), ids.len(), "no id answered twice: {ids:?}");
    assert_eq!(report.id_mismatches(), 0);
    assert!(
        report.sessions.iter().all(|s| s.summary_seen),
        "every session (attempt) still ends with the summary line"
    );
}

#[test]
fn seeded_fault_schedule_is_survived_with_no_lost_jobs() {
    // Four distinct fault points armed in one seeded schedule: stalled
    // reads, short reads, stalled writes, and worker panics at pickup.
    // None of these may lose an accepted job or take the server down.
    let server = ChaosServer::spawn(
        "mixed",
        "seed=7;net.read.delay=0.10@30;net.read.short=0.25;net.write.delay=0.10@20;pool.pickup.panic=0.08",
        &[],
    );

    let spec = JobSpec::parse(FAST_SPEC).expect("spec").0;
    let config = ClientConfig::new(server.addr.clone(), spec)
        .sessions(3)
        .count(6)
        .retries(4)
        .backoff_ms(100)
        .retry_seed(5);
    let report = run_client(&config).expect("client finishes under chaos");

    assert_one_terminal_answer_each(&report, 3 * 6);
    // Injected worker panics surface as honest failed verdicts (kind
    // "panicked"), never as silence; everything that did prove must
    // still verify locally.
    assert_eq!(report.verify_failures(), 0);
    assert_eq!(
        report.results() - report.verdict_failures(),
        report.verified_local(),
        "every verified result's envelope checked out locally"
    );

    let log = server.terminate();
    assert!(
        log.contains("zkvc-fault:"),
        "the armed schedule must actually fire (chaos log):\n{log}"
    );
    assert!(
        log.contains("zkvc serve:"),
        "the drain still prints the totals line:\n{log}"
    );
}

#[test]
fn write_faults_kill_sessions_but_the_retrying_client_recovers() {
    // Only injected write failures: sessions die mid-stream (the server
    // cancels their remaining jobs), and the client's
    // reconnect-and-resubmit path has to deliver every id exactly once
    // anyway.
    let server = ChaosServer::spawn("write-io", "seed=13;net.write.io_error=0.02", &[]);

    let spec = JobSpec::parse(FAST_SPEC).expect("spec").0;
    let config = ClientConfig::new(server.addr.clone(), spec)
        .sessions(2)
        .count(8)
        .retries(8)
        .backoff_ms(100)
        .retry_seed(21);
    let report = run_client(&config).expect("client outlasts the write faults");

    assert_one_terminal_answer_each(&report, 2 * 8);
    assert!(
        report.all_ok(),
        "all proofs verified once resubmitted:\n{}",
        report.render_table()
    );

    let log = server.terminate();
    assert!(log.contains("zkvc serve:"));
}

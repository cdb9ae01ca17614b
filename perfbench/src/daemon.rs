//! The `daemon_durable` workload: the `bcountd` request handler
//! (`bcount_daemon::Server`) with its write-ahead journal on, serving one
//! closed-loop client, then crashed and recovered.
//!
//! One pass opens a durable server on a fresh state directory (`--fsync
//! off`, default checkpoint cadence) and creates [`SESSIONS`] sessions
//! (congest, n = 1024, beacon spam, 22 spread Byzantine nodes, each with
//! its own seed), then runs a closed loop of one `session.step {rounds:1}`
//! and four `session.query` per iteration, taking the sessions in turn.
//! Every line goes through `Server::handle_line`, the call `bcountd` makes
//! for each line it reads. The pass then drops the server without shutting
//! it down: the journal keeps no buffer in the process, so the state
//! directory is left as a SIGKILL leaves it. It reopens the directory with
//! `Server::open_durable` and sends each session's last query again: the
//! replies must be byte-identical to the ones before the crash.
//!
//! `recovery_s` is timed on a shorter journal: the same sessions crashed
//! after [`SHORT_ITERATIONS`] iterations and recovered [`RECOVERIES`]
//! times per pass. The queries do not change the state directory, so every
//! recovery replays the same journal. A recovery of the whole pass is one
//! call of about two seconds, over which the host's speed drifts unseen by
//! the probes on either side: such calls spread by a quarter within one
//! run. Short recoveries give the run many samples, each between two
//! probes.
//!
//! Work per round differs from one session seed to another (by a quartile
//! spread of 0.08 over eight seeds); several sessions per pass average
//! that out of the run's figures.
//!
//! The journal is written and replayed as under any policy; `--fsync off`
//! only leaves out the device flush, whose time on a shared virtual disk
//! is the host's, not the program's.
//!
//! The timed run leaves the unix socket out. With client and daemon in
//! two processes, every request was two hand-overs between processes, and
//! on a shared host their timings measured the scheduler: the same code
//! read 2–4× slower from one set of runs to the next. The traced run keeps
//! it: it sends the same lines to the release `bcountd` binary over its
//! socket, requires every reply to match the in-process one byte for
//! byte, SIGKILLs and restarts the daemon, requires the recovered reply to
//! match too, and reports the socket's share of each request.
//!
//! Timed samples are process CPU time, bracketed by [`Pace`] probes and
//! reported in reference seconds.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use bcount_bench::experiments::CONGEST_BAND;
use bcount_daemon::{DurabilityOptions, FsyncPolicy, Request, Response, Server, ServerLimits};
use bcount_json::{FromJson, Json};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::pace::{cpu_s, Pace};
use crate::trace::{median, ms, percentile, Recorder};
use crate::{Budget, LoopStats, Metric, Outcome, WORK_DIR};

/// Nodes in the session's network.
const N: usize = 1024;
/// ⌊1024^0.45⌋: the Theorem 2 budget at ξ = 0.05.
const BYZANTINE: usize = 22;
/// Sessions per pass.
const SESSIONS: usize = 3;
/// Rounds each session is stepped per pass.
const ITERATIONS: usize = 1000;
const QUERIES_PER_STEP: usize = 4;
/// Far above `ITERATIONS`, so every step advances exactly one round.
const MAX_ROUNDS: u64 = 10_000;
/// Longest wait for one socket reply, or for `bcountd` to start listening.
const TIMEOUT: Duration = Duration::from_secs(60);
/// Passes every timed run makes at least, so each median has two samples.
const MIN_PASSES: usize = 2;
/// Iterations per session in the journal `recovery_s` is timed on: a
/// recovery replays 300 rounds in about a tenth of a second.
const SHORT_ITERATIONS: usize = 100;
/// Timed recoveries of that journal per pass.
const RECOVERIES: usize = 16;
/// Percentile of a run's recovery times it reports as `recovery_s`: the
/// host's interference only ever slows a recovery, so the fast ones are
/// the program's time (as in [`crate::fast_share`]).
const RECOVERY_PERCENTILE: f64 = 10.0;
/// Set-ups (`open_durable` on a fresh directory up to the last
/// `session.create` reply) timed on their own at the start of every timed
/// run, so `setup_s` is a median of many.
const SETUP_SAMPLES: usize = 24;
/// Loop requests between two speed probes.
const PROBE_EVERY: usize = 200;
/// Renders timed for `daemon.wire.render_us`.
const RENDER_SAMPLES: usize = 500;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Method {
    Create,
    Step,
    Query,
}

/// One request line and what it asks for.
#[derive(Debug, Clone)]
struct Req {
    id: u64,
    method: Method,
    line: String,
}

/// The whole request sequence of one pass: the creates, then the loop.
/// Each line ends in its newline, ready for the socket.
fn requests(seed: u64) -> Vec<Req> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut reqs: Vec<Req> = (1..=SESSIONS as u64)
        .map(|id| {
            let session_seed = rng.gen::<u32>();
            Req {
                id,
                method: Method::Create,
                line: format!(
                    "{{\"id\":{id},\"method\":\"session.create\",\"params\":{{\"n\":{N},\
                     \"protocol\":\"congest\",\"adversary\":\"beacon-spam\",\"byzantine\":{BYZANTINE},\
                     \"seed\":{session_seed},\"max_rounds\":{MAX_ROUNDS}}}}}\n"
                ),
            }
        })
        .collect();
    for k in 0..SESSIONS * ITERATIONS * (1 + QUERIES_PER_STEP) {
        let id = reqs.len() as u64 + 1;
        let session = k / (1 + QUERIES_PER_STEP) % SESSIONS + 1;
        let (method, name, params) = if k % (1 + QUERIES_PER_STEP) == 0 {
            (
                Method::Step,
                "session.step",
                format!(r#"{{"session":{session},"rounds":1}}"#),
            )
        } else {
            (
                Method::Query,
                "session.query",
                format!(r#"{{"session":{session}}}"#),
            )
        };
        reqs.push(Req {
            id,
            method,
            line: format!("{{\"id\":{id},\"method\":\"{name}\",\"params\":{params}}}\n"),
        });
    }
    reqs
}

/// Indices into `reqs` of each session's last query, in session order.
fn final_queries(reqs: &[Req]) -> Vec<usize> {
    (reqs.len() - SESSIONS * (1 + QUERIES_PER_STEP)..reqs.len())
        .filter(|&i| reqs[i].method == Method::Query)
        .collect::<Vec<_>>()
        .chunks(QUERIES_PER_STEP)
        .map(|chunk| chunk[QUERIES_PER_STEP - 1])
        .collect()
}

/// Whether `reply` is a successful answer to `req`; a step must have
/// advanced exactly one round.
fn reply_ok(req: &Req, reply: &str) -> bool {
    let Ok(json) = Json::parse(reply) else {
        return false;
    };
    let id_matches = json
        .get("id")
        .and_then(Json::as_num)
        .and_then(|n| n.as_u64())
        == Some(req.id);
    let Some(result) = json.get("result") else {
        return false;
    };
    let stepped = || result.get("stepped").and_then(Json::as_num)?.as_u64();
    id_matches && (req.method != Method::Step || stepped() == Some(1))
}

/// Theorem 2 on the final query reply: nodes have decided, and the
/// median estimate lies in `CONGEST_BAND`.
fn final_reply_ok(reply: &str) -> bool {
    let Ok(json) = Json::parse(reply) else {
        return false;
    };
    let snapshot = json.get("result").and_then(|r| r.get("snapshot"));
    let num = |path: &[&str]| {
        let mut at = snapshot?;
        for key in path {
            at = at.get(key)?;
        }
        Some(at.as_num()?.as_f64())
    };
    match (num(&["decided"]), num(&["estimate", "median"])) {
        (Some(decided), Some(median)) => decided > 0.0 && CONGEST_BAND.contains(median, N),
        _ => false,
    }
}

/// A durable server on `dir` with the daemon's defaults and no device
/// flush, as `bcountd --state-dir dir --fsync off` opens it.
fn open_durable(dir: &Path) -> io::Result<Server> {
    let opts = DurabilityOptions {
        fsync: FsyncPolicy::Off,
        ..DurabilityOptions::new(dir)
    };
    Server::open_durable(&opts, ServerLimits::default(), false)
}

fn fresh_dir(dir: &Path) -> io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)
}

/// What one in-process pass measured; times in reference seconds or ms.
struct Pass {
    setup_s: f64,
    /// Sum of the loop's request times.
    loop_s: f64,
    /// Reference seconds of each timed recovery.
    recovery_s: Vec<f64>,
    replayed_rounds: u64,
    step_ms: Vec<f64>,
    query_ms: Vec<f64>,
    /// Reference time of the loop between each two probes.
    windows: Vec<f64>,
    /// FNV-1a digest of every reply, in request order (the recovered ones
    /// last), for the determinism check.
    digest: u64,
    /// The replies to the request sequence, when the caller keeps them.
    replies: Vec<String>,
    attempted: u64,
    failed: u64,
}

/// Folds `reply` into an FNV-1a digest.
fn fold(digest: u64, reply: &str) -> u64 {
    reply.bytes().chain([b'\n']).fold(digest, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// FNV-1a's offset basis.
const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// Runs one pass in a fresh `dir` (and `dir.short` for the timed
/// recoveries), recording a `daemon.handle_line` span per request of the
/// sequence and a `daemon.recovery.open` span per timed recovery. Only a
/// digest of the replies is kept, unless `keep`: a pass's replies take
/// megabytes, which would show in `peak_rss_mb`.
fn pass(
    dir: &Path,
    reqs: &[Req],
    keep: bool,
    rec: &mut Recorder,
    pace: &mut Pace,
) -> io::Result<Pass> {
    fresh_dir(dir)?;
    let finals = final_queries(reqs);
    let short = &reqs[..SESSIONS * (1 + SHORT_ITERATIONS * (1 + QUERIES_PER_STEP))];
    let mut pass = Pass {
        setup_s: 0.0,
        loop_s: 0.0,
        recovery_s: Vec::new(),
        replayed_rounds: 0,
        step_ms: Vec::new(),
        query_ms: Vec::new(),
        windows: Vec::new(),
        digest: FNV_BASIS,
        replies: Vec::new(),
        // Every request line, the final queries re-sent after the crash,
        // and the same for the short journal and each of its recoveries.
        attempted: (reqs.len() + finals.len() + short.len() + RECOVERIES * SESSIONS) as u64,
        failed: 0,
    };
    let record = |pass: &mut Pass, req: &Req, reply: &str| {
        if !reply_ok(req, reply) {
            pass.failed += 1;
            eprintln!("perfbench: request {} failed: {reply}", req.id);
        }
        pass.digest = fold(pass.digest, reply);
        if keep {
            pass.replies.push(reply.to_owned());
        }
    };

    let (creates, rest) = reqs.split_at(SESSIONS);
    let (mut server, replies, setup_s) = start_sessions(dir, creates, rec, pace)?;
    pass.setup_s = setup_s;
    for (req, reply) in creates.iter().zip(&replies) {
        record(&mut pass, req, reply);
    }

    let (mut step_ms, mut query_ms) = (Vec::new(), Vec::new());
    let mut before = Vec::with_capacity(finals.len());
    for (k, req) in rest.iter().enumerate() {
        if k % PROBE_EVERY == 0 {
            pace.probe();
        }
        let t = cpu_s();
        let span = rec.begin("daemon.handle_line", req.id);
        let reply = server.handle_line(&req.line);
        rec.end(span);
        let took = (cpu_s() - t) * 1e3;
        match req.method {
            Method::Step => step_ms.push((pace.epoch(), took)),
            _ => query_ms.push((pace.epoch(), took)),
        }
        record(&mut pass, req, &reply);
        if finals.contains(&(SESSIONS + k)) {
            before.push(reply);
        }
    }
    pace.probe();
    pass.step_ms = pace.to_ref_all(&step_ms);
    pass.query_ms = pace.to_ref_all(&query_ms);
    pass.windows = pace.window_sums(step_ms.iter().chain(&query_ms));
    pass.loop_s = (pass.step_ms.iter().sum::<f64>() + pass.query_ms.iter().sum::<f64>()) / 1e3;

    // Crash and recover: each session's last query, sent to the reopened
    // server, must get the same bytes back.
    drop(server);
    let mut server = open_durable(dir)?;
    for (&i, before) in finals.iter().zip(&before) {
        let after = server.handle_line(&reqs[i].line);
        if after != *before || !final_reply_ok(&after) {
            pass.failed += 1;
            eprintln!(
                "perfbench: recovered reply {after}\n  differs from {before}\n  or is out of band"
            );
        }
        pass.digest = fold(pass.digest, &after);
    }
    drop(server);

    let short_dir = dir.with_extension("short");
    let (mut server, before, failed) = crashed(&short_dir, short)?;
    pass.failed += failed;
    let finals = final_queries(short);
    for recovery in 0..RECOVERIES {
        drop(server);
        pace.probe();
        let t = cpu_s();
        server = rec.time("daemon.recovery.open", recovery as u64, || {
            open_durable(&short_dir)
        })?;
        let recovered: Vec<String> = finals
            .iter()
            .map(|&i| server.handle_line(&short[i].line))
            .collect();
        let took = cpu_s() - t;
        pace.probe();
        pass.recovery_s.push(pace.to_ref(pace.epoch() - 1, took));
        pass.replayed_rounds = server.recovery_stats().map_or(0, |s| s.replayed_rounds);
        if recovered != before {
            pass.failed += 1;
            eprintln!("perfbench: a recovered reply differs from the one before the crash");
        }
        pass.digest = recovered.iter().fold(pass.digest, |d, r| fold(d, r));
    }
    Ok(pass)
}

/// Sends `reqs` to a durable server on a fresh `dir` and returns it, to be
/// dropped as a crash, with the replies to each session's last query and
/// the number of failed requests.
fn crashed(dir: &Path, reqs: &[Req]) -> io::Result<(Server, Vec<String>, u64)> {
    fresh_dir(dir)?;
    let finals = final_queries(reqs);
    let mut server = open_durable(dir)?;
    let (mut before, mut failed) = (Vec::with_capacity(finals.len()), 0);
    for (i, req) in reqs.iter().enumerate() {
        let reply = server.handle_line(&req.line);
        if !reply_ok(req, &reply) {
            failed += 1;
            eprintln!("perfbench: request {} failed: {reply}", req.id);
        }
        if finals.contains(&i) {
            before.push(reply);
        }
    }
    Ok((server, before, failed))
}

/// Opens a durable server on the empty `dir` and sends the
/// `session.create` lines; returns the server, the replies and the
/// reference seconds from the open to the last reply.
fn start_sessions(
    dir: &Path,
    creates: &[Req],
    rec: &mut Recorder,
    pace: &mut Pace,
) -> io::Result<(Server, Vec<String>, f64)> {
    pace.probe();
    let t = cpu_s();
    let mut server = open_durable(dir)?;
    let replies = creates
        .iter()
        .map(|create| {
            rec.time("daemon.handle_line", create.id, || {
                server.handle_line(&create.line)
            })
        })
        .collect();
    let took = cpu_s() - t;
    pace.probe();
    Ok((server, replies, pace.to_ref(pace.epoch() - 1, took)))
}

/// Times [`SETUP_SAMPLES`] set-ups, each in a fresh `dir`.
fn setup_samples(dir: &Path, creates: &[Req], pace: &mut Pace) -> io::Result<Vec<f64>> {
    let mut off = Recorder::new(false);
    (0..SETUP_SAMPLES)
        .map(|_| {
            fresh_dir(dir)?;
            let (_server, replies, took) = start_sessions(dir, creates, &mut off, pace)?;
            for (create, reply) in creates.iter().zip(&replies) {
                if !reply_ok(create, reply) {
                    return Err(io::Error::other(format!("session.create failed: {reply}")));
                }
            }
            Ok(took)
        })
        .collect()
}

/// Removes the work directory when the run ends, however it ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs the workload within `seconds` (see [`Budget`]): timed passes, or
/// alternating untraced and traced passes followed by the socket pass and
/// the in-process split.
pub fn run(seed: u64, seconds: f64, trace: bool, rec: &mut Recorder) -> io::Result<Outcome> {
    let work = WorkDir(Path::new(WORK_DIR).join(format!("daemon-{}", std::process::id())));
    let reqs = requests(seed);
    let mut budget = Budget::new(seconds);
    let mut off = Recorder::new(false);
    let mut pace = Pace::new();
    let mut setups = if trace {
        Vec::new()
    } else {
        setup_samples(&work.0.join("setup"), &reqs[..SESSIONS], &mut pace)?
    };
    let (mut passes, mut traced) = (Vec::new(), Vec::new());
    let min_passes = if trace { 1 } else { MIN_PASSES };
    let dir = work.0.join("pass");
    while budget.another(passes.len(), min_passes) {
        let keep = trace && passes.is_empty();
        passes.push(pass(&dir, &reqs, keep, &mut off, &mut pace)?);
        if trace {
            traced.push(pass(&dir, &reqs, false, rec, &mut pace)?);
        }
    }

    pace.log();
    let mut attempted = 0;
    let mut failed = 0;
    for pass in passes.iter().chain(&traced) {
        attempted += pass.attempted;
        failed += pass.failed;
        // Same seed, same server: every pass must reply identically.
        if pass.digest != passes[0].digest {
            failed += 1;
            eprintln!("perfbench: a pass's replies differ from the first pass's");
        }
    }

    let metrics = if trace {
        let split = split(&work.0, &reqs, &passes[0].replies, rec)?;
        attempted += split.attempted;
        failed += split.failed;
        let traced_s: Vec<f64> = traced.iter().map(|p| p.loop_s).collect();
        let untraced_s: Vec<f64> = passes.iter().map(|p| p.loop_s).collect();
        let mut metrics = split.metrics;
        metrics.push(Metric::new(
            "daemon.recovery.replayed_rounds",
            passes[0].replayed_rounds as f64,
        ));
        metrics.extend(crate::overhead_metrics(
            median(&traced_s),
            median(&untraced_s),
        ));
        metrics
    } else {
        let mut stats = LoopStats::default();
        for pass in &passes {
            stats.add(
                &pass.step_ms,
                &pass.query_ms,
                pass.loop_s,
                pass.windows.clone(),
            );
        }
        setups.extend(passes.iter().map(|p| p.setup_s));
        let recoveries: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.recovery_s.iter().copied())
            .collect();
        let recovery_s = percentile(&recoveries, RECOVERY_PERCENTILE);
        let mut metrics = vec![
            Metric::new("setup_s", median(&setups)),
            Metric::new("peak_rss_mb", crate::peak_rss_mb()),
            Metric::new("recovery_s", recovery_s),
        ];
        metrics.extend(stats.metrics());
        metrics
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

/// A running `bcountd`; dropping it kills the process and waits for it.
struct Daemon {
    child: Child,
}

impl Daemon {
    fn spawn(bin: &Path, dir: &Path) -> io::Result<Daemon> {
        let child = Command::new(bin)
            .current_dir(dir)
            .args([
                "--socket",
                "d.sock",
                "--state-dir",
                "state",
                "--fsync",
                "off",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        Ok(Daemon { child })
    }

    /// Connects to the daemon's socket as soon as it listens.
    fn connect(&mut self, socket: &Path) -> io::Result<Client> {
        let start = Instant::now();
        loop {
            match UnixStream::connect(socket) {
                Ok(stream) => return Client::new(stream),
                Err(e) if start.elapsed() > TIMEOUT => return Err(e),
                Err(_) => {}
            }
            if let Some(status) = self.child.try_wait()? {
                return Err(io::Error::other(format!("bcountd exited early: {status}")));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// SIGKILL, then wait until the process is gone.
    fn kill(mut self) -> io::Result<()> {
        self.child.kill()?;
        self.child.wait()?;
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection: a request line out, a reply line back.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

impl Client {
    fn new(stream: UnixStream) -> io::Result<Client> {
        stream.set_read_timeout(Some(TIMEOUT))?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            line: String::new(),
        })
    }

    /// Sends `request` (one line, newline included) and reads the reply.
    fn call(&mut self, request: &str) -> io::Result<&str> {
        self.writer.write_all(request.as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "bcountd closed the connection",
            ));
        }
        Ok(self.line.trim_end())
    }
}

/// Sends the whole sequence to the release `bcountd` over its socket in
/// `dir`, then SIGKILLs it, restarts it on the same state directory and
/// sends each session's last query again. Every reply must match `expected` (the
/// in-process pass's) byte for byte. Returns the client latency (wall ms)
/// of every request of the sequence, by id, and the failures.
fn socket_pass(
    bin: &Path,
    dir: &Path,
    reqs: &[Req],
    expected: &[String],
    rec: &mut Recorder,
) -> io::Result<(Vec<(u64, f64)>, u64)> {
    fresh_dir(dir)?;
    let socket = dir.join("d.sock");
    let mut daemon = Daemon::spawn(bin, dir)?;
    let mut client = daemon.connect(&socket)?;
    let mut failed = 0;
    let mut latency_ms = Vec::with_capacity(reqs.len());
    for (req, want) in reqs.iter().zip(expected) {
        let t = Instant::now();
        let span = rec.begin("client.request", req.id);
        let reply = client.call(&req.line)?;
        rec.end(span);
        latency_ms.push((req.id, ms(t.elapsed())));
        if reply != want {
            failed += 1;
            eprintln!(
                "perfbench: socket reply to {} differs from the in-process one",
                req.id
            );
        }
    }
    drop(client);
    daemon.kill()?;
    let mut daemon = Daemon::spawn(bin, dir)?;
    let mut client = daemon.connect(&socket)?;
    for i in final_queries(reqs) {
        if client.call(&reqs[i].line)? != expected[i] {
            failed += 1;
            eprintln!(
                "perfbench: bcountd's recovered reply to {} differs",
                reqs[i].id
            );
        }
    }
    drop(client);
    daemon.kill()?;
    Ok((latency_ms, failed))
}

/// The rest of the traced run: the socket pass against the release
/// `bcountd`, the same lines through a server without a journal, and the
/// wire parse and render on their own; `expected` holds the replies of an
/// in-process pass.
fn split(
    work: &Path,
    reqs: &[Req],
    expected: &[String],
    rec: &mut Recorder,
) -> io::Result<Outcome> {
    let bin = std::env::current_exe()?.with_file_name("bcountd");
    if !bin.exists() {
        return Err(io::Error::other(format!(
            "{} not found; build it with perfbench/run.sh",
            bin.display()
        )));
    }
    let (latency_ms, mut failed) = socket_pass(&bin, &work.join("socket"), reqs, expected, rec)?;

    let mut plain = Server::new();
    for req in reqs {
        rec.time("daemon.handle_line.no_journal", req.id, || {
            plain.handle_line(&req.line)
        });
    }
    for req in reqs {
        let parsed = rec.time("daemon.wire.parse", req.id, || {
            Json::parse(&req.line).map(|json| Request::from_json(&json))
        });
        if !matches!(parsed, Ok(Ok(_))) {
            failed += 1;
        }
    }
    let last = reqs.last().expect("the sequence is never empty");
    let result = Json::parse(&expected[reqs.len() - 1])
        .ok()
        .and_then(|j| j.get("result").cloned())
        .ok_or_else(|| io::Error::other("the last query reply has no result"))?;
    let response = Response::ok(last.id, result);
    for _ in 0..RENDER_SAMPLES {
        std::hint::black_box(rec.time("daemon.wire.render", last.id, || response.render_line()));
    }

    // The durable handling of the last traced pass, one span per request.
    let all = rec.durations_by_id_ms("daemon.handle_line");
    let handled = &all[all.len() - reqs.len()..];
    let of = |method: Method, samples: &[(u64, f64)]| -> Vec<f64> {
        samples
            .iter()
            .filter(|(id, _)| reqs[*id as usize - 1].method == method)
            .map(|&(_, v)| v)
            .collect()
    };
    let durable_step = of(Method::Step, &all);
    let plain_step = of(
        Method::Step,
        &rec.durations_by_id_ms("daemon.handle_line.no_journal"),
    );
    // Client latency minus in-process handling, request by request.
    let overhead: Vec<(u64, f64)> = latency_ms
        .iter()
        .zip(handled)
        .map(|(&(id, client), &(_, inside))| (id, client - inside))
        .collect();
    Ok(Outcome {
        // The socket requests, the recovered ones, and the parses.
        attempted: (reqs.len() * 2 + SESSIONS) as u64,
        failed,
        metrics: vec![
            Metric::new("daemon.handle_ms.create", median(&of(Method::Create, &all))),
            Metric::new("daemon.handle_ms.step", median(&durable_step)),
            Metric::new("daemon.handle_ms.query", median(&of(Method::Query, &all))),
            Metric::new(
                "daemon.journal_ms",
                median(&durable_step) - median(&plain_step),
            ),
            Metric::new(
                "daemon.wire.parse_us",
                median(&rec.durations_ms("daemon.wire.parse")) * 1e3,
            ),
            Metric::new(
                "daemon.wire.render_us",
                median(&rec.durations_ms("daemon.wire.render")) * 1e3,
            ),
            Metric::new(
                "transport.overhead_ms.step",
                median(&of(Method::Step, &overhead)),
            ),
            Metric::new(
                "transport.overhead_ms.query",
                median(&of(Method::Query, &overhead)),
            ),
            Metric::new(
                "daemon.recovery.open_s",
                median(&rec.durations_ms("daemon.recovery.open")) / 1e3,
            ),
        ],
    })
}

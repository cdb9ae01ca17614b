//! Recovery tests for the `--state-dir` durability plane — the PR's
//! acceptance criterion lives here: a crash at **any** byte offset of
//! the journal, followed by a restart on the same state dir, must
//! recover without panicking, must never resurrect a half-applied step,
//! and must leave every surviving session byte-identical to an
//! uninterrupted run.
//!
//! The oracle is determinism itself: an independent scan of the
//! corrupted journal computes which applied records survive, and a
//! fresh (non-durable) server replaying exactly those commands must
//! produce the same `session.query` bytes as the recovered server.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use bcount_daemon::journal::{crc32, JOURNAL_FILE};
use bcount_daemon::server::{DurabilityOptions, ServerLimits};
use bcount_daemon::{FsyncPolicy, Server};
use bcount_json::Json;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A unique scratch state dir (tests in this binary run in parallel).
fn scratch_dir(tag: &str) -> PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "bcountd-recovery-{tag}-{}-{seq}",
        std::process::id()
    ))
}

fn durable_opts(dir: &Path, checkpoint_every: u64) -> DurabilityOptions {
    DurabilityOptions {
        state_dir: dir.to_path_buf(),
        // Off: these tests model process crashes (the bytes written so
        // far survive), not machine crashes, and skip the fsync cost.
        fsync: FsyncPolicy::Off,
        checkpoint_every,
    }
}

fn open(dir: &Path, checkpoint_every: u64) -> Server {
    Server::open_durable(
        &durable_opts(dir, checkpoint_every),
        ServerLimits::default(),
        true,
    )
    .expect("open_durable must succeed on any journal content")
}

fn result(line: &str) -> Json {
    let json = Json::parse(line).expect("response must parse");
    json.get("result")
        .cloned()
        .unwrap_or_else(|| panic!("expected a result reply, got: {line}"))
}

fn get_u64(json: &Json, key: &str) -> u64 {
    json.get(key)
        .and_then(Json::as_num)
        .and_then(|n| n.as_u64())
        .unwrap_or_else(|| panic!("missing u64 '{key}' in {json:?}"))
}

const CREATE: &str = r#"{"id":1,"method":"session.create","params":{"n":8,"protocol":"geometric-max","budget":4,"max_rounds":64,"seed":11}}"#;

fn step_line(id: u64, session: u64, rounds: u64) -> String {
    format!(
        r#"{{"id":{id},"method":"session.step","params":{{"session":{session},"rounds":{rounds}}}}}"#
    )
}

fn query_line(id: u64, session: u64) -> String {
    format!(r#"{{"id":{id},"method":"session.query","params":{{"session":{session}}}}}"#)
}

/// The independent journal scan: how many rounds the one test session
/// has committed according to the valid prefix of `bytes`, and whether
/// it exists at all. Mirrors the load rules (newline-terminated,
/// CRC-valid, parseable, strictly increasing LSN) with none of the
/// production code.
fn oracle_scan(bytes: &[u8]) -> (bool, u64) {
    let mut exists = false;
    let mut rounds = 0u64;
    let mut prev_lsn = 0u64;
    let mut offset = 0usize;
    while offset < bytes.len() {
        let Some(nl) = bytes[offset..].iter().position(|&b| b == b'\n') else {
            break;
        };
        let Ok(line) = std::str::from_utf8(&bytes[offset..offset + nl]) else {
            break;
        };
        let Some((crc_hex, payload)) = line.split_once(' ') else {
            break;
        };
        if crc_hex.len() != 8 {
            break;
        }
        let Ok(want) = u32::from_str_radix(crc_hex, 16) else {
            break;
        };
        if crc32(payload.as_bytes()) != want {
            break;
        }
        let Ok(json) = Json::parse(payload) else {
            break;
        };
        let lsn = get_u64(&json, "lsn");
        if lsn <= prev_lsn {
            break;
        }
        prev_lsn = lsn;
        let kind = json.get("kind").and_then(Json::as_str).unwrap_or("");
        let op = json.get("op").and_then(Json::as_str).unwrap_or("");
        // Only applied records count — an intent with no applied is a
        // request that never committed.
        if kind == "applied" {
            match op {
                "create" => exists = true,
                "step" => rounds += get_u64(&json, "stepped"),
                "close" | "evict" => exists = false,
                _ => {}
            }
        }
        offset += nl + 1;
    }
    (exists, rounds)
}

/// Steps a fresh in-memory server to `rounds` and returns the rendered
/// `session.query` result — the uninterrupted-run reference.
fn reference_query(rounds: u64) -> String {
    let mut server = Server::frozen(ServerLimits::default());
    let created = result(&server.handle_line(CREATE));
    let session = get_u64(&created, "session");
    if rounds > 0 {
        result(&server.handle_line(&step_line(2, session, rounds)));
    }
    result(&server.handle_line(&query_line(3, session)))
        .render()
        .unwrap()
}

/// Builds a journal with one create and several steps (no checkpoint),
/// returning its raw bytes.
fn seed_journal(dir: &Path) -> Vec<u8> {
    let mut server = open(dir, u64::MAX);
    let created = result(&server.handle_line(CREATE));
    let session = get_u64(&created, "session");
    for i in 0..4u64 {
        result(&server.handle_line(&step_line(2 + i, session, 2)));
    }
    drop(server);
    fs::read(dir.join(JOURNAL_FILE)).expect("journal written")
}

/// THE acceptance criterion: truncate the journal at every byte offset
/// (a crash can land anywhere), recover, and demand (a) no panic,
/// (b) exactly the oracle's surviving state — a step whose applied
/// record is torn must not resurrect — and (c) `session.query` bytes
/// identical to an uninterrupted run of the surviving rounds.
#[test]
fn recovery_survives_truncation_at_every_byte_offset() {
    let seed_dir = scratch_dir("trunc-seed");
    let journal = seed_journal(&seed_dir);
    fs::remove_dir_all(&seed_dir).ok();
    assert!(journal.len() > 100, "seed journal is non-trivial");

    let dir = scratch_dir("trunc");
    let mut reference_cache: std::collections::BTreeMap<u64, String> = Default::default();
    for cut in 0..=journal.len() {
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(JOURNAL_FILE), &journal[..cut]).unwrap();
        let (exists, rounds) = oracle_scan(&journal[..cut]);
        let mut server = open(&dir, u64::MAX);
        let stats = *server.recovery_stats().expect("durable server has stats");
        assert_eq!(
            stats.recovered_sessions,
            usize::from(exists),
            "cut at byte {cut}: oracle says exists={exists}"
        );
        if exists {
            let query = result(&server.handle_line(&query_line(90, 1)))
                .render()
                .unwrap();
            let reference = reference_cache
                .entry(rounds)
                .or_insert_with(|| reference_query(rounds));
            assert_eq!(
                &query, reference,
                "cut at byte {cut}: recovered session must be byte-identical \
                 to an uninterrupted run of {rounds} round(s)"
            );
        }
        drop(server);
        fs::remove_dir_all(&dir).ok();
    }
}

/// Corruption flavor of the same criterion: flip every single byte in
/// place. Recovery must never panic, and the recovered state must match
/// the oracle's scan of the corrupted bytes (the CRC framing turns any
/// flip into a clean end-of-prefix).
#[test]
fn recovery_survives_a_flip_at_every_byte_offset() {
    let seed_dir = scratch_dir("flip-seed");
    let journal = seed_journal(&seed_dir);
    fs::remove_dir_all(&seed_dir).ok();

    let dir = scratch_dir("flip");
    let mut reference_cache: std::collections::BTreeMap<u64, String> = Default::default();
    for pos in 0..journal.len() {
        let mut corrupted = journal.clone();
        corrupted[pos] ^= 0x20; // case-flip-ish: stays printable, still detected
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(JOURNAL_FILE), &corrupted).unwrap();
        let (exists, rounds) = oracle_scan(&corrupted);
        let mut server = open(&dir, u64::MAX);
        assert_eq!(
            server.recovery_stats().unwrap().recovered_sessions,
            usize::from(exists),
            "flip at byte {pos}: oracle says exists={exists}"
        );
        if exists {
            let query = result(&server.handle_line(&query_line(90, 1)))
                .render()
                .unwrap();
            let reference = reference_cache
                .entry(rounds)
                .or_insert_with(|| reference_query(rounds));
            assert_eq!(
                &query, reference,
                "flip at byte {pos}: recovered state must match the surviving prefix"
            );
        }
        drop(server);
        fs::remove_dir_all(&dir).ok();
    }
}

/// Crash/reopen/continue: for several crash points k, replay the first
/// k requests durably, "crash" (drop the server), recover, run the
/// remaining requests, and demand the final query is byte-identical to
/// the uninterrupted run — the end-to-end shape of the CI smoke job.
#[test]
fn interrupted_runs_converge_to_the_uninterrupted_bytes() {
    let steps: Vec<String> = (0..6u64).map(|i| step_line(2 + i, 1, 2)).collect();

    // Uninterrupted reference.
    let mut reference = Server::frozen(ServerLimits::default());
    result(&reference.handle_line(CREATE));
    for s in &steps {
        result(&reference.handle_line(s));
    }
    let golden = result(&reference.handle_line(&query_line(50, 1)))
        .render()
        .unwrap();

    for crash_after in 0..=steps.len() {
        let dir = scratch_dir("continue");
        let mut server = open(&dir, u64::MAX);
        result(&server.handle_line(CREATE));
        for s in &steps[..crash_after] {
            result(&server.handle_line(s));
        }
        drop(server); // SIGKILL stand-in: no shutdown path runs

        let mut revived = open(&dir, u64::MAX);
        let stats = *revived.recovery_stats().unwrap();
        assert_eq!(stats.recovered_sessions, 1);
        assert_eq!(stats.snapshot_mismatches, 0);
        for s in &steps[crash_after..] {
            result(&revived.handle_line(s));
        }
        let query = result(&revived.handle_line(&query_line(50, 1)))
            .render()
            .unwrap();
        assert_eq!(
            query, golden,
            "crash after {crash_after} step request(s) must converge to the golden bytes"
        );
        fs::remove_dir_all(&dir).ok();
    }
}

/// Checkpoints: a small `checkpoint_every` compacts the journal, the
/// reopened server reports `from_checkpoint`, verifies the snapshot
/// anchor, and keeps serving byte-identically.
#[test]
fn checkpoint_compacts_and_recovers_exactly() {
    let dir = scratch_dir("ckpt");
    let mut server = open(&dir, 3);
    result(&server.handle_line(CREATE));
    for i in 0..5u64 {
        result(&server.handle_line(&step_line(2 + i, 1, 1)));
    }
    drop(server);
    // 1 create + 5 steps = 6 applied records with checkpoint_every=3:
    // at least one checkpoint fired, so the journal holds fewer records
    // than the full history.
    let journal = fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap();
    assert!(
        journal.lines().count() < 12,
        "checkpoint must have truncated the journal:\n{journal}"
    );
    assert!(dir.join("checkpoint.json").exists());

    let mut revived = open(&dir, 3);
    let stats = *revived.recovery_stats().unwrap();
    assert!(stats.from_checkpoint);
    assert_eq!(stats.recovered_sessions, 1);
    assert_eq!(stats.snapshot_mismatches, 0, "anchor must verify");
    let query = result(&revived.handle_line(&query_line(50, 1)))
        .render()
        .unwrap();
    assert_eq!(query, reference_query(5));
    fs::remove_dir_all(&dir).ok();
}

/// A corrupt checkpoint is ignored (recovery falls back to whatever the
/// journal still holds) — never a refusal to start.
#[test]
fn corrupt_checkpoint_never_blocks_startup() {
    let dir = scratch_dir("badckpt");
    let mut server = open(&dir, 2);
    result(&server.handle_line(CREATE));
    for i in 0..4u64 {
        result(&server.handle_line(&step_line(2 + i, 1, 1)));
    }
    drop(server);
    fs::write(dir.join("checkpoint.json"), b"garbage, not a checkpoint\n").unwrap();
    let revived = open(&dir, 2); // must not panic or refuse
    let stats = *revived.recovery_stats().unwrap();
    assert!(!stats.from_checkpoint, "garbage checkpoint must be ignored");
    fs::remove_dir_all(&dir).ok();
}

/// Poison is durable state: a session that panicked recovers *poisoned*
/// — it refuses steps and queries exactly like before the crash, at the
/// same committed round.
#[test]
fn poisoned_sessions_recover_poisoned() {
    let dir = scratch_dir("poison");
    let mut server = open(&dir, u64::MAX);
    result(&server.handle_line(
        r#"{"id":1,"method":"session.create","params":{"n":8,"protocol":"panic-probe","panic_at":3,"seed":11}}"#,
    ));
    result(&server.handle_line(&step_line(2, 1, 2))); // rounds 1-2: fine
    let reply = server.handle_line(&step_line(3, 1, 5)); // round 3 panics
    assert!(reply.contains("session-poisoned"), "got: {reply}");
    drop(server);

    let mut revived = open(&dir, u64::MAX);
    assert_eq!(revived.recovery_stats().unwrap().recovered_sessions, 1);
    let reply = revived.handle_line(&step_line(4, 1, 1));
    assert!(
        reply.contains("session-poisoned"),
        "poison must survive recovery: {reply}"
    );
    let listing = result(&revived.handle_line(r#"{"id":5,"method":"session.list"}"#));
    let sessions = listing.get("sessions").and_then(Json::as_arr).unwrap();
    assert_eq!(sessions.len(), 1);
    assert_eq!(
        sessions[0].get("poisoned").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        sessions[0].get("recovered").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(get_u64(&sessions[0], "rounds"), 2, "committed rounds only");
    fs::remove_dir_all(&dir).ok();
}

/// `daemon.info` on a durable server: durability feature advertised,
/// journal stats live, recovery stats populated.
#[test]
fn daemon_info_reports_journal_and_recovery() {
    let dir = scratch_dir("info");
    let mut server = open(&dir, 100);
    result(&server.handle_line(CREATE));
    let info = result(&server.handle_line(r#"{"id":2,"method":"daemon.info"}"#));
    let features: Vec<&str> = info
        .get("features")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert!(features.contains(&"durability"));
    let journal = info.get("journal").expect("journal stats");
    assert_eq!(journal.get("fsync").and_then(Json::as_str), Some("off"));
    assert_eq!(get_u64(journal, "checkpoint_every"), 100);
    assert_eq!(get_u64(journal, "lsn"), 1, "create wrote one record");
    let recovery = info.get("recovery").expect("recovery stats");
    assert_eq!(get_u64(recovery, "recovered_sessions"), 0);
    drop(server);

    let mut revived = open(&dir, 100);
    let info = result(&revived.handle_line(r#"{"id":3,"method":"daemon.info"}"#));
    let recovery = info.get("recovery").unwrap();
    assert_eq!(get_u64(recovery, "recovered_sessions"), 1);
    assert_eq!(get_u64(recovery, "replayed_records"), 1);
    fs::remove_dir_all(&dir).ok();
}

/// One journal line per committed mutation: create + 3 steps + close
/// append five records, and `daemon.info` reports the fifth LSN.
#[test]
fn each_mutation_appends_exactly_one_record() {
    let dir = scratch_dir("one-record");
    let mut server = open(&dir, u64::MAX);
    result(&server.handle_line(CREATE));
    for i in 0..3u64 {
        result(&server.handle_line(&step_line(2 + i, 1, 2)));
    }
    result(&server.handle_line(r#"{"id":5,"method":"session.close","params":{"session":1}}"#));
    let journal = fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap();
    assert_eq!(journal.lines().count(), 5, "journal:\n{journal}");
    let info = result(&server.handle_line(r#"{"id":6,"method":"daemon.info"}"#));
    assert_eq!(get_u64(info.get("journal").unwrap(), "lsn"), 5);
    fs::remove_dir_all(&dir).ok();
}

/// Frames `payload` the way the journal does: lowercase-hex CRC-32 of
/// the payload, one space, the payload, a newline.
fn framed(payload: &str) -> String {
    format!("{:08x} {payload}\n", crc32(payload.as_bytes()))
}

/// The journal an older build wrote for `CREATE` and then steps of 1 and
/// 2 rounds: an `intent` line before each `applied` one.
fn journal_with_intents() -> String {
    let params = r#"{"n":8,"protocol":"geometric-max","budget":4,"max_rounds":64,"seed":11}"#;
    [
        format!(r#"{{"lsn":1,"kind":"intent","op":"create","params":{params}}}"#),
        format!(r#"{{"lsn":2,"kind":"applied","op":"create","session":1,"params":{params}}}"#),
        r#"{"lsn":3,"kind":"intent","op":"step","session":1,"rounds":1}"#.to_owned(),
        r#"{"lsn":4,"kind":"applied","op":"step","session":1,"stepped":1}"#.to_owned(),
        r#"{"lsn":5,"kind":"intent","op":"step","session":1,"rounds":2}"#.to_owned(),
        r#"{"lsn":6,"kind":"applied","op":"step","session":1,"stepped":2}"#.to_owned(),
    ]
    .iter()
    .map(|payload| framed(payload))
    .collect()
}

/// A journal with interleaved intent and applied lines still recovers:
/// the intents are skipped, the applied records replay, and the session
/// answers byte-identically to an uninterrupted run of the same rounds.
/// New records continue after the intents' LSNs.
#[test]
fn journals_with_intent_lines_recover_exactly() {
    let dir = scratch_dir("intents");
    fs::create_dir_all(&dir).unwrap();
    let journal = journal_with_intents();
    fs::write(dir.join(JOURNAL_FILE), &journal).unwrap();
    assert_eq!(oracle_scan(journal.as_bytes()), (true, 3));

    let mut server = open(&dir, u64::MAX);
    let stats = *server.recovery_stats().unwrap();
    assert_eq!(stats.recovered_sessions, 1);
    assert_eq!(stats.replayed_records, 3);
    assert_eq!(stats.replayed_rounds, 3);
    assert_eq!(stats.truncated_bytes, 0);
    let query = result(&server.handle_line(&query_line(50, 1)))
        .render()
        .unwrap();
    assert_eq!(query, reference_query(3));

    result(&server.handle_line(&step_line(51, 1, 1)));
    let info = result(&server.handle_line(r#"{"id":52,"method":"daemon.info"}"#));
    assert_eq!(get_u64(info.get("journal").unwrap(), "lsn"), 7);
    drop(server);
    let mut revived = open(&dir, u64::MAX);
    let query = result(&revived.handle_line(&query_line(53, 1)))
        .render()
        .unwrap();
    assert_eq!(query, reference_query(4));
    fs::remove_dir_all(&dir).ok();
}

/// A torn intent line at the tail is a torn record like any other: the
/// journal is truncated there and everything before it recovers.
#[test]
fn a_torn_intent_line_truncates_the_tail() {
    let dir = scratch_dir("torn-intent");
    fs::create_dir_all(&dir).unwrap();
    let journal = journal_with_intents();
    let torn = framed(r#"{"lsn":7,"kind":"intent","op":"step","session":1,"rounds":4}"#);
    let torn = &torn[..torn.len() - 10];
    fs::write(dir.join(JOURNAL_FILE), journal.clone() + torn).unwrap();

    let mut server = open(&dir, u64::MAX);
    let stats = *server.recovery_stats().unwrap();
    assert_eq!(stats.recovered_sessions, 1);
    assert_eq!(stats.truncated_bytes, torn.len() as u64);
    let on_disk = fs::read(dir.join(JOURNAL_FILE)).unwrap();
    assert_eq!(on_disk, journal.as_bytes(), "the torn tail is cut away");
    let query = result(&server.handle_line(&query_line(50, 1)))
        .render()
        .unwrap();
    assert_eq!(query, reference_query(3));
    fs::remove_dir_all(&dir).ok();
}

//! Hardening tests for `bcountd`: panic isolation (the acceptance
//! criterion — a deliberately panicking protocol session leaves the
//! daemon serving other sessions), resource caps, idle eviction, step
//! timeouts, line caps, fault-plan specs over the wire, and graceful
//! shutdown.

use std::io::Cursor;
use std::sync::Arc;

use bcount_daemon::server::ServerLimits;
use bcount_daemon::{serve_graceful, Server, Shutdown};
use bcount_json::Json;

/// Parses a response line, asserts the schema tag, returns the `result`.
fn result(line: &str) -> Json {
    let json = Json::parse(line).expect("response must parse");
    assert_eq!(
        json.get("schema").and_then(Json::as_str),
        Some("bcountd/v1"),
        "every reply carries the schema tag: {line}"
    );
    json.get("result")
        .cloned()
        .unwrap_or_else(|| panic!("expected a result reply, got: {line}"))
}

/// Parses a response line, returns `(id, error code)`.
fn error_code(line: &str) -> (Option<u64>, String) {
    let json = Json::parse(line).expect("response must parse");
    let id = json
        .get("id")
        .and_then(Json::as_num)
        .and_then(|n| n.as_u64());
    let code = json
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("expected an error reply, got: {line}"))
        .to_string();
    (id, code)
}

fn get_u64(json: &Json, key: &str) -> u64 {
    json.get(key)
        .and_then(Json::as_num)
        .and_then(|n| n.as_u64())
        .unwrap_or_else(|| panic!("missing u64 '{key}' in {json:?}"))
}

fn frozen() -> Server {
    Server::frozen(ServerLimits::default())
}

/// The acceptance-criterion pin: a panic-probe session poisons itself on
/// step, while a healthy session created before it keeps stepping and
/// the daemon keeps answering — panic isolation is per-session.
#[test]
fn panicking_session_leaves_the_daemon_serving_others() {
    let mut server = frozen();

    let healthy = result(&server.handle_line(
        r#"{"id":1,"method":"session.create","params":{"n":32,"protocol":"geometric-max","budget":5,"seed":3}}"#,
    ));
    let healthy_id = get_u64(&healthy, "session");

    let probe = result(&server.handle_line(
        r#"{"id":2,"method":"session.create","params":{"n":8,"protocol":"panic-probe","panic_at":2,"seed":3}}"#,
    ));
    let probe_id = get_u64(&probe, "session");

    // Round 1 is below panic_at: the probe steps fine.
    let stepped = result(&server.handle_line(&format!(
        r#"{{"id":3,"method":"session.step","params":{{"session":{probe_id},"rounds":1}}}}"#
    )));
    assert_eq!(get_u64(&stepped, "stepped"), 1);

    // Round 2 trips the panic: structured poison reply, not a crash.
    let (id, code) = error_code(&server.handle_line(&format!(
        r#"{{"id":4,"method":"session.step","params":{{"session":{probe_id},"rounds":5}}}}"#
    )));
    assert_eq!((id, code.as_str()), (Some(4), "session-poisoned"));

    // Poison is sticky: steps and queries keep failing structurally.
    let (_, code) = error_code(&server.handle_line(&format!(
        r#"{{"id":5,"method":"session.step","params":{{"session":{probe_id}}}}}"#
    )));
    assert_eq!(code, "session-poisoned");
    let (_, code) = error_code(&server.handle_line(&format!(
        r#"{{"id":6,"method":"session.query","params":{{"session":{probe_id}}}}}"#
    )));
    assert_eq!(code, "session-poisoned");

    // The healthy session is untouched: it steps to completion.
    let stepped = result(&server.handle_line(&format!(
        r#"{{"id":7,"method":"session.step","params":{{"session":{healthy_id},"rounds":1000}}}}"#
    )));
    assert!(get_u64(&stepped, "stepped") > 0);
    assert!(
        stepped
            .get("snapshot")
            .and_then(|s| s.get("stop"))
            .is_some(),
        "healthy session ran to its stop condition"
    );

    // session.list shows the degraded session.
    let listing = result(&server.handle_line(r#"{"id":8,"method":"session.list"}"#));
    let sessions = listing.get("sessions").and_then(Json::as_arr).unwrap();
    assert_eq!(sessions.len(), 2);
    for s in sessions {
        let poisoned = s.get("poisoned").and_then(Json::as_bool).unwrap();
        assert_eq!(poisoned, get_u64(s, "session") == probe_id);
        assert!(s.get("rounds").is_some() && s.get("idle_ms").is_some());
    }

    // Closing the poisoned session works and frees the slot.
    result(&server.handle_line(&format!(
        r#"{{"id":9,"method":"session.close","params":{{"session":{probe_id}}}}}"#
    )));
    assert_eq!(server.session_count(), 1);
}

/// Resource caps reply with `resource-limit` — never a panic, never a
/// half-created session — and closing a session frees its slot.
#[test]
fn resource_limits_reply_structurally() {
    let mut server = Server::frozen(ServerLimits {
        max_sessions: 2,
        max_n: 256,
        ..ServerLimits::default()
    });

    // Over the node cap: refused before any allocation.
    let (id, code) = error_code(&server.handle_line(
        r#"{"id":1,"method":"session.create","params":{"n":257,"protocol":"geometric-max"}}"#,
    ));
    assert_eq!((id, code.as_str()), (Some(1), "resource-limit"));
    assert_eq!(server.session_count(), 0);

    // Fill the table.
    for i in 0..2 {
        result(&server.handle_line(&format!(
            r#"{{"id":{},"method":"session.create","params":{{"n":16,"protocol":"geometric-max","budget":4}}}}"#,
            2 + i
        )));
    }
    let (_, code) = error_code(&server.handle_line(
        r#"{"id":4,"method":"session.create","params":{"n":16,"protocol":"geometric-max"}}"#,
    ));
    assert_eq!(code.as_str(), "resource-limit");
    assert_eq!(server.session_count(), 2);

    // Closing one frees a slot.
    result(&server.handle_line(r#"{"id":5,"method":"session.close","params":{"session":1}}"#));
    result(&server.handle_line(
        r#"{"id":6,"method":"session.create","params":{"n":16,"protocol":"geometric-max"}}"#,
    ));
    assert_eq!(server.session_count(), 2);
}

/// The node cap applies to the size the family will generate, not the
/// size requested: the torus rounds `n = 250` up to a 16 × 16 = 256-node
/// grid, so a 250-node cap refuses it, and admits the 225-node torus
/// `n = 230` rounds down to.
#[test]
fn node_cap_checks_the_resolved_size() {
    let mut server = Server::frozen(ServerLimits {
        max_n: 250,
        ..ServerLimits::default()
    });
    let (id, code) = error_code(&server.handle_line(
        r#"{"id":1,"method":"session.create","params":{"n":250,"family":"torus2d","protocol":"geometric-max"}}"#,
    ));
    assert_eq!((id, code.as_str()), (Some(1), "resource-limit"));
    assert_eq!(server.session_count(), 0);

    let created = result(&server.handle_line(
        r#"{"id":2,"method":"session.create","params":{"n":230,"family":"torus2d","protocol":"geometric-max"}}"#,
    ));
    let spec = created.get("spec").expect("spec echo");
    assert_eq!(get_u64(spec, "n"), 225);

    // A torus side too large to square saturates above every cap rather
    // than overflowing (a panic in debug, a wrapped size in release).
    let (id, code) = error_code(&server.handle_line(
        r#"{"id":3,"method":"session.create","params":{"n":18446744073709551615,"family":"torus2d","protocol":"geometric-max"}}"#,
    ));
    assert_eq!((id, code.as_str()), (Some(3), "resource-limit"));
}

/// Knobs that size work are bounded at parse time: `exhaustive_limit`
/// (a `2^|view|` enumeration inside one round) is capped, and parameters
/// the registry fixes (the phantom world's `multiplier`, `d_fake`, …)
/// are not read from the wire at all.
#[test]
fn work_sizing_knobs_are_bounded() {
    let mut server = Server::frozen(ServerLimits::default());
    let (id, code) = error_code(&server.handle_line(
        r#"{"id":1,"method":"session.create","params":{"n":64,"protocol":"local","exhaustive_limit":63}}"#,
    ));
    assert_eq!((id, code.as_str()), (Some(1), "bad-spec"));
    assert_eq!(server.session_count(), 0);

    let created = result(&server.handle_line(
        r#"{"id":2,"method":"session.create","params":{"n":64,"protocol":"local","adversary":"fake-expander","byzantine":2,"multiplier":1000000000000,"d_fake":1000000,"entries":1000000,"max_rounds":3}}"#,
    ));
    let session = get_u64(&created, "session");
    let stepped = result(&server.handle_line(&format!(
        r#"{{"id":3,"method":"session.step","params":{{"session":{session},"rounds":3}}}}"#
    )));
    assert_eq!(get_u64(&stepped, "stepped"), 3);
}

/// Idle eviction under the frozen clock: sessions idle past the timeout
/// vanish at the next request; fresh activity resets the deadline.
#[test]
fn idle_sessions_are_evicted() {
    let mut server = Server::frozen(ServerLimits {
        idle_timeout_ms: 1000,
        ..ServerLimits::default()
    });
    result(&server.handle_line(
        r#"{"id":1,"method":"session.create","params":{"n":16,"protocol":"geometric-max","budget":4}}"#,
    ));
    result(&server.handle_line(
        r#"{"id":2,"method":"session.create","params":{"n":16,"protocol":"geometric-max","budget":4}}"#,
    ));

    // Touch session 1 at t=600 so its idle clock restarts.
    server.advance_clock_ms(600);
    result(&server.handle_line(r#"{"id":3,"method":"session.query","params":{"session":1}}"#));

    // At t=1100, session 2 (idle 1100ms) is evicted, session 1 (idle
    // 500ms) survives.
    server.advance_clock_ms(500);
    let listing = result(&server.handle_line(r#"{"id":4,"method":"session.list"}"#));
    let sessions = listing.get("sessions").and_then(Json::as_arr).unwrap();
    assert_eq!(sessions.len(), 1);
    assert_eq!(get_u64(&sessions[0], "session"), 1);
    assert_eq!(get_u64(&sessions[0], "idle_ms"), 500);

    let (_, code) = error_code(
        &server.handle_line(r#"{"id":5,"method":"session.step","params":{"session":2}}"#),
    );
    assert_eq!(code, "unknown-session");
}

/// Step timeout: a never-halting session under a 1ms wall-clock budget
/// cannot run its full requested batch; the reply reports partial
/// progress and `timed_out: true`, and the session stays healthy. (The
/// manual clock cannot tick mid-step, so this test uses the wall
/// clock; the deadline is checked between rounds, so it is exact up to
/// one round's work.)
#[test]
fn step_timeout_returns_partial_progress() {
    let mut server = Server::with_limits(ServerLimits {
        step_timeout_ms: 1,
        idle_timeout_ms: 0,
        ..ServerLimits::default()
    });
    // A panic-probe that never trips never halts (and never decides),
    // so only the timeout can end a 10^6-round batch early.
    result(&server.handle_line(
        r#"{"id":1,"method":"session.create","params":{"n":512,"protocol":"panic-probe","panic_at":4000000000,"max_rounds":1000000,"seed":5}}"#,
    ));
    let step = result(&server.handle_line(
        r#"{"id":2,"method":"session.step","params":{"session":1,"rounds":1000000}}"#,
    ));
    assert_eq!(
        step.get("timed_out").and_then(Json::as_bool),
        Some(true),
        "a 1ms budget must trip on a 10^6-round request: {step:?}"
    );
    assert!(get_u64(&step, "stepped") < 1_000_000);
    // The session is NOT poisoned — stepping again makes more progress.
    let again = result(
        &server
            .handle_line(r#"{"id":3,"method":"session.step","params":{"session":1,"rounds":1}}"#),
    );
    assert_eq!(get_u64(&again, "stepped"), 1);
}

/// The transport caps line length: an unterminated monster line gets a
/// structured parse-error and the stream resyncs at the next newline.
#[test]
fn oversized_lines_get_parse_errors_and_resync() {
    let mut server = frozen();
    let mut input = Vec::new();
    input.extend_from_slice(br#"{"id":1,"method":"session.list"}"#);
    input.push(b'\n');
    // 2 MiB of garbage on one line.
    input.extend(std::iter::repeat_n(b'x', 2 << 20));
    input.push(b'\n');
    input.extend_from_slice(br#"{"id":2,"method":"session.list"}"#);
    input.push(b'\n');

    let mut out = Vec::new();
    serve_graceful(Cursor::new(input), &mut out, &mut server, &Shutdown::new()).unwrap();
    let out = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 3, "three replies for three lines: {out}");
    result(lines[0]);
    let (id, code) = error_code(lines[1]);
    assert_eq!((id, code.as_str()), (None, "parse-error"));
    result(lines[2]);
}

/// Fault plans travel over the wire: a seeded plan in `session.create`
/// shows up in the snapshot's fault counters, and a bad plan (or a
/// crash id out of range) is a structured bad-spec.
#[test]
fn fault_plans_over_the_wire() {
    let mut server = frozen();
    let created = result(&server.handle_line(
        r#"{"id":1,"method":"session.create","params":{"n":64,"protocol":"geometric-max","budget":8,"seed":7,"fault":{"seed":99,"drop_per_mille":150,"dup_per_mille":100,"delay_per_mille":100,"delay_rounds":2,"crashes":[{"round":2,"node":5}]}}}"#,
    ));
    let id = get_u64(&created, "session");
    let step = result(&server.handle_line(&format!(
        r#"{{"id":2,"method":"session.step","params":{{"session":{id},"rounds":500}}}}"#
    )));
    let snap = step.get("snapshot").expect("snapshot");
    assert_eq!(get_u64(snap, "crashed"), 1);
    assert!(
        get_u64(snap, "dropped") > 0
            && get_u64(snap, "duplicated") > 0
            && get_u64(snap, "delayed") > 0,
        "link faults must engage: {snap:?}"
    );

    // Same spec, same plan ⇒ byte-identical snapshot (wire determinism).
    let mut server2 = frozen();
    let created2 = result(&server2.handle_line(
        r#"{"id":1,"method":"session.create","params":{"n":64,"protocol":"geometric-max","budget":8,"seed":7,"fault":{"seed":99,"drop_per_mille":150,"dup_per_mille":100,"delay_per_mille":100,"delay_rounds":2,"crashes":[{"round":2,"node":5}]}}}"#,
    ));
    let id2 = get_u64(&created2, "session");
    let step2 = result(&server2.handle_line(&format!(
        r#"{{"id":2,"method":"session.step","params":{{"session":{id2},"rounds":500}}}}"#
    )));
    assert_eq!(
        snap.render().unwrap(),
        step2.get("snapshot").unwrap().render().unwrap(),
        "same plan, same seed must be byte-identical over the wire"
    );

    // Invalid plans are structured errors.
    let (_, code) = error_code(&server.handle_line(
        r#"{"id":3,"method":"session.create","params":{"n":16,"protocol":"geometric-max","fault":{"drop_per_mille":600,"dup_per_mille":600}}}"#,
    ));
    assert_eq!(code, "bad-spec");
    let (_, code) = error_code(&server.handle_line(
        r#"{"id":4,"method":"session.create","params":{"n":16,"protocol":"geometric-max","fault":{"crashes":[{"round":1,"node":99}]}}}"#,
    ));
    assert_eq!(code, "bad-spec");
}

/// Mirror of the CI `chaos-smoke` job: the committed chaos transcript —
/// resource-limit refusals, a fault-plan session with live counters, a
/// poisoned panic-probe, and recovery — must reproduce the committed
/// golden byte for byte under the job's limits.
#[test]
fn committed_chaos_transcript_is_golden() {
    let input = include_str!("../../../ci/chaos_smoke.input");
    let golden = include_str!("../../../ci/chaos_smoke.golden");
    let mut server = Server::frozen(ServerLimits {
        max_sessions: 2,
        max_n: 256,
        ..ServerLimits::default()
    });
    let replies: Vec<String> = input
        .lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| server.handle_line(line))
        .collect();
    let mut rendered = replies.join("\n");
    rendered.push('\n');
    assert_eq!(
        rendered, golden,
        "ci/chaos_smoke.golden is stale; regenerate it with \
         `cargo run -p bcount-daemon --bin bcountd -- --frozen-clock \
         --max-sessions 2 --max-n 256 < ci/chaos_smoke.input`"
    );
}

/// Graceful shutdown: with the flag raised, the serve loop drains the
/// lines already read, writes and flushes their replies, and returns —
/// no reply is lost mid-flight.
#[test]
fn graceful_shutdown_drains_and_replies() {
    let mut server = frozen();
    let shutdown = Arc::new(Shutdown::new());
    // Shutdown requested before the loop even starts: everything already
    // in the input must still be answered (the drain path).
    shutdown.request();
    let input = b"{\"id\":1,\"method\":\"session.list\"}\n{\"id\":2,\"method\":\"session.list\"}\n"
        .to_vec();
    let mut out = Vec::new();
    serve_graceful(Cursor::new(input), &mut out, &mut server, &shutdown).unwrap();
    let out = String::from_utf8(out).unwrap();
    // Depending on thread scheduling the drain may see 0, 1, or 2 lines
    // — but every line it saw must have a full reply, and the call must
    // have returned Ok. Re-run without the flag to assert the happy path
    // answers everything.
    for line in out.lines() {
        result(line);
    }
    let shutdown2 = Shutdown::new();
    let input2 = b"{\"id\":1,\"method\":\"session.list\"}\n".to_vec();
    let mut out2 = Vec::new();
    serve_graceful(Cursor::new(input2), &mut out2, &mut server, &shutdown2).unwrap();
    let out2 = String::from_utf8(out2).unwrap();
    assert_eq!(out2.lines().count(), 1);
    result(out2.lines().next().unwrap());
}

/// `daemon.info` answers capability probes: protocol tag, feature list,
/// limits, session count, and (for a non-durable server) null journal
/// and recovery sections.
#[test]
fn daemon_info_reports_capabilities() {
    let mut server = Server::frozen(ServerLimits {
        max_sessions: 7,
        ..ServerLimits::default()
    });
    let info = result(&server.handle_line(r#"{"id":1,"method":"daemon.info"}"#));
    assert_eq!(
        info.get("protocol").and_then(Json::as_str),
        Some("bcountd/v1")
    );
    let features: Vec<&str> = info
        .get("features")
        .and_then(Json::as_arr)
        .expect("features array")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert!(features.contains(&"sessions") && features.contains(&"fault-injection"));
    assert!(
        !features.contains(&"durability"),
        "non-durable server must not advertise durability: {features:?}"
    );
    let limits = info.get("limits").expect("limits object");
    assert_eq!(get_u64(limits, "max_sessions"), 7);
    assert_eq!(get_u64(&info, "sessions"), 0);
    assert_eq!(info.get("journal"), Some(&Json::Null));
    assert_eq!(info.get("recovery"), Some(&Json::Null));

    result(&server.handle_line(
        r#"{"id":2,"method":"session.create","params":{"n":16,"protocol":"geometric-max","budget":4}}"#,
    ));
    let info = result(&server.handle_line(r#"{"id":3,"method":"daemon.info"}"#));
    assert_eq!(get_u64(&info, "sessions"), 1);
}

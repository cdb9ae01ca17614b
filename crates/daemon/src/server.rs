//! The session table and request dispatcher behind `bcountd`.
//!
//! A [`Server`] owns every live session: a type-erased [`DynExecution`]
//! plus its cached [`ExecutionSnapshot`]. The cache is refreshed only when a
//! `session.step` actually advances the execution, so `session.query`
//! is a pure read — any number of queries between steps cost one cached
//! clone each and never touch (let alone perturb) the round loop.
//!
//! [`Server::handle_line`] is the whole protocol: one request line in,
//! one response line out, errors included. Transport loops (stdin, unix
//! socket, tests) just move lines.
//!
//! # Hardening
//!
//! The server is built to keep serving under misbehaving sessions and
//! clients:
//!
//! * **Panic isolation** — protocol/adversary code runs inside
//!   `catch_unwind` during `session.create`, `session.step`, and the
//!   node-state half of `session.query`. A panic *poisons* that one
//!   session: it keeps its table slot (so `session.list` shows the
//!   failure) but answers every step/query with a structured
//!   `session-poisoned` error until closed. Other sessions, and the
//!   daemon itself, are untouched.
//! * **Step timeouts** — `session.step` checks a wall-clock deadline
//!   between rounds ([`ServerLimits::step_timeout_ms`]) and returns the
//!   partial progress with `"timed_out": true` instead of blocking the
//!   single-threaded serve loop forever. The rounds that did run are
//!   byte-identical to an untimed run of the same count.
//! * **Resource caps** — [`ServerLimits::max_sessions`] and
//!   [`ServerLimits::max_n`] bound the table; exceeding either is a
//!   structured `resource-limit` error, not an OOM.
//! * **Idle eviction** — sessions untouched for
//!   [`ServerLimits::idle_timeout_ms`] are dropped at the next request,
//!   so abandoned clients cannot pin memory indefinitely.
//!
//! Time is read through an internal clock that tests (and the
//! `--frozen-clock` flag) can pin to a manual counter, keeping golden
//! transcripts that include `idle_ms` fields byte-stable.

use std::collections::BTreeMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use bcount_json::{field, opt_field, FromJson, Json, ToJson};
use bcount_sim::{DynExecution, ExecutionSnapshot};

use crate::journal::{
    self, Checkpoint, CheckpointSession, FsyncPolicy, Journal, RecordBody, RecoveryStats,
};
use crate::spec::SessionSpec;
use crate::wire::{ErrorCode, Request, Response, WireError, SCHEMA};

/// Resource and latency bounds enforced by the [`Server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerLimits {
    /// Maximum live sessions; `session.create` past this is a
    /// `resource-limit` error.
    pub max_sessions: usize,
    /// Maximum nodes per session; a spec requesting more is a
    /// `resource-limit` error (before any allocation happens).
    pub max_n: usize,
    /// Wall-clock budget for one `session.step` request, in
    /// milliseconds; `0` disables the deadline.
    pub step_timeout_ms: u64,
    /// Idle time after which a session is evicted, in milliseconds;
    /// `0` disables eviction.
    pub idle_timeout_ms: u64,
}

impl Default for ServerLimits {
    fn default() -> Self {
        ServerLimits {
            max_sessions: 256,
            max_n: 1 << 20,
            step_timeout_ms: 30_000,
            idle_timeout_ms: 900_000,
        }
    }
}

/// Millisecond clock: wall time in production, a manual counter under
/// `--frozen-clock` and in tests (keeps `idle_ms` fields golden-stable).
#[derive(Debug, Clone, Copy)]
enum Clock {
    Wall(Instant),
    Manual(u64),
}

impl Clock {
    fn now_ms(&self) -> u64 {
        match self {
            Clock::Wall(epoch) => epoch.elapsed().as_millis() as u64,
            Clock::Manual(ms) => *ms,
        }
    }
}

/// One live session.
struct Session {
    /// The spec echo (`SessionSpec::echo`).
    info: Json,
    exec: Box<dyn DynExecution>,
    /// Snapshot taken after the last step batch (or at creation);
    /// queries are served from this cache.
    snapshot: ExecutionSnapshot,
    /// The raw `session.create` params — the durable identity of this
    /// session (checkpoints store these; recovery rebuilds from them).
    params: Json,
    /// Clock reading at the last request touching this session.
    last_touch_ms: u64,
    /// `Some(panic message)` once session code panicked; a poisoned
    /// session refuses to step or answer queries until closed.
    poisoned: Option<String>,
    /// Whether this session was reconstructed by startup recovery
    /// rather than created over the wire (surfaced in `session.list`).
    recovered: bool,
}

/// Where and how a durable [`Server`] persists its sessions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityOptions {
    /// Directory holding `journal.log` and `checkpoint.json` (created
    /// if missing).
    pub state_dir: PathBuf,
    /// When journal appends reach stable storage.
    pub fsync: FsyncPolicy,
    /// Checkpoint after this many records (bounds journal
    /// length and replay work).
    pub checkpoint_every: u64,
}

impl DurabilityOptions {
    /// Defaults: batch fsync, checkpoint every 256 records.
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        DurabilityOptions {
            state_dir: state_dir.into(),
            fsync: FsyncPolicy::Batch,
            checkpoint_every: 256,
        }
    }
}

/// The daemon state: a monotonically-ided session table plus the
/// hardening limits ([`ServerLimits`]) and, when opened durable, the
/// write-ahead journal.
pub struct Server {
    sessions: BTreeMap<u64, Session>,
    next_id: u64,
    limits: ServerLimits,
    clock: Clock,
    /// Present when the server persists to a `--state-dir`.
    journal: Option<Journal>,
    /// What startup recovery found (durable servers only).
    recovery: Option<RecoveryStats>,
    /// Journal faults hit where no reply could carry them (eviction);
    /// surfaced through `daemon.info`.
    journal_errors: u64,
}

impl Default for Server {
    fn default() -> Self {
        Server::new()
    }
}

impl Server {
    /// An empty session table with default limits and the wall clock.
    pub fn new() -> Self {
        Server::with_limits(ServerLimits::default())
    }

    /// An empty session table with explicit limits and the wall clock.
    pub fn with_limits(limits: ServerLimits) -> Self {
        Server {
            sessions: BTreeMap::new(),
            next_id: 0,
            limits,
            clock: Clock::Wall(Instant::now()),
            journal: None,
            recovery: None,
            journal_errors: 0,
        }
    }

    /// An empty session table whose clock only moves via
    /// [`Server::advance_clock_ms`] — deterministic `idle_ms` and
    /// timeouts for tests and golden transcripts.
    pub fn frozen(limits: ServerLimits) -> Self {
        Server {
            clock: Clock::Manual(0),
            ..Server::with_limits(limits)
        }
    }

    /// Opens (or creates) a durable server on `opts.state_dir`:
    /// recovers whatever the journal and checkpoint describe, then
    /// journals every state-mutating request from here on.
    ///
    /// Recovery never refuses to start over bad content: a torn or
    /// corrupt journal tail is truncated at the first bad line, a
    /// corrupt checkpoint is ignored, and a session whose spec can no
    /// longer be built is dropped (all counted in [`RecoveryStats`]).
    /// Recovered sessions bypass `max_sessions`/`max_n` — caps gate
    /// *admission*, and these sessions were already admitted.
    ///
    /// With `frozen` the recovered server uses the manual test clock.
    pub fn open_durable(
        opts: &DurabilityOptions,
        limits: ServerLimits,
        frozen: bool,
    ) -> io::Result<Server> {
        let state = journal::load_state(&opts.state_dir)?;
        let mut server = if frozen {
            Server::frozen(limits)
        } else {
            Server::with_limits(limits)
        };
        let mut stats = RecoveryStats {
            truncated_bytes: state.truncated_bytes,
            from_checkpoint: state.checkpoint.is_some(),
            ..RecoveryStats::default()
        };

        if let Some(ckpt) = &state.checkpoint {
            server.next_id = ckpt.next_id;
            for cs in &ckpt.sessions {
                match rebuild_session(&cs.params, cs.round, &mut stats) {
                    Some(mut session) => {
                        // The checkpoint's snapshot is the recovery
                        // anchor: a byte-exact match proves the rebuilt
                        // session is the one that was checkpointed. On
                        // mismatch the recomputed state wins (it is what
                        // this build deterministically produces) and the
                        // discrepancy is surfaced via daemon.info.
                        if render(&session.snapshot.to_json()) != render(&cs.snapshot) {
                            stats.snapshot_mismatches += 1;
                        }
                        session.poisoned = cs.poisoned.clone();
                        server.sessions.insert(cs.session, session);
                    }
                    None => stats.failed_sessions += 1,
                }
            }
        }

        for record in &state.records {
            match &record.body {
                RecordBody::CreateApplied { session, params } => {
                    stats.replayed_records += 1;
                    match rebuild_session(params, 0, &mut stats) {
                        Some(s) => {
                            server.sessions.insert(*session, s);
                        }
                        None => stats.failed_sessions += 1,
                    }
                    server.next_id = server.next_id.max(*session);
                }
                RecordBody::StepApplied { session, stepped } => {
                    stats.replayed_records += 1;
                    let Some(s) = server.sessions.get_mut(session) else {
                        continue;
                    };
                    if s.poisoned.is_some() {
                        continue;
                    }
                    // Re-execute exactly the rounds the live run
                    // committed, round by round like the live loop —
                    // byte-identical by `Execution`'s stepping
                    // rule. A panic here means the session's code
                    // is no longer deterministic w.r.t. the journal;
                    // drop it rather than fail recovery.
                    let replayed = catch_unwind(AssertUnwindSafe(|| {
                        for _ in 0..*stepped {
                            if s.exec.step_rounds(1).is_some() {
                                break;
                            }
                        }
                        s.exec.snapshot()
                    }));
                    match replayed {
                        Ok(snapshot) => {
                            stats.replayed_rounds += snapshot.round - s.snapshot.round;
                            s.snapshot = snapshot;
                        }
                        Err(_) => {
                            server.sessions.remove(session);
                            stats.failed_sessions += 1;
                        }
                    }
                }
                RecordBody::CloseApplied { session } | RecordBody::Evict { session } => {
                    stats.replayed_records += 1;
                    server.sessions.remove(session);
                }
                RecordBody::Poison { session, message } => {
                    stats.replayed_records += 1;
                    if let Some(s) = server.sessions.get_mut(session) {
                        s.poisoned = Some(message.clone());
                    }
                }
            }
        }

        stats.recovered_sessions = server.sessions.len();
        let now = server.clock.now_ms();
        for s in server.sessions.values_mut() {
            s.recovered = true;
            s.last_touch_ms = now;
        }
        server.journal = Some(Journal::open(
            &opts.state_dir,
            opts.fsync,
            opts.checkpoint_every,
            state.next_lsn,
            state.clean_len,
            stats.replayed_records,
        )?);
        server.recovery = Some(stats);
        Ok(server)
    }

    /// What startup recovery found, if this server was opened durable.
    pub fn recovery_stats(&self) -> Option<&RecoveryStats> {
        self.recovery.as_ref()
    }

    /// Advances a frozen clock (no-op under the wall clock).
    pub fn advance_clock_ms(&mut self, ms: u64) {
        if let Clock::Manual(now) = &mut self.clock {
            *now += ms;
        }
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Handles one request line and renders the one response line (no
    /// trailing newline). Never panics on input: malformed lines become
    /// structured `parse-error`/`bad-request` replies, and panicking
    /// session code becomes a `session-poisoned` reply.
    pub fn handle_line(&mut self, line: &str) -> String {
        self.evict_idle();
        let json = match Json::parse(line) {
            Ok(json) => json,
            Err(e) => {
                return Response::err(None, ErrorCode::ParseError, e.to_string()).render_line()
            }
        };
        let request = match Request::from_json(&json) {
            Ok(request) => request,
            Err(e) => {
                // Salvage the id when the object carried a usable one, so
                // a scripted client can still correlate the failure.
                let id = json
                    .get("id")
                    .and_then(Json::as_num)
                    .and_then(|n| n.as_u64());
                return Response::err(id, ErrorCode::BadRequest, e.to_string()).render_line();
            }
        };
        let id = request.id;
        match self.dispatch(&request) {
            Ok(result) => Response::ok(id, result),
            Err(error) => Response {
                id: Some(id),
                body: Err(error),
            },
        }
        .render_line()
    }

    fn dispatch(&mut self, request: &Request) -> Result<Json, WireError> {
        match request.method.as_str() {
            "session.create" => self.create(&request.params),
            "session.step" => self.step(&request.params),
            "session.query" => self.query(&request.params),
            "session.list" => Ok(self.list()),
            "session.close" => self.close(&request.params),
            "daemon.info" => Ok(self.info()),
            other => Err(WireError {
                code: ErrorCode::UnknownMethod,
                message: format!("unknown method '{other}'"),
            }),
        }
    }

    fn evict_idle(&mut self) {
        let timeout = self.limits.idle_timeout_ms;
        if timeout == 0 || self.sessions.is_empty() {
            return;
        }
        let now = self.clock.now_ms();
        let evicted: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, s)| now.saturating_sub(s.last_touch_ms) >= timeout)
            .map(|(&id, _)| id)
            .collect();
        if evicted.is_empty() {
            return;
        }
        self.sessions.retain(|id, _| !evicted.contains(id));
        // Evictions happen before the triggering request is even
        // parsed, so there is no reply to carry a journal fault; log
        // best-effort and count failures for daemon.info.
        if self.journal.is_some() {
            for id in evicted {
                if self
                    .journal_append(RecordBody::Evict { session: id })
                    .is_err()
                {
                    self.journal_errors += 1;
                }
            }
            if let Some(journal) = &mut self.journal {
                if journal.commit_batch().is_err() {
                    self.journal_errors += 1;
                }
            }
        }
    }

    fn create(&mut self, params: &Json) -> Result<Json, WireError> {
        if self.sessions.len() >= self.limits.max_sessions {
            return Err(WireError {
                code: ErrorCode::ResourceLimit,
                message: format!(
                    "session table is full ({} live, limit {})",
                    self.sessions.len(),
                    self.limits.max_sessions
                ),
            });
        }
        let spec = SessionSpec::from_params(params).map_err(|e| WireError {
            code: ErrorCode::BadSpec,
            message: e.to_string(),
        })?;
        if spec.resolved_n() > self.limits.max_n {
            return Err(WireError {
                code: ErrorCode::ResourceLimit,
                message: format!(
                    "n={} exceeds the per-session limit {}",
                    spec.resolved_n(),
                    self.limits.max_n
                ),
            });
        }
        // Session construction runs protocol factories: isolate panics so
        // a faulty protocol cannot take the daemon down. Nothing was
        // inserted yet, so a create panic leaves no poisoned slot behind.
        let built = catch_unwind(AssertUnwindSafe(|| {
            spec.build().map(|exec| {
                let snapshot = exec.snapshot();
                (exec, spec.echo(&snapshot), snapshot)
            })
        }))
        .map_err(|payload| WireError {
            code: ErrorCode::SessionPoisoned,
            message: format!(
                "session creation panicked: {}",
                panic_message(payload.as_ref())
            ),
        })?;
        let (exec, info, snapshot) = built.map_err(|e| WireError {
            code: ErrorCode::BadSpec,
            message: e.to_string(),
        })?;
        let id = self.next_id + 1;
        let result = Json::obj(vec![
            ("session", id.to_json()),
            ("spec", info.clone()),
            ("snapshot", snapshot.to_json()),
        ]);
        // Journal first, insert second: if the append fails, the table
        // still matches the journal (no session) and the client gets an
        // error. A crash before the record is whole loses a create the
        // client never saw a reply to.
        self.journal_append(RecordBody::CreateApplied {
            session: id,
            params: params.clone(),
        })?;
        self.next_id = id;
        self.sessions.insert(
            id,
            Session {
                info,
                exec,
                snapshot,
                params: params.clone(),
                last_touch_ms: self.clock.now_ms(),
                poisoned: None,
                recovered: false,
            },
        );
        self.journal_commit()?;
        Ok(result)
    }

    fn step(&mut self, params: &Json) -> Result<Json, WireError> {
        let id = session_id(params)?;
        let rounds: u64 = opt_field(params, "rounds")
            .map_err(bad_request)?
            .unwrap_or(1);
        let clock = self.clock;
        let timeout = self.limits.step_timeout_ms;
        let session = self.session_mut(id)?;
        session.last_touch_ms = clock.now_ms();
        if let Some(msg) = &session.poisoned {
            return Err(poisoned(id, msg));
        }
        let before = session.exec.round();
        // Step round by round so the wall-clock deadline is checked
        // between rounds — byte-identical to one step_rounds(rounds)
        // call by `Execution`'s stepping rule. Panics inside
        // protocol code poison this session only.
        let started = clock.now_ms();
        let stepped = catch_unwind(AssertUnwindSafe(|| {
            let mut timed_out = false;
            for _ in 0..rounds {
                if timeout > 0 && clock.now_ms().saturating_sub(started) >= timeout {
                    timed_out = true;
                    break;
                }
                if session.exec.step_rounds(1).is_some() {
                    break;
                }
            }
            // A step batch is the only thing that can move the execution,
            // so this is the one place the query cache refreshes.
            (timed_out, session.exec.snapshot())
        }));
        match stepped {
            Ok((timed_out, snapshot)) => {
                session.snapshot = snapshot;
                let actually_stepped = session.snapshot.round - before;
                let mut pairs = vec![
                    ("session", id.to_json()),
                    ("stepped", actually_stepped.to_json()),
                    ("snapshot", session.snapshot.to_json()),
                ];
                if timed_out {
                    pairs.push(("timed_out", true.to_json()));
                }
                // The applied record carries the rounds that actually
                // ran (stop condition or timeout may have cut the
                // request short), so replay re-executes exactly the
                // committed work.
                self.journal_append(RecordBody::StepApplied {
                    session: id,
                    stepped: actually_stepped,
                })?;
                self.journal_commit()?;
                Ok(Json::obj(pairs))
            }
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                session.poisoned = Some(msg.clone());
                // The poison is observable state (every later request on
                // this session errors), so it must recover too. The
                // execution is mid-round and unrecoverable, but also
                // unobservable: poisoned sessions refuse queries, and
                // the snapshot cache still holds the last committed
                // round — which is exactly what recovery rebuilds.
                let _ = self.journal_append(RecordBody::Poison {
                    session: id,
                    message: msg.clone(),
                });
                let _ = self.journal_commit();
                Err(poisoned(id, &msg))
            }
        }
    }

    fn query(&mut self, params: &Json) -> Result<Json, WireError> {
        let id = session_id(params)?;
        let with_nodes: bool = opt_field(params, "nodes")
            .map_err(bad_request)?
            .unwrap_or(false);
        let now = self.clock.now_ms();
        let session = self.session_mut(id)?;
        session.last_touch_ms = now;
        if let Some(msg) = &session.poisoned {
            return Err(poisoned(id, msg));
        }
        let mut pairs = vec![
            ("session", id.to_json()),
            ("snapshot", session.snapshot.to_json()),
        ];
        if with_nodes {
            // node_states reads the engine's recorded outputs, not the
            // protocols; the one session code it runs is the registry's
            // `raw` hook on each output — isolated as stepping is.
            match catch_unwind(AssertUnwindSafe(|| session.exec.node_states())) {
                Ok(nodes) => pairs.push(("nodes", nodes.to_json())),
                Err(payload) => {
                    let msg = panic_message(payload.as_ref());
                    session.poisoned = Some(msg.clone());
                    // A query is a pure read, but the poison it just
                    // caused is durable state — journal it so recovery
                    // reproduces the refusal.
                    let _ = self.journal_append(RecordBody::Poison {
                        session: id,
                        message: msg.clone(),
                    });
                    let _ = self.journal_commit();
                    return Err(poisoned(id, &msg));
                }
            }
        }
        Ok(Json::obj(pairs))
    }

    fn list(&self) -> Json {
        let now = self.clock.now_ms();
        let sessions: Vec<Json> = self
            .sessions
            .iter()
            .map(|(&id, s)| {
                Json::obj(vec![
                    ("session", id.to_json()),
                    ("spec", s.info.clone()),
                    ("rounds", s.snapshot.round.to_json()),
                    ("idle_ms", now.saturating_sub(s.last_touch_ms).to_json()),
                    ("poisoned", s.poisoned.is_some().to_json()),
                    ("recovered", s.recovered.to_json()),
                    ("stop", s.snapshot.stop.to_json()),
                ])
            })
            .collect();
        Json::obj(vec![("sessions", Json::Arr(sessions))])
    }

    fn close(&mut self, params: &Json) -> Result<Json, WireError> {
        let id = session_id(params)?;
        if !self.sessions.contains_key(&id) {
            return Err(unknown_session(id));
        }
        // Journal first, remove second, as in `create`.
        self.journal_append(RecordBody::CloseApplied { session: id })?;
        self.sessions.remove(&id);
        self.journal_commit()?;
        Ok(Json::obj(vec![
            ("session", id.to_json()),
            ("closed", true.to_json()),
        ]))
    }

    /// `daemon.info`: capability probing — protocol/version, feature
    /// list, limits, and (for durable servers) journal and recovery
    /// stats. Clients check `features` instead of guessing from errors.
    fn info(&self) -> Json {
        let mut features = vec![
            "fault-injection",
            "frozen-clock",
            "idle-eviction",
            "panic-isolation",
            "sessions",
            "step-timeouts",
        ];
        if self.journal.is_some() {
            features.push("durability");
            features.sort_unstable();
        }
        let limits = Json::obj(vec![
            ("max_sessions", self.limits.max_sessions.to_json()),
            ("max_n", self.limits.max_n.to_json()),
            ("step_timeout_ms", self.limits.step_timeout_ms.to_json()),
            ("idle_timeout_ms", self.limits.idle_timeout_ms.to_json()),
        ]);
        let journal = match &self.journal {
            Some(j) => Json::obj(vec![
                ("fsync", Json::Str(j.policy().label().to_owned())),
                ("lsn", (j.next_lsn() - 1).to_json()),
                (
                    "records_since_checkpoint",
                    j.records_since_checkpoint().to_json(),
                ),
                ("checkpoint_every", j.checkpoint_every().to_json()),
                ("errors", self.journal_errors.to_json()),
            ]),
            None => Json::Null,
        };
        let recovery = match &self.recovery {
            Some(stats) => stats.to_json(),
            None => Json::Null,
        };
        Json::obj(vec![
            ("protocol", Json::Str(SCHEMA.to_owned())),
            ("version", Json::Str(env!("CARGO_PKG_VERSION").to_owned())),
            (
                "features",
                Json::Arr(
                    features
                        .into_iter()
                        .map(|f| Json::Str(f.to_owned()))
                        .collect(),
                ),
            ),
            ("limits", limits),
            ("sessions", self.sessions.len().to_json()),
            ("journal", journal),
            ("recovery", recovery),
        ])
    }

    fn session_mut(&mut self, id: u64) -> Result<&mut Session, WireError> {
        self.sessions
            .get_mut(&id)
            .ok_or_else(|| unknown_session(id))
    }

    /// Appends one record to the journal, if there is one. An append
    /// failure surfaces as an `internal-error` reply.
    fn journal_append(&mut self, body: RecordBody) -> Result<(), WireError> {
        let Some(journal) = &mut self.journal else {
            return Ok(());
        };
        journal.append(body).map(|_| ()).map_err(internal)
    }

    /// Ends the current request's journal batch: takes a checkpoint if
    /// one is due, then (under batch fsync) makes everything appended
    /// by this request durable — always before the reply goes out.
    fn journal_commit(&mut self) -> Result<(), WireError> {
        if self
            .journal
            .as_ref()
            .is_some_and(Journal::should_checkpoint)
        {
            let checkpoint = Checkpoint {
                // Everything up to the last appended record is folded in.
                lsn: self.journal.as_ref().expect("checked above").next_lsn() - 1,
                next_id: self.next_id,
                sessions: self
                    .sessions
                    .iter()
                    .map(|(&id, s)| CheckpointSession {
                        session: id,
                        params: s.params.clone(),
                        round: s.snapshot.round,
                        poisoned: s.poisoned.clone(),
                        snapshot: s.snapshot.to_json(),
                    })
                    .collect(),
            };
            let journal = self.journal.as_mut().expect("checked above");
            journal.write_checkpoint(&checkpoint).map_err(internal)?;
        }
        if let Some(journal) = &mut self.journal {
            journal.commit_batch().map_err(internal)?;
        }
        Ok(())
    }
}

/// Rebuilds one session from its `session.create` params and steps it
/// to `round` — the recovery workhorse. Returns `None` (and counts
/// nothing itself) if the spec no longer parses/builds or the rebuild
/// panics; the caller counts the failure.
fn rebuild_session(params: &Json, round: u64, stats: &mut RecoveryStats) -> Option<Session> {
    let spec = SessionSpec::from_params(params).ok()?;
    let rebuilt = catch_unwind(AssertUnwindSafe(|| {
        let mut exec = spec.build().ok()?;
        // step_rounds(round) lands on the same state as the live run's
        // round-by-round stepping, by `Execution`'s stepping rule.
        if round > 0 {
            exec.step_rounds(round);
        }
        let snapshot = exec.snapshot();
        Some((exec, spec.echo(&snapshot), snapshot))
    }))
    .ok()
    .flatten()?;
    let (exec, info, snapshot) = rebuilt;
    stats.replayed_rounds += snapshot.round;
    Some(Session {
        info,
        exec,
        snapshot,
        params: params.clone(),
        last_touch_ms: 0,
        poisoned: None,
        recovered: true,
    })
}

/// Renders JSON for byte-comparison (anchor checks); non-finite numbers
/// cannot occur in snapshots, so rendering cannot fail.
fn render(json: &Json) -> String {
    json.render().unwrap_or_default()
}

fn session_id(params: &Json) -> Result<u64, WireError> {
    field(params, "session").map_err(bad_request)
}

fn bad_request(e: bcount_json::JsonError) -> WireError {
    WireError {
        code: ErrorCode::BadRequest,
        message: e.to_string(),
    }
}

fn unknown_session(id: u64) -> WireError {
    WireError {
        code: ErrorCode::UnknownSession,
        message: format!("no session {id}"),
    }
}

fn poisoned(id: u64, msg: &str) -> WireError {
    WireError {
        code: ErrorCode::SessionPoisoned,
        message: format!("session {id} is poisoned: {msg}"),
    }
}

fn internal(e: io::Error) -> WireError {
    WireError {
        code: ErrorCode::Internal,
        message: format!("journal I/O failed: {e}"),
    }
}

/// Extracts the human-readable message from a panic payload (panics via
/// `panic!("...")` carry `&str` or `String`; anything else is opaque).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

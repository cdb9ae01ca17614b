//! The durability plane behind `bcountd --state-dir`: a CRC-framed
//! write-ahead journal plus snapshot-anchored checkpoints.
//!
//! # Why replay works
//!
//! The engine is deterministic to the byte: the same `session.create`
//! spec stepped the same number of rounds reaches the same state, no
//! matter how the rounds were batched (`Execution`'s stepping
//! rule). So the daemon never needs to serialize protocol
//! internals — the journal records *commands* (create/step/close), and
//! recovery re-executes them. A checkpoint compacts the log: it pins
//! the session table (spec params + committed round + cached snapshot)
//! at one log sequence number so recovery replays a single
//! `step_rounds(round)` per session instead of every historical step
//! record. Rounds are still re-executed — determinism is the state
//! store — but the journal stays bounded.
//!
//! # On-disk format
//!
//! Two files in the state dir:
//!
//! * `journal.log` — one record per line, `CCCCCCCC <json>\n` where
//!   `CCCCCCCC` is the lowercase-hex CRC-32 (IEEE) of everything after
//!   the single separating space. Records carry a strictly increasing
//!   `lsn`. Every committed mutation appends exactly one `applied`
//!   record once it ran, carrying its actual outcome (e.g. the rounds
//!   really stepped under a timeout), and recovery replays every
//!   record. A crash before that record is whole leaves no trace of the
//!   request, so a half-applied step can never resurrect. Journals
//!   written by older builds also hold an `intent` record before each
//!   create/step/close; [`load_state`] skips those but keeps their LSNs.
//! * `checkpoint.json` — a single CRC-framed line holding the
//!   checkpoint (written to a temp file, fsynced, renamed). After a
//!   successful checkpoint the journal is truncated; records whose
//!   `lsn` is at or below the checkpoint's are skipped on replay, so a
//!   crash between the rename and the truncate double-applies nothing.
//!
//! # Torn tails
//!
//! [`load_state`] accepts any prefix of a valid journal: the first
//! line that is incomplete, fails its CRC, breaks LSN monotonicity, or
//! does not parse ends the readable prefix, and everything from there
//! on is discarded (and truncated away before new appends). Recovery
//! never refuses to start; at worst it recovers less.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use bcount_json::{field, opt_field, FromJson, Json, JsonError, ToJson};

/// Journal file name inside the state dir.
pub const JOURNAL_FILE: &str = "journal.log";
/// Checkpoint file name inside the state dir.
pub const CHECKPOINT_FILE: &str = "checkpoint.json";
/// Schema tag on the checkpoint record.
pub const CHECKPOINT_SCHEMA: &str = "bcountd-checkpoint/v1";

/// When the journal is flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fsync` after every record append: a reply implies its record is
    /// on disk. One sync per mutation.
    Always,
    /// One `fsync` per state-mutating request, after its records and
    /// before the reply: the same reply-implies-durable guarantee. It
    /// differs from `Always` only when one request appends several
    /// records (idle evictions), which it syncs once. The default.
    #[default]
    Batch,
    /// Never `fsync` explicitly: appends reach the OS page cache only.
    /// A process crash (SIGKILL) loses nothing — the pages are the
    /// kernel's — but a *machine* crash can lose recent requests. The
    /// CRC framing keeps whatever survives prefix-consistent.
    Off,
}

impl FsyncPolicy {
    /// Parses the `--fsync` flag value.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "batch" => Some(FsyncPolicy::Batch),
            "off" => Some(FsyncPolicy::Off),
            _ => None,
        }
    }

    /// The stable flag/wire label.
    pub fn label(&self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Batch => "batch",
            FsyncPolicy::Off => "off",
        }
    }
}

/// CRC-32 (IEEE 802.3, the zlib polynomial), table-driven.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Frames a record payload as one journal line (with trailing newline).
fn frame_line(payload: &str) -> String {
    format!("{:08x} {payload}\n", crc32(payload.as_bytes()))
}

/// Unframes one line (without its newline): checks the CRC, returns the
/// payload. `None` on any defect — the caller treats that as the end of
/// the readable prefix.
fn unframe_line(line: &str) -> Option<&str> {
    let (crc_hex, payload) = line.split_once(' ')?;
    if crc_hex.len() != 8 {
        return None;
    }
    let want = u32::from_str_radix(crc_hex, 16).ok()?;
    (crc32(payload.as_bytes()) == want).then_some(payload)
}

/// What one journal record did: each committed mutation writes exactly
/// one record, after it ran, and recovery replays every record.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordBody {
    /// A session was created and inserted under `session`.
    CreateApplied {
        /// Assigned session id.
        session: u64,
        /// The raw `session.create` params object (replay rebuilds the
        /// execution from these through the same spec path).
        params: Json,
    },
    /// A step batch committed: the session advanced exactly `stepped`
    /// rounds (possibly fewer than requested — stop condition or step
    /// timeout).
    StepApplied {
        /// Target session.
        session: u64,
        /// Rounds actually executed.
        stepped: u64,
    },
    /// The session was removed by `session.close`.
    CloseApplied {
        /// Target session.
        session: u64,
    },
    /// The session was removed by idle eviction.
    Evict {
        /// Target session.
        session: u64,
    },
    /// Session code panicked; the session is poisoned from here on.
    Poison {
        /// Target session.
        session: u64,
        /// The panic message (replayed into `session-poisoned` replies).
        message: String,
    },
}

impl RecordBody {
    fn op(&self) -> &'static str {
        match self {
            RecordBody::CreateApplied { .. } => "create",
            RecordBody::StepApplied { .. } => "step",
            RecordBody::CloseApplied { .. } => "close",
            RecordBody::Evict { .. } => "evict",
            RecordBody::Poison { .. } => "poison",
        }
    }
}

/// One journal record: a log sequence number plus its body.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// Strictly increasing sequence number (across checkpoints too).
    pub lsn: u64,
    /// What happened.
    pub body: RecordBody,
}

impl ToJson for JournalRecord {
    fn to_json(&self) -> Json {
        // `kind` is always "applied": older builds' readers require the
        // field, and their journals also hold `"kind":"intent"` lines
        // (see `load_state`).
        let mut pairs = vec![
            ("lsn", self.lsn.to_json()),
            ("kind", Json::Str("applied".to_owned())),
            ("op", Json::Str(self.body.op().to_owned())),
        ];
        match &self.body {
            RecordBody::CreateApplied { session, params } => {
                pairs.push(("session", session.to_json()));
                pairs.push(("params", params.clone()));
            }
            RecordBody::StepApplied { session, stepped } => {
                pairs.push(("session", session.to_json()));
                pairs.push(("stepped", stepped.to_json()));
            }
            RecordBody::CloseApplied { session } | RecordBody::Evict { session } => {
                pairs.push(("session", session.to_json()))
            }
            RecordBody::Poison { session, message } => {
                pairs.push(("session", session.to_json()));
                pairs.push(("message", message.to_json()));
            }
        }
        Json::obj(pairs)
    }
}

impl FromJson for JournalRecord {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let lsn: u64 = field(json, "lsn")?;
        let kind: String = field(json, "kind")?;
        if kind != "applied" {
            return Err(JsonError::Shape(format!("unknown record kind '{kind}'")));
        }
        let op: String = field(json, "op")?;
        let body = match op.as_str() {
            "create" => RecordBody::CreateApplied {
                session: field(json, "session")?,
                params: json
                    .get("params")
                    .cloned()
                    .ok_or_else(|| JsonError::Shape("missing field 'params'".into()))?,
            },
            "step" => RecordBody::StepApplied {
                session: field(json, "session")?,
                stepped: field(json, "stepped")?,
            },
            "close" => RecordBody::CloseApplied {
                session: field(json, "session")?,
            },
            "evict" => RecordBody::Evict {
                session: field(json, "session")?,
            },
            "poison" => RecordBody::Poison {
                session: field(json, "session")?,
                message: field(json, "message")?,
            },
            other => return Err(JsonError::Shape(format!("unknown record op '{other}'"))),
        };
        Ok(JournalRecord { lsn, body })
    }
}

/// One session row inside a [`Checkpoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointSession {
    /// Session id.
    pub session: u64,
    /// The raw `session.create` params (recovery rebuilds from these).
    pub params: Json,
    /// Committed round count (recovery replays `step_rounds(round)`).
    pub round: u64,
    /// Sticky poison message, if the session panicked before the
    /// checkpoint.
    pub poisoned: Option<String>,
    /// The cached [`ExecutionSnapshot`](bcount_sim::ExecutionSnapshot)
    /// as JSON — the recovery *anchor*: after replay the recomputed
    /// snapshot must render byte-identically, proving the recovered
    /// session is exact.
    pub snapshot: Json,
}

impl ToJson for CheckpointSession {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("session", self.session.to_json()),
            ("params", self.params.clone()),
            ("round", self.round.to_json()),
            ("poisoned", self.poisoned.to_json()),
            ("snapshot", self.snapshot.clone()),
        ])
    }
}

impl FromJson for CheckpointSession {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(CheckpointSession {
            session: field(json, "session")?,
            params: json
                .get("params")
                .cloned()
                .ok_or_else(|| JsonError::Shape("missing field 'params'".into()))?,
            round: field(json, "round")?,
            poisoned: opt_field(json, "poisoned")?,
            snapshot: json
                .get("snapshot")
                .cloned()
                .ok_or_else(|| JsonError::Shape("missing field 'snapshot'".into()))?,
        })
    }
}

/// A durable pin of the whole session table at one LSN.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Last LSN covered: journal records at or below this are already
    /// reflected here and are skipped on replay.
    pub lsn: u64,
    /// The server's id counter (so recovered daemons never reuse ids).
    pub next_id: u64,
    /// Every live session at checkpoint time.
    pub sessions: Vec<CheckpointSession>,
}

impl ToJson for Checkpoint {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::Str(CHECKPOINT_SCHEMA.to_owned())),
            ("lsn", self.lsn.to_json()),
            ("next_id", self.next_id.to_json()),
            ("sessions", self.sessions.to_json()),
        ])
    }
}

impl FromJson for Checkpoint {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        bcount_json::check_schema(json, CHECKPOINT_SCHEMA)?;
        Ok(Checkpoint {
            lsn: field(json, "lsn")?,
            next_id: field(json, "next_id")?,
            sessions: field(json, "sessions")?,
        })
    }
}

/// What recovery found and did, reported through `daemon.info`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryStats {
    /// Sessions live after recovery.
    pub recovered_sessions: usize,
    /// Applied journal records replayed (post-checkpoint).
    pub replayed_records: u64,
    /// Rounds re-executed during recovery (checkpoint restore + replay).
    pub replayed_rounds: u64,
    /// Journal bytes discarded as a torn/corrupt tail.
    pub truncated_bytes: u64,
    /// Whether a checkpoint seeded the recovery.
    pub from_checkpoint: bool,
    /// Recovered sessions whose recomputed snapshot did not match the
    /// checkpoint anchor byte-for-byte (0 unless the state dir was
    /// written by an incompatible build; the recomputed state wins).
    pub snapshot_mismatches: usize,
    /// Journaled sessions that could not be rebuilt (spec no longer
    /// parses or its construction panicked); they are dropped, not
    /// fatal.
    pub failed_sessions: usize,
}

impl ToJson for RecoveryStats {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("recovered_sessions", self.recovered_sessions.to_json()),
            ("replayed_records", self.replayed_records.to_json()),
            ("replayed_rounds", self.replayed_rounds.to_json()),
            ("truncated_bytes", self.truncated_bytes.to_json()),
            ("from_checkpoint", self.from_checkpoint.to_json()),
            ("snapshot_mismatches", self.snapshot_mismatches.to_json()),
            ("failed_sessions", self.failed_sessions.to_json()),
        ])
    }
}

/// Everything [`load_state`] reads out of a state dir.
#[derive(Debug, Default)]
pub struct LoadedState {
    /// The checkpoint, if a readable one exists.
    pub checkpoint: Option<Checkpoint>,
    /// Valid journal records *after* the checkpoint's LSN, in order.
    pub records: Vec<JournalRecord>,
    /// Bytes past the readable journal prefix (torn/corrupt tail).
    pub truncated_bytes: u64,
    /// Byte length of the readable journal prefix (the file is
    /// truncated to this before new appends).
    pub clean_len: u64,
    /// First LSN a new record may use.
    pub next_lsn: u64,
}

/// Reads the checkpoint and journal from `dir`, tolerating a missing
/// dir, missing files, and torn/corrupt tails. Never errors on content
/// — only on I/O faults that make the files unreadable outright.
pub fn load_state(dir: &Path) -> io::Result<LoadedState> {
    let mut state = LoadedState {
        next_lsn: 1,
        ..LoadedState::default()
    };

    let ckpt_path = dir.join(CHECKPOINT_FILE);
    if let Ok(text) = fs::read_to_string(&ckpt_path) {
        // One framed line; a torn or corrupt checkpoint is ignored
        // wholesale (the tmp+rename write makes that near-impossible).
        let line = text.lines().next().unwrap_or("");
        if let Some(payload) = unframe_line(line) {
            if let Ok(json) = Json::parse(payload) {
                if let Ok(ckpt) = Checkpoint::from_json(&json) {
                    state.next_lsn = ckpt.lsn + 1;
                    state.checkpoint = Some(ckpt);
                }
            }
        }
    }

    let journal_path = dir.join(JOURNAL_FILE);
    let bytes = match fs::read(&journal_path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let skip_at_or_below = state.checkpoint.as_ref().map_or(0, |c| c.lsn);
    let mut offset = 0usize;
    let mut prev_lsn = 0u64;
    while offset < bytes.len() {
        // A record line must be newline-terminated; an unterminated tail
        // is torn by construction (appends write line+\n in one call).
        let Some(nl) = bytes[offset..].iter().position(|&b| b == b'\n') else {
            break;
        };
        let line = match std::str::from_utf8(&bytes[offset..offset + nl]) {
            Ok(line) => line,
            Err(_) => break,
        };
        let Some(payload) = unframe_line(line) else {
            break;
        };
        let Ok(json) = Json::parse(payload) else {
            break;
        };
        // Older builds also wrote an `intent` record before each
        // create/step/close. It never replayed, so it is skipped here,
        // but it holds its LSN like any other record.
        let record = if json.get("kind").and_then(Json::as_str) == Some("intent") {
            None
        } else {
            let Ok(record) = JournalRecord::from_json(&json) else {
                break;
            };
            Some(record)
        };
        let Ok(lsn) = field::<u64>(&json, "lsn") else {
            break;
        };
        if lsn <= prev_lsn {
            break;
        }
        prev_lsn = lsn;
        state.next_lsn = lsn + 1;
        if lsn > skip_at_or_below {
            state.records.extend(record);
        }
        offset += nl + 1;
    }
    state.clean_len = offset as u64;
    state.truncated_bytes = (bytes.len() - offset) as u64;
    Ok(state)
}

/// The open, append-only journal of a durable server.
pub struct Journal {
    dir: PathBuf,
    file: File,
    policy: FsyncPolicy,
    next_lsn: u64,
    /// Records since the last checkpoint (drives the trigger).
    records_since_checkpoint: u64,
    /// Whether the current request appended anything not yet synced
    /// (drives the `Batch` policy's one-sync-per-request).
    batch_dirty: bool,
    checkpoint_every: u64,
}

impl Journal {
    /// Opens `dir`'s journal for appending at `next_lsn`, truncating the
    /// file to the readable prefix `clean_len` first (so a torn tail can
    /// never sit between old and new records). Creates the dir if
    /// missing. `backlog` is the count of records already sitting in
    /// the journal past the checkpoint, so repeated
    /// crash/restart cycles still hit the checkpoint trigger instead of
    /// growing the log forever.
    pub fn open(
        dir: &Path,
        policy: FsyncPolicy,
        checkpoint_every: u64,
        next_lsn: u64,
        clean_len: u64,
        backlog: u64,
    ) -> io::Result<Journal> {
        fs::create_dir_all(dir)?;
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            // The surviving clean prefix must be kept: recovery already
            // decided how much of the old log is trustworthy, and the
            // `set_len` below trims exactly to that.
            .truncate(false)
            .open(dir.join(JOURNAL_FILE))?;
        if file.metadata()?.len() != clean_len {
            file.set_len(clean_len)?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok(Journal {
            dir: dir.to_path_buf(),
            file,
            policy,
            next_lsn,
            records_since_checkpoint: backlog,
            batch_dirty: false,
            checkpoint_every: checkpoint_every.max(1),
        })
    }

    /// The fsync policy in force.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// The LSN the next record will take.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Records appended since the last checkpoint.
    pub fn records_since_checkpoint(&self) -> u64 {
        self.records_since_checkpoint
    }

    /// The checkpoint interval (in records).
    pub fn checkpoint_every(&self) -> u64 {
        self.checkpoint_every
    }

    /// Appends one record: a committed mutation's only record, so the
    /// caller appends it once the outcome is known. Syncs immediately
    /// under [`FsyncPolicy::Always`].
    pub fn append(&mut self, body: RecordBody) -> io::Result<u64> {
        let lsn = self.next_lsn;
        let record = JournalRecord { lsn, body };
        let payload = record
            .to_json()
            .render()
            .expect("journal records contain no non-finite numbers");
        self.file.write_all(frame_line(&payload).as_bytes())?;
        self.next_lsn += 1;
        self.records_since_checkpoint += 1;
        match self.policy {
            FsyncPolicy::Always => self.file.sync_data()?,
            FsyncPolicy::Batch => self.batch_dirty = true,
            FsyncPolicy::Off => {}
        }
        Ok(lsn)
    }

    /// Ends one request's append batch: under [`FsyncPolicy::Batch`]
    /// this is the single sync that makes the request durable before
    /// its reply goes out.
    pub fn commit_batch(&mut self) -> io::Result<()> {
        if self.batch_dirty {
            self.batch_dirty = false;
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// Whether enough records accumulated to warrant a
    /// checkpoint.
    pub fn should_checkpoint(&self) -> bool {
        self.records_since_checkpoint >= self.checkpoint_every
    }

    /// Durably writes `checkpoint` (tmp + fsync + rename) and truncates
    /// the journal. On success the log is one checkpoint file plus an
    /// empty journal; LSNs keep counting.
    pub fn write_checkpoint(&mut self, checkpoint: &Checkpoint) -> io::Result<()> {
        let payload = checkpoint
            .to_json()
            .render()
            .expect("checkpoints contain no non-finite numbers");
        let tmp = self.dir.join("checkpoint.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(frame_line(&payload).as_bytes())?;
            if self.policy != FsyncPolicy::Off {
                f.sync_data()?;
            }
        }
        fs::rename(&tmp, self.dir.join(CHECKPOINT_FILE))?;
        if self.policy != FsyncPolicy::Off {
            // Make the rename itself durable; harmless no-op where
            // directories cannot be fsynced.
            if let Ok(d) = File::open(&self.dir) {
                let _ = d.sync_all();
            }
        }
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        if self.policy != FsyncPolicy::Off {
            self.file.sync_data()?;
        }
        self.records_since_checkpoint = 0;
        self.batch_dirty = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrip_and_corruption() {
        let line = frame_line(r#"{"lsn":1}"#);
        let stripped = line.trim_end_matches('\n');
        assert_eq!(unframe_line(stripped), Some(r#"{"lsn":1}"#));
        // Any flipped payload byte fails the CRC.
        let mut bad = stripped.to_owned();
        bad.replace_range(9..10, "2");
        assert_eq!(unframe_line(&bad), None);
        // A garbled CRC fails too.
        let mut bad = stripped.to_owned();
        bad.replace_range(0..1, "z");
        assert_eq!(unframe_line(&bad), None);
    }

    /// One record per op, each against the exact bytes the journal has
    /// always held for it (`kind` included), so journals stay readable
    /// across builds in both directions.
    #[test]
    fn record_json_roundtrip() {
        let cases = [
            (
                RecordBody::CreateApplied {
                    session: 1,
                    params: Json::obj(vec![("n", 8u64.to_json())]),
                },
                r#"{"lsn":1,"kind":"applied","op":"create","session":1,"params":{"n":8}}"#,
            ),
            (
                RecordBody::StepApplied {
                    session: 1,
                    stepped: 7,
                },
                r#"{"lsn":2,"kind":"applied","op":"step","session":1,"stepped":7}"#,
            ),
            (
                RecordBody::CloseApplied { session: 1 },
                r#"{"lsn":3,"kind":"applied","op":"close","session":1}"#,
            ),
            (
                RecordBody::Evict { session: 2 },
                r#"{"lsn":4,"kind":"applied","op":"evict","session":2}"#,
            ),
            (
                RecordBody::Poison {
                    session: 3,
                    message: "boom".into(),
                },
                r#"{"lsn":5,"kind":"applied","op":"poison","session":3,"message":"boom"}"#,
            ),
        ];
        for (lsn, (body, bytes)) in (1..).zip(cases) {
            let record = JournalRecord { lsn, body };
            let text = record.to_json().render().unwrap();
            assert_eq!(text, bytes);
            let back = JournalRecord::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, record);
        }
    }

    fn step(lsn: u64, stepped: u64) -> JournalRecord {
        JournalRecord {
            lsn,
            body: RecordBody::StepApplied {
                session: 1,
                stepped,
            },
        }
    }

    #[test]
    fn load_tolerates_missing_and_torn() {
        let dir = std::env::temp_dir().join(format!("bcountd-journal-unit-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        // Missing dir: empty state, lsn starts at 1.
        let state = load_state(&dir).unwrap();
        assert!(state.checkpoint.is_none() && state.records.is_empty());
        assert_eq!(state.next_lsn, 1);

        // Two good records then a torn third: the prefix loads, the tail
        // is measured for truncation.
        fs::create_dir_all(&dir).unwrap();
        let (r1, r2) = (step(1, 2), step(2, 3));
        let mut text = frame_line(&r1.to_json().render().unwrap());
        text.push_str(&frame_line(&r2.to_json().render().unwrap()));
        let clean = text.len() as u64;
        text.push_str("deadbeef {\"lsn\":3,\"kind\":\"app"); // torn, no newline
        fs::write(dir.join(JOURNAL_FILE), &text).unwrap();
        let state = load_state(&dir).unwrap();
        assert_eq!(state.records, vec![r1, r2]);
        assert_eq!(state.clean_len, clean);
        assert_eq!(state.truncated_bytes, text.len() as u64 - clean);
        assert_eq!(state.next_lsn, 3);

        let _ = fs::remove_dir_all(&dir);
    }

    /// Older builds wrote an `intent` line before each create/step/close.
    /// Those lines load as skipped records that still hold their LSN, so
    /// LSN order is checked across them and none of them is a torn tail.
    #[test]
    fn intent_lines_are_skipped_but_keep_their_lsn() {
        let dir = std::env::temp_dir().join(format!("bcountd-intent-unit-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let intent = |lsn: u64| {
            frame_line(&format!(
                r#"{{"lsn":{lsn},"kind":"intent","op":"step","session":1,"rounds":3}}"#
            ))
        };
        let applied = |record: &JournalRecord| frame_line(&record.to_json().render().unwrap());

        let (r2, r4) = (step(2, 3), step(4, 1));
        let mut text = intent(1) + &applied(&r2) + &intent(3) + &applied(&r4);
        let clean = text.len() as u64;
        fs::write(dir.join(JOURNAL_FILE), &text).unwrap();
        let state = load_state(&dir).unwrap();
        assert_eq!(state.records, vec![r2.clone(), r4.clone()]);
        assert_eq!((state.clean_len, state.truncated_bytes), (clean, 0));
        assert_eq!(state.next_lsn, 5);

        // A trailing intent is a whole record too: it moves `next_lsn`.
        text.push_str(&intent(5));
        let whole = text.len() as u64;
        fs::write(dir.join(JOURNAL_FILE), &text).unwrap();
        let state = load_state(&dir).unwrap();
        assert_eq!(state.records, vec![r2.clone(), r4.clone()]);
        assert_eq!((state.clean_len, state.next_lsn), (whole, 6));

        // An intent that breaks LSN order ends the prefix like any line.
        let mut bad = text.clone();
        bad.push_str(&intent(5));
        fs::write(dir.join(JOURNAL_FILE), &bad).unwrap();
        let state = load_state(&dir).unwrap();
        assert_eq!((state.clean_len, state.next_lsn), (whole, 6));
        assert_eq!(state.truncated_bytes, bad.len() as u64 - whole);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_roundtrip_and_lsn_skip() {
        let dir = std::env::temp_dir().join(format!("bcountd-ckpt-unit-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let ckpt = Checkpoint {
            lsn: 5,
            next_id: 3,
            sessions: vec![CheckpointSession {
                session: 2,
                params: Json::obj(vec![("n", 16u64.to_json())]),
                round: 9,
                poisoned: Some("bang".into()),
                snapshot: Json::obj(vec![("round", 9u64.to_json())]),
            }],
        };
        let mut journal =
            Journal::open(&dir, FsyncPolicy::Off, 10, 6, 0, 0).expect("open fresh journal");
        journal.write_checkpoint(&ckpt).unwrap();
        // Records at or below the checkpoint LSN are skipped on load;
        // later ones replay.
        journal
            .append(RecordBody::StepApplied {
                session: 2,
                stepped: 1,
            })
            .unwrap();
        let state = load_state(&dir).unwrap();
        assert_eq!(state.checkpoint, Some(ckpt));
        assert_eq!(state.records.len(), 1);
        assert_eq!(state.next_lsn, 7);

        let _ = fs::remove_dir_all(&dir);
    }
}

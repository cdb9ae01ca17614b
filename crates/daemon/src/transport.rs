//! Line transport for `bcountd`: capped line reading and the serve
//! loop shared by the stdin and unix-socket paths.
//!
//! Two hardening duties live here rather than in [`crate::server`]:
//!
//! * **Line caps** — [`next_line`] never buffers more than
//!   [`MAX_LINE_BYTES`] of one line. A client streaming an unterminated
//!   (or simply enormous) line gets a structured `parse-error` reply and
//!   the reader resyncs at the next newline; memory stays bounded no
//!   matter what the peer sends.
//! * **Graceful shutdown** — [`serve_graceful`] decouples blocking reads
//!   from the serve loop with a reader thread and blocks on a single
//!   event channel merging reader I/O with [`Shutdown`] wakes. A
//!   shutdown request interrupts the wait *immediately* (no poll tick):
//!   the in-flight request finishes, already-read lines are drained and
//!   replied to, everything is flushed, and the loop returns instead of
//!   dying mid-line.

use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Mutex;
use std::thread;

use crate::server::Server;
use crate::wire::{ErrorCode, Response};

/// Hard cap on one request line, in bytes (1 MiB). Far above any real
/// `bcountd/v1` request, far below a memory-exhaustion vector.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// One event pumped into a serve loop: reader I/O, a shutdown wake, or
/// end of input.
pub(crate) enum Pump {
    /// A reader event (or the read error that ended the reader).
    Io(std::io::Result<LineEvent>),
    /// [`Shutdown::request`] fired; re-check the flag.
    Wake,
    /// Clean EOF on the reader.
    Eof,
}

/// An event-driven shutdown signal: an atomic flag plus a registry of
/// serve-loop wakers, so [`Shutdown::request`] interrupts a blocked
/// serve loop immediately instead of waiting out a poll tick.
///
/// `request()` takes a lock and sends on channels, so it is **not**
/// async-signal-safe — a signal handler must defer to a normal thread
/// (the `bcountd` binary uses a self-pipe: the handler writes one byte,
/// a watcher thread reads it and calls `request()`).
pub struct Shutdown {
    flag: AtomicBool,
    wakers: Mutex<Vec<Sender<Pump>>>,
}

impl Shutdown {
    /// A shutdown signal in the "not requested" state. `const`, so it
    /// can back a `static`.
    pub const fn new() -> Self {
        Shutdown {
            flag: AtomicBool::new(false),
            wakers: Mutex::new(Vec::new()),
        }
    }

    /// Requests shutdown: raises the flag and wakes every registered
    /// serve loop. Idempotent; dead wakers (loops that already
    /// returned) are purged as a side effect.
    pub fn request(&self) {
        self.flag.store(true, Ordering::SeqCst);
        let mut wakers = self.wakers.lock().unwrap_or_else(|e| e.into_inner());
        wakers.retain(|w| w.send(Pump::Wake).is_ok());
    }

    /// Whether shutdown has been requested.
    pub fn is_requested(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Registers a serve loop's event channel for wake-ups.
    fn register(&self, waker: Sender<Pump>) {
        let mut wakers = self.wakers.lock().unwrap_or_else(|e| e.into_inner());
        wakers.push(waker);
    }
}

impl Default for Shutdown {
    fn default() -> Self {
        Shutdown::new()
    }
}

/// One reader event: a complete line, or notice that an oversized line
/// was discarded (already resynced past its terminating newline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineEvent {
    /// A complete line within the cap (without the newline).
    Line(String),
    /// A line longer than [`MAX_LINE_BYTES`]; payload is the discarded
    /// length in bytes (the cap's worth of prefix was buffered, the rest
    /// skipped).
    Oversized(usize),
}

/// Reads the next newline-terminated line, buffering at most
/// [`MAX_LINE_BYTES`]; `None` at clean EOF. An unterminated final line
/// is returned as a line (matching `BufRead::lines`). Invalid UTF-8 is
/// replaced lossily — the JSON parse downstream turns it into a
/// structured `parse-error`.
pub fn next_line(reader: &mut impl BufRead) -> std::io::Result<Option<LineEvent>> {
    let mut buf: Vec<u8> = Vec::new();
    let mut total: usize = 0;
    let mut saw_any = false;
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            if !saw_any {
                return Ok(None);
            }
            break;
        }
        saw_any = true;
        let (chunk_len, consumed, done) = match available.iter().position(|&b| b == b'\n') {
            Some(pos) => (pos, pos + 1, true),
            None => (available.len(), available.len(), false),
        };
        total += chunk_len;
        if buf.len() < MAX_LINE_BYTES {
            let take = chunk_len.min(MAX_LINE_BYTES - buf.len());
            buf.extend_from_slice(&available[..take]);
        }
        reader.consume(consumed);
        if done {
            break;
        }
    }
    if total > MAX_LINE_BYTES {
        Ok(Some(LineEvent::Oversized(total)))
    } else {
        Ok(Some(LineEvent::Line(
            String::from_utf8_lossy(&buf).into_owned(),
        )))
    }
}

/// Whether the event is a blank line (skipped without a reply, so
/// hand-typed sessions can space requests out).
fn is_blank(event: &LineEvent) -> bool {
    matches!(event, LineEvent::Line(line) if line.trim().is_empty())
}

/// The one response line for a reader event.
fn reply_for(server: &mut Server, event: LineEvent) -> String {
    match event {
        LineEvent::Line(line) => server.handle_line(&line),
        LineEvent::Oversized(len) => Response::err(
            None,
            ErrorCode::ParseError,
            format!("line of {len} bytes exceeds the {MAX_LINE_BYTES}-byte limit"),
        )
        .render_line(),
    }
}

/// The serve loop: one reply line per request line, each flushed
/// eagerly so a line-at-a-time client never deadlocks; returns at EOF.
/// Reads happen on a helper thread that pumps `Pump::Io` events into a
/// channel; [`Shutdown::request`] pumps a `Pump::Wake` into the same
/// channel, so the loop blocks on one `recv()` and reacts to whichever
/// arrives first — no poll tick, no shutdown latency. On shutdown,
/// already-read lines are drained (each gets its reply, written and
/// flushed) and the loop returns `Ok(())`; a request being handled when
/// the signal lands always finishes and replies first, because events
/// are handled one at a time.
pub fn serve_graceful(
    reader: impl BufRead + Send + 'static,
    mut writer: impl Write,
    server: &mut Server,
    shutdown: &Shutdown,
) -> std::io::Result<()> {
    let (tx, rx) = mpsc::channel::<Pump>();
    // The registry keeps a sender alive for the rest of this Shutdown's
    // life, so Disconnected can never signal EOF — the reader thread
    // sends an explicit Pump::Eof instead.
    shutdown.register(tx.clone());
    // The reader thread is detached: if the loop exits while the thread
    // is blocked in a read, its next send fails on the dropped receiver
    // and it unwinds quietly (or the process exits first — stdin reads
    // cannot be interrupted portably, which is why the thread exists).
    thread::spawn(move || {
        let mut reader = reader;
        loop {
            match next_line(&mut reader) {
                Ok(Some(event)) => {
                    if tx.send(Pump::Io(Ok(event))).is_err() {
                        return;
                    }
                }
                Ok(None) => {
                    let _ = tx.send(Pump::Eof);
                    return;
                }
                Err(e) => {
                    let _ = tx.send(Pump::Io(Err(e)));
                    return;
                }
            }
        }
    });
    loop {
        // Checked at the top of every iteration: a wake (or a flag
        // raised before this loop even started) lands here.
        if shutdown.is_requested() {
            // Drain lines that were already read so their replies are
            // not silently dropped on the floor.
            loop {
                match rx.try_recv() {
                    Ok(Pump::Io(Ok(event))) => {
                        if is_blank(&event) {
                            continue;
                        }
                        let reply = reply_for(server, event);
                        writeln!(writer, "{reply}")?;
                    }
                    Ok(Pump::Wake) => continue,
                    Ok(Pump::Io(Err(_))) | Ok(Pump::Eof) | Err(_) => break,
                }
            }
            writer.flush()?;
            return Ok(());
        }
        match rx.recv() {
            Ok(Pump::Io(Ok(event))) => {
                if is_blank(&event) {
                    continue;
                }
                let reply = reply_for(server, event);
                writeln!(writer, "{reply}")?;
                writer.flush()?;
            }
            Ok(Pump::Io(Err(e))) => return Err(e),
            Ok(Pump::Wake) => continue,
            Ok(Pump::Eof) | Err(_) => return Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn next_line_splits_and_caps() {
        let mut r = Cursor::new(b"alpha\nbeta".to_vec());
        assert_eq!(
            next_line(&mut r).unwrap(),
            Some(LineEvent::Line("alpha".into()))
        );
        assert_eq!(
            next_line(&mut r).unwrap(),
            Some(LineEvent::Line("beta".into()))
        );
        assert_eq!(next_line(&mut r).unwrap(), None);

        let big = vec![b'x'; MAX_LINE_BYTES + 7];
        let mut input = big.clone();
        input.push(b'\n');
        input.extend_from_slice(b"after\n");
        let mut r = Cursor::new(input);
        assert_eq!(
            next_line(&mut r).unwrap(),
            Some(LineEvent::Oversized(MAX_LINE_BYTES + 7))
        );
        // Resynced: the next line parses normally.
        assert_eq!(
            next_line(&mut r).unwrap(),
            Some(LineEvent::Line("after".into()))
        );
    }

    #[test]
    fn exactly_at_cap_is_a_line() {
        let mut input = vec![b'y'; MAX_LINE_BYTES];
        input.push(b'\n');
        let mut r = Cursor::new(input);
        match next_line(&mut r).unwrap() {
            Some(LineEvent::Line(s)) => assert_eq!(s.len(), MAX_LINE_BYTES),
            other => panic!("expected a line, got {other:?}"),
        }
    }

    /// A reader whose `read` blocks forever (until its channel is
    /// dropped) — models an idle client connection.
    struct BlockedReader(std::sync::mpsc::Receiver<u8>);

    impl std::io::Read for BlockedReader {
        fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
            // Blocks until the sender drops, then reports EOF.
            let _ = self.0.recv();
            Ok(0)
        }
    }

    #[test]
    fn shutdown_request_wakes_a_blocked_serve_loop() {
        use std::sync::Arc;

        let (hold_tx, hold_rx) = mpsc::channel::<u8>();
        let reader = std::io::BufReader::new(BlockedReader(hold_rx));
        let shutdown = Arc::new(Shutdown::new());
        let signal = Arc::clone(&shutdown);
        // Request shutdown from another thread shortly after the loop
        // blocks. The loop has no data and the reader never returns, so
        // serve_graceful returning at all proves the wake is
        // event-driven, not a poll.
        let requester = thread::spawn(move || {
            thread::sleep(std::time::Duration::from_millis(20));
            signal.request();
        });
        let mut server = Server::new();
        let mut out = Vec::new();
        serve_graceful(reader, &mut out, &mut server, &shutdown).unwrap();
        requester.join().unwrap();
        assert!(shutdown.is_requested());
        assert!(out.is_empty());
        drop(hold_tx);
    }

    #[test]
    fn request_before_serve_returns_immediately() {
        let shutdown = Shutdown::new();
        shutdown.request();
        shutdown.request(); // idempotent
        let mut server = Server::new();
        let mut out = Vec::new();
        // Flag was already up: the loop drains (nothing) and returns
        // without ever blocking on the reader.
        let (_hold_tx, hold_rx) = mpsc::channel::<u8>();
        let reader = std::io::BufReader::new(BlockedReader(hold_rx));
        serve_graceful(reader, &mut out, &mut server, &shutdown).unwrap();
        assert!(out.is_empty());
    }
}

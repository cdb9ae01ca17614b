//! `bcountd` — the counting service's transport loop.
//!
//! Speaks `bcountd/v1` (line-delimited JSON; see the crate docs and the
//! README's schema table) over stdin/stdout by default, or over a unix
//! socket with `--socket PATH` (connections are served sequentially and
//! share one session table, so a session created over one connection
//! can be stepped from the next).
//!
//! Hardening flags tune the [`ServerLimits`]; `--frozen-clock` pins the
//! server clock to a manual counter so transcripts that include
//! `idle_ms` fields are byte-stable (the golden CI transcripts use it).
//! `--state-dir` turns on the durability plane: every state-mutating
//! request is journaled write-ahead, and a restart with the same dir
//! recovers every session byte-identically (see the README's
//! "Durability & recovery" section).
//!
//! SIGTERM/SIGINT request a graceful shutdown: the handler writes one
//! byte down a self-pipe (the only async-signal-safe option), a watcher
//! thread turns that into a [`Shutdown::request`], and the serve loop —
//! blocked on its event channel, not a poll tick — wakes immediately,
//! finishes the in-flight request, flushes its reply, and exits.

use std::io::BufReader;

use bcount_daemon::server::{DurabilityOptions, ServerLimits};
use bcount_daemon::{serve_graceful, FsyncPolicy, Server, Shutdown};

const USAGE: &str = "usage: bcountd [--socket PATH] [--max-sessions N] [--max-n N]
               [--step-timeout-ms MS] [--idle-timeout-ms MS] [--frozen-clock]
               [--state-dir PATH] [--fsync always|batch|off] [--checkpoint-every N]

Long-lived counting service speaking bcountd/v1 (line-delimited JSON)
over stdin/stdout, or over a unix socket with --socket.

  --max-sessions N      live-session cap (default 256)
  --max-n N             per-session node cap (default 1048576)
  --step-timeout-ms MS  wall-clock budget per session.step; 0 disables
                        (default 30000)
  --idle-timeout-ms MS  evict sessions idle this long; 0 disables
                        (default 900000)
  --frozen-clock        pin the server clock (deterministic idle_ms /
                        timeouts, for golden transcripts)
  --state-dir PATH      journal every state-mutating request under PATH
                        and recover all sessions on restart
  --fsync POLICY        when journal appends reach disk: always (every
                        record), batch (once per request; default), off
  --checkpoint-every N  checkpoint after N journal records (bounds
                        journal length and replay time; default 256)";

/// The process-wide shutdown signal, requested by the signal watcher
/// thread (or never, on platforms without signals).
static SHUTDOWN: Shutdown = Shutdown::new();

#[cfg(unix)]
mod sig {
    /// Self-pipe file descriptors: `[read, write]`, filled by
    /// `install()` before the handler can fire.
    static mut PIPE_FDS: [i32; 2] = [-1, -1];

    extern "C" {
        fn pipe(fds: *mut i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_term(_signum: i32) {
        // Only async-signal-safe work here: one byte down the self-pipe.
        // Shutdown::request() locks a mutex, so it must NOT be called
        // from a handler; the watcher thread does it.
        unsafe {
            let fd = PIPE_FDS[1];
            if fd >= 0 {
                let byte = 1u8;
                let _ = write(fd, &byte, 1);
            }
        }
    }

    /// Installs the SIGTERM/SIGINT handler and the watcher thread that
    /// converts the self-pipe byte into a `Shutdown::request()` (which
    /// wakes blocked serve loops immediately).
    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let read_fd = unsafe {
            let mut fds = [-1i32; 2];
            if pipe(fds.as_mut_ptr()) != 0 {
                // No pipe, no graceful shutdown — degrade to running
                // without signal handling rather than failing startup.
                return;
            }
            PIPE_FDS = fds;
            let handler = on_term as extern "C" fn(i32) as usize;
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
            fds[0]
        };
        std::thread::spawn(move || {
            let mut byte = 0u8;
            loop {
                let n = unsafe { read(read_fd, &mut byte, 1) };
                if n > 0 {
                    super::SHUTDOWN.request();
                } else if n == 0 {
                    return;
                }
                // n < 0 is EINTR or similar: retry.
            }
        });
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut socket: Option<String> = None;
    let mut limits = ServerLimits::default();
    let mut frozen = false;
    let mut state_dir: Option<String> = None;
    let mut fsync = FsyncPolicy::Batch;
    let mut checkpoint_every: u64 = 256;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => match args.next() {
                Some(path) => socket = Some(path),
                None => die("--socket requires a path"),
            },
            "--max-sessions" => limits.max_sessions = num_arg(&mut args, "--max-sessions"),
            "--max-n" => limits.max_n = num_arg(&mut args, "--max-n"),
            "--step-timeout-ms" => limits.step_timeout_ms = num_arg(&mut args, "--step-timeout-ms"),
            "--idle-timeout-ms" => limits.idle_timeout_ms = num_arg(&mut args, "--idle-timeout-ms"),
            "--frozen-clock" => frozen = true,
            "--state-dir" => match args.next() {
                Some(path) => state_dir = Some(path),
                None => die("--state-dir requires a path"),
            },
            "--fsync" => match args.next().as_deref().and_then(FsyncPolicy::parse) {
                Some(policy) => fsync = policy,
                None => die("--fsync requires one of: always, batch, off"),
            },
            "--checkpoint-every" => checkpoint_every = num_arg(&mut args, "--checkpoint-every"),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => die(&format!("unknown argument '{other}'")),
        }
    }

    sig::install();
    let mut server = match &state_dir {
        Some(dir) => {
            let opts = DurabilityOptions {
                state_dir: dir.into(),
                fsync,
                checkpoint_every,
            };
            match Server::open_durable(&opts, limits, frozen) {
                Ok(server) => {
                    if let Some(stats) = server.recovery_stats() {
                        eprintln!(
                            "bcountd: recovered {} session(s) from {dir} \
                             ({} record(s), {} round(s) replayed{}{})",
                            stats.recovered_sessions,
                            stats.replayed_records,
                            stats.replayed_rounds,
                            if stats.truncated_bytes > 0 {
                                format!(", {} torn byte(s) truncated", stats.truncated_bytes)
                            } else {
                                String::new()
                            },
                            if stats.failed_sessions > 0 {
                                format!(", {} session(s) unrecoverable", stats.failed_sessions)
                            } else {
                                String::new()
                            },
                        );
                    }
                    server
                }
                Err(e) => die(&format!("cannot open state dir {dir}: {e}")),
            }
        }
        None if frozen => Server::frozen(limits),
        None => Server::with_limits(limits),
    };
    let result = match socket {
        Some(path) => serve_socket(&path, &mut server),
        None => {
            // Stdin is moved into the transport's reader thread (locking
            // happens per read), so blocking reads never hold up
            // shutdown wake-ups.
            let reader = BufReader::new(std::io::stdin());
            serve_graceful(reader, std::io::stdout().lock(), &mut server, &SHUTDOWN)
        }
    };
    if let Err(e) = result {
        die(&format!("i/o error: {e}"));
    }
}

fn die(msg: &str) -> ! {
    eprintln!("bcountd: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

fn num_arg<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    match args.next().and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => die(&format!("{flag} requires a number")),
    }
}

#[cfg(unix)]
fn serve_socket(path: &str, server: &mut Server) -> std::io::Result<()> {
    use std::os::unix::net::UnixListener;

    // A stale socket file from a previous run would make bind fail.
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    // Nonblocking accept so SIGTERM between connections is honored
    // within one tick rather than waiting for the next client.
    listener.set_nonblocking(true)?;
    eprintln!("bcountd: listening on {path}");
    loop {
        if SHUTDOWN.is_requested() {
            return Ok(());
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                stream.set_nonblocking(false)?;
                let writer = stream.try_clone()?;
                // A client hanging up mid-line is a normal disconnect,
                // not a daemon failure; sessions outlive the connection.
                if let Err(e) = serve_graceful(BufReader::new(stream), writer, server, &SHUTDOWN) {
                    eprintln!("bcountd: connection error: {e}");
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(not(unix))]
fn serve_socket(_path: &str, _server: &mut Server) -> std::io::Result<()> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "--socket requires a unix platform",
    ))
}

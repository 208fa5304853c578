//! The compile-farm daemon behind `filament serve`, plus its client.
//!
//! A long-lived process keeps everything expensive hot in memory — the
//! parsed standard library ([`crate::std_program`]'s `OnceLock`), the
//! driver's cross-session artifact cache (via `--cache-dir`), the
//! process-wide elaborated-netlist cache, and a bounded memo of completed
//! builds — so a warm client goes from source text to a simulator-ready
//! answer in microseconds. One thread per connection; concurrent
//! *identical* requests are collapsed into a single build by
//! [`fil_build::SingleFlight`] (keyed by
//! [`fil_build::request::request_key`] over the normalized request), and
//! every caller shares the leader's encoded reply bytes, which is what
//! makes daemon output byte-for-byte identical across clients.
//!
//! ## Protocol
//!
//! Every message is one [`fil_build::request::write_frame`] frame (magic,
//! version salt, length, payload, checksum). The first payload byte is an
//! opcode; the rest is opcode-specific:
//!
//! | request | payload | reply |
//! |---|---|---|
//! | `OP_BUILD` | [`fil_build::request::encode_request`] bytes | `RESP_OK` + served byte + [`fil_build::request::encode_output`] bytes, or `RESP_ERR` + message |
//! | `OP_PING` | — | `RESP_PONG` |
//! | `OP_STATS` | — | `RESP_STATS` + `(name, value)` pairs |
//! | `OP_STOP` | — | `RESP_BYE`, then the daemon drains and exits |
//!
//! A malformed frame (bad magic, version skew, checksum failure, bogus
//! opcode) is answered with a best-effort `RESP_ERR` and *that
//! connection* is closed; the daemon itself stays up. A client that
//! vanishes mid-frame costs nothing but its own thread, and one that
//! stalls holds it for at most twice [`FRAME_DEADLINE`]: a frame that has
//! not arrived whole by its deadline counts as malformed. At most
//! [`MAX_CONNECTIONS`] connections are served at once. Past the cap, one
//! more *control* connection reads a single frame under the same
//! deadline: it answers `OP_STOP`, `OP_PING` and `OP_STATS`, and
//! `OP_BUILD` with a "busy" `RESP_ERR`, so the daemon stays stoppable
//! while every build slot is taken. Any connection beyond that is
//! answered "busy" and closed without a thread.

use calyx_lite::serial::{DecodeError, Reader, Writer};
use fil_build::request::{self as wire, FrameError};
use fil_build::{BuildRequest, Served};
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const OP_BUILD: u8 = 1;
const OP_PING: u8 = 2;
const OP_STATS: u8 = 3;
const OP_STOP: u8 = 4;

const RESP_OK: u8 = 1;
const RESP_ERR: u8 = 2;
const RESP_PONG: u8 = 3;
const RESP_STATS: u8 = 4;
const RESP_BYE: u8 = 5;

/// How long the daemon waits for a whole request frame, and for each
/// blocked read or reply write, before it drops the connection. A stalled
/// client then cannot pin its connection thread, nor hold off the idle
/// timeout.
pub const FRAME_DEADLINE: Duration = Duration::from_secs(2);

/// How many connections the daemon serves at once. Past the cap, one
/// control connection (see the module docs) still answers stop, ping and
/// stats, and every other connection gets a "busy" error frame and is
/// closed, so a flood of clients cannot make the daemon spawn threads
/// without bound.
pub const MAX_CONNECTIONS: u64 = 32;

/// How many completed builds the daemon memoizes (encoded reply bytes,
/// FIFO). Identical repeats inside this window skip the driver entirely.
const MEMO_CAPACITY: usize = 64;

/// How the daemon listens and builds.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Unix socket path to bind.
    pub socket: PathBuf,
    /// Driver worker threads for every build the daemon runs (the daemon
    /// owns its pool: a request's own `jobs` field is overridden).
    pub jobs: usize,
    /// Artifact cache directory for every build the daemon runs (the
    /// daemon owns its cache: a request's own `cache_dir` is ignored, so
    /// a client cannot make the daemon write anywhere else).
    pub cache_dir: Option<PathBuf>,
    /// Artifact-cache size budget for every build (a request's own
    /// `cache_limit` is ignored).
    pub cache_limit: Option<u64>,
    /// Exit after this long with no connections and no in-flight work.
    /// `None` serves forever (until `OP_STOP`).
    pub idle_timeout: Option<Duration>,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    builds_run: AtomicU64,
    memo_hits: AtomicU64,
    coalesced: AtomicU64,
    malformed_frames: AtomicU64,
}

struct Shared {
    opts: ServeOptions,
    flight: fil_build::SingleFlight<(u64, u64), Result<Vec<u8>, String>>,
    stop: AtomicBool,
    active: AtomicU64,
    /// Whether the one control connection past the cap is in use.
    control: AtomicBool,
    /// When the daemon last accepted a connection or finished one — the
    /// idle watchdog measures from here while `active` is zero.
    last_activity: Mutex<Instant>,
    stats: Counters,
}

/// Sets the stop flag and pokes the blocking accept loop awake with an
/// empty connection.
fn request_stop(shared: &Shared) {
    shared.stop.store(true, Ordering::SeqCst);
    let _ = UnixStream::connect(&shared.opts.socket);
}

/// A bound compile-farm daemon. [`Server::bind`] claims the socket;
/// [`Server::run`] serves until stopped or idle-timed-out.
pub struct Server {
    listener: UnixListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the daemon socket. A leftover socket file from a crashed
    /// daemon (nothing accepts on it) is removed and rebound; a *live*
    /// daemon on the path is an error.
    ///
    /// # Errors
    ///
    /// `AddrInUse` when another daemon is serving the path, or any other
    /// bind failure.
    pub fn bind(opts: ServeOptions) -> io::Result<Server> {
        let listener = match UnixListener::bind(&opts.socket) {
            Ok(l) => l,
            Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
                if UnixStream::connect(&opts.socket).is_ok() {
                    return Err(io::Error::new(
                        io::ErrorKind::AddrInUse,
                        format!("a daemon is already serving {}", opts.socket.display()),
                    ));
                }
                // Stale socket from a crashed daemon: reclaim it.
                std::fs::remove_file(&opts.socket)?;
                UnixListener::bind(&opts.socket)?
            }
            Err(e) => return Err(e),
        };
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                opts,
                flight: fil_build::SingleFlight::new(MEMO_CAPACITY),
                stop: AtomicBool::new(false),
                active: AtomicU64::new(0),
                control: AtomicBool::new(false),
                last_activity: Mutex::new(Instant::now()),
                stats: Counters::default(),
            }),
        })
    }

    /// The socket path this server is bound to.
    pub fn socket(&self) -> &Path {
        &self.shared.opts.socket
    }

    /// Serves connections until `OP_STOP` arrives or the idle timeout
    /// elapses, then removes the socket file. Connection threads are
    /// detached; a stop does not wait on a client that is mid-read.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O failures (the socket file is still
    /// cleaned up).
    pub fn run(self) -> io::Result<()> {
        // Accept blocks — connection latency stays at syscall cost
        // instead of a poll interval. The stop handler and the idle
        // watchdog wake the loop with an empty connection.
        if let Some(limit) = self.shared.opts.idle_timeout {
            let shared = self.shared.clone();
            let tick = limit
                .min(Duration::from_millis(100))
                .max(Duration::from_millis(5));
            std::thread::spawn(move || loop {
                std::thread::sleep(tick);
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                let idle = shared.active.load(Ordering::SeqCst) == 0
                    && shared.last_activity.lock().unwrap().elapsed() >= limit;
                if idle {
                    request_stop(&shared);
                    return;
                }
            });
        }
        let result = loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.shared.stop.load(Ordering::SeqCst) {
                        break Ok(()); // the stream was only ever a waker
                    }
                    let _ = stream.set_read_timeout(Some(FRAME_DEADLINE));
                    let _ = stream.set_write_timeout(Some(FRAME_DEADLINE));
                    let shared = self.shared.clone();
                    if shared.active.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
                        if shared.control.swap(true, Ordering::SeqCst) {
                            let _ = write_err(&stream, BUSY);
                        } else {
                            std::thread::spawn(move || {
                                handle_connection(stream, &shared, true);
                                shared.control.store(false, Ordering::SeqCst);
                            });
                        }
                        continue;
                    }
                    shared.stats.connections.fetch_add(1, Ordering::Relaxed);
                    shared.active.fetch_add(1, Ordering::SeqCst);
                    *shared.last_activity.lock().unwrap() = Instant::now();
                    std::thread::spawn(move || {
                        handle_connection(stream, &shared, false);
                        shared.active.fetch_sub(1, Ordering::SeqCst);
                        *shared.last_activity.lock().unwrap() = Instant::now();
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        let _ = std::fs::remove_file(&self.shared.opts.socket);
        result
    }
}

/// Applies the daemon's resource policy to a decoded request: the daemon
/// owns the worker pool and the artifact cache, whatever the client sent.
/// Normalizing *before* keying means two clients that differ only in
/// those fields coalesce onto one build.
fn normalize(mut req: BuildRequest, opts: &ServeOptions) -> BuildRequest {
    req.options.jobs = opts.jobs;
    req.options.cache_dir = opts.cache_dir.clone();
    req.options.cache_limit = opts.cache_limit;
    req
}

/// Reads a frame from a stream until a fixed instant, however slowly its
/// bytes trickle in. Each read also waits at most the stream's read
/// timeout ([`FRAME_DEADLINE`]), so a frame is cut off within twice that.
struct DeadlineReader<'a> {
    stream: &'a UnixStream,
    until: Instant,
}

impl io::Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if Instant::now() >= self.until {
            return Err(io::ErrorKind::TimedOut.into());
        }
        match io::Read::read(&mut self.stream, buf) {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Err(io::ErrorKind::TimedOut.into()),
            r => r,
        }
    }
}

/// The reply to a build past the connection cap.
const BUSY: &str = "daemon busy: too many open connections";

/// Serves one connection's frames; a `control` connection (past the cap)
/// answers one frame and refuses builds.
fn handle_connection(stream: UnixStream, shared: &Shared, control: bool) {
    loop {
        let mut reader = DeadlineReader {
            stream: &stream,
            until: Instant::now() + FRAME_DEADLINE,
        };
        let payload = match wire::read_frame(&mut reader) {
            Ok(p) => p,
            Err(FrameError::Closed) => return,
            Err(e) => {
                shared
                    .stats
                    .malformed_frames
                    .fetch_add(1, Ordering::Relaxed);
                let _ = write_err(&stream, &format!("malformed frame: {e}"));
                return;
            }
        };
        let ok = match payload.split_first() {
            Some((&OP_PING, _)) => write_frame_to(&stream, &[RESP_PONG]).is_ok(),
            Some((&OP_STATS, _)) => {
                let pairs = snapshot_stats(shared);
                let mut out = vec![RESP_STATS];
                let mut w = Writer::new(&mut out);
                w.len_prefix(pairs.len());
                for (name, value) in pairs {
                    w.str(name);
                    w.u64(value);
                }
                write_frame_to(&stream, &out).is_ok()
            }
            Some((&OP_STOP, _)) => {
                let _ = write_frame_to(&stream, &[RESP_BYE]);
                request_stop(shared);
                return;
            }
            Some((&OP_BUILD, _)) if control => {
                let _ = write_err(&stream, BUSY);
                return;
            }
            Some((&OP_BUILD, rest)) => match wire::decode_request(rest) {
                Ok((req, _)) => {
                    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
                    serve_build(&stream, shared, normalize(req, &shared.opts)).is_ok()
                }
                Err(e) => {
                    shared
                        .stats
                        .malformed_frames
                        .fetch_add(1, Ordering::Relaxed);
                    let _ = write_err(&stream, &format!("bad request: {e}"));
                    return;
                }
            },
            _ => {
                shared
                    .stats
                    .malformed_frames
                    .fetch_add(1, Ordering::Relaxed);
                let _ = write_err(&stream, "unknown opcode");
                return;
            }
        };
        if !ok || control {
            return;
        }
    }
}

fn serve_build(stream: &UnixStream, shared: &Shared, req: BuildRequest) -> io::Result<()> {
    let key = wire::request_key(&req);
    let (result, served) = shared.flight.run(key, || {
        shared.stats.builds_run.fetch_add(1, Ordering::Relaxed);
        match crate::build(&req) {
            Ok(output) => {
                let mut bytes = Vec::new();
                wire::encode_output(&output, &mut bytes);
                (Ok(bytes), true)
            }
            // Failures reach every waiter but are not memoized — a
            // transient cache-dir problem must not poison the key.
            Err(e) => (Err(e.to_string()), false),
        }
    });
    match served {
        Served::Led => {}
        Served::Coalesced => {
            shared.stats.coalesced.fetch_add(1, Ordering::Relaxed);
        }
        Served::Memo => {
            shared.stats.memo_hits.fetch_add(1, Ordering::Relaxed);
        }
    }
    match &*result {
        Ok(bytes) => {
            let mut out = Vec::with_capacity(bytes.len() + 2);
            out.push(RESP_OK);
            out.push(match served {
                Served::Led => 0,
                Served::Coalesced => 1,
                Served::Memo => 2,
            });
            out.extend_from_slice(bytes);
            write_frame_to(stream, &out)
        }
        Err(msg) => write_err(stream, msg),
    }
}

fn snapshot_stats(shared: &Shared) -> Vec<(&'static str, u64)> {
    let s = &shared.stats;
    vec![
        ("connections", s.connections.load(Ordering::Relaxed)),
        ("requests", s.requests.load(Ordering::Relaxed)),
        ("builds_run", s.builds_run.load(Ordering::Relaxed)),
        ("memo_hits", s.memo_hits.load(Ordering::Relaxed)),
        ("coalesced", s.coalesced.load(Ordering::Relaxed)),
        (
            "malformed_frames",
            s.malformed_frames.load(Ordering::Relaxed),
        ),
        ("memo_len", shared.flight.memo_len() as u64),
        ("netlist_cache_len", crate::netlist_memo().memo_len() as u64),
    ]
}

fn write_frame_to(mut stream: &UnixStream, payload: &[u8]) -> io::Result<()> {
    wire::write_frame(&mut stream, payload)
}

fn write_err(stream: &UnixStream, msg: &str) -> io::Result<()> {
    let mut out = vec![RESP_ERR];
    Writer::new(&mut out).str(msg);
    write_frame_to(stream, &out)
}

// ----------------------------------------------------------------- client

/// Client-side failures talking to a daemon. [`ClientError::Connect`] is
/// the "no daemon there" case front ends use to fall back to a local
/// build.
#[derive(Debug)]
pub enum ClientError {
    /// Could not connect to the socket (daemon not running / wrong path).
    Connect(io::Error),
    /// I/O failed after the connection was established.
    Io(io::Error),
    /// A reply frame was malformed or version-skewed.
    Frame(FrameError),
    /// The daemon reported a build or request error.
    Server(String),
    /// The daemon replied with something the protocol does not allow.
    Protocol(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "cannot reach daemon: {e}"),
            ClientError::Io(e) => write!(f, "daemon i/o: {e}"),
            ClientError::Frame(e) => write!(f, "daemon frame: {e}"),
            ClientError::Server(msg) => write!(f, "{msg}"),
            ClientError::Protocol(what) => write!(f, "daemon protocol violation: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<DecodeError> for ClientError {
    fn from(e: DecodeError) -> Self {
        ClientError::Frame(FrameError::Decode(e))
    }
}

/// A successful remote build: the decoded output plus how the daemon
/// obtained it (fresh build, coalesced onto a concurrent identical
/// request, or served from the completion memo).
#[derive(Debug)]
pub struct RemoteBuild {
    /// The decoded build output (wire fields only — see
    /// [`fil_build::request::decode_output`]).
    pub output: fil_build::BuildOutput,
    /// How the daemon satisfied the request.
    pub served: Served,
}

fn roundtrip(socket: &Path, payload: &[u8]) -> Result<Vec<u8>, ClientError> {
    let mut stream = UnixStream::connect(socket).map_err(ClientError::Connect)?;
    // A busy daemon replies without reading the request and hangs up, so
    // a failed write can still leave its reply to read.
    let sent = wire::write_frame(&mut stream, payload);
    let reply = match (wire::read_frame(&mut stream), sent) {
        (Ok(reply), _) => reply,
        (Err(_), Err(e)) => return Err(ClientError::Io(e)),
        (Err(e), Ok(())) => return Err(ClientError::Frame(e)),
    };
    match reply.split_first() {
        Some((&RESP_ERR, rest)) => Err(ClientError::Server(Reader::new(rest).str()?)),
        _ => Ok(reply),
    }
}

/// Runs `req` on the daemon at `socket`.
///
/// # Errors
///
/// [`ClientError::Connect`] when no daemon answers (callers typically
/// fall back to a local build), otherwise the transport or server
/// failure.
pub fn request_build(socket: &Path, req: &BuildRequest) -> Result<RemoteBuild, ClientError> {
    let mut payload = vec![OP_BUILD];
    wire::encode_request(req, &mut payload);
    let resp = roundtrip(socket, &payload)?;
    match resp.split_first() {
        Some((&RESP_OK, rest)) => {
            let (&served, rest) = rest
                .split_first()
                .ok_or(ClientError::Protocol("missing served byte"))?;
            let served = match served {
                0 => Served::Led,
                1 => Served::Coalesced,
                2 => Served::Memo,
                _ => return Err(ClientError::Protocol("bad served byte")),
            };
            let (output, _) = wire::decode_output(rest)?;
            Ok(RemoteBuild { output, served })
        }
        _ => Err(ClientError::Protocol("unexpected reply")),
    }
}

/// Checks that a daemon is alive at `socket`.
///
/// # Errors
///
/// As [`request_build`].
pub fn ping(socket: &Path) -> Result<(), ClientError> {
    match roundtrip(socket, &[OP_PING])?.as_slice() {
        [RESP_PONG] => Ok(()),
        _ => Err(ClientError::Protocol("unexpected pong")),
    }
}

/// Fetches the daemon's counters as `(name, value)` pairs.
///
/// # Errors
///
/// As [`request_build`].
pub fn server_stats(socket: &Path) -> Result<Vec<(String, u64)>, ClientError> {
    let resp = roundtrip(socket, &[OP_STATS])?;
    let rest = match resp.split_first() {
        Some((&RESP_STATS, rest)) => rest,
        _ => return Err(ClientError::Protocol("unexpected stats reply")),
    };
    let mut r = Reader::new(rest);
    let count = r.count(4 + 8)?;
    (0..count).map(|_| Ok((r.str()?, r.u64()?))).collect()
}

/// Asks the daemon at `socket` to shut down (it drains and removes its
/// socket file).
///
/// # Errors
///
/// As [`request_build`].
pub fn stop(socket: &Path) -> Result<(), ClientError> {
    match roundtrip(socket, &[OP_STOP])?.as_slice() {
        [RESP_BYE] => Ok(()),
        _ => Err(ClientError::Protocol("unexpected stop reply")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn sock(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("fil-serve-{tag}-{}.sock", std::process::id()))
    }

    fn spawn_server(socket: PathBuf) -> std::thread::JoinHandle<io::Result<()>> {
        let server = Server::bind(ServeOptions {
            socket,
            jobs: 1,
            ..Default::default()
        })
        .unwrap();
        std::thread::spawn(move || server.run())
    }

    fn wait_for(socket: &Path) {
        for _ in 0..200 {
            if ping(socket).is_ok() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("daemon never came up at {}", socket.display());
    }

    const MAIN: &str = "comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
        a := new Add[8]<G>(x, x);
        o = a.out;
    }";

    #[test]
    fn build_ping_stats_stop_lifecycle() {
        let socket = sock("lifecycle");
        let handle = spawn_server(socket.clone());
        wait_for(&socket);

        let local = crate::build(&BuildRequest::new(MAIN).verilog()).unwrap();
        let first = request_build(&socket, &BuildRequest::new(MAIN).verilog()).unwrap();
        assert_eq!(first.served, Served::Led);
        assert_eq!(first.output.verilog, local.verilog, "byte-identical");
        assert_eq!(first.output.expanded_text, local.expanded_text);

        let second = request_build(&socket, &BuildRequest::new(MAIN).verilog()).unwrap();
        assert_eq!(second.served, Served::Memo, "warm repeat skips the driver");
        assert_eq!(second.output.verilog, local.verilog);

        let stats: std::collections::HashMap<_, _> =
            server_stats(&socket).unwrap().into_iter().collect();
        assert_eq!(stats["builds_run"], 1, "one build served both requests");
        assert_eq!(stats["memo_hits"], 1);

        stop(&socket).unwrap();
        handle.join().unwrap().unwrap();
        assert!(!socket.exists(), "socket file removed on shutdown");
    }

    #[test]
    fn opt_levels_never_share_a_memo_entry() {
        // Regression guard for new request fields: two requests that
        // differ *only* in `opt_level` must key to different single-flight
        // entries, or an -O0 client could be served -O2 bytes (and vice
        // versa) out of the daemon memo.
        let socket = sock("optmemo");
        let handle = spawn_server(socket.clone());
        wait_for(&socket);

        let plain = request_build(&socket, &BuildRequest::new(MAIN).verilog()).unwrap();
        assert_eq!(plain.served, Served::Led);
        let opted =
            request_build(&socket, &BuildRequest::new(MAIN).verilog().opt_level(2)).unwrap();
        assert_eq!(
            opted.served,
            Served::Led,
            "an -O2 request must not hit the -O0 memo entry"
        );
        assert_eq!(opted.output.stats.opt.level, 2);
        assert!(
            opted.output.stats.opt.cells_before >= opted.output.stats.opt.cells_after,
            "the optimizer ran on the -O2 build"
        );

        // Repeats of each flavor hit their own memo entries.
        let plain2 = request_build(&socket, &BuildRequest::new(MAIN).verilog()).unwrap();
        assert_eq!(plain2.served, Served::Memo);
        assert_eq!(plain2.output.verilog, plain.output.verilog);
        let opted2 =
            request_build(&socket, &BuildRequest::new(MAIN).verilog().opt_level(2)).unwrap();
        assert_eq!(opted2.served, Served::Memo);
        assert_eq!(opted2.output.verilog, opted.output.verilog);

        let stats: std::collections::HashMap<_, _> =
            server_stats(&socket).unwrap().into_iter().collect();
        assert_eq!(stats["builds_run"], 2, "one build per opt level");
        stop(&socket).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn build_errors_come_back_as_server_errors() {
        let socket = sock("err");
        let handle = spawn_server(socket.clone());
        wait_for(&socket);
        let err = request_build(&socket, &BuildRequest::new("comp %%<")).unwrap_err();
        assert!(matches!(err, ClientError::Server(_)), "got {err:?}");
        // The daemon survived the failed build.
        ping(&socket).unwrap();
        stop(&socket).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn garbage_frames_do_not_kill_the_daemon() {
        let socket = sock("garbage");
        let handle = spawn_server(socket.clone());
        wait_for(&socket);
        // Raw garbage instead of a frame.
        let mut s = UnixStream::connect(&socket).unwrap();
        s.write_all(b"this is not a frame at all......").unwrap();
        drop(s);
        // A half-written frame header, then disconnect.
        let mut s = UnixStream::connect(&socket).unwrap();
        s.write_all(b"FSV").unwrap();
        drop(s);
        ping(&socket).unwrap();
        let stats: std::collections::HashMap<_, _> =
            server_stats(&socket).unwrap().into_iter().collect();
        assert!(stats["malformed_frames"] >= 1);
        stop(&socket).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn stale_socket_is_reclaimed_live_socket_is_not() {
        let socket = sock("stale");
        // Fabricate a stale socket file: bind and drop without serving.
        drop(UnixListener::bind(&socket).unwrap());
        assert!(socket.exists());
        let handle = spawn_server(socket.clone());
        wait_for(&socket);
        // A second daemon on the same live socket must refuse.
        let err = match Server::bind(ServeOptions {
            socket: socket.clone(),
            ..Default::default()
        }) {
            Ok(_) => panic!("bound over a live daemon"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse);
        stop(&socket).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn idle_timeout_shuts_the_daemon_down() {
        let socket = sock("idle");
        let server = Server::bind(ServeOptions {
            socket: socket.clone(),
            jobs: 1,
            idle_timeout: Some(Duration::from_millis(200)),
            ..Default::default()
        })
        .unwrap();
        let handle = std::thread::spawn(move || server.run());
        wait_for(&socket);
        handle.join().unwrap().unwrap();
        assert!(!socket.exists(), "socket removed after idle exit");
    }
}

//! Compile-farm gates for `filament serve`, driven in-process through
//! [`fil_stdlib::serve`]:
//!
//! * **Single flight** — N concurrent identical requests run the build
//!   exactly once (one `Led` reply, everyone else coalesced or memoized),
//!   and every reply carries byte-identical artifacts, which in turn match
//!   a local build of the same request.
//! * **Distinct keys stay distinct** — different sources build separately;
//!   a repeat of either is served from the completion memo without
//!   touching the driver again.
//! * **Warm netlists** — a request family that shares a lowered program
//!   skips re-elaboration via the process-wide netlist cache, and the
//!   netlist shipped over the wire is byte-identical to a local one.
//! * **The daemon owns its cache** — a client-supplied `cache_dir` is
//!   ignored; the reply still matches a local build.
//! * **Abuse survival** — mid-frame disconnects, raw garbage, and
//!   truncated headers cost the daemon nothing but the one connection.
//! * **Memo speed** — a memo hit is at least 5× faster than the cold
//!   build it repeats.
//! * **Frame deadline** — a client that stalls mid-frame is cut off after
//!   [`serve::FRAME_DEADLINE`], so it neither starves other clients nor
//!   keeps an idle-timed daemon alive.
//! * **Admission limit** — past [`serve::MAX_CONNECTIONS`] open
//!   connections the daemon answers "busy" instead of spawning a thread,
//!   and serves again once they close; one control connection past the
//!   cap still answers ping, stats and stop.
//! * **No abort on huge times** — a register scheduled near the last
//!   representable cycle, which once made the daemon request 17 GB and
//!   abort, is refused with a diagnostic; the next client still builds.
//!   So is a `for` loop of 2^62 iterations, which once held a worker.

#![cfg(unix)]

use fil_build::{request as wire, BuildRequest, Served};
use fil_stdlib::serve::{self, ServeOptions, Server};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn sock(tag: &str) -> PathBuf {
    // Unix socket paths are length-limited (~104 bytes): keep them short.
    let path = std::env::temp_dir().join(format!("fil-dt-{tag}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// Binds and runs a daemon on `socket`, returning once it answers pings.
fn start(socket: &Path) -> std::thread::JoinHandle<std::io::Result<()>> {
    let server = Server::bind(ServeOptions {
        socket: socket.to_path_buf(),
        jobs: 1,
        ..Default::default()
    })
    .expect("bind daemon");
    let handle = std::thread::spawn(move || server.run());
    for _ in 0..300 {
        if serve::ping(socket).is_ok() {
            return handle;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon never came up at {}", socket.display());
}

fn stat(socket: &Path, name: &str) -> u64 {
    serve::server_stats(socket)
        .expect("stats")
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("daemon stats missing {name}"))
}

fn shut_down(socket: &Path, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    serve::stop(socket).expect("stop");
    handle.join().expect("server thread").expect("server run");
    assert!(!socket.exists(), "socket file must be removed on shutdown");
}

fn netlist_bytes(n: &rtl_sim::Netlist) -> Vec<u8> {
    let mut out = Vec::new();
    calyx_lite::encode_netlist(n, &mut out);
    out
}

#[test]
fn concurrent_identical_requests_build_exactly_once() {
    let socket = sock("flight");
    let handle = start(&socket);

    let req = BuildRequest::new(fil_designs::systolic::source(4, 32))
        .expanded(false)
        .verilog();
    const CLIENTS: usize = 8;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let results: Vec<serve::RemoteBuild> = (0..CLIENTS)
        .map(|_| {
            let (socket, req, barrier) = (socket.clone(), req.clone(), barrier.clone());
            std::thread::spawn(move || {
                barrier.wait();
                serve::request_build(&socket, &req).expect("remote build")
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|j| j.join().expect("client thread"))
        .collect();

    // The whole stampede ran the driver once: one leader, everyone else
    // rode along (coalesced mid-build or memoized after it).
    assert_eq!(stat(&socket, "builds_run"), 1, "single flight violated");
    let leaders = results.iter().filter(|r| r.served == Served::Led).count();
    assert_eq!(leaders, 1, "exactly one request leads the build");

    // Every reply carries the same bytes, and they match a local build.
    let verilog = results[0]
        .output
        .verilog
        .as_deref()
        .expect("verilog requested");
    for r in &results {
        assert_eq!(r.output.verilog.as_deref(), Some(verilog));
    }
    let local = fil_stdlib::build(&req).expect("local build");
    assert_eq!(
        local.verilog.as_deref(),
        Some(verilog),
        "daemon verilog diverges from a local build"
    );

    shut_down(&socket, handle);
}

#[test]
fn distinct_requests_build_separately_and_repeats_hit_the_memo() {
    let socket = sock("keys");
    let handle = start(&socket);

    let a = BuildRequest::new(fil_designs::encoder::source(8))
        .expanded(false)
        .verilog();
    let b = BuildRequest::new(fil_designs::encoder::source(16))
        .expanded(false)
        .verilog();
    let ra = serve::request_build(&socket, &a).expect("build a");
    let rb = serve::request_build(&socket, &b).expect("build b");
    assert_eq!(ra.served, Served::Led);
    assert_eq!(rb.served, Served::Led);
    assert_eq!(
        stat(&socket, "builds_run"),
        2,
        "distinct keys must not coalesce"
    );
    assert_ne!(ra.output.verilog, rb.output.verilog);

    // Warm repeats skip the driver entirely.
    let ra2 = serve::request_build(&socket, &a).expect("repeat a");
    assert_eq!(ra2.served, Served::Memo);
    assert_eq!(ra2.output.verilog, ra.output.verilog);
    assert_eq!(stat(&socket, "builds_run"), 2, "memo hit must not rebuild");
    assert!(stat(&socket, "memo_hits") >= 1);

    shut_down(&socket, handle);
}

#[test]
fn warm_netlists_skip_re_elaboration_and_match_local_builds() {
    let socket = sock("net");
    let handle = start(&socket);

    let src = fil_designs::alu::source(fil_designs::alu::ALU_PIPELINED);
    let r1 = serve::request_build(
        &socket,
        &BuildRequest::new(src.clone())
            .expanded(false)
            .netlist("ALU"),
    )
    .expect("remote netlist build");
    let remote = r1.output.netlist.expect("netlist requested");

    // The wire netlist decodes to exactly what a local build elaborates.
    let local = fil_stdlib::build(
        &BuildRequest::new(src.clone())
            .expanded(false)
            .netlist("ALU"),
    )
    .expect("local build")
    .netlist
    .expect("netlist requested");
    assert_eq!(
        netlist_bytes(&remote),
        netlist_bytes(&local),
        "daemon netlist diverges from a local elaboration"
    );

    // A *different* request key over the same lowered program (it also
    // wants Verilog) must reuse the elaborated netlist instead of
    // re-running calyx_lite::elaborate.
    let r2 = serve::request_build(
        &socket,
        &BuildRequest::new(src)
            .expanded(false)
            .netlist("ALU")
            .verilog(),
    )
    .expect("sibling request");
    assert_eq!(r2.served, Served::Led, "different key, fresh flight");
    assert!(
        r2.output.netlist_from_cache,
        "re-elaboration was not skipped for a warm lowered program"
    );
    assert_eq!(
        netlist_bytes(&r2.output.netlist.expect("netlist requested")),
        netlist_bytes(&remote),
    );

    shut_down(&socket, handle);
}

/// A memo hit is at least 5× faster than the cold build it repeats. Three
/// cold builds of distinct widths (no cache answers any of them), each
/// followed by five memo repeats; the gate compares the best of each.
#[test]
fn memo_hits_are_at_least_5x_faster_than_cold_builds() {
    let socket = sock("memo");
    let handle = start(&socket);
    let timed = |req: &BuildRequest| {
        let start = Instant::now();
        let reply = serve::request_build(&socket, req).expect("remote build");
        (start.elapsed(), reply.served)
    };
    let (mut cold, mut memo) = (Duration::MAX, Duration::MAX);
    for width in [32, 33, 34] {
        let req = BuildRequest::new(fil_designs::systolic::source(8, width))
            .expanded(false)
            .verilog();
        let (t, served) = timed(&req);
        assert_eq!(served, Served::Led, "W={width}: the first request builds");
        cold = cold.min(t);
        for _ in 0..5 {
            let (t, served) = timed(&req);
            assert_eq!(served, Served::Memo, "W={width}: a repeat hits the memo");
            memo = memo.min(t);
        }
    }
    assert!(
        cold.as_secs_f64() >= 5.0 * memo.as_secs_f64(),
        "memo round trip {memo:?} is less than 5x faster than a cold build {cold:?}"
    );
    shut_down(&socket, handle);
}

/// The daemon owns its artifact cache: a `cache_dir` sent by a client is
/// ignored, so no client can make the daemon write into a directory of its
/// choosing. The reply is still exactly what a local build produces.
#[test]
fn client_cache_dir_is_ignored() {
    let socket = sock("cdir");
    let handle = start(&socket);
    let tmp = std::env::temp_dir().join(format!("fil-dt-cdir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("create temp dir");
    let elsewhere = tmp.join("elsewhere");

    let req = BuildRequest::new(fil_designs::alu::source(fil_designs::alu::ALU_PIPELINED))
        .verilog()
        .netlist("ALU");
    let remote = serve::request_build(&socket, &req.clone().cache_dir(&elsewhere))
        .expect("remote build")
        .output;
    let local = fil_stdlib::build(&req).expect("local build");
    assert_eq!(remote.expanded_text, local.expanded_text);
    assert_eq!(remote.verilog, local.verilog);
    assert_eq!(
        remote.netlist.as_deref().map(netlist_bytes),
        local.netlist.as_deref().map(netlist_bytes),
    );
    assert!(
        !elsewhere.exists(),
        "the daemon wrote into a client-chosen cache directory"
    );

    shut_down(&socket, handle);
    let _ = std::fs::remove_dir_all(&tmp);
}

/// Sends `src` to a fresh daemon, expects a diagnostic containing
/// `needle`, then checks that a second client still gets a build.
fn refused_and_the_daemon_keeps_serving(tag: &str, src: &str, needle: &str) {
    let socket = sock(tag);
    let handle = start(&socket);
    let refused = BuildRequest::new(src).netlist("Main").verilog();
    match serve::request_build(&socket, &refused) {
        Err(serve::ClientError::Server(msg)) => assert!(msg.contains(needle), "{msg}"),
        other => panic!("expected a diagnostic, got {other:?}"),
    }
    // A second client, on a connection of its own, still gets a build.
    let req = BuildRequest::new(
        "comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
            a := new Add[8]<G>(x, x);
            o = a.out;
        }",
    )
    .netlist("Main")
    .verilog();
    let out = serve::request_build(&socket, &req).expect("build after the refused one");
    assert!(out.output.verilog.is_some() && out.output.netlist.is_some());
    assert!(stat(&socket, "builds_run") >= 1);
    shut_down(&socket, handle);
}

#[test]
fn times_past_the_last_cycle_are_refused_and_the_daemon_keeps_serving() {
    refused_and_the_daemon_keeps_serving(
        "huge",
        "comp Main<G: 3>(@interface[G] go: 1,
                         @[G+18446744073709551613, G+18446744073709551614] x: 32)
             -> (@[G+18446744073709551614, G+18446744073709551615] o: 32) {
           r := new Register[32]<G+18446744073709551613, G+18446744073709551615>(x);
           o = r.out;
         }",
        "run past the last representable cycle",
    );
}

#[test]
fn long_loops_are_refused_and_the_daemon_keeps_serving() {
    // 2^62 iterations that emit one command: refused by the iteration
    // budget, not run.
    refused_and_the_daemon_keeps_serving(
        "loop",
        "comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G+1, G+2] o: 8) {
           for i in 0..pow2(62) {
             if i == 1 { d := new Delay[8]<G>(x); }
           }
           o = x;
         }",
        "expands to more than",
    );
}

#[test]
fn disconnects_and_garbage_only_cost_their_own_connection() {
    let socket = sock("abuse");
    let handle = start(&socket);

    // A client that dies mid-frame: send half of a valid frame, vanish.
    {
        let mut full = Vec::new();
        wire::write_frame(&mut full, &[1u8; 64]).expect("frame to vec");
        let mut s = UnixStream::connect(&socket).expect("connect");
        s.write_all(&full[..full.len() / 2]).expect("half frame");
    }
    // Not a frame at all.
    {
        let mut s = UnixStream::connect(&socket).expect("connect");
        s.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("garbage");
    }
    // A truncated header.
    {
        let mut s = UnixStream::connect(&socket).expect("connect");
        s.write_all(b"FS").expect("header prefix");
    }

    // The daemon shrugs all three off and keeps serving real work.
    serve::ping(&socket).expect("daemon died on malformed input");
    let req = BuildRequest::new(
        "comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
            a := new Add[8]<G>(x, x);
            o = a.out;
        }",
    )
    .expanded(false)
    .verilog();
    let out = serve::request_build(&socket, &req).expect("build after abuse");
    assert!(out.output.verilog.is_some());

    // All three abuses are eventually counted (their connection threads
    // may still be winding down when we first ask).
    let mut malformed = 0;
    for _ in 0..200 {
        malformed = stat(&socket, "malformed_frames");
        if malformed >= 3 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(malformed >= 3, "only {malformed} malformed frames counted");

    shut_down(&socket, handle);
}

#[test]
fn a_stalled_half_frame_times_out_and_the_daemon_still_idles_out() {
    let socket = sock("stall");
    let idle = Duration::from_millis(1000);
    let server = Server::bind(ServeOptions {
        socket: socket.clone(),
        jobs: 1,
        idle_timeout: Some(idle),
        ..Default::default()
    })
    .expect("bind daemon");
    let handle = std::thread::spawn(move || server.run());
    for _ in 0..300 {
        if serve::ping(&socket).is_ok() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // Half a frame header, then silence: the connection stays open.
    let mut full = Vec::new();
    wire::write_frame(&mut full, &[2u8]).expect("frame to vec");
    let mut stalled = UnixStream::connect(&socket).expect("connect");
    stalled.write_all(&full[..6]).expect("half header");
    let stalled_at = Instant::now();

    // Other clients are answered while it stalls.
    serve::ping(&socket).expect("ping beside a stalled client");
    let req = BuildRequest::new(
        "comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
            a := new Add[8]<G>(x, x);
            o = a.out;
        }",
    )
    .expanded(false)
    .verilog();
    let out = serve::request_build(&socket, &req).expect("build beside a stalled client");
    assert!(out.output.verilog.is_some());

    // At the deadline the daemon answers the stalled frame with an error
    // and hangs up, and counts the frame as malformed.
    stalled
        .set_read_timeout(Some(serve::FRAME_DEADLINE * 3))
        .expect("client read timeout");
    let reply = wire::read_frame(&mut stalled).expect("error reply to the stalled frame");
    assert_eq!(reply.first(), Some(&2), "RESP_ERR");
    let waited = stalled_at.elapsed();
    assert!(
        waited >= serve::FRAME_DEADLINE - Duration::from_millis(100),
        "cut off after {waited:?}, before the deadline"
    );
    assert!(stat(&socket, "malformed_frames") >= 1);

    // With the stalled client still holding its socket, the daemon goes
    // idle and exits on its own.
    handle.join().expect("server thread").expect("server run");
    let total = stalled_at.elapsed();
    let bound = serve::FRAME_DEADLINE + idle + Duration::from_secs(3);
    assert!(
        total < bound,
        "run() returned after {total:?}, bound {bound:?}"
    );
    assert!(!socket.exists(), "socket removed after idle exit");
    drop(stalled);
}

#[test]
fn connections_past_the_cap_are_told_busy_until_the_stalls_time_out() {
    let socket = sock("cap");
    let handle = start(&socket);
    let req = BuildRequest::new(
        "comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
            a := new Add[8]<G>(x, x);
            o = a.out;
        }",
    )
    .expanded(false)
    .verilog();

    // Cap-many clients connect and send nothing. The daemon accepts in
    // order, so all of them hold a connection thread before the next
    // client is accepted.
    let stalled: Vec<UnixStream> = (0..serve::MAX_CONNECTIONS)
        .map(|_| UnixStream::connect(&socket).expect("connect"))
        .collect();
    match serve::request_build(&socket, &req) {
        Err(serve::ClientError::Server(msg)) => assert!(msg.contains("busy"), "{msg}"),
        other => panic!("a client past the cap must be told busy, got {other:?}"),
    }

    // Each stall is cut off at the frame deadline with an error reply.
    for mut s in stalled {
        s.set_read_timeout(Some(serve::FRAME_DEADLINE * 3))
            .expect("client read timeout");
        let reply = wire::read_frame(&mut s).expect("error reply to the stall");
        assert_eq!(reply.first(), Some(&2), "RESP_ERR");
    }
    // Their threads wind down just after replying; then a client is served.
    let deadline = Instant::now() + Duration::from_secs(2);
    let served = loop {
        match serve::request_build(&socket, &req) {
            Err(serve::ClientError::Server(msg))
                if msg.contains("busy") && Instant::now() < deadline =>
            {
                std::thread::sleep(Duration::from_millis(10));
            }
            other => break other,
        }
    };
    let served = served.expect("served after the stalls");
    assert!(served.output.verilog.is_some(), "verilog requested");
    shut_down(&socket, handle);
}

#[test]
fn stop_gets_through_at_the_connection_cap() {
    let socket = sock("capstop");
    let server = Server::bind(ServeOptions {
        socket: socket.clone(),
        jobs: 1,
        ..Default::default()
    })
    .expect("bind daemon");
    // The stalls queue on the bound socket before the accept loop runs,
    // and are accepted first, in order: they take exactly the cap.
    let stalled: Vec<UnixStream> = (0..serve::MAX_CONNECTIONS)
        .map(|_| UnixStream::connect(&socket).expect("connect"))
        .collect();
    let handle = std::thread::spawn(move || server.run());
    let t0 = Instant::now();
    serve::ping(&socket).expect("ping through the control connection");
    // The control connection is free again once the ping's thread ends.
    let stopped = loop {
        match serve::stop(&socket) {
            Err(serve::ClientError::Server(msg))
                if msg.contains("busy") && t0.elapsed() < Duration::from_millis(500) =>
            {
                std::thread::sleep(Duration::from_millis(5));
            }
            other => break other,
        }
    };
    stopped.expect("stop at the connection cap");
    handle.join().expect("server thread").expect("server run");
    let took = t0.elapsed();
    assert!(
        took < serve::FRAME_DEADLINE,
        "daemon exited after {took:?}, not before the stalls timed out"
    );
    assert!(!socket.exists(), "socket removed on stop");
    drop(stalled);
}

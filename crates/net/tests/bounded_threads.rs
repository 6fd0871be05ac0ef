//! The node's resource contract, end to end: a fixed set of threads
//! whatever the number of connections; a reactor that runs the register
//! groups its requests land on and never waits for one — with a group
//! wedged and READs parked on it, everything else is answered at once, by
//! the same threads; a typed error — not a parked thread, not a panic — for
//! an operation that cannot complete, at `OP_TIMEOUT` of the node's clock;
//! and a clean join of every thread on drop even with an operation in
//! flight. Then, on an idle `vrr-server`: a READ wakes no worker, and a
//! shutdown is answered before the process exits on its own.
//!
//! One `#[test]` on purpose: it counts the process's threads through
//! `/proc/self/status`, which a concurrently running sibling test would
//! perturb. It reaches the 30 s operation timeout by advancing the node's
//! clock, not by waiting it out.

use std::io::ErrorKind::{TimedOut, WouldBlock};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use vrr_core::metrics::{names, Registry};
use vrr_core::StorageConfig;
use vrr_net::frame::{decode_body, encode_frame, CLIENT_NODE};
use vrr_net::{
    free_addrs, Ctl, Envelope, FrameReader, NetClient, NetNode, NetNodeConfig, NodeTopology, Op,
    Payload, Rsp, ServerProcess, TICK,
};
use vrr_runtime::{ClusterBackend, ProtocolKind, OP_TIMEOUT};

/// `Threads:` of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"));
    line.and_then(|n| n.trim().parse().ok())
        .expect("Threads: line")
}

/// [`threads`], once the threads the caller just joined have left the
/// kernel's count too (`join` returns when a thread has exited; the kernel
/// drops it from `Threads:` a moment later).
fn threads_after_joins(expected: usize) -> usize {
    let deadline = Instant::now() + FIVE_S;
    while threads() != expected && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    threads()
}

/// How long a test step may take in real time.
const FIVE_S: Duration = Duration::from_secs(5);

fn key(k: u8) -> Vec<u8> {
    vec![k]
}

fn write_key(client: &mut NetClient<u64>, k: u8) {
    let (key, value) = (key(k), u64::from(k));
    let rsp = client.request(Op::WriteKey { key, value }).expect("io");
    assert!(matches!(rsp, Rsp::Wrote { .. }), "{rsp:?}");
}

fn read_op(k: u8) -> Op<u64> {
    let (key, reader) = (key(k), 0);
    Op::ReadKey { key, reader }
}

fn read_key(client: &mut NetClient<u64>, k: u8) -> Rsp<u64> {
    client.request(read_op(k)).expect("io")
}

/// The node's `Op::StoreMetrics` registry.
fn store_metrics(client: &mut NetClient<u64>) -> Registry {
    match client.request(Op::StoreMetrics { cluster: None }) {
        Ok(Rsp::StoreMetrics { registry }) => registry,
        other => panic!("StoreMetrics answered {other:?}"),
    }
}

/// `clients` connections hammering `ReadKey` at once; returns the thread
/// counts sampled while all of them were mid-flight.
fn thread_counts_under(addr: SocketAddr, clients: usize) -> Vec<usize> {
    let all_connected = Barrier::new(clients + 1);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for c in 0..clients {
            let (all_connected, stop) = (&all_connected, &stop);
            scope.spawn(move || {
                let mut client = NetClient::<u64>::connect(addr).expect("connect");
                all_connected.wait();
                while !stop.load(Ordering::SeqCst) {
                    let rsp = read_key(&mut client, 1 + (c % 2) as u8);
                    assert!(matches!(rsp, Rsp::ReadOk { .. }), "{rsp:?}");
                }
            });
        }
        all_connected.wait();
        let samples = (0..20)
            .map(|_| {
                std::thread::sleep(Duration::from_millis(5));
                threads()
            })
            .collect();
        stop.store(true, Ordering::SeqCst);
        samples
    })
}

/// Writes `requests` on a bare connection back to back, waiting for no
/// answer.
fn send(raw: &mut TcpStream, requests: impl IntoIterator<Item = (u64, Op<u64>)>) {
    for (id, op) in requests {
        let env = Envelope::<u64> {
            source: CLIENT_NODE,
            epoch: 0,
            seq: id,
            payload: Payload::Ctl(Ctl::Request { id, op }),
        };
        raw.write_all(&encode_frame(&env)).expect("send");
    }
}

/// The next answer on a bare connection, `(request id, response)`, if one
/// arrives with no gap of `wait` of real time.
fn next_answer(
    raw: &mut TcpStream,
    frames: &mut FrameReader,
    wait: Duration,
) -> Option<(u64, Rsp<u64>)> {
    raw.set_read_timeout(Some(wait)).expect("timeout");
    let mut buf = [0u8; 4096];
    loop {
        while let Some(body) = frames.next_frame().expect("framing") {
            let env: Envelope<u64> = decode_body(&body).expect("decode");
            if let Payload::Ctl(Ctl::Response { id, rsp }) = env.payload {
                return Some((id, rsp));
            }
        }
        match raw.read(&mut buf) {
            Ok(0) => panic!("server closed the connection"),
            Ok(n) => frames.extend(&buf[..n]),
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut) => return None,
            Err(e) => panic!("read: {e}"),
        }
    }
}

#[test]
fn threads_stay_bounded_nothing_waits_on_a_wedge_timeouts_are_typed_and_drop_joins_everything() {
    let baseline = threads();

    let cfg = StorageConfig::optimal(1, 1, 1); // S = 4, t = 1
    let topo = NodeTopology {
        objects: vec![0; cfg.s],
        addrs: free_addrs(1).expect("reserve port"),
        slots: 4,
    };
    let ncfg = NetNodeConfig::<u64>::new(cfg, ProtocolKind::RegularOptimized);
    let node = NetNode::start(0, &topo, ncfg).expect("start node");
    let addr = node.addr();

    let mut client = NetClient::<u64>::connect(addr).expect("connect");
    (0..3).for_each(|k| write_key(&mut client, k));
    let serving = threads();
    // The reactor and one worker pool of a worker per CPU: nothing else.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(serving - baseline, 1 + workers, "the node's own threads");

    // --- The same threads serve 2 connections and 64. -------------------
    for clients in [2, 64] {
        for sample in thread_counts_under(addr, clients) {
            assert_eq!(
                sample - clients,
                serving,
                "{clients} busy connections changed the node's thread count"
            );
        }
        assert_eq!(threads_after_joins(serving), serving);
    }

    // --- A crashed client process answers at once. -----------------------
    // (Key 3 binds the fourth slot: keys 0..3 hold the first three.)
    write_key(&mut client, 3);
    let slot = node.store().shard_of(&key(3)).expect("key 3 is bound");
    let reader_pid = node.groups()[slot].readers[0];
    client.crash_pid(reader_pid.0 as u64).expect("crash reader");
    let asked = Instant::now();
    match read_key(&mut client, 3) {
        Rsp::Err { what } => assert!(what.contains("crashed or gone"), "{what}"),
        other => panic!("read at a crashed reader answered {other:?}"),
    }
    assert!(asked.elapsed() < FIVE_S, "and did not wait");

    // --- More than t objects of key 0's shard gone: two READs wedge. -----
    let slot = node.store().shard_of(&key(0)).expect("key 0 is bound") as u32;
    for object in 0..2 {
        let rsp = client.request(Op::CrashShard { slot, object }).expect("io");
        assert_eq!(rsp, Rsp::Crashed);
    }
    // Two READs for the same wedged reader — one active in the executor,
    // one queued behind it — then a ping. Requests on one connection are
    // handled in order: once the ping is answered, both READs are started.
    let asked = Instant::now();
    let mut raw = TcpStream::connect(addr).expect("connect");
    let mut frames = FrameReader::new();
    send(&mut raw, [(1, read_op(0)), (2, read_op(0)), (3, Op::Ping)]);
    let first = next_answer(&mut raw, &mut frames, FIVE_S);
    assert_eq!(first, Some((3, Rsp::Pong)), "a READ answered");

    // Meanwhile: the reactor started those READs itself, found them stuck
    // after its bounded passes and moved on — other keys are served at
    // once, by the same threads, and so is an inspection of every object,
    // the wedged group's too.
    for _ in 0..100 {
        let sent = Instant::now();
        assert_eq!(client.request(Op::Ping).expect("io"), Rsp::Pong);
        assert!(matches!(read_key(&mut client, 1), Rsp::ReadOk { .. }));
        let took = sent.elapsed().as_millis();
        assert!(took < 50, "the reactor waited {took} ms");
        assert!(matches!(read_key(&mut client, 2), Rsp::ReadOk { .. }));
    }
    let lens = store_metrics(&mut client).gauge_values(names::OBJECT_HISTORY_LEN);
    assert_eq!(lens.len(), 4 * cfg.s - 2, "all but the two crashed");
    assert_eq!(threads(), serving, "a wedged operation parks no thread");

    // --- The typed timeout, at OP_TIMEOUT of the node's clock. -----------
    // Advanced to short of both deadlines by a margin above all the real
    // time spent since the READs were sent, the clock has not reached them
    // two sweeps later: both READs are still unanswered.
    let clock = node.host().cluster().clock();
    let short = asked.elapsed() + FIVE_S;
    clock.advance(OP_TIMEOUT - short);
    let early = next_answer(&mut raw, &mut frames, 2 * TICK + TICK / 2);
    assert_eq!(early, None, "answered before the deadline");
    assert!(asked.elapsed() < short, "the margin was spent");
    // Past both deadlines: the next sweep answers both, in arrival order.
    clock.advance(short);
    for wedged in [1, 2] {
        match next_answer(&mut raw, &mut frames, FIVE_S) {
            Some((id, Rsp::Err { what })) if id == wedged => {
                assert!(what.contains("timed out"), "{what}")
            }
            other => panic!("wedged read {wedged} answered {other:?}"),
        }
    }
    assert!(matches!(read_key(&mut client, 1), Rsp::ReadOk { .. }));

    // --- Drop with an operation in flight joins every thread. ------------
    send(&mut raw, [(4, read_op(0)), (5, Op::Ping)]);
    let pong = next_answer(&mut raw, &mut frames, FIVE_S);
    assert_eq!(pong, Some((5, Rsp::Pong)));
    drop(client);
    drop(node);
    assert_eq!(
        threads_after_joins(baseline),
        baseline,
        "dropping the node left threads behind"
    );

    // --- An idle vrr-server: the reactor is the only thread a READ needs. -
    let addrs = free_addrs(1).expect("reserve port");
    let args = format!("--node 0 --addrs {} --store 2", addrs[0]);
    let mut server = ServerProcess::spawn(env!("CARGO_BIN_EXE_vrr-server"), args.split(' '))
        .expect("vrr-server");
    let mut client = NetClient::<u64>::connect(server.addr).expect("connect");
    write_key(&mut client, 1);
    // Taking a snapshot costs wake-ups itself (its inspection is a command
    // per automaton, for the workers): two in a row price that. A snapshot
    // reads the wake-ups before its own inspection runs.
    let store_wakeups =
        |client: &mut _| store_metrics(client).counter(names::EXECUTOR_WAKEUPS, &[]);
    let (first, second) = (store_wakeups(&mut client), store_wakeups(&mut client));
    for _ in 0..200 {
        assert!(matches!(read_key(&mut client, 1), Rsp::ReadOk { .. }));
    }
    let third = store_wakeups(&mut client);
    let for_the_reads = (third - second).saturating_sub(second - first);
    assert!(
        for_the_reads <= 20,
        "200 reads woke workers {for_the_reads} times ({first} -> {second} -> {third})"
    );

    // --- A shutdown is answered, then the process exits on its own. ------
    client.shutdown_server().expect("the shutdown is answered");
    server.wait();
}

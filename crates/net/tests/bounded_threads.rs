//! The node's resource contract, end to end: a fixed set of threads
//! whatever the number of connections, a typed error — not a parked thread,
//! not a panic — for an operation that cannot complete, and a clean join of
//! every thread on drop even with an operation in flight.
//!
//! One `#[test]` on purpose: it counts the process's threads through
//! `/proc/self/status`, which a concurrently running sibling test would
//! perturb. It pays the real 30 s operation timeout once.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use vrr_core::StorageConfig;
use vrr_net::frame::{decode_body, encode_frame, CLIENT_NODE};
use vrr_net::{
    free_addrs, Ctl, Envelope, FrameReader, NetClient, NetNode, NetNodeConfig, NodeTopology, Op,
    Payload, Rsp,
};
use vrr_runtime::{ClusterBackend, ProtocolKind, OP_TIMEOUT};

/// `Threads:` of `/proc/self/status`.
fn threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("procfs")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("Threads: line")
}

/// [`threads`], once the threads the caller just joined have left the
/// kernel's count too (`join` returns when a thread has exited; the kernel
/// drops it from `Threads:` a moment later).
fn threads_after_joins(expected: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() != expected && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    threads()
}

fn key(k: u8) -> Vec<u8> {
    vec![k]
}

fn read_key(client: &mut NetClient<u64>, k: u8) -> Rsp<u64> {
    client
        .request(Op::ReadKey {
            key: key(k),
            reader: 0,
        })
        .expect("transport")
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

#[test]
fn threads_stay_bounded_timeouts_are_typed_and_drop_joins_everything() {
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
    for k in 0..3u8 {
        let rsp = client
            .request(Op::WriteKey {
                key: key(k),
                value: u64::from(k),
            })
            .expect("transport");
        assert!(matches!(rsp, Rsp::Wrote { .. }), "{rsp:?}");
    }
    let serving = threads();
    // One worker pool: the reactor, the inspection thread, a worker per CPU.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(serving - baseline, 2 + workers, "the node's own threads");

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
    let rsp = client.request(Op::WriteKey {
        key: key(3),
        value: 5,
    });
    assert!(matches!(rsp, Ok(Rsp::Wrote { .. })), "{rsp:?}");
    let slot = node.store().shard_of(&key(3)).expect("key 3 is bound");
    let reader_pid = node.groups()[slot].readers[0];
    client.crash_pid(reader_pid.0 as u64).expect("crash reader");
    let asked = Instant::now();
    match read_key(&mut client, 3) {
        Rsp::Err { what } => assert!(what.contains("crashed or gone"), "{what}"),
        other => panic!("read at a crashed reader answered {other:?}"),
    }
    assert!(asked.elapsed() < Duration::from_secs(5), "and did not wait");

    // --- More than t objects of key 0's shard gone: typed timeout. -------
    let slot = match client.request(Op::SlotOfKey { key: key(0) }).expect("io") {
        Rsp::Slot { slot } => slot,
        other => panic!("{other:?}"),
    };
    for object in 0..2 {
        let rsp = client.request(Op::CrashShard { slot, object }).expect("io");
        assert_eq!(rsp, Rsp::Crashed);
    }
    let asked = Instant::now();
    std::thread::scope(|scope| {
        // Two requests for the same wedged reader: one active in the
        // executor, one queued behind it. Both must hear a typed error.
        let wedged: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = NetClient::<u64>::connect(addr).expect("connect");
                    read_key(&mut client, 0)
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(300));
        // Meanwhile: other keys are served, by the same threads.
        for _ in 0..100 {
            assert!(matches!(read_key(&mut client, 1), Rsp::ReadOk { .. }));
            assert!(matches!(read_key(&mut client, 2), Rsp::ReadOk { .. }));
        }
        assert_eq!(threads() - 2, serving, "a wedged operation parks no thread");
        for handle in wedged {
            match handle.join().expect("client thread") {
                Rsp::Err { what } => assert!(what.contains("timed out"), "{what}"),
                other => panic!("wedged read answered {other:?}"),
            }
        }
    });
    let waited = asked.elapsed();
    assert!(
        waited >= OP_TIMEOUT && waited < OP_TIMEOUT + Duration::from_secs(5),
        "the sweep answers at the deadline, not {waited:?}"
    );
    assert!(matches!(read_key(&mut client, 1), Rsp::ReadOk { .. }));
    assert_eq!(threads_after_joins(serving), serving);

    // --- Drop with an operation in flight joins every thread. ------------
    let mut raw = TcpStream::connect(addr).expect("connect");
    for (id, op) in [
        (
            1,
            Op::ReadKey {
                key: key(0),
                reader: 0,
            },
        ),
        (2, Op::Ping),
    ] {
        let env = Envelope::<u64> {
            source: CLIENT_NODE,
            epoch: 0,
            seq: id,
            payload: Payload::Ctl(Ctl::Request { id, op }),
        };
        raw.write_all(&encode_frame(&env)).expect("send");
    }
    // Requests on one connection are handled in order: once the ping is
    // answered, the wedged read before it has been started.
    let mut frames = FrameReader::new();
    let mut buf = [0u8; 4096];
    'pong: loop {
        let n = raw.read(&mut buf).expect("read");
        assert!(n > 0, "server closed the connection");
        frames.extend(&buf[..n]);
        while let Some(body) = frames.next_frame().expect("framing") {
            let env: Envelope<u64> = decode_body(&body).expect("decode");
            if let Payload::Ctl(Ctl::Response { id: 2, rsp }) = env.payload {
                assert_eq!(rsp, Rsp::Pong);
                break 'pong;
            }
        }
    }
    drop(client);
    drop(node);
    assert_eq!(
        threads_after_joins(baseline),
        baseline,
        "dropping the node left threads behind"
    );
}

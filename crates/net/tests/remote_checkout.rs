//! A remote caller never waits for another caller's round trip, and its
//! round trip leaves from its own CPU. `RemoteCluster` checks out, for each
//! request, an idle connection dialed from the caller's CPU and dials one
//! from there when none is idle, so a request the node sits on delays no
//! other caller — nor a metrics snapshot —, every request goes out on a
//! connection dialed from its caller's CPU, and a connection that ended in
//! a transport error is dropped instead of handed to the next caller.
//! Steps that count connections run on pinned threads (`common::on_cpu`):
//! a caller that moves to another CPU dials there.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

use vrr_core::metrics::Registry;
use vrr_core::wire::decode_exact;
use vrr_core::Timestamp;
use vrr_net::{cpu, Op, RemoteCluster, RemoteClusterConfig, RetryPolicy, Rsp};
use vrr_runtime::{ClusterBackend, StoreError};

mod common;

/// How long a caller may take that waits for nobody.
const WATCHDOG: Duration = Duration::from_secs(5);

/// The fake node's answers, on a connection accepted on any CPU: every
/// read returns `7`, every write lands, every snapshot is empty.
fn answer(_arrived: Option<usize>, op: Op<u64>) -> Rsp<u64> {
    match op {
        Op::ReadKey { .. } => Rsp::ReadOk {
            value: Some(7),
            ts: Timestamp(1),
            rounds: 2,
            fast: false,
        },
        Op::WriteKey { .. } => Rsp::Wrote {
            ts: Timestamp(1),
            rounds: 2,
        },
        _ => Rsp::StoreMetrics {
            registry: Registry::new(),
        },
    }
}

/// Runs `body` against a fake store node on a fresh port that listens as
/// the reactor's lanes do — one listener per allowed CPU, tagged with it
/// (`cpu::listener`), each with an acceptor of its own — and serves the
/// `i`-th connection accepted on a thread of its own through
/// `common::serve`, hanging up on its first request when `hang_up(i)`, and
/// answering each request with `answer(arrived, op)`, `arrived` the CPU of
/// the listener that accepted the connection. Returns what `body` returned
/// and how many connections the node accepted. Every node thread is joined
/// first, so `body` must close what it dialed.
fn with_node<R>(
    hang_up: fn(usize) -> bool,
    answer: impl Fn(Option<usize>, Op<u64>) -> Rsp<u64> + Sync,
    body: impl FnOnce(SocketAddr) -> R,
) -> (R, usize) {
    let port = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = port.local_addr().expect("address");
    drop(port);
    let cpus = cpu::allowed();
    let (done, accepted, answer) = (&AtomicBool::new(false), &AtomicUsize::new(0), &answer);
    std::thread::scope(|scope| {
        let acceptors: Vec<_> = cpus
            .iter()
            .map(|&on| {
                let listener = cpu::listener(addr, Some(on)).expect("listen");
                scope.spawn(move || loop {
                    let (stream, _) = listener.accept().expect("accept");
                    if done.load(Ordering::SeqCst) {
                        return;
                    }
                    let hang_up = hang_up(accepted.fetch_add(1, Ordering::SeqCst));
                    scope.spawn(move || common::serve(stream, hang_up, |op| answer(Some(on), op)));
                })
            })
            .collect();
        // A panic in `body` must still stop the acceptors, or the scope
        // never ends.
        let ran = catch_unwind(AssertUnwindSafe(|| body(addr)));
        done.store(true, Ordering::SeqCst);
        for (&on, acceptor) in cpus.iter().zip(acceptors) {
            common::on_cpu(on, || TcpStream::connect(addr)).expect("wake the acceptor");
            acceptor.join().expect("the acceptor");
        }
        (
            ran.unwrap_or_else(|panic| resume_unwind(panic)),
            accepted.load(Ordering::SeqCst),
        )
    })
}

/// Both callers on one CPU: the second finds that CPU's connections busy
/// or its one idle, and never waits for the first.
#[test]
fn a_caller_never_waits_for_another_callers_request() {
    for connections in [1, 2] {
        // The node sits on the first `ReadKey` it receives until released.
        let held = AtomicBool::new(false);
        let (arrived, arrival) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let released = Mutex::new(released);
        let hold_first_read = |on: Option<usize>, op: Op<u64>| {
            if matches!(op, Op::ReadKey { .. }) && !held.swap(true, Ordering::SeqCst) {
                arrived.send(()).ok();
                released.lock().expect("release").recv().ok();
            }
            answer(on, op)
        };
        let two_callers = move |addr| {
            let cfg = RemoteClusterConfig::new(connections, RetryPolicy::with_seed(1));
            let cluster = &RemoteCluster::<u64, u64>::connect(addr, cfg).expect("connect");
            std::thread::scope(|s| {
                let holder = s.spawn(|| cluster.read(&1, 0));
                arrival.recv_timeout(WATCHDOG).expect("the read is held");
                let (done, finished) = mpsc::channel();
                s.spawn(move || {
                    for _ in 0..100 {
                        assert_eq!(cluster.read(&2, 0).and_then(|r| r.value), Some(7));
                    }
                    let retries = cluster.retries();
                    cluster.metrics_snapshot_labelled(None);
                    done.send(retries).ok();
                });
                let finished = finished.recv_timeout(WATCHDOG);
                release.send(()).ok();
                (finished, holder.join().expect("the held reader"))
            })
        };
        let on_one_cpu = |addr| common::on_cpu(common::first_cpu(), move || two_callers(addr));
        let ((finished, held), accepted) = with_node(|_| false, hold_first_read, on_one_cpu);

        assert_eq!(
            finished,
            Ok(0),
            "{connections} connection(s): 100 reads, retries() and a snapshot wait for nobody"
        );
        assert_eq!(
            accepted, 2,
            "{connections} connection(s): dials follow concurrency, not call count"
        );
        let held = held.and_then(|r| r.value);
        assert_eq!(held, Some(7), "the held read returns its answer");
    }
}

#[test]
fn a_connection_that_failed_is_not_handed_out_again() {
    let fail_fast = RetryPolicy {
        attempts: 0,
        ..RetryPolicy::with_seed(1)
    };
    let two_writes = |addr| {
        let cfg = RemoteClusterConfig::new(1, fail_fast);
        let cluster = RemoteCluster::<u64, u64>::connect(addr, cfg).expect("connect");
        let first = cluster.try_write(1, 10);
        (first, cluster.try_write(1, 10), cluster.retries())
    };
    // The node hangs up on its first connection and serves the rest.
    let on_one_cpu = |addr| common::on_cpu(common::first_cpu(), || two_writes(addr));
    let ((first, second, retries), accepted) = with_node(|i| i == 0, answer, on_one_cpu);

    let failed = matches!(first, Err(StoreError::Backend { .. }));
    assert!(failed, "the hang-up fails the first write: {first:?}");
    assert_eq!(second.expect("the next caller dials afresh").rounds, 2);
    assert_eq!(accepted, 2);
    assert_eq!(retries, 0, "fail-fast re-sends nothing");
}

/// Two callers pinned to distinct CPUs, 200 reads each, at once: every
/// read goes out on a connection dialed from its caller's CPU (the key
/// read names the caller's CPU; the node compares it with the CPU of the
/// listener that accepted the connection), and the CPU without an up-front connection
/// dials exactly one.
#[test]
fn a_caller_takes_only_a_connection_dialed_from_its_cpu() {
    let cpus = cpu::allowed();
    let [first, second, ..] = cpus[..] else {
        eprintln!("one CPU: no second caller's CPU to keep apart");
        return;
    };
    let mismatched = AtomicUsize::new(0);
    let check = |arrived: Option<usize>, op: Op<u64>| {
        if let Op::ReadKey { key, .. } = &op {
            let caller = decode_exact::<u64>(key).expect("a CPU") as usize;
            if arrived != Some(caller) {
                mismatched.fetch_add(1, Ordering::SeqCst);
            }
        }
        answer(arrived, op)
    };
    let two_callers = |addr| {
        let cfg = RemoteClusterConfig::new(2, RetryPolicy::with_seed(1));
        let connect = || RemoteCluster::<u64, u64>::connect(addr, cfg);
        let cluster = &common::on_cpu(first, connect).expect("connect");
        std::thread::scope(|s| {
            for cpu in [first, second] {
                s.spawn(move || {
                    common::on_cpu(cpu, || {
                        for _ in 0..200 {
                            let value = cluster.read(&(cpu as u64), 0).and_then(|r| r.value);
                            assert_eq!(value, Some(7));
                        }
                    })
                });
            }
        });
    };
    let ((), accepted) = with_node(|_| false, check, two_callers);

    assert_eq!(
        mismatched.into_inner(),
        0,
        "reads on another CPU's connection"
    );
    assert_eq!(
        accepted,
        2 + 1,
        "two up-front from CPU {first}, one dialed on CPU {second}"
    );
}

//! A remote caller never waits for another caller's round trip.
//! `RemoteCluster` checks an idle connection out for each request and
//! dials one when none is idle, so a request the node sits on delays no
//! other caller — nor a metrics snapshot — and a connection that ended in a
//! transport error is dropped instead of handed to the next caller.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

use vrr_core::metrics::Registry;
use vrr_core::Timestamp;
use vrr_net::{Op, RemoteCluster, RemoteClusterConfig, RetryPolicy, Rsp};
use vrr_runtime::{ClusterBackend, StoreError};

mod common;

/// How long a caller may take that waits for nobody.
const WATCHDOG: Duration = Duration::from_secs(5);

/// The fake node's answers: every read returns `7`, every write lands,
/// every snapshot is empty.
fn answer(op: Op<u64>) -> Rsp<u64> {
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

/// Runs `body` against a fake store node on a fresh port that serves
/// connection `i` on a thread of its own through `common::serve`, hanging
/// up on its first request when `hang_up(i)`. Returns what `body` returned
/// and how many connections the node accepted. Every node thread is
/// joined first, so `body` must close what it dialed.
fn with_node<R>(
    hang_up: fn(usize) -> bool,
    answer: impl Fn(Op<u64>) -> Rsp<u64> + Sync,
    body: impl FnOnce(SocketAddr) -> R,
) -> (R, usize) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("address");
    let (done, answer) = (&AtomicBool::new(false), &answer);
    std::thread::scope(|scope| {
        let acceptor = scope.spawn(move || {
            let mut accepted = 0;
            loop {
                let (stream, _) = listener.accept().expect("accept");
                if done.load(Ordering::SeqCst) {
                    return accepted;
                }
                let hang_up = hang_up(accepted);
                accepted += 1;
                scope.spawn(move || common::serve(stream, hang_up, answer));
            }
        });
        // A panic in `body` must still stop the acceptor, or the scope
        // never ends.
        let ran = catch_unwind(AssertUnwindSafe(|| body(addr)));
        done.store(true, Ordering::SeqCst);
        TcpStream::connect(addr).expect("wake the acceptor");
        let accepted = acceptor.join().expect("the acceptor");
        (ran.unwrap_or_else(|panic| resume_unwind(panic)), accepted)
    })
}

#[test]
fn a_caller_never_waits_for_another_callers_request() {
    for connections in [1, 2] {
        // The node sits on the first `ReadKey` it receives until released.
        let held = AtomicBool::new(false);
        let (arrived, arrival) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let released = Mutex::new(released);
        let hold_first_read = |op: Op<u64>| {
            if matches!(op, Op::ReadKey { .. }) && !held.swap(true, Ordering::SeqCst) {
                arrived.send(()).ok();
                released.lock().expect("release").recv().ok();
            }
            answer(op)
        };
        let two_callers = |addr| {
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
        let ((finished, held), accepted) = with_node(|_| false, hold_first_read, two_callers);

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
    let ((first, second, retries), accepted) = with_node(|i| i == 0, answer, two_writes);

    let failed = matches!(first, Err(StoreError::Backend { .. }));
    assert!(failed, "the hang-up fails the first write: {first:?}");
    assert_eq!(second.expect("the next caller dials afresh").rounds, 2);
    assert_eq!(accepted, 2);
    assert_eq!(retries, 0, "fail-fast re-sends nothing");
}

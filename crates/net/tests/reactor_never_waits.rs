//! The reactor thread runs the register groups its requests land on — and
//! must never wait for one. With a group wedged and a READ parked on it,
//! everything else is answered at once, by the same thread; the wedged READ
//! gets its typed error at the deadline; dropping the node joins every
//! thread. And the count that keeps the win over TCP: a READ on an idle
//! `vrr-server` wakes no worker.
//!
//! One `#[test]` on purpose: it counts the process's threads through
//! `/proc/self/status`, which a concurrently running sibling test would
//! perturb. It pays the real 30 s operation timeout once.

use std::time::{Duration, Instant};

use vrr_core::metrics::names;
use vrr_core::StorageConfig;
use vrr_net::{
    free_addrs, NetClient, NetNode, NetNodeConfig, NodeTopology, Op, Rsp, ServerProcess,
};
use vrr_runtime::{ProtocolKind, OP_TIMEOUT};

/// `Threads:` of `/proc/self/status`.
fn threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("procfs")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("Threads: line")
}

fn write_key(client: &mut NetClient<u64>, k: u8) {
    let (key, value) = (vec![k], u64::from(k));
    let rsp = client.request(Op::WriteKey { key, value }).expect("io");
    assert!(matches!(rsp, Rsp::Wrote { .. }), "{rsp:?}");
}

fn read_key(client: &mut NetClient<u64>, k: u8) -> Rsp<u64> {
    let (key, reader) = (vec![k], 0);
    client.request(Op::ReadKey { key, reader }).expect("io")
}

/// The hosted store's executor wake-ups so far, as `Op::StoreMetrics`
/// reports them (read before the snapshot's own inspection runs).
fn store_wakeups(client: &mut NetClient<u64>) -> u64 {
    match client
        .request(Op::StoreMetrics { cluster: None })
        .expect("io")
    {
        Rsp::StoreMetrics { registry } => registry.counter(names::EXECUTOR_WAKEUPS, &[]),
        other => panic!("{other:?}"),
    }
}

#[test]
fn a_wedged_group_holds_up_nothing_else_and_an_idle_server_wakes_no_worker() {
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

    // --- t + 1 objects of key 0's group gone, a READ parked on it. --------
    let mut client = NetClient::<u64>::connect(addr).expect("connect");
    (0..2).for_each(|k| write_key(&mut client, k));
    let slot = match client.request(Op::SlotOfKey { key: vec![0] }).expect("io") {
        Rsp::Slot { slot } => slot,
        other => panic!("{other:?}"),
    };
    for object in 0..2 {
        let rsp = client.request(Op::CrashShard { slot, object }).expect("io");
        assert_eq!(rsp, Rsp::Crashed);
    }
    let asked = Instant::now();
    std::thread::scope(|scope| {
        let wedged = scope.spawn(move || {
            let mut client = NetClient::<u64>::connect(addr).expect("connect");
            read_key(&mut client, 0)
        });
        std::thread::sleep(Duration::from_millis(300));
        // The reactor started that READ itself, found it stuck after its
        // bounded passes and moved on: a second connection is served as if
        // nothing were wrong.
        for _ in 0..100 {
            let sent = Instant::now();
            assert_eq!(client.request(Op::Ping).expect("io"), Rsp::Pong);
            assert!(matches!(read_key(&mut client, 1), Rsp::ReadOk { .. }));
            let took = sent.elapsed();
            assert!(
                took < Duration::from_millis(50),
                "the reactor waited: {took:?}"
            );
        }
        match wedged.join().expect("client thread") {
            Rsp::Err { what } => assert!(what.contains("timed out"), "{what}"),
            other => panic!("wedged read answered {other:?}"),
        }
    });
    let waited = asked.elapsed();
    assert!(
        waited >= OP_TIMEOUT && waited < OP_TIMEOUT + Duration::from_secs(5),
        "the sweep answers at the deadline, not {waited:?}"
    );

    // --- Drop, with that operation still parked, joins every thread. ------
    drop(client);
    drop(node);
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() != baseline && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(threads(), baseline, "dropping the node left threads behind");

    // --- An idle vrr-server: the reactor is the only thread a READ needs. -
    let addrs = free_addrs(1).expect("reserve port");
    let args = format!("--node 0 --addrs {} --store 2", addrs[0]);
    let server = ServerProcess::spawn(env!("CARGO_BIN_EXE_vrr-server"), args.split(' '))
        .expect("vrr-server");
    let mut client = NetClient::<u64>::connect(server.addr).expect("connect");
    write_key(&mut client, 1);
    // Taking a snapshot costs wake-ups itself (its inspection is a command
    // per automaton, for the workers): two in a row price that.
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
}

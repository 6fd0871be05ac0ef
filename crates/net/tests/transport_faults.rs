//! Transport fault-injection battery over real sockets.
//!
//! Three fault classes, each with the same acceptance bar: every read
//! that *completes* must be regular per `vrr-checker`, and the deployment
//! must never hang or panic.
//!
//! 1. Byzantine base objects behind TCP — all six [`AttackerKind`]s over
//!    two two-node deployments (mirrors `tests/fast_path.rs`, but the
//!    honest and hostile objects talk over localhost sockets, not
//!    channels): one whose objects are split down the middle, driven
//!    through node 0's host, and one whose front node holds no object,
//!    driven by key.
//! 2. A `vrr-server` OS process killed mid-read and restarted amnesiac
//!    with a fresh epoch.
//! 3. Connection resets injected between read rounds while reads are in
//!    flight.

mod common;

use std::net::SocketAddr;
use std::time::Duration;

use common::{read_key, write_key, Gen};
use vrr_checker::{check_regularity, Recorder};
use vrr_core::attackers::AttackerKind;
use vrr_core::StorageConfig;
use vrr_net::{
    free_addrs, ByzSpec, NetClient, NetNode, NetNodeConfig, NodeTopology, RemoteCluster,
    RemoteClusterConfig, ServerProcess,
};
use vrr_runtime::{ClusterBackend, ProtocolKind};

/// The key the keyed operations address.
const KEY: &[u8] = b"k";

/// Records one read at reader 0 of the one register under test. Every
/// test writes value `seq` at write `seq`, so a read's returned value *is*
/// the sequence number of the write it observed (`None` ⇒ the initial `⊥`,
/// seq 0).
fn read(rec: &Recorder<u64>, go: impl FnOnce() -> Option<u64>) {
    rec.read(0, 0, || {
        let value = go();
        (value.unwrap_or(0), value)
    });
}

/// Two in-process `NetNode`s (so messages cross real sockets) hosting one
/// register group: the writer and every reader on node 0, object `i` on
/// `object_node(i)`.
fn two_nodes(cfg: StorageConfig, object_node: impl Fn(usize) -> u32) -> NodeTopology {
    NodeTopology {
        addrs: free_addrs(2).expect("reserve ports"),
        objects: (0..cfg.s).map(object_node).collect(),
        slots: 1,
    }
}

/// A seeded mix of 24 writes and reads of one register, recorded.
fn drive<W>(
    seed: u64,
    write: impl Fn(u64) -> W,
    read_value: impl Fn() -> Option<u64>,
) -> Recorder<u64> {
    let (rec, mut seq, mut g) = (Recorder::new(1), 0, Gen(seed));
    for _ in 0..24 {
        if g.next().is_multiple_of(2) {
            seq += 1;
            rec.write(0, seq, seq, || write(seq));
        } else {
            read(&rec, &read_value);
        }
    }
    rec
}

/// Fault class 1: every attacker kind, behind TCP, on object `S - 1` on
/// node 1, so its forgeries cross the wire like any honest ack. Two
/// placements, the writer and reader on node 0 in both: split (the first
/// ⌈S/2⌉ objects on node 0, the rest on node 1), driven through node 0's
/// host; and front (every object on node 1), driven by key through a
/// `RemoteCluster`, so every protocol round crosses a socket.
#[test]
fn byzantine_objects_over_tcp_stay_regular() {
    let cfg = StorageConfig::optimal(1, 1, 1);
    for (i, kind) in AttackerKind::ALL.into_iter().enumerate() {
        let mut ncfg = NetNodeConfig::<u64>::new(cfg, ProtocolKind::RegularOptimized);
        ncfg.byzantine = vec![ByzSpec {
            slot: Some(0),
            object: cfg.s - 1,
            kind,
            forged: 999_999,
        }];
        let start = |topo: &NodeTopology| {
            let node = |n| NetNode::start(n, topo, ncfg.clone()).expect("node");
            (node(0), node(1))
        };
        let seed = 0xC0FFEE ^ i as u64;

        let (n0, _n1) = start(&two_nodes(cfg, |i| u32::from(i >= cfg.s.div_ceil(2))));
        let host = n0.host();
        let split = drive(seed, |seq| host.write(0, seq), || host.read(0, 0).value);

        let (n0, _n1) = start(&two_nodes(cfg, |_| 1));
        let front: RemoteCluster<u64, u64> =
            RemoteCluster::connect(n0.addr(), RemoteClusterConfig::default()).expect("connect");
        let write = |seq| front.try_write(0, seq).expect("keyed write");
        // A read before the first write finds the key unbound: ⊥.
        let keyed = drive(seed, write, || front.read(&0, 0).and_then(|r| r.value));

        for (placement, rec) in [("split", split), ("front", keyed)] {
            let result = rec.check(check_regularity);
            assert!(
                result.is_ok(),
                "{kind:?} broke regularity ({placement}): {result:?}"
            );
        }
    }
}

/// One node of the two-process deployment: objects `[0, 0, 0, 1]`, writer
/// and reader on node 0, its front node.
fn spawn(node: u32, addrs: &[SocketAddr], epoch: u32) -> ServerProcess {
    let args = format!(
        "--node {node} --addrs {} --t 1 --b 1 --readers 1 --kind regular-opt \
         --place-objects 0,0,0,1 --epoch {epoch}",
        common::addr_list(addrs)
    );
    ServerProcess::spawn(env!("CARGO_BIN_EXE_vrr-server"), args.split(' ')).expect("vrr-server")
}

/// Fault class 2: node 1 (hosting one of four objects) is killed while
/// reads are in flight, then restarted amnesiac with a bumped epoch. One
/// crashed-then-amnesiac object is within `min(t, b) = 1`, so every read
/// that completes — during the outage and after the rebirth — must still
/// be regular. The clients are bare `NetClient`s: a `RemoteCluster` would
/// retry, and a retry could hide a read that failed in the outage.
#[test]
fn kill_and_restart_server_mid_read() {
    let addrs = free_addrs(2).expect("reserve ports");
    let s0 = spawn(0, &addrs, 0);
    let mut s1 = spawn(1, &addrs, 0);
    assert_eq!(s0.addr, addrs[0]);

    let mut writer = NetClient::<u64>::connect(s0.addr).expect("writer client");
    let mut reader = NetClient::<u64>::connect(s0.addr).expect("reader client");

    let rec = Recorder::new(1);
    let mut seq = 0;
    let mut write = |phase: &str| {
        seq += 1;
        rec.write(0, seq, seq, || write_key(&mut writer, KEY, seq, phase));
    };

    // Warm up: both nodes alive.
    for _ in 0..4 {
        write("write (healthy)");
        read(&rec, || read_key(&mut reader, KEY, "read (healthy)"));
    }

    // Kill node 1 while a read burst runs on another thread, so the kill
    // lands mid-read with high probability. The burst records into the
    // shared recorder as it goes.
    std::thread::scope(|scope| {
        let rec = &rec;
        scope.spawn(move || {
            for _ in 0..12 {
                read(rec, || read_key(&mut reader, KEY, "read (outage)"));
            }
        });
        std::thread::sleep(Duration::from_millis(30));
        s1.kill();

        // Writes keep completing on node 0's local quorum of 3.
        for _ in 0..4 {
            write("write (outage)");
        }
    });

    // Rebirth: same address, empty state, fresh epoch. The original
    // reader client was consumed by the outage thread; reconnect.
    let s1b = spawn(1, &addrs, 1);
    assert_eq!(s1b.addr, addrs[1]);
    let mut reader = NetClient::<u64>::connect(s0.addr).expect("reader client (rebirth)");
    for _ in 0..4 {
        write("write (rebirth)");
        read(&rec, || read_key(&mut reader, KEY, "read (rebirth)"));
    }

    let result = rec.check(check_regularity);
    assert!(result.is_ok(), "kill+restart broke regularity: {result:?}");

    let mut ctl = NetClient::<u64>::connect(s0.addr).expect("ctl client");
    ctl.shutdown_server().ok();
}

/// Fault class 3: the reader node's connections to the remote object node
/// are reset over and over while reads run. Frames buffered for the dead
/// connections are dropped (lossy on reset) — reads must still complete
/// off the local quorum and stay regular, and the transport must count
/// its reconnects.
#[test]
fn connection_resets_between_read_rounds_stay_regular() {
    // Node 0: writer, reader, 3 objects (a full quorum, S - t = 3).
    // Node 1: the fourth object, reachable only through resettable conns.
    let cfg = StorageConfig::optimal(1, 1, 1);
    let topo = two_nodes(cfg, |i| u32::from(i == 3));
    let ncfg = NetNodeConfig::<u64>::new(cfg, ProtocolKind::Regular);
    let n0 = NetNode::start(0, &topo, ncfg.clone()).expect("node 0");
    let _n1 = NetNode::start(1, &topo, ncfg).expect("node 1");

    let mut ctl = NetClient::<u64>::connect(n0.addr()).expect("ctl client");
    let rec = Recorder::new(1);
    let mut seq = 0;
    let mut g = Gen(0xBADC0DE);

    for i in 0..30 {
        if g.next().is_multiple_of(3) {
            seq += 1;
            rec.write(0, seq, seq, || n0.host().write(0, seq));
        } else {
            read(&rec, || n0.host().read(0, 0).value);
        }
        if i % 4 == 1 {
            // Sever node 0 → node 1 between protocol rounds.
            ctl.reset_peer(1).expect("reset peer");
        }
    }

    let result = rec.check(check_regularity);
    assert!(result.is_ok(), "resets broke regularity: {result:?}");

    let metrics = ctl.metrics().expect("metrics");
    assert!(
        metrics.contains("vrr_net_wire_reconnects_total"),
        "reconnects not reported:\n{metrics}"
    );
}

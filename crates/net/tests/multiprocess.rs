//! The acceptance run: a sharded deployment (`slots > 1`) spread over
//! three separate `vrr-server` OS processes — writer and both readers on
//! the front node 0, the base objects split across the other two — driven
//! by a keyed `RemoteCluster` through a seeded Byzantine + crash workload.
//! No process hosts a whole group, so every protocol round crosses a
//! socket. Every completed read must be checker-verified regular, per key,
//! and the fetched metrics must expose the `vrr_net_wire_*` counters.

mod common;

use std::net::SocketAddr;

use common::Gen;
use vrr_checker::{check_regularity, Recorder};
use vrr_net::{free_addrs, NetClient, RemoteCluster, RemoteClusterConfig, ServerProcess};
use vrr_runtime::ClusterBackend;

const SLOTS: usize = 3;
/// Group span for `optimal(2, 1, 2)`: 6 objects + writer + 2 readers.
const SPAN: u64 = 9;

/// Spawns one node of the three-process deployment. Topology (same
/// flags on every node): `(t, b) = (2, 1)` so the six objects
/// tolerate one Byzantine liar plus one crash (the sizing
/// `tests/scaleout.rs` uses for the same fault mix), objects split
/// `[1, 1, 1, 2, 2, 2]`, writer and readers on node 0; object 0
/// of every slot is a (responsive) Byzantine inflator.
fn spawn(node: u32, addrs: &[SocketAddr]) -> ServerProcess {
    let args = format!(
        "--node {node} --addrs {} --t 2 --b 1 --readers 2 --kind regular-opt --store {SLOTS} \
         --place-objects 1,1,1,2,2,2 \
         --byzantine all:0:inflator:999999",
        common::addr_list(addrs)
    );
    ServerProcess::spawn(env!("CARGO_BIN_EXE_vrr-server"), args.split(' ')).expect("vrr-server")
}

#[test]
fn sharded_store_across_three_processes_stays_regular() {
    let addrs = free_addrs(3).expect("reserve ports");
    let servers: Vec<ServerProcess> = (0..3).map(|n| spawn(n, &addrs)).collect();
    for (server, addr) in servers.iter().zip(&addrs) {
        assert_eq!(server.addr, *addr);
    }

    // The keyed client dials the front node; each key binds one of its
    // register slots on first write.
    let front: RemoteCluster<u64, u64> =
        RemoteCluster::connect(addrs[0], RemoteClusterConfig::default()).expect("connect front");
    let keys = SLOTS as u64;

    // One register per key on a shared logical clock: each key is an
    // independent register, checked independently. Written value = write
    // seq, so a read's value is the seq it observed.
    let rec = Recorder::new(SLOTS);
    let mut seqs = [0u64; SLOTS];
    let mut write = |key: u64| {
        let k = key as usize;
        seqs[k] += 1;
        let seq = seqs[k];
        rec.write(k, seq, seq, || front.try_write(key, seq).expect("write"));
    };

    // Write each key once so every read has a value to find.
    for key in 0..keys {
        write(key);
    }

    let mut g = Gen(0x5EED_CA5E);
    for i in 0..60 {
        let key = g.next() % keys;
        if g.next().is_multiple_of(2) {
            write(key);
        } else {
            let reader = g.next() as usize % 2;
            rec.read(key as usize, reader, || {
                let value = front.read(&key, reader).expect("bound").value;
                (value.unwrap_or(0), value)
            });
        }

        if i == 30 {
            // Mid-workload crash: object 1 of every slot (hosted on
            // node 1, alongside the Byzantine object 0) — one crash on
            // top of the standing liar, within the (t, b) = (2, 1)
            // budget.
            let mut ctl = NetClient::<u64>::connect(addrs[1]).expect("ctl node 1");
            for slot in 0..SLOTS as u64 {
                ctl.crash_pid(slot * SPAN + 1).expect("crash object 1");
            }
        }
    }

    let result = rec.check(check_regularity);
    assert!(result.is_ok(), "a key is not regular: {result:?}");

    // The wire metrics made it through the client protocol end to end.
    let mut ctl = NetClient::<u64>::connect(addrs[0]).expect("ctl node 0");
    let metrics = ctl.metrics().expect("metrics");
    for name in [
        "vrr_net_wire_frames_sent_total",
        "vrr_net_wire_frames_received_total",
        "vrr_net_wire_bytes_sent_total",
        "vrr_net_wire_bytes_received_total",
    ] {
        assert!(metrics.contains(name), "missing {name} in:\n{metrics}");
    }

    // Clean shutdown of all three processes via the protocol itself.
    for addr in &addrs {
        if let Ok(mut c) = NetClient::<u64>::connect(*addr) {
            c.shutdown_server().ok();
        }
    }
    for mut server in servers {
        server.wait();
    }
}

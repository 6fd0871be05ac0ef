//! The acceptance run: a sharded deployment (`slots > 1`) spread over
//! three separate `vrr-server` OS processes — writer on one, the base
//! objects split across the other two, readers on two different nodes —
//! driven by thin clients through a seeded Byzantine + crash workload.
//! Every completed read must be checker-verified regular, per slot, and
//! the fetched metrics must expose the `vrr_net_wire_*` counters.

mod common;

use std::net::SocketAddr;

use common::Gen;
use vrr_checker::{check_regularity, Recorder};
use vrr_net::{free_addrs, NetClient, ServerProcess};

const SLOTS: usize = 3;
/// Group span for `optimal(2, 1, 2)`: 6 objects + writer + 2 readers.
const SPAN: u64 = 9;

/// Spawns one node of the three-process deployment. Topology (same
/// flags on every node): `(t, b) = (2, 1)` so the six objects
/// tolerate one Byzantine liar plus one crash (the sizing
/// `tests/scaleout.rs` uses for the same fault mix), objects split
/// `[1, 1, 1, 2, 2, 2]`, writer on 0, readers on `[0, 2]`; object 0
/// of every slot is a (responsive) Byzantine inflator.
fn spawn(node: u32, addrs: &[SocketAddr]) -> ServerProcess {
    let args = format!(
        "--node {node} --addrs {} --t 2 --b 1 --readers 2 --kind regular-opt --store {SLOTS} \
         --place-objects 1,1,1,2,2,2 --place-writer 0 --place-readers 0,2 \
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

    // Writer client at node 0; reader 0 lives on node 0, reader 1 on
    // node 2 — three processes, none of which hosts a full group.
    let mut writer = NetClient::<u64>::connect(addrs[0]).expect("connect writer");
    let mut readers: Vec<NetClient<u64>> = [addrs[0], addrs[2]]
        .iter()
        .map(|&a| NetClient::connect(a).expect("connect reader"))
        .collect();
    // The fixed key → slot table: key `i` lives in register slot `i`.
    let keys = ["alpha", "beta", "gamma"];
    assert_eq!(keys.len(), SLOTS);

    // One register per slot on a shared logical clock: each slot is an
    // independent register, checked independently. Written value = write
    // seq, so a read's value is the seq it observed.
    let rec = Recorder::new(SLOTS);
    let mut seqs = [0u64; SLOTS];
    let mut write = |slot: usize| {
        seqs[slot] += 1;
        let seq = seqs[slot];
        rec.write(slot, seq, seq, || writer.write_slot(slot as u32, seq))
    };

    // Write each key once so every read has a value to find.
    for slot in 0..SLOTS {
        write(slot).expect("first write");
    }

    let mut g = Gen(0x5EED_CA5E);
    let mut crash_done = false;
    for i in 0..60 {
        let slot = g.next() as usize % keys.len();
        if g.next().is_multiple_of(2) {
            write(slot).expect("write");
        } else {
            let reader = g.next() as usize % 2;
            rec.read(slot, reader, || {
                let rep = readers[reader].read_slot(slot as u32, reader as u32);
                let value = rep.expect("read").value;
                (value.unwrap_or(0), value)
            });
        }

        if i == 30 && !crash_done {
            // Mid-workload crash: object 1 of every slot (hosted on
            // node 1, alongside the Byzantine object 0) — one crash on
            // top of the standing liar, within the (t, b) = (2, 1)
            // budget.
            let mut ctl = NetClient::<u64>::connect(addrs[1]).expect("ctl node 1");
            for slot in 0..SLOTS as u64 {
                ctl.crash_pid(slot * SPAN + 1).expect("crash object 1");
            }
            crash_done = true;
        }
    }
    assert!(crash_done);

    let result = rec.check(check_regularity);
    assert!(result.is_ok(), "a slot is not regular: {result:?}");

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

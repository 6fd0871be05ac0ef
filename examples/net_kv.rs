//! A key-value register service on **real sockets and separate OS
//! processes** — the multi-process companion to `networked_kv.rs` (which
//! keeps everything on threads in one process).
//!
//! Three `vrr-server` processes share one sharded deployment of
//! `optimal(t = 2, b = 1)` register groups: the writer on node 0, the six
//! base objects split between nodes 1 and 2, one reader on node 0 and one
//! on node 2. Object 0 of every group is a Byzantine inflator, and
//! mid-run we crash one more object per group — one liar plus one crash,
//! the budget S = 6 tolerates. The run self-verifies: every completed
//! read is checked regular per slot, and the exit code reports the
//! verdict.
//!
//! Run with:
//!
//! ```text
//! cargo build --release -p vrr-net --bin vrr-server
//! cargo run --release --example net_kv
//! ```
//!
//! The example finds `vrr-server` next to its own executable (both land
//! in `target/<profile>/`); set `VRR_SERVER_BIN` to override.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{exit, Child, Command, Stdio};

use vrr::checker::{check_regularity, OpHistory};
use vrr::net::{free_addrs, NetClient};

const SLOTS: usize = 4;
/// Group span for `optimal(2, 1, 2)`: 6 objects + writer + 2 readers.
const SPAN: u64 = 9;

fn server_bin() -> PathBuf {
    if let Ok(path) = std::env::var("VRR_SERVER_BIN") {
        return PathBuf::from(path);
    }
    let mut path = std::env::current_exe().expect("own path");
    path.pop(); // net_kv
    path.pop(); // examples/
    path.push("vrr-server");
    if !path.exists() {
        eprintln!(
            "vrr-server not found at {} — build it first:\n    \
             cargo build --release -p vrr-net --bin vrr-server\n\
             (or set VRR_SERVER_BIN)",
            path.display()
        );
        exit(2);
    }
    path
}

fn spawn_node(node: u32, addrs: &[SocketAddr]) -> (Child, SocketAddr) {
    let addr_list = addrs
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let mut args = vec![
        "--node".to_string(),
        node.to_string(),
        "--addrs".into(),
        addr_list,
        "--t".into(),
        "2".into(),
        "--b".into(),
        "1".into(),
        "--readers".into(),
        "2".into(),
        "--kind".into(),
        "regular-opt".into(),
        "--slots".into(),
        SLOTS.to_string(),
        "--place-objects".into(),
        "1,1,1,2,2,2".into(),
        "--place-writer".into(),
        "0".into(),
        "--place-readers".into(),
        "0,2".into(),
    ];
    for slot in 0..SLOTS {
        args.push("--byzantine".into());
        args.push(format!("{slot}:0:inflator:424242"));
    }
    let mut child = Command::new(server_bin())
        .args(&args)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn vrr-server");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read READY line");
    let addr = line
        .trim()
        .strip_prefix("READY ")
        .unwrap_or_else(|| panic!("unexpected banner from node {node}: {line:?}"))
        .parse()
        .expect("parse READY addr");
    (child, addr)
}

fn main() {
    let addrs = free_addrs(3).expect("reserve three localhost ports");
    println!("deploying 3 vrr-server processes on {addrs:?}");
    let mut children: Vec<Child> = Vec::new();
    for node in 0..3 {
        let (child, addr) = spawn_node(node, &addrs);
        println!("  node {node}: pid {} on {addr}", child.id());
        children.push(child);
    }

    // Thin clients: one at the writer's node, one per reader's node. The
    // key → slot table is ours to keep: key `i` lives in register slot `i`.
    let mut writer = NetClient::<u64>::connect(addrs[0]).expect("connect writer client");
    let mut readers: Vec<NetClient<u64>> = [addrs[0], addrs[2]]
        .iter()
        .map(|&a| NetClient::connect(a).expect("connect reader client"))
        .collect();
    let keys = ["alpha", "beta", "gamma", "delta"];
    assert_eq!(keys.len(), SLOTS);

    // Shared logical clock, one history per register slot.
    let mut histories = vec![OpHistory::<u64>::new(); SLOTS];
    let mut seqs = [0u64; SLOTS];
    let mut clock = 0u64;
    let mut record_write =
        |histories: &mut Vec<OpHistory<u64>>, slot: usize, seq: u64, clock: &mut u64| {
            writer.write_slot(slot as u32, seq).expect("write");
            histories[slot].push_write(seq, seq, *clock, Some(*clock + 1));
            *clock += 2;
        };

    for slot in 0..SLOTS {
        record_write(&mut histories, slot, 1, &mut clock);
    }
    seqs.fill(1);

    let mut reads = 0u64;
    let mut writes = 4u64;
    let mut state = 0x5EEDu64;
    let mut rng = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        state >> 33
    };
    for round in 0..2 {
        for _ in 0..40 {
            let slot = rng() as usize % keys.len();
            if rng().is_multiple_of(2) {
                seqs[slot] += 1;
                record_write(&mut histories, slot, seqs[slot], &mut clock);
                writes += 1;
            } else {
                let reader = rng() as usize % 2;
                let value = readers[reader]
                    .read_slot(slot as u32, reader as u32)
                    .expect("read")
                    .value;
                histories[slot].push_read(
                    reader,
                    value.unwrap_or(0),
                    value,
                    clock,
                    Some(clock + 1),
                );
                clock += 2;
                reads += 1;
            }
        }
        if round == 0 {
            // Between rounds: crash object 1 of every group (node 1 also
            // hosts the standing Byzantine inflator at object 0).
            println!("crashing object 1 of all {SLOTS} groups on node 1");
            let mut ctl = NetClient::<u64>::connect(addrs[1]).expect("ctl node 1");
            for slot in 0..SLOTS as u64 {
                ctl.crash_pid(slot * SPAN + 1).expect("crash");
            }
        }
    }

    let mut violations = 0;
    for (slot, history) in histories.iter().enumerate() {
        history.validate().expect("well-formed history");
        let result = check_regularity(history);
        if result.is_ok() {
            println!(
                "slot {slot} ({}): regular ({} ops)",
                keys[slot],
                history.ops().len()
            );
        } else {
            eprintln!("slot {slot}: VIOLATION: {result:?}");
            violations += 1;
        }
    }

    let mut ctl = NetClient::<u64>::connect(addrs[0]).expect("ctl node 0");
    let metrics = ctl.metrics().expect("metrics");
    let frames: u64 = metrics
        .lines()
        .filter(|l| l.starts_with("vrr_net_wire_frames_sent_total"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum();
    println!("{writes} writes, {reads} reads; node 0 sent {frames} wire frames");

    for addr in &addrs {
        if let Ok(mut c) = NetClient::<u64>::connect(*addr) {
            c.shutdown_server().ok();
        }
    }
    for mut child in children {
        child.wait().ok();
    }

    if violations > 0 {
        eprintln!("net_kv: {violations} consistency violation(s)");
        exit(1);
    }
    println!("net_kv: every completed read regular across 3 OS processes");
}

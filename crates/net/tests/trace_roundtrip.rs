//! Differential trace round-trip: the same seeded workload replayed
//! in-process (threads + channels) and over real sockets must yield
//! *byte-identical* checker inputs and verdicts — the `Debug` renderings
//! of the two recorded histories and of the two verdicts are compared as
//! strings.

mod common;

use common::Gen;
use vrr_checker::{check_regularity, Recorder};
use vrr_core::StorageConfig;
use vrr_net::{free_addrs, NetNode, NetNodeConfig, NodeTopology};
use vrr_runtime::{ProtocolKind, StorageCluster};

/// One schedule step: `Write` bumps the sequence, `Read(j)` reads at
/// reader `j`.
#[derive(Clone, Copy)]
enum Step {
    Write,
    Read(usize),
}

fn schedule(seed: u64, len: usize, readers: usize) -> Vec<Step> {
    let mut g = Gen(seed);
    let mut steps = vec![Step::Write]; // seed the register before reads
    while steps.len() < len {
        steps.push(if g.next().is_multiple_of(2) {
            Step::Write
        } else {
            Step::Read(g.next() as usize % readers)
        });
    }
    steps
}

/// Replays `steps` through `write`/`read` closures. Sequential recording
/// ticks deterministically, so both executions stamp identically regardless
/// of wall-clock speed. Written value = write seq, so the read value *is*
/// the observed write's seq.
fn replay<W, R>(steps: &[Step], mut write: W, mut read: R) -> Recorder<u64>
where
    W: FnMut(u64),
    R: FnMut(usize) -> Option<u64>,
{
    let rec = Recorder::new(1);
    let mut seq = 0u64;
    for step in steps {
        match *step {
            Step::Write => {
                seq += 1;
                rec.write(0, seq, seq, || write(seq));
            }
            Step::Read(j) => rec.read(0, j, || {
                let value = read(j);
                (value.unwrap_or(0), value)
            }),
        }
    }
    rec
}

/// The differential: in-proc channels vs localhost sockets, same seed,
/// same logical clock — identical `Debug` bytes out of the checker layer.
#[test]
fn tcp_and_inproc_traces_are_byte_identical() {
    let cfg = StorageConfig::optimal(1, 1, 2);
    let steps = schedule(0x7_2ACE, 40, cfg.readers);

    // Execution A: threads and channels.
    let storage: StorageCluster<u64> = StorageCluster::deploy(cfg, ProtocolKind::RegularOptimized);
    let inproc = replay(
        &steps,
        |v| {
            storage.write(v);
        },
        |j| storage.read(j).value,
    );

    // Execution B: the same group's objects split across two NetNodes,
    // every message to an odd object crossing real sockets.
    let topo = NodeTopology {
        addrs: free_addrs(2).expect("reserve ports"),
        objects: (0..cfg.s).map(|i| u32::from(i % 2 == 1)).collect(),
        slots: 1,
    };
    let ncfg = NetNodeConfig::<u64>::new(cfg, ProtocolKind::RegularOptimized);
    let n0 = NetNode::start(0, &topo, ncfg.clone()).expect("node 0");
    let _n1 = NetNode::start(1, &topo, ncfg).expect("node 1");
    let host = n0.host();
    let tcp = replay(
        &steps,
        |v| {
            host.write(0, v);
        },
        |j| host.read(0, j).value,
    );

    // Same schedule, same logical clock, fault-free: the recorded
    // histories must agree byte for byte, and so must the verdicts.
    assert_eq!(
        format!("{:?}", inproc.histories()),
        format!("{:?}", tcp.histories())
    );
    let (a, b) = (inproc.check(check_regularity), tcp.check(check_regularity));
    assert!(a.is_ok(), "in-proc run not regular: {a:?}");
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

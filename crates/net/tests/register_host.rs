//! The node as a view of `vrr_runtime::RegisterHost`: a Byzantine spec
//! either lands on the object it names or is rejected, a key and its slot
//! are one register, and host inspection on a node that holds relays for
//! half its group reports the other half without disturbing the relays.

mod common;

use std::io::ErrorKind;

use common::{read_key, write_key};
use vrr_core::attackers::AttackerKind;
use vrr_core::metrics::names;
use vrr_core::regular::RegularObject;
use vrr_core::{ProtocolKind, StorageConfig};
use vrr_net::{free_addrs, ByzSpec, NetClient, NetNode, NetNodeConfig, NodeTopology, Op, Rsp};
use vrr_runtime::{Cluster, ClusterBackend, InvokeError};
use vrr_sim::ProcessId;

const KIND: ProtocolKind = ProtocolKind::RegularOptimized;

fn mute(slot: Option<usize>, object: usize) -> ByzSpec<u64> {
    ByzSpec {
        slot,
        object,
        kind: AttackerKind::Mute,
        forged: 0,
    }
}

fn is_honest_object(cluster: &Cluster<vrr_core::Msg<u64>>, pid: ProcessId) -> bool {
    match cluster.try_invoke(pid, |_o: &mut RegularObject<u64>, _ctx| ()) {
        Ok(()) => true,
        Err(InvokeError::WrongType { .. }) => false,
        Err(gone) => panic!("inspection must not poison {pid}: {gone}"),
    }
}

/// `--byzantine 0:9:mute:0` at `S = 4` used to match no object: the node
/// came up all-honest and a fault drill against it passed vacuously.
#[test]
fn a_byzantine_spec_names_an_existing_object_or_the_node_refuses_to_start() {
    let cfg = StorageConfig::optimal(1, 1, 1); // S = 4
    let topo = NodeTopology {
        addrs: free_addrs(1).expect("reserve port"),
        objects: vec![0; cfg.s],
        slots: 2,
    };

    for (slot, object, named) in [
        (Some(0), cfg.s, "0:4"),
        (Some(2), 0, "2:0"),
        (None, 9, "all:9"),
    ] {
        let mut ncfg = NetNodeConfig::<u64>::new(cfg, KIND);
        ncfg.byzantine = vec![mute(slot, object)];
        let err = NetNode::start(0, &topo, ncfg).err().expect("out of range");
        assert_eq!(err.kind(), ErrorKind::InvalidInput, "{named}: {err}");
        assert!(err.to_string().contains(named), "{named}: {err}");
    }
    // No register group: a node that would serve nothing.
    let empty = NodeTopology {
        slots: 0,
        ..topo.clone()
    };
    let ncfg = NetNodeConfig::<u64>::new(cfg, KIND);
    let err = NetNode::start(0, &empty, ncfg).err().expect("no slots");
    assert_eq!(err.kind(), ErrorKind::InvalidInput, "0 slots: {err}");

    // A topology the node cannot index (these used to panic) or whose
    // traffic it would drop (operations hung until the timeout): the node
    // itself outside `addrs`, an object list off the sizing, an object
    // placed on a node that has no address.
    let (mut short, mut astray) = (topo.clone(), topo.clone());
    short.objects.pop();
    astray.objects[1] = 9;
    for (node, topo, offender) in [
        (3, &topo, "node 3"),
        (0, &short, "3 objects"),
        (0, &astray, "node 9"),
    ] {
        let ncfg = NetNodeConfig::<u64>::new(cfg, KIND);
        let err = NetNode::start(node, topo, ncfg).err().expect("refused");
        assert_eq!(err.kind(), ErrorKind::InvalidInput, "{offender}: {err}");
        assert!(err.to_string().contains(offender), "{offender}: {err}");
    }

    // In range, a spec lands exactly where it points: on one slot, or on
    // every slot.
    for slot in [Some(1), None] {
        let mut ncfg = NetNodeConfig::<u64>::new(cfg, KIND);
        ncfg.byzantine = vec![mute(slot, 2)];
        let node = NetNode::start(0, &topo, ncfg).expect("in-range spec");
        for (s, group) in node.groups().iter().enumerate() {
            for (i, &pid) in group.objects.iter().enumerate() {
                let liar = i == 2 && slot.is_none_or(|slot| slot == s);
                let honest = is_honest_object(node.host().cluster(), pid);
                assert_eq!(honest, !liar, "{slot:?}: slot {s} object {i}");
            }
        }
    }
}

/// The node's keyed store is an index over its own register groups, not a
/// second set of them: what a key's write over the wire leaves, a host read
/// of its slot finds, and the other way round.
#[test]
fn a_key_and_its_slot_are_one_register() {
    let cfg = StorageConfig::optimal(1, 1, 1);
    let topo = NodeTopology {
        addrs: free_addrs(1).expect("reserve port"),
        objects: vec![0; cfg.s],
        slots: 2,
    };
    let node = NetNode::start(0, &topo, NetNodeConfig::<u64>::new(cfg, KIND)).expect("node");
    let mut client = NetClient::<u64>::connect(node.addr()).expect("connect");
    write_key(&mut client, b"k", 7, "key write");
    let slot = node.store().shard_of(&b"k".to_vec()).expect("bound");
    assert_eq!(node.host().read(slot, 0).value, Some(7));
    node.host().write(slot, 8);
    assert_eq!(read_key(&mut client, b"k", "key read"), Some(8));
}

/// Sizing `StorageConfig`, `ShardedStore` and the writer assert against
/// used to reach those assertions: exit code 101 and a panic message where
/// every other bad flag gets the usage and exit code 2. `--t 32` is
/// `S = 66`, past the 64 objects a register group can have.
#[test]
fn the_server_refuses_out_of_range_sizing_instead_of_panicking() {
    // From `--store 0` on they are refused by `NetNode::start`, not by
    // `main` (a later `--node` overrides the first).
    for sizing in [
        &["--t", "0", "--b", "1"][..],
        &["--readers", "0"],
        &["--store", "0"],
        &["--t", "32"],
        &["--byzantine", "all:9:mute:0"],
        &["--node", "3"],
        &["--place-objects", "0,0"],
        &["--place-objects", "0,0,0,9"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_vrr-server"))
            .args(["--node", "0", "--addrs", "127.0.0.1:0"])
            .args(sizing)
            .output()
            .expect("run vrr-server");
        let (stdout, stderr) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        assert_eq!(out.status.code(), Some(2), "{sizing:?}: {stderr}");
        assert!(stderr.starts_with("vrr-server: "), "{sizing:?}: {stderr}");
        assert!(!stdout.contains("READY"), "{sizing:?}: {stdout}");
    }
}

/// Objects 1 and 3 live on node 1, so on node 0 their pids hold relays:
/// host inspection there reports objects 0 and 2 only — and asking a relay
/// whether it is a `RegularObject` leaves it relaying.
#[test]
fn host_inspection_on_a_split_deployment_reports_only_locally_hosted_objects() {
    let cfg = StorageConfig::optimal(1, 1, 2);
    let topo = NodeTopology {
        addrs: free_addrs(2).expect("reserve ports"),
        objects: (0..cfg.s).map(|i| u32::from(i % 2 == 1)).collect(),
        slots: 1,
    };
    let ncfg = NetNodeConfig::<u64>::new(cfg, KIND);
    let n0 = NetNode::start(0, &topo, ncfg.clone()).expect("node 0");
    let n1 = NetNode::start(1, &topo, ncfg).expect("node 1");
    for v in 1..=3 {
        n0.host().write(0, v);
    }

    // The initial entry plus three writes, each delivered to the local
    // objects before its quorum closed (a remote one may still lag).
    assert_eq!(n0.host().history_lens(0), [(0, 4), (2, 4)]);
    let remote: Vec<usize> = n1.host().history_lens(0).iter().map(|&(i, _)| i).collect();
    assert_eq!(remote, [1, 3]);

    // Both readers sit on node 0 and reach objects 1 and 3 through its
    // relays. The relays still relay, both reads complete, and node 0's
    // snapshot meters the two READs it started — node 1 started none. Two
    // of any three replies hold write 4, so each quiet READ returns on
    // round 1: a fast-path hit.
    n0.host().write(0, 4);
    for j in 0..cfg.readers {
        assert_eq!(n0.host().read(0, j).value, Some(4), "reader {j}");
    }
    for (node, reads) in [(&n0, 2), (&n1, 0)] {
        let snap = node.host().metrics_snapshot_labelled(None);
        let rounds = snap.histogram(names::READER_ROUNDS, &[]);
        assert_eq!(rounds.map_or(0, |h| h.count()), reads);
        assert_eq!(snap.counter(names::READER_FAST_HITS, &[]), reads);
        assert_eq!(snap.counter(names::READER_FAST_FALLBACKS, &[]), 0);
    }

    // Node 1 is no front node: every key-index op is refused, by the
    // rule's name.
    let mut client = NetClient::<u64>::connect(n1.addr()).expect("connect");
    let key = || b"k".to_vec();
    for op in [
        Op::WriteKey {
            key: key(),
            value: 5,
        },
        Op::ReadKey {
            key: key(),
            reader: 0,
        },
        Op::ReleaseKey { key: key() },
        Op::StoreKeys,
        Op::SlotOfKey { key: key() },
    ] {
        let rsp = client.request(op).expect("transport");
        let refused = matches!(&rsp, Rsp::Err { what } if what.contains("served only by node 0"));
        assert!(refused, "node 1 served a key op: {rsp:?}");
    }
}

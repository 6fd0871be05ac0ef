//! Inspecting a shard must not change its fault schedule. History
//! inspection used to `invoke` every object of the shard with an honest
//! `RegularObject` downcast: on a Byzantine-substituted object the mismatch
//! panicked inside the worker, which *poisoned the attacker like a crash*
//! before the caller panicked in turn — a remote history-length request
//! turned a Byzantine fault into a crash fault. An inspection is now a
//! submission like any operation, answered by completion on the node's
//! reactor or workers, and every submission checks the automaton's type
//! before running anything: a mismatch completes with `WrongType` and the
//! process carries on. Substituted and crashed objects are skipped, on
//! every path.

use std::io::{Read, Write};

use vrr_core::attackers::AttackerKind;
use vrr_core::metrics::names;
use vrr_core::regular::RegularObject;
use vrr_core::{Msg, ProtocolKind, StorageConfig};
use vrr_net::{
    free_addrs, ByzSpec, NetClient, NetNode, NetNodeConfig, NodeTopology, RemoteCluster,
    RemoteClusterConfig,
};
use vrr_runtime::ClusterBackend;
use vrr_sim::Tamper;

const FORGED: u64 = 0xBAD;

#[test]
fn inspection_skips_faulty_objects_and_leaves_the_attacker_byzantine() {
    // t = 2, b = 1: object 0 lies, object 1 crashes, S = 6.
    let cfg = StorageConfig::optimal(2, 1, 1);
    let topo = NodeTopology {
        addrs: free_addrs(1).expect("reserve port"),
        objects: vec![0; cfg.s],
        slots: 1,
    };
    let mut ncfg = NetNodeConfig::<u64>::new(cfg, ProtocolKind::RegularOptimized);
    ncfg.byzantine = vec![ByzSpec {
        slot: None,
        object: 0,
        kind: AttackerKind::Inflator,
        forged: FORGED,
    }];
    ncfg.metrics_addr = Some("127.0.0.1:0".parse().expect("address"));
    let node = NetNode::start(0, &topo, ncfg).expect("store node");
    let hosted = node.store();

    let remote: RemoteCluster<String, u64> =
        RemoteCluster::connect(node.addr(), RemoteClusterConfig::default()).expect("connect");
    let key = "k".to_string();
    for k in 1..=3u64 {
        remote.write(key.clone(), k);
    }
    let slot = remote.shard_of(&key).expect("bound key has a shard");
    remote.crash_object(slot, 1);
    assert_eq!(remote.read(&key, 0).expect("bound key").value, Some(3));

    // KeepAll histories: w0 plus three writes at each of the four honest
    // live objects; the liar and the crashed object are not reported.
    let snapshot = remote.metrics_snapshot_labelled(None);
    for object in 0..cfg.s {
        let labels = [("object", &*object.to_string()), ("shard", "0")];
        let gauge = snapshot.gauge(names::OBJECT_HISTORY_LEN, &labels);
        let expected = (object >= 2).then_some(4);
        assert_eq!(gauge, expected, "Op::StoreMetrics, object {object}");
    }
    let mut client = NetClient::<u64>::connect(node.addr()).expect("connect");
    assert_history_gauges(&client.metrics().expect("NetClient::metrics"));
    let metrics_addr = node.metrics_addr().expect("metrics address");
    let mut stream = std::net::TcpStream::connect(metrics_addr).expect("connect http");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut http = String::new();
    stream.read_to_string(&mut http).expect("read response");
    assert!(http.starts_with("HTTP/1.1 200 OK"), "status: {http:.100}");
    assert_history_gauges(&http);

    // The attacker was looked past, not poisoned: it still answers to its
    // real type, and the shard still absorbs it as a *Byzantine* fault next
    // to the crash (a poisoned attacker would have been a second crash).
    let attacker = hosted.host().groups()[slot].objects[0];
    let alive = hosted.host().cluster().try_invoke(
        attacker,
        |_a: &mut Tamper<Msg<u64>, RegularObject<u64>>, _ctx| (),
    );
    assert_eq!(alive, Ok(()), "inspection turned the liar into a crash");
    remote.write(key.clone(), 4);
    assert_eq!(remote.read(&key, 0).expect("bound key").value, Some(4));
}

fn assert_history_gauges(text: &str) {
    for object in 0..6 {
        let series = format!("vrr_object_history_len{{object=\"{object}\",shard=\"0\"}} 4");
        assert_eq!(
            text.contains(&series),
            object >= 2,
            "object {object} in:\n{text}"
        );
    }
}

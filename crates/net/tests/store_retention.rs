//! A node's keyed store honours the node's [`ProtocolSpec`]: the retention
//! a `NetNodeConfig` carries (and `vrr-server --retention reader-ack` sets)
//! governs the shards its keys land on. Before
//! the spec existed the store was built by a constructor with no retention
//! argument and silently kept every history entry.

use vrr_core::metrics::names;
use vrr_core::regular::HistoryRetention;
use vrr_core::{ProtocolKind, ProtocolSpec, StorageConfig};
use vrr_net::{
    free_addrs, NetNode, NetNodeConfig, NodeTopology, RemoteCluster, RemoteClusterConfig,
};
use vrr_runtime::ClusterBackend;

#[test]
fn hosted_store_truncates_histories_under_the_nodes_retention() {
    const CAP: usize = 8;
    const WRITES: u64 = 300;

    let cfg = StorageConfig::optimal(1, 1, 2);
    let topo = NodeTopology {
        addrs: free_addrs(1).expect("reserve port"),
        objects: vec![0; cfg.s],
        slots: 2,
    };
    let spec = ProtocolSpec::from(ProtocolKind::RegularOptimized)
        .with_retention(HistoryRetention::reader_ack_capped(CAP));
    let ncfg = NetNodeConfig::<u64>::new(cfg, spec);
    let node = NetNode::start(0, &topo, ncfg).expect("store node");

    let remote: RemoteCluster<String, u64> =
        RemoteCluster::connect(node.addr(), RemoteClusterConfig::default()).expect("connect");
    let key = "hot".to_string();
    for k in 1..=WRITES {
        remote.write(key.clone(), k);
        // Reader 0 acks every 7th write; reader 1 never reads, so only the
        // cap can unpin the floor — both halves of the policy are live.
        if k % 7 == 0 {
            let rep = remote.read(&key, 0).expect("bound key");
            assert_eq!(rep.value, Some(k));
        }
    }
    let slot = remote
        .shard_of(&key)
        .expect("bound key has a shard")
        .to_string();
    let snapshot = remote.metrics_snapshot();
    let lens: Vec<Option<u64>> = (0..cfg.s)
        .map(|object| {
            let labels = [("object", &*object.to_string()), ("shard", &*slot)];
            snapshot.gauge(names::OBJECT_HISTORY_LEN, &labels)
        })
        .collect();
    assert!(
        lens.iter()
            .all(|len| len.is_some_and(|len| len <= CAP as u64)),
        "store shard ignored the node's retention: history lens {lens:?} after {WRITES} writes"
    );
}

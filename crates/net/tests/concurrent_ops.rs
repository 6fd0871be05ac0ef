//! Two thin clients addressing the *same* reader (or writer) of one key at
//! the same time. The automata admit one operation at a time (§2.2), and
//! nothing on the wire stops two connections from asking at once — so the
//! node has to queue them. Before the executor's per-process operation
//! FIFO, the second read tripped the reader's well-formedness assertion
//! inside `invoke`, the worker poisoned the reader, and every later read of
//! that reader answered `Rsp::Err` forever.

mod common;

use common::{read_key, write_key};
use vrr_core::StorageConfig;
use vrr_net::{free_addrs, NetClient, NetNode, NetNodeConfig, NodeTopology};
use vrr_runtime::ProtocolKind;

const READS_PER_CLIENT: usize = 500;
const WRITES_PER_CLIENT: u64 = 200;

fn one_node() -> NetNode<u64> {
    let cfg = StorageConfig::optimal(1, 1, 1);
    let topo = NodeTopology {
        objects: vec![0; cfg.s],
        addrs: free_addrs(1).expect("reserve port"),
        slots: 1,
    };
    NetNode::start(
        0,
        &topo,
        NetNodeConfig::<u64>::new(cfg, ProtocolKind::RegularOptimized),
    )
    .expect("start node")
}

/// The one key both clients address.
const KEY: &[u8] = b"k";

#[test]
fn two_clients_reading_one_reader_are_serialized_not_poisoned() {
    let node = one_node();
    let addr = node.addr();
    let connect = || NetClient::<u64>::connect(addr).expect("connect");
    write_key(&mut connect(), KEY, 42, "write");

    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let mut client = connect();
                start.wait();
                for i in 0..READS_PER_CLIENT {
                    let value = read_key(&mut client, KEY, "a concurrent read");
                    assert_eq!(value, Some(42), "read {i}");
                }
            });
        }
    });

    let value = read_key(&mut connect(), KEY, "reader 0 after the concurrent burst");
    assert_eq!(value, Some(42));
}

#[test]
fn two_clients_writing_one_key_are_serialized_not_poisoned() {
    let node = one_node();
    let addr = node.addr();

    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for c in 0..2u64 {
            let start = &start;
            scope.spawn(move || {
                let mut client = NetClient::<u64>::connect(addr).expect("connect");
                start.wait();
                for i in 0..WRITES_PER_CLIENT {
                    write_key(
                        &mut client,
                        KEY,
                        c * WRITES_PER_CLIENT + i,
                        "a concurrent write",
                    );
                }
            });
        }
    });

    let mut client = NetClient::<u64>::connect(addr).expect("connect");
    let last = write_key(&mut client, KEY, 7, "the writer after the concurrent burst");
    assert_eq!(
        last.0,
        2 * WRITES_PER_CLIENT + 1,
        "every write took a timestamp"
    );
    assert_eq!(read_key(&mut client, KEY, "read"), Some(7));
}

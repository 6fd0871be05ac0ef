//! Two thin clients addressing the *same* reader (or writer) of a slot at
//! the same time. The automata admit one operation at a time (§2.2), and
//! nothing on the wire stops two connections from asking at once — so the
//! node has to queue them. Before the executor's per-process operation
//! FIFO, the second `ReadSlot` tripped the reader's well-formedness
//! assertion inside `invoke`, the worker poisoned the reader, and every
//! later read of that reader answered `Rsp::Err` forever.

use vrr_core::StorageConfig;
use vrr_net::{free_addrs, GroupPlacement, NetClient, NetNode, NetNodeConfig, NodeTopology};
use vrr_runtime::ProtocolKind;

const READS_PER_CLIENT: usize = 500;
const WRITES_PER_CLIENT: u64 = 200;

fn one_node() -> NetNode<u64> {
    let cfg = StorageConfig::optimal(1, 1, 1);
    let topo = NodeTopology {
        placement: GroupPlacement::single(0, cfg),
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

#[test]
fn two_clients_reading_one_reader_are_serialized_not_poisoned() {
    let node = one_node();
    let addr = node.addr();
    NetClient::<u64>::connect(addr)
        .expect("connect")
        .write_slot(0, 42)
        .expect("write");

    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let mut client = NetClient::<u64>::connect(addr).expect("connect");
                start.wait();
                for i in 0..READS_PER_CLIENT {
                    let report = client
                        .read_slot(0, 0)
                        .unwrap_or_else(|e| panic!("read {i} of reader 0 failed: {e}"));
                    assert_eq!(report.value, Some(42));
                }
            });
        }
    });

    let report = NetClient::<u64>::connect(addr)
        .expect("connect")
        .read_slot(0, 0)
        .expect("reader 0 still serves after the concurrent burst");
    assert_eq!(report.value, Some(42));
}

#[test]
fn two_clients_writing_one_slot_are_serialized_not_poisoned() {
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
                    client
                        .write_slot(0, c * WRITES_PER_CLIENT + i)
                        .unwrap_or_else(|e| panic!("write {i} by client {c} failed: {e}"));
                }
            });
        }
    });

    let mut client = NetClient::<u64>::connect(addr).expect("connect");
    let last = client.write_slot(0, 7).expect("the writer still serves");
    assert_eq!(
        last.ts.0,
        2 * WRITES_PER_CLIENT + 1,
        "every write took a timestamp"
    );
    assert_eq!(client.read_slot(0, 0).expect("read").value, Some(7));
}

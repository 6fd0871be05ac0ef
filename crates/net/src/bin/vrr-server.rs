//! `vrr-server`: one OS process of a multi-process storage deployment.
//!
//! Every node of a deployment runs this binary with the *same* topology
//! flags (`--addrs`, sizing, `--place-objects`, `--store`) and its own
//! `--node`. The register value type is `u64`. After the listener is up
//! the process prints `READY <addr>` on stdout; it exits when a thin
//! client sends the shutdown op.
//!
//! ```text
//! vrr-server --node 0 --addrs 127.0.0.1:7100,127.0.0.1:7101 \
//!     --t 1 --b 1 --readers 1 [--fast] [--kind regular-opt] [--store 4] \
//!     [--place-objects 0,0,0,1] \
//!     [--byzantine SLOT|all:OBJ:KIND:FORGED] \
//!     [--retention keep-all|reader-ack] [--metrics-addr HOST:PORT]
//! ```
//!
//! `--store N` (default 1) is the number of register groups, on one worker
//! pool of one worker per CPU. Node 0 hosts the writer and every reader of
//! each, and so is their front node: it serves them by key, as a
//! `ShardedStore<Vec<u8>, u64>`, to remote `StoreRouter`s through
//! `vrr_net::RemoteCluster` (router-member mode). `--place-objects`
//! (default: all on node 0) puts object `i` on the `i`-th listed node, and
//! any node but node 0 answers keyed ops with an error naming the rule.
//! Fault injection goes to the object's node: on node 0 `CrashShard` of an
//! object hosted elsewhere answers "not hosted here", so crash it with
//! `CrashPid` on its own node.
//! `--byzantine all:OBJ:KIND:FORGED` substitutes an attacker for the named
//! object of **every** group. With `--metrics-addr` the process
//! serves its Prometheus snapshot at `GET /metrics`, and prints
//! `METRICS <addr>` after the `READY` banner.
//!
//! A flag the node cannot honour — unknown, malformed, or sizing out of
//! range (`--b` above `--t`, `--readers 0`) — is answered with a
//! `vrr-server:` line and the usage on stderr and exit code 2, before
//! anything is bound or spawned. So is a topology `NetNode::start` refuses
//! (its `InvalidInput`): `--store 0`, `--node` or `--place-objects` naming
//! a node outside `--addrs`, a `--place-objects` list that does not match
//! the sizing, a sizing of more than 64 objects, a Byzantine spec naming an
//! object the deployment does not have.

use std::net::SocketAddr;
use std::process::exit;

use vrr_core::attackers::AttackerKind;
use vrr_core::regular::HistoryRetention;
use vrr_core::{ProtocolKind, ProtocolSpec, StorageConfig};
use vrr_net::{ByzSpec, NetNode, NetNodeConfig, NodeTopology};

fn usage(err: &str) -> ! {
    eprintln!("vrr-server: {err}");
    eprintln!(
        "usage: vrr-server --node N --addrs HOST:PORT[,HOST:PORT...] \
         [--t N] [--b N] [--readers N] [--fast] \
         [--kind safe|regular|regular-opt] [--store N] \
         [--place-objects N,N,...] \
         [--byzantine SLOT|all:OBJ:KIND:FORGED]... \
         [--retention keep-all|reader-ack] [--metrics-addr HOST:PORT]"
    );
    exit(2);
}

fn parse_list<T: std::str::FromStr>(s: &str, what: &str) -> Vec<T> {
    s.split(',')
        .map(|p| {
            p.trim()
                .parse()
                .unwrap_or_else(|_| usage(&format!("bad {what} element `{p}`")))
        })
        .collect()
}

fn parse_attacker(s: &str) -> AttackerKind {
    match s {
        "mute" => AttackerKind::Mute,
        "inflator" => AttackerKind::Inflator,
        "conflicter" => AttackerKind::Conflicter,
        "stale" => AttackerKind::Stale,
        "equivocator" => AttackerKind::Equivocator,
        "truncator" => AttackerKind::Truncator,
        other => usage(&format!("unknown attacker `{other}`")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut node: Option<u32> = None;
    let mut addrs: Vec<SocketAddr> = Vec::new();
    let mut t = 1usize;
    let mut b = 1usize;
    let mut readers = 1usize;
    let mut fast = false;
    let mut kind = ProtocolKind::RegularOptimized;
    let mut store = 1usize;
    let mut place_objects: Option<Vec<u32>> = None;
    let mut byzantine: Vec<ByzSpec<u64>> = Vec::new();
    let mut retention_reader_ack = false;
    let mut metrics_addr: Option<SocketAddr> = None;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
                .as_str()
        };
        match flag.as_str() {
            "--node" => node = Some(val().parse().unwrap_or_else(|_| usage("bad --node"))),
            "--addrs" => addrs = parse_list(val(), "--addrs"),
            "--t" => t = val().parse().unwrap_or_else(|_| usage("bad --t")),
            "--b" => b = val().parse().unwrap_or_else(|_| usage("bad --b")),
            "--readers" => readers = val().parse().unwrap_or_else(|_| usage("bad --readers")),
            "--fast" => fast = true,
            "--kind" => {
                kind = match val() {
                    "safe" => ProtocolKind::Safe,
                    "regular" => ProtocolKind::Regular,
                    "regular-opt" => ProtocolKind::RegularOptimized,
                    other => usage(&format!("unknown kind `{other}`")),
                }
            }
            "--place-objects" => place_objects = Some(parse_list(val(), "--place-objects")),
            "--byzantine" => {
                let spec = val();
                let parts: Vec<&str> = spec.split(':').collect();
                if parts.len() != 4 {
                    usage(&format!(
                        "bad --byzantine `{spec}` (want SLOT|all:OBJ:KIND:FORGED)"
                    ));
                }
                byzantine.push(ByzSpec {
                    slot: (parts[0] != "all").then(|| {
                        parts[0]
                            .parse()
                            .unwrap_or_else(|_| usage("bad byzantine slot"))
                    }),
                    object: parts[1]
                        .parse()
                        .unwrap_or_else(|_| usage("bad byzantine object")),
                    kind: parse_attacker(parts[2]),
                    forged: parts[3]
                        .parse()
                        .unwrap_or_else(|_| usage("bad byzantine forged")),
                });
            }
            "--store" => store = val().parse().unwrap_or_else(|_| usage("bad --store")),
            "--metrics-addr" => {
                metrics_addr = Some(
                    val()
                        .parse()
                        .unwrap_or_else(|_| usage("bad --metrics-addr")),
                )
            }
            "--retention" => {
                retention_reader_ack = match val() {
                    "keep-all" => false,
                    "reader-ack" => true,
                    other => usage(&format!("unknown retention `{other}`")),
                }
            }
            other => usage(&format!("unknown flag `{other}`")),
        }
    }

    let node = node.unwrap_or_else(|| usage("--node is required"));
    if addrs.is_empty() {
        usage("--addrs is required");
    }
    // What `StorageConfig` asserts, refused here instead.
    if b > t {
        usage("--b must not exceed --t (Byzantine faults are a subset of faults)");
    }
    if readers == 0 {
        usage("--readers must be at least 1");
    }

    let cfg = if fast {
        StorageConfig::fast(t, b, readers)
    } else {
        StorageConfig::optimal(t, b, readers)
    };
    let topo = NodeTopology {
        addrs,
        objects: place_objects.unwrap_or_else(|| vec![0; cfg.s]),
        slots: store,
    };
    let mut spec = ProtocolSpec::from(kind);
    if retention_reader_ack {
        spec = spec.with_retention(HistoryRetention::reader_ack());
    }
    let mut ncfg = NetNodeConfig::<u64>::new(cfg, spec);
    ncfg.byzantine = byzantine;
    ncfg.metrics_addr = metrics_addr;

    let server = match NetNode::start(node, &topo, ncfg) {
        Ok(s) => s,
        // A topology or spec the deployment cannot honour: `--store 0`,
        // `--node` or an object placed outside `--addrs`, an object list
        // off the sizing, over 64 objects, a Byzantine spec naming no
        // object.
        Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => usage(&e.to_string()),
        Err(e) => {
            eprintln!("vrr-server: failed to start node {node}: {e}");
            exit(1);
        }
    };
    println!("READY {}", server.addr());
    if let Some(addr) = server.metrics_addr() {
        println!("METRICS {addr}");
    }
    use std::io::Write;
    std::io::stdout().flush().ok();
    server.wait_shutdown();
}

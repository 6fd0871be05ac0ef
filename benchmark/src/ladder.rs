//! The traced ladder: one client issues the same seeded op sequence
//! serially at each public entry point, from a bare `StorageCluster` up to
//! the routed remote path, every call wrapped in an in-memory span. A
//! rung's self time is its p50 minus the rung below; together they are the
//! latency budget of a remote READ.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use vrr_core::wire::Wire;
use vrr_net::frame::{decode_body, encode_frame, CLIENT_NODE};
use vrr_net::{Ctl, Envelope, FrameReader, NetClient, Op as WireOp, Payload, Rsp};
use vrr_runtime::ClusterBackend;

use crate::deploy::{self, prebind_value};
use crate::load::{Op, OpStream, Span};
use crate::spec::Workload;
use crate::stats::percentile;

/// Calls per span on the two nanosecond rungs (`ring.route`,
/// `frame.codec`): a single call is shorter than reading the clock twice.
const NS_BATCH: usize = 32;
/// Each rung first replays this share (one part in ...) of the sequence
/// untimed.
const WARMUP_SHARE: usize = 10;

pub struct Ladder {
    /// p50 of every span name, in nanoseconds per call.
    pub p50_ns: BTreeMap<&'static str, f64>,
    pub spans: Vec<Span>,
    /// Ops that failed at some rung.
    pub failed: u64,
}

impl Ladder {
    pub fn us(&self, name: &str) -> f64 {
        self.ns(name) / 1e3
    }

    pub fn ns(&self, name: &str) -> f64 {
        self.p50_ns.get(name).copied().unwrap_or(0.0)
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    failed: u64,
}

impl Recorder {
    /// Times `call(op)` for every op of `seq` under the rung's READ or
    /// WRITE span name; `call` says whether the op succeeded.
    fn rung(
        &mut self,
        seq: &[Op],
        names: (&'static str, &'static str),
        parents: Option<(&'static str, &'static str)>,
        mut call: impl FnMut(&Op) -> bool,
    ) {
        // Untimed: connections, caches and lazily grown buffers settle.
        for op in &seq[..seq.len() / WARMUP_SHARE] {
            call(op);
        }
        for (op_id, op) in seq.iter().enumerate() {
            let start_ns = self.epoch.elapsed().as_nanos() as u64;
            let ok = call(op);
            let end_ns = self.epoch.elapsed().as_nanos() as u64;
            self.failed += u64::from(!ok);
            let write = op.write.is_some();
            self.spans.push(Span {
                name: if write { names.1 } else { names.0 },
                op_id: op_id as u64,
                start_ns,
                end_ns,
                parent: parents.map(|p| if write { p.1 } else { p.0 }),
            });
        }
    }

    /// Times `NS_BATCH` back-to-back calls per span.
    fn batched(
        &mut self,
        seq: &[Op],
        name: &'static str,
        parent: &'static str,
        mut call: impl FnMut(&Op),
    ) {
        for (batch, ops) in seq.chunks_exact(NS_BATCH).enumerate() {
            let start_ns = self.epoch.elapsed().as_nanos() as u64;
            ops.iter().for_each(&mut call);
            let end_ns = self.epoch.elapsed().as_nanos() as u64;
            self.spans.push(Span {
                name,
                op_id: (batch * NS_BATCH) as u64,
                start_ns,
                end_ns,
                parent: Some(parent),
            });
        }
    }
}

fn key_bytes(key: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    key.encode(&mut buf);
    buf
}

/// Encode, frame-extract and decode one `ReadKey` request and its
/// `ReadOk` response — the codec work of one remote READ, both sides.
fn codec_roundtrip(reader: &mut FrameReader, op: &Op, id: u64) {
    let envelopes: [Envelope<u64>; 2] = [
        Payload::Ctl(Ctl::Request {
            id,
            op: WireOp::ReadKey {
                key: key_bytes(op.key),
                reader: 0,
            },
        }),
        Payload::Ctl(Ctl::Response {
            id,
            rsp: Rsp::ReadOk {
                value: Some(prebind_value(op.key)),
                ts: vrr_core::Timestamp(1),
                rounds: 2,
                fast: false,
            },
        }),
    ]
    .map(|payload| Envelope {
        source: CLIENT_NODE,
        epoch: 0,
        seq: id,
        payload,
    });
    for env in &envelopes {
        reader.extend(&encode_frame(black_box(env)));
        let body = reader
            .next_frame()
            .expect("own frame is well-formed")
            .expect("a whole frame was fed");
        black_box(decode_body::<u64>(&body).expect("own frame decodes"));
    }
}

fn wire_request(client: &mut NetClient<u64>, op: &Op) -> bool {
    let request = match op.write {
        Some(value) => WireOp::WriteKey {
            key: key_bytes(op.key),
            value,
        },
        None => WireOp::ReadKey {
            key: key_bytes(op.key),
            reader: 0,
        },
    };
    matches!(
        client.request(request),
        Ok(Rsp::Wrote { .. } | Rsp::ReadOk { value: Some(_), .. })
    )
}

/// Runs the ladder for `w`: the in-proc rungs always, the `vrr-net` rungs
/// only where the workload crosses the wire (on `inproc-*` they are not
/// exercised and read 0).
pub fn run(w: &Workload, server_bin: &Path, seed: u64, ops: usize) -> Result<Ladder, String> {
    let mut stream = OpStream::new(w, seed, 0);
    let seq: Vec<Op> = (0..ops).map(|_| stream.next_op()).collect();
    let mut rec = Recorder {
        epoch: Instant::now(),
        spans: Vec::with_capacity(ops * 8),
        failed: 0,
    };

    let storage = deploy::ladder_storage(w);
    rec.rung(
        &seq,
        ("storage.read", "storage.write"),
        Some(("shard.read", "shard.write")),
        |op| match op.write {
            Some(value) => storage.write(value).rounds > 0,
            None => storage.read(0).value.is_some(),
        },
    );
    drop(storage);

    let store = deploy::ladder_store(w);
    rec.rung(
        &seq,
        ("shard.read", "shard.write"),
        Some(("scaleout.inproc_read", "scaleout.inproc_write")),
        |op| match op.write {
            Some(value) => store.try_write(op.key, value).is_ok(),
            None => store.read(&op.key, 0).is_some_and(|r| r.value.is_some()),
        },
    );
    drop(store);

    let inproc = Workload {
        remote: false,
        ..*w
    };
    let (local, _) = deploy::setup(&inproc, server_bin, seed)?;
    rec.rung(
        &seq,
        ("scaleout.inproc_read", "scaleout.inproc_write"),
        None,
        |op| match op.write {
            Some(value) => local.router.try_write(op.key, value).is_ok(),
            None => local
                .router
                .read(&op.key, 0)
                .is_some_and(|r| r.value.is_some()),
        },
    );
    rec.batched(&seq, "ring.route", "scaleout.inproc_read", |op| {
        black_box(local.router.cluster_of(black_box(&op.key)));
    });
    drop(local);

    if w.remote {
        let mut reader = FrameReader::new();
        let mut id = 0;
        rec.batched(&seq, "frame.codec", "client.ping", |op| {
            id += 1;
            codec_roundtrip(&mut reader, op, id);
        });

        let (deployment, _) = deploy::setup(w, server_bin, seed)?;
        let server = deployment.server.as_ref().expect("remote deployment");
        let remote = deployment.remote.as_ref().expect("remote deployment");
        let mut client =
            NetClient::<u64>::connect(server.addr).map_err(|e| format!("ladder dial: {e}"))?;
        rec.rung(
            &seq,
            ("client.ping", "client.ping"),
            Some(("client.read", "client.write")),
            |_| client.ping().is_ok(),
        );
        rec.rung(
            &seq,
            ("client.read", "client.write"),
            Some(("remote.read", "remote.write")),
            |op| wire_request(&mut client, op),
        );
        rec.rung(
            &seq,
            ("remote.read", "remote.write"),
            Some(("scaleout.remote_read", "scaleout.remote_write")),
            |op| match op.write {
                Some(value) => remote.try_write(op.key, value).is_ok(),
                None => remote.read(&op.key, 0).is_some_and(|r| r.value.is_some()),
            },
        );
        rec.rung(
            &seq,
            ("scaleout.remote_read", "scaleout.remote_write"),
            None,
            |op| match op.write {
                Some(value) => deployment.router.try_write(op.key, value).is_ok(),
                None => deployment
                    .router
                    .read(&op.key, 0)
                    .is_some_and(|r| r.value.is_some()),
            },
        );
    }

    let mut durations: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for span in &rec.spans {
        durations
            .entry(span.name)
            .or_default()
            .push(span.end_ns - span.start_ns);
    }
    let p50_ns = durations
        .into_iter()
        .map(|(name, mut d)| {
            d.sort_unstable();
            let calls = if matches!(name, "ring.route" | "frame.codec") {
                NS_BATCH as f64
            } else {
                1.0
            };
            (name, percentile(&d, 50.0) / calls)
        })
        .collect();
    Ok(Ladder {
        p50_ns,
        spans: rec.spans,
        failed: rec.failed,
    })
}

/// The remote-READ budget: each rung's self time.
pub struct Budget {
    pub scaleout_us: f64,
    pub remote_us: f64,
    pub net_hop_us: f64,
    pub store_us: f64,
    pub shard_us: f64,
    pub storage_us: f64,
    pub frame_us: f64,
}

impl Budget {
    pub fn of(ladder: &Ladder) -> Budget {
        Budget {
            scaleout_us: ladder.us("scaleout.remote_read") - ladder.us("remote.read"),
            remote_us: ladder.us("remote.read") - ladder.us("client.read"),
            net_hop_us: ladder.us("client.ping"),
            store_us: ladder.us("client.read") - ladder.us("client.ping"),
            shard_us: ladder.us("shard.read") - ladder.us("storage.read"),
            storage_us: ladder.us("storage.read"),
            frame_us: ladder.us("frame.codec"),
        }
    }
}

/// Sanity of the ladder itself: rungs must not get cheaper going up, and
/// the budget rebuilt from the in-proc rungs (`shard` + `storage` standing
/// in for the store time seen over the wire) must land within a tenth of
/// the routed remote READ.
pub fn self_check(ladder: &Ladder, remote: bool) -> Vec<String> {
    let mut warnings = Vec::new();
    let mut chains: Vec<&[&str]> = vec![&["storage.read", "shard.read", "scaleout.inproc_read"]];
    if remote {
        chains.push(&[
            "client.ping",
            "client.read",
            "remote.read",
            "scaleout.remote_read",
        ]);
    }
    for chain in chains {
        for pair in chain.windows(2) {
            if ladder.ns(pair[0]) > ladder.ns(pair[1]) {
                warnings.push(format!(
                    "ladder not monotone: {} p50 {:.1} us > {} p50 {:.1} us",
                    pair[0],
                    ladder.us(pair[0]),
                    pair[1],
                    ladder.us(pair[1])
                ));
            }
        }
    }
    if remote {
        let b = Budget::of(ladder);
        let rebuilt = b.scaleout_us + b.remote_us + b.net_hop_us + b.shard_us + b.storage_us;
        let total = ladder.us("scaleout.remote_read");
        if (rebuilt - total).abs() > 0.10 * total {
            warnings.push(format!(
                "budget terms sum to {rebuilt:.1} us, not within 10% of scaleout.remote_read {total:.1} us \
                 (store time over the wire {:.1} us vs in-proc shard.read {:.1} us)",
                b.store_us,
                ladder.us("shard.read")
            ));
        }
    }
    warnings
}

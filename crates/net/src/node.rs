//! One node of a multi-OS-process deployment.
//!
//! Closures and automata cannot cross process boundaries, so every node
//! spawns the **full global pid space** in the canonical order
//! ([`vrr_core::spawn_group`] over each slot): real automata for
//! the pids the node hosts, a [`Relay`] stand-in for every pid hosted
//! elsewhere. Because pids are dense in spawn order, replaying the same
//! spawn sequence makes local pid = global pid on every node — a writer
//! on node 0 sends to object pid 3 exactly as in-proc, the relay at pid 3
//! ships the message over the transport, and node 1 injects it into *its*
//! pid 3, where the real object lives.
//!
//! [`NetNode`] owns the reactor event loop thread: inbound
//! [`Inbound::Peer`] envelopes are injected via `send_external`, thin
//! client [`Inbound::Request`]s are served on short-lived threads (a
//! blocking `READ` must not stall the ingress path its own quorum
//! messages arrive on), and `Down` peers are redialed on a periodic tick.

use std::io;
use std::net::SocketAddr;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError};
use parking_lot::Mutex;

use vrr_core::attackers::AttackerKind;
use vrr_core::metrics::{names, MetricsSink, Registry};
use vrr_core::wire::Wire;
use vrr_core::{
    group_member, group_span, spawn_group, Deployment, GroupRole, Msg, ProtocolKind, ProtocolSpec,
    ReadReport, StorageConfig, Value, WriteReport,
};
use vrr_runtime::{blocking_read, blocking_write, Cluster, NoDelay, ShardedStore, StoreError};
use vrr_sim::{Automaton, Context, ProcessId};

use crate::frame::{Ctl, Op, Rsp};
use crate::reactor::{self, NetEvent};
use crate::transport::{Inbound, TcpTransport};

/// Stand-in automaton for a pid hosted by another OS process: anything
/// delivered to it locally is forwarded over the transport instead.
pub struct Relay<V> {
    me: ProcessId,
    transport: Arc<TcpTransport<V>>,
}

impl<V> Relay<V> {
    /// A relay occupying global pid `me`, forwarding over `transport`.
    pub fn new(me: ProcessId, transport: Arc<TcpTransport<V>>) -> Self {
        Relay { me, transport }
    }
}

impl<V: Value + Wire> Automaton<Msg<V>> for Relay<V> {
    fn on_message(&mut self, from: ProcessId, msg: Msg<V>, _ctx: &mut Context<'_, Msg<V>>) {
        self.transport.forward(from, self.me, msg);
    }

    fn label(&self) -> &'static str {
        "relay"
    }
}

/// Which node hosts each member of a register group. The same placement
/// applies to every slot.
#[derive(Clone, Debug)]
pub struct GroupPlacement {
    /// Hosting node of object `i`.
    pub objects: Vec<u32>,
    /// Hosting node of the writer.
    pub writer: u32,
    /// Hosting node of reader `j`.
    pub readers: Vec<u32>,
}

impl GroupPlacement {
    /// Everything on one node (the degenerate single-process layout).
    pub fn single(node: u32, cfg: StorageConfig) -> Self {
        GroupPlacement {
            objects: vec![node; cfg.s],
            writer: node,
            readers: vec![node; cfg.readers],
        }
    }

    /// The node hosting `role`.
    pub fn node_of(&self, role: GroupRole) -> u32 {
        match role {
            GroupRole::Object(i) => self.objects[i],
            GroupRole::Writer => self.writer,
            GroupRole::Reader(j) => self.readers[j],
        }
    }
}

/// The shared shape of a deployment: who listens where, who hosts what,
/// and how many register groups (slots) exist. Every node of a deployment
/// must be started from an identical topology.
#[derive(Clone, Debug)]
pub struct NodeTopology {
    /// Listen address of node `i`.
    pub addrs: Vec<SocketAddr>,
    /// Member placement, identical for every slot.
    pub placement: GroupPlacement,
    /// Number of register groups.
    pub slots: usize,
}

impl NodeTopology {
    /// Global pid → hosting node, for `slots × group_span` pids in the
    /// canonical spawn order.
    pub fn pid_node(&self, cfg: StorageConfig) -> Vec<u32> {
        let span = group_span(cfg);
        (0..self.slots * span)
            .map(|pid| self.placement.node_of(group_member(cfg, pid % span)))
            .collect()
    }
}

/// One Byzantine substitution: object `object` of slot `slot` runs
/// `kind`'s attacker, forging `forged`, instead of the honest automaton.
/// Only the node hosting that object applies it (others relay to it
/// anyway), but passing the same list to every node is harmless.
#[derive(Clone, Debug)]
pub struct ByzSpec<V> {
    /// Register-group index.
    pub slot: usize,
    /// Object index within the group.
    pub object: usize,
    /// Which attacker to run.
    pub kind: AttackerKind,
    /// The value the attacker forges.
    pub forged: V,
}

/// One Byzantine substitution inside a hosted store: object `object` of
/// **every** shard runs `kind`'s attacker forging `forged` — the
/// worst-case layout the PR 7 rebalance drill drains through.
#[derive(Clone, Debug)]
pub struct StoreByzSpec<V> {
    /// Base-object index within each shard.
    pub object: usize,
    /// Which attacker to run.
    pub kind: AttackerKind,
    /// The value the attacker forges.
    pub forged: V,
}

/// Asks a node to host a [`ShardedStore`] — a whole router cluster in one
/// OS process, served to remote `StoreRouter`s through the keyed
/// [`Op`] vocabulary (`vrr_runtime`'s `RemoteCluster` is the client side).
#[derive(Clone, Debug)]
pub struct StoreSpec<V> {
    /// Register shards to provision (the store's capacity contract).
    pub capacity: usize,
    /// Byzantine substitutions applied to every shard.
    pub byzantine: Vec<StoreByzSpec<V>>,
}

impl<V> StoreSpec<V> {
    /// A clean store of `capacity` shards.
    pub fn new(capacity: usize) -> Self {
        StoreSpec {
            capacity,
            byzantine: Vec::new(),
        }
    }
}

/// Per-node deployment parameters (the parts not fixed by the topology).
#[derive(Clone, Debug)]
pub struct NetNodeConfig<V> {
    /// Register sizing.
    pub cfg: StorageConfig,
    /// Protocol variant, history retention and reader tuning — of the slot
    /// groups and of every shard of a hosted store alike.
    pub spec: ProtocolSpec,
    /// This process's incarnation (bump on restart).
    pub epoch: u32,
    /// Worker threads for the local cluster.
    pub workers: usize,
    /// Byzantine substitutions for locally hosted objects.
    pub byzantine: Vec<ByzSpec<V>>,
    /// Host a key-value store (router-member mode) alongside the slot
    /// deployment.
    pub store: Option<StoreSpec<V>>,
    /// Serve `GET /metrics` (Prometheus text) on this address, off the
    /// same epoll reactor as the frame protocol.
    pub metrics_addr: Option<SocketAddr>,
}

impl<V> NetNodeConfig<V> {
    /// Defaults: epoch 0, one worker, no Byzantine objects, no hosted
    /// store, no metrics endpoint. A bare [`ProtocolKind`] is the
    /// paper-faithful spec (keep-all retention, default tuning).
    pub fn new(cfg: StorageConfig, spec: impl Into<ProtocolSpec>) -> Self {
        NetNodeConfig {
            cfg,
            spec: spec.into(),
            epoch: 0,
            workers: 1,
            byzantine: Vec::new(),
            store: None,
            metrics_addr: None,
        }
    }
}

/// How often the event loop redials `Down` peers (traffic also dials on
/// demand; this tick only covers peers that restarted while idle).
const REDIAL_EVERY: Duration = Duration::from_millis(200);

struct ServerCtx<V: Value + Wire> {
    node: u32,
    cfg: StorageConfig,
    kind: ProtocolKind,
    cluster: Arc<Cluster<Msg<V>>>,
    groups: Vec<Deployment>,
    placement: GroupPlacement,
    pid_node: Vec<u32>,
    transport: Arc<TcpTransport<V>>,
    /// Hosted key-value store (router-member mode), if any.
    store: Option<ShardedStore<Vec<u8>, V>>,
    /// Client-op rounds/latency histograms for the metrics snapshot.
    ops: Mutex<Registry>,
    shutdown: AtomicBool,
}

/// One running node: a local cluster (real automata + relays), a reactor,
/// and the event loop wiring them together.
pub struct NetNode<V: Value + Wire> {
    ctx: Arc<ServerCtx<V>>,
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    event_thread: Option<std::thread::JoinHandle<()>>,
}

impl<V: Value + Wire> NetNode<V> {
    /// Starts node `node` of `topo`, binding its listen address (a port-0
    /// address works — see [`NetNode::addr`] for what was actually bound),
    /// spawning the full global pid space, and launching the event loop.
    pub fn start(node: u32, topo: &NodeTopology, ncfg: NetNodeConfig<V>) -> io::Result<Self> {
        let (handle, ev_rx, bound, metrics_addr) =
            reactor::spawn_with_http(Some(topo.addrs[node as usize]), ncfg.metrics_addr)?;
        let addr = bound.expect("listening reactor reports its address");
        let pid_node = topo.pid_node(ncfg.cfg);
        let transport = TcpTransport::<V>::new(
            node,
            ncfg.epoch,
            topo.addrs.clone(),
            pid_node.clone(),
            handle,
        );

        let span = group_span(ncfg.cfg);
        let mut cluster: Cluster<Msg<V>> =
            Cluster::with_workers(Box::new(NoDelay), ncfg.workers.max(1));
        let mut groups = Vec::with_capacity(topo.slots);
        for slot in 0..topo.slots {
            groups.push(spawn_group(
                ncfg.cfg,
                ncfg.spec,
                |_role, automaton| cluster.spawn(automaton),
                |role, _objects| {
                    if topo.placement.node_of(role) != node {
                        let pid = ProcessId(slot * span + role.index(ncfg.cfg));
                        return Some(Box::new(Relay::new(pid, transport.clone())));
                    }
                    let GroupRole::Object(i) = role else {
                        return None;
                    };
                    ncfg.byzantine
                        .iter()
                        .find(|s| s.slot == slot && s.object == i)
                        .map(|s| ncfg.spec.attacker(s.kind, ncfg.cfg, s.forged.clone()))
                },
            ));
        }
        cluster.seal();

        let store = ncfg.store.as_ref().map(|spec| {
            ShardedStore::deploy_with_objects(
                ncfg.cfg,
                ncfg.spec,
                Box::new(NoDelay),
                spec.capacity,
                |_shard, i| {
                    spec.byzantine
                        .iter()
                        .find(|b| b.object == i)
                        .map(|b| ncfg.spec.attacker(b.kind, ncfg.cfg, b.forged.clone()))
                },
            )
        });

        let ctx = Arc::new(ServerCtx {
            node,
            cfg: ncfg.cfg,
            kind: ncfg.spec.kind(),
            cluster: Arc::new(cluster),
            groups,
            placement: topo.placement.clone(),
            pid_node,
            transport,
            store,
            ops: Mutex::new(Registry::new()),
            shutdown: AtomicBool::new(false),
        });
        let loop_ctx = ctx.clone();
        let event_thread = std::thread::Builder::new()
            .name(format!("vrr-net-node-{node}"))
            .spawn(move || event_loop(loop_ctx, ev_rx))?;
        Ok(NetNode {
            ctx,
            addr,
            metrics_addr,
            event_thread: Some(event_thread),
        })
    }

    /// The actually-bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The actually-bound `GET /metrics` address, if one was requested.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The hosted key-value store, if this node runs in router-member
    /// mode.
    pub fn store(&self) -> Option<&ShardedStore<Vec<u8>, V>> {
        self.ctx.store.as_ref()
    }

    /// This node's id.
    pub fn node(&self) -> u32 {
        self.ctx.node
    }

    /// The spawned register groups, slot by slot.
    pub fn groups(&self) -> &[Deployment] {
        &self.ctx.groups
    }

    /// The local cluster (all global pids; remote ones are relays).
    pub fn cluster(&self) -> &Cluster<Msg<V>> {
        &self.ctx.cluster
    }

    /// The node's transport.
    pub fn transport(&self) -> &Arc<TcpTransport<V>> {
        &self.ctx.transport
    }

    /// Blocking `WRITE(value)` on slot `slot`. The writer must be local.
    ///
    /// # Panics
    ///
    /// Panics if this node does not host the writer, `slot` is out of
    /// range, or the write times out.
    pub fn write_slot(&self, slot: usize, value: V) -> WriteReport {
        assert_eq!(self.ctx.placement.writer, self.ctx.node, "writer not local");
        self.ctx.do_write(slot, value)
    }

    /// Blocking `READ()` at local reader `reader` of slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if this node does not host that reader, indexes are out of
    /// range, or the read times out.
    pub fn read_slot(&self, slot: usize, reader: usize) -> ReadReport<V> {
        assert_eq!(
            self.ctx.placement.readers[reader], self.ctx.node,
            "reader not local"
        );
        self.ctx.do_read(slot, reader)
    }

    /// Crashes a locally hosted global pid (fault injection).
    ///
    /// # Panics
    ///
    /// Panics if the pid is not hosted by this node.
    pub fn crash_pid(&self, pid: ProcessId) {
        assert_eq!(self.ctx.pid_node[pid.0], self.ctx.node, "pid not local");
        self.ctx.cluster.crash(pid);
    }

    /// This node's metrics snapshot: client-op histograms, executor
    /// counters and the `vrr_net_wire_*` transport series.
    pub fn metrics(&self) -> Registry {
        self.ctx.metrics()
    }

    /// Whether a client asked this node to shut down.
    pub fn shutdown_requested(&self) -> bool {
        self.ctx.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until a client requests shutdown (the `vrr-server` main
    /// loop), then returns after a short grace period so the shutdown
    /// response can flush.
    pub fn wait_shutdown(&self) {
        while !self.shutdown_requested() {
            std::thread::sleep(Duration::from_millis(50));
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

impl<V: Value + Wire> Drop for NetNode<V> {
    fn drop(&mut self) {
        self.ctx.shutdown.store(true, Ordering::SeqCst);
        self.ctx.transport.handle().shutdown();
        if let Some(t) = self.event_thread.take() {
            let _ = t.join();
        }
    }
}

fn event_loop<V: Value + Wire>(ctx: Arc<ServerCtx<V>>, ev_rx: Receiver<NetEvent>) {
    let mut last_redial = Instant::now();
    loop {
        if ctx.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match ev_rx.recv_timeout(Duration::from_millis(50)) {
            Ok(NetEvent::HttpRequest { conn, head }) => {
                let rsp = ctx.http_response(&head);
                ctx.transport.handle().finish(conn, rsp);
            }
            Ok(ev) => match ctx.transport.handle_event(ev) {
                Some(Inbound::Peer { from, to, msg }) => {
                    // Only inject at pids this node really hosts; a confused
                    // or hostile peer must not bounce traffic off a relay.
                    if to.0 < ctx.pid_node.len() && ctx.pid_node[to.0] == ctx.node {
                        ctx.cluster.send_external(from, to, msg);
                    }
                }
                Some(Inbound::Request { conn, id, op }) => {
                    // Blocking ops wait on quorum messages that arrive on
                    // THIS loop — serve off-thread.
                    let serve_ctx = ctx.clone();
                    let _ = std::thread::Builder::new()
                        .name("vrr-net-serve".into())
                        .spawn(move || serve_ctx.serve(conn, id, op));
                }
                Some(Inbound::Response { .. }) | None => {}
            },
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
        if last_redial.elapsed() >= REDIAL_EVERY {
            ctx.transport.redial_down_peers();
            last_redial = Instant::now();
        }
    }
}

impl<V: Value + Wire> ServerCtx<V> {
    fn do_write(&self, slot: usize, value: V) -> WriteReport {
        let started = Instant::now();
        let report = blocking_write(&self.cluster, self.groups[slot].writer, value);
        let mut ops = self.ops.lock();
        ops.observe(names::WRITER_ROUNDS, &[], u64::from(report.rounds));
        ops.observe(
            names::WRITE_LATENCY,
            &[],
            started.elapsed().as_micros() as u64,
        );
        report
    }

    fn do_read(&self, slot: usize, reader: usize) -> ReadReport<V> {
        let started = Instant::now();
        let report = blocking_read(&self.cluster, self.kind, self.groups[slot].readers[reader]);
        let mut ops = self.ops.lock();
        ops.observe(names::READER_ROUNDS, &[], u64::from(report.rounds));
        ops.observe(
            names::READ_LATENCY,
            &[],
            started.elapsed().as_micros() as u64,
        );
        report
    }

    fn metrics(&self) -> Registry {
        let mut reg = self.ops.lock().clone();
        let stats = self.cluster.stats();
        reg.counter_add(names::EXECUTOR_SWEEPS, &[], stats.sweeps);
        reg.counter_add(names::EXECUTOR_WAKEUPS, &[], stats.wakeups);
        reg.counter_add(names::EXECUTOR_COMMANDS, &[], stats.commands);
        self.transport.record_metrics(&mut reg);
        if let Some(store) = &self.store {
            reg.merge(&store.metrics_snapshot());
        }
        reg
    }

    /// Answers one HTTP request head: `GET /metrics` gets the Prometheus
    /// snapshot, anything else a 404. Always `Connection: close` — the
    /// reactor drops the connection after the flush.
    fn http_response(&self, head: &[u8]) -> Vec<u8> {
        let line = head.split(|&b| b == b'\r').next().unwrap_or(b"");
        let (status, body) = if line.starts_with(b"GET /metrics") {
            ("200 OK", self.metrics().to_prometheus())
        } else {
            ("404 Not Found", "try GET /metrics\n".to_string())
        };
        format!(
            "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len(),
        )
        .into_bytes()
    }

    fn serve(self: Arc<Self>, conn: crate::reactor::ConnId, id: u64, op: Op<V>) {
        let rsp =
            std::panic::catch_unwind(AssertUnwindSafe(|| self.execute(op))).unwrap_or_else(|_| {
                Rsp::Err {
                    what: "operation panicked (timed out or targeted a dead process)".into(),
                }
            });
        self.transport.send_ctl_on(conn, Ctl::Response { id, rsp });
    }

    fn execute(&self, op: Op<V>) -> Rsp<V> {
        match op {
            Op::Ping => Rsp::Pong,
            Op::WriteSlot { slot, value } => {
                let slot = slot as usize;
                if self.placement.writer != self.node {
                    return Rsp::Err {
                        what: format!("writer lives on node {}", self.placement.writer),
                    };
                }
                if slot >= self.groups.len() {
                    return Rsp::Err {
                        what: format!("slot {slot} out of range"),
                    };
                }
                let report = self.do_write(slot, value);
                Rsp::Wrote {
                    ts: report.ts,
                    rounds: report.rounds,
                }
            }
            Op::ReadSlot { slot, reader } => {
                let (slot, reader) = (slot as usize, reader as usize);
                if slot >= self.groups.len() || reader >= self.cfg.readers {
                    return Rsp::Err {
                        what: format!("slot {slot} / reader {reader} out of range"),
                    };
                }
                if self.placement.readers[reader] != self.node {
                    return Rsp::Err {
                        what: format!(
                            "reader {reader} lives on node {}",
                            self.placement.readers[reader]
                        ),
                    };
                }
                let report = self.do_read(slot, reader);
                Rsp::ReadOk {
                    value: report.value,
                    ts: report.ts,
                    rounds: report.rounds,
                    fast: report.fast,
                }
            }
            Op::CrashPid { pid } => {
                let pid = pid as usize;
                if pid >= self.pid_node.len() || self.pid_node[pid] != self.node {
                    return Rsp::Err {
                        what: format!("pid {pid} is not hosted here"),
                    };
                }
                self.cluster.crash(ProcessId(pid));
                Rsp::Crashed
            }
            Op::Metrics => Rsp::MetricsText {
                text: self.metrics().to_prometheus(),
            },
            Op::ResetPeer { node } => Rsp::PeerReset {
                closed: self.transport.reset_peer(node),
            },
            Op::EchoHistory { history } => Rsp::History { history },
            Op::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                Rsp::ShuttingDown
            }
            Op::WriteKey { key, value } => self.with_store(|s| match s.try_write(key, value) {
                Ok(report) => Rsp::Wrote {
                    ts: report.ts,
                    rounds: report.rounds,
                },
                Err(StoreError::OverCapacity { capacity }) => Rsp::OverCapacity {
                    capacity: capacity as u32,
                },
                Err(e) => Rsp::Err {
                    what: e.to_string(),
                },
            }),
            Op::ReadKey { key, reader } => self.with_store(|s| {
                if reader as usize >= s.config().readers {
                    return Rsp::Err {
                        what: format!("reader {reader} out of range"),
                    };
                }
                match s.read(&key, reader as usize) {
                    Some(report) => Rsp::ReadOk {
                        value: report.value,
                        ts: report.ts,
                        rounds: report.rounds,
                        fast: report.fast,
                    },
                    None => Rsp::NoKey,
                }
            }),
            Op::ReleaseKey { key } => self.with_store(|s| Rsp::Released {
                slot: s.release(&key).map(|slot| slot as u32),
            }),
            Op::StoreKeys => self.with_store(|s| Rsp::StoreKeys { keys: s.keys() }),
            Op::SlotOfKey { key } => self.with_store(|s| match s.shard_of(&key) {
                Some(slot) => Rsp::Slot { slot: slot as u32 },
                None => Rsp::NoKey,
            }),
            Op::CrashShard { slot, object } => self.with_store(|s| {
                let (slot, object) = (slot as usize, object as usize);
                if slot >= s.capacity() || object >= s.config().s {
                    return Rsp::Err {
                        what: format!("shard {slot} / object {object} out of range"),
                    };
                }
                s.crash_object(slot, object);
                Rsp::Crashed
            }),
            Op::ShardHistoryLens { slot } => self.with_store(|s| {
                let slot = slot as usize;
                if slot >= s.capacity() {
                    return Rsp::Err {
                        what: format!("shard {slot} out of range"),
                    };
                }
                Rsp::Lens {
                    lens: s.history_lens(slot).into_iter().map(|l| l as u64).collect(),
                }
            }),
            Op::StoreInfo => self.with_store(|s| Rsp::StoreInfo {
                capacity: s.capacity() as u32,
                keys: s.len() as u32,
                free_slots: s.free_slots() as u32,
            }),
            Op::StoreMetrics { cluster } => self.with_store(|s| Rsp::StoreMetrics {
                registry: s.metrics_snapshot_labelled(cluster.map(|c| c as usize)),
            }),
        }
    }

    /// Runs `f` against the hosted store, or answers the typed "no store"
    /// error when this node was started without one.
    fn with_store(&self, f: impl FnOnce(&ShardedStore<Vec<u8>, V>) -> Rsp<V>) -> Rsp<V> {
        match &self.store {
            Some(store) => f(store),
            None => Rsp::Err {
                what: "no store hosted here (start the node with a store spec)".into(),
            },
        }
    }
}

/// Reserves `n` distinct localhost addresses by briefly binding port-0
/// listeners (test/example convenience; production deployments pass fixed
/// addresses).
pub fn free_addrs(n: usize) -> io::Result<Vec<SocketAddr>> {
    let listeners: Vec<std::net::TcpListener> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<_>>()?;
    listeners.iter().map(|l| l.local_addr()).collect()
}

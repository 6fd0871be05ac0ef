//! One node of a multi-OS-process deployment.
//!
//! Closures and automata cannot cross process boundaries, so every node
//! spawns the **full global pid space** in the canonical order (one
//! [`vrr_runtime::RegisterHost`] over all slots): real automata for
//! the pids the node hosts, a `Relay` stand-in for every pid hosted
//! elsewhere. Because pids are dense in spawn order, replaying the same
//! spawn sequence makes local pid = global pid on every node — a writer
//! on node 0 sends to object pid 3 exactly as in-proc, the relay at pid 3
//! ships the message over the transport, and node 1 injects it into *its*
//! pid 3, where the real object lives.
//!
//! The host's slots are also the node's key-value store: a
//! [`ShardedStore`] indexes keys onto them, so `WriteKey k` and a host
//! write of `k`'s slot write one register. Node 0 hosts the writer and
//! every reader of every group — it is the deployment's *front node* — and
//! the index lives there: only node 0 serves the key-index ops
//! (`WriteKey`, `ReadKey`, `SlotOfKey`), and any other node answers them
//! with a typed `Rsp::Err`. The topology places only the objects,
//! anywhere: a keyed operation whose objects sit on other nodes runs its
//! protocol rounds over the transport.
//!
//! # Where a request runs
//!
//! [`NetNode`] runs one handler on each of the reactor's lanes — one per
//! CPU — so everything below happens **on the thread of the lane that owns
//! the request's connection** (decode → classify → act; no event channel,
//! no thread per request), and nothing on it ever waits. Each lane is
//! pinned to a CPU of its own and accepts, on a listener tagged with it,
//! the connections the kernel hands it: those dialed from that CPU. So a
//! caller that stays on its CPU — a `RemoteCluster` caller takes the
//! connection dialed from there — has its round trip served on that CPU.
//! A request is served one of two ways:
//!
//! - **inline** — [`Payload::Peer`] envelopes are injected with
//!   `send_external`; the O(1) ops (`Ping`, `SlotOfKey`, `StoreInfo`,
//!   `CrashPid`, `CrashShard`, `ResetPeer`, `Shutdown`) and every
//!   validation error are answered on the spot.
//! - **by completion** — everything that reaches an automaton is
//!   *submitted* ([`vrr_runtime::Cluster::submit`]) and whoever observes
//!   the outcome writes the response. `ReadKey` / `WriteKey` are one
//!   operation each (`ShardedStore::{read_with, try_write_with}`);
//!   `StoreMetrics` and HTTP `GET /metrics` are one inspection per object
//!   (`RegisterHost::metrics_snapshot_with`), answered from the last to
//!   complete with one registry: the hosted store's snapshot —
//!   history-length gauges included — and the transport's counters.
//!   Inspection is tolerant — crashed processes, Byzantine substitutes and
//!   relays are skipped, as `Gone` or `WrongType` — so it neither panics
//!   nor alters the fault schedule of what it looks at, and an object runs
//!   no operation an inspection could wait behind. The observer is the
//!   lane's thread itself when the register group is idle and all its
//!   members are local: `submit` runs every round on the calling thread —
//!   bounded, never waiting — so the response is queued, as a same-thread
//!   command, before the handler returns, and no worker is woken. A group
//!   that is busy (another lane may be running it), has members on other
//!   nodes or is wedged completes later, on a worker thread. The
//!   completion holds the transport, the connection and the request id —
//!   never the node — so an in-flight operation cannot keep a dropped node
//!   alive. Two requests for one reader (or writer) queue in the executor,
//!   in arrival order. The node's threads are its lanes and its workers,
//!   whatever the number of connections.
//!
//! An operation that outlives [`vrr_runtime::OP_TIMEOUT`] — more than `t`
//! objects of its group are gone — is answered with a typed `Rsp::Err` by a
//! deadline sweep on the tick of the lane that started it; each lane keeps
//! its own FIFO. Deadlines, the sweeps and the redial timer read the node's
//! one clock, `node.host().cluster().clock()`, which
//! a test advances past a deadline instead of waiting the 30 s out. The
//! timeout is a constant, so deadlines are monotone in arrival order and a
//! FIFO is the whole timer wheel — of the operations still in flight when
//! their start returned; one already answered by then never enters it.
//! Completion and sweep race on one flag; exactly one of them answers. (The
//! wedged operation itself, and those queued behind it on the same
//! automaton, stay parked in the executor: each costs its closure, no
//! thread.) Lane 0's tick also redials `Down` peers: every outbound
//! connection is lane 0's.

use std::collections::VecDeque;
use std::ffi::OsStr;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vrr_core::attackers::AttackerKind;
use vrr_core::metrics::Registry;
use vrr_core::wire::Wire;
use vrr_core::{
    group_member, group_span, Deployment, GroupRole, Msg, ProtocolSpec, ReadReport, StorageConfig,
    Value, WriteReport,
};
use vrr_runtime::{
    Cluster, ClusterBackend, InvokeError, RegisterHost, ShardedStore, StoreError, OP_TIMEOUT,
};
use vrr_sim::{Automaton, Context, ProcessId};

use crate::frame::{Ctl, Op, Payload, Rsp};
use crate::reactor::{self, ConnId, Handler, NetEvent};
use crate::transport::TcpTransport;

/// Stand-in automaton for a pid hosted by another OS process: anything
/// delivered to it locally is forwarded over the transport instead.
struct Relay<V> {
    me: ProcessId,
    transport: Arc<TcpTransport<V>>,
}

impl<V: Value> Automaton<Msg<V>> for Relay<V> {
    fn on_message(&mut self, from: ProcessId, msg: Msg<V>, _ctx: &mut Context<'_, Msg<V>>) {
        self.transport.forward(from, self.me, msg);
    }

    fn label(&self) -> &'static str {
        "relay"
    }
}

/// The shared shape of a deployment: who listens where, which node hosts
/// each object, and how many register groups (slots) exist. The writer and
/// every reader of every group live on node 0, the front node. Every node
/// of a deployment must be started from an identical topology.
#[derive(Clone, Debug)]
pub struct NodeTopology {
    /// Listen address of node `i`.
    pub addrs: Vec<SocketAddr>,
    /// Hosting node of object `i`, identical for every slot.
    pub objects: Vec<u32>,
    /// Number of register groups.
    pub slots: usize,
}

impl NodeTopology {
    /// Global pid → hosting node, for `slots × group_span` pids in the
    /// canonical spawn order.
    fn pid_node(&self, cfg: StorageConfig) -> Vec<u32> {
        let span = group_span(cfg);
        (0..self.slots * span)
            .map(|pid| self.node_of(group_member(cfg, pid % span)))
            .collect()
    }

    /// The node hosting `role`: node 0, the front node, for the writer
    /// and every reader.
    fn node_of(&self, role: GroupRole) -> u32 {
        match role {
            GroupRole::Object(i) => self.objects[i],
            GroupRole::Writer | GroupRole::Reader(_) => 0,
        }
    }
}

/// One Byzantine substitution: object `object` of slot `slot` (of every
/// slot, if `None`) runs `kind`'s attacker, forging `forged`, instead of
/// the honest automaton. Only the node hosting that object applies it
/// (others relay to it anyway), but passing the same list to every node is
/// harmless.
#[derive(Clone, Debug)]
pub struct ByzSpec<V> {
    /// Register-group index; `None` is every group.
    pub slot: Option<usize>,
    /// Object index within the group.
    pub object: usize,
    /// Which attacker to run.
    pub kind: AttackerKind,
    /// The value the attacker forges.
    pub forged: V,
}

/// Per-node deployment parameters (the parts not fixed by the topology).
#[derive(Clone, Debug)]
pub struct NetNodeConfig<V> {
    /// Register sizing.
    pub cfg: StorageConfig,
    /// Protocol variant, history retention and reader tuning of every
    /// register group.
    pub spec: ProtocolSpec,
    /// Byzantine substitutions for locally hosted objects.
    pub byzantine: Vec<ByzSpec<V>>,
    /// Serve `GET /metrics` (Prometheus text) on this address, off the
    /// same reactor as the frame protocol, on its lane 0.
    pub metrics_addr: Option<SocketAddr>,
}

impl<V> NetNodeConfig<V> {
    /// Defaults: no Byzantine objects, no metrics endpoint. A bare
    /// [`vrr_core::ProtocolKind`] is the paper-faithful spec (keep-all
    /// retention, default tuning).
    pub fn new(cfg: StorageConfig, spec: impl Into<ProtocolSpec>) -> Self {
        NetNodeConfig {
            cfg,
            spec: spec.into(),
            byzantine: Vec::new(),
            metrics_addr: None,
        }
    }
}

/// How often lane 0's tick redials `Down` peers (traffic also dials on
/// demand; this only covers peers that restarted while idle).
const REDIAL_EVERY: Duration = Duration::from_millis(200);

struct ServerCtx<V: Value> {
    node: u32,
    /// The key index over the node's one register host: every slot group
    /// over the full global pid space, real automata for the members placed
    /// here and relays for the rest.
    store: ShardedStore<Vec<u8>, V>,
    pid_node: Vec<u32>,
    transport: Arc<TcpTransport<V>>,
}

/// One running node: its register host (real automata + relays) on one
/// worker pool and the reactor lanes serving it — the node's only threads.
pub struct NetNode<V: Value> {
    ctx: Arc<ServerCtx<V>>,
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    /// Lane 0's thread, which joins the other lanes when it stops.
    lanes: Option<JoinHandle<()>>,
}

impl<V: Value> NetNode<V> {
    /// Starts node `node` of `topo`, binding its listen address (a port-0
    /// address works — see [`NetNode::addr`] for what was actually bound),
    /// spawning the full global pid space, and starting every reactor lane
    /// with a request handler of its own.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] if `node` or a placed object is
    /// outside `topo.addrs`, `topo.objects` does not match the sizing, the
    /// sizing has more than 64 objects, the topology has no slot, or a
    /// Byzantine spec names a slot or an object the deployment does not
    /// have (it would match nothing and the node would silently come up
    /// honest); otherwise whatever binding the listeners or spawning the
    /// threads reports.
    pub fn start(node: u32, topo: &NodeTopology, ncfg: NetNodeConfig<V>) -> io::Result<Self> {
        let (bound, ctx) = Self::bind(node, topo, ncfg)?;
        let addr = bound.addr().expect("listening reactor reports its address");
        let metrics_addr = bound.http_addr();
        let clock = ctx.store.host().cluster().clock();
        let lanes = bound.run(|lane| NodeHandler {
            ctx: ctx.clone(),
            pending: VecDeque::new(),
            last_redial: (lane == 0).then(|| clock.now()),
        })?;
        Ok(NetNode {
            ctx,
            addr,
            metrics_addr,
            lanes: Some(lanes),
        })
    }

    /// Everything of a node but its threads: checks the specs, binds the
    /// listeners and spawns the full global pid space on one pool of one
    /// worker per CPU, behind a transport on the bound reactor.
    fn bind(
        node: u32,
        topo: &NodeTopology,
        ncfg: NetNodeConfig<V>,
    ) -> io::Result<(reactor::BoundReactor, Arc<ServerCtx<V>>)> {
        check_specs(node, topo, &ncfg)?;
        let bound = reactor::bind(Some(topo.addrs[node as usize]), ncfg.metrics_addr)?;
        let pid_node = topo.pid_node(ncfg.cfg);
        let transport =
            TcpTransport::<V>::new(node, topo.addrs.clone(), pid_node.clone(), bound.handle());

        let span = group_span(ncfg.cfg);
        let host = RegisterHost::spawn(
            Cluster::new(),
            ncfg.cfg,
            ncfg.spec,
            topo.slots,
            |slot, role| -> Option<Box<dyn Automaton<Msg<V>>>> {
                if topo.node_of(role) != node {
                    let me = ProcessId(slot * span + role.index(ncfg.cfg));
                    let transport = transport.clone();
                    return Some(Box::new(Relay { me, transport }));
                }
                let GroupRole::Object(i) = role else {
                    return None;
                };
                ncfg.byzantine
                    .iter()
                    .find(|s| s.slot.is_none_or(|s| s == slot) && s.object == i)
                    .map(|s| ncfg.spec.attacker(s.kind, ncfg.cfg, s.forged.clone()))
            },
        );

        let ctx = Arc::new(ServerCtx {
            node,
            store: ShardedStore::over(host),
            pid_node,
            transport,
        });
        Ok((bound, ctx))
    }

    /// The actually-bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The actually-bound `GET /metrics` address, if one was requested.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The key index over the node's register groups.
    pub fn store(&self) -> &ShardedStore<Vec<u8>, V> {
        &self.ctx.store
    }

    /// The spawned register groups, slot by slot.
    pub fn groups(&self) -> &[Deployment] {
        self.host().groups()
    }

    /// The host of the register groups (all global pids; remote ones are
    /// relays, which inspection skips).
    pub fn host(&self) -> &RegisterHost<V> {
        self.ctx.store.host()
    }

    /// Blocks until a client's `Op::Shutdown` stopped every lane, its
    /// answer flushed first (the `vrr-server` main loop); drops the node.
    pub fn wait_shutdown(mut self) {
        if let Some(lanes) = self.lanes.take() {
            let _ = lanes.join();
        }
    }
}

impl<V: Value> Drop for NetNode<V> {
    /// Stops and joins every lane; the worker pool joins as the last
    /// reference to the node's state drops right after. Operations still
    /// in flight complete with `Gone` into a closed reactor.
    fn drop(&mut self) {
        self.ctx.transport.handle().shutdown();
        if let Some(lanes) = self.lanes.take() {
            let _ = lanes.join();
        }
    }
}

/// The one-shot right to answer request `id` on `conn`. The operation's
/// completion (wherever [`Cluster::submit`] runs it: the lane's thread
/// inside the handler, or a worker later) and the deadline sweep (on the
/// lane's tick) race on `answered`; whoever flips it sends the response,
/// the other stands down. Holds the transport, never the node.
struct Reply<V> {
    transport: Arc<TcpTransport<V>>,
    conn: ConnId,
    id: u64,
    answered: Arc<AtomicBool>,
}

impl<V: Wire> Reply<V> {
    fn send(self, rsp: Rsp<V>) {
        if !self.answered.swap(true, Ordering::SeqCst) {
            self.transport
                .send_ctl_on(self.conn, Ctl::Response { id: self.id, rsp });
        }
    }
}

/// The deadline sweep's view of one started operation.
struct Pending {
    conn: ConnId,
    id: u64,
    answered: Arc<AtomicBool>,
    deadline: Instant,
}

/// The two ends of one operation about to start, due [`OP_TIMEOUT`] from
/// now on the node's clock: the reply right its completion takes, and the
/// entry that puts it under the deadline sweep ([`track`]) once it started.
fn reply_for<V: Value>(ctx: &ServerCtx<V>, conn: ConnId, id: u64) -> (Reply<V>, Pending) {
    let answered = Arc::new(AtomicBool::new(false));
    let reply = Reply {
        transport: ctx.transport.clone(),
        conn,
        id,
        answered: answered.clone(),
    };
    let pending = Pending {
        conn,
        id,
        answered,
        deadline: ctx.store.host().cluster().clock().now() + OP_TIMEOUT,
    };
    (reply, pending)
}

/// Puts a started operation under the deadline sweep — unless its
/// completion answered before its start returned, the common case: the
/// queue holds only what is really in flight.
fn track(queue: &mut VecDeque<Pending>, entry: Pending) {
    if !entry.answered.load(Ordering::SeqCst) {
        queue.push_back(entry);
    }
}

/// Pops every operation at the front of `queue` that is answered or whose
/// deadline has passed at `now`, and returns the `(conn, id)` of those the
/// sweep must answer (it won their `answered` race). The timeout is one
/// constant, so `queue` — arrival order — is deadline order.
fn expire(queue: &mut VecDeque<Pending>, now: Instant) -> Vec<(ConnId, u64)> {
    let mut timed_out = Vec::new();
    while let Some(front) = queue.front() {
        if front.deadline > now && !front.answered.load(Ordering::SeqCst) {
            break;
        }
        let front = queue.pop_front().expect("front exists");
        if !front.answered.swap(true, Ordering::SeqCst) {
            timed_out.push((front.conn, front.id));
        }
    }
    timed_out
}

/// One reactor lane's [`Handler`] for one node: classifies every inbound
/// envelope of the lane's connections and acts on it without waiting (see
/// the module docs).
struct NodeHandler<V: Value> {
    ctx: Arc<ServerCtx<V>>,
    /// Client operations of this lane still in flight when their start
    /// returned, in arrival (= deadline) order.
    pending: VecDeque<Pending>,
    /// When this lane last redialed: `Some` on lane 0 only.
    last_redial: Option<Instant>,
}

impl<V: Value> Handler for NodeHandler<V> {
    fn on_event(&mut self, ev: NetEvent) {
        if let NetEvent::HttpRequest { conn, head } = &ev {
            return self.on_http(*conn, head);
        }
        match self.ctx.transport.handle_event(ev) {
            Some((_, Payload::Peer { from, to, msg })) => {
                // Only inject at pids this node really hosts; a confused
                // or hostile peer must not bounce traffic off a relay.
                let ctx = &self.ctx;
                let (from, to) = (ProcessId(from as usize), ProcessId(to as usize));
                if to.0 < ctx.pid_node.len() && ctx.pid_node[to.0] == ctx.node {
                    ctx.store.host().cluster().send_external(from, to, msg);
                }
            }
            Some((conn, Payload::Ctl(Ctl::Request { id, op }))) => self.on_request(conn, id, op),
            // A node issues no requests, so a response answers nothing.
            Some((_, Payload::Ctl(_))) | None => {}
        }
    }

    fn on_tick(&mut self) {
        let now = self.ctx.store.host().cluster().clock().now();
        for (conn, id) in expire(&mut self.pending, now) {
            let rsp = Rsp::Err {
                what: format!(
                    "operation timed out after {OP_TIMEOUT:?} (more than t objects of its group unreachable?)"
                ),
            };
            self.ctx
                .transport
                .send_ctl_on(conn, Ctl::Response { id, rsp });
        }
        if self
            .last_redial
            .is_some_and(|last| now.duration_since(last) >= REDIAL_EVERY)
        {
            self.ctx.transport.redial_down_peers();
            self.last_redial = Some(now);
        }
    }
}

fn wrote<V>(result: Result<WriteReport, InvokeError>) -> Rsp<V> {
    match result {
        Ok(report) => Rsp::Wrote {
            ts: report.ts,
            rounds: report.rounds,
        },
        Err(gone) => Rsp::Err {
            what: gone.to_string(),
        },
    }
}

fn read_ok<V>(result: Result<ReadReport<V>, InvokeError>) -> Rsp<V> {
    match result {
        Ok(report) => Rsp::ReadOk {
            value: report.value,
            ts: report.ts,
            rounds: report.rounds,
            fast: report.fast,
        },
        Err(gone) => Rsp::Err {
            what: gone.to_string(),
        },
    }
}

impl<V: Value> NodeHandler<V> {
    /// Serves one thin-client request: answered here, or submitted here
    /// and answered by its completion.
    fn on_request(&mut self, conn: ConnId, id: u64, op: Op<V>) {
        let ctx = &*self.ctx;
        let pending = &mut self.pending;
        // `Some`: answered here and now. `None`: a completion or the
        // deadline sweep answers.
        let now: Option<Rsp<V>> = match op {
            Op::Ping => Some(Rsp::Pong),
            Op::CrashPid { pid } => Some(ctx.crash(pid as usize)),
            Op::CrashShard { slot, object } => {
                let (slot, object) = (slot as usize, object as usize);
                let group = ctx.store.host().groups().get(slot);
                Some(match group.and_then(|g| g.objects.get(object)) {
                    Some(pid) => ctx.crash(pid.0),
                    None => Rsp::Err {
                        what: format!("shard {slot} / object {object} out of range"),
                    },
                })
            }
            Op::ResetPeer { node } => Some(Rsp::PeerReset {
                closed: ctx.transport.reset_peer(node),
            }),
            Op::Shutdown => {
                // Queued first, so this lane flushes it before it stops.
                let rsp = Rsp::ShuttingDown;
                ctx.transport.send_ctl_on(conn, Ctl::Response { id, rsp });
                ctx.transport.handle().shutdown();
                None
            }
            Op::WriteKey { key, value } => ctx.keyed(|s| {
                let (reply, entry) = reply_for(ctx, conn, id);
                match s.try_write_with(key, value, move |result| reply.send(wrote(result))) {
                    Ok(()) => {
                        track(pending, entry);
                        None
                    }
                    Err(StoreError::OverCapacity { capacity }) => Some(Rsp::OverCapacity {
                        capacity: capacity as u32,
                    }),
                    Err(e) => Some(Rsp::Err {
                        what: e.to_string(),
                    }),
                }
            }),
            Op::ReadKey { key, reader } => ctx.keyed(|s| {
                if reader as usize >= s.config().readers {
                    return Some(Rsp::Err {
                        what: format!("reader {reader} out of range"),
                    });
                }
                let (reply, entry) = reply_for(ctx, conn, id);
                let done = move |result| reply.send(read_ok(result));
                if s.read_with(&key, reader as usize, done) {
                    track(pending, entry);
                    None
                } else {
                    Some(Rsp::NoKey)
                }
            }),
            Op::SlotOfKey { key } => ctx.keyed(|s| {
                Some(match s.shard_of(&key) {
                    Some(slot) => Rsp::Slot { slot: slot as u32 },
                    None => Rsp::NoKey,
                })
            }),
            Op::StoreInfo => Some(Rsp::StoreInfo {
                keys: ctx.store.len() as u32,
            }),
            Op::StoreMetrics { cluster } => {
                ctx.metrics_with(cluster, move |transport, registry| {
                    let rsp = Rsp::StoreMetrics { registry };
                    transport.send_ctl_on(conn, Ctl::Response { id, rsp });
                });
                None
            }
        };
        if let Some(rsp) = now {
            ctx.transport.send_ctl_on(conn, Ctl::Response { id, rsp });
        }
    }

    /// Answers one HTTP request head: `GET /metrics` gets the Prometheus
    /// snapshot (by completion, like `StoreMetrics`), anything else a 404.
    fn on_http(&self, conn: ConnId, head: &[u8]) {
        let line = head.split(|&b| b == b'\r').next().unwrap_or(b"");
        let target = line.strip_prefix(b"GET ").unwrap_or(b"");
        let target = target.split(|&b| b == b' ').next().unwrap_or(b"");
        if target == b"/metrics" || target.starts_with(b"/metrics?") {
            self.ctx.metrics_with(None, move |transport, registry| {
                let rsp = http_response("200 OK", &registry.to_prometheus());
                transport.handle().finish(conn, rsp);
            });
        } else {
            let rsp = http_response("404 Not Found", "try GET /metrics\n");
            self.ctx.transport.handle().finish(conn, rsp);
        }
    }
}

/// One HTTP response, always `Connection: close` — the reactor drops the
/// connection after the flush.
fn http_response(status: &str, body: &str) -> Vec<u8> {
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    )
    .into_bytes()
}

impl<V: Value> ServerCtx<V> {
    /// Gathers the node's whole registry by completion — the hosted
    /// store's snapshot, history gauges labelled `cluster="<cluster>"` when
    /// given, and the transport's counters — and hands it to `answer` with
    /// the transport to answer on. Holds the transport, never the node.
    fn metrics_with(
        &self,
        cluster: Option<u32>,
        answer: impl FnOnce(&TcpTransport<V>, Registry) + Send + 'static,
    ) {
        let transport = Arc::clone(&self.transport);
        let cluster = cluster.map(|c| c as usize);
        self.store
            .host()
            .metrics_snapshot_with(cluster, move |mut reg| {
                transport.record_metrics(&mut reg);
                answer(&transport, reg);
            });
    }

    /// Crashes global pid `pid` if this node hosts it (fault injection).
    fn crash(&self, pid: usize) -> Rsp<V> {
        if self.pid_node.get(pid) != Some(&self.node) {
            return Rsp::Err {
                what: format!("pid {pid} is not hosted here"),
            };
        }
        self.store.host().cluster().crash(ProcessId(pid));
        Rsp::Crashed
    }

    /// Runs the key-index op `f` against the store, or answers the typed
    /// error naming the rule when this is not node 0, the front node.
    fn keyed(&self, f: impl FnOnce(&ShardedStore<Vec<u8>, V>) -> Option<Rsp<V>>) -> Option<Rsp<V>> {
        if self.node == 0 {
            return f(&self.store);
        }
        Some(Rsp::Err {
            what: format!(
                "key-index ops are served only by node 0, the front node hosting the writer and every reader; this is node {}",
                self.node
            ),
        })
    }
}

/// Rejects a topology `start` would index out of (this node outside
/// `addrs`, an object list that does not match the sizing) or whose
/// traffic the transport would drop silently (an object placed on a node
/// outside `addrs`: operations would hang until `OP_TIMEOUT`); a sizing
/// the writer cannot address (more than 64 objects); a topology of no
/// slot, which would serve nothing; and a Byzantine spec that names a slot
/// or an object the deployment does not have — applied as given it would
/// match no member, and a fault drill against the node would run
/// all-honest and pass.
fn check_specs<V>(node: u32, topo: &NodeTopology, ncfg: &NetNodeConfig<V>) -> io::Result<()> {
    let objects = ncfg.cfg.s;
    let invalid = |what: String| Err(io::Error::new(io::ErrorKind::InvalidInput, what));
    let nodes = topo.addrs.len();
    let mut hosts = topo.objects.iter().chain([&node]);
    if let Some(n) = hosts.find(|&&n| n as usize >= nodes) {
        return invalid(format!(
            "node {n} is outside the topology's {nodes} address(es)"
        ));
    }
    if objects > 64 {
        return invalid(format!(
            "the sizing has {objects} objects: a register group has at most 64"
        ));
    }
    if topo.objects.len() != objects {
        return invalid(format!(
            "the topology places {} objects: the sizing has {objects}",
            topo.objects.len()
        ));
    }
    if topo.slots == 0 {
        return invalid(
            "the topology has 0 slots: a node needs at least one register group".into(),
        );
    }
    for spec in &ncfg.byzantine {
        if spec.slot.is_some_and(|s| s >= topo.slots) || spec.object >= objects {
            let slot = spec.slot.map_or("all".into(), |s| s.to_string());
            return invalid(format!(
                "byzantine spec {slot}:{} names no object: the deployment has {} slot(s) of {objects} objects",
                spec.object, topo.slots
            ));
        }
    }
    Ok(())
}

/// Held while [`free_addrs`]' reservation listeners are open and across
/// [`ServerProcess::spawn`]'s fork and exec: a child forked while a
/// reservation is open would hold the reserved port until its exec, and a
/// bind of that port in between would fail with `AddrInUse`.
static RESERVING: Mutex<()> = Mutex::new(());

fn reserving() -> MutexGuard<'static, ()> {
    // It guards no data, so a panic while it was held left nothing broken.
    RESERVING.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Reserves `n` distinct localhost addresses by briefly binding port-0
/// listeners (test/example convenience; production deployments pass fixed
/// addresses). No [`ServerProcess`] is spawned while they are bound.
pub fn free_addrs(n: usize) -> io::Result<Vec<SocketAddr>> {
    let _reserving = reserving();
    let listeners: Vec<std::net::TcpListener> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<_>>()?;
    listeners.iter().map(|l| l.local_addr()).collect()
}

/// How long a spawned server may take to print a banner line.
const BANNER_TIMEOUT: Duration = Duration::from_secs(30);

/// A `vrr-server` child process, killed and reaped on drop — a failing
/// test or example cannot leave it listening (test/example convenience,
/// like [`free_addrs`]).
pub struct ServerProcess {
    child: Child,
    stdout: Option<JoinHandle<()>>,
    /// The address of its `READY` banner.
    pub addr: SocketAddr,
    /// The address of its `METRICS` banner, if it was asked for one.
    pub metrics_addr: Option<SocketAddr>,
}

impl ServerProcess {
    /// Spawns the `vrr-server` binary `bin` with `args` and waits for its
    /// `READY` banner — and for the `METRICS` one if `args` contain
    /// `--metrics-addr`.
    ///
    /// # Errors
    ///
    /// Whatever spawning reports; [`io::ErrorKind::InvalidData`] if the
    /// process exits or stays silent for 30 s instead of printing a banner,
    /// or prints something else. The child is then already killed.
    pub fn spawn(
        bin: impl AsRef<OsStr>,
        args: impl IntoIterator<Item = impl AsRef<OsStr>>,
    ) -> io::Result<ServerProcess> {
        let mut command = Command::new(bin);
        command.args(args).stdout(Stdio::piped());
        let wants_metrics = command.get_args().any(|a| a == "--metrics-addr");
        // `spawn` returns once the child has exec'd: it then holds no
        // reservation of `free_addrs`.
        let mut child = {
            let _reserving = reserving();
            command.spawn()?
        };
        // A pipe read has no deadline, so a thread does the reading; it
        // ends with the child (EOF) and is joined in `kill`.
        let pipe = child.stdout.take().expect("piped stdout");
        let (tx, lines) = std::sync::mpsc::channel();
        let stdout = std::thread::spawn(move || {
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        // A guard before the banners are read: an early return kills the
        // child on the way out.
        let mut server = ServerProcess {
            child,
            stdout: Some(stdout),
            addr: SocketAddr::from(([0, 0, 0, 0], 0)),
            metrics_addr: None,
        };
        server.addr = banner(&lines, "READY")?;
        if wants_metrics {
            server.metrics_addr = Some(banner(&lines, "METRICS")?);
        }
        Ok(server)
    }

    /// Waits for the process to exit on its own, as after a shutdown op.
    pub fn wait(&mut self) {
        self.child.wait().ok();
    }

    /// Kills the process and reaps it (idempotent).
    pub fn kill(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
        if let Some(stdout) = self.stdout.take() {
            stdout.join().ok();
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        self.kill();
    }
}

fn banner(lines: &std::sync::mpsc::Receiver<String>, tag: &str) -> io::Result<SocketAddr> {
    let invalid = |why: String| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("no {tag} banner: {why}"),
        )
    };
    let line = lines
        .recv_timeout(BANNER_TIMEOUT)
        .map_err(|e| invalid(e.to_string()))?;
    line.strip_prefix(tag)
        .and_then(|addr| addr.trim().parse().ok())
        .ok_or_else(|| invalid(format!("got {line:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `sh` stands in for `vrr-server`: only the banner protocol and the
    /// child's lifetime are under test.
    #[test]
    fn a_server_process_fails_fast_without_a_banner_and_is_reaped_on_drop() {
        let started = Instant::now();
        let err = ServerProcess::spawn("/bin/true", None::<&str>).err();
        assert_eq!(err.map(|e| e.kind()), Some(io::ErrorKind::InvalidData));
        assert!(
            started.elapsed() < BANNER_TIMEOUT / 2,
            "waited out a dead child"
        );

        let script = "echo READY 127.0.0.1:9; echo METRICS 127.0.0.1:10; exec sleep 60";
        let server = ServerProcess::spawn("/bin/sh", ["-c", script, "--metrics-addr"])
            .expect("both banners");
        assert_eq!(server.addr.port(), 9);
        assert_eq!(server.metrics_addr.map(|a| a.port()), Some(10));
        let proc_entry = format!("/proc/{}", server.child.id());
        assert!(std::path::Path::new(&proc_entry).exists());
        drop(server);
        assert!(
            !std::path::Path::new(&proc_entry).exists(),
            "child not reaped"
        );
    }

    fn entry(id: u64, deadline: Instant) -> (Pending, Arc<AtomicBool>) {
        let answered = Arc::new(AtomicBool::new(false));
        let pending = Pending {
            conn: 7,
            id,
            answered: answered.clone(),
            deadline,
        };
        (pending, answered)
    }

    /// The sweep is a function of `(queue, now)`: drive it with a made-up
    /// clock instead of waiting out real timeouts.
    #[test]
    fn sweep_times_out_exactly_the_overdue_unanswered_front() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut queue = VecDeque::new();
        let mut flags = Vec::new();
        for id in 0..5u64 {
            let (pending, answered) = entry(id, at(100 + id * 10));
            queue.push_back(pending);
            flags.push(answered);
        }

        assert!(expire(&mut queue, at(99)).is_empty(), "nothing is due yet");
        assert_eq!(queue.len(), 5);

        // Op 1 completed in the meantime; at t=115 ops 0 and 1 are overdue.
        flags[1].store(true, Ordering::SeqCst);
        assert_eq!(expire(&mut queue, at(115)), vec![(7, 0)]);
        assert_eq!(queue.len(), 3, "the answered op left the queue silently");
        // `Reply::send` finds the flag taken: op 0's completion stays silent.
        assert!(
            flags[0].swap(true, Ordering::SeqCst),
            "the sweep took op 0's reply right"
        );

        // An answered op at the front leaves before its deadline; the
        // unanswered one behind it stays until its own.
        flags[2].store(true, Ordering::SeqCst);
        assert!(expire(&mut queue, at(116)).is_empty());
        assert_eq!(queue.front().map(|p| p.id), Some(3));

        // An op answered behind an unanswered front waits there (harmless:
        // it is popped when it reaches the front).
        flags[4].store(true, Ordering::SeqCst);
        assert!(expire(&mut queue, at(129)).is_empty());
        assert_eq!(queue.len(), 2);
        assert_eq!(expire(&mut queue, at(130)), vec![(7, 3)]);
        assert!(queue.is_empty());
    }

    /// A serial client's operations are answered inside `on_request` — the
    /// lane's thread runs the idle group itself — and leave nothing behind
    /// for the sweep; a wedged one is the queue's only entry.
    #[test]
    fn pending_holds_only_what_is_still_in_flight() {
        use vrr_core::ProtocolKind;
        let cfg = StorageConfig::optimal(1, 1, 1); // S = 4, t = 1
                                                   // Port 0: a child a concurrent test spawns may hold a freed port.
        let topo = NodeTopology {
            addrs: vec![([127, 0, 0, 1], 0).into()],
            objects: vec![0; cfg.s],
            slots: 2,
        };
        let ncfg = NetNodeConfig::<u64>::new(cfg, ProtocolKind::RegularOptimized);
        // The handler without its threads: responses pile up, unread, in
        // a bound lane's command channel.
        let (_bound, ctx) = NetNode::bind(0, &topo, ncfg).expect("bind");
        let mut handler = NodeHandler {
            ctx,
            pending: VecDeque::new(),
            last_redial: None,
        };
        let key = |k: u8| vec![k];
        let read = |handler: &mut NodeHandler<u64>, id, k| {
            let (key, reader) = (key(k), 0);
            handler.on_request(7, id, Op::ReadKey { key, reader });
        };

        for k in 1..=2u8 {
            let (key, value) = (key(k), u64::from(k));
            handler.on_request(7, u64::from(k), Op::WriteKey { key, value });
        }
        // The first operations may have met the workers still starting the
        // groups; from here on the groups are idle.
        while !handler.pending.is_empty() {
            std::thread::sleep(Duration::from_millis(10));
            expire(&mut handler.pending, Instant::now());
        }
        std::thread::sleep(Duration::from_millis(10));
        for id in 10..60 {
            read(&mut handler, id, 1 + (id % 2) as u8);
            assert!(handler.pending.is_empty(), "request {id} was queued");
        }

        let store = &handler.ctx.store;
        let wedged = store.shard_of(&key(2)).expect("written");
        (0..2).for_each(|object| store.crash_object(wedged, object));
        read(&mut handler, 99, 2);
        read(&mut handler, 100, 1);
        assert_eq!(
            handler.pending.len(),
            1,
            "only the wedged read is in flight"
        );
        let now = handler.ctx.store.host().cluster().clock().now();
        assert!(expire(&mut handler.pending, now).is_empty());
        assert_eq!(expire(&mut handler.pending, now + OP_TIMEOUT), [(7, 99)]);
        assert!(handler.pending.is_empty());
    }
}

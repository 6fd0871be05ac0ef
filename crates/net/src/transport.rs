//! [`TcpTransport`]: how a relayed protocol message gets from one OS
//! process to another — envelopes framed by [`crate::frame`] over
//! reactor-owned sockets, with a per-peer connection table, `Hello`
//! handshakes, and reconnect-on-demand.
//!
//! Delivery is *lossy on reset*, exactly like the underlying network model
//! the protocols are proved against: frames queued to a peer whose
//! connection dies are dropped, not retransmitted. The protocols tolerate
//! this because a reset peer is indistinguishable from a slow or crashed
//! base object, and correctness only ever relies on `S - t` responders.

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use vrr_core::metrics::{names, Registry};
use vrr_core::wire::Wire;
use vrr_core::Msg;
use vrr_sim::ProcessId;

use crate::frame::{decode_body, encode_frame, Ctl, Envelope, Payload};
use crate::reactor::{ConnId, NetCounters, NetEvent, ReactorHandle};

/// Cap on frames buffered for a peer whose connection is still coming up.
/// Beyond it the oldest frames drop — bounded memory under a dead peer.
const PENDING_CAP: usize = 4096;

enum PeerState {
    Down,
    Connecting {
        conn: ConnId,
        pending: VecDeque<Vec<u8>>,
    },
    Up {
        conn: ConnId,
    },
}

struct PeerTable {
    /// Outbound state per node id.
    state: Vec<PeerState>,
    /// Whether the peer has ever been `Up` (for the reconnect counter).
    was_up: Vec<bool>,
    /// Every live connection we can attribute to a node — outbound ones
    /// plus inbound ones that sent a `Hello`.
    conn_node: HashMap<ConnId, u32>,
}

/// The socket transport for one node of a multi-process deployment.
pub struct TcpTransport<V> {
    node: u32,
    epoch: u32,
    addrs: Vec<SocketAddr>,
    /// Global pid → hosting node id.
    pid_node: Vec<u32>,
    handle: ReactorHandle,
    peers: Mutex<PeerTable>,
    seq: AtomicU64,
    counters: Arc<NetCounters>,
    _marker: std::marker::PhantomData<fn() -> V>,
}

impl<V: Wire> TcpTransport<V> {
    /// A transport for `node` of a topology whose node `i` listens on
    /// `addrs[i]`; `pid_node[p]` names the node hosting global pid `p`.
    pub fn new(
        node: u32,
        epoch: u32,
        addrs: Vec<SocketAddr>,
        pid_node: Vec<u32>,
        handle: ReactorHandle,
    ) -> Arc<Self> {
        let counters = handle.counters();
        Arc::new(TcpTransport {
            node,
            epoch,
            addrs: addrs.clone(),
            pid_node,
            handle,
            peers: Mutex::new(PeerTable {
                state: (0..addrs.len()).map(|_| PeerState::Down).collect(),
                was_up: vec![false; addrs.len()],
                conn_node: HashMap::new(),
            }),
            seq: AtomicU64::new(0),
            counters,
            _marker: std::marker::PhantomData,
        })
    }

    /// The reactor handle (for answering client requests directly).
    pub fn handle(&self) -> &ReactorHandle {
        &self.handle
    }

    fn envelope(&self, payload: Payload<V>) -> Vec<u8> {
        encode_frame(&Envelope {
            source: self.node,
            epoch: self.epoch,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            payload,
        })
    }

    /// Ships `msg`, sent by global pid `from`, toward global pid `to`.
    /// Fire-and-forget: delivery is asynchronous and may silently fail
    /// (the fault model the protocols already absorb).
    pub fn forward(&self, from: ProcessId, to: ProcessId, msg: Msg<V>) {
        let target = self.pid_node[to.0];
        let frame = self.envelope(Payload::Peer {
            from: from.0 as u64,
            to: to.0 as u64,
            msg,
        });
        self.send_to_node(target, frame);
    }

    /// Ships one already-built envelope frame to `target` node, dialing or
    /// buffering as the peer state requires.
    pub fn send_to_node(&self, target: u32, frame: Vec<u8>) {
        if target as usize >= self.addrs.len() {
            return;
        }
        let mut peers = self.peers.lock();
        match &mut peers.state[target as usize] {
            PeerState::Up { conn } => {
                let conn = *conn;
                drop(peers);
                self.handle.send(conn, frame);
            }
            PeerState::Connecting { pending, .. } => {
                if pending.len() >= PENDING_CAP {
                    pending.pop_front();
                }
                pending.push_back(frame);
            }
            state @ PeerState::Down => {
                let conn = self.handle.connect(self.addrs[target as usize]);
                let mut pending = VecDeque::new();
                pending.push_back(frame);
                *state = PeerState::Connecting { conn, pending };
                peers.conn_node.insert(conn, target);
            }
        }
    }

    /// Sends a thin-client-protocol message on a specific connection
    /// (servers answering requests).
    pub fn send_ctl_on(&self, conn: ConnId, ctl: Ctl<V>) {
        let frame = self.envelope(Payload::Ctl(ctl));
        self.handle.send(conn, frame);
    }

    /// Redials every peer currently `Down` (the node's reactor tick; new
    /// traffic also dials on demand).
    pub fn redial_down_peers(&self) {
        let mut peers = self.peers.lock();
        for target in 0..self.addrs.len() {
            if target as u32 == self.node {
                continue;
            }
            if matches!(peers.state[target], PeerState::Down) {
                let conn = self.handle.connect(self.addrs[target]);
                peers.state[target] = PeerState::Connecting {
                    conn,
                    pending: VecDeque::new(),
                };
                peers.conn_node.insert(conn, target as u32);
            }
        }
    }

    /// Closes every connection attributed to `node` (fault injection:
    /// a connection reset). Returns how many were closed.
    pub fn reset_peer(&self, node: u32) -> u32 {
        let mut peers = self.peers.lock();
        let conns: Vec<ConnId> = peers
            .conn_node
            .iter()
            .filter(|(_, n)| **n == node)
            .map(|(c, _)| *c)
            .collect();
        for conn in &conns {
            peers.conn_node.remove(conn);
        }
        if (node as usize) < peers.state.len() {
            peers.state[node as usize] = PeerState::Down;
        }
        drop(peers);
        for conn in &conns {
            self.handle.close(*conn);
        }
        conns.len() as u32
    }

    /// Feeds one reactor event through the transport's connection
    /// bookkeeping (on the reactor thread). `Hello`s end here; any other
    /// envelope comes back as the payload it decoded to, with the
    /// connection it arrived on, for the node's handler to act on.
    pub fn handle_event(&self, ev: NetEvent) -> Option<(ConnId, Payload<V>)> {
        match ev {
            NetEvent::Accepted { conn, .. } => {
                // Greet the peer; attribution happens when its Hello lands.
                self.send_ctl_on(
                    conn,
                    Ctl::Hello {
                        node: self.node,
                        epoch: self.epoch,
                    },
                );
                None
            }
            NetEvent::Connected { conn } => {
                self.send_ctl_on(
                    conn,
                    Ctl::Hello {
                        node: self.node,
                        epoch: self.epoch,
                    },
                );
                let mut peers = self.peers.lock();
                let &target = peers.conn_node.get(&conn)?;
                let t = target as usize;
                match std::mem::replace(&mut peers.state[t], PeerState::Down) {
                    PeerState::Connecting { conn: c, pending } if c == conn => {
                        peers.state[t] = PeerState::Up { conn };
                        if peers.was_up[t] {
                            self.counters.reconnects.fetch_add(1, Ordering::Relaxed);
                        }
                        peers.was_up[t] = true;
                        drop(peers);
                        for frame in pending {
                            self.handle.send(conn, frame);
                        }
                    }
                    other => peers.state[t] = other,
                }
                None
            }
            NetEvent::ConnectFailed { conn, .. } => {
                self.forget_conn(conn);
                None
            }
            // HTTP requests are the node's business (metrics endpoint),
            // not the frame transport's; its handler intercepts them
            // before this point.
            NetEvent::HttpRequest { .. } => None,
            NetEvent::Closed { conn } | NetEvent::FrameError { conn, .. } => {
                self.forget_conn(conn);
                None
            }
            NetEvent::Frame { conn, body } => match decode_body::<V>(&body) {
                Ok(Envelope {
                    payload: Payload::Ctl(Ctl::Hello { node, epoch: _ }),
                    ..
                }) => {
                    self.greeted_by(conn, node);
                    None
                }
                Ok(env) => Some((conn, env.payload)),
                Err(_) => {
                    // Framing was fine but the envelope is garbage: count
                    // it and drop the connection — a peer speaking the
                    // wrong protocol cannot be trusted.
                    self.counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                    self.handle.close(conn);
                    self.forget_conn(conn);
                    None
                }
            },
        }
    }

    /// Attributes `conn` to the peer `node` whose `Hello` arrived on it.
    fn greeted_by(&self, conn: ConnId, node: u32) {
        if node != crate::frame::CLIENT_NODE && (node as usize) < self.addrs.len() {
            let mut peers = self.peers.lock();
            peers.conn_node.insert(conn, node);
            // An inbound connection can carry our traffic to that peer
            // while we have no outbound one of our own.
            if matches!(peers.state[node as usize], PeerState::Down) {
                peers.state[node as usize] = PeerState::Up { conn };
                if peers.was_up[node as usize] {
                    self.counters.reconnects.fetch_add(1, Ordering::Relaxed);
                }
                peers.was_up[node as usize] = true;
            }
        }
    }

    fn forget_conn(&self, conn: ConnId) {
        let mut peers = self.peers.lock();
        if let Some(node) = peers.conn_node.remove(&conn) {
            let t = node as usize;
            let owns_state = match &peers.state[t] {
                PeerState::Up { conn: c } => *c == conn,
                PeerState::Connecting { conn: c, .. } => *c == conn,
                PeerState::Down => false,
            };
            if owns_state {
                // Queued frames die with the connection: lossy on reset.
                peers.state[t] = PeerState::Down;
            }
        }
    }

    /// Folds the transport's counters into `sink` for a metrics snapshot.
    pub fn record_metrics(&self, sink: &mut Registry) {
        let c = &self.counters;
        for (name, counter) in [
            (names::WIRE_FRAMES_SENT, &c.frames_sent),
            (names::WIRE_FRAMES_RECEIVED, &c.frames_received),
            (names::WIRE_BYTES_SENT, &c.bytes_sent),
            (names::WIRE_BYTES_RECEIVED, &c.bytes_received),
            (names::WIRE_RECONNECTS, &c.reconnects),
            (names::WIRE_DECODE_ERRORS, &c.decode_errors),
        ] {
            let count = counter.load(Ordering::Relaxed);
            sink.counter_add(name, &[("scheme", "tcp")], count);
        }
    }
}

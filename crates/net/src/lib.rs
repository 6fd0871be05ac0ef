//! # vrr-net: real sockets under the storage protocols
//!
//! Everything below `vrr-runtime` is message passing between automata, so
//! distributing a deployment across OS processes only needs a way to move
//! `Msg` values between clusters. This crate provides it:
//!
//! - [`frame`] — the wire protocol: a total, defensive codec
//!   ([`vrr_core::wire`]) wrapped in [`frame::Envelope`]s (source node,
//!   epoch, sequence number) and length-prefixed frames, plus the thin
//!   client protocol ([`frame::Ctl`] / [`frame::Op`] / [`frame::Rsp`]).
//! - an epoll reactor (via the vendored `mio` shim) of one event loop — a
//!   lane — per CPU, each pinned to its CPU and owning its sockets for good
//!   (lane 0 deals an accepted connection to the lane on the CPU it was
//!   dialed from, [`cpu`]): non-blocking accept/connect/read/write,
//!   per-connection write queues, incremental frame extraction; and on it
//!   the TCP transport: peer table, `Hello` handshakes, reconnect-on-demand,
//!   lossy-on-reset delivery.
//! - [`node`] — [`node::NetNode`]: one OS process of a deployment. Spawns
//!   the full global pid space (a [`vrr_runtime::RegisterHost`], driven by
//!   the one [`vrr_core::ProtocolSpec`] in [`node::NetNodeConfig`]) with
//!   relay stand-ins for the pids other nodes host, so `StorageCluster`-style
//!   workloads run unchanged whether members share a process or not. Node 0
//!   is every group's *front node*: it hosts the writer and every reader,
//!   the [`node::NodeTopology`] places only the objects, and the node's
//!   key-value store (router-member mode) — a key index over those same
//!   register groups — is served there, wherever the objects live.
//!   Its request path is completion-driven: the lane owning a request's
//!   connection submits what reaches an automaton
//!   ([`vrr_runtime::Cluster::submit`]) and whoever observes the outcome
//!   writes the response — no thread per request, and none besides the
//!   lanes and the worker pool.
//! - [`client`] — [`client::NetClient`]: a blocking thin client
//!   (request/response, metrics and fault-injection ops). A node's metrics
//!   leave it one way: one registry — the hosted store's snapshot, its
//!   history-length gauges included, and the transport's counters — answers [`frame::Op::StoreMetrics`] and HTTP
//!   `GET /metrics` alike, and [`client::NetClient::metrics`] renders it
//!   as Prometheus text.
//! - [`remote`] — [`remote::RemoteCluster`]: the keyed client side of a
//!   hosted store, a `ClusterBackend` a `StoreRouter` can put on its ring.
//!
//! The `vrr-server` binary wraps [`node::NetNode`] behind a CLI so the
//! objects can live in OS processes apart from the front node; see
//! `tests/multiprocess.rs` (a front node whose objects live in two other
//! processes) and `examples/dist_scaleout.rs` at the workspace root (a
//! keyed store behind a router). Both hold their servers as
//! [`ServerProcess`]es: a silent server is an error, not a hang, and a
//! failing run cannot leave one listening.
//!
//! Against a running spread deployment — say three `vrr-server`s started
//! with `--addrs 127.0.0.1:7100,127.0.0.1:7101,127.0.0.1:7102 --store 4
//! --place-objects 1,1,2,2`, one per `--node` — a client dials the front
//! node, node 0, and reads and writes
//! by key; every protocol round of those operations crosses the sockets to
//! the objects on nodes 1 and 2:
//!
//! ```no_run
//! use vrr_net::{RemoteCluster, RemoteClusterConfig};
//! use vrr_runtime::ClusterBackend;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let front: RemoteCluster<String, u64> =
//!     RemoteCluster::connect("127.0.0.1:7100".parse()?, RemoteClusterConfig::default())?;
//! let alpha = "alpha".to_string();
//! front.try_write(alpha.clone(), 7)?;
//! assert_eq!(front.read(&alpha, 0).and_then(|r| r.value), Some(7));
//! # Ok(())
//! # }
//! ```
//!
//! ## Fault model on real sockets
//!
//! TCP gives per-connection FIFO, but the transport deliberately does
//! *not* add end-to-end reliability: frames buffered for a dead peer are
//! dropped (lossy on reset), and a restarted process comes back amnesiac.
//! Both are inside the fault budget the protocols are proved against — a
//! reset or restarted base object is indistinguishable from a
//! crashed-then-silent one, and every operation waits on quorums of
//! `S - t` only. The transport-fault test battery in `tests/` checks
//! exactly this: under kill+restart, connection resets and Byzantine
//! objects, every completed read is still checker-verified regular.

#![warn(missing_docs)]

pub mod client;
pub mod cpu;
pub mod frame;
pub mod node;
mod reactor;
pub mod remote;
mod transport;

pub use client::{ClientError, NetClient, RetryPolicy};
pub use frame::{Ctl, Envelope, FrameError, FrameReader, Op, Payload, Rsp, MAX_FRAME_LEN};
pub use node::{free_addrs, ByzSpec, NetNode, NetNodeConfig, NodeTopology, ServerProcess};
pub use reactor::TICK;
pub use remote::{RemoteCluster, RemoteClusterConfig};

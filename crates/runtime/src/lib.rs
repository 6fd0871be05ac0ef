//! # vrr-runtime: the storage protocols on threads
//!
//! A message-passing runtime hosting the *same* automata that run under
//! the deterministic simulator (`vrr-sim`). The unit of execution is a
//! register group — its automata, their mail and a local run queue behind
//! a run lock — which any thread may run, one at a time. A pass over it is
//! *drain → run → flush*: the mail changes hands wholesale (a **sweep**),
//! the automata step lock-free, messages that stay inside the group go
//! onto its local run queue and the rest are handed over with one lock
//! acquisition per destination worker. A fixed pool of worker threads,
//! each home to the groups of `(pid / span) % workers`, runs what nobody
//! else does. Link delay and loss are injected by a [`LinkPolicy`]; delayed
//! messages park in the home worker's timer heap, so an idle cluster
//! blocks on condvars — zero wakeups — instead of polling.
//!
//! A client operation is one mailed command ([`Cluster::submit`]): its
//! runner invokes it, polls for the outcome after each step of that
//! automaton, and fires the caller's completion — an invocation event,
//! message deliveries and a response event, never a parked thread. The
//! runner is the **submitting thread** whenever the group is idle, so a
//! READ's rounds finish inside `submit` with no thread hand-off at all;
//! the group's home worker is the fallback (see [`Cluster::submit`] for
//! where the completion runs). A process runs one operation at a time, in
//! submission order.
//!
//! **One host, three views.** A [`RegisterHost`] owns a cluster, `slots`
//! register groups (each with its own writer, base objects and readers)
//! and the meter of the operations it starts; it is the only code that
//! spawns a group, starts a READ or WRITE
//! ([`RegisterHost::read_with`] / [`RegisterHost::write_with`], with
//! blocking [`RegisterHost::read`] / [`RegisterHost::write`] waiting on
//! the same completion) or inspects histories and fast-path counters —
//! by one rule: ask every process, skip what is gone or is not the
//! automaton asked for ([`Cluster::try_invoke`] reports a type mismatch
//! without running anything). Everything else is a view of it:
//! [`StorageCluster`], the paper's single register, is slot 0 of a
//! one-slot host; [`ShardedStore`] is a key→slot index over a
//! `capacity`-slot host, giving key-value workloads true multi-key
//! parallelism; `vrr-net`'s node is a host whose members placed in other
//! OS processes are relay stand-ins. One level up,
//! [`StoreRouter`] partitions the key space across *multiple independent*
//! clusters through a seeded-hash [`RingTable`] — deterministic,
//! directory-free routing with live cluster add/remove (rebalance stays
//! regular while absorbing crash + Byzantine faults per register group).
//! A router's cluster is anything implementing [`ClusterBackend`]: the
//! in-process [`ShardedStore`], or `vrr-net`'s `RemoteCluster` driving a
//! store hosted by a `vrr-server` in another OS process — one ring spans
//! heterogeneous backends.
//!
//! Every deploy entry point takes a [`ProtocolSpec`] (a bare
//! [`ProtocolKind`] converts into the paper-faithful one) and spawns its
//! register groups through [`RegisterHost::spawn`]. Long-running regular
//! deployments should pair the §5.1 suffix transfers with reader-ack
//! history GC —
//! `ProtocolSpec::from(ProtocolKind::RegularOptimized).with_retention(HistoryRetention::reader_ack())`,
//! see [`ProtocolSpec::with_retention`] and
//! [`vrr_core::regular::HistoryRetention::reader_ack`]
//! — so object memory is bounded by reader concurrency instead of run
//! length; the safety argument lives in the [`vrr_core::regular`] module
//! docs, and the `vrr_object_history_len` gauges of a metrics snapshot
//! expose the observable both deployments are tested on.
//!
//! Use the simulator for correctness experiments (replayable adversarial
//! schedules) and this runtime for wall-clock benchmarks and the networked
//! examples — the protocol code is identical in both.
//!
//! ```
//! use vrr_runtime::{StorageCluster, ProtocolKind, NoDelay};
//! use vrr_core::StorageConfig;
//!
//! let cfg = StorageConfig::optimal(1, 1, 1); // S = 4 objects
//! let storage: StorageCluster<String> =
//!     StorageCluster::deploy(cfg, ProtocolKind::Regular, Box::new(NoDelay));
//! storage.write("hello".to_string());
//! assert_eq!(storage.read(0).value.as_deref(), Some("hello"));
//! ```

#![warn(missing_docs)]

mod backend;
mod cluster;
mod executor;
mod host;
mod link;
mod ring;
mod scaleout;
mod shard;
mod sharded;
mod storage;

pub use backend::ClusterBackend;
pub use cluster::{Cluster, InvokeError, NodeGone};
pub use executor::ExecutorStats;
pub use host::{RegisterHost, OP_TIMEOUT};
pub use link::{FixedDelay, LinkAction, LinkPolicy, NoDelay};
pub use ring::{stable_hash_64, RingTable, StableHasher};
pub use scaleout::{RouterConfig, StoreRouter};
pub use shard::{ShardedStore, StoreError};
pub use storage::StorageCluster;
pub use vrr_core::{ProtocolKind, ProtocolSpec};

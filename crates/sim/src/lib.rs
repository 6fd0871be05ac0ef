//! # vrr-sim: deterministic asynchronous message-passing simulation
//!
//! The substrate under every correctness experiment in the `vrr` workspace:
//! a discrete-event simulator for the distributed-system model of
//! *Guerraoui & Vukolić, "How Fast Can a Very Robust Read Be?" (PODC 2006)*,
//! §2 — asynchronous reliable point-to-point channels between clients and
//! base objects, up to `t` faulty objects of which up to `b` are malicious.
//!
//! Design goals, in order:
//!
//! 1. **Determinism.** Runs are a pure function of the world construction and
//!    the RNG seed. Every adversarial interleaving found once can be replayed.
//! 2. **Schedule adversariality.** One [`World`] holds arbitrary sets of
//!    messages "in transit" (its [`Adversary`]'s link rules, and partitions,
//!    which outrank every link rule), crashes processes mid-protocol and
//!    substitutes Byzantine automata — enough power to express the exact
//!    run constructions of the paper's Figure 1.
//! 3. **Model fidelity.** Automata never see the global clock (§2: processes
//!    "have an asynchronous perception of their environment"), messages
//!    between correct processes are never lost, and crashed processes stop
//!    taking steps.
//!
//! ## Quick tour
//!
//! ```
//! use vrr_sim::{World, SimMessage, from_fn, Context};
//!
//! #[derive(Clone, Debug)]
//! enum Msg { Query, Reply(u64) }
//! impl SimMessage for Msg {
//!     fn wire_size(&self) -> usize { 9 }
//! }
//!
//! let mut world: World<Msg> = World::new(7);
//! let object = world.spawn_named("object", from_fn(|from, msg: Msg, ctx| {
//!     if matches!(msg, Msg::Query) {
//!         ctx.send(from, Msg::Reply(1));
//!     }
//! }));
//! let client = world.spawn_named("client", from_fn(|_, _msg: Msg, _| {}));
//! world.start();
//! world.send_external(client, object, Msg::Query);
//! world.run_until_idle(1_000).expect_drained();
//! assert_eq!(world.net_stats().delivered, 2);
//! ```
//!
//! Faults are scripted on the same world and fire from the same queue as
//! the messages — partitions with later heals, timed crashes, seeded
//! reordering links ([`World::reorder`]); the same seed and the same calls
//! replay byte-identically:
//!
//! ```
//! use vrr_sim::{from_fn, SimMessage, SimTime, World};
//!
//! #[derive(Clone, Debug)]
//! struct Ping;
//! impl SimMessage for Ping {
//!     fn wire_size(&self) -> usize { 1 }
//! }
//!
//! let mut world: World<Ping> = World::new(42);
//! let a = world.spawn_named("a", from_fn(|from, _m: Ping, ctx| ctx.send(from, Ping)));
//! let b = world.spawn_named("b", from_fn(|_, _m: Ping, _ctx| {}));
//! world.start();
//! world.partition(vec![vec![a], vec![b]]);
//! world.heal_at(SimTime::from_ticks(10));
//! world.crash_at(b, SimTime::from_ticks(50));
//! world.send_external(b, a, Ping); // held until the heal
//! world.run_until_idle(1_000).expect_drained();
//! assert_eq!(world.net_stats().delivered, 2); // the ping at t = 11, its echo at 12
//! assert_eq!(world.fault_stats().crashes, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod adversary;
mod byzantine;
mod envelope;
mod latency;
mod process;
mod time;
mod trace;
mod world;

pub use adversary::{Action, Adversary, RuleId};
pub use byzantine::{from_fn, Mute, Tamper};
pub use envelope::{Envelope, MsgId};
pub use latency::{Fixed, LatencyModel, LongTail, Uniform};
pub use process::{Automaton, Context, ProcessId, ProcessStatus, SimMessage};
pub use time::SimTime;
pub use trace::{FaultStats, NetStats, Trace, TraceEvent, TraceEventKind};
pub use world::{Quiescence, World};

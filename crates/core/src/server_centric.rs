//! The server-centric model of §6: base objects as first-class servers.
//!
//! §6 relaxes the data-centric restriction that objects "cannot communicate
//! among each other, nor send messages to clients other than in reply":
//! servers may gossip and push. The paper shows the 2-round read lower
//! bound *survives* this upgrade (replayed executably in `vrr-lowerbound`
//! and the `sec6_server_centric` experiment); this module provides the
//! constructive side — a relay wrapper that uses the server-centric power
//! for **write dissemination**: every writer message a server receives is
//! forwarded once to its peers, so servers the writer's messages missed
//! (slow links, transient partitions) catch up without client involvement.
//!
//! Relaying changes no client-visible semantics: the inner automata's
//! monotonicity guards make duplicate and reordered writer messages
//! harmless, and servers ignore the stray acks their peers send back. What
//! it buys is freshness: after a write, *every* correct server converges to
//! the written state as soon as any copy of the message reaches any correct
//! server — which shortens the window in which reads depend on the slowest
//! `t` links, and keeps §5.1 suffix histories complete on laggards.

use vrr_sim::{Automaton, Context, ProcessId};

use crate::msg::Msg;
use crate::types::{Timestamp, Value};

/// A server-centric wrapper: runs `inner` unchanged and relays each new
/// writer round (`PW`/`W`, identified by timestamp) to the peer servers
/// exactly once.
#[derive(Debug)]
pub struct RelayObject<A> {
    inner: A,
    peers: Vec<ProcessId>,
    relayed_pw: Timestamp,
    relayed_w: Timestamp,
}

impl<A> RelayObject<A> {
    /// Wraps `inner`; `peers` are the other servers (the wrapper filters
    /// out its own id at send time, so passing the full object list is
    /// fine).
    pub fn new(inner: A, peers: Vec<ProcessId>) -> Self {
        RelayObject {
            inner,
            peers,
            relayed_pw: Timestamp::ZERO,
            relayed_w: Timestamp::ZERO,
        }
    }

    /// The wrapped automaton.
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<V: Value, A: Automaton<Msg<V>>> Automaton<Msg<V>> for RelayObject<A> {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg<V>>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: Msg<V>, ctx: &mut Context<'_, Msg<V>>) {
        // Relay BEFORE processing: the forwarded copy is byte-identical to
        // what we received, regardless of how the inner automaton reacts.
        let me = ctx.me();
        match &msg {
            Msg::Pw { ts, .. } if *ts > self.relayed_pw => {
                self.relayed_pw = *ts;
                for &p in &self.peers {
                    if p != me && p != from {
                        ctx.send(p, msg.clone());
                    }
                }
            }
            Msg::W { ts, .. } if *ts > self.relayed_w => {
                self.relayed_w = *ts;
                for &p in &self.peers {
                    if p != me && p != from {
                        ctx.send(p, msg.clone());
                    }
                }
            }
            _ => {}
        }
        self.inner.on_message(from, msg, ctx);
    }

    fn label(&self) -> &'static str {
        "relay-object"
    }
}

#[cfg(test)]
mod tests {
    use vrr_sim::{Action, World};

    use super::*;
    use crate::group::ProtocolKind;
    use crate::regular::RegularObject;
    use crate::safe::SafeObject;
    use crate::scenario::StorageScenario;
    use crate::StorageConfig;

    /// Safe storage whose objects are relay-wrapped, substituted before any
    /// message flows; the writer and readers are the plain safe protocol's.
    fn deploy_relayed(cfg: StorageConfig) -> StorageScenario<u64, ProtocolKind> {
        let mut sc = StorageScenario::deploy(ProtocolKind::Safe, cfg, 2);
        let peers = sc.dep().objects.clone();
        for i in 0..cfg.s {
            let relay = RelayObject::new(SafeObject::<u64>::new(), peers.clone());
            sc.byzantine_object(i, Box::new(relay));
        }
        sc
    }

    #[test]
    fn relayed_storage_behaves_like_plain_storage() {
        let mut sc = deploy_relayed(StorageConfig::optimal(1, 1, 1));
        for k in 1..=4u64 {
            let w = sc.write(k * 5);
            assert_eq!(w.rounds, 2);
            let r = sc.read(0);
            assert_eq!(r.value, Some(k * 5));
            assert_eq!(r.rounds, 2, "relaying must not change client round counts");
        }
    }

    #[test]
    fn laggard_catches_up_through_peers() {
        // The writer's messages to object 3 are dropped entirely; in the
        // data-centric model it would stay ignorant forever. With relays,
        // its peers forward the write.
        let mut sc = deploy_relayed(StorageConfig::optimal(1, 1, 1)); // S = 4
        let (laggard, writer) = (sc.object(3), sc.writer());
        sc.world_mut()
            .adversary_mut()
            .install("drop writer->s3", move |e| {
                (e.from == writer && e.to == laggard).then_some(Action::Drop)
            });

        sc.write(77u64);
        sc.world_mut().run_until_idle(100_000).expect_drained();

        sc.world()
            .inspect(laggard, |o: &RelayObject<SafeObject<u64>>| {
                assert_eq!(o.inner().ts(), crate::Timestamp(1), "caught up via gossip");
                assert_eq!(o.inner().pw().value, Some(77));
            });
    }

    #[test]
    fn relays_forward_each_round_once() {
        // Without dedup, S servers re-forwarding each other's forwards
        // would ring forever; with it, each server sends at most S−2
        // copies per round. Measure actual traffic for one write.
        let mut sc = deploy_relayed(StorageConfig::optimal(1, 1, 1)); // S = 4
        sc.write(9u64);
        let q = sc.world_mut().run_until_idle(100_000);
        assert!(q.drained, "gossip must terminate (per-round dedup)");
        // Upper bound: writer sends 2 rounds × 4 + each of 4 servers
        // relays each round to ≤ 3 peers (once) + acks. Just assert the
        // global message count is small and the run drained.
        let sent = sc.world().net_stats().sent;
        assert!(sent < 120, "relay traffic exploded: {sent}");
    }

    #[test]
    fn regular_objects_can_be_relayed_too() {
        let mut world: World<Msg<u64>> = World::new(2);
        let peers: Vec<ProcessId> = (0..2).map(ProcessId).collect();
        let a = world.spawn_named(
            "a",
            Box::new(RelayObject::new(RegularObject::<u64>::new(), peers.clone())),
        );
        let b = world.spawn_named(
            "b",
            Box::new(RelayObject::new(RegularObject::<u64>::new(), peers)),
        );
        let client = world.spawn_named("c", vrr_sim::from_fn(|_, _: Msg<u64>, _| {}));
        world.start();
        // Send a PW to `a` only; `b` must learn it by relay.
        world.send_external(
            client,
            a,
            Msg::Pw {
                ts: Timestamp(1),
                pw: crate::TsVal::new(Timestamp(1), 5u64),
                w: crate::WTuple::initial(),
            },
        );
        world.run_until_idle(10_000).expect_drained();
        world.inspect(b, |o: &RelayObject<RegularObject<u64>>| {
            assert_eq!(o.inner().ts(), Timestamp(1));
        });
    }
}

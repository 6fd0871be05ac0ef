//! The one quorum client of the three baselines (see the crate docs) and
//! its one driver: [`LiteWriter`], [`LiteReader`] over a [`LiteRule`], and
//! [`RegisterProtocol`] written once for every [`LiteProtocol`].

use std::collections::{BTreeSet, HashMap};

use vrr_sim::{Automaton, Context, ProcessId, World};

use vrr_core::{
    Deployment, ReadReport, RegisterProtocol, StorageConfig, Timestamp, TsVal, Value, WriteReport,
};

use crate::lite::{LiteMsg, LiteObject};
use crate::{AbdProtocol, MaskingProtocol, PassiveProtocol};

/// One `S − t` collection: a request broadcast to every object, and each
/// object's first answer to it counted. Anything else — a repeat, an ack to
/// an earlier request, a sender that is not an object — is not.
struct Round<V> {
    objects: Vec<ProcessId>,
    object_index: HashMap<ProcessId, usize>,
    quorum: usize,
    request: Option<LiteMsg<V>>,
    answered: BTreeSet<usize>,
}

impl<V: Value> Round<V> {
    fn new(cfg: StorageConfig, objects: Vec<ProcessId>) -> Self {
        assert_eq!(objects.len(), cfg.s);
        let object_index = objects.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        Round {
            objects,
            object_index,
            quorum: cfg.quorum(),
            request: None,
            answered: BTreeSet::new(),
        }
    }

    fn open(&mut self, request: LiteMsg<V>, ctx: &mut Context<'_, LiteMsg<V>>) {
        self.answered.clear();
        ctx.broadcast(self.objects.iter().copied(), request.clone());
        self.request = Some(request);
    }

    /// The index of the object `msg` is from, if it counts.
    fn count(&mut self, from: ProcessId, msg: &LiteMsg<V>) -> Option<usize> {
        let object = *self.object_index.get(&from)?;
        let counts = msg.answers(self.request.as_ref()?) && self.answered.insert(object);
        counts.then_some(object)
    }

    fn complete(&self) -> bool {
        self.answered.len() >= self.quorum
    }
}

/// The baseline writer: one timestamped broadcast round per phase.
pub(crate) struct LiteWriter<V> {
    round: Round<V>,
    /// The requests of one WRITE of a pair, in order.
    phases: fn(TsVal<V>) -> Vec<LiteMsg<V>>,
    ts: Timestamp,
    /// The WRITE in flight: op token, its requests, index of the one open.
    in_flight: Option<(u64, Vec<LiteMsg<V>>, usize)>,
    outcomes: HashMap<u64, WriteReport>,
    next_op: u64,
}

impl<V: Value> LiteWriter<V> {
    /// A writer whose WRITEs go through `P`'s phases.
    pub fn new<P: LiteProtocol>(cfg: StorageConfig, objects: Vec<ProcessId>) -> Self {
        LiteWriter {
            round: Round::new(cfg, objects),
            phases: P::write_phases,
            ts: Timestamp::ZERO,
            in_flight: None,
            outcomes: HashMap::new(),
            next_op: 0,
        }
    }

    /// Starts `WRITE(value)`; panics if one is in flight.
    pub fn invoke_write(&mut self, value: V, ctx: &mut Context<'_, LiteMsg<V>>) -> u64 {
        assert!(self.in_flight.is_none(), "one WRITE at a time");
        let op = self.next_op;
        self.next_op += 1;
        self.ts = self.ts.next();
        let requests = (self.phases)(TsVal::new(self.ts, value));
        self.round.open(requests[0].clone(), ctx);
        self.in_flight = Some((op, requests, 0));
        op
    }

    /// The report for write `op`, if complete.
    pub fn outcome(&self, op: u64) -> Option<&WriteReport> {
        self.outcomes.get(&op)
    }
}

impl<V: Value> Automaton<LiteMsg<V>> for LiteWriter<V> {
    fn on_message(&mut self, from: ProcessId, msg: LiteMsg<V>, ctx: &mut Context<'_, LiteMsg<V>>) {
        let Some((op, requests, phase)) = self.in_flight.as_mut() else {
            return;
        };
        if self.round.count(from, &msg).is_none() || !self.round.complete() {
            return;
        }
        *phase += 1;
        match requests.get(*phase) {
            Some(next) => self.round.open(next.clone(), ctx),
            None => {
                let report = WriteReport {
                    ts: self.ts,
                    rounds: requests.len() as u32,
                };
                self.outcomes.insert(*op, report);
                self.in_flight = None;
            }
        }
    }
}

/// What a read rule makes of a round once `S − t` objects answered it.
#[derive(Debug)]
pub(crate) enum Verdict<V> {
    /// The READ returns this pair.
    Return(TsVal<V>),
    /// Write this pair back to a quorum (one more round), then return it.
    WriteBack(TsVal<V>),
    /// Undecided: keep collecting replies of the same round.
    KeepCollecting,
    /// Undecided: query every object again under a fresh nonce.
    NextRound,
}

/// What distinguishes one baseline reader from another: the evidence it
/// keeps from the replies of one READ and the verdict it reaches on them.
/// A reader holds the rule as configured for its deployment and starts
/// every READ on a clone of it.
pub(crate) trait LiteRule<V: Value>: Clone + Send + 'static {
    /// Takes in `object`'s reply to round `round` (1-based), its first.
    fn absorb(&mut self, object: usize, round: u32, pw: TsVal<V>, w: TsVal<V>);

    /// Called when the `S − t`-th object answered round `round`, and after
    /// every further reply to it.
    fn decide(&mut self, round: u32) -> Verdict<V>;
}

struct ReadOp<V, R> {
    id: u64,
    /// Rounds opened so far, the one collecting included.
    rounds: u32,
    rule: R,
    /// The pair being written back, once the rule asked for that.
    write_back: Option<TsVal<V>>,
}

/// The baseline reader: query rounds under fresh nonces until the rule
/// `R` decides, then the optional write-back round.
pub(crate) struct LiteReader<V, R> {
    round: Round<V>,
    rule: R,
    nonce: u64,
    op: Option<ReadOp<V, R>>,
    outcomes: HashMap<u64, ReadReport<V>>,
    next_op: u64,
}

impl<V: Value, R: LiteRule<V>> LiteReader<V, R> {
    /// A reader deciding by `rule`.
    pub fn new(cfg: StorageConfig, objects: Vec<ProcessId>, rule: R) -> Self {
        LiteReader {
            round: Round::new(cfg, objects),
            rule,
            nonce: 0,
            op: None,
            outcomes: HashMap::new(),
            next_op: 0,
        }
    }

    /// Starts a READ; panics if one is in flight.
    pub fn invoke_read(&mut self, ctx: &mut Context<'_, LiteMsg<V>>) -> u64 {
        assert!(self.op.is_none(), "one READ at a time");
        let id = self.next_op;
        self.next_op += 1;
        self.op = Some(ReadOp {
            id,
            rounds: 1,
            rule: self.rule.clone(),
            write_back: None,
        });
        self.nonce += 1;
        self.round.open(LiteMsg::Read { nonce: self.nonce }, ctx);
        id
    }

    /// The report for read `op`, if complete.
    pub fn outcome(&self, op: u64) -> Option<&ReadReport<V>> {
        self.outcomes.get(&op)
    }
}

impl<V: Value, R: LiteRule<V>> Automaton<LiteMsg<V>> for LiteReader<V, R> {
    fn on_message(&mut self, from: ProcessId, msg: LiteMsg<V>, ctx: &mut Context<'_, LiteMsg<V>>) {
        let Some(op) = self.op.as_mut() else {
            return;
        };
        let Some(object) = self.round.count(from, &msg) else {
            return;
        };
        if let LiteMsg::ReadAck { pw, w, .. } = msg {
            op.rule.absorb(object, op.rounds, pw, w);
        }
        if !self.round.complete() {
            return;
        }
        let verdict = match op.write_back.take() {
            Some(pair) => Verdict::Return(pair),
            None => op.rule.decide(op.rounds),
        };
        match verdict {
            Verdict::Return(pair) => {
                let report = ReadReport {
                    value: pair.value,
                    ts: pair.ts,
                    rounds: op.rounds,
                    fast: op.rounds == 1,
                };
                self.outcomes.insert(op.id, report);
                self.op = None;
            }
            Verdict::WriteBack(pair) => {
                op.rounds += 1;
                self.round.open(LiteMsg::Write { pair: pair.clone() }, ctx);
                op.write_back = Some(pair);
            }
            Verdict::NextRound => {
                op.rounds += 1;
                self.nonce += 1;
                self.round.open(LiteMsg::Read { nonce: self.nonce }, ctx);
            }
            Verdict::KeepCollecting => {}
        }
    }
}

/// A baseline as the driver sees it: a name, the phases of its writer and
/// the rule of its readers.
pub(crate) trait LiteProtocol: Copy {
    type Rule<V: Value>: LiteRule<V>;

    fn name(&self) -> &'static str;

    /// The requests of one WRITE of `pair`, in order: unless overridden,
    /// the single `Write` round of ABD and masking quorums.
    fn write_phases<V: Value>(pair: TsVal<V>) -> Vec<LiteMsg<V>> {
        vec![LiteMsg::Write { pair }]
    }

    /// The readers' rule in a deployment sized `cfg`; panics on a sizing
    /// the protocol is unsound at.
    fn rule<V: Value>(&self, cfg: StorageConfig) -> Self::Rule<V>;

    /// `LiteObject`s, one [`LiteWriter`] and `cfg.readers` [`LiteReader`]s.
    fn deploy<V: Value>(&self, cfg: StorageConfig, world: &mut World<LiteMsg<V>>) -> Deployment {
        let rule = self.rule::<V>(cfg);
        let objects: Vec<ProcessId> = (0..cfg.s)
            .map(|i| world.spawn_named(format!("s{i}"), Box::new(LiteObject::<V>::new())))
            .collect();
        let writer = LiteWriter::<V>::new::<Self>(cfg, objects.clone());
        let writer = world.spawn_named("writer", Box::new(writer));
        let readers = (0..cfg.readers)
            .map(|j| {
                let reader = LiteReader::new(cfg, objects.clone(), rule.clone());
                world.spawn_named(format!("r{j}"), Box::new(reader))
            })
            .collect();
        Deployment {
            cfg,
            objects,
            writer,
            readers,
        }
    }
}

type Reader<V, P> = LiteReader<V, <P as LiteProtocol>::Rule<V>>;

/// The five driver methods, once. A macro over the three protocol types
/// because a blanket `impl<P: LiteProtocol> RegisterProtocol<V> for P` of
/// the foreign trait is not ours to write.
macro_rules! drive_with_the_lite_client {
    ($($protocol:ty),*) => {$(
        impl<V: Value> RegisterProtocol<V> for $protocol {
            type Msg = LiteMsg<V>;

            fn name(&self) -> &'static str {
                LiteProtocol::name(self)
            }

            fn deploy(&self, cfg: StorageConfig, world: &mut World<LiteMsg<V>>) -> Deployment {
                LiteProtocol::deploy(self, cfg, world)
            }

            fn invoke_write(
                &self,
                dep: &Deployment,
                world: &mut World<LiteMsg<V>>,
                value: V,
            ) -> u64 {
                world.with_automaton_mut(dep.writer, |w: &mut LiteWriter<V>, ctx| {
                    w.invoke_write(value, ctx)
                })
            }

            fn write_outcome(
                &self,
                dep: &Deployment,
                world: &World<LiteMsg<V>>,
                op: u64,
            ) -> Option<WriteReport> {
                world.inspect(dep.writer, |w: &LiteWriter<V>| w.outcome(op).copied())
            }

            fn invoke_read(
                &self,
                dep: &Deployment,
                world: &mut World<LiteMsg<V>>,
                reader: usize,
            ) -> u64 {
                world.with_automaton_mut(dep.readers[reader], |r: &mut Reader<V, Self>, ctx| {
                    r.invoke_read(ctx)
                })
            }

            fn read_outcome(
                &self,
                dep: &Deployment,
                world: &World<LiteMsg<V>>,
                reader: usize,
                op: u64,
            ) -> Option<ReadReport<V>> {
                world.inspect(dep.readers[reader], |r: &Reader<V, Self>| {
                    r.outcome(op).cloned()
                })
            }
        }
    )*};
}

drive_with_the_lite_client!(AbdProtocol, MaskingProtocol, PassiveProtocol);

#[cfg(test)]
mod tests {
    use vrr_core::StorageScenario;

    use super::*;

    const T: usize = 2;
    const B: usize = 1;
    const CLIENT: ProcessId = ProcessId(99);

    /// A baseline under test; the object count it is deployed at for
    /// `(T, B)` travels with it.
    trait Case: LiteProtocol + RegisterProtocol<u64, Msg = LiteMsg<u64>> {}
    impl<P: LiteProtocol + RegisterProtocol<u64, Msg = LiteMsg<u64>>> Case for P {}

    fn deploy<P: Case>(p: P, s: usize) -> StorageScenario<u64, P> {
        StorageScenario::deploy(p, StorageConfig::with_objects(s, T, B, 1), 3)
    }

    fn fresh_read_returns_bottom_in_one_round<P: Case>(p: P, s: usize) {
        let rd = deploy(p, s).read(0);
        assert_eq!((rd.value, rd.rounds), (None, 1));
    }

    fn t_crashes_cost_neither_the_value_nor_a_round<P: Case>(p: P, s: usize) {
        let mut quiet = deploy(p, s);
        quiet.write(7);
        let mut sc = deploy(p, s);
        sc.crash_object(0).crash_object(s - 1);
        sc.write(7);
        let rd = sc.read(0);
        assert_eq!(rd.value, Some(7));
        assert_eq!(rd.rounds, quiet.read(0).rounds);
    }

    fn one_write_at_a_time<P: Case>(p: P, s: usize) {
        let mut sc = deploy(p, s);
        sc.start_write(1);
        sc.start_write(2);
    }

    fn one_read_at_a_time<P: Case>(p: P, s: usize) {
        let mut sc = deploy(p, s);
        sc.start_read(0);
        sc.start_read(0);
    }

    type Outbox = Vec<(ProcessId, LiteMsg<u64>)>;

    fn step(a: &mut impl Automaton<LiteMsg<u64>>, from: ProcessId, msg: LiteMsg<u64>) -> Outbox {
        let mut out = Vec::new();
        a.on_message(from, msg, &mut Context::new(CLIENT, &mut out));
        out
    }

    /// Acks a client must not count, `S − t` of them ahead of every round's
    /// honest ones.
    #[derive(Clone, Copy)]
    enum Noise {
        /// Object 0's ack to this round, over and over.
        Repeated,
        /// Distinct objects' acks to the client's previous request.
        Stale,
        /// This round's acks, from processes that are not objects.
        Stranger,
    }

    /// Carries one operation of `client` to its end by hand: each round's
    /// request (`sent`, at first what the invocation broadcast) is answered
    /// by `noise`, which must change nothing, then by honest objects
    /// `0..S − t`, the last of which must close the round and no earlier one.
    /// `rounds` reads the finished operation's report.
    fn carry<A: Automaton<LiteMsg<u64>>>(
        client: &mut A,
        objects: &mut [LiteObject<u64>],
        mut sent: Outbox,
        noise: Noise,
        previous: &mut Option<LiteMsg<u64>>,
        rounds: impl Fn(&A) -> Option<u32>,
    ) {
        let (s, quorum) = (objects.len(), objects.len() - T);
        let answer = |objects: &mut [LiteObject<u64>], i: usize, request: &LiteMsg<u64>| {
            step(&mut objects[i], CLIENT, request.clone()).remove(0).1
        };
        let mut carried = 0;
        while let Some((_, request)) = sent.first().cloned() {
            assert_eq!(sent.len(), s, "a round goes to every object");
            carried += 1;
            for i in 0..quorum {
                let (from, ack) = match (noise, &*previous) {
                    (Noise::Repeated, _) => (0, answer(objects, 0, &request)),
                    (Noise::Stale, Some(earlier)) => (i, answer(objects, i, earlier)),
                    (Noise::Stale, None) => continue,
                    (Noise::Stranger, _) => (s + i, answer(objects, i, &request)),
                };
                assert!(step(client, ProcessId(from), ack).is_empty());
            }
            sent.clear();
            for i in 0..quorum {
                assert!(sent.is_empty() && rounds(client).is_none(), "closed early");
                let ack = answer(objects, i, &request);
                sent = step(client, ProcessId(i), ack);
            }
            *previous = Some(request);
        }
        assert_eq!(rounds(client), Some(carried));
    }

    /// Two WRITE/READ pairs by hand (so that even the first round of the
    /// second has an earlier request to be confused with), under `noise`.
    fn ignores<P: Case>(p: P, s: usize, noise: Noise) {
        let cfg = StorageConfig::with_objects(s, T, B, 1);
        let pids: Vec<ProcessId> = (0..s).map(ProcessId).collect();
        let mut objects = vec![LiteObject::new(); s];
        let mut writer = LiteWriter::new::<P>(cfg, pids.clone());
        let mut reader = LiteReader::new(cfg, pids, p.rule::<u64>(cfg));
        let (mut last_write, mut last_read) = (None, None);
        for value in [7, 8] {
            let mut sent = Vec::new();
            let op = writer.invoke_write(value, &mut Context::new(CLIENT, &mut sent));
            carry(
                &mut writer,
                &mut objects,
                sent,
                noise,
                &mut last_write,
                |w| w.outcome(op).map(|report| report.rounds),
            );
            let mut sent = Vec::new();
            let op = reader.invoke_read(&mut Context::new(CLIENT, &mut sent));
            carry(
                &mut reader,
                &mut objects,
                sent,
                noise,
                &mut last_read,
                |r| {
                    let report = r.outcome(op)?;
                    assert_eq!(report.value, Some(value));
                    Some(report.rounds)
                },
            );
        }
    }

    fn a_repeated_ack_counts_once<P: Case>(p: P, s: usize) {
        ignores(p, s, Noise::Repeated);
    }

    fn an_ack_to_an_earlier_request_is_ignored<P: Case>(p: P, s: usize) {
        ignores(p, s, Noise::Stale);
    }

    fn an_ack_from_a_stranger_is_ignored<P: Case>(p: P, s: usize) {
        ignores(p, s, Noise::Stranger);
    }

    /// Instantiates every generic client test per rule (ABD in both modes:
    /// only the atomic one has a write-back round to confuse).
    macro_rules! over_the_three_rules {
        ($($(#[$attr:meta])* $name:ident),* $(,)?) => {
            over_the_three_rules!(@ abd: AbdProtocol { atomic: false }, 2 * T + 1; $($(#[$attr])* $name),*);
            over_the_three_rules!(@ abd_atomic: AbdProtocol { atomic: true }, 2 * T + 1; $($(#[$attr])* $name),*);
            over_the_three_rules!(@ masking: MaskingProtocol, 2 * T + 2 * B + 1; $($(#[$attr])* $name),*);
            over_the_three_rules!(@ passive: PassiveProtocol, 2 * T + B + 1; $($(#[$attr])* $name),*);
        };
        (@ $case:ident: $protocol:expr, $s:expr; $($(#[$attr:meta])* $name:ident),*) => {
            mod $case {
                use super::*;
                $(#[test] $(#[$attr])* fn $name() { super::$name($protocol, $s) })*
            }
        };
    }

    over_the_three_rules! {
        fresh_read_returns_bottom_in_one_round,
        t_crashes_cost_neither_the_value_nor_a_round,
        #[should_panic(expected = "one WRITE at a time")]
        one_write_at_a_time,
        #[should_panic(expected = "one READ at a time")]
        one_read_at_a_time,
        a_repeated_ack_counts_once,
        an_ack_to_an_earlier_request_is_ignored,
        an_ack_from_a_stranger_is_ignored,
    }
}

//! The one quorum client of the three baselines (see the crate docs) and
//! its one driver: [`LiteWriter`], [`LiteReader`] over a [`LiteRule`], and
//! [`RegisterProtocol`] written once for every [`LiteProtocol`].

use std::collections::{BTreeSet, HashMap};

use vrr_sim::{Automaton, ClientOp, Context, InvokeError, ProcessId};

use vrr_core::{
    Deployment, GroupRole, ReadReport, RegisterProtocol, StorageConfig, Timestamp, TsVal, Value,
    WriteReport,
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
    /// The WRITE in flight: its requests, index of the one open.
    in_flight: Option<(Vec<LiteMsg<V>>, usize)>,
    /// The report of the last WRITE, until taken.
    outcome: Option<WriteReport>,
}

impl<V: Value> LiteWriter<V> {
    /// A writer whose WRITEs go through `P`'s phases.
    pub fn new<P: LiteProtocol>(cfg: StorageConfig, objects: Vec<ProcessId>) -> Self {
        LiteWriter {
            round: Round::new(cfg, objects),
            phases: P::write_phases,
            ts: Timestamp::ZERO,
            in_flight: None,
            outcome: None,
        }
    }

    /// Starts `WRITE(value)`; panics if one is in flight.
    pub fn invoke_write(&mut self, value: V, ctx: &mut Context<'_, LiteMsg<V>>) {
        assert!(self.in_flight.is_none(), "one WRITE at a time");
        self.ts = self.ts.next();
        let requests = (self.phases)(TsVal::new(self.ts, value));
        self.round.open(requests[0].clone(), ctx);
        self.in_flight = Some((requests, 0));
    }

    /// The report of the WRITE that completed last, if not taken yet.
    pub fn take_outcome(&mut self) -> Option<WriteReport> {
        self.outcome.take()
    }
}

impl<V: Value> Automaton<LiteMsg<V>> for LiteWriter<V> {
    fn on_message(&mut self, from: ProcessId, msg: LiteMsg<V>, ctx: &mut Context<'_, LiteMsg<V>>) {
        let Some((requests, phase)) = self.in_flight.as_mut() else {
            return;
        };
        if self.round.count(from, &msg).is_none() || !self.round.complete() {
            return;
        }
        *phase += 1;
        match requests.get(*phase) {
            Some(next) => self.round.open(next.clone(), ctx),
            None => {
                self.outcome = Some(WriteReport {
                    ts: self.ts,
                    rounds: requests.len() as u32,
                });
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
    /// The report of the last READ, until taken.
    outcome: Option<ReadReport<V>>,
}

impl<V: Value, R: LiteRule<V>> LiteReader<V, R> {
    /// A reader deciding by `rule`.
    pub fn new(cfg: StorageConfig, objects: Vec<ProcessId>, rule: R) -> Self {
        LiteReader {
            round: Round::new(cfg, objects),
            rule,
            nonce: 0,
            op: None,
            outcome: None,
        }
    }

    /// Starts a READ; panics if one is in flight.
    pub fn invoke_read(&mut self, ctx: &mut Context<'_, LiteMsg<V>>) {
        assert!(self.op.is_none(), "one READ at a time");
        self.op = Some(ReadOp {
            rounds: 1,
            rule: self.rule.clone(),
            write_back: None,
        });
        self.nonce += 1;
        self.round.open(LiteMsg::Read { nonce: self.nonce }, ctx);
    }

    /// The report of the READ that completed last, if not taken yet.
    pub fn take_outcome(&mut self) -> Option<ReadReport<V>> {
        self.outcome.take()
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
                self.outcome = Some(ReadReport {
                    value: pair.value,
                    ts: pair.ts,
                    rounds: op.rounds,
                    fast: op.rounds == 1,
                });
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
}

type Reader<V, P> = LiteReader<V, <P as LiteProtocol>::Rule<V>>;

/// The four driver methods, once. A macro over the three protocol types
/// because a blanket `impl<P: LiteProtocol> RegisterProtocol<V> for P` of
/// the foreign trait is not ours to write.
macro_rules! drive_with_the_lite_client {
    ($($protocol:ty),*) => {$(
        impl<V: Value> RegisterProtocol<V> for $protocol {
            type Msg = LiteMsg<V>;

            fn name(&self) -> &'static str {
                LiteProtocol::name(self)
            }

            /// `LiteObject`s, one `LiteWriter` and `cfg.readers`
            /// `LiteReader`s.
            fn deploy(
                &self,
                cfg: StorageConfig,
                mut spawn: impl FnMut(GroupRole, Box<dyn Automaton<LiteMsg<V>>>) -> ProcessId,
            ) -> Deployment {
                let rule = self.rule::<V>(cfg);
                let objects: Vec<ProcessId> = (0..cfg.s)
                    .map(|i| spawn(GroupRole::Object(i), Box::new(LiteObject::<V>::new())))
                    .collect();
                let writer = LiteWriter::<V>::new::<Self>(cfg, objects.clone());
                let writer = spawn(GroupRole::Writer, Box::new(writer));
                let readers = (0..cfg.readers)
                    .map(|j| {
                        let reader = LiteReader::new(cfg, objects.clone(), rule.clone());
                        spawn(GroupRole::Reader(j), Box::new(reader))
                    })
                    .collect();
                Deployment {
                    cfg,
                    objects,
                    writer,
                    readers,
                }
            }

            fn write_op(
                &self,
                dep: &Deployment,
                value: V,
                done: impl FnOnce(Result<WriteReport, InvokeError>) + Send + 'static,
            ) -> ClientOp<LiteMsg<V>> {
                ClientOp::new(
                    dep.writer,
                    move |w: &mut LiteWriter<V>, ctx| w.invoke_write(value, ctx),
                    |w: &mut LiteWriter<V>, _| w.take_outcome(),
                    done,
                )
            }

            fn read_op(
                &self,
                dep: &Deployment,
                reader: usize,
                done: impl FnOnce(Result<ReadReport<V>, InvokeError>) + Send + 'static,
            ) -> ClientOp<LiteMsg<V>> {
                ClientOp::new(
                    dep.readers[reader],
                    |r: &mut Reader<V, Self>, ctx| r.invoke_read(ctx),
                    |r: &mut Reader<V, Self>, _| r.take_outcome(),
                    done,
                )
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

    /// A WRITE started on the busy writer waits for the one in progress:
    /// it is still pending when the first completes, then completes after.
    fn one_write_at_a_time<P: Case>(p: P, s: usize) {
        let mut sc = deploy(p, s);
        let (first, second) = (sc.start_write(1), sc.start_write(2));
        while first.poll().is_none() {
            assert!(sc.world_mut().step());
        }
        assert!(second.poll().is_none(), "started after the first");
        sc.world_mut().run_until_idle(10_000).expect_drained();
        assert_eq!(second.poll().unwrap().ts, Timestamp(2));
    }

    /// Two READs started together at one reader run one after the other.
    fn one_read_at_a_time<P: Case>(p: P, s: usize) {
        let mut sc = deploy(p, s);
        let (first, second) = (sc.start_read(0), sc.start_read(0));
        while first.poll().is_none() {
            assert!(sc.world_mut().step());
        }
        assert!(second.poll().is_none(), "started after the first");
        sc.world_mut().run_until_idle(10_000).expect_drained();
        assert_eq!(second.poll().unwrap().value, None);
    }

    /// Under the queue, the lite clients still refuse an overlapping
    /// invocation themselves.
    fn a_second_invoke_write_panics<P: Case>(_: P, s: usize) {
        let cfg = StorageConfig::with_objects(s, T, B, 1);
        let mut writer = LiteWriter::new::<P>(cfg, (0..s).map(ProcessId).collect());
        let mut sent = Vec::new();
        for value in [1u64, 2] {
            writer.invoke_write(value, &mut Context::new(CLIENT, &mut sent));
        }
    }

    fn a_second_invoke_read_panics<P: Case>(p: P, s: usize) {
        let cfg = StorageConfig::with_objects(s, T, B, 1);
        let objects = (0..s).map(ProcessId).collect();
        let mut reader = LiteReader::new(cfg, objects, p.rule::<u64>(cfg));
        let mut sent = Vec::new();
        for _ in 0..2 {
            reader.invoke_read(&mut Context::new(CLIENT, &mut sent));
        }
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
        mut rounds: impl FnMut(&mut A) -> Option<u32>,
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
            writer.invoke_write(value, &mut Context::new(CLIENT, &mut sent));
            carry(
                &mut writer,
                &mut objects,
                sent,
                noise,
                &mut last_write,
                |w| w.take_outcome().map(|report| report.rounds),
            );
            let mut sent = Vec::new();
            reader.invoke_read(&mut Context::new(CLIENT, &mut sent));
            carry(
                &mut reader,
                &mut objects,
                sent,
                noise,
                &mut last_read,
                |r| {
                    let report = r.take_outcome()?;
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
        one_write_at_a_time,
        one_read_at_a_time,
        #[should_panic(expected = "one WRITE at a time")]
        a_second_invoke_write_panics,
        #[should_panic(expected = "one READ at a time")]
        a_second_invoke_read_panics,
        a_repeated_ack_counts_once,
        an_ack_to_an_earlier_request_is_ignored,
        an_ack_from_a_stranger_is_ignored,
    }
}

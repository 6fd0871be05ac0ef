//! Behaviour pin for the baseline clients: one fixed contended run per
//! protocol and fault mix, compared with what the same run printed before
//! the three writer/reader pairs became one client.
//!
//! A line is the protocol name and the network totals followed by every
//! operation in completion order — `w<seq>:<rounds>@<tick>` or
//! `r<reader>=<value>/<ts>:<rounds>@<tick>` — so a reordered broadcast, a
//! differently counted ack or a moved round transition shows up as a
//! shifted tick even where values and round counts survive it.

use vrr_baselines::{
    masking_object_count, serial_forger, AbdProtocol, LiteMsg, MaskingProtocol, PassiveProtocol,
};
use vrr_checker::OpKind;
use vrr_core::{Deployment, ReadReport, RegisterProtocol, StorageConfig, WriteReport};
use vrr_sim::{SimTime, World};
use vrr_workload::{FaultPlan, LatencyKind, ScheduleParams, SimCase};

const T: usize = 2;
const B: usize = 1;
const READERS: usize = 2;

/// `P` with its first `cfg.b` objects replaced by ranked
/// [`serial_forger`]s (the baselines have no attacker catalogue a
/// [`FaultPlan`] could name).
#[derive(Clone)]
struct Forged<P>(P);

impl<P: RegisterProtocol<u64, Msg = LiteMsg<u64>>> RegisterProtocol<u64> for Forged<P> {
    type Msg = LiteMsg<u64>;

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn deploy(&self, cfg: StorageConfig, world: &mut World<LiteMsg<u64>>) -> Deployment {
        let dep = self.0.deploy(cfg, world);
        for rank in 1..=cfg.b as u64 {
            world.set_byzantine(
                dep.objects[rank as usize - 1],
                serial_forger(rank, 900 + rank),
            );
        }
        dep
    }

    fn invoke_write(&self, dep: &Deployment, world: &mut World<LiteMsg<u64>>, value: u64) -> u64 {
        self.0.invoke_write(dep, world, value)
    }

    fn write_outcome(
        &self,
        dep: &Deployment,
        world: &World<LiteMsg<u64>>,
        op: u64,
    ) -> Option<WriteReport> {
        self.0.write_outcome(dep, world, op)
    }

    fn invoke_read(&self, dep: &Deployment, world: &mut World<LiteMsg<u64>>, reader: usize) -> u64 {
        self.0.invoke_read(dep, world, reader)
    }

    fn read_outcome(
        &self,
        dep: &Deployment,
        world: &World<LiteMsg<u64>>,
        reader: usize,
        op: u64,
    ) -> Option<ReadReport<u64>> {
        self.0.read_outcome(dep, world, reader, op)
    }
}

fn fingerprint<P: RegisterProtocol<u64> + Clone>(
    protocol: P,
    s: usize,
    faults: FaultPlan,
) -> String {
    let cfg = StorageConfig::with_objects(s, T, B, READERS);
    let out = SimCase::new(&protocol, cfg)
        .schedule(ScheduleParams::contended(4, 4, READERS, 0x51DE))
        .faults(faults)
        .latency(LatencyKind::LongTail)
        .run();
    assert!(out.all_live(), "{}: stalled operations", protocol.name());
    let (mut writes, mut reads) = (out.write_rounds.iter(), out.read_rounds.iter());
    let mut line = format!(
        "{} sent={} bytes={}",
        protocol.name(),
        out.net.sent,
        out.net.bytes_sent
    );
    for rec in out.history.ops() {
        let at = rec.completed_at.expect("all live");
        line += &match &rec.kind {
            OpKind::Write { seq, .. } => format!(" w{seq}:{}@{at}", writes.next().unwrap()),
            OpKind::Read { reader, seq, value } => {
                let value = value.map_or("_".into(), |v| v.to_string());
                format!(" r{reader}={value}/{seq}:{}@{at}", reads.next().unwrap())
            }
        };
    }
    line
}

/// Fault-free, `t` crashes (one before the run, one in the middle of it),
/// `b` serial forgers.
fn three_runs<P: RegisterProtocol<u64, Msg = LiteMsg<u64>> + Clone>(
    protocol: P,
    s: usize,
) -> [String; 3] {
    let crashes = FaultPlan {
        crashes: vec![(1, SimTime::ZERO), (s - 1, SimTime::from_ticks(25))],
        byzantine: Vec::new(),
    };
    [
        fingerprint(protocol.clone(), s, FaultPlan::none()),
        fingerprint(protocol.clone(), s, crashes),
        fingerprint(Forged(protocol), s, FaultPlan::none()),
    ]
}

/// Recorded at the parent commit (three writer/reader pairs), seed `0x51DE`.
#[rustfmt::skip]
const PINS: [[&str; 3]; 4] = [
    [
        "abd sent=118 bytes=2326 r1=_/0:1@8 w1:1@11 r0=10/1:1@12 w2:1@13 r1=10/1:1@34 r0=30/3:1@35 r0=30/3:1@37 r0=30/3:1@39 r1=30/3:1@40 w3:1@45 w4:1@47 r1=40/4:1@59",
        "abd sent=101 bytes=1869 r1=_/0:1@8 w1:1@11 r0=10/1:1@12 w2:1@32 r1=10/1:1@34 r1=30/3:1@59 r1=30/3:1@68 w3:1@69 r0=30/3:1@95 r0=40/4:1@97 r0=40/4:1@123 w4:1@135",
        "abd sent=118 bytes=2342 r1=_/0:1@8 w1:1@11 r0=901/9223372036854775808:1@12 w2:1@13 r1=901/9223372036854775808:1@34 r0=30/3:1@35 r0=901/9223372036854775808:1@37 r0=901/9223372036854775808:1@39 r1=30/3:1@40 w3:1@45 w4:1@47 r1=40/4:1@59",
    ],
    [
        "abd-atomic sent=184 bytes=3200 r1=_/0:1@8 w1:1@11 w2:1@13 w3:1@26 w4:1@28 r0=10/1:2@49 r1=10/1:2@57 r1=40/4:2@61 r1=40/4:2@65 r0=40/4:2@68 r0=40/4:2@72 r0=40/4:2@76",
        "abd-atomic sent=157 bytes=2653 r1=_/0:1@8 w1:1@11 w2:1@13 r0=10/1:2@43 w3:1@50 w4:1@52 r1=10/1:2@59 r1=40/4:2@112 r0=30/3:2@115 r0=40/4:2@147 r1=40/4:2@185 r0=40/4:2@192",
        "abd-atomic sent=182 bytes=3198 r1=_/0:1@8 w1:1@11 w2:1@13 w3:1@26 w4:1@28 r0=901/9223372036854775808:2@49 r1=901/9223372036854775808:2@57 r0=901/9223372036854775808:2@60 r1=901/9223372036854775808:2@61 r0=901/9223372036854775808:2@68 r1=901/9223372036854775808:2@68 r0=901/9223372036854775808:2@72",
    ],
    [
        "masking-fast sent=168 bytes=3400 r1=_/0:1@8 w1:1@11 w2:1@24 w3:1@33 w4:1@35 r1=10/1:1@36 r0=10/1:1@41 r0=40/4:1@43 r0=40/4:1@45 r0=40/4:1@47 r1=40/4:1@55 r1=40/4:1@88",
        "masking-fast sent=149 bytes=2829 r1=_/0:1@8 w1:1@11 w2:1@35 r0=10/1:1@41 r1=10/1:1@48 w3:1@48 r1=30/3:1@50 r0=30/3:1@90 r1=40/4:1@93 w4:1@99 r0=40/4:1@130 r0=40/4:1@191",
        "masking-fast sent=168 bytes=3416 r1=_/0:1@8 w1:1@11 w2:1@24 w3:1@33 w4:1@35 r1=10/1:1@36 r0=10/1:1@41 r0=40/4:1@43 r0=40/4:1@45 r0=40/4:1@47 r1=40/4:1@55 r1=40/4:1@88",
    ],
    [
        "passive-b+1 sent=192 bytes=3352 r1=_/0:1@8 r0=10/1:1@12 r1=10/1:1@13 r1=10/1:1@30 r1=10/1:1@32 r0=10/1:1@46 w1:2@59 w2:2@63 r0=10/1:1@65 r0=30/3:1@67 w3:2@98 w4:2@143",
        "passive-b+1 sent=163 bytes=2763 r1=_/0:1@8 r0=10/1:1@12 r1=10/1:1@42 w1:2@61 r1=10/1:1@62 r0=10/1:1@73 r1=20/2:1@86 w2:2@86 r0=20/2:1@99 r0=30/3:1@129 w3:2@159 w4:2@220",
        "passive-b+1 sent=272 bytes=5392 r1=_/0:2@10 r0=10/1:1@12 r0=10/1:1@26 w1:2@35 w2:2@39 w3:2@43 r1=40/4:3@57 r1=40/4:2@74 w4:2@74 r0=40/4:2@74 r1=40/4:2@78 r0=40/4:2@82",
    ],
];

#[test]
fn every_baseline_run_is_what_it_was_before_the_merge() {
    let now = [
        three_runs(AbdProtocol { atomic: false }, 2 * T + 1),
        three_runs(AbdProtocol { atomic: true }, 2 * T + 1),
        three_runs(MaskingProtocol, masking_object_count(T, B)),
        three_runs(PassiveProtocol, 2 * T + B + 1),
    ];
    for (now, pinned) in now.iter().zip(&PINS) {
        assert_eq!(now, pinned, "faults: none, t crashes, b forgers");
    }
}

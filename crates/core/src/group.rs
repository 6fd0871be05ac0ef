//! One description of a register group, and the one routine that spawns it.
//!
//! The paper studies a single object: a SWMR register emulated by
//! `S = 2t + b + 1` base objects, one writer and `R` readers. *Which*
//! automata make up such a group — protocol variant, object-side history
//! retention, whether readers write back (atomic reads), reader tuning — is
//! a [`ProtocolSpec`], and a [`ProtocolKind`] names each variant at the
//! paper's defaults: there is no other way to say which protocol a
//! deployment runs. *In which order* they come to life is [`spawn_group`].
//! Two harnesses consume these: the simulator's
//! [`RegisterProtocol`](crate::RegisterProtocol) impl (which only
//! [`StorageScenario`](crate::StorageScenario) drives), and
//! `vrr-runtime`'s `RegisterHost::spawn` — the one host that
//! `StorageCluster`, `ShardedStore` and `vrr-net`'s `NetNode` (both
//! hosting modes) are views of. Nothing else knows what a register group
//! consists of.

use std::fmt;

use vrr_sim::{Automaton, ProcessId};

use crate::attackers::AttackerKind;
use crate::config::StorageConfig;
use crate::msg::Msg;
use crate::reader::ReaderTuning;
use crate::regular::{HistoryRetention, RegularObject, RegularReader};
use crate::safe::{SafeObject, SafeReader};
use crate::types::Value;
use crate::writer::Writer;

/// Which of the paper's protocols a register group runs, at the paper's
/// defaults. Converts into the [`ProtocolSpec`] every deploy entry point
/// takes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProtocolKind {
    /// §4 safe storage (Figures 2–4).
    Safe,
    /// §5 regular storage, full histories (Figures 2, 5, 6).
    Regular,
    /// §5.1 optimized regular storage (suffix histories + reader cache).
    RegularOptimized,
    /// SWMR **atomic** storage (extension): §5 regular storage whose
    /// readers write the tuple they selected back to `S − t` objects before
    /// returning it — the ABD write-back over the paper's candidate
    /// machinery, one more round-trip per READ. The paper targets
    /// safe/regular semantics because that is where two rounds are optimal;
    /// this kind prices what regularity buys: reads return in at most two
    /// rounds *because* they may invert under concurrency
    /// ([`crate::reader`]).
    Atomic,
}

/// Everything that decides which automata make up a register group:
/// the protocol variant, the history retention of regular objects (living
/// on the variant it applies to), and the one [`ReaderTuning`] both
/// variants' readers run.
///
/// `ProtocolKind::X.into()` is the deployed default of each variant
/// (keep-all histories, [`ReaderTuning::default`]): a READ returns on round
/// 1 whenever round 1 proves its answer, and sends READ2 otherwise.
/// [`ProtocolSpec::figures`] is the same variant with the figures' reader
/// ([`ReaderTuning::FIGURES`]), which the paper's tables run. Other tunings
/// are for mutation experiments only.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProtocolSpec {
    /// §4 safe storage; every reader runs this tuning.
    Safe(ReaderTuning),
    /// §5 regular storage.
    Regular {
        /// Run the §5.1 optimization (suffix histories + reader cache).
        optimized: bool,
        /// Readers write the selected tuple back before returning it:
        /// atomic reads, three rounds ([`ProtocolKind::Atomic`]). Composes
        /// with §5.1 and with every retention. Safe objects do not answer
        /// a write-back, so [`ProtocolSpec::Safe`] has no such field.
        write_back: bool,
        /// Object-side history retention (extension; the paper keeps all).
        /// `ProtocolKind::RegularOptimized` with
        /// `HistoryRetention::reader_ack()` is the bounded-memory
        /// production configuration: suffix transfers bound message size,
        /// reader-ack GC bounds object memory.
        retention: HistoryRetention,
        /// Every reader runs this tuning.
        tuning: ReaderTuning,
    },
}

impl From<ProtocolKind> for ProtocolSpec {
    fn from(kind: ProtocolKind) -> Self {
        match kind {
            ProtocolKind::Safe => ProtocolSpec::Safe(ReaderTuning::default()),
            ProtocolKind::Regular | ProtocolKind::RegularOptimized | ProtocolKind::Atomic => {
                ProtocolSpec::Regular {
                    optimized: kind == ProtocolKind::RegularOptimized,
                    write_back: kind == ProtocolKind::Atomic,
                    retention: HistoryRetention::KeepAll,
                    tuning: ReaderTuning::default(),
                }
            }
        }
    }
}

impl ProtocolSpec {
    /// The protocol variant this spec deploys (a spec that writes back is
    /// [`ProtocolKind::Atomic`] with or without §5.1).
    pub fn kind(&self) -> ProtocolKind {
        match self {
            ProtocolSpec::Safe(_) => ProtocolKind::Safe,
            ProtocolSpec::Regular {
                write_back: true, ..
            } => ProtocolKind::Atomic,
            ProtocolSpec::Regular {
                optimized: true, ..
            } => ProtocolKind::RegularOptimized,
            ProtocolSpec::Regular { .. } => ProtocolKind::Regular,
        }
    }

    /// Short display name (`"safe"`, `"regular"`, `"regular-opt"`,
    /// `"atomic"`).
    pub fn name(&self) -> &'static str {
        match self.kind() {
            ProtocolKind::Safe => "safe",
            ProtocolKind::Regular => "regular",
            ProtocolKind::RegularOptimized => "regular-opt",
            ProtocolKind::Atomic => "atomic",
        }
    }

    /// `kind` with the figures' reader ([`ReaderTuning::FIGURES`]): what
    /// the experiment tables deploy.
    pub fn figures(kind: ProtocolKind) -> Self {
        let mut spec = ProtocolSpec::from(kind);
        match &mut spec {
            ProtocolSpec::Safe(tuning) | ProtocolSpec::Regular { tuning, .. } => {
                *tuning = ReaderTuning::FIGURES;
            }
        }
        spec
    }

    /// This spec with regular objects running `retention`. Safe objects
    /// keep no history, so on [`ProtocolSpec::Safe`] this changes nothing.
    #[must_use]
    pub fn with_retention(mut self, retention: HistoryRetention) -> Self {
        if let ProtocolSpec::Regular { retention: r, .. } = &mut self {
            *r = retention;
        }
        self
    }

    /// Attacker `kind` from the catalogue, speaking this protocol's
    /// dialect and forging `forged` where the attack calls for a fake
    /// value.
    pub fn attacker<V: Value>(
        &self,
        kind: AttackerKind,
        cfg: StorageConfig,
        forged: V,
    ) -> Box<dyn Automaton<Msg<V>>> {
        match self {
            ProtocolSpec::Safe(_) => kind.build_safe(cfg, forged),
            ProtocolSpec::Regular { .. } => kind.build_regular(cfg, forged),
        }
    }
}

/// One member slot of a register group, in the canonical spawn order every
/// deployment uses: objects `0..cfg.s`, then the writer, then readers
/// `0..cfg.readers`. Hosts hand out dense ids in spawn order, so this
/// fixes the pid layout of a group — which is what lets independently
/// started OS processes (`vrr-net` nodes) agree on a global pid space by
/// replaying the same spawn sequence.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GroupRole {
    /// Base object `s_i`.
    Object(usize),
    /// The single writer.
    Writer,
    /// Reader `r_j`.
    Reader(usize),
}

impl GroupRole {
    /// Position of this member in the spawn order of its group (the
    /// inverse of [`group_member`]).
    pub fn index(self, cfg: StorageConfig) -> usize {
        match self {
            GroupRole::Object(i) => i,
            GroupRole::Writer => cfg.s,
            GroupRole::Reader(j) => cfg.s + 1 + j,
        }
    }
}

/// The process name of the member (`s3`, `writer`, `r0`) — what simulator
/// traces and panics call it.
impl fmt::Display for GroupRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupRole::Object(i) => write!(f, "s{i}"),
            GroupRole::Writer => write!(f, "writer"),
            GroupRole::Reader(j) => write!(f, "r{j}"),
        }
    }
}

/// Number of processes one register group occupies: `cfg.s` objects, one
/// writer, `cfg.readers` readers.
pub fn group_span(cfg: StorageConfig) -> usize {
    cfg.s + 1 + cfg.readers
}

/// The [`GroupRole`] of the `idx`-th spawned member of a group.
///
/// # Panics
///
/// Panics if `idx >= group_span(cfg)`.
pub fn group_member(cfg: StorageConfig, idx: usize) -> GroupRole {
    if idx < cfg.s {
        GroupRole::Object(idx)
    } else if idx == cfg.s {
        GroupRole::Writer
    } else if idx < group_span(cfg) {
        GroupRole::Reader(idx - cfg.s - 1)
    } else {
        panic!(
            "member index {idx} out of range for a group of {}",
            group_span(cfg)
        )
    }
}

/// Process ids of one spawned register group.
#[derive(Clone, Debug)]
pub struct Deployment {
    /// The sizing this group was built with.
    pub cfg: StorageConfig,
    /// The `S` base objects, in index order.
    pub objects: Vec<ProcessId>,
    /// The single writer.
    pub writer: ProcessId,
    /// The `R` readers, in index order.
    pub readers: Vec<ProcessId>,
}

/// Spawns the automata of one register group in the canonical order
/// ([`GroupRole`]): each member is handed to `spawn`, the host's way of
/// bringing an automaton to life (a simulator world, a worker-pool
/// cluster), which returns the id it got.
///
/// `substitute` may replace the automaton of any member — the hook for
/// Byzantine objects and for `vrr-net`'s relay stand-ins when a member
/// lives in a different OS process. It sees the object ids spawned
/// so far (all `S` of them by the time the writer and readers come up);
/// returning `None` deploys the honest automaton `spec` calls for.
pub fn spawn_group<V: Value>(
    cfg: StorageConfig,
    spec: ProtocolSpec,
    mut spawn: impl FnMut(GroupRole, Box<dyn Automaton<Msg<V>>>) -> ProcessId,
    mut substitute: impl FnMut(GroupRole, &[ProcessId]) -> Option<Box<dyn Automaton<Msg<V>>>>,
) -> Deployment {
    let mut objects = Vec::with_capacity(cfg.s);
    for i in 0..cfg.s {
        let role = GroupRole::Object(i);
        let automaton = substitute(role, &objects).unwrap_or_else(|| match spec {
            ProtocolSpec::Safe(_) => Box::new(SafeObject::<V>::new()),
            ProtocolSpec::Regular { retention, .. } => {
                Box::new(RegularObject::<V>::with_retention(retention, cfg.readers))
            }
        });
        objects.push(spawn(role, automaton));
    }
    let automaton = substitute(GroupRole::Writer, &objects)
        .unwrap_or_else(|| Box::new(Writer::<V>::new(cfg, objects.clone())));
    let writer = spawn(GroupRole::Writer, automaton);
    let readers = (0..cfg.readers)
        .map(|j| {
            let role = GroupRole::Reader(j);
            let automaton = substitute(role, &objects).unwrap_or_else(|| match spec {
                ProtocolSpec::Safe(tuning) => Box::new(SafeReader::<V>::with_tuning(
                    cfg,
                    j,
                    objects.clone(),
                    tuning,
                )),
                ProtocolSpec::Regular {
                    optimized,
                    write_back,
                    tuning,
                    ..
                } => Box::new(RegularReader::<V>::with_tuning(
                    cfg,
                    j,
                    objects.clone(),
                    optimized,
                    write_back,
                    tuning,
                )),
            });
            spawn(role, automaton)
        })
        .collect();
    Deployment {
        cfg,
        objects,
        writer,
        readers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_through_the_spec() {
        for kind in [
            ProtocolKind::Safe,
            ProtocolKind::Regular,
            ProtocolKind::RegularOptimized,
            ProtocolKind::Atomic,
        ] {
            assert_eq!(ProtocolSpec::from(kind).kind(), kind);
        }
    }

    #[test]
    fn roles_enumerate_the_spawn_order() {
        let cfg = StorageConfig::optimal(1, 1, 2);
        let names: Vec<String> = (0..group_span(cfg))
            .map(|idx| {
                let role = group_member(cfg, idx);
                assert_eq!(role.index(cfg), idx);
                role.to_string()
            })
            .collect();
        assert_eq!(names, ["s0", "s1", "s2", "s3", "writer", "r0", "r1"]);
    }
}

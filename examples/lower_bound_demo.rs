//! The impossibility, narrated: why a very robust read cannot be fast.
//!
//! Walks through the paper's Figure-1 construction step by step against a
//! concrete single-round read rule, printing what each run looks like and
//! where safety snaps. Then adds one object and shows the trap no longer
//! closes.
//!
//! Run with `cargo run --example lower_bound_demo`.

use vrr::lowerbound::{
    execute_control, execute_prop1, render_all, BlockPartition, LitePairSpec, ReadRule, Verdict,
};
use vrr_core::attackers::AttackerKind;
use vrr_core::metrics::{names, Registry};
use vrr_core::regular::HistoryRetention;
use vrr_core::{ReadReport, ReaderTuning, StorageConfig, StorageScenario};
use vrr_runtime::{NoDelay, ProtocolKind, ProtocolSpec, StorageCluster};

fn main() {
    let (t, b) = (1usize, 1usize);
    let s = 2 * t + 2 * b;
    println!("Setting: t = {t} faulty, b = {b} Byzantine, S = 2t+2b = {s} objects.");
    println!("Blocks: T1 = {{s0}}, T2 = {{s1}}, B1 = {{s2}}, B2 = {{s3}} (Figure 1).\n");
    println!("{}", render_all(&BlockPartition::new(s, t, b)));

    println!("run1: the reader's round-1 message reaches only B1, which replies");
    println!("      from its initial state σ0 (becoming σ1); the reply stays in transit.");
    println!("run2: the writer writes v1 = 42; every message to T1 stays in transit,");
    println!("      so the write completes on B1, B2, T2 — B2 ends in state σ2.");
    println!("run3: the read resumes; T2 is slow. The reader decides from:");
    println!("      B1's pre-write reply, T1's σ0 reply, B2's σ2 reply.");
    println!("run4: same view, but the write REALLY finished first and B1 is lying");
    println!("      (it forged σ1 early and σ0 late). Safety demands the read return 42.");
    println!("run5: same view, but NOTHING was written and B2 is lying (it forged σ2).");
    println!("      Safety demands the read return ⊥.\n");

    let spec = LitePairSpec::new(s, t, b, ReadRule::Masking);
    let report = execute_prop1(&spec, b, 42u64);
    println!("The reader's actual view (object -> (pw, w)):");
    for (obj, (pw, w)) in &report.view {
        println!("      s{obj}: pw = {pw:?}, w = {w:?}");
    }
    match &report.verdict {
        Verdict::Violation {
            returned,
            run4_violated,
            run5_violated,
        } => {
            let shown = match returned {
                Some(v) => format!("{v}"),
                None => "⊥".into(),
            };
            println!("\nThe b+1-corroboration rule returns {shown} on this view — once.");
            if *run4_violated {
                println!("=> run4 is violated: the completed write of 42 is invisible.");
            }
            if *run5_violated {
                println!("=> run5 is violated: a never-written value is returned.");
            }
            println!("Whatever a fast read answers here, one of the runs convicts it. ∎");
        }
        Verdict::NotFast => println!("(the rule refused to answer — then it is not fast)"),
    }

    // The escape hatch: one more object.
    let s1 = s + 1;
    let spec = LitePairSpec::new(s1, t, b, ReadRule::Masking);
    let control = execute_control(&spec, b, 42u64);
    println!("\nNow with S = 2t+2b+1 = {s1}: the extra correct object joins both views,");
    println!("and the views stop being identical:");
    println!(
        "      run4 view size {} vs run5 view size {} — and they differ in content.",
        control.view_run4.len(),
        control.view_run5.len()
    );
    println!(
        "      the same rule answers run4 -> {:?}, run5 -> {:?}: both correct.",
        control.returned_run4.unwrap(),
        control.returned_run5.unwrap()
    );
    assert!(control.is_safe());
    println!("\nConclusion: at S ≤ 2t+2b a read needs a second round-trip on this view —");
    println!("which is exactly what the paper's §4 algorithm spends, and no more.");

    // ── What the production reader does at the boundary ─────────────────
    //
    // Proposition 1 forbids a read rule that *always* answers in one round
    // at S = 2t+2b. It does not forbid answering in one round when round 1
    // already proves the answer. Four readers, side by side:
    //   * `skip_round2` — the UNSOUND mutant: always skip round 2. It is
    //     exactly the read rule the construction above convicts.
    //   * the default reader: returns on round 1 only when `b + 1` round-1
    //     replies confirm the highest live candidate exactly, and sends
    //     READ2 otherwise — on Figure 1's view in particular.
    //   * the figures' reader (`ReaderTuning::FIGURES`, what the paper's
    //     tables run): sends READ2 on every read below S = 2t+2b+1.
    //   * either reader one object above the boundary, where one round is
    //     guaranteed.
    println!("\n── the production reader at the boundary ──\n");
    let boundary = StorageConfig::with_objects(s, t, b, 1); // S = 2t+2b
    assert!(!boundary.guarantees_one_round_reads());
    let figures = ProtocolSpec::figures(ProtocolKind::Regular);

    let mutant = ProtocolSpec::Regular {
        optimized: false,
        write_back: false,
        retention: HistoryRetention::KeepAll,
        tuning: ReaderTuning {
            skip_round2: true,
            ..ReaderTuning::FIGURES
        },
    };
    let (r, _) = quiet_read(boundary, mutant);
    println!(
        "S = {s}, skip_round2 mutant:            rounds = {}, fast = {} — it",
        r.rounds, r.fast
    );
    println!("      answers in one round on every view, which is precisely what the");
    println!("      runs above convict. (Fault-free it happens to be right; adversarially");
    println!("      it cannot be — see `thm34_regular` for the conviction.)");
    assert_eq!((r.rounds, r.fast), (1, false));

    let (r, (hits, fallbacks)) = quiet_read(boundary, ProtocolKind::Regular.into());
    println!(
        "S = {s}, default reader, quiet:         rounds = {}, fast = {} — round 1",
        r.rounds, r.fast
    );
    println!("      already proves 42 (hits = {hits}, fallbacks = {fallbacks}): no READ2 is sent.");
    assert_eq!((r.rounds, r.fast, hits, fallbacks), (1, true, 1, 0));

    // Figure 1's view on the simulator (run4: B1 = s2 lies stale): the
    // write of 42 misses T1 = s0, the read misses T2 = s1, so round 1
    // hears s0 and s2 deny 42 and only B2 = s3 report it.
    let mut sc = StorageScenario::deploy(ProtocolKind::Regular, boundary, 1);
    sc.attack_object(2, AttackerKind::Stale, 0u64);
    let (writer, reader) = (sc.writer(), sc.reader(0));
    let (t1, t2) = (sc.object(0), sc.object(1));
    sc.world_mut().adversary_mut().hold_link(writer, t1);
    sc.write(42);
    sc.world_mut().adversary_mut().hold_link(reader, t2);
    let mut op = sc.start_read(0);
    sc.world_mut().run_until_idle(100_000);
    assert!(sc.poll_read(&mut op).is_none(), "the view proves nothing");
    sc.world_mut().adversary_mut().clear();
    sc.world_mut().release_all();
    sc.world_mut().run_until_idle(100_000);
    let r = sc.poll_read(&mut op).expect("T2 answers");
    let (hits, fallbacks) = fast_path_counters(&sc.metrics_snapshot());
    println!(
        "S = {s}, default reader, Figure 1 view: rounds = {}, fast = {} — 42 has",
        r.rounds, r.fast
    );
    println!("      b = {b} supporter, so round 1 proves nothing and READ2 goes out; the");
    println!("      read returns once T2 answers (hits = {hits}, fallbacks = {fallbacks}).");
    assert_eq!((r.value, r.rounds, r.fast), (Some(42), 2, false));
    assert_eq!((hits, fallbacks), (0, 1));

    let (r, (hits, fallbacks)) = quiet_read(boundary, figures);
    println!(
        "S = {s}, figures' reader, quiet:        rounds = {}, fast = {} — it",
        r.rounds, r.fast
    );
    println!("      refuses round 1 below the boundary (hits = {hits}, fallbacks = {fallbacks})");
    assert_eq!((r.rounds, r.fast, hits, fallbacks), (2, false, 0, 1));

    let fast_cfg = StorageConfig::fast(t, b, 1); // S = 2t+2b+1
    let (r, _) = quiet_read(fast_cfg, figures);
    println!(
        "S = {}, figures' reader, quiet:        rounds = {}, fast = {} — one",
        fast_cfg.s, r.rounds, r.fast
    );
    println!("      replica above the boundary guarantees the one-round read.");
    assert_eq!((r.rounds, r.fast), (1, true));
}

/// `WRITE(42)` then one `READ` on a fresh thread-runtime deployment: the
/// read's report and its `(hits, fallbacks)` fast-path counters.
fn quiet_read(cfg: StorageConfig, spec: ProtocolSpec) -> (ReadReport<u64>, (u64, u64)) {
    let storage: StorageCluster<u64> = StorageCluster::deploy(cfg, spec, Box::new(NoDelay));
    storage.write(42);
    let r = storage.read(0);
    assert_eq!(r.value, Some(42));
    (r, fast_path_counters(&storage.metrics_snapshot()))
}

/// The `(hits, fallbacks)` fast-path counters of a metrics snapshot.
fn fast_path_counters(snap: &Registry) -> (u64, u64) {
    (
        snap.counter(names::READER_FAST_HITS, &[]),
        snap.counter(names::READER_FAST_FALLBACKS, &[]),
    )
}

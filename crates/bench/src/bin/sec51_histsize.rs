//! **E-51 — §5.1 performance optimization and reader-ack history GC**:
//! objects can ship history *suffixes* against a reader-side cache instead
//! of full histories, and — the repo's extension — truncate their own
//! histories below the floor every reader has acknowledged.
//!
//! Part 1: for increasing run lengths (number of writes `W`), performs one
//! read per variant and measures the read's network cost: bytes delivered
//! to the reader, average/max `READk_ACK` size, and the object-side
//! history length. Round counts stay at 2 in both variants.
//!
//! Expected shape (paper §5.1): the unoptimized ack size grows linearly in
//! `W` ("storage exhaustion" caveat), while the optimized variant's acks
//! stay O(1) once the cache is warm — a "drastic decrease" in message
//! size.
//!
//! Part 2: steady-state load (reads interleaved with writes, so reader
//! acks keep advancing) under `KeepAll` vs. `ReaderAck` retention. §5.1
//! alone bounds only the *transfer*; the object history still grows
//! linearly in `W`. With ack GC the history length goes **flat** — bounded
//! by the read cadence (reader concurrency), not the run length. Run with
//! `cargo run --release -p vrr-bench --bin sec51_histsize`.

use vrr_bench::{f2, Table};
use vrr_core::regular::HistoryRetention;
use vrr_core::{ProtocolKind, ProtocolSpec, StorageConfig, StorageScenario};

struct Probe {
    rounds: u32,
    read_bytes: u64,
    read_acks: u64,
    max_history_len: usize,
}

/// Runs `writes` writes, a cache-warming read, then measures one read.
fn probe(optimized: bool, writes: u64) -> Probe {
    let protocol = ProtocolSpec::figures(if optimized {
        ProtocolKind::RegularOptimized
    } else {
        ProtocolKind::Regular
    });
    let cfg = StorageConfig::optimal(1, 1, 1); // S = 4
    let mut sc = StorageScenario::deploy(protocol, cfg, 7);

    for k in 1..=writes {
        sc.write(k);
    }
    // Warm the reader cache (relevant only when optimized).
    sc.read(0);

    // One more write so the measured read has something new to fetch.
    sc.write(writes + 1);

    let before = sc.world().net_stats();
    let rep = sc.read(0);
    assert_eq!(rep.value, Some(writes + 1));
    let after = sc.world().net_stats();

    Probe {
        rounds: rep.rounds,
        read_bytes: after.bytes_delivered - before.bytes_delivered,
        // Each round the reader sends S requests and objects ack; count
        // delivered messages during the read.
        read_acks: after.delivered - before.delivered,
        max_history_len: sc.max_history_len(),
    }
}

/// How often the steady-state reader reads (and thereby acks): one read
/// per `READ_EVERY` writes.
const READ_EVERY: u64 = 8;

/// Steady-state run: `writes` writes with a read every [`READ_EVERY`]
/// writes (so acks keep advancing), then one final read. Reports the
/// worst object-side history length at the end of the run.
fn probe_steady(retention: HistoryRetention, writes: u64) -> usize {
    let protocol = ProtocolSpec::figures(ProtocolKind::RegularOptimized).with_retention(retention);
    let cfg = StorageConfig::optimal(1, 1, 1); // S = 4, R = 1
    let mut sc = StorageScenario::deploy(protocol, cfg, 13);

    for k in 1..=writes {
        sc.write(k);
        if k % READ_EVERY == 0 {
            let rep = sc.read(0);
            assert_eq!(rep.value, Some(k), "steady-state read must see the tip");
            assert_eq!(rep.rounds, 2, "GC must not cost rounds");
        }
    }
    assert_eq!(sc.read(0).value, Some(writes));
    sc.max_history_len()
}

fn main() {
    let mut table = Table::new(&[
        "W (writes)",
        "variant",
        "read rounds",
        "read bytes",
        "msgs",
        "avg bytes/msg",
        "object history len",
    ]);
    for writes in [1u64, 10, 100, 1000] {
        for optimized in [false, true] {
            let p = probe(optimized, writes);
            assert_eq!(p.rounds, 2, "optimization must not cost rounds");
            table.row_owned(vec![
                writes.to_string(),
                if optimized {
                    "regular-opt".into()
                } else {
                    "regular".to_string()
                },
                p.rounds.to_string(),
                p.read_bytes.to_string(),
                p.read_acks.to_string(),
                f2(p.read_bytes as f64 / p.read_acks.max(1) as f64),
                p.max_history_len.to_string(),
            ]);
        }
    }
    table.print("§5.1: read network cost, full histories vs. cached suffixes");

    // The headline ratio at W = 1000.
    let full = probe(false, 1000);
    let opt = probe(true, 1000);
    println!(
        "\nread bytes at W=1000: full={} suffix={} ({}x smaller)",
        full.read_bytes,
        opt.read_bytes,
        f2(full.read_bytes as f64 / opt.read_bytes.max(1) as f64),
    );
    assert!(
        full.read_bytes > 20 * opt.read_bytes,
        "the suffix optimization must shrink read traffic drastically"
    );
    println!(
        "Paper check: ack size grows with history in §5, stays flat under §5.1, \
         rounds unchanged at 2. ✔"
    );

    // ---- Part 2: object-side memory under steady-state load. -------------
    let mut gc_table = Table::new(&["W (writes)", "retention", "max object history len"]);
    let mut lens = std::collections::HashMap::new();
    for writes in [100u64, 400, 1000] {
        for (label, retention) in [
            ("keep-all", HistoryRetention::KeepAll),
            ("reader-ack", HistoryRetention::reader_ack()),
        ] {
            let len = probe_steady(retention, writes);
            lens.insert((label, writes), len);
            gc_table.row_owned(vec![writes.to_string(), label.to_string(), len.to_string()]);
        }
    }
    gc_table.print("History GC: object memory, keep-all vs. reader-ack truncation");

    let full_100 = lens[&("keep-all", 100u64)];
    let full_1000 = lens[&("keep-all", 1000u64)];
    let gc_100 = lens[&("reader-ack", 100u64)];
    let gc_400 = lens[&("reader-ack", 400u64)];
    let gc_1000 = lens[&("reader-ack", 1000u64)];
    assert!(
        full_1000 > full_100 + 800,
        "keep-all must grow linearly in W: {full_100} -> {full_1000}"
    );
    // 400 and 1000 end at the same phase of the read cadence (both are
    // multiples of READ_EVERY): the retained suffix must be identical —
    // flat in W, where keep-all grew by 600 entries.
    assert_eq!(
        gc_400, gc_1000,
        "reader-ack history length must be flat in W"
    );
    // And at *every* W it is bounded by the cadence, never the run length.
    for gc in [gc_100, gc_400, gc_1000] {
        assert!(
            gc <= READ_EVERY as usize + 3,
            "reader-ack history bounded by the read cadence, got {gc}"
        );
    }
    println!(
        "\nmax history len at W=1000: keep-all={full_1000} reader-ack={gc_1000} (flat; \
         bounded by the read cadence of one read per {READ_EVERY} writes)"
    );
    println!(
        "GC check: §5.1 bounds the transfer, reader acks bound the storage — \
         object memory is O(reader concurrency), not O(run length). ✔"
    );
}

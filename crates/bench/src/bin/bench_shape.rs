//! **bench_shape** — CI guard over the committed criterion baselines.
//!
//! Reads the JSON-lines files the vendored criterion shim emits under
//! `CRITERION_JSON` (`BENCH_rounds.json`, `BENCH_latency.json`,
//! `BENCH_histsize.json`) and checks the *shape* of the results, never absolute numbers — those
//! are machine-dependent, but the paper's claims are relational:
//!
//! - reads cost about the same as writes (both are two round-trips); the
//!   full-history regular read is allowed a larger factor (history
//!   payloads dominate, which is exactly what §5.1 fixes),
//! - latency grows monotonically with the object count `S` (more fan-out,
//!   same round count) — in the simulator and on the thread runtime,
//! - the 2-round protocols process more events than the 1-round
//!   baselines,
//! - full-history reads grow with the number of past writes while §5.1
//!   suffix reads stay far below them, and reader-ack GC keeps even
//!   full-history reads flat in run length.
//!
//! These are the paper's shapes. How fast the *system* is — executor
//! scale, multi-key parallelism, router and socket overhead — is measured
//! under sustained load by `benchmark/` (`BENCHMARK.json`), not here.
//!
//! Usage: `bench_shape [rounds.json latency.json histsize.json]`. Exits
//! non-zero listing every violated relation.

use std::collections::HashMap;
use std::process::ExitCode;

/// One `{"group":..,"id":..,"iters":..,"mean_ns":..}` line of the shim's
/// fixed output format (see `vendor/criterion`). Not a general JSON
/// parser.
fn parse_line(line: &str) -> Option<(String, f64)> {
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let start = line.find(&format!("\"{key}\":"))? + key.len() + 3;
        let rest = &line[start..];
        let rest = rest.strip_prefix('"').unwrap_or(rest);
        let end = rest.find(['"', ',', '}'])?;
        Some(&rest[..end])
    }
    let group = field(line, "group")?;
    let id = field(line, "id")?;
    let mean: f64 = field(line, "mean_ns")?.parse().ok()?;
    let name = if group.is_empty() {
        id.to_string()
    } else {
        format!("{group}/{id}")
    };
    Some((name, mean))
}

/// Loads one JSONL file into `benchmark name → mean ns`.
fn load(path: &str) -> HashMap<String, f64> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    text.lines().filter_map(parse_line).collect()
}

struct Checker {
    results: HashMap<String, f64>,
    failures: Vec<String>,
    checks: usize,
}

impl Checker {
    fn new(results: HashMap<String, f64>) -> Self {
        Checker {
            results,
            failures: Vec::new(),
            checks: 0,
        }
    }

    fn get(&mut self, name: &str) -> Option<f64> {
        let v = self.results.get(name).copied();
        if v.is_none() {
            self.failures.push(format!("missing benchmark: {name}"));
        }
        v
    }

    /// Asserts `mean(a) <= factor * mean(b)`.
    fn le(&mut self, a: &str, b: &str, factor: f64, why: &str) {
        self.checks += 1;
        let (Some(va), Some(vb)) = (self.get(a), self.get(b)) else {
            return;
        };
        if va <= factor * vb {
            println!("  ok: {a} ({va:.0} ns) <= {factor} x {b} ({vb:.0} ns)  [{why}]");
        } else {
            self.failures.push(format!(
                "{a} ({va:.0} ns) > {factor} x {b} ({vb:.0} ns): {why}"
            ));
        }
    }

    /// Asserts the series is (slack-tolerant) monotone increasing:
    /// each step may dip at most `slack` below its predecessor, and the
    /// last entry must exceed the first by `growth`.
    fn monotone(&mut self, names: &[&str], slack: f64, growth: f64, why: &str) {
        for pair in names.windows(2) {
            self.le(pair[0], pair[1], 1.0 / slack, why);
        }
        self.checks += 1;
        let (Some(first), Some(last)) = (self.get(names[0]), self.get(names[names.len() - 1]))
        else {
            return;
        };
        if last >= growth * first {
            println!(
                "  ok: {} ({last:.0} ns) >= {growth} x {} ({first:.0} ns)  [{why}]",
                names[names.len() - 1],
                names[0]
            );
        } else {
            self.failures.push(format!(
                "{} ({last:.0} ns) < {growth} x {} ({first:.0} ns): {why}",
                names[names.len() - 1],
                names[0]
            ));
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paths: Vec<String> = match args.as_slice() {
        [] => ["rounds", "latency", "histsize"]
            .map(|bench| format!("BENCH_{bench}.json"))
            .to_vec(),
        files @ [_, _, _] => files.to_vec(),
        _ => {
            eprintln!("usage: bench_shape [rounds.json latency.json histsize.json]");
            return ExitCode::from(2);
        }
    };

    let mut results = HashMap::new();
    for path in &paths {
        results.extend(load(path));
    }
    let mut c = Checker::new(results);

    println!("shape: reads =~ writes (both two round-trips)");
    for variant in ["safe", "regular-opt"] {
        c.le(
            &format!("latency/variant/read/{variant}"),
            &format!("latency/variant/write/{variant}"),
            3.0,
            "2-round read =~ 2-round write",
        );
        c.le(
            &format!("latency/variant/write/{variant}"),
            &format!("latency/variant/read/{variant}"),
            3.0,
            "2-round write =~ 2-round read",
        );
    }
    // Full-history regular reads may pay a history-payload factor on top —
    // bounded, and exactly the cost §5.1 removes.
    c.le(
        "latency/variant/read/regular",
        "latency/variant/write/regular",
        10.0,
        "full-history read within bounded factor of write",
    );

    println!("shape: the one-round fast path beats the two-round read");
    // One replica above optimal resilience (S = 2t+2b+1) removes a whole
    // round-trip: the fast read must be strictly cheaper than the
    // two-round optimized read despite the larger fan-out, and the forced
    // fallback (fast-path check fails, two-round protocol completes) must
    // stay near the plain two-round cost — the check is local arithmetic.
    c.le(
        "latency/variant/read/fast",
        "latency/variant/read/regular-opt",
        1.0,
        "one-round fast read beats the two-round read",
    );
    c.le(
        "latency/variant/read/fast-fallback",
        "latency/variant/read/regular-opt",
        1.25,
        "forced fallback near the plain two-round read",
    );

    println!("shape: latency monotone in S (more fan-out, same rounds)");
    c.monotone(
        &[
            "latency/objects/read/S4",
            "latency/objects/read/S6",
            "latency/objects/read/S8",
            "latency/objects/read/S12",
        ],
        0.85,
        1.3,
        "thread-runtime read latency grows with S",
    );
    c.monotone(
        &[
            "sim/scaling/safe-S/4",
            "sim/scaling/safe-S/6",
            "sim/scaling/safe-S/10",
            "sim/scaling/safe-S/18",
        ],
        0.85,
        1.5,
        "simulated cycle cost grows with S",
    );

    println!("shape: 2-round protocols outweigh 1-round baselines");
    for two_round in ["safe", "regular", "regular-opt"] {
        for baseline in ["abd", "masking", "passive"] {
            c.le(
                &format!("sim/cycle/protocol/{baseline}"),
                &format!("sim/cycle/protocol/{two_round}"),
                1.0,
                "baseline processes fewer events",
            );
        }
    }

    println!("shape: full histories grow with writes; suffix reads stay low");
    c.monotone(
        &[
            "history/read/full/10",
            "history/read/full/100",
            "history/read/full/500",
        ],
        0.85,
        3.0,
        "full-history read cost grows with history",
    );
    c.le(
        "history/read/suffix/500",
        "history/read/full/500",
        0.25,
        "suffix read far below full read at 500 writes",
    );

    println!("shape: reader-ack GC keeps full-history reads flat");
    // The gcfull variant ships *whole* histories (no §5.1 reader cache),
    // but ack GC bounds those histories by the read cadence: its read
    // cost must not scale with W and must sit far below keep-all.
    c.le(
        "history/read/gcfull/500",
        "history/read/gcfull/10",
        3.0,
        "ack-GC read cost flat in run length",
    );
    c.le(
        "history/read/gcfull/500",
        "history/read/full/500",
        0.35,
        "ack-GC far below keep-all at 500 writes",
    );

    if c.failures.is_empty() {
        println!("bench shape: all {} relations hold", c.checks);
        ExitCode::SUCCESS
    } else {
        eprintln!("bench shape: {} violation(s):", c.failures.len());
        for f in &c.failures {
            eprintln!("  FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}

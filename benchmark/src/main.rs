//! `vrr-loadgen`: sustained closed-loop load through `StoreRouter`, a
//! correctness gate, and an outside-in latency ladder. See README.md.
//!
//! ```text
//! vrr-loadgen --workload NAME --seed N --seconds S --trace 0|1   one run, one JSON line
//! vrr-loadgen [--seed N] [--quick]                               the whole suite
//! vrr-loadgen --agree [--runs R] [--seed N] [--quick]            two sets, compared
//! vrr-loadgen --manifest                                         BENCHMARK.json
//! ```

mod counts;
mod deploy;
mod ladder;
mod layers;
mod load;
mod probe;
mod spec;
mod stats;
mod verify;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use vrr_core::metrics::names;

use crate::ladder::{Budget, Ladder};
use crate::layers::{LayerDeltas, ThreadSampler};
use crate::load::{ClientLog, LoadPlan, Observed};
use crate::spec::{Metric, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles};

/// Ladder ops per rung: the stand-alone suite, a driver run (which must
/// fit its time budget), and `--quick`.
const LADDER_OPS_SUITE: usize = 20_000;
const LADDER_OPS_DRIVER: usize = 3_000;
const LADDER_OPS_QUICK: usize = 512;
const QUICK_SECONDS: f64 = 2.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    agree: bool,
    runs: usize,
    manifest: bool,
    server_bin: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        agree: false,
        runs: 3,
        manifest: false,
        server_bin: deploy::default_server_bin(),
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |what: &str| format!("bad {flag} value `{what}`");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => {
                let s: f64 = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(bad(other)),
                }
            }
            "--runs" => {
                args.runs = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--quick" => args.quick = true,
            "--agree" => args.agree = true,
            "--manifest" => args.manifest = true,
            "--server-bin" => args.server_bin = PathBuf::from(value()?),
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// Where and how the numbers were taken (ROADMAP: cores, profile, commit).
fn environment(measure_s: f64) -> Vec<(&'static str, String)> {
    let command = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("rustc", command("rustc", &["--version"])),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("commit", command("git", &["rev-parse", "HEAD"])),
        (
            "kernel",
            std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or("unknown".into(), |s| s.trim().to_string()),
        ),
        ("clients", spec::CLIENTS.to_string()),
        ("loop", "closed".into()),
        ("warmup_s", spec::WARMUP_S.to_string()),
        ("measured_s", measure_s.to_string()),
        ("windows", spec::WINDOWS.to_string()),
        ("network", "loopback, no injected delay".into()),
    ]
}

struct RunParams {
    seed: u64,
    measure_s: f64,
    trace: bool,
    ladder_ops: usize,
}

/// Everything one run of one workload produced.
struct RunOutcome {
    metrics: Vec<(&'static str, f64)>,
    observed: Observed,
    attempted: u64,
    failed: u64,
    warnings: Vec<String>,
}

impl RunOutcome {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

fn run_workload(
    w: &Workload,
    params: &RunParams,
    server_bin: &Path,
    out_dir: &Path,
) -> Result<RunOutcome, String> {
    // Set up several times and report the median; the last one is loaded.
    let mut setup_times = Vec::new();
    let mut deployment = None;
    for _ in 0..spec::SETUP_REPEATS {
        drop(deployment.take());
        let (d, secs) = deploy::setup(w, server_bin, params.seed)?;
        setup_times.push(secs);
        deployment = Some(d);
    }
    let deployment = deployment.expect("SETUP_REPEATS > 0");
    eprintln!("[{}] set-ups: {setup_times:.3?} s", w.name);

    let self_pid = std::process::id();
    let node_pid = deployment.server.as_ref().map_or(self_pid, |s| s.pid());
    let plan = LoadPlan::new(w, spec::WARMUP_S, params.measure_s, params.trace);

    // Layer observations bracket the whole loaded interval, warm-up
    // included, so taking them never lands inside a measured window.
    let before = if params.trace {
        Some((
            layers::snapshot(&deployment)?,
            layers::cpu_seconds(node_pid),
            layers::cpu_seconds(self_pid),
            ThreadSampler::start(node_pid),
        ))
    } else {
        None
    };
    let logs = load::run(&deployment.router, w, params.seed, plan)?;
    let observed = load::observe(&logs, &plan);
    let o = &observed;
    eprintln!(
        "[{}] seed {} | raw: {:.0} ops/s, read p50/p99 {:.1}/{:.1} us ({} samples), write p50/p99 {:.1}/{:.1} us ({} samples) | host factor {:.3} (wake {:.1} us, loopback {:.1} us) | loopback, no injected delay",
        w.name, params.seed, o.raw_ops_per_s, o.raw_read_p50_us, o.raw_read_p99_us, o.reads,
        o.raw_write_p50_us, o.raw_write_p99_us, o.writes,
        o.host_factor, o.host_wake_us, o.host_loopback_us
    );

    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    let mut warnings = Vec::new();
    if !logs.iter().all(|log| log.pinned) {
        warnings.push(
            "client threads not pinned (no `taskset`, or fewer CPUs than clients): \
             the host factor tracks the host less well"
                .to_string(),
        );
    }
    let mut failed = observed.failed;
    let mut attempted = observed.attempted;

    if let Some((snap_before, node_cpu, self_cpu, sampler)) = before {
        let threads_peak = sampler.finish();
        let node_cpu = layers::cpu_seconds(node_pid) - node_cpu;
        let self_cpu = layers::cpu_seconds(self_pid) - self_cpu;
        let snap_after = layers::snapshot(&deployment)?;
        let ops = observed.attempted as f64;
        let d = LayerDeltas {
            before: &snap_before,
            after: &snap_after,
            ops,
        };
        let frames = d.per_op(names::WIRE_FRAMES_SENT) + d.per_op(names::WIRE_FRAMES_RECEIVED);
        let bytes = d.per_op(names::WIRE_BYTES_SENT) + d.per_op(names::WIRE_BYTES_RECEIVED);
        metrics.extend([
            ("executor.sweeps_per_op", d.per_op(names::EXECUTOR_SWEEPS)),
            ("executor.wakeups_per_op", d.per_op(names::EXECUTOR_WAKEUPS)),
            (
                "executor.commands_per_op",
                d.per_op(names::EXECUTOR_COMMANDS),
            ),
            ("core.read_rounds_mean", d.mean(names::READER_ROUNDS)),
            ("core.write_rounds_mean", d.mean(names::WRITER_ROUNDS)),
            ("core.fast_hit_ratio", d.fast_hit_ratio()),
            ("reactor.frames_per_op", frames),
            ("reactor.bytes_per_op", bytes),
            ("reactor.decode_errors", d.delta(names::WIRE_DECODE_ERRORS)),
            (
                "remote.retries",
                deployment
                    .remote
                    .as_ref()
                    .map_or(0.0, |r| r.retries() as f64),
            ),
            ("node.cpu_us_per_op", node_cpu * 1e6 / ops.max(1.0)),
            ("node.threads_peak", threads_peak),
            ("node.peak_rss_mib", layers::peak_rss_mib(node_pid)),
            ("loadgen.cpu_us_per_op", self_cpu * 1e6 / ops.max(1.0)),
            (
                "shard.history_len_max",
                snap_after.max(names::OBJECT_HISTORY_LEN),
            ),
            ("scaleout.read_p99_us", observed.raw_read_p99_us),
            ("scaleout.write_p99_us", observed.raw_write_p99_us),
            ("scaleout.read_p999_us", observed.read_p999_us),
            ("scaleout.write_p999_us", observed.write_p999_us),
            ("trace.overhead_pct", observed.trace_overhead_pct),
            ("host.factor", observed.host_factor),
            ("host.wake_us", observed.host_wake_us),
            ("host.loopback_us", observed.host_loopback_us),
            ("raw.ops_per_s", observed.raw_ops_per_s),
            ("raw.read_p50_us", observed.raw_read_p50_us),
            ("raw.write_p50_us", observed.raw_write_p50_us),
        ]);
    }
    drop(deployment);

    // The correctness gate, outside every timed region.
    let verify_started = Instant::now();
    let verdict = verify::check(&logs, params.seed);
    let verify_ms = verify_started.elapsed().as_secs_f64() * 1e3;
    failed += verdict.violations;
    if let Some(what) = &verdict.first_violation {
        warnings.push(format!("CORRECTNESS: {what}"));
    }
    eprintln!(
        "[{}] checker: {} keys, {} ops, {} violations in {verify_ms:.1} ms",
        w.name, verdict.keys_checked, verdict.ops_checked, verdict.violations
    );

    if params.trace {
        let ladder = ladder::run(w, server_bin, params.seed, params.ladder_ops)?;
        attempted += ladder.spans.len() as u64;
        failed += ladder.failed;
        warnings.extend(ladder::self_check(&ladder, w.remote));
        let sim = counts::run(params.seed);
        write_trace(out_dir, &logs, &ladder).map_err(|e| format!("write trace.jsonl: {e}"))?;
        metrics.extend(ladder_metrics(&ladder, w.remote));
        metrics.extend([
            ("core.msgs_per_read", sim.msgs_per_read),
            ("core.bytes_per_read", sim.bytes_per_read),
            ("core.msgs_per_write", sim.msgs_per_write),
            ("core.bytes_per_write", sim.bytes_per_write),
            ("sim.cycle_us", sim.cycle_us),
            ("checker.verify_ms", verify_ms),
        ]);
    } else {
        metrics.extend([
            ("ops_per_s", observed.ops_per_s),
            ("read_p50_us", observed.read_p50_us),
            ("write_p50_us", observed.write_p50_us),
            ("setup_s", median(&setup_times) / observed.host_factor),
        ]);
    }
    Ok(RunOutcome {
        metrics,
        observed,
        attempted,
        failed,
        warnings,
    })
}

fn ladder_metrics(ladder: &Ladder, remote: bool) -> Vec<(&'static str, f64)> {
    let mut out = vec![
        ("frame.codec_ns", ladder.ns("frame.codec")),
        ("ring.route_ns", ladder.ns("ring.route")),
        ("storage.read_us", ladder.us("storage.read")),
        ("storage.write_us", ladder.us("storage.write")),
        ("shard.read_us", ladder.us("shard.read")),
        ("shard.write_us", ladder.us("shard.write")),
        ("scaleout.inproc_read_us", ladder.us("scaleout.inproc_read")),
        (
            "scaleout.inproc_write_us",
            ladder.us("scaleout.inproc_write"),
        ),
        ("client.ping_us", ladder.us("client.ping")),
        ("client.read_us", ladder.us("client.read")),
        ("client.write_us", ladder.us("client.write")),
        ("remote.read_us", ladder.us("remote.read")),
        ("remote.write_us", ladder.us("remote.write")),
        ("scaleout.remote_read_us", ladder.us("scaleout.remote_read")),
        (
            "scaleout.remote_write_us",
            ladder.us("scaleout.remote_write"),
        ),
    ];
    let b = Budget::of(ladder);
    // The vrr-net terms of the budget exist only where the wire is crossed.
    let net = |v: f64| if remote { v } else { 0.0 };
    out.extend([
        ("budget.scaleout_us", net(b.scaleout_us)),
        ("budget.remote_us", net(b.remote_us)),
        ("budget.net_hop_us", net(b.net_hop_us)),
        ("budget.store_us", net(b.store_us)),
        ("budget.shard_us", b.shard_us),
        ("budget.storage_us", b.storage_us),
        ("budget.frame_us", net(b.frame_us)),
    ]);
    out
}

/// `out/trace.jsonl`: every span of the traced run, one JSON object a line.
fn write_trace(out_dir: &Path, logs: &[ClientLog], ladder: &Ladder) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    let mut file = std::io::BufWriter::new(std::fs::File::create(out_dir.join("trace.jsonl"))?);
    let load_spans = logs.iter().flat_map(|log| &log.spans);
    let phases = load_spans
        .map(|s| ("load", s))
        .chain(ladder.spans.iter().map(|s| ("ladder", s)));
    for (phase, s) in phases {
        let parent = s.parent.map_or("null".into(), |p| format!("\"{p}\""));
        writeln!(
            file,
            "{{\"phase\":\"{phase}\",\"name\":\"{}\",\"op_id\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            s.name, s.op_id, s.start_ns, s.end_ns
        )?;
    }
    file.flush()
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metrics_json(table: &[Metric], outcome: &RunOutcome) -> String {
    let mut out = String::from("{");
    for (i, m) in table.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(outcome.value(m.name)),
            m.unit
        );
    }
    out.push('}');
    out
}

/// The one line the driver reads.
fn result_json(table: &[Metric], outcome: &RunOutcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(table, outcome)
    )
}

fn print_table(title: &str, table: &[Metric], outcome: &RunOutcome) {
    println!("  {title}");
    for m in table {
        println!(
            "    {:<28} {:>14.3} {}",
            m.name,
            outcome.value(m.name),
            m.unit
        );
    }
}

fn print_outcome_notes(w: &Workload, outcome: &RunOutcome) {
    let o = &outcome.observed;
    println!(
        "    samples: {} reads, {} writes measured; {} attempted, {} failed",
        o.reads, o.writes, outcome.attempted, outcome.failed
    );
    for warning in &outcome.warnings {
        println!("    WARNING [{}]: {warning}", w.name);
    }
}

/// One driver run: human detail on stderr, the result line on stdout.
fn driver_run(args: &Args, name: &str) -> Result<bool, String> {
    let w = spec::workload(name).ok_or_else(|| {
        let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    let params = RunParams {
        seed: args.seed,
        measure_s: args.seconds.unwrap_or(spec::DRIVER_SECONDS as f64),
        trace: args.trace,
        ladder_ops: if args.quick {
            LADDER_OPS_QUICK
        } else {
            LADDER_OPS_DRIVER
        },
    };
    let outcome = run_workload(w, &params, &args.server_bin, &args.out_dir)?;
    for warning in &outcome.warnings {
        eprintln!("[{}] WARNING: {warning}", w.name);
    }
    let table: &[Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", result_json(table, &outcome));
    Ok(outcome.correct())
}

/// The whole suite: every workload untraced, then traced; prints every
/// metric by name with its unit and writes `out/result.json`.
fn suite(args: &Args) -> Result<bool, String> {
    let measure_s = args.seconds.unwrap_or(if args.quick {
        QUICK_SECONDS
    } else {
        spec::SUITE_SECONDS
    });
    let env = environment(measure_s);
    println!("vrr-loadgen suite, seed {}", args.seed);
    for (k, v) in &env {
        println!("  {k:<12} {v}");
    }
    let mut all_correct = true;
    let mut json = String::from("{\n  \"environment\": {");
    for (i, (k, v)) in env.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(json, "{sep}\"{k}\": \"{}\"", v.replace('"', "'"));
    }
    let _ = write!(json, "}},\n  \"seed\": {},\n  \"workloads\": {{", args.seed);
    for (i, w) in WORKLOADS.iter().enumerate() {
        println!("\n{} — {}", w.name, w.why);
        let mut params = RunParams {
            seed: args.seed,
            measure_s,
            trace: false,
            ladder_ops: if args.quick {
                LADDER_OPS_QUICK
            } else {
                LADDER_OPS_SUITE
            },
        };
        let untraced = run_workload(w, &params, &args.server_bin, &args.out_dir)?;
        print_table("end to end (untraced)", &END_TO_END, &untraced);
        print_outcome_notes(w, &untraced);
        params.trace = true;
        let traced = run_workload(w, &params, &args.server_bin, &args.out_dir)?;
        print_table("per layer (traced run)", &PER_LAYER, &traced);
        print_outcome_notes(w, &traced);
        all_correct &= untraced.correct() && traced.correct();
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            json,
            "{sep}\n    \"{}\": {{\"untraced\": {}, \"traced\": {}}}",
            w.name,
            result_json(&END_TO_END, &untraced),
            result_json(&PER_LAYER, &traced)
        );
    }
    json.push_str("\n  }\n}\n");
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(args.out_dir.join("result.json"), json))
        .map_err(|e| format!("write result.json: {e}"))?;
    println!(
        "\nwrote {0}/result.json and {0}/trace.jsonl (spans of the last traced run)",
        args.out_dir.display()
    );
    println!(
        "{}",
        if all_correct {
            "all workloads correct"
        } else {
            "CORRECTNESS VIOLATIONS — see warnings above"
        }
    );
    Ok(all_correct)
}

/// Two sets of runs of the same code with different seeds: per metric and
/// workload, the relative difference of the set medians next to the bound,
/// and each set's own spread (IQR over median, as the driver takes it).
fn agree(args: &Args) -> Result<bool, String> {
    let measure_s = args.seconds.unwrap_or(if args.quick {
        QUICK_SECONDS
    } else {
        spec::DRIVER_SECONDS as f64
    });
    let runs = if args.quick { 1 } else { args.runs };
    println!(
        "two-set agreement: {runs} run(s) per set and workload, {measure_s} s measured each{}",
        if args.quick {
            " (quick: not gated)"
        } else {
            ""
        }
    );
    let mut agreed = true;
    let mut correct = true;
    for w in &WORKLOADS {
        // sets[set][metric] = values over the set's runs
        let mut sets: [Vec<Vec<f64>>; 2] = [
            vec![Vec::new(); END_TO_END.len()],
            vec![Vec::new(); END_TO_END.len()],
        ];
        for (set, values) in sets.iter_mut().enumerate() {
            for run in 0..runs {
                let params = RunParams {
                    seed: args.seed + (set * 1000 + run) as u64,
                    measure_s,
                    trace: false,
                    ladder_ops: 0,
                };
                let outcome = run_workload(w, &params, &args.server_bin, &args.out_dir)?;
                correct &= outcome.correct();
                for (m, slot) in END_TO_END.iter().zip(values.iter_mut()) {
                    slot.push(outcome.value(m.name));
                }
            }
        }
        println!("\n{}", w.name);
        println!(
            "    {:<14} {:>12} {:>12} {:>9} {:>7} {:>9} {:>9}",
            "metric", "set A", "set B", "worse by", "bound", "spread A", "spread B"
        );
        for (i, m) in END_TO_END.iter().enumerate() {
            let (a, b) = (median(&sets[0][i]), median(&sets[1][i]));
            let worse_by = if m.higher_is_better {
                (a - b) / a
            } else {
                (b - a) / a
            };
            // Quartiles need two values; a single run has no spread.
            let spread = |v: &[f64]| {
                if v.len() < 2 {
                    return "-".to_string();
                }
                let (q1, q3) = quartiles(v);
                format!("{:.1}%", (q3 - q1) / median(v) * 100.0)
            };
            let ok = worse_by.abs() <= m.bound;
            agreed &= ok;
            println!(
                "    {:<14} {:>12.3} {:>12.3} {:>8.1}% {:>6.0}% {:>9} {:>9} {}",
                m.name,
                a,
                b,
                worse_by * 100.0,
                m.bound * 100.0,
                spread(&sets[0][i]),
                spread(&sets[1][i]),
                if ok { "" } else { "DISAGREE" }
            );
        }
    }
    if !correct {
        println!("\nCORRECTNESS VIOLATIONS in at least one run");
    }
    if args.quick {
        return Ok(correct);
    }
    println!(
        "\n{}",
        if agreed {
            "both sets agree within every bound"
        } else {
            "sets DISAGREE beyond a bound"
        }
    );
    Ok(agreed && correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("vrr-loadgen: {e}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", spec::manifest_json());
        return ExitCode::SUCCESS;
    }
    let result = if args.agree {
        agree(&args)
    } else if let Some(name) = &args.workload {
        driver_run(&args, name)
    } else {
        suite(&args)
    };
    // Deployments (and their server children) are dropped by now.
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("vrr-loadgen: {e}");
            ExitCode::from(3)
        }
    }
}

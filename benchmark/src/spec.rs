//! What the benchmark is: its workloads, its metrics with units and
//! regression bounds, and the load shape. `BENCHMARK.json` at the repo
//! root is generated from these tables (`run.sh --manifest`), so the gate
//! `agree.sh` applies and the file the driver reads cannot drift apart.

/// Keys pre-bound during set-up; also the hosted store's shard capacity.
pub const KEYS: u64 = 1024;
/// Closed-loop client threads (= cores of the reference box); client `c`
/// reads at reader index `c`.
pub const CLIENTS: usize = 2;
/// Seconds of load before measurement starts.
pub const WARMUP_S: f64 = 2.0;
/// A gated metric is the median of its per-window values. Even, so a
/// traced run can alternate spans-off and spans-on windows.
pub const WINDOWS: usize = 20;
/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// Measured seconds the driver asks for (`run_seconds` in BENCHMARK.json).
pub const DRIVER_SECONDS: u64 = 20;
/// Measured seconds of the stand-alone suite (`run.sh` without `--workload`).
pub const SUITE_SECONDS: f64 = 30.0;
/// Value the Byzantine objects forge; no client ever writes it.
pub const FORGED: u64 = 0xBAD_F00D_DEAD_BEEF;
/// Routing seed of every `StoreRouter` the benchmark deploys.
pub const ROUTER_SEED: u64 = 42;

/// One traffic mix over one deployment.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Over loopback TCP to a `vrr-server` child (else in-proc).
    pub remote: bool,
    /// Share of WRITEs, percent.
    pub write_pct: u64,
    /// `optimal(2,1,2)` with a Conflicter and a crashed object per shard
    /// (else fault-free `optimal(1,1,2)`).
    pub byzantine: bool,
    /// One line for BENCHMARK.json: why it exists, and what it predicts.
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "remote-read-heavy",
        remote: true,
        write_pct: 5,
        byzantine: false,
        why: "95/5 through StoreRouter->RemoteCluster->vrr-server->ShardedStore->executor: the headline path; vrr-net does most of the work, so reactor.*/budget.net_hop_us move read_p50_us here",
    },
    Workload {
        name: "inproc-read-heavy",
        remote: false,
        write_pct: 5,
        byzantine: false,
        why: "same ops on an in-proc ShardedStore: vrr-net is bypassed, so a vrr-net change predicts no change here; executor.*/budget.storage_us show here first, ~1/3-diluted on remote-*",
    },
    Workload {
        name: "remote-write-heavy",
        remote: true,
        write_pct: 50,
        byzantine: false,
        why: "50/50 over the remote path: per-key write lock, two-round writer and KeepAll history growth, so a read gain paid by writes or shard.history_len_max slowing reads shows in write_p50_us",
    },
    Workload {
        name: "inproc-byzantine",
        remote: false,
        write_pct: 5,
        byzantine: true,
        why: "95/5 in-proc at S=6 with a Conflicter and a crashed object per shard: reader candidate elimination and the S-t wait dominate; an honest-run-only fast path predicts no change here",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    e2e(name, unit, higher, 0.0)
}

/// What a caller of `StoreRouter::read`/`write` waits for, in
/// reference-box units (divided by the run's own host factor, see
/// `probe`). The 99th percentiles are reported per layer instead: no
/// normalisation makes them repeat within a tenth on the reference box.
pub const END_TO_END: [Metric; 4] = [
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("read_p50_us", "us", false, 0.25),
    e2e("write_p50_us", "us", false, 0.25),
    e2e("setup_s", "s", false, 0.25),
];

/// Single-layer metrics, named `<module>.<what>`. Reported by traced runs.
pub const PER_LAYER: [Metric; 54] = [
    // Deltas of public snapshots and /proc over the loaded interval.
    layer("executor.sweeps_per_op", "count", false),
    layer("executor.wakeups_per_op", "count", false),
    layer("executor.commands_per_op", "count", false),
    layer("core.read_rounds_mean", "count", false),
    layer("core.write_rounds_mean", "count", false),
    layer("core.fast_hit_ratio", "ratio", true),
    layer("reactor.frames_per_op", "count", false),
    layer("reactor.bytes_per_op", "B", false),
    layer("reactor.decode_errors", "count", false),
    layer("remote.retries", "count", false),
    layer("node.cpu_us_per_op", "us", false),
    layer("node.threads_peak", "count", false),
    layer("node.peak_rss_mib", "MiB", false),
    layer("loadgen.cpu_us_per_op", "us", false),
    layer("shard.history_len_max", "count", false),
    layer("scaleout.read_p999_us", "us", false),
    // Span p50s of the traced ladder, one entry point per rung.
    layer("frame.codec_ns", "ns", false),
    layer("ring.route_ns", "ns", false),
    layer("storage.read_us", "us", false),
    layer("storage.write_us", "us", false),
    layer("shard.read_us", "us", false),
    layer("shard.write_us", "us", false),
    layer("scaleout.inproc_read_us", "us", false),
    layer("scaleout.inproc_write_us", "us", false),
    layer("client.ping_us", "us", false),
    layer("client.read_us", "us", false),
    layer("client.write_us", "us", false),
    layer("remote.read_us", "us", false),
    layer("remote.write_us", "us", false),
    layer("scaleout.remote_read_us", "us", false),
    layer("scaleout.remote_write_us", "us", false),
    // Self times: the remote-READ budget.
    layer("budget.scaleout_us", "us", false),
    layer("budget.remote_us", "us", false),
    layer("budget.net_hop_us", "us", false),
    layer("budget.store_us", "us", false),
    layer("budget.shard_us", "us", false),
    layer("budget.storage_us", "us", false),
    layer("budget.frame_us", "us", false),
    layer("trace.overhead_pct", "%", false),
    // Exact counts from a seeded simulator run, and the oracles' cost.
    layer("core.msgs_per_read", "count", false),
    layer("core.bytes_per_read", "B", false),
    layer("core.msgs_per_write", "count", false),
    layer("core.bytes_per_write", "B", false),
    layer("sim.cycle_us", "us", false),
    layer("checker.verify_ms", "ms", false),
    // Tails as the clock read them: they do not repeat within a tenth on
    // the reference box, so they are reported, not gated.
    layer("scaleout.read_p99_us", "us", false),
    layer("scaleout.write_p99_us", "us", false),
    layer("scaleout.write_p999_us", "us", false),
    // The host as the probes saw it, and the gated metrics before they
    // were divided by `host.factor`.
    layer("host.factor", "ratio", false),
    layer("host.wake_us", "us", false),
    layer("host.loopback_us", "us", false),
    layer("raw.ops_per_s", "1/s", true),
    layer("raw.read_p50_us", "us", false),
    layer("raw.write_p50_us", "us", false),
];

/// `BENCHMARK.json`, exactly the keys the driver's contract names.
pub fn manifest_json() -> String {
    let rows = |rows: Vec<String>| rows.join(",\n");
    let metric = |m: &Metric, bound: String| {
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            m.name,
            m.unit,
            better(m)
        )
    };
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {DRIVER_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        rows(
            WORKLOADS
                .iter()
                .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
                .collect()
        ),
        rows(
            END_TO_END
                .iter()
                .map(|m| metric(m, format!(", \"bound\": {}", m.bound)))
                .collect()
        ),
        rows(PER_LAYER.iter().map(|m| metric(m, String::new())).collect()),
    )
}

fn better(m: &Metric) -> &'static str {
    if m.higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

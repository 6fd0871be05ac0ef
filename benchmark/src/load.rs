//! The closed loop: `CLIENTS` threads, each issuing its own seeded op
//! stream through `StoreRouter::read`/`try_write` and waiting for every
//! reply. Every call is timed from outside; nothing inside the program is
//! touched.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use vrr_workload::ZipfianKeys;

use crate::deploy::Router;
use crate::probe::{self, Probe, ProbeSample};
use crate::spec::{Workload, CLIENTS, KEYS, WINDOWS};
use crate::stats::{median, percentile, SplitMix64};

/// One generated operation.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub key: u64,
    /// `Some(value)` for a WRITE, `None` for a READ.
    pub write: Option<u64>,
}

/// Client `client`'s op stream: a pure function of `(seed, client)`.
/// Keys are scrambled YCSB Zipfian (θ = 0.99); a WRITE goes to the drawn
/// key's neighbour owned by this client (`key % CLIENTS == client`), so
/// every key keeps a single writer, as the register model and the
/// checker require; written values are unique per `(client, seq)`.
pub struct OpStream {
    keys: ZipfianKeys,
    mix: SplitMix64,
    client: u64,
    write_pct: u64,
    seq: u64,
}

impl OpStream {
    pub fn new(w: &Workload, seed: u64, client: usize) -> Self {
        let mut derive = SplitMix64(seed ^ (client as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        OpStream {
            keys: ZipfianKeys::ycsb(KEYS, derive.next()),
            mix: SplitMix64(derive.next()),
            client: client as u64,
            write_pct: w.write_pct,
            seq: 0,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let key = self.keys.next_scrambled();
        if self.mix.next() % 100 < self.write_pct {
            self.seq += 1;
            Op {
                key: key - key % CLIENTS as u64 + self.client,
                write: Some((self.client + 1) << 48 | self.seq),
            }
        } else {
            Op { key, write: None }
        }
    }
}

/// One completed (or failed) call, as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct OpRecord {
    pub start_ns: u64,
    pub end_ns: u64,
    pub key: u16,
    pub is_write: bool,
    /// Replied, and a READ returned a value.
    pub ok: bool,
    pub ts: u64,
    pub value: u64,
}

/// An in-memory span around one call into a layer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op_id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<&'static str>,
}

/// What one client thread brings back.
pub struct ClientLog {
    pub records: Vec<OpRecord>,
    pub spans: Vec<Span>,
    pub probes: Vec<ProbeSample>,
    /// The client thread got a vCPU of its own.
    pub pinned: bool,
}

/// When the loop runs and which of its windows record spans.
#[derive(Clone, Copy, Debug)]
pub struct LoadPlan {
    pub warmup_ns: u64,
    pub measure_ns: u64,
    /// Spans on in odd windows (traced runs; spans-off and spans-on
    /// windows alternate, so drift hits both sides alike); else never.
    pub trace: bool,
    /// The workload crosses the loopback (selects the host factor).
    pub remote: bool,
}

impl LoadPlan {
    pub fn new(w: &Workload, warmup_s: f64, measure_s: f64, trace: bool) -> Self {
        LoadPlan {
            warmup_ns: (warmup_s * 1e9) as u64,
            measure_ns: (measure_s * 1e9) as u64,
            trace,
            remote: w.remote,
        }
    }

    fn stop_ns(&self) -> u64 {
        self.warmup_ns + self.measure_ns
    }

    fn window_ns(&self) -> u64 {
        self.measure_ns / WINDOWS as u64
    }

    /// The window `t_ns` (since the loop started) falls in, if measured.
    pub fn window_of(&self, t_ns: u64) -> Option<usize> {
        let t = t_ns.checked_sub(self.warmup_ns)?;
        let w = (t / self.window_ns()) as usize;
        (w < WINDOWS).then_some(w)
    }

    fn spans_on(&self, t_ns: u64) -> bool {
        self.trace && self.window_of(t_ns).is_some_and(|w| w % 2 == 1)
    }

    /// Probe rounds of one run; both clients must make exactly this many.
    fn probe_rounds(&self) -> usize {
        (self.stop_ns() / probe::EVERY_NS) as usize
    }
}

fn issue(router: &Router, op: Op, reader: usize) -> Option<(u64, u64)> {
    match op.write {
        Some(value) => router
            .try_write(op.key, value)
            .ok()
            .map(|report| (report.ts.0, value)),
        None => {
            let report = router.read(&op.key, reader)?;
            Some((report.ts.0, report.value?))
        }
    }
}

fn client_loop(
    router: &Router,
    mut stream: OpStream,
    client: usize,
    epoch: Instant,
    plan: LoadPlan,
    probe: &Probe,
) -> ClientLog {
    let now = || epoch.elapsed().as_nanos() as u64;
    // Reserved up front so no reallocation lands inside a measured call;
    // 60k ops/s per client is ~3x the fastest path measured.
    let expected_ops = (plan.stop_ns() as f64 * 60e-6) as usize;
    let mut records = Vec::with_capacity(expected_ops);
    let mut spans = Vec::with_capacity(if plan.trace { expected_ops } else { 0 });
    let mut probes = Vec::with_capacity(plan.probe_rounds());
    let mut next_probe_ns = probe::EVERY_NS;
    // Pinned, the two clients never share a vCPU and the probes between
    // them always cross vCPUs: one scheduling mode instead of two.
    let pinned = probe::pin_current_thread(client);
    probe.register(client);
    loop {
        let op = stream.next_op();
        let mut start_ns = now();
        if start_ns >= plan.stop_ns() {
            break;
        }
        if start_ns >= next_probe_ns && probes.len() < plan.probe_rounds() {
            let sample = probe.round(client, epoch);
            next_probe_ns = sample.end_ns + probe::EVERY_NS;
            probes.push(sample);
            start_ns = now();
        }
        // A panic (timeout, dead backend) is a failed op, not a dead client.
        let outcome = catch_unwind(AssertUnwindSafe(|| issue(router, op, client)));
        let end_ns = now();
        if plan.spans_on(start_ns) {
            spans.push(Span {
                name: if op.write.is_some() {
                    "scaleout.write"
                } else {
                    "scaleout.read"
                },
                op_id: (client as u64) << 32 | records.len() as u64,
                start_ns,
                end_ns,
                parent: None,
            });
        }
        let (ok, ts, value) = match outcome {
            Ok(Some((ts, value))) => (true, ts, value),
            _ => (false, 0, 0),
        };
        records.push(OpRecord {
            start_ns,
            end_ns,
            key: op.key as u16,
            is_write: op.write.is_some(),
            ok,
            ts,
            value,
        });
    }
    // The other client may still be waiting at a round's barrier.
    while probes.len() < plan.probe_rounds() {
        probes.push(probe.round(client, epoch));
    }
    ClientLog {
        records,
        spans,
        probes,
        pinned,
    }
}

/// Runs the closed loop to completion and returns every client's log.
pub fn run(
    router: &Router,
    w: &Workload,
    seed: u64,
    plan: LoadPlan,
) -> Result<Vec<ClientLog>, String> {
    let probe = Probe::new().map_err(|e| format!("host probe: {e}"))?;
    let probe = &probe;
    let epoch = Instant::now();
    Ok(std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let stream = OpStream::new(w, seed, client);
                scope.spawn(move || client_loop(router, stream, client, epoch, plan, probe))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client loop catches op panics"))
            .collect()
    }))
}

/// The client-observed numbers of one run. The gated ones are in
/// reference-box units: each window's value divided by that window's host
/// factor (see `probe`); the `raw_*` ones are as the clock read them.
#[derive(Clone, Debug, Default)]
pub struct Observed {
    pub ops_per_s: f64,
    pub read_p50_us: f64,
    pub write_p50_us: f64,
    pub raw_ops_per_s: f64,
    pub raw_read_p50_us: f64,
    pub raw_read_p99_us: f64,
    pub raw_write_p50_us: f64,
    pub raw_write_p99_us: f64,
    /// Whole-interval diagnostic tails, raw.
    pub read_p999_us: f64,
    pub write_p999_us: f64,
    /// Median host factor and probe values over the measured interval.
    pub host_factor: f64,
    pub host_wake_us: f64,
    pub host_loopback_us: f64,
    /// Samples behind the medians above (measured interval).
    pub reads: usize,
    pub writes: usize,
    /// Every call issued, warm-up included, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Relative throughput loss of the spans-on windows (traced runs).
    pub trace_overhead_pct: f64,
}

/// Folds the logs into per-window values and takes their medians.
pub fn observe(logs: &[ClientLog], plan: &LoadPlan) -> Observed {
    let mut reads: Vec<Vec<u64>> = vec![Vec::new(); WINDOWS];
    let mut writes: Vec<Vec<u64>> = vec![Vec::new(); WINDOWS];
    let mut out = Observed::default();
    for rec in logs.iter().flat_map(|log| &log.records) {
        out.attempted += 1;
        if !rec.ok {
            out.failed += 1;
            continue;
        }
        if let Some(w) = plan.window_of(rec.end_ns) {
            let lat = rec.end_ns - rec.start_ns;
            if rec.is_write {
                writes[w].push(lat);
            } else {
                reads[w].push(lat);
            }
        }
    }
    for lats in reads.iter_mut().chain(writes.iter_mut()) {
        lats.sort_unstable();
    }

    // Per window: the time the probes took out of it, and its host factor.
    let mut probe_ns = [0u64; WINDOWS];
    let mut factors: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS];
    let measured: Vec<&ProbeSample> = logs[0]
        .probes
        .iter()
        .filter(|p| plan.window_of(p.start_ns).is_some())
        .collect();
    for p in &measured {
        let w = plan.window_of(p.start_ns).expect("filtered");
        probe_ns[w] += p.end_ns - p.start_ns;
        factors[w].push(p.factor(plan.remote));
    }
    // A window too short to hold a probe round takes the run's factor; a
    // run too short to hold one (`--seconds` under a second) is left raw.
    let host_factor = match factors.concat() {
        all if all.is_empty() => 1.0,
        all => median(&all),
    };
    let factor = |w: usize| {
        if factors[w].is_empty() {
            host_factor
        } else {
            median(&factors[w])
        }
    };
    let of_probes = |f: &dyn Fn(&ProbeSample) -> f64| {
        median(&measured.iter().map(|p| f(p)).collect::<Vec<_>>())
    };
    out.host_factor = host_factor;
    out.host_wake_us = of_probes(&|p| p.wake_ns / 1e3);
    out.host_loopback_us = of_probes(&|p| p.loopback_ns / 1e3);

    let rate = |w: usize| {
        let loaded_s = (plan.window_ns() - probe_ns[w].min(plan.window_ns() - 1)) as f64 / 1e9;
        (reads[w].len() + writes[w].len()) as f64 / loaded_s
    };
    let per_window =
        |f: &dyn Fn(usize) -> f64| -> f64 { median(&(0..WINDOWS).map(f).collect::<Vec<_>>()) };
    let p50 = |lats: &[u64]| percentile(lats, 50.0) / 1e3;
    let p99 = |lats: &[u64]| percentile(lats, 99.0) / 1e3;
    out.ops_per_s = per_window(&|w| rate(w) * factor(w));
    out.read_p50_us = per_window(&|w| p50(&reads[w]) / factor(w));
    out.write_p50_us = per_window(&|w| p50(&writes[w]) / factor(w));
    out.raw_ops_per_s = per_window(&rate);
    out.raw_read_p50_us = per_window(&|w| p50(&reads[w]));
    out.raw_read_p99_us = per_window(&|w| p99(&reads[w]));
    out.raw_write_p50_us = per_window(&|w| p50(&writes[w]));
    out.raw_write_p99_us = per_window(&|w| p99(&writes[w]));
    if plan.trace {
        let side = |parity: usize| {
            median(
                &(0..WINDOWS)
                    .filter(|w| w % 2 == parity)
                    .map(|w| rate(w) * factor(w))
                    .collect::<Vec<_>>(),
            )
        };
        let (off, on) = (side(0), side(1));
        if off > 0.0 {
            out.trace_overhead_pct = (off - on) / off * 100.0;
        }
    }
    let mut all_reads: Vec<u64> = reads.concat();
    let mut all_writes: Vec<u64> = writes.concat();
    all_reads.sort_unstable();
    all_writes.sort_unstable();
    out.read_p999_us = percentile(&all_reads, 99.9) / 1e3;
    out.write_p999_us = percentile(&all_writes, 99.9) / 1e3;
    out.reads = all_reads.len();
    out.writes = all_writes.len();

    out
}

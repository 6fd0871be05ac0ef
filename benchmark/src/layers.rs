//! Per-layer observations taken from outside: the program's own public
//! snapshots (Prometheus text from `StoreRouter::metrics_snapshot` or the
//! server's `Op::Metrics`) and `/proc/<pid>` of the process hosting the
//! store.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use vrr_core::metrics::names;
use vrr_net::NetClient;

use crate::deploy::Deployment;

/// Kernel clock ticks per second behind `/proc/<pid>/stat` (`USER_HZ`;
/// 100 on every Linux ABI).
const USER_HZ: f64 = 100.0;

/// One metrics snapshot, folded by family name: the sum over a family's
/// label sets (what counters and `_sum`/`_count` series want) and the
/// largest single series (what the history-length gauges want).
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    series: BTreeMap<String, (f64, f64)>,
}

impl Snapshot {
    pub fn parse(prometheus: &str) -> Snapshot {
        let mut series: BTreeMap<String, (f64, f64)> = BTreeMap::new();
        for line in prometheus.lines().filter(|l| !l.starts_with('#')) {
            let Some((head, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            // Histogram buckets are cumulative; summing them means nothing.
            let name = head.split('{').next().unwrap_or(head);
            if name.ends_with("_bucket") {
                continue;
            }
            let entry = series.entry(name.to_string()).or_insert((0.0, 0.0));
            entry.0 += value;
            entry.1 = entry.1.max(value);
        }
        Snapshot { series }
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.series.get(name).map_or(0.0, |s| s.0)
    }

    pub fn max(&self, name: &str) -> f64 {
        self.series.get(name).map_or(0.0, |s| s.1)
    }
}

/// The snapshot of whatever hosts the store: the router's merged registry
/// in-proc, the server's node+store registry over the wire.
pub fn snapshot(deployment: &Deployment) -> Result<Snapshot, String> {
    let text = match &deployment.server {
        Some(server) => server_metrics(server.addr)?,
        None => deployment.router.metrics_snapshot().to_prometheus(),
    };
    Ok(Snapshot::parse(&text))
}

fn server_metrics(addr: SocketAddr) -> Result<String, String> {
    let mut client = NetClient::<u64>::connect(addr).map_err(|e| format!("metrics dial: {e}"))?;
    client.metrics().map_err(|e| format!("Op::Metrics: {e}"))
}

/// Counter movement between two snapshots, per operation.
pub struct LayerDeltas<'a> {
    pub before: &'a Snapshot,
    pub after: &'a Snapshot,
    pub ops: f64,
}

impl LayerDeltas<'_> {
    pub fn delta(&self, name: &str) -> f64 {
        self.after.sum(name) - self.before.sum(name)
    }

    pub fn per_op(&self, name: &str) -> f64 {
        self.delta(name) / self.ops.max(1.0)
    }

    /// Mean of a histogram family over the interval (`_sum` / `_count`).
    pub fn mean(&self, family: &str) -> f64 {
        let count = self.delta(&format!("{family}_count"));
        if count > 0.0 {
            self.delta(&format!("{family}_sum")) / count
        } else {
            0.0
        }
    }

    pub fn fast_hit_ratio(&self) -> f64 {
        let reads = self.delta(&format!("{}_count", names::READER_ROUNDS));
        if reads > 0.0 {
            self.delta(names::READER_FAST_HITS) / reads
        } else {
            0.0
        }
    }
}

/// CPU seconds (user + system) a process has used, exited threads
/// included.
pub fn cpu_seconds(pid: u32) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the name.
    let Some((_, rest)) = stat.rsplit_once(") ") else {
        return 0.0;
    };
    let ticks: f64 = rest
        .split(' ')
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / USER_HZ
}

fn status_field(pid: u32, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set of a process, MiB (`VmHWM`).
pub fn peak_rss_mib(pid: u32) -> f64 {
    status_field(pid, "VmHWM:").map_or(0.0, |kib| kib / 1024.0)
}

/// Polls a process's thread count and keeps the peak — the observable of
/// the server's thread-per-request design.
pub struct ThreadSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<f64>,
}

impl ThreadSampler {
    pub fn start(pid: u32) -> ThreadSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let seen = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut peak = 0.0f64;
            while !seen.load(Ordering::Relaxed) {
                peak = peak.max(status_field(pid, "Threads:").unwrap_or(0.0));
                std::thread::sleep(Duration::from_millis(20));
            }
            peak
        });
        ThreadSampler { stop, handle }
    }

    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().unwrap_or(0.0)
    }
}

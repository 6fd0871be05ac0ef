//! Shared by the `vrr-net` test binaries: the `vrr-server` child-process
//! guard and the seeded generator their schedules draw from (each binary
//! compiles this module for itself, and not every one uses every item).
#![allow(dead_code)]

use std::ffi::OsString;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, Receiver};
use std::thread::JoinHandle;
use std::time::Duration;

/// SplitMix64: deterministic schedules and structures per seed.
pub struct Gen(pub u64);

impl Gen {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// `addrs` as the value of `--addrs`.
pub fn addr_list(addrs: &[SocketAddr]) -> String {
    let addrs: Vec<String> = addrs.iter().map(SocketAddr::to_string).collect();
    addrs.join(",")
}

/// How long a server may take to print a banner line before the test
/// fails (instead of hanging on a silent child).
const BANNER_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `vrr-server`: killed and reaped on drop.
pub struct Server {
    child: Child,
    stdout: Option<JoinHandle<()>>,
    /// The address of its `READY` banner.
    pub addr: SocketAddr,
    /// The address of its `METRICS` banner, if it was asked for one.
    pub metrics_addr: Option<SocketAddr>,
}

impl Server {
    /// Spawns `vrr-server` with `args` and waits for its `READY` banner —
    /// and for the `METRICS` one if `args` contain `--metrics-addr`. Panics
    /// if a banner does not arrive within [`BANNER_TIMEOUT`], the server
    /// exits first, or the line is not the banner expected.
    pub fn spawn(args: impl IntoIterator<Item = impl Into<OsString>>) -> Server {
        let args: Vec<OsString> = args.into_iter().map(Into::into).collect();
        let wants_metrics = args.iter().any(|a| a == "--metrics-addr");
        let mut child = Command::new(env!("CARGO_BIN_EXE_vrr-server"))
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn vrr-server");
        // A pipe read has no deadline, so a thread does the reading; it
        // ends with the child (EOF) and is joined in `kill`.
        let pipe = child.stdout.take().expect("piped stdout");
        let (tx, lines) = channel();
        let stdout = std::thread::spawn(move || {
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        // A guard before the banners are read, so that a panic over them
        // kills the child on the way out.
        let mut server = Server {
            child,
            stdout: Some(stdout),
            addr: SocketAddr::from(([0, 0, 0, 0], 0)),
            metrics_addr: None,
        };
        server.addr = banner(&lines, "READY");
        if wants_metrics {
            server.metrics_addr = Some(banner(&lines, "METRICS"));
        }
        server
    }

    /// Waits for the process to exit on its own, as after a shutdown op.
    pub fn wait(&mut self) {
        self.child.wait().ok();
    }

    /// Kills the process and reaps it (idempotent).
    pub fn kill(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
        if let Some(stdout) = self.stdout.take() {
            stdout.join().ok();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

fn banner(lines: &Receiver<String>, tag: &str) -> SocketAddr {
    let line = lines
        .recv_timeout(BANNER_TIMEOUT)
        .unwrap_or_else(|e| panic!("vrr-server printed no {tag} banner: {e}"));
    line.strip_prefix(tag)
        .and_then(|addr| addr.trim().parse().ok())
        .unwrap_or_else(|| panic!("unexpected server banner, wanted {tag}: {line:?}"))
}

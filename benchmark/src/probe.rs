//! Host-speed probes. The reference box is a shared 2-vCPU VM on which a
//! cross-vCPU thread wake-up costs ~20 us and, like memory latency, swings
//! by up to 2x for minutes at a time (README, "Why host-normalised"), so
//! no raw time repeats within any bound the driver accepts. The two client
//! threads, each pinned to its own vCPU, therefore pause the load every
//! `EVERY_NS` for a few milliseconds and time two fixed kernels that
//! belong to the benchmark, not to the program:
//!
//! * `wake` — unpark-to-running latency of a parked thread (futex + IPI),
//! * `loopback` — a 64-byte TCP ping-pong between the two threads (two
//!   sleeps, two wake-ups and four small syscalls per round trip).
//!
//! A load window's host factor is the probes' slowdown against the
//! nominal values below; end-to-end times are divided by it.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

use crate::spec::CLIENTS;

const _: () = assert!(CLIENTS == 2, "the probes are a two-thread ping-pong");

/// Load time between two probe rounds.
pub const EVERY_NS: u64 = 250_000_000;

const WAKE_ROUNDS: usize = 60;
/// How long the waker spins before each unpark, so the sleeper is parked.
const WAKE_SETTLE: Duration = Duration::from_micros(25);
const LOOPBACK_ROUNDS: u32 = 40;

/// The probes' values on the reference box when nothing disturbs it
/// (lower quartile over 40 runs); they only fix the unit,
/// "reference-box microseconds", not the steadiness.
const NOMINAL_WAKE_NS: f64 = 18_000.0;
const NOMINAL_LOOPBACK_NS: f64 = 48_000.0;

/// One probe round.
#[derive(Clone, Copy, Debug)]
pub struct ProbeSample {
    /// When the round started and ended (ns since the loop's epoch).
    pub start_ns: u64,
    pub end_ns: u64,
    /// Median nanoseconds from `unpark` to the sleeper running.
    pub wake_ns: f64,
    /// Nanoseconds per loopback round trip.
    pub loopback_ns: f64,
}

impl ProbeSample {
    /// How much slower than nominal the host ran this round. An in-process
    /// op is a chain of cross-thread hand-offs, which is what the loopback
    /// ping-pong is made of. A remote op fans out over more runnable
    /// threads than vCPUs (reactor, event loop, a thread per request,
    /// workers), where the wake-up latency compounds: its slowdown tracks
    /// the product of both probes (README has the measured comparison).
    pub fn factor(&self, remote: bool) -> f64 {
        let loopback = self.loopback_ns / NOMINAL_LOOPBACK_NS;
        if remote {
            loopback * self.wake_ns / NOMINAL_WAKE_NS
        } else {
            loopback
        }
    }
}

/// Pins the calling thread to the `index`-th CPU this process may run on,
/// through `taskset` (no libc here). False if that was not possible.
pub fn pin_current_thread(index: usize) -> bool {
    let allowed = || -> Option<Vec<usize>> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let list = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
        let mut cpus = Vec::new();
        for part in list.trim().split(',') {
            let (lo, hi) = part.split_once('-').unwrap_or((part, part));
            cpus.extend(lo.parse::<usize>().ok()?..=hi.parse::<usize>().ok()?);
        }
        Some(cpus)
    };
    let tid = || -> Option<String> {
        let link = std::fs::read_link("/proc/thread-self").ok()?;
        Some(link.file_name()?.to_string_lossy().into_owned())
    };
    let (Some(cpus), Some(tid)) = (allowed(), tid()) else {
        return false;
    };
    if cpus.len() < CLIENTS {
        return false;
    }
    std::process::Command::new("taskset")
        .args(["-p", "-c", &cpus[index % cpus.len()].to_string(), &tid])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

pub struct Probe {
    barrier: Barrier,
    threads: [OnceLock<Thread>; CLIENTS],
    /// Epoch nanoseconds of the waker's latest `unpark`; 0 = none pending.
    woken_at: AtomicU64,
    /// The sleeper's median wake-up latency of the current round.
    wake_ns: AtomicU64,
    sockets: [Mutex<TcpStream>; CLIENTS],
}

impl Probe {
    pub fn new() -> std::io::Result<Probe> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let a = TcpStream::connect(listener.local_addr()?)?;
        let (b, _) = listener.accept()?;
        for socket in [&a, &b] {
            socket.set_nodelay(true)?;
            // If one side ever fails, the other must not wait for ever.
            socket.set_read_timeout(Some(Duration::from_secs(5)))?;
        }
        Ok(Probe {
            barrier: Barrier::new(CLIENTS),
            threads: [OnceLock::new(), OnceLock::new()],
            woken_at: AtomicU64::new(0),
            wake_ns: AtomicU64::new(0),
            sockets: [Mutex::new(a), Mutex::new(b)],
        })
    }

    /// Each client thread calls this once before its first round.
    pub fn register(&self, client: usize) {
        self.threads[client]
            .set(std::thread::current())
            .expect("one thread per client");
        self.barrier.wait();
    }

    /// One round; both client threads call it at the same point of their
    /// loops and get the same values.
    pub fn round(&self, client: usize, epoch: Instant) -> ProbeSample {
        let now = || epoch.elapsed().as_nanos() as u64;
        self.barrier.wait();
        let start_ns = now();

        if client == 0 {
            let sleeper = self.threads[1].get().expect("registered");
            for _ in 0..WAKE_ROUNDS {
                let settle = Instant::now();
                while settle.elapsed() < WAKE_SETTLE {
                    std::hint::spin_loop();
                }
                self.woken_at.store(now().max(1), Ordering::Release);
                sleeper.unpark();
                while self.woken_at.load(Ordering::Acquire) != 0 {
                    std::hint::spin_loop();
                }
            }
        } else {
            let mut wakes = Vec::with_capacity(WAKE_ROUNDS);
            for _ in 0..WAKE_ROUNDS {
                let mut sent = self.woken_at.load(Ordering::Acquire);
                while sent == 0 {
                    std::thread::park();
                    sent = self.woken_at.load(Ordering::Acquire);
                }
                wakes.push(now().saturating_sub(sent));
                self.woken_at.store(0, Ordering::Release);
            }
            wakes.sort_unstable();
            self.wake_ns
                .store(wakes[WAKE_ROUNDS / 2], Ordering::Release);
        }
        self.barrier.wait();

        let mut socket = self.sockets[client].lock().expect("probe socket");
        let mut buf = [0u8; 64];
        let started = Instant::now();
        for _ in 0..LOOPBACK_ROUNDS {
            // Client 0 serves, client 1 returns.
            let round_trip = if client == 0 {
                socket
                    .write_all(&buf)
                    .and_then(|()| socket.read_exact(&mut buf))
            } else {
                socket
                    .read_exact(&mut buf)
                    .and_then(|()| socket.write_all(&buf))
            };
            round_trip.expect("loopback probe socket");
        }
        let loopback_ns = started.elapsed().as_nanos() as f64 / f64::from(LOOPBACK_ROUNDS);
        drop(socket);
        self.barrier.wait();
        ProbeSample {
            start_ns,
            end_ns: now(),
            wake_ns: self.wake_ns.load(Ordering::Acquire) as f64,
            loopback_ns,
        }
    }
}

//! Which CPU a thread runs on, and a listener tagged with one: what keeps
//! a remote round trip on one CPU. Each reactor lane pins itself to one
//! CPU of the process's allowed set and accepts on a [`listener`] of its
//! own tagged with that CPU; the lanes' listeners share one port, and the
//! kernel hands a connection to the listener tagged with the CPU its `SYN`
//! came in on. On loopback the kernel takes a packet in on the CPU of the
//! thread that sent it, so a connection lands on the lane of the CPU it
//! was dialed from, and a [`crate::RemoteCluster`] caller, which checks
//! out the connection dialed from its own CPU, shares that CPU with the
//! lane serving it.
//!
//! The C library `std` already links provides the calls; declaring them
//! here, as the vendored `mio` declares epoll, avoids a `libc` crate. The
//! CPU queries report failure as "unknown" (empty, `false`, `None`), where
//! the callers fall back to what they did without CPUs.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::{FromRawFd, OwnedFd};
use std::os::raw::{c_int, c_void};

/// `cpu_set_t`: one bit per CPU, 1,024 CPUs.
type CpuSet = [u64; 16];

const SET_BITS: usize = 1024;
const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;
/// `SOCK_STREAM | SOCK_CLOEXEC`.
const STREAM: c_int = 1 | 0o2000000;
const SOL_SOCKET: c_int = 1;
const SO_REUSEADDR: c_int = 2;
const SO_REUSEPORT: c_int = 15;
const SO_INCOMING_CPU: c_int = 49;
/// `std::net::TcpListener::bind`'s backlog.
const BACKLOG: c_int = 128;

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
    fn sched_getcpu() -> c_int;
    fn socket(domain: c_int, kind: c_int, protocol: c_int) -> c_int;
    fn setsockopt(fd: c_int, level: c_int, name: c_int, value: *const c_void, len: u32) -> c_int;
    fn bind(fd: c_int, addr: *const c_void, len: u32) -> c_int;
    fn listen(fd: c_int, backlog: c_int) -> c_int;
}

/// The CPUs the calling thread may run on, ascending (empty if the kernel
/// will not say).
pub fn allowed() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable `cpu_set_t` of exactly the size passed;
    // pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut set) } != 0 {
        return Vec::new();
    }
    (0..SET_BITS)
        .filter(|&cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Pins the calling thread to `cpu`; `false` if it could not be.
pub fn pin(cpu: usize) -> bool {
    if cpu >= SET_BITS {
        return false;
    }
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a `cpu_set_t` of exactly the size passed, only read;
    // pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, size_of::<CpuSet>(), &set) == 0 }
}

/// The CPU the calling thread is running on.
pub fn current() -> Option<usize> {
    // SAFETY: takes nothing, touches no memory of ours.
    usize::try_from(unsafe { sched_getcpu() }).ok()
}

/// A blocking listener on `addr` that shares the port with every other
/// listener of this user bound with `SO_REUSEPORT`, tagged with `cpu`
/// (`SO_INCOMING_CPU`): the kernel hands it the connections whose `SYN`
/// came in on that CPU, and one by hash of those whose CPU no listener of
/// the port carries. `addr` needs a concrete port. `SO_REUSEPORT` lets the
/// listener join a port another listener of this user holds, so a caller
/// that must not share one binds it plainly first, as the reactor does.
pub fn listener(addr: SocketAddr, cpu: Option<usize>) -> io::Result<TcpListener> {
    let family = if addr.is_ipv4() { AF_INET } else { AF_INET6 };
    let (raw, len) = sockaddr(family, addr);
    // SAFETY: takes only integers; the descriptor it returns is new.
    let fd = check(unsafe { socket(family.into(), STREAM, 0) })?;
    // SAFETY: `fd` is open and owned by nothing else.
    let owned = unsafe { OwnedFd::from_raw_fd(fd) };
    set(fd, SO_REUSEADDR, 1)?;
    set(fd, SO_REUSEPORT, 1)?;
    // SAFETY: `raw` holds a `sockaddr_in`/`sockaddr_in6` of `len` bytes.
    check(unsafe { bind(fd, raw.as_ptr().cast(), len) })?;
    if let Some(cpu) = cpu {
        set(fd, SO_INCOMING_CPU, cpu as c_int)?;
    }
    // SAFETY: takes only integers.
    check(unsafe { listen(fd, BACKLOG) })?;
    Ok(TcpListener::from(owned))
}

/// `addr` as the kernel's `sockaddr_in` (16 bytes) or `sockaddr_in6` (28).
fn sockaddr(family: u16, addr: SocketAddr) -> ([u8; 28], u32) {
    let mut raw = [0; 28];
    raw[..2].copy_from_slice(&family.to_ne_bytes());
    raw[2..4].copy_from_slice(&addr.port().to_be_bytes());
    match addr {
        SocketAddr::V4(v4) => {
            raw[4..8].copy_from_slice(&v4.ip().octets());
            (raw, 16)
        }
        SocketAddr::V6(v6) => {
            raw[4..8].copy_from_slice(&v6.flowinfo().to_ne_bytes());
            raw[8..24].copy_from_slice(&v6.ip().octets());
            raw[24..].copy_from_slice(&v6.scope_id().to_ne_bytes());
            (raw, 28)
        }
    }
}

fn set(fd: c_int, name: c_int, value: c_int) -> io::Result<()> {
    let len = size_of::<c_int>() as u32;
    // SAFETY: `value` is a readable `c_int` and `len` its size; an invalid
    // descriptor only fails the call.
    check(unsafe { setsockopt(fd, SOL_SOCKET, name, (&value as *const c_int).cast(), len) })
        .map(drop)
}

fn check(rc: c_int) -> io::Result<c_int> {
    (rc >= 0).then_some(rc).ok_or_else(io::Error::last_os_error)
}

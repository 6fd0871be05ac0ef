//! Which CPU a thread runs on, and which CPU a connection arrived on: what
//! keeps a remote round trip on one CPU. Each reactor lane pins itself to
//! one CPU of the process's allowed set, lane 0 deals an accepted
//! connection to the lane on the CPU it arrived on, and a
//! [`crate::RemoteCluster`] caller checks out the connection dialed from
//! its own CPU. On loopback the kernel takes a packet in on the CPU of the
//! thread that sent it, so a connection dialed and written to from one CPU
//! arrives on it, and caller and lane share that CPU.
//!
//! The C library `std` already links provides the calls; declaring them
//! here, as the vendored `mio` declares epoll, avoids a `libc` crate. Every
//! function reports failure as "unknown" (empty, `false`, `None`), where the
//! callers fall back to what they did without CPUs.

use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_void};

/// `cpu_set_t`: one bit per CPU, 1,024 CPUs.
type CpuSet = [u64; 16];

const SET_BITS: usize = 1024;
const SOL_SOCKET: c_int = 1;
const SO_INCOMING_CPU: c_int = 49;

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
    fn sched_getcpu() -> c_int;
    fn getsockopt(fd: c_int, level: c_int, name: c_int, value: *mut c_void, len: *mut u32)
        -> c_int;
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

/// The CPU the kernel took `socket`'s last packet in on
/// (`SO_INCOMING_CPU`). On a loopback connection just accepted, that is the
/// CPU of the thread that dialed it.
pub fn incoming(socket: &impl AsRawFd) -> Option<usize> {
    let (mut cpu, mut len): (c_int, u32) = (-1, size_of::<c_int>() as u32);
    // SAFETY: `cpu` is a writable `c_int` and `len` holds its size, as the
    // option's value needs; an invalid descriptor only fails the call.
    let rc = unsafe {
        getsockopt(
            socket.as_raw_fd(),
            SOL_SOCKET,
            SO_INCOMING_CPU,
            (&mut cpu as *mut c_int).cast(),
            &mut len,
        )
    };
    if rc == 0 {
        usize::try_from(cpu).ok()
    } else {
        None
    }
}

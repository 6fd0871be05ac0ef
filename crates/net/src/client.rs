//! The blocking thin client: a plain `std::net::TcpStream` speaking the
//! [`crate::frame`] protocol, no reactor involved.
//!
//! A [`NetClient`] holds one connection to one server and issues
//! request/response pairs ([`Op`] → [`Rsp`]) with correlation ids, plus
//! the metrics and fault-injection helpers ([`NetClient::metrics`] asks for
//! the node's one registry and renders its text here). Keyed reads and
//! writes go through [`crate::RemoteCluster`], which checks `NetClient`s
//! out per request.

use std::fmt;
use std::io::{self, Read, Write as IoWrite};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use vrr_core::wire::Wire;

use crate::frame::{
    encode_frame, Ctl, Envelope, FrameError, FrameReader, Op, Payload, Rsp, CLIENT_NODE,
};

/// How long a client waits for one response before giving up. Matches the
/// server-side blocking-operation timeout with headroom.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(40);

/// Bytes read from the socket per `read` call.
const READ_BUF: usize = 64 * 1024;

/// Bounded retry with exponential backoff and seeded jitter — the policy
/// [`NetClient::request_with_retry`] and `RemoteCluster` apply when a
/// connection drops mid-rebalance. The jitter stream is a pure function of
/// `seed`, so tests replaying a policy observe identical delays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Reconnect-and-resend attempts after the first failure (0 = fail
    /// fast).
    pub attempts: u32,
    /// Delay before the first retry; doubles per attempt.
    pub base: Duration,
    /// Ceiling on any single delay.
    pub cap: Duration,
    /// Seed of the jitter stream.
    pub seed: u64,
}

impl RetryPolicy {
    /// The default deployment policy: 4 attempts, 20ms doubling to a
    /// 500ms cap, jittered from `seed`.
    pub fn with_seed(seed: u64) -> Self {
        RetryPolicy {
            attempts: 4,
            base: Duration::from_millis(20),
            cap: Duration::from_millis(500),
            seed,
        }
    }

    /// The backoff schedule this policy generates.
    pub fn backoff(&self) -> Backoff {
        Backoff {
            policy: *self,
            attempt: 0,
            rng: self.seed,
        }
    }
}

/// The delay iterator of one request's retry budget: exponential growth to
/// the cap, each delay jittered into `[delay/2, delay]` by a seeded
/// SplitMix64 stream. Yields at most `policy.attempts` delays.
#[derive(Clone, Debug)]
pub struct Backoff {
    policy: RetryPolicy,
    attempt: u32,
    rng: u64,
}

impl Backoff {
    fn next_rand(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl Iterator for Backoff {
    type Item = Duration;

    fn next(&mut self) -> Option<Duration> {
        if self.attempt >= self.policy.attempts {
            return None;
        }
        let exp = self
            .policy
            .base
            .checked_mul(1u32 << self.attempt.min(20))
            .unwrap_or(self.policy.cap)
            .min(self.policy.cap);
        self.attempt += 1;
        let micros = u64::try_from(exp.as_micros()).unwrap_or(u64::MAX);
        let jittered = micros / 2 + self.next_rand() % (micros / 2 + 1);
        Some(Duration::from_micros(jittered))
    }
}

/// A thin-client failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server's byte stream could not be framed or decoded.
    Frame(FrameError),
    /// The server answered [`Rsp::Err`].
    Server(String),
    /// No response arrived within the request timeout.
    Timeout,
    /// The response variant did not match the request.
    Unexpected(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Frame(e) => write!(f, "frame: {e}"),
            ClientError::Server(what) => write!(f, "server error: {what}"),
            ClientError::Timeout => write!(f, "request timed out"),
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// One blocking connection to one `vrr-net` server.
pub struct NetClient<V> {
    addr: SocketAddr,
    stream: TcpStream,
    reader: FrameReader,
    /// The one socket read buffer, reused by every request.
    read_buf: Vec<u8>,
    next_id: u64,
    seq: u64,
    /// Requests re-sent after a connection failure (the
    /// `vrr_net_wire_retry_total` observable).
    retries: u64,
    _marker: std::marker::PhantomData<fn() -> V>,
}

impl<V: Wire> NetClient<V> {
    /// Connects and sends the client `Hello`.
    pub fn connect(addr: SocketAddr) -> Result<Self, ClientError> {
        let stream = Self::dial(addr)?;
        let mut client = NetClient {
            addr,
            stream,
            reader: FrameReader::new(),
            read_buf: vec![0; READ_BUF],
            next_id: 1,
            seq: 0,
            retries: 0,
            _marker: std::marker::PhantomData,
        };
        client.send(Payload::Ctl(Ctl::Hello {
            node: CLIENT_NODE,
            epoch: 0,
        }))?;
        Ok(client)
    }

    /// Like [`NetClient::connect`], but retries the dial through
    /// `policy`'s backoff schedule — for clients racing a server that is
    /// still printing its `READY` banner.
    pub fn connect_with_retry(addr: SocketAddr, policy: &RetryPolicy) -> Result<Self, ClientError> {
        let mut backoff = policy.backoff();
        loop {
            match Self::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) => match backoff.next() {
                    Some(delay) => std::thread::sleep(delay),
                    None => return Err(e),
                },
            }
        }
    }

    fn dial(addr: SocketAddr) -> Result<TcpStream, ClientError> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_millis(100)))?;
        Ok(stream)
    }

    /// The server this client dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests re-sent after connection failures over this client's
    /// lifetime (across reconnects).
    pub fn retry_count(&self) -> u64 {
        self.retries
    }

    /// Drops the (possibly dead) connection and dials the same server
    /// again with a fresh `Hello`. Pending buffered frames are discarded —
    /// correlation ids keep monotonically increasing, so a late response
    /// to a pre-reconnect request can never be confused with a new one.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        self.stream = Self::dial(self.addr)?;
        self.reader = FrameReader::new();
        self.send(Payload::Ctl(Ctl::Hello {
            node: CLIENT_NODE,
            epoch: 0,
        }))
    }

    fn send(&mut self, payload: Payload<V>) -> Result<(), ClientError> {
        let env = Envelope {
            source: CLIENT_NODE,
            epoch: 0,
            seq: self.seq,
            payload,
        };
        self.seq += 1;
        self.stream.write_all(&encode_frame(&env))?;
        Ok(())
    }

    /// Sends `op` and blocks until the matching response arrives. Server
    /// `Hello`s and unrelated envelopes on the stream are skipped.
    pub fn request(&mut self, op: Op<V>) -> Result<Rsp<V>, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        self.send(Payload::Ctl(Ctl::Request { id, op }))?;
        let deadline = Instant::now() + REQUEST_TIMEOUT;
        loop {
            // Drain complete frames already buffered before reading more.
            while let Some(body) = self.reader.next_frame()? {
                let env: Envelope<V> = crate::frame::decode_body(&body)?;
                if let Payload::Ctl(Ctl::Response { id: rid, rsp }) = env.payload {
                    if rid == id {
                        return Ok(rsp);
                    }
                }
            }
            if Instant::now() >= deadline {
                return Err(ClientError::Timeout);
            }
            match self.stream.read(&mut self.read_buf) {
                Ok(0) => return Err(ClientError::Io(io::ErrorKind::UnexpectedEof.into())),
                Ok(n) => self.reader.extend(&self.read_buf[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    /// [`NetClient::request`] under a [`RetryPolicy`]: a connection-level
    /// failure (socket error, unframeable stream, timeout) tears the
    /// connection down, sleeps one backoff delay, reconnects and re-sends
    /// the request — up to `policy.attempts` times, counting each re-send
    /// in [`NetClient::retry_count`]. A server-level [`Rsp::Err`] is *not*
    /// retried (the request was delivered and answered).
    ///
    /// Requests are idempotent at the register layer — a re-sent `WRITE`
    /// re-writes the same value under a fresh timestamp, which SWMR
    /// regularity absorbs — so re-sending after an ambiguous failure is
    /// safe.
    pub fn request_with_retry(
        &mut self,
        op: &Op<V>,
        policy: &RetryPolicy,
    ) -> Result<Rsp<V>, ClientError>
    where
        V: Clone,
    {
        let mut backoff = policy.backoff();
        loop {
            let attempt = self.request(op.clone());
            let err = match attempt {
                Ok(rsp) => return Ok(rsp),
                Err(e @ (ClientError::Io(_) | ClientError::Frame(_) | ClientError::Timeout)) => e,
                Err(e) => return Err(e),
            };
            let Some(delay) = backoff.next() else {
                return Err(err);
            };
            std::thread::sleep(delay);
            self.retries += 1;
            if let Err(redial) = self.reconnect() {
                // Dead server: keep burning the budget on the dial itself.
                match backoff.next() {
                    Some(delay) => std::thread::sleep(delay),
                    None => return Err(redial),
                }
            }
        }
    }

    /// Sends `op` and unwraps the one response variant it expects: `pick`
    /// returns the payload of that variant and `None` for anything else.
    /// How a mismatch is reported is decided here, once — a server-side
    /// [`Rsp::Err`] is [`ClientError::Server`], any other variant is
    /// [`ClientError::Unexpected`]`(wanted)`.
    fn expect<T>(
        &mut self,
        op: Op<V>,
        wanted: &'static str,
        pick: impl FnOnce(Rsp<V>) -> Option<T>,
    ) -> Result<T, ClientError> {
        match self.request(op)? {
            Rsp::Err { what } => Err(ClientError::Server(what)),
            rsp => pick(rsp).ok_or(ClientError::Unexpected(wanted)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.expect(Op::Ping, "wanted Pong", |rsp| {
            matches!(rsp, Rsp::Pong).then_some(())
        })
    }

    /// Fetches the node's metrics snapshot ([`Op::StoreMetrics`], no
    /// cluster label) and renders it in the Prometheus text encoding — the
    /// text HTTP `GET /metrics` serves.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let op = Op::StoreMetrics { cluster: None };
        self.expect(op, "wanted StoreMetrics", |rsp| match rsp {
            Rsp::StoreMetrics { registry } => Some(registry.to_prometheus()),
            _ => None,
        })
    }

    /// Crashes a server-hosted global pid (fault injection).
    pub fn crash_pid(&mut self, pid: u64) -> Result<(), ClientError> {
        self.expect(Op::CrashPid { pid }, "wanted Crashed", |rsp| {
            matches!(rsp, Rsp::Crashed).then_some(())
        })
    }

    /// Asks the server to close every connection it holds to peer `node`
    /// (fault injection: connection reset mid-protocol).
    pub fn reset_peer(&mut self, node: u32) -> Result<u32, ClientError> {
        self.expect(
            Op::ResetPeer { node },
            "wanted PeerReset",
            |rsp| match rsp {
                Rsp::PeerReset { closed } => Some(closed),
                _ => None,
            },
        )
    }

    /// Asks the server process to exit.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.expect(Op::Shutdown, "wanted ShuttingDown", |rsp| {
            matches!(rsp, Rsp::ShuttingDown).then_some(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_seeded_deterministic_and_bounded() {
        let policy = RetryPolicy {
            attempts: 5,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(80),
            seed: 42,
        };
        let a: Vec<Duration> = policy.backoff().collect();
        let b: Vec<Duration> = policy.backoff().collect();
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.len(), 5, "bounded by attempts");
        // Each delay sits in the jitter window [exp/2, exp] of the
        // exponential-with-cap envelope 10, 20, 40, 80, 80 ms.
        for (delay, envelope_ms) in a.iter().zip([10u64, 20, 40, 80, 80]) {
            let us = u64::try_from(delay.as_micros()).unwrap();
            let envelope_us = envelope_ms * 1_000;
            assert!(
                us >= envelope_us / 2 && us <= envelope_us,
                "{us}µs outside [{}, {envelope_us}]",
                envelope_us / 2
            );
        }
        let other: Vec<Duration> = RetryPolicy { seed: 43, ..policy }.backoff().collect();
        assert_ne!(a, other, "different seed, different jitter");
    }
}

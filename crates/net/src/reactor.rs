//! The socket reactor: one thread owning every TCP socket, driven by an
//! epoll [`mio::Poll`] loop.
//!
//! The reactor is deliberately body-agnostic — it moves opaque frame
//! bodies (`Vec<u8>`) in and out; envelope decoding happens in the
//! transport layer. What happens on a socket is handed, **on the reactor
//! thread**, to the [`Handler`] the reactor was started with: no event
//! channel, no second thread between a frame and whoever acts on it. A
//! handler must therefore never block; work that may (inspection over many
//! automata) is the handler's to hand off. Other threads talk to the
//! reactor through a command channel, woken by a [`mio::Waker`] — the
//! handler's own commands skip the wake, they are drained in the same loop
//! iteration. Once per iteration, and at least every [`TICK`], the handler
//! also gets [`Handler::on_tick`]: the one periodic timer in the crate.
//!
//! Written to the *edge-triggered* discipline even though the vendored
//! shim is level-triggered: reads drain to `WouldBlock`, writes go through
//! explicit per-connection queues, and `WRITABLE` interest is registered
//! only while a queue is non-empty. That makes the loop correct under
//! both trigger modes, so flipping the workspace back to crates.io mio
//! changes nothing here.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mio::net::{TcpListener, TcpStream};
use mio::{Events, Interest, Poll, Token, Waker};

use crate::frame::FrameReader;

/// Identifies one TCP connection for the reactor's lifetime. Ids are never
/// reused, so a stale id after a reconnect cannot alias the new socket.
pub type ConnId = u64;

const WAKER: Token = Token(0);
const LISTENER: Token = Token(1);
const HTTP_LISTENER: Token = Token(2);
const CONN_BASE: usize = 3;

/// Upper bound on the real time between two reactor ticks — a node's
/// deadline sweeps and redials: how long the reactor sleeps in `poll` when
/// no socket or command wakes it.
pub const TICK: Duration = Duration::from_millis(200);

/// Bytes read from a socket per `read` call (one buffer per reactor).
const READ_BUF: usize = 64 * 1024;

/// Distinguishes reactors within one process, so a handle can tell whether
/// it is being used from its own reactor's thread.
static NEXT_REACTOR: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The id of the reactor running on this thread (0 on other threads).
    static ON_REACTOR: Cell<u64> = const { Cell::new(0) };
}

/// Largest HTTP request head the metrics listener buffers before giving
/// up on the connection (a `GET /metrics` fits in a fraction of this).
const MAX_HTTP_HEAD: usize = 8 * 1024;

/// Monotonically-increasing transport counters, shared between the reactor
/// thread and metric snapshots.
#[derive(Debug, Default)]
pub struct NetCounters {
    /// Complete frames written to sockets.
    pub frames_sent: AtomicU64,
    /// Complete frames extracted from sockets.
    pub frames_received: AtomicU64,
    /// Payload bytes written (length prefixes included).
    pub bytes_sent: AtomicU64,
    /// Payload bytes read (length prefixes included).
    pub bytes_received: AtomicU64,
    /// Times a peer connection was re-established after being up.
    pub reconnects: AtomicU64,
    /// Frames or envelopes that failed to decode.
    pub decode_errors: AtomicU64,
}

/// Something that happened on a socket, reported to the reactor's
/// [`Handler`].
#[derive(Debug)]
pub enum NetEvent {
    /// An inbound connection was accepted.
    Accepted {
        /// The new connection.
        conn: ConnId,
    },
    /// An outbound connect completed; the connection is usable.
    Connected {
        /// The connection.
        conn: ConnId,
    },
    /// An outbound connect failed; the id is dead.
    ConnectFailed {
        /// The connection that never came up.
        conn: ConnId,
    },
    /// A complete frame body arrived.
    Frame {
        /// The connection it arrived on.
        conn: ConnId,
        /// The body bytes (length prefix stripped).
        body: Vec<u8>,
    },
    /// The byte stream on `conn` could not be framed; the reactor closed
    /// the connection (an unframeable stream cannot be resynchronized).
    FrameError {
        /// The connection that was closed.
        conn: ConnId,
    },
    /// The connection is gone (peer reset/close, write error, or a local
    /// [`ReactorHandle::close`]).
    Closed {
        /// The dead connection.
        conn: ConnId,
    },
    /// A complete HTTP request head arrived on the metrics listener.
    /// HTTP connections are invisible to the frame protocol: they emit
    /// only this event, and the handler answers with
    /// [`ReactorHandle::finish`].
    HttpRequest {
        /// The connection it arrived on.
        conn: ConnId,
        /// Raw head bytes up to and including the blank line.
        head: Vec<u8>,
    },
}

/// The consumer of a reactor's events, run on the reactor thread.
pub trait Handler: Send + 'static {
    /// One socket event. Must not block: every other connection waits.
    fn on_event(&mut self, ev: NetEvent);

    /// Called once per loop iteration after the iteration's events, at
    /// least every [`TICK`] — for periodic work (redials, deadlines).
    fn on_tick(&mut self) {}
}

enum Cmd {
    Connect { conn: ConnId, addr: SocketAddr },
    Send { conn: ConnId, frame: Vec<u8> },
    Finish { conn: ConnId, bytes: Vec<u8> },
    Close { conn: ConnId },
    Shutdown,
}

/// Thread-safe handle for talking to a running reactor.
#[derive(Clone)]
pub struct ReactorHandle {
    /// Which reactor this handle talks to (see `ON_REACTOR`).
    id: u64,
    cmd_tx: Sender<Cmd>,
    waker: Arc<Waker>,
    next_conn: Arc<AtomicU64>,
    counters: Arc<NetCounters>,
}

impl ReactorHandle {
    /// Starts an outbound connection; the result arrives later as
    /// [`NetEvent::Connected`] or [`NetEvent::ConnectFailed`].
    pub fn connect(&self, addr: SocketAddr) -> ConnId {
        let conn = self.next_conn.fetch_add(1, Ordering::Relaxed);
        self.push(Cmd::Connect { conn, addr });
        conn
    }

    /// Queues one already-encoded frame for `conn`. Frames on a dead or
    /// unknown connection are silently dropped (the transport learns of
    /// the death via [`NetEvent::Closed`] and rebuffers at its own layer).
    pub fn send(&self, conn: ConnId, frame: Vec<u8>) {
        self.push(Cmd::Send { conn, frame });
    }

    /// Queues raw `bytes` (no framing) for `conn`, then closes it once
    /// everything flushed — the HTTP response path, where a plain
    /// [`ReactorHandle::close`] would drop the queued body.
    pub fn finish(&self, conn: ConnId, bytes: Vec<u8>) {
        self.push(Cmd::Finish { conn, bytes });
    }

    /// Closes `conn`, dropping anything still queued on it.
    pub fn close(&self, conn: ConnId) {
        self.push(Cmd::Close { conn });
    }

    /// Stops the reactor thread; all sockets are dropped.
    pub fn shutdown(&self) {
        self.push(Cmd::Shutdown);
    }

    /// The shared transport counters.
    pub fn counters(&self) -> Arc<NetCounters> {
        self.counters.clone()
    }

    fn push(&self, cmd: Cmd) {
        // The reactor drains commands after the handler calls of the same
        // iteration: from its own thread the wake is a wasted syscall pair.
        if self.cmd_tx.send(cmd).is_ok() && ON_REACTOR.with(Cell::get) != self.id {
            let _ = self.waker.wake();
        }
    }
}

struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    outq: VecDeque<Vec<u8>>,
    /// Bytes of `outq.front()` already written.
    out_pos: usize,
    /// Outbound sockets stay `false` until the first writable event
    /// confirms `take_error() == None` (the mio connect protocol).
    connected: bool,
    /// Current `WRITABLE` registration state, to avoid redundant syscalls.
    want_write: bool,
    /// Accepted on the HTTP listener: bytes go to `http_buf` instead of
    /// the frame reader, and the connection never surfaces to the frame
    /// protocol's consumer.
    http: bool,
    /// Raw bytes buffered while waiting for a complete HTTP head.
    http_buf: Vec<u8>,
    /// Drop the connection once `outq` drains ([`ReactorHandle::finish`]).
    close_on_flush: bool,
}

impl Conn {
    fn new(stream: TcpStream, connected: bool, want_write: bool, http: bool) -> Self {
        Conn {
            stream,
            reader: FrameReader::new(),
            outq: VecDeque::new(),
            out_pos: 0,
            connected,
            want_write,
            http,
            http_buf: Vec::new(),
            close_on_flush: false,
        }
    }
}

/// A reactor whose listeners are bound but whose thread is not running
/// yet: the gap in which the caller builds the [`Handler`] — which usually
/// needs the [`ReactorHandle`] — before [`BoundReactor::run`].
pub struct BoundReactor {
    poll: Poll,
    listener: Option<TcpListener>,
    http_listener: Option<TcpListener>,
    cmd_rx: Receiver<Cmd>,
    handle: ReactorHandle,
    addr: Option<SocketAddr>,
    http_addr: Option<SocketAddr>,
}

/// Binds a reactor. With `listen = Some(addr)` it accepts inbound frame
/// connections; `http_listen` additionally binds a raw-byte HTTP listener
/// on the same epoll loop, whose connections emit
/// [`NetEvent::HttpRequest`] instead of frames and are answered with
/// [`ReactorHandle::finish`]. Port-0 addresses work: see
/// [`BoundReactor::addr`] / [`BoundReactor::http_addr`].
pub fn bind(
    listen: Option<SocketAddr>,
    http_listen: Option<SocketAddr>,
) -> io::Result<BoundReactor> {
    let poll = Poll::new()?;
    let waker = Arc::new(Waker::new(poll.registry(), WAKER)?);
    let mut listener = match listen {
        Some(addr) => Some(TcpListener::bind(addr)?),
        None => None,
    };
    let addr = match &listener {
        Some(l) => Some(l.local_addr()?),
        None => None,
    };
    if let Some(l) = listener.as_mut() {
        poll.registry().register(l, LISTENER, Interest::READABLE)?;
    }
    let mut http_listener = match http_listen {
        Some(addr) => Some(TcpListener::bind(addr)?),
        None => None,
    };
    let http_addr = match &http_listener {
        Some(l) => Some(l.local_addr()?),
        None => None,
    };
    if let Some(l) = http_listener.as_mut() {
        poll.registry()
            .register(l, HTTP_LISTENER, Interest::READABLE)?;
    }

    let (cmd_tx, cmd_rx) = channel();
    let handle = ReactorHandle {
        id: NEXT_REACTOR.fetch_add(1, Ordering::Relaxed),
        cmd_tx,
        waker,
        next_conn: Arc::new(AtomicU64::new(0)),
        counters: Arc::new(NetCounters::default()),
    };
    Ok(BoundReactor {
        poll,
        listener,
        http_listener,
        cmd_rx,
        handle,
        addr,
        http_addr,
    })
}

impl BoundReactor {
    /// The handle other threads (and the handler) command the reactor by.
    pub fn handle(&self) -> ReactorHandle {
        self.handle.clone()
    }

    /// The actually-bound frame listener address, if one was requested.
    pub fn addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// The actually-bound HTTP listener address, if one was requested.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// Starts the reactor thread, handing every event to `handler` on it.
    /// The thread ends — dropping `handler` — on
    /// [`ReactorHandle::shutdown`]; join the returned handle to wait for
    /// that.
    pub fn run<H: Handler>(self, handler: H) -> io::Result<JoinHandle<()>> {
        let reactor = Reactor {
            id: self.handle.id,
            poll: self.poll,
            waker: self.handle.waker,
            listener: self.listener,
            http_listener: self.http_listener,
            conns: HashMap::new(),
            cmd_rx: self.cmd_rx,
            next_conn: self.handle.next_conn,
            counters: self.handle.counters,
            read_buf: vec![0; READ_BUF],
            handler,
        };
        std::thread::Builder::new()
            .name("vrr-net-reactor".into())
            .spawn(move || reactor.run())
    }
}

struct Reactor<H> {
    id: u64,
    poll: Poll,
    waker: Arc<Waker>,
    listener: Option<TcpListener>,
    http_listener: Option<TcpListener>,
    conns: HashMap<ConnId, Conn>,
    cmd_rx: Receiver<Cmd>,
    next_conn: Arc<AtomicU64>,
    counters: Arc<NetCounters>,
    /// The one socket read buffer, reused by every readable event.
    read_buf: Vec<u8>,
    handler: H,
}

impl<H: Handler> Reactor<H> {
    fn run(mut self) {
        ON_REACTOR.with(|id| id.set(self.id));
        let mut events = Events::with_capacity(128);
        let mut ready: Vec<(ConnId, bool, bool)> = Vec::new();
        loop {
            if self.poll.poll(&mut events, Some(TICK)).is_err() {
                return;
            }
            for ev in &events {
                match ev.token() {
                    WAKER => self.waker.drain(),
                    LISTENER => self.accept_all(false),
                    HTTP_LISTENER => self.accept_all(true),
                    Token(t) => ready.push((
                        (t - CONN_BASE) as ConnId,
                        ev.is_readable(),
                        ev.is_writable(),
                    )),
                }
            }
            for (conn, readable, writable) in ready.drain(..) {
                if writable {
                    self.on_writable(conn);
                }
                if readable {
                    self.on_readable(conn);
                }
            }
            self.handler.on_tick();
            // Commands last: sends see connections already marked up by
            // this tick's writable events, and everything the handler
            // queued above goes out before the next sleep.
            while let Ok(cmd) = self.cmd_rx.try_recv() {
                match cmd {
                    Cmd::Connect { conn, addr } => self.start_connect(conn, addr),
                    Cmd::Send { conn, frame } => self.queue_frame(conn, frame),
                    Cmd::Finish { conn, bytes } => {
                        if let Some(c) = self.conns.get_mut(&conn) {
                            c.close_on_flush = true;
                        }
                        self.queue_frame(conn, bytes);
                    }
                    Cmd::Close { conn } => self.drop_conn(conn, true),
                    Cmd::Shutdown => return,
                }
            }
        }
    }

    fn emit(&mut self, ev: NetEvent) {
        self.handler.on_event(ev);
    }

    fn accept_all(&mut self, http: bool) {
        loop {
            let listener = match if http {
                &self.http_listener
            } else {
                &self.listener
            } {
                Some(l) => l,
                None => return,
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    let conn = self.next_conn.fetch_add(1, Ordering::Relaxed);
                    let mut c = Conn::new(stream, true, false, http);
                    if self
                        .poll
                        .registry()
                        .register(
                            &mut c.stream,
                            Token(conn as usize + CONN_BASE),
                            Interest::READABLE,
                        )
                        .is_ok()
                    {
                        self.conns.insert(conn, c);
                        if !http {
                            self.emit(NetEvent::Accepted { conn });
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn start_connect(&mut self, conn: ConnId, addr: SocketAddr) {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                let mut c = Conn::new(stream, false, true, false);
                // READABLE | WRITABLE: the first writable event completes
                // (or fails) the connect.
                match self.poll.registry().register(
                    &mut c.stream,
                    Token(conn as usize + CONN_BASE),
                    Interest::READABLE | Interest::WRITABLE,
                ) {
                    Ok(()) => {
                        self.conns.insert(conn, c);
                    }
                    Err(_) => self.emit(NetEvent::ConnectFailed { conn }),
                }
            }
            Err(_) => self.emit(NetEvent::ConnectFailed { conn }),
        }
    }

    fn queue_frame(&mut self, conn: ConnId, frame: Vec<u8>) {
        let c = match self.conns.get_mut(&conn) {
            Some(c) => c,
            None => return, // already dead; transport saw/will see Closed
        };
        c.outq.push_back(frame);
        if c.connected {
            self.flush(conn);
        }
    }

    fn on_writable(&mut self, conn: ConnId) {
        let c = match self.conns.get_mut(&conn) {
            Some(c) => c,
            None => return,
        };
        if !c.connected {
            match c.stream.take_error() {
                Ok(None) => {
                    c.connected = true;
                    self.emit(NetEvent::Connected { conn });
                }
                Ok(Some(_)) | Err(_) => {
                    self.emit(NetEvent::ConnectFailed { conn });
                    self.drop_conn(conn, false);
                    return;
                }
            }
        }
        self.flush(conn);
    }

    /// Writes queued frames until the queue empties or the socket blocks,
    /// then fixes up `WRITABLE` interest to match.
    fn flush(&mut self, conn: ConnId) {
        let c = match self.conns.get_mut(&conn) {
            Some(c) => c,
            None => return,
        };
        while let Some(front) = c.outq.front() {
            match c.stream.write(&front[c.out_pos..]) {
                Ok(n) => {
                    c.out_pos += n;
                    self.counters
                        .bytes_sent
                        .fetch_add(n as u64, Ordering::Relaxed);
                    if c.out_pos == front.len() {
                        c.outq.pop_front();
                        c.out_pos = 0;
                        if !c.http {
                            self.counters.frames_sent.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.drop_conn(conn, true);
                    return;
                }
            }
        }
        let c = &self.conns[&conn];
        if c.outq.is_empty() && c.close_on_flush {
            self.drop_conn(conn, false);
            return;
        }
        let want = !c.outq.is_empty();
        self.set_write_interest(conn, want);
    }

    fn set_write_interest(&mut self, conn: ConnId, want: bool) {
        let c = match self.conns.get_mut(&conn) {
            Some(c) => c,
            None => return,
        };
        if c.want_write == want {
            return;
        }
        let interest = if want {
            Interest::READABLE | Interest::WRITABLE
        } else {
            Interest::READABLE
        };
        if self
            .poll
            .registry()
            .reregister(&mut c.stream, Token(conn as usize + CONN_BASE), interest)
            .is_ok()
        {
            c.want_write = want;
        }
    }

    fn on_readable(&mut self, conn: ConnId) {
        let buf = &mut self.read_buf[..];
        let mut peer_gone = false;
        loop {
            let c = match self.conns.get_mut(&conn) {
                Some(c) => c,
                None => return,
            };
            match c.stream.read(buf) {
                Ok(0) => {
                    peer_gone = true;
                    break;
                }
                Ok(n) => {
                    if c.http {
                        c.http_buf.extend_from_slice(&buf[..n]);
                    } else {
                        c.reader.extend(&buf[..n]);
                    }
                    self.counters
                        .bytes_received
                        .fetch_add(n as u64, Ordering::Relaxed);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    peer_gone = true;
                    break;
                }
            }
        }
        if self.conns.get(&conn).is_some_and(|c| c.http) {
            self.drain_http(conn, peer_gone);
            return;
        }
        // Surface every complete frame buffered so far, even when the peer
        // vanished right after sending them.
        loop {
            let c = match self.conns.get_mut(&conn) {
                Some(c) => c,
                None => return,
            };
            match c.reader.next_frame() {
                Ok(Some(body)) => {
                    self.counters
                        .frames_received
                        .fetch_add(1, Ordering::Relaxed);
                    self.emit(NetEvent::Frame { conn, body });
                }
                Ok(None) => break,
                Err(_) => {
                    self.counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                    self.emit(NetEvent::FrameError { conn });
                    self.drop_conn(conn, false);
                    return;
                }
            }
        }
        if peer_gone {
            self.drop_conn(conn, true);
        }
    }

    /// Emits one [`NetEvent::HttpRequest`] per complete head buffered on
    /// an HTTP connection; a connection whose head never completes (peer
    /// gone, or oversized) is dropped silently.
    fn drain_http(&mut self, conn: ConnId, peer_gone: bool) {
        let c = match self.conns.get_mut(&conn) {
            Some(c) => c,
            None => return,
        };
        if let Some(end) = c
            .http_buf
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map(|p| p + 4)
        {
            let head = c.http_buf[..end].to_vec();
            c.http_buf.clear();
            self.emit(NetEvent::HttpRequest { conn, head });
            return;
        }
        if peer_gone || c.http_buf.len() > MAX_HTTP_HEAD {
            self.drop_conn(conn, false);
        }
    }

    fn drop_conn(&mut self, conn: ConnId, announce: bool) {
        if let Some(mut c) = self.conns.remove(&conn) {
            let _ = self.poll.registry().deregister(&mut c.stream);
            if announce && !c.http {
                self.emit(NetEvent::Closed { conn });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A handler that only forwards: the tests below observe the reactor's
    /// events from their own thread.
    struct Forward(Sender<NetEvent>);

    impl Handler for Forward {
        fn on_event(&mut self, ev: NetEvent) {
            let _ = self.0.send(ev);
        }
    }

    fn spawn(
        listen: Option<SocketAddr>,
    ) -> io::Result<(ReactorHandle, Receiver<NetEvent>, Option<SocketAddr>)> {
        let bound = bind(listen, None)?;
        let (ev_tx, ev_rx) = channel();
        let (handle, addr) = (bound.handle(), bound.addr());
        bound.run(Forward(ev_tx))?;
        Ok((handle, ev_rx, addr))
    }

    /// Two reactors exchange a frame over localhost and tear down cleanly.
    #[test]
    fn reactors_exchange_frames() {
        let (server, server_rx, bound) = spawn(Some("127.0.0.1:0".parse().unwrap())).unwrap();
        let addr = bound.unwrap();
        let (client, client_rx, _) = spawn(None).unwrap();

        let conn = client.connect(addr);
        client.send(conn, {
            let mut f = (5u32).to_le_bytes().to_vec();
            f.extend_from_slice(b"hello");
            f
        });

        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut got = None;
        let mut server_conn = None;
        while std::time::Instant::now() < deadline && got.is_none() {
            if let Ok(ev) = server_rx.recv_timeout(Duration::from_millis(200)) {
                match ev {
                    NetEvent::Accepted { conn, .. } => server_conn = Some(conn),
                    NetEvent::Frame { body, .. } => got = Some(body),
                    _ => {}
                }
            }
        }
        assert_eq!(got.as_deref(), Some(&b"hello"[..]));

        // Reply on the accepted connection.
        let sc = server_conn.unwrap();
        server.send(sc, {
            let mut f = (3u32).to_le_bytes().to_vec();
            f.extend_from_slice(b"ack");
            f
        });
        let mut reply = None;
        while std::time::Instant::now() < deadline && reply.is_none() {
            if let Ok(NetEvent::Frame { body, .. }) =
                client_rx.recv_timeout(Duration::from_millis(200))
            {
                reply = Some(body);
            }
        }
        assert_eq!(reply.as_deref(), Some(&b"ack"[..]));

        assert!(server.counters().frames_received.load(Ordering::Relaxed) >= 1);
        client.shutdown();
        server.shutdown();
    }

    /// A garbage length prefix closes the connection with a typed event
    /// and leaves the reactor serving other connections.
    #[test]
    fn hostile_prefix_closes_only_that_connection() {
        let (server, server_rx, bound) = spawn(Some("127.0.0.1:0".parse().unwrap())).unwrap();
        let addr = bound.unwrap();
        let (client, client_rx, _) = spawn(None).unwrap();

        let bad = client.connect(addr);
        client.send(bad, u32::MAX.to_le_bytes().to_vec());

        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut saw_frame_error = false;
        while std::time::Instant::now() < deadline && !saw_frame_error {
            if let Ok(NetEvent::FrameError { .. }) =
                server_rx.recv_timeout(Duration::from_millis(200))
            {
                saw_frame_error = true;
            }
        }
        assert!(saw_frame_error, "server never reported the framing error");
        let decode_errors = server.counters().decode_errors.load(Ordering::Relaxed);
        assert_eq!(decode_errors, 1, "the oversized prefix is counted once");
        // The hostile connection is dead from the client's point of view too
        // (server closed it); a fresh connection still works.
        let good = client.connect(addr);
        client.send(good, {
            let mut f = (2u32).to_le_bytes().to_vec();
            f.extend_from_slice(b"ok");
            f
        });
        let mut got = false;
        while std::time::Instant::now() < deadline && !got {
            if let Ok(NetEvent::Frame { body, .. }) =
                server_rx.recv_timeout(Duration::from_millis(200))
            {
                assert_eq!(body, b"ok");
                got = true;
            }
        }
        assert!(got, "server stopped serving after hostile frame");
        let _ = client_rx;
        client.shutdown();
        server.shutdown();
    }
}

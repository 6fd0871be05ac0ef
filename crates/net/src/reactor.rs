//! The socket reactor: one event loop — a *lane* — per CPU, each a thread
//! driving its own epoll [`mio::Poll`] over the TCP sockets it owns.
//!
//! Lane `i` pins its thread to the `i`-th CPU the process may run on and
//! accepts on a frame listener of its own, tagged with that CPU
//! ([`crate::cpu::listener`]): the lanes share the reactor's port, and the
//! kernel hands each connection, at its `SYN`, to the lane tagged with the
//! CPU it was dialed from, or by hash when no lane carries that CPU. Lane
//! 0 also keeps the HTTP connections and every outbound connect. A
//! connection stays on the lane that accepted it for good: its events
//! reach that lane's handler on that lane's thread, and its [`ConnId`]
//! names the lane (`n * lanes + lane`), so a handle routes a command to it
//! without a lookup. Connections are dealt, not raced for: loops that all
//! poll one listener measured no faster than a single loop (ROADMAP item
//! 3). A caller that stays on the CPU it dialed from — a
//! [`crate::RemoteCluster`] caller checks out the connection dialed from
//! its CPU — has each round trip served on that CPU, by the lane pinned
//! there. The lane count is [`std::thread::available_parallelism`], the
//! executor's worker rule; on one CPU the lanes collapse to a single
//! reactor, pinned nowhere, and a lane that cannot pin itself still
//! accepts its CPU's connections.
//!
//! The reactor is deliberately body-agnostic — it moves opaque frame
//! bodies (`Vec<u8>`) in and out; envelope decoding happens in the
//! transport layer. What happens on a socket is handed, **on the lane's
//! thread**, to the [`Handler`] the lane was started with: no event
//! channel, no second thread between a frame and whoever acts on it. A
//! handler must therefore never block; work that may (inspection over many
//! automata) is the handler's to hand off. Other threads talk to a lane
//! through its command channel, woken by its [`mio::Waker`] — a lane's own
//! commands skip the wake, they are drained in the same loop iteration.
//! Once per iteration, and at least every [`TICK`], each handler also gets
//! [`Handler::on_tick`]: the one periodic timer in the crate.
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

use crate::cpu;
use crate::frame::FrameReader;

/// Identifies one TCP connection for the reactor's lifetime: `n * lanes +
/// lane`, where `lane` owns it and `n` counts that lane's connections. Ids
/// are never reused, so a stale id after a reconnect cannot alias the new
/// socket.
pub type ConnId = u64;

const WAKER: Token = Token(0);
const LISTENER: Token = Token(1);
const HTTP_LISTENER: Token = Token(2);
const CONN_BASE: usize = 3;

/// Upper bound on the real time between two reactor ticks — a node's
/// deadline sweeps and redials: how long the reactor sleeps in `poll` when
/// no socket or command wakes it.
pub const TICK: Duration = Duration::from_millis(200);

/// Bytes read from a socket per `read` call (one buffer per lane).
const READ_BUF: usize = 64 * 1024;

/// Distinguishes reactors within one process, so a handle can tell whether
/// it is being used from one of its own lanes' threads.
static NEXT_REACTOR: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The reactor id and lane running on this thread (reactor 0 on other
    /// threads).
    static ON_LANE: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
}

/// Largest HTTP request head the metrics listener buffers before giving
/// up on the connection (a `GET /metrics` fits in a fraction of this).
const MAX_HTTP_HEAD: usize = 8 * 1024;

/// Monotonically-increasing transport counters of one lane, written by that
/// lane's thread and read by metric snapshots, which sum the lanes
/// ([`ReactorHandle::counters`]). Aligned to a line pair of its own, so no
/// lane writes a cache line another lane's frames write too.
#[derive(Debug, Default)]
#[repr(align(128))]
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

impl NetCounters {
    fn each(&self) -> [&AtomicU64; 6] {
        [
            &self.frames_sent,
            &self.frames_received,
            &self.bytes_sent,
            &self.bytes_received,
            &self.reconnects,
            &self.decode_errors,
        ]
    }
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

/// The consumer of one lane's events, run on the lane's thread.
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

/// What every thread shares with one lane.
struct Lane {
    cmd_tx: Sender<Cmd>,
    waker: Waker,
    /// The `n` of the lane's next [`ConnId`].
    next_conn: AtomicU64,
    counters: Arc<NetCounters>,
}

/// Thread-safe handle for talking to a running reactor.
#[derive(Clone)]
pub struct ReactorHandle {
    /// Which reactor this handle talks to (see `ON_LANE`).
    id: u64,
    lanes: Arc<[Lane]>,
}

impl ReactorHandle {
    /// Starts an outbound connection on lane 0; the result arrives later as
    /// [`NetEvent::Connected`] or [`NetEvent::ConnectFailed`].
    pub fn connect(&self, addr: SocketAddr) -> ConnId {
        let conn = self.new_conn(0);
        self.push(0, Cmd::Connect { conn, addr });
        conn
    }

    /// Queues one already-encoded frame for `conn`. Frames on a dead or
    /// unknown connection are silently dropped (the transport learns of
    /// the death via [`NetEvent::Closed`] and rebuffers at its own layer).
    pub fn send(&self, conn: ConnId, frame: Vec<u8>) {
        self.push(self.lane_of(conn), Cmd::Send { conn, frame });
    }

    /// Queues raw `bytes` (no framing) for `conn`, then closes it once
    /// everything flushed — the HTTP response path, where a plain
    /// [`ReactorHandle::close`] would drop the queued body.
    pub fn finish(&self, conn: ConnId, bytes: Vec<u8>) {
        self.push(self.lane_of(conn), Cmd::Finish { conn, bytes });
    }

    /// Closes `conn`, dropping anything still queued on it.
    pub fn close(&self, conn: ConnId) {
        self.push(self.lane_of(conn), Cmd::Close { conn });
    }

    /// Stops every lane; all sockets are dropped. Each lane first drains
    /// what was queued to it before the call.
    pub fn shutdown(&self) {
        (0..self.lanes.len()).for_each(|lane| self.push(lane, Cmd::Shutdown));
    }

    /// The transport counters, summed over the lanes.
    pub fn counters(&self) -> NetCounters {
        let total = NetCounters::default();
        for lane in self.lanes.iter() {
            for (sum, count) in total.each().into_iter().zip(lane.counters.each()) {
                sum.fetch_add(count.load(Ordering::Relaxed), Ordering::Relaxed);
            }
        }
        total
    }

    /// The counters of the lane owning `conn`: where an event on `conn` is
    /// counted.
    pub fn counters_of(&self, conn: ConnId) -> &NetCounters {
        &self.lanes[self.lane_of(conn)].counters
    }

    fn lane_of(&self, conn: ConnId) -> usize {
        (conn % self.lanes.len() as u64) as usize
    }

    fn new_conn(&self, lane: usize) -> ConnId {
        let n = self.lanes[lane].next_conn.fetch_add(1, Ordering::Relaxed);
        n * self.lanes.len() as u64 + lane as u64
    }

    fn push(&self, lane: usize, cmd: Cmd) {
        // A lane drains commands after the handler calls of the same
        // iteration: from its own thread the wake is a wasted syscall pair.
        let to = &self.lanes[lane];
        if to.cmd_tx.send(cmd).is_ok() && ON_LANE.with(Cell::get) != (self.id, lane) {
            let _ = to.waker.wake();
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

/// A reactor whose listeners are bound but whose lanes are not running
/// yet: the gap in which the caller builds the [`Handler`]s — which usually
/// need the [`ReactorHandle`] — before [`BoundReactor::run`].
pub struct BoundReactor {
    /// Each lane's poll, command queue and frame listener, lane 0 first.
    loops: Vec<(Poll, Receiver<Cmd>, Option<TcpListener>)>,
    /// The CPU each lane pins itself to, lane 0 first.
    cpus: Vec<usize>,
    http_listener: Option<TcpListener>,
    handle: ReactorHandle,
    addr: Option<SocketAddr>,
}

/// Binds a reactor of one lane per CPU. With `listen = Some(addr)` every
/// lane accepts inbound frame connections on `addr`, which no other socket
/// may hold; `http_listen` additionally binds a raw-byte HTTP listener on
/// lane 0, whose connections emit [`NetEvent::HttpRequest`] instead of
/// frames and are answered with [`ReactorHandle::finish`]. Port-0 addresses
/// work: see [`BoundReactor::addr`] / [`BoundReactor::http_addr`].
pub fn bind(
    listen: Option<SocketAddr>,
    http_listen: Option<SocketAddr>,
) -> io::Result<BoundReactor> {
    let lanes = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpus = lane_cpus(lanes);
    // A plain bind first refuses a port another socket listens on, which
    // `SO_REUSEPORT` alone would let a listener of this user join, and
    // turns port 0 into the one port every lane listens on.
    let addr = listen
        .map(|addr| std::net::TcpListener::bind(addr)?.local_addr())
        .transpose()?;
    let mut loops = Vec::with_capacity(lanes);
    let mut links = Vec::with_capacity(lanes);
    for lane in 0..lanes {
        let poll = Poll::new()?;
        let waker = Waker::new(poll.registry(), WAKER)?;
        let (cmd_tx, cmd_rx) = channel();
        links.push(Lane {
            cmd_tx,
            waker,
            next_conn: AtomicU64::new(0),
            counters: Arc::default(),
        });
        let listener = addr.map(|addr| {
            let listener = cpu::listener(addr, cpus.get(lane).copied())?;
            listener.set_nonblocking(true)?;
            registered(&poll, LISTENER, TcpListener::from_std(listener))
        });
        loops.push((poll, cmd_rx, listener.transpose()?));
    }
    let http_listener = http_listen
        .map(|addr| registered(&loops[0].0, HTTP_LISTENER, TcpListener::bind(addr)?))
        .transpose()?;

    let handle = ReactorHandle {
        id: NEXT_REACTOR.fetch_add(1, Ordering::Relaxed),
        lanes: links.into(),
    };
    Ok(BoundReactor {
        loops,
        cpus,
        http_listener,
        handle,
        addr,
    })
}

/// `listener`, registered on `poll` under `token`.
fn registered(poll: &Poll, token: Token, mut listener: TcpListener) -> io::Result<TcpListener> {
    poll.registry()
        .register(&mut listener, token, Interest::READABLE)?;
    Ok(listener)
}

impl BoundReactor {
    /// The handle other threads (and the handlers) command the reactor by.
    pub fn handle(&self) -> ReactorHandle {
        self.handle.clone()
    }

    /// The actually-bound frame listener address, if one was requested.
    pub fn addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// The actually-bound HTTP listener address, if one was requested.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_listener.as_ref()?.local_addr().ok()
    }

    /// Starts every lane's thread, handing lane `i`'s events to
    /// `handler(i)` on it. The lanes end — dropping their handlers — on
    /// [`ReactorHandle::shutdown`], or all of them once any one stops; join
    /// the returned handle, lane 0's thread, to wait for every lane.
    pub fn run<H: Handler>(
        self,
        mut handler: impl FnMut(usize) -> H,
    ) -> io::Result<JoinHandle<()>> {
        let BoundReactor {
            loops,
            cpus,
            mut http_listener,
            handle,
            ..
        } = self;
        let mut threads = Vec::new();
        // Lane 0 last: it joins the others when it stops.
        for (lane, (poll, cmd_rx, listener)) in loops.into_iter().enumerate().rev() {
            let (http_listener, others) = match lane {
                0 => (http_listener.take(), std::mem::take(&mut threads)),
                _ => (None, Vec::new()),
            };
            let reactor = Reactor {
                lane,
                handle: handle.clone(),
                poll,
                cmd_rx,
                listener,
                http_listener,
                others,
                conns: HashMap::new(),
                counters: handle.lanes[lane].counters.clone(),
                read_buf: vec![0; READ_BUF],
                handler: handler(lane),
            };
            let cpu = cpus.get(lane).copied();
            let spawned = std::thread::Builder::new()
                .name(format!("vrr-net-lane-{lane}"))
                .spawn(move || reactor.run(cpu));
            match spawned {
                Ok(thread) => threads.push(thread),
                Err(e) => {
                    // The reactor goes down with the lane that has no
                    // thread; the lanes already running stop with it.
                    handle.shutdown();
                    return Err(e);
                }
            }
        }
        Ok(threads.pop().expect("lane 0 runs"))
    }
}

/// The CPU lane `i` pins itself to: the `i`-th the process may run on. A
/// lone lane pins nowhere.
fn lane_cpus(lanes: usize) -> Vec<usize> {
    match lanes {
        0 | 1 => Vec::new(),
        _ => cpu::allowed().into_iter().take(lanes).collect(),
    }
}

struct Reactor<H> {
    lane: usize,
    handle: ReactorHandle,
    poll: Poll,
    cmd_rx: Receiver<Cmd>,
    /// The lane's frame listener, and lane 0's HTTP listener.
    listener: Option<TcpListener>,
    http_listener: Option<TcpListener>,
    /// On lane 0, the other lanes' threads, joined when it stops.
    others: Vec<JoinHandle<()>>,
    conns: HashMap<ConnId, Conn>,
    counters: Arc<NetCounters>,
    /// The one socket read buffer, reused by every readable event.
    read_buf: Vec<u8>,
    handler: H,
}

impl<H: Handler> Reactor<H> {
    /// Pins this thread to `cpu`, then serves; a lane that cannot be pinned
    /// serves where it runs, and its listener keeps the tag.
    fn run(mut self, cpu: Option<usize>) {
        if let Some(cpu) = cpu {
            cpu::pin(cpu);
        }
        ON_LANE.with(|on| on.set((self.handle.id, self.lane)));
        self.serve();
        // Whatever stopped this lane stops them all.
        self.handle.shutdown();
        for lane in self.others.drain(..) {
            if let Err(panic) = lane.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }

    fn serve(&mut self) {
        let mut events = Events::with_capacity(128);
        let mut ready: Vec<(ConnId, bool, bool)> = Vec::new();
        loop {
            if self.poll.poll(&mut events, Some(TICK)).is_err() {
                return;
            }
            for ev in &events {
                match ev.token() {
                    WAKER => self.handle.lanes[self.lane].waker.drain(),
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

    /// Accepts every pending connection on one of this lane's listeners
    /// and takes each on as the lane's own.
    fn accept_all(&mut self, http: bool) {
        loop {
            let listener = if http {
                &self.http_listener
            } else {
                &self.listener
            };
            let Some(listener) = listener else { return };
            match listener.accept() {
                Ok((stream, _)) => self.adopt(stream, http),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn adopt(&mut self, stream: TcpStream, http: bool) {
        let conn = self.handle.new_conn(self.lane);
        let mut c = Conn::new(stream, true, false, http);
        let token = Token(conn as usize + CONN_BASE);
        if self
            .poll
            .registry()
            .register(&mut c.stream, token, Interest::READABLE)
            .is_ok()
        {
            self.conns.insert(conn, c);
            if !http {
                self.emit(NetEvent::Accepted { conn });
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
    use std::sync::RwLock;
    use std::thread::ThreadId;

    /// Where a handler ran: its thread, and the CPU under it.
    type Ran = (ThreadId, Option<usize>);

    /// A frame body on which [`Forward`] parks its lane, after forwarding
    /// it, until [`PARKED`] is free for reading.
    const PARK: &[u8] = b"park";

    /// Held for writing by a test while the lanes it parked stay parked.
    static PARKED: RwLock<()> = RwLock::new(());

    /// A handler that only forwards, naming where it ran: the tests below
    /// observe the reactor's events from their own thread.
    #[derive(Clone)]
    struct Forward(Sender<(Ran, NetEvent)>);

    impl Handler for Forward {
        fn on_event(&mut self, ev: NetEvent) {
            let park = matches!(&ev, NetEvent::Frame { body, .. } if body == PARK);
            let _ = self
                .0
                .send(((std::thread::current().id(), cpu::current()), ev));
            if park {
                drop(PARKED.read());
            }
        }
    }

    type EventRx = Receiver<(Ran, NetEvent)>;

    fn spawn(
        listen: Option<SocketAddr>,
    ) -> io::Result<(ReactorHandle, EventRx, Option<SocketAddr>)> {
        let bound = bind(listen, None)?;
        let (ev_tx, ev_rx) = channel();
        let (handle, addr) = (bound.handle(), bound.addr());
        let forward = Forward(ev_tx);
        bound.run(|_| forward.clone())?;
        Ok((handle, ev_rx, addr))
    }

    fn frame(body: &[u8]) -> Vec<u8> {
        let mut f = (body.len() as u32).to_le_bytes().to_vec();
        f.extend_from_slice(body);
        f
    }

    /// What `step` returns, run on a thread pinned to `cpu` (unpinned when
    /// `None`).
    fn from_cpu<R: Send + 'static>(
        cpu: Option<usize>,
        step: impl FnOnce() -> R + Send + 'static,
    ) -> R {
        let pinned = move || {
            if let Some(cpu) = cpu {
                assert!(cpu::pin(cpu), "pinned to CPU {cpu}");
            }
            step()
        };
        std::thread::spawn(pinned)
            .join()
            .expect("the pinned thread")
    }

    fn dial(addr: Option<SocketAddr>) -> std::net::TcpStream {
        std::net::TcpStream::connect(addr.expect("listening")).expect("connect")
    }

    /// The next event within 5 s.
    fn next(events: &EventRx) -> (Ran, NetEvent) {
        events
            .recv_timeout(Duration::from_secs(5))
            .expect("an event within 5 s")
    }

    /// Two reactors exchange a frame over localhost and tear down cleanly.
    #[test]
    fn reactors_exchange_frames() {
        let (server, server_rx, bound) = spawn(Some("127.0.0.1:0".parse().unwrap())).unwrap();
        let addr = bound.unwrap();
        let (client, client_rx, _) = spawn(None).unwrap();

        let conn = client.connect(addr);
        client.send(conn, frame(b"hello"));

        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut got = None;
        let mut server_conn = None;
        while std::time::Instant::now() < deadline && got.is_none() {
            if let Ok((_, ev)) = server_rx.recv_timeout(Duration::from_millis(200)) {
                match ev {
                    NetEvent::Accepted { conn, .. } => server_conn = Some(conn),
                    NetEvent::Frame { body, .. } => got = Some(body),
                    _ => {}
                }
            }
        }
        assert_eq!(got.as_deref(), Some(&b"hello"[..]));

        // Reply on the accepted connection.
        server.send(server_conn.unwrap(), frame(b"ack"));
        let mut reply = None;
        while std::time::Instant::now() < deadline && reply.is_none() {
            if let Ok((_, NetEvent::Frame { body, .. })) =
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
            if let Ok((_, NetEvent::FrameError { .. })) =
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
        client.send(good, frame(b"ok"));
        let mut got = false;
        while std::time::Instant::now() < deadline && !got {
            if let Ok((_, NetEvent::Frame { body, .. })) =
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

    /// A port a reactor listens on is refused to a second one, though both
    /// set `SO_REUSEPORT` on their lanes' listeners.
    #[test]
    fn a_port_another_reactor_listens_on_is_refused() {
        let first = bind(Some("127.0.0.1:0".parse().unwrap()), None).unwrap();
        let second = bind(first.addr(), None).err().map(|e| e.kind());
        assert_eq!(second, Some(io::ErrorKind::AddrInUse));
    }

    /// Each connection goes to the lane pinned on the CPU it was dialed
    /// from, even when written to and closed from another lane's CPU
    /// while every lane is parked and can accept nothing, and every event
    /// of a connection — accept, frame, close — reaches the handler on
    /// that lane's one thread, on that CPU.
    #[test]
    fn accepted_connections_are_dealt_to_distinct_lanes_and_stay_on_one() {
        let (server, events, addr) = spawn(Some("127.0.0.1:0".parse().unwrap())).unwrap();
        let lanes = server.lanes.len();
        let cpus = lane_cpus(lanes);
        let cpu_of = |lane: usize| cpus.get(lane % lanes).copied();
        let parked = PARKED.write().expect("the park");
        // Each lane parks on a marker sent over a connection dialed from its
        // CPU, lane 0 last, and accepts nothing more until the release.
        let mut parkers = Vec::new();
        for lane in (0..lanes).rev() {
            let park = move || {
                let mut sock = dial(addr);
                sock.write_all(&frame(PARK)).map(|()| sock)
            };
            parkers.push(from_cpu(cpu_of(lane), park).expect("park"));
            let conn = loop {
                if let (_, NetEvent::Frame { conn, .. }) = next(&events) {
                    break conn;
                }
            };
            assert_eq!(server.lane_of(conn), lane, "lane {lane} parked");
        }
        // Each dialed from lane k's CPU, then written to and closed from
        // the next lane's before any lane could accept it.
        for lane in 0..lanes {
            let sock = from_cpu(cpu_of(lane), move || dial(addr));
            let send = move || (&sock).write_all(&frame(&[lane as u8]));
            from_cpu(cpu_of(lane + 1), send).expect("send");
        }
        drop(parked);
        let mut ran = HashMap::new();
        let mut dialed = vec![None; lanes];
        let mut closed = 0;
        while closed < lanes {
            let (at, ev) = next(&events);
            let conn = match ev {
                NetEvent::Accepted { conn } => conn,
                NetEvent::Frame { conn, body } => *dialed[body[0] as usize].insert(conn),
                NetEvent::Closed { conn } => {
                    closed += 1;
                    conn
                }
                other => panic!("unexpected {other:?}"),
            };
            let first = *ran.entry(conn).or_insert(at);
            assert_eq!(first, at, "connection {conn} changed thread or CPU");
        }
        for (lane, conn) in dialed.into_iter().enumerate() {
            let conn = conn.expect("every frame arrived");
            assert_eq!(server.lane_of(conn), lane, "dialed from lane {lane}'s CPU");
            if let Some(cpu) = cpu_of(lane) {
                assert_eq!(ran[&conn].1, Some(cpu), "lane {lane} runs on its CPU");
            }
        }
        let threads: std::collections::HashSet<_> = ran.values().map(|at| at.0).collect();
        assert_eq!(threads.len(), lanes, "a thread per lane");
        drop(parkers);
        server.shutdown();
    }

    /// A frame queued from a thread that is no lane's — as a worker's
    /// completion is — wakes the lane owning the connection: it reaches
    /// the peer within a fraction of `TICK`, which a wake sent to another
    /// lane would stall it for.
    #[test]
    fn a_send_from_a_foreign_thread_wakes_the_owning_lane() {
        let (server, events, addr) = spawn(Some("127.0.0.1:0".parse().unwrap())).unwrap();
        let last = server.lanes.len() - 1;
        // Dialed from the last lane's CPU, the connection is that lane's.
        let mut sock = from_cpu(lane_cpus(last + 1).get(last).copied(), move || dial(addr));
        let conn = loop {
            if let (_, NetEvent::Accepted { conn }) = next(&events) {
                break conn;
            }
        };
        assert_eq!(server.lane_of(conn), last);
        sock.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");

        let started = std::time::Instant::now();
        for i in 0..10u8 {
            server.send(conn, frame(&[i]));
            let mut got = [0u8; 5];
            sock.read_exact(&mut got).expect("the frame arrives");
            assert_eq!(got, &frame(&[i])[..]);
        }
        let took = started.elapsed();
        assert!(
            took < TICK,
            "10 sends took {took:?}: a lane slept through its wake"
        );
        server.shutdown();
    }
}

use super::*;
use crate::epoll::{
    EpollEvent, Poller, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use crate::proto::{DecodeEvent, FrameDecoder};
use std::collections::{BTreeMap, VecDeque};
use std::io::Read;
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;

/// Epoll cookie of the listener.
const LISTENER: u64 = 0;
/// Epoll cookie of the wake pipe's read end.
const WAKE: u64 = 1;
/// Connection ids double as epoll cookies, so they start after the
/// two reserved ones.
const FIRST_CONN_ID: u64 = 2;

/// A connection stops being read while its inbox holds this many
/// decoded frames (see [`Conn::backlogged`]).
const MAX_INBOX: usize = 64;

/// Bytes [`read_ready`] takes from a socket per `read` call.
const READ_CHUNK: usize = 64 * 1024;

/// Per-connection state: the socket, the incremental decoder, the
/// decoded-but-undispatched events, and the unsent replies.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    inbox: VecDeque<DecodeEvent>,
    wbuf: Vec<u8>,
    /// Unsent reply bytes at which reading stops: the configured
    /// `max_frame`.
    write_limit: usize,
    /// When the frame now being decoded started arriving; `None`
    /// between frames.
    frame_since: Option<Instant>,
    /// Reading stopped on a backlog before the socket ran dry, so
    /// no new edge will fire for the bytes already queued:
    /// [`EventLoop::pump`] resumes reading once the backlog clears.
    read_paused: bool,
    /// A submit/batch is in flight; further frames wait in the
    /// inbox so replies keep arrival order.
    busy: bool,
    /// Finish the inbox and flush, then close (EOF seen, or a
    /// corrupt frame was answered).
    closing: bool,
    /// Remove this connection at the next reap.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, max_frame: u32) -> Self {
        Self {
            stream,
            decoder: FrameDecoder::new(max_frame),
            inbox: VecDeque::new(),
            wbuf: Vec::new(),
            write_limit: (max_frame as usize).max(1),
            frame_since: None,
            read_paused: false,
            busy: false,
            closing: false,
            dead: false,
        }
    }

    /// Nothing buffered in either direction and no frame underway.
    fn idle(&self) -> bool {
        !self.busy && self.inbox.is_empty() && self.wbuf.is_empty() && !self.decoder.mid_frame()
    }

    /// Too much decoded input or unsent output to read more: the
    /// peer has to wait for dispatch, or read its replies, first.
    fn backlogged(&self) -> bool {
        self.inbox.len() >= MAX_INBOX || self.wbuf.len() >= self.write_limit
    }

    /// Half a frame has been waiting on the peer for longer than
    /// [`FRAME_TIMEOUT`]. A paused connection is exempt: the wait
    /// is then on us.
    fn frame_expired(&self, now: Instant) -> bool {
        !self.read_paused
            && self
                .frame_since
                .is_some_and(|t| now.duration_since(t) >= FRAME_TIMEOUT)
    }
}

/// One submit/batch handed to the worker pool, awaiting its
/// completion (or the request timeout).
struct Pending {
    conn: u64,
    deadline: Instant,
    is_batch: bool,
}

pub(super) struct EventLoop {
    shared: Arc<Shared>,
    poller: Poller,
    listener: TcpListener,
    wake_rx: UnixStream,
    conns: BTreeMap<u64, Conn>,
    pending: BTreeMap<u64, Pending>,
    next_conn_id: u64,
    next_token: u64,
    /// The read buffer every [`read_ready`] call borrows, allocated
    /// once instead of zero-filled on the stack per readiness event.
    rbuf: Box<[u8]>,
}

/// Drain the wake pipe (level-triggered, so stale bytes would spin
/// the loop).
fn drain_wake(wake_rx: &UnixStream) {
    let mut buf = [0u8; 256];
    let mut r = wake_rx;
    while let Ok(n) = r.read(&mut buf) {
        if n == 0 {
            return;
        }
    }
}

/// Read until `WouldBlock` (mandatory under edge-triggering) or
/// until the connection is backlogged, through the loop's shared
/// buffer `buf`, and queue every decoded event in the inbox.
fn read_ready(conn: &mut Conn, buf: &mut [u8]) {
    if std::mem::take(&mut conn.read_paused) {
        // The frame clock restarts: the pause was ours.
        conn.frame_since = None;
    }
    let mut decoded = Vec::new();
    loop {
        if conn.backlogged() {
            conn.read_paused = true;
            break;
        }
        match conn.stream.read(buf) {
            Ok(0) => {
                conn.closing = true;
                break;
            }
            Ok(n) => {
                conn.decoder.feed(&buf[..n], &mut decoded);
                if !decoded.is_empty() || !conn.decoder.mid_frame() {
                    conn.frame_since = None;
                }
                if conn.decoder.mid_frame() {
                    conn.frame_since.get_or_insert_with(Instant::now);
                }
                conn.inbox.extend(decoded.drain(..));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
}

/// Write the buffered replies until `WouldBlock`, dropping what
/// was sent; a drained buffer on a closing connection finishes the
/// close.
fn flush_io(conn: &mut Conn) {
    let mut sent = 0;
    while sent < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[sent..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => sent += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    conn.wbuf.drain(..sent);
    if conn.closing && conn.wbuf.is_empty() {
        conn.dead = true;
    }
}

impl EventLoop {
    /// Create the poller and the wake pipe, hand the workers the
    /// pipe's write end, and register the listener.
    pub(super) fn new(listener: TcpListener, shared: &Arc<Shared>) -> io::Result<Self> {
        let poller = Poller::new()?;
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        poller.add(listener.as_raw_fd(), LISTENER, EPOLLIN)?;
        poller.add(wake_rx.as_raw_fd(), WAKE, EPOLLIN)?;
        *shared.wake.lock().expect("wake lock") = Some(Box::new(wake_tx));
        Ok(Self {
            shared: Arc::clone(shared),
            poller,
            listener,
            wake_rx,
            conns: BTreeMap::new(),
            pending: BTreeMap::new(),
            next_conn_id: FIRST_CONN_ID,
            next_token: 0,
            rbuf: vec![0; READ_CHUNK].into_boxed_slice(),
        })
    }

    /// Run the readiness loop until a drain completes.
    pub(super) fn run(mut self) {
        // After a drain starts, idle connections get one IDLE_TICK
        // of grace so requests already on the wire still draw their
        // drain refusals; whatever is left after FRAME_TIMEOUT is
        // force-closed.
        let mut drain_started: Option<Instant> = None;
        let mut events = [EpollEvent::zeroed(); 128];
        loop {
            let n = self.poller.wait(&mut events, IDLE_TICK).unwrap_or(0);
            for ev in &events[..n] {
                match ev.cookie() {
                    LISTENER => self.accept_ready(),
                    WAKE => drain_wake(&self.wake_rx),
                    id => self.on_conn_event(id, ev.mask()),
                }
            }
            // Expire before settling: a request whose deadline has
            // passed is timed out even if its completion is queued.
            let now = Instant::now();
            self.expire(now);
            for done in self.shared.take_completions() {
                self.settle(done);
            }
            if self.shared.draining() {
                let started = *drain_started.get_or_insert_with(|| {
                    self.poller.del(self.listener.as_raw_fd());
                    now
                });
                if now >= started + IDLE_TICK {
                    self.close_idle();
                }
                if now >= started + FRAME_TIMEOUT {
                    self.close_all();
                }
            }
            self.reap(now);
            if self.shared.draining() && self.conns.is_empty() && self.pending.is_empty() {
                return;
            }
        }
    }

    /// Accept until `WouldBlock`, registering each socket
    /// edge-triggered under a fresh connection id.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.shared.draining() {
                        continue; // dropped: refuse post-drain arrivals
                    }
                    ServerStats::bump(&self.shared.stats.connections);
                    stream.set_nonblocking(true).ok();
                    stream.set_nodelay(true).ok();
                    let id = self.next_conn_id;
                    self.next_conn_id += 1;
                    if self
                        .poller
                        .add(
                            stream.as_raw_fd(),
                            id,
                            EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET,
                        )
                        .is_err()
                    {
                        continue; // dropped: nothing registered
                    }
                    self.conns
                        .insert(id, Conn::new(stream, self.shared.config.max_frame));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    fn on_conn_event(&mut self, id: u64, mask: u32) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if mask & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 && !conn.read_paused {
            read_ready(conn, &mut self.rbuf);
        }
        if mask & EPOLLOUT != 0 {
            flush_io(conn);
        }
        self.pump(id);
    }

    /// Dispatch inbox entries in arrival order until the
    /// connection goes busy (a submit in flight), closes, or runs
    /// dry, resuming a paused read whenever the backlog clears.
    fn pump(&mut self, id: u64) {
        loop {
            let ev = {
                let Some(conn) = self.conns.get_mut(&id) else {
                    return;
                };
                if conn.read_paused && !conn.backlogged() {
                    read_ready(conn, &mut self.rbuf);
                }
                if conn.busy || conn.dead {
                    return;
                }
                match conn.inbox.pop_front() {
                    Some(ev) => ev,
                    None => return,
                }
            };
            match ev {
                DecodeEvent::Frame(payload) => self.dispatch_frame(id, &payload),
                DecodeEvent::TooLarge { announced, limit } => {
                    ServerStats::bump(&self.shared.stats.errors);
                    self.queue_reply(
                        id,
                        &proto::error_reply(&format!(
                            "frame of {announced} bytes exceeds limit {limit}"
                        )),
                    );
                }
                DecodeEvent::Corrupt(n) => {
                    ServerStats::bump(&self.shared.stats.errors);
                    self.queue_reply(
                        id,
                        &proto::error_reply(&format!("implausible frame length {n}; closing")),
                    );
                    if let Some(conn) = self.conns.get_mut(&id) {
                        conn.closing = true;
                    }
                    return;
                }
            }
        }
    }

    fn dispatch_frame(&mut self, id: u64, payload: &[u8]) {
        // Fast path: recognize a batch without parsing the inner
        // payloads, so a garbage *item* draws a per-item error on
        // the worker rather than failing the whole envelope.
        let req = match proto::split_batch_items(payload) {
            Some(items) => Request::Batch(items),
            None => match Request::parse(payload) {
                Ok(req) => req,
                Err(msg) => {
                    ServerStats::bump(&self.shared.stats.errors);
                    self.queue_reply(id, &proto::error_reply(&msg));
                    return;
                }
            },
        };
        match req {
            Request::Submit(req) => self.dispatch(id, JobKind::Submit(req)),
            Request::Batch(items) if items.is_empty() => {
                self.queue_reply(id, &empty_batch_reply());
            }
            Request::Batch(items) => self.dispatch(id, JobKind::Batch(items)),
            req => {
                let reply =
                    inline_reply(&self.shared, &req).expect("non-submit verbs answer inline");
                self.queue_reply(id, &reply);
            }
        }
    }

    /// Hand a submit or a non-empty batch to the worker pool.
    ///
    /// Accounting contract: a submit bumps `stats.submitted` on
    /// entry and exactly one of `submit_ok` / `submit_errors` /
    /// `rejected_overload` by the time it is answered, so at
    /// quiescence the ledger in [`crate::stats::Accounting`]
    /// balances. A batch envelope touches no ledger counter: its
    /// items are accounted on the worker by `workers::run_batch`, and a
    /// batch refused here was never `submitted`.
    fn dispatch(&mut self, id: u64, kind: JobKind) {
        let is_batch = matches!(kind, JobKind::Batch(_));
        let stats = &self.shared.stats;
        if !is_batch {
            ServerStats::bump(&stats.submitted);
        }
        if self.shared.draining() {
            ServerStats::bump(&stats.errors);
            if !is_batch {
                ServerStats::bump(&stats.submit_errors);
            }
            self.queue_reply(id, &proto::error_reply("server is draining"));
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        let job = Job {
            kind,
            token,
            enqueued: Instant::now(),
        };
        if self.shared.enqueue(job, id).is_err() {
            if !is_batch {
                ServerStats::bump(&stats.rejected_overload);
            }
            self.queue_reply(id, &proto::overloaded_reply());
            return;
        }
        if !is_batch {
            ServerStats::bump(&stats.accepted);
        }
        let deadline =
            Instant::now() + self.shared.hooks.skewed(self.shared.config.request_timeout);
        self.pending.insert(
            token,
            Pending {
                conn: id,
                deadline,
                is_batch,
            },
        );
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.busy = true;
        }
    }

    /// A worker completion arrived. A token no longer pending
    /// already timed out, so the late reply is dropped.
    fn settle(&mut self, done: Completion) {
        let Some(p) = self.pending.remove(&done.token) else {
            return;
        };
        if !p.is_batch {
            let ok = done.reply.get("status").and_then(Json::as_str) == Some("ok");
            ServerStats::bump(if ok {
                &self.shared.stats.submit_ok
            } else {
                &self.shared.stats.submit_errors
            });
        }
        self.finish(p.conn, &done.reply.encode().into_bytes());
    }

    /// Time out every pending request whose deadline passed (the
    /// worker still finishes the job; its completion will be
    /// dropped as late).
    fn expire(&mut self, now: Instant) {
        let expired: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| now >= p.deadline)
            .map(|(&t, _)| t)
            .collect();
        for token in expired {
            let Some(p) = self.pending.remove(&token) else {
                continue;
            };
            ServerStats::bump(&self.shared.stats.timeouts);
            if !p.is_batch {
                ServerStats::bump(&self.shared.stats.submit_errors);
            }
            self.finish(p.conn, &proto::error_reply("request timed out"));
        }
    }

    /// Deliver a submit/batch outcome: write the reply, clear the
    /// busy flag, and resume dispatching the inbox.
    fn finish(&mut self, id: u64, payload: &[u8]) {
        self.queue_reply(id, payload);
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.busy = false;
        }
        self.pump(id);
    }

    /// Frame `payload` into the connection's write buffer and push
    /// as much as the socket takes.
    fn queue_reply(&mut self, id: u64, payload: &[u8]) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if conn.dead {
            return;
        }
        // Writing into a Vec cannot fail.
        let _ = proto::write_frame(&mut conn.wbuf, payload);
        flush_io(conn);
    }

    /// On drain, close connections with nothing in flight.
    fn close_idle(&mut self) {
        for conn in self.conns.values_mut() {
            if conn.idle() {
                conn.dead = true;
            }
        }
    }

    /// Force-close everything (drain grace period expired).
    fn close_all(&mut self) {
        for conn in self.conns.values_mut() {
            conn.dead = true;
        }
    }

    /// Promote finished closes and expired frames, then deregister
    /// and drop dead connections (dropping the socket closes the
    /// fd).
    fn reap(&mut self, now: Instant) {
        let poller = &self.poller;
        self.conns.retain(|_, conn| {
            let finished =
                conn.closing && !conn.busy && conn.inbox.is_empty() && conn.wbuf.is_empty();
            if conn.dead || finished || conn.frame_expired(now) {
                poller.del(conn.stream.as_raw_fd());
                return false;
            }
            true
        });
    }
}

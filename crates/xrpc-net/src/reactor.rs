//! The event-driven server core: one reactor thread multiplexing every
//! connection over epoll ([`crate::poll`]), a small fixed worker pool
//! evaluating requests, and a LIFO hand-off between them (a ready request
//! goes to the worker that went idle last; `Dispatch`) — thousands of
//! keep-alive connections without a thread (or a 32 MiB stack) per
//! connection.
//!
//! A connection holds at most one request. The reactor reads and parses
//! only while nothing is in flight and no response is queued; it hands a
//! complete request to the workers and writes the response with vectored
//! writes (the body goes back to the global [`BufferPool`] once written).
//! Only then does it parse what is already buffered — a pipelined
//! successor — or wait for readiness. Pipelined requests are so answered
//! one at a time, in order, and a connection never holds more than one
//! capped head and one capped body: what a pipelining client sends ahead
//! waits in the socket. A protocol error (400/413) has nothing ahead of it
//! and is answered at once; the connection then closes, as it does at end
//! of stream while a request is being read.
//!
//! A read-side event while a request is out — a FIN, or a successor's
//! bytes — switches read interest off until the response is written, so a
//! half-closed client is answered without the level-triggered poll
//! reporting it every round. A reset surfaces as `EPOLLERR`/`EPOLLHUP`,
//! which epoll reports whatever the interest, and closes the connection.
//! Closing sets the connection's kill flag, which every job it dispatches
//! shares: a queued job is dropped at dequeue (`jobs_orphaned`), a running
//! one sees the flag at its evaluator's checkpoints and is counted when
//! its handler returns (`jobs_cancelled`).
//!
//! An admission-refused connection gets `503`, a write-side FIN, and a
//! deadline-bounded read drain: closing a socket with unread request bytes
//! makes the kernel send RST, which can discard the in-flight 503 before
//! the client reads it.
//!
//! Admission control is backpressure-aware rather than a hard cap: new
//! connections (and ready requests) are shed with `503` when the
//! dispatch queue is full, when the worker-pool queue wait (EWMA of
//! parse-complete → handler-start latency, the
//! `xrpc_reactor_dispatch_micros` histogram) exceeds
//! [`HttpConfig::shed_wait`], or when `max_connections` (`0` =
//! unlimited) is reached. Every decision is
//! visible: `sheds` counter, `active_connections` /
//! `accept_queue_depth` gauges, and the dispatch/wakeup histograms on
//! [`NetMetrics`].

use crate::bufpool::BufferPool;
use crate::http::{head_end, response_head, Handler, HttpConfig};
use crate::metrics::NetMetrics;
use crate::poll::{listen_reuseaddr, Event, Poller, Waker};
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKER: u64 = u64::MAX - 1;
/// Reactor tick: upper bound on how stale a timeout sweep can be.
const TICK: Duration = Duration::from_millis(50);
/// Header-section size cap: the reactor buffers the head, so it bounds
/// its bytes as well as (through the read timeout) its time.
pub(crate) const MAX_HEAD_BYTES: usize = 32 * 1024;
/// Most one read takes while a request head is being collected.
const READ_CHUNK: usize = 16 * 1024;
/// Most one readiness round reads from one connection, for fairness across
/// connections (level-triggered epoll brings the rest back next round).
const ROUND_BYTES: usize = 1 << 20;
/// How long a shed connection's read drain may run before the socket is
/// closed regardless, so a trickling client cannot hold the slot.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Work item crossing to the worker pool.
struct Job {
    idx: usize,
    /// The connection's kill flag, set once it closes.
    kill: Arc<AtomicBool>,
    path: String,
    body: Vec<u8>,
    keep_alive: bool,
    enqueued: Instant,
}

/// A finished response crossing back to the reactor.
struct Done {
    idx: usize,
    /// The job's kill flag, which names its connection: a slot taken over
    /// by a later connection holds another flag.
    kill: Arc<AtomicBool>,
    status: u16,
    body: Vec<u8>,
    keep_alive: bool,
    finished: Instant,
}
/// The hand-off between the reactor and the workers, both ways. A ready
/// job goes to the worker that went idle last, so a closed loop stays on
/// one hot thread: each thread has its own malloc arena, and a pool that
/// rotates requests over its workers keeps a large request's high-water
/// mark resident in every arena. A job that finds no idle worker waits in
/// a FIFO of at most `cap` jobs.
struct Dispatch {
    state: Mutex<DispatchState>,
    /// Worker `w` sleeps on `wake[w]` until a job lands in `slots[w]`.
    wake: Vec<Condvar>,
    cap: usize,
}

struct DispatchState {
    queue: VecDeque<Job>,
    /// Idle workers, the one that went idle last on top.
    idle: Vec<usize>,
    slots: Vec<Option<Job>>,
    /// Completions for the reactor to write back.
    done: Vec<Done>,
    closed: bool,
}

impl Dispatch {
    fn new(workers: usize, cap: usize) -> Self {
        Dispatch {
            state: Mutex::new(DispatchState {
                queue: VecDeque::new(),
                // every worker starts idle, worker 0 on top: a thread that
                // is slow to start cannot land above one that has served
                idle: (0..workers).rev().collect(),
                slots: (0..workers).map(|_| None).collect(),
                done: Vec::new(),
                closed: false,
            }),
            wake: (0..workers).map(|_| Condvar::new()).collect(),
            cap,
        }
    }

    fn lock(&self) -> MutexGuard<'_, DispatchState> {
        self.state.lock().expect("hand-off lock poisoned")
    }

    /// Hand `job` to the last idle worker, else queue it; a full queue
    /// gives it back.
    fn send(&self, job: Job) -> Result<(), Job> {
        let mut s = self.lock();
        match s.idle.pop() {
            Some(w) => {
                s.slots[w] = Some(job);
                drop(s);
                self.wake[w].notify_one();
            }
            None if s.queue.len() < self.cap => s.queue.push_back(job),
            None => return Err(job),
        }
        Ok(())
    }

    /// Worker `w` finished `done`: take the oldest queued job, or else
    /// join the idle stack, in the critical section that publishes `done`.
    /// On one CPU the reactor runs as soon as it is woken; were the worker
    /// not on top of the stack by then, the connection's next request
    /// would go to another worker.
    fn finish(&self, w: usize, done: Done) -> Option<Job> {
        let mut s = self.lock();
        s.done.push(done);
        let job = s.queue.pop_front();
        if job.is_none() {
            s.idle.push(w);
        }
        job
    }

    /// An idle worker's wait for its slot; `None` once closed.
    fn wait(&self, w: usize) -> Option<Job> {
        let mut s = self.lock();
        loop {
            if let Some(job) = s.slots[w].take() {
                return Some(job);
            }
            if s.closed {
                return None;
            }
            s = self.wake[w].wait(s).expect("hand-off lock poisoned");
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.wake.iter().for_each(Condvar::notify_one);
    }
}

/// A response being written: header + body flushed as a vectored pair.
struct WBuf {
    head: Vec<u8>,
    body: Vec<u8>,
    off: usize,
}

/// A parsed request head and as much of its body as has arrived.
struct ReqHead {
    path: String,
    content_length: usize,
    keep_alive: bool,
    /// Pooled, with room for `content_length` bytes: the socket is read
    /// straight into it until it is full.
    body: Vec<u8>,
}

enum ParseStep {
    NeedMore,
    Request(ReqHead),
    Bad(String),
    TooLarge(usize),
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    /// Bytes of `rbuf` already scanned for the end of the head.
    scanned: usize,
    head: Option<ReqHead>,
    /// Set when the connection closes. Every job it dispatches shares it,
    /// and the handler bridges it into the evaluator's `CancelToken`.
    kill: Arc<AtomicBool>,
    /// A request is out at the workers.
    in_flight: bool,
    wbuf: Option<WBuf>,
    /// Close once the response is written (error responses, shutdown,
    /// `Connection: close`).
    close_after_flush: bool,
    /// Shed path: after flush, FIN the write side and discard reads
    /// until EOF or `drain_deadline`.
    shed: bool,
    draining_until: Option<Instant>,
    /// Whether this connection counts toward the admission gauge
    /// (shed connections never do).
    admitted: bool,
    /// Interest currently registered with epoll, to skip no-op ctls.
    interest: (bool, bool),
    last_activity: Instant,
    /// Last time a flush moved response bytes into the socket. A
    /// connection with a response queued that makes no write progress
    /// for `read_timeout` (client stopped reading: write-side
    /// slow-loris) is closed by the sweep instead of leaking.
    last_write_progress: Instant,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        let now = Instant::now();
        Conn {
            stream,
            rbuf: Vec::new(),
            scanned: 0,
            head: None,
            kill: Arc::default(),
            in_flight: false,
            wbuf: None,
            close_after_flush: false,
            shed: false,
            draining_until: None,
            admitted: true,
            interest: (true, false),
            last_activity: now,
            last_write_progress: now,
        }
    }

    /// A request is out or its response is being written: nothing more
    /// is read or parsed until both are done.
    fn busy(&self) -> bool {
        self.in_flight || self.wbuf.is_some()
    }

    /// Forget whatever partial request has been read.
    fn reset_read(&mut self) {
        self.rbuf.clear();
        if let Some(head) = self.head.take() {
            BufferPool::global().put(head.body);
        }
        self.scanned = 0;
    }
}

pub(crate) struct ReactorHandle {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    force_stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    reactor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    dispatch: Arc<Dispatch>,
    metrics: Arc<NetMetrics>,
}

impl ReactorHandle {
    pub(crate) fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    pub(crate) fn shutdown_graceful(&mut self, deadline: Duration) -> bool {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
        let end = Instant::now() + deadline;
        while self.metrics.active_connections.load(Ordering::SeqCst) > 0 && Instant::now() < end {
            std::thread::sleep(Duration::from_millis(2));
        }
        let drained = self.metrics.active_connections.load(Ordering::SeqCst) == 0;
        self.force_stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(t) = self.reactor.take() {
            let _ = t.join();
        }
        // the reactor is gone (returned or panicked), so nothing will send
        // again: closing the hand-off returns every idle worker; join the
        // ones that are done, detach any straggler stuck in a long handler
        self.dispatch.close();
        for w in std::mem::take(&mut self.workers) {
            if drained || w.is_finished() {
                let _ = w.join();
            }
        }
        drained
    }
}

pub(crate) fn bind(
    addr: &str,
    handler: Arc<Handler>,
    config: HttpConfig,
    metrics: Arc<NetMetrics>,
) -> io::Result<ReactorHandle> {
    let listener = match addr.parse::<std::net::SocketAddr>() {
        Ok(sa) => listen_reuseaddr(&sa)?,
        Err(_) => TcpListener::bind(addr)?,
    };
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let poller = Poller::new()?;
    poller.add(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;
    let waker = Arc::new(Waker::new(&poller, TOKEN_WAKER)?);

    let shutdown = Arc::new(AtomicBool::new(false));
    let force_stop = Arc::new(AtomicBool::new(false));
    let queue_wait_ewma = Arc::new(AtomicU64::new(0));

    let n_workers = if config.reactor_workers > 0 {
        config.reactor_workers
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .max(4)
    };
    let dispatch = Arc::new(Dispatch::new(n_workers, config.dispatch_queue.max(1)));
    let mut workers = Vec::with_capacity(n_workers);
    for i in 0..n_workers {
        let dispatch = dispatch.clone();
        let waker = waker.clone();
        let handler = handler.clone();
        let metrics = metrics.clone();
        let ewma = queue_wait_ewma.clone();
        workers.push(
            std::thread::Builder::new()
                .name(format!("xrpc-worker-{local}-{i}"))
                // request handlers may evaluate deep queries: give them
                // room (see xqeval recursion cap)
                .stack_size(32 * 1024 * 1024)
                .spawn(move || worker_loop(i, &dispatch, &waker, &handler, &metrics, &ewma))
                .map_err(|e| io::Error::other(e.to_string()))?,
        );
    }

    let reactor = {
        let shutdown = shutdown.clone();
        let force_stop = force_stop.clone();
        let waker = waker.clone();
        let dispatch = dispatch.clone();
        let metrics = metrics.clone();
        let ewma = queue_wait_ewma.clone();
        std::thread::Builder::new()
            .name(format!("xrpc-reactor-{local}"))
            .spawn(move || {
                Reactor {
                    poller,
                    listener: Some(listener),
                    waker,
                    conns: Vec::new(),
                    free: Vec::new(),
                    dispatch,
                    metrics,
                    config,
                    shutdown,
                    force_stop,
                    queue_wait_ewma: ewma,
                    queued: 0,
                    last_ewma_decay: Instant::now(),
                }
                .run()
            })
            .map_err(|e| io::Error::other(e.to_string()))?
    };

    Ok(ReactorHandle {
        addr: local,
        shutdown,
        force_stop,
        waker,
        reactor: Some(reactor),
        workers,
        dispatch,
        metrics,
    })
}

fn worker_loop(
    w: usize,
    dispatch: &Dispatch,
    waker: &Waker,
    handler: &Arc<Handler>,
    metrics: &NetMetrics,
    queue_wait_ewma: &AtomicU64,
) {
    let mut next = None;
    loop {
        let Some(job) = next.take().or_else(|| dispatch.wait(w)) else {
            return; // reactor gone: shut down
        };
        let wait = job.enqueued.elapsed();
        metrics.reactor_dispatch_micros.record_micros(wait);
        metrics.accept_queue_depth.fetch_sub(1, Ordering::Relaxed);
        ewma_record(
            queue_wait_ewma,
            wait.as_micros().min(u64::MAX as u128) as u64,
        );

        // The connection closed while this job sat in the dispatch queue
        // (client gone): drop it before doing any evaluation work. A stub
        // Done still crosses back so the reactor's `queued` accounting
        // stays balanced; the reactor discards it.
        let (status, body, keep_alive) = if job.kill.load(Ordering::Relaxed) {
            metrics.record_job_orphaned();
            (0, Vec::new(), false)
        } else {
            // the handler bridges the flag into the evaluator's
            // CancelToken; the reactor's close path sets it
            let guard = crate::cancel::set_current_job(job.kill.clone());
            let (status, resp) = handler(&job.path, &job.body);
            drop(guard);
            if job.kill.load(Ordering::Relaxed) {
                metrics.record_job_cancelled();
            }
            metrics.record(job.body.len(), resp.len());
            (status, resp, job.keep_alive)
        };
        BufferPool::global().put(job.body);
        let done = Done {
            idx: job.idx,
            kill: job.kill,
            status,
            body,
            keep_alive,
            finished: Instant::now(),
        };
        next = dispatch.finish(w, done);
        waker.wake();
    }
}

struct Reactor {
    poller: Poller,
    listener: Option<TcpListener>,
    waker: Arc<Waker>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    dispatch: Arc<Dispatch>,
    metrics: Arc<NetMetrics>,
    config: HttpConfig,
    shutdown: Arc<AtomicBool>,
    force_stop: Arc<AtomicBool>,
    queue_wait_ewma: Arc<AtomicU64>,
    /// Jobs dispatched and not yet completed (decremented in
    /// `drain_done`): queued, handed to a worker, or in a handler.
    queued: usize,
    /// Last time the reactor fed a zero-wait decay sample into the EWMA
    /// (rate-limited to one per [`TICK`]).
    last_ewma_decay: Instant,
}

impl Reactor {
    fn run(mut self) {
        let mut events = Vec::new();
        let mut listener_open = true;
        loop {
            if self.force_stop.load(Ordering::SeqCst) {
                break;
            }
            let shutting_down = self.shutdown.load(Ordering::SeqCst);
            if shutting_down && listener_open {
                if let Some(l) = self.listener.take() {
                    let _ = self.poller.delete(l.as_raw_fd());
                }
                listener_open = false;
                self.close_idle_for_shutdown();
            }
            if shutting_down && self.conns.iter().all(|c| c.is_none()) {
                break;
            }
            if self.poller.wait(&mut events, Some(TICK)).is_err() {
                break;
            }
            let drained_at = Instant::now();
            for &ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.waker.drain(),
                    _ => self.conn_ready(ev),
                }
            }
            // completions can arrive with or without the waker token
            // (it may coalesce); always drain the queue
            self.drain_done(drained_at);
            // Workers only sample the EWMA when they dequeue a job, so a
            // quiet period after an overload would leave the admission
            // signal latched above `shed_wait` forever (shed connections
            // never enqueue — a self-sustaining outage). Whenever the
            // dispatch queue is observed empty, feed a zero-wait sample,
            // at most once per tick: the signal decays (×7/8 per TICK,
            // halving every ~350 ms) as soon as load subsides.
            if self.queued == 0 && self.last_ewma_decay.elapsed() >= TICK {
                ewma_record(&self.queue_wait_ewma, 0);
                self.last_ewma_decay = Instant::now();
            }
            self.sweep_timeouts();
            if self.shutdown.load(Ordering::SeqCst) {
                self.close_idle_for_shutdown();
            }
        }
        // reactor exit: release every remaining connection (their queued
        // jobs become orphans); the handle closes the hand-off once this
        // thread has been joined
        for idx in 0..self.conns.len() {
            if self.conns[idx].is_some() {
                self.close_conn(idx);
            }
        }
    }

    // ---- accept & admission -------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let over_cap = self.config.max_connections > 0
                        && self.metrics.active_connections.load(Ordering::Relaxed)
                            >= self.config.max_connections as u64;
                    let queue_full = self.queued >= self.config.dispatch_queue.max(1);
                    let wait_high = self.queue_wait_ewma.load(Ordering::Relaxed)
                        > self.config.shed_wait.as_micros() as u64;
                    if over_cap || queue_full || wait_high {
                        self.shed_new_conn(stream);
                        continue;
                    }
                    self.admit(stream);
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn alloc_slot(&mut self) -> usize {
        match self.free.pop() {
            Some(i) => i,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        let idx = self.alloc_slot();
        let conn = Conn {
            rbuf: BufferPool::global().get(0),
            ..Conn::new(stream)
        };
        if self
            .poller
            .add(conn.stream.as_raw_fd(), idx as u64, true, false)
            .is_err()
        {
            self.free.push(idx);
            return;
        }
        self.metrics
            .active_connections
            .fetch_add(1, Ordering::SeqCst);
        self.conns[idx] = Some(conn);
    }

    /// Admission refused: `503`, then half-close-and-drain. The
    /// connection occupies a slab slot (it must flush and drain) but
    /// never counts as active.
    fn shed_new_conn(&mut self, stream: TcpStream) {
        self.metrics.record_failure();
        self.metrics.record_shed();
        let idx = self.alloc_slot();
        let body = b"connection limit reached".to_vec();
        let head = response_head(503, body.len(), false).into_bytes();
        let mut conn = Conn {
            wbuf: Some(WBuf { head, body, off: 0 }),
            close_after_flush: true,
            shed: true,
            admitted: false,
            interest: (false, true),
            ..Conn::new(stream)
        };
        let _ = flush_wbuf(&mut conn);
        if conn.wbuf.is_none() {
            // fast path: the 503 fit in the socket buffer; FIN and drain
            let _ = conn.stream.shutdown(std::net::Shutdown::Write);
            conn.draining_until = Some(Instant::now() + DRAIN_DEADLINE);
            conn.interest = (true, false);
        }
        let (r, w) = conn.interest;
        if self
            .poller
            .add(conn.stream.as_raw_fd(), idx as u64, r, w)
            .is_err()
        {
            self.free.push(idx);
            return;
        }
        self.conns[idx] = Some(conn);
    }

    // ---- readiness ----------------------------------------------------

    fn conn_ready(&mut self, ev: Event) {
        let idx = ev.token as usize;
        let Some(Some(_)) = self.conns.get(idx) else {
            return;
        };
        if ev.error {
            // reset, or shut both ways: nothing more can be answered
            self.close_conn(idx);
            return;
        }
        if ev.writable {
            self.write(idx);
        }
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        if ev.readable || ev.hangup {
            if conn.draining_until.is_some() {
                // shed drain: discard until EOF
                let mut sink = [0u8; 8192];
                loop {
                    match conn.stream.read(&mut sink) {
                        Ok(0) => return self.close_conn(idx),
                        Ok(_) => {}
                        Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => return self.close_conn(idx),
                    }
                }
            } else if conn.busy() {
                // a FIN or a pipelined successor: it stays in the socket
                // until the response is out, and level-triggered epoll
                // would report it every round meanwhile
                let want = (false, conn.interest.1);
                rearm(&self.poller, idx, conn, want);
            } else {
                self.next_request(idx, true);
            }
        }
        self.after_progress(idx);
    }

    /// Parse the next request out of what is buffered, reading more from
    /// the socket while `read`, and dispatch it once it is complete. A
    /// protocol error is answered at once, and end of stream closes: no
    /// request is ahead of either.
    fn next_request(&mut self, idx: usize, mut read: bool) {
        let mut budget = ROUND_BYTES;
        loop {
            let conn = open(&mut self.conns, idx);
            let error = match parse_step(conn, self.config.max_body_bytes) {
                ParseStep::Request(req) => return self.send_job(idx, req),
                ParseStep::NeedMore => None,
                ParseStep::Bad(msg) => Some((400, msg)),
                ParseStep::TooLarge(n) => Some((
                    413,
                    format!(
                        "request body of {n} bytes exceeds limit of {} bytes",
                        self.config.max_body_bytes
                    ),
                )),
            };
            if let Some((status, msg)) = error {
                self.metrics.record_failure();
                return self.respond_and_close(idx, status, msg.into_bytes());
            }
            if !read || budget == 0 {
                return;
            }
            match read_into(&mut conn.rbuf, &mut conn.head, &conn.stream, budget) {
                Ok((0, _)) => return self.close_conn(idx),
                Ok((n, dry)) => {
                    budget -= n;
                    read = !dry;
                    conn.last_activity = Instant::now();
                }
                // (`read_to_end` retries an interrupted read itself)
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => return self.close_conn(idx),
            }
        }
    }

    fn send_job(&mut self, idx: usize, req: ReqHead) {
        let conn = open(&mut self.conns, idx);
        let job = Job {
            idx,
            kill: conn.kill.clone(),
            path: req.path,
            body: req.body,
            keep_alive: req.keep_alive,
            enqueued: Instant::now(),
        };
        // count the job before publishing it: a worker may pick it up
        // (and decrement) the instant `send` returns, and a /metrics
        // scrape observing itself must not see the gauge at -1
        self.metrics
            .accept_queue_depth
            .fetch_add(1, Ordering::Relaxed);
        match self.dispatch.send(job) {
            Ok(()) => {
                conn.in_flight = true;
                self.queued += 1;
            }
            Err(job) => {
                // over-admission on a live connection: shed the request
                self.metrics
                    .accept_queue_depth
                    .fetch_sub(1, Ordering::Relaxed);
                BufferPool::global().put(job.body);
                self.metrics.record_shed();
                self.metrics.record_failure();
                conn.shed = true;
                self.respond_and_close(idx, 503, b"service overloaded, request shed".to_vec());
            }
        }
    }

    /// Answer `status` and close once it is written: a protocol error, or
    /// a shed request (which FINs and drains first).
    fn respond_and_close(&mut self, idx: usize, status: u16, body: Vec<u8>) {
        let conn = open(&mut self.conns, idx);
        conn.reset_read();
        conn.close_after_flush = true;
        let head = response_head(status, body.len(), false).into_bytes();
        conn.wbuf = Some(WBuf { head, body, off: 0 });
        self.write(idx);
    }

    /// Write what the socket takes of the response; once it is all out, a
    /// successor already buffered is served without waiting for readiness.
    fn write(&mut self, idx: usize) {
        let conn = open(&mut self.conns, idx);
        if flush_wbuf(conn).is_err() {
            return self.close_conn(idx);
        }
        if !conn.busy() && !conn.close_after_flush {
            self.next_request(idx, false);
        }
    }

    // ---- completions ---------------------------------------------------

    fn drain_done(&mut self, drained_at: Instant) {
        let batch = std::mem::take(&mut self.dispatch.lock().done);
        for d in batch {
            self.queued = self.queued.saturating_sub(1);
            self.metrics
                .reactor_wakeup_micros
                .record_micros(drained_at.saturating_duration_since(d.finished));
            let conn = self.conns.get_mut(d.idx).and_then(|c| c.as_mut());
            let Some(conn) = conn.filter(|c| Arc::ptr_eq(&c.kill, &d.kill)) else {
                BufferPool::global().put(d.body);
                continue;
            };
            conn.in_flight = false;
            conn.last_activity = Instant::now();
            let keep_alive = d.keep_alive && !self.shutdown.load(Ordering::SeqCst);
            conn.close_after_flush = !keep_alive;
            let head = response_head(d.status, d.body.len(), keep_alive).into_bytes();
            conn.wbuf = Some(WBuf {
                head,
                body: d.body,
                off: 0,
            });
            self.write(d.idx);
            self.after_progress(d.idx);
        }
    }

    // ---- lifecycle ----------------------------------------------------

    /// Close a connection whose last response is out, or re-arm its epoll
    /// interest: reading while idle or draining, writing while a response
    /// is queued.
    fn after_progress(&mut self, idx: usize) {
        let Some(conn) = self.conns.get_mut(idx).and_then(|c| c.as_mut()) else {
            return;
        };
        if conn.wbuf.is_none() && conn.close_after_flush && conn.draining_until.is_none() {
            if !conn.shed {
                return self.close_conn(idx);
            }
            // response delivered; FIN, then drain until the client
            // closes so it reliably reads the 503 (not ECONNRESET)
            let _ = conn.stream.shutdown(std::net::Shutdown::Write);
            conn.draining_until = Some(Instant::now() + DRAIN_DEADLINE);
        }
        // while busy, reading stays as it is: on, or switched off by a
        // read-side event in `conn_ready`
        let want_read = conn.draining_until.is_some()
            || (!conn.close_after_flush && (!conn.busy() || conn.interest.0));
        let want = (want_read, conn.wbuf.is_some());
        rearm(&self.poller, idx, conn, want);
    }

    fn close_conn(&mut self, idx: usize) {
        if let Some(mut conn) = self.conns.get_mut(idx).and_then(|c| c.take()) {
            // cancels the connection's job: a queued one is dropped at
            // dequeue, a running one sees it at its next checkpoint
            conn.kill.store(true, Ordering::Relaxed);
            conn.reset_read();
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            if conn.admitted {
                self.metrics
                    .active_connections
                    .fetch_sub(1, Ordering::SeqCst);
            }
            BufferPool::global().put(conn.rbuf);
            if let Some(wb) = conn.wbuf {
                BufferPool::global().put(wb.body);
            }
            self.free.push(idx);
            // stream drops → close(2)
        }
    }

    fn sweep_timeouts(&mut self) {
        let now = Instant::now();
        let timeout = self.config.read_timeout;
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_ref() else {
                continue;
            };
            if let Some(deadline) = conn.draining_until {
                if now >= deadline {
                    self.close_conn(idx);
                }
                continue;
            }
            // write-side slow-loris: a queued response the client won't
            // read would otherwise exempt the connection from every
            // timeout (non-idle, not draining) — it held a slab slot and
            // an active_connections count forever, blocking admission
            // capacity and graceful-shutdown drain detection
            if conn.wbuf.is_some()
                && now.saturating_duration_since(conn.last_write_progress) >= timeout
            {
                self.close_conn(idx);
                continue;
            }
            // slow-loris (partial request) and idle keep-alive both get
            // the read timeout, then a clean close without a response
            if !conn.busy() && now.saturating_duration_since(conn.last_activity) >= timeout {
                self.close_conn(idx);
            }
        }
    }

    fn close_idle_for_shutdown(&mut self) {
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_ref() else {
                continue;
            };
            let idle = !conn.busy()
                && conn.head.is_none()
                && conn.rbuf.is_empty()
                && conn.draining_until.is_none();
            if idle {
                self.close_conn(idx);
            }
        }
    }
}

/// The open connection in slot `idx`: the caller has just seen it there.
fn open(conns: &mut [Option<Conn>], idx: usize) -> &mut Conn {
    conns[idx].as_mut().expect("the connection is open")
}

/// Register `want` (read, write) as the connection's epoll interest,
/// unless it already is.
fn rearm(poller: &Poller, idx: usize, conn: &mut Conn, want: (bool, bool)) {
    if conn.interest != want
        && poller
            .modify(conn.stream.as_raw_fd(), idx as u64, want.0, want.1)
            .is_ok()
    {
        conn.interest = want;
    }
}

/// One EWMA step (α = 1/8) on the queue-wait admission signal. A CAS
/// loop, because workers race each other (and the reactor's decay
/// ticks) on the same cell — a plain load/store pair loses updates, and
/// a lost decay can delay recovery from a shed storm.
fn ewma_record(ewma: &AtomicU64, sample_micros: u64) {
    let _ = ewma.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |prev| {
        let next = prev - prev / 8 + sample_micros / 8;
        // integer floor: prev < 8 would otherwise never decay to zero
        Some(if next == prev && sample_micros < prev {
            prev - 1
        } else {
            next
        })
    });
}

/// Write as much of the queued response as the socket accepts. `Ok(())`
/// means "made progress or would block"; an error means the connection
/// is dead.
fn flush_wbuf(conn: &mut Conn) -> io::Result<()> {
    while let Some(wb) = conn.wbuf.as_mut() {
        let n = if wb.off < wb.head.len() {
            conn.stream
                .write_vectored(&[IoSlice::new(&wb.head[wb.off..]), IoSlice::new(&wb.body)])
        } else {
            conn.stream.write(&wb.body[wb.off - wb.head.len()..])
        };
        match n {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "write zero")),
            Ok(n) => {
                wb.off += n;
                conn.last_write_progress = Instant::now();
                if wb.off >= wb.head.len() + wb.body.len() {
                    if let Some(wb) = conn.wbuf.take() {
                        BufferPool::global().put(wb.body);
                    }
                }
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}
/// One read for a connection, appended to what its parser is filling: the
/// pooled buffer of the body in progress — never past that body's end, so a
/// pipelined successor stays in the socket — or else `rbuf`. The source is
/// read straight into the buffer's spare capacity. Returns the bytes
/// appended — none at the end of the stream — and whether the source ran
/// dry (would block) after them.
fn read_into(
    rbuf: &mut Vec<u8>,
    head: &mut Option<ReqHead>,
    src: impl Read,
    budget: usize,
) -> io::Result<(usize, bool)> {
    let (buf, want) = match head {
        Some(h) => {
            debug_assert!(rbuf.is_empty(), "buffered bytes precede the socket's");
            let want = h.content_length - h.body.len();
            (&mut h.body, want)
        }
        None => (rbuf, READ_CHUNK),
    };
    let before = buf.len();
    let end = src.take(want.min(budget) as u64).read_to_end(buf);
    // what was read before an error is appended all the same
    match (buf.len() - before, end) {
        (n, Ok(_)) => Ok((n, false)),
        (n @ 1.., Err(e)) if e.kind() == io::ErrorKind::WouldBlock => Ok((n, true)),
        (_, Err(e)) => Err(e),
    }
}

/// One incremental parse step over the connection's read buffers.
fn parse_step(conn: &mut Conn, max_body_bytes: usize) -> ParseStep {
    if conn.head.is_none() {
        if conn.rbuf.is_empty() {
            return ParseStep::NeedMore;
        }
        // the blank line may straddle two reads
        let Some(head_len) = head_end(&conn.rbuf, conn.scanned.saturating_sub(3)) else {
            conn.scanned = conn.rbuf.len();
            if conn.rbuf.len() > MAX_HEAD_BYTES {
                return ParseStep::Bad("request headers too large".to_string());
            }
            return ParseStep::NeedMore;
        };
        // the cap holds however the reads were chunked: a terminator
        // found past it is as oversized as one never found
        if head_len > MAX_HEAD_BYTES {
            return ParseStep::Bad("request headers too large".to_string());
        }
        match parse_head(&conn.rbuf[..head_len]) {
            Ok(mut h) => {
                // refused on the header alone, before any buffer is taken
                if h.content_length > max_body_bytes {
                    return ParseStep::TooLarge(h.content_length);
                }
                h.body = BufferPool::global().get(h.content_length);
                conn.rbuf.drain(..head_len);
                conn.head = Some(h);
                conn.scanned = 0;
            }
            Err(msg) => return ParseStep::Bad(msg),
        }
    }
    // What arrived along with the head moves over; from here on the socket
    // is read straight into `body` (`read_into`), so this runs once a body.
    let head = conn.head.as_mut().unwrap();
    let have = (head.content_length - head.body.len()).min(conn.rbuf.len());
    head.body.extend_from_slice(&conn.rbuf[..have]);
    conn.rbuf.drain(..have);
    if head.body.len() < head.content_length {
        return ParseStep::NeedMore;
    }
    ParseStep::Request(conn.head.take().unwrap())
}

/// Parse request line + headers from the header section, blank line
/// included: POST/GET only, `HTTP/` version required, `Content-Length`
/// must be a number, `Connection` overrides the HTTP/1.1 keep-alive
/// default.
fn parse_head(head: &[u8]) -> Result<ReqHead, String> {
    let mut lines = head.split(|&b| b == b'\n').map(|l| {
        let l = if l.last() == Some(&b'\r') {
            &l[..l.len() - 1]
        } else {
            l
        };
        String::from_utf8_lossy(l)
    });
    let req_line = lines.next().unwrap_or_default();
    let mut parts = req_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = match parts.next() {
        Some(p) => p.to_string(),
        None => return Err(format!("malformed request line `{}`", req_line.trim_end())),
    };
    let version = parts.next().unwrap_or("");
    if method != "POST" && method != "GET" {
        return Err(format!("unsupported method `{method}`"));
    }
    if !version.starts_with("HTTP/") {
        return Err(format!("malformed request line `{}`", req_line.trim_end()));
    }
    let mut content_length = 0usize;
    let mut keep_alive = version == "HTTP/1.1";
    for line in lines {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some((k, v)) = line.split_once(':') {
            let k = k.trim().to_ascii_lowercase();
            let v = v.trim();
            if k == "content-length" {
                content_length = v.parse().map_err(|_| "bad Content-Length".to_string())?;
            } else if k == "connection" {
                keep_alive = v.eq_ignore_ascii_case("keep-alive");
            }
        }
    }
    Ok(ReqHead {
        path,
        content_length,
        keep_alive,
        body: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conn_for(buf: &[u8]) -> Conn {
        // a loopback socket pair just to satisfy the struct; the parser
        // never touches it
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        Conn {
            rbuf: buf.to_vec(),
            ..Conn::new(stream)
        }
    }

    #[test]
    fn ewma_decays_to_zero_on_zero_samples() {
        let ewma = AtomicU64::new(0);
        // drive the signal above a 2s shed threshold
        for _ in 0..64 {
            ewma_record(&ewma, 5_000_000);
        }
        assert!(ewma.load(Ordering::Relaxed) > 2_000_000);
        // zero-wait decay samples (what the reactor feeds each idle
        // tick) must bring it all the way back down — including through
        // the integer-division floor at small values
        let mut steps = 0;
        while ewma.load(Ordering::Relaxed) > 0 {
            ewma_record(&ewma, 0);
            steps += 1;
            assert!(steps < 10_000, "EWMA never reached zero");
        }
        // ×7/8 per step: well under a couple hundred steps from 5s
        assert!(steps < 500, "decay too slow: {steps} steps");
    }

    #[test]
    fn incremental_parse_partial_then_complete() {
        let full = b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        // feed byte by byte: never a spurious completion, exactly one at
        // the end
        for cut in 1..full.len() {
            let mut c = conn_for(&full[..cut]);
            match parse_step(&mut c, 1 << 20) {
                ParseStep::NeedMore => {}
                _ => panic!("prefix of {cut} bytes must be incomplete"),
            }
        }
        let mut c = conn_for(full);
        match parse_step(&mut c, 1 << 20) {
            ParseStep::Request(r) => {
                assert_eq!(r.path, "/x");
                assert_eq!(r.body, b"hello");
                assert!(r.keep_alive);
            }
            _ => panic!("complete request must parse"),
        }
        assert!(c.rbuf.is_empty());
    }

    #[test]
    fn pipelined_requests_parse_in_order() {
        let two = b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nonePOST /b HTTP/1.1\r\nContent-Length: 3\r\n\r\ntwo";
        let mut c = conn_for(two);
        let ParseStep::Request(r1) = parse_step(&mut c, 1 << 20) else {
            panic!("first request");
        };
        let ParseStep::Request(r2) = parse_step(&mut c, 1 << 20) else {
            panic!("second request");
        };
        assert_eq!((r1.path.as_str(), &r1.body[..]), ("/a", &b"one"[..]));
        assert_eq!((r2.path.as_str(), &r2.body[..]), ("/b", &b"two"[..]));
        assert!(matches!(parse_step(&mut c, 1 << 20), ParseStep::NeedMore));
    }

    fn bad_reason(buf: &[u8]) -> String {
        match parse_step(&mut conn_for(buf), 1 << 20) {
            ParseStep::Bad(msg) => msg,
            _ => panic!("{:?} must be rejected", String::from_utf8_lossy(buf)),
        }
    }

    #[test]
    fn bad_requests_name_their_defect_and_oversize_is_detected() {
        // no path at all, then a path but no `HTTP/` version
        for line in ["THIS-IS-NOT-HTTP", "POST /x", "POST /x FTP/1.1"] {
            let reason = bad_reason(format!("{line}\r\n\r\n").as_bytes());
            assert!(
                reason.contains("malformed request line"),
                "{line}: {reason}"
            );
        }
        assert!(bad_reason(b"DELETE /x HTTP/1.1\r\n\r\n").contains("unsupported method `DELETE`"));
        for length in ["banana", "-1"] {
            let req = format!("POST /x HTTP/1.1\r\nContent-Length: {length}\r\n\r\n");
            assert!(bad_reason(req.as_bytes()).contains("bad Content-Length"));
        }
        let mut c = conn_for(b"POST /x HTTP/1.1\r\nContent-Length: 999999\r\n\r\n");
        assert!(matches!(
            parse_step(&mut c, 1024),
            ParseStep::TooLarge(999999)
        ));
        // GET is the admin surface's method: a request without a body
        let mut c = conn_for(b"GET /metrics HTTP/1.1\r\n\r\n");
        let ParseStep::Request(r) = parse_step(&mut c, 1 << 20) else {
            panic!("GET must parse");
        };
        assert_eq!((r.path.as_str(), r.body.len()), ("/metrics", 0));
    }

    #[test]
    fn head_cap_holds_with_or_without_a_terminator() {
        let filler = "X-Pad: ".to_string() + &"p".repeat(MAX_HEAD_BYTES);
        let unterminated = format!("POST /x HTTP/1.1\r\n{filler}");
        assert!(bad_reason(unterminated.as_bytes()).contains("headers too large"));
        // the same head arriving whole, terminator included, in one read
        let terminated = format!("{unterminated}\r\n\r\n");
        assert!(bad_reason(terminated.as_bytes()).contains("headers too large"));
    }

    /// Seeded byte-level mutation of valid requests, fed through the
    /// reactor's own read step in random chunks: no input may panic it, and
    /// whatever it is waiting for, it never holds more than one capped head
    /// plus one capped body. A failure names its seed.
    #[test]
    fn mutated_requests_never_panic_and_stay_bounded() {
        use rand::prelude::*;
        const MAX_BODY: usize = 2048;
        let corpus: [&[u8]; 5] = [
            b"POST /xrpc HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\nConnection: keep-alive\r\n\r\nhello",
            b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nonePOST /b HTTP/1.0\r\nContent-Length: 3\r\n\r\ntwo",
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
            b"POST /big HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
            b"POST /x HTTP/1.1\r\ncontent-length:  7 \r\nX-Other: a:b:c\r\n\r\npayload",
        ];
        let mut c = conn_for(b"");
        let mut outcomes = [0usize; 4];
        for seed in 0..400u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut input = corpus[rng.gen_range(0..corpus.len())].to_vec();
            for _ in 0..rng.gen_range(0..6usize) {
                let at = rng.gen_range(0..=input.len());
                match rng.gen_range(0..6u8) {
                    0 if at < input.len() => input[at] = rng.gen_range(0..=255u8),
                    1 if at < input.len() => drop(input.remove(at)),
                    2 => input.insert(at, b"\r\n: 9\0\xff"[rng.gen_range(0..7usize)]),
                    3 => input.truncate(at),
                    // a run long enough to cross the head cap
                    4 => {
                        let run =
                            vec![rng.gen_range(b' '..=b'~'); rng.gen_range(1..3 * MAX_HEAD_BYTES)];
                        input.splice(at..at, run);
                    }
                    _ => {
                        let copy = input[at..].to_vec();
                        input.extend_from_slice(&copy);
                    }
                }
            }
            c.reset_read();
            let mut fed = 0;
            'conn: while fed < input.len() {
                // one segment arriving: the read step takes what it wants of
                // it, the parser runs, and so on until the segment is gone
                let n = rng.gen_range(1..=(input.len() - fed).min(16 * 1024));
                let mut segment = &input[fed..fed + n];
                fed += n;
                while !segment.is_empty() {
                    read_into(&mut c.rbuf, &mut c.head, &mut segment, usize::MAX).unwrap();
                    loop {
                        match parse_step(&mut c, MAX_BODY) {
                            ParseStep::NeedMore => {
                                outcomes[0] += 1;
                                let body = c.head.as_ref().map_or(0, |h| h.body.len());
                                assert!(
                                    c.rbuf.len() + body <= MAX_HEAD_BYTES + MAX_BODY,
                                    "seed {seed}: {} + {body} bytes buffered",
                                    c.rbuf.len()
                                );
                                break;
                            }
                            ParseStep::Request(r) => {
                                outcomes[1] += 1;
                                assert!(r.body.len() <= MAX_BODY, "seed {seed}");
                                BufferPool::global().put(r.body);
                            }
                            // the reactor answers 400/413 and stops reading
                            ParseStep::Bad(_) => {
                                outcomes[2] += 1;
                                break 'conn;
                            }
                            ParseStep::TooLarge(n) => {
                                outcomes[3] += 1;
                                assert!(n > MAX_BODY, "seed {seed}");
                                break 'conn;
                            }
                        }
                    }
                }
            }
        }
        assert!(
            outcomes.iter().all(|&n| n > 0),
            "every outcome reached (NeedMore/Request/Bad/TooLarge): {outcomes:?}"
        );
    }

    #[test]
    fn connection_close_header_respected() {
        let mut c = conn_for(b"POST /x HTTP/1.1\r\nConnection: close\r\nContent-Length: 0\r\n\r\n");
        let ParseStep::Request(r) = parse_step(&mut c, 1 << 20) else {
            panic!("must parse");
        };
        assert!(!r.keep_alive);
        let mut c = conn_for(b"POST /x HTTP/1.0\r\nContent-Length: 0\r\n\r\n");
        let ParseStep::Request(r) = parse_step(&mut c, 1 << 20) else {
            panic!("must parse");
        };
        assert!(!r.keep_alive, "HTTP/1.0 defaults to close");
        let mut c =
            conn_for(b"POST /x HTTP/1.0\r\nCONNECTION: Keep-Alive\r\nContent-Length: 0\r\n\r\n");
        let ParseStep::Request(r) = parse_step(&mut c, 1 << 20) else {
            panic!("must parse");
        };
        assert!(r.keep_alive, "the header overrides the version's default");
    }
}

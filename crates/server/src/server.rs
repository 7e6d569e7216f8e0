//! The TCP front: a dedicated acceptor feeding a bounded connection
//! queue drained by a fixed pool of worker threads, with explicit load
//! shedding, per-request wall-clock deadlines, and graceful drain.
//!
//! ## Admission control
//!
//! One acceptor thread owns `accept(2)`. Every accepted connection is
//! offered to a bounded queue ([`ServerConfig::max_queue`]); when the
//! queue is full the acceptor sheds the connection *explicitly* — a
//! `429 Too Many Requests` with a `Retry-After` header, written under a
//! short timeout — instead of letting the kernel backlog grow silently.
//! Workers pop connections, record how long each waited (the
//! `admission.queue_wait_us` histogram, plus a `queue_wait` span when the
//! wait was long enough to matter), and serve the keep-alive loop.
//!
//! ## Deadlines
//!
//! Each *request* (not each read) gets a wall-clock deadline
//! ([`ServerConfig::request_deadline`]) armed when its first byte
//! arrives, enforced by [`TimedStream`] across every header and body
//! read: a peer trickling one byte per 29 s can no longer reset a 30 s
//! per-read timeout forever. An expired deadline is answered with
//! `408 Request Timeout` and the connection is closed (the `admission`
//! metrics count it as timed out and reaped). The response write runs
//! under what remains of the same deadline, with a short grace floor so
//! a request that legitimately spent its budget computing still gets
//! its bytes flushed. Queue wait and keep-alive idle time never eat
//! into a request's deadline.
//!
//! ## Shutdown
//!
//! `POST /shutdown` flips the shared flag; the worker that served it
//! dials the listener once so the acceptor wakes, stops accepting, and
//! closes the queue. Workers then drain the queue — already-admitted
//! clients are served, not dropped — finish in-flight requests (their
//! responses carry `connection: close`), and idle keep-alive
//! connections close cleanly at a request boundary within the idle
//! poll interval (200 ms). `run` joins everything; once it returns the listener
//! is gone, so post-drain connects are refused.

use std::collections::VecDeque;
use std::io::{BufReader, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::http::{parse_request, ParseError, Response, TimedStream};
use crate::persist::Persistence;
use crate::router::App;
use crate::session::SessionStore;

/// Environment override for [`ServerConfig::max_queue`].
pub const MAX_QUEUE_ENV: &str = "ROUTES_MAX_QUEUE";
/// Environment override (milliseconds) for
/// [`ServerConfig::request_deadline`].
pub const REQUEST_DEADLINE_ENV: &str = "ROUTES_REQUEST_DEADLINE_MS";
/// Environment override (seconds) for [`ServerConfig::retry_after`].
pub const RETRY_AFTER_ENV: &str = "ROUTES_RETRY_AFTER_SECS";

/// Default bound of the acceptor's connection queue.
pub const DEFAULT_MAX_QUEUE: usize = 64;
/// Default wall-clock deadline for one request (parse → handle → write).
pub const DEFAULT_REQUEST_DEADLINE: Duration = Duration::from_secs(10);
/// Default `Retry-After` hint on shed (429) responses.
pub const DEFAULT_RETRY_AFTER: Duration = Duration::from_secs(1);

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker thread count (≥ 1).
    pub threads: usize,
    /// Session-store bound (LRU beyond this).
    pub max_sessions: usize,
    /// Session-store shard count; 0 means "auto" (`ROUTES_SESSION_SHARDS`
    /// or the machine's available parallelism).
    pub session_shards: usize,
    /// Per-read socket timeout; a silent peer cannot pin a worker past it.
    pub read_timeout: Duration,
    /// Bound of the acceptor's connection queue; beyond it connections
    /// are shed with 429. 0 means "auto" (`ROUTES_MAX_QUEUE` or
    /// [`DEFAULT_MAX_QUEUE`]).
    pub max_queue: usize,
    /// Wall-clock deadline for one request, armed at its first byte and
    /// spanning parse, handling, and the response write; a trickling
    /// peer cannot reset it. `None` means "auto"
    /// (`ROUTES_REQUEST_DEADLINE_MS` or [`DEFAULT_REQUEST_DEADLINE`]).
    pub request_deadline: Option<Duration>,
    /// `Retry-After` hint carried on shed (429) responses. `None` means
    /// "auto" (`ROUTES_RETRY_AFTER_SECS` or [`DEFAULT_RETRY_AFTER`]).
    pub retry_after: Option<Duration>,
    /// Data directory for durable snapshot + WAL persistence; `None`
    /// (default) keeps the service purely in-memory.
    pub data_dir: Option<PathBuf>,
    /// Whether to record spans (`false` still mints trace IDs). The
    /// default honors `ROUTES_TRACE`.
    pub tracing: bool,
    /// Span ring capacity; 0 means "from `ROUTES_TRACE_SPANS`" (default
    /// 1024).
    pub trace_capacity: usize,
    /// Slow-request warning threshold; `None` means "from
    /// `ROUTES_SLOW_MS`" (default 500 ms).
    pub slow_request: Option<Duration>,
    /// Self-profiler sampling frequency in Hz; `None` means "from
    /// `ROUTES_PROFILE_HZ`" (default 0 = off — off means zero clock
    /// reads and zero frame pushes on the request path).
    pub profile_hz: Option<u32>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 4,
            max_sessions: 32,
            session_shards: 0,
            read_timeout: Duration::from_secs(30),
            max_queue: 0,
            request_deadline: None,
            retry_after: None,
            data_dir: None,
            tracing: true,
            trace_capacity: 0,
            slow_request: None,
            profile_hz: None,
        }
    }
}

fn env_parse<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok()?.parse().ok()
}

impl ServerConfig {
    /// [`ServerConfig::max_queue`] with the 0 = env-or-default rule
    /// applied (never 0: a queue the acceptor cannot park one connection
    /// in would shed everything).
    pub fn resolved_max_queue(&self) -> usize {
        if self.max_queue > 0 {
            return self.max_queue;
        }
        env_parse::<usize>(MAX_QUEUE_ENV)
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_MAX_QUEUE)
    }

    /// [`ServerConfig::request_deadline`] with the `None` =
    /// env-or-default rule applied.
    pub fn resolved_request_deadline(&self) -> Duration {
        self.request_deadline.unwrap_or_else(|| {
            env_parse::<u64>(REQUEST_DEADLINE_ENV)
                .filter(|&ms| ms > 0)
                .map(Duration::from_millis)
                .unwrap_or(DEFAULT_REQUEST_DEADLINE)
        })
    }

    /// [`ServerConfig::retry_after`] with the `None` = env-or-default
    /// rule applied.
    pub fn resolved_retry_after(&self) -> Duration {
        self.retry_after.unwrap_or_else(|| {
            env_parse::<u64>(RETRY_AFTER_ENV)
                .map(Duration::from_secs)
                .unwrap_or(DEFAULT_RETRY_AFTER)
        })
    }

    /// [`ServerConfig::profile_hz`] with the `None` = env-or-default rule
    /// applied (clamped to [`routes_obs::MAX_PROFILE_HZ`]).
    pub fn resolved_profile_hz(&self) -> u32 {
        self.profile_hz
            .map_or_else(routes_obs::profile_hz_from_env, |hz| {
                hz.min(routes_obs::MAX_PROFILE_HZ)
            })
    }
}

/// The resolved per-connection limits, copied into every worker.
#[derive(Clone, Copy)]
struct Limits {
    read_timeout: Duration,
    request_deadline: Duration,
    retry_after: Duration,
}

/// An accepted connection parked in the admission queue.
struct Pending {
    stream: TcpStream,
    enqueued: Instant,
}

/// The bounded hand-off between the acceptor and the workers. Plain
/// `Mutex<VecDeque>` + `Condvar`: the queue is small by design (its
/// whole point is to be a measured bound, not a buffer), so lock
/// contention is not a concern.
struct Admission {
    state: Mutex<AdmissionState>,
    ready: Condvar,
    capacity: usize,
}

struct AdmissionState {
    queue: VecDeque<Pending>,
    closed: bool,
}

impl Admission {
    fn new(capacity: usize) -> Self {
        Admission {
            state: Mutex::new(AdmissionState {
                queue: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Try to enqueue; gives the connection back at capacity (or after
    /// close) so the acceptor can shed it.
    fn offer(&self, pending: Pending) -> Result<(), Pending> {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if state.closed || state.queue.len() >= self.capacity {
            return Err(pending);
        }
        state.queue.push_back(pending);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Block until a connection is available; `None` only after `close`
    /// once the queue has fully drained — already-admitted clients are
    /// served, not dropped.
    fn pop(&self) -> Option<Pending> {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(pending) = state.queue.pop_front() {
                return Some(pending);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Stop admitting; wake every parked worker so the drain can finish.
    fn close(&self) {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).closed = true;
        self.ready.notify_all();
    }
}

/// A bound, not-yet-running service.
pub struct Server {
    listener: TcpListener,
    app: Arc<App>,
    config: ServerConfig,
}

impl Server {
    /// Bind the listener (use port 0 for an ephemeral port). With a data
    /// directory configured, this is also where crash recovery runs:
    /// snapshot-then-log replay restores the session store before the
    /// first connection is accepted.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let store = if config.session_shards == 0 {
            SessionStore::new(config.max_sessions)
        } else {
            SessionStore::with_shards(config.max_sessions, config.session_shards)
        };
        let pool = routes_pool::Pool::from_env();
        let persist = match &config.data_dir {
            Some(dir) => {
                let (persist, report) = Persistence::open(dir, &store, &pool)?;
                routes_obs::log(
                    routes_obs::Level::Info,
                    "recovery",
                    &[
                        (
                            "restored_sessions",
                            routes_obs::Value::from(report.restored_sessions),
                        ),
                        (
                            "replayed_records",
                            routes_obs::Value::from(report.replayed_records),
                        ),
                        ("summary", routes_obs::Value::from(report.summary.as_str())),
                    ],
                );
                Some(persist)
            }
            None => None,
        };
        let mut tracer = routes_obs::Tracer::from_env(
            (config.trace_capacity > 0).then_some(config.trace_capacity),
        );
        if !config.tracing {
            tracer = routes_obs::Tracer::disabled();
        }
        let slow = config
            .slow_request
            .unwrap_or_else(routes_obs::slow_threshold_from_env);
        Ok(Server {
            listener,
            app: Arc::new(App::with_observability(
                store,
                pool,
                persist,
                Arc::new(tracer),
                slow,
            )),
            config,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Shared application state (tests inspect metrics through this).
    pub fn app(&self) -> Arc<App> {
        Arc::clone(&self.app)
    }

    /// Serve until graceful shutdown; blocks, joining the acceptor and
    /// every worker. With persistence enabled, a maintenance thread
    /// flushes buffered WAL records and checkpoints past the threshold
    /// every [`MAINTENANCE_TICK`]; shutdown ends with a durable flush
    /// (but no checkpoint, so the next boot exercises WAL replay).
    pub fn run(self) -> std::io::Result<()> {
        let addr = self.local_addr()?;
        let Server {
            listener,
            app,
            config,
        } = self;
        let threads = config.threads.max(1);
        let limits = Limits {
            read_timeout: config.read_timeout,
            request_deadline: config.resolved_request_deadline(),
            retry_after: config.resolved_retry_after(),
        };
        let capacity = config.resolved_max_queue();
        app.metrics
            .admission_queue_capacity
            .store(capacity as u64, Relaxed);
        let admission = Arc::new(Admission::new(capacity));
        // Start the self-profiler's ticker before the workers exist so
        // every worker thread registers its frames under a live sampler;
        // 0 Hz means no ticker and the frame hooks stay disabled.
        let sampler = routes_obs::start_sampler(config.resolved_profile_hz());

        let mut workers = Vec::with_capacity(threads);
        for k in 0..threads {
            let admission = Arc::clone(&admission);
            let app = Arc::clone(&app);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("spiderd-worker-{k}"))
                    .spawn(move || worker_loop(&admission, &app, &limits, addr))?,
            );
        }
        // The acceptor owns the listener: when it exits (and `run`
        // returns) the socket is gone, so post-drain connects are
        // refused rather than silently queued in a dead backlog.
        let acceptor = {
            let admission = Arc::clone(&admission);
            let app = Arc::clone(&app);
            std::thread::Builder::new()
                .name("spiderd-acceptor".to_owned())
                .spawn(move || acceptor_loop(listener, &app, &admission, &limits))?
        };
        let maintenance = if app.persistence().is_some() {
            let app = Arc::clone(&app);
            Some(
                std::thread::Builder::new()
                    .name("spiderd-maintenance".to_owned())
                    .spawn(move || maintenance_loop(&app))?,
            )
        } else {
            None
        };
        let _ = acceptor.join();
        for w in workers {
            let _ = w.join();
        }
        if let Some(m) = maintenance {
            let _ = m.join();
        }
        if let Some(sampler) = sampler {
            sampler.stop();
        }
        if let Some(p) = app.persistence() {
            p.flush()?;
        }
        Ok(())
    }

    /// Start serving on a background thread; returns the bound address and
    /// the join handle. Convenience for tests and examples.
    pub fn spawn(self) -> std::io::Result<(SocketAddr, std::thread::JoinHandle<()>)> {
        let addr = self.local_addr()?;
        let handle = std::thread::spawn(move || {
            let _ = self.run();
        });
        Ok((addr, handle))
    }
}

/// Accept until shutdown, offering every connection to the bounded queue
/// and shedding (429 + `Retry-After`) whatever does not fit.
fn acceptor_loop(listener: TcpListener, app: &Arc<App>, admission: &Admission, limits: &Limits) {
    loop {
        if app.is_shutting_down() {
            break;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        if app.is_shutting_down() {
            // A wake-up dial, not a client.
            break;
        }
        app.metrics.connections_accepted.fetch_add(1, Relaxed);
        let pending = Pending {
            stream,
            enqueued: Instant::now(),
        };
        match admission.offer(pending) {
            Ok(()) => {
                app.metrics.admission_admitted.fetch_add(1, Relaxed);
                app.metrics.admission_queue_depth.fetch_add(1, Relaxed);
            }
            Err(pending) => shed(pending, app, limits),
        }
    }
    admission.close();
}

/// Answer an over-capacity connection with `429 Too Many Requests` +
/// `Retry-After`, under a short write timeout so an unreading peer
/// cannot pin the acceptor, then close it. Cheap by construction: no
/// parsing, no dispatch — the cost of being over capacity is one small
/// write at the door.
fn shed(pending: Pending, app: &Arc<App>, limits: &Limits) {
    app.metrics.admission_shed.fetch_add(1, Relaxed);
    let mut stream = pending.stream;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(WRITE_GRACE));
    let ctx = app.tracer().begin(None);
    let _scope = routes_obs::scoped(Some(ctx.clone()));
    let mut response = Response::error(429, "connection queue full; retry shortly");
    let retry_secs = limits.retry_after.as_secs().max(1);
    response.set_header("retry-after", retry_secs.to_string());
    response.set_header("x-trace-id", ctx.id().as_str().to_owned());
    app.metrics.record_response(429, Duration::ZERO, None);
    ctx.record(
        "admission_shed",
        pending.enqueued,
        pending.enqueued.elapsed(),
    );
    routes_obs::log(
        routes_obs::Level::Debug,
        "admission_shed",
        &[
            ("retry_after_secs", routes_obs::Value::from(retry_secs)),
            (
                "queue_capacity",
                routes_obs::Value::from(app.metrics.admission_queue_capacity.load(Relaxed)),
            ),
        ],
    );
    let _ = response.write_to(&mut stream, false);
    // Lingering close: a shed client has usually already written its
    // request by the time we answer. Dropping the socket with those
    // bytes unread makes the kernel send RST instead of FIN — and RST
    // processing discards the 429 still sitting in the client's receive
    // queue. Send our FIN, then drain whatever has already arrived
    // (non-blocking, bounded, so a flooder can never stall the
    // acceptor) before closing.
    let _ = stream.shutdown(Shutdown::Write);
    if stream.set_nonblocking(true).is_ok() {
        let mut scratch = [0u8; 4096];
        for _ in 0..16 {
            match stream.read(&mut scratch) {
                Ok(n) if n > 0 => continue,
                _ => break,
            }
        }
    }
}

/// Queue waits below this threshold are recorded only in the
/// `queue_wait_us` histogram; longer ones also get a `queue_wait` span.
/// An uncontended hand-off is microseconds — tracing every one would
/// drown the span ring in noise no one asked for.
const QUEUE_WAIT_SPAN_THRESHOLD: Duration = Duration::from_millis(10);

/// Pop admitted connections and serve them until the queue closes and
/// drains. The worker that observes shutdown dials the listener so the
/// acceptor (possibly parked in `accept`) wakes and closes the queue.
fn worker_loop(admission: &Admission, app: &Arc<App>, limits: &Limits, addr: SocketAddr) {
    while let Some(pending) = admission.pop() {
        app.metrics.admission_queue_depth.fetch_sub(1, Relaxed);
        let wait = pending.enqueued.elapsed();
        app.metrics.record_queue_wait(wait);
        if wait >= QUEUE_WAIT_SPAN_THRESHOLD {
            let ctx = app.tracer().begin(None);
            ctx.record("queue_wait", pending.enqueued, wait);
        }
        serve_connection(pending.stream, app, limits);
        if app.is_shutting_down() {
            // This worker served the /shutdown request (or raced it):
            // wake the acceptor so it stops accepting and closes the
            // queue, letting every worker drain out.
            let _ = TcpStream::connect(addr);
        }
    }
}

/// How often the maintenance thread flushes buffered WAL records and
/// checks the checkpoint threshold. Short enough that a buffered touch is
/// durable well before a human could restart the service, long enough to
/// batch a burst of them into one fsync.
pub const MAINTENANCE_TICK: Duration = Duration::from_millis(250);

/// Flush-and-maybe-checkpoint until shutdown. Errors are already sticky
/// in the WAL (poisoning), so the loop keeps ticking — the next synced
/// append reports the failure to a client.
fn maintenance_loop(app: &Arc<App>) {
    let Some(persist) = app.persistence() else {
        return;
    };
    while !app.is_shutting_down() {
        std::thread::sleep(MAINTENANCE_TICK);
        // A minted per-tick context so background flush/checkpoint spans
        // (`wal_fsync`, `checkpoint`) land in the ring under their own
        // trace ID instead of vanishing.
        let ctx = app.tracer().begin(None);
        let _scope = routes_obs::scoped(Some(ctx));
        let _ = persist.maintain(&app.store, &app.pool);
    }
    let _ = persist.flush();
}

/// How often an idle keep-alive connection re-checks the shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(200);

/// Floor on the write-side budget: a request that legitimately spent its
/// whole deadline computing still gets this long to flush its response,
/// and shed/reap notices get this long to reach the peer.
const WRITE_GRACE: Duration = Duration::from_secs(1);

/// Serve one connection's keep-alive request loop under the admission
/// limits.
fn serve_connection(stream: TcpStream, app: &Arc<App>, limits: &Limits) {
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    // One persistent BufReader wraps the deadline-aware stream: its
    // buffer (and any pipelined request bytes in it) survives across
    // requests, keeping framing byte-exact; `get_mut` re-arms the limits
    // between phases without touching the buffer.
    let mut reader = BufReader::new(TimedStream::new(stream, limits.read_timeout));
    loop {
        // Idle wait at the request boundary: a short poll with no
        // deadline, so the worker notices graceful shutdown instead of
        // pinning an idle connection. Nothing is consumed here, so
        // retrying after a poll timeout cannot corrupt request framing.
        reader.get_mut().arm(IDLE_POLL, None);
        loop {
            if app.is_shutting_down() {
                return;
            }
            use std::io::BufRead as _;
            match reader.fill_buf() {
                Ok([]) => return, // clean EOF
                Ok(_) => break,   // a request head is waiting
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    continue
                }
                Err(_) => return,
            }
        }
        // First request byte seen: the wall-clock deadline starts here.
        // Queue wait and keep-alive idle never eat into it; header and
        // body trickling cannot extend it.
        let armed = Instant::now();
        let deadline = armed + limits.request_deadline;
        reader.get_mut().arm(limits.read_timeout, Some(deadline));
        let request = match parse_request(&mut reader) {
            Ok(r) => r,
            Err(ParseError::Eof) => return,
            Err(ParseError::Timeout) => {
                // The peer stalled mid-request (or trickled past the
                // deadline): answer 408 and reap the connection.
                app.metrics.admission_timeouts.fetch_add(1, Relaxed);
                app.metrics.admission_reaped.fetch_add(1, Relaxed);
                let ctx = app.tracer().begin(None);
                let _scope = routes_obs::scoped(Some(ctx.clone()));
                let mut response = Response::error(408, "request deadline exceeded");
                response.set_header("x-trace-id", ctx.id().as_str().to_owned());
                app.metrics.record_response(408, armed.elapsed(), None);
                ctx.record("request_timeout", armed, armed.elapsed());
                routes_obs::log(
                    routes_obs::Level::Warn,
                    "request_reaped",
                    &[
                        (
                            "elapsed_us",
                            routes_obs::Value::from(
                                armed.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
                            ),
                        ),
                        (
                            "deadline_ms",
                            routes_obs::Value::from(
                                limits
                                    .request_deadline
                                    .as_millis()
                                    .min(u128::from(u64::MAX))
                                    as u64,
                            ),
                        ),
                    ],
                );
                let _ = writer.set_write_timeout(Some(WRITE_GRACE));
                let _ = response.write_to(&mut writer, false);
                return;
            }
            Err(ParseError::Io(_)) => return,
            Err(e) => {
                // Syntax and limit violations get a response, then the
                // connection closes (framing is unreliable after them). No
                // headers were parsed, so the trace ID is always minted.
                app.metrics.bad_requests.fetch_add(1, Relaxed);
                let ctx = app.tracer().begin(None);
                let _scope = routes_obs::scoped(Some(ctx.clone()));
                let mut response = match e {
                    ParseError::TooLarge("body too large") => {
                        Response::error(413, "body too large")
                    }
                    ParseError::TooLarge(what) => Response::error(431, what),
                    ParseError::Malformed(what) => Response::error(400, what),
                    ParseError::Eof | ParseError::Timeout | ParseError::Io(_) => unreachable!(),
                };
                response.set_header("x-trace-id", ctx.id().as_str().to_owned());
                app.metrics
                    .record_response(response.status, Duration::ZERO, None);
                let _ = writer.set_write_timeout(Some(WRITE_GRACE));
                let _ = response.write_to(&mut writer, false);
                return;
            }
        };
        let response = app.handle_traced(&request);
        let keep_alive = request.keep_alive && !app.is_shutting_down();
        // The same deadline spans the response write, floored at
        // WRITE_GRACE. A peer that stops reading is reaped, not waited
        // on for the full default socket patience.
        let budget = deadline
            .saturating_duration_since(Instant::now())
            .max(WRITE_GRACE);
        let _ = writer.set_write_timeout(Some(budget));
        match response.write_to(&mut writer, keep_alive) {
            Ok(()) if keep_alive => {}
            Ok(()) => return,
            Err(e) => {
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) {
                    app.metrics.admission_reaped.fetch_add(1, Relaxed);
                }
                return;
            }
        }
    }
}

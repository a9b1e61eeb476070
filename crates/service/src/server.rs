//! The decomposition server: request lifecycle, worker pool, deadlines,
//! backpressure and graceful shutdown.
//!
//! ## Lifecycle of a solve request
//!
//! 1. The event loop ([`crate::event_loop`]) splits the line and parses
//!    the request envelope — nothing more, so no request's cost stalls
//!    the loop — and enters the request into the bounded intake queue.
//! 2. An intake thread builds the [`Problem`] and the canonical form of
//!    the (normalized) instance and looks it up in the result cache; a
//!    hit answers here, without waiting for a worker.
//! 3. Otherwise the job enters the bounded work queue. A full queue, at
//!    either stage, means an immediate `rejected` response with
//!    `retry_after_ms` (backpressure) rather than unbounded buffering.
//! 4. A worker pops the job. If its deadline already expired in the queue
//!    the job is dropped with a `timeout` response (cooperative
//!    cancellation of evicted requests). In a cluster, a key owned
//!    elsewhere is relayed to its owners.
//! 5. Otherwise the remaining time is mapped onto the solver's
//!    [`SearchConfig`] budget and a shared [`Incumbent`] is registered
//!    with the deadline watchdog, which cancels it the moment the
//!    deadline passes — so a cold solve never overshoots its deadline by
//!    more than the engines' cancellation granularity (a few
//!    milliseconds).
//! 6. The result is admitted to the cache and the response handed back
//!    to the event loop, which writes it on the requesting connection.
//!
//! `answer` (conjunctive-query) requests ride the same queues, deadline
//! watchdog and backpressure: an intake thread parses the query, a
//! worker runs the `htd-query` pipeline, and a per-server [`ShapeCache`]
//! lets repeated query *shapes* skip decomposition while every answer is
//! still evaluated against its own relations.
//!
//! ## Graceful shutdown
//!
//! `shutdown` (or SIGINT/SIGTERM under [`run_until_shutdown`]) flips the
//! server into *draining*: new solve and answer requests are refused
//! with `shutting_down`, queued and in-flight work runs to completion,
//! probes (`/healthz`, `/metrics`, `ping`, `stats`) keep answering, and
//! once both queues are empty and no request is in flight the intake
//! threads, workers, watchdog and event loop exit and a final metrics
//! summary is flushed to the log.

use std::collections::VecDeque;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use htd_core::{HtdError, Json};
use htd_hypergraph::canonical::{canonical_form, CanonicalForm};
use htd_query::{parse_query, AnswerOptions, FileAccess, Query, ShapeCache};
use htd_resilience::{
    quarantined, CircuitBreaker, Fault, FaultInjector, FaultPlan, InjectedFaults, MemoryBudget,
};
use htd_search::{solve, Engine, Incumbent, Problem, SearchConfig};
use parking_lot::Mutex;

use crate::cache::ResultCache;
use crate::client::Client;
use crate::cluster::{Cluster, ClusterConfig};
use crate::event_loop::{Completions, EventLoop};
use crate::metrics::Metrics;
use crate::protocol::{
    parse_problem, AnswerRequest, CertPush, Command, Request, Response, SolveRequest, Status,
};
use crate::store::{CertStore, StoreRecord};

/// Slack subtracted from the remaining deadline when budgeting a solve,
/// covering admission/serialization overhead around the engine run.
const DEADLINE_SLACK: Duration = Duration::from_millis(10);
/// How often the watchdog scans for expired deadlines.
const WATCHDOG_PERIOD: Duration = Duration::from_millis(2);
/// Extra time the event loop waits for a worker beyond the deadline.
pub(crate) const REPLY_GRACE: Duration = Duration::from_secs(2);
/// Largest serialized response written back on a connection; anything
/// bigger is replaced by a structured internal error.
pub(crate) const MAX_RESPONSE: usize = 32 << 20;
/// Query shapes kept in the answer shape cache. Each entry is one
/// elimination ordering (a few dozen bytes), so the cache is cheap; the
/// bound only guards against unbounded shape churn.
const SHAPE_CACHE_CAPACITY: usize = 1024;
/// Server-side cap on enumerated answer tuples when the request names no
/// limit, keeping one answer under [`MAX_RESPONSE`].
const DEFAULT_ANSWER_LIMIT: u64 = 100_000;

/// Configuration of a server instance.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Listen address, e.g. `127.0.0.1:7878` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads solving requests; as many intake threads parse
    /// and canonicalize them and answer result-cache hits.
    pub threads: usize,
    /// Result-cache capacity in mebibytes.
    pub cache_mb: usize,
    /// Bounded work-queue capacity; beyond it requests are rejected.
    pub queue_capacity: usize,
    /// Deadline applied to requests that do not carry one.
    pub default_deadline_ms: u64,
    /// Emit one structured log line per request to stderr.
    pub log: bool,
    /// Debug option: oracle-verify every solved outcome with `htd-check`
    /// before admitting it to the result cache. An outcome that fails the
    /// independent re-verification is still returned to the client (marked
    /// in the log and counted in `htd_oracle_failures_total`) but never
    /// cached, so one bad solve cannot poison repeat queries.
    pub verify_responses: bool,
    /// Per-request memory budget in mebibytes; solves that outgrow it
    /// degrade to their best anytime bounds (`outcome.degraded = true`)
    /// instead of growing without bound. `None` = ungoverned.
    pub memory_mb: Option<u64>,
    /// Deterministic fault injection: each solve consults the plan and may
    /// get a panicking worker, an injected stall, or an allocation-starved
    /// budget. `None` (production) injects nothing.
    pub chaos: Option<FaultPlan>,
    /// Consecutive panicked reports after which an engine's circuit
    /// breaker opens and the engine is benched from the lineup.
    pub breaker_threshold: u32,
    /// How long a benched engine stays out before the breaker half-opens
    /// and lets one probe solve try it again.
    pub breaker_probe_ms: u64,
    /// Directory of the persistent verified certificate store. `Some`
    /// opens (creating if absent) `store.log` under it, re-verifies every
    /// record with the `htd-check` oracle, warms the result cache with
    /// the survivors, and appends every new cacheable solve — so a
    /// restarted node serves warm without ever trusting disk.
    pub store_dir: Option<PathBuf>,
    /// Cluster membership: `Some` makes this node one of N peers sharding
    /// the keyspace over a consistent-hash ring (see [`crate::cluster`]).
    pub cluster: Option<ClusterConfig>,
    /// Bind with `SO_REUSEADDR` so a restarted node can reclaim its port
    /// immediately (lingering connections of a killed predecessor
    /// otherwise hold it in `TIME_WAIT`). Off by default: in production
    /// the guard against two servers on one port is worth the wait.
    pub reuse_addr: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7878".into(),
            threads: 2,
            cache_mb: 64,
            queue_capacity: 64,
            default_deadline_ms: 10_000,
            log: false,
            verify_responses: false,
            memory_mb: None,
            chaos: None,
            breaker_threshold: 3,
            breaker_probe_ms: 500,
            store_dir: None,
            cluster: None,
            reuse_addr: false,
        }
    }
}

/// Where a worker's finished [`Response`] goes: into the event loop's
/// completion queue, tagged with the connection id and per-connection
/// token, to be written when the connection is next writable.
pub(crate) struct ReplySink {
    pub(crate) conn: u64,
    pub(crate) token: u64,
    pub(crate) completions: Arc<Completions>,
}

impl ReplySink {
    pub(crate) fn send(&self, response: Response) {
        self.completions.push(self.conn, self.token, response);
    }
}

/// What admission decided about a request, before any worker ran.
// `Ready` dwarfs `Queued`, but an `Admission` lives only for the few
// instructions between `admit_request` and the caller's `match`; boxing
// would put an allocation on the probe fast path for nothing.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Admission {
    /// Answered on the spot: probe, backpressure rejection, or drain
    /// refusal.
    Ready(Response),
    /// Queued for a worker; the response will arrive on the job's
    /// [`ReplySink`] no later than `deadline + REPLY_GRACE`.
    Queued {
        id: Option<String>,
        fingerprint: Option<String>,
        deadline: Instant,
        received: Instant,
    },
}

/// A request between admission and its response: its payload `W` plus
/// the bookkeeping every stage shares. Solves and answers pass through
/// two bounded queues — intake ([`Intake`]), then work ([`Work`]) — and
/// share the deadline watchdog and the backpressure machinery.
struct Job<W> {
    id: Option<String>,
    work: W,
    deadline: Instant,
    deadline_ms: u64,
    threads: usize,
    engines: Option<Vec<Engine>>,
    received: Instant,
    /// When the job entered its current queue; the work queue's
    /// pop-to-push delta is the queue-wait component of the latency split.
    enqueued: Instant,
    reply: ReplySink,
}

impl<W> Job<W> {
    fn new(
        id: Option<String>,
        work: W,
        deadline_ms: u64,
        threads: usize,
        engines: Option<Vec<Engine>>,
        reply: ReplySink,
    ) -> Job<W> {
        let received = Instant::now();
        Job {
            id,
            work,
            deadline: received + Duration::from_millis(deadline_ms),
            deadline_ms,
            threads,
            engines,
            received,
            enqueued: received,
            reply,
        }
    }

    /// Swaps the payload, keeping the bookkeeping and restarting the
    /// queue clock: returns the old payload and the job carrying `work`.
    fn replace_work<V>(self, work: V) -> (W, Job<V>) {
        let job = Job {
            id: self.id,
            work,
            deadline: self.deadline,
            deadline_ms: self.deadline_ms,
            threads: self.threads,
            engines: self.engines,
            received: self.received,
            enqueued: Instant::now(),
            reply: self.reply,
        };
        (self.work, job)
    }
}

/// A request as received, waiting for an intake thread to parse it —
/// and, for a solve, to canonicalize it and try the result cache. This
/// runs on neither the event loop nor a worker: an expensive
/// canonicalization never stalls other connections, and a cache hit
/// never waits behind a running solve.
enum Intake {
    Solve(SolveRequest),
    Answer(AnswerRequest),
}

/// Prepared work, waiting for a worker.
enum Work {
    Solve(SolveWork),
    Answer(AnswerWork),
    /// Cluster mode: a peer pushed a certificate; re-verify it with the
    /// oracle before admitting it to cache and store.
    PutCert(CertPush),
}

/// A parsed and canonicalized solve request, ready for the search.
struct SolveWork {
    req: SolveRequest,
    problem: Problem,
    canon: CanonicalForm,
    fingerprint_hex: String,
}

/// A parsed answer request, ready for the pipeline.
struct AnswerWork {
    req: AnswerRequest,
    query: Query,
    /// Microseconds spent parsing the query, forwarded into the
    /// pipeline's `parse` stage event.
    parse_us: u64,
    /// Cluster mode: the shape's routing key, when the request may be
    /// forwarded (it was not forwarded to this node already).
    route_key: Option<u64>,
}

impl Work {
    /// Short label for log lines (the solve objective, or `answer`).
    fn label(&self) -> &'static str {
        match self {
            Work::Solve(w) => w.req.objective.name(),
            Work::Answer(_) => "answer",
            Work::PutCert(_) => "put_cert",
        }
    }

    /// The instance fingerprint when known: solves canonicalize on
    /// intake, answers learn theirs from the pipeline afterwards.
    fn fingerprint_hex(&self) -> Option<&str> {
        match self {
            Work::Solve(w) => Some(&w.fingerprint_hex),
            Work::Answer(_) => None,
            Work::PutCert(p) => Some(&p.fingerprint_hex),
        }
    }
}

/// Bounded MPMC queue on std `Mutex` + `Condvar` (the vendored
/// `parking_lot` has no condvar).
struct WorkQueue<T> {
    jobs: StdMutex<VecDeque<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> WorkQueue<T> {
    fn new(capacity: usize) -> WorkQueue<T> {
        WorkQueue {
            jobs: StdMutex::new(VecDeque::new()),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues unless full; never blocks the submitter. Hands the job
    /// back when the queue is at capacity.
    /// A poisoned mutex (a thread panicked while holding it) is recovered
    /// rather than propagated: the queue has no invariant a
    /// half-finished critical section can break, and one panicked worker
    /// must not take the whole intake path down with it.
    fn try_push(&self, job: T) -> Result<(), T> {
        let mut q = self.jobs.lock().unwrap_or_else(|p| p.into_inner());
        if q.len() >= self.capacity {
            return Err(job);
        }
        q.push_back(job);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    fn pop_timeout(&self, timeout: Duration) -> Option<T> {
        let mut q = self.jobs.lock().unwrap_or_else(|p| p.into_inner());
        if q.is_empty() {
            q = match self.ready.wait_timeout(q, timeout) {
                Ok((guard, _)) => guard,
                Err(p) => p.into_inner().0,
            };
        }
        q.pop_front()
    }

    fn len(&self) -> usize {
        self.jobs.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    fn wake_all(&self) {
        self.ready.notify_all();
    }
}

/// State shared by every thread of one server.
pub(crate) struct Inner {
    opts: ServeOptions,
    cache: ResultCache,
    /// Decompositions shared across `answer` requests of the same query
    /// *shape* (canonical hypergraph): repeated shapes with different
    /// relation data skip decomposition entirely. Only the decomposition
    /// is shared — answers are always evaluated against the request's
    /// own data.
    shapes: Arc<ShapeCache>,
    pub(crate) metrics: Arc<Metrics>,
    /// Received solves and answers, awaiting an intake thread.
    intake: WorkQueue<Job<Intake>>,
    /// Requests an intake thread has popped and not yet handed on.
    preparing: AtomicUsize,
    /// Prepared work, awaiting a worker.
    queue: WorkQueue<Job<Work>>,
    /// Draining: refuse new solves, finish queued + in-flight work.
    draining: AtomicBool,
    /// Final stop: workers/watchdog/event loop exit.
    pub(crate) shutdown: AtomicBool,
    /// Abrupt stop ([`Server::kill`]): exit without draining, dropping
    /// queued work and open connections — the in-process analog of
    /// `kill -9`, for crash testing.
    pub(crate) killed: AtomicBool,
    /// Cluster membership + failure detector (`opts.cluster`).
    pub(crate) cluster: Option<Arc<Cluster>>,
    /// In-flight deadline registry scanned by the watchdog.
    registry: Mutex<Vec<(Instant, Arc<Incumbent>)>>,
    /// Seeded fault injector (`opts.chaos`); `None` in production.
    injector: Option<Arc<FaultInjector>>,
    /// One circuit breaker per portfolio engine: engines whose reports
    /// keep coming back `panicked` are benched from the lineup until the
    /// probe interval passes.
    breakers: Vec<(Engine, CircuitBreaker)>,
    /// Persistent verified certificate store (`opts.store_dir`); `None`
    /// when the server runs memory-only.
    store: Option<CertStore>,
}

impl Inner {
    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Builds the engine lineup for a solve with `slots` portfolio slots:
    /// closed-breaker engines run freely, and at most one benched engine
    /// whose probe interval has elapsed is admitted — with a slot reserved
    /// for it, so a claimed probe is guaranteed to actually run and report
    /// back (otherwise the breaker would wedge half-open). `None` means
    /// the default lineup: either everything is healthy, or everything is
    /// benched with no probe ready, in which case we fail open — a
    /// degraded portfolio beats no portfolio, and successes re-close the
    /// breakers.
    fn allowed_engines(&self, slots: usize) -> Option<Vec<Engine>> {
        let closed: Vec<Engine> = self
            .breakers
            .iter()
            .filter(|(_, b)| b.state() == htd_resilience::BreakerState::Closed)
            .map(|(e, _)| *e)
            .collect();
        if closed.len() == self.breakers.len() {
            return None; // all healthy: default lineup
        }
        let probe = self.breakers.iter().find_map(|(e, b)| {
            (b.state() != htd_resilience::BreakerState::Closed && b.allow()).then_some(*e)
        });
        match probe {
            None if closed.is_empty() => None, // all benched, none probeable: fail open
            None => Some(closed),
            Some(p) => {
                // strongest closed engines first (lineup order is claim
                // order), truncated so the probe keeps a guaranteed slot
                let mut lineup: Vec<Engine> =
                    closed.into_iter().take(slots.saturating_sub(1)).collect();
                lineup.push(p);
                Some(lineup)
            }
        }
    }

    /// Records per-engine panic attribution into the breakers and
    /// refreshes the `htd_engine_quarantined` gauge (benched engines:
    /// breakers not currently closed).
    fn record_engine_outcomes(&self, reports: &[htd_search::EngineReport]) {
        for (engine, b) in &self.breakers {
            match reports.iter().find(|r| r.engine == *engine) {
                Some(rep) if rep.panicked => b.record_failure(),
                Some(_) => b.record_success(),
                None => {
                    // a half-open breaker whose probe produced no report
                    // (e.g. a zero-budget solve skipped the engines) must
                    // not wedge: re-open it so it probes again later
                    if b.state() == htd_resilience::BreakerState::HalfOpen {
                        b.record_failure();
                    }
                }
            }
        }
        self.refresh_quarantine_gauge();
    }

    fn refresh_quarantine_gauge(&self) {
        let open = self
            .breakers
            .iter()
            .filter(|(_, b)| b.state() != htd_resilience::BreakerState::Closed)
            .count();
        htd_trace::registry()
            .gauge("htd_engine_quarantined")
            .set(open as i64);
    }

    /// Enters `job` into `queue`. When the queue is full, returns a
    /// response rejecting the job, with a retry hint of half the median
    /// solve (so retries spread out), floor 10 ms, and its reply sink.
    fn enqueue<W>(
        &self,
        queue: &WorkQueue<Job<W>>,
        job: Job<W>,
        label: &str,
        fingerprint: Option<String>,
    ) -> Option<(Response, ReplySink)> {
        self.metrics.queue_depth.fetch_add(1, Ordering::SeqCst);
        let job = queue.try_push(job).err()?;
        self.metrics.queue_depth.fetch_sub(1, Ordering::SeqCst);
        self.metrics
            .rejected_responses
            .fetch_add(1, Ordering::Relaxed);
        let p50 = self.metrics.solve_latency.quantile(0.5);
        let mut r = Response::new(job.id.clone(), Status::Rejected);
        r.error = Some("work queue full".into());
        r.retry_after_ms = Some(((p50 / 2.0) as u64).clamp(10, 1000));
        r.fingerprint = fingerprint;
        r.elapsed_ms = job.received.elapsed().as_secs_f64() * 1000.0;
        self.log(format_args!(
            "req={} obj={label} status=rejected retry_after_ms={}",
            job.id.as_deref().unwrap_or("-"),
            r.retry_after_ms.unwrap_or(0)
        ));
        Some((r, job.reply))
    }

    pub(crate) fn log(&self, line: std::fmt::Arguments<'_>) {
        if self.opts.log {
            eprintln!("[htd-service +{}ms] {line}", self.metrics.uptime_ms());
        }
    }

    /// Cluster mode: stamps the id of the node that produced `r`.
    /// Forwarded responses arrive already stamped by the owner that
    /// computed them and keep that stamp — it is the client-visible
    /// evidence of where the work actually ran.
    fn stamp(&self, r: &mut Response) {
        if r.node.is_none() {
            if let Some(cluster) = &self.cluster {
                r.node = Some(cluster.node_id().to_string());
            }
        }
    }
}

/// A running server; dropping it does **not** stop the threads — call
/// [`Server::request_shutdown`] then [`Server::wait`].
pub struct Server {
    inner: Arc<Inner>,
    addr: std::net::SocketAddr,
    workers: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
    front_end: Option<JoinHandle<()>>,
    agent: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and starts the event loop, watchdog, intake
    /// threads and workers. Fails with `Unsupported` on targets without
    /// `poll(2)`.
    pub fn start(opts: ServeOptions) -> std::io::Result<Server> {
        let listener = if opts.reuse_addr {
            bind_reusable(&opts.addr)?
        } else {
            TcpListener::bind(&opts.addr)?
        };
        widen_accept_backlog(&listener);
        let addr = listener.local_addr()?;
        let front = EventLoop::new(listener)?;
        let threads = opts.threads.max(1);
        let injector = opts.chaos.map(FaultInjector::new);
        let breakers = Engine::default_lineup()
            .into_iter()
            .map(|e| {
                (
                    e,
                    CircuitBreaker::new(
                        opts.breaker_threshold,
                        Duration::from_millis(opts.breaker_probe_ms),
                    ),
                )
            })
            .collect();
        // open the certificate store (if any) before serving: every
        // record is re-verified by the oracle inside `CertStore::open`,
        // and only survivors warm the result cache
        let cache = ResultCache::new(opts.cache_mb.max(1) * (1 << 20));
        let store = match &opts.store_dir {
            Some(dir) => {
                let (store, records) = CertStore::open(dir)?;
                for rec in &records {
                    cache.admit(
                        rec.fingerprint,
                        &rec.canonical,
                        rec.objective,
                        &rec.outcome,
                        rec.effort_ms,
                    );
                }
                Some(store)
            }
            None => None,
        };
        let metrics = Arc::new(Metrics::new());
        let cluster = opts
            .cluster
            .clone()
            .map(|cfg| Arc::new(Cluster::new(cfg, Arc::clone(&metrics), opts.log)));
        let inner = Arc::new(Inner {
            cache,
            shapes: Arc::new(ShapeCache::new(SHAPE_CACHE_CAPACITY)),
            metrics,
            intake: WorkQueue::new(opts.queue_capacity),
            preparing: AtomicUsize::new(0),
            queue: WorkQueue::new(opts.queue_capacity),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            cluster,
            registry: Mutex::new(Vec::new()),
            injector,
            breakers,
            store,
            opts,
        });
        inner.log(format_args!(
            "listening on {addr} workers={threads} cache_mb={} queue={} chaos={} memory_mb={} \
             store={}",
            inner.opts.cache_mb,
            inner.opts.queue_capacity,
            inner
                .opts
                .chaos
                .map_or("off".to_string(), |p| format!("seed:{}", p.seed)),
            inner
                .opts
                .memory_mb
                .map_or("-".to_string(), |m| m.to_string()),
            inner
                .opts
                .store_dir
                .as_deref()
                .map_or("-".to_string(), |d| d.display().to_string()),
        ));
        if let Some(store) = &inner.store {
            let st = store.stats();
            inner.log(format_args!(
                "store warm: loaded={} rejected={} truncated={} bytes={}",
                st.loaded,
                st.rejected,
                st.truncated,
                store.bytes(),
            ));
        }
        // pre-register the solver-level series so `/metrics` exposes them
        // (at zero) before the first solve instead of popping in later
        let reg = htd_trace::registry();
        reg.counter("htd_solver_expansions_total");
        reg.counter("htd_cover_cache_hits_total");
        reg.counter("htd_cover_cache_misses_total");
        reg.counter("htd_deadline_cancellations_total");
        reg.counter("htd_oracle_failures_total");
        reg.counter("htd_worker_panics_total");
        reg.counter("htd_mem_budget_aborts_total");
        reg.counter("htd_degraded_responses_total");
        reg.gauge("htd_engine_quarantined");
        // certificate-store + event-loop series (the store's stay zero
        // when it is off, so dashboards see a stable schema)
        reg.counter("htd_store_loaded_total");
        reg.counter("htd_store_rejects_total");
        reg.counter("htd_store_truncated_total");
        reg.counter("htd_store_appends_total");
        reg.gauge("htd_store_bytes");
        reg.gauge("htd_eventloop_connections");
        reg.counter("htd_eventloop_wakeups_total");
        reg.counter("htd_pipelined_requests_total");
        // ... and the answer-pipeline series of htd-query
        reg.counter("htd_answers_total");
        reg.counter("htd_answer_shape_cache_hits_total");
        reg.counter("htd_answer_shape_cache_misses_total");
        reg.counter("htd_answer_tuples_scanned_total");
        reg.counter("htd_answer_refusals_total");
        reg.histogram(
            "htd_answer_latency_ms",
            htd_query::ANSWER_LATENCY_BUCKETS_MS,
        );
        // the service keeps span aggregation on for the whole process:
        // per-stage spans feed the htd_span_seconds{span=...} histograms
        // on /metrics at bounded (counter-batch-like) cost
        htd_trace::set_spans_enabled(true);
        // one intake thread (parse, canonicalize, try the cache) and one
        // worker (search, evaluate) per configured thread
        let mut workers = Vec::with_capacity(2 * threads);
        for w in 0..threads {
            for (label, name, body) in [
                (
                    format!("svc-{w}"),
                    format!("htd-worker-{w}"),
                    worker_loop as fn(&Inner),
                ),
                (
                    format!("intake-{w}"),
                    format!("htd-intake-{w}"),
                    intake_loop,
                ),
            ] {
                let inner = Arc::clone(&inner);
                let label: &'static str = Box::leak(label.into_boxed_str());
                workers.push(
                    thread::Builder::new()
                        .name(name)
                        .spawn(move || {
                            htd_trace::set_worker(label);
                            body(&inner)
                        })
                        .expect("spawn worker"),
                );
            }
        }
        let watchdog = {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name("htd-watchdog".into())
                .spawn(move || watchdog_loop(&inner))
                .expect("spawn watchdog")
        };
        let front_end = {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name("htd-event-loop".into())
                .spawn(move || {
                    if let Err(e) = crate::event_loop::run(&inner, front) {
                        inner.log(format_args!("event loop exited with error: {e}"));
                    }
                })
                .expect("spawn event loop")
        };
        let agent = inner.cluster.as_ref().map(|cluster| {
            inner.log(format_args!(
                "cluster node={} ring={} replication={} peers={}",
                cluster.node_id(),
                cluster.ring().len(),
                cluster.config().replication,
                cluster
                    .config()
                    .peers
                    .iter()
                    .map(|p| format!("{}={}", p.id, p.addr))
                    .collect::<Vec<_>>()
                    .join(","),
            ));
            let inner = Arc::clone(&inner);
            let cluster = Arc::clone(cluster);
            thread::Builder::new()
                .name("htd-cluster".into())
                .spawn(move || {
                    crate::cluster::run_agent(&cluster, inner.store.as_ref(), &inner.shutdown)
                })
                .expect("spawn cluster agent")
        });
        Ok(Server {
            inner,
            addr,
            workers,
            watchdog: Some(watchdog),
            front_end: Some(front_end),
            agent,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Shared metrics of this instance.
    pub fn metrics(&self) -> &Metrics {
        self.inner.metrics.as_ref()
    }

    /// The cluster layer, when this node runs as part of one.
    pub fn cluster(&self) -> Option<&Arc<Cluster>> {
        self.inner.cluster.as_ref()
    }

    /// Begins a graceful drain: refuse new solves, finish running work.
    pub fn request_shutdown(&self) {
        if !self.inner.draining.swap(true, Ordering::SeqCst) {
            self.inner.log(format_args!("drain requested"));
        }
    }

    /// `true` once a drain has been requested (by command or signal).
    pub fn is_draining(&self) -> bool {
        self.inner.draining()
    }

    /// Blocks until the drain completes, then stops and joins every
    /// thread and flushes a final metrics summary to the log.
    pub fn wait(mut self) {
        loop {
            // in the order a request moves, so none slips past unseen
            if self.inner.draining()
                && self.inner.intake.len() == 0
                && self.inner.preparing.load(Ordering::SeqCst) == 0
                && self.inner.queue.len() == 0
                && self.inner.metrics.inflight.load(Ordering::SeqCst) == 0
            {
                break;
            }
            thread::sleep(Duration::from_millis(10));
        }
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.intake.wake_all();
        self.inner.queue.wake_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
        if let Some(a) = self.front_end.take() {
            let _ = a.join();
        }
        if let Some(a) = self.agent.take() {
            let _ = a.join();
        }
        let m = &self.inner.metrics;
        self.inner.log(format_args!(
            "drained; served={} hits={} misses={} timeouts={} rejected={} p50={:.1}ms p95={:.1}ms",
            m.ok_responses.load(Ordering::Relaxed),
            m.cache_hits.load(Ordering::Relaxed),
            m.cache_misses.load(Ordering::Relaxed),
            m.timeout_responses.load(Ordering::Relaxed),
            m.rejected_responses.load(Ordering::Relaxed),
            m.solve_latency.quantile(0.5),
            m.solve_latency.quantile(0.95),
        ));
    }

    /// Stops the node *abruptly*: no drain, queued work dropped,
    /// in-flight solves cancelled, connections severed mid-request — the
    /// in-process analog of `kill -9`, for crash and failover testing.
    /// Every open connection dies with the event loop (clients see a
    /// reset). Every thread is joined, so the certificate store's
    /// exclusive lock is released on return and a replacement node can
    /// reopen the same `--store` directory.
    pub fn kill(mut self) {
        self.inner
            .log(format_args!("killed (abrupt stop, no drain)"));
        self.inner.killed.store(true, Ordering::SeqCst);
        self.inner.draining.store(true, Ordering::SeqCst);
        self.inner.shutdown.store(true, Ordering::SeqCst);
        for (_, incumbent) in self.inner.registry.lock().iter() {
            incumbent.cancel();
        }
        self.inner.intake.wake_all();
        self.inner.queue.wake_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
        if let Some(a) = self.front_end.take() {
            let _ = a.join();
        }
        if let Some(a) = self.agent.take() {
            let _ = a.join();
        }
    }
}

/// `std::net` listens with a fixed backlog of 128, which a connection
/// storm (hundreds of clients dialing the same instant) overflows —
/// the kernel then drops or resets handshakes before the loop ever
/// sees them. Linux allows re-calling `listen(2)` on a listening
/// socket to widen the queue; ask for more and let the kernel clamp
/// to `somaxconn`. Best-effort: a failure leaves the default backlog.
#[cfg(unix)]
fn widen_accept_backlog(listener: &TcpListener) {
    use std::os::unix::io::AsRawFd;
    extern "C" {
        fn listen(fd: i32, backlog: i32) -> i32;
    }
    unsafe {
        listen(listener.as_raw_fd(), 4096);
    }
}

#[cfg(not(unix))]
fn widen_accept_backlog(_listener: &TcpListener) {}

/// Binds with `SO_REUSEADDR` ([`ServeOptions::reuse_addr`]): a node
/// restarted after a crash must reclaim its port immediately even while
/// connections of its killed predecessor linger in `TIME_WAIT`. `std`'s
/// `TcpListener::bind` sets no socket options, so the v4 path builds the
/// socket by hand; anything else falls back to the plain bind.
#[cfg(target_os = "linux")]
fn bind_reusable(addr: &str) -> std::io::Result<TcpListener> {
    use std::net::{SocketAddr, ToSocketAddrs};
    use std::os::unix::io::FromRawFd;
    let Some(SocketAddr::V4(v4)) = addr.to_socket_addrs()?.next() else {
        return TcpListener::bind(addr);
    };
    #[repr(C)]
    struct SockaddrIn {
        family: u16,
        port: u16,
        addr: u32,
        zero: [u8; 8],
    }
    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        fn bind(fd: i32, addr: *const SockaddrIn, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn close(fd: i32) -> i32;
    }
    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;
    unsafe {
        let fd = socket(AF_INET, SOCK_STREAM, 0);
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        let one: i32 = 1;
        setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, 4);
        let sin = SockaddrIn {
            family: AF_INET as u16,
            port: v4.port().to_be(),
            addr: u32::from(*v4.ip()).to_be(),
            zero: [0; 8],
        };
        if bind(fd, &sin, std::mem::size_of::<SockaddrIn>() as u32) != 0 || listen(fd, 4096) != 0 {
            let e = std::io::Error::last_os_error();
            close(fd);
            return Err(e);
        }
        Ok(TcpListener::from_raw_fd(fd))
    }
}

#[cfg(not(target_os = "linux"))]
fn bind_reusable(addr: &str) -> std::io::Result<TcpListener> {
    TcpListener::bind(addr)
}

#[cfg(unix)]
fn install_signal_drain() -> &'static AtomicBool {
    static SIGNALLED: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_signal(_: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    // SIGINT = 2, SIGTERM = 15 on every unix the workspace targets
    unsafe {
        signal(2, on_signal as *const () as usize);
        signal(15, on_signal as *const () as usize);
    }
    &SIGNALLED
}

/// The CLI entry point: serve until a `shutdown` command or (on unix)
/// SIGINT/SIGTERM, then drain and exit.
pub fn run_until_shutdown(opts: ServeOptions) -> std::io::Result<()> {
    let server = Server::start(opts)?;
    println!("htd-service listening on {}", server.addr());
    #[cfg(unix)]
    let signalled = install_signal_drain();
    loop {
        #[cfg(unix)]
        if signalled.load(Ordering::SeqCst) {
            server.request_shutdown();
        }
        if server.is_draining() {
            break;
        }
        thread::sleep(Duration::from_millis(20));
    }
    server.wait();
    Ok(())
}

/// Cancels the shared incumbents of expired in-flight solves. Only the
/// first cancellation of a solve is counted and logged: a flag already
/// set means either a previous scan got it or the solve finished (exact
/// proofs cancel their own incumbent), neither of which is a new kill.
fn watchdog_loop(inner: &Inner) {
    while !inner.shutdown.load(Ordering::SeqCst) {
        let now = Instant::now();
        {
            let registry = inner.registry.lock();
            for (deadline, incumbent) in registry.iter() {
                if now >= *deadline && !incumbent.is_cancelled() {
                    incumbent.cancel();
                    inner
                        .metrics
                        .deadline_cancellations
                        .fetch_add(1, Ordering::Relaxed);
                    inner.log(format_args!(
                        "watchdog cancelled expired solve overshoot_ms={:.1} best_upper={}",
                        now.saturating_duration_since(*deadline).as_secs_f64() * 1e3,
                        match incumbent.upper() {
                            u32::MAX => "-".into(),
                            u => u.to_string(),
                        },
                    ));
                }
            }
        }
        thread::sleep(WATCHDOG_PERIOD);
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        if inner.shutdown.load(Ordering::SeqCst)
            && (inner.killed.load(Ordering::SeqCst) || inner.queue.len() == 0)
        {
            return;
        }
        let Some(job) = inner.queue.pop_timeout(Duration::from_millis(50)) else {
            continue;
        };
        inner.metrics.queue_depth.fetch_sub(1, Ordering::SeqCst);
        let now = Instant::now();
        let queued = now.saturating_duration_since(job.enqueued);
        inner.metrics.queue_wait.observe(queued.as_secs_f64());
        if now >= job.deadline {
            // expired while queued: evict without running
            inner
                .metrics
                .timeout_responses
                .fetch_add(1, Ordering::Relaxed);
            let mut r = Response::new(job.id.clone(), Status::Timeout);
            inner.stamp(&mut r);
            r.fingerprint = job.work.fingerprint_hex().map(str::to_string);
            r.canonical = matches!(&job.work, Work::Solve(w) if w.canon.complete);
            r.error = Some("deadline expired in queue".into());
            r.elapsed_ms = job.received.elapsed().as_secs_f64() * 1000.0;
            inner.log(format_args!(
                "req={} obj={} fp={} status=timeout queued_ms={:.1}",
                job.id.as_deref().unwrap_or("-"),
                job.work.label(),
                job.work.fingerprint_hex().unwrap_or("-"),
                r.elapsed_ms
            ));
            job.reply.send(r);
            continue;
        }
        inner.metrics.inflight.fetch_add(1, Ordering::SeqCst);
        let incumbent = Arc::new(Incumbent::new());
        inner
            .registry
            .lock()
            .push((job.deadline, Arc::clone(&incumbent)));

        // seeded fault injection (chaos mode): a request may be stalled,
        // allocation-starved, or handed a panicking portfolio worker
        let fault = inner
            .injector
            .as_ref()
            .map(|i| i.next_request())
            .unwrap_or_default();
        if let Some(d) = fault.delay {
            thread::sleep(d);
        }

        let mut r = match &job.work {
            Work::Solve(w) => {
                let _sp = htd_trace::span!("service.solve");
                // a forwarded request always computes where it lands:
                // one hop, no forwarding loops
                let relayed = if w.req.forwarded {
                    None
                } else {
                    forward(inner, &job, w.canon.fingerprint, || {
                        Command::Solve(SolveRequest {
                            forwarded: true,
                            ..w.req.clone()
                        })
                    })
                };
                relayed.unwrap_or_else(|| run_solve(inner, &job, w, &incumbent, &fault, queued))
            }
            Work::Answer(w) => {
                let _sp = htd_trace::span!("service.answer");
                let relayed = w.route_key.and_then(|key| {
                    forward(inner, &job, key, || {
                        Command::Answer(AnswerRequest {
                            forwarded: true,
                            ..w.req.clone()
                        })
                    })
                });
                relayed.unwrap_or_else(|| run_answer(inner, &job, w, &incumbent, &fault, queued))
            }
            Work::PutCert(p) => {
                let _sp = htd_trace::span!("cluster.put_cert");
                run_put_cert(inner, &job, p)
            }
        };

        {
            let mut registry = inner.registry.lock();
            registry.retain(|(_, i)| !Arc::ptr_eq(i, &incumbent));
        }
        inner.metrics.inflight.fetch_sub(1, Ordering::SeqCst);
        if r.status == Status::Ok {
            inner.metrics.request_latency.observe(r.elapsed_ms);
        }
        inner.stamp(&mut r);
        let _sp = htd_trace::span!("service.respond");
        job.reply.send(r);
    }
}

/// Prepares received solves and answers for the workers: parse, and
/// for a solve canonicalize and try the result cache. A hit or a parse
/// error is answered here; anything else moves on to the work queue.
fn intake_loop(inner: &Inner) {
    loop {
        if inner.shutdown.load(Ordering::SeqCst)
            && (inner.killed.load(Ordering::SeqCst) || inner.intake.len() == 0)
        {
            return;
        }
        let Some(job) = inner.intake.pop_timeout(Duration::from_millis(50)) else {
            continue;
        };
        inner.preparing.fetch_add(1, Ordering::SeqCst);
        inner.metrics.queue_depth.fetch_sub(1, Ordering::SeqCst);
        let (received, job) = job.replace_work(());
        let prepared = match received {
            Intake::Solve(s) => prepare_solve(inner, &job, s).map(Work::Solve),
            Intake::Answer(a) => prepare_answer(inner, &job, a).map(Work::Answer),
        };
        let answered_here = match prepared {
            Ok(work) => {
                let label = work.label();
                let fingerprint = work.fingerprint_hex().map(str::to_string);
                inner.enqueue(&inner.queue, job.replace_work(work).1, label, fingerprint)
            }
            Err(r) => Some((*r, job.reply)),
        };
        if let Some((mut r, reply)) = answered_here {
            inner.stamp(&mut r);
            reply.send(r);
        }
        inner.preparing.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Parses and canonicalizes a solve request. `Err` is the finished
/// response: a parse error, or a result-cache hit.
fn prepare_solve(
    inner: &Inner,
    job: &Job<()>,
    s: SolveRequest,
) -> Result<SolveWork, Box<Response>> {
    let objective_name = s.objective.name();
    let (problem, key_hypergraph) = match parse_problem(s.format, &s.instance, s.objective) {
        Ok(pair) => pair,
        Err(e) => {
            inner
                .metrics
                .error_responses
                .fetch_add(1, Ordering::Relaxed);
            let mut r = Response::from_error(job.id.clone(), &e);
            r.elapsed_ms = job.received.elapsed().as_secs_f64() * 1000.0;
            inner.log(format_args!(
                "req={} obj={objective_name} status=error err={:?}",
                job.id.as_deref().unwrap_or("-"),
                r.error.as_deref().unwrap_or("")
            ));
            return Err(Box::new(r));
        }
    };
    let canon = canonical_form(&key_hypergraph);
    let fingerprint_hex = canon.hex();
    if s.use_cache {
        if let Some(hit) = inner.cache.lookup(
            canon.fingerprint,
            &canon.bytes,
            objective_name,
            true,
            Some(job.deadline_ms),
        ) {
            inner.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            inner.metrics.ok_responses.fetch_add(1, Ordering::Relaxed);
            inner
                .metrics
                .record_served(hit.outcome.upper, hit.outcome.exact);
            let mut r = Response::new(job.id.clone(), Status::Ok);
            r.cached = true;
            r.outcome = Some(hit.outcome);
            r.fingerprint = Some(fingerprint_hex.clone());
            r.canonical = canon.complete;
            r.elapsed_ms = job.received.elapsed().as_secs_f64() * 1000.0;
            inner.metrics.request_latency.observe(r.elapsed_ms);
            inner.log(format_args!(
                "req={} obj={objective_name} fp={fingerprint_hex} cache=hit status=ok width={} ms={:.2}",
                job.id.as_deref().unwrap_or("-"),
                r.outcome.as_ref().map_or(0, |o| o.upper),
                r.elapsed_ms
            ));
            return Err(Box::new(r));
        }
    }
    inner.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
    Ok(SolveWork {
        req: s,
        problem,
        canon,
        fingerprint_hex,
    })
}

/// Parses an answer request's query — the service never reads relation
/// files on behalf of a remote peer — and, in a cluster, derives its
/// routing key: the canonical fingerprint of the query's hypergraph,
/// the key the shape cache uses. `Err` is the parse-error response.
fn prepare_answer(
    inner: &Inner,
    job: &Job<()>,
    a: AnswerRequest,
) -> Result<AnswerWork, Box<Response>> {
    let parse_start = Instant::now();
    let query = match parse_query(&a.query, &FileAccess::Deny) {
        Ok(q) => q,
        Err(e) => {
            inner
                .metrics
                .error_responses
                .fetch_add(1, Ordering::Relaxed);
            let mut r = Response::from_error(job.id.clone(), &e);
            r.elapsed_ms = job.received.elapsed().as_secs_f64() * 1000.0;
            inner.log(format_args!(
                "req={} obj=answer status=error err={:?}",
                job.id.as_deref().unwrap_or("-"),
                r.error.as_deref().unwrap_or("")
            ));
            return Err(Box::new(r));
        }
    };
    let parse_us = parse_start.elapsed().as_micros() as u64;
    let route_key = (inner.cluster.is_some() && !a.forwarded)
        .then(|| canonical_form(&query.csp.hypergraph()).fingerprint);
    Ok(AnswerWork {
        req: a,
        query,
        parse_us,
        route_key,
    })
}

/// Runs one solve job on a worker: budget the remaining deadline into
/// the search, quarantine the solve, verify/admit the outcome, respond.
fn run_solve(
    inner: &Inner,
    job: &Job<Work>,
    w: &SolveWork,
    incumbent: &Arc<Incumbent>,
    fault: &Fault,
    queued: Duration,
) -> Response {
    let objective_name = w.req.objective.name();
    let remaining = job.deadline.saturating_duration_since(Instant::now());
    let mut cfg = match w.req.budget {
        Some(b) => SearchConfig::budgeted(b),
        None => SearchConfig::portfolio(),
    };
    cfg = cfg
        .with_time_limit(remaining.saturating_sub(DEADLINE_SLACK))
        .with_threads(job.threads);
    cfg.shared = Some(Arc::clone(incumbent));
    if fault.alloc_fail {
        // near-zero budget: the solve degrades to its anytime bounds
        cfg = cfg.with_memory_budget(16 << 10);
    } else if let Some(mb) = inner.opts.memory_mb {
        cfg = cfg.with_memory_budget(mb << 20);
    }
    if fault.panic_worker {
        cfg = cfg.with_faults(InjectedFaults::with_panics(1));
    }
    // an explicit per-request lineup wins; otherwise bench engines
    // with open breakers (and admit at most one probe)
    let lineup = job
        .engines
        .clone()
        .or_else(|| inner.allowed_engines(job.threads.max(1)));
    if let Some(engines) = lineup.clone() {
        cfg = cfg.with_engines(engines);
    }

    let solve_start = Instant::now();
    // last line of defense: a panic anywhere in the solve path is
    // quarantined into a structured internal error instead of taking
    // the worker thread (and with it the whole pool) down
    let result = quarantined(|| solve(&w.problem, &cfg)).unwrap_or_else(|message| {
        htd_trace::registry()
            .counter("htd_worker_panics_total")
            .inc();
        // the panic escaped per-engine attribution; charge the whole
        // lineup so a persistently crashing path still gets benched
        for (engine, b) in &inner.breakers {
            match lineup.as_ref() {
                Some(l) if !l.contains(engine) => {}
                _ => b.record_failure(),
            }
        }
        inner.refresh_quarantine_gauge();
        Err(HtdError::Io(format!(
            "solver panicked (quarantined): {message}"
        )))
    });
    let solve_elapsed = solve_start.elapsed();
    let solve_ms = solve_elapsed.as_secs_f64() * 1000.0;
    inner
        .metrics
        .solve_time
        .observe(solve_elapsed.as_secs_f64());

    let mut r = match result {
        Ok(outcome) => {
            inner.metrics.solve_latency.observe(solve_ms);
            inner.record_engine_outcomes(&outcome.per_engine);
            let survived_panic = outcome.per_engine.iter().any(|e| e.panicked);
            let degraded = outcome.degraded || survived_panic;
            if degraded {
                htd_trace::registry()
                    .counter("htd_degraded_responses_total")
                    .inc();
            }
            // degraded results carry weaker bounds than a healthy solve
            // of the same instance would; never let them shadow a
            // future clean answer in the cache
            let mut cacheable = !degraded;
            if inner.opts.verify_responses {
                let report = htd_check::verify_outcome(&w.problem, &outcome);
                if !report.is_valid() {
                    cacheable = false;
                    htd_trace::registry()
                        .counter("htd_oracle_failures_total")
                        .inc();
                    inner.log(format_args!(
                        "req={} obj={} fp={} ORACLE VIOLATION (response served, not cached): {}",
                        job.id.as_deref().unwrap_or("-"),
                        objective_name,
                        w.fingerprint_hex,
                        report
                    ));
                }
            }
            if cacheable {
                inner.cache.admit(
                    w.canon.fingerprint,
                    &w.canon.bytes,
                    objective_name,
                    &outcome,
                    solve_ms.ceil() as u64,
                );
                // persist what the cache learned: only clean, cacheable
                // outcomes reach the log, and `CertStore::append` itself
                // refuses anything the loader could not later re-verify
                if let Some(store) = &inner.store {
                    let rec = StoreRecord {
                        objective: objective_name,
                        format: w.req.format,
                        instance: w.req.instance.clone(),
                        fingerprint: w.canon.fingerprint,
                        canonical: w.canon.bytes.clone(),
                        effort_ms: solve_ms.ceil() as u64,
                        outcome: outcome.clone(),
                    };
                    if let Err(e) = store.append(&rec) {
                        inner.log(format_args!(
                            "store append failed fp={}: {e}",
                            w.fingerprint_hex
                        ));
                    }
                }
                // cluster mode: push the verified certificate to the
                // other owners of this fingerprint. Only store-admissible
                // outcomes travel (the receiver's oracle gate mirrors the
                // store's), and the push covers both steady-state
                // replication and the hinted handoff of a local-fallback
                // solve — the owners are exactly the nodes that need it.
                if let Some(cluster) = &inner.cluster {
                    if !w.req.instance.is_empty()
                        && objective_name != "hw"
                        && outcome.witness.is_some()
                    {
                        cluster.replicate(
                            w.canon.fingerprint,
                            &CertPush {
                                objective: outcome.objective,
                                format: w.req.format,
                                instance: w.req.instance.clone(),
                                fingerprint_hex: w.fingerprint_hex.clone(),
                                effort_ms: solve_ms.ceil() as u64,
                                outcome: outcome.clone(),
                                from: Some(cluster.node_id().to_string()),
                            },
                        );
                    }
                }
            }
            inner.metrics.record_served(outcome.upper, outcome.exact);
            inner.metrics.ok_responses.fetch_add(1, Ordering::Relaxed);
            let mut r = Response::new(job.id.clone(), Status::Ok);
            r.outcome = Some(outcome);
            r
        }
        Err(e) => {
            inner
                .metrics
                .error_responses
                .fetch_add(1, Ordering::Relaxed);
            Response::from_error(job.id.clone(), &e)
        }
    };
    r.fingerprint = Some(w.fingerprint_hex.clone());
    r.canonical = w.canon.complete;
    r.elapsed_ms = job.received.elapsed().as_secs_f64() * 1000.0;
    inner.log(format_args!(
        "req={} obj={} fp={} cache=miss status={} width={} exact={} winner={} queued_ms={:.2} solve_ms={:.1} total_ms={:.1} deadline_ms={}",
        job.id.as_deref().unwrap_or("-"),
        objective_name,
        w.fingerprint_hex,
        r.status.name(),
        r.outcome.as_ref().map_or(0, |o| o.upper),
        r.outcome.as_ref().is_some_and(|o| o.exact),
        r.outcome
            .as_ref()
            .and_then(|o| o.winner)
            .map_or("-", |w| w.name()),
        queued.as_secs_f64() * 1e3,
        solve_ms,
        r.elapsed_ms,
        job.deadline_ms,
    ));
    r
}

/// Runs one answer job through the `htd-query` pipeline: decomposition
/// (shape-cache first), then Yannakakis evaluation against the
/// request's own relations — under the same deadline, thread and
/// memory governance as a solve. A memory-budget overrun *refuses* the
/// query with a size estimate ([`HtdError::ResourceExhausted`]) rather
/// than returning a wrong answer.
fn run_answer(
    inner: &Inner,
    job: &Job<Work>,
    w: &AnswerWork,
    incumbent: &Arc<Incumbent>,
    fault: &Fault,
    queued: Duration,
) -> Response {
    let remaining = job.deadline.saturating_duration_since(Instant::now());
    let mut cfg = SearchConfig::default()
        .with_max_nodes(200_000)
        .with_time_limit(remaining.saturating_sub(DEADLINE_SLACK))
        .with_threads(job.threads);
    cfg.shared = Some(Arc::clone(incumbent));
    if fault.panic_worker {
        cfg = cfg.with_faults(InjectedFaults::with_panics(1));
    }
    if let Some(engines) = job.engines.clone() {
        cfg = cfg.with_engines(engines);
    }
    let budget = if fault.alloc_fail {
        // allocation starvation: the evaluation must refuse, never lie
        Some(MemoryBudget::new(16 << 10))
    } else {
        inner.opts.memory_mb.map(|mb| MemoryBudget::new(mb << 20))
    };
    let opts = AnswerOptions {
        mode: w.req.mode,
        limit: w.req.limit.unwrap_or(DEFAULT_ANSWER_LIMIT),
        search: cfg,
        memory_budget: budget,
        shape_cache: w.req.use_cache.then(|| Arc::clone(&inner.shapes)),
        deadline: Some(
            job.deadline
                .checked_sub(DEADLINE_SLACK)
                .unwrap_or(job.deadline),
        ),
        parse_us: w.parse_us,
    };

    let eval_start = Instant::now();
    // the pipeline quarantines its evaluation pass; this outer
    // quarantine additionally covers the decomposition search
    let result = quarantined(|| htd_query::answer(&w.query, &opts)).unwrap_or_else(|message| {
        htd_trace::registry()
            .counter("htd_worker_panics_total")
            .inc();
        Err(HtdError::Io(format!(
            "answer pipeline panicked (quarantined): {message}"
        )))
    });
    let eval_elapsed = eval_start.elapsed();
    inner.metrics.solve_time.observe(eval_elapsed.as_secs_f64());

    let mut r = match result {
        Ok(ans) => {
            inner.metrics.ok_responses.fetch_add(1, Ordering::Relaxed);
            let mut r = Response::new(job.id.clone(), Status::Ok);
            // `cached` on an answer means the *decomposition* was reused;
            // the semijoin passes always ran against this request's data
            r.cached = ans.stats.shape_cache_hit;
            r.fingerprint = Some(ans.stats.fingerprint.clone());
            r.canonical = ans.stats.canonical_complete;
            r.answer = Some(ans);
            r
        }
        Err(e) => {
            inner
                .metrics
                .error_responses
                .fetch_add(1, Ordering::Relaxed);
            Response::from_error(job.id.clone(), &e)
        }
    };
    r.elapsed_ms = job.received.elapsed().as_secs_f64() * 1000.0;
    inner.log(format_args!(
        "req={} obj=answer mode={} fp={} shape_cache={} status={} tuples={} queued_ms={:.2} eval_ms={:.1} total_ms={:.1} deadline_ms={}",
        job.id.as_deref().unwrap_or("-"),
        w.req.mode.name(),
        r.fingerprint.as_deref().unwrap_or("-"),
        if r.cached { "hit" } else { "miss" },
        r.status.name(),
        r.answer.as_ref().map_or(0, |a| a.stats.tuples_scanned),
        queued.as_secs_f64() * 1e3,
        eval_elapsed.as_secs_f64() * 1e3,
        r.elapsed_ms,
        job.deadline_ms,
    ));
    r
}

/// Cluster mode: relays a request whose key this node does not own to
/// the key's owners, dialing them in order and returning the first
/// usable response. `None` means compute here: no cluster, the key is
/// owned here, or every owner is unreachable, shutting down or
/// partitioned away (the certificate then travels to the owners as a
/// hint via the replication path). Forwarding runs on the worker pool —
/// never on the event loop — so a slow peer stalls one worker slot, not
/// the whole front end.
fn forward(
    inner: &Inner,
    job: &Job<Work>,
    key: u64,
    cmd: impl FnOnce() -> Command,
) -> Option<Response> {
    let cluster = inner.cluster.as_ref().filter(|cl| !cl.owns(key))?;
    let _sp = htd_trace::span!("cluster.forward");
    let candidates = cluster.forward_candidates(key);
    let cmd = cmd();
    let dial_timeout = Duration::from_millis(cluster.config().probe_timeout_ms);
    for (hop, (peer, addr)) in candidates.iter().enumerate() {
        let attempt = (|| -> Option<Response> {
            if cluster.is_peer_partitioned(peer) {
                return None;
            }
            let mut c = Client::connect_timeout(addr, dial_timeout).ok()?;
            let remaining = job.deadline.saturating_duration_since(Instant::now());
            c.set_read_timeout(Some(remaining + REPLY_GRACE));
            let r = c
                .request(&Request {
                    id: job.id.clone(),
                    cmd: cmd.clone(),
                })
                .ok()?;
            // a draining owner refuses new work; treat like a dead one
            (r.status != Status::ShuttingDown).then_some(r)
        })();
        match attempt {
            Some(mut r) => {
                inner
                    .metrics
                    .cluster_forwards
                    .fetch_add(1, Ordering::Relaxed);
                r.id = job.id.clone();
                r.elapsed_ms = job.received.elapsed().as_secs_f64() * 1000.0;
                inner.log(format_args!(
                    "req={} fp={key:016x} forwarded to={} hop={hop} status={} ms={:.1}",
                    job.id.as_deref().unwrap_or("-"),
                    peer,
                    r.status.name(),
                    r.elapsed_ms,
                ));
                return Some(r);
            }
            None => {
                inner
                    .metrics
                    .cluster_failovers
                    .fetch_add(1, Ordering::Relaxed);
                inner.log(format_args!(
                    "req={} fp={key:016x} owner={peer} unreachable, failing over",
                    job.id.as_deref().unwrap_or("-"),
                ));
            }
        }
    }
    // last rung of the ladder: every owner unusable — answer the client
    // from here rather than failing, and let replication hint the owner
    inner
        .metrics
        .cluster_local_fallbacks
        .fetch_add(1, Ordering::Relaxed);
    inner.log(format_args!(
        "req={} fp={key:016x} all {} owner(s) unusable: solving locally",
        job.id.as_deref().unwrap_or("-"),
        candidates.len(),
    ));
    None
}

/// Handles a `put_cert` push from a peer: the claim is re-verified from
/// scratch (re-parse, re-canonicalize, oracle re-proof) before anything
/// is admitted — a remote peer is exactly as untrusted as bytes on disk.
fn run_put_cert(inner: &Inner, job: &Job<Work>, p: &CertPush) -> Response {
    let claimed = u64::from_str_radix(&p.fingerprint_hex, 16).unwrap_or(0);
    let mut r = match crate::store::verify_claim(
        p.objective,
        p.format,
        p.instance.clone(),
        claimed,
        p.effort_ms,
        p.outcome.clone(),
    ) {
        Some(rec) => {
            inner.cache.admit(
                rec.fingerprint,
                &rec.canonical,
                rec.objective,
                &rec.outcome,
                rec.effort_ms,
            );
            if let Some(store) = &inner.store {
                if let Err(e) = store.append(&rec) {
                    inner.log(format_args!(
                        "store append of pushed cert failed fp={}: {e}",
                        p.fingerprint_hex
                    ));
                }
            }
            inner
                .metrics
                .cluster_certs_accepted
                .fetch_add(1, Ordering::Relaxed);
            inner.metrics.ok_responses.fetch_add(1, Ordering::Relaxed);
            let mut r = Response::new(job.id.clone(), Status::Ok);
            r.fingerprint = Some(p.fingerprint_hex.clone());
            r
        }
        None => {
            inner
                .metrics
                .cluster_cert_rejects
                .fetch_add(1, Ordering::Relaxed);
            inner
                .metrics
                .error_responses
                .fetch_add(1, Ordering::Relaxed);
            let e =
                HtdError::Invalid("pushed certificate failed oracle re-verification".to_string());
            let mut r = Response::from_error(job.id.clone(), &e);
            r.fingerprint = Some(p.fingerprint_hex.clone());
            r
        }
    };
    r.elapsed_ms = job.received.elapsed().as_secs_f64() * 1000.0;
    inner.log(format_args!(
        "put_cert from={} fp={} status={} ms={:.1}",
        p.from.as_deref().unwrap_or("-"),
        p.fingerprint_hex,
        r.status.name(),
        r.elapsed_ms,
    ));
    r
}

/// Serializes one response line (newline included), enforcing
/// [`MAX_RESPONSE`]: an oversized body is replaced by a structured
/// internal error so a single pathological result cannot monopolize the
/// connection.
pub(crate) fn response_line(response: &Response) -> Vec<u8> {
    let mut body = response.to_json().to_string();
    if body.len() > MAX_RESPONSE {
        let e = HtdError::Io(format!(
            "response of {} bytes exceeds the {} byte limit",
            body.len(),
            MAX_RESPONSE
        ));
        let mut r = Response::from_error(response.id.clone(), &e);
        r.elapsed_ms = response.elapsed_ms;
        body = r.to_json().to_string();
    }
    body.push('\n');
    body.into_bytes()
}

/// Non-blocking admission on the event loop: probes answer on the spot;
/// solves, answers and certificate pushes either answer immediately
/// (drain refusal, backpressure rejection) or enter the bounded work
/// queue with their reply routed to `sink`.
pub(crate) fn admit_request(inner: &Arc<Inner>, req: Request, sink: ReplySink) -> Admission {
    match admit_request_inner(inner, req, sink) {
        Admission::Ready(mut r) => {
            inner.stamp(&mut r);
            Admission::Ready(r)
        }
        queued => queued,
    }
}

fn admit_request_inner(inner: &Arc<Inner>, req: Request, sink: ReplySink) -> Admission {
    match req.cmd {
        Command::Ping => {
            inner.metrics.ping_requests.fetch_add(1, Ordering::Relaxed);
            let mut r = Response::new(req.id, Status::Pong);
            // leave-intent signal: the cluster failure detector reads this
            // to mark a draining peer `Leaving` instead of failing it
            r.draining = inner.draining();
            Admission::Ready(r)
        }
        Command::Stats => {
            inner.metrics.stats_requests.fetch_add(1, Ordering::Relaxed);
            let mut r = Response::new(req.id, Status::Stats);
            r.stats = Some(inner.metrics.snapshot_json(
                inner.cache.entries(),
                inner.cache.bytes(),
                inner.draining(),
            ));
            Admission::Ready(r)
        }
        Command::Shutdown => {
            if !inner.draining.swap(true, Ordering::SeqCst) {
                inner.log(format_args!("drain requested by client"));
            }
            Admission::Ready(Response::new(req.id, Status::ShuttingDown))
        }
        Command::Solve(s) => {
            inner.metrics.solve_requests.fetch_add(1, Ordering::Relaxed);
            let label = s.objective.name();
            let deadline_ms = s.deadline_ms.unwrap_or(inner.opts.default_deadline_ms);
            let threads = s.threads.unwrap_or(1).max(1);
            let engines = s.engines.clone();
            let job = Job::new(
                req.id,
                Intake::Solve(s),
                deadline_ms,
                threads,
                engines,
                sink,
            );
            admit_job(inner, &inner.intake, job, label, None)
        }
        Command::Answer(a) => {
            inner
                .metrics
                .answer_requests
                .fetch_add(1, Ordering::Relaxed);
            let deadline_ms = a.deadline_ms.unwrap_or(inner.opts.default_deadline_ms);
            let threads = a.threads.unwrap_or(1).max(1);
            let engines = a.engines.clone();
            let job = Job::new(
                req.id,
                Intake::Answer(a),
                deadline_ms,
                threads,
                engines,
                sink,
            );
            admit_job(inner, &inner.intake, job, "answer", None)
        }
        Command::PutCert(p) => {
            // the oracle re-proof is real work (a full `htd check` of the
            // claimed decomposition), so it goes straight to a worker
            inner
                .metrics
                .put_cert_requests
                .fetch_add(1, Ordering::Relaxed);
            let fingerprint = Some(p.fingerprint_hex.clone());
            let deadline_ms = inner.opts.default_deadline_ms;
            let job = Job::new(req.id, Work::PutCert(p), deadline_ms, 1, None, sink);
            admit_job(inner, &inner.queue, job, "put_cert", fingerprint)
        }
    }
}

/// Admission of queued work: refused while draining, otherwise entered
/// into `queue`, or rejected at once when the queue is full. Nothing
/// about the request beyond its envelope is examined here: parsing,
/// canonicalization, cache lookups and a peer's oracle re-proof all run
/// off the event loop.
fn admit_job<W>(
    inner: &Inner,
    queue: &WorkQueue<Job<W>>,
    job: Job<W>,
    label: &str,
    fingerprint: Option<String>,
) -> Admission {
    if inner.draining() {
        inner
            .metrics
            .shedding_responses
            .fetch_add(1, Ordering::Relaxed);
        let mut r = Response::new(job.id, Status::ShuttingDown);
        r.error = Some("server is draining".into());
        return Admission::Ready(r);
    }
    let (id, deadline, received) = (job.id.clone(), job.deadline, job.received);
    match inner.enqueue(queue, job, label, fingerprint.clone()) {
        None => Admission::Queued {
            id,
            fingerprint,
            deadline,
            received,
        },
        Some((r, _)) => Admission::Ready(r),
    }
}

/// Renders a full HTTP probe response (status line + headers + body) for
/// `/healthz`, `/metrics` and friends.
pub(crate) fn http_response_bytes(inner: &Inner, request_line: &str) -> Vec<u8> {
    inner.metrics.http_requests.fetch_add(1, Ordering::Relaxed);
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, content_type, body) = match path {
        "/healthz" => {
            let draining = inner.draining();
            let mut fields = vec![
                (
                    "status".to_string(),
                    Json::Str(if draining { "draining" } else { "ok" }.into()),
                ),
                (
                    "uptime_ms".into(),
                    Json::Num(inner.metrics.uptime_ms() as f64),
                ),
                (
                    "queue_depth".into(),
                    Json::Num(inner.metrics.queue_depth.load(Ordering::SeqCst) as f64),
                ),
                (
                    "inflight".into(),
                    Json::Num(inner.metrics.inflight.load(Ordering::SeqCst) as f64),
                ),
                ("draining".into(), Json::Bool(draining)),
            ];
            if let Some(cluster) = &inner.cluster {
                fields.push(("node".into(), Json::Str(cluster.node_id().to_string())));
                fields.push(("ring_nodes".into(), Json::Num(cluster.ring().len() as f64)));
                fields.push((
                    "peers".into(),
                    Json::Obj(
                        cluster
                            .peer_states()
                            .into_iter()
                            .map(|(id, st)| (id, Json::Str(st.name().into())))
                            .collect(),
                    ),
                ));
            }
            let body = Json::Obj(fields).to_string();
            // 503 while draining: load balancers and the cluster failure
            // detector both read drain as leave-intent, not liveness
            let status = if draining {
                "503 Service Unavailable"
            } else {
                "200 OK"
            };
            (status, "application/json", body)
        }
        "/metrics" => {
            let mut body = inner.metrics.render_prometheus(
                inner.cache.entries(),
                inner.cache.bytes(),
                inner.draining(),
            );
            // solver-level series (expansions, per-engine wins, cover-cache
            // traffic) live in the process-wide htd-trace registry
            let reg = htd_trace::registry();
            let hits = reg.counter_value("htd_cover_cache_hits_total").unwrap_or(0);
            let misses = reg
                .counter_value("htd_cover_cache_misses_total")
                .unwrap_or(0);
            use std::fmt::Write as _;
            let _ = writeln!(
                body,
                "# HELP htd_cover_cache_hit_ratio Hit fraction of the exact cover cache.\n\
                 # TYPE htd_cover_cache_hit_ratio gauge\n\
                 htd_cover_cache_hit_ratio {}",
                hits as f64 / (hits + misses).max(1) as f64
            );
            reg.render_prometheus(&mut body);
            ("200 OK", "text/plain; version=0.0.4", body)
        }
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    };
    let mut out = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    if !request_line.starts_with("HEAD ") {
        out.extend_from_slice(body.as_bytes());
    }
    out
}

//! The `solve_cold` workload: two client connections, closed loop, to a
//! server with a certificate store. Every request is an instance the
//! server has not seen, under a seeded vertex relabeling, so each one is
//! solved cold, admitted to the result cache and appended to the store;
//! the first few carry the hard, node-budgeted instances. Set-up fills the
//! store with a pool of solved instances and restarts the server onto it.
//!
//! Re-sends of solved instances (result-cache hits) are held out: a hit
//! returns the stored outcome as it is, witness included, so a relabeled
//! re-send gets a witness in the first sender's vertex names, which the
//! oracle rejects for the instance as sent. See `README.md`, known defect.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use htd_hypergraph::canonical::canonical_form;
use htd_hypergraph::Hypergraph;
use htd_search::{Objective, Outcome};
use htd_service::store::CertStore;
use htd_service::{parse_problem, Client, Response, Server};

use crate::answer::solve_request;
use crate::check::check_outcome;
use crate::gen::{self, ColdKind, Rng, SolveInstance};
use crate::replay::{self, work_values, Counts};
use crate::stats::{mean, median, quantile, ratio};
use crate::trace::{dominant_layer, layer_table, Attribution, Recorder, Span};
use crate::{
    connect, end_to_end, per_layer_metrics, served, start_server, stop_server, timed_request, Args,
    LayerValues, RunOutput, Sample, MAX_LOOP,
};

/// Client connections.
const CONNECTIONS: usize = 2;
/// Requests generated per batch.
const BATCH: usize = 64;

/// One request of the stream.
pub struct Planned {
    /// New or hard.
    pub kind: ColdKind,
    /// The instance, unlabeled.
    pub instance: SolveInstance,
    /// The instance text as sent.
    pub text: String,
}

/// One sent request: client latency, the response, and for a traced
/// request its replay.
struct Sent {
    index: usize,
    latency_ms: f64,
    response: Result<Response, String>,
    replay: Option<Result<Counts, String>>,
}

/// Canonical key of an instance's structure, to keep new instances new.
fn key(inst: &SolveInstance) -> (&'static str, Vec<u8>) {
    (
        inst.objective.name(),
        canonical_form(&Hypergraph::new(inst.n, inst.edges.clone())).bytes,
    )
}

/// The stream: a plan per index and distinct new instances, relabeled
/// from the seed.
pub struct Stream {
    hard: Vec<SolveInstance>,
    fresh: Rng,
    relabel: Rng,
    seen: HashSet<(&'static str, Vec<u8>)>,
    next: usize,
    new_count: usize,
}

impl Stream {
    /// The stream of `seed`.
    pub fn new(seed: u64) -> Stream {
        let hard = gen::hard_instances();
        let seen = gen::solve_pool().iter().chain(&hard).map(key).collect();
        Stream {
            hard,
            fresh: gen::structure_rng(8),
            relabel: Rng::new(seed, 9),
            seen,
            next: 0,
            new_count: 0,
        }
    }

    /// The next `n` requests.
    pub fn batch(&mut self, n: usize) -> Vec<Planned> {
        (0..n)
            .map(|_| {
                let index = self.next;
                self.next += 1;
                let kind = gen::cold_kind(index);
                let (instance, text) = match kind {
                    // as generated, so that the budgeted width repeats
                    ColdKind::Hard(h) => (self.hard[h].clone(), self.hard[h].render(None)),
                    ColdKind::New => loop {
                        let inst = gen::solve_instance(&mut self.fresh, self.new_count);
                        self.new_count += 1;
                        if self.seen.insert(key(&inst)) {
                            let text = inst.render(Some(&mut self.relabel));
                            break (inst, text);
                        }
                    },
                };
                Planned {
                    kind,
                    instance,
                    text,
                }
            })
            .collect()
    }
}

/// Re-verifies every stored record with the `htd-check` store oracle;
/// returns the milliseconds it took.
fn verify_store(dir: &Path) -> Result<f64, String> {
    let (store, records) = CertStore::open(dir).map_err(|e| format!("store open: {e}"))?;
    let t = Instant::now();
    for rec in &records {
        let objective = Objective::from_name(rec.objective).ok_or("stored objective unknown")?;
        let (problem, _) =
            parse_problem(rec.format, &rec.instance, objective).map_err(|e| e.to_string())?;
        let report = htd_check::verify_store_entry(&problem, &rec.outcome);
        if !report.is_valid() {
            return Err(format!("stored record fails the oracle: {report}"));
        }
    }
    let ms = t.elapsed().as_secs_f64() * 1e3;
    drop(store);
    Ok(ms)
}

/// What set-up leaves for the timed phase.
struct Ready {
    server: Server,
    dir: PathBuf,
    setup_s: Vec<f64>,
    restart_ms: Vec<f64>,
    verify_ms: f64,
}

/// Set-up: generate the pool, start a server on a fresh store, solve the
/// pool cold (filling cache and store), stop, and restart onto the store.
/// Repeated `args.setups` times; the last server is kept.
fn set_up(args: &Args) -> Result<Ready, String> {
    let (mut setup_s, mut restart_ms, mut verify_ms) = (Vec::new(), Vec::new(), 0.0);
    let setups = args.setups.max(1);
    for k in 0..setups {
        let dir = args
            .out_dir
            .join(format!("store-{}-{k}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let t = Instant::now();
        let pool = gen::solve_pool();
        let server = start_server(Some(dir.clone()))?;
        let mut client = connect(&server)?;
        for (i, inst) in pool.iter().enumerate() {
            let text = inst.render(None);
            let r =
                served(timed_request(&mut client, &solve_request(inst, &text, format!("w{i}"))).1)?;
            let outcome = r.outcome.ok_or("warm-up response without an outcome")?;
            let (problem, _) =
                parse_problem(inst.format(), &text, inst.objective).map_err(|e| e.to_string())?;
            check_outcome(&problem, &outcome).map_err(|e| format!("warm-up {i}: {e}"))?;
            if !outcome.exact {
                return Err(format!("warm-up instance {i} was not proven exact"));
            }
        }
        drop(client);
        stop_server(server);
        // the traced run re-verifies the store itself; that is not set-up
        let paused = if args.trace {
            let t = Instant::now();
            verify_ms = verify_store(&dir)?;
            t.elapsed().as_secs_f64()
        } else {
            0.0
        };
        let restart = Instant::now();
        let server = start_server(Some(dir.clone()))?;
        restart_ms.push(restart.elapsed().as_secs_f64() * 1e3);
        setup_s.push(t.elapsed().as_secs_f64() - paused);
        if k + 1 == setups {
            return Ok(Ready {
                server,
                dir,
                setup_s,
                restart_ms,
                verify_ms,
            });
        }
        stop_server(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
    unreachable!("at least one set-up runs")
}

/// Sends `batch` over the clients, each in a closed loop; a traced batch
/// replays every request on the client's thread. Returns the results in
/// send order and the batch's wall time.
fn send_batch(
    clients: &mut [Client],
    recorders: &mut [Recorder],
    batch: &[Planned],
    first: usize,
    traced: bool,
) -> (Vec<Sent>, f64) {
    let cursor = AtomicUsize::new(0);
    let t = Instant::now();
    let mut sent: Vec<Sent> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(recorders.iter_mut())
            .map(|(client, rec)| {
                let cursor = &cursor;
                s.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::SeqCst);
                        let Some(p) = batch.get(i) else { break };
                        let index = first + i;
                        let req = solve_request(&p.instance, &p.text, format!("m{index}"));
                        let start = Instant::now();
                        let (latency_ms, response) = timed_request(client, &req);
                        let end = Instant::now();
                        let response = served(response);
                        let replay = match (&response, traced) {
                            (Ok(r), true) => Some(replay_one(rec, index as u64, p, r, start, end)),
                            _ => None,
                        };
                        mine.push(Sent {
                            index,
                            latency_ms,
                            response,
                            replay,
                        });
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t.elapsed().as_secs_f64();
    sent.sort_by_key(|s| s.index);
    (sent, wall)
}

/// Replays one served solve in-process under a `request` span.
fn replay_one(
    rec: &mut Recorder,
    request: u64,
    p: &Planned,
    r: &Response,
    start: Instant,
    end: Instant,
) -> Result<Counts, String> {
    let outcome: &Outcome = r
        .outcome
        .as_ref()
        .ok_or("solve response without an outcome")?;
    let root = rec.record(request, None, "request", start, end);
    let t = Instant::now();
    let counts = replay::solve_request(rec, request, root, &p.instance, &p.text, outcome, r.cached);
    rec.record(request, Some(root), "replay", t, Instant::now());
    counts
}

/// Checks one response: the oracle must accept its outcome for the
/// instance exactly as sent. A hard instance's width goes to
/// `hard_widths`.
fn check(p: &Planned, s: &Sent, hard_widths: &mut [Option<u32>]) -> Result<(), String> {
    let r = s.response.as_ref().map_err(Clone::clone)?;
    let outcome = r
        .outcome
        .as_ref()
        .ok_or("solve response without an outcome")?;
    let (problem, _) = parse_problem(p.instance.format(), &p.text, p.instance.objective)
        .map_err(|e| e.to_string())?;
    if let Some(Err(e)) = s.replay.as_ref() {
        return Err(format!("trace: {e}"));
    }
    check_outcome(&problem, outcome)?;
    if let ColdKind::Hard(h) = p.kind {
        hard_widths[h] = Some(outcome.upper);
    }
    Ok(())
}

/// Server-side counters read at the start and end of the traced phase.
#[derive(Clone, Copy, Default)]
struct Counters {
    cache_hits: u64,
    cache_misses: u64,
    queue_sum: f64,
    queue_count: u64,
    solve_sum: f64,
    solve_count: u64,
    appends: u64,
}

fn counters(server: &Server) -> Counters {
    let m = server.metrics();
    Counters {
        cache_hits: m.cache_hits.load(Ordering::Relaxed),
        cache_misses: m.cache_misses.load(Ordering::Relaxed),
        queue_sum: m.queue_wait.sum(),
        queue_count: m.queue_wait.count(),
        solve_sum: m.solve_time.sum(),
        solve_count: m.solve_time.count(),
        appends: htd_trace::registry()
            .counter("htd_store_appends_total")
            .get(),
    }
}

/// Runs `solve_cold`.
pub fn run(args: &Args) -> Result<RunOutput, String> {
    let mut out = RunOutput::default();
    let ready = set_up(args)?;
    let mut stream = Stream::new(args.seed);
    let mut clients = (0..CONNECTIONS)
        .map(|_| connect(&ready.server))
        .collect::<Result<Vec<_>, _>>()?;
    let epoch = Instant::now();
    let mut recorders: Vec<Recorder> = (0..CONNECTIONS)
        .map(|c| Recorder::new(epoch, (c as u64 + 1) << 40))
        .collect();
    let mut hard_widths: Vec<Option<u32>> = vec![None; gen::HARD_INSTANCES];
    let mut cached = 0u64;

    // an untraced run times every request; a traced run times its first
    // half untraced and replays every request of its second half
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut samples: Vec<Sample> = Vec::new();
    let mut traced: Vec<(Sample, f64, Counts, u64)> = Vec::new();
    let (mut timed_s, mut traced_s) = (0.0, 0.0);
    let mut start_counters = None;
    let loop_start = Instant::now();
    loop {
        let untraced_done = timed_s >= untraced_s
            && samples.len() >= args.min_requests
            && hard_widths.iter().all(Option::is_some);
        let in_traced = args.trace && untraced_done;
        let done = if args.trace {
            in_traced
                && traced_s >= args.seconds - untraced_s
                && traced.len() >= args.min_requests / 4
        } else {
            untraced_done
        };
        if done || loop_start.elapsed() > MAX_LOOP {
            break;
        }
        if in_traced && start_counters.is_none() {
            start_counters = Some(counters(&ready.server));
        }
        let first = stream.next;
        let batch = stream.batch(BATCH);
        let (sent, wall) = send_batch(&mut clients, &mut recorders, &batch, first, in_traced);
        if in_traced {
            traced_s += wall;
        } else {
            timed_s += wall;
        }
        for (p, s) in batch.iter().zip(&sent) {
            let hit = s.response.as_ref().is_ok_and(|r| r.cached);
            cached += u64::from(hit);
            let sample = Sample {
                latency_ms: s.latency_ms,
                hit,
            };
            match (&s.replay, &s.response) {
                (Some(Ok(counts)), Ok(r)) => {
                    traced.push((sample, r.elapsed_ms, counts.clone(), s.index as u64))
                }
                _ if in_traced => {}
                _ => samples.push(sample),
            }
            out.tally(check(p, s, &mut hard_widths));
        }
    }
    drop(clients);
    // a new instance served from the result cache would mean the stream
    // is not cold; the smoke test holds this at 0
    out.info.push(("cached_responses", cached.to_string()));

    if args.trace {
        let c0 = start_counters.unwrap_or_default();
        let c1 = counters(&ready.server);
        let spans: Vec<Span> = recorders.into_iter().flat_map(|r| r.spans).collect();
        per_layer(
            &mut out,
            &ready,
            &traced,
            &samples,
            &spans,
            (c0, c1),
            traced_s,
        );
        out.spans = spans;
    } else {
        end_to_end(&mut out, &samples, timed_s, &ready.setup_s);
        let width_sum: u64 = hard_widths.iter().map(|w| u64::from(w.unwrap_or(0))).sum();
        out.metric("budgeted_width_sum", width_sum as f64, "width");
    }
    out.info
        .push(("store_restart_ms", format!("{:?}", ready.restart_ms)));
    stop_server(ready.server);
    let _ = std::fs::remove_dir_all(&ready.dir);
    Ok(out)
}

/// Per-layer metrics and table of the traced half.
fn per_layer(
    out: &mut RunOutput,
    ready: &Ready,
    traced: &[(Sample, f64, Counts, u64)],
    untraced: &[Sample],
    spans: &[Span],
    (c0, c1): (Counters, Counters),
    traced_s: f64,
) {
    let queue_ms = ratio(
        (c1.queue_sum - c0.queue_sum) * 1e3,
        (c1.queue_count - c0.queue_count) as f64,
    );
    let worker_ms = ratio(
        (c1.solve_sum - c0.solve_sum) * 1e3,
        (c1.solve_count - c0.solve_count) as f64,
    );
    let mut by_request: std::collections::HashMap<u64, Vec<Span>> =
        std::collections::HashMap::new();
    for s in spans {
        by_request.entry(s.request).or_default().push(s.clone());
    }
    let rows: Vec<Attribution> = traced
        .iter()
        .map(|(sample, server_ms, _, id)| {
            Attribution::new(
                sample.latency_ms,
                *server_ms,
                queue_ms,
                by_request.get(id).map_or(&[][..], Vec::as_slice),
            )
        })
        .collect();
    let counts: Vec<&Counts> = traced.iter().map(|t| &t.2).collect();
    let lat: Vec<f64> = traced.iter().map(|t| t.0.latency_ms).collect();
    let untraced_lat: Vec<f64> = untraced.iter().map(|s| s.latency_ms).collect();
    let values = LayerValues {
        queue_wait_ms: queue_ms,
        worker_ms,
        overhead_ms: mean(&lat) - worker_ms,
        result_cache_hit_ratio: ratio(
            (c1.cache_hits - c0.cache_hits) as f64,
            ((c1.cache_hits - c0.cache_hits) + (c1.cache_misses - c0.cache_misses)) as f64,
        ),
        store_appends: (c1.appends - c0.appends) as f64,
        store_bytes: std::fs::metadata(ready.dir.join("store.log")).map_or(0.0, |m| m.len() as f64),
        store_replay_ms: median(&ready.restart_ms),
        verify_ms: ready.verify_ms,
        unattributed_ms: mean(
            &rows
                .iter()
                .map(|r| r.layers["unattributed"])
                .collect::<Vec<_>>(),
        ),
        overhead_pct: 100.0 * (quantile(&lat, 0.5) / quantile(&untraced_lat, 0.5) - 1.0),
        ..work_values(&counts)
    };
    per_layer_metrics(out, spans, traced.len(), &values);
    let setup = [
        ("service.store_replay", values.store_replay_ms),
        ("check.verify", ready.verify_ms),
    ];
    let rows: Vec<&Attribution> = rows.iter().collect();
    out.table = layer_table("solve_cold", &rows, &setup);
    out.table
        .push_str(&format!("dominant layer: {}\n", dominant_layer(&rows)));
    out.info.push(("traced_samples", traced.len().to_string()));
    out.info.push(("traced_s", format!("{traced_s:.3}")));
}

//! The two answer workloads: `answer_new_shapes` (every query shape is
//! new, so decomposition search dominates) and `answer_repeat_shapes`
//! (every shape is cached, so evaluation dominates). One client
//! connection, closed loop.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use htd_core::EliminationOrdering;
use htd_service::{AnswerRequest, Client, Command, Request, Response, Server, SolveRequest};

use crate::check::{check_answer, check_outcome, reference, Reference};
use crate::gen::{self, QueryCase, Rng, Shape};
use crate::replay::{self, work_values, Counts};
use crate::stats::{mean, quantile, ratio};
use crate::trace::{layer_table, Attribution, Recorder, Span};
use crate::{
    connect, end_to_end, per_layer_metrics, served, start_server, stop_server, timed_request, Args,
    LayerValues, RunOutput, Sample, Workload, MAX_LOOP,
};

/// Requests generated (and their references computed) per batch.
const BATCH: usize = 16;
/// New-shape warm-up queries, sent before timing.
const NEW_SHAPE_WARMUP: usize = 12;

/// The answer request carrying `case`.
pub fn request(case: &QueryCase, id: String) -> Request {
    Request {
        id: Some(id),
        cmd: Command::Answer(AnswerRequest {
            query: case.text.clone(),
            mode: case.mode,
            limit: case.limit,
            deadline_ms: None,
            threads: None,
            engines: None,
            use_cache: true,
            forwarded: false,
        }),
    }
}

/// A workload's request source: the same seed always yields the same
/// warm-up and the same stream.
pub struct Source {
    workload: Workload,
    seed: u64,
    rng: Rng,
    structure: Rng,
    shapes: Vec<Shape>,
    seen: HashSet<Vec<u8>>,
    next: usize,
}

impl Source {
    /// The source of `workload` for `seed`.
    pub fn new(workload: Workload, seed: u64) -> Source {
        let shapes = match workload {
            Workload::AnswerRepeatShapes => gen::repeat_shapes(),
            _ => Vec::new(),
        };
        Source {
            workload,
            seed,
            rng: Rng::new(seed, 1),
            structure: gen::structure_rng(1),
            shapes,
            seen: HashSet::new(),
            next: 0,
        }
    }

    /// Warm-up queries: a few unrelated new shapes, or one query per
    /// repeated shape (which the server then caches).
    pub fn warmup(&mut self) -> Vec<QueryCase> {
        let mut rng = Rng::new(self.seed, 6);
        match self.workload {
            Workload::AnswerRepeatShapes => (0..self.shapes.len())
                .map(|i| gen::repeat_query_on(&self.shapes, i, &mut rng, i))
                .collect(),
            _ => gen::new_shape_queries(
                &mut gen::structure_rng(6),
                &mut rng,
                NEW_SHAPE_WARMUP,
                &mut self.seen,
                0,
            ),
        }
    }

    /// The next `n` timed queries.
    pub fn batch(&mut self, n: usize) -> Vec<QueryCase> {
        let first = self.next;
        self.next += n;
        match self.workload {
            Workload::AnswerRepeatShapes => (first..first + n)
                .map(|i| gen::repeat_query(&self.shapes, &mut self.rng, i))
                .collect(),
            _ => {
                gen::new_shape_queries(&mut self.structure, &mut self.rng, n, &mut self.seen, first)
            }
        }
    }
}

/// Sends and checks the warm-up queries.
fn warm_up(client: &mut Client, cases: &[QueryCase]) -> Result<Vec<Response>, String> {
    cases
        .iter()
        .enumerate()
        .map(|(i, case)| {
            let r = served(timed_request(client, &request(case, format!("w{i}"))).1)?;
            let answer = r
                .answer
                .as_ref()
                .ok_or("warm-up response without an answer")?;
            check_answer(case, reference(case), answer).map_err(|e| format!("warm-up {i}: {e}"))?;
            Ok(r)
        })
        .collect()
}

/// Set-up: generate the fixed inputs, start the server and warm it up.
/// Repeated `args.setups` times; the last server is kept.
#[allow(clippy::type_complexity)]
fn set_up(
    args: &Args,
) -> Result<(Server, Client, Source, Vec<(QueryCase, Response)>, Vec<f64>), String> {
    let mut times = Vec::new();
    for k in 0..args.setups.max(1) {
        let t = Instant::now();
        let mut source = Source::new(args.workload, args.seed);
        let warm = source.warmup();
        let server = start_server(None)?;
        let mut client = connect(&server)?;
        let responses = warm_up(&mut client, &warm)?;
        times.push(t.elapsed().as_secs_f64());
        if k + 1 == args.setups.max(1) {
            return Ok((
                server,
                client,
                source,
                warm.into_iter().zip(responses).collect(),
                times,
            ));
        }
        drop(client);
        stop_server(server);
    }
    unreachable!("at least one set-up runs")
}

/// The node-budgeted quality probe: the hard `solve_cold` instances, sent
/// untimed once the timed phase's metrics are read; returns the sum of
/// their widths. Their responses are checked and counted in `out`.
pub fn budget_probe(client: &mut Client, out: &mut RunOutput) -> u64 {
    let mut sum = 0;
    for (i, inst) in gen::hard_instances().iter().enumerate() {
        let text = inst.render(None);
        let req = solve_request(inst, &text, format!("b{i}"));
        let result = served(timed_request(client, &req).1).and_then(|r| {
            let outcome = r.outcome.ok_or("solve response without an outcome")?;
            let (problem, _) = htd_service::parse_problem(inst.format(), &text, inst.objective)
                .map_err(|e| e.to_string())?;
            check_outcome(&problem, &outcome)?;
            sum += u64::from(outcome.upper);
            Ok(())
        });
        out.tally(result);
    }
    sum
}

/// The solve request for `inst` rendered as `text`.
pub fn solve_request(inst: &gen::SolveInstance, text: &str, id: String) -> Request {
    Request {
        id: Some(id),
        cmd: Command::Solve(SolveRequest {
            objective: inst.objective,
            format: inst.format(),
            instance: text.to_string(),
            deadline_ms: None,
            budget: inst.budget,
            threads: None,
            engines: None,
            use_cache: true,
            forwarded: false,
        }),
    }
}

/// One traced request's replay result.
struct Traced {
    attribution: Attribution,
    counts: Counts,
    queue_ms: f64,
}

/// Runs an answer workload.
pub fn run(args: &Args) -> Result<RunOutput, String> {
    let mut out = RunOutput::default();
    let (server, mut client, mut source, warm, setup_s) = set_up(args)?;
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, 1);
    let mut orderings: HashMap<Vec<u8>, EliminationOrdering> = HashMap::new();
    if args.trace {
        // the replay's shape cache learns the warm-up shapes, as the
        // server's did
        for (case, r) in &warm {
            let answer = r
                .answer
                .as_ref()
                .ok_or("warm-up response without an answer")?;
            let root = rec.record(
                u64::MAX,
                None,
                "replay.warmup",
                Instant::now(),
                Instant::now(),
            );
            replay::answer(&mut rec, u64::MAX, root, case, answer, &mut orderings)?;
        }
        rec.spans.clear();
    }

    // an untraced run times every request; a traced run times its first
    // half untraced and replays every request of its second half
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut samples: Vec<Sample> = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    let (mut timed_s, mut traced_s, mut traced_count) = (0.0, 0.0, 0);
    let reg = htd_trace::registry();
    let shape_counts = || {
        (
            reg.counter("htd_answer_shape_cache_hits_total").get(),
            reg.counter("htd_answer_shape_cache_misses_total").get(),
        )
    };
    let m = server.metrics();
    let mut traced_start = None;
    let loop_start = Instant::now();
    let mut index = 0u64;
    loop {
        let in_traced =
            args.trace && timed_s >= untraced_s && samples.len() >= args.min_requests / 2;
        let done = if args.trace {
            in_traced
                && traced_s >= args.seconds - untraced_s
                && traced_count >= args.min_requests / 2
        } else {
            timed_s >= args.seconds && samples.len() >= args.min_requests
        };
        if done || loop_start.elapsed() > MAX_LOOP {
            break;
        }
        if in_traced && traced_start.is_none() {
            traced_start = Some((shape_counts(), m.solve_time.sum(), m.solve_time.count()));
        }
        let batch = source.batch(BATCH);
        let refs: Vec<Reference> = batch.iter().map(reference).collect();
        for (case, refr) in batch.iter().zip(refs) {
            index += 1;
            let req = request(case, format!("r{index}"));
            let q0 = m.queue_wait.sum();
            let sent = Instant::now();
            let (lat, r) = timed_request(&mut client, &req);
            let received = Instant::now();
            let queue_ms = (m.queue_wait.sum() - q0) * 1e3;
            let r = served(r);
            let hit = r.as_ref().is_ok_and(|r| r.cached);
            if in_traced {
                traced_s += lat / 1e3;
                traced_count += 1;
            } else {
                samples.push(Sample {
                    latency_ms: lat,
                    hit,
                });
                timed_s += lat / 1e3;
            }
            let result = r.and_then(|r| {
                let answer = r.answer.as_ref().ok_or("response without an answer")?;
                check_answer(case, refr, answer)?;
                if in_traced {
                    let first = rec.spans.len();
                    let root = rec.record(index, None, "request", sent, received);
                    let t = Instant::now();
                    let counts =
                        replay::answer(&mut rec, index, root, case, answer, &mut orderings)?;
                    rec.record(index, Some(root), "replay", t, Instant::now());
                    let attribution =
                        Attribution::new(lat, r.elapsed_ms, queue_ms, &rec.spans[first..]);
                    traced.push(Traced {
                        attribution,
                        counts,
                        queue_ms,
                    });
                }
                Ok(())
            });
            out.tally(result);
        }
    }
    let ((h0, m0), w0, c0) = traced_start.unwrap_or(((0, 0), 0.0, 0));
    let (h1, m1) = shape_counts();
    let worker_ms = ratio(
        (m.solve_time.sum() - w0) * 1e3,
        (m.solve_time.count() - c0) as f64,
    );
    if args.trace {
        per_layer(
            &mut out,
            &rec.spans,
            &traced,
            &samples,
            (h1 - h0, m1 - m0),
            worker_ms,
        );
        out.spans = rec.spans;
        let rows: Vec<&Attribution> = traced.iter().map(|t| &t.attribution).collect();
        out.table = layer_table(args.workload.name(), &rows, &[]);
        out.table.push_str(&format!(
            "dominant layer: {}\n",
            crate::trace::dominant_layer(&rows)
        ));
        out.info.push(("traced_samples", traced_count.to_string()));
    } else {
        end_to_end(&mut out, &samples, timed_s, &setup_s);
        let width_sum = budget_probe(&mut client, &mut out);
        out.metric("budgeted_width_sum", width_sum as f64, "width");
    }
    drop(client);
    stop_server(server);
    Ok(out)
}

/// Per-layer metrics of an answer workload's traced half.
fn per_layer(
    out: &mut RunOutput,
    spans: &[Span],
    traced: &[Traced],
    untraced: &[Sample],
    shape: (u64, u64),
    worker_ms: f64,
) {
    let counts: Vec<&Counts> = traced.iter().map(|t| &t.counts).collect();
    let lat: Vec<f64> = traced.iter().map(|t| t.attribution.latency_ms).collect();
    let untraced_lat: Vec<f64> = untraced.iter().map(|s| s.latency_ms).collect();
    let column = |f: fn(&Traced) -> f64| mean(&traced.iter().map(f).collect::<Vec<_>>());
    let values = LayerValues {
        shape_hit_ratio: ratio(shape.0 as f64, (shape.0 + shape.1) as f64),
        queue_wait_ms: column(|t| t.queue_ms),
        worker_ms,
        overhead_ms: mean(&lat) - worker_ms,
        unattributed_ms: column(|t| t.attribution.layers["unattributed"]),
        overhead_pct: 100.0 * (quantile(&lat, 0.5) / quantile(&untraced_lat, 0.5) - 1.0),
        ..work_values(&counts)
    };
    per_layer_metrics(out, spans, traced.len(), &values);
}

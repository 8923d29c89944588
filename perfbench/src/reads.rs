//! Reads and the metrics taken over them.
//!
//! The closed loop is shared by `small_select` and `ooc_scan` (one
//! in-process `Session`) and `scatter_gather` (one `ClusterClient`): it
//! submits a request, waits for its reply, and only then sends the next.
//! In the traced run it opens the benchmark's request span around each
//! read and drains the engine's span ring after every read.
//!
//! Around every in-process read, `in_process` also takes the counters the
//! public API already exposes — the pipeline's draw and fragment counters,
//! the framebuffer arena's hit counters, and each grid's `bytes_read()`
//! ledger — so the per-read figures are exact for a single session.

use crate::answer::Answer;
use crate::report::Outcome;
use crate::spans::{self, Collector};
use crate::util::{ms, prom_sum, ratio, Samples};
use spade_core::{trace, QueryStats};
use spade_index::GridIndex;
use spade_server::{QueryRequest, QueryResponse, QueryService, ResponsePayload};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

pub struct Read {
    pub id: u64,
    pub request: QueryRequest,
    pub latency_ms: f64,
    /// Recorded with tracing on (traced run only).
    pub traced: bool,
    pub reply: Result<Reply, String>,
}

pub struct Reply {
    pub answer: Answer,
    pub stats: QueryStats,
    pub queue_ms: f64,
    pub exec_ms: f64,
}

impl Reply {
    /// The reply to a read, or why there is none.
    fn of(response: Result<QueryResponse, String>) -> Result<Reply, String> {
        let r = response?;
        match r.payload {
            ResponsePayload::Query(result) => Ok(Reply {
                answer: Answer::of(result),
                stats: r.stats,
                queue_ms: ms(r.queue_wait),
                exec_ms: ms(r.exec_time),
            }),
            other => Err(format!("unexpected payload {other:?}")),
        }
    }
}

/// Run reads for `seconds`. `next` makes request `i`, `submit` sends it
/// and waits for its reply, and `after` runs once per read outside its
/// timing (the traced run's layer replays).
///
/// The traced run alternates tracing on and off for whole periods of the
/// request mix (`cycle` requests), so the recorder's overhead is measured
/// on the same mix of requests in the same process.
pub fn closed_loop(
    seconds: f64,
    traced_run: bool,
    cycle: u64,
    collector: &mut Collector,
    mut next: impl FnMut(u64) -> QueryRequest,
    mut submit: impl FnMut(&QueryRequest) -> Result<QueryResponse, String>,
    mut after: impl FnMut(&Read),
) -> (Vec<Read>, f64) {
    let mut reads = Vec::new();
    let start = Instant::now();
    let mut id = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        let request = next(id);
        let traced = traced_run && (id / cycle).is_multiple_of(2);
        if traced_run {
            trace::set_enabled(traced);
        }
        let t = Instant::now();
        let reply = {
            let mut span = trace::span(spans::REQUEST);
            span.attr("req", id);
            submit(&request)
        };
        let read = Read {
            id,
            latency_ms: ms(t.elapsed()),
            traced,
            reply: Reply::of(reply),
            request,
        };
        if traced_run {
            collector.drain();
            after(&read);
            collector.drain();
        }
        reads.push(read);
        id += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    trace::set_enabled(traced_run);
    (reads, elapsed)
}

/// Engine counters around one in-process read.
#[derive(Default)]
pub struct Counters {
    pub fragments: u64,
    pub passes: u64,
    /// Change of the grids' `bytes_read()` ledgers around the read.
    pub ledger_bytes: u64,
    pub arena_hits: u64,
    pub arena_misses: u64,
}

/// The `submit` step of an in-process session on `svc`. It pushes the
/// counter deltas of each read onto `counters`, one entry per read.
pub fn in_process<'a>(
    svc: &'a QueryService,
    grids: &'a [Arc<GridIndex>],
    counters: &'a mut Vec<Counters>,
) -> impl FnMut(&QueryRequest) -> Result<QueryResponse, String> + 'a {
    let session = svc.session();
    let engine = svc.engine();
    let pstats = &engine.pipeline.stats;
    let snapshot = move || {
        let a = engine.pipeline.arena().stats();
        Counters {
            fragments: pstats.fragments.load(Ordering::Relaxed),
            passes: pstats.draw_calls.load(Ordering::Relaxed),
            ledger_bytes: grids.iter().map(|g| g.bytes_read()).sum(),
            arena_hits: a.hits,
            arena_misses: a.misses,
        }
    };
    move |request| {
        let c0 = snapshot();
        let reply = session.submit(request.clone()).wait();
        let c1 = snapshot();
        counters.push(Counters {
            fragments: c1.fragments - c0.fragments,
            passes: c1.passes - c0.passes,
            ledger_bytes: c1.ledger_bytes - c0.ledger_bytes,
            arena_hits: c1.arena_hits - c0.arena_hits,
            arena_misses: c1.arena_misses - c0.arena_misses,
        });
        reply.map_err(|e| e.to_string())
    }
}

/// Compare every reply with the oracle's answer to its request, outside
/// the timed phase. Errors and wrong answers both count as failed.
pub fn check(out: &mut Outcome, reads: &[Read], mut oracle: impl FnMut(&QueryRequest) -> Answer) {
    for r in reads {
        out.attempted += 1;
        match &r.reply {
            Err(e) => out.fail(format!("read {} ({}): {e}", r.id, r.request.class())),
            Ok(reply) => {
                let want = oracle(&r.request);
                if !reply.answer.matches(&want) {
                    out.fail(format!(
                        "read {} ({}): {} results, oracle {}",
                        r.id,
                        r.request.class(),
                        reply.answer.len(),
                        want.len()
                    ));
                }
            }
        }
    }
}

/// End-to-end metrics of a closed loop, over its untraced reads.
pub fn end_to_end(out: &mut Outcome, reads: &[Read], elapsed: f64, tail: f64) {
    let untraced = || reads.iter().filter(|r| !r.traced);
    class_notes(out, untraced().map(|r| (r.request.class(), r.latency_ms)));
    let latencies: Vec<f64> = untraced().map(|r| r.latency_ms).collect();
    let reads_per_s = latencies.len() as f64 / elapsed;
    read_latency(out, latencies, tail, reads_per_s);
}

/// `read_p50_ms`, `read_tail_ms` (the `tail` percentile) and
/// `reads_per_s`, with a note of how many samples lie beyond the tail.
pub fn read_latency(out: &mut Outcome, latencies: Vec<f64>, tail: f64, reads_per_s: f64) {
    let s = Samples::new(latencies);
    out.set("read_p50_ms", s.pct(0.5));
    out.set("read_tail_ms", s.pct(tail));
    out.set("reads_per_s", reads_per_s);
    out.note(format!(
        "read_tail_ms is p{:.0}: {} samples, {} beyond it{}",
        tail * 100.0,
        s.len(),
        s.beyond(tail),
        if s.beyond(tail) < 10 {
            " (fewer than ten: the tail is not resolved)"
        } else {
            ""
        }
    ));
}

/// One note per request class: count and median latency, so a shift in
/// the mix is told apart from a shift in one class.
pub fn class_notes(out: &mut Outcome, reads: impl Iterator<Item = (&'static str, f64)>) {
    let mut by: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for (class, latency) in reads {
        by.entry(class).or_default().push(latency);
    }
    for (class, v) in by {
        let s = Samples::new(v);
        out.note(format!(
            "class {class}: {} reads, p50 {:.3} ms, max {:.3} ms",
            s.len(),
            s.pct(0.5),
            s.pct(1.0)
        ));
    }
}

/// Per-layer metrics every in-process read workload reports, from the
/// replies' `QueryStats`, the counters around each read (`in_process`),
/// and the spans of the traced reads.
pub fn per_layer(
    out: &mut Outcome,
    reads: &[Read],
    counters: &[Counters],
    collector: &Collector,
    total_cells: usize,
    mispredictions: f64,
) {
    let ok: Vec<&Reply> = reads.iter().filter_map(|r| r.reply.as_ref().ok()).collect();
    let stats: Vec<&QueryStats> = ok.iter().map(|r| &r.stats).collect();
    query_stats(out, &stats);
    let sum = |f: &dyn Fn(&QueryStats) -> u64| stats.iter().map(|s| f(s)).sum::<u64>() as f64;
    out.set(
        "index.cells_loaded_ratio",
        sum(&|s| s.cells_loaded) / stats.len().max(1) as f64 / total_cells.max(1) as f64,
    );
    let rn = counters.len().max(1) as f64;
    let per_read = |f: &dyn Fn(&Counters) -> u64| counters.iter().map(f).sum::<u64>() as f64 / rn;
    out.set("gpu.fragments_per_read", per_read(&|r| r.fragments));
    out.set("gpu.passes_per_read", per_read(&|r| r.passes));
    out.set("storage.bytes_read_per_read", per_read(&|r| r.ledger_bytes));
    let hits = per_read(&|r| r.arena_hits);
    out.set(
        "gpu.arena_hit_ratio",
        ratio(hits, hits + per_read(&|r| r.arena_misses)),
    );
    let ph = sum(&|s| s.prefetch_hits);
    out.set(
        "core.prefetch_hit_ratio",
        ratio(ph, ph + sum(&|s| s.prefetch_misses)),
    );
    out.set(
        "core.cell_cache_hit_ratio",
        ratio(sum(&|s| s.cache_hits), sum(&|s| s.cells_loaded)),
    );
    out.set("core.optimizer_mispredictions", mispredictions);
    server_split(
        out,
        ok.iter().map(|r| r.queue_ms).collect(),
        ok.iter().map(|r| r.exec_ms).collect(),
    );
    spans_per_layer(
        out,
        reads.iter().map(|r| (r.id, r.traced, r.latency_ms)),
        collector,
    );
}

/// The paper's Fig. 5 split (I/O, GPU, polygon, CPU time), the transfer
/// figures and the result-cache outcome, as means over replies'
/// `QueryStats`.
pub fn query_stats(out: &mut Outcome, stats: &[&QueryStats]) {
    let n = stats.len().max(1) as f64;
    let mean = |f: &dyn Fn(&QueryStats) -> f64| stats.iter().map(|s| f(s)).sum::<f64>() / n;
    out.set("core.io_ms", mean(&|s| ms(s.io_time)));
    out.set("core.gpu_ms", mean(&|s| ms(s.gpu_time)));
    out.set("core.poly_ms", mean(&|s| ms(s.polygon_time)));
    out.set("core.cpu_ms", mean(&|s| ms(s.cpu_time)));
    out.set(
        "gpu.bytes_to_device_per_read",
        mean(&|s| s.bytes_to_device as f64),
    );
    out.set(
        "storage.qstats_bytes_per_read",
        mean(&|s| s.bytes_from_disk as f64),
    );
    out.set(
        "core.result_cache_hit_ratio",
        mean(&|s| s.result_cache.served_from_cache() as u8 as f64),
    );
}

/// Queue wait and execution time as the service reports them
/// (`QueryResponse.{queue_wait, exec_time}`), in ms.
pub fn server_split(out: &mut Outcome, queue: Vec<f64>, exec: Vec<f64>) {
    let queue = Samples::new(queue);
    out.set("server.queue_wait_p50_ms", queue.pct(0.5));
    out.set("server.queue_wait_p99_ms", queue.pct(0.99));
    out.set("server.exec_p50_ms", Samples::new(exec).pct(0.5));
}

/// Span-derived per-layer metrics (traced reads only) and the tracing
/// overhead: median latency of traced over untraced reads.
pub fn spans_per_layer(
    out: &mut Outcome,
    reads: impl Iterator<Item = (u64, bool, f64)>,
    collector: &Collector,
) {
    let (mut on, mut off, mut traced_ids) =
        (Vec::new(), Vec::new(), std::collections::BTreeSet::new());
    for (id, traced, latency) in reads {
        if traced {
            on.push(latency);
            traced_ids.insert(id);
        } else {
            off.push(latency);
        }
    }
    let (per_request, ambiguous) = collector.attribute();
    let traced: Vec<_> = per_request
        .iter()
        .filter(|(id, _)| traced_ids.contains(id))
        .map(|(_, s)| *s)
        .collect();
    let n = traced.len().max(1) as f64;
    let mean = |f: &dyn Fn(&spans::RequestSpans) -> f64| traced.iter().map(f).sum::<f64>() / n;
    out.set("gpu.draw_ms", mean(&|s| s.draw_ms));
    out.set("core.prefetch_wait_ms", mean(&|s| s.prefetch_wait_ms));
    out.set("core.uncovered_ms", mean(&|s| s.uncovered_ms));
    out.set("self.core_ms", mean(&|s| s.self_core_ms));
    out.set("self.gpu_ms", mean(&|s| s.self_gpu_ms));
    out.set("self.storage_ms", mean(&|s| s.self_storage_ms));
    let (on, off) = (Samples::new(on), Samples::new(off));
    out.set("trace.overhead_ratio", ratio(on.pct(0.5), off.pct(0.5)));
    out.set("trace.dropped_spans", trace::dropped() as f64);
    out.note(format!(
        "traced reads {} (spans attached), untraced reads {}, ambiguous spans {ambiguous}, ring drops {}",
        traced.len(),
        off.len(),
        trace::dropped()
    ));
}

/// Sum of the optimizer's misprediction counters in the service metrics.
pub fn mispredictions(svc: &QueryService) -> f64 {
    prom_sum(
        &svc.metrics_text(),
        "spade_optimizer_mispredictions_total",
        "",
    )
}

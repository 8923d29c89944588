//! The traced run: the benchmark's own spans around each request, the
//! engine's spans drained from its ring after every request, and their
//! attribution to requests by time containment.
//!
//! The benchmark records its spans through the engine's public recorder
//! (`spade_core::trace::span`), so they share the engine's clock and
//! thread ids. A request span carries the request id as attribute `req`.
//! Engine spans run on service worker and prefetch threads; each is
//! attached to the one request whose interval contains it. A span that two
//! overlapping requests contain is counted as ambiguous and left out.

use spade_core::trace::{self, Span};

/// Name of the span the benchmark opens around each timed request.
pub const REQUEST: &str = "bench.request";

/// Per-request figures taken from the spans attached to it.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestSpans {
    /// `gpu.draw` and `gpu.count_pass` durations.
    pub draw_ms: f64,
    pub prefetch_wait_ms: f64,
    /// Request wall time outside the union of every attached engine span.
    pub uncovered_ms: f64,
    pub self_core_ms: f64,
    pub self_gpu_ms: f64,
    pub self_storage_ms: f64,
}

/// Spans drained from the engine ring over a traced run.
#[derive(Default)]
pub struct Collector {
    spans: Vec<Span>,
}

impl Collector {
    /// Move everything the ring holds into the collector. Called after
    /// every request, so the 4,096-span ring never wraps.
    pub fn drain(&mut self) {
        self.spans.extend(trace::drain());
    }

    /// Attribute engine spans to request spans. Returns one record per
    /// request id plus the number of ambiguous spans.
    pub fn attribute(&self) -> (Vec<(u64, RequestSpans)>, usize) {
        let end = |s: &Span| s.start_ns + s.dur_ns;
        let mut requests: Vec<&Span> = self.spans.iter().filter(|s| s.name == REQUEST).collect();
        requests.sort_by_key(|s| s.start_ns);
        let mut attached: Vec<Vec<&Span>> = vec![Vec::new(); requests.len()];
        let mut ambiguous = 0;
        for s in self.spans.iter().filter(|s| !s.name.starts_with("bench.")) {
            // Requests are sorted by start; at most two run at once, so a
            // short backward scan from the last one started finds every
            // candidate owner.
            let upto = requests.partition_point(|r| r.start_ns <= s.start_ns);
            let owners: Vec<usize> = (upto.saturating_sub(64)..upto)
                .filter(|&i| end(s) <= end(requests[i]))
                .collect();
            match owners.as_slice() {
                [one] => attached[*one].push(s),
                [] => {}
                _ => ambiguous += 1,
            }
        }
        let out = requests
            .iter()
            .zip(&attached)
            .map(|(r, spans)| (r.attr("req").unwrap_or(0), summarize(r, spans)))
            .collect();
        (out, ambiguous)
    }
}

fn summarize(request: &Span, spans: &[&Span]) -> RequestSpans {
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut out = RequestSpans::default();
    // Union of engine intervals (any thread) inside the request.
    let mut iv: Vec<(u64, u64)> = spans
        .iter()
        .map(|s| (s.start_ns, s.start_ns + s.dur_ns))
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    out.uncovered_ms = ms(request.dur_ns.saturating_sub(covered));
    for s in spans {
        // Self time: the span minus its direct children on its own thread.
        let children: u64 = spans
            .iter()
            .filter(|c| {
                c.thread == s.thread
                    && c.depth == s.depth + 1
                    && c.start_ns >= s.start_ns
                    && c.start_ns + c.dur_ns <= s.start_ns + s.dur_ns
            })
            .map(|c| c.dur_ns)
            .sum();
        let own = ms(s.dur_ns.saturating_sub(children));
        match s.name {
            "gpu.draw" | "gpu.count_pass" => {
                out.draw_ms += ms(s.dur_ns);
                out.self_gpu_ms += own;
            }
            "prefetch.wait" => {
                out.prefetch_wait_ms += ms(s.dur_ns);
                out.self_core_ms += own;
            }
            "prefetch.load" => out.self_storage_ms += own,
            _ => out.self_core_ms += own,
        }
    }
    out
}

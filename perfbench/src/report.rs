//! The metric vocabulary and the result line.
//!
//! Every workload reports every metric of the list its run prints: the
//! end-to-end list with `--trace 0`, the per-layer list with `--trace 1`.
//! A per-layer metric a workload does not exercise (cluster fan-out on a
//! single node, WAL fsyncs without writes) reads 0 and is marked `n/a`
//! in the human-readable lines.

use crate::util::json_escape;
use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric, as `BENCHMARK.json` lists them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("read_p50_ms", "ms"),
    ("read_tail_ms", "ms"),
    ("reads_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric, as `BENCHMARK.json` lists them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("index.hull_prep_ms", "ms"),
    ("index.cells_loaded_ratio", "ratio"),
    ("canvas.constraint_ms", "ms"),
    ("gpu.fragments_per_read", "count"),
    ("gpu.passes_per_read", "count"),
    ("gpu.draw_ms", "ms"),
    ("gpu.bytes_to_device_per_read", "B"),
    ("gpu.arena_hit_ratio", "ratio"),
    ("storage.bytes_read_per_read", "B"),
    ("storage.qstats_bytes_per_read", "B"),
    ("storage.decode_ms_per_mb", "ms/MB"),
    ("storage.wal_fsyncs_per_write", "count"),
    ("storage.wal_bytes_per_write", "B"),
    ("core.io_ms", "ms"),
    ("core.gpu_ms", "ms"),
    ("core.poly_ms", "ms"),
    ("core.cpu_ms", "ms"),
    ("core.prefetch_wait_ms", "ms"),
    ("core.prefetch_hit_ratio", "ratio"),
    ("core.cell_cache_hit_ratio", "ratio"),
    ("core.result_cache_hit_ratio", "ratio"),
    ("core.optimizer_mispredictions", "count"),
    ("core.uncovered_ms", "ms"),
    ("index.compactions", "count"),
    ("index.compact_bytes_per_write_byte", "ratio"),
    ("server.queue_wait_p50_ms", "ms"),
    ("server.queue_wait_p99_ms", "ms"),
    ("server.exec_p50_ms", "ms"),
    ("net.wire_p50_ms", "ms"),
    ("net.wire_p99_ms", "ms"),
    ("net.codec_us_per_req", "us"),
    ("net.frames_per_write", "count"),
    ("cluster.fanout_per_read", "count"),
    ("cluster.bytes_moved_per_read", "B"),
    ("cluster.overhead_ms", "ms"),
    ("self.core_ms", "ms"),
    ("self.gpu_ms", "ms"),
    ("self.storage_ms", "ms"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.dropped_spans", "count"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Causes of the first failures (errors and wrong answers).
    pub causes: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra human-readable lines: workload-specific figures and the
    /// sample counts behind percentiles.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count one failed operation (an error, a refusal, a timeout or a
    /// wrong answer), keeping the first few causes.
    pub fn fail(&mut self, cause: impl Into<String>) {
        self.failed += 1;
        if self.causes.len() < 8 {
            self.causes.push(cause.into());
        }
    }

    /// Print the human-readable lines, then the result object as the last
    /// line of standard output.
    pub fn print(&self, trace: bool) {
        for n in &self.notes {
            println!("note {n}");
        }
        for c in &self.causes {
            println!("failure {c}");
        }
        let error_ratio = crate::util::ratio(self.failed as f64, self.attempted as f64);
        println!(
            "error_ratio {error_ratio:.6} ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        let list = if trace { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::with_capacity(list.len());
        for &(name, unit) in list {
            let value = match self.metrics.get(name) {
                Some(v) => {
                    println!("metric {name} = {v} {unit}");
                    *v
                }
                None if trace => {
                    println!("metric {name} = 0 {unit} (n/a on this workload)");
                    0.0
                }
                None => panic!("workload did not measure end-to-end metric {name}"),
            };
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            fields.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                json_escape(name),
                json_escape(unit)
            ));
        }
        assert!(self.attempted > 0, "no operation was attempted");
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};

    /// The lists here are the ones `BENCHMARK.json` declares, in the same
    /// order and with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let mut at = 0;
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            let pos = json[at..]
                .find(&needle)
                .unwrap_or_else(|| panic!("{name} ({unit}) missing or out of order"));
            at += pos + needle.len();
        }
        assert_eq!(
            json.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }
}

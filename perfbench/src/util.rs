//! Small helpers shared by every workload: a seeded generator, sample
//! percentiles, process memory, provenance, and the scratch directory.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's own seeded generator for query streams, so
/// a seed names the same requests whatever the engine's generators do.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A sorted sample of measurements.
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new(mut v: Vec<f64>) -> Samples {
        v.sort_by(|a, b| a.total_cmp(b));
        Samples(v)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile, `q` in `(0, 1]`; 0 for an empty sample.
    pub fn pct(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let rank = (q * self.0.len() as f64).ceil() as usize;
        self.0[rank.clamp(1, self.0.len()) - 1]
    }

    /// Samples strictly above the `q` percentile.
    pub fn beyond(&self, q: f64) -> usize {
        let p = self.pct(q);
        self.0.iter().filter(|&&x| x > p).count()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// CPU time the hypervisor gave to other guests ("steal"), summed over
/// all CPUs, in clock ticks (1/100 s on Linux). A run with much steal ran
/// on a busy host: its times say more about the host than the engine.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// How many times a run sets its workload up; `setup_s` is the median.
pub const SETUPS: usize = 5;

/// Set the workload up `SETUPS` times and keep the last set-up,
/// returning it with the median set-up time. The earlier set-ups run in
/// child processes of this benchmark (`--setup-only 1`), so their memory
/// never counts in this process's `peak_rss_mb`. In such a child this
/// prints the time and returns `None`.
pub fn setup_median<T>(args: &crate::Args, build: impl FnOnce() -> T) -> Option<(T, f64)> {
    let mut times = Vec::with_capacity(SETUPS);
    if !args.setup_only {
        for _ in 1..SETUPS {
            times.push(child_setup(args));
        }
    }
    let t = Instant::now();
    let state = build();
    let secs = t.elapsed().as_secs_f64();
    if args.setup_only {
        println!("setup_s {secs}");
        return None;
    }
    times.push(secs);
    Some((state, Samples::new(times).pct(0.5)))
}

fn child_setup(args: &crate::Args) -> f64 {
    let exe = std::env::current_exe().expect("path of the benchmark executable");
    let seed = args.seed.to_string();
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &seed,
            "--seconds",
            "1",
        ])
        .args([
            "--trace",
            if args.trace { "1" } else { "0" },
            "--setup-only",
            "1",
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("run a set-up child");
    assert!(out.status.success(), "set-up child failed: {}", out.status);
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("setup_s ")?.trim().parse().ok())
        .expect("set-up child prints its time")
}

/// A scratch directory inside the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(workload: &str) -> WorkDir {
        let dir =
            PathBuf::from(".perfbench_work").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create benchmark scratch directory");
        WorkDir(dir)
    }

    /// A fresh, empty subdirectory.
    pub fn sub(&self, name: &str) -> PathBuf {
        let p = self.0.join(name);
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).expect("create benchmark subdirectory");
        p
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind when no other run shares it.
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over every engine source file (paths and contents, in sorted
/// order): names the code measured even where the checkout is not a git
/// repository.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x} ({} files)", files.len())
}

/// Where a result came from: seed, machine, toolchain, code, and the
/// engine config fields the workload set.
pub fn provenance(workload: &str, seed: u64, trace: bool, config: &[String]) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    // Only this directory's own repository: git would otherwise report
    // whatever repository encloses a plain checkout.
    let commit = Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "none (not a git checkout)".into());
    let config = config
        .iter()
        .map(|c| format!("\"{}\"", json_escape(c)))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"git_commit\": \"{}\", \"source_digest\": \"{}\", \"config_set\": [{config}]}}",
        json_escape(&cpu),
        json_escape(&rustc),
        json_escape(&commit),
        source_digest(),
    )
}

pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Sum every sample of a Prometheus counter family in `text` whose label
/// set contains `label` (empty: every sample).
pub fn prom_sum(text: &str, family: &str, label: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            l.strip_prefix(family)
                .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        })
        .filter(|l| label.is_empty() || l.contains(label))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

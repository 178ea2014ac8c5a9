//! `ctrbench` — counterlab's end-to-end and per-layer benchmark.
//!
//! ```text
//! ctrbench --workload <null_grid|zoo> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a stamp line, then, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! See `ctrbench/README.md` for what each workload and metric is.

mod layers;
mod local;

use std::process::ExitCode;
use std::sync::Arc;
// countlint: allow(wall-clock-in-core) -- the benchmark harness times counterlab from outside; no measured result reads this clock
use std::time::Instant;

use counterlab::config::MeasurementConfig;
use counterlab::cpu::hash::{seed_combine, splitmix64};
use counterlab::grid::Grid;
use counterlab::measure::Record;
use ctrbench::out::{self, Metric};

/// Which workload a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    NullGrid,
    Zoo,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "null_grid" => Some(Workload::NullGrid),
            "zoo" => Some(Workload::Zoo),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::NullGrid => "null_grid",
            Workload::Zoo => "zoo",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=120).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..=120"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Worker threads for the oracle and the traced run's layer sweeps: one
/// per available CPU. The timed passes use [`local::JOBS`].
pub fn jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One cell of a workload: the grid it belongs to (benchmark, event,
/// repetitions, base seed) and its configuration from `Grid::cells`.
#[derive(Debug, Clone)]
pub struct Cell {
    pub grid: Arc<Grid>,
    pub cfg: MeasurementConfig,
}

impl Cell {
    /// A grid whose only cell is this one, with `base_seed` (what a
    /// countd client sends to ask for exactly this cell).
    pub fn single_grid(&self, base_seed: u64) -> Grid {
        let c = &self.cfg;
        Grid {
            processors: vec![c.processor],
            interfaces: vec![c.interface],
            patterns: vec![c.pattern],
            opt_levels: vec![c.opt_level],
            counter_counts: vec![c.counters],
            tsc_settings: vec![c.tsc_on],
            modes: vec![c.mode],
            event: c.event,
            base_seed,
            fresh_boot: false,
            ..(*self.grid).clone()
        }
    }

    /// This cell's records from a fresh boot per run: the oracle.
    pub fn oracle(&self) -> counterlab::Result<Vec<Record>> {
        let fresh = Grid {
            fresh_boot: true,
            ..(*self.grid).clone()
        };
        fresh.run_cell(&self.cfg)
    }
}

/// A derived seed: stream `tag`, index `i` of workload seed `seed`.
/// Each step is finished through splitmix64: `seed_combine` alone is
/// nearly linear, so neighbouring streams would share values.
pub fn derive(seed: u64, tag: u64, i: u64) -> u64 {
    splitmix64(seed_combine(splitmix64(seed_combine(seed, tag)), i))
}

/// Nanoseconds of `d` as `f64`.
pub fn ns(d: std::time::Duration) -> f64 {
    d.as_nanos() as f64
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Host CPU jiffies as `(steal, total)` from `/proc/stat`: on a virtual
/// machine, time the hypervisor ran someone else on our CPUs.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// CPU time this process has used (user + system, all threads, dead
/// ones included), in seconds, from `/proc/self/stat` at the kernel's
/// 100 Hz `USER_HZ`.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|x| x.parse().ok())
        .collect();
    f.iter().sum::<f64>() / 100.0
}

/// [`calibration_ns`] on the development machine (2-vCPU KVM guest,
/// Xeon): the host speed at which the timed metrics are reported.
const CALIBRATION_REF_NS: f64 = 170_000.0;

/// Times one fixed piece of host work, in ns: 20 000 steps of an
/// xorshift walk with a data-dependent branch over a 2 KiB table. The
/// table stays in L1, so the program cannot slow the walk by what it
/// leaves in the caches, and the walk calls nothing in counterlab: only
/// the host (the core's clock, a busy sibling thread) can move it.
pub fn calibration_ns() -> f64 {
    // countlint: allow(wall-clock-in-core) -- the benchmark harness times counterlab from outside; no measured result reads this clock
    let t = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut table = [0u64; 256];
    for k in 0..20_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x & 255) as usize;
        table[j] = table[j].wrapping_add(x ^ k);
        x = if x & 1 == 0 {
            x.wrapping_mul(3)
        } else {
            x.wrapping_add(table[((x >> 8) & 255) as usize])
        };
    }
    std::hint::black_box((x, &table));
    ns(t.elapsed())
}

/// How much slower than the reference the host ran, from the
/// [`calibration_ns`] samples of a run: the mean of their fastest 98%
/// over [`CALIBRATION_REF_NS`]. The slowest 2% are preemptions; a mean,
/// unlike a median, follows a host that switches between a fast and a
/// slow state in proportion to the time it spends in each, as the
/// program's throughput does.
pub fn slowdown(samples: &mut [f64]) -> f64 {
    ctrbench::stats::sort(samples);
    let kept = &samples[..(samples.len() * 49).div_ceil(50)];
    kept.iter().sum::<f64>() / kept.len() as f64 / CALIBRATION_REF_NS
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Gate failures, printed to stderr; the run is correct when empty.
    pub problems: Vec<String>,
    /// Extra stamp fields (e.g. the latency limit in force).
    pub notes: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn problem(&mut self, p: impl Into<String>) {
        self.problems.push(p.into());
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a digest of the program's sources, so a stamp identifies the
/// code even where the checkout is not a git repository.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in std::fs::read(f).unwrap_or_default() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x} ({} files)", files.len())
}

fn stamp(args: &Args) -> Vec<(&'static str, String)> {
    vec![
        ("workload", args.workload.name().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        (
            "git_rev",
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".to_string()),
        ),
        ("src_digest", source_digest()),
        ("nproc", jobs().to_string()),
        ("jobs", local::JOBS.to_string()),
        (
            "rustc",
            command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
        ),
    ]
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ctrbench: {e}");
            eprintln!(
                "usage: ctrbench --workload <null_grid|zoo> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // countlint: allow(wall-clock-in-core) -- the benchmark harness times counterlab from outside; no measured result reads this clock
    let started = Instant::now();
    let (steal0, total0) = cpu_jiffies();
    let outcome = match local::run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ctrbench: {} failed: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    let mut fields = stamp(&args);
    fields.extend(outcome.notes.iter().cloned());
    fields.push(("wall_s", format!("{:.3}", started.elapsed().as_secs_f64())));
    let (steal1, total1) = cpu_jiffies();
    let steal = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
    fields.push(("host_steal_share", format!("{steal:.4}")));
    println!("{{\"stamp\": {}}}", out::object(&fields));
    for p in &outcome.problems {
        eprintln!("ctrbench: gate: {p}");
    }
    let unmeasured: Vec<&str> = outcome
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.as_str())
        .collect();
    if !unmeasured.is_empty() {
        eprintln!("ctrbench: no value for {}", unmeasured.join(", "));
        return ExitCode::from(1);
    }
    let correct = outcome.problems.is_empty();
    println!(
        "{}",
        out::result_line(
            correct,
            outcome.attempted.max(1),
            outcome.failed,
            &outcome.metrics
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

//! The local workloads, `null_grid` and `zoo`: closed-loop passes over a
//! workload's cells on one thread, alternating
//!
//! * **cold** passes — `Grid::run_cell` per cell on the session path:
//!   boot one session, then run the cell's repetitions (what
//!   `Grid::run_with` and countd do per cell), and
//! * **warm** passes — the same repetitions on sessions booted once at
//!   set-up (reseed/setup/start/read only).
//!
//! A latency sample is one cell's repetitions. Every pass's records are
//! digested and, after the timed phase, compared with the fresh-boot
//! oracle's digest for the same base seed.

use std::sync::{Arc, Mutex, PoisonError};
// countlint: allow(wall-clock-in-core) -- the benchmark harness times counterlab from outside; no measured result reads this clock
use std::time::Instant;

use counterlab::cpu::uarch::Processor;
use counterlab::exec::{self, RunOptions};
use counterlab::experiments::workload;
use counterlab::grid::Grid;
use counterlab::interface::CountingMode;
use counterlab::measure::{MeasurementSession, Record};
use counterlab::pattern::Pattern;
use counterlab::serve::{ServeConfig, Server};
use ctrbench::check::digest_records;
use ctrbench::stats::{self, Reservoir};
use ctrbench::trace::{Span, Tracer, NONE};

use crate::layers::{self, CacheOp, Inputs, ReplayCounts};
use crate::{derive, jobs, ns, peak_rss_mb, Args, Cell, Outcome, Workload};

/// Base seeds the passes cycle through; each has one oracle.
const BASES: usize = 4;
/// Repetitions per cell.
const REPS: usize = 4;
/// Worker threads of the timed passes and set-ups. One: on a host of a
/// few shared CPUs, two or more threads measure the scheduler (who runs
/// next, which CPU the hypervisor takes away) more than the program.
pub const JOBS: usize = 1;
/// Passes between two set-ups of the timed phase. Set-ups are spread
/// over the whole phase, so `setup_s` (their median) sees the same host
/// as the passes do.
const SETUP_EVERY: usize = 4;

/// The fixed per-cell latency limit of `slo_share`, per workload: about
/// 1.25 times the parent commit's unscaled `cold_p99_ms` (see README.md).
fn limit_ms(w: Workload) -> f64 {
    match w {
        Workload::NullGrid => 0.0215,
        Workload::Zoo => 0.46,
    }
}

/// A local workload: its cells under each base seed, plus their oracle.
struct Local {
    workload: Workload,
    /// `cells[b][i]`: cell `i` under base seed `b`.
    cells: Vec<Vec<Cell>>,
    /// `oracle[b][i]`: cell `i`'s fresh-boot records under base `b`.
    oracle: Vec<Vec<Vec<Record>>>,
    /// Digest of each base's oracle records, in cell order.
    oracle_digest: Vec<u64>,
}

fn build_cells(workload: Workload, seed: u64) -> Vec<Vec<Cell>> {
    (0..BASES as u64)
        .map(|b| {
            let base_seed = derive(seed, 1, b);
            match workload {
                Workload::NullGrid => {
                    let grid = Arc::new(Grid {
                        base_seed,
                        ..Grid::full_null(REPS)
                    });
                    grid.cells()
                        .map(|cfg| Cell {
                            grid: Arc::clone(&grid),
                            cfg,
                        })
                        .collect()
                }
                _ => workload::cells()
                    .into_iter()
                    .map(|(bench, event, interface)| {
                        let grid = Arc::new(Grid {
                            processors: vec![Processor::AthlonK8],
                            interfaces: vec![interface],
                            patterns: vec![Pattern::StartRead],
                            modes: vec![CountingMode::User],
                            event,
                            reps: REPS,
                            base_seed,
                            ..Grid::new(bench)
                        });
                        let cfg = grid.cells().next().expect("a one-cell grid has its cell");
                        Cell { grid, cfg }
                    })
                    .collect(),
            }
        })
        .collect()
}

impl Local {
    fn new(workload: Workload, seed: u64) -> Result<Self, String> {
        let cells = build_cells(workload, seed);
        let opts = RunOptions::with_jobs(jobs());
        let mut oracle = Vec::with_capacity(BASES);
        let mut oracle_digest = Vec::with_capacity(BASES);
        for base in &cells {
            let records = exec::run_indexed(base.len(), &opts, |i| base[i].oracle())
                .map_err(|e| e.to_string())?;
            oracle_digest.push(digest_records(records.iter().flatten()));
            oracle.push(records);
        }
        Ok(Local {
            workload,
            cells,
            oracle,
            oracle_digest,
        })
    }

    fn len(&self) -> usize {
        self.cells[0].len()
    }

    /// The program's set-up: boot one resident session per cell.
    fn boot_sessions(&self, seed: u64) -> Result<Vec<Mutex<MeasurementSession>>, String> {
        exec::run_indexed(self.len(), &RunOptions::with_jobs(JOBS), |i| {
            let cell = &self.cells[0][i];
            let cfg = cell.cfg.with_seed(derive(seed, 2, i as u64));
            MeasurementSession::new(&cfg, cell.grid.benchmark).map(Mutex::new)
        })
        .map_err(|e| e.to_string())
    }
}

/// Time slices of the timed phase; each latency percentile is the
/// middle-half mean of its per-window values (`stats::windowed`).
const WINDOWS: usize = 30;

/// Latency samples kept per class and window.
const KEEP: usize = 4096;

/// One time slice's samples.
struct Window {
    /// Per-cell latency samples, ns: `[warm, cold]`.
    lat: [Reservoir; 2],
    records: u64,
    cpu_s: f64,
}

/// What the timed passes produced.
#[derive(Default)]
struct Passes {
    windows: Vec<Window>,
    attempted: u64,
    failed: u64,
    within_limit: u64,
    /// `(base, digest)` of every successful pass.
    digests: Vec<(usize, u64)>,
    /// The error of every failed pass.
    errors: Vec<String>,
    /// Gaps between one pass's end and the next one's start.
    gaps: Vec<(u64, u64)>,
    /// Seconds of each set-up made between passes.
    setups: Vec<f64>,
    /// Wall time of every completed pass, ns.
    pass_ns: Vec<f64>,
    /// [`crate::calibration_ns`] before every pass.
    calibration_ns: Vec<f64>,
}

/// Runs alternating cold and warm passes until `seconds` have passed,
/// re-booting `sessions` (timed, as a set-up) every `SETUP_EVERY`
/// passes.
fn run_passes(
    w: &Local,
    sessions: &mut Vec<Mutex<MeasurementSession>>,
    seed: u64,
    seconds: f64,
    // countlint: allow(wall-clock-in-core) -- the benchmark harness times counterlab from outside; no measured result reads this clock
    epoch: Instant,
) -> Result<Passes, String> {
    let opts = RunOptions::with_jobs(JOBS);
    let limit_ns = limit_ms(w.workload) * 1e6;
    let mut p = Passes {
        windows: (0..WINDOWS as u64)
            .map(|i| Window {
                lat: [Reservoir::new(KEEP, 2 * i), Reservoir::new(KEEP, 2 * i + 1)],
                records: 0,
                cpu_s: 0.0,
            })
            .collect(),
        ..Passes::default()
    };
    // countlint: allow(wall-clock-in-core) -- the benchmark harness times counterlab from outside; no measured result reads this clock
    let start = Instant::now();
    let mut last_end: Option<u64> = None;
    let mut pass = 0usize;
    // countlint: allow(wall-clock-in-core) -- the benchmark harness times counterlab from outside; no measured result reads this clock
    let since = |t: Instant| u64::try_from(t.duration_since(epoch).as_nanos()).unwrap_or(0);
    while start.elapsed().as_secs_f64() < seconds {
        // The gap since the last pass is the loop's own work; set-ups
        // and the host calibration below are not counted in it.
        if let Some(end) = last_end {
            // countlint: allow(wall-clock-in-core) -- the benchmark harness times counterlab from outside; no measured result reads this clock
            p.gaps.push((end, since(Instant::now())));
        }
        if pass % SETUP_EVERY == SETUP_EVERY - 1 {
            drop(std::mem::take(sessions));
            // countlint: allow(wall-clock-in-core) -- the benchmark harness times counterlab from outside; no measured result reads this clock
            let t = Instant::now();
            *sessions = w.boot_sessions(seed)?;
            p.setups.push(t.elapsed().as_secs_f64());
        }
        p.calibration_ns.push(crate::calibration_ns());
        let cold = pass.is_multiple_of(2);
        let base = (pass / 2) % BASES;
        let cells = &w.cells[base];
        let oracle = &w.oracle[base];
        // countlint: allow(wall-clock-in-core) -- the benchmark harness times counterlab from outside; no measured result reads this clock
        let t0 = Instant::now();
        let window = ((t0 - start).as_secs_f64() / seconds * WINDOWS as f64) as usize;
        let cpu0 = crate::process_cpu_s();
        let result = exec::run_indexed(cells.len(), &opts, |i| {
            // countlint: allow(wall-clock-in-core) -- the benchmark harness times counterlab from outside; no measured result reads this clock
            let t = Instant::now();
            let records = if cold {
                cells[i].grid.run_cell(&cells[i].cfg)?
            } else {
                let mut s = sessions[i].lock().unwrap_or_else(PoisonError::into_inner);
                oracle[i]
                    .iter()
                    .map(|r| s.run(r.config.seed))
                    .collect::<counterlab::Result<Vec<Record>>>()?
            };
            Ok((records, t.elapsed()))
        });
        // countlint: allow(wall-clock-in-core) -- the benchmark harness times counterlab from outside; no measured result reads this clock
        let t1 = Instant::now();
        let cpu = crate::process_cpu_s() - cpu0;
        last_end = Some(since(t1));
        p.attempted += cells.len() as u64;
        let items = match result {
            Ok(items) => items,
            Err(e) => {
                p.failed += cells.len() as u64;
                p.errors.push(e.to_string());
                pass += 1;
                continue;
            }
        };
        let wall = ns(t1 - t0);
        let n = items.iter().map(|(r, _)| r.len() as u64).sum::<u64>();
        let win = &mut p.windows[window.min(WINDOWS - 1)];
        p.pass_ns.push(wall);
        win.cpu_s += cpu;
        win.records += n;
        let lat = &mut win.lat[usize::from(cold)];
        for (_, d) in &items {
            let v = ns(*d);
            lat.push(v);
            if v <= limit_ns {
                p.within_limit += 1;
            }
        }
        p.digests
            .push((base, digest_records(items.iter().flat_map(|(r, _)| r))));
        pass += 1;
    }
    Ok(p)
}

/// The correctness gate: every pass completed, and its records' digest
/// equals the fresh-boot oracle's.
fn check_passes(w: &Local, p: &Passes, out: &mut Outcome) {
    if let Some(first) = p.errors.first() {
        out.problem(format!(
            "{} passes failed ({} cells); the first: {first}",
            p.errors.len(),
            p.failed
        ));
    }
    let bad = p
        .digests
        .iter()
        .filter(|(b, d)| *d != w.oracle_digest[*b])
        .count();
    if bad > 0 {
        out.problem(format!(
            "{bad} of {} passes differ from the fresh-boot oracle digest",
            p.digests.len()
        ));
    }
    if p.digests.is_empty() {
        out.problem("no pass completed");
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let w = Local::new(args.workload, args.seed)?;
    let mut out = Outcome::default();
    out.notes.push(("cells", w.len().to_string()));
    out.notes.push(("reps", REPS.to_string()));
    out.notes
        .push(("slo_limit_ms", limit_ms(args.workload).to_string()));

    // countlint: allow(wall-clock-in-core) -- the benchmark harness times counterlab from outside; no measured result reads this clock
    let t = Instant::now();
    let mut sessions = w.boot_sessions(args.seed)?;
    let first_setup = t.elapsed().as_secs_f64();
    // countlint: allow(wall-clock-in-core) -- the benchmark harness times counterlab from outside; no measured result reads this clock
    let epoch = Instant::now();
    if !args.trace {
        let mut p = run_passes(&w, &mut sessions, args.seed, args.seconds as f64, epoch)?;
        check_passes(&w, &p, &mut out);
        out.attempted = p.attempted;
        out.failed = p.failed;
        p.setups.push(first_setup);
        out.notes.push(("setups", p.setups.len().to_string()));
        // Every timed figure is reported at the reference host speed: a
        // time is divided by how much slower than the reference the host
        // ran the calibration during this run, a rate multiplied.
        // On a shared host whose speed drifts from minute to minute, this
        // takes the part of the drift the core's speed explains out of
        // the figures.
        let slowdown = crate::slowdown(&mut p.calibration_ns);
        out.notes.push(("host_slowdown", format!("{slowdown:.4}")));
        let mut unscaled = Vec::new();
        let setup = stats::median(&mut p.setups);
        unscaled.push(format!("setup_s={setup}"));
        out.metric("setup_s", setup / slowdown, "s");
        let records: u64 = p.windows.iter().map(|w| w.records).sum();
        let rate = records as f64 / (p.pass_ns.iter().sum::<f64>() / 1e9);
        unscaled.push(format!("runs_per_s={rate}"));
        out.metric("runs_per_s", rate * slowdown, "1/s");
        // Per CPU-second of this process (hypervisor steal excluded), as
        // a diagnostic beside the wall-clock figure.
        let mut cpu_rates: Vec<f64> = p
            .windows
            .iter()
            .map(|w| w.records as f64 / w.cpu_s)
            .collect();
        out.notes
            .push(("runs_per_cpu_s", stats::median(&mut cpu_rates).to_string()));
        for (c, class) in ["warm", "cold"].into_iter().enumerate() {
            let fewest = p.windows.iter().map(|w| w.lat[c].seen()).min().unwrap_or(0);
            let mut windows: Vec<Vec<f64>> = p
                .windows
                .iter()
                .map(|w| w.lat[c].clone().into_samples())
                .collect();
            out.notes.push((
                class,
                format!("{fewest} samples in the smallest of {WINDOWS} windows"),
            ));
            for (q, label) in [(50.0, "p50"), (99.0, "p99")] {
                let value = stats::windowed(&mut windows, q).ok_or_else(|| {
                    format!("{class}: {fewest} samples per window cannot give {label}")
                })?;
                unscaled.push(format!("{class}_{label}_ms={}", value / 1e6));
                out.metric(format!("{class}_{label}_ms"), value / 1e6 / slowdown, "ms");
            }
        }
        out.notes.push(("unscaled", unscaled.join(" ")));
        out.metric(
            "slo_share",
            p.within_limit as f64 / p.attempted.max(1) as f64,
            "share",
        );
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
        return Ok(out);
    }

    // Traced run: the untraced passes for half the time (their gaps are
    // the loop's own lateness), a replay quarter (or span budget), then
    // the layer sweeps over this workload's inputs.
    let quarter = args.seconds as f64 / 4.0;
    let mut tr = Tracer::new(epoch);
    let p = run_passes(&w, &mut sessions, args.seed, 2.0 * quarter, epoch)?;
    check_passes(&w, &p, &mut out);
    out.attempted = p.attempted;
    out.failed = p.failed;
    for &(a, b) in &p.gaps {
        tr.push(Span {
            name: "loadgen.late",
            start: a,
            end: b.max(a),
            parent: NONE,
            req: 0,
        });
    }
    drop(sessions);

    // Each replay pass runs twice, with spans recorded and with a tracer
    // that records nothing, in alternating order; the tracing overhead is
    // the median ratio of the two times.
    let mut counts = ReplayCounts::default();
    let mut ratios = Vec::new();
    // countlint: allow(wall-clock-in-core) -- the benchmark harness times counterlab from outside; no measured result reads this clock
    let started = Instant::now();
    let mut pass = 0usize;
    while pass < 2 || (started.elapsed().as_secs_f64() < quarter && tr.spans().len() < 400_000) {
        let base = pass % BASES;
        let mut times = [0.0; 2];
        for on in [pass.is_multiple_of(2), !pass.is_multiple_of(2)] {
            let mut off = Tracer::off(epoch);
            let tracer = if on { &mut tr } else { &mut off };
            // countlint: allow(wall-clock-in-core) -- the benchmark harness times counterlab from outside; no measured result reads this clock
            let t = Instant::now();
            let c = layers::replay_pass(&w.cells[base], &w.oracle[base], tracer, pass as u64)?;
            times[usize::from(on)] = ns(t.elapsed());
            if on {
                counts.add(c);
            }
            out.attempted += w.len() as u64;
        }
        ratios.push(times[1] / times[0]);
        pass += 1;
    }
    out.notes.push(("replay_passes", pass.to_string()));

    let request_grids: Vec<Grid> = match args.workload {
        Workload::NullGrid => vec![(*w.cells[0][0].grid).clone()],
        _ => w.cells[0].iter().map(|c| (*c.grid).clone()).collect(),
    };
    let inputs = Inputs {
        seed: args.seed,
        cells: &w.cells[0],
        records: &w.oracle[0],
        request_grids: &request_grids,
    };
    layers::sweep(&inputs, &mut tr)?;

    // The cache stream countd would see serving these cells: every cell
    // under every base seed (padded with fresh keys to past the cap),
    // then warm gets of resident keys and cold get-miss/put pairs.
    let mut prefill = Vec::new();
    for (b, base) in w.cells.iter().enumerate() {
        for (c, cell) in base.iter().enumerate() {
            let key = counterlab::wire::cell_key(
                &cell.cfg,
                cell.grid.benchmark,
                REPS,
                cell.grid.base_seed,
                false,
            );
            let payload: String = w.oracle[b][c]
                .iter()
                .map(counterlab::wire::encode_record)
                .collect();
            prefill.push((key, Arc::new(payload)));
        }
    }
    let cap = counterlab::serve::CacheConfig::default().max_entries;
    let mut j = 0u64;
    while prefill.len() < cap + 256 {
        let payload = Arc::clone(&prefill[j as usize % w.len()].1);
        prefill.push((derive(args.seed, 20, j), payload));
        j += 1;
    }
    let mut ops = Vec::new();
    for k in 0..2000u64 {
        if k % 2 == 0 {
            ops.push(CacheOp::Get(
                prefill[prefill.len() - 1 - (k as usize / 2) % 64].0,
            ));
        } else {
            let key = derive(args.seed, 21, k);
            ops.push(CacheOp::Get(key));
            ops.push(CacheOp::Put(
                key,
                Arc::clone(&prefill[k as usize % w.len()].1),
            ));
        }
    }
    layers::cache_replay(&prefill, &ops, &mut tr);

    // The socket layer: serve a sample of these cells cold, then warm.
    let mut server = Server::spawn(ServeConfig {
        workers: jobs(),
        ..ServeConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let grids: Vec<Grid> = layers::sample(&w.cells[0], 120)
        .into_iter()
        .enumerate()
        .map(|(i, c)| c.single_grid(derive(args.seed, 22, i as u64)))
        .collect();
    let ratio = layers::socket_sweep(server.addr(), &grids, &mut tr);
    let pinged = layers::ping_sweep(server.addr(), 200, &mut tr);
    server.stop();
    let ratio = ratio?;
    pinged.map_err(|e| e.to_string())?;

    layers::report(&tr, counts, ratio, &mut out);
    out.metric(
        "trace.overhead_share",
        stats::median(&mut ratios) - 1.0,
        "share",
    );
    let path = layers::write_spans(&tr, args.workload.name()).map_err(|e| e.to_string())?;
    out.notes
        .push(("spans", format!("{path} ({} spans)", tr.spans().len())));
    Ok(out)
}

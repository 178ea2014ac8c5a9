//! The traced run's layer sweeps. Every sweep records spans from the
//! benchmark's side of each call into a layer; per-layer metrics are
//! interquartile means (the mean of the middle half) of span self
//! times, divided by the calls a span covers where a single call is too
//! short to time on its own.
//!
//! Each workload feeds the sweeps its own inputs: its cells, their
//! oracle records, the grids its requests carry and its cache key
//! stream. Layers a workload's untraced path bypasses are still swept
//! over that workload's inputs, so every traced run reports every
//! per-layer metric; `README.md` maps which of them lie on which
//! workload's path.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::Duration;

use counterlab::benchmark::Benchmark;
use counterlab::cpu::machine::{Machine, Privilege};
use counterlab::cpu::mix::InstMix;
use counterlab::exec::{self, Priority, PriorityPool, RunOptions};
use counterlab::grid::Grid;
use counterlab::interface::{AnyInterface, Interface};
use counterlab::kernel::config::KernelConfig;
use counterlab::kernel::system::System;
use counterlab::measure::{self, MeasurementSession, Record};
use counterlab::pattern::Pattern;
use counterlab::serve::{CacheConfig, CellCache};
use counterlab::wire::{self, GridMeta};
use ctrbench::check::first_difference;
use ctrbench::stats;
use ctrbench::trace::{self, Span, SpanId, Tracer, NONE};

use crate::{derive, jobs, Cell, Outcome};

/// `measure.rs`'s interface-seed offset (private there). The replay's
/// record-equality check fails loudly if the two ever drift apart.
const INTERFACE_SEED_XOR: u64 = 0x5EED;

/// Calls per span for the sub-microsecond layer entry points.
const MIX_BATCH: u64 = 64;
const LOOP_BATCH: u64 = 16;
const RDPMC_BATCH: u64 = 256;
const SYSCALL_BATCH: u64 = 16;
const RESEED_BATCH: u64 = 16;
const KEY_BATCH: u64 = 16;
const ENCODE_BATCH: u64 = 16;

/// Interface call sites the replay spans, in table order.
const IFACE_OPS: [&str; 7] = [
    "boot",
    "reseed",
    "setup",
    "reset",
    "start",
    "read",
    "stop_read",
];
const BOOT: usize = 0;
const RESEED: usize = 1;
const SETUP: usize = 2;
const RESET: usize = 3;
const START: usize = 4;
const READ: usize = 5;
const STOP_READ: usize = 6;

/// Span names built once (`&'static` so spans stay `Copy`).
pub struct Names {
    iface: Vec<[&'static str; 7]>,
    run: Vec<&'static str>,
    bench: Vec<&'static str>,
}

fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// The zoo kernels, in `Benchmark::zoo` order (null first).
pub fn kernels() -> [Benchmark; 8] {
    Benchmark::zoo(counterlab::experiments::workload::WorkloadAccuracy::ITERS)
}

pub fn names() -> &'static Names {
    static NAMES: OnceLock<Names> = OnceLock::new();
    NAMES.get_or_init(|| Names {
        iface: Interface::ALL
            .iter()
            .map(|i| IFACE_OPS.map(|op| leak(format!("interface.{}.{op}", i.code()))))
            .collect(),
        run: kernels()
            .iter()
            .map(|k| leak(format!("measure.run.{}", k.name())))
            .collect(),
        bench: kernels()
            .iter()
            .map(|k| leak(format!("bench.run.{}", k.name())))
            .collect(),
    })
}

fn iface_index(i: Interface) -> usize {
    Interface::ALL
        .iter()
        .position(|x| *x == i)
        .expect("Interface::ALL lists every interface")
}

fn kernel_index(b: &Benchmark) -> usize {
    kernels()
        .iter()
        .position(|k| k.name() == b.name())
        .expect("every benchmark kind is in the zoo")
}

/// Kernel counters the replay reads off the simulated system.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayCounts {
    pub runs: u64,
    pub syscalls: u64,
    pub ticks: u64,
}

impl ReplayCounts {
    pub fn add(&mut self, o: ReplayCounts) {
        self.runs += o.runs;
        self.syscalls += o.syscalls;
        self.ticks += o.ticks;
    }
}

/// Replays one cell's repetitions call by call through `AnyInterface`
/// (boot, then reseed/setup/reset/start, `Benchmark::run`, read per
/// repetition) and checks every record equals `expected`, the
/// session/oracle record of the same repetition.
pub fn replay_cell(
    cell: &Cell,
    expected: &[Record],
    tr: &mut Tracer,
    parent: SpanId,
    req: u64,
) -> Result<ReplayCounts, String> {
    let names = names();
    let cfg = cell.cfg;
    let bench = cell.grid.benchmark;
    let ops = &names.iface[iface_index(cfg.interface)];
    let run_name = names.run[kernel_index(&bench)];
    let bench_name = names.bench[kernel_index(&bench)];
    let first = expected.first().ok_or("cell has no records")?.config.seed;
    let mut kernel = KernelConfig::default().with_hz(cfg.hz).with_seed(first);
    let err = |e: counterlab::CoreError| e.to_string();

    let s = tr.open(ops[BOOT], parent, req);
    let mut api = AnyInterface::boot(
        cfg.interface,
        cfg.processor,
        kernel.clone(),
        cfg.tsc_on,
        first ^ INTERFACE_SEED_XOR,
    )
    .map_err(err)?;
    tr.close(s);
    let events = measure::event_selection(cfg.event, cfg.counters);
    let placement = measure::placement_for(&cfg, &bench);
    let mut counts = ReplayCounts::default();
    for (rep, want) in expected.iter().enumerate() {
        let seed = want.config.seed;
        let run = tr.open(run_name, parent, req);
        if rep > 0 {
            kernel.seed = seed;
            let s = tr.open(ops[RESEED], run, req);
            api.reseed(&kernel, cfg.tsc_on, seed ^ INTERFACE_SEED_XOR)
                .map_err(err)?;
            tr.close(s);
        }
        let (sys0, tick0) = (api.system().syscall_count(), api.system().ticks_delivered());
        let s = tr.open(ops[SETUP], run, req);
        api.setup(&events, cfg.mode).map_err(err)?;
        tr.close(s);
        let call = |tr: &mut Tracer, op: usize, api: &mut AnyInterface| -> Result<u64, String> {
            let s = tr.open(ops[op], run, req);
            let v = match op {
                RESET => api.reset().map(|()| 0),
                START => api.start().map(|()| 0),
                READ => api.read(),
                _ => api.stop_read(),
            }
            .map_err(err)?;
            tr.close(s);
            Ok(v)
        };
        let body = |tr: &mut Tracer, api: &mut AnyInterface| {
            let s = tr.open(bench_name, run, req);
            bench.run(api.system_mut(), placement);
            tr.close(s);
        };
        let measured = match cfg.pattern {
            Pattern::StartRead | Pattern::StartStop => {
                call(tr, RESET, &mut api)?;
                call(tr, START, &mut api)?;
                body(tr, &mut api);
                let last = if cfg.pattern == Pattern::StartRead {
                    READ
                } else {
                    STOP_READ
                };
                call(tr, last, &mut api)?
            }
            Pattern::ReadRead | Pattern::ReadStop => {
                call(tr, START, &mut api)?;
                let c0 = call(tr, READ, &mut api)?;
                body(tr, &mut api);
                let last = if cfg.pattern == Pattern::ReadRead {
                    READ
                } else {
                    STOP_READ
                };
                let c1 = call(tr, last, &mut api)?;
                c1.checked_sub(c0)
                    .ok_or("counter went backwards in replay")?
            }
        };
        tr.close(run);
        counts.runs += 1;
        counts.syscalls += api.system().syscall_count() - sys0;
        counts.ticks += api.system().ticks_delivered() - tick0;
        let config = counterlab::config::MeasurementConfig { seed, ..cfg };
        let got = Record {
            config,
            benchmark: bench,
            measured,
            expected: measure::expected_count(&config, &bench),
        };
        if got != *want {
            return Err(format!(
                "replay of {} rep {rep} gave {got:?}, session gave {want:?}",
                cfg.label()
            ));
        }
    }
    Ok(counts)
}

/// One parallel replay pass over `cells` (cell `i`'s records are
/// `records[i]`), its item spans absorbed under an `exec.pass` span.
pub fn replay_pass(
    cells: &[Cell],
    records: &[Vec<Record>],
    tr: &mut Tracer,
    req: u64,
) -> Result<ReplayCounts, String> {
    let pass = tr.open("exec.pass", NONE, req);
    let items = exec::run_indexed(cells.len(), &RunOptions::with_jobs(jobs()), |i| {
        let mut t = tr.child();
        let item = t.open("exec.item", NONE, req);
        let counts = replay_cell(&cells[i], &records[i], &mut t, item, req)
            .map_err(counterlab::CoreError::InvalidConfig)?;
        t.close(item);
        Ok((t, counts))
    })
    .map_err(|e| e.to_string())?;
    tr.close(pass);
    let mut total = ReplayCounts::default();
    for (t, c) in items {
        tr.absorb(t, pass);
        total.add(c);
    }
    Ok(total)
}

/// A cache operation of a workload's key stream.
#[derive(Debug, Clone)]
pub enum CacheOp {
    Get(u64),
    Put(u64, Arc<String>),
}

/// Replays `prefill` (puts) then `ops` against a standalone
/// `CellCache` with the default (countd) configuration.
pub fn cache_replay(prefill: &[(u64, Arc<String>)], ops: &[CacheOp], tr: &mut Tracer) {
    let config = CacheConfig::default();
    let cap = config.max_entries;
    let cache = CellCache::new(config).expect("a memory-only cache cannot fail to build");
    let put = |tr: &mut Tracer, key: u64, payload: &Arc<String>| {
        let name = if cache.mem_entries() >= cap {
            "serve.cache_put_evict"
        } else {
            "serve.cache_put"
        };
        let s = tr.open(name, NONE, key);
        cache.put(key, Arc::clone(payload));
        tr.close(s);
    };
    for (key, payload) in prefill {
        put(tr, *key, payload);
    }
    for op in ops {
        match op {
            CacheOp::Put(key, payload) => put(tr, *key, payload),
            CacheOp::Get(key) => {
                let start = tr.now();
                let hit = black_box(cache.get(*key)).is_some();
                tr.push(Span {
                    name: if hit {
                        "serve.cache_get_hit"
                    } else {
                        "serve.cache_get_miss"
                    },
                    start,
                    end: tr.now(),
                    parent: NONE,
                    req: *key,
                });
            }
        }
    }
}

/// A grid request over a fresh connection, each client phase a span:
/// `serve.connect`, `serve.write`, `serve.ttfb` (until the response
/// header is parsed) and `serve.body`, under a root span `name`.
/// Returns the server's metadata and the raw body.
pub fn traced_request(
    addr: SocketAddr,
    grid: &Grid,
    tr: &mut Tracer,
    name: &'static str,
    req: u64,
) -> counterlab::Result<(GridMeta, String)> {
    let io = |e: std::io::Error| counterlab::CoreError::Serve(e.to_string());
    let root = tr.open(name, NONE, req);
    let s = tr.open("serve.connect", root, req);
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10)).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(io)?;
    stream
        .set_write_timeout(Some(Duration::from_secs(10)))
        .map_err(io)?;
    tr.close(s);
    let s = tr.open("serve.write", root, req);
    let mut writer = BufWriter::new(stream.try_clone().map_err(io)?);
    wire::write_grid_request(&mut writer, grid, Priority::Interactive).map_err(io)?;
    writer.flush().map_err(io)?;
    tr.close(s);
    let s = tr.open("serve.ttfb", root, req);
    let mut reader = BufReader::new(stream);
    let head = wire::read_response_head(&mut reader)?;
    tr.close(s);
    let meta = head.grid_meta()?;
    let s = tr.open("serve.body", root, req);
    let mut body = String::new();
    let mut lines = 0;
    loop {
        let at = body.len();
        if reader.read_line(&mut body).map_err(io)? == 0 {
            return Err(counterlab::CoreError::Protocol(
                "body ended early".to_string(),
            ));
        }
        if &body[at..] == ".\n" {
            body.truncate(at);
            break;
        }
        lines += 1;
    }
    tr.close(s);
    tr.close(root);
    if lines != meta.records {
        return Err(counterlab::CoreError::Protocol(format!(
            "{lines} body lines, header promised {}",
            meta.records
        )));
    }
    Ok((meta, body))
}

/// `PING` round trips as `serve.ping` spans.
pub fn ping_sweep(addr: SocketAddr, n: u64, tr: &mut Tracer) -> counterlab::Result<()> {
    let io = |e: std::io::Error| counterlab::CoreError::Serve(e.to_string());
    for i in 0..n {
        let s = tr.open("serve.ping", NONE, i);
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10)).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(io)?;
        let mut writer = BufWriter::new(stream.try_clone().map_err(io)?);
        wire::write_plain_request(&mut writer, "PING").map_err(io)?;
        writer.flush().map_err(io)?;
        let head = wire::read_response_head(&mut BufReader::new(stream))?;
        tr.close(s);
        if head.kind != "pong" {
            return Err(counterlab::CoreError::Protocol(format!(
                "PING answered {}",
                head.kind
            )));
        }
    }
    Ok(())
}

/// Requests each of `grids` cold (fresh cells), then again warm, as
/// traced requests against `addr`; checks both bodies are byte-identical
/// to the local `wire::encode_record` of `Grid::run`'s records and
/// returns `(warm, cold)` hit/cell totals from the headers.
pub fn socket_sweep(
    addr: SocketAddr,
    grids: &[Grid],
    tr: &mut Tracer,
) -> Result<[(u64, u64); 2], String> {
    let mut bodies = Vec::with_capacity(grids.len());
    let mut ratio = [(0u64, 0u64); 2];
    for (i, g) in grids.iter().enumerate() {
        let (meta, body) = traced_request(addr, g, tr, "serve.request.cold", i as u64)
            .map_err(|e| e.to_string())?;
        ratio[1].0 += meta.hits as u64;
        ratio[1].1 += meta.cells as u64;
        bodies.push(body);
    }
    for (i, g) in grids.iter().enumerate() {
        let (meta, body) = traced_request(addr, g, tr, "serve.request.warm", i as u64)
            .map_err(|e| e.to_string())?;
        ratio[0].0 += meta.hits as u64;
        ratio[0].1 += meta.cells as u64;
        bodies.push(body);
    }
    for (i, body) in bodies.iter().enumerate() {
        let g = &grids[i % grids.len()];
        let local: String = g
            .run()
            .map_err(|e| e.to_string())?
            .iter()
            .map(wire::encode_record)
            .collect();
        if let Some(at) = first_difference(local.as_bytes(), body.as_bytes()) {
            let class = if i < grids.len() { "cold" } else { "warm" };
            return Err(format!(
                "{class} body of grid {} differs from the local encoding at byte {at}",
                i % grids.len()
            ));
        }
    }
    Ok(ratio)
}

/// The workload's inputs to the sweeps that every traced run makes.
pub struct Inputs<'a> {
    pub seed: u64,
    pub cells: &'a [Cell],
    /// Oracle records of `cells`, per cell.
    pub records: &'a [Vec<Record>],
    /// Grids the workload's requests carry (request parsing cost).
    pub request_grids: &'a [Grid],
}

/// Up to `n` cells spread evenly over the workload.
pub fn sample<T>(items: &[T], n: usize) -> Vec<&T> {
    let step = items.len().div_ceil(n.max(1)).max(1);
    items.iter().step_by(step).collect()
}

/// cpu, kernel, measure, exec, grid and wire sweeps over `inp`.
pub fn sweep(inp: &Inputs<'_>, tr: &mut Tracer) -> Result<(), String> {
    let err = |e: counterlab::CoreError| e.to_string();
    let processors: BTreeSet<_> = inp.cells.iter().map(|c| c.cfg.processor).collect();

    // cpu: the zoo's mixes and loop bodies on the workload's processors.
    let mut mixes: Vec<InstMix> = kernels().iter().filter_map(Benchmark::body).collect();
    let bodies = mixes.clone();
    mixes.extend([
        InstMix::LOOP_PROLOGUE,
        InstMix::straight_line(Benchmark::SYSCALL_USER_COMPUTE),
        InstMix::straight_line(Benchmark::SYSCALL_HANDLER_PRE),
        InstMix::straight_line(Benchmark::SYSCALL_HANDLER_POST),
    ]);
    let placement = measure::placement_for(&inp.cells[0].cfg, &inp.cells[0].grid.benchmark);
    for &p in &processors {
        let mut m = Machine::new(p);
        for round in 0..60u64 {
            let s = tr.open("cpu.execute_mix", NONE, round);
            for j in 0..MIX_BATCH {
                let mix = &mixes[(j as usize) % mixes.len()];
                black_box(m.execute_mix(black_box(mix), Privilege::User));
            }
            tr.close(s);
            let s = tr.open("cpu.execute_loop", NONE, round);
            for j in 0..LOOP_BATCH {
                let body = &bodies[(j as usize) % bodies.len()];
                black_box(m.execute_loop(black_box(body), 512, placement, Privilege::User));
            }
            tr.close(s);
        }
        m.set_privilege(Privilege::Kernel);
        for round in 0..60u64 {
            let s = tr.open("cpu.rdpmc", NONE, round);
            for j in 0..RDPMC_BATCH {
                black_box(m.rdpmc(black_box((j % 2) as usize)).ok());
            }
            tr.close(s);
        }
    }

    // kernel: syscalls and reseeds of standalone systems.
    let pre = InstMix::straight_line(Benchmark::SYSCALL_HANDLER_PRE);
    let post = InstMix::straight_line(Benchmark::SYSCALL_HANDLER_POST);
    for &p in &processors {
        let config = KernelConfig::default().with_seed(derive(inp.seed, 10, 0));
        let mut sys = System::new(p, config.clone());
        for round in 0..60u64 {
            let s = tr.open("kernel.syscall", NONE, round);
            for _ in 0..SYSCALL_BATCH {
                sys.syscall(&pre, |_| Ok(()), &post)
                    .map_err(|e| e.to_string())?;
            }
            tr.close(s);
            let s = tr.open("kernel.reseed", NONE, round);
            for j in 0..RESEED_BATCH {
                sys.reseed(&config.clone().with_seed(derive(
                    inp.seed,
                    11,
                    round * RESEED_BATCH + j,
                )));
            }
            tr.close(s);
        }
    }

    // measure: session boot and one run per kernel, on the workload's
    // cell configurations.
    let picks = sample(inp.cells, 12);
    for (ki, k) in kernels().iter().enumerate() {
        for (ci, cell) in picks.iter().enumerate() {
            let cfg = cell.cfg.with_seed(derive(inp.seed, 12, ci as u64));
            let s = tr.open("measure.session_new", NONE, ki as u64);
            let mut session = MeasurementSession::new(&cfg, *k).map_err(err)?;
            tr.close(s);
            for r in 0..6u64 {
                let s = tr.open(names().run[ki], NONE, ki as u64);
                black_box(session.run(derive(inp.seed, 13, r)).map_err(err)?);
                tr.close(s);
            }
        }
    }

    // exec + grid: run_cell per item at jobs = nproc.
    let epoch = tr.epoch();
    for pass in 0..3u64 {
        let p = tr.open("exec.run_pass", NONE, pass);
        let items = exec::run_indexed(inp.cells.len(), &RunOptions::with_jobs(jobs()), |i| {
            let mut t = Tracer::new(epoch);
            let s = t.open("grid.run_cell", NONE, pass);
            let cell = &inp.cells[i];
            black_box(cell.grid.run_cell(&cell.cfg)?);
            t.close(s);
            Ok(t)
        })
        .map_err(err)?;
        tr.close(p);
        for t in items {
            tr.absorb(t, p);
        }
    }
    let pool = PriorityPool::new(jobs());
    let (tx, rx) = mpsc::channel();
    for (j, cell) in sample(inp.cells, 64).into_iter().enumerate() {
        let submitted = tr.now();
        let cell = cell.clone();
        let tx = tx.clone();
        pool.submit(Priority::Bulk, move || {
            let started = u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let ok = cell.grid.run_cell(&cell.cfg).is_ok();
            let _ = tx.send((j as u64, submitted, started, ok));
        });
    }
    drop(tx);
    for (j, submitted, started, ok) in rx {
        if !ok {
            return Err("run_cell failed on the pool".to_string());
        }
        tr.push(Span {
            name: "exec.pool_wait",
            start: submitted,
            end: started.max(submitted),
            parent: NONE,
            req: j,
        });
    }
    drop(pool);

    // wire.
    for (round, chunk) in inp.cells.chunks(KEY_BATCH as usize).enumerate() {
        if chunk.len() as u64 != KEY_BATCH {
            break;
        }
        let s = tr.open("wire.cell_key", NONE, round as u64);
        for c in chunk {
            black_box(wire::cell_key(
                &c.cfg,
                c.grid.benchmark,
                c.grid.reps,
                c.grid.base_seed,
                false,
            ));
        }
        tr.close(s);
    }
    let flat: Vec<&Record> = inp.records.iter().flatten().collect();
    for (round, chunk) in flat.chunks(ENCODE_BATCH as usize).take(4096).enumerate() {
        if chunk.len() as u64 != ENCODE_BATCH {
            break;
        }
        let s = tr.open("wire.encode_record", NONE, round as u64);
        for r in chunk {
            black_box(wire::encode_record(r));
        }
        tr.close(s);
    }
    for (i, g) in inp.request_grids.iter().enumerate().take(2000) {
        let line = wire::encode_grid(g);
        let s = tr.open("wire.decode_grid", NONE, i as u64);
        black_box(wire::decode_grid(&line).map_err(err)?);
        tr.close(s);
    }
    Ok(())
}

/// Per-layer metrics from the recorded spans, plus the values the
/// sweeps computed directly (`extra`).
pub fn report(tr: &Tracer, counts: ReplayCounts, ratio: [(u64, u64); 2], out: &mut Outcome) {
    let spans = tr.spans();
    let by_name = trace::self_times_by_name(spans);
    let iqm = |name: &str| -> f64 {
        let mut v = by_name.get(name).cloned().unwrap_or_default();
        if v.is_empty() {
            f64::NAN
        } else {
            stats::interquartile_mean(&mut v)
        }
    };
    out.metric(
        "cpu.execute_mix_ns",
        iqm("cpu.execute_mix") / MIX_BATCH as f64,
        "ns",
    );
    out.metric(
        "cpu.execute_loop_ns",
        iqm("cpu.execute_loop") / LOOP_BATCH as f64,
        "ns",
    );
    out.metric("cpu.rdpmc_ns", iqm("cpu.rdpmc") / RDPMC_BATCH as f64, "ns");
    out.metric(
        "kernel.syscall_ns",
        iqm("kernel.syscall") / SYSCALL_BATCH as f64,
        "ns",
    );
    out.metric(
        "kernel.reseed_ns",
        iqm("kernel.reseed") / RESEED_BATCH as f64,
        "ns",
    );
    let runs = counts.runs.max(1) as f64;
    out.metric(
        "kernel.syscalls_per_run",
        counts.syscalls as f64 / runs,
        "count",
    );
    out.metric("kernel.ticks_per_run", counts.ticks as f64 / runs, "count");
    for (i, iface) in Interface::ALL.iter().enumerate() {
        let ops = &names().iface[i];
        let code = iface.code();
        out.metric(
            format!("interface.{code}.boot_us"),
            iqm(ops[BOOT]) / 1e3,
            "us",
        );
        out.metric(
            format!("interface.{code}.reseed_ns"),
            iqm(ops[RESEED]),
            "ns",
        );
        out.metric(format!("interface.{code}.setup_ns"), iqm(ops[SETUP]), "ns");
        out.metric(format!("interface.{code}.start_ns"), iqm(ops[START]), "ns");
        out.metric(format!("interface.{code}.read_ns"), iqm(ops[READ]), "ns");
    }
    out.metric(
        "measure.session_new_us",
        iqm("measure.session_new") / 1e3,
        "us",
    );
    // Per-kernel run time from the measure sweep only (root spans), so
    // the value means the same on every workload.
    for (ki, k) in kernels().iter().enumerate() {
        let mut v: Vec<f64> = spans
            .iter()
            .filter(|s| s.parent == NONE && s.name == names().run[ki])
            .map(|s| (s.end - s.start) as f64)
            .collect();
        let value = if v.is_empty() {
            f64::NAN
        } else {
            stats::interquartile_mean(&mut v)
        };
        out.metric(format!("measure.run_ns.{}", k.name()), value, "ns");
    }
    // syscallheavy's share of the replay's measured-run host time.
    let syscallheavy = names().run[kernel_index(&Benchmark::SyscallHeavy { iters: 1 })];
    let (mut heavy, mut all) = (0u64, 0u64);
    for s in spans
        .iter()
        .filter(|s| s.parent != NONE && s.name.starts_with("measure.run."))
    {
        all += s.end - s.start;
        if s.name == syscallheavy {
            heavy += s.end - s.start;
        }
    }
    out.metric(
        "measure.syscallheavy_share",
        heavy as f64 / all.max(1) as f64,
        "share",
    );
    // exec: busy share and per-item overhead of the run_cell passes.
    let (mut busy, mut wall, mut items) = (0f64, 0f64, 0f64);
    for s in spans {
        if s.name == "exec.run_pass" {
            wall += (s.end - s.start) as f64;
        }
        if s.name == "grid.run_cell"
            && spans
                .get(s.parent as usize)
                .is_some_and(|p| p.name == "exec.run_pass")
        {
            busy += (s.end - s.start) as f64;
            items += 1.0;
        }
    }
    let capacity = wall * jobs() as f64;
    out.metric(
        "exec.item_overhead_ns",
        (capacity - busy) / items.max(1.0),
        "ns",
    );
    out.metric("exec.busy_share", busy / capacity.max(1.0), "share");
    out.metric("exec.pool_wait_us", iqm("exec.pool_wait") / 1e3, "us");
    out.metric("grid.run_cell_us", iqm("grid.run_cell") / 1e3, "us");
    out.metric(
        "wire.cell_key_ns",
        iqm("wire.cell_key") / KEY_BATCH as f64,
        "ns",
    );
    out.metric(
        "wire.encode_record_ns",
        iqm("wire.encode_record") / ENCODE_BATCH as f64,
        "ns",
    );
    out.metric("wire.decode_grid_us", iqm("wire.decode_grid") / 1e3, "us");
    out.metric("serve.cache_get_hit_ns", iqm("serve.cache_get_hit"), "ns");
    out.metric("serve.cache_get_miss_ns", iqm("serve.cache_get_miss"), "ns");
    out.metric("serve.cache_put_ns", iqm("serve.cache_put"), "ns");
    out.metric(
        "serve.cache_put_evict_ns",
        iqm("serve.cache_put_evict"),
        "ns",
    );
    out.metric("serve.connect_us", iqm("serve.connect") / 1e3, "us");
    out.metric("serve.ttfb_us", iqm("serve.ttfb") / 1e3, "us");
    out.metric("serve.body_us", iqm("serve.body") / 1e3, "us");
    out.metric("serve.ping_rtt_us", iqm("serve.ping") / 1e3, "us");
    let share = |(hits, cells): (u64, u64)| hits as f64 / cells.max(1) as f64;
    out.metric("serve.hit_ratio.warm", share(ratio[0]), "share");
    out.metric("serve.hit_ratio.cold", share(ratio[1]), "share");
    let mut late: Vec<f64> = by_name.get("loadgen.late").cloned().unwrap_or_default();
    stats::sort(&mut late);
    let late_p99 = stats::percentile(&late, 99.0)
        .or_else(|| late.last().copied())
        .unwrap_or(f64::NAN);
    out.metric("loadgen.late_p99_ms", late_p99 / 1e6, "ms");
}

/// Writes the spans as TSV under `.bench_out/` in the working
/// directory (the checkout root).
pub fn write_spans(tr: &Tracer, workload: &str) -> std::io::Result<String> {
    std::fs::create_dir_all(".bench_out")?;
    let path = format!(".bench_out/spans-{workload}.tsv");
    tr.write_tsv(BufWriter::new(std::fs::File::create(&path)?))?;
    Ok(path)
}

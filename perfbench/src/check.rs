//! The model-checking workloads: `search-par`, `search-spill` and
//! `gather-live`.  Each pass checks every rigid initial class of every cell
//! through `check_protocol_quotient_with_stats`; every check call is one op,
//! and its verdict and counts are compared with the stored expected values.

use std::time::Instant;

use rr_checker::explore::{check_protocol_quotient_with_stats, ExploreOptions, ExploreReport};
use rr_checker::{StoreKind, StoreStats};
use rr_corda::{InterleavingMode, Protocol};
use rr_core::invariant::{AlignmentInvariant, GatheringInvariant, Invariant, SearchingInvariant};
use rr_core::unified::{protocol_for, Task, UnifiedProtocol};
use rr_core::{AlignProtocol, GatheringProtocol};
use rr_ring::enumerate::enumerate_rigid_configurations;
use rr_ring::Configuration;

use crate::expected::{self, ClassCounts};
use crate::micro;
use crate::probe::{self, Cpu, Io};
use crate::stats::{median, quantile, Outcome, SplitMix};
use crate::trace::Tracer;
use crate::Ctx;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellTask {
    Searching,
    Gathering,
    Alignment,
}

impl CellTask {
    pub fn slug(self) -> &'static str {
        match self {
            CellTask::Searching => "graph-searching",
            CellTask::Gathering => "gathering",
            CellTask::Alignment => "alignment",
        }
    }

    /// The `Task` whose engine runs feed the ring/corda/core loops (Align
    /// is gathering's first phase).
    pub fn engine_task(self) -> Task {
        match self {
            CellTask::Searching => Task::GraphSearching,
            CellTask::Gathering | CellTask::Alignment => Task::Gathering,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub task: CellTask,
    pub n: usize,
    pub k: usize,
    pub mode: InterleavingMode,
}

/// A check workload: its cells and checker configuration.
pub struct CheckWorkload {
    pub cells: Vec<Cell>,
    pub store: StoreKind,
    pub mem_budget: u64,
    /// Whether the expected spilled bytes are part of the correctness gate.
    pub gate_spill: bool,
    /// Whether traced runs also check the cells on the mem store at one
    /// worker and at one worker per core (the checker's worker pool).
    pub worker_scaling: bool,
}

enum CellProtocol {
    Searching(UnifiedProtocol, SearchingInvariant),
    Gathering(GatheringProtocol, GatheringInvariant),
    Alignment(AlignProtocol, AlignmentInvariant),
}

/// One cell after set-up: its classes in this run's (seeded) order, the
/// protocol and invariant, and the checker options.
struct Prepared {
    cell: Cell,
    /// `(index in enumeration order, class)`, shuffled by the seed.
    classes: Vec<(usize, Configuration)>,
    protocol: CellProtocol,
    options: ExploreOptions,
    expected: Vec<ClassCounts>,
}

fn check<P: Protocol + Clone + Send>(
    protocol: &P,
    class: &Configuration,
    invariant: &dyn Invariant,
    options: &ExploreOptions,
) -> Result<(ExploreReport, StoreStats), String> {
    check_protocol_quotient_with_stats(protocol, class, invariant, options)
        .map_err(|e| format!("engine rejected {class}: {e}"))
}

impl Prepared {
    fn check(&self, class: &Configuration) -> Result<(ExploreReport, StoreStats), String> {
        match &self.protocol {
            CellProtocol::Searching(p, inv) => check(p, class, inv, &self.options),
            CellProtocol::Gathering(p, inv) => check(p, class, inv, &self.options),
            CellProtocol::Alignment(p, inv) => check(p, class, inv, &self.options),
        }
    }
}

/// Set-up: class enumeration, protocol and options construction.  Returns
/// the prepared cells and the enumeration time in seconds.
fn prepare(w: &CheckWorkload, store: StoreKind, workers: usize, seed: u64) -> (Vec<Prepared>, f64) {
    let mut rng = SplitMix(seed);
    let mut enumerate_s = 0.0;
    let prepared = w
        .cells
        .iter()
        .map(|&cell| {
            let started = Instant::now();
            let classes = enumerate_rigid_configurations(cell.n, cell.k);
            enumerate_s += started.elapsed().as_secs_f64();
            let mut classes: Vec<(usize, Configuration)> =
                classes.into_iter().enumerate().collect();
            rng.shuffle(&mut classes);
            let protocol = match cell.task {
                CellTask::Searching => CellProtocol::Searching(
                    protocol_for(Task::GraphSearching, cell.n, cell.k)
                        .expect("every benchmark searching cell is feasible"),
                    SearchingInvariant::new(),
                ),
                CellTask::Gathering => {
                    CellProtocol::Gathering(GatheringProtocol::new(), GatheringInvariant::new())
                }
                CellTask::Alignment => {
                    CellProtocol::Alignment(AlignProtocol::new(), AlignmentInvariant::new())
                }
            };
            let options = ExploreOptions::new(cell.mode)
                .with_workers(workers)
                .with_store(store)
                .with_mem_budget(w.mem_budget);
            Prepared {
                cell,
                classes,
                protocol,
                options,
                expected: expected::class_counts(
                    cell.task.slug(),
                    cell.n,
                    cell.k,
                    cell.mode.name(),
                ),
            }
        })
        .collect();
    (prepared, enumerate_s)
}

/// What one pass over every cell measured.
#[derive(Default)]
struct Pass {
    wall_s: f64,
    cpu: Cpu,
    io: Io,
    allocs: u64,
    states: u64,
    edges: u64,
    quotient_states: u64,
    state_bytes: u64,
    peak_resident_bytes: u64,
    spilled_bytes: u64,
    visited_spilled_bytes: u64,
    expand_s: f64,
    merge_s: f64,
    call_s: f64,
}

/// Compares one check call with its stored expectation; `None` when it
/// matches.
fn verdict_failure(
    p: &Prepared,
    index: usize,
    report: &ExploreReport,
    stats: &StoreStats,
    gate_spill: bool,
    ctx: &Ctx,
) -> Option<String> {
    let what = || {
        format!(
            "{} ({},{}) {} class #{index}",
            p.cell.task.slug(),
            p.cell.n,
            p.cell.k,
            p.cell.mode.name()
        )
    };
    if !report.verified() {
        return Some(format!("{}: not verified: {:?}", what(), report.outcome));
    }
    let Some(want) = p.expected.get(index) else {
        return Some(format!("{}: no stored expectation", what()));
    };
    // `--expect-wrong` perturbs the stored count: the gate must catch it.
    let want_states = want.states + u64::from(ctx.expect_wrong);
    let got = (
        report.states as u64,
        report.edges,
        report.quotient_states as u64,
    );
    if got != (want_states, want.edges, want.quotient_states) {
        return Some(format!(
            "{}: (states, edges, quotient_states) = {got:?}, expected {:?}",
            what(),
            (want_states, want.edges, want.quotient_states)
        ));
    }
    if gate_spill && stats.spilled_bytes != want.spilled_bytes {
        return Some(format!(
            "{}: spilled {} bytes, expected {}",
            what(),
            stats.spilled_bytes,
            want.spilled_bytes
        ));
    }
    None
}

/// Checks every class of every cell once.  With the tracer on, each check
/// call is a span and the per-call counters (allocations, `/proc/self/io`)
/// are read around it.
fn run_pass(
    cells: &[Prepared],
    gate_spill: bool,
    ctx: &Ctx,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Pass {
    let traced = tracer.enabled();
    let mut pass = Pass::default();
    let cpu0 = Cpu::now();
    let started = Instant::now();
    for p in cells {
        for (index, class) in &p.classes {
            let span = tracer.enter("check", || {
                format!(
                    "task={} n={} k={} mode={} class={index}",
                    p.cell.task.slug(),
                    p.cell.n,
                    p.cell.k,
                    p.cell.mode.name()
                )
            });
            let (io0, allocs0) = if traced {
                probe::count_allocations(true);
                (Io::now(), probe::allocations())
            } else {
                (Io::default(), 0)
            };
            let call = Instant::now();
            let result = p.check(class);
            let call_s = call.elapsed().as_secs_f64();
            if traced {
                pass.allocs += probe::allocations() - allocs0;
                probe::count_allocations(false);
                let io = Io::now().since(io0);
                pass.io.read_syscalls += io.read_syscalls;
                pass.io.read_bytes += io.read_bytes;
                pass.io.write_bytes += io.write_bytes;
            }
            tracer.exit(span);
            pass.call_s += call_s;
            match result {
                Ok((report, stats)) => {
                    out.op(verdict_failure(p, *index, &report, &stats, gate_spill, ctx));
                    pass.states += report.states as u64;
                    pass.edges += report.edges;
                    pass.quotient_states += report.quotient_states as u64;
                    pass.state_bytes += report.state_bytes;
                    pass.peak_resident_bytes =
                        pass.peak_resident_bytes.max(report.peak_resident_bytes);
                    pass.spilled_bytes += stats.spilled_bytes;
                    pass.visited_spilled_bytes += stats.visited_spilled_bytes;
                    pass.expand_s += stats.expand_nanos as f64 * 1e-9;
                    pass.merge_s += stats.merge_nanos as f64 * 1e-9;
                }
                Err(why) => out.op(Some(why)),
            }
        }
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    pass.cpu = Cpu::now().since(cpu0);
    pass
}

/// Sets up `SETUP_REPS` times and reports the median, keeping the last set.
fn timed_setup(w: &CheckWorkload, ctx: &Ctx) -> (Vec<Prepared>, f64, f64) {
    let mut setup = Vec::new();
    let mut enumerate = Vec::new();
    let mut cells = Vec::new();
    for _ in 0..crate::SETUP_REPS {
        let started = Instant::now();
        let (prepared, enumerate_s) = prepare(w, w.store, 1, ctx.seed);
        setup.push(started.elapsed().as_secs_f64());
        enumerate.push(enumerate_s);
        cells = prepared;
    }
    (cells, median(&setup), median(&enumerate))
}

pub fn run(w: &CheckWorkload, ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (cells, setup_s, enumerate_s) = timed_setup(w, ctx);
    let classes: usize = cells.iter().map(|p| p.classes.len()).sum();
    out.notes.push(format!(
        "cells: {}; {classes} check calls per pass; 1 worker; store {}",
        w.cells
            .iter()
            .map(|c| format!("{}({},{}){}", c.task.slug(), c.n, c.k, c.mode.name()))
            .collect::<Vec<_>>()
            .join(" "),
        w.store
    ));

    if !ctx.trace {
        tracer.set_enabled(false);
        let passes = ctx.repeat_for(ctx.seconds, |_| {
            run_pass(&cells, w.gate_spill, ctx, tracer, &mut out)
        });
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        out.notes.push(format!(
            "wall_s: median of {} passes (min {:.4} s, max {:.4} s)",
            walls.len(),
            quantile(&walls, 0.0),
            quantile(&walls, 1.0)
        ));
        out.put("wall_s", median(&walls), "s");
        out.put("setup_s", setup_s, "s");
        out.put("peak_rss_mib", probe::peak_rss_mib(), "MiB");
        return out;
    }

    // Traced run: untraced and traced passes alternate, so the tracing
    // overhead is measured on the same process state.
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let share = if w.worker_scaling { 0.45 } else { 0.8 };
    ctx.repeat_for(ctx.seconds * share, |i| {
        tracer.set_enabled(i % 2 == 1);
        let pass = run_pass(&cells, w.gate_spill, ctx, tracer, &mut out);
        if i % 2 == 1 {
            traced.push(pass);
        } else {
            plain.push(pass);
        }
    });
    tracer.set_enabled(true);
    if traced.is_empty() {
        traced.push(run_pass(&cells, w.gate_spill, ctx, tracer, &mut out));
    }
    let peak_rss = probe::peak_rss_mib();
    let med = |f: &dyn Fn(&Pass) -> f64, passes: &[Pass]| {
        median(&passes.iter().map(f).collect::<Vec<_>>())
    };
    let last = traced.last().expect("at least one traced pass");
    let wall = med(&|p| p.wall_s, &traced);

    // Worker scaling: the same cells on the mem store at one worker per
    // core and at one worker.
    let (mut speedup, mut expand_ratio) = (0.0, 0.0);
    if w.worker_scaling {
        let mut scaling = |workers: usize, share: f64| {
            let (cells, _) = prepare(w, StoreKind::Mem, workers, ctx.seed);
            let span = tracer.enter("workers", || workers.to_string());
            let passes = ctx.repeat_for(ctx.seconds * share, |_| {
                run_pass(&cells, false, ctx, tracer, &mut out)
            });
            tracer.exit(span);
            let (wall, expand) = (med(&|p| p.wall_s, &passes), med(&|p| p.expand_s, &passes));
            out.notes.push(format!(
                "mem store, {workers} workers: wall {wall:.3} s, expand {expand:.3} s, merge {:.3} s, user {:.3} s, sys {:.3} s ({} passes)",
                med(&|p| p.merge_s, &passes),
                med(&|p| p.cpu.user_s, &passes),
                med(&|p| p.cpu.sys_s, &passes),
                passes.len()
            ));
            (wall, expand)
        };
        let (wall_n, expand_n) = scaling(ctx.nproc, 0.15);
        let (wall_1, expand_1) = scaling(1, 0.1);
        speedup = wall_1 / wall_n;
        expand_ratio = expand_n / expand_1;
    }

    let instances: Vec<(Task, Configuration)> = cells
        .iter()
        .flat_map(|p| {
            p.classes
                .iter()
                .map(|(_, c)| (p.cell.task.engine_task(), c.clone()))
        })
        .collect();
    micro::ring_and_engine(&instances, ctx, tracer, &mut out);
    micro::no_sweep(&mut out);

    out.put("ring.enumerate_ms", enumerate_s * 1e3, "ms");
    let states = last.states as f64;
    out.put("checker.states", states, "count");
    out.put("checker.edges", last.edges as f64, "count");
    out.put(
        "checker.quotient_states",
        last.quotient_states as f64,
        "count",
    );
    out.put(
        "checker.new_state_ratio",
        states / last.edges.max(1) as f64,
        "ratio",
    );
    out.put(
        "checker.allocs_per_state",
        last.allocs as f64 / states.max(1.0),
        "count",
    );
    out.put(
        "checker.peak_resident_bytes",
        last.peak_resident_bytes as f64,
        "B",
    );
    out.put("checker.expand_s", med(&|p| p.expand_s, &traced), "s");
    out.put("checker.merge_s", med(&|p| p.merge_s, &traced), "s");
    out.put(
        "checker.liveness_s",
        med(&|p| p.call_s - p.expand_s - p.merge_s, &traced),
        "s",
    );
    out.put("checker.states_per_s", states / wall, "1/s");
    out.put("checker.speedup_wN", speedup, "ratio");
    out.put("checker.expand_ratio_wN", expand_ratio, "ratio");
    out.put(
        "checker.rss_over_accountant",
        peak_rss / (last.peak_resident_bytes as f64 / (1024.0 * 1024.0)),
        "ratio",
    );
    out.put("store.spilled_bytes", last.spilled_bytes as f64, "B");
    out.put(
        "store.visited_spilled_bytes",
        last.visited_spilled_bytes as f64,
        "B",
    );
    out.put(
        "store.bytes_per_state",
        last.state_bytes as f64 / states.max(1.0),
        "B",
    );
    out.put("store.read_syscalls", last.io.read_syscalls as f64, "count");
    out.put("store.read_bytes", last.io.read_bytes as f64, "B");
    out.put("store.write_bytes", last.io.write_bytes as f64, "B");
    out.put("proc.user_s", med(&|p| p.cpu.user_s, &traced), "s");
    out.put("proc.sys_s", med(&|p| p.cpu.sys_s, &traced), "s");
    let plain_wall = if plain.is_empty() {
        wall
    } else {
        med(&|p| p.wall_s, &plain)
    };
    out.put("trace.overhead_frac", wall / plain_wall - 1.0, "ratio");
    out
}

/// Prints the stored-expectation table for `w`'s cells (used to regenerate
/// `expected.rs`).
pub fn print_expected(w: &CheckWorkload) {
    let (cells, _) = prepare(w, w.store, 1, 0);
    for p in &cells {
        let mut rows = vec![ClassCounts::default(); p.classes.len()];
        for (index, class) in &p.classes {
            let (report, stats) = p.check(class).expect("expected-value run");
            assert!(report.verified(), "expected-value run must verify");
            rows[*index] = ClassCounts {
                states: report.states as u64,
                edges: report.edges,
                quotient_states: report.quotient_states as u64,
                spilled_bytes: stats.spilled_bytes,
            };
        }
        println!(
            "        ({:?}, {}, {}, {:?}) => &[",
            p.cell.task.slug(),
            p.cell.n,
            p.cell.k,
            p.cell.mode.name()
        );
        for r in rows {
            println!(
                "            ({}, {}, {}, {}),",
                r.states, r.edges, r.quotient_states, r.spilled_bytes
            );
        }
        println!("        ],");
    }
}

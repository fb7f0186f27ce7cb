//! The repository benchmark: one workload per process.
//!
//! ```text
//! perfbench --workload <search-spill|gather-live|sweep-service>
//!           --seed <u64> --seconds <f64> --trace <0|1> --workdir <dir>
//!           [--trace-out <file>] [--smoke] [--expect-wrong] [--print-expected]
//! ```
//!
//! With `--trace 0` the last line of standard output is the result object
//! with the end-to-end metrics; with `--trace 1` it carries the per-layer
//! metrics, and the recorded spans go to `--trace-out`.  `--smoke` shrinks
//! every workload to a few seconds of work; `--expect-wrong` perturbs the
//! stored expected values, so every op must fail.  `perfbench/run.py` builds
//! this binary and runs it in an isolated scratch directory; see
//! `perfbench/README.md`.

mod check;
mod expected;
mod micro;
mod probe;
mod stats;
mod sweep;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use rr_checker::explore::DEFAULT_MEM_BUDGET;
use rr_checker::StoreKind;
use rr_corda::InterleavingMode;

use check::{Cell, CellTask, CheckWorkload};
use trace::Tracer;

#[global_allocator]
static GLOBAL: probe::CountingAllocator = probe::CountingAllocator;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 25;
/// Seeded repetitions per (instance, scheduler) cell of the sweep grids.
pub const SWEEP_SEEDS_PER_CELL: u64 = 24;
/// The E16 visited-map budget: tight enough that the store really spills.
const SPILL_BUDGET: u64 = 1 << 20;

pub const WORKLOADS: [&str; 3] = ["search-spill", "gather-live", "sweep-service"];

/// Run-wide settings every workload reads.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub expect_wrong: bool,
    pub workdir: PathBuf,
    pub nproc: usize,
}

impl Ctx {
    /// Calls `pass(i)` for i = 0, 1, ... while another pass is expected to
    /// end within `budget` seconds (at least once), collecting the results.
    pub fn repeat_for<T>(&self, budget: f64, mut pass: impl FnMut(usize) -> T) -> Vec<T> {
        let started = Instant::now();
        let mut results = Vec::new();
        let mut longest = 0.0f64;
        loop {
            let t = Instant::now();
            results.push(pass(results.len()));
            longest = longest.max(t.elapsed().as_secs_f64());
            if started.elapsed().as_secs_f64() + longest > budget {
                return results;
            }
        }
    }
}

fn searching_cells(smoke: bool) -> Vec<Cell> {
    let cells: &[(usize, usize, InterleavingMode)] = if smoke {
        &[(10, 7, InterleavingMode::SsyncSubsets)]
    } else {
        &[
            (11, 5, InterleavingMode::AsyncPhases),
            (10, 7, InterleavingMode::AsyncPhases),
        ]
    };
    cells
        .iter()
        .map(|&(n, k, mode)| Cell {
            task: CellTask::Searching,
            n,
            k,
            mode,
        })
        .collect()
}

fn liveness_cells(smoke: bool) -> Vec<Cell> {
    let (n, k) = if smoke { (9, 4) } else { (13, 6) };
    [CellTask::Gathering, CellTask::Alignment]
        .into_iter()
        .map(|task| Cell {
            task,
            n,
            k,
            mode: InterleavingMode::AsyncPhases,
        })
        .collect()
}

fn check_workload(name: &str, smoke: bool) -> Option<CheckWorkload> {
    Some(match name {
        "search-spill" => CheckWorkload {
            cells: searching_cells(smoke),
            store: StoreKind::Spill,
            mem_budget: SPILL_BUDGET,
            gate_spill: true,
            worker_scaling: true,
        },
        "gather-live" => CheckWorkload {
            cells: liveness_cells(smoke),
            store: StoreKind::Mem,
            mem_budget: DEFAULT_MEM_BUDGET,
            gate_spill: false,
            worker_scaling: false,
        },
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    workdir: PathBuf,
    trace_out: Option<PathBuf>,
    smoke: bool,
    expect_wrong: bool,
    print_expected: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        workdir: PathBuf::new(),
        trace_out: None,
        smoke: false,
        expect_wrong: false,
        print_expected: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--workdir" => args.workdir = PathBuf::from(value()?),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            "--expect-wrong" => args.expect_wrong = true,
            "--print-expected" => args.print_expected = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workdir.as_os_str().is_empty() {
        return Err("--workdir is required".to_string());
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        expect_wrong: args.expect_wrong,
        workdir: args.workdir.clone(),
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
    };
    std::fs::create_dir_all(&ctx.workdir).expect("the run's scratch directory is creatable");

    if args.print_expected {
        for name in ["search-spill", "gather-live"] {
            check::print_expected(&check_workload(name, ctx.smoke).expect("check workload"));
        }
        sweep::print_expected(&ctx.workdir, ctx.smoke);
        return ExitCode::SUCCESS;
    }

    let mut tracer = Tracer::new(ctx.trace);
    let span = tracer.enter("workload", || args.workload.clone());
    let outcome = match (
        args.workload.as_str(),
        check_workload(&args.workload, ctx.smoke),
    ) {
        (_, Some(w)) => check::run(&w, &ctx, &mut tracer),
        ("sweep-service", None) => sweep::run(&ctx, &mut tracer),
        (other, None) => {
            eprintln!(
                "perfbench: unknown workload {other:?}; known: {}",
                WORKLOADS.join(", ")
            );
            return ExitCode::from(2);
        }
    };
    tracer.set_enabled(ctx.trace);
    tracer.exit(span);

    println!(
        "# workload {} seed {} nproc {} trace {} smoke {}",
        args.workload,
        ctx.seed,
        ctx.nproc,
        u8::from(ctx.trace),
        ctx.smoke
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    if ctx.trace {
        println!("# span self time (s), spans:");
        for (name, (self_s, count)) in tracer.self_times() {
            println!("#   {name:<28} {self_s:>10.6} {count:>6}");
        }
        if let Some(path) = &args.trace_out {
            if let Err(e) = std::fs::write(path, tracer.to_json()) {
                eprintln!("perfbench: writing {}: {e}", path.display());
            }
        }
    }
    let (attempted, failed) = outcome.counts();
    println!(
        "# failed_frac = {} ({failed} of {attempted} ops failed)",
        failed as f64 / attempted as f64
    );
    for m in &outcome.metrics {
        println!("# {:<30} {:>16} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.to_json());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

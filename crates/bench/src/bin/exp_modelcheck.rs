//! E10/E11/E15 — exhaustive adversarial model checking over scheduler
//! interleavings.
//!
//! Where E3–E6 *sample* the adversary (64 seeds per cell), this experiment
//! *exhausts* it on small instances: for every rigid initial configuration
//! class of each cell, the checker enumerates **all** SSYNC activation
//! subsets and **all** ASYNC Look-Move phase interleavings, checks the
//! per-task safety invariants on every edge, and decides fair liveness by
//! SCC analysis — upgrading "verified on sampled schedules" to "proved for
//! all schedules".  The checker runs its packed-state engine (experiment
//! E11): states are stored bit-packed, one check runs on one thread as a
//! discovery-order BFS, and the reports are byte-identical for every
//! storage backend.  Parallelism comes from cells: the grid's cells run
//! side by side on the rayon pool.
//!
//! Gathering and alignment cells run on the **canonical symmetry quotient**
//! with σ-threaded liveness (`check_protocol_quotient_with_stats`): states are
//! deduplicated up to ring rotation/reflection *and* robot relabeling, and
//! fairness is re-established over concrete robots by threading the
//! accumulated relabeling along quotient edges.  On the previously-proved
//! `n ≤ 10, k ≤ 5` grid every such cell is *additionally* checked concretely
//! and the two verdicts are compared — a verdict mismatch fails the cell.
//! Graph-searching cells carry auxiliary contamination state, which forces
//! exact keys; for them the quotient entry point degrades to the concrete
//! checker.
//!
//! Grid: gathering and Align on every claimed cell with `n ≤ 12, k ≤ 6`
//! (quick: `n ≤ 6, k ≤ 5`); graph searching additionally at its smallest
//! feasible instances `(n, k) = (11, 5)` (Ring Clearing) and `(10, 7)`
//! (NminusThree), plus the larger `(12, 5)` and `(11, 8)` in the full grid —
//! below `n = 10` searching is impossible (Theorem 5) and those cells are
//! recorded as vacuous.  `--max-n 14 --max-k 8` extends the sweep to the
//! proved `n ≤ 14, k ≤ 8` frontier (millions of states per searching cell —
//! pair it with `--store spill` and a tight `--mem-budget`, see E16).
//! Every record carries the cell's exploration
//! throughput (states/second), its deterministic memory profile
//! (`peak_resident_nodes`/`peak_resident_bytes`/`bytes_per_state`) and, under
//! `--store spill`, the bytes spilled to disk (experiment E15).
//!
//! ```text
//! exp_modelcheck [--quick] [--json <path>] [--seed <u64>] [--sequential]
//!                [--selftest] [--max-n <usize>] [--max-k <usize>]
//!                [--workers <usize>] [--store mem|spill]
//!                [--mem-budget <bytes|KiB|MiB|GiB>] [--only task:n:k[:mode]]
//!                [--max-states <usize>] [--scale-bench]
//! ```
//!
//! `--workers` is accepted and ignored: one check runs on one thread, and
//! parallelism comes from running the grid's cells side by side;
//! `--sequential` runs the cells one after another instead.
//! `--store spill` gives the checker's stores a budget: packed states go to
//! delta-compressed clusters on disk with a resident cache bounded by
//! `--mem-budget` (default 64MiB), and the visited map seals sorted runs
//! past it.  `--store mem` (the default) gives them none, so nothing is
//! written to disk.  The report is byte-identical either way apart from
//! `store`, `spilled_bytes`, `visited_spilled_bytes` and `states_per_sec`,
//! which is exactly what CI's spill-smoke leg gates on.  `--only gathering:12:6` (optionally `:ssync`/`:async`) restricts the
//! grid to one cell for targeted out-of-core runs.  `--scale-bench` switches
//! to experiment E16: one fixed spill cell (default: the largest proved
//! searching cell; override with `--only`) is re-explored once per
//! `workers` value 1/2/4/8 (quick: 1/4) — a value the checker ignores, so
//! the rows are repeat runs — under a tight visited-map budget (default
//! 1 MiB, override with `--mem-budget`), the run **fails unless every
//! deterministic report field is byte-identical across the runs**, and
//! the sweep's wall time (expansion vs window loads and seals) is recorded
//! per run.  `--selftest` checks that
//! a deliberately broken protocol (one decision-table entry mutated) is
//! *falsified* with a counterexample that replays on the engine — a canary
//! for the checker itself.

use std::time::Instant;

use rr_bench::cache::{fnv1a64, FNV_OFFSET};
use rr_bench::sweep::{
    exit_if_failed, grid_map, parse_byte_size, ExpArgs, ModelCheckRecord, ScaleRecord,
};
use rr_checker::explore::{
    check_protocol_quotient_with_stats, check_protocol_with_stats, replay_counterexample,
    CheckOutcome, ExploreOptions, ExploreReport, MutatedProtocol, ViolationKind,
    DEFAULT_MAX_STATES, DEFAULT_MEM_BUDGET,
};
use rr_checker::{StoreKind, StoreStats};
use rr_corda::{Decision, InterleavingMode, Protocol, SimError, ViewIndex};
use rr_core::invariant::{AlignmentInvariant, GatheringInvariant, Invariant, SearchingInvariant};
use rr_core::unified::{protocol_for, Task};
use rr_core::{AlignProtocol, GatheringProtocol};
use rr_ring::enumerate::enumerate_rigid_configurations;
use rr_ring::Configuration;

/// The tasks of the model-check grid (Align is checked as its own task: it
/// is the shared first phase the other algorithms build on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellTask {
    Gathering,
    Alignment,
    Searching,
}

impl CellTask {
    fn slug(self) -> &'static str {
        match self {
            CellTask::Gathering => "gathering",
            CellTask::Alignment => "alignment",
            CellTask::Searching => "graph-searching",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Cell {
    task: CellTask,
    n: usize,
    k: usize,
    mode: InterleavingMode,
}

/// Per-cell checker configuration derived from the CLI.
#[derive(Debug, Clone, Copy)]
struct CheckCfg {
    workers: usize,
    store: StoreKind,
    mem_budget: u64,
    max_states: usize,
}

/// Whether the paper claims an algorithm for the cell.
fn claimed(task: CellTask, n: usize, k: usize) -> bool {
    match task {
        CellTask::Gathering => protocol_for(Task::Gathering, n, k).is_some(),
        // Align needs k ≥ 3 robots and a rigid configuration to exist.
        CellTask::Alignment => k >= 3 && k + 2 < n,
        CellTask::Searching => protocol_for(Task::GraphSearching, n, k).is_some(),
    }
}

/// The grid PR 8 and earlier proved with the concrete (exact-dedup) checker.
/// Cells inside it are dual-run — quotient *and* concrete — and their
/// verdicts compared; cells beyond it are proved on the quotient alone.
fn previously_proved(cell: &Cell) -> bool {
    cell.n <= 10 && cell.k <= 5
}

/// A run over one cell's protocol and invariant.  Their types differ per
/// task, so the run is a trait with a generic method rather than a closure;
/// [`Cell::dispatch`] is the one place that picks the pair.
trait CellRun {
    type Output;
    fn run<P: Protocol + Clone + Send>(
        self,
        protocol: &P,
        invariant: &dyn Invariant,
    ) -> Self::Output;
}

impl Cell {
    /// Runs `run` on the cell's protocol and invariant; `None` when a
    /// searching cell has no protocol.
    fn dispatch<R: CellRun>(&self, run: R) -> Option<R::Output> {
        match self.task {
            CellTask::Gathering => {
                Some(run.run(&GatheringProtocol::new(), &GatheringInvariant::new()))
            }
            CellTask::Alignment => Some(run.run(&AlignProtocol::new(), &AlignmentInvariant::new())),
            CellTask::Searching => protocol_for(Task::GraphSearching, self.n, self.k)
                .map(|protocol| run.run(&protocol, &SearchingInvariant::new())),
        }
    }
}

/// E10: checks every rigid initial class of a claimed cell into `record`.
struct CheckCell<'a> {
    cell: &'a Cell,
    cfg: &'a CheckCfg,
    record: &'a mut ModelCheckRecord,
}

impl CellRun for CheckCell<'_> {
    type Output = ();

    fn run<P: Protocol + Clone + Send>(self, protocol: &P, invariant: &dyn Invariant) {
        let CheckCell { cell, cfg, record } = self;
        let initials = enumerate_rigid_configurations(cell.n, cell.k);
        record.initial_classes = initials.len() as u64;
        if initials.is_empty() {
            record.vacuous = true;
            record.ok = true;
            return;
        }
        record.ok = true;
        // Accumulated packed payload bytes; divided down to `bytes_per_state`
        // by the caller once every class is in.
        let mut state_bytes = 0u64;
        for initial in &initials {
            let options = ExploreOptions::new(cell.mode)
                .with_workers(cfg.workers)
                .with_store(cfg.store)
                .with_mem_budget(cfg.mem_budget)
                .with_max_states(cfg.max_states);
            let (report, stats) =
                match check_protocol_quotient_with_stats(protocol, initial, invariant, &options) {
                    Ok(pair) => pair,
                    Err(e) => {
                        record.ok = false;
                        record.counterexample = format!("engine rejected the initial state: {e}");
                        return;
                    }
                };
            if previously_proved(cell) {
                // Cross-check: on the grid the concrete checker already proved,
                // the quotient verdict must agree with the concrete one —
                // verified/falsified, and the violation kind when falsified.
                let concrete =
                    match check_protocol_with_stats(protocol, initial, invariant, &options) {
                        Ok((concrete, _)) => concrete,
                        Err(e) => {
                            record.ok = false;
                            record.counterexample =
                                format!("engine rejected the initial state: {e}");
                            return;
                        }
                    };
                let quotient_kind = report.counterexample().map(|ce| ce.kind);
                let concrete_kind = concrete.counterexample().map(|ce| ce.kind);
                if report.verified() != concrete.verified() || quotient_kind != concrete_kind {
                    record.ok = false;
                    record.counterexample = format!(
                        "quotient/concrete verdict mismatch from {initial}: \
                         quotient {:?} vs concrete {:?}",
                        report.outcome, concrete.outcome
                    );
                    return;
                }
            }
            record.states += report.states as u64;
            record.quotient_states += report.quotient_states as u64;
            record.edges += report.edges;
            record.target_states += report.target_states as u64;
            record.progress_edges += report.progress_edges;
            record.peak_resident_nodes = record
                .peak_resident_nodes
                .max(report.peak_resident_nodes as u64);
            record.peak_resident_bytes = record.peak_resident_bytes.max(report.peak_resident_bytes);
            record.spilled_bytes += stats.spilled_bytes;
            record.visited_spilled_bytes += stats.visited_spilled_bytes;
            state_bytes += report.state_bytes;
            match &report.outcome {
                CheckOutcome::Verified => {}
                CheckOutcome::BudgetExceeded {
                    discovered,
                    completed_expansions,
                } => {
                    record.ok = false;
                    record.counterexample = format!(
                        "state budget exceeded from {initial}: {discovered} states discovered, \
                         {completed_expansions} expansions completed"
                    );
                    return;
                }
                CheckOutcome::Falsified(ce) => {
                    record.ok = false;
                    record.counterexample = format!("from {initial}: {}", ce.render());
                    return;
                }
            }
        }
        record.bytes_per_state = state_bytes.checked_div(record.states).unwrap_or(0);
    }
}

fn run_cell(cell: Cell, experiment: &str, cfg: &CheckCfg) -> ModelCheckRecord {
    let started = Instant::now();
    let mut record = ModelCheckRecord {
        experiment: experiment.to_string(),
        task: cell.task.slug().to_string(),
        n: cell.n,
        k: cell.k,
        mode: cell.mode.name().to_string(),
        initial_classes: 0,
        states: 0,
        quotient_states: 0,
        edges: 0,
        target_states: 0,
        progress_edges: 0,
        peak_resident_nodes: 0,
        peak_resident_bytes: 0,
        bytes_per_state: 0,
        spilled_bytes: 0,
        visited_spilled_bytes: 0,
        store: cfg.store.to_string(),
        states_per_sec: 0,
        vacuous: false,
        ok: false,
        counterexample: String::new(),
        wall_nanos: 0,
    };
    if !claimed(cell.task, cell.n, cell.k) {
        record.vacuous = true;
        record.ok = true;
        record.wall_nanos = started.elapsed().as_nanos();
        return record;
    }
    cell.dispatch(CheckCell {
        cell: &cell,
        cfg,
        record: &mut record,
    })
    .expect("claimed cells have a protocol");
    record.wall_nanos = started.elapsed().as_nanos();
    record.states_per_sec = (u128::from(record.states) * 1_000_000_000)
        .checked_div(record.wall_nanos)
        .unwrap_or(0) as u64;
    record
}

/// The canary: a gathering protocol with ONE decision-table entry mutated
/// (the initial class idles → fair no-progress lasso) and an Align protocol
/// with one entry mutated into a move (→ collision).  Both must be falsified
/// with counterexamples that replay on the engine.  The liveness mutant
/// runs through both entry points: the exact-key reference and the
/// quotient checker, whose σ-threaded liveness reads the alignments it
/// recorded on every edge during expansion.
fn selftest() -> Result<(), String> {
    // Liveness mutant.
    let initial = enumerate_rigid_configurations(7, 3)
        .into_iter()
        .next()
        .expect("rigid (7,3)");
    let mutant = MutatedProtocol::new(
        GatheringProtocol::new(),
        MutatedProtocol::<GatheringProtocol>::trigger_for(&initial),
        Decision::Idle,
    );
    type Check = fn(
        &MutatedProtocol<GatheringProtocol>,
        &Configuration,
        &dyn Invariant,
        &ExploreOptions,
    ) -> Result<(ExploreReport, StoreStats), SimError>;
    let entry_points: [(&str, Check); 2] = [
        ("exact", check_protocol_with_stats),
        ("quotient", check_protocol_quotient_with_stats),
    ];
    for (path, check) in entry_points {
        for mode in [
            InterleavingMode::SsyncSubsets,
            InterleavingMode::AsyncPhases,
        ] {
            let report = check(
                &mutant,
                &initial,
                &GatheringInvariant::new(),
                &ExploreOptions::new(mode),
            )
            .map_err(|e| e.to_string())?
            .0;
            let Some(ce) = report.counterexample() else {
                return Err(format!("{path} {mode}: idle mutant was NOT falsified"));
            };
            if ce.kind != ViolationKind::Liveness {
                return Err(format!("{path} {mode}: expected a liveness counterexample"));
            }
            let replay = replay_counterexample(&mutant, &initial, &GatheringInvariant::new(), ce)
                .map_err(|e| e.to_string())?;
            if !replay.reproduced {
                return Err(format!(
                    "{path} {mode}: lasso did not replay: {}",
                    replay.detail
                ));
            }
            println!(
                "# selftest {path} {mode}: idle mutant falsified: {}",
                ce.render()
            );
        }
    }
    // Safety mutant: at C* of (8, 4) a robot's clockwise neighbour is
    // occupied; forcing that class to move lets the adversary collide.
    let c_star = Configuration::from_gaps_at_origin(&[0, 0, 1, 3]);
    let mutant = MutatedProtocol::new(
        AlignProtocol::new(),
        MutatedProtocol::<AlignProtocol>::trigger_for(&c_star),
        Decision::Move(ViewIndex::First),
    );
    let report = check_protocol_with_stats(
        &mutant,
        &c_star,
        &AlignmentInvariant::new(),
        &ExploreOptions::new(InterleavingMode::AsyncPhases),
    )
    .map_err(|e| e.to_string())?
    .0;
    let Some(ce) = report.counterexample() else {
        return Err("move mutant was NOT falsified".to_string());
    };
    if ce.kind != ViolationKind::Safety || ce.prefix.len() != 2 {
        return Err(format!(
            "expected a minimal 2-step safety trace, got {}",
            ce.render()
        ));
    }
    let replay = replay_counterexample(&mutant, &c_star, &AlignmentInvariant::new(), ce)
        .map_err(|e| e.to_string())?;
    if !replay.reproduced {
        return Err(format!("safety trace did not replay: {}", replay.detail));
    }
    println!(
        "# selftest: move mutant falsified minimally: {}",
        ce.render()
    );
    Ok(())
}

/// One scale-bench row: explores every rigid initial class of `cell` on the
/// **concrete** (exact-dedup) checker with the spill backend, accumulating
/// the deterministic report fields into both the record and an FNV digest
/// basis — anything run-dependent in node ids, edge order, early stops
/// or accounting would change the digest and trip the gate in `main`.
fn run_scale_cell(cell: &Cell, workers: usize, mem_budget: u64, max_states: usize) -> ScaleRecord {
    let started = Instant::now();
    let mut record = ScaleRecord {
        experiment: "E16".to_string(),
        task: cell.task.slug().to_string(),
        n: cell.n,
        k: cell.k,
        mode: cell.mode.name().to_string(),
        store: StoreKind::Spill.to_string(),
        workers,
        mem_budget,
        states: 0,
        edges: 0,
        peak_resident_bytes: 0,
        spilled_bytes: 0,
        visited_spilled_bytes: 0,
        expand_nanos: 0,
        merge_nanos: 0,
        states_per_sec: 0,
        report_digest: 0,
        ok: false,
        wall_nanos: 0,
    };
    let mut basis = String::new();
    let result = cell
        .dispatch(ScaleCell {
            cell,
            workers,
            mem_budget,
            max_states,
            record: &mut record,
            basis: &mut basis,
        })
        .unwrap_or_else(|| {
            Err(format!(
                "no searching protocol for ({}, {})",
                cell.n, cell.k
            ))
        });
    match result {
        Ok(()) => {
            record.report_digest = fnv1a64(FNV_OFFSET, basis.as_bytes());
            record.ok = true; // the cross-run gate may still clear this
        }
        Err(e) => {
            eprintln!("E16 workers={workers}: {e}");
            record.ok = false;
        }
    }
    record.wall_nanos = started.elapsed().as_nanos();
    record.states_per_sec = (u128::from(record.states) * 1_000_000_000)
        .checked_div(record.wall_nanos)
        .unwrap_or(0) as u64;
    record
}

/// E16: explores every rigid initial class of a cell into `record` and the
/// digest `basis`.
struct ScaleCell<'a> {
    cell: &'a Cell,
    workers: usize,
    mem_budget: u64,
    max_states: usize,
    record: &'a mut ScaleRecord,
    basis: &'a mut String,
}

impl CellRun for ScaleCell<'_> {
    type Output = Result<(), String>;

    fn run<P: Protocol + Clone + Send>(
        self,
        protocol: &P,
        invariant: &dyn Invariant,
    ) -> Result<(), String> {
        let ScaleCell {
            cell,
            workers,
            mem_budget,
            max_states,
            record,
            basis,
        } = self;
        use std::fmt::Write as _;
        let initials = enumerate_rigid_configurations(cell.n, cell.k);
        if initials.is_empty() {
            return Err(format!(
                "({}, {}) has no rigid initial class",
                cell.n, cell.k
            ));
        }
        let options = ExploreOptions::new(cell.mode)
            .with_workers(workers)
            .with_store(StoreKind::Spill)
            .with_mem_budget(mem_budget)
            .with_max_states(max_states);
        for initial in &initials {
            let (report, stats) = check_protocol_with_stats(protocol, initial, invariant, &options)
                .map_err(|e| format!("engine rejected {initial}: {e}"))?;
            record.states += report.states as u64;
            record.edges += report.edges;
            record.peak_resident_bytes = record.peak_resident_bytes.max(report.peak_resident_bytes);
            record.spilled_bytes += stats.spilled_bytes;
            record.visited_spilled_bytes += stats.visited_spilled_bytes;
            record.expand_nanos += stats.expand_nanos;
            record.merge_nanos += stats.merge_nanos;
            // Every deterministic report field joins the digest basis — the
            // outcome's Debug form includes the full counterexample when one
            // exists, so falsified runs are compared schedule for schedule.
            let _ = write!(
                basis,
                "{initial}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{:?};",
                report.states,
                report.quotient_states,
                report.edges,
                report.target_states,
                report.progress_edges,
                report.peak_resident_nodes,
                report.peak_resident_bytes,
                report.state_bytes,
                stats.spilled_bytes,
                stats.visited_spilled_bytes,
                report.outcome
            );
        }
        Ok(())
    }
}

/// The E16 scaling bench: one fixed spill cell re-explored once per
/// `workers` value (which the checker ignores), gated on every
/// deterministic report field (via the FNV digest) being identical across
/// the runs.
fn run_scale_bench(
    args: &ExpArgs,
    only: Option<&OnlyFilter>,
    mem_budget: Option<u64>,
    max_states: usize,
) {
    let cell = match only {
        Some(f) => Cell {
            task: task_from_slug(&f.task),
            n: f.n,
            k: f.k,
            mode: match f.mode.as_deref() {
                Some("ssync") => InterleavingMode::SsyncSubsets,
                Some("async") | None => InterleavingMode::AsyncPhases,
                Some(other) => panic!("--only mode must be ssync or async, got {other:?}"),
            },
        },
        // Defaults: the biggest proved searching cells — exact dedup (the
        // contamination aux state forces it), millions of states in the
        // full cell, a quick-mode cell small enough for CI.
        None if args.quick => Cell {
            task: CellTask::Searching,
            n: 11,
            k: 5,
            mode: InterleavingMode::SsyncSubsets,
        },
        None => Cell {
            task: CellTask::Searching,
            n: 14,
            k: 8,
            mode: InterleavingMode::AsyncPhases,
        },
    };
    // Tight by default so the visited map genuinely seals runs: the bench
    // is about the spill path, not the in-RAM fast path.
    let mem_budget = mem_budget.unwrap_or(1 << 20);
    let worker_counts: &[usize] = if args.quick { &[1, 4] } else { &[1, 2, 4, 8] };

    let mut records: Vec<ScaleRecord> = worker_counts
        .iter()
        .map(|&w| run_scale_cell(&cell, w, mem_budget, max_states))
        .collect();
    let reference = records[0].report_digest;
    for record in &mut records {
        record.ok = record.ok && record.report_digest == reference;
    }

    println!(
        "# E16 — worker scaling on the spill path: {}:{}:{} {} budget={}B",
        cell.task.slug(),
        cell.n,
        cell.k,
        cell.mode.name(),
        mem_budget
    );
    println!("# workers    states     edges  visited-spill   expand-ms  merge-ms   st/sec  digest");
    for r in &records {
        println!(
            "  {:>7} {:>9} {:>9} {:>14} {:>11} {:>9} {:>8}  {:016x}{}",
            r.workers,
            r.states,
            r.edges,
            r.visited_spilled_bytes,
            r.expand_nanos / 1_000_000,
            r.merge_nanos / 1_000_000,
            r.states_per_sec,
            r.report_digest,
            if r.ok { "" } else { "  MISMATCH" }
        );
    }

    args.write_json("E16", &records);
    let failures = records.iter().filter(|r| !r.ok).count();
    exit_if_failed("E16", failures, records.len());
}

fn task_from_slug(slug: &str) -> CellTask {
    match slug {
        "gathering" => CellTask::Gathering,
        "alignment" => CellTask::Alignment,
        "graph-searching" => CellTask::Searching,
        other => panic!("unknown task slug {other:?}"),
    }
}

/// A `--only task:n:k[:mode]` cell filter for targeted out-of-core runs.
struct OnlyFilter {
    task: String,
    n: usize,
    k: usize,
    mode: Option<String>,
}

impl OnlyFilter {
    fn parse(spec: &str) -> Self {
        let parts: Vec<&str> = spec.split(':').collect();
        assert!(
            parts.len() == 3 || parts.len() == 4,
            "--only takes task:n:k[:mode], got {spec:?}"
        );
        OnlyFilter {
            task: parts[0].to_string(),
            n: parts[1].parse().expect("--only: n must be a usize"),
            k: parts[2].parse().expect("--only: k must be a usize"),
            mode: parts.get(3).map(|m| (*m).to_string()),
        }
    }

    fn matches(&self, cell: &Cell) -> bool {
        cell.task.slug() == self.task
            && cell.n == self.n
            && cell.k == self.k
            && self
                .mode
                .as_ref()
                .is_none_or(|m| cell.mode.name() == m.as_str())
    }
}

fn main() {
    let args = ExpArgs::parse(0);
    let max_n: usize = args
        .value("--max-n")
        .map_or(if args.quick { 6 } else { 12 }, |v| {
            v.parse().expect("--max-n takes a usize")
        });
    let max_k: usize = args
        .value("--max-k")
        .map_or(if args.quick { 5 } else { 6 }, |v| {
            v.parse().expect("--max-k takes a usize")
        });
    let workers: usize = args
        .value("--workers")
        .map_or(0, |v| v.parse().expect("--workers takes a usize"));
    let store = match args.value("--store") {
        None | Some("mem") => StoreKind::Mem,
        Some("spill") => StoreKind::Spill,
        Some(other) => panic!("--store takes mem or spill, got {other:?}"),
    };
    let mem_budget_arg = args.value("--mem-budget").map(|v| {
        parse_byte_size(v).unwrap_or_else(|| panic!("--mem-budget: malformed size {v:?}"))
    });
    let mem_budget = mem_budget_arg.unwrap_or(DEFAULT_MEM_BUDGET);
    let max_states: usize = args.value("--max-states").map_or(DEFAULT_MAX_STATES, |v| {
        v.parse().expect("--max-states takes a usize")
    });
    let cfg = CheckCfg {
        workers,
        store,
        mem_budget,
        max_states,
    };
    let only = args.value("--only").map(OnlyFilter::parse);

    if args.flag("--scale-bench") {
        run_scale_bench(&args, only.as_ref(), mem_budget_arg, max_states);
        return;
    }

    if args.flag("--selftest") {
        if let Err(e) = selftest() {
            eprintln!("E10 selftest FAILED: {e}");
            std::process::exit(1);
        }
    }

    let both_modes = [
        InterleavingMode::SsyncSubsets,
        InterleavingMode::AsyncPhases,
    ];
    let mut cells = Vec::new();
    for task in [
        CellTask::Gathering,
        CellTask::Alignment,
        CellTask::Searching,
    ] {
        for n in 4..=max_n {
            for k in 2..=max_k.min(n) {
                for mode in both_modes {
                    cells.push(Cell { task, n, k, mode });
                }
            }
        }
    }
    // The smallest *feasible* searching instances (Ring Clearing and
    // NminusThree) sit beyond the gathering/Align grid; the quick CI grid
    // proves them under every SSYNC subset (small graphs, real liveness),
    // the full grid adds the ASYNC interleavings and the larger (12,5) and
    // (11,8) cells.
    let searching_frontier: &[(usize, usize, &[InterleavingMode])] = if args.quick {
        &[
            (11, 5, &[InterleavingMode::SsyncSubsets]),
            (10, 7, &[InterleavingMode::SsyncSubsets]),
        ]
    } else {
        &[
            (11, 5, &both_modes),
            (10, 7, &both_modes),
            (12, 5, &both_modes),
            (11, 8, &both_modes),
        ]
    };
    for &(n, k, modes) in searching_frontier {
        if n <= max_n && k <= max_k {
            continue; // already in the grid above (custom --max-n/--max-k runs)
        }
        for &mode in modes {
            cells.push(Cell {
                task: CellTask::Searching,
                n,
                k,
                mode,
            });
        }
    }
    if let Some(filter) = &only {
        cells.retain(|cell| filter.matches(cell));
        assert!(!cells.is_empty(), "--only matched no cell of the grid");
    }

    let records = grid_map(cells, args.mode(), |cell| run_cell(cell, "E10", &cfg));

    println!(
        "# E10 — exhaustive model check (all schedules), {} cells, store={store}",
        records.len()
    );
    println!(
        "# task            n   k  mode   classes    states  quotient     edges  b/st   spilled   st/sec  verdict"
    );
    for r in &records {
        let verdict = if r.vacuous {
            "vacuous".to_string()
        } else if r.ok {
            "PROVED".to_string()
        } else {
            format!("FALSIFIED {}", r.counterexample)
        };
        println!(
            "  {:<14} {:>2}  {:>2}  {:<5} {:>8} {:>9} {:>9} {:>9} {:>5} {:>9} {:>8}  {verdict}",
            r.task,
            r.n,
            r.k,
            r.mode,
            r.initial_classes,
            r.states,
            r.quotient_states,
            r.edges,
            r.bytes_per_state,
            r.spilled_bytes,
            r.states_per_sec
        );
    }

    args.write_json("E10", &records);
    let failures = records.iter().filter(|r| !r.ok).count();
    exit_if_failed("E10", failures, records.len());
}

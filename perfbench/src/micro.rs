//! Per-layer micro-loops for the ring, corda and core layers, run in traced
//! runs on engine jobs drawn from the workload's own instances.  Each loop
//! is one span; each figure is a mean over a loop of at least
//! `MICRO_SECONDS`.

use std::hint::black_box;
use std::time::Instant;

use rr_corda::{Engine, PackedState, SchedulerKind, SchedulerStep, MAX_CANONICAL_N};
use rr_core::driver::{task_options, BatchJob, BatchRunner, TaskTargets};
use rr_core::unified::{protocol_for, Task};
use rr_ring::{supermin_view, Configuration, Direction, View};

use crate::probe;
use crate::stats::{median, quantile, Outcome, SplitMix};
use crate::trace::Tracer;
use crate::Ctx;

const MICRO_SECONDS: f64 = 0.15;
/// Jobs replayed per traced run.
pub const JOBS: usize = 24;
/// Scheduler steps recorded (then replayed) per job.
const STEPS: u64 = 512;
/// Mixed into the seed for the job samples, so they do not correlate with
/// the class shuffle.
pub const SAMPLE_SALT: u64 = 0x006d_6963_726f;

/// Runs `body` until it has run for `MICRO_SECONDS`; returns
/// (iterations, seconds).
fn timed_loop(mut body: impl FnMut()) -> (u64, f64) {
    let started = Instant::now();
    let mut iterations = 0u64;
    loop {
        body();
        iterations += 1;
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed >= MICRO_SECONDS {
            return (iterations, elapsed);
        }
    }
}

/// A job over a workload instance: the seed picks the scheduler family and
/// its seed; targets and budgets follow the E4/E6 presets.
fn job_for(task: Task, start: Configuration, rng: &mut SplitMix) -> BatchJob {
    let n = start.n() as u64;
    let (targets, budget) = match task {
        Task::Gathering => (TaskTargets::open_ended(), 100_000 * n),
        Task::Exploration | Task::GraphSearching => (TaskTargets::demonstrate(10, 1), 30_000 * n),
    };
    BatchJob {
        task,
        start,
        scheduler: SchedulerKind::ALL[rng.below(SchedulerKind::ALL.len())],
        seed: rng.next_u64(),
        targets,
        max_scheduler_steps: budget,
    }
}

/// One job's recorded schedule and the states and configurations it passed
/// through.
struct Recording {
    job: BatchJob,
    steps: Vec<SchedulerStep>,
    packed: Vec<PackedState>,
    configs: Vec<Configuration>,
}

fn new_engine(job: &BatchJob) -> Engine<rr_core::unified::UnifiedProtocol> {
    let (n, k) = (job.start.n(), job.start.num_robots());
    let protocol = protocol_for(job.task, n, k).expect("benchmark jobs have a protocol");
    let options = task_options(job.task, &protocol);
    Engine::new(protocol, job.start.clone(), options).expect("rigid start is a valid engine state")
}

fn record(job: BatchJob) -> Recording {
    let mut engine = new_engine(&job);
    let mut steps = Vec::new();
    let mut packed = Vec::new();
    let mut configs = vec![job.start.clone()];
    job.scheduler.with(job.seed, |scheduler| {
        for i in 0..STEPS.min(job.max_scheduler_steps) {
            let step = scheduler.next(&engine.scheduler_view());
            engine
                .step(&step, &mut ())
                .expect("protocol steps are legal");
            steps.push(step);
            packed.push(engine.pack_state());
            if i % 64 == 63 {
                configs.push(engine.configuration().clone());
            }
        }
    });
    Recording {
        job,
        steps,
        packed,
        configs,
    }
}

/// The ring, corda and core loops over `JOBS` jobs sampled (by the seed)
/// from `instances`.
pub fn ring_and_engine(
    instances: &[(Task, Configuration)],
    ctx: &Ctx,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let mut rng = SplitMix(ctx.seed ^ SAMPLE_SALT);
    let jobs: Vec<BatchJob> = (0..JOBS)
        .map(|_| {
            let (task, start) = &instances[rng.below(instances.len())];
            job_for(*task, start.clone(), &mut rng)
        })
        .collect();
    run_jobs(jobs, tracer, out);
}

/// The loops over jobs already drawn (the sweep workload samples its own
/// grid's jobs).
pub fn run_jobs(jobs: Vec<BatchJob>, tracer: &mut Tracer, out: &mut Outcome) {
    let span = tracer.enter("micro.record", String::new);
    let recordings: Vec<Recording> = jobs.iter().cloned().map(record).collect();
    tracer.exit(span);

    // ring: views and supermin over the configurations the jobs visited.
    let configs: Vec<(&Configuration, Vec<rr_ring::NodeId>)> = recordings
        .iter()
        .flat_map(|r| r.configs.iter())
        .map(|c| (c, c.occupied_nodes()))
        .collect();
    let span = tracer.enter("micro.ring.view", String::new);
    let mut view = View::new(Vec::with_capacity(64));
    let per_round: u64 = configs.iter().map(|(_, occ)| 2 * occ.len() as u64).sum();
    let (rounds, secs) = timed_loop(|| {
        for (config, occupied) in &configs {
            for &v in occupied {
                for dir in Direction::BOTH {
                    config.view_from_into(v, dir, &mut view);
                    black_box(&view);
                }
            }
        }
    });
    tracer.exit(span);
    out.put(
        "ring.view_ns",
        secs * 1e9 / (rounds * per_round) as f64,
        "ns",
    );

    let span = tracer.enter("micro.ring.supermin", String::new);
    let (rounds, secs) = timed_loop(|| {
        for (config, _) in &configs {
            black_box(supermin_view(black_box(config)));
        }
    });
    tracer.exit(span);
    out.put(
        "ring.supermin_ns",
        secs * 1e9 / (rounds * configs.len() as u64) as f64,
        "ns",
    );

    // corda: replay each recorded schedule on a fresh engine.
    let span = tracer.enter("micro.corda.step", String::new);
    let per_round: u64 = recordings.iter().map(|r| r.steps.len() as u64).sum();
    let mut engines: Vec<_> = recordings.iter().map(|r| new_engine(&r.job)).collect();
    probe::count_allocations(true);
    let allocs0 = probe::allocations();
    let mut replay = || {
        for (r, engine) in recordings.iter().zip(&mut engines) {
            engine.restore_packed(&r.packed[0]);
            for step in &r.steps[1..] {
                black_box(
                    engine
                        .step(step, &mut ())
                        .expect("replayed steps are legal"),
                );
            }
        }
    };
    replay();
    let allocs = probe::allocations() - allocs0;
    probe::count_allocations(false);
    let (rounds, secs) = timed_loop(&mut replay);
    tracer.exit(span);
    let stepped = per_round - recordings.len() as u64;
    out.put(
        "corda.step_ns",
        secs * 1e9 / (rounds * stepped) as f64,
        "ns",
    );
    out.put(
        "corda.allocs_per_step",
        allocs as f64 / stepped as f64,
        "count",
    );

    let span = tracer.enter("micro.corda.pack_restore", String::new);
    let (rounds, secs) = timed_loop(|| {
        for (r, engine) in recordings.iter().zip(&mut engines) {
            for packed in &r.packed {
                engine.restore_packed(packed);
                black_box(engine.pack_state());
            }
        }
    });
    tracer.exit(span);
    out.put(
        "corda.pack_restore_ns",
        secs * 1e9 / (rounds * per_round) as f64,
        "ns",
    );

    let span = tracer.enter("micro.corda.canonical_sig", String::new);
    let small: Vec<&PackedState> = recordings
        .iter()
        .filter(|r| r.job.start.n() <= MAX_CANONICAL_N)
        .flat_map(|r| r.packed.iter())
        .collect();
    let (rounds, secs) = timed_loop(|| {
        for packed in &small {
            black_box(packed.canonical_sig());
        }
    });
    tracer.exit(span);
    out.put(
        "corda.canonical_sig_ns",
        secs * 1e9 / (rounds * small.len().max(1) as u64) as f64,
        "ns",
    );

    // core: whole jobs through the batch runner.
    let span = tracer.enter("micro.core.batch", String::new);
    let mut runner = BatchRunner::new();
    let cell_ms: Vec<f64> = jobs
        .iter()
        .map(|job| {
            let started = Instant::now();
            black_box(runner.run(job).expect("benchmark jobs run"));
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    tracer.exit(span);
    out.put("core.cell_ms_p50", median(&cell_ms), "ms");
    out.put("core.cell_ms_max", quantile(&cell_ms, 1.0), "ms");
}

/// The sweep-service layer metrics, which only that workload exercises.
pub fn no_sweep(out: &mut Outcome) {
    for (name, unit) in SWEEP_METRICS {
        out.put(name, 0.0, unit);
    }
}

/// The checker and store metrics, which the sweep-service workload does not
/// exercise.
pub fn no_checker(out: &mut Outcome) {
    for (name, unit) in CHECKER_METRICS {
        out.put(name, 0.0, unit);
    }
}

const SWEEP_METRICS: [(&str, &str); 11] = [
    ("bench.cells_per_s", "1/s"),
    ("bench.cpu_util", "ratio"),
    ("bench.ledger_append_us_p50", "us"),
    ("bench.ledger_append_us_p90", "us"),
    ("bench.ledger_bytes", "B"),
    ("bench.cache_lookup_us", "us"),
    ("bench.cache_serve_us", "us"),
    ("bench.cache_serve_us_p90", "us"),
    ("sweepd.submit_us", "us"),
    ("sweepd.claim_us", "us"),
    ("sweepd.mark_done_us", "us"),
];

const CHECKER_METRICS: [(&str, &str); 20] = [
    ("ring.enumerate_ms", "ms"),
    ("checker.states", "count"),
    ("checker.edges", "count"),
    ("checker.quotient_states", "count"),
    ("checker.new_state_ratio", "ratio"),
    ("checker.allocs_per_state", "count"),
    ("checker.peak_resident_bytes", "B"),
    ("checker.expand_s", "s"),
    ("checker.merge_s", "s"),
    ("checker.liveness_s", "s"),
    ("checker.states_per_s", "1/s"),
    ("checker.speedup_wN", "ratio"),
    ("checker.expand_ratio_wN", "ratio"),
    ("checker.rss_over_accountant", "ratio"),
    ("store.spilled_bytes", "B"),
    ("store.visited_spilled_bytes", "B"),
    ("store.bytes_per_state", "B"),
    ("store.read_syscalls", "count"),
    ("store.read_bytes", "B"),
    ("store.write_bytes", "B"),
];

//! The `sweep-service` workload: the E4 (graph searching) and E6
//! (gathering) presets, submitted to a fresh in-process spool, claimed and
//! executed sharded (fsync'd ledgers, cache publish), then served from the
//! cache to fresh ledger paths.  Grid cells and cache serves are the ops.

use std::fs;
use std::path::Path;
use std::time::Instant;

use rr_bench::cache::ResultCache;
use rr_bench::grid::{preset, GridKind, GridSpec};
use rr_bench::ledger::{self, Ledger};
use rr_bench::sweep::SweepHeader;
use rr_sweepd::daemon::execute_claimed;
use rr_sweepd::{DaemonOptions, JobState, Spool};

use crate::expected;
use crate::micro;
use crate::probe::{self, Cpu};
use crate::stats::{fnv1a, median, quantile, Outcome, SplitMix};
use crate::trace::Tracer;
use crate::Ctx;

/// Ledger digests are stored for this many root seeds; the run's root seed
/// is `--seed` modulo it.
pub const ROOT_SEEDS: u64 = 32;
/// Cache serves per grid per pass.
const SERVES: usize = 16;

/// The two grids of one pass, built from the presets with the benchmark's
/// cell count and root seed.
fn build_grids(root_seed: u64, smoke: bool) -> Vec<GridSpec> {
    ["e4", "e6"]
        .into_iter()
        .map(|name| {
            let mut spec = preset(name, smoke, Some(root_seed)).expect("built-in preset");
            if let GridKind::Sweep { seeds_per_cell, .. } = &mut spec.kind {
                *seeds_per_cell = if smoke {
                    1
                } else {
                    crate::SWEEP_SEEDS_PER_CELL
                };
            }
            spec
        })
        .collect()
}

fn remove(dir: &Path) {
    if dir.exists() {
        fs::remove_dir_all(dir).expect("benchmark scratch directories are removable");
    }
}

/// One grid of a pass with the identifiers its outputs are checked by.
struct Grid {
    spec: GridSpec,
    job_id: String,
    cells: u64,
    key: u64,
    header: SweepHeader,
}

/// Set-up: grid construction.  Every pass needs a fresh spool, so spool
/// and cache creation are timed in the pass.
fn setup(root_seed: u64, smoke: bool) -> Vec<Grid> {
    build_grids(root_seed, smoke)
        .into_iter()
        .map(|spec| Grid {
            job_id: spec.job_id(),
            cells: spec.cells() as u64,
            key: spec.cache_key(),
            header: spec.header(),
            spec,
        })
        .collect()
}

#[derive(Default)]
struct Pass {
    /// Submit through the last finished job.
    wall_s: f64,
    execute_s: f64,
    execute_cpu: Cpu,
    cpu: Cpu,
    cells: u64,
    ledger_bytes: u64,
    serve_ms: Vec<f64>,
    lookup_us: Vec<f64>,
    submit_us: Vec<f64>,
    claim_us: Vec<f64>,
    /// Ledger lines of the executed grids, for the append loop.
    lines: Vec<(usize, Vec<String>)>,
}

fn us(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e6
}

fn run_pass(
    dir: &Path,
    grids: &[Grid],
    root_seed: u64,
    ctx: &Ctx,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Pass {
    let mut pass = Pass::default();
    let cpu0 = Cpu::now();
    let started = Instant::now();
    let spool = Spool::open(dir).expect("spool directory in the run's scratch space");
    for grid in grids {
        let span = tracer.enter("submit", || grid.job_id.clone());
        let t = Instant::now();
        let submitted = spool.submit(&grid.spec).expect("submit to a fresh spool");
        pass.submit_us.push(us(t));
        tracer.exit(span);
        assert!(
            submitted.fresh,
            "a fresh spool has no job {}",
            submitted.job_id
        );
    }
    let options = DaemonOptions {
        sequential: false,
        poll_ms: 1,
        drain: true,
    };
    let execute0 = Cpu::now();
    let mut execute_s = 0.0;
    loop {
        let span = tracer.enter("claim", String::new);
        let t = Instant::now();
        let claimed = spool.claim_next().expect("claim from the spool");
        pass.claim_us.push(us(t));
        tracer.exit(span);
        let Some(job_id) = claimed else { break };
        let span = tracer.enter("execute_claimed", || job_id.clone());
        let t = Instant::now();
        execute_claimed(&spool, &job_id, &options).expect("spool i/o of a claimed job");
        execute_s += t.elapsed().as_secs_f64();
        tracer.exit(span);
    }
    pass.execute_cpu = Cpu::now().since(execute0);
    pass.execute_s = execute_s;
    pass.wall_s = started.elapsed().as_secs_f64();

    // Correctness: each grid's ledger is complete, failure-free and has the
    // stored digest; then every serve must copy it byte for byte.
    let cache = ResultCache::open(&spool.cache_dir()).expect("cache directory in the spool");
    for (g, grid) in grids.iter().enumerate() {
        let job_id = &grid.job_id;
        let cells = grid.cells;
        pass.cells += cells;
        let path = spool.ledger_path(job_id);
        let bytes = fs::read(&path).unwrap_or_default();
        pass.ledger_bytes += bytes.len() as u64;
        let scan = ledger::scan(&path).ok();
        let digest = fnv1a(&bytes) ^ u64::from(ctx.expect_wrong);
        let want = expected::ledger_digest(&grid.spec.experiment, ctx.smoke, root_seed);
        let failure = if spool.job_state(job_id) != Some(JobState::Done) {
            Some(format!("{job_id}: job not done"))
        } else if scan.as_ref().and_then(|s| s.footer) != Some((cells, 0)) {
            Some(format!(
                "{job_id}: ledger footer {:?}, expected ({cells}, 0)",
                scan.and_then(|s| s.footer)
            ))
        } else if Some(digest) != want {
            Some(format!(
                "{job_id}: ledger digest {digest:016x}, expected {want:x?}"
            ))
        } else {
            None
        };
        // A wrong ledger fails every cell of its grid.
        for _ in 0..cells {
            out.op(failure.clone());
        }
        for r in 0..SERVES {
            let dest = dir.join(format!("served-{g}-{r}.jsonl"));
            let span = tracer.enter("serve", || job_id.clone());
            let t = Instant::now();
            let hit = cache.serve(grid.key, &grid.header, &dest);
            pass.serve_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tracer.exit(span);
            let failure = match hit {
                Ok(true) if fs::read(&dest).ok().as_deref() == Some(bytes.as_slice()) => None,
                Ok(true) => Some(format!(
                    "{job_id}: served ledger differs from the executed one"
                )),
                Ok(false) => Some(format!("{job_id}: cache miss")),
                Err(e) => Some(format!("{job_id}: serve failed: {e}")),
            };
            out.op(failure);
            if tracer.enabled() {
                let t = Instant::now();
                let found = cache.lookup(grid.key, &grid.header);
                pass.lookup_us.push(us(t));
                assert!(found.is_some(), "a served entry is found");
            }
        }
        if tracer.enabled() {
            let text = String::from_utf8_lossy(&bytes);
            let records: Vec<String> = text
                .lines()
                .skip(1)
                .filter(|l| !l.starts_with(ledger::FOOTER_PREFIX))
                .map(str::to_string)
                .collect();
            pass.lines.push((g, records));
        }
    }
    pass.cpu = Cpu::now().since(cpu0);
    remove(dir);
    pass
}

/// Appends real record lines to a fresh ledger, one fsync'd append each.
fn ledger_appends(dir: &Path, grids: &[Grid], lines: &[(usize, Vec<String>)]) -> Vec<f64> {
    fs::create_dir_all(dir).expect("scratch directory");
    let mut samples = Vec::new();
    for (g, records) in lines {
        let path = dir.join(format!("append-{g}.jsonl"));
        let mut ledger = Ledger::create(&path, &grids[*g].header).expect("fresh ledger");
        for (cell, line) in records.iter().take(64).enumerate() {
            let t = Instant::now();
            ledger
                .append_line(cell, line.clone())
                .expect("ledger append");
            samples.push(us(t));
        }
    }
    remove(dir);
    samples
}

/// Submit, claim and mark-done on a scratch spool, one call each per grid.
fn spool_lifecycle(dir: &Path, smoke: bool) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let spool = Spool::open(dir).expect("scratch spool");
    let (mut submit, mut claim, mut done) = (Vec::new(), Vec::new(), Vec::new());
    for seed in 0..16 {
        for spec in build_grids(1_000 + seed, smoke) {
            let t = Instant::now();
            spool.submit(&spec).expect("submit");
            submit.push(us(t));
            let t = Instant::now();
            let id = spool.claim_next().expect("claim").expect("a queued job");
            claim.push(us(t));
            let t = Instant::now();
            spool.mark_done(&id).expect("mark done");
            done.push(us(t));
        }
    }
    remove(dir);
    (submit, claim, done)
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let root_seed = ctx.seed % ROOT_SEEDS;
    let mut setup_s = Vec::new();
    let mut grids = Vec::new();
    for _ in 0..crate::SETUP_REPS {
        let started = Instant::now();
        grids = setup(root_seed, ctx.smoke);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    out.notes.push(format!(
        "grids: {} with root seed {root_seed}; {} cells per pass; {SERVES} serves per grid",
        grids
            .iter()
            .map(|g| g.job_id.as_str())
            .collect::<Vec<_>>()
            .join(" "),
        grids.iter().map(|g| g.cells).sum::<u64>()
    ));
    let dir = |i: usize| ctx.workdir.join(format!("spool-{i}"));

    if !ctx.trace {
        tracer.set_enabled(false);
        let passes = ctx.repeat_for(ctx.seconds, |i| {
            run_pass(&dir(i), &grids, root_seed, ctx, tracer, &mut out)
        });
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        let serves: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.serve_ms.iter().copied())
            .collect();
        out.notes.push(format!(
            "wall_s: median of {} passes; cache serve p50 {:.4} ms, p90 {:.4} ms over {} serves",
            walls.len(),
            quantile(&serves, 0.5),
            quantile(&serves, 0.9),
            serves.len()
        ));
        out.put("wall_s", median(&walls), "s");
        out.put("setup_s", median(&setup_s), "s");
        out.put("peak_rss_mib", probe::peak_rss_mib(), "MiB");
        return out;
    }

    let mut plain = Vec::new();
    let mut traced = Vec::new();
    ctx.repeat_for(ctx.seconds * 0.6, |i| {
        tracer.set_enabled(i % 2 == 1);
        let pass = run_pass(&dir(i), &grids, root_seed, ctx, tracer, &mut out);
        if i % 2 == 1 {
            traced.push(pass);
        } else {
            plain.push(pass);
        }
    });
    tracer.set_enabled(true);
    if traced.is_empty() {
        traced.push(run_pass(
            &dir(plain.len()),
            &grids,
            root_seed,
            ctx,
            tracer,
            &mut out,
        ));
    }
    let med = |f: &dyn Fn(&Pass) -> f64, passes: &[Pass]| {
        median(&passes.iter().map(f).collect::<Vec<_>>())
    };
    let last = traced.last().expect("at least one traced pass");

    let span = tracer.enter("micro.ledger_append", String::new);
    let appends = ledger_appends(&ctx.workdir.join("append"), &grids, &last.lines);
    tracer.exit(span);
    let span = tracer.enter("micro.spool", String::new);
    let (submit, claim, done) = spool_lifecycle(&ctx.workdir.join("lifecycle"), ctx.smoke);
    tracer.exit(span);

    // Engine loops on jobs sampled from the executed grids.
    let mut rng = SplitMix(ctx.seed ^ micro::SAMPLE_SALT);
    let all_jobs: Vec<_> = grids
        .iter()
        .flat_map(|g| g.spec.to_sweep().jobs())
        .collect();
    let jobs = (0..micro::JOBS)
        .map(|_| all_jobs[rng.below(all_jobs.len())].clone())
        .collect();
    micro::run_jobs(jobs, tracer, &mut out);
    micro::no_checker(&mut out);

    out.put(
        "bench.cells_per_s",
        med(&|p| p.cells as f64 / p.execute_s, &traced),
        "1/s",
    );
    out.put(
        "bench.cpu_util",
        med(
            &|p| p.execute_cpu.total() / (p.execute_s * ctx.nproc as f64),
            &traced,
        ),
        "ratio",
    );
    out.put("bench.ledger_append_us_p50", quantile(&appends, 0.5), "us");
    out.put("bench.ledger_append_us_p90", quantile(&appends, 0.9), "us");
    out.put("bench.ledger_bytes", last.ledger_bytes as f64, "B");
    let lookups: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.lookup_us.iter().copied())
        .collect();
    let serves: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.serve_ms.iter().map(|ms| ms * 1e3))
        .collect();
    out.put("bench.cache_lookup_us", median(&lookups), "us");
    out.put("bench.cache_serve_us", median(&serves), "us");
    out.put("bench.cache_serve_us_p90", quantile(&serves, 0.9), "us");
    let submits: Vec<f64> = submit
        .into_iter()
        .chain(traced.iter().flat_map(|p| p.submit_us.clone()))
        .collect();
    let claims: Vec<f64> = claim
        .into_iter()
        .chain(traced.iter().flat_map(|p| p.claim_us.clone()))
        .collect();
    out.put("sweepd.submit_us", median(&submits), "us");
    out.put("sweepd.claim_us", median(&claims), "us");
    out.put("sweepd.mark_done_us", median(&done), "us");
    out.put("proc.user_s", med(&|p| p.cpu.user_s, &traced), "s");
    out.put("proc.sys_s", med(&|p| p.cpu.sys_s, &traced), "s");
    let wall_t = med(&|p| p.wall_s, &traced);
    let wall_p = if plain.is_empty() {
        wall_t
    } else {
        med(&|p| p.wall_s, &plain)
    };
    out.put("trace.overhead_frac", wall_t / wall_p - 1.0, "ratio");
    out
}

/// Prints the stored ledger digests for every root seed.
pub fn print_expected(workdir: &Path, smoke: bool) {
    let dir = workdir.join("expected");
    for root_seed in 0..ROOT_SEEDS {
        let specs = build_grids(root_seed, smoke);
        let spool = Spool::open(&dir).expect("scratch spool");
        let digests: Vec<String> = specs
            .iter()
            .map(|spec| {
                spool.submit(spec).expect("submit");
                let id = spool.claim_next().expect("claim").expect("queued");
                execute_claimed(
                    &spool,
                    &id,
                    &DaemonOptions {
                        sequential: true,
                        poll_ms: 1,
                        drain: true,
                    },
                )
                .expect("execute");
                format!(
                    "0x{:016x}",
                    fnv1a(&fs::read(spool.ledger_path(&id)).expect("ledger"))
                )
            })
            .collect();
        println!("    [{}],", digests.join(", "));
        remove(&dir);
    }
}

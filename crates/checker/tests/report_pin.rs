//! Regression pin of the checker's observable output: every
//! [`ExploreReport`] field but the `peak_resident_*` accountants, the
//! storage stats `spilled_bytes` and `visited_spilled_bytes`, and the
//! rendered counterexample, for a fixed set of cells run through both entry
//! points at three storage budgets.
//!
//! The table below was generated by the batch expand-then-merge explorer
//! that preceded the discovery-order BFS; the rewrite had to reproduce it
//! byte for byte.  A change that alters a row on purpose regenerates the
//! table with
//!
//! ```text
//! PRINT_REPORT_PIN=1 cargo test -p rr-checker --test report_pin -- --nocapture
//! ```
//!
//! and justifies every changed row.

use rr_checker::explore::{
    check_protocol_quotient_with_stats, check_protocol_with_stats, CheckOutcome, ExploreOptions,
    ExploreReport, FaultBudget, MutatedProtocol, DEFAULT_MAX_STATES,
};
use rr_checker::{StoreKind, StoreStats};
use rr_corda::{Decision, InterleavingMode, Protocol, SimError, ViewIndex};
use rr_core::invariant::{AlignmentInvariant, GatheringInvariant, Invariant, SearchingInvariant};
use rr_core::unified::{protocol_for, Task};
use rr_core::{AlignProtocol, GatheringProtocol};
use rr_ring::enumerate::enumerate_rigid_configurations;
use rr_ring::Configuration;

const MODES: [InterleavingMode; 2] = [
    InterleavingMode::SsyncSubsets,
    InterleavingMode::AsyncPhases,
];

/// Storage budgets every case runs at: the unbudgeted in-memory store, and
/// the spill store with nothing resident and with 4 KiB resident.
const BUDGETS: [Option<u64>; 3] = [None, Some(0), Some(4096)];

type EntryPoint<P> = fn(
    &P,
    &Configuration,
    &dyn Invariant,
    &ExploreOptions,
) -> Result<(ExploreReport, StoreStats), SimError>;

fn outcome(report: &ExploreReport) -> String {
    match &report.outcome {
        CheckOutcome::Verified => "verified".to_string(),
        CheckOutcome::BudgetExceeded {
            discovered,
            completed_expansions,
        } => format!("budget {discovered}/{completed_expansions}"),
        CheckOutcome::Falsified(ce) => format!("{:?} {}", ce.kind, ce.render()),
    }
}

/// One row per (entry point, budget) for `initial`.
fn rows<P: Protocol + Clone + Send>(
    out: &mut Vec<String>,
    label: &str,
    protocol: &P,
    initial: &Configuration,
    invariant: &dyn Invariant,
    options: ExploreOptions,
) {
    let entries: [(&str, EntryPoint<P>); 2] = [
        ("exact", check_protocol_with_stats),
        ("quotient", check_protocol_quotient_with_stats),
    ];
    for (entry, check) in entries {
        for budget in BUDGETS {
            let options = match budget {
                None => options.with_store(StoreKind::Mem),
                Some(b) => options.with_store(StoreKind::Spill).with_mem_budget(b),
            };
            let (r, stats) = check(protocol, initial, invariant, &options).unwrap();
            let budget = budget.map_or("mem".to_string(), |b| format!("spill/{b}"));
            out.push(format!(
                "{label} {entry} {budget}: {} {} states={} quotient={} edges={} targets={} \
                 progress={} bytes={} spilled={} vspilled={} {}",
                r.invariant,
                r.interleaving,
                r.states,
                r.quotient_states,
                r.edges,
                r.target_states,
                r.progress_edges,
                r.state_bytes,
                stats.spilled_bytes,
                stats.visited_spilled_bytes,
                outcome(&r),
            ));
        }
    }
}

fn all_rows() -> Vec<String> {
    let mut out = Vec::new();
    for (n, k) in [(7usize, 3usize), (8, 4)] {
        for (class, initial) in enumerate_rigid_configurations(n, k).iter().enumerate() {
            for mode in MODES {
                let options = ExploreOptions::new(mode);
                rows(
                    &mut out,
                    &format!("gathering ({n},{k}) #{class} {mode}"),
                    &GatheringProtocol::new(),
                    initial,
                    &GatheringInvariant::new(),
                    options,
                );
                rows(
                    &mut out,
                    &format!("align ({n},{k}) #{class} {mode}"),
                    &AlignProtocol::new(),
                    initial,
                    &AlignmentInvariant::new(),
                    options,
                );
            }
        }
    }
    let searching = protocol_for(Task::GraphSearching, 10, 7).expect("feasible");
    for (class, initial) in enumerate_rigid_configurations(10, 7).iter().enumerate() {
        rows(
            &mut out,
            &format!("searching (10,7) #{class}"),
            &searching,
            initial,
            &SearchingInvariant::new(),
            ExploreOptions::new(InterleavingMode::SsyncSubsets),
        );
    }
    // The idle mutant (a liveness lasso) and the collision mutant (a
    // minimal safety trace).
    let initial = enumerate_rigid_configurations(7, 3).remove(0);
    let idle = MutatedProtocol::new(
        GatheringProtocol::new(),
        MutatedProtocol::<GatheringProtocol>::trigger_for(&initial),
        Decision::Idle,
    );
    let c_star = Configuration::from_gaps_at_origin(&[0, 0, 1, 3]);
    let collision = MutatedProtocol::new(
        AlignProtocol::new(),
        MutatedProtocol::<AlignProtocol>::trigger_for(&c_star),
        Decision::Move(ViewIndex::First),
    );
    for mode in MODES {
        let options = ExploreOptions::new(mode);
        rows(
            &mut out,
            &format!("idle mutant {mode}"),
            &idle,
            &initial,
            &GatheringInvariant::new(),
            options,
        );
        rows(
            &mut out,
            &format!("collision mutant {mode}"),
            &collision,
            &c_star,
            &AlignmentInvariant::new(),
            options,
        );
    }
    // State budgets that trip mid-frontier, and fault branching (crash
    // edges reuse their parent's packed state).
    let initial = enumerate_rigid_configurations(8, 4).remove(0);
    for mode in MODES {
        for max_states in [1usize, 37, 500] {
            rows(
                &mut out,
                &format!("gathering (8,4) #0 {mode} max={max_states}"),
                &GatheringProtocol::new(),
                &initial,
                &GatheringInvariant::new(),
                ExploreOptions::new(mode).with_max_states(max_states),
            );
        }
    }
    // Graphs of thousands of states: many windows, sealed and evicted state
    // clusters, and visited runs that seal and compact under 4 KiB.
    let initial = enumerate_rigid_configurations(10, 5).remove(0);
    rows(
        &mut out,
        "gathering (10,5) #0 async",
        &GatheringProtocol::new(),
        &initial,
        &GatheringInvariant::new(),
        ExploreOptions::new(InterleavingMode::AsyncPhases),
    );
    let searching = protocol_for(Task::GraphSearching, 11, 5).expect("feasible");
    let initial = enumerate_rigid_configurations(11, 5).remove(0);
    for max_states in [1500usize, DEFAULT_MAX_STATES] {
        rows(
            &mut out,
            &format!("searching (11,5) #0 async max={max_states}"),
            &searching,
            &initial,
            &SearchingInvariant::new(),
            ExploreOptions::new(InterleavingMode::AsyncPhases).with_max_states(max_states),
        );
    }
    let initial = enumerate_rigid_configurations(6, 3).remove(0);
    for mode in MODES {
        for (what, faults) in [
            ("crash", FaultBudget::none().with_crashes(1)),
            ("corrupt", FaultBudget::none().with_corrupt_looks(1)),
        ] {
            rows(
                &mut out,
                &format!("gathering (6,3) #0 {mode} {what}"),
                &GatheringProtocol::new(),
                &initial,
                &GatheringInvariant::new(),
                ExploreOptions::new(mode).with_faults(faults),
            );
        }
    }
    out
}

#[test]
fn reports_match_the_pinned_table() {
    let rows = all_rows();
    if std::env::var_os("PRINT_REPORT_PIN").is_some() {
        println!("const PINNED: &[&str] = &[");
        for row in &rows {
            println!("    {row:?},");
        }
        println!("];");
    }
    let mismatched: Vec<String> = rows
        .iter()
        .zip(PINNED)
        .filter(|(got, want)| got != *want)
        .map(|(got, want)| format!("  got:  {got}\n  want: {want}"))
        .collect();
    assert!(
        mismatched.is_empty(),
        "{} of {} rows differ:\n{}",
        mismatched.len(),
        rows.len(),
        mismatched.join("\n")
    );
    assert_eq!(rows.len(), PINNED.len(), "row count");
}

const PINNED: &[&str] = &[
    "gathering (7,3) #0 ssync exact mem: gathering ssync states=4 quotient=4 edges=28 targets=1 progress=0 bytes=32 spilled=0 vspilled=0 verified",
    "gathering (7,3) #0 ssync exact spill/0: gathering ssync states=4 quotient=4 edges=28 targets=1 progress=0 bytes=32 spilled=224 vspilled=256 verified",
    "gathering (7,3) #0 ssync exact spill/4096: gathering ssync states=4 quotient=4 edges=28 targets=1 progress=0 bytes=32 spilled=224 vspilled=0 verified",
    "gathering (7,3) #0 ssync quotient mem: gathering ssync states=4 quotient=4 edges=28 targets=1 progress=0 bytes=32 spilled=0 vspilled=0 verified",
    "gathering (7,3) #0 ssync quotient spill/0: gathering ssync states=4 quotient=4 edges=28 targets=1 progress=0 bytes=32 spilled=280 vspilled=256 verified",
    "gathering (7,3) #0 ssync quotient spill/4096: gathering ssync states=4 quotient=4 edges=28 targets=1 progress=0 bytes=32 spilled=280 vspilled=0 verified",
    "align (7,3) #0 ssync exact mem: alignment ssync states=1 quotient=1 edges=7 targets=1 progress=0 bytes=8 spilled=0 vspilled=0 verified",
    "align (7,3) #0 ssync exact spill/0: alignment ssync states=1 quotient=1 edges=7 targets=1 progress=0 bytes=8 spilled=56 vspilled=64 verified",
    "align (7,3) #0 ssync exact spill/4096: alignment ssync states=1 quotient=1 edges=7 targets=1 progress=0 bytes=8 spilled=56 vspilled=0 verified",
    "align (7,3) #0 ssync quotient mem: alignment ssync states=1 quotient=1 edges=7 targets=1 progress=0 bytes=8 spilled=0 vspilled=0 verified",
    "align (7,3) #0 ssync quotient spill/0: alignment ssync states=1 quotient=1 edges=7 targets=1 progress=0 bytes=8 spilled=70 vspilled=64 verified",
    "align (7,3) #0 ssync quotient spill/4096: alignment ssync states=1 quotient=1 edges=7 targets=1 progress=0 bytes=8 spilled=70 vspilled=0 verified",
    "gathering (7,3) #0 async exact mem: gathering async states=36 quotient=27 edges=108 targets=8 progress=0 bytes=288 spilled=0 vspilled=0 verified",
    "gathering (7,3) #0 async exact spill/0: gathering async states=36 quotient=27 edges=108 targets=8 progress=0 bytes=288 spilled=864 vspilled=2304 verified",
    "gathering (7,3) #0 async exact spill/4096: gathering async states=36 quotient=27 edges=108 targets=8 progress=0 bytes=288 spilled=864 vspilled=0 verified",
    "gathering (7,3) #0 async quotient mem: gathering async states=27 quotient=27 edges=81 targets=4 progress=0 bytes=216 spilled=0 vspilled=0 verified",
    "gathering (7,3) #0 async quotient spill/0: gathering async states=27 quotient=27 edges=81 targets=4 progress=0 bytes=216 spilled=810 vspilled=1728 verified",
    "gathering (7,3) #0 async quotient spill/4096: gathering async states=27 quotient=27 edges=81 targets=4 progress=0 bytes=216 spilled=810 vspilled=0 verified",
    "align (7,3) #0 async exact mem: alignment async states=8 quotient=8 edges=24 targets=8 progress=0 bytes=64 spilled=0 vspilled=0 verified",
    "align (7,3) #0 async exact spill/0: alignment async states=8 quotient=8 edges=24 targets=8 progress=0 bytes=64 spilled=192 vspilled=512 verified",
    "align (7,3) #0 async exact spill/4096: alignment async states=8 quotient=8 edges=24 targets=8 progress=0 bytes=64 spilled=192 vspilled=0 verified",
    "align (7,3) #0 async quotient mem: alignment async states=8 quotient=8 edges=24 targets=8 progress=0 bytes=64 spilled=0 vspilled=0 verified",
    "align (7,3) #0 async quotient spill/0: alignment async states=8 quotient=8 edges=24 targets=8 progress=0 bytes=64 spilled=240 vspilled=512 verified",
    "align (7,3) #0 async quotient spill/4096: alignment async states=8 quotient=8 edges=24 targets=8 progress=0 bytes=64 spilled=240 vspilled=0 verified",
    "gathering (8,4) #0 ssync exact mem: gathering ssync states=7 quotient=6 edges=105 targets=1 progress=0 bytes=56 spilled=0 vspilled=0 verified",
    "gathering (8,4) #0 ssync exact spill/0: gathering ssync states=7 quotient=6 edges=105 targets=1 progress=0 bytes=56 spilled=840 vspilled=448 verified",
    "gathering (8,4) #0 ssync exact spill/4096: gathering ssync states=7 quotient=6 edges=105 targets=1 progress=0 bytes=56 spilled=840 vspilled=0 verified",
    "gathering (8,4) #0 ssync quotient mem: gathering ssync states=6 quotient=6 edges=90 targets=1 progress=0 bytes=48 spilled=0 vspilled=0 verified",
    "gathering (8,4) #0 ssync quotient spill/0: gathering ssync states=6 quotient=6 edges=90 targets=1 progress=0 bytes=48 spilled=900 vspilled=384 verified",
    "gathering (8,4) #0 ssync quotient spill/4096: gathering ssync states=6 quotient=6 edges=90 targets=1 progress=0 bytes=48 spilled=900 vspilled=0 verified",
    "align (8,4) #0 ssync exact mem: alignment ssync states=1 quotient=1 edges=15 targets=1 progress=0 bytes=8 spilled=0 vspilled=0 verified",
    "align (8,4) #0 ssync exact spill/0: alignment ssync states=1 quotient=1 edges=15 targets=1 progress=0 bytes=8 spilled=120 vspilled=64 verified",
    "align (8,4) #0 ssync exact spill/4096: alignment ssync states=1 quotient=1 edges=15 targets=1 progress=0 bytes=8 spilled=120 vspilled=0 verified",
    "align (8,4) #0 ssync quotient mem: alignment ssync states=1 quotient=1 edges=15 targets=1 progress=0 bytes=8 spilled=0 vspilled=0 verified",
    "align (8,4) #0 ssync quotient spill/0: alignment ssync states=1 quotient=1 edges=15 targets=1 progress=0 bytes=8 spilled=150 vspilled=64 verified",
    "align (8,4) #0 ssync quotient spill/4096: alignment ssync states=1 quotient=1 edges=15 targets=1 progress=0 bytes=8 spilled=150 vspilled=0 verified",
    "gathering (8,4) #0 async exact mem: gathering async states=136 quotient=79 edges=544 targets=16 progress=0 bytes=1088 spilled=0 vspilled=0 verified",
    "gathering (8,4) #0 async exact spill/0: gathering async states=136 quotient=79 edges=544 targets=16 progress=0 bytes=1088 spilled=5933 vspilled=8704 verified",
    "gathering (8,4) #0 async exact spill/4096: gathering async states=136 quotient=79 edges=544 targets=16 progress=0 bytes=1088 spilled=5933 vspilled=4928 verified",
    "gathering (8,4) #0 async quotient mem: gathering async states=79 quotient=79 edges=316 targets=5 progress=0 bytes=632 spilled=0 vspilled=0 verified",
    "gathering (8,4) #0 async quotient spill/0: gathering async states=79 quotient=79 edges=316 targets=5 progress=0 bytes=632 spilled=3939 vspilled=5056 verified",
    "gathering (8,4) #0 async quotient spill/4096: gathering async states=79 quotient=79 edges=316 targets=5 progress=0 bytes=632 spilled=3939 vspilled=1216 verified",
    "align (8,4) #0 async exact mem: alignment async states=16 quotient=16 edges=64 targets=16 progress=0 bytes=128 spilled=0 vspilled=0 verified",
    "align (8,4) #0 async exact spill/0: alignment async states=16 quotient=16 edges=64 targets=16 progress=0 bytes=128 spilled=512 vspilled=1024 verified",
    "align (8,4) #0 async exact spill/4096: alignment async states=16 quotient=16 edges=64 targets=16 progress=0 bytes=128 spilled=512 vspilled=0 verified",
    "align (8,4) #0 async quotient mem: alignment async states=16 quotient=16 edges=64 targets=16 progress=0 bytes=128 spilled=0 vspilled=0 verified",
    "align (8,4) #0 async quotient spill/0: alignment async states=16 quotient=16 edges=64 targets=16 progress=0 bytes=128 spilled=640 vspilled=1024 verified",
    "align (8,4) #0 async quotient spill/4096: alignment async states=16 quotient=16 edges=64 targets=16 progress=0 bytes=128 spilled=640 vspilled=0 verified",
    "gathering (8,4) #1 ssync exact mem: gathering ssync states=9 quotient=8 edges=135 targets=1 progress=0 bytes=72 spilled=0 vspilled=0 verified",
    "gathering (8,4) #1 ssync exact spill/0: gathering ssync states=9 quotient=8 edges=135 targets=1 progress=0 bytes=72 spilled=1080 vspilled=576 verified",
    "gathering (8,4) #1 ssync exact spill/4096: gathering ssync states=9 quotient=8 edges=135 targets=1 progress=0 bytes=72 spilled=1080 vspilled=0 verified",
    "gathering (8,4) #1 ssync quotient mem: gathering ssync states=8 quotient=8 edges=120 targets=1 progress=0 bytes=64 spilled=0 vspilled=0 verified",
    "gathering (8,4) #1 ssync quotient spill/0: gathering ssync states=8 quotient=8 edges=120 targets=1 progress=0 bytes=64 spilled=1200 vspilled=512 verified",
    "gathering (8,4) #1 ssync quotient spill/4096: gathering ssync states=8 quotient=8 edges=120 targets=1 progress=0 bytes=64 spilled=1200 vspilled=0 verified",
    "align (8,4) #1 ssync exact mem: alignment ssync states=3 quotient=3 edges=45 targets=1 progress=0 bytes=24 spilled=0 vspilled=0 verified",
    "align (8,4) #1 ssync exact spill/0: alignment ssync states=3 quotient=3 edges=45 targets=1 progress=0 bytes=24 spilled=360 vspilled=192 verified",
    "align (8,4) #1 ssync exact spill/4096: alignment ssync states=3 quotient=3 edges=45 targets=1 progress=0 bytes=24 spilled=360 vspilled=0 verified",
    "align (8,4) #1 ssync quotient mem: alignment ssync states=3 quotient=3 edges=45 targets=1 progress=0 bytes=24 spilled=0 vspilled=0 verified",
    "align (8,4) #1 ssync quotient spill/0: alignment ssync states=3 quotient=3 edges=45 targets=1 progress=0 bytes=24 spilled=450 vspilled=192 verified",
    "align (8,4) #1 ssync quotient spill/4096: alignment ssync states=3 quotient=3 edges=45 targets=1 progress=0 bytes=24 spilled=450 vspilled=0 verified",
    "gathering (8,4) #1 async exact mem: gathering async states=184 quotient=123 edges=736 targets=16 progress=0 bytes=1472 spilled=0 vspilled=0 verified",
    "gathering (8,4) #1 async exact spill/0: gathering async states=184 quotient=123 edges=736 targets=16 progress=0 bytes=1472 spilled=7480 vspilled=13056 verified",
    "gathering (8,4) #1 async exact spill/4096: gathering async states=184 quotient=123 edges=736 targets=16 progress=0 bytes=1472 spilled=7480 vspilled=8000 verified",
    "gathering (8,4) #1 async quotient mem: gathering async states=123 quotient=123 edges=492 targets=5 progress=0 bytes=984 spilled=0 vspilled=0 verified",
    "gathering (8,4) #1 async quotient spill/0: gathering async states=123 quotient=123 edges=492 targets=5 progress=0 bytes=984 spilled=5716 vspilled=7872 verified",
    "gathering (8,4) #1 async quotient spill/4096: gathering async states=123 quotient=123 edges=492 targets=5 progress=0 bytes=984 spilled=5716 vspilled=4032 verified",
    "align (8,4) #1 async exact mem: alignment async states=56 quotient=52 edges=224 targets=16 progress=0 bytes=448 spilled=0 vspilled=0 verified",
    "align (8,4) #1 async exact spill/0: alignment async states=56 quotient=52 edges=224 targets=16 progress=0 bytes=448 spilled=1792 vspilled=3584 verified",
    "align (8,4) #1 async exact spill/4096: alignment async states=56 quotient=52 edges=224 targets=16 progress=0 bytes=448 spilled=1792 vspilled=0 verified",
    "align (8,4) #1 async quotient mem: alignment async states=52 quotient=52 edges=208 targets=16 progress=0 bytes=416 spilled=0 vspilled=0 verified",
    "align (8,4) #1 async quotient spill/0: alignment async states=52 quotient=52 edges=208 targets=16 progress=0 bytes=416 spilled=2080 vspilled=3328 verified",
    "align (8,4) #1 async quotient spill/4096: alignment async states=52 quotient=52 edges=208 targets=16 progress=0 bytes=416 spilled=2080 vspilled=0 verified",
    "searching (10,7) #0 exact mem: searching ssync states=212 quotient=4 edges=26924 targets=0 progress=4480 bytes=3392 spilled=0 vspilled=0 verified",
    "searching (10,7) #0 exact spill/0: searching ssync states=212 quotient=4 edges=26924 targets=0 progress=4480 bytes=3392 spilled=218580 vspilled=17024 verified",
    "searching (10,7) #0 exact spill/4096: searching ssync states=212 quotient=4 edges=26924 targets=0 progress=4480 bytes=3392 spilled=218580 vspilled=9792 verified",
    "searching (10,7) #0 quotient mem: searching ssync states=212 quotient=212 edges=26924 targets=0 progress=4480 bytes=3392 spilled=0 vspilled=0 verified",
    "searching (10,7) #0 quotient spill/0: searching ssync states=212 quotient=212 edges=26924 targets=0 progress=4480 bytes=3392 spilled=218580 vspilled=17024 verified",
    "searching (10,7) #0 quotient spill/4096: searching ssync states=212 quotient=212 edges=26924 targets=0 progress=4480 bytes=3392 spilled=218580 vspilled=9792 verified",
    "searching (10,7) #1 exact mem: searching ssync states=210 quotient=3 edges=26670 targets=0 progress=4480 bytes=3360 spilled=0 vspilled=0 verified",
    "searching (10,7) #1 exact spill/0: searching ssync states=210 quotient=3 edges=26670 targets=0 progress=4480 bytes=3360 spilled=216532 vspilled=16512 verified",
    "searching (10,7) #1 exact spill/4096: searching ssync states=210 quotient=3 edges=26670 targets=0 progress=4480 bytes=3360 spilled=216532 vspilled=9600 verified",
    "searching (10,7) #1 quotient mem: searching ssync states=210 quotient=210 edges=26670 targets=0 progress=4480 bytes=3360 spilled=0 vspilled=0 verified",
    "searching (10,7) #1 quotient spill/0: searching ssync states=210 quotient=210 edges=26670 targets=0 progress=4480 bytes=3360 spilled=216532 vspilled=16512 verified",
    "searching (10,7) #1 quotient spill/4096: searching ssync states=210 quotient=210 edges=26670 targets=0 progress=4480 bytes=3360 spilled=216532 vspilled=9600 verified",
    "searching (10,7) #2 exact mem: searching ssync states=210 quotient=3 edges=26670 targets=0 progress=4480 bytes=3360 spilled=0 vspilled=0 verified",
    "searching (10,7) #2 exact spill/0: searching ssync states=210 quotient=3 edges=26670 targets=0 progress=4480 bytes=3360 spilled=216505 vspilled=16128 verified",
    "searching (10,7) #2 exact spill/4096: searching ssync states=210 quotient=3 edges=26670 targets=0 progress=4480 bytes=3360 spilled=216505 vspilled=9600 verified",
    "searching (10,7) #2 quotient mem: searching ssync states=210 quotient=210 edges=26670 targets=0 progress=4480 bytes=3360 spilled=0 vspilled=0 verified",
    "searching (10,7) #2 quotient spill/0: searching ssync states=210 quotient=210 edges=26670 targets=0 progress=4480 bytes=3360 spilled=216505 vspilled=16128 verified",
    "searching (10,7) #2 quotient spill/4096: searching ssync states=210 quotient=210 edges=26670 targets=0 progress=4480 bytes=3360 spilled=216505 vspilled=9600 verified",
    "searching (10,7) #3 exact mem: searching ssync states=211 quotient=3 edges=26797 targets=0 progress=4480 bytes=3376 spilled=0 vspilled=0 verified",
    "searching (10,7) #3 exact spill/0: searching ssync states=211 quotient=3 edges=26797 targets=0 progress=4480 bytes=3376 spilled=217570 vspilled=16576 verified",
    "searching (10,7) #3 exact spill/4096: searching ssync states=211 quotient=3 edges=26797 targets=0 progress=4480 bytes=3376 spilled=217570 vspilled=9664 verified",
    "searching (10,7) #3 quotient mem: searching ssync states=211 quotient=211 edges=26797 targets=0 progress=4480 bytes=3376 spilled=0 vspilled=0 verified",
    "searching (10,7) #3 quotient spill/0: searching ssync states=211 quotient=211 edges=26797 targets=0 progress=4480 bytes=3376 spilled=217570 vspilled=16576 verified",
    "searching (10,7) #3 quotient spill/4096: searching ssync states=211 quotient=211 edges=26797 targets=0 progress=4480 bytes=3376 spilled=217570 vspilled=9664 verified",
    "idle mutant ssync exact mem: gathering ssync states=1 quotient=1 edges=7 targets=0 progress=0 bytes=8 spilled=0 vspilled=0 Liveness fair schedule (every robot activated in each cycle iteration) never reaching the target:  (R{0} R{1} R{2})*",
    "idle mutant ssync exact spill/0: gathering ssync states=1 quotient=1 edges=7 targets=0 progress=0 bytes=8 spilled=56 vspilled=64 Liveness fair schedule (every robot activated in each cycle iteration) never reaching the target:  (R{0} R{1} R{2})*",
    "idle mutant ssync exact spill/4096: gathering ssync states=1 quotient=1 edges=7 targets=0 progress=0 bytes=8 spilled=56 vspilled=0 Liveness fair schedule (every robot activated in each cycle iteration) never reaching the target:  (R{0} R{1} R{2})*",
    "idle mutant ssync quotient mem: gathering ssync states=1 quotient=1 edges=7 targets=0 progress=0 bytes=8 spilled=0 vspilled=0 Liveness fair schedule (every robot activated in each cycle iteration) never reaching the target:  (R{0} R{1} R{2})*",
    "idle mutant ssync quotient spill/0: gathering ssync states=1 quotient=1 edges=7 targets=0 progress=0 bytes=8 spilled=70 vspilled=64 Liveness fair schedule (every robot activated in each cycle iteration) never reaching the target:  (R{0} R{1} R{2})*",
    "idle mutant ssync quotient spill/4096: gathering ssync states=1 quotient=1 edges=7 targets=0 progress=0 bytes=8 spilled=70 vspilled=0 Liveness fair schedule (every robot activated in each cycle iteration) never reaching the target:  (R{0} R{1} R{2})*",
    "collision mutant ssync exact mem: alignment ssync states=1 quotient=1 edges=0 targets=1 progress=0 bytes=8 spilled=0 vspilled=0 Safety robot 0 moved onto occupied node 1 while exclusivity is required: R{0}",
    "collision mutant ssync exact spill/0: alignment ssync states=1 quotient=1 edges=0 targets=1 progress=0 bytes=8 spilled=0 vspilled=0 Safety robot 0 moved onto occupied node 1 while exclusivity is required: R{0}",
    "collision mutant ssync exact spill/4096: alignment ssync states=1 quotient=1 edges=0 targets=1 progress=0 bytes=8 spilled=0 vspilled=0 Safety robot 0 moved onto occupied node 1 while exclusivity is required: R{0}",
    "collision mutant ssync quotient mem: alignment ssync states=1 quotient=1 edges=0 targets=1 progress=0 bytes=8 spilled=0 vspilled=0 Safety robot 0 moved onto occupied node 1 while exclusivity is required: R{0}",
    "collision mutant ssync quotient spill/0: alignment ssync states=1 quotient=1 edges=0 targets=1 progress=0 bytes=8 spilled=0 vspilled=0 Safety robot 0 moved onto occupied node 1 while exclusivity is required: R{0}",
    "collision mutant ssync quotient spill/4096: alignment ssync states=1 quotient=1 edges=0 targets=1 progress=0 bytes=8 spilled=0 vspilled=0 Safety robot 0 moved onto occupied node 1 while exclusivity is required: R{0}",
    "idle mutant async exact mem: gathering async states=8 quotient=8 edges=24 targets=0 progress=0 bytes=64 spilled=0 vspilled=0 Liveness fair schedule (every robot activated in each cycle iteration) never reaching the target:  (L0 L1 L2 E0 E1 E2)*",
    "idle mutant async exact spill/0: gathering async states=8 quotient=8 edges=24 targets=0 progress=0 bytes=64 spilled=192 vspilled=512 Liveness fair schedule (every robot activated in each cycle iteration) never reaching the target:  (L0 L1 L2 E0 E1 E2)*",
    "idle mutant async exact spill/4096: gathering async states=8 quotient=8 edges=24 targets=0 progress=0 bytes=64 spilled=192 vspilled=0 Liveness fair schedule (every robot activated in each cycle iteration) never reaching the target:  (L0 L1 L2 E0 E1 E2)*",
    "idle mutant async quotient mem: gathering async states=8 quotient=8 edges=24 targets=0 progress=0 bytes=64 spilled=0 vspilled=0 Liveness fair schedule (every robot activated in each cycle iteration) never reaching the target:  (L0 L1 L2 E0 E1 E2)*",
    "idle mutant async quotient spill/0: gathering async states=8 quotient=8 edges=24 targets=0 progress=0 bytes=64 spilled=240 vspilled=512 Liveness fair schedule (every robot activated in each cycle iteration) never reaching the target:  (L0 L1 L2 E0 E1 E2)*",
    "idle mutant async quotient spill/4096: gathering async states=8 quotient=8 edges=24 targets=0 progress=0 bytes=64 spilled=240 vspilled=0 Liveness fair schedule (every robot activated in each cycle iteration) never reaching the target:  (L0 L1 L2 E0 E1 E2)*",
    "collision mutant async exact mem: alignment async states=5 quotient=5 edges=4 targets=1 progress=0 bytes=40 spilled=0 vspilled=0 Safety robot 0 moved onto occupied node 1 while exclusivity is required: L0 E0",
    "collision mutant async exact spill/0: alignment async states=5 quotient=5 edges=4 targets=1 progress=0 bytes=40 spilled=32 vspilled=320 Safety robot 0 moved onto occupied node 1 while exclusivity is required: L0 E0",
    "collision mutant async exact spill/4096: alignment async states=5 quotient=5 edges=4 targets=1 progress=0 bytes=40 spilled=32 vspilled=0 Safety robot 0 moved onto occupied node 1 while exclusivity is required: L0 E0",
    "collision mutant async quotient mem: alignment async states=5 quotient=5 edges=4 targets=1 progress=0 bytes=40 spilled=0 vspilled=0 Safety robot 0 moved onto occupied node 1 while exclusivity is required: L0 E0",
    "collision mutant async quotient spill/0: alignment async states=5 quotient=5 edges=4 targets=1 progress=0 bytes=40 spilled=40 vspilled=320 Safety robot 0 moved onto occupied node 1 while exclusivity is required: L0 E0",
    "collision mutant async quotient spill/4096: alignment async states=5 quotient=5 edges=4 targets=1 progress=0 bytes=40 spilled=40 vspilled=0 Safety robot 0 moved onto occupied node 1 while exclusivity is required: L0 E0",
    "gathering (8,4) #0 ssync max=1 exact mem: gathering ssync states=1 quotient=1 edges=0 targets=0 progress=0 bytes=8 spilled=0 vspilled=0 budget 1/0",
    "gathering (8,4) #0 ssync max=1 exact spill/0: gathering ssync states=1 quotient=1 edges=0 targets=0 progress=0 bytes=8 spilled=0 vspilled=0 budget 1/0",
    "gathering (8,4) #0 ssync max=1 exact spill/4096: gathering ssync states=1 quotient=1 edges=0 targets=0 progress=0 bytes=8 spilled=0 vspilled=0 budget 1/0",
    "gathering (8,4) #0 ssync max=1 quotient mem: gathering ssync states=1 quotient=1 edges=0 targets=0 progress=0 bytes=8 spilled=0 vspilled=0 budget 1/0",
    "gathering (8,4) #0 ssync max=1 quotient spill/0: gathering ssync states=1 quotient=1 edges=0 targets=0 progress=0 bytes=8 spilled=0 vspilled=0 budget 1/0",
    "gathering (8,4) #0 ssync max=1 quotient spill/4096: gathering ssync states=1 quotient=1 edges=0 targets=0 progress=0 bytes=8 spilled=0 vspilled=0 budget 1/0",
    "gathering (8,4) #0 ssync max=37 exact mem: gathering ssync states=7 quotient=6 edges=105 targets=1 progress=0 bytes=56 spilled=0 vspilled=0 verified",
    "gathering (8,4) #0 ssync max=37 exact spill/0: gathering ssync states=7 quotient=6 edges=105 targets=1 progress=0 bytes=56 spilled=840 vspilled=448 verified",
    "gathering (8,4) #0 ssync max=37 exact spill/4096: gathering ssync states=7 quotient=6 edges=105 targets=1 progress=0 bytes=56 spilled=840 vspilled=0 verified",
    "gathering (8,4) #0 ssync max=37 quotient mem: gathering ssync states=6 quotient=6 edges=90 targets=1 progress=0 bytes=48 spilled=0 vspilled=0 verified",
    "gathering (8,4) #0 ssync max=37 quotient spill/0: gathering ssync states=6 quotient=6 edges=90 targets=1 progress=0 bytes=48 spilled=900 vspilled=384 verified",
    "gathering (8,4) #0 ssync max=37 quotient spill/4096: gathering ssync states=6 quotient=6 edges=90 targets=1 progress=0 bytes=48 spilled=900 vspilled=0 verified",
    "gathering (8,4) #0 ssync max=500 exact mem: gathering ssync states=7 quotient=6 edges=105 targets=1 progress=0 bytes=56 spilled=0 vspilled=0 verified",
    "gathering (8,4) #0 ssync max=500 exact spill/0: gathering ssync states=7 quotient=6 edges=105 targets=1 progress=0 bytes=56 spilled=840 vspilled=448 verified",
    "gathering (8,4) #0 ssync max=500 exact spill/4096: gathering ssync states=7 quotient=6 edges=105 targets=1 progress=0 bytes=56 spilled=840 vspilled=0 verified",
    "gathering (8,4) #0 ssync max=500 quotient mem: gathering ssync states=6 quotient=6 edges=90 targets=1 progress=0 bytes=48 spilled=0 vspilled=0 verified",
    "gathering (8,4) #0 ssync max=500 quotient spill/0: gathering ssync states=6 quotient=6 edges=90 targets=1 progress=0 bytes=48 spilled=900 vspilled=384 verified",
    "gathering (8,4) #0 ssync max=500 quotient spill/4096: gathering ssync states=6 quotient=6 edges=90 targets=1 progress=0 bytes=48 spilled=900 vspilled=0 verified",
    "gathering (8,4) #0 async max=1 exact mem: gathering async states=1 quotient=1 edges=0 targets=0 progress=0 bytes=8 spilled=0 vspilled=0 budget 1/0",
    "gathering (8,4) #0 async max=1 exact spill/0: gathering async states=1 quotient=1 edges=0 targets=0 progress=0 bytes=8 spilled=0 vspilled=0 budget 1/0",
    "gathering (8,4) #0 async max=1 exact spill/4096: gathering async states=1 quotient=1 edges=0 targets=0 progress=0 bytes=8 spilled=0 vspilled=0 budget 1/0",
    "gathering (8,4) #0 async max=1 quotient mem: gathering async states=1 quotient=1 edges=0 targets=0 progress=0 bytes=8 spilled=0 vspilled=0 budget 1/0",
    "gathering (8,4) #0 async max=1 quotient spill/0: gathering async states=1 quotient=1 edges=0 targets=0 progress=0 bytes=8 spilled=0 vspilled=0 budget 1/0",
    "gathering (8,4) #0 async max=1 quotient spill/4096: gathering async states=1 quotient=1 edges=0 targets=0 progress=0 bytes=8 spilled=0 vspilled=0 budget 1/0",
    "gathering (8,4) #0 async max=37 exact mem: gathering async states=37 quotient=32 edges=89 targets=0 progress=0 bytes=296 spilled=0 vspilled=0 budget 37/22",
    "gathering (8,4) #0 async max=37 exact spill/0: gathering async states=37 quotient=32 edges=89 targets=0 progress=0 bytes=296 spilled=712 vspilled=2112 budget 37/22",
    "gathering (8,4) #0 async max=37 exact spill/4096: gathering async states=37 quotient=32 edges=89 targets=0 progress=0 bytes=296 spilled=712 vspilled=0 budget 37/22",
    "gathering (8,4) #0 async max=37 quotient mem: gathering async states=37 quotient=37 edges=103 targets=0 progress=0 bytes=296 spilled=0 vspilled=0 budget 37/25",
    "gathering (8,4) #0 async max=37 quotient spill/0: gathering async states=37 quotient=37 edges=103 targets=0 progress=0 bytes=296 spilled=1030 vspilled=1856 budget 37/25",
    "gathering (8,4) #0 async max=37 quotient spill/4096: gathering async states=37 quotient=37 edges=103 targets=0 progress=0 bytes=296 spilled=1030 vspilled=0 budget 37/25",
    "gathering (8,4) #0 async max=500 exact mem: gathering async states=136 quotient=79 edges=544 targets=16 progress=0 bytes=1088 spilled=0 vspilled=0 verified",
    "gathering (8,4) #0 async max=500 exact spill/0: gathering async states=136 quotient=79 edges=544 targets=16 progress=0 bytes=1088 spilled=5933 vspilled=8704 verified",
    "gathering (8,4) #0 async max=500 exact spill/4096: gathering async states=136 quotient=79 edges=544 targets=16 progress=0 bytes=1088 spilled=5933 vspilled=4928 verified",
    "gathering (8,4) #0 async max=500 quotient mem: gathering async states=79 quotient=79 edges=316 targets=5 progress=0 bytes=632 spilled=0 vspilled=0 verified",
    "gathering (8,4) #0 async max=500 quotient spill/0: gathering async states=79 quotient=79 edges=316 targets=5 progress=0 bytes=632 spilled=3939 vspilled=5056 verified",
    "gathering (8,4) #0 async max=500 quotient spill/4096: gathering async states=79 quotient=79 edges=316 targets=5 progress=0 bytes=632 spilled=3939 vspilled=1216 verified",
    "gathering (10,5) #0 async exact mem: gathering async states=720 quotient=235 edges=3600 targets=32 progress=0 bytes=11520 spilled=0 vspilled=0 verified",
    "gathering (10,5) #0 async exact spill/0: gathering async states=720 quotient=235 edges=3600 targets=32 progress=0 bytes=11520 spilled=38426 vspilled=77504 verified",
    "gathering (10,5) #0 async exact spill/4096: gathering async states=720 quotient=235 edges=3600 targets=32 progress=0 bytes=11520 spilled=38426 vspilled=42304 verified",
    "gathering (10,5) #0 async quotient mem: gathering async states=235 quotient=235 edges=1175 targets=6 progress=0 bytes=3760 spilled=0 vspilled=0 verified",
    "gathering (10,5) #0 async quotient spill/0: gathering async states=235 quotient=235 edges=1175 targets=6 progress=0 bytes=3760 spilled=15490 vspilled=17600 verified",
    "gathering (10,5) #0 async quotient spill/4096: gathering async states=235 quotient=235 edges=1175 targets=6 progress=0 bytes=3760 spilled=15490 vspilled=11200 verified",
    "searching (11,5) #0 async max=1500 exact mem: searching async states=1500 quotient=272 edges=7398 targets=0 progress=94 bytes=24000 spilled=0 vspilled=0 budget 1500/1479",
    "searching (11,5) #0 async max=1500 exact spill/0: searching async states=1500 quotient=272 edges=7398 targets=0 progress=94 bytes=24000 spilled=79692 vspilled=304000 budget 1500/1479",
    "searching (11,5) #0 async max=1500 exact spill/4096: searching async states=1500 quotient=272 edges=7398 targets=0 progress=94 bytes=24000 spilled=79692 vspilled=156160 budget 1500/1479",
    "searching (11,5) #0 async max=1500 quotient mem: searching async states=1500 quotient=1500 edges=7398 targets=0 progress=94 bytes=24000 spilled=0 vspilled=0 budget 1500/1479",
    "searching (11,5) #0 async max=1500 quotient spill/0: searching async states=1500 quotient=1500 edges=7398 targets=0 progress=94 bytes=24000 spilled=79692 vspilled=304000 budget 1500/1479",
    "searching (11,5) #0 async max=1500 quotient spill/4096: searching async states=1500 quotient=1500 edges=7398 targets=0 progress=94 bytes=24000 spilled=79692 vspilled=156160 budget 1500/1479",
    "searching (11,5) #0 async max=4000000 exact mem: searching async states=13392 quotient=272 edges=66960 targets=0 progress=880 bytes=214272 spilled=0 vspilled=0 verified",
    "searching (11,5) #0 async max=4000000 exact spill/0: searching async states=13392 quotient=272 edges=66960 targets=0 progress=880 bytes=214272 spilled=721234 vspilled=16468992 verified",
    "searching (11,5) #0 async max=4000000 exact spill/4096: searching async states=13392 quotient=272 edges=66960 targets=0 progress=880 bytes=214272 spilled=721234 vspilled=6857216 verified",
    "searching (11,5) #0 async max=4000000 quotient mem: searching async states=13392 quotient=13392 edges=66960 targets=0 progress=880 bytes=214272 spilled=0 vspilled=0 verified",
    "searching (11,5) #0 async max=4000000 quotient spill/0: searching async states=13392 quotient=13392 edges=66960 targets=0 progress=880 bytes=214272 spilled=721234 vspilled=16468992 verified",
    "searching (11,5) #0 async max=4000000 quotient spill/4096: searching async states=13392 quotient=13392 edges=66960 targets=0 progress=880 bytes=214272 spilled=721234 vspilled=6857216 verified",
    "gathering (6,3) #0 ssync crash exact mem: gathering ssync states=16 quotient=4 edges=76 targets=4 progress=0 bytes=128 spilled=0 vspilled=0 Liveness fair-modulo-faults schedule (every non-crashed, non-starved robot activated in each cycle iteration) never reaching the target: R{0} R{2} (R{0} R{1})* [crash 2 @2]",
    "gathering (6,3) #0 ssync crash exact spill/0: gathering ssync states=16 quotient=4 edges=76 targets=4 progress=0 bytes=128 spilled=608 vspilled=1024 Liveness fair-modulo-faults schedule (every non-crashed, non-starved robot activated in each cycle iteration) never reaching the target: R{0} R{2} (R{0} R{1})* [crash 2 @2]",
    "gathering (6,3) #0 ssync crash exact spill/4096: gathering ssync states=16 quotient=4 edges=76 targets=4 progress=0 bytes=128 spilled=608 vspilled=0 Liveness fair-modulo-faults schedule (every non-crashed, non-starved robot activated in each cycle iteration) never reaching the target: R{0} R{2} (R{0} R{1})* [crash 2 @2]",
    "gathering (6,3) #0 ssync crash quotient mem: gathering ssync states=16 quotient=16 edges=76 targets=4 progress=0 bytes=128 spilled=0 vspilled=0 Liveness fair-modulo-faults schedule (every non-crashed, non-starved robot activated in each cycle iteration) never reaching the target: R{0} R{2} (R{0} R{1})* [crash 2 @2]",
    "gathering (6,3) #0 ssync crash quotient spill/0: gathering ssync states=16 quotient=16 edges=76 targets=4 progress=0 bytes=128 spilled=608 vspilled=1024 Liveness fair-modulo-faults schedule (every non-crashed, non-starved robot activated in each cycle iteration) never reaching the target: R{0} R{2} (R{0} R{1})* [crash 2 @2]",
    "gathering (6,3) #0 ssync crash quotient spill/4096: gathering ssync states=16 quotient=16 edges=76 targets=4 progress=0 bytes=128 spilled=608 vspilled=0 Liveness fair-modulo-faults schedule (every non-crashed, non-starved robot activated in each cycle iteration) never reaching the target: R{0} R{2} (R{0} R{1})* [crash 2 @2]",
    "gathering (6,3) #0 ssync corrupt exact mem: gathering ssync states=15 quotient=5 edges=201 targets=3 progress=0 bytes=120 spilled=0 vspilled=0 Liveness fair schedule (every robot activated in each cycle iteration) never reaching the target: R{0} R{0} (R{0} R{1} R{2})* [corrupt 0 missing @1]",
    "gathering (6,3) #0 ssync corrupt exact spill/0: gathering ssync states=15 quotient=5 edges=201 targets=3 progress=0 bytes=120 spilled=1608 vspilled=960 Liveness fair schedule (every robot activated in each cycle iteration) never reaching the target: R{0} R{0} (R{0} R{1} R{2})* [corrupt 0 missing @1]",
    "gathering (6,3) #0 ssync corrupt exact spill/4096: gathering ssync states=15 quotient=5 edges=201 targets=3 progress=0 bytes=120 spilled=1608 vspilled=0 Liveness fair schedule (every robot activated in each cycle iteration) never reaching the target: R{0} R{0} (R{0} R{1} R{2})* [corrupt 0 missing @1]",
    "gathering (6,3) #0 ssync corrupt quotient mem: gathering ssync states=15 quotient=15 edges=201 targets=3 progress=0 bytes=120 spilled=0 vspilled=0 Liveness fair schedule (every robot activated in each cycle iteration) never reaching the target: R{0} R{0} (R{0} R{1} R{2})* [corrupt 0 missing @1]",
    "gathering (6,3) #0 ssync corrupt quotient spill/0: gathering ssync states=15 quotient=15 edges=201 targets=3 progress=0 bytes=120 spilled=1608 vspilled=960 Liveness fair schedule (every robot activated in each cycle iteration) never reaching the target: R{0} R{0} (R{0} R{1} R{2})* [corrupt 0 missing @1]",
    "gathering (6,3) #0 ssync corrupt quotient spill/4096: gathering ssync states=15 quotient=15 edges=201 targets=3 progress=0 bytes=120 spilled=1608 vspilled=0 Liveness fair schedule (every robot activated in each cycle iteration) never reaching the target: R{0} R{0} (R{0} R{1} R{2})* [corrupt 0 missing @1]",
    "gathering (6,3) #0 async crash exact mem: gathering async states=144 quotient=27 edges=432 targets=32 progress=0 bytes=1152 spilled=0 vspilled=0 Liveness fair-modulo-faults schedule (every non-crashed, non-starved robot activated in each cycle iteration) never reaching the target: L0 E0 L2 E2 L2 (L0 L1 E0 E1)* [crash 2 @5]",
    "gathering (6,3) #0 async crash exact spill/0: gathering async states=144 quotient=27 edges=432 targets=32 progress=0 bytes=1152 spilled=4912 vspilled=9216 Liveness fair-modulo-faults schedule (every non-crashed, non-starved robot activated in each cycle iteration) never reaching the target: L0 E0 L2 E2 L2 (L0 L1 E0 E1)* [crash 2 @5]",
    "gathering (6,3) #0 async crash exact spill/4096: gathering async states=144 quotient=27 edges=432 targets=32 progress=0 bytes=1152 spilled=4912 vspilled=5376 Liveness fair-modulo-faults schedule (every non-crashed, non-starved robot activated in each cycle iteration) never reaching the target: L0 E0 L2 E2 L2 (L0 L1 E0 E1)* [crash 2 @5]",
    "gathering (6,3) #0 async crash quotient mem: gathering async states=144 quotient=144 edges=432 targets=32 progress=0 bytes=1152 spilled=0 vspilled=0 Liveness fair-modulo-faults schedule (every non-crashed, non-starved robot activated in each cycle iteration) never reaching the target: L0 E0 L2 E2 L2 (L0 L1 E0 E1)* [crash 2 @5]",
    "gathering (6,3) #0 async crash quotient spill/0: gathering async states=144 quotient=144 edges=432 targets=32 progress=0 bytes=1152 spilled=4912 vspilled=9216 Liveness fair-modulo-faults schedule (every non-crashed, non-starved robot activated in each cycle iteration) never reaching the target: L0 E0 L2 E2 L2 (L0 L1 E0 E1)* [crash 2 @5]",
    "gathering (6,3) #0 async crash quotient spill/4096: gathering async states=144 quotient=144 edges=432 targets=32 progress=0 bytes=1152 spilled=4912 vspilled=5376 Liveness fair-modulo-faults schedule (every non-crashed, non-starved robot activated in each cycle iteration) never reaching the target: L0 E0 L2 E2 L2 (L0 L1 E0 E1)* [crash 2 @5]",
    "gathering (6,3) #0 async corrupt exact mem: gathering async states=276 quotient=55 edges=932 targets=24 progress=0 bytes=2208 spilled=0 vspilled=0 Liveness fair schedule (every robot activated in each cycle iteration) never reaching the target: L0 E0 L2 E2 L0 (L1 L2 E0 E1 L1 E2 L0 E1 L2 E0 L1 E2 L0 E1)* [corrupt 0 missing @4]",
    "gathering (6,3) #0 async corrupt exact spill/0: gathering async states=276 quotient=55 edges=932 targets=24 progress=0 bytes=2208 spilled=10443 vspilled=22208 Liveness fair schedule (every robot activated in each cycle iteration) never reaching the target: L0 E0 L2 E2 L0 (L1 L2 E0 E1 L1 E2 L0 E1 L2 E0 L1 E2 L0 E1)* [corrupt 0 missing @4]",
    "gathering (6,3) #0 async corrupt exact spill/4096: gathering async states=276 quotient=55 edges=932 targets=24 progress=0 bytes=2208 spilled=10443 vspilled=13824 Liveness fair schedule (every robot activated in each cycle iteration) never reaching the target: L0 E0 L2 E2 L0 (L1 L2 E0 E1 L1 E2 L0 E1 L2 E0 L1 E2 L0 E1)* [corrupt 0 missing @4]",
    "gathering (6,3) #0 async corrupt quotient mem: gathering async states=276 quotient=276 edges=932 targets=24 progress=0 bytes=2208 spilled=0 vspilled=0 Liveness fair schedule (every robot activated in each cycle iteration) never reaching the target: L0 E0 L2 E2 L0 (L1 L2 E0 E1 L1 E2 L0 E1 L2 E0 L1 E2 L0 E1)* [corrupt 0 missing @4]",
    "gathering (6,3) #0 async corrupt quotient spill/0: gathering async states=276 quotient=276 edges=932 targets=24 progress=0 bytes=2208 spilled=10443 vspilled=22208 Liveness fair schedule (every robot activated in each cycle iteration) never reaching the target: L0 E0 L2 E2 L0 (L1 L2 E0 E1 L1 E2 L0 E1 L2 E0 L1 E2 L0 E1)* [corrupt 0 missing @4]",
    "gathering (6,3) #0 async corrupt quotient spill/4096: gathering async states=276 quotient=276 edges=932 targets=24 progress=0 bytes=2208 spilled=10443 vspilled=13824 Liveness fair schedule (every robot activated in each cycle iteration) never reaching the target: L0 E0 L2 E2 L0 (L1 L2 E0 E1 L1 E2 L0 E1 L2 E0 L1 E2 L0 E1)* [corrupt 0 missing @4]",
];

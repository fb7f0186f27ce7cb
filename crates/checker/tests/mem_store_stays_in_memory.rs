//! An unbudgeted check (`StoreKind::Mem`) runs through the same stores as a
//! spilling one, but must never create a file: its state store never seals
//! a cluster, its edge store never flushes and its visited map never seals
//! a run.
//!
//! The test points `TMPDIR` at a directory that does not exist, so any spill
//! file the check tried to create would panic.  It runs in its own
//! integration binary, hence its own process: the changed environment
//! cannot leak into `spill_cleanup.rs`, which needs a working temp dir.

use rr_checker::explore::{check_protocol_with_stats, ExploreOptions};
use rr_checker::StoreKind;
use rr_corda::InterleavingMode;
use rr_core::invariant::GatheringInvariant;
use rr_core::GatheringProtocol;
use rr_ring::enumerate::enumerate_rigid_configurations;

#[test]
fn an_unbudgeted_check_creates_no_temp_file() {
    let missing =
        std::env::temp_dir().join(format!("rr-checker-no-such-dir-{}", std::process::id()));
    assert!(!missing.exists());
    std::env::set_var("TMPDIR", &missing);
    assert_eq!(std::env::temp_dir(), missing);

    // The same liveness check spill_cleanup.rs runs under a 1 KiB budget,
    // where all three spill files exist during the run.
    let initial = enumerate_rigid_configurations(9, 4).remove(1);
    let (report, stats) = check_protocol_with_stats(
        &GatheringProtocol::new(),
        &initial,
        &GatheringInvariant::new(),
        &ExploreOptions::new(InterleavingMode::AsyncPhases).with_store(StoreKind::Mem),
    )
    .unwrap();
    assert!(report.verified(), "{:?}", report.outcome);
    assert_eq!(stats.store, StoreKind::Mem);
    assert_eq!(stats.spilled_bytes, 0);
    assert_eq!(stats.visited_spilled_bytes, 0);
    assert!(!missing.exists());
}

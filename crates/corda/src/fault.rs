//! Fault-injection adversaries: crash-stop robots, transient sensor
//! corruption, and bounded-unfair scheduling.
//!
//! The paper's correctness claims are proved under *clean* adversaries: every
//! robot eventually acts, and every Look observes the true configuration.
//! This module makes the complementary fault adversaries first-class, as a
//! deterministic, seed-derivable [`FaultModel`] the engine arms explicitly
//! ([`Engine::arm_fault`](crate::engine::Engine::arm_fault)):
//!
//! * **crash-stop** ([`FaultModel::Crash`]) — a robot permanently stops being
//!   activated once the global step counter reaches a chosen round.  The
//!   scheduler keeps issuing activations (it does not know); the engine
//!   suppresses them, freezing the robot's position and any pending action
//!   forever;
//! * **transient sensor corruption** ([`FaultModel::CorruptLook`]) — exactly
//!   one fresh Look (identified by its global look ordinal) observes a
//!   snapshot with one bounded perturbation: a phantom or a missing
//!   multiplicity flag ([`CorruptionKind`], applied by
//!   [`Snapshot::corrupt`](crate::snapshot::Snapshot::corrupt));
//! * **bounded-unfair scheduling** ([`FaultModel::BoundedUnfair`]) — the
//!   fairness window is stretched for one victim robot, which the adversary
//!   withholds for up to a budget `B` of scheduler steps (`u64::MAX` = starve
//!   forever).  This fault lives in the *scheduler*
//!   ([`BoundedUnfairScheduler`](crate::scheduler::BoundedUnfairScheduler)),
//!   not the engine: the engine still executes whatever it is handed.
//!
//! [`FaultModel::None`] is the contract that makes faults safe to thread
//! through the hot paths: an engine with no fault armed is **byte-identical**
//! to the pre-fault engine — same reports, same traces, same counters, same
//! `rr-sweep/v1` record bytes (pinned by `crates/corda/tests/fault_lockstep.rs`
//! and the bench golden files, which is why arming `None` does not bump
//! [`crate::ENGINE_VERSION`]).
//!
//! The exhaustive checker (`rr_checker::explore`) does not use seeded
//! schedules: it branches over the *choices* of the fault adversary (which
//! robot crashes, when; which Look is corrupted, how) as explicit frontier
//! edges, arming one-shot fault models per edge.

use serde::{Deserialize, Serialize};

use crate::robot::RobotId;

/// The bounded perturbation a corrupted Look applies to its snapshot.
///
/// Both perturbations touch only the multiplicity channel — the gap views
/// stay truthful, so the corruption is *bounded* in the sense of the fault
/// model: a single sensor bit lies, once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CorruptionKind {
    /// The robot's own node is reported as a multiplicity even if it is not
    /// (and, under global detection, the own-node flag is raised too).
    PhantomMultiplicity,
    /// A real multiplicity on the robot's own node is hidden.
    MissingMultiplicity,
}

impl CorruptionKind {
    /// Both corruption kinds, in the deterministic order the model checker
    /// branches over them.
    pub const ALL: [CorruptionKind; 2] = [
        CorruptionKind::PhantomMultiplicity,
        CorruptionKind::MissingMultiplicity,
    ];

    /// Stable lower-case name, used in experiment records and tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CorruptionKind::PhantomMultiplicity => "phantom",
            CorruptionKind::MissingMultiplicity => "missing",
        }
    }
}

/// A deterministic fault schedule, armed on an engine (or, for
/// [`FaultModel::BoundedUnfair`], realized by a scheduler).
///
/// The model is deliberately a *schedule*, not a probability: given the same
/// `FaultModel`, the same initial configuration and the same scheduler steps,
/// the faulted run is bit-for-bit reproducible.  Seed-derived constructors
/// ([`FaultModel::seeded_crash`] and friends) turn one `u64` into a schedule,
/// which is how sweep cells derive their fault columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum FaultModel {
    /// No fault.  The engine's behaviour — reports, traces, counters,
    /// record bytes — is identical to an engine that never heard of faults.
    #[default]
    None,
    /// Crash-stop: `robot` permanently stops being activated once the
    /// engine's global step counter is `>= after_step` (evaluated at
    /// scheduler-step entry).  Its position and any pending action freeze.
    Crash {
        /// The robot that crashes.
        robot: RobotId,
        /// First global step at which activations are suppressed.
        after_step: u64,
    },
    /// Transient sensor corruption: the fresh Look whose global look ordinal
    /// (the engine's [`look_count`](crate::engine::Engine::look_count) at the
    /// moment of the Look) equals `look` observes a snapshot perturbed by
    /// `kind`.  All other Looks are truthful.
    CorruptLook {
        /// Global look ordinal of the corrupted Look (0-based).
        look: u64,
        /// The perturbation applied.
        kind: CorruptionKind,
    },
    /// Bounded-unfair scheduling: `robot` may be withheld for up to `budget`
    /// scheduler steps (`u64::MAX`: forever).  Realized by
    /// [`BoundedUnfairScheduler`](crate::scheduler::BoundedUnfairScheduler);
    /// arming it on an engine is a no-op by design (the engine side carries
    /// it only so one `FaultModel` value can describe a whole sweep cell).
    BoundedUnfair {
        /// The starved robot.
        robot: RobotId,
        /// Maximum number of scheduler steps the robot is withheld.
        budget: u64,
    },
}

/// `splitmix64` — the same derivation the sweep grid uses for per-cell
/// seeds, re-stated here because the grid's copy lives in `rr-bench`, which
/// depends on `rr-corda`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl FaultModel {
    /// Whether this is [`FaultModel::None`].
    #[must_use]
    pub fn is_none(self) -> bool {
        matches!(self, FaultModel::None)
    }

    /// Whether any fault is armed (the engine's leap certificates refuse to
    /// serve while this holds — see `Engine::leap`).
    #[must_use]
    pub fn is_armed(self) -> bool {
        !self.is_none()
    }

    /// A seed-derived crash-stop fault for a system of `k` robots: the
    /// victim and the crash round are both drawn from `seed`, with the crash
    /// step in `0..horizon` (so every prefix length is reachable).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `horizon == 0`.
    #[must_use]
    pub fn seeded_crash(seed: u64, k: usize, horizon: u64) -> FaultModel {
        assert!(
            k > 0 && horizon > 0,
            "seeded_crash needs k > 0, horizon > 0"
        );
        let a = splitmix64(seed ^ 0xC0A5);
        let b = splitmix64(a);
        FaultModel::Crash {
            robot: (a % k as u64) as RobotId,
            after_step: b % horizon,
        }
    }

    /// A seed-derived transient Look corruption with the corrupted look
    /// ordinal in `0..horizon` and a seed-chosen [`CorruptionKind`].
    ///
    /// # Panics
    ///
    /// Panics if `horizon == 0`.
    #[must_use]
    pub fn seeded_corrupt_look(seed: u64, horizon: u64) -> FaultModel {
        assert!(horizon > 0, "seeded_corrupt_look needs horizon > 0");
        let a = splitmix64(seed ^ 0x1007);
        let b = splitmix64(a);
        FaultModel::CorruptLook {
            look: a % horizon,
            kind: CorruptionKind::ALL[(b % 2) as usize],
        }
    }

    /// A seed-derived bounded-unfair fault: a seed-chosen victim withheld
    /// for exactly `budget` scheduler steps.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn seeded_unfair(seed: u64, k: usize, budget: u64) -> FaultModel {
        assert!(k > 0, "seeded_unfair needs k > 0");
        let a = splitmix64(seed ^ 0x0FA1);
        FaultModel::BoundedUnfair {
            robot: (a % k as u64) as RobotId,
            budget,
        }
    }

    /// Whether `robot` is crash-suppressed at global step `step` under this
    /// model.
    #[must_use]
    pub fn crashes(self, robot: RobotId, step: u64) -> bool {
        matches!(self, FaultModel::Crash { robot: r, after_step } if r == robot && step >= after_step)
    }

    /// The corruption to apply to the fresh Look with global ordinal
    /// `look_ordinal`, if any.
    #[must_use]
    pub fn corruption_at(self, look_ordinal: u64) -> Option<CorruptionKind> {
        match self {
            FaultModel::CorruptLook { look, kind } if look == look_ordinal => Some(kind),
            _ => None,
        }
    }

    /// Stable lower-case family name ("none", "crash", "corrupt-look",
    /// "unfair"), used in experiment records and tables.
    #[must_use]
    pub fn family(self) -> &'static str {
        match self {
            FaultModel::None => "none",
            FaultModel::Crash { .. } => "crash",
            FaultModel::CorruptLook { .. } => "corrupt-look",
            FaultModel::BoundedUnfair { .. } => "unfair",
        }
    }
}

/// One observable fault occurrence, delivered to
/// [`Monitor::on_fault`](crate::monitor::Monitor::on_fault) and mirrored by
/// the `Event::Fault*` trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// A crash-stop fault took effect: the robot's first suppressed
    /// activation happened at `step`.
    Crashed {
        /// The crashed robot.
        robot: RobotId,
        /// Global step counter when the first activation was suppressed.
        step: u64,
    },
    /// A fresh Look observed a corrupted snapshot.
    CorruptedLook {
        /// The robot whose Look was corrupted.
        robot: RobotId,
        /// Global step counter after the corrupted Look.
        step: u64,
        /// The perturbation applied.
        kind: CorruptionKind,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_the_default_and_unarmed() {
        assert_eq!(FaultModel::default(), FaultModel::None);
        assert!(FaultModel::None.is_none());
        assert!(!FaultModel::None.is_armed());
        assert!(!FaultModel::None.crashes(0, 0));
        assert_eq!(FaultModel::None.corruption_at(0), None);
        assert_eq!(FaultModel::None.family(), "none");
    }

    #[test]
    fn crash_predicate_matches_robot_and_step() {
        let f = FaultModel::Crash {
            robot: 2,
            after_step: 10,
        };
        assert!(!f.crashes(2, 9));
        assert!(f.crashes(2, 10));
        assert!(f.crashes(2, 11));
        assert!(!f.crashes(1, 11));
        assert_eq!(f.family(), "crash");
    }

    #[test]
    fn corruption_fires_at_exactly_one_look() {
        let f = FaultModel::CorruptLook {
            look: 7,
            kind: CorruptionKind::PhantomMultiplicity,
        };
        assert_eq!(f.corruption_at(6), None);
        assert_eq!(
            f.corruption_at(7),
            Some(CorruptionKind::PhantomMultiplicity)
        );
        assert_eq!(f.corruption_at(8), None);
        assert_eq!(f.family(), "corrupt-look");
    }

    #[test]
    fn seeded_models_are_deterministic_and_in_range() {
        for seed in 0..64u64 {
            let a = FaultModel::seeded_crash(seed, 4, 100);
            assert_eq!(a, FaultModel::seeded_crash(seed, 4, 100));
            let FaultModel::Crash { robot, after_step } = a else {
                panic!("seeded_crash built {a:?}");
            };
            assert!(robot < 4);
            assert!(after_step < 100);

            let b = FaultModel::seeded_corrupt_look(seed, 50);
            let FaultModel::CorruptLook { look, .. } = b else {
                panic!("seeded_corrupt_look built {b:?}");
            };
            assert!(look < 50);

            let c = FaultModel::seeded_unfair(seed, 3, 9);
            let FaultModel::BoundedUnfair { robot, budget } = c else {
                panic!("seeded_unfair built {c:?}");
            };
            assert!(robot < 3);
            assert_eq!(budget, 9);
        }
        // Different seeds reach different victims eventually.
        let victims: std::collections::HashSet<RobotId> = (0..64)
            .map(|s| match FaultModel::seeded_crash(s, 4, 100) {
                FaultModel::Crash { robot, .. } => robot,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(victims.len(), 4, "all victims reachable: {victims:?}");
    }

    #[test]
    fn corruption_kind_names() {
        assert_eq!(CorruptionKind::PhantomMultiplicity.name(), "phantom");
        assert_eq!(CorruptionKind::MissingMultiplicity.name(), "missing");
    }
}

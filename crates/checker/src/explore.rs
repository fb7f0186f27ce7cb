//! Exhaustive adversarial model checking over scheduler interleavings.
//!
//! The paper's correctness statements quantify over *every* activation
//! schedule of the adversary; the randomized verification harnesses in
//! [`crate::verify`] only sample that space (64 seeds per cell).  This module
//! closes the gap for small instances: it enumerates the **complete**
//! reachable state graph of a protocol under a
//! [`NondeterministicScheduler`]'s branching frontier — every SSYNC
//! activation subset, or every ASYNC Look/Move interleaving with pending
//! moves — and checks a pluggable [`Invariant`] on it:
//!
//! * **safety** is checked on every edge (collisions raised by the engine,
//!   plus the invariant's own edge conditions), and a breadth-first search
//!   order guarantees a *minimal* counterexample trace;
//! * **liveness** is decided on the explored graph by SCC analysis under the
//!   weak-fairness assumption (every robot is activated infinitely often): a
//!   violation is a reachable strongly connected subgraph, free of
//!   target/progress, whose internal edges activate *every* robot — from
//!   which a concrete fair lasso (prefix + cycle) is extracted.
//!
//! # The compact exploration engine
//!
//! The state graph is held in a memory-compact form: each discovered state is
//! stored as a bit-packed [`PackedState`] plus the 64-bit key of its
//! auxiliary invariant state ([`AugState::key_bits`], rebuilt exactly on
//! expansion via [`AugState::from_key_bits`]); edges carry a `u32` step code
//! instead of a materialized [`SchedulerStep`], in a CSR layout; and the
//! visited map keys on fixed-size inline signatures
//! ([`PackedState::behavior_sig`] / [`PackedState::canonical_sig`]) sharded
//! by hash.  Nothing in the hot loop allocates proportionally to `n`.
//!
//! The sweep is a sequential breadth-first search in **discovery order**:
//! one reusable [`Engine`] expands node after node (driven through
//! [`Engine::restore_packed`] / `save_state`/`restore_state`), each
//! successor's key is probed once with `Visited::get_or_insert`, and only
//! a state seen for the first time is packed, assigned the next node id and
//! stored.  Node ids, edge order, every [`ExploreReport`] field and every
//! extracted counterexample are therefore a pure function of the instance
//! and the options.  One check runs on one thread; parallelism comes from
//! checking independent cells side by side.
//!
//! Two entry points share this engine.  [`check_protocol_quotient_with_stats`]
//! is the checker: it dedups on canonical classes
//! ([`PackedState::canonical_sig`], the Booth least-rotation quotient by
//! ring rotation/reflection + robot relabeling), which is sound for safety
//! (a bad state is reachable iff an isomorphic one is) and, with the
//! σ-threaded analysis below, for per-robot fairness liveness, and explores
//! the `≈ 2n`-fold smaller quotient graph; it switches to exact keys on its
//! own where the quotient is unsound (auxiliary path state, fault budgets).
//! [`check_protocol_with_stats`] is the exact-key reference it is
//! cross-checked against: it keys states by their exact behavioural
//! identity ([`PackedState::behavior_sig`], the packed form of
//! [`EngineState::exact_key`]) and reports, as a statistic, how many
//! canonical classes the concrete states collapse to.  The two must agree on
//! every verdict, which the test suite pins.
//!
//! Counterexamples [`replay`](replay_counterexample) on a fresh [`Engine`]:
//! a safety trace reproduces its violation at the final step, a liveness
//! lasso closes back on the exact state it entered the cycle with, making no
//! progress — so the reported schedule is a certificate, not a search
//! artifact.

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Instant;

use rr_corda::packed::SigHashBuilder;
use rr_corda::{
    CorruptionKind, Decision, Engine, EngineOptions, EngineState, FaultModel, InterleavingMode,
    NondeterministicScheduler, PackedState, Protocol, RobotId, RobotState, SchedulerStep, SimError,
    Snapshot, StateSig, ViewOrder, MAX_CANONICAL_N,
};
use rr_core::invariant::{AugState, Invariant, LivenessMode, StateView};
use rr_core::relabel::{RobotPerm, MAX_PERM_ROBOTS};
use rr_ring::{Configuration, View};

use crate::store::{Aligns, Edge, EdgeStore, StateStore, StoreKind, StoreStats};
use crate::visited::{Key, Visited, VISITED_ENTRY_BYTES};

/// Default state budget: generous for every cell of the acceptance grid, a
/// guard rail against accidentally pointing the checker at a huge instance.
pub const DEFAULT_MAX_STATES: usize = 4_000_000;

/// Nodes per BFS window: the sweep loads at most this many stored states
/// at a time and gives the visited map a seal point after each window, so
/// the window size fixes the spill schedule (and `visited_spilled_bytes`).
const BATCH: usize = 4096;

/// The fault adversary's powers during one exhaustive check: how many fault
/// choices the branching frontier may enumerate along any single execution.
///
/// The default ([`FaultBudget::none`]) grants nothing — exploration is then
/// byte-identical to the fault-free checker (same state ids, edges, reports
/// and counterexamples), which the fault tests pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultBudget {
    /// Robots the adversary may crash-stop along one execution.  Each crash
    /// is a branch point: *which* alive robot, *when* (at any reachable
    /// state).  A crashed robot is removed from every later frontier; its
    /// position and any pending action freeze forever.
    pub crash_budget: u32,
    /// Fresh Looks the adversary may corrupt along one execution.  Each
    /// corruption is a branch point: which Look opportunity (robot, and
    /// under SSYNC which activation subset) observes which
    /// [`CorruptionKind`] perturbation.
    pub corrupt_budget: u32,
    /// Robots a bounded-unfair scheduler with `B = ∞` may starve forever:
    /// the liveness analysis drops them from its fairness obligation, so a
    /// lasso needs to activate only the non-starved robots.  (The frontier
    /// still offers their activations — the adversary *may* starve, not
    /// must.)
    pub starve_mask: u32,
}

impl FaultBudget {
    /// No fault powers: the fault-free adversary.
    #[must_use]
    pub fn none() -> Self {
        FaultBudget::default()
    }

    /// Whether this budget grants no fault powers at all.
    #[must_use]
    pub fn is_none(&self) -> bool {
        *self == FaultBudget::none()
    }

    /// Grants `f` crash-stop faults.
    #[must_use]
    pub fn with_crashes(mut self, f: u32) -> Self {
        self.crash_budget = f;
        self
    }

    /// Grants `b` corrupted Looks.
    #[must_use]
    pub fn with_corrupt_looks(mut self, b: u32) -> Self {
        self.corrupt_budget = b;
        self
    }

    /// Exempts the robots in `mask` from the fairness obligation (starved
    /// forever by a bounded-unfair scheduler with `B = ∞`).
    #[must_use]
    pub fn with_starved(mut self, mask: u32) -> Self {
        self.starve_mask = mask;
        self
    }
}

/// Options for one exhaustive check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreOptions {
    /// Which space of adversarial interleavings to branch over.
    pub interleaving: InterleavingMode,
    /// State budget; exceeding it yields [`CheckOutcome::BudgetExceeded`]
    /// instead of a verdict.
    pub max_states: usize,
    /// Whether to run the liveness (SCC) analysis after the safety sweep.
    pub check_liveness: bool,
    /// The fault adversary's powers (default: none — fault-free checking).
    pub faults: FaultBudget,
    /// Whether discovered states, edges and visited entries may spill to
    /// disk (default: [`StoreKind::Mem`], which never writes a file).  The
    /// verdict, the report and any counterexample are identical for every
    /// value.
    pub store: StoreKind,
    /// Under [`StoreKind::Spill`], the resident-byte budget of the state
    /// cluster cache and of the visited map's memtables.  Smaller budgets
    /// trade read speed for memory; they never change any reported value.
    pub mem_budget: u64,
}

/// Default spill-cache budget: 64 MiB of encoded resident clusters.
pub const DEFAULT_MEM_BUDGET: u64 = 64 << 20;

impl ExploreOptions {
    /// Full checking (safety + liveness) under the given interleavings with
    /// the default state budget.
    #[must_use]
    pub fn new(interleaving: InterleavingMode) -> Self {
        ExploreOptions {
            interleaving,
            max_states: DEFAULT_MAX_STATES,
            check_liveness: true,
            faults: FaultBudget::none(),
            store: StoreKind::Mem,
            mem_budget: DEFAULT_MEM_BUDGET,
        }
    }

    /// Replaces the storage mode.
    #[must_use]
    pub fn with_store(mut self, store: StoreKind) -> Self {
        self.store = store;
        self
    }

    /// Replaces the spill store's resident-byte budget.
    #[must_use]
    pub fn with_mem_budget(mut self, mem_budget: u64) -> Self {
        self.mem_budget = mem_budget;
        self
    }

    /// Replaces the fault adversary's powers.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultBudget) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the state budget.
    #[must_use]
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// Does nothing: one check runs on one thread, and parallelism comes
    /// from running independent checks (cells) side by side.  Kept so that
    /// callers passing a worker count, such as the drivers' `--workers`
    /// flag, still build; every value yields the same report.
    #[must_use]
    pub fn with_workers(self, _workers: usize) -> Self {
        self
    }

    /// Disables the liveness analysis (safety sweep only).
    #[must_use]
    pub fn safety_only(mut self) -> Self {
        self.check_liveness = false;
        self
    }
}

/// Which kind of property a counterexample violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A bad edge: collision, invariant breach.
    Safety,
    /// A fair schedule making no progress: a lasso avoiding the target.
    Liveness,
}

/// One fault choice of the adversary along a counterexample schedule,
/// positioned by `at`: an index into the combined `prefix ++ cycle` step
/// sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDirective {
    /// Robot `robot` crash-stops immediately **before** the step at index
    /// `at` executes: no later step activates it (the explorer removes it
    /// from every frontier; the replay rejects schedules that do).
    Crash {
        /// Index into `prefix ++ cycle` before which the crash takes effect.
        at: usize,
        /// The crashed robot.
        robot: RobotId,
    },
    /// The step at index `at` (a Look, or an SSYNC round containing the
    /// robot) delivers a corrupted snapshot to `robot`'s fresh Look.
    Corrupt {
        /// Index into `prefix ++ cycle` of the corrupted step.
        at: usize,
        /// The robot whose Look is corrupted.
        robot: RobotId,
        /// The perturbation applied.
        kind: CorruptionKind,
    },
}

impl FaultDirective {
    /// The schedule position this directive attaches to.
    #[must_use]
    pub fn at(&self) -> usize {
        match self {
            FaultDirective::Crash { at, .. } | FaultDirective::Corrupt { at, .. } => *at,
        }
    }
}

/// A concrete adversarial schedule demonstrating a violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// What is violated.
    pub kind: ViolationKind,
    /// Human-readable description of the violation.
    pub message: String,
    /// Schedule from the initial configuration to the violation (safety: the
    /// last step *is* the violation) or to the entry of the lasso cycle.
    pub prefix: Vec<SchedulerStep>,
    /// For liveness: the fair cycle (activating every robot the fairness
    /// obligation covers, making no progress) that the adversary repeats
    /// forever.  Empty for safety.
    pub cycle: Vec<SchedulerStep>,
    /// The adversary's fault choices along the schedule (empty for
    /// fault-free checking).
    pub faults: Vec<FaultDirective>,
    /// Robots the fairness obligation exempts because a bounded-unfair
    /// scheduler starves them forever ([`FaultBudget::starve_mask`]); zero
    /// outside starvation checking.
    pub starved: u32,
}

impl Counterexample {
    /// Compact single-line rendering (`L2` = Look robot 2, `E0` = Execute
    /// robot 0, `R{0,2}` = SSYNC round of robots 0 and 2); fault directives
    /// and starvation exemptions are appended in brackets.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("{}: {}", self.message, render_steps(&self.prefix));
        if !self.cycle.is_empty() {
            out.push_str(" (");
            out.push_str(&render_steps(&self.cycle));
            out.push_str(")*");
        }
        for fault in &self.faults {
            match fault {
                FaultDirective::Crash { at, robot } => {
                    out.push_str(&format!(" [crash {robot} @{at}]"));
                }
                FaultDirective::Corrupt { at, robot, kind } => {
                    out.push_str(&format!(" [corrupt {robot} {} @{at}]", kind.name()));
                }
            }
        }
        if self.starved != 0 {
            let ids: Vec<String> = (0..32)
                .filter(|r| self.starved & (1 << r) != 0)
                .map(|r: u32| r.to_string())
                .collect();
            out.push_str(&format!(" [starved {{{}}}]", ids.join(",")));
        }
        out
    }
}

fn render_steps(steps: &[SchedulerStep]) -> String {
    let rendered: Vec<String> = steps
        .iter()
        .map(|s| match s {
            SchedulerStep::Look(r) => format!("L{r}"),
            SchedulerStep::Execute(r) => format!("E{r}"),
            SchedulerStep::SsyncRound(robots) => {
                let ids: Vec<String> = robots.iter().map(ToString::to_string).collect();
                format!("R{{{}}}", ids.join(","))
            }
        })
        .collect();
    rendered.join(" ")
}

/// The verdict of one exhaustive check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckOutcome {
    /// Every reachable edge is safe and (if checked) every fair schedule
    /// makes the required progress.
    Verified,
    /// A violation was found, with its concrete schedule.
    Falsified(Box<Counterexample>),
    /// The state budget was exhausted before the graph was covered.
    ///
    /// The two counts differ in general: the budget trips in the middle of a
    /// node's frontier, so the last expansion is incomplete — its
    /// already-recorded edges reference discovered states, but the node does
    /// not count as expanded.
    BudgetExceeded {
        /// States discovered (= stored) before giving up.
        discovered: usize,
        /// Nodes whose full frontier was expanded and recorded; always less
        /// than `discovered`.
        completed_expansions: usize,
    },
}

/// Result of one exhaustive check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreReport {
    /// The invariant that was checked.
    pub invariant: &'static str,
    /// The interleaving space that was branched over.
    pub interleaving: InterleavingMode,
    /// Concrete states explored (canonical classes when the quotient
    /// explorer was used).
    pub states: usize,
    /// Distinct canonical (rotation/reflection/relabeling) classes among the
    /// explored *engine* states (auxiliary path state, e.g. contamination, is
    /// not part of the class key — for invariants carrying one, this counts
    /// the engine-state classes the full states project onto).  The quotient
    /// entry point reports its stored state count here, even where it
    /// switched to exact keys.
    pub quotient_states: usize,
    /// Edges of the explored graph.
    pub edges: u64,
    /// States satisfying the liveness target ([`LivenessMode::Reach`]).
    pub target_states: usize,
    /// Edges on which liveness progress happened
    /// ([`LivenessMode::ReachRepeatedly`]).
    pub progress_edges: u64,
    /// Peak resident node count: the stored states.  The sweep buffers no
    /// successor beyond the one it is probing, and stored states only grow,
    /// so the peak is the final count.  Deterministic: independent of the
    /// storage mode.
    pub peak_resident_nodes: usize,
    /// The byte-valued analog of [`peak_resident_nodes`]: packed payload
    /// bytes of the stored states plus the logical bytes of their visited
    /// entries (key and node id each).  Counts logical payloads, not store
    /// overhead, so the value is identical across storage modes (the spill
    /// store's *actual* residency is bounded by
    /// [`ExploreOptions::mem_budget`] instead).
    ///
    /// [`peak_resident_nodes`]: ExploreReport::peak_resident_nodes
    pub peak_resident_bytes: u64,
    /// Total packed payload bytes over all stored states — `bytes_per_state`
    /// is `state_bytes / states`.  Backend-independent.
    pub state_bytes: u64,
    /// The verdict.
    pub outcome: CheckOutcome,
}

impl ExploreReport {
    /// Whether the check completed and found no violation.
    #[must_use]
    pub fn verified(&self) -> bool {
        matches!(self.outcome, CheckOutcome::Verified)
    }

    /// The counterexample, if the check falsified the invariant.
    #[must_use]
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match &self.outcome {
            CheckOutcome::Falsified(ce) => Some(ce),
            _ => None,
        }
    }
}

/// How explored states are deduplicated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dedup {
    /// Exact behavioural identity (robot ids preserved).
    Exact,
    /// Canonical class (quotient by ring automorphism + robot relabeling).
    /// Falls back to exact keys for invariants carrying auxiliary path state,
    /// whose canonicalization would have to be joint to stay sound.
    Canonical,
}

// ---------------------------------------------------------------------------
// Compact step codes: a SchedulerStep as one u32 edge label.
// ---------------------------------------------------------------------------

/// Low 2 bits: the step kind; upper bits: the activation subset bitmask
/// (SSYNC round) or the robot id (Look / Execute).  Kind 3 marks a fault
/// edge; its payload's low 2 bits select the fault subkind.
const STEP_SSYNC: u32 = 0;
const STEP_LOOK: u32 = 1;
const STEP_EXECUTE: u32 = 2;
const STEP_FAULT: u32 = 3;

/// Fault subkinds (payload bits 0..2 of a [`STEP_FAULT`] code).  Crash edges
/// step nothing (pure adversary bookkeeping); corrupt edges drive their
/// underlying Look / SSYNC round with a one-shot [`FaultModel::CorruptLook`]
/// armed.  Payload layout: subkind (2 bits) | robot (5 bits) | corruption
/// kind (1 bit) | SSYNC activation mask (20 bits) — 28 payload bits, so the
/// full code fits a `u32` for every `k ≤ 20`.
const FAULT_CRASH: u32 = 0;
const FAULT_LOOK: u32 = 1;
const FAULT_ROUND: u32 = 2;

/// The per-path fault word stored on every node and mixed into its dedup
/// key: crashed-robot bitmask in the low 24 bits, corrupted-Look count used
/// so far in the high 8.
fn fault_word(crashed: u32, corrupts: u32) -> u32 {
    debug_assert!(crashed < 1 << 24 && corrupts < 1 << 8);
    crashed | corrupts << 24
}

fn fault_crashed(word: u32) -> u32 {
    word & 0x00FF_FFFF
}

fn fault_corrupts(word: u32) -> u32 {
    word >> 24
}

fn corruption_bit(kind: CorruptionKind) -> u32 {
    match kind {
        CorruptionKind::PhantomMultiplicity => 0,
        CorruptionKind::MissingMultiplicity => 1,
    }
}

fn corruption_from_bit(bit: u32) -> CorruptionKind {
    if bit == 0 {
        CorruptionKind::PhantomMultiplicity
    } else {
        CorruptionKind::MissingMultiplicity
    }
}

fn crash_code(robot: usize) -> u32 {
    (FAULT_CRASH | (robot as u32) << 2) << 2 | STEP_FAULT
}

fn corrupt_look_code(robot: usize, kind: CorruptionKind) -> u32 {
    (FAULT_LOOK | (robot as u32) << 2 | corruption_bit(kind) << 7) << 2 | STEP_FAULT
}

fn corrupt_round_code(mask: u32, victim: usize, kind: CorruptionKind) -> u32 {
    (FAULT_ROUND | (victim as u32) << 2 | corruption_bit(kind) << 7 | mask << 8) << 2 | STEP_FAULT
}

/// Crash codes: the robot the adversary crashes; `None` for every other
/// code.
fn crash_code_robot(code: u32) -> Option<RobotId> {
    if code & 3 == STEP_FAULT && (code >> 2) & 3 == FAULT_CRASH {
        Some(((code >> 4) & 31) as RobotId)
    } else {
        None
    }
}

/// Corrupt codes: the victim, the perturbation, and the victim's fresh-Look
/// offset within the step (0 for a solo Look; its rank within the
/// activation mask for an SSYNC round — sound because SSYNC exploration
/// only rounds Ready robots, so every member Looks freshly in id order).
fn corrupt_code_parts(code: u32) -> Option<(RobotId, CorruptionKind, u64)> {
    if code & 3 != STEP_FAULT {
        return None;
    }
    let payload = code >> 2;
    let victim = ((payload >> 2) & 31) as RobotId;
    let kind = corruption_from_bit((payload >> 7) & 1);
    match payload & 3 {
        FAULT_LOOK => Some((victim, kind, 0)),
        FAULT_ROUND => {
            let mask = payload >> 8;
            let offset = u64::from((mask & ((1 << victim) - 1)).count_ones());
            Some((victim, kind, offset))
        }
        _ => None,
    }
}

/// The regular code a code drives on the engine: the code itself for
/// regular codes, the underlying Look / SSYNC round for corrupt codes,
/// `None` for crash codes (which step nothing).
fn engine_code(code: u32) -> Option<u32> {
    if code & 3 != STEP_FAULT {
        return Some(code);
    }
    let payload = code >> 2;
    match payload & 3 {
        FAULT_LOOK => Some(((payload >> 2) & 31) << 2 | STEP_LOOK),
        FAULT_ROUND => Some((payload >> 8) << 2 | STEP_SSYNC),
        _ => None,
    }
}

/// The engine step a code drives ([`engine_code`], decoded).
fn code_engine_step(code: u32) -> Option<SchedulerStep> {
    engine_code(code).map(|code| decode_step_with(code, &mut Vec::new()))
}

/// Materializes the [`SchedulerStep`] a regular code stands for, recycling
/// `buf` as the SSYNC robot vector (the hot loop never allocates per step);
/// return the vector with [`recycle_step`].  Fault codes never reach this
/// (they decode via [`engine_code`]).
fn decode_step_with(code: u32, buf: &mut Vec<usize>) -> SchedulerStep {
    debug_assert_ne!(code & 3, STEP_FAULT, "fault codes have no direct step");
    let payload = code >> 2;
    match code & 3 {
        STEP_LOOK => SchedulerStep::Look(payload as usize),
        STEP_EXECUTE => SchedulerStep::Execute(payload as usize),
        _ => {
            let mut robots = std::mem::take(buf);
            robots.clear();
            robots.extend((0..32usize).filter(|&r| payload & (1 << r) != 0));
            SchedulerStep::SsyncRound(robots)
        }
    }
}

/// Takes the robot vector back out of a step produced by
/// [`decode_step_with`].
fn recycle_step(step: SchedulerStep, buf: &mut Vec<usize>) {
    if let SchedulerStep::SsyncRound(robots) = step {
        *buf = robots;
    }
}

/// The robots a coded step activates, as a bitmask — the edge label the
/// fairness analysis is built on (equals
/// [`NondeterministicScheduler::activation_mask`] of the decoded step; for
/// corrupt codes, of their underlying step; crash codes activate nobody).
fn step_activation_mask(code: u32) -> u32 {
    match engine_code(code) {
        Some(code) if code & 3 == STEP_SSYNC => code >> 2,
        Some(code) => 1 << (code >> 2),
        None => 0,
    }
}

/// The branching frontier of the adversary from a state with the given
/// per-robot pending status, as step codes, in the exact order
/// [`NondeterministicScheduler::frontier`] produces (subset bitmask order for
/// SSYNC, robot id order for ASYNC), with crash-stopped robots removed from
/// every step.
fn frontier_codes(mode: InterleavingMode, robots: &[RobotState], crashed: u32, out: &mut Vec<u32>) {
    out.clear();
    let k = robots.len();
    match mode {
        InterleavingMode::SsyncSubsets => {
            out.extend(
                (1u32..1 << k)
                    .filter(|mask| mask & crashed == 0)
                    .map(|mask| mask << 2 | STEP_SSYNC),
            );
        }
        InterleavingMode::AsyncPhases => {
            out.extend(
                robots
                    .iter()
                    .enumerate()
                    .filter(|(r, _)| crashed & 1 << r == 0)
                    .map(|(r, robot)| {
                        let kind = if robot.has_pending() {
                            STEP_EXECUTE
                        } else {
                            STEP_LOOK
                        };
                        (r as u32) << 2 | kind
                    }),
            );
        }
    }
}

/// Appends the adversary's fault-choice edges to a node's frontier: crash
/// edges (one per alive robot while the crash budget lasts) followed by
/// corrupted-Look edges (one per fresh-Look opportunity × perturbation kind
/// while the corruption budget lasts), in a fixed order so exploration stays
/// deterministic.
fn fault_codes(
    mode: InterleavingMode,
    robots: &[RobotState],
    fault: u32,
    budget: &FaultBudget,
    out: &mut Vec<u32>,
) {
    let k = robots.len();
    let crashed = fault_crashed(fault);
    if crashed.count_ones() < budget.crash_budget {
        out.extend((0..k).filter(|&r| crashed & 1 << r == 0).map(crash_code));
    }
    if fault_corrupts(fault) < budget.corrupt_budget {
        match mode {
            InterleavingMode::AsyncPhases => {
                for (r, robot) in robots.iter().enumerate() {
                    if crashed & 1 << r != 0 || robot.has_pending() {
                        continue;
                    }
                    for kind in CorruptionKind::ALL {
                        out.push(corrupt_look_code(r, kind));
                    }
                }
            }
            InterleavingMode::SsyncSubsets => {
                for mask in 1u32..1 << k {
                    if mask & crashed != 0 {
                        continue;
                    }
                    for victim in (0..k).filter(|&r| mask & 1 << r != 0) {
                        if robots[victim].has_pending() {
                            // A pending robot re-reports without a fresh
                            // Look — nothing to corrupt (unreachable in
                            // SSYNC exploration, where every robot is
                            // Ready, but kept for robustness).
                            continue;
                        }
                        for kind in CorruptionKind::ALL {
                            out.push(corrupt_round_code(mask, victim, kind));
                        }
                    }
                }
            }
        }
    }
}

/// Converts a path of edge codes into real scheduler steps plus the fault
/// directives annotating them: crash edges become [`FaultDirective::Crash`]
/// markers (they step nothing), corrupt edges emit their underlying step
/// plus a [`FaultDirective::Corrupt`] marker, regular codes decode as-is.
fn realize_codes(
    codes: &[u32],
    step_offset: usize,
    steps: &mut Vec<SchedulerStep>,
    faults: &mut Vec<FaultDirective>,
) {
    for &code in codes {
        let at = step_offset + steps.len();
        if let Some(robot) = crash_code_robot(code) {
            faults.push(FaultDirective::Crash { at, robot });
            continue;
        }
        if let Some((robot, kind, _)) = corrupt_code_parts(code) {
            faults.push(FaultDirective::Corrupt { at, robot, kind });
        }
        steps.push(code_engine_step(code).expect("non-crash codes drive a step"));
    }
}

// ---------------------------------------------------------------------------
// Compact state keys and the sharded visited map.
// ---------------------------------------------------------------------------

// The key type and the visited map itself (memtable shards + the disk-backed
// sorted-run backend) live in `crate::visited`; this module computes keys,
// probes each once and gives the map a seal point after every window.

fn make_key(packed: &PackedState, aug_bits: u64, dedup: Dedup, fault: u32) -> Key {
    let sig = match dedup {
        Dedup::Exact => packed.behavior_sig(),
        Dedup::Canonical => packed.canonical_sig(),
    };
    Key {
        sig,
        aug: aug_bits,
        fault,
    }
}

// ---------------------------------------------------------------------------
// The compact state graph.
// ---------------------------------------------------------------------------

const NO_PARENT: u32 = u32::MAX;

/// The always-resident metadata of one stored state: the 64-bit auxiliary
/// key, the per-path fault word, the BFS parent pointer (node + step code)
/// and the liveness-target flag.  The packed engine state itself lives in
/// the run's [`StateStore`], addressed by the same node id — splitting the
/// two is what lets the spill store move the (much larger) state payloads
/// out of RAM while the graph analyses keep O(1) access to the metadata.
struct NodeMeta {
    aug_bits: u64,
    fault: u32,
    parent: u32,
    parent_code: u32,
    target: bool,
}

/// CSR view of the (fully explored) graph for the liveness analysis.
struct Graph<'a> {
    meta: &'a [NodeMeta],
    offsets: &'a [u32],
    edges: &'a [Edge],
    /// Per edge, its recorded robot alignment π as a packed
    /// [`RobotPerm`] image word — present only when liveness is decided on
    /// the canonical quotient, empty otherwise.
    aligns: &'a Aligns,
}

impl<'a> Graph<'a> {
    fn out(&self, u: usize) -> &'a [Edge] {
        &self.edges[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }
}

fn state_view(state: &EngineState, crashed: u32) -> StateView<'_> {
    StateView::new(state.configuration(), state.robots()).with_crashed(crashed)
}

// ---------------------------------------------------------------------------
// Public entry points.
// ---------------------------------------------------------------------------

/// The checker: exhaustively checks `protocol` against `invariant` from
/// `initial` — safety on every edge, and liveness unless
/// [`ExploreOptions::safety_only`] — and returns the report plus the storage
/// backend's [`StoreStats`] (spilled bytes and the like; everything in the
/// report itself is backend-independent by design).
///
/// States are deduplicated on the canonical symmetry quotient (ring
/// rotation/reflection and robot relabeling, an `≈ 2n`-fold smaller graph)
/// whenever that is sound.  Safety survives the quotient directly (a
/// violating edge exists iff an isomorphic one does); liveness is decided on
/// it by threading the accumulated robot relabeling
/// ([`rr_core::relabel::RobotPerm`]) along quotient edges, so that fairness
/// — a per-robot property the quotient forgets — is re-established over
/// *concrete* robots.
///
/// For invariants carrying auxiliary path state, or under fault budgets,
/// the exploration switches to exact keys on its own: a sound class key
/// would have to canonicalize the engine state and the auxiliary state
/// jointly, and crashed masks and fairness exemptions are per-robot-id.
/// It does the same when it decides liveness for more than 16 robots,
/// whose relabelings do not fit the 4-bit alignment each quotient edge
/// records.
/// The report then equals [`check_protocol_with_stats`]'s in every field
/// except [`ExploreReport::quotient_states`].  In the (astronomically
/// unlikely) event that the threaded analysis exceeds its internal state
/// cap, the checker transparently re-runs the exact exploration, so the
/// verdict is always complete.
///
/// # Errors
///
/// Returns `Err` only when the initial configuration is rejected by the
/// engine; violations found during the search are reported as
/// [`CheckOutcome::Falsified`].
pub fn check_protocol_quotient_with_stats<P: Protocol + Clone>(
    protocol: &P,
    initial: &Configuration,
    invariant: &dyn Invariant,
    options: &ExploreOptions,
) -> Result<(ExploreReport, StoreStats), SimError> {
    let (report, stats, overflow) =
        explore(protocol, initial, invariant, options, Dedup::Canonical)?;
    if overflow {
        // The threaded quotient-liveness analysis hit its state cap: fall
        // back to the exact explorer, whose liveness analysis needs no
        // relabeling bookkeeping.
        return check_protocol_with_stats(protocol, initial, invariant, options);
    }
    Ok((report, stats))
}

/// The exact-key reference checker the quotient is cross-checked against:
/// [`check_protocol_quotient_with_stats`] with states deduplicated on exact
/// behavioural identity (robot ids preserved), reporting as
/// [`ExploreReport::quotient_states`] how many canonical classes the
/// concrete states collapse to.  Verdicts of the two entry points agree on
/// every instance; `tests/exhaustive_small_instances.rs` pins that over the
/// proved grid.
///
/// # Errors
///
/// Returns `Err` only when the initial configuration is rejected by the
/// engine.
pub fn check_protocol_with_stats<P: Protocol + Clone>(
    protocol: &P,
    initial: &Configuration,
    invariant: &dyn Invariant,
    options: &ExploreOptions,
) -> Result<(ExploreReport, StoreStats), SimError> {
    let (report, stats, _) = explore(protocol, initial, invariant, options, Dedup::Exact)?;
    Ok((report, stats))
}

// ---------------------------------------------------------------------------
// The exploration engine.
// ---------------------------------------------------------------------------

/// What the breadth-first sweep leaves for the liveness pass: the stored
/// graph, and the report and storage stats of the sweep.  The visited map
/// is already dropped (its spill file with it), so the liveness pass loads
/// the edges into the footprint it freed.
struct Explored<P> {
    meta: Vec<NodeMeta>,
    offsets: Vec<u32>,
    store: StateStore,
    sink: EdgeStore,
    /// The sweep's engine: the scratch engine of the quotient lasso
    /// realization.
    engine: Engine<P>,
    /// The dedup mode the sweep actually ran (the quotient falls back to
    /// exact keys where it is unsound).
    dedup: Dedup,
    full_mask: u32,
    /// Complete but for liveness: the outcome is final when the sweep
    /// stopped early (a safety violation, the state budget), and
    /// [`CheckOutcome::Verified`] otherwise.
    report: ExploreReport,
    stats: StoreStats,
}

/// The exploration engine.  Returns the report, the storage backend's
/// stats, and whether the quotient-liveness analysis overflowed its thread
/// cap (in which case the report's outcome is not a verdict and the caller
/// must fall back to exact exploration).
fn explore<P: Protocol + Clone>(
    protocol: &P,
    initial: &Configuration,
    invariant: &dyn Invariant,
    options: &ExploreOptions,
    dedup: Dedup,
) -> Result<(ExploreReport, StoreStats, bool), SimError> {
    let mut explored = explore_graph(protocol, initial, invariant, options, dedup)?;
    if !options.check_liveness || !explored.report.verified() {
        return Ok((explored.report, explored.stats, false));
    }
    let (edges, aligns) = explored.sink.finish();
    let graph = Graph {
        meta: &explored.meta,
        offsets: &explored.offsets,
        edges: &edges,
        aligns: &aligns,
    };
    let full_mask = explored.full_mask;
    let violation = if explored.dedup == Dedup::Canonical {
        let store = &mut explored.store;
        match quotient_liveness_violation(&graph, store, &explored.engine, full_mask, invariant) {
            Ok(violation) => violation,
            Err(QuotientOverflow) => return Ok((explored.report, explored.stats, true)),
        }
    } else {
        liveness_violation(&graph, full_mask, options.faults.starve_mask, invariant)
    };
    if let Some(ce) = violation {
        explored.report.outcome = CheckOutcome::Falsified(Box::new(ce));
    }
    Ok((explored.report, explored.stats, false))
}

/// The breadth-first sweep of [`explore`]: discovers, stores and links
/// every reachable state in discovery order, checking safety on every edge,
/// and stops at the first violation or when the state budget trips.
fn explore_graph<P: Protocol + Clone>(
    protocol: &P,
    initial: &Configuration,
    invariant: &dyn Invariant,
    options: &ExploreOptions,
    dedup: Dedup,
) -> Result<Explored<P>, SimError> {
    let engine_options = EngineOptions::for_protocol(protocol);
    assert!(
        engine_options.view_order != ViewOrder::Alternating,
        "alternating view order makes behaviour depend on the look counter; \
         the state graph would not be well-defined"
    );
    let mut engine = Engine::new(protocol.clone(), initial.clone(), engine_options)?;
    // Oblivious protocols are pure functions of the snapshot: memoize the
    // Look decisions per (configuration, node) — behaviour is identical, and
    // the myriad re-Looks at shared configurations become hash probes.
    engine.enable_look_memo();
    let k = engine.num_robots();
    assert!(k <= 20, "exhaustive checking is for small instances");
    assert!(
        initial.n() <= MAX_CANONICAL_N,
        "exhaustive checking supports n ≤ {MAX_CANONICAL_N}"
    );
    assert!(options.max_states < u32::MAX as usize, "node ids are u32");
    let full_mask: u32 = (1u32 << k) - 1;
    assert!(
        options.faults.starve_mask & !full_mask == 0,
        "starve_mask names robots outside 0..k"
    );
    let reach_mode = invariant.liveness_mode() == LivenessMode::Reach;
    let aug_template = invariant.initial_aug(initial);
    // The quotient is sound only when the whole model-checking state is the
    // engine state; with auxiliary path state, fall back to exact keys (the
    // invariant's variant is fixed for the entire run).  Fault budgets also
    // force exact keys: the crashed mask and the fairness exemptions are
    // per-robot-id, which relabeling does not preserve.  Quotient liveness
    // records 4-bit robot relabelings, so beyond 16 robots liveness is
    // decided on exact keys too.
    let effective_dedup = match (dedup, &aug_template) {
        (Dedup::Canonical, AugState::None)
            if options.faults.is_none() && (!options.check_liveness || k <= MAX_PERM_ROBOTS) =>
        {
            Dedup::Canonical
        }
        _ => Dedup::Exact,
    };
    // Runs that will decide liveness on the quotient record every edge's
    // robot alignment π as it is emitted: π = R_to ∘ P_after, the stored
    // target's rank → id table after the successor's id → rank table, both
    // read off the canonical pass that keyed the successor.
    let record_align = effective_dedup == Dedup::Canonical && options.check_liveness;

    // The node being expanded, as an engine state; the root first.
    let mut before = engine.save_state();
    let root_packed = engine.pack_behavior();
    let root_bits = aug_template.key_bits();
    let root_target = reach_mode && invariant.is_target(&state_view(&before, 0), &aug_template);

    // The one place the storage mode is resolved: every store takes the
    // same budget, and no budget means nothing is ever written to disk.
    let spill_budget = match options.store {
        StoreKind::Mem => None,
        StoreKind::Spill => Some(options.mem_budget),
    };
    let mut visited = Visited::new(spill_budget);
    let root_key = make_key(&root_packed, root_bits, effective_dedup, 0);
    visited.get_or_insert(root_key, 0);
    // Canonical classes among the stored states (exact-dedup statistic):
    // each signature is computed once, when its state is first discovered.
    let track_canon = dedup == Dedup::Exact;
    let mut canonical_classes: HashSet<StateSig, SigHashBuilder> = HashSet::default();
    if track_canon {
        canonical_classes.insert(root_packed.canonical_sig());
    }
    // Per stored node, its rank → id table (only when recording).
    let rank_to_id = |rank: u64| RobotPerm::from_bits(k, rank).inverse();
    let mut node_rank_ids: Vec<RobotPerm> = Vec::new();
    if record_align {
        node_rank_ids.push(rank_to_id(engine.canonical_sig_and_rank().1));
    }
    let mut store = StateStore::new(spill_budget);
    // π needs 4 bits per robot.
    let align_width = if record_align { k.div_ceil(2) } else { 0 };
    let mut sink = EdgeStore::new(spill_budget, align_width);
    let mut meta = vec![NodeMeta {
        aug_bits: root_bits,
        fault: 0,
        parent: NO_PARENT,
        parent_code: 0,
        target: root_target,
    }];
    store.push(root_packed);
    let mut offsets: Vec<u32> = vec![0];

    let mut progress_edges: u64 = 0;
    let mut budget: Option<(usize, usize)> = None;
    let mut safety_ce: Option<Counterexample> = None;

    let mut frontier: Vec<u32> = Vec::new();
    let mut ssync_buf: Vec<usize> = Vec::new();
    let mut report = rr_corda::StepReport::default();
    let mut window: Vec<PackedState> = Vec::new();

    // Discovery-order BFS: each successor's key is probed once, and a new
    // state is assigned the next id, packed and stored on the spot, so node
    // ids, edge order and early stops are those of the textbook sequential
    // sweep.  The ids are walked in windows of at most `BATCH`: the store
    // loads a window's states before it is expanded, and the visited map
    // gets a seal point after it.  `merge_nanos` times that boundary work,
    // `expand_nanos` everything else.
    let mut expand_nanos: u64 = 0;
    let mut merge_nanos: u64 = 0;
    let mut next = 0usize;
    while next < meta.len() {
        let load_start = Instant::now();
        let window_end = meta.len().min(next + BATCH);
        store.window_into(next, window_end, &mut window);
        let expand_start = Instant::now();
        merge_nanos += (expand_start - load_start).as_nanos() as u64;
        'window: for (offset, packed) in window.iter().enumerate() {
            let i = next + offset;
            let (aug_bits, fault) = (meta[i].aug_bits, meta[i].fault);
            engine.restore_packed(packed);
            engine.save_state_into(&mut before);
            let crashed = fault_crashed(fault);
            let corrupts = fault_corrupts(fault);
            let before_aug = aug_template.from_key_bits(aug_bits);
            let before_view = state_view(&before, crashed);
            frontier_codes(
                options.interleaving,
                before.robots(),
                crashed,
                &mut frontier,
            );
            fault_codes(
                options.interleaving,
                before.robots(),
                fault,
                &options.faults,
                &mut frontier,
            );
            let mut engine_dirty = false;
            for &code in &frontier {
                // `after` is `None` for a crash edge: pure adversary
                // bookkeeping that leaves the engine state and the
                // auxiliary state untouched and removes one more robot
                // from every later frontier.  No step runs, so there is
                // no safety check — but the liveness target is
                // re-evaluated, since exempting a robot can *create* a
                // target ("all non-crashed robots gathered").
                let (key, progress, rank, after) = if let Some(victim) = crash_code_robot(code) {
                    let new_fault = fault_word(crashed | 1 << victim, corrupts);
                    (
                        make_key(packed, aug_bits, effective_dedup, new_fault),
                        false,
                        0,
                        None,
                    )
                } else {
                    if engine_dirty {
                        engine.restore_state(&before);
                    }
                    engine_dirty = true;
                    // Corrupt edges drive their underlying step with a
                    // one-shot corruption armed at the victim's
                    // fresh-Look ordinal; the model is disarmed right
                    // after, so every other edge steps fault-free.
                    let corruption = corrupt_code_parts(code);
                    let mut new_fault = fault;
                    if let Some((_, kind, offset)) = corruption {
                        engine.arm_fault(FaultModel::CorruptLook {
                            look: engine.look_count() + offset,
                            kind,
                        });
                        new_fault = fault_word(crashed, corrupts + 1);
                    }
                    let step = decode_step_with(
                        engine_code(code).expect("non-crash codes drive a step"),
                        &mut ssync_buf,
                    );
                    let result = engine.step_into(&step, &mut (), &mut report);
                    recycle_step(step, &mut ssync_buf);
                    if corruption.is_some() {
                        engine.arm_fault(FaultModel::None);
                    }
                    let mut aug = before_aug.clone();
                    let checked = match result {
                        Err(e) => Err(e.to_string()),
                        Ok(()) => {
                            let progress =
                                invariant.observe_step(&mut aug, &report, engine.configuration());
                            let after_view =
                                StateView::new(engine.configuration(), engine.robots())
                                    .with_crashed(crashed);
                            invariant
                                .check_edge(&before_view, &after_view, &aug)
                                .map(|()| progress)
                        }
                    };
                    let progress = match checked {
                        Ok(progress) => progress,
                        Err(message) => {
                            let mut codes = codes_from_root(&meta, i);
                            codes.push(code);
                            safety_ce = Some(safety_counterexample(
                                &codes,
                                message,
                                options.faults.starve_mask,
                            ));
                            break 'window;
                        }
                    };
                    // The key straight from the live engine (no codec
                    // round trip; equal to `make_key` of the packed
                    // state), and the rank from the same canonical pass.
                    let (sig, rank) = match effective_dedup {
                        Dedup::Exact => (engine.behavior_sig(), 0),
                        Dedup::Canonical if record_align => engine.canonical_sig_and_rank(),
                        Dedup::Canonical => (engine.canonical_sig(), 0),
                    };
                    let key = Key {
                        sig,
                        aug: aug.key_bits(),
                        fault: new_fault,
                    };
                    (key, progress, rank, Some(aug))
                };
                let to = match visited.get_or_insert(key, meta.len() as u32) {
                    Some(to) => to,
                    None => {
                        // The map now holds a key the store never will;
                        // harmless, since the sweep stops here.
                        if meta.len() >= options.max_states {
                            budget = Some((meta.len(), i));
                            break 'window;
                        }
                        let (state, target) = match &after {
                            None => (
                                packed.clone(),
                                reach_mode
                                    && invariant.is_target(
                                        &before_view.with_crashed(fault_crashed(key.fault)),
                                        &before_aug,
                                    ),
                            ),
                            Some(aug) => {
                                let after_view =
                                    StateView::new(engine.configuration(), engine.robots())
                                        .with_crashed(crashed);
                                (
                                    engine.pack_behavior(),
                                    reach_mode && invariant.is_target(&after_view, aug),
                                )
                            }
                        };
                        if track_canon {
                            canonical_classes.insert(state.canonical_sig());
                        }
                        let id = meta.len() as u32;
                        store.push(state);
                        meta.push(NodeMeta {
                            aug_bits: key.aug,
                            fault: key.fault,
                            parent: i as u32,
                            parent_code: code,
                            target,
                        });
                        if record_align {
                            node_rank_ids.push(rank_to_id(rank));
                        }
                        id
                    }
                };
                progress_edges += u64::from(progress);
                let align = record_align.then(|| {
                    let after_rank = RobotPerm::from_bits(k, rank);
                    node_rank_ids[to as usize].compose(&after_rank).bits()
                });
                sink.push(Edge::new(to, code, progress), align);
            }
            assert!(sink.len() <= u64::from(u32::MAX), "edge offsets are u32");
            offsets.push(sink.len() as u32);
        }
        let seal_start = Instant::now();
        expand_nanos += (seal_start - expand_start).as_nanos() as u64;
        if safety_ce.is_some() || budget.is_some() {
            break;
        }
        visited.maybe_seal();
        merge_nanos += seal_start.elapsed().as_nanos() as u64;
        next = window_end;
    }

    debug_assert_eq!(store.len(), meta.len(), "store and metadata desynced");
    let outcome = if let Some(ce) = safety_ce {
        CheckOutcome::Falsified(Box::new(ce))
    } else if let Some((discovered, completed_expansions)) = budget {
        CheckOutcome::BudgetExceeded {
            discovered,
            completed_expansions,
        }
    } else {
        CheckOutcome::Verified
    };
    let report = ExploreReport {
        invariant: invariant.name(),
        interleaving: options.interleaving,
        states: meta.len(),
        quotient_states: match dedup {
            Dedup::Exact => canonical_classes.len(),
            Dedup::Canonical => meta.len(),
        },
        edges: sink.len(),
        target_states: meta.iter().filter(|n| n.target).count(),
        progress_edges,
        // Stored states and their visited entries only grow, so the peak
        // is the final count.
        peak_resident_nodes: meta.len(),
        peak_resident_bytes: store.payload_bytes() + meta.len() as u64 * VISITED_ENTRY_BYTES,
        state_bytes: store.payload_bytes(),
        outcome,
    };
    // Final already: the edge store counts its buffered records.
    let stats = StoreStats {
        store: options.store,
        spilled_bytes: store.spilled_bytes() + sink.spilled_bytes(),
        visited_spilled_bytes: visited.spilled_bytes(),
        expand_nanos,
        merge_nanos,
    };
    Ok(Explored {
        meta,
        offsets,
        store,
        sink,
        engine,
        dedup: effective_dedup,
        full_mask,
        report,
        stats,
    })
}

/// The safety counterexample whose schedule is the edge path `codes` from
/// the root; its last edge is the violating step.
fn safety_counterexample(codes: &[u32], message: String, starved: u32) -> Counterexample {
    let mut prefix = Vec::new();
    let mut faults = Vec::new();
    realize_codes(codes, 0, &mut prefix, &mut faults);
    Counterexample {
        kind: ViolationKind::Safety,
        message,
        prefix,
        cycle: Vec::new(),
        faults,
        starved,
    }
}

/// Edge codes from the root to node `i`, following BFS parent pointers.
fn codes_from_root(meta: &[NodeMeta], mut i: usize) -> Vec<u32> {
    let mut codes = Vec::new();
    while meta[i].parent != NO_PARENT {
        codes.push(meta[i].parent_code);
        i = meta[i].parent as usize;
    }
    codes.reverse();
    codes
}

/// The prologue both liveness analyses share.  A fair path that visits a
/// target has satisfied a Reach obligation, so lassos live among the
/// non-target states reachable from the root through non-target states;
/// their *eligible* edges are the non-progress edges between two such
/// states, and the candidate lasso cycles are the SCCs of those edges.
struct LassoScan {
    /// Reachable from the root while avoiding targets.
    reachable: Vec<bool>,
    /// The target-avoiding BFS tree, as per-node `(parent, edge index)`.
    bfs_parent: Vec<Option<(usize, usize)>>,
    /// Per-node SCC id over the eligible edges (nodes without eligible
    /// edges become singletons).
    scc: Vec<usize>,
    scc_count: usize,
}

impl LassoScan {
    /// `None` when the root is a target: then no lasso avoids the target.
    fn new(graph: &Graph<'_>) -> Option<Self> {
        let nodes = graph.meta;
        if nodes[0].target {
            return None;
        }
        let mut reachable = vec![false; nodes.len()];
        let mut bfs_parent: Vec<Option<(usize, usize)>> = vec![None; nodes.len()];
        reachable[0] = true;
        let mut queue = VecDeque::from([0usize]);
        while let Some(u) = queue.pop_front() {
            for (ei, e) in graph.out(u).iter().enumerate() {
                let to = e.to as usize;
                if !nodes[to].target && !reachable[to] {
                    reachable[to] = true;
                    bfs_parent[to] = Some((u, ei));
                    queue.push_back(to);
                }
            }
        }
        let mut scan = LassoScan {
            reachable,
            bfs_parent,
            scc: Vec::new(),
            scc_count: 0,
        };
        let (scc, scc_count) = tarjan_core(nodes.len(), &|v| graph.out(v).len(), &|v, i| {
            let e = &graph.out(v)[i];
            scan.eligible(v, e).then_some(e.to as usize)
        });
        scan.scc = scc;
        scan.scc_count = scc_count;
        Some(scan)
    }

    /// An eligible lasso edge: non-progress, between reachable states.
    fn eligible(&self, u: usize, e: &Edge) -> bool {
        self.reachable[u] && self.reachable[e.to as usize] && !e.progress()
    }

    /// An eligible edge inside its source's SCC.
    fn internal(&self, u: usize, e: &Edge) -> bool {
        self.eligible(u, e) && self.scc[e.to as usize] == self.scc[u]
    }

    /// The target-avoiding tree path from the root to `node`, as
    /// `(node, edge index)` pairs.
    fn tree_path(&self, mut node: usize) -> Vec<(usize, usize)> {
        let mut path = Vec::new();
        while let Some(step) = self.bfs_parent[node] {
            path.push(step);
            node = step.0;
        }
        path.reverse();
        path
    }
}

/// The message of a liveness counterexample: a fair lasso — fair modulo the
/// `exempt` (crashed or starved) robots — that never meets the obligation.
fn lasso_message(invariant: &dyn Invariant, exempt: u32) -> String {
    let what = match invariant.liveness_mode() {
        LivenessMode::Reach => "never reaching the target",
        LivenessMode::ReachRepeatedly => "never making progress again",
    };
    if exempt == 0 {
        format!("fair schedule (every robot activated in each cycle iteration) {what}")
    } else {
        format!(
            "fair-modulo-faults schedule (every non-crashed, non-starved robot activated in \
             each cycle iteration) {what}"
        )
    }
}

/// A non-empty closed walk from `entry` back to `entry` whose activation
/// masks cover `required` (the fairness obligation; possibly a strict subset
/// of the robots, or empty, under fault exemptions) — the lasso cycle of
/// both liveness analyses.  `out(u)` lists node `u`'s edges and `follow`
/// admits one as `(target, activation mask)`; the walk stays on admitted
/// edges, which must form a strongly connected subgraph.  Repeated BFS in
/// edge order: to the nearest edge activating a missing robot, then back to
/// `entry`.  Returned as `(node, edge index)` pairs.
fn covering_walk<'g, E: 'g>(
    out: impl Fn(usize) -> &'g [E],
    follow: impl Fn(usize, &E) -> Option<(usize, u32)>,
    entry: usize,
    required: u32,
) -> Vec<(usize, usize)> {
    // BFS from `from`, stopping as soon as `stop(to, mask)` holds for an
    // edge about to be relaxed; returns the end node and the walk including
    // that stopping edge.
    #[allow(clippy::type_complexity)]
    let walk_until =
        |from: usize, stop: &dyn Fn(usize, u32) -> bool| -> (usize, Vec<(usize, usize)>) {
            let mut parent: HashMap<usize, (usize, usize)> = HashMap::new();
            let mut queue = VecDeque::from([from]);
            let mut seen: HashSet<usize> = HashSet::from([from]);
            while let Some(u) = queue.pop_front() {
                for (ei, e) in out(u).iter().enumerate() {
                    let Some((to, mask)) = follow(u, e) else {
                        continue;
                    };
                    if stop(to, mask) {
                        // Reconstruct from → u, then append (u, ei).
                        let mut walk = vec![(u, ei)];
                        let mut cur = u;
                        while cur != from {
                            let (p, pei) = parent[&cur];
                            walk.push((p, pei));
                            cur = p;
                        }
                        walk.reverse();
                        return (to, walk);
                    }
                    if seen.insert(to) {
                        parent.insert(to, (u, ei));
                        queue.push_back(to);
                    }
                }
            }
            unreachable!("SCC is strongly connected and covers the mask");
        };

    let mut walk = Vec::new();
    let mut covered = 0u32;
    let mut cur = entry;
    while covered & required != required {
        let missing = required & !covered;
        let (end, leg) = walk_until(cur, &|_, mask| mask & missing != 0);
        for &(u, ei) in &leg {
            let (_, mask) = follow(u, &out(u)[ei]).expect("the walk follows admitted edges");
            covered |= mask;
        }
        walk.extend(leg);
        cur = end;
    }
    // Close the walk — unconditionally when the obligation was empty (fully
    // exempt SCC), so the lasso cycle is never empty.
    if cur != entry || walk.is_empty() {
        let (end, leg) = walk_until(cur, &|to, _| to == entry);
        walk.extend(leg);
        debug_assert_eq!(end, entry);
    }
    walk
}

/// Searches the explored graph for a fair schedule that never makes
/// progress: a strongly connected subgraph of non-target states, reachable
/// from the root through non-target states, whose non-progress internal
/// edges activate every robot the fairness obligation covers.  Crash-stopped
/// robots (constant within an SCC — crash edges strictly grow the mask, so
/// they can never close a cycle) and starved robots are exempt.  Returns the
/// corresponding lasso.
fn liveness_violation(
    graph: &Graph<'_>,
    full_mask: u32,
    starve_mask: u32,
    invariant: &dyn Invariant,
) -> Option<Counterexample> {
    let nodes = graph.meta;
    let scan = LassoScan::new(graph)?;
    let scc = &scan.scc;

    // Fairness coverage per SCC: the union of activation masks over internal
    // eligible edges, plus whether the SCC has any internal edge at all, and
    // the fairness obligation — all robots minus the SCC's crashed mask
    // (every node of an SCC shares it) minus the starved robots.
    let mut coverage = vec![0u32; scan.scc_count];
    let mut has_edge = vec![false; scan.scc_count];
    let mut required = vec![full_mask & !starve_mask; scan.scc_count];
    for u in 0..nodes.len() {
        required[scc[u]] = full_mask & !fault_crashed(nodes[u].fault) & !starve_mask;
        for e in graph.out(u) {
            if scan.internal(u, e) {
                coverage[scc[u]] |= step_activation_mask(e.code());
                has_edge[scc[u]] = true;
            }
        }
    }
    let bad =
        (0..scan.scc_count).find(|&c| has_edge[c] && coverage[c] & required[c] == required[c])?;

    // Entry node: the first (lowest-index, hence BFS-closest) node of the bad
    // SCC; its prefix avoids targets by construction of the BFS tree.
    let entry = (0..nodes.len())
        .find(|&u| scc[u] == bad)
        .expect("non-empty SCC");
    let codes = |walk: Vec<(usize, usize)>| -> Vec<u32> {
        walk.into_iter()
            .map(|(u, ei)| graph.out(u)[ei].code())
            .collect()
    };
    let prefix_codes = codes(scan.tree_path(entry));
    let cycle_codes = codes(covering_walk(
        |u| graph.out(u),
        |u, e: &Edge| {
            scan.internal(u, e)
                .then(|| (e.to as usize, step_activation_mask(e.code())))
        },
        entry,
        required[bad],
    ));
    let mut prefix = Vec::new();
    let mut faults = Vec::new();
    realize_codes(&prefix_codes, 0, &mut prefix, &mut faults);
    let mut cycle = Vec::new();
    realize_codes(&cycle_codes, prefix.len(), &mut cycle, &mut faults);
    Some(Counterexample {
        kind: ViolationKind::Liveness,
        message: lasso_message(invariant, full_mask & !required[bad]),
        prefix,
        cycle,
        faults,
        starved: starve_mask,
    })
}

// ---------------------------------------------------------------------------
// Quotient-sound liveness: threading robot relabelings along quotient edges.
// ---------------------------------------------------------------------------
//
// The canonical quotient identifies states up to ring automorphism and robot
// relabeling, which safety survives but per-robot fairness does not: a cycle
// in the quotient graph whose raw activation masks cover every robot need
// not correspond to any fair concrete cycle (the "robots" named by the masks
// are renamed at every edge), and conversely a fair concrete lasso may
// project onto a quotient cycle whose raw masks look unfair.  The analysis
// below restores soundness *and* completeness by threading the accumulated
// relabeling along quotient edges:
//
// * each stored edge `u --code--> v` carries the deterministic alignment
//   `π = relabel_onto(step(u, code), v)` (robot `i` of the actual successor
//   is robot `π(i)` of the stored representative).  Expansion computes it
//   once, where it already canonicalizes the successor:
//   [`Engine::canonical_sig_and_rank`] returns the successor's id → rank
//   table `P_after` from the same canonical pass as its key, the sweep
//   composes `π = R_v ∘ P_after` with the stored target's
//   rank → id table `R_v` (a per-node side vector), and the edge store
//   keeps `π` next to the edge.  The analysis below only reads it — no edge
//   is ever replayed;
// * a *thread* is a pair `(u, σ)` — a quotient state plus the relabeling
//   accumulated since the thread's seed; traversing the edge above maps
//   `(u, σ) → (v, σ ∘ π⁻¹)`, and the robots *concretely* activated are
//   `σ(mask)`;
// * a fair non-progress concrete lasso exists **iff** some SCC of the
//   threaded graph (seeded at `(u, id)` for every member `u` of a candidate
//   quotient SCC) has an internal edge and its internal `σ(mask)` union
//   covers every robot.  Completeness: a concrete lasso's projection,
//   walked from `(u₀, id)` and repeated `ord(Λ)` times (Λ the relabeling
//   composed along one traversal), is a closed threaded walk whose first
//   traversal already realizes full coverage.  Soundness: a covering closed
//   threaded walk realizes, from any concrete state aligned to its entry, a
//   concrete schedule that repeats the *same* step sequence each traversal
//   (the thread closes, so the alignment recurrence returns to its start),
//   and by protocol equivariance the reached states differ from the entry
//   only by a fixed dihedral symmetry `d` — so the concrete run closes
//   exactly after `ord(d) ≤ n` traversals.  The realization below repeats
//   the walk until the engine's exact behavioural signature closes, and
//   panics past `n + 2` traversals (that would be a bookkeeping bug, not an
//   input property).
//
// The whole analysis is a pure function of the stored quotient graph, so
// verdicts and extracted counterexamples remain byte-identical across
// storage backends.

/// Hard cap on threaded (quotient state × relabeling) pairs per candidate
/// SCC.  Thread spaces are bounded by |SCC| × |subgroup generated by the
/// edge relabelings| and stay tiny in practice; the cap is a guard rail —
/// exceeding it aborts the quotient analysis and the caller falls back to
/// exact exploration, so verdicts never suffer.
const THREAD_CAP: usize = 4_000_000;

/// Marker: the quotient-liveness analysis gave up (thread cap); the caller
/// must decide liveness by exact exploration instead.
struct QuotientOverflow;

/// One stored edge internal to a candidate SCC: its target's index within
/// the SCC, its stored activation mask, its index in the stored graph (for
/// the code), and `π⁻¹`, which a thread's relabeling composes with across
/// it.
struct AlignedEdge {
    to_local: u32,
    mask: u32,
    edge: u32,
    pi_inv: RobotPerm,
}

/// One edge of the threaded graph.
struct ThreadEdge {
    to: u32,
    /// The thread-realized activation mask `σ_from(stored mask)`: which
    /// *concrete* robots this edge activates on threads seeded at the
    /// identity.
    mask: u32,
    /// The [`AlignedEdge`] this edge threads.
    aligned: u32,
}

/// The threaded analysis' buffers, reused across candidate SCCs.  Both
/// graphs are CSR: a node's edges are appended in one run, so its offsets
/// bracket them.
#[derive(Default)]
struct ThreadScratch {
    /// Stored node → index within the current candidate SCC; `u32::MAX`
    /// outside it (reset after each SCC).
    local: Vec<u32>,
    aligned_offsets: Vec<u32>,
    aligned: Vec<AlignedEdge>,
    thread_of: HashMap<(u32, RobotPerm), u32, SigHashBuilder>,
    /// Threads in discovery (BFS) order: `(local member, σ)`.
    threads: Vec<(u32, RobotPerm)>,
    thread_offsets: Vec<usize>,
    thread_edges: Vec<ThreadEdge>,
}

/// Remaps a regular step code through a robot relabeling: the same step
/// kind, its activation set read as concrete robots.  Fault codes never
/// occur here (fault budgets force exact dedup).
fn remap_code(code: u32, phi: &RobotPerm) -> u32 {
    let payload = code >> 2;
    match code & 3 {
        STEP_SSYNC => phi.image_mask(payload) << 2 | STEP_SSYNC,
        STEP_LOOK => (phi.apply(payload as usize) as u32) << 2 | STEP_LOOK,
        STEP_EXECUTE => (phi.apply(payload as usize) as u32) << 2 | STEP_EXECUTE,
        _ => unreachable!("quotient graphs have no fault edges"),
    }
}

/// Decides liveness on the canonical quotient graph — the threaded-analysis
/// counterpart of [`liveness_violation`], sound and complete for per-robot
/// weak fairness.  Requires fault-free canonical exploration with recorded
/// alignments (the explorer guarantees it: fault budgets, auxiliary state
/// and `k > 16` force exact dedup).
fn quotient_liveness_violation<P: Protocol + Clone>(
    graph: &Graph<'_>,
    store: &mut StateStore,
    engine: &Engine<P>,
    full_mask: u32,
    invariant: &dyn Invariant,
) -> Result<Option<Counterexample>, QuotientOverflow> {
    let meta = graph.meta;
    let Some(scan) = LassoScan::new(graph) else {
        return Ok(None);
    };
    debug_assert_eq!(graph.aligns.len(), graph.edges.len(), "unaligned edges");

    // Candidate SCCs: any internal eligible edge at all.  No coverage
    // prefilter on the raw masks — the quotient renames robots at every
    // edge, so only the threaded analysis can evaluate fairness coverage.
    let mut has_edge = vec![false; scan.scc_count];
    for u in 0..meta.len() {
        for e in graph.out(u) {
            if scan.internal(u, e) {
                has_edge[scan.scc[u]] = true;
            }
        }
    }
    // Group candidate members once, in node-id order; candidates are then
    // processed in order of their first (lowest-id) member — deterministic
    // in the quotient graph alone.
    let mut first = vec![u32::MAX; scan.scc_count];
    let mut members: Vec<u32> = Vec::new();
    for (u, &c) in scan.scc.iter().enumerate() {
        if has_edge[c] {
            first[c] = first[c].min(u as u32);
            members.push(u as u32);
        }
    }
    // Stable: ids stay ascending within a candidate.
    members.sort_by_key(|&u| first[scan.scc[u as usize]]);

    let mut scratch = ThreadScratch {
        local: vec![u32::MAX; meta.len()],
        ..ThreadScratch::default()
    };
    for members in members.chunk_by(|&a, &b| scan.scc[a as usize] == scan.scc[b as usize]) {
        if let Some(lasso) = threaded_lasso_in_scc(graph, &scan, &mut scratch, members, full_mask)?
        {
            let (prefix, cycle) = realize_lasso(&lasso, store, engine, full_mask);
            return Ok(Some(Counterexample {
                kind: ViolationKind::Liveness,
                message: lasso_message(invariant, 0),
                prefix,
                cycle,
                faults: Vec::new(),
                starved: 0,
            }));
        }
    }
    Ok(None)
}

/// A fair lasso of the quotient graph, as stored-graph steps (code, `π⁻¹`):
/// the target-avoiding tree prefix from the root to the stored node
/// `entry`, and a covering closed thread-walk through `entry`.
struct ThreadedLasso {
    entry: usize,
    prefix: Vec<(u32, RobotPerm)>,
    walk: Vec<(u32, RobotPerm)>,
}

/// Builds the threaded graph of one candidate SCC and looks for a covering
/// threaded SCC; returns its lasso if one exists.
fn threaded_lasso_in_scc(
    graph: &Graph<'_>,
    scan: &LassoScan,
    scratch: &mut ThreadScratch,
    members: &[u32],
    full_mask: u32,
) -> Result<Option<ThreadedLasso>, QuotientOverflow> {
    let k = full_mask.count_ones() as usize;
    let identity = RobotPerm::identity(k);
    if members.len() >= THREAD_CAP {
        return Err(QuotientOverflow);
    }
    let ThreadScratch {
        local,
        aligned_offsets,
        aligned,
        thread_of,
        threads,
        thread_offsets,
        thread_edges,
    } = scratch;

    // The internal edges with their recorded alignments, by local source.
    for (i, &u) in members.iter().enumerate() {
        local[u as usize] = i as u32;
    }
    aligned_offsets.clear();
    aligned.clear();
    aligned_offsets.push(0);
    for &u in members {
        let u = u as usize;
        let base = graph.offsets[u] as usize;
        for (ei, e) in graph.out(u).iter().enumerate() {
            if !scan.internal(u, e) {
                continue;
            }
            let edge = base + ei;
            aligned.push(AlignedEdge {
                to_local: local[e.to as usize],
                mask: step_activation_mask(e.code()),
                edge: edge as u32,
                pi_inv: RobotPerm::from_bits(k, graph.aligns.get(edge)).inverse(),
            });
        }
        aligned_offsets.push(aligned.len() as u32);
    }
    for &u in members {
        local[u as usize] = u32::MAX;
    }

    // Threaded BFS, every member seeded at the identity relabeling (seeding
    // at the identity is complete: a concrete lasso's threaded projection
    // from `(u₀, id)` closes within `ord(Λ)` traversals and already covers
    // fully on its first — see the module commentary above).
    thread_of.clear();
    threads.clear();
    thread_offsets.clear();
    thread_edges.clear();
    for lu in 0..members.len() as u32 {
        thread_of.insert((lu, identity), lu);
        threads.push((lu, identity));
    }
    thread_offsets.push(0);
    let mut cursor = 0usize;
    while cursor < threads.len() {
        let (lu, sigma) = threads[cursor];
        let edges = aligned_offsets[lu as usize]..aligned_offsets[lu as usize + 1];
        for ai in edges {
            let edge = &aligned[ai as usize];
            let key = (edge.to_local, sigma.compose(&edge.pi_inv));
            let to = match thread_of.entry(key) {
                std::collections::hash_map::Entry::Occupied(entry) => *entry.get(),
                std::collections::hash_map::Entry::Vacant(entry) => {
                    if threads.len() >= THREAD_CAP {
                        return Err(QuotientOverflow);
                    }
                    let t = threads.len() as u32;
                    entry.insert(t);
                    threads.push(key);
                    t
                }
            };
            thread_edges.push(ThreadEdge {
                to,
                mask: sigma.image_mask(edge.mask),
                aligned: ai,
            });
        }
        thread_offsets.push(thread_edges.len());
        cursor += 1;
    }
    let t_out = |v: usize| &thread_edges[thread_offsets[v]..thread_offsets[v + 1]];

    // SCC + fairness coverage on the threaded graph.
    let (t_scc, t_count) = tarjan_core(threads.len(), &|v| t_out(v).len(), &|v, i| {
        Some(t_out(v)[i].to as usize)
    });
    let mut coverage = vec![0u32; t_count];
    let mut t_has_edge = vec![false; t_count];
    for v in 0..threads.len() {
        for e in t_out(v) {
            if t_scc[e.to as usize] == t_scc[v] {
                coverage[t_scc[v]] |= e.mask;
                t_has_edge[t_scc[v]] = true;
            }
        }
    }
    let Some(bad) = (0..t_count).find(|&c| t_has_edge[c] && coverage[c] & full_mask == full_mask)
    else {
        return Ok(None);
    };
    // Entry: the lowest-index thread node of the bad threaded SCC, and a
    // covering closed thread-walk through it, as (code, π⁻¹) per step.
    let entry_t = (0..threads.len())
        .find(|&v| t_scc[v] == bad)
        .expect("non-empty SCC");
    let walk: Vec<(u32, RobotPerm)> = covering_walk(
        t_out,
        |_, e: &ThreadEdge| (t_scc[e.to as usize] == bad).then_some((e.to as usize, e.mask)),
        entry_t,
        full_mask,
    )
    .into_iter()
    .map(|(v, ei)| {
        let edge = &aligned[t_out(v)[ei].aligned as usize];
        (graph.edges[edge.edge as usize].code(), edge.pi_inv)
    })
    .collect();

    // Stored-tree prefix root → entry's stored node, with the recorded
    // alignments of its edges.
    let (entry_local, _) = threads[entry_t];
    let entry = members[entry_local as usize] as usize;
    let prefix = scan
        .tree_path(entry)
        .into_iter()
        .map(|(p, ei)| {
            let edge = graph.offsets[p] as usize + ei;
            let pi = RobotPerm::from_bits(k, graph.aligns.get(edge));
            (graph.edges[edge].code(), pi.inverse())
        })
        .collect();
    Ok(Some(ThreadedLasso {
        entry,
        prefix,
        walk,
    }))
}

/// Realizes a quotient lasso over concrete robots: the prefix and the
/// cycle as scheduler steps.  The stored root *is* the concrete initial
/// state, so the alignment φ starts at the identity; every realized step
/// remaps its stored activation set through the current φ, then advances
/// φ by the edge's relabeling.  The walk repeats until the concrete state
/// closes on the exact entry state (each traversal applies a fixed
/// dihedral symmetry, so closure happens within ord ≤ n traversals).
fn realize_lasso<P: Protocol + Clone>(
    lasso: &ThreadedLasso,
    store: &mut StateStore,
    engine: &Engine<P>,
    full_mask: u32,
) -> (Vec<SchedulerStep>, Vec<SchedulerStep>) {
    let mut engine = engine.clone();
    engine.restore_packed(&store.get(0));
    let mut report = rr_corda::StepReport::default();
    let mut phi = RobotPerm::identity(full_mask.count_ones() as usize);
    let mut step_along = |engine: &mut Engine<P>, code: u32, pi_inv: &RobotPerm| {
        let step = decode_step_with(remap_code(code, &phi), &mut Vec::new());
        engine
            .step_into(&step, &mut (), &mut report)
            .expect("realized lasso step replays");
        phi = phi.compose(pi_inv);
        step
    };
    let prefix: Vec<SchedulerStep> = lasso
        .prefix
        .iter()
        .map(|(code, pi_inv)| step_along(&mut engine, *code, pi_inv))
        .collect();
    debug_assert_eq!(
        engine.canonical_sig(),
        store.get(lasso.entry).canonical_sig(),
        "prefix realization left the entry's canonical class"
    );
    let entry_sig = engine.behavior_sig();
    let max_traversals = engine.configuration().n() + 2;
    let mut cycle: Vec<SchedulerStep> = Vec::new();
    for _ in 0..max_traversals {
        for (code, pi_inv) in &lasso.walk {
            cycle.push(step_along(&mut engine, *code, pi_inv));
        }
        if engine.behavior_sig() == entry_sig {
            return (prefix, cycle);
        }
    }
    panic!("quotient lasso failed to close within {max_traversals} traversals — relabeling bookkeeping bug");
}

/// Iterative Tarjan SCC over a graph given by an out-degree function and an
/// indexed edge-target function (`None` = skip this edge): the eligible
/// edges of the explored graph, or the threaded (state × relabeling) graph
/// of the quotient-liveness analysis.  Every node gets an SCC id (nodes
/// without followed edges become singletons); returns the per-node id
/// assignment and the number of SCCs.
fn tarjan_core(
    n: usize,
    degree: &dyn Fn(usize) -> usize,
    edge_target: &dyn Fn(usize, usize) -> Option<usize>,
) -> (Vec<usize>, usize) {
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut scc = vec![0usize; n];
    let mut next_index = 0usize;
    let mut scc_count = 0usize;

    // Explicit DFS stack: (node, next edge position); a node is initialized
    // the first time its frame is on top (pos == 0 implies first visit, as
    // pos is incremented before any child frame is pushed).
    let mut call: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        call.push((root, 0));
        while let Some(&mut (v, ref mut pos)) = call.last_mut() {
            if *pos == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            let mut advanced = false;
            let out_degree = degree(v);
            while *pos < out_degree {
                let target = edge_target(v, *pos);
                *pos += 1;
                let Some(w) = target else {
                    continue;
                };
                if index[w] == usize::MAX {
                    call.push((w, 0));
                    advanced = true;
                    break;
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            }
            if advanced {
                continue;
            }
            // v is finished.
            if low[v] == index[v] {
                loop {
                    let w = stack.pop().expect("tarjan stack");
                    on_stack[w] = false;
                    scc[w] = scc_count;
                    if w == v {
                        break;
                    }
                }
                scc_count += 1;
            }
            let low_v = low[v];
            call.pop();
            if let Some(&(parent, _)) = call.last() {
                low[parent] = low[parent].min(low_v);
            }
        }
    }
    (scc, scc_count)
}

/// Result of replaying a counterexample on a fresh engine.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Whether the replay reproduced exactly the reported violation.
    pub reproduced: bool,
    /// What the replay observed (the violation message, or why it failed to
    /// reproduce).
    pub detail: String,
}

/// The victim's fresh-Look offset within `step`, for arming a one-shot
/// corruption at replay time (0 for its solo Look; its position within the
/// round's robot vector for SSYNC, where every member Looks freshly).
fn replay_look_offset(step: &SchedulerStep, robot: RobotId) -> Result<u64, String> {
    match step {
        SchedulerStep::Look(r) if *r == robot => Ok(0),
        SchedulerStep::SsyncRound(robots) => robots
            .iter()
            .position(|&r| r == robot)
            .map(|p| p as u64)
            .ok_or_else(|| "corrupt directive names a robot outside its round".to_string()),
        _ => Err("corrupt directive does not match its step".to_string()),
    }
}

/// Replays `ce` on a fresh [`Engine`] and checks that it demonstrates its
/// violation: a safety trace must run cleanly up to its final step and
/// violate there; a liveness lasso must run cleanly, return to the exact
/// state it entered the cycle with, and make no progress / reach no target
/// during the cycle (so the adversary can repeat it forever, fairly).
///
/// Fault directives are honoured: a [`FaultDirective::Crash`] removes its
/// robot from the legal schedule (replay fails if a later step activates
/// it) and switches the invariant views to the crashed mask; a
/// [`FaultDirective::Corrupt`] arms a one-shot
/// [`FaultModel::CorruptLook`] for exactly its step.  The fairness check
/// exempts crashed and starved robots, mirroring the explorer's per-SCC
/// obligation.
///
/// # Errors
///
/// Returns `Err` only when the initial configuration is rejected by the
/// engine.
pub fn replay_counterexample<P: Protocol + Clone>(
    protocol: &P,
    initial: &Configuration,
    invariant: &dyn Invariant,
    ce: &Counterexample,
) -> Result<ReplayReport, SimError> {
    let engine_options = EngineOptions::for_protocol(protocol);
    let mut engine = Engine::new(protocol.clone(), initial.clone(), engine_options)?;
    let mut aug = invariant.initial_aug(initial);
    let reach_mode = invariant.liveness_mode() == LivenessMode::Reach;
    let full_mask = (1u32 << engine.num_robots()) - 1;
    let mut crashed: u32 = 0;

    // Applies the directives attached to schedule position `at`, then the
    // step itself; returns (progress, target) or the violation message.
    let apply = |engine: &mut Engine<P>,
                 aug: &mut AugState,
                 crashed: &mut u32,
                 step: &SchedulerStep,
                 at: usize|
     -> Result<(bool, bool), String> {
        let mut armed = false;
        for fault in &ce.faults {
            if fault.at() != at {
                continue;
            }
            match *fault {
                FaultDirective::Crash { robot, .. } => *crashed |= 1 << robot,
                FaultDirective::Corrupt { robot, kind, .. } => {
                    let offset = replay_look_offset(step, robot)?;
                    engine.arm_fault(FaultModel::CorruptLook {
                        look: engine.look_count() + offset,
                        kind,
                    });
                    armed = true;
                }
            }
        }
        if NondeterministicScheduler::activation_mask(step) & *crashed != 0 {
            if armed {
                engine.arm_fault(FaultModel::None);
            }
            return Err("schedule activates a crashed robot".to_string());
        }
        let before = engine.save_state();
        let result = engine.step(step, &mut ());
        if armed {
            engine.arm_fault(FaultModel::None);
        }
        let report = result.map_err(|e| e.to_string())?;
        let progress = invariant.observe_step(aug, &report, engine.configuration());
        let after = engine.save_state();
        invariant.check_edge(
            &state_view(&before, *crashed),
            &state_view(&after, *crashed),
            aug,
        )?;
        let target = reach_mode && invariant.is_target(&state_view(&after, *crashed), aug);
        Ok((progress, target))
    };

    match ce.kind {
        ViolationKind::Safety => {
            for (idx, step) in ce.prefix.iter().enumerate() {
                let last = idx + 1 == ce.prefix.len();
                match apply(&mut engine, &mut aug, &mut crashed, step, idx) {
                    Ok(_) if last => {
                        return Ok(ReplayReport {
                            reproduced: false,
                            detail: "final step did not violate".to_string(),
                        })
                    }
                    Ok(_) => {}
                    Err(detail) => {
                        return Ok(ReplayReport {
                            reproduced: last,
                            detail,
                        })
                    }
                }
            }
            Ok(ReplayReport {
                reproduced: false,
                detail: "empty safety trace".to_string(),
            })
        }
        ViolationKind::Liveness => {
            for (idx, step) in ce.prefix.iter().enumerate() {
                if let Err(detail) = apply(&mut engine, &mut aug, &mut crashed, step, idx) {
                    return Ok(ReplayReport {
                        reproduced: false,
                        detail: format!("prefix violated safety: {detail}"),
                    });
                }
            }
            if ce.cycle.is_empty() {
                return Ok(ReplayReport {
                    reproduced: false,
                    detail: "empty lasso cycle".to_string(),
                });
            }
            // Crash directives positioned at the cycle entry (trailing crash
            // edges of the explorer's prefix) take effect before the entry
            // checks.
            for fault in &ce.faults {
                if let FaultDirective::Crash { at, robot } = *fault {
                    if at == ce.prefix.len() {
                        crashed |= 1 << robot;
                    }
                }
            }
            let loop_state = engine.save_state();
            let loop_aug_bits = aug.key_bits();
            if reach_mode && invariant.is_target(&state_view(&loop_state, crashed), &aug) {
                return Ok(ReplayReport {
                    reproduced: false,
                    detail: "lasso entry already satisfies the target".to_string(),
                });
            }
            let required = full_mask & !crashed & !ce.starved;
            let mut progress_seen = false;
            let mut target_seen = false;
            let mut activated = 0u32;
            for (idx, step) in ce.cycle.iter().enumerate() {
                match apply(
                    &mut engine,
                    &mut aug,
                    &mut crashed,
                    step,
                    ce.prefix.len() + idx,
                ) {
                    Ok((progress, target)) => {
                        progress_seen |= progress;
                        target_seen |= target;
                        activated |= NondeterministicScheduler::activation_mask(step);
                    }
                    Err(detail) => {
                        return Ok(ReplayReport {
                            reproduced: false,
                            detail: format!("cycle violated safety: {detail}"),
                        });
                    }
                }
            }
            let closes = engine.save_state().exact_key() == loop_state.exact_key()
                && aug.key_bits() == loop_aug_bits;
            let fair = activated & required == required && activated & crashed == 0;
            let reproduced = closes && fair && !progress_seen && !target_seen;
            let detail = if reproduced {
                format!(
                    "lasso closes after {} steps, activates all non-exempt robots, no progress",
                    ce.cycle.len()
                )
            } else {
                format!("closes={closes} fair={fair} progress={progress_seen} target={target_seen}")
            };
            Ok(ReplayReport { reproduced, detail })
        }
    }
}

/// A deliberately broken protocol: `inner` with **one decision-table entry
/// overridden** — whenever the observing robot's supermin configuration view
/// equals `trigger`, the protocol returns `replacement` instead of the
/// inner decision.
///
/// Since an oblivious min-CORDA protocol *is* a function from view classes
/// to decisions, this is exactly a single-entry table mutation; the
/// exhaustive checker must detect it with a counterexample that replays.
#[derive(Debug, Clone)]
pub struct MutatedProtocol<P> {
    inner: P,
    trigger: View,
    replacement: Decision,
}

impl<P: Protocol> MutatedProtocol<P> {
    /// Wraps `inner`, overriding the decision of the view class whose
    /// supermin is `trigger`.
    #[must_use]
    pub fn new(inner: P, trigger: View, replacement: Decision) -> Self {
        MutatedProtocol {
            inner,
            trigger,
            replacement,
        }
    }

    /// The trigger for the configuration class of `config`.
    #[must_use]
    pub fn trigger_for(config: &Configuration) -> View {
        View::new(config.gap_sequence()).supermin()
    }
}

impl<P: Protocol> Protocol for MutatedProtocol<P> {
    fn name(&self) -> &str {
        "mutant"
    }

    fn capability(&self) -> rr_corda::MultiplicityCapability {
        self.inner.capability()
    }

    fn requires_exclusivity(&self) -> bool {
        self.inner.requires_exclusivity()
    }

    fn compute(&self, snapshot: &Snapshot) -> Decision {
        if snapshot.supermin() == self.trigger {
            self.replacement
        } else {
            self.inner.compute(snapshot)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_core::invariant::{AlignmentInvariant, GatheringInvariant, SearchingInvariant};
    use rr_core::relabel::relabel_onto;
    use rr_core::{AlignProtocol, GatheringProtocol};
    use rr_ring::enumerate::enumerate_rigid_configurations;

    const MODES: [InterleavingMode; 2] = [
        InterleavingMode::SsyncSubsets,
        InterleavingMode::AsyncPhases,
    ];

    #[test]
    fn frontier_codes_match_the_nondeterministic_scheduler() {
        // The coded frontier is the scheduler's frontier, step for step, in
        // the same order — for ready robots, pending robots and both modes.
        let c = Configuration::from_gaps_at_origin(&[1, 1, 4]);
        let mut engine =
            Engine::with_default_options(rr_corda::protocol::GreedyGapWalker, c).unwrap();
        engine.step(&SchedulerStep::Look(1), &mut ()).unwrap();
        for mode in MODES {
            let scheduler = NondeterministicScheduler::new(mode);
            let expected = scheduler.frontier(&engine.scheduler_view());
            let mut codes = Vec::new();
            frontier_codes(mode, engine.robots(), 0, &mut codes);
            let decoded: Vec<SchedulerStep> = codes
                .iter()
                .map(|&c| decode_step_with(c, &mut Vec::new()))
                .collect();
            assert_eq!(decoded, expected, "mode={mode}");
            for (code, step) in codes.iter().zip(&expected) {
                assert_eq!(
                    step_activation_mask(*code),
                    NondeterministicScheduler::activation_mask(step)
                );
                let mut buf = Vec::new();
                let with_buf = decode_step_with(*code, &mut buf);
                assert_eq!(&with_buf, step);
                recycle_step(with_buf, &mut buf);
            }
        }
    }

    #[test]
    fn gathering_is_verified_exhaustively_on_small_rings() {
        // Every rigid initial class of (6, 3) and (7, 3), both interleaving
        // spaces: safety + liveness proved, not sampled.
        for (n, k) in [(6usize, 3usize), (7, 3)] {
            for initial in enumerate_rigid_configurations(n, k) {
                for mode in MODES {
                    let report = check_protocol_with_stats(
                        &GatheringProtocol::new(),
                        &initial,
                        &GatheringInvariant::new(),
                        &ExploreOptions::new(mode),
                    )
                    .unwrap()
                    .0;
                    assert!(
                        report.verified(),
                        "n={n} k={k} mode={mode}: {:?}",
                        report.outcome
                    );
                    assert!(report.target_states > 0, "n={n} k={k} mode={mode}");
                    assert!(report.quotient_states <= report.states);
                    assert!(report.edges > 0);
                    assert!(report.peak_resident_nodes >= report.states);
                }
            }
        }
    }

    #[test]
    fn quotient_safety_pass_agrees_and_is_smaller() {
        let initial = enumerate_rigid_configurations(7, 3).remove(0);
        for mode in MODES {
            let concrete = check_protocol_with_stats(
                &GatheringProtocol::new(),
                &initial,
                &GatheringInvariant::new(),
                &ExploreOptions::new(mode).safety_only(),
            )
            .unwrap()
            .0;
            let quotient = check_protocol_quotient_with_stats(
                &GatheringProtocol::new(),
                &initial,
                &GatheringInvariant::new(),
                &ExploreOptions::new(mode).safety_only(),
            )
            .unwrap()
            .0;
            assert!(concrete.verified() && quotient.verified(), "mode={mode}");
            // The quotient explorer's state count is exactly the number of
            // canonical classes the concrete explorer reports.
            assert_eq!(quotient.states, concrete.quotient_states, "mode={mode}");
            assert!(quotient.states <= concrete.states, "mode={mode}");
        }
    }

    #[test]
    fn quotient_dedup_strictly_shrinks_symmetric_state_spaces() {
        // Two idle robots on a 6-ring: the concrete ASYNC graph has all four
        // ready/idle-pending phase combinations, but "robot 0 pending" and
        // "robot 1 pending" are isomorphic under the reflection exchanging
        // the two robots — the canonical quotient merges them (4 → 3).
        let initial = Configuration::from_gaps_at_origin(&[1, 3]);
        let options = ExploreOptions::new(InterleavingMode::AsyncPhases).safety_only();
        let concrete = check_protocol_with_stats(
            &rr_corda::protocol::IdleProtocol,
            &initial,
            &GatheringInvariant::new(),
            &options,
        )
        .unwrap()
        .0;
        let quotient = check_protocol_quotient_with_stats(
            &rr_corda::protocol::IdleProtocol,
            &initial,
            &GatheringInvariant::new(),
            &options.safety_only(),
        )
        .unwrap()
        .0;
        assert_eq!(concrete.states, 4);
        assert_eq!(quotient.states, 3);
        assert_eq!(concrete.quotient_states, 3);
    }

    #[test]
    fn idle_mutant_yields_a_liveness_counterexample_that_replays() {
        // Mutate ONE decision-table entry of the gathering protocol: robots
        // observing the initial configuration class stay idle.  From that
        // class no robot ever moves, so a fair schedule loops forever — the
        // checker must find the lasso and it must replay on the engine.
        let initial = enumerate_rigid_configurations(7, 3).remove(0);
        let mutant = MutatedProtocol::new(
            GatheringProtocol::new(),
            MutatedProtocol::<GatheringProtocol>::trigger_for(&initial),
            Decision::Idle,
        );
        for mode in MODES {
            let report = check_protocol_with_stats(
                &mutant,
                &initial,
                &GatheringInvariant::new(),
                &ExploreOptions::new(mode),
            )
            .unwrap()
            .0;
            let ce = report.counterexample().expect("mutant must be falsified");
            assert_eq!(ce.kind, ViolationKind::Liveness);
            assert!(!ce.cycle.is_empty());
            let replay =
                replay_counterexample(&mutant, &initial, &GatheringInvariant::new(), ce).unwrap();
            assert!(replay.reproduced, "mode={mode}: {}", replay.detail);
            assert!(!ce.render().is_empty());
        }
    }

    #[test]
    fn quotient_liveness_agrees_with_concrete_on_verified_instances() {
        // The tentpole soundness claim, smallest form: the full quotient
        // check (safety + σ-threaded liveness) returns the same verdict as
        // the concrete check on verified cells, while exploring only the
        // canonical classes.  tests/exhaustive_small_instances.rs pins the
        // same equality over the whole proved grid.
        for (n, k) in [(6usize, 3usize), (7, 3)] {
            let initial = enumerate_rigid_configurations(n, k).remove(0);
            for mode in MODES {
                let concrete = check_protocol_with_stats(
                    &GatheringProtocol::new(),
                    &initial,
                    &GatheringInvariant::new(),
                    &ExploreOptions::new(mode),
                )
                .unwrap()
                .0;
                let quotient = check_protocol_quotient_with_stats(
                    &GatheringProtocol::new(),
                    &initial,
                    &GatheringInvariant::new(),
                    &ExploreOptions::new(mode),
                )
                .unwrap()
                .0;
                assert!(concrete.verified(), "n={n} k={k} mode={mode}");
                assert!(quotient.verified(), "n={n} k={k} mode={mode}");
                assert_eq!(quotient.states, concrete.quotient_states, "mode={mode}");
                assert!(quotient.states <= concrete.states);
            }
        }
    }

    #[test]
    fn quotient_liveness_finds_the_idle_mutant_lasso_and_it_replays() {
        // The other half of soundness: on a falsified cell the quotient
        // checker must still find the fair lasso, and — because the
        // counterexample is realized over *concrete* robots by unwinding the
        // accumulated relabelings — it must replay on the engine verbatim.
        let initial = enumerate_rigid_configurations(7, 3).remove(0);
        let mutant = MutatedProtocol::new(
            GatheringProtocol::new(),
            MutatedProtocol::<GatheringProtocol>::trigger_for(&initial),
            Decision::Idle,
        );
        for mode in MODES {
            let report = check_protocol_quotient_with_stats(
                &mutant,
                &initial,
                &GatheringInvariant::new(),
                &ExploreOptions::new(mode),
            )
            .unwrap()
            .0;
            let ce = report.counterexample().expect("mutant must be falsified");
            assert_eq!(ce.kind, ViolationKind::Liveness);
            assert!(!ce.cycle.is_empty());
            let replay =
                replay_counterexample(&mutant, &initial, &GatheringInvariant::new(), ce).unwrap();
            assert!(replay.reproduced, "mode={mode}: {}", replay.detail);
        }
    }

    #[test]
    fn quotient_liveness_handles_a_genuinely_merged_class() {
        // Two idle robots on a 6-ring: the quotient merges "robot 0 pending"
        // with "robot 1 pending" (4 concrete states → 3 classes), so the
        // starving lasso the checker reports passes through a class whose
        // concrete realization needs a non-identity relabeling.  The verdict
        // must match the concrete one and the trace must replay.
        let initial = Configuration::from_gaps_at_origin(&[1, 3]);
        let inv = GatheringInvariant::new();
        let options = ExploreOptions::new(InterleavingMode::AsyncPhases);
        let concrete =
            check_protocol_with_stats(&rr_corda::protocol::IdleProtocol, &initial, &inv, &options)
                .unwrap()
                .0;
        let quotient = check_protocol_quotient_with_stats(
            &rr_corda::protocol::IdleProtocol,
            &initial,
            &inv,
            &options,
        )
        .unwrap()
        .0;
        let concrete_ce = concrete.counterexample().expect("idle never gathers");
        let ce = quotient.counterexample().expect("idle never gathers");
        assert_eq!(ce.kind, ViolationKind::Liveness);
        assert_eq!(concrete_ce.kind, ViolationKind::Liveness);
        assert_eq!(quotient.states, 3);
        assert_eq!(concrete.states, 4);
        let replay =
            replay_counterexample(&rr_corda::protocol::IdleProtocol, &initial, &inv, ce).unwrap();
        assert!(replay.reproduced, "{}", replay.detail);
    }

    /// The two public entry points, as one function-pointer type.
    type EntryPoint<P> = fn(
        &P,
        &Configuration,
        &dyn Invariant,
        &ExploreOptions,
    ) -> Result<(ExploreReport, StoreStats), SimError>;

    fn entry_points<P: Protocol + Clone>() -> [(&'static str, EntryPoint<P>); 2] {
        [
            ("exact", check_protocol_with_stats::<P>),
            ("quotient", check_protocol_quotient_with_stats::<P>),
        ]
    }

    #[test]
    fn spill_store_reports_are_byte_identical_to_mem() {
        // The spill backend must be observationally invisible: identical
        // ExploreReport (and counterexample, on falsified cells) for every
        // budget — including budgets landing exactly on a cluster edge, the
        // point where the resident cache evicts precisely as a window seals.
        // Both entry points: the quotient's edge stream also carries every
        // edge's recorded alignment across the spill file.
        let initial = enumerate_rigid_configurations(7, 3).remove(0);
        let inv = GatheringInvariant::new();
        let mutant = MutatedProtocol::new(
            GatheringProtocol::new(),
            MutatedProtocol::<GatheringProtocol>::trigger_for(&initial),
            Decision::Idle,
        );
        for mode in MODES {
            let base = ExploreOptions::new(mode);
            for (path, check) in entry_points::<GatheringProtocol>() {
                let (mem, mem_stats) =
                    check(&GatheringProtocol::new(), &initial, &inv, &base).unwrap();
                assert!(mem.verified(), "{path} mode={mode}");
                assert_eq!(mem_stats.store, StoreKind::Mem);
                assert_eq!(mem_stats.spilled_bytes, 0);
                let per_state = mem.state_bytes / mem.states as u64;
                let cluster_bytes = per_state * crate::store::CLUSTER as u64;
                for budget in [0, 1, cluster_bytes, 2 * cluster_bytes, u64::MAX] {
                    let (spill, spill_stats) = check(
                        &GatheringProtocol::new(),
                        &initial,
                        &inv,
                        &base.with_store(StoreKind::Spill).with_mem_budget(budget),
                    )
                    .unwrap();
                    assert_eq!(spill, mem, "{path} mode={mode} budget={budget}");
                    assert_eq!(spill_stats.store, StoreKind::Spill);
                    assert!(spill_stats.spilled_bytes > 0, "{path} mode={mode}");
                }
            }
            // Falsified cell: the counterexample inside the report must also
            // be bit-for-bit identical (it is part of the PartialEq above,
            // but assert the interesting piece explicitly).
            for (path, check) in entry_points::<MutatedProtocol<GatheringProtocol>>() {
                let mem = check(&mutant, &initial, &inv, &base).unwrap().0;
                let lasso = mem.counterexample().expect("mutant is falsified").render();
                let cluster_bytes =
                    mem.state_bytes / mem.states as u64 * crate::store::CLUSTER as u64;
                for budget in [0, 1, cluster_bytes, u64::MAX] {
                    let options = base.with_store(StoreKind::Spill).with_mem_budget(budget);
                    let spill = check(&mutant, &initial, &inv, &options).unwrap().0;
                    assert_eq!(mem, spill, "{path} mode={mode} budget={budget}");
                    assert_eq!(
                        spill.counterexample().unwrap().render(),
                        lasso,
                        "{path} mode={mode} budget={budget}"
                    );
                }
            }
        }
    }

    /// Checks every edge alignment a canonical run recorded against the
    /// independent oracle: replay the edge on a fresh engine and align the
    /// successor onto the stored target with [`relabel_onto`].  Returns the
    /// number of edges checked.
    fn assert_recorded_alignments<P: Protocol + Clone>(
        protocol: &P,
        initial: &Configuration,
        invariant: &dyn Invariant,
        mode: InterleavingMode,
    ) -> usize {
        let options = ExploreOptions::new(mode);
        let mut explored =
            explore_graph(protocol, initial, invariant, &options, Dedup::Canonical).unwrap();
        assert_eq!(explored.dedup, Dedup::Canonical);
        let k = explored.full_mask.count_ones() as usize;
        let (edges, aligns) = explored.sink.finish();
        assert_eq!(aligns.len(), edges.len(), "one alignment per edge");
        let mut engine = Engine::with_default_options(protocol.clone(), initial.clone()).unwrap();
        for u in 0..explored.offsets.len() - 1 {
            let from = explored.store.get(u);
            let first = explored.offsets[u] as usize;
            let out = &edges[first..explored.offsets[u + 1] as usize];
            for (index, edge) in (first..).zip(out) {
                let align = aligns.get(index);
                engine.restore_packed(&from);
                let step = decode_step_with(edge.code(), &mut Vec::new());
                engine.step(&step, &mut ()).unwrap();
                let to = explored.store.get(edge.to as usize);
                let oracle = relabel_onto(&engine.pack_behavior(), &to).unwrap();
                assert_eq!(
                    RobotPerm::from_bits(k, align),
                    oracle,
                    "edge {u} --{step:?}--> {}",
                    edge.to
                );
            }
        }
        edges.len()
    }

    #[test]
    fn recorded_alignments_match_the_relabel_oracle() {
        let mut checked = 0;
        for (n, k) in [(7usize, 3usize), (9, 4), (10, 4)] {
            for initial in enumerate_rigid_configurations(n, k) {
                for mode in MODES {
                    checked += assert_recorded_alignments(
                        &GatheringProtocol::new(),
                        &initial,
                        &GatheringInvariant::new(),
                        mode,
                    );
                    checked += assert_recorded_alignments(
                        &AlignProtocol::new(),
                        &initial,
                        &AlignmentInvariant::new(),
                        mode,
                    );
                }
            }
        }
        // The idle mutant: a falsified cell whose lasso realization reads
        // the recorded alignments.
        let initial = enumerate_rigid_configurations(7, 3).remove(0);
        let mutant = MutatedProtocol::new(
            GatheringProtocol::new(),
            MutatedProtocol::<GatheringProtocol>::trigger_for(&initial),
            Decision::Idle,
        );
        for mode in MODES {
            checked +=
                assert_recorded_alignments(&mutant, &initial, &GatheringInvariant::new(), mode);
        }
        assert!(checked > 1000, "only {checked} edges checked");
    }

    #[test]
    fn exact_key_runs_record_no_alignments() {
        // Safety-only quotient runs and exact-key runs store the bare 8-byte
        // edge records.
        let initial = enumerate_rigid_configurations(7, 3).remove(0);
        let inv = GatheringInvariant::new();
        let options = ExploreOptions::new(InterleavingMode::AsyncPhases);
        for (options, dedup) in [
            (options, Dedup::Exact),
            (options.safety_only(), Dedup::Canonical),
        ] {
            let mut explored =
                explore_graph(&GatheringProtocol::new(), &initial, &inv, &options, dedup).unwrap();
            let (edges, aligns) = explored.sink.finish();
            assert!(!edges.is_empty());
            assert_eq!(aligns.len(), 0, "dedup={dedup:?}");
        }
    }

    #[test]
    fn quotient_entry_point_decides_liveness_beyond_sixteen_robots() {
        // 17 idle robots on an 18-ring: a 4-bit relabeling cannot name 17
        // robots, so the quotient entry point decides liveness on exact keys
        // and agrees with the reference — one state, 2^17 - 1 self-loops,
        // falsified by a fair lasso that replays.
        let mut gaps = vec![0usize; 16];
        gaps.push(1);
        let initial = Configuration::from_gaps_at_origin(&gaps);
        let inv = GatheringInvariant::new();
        let options = ExploreOptions::new(InterleavingMode::SsyncSubsets);
        let protocol = rr_corda::protocol::IdleProtocol;
        let exact = check_protocol_with_stats(&protocol, &initial, &inv, &options)
            .unwrap()
            .0;
        let quotient = check_protocol_quotient_with_stats(&protocol, &initial, &inv, &options)
            .unwrap()
            .0;
        assert_eq!(quotient, exact);
        assert_eq!((exact.states, exact.edges), (1, (1 << 17) - 1));
        let ce = quotient.counterexample().expect("idle never gathers");
        assert_eq!(ce.kind, ViolationKind::Liveness);
        let replay = replay_counterexample(&protocol, &initial, &inv, ce).unwrap();
        assert!(replay.reproduced, "{}", replay.detail);
    }

    #[test]
    fn collision_mutant_yields_a_minimal_safety_counterexample_that_replays() {
        // C* on (8, 4) contains a robot whose clockwise neighbour is
        // occupied; overriding that class's decision with "move" lets the
        // adversary force a collision.  BFS order makes the reported trace
        // minimal: one SSYNC round, or Look + Execute under ASYNC.
        let initial = Configuration::from_gaps_at_origin(&[0, 0, 1, 3]);
        let mutant = MutatedProtocol::new(
            AlignProtocol::new(),
            MutatedProtocol::<AlignProtocol>::trigger_for(&initial),
            Decision::Move(rr_corda::ViewIndex::First),
        );
        for (mode, minimal_len) in [
            (InterleavingMode::SsyncSubsets, 1),
            (InterleavingMode::AsyncPhases, 2),
        ] {
            let report = check_protocol_with_stats(
                &mutant,
                &initial,
                &AlignmentInvariant::new(),
                &ExploreOptions::new(mode),
            )
            .unwrap()
            .0;
            let ce = report.counterexample().expect("mutant must be falsified");
            assert_eq!(ce.kind, ViolationKind::Safety);
            assert_eq!(ce.prefix.len(), minimal_len, "mode={mode}: {}", ce.render());
            assert!(ce.cycle.is_empty());
            let replay =
                replay_counterexample(&mutant, &initial, &AlignmentInvariant::new(), ce).unwrap();
            assert!(replay.reproduced, "mode={mode}: {}", replay.detail);
            assert!(replay.detail.contains("exclusivity") || replay.detail.contains("occupied"));
        }
    }

    #[test]
    fn alignment_is_verified_exhaustively() {
        for initial in enumerate_rigid_configurations(7, 3) {
            for mode in MODES {
                let report = check_protocol_with_stats(
                    &AlignProtocol::new(),
                    &initial,
                    &AlignmentInvariant::new(),
                    &ExploreOptions::new(mode),
                )
                .unwrap()
                .0;
                assert!(report.verified(), "mode={mode}: {:?}", report.outcome);
            }
        }
    }

    #[test]
    fn searching_liveness_falsifies_a_protocol_that_never_clears() {
        // The idle protocol trivially never clears the ring: the checker
        // reports a fair no-progress lasso under the perpetual-searching
        // invariant, and the lasso replays.
        let initial = Configuration::from_gaps_at_origin(&[1, 3]); // n=6, k=2
        let inv = SearchingInvariant::new();
        let report = check_protocol_with_stats(
            &rr_corda::protocol::IdleProtocol,
            &initial,
            &inv,
            &ExploreOptions::new(InterleavingMode::AsyncPhases),
        )
        .unwrap()
        .0;
        let ce = report.counterexample().expect("idle never clears");
        assert_eq!(ce.kind, ViolationKind::Liveness);
        assert_eq!(report.progress_edges, 0);
        let replay =
            replay_counterexample(&rr_corda::protocol::IdleProtocol, &initial, &inv, ce).unwrap();
        assert!(replay.reproduced, "{}", replay.detail);
    }

    #[test]
    fn budget_hit_exactly_at_the_frontier_edge_is_reported_as_incomplete() {
        // ASYNC from a rigid (7, 3) class: the root has exactly 3 successors
        // (Look 0, Look 1, Look 2), all distinct.  A budget of 3 is hit
        // precisely when the LAST frontier edge of the root discovers its
        // state: both earlier root edges were recorded (and reference
        // discovered states), yet the root's expansion is still incomplete —
        // discovered (3) and completed expansions (0) must say so
        // separately, where the old report claimed `explored = 3`.
        let initial = enumerate_rigid_configurations(7, 3).remove(0);
        let report = check_protocol_with_stats(
            &GatheringProtocol::new(),
            &initial,
            &GatheringInvariant::new(),
            &ExploreOptions::new(InterleavingMode::AsyncPhases).with_max_states(3),
        )
        .unwrap()
        .0;
        assert_eq!(
            report.outcome,
            CheckOutcome::BudgetExceeded {
                discovered: 3,
                completed_expansions: 0,
            }
        );
        // One more state of budget: the root's whole frontier fits, its
        // expansion completes, and the budget trips during node 1's
        // expansion instead — completed expansions advance to 1.
        let report = check_protocol_with_stats(
            &GatheringProtocol::new(),
            &initial,
            &GatheringInvariant::new(),
            &ExploreOptions::new(InterleavingMode::AsyncPhases).with_max_states(4),
        )
        .unwrap()
        .0;
        assert_eq!(
            report.outcome,
            CheckOutcome::BudgetExceeded {
                discovered: 4,
                completed_expansions: 1,
            }
        );
    }

    #[test]
    fn render_is_compact() {
        let mut ce = Counterexample {
            kind: ViolationKind::Liveness,
            message: "m".to_string(),
            prefix: vec![SchedulerStep::Look(1), SchedulerStep::Execute(1)],
            cycle: vec![SchedulerStep::SsyncRound(vec![0, 2])],
            faults: Vec::new(),
            starved: 0,
        };
        assert_eq!(ce.render(), "m: L1 E1 (R{0,2})*");
        ce.faults.push(FaultDirective::Crash { at: 1, robot: 2 });
        ce.faults.push(FaultDirective::Corrupt {
            at: 0,
            robot: 1,
            kind: CorruptionKind::PhantomMultiplicity,
        });
        ce.starved = 0b100;
        assert_eq!(
            ce.render(),
            "m: L1 E1 (R{0,2})* [crash 2 @1] [corrupt 1 phantom @0] [starved {2}]"
        );
    }

    #[test]
    fn fault_codes_round_trip_and_label_their_activations() {
        // Crash codes: no engine step, no activation, robot recoverable.
        for r in 0..20usize {
            let code = crash_code(r);
            assert_eq!(crash_code_robot(code), Some(r));
            assert_eq!(corrupt_code_parts(code), None);
            assert_eq!(code_engine_step(code), None);
            assert_eq!(step_activation_mask(code), 0);
        }
        // ASYNC corrupt codes: underlying solo Look, offset 0.
        for r in 0..20usize {
            for kind in CorruptionKind::ALL {
                let code = corrupt_look_code(r, kind);
                assert_eq!(crash_code_robot(code), None);
                assert_eq!(corrupt_code_parts(code), Some((r, kind, 0)));
                assert_eq!(code_engine_step(code), Some(SchedulerStep::Look(r)));
                assert_eq!(step_activation_mask(code), 1 << r);
            }
        }
        // SSYNC corrupt codes: underlying round, offset = victim's rank.
        let mask = 0b1101u32;
        for (victim, offset) in [(0usize, 0u64), (2, 1), (3, 2)] {
            for kind in CorruptionKind::ALL {
                let code = corrupt_round_code(mask, victim, kind);
                assert_eq!(corrupt_code_parts(code), Some((victim, kind, offset)));
                assert_eq!(
                    code_engine_step(code),
                    Some(SchedulerStep::SsyncRound(vec![0, 2, 3]))
                );
                assert_eq!(step_activation_mask(code), mask);
            }
        }
        // Fault words: crashed mask and corruption count round-trip.
        let word = fault_word(0b1010, 3);
        assert_eq!(fault_crashed(word), 0b1010);
        assert_eq!(fault_corrupts(word), 3);
    }

    #[test]
    fn crashed_robots_leave_the_frontier() {
        let c = Configuration::from_gaps_at_origin(&[1, 1, 4]);
        let engine = Engine::with_default_options(rr_corda::protocol::GreedyGapWalker, c).unwrap();
        let mut codes = Vec::new();
        frontier_codes(
            InterleavingMode::AsyncPhases,
            engine.robots(),
            0b010,
            &mut codes,
        );
        let decoded: Vec<SchedulerStep> = codes
            .iter()
            .map(|&c| decode_step_with(c, &mut Vec::new()))
            .collect();
        assert_eq!(
            decoded,
            vec![SchedulerStep::Look(0), SchedulerStep::Look(2)]
        );
        frontier_codes(
            InterleavingMode::SsyncSubsets,
            engine.robots(),
            0b010,
            &mut codes,
        );
        assert!(codes.iter().all(|&c| step_activation_mask(c) & 0b010 == 0));
        assert_eq!(codes.len(), 3, "subsets of {{0, 2}}");
    }

    #[test]
    fn empty_fault_budget_explores_byte_identically() {
        // The fault-free adversary and a FaultBudget::none() adversary are
        // the SAME exploration: identical reports, field for field.
        let initial = enumerate_rigid_configurations(7, 3).remove(0);
        for mode in MODES {
            let plain = check_protocol_with_stats(
                &GatheringProtocol::new(),
                &initial,
                &GatheringInvariant::new(),
                &ExploreOptions::new(mode),
            )
            .unwrap()
            .0;
            let budgeted = check_protocol_with_stats(
                &GatheringProtocol::new(),
                &initial,
                &GatheringInvariant::new(),
                &ExploreOptions::new(mode).with_faults(FaultBudget::none()),
            )
            .unwrap()
            .0;
            assert_eq!(plain, budgeted, "mode={mode}");
        }
    }

    #[test]
    fn one_crash_fault_falsifies_plain_gathering_with_a_replaying_lasso() {
        // GatheringInvariant demands ALL robots gather; a crash-stopped
        // robot never moves again, so the adversary crashes one robot and
        // loops fairly-modulo-the-crash forever.  The counterexample must
        // carry the crash directive and replay on a fresh engine.
        let initial = enumerate_rigid_configurations(6, 3).remove(0);
        for mode in MODES {
            let report = check_protocol_with_stats(
                &GatheringProtocol::new(),
                &initial,
                &GatheringInvariant::new(),
                &ExploreOptions::new(mode).with_faults(FaultBudget::none().with_crashes(1)),
            )
            .unwrap()
            .0;
            let ce = report.counterexample().expect("crash defeats gathering");
            assert_eq!(ce.kind, ViolationKind::Liveness);
            assert!(
                ce.faults
                    .iter()
                    .any(|f| matches!(f, FaultDirective::Crash { .. })),
                "mode={mode}: {}",
                ce.render()
            );
            let replay = replay_counterexample(
                &GatheringProtocol::new(),
                &initial,
                &GatheringInvariant::new(),
                ce,
            )
            .unwrap();
            assert!(replay.reproduced, "mode={mode}: {}", replay.detail);
        }
    }

    #[test]
    fn crash_branching_strictly_grows_the_state_space() {
        let initial = enumerate_rigid_configurations(6, 3).remove(0);
        let inv = rr_core::invariant::CrashTolerantGatheringInvariant::new();
        for mode in MODES {
            let plain = check_protocol_with_stats(
                &GatheringProtocol::new(),
                &initial,
                &inv,
                &ExploreOptions::new(mode).safety_only(),
            )
            .unwrap()
            .0;
            let crashy = check_protocol_with_stats(
                &GatheringProtocol::new(),
                &initial,
                &inv,
                &ExploreOptions::new(mode)
                    .safety_only()
                    .with_faults(FaultBudget::none().with_crashes(1)),
            )
            .unwrap()
            .0;
            assert!(
                crashy.states > plain.states,
                "mode={mode}: {} !> {}",
                crashy.states,
                plain.states
            );
        }
    }

    #[test]
    fn corrupt_look_branching_verifies_or_replays() {
        // Gathering under one corrupted Look: whatever the verdict, a
        // falsification must be a certificate (the replay reproduces it,
        // corruption directive and all).  The liveness-only invariant keeps
        // the durable-gathering safety clause out of the way: a corrupted
        // Look may legitimately break an existing multiplicity.
        let initial = enumerate_rigid_configurations(6, 3).remove(0);
        let inv = rr_core::invariant::EventualGatheringInvariant::new();
        for mode in MODES {
            let report = check_protocol_with_stats(
                &GatheringProtocol::new(),
                &initial,
                &inv,
                &ExploreOptions::new(mode).with_faults(FaultBudget::none().with_corrupt_looks(1)),
            )
            .unwrap()
            .0;
            match report.counterexample() {
                None => assert!(report.verified(), "mode={mode}: {:?}", report.outcome),
                Some(ce) => {
                    let replay =
                        replay_counterexample(&GatheringProtocol::new(), &initial, &inv, ce)
                            .unwrap();
                    assert!(replay.reproduced, "mode={mode}: {}", replay.detail);
                }
            }
        }
    }

    #[test]
    fn starving_one_robot_yields_an_unfair_lasso_that_replays() {
        // IdleProtocol never gathers; with robot 0 starved forever the
        // reported lasso must not activate robot 0 in its cycle, must name
        // the starved robot, and must replay under the relaxed fairness.
        let initial = Configuration::from_gaps_at_origin(&[1, 3]); // n=6, k=2
        let report = check_protocol_with_stats(
            &rr_corda::protocol::IdleProtocol,
            &initial,
            &GatheringInvariant::new(),
            &ExploreOptions::new(InterleavingMode::AsyncPhases)
                .with_faults(FaultBudget::none().with_starved(0b01)),
        )
        .unwrap()
        .0;
        let ce = report.counterexample().expect("idle never gathers");
        assert_eq!(ce.kind, ViolationKind::Liveness);
        assert_eq!(ce.starved, 0b01);
        for step in &ce.cycle {
            assert_eq!(
                NondeterministicScheduler::activation_mask(step) & 0b01,
                0,
                "cycle must not need the starved robot: {}",
                ce.render()
            );
        }
        let replay = replay_counterexample(
            &rr_corda::protocol::IdleProtocol,
            &initial,
            &GatheringInvariant::new(),
            ce,
        )
        .unwrap();
        assert!(replay.reproduced, "{}", replay.detail);
    }

    #[test]
    fn crash_tolerant_gathering_under_one_crash_has_a_verdict_that_replays() {
        // The degradation question itself: does gathering-of-the-survivors
        // hold under one crash?  Either answer is acceptable — but a
        // falsification must replay.  (The E14 experiment sweeps the grid.)
        let initial = enumerate_rigid_configurations(6, 3).remove(0);
        let inv = rr_core::invariant::CrashTolerantGatheringInvariant::new();
        for mode in MODES {
            let report = check_protocol_with_stats(
                &GatheringProtocol::new(),
                &initial,
                &inv,
                &ExploreOptions::new(mode).with_faults(FaultBudget::none().with_crashes(1)),
            )
            .unwrap()
            .0;
            if let Some(ce) = report.counterexample() {
                let replay =
                    replay_counterexample(&GatheringProtocol::new(), &initial, &inv, ce).unwrap();
                assert!(replay.reproduced, "mode={mode}: {}", replay.detail);
            }
        }
    }
}

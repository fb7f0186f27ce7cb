//! Exhaustive protocol-synthesis search for the smallest impossible cases.
//!
//! In the min-CORDA model a deterministic algorithm *is* a function from the
//! robot's local snapshot (its unordered pair of directional views) to a
//! decision.  For small `(k, n)` the number of such functions is finite, so
//! impossibility can be machine-checked: enumerate every protocol and show
//! that a fair semi-synchronous adversary defeats each of them — either by
//! forcing two robots onto the same node (an exclusivity collision) or by
//! scheduling the robots fairly while the ring never becomes entirely clear.
//!
//! A protocol defeated by the semi-synchronous adversary is also defeated by
//! the fully asynchronous CORDA adversary (every SSYNC schedule is a valid
//! ASYNC schedule).  The search therefore gives machine-checked counterparts
//! of the impossibility results wherever **all** protocols are defeated —
//! which is the case for `k ∈ {1, 2}` (Theorem 2).  For `k = 3` a handful of
//! protocols survive the semi-synchronous adversary: ruling those out needs
//! the pending-move (asynchronous) schedules used in the proof of Theorem 3,
//! which are outside this exhaustive search; the search still reports and
//! counts the survivors so the gap is explicit (see `exp_impossibility`).
//! The fairness witness used here is a reachable cycle of non-cleared states
//! containing at least one round that activates every robot.

use std::collections::{HashMap, VecDeque};

use rr_ring::enumerate::enumerate_configurations;
use rr_ring::{Ring, View};
use serde::{Deserialize, Serialize};

/// Decision table entry for one view class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LocalDecision {
    /// Stay idle.
    Idle,
    /// Move in the direction whose view is lexicographically smaller; when the
    /// two views are equal this means "move" and the adversary picks the
    /// direction.
    TowardSmallerView,
    /// Move in the direction whose view is lexicographically larger (only
    /// meaningful when the two views differ).
    TowardLargerView,
}

/// Outcome of playing one protocol from one initial configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GameOutcome {
    /// The adversary forces two robots onto the same node.
    CollisionForced,
    /// The adversary has a fair schedule along which the ring is never
    /// entirely clear.
    FairAvoidanceForced,
    /// The search could not defeat the protocol from this configuration
    /// (within the model used here).
    NotDisproved,
}

/// Result of the exhaustive search over all protocols for a pair `(n, k)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ImpossibilityResult {
    /// Ring size.
    pub n: usize,
    /// Number of robots.
    pub k: usize,
    /// Number of view classes (the protocol domain size).
    pub view_classes: usize,
    /// Number of protocols enumerated.
    pub protocols_checked: u64,
    /// Number of protocols the adversary could *not* defeat from every initial
    /// configuration (0 confirms the impossibility result).
    pub surviving_protocols: u64,
}

impl ImpossibilityResult {
    /// Whether every protocol was defeated from every initial configuration.
    #[must_use]
    pub fn impossibility_confirmed(&self) -> bool {
        self.surviving_protocols == 0
    }
}

fn occupied_nodes(mask: u32, n: usize) -> Vec<usize> {
    (0..n).filter(|&v| mask & (1 << v) != 0).collect()
}

fn views_at(mask: u32, n: usize, v: usize) -> (View, View) {
    let ring = Ring::new(n);
    let mut out = [Vec::new(), Vec::new()];
    for (slot, step) in [(0usize, 1isize), (1usize, -1isize)] {
        let mut cur = v;
        let k = (mask.count_ones()) as usize;
        for _ in 0..k {
            let mut gap = 0usize;
            loop {
                cur = if step == 1 {
                    ring.neighbor(cur, rr_ring::Direction::Cw)
                } else {
                    ring.neighbor(cur, rr_ring::Direction::Ccw)
                };
                if mask & (1 << cur) != 0 {
                    break;
                }
                gap += 1;
            }
            out[slot].push(gap);
        }
    }
    (View::new(out[0].clone()), View::new(out[1].clone()))
}

fn class_key(mask: u32, n: usize, v: usize) -> (View, View) {
    let (a, b) = views_at(mask, n, v);
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// All view classes occurring in any exclusive configuration of `k` robots on
/// an `n`-node ring.
#[must_use]
pub fn view_classes(n: usize, k: usize) -> Vec<(View, View)> {
    let mut classes = Vec::new();
    for config in enumerate_configurations(n, k) {
        let mask = config
            .occupied_nodes()
            .into_iter()
            .fold(0u32, |m, v| m | (1 << v));
        for v in occupied_nodes(mask, n) {
            let key = class_key(mask, n, v);
            if !classes.contains(&key) {
                classes.push(key);
            }
        }
    }
    classes.sort();
    classes
}

/// A concrete protocol: one decision per view class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolTable {
    classes: Vec<(View, View)>,
    decisions: Vec<LocalDecision>,
}

impl ProtocolTable {
    /// Builds a protocol table.
    #[must_use]
    pub fn new(classes: Vec<(View, View)>, decisions: Vec<LocalDecision>) -> Self {
        assert_eq!(classes.len(), decisions.len());
        ProtocolTable { classes, decisions }
    }

    fn decision_for(&self, key: &(View, View)) -> LocalDecision {
        match self.classes.binary_search(key) {
            Ok(i) => self.decisions[i],
            Err(_) => LocalDecision::Idle,
        }
    }
}

/// The number of protocols for the given classes (2 options for locally
/// symmetric classes, 3 otherwise).
#[must_use]
pub fn protocol_count(classes: &[(View, View)]) -> u64 {
    classes
        .iter()
        .map(|(a, b)| if a == b { 2u64 } else { 3u64 })
        .product()
}

fn decode_protocol(classes: &[(View, View)], mut index: u64) -> ProtocolTable {
    let mut decisions = Vec::with_capacity(classes.len());
    for (a, b) in classes {
        let radix = if a == b { 2 } else { 3 };
        let digit = (index % radix) as usize;
        index /= radix;
        let d = match digit {
            0 => LocalDecision::Idle,
            1 => LocalDecision::TowardSmallerView,
            _ => LocalDecision::TowardLargerView,
        };
        decisions.push(d);
    }
    ProtocolTable::new(classes.to_vec(), decisions)
}

/// Game state: which nodes are occupied and which edges are clear.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct State {
    occupied: u32,
    clear: u32,
}

fn guarded_edges(occupied: u32, n: usize) -> u32 {
    let mut clear = 0u32;
    for e in 0..n {
        let u = e;
        let v = (e + 1) % n;
        if occupied & (1 << u) != 0 && occupied & (1 << v) != 0 {
            clear |= 1 << e;
        }
    }
    clear
}

fn recontaminate(occupied: u32, mut clear: u32, n: usize) -> u32 {
    let mut changed = true;
    while changed {
        changed = false;
        for e in 0..n {
            if clear & (1 << e) != 0 {
                continue;
            }
            let endpoints = [e, (e + 1) % n];
            for w in endpoints {
                if occupied & (1 << w) != 0 {
                    continue;
                }
                for other in [(w + n - 1) % n, w] {
                    if other != e && clear & (1 << other) != 0 {
                        clear &= !(1 << other);
                        changed = true;
                    }
                }
            }
        }
    }
    clear
}

/// Explores the game of one protocol from one initial occupied mask.
fn play(protocol: &ProtocolTable, n: usize, initial_occupied: u32) -> GameOutcome {
    let full_clear = (1u32 << n) - 1;
    let initial = State {
        occupied: initial_occupied,
        clear: recontaminate(initial_occupied, guarded_edges(initial_occupied, n), n),
    };
    // Reachable-state graph; edges carry "did this round activate all robots".
    let mut index: HashMap<State, usize> = HashMap::new();
    let mut states: Vec<State> = Vec::new();
    let mut edges: Vec<Vec<(usize, bool)>> = Vec::new();
    let mut queue = VecDeque::new();
    index.insert(initial, 0);
    states.push(initial);
    edges.push(Vec::new());
    queue.push_back(0usize);

    while let Some(si) = queue.pop_front() {
        let state = states[si];
        let robots = occupied_nodes(state.occupied, n);
        // Adversary choice 1: the activated subset (non-empty).
        for subset in 1u32..(1 << robots.len()) {
            // For every activated robot, its decision and candidate targets.
            let mut move_options: Vec<Vec<Option<usize>>> = Vec::new();
            for (ri, &node) in robots.iter().enumerate() {
                if subset & (1 << ri) == 0 {
                    move_options.push(vec![None]);
                    continue;
                }
                let (va, vb) = views_at(state.occupied, n, node);
                let key = if va <= vb {
                    (va.clone(), vb.clone())
                } else {
                    (vb.clone(), va.clone())
                };
                let decision = protocol.decision_for(&key);
                let cw = (node + 1) % n;
                let ccw = (node + n - 1) % n;
                let targets: Vec<Option<usize>> = match decision {
                    LocalDecision::Idle => vec![None],
                    LocalDecision::TowardSmallerView => {
                        if va == vb {
                            // Adversary resolves the direction.
                            vec![Some(cw), Some(ccw)]
                        } else if va < vb {
                            vec![Some(cw)]
                        } else {
                            vec![Some(ccw)]
                        }
                    }
                    LocalDecision::TowardLargerView => {
                        if va == vb {
                            vec![Some(cw), Some(ccw)]
                        } else if va > vb {
                            vec![Some(cw)]
                        } else {
                            vec![Some(ccw)]
                        }
                    }
                };
                move_options.push(targets);
            }
            // Adversary choice 2: resolve every ambiguous direction.
            let mut assignments: Vec<Vec<Option<usize>>> = vec![Vec::new()];
            for opts in &move_options {
                let mut next_assignments = Vec::with_capacity(assignments.len() * opts.len());
                for partial in &assignments {
                    for &o in opts {
                        let mut extended = partial.clone();
                        extended.push(o);
                        next_assignments.push(extended);
                    }
                }
                assignments = next_assignments;
            }
            for assignment in assignments {
                let mut new_positions = Vec::with_capacity(robots.len());
                let mut traversed = 0u32;
                for (ri, &node) in robots.iter().enumerate() {
                    match assignment[ri] {
                        None => new_positions.push(node),
                        Some(target) => {
                            let e = if (node + 1) % n == target {
                                node
                            } else {
                                target
                            };
                            traversed |= 1 << e;
                            new_positions.push(target);
                        }
                    }
                }
                // Collision detection (exclusivity violation).
                let mut occupied_mask = 0u32;
                let mut collision = false;
                for &p in &new_positions {
                    if occupied_mask & (1 << p) != 0 {
                        collision = true;
                        break;
                    }
                    occupied_mask |= 1 << p;
                }
                if collision {
                    return GameOutcome::CollisionForced;
                }
                let clear = recontaminate(
                    occupied_mask,
                    state.clear | traversed | guarded_edges(occupied_mask, n),
                    n,
                );
                let next = State {
                    occupied: occupied_mask,
                    clear,
                };
                let all_robots_active = subset == (1 << robots.len()) - 1;
                let ni = *index.entry(next).or_insert_with(|| {
                    states.push(next);
                    edges.push(Vec::new());
                    queue.push_back(states.len() - 1);
                    states.len() - 1
                });
                edges[si].push((ni, all_robots_active));
            }
        }
    }

    // Fair-avoidance check: a cycle among non-fully-clear states containing at
    // least one all-robots round.  We look for a non-clear state s that can
    // reach itself through non-clear states using at least one full round.
    let non_clear: Vec<bool> = states.iter().map(|s| s.clear != full_clear).collect();
    // reach_full[s][t]: can we go from s to t through non-clear states, using
    // at least one full-activation edge?  Done with two BFS layers.
    let m = states.len();
    for s in 0..m {
        if !non_clear[s] {
            continue;
        }
        // First: nodes reachable from s through non-clear states, tracking
        // whether a full edge was used (small product construction).
        let mut visited = vec![[false; 2]; m];
        let mut q = VecDeque::new();
        visited[s][0] = true;
        q.push_back((s, 0usize));
        while let Some((u, used_full)) = q.pop_front() {
            for &(v, full) in &edges[u] {
                if !non_clear[v] {
                    continue;
                }
                let nf = usize::from(used_full == 1 || full);
                if !visited[v][nf] {
                    visited[v][nf] = true;
                    q.push_back((v, nf));
                }
            }
        }
        if visited[s][1] {
            return GameOutcome::FairAvoidanceForced;
        }
    }
    GameOutcome::NotDisproved
}

/// Plays one protocol from every initial configuration class; the protocol is
/// *defeated* if the adversary wins from each of them.
#[must_use]
pub fn protocol_defeated_everywhere(protocol: &ProtocolTable, n: usize, k: usize) -> bool {
    for config in enumerate_configurations(n, k) {
        let mask = config
            .occupied_nodes()
            .into_iter()
            .fold(0u32, |m, v| m | (1 << v));
        if play(protocol, n, mask) == GameOutcome::NotDisproved {
            return false;
        }
    }
    true
}

/// Exhaustively checks that **no** oblivious min-CORDA protocol perpetually
/// clears an `n`-node ring with `k` robots, from any initial configuration,
/// against a fair semi-synchronous adversary.
///
/// Returns `None` if the protocol space is larger than `protocol_cap` (the
/// search would be unreasonably large); otherwise returns the search summary.
#[must_use]
pub fn exhaustive_impossibility(
    n: usize,
    k: usize,
    protocol_cap: u64,
) -> Option<ImpossibilityResult> {
    assert!(n <= 16, "the game search uses 16-bit edge masks");
    let classes = view_classes(n, k);
    let total = protocol_count(&classes);
    if total > protocol_cap {
        return None;
    }
    let mut surviving = 0u64;
    for idx in 0..total {
        let protocol = decode_protocol(&classes, idx);
        if !protocol_defeated_everywhere(&protocol, n, k) {
            surviving += 1;
        }
    }
    Some(ImpossibilityResult {
        n,
        k,
        view_classes: classes.len(),
        protocols_checked: total,
        surviving_protocols: surviving,
    })
}

/// Book-keeping view of the decision table sizes, used by the experiment
/// binaries to report the search space before running it.
#[must_use]
pub fn search_space(n: usize, k: usize) -> (usize, u64) {
    let classes = view_classes(n, k);
    let count = protocol_count(&classes);
    (classes.len(), count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_classes_are_sorted_and_unique() {
        let classes = view_classes(6, 2);
        let mut sorted = classes.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(classes, sorted);
        // k = 2 on a 6-ring: distances 1, 2, 3 → three classes.
        assert_eq!(classes.len(), 3);
    }

    #[test]
    fn protocol_count_accounts_for_symmetric_classes() {
        // Distance 3 on a 6-ring is diametral: that class has two options.
        let classes = view_classes(6, 2);
        assert_eq!(protocol_count(&classes), 3 * 3 * 2);
    }

    #[test]
    fn recontamination_closure_on_masks() {
        // Robots at 0 and 4 on an 8-ring guard the cleared arc 0..4.
        let occupied = 0b0001_0001u32;
        let clear = 0b0000_1111u32;
        assert_eq!(recontaminate(occupied, clear, 8), clear);
        // Remove the guard at 4: everything is recontaminated.
        let occupied = 0b0000_0001u32;
        assert_eq!(recontaminate(occupied, clear, 8), 0);
    }

    #[test]
    fn single_robot_is_impossible() {
        let result = exhaustive_impossibility(5, 1, 10_000).expect("tiny search");
        assert!(result.impossibility_confirmed());
        assert!(result.protocols_checked >= 2);
    }

    #[test]
    fn two_robots_are_impossible_on_small_rings() {
        // Theorem 2, machine-checked for n = 4..7.
        for n in 4..=7usize {
            let result = exhaustive_impossibility(n, 2, 100_000).expect("search fits");
            assert!(
                result.impossibility_confirmed(),
                "n={n}: {} protocols survived",
                result.surviving_protocols
            );
        }
    }

    #[test]
    fn three_robots_mostly_fail_even_semi_synchronously() {
        // Theorem 3 needs the asynchronous adversary; the semi-synchronous
        // search already eliminates all but a handful of the candidate
        // protocols on a 5-ring (the survivors are the protocols the proof of
        // Theorem 3 defeats with pending moves).
        let result = exhaustive_impossibility(5, 3, 1_000_000).expect("search fits");
        assert!(result.protocols_checked > 20);
        assert!(
            result.surviving_protocols <= 4,
            "{} protocols survived the SSYNC adversary",
            result.surviving_protocols
        );
        assert!(result.surviving_protocols * 8 < result.protocols_checked);
    }

    #[test]
    fn search_space_reports_sizes() {
        let (classes, protocols) = search_space(7, 4);
        assert!(classes > 0);
        assert!(protocols > 0);
    }

    #[test]
    fn cap_is_respected() {
        assert!(exhaustive_impossibility(9, 4, 10).is_none());
    }
}

//! The exploration storage layer: where discovered states and edges live.
//!
//! The explorer's BFS (`crate::explore`) touches its stored states through
//! two narrow access patterns — *sequential windows* (the next `BATCH` node
//! ids to expand) and *point lookups* (the quotient-liveness pass realizing
//! a lasso from the root) — and appends edges it only reads back once, for
//! the SCC analysis.  `StateStore` and `EdgeStore` serve exactly those
//! patterns.
//! Each takes one budget, `Option<u64>`, which the explorer resolves once
//! from [`StoreKind`] and the memory budget:
//!
//! * `Some(budget)` ([`StoreKind::Spill`]): packed states are grouped into
//!   clusters of `CLUSTER` states, each cluster encoded as its first state's
//!   raw words plus sparse XOR deltas ([`PackedState::delta_from`]) for the
//!   rest, and **every sealed cluster is appended to a temp file
//!   immediately** — so the bytes written (`spilled_bytes`) are a
//!   deterministic function of the state sequence, independent of the
//!   budget.  The budget only governs the cache of encoded
//!   clusters kept resident for window reads; edges stream to a second file
//!   as fixed-size records (8 bytes, plus `⌈k/2⌉` where each edge also
//!   carries its quotient alignment) and are loaded back only if the
//!   liveness pass runs (after the visited map has been dropped).
//! * `None` ([`StoreKind::Mem`]): nothing ever seals or flushes — states
//!   stay in the open tail cluster, edges in the write buffer — so no file
//!   is ever created.
//!
//! Every spill file is created at its first write.  Every budget presents
//! **the same state sequence** — ids, bytes, windows — so every
//! [`crate::ExploreReport`] field and every counterexample is byte-identical
//! across budgets, which `tests/parallel_determinism.rs` pins.  I/O errors
//! on the spill files panic: the files are process-private temporaries, and
//! a checker that cannot read its own spill has no sound verdict to offer.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use rr_corda::PackedState;

/// Whether an exploration may spill to disk.  Both modes run the same
/// stores; the mode only decides whether they get a budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreKind {
    /// No budget (the default): nothing is ever written to disk, so memory
    /// bounds the search.
    #[default]
    Mem,
    /// Delta-compressed clusters spilled to disk, with a bounded resident
    /// cache; edges streamed to disk; visited memtables sealed to sorted
    /// runs past the budget.  Use with
    /// [`crate::ExploreOptions::with_mem_budget`].
    Spill,
}

impl std::fmt::Display for StoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StoreKind::Mem => "mem",
            StoreKind::Spill => "spill",
        })
    }
}

/// Storage statistics of one exploration.  Everything in the
/// [`crate::ExploreReport`] itself is independent of the storage mode (so
/// reports can be compared byte for byte across modes and budgets); what
/// the stores actually did — how many bytes they wrote to disk — surfaces
/// here, via [`crate::check_protocol_with_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// The storage mode that ran.
    pub store: StoreKind,
    /// Total bytes appended to the spill files (states + edges); `0` under
    /// [`StoreKind::Mem`].  Deterministic: a pure function of the explored graph,
    /// independent of the memory budget.
    pub spilled_bytes: u64,
    /// Bytes appended to the visited map's run file (sealed sorted runs plus
    /// compaction rewrites); `0` under [`StoreKind::Mem`].  Deterministic for
    /// a fixed (mode, budget) pair — sealing is driven by entry counts at
    /// the sweep's window boundaries — but, unlike
    /// [`spilled_bytes`](StoreStats::spilled_bytes), it *does* depend on the
    /// memory budget: a tighter budget seals smaller memtables more often
    /// and compacts more.
    pub visited_spilled_bytes: u64,
    /// Wall nanoseconds of the breadth-first sweep spent expanding nodes:
    /// stepping the engine, keying and probing each successor, packing and
    /// storing new states and emitting edges.  **Not deterministic** — a
    /// diagnostic for the E16 scaling records, excluded from every
    /// cross-run comparison.
    pub expand_nanos: u64,
    /// Wall nanoseconds of the sweep spent at window boundaries: loading
    /// each window's states from the store and sealing the visited map.
    /// Disjoint from [`expand_nanos`](StoreStats::expand_nanos); the two sum
    /// to the sweep's time.  **Not deterministic** — same status.
    pub merge_nanos: u64,
}

/// States per spill cluster: the first state is the cluster base (raw
/// words), the rest are sparse XOR deltas against it.
pub(crate) const CLUSTER: usize = 64;

static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// A process-private temp file that deletes itself on drop.  The file is
/// created by the first [`append`](SpillFile::append), so a spill file that
/// is never written never touches the disk.
pub(crate) struct SpillFile {
    tag: &'static str,
    /// The open file and its path, once the first append created them.
    file: Option<(File, PathBuf)>,
    written: u64,
}

impl SpillFile {
    pub(crate) fn new(tag: &'static str) -> Self {
        SpillFile {
            tag,
            file: None,
            written: 0,
        }
    }

    fn create(tag: &str) -> (File, PathBuf) {
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "rr-checker-{tag}-{}-{seq}.spill",
            std::process::id()
        ));
        let file = File::options()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("creating spill file {}: {e}", path.display()));
        (file, path)
    }

    /// Appends `bytes` at the end of the file; returns their offset.
    pub(crate) fn append(&mut self, bytes: &[u8]) -> u64 {
        let offset = self.written;
        let (file, path) = self.file.get_or_insert_with(|| Self::create(self.tag));
        file.seek(SeekFrom::Start(offset))
            .and_then(|_| file.write_all(bytes))
            .unwrap_or_else(|e| panic!("writing spill file {}: {e}", path.display()));
        self.written += bytes.len() as u64;
        offset
    }

    /// Total bytes ever appended.
    pub(crate) fn written(&self) -> u64 {
        self.written
    }

    /// Positional read through a shared reference: no seek and no cursor
    /// to move, so readers need not hold the file mutably.
    pub(crate) fn read_exact_at(&self, offset: u64, buf: &mut [u8]) {
        let Some((file, path)) = &self.file else {
            assert!(
                buf.is_empty(),
                "reading a spill file before its first write"
            );
            return;
        };
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            file.read_exact_at(buf, offset)
                .unwrap_or_else(|e| panic!("reading spill file {}: {e}", path.display()));
        }
        #[cfg(windows)]
        {
            use std::os::windows::fs::FileExt;
            let mut done = 0usize;
            while done < buf.len() {
                let n = file
                    .seek_read(&mut buf[done..], offset + done as u64)
                    .unwrap_or_else(|e| panic!("reading spill file {}: {e}", path.display()));
                assert!(n > 0, "truncated spill file {}", path.display());
                done += n;
            }
        }
    }

    pub(crate) fn read_at(&self, offset: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        self.read_exact_at(offset, &mut buf);
        buf
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        if let Some((_, path)) = &self.file {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Append-only storage of discovered states, addressed by node id in
/// discovery order.  The explorer reads states back in two patterns only:
/// contiguous [`window_into`](StateStore::window_into) copies in ascending
/// id order (the BFS, which keeps pushing while it walks a window), and
/// point [`get`](StateStore::get)s (the quotient-liveness lasso
/// realization) — both of ids already pushed.
///
/// States accumulate in an open tail of up to [`CLUSTER`] states.  Under a
/// budget a full tail is *sealed*: encoded (base + deltas), appended to the
/// spill file, and kept in the resident cache of encoded clusters.  The
/// cache is trimmed to the budget by evicting the highest-numbered clusters
/// first — the BFS consumes ids in ascending order, so high clusters are
/// the ones needed *furthest* in the future; once a window has moved past a
/// cluster it is dropped from the cache outright (later random access reads
/// the file).  Without a budget the tail never seals and holds every state.
pub(crate) struct StateStore {
    file: SpillFile,
    /// Resident-byte budget of the cluster cache; `None` never seals.
    budget: Option<u64>,
    payload: u64,
    /// Open tail cluster (ids `sealed * CLUSTER ..`).
    tail: Vec<PackedState>,
    /// Per sealed cluster: file offset and encoded byte length.
    spans: Vec<(u64, u32)>,
    /// Encoded sealed clusters still resident, by cluster index.
    cache: BTreeMap<usize, Vec<u8>>,
    cache_bytes: u64,
}

impl StateStore {
    pub(crate) fn new(budget: Option<u64>) -> Self {
        StateStore {
            file: SpillFile::new("states"),
            budget,
            payload: 0,
            tail: Vec::with_capacity(CLUSTER),
            spans: Vec::new(),
            cache: BTreeMap::new(),
            cache_bytes: 0,
        }
    }

    /// Encodes the tail as one cluster: base words raw, then length-prefixed
    /// deltas.
    fn encode_tail(&self) -> Vec<u8> {
        let base = &self.tail[0];
        let mut out = Vec::with_capacity(16 * self.tail.len());
        write_uleb(&mut out, base.words().len() as u64);
        for &word in base.words() {
            out.extend_from_slice(&word.to_le_bytes());
        }
        for state in &self.tail[1..] {
            let delta = state.delta_from(base);
            write_uleb(&mut out, delta.len() as u64);
            out.extend_from_slice(&delta);
        }
        out
    }

    /// Decodes the states at positions `range` of an encoded cluster of
    /// [`CLUSTER`] states, appending them to `out`.  The whole cluster is
    /// parsed, so trailing or missing bytes are caught on every read.
    fn decode_cluster_into(
        bytes: &[u8],
        range: std::ops::Range<usize>,
        out: &mut Vec<PackedState>,
    ) {
        let mut cursor = bytes;
        let base_len = read_uleb(&mut cursor) as usize;
        let mut words = Vec::with_capacity(base_len);
        for _ in 0..base_len {
            let (chunk, rest) = cursor.split_at(8);
            words.push(u64::from_le_bytes(chunk.try_into().expect("8-byte word")));
            cursor = rest;
        }
        let base = PackedState::from_raw_words(words);
        if range.contains(&0) {
            out.push(base.clone());
        }
        for i in 1..CLUSTER {
            let len = read_uleb(&mut cursor) as usize;
            let (delta, rest) = cursor.split_at(len);
            if range.contains(&i) {
                out.push(PackedState::apply_delta(&base, delta));
            }
            cursor = rest;
        }
        assert!(cursor.is_empty(), "trailing bytes in spilled cluster");
    }

    fn seal_tail(&mut self, budget: u64) {
        debug_assert_eq!(self.tail.len(), CLUSTER);
        let encoded = self.encode_tail();
        let offset = self.file.append(&encoded);
        let index = self.spans.len();
        self.spans.push((offset, encoded.len() as u32));
        self.cache_bytes += encoded.len() as u64;
        self.cache.insert(index, encoded);
        self.tail.clear();
        // Budget: evict the highest-numbered clusters (needed last).
        while self.cache_bytes > budget {
            let Some((_, bytes)) = self.cache.pop_last() else {
                break;
            };
            self.cache_bytes -= bytes.len() as u64;
        }
    }

    /// Decodes positions `range` of sealed cluster `index`, from the cache
    /// or from disk, appending the states to `out`.
    fn decode_sealed(
        &self,
        index: usize,
        range: std::ops::Range<usize>,
        out: &mut Vec<PackedState>,
    ) {
        if let Some(bytes) = self.cache.get(&index) {
            return Self::decode_cluster_into(bytes, range, out);
        }
        let (offset, len) = self.spans[index];
        Self::decode_cluster_into(&self.file.read_at(offset, len as usize), range, out);
    }

    /// Appends a state; its id is the previous [`len`](StateStore::len).
    pub(crate) fn push(&mut self, state: PackedState) {
        self.payload += 8 * state.words().len() as u64;
        self.tail.push(state);
        if let Some(budget) = self.budget {
            if self.tail.len() == CLUSTER {
                self.seal_tail(budget);
            }
        }
    }

    /// Number of stored states.
    pub(crate) fn len(&self) -> usize {
        self.spans.len() * CLUSTER + self.tail.len()
    }

    /// Total packed payload bytes (word count × 8) over all stored states —
    /// a budget-independent size measure.
    pub(crate) fn payload_bytes(&self) -> u64 {
        self.payload
    }

    /// Bytes appended to the spill file so far; `0` without a budget.
    pub(crate) fn spilled_bytes(&self) -> u64 {
        self.file.written()
    }

    /// The state with id `id`.
    pub(crate) fn get(&mut self, id: usize) -> PackedState {
        let tail_base = self.spans.len() * CLUSTER;
        if id >= tail_base {
            return self.tail[id - tail_base].clone();
        }
        let mut out = Vec::with_capacity(1);
        self.decode_sealed(id / CLUSTER, id % CLUSTER..id % CLUSTER + 1, &mut out);
        out.pop().expect("one decoded state")
    }

    /// Replaces `out` with the states `start..end`, in id order.  The
    /// window is a copy, so the caller may push states while it walks it.
    pub(crate) fn window_into(&mut self, start: usize, end: usize, out: &mut Vec<PackedState>) {
        let tail_base = self.spans.len() * CLUSTER;
        // The BFS has consumed everything below `start`: those clusters
        // cannot be windowed again, so stop caching them.
        while let Some(entry) = self.cache.first_entry() {
            if *entry.key() >= start / CLUSTER {
                break;
            }
            self.cache_bytes -= entry.remove().len() as u64;
        }
        out.clear();
        let mut id = start;
        while id < end.min(tail_base) {
            let index = id / CLUSTER;
            let hi = end.min((index + 1) * CLUSTER);
            self.decode_sealed(index, id % CLUSTER..hi - index * CLUSTER, out);
            id = hi;
        }
        if id < end {
            out.extend_from_slice(&self.tail[id - tail_base..end - tail_base]);
        }
    }
}

/// One edge of the explored graph, CSR-packed into 8 bytes: the target,
/// and the step code with the progress flag in bit 31 (step codes occupy
/// at most 30 bits: a 2-bit kind and a 28-bit payload).  The edge store's
/// record is these 8 bytes, little-endian with `to` in the low word,
/// followed in aligned stores by the edge's alignment word — see
/// [`EdgeStore::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Edge {
    pub(crate) to: u32,
    label: u32,
}

impl Edge {
    pub(crate) fn new(to: u32, code: u32, progress: bool) -> Self {
        assert!(code < 1 << 31, "step code overflows the edge record");
        Edge {
            to,
            label: code | u32::from(progress) << 31,
        }
    }

    pub(crate) fn code(&self) -> u32 {
        self.label & !(1 << 31)
    }

    pub(crate) fn progress(&self) -> bool {
        self.label >> 31 != 0
    }
}

/// Per-edge alignment words, each kept as its low `width` bytes: the packed
/// [`rr_core::relabel::RobotPerm`] image word of `k` robots (opaque here)
/// needs `⌈k/2⌉`.  Width 0 holds nothing (runs that record no alignment).
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Aligns {
    width: usize,
    bytes: Vec<u8>,
}

impl Aligns {
    /// The word of edge `i`.
    pub(crate) fn get(&self, i: usize) -> u64 {
        let mut word = [0u8; 8];
        word[..self.width].copy_from_slice(&self.bytes[i * self.width..(i + 1) * self.width]);
        u64::from_le_bytes(word)
    }

    /// Number of words held.
    pub(crate) fn len(&self) -> usize {
        self.bytes.len().checked_div(self.width).unwrap_or(0)
    }

    fn push(&mut self, word: u64) {
        debug_assert!(
            self.width == 8 || word >> (8 * self.width) == 0,
            "alignment word too wide"
        );
        self.bytes
            .extend_from_slice(&word.to_le_bytes()[..self.width]);
    }
}

/// Append-only edge storage: edges (and their alignment words) are
/// buffered in memory and, under a budget, encoded and flushed to a spill
/// file whenever [`EDGE_BUF`] accumulate (and at
/// [`finish`](EdgeStore::finish)); without one the buffers simply grow and
/// are handed back as they are.  Edges are written once during the BFS and
/// read back at most once, all together, for the liveness analysis — after
/// the caller has dropped its visited map, so the loaded buffers replace
/// rather than add to the peak footprint.
pub(crate) struct EdgeStore {
    file: SpillFile,
    /// Whether full buffers flush to the file (any budget: the edge stream
    /// has no resident cache to bound).
    spill: bool,
    /// Edges not yet flushed, and their alignment words.
    edges: Vec<Edge>,
    aligns: Aligns,
}

/// Records buffered per flush of a budgeted edge store.
const EDGE_BUF: usize = 1 << 13;

impl EdgeStore {
    /// An edge store under `budget` (`None` never spills) whose edges each
    /// carry an alignment word of `align_width` bytes (0: none).  A record
    /// is the 8-byte edge, little-endian with `to` in the low word,
    /// followed by the alignment word's low `align_width` bytes.
    pub(crate) fn new(budget: Option<u64>, align_width: usize) -> Self {
        assert!(align_width <= 8, "alignment words are u64");
        EdgeStore {
            file: SpillFile::new("edges"),
            spill: budget.is_some(),
            edges: Vec::new(),
            aligns: Aligns {
                width: align_width,
                bytes: Vec::new(),
            },
        }
    }

    fn record_bytes(&self) -> u64 {
        8 + self.aligns.width as u64
    }

    /// Appends an edge; `align` must be present exactly when the store
    /// carries alignment words.
    pub(crate) fn push(&mut self, edge: Edge, align: Option<u64>) {
        assert_eq!(align.is_some(), self.aligns.width > 0, "edge record layout");
        self.edges.push(edge);
        if let Some(align) = align {
            self.aligns.push(align);
        }
        if self.spill && self.edges.len() >= EDGE_BUF {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.edges.is_empty() {
            return;
        }
        let width = self.aligns.width;
        let mut bytes = Vec::with_capacity(self.edges.len() * self.record_bytes() as usize);
        for (i, edge) in self.edges.iter().enumerate() {
            let word = u64::from(edge.to) | u64::from(edge.label) << 32;
            bytes.extend_from_slice(&word.to_le_bytes());
            bytes.extend_from_slice(&self.aligns.bytes[i * width..(i + 1) * width]);
        }
        self.file.append(&bytes);
        self.edges.clear();
        self.aligns.bytes.clear();
    }

    /// Number of edges appended.
    pub(crate) fn len(&self) -> u64 {
        self.file.written() / self.record_bytes() + self.edges.len() as u64
    }

    /// Bytes bound for the spill file, buffered ones included (a check that
    /// never calls [`finish`](EdgeStore::finish) still reports them); `0`
    /// without a budget.
    pub(crate) fn spilled_bytes(&self) -> u64 {
        if self.spill {
            self.record_bytes() * self.len()
        } else {
            0
        }
    }

    /// Loads every edge back, in append order, with its alignment word,
    /// consuming the buffers.
    pub(crate) fn finish(&mut self) -> (Vec<Edge>, Aligns) {
        let width = self.aligns.width;
        if self.spill {
            self.flush();
            let bytes = self.file.read_at(0, self.file.written() as usize);
            for record in bytes.chunks_exact(self.record_bytes() as usize) {
                let (edge, align) = record.split_at(8);
                let word = u64::from_le_bytes(edge.try_into().expect("8-byte edge"));
                self.edges.push(Edge {
                    to: word as u32,
                    label: (word >> 32) as u32,
                });
                self.aligns.bytes.extend_from_slice(align);
            }
        }
        let aligns = Aligns {
            width,
            bytes: std::mem::take(&mut self.aligns.bytes),
        };
        (std::mem::take(&mut self.edges), aligns)
    }
}

/// LEB128 varint append (the cluster framing format).
fn write_uleb(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// LEB128 varint read; advances `bytes` past the varint.
fn read_uleb(bytes: &mut &[u8]) -> u64 {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = bytes.split_first().expect("truncated varint");
        *bytes = rest;
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return value;
        }
        shift += 7;
        assert!(shift < 64, "varint overflows u64");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(words: &[u64]) -> PackedState {
        PackedState::from_raw_words(words.to_vec())
    }

    /// A deterministic pseudo-random state sequence with BFS-like locality.
    fn sequence(count: usize) -> Vec<PackedState> {
        let mut seed = 0x1234_5678_9ABC_DEF0u64;
        let mut step = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        (0..count)
            .map(|i| {
                let len = 2 + i % 3;
                let words: Vec<u64> = (0..len).map(|_| step() & 0xFFFF).collect();
                state(&words)
            })
            .collect()
    }

    fn window(store: &mut StateStore, start: usize, end: usize) -> Vec<PackedState> {
        let mut out = vec![PackedState::from_raw_words(vec![7])];
        store.window_into(start, end, &mut out);
        out
    }

    fn check_backend(budget: Option<u64>, states: &[PackedState]) {
        let mut store = StateStore::new(budget);
        for s in states {
            store.push(s.clone());
        }
        assert_eq!(store.len(), states.len());
        let expected_payload: u64 = states.iter().map(|s| 8 * s.words().len() as u64).sum();
        assert_eq!(store.payload_bytes(), expected_payload);
        // Random access.
        for (i, s) in states.iter().enumerate() {
            assert_eq!(&store.get(i), s, "get({i})");
        }
        // Windows at awkward boundaries.
        let probes = [
            (0usize, states.len()),
            (0, 1),
            (states.len().saturating_sub(3), states.len()),
            (CLUSTER - 1, (CLUSTER + 1).min(states.len())),
        ];
        for (start, end) in probes {
            if start >= end {
                continue;
            }
            assert_eq!(
                window(&mut store, start, end),
                &states[start..end],
                "window {start}..{end}"
            );
        }
    }

    #[test]
    fn mem_and_spill_agree_on_the_same_sequence() {
        let states = sequence(3 * CLUSTER + 17);
        // No budget: nothing seals.
        check_backend(None, &states);
        // Generous budget: everything stays cached.
        check_backend(Some(1 << 20), &states);
        // Zero budget: every read decodes from disk.
        check_backend(Some(0), &states);
    }

    #[test]
    fn spilled_bytes_are_independent_of_the_budget() {
        let states = sequence(5 * CLUSTER);
        let mut roomy = StateStore::new(Some(1 << 30));
        let mut tight = StateStore::new(Some(0));
        for s in &states {
            roomy.push(s.clone());
            tight.push(s.clone());
        }
        assert!(roomy.spilled_bytes() > 0);
        assert_eq!(roomy.spilled_bytes(), tight.spilled_bytes());
        // Sequential-window consumption (the BFS pattern) sees identical
        // states under both budgets.
        for start in (0..states.len()).step_by(7) {
            let end = (start + 7).min(states.len());
            assert_eq!(
                window(&mut roomy, start, end),
                window(&mut tight, start, end)
            );
        }
    }

    #[test]
    fn spill_file_cleans_up_after_itself() {
        let path = {
            let mut store = StateStore::new(Some(0));
            // The file is created lazily: seal one cluster first.
            for s in sequence(CLUSTER) {
                store.push(s);
            }
            store
                .file
                .file
                .as_ref()
                .expect("one cluster sealed")
                .1
                .clone()
        };
        assert!(!path.exists(), "spill file must be deleted on drop");
    }

    /// Encoded byte size of one full cluster of `states[..CLUSTER]` — the
    /// boundary the re-read-pressure proptest perturbs by ±1.
    fn cluster_bytes_of(states: &[PackedState]) -> u64 {
        let mut probe = StateStore::new(Some(0));
        for s in &states[..CLUSTER] {
            probe.push(s.clone());
        }
        assert!(probe.spilled_bytes() > 0, "one cluster must have sealed");
        probe.spilled_bytes()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Spill clusters under re-read pressure: window loads interleaved
        /// with continued pushes (hence continued sealing and eviction), at
        /// cache budgets pinned to the encoded-cluster-size boundary ±1 byte
        /// — every loaded window must be byte-identical to the pushed states,
        /// whichever mix of cache hits, evictions and disk decodes served it.
        #[test]
        fn interleaved_windows_match_the_mem_oracle_at_boundary_budgets(
            // Interleaving script: each entry pushes 1..=24 states, then
            // windows a pseudo-random span of what has been pushed so far.
            script in proptest::collection::vec((1usize..=24, 0u64..u64::MAX), 4..24),
            // Budget at an encoded-cluster boundary: k clusters ± 1 byte.
            boundary in 0u64..4,
            delta in 0u64..3,
        ) {
            let states = sequence(8 * CLUSTER);
            let budget =
                (boundary * cluster_bytes_of(&states)).saturating_add_signed(delta as i64 - 1);
            let mut spill = StateStore::new(Some(budget));
            let mut len = 0usize;
            for (push, pick) in script {
                for s in &states[len..(len + push).min(states.len())] {
                    spill.push(s.clone());
                    len += 1;
                }
                // A window over the pushed prefix, biased toward recent ids
                // (the BFS pattern) but free to re-read sealed clusters.
                let start = (pick % len as u64) as usize;
                let end = (start + 1 + (pick >> 32) as usize % 96).min(len);
                let got = window(&mut spill, start, end);
                proptest::prop_assert_eq!(&states[start..end], &got[..], "window {}..{}", start, end);
            }
        }
    }

    #[test]
    fn edge_sinks_round_trip_and_agree() {
        let edges: Vec<Edge> = (0..10_000u32)
            .map(|i| {
                Edge::new(
                    i.wrapping_mul(2654435761),
                    (i * 7) & ((1 << 30) - 1),
                    i % 3 == 0,
                )
            })
            .collect();
        // Alignment words at the widths the checker uses (⌈k/2⌉ bytes for
        // k robots), up to the full word of 16 robots.
        for width in [0usize, 1, 3, 8] {
            let mask = if width == 8 {
                u64::MAX
            } else {
                (1u64 << (8 * width)) - 1
            };
            let words: Vec<u64> = (0..edges.len() as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask)
                .collect();
            let mut mem = EdgeStore::new(None, width);
            let mut spill = EdgeStore::new(Some(0), width);
            for (&e, &word) in edges.iter().zip(&words) {
                let align = (width > 0).then_some(word);
                mem.push(e, align);
                spill.push(e, align);
            }
            let record = 8 + width as u64;
            assert_eq!(mem.len(), edges.len() as u64);
            assert_eq!(spill.len(), edges.len() as u64);
            assert_eq!(mem.spilled_bytes(), 0);
            assert_eq!(spill.spilled_bytes(), record * edges.len() as u64);
            let (mem_edges, mem_aligns) = mem.finish();
            let (spill_edges, spill_aligns) = spill.finish();
            assert_eq!(spill.file.written(), record * edges.len() as u64);
            assert_eq!(mem_edges, edges, "width={width}");
            assert_eq!(spill_edges, edges, "width={width}");
            assert_eq!(mem_aligns, spill_aligns, "width={width}");
            if width == 0 {
                assert_eq!(mem_aligns.len(), 0);
            } else {
                assert_eq!(mem_aligns.len(), edges.len());
                for (i, &word) in words.iter().enumerate() {
                    assert_eq!(mem_aligns.get(i), word, "width={width} edge {i}");
                }
            }
        }
        let edge = Edge::new(7, (1 << 30) - 1, true);
        assert_eq!(
            (edge.to, edge.code(), edge.progress()),
            (7, (1 << 30) - 1, true)
        );
    }
}

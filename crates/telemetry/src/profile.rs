//! Always-on hierarchical profiler: aggregates span timings into
//! per-call-path nodes with **self time** (wall time minus time spent in
//! children), invocation counts, and min/max, cheap enough to leave
//! enabled in production.
//!
//! A call path is a `;`-separated chain of span names rooted at the
//! outermost span, e.g. `analog.dc.solve;stamp;device_eval`. Paths are
//! interned on first sight; afterwards [`Profiler::record_path`] looks the
//! path up by `&str` and updates fixed slots, so hot-path aggregation is
//! allocation-free after warmup. Three export shapes cover the tooling
//! that needs them:
//!
//! - [`Profiler::snapshot`] — a path→[`ProfileStats`] map that rides the
//!   `profile` section of schema-v2 [`Report`](crate::Report)s;
//! - [`Profiler::fold`] — collapsed/folded-stack text (`path self_µs`
//!   per line), directly renderable by `flamegraph.pl` /
//!   `inferno-flamegraph`;
//! - [`Profiler::top_self`] — the top-K paths by cumulative self time,
//!   exported as bounded-cardinality
//!   `ppuf_profile_self_seconds_total{path="..."}` Prometheus counters.
//!
//! Self time derives from the timing invariant nested RAII spans give by
//! construction: a parent's wall time contains the sum of its children's.
//! When clocks misbehave (a child measured longer than its parent), the
//! derived self time is clamped to zero and the event counted in
//! [`Profiler::skew_clamps`] rather than producing negative time.
//!
//! With the `profile-alloc` feature the crate additionally installs a
//! counting [`GlobalAlloc`](std::alloc::GlobalAlloc) wrapper around the
//! system allocator and [`Profiler::alloc_scope`] attributes allocations
//! made by the current thread to the innermost open scope, turning the
//! repo's allocation budgets into per-phase numbers. Without the feature
//! the same API compiles to nothing.
//!
//! ```
//! use ppuf_telemetry::profile::Profiler;
//! use std::time::Duration;
//!
//! let p = Profiler::new();
//! p.record_path("solve", Duration::from_millis(10), Duration::from_millis(2));
//! p.record_path("solve;factor", Duration::from_millis(8), Duration::from_millis(8));
//! let snap = p.snapshot();
//! assert_eq!(snap["solve"].count, 1);
//! assert!(p.fold().contains("solve;factor 8000"));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::trace::{FinishedSpan, SpanId, TraceNode};

/// Separator between call-path segments, chosen to match the folded-stack
/// format consumed by `flamegraph.pl`.
pub const PATH_SEPARATOR: char = ';';

/// Default number of paths exported to Prometheus by
/// [`Profiler::top_self`] callers — bounded so path cardinality cannot
/// blow up a scrape.
pub const DEFAULT_TOP_K: usize = 20;

/// Handle to an interned call path; obtained from [`Profiler::intern`]
/// and valid for the lifetime of that profiler.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathId(u32);

/// Aggregated statistics for one call path, as exported in report
/// `profile` sections.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProfileStats {
    /// Number of times the path was recorded.
    pub count: u64,
    /// Total wall time across invocations, seconds.
    pub wall_s: f64,
    /// Total self time (wall minus children) across invocations, seconds.
    pub self_s: f64,
    /// Shortest single invocation, seconds (0 when never recorded).
    pub min_s: f64,
    /// Longest single invocation, seconds.
    pub max_s: f64,
    /// Heap allocations attributed to this path (`profile-alloc` only;
    /// 0 otherwise).
    pub alloc_count: u64,
    /// Heap bytes requested by those allocations.
    pub alloc_bytes: u64,
}

#[derive(Clone, Copy, Debug)]
struct PathNode {
    count: u64,
    wall: Duration,
    self_time: Duration,
    min_wall: Duration,
    max_wall: Duration,
    alloc_count: u64,
    alloc_bytes: u64,
}

impl Default for PathNode {
    fn default() -> Self {
        PathNode {
            count: 0,
            wall: Duration::ZERO,
            self_time: Duration::ZERO,
            min_wall: Duration::MAX,
            max_wall: Duration::ZERO,
            alloc_count: 0,
            alloc_bytes: 0,
        }
    }
}

#[derive(Default)]
struct ProfilerState {
    /// Path → slot index. Keyed by owned strings but looked up by `&str`,
    /// so the steady-state record path never allocates.
    index: BTreeMap<String, u32>,
    /// Slot index → path, for snapshots.
    paths: Vec<String>,
    nodes: Vec<PathNode>,
}

/// Aggregates span timings into per-call-path self-time statistics.
///
/// Internally a mutex around an interning table plus fixed accumulator
/// slots; instrumented code records at *phase granularity* (once per
/// solve / per reactor sweep), so the lock never sits on an inner loop.
#[derive(Default)]
pub struct Profiler {
    state: Mutex<ProfilerState>,
    skew_clamps: AtomicU64,
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let paths = self.lock().paths.len();
        f.debug_struct("Profiler")
            .field("paths", &paths)
            .field("skew_clamps", &self.skew_clamps.load(Ordering::Relaxed))
            .finish()
    }
}

impl Profiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ProfilerState> {
        // same policy as MemoryRecorder: a panicking instrumented thread
        // must not take profiling down with it
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Interns `path`, returning a stable id for the allocation-free
    /// [`record`](Profiler::record) form.
    pub fn intern(&self, path: &str) -> PathId {
        let mut state = self.lock();
        if let Some(&id) = state.index.get(path) {
            return PathId(id);
        }
        let id = state.paths.len() as u32;
        state.index.insert(path.to_string(), id);
        state.paths.push(path.to_string());
        state.nodes.push(PathNode::default());
        PathId(id)
    }

    /// Records one invocation of an interned path. `self_time` greater
    /// than `wall` is clamped to `wall` and counted in
    /// [`skew_clamps`](Profiler::skew_clamps).
    pub fn record(&self, id: PathId, wall: Duration, self_time: Duration) {
        let self_time = if self_time > wall {
            self.skew_clamps.fetch_add(1, Ordering::Relaxed);
            wall
        } else {
            self_time
        };
        let mut state = self.lock();
        let Some(node) = state.nodes.get_mut(id.0 as usize) else { return };
        node.count += 1;
        node.wall += wall;
        node.self_time += self_time;
        node.min_wall = node.min_wall.min(wall);
        node.max_wall = node.max_wall.max(wall);
    }

    /// Records one invocation of `path`, interning it on first sight;
    /// allocation-free once the path is known.
    pub fn record_path(&self, path: &str, wall: Duration, self_time: Duration) {
        let self_time = if self_time > wall {
            self.skew_clamps.fetch_add(1, Ordering::Relaxed);
            wall
        } else {
            self_time
        };
        let mut state = self.lock();
        let slot = match state.index.get(path) {
            Some(&id) => id as usize,
            None => {
                let id = state.paths.len() as u32;
                state.index.insert(path.to_string(), id);
                state.paths.push(path.to_string());
                state.nodes.push(PathNode::default());
                id as usize
            }
        };
        let node = &mut state.nodes[slot];
        node.count += 1;
        node.wall += wall;
        node.self_time += self_time;
        node.min_wall = node.min_wall.min(wall);
        node.max_wall = node.max_wall.max(wall);
    }

    /// Records a leaf invocation (no children: self time equals wall).
    pub fn record_leaf(&self, path: &str, wall: Duration) {
        self.record_path(path, wall, wall);
    }

    /// Adds allocation counts to an interned path (fed by
    /// [`AllocScope`]'s drop; callable directly for externally-measured
    /// attribution).
    pub fn record_alloc(&self, id: PathId, allocs: u64, bytes: u64) {
        if allocs == 0 && bytes == 0 {
            return;
        }
        let mut state = self.lock();
        if let Some(node) = state.nodes.get_mut(id.0 as usize) {
            node.alloc_count = node.alloc_count.saturating_add(allocs);
            node.alloc_bytes = node.alloc_bytes.saturating_add(bytes);
        }
    }

    /// Opens an allocation-attribution scope for `path`: with the
    /// `profile-alloc` feature, every allocation the current thread makes
    /// until the guard drops is charged to the path; without it the guard
    /// is a no-op.
    pub fn alloc_scope<'a>(&'a self, path: &str) -> AllocScope<'a> {
        #[cfg(feature = "profile-alloc")]
        {
            let id = self.intern(path);
            let (allocs, bytes) = alloc::thread_totals();
            AllocScope { profiler: self, id, start_allocs: allocs, start_bytes: bytes }
        }
        #[cfg(not(feature = "profile-alloc"))]
        {
            let _ = path;
            AllocScope { _marker: std::marker::PhantomData }
        }
    }

    /// Walks an assembled trace tree, recording every node under its
    /// full root-to-node call path. Self time is the node's wall minus
    /// the sum of its children's wall, clamped at zero (clock skew is
    /// counted, never surfaced as negative time).
    pub fn observe_trace(&self, tree: &TraceNode) {
        let mut scratch = String::new();
        self.walk_tree(&mut scratch, tree);
    }

    fn walk_tree(&self, scratch: &mut String, node: &TraceNode) {
        let len = scratch.len();
        push_segment(scratch, &node.span.name);
        let children: Duration = node.children.iter().map(|c| c.span.duration).sum();
        let self_time = self.derive_self(node.span.duration, children);
        self.record_path(scratch, node.span.duration, self_time);
        for child in &node.children {
            self.walk_tree(scratch, child);
        }
        scratch.truncate(len);
    }

    /// Walks the subtree rooted at `root` inside a flat span list
    /// (children link to parents by id), recording each span under its
    /// call path. This is the incremental form [`MemoryRecorder`](crate::MemoryRecorder)
    /// uses when a root span finishes: spans
    /// always finish child-before-parent, so the moment a root arrives
    /// its whole subtree is already present.
    pub fn observe_root(&self, root: &FinishedSpan, spans: &[FinishedSpan]) {
        let mut scratch = String::new();
        self.walk_flat(&mut scratch, root, spans);
    }

    fn walk_flat(&self, scratch: &mut String, span: &FinishedSpan, spans: &[FinishedSpan]) {
        let len = scratch.len();
        push_segment(scratch, &span.name);
        let children: Duration = children_of(span.span, spans).map(|child| child.duration).sum();
        let self_time = self.derive_self(span.duration, children);
        self.record_path(scratch, span.duration, self_time);
        for child in children_of(span.span, spans) {
            self.walk_flat(scratch, child, spans);
        }
        scratch.truncate(len);
    }

    fn derive_self(&self, wall: Duration, children: Duration) -> Duration {
        match wall.checked_sub(children) {
            Some(self_time) => self_time,
            None => {
                self.skew_clamps.fetch_add(1, Ordering::Relaxed);
                Duration::ZERO
            }
        }
    }

    /// Times a child span's wall-time sum exceeded its parent's wall
    /// time (each such derivation clamps self time to zero instead of
    /// going negative).
    pub fn skew_clamps(&self) -> u64 {
        self.skew_clamps.load(Ordering::Relaxed)
    }

    /// Whether no path has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.lock().nodes.iter().all(|n| n.count == 0 && n.alloc_count == 0)
    }

    /// Current statistics for every recorded path, keyed by path.
    pub fn snapshot(&self) -> BTreeMap<String, ProfileStats> {
        let state = self.lock();
        state
            .index
            .iter()
            .filter_map(|(path, &id)| {
                let node = state.nodes.get(id as usize)?;
                // alloc-only paths (scope opened, never timed) still show
                if node.count == 0 && node.alloc_count == 0 {
                    return None;
                }
                let min = if node.count == 0 { Duration::ZERO } else { node.min_wall };
                Some((
                    path.clone(),
                    ProfileStats {
                        count: node.count,
                        wall_s: node.wall.as_secs_f64(),
                        self_s: node.self_time.as_secs_f64(),
                        min_s: min.as_secs_f64(),
                        max_s: node.max_wall.as_secs_f64(),
                        alloc_count: node.alloc_count,
                        alloc_bytes: node.alloc_bytes,
                    },
                ))
            })
            .collect()
    }

    /// Renders the profile as collapsed/folded stacks — one
    /// `path self_microseconds` line per path, the input format of
    /// `flamegraph.pl` and `inferno-flamegraph`.
    pub fn fold(&self) -> String {
        let state = self.lock();
        let mut out = String::new();
        for (path, &id) in &state.index {
            let Some(node) = state.nodes.get(id as usize) else { continue };
            if node.count == 0 {
                continue;
            }
            // whitespace would split the trailing count field, so map it
            // out of the way even for directly-recorded paths
            for c in path.chars() {
                out.push(if c.is_whitespace() { '_' } else { c });
            }
            let _ = writeln!(out, " {}", node.self_time.as_micros());
        }
        out
    }

    /// The `k` paths with the largest cumulative self time, descending —
    /// the bounded-cardinality set exported to Prometheus.
    pub fn top_self(&self, k: usize) -> Vec<(String, f64)> {
        let state = self.lock();
        let mut entries: Vec<(String, f64)> = state
            .index
            .iter()
            .filter_map(|(path, &id)| {
                let node = state.nodes.get(id as usize)?;
                (node.count > 0).then(|| (path.clone(), node.self_time.as_secs_f64()))
            })
            .collect();
        entries.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        entries.truncate(k);
        entries
    }
}

fn children_of(parent: SpanId, spans: &[FinishedSpan]) -> impl Iterator<Item = &FinishedSpan> {
    spans.iter().filter(move |s| s.parent == Some(parent))
}

/// Appends one path segment to `scratch`, separator included, with
/// characters that would corrupt the folded-stack format (`;` splits
/// frames, space splits the count) mapped to safe stand-ins.
fn push_segment(scratch: &mut String, name: &str) {
    if !scratch.is_empty() {
        scratch.push(PATH_SEPARATOR);
    }
    for c in name.chars() {
        scratch.push(match c {
            ';' => ':',
            ' ' | '\t' | '\n' | '\r' => '_',
            c => c,
        });
    }
}

/// RAII guard attributing the current thread's allocations to one path
/// (see [`Profiler::alloc_scope`]). Zero-cost without `profile-alloc`.
#[must_use = "an alloc scope attributes until it is dropped"]
pub struct AllocScope<'a> {
    #[cfg(feature = "profile-alloc")]
    profiler: &'a Profiler,
    #[cfg(feature = "profile-alloc")]
    id: PathId,
    #[cfg(feature = "profile-alloc")]
    start_allocs: u64,
    #[cfg(feature = "profile-alloc")]
    start_bytes: u64,
    #[cfg(not(feature = "profile-alloc"))]
    _marker: std::marker::PhantomData<&'a Profiler>,
}

impl Drop for AllocScope<'_> {
    fn drop(&mut self) {
        #[cfg(feature = "profile-alloc")]
        {
            let (allocs, bytes) = alloc::thread_totals();
            self.profiler.record_alloc(
                self.id,
                allocs.wrapping_sub(self.start_allocs),
                bytes.wrapping_sub(self.start_bytes),
            );
        }
    }
}

/// Counting wrapper around the system allocator, installed as the global
/// allocator when the `profile-alloc` feature is enabled. Every
/// allocation increments per-thread counters that [`AllocScope`] deltas
/// against, so allocation pressure can be attributed to the innermost
/// open profiling scope on each thread.
#[cfg(feature = "profile-alloc")]
pub mod alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        // const-initialized so reading them inside the allocator cannot
        // itself allocate
        static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
        static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
    }

    /// Per-thread totals since thread start: (allocations, bytes).
    pub fn thread_totals() -> (u64, u64) {
        let allocs = THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0);
        let bytes = THREAD_BYTES.try_with(Cell::get).unwrap_or(0);
        (allocs, bytes)
    }

    fn note(bytes: usize) {
        // try_with: TLS may be unavailable during thread teardown; those
        // allocations go unattributed rather than aborting
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get().wrapping_add(1)));
        let _ = THREAD_BYTES.try_with(|c| c.set(c.get().wrapping_add(bytes as u64)));
    }

    /// [`GlobalAlloc`] that counts allocation events and bytes per
    /// thread before delegating to [`System`]. Frees are deliberately
    /// not tracked: the profiler reports allocation *pressure*, not
    /// live-set size.
    pub struct CountingAllocator;

    // SAFETY: delegates every operation verbatim to `System`; the
    // counting side effect touches only thread-local counters.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static COUNTING_ALLOCATOR: CountingAllocator = CountingAllocator;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn span(id: u64, parent: Option<u64>, name: &str, micros: u64) -> FinishedSpan {
        FinishedSpan {
            trace: crate::TraceId::from_raw(1).unwrap(),
            span: SpanId::from_raw(id).unwrap(),
            parent: parent.and_then(SpanId::from_raw),
            name: name.to_string(),
            start: Instant::now(),
            duration: Duration::from_micros(micros),
            attrs: Vec::new(),
        }
    }

    #[test]
    fn record_aggregates_wall_self_count_min_max() {
        let p = Profiler::new();
        let id = p.intern("solve");
        p.record(id, Duration::from_millis(10), Duration::from_millis(4));
        p.record(id, Duration::from_millis(2), Duration::from_millis(1));
        let snap = p.snapshot();
        let s = &snap["solve"];
        assert_eq!(s.count, 2);
        assert!((s.wall_s - 0.012).abs() < 1e-12);
        assert!((s.self_s - 0.005).abs() < 1e-12);
        assert!((s.min_s - 0.002).abs() < 1e-12);
        assert!((s.max_s - 0.010).abs() < 1e-12);
        assert_eq!(p.skew_clamps(), 0);
        assert!(!p.is_empty());
    }

    #[test]
    fn interning_is_stable_and_empty_paths_are_omitted() {
        let p = Profiler::new();
        assert!(p.is_empty());
        let a = p.intern("a");
        let b = p.intern("b");
        assert_ne!(a, b);
        assert_eq!(p.intern("a"), a);
        // interned but never recorded → not in snapshot or fold
        assert!(p.snapshot().is_empty());
        assert!(p.fold().is_empty());
        p.record(a, Duration::from_micros(5), Duration::from_micros(5));
        assert_eq!(p.snapshot().len(), 1);
    }

    #[test]
    fn self_time_above_wall_clamps_and_counts() {
        let p = Profiler::new();
        p.record_path("x", Duration::from_millis(1), Duration::from_millis(5));
        assert_eq!(p.skew_clamps(), 1);
        let snap = p.snapshot();
        assert!((snap["x"].self_s - 0.001).abs() < 1e-12, "clamped to wall");
    }

    #[test]
    fn observe_root_derives_hierarchical_self_time() {
        let p = Profiler::new();
        // root (1000µs) -> a (600µs) -> a_leaf (100µs); root -> b (150µs)
        let spans = vec![
            span(4, Some(2), "a_leaf", 100),
            span(2, Some(1), "a", 600),
            span(3, Some(1), "b", 150),
            span(1, None, "request", 1000),
        ];
        p.observe_root(&spans[3], &spans);
        let snap = p.snapshot();
        assert_eq!(snap["request"].count, 1);
        assert!((snap["request"].self_s - 250e-6).abs() < 1e-9, "1000 - 600 - 150");
        assert!((snap["request;a"].self_s - 500e-6).abs() < 1e-9, "600 - 100");
        assert!((snap["request;a;a_leaf"].self_s - 100e-6).abs() < 1e-9);
        assert!((snap["request;b"].self_s - 150e-6).abs() < 1e-9);
        assert_eq!(p.skew_clamps(), 0);
    }

    #[test]
    fn observe_root_clamps_skewed_children_to_zero_self() {
        let p = Profiler::new();
        // child claims more time than its parent — bad clocks, not panic
        let spans = vec![span(2, Some(1), "child", 2000), span(1, None, "root", 1000)];
        p.observe_root(&spans[1], &spans);
        assert_eq!(p.skew_clamps(), 1);
        let snap = p.snapshot();
        assert_eq!(snap["root"].self_s, 0.0);
        assert!((snap["root;child"].self_s - 2000e-6).abs() < 1e-9);
    }

    #[test]
    fn fold_emits_flamegraph_compatible_lines() {
        let p = Profiler::new();
        p.record_path("root", Duration::from_micros(300), Duration::from_micros(100));
        p.record_path("root;phase one", Duration::from_micros(200), Duration::from_micros(200));
        let folded = p.fold();
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("stack<space>count");
            assert!(!stack.is_empty());
            count.parse::<u64>().expect("count is an integer");
        }
        // spaces inside a span name are mapped out of the way
        assert!(folded.contains("root;phase_one 200"), "{folded:?}");
        assert!(folded.contains("root 100"), "{folded:?}");
    }

    #[test]
    fn top_self_is_bounded_and_sorted() {
        let p = Profiler::new();
        for i in 0..10u64 {
            p.record_path(
                &format!("path{i}"),
                Duration::from_micros(100 * (i + 1)),
                Duration::from_micros(100 * (i + 1)),
            );
        }
        let top = p.top_self(3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].0, "path9");
        assert!(top[0].1 >= top[1].1 && top[1].1 >= top[2].1);
    }

    #[test]
    fn observe_trace_matches_observe_root() {
        let flat = vec![span(2, Some(1), "inner", 300), span(1, None, "outer", 900)];
        let tree = crate::trace::assemble(&flat).unwrap();
        let via_tree = Profiler::new();
        via_tree.observe_trace(&tree);
        let via_root = Profiler::new();
        via_root.observe_root(&flat[1], &flat);
        assert_eq!(via_tree.snapshot(), via_root.snapshot());
    }

    #[test]
    fn alloc_scope_is_callable_without_the_feature() {
        let p = Profiler::new();
        {
            let _scope = p.alloc_scope("solve");
            let _v: Vec<u8> = Vec::with_capacity(64);
        }
        // without profile-alloc the scope records nothing; with it the
        // path gains allocation counts (covered by tests/profile_alloc.rs)
        #[cfg(not(feature = "profile-alloc"))]
        assert!(p.snapshot().is_empty());
    }
}

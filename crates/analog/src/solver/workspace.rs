//! Reusable scratch state for repeated DC / transient solves.
//!
//! A [`DcWorkspace`] owns every buffer the Newton iteration needs — the
//! Jacobian, residual, step, pivot, and per-edge evaluation arrays — so
//! consecutive solves on same-shaped circuits allocate nothing. It also
//! caches a CSR incidence list of the circuit topology, which turns both
//! `O(n²)` stamping loops (element evaluation and row assembly) into
//! embarrassingly parallel passes whose results are bitwise independent of
//! the thread count: every matrix row and residual slot is written by
//! exactly one thread, accumulating its incident edges in a fixed order.

use std::time::{Duration, Instant};

use crate::block::TwoTerminal;
use crate::solver::dc::{Circuit, SolveError, G_MIN};
use crate::solver::linear::{lu_factor, lu_solve_factored, Matrix};
use crate::solver::sparse::{min_degree_order, CscMatrix, SparseLu};
use crate::units::{Amps, Celsius, Volts};

/// Below this many edges the per-thread hand-off costs more than the
/// evaluation itself; stamping runs on the calling thread.
const PAR_MIN_EDGES: usize = 4096;

/// Bracket width at which the cold start's level search stops (volts): a
/// crossbar's operating point spreads over several millivolts.
const LUMPED_TOLERANCE: f64 = 1e-3;

/// Which linear solver handles `J·Δ = −F` inside the Newton loops.
///
/// The crossbar Jacobian is a complete graph over the unknowns and is
/// numerically ~50% dense, so the blocked dense LU stays the right tool
/// there; grid and other locally-connected topologies have `O(k)`
/// nonzeros and want the sparse factorization with its symbolic
/// analysis amortized across Newton iterations and repeat solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinearBackend {
    /// Cache-blocked dense LU with partial pivoting (the original path).
    DenseBlocked,
    /// Fill-reducing sparse LU: symbolic analysis once per circuit
    /// binding, numeric refactorization per Newton iteration.
    Sparse,
    /// Decide per binding from the Jacobian's size and structural
    /// density (see `DcWorkspace::bind`); the default.
    #[default]
    Auto,
}

/// Auto picks sparse only at or above this many unknowns; below it the
/// dense LU is already a rounding error next to element evaluation.
const SPARSE_MIN_UNKNOWNS: usize = 64;

/// Snapshot of the sparse backend's work for one workspace, surfaced as
/// `analog.sparse.*` telemetry and the bench solver-shape record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseStats {
    /// Structural nonzeros in the assembled Jacobian.
    pub jacobian_nnz: usize,
    /// Nonzeros in the L + U factors (fill-in included).
    pub lu_nnz: usize,
    /// `lu_nnz / jacobian_nnz`.
    pub fill_ratio: f64,
    /// Numeric refactorizations that replayed the recorded symbolic
    /// pattern and pivot sequence (cumulative over the workspace).
    pub symbolic_reuse_hits: u64,
    /// Full factorizations with fresh pivoting (first factor of each
    /// binding plus any pivot-decay recoveries; cumulative).
    pub full_factorizations: u64,
}

/// Reusable buffers and cached topology for the nodal Newton solvers.
///
/// Create one with [`DcWorkspace::new`] and hand it to repeated solves
/// (directly or through [`DcEngine`](crate::solver::engine::DcEngine));
/// it rebinds itself to whatever circuit shape each solve presents and
/// only reallocates when the shape grows.
#[derive(Debug, Default)]
pub struct DcWorkspace {
    node_count: usize,
    edge_from: Vec<u32>,
    edge_to: Vec<u32>,
    /// CSR row starts into `incidence`, one slot per node plus the end.
    offsets: Vec<u32>,
    /// Per-node incident edges in global edge order: `(edge index,
    /// incoming)` where `incoming` means the node is the edge's head.
    incidence: Vec<(u32, bool)>,
    pub(crate) unknown_of: Vec<usize>,
    pub(crate) unknowns: Vec<usize>,
    pub(crate) jac: Matrix,
    pub(crate) residual: Vec<f64>,
    pub(crate) delta: Vec<f64>,
    pub(crate) base: Vec<Volts>,
    pub(crate) pivots: Vec<u32>,
    edge_i: Vec<f64>,
    edge_g: Vec<f64>,
    /// Terminal pair of the current binding, used to detect when the
    /// unknown numbering (and with it the sparse pattern) is stale.
    bound_terminals: (u32, u32),
    /// Whether the current binding resolved to the sparse backend.
    sparse_active: bool,
    /// Jacobian pattern + values in CSC form (sparse backend only).
    sp_mat: CscMatrix,
    /// Fill-reducing column order computed once per binding.
    sp_perm: Vec<u32>,
    /// Per-unknown slot of the diagonal entry in `sp_mat`.
    sp_diag_slots: Vec<u32>,
    /// Per-edge slots of the `(a,b)` / `(b,a)` off-diagonal entries, or
    /// `u32::MAX` when the edge touches a terminal or is a self-loop.
    sp_edge_slots: Vec<(u32, u32)>,
    /// Numeric factorization, kept across iterations and rebinds of the
    /// same shape so `refactor` can replay the symbolic pattern.
    sp_lu: Option<SparseLu>,
    /// Scratch for the permuted triangular solves.
    sp_scratch: Vec<f64>,
    /// Cumulative numeric refactorizations that reused the symbolic
    /// pattern (see [`SparseStats::symbolic_reuse_hits`]).
    pub(crate) sp_reuse_hits: u64,
    /// Cumulative full factorizations with fresh pivoting.
    pub(crate) sp_full_factors: u64,
    /// Per-iteration Newton residual norms for the current solve, filled
    /// only when [`DcOptions::trace_residuals`] is on and emitted as the
    /// `analog.dc.residual_trace` event.
    ///
    /// [`DcOptions::trace_residuals`]: crate::solver::dc::DcOptions::trace_residuals
    pub(crate) residual_trace: Vec<f64>,
    /// Cumulative wall time in element evaluation + matrix/residual
    /// assembly ("stamping").
    pub(crate) stamp_time: Duration,
    /// Cumulative wall time in LU factorization + triangular solves.
    pub(crate) lu_time: Duration,
    /// Portion of `stamp_time` spent in device evaluation proper (the
    /// `eval_edges` passes), excluding residual/Jacobian assembly.
    pub(crate) eval_time: Duration,
    /// Portion of `lu_time` spent factoring.
    pub(crate) factor_time: Duration,
    /// Portion of `lu_time` spent in the triangular back-substitutions.
    pub(crate) backsub_time: Duration,
}

impl DcWorkspace {
    /// Creates an empty workspace; the first solve sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds the workspace to a circuit and terminal pair: refreshes the
    /// unknown numbering and buffer sizes, rebuilding the cached incidence
    /// structure only when the topology actually changed.
    ///
    /// `backend` selects the linear solver. `Auto` resolves to sparse when
    /// the system has at least [`SPARSE_MIN_UNKNOWNS`] unknowns and the
    /// structural density `(k + 2·m_interior)/k²` is below 1/4 — grids
    /// qualify, the complete-graph crossbar does not. The sparse pattern,
    /// fill-reducing order, and any numeric factorization survive rebinds
    /// of the same circuit shape and terminal pair, so an engine's repeat
    /// solves keep replaying the one symbolic analysis.
    pub(crate) fn bind<E: TwoTerminal>(
        &mut self,
        circuit: &Circuit<E>,
        source: u32,
        sink: u32,
        backend: LinearBackend,
    ) {
        let n = circuit.node_count();
        let edges = circuit.edges();
        let m = edges.len();
        let same_topology = self.node_count == n
            && self.edge_from.len() == m
            && edges
                .iter()
                .enumerate()
                .all(|(idx, e)| self.edge_from[idx] == e.from && self.edge_to[idx] == e.to);
        if !same_topology {
            self.node_count = n;
            self.edge_from.clear();
            self.edge_to.clear();
            self.edge_from.extend(edges.iter().map(|e| e.from));
            self.edge_to.extend(edges.iter().map(|e| e.to));
            self.offsets.clear();
            self.offsets.resize(n + 1, 0);
            for e in edges {
                self.offsets[e.from as usize + 1] += 1;
                self.offsets[e.to as usize + 1] += 1;
            }
            for i in 0..n {
                self.offsets[i + 1] += self.offsets[i];
            }
            self.incidence.clear();
            self.incidence.resize(2 * m, (0, false));
            let mut cursor: Vec<u32> = self.offsets[..n].to_vec();
            for (idx, e) in edges.iter().enumerate() {
                self.incidence[cursor[e.from as usize] as usize] = (idx as u32, false);
                cursor[e.from as usize] += 1;
                self.incidence[cursor[e.to as usize] as usize] = (idx as u32, true);
                cursor[e.to as usize] += 1;
            }
        }
        self.unknown_of.clear();
        self.unknown_of.resize(n, usize::MAX);
        self.unknowns.clear();
        for v in 0..n {
            if v != source as usize && v != sink as usize {
                self.unknown_of[v] = self.unknowns.len();
                self.unknowns.push(v);
            }
        }
        let k = self.unknowns.len();
        self.residual.clear();
        self.residual.resize(k, 0.0);
        self.delta.clear();
        self.delta.resize(k, 0.0);
        self.edge_i.clear();
        self.edge_i.resize(m, 0.0);
        self.edge_g.clear();
        self.edge_g.resize(m, 0.0);
        // edges interior to the unknown set (both endpoints unknown,
        // not a self-loop): they carry the off-diagonal structure
        let interior = edges
            .iter()
            .filter(|e| {
                e.from != e.to
                    && self.unknown_of[e.from as usize] != usize::MAX
                    && self.unknown_of[e.to as usize] != usize::MAX
            })
            .count();
        let sparse = match backend {
            LinearBackend::DenseBlocked => false,
            LinearBackend::Sparse => k > 0,
            LinearBackend::Auto => k >= SPARSE_MIN_UNKNOWNS && (k + 2 * interior) * 4 < k * k,
        };
        let same_binding =
            same_topology && self.bound_terminals == (source, sink) && self.sparse_active == sparse;
        self.bound_terminals = (source, sink);
        self.sparse_active = sparse;
        if sparse {
            // the dense Jacobian is never touched on this path; shrinking
            // it keeps large grids from paying O(k²) memory for nothing
            self.jac.resize(0, 0);
            if !same_binding {
                self.build_sparse_pattern(k);
            }
        } else {
            self.jac.resize(k, k);
            self.sp_lu = None;
        }
    }

    /// Builds the CSC Jacobian pattern for the current binding, the slot
    /// maps used by assembly, and the fill-reducing order; invalidates any
    /// stale numeric factorization.
    fn build_sparse_pattern(&mut self, k: usize) {
        let mut triplets: Vec<(u32, u32, f64)> = Vec::with_capacity(k + 2 * self.edge_from.len());
        for r in 0..k {
            triplets.push((r as u32, r as u32, 0.0));
        }
        for (&f, &t) in self.edge_from.iter().zip(&self.edge_to) {
            let a = self.unknown_of[f as usize];
            let b = self.unknown_of[t as usize];
            if a != usize::MAX && b != usize::MAX && a != b {
                triplets.push((a as u32, b as u32, 0.0));
                triplets.push((b as u32, a as u32, 0.0));
            }
        }
        self.sp_mat = CscMatrix::from_triplets(k, &triplets);
        self.sp_diag_slots.clear();
        self.sp_diag_slots.extend((0..k as u32).map(|r| {
            self.sp_mat.slot_of(r, r).expect("diagonal entry was stamped into the pattern") as u32
        }));
        self.sp_edge_slots.clear();
        for (&f, &t) in self.edge_from.iter().zip(&self.edge_to) {
            let a = self.unknown_of[f as usize];
            let b = self.unknown_of[t as usize];
            let slots = if a != usize::MAX && b != usize::MAX && a != b {
                let ab = self.sp_mat.slot_of(a as u32, b as u32).unwrap() as u32;
                let ba = self.sp_mat.slot_of(b as u32, a as u32).unwrap() as u32;
                (ab, ba)
            } else {
                (u32::MAX, u32::MAX)
            };
            self.sp_edge_slots.push(slots);
        }
        self.sp_perm = min_degree_order(&self.sp_mat);
        self.sp_scratch.clear();
        self.sp_scratch.resize(k, 0.0);
        self.sp_lu = None;
    }

    /// Scatters the evaluated edge conductances into the CSC Jacobian.
    /// Each slot accumulates its incident edges in global edge order —
    /// the same per-entry summation order as the dense row assembly, so
    /// the sparse matrix entries are bitwise identical to the dense ones.
    fn assemble_sparse_jacobian(&mut self, extra_diag: Option<&[f64]>) {
        let diag_slots = &self.sp_diag_slots;
        let edge_slots = &self.sp_edge_slots;
        let edge_g = &self.edge_g;
        let edge_from = &self.edge_from;
        let edge_to = &self.edge_to;
        let unknown_of = &self.unknown_of;
        let vals = self.sp_mat.values_mut();
        vals.fill(0.0);
        for (r, &slot) in diag_slots.iter().enumerate() {
            vals[slot as usize] = -G_MIN - extra_diag.map_or(0.0, |x| x[r]);
        }
        for (e, &(sab, sba)) in edge_slots.iter().enumerate() {
            let g = edge_g[e];
            if g == 0.0 {
                continue;
            }
            let a = unknown_of[edge_from[e] as usize];
            let b = unknown_of[edge_to[e] as usize];
            if a == b {
                // terminal-terminal edges and self-loops contribute
                // nothing to the reduced system
                continue;
            }
            if a != usize::MAX {
                vals[diag_slots[a] as usize] -= g;
            }
            if b != usize::MAX {
                vals[diag_slots[b] as usize] -= g;
            }
            if sab != u32::MAX {
                vals[sab as usize] += g;
                vals[sba as usize] += g;
            }
        }
    }

    /// Factors the Jacobian assembled by the most recent
    /// [`compute_jacobian`](Self::compute_jacobian) pass, dispatching on
    /// the backend the binding resolved. The sparse path replays the
    /// recorded symbolic pattern when a factorization exists (a numeric
    /// `refactor`), falling back to a full factorization with fresh
    /// pivoting if pivot decay says the recorded sequence went stale.
    /// Wall time is charged to `lu_time`.
    pub(crate) fn factor_jacobian(&mut self, threads: usize) -> Result<(), SolveError> {
        let t0 = Instant::now();
        let result = if self.sparse_active {
            let mut refreshed = false;
            if let Some(lu) = self.sp_lu.as_mut() {
                if lu.refactor(&self.sp_mat).is_ok() {
                    self.sp_reuse_hits += 1;
                    refreshed = true;
                }
            }
            if refreshed {
                Ok(())
            } else {
                match SparseLu::factor(&self.sp_mat, &self.sp_perm) {
                    Ok(lu) => {
                        self.sp_lu = Some(lu);
                        self.sp_full_factors += 1;
                        Ok(())
                    }
                    Err(_) => {
                        self.sp_lu = None;
                        Err(SolveError::SingularJacobian)
                    }
                }
            }
        } else {
            lu_factor(&mut self.jac, &mut self.pivots, threads)
                .map(|_| ())
                .map_err(|_| SolveError::SingularJacobian)
        };
        let dt = t0.elapsed();
        self.lu_time += dt;
        self.factor_time += dt;
        result
    }

    /// Solves `J·x = delta` in place against the factors from
    /// [`factor_jacobian`](Self::factor_jacobian); allocation-free on
    /// both backends.
    pub(crate) fn solve_linear(&mut self) {
        let t0 = Instant::now();
        if self.sparse_active {
            let lu = self.sp_lu.as_ref().expect("factor_jacobian must succeed before solve_linear");
            lu.solve_with(&mut self.delta, &mut self.sp_scratch);
        } else {
            lu_solve_factored(&self.jac, &self.pivots, &mut self.delta);
        }
        let dt = t0.elapsed();
        self.lu_time += dt;
        self.backsub_time += dt;
    }

    /// Whether the current binding resolved to the sparse backend.
    pub fn sparse_resolved(&self) -> bool {
        self.sparse_active
    }

    /// Sparse-backend work snapshot, or `None` when the binding resolved
    /// dense or nothing has been factored yet.
    pub fn sparse_stats(&self) -> Option<SparseStats> {
        if !self.sparse_active {
            return None;
        }
        let lu = self.sp_lu.as_ref()?;
        Some(SparseStats {
            jacobian_nnz: self.sp_mat.nnz(),
            lu_nnz: lu.factor_nnz(),
            fill_ratio: lu.fill_ratio(self.sp_mat.nnz()),
            symbolic_reuse_hits: self.sp_reuse_hits,
            full_factorizations: self.sp_full_factors,
        })
    }

    /// Evaluates every edge element at `voltages` into the `edge_i` (and,
    /// when `want_g`, `edge_g`) arrays. Each edge's slot is written by one
    /// thread, so the pass is deterministic for any `threads`.
    ///
    /// Each residual pass seeds its root-finds with the edge's current
    /// from the previous pass ([`TwoTerminal::current_seeded`]); the seeds
    /// evolve deterministically, so the pass stays bitwise thread-count
    /// independent. A Jacobian pass with `reuse_i` trusts `edge_i` to
    /// already hold the currents at `voltages` (the Newton loop always
    /// computes the residual there first) and evaluates only the
    /// conductances, via [`TwoTerminal::conductance_with_current`].
    fn eval_edges<E: TwoTerminal + Sync>(
        &mut self,
        circuit: &Circuit<E>,
        voltages: &[Volts],
        temp: Celsius,
        threads: usize,
        want_g: bool,
        reuse_i: bool,
    ) {
        let edges = circuit.edges();
        let m = edges.len();
        let eval = |edge_chunk: &[crate::solver::dc::CircuitEdge<E>],
                    i_out: &mut [f64],
                    g_out: &mut [f64]| {
            for (idx, e) in edge_chunk.iter().enumerate() {
                let dv = voltages[e.from as usize] - voltages[e.to as usize];
                if want_g {
                    if reuse_i {
                        g_out[idx] =
                            e.element.conductance_with_current(dv, Amps(i_out[idx]), temp).max(0.0);
                    } else {
                        let (i, g) = e.element.current_and_conductance(dv, temp);
                        i_out[idx] = i.value();
                        g_out[idx] = g.max(0.0);
                    }
                } else {
                    i_out[idx] = e.element.current_seeded(dv, Amps(i_out[idx]), temp).value();
                }
            }
        };
        if threads <= 1 || m < PAR_MIN_EDGES {
            eval(edges, &mut self.edge_i, &mut self.edge_g);
            return;
        }
        let chunk = m.div_ceil(threads);
        let eval = &eval;
        crossbeam::scope(|s| {
            for ((edge_chunk, i_chunk), g_chunk) in edges
                .chunks(chunk)
                .zip(self.edge_i.chunks_mut(chunk))
                .zip(self.edge_g.chunks_mut(chunk))
            {
                s.spawn(move |_| eval(edge_chunk, i_chunk, g_chunk));
            }
        })
        .expect("edge evaluation worker panicked");
    }

    /// Assembles the KCL residual (net current *into* each unknown node)
    /// from the last `eval_edges` pass. Matches the summation order of the
    /// serial edge loop exactly: each node accumulates its incident edges
    /// in global edge order.
    fn assemble_residual(&mut self) {
        for (r, &node) in self.unknowns.iter().enumerate() {
            let lo = self.offsets[node] as usize;
            let hi = self.offsets[node + 1] as usize;
            let mut sum = 0.0;
            for &(e, incoming) in &self.incidence[lo..hi] {
                let i = self.edge_i[e as usize];
                if incoming {
                    sum += i;
                } else {
                    sum -= i;
                }
            }
            self.residual[r] = sum;
        }
    }

    /// Evaluates edges and refreshes the residual; cumulative wall time is
    /// charged to `stamp_time`.
    pub(crate) fn compute_residual<E: TwoTerminal + Sync>(
        &mut self,
        circuit: &Circuit<E>,
        voltages: &[Volts],
        temp: Celsius,
        threads: usize,
    ) {
        let t0 = std::time::Instant::now();
        self.eval_edges(circuit, voltages, temp, threads, false, false);
        self.eval_time += t0.elapsed();
        self.assemble_residual();
        self.stamp_time += t0.elapsed();
    }

    /// Evaluates edges (currents and conductances) and assembles the full
    /// Jacobian of the KCL residuals, with an optional extra term
    /// subtracted from each diagonal (the transient integrator's `C/h`).
    /// Rows fan out over `threads` scoped threads; each row is written by
    /// one thread in a fixed edge order, so the matrix is bitwise
    /// identical for any thread count.
    ///
    /// With `reuse_currents` the edge currents from the most recent
    /// [`compute_residual`](Self::compute_residual) are trusted to belong
    /// to these same `voltages`, skipping every forward root-find in the
    /// pass; callers that haven't just computed the residual there must
    /// pass `false`.
    pub(crate) fn compute_jacobian<E: TwoTerminal + Sync>(
        &mut self,
        circuit: &Circuit<E>,
        voltages: &[Volts],
        temp: Celsius,
        threads: usize,
        extra_diag: Option<&[f64]>,
        reuse_currents: bool,
    ) {
        let t0 = std::time::Instant::now();
        self.eval_edges(circuit, voltages, temp, threads, true, reuse_currents);
        self.eval_time += t0.elapsed();
        if self.sparse_active {
            self.assemble_sparse_jacobian(extra_diag);
            self.stamp_time += t0.elapsed();
            return;
        }
        let k = self.unknowns.len();
        let unknowns = &self.unknowns;
        let unknown_of = &self.unknown_of;
        let offsets = &self.offsets;
        let incidence = &self.incidence;
        let edge_from = &self.edge_from;
        let edge_to = &self.edge_to;
        let edge_g = &self.edge_g;
        let fill_row = |r: usize, row: &mut [f64]| {
            row.fill(0.0);
            row[r] = -G_MIN - extra_diag.map_or(0.0, |x| x[r]);
            let node = unknowns[r];
            let lo = offsets[node] as usize;
            let hi = offsets[node + 1] as usize;
            for &(e, _) in &incidence[lo..hi] {
                let g = edge_g[e as usize];
                if g == 0.0 {
                    continue;
                }
                row[r] -= g;
                let u = edge_from[e as usize] as usize;
                let other = if u == node { edge_to[e as usize] as usize } else { u };
                let oc = unknown_of[other];
                if oc != usize::MAX {
                    row[oc] += g;
                }
            }
        };
        let data = self.jac.as_mut_slice();
        if threads <= 1 || k * k < PAR_MIN_EDGES {
            for (r, row) in data.chunks_mut(k.max(1)).enumerate() {
                fill_row(r, row);
            }
        } else {
            let rows_per_thread = k.div_ceil(threads);
            let fill_row = &fill_row;
            crossbeam::scope(|s| {
                for (chunk_idx, chunk) in data.chunks_mut(rows_per_thread * k).enumerate() {
                    let r0 = chunk_idx * rows_per_thread;
                    s.spawn(move |_| {
                        for (i, row) in chunk.chunks_mut(k).enumerate() {
                            fill_row(r0 + i, row);
                        }
                    });
                }
            })
            .expect("jacobian assembly worker panicked");
        }
        self.stamp_time += t0.elapsed();
    }

    /// The cold start's level: the voltage in `[0, vs]` at which KCL
    /// summed over all internal nodes balances with every one of them held
    /// there. At a uniform level no edge between internal nodes carries
    /// current, so the sum reads only the edges that touch a terminal
    /// (`O(n)` of a crossbar's `O(n²)`), and it falls monotonically as the
    /// level rises, every element being incrementally passive. A bracketed
    /// Illinois search pins the balance to [`LUMPED_TOLERANCE`] and returns
    /// the level evaluated with the smallest imbalance. With no sign change
    /// on `[0, vs]` the level is the end the bracket reaches (the bottom
    /// when there is no internal node, as the sum is then 0); a sum that
    /// reads NaN counts as one taken too high.
    ///
    /// Each pass seeds its root-finds with the previous pass's currents,
    /// like [`compute_residual`](Self::compute_residual), and the search's
    /// wall time is charged to `eval_time` and `stamp_time`.
    pub(crate) fn lumped_level<E: TwoTerminal>(
        &mut self,
        circuit: &Circuit<E>,
        vs: Volts,
        temp: Celsius,
    ) -> Volts {
        let t0 = Instant::now();
        let vs = vs.value();
        let (mut lo, mut hi) = (vs.min(0.0), vs.max(0.0));
        let mut f_lo = self.lumped_inflow(circuit, lo, vs, temp);
        let mut f_hi = self.lumped_inflow(circuit, hi, vs, temp);
        let level = if f_lo <= 0.0 || f_lo.is_nan() {
            lo
        } else if f_hi > 0.0 {
            hi
        } else {
            let (mut best, mut best_f) = if f_hi.abs() < f_lo { (hi, f_hi) } else { (lo, f_lo) };
            // which end the last step replaced: replacing the same end
            // twice halves the other end's value (the Illinois rule)
            let mut side = 0i8;
            while hi - lo > LUMPED_TOLERANCE {
                let secant = (lo * f_hi - hi * f_lo) / (f_hi - f_lo);
                let mid = if secant > lo && secant < hi { secant } else { 0.5 * (lo + hi) };
                let f = self.lumped_inflow(circuit, mid, vs, temp);
                if f.abs() < best_f.abs() {
                    (best, best_f) = (mid, f);
                }
                if f == 0.0 {
                    break;
                }
                if f > 0.0 {
                    (lo, f_lo) = (mid, f);
                    if side < 0 {
                        f_hi *= 0.5;
                    }
                    side = -1;
                } else {
                    (hi, f_hi) = (mid, f);
                    if side > 0 {
                        f_lo *= 0.5;
                    }
                    side = 1;
                }
            }
            best
        };
        let dt = t0.elapsed();
        self.eval_time += dt;
        self.stamp_time += dt;
        Volts(level)
    }

    /// Net current into the internal nodes, all held at `level`, through
    /// the edges that join them to the bound source (at `vs`) or sink (at
    /// 0 V); refreshes those edges' `edge_i`.
    fn lumped_inflow<E: TwoTerminal>(
        &mut self,
        circuit: &Circuit<E>,
        level: f64,
        vs: f64,
        temp: Celsius,
    ) -> f64 {
        let edges = circuit.edges();
        let (source, sink) = self.bound_terminals;
        let mut inflow = 0.0;
        for (terminal, v) in [(source as usize, vs), (sink as usize, 0.0)] {
            let lo = self.offsets[terminal] as usize;
            let hi = self.offsets[terminal + 1] as usize;
            for &(e, incoming) in &self.incidence[lo..hi] {
                let edge = &edges[e as usize];
                let other = if incoming { edge.from } else { edge.to };
                if self.unknown_of[other as usize] == usize::MAX {
                    continue; // terminal to terminal
                }
                let dv = if incoming { level - v } else { v - level };
                let seed = Amps(self.edge_i[e as usize]);
                let i = edge.element.current_seeded(Volts(dv), seed, temp).value();
                self.edge_i[e as usize] = i;
                if incoming {
                    inflow -= i;
                } else {
                    inflow += i;
                }
            }
        }
        inflow
    }

    /// Net current out of `terminal` using the edge currents from the most
    /// recent evaluation pass.
    pub(crate) fn terminal_current(&self, terminal: u32) -> f64 {
        let lo = self.offsets[terminal as usize] as usize;
        let hi = self.offsets[terminal as usize + 1] as usize;
        let mut total = 0.0;
        for &(e, incoming) in &self.incidence[lo..hi] {
            let i = self.edge_i[e as usize];
            if incoming {
                total -= i;
            } else {
                total += i;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::sparse::SparseError;
    use crate::solver::test_circuits::DirectedResistor;

    fn diamond() -> Circuit<DirectedResistor> {
        let mut c = Circuit::new(4);
        for (u, v) in [(0u32, 1u32), (0, 2), (1, 2), (1, 3), (2, 3)] {
            c.add_element(u, v, DirectedResistor::new(1e6)).unwrap();
        }
        c
    }

    #[test]
    fn workspace_residual_matches_direct_kcl() {
        let c = diamond();
        let mut ws = DcWorkspace::new();
        ws.bind(&c, 0, 3, LinearBackend::Auto);
        let voltages = vec![Volts(2.0), Volts(1.3), Volts(0.9), Volts(0.0)];
        ws.compute_residual(&c, &voltages, Celsius::NOMINAL, 1);
        let mut direct = vec![0.0; ws.unknowns.len()];
        c.kcl_residuals(&voltages, &ws.unknown_of, &mut direct, Celsius::NOMINAL);
        assert_eq!(ws.residual, direct, "incidence assembly must match the edge loop bitwise");
    }

    #[test]
    fn workspace_jacobian_matches_across_thread_counts() {
        let c = diamond();
        let voltages = vec![Volts(2.0), Volts(1.3), Volts(0.9), Volts(0.0)];
        let mut reference = DcWorkspace::new();
        reference.bind(&c, 0, 3, LinearBackend::Auto);
        reference.compute_jacobian(&c, &voltages, Celsius::NOMINAL, 1, None, false);
        for threads in [2, 4] {
            let mut ws = DcWorkspace::new();
            ws.bind(&c, 0, 3, LinearBackend::Auto);
            ws.compute_jacobian(&c, &voltages, Celsius::NOMINAL, threads, None, false);
            assert_eq!(ws.jac, reference.jac, "threads = {threads}");
        }
    }

    #[test]
    fn rebind_reuses_topology_and_tracks_terminals() {
        let c = diamond();
        let mut ws = DcWorkspace::new();
        ws.bind(&c, 0, 3, LinearBackend::Auto);
        assert_eq!(ws.unknowns, vec![1, 2]);
        // same circuit, different terminals: unknown set must refresh
        ws.bind(&c, 1, 2, LinearBackend::Auto);
        assert_eq!(ws.unknowns, vec![0, 3]);
        assert_eq!(ws.unknown_of[1], usize::MAX);
    }

    #[test]
    fn forced_sparse_jacobian_matches_dense_bitwise() {
        let c = diamond();
        let voltages = vec![Volts(2.0), Volts(1.3), Volts(0.9), Volts(0.0)];
        let mut dense = DcWorkspace::new();
        dense.bind(&c, 0, 3, LinearBackend::DenseBlocked);
        dense.compute_jacobian(&c, &voltages, Celsius::NOMINAL, 1, None, false);
        let mut sparse = DcWorkspace::new();
        sparse.bind(&c, 0, 3, LinearBackend::Sparse);
        assert!(sparse.sparse_resolved());
        sparse.compute_jacobian(&c, &voltages, Celsius::NOMINAL, 1, None, false);
        let k = dense.unknowns.len();
        for r in 0..k {
            for col in 0..k {
                let got = sparse
                    .sp_mat
                    .slot_of(r as u32, col as u32)
                    .map_or(0.0, |s| sparse.sp_mat.values()[s]);
                assert_eq!(got, dense.jac[(r, col)], "entry ({r},{col})");
            }
        }
    }

    #[test]
    fn forced_sparse_newton_step_matches_dense() {
        let c = diamond();
        let voltages = vec![Volts(2.0), Volts(1.3), Volts(0.9), Volts(0.0)];
        let solve = |backend: LinearBackend| {
            let mut ws = DcWorkspace::new();
            ws.bind(&c, 0, 3, backend);
            ws.compute_residual(&c, &voltages, Celsius::NOMINAL, 1);
            ws.compute_jacobian(&c, &voltages, Celsius::NOMINAL, 1, None, true);
            for idx in 0..ws.unknowns.len() {
                ws.delta[idx] = -ws.residual[idx];
            }
            ws.factor_jacobian(1).unwrap();
            ws.solve_linear();
            ws.delta
        };
        let dense = solve(LinearBackend::DenseBlocked);
        let sparse = solve(LinearBackend::Sparse);
        for (a, b) in dense.iter().zip(&sparse) {
            assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0), "dense {a} vs sparse {b}");
        }
    }

    #[test]
    fn sparse_symbolic_survives_rebind_of_same_shape() {
        let c = diamond();
        let voltages = vec![Volts(2.0), Volts(1.3), Volts(0.9), Volts(0.0)];
        let mut ws = DcWorkspace::new();
        let factor_once = |ws: &mut DcWorkspace, source: u32, sink: u32| {
            ws.bind(&c, source, sink, LinearBackend::Sparse);
            ws.compute_jacobian(&c, &voltages, Celsius::NOMINAL, 1, None, false);
            ws.factor_jacobian(1).unwrap();
        };
        factor_once(&mut ws, 0, 3);
        assert_eq!((ws.sp_full_factors, ws.sp_reuse_hits), (1, 0));
        // same binding again: the next factorization replays the pattern
        factor_once(&mut ws, 0, 3);
        assert_eq!((ws.sp_full_factors, ws.sp_reuse_hits), (1, 1));
        assert_eq!(ws.sparse_stats().unwrap().symbolic_reuse_hits, 1);
        // different terminals: new unknown numbering forces a full factor
        factor_once(&mut ws, 1, 2);
        assert_eq!((ws.sp_full_factors, ws.sp_reuse_hits), (2, 1));
    }

    #[test]
    fn pivot_decay_falls_back_to_a_full_factorization() {
        let c = diamond();
        let voltages = vec![Volts(2.0), Volts(1.3), Volts(0.9), Volts(0.0)];
        let mut ws = DcWorkspace::new();
        ws.bind(&c, 0, 3, LinearBackend::Sparse);
        ws.compute_jacobian(&c, &voltages, Celsius::NOMINAL, 1, None, false);
        ws.factor_jacobian(1).unwrap();
        assert_eq!((ws.sp_full_factors, ws.sp_reuse_hits), (1, 0));
        // the factorization froze diagonal pivots; collapse every diagonal
        // while the off-diagonals stay, so the first frozen pivot decays
        for r in 0..ws.unknowns.len() {
            ws.sp_mat.values_mut()[ws.sp_diag_slots[r] as usize] = 1e-30;
        }
        let mut stale = ws.sp_lu.clone().unwrap();
        assert!(matches!(stale.refactor(&ws.sp_mat), Err(SparseError::PivotDecay { .. })));
        ws.factor_jacobian(1).unwrap();
        assert_eq!((ws.sp_full_factors, ws.sp_reuse_hits), (2, 0));
        // the re-pivoted factors solve like a fresh factorization
        let rhs = [1e-6, -2e-6];
        ws.delta.copy_from_slice(&rhs);
        ws.solve_linear();
        let mut fresh = rhs.to_vec();
        SparseLu::factor(&ws.sp_mat, &ws.sp_perm).unwrap().solve(&mut fresh);
        assert_eq!(ws.delta, fresh);
    }

    #[test]
    fn terminal_current_matches_edge_loop() {
        let c = diamond();
        let mut ws = DcWorkspace::new();
        ws.bind(&c, 0, 3, LinearBackend::Auto);
        let voltages = vec![Volts(2.0), Volts(1.1), Volts(0.7), Volts(0.0)];
        ws.compute_residual(&c, &voltages, Celsius::NOMINAL, 1);
        let direct: f64 = c
            .edges()
            .iter()
            .map(|e| {
                let dv = voltages[e.from as usize] - voltages[e.to as usize];
                let i = e.element.current(dv, Celsius::NOMINAL).value();
                match (e.from, e.to) {
                    (0, _) => i,
                    (_, 0) => -i,
                    _ => 0.0,
                }
            })
            .sum();
        assert_eq!(ws.terminal_current(0), direct);
    }
}

//! Shared Newton assembly used by both DC and transient analyses.
//!
//! The hot path is [`Assembly::solve_point_with`]: it runs the full
//! Newton iteration against caller-owned buffers (a [`NewtonWorkspace`])
//! so that a transient run of thousands of timesteps performs **zero
//! per-iteration heap allocation** — the Jacobian, residual, update
//! vector, and LU storage are built once and reused for every iteration
//! of every step.

use crate::circuit::Circuit;
use crate::elements::{BypassBank, BypassCtx, ElemState, EvalCtx, JacTarget, Node, Sys};
use crate::plan::{AnalysisCache, BlockPlan};
use crate::CktError;
use fefet_numerics::bbd::BbdLu;
use fefet_numerics::linalg::norm_inf;
use fefet_numerics::sparse::{CsrMatrix, CsrPattern, SparseLu};
use fefet_telemetry::{ConvergenceReport, Instrumentation, TraceEvent};
use std::sync::Arc;

/// Linear-solver backend for the Newton inner solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverBackend {
    /// Sparse LU at every size, promoted to BBD at [`BBD_CROSSOVER`]
    /// unknowns when the options carry a [`BlockPlan`].
    #[default]
    Auto,
    /// Pattern-cached sparse LU, regardless of size.
    Sparse,
    /// Bordered-block-diagonal Schur-complement LU over the partition in
    /// [`SolverOptions::block_plan`] (required), regardless of size.
    Bbd,
}

/// System order at which `Auto` promotes sparse LU to the
/// bordered-block-diagonal backend, provided the options carry a
/// [`BlockPlan`] (without one there is nothing to exploit and `Auto`
/// stays sparse).
///
/// Small arrays gain little — the global Markowitz ordering is already
/// near-optimal there — while a 32×32 array (2400 unknowns) factors
/// measurably faster block-by-block with the shared per-column symbolic
/// analysis, so the crossover sits just below it.
pub const BBD_CROSSOVER: usize = 2000;

/// Newton solver tuning knobs shared by DC and transient analyses.
///
/// Not `Copy`: the [`Instrumentation`] handle holds an optional shared
/// telemetry sink, so options are cloned where they used to be copied
/// (a cheap `Option<Arc>` clone).
#[derive(Debug, Clone, PartialEq)]
pub struct SolverOptions {
    /// Maximum Newton iterations per solution point.
    pub max_newton: usize,
    /// Convergence tolerance on node-voltage updates (V).
    pub tol_v: f64,
    /// Convergence tolerance on KCL residuals (A).
    pub tol_i: f64,
    /// Damping: largest node-voltage change applied per iteration (V).
    pub max_v_step: f64,
    /// Conductance from every node to ground for conditioning (S).
    pub gmin: f64,
    /// Linear-solver backend for the inner solve.
    pub backend: SolverBackend,
    /// Modified Newton: keep the factored Jacobian and skip
    /// restamp+refactor while the residual norm contracts, falling back
    /// to a full iteration the moment it stalls. Convergence is still
    /// judged on a freshly stamped residual, so accepted solutions meet
    /// the same tolerances as the exact path. Default on.
    pub jacobian_reuse: bool,
    /// Device bypass: per-element caching of the last operating point so
    /// elements whose terminal voltages moved less than
    /// [`SolverOptions::bypass_vtol`] skip their expensive model
    /// evaluation (stamping first-order-updated cached values instead).
    /// Default on.
    pub bypass: bool,
    /// Terminal-voltage tolerance for a device-bypass cache hit (V).
    /// The bypass error is O(vtol²) in the stamped currents.
    pub bypass_vtol: f64,
    /// Bordered-block-diagonal partition hint, supplied by circuit
    /// builders that know the layout (array constructors). Required for
    /// [`SolverBackend::Bbd`]; its presence lets `Auto` promote to BBD
    /// past [`BBD_CROSSOVER`] unknowns. `Arc`'d because options are
    /// cloned per analysis and per sweep worker.
    pub block_plan: Option<Arc<BlockPlan>>,
    /// Shared analysis cache: workers solving structurally identical
    /// systems (array clones in a pooled sweep) reuse one symbolic
    /// analysis per pattern instead of re-analyzing per worker.
    pub cache: Option<AnalysisCache>,
    /// Telemetry sink; defaults to off (a no-op on the hot path).
    pub instr: Instrumentation,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            max_newton: 100,
            tol_v: 1e-9,
            tol_i: 1e-12,
            max_v_step: 0.5,
            gmin: 1e-12,
            backend: SolverBackend::Auto,
            jacobian_reuse: true,
            bypass: true,
            bypass_vtol: 1e-6,
            block_plan: None,
            cache: None,
            instr: Instrumentation::off(),
        }
    }
}

/// Exact configuration a stored Jacobian factorization is valid for.
///
/// The modified-Newton fast path reuses factors across iterations *and*
/// across solves (timesteps); any change that alters the Jacobian's
/// structure or scaling — backend, stamping mode, step size or gmin —
/// invalidates them. Time is deliberately *not* part of the key: source
/// values only enter the residual, and the rare time-dependent Jacobian
/// change (a switch toggling) is caught by the residual-contraction
/// fallback instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FactorKey {
    backend: BackendKind,
    dc: bool,
    h_bits: u64,
    gmin_bits: u64,
}

/// Resolved backend for one solve — [`SolverBackend`] with `Auto`
/// already decided by system order and plan availability. The
/// discriminant is the backend code of [`TraceEvent::Factor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BackendKind {
    Sparse = 1,
    Bbd = 2,
}

/// Reusable Newton-iteration buffers: Jacobian, residual, update vector,
/// and factorization storage for one system size.
///
/// Owned by the analysis drivers ([`crate::dc`], [`crate::transient`])
/// and threaded through [`Assembly::solve_point_with`]. Backend state —
/// CSR pattern, slot table and symbolic factorization, for the sparse
/// or the BBD backend — is built lazily on the first solve that needs
/// it, once per stamping mode (DC and transient patterns differ), and
/// reused for every subsequent iteration of every step, so a warmed-up
/// analysis run performs **zero heap allocation** in the Newton loop.
/// Element `stamp` implementations must likewise not allocate — they
/// only accumulate into the borrowed Jacobian/residual.
#[derive(Debug)]
pub struct NewtonWorkspace {
    n: usize,
    res: Vec<f64>,
    dx: Vec<f64>,
    sparse_dc: Option<CsrState<SparseLu>>,
    sparse_tr: Option<CsrState<SparseLu>>,
    bbd_dc: Option<CsrState<BbdLu>>,
    bbd_tr: Option<CsrState<BbdLu>>,
    /// Device-bypass operating-point cache, one slot per element; built
    /// lazily on the first bypass-enabled solve.
    bypass: Option<BypassBank>,
    /// Configuration the currently stored factorization belongs to;
    /// `None` when no reusable factorization exists.
    factor_key: Option<FactorKey>,
}

/// Backend state for one stamping mode (DC or transient): the CSR
/// Jacobian over the circuit's fixed pattern, the preresolved slot per
/// Jacobian add in stamp order, and the analyzed factorization. Both
/// backends stamp the same global CSR; the BBD one scatters it into
/// block/border storage through its precomputed destination map.
#[derive(Debug)]
struct CsrState<L> {
    a: CsrMatrix,
    slots: Vec<usize>,
    lu: L,
}

/// The active backend's factorization, borrowed for one solve.
enum ActiveLu<'a> {
    Sparse(&'a mut SparseLu),
    Bbd(&'a mut BbdLu),
}

impl ActiveLu<'_> {
    fn is_factored(&self) -> bool {
        match self {
            ActiveLu::Sparse(lu) => lu.is_factored(),
            ActiveLu::Bbd(lu) => lu.is_factored(),
        }
    }

    /// Permuted triangular solves against the stored factors.
    fn solve_in_place(&mut self, b: &mut [f64]) -> fefet_numerics::Result<()> {
        match self {
            ActiveLu::Sparse(lu) => lu.solve_in_place(b),
            ActiveLu::Bbd(lu) => lu.solve_in_place(b),
        }
    }

    /// Numeric refactorization of `a`, then the solve.
    fn factor_solve_in_place(
        &mut self,
        a: &CsrMatrix,
        b: &mut [f64],
    ) -> fefet_numerics::Result<()> {
        match self {
            ActiveLu::Sparse(lu) => lu.factor_solve_in_place(a, b),
            ActiveLu::Bbd(lu) => lu.factor_solve_in_place(a, b),
        }
    }
}

impl NewtonWorkspace {
    /// Creates a workspace for systems of `n` unknowns
    /// ([`Assembly::n_unknowns`]).
    // fefet-lint: allow-item(hot-alloc) -- workspace construction IS the setup: it exists so the Newton loop itself never allocates
    pub fn new(n: usize) -> Self {
        NewtonWorkspace {
            n,
            res: vec![0.0; n],
            dx: vec![0.0; n],
            sparse_dc: None,
            sparse_tr: None,
            bbd_dc: None,
            bbd_tr: None,
            bypass: None,
            factor_key: None,
        }
    }

    /// The system order this workspace is sized for.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Structural nonzero count of the sparse Jacobian pattern for the
    /// given stamping mode, if that sparse state has been built.
    pub fn sparse_nnz(&self, dc: bool) -> Option<usize> {
        let s = if dc { &self.sparse_dc } else { &self.sparse_tr };
        s.as_ref().map(|s| s.a.nnz())
    }

    /// BBD backend shape for the given stamping mode, if that state has
    /// been built: `(diagonal blocks, border order, pattern classes)`.
    pub fn bbd_dims(&self, dc: bool) -> Option<(usize, usize, usize)> {
        let s = if dc { &self.bbd_dc } else { &self.bbd_tr };
        s.as_ref().map(|s| {
            (
                s.lu.block_count(),
                s.lu.border_len(),
                s.lu.pattern_classes(),
            )
        })
    }
}

/// Precomputed element/branch bookkeeping for one circuit.
#[derive(Debug)]
pub struct Assembly {
    /// First branch index per element (`usize::MAX` when none).
    pub branch0: Vec<usize>,
    /// Total number of branch unknowns.
    pub n_branches: usize,
    /// Number of nodes including ground.
    pub n_nodes: usize,
}

/// Newton acceptance test, shared by the workspace loop and the
/// allocating reference so the two stay bit-identical.
///
/// The primary criterion is the SPICE-style step test: the last update
/// moved every node by less than `tol_v` and both residual norms are
/// inside spec. The fallback is a residual-floor test: device models
/// with internal solves (the FE polarization update) quantize the
/// attainable step near switching, so `dv` can bottom out just above
/// `tol_v` while KCL is already satisfied an order of magnitude tighter
/// than spec -- the iterate is converged in every physical sense and
/// further iterations cycle without improving it.
fn newton_accepted(opts: &SolverOptions, dv: f64, res_kcl: f64, res_branch: f64) -> bool {
    if dv < opts.tol_v && res_kcl < opts.tol_i && res_branch < opts.tol_v {
        return true;
    }
    dv < 10.0 * opts.tol_v && res_kcl < 0.1 * opts.tol_i && res_branch < 0.1 * opts.tol_v
}

impl Assembly {
    /// Builds the element/branch bookkeeping for `ckt`.
    // fefet-lint: allow-item(hot-alloc) -- one-time assembly construction per circuit, before any solve
    pub fn new(ckt: &Circuit) -> Self {
        let mut branch0 = Vec::with_capacity(ckt.elements().len());
        let mut nb = 0;
        for (_, e) in ckt.elements() {
            let k = e.n_branches();
            branch0.push(if k > 0 { nb } else { usize::MAX });
            nb += k;
        }
        Assembly {
            branch0,
            n_branches: nb,
            n_nodes: ckt.n_nodes(),
        }
    }

    /// Total unknowns: node voltages (minus ground) plus branch currents.
    pub fn n_unknowns(&self) -> usize {
        self.n_nodes - 1 + self.n_branches
    }

    /// Stamps every element plus the gmin conditioning diagonal into an
    /// already-cleared system view.
    ///
    /// This is the single assembly path behind every Jacobian target
    /// (slot-indexed sparse, pattern recording, residual-only, and the
    /// tests' dense reference), which is what makes the slot-indexed
    /// invariant hold by construction: the sequence of Jacobian adds is
    /// identical for a given circuit and `dc` flag no matter the
    /// target. The gmin diagonal is stamped unconditionally (adding
    /// `0.0` when gmin is disabled) so the node diagonals are always
    /// part of the sparse pattern and the add sequence never depends on
    /// the gmin value.
    ///
    /// `bypass` (bank + voltage tolerance) enables the device-bypass
    /// fast path for this stamp pass; bypassed elements still issue the
    /// full stamp sequence, so the slot-indexed sparse invariant holds
    /// regardless of cache hits.
    #[allow(clippy::too_many_arguments)]
    #[allow(clippy::needless_range_loop)]
    fn stamp_sys(
        &self,
        ckt: &Circuit,
        t: f64,
        h: f64,
        dc: bool,
        gmin: f64,
        x: &[f64],
        states: &[ElemState],
        sys: &mut Sys<'_>,
        bypass: Option<(&BypassBank, f64)>,
    ) {
        for (i, (_, e)) in ckt.elements().iter().enumerate() {
            let ctx = EvalCtx {
                t,
                h,
                dc,
                x,
                state: states[i],
            };
            let bp = bypass.map(|(bank, vtol)| BypassCtx {
                bank,
                index: i,
                vtol,
            });
            e.stamp_cached(self.branch0[i], &ctx, sys, bp);
        }
        // gmin to ground at every node for conditioning.
        for n in 0..self.n_nodes - 1 {
            sys.jac_add(n, n, gmin);
            sys.res[n] += gmin * x[n];
        }
    }

    /// Records the Jacobian add sequence with a pattern-target stamp
    /// pass, assembles the CSR pattern, and resolves every add to its
    /// value-array slot. Shared setup for the sparse and BBD backends.
    // fefet-lint: allow-item(hot-alloc) -- first-use backend setup cached in the workspace; the Newton loop reuses it allocation-free
    #[allow(clippy::too_many_arguments)]
    fn record_pattern(
        &self,
        ckt: &Circuit,
        t: f64,
        h: f64,
        dc: bool,
        gmin: f64,
        x: &[f64],
        states: &[ElemState],
    ) -> Result<(CsrPattern, Vec<usize>), CktError> {
        let n = self.n_unknowns();
        let mut entries: Vec<(usize, usize)> = Vec::new();
        let mut scratch_res = vec![0.0; n];
        let mut sys = Sys {
            jac: JacTarget::Pattern(&mut entries),
            res: &mut scratch_res,
            n_nodes: self.n_nodes,
        };
        self.stamp_sys(ckt, t, h, dc, gmin, x, states, &mut sys, None);
        let pattern = CsrPattern::from_entries(n, &entries).map_err(CktError::from)?;
        let mut slots = Vec::with_capacity(entries.len());
        for &(r, c) in &entries {
            match pattern.slot_of(r, c) {
                Some(s) => slots.push(s),
                None => {
                    return Err(CktError::Netlist(
                        "sparse pattern is missing a stamped entry".into(),
                    ))
                }
            }
        }
        Ok((pattern, slots))
    }

    /// Builds the sparse backend state for one stamping mode. The
    /// symbolic analysis goes through [`SolverOptions::cache`] when one
    /// is attached, so pooled sweep workers solving the same pattern
    /// share a single analysis (the cache clones its pristine proto:
    /// fresh numeric buffers, `Arc`-shared symbolic state).
    #[allow(clippy::too_many_arguments)]
    fn build_sparse_state(
        &self,
        ckt: &Circuit,
        t: f64,
        h: f64,
        dc: bool,
        opts: &SolverOptions,
        x: &[f64],
        states: &[ElemState],
    ) -> Result<CsrState<SparseLu>, CktError> {
        let (pattern, slots) = self.record_pattern(ckt, t, h, dc, opts.gmin, x, states)?;
        let (lu, cache_hit) = match &opts.cache {
            Some(cache) => cache.sparse(&pattern, || SparseLu::analyze(&pattern))?,
            None => (SparseLu::analyze(&pattern).map_err(CktError::from)?, false),
        };
        if let Some(tel) = opts.instr.get() {
            if cache_hit {
                tel.solver.analysis_cache_hits.inc();
            } else {
                tel.solver.sparse_symbolic_analyses.inc();
            }
            tel.solver
                .sparse_pattern_nnz
                .record_max(pattern.nnz() as u64);
            let fill = lu.lu_nnz().saturating_sub(pattern.nnz());
            tel.solver.sparse_fill_nnz.record_max(fill as u64);
        }
        let a = CsrMatrix::from_pattern(pattern);
        Ok(CsrState { a, slots, lu })
    }

    /// Builds the BBD backend state for one stamping mode: the global
    /// CSR pattern and slot table exactly as for sparse, plus the
    /// bordered-block-diagonal factorization over the partition in
    /// `plan`, cache-shared like the sparse analysis.
    #[allow(clippy::too_many_arguments)]
    fn build_bbd_state(
        &self,
        ckt: &Circuit,
        t: f64,
        h: f64,
        dc: bool,
        opts: &SolverOptions,
        plan: &BlockPlan,
        x: &[f64],
        states: &[ElemState],
    ) -> Result<CsrState<BbdLu>, CktError> {
        let (pattern, slots) = self.record_pattern(ckt, t, h, dc, opts.gmin, x, states)?;
        let structure = plan.block_structure(self)?;
        let (lu, cache_hit) = match &opts.cache {
            Some(cache) => cache.bbd(&pattern, &structure, || {
                BbdLu::analyze(&pattern, &structure)
            })?,
            None => (
                BbdLu::analyze(&pattern, &structure).map_err(CktError::from)?,
                false,
            ),
        };
        if let Some(tel) = opts.instr.get() {
            if cache_hit {
                tel.solver.analysis_cache_hits.inc();
            } else {
                tel.solver
                    .bbd_pattern_classes
                    .record_max(lu.pattern_classes() as u64);
            }
            tel.solver.bbd_blocks.record_max(lu.block_count() as u64);
            tel.solver.bbd_border_len.record_max(lu.border_len() as u64);
            tel.solver
                .sparse_pattern_nnz
                .record_max(pattern.nnz() as u64);
            tel.solver.sparse_fill_nnz.record_max(lu.fill_nnz() as u64);
        }
        let a = CsrMatrix::from_pattern(pattern);
        Ok(CsrState { a, slots, lu })
    }

    /// Newton iteration for one solution point. Returns the converged
    /// unknown vector.
    ///
    /// Convenience wrapper over [`Assembly::solve_point_with`] that
    /// allocates a fresh [`NewtonWorkspace`] per call; analysis drivers
    /// should own a workspace and call `solve_point_with` directly.
    /// `t` is the absolute time (s) and `h` the step size (s), both 0
    /// for DC.
    ///
    /// # Errors
    ///
    /// As for [`Assembly::solve_point_with`].
    // fefet-lint: allow-item(hot-alloc) -- convenience wrapper that allocates a fresh workspace by documented contract; hot callers use solve_point_with
    #[allow(clippy::too_many_arguments)]
    pub fn solve_point(
        &self,
        ckt: &Circuit,
        t: f64,
        h: f64,
        dc: bool,
        opts: &SolverOptions,
        x0: &[f64],
        states: &[ElemState],
    ) -> Result<Vec<f64>, CktError> {
        let mut ws = NewtonWorkspace::new(self.n_unknowns());
        let mut x = x0.to_vec();
        self.solve_point_with(ckt, t, h, dc, opts, &mut x, states, &mut ws)?;
        Ok(x)
    }

    /// Newton iteration for one solution point at time `t` (s) with
    /// backward-Euler step `h` (s), in place (`dc` opens the dynamic
    /// elements and ignores `h`). Returns the number of Newton iterations
    /// performed (so callers can compare iteration trajectories across
    /// solver backends).
    ///
    /// `x` holds the initial iterate on entry and the converged unknown
    /// vector on successful return (on error it holds the last partial
    /// iterate — callers that retry must keep their own copy). All
    /// scratch storage lives in `ws`; backend state (the CSR pattern and
    /// symbolic factorization) is built inside `ws` on first use, after
    /// which the Newton loop performs no heap allocation.
    ///
    /// Every outcome, success or error, is recorded the same way: a
    /// converged solve in `solves`, any failed one in `failures`, and
    /// both in the Jacobian-reuse and bypass tallies and (when
    /// profiling) the `solve_ns` histogram.
    ///
    /// # Errors
    ///
    /// [`CktError::Netlist`] on a size mismatch between `x`, `ws`, and
    /// the assembly; [`CktError::Convergence`] if the Jacobian is
    /// singular; [`CktError::NewtonExhausted`] — carrying a structured
    /// [`ConvergenceReport`] (worst KCL-residual node, last damping
    /// factor, gmin) — if the iteration budget runs out;
    /// [`CktError::NonFinite`] if an iterate leaves the finite range;
    /// [`CktError::Numerics`] if the circuit's sparse pattern is
    /// structurally singular.
    #[allow(clippy::too_many_arguments)]
    pub fn solve_point_with(
        &self,
        ckt: &Circuit,
        t: f64,
        h: f64,
        dc: bool,
        opts: &SolverOptions,
        x: &mut [f64],
        states: &[ElemState],
        ws: &mut NewtonWorkspace,
    ) -> Result<usize, CktError> {
        let n = self.n_unknowns();
        if x.len() != n || ws.order() != n {
            // fefet-lint: allow(hot-alloc) -- cold error path: formatting happens once, on the way out
            return Err(CktError::Netlist(format!(
                "solve_point: system has {n} unknowns but x has {} and workspace {}",
                x.len(),
                ws.order()
            )));
        }
        let kind = match opts.backend {
            SolverBackend::Sparse => BackendKind::Sparse,
            SolverBackend::Bbd => BackendKind::Bbd,
            SolverBackend::Auto if opts.block_plan.is_some() && n >= BBD_CROSSOVER => {
                BackendKind::Bbd
            }
            SolverBackend::Auto => BackendKind::Sparse,
        };
        let NewtonWorkspace {
            res,
            dx,
            sparse_dc,
            sparse_tr,
            bbd_dc,
            bbd_tr,
            bypass,
            factor_key,
            ..
        } = ws;
        // Lazy one-time backend setup; every later call reuses it.
        let (a, slots, mut lu) = match kind {
            BackendKind::Sparse => {
                let slot = if dc { sparse_dc } else { sparse_tr };
                let st = match slot {
                    Some(st) => st,
                    None => slot.insert(self.build_sparse_state(ckt, t, h, dc, opts, x, states)?),
                };
                (&mut st.a, st.slots.as_slice(), ActiveLu::Sparse(&mut st.lu))
            }
            BackendKind::Bbd => {
                let plan = opts.block_plan.as_deref().ok_or_else(|| {
                    CktError::Netlist("bbd backend requires a block plan in SolverOptions".into())
                })?;
                let slot = if dc { bbd_dc } else { bbd_tr };
                let st = match slot {
                    Some(st) => st,
                    None => {
                        slot.insert(self.build_bbd_state(ckt, t, h, dc, opts, plan, x, states)?)
                    }
                };
                (&mut st.a, st.slots.as_slice(), ActiveLu::Bbd(&mut st.lu))
            }
        };

        // Device bypass: per-element operating-point cache, built lazily
        // on the first bypass-enabled transient solve and rebuilt if the
        // circuit's element count changed. DC solves skip it — a DC
        // operating point stamped without gate dynamics must not seed
        // the transient cache.
        let want_bypass = opts.bypass && !dc;
        let rebuild_bank = match bypass.as_ref() {
            Some(b) => b.len() != ckt.elements().len(),
            None => true,
        };
        if want_bypass && rebuild_bank {
            *bypass = Some(BypassBank::new(ckt.elements().len()));
        }
        let bank: Option<(&BypassBank, f64)> = if want_bypass {
            bypass.as_ref().map(|b| (b, opts.bypass_vtol))
        } else {
            None
        };

        // Configuration this solve's factorizations belong to. Factors
        // stored by a previous solve are reusable iff the keys match.
        let key = FactorKey {
            backend: kind,
            dc,
            h_bits: h.to_bits(),
            gmin_bits: opts.gmin.to_bits(),
        };

        let nv = self.n_nodes - 1;
        // Profiling (trace recorder attached): one clock read here and
        // one at the solve's end; counters-only instrumentation never
        // touches the clock.
        let prof_t0 = opts.instr.profile_start();
        // Damping factor applied on the most recent iteration (1.0 =
        // full Newton step); reported in convergence diagnostics.
        let mut last_damping = 1.0;
        // Modified-Newton bookkeeping: iterations that rode a stored
        // factorization vs. fresh factorizations this solve, plus the
        // residual-contraction monitor that demotes the fast path.
        let mut exact_only = !opts.jacobian_reuse;
        let mut prev_res = f64::INFINITY;
        let mut factors: usize = 0;
        let mut reuses: usize = 0;
        // Iterations run so far and the KCL residual norm of the last
        // one, for the telemetry tail.
        let mut iters: usize = 0;
        let mut last_kcl = 0.0;
        // Every exit from the iteration, success or error, leaves this
        // block through `break 'solve`, so one tail below records it.
        let outcome: Result<(), CktError> = 'solve: {
            for it in 0..opts.max_newton {
                iters = it + 1;
                // Is the stored factorization valid for this configuration?
                let stored_ok = *factor_key == Some(key) && lu.is_factored();
                // Fast path: residual-only stamp (Jacobian adds discarded
                // by the Null target), accepted only while the residual
                // keeps contracting under the stale factors.
                let mut fast_norms: Option<(f64, f64)> = None;
                if !exact_only && stored_ok {
                    res.fill(0.0);
                    let mut sys = Sys {
                        jac: JacTarget::Null,
                        res,
                        n_nodes: self.n_nodes,
                    };
                    self.stamp_sys(ckt, t, h, dc, opts.gmin, x, states, &mut sys, bank);
                    let k = norm_inf(&res[..nv]);
                    let b = if nv < n { norm_inf(&res[nv..]) } else { 0.0 };
                    let cur = k.max(b);
                    if cur.is_finite() && cur <= 0.5 * prev_res {
                        prev_res = cur;
                        fast_norms = Some((k, b));
                    } else {
                        // Convergence stalled under the stale Jacobian
                        // (the operating point moved too far, or the
                        // circuit changed behind the key — e.g. a switch
                        // toggled). Exact Newton for the rest of this
                        // solve; the full stamp below overwrites the
                        // residual.
                        exact_only = true;
                    }
                }
                let fast = fast_norms.is_some();
                let (res_kcl, res_branch) = match fast_norms {
                    Some(norms) => norms,
                    None => {
                        // Exact iteration: assemble into the global CSR
                        // Jacobian both backends stamp.
                        a.clear();
                        res.fill(0.0);
                        let mut sys = Sys {
                            jac: JacTarget::Sparse {
                                values: a.values_mut(),
                                slots,
                                cursor: 0,
                            },
                            res,
                            n_nodes: self.n_nodes,
                        };
                        self.stamp_sys(ckt, t, h, dc, opts.gmin, x, states, &mut sys, bank);
                        if sys.sparse_cursor() != Some(slots.len()) {
                            break 'solve Err(CktError::Netlist(
                                "stamp sequence diverged from the cached sparse pattern".into(),
                            ));
                        }
                        let k = norm_inf(&res[..nv]);
                        let b = if nv < n { norm_inf(&res[nv..]) } else { 0.0 };
                        let cur = k.max(b);
                        if cur.is_finite() {
                            prev_res = cur;
                        }
                        (k, b)
                    }
                };
                last_kcl = res_kcl;
                // dx = -res, then solve. Fast path: permuted triangular
                // solves against the stored factors only — no stamp of
                // the Jacobian, no elimination. Exact path: numeric
                // refactorization over the cached pattern, then permuted
                // triangular solves.
                for (d, r) in dx.iter_mut().zip(res.iter()) {
                    *d = -*r;
                }
                let solved = if fast {
                    reuses += 1;
                    lu.solve_in_place(dx)
                } else {
                    // The stored factors are about to be overwritten;
                    // clear the key first so a factorization error cannot
                    // leave a stale key pointing at garbage.
                    *factor_key = None;
                    let r = lu.factor_solve_in_place(a, dx);
                    if r.is_ok() {
                        factors += 1;
                        *factor_key = Some(key);
                        if let Some((_, tr)) = opts.instr.profile() {
                            tr.instant(TraceEvent::Factor, kind as u64);
                        }
                    }
                    r
                };
                if let Err(e) = solved {
                    break 'solve Err(CktError::Convergence {
                        time: t,
                        // fefet-lint: allow(hot-alloc) -- cold error path: the iteration is already abandoned
                        detail: format!("jacobian factorization failed: {e}"),
                    });
                }
                // Damp on the node-voltage part of the update; pure-branch
                // systems (nv == 0) have no voltage to bound, so the
                // damping (a voltage limit) does not apply to them.
                let dv_max = if nv > 0 { norm_inf(&dx[..nv]) } else { 0.0 };
                last_damping = 1.0;
                if nv > 0 && dv_max > opts.max_v_step {
                    let s = opts.max_v_step / dv_max;
                    last_damping = s;
                    // Branch currents are linear consequences of the node
                    // voltages; scale them the same way to stay
                    // consistent within the iteration.
                    for d in dx.iter_mut() {
                        *d *= s;
                    }
                }
                for (xi, di) in x.iter_mut().zip(dx.iter()) {
                    *xi += di;
                }
                if x.iter().any(|v| !v.is_finite()) {
                    break 'solve Err(CktError::NonFinite {
                        context: "newton update",
                        step: t,
                    });
                }
                let dv = if nv > 0 { norm_inf(&dx[..nv]) } else { 0.0 };
                if newton_accepted(opts, dv, res_kcl, res_branch) {
                    break 'solve Ok(());
                }
            }
            Err(self.exhausted(ckt, t, opts, res, last_damping))
        };
        // Per-solve telemetry: relaxed atomics only, nothing allocated,
        // so the warm-path zero-allocation invariant holds with
        // instrumentation on as well as off.
        if let Some(tel) = opts.instr.get() {
            if outcome.is_ok() {
                tel.solver.solves.inc();
                tel.solver.newton_iterations.record(iters as f64);
                tel.solver.residual_at_convergence.record(last_kcl);
                tel.solver.factors_per_solve.record(factors as f64);
                // Fresh factorizations on whichever backend ran (a fully
                // reused solve records zero); one back-substitution per
                // iteration on either path.
                match &lu {
                    ActiveLu::Sparse(_) => tel.solver.sparse_refactors.add(factors as u64),
                    ActiveLu::Bbd(bbd) => {
                        tel.solver.bbd_refactors.add(factors as u64);
                        // Two triangular solves per block per iteration
                        // (forward + back).
                        tel.solver
                            .bbd_block_solves
                            .add(2 * (iters as u64) * bbd.block_count() as u64);
                    }
                }
                tel.solver.back_substitutions.add(iters as u64);
            } else {
                tel.solver.failures.inc();
            }
            tel.solver.jacobian_reuses.add(reuses as u64);
            if let Some((b, _)) = bank {
                let (bh, bm) = b.take_counts();
                tel.solver.bypass_hits.add(bh);
                tel.solver.bypass_misses.add(bm);
            }
        }
        opts.instr
            .profile_end(prof_t0, TraceEvent::NewtonSolve, iters as u64);
        outcome.map(|()| iters)
    }

    /// The budget-exhaustion error: allocates freely to explain *where*
    /// the solve diverged. `res` still holds the residual stamped on the
    /// last iteration; its KCL span names the worst node.
    fn exhausted(
        &self,
        ckt: &Circuit,
        t: f64,
        opts: &SolverOptions,
        res: &[f64],
        last_damping: f64,
    ) -> CktError {
        let nv = self.n_nodes - 1;
        let kcl = if nv > 0 { &res[..nv] } else { res };
        let mut worst_node = 0usize;
        let mut worst_residual = 0.0f64;
        for (i, r) in kcl.iter().enumerate() {
            if r.abs() > worst_residual {
                worst_node = i;
                worst_residual = r.abs();
            }
        }
        let worst_node_name = if worst_node < nv {
            ckt.node_name(Node(worst_node + 1)).to_string()
        } else {
            String::new()
        };
        CktError::NewtonExhausted {
            time: t,
            report: ConvergenceReport {
                iterations: opts.max_newton,
                worst_node,
                worst_node_name,
                worst_residual,
                last_damping,
                gmin: opts.gmin,
                // fefet-lint: allow(hot-alloc) -- cold error path: empty placeholder in the exhaustion report
                gmin_trajectory: Vec::new(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform;
    use fefet_numerics::linalg::{LuWorkspace, Matrix};

    #[test]
    fn assembly_counts_branches() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::GND, Waveform::dc(1.0));
        c.resistor("R1", a, b, 1e3);
        c.vcvs("E1", b, Circuit::GND, a, Circuit::GND, 2.0);
        let asm = Assembly::new(&c);
        assert_eq!(asm.n_branches, 2);
        assert_eq!(asm.branch0, vec![0, usize::MAX, 1]);
        assert_eq!(asm.n_unknowns(), 2 + 2);
    }

    /// Assembles residual and Jacobian at iterate `x` into a dense
    /// matrix at time `t` (s) with step `h` (s) and diagonal leak `gmin`
    /// (S) — the same stamp pass the engine runs, on the dense target.
    #[allow(clippy::too_many_arguments)]
    fn stamp_all(
        asm: &Assembly,
        ckt: &Circuit,
        t: f64,
        h: f64,
        dc: bool,
        gmin: f64,
        x: &[f64],
        states: &[ElemState],
        jac: &mut Matrix,
        res: &mut [f64],
    ) {
        jac.clear();
        res.fill(0.0);
        let mut sys = Sys {
            jac: JacTarget::Dense(jac),
            res,
            n_nodes: asm.n_nodes,
        };
        asm.stamp_sys(ckt, t, h, dc, gmin, x, states, &mut sys, None);
    }

    /// Dense reference Newton loop: a fresh dense Jacobian, residual and
    /// [`LuWorkspace`] factorization every iteration, no Jacobian reuse
    /// and no device bypass. Mirrors the damping and acceptance test of
    /// [`Assembly::solve_point_with`], so an exact-Newton engine solve
    /// must take the same iterations and land within factorization
    /// roundoff. Returns the solution and the iteration count.
    #[allow(clippy::too_many_arguments)]
    fn solve_point_allocating(
        asm: &Assembly,
        ckt: &Circuit,
        t: f64,
        h: f64,
        dc: bool,
        opts: &SolverOptions,
        x0: &[f64],
        states: &[ElemState],
    ) -> Result<(Vec<f64>, usize), CktError> {
        let n = asm.n_unknowns();
        let nv = asm.n_nodes - 1;
        let mut x = x0.to_vec();
        for it in 0..opts.max_newton {
            let mut jac = Matrix::zeros(n, n);
            let mut res = vec![0.0; n];
            stamp_all(
                asm, ckt, t, h, dc, opts.gmin, &x, states, &mut jac, &mut res,
            );
            let res_kcl = norm_inf(&res[..nv]);
            let res_branch = if nv < n { norm_inf(&res[nv..]) } else { 0.0 };
            let mut lu = LuWorkspace::new(n);
            lu.factor(&jac).map_err(|e| CktError::Convergence {
                time: t,
                detail: format!("jacobian factorization failed: {e}"),
            })?;
            let mut dx: Vec<f64> = res.iter().map(|r| -r).collect();
            lu.solve_into(&mut dx).map_err(CktError::from)?;
            let dv_max = if nv > 0 { norm_inf(&dx[..nv]) } else { 0.0 };
            if nv > 0 && dv_max > opts.max_v_step {
                let s = opts.max_v_step / dv_max;
                for d in dx.iter_mut() {
                    *d *= s;
                }
            }
            for (xi, di) in x.iter_mut().zip(&dx) {
                *xi += di;
            }
            let dv = if nv > 0 { norm_inf(&dx[..nv]) } else { 0.0 };
            if newton_accepted(opts, dv, res_kcl, res_branch) {
                return Ok((x, it + 1));
            }
        }
        Err(CktError::Convergence {
            time: t,
            detail: "reference newton exhausted".into(),
        })
    }

    /// The FEFET array's 1×1 read netlist, rebuilt from engine-level
    /// primitives (the array builder lives downstream, in `fefet-mem`):
    /// read/write-select row drivers, the bit-line driver and clamped
    /// sense line, and the cell's access transistor, FE capacitor and
    /// FEFET. 9 nodes plus 4 voltage-source branch rows = 13 unknowns.
    fn one_cell_read_circuit() -> Circuit {
        use crate::models::{FeCapParams, MosParams};
        let mut c = Circuit::new();
        let rs = c.node("rs0");
        let ws = c.node("ws0");
        let rsd = c.node("rs0_drv");
        let wsd = c.node("ws0_drv");
        c.vsource("Vrs0", rsd, Circuit::GND, Waveform::dc(0.4));
        c.resistor("Rrs0", rsd, rs, 1e3);
        c.vsource("Vws0", wsd, Circuit::GND, Waveform::dc(1.0));
        c.resistor("Rws0", wsd, ws, 1e3);
        c.capacitor("Crs0", rs, Circuit::GND, 1e-16);
        c.capacitor("Cws0", ws, Circuit::GND, 1e-16);
        let bl = c.node("bl0");
        let sl = c.node("sl0");
        let bld = c.node("bl0_drv");
        c.vsource("Vbl0", bld, Circuit::GND, Waveform::dc(0.0));
        c.resistor("Rbl0", bld, bl, 1e3);
        c.vsource("Vsl0", sl, Circuit::GND, Waveform::dc(0.0));
        c.capacitor("Cbl0", bl, Circuit::GND, 1e-16);
        c.capacitor("Csl0", sl, Circuit::GND, 1e-16);
        let g = c.node("g0_0");
        let gi = c.node("gi0_0");
        c.mosfet("Macc0_0", bl, ws, g, MosParams::nmos_45nm());
        c.fecap("Ffe0_0", g, gi, FeCapParams::new(2.25e-9, 1e-15), 0.3);
        c.mosfet("Mfet0_0", rs, gi, sl, MosParams::nmos_45nm_fefet_base());
        c
    }

    /// `Auto` runs the sparse LU at every size below the BBD crossover,
    /// and it must track the dense reference loop: same Newton
    /// iteration count (both see the same Jacobian, only factored
    /// differently) and solutions matching to tight tolerance, in both
    /// DC and transient stamping modes, on a nonlinear MOSFET stage and
    /// on the array's 1×1 read circuit with its voltage-source branch
    /// rows. Exercises the full pattern-record → slot-resolve →
    /// slot-indexed-stamp → refactor → solve pipeline.
    #[test]
    fn sparse_backend_matches_dense_newton() {
        let circuits = [
            ("mos stage", mos_test_circuit().0),
            ("1x1 read", one_cell_read_circuit()),
        ];
        for (name, c) in circuits {
            let asm = Assembly::new(&c);
            let n = asm.n_unknowns();
            let x0 = vec![0.0; n];
            let states: Vec<ElemState> = c
                .elements()
                .iter()
                .map(|(_, e)| e.initial_state(&x0))
                .collect();
            if name == "1x1 read" {
                assert_eq!(n, 13, "{name}: 9 nodes + 4 source branches");
            }
            for (dc, t, h) in [(true, 0.0, 0.0), (false, 1e-9, 1e-9)] {
                // Equal iteration counts require exact Newton: the fast
                // paths change the trajectory (legally).
                let opts = SolverOptions {
                    jacobian_reuse: false,
                    bypass: false,
                    ..SolverOptions::default()
                };
                let (xd, it_d) =
                    solve_point_allocating(&asm, &c, t, h, dc, &opts, &x0, &states).unwrap();
                let mut xs = x0.clone();
                let mut ws = NewtonWorkspace::new(n);
                let it_s = asm
                    .solve_point_with(&c, t, h, dc, &opts, &mut xs, &states, &mut ws)
                    .unwrap();
                assert_eq!(
                    it_d, it_s,
                    "{name} dc={dc}: newton iteration counts diverged"
                );
                for i in 0..n {
                    let scale = xd[i].abs().max(1.0);
                    assert!(
                        (xs[i] - xd[i]).abs() <= 1e-9 * scale,
                        "{name} dc={dc} unknown {i}: sparse {} vs dense {}",
                        xs[i],
                        xd[i]
                    );
                }
                assert!(ws.sparse_nnz(dc).is_some(), "{name}: auto must run sparse");
                assert!(ws.sparse_nnz(!dc).is_none());
            }
        }
    }

    /// `Auto` has no dense tier: even a two-resistor divider builds
    /// sparse state.
    #[test]
    fn auto_backend_builds_sparse_state_for_tiny_circuits() {
        let mut c = Circuit::new();
        let b = c.node("b");
        let m = c.node("m");
        c.vsource("V1", b, Circuit::GND, Waveform::dc(1.0));
        c.resistor("R1", b, m, 1e3);
        c.resistor("R2", m, Circuit::GND, 1e3);
        let asm = Assembly::new(&c);
        let states: Vec<ElemState> = c.elements().iter().map(|_| ElemState::None).collect();
        let mut x = vec![0.0; asm.n_unknowns()];
        let mut ws = NewtonWorkspace::new(asm.n_unknowns());
        asm.solve_point_with(
            &c,
            0.0,
            0.0,
            true,
            &SolverOptions::default(),
            &mut x,
            &states,
            &mut ws,
        )
        .unwrap();
        assert!(ws.sparse_nnz(true).is_some());
    }

    /// A failed solve is recorded like a converged one: a numerically
    /// singular Jacobian (gmin off, a node reached only through a
    /// capacitor, which is open in DC) raises `failures` by exactly one
    /// and, when profiled, adds one `solve_ns` sample.
    #[test]
    fn singular_solve_is_counted_as_a_failure() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let f = c.node("f");
        c.vsource("V1", a, Circuit::GND, Waveform::dc(1.0));
        c.resistor("R1", a, Circuit::GND, 1e3);
        c.capacitor("C1", a, f, 1e-12);
        let asm = Assembly::new(&c);
        let states: Vec<ElemState> = c.elements().iter().map(|_| ElemState::None).collect();
        let instr = Instrumentation::enabled();
        let tr = instr.get().unwrap().attach_trace(1 << 10);
        let opts = SolverOptions {
            gmin: 0.0,
            instr: instr.clone(),
            ..SolverOptions::default()
        };
        let mut x = vec![0.0; asm.n_unknowns()];
        let mut ws = NewtonWorkspace::new(asm.n_unknowns());
        let r = asm.solve_point_with(&c, 0.0, 0.0, true, &opts, &mut x, &states, &mut ws);
        assert!(matches!(r, Err(CktError::Convergence { .. })), "{r:?}");
        let tel = instr.get().unwrap();
        assert_eq!(tel.solver.failures.get(), 1);
        assert_eq!(tel.solver.solves.get(), 0);
        assert_eq!(tel.latency.solve_ns.count(), 1);
        assert_eq!(tr.dropped(), 0);
    }

    /// A circuit of only branch unknowns (voltage source dead-ended into
    /// another source's node) exercises the `nv == 0` damping guard.
    /// The damping bound is a voltage limit; it must not clamp branch
    /// currents when there are no node-voltage unknowns at all.
    #[test]
    fn pure_branch_system_is_not_voltage_damped() {
        // One node forced by a source: eliminating ground leaves nv = 1;
        // to get nv = 0 we need a circuit with only ground... which the
        // netlist builder cannot express. Instead verify the guard
        // arithmetic directly: with nv = 0 the damping scale is never
        // applied even for large branch updates.
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource("V1", a, Circuit::GND, Waveform::dc(2.0));
        // 0.1 ohm: branch current 20 A dwarfs max_v_step = 0.5. The
        // voltage unknown converges in one step (linear), and the branch
        // current must come out exact, not clamped by the voltage bound.
        c.resistor("R1", a, Circuit::GND, 0.1);
        let asm = Assembly::new(&c);
        let states = vec![ElemState::None; 2];
        let x = asm
            .solve_point(
                &c,
                0.0,
                0.0,
                true,
                &SolverOptions {
                    max_v_step: 10.0,
                    ..SolverOptions::default()
                },
                &[0.0, 0.0],
                &states,
            )
            .unwrap();
        assert!((x[0] - 2.0).abs() < 1e-6);
        assert!((x[1] + 20.0).abs() < 1e-4, "i(V1) = {}", x[1]);
        let _ = states;
    }

    #[test]
    fn solve_point_voltage_divider() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::GND, Waveform::dc(2.0));
        c.resistor("R1", a, b, 1e3);
        c.resistor("R2", b, Circuit::GND, 1e3);
        let asm = Assembly::new(&c);
        let states = vec![ElemState::None; 3];
        let x0 = vec![0.0; asm.n_unknowns()];
        let x = asm
            .solve_point(
                &c,
                0.0,
                0.0,
                true,
                &SolverOptions {
                    max_v_step: 10.0,
                    ..SolverOptions::default()
                },
                &x0,
                &states,
            )
            .unwrap();
        assert!((x[0] - 2.0).abs() < 1e-6);
        assert!((x[1] - 1.0).abs() < 1e-6);
        // Branch current of V1: 2V across 2k total, entering terminal a
        // means sourcing => negative by our convention.
        assert!((x[2] + 1e-3).abs() < 1e-8);
    }

    /// Common-source MOSFET stage used by the fast-path tests: nonlinear
    /// enough that Newton takes several iterations from a cold start.
    fn mos_test_circuit() -> (Circuit, Assembly, Vec<ElemState>) {
        use crate::models::MosParams;
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let d = c.node("d");
        let g = c.node("g");
        c.vsource("VDD", vdd, Circuit::GND, Waveform::dc(1.0));
        c.vsource("VG", g, Circuit::GND, Waveform::dc(0.6));
        c.resistor("RD", vdd, d, 50e3);
        c.mosfet("M1", d, g, Circuit::GND, MosParams::nmos_45nm());
        c.capacitor("CL", d, Circuit::GND, 1e-15);
        let asm = Assembly::new(&c);
        let states: Vec<ElemState> = c.elements().iter().map(|_| ElemState::None).collect();
        (c, asm, states)
    }

    /// Modified Newton must (a) actually reuse factorizations across the
    /// iterations and warm-started solves of a transient-like sequence,
    /// (b) factor strictly less often than exact Newton, and (c) land on
    /// the same solution to solver tolerance.
    #[test]
    fn jacobian_reuse_drops_factor_count_and_matches_exact() {
        let (c, asm, states) = mos_test_circuit();
        let n = asm.n_unknowns();

        let run = |reuse: bool| -> (Vec<f64>, u64, u64) {
            let opts = SolverOptions {
                jacobian_reuse: reuse,
                bypass: false,
                instr: Instrumentation::enabled(),
                ..SolverOptions::default()
            };
            let mut x = vec![0.0; n];
            let mut ws = NewtonWorkspace::new(n);
            // Mimic a short transient: repeated warm-started solves at
            // successive times with the same step size.
            for k in 0..6 {
                let t = 1e-9 + k as f64 * 1e-9;
                asm.solve_point_with(&c, t, 1e-9, false, &opts, &mut x, &states, &mut ws)
                    .unwrap();
            }
            let tel = opts.instr.get().unwrap();
            (
                x,
                tel.solver.sparse_refactors.get(),
                tel.solver.jacobian_reuses.get(),
            )
        };

        let (x_exact, factors_exact, reuses_exact) = run(false);
        let (x_fast, factors_fast, reuses_fast) = run(true);
        assert_eq!(reuses_exact, 0);
        assert!(reuses_fast > 0, "fast run never reused a factorization");
        assert!(
            factors_fast < factors_exact,
            "reuse did not reduce factorizations: {factors_fast} vs {factors_exact}"
        );
        for i in 0..n {
            let scale = x_exact[i].abs().max(1.0);
            assert!(
                (x_fast[i] - x_exact[i]).abs() <= 1e-6 * scale,
                "unknown {i}: fast {} vs exact {}",
                x_fast[i],
                x_exact[i]
            );
        }
    }

    /// Device bypass: warm re-solves at an (almost) unchanged operating
    /// point must hit the per-element cache; the cold first solve must
    /// record misses.
    #[test]
    fn bypass_hits_accumulate_across_warm_solves() {
        let (c, asm, states) = mos_test_circuit();
        let n = asm.n_unknowns();
        let opts = SolverOptions {
            jacobian_reuse: false,
            bypass: true,
            instr: Instrumentation::enabled(),
            ..SolverOptions::default()
        };
        let mut x = vec![0.0; n];
        let mut ws = NewtonWorkspace::new(n);
        for k in 0..4 {
            let t = 1e-9 + k as f64 * 1e-9;
            asm.solve_point_with(&c, t, 1e-9, false, &opts, &mut x, &states, &mut ws)
                .unwrap();
        }
        let tel = opts.instr.get().unwrap();
        assert!(
            tel.solver.bypass_misses.get() > 0,
            "no model evaluations recorded"
        );
        assert!(
            tel.solver.bypass_hits.get() > 0,
            "warm re-solves at an unchanged operating point never hit the cache"
        );
    }

    /// Star-of-blocks circuit: `k` two-node branches (series resistors
    /// into a diode + capacitor) hanging off one driven center node —
    /// the bordered-block-diagonal shape, where blocks couple only
    /// through the border (center node and source branch).
    fn star_circuit(k: usize, nonlinear: bool) -> (Circuit, BlockPlan) {
        let mut c = Circuit::new();
        let center = c.node("c");
        c.vsource("V1", center, Circuit::GND, Waveform::dc(1.0));
        for j in 0..k {
            let a = c.node(&format!("a{j}"));
            let b = c.node(&format!("b{j}"));
            c.resistor(&format!("Ra{j}"), center, a, 1e3);
            c.resistor(&format!("Rab{j}"), a, b, 2e3);
            if nonlinear {
                c.diode(&format!("D{j}"), b, Circuit::GND, 1e-14, 1.0);
            } else {
                c.resistor(&format!("Rb{j}"), b, Circuit::GND, 3e3);
            }
            c.capacitor(&format!("Cb{j}"), b, Circuit::GND, 1e-12);
        }
        let mut plan = BlockPlan::for_circuit(&c);
        for j in 0..k {
            plan.assign_node_name(&c, &format!("a{j}"), j).unwrap();
            plan.assign_node_name(&c, &format!("b{j}"), j).unwrap();
        }
        (c, plan)
    }

    /// The BBD backend must track the sparse one exactly: same Newton
    /// iteration counts (same Jacobian, only factored block-wise) and
    /// solutions within 1e-9, in both stamping modes — and the workspace
    /// must report the expected partition (k blocks, center + source
    /// branch border, one shared pattern class).
    #[test]
    fn bbd_backend_matches_sparse_newton() {
        let k = 5;
        let (c, plan) = star_circuit(k, true);
        let asm = Assembly::new(&c);
        let states: Vec<ElemState> = c.elements().iter().map(|_| ElemState::None).collect();
        let n = asm.n_unknowns();

        for (dc, t, h) in [(true, 0.0, 0.0), (false, 1e-9, 1e-9)] {
            let sparse_opts = SolverOptions {
                backend: SolverBackend::Sparse,
                jacobian_reuse: false,
                bypass: false,
                ..SolverOptions::default()
            };
            let bbd_opts = SolverOptions {
                backend: SolverBackend::Bbd,
                block_plan: Some(Arc::new(plan.clone())),
                jacobian_reuse: false,
                bypass: false,
                ..SolverOptions::default()
            };
            let mut xs = vec![0.0; n];
            let mut ws_s = NewtonWorkspace::new(n);
            let it_s = asm
                .solve_point_with(&c, t, h, dc, &sparse_opts, &mut xs, &states, &mut ws_s)
                .unwrap();
            let mut xb = vec![0.0; n];
            let mut ws_b = NewtonWorkspace::new(n);
            let it_b = asm
                .solve_point_with(&c, t, h, dc, &bbd_opts, &mut xb, &states, &mut ws_b)
                .unwrap();
            assert_eq!(it_s, it_b, "newton iteration counts diverged (dc={dc})");
            for i in 0..n {
                let scale = xs[i].abs().max(1.0);
                assert!(
                    (xb[i] - xs[i]).abs() <= 1e-9 * scale,
                    "dc={dc} unknown {i}: bbd {} vs sparse {}",
                    xb[i],
                    xs[i]
                );
            }
            let (blocks, border, classes) = ws_b.bbd_dims(dc).unwrap();
            assert_eq!(blocks, k);
            assert_eq!(border, 2, "border = center node + source branch");
            assert_eq!(
                classes, 1,
                "structurally identical blocks must share one symbolic analysis"
            );
            assert!(ws_b.bbd_dims(!dc).is_none());
        }
    }

    /// `SolverBackend::Bbd` without a block plan is a configuration
    /// error, not a silent fallback.
    #[test]
    fn bbd_without_plan_is_an_error() {
        let (c, _plan) = star_circuit(2, false);
        let asm = Assembly::new(&c);
        let states: Vec<ElemState> = c.elements().iter().map(|_| ElemState::None).collect();
        let mut x = vec![0.0; asm.n_unknowns()];
        let mut ws = NewtonWorkspace::new(asm.n_unknowns());
        let r = asm.solve_point_with(
            &c,
            0.0,
            0.0,
            true,
            &SolverOptions {
                backend: SolverBackend::Bbd,
                ..SolverOptions::default()
            },
            &mut x,
            &states,
            &mut ws,
        );
        assert!(matches!(r, Err(CktError::Netlist(_))));
    }

    /// With a plan attached, `Auto` promotes to BBD past
    /// [`BBD_CROSSOVER`] unknowns and stays sparse below it.
    #[test]
    fn auto_backend_promotes_to_bbd_with_plan() {
        // 1000 blocks of 2 nodes + center + source branch = 2002 >= 2000.
        let big = (BBD_CROSSOVER - 2).div_ceil(2);
        let (c, plan) = star_circuit(big, false);
        let asm = Assembly::new(&c);
        assert!(asm.n_unknowns() >= BBD_CROSSOVER);
        let states: Vec<ElemState> = c.elements().iter().map(|_| ElemState::None).collect();
        let opts = SolverOptions {
            block_plan: Some(Arc::new(plan)),
            ..SolverOptions::default()
        };
        let mut x = vec![0.0; asm.n_unknowns()];
        let mut ws = NewtonWorkspace::new(asm.n_unknowns());
        asm.solve_point_with(&c, 0.0, 0.0, true, &opts, &mut x, &states, &mut ws)
            .unwrap();
        let (blocks, _, classes) = ws.bbd_dims(true).unwrap();
        assert_eq!(blocks, big);
        assert_eq!(classes, 1);
        assert!(ws.sparse_nnz(true).is_none(), "sparse state must not build");

        // Below the crossover the same plan stays on sparse.
        let (c2, plan2) = star_circuit(4, false);
        let asm2 = Assembly::new(&c2);
        assert!(asm2.n_unknowns() < BBD_CROSSOVER);
        let states2: Vec<ElemState> = c2.elements().iter().map(|_| ElemState::None).collect();
        let opts2 = SolverOptions {
            block_plan: Some(Arc::new(plan2)),
            backend: SolverBackend::Auto,
            ..SolverOptions::default()
        };
        let mut x2 = vec![0.0; asm2.n_unknowns()];
        let mut ws2 = NewtonWorkspace::new(asm2.n_unknowns());
        asm2.solve_point_with(&c2, 0.0, 0.0, true, &opts2, &mut x2, &states2, &mut ws2)
            .unwrap();
        assert!(ws2.bbd_dims(true).is_none());
    }

    /// Workspaces sharing an [`AnalysisCache`] run the symbolic analysis
    /// once: the first build analyzes, every later identical build hits
    /// the cache — the invariant pooled sweep workers rely on.
    #[test]
    fn analysis_cache_shares_symbolic_work_across_workspaces() {
        let (c, plan) = star_circuit(3, true);
        let asm = Assembly::new(&c);
        let states: Vec<ElemState> = c.elements().iter().map(|_| ElemState::None).collect();
        let n = asm.n_unknowns();

        for backend in [SolverBackend::Sparse, SolverBackend::Bbd] {
            let opts = SolverOptions {
                backend,
                block_plan: Some(Arc::new(plan.clone())),
                cache: Some(AnalysisCache::new()),
                instr: Instrumentation::enabled(),
                ..SolverOptions::default()
            };
            for _worker in 0..3 {
                let mut x = vec![0.0; n];
                let mut ws = NewtonWorkspace::new(n);
                asm.solve_point_with(&c, 0.0, 0.0, true, &opts, &mut x, &states, &mut ws)
                    .unwrap();
            }
            let tel = opts.instr.get().unwrap();
            let analyses = if backend == SolverBackend::Sparse {
                tel.solver.sparse_symbolic_analyses.get()
            } else {
                // BBD counts distinct block-pattern classes instead.
                u64::from(tel.solver.bbd_pattern_classes.get() > 0)
            };
            assert_eq!(analyses, 1, "{backend:?}: symbolic analysis must run once");
            assert_eq!(
                tel.solver.analysis_cache_hits.get(),
                2,
                "{backend:?}: workers 2 and 3 must hit the cache"
            );
        }
    }

    /// Changing the timestep invalidates the stored factorization's key:
    /// the next solve must factor again instead of riding Jacobian
    /// factors scaled for the old `h`.
    #[test]
    fn step_size_change_forces_refactor() {
        let (c, asm, states) = mos_test_circuit();
        let n = asm.n_unknowns();
        let opts = SolverOptions {
            instr: Instrumentation::enabled(),
            ..SolverOptions::default()
        };
        let mut x = vec![0.0; n];
        let mut ws = NewtonWorkspace::new(n);
        asm.solve_point_with(&c, 1e-9, 1e-9, false, &opts, &mut x, &states, &mut ws)
            .unwrap();
        let tel = opts.instr.get().unwrap();
        let factors_before = tel.solver.sparse_refactors.get();
        assert!(factors_before > 0);
        asm.solve_point_with(&c, 1.5e-9, 0.5e-9, false, &opts, &mut x, &states, &mut ws)
            .unwrap();
        assert!(
            tel.solver.sparse_refactors.get() > factors_before,
            "h change did not trigger a refactor"
        );
    }
}

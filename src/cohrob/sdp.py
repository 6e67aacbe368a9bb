"""Self-contained dense semidefinite programming engine.

Solves   min  sum_b <C_b, X_b>
         s.t. sum_b <A_ib, X_b> = rhs_i   (i = 1..m)
              X_b in PSD cone or nonnegative orthant, per block

by a primal-dual path-following method with Nesterov-Todd scaling and a
Mehrotra predictor-corrector step.

The engine is deliberately small: one input form (stacked constraint
arrays), dense linear algebra, one Cholesky-with-jitter routine for the NT
blocks and the Schur complement, and no infeasibility certificates (every
problem built by this package is constructed feasible).

The interior-point loop is dtype-generic: it writes conjugate transposes,
takes the real part of trace inner products and reads the jitter scale from
the real diagonal, so one path runs complex Hermitian or real symmetric
blocks.  The representation, the constraint map A, its adjoint and the Schur
complement M = A(W A^T(.) W) come from one of two row forms, chosen from the
data at build time.  The unit-diagonal form, one PSD block of size d whose d
rows are E_jj (the robustness program's diag(Y) = 1), keeps the d x d block
complex, reads and writes diagonals and assembles M = |W| o |W| in O(d^2)
(the max-cut structure of Helmberg, Rendl, Vanderbei and Wolkowicz, SIAM J.
Optim. 6, 1996).  Every other problem uses the stacked rows on the realified
image: complex Hermitian blocks become real symmetric blocks of twice the
size, and the factor-2 value inflation this introduces is divided out when
the solution is extracted.  NT scaling, step lengths, the stopping tests and
the update are one path for both.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .linalg import HERMITICITY_TOL

PSD = "psd"
NONNEG = "nonneg"


class SolveStatus(str, Enum):
    OPTIMAL = "optimal"
    MAX_ITER = "max_iter"
    NUMERICAL_FAILURE = "numerical_failure"


class SolverError(RuntimeError):
    """Raised by solve_or_raise when a solve does not reach OPTIMAL."""


# -- realification -------------------------------------------------------------

def realify(h) -> np.ndarray:
    """Real symmetric image [[A, -B], [B, A]] of a Hermitian matrix A + iB,
    or of each matrix in a stack shaped (..., n, n).

    Eigenvalues are preserved with multiplicity doubled, so positive
    semidefiniteness and traces (up to the factor 2) carry over.
    """
    a = np.asarray(h, dtype=np.complex128)
    n = a.shape[-1]
    out = np.empty(a.shape[:-2] + (2 * n, 2 * n))
    re, im = a.real, a.imag
    out[..., :n, :n] = re
    out[..., n:, n:] = re
    out[..., :n, n:] = -im
    out[..., n:, :n] = im
    return out


def unrealify(m) -> np.ndarray:
    """Hermitian matrix recovered from a real symmetric 2d x 2d block.

    Orthogonally projects onto the image of `realify`, which maps feasible
    points of the realified problem to feasible points of the complex one.
    """
    a = np.asarray(m, dtype=float)
    d = a.shape[0] // 2
    p, r = a[:d, :d], a[d:, d:]
    s = a[:d, d:]
    out = 0.5 * (p + r) + 0.5j * (s.T - s)
    return 0.5 * (out + out.conj().T)


# -- problem container ----------------------------------------------------------

GRAM_RANK_TOL = 1e-8


@dataclass(frozen=True)
class ConicProblem:
    """Standard-form conic problem over PSD and nonnegative blocks.

    blocks: sequence of (kind, size) with kind "psd" (complex Hermitian,
        size d) or "nonneg" (vector, size n).
    cost: per block, a Hermitian (d, d) array or a real (n,) array.
    stacks: per block, the m constraint coefficients stacked along axis 0,
        shaped (m, d, d) complex or (m, n) real.
    rhs: real vector, one entry per constraint.
    unit_diagonal: derived from the data, never passed: the only block is PSD
        of size m and row j is E_jj, so the solver takes the unit-diagonal
        row form.
    """

    blocks: tuple
    cost: tuple
    stacks: tuple
    rhs: np.ndarray
    unit_diagonal: bool = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "unit_diagonal", _selects_diagonal(self.blocks, self.stacks))

    @staticmethod
    def build(blocks, cost, rhs, stacks) -> "ConicProblem":
        """Assemble and check a problem.

        Every build checks the shapes, that PSD cost and constraint data are
        Hermitian within HERMITICITY_TOL, and that the constraints are
        linearly independent.  The data are stored as given, not
        symmetrized, so the solver sees exactly the caller's arrays.
        """
        blocks = tuple((str(k), int(n)) for k, n in blocks)
        if not blocks:
            raise ValueError("at least one block is required")
        for k, n in blocks:
            if k not in (PSD, NONNEG):
                raise ValueError(f"unknown block kind {k!r}")
            if n < 1:
                raise ValueError("block sizes must be positive")
        rhs = np.asarray(rhs, dtype=float).reshape(-1)
        m = rhs.size
        if m < 1:
            raise ValueError("at least one constraint is required")

        costs, checked = [], []
        for c, st, (k, n) in zip(cost, stacks, blocks, strict=True):
            if k == PSD:
                c = np.asarray(c, dtype=np.complex128)
                st = np.asarray(st, dtype=np.complex128)
                if c.shape != (n, n) or st.shape != (m, n, n):
                    raise ValueError("block data shape mismatch")
                for what, a in (("cost", c), ("constraint", st)):
                    dev = float(np.max(np.abs(a - np.swapaxes(a, -1, -2).conj())))
                    if dev > HERMITICITY_TOL:
                        raise ValueError(f"{what} data not Hermitian: {dev:.3e}")
            else:
                c = np.asarray(c, dtype=float).reshape(-1)
                st = np.asarray(st, dtype=float)
                if c.shape != (n,) or st.shape != (m, n):
                    raise ValueError("block data shape mismatch")
            costs.append(c)
            checked.append(st)
        problem = ConicProblem(blocks=blocks, cost=tuple(costs), stacks=tuple(checked), rhs=rhs)
        problem._check_independent()
        return problem

    def _check_independent(self):
        m = self.rhs.size
        gram = np.zeros((m, m))
        for (kind, _), st in zip(self.blocks, self.stacks):
            f = st.reshape(m, -1)
            if kind == PSD:
                gram += (f @ f.conj().T).real
            else:
                gram += f @ f.T
        # cheap sufficient test first: lambda_min > tol * trace >= tol * lambda_max
        thr = GRAM_RANK_TOL * max(float(np.trace(gram)), 1e-300)
        try:
            np.linalg.cholesky(gram - thr * np.eye(m))
            return
        except np.linalg.LinAlgError:
            pass
        w = np.linalg.eigvalsh(gram)
        top = max(float(w[-1]), 1e-300)
        rank = int(np.sum(w > GRAM_RANK_TOL * top))
        if rank < m:
            raise ValueError(f"constraints are linearly dependent (rank {rank} < {m})")


def _selects_diagonal(blocks, stacks) -> bool:
    """True when the only block is PSD of size d and its d rows are E_jj."""
    if len(blocks) != 1 or blocks[0][0] != PSD:
        return False
    st, d = stacks[0], blocks[0][1]
    if st.shape != (d, d, d):
        return False
    j = np.arange(d)
    return bool(np.all(st[j, j, j] == 1.0) and np.count_nonzero(st) == d)


@dataclass
class SolveOptions:
    tol: float = 1e-8
    max_iter: int = 200
    # optional strictly interior starting point (x blocks, y, s blocks) in the
    # complex convention; identity / zero when None.  A feasible start keeps
    # every iterate feasible, so weak duality holds along the whole path.
    start: tuple | None = None


@dataclass
class ConicSolution:
    status: SolveStatus
    x: list
    y: np.ndarray
    s: list
    primal_value: float
    dual_value: float
    gap: float
    iterations: int
    history: list = field(default_factory=list)


# -- interior-point core -------------------------------------------------------

FRACTION_TO_BOUNDARY = 0.98
# Cholesky jitter ladders, in units of ridge_scale: the largest diagonal entry
# of the matrix, at least 1 for the Schur complement
BLOCK_JITTER = (0.0, 1e-14, 1e-12, 1e-10, 1e-8)
SCHUR_JITTER = (0.0, 1e-12, 1e-10, 1e-8, 1e-6)


def _chol(m, ridge_scale, ladder):
    """Cholesky factor of m + jitter * ridge_scale * I for the first jitter
    of the ladder that factors, or None when none does."""
    for jitter in ladder:
        try:
            return np.linalg.cholesky(m if jitter == 0.0 else m + jitter * ridge_scale * np.eye(m.shape[0]))
        except np.linalg.LinAlgError:
            continue
    return None


def _h(a):
    """Conjugate transpose; a view, and plain .T, on real arrays."""
    return a.conj().T


def _inner(a, b) -> float:
    """Re sum conj(a) b, the trace inner product of two PSD blocks (np.sum's
    order, which real blocks have always used)."""
    return float(np.sum(a.conj() * b).real)


def _nt_scaling(x, s):
    """NT scaling of a PSD block: returns (R, Rinv, W, lam, Lx, Ls) with
    Rinv x Rinv^H = R^H s R = diag(lam), W = R R^H, and Lx, Ls the
    Cholesky factors of x and s.  The step-length tests of the same
    iterate reuse Lx and Ls, so each block is factored once per iterate."""
    lx = _chol(x, max(float(np.max(np.diag(x).real)), 1e-300), BLOCK_JITTER)
    ls = _chol(s, max(float(np.max(np.diag(s).real)), 1e-300), BLOCK_JITTER)
    if lx is None or ls is None:
        return None
    u, lam, vt = np.linalg.svd(_h(ls) @ lx)
    if lam[-1] <= 0.0:
        return None
    inv_sqrt = 1.0 / np.sqrt(lam)
    r = lx @ _h(vt) * inv_sqrt
    rinv = (inv_sqrt[:, None] * _h(u)) @ _h(ls)
    return r, rinv, r @ _h(r), lam, lx, ls


def _max_step_psd(lx, dx):
    z = np.linalg.solve(lx, dx)
    n = np.linalg.solve(lx, _h(z))
    wmin = float(np.linalg.eigvalsh(0.5 * (n + _h(n)))[0])
    if wmin >= -1e-14:
        return np.inf
    return 1.0 / (-wmin)


def _max_step_nonneg(x, dx):
    neg = dx < 0
    if not np.any(neg):
        return np.inf
    return float(np.min(-x[neg] / dx[neg]))


class _StackedRows:
    """The realified image of every block: PSD data and iterates are real
    symmetric of twice the size, and the cost, the rhs and the nonneg slack
    carry the same factor 2, which `half` divides out of the objective."""

    half = 0.5

    def __init__(self, problem: ConicProblem):
        self.m = problem.rhs.size
        self.kinds = [k for k, _ in problem.blocks]
        self.dtype = float
        self.sizes = [2 * n if k == PSD else n for k, n in problem.blocks]
        self.costs = [realify(c) if k == PSD else 2.0 * c
                      for k, c in zip(self.kinds, problem.cost)]
        self.rhs = 2.0 * problem.rhs
        self.stacks = [realify(st) if k == PSD else 2.0 * st
                       for k, st in zip(self.kinds, problem.stacks)]
        self.flats = [a.reshape(self.m, -1) for a in self.stacks]

    def enter(self, x0, s0):
        """Iterates from a start point in the complex convention."""
        xs = [realify(v) if k == PSD else np.asarray(v, dtype=float).copy()
              for k, v in zip(self.kinds, x0)]
        ss = [realify(v) if k == PSD else 2.0 * np.asarray(v, dtype=float)
              for k, v in zip(self.kinds, s0)]
        return xs, ss

    def leave(self, xs, ss):
        """The complex convention's x and s blocks from the iterates."""
        x_out = [unrealify(x) if k == PSD else x.copy() for k, x in zip(self.kinds, xs)]
        s_out = [unrealify(s) if k == PSD else 0.5 * s for k, s in zip(self.kinds, ss)]
        return x_out, s_out

    def apply(self, vals):
        out = np.zeros(self.m)
        for f, v in zip(self.flats, vals):
            out += f @ v.reshape(-1)
        return out

    def adjoint(self, vec):
        return [
            np.tensordot(vec, a, axes=1) if k == PSD else vec @ a
            for k, a in zip(self.kinds, self.stacks)
        ]

    def schur(self, ws):
        """M = A(W A^T(.) W) for the per-block NT matrices ws."""
        m = self.m
        schur = np.zeros((m, m))
        for k, a, f, w in zip(self.kinds, self.stacks, self.flats, ws):
            if k == PSD:
                t = np.matmul(np.matmul(w[None], a), w[None])
                schur += f @ t.reshape(m, -1).T
            else:
                schur += (a * (w * w)) @ a.T
        return schur

    def add_scaled(self, vec, ws, rds):
        """vec += A(W R W), block by block, in place."""
        for k, f, w, rd in zip(self.kinds, self.flats, ws, rds):
            if k == PSD:
                vec += f @ (w @ rd @ w).reshape(-1)
            else:
                vec += f @ (w * w * rd)


class _UnitDiagonalRows:
    """Rows E_jj on one complex Hermitian PSD block of size d, kept complex:
    A(X) = Re diag X, A^T y = diag y, and M_ij = <E_ii, W E_jj W> =
    W_ij W_ji = |W_ij|^2, so M = |W| o |W|.  No factor 2 enters."""

    half = 1.0

    def __init__(self, problem: ConicProblem):
        self.dtype = np.complex128
        self.sizes = [problem.blocks[0][1]]
        self.costs = list(problem.cost)
        self.rhs = problem.rhs

    def enter(self, x0, s0):
        return ([np.array(x0[0], dtype=np.complex128)],
                [np.array(s0[0], dtype=np.complex128)])

    def leave(self, xs, ss):
        return xs, ss

    def apply(self, vals):
        return np.diag(vals[0]).real

    def adjoint(self, vec):
        return [np.diag(vec)]

    def schur(self, ws):
        w = ws[0]
        return w.real * w.real + w.imag * w.imag

    def add_scaled(self, vec, ws, rds):
        """vec += Re diag(W R W), which needs only the diagonal of W R W."""
        w = ws[0]
        vec += np.einsum("ij,ji->i", w @ rds[0], w).real


def solve(problem: ConicProblem, options: SolveOptions | None = None) -> ConicSolution:
    opts = options or SolveOptions()
    kinds = [k for k, _ in problem.blocks]
    m = problem.rhs.size
    rows = _UnitDiagonalRows(problem) if problem.unit_diagonal else _StackedRows(problem)
    costs, sizes, rhs, half = rows.costs, rows.sizes, rows.rhs, rows.half
    nu = float(sum(sizes))
    cnorm = np.sqrt(sum(_inner(c, c) for c in costs))
    bnorm = float(np.linalg.norm(rhs))

    if opts.start is None:
        xs = [np.eye(n, dtype=rows.dtype) if k == PSD else np.ones(n) for k, n in zip(kinds, sizes)]
        ss = [np.eye(n, dtype=rows.dtype) if k == PSD else np.ones(n) for k, n in zip(kinds, sizes)]
        y = np.zeros(m)
    else:
        x0, y0, s0 = opts.start
        xs, ss = rows.enter(x0, s0)
        y = np.asarray(y0, dtype=float).copy()

    history = []
    status = SolveStatus.MAX_ITER
    it = 0
    for it in range(opts.max_iter + 1):
        pobj = sum(_inner(c, x) for c, x in zip(costs, xs))
        dobj = float(rhs @ y)
        rp = rhs - rows.apply(xs)
        aty = rows.adjoint(y)
        rds = [c - at - s for c, at, s in zip(costs, aty, ss)]
        compl = sum(
            _inner(x, s) if k == PSD else float(x @ s)
            for k, x, s in zip(kinds, xs, ss)
        )
        mu = compl / nu

        p_ext, d_ext = half * pobj, half * dobj
        gap_rel = abs(p_ext - d_ext) / (1.0 + abs(p_ext))
        rp_rel = float(np.linalg.norm(rp)) / (1.0 + bnorm)
        rd_rel = np.sqrt(sum(_inner(r, r) for r in rds)) / (1.0 + cnorm)
        compl_rel = half * compl / (1.0 + abs(p_ext))
        history.append({"iteration": it, "primal": p_ext, "dual": d_ext, "gap": gap_rel})

        if rp_rel <= opts.tol and rd_rel <= opts.tol and gap_rel <= opts.tol and compl_rel <= opts.tol:
            status = SolveStatus.OPTIMAL
            break
        if it == opts.max_iter:
            status = SolveStatus.MAX_ITER
            break

        # NT scalings
        scal = []
        ok = True
        for k, x, s in zip(kinds, xs, ss):
            if k == PSD:
                nt = _nt_scaling(x, s)
                if nt is None:
                    ok = False
                    break
                scal.append(nt)
            else:
                scal.append((None, None, np.sqrt(x / s), np.sqrt(x * s), None, None))
        if not ok:
            status = SolveStatus.NUMERICAL_FAILURE
            break

        ws = [sc[2] for sc in scal]
        schur = rows.schur(ws)
        lm = _chol(schur, max(1.0, float(np.max(np.diag(schur)))), SCHUR_JITTER)
        if lm is None:
            status = SolveStatus.NUMERICAL_FAILURE
            break

        def newton(sigma_mu, corr):
            ks = []
            for k, x, s, sc, e in zip(kinds, xs, ss, scal, corr):
                if k == PSD:
                    r, lam = sc[0], sc[3]
                    rhs_sym = -np.diag(lam * lam)
                    if sigma_mu:
                        rhs_sym = rhs_sym + sigma_mu * np.eye(lam.size)
                    if e is not None:
                        rhs_sym = rhs_sym - e
                    g = rhs_sym * (2.0 / np.add.outer(lam, lam))
                    ks.append(r @ g @ _h(r))
                else:
                    num = sigma_mu - x * s
                    if e is not None:
                        num = num - e
                    ks.append(num / s)
            vec = rp - rows.apply(ks)
            rows.add_scaled(vec, ws, rds)
            dy = np.linalg.solve(lm.T, np.linalg.solve(lm, vec))
            atdy = rows.adjoint(dy)
            dss, dxs = [], []
            for k, sc, rd, at, kk in zip(kinds, scal, rds, atdy, ks):
                ds = rd - at
                if k == PSD:
                    w = sc[2]
                    dx = kk - w @ ds @ w
                    dx = 0.5 * (dx + _h(dx))
                    ds = 0.5 * (ds + _h(ds))
                else:
                    dx = kk - sc[2] ** 2 * ds
                dss.append(ds)
                dxs.append(dx)
            return dxs, dy, dss

        def max_steps(dxs, dss):
            ap = ad = np.inf
            for k, x, s, sc, dx, ds in zip(kinds, xs, ss, scal, dxs, dss):
                if k == PSD:
                    ap = min(ap, _max_step_psd(sc[4], dx))
                    ad = min(ad, _max_step_psd(sc[5], ds))
                else:
                    ap = min(ap, _max_step_nonneg(x, dx))
                    ad = min(ad, _max_step_nonneg(s, ds))
            return ap, ad

        none_corr = [None] * len(kinds)
        dxa, dya, dsa = newton(0.0, none_corr)
        ap_aff, ad_aff = max_steps(dxa, dsa)
        ap_aff, ad_aff = min(1.0, ap_aff), min(1.0, ad_aff)
        compl_aff = 0.0
        for k, x, s, dx, ds in zip(kinds, xs, ss, dxa, dsa):
            xa, sa = x + ap_aff * dx, s + ad_aff * ds
            compl_aff += _inner(xa, sa) if k == PSD else float(xa @ sa)
        sigma = float(np.clip((max(compl_aff, 0.0) / nu / mu) ** 3, 0.0, 1.0)) if mu > 0 else 0.0

        corr = []
        for k, sc, dx, ds in zip(kinds, scal, dxa, dsa):
            if k == PSD:
                r, rinv = sc[0], sc[1]
                dxh = rinv @ dx @ _h(rinv)
                dsh = _h(r) @ ds @ r
                corr.append(0.5 * (dxh @ dsh + dsh @ dxh))
            else:
                corr.append(dx * ds)
        dxs, dy, dss = newton(sigma * mu, corr)
        ap, ad = max_steps(dxs, dss)
        ap = min(1.0, FRACTION_TO_BOUNDARY * ap)
        ad = min(1.0, FRACTION_TO_BOUNDARY * ad)
        if max(ap, ad) < 1e-14:
            status = SolveStatus.NUMERICAL_FAILURE
            break
        for bi, k in enumerate(kinds):
            xs[bi] = xs[bi] + ap * dxs[bi]
            ss[bi] = ss[bi] + ad * dss[bi]
            if k == PSD:
                xs[bi] = 0.5 * (xs[bi] + _h(xs[bi]))
                ss[bi] = 0.5 * (ss[bi] + _h(ss[bi]))
        y = y + ad * dy

    x_out, s_out = rows.leave(xs, ss)
    pobj = half * sum(_inner(c, x) for c, x in zip(costs, xs))
    dobj = half * float(rhs @ y)
    return ConicSolution(
        status=status,
        x=x_out,
        y=y.copy(),
        s=s_out,
        primal_value=pobj,
        dual_value=dobj,
        gap=abs(pobj - dobj) / (1.0 + abs(pobj)),
        iterations=it,
        history=history,
    )


def solve_or_raise(problem: ConicProblem, options: SolveOptions | None = None) -> ConicSolution:
    sol = solve(problem, options)
    if sol.status is not SolveStatus.OPTIMAL:
        raise SolverError(f"solve ended with status {sol.status.value}")
    return sol


# -- Hermitian coordinate helpers -----------------------------------------------

@lru_cache(maxsize=32)
def hermitian_basis(d: int) -> np.ndarray:
    """Stack of d^2 Hermitian matrices spanning entrywise equality constraints.

    Order: E_jj for each j, then for each pair k < l the real-part matrix
    (E_kl + E_lk) and the imaginary-part matrix i(E_kl - E_lk).
    """
    out = np.zeros((d * d, d, d), dtype=np.complex128)  # filled in place: one copy
    diag = np.arange(d)
    out[diag, diag, diag] = 1.0
    k, l = np.triu_indices(d, 1)
    re = d + 2 * np.arange(k.size)
    out[re, k, l] = 1.0
    out[re, l, k] = 1.0
    out[re + 1, k, l] = 1.0j
    out[re + 1, l, k] = -1.0j
    out.setflags(write=False)
    return out


def entry_coords(mat) -> np.ndarray:
    """Coordinates b with <basis_i, M> = b_i for the hermitian_basis order."""
    a = np.asarray(mat, dtype=np.complex128)
    d = a.shape[0]
    out = np.empty(d * d)
    out[:d] = np.diag(a).real
    idx = d
    for k in range(d):
        for l in range(k + 1, d):
            out[idx] = 2.0 * a[k, l].real
            out[idx + 1] = 2.0 * a[k, l].imag
            idx += 2
    return out


def hermitian_from_coords(y, d: int) -> np.ndarray:
    """Hermitian matrix sum_i y_i basis_i (inverse map used for dual reads)."""
    y = np.asarray(y, dtype=float)
    return np.tensordot(y, hermitian_basis(d), axes=1)

"""Self-contained dense semidefinite programming engine.

Solves   min  sum_b <C_b, X_b>
         s.t. sum_b <A_ib, X_b> = rhs_i   (i = 1..m)
              X_b in PSD cone or nonnegative orthant, per block

by a primal-dual path-following method with Nesterov-Todd scaling and a
Mehrotra predictor-corrector step.

The engine is deliberately small: one input form (stacked constraint
arrays), dense linear algebra, one Cholesky-with-jitter routine for the NT
blocks and the Schur complement, and no infeasibility certificates or rank
test (every problem built by this package is constructed feasible, with
linearly independent rows: the data programs pose only the observable rows
that witness._least_squares keeps).

A problem lists its PSD blocks first, then its nonnegative blocks.  The PSD
blocks have one size and are kept as one (k, n, n) stack, so each iterate
makes one batched call per kernel (Cholesky, SVD, solve, eigvalsh, matmul)
for every block; the nonnegative blocks stay a short per-block list.
numpy's batched kernels give each matrix the bits of a call on that matrix
alone, and every reduction over blocks is one left-to-right sum, the PSD
values then the nonnegative ones, which is the problem's block order, so a
solve's arithmetic does not depend on the batching.

The interior-point loop is dtype-generic: it writes conjugate transposes,
takes the real part of trace inner products and reads the jitter scale from
the real diagonal, so one path runs complex Hermitian or real symmetric
blocks.  The representation, the constraint map A, its adjoint and the Schur
complement M = A(W A^T(.) W) come from one of two row forms, set by the
builder.  The unit-diagonal form (ConicProblem.build_unit_diagonal: the
robustness program's diag(Y) = 1, its d rows E_jj implicit) keeps the d x d
block complex as a stack of one, reads and writes diagonals and assembles
M = |W| o |W| in O(d^2) (the max-cut structure of Helmberg, Rendl,
Vanderbei and Wolkowicz, SIAM J. Optim. 6, 1996).  ConicProblem.build poses
the stacked rows on the realified image: complex Hermitian blocks become
real symmetric blocks of twice the size, and the factor-2 value inflation
this introduces is divided out when the solution is extracted.  When every
PSD block has the same constraint stack (the measurement program's), it is
realified and applied once for all blocks.  NT scaling, step lengths, the
stopping tests and the update are one path for both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import count

import numpy as np

from .linalg import HERMITICITY_TOL

PSD = "psd"
NONNEG = "nonneg"


class SolveStatus(str, Enum):
    OPTIMAL = "optimal"
    MAX_ITER = "max_iter"
    NUMERICAL_FAILURE = "numerical_failure"


class SolverError(RuntimeError):
    """Raised when a solve does not reach OPTIMAL or its answer fails a check.

    solution: the ConicSolution that solve_or_raise refused (its best
    iterate), for callers that check it themselves; None otherwise.
    """

    def __init__(self, message: str, solution=None):
        super().__init__(message)
        self.solution = solution


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

@dataclass(frozen=True)
class ConicProblem:
    """Standard-form conic problem over PSD and nonnegative blocks.

    blocks: sequence of (kind, size) with kind "psd" (complex Hermitian,
        size d) or "nonneg" (vector, size n), every PSD block first.
    cost: per block, a Hermitian (d, d) array or a real (n,) array.
    stacks: per block, the m constraint coefficients stacked along axis 0,
        shaped (m, d, d) complex or (m, n) real; none when unit_diagonal.
    rhs: real vector, one entry per constraint.
    unit_diagonal: set by build_unit_diagonal only: the rows are implicit and
        the solver takes the unit-diagonal row form.
    shared_stack: derived from the data, never passed: every PSD block has
        the same constraint stack, which the solver then holds once.
    """

    blocks: tuple
    cost: tuple
    stacks: tuple
    rhs: np.ndarray
    unit_diagonal: bool = False
    shared_stack: bool = field(init=False, repr=False)

    def __post_init__(self):
        psd = [st for (k, _), st in zip(self.blocks, self.stacks) if k == PSD]
        object.__setattr__(self, "shared_stack", all(np.array_equal(st, psd[0]) for st in psd[1:]))

    @staticmethod
    def build(blocks, cost, rhs, stacks) -> "ConicProblem":
        """Assemble and check a problem.

        Every build checks the shapes, that the PSD blocks come first and all
        have one size (the solver keeps them as one stack), that the data are
        finite, and PSD cost and constraint data Hermitian within
        HERMITICITY_TOL.  The rows' independence is the caller's to ensure.
        The data are stored as given, not symmetrized, so the solver sees
        exactly the caller's arrays, in the stacked row form.
        """
        blocks = tuple((str(k), int(n)) for k, n in blocks)
        if not blocks:
            raise ValueError("at least one block is required")
        for k, n in blocks:
            if k not in (PSD, NONNEG):
                raise ValueError(f"unknown block kind {k!r}")
            if n < 1:
                raise ValueError("block sizes must be positive")
        if any(k == NONNEG and nxt == PSD for (k, _), (nxt, _) in zip(blocks, blocks[1:])):
            raise ValueError("PSD blocks must come before the nonneg blocks")
        if len({n for k, n in blocks if k == PSD}) > 1:
            raise ValueError("PSD blocks must all have the same size")
        rhs = np.asarray(rhs, dtype=float).reshape(-1)
        m = rhs.size
        if m < 1:
            raise ValueError("at least one constraint is required")
        if not np.isfinite(rhs).all():
            raise ValueError("rhs data not finite")

        costs, checked = [], []
        for c, st, (k, n) in zip(cost, stacks, blocks, strict=True):
            if k == PSD:
                c = np.asarray(c, dtype=np.complex128)
                st = np.asarray(st, dtype=np.complex128)
                if c.shape != (n, n) or st.shape != (m, n, n):
                    raise ValueError("block data shape mismatch")
                _check_hermitian("cost", c)
                _check_hermitian("constraint", st)
            else:
                c = np.asarray(c, dtype=float).reshape(-1)
                st = np.asarray(st, dtype=float)
                if c.shape != (n,) or st.shape != (m, n):
                    raise ValueError("block data shape mismatch")
                if not (np.isfinite(c).all() and np.isfinite(st).all()):
                    raise ValueError("nonneg block data not finite")
            costs.append(c)
            checked.append(st)
        return ConicProblem(blocks=blocks, cost=tuple(costs), stacks=tuple(checked), rhs=rhs)

    @staticmethod
    def build_unit_diagonal(cost) -> "ConicProblem":
        """min <cost, Y> over Y >= 0 with diag(Y) = 1, its d rows E_jj implicit
        (no stack is held); the cost is checked as build checks PSD data."""
        c = np.asarray(cost, dtype=np.complex128)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError(f"cost must be a square matrix, got shape {c.shape}")
        _check_hermitian("cost", c)
        return ConicProblem(((PSD, len(c)),), (c,), (), np.ones(len(c)), unit_diagonal=True)


def _check_hermitian(what, a):
    """Raise unless a, a matrix or a stack, is finite and Hermitian within
    HERMITICITY_TOL."""
    if not np.isfinite(a).all():
        raise ValueError(f"{what} data not finite")
    dev = float(np.max(np.abs(a - np.swapaxes(a, -1, -2).conj())))
    if dev > HERMITICITY_TOL:
        raise ValueError(f"{what} data not Hermitian: {dev:.3e}")


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


def _chol(a, floor, ladder):
    """Cholesky factors of a stack of matrices shaped (k, n, n), or None.

    The whole stack is factored unjittered first.  When a matrix does not
    factor, each matrix takes the first jitter of the ladder at which
    a + jitter * ridge_scale * I factors, ridge_scale being its largest
    diagonal entry and at least floor, exactly as if factored alone; None
    when some matrix factors at no jitter of the ladder.  A stack of one
    has just failed unjittered, so its ladder starts at the second rung.
    """
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    if len(a) == 1:
        ladder = ladder[1:]
    out = np.empty_like(a)
    for b, blk in enumerate(a):
        ridge_scale = max(float(np.max(np.diag(blk).real)), floor)
        for jitter in ladder:
            try:
                out[b] = np.linalg.cholesky(
                    blk if jitter == 0.0 else blk + jitter * ridge_scale * np.eye(blk.shape[0]))
                break
            except np.linalg.LinAlgError:
                continue
        else:
            return None
    return out


def _h(a):
    """Conjugate transpose of each matrix of a stack; a view on real arrays."""
    return a.conj().swapaxes(-1, -2)


def _inner(a, b) -> float:
    """Re sum conj(a) b, the inner product of two nonneg blocks."""
    return float(np.sum(a.conj() * b).real)


def _inners(a, b) -> list:
    """Trace inner products Re sum conj(a_k) b_k of two PSD stacks, one per
    block, each summed in the order np.sum takes on the block alone."""
    return (a.conj() * b).sum(axis=(1, 2)).real.tolist()


def _diag_stack(v):
    """Stack of diagonal matrices with diagonals v shaped (k, n)."""
    out = np.zeros(v.shape + v.shape[-1:], dtype=v.dtype)
    j = np.arange(v.shape[-1])
    out[:, j, j] = v
    return out


def _nt_scaling(x, s):
    """NT scaling of a stack of PSD blocks: returns (R, Rinv, W, lam, L),
    stacked per block, with Rinv x Rinv^H = R^H s R = diag(lam), W = R R^H,
    and L the Cholesky factors of x followed by those of s; None when a
    block does not factor.  The step-length tests of the same iterate reuse
    L, so each block is factored once per iterate."""
    lx = _chol(x, 1e-300, BLOCK_JITTER)
    ls = _chol(s, 1e-300, BLOCK_JITTER)
    if lx is None or ls is None:
        return None
    u, lam, vt = np.linalg.svd(_h(ls) @ lx)
    if np.any(lam[:, -1:] <= 0.0):
        return None
    inv_sqrt = 1.0 / np.sqrt(lam)
    r = lx @ _h(vt) * inv_sqrt[:, None, :]
    rinv = (inv_sqrt[:, :, None] * _h(u)) @ _h(ls)
    return r, rinv, r @ _h(r), lam, np.concatenate([lx, ls])


def _max_step_psd(l, d) -> list | None:
    """Per block, the largest step t with L L^H + t d PSD, for the Cholesky
    factors l of the blocks' iterate; inf where no step is limited.  None
    when LAPACK does not converge or an eigenvalue is not finite, as for a
    direction with an inf or nan entry."""
    try:
        z = np.linalg.solve(l, d)
        n = np.linalg.solve(l, _h(z))
        wmin = np.linalg.eigvalsh(0.5 * (n + _h(n)))[:, :1].ravel().tolist()
    except np.linalg.LinAlgError:
        return None
    if not all(map(math.isfinite, wmin)):
        return None
    return [np.inf if w >= -1e-14 else 1.0 / (-w) for w in wmin]


def _max_step_nonneg(x, dx):
    neg = dx < 0
    if not np.any(neg):
        return np.inf
    return float(np.min(-x[neg] / dx[neg]))


class _StackedRows:
    """The realified image of every block: PSD data and iterates are real
    symmetric of twice the size, and the cost, the rhs and the nonneg slack
    carry the same factor 2, which `half` divides out of the objective.

    The PSD constraint stacks are held as one array shaped (k, m, n, n), with
    k = 1 when every PSD block has the same stack (`shared_stack`): that
    stack is realified once and broadcast, so A^T y is formed once."""

    half = 0.5

    def __init__(self, problem: ConicProblem):
        self.m = m = problem.rhs.size
        self.dtype = float
        self.k = k = sum(kind == PSD for kind, _ in problem.blocks)
        d = problem.blocks[0][1] if k else 0
        self.n = 2 * d
        self.cost = realify(np.reshape(problem.cost[:k], (k, d, d)))
        kept = min(k, 1) if problem.shared_stack else k
        self.stack = realify(np.reshape(problem.stacks[:kept], (kept, m, d, d)))
        self.flats = self.stack.reshape(kept, m, self.n * self.n)
        self.nn_costs = [2.0 * c for c in problem.cost[k:]]
        self.nn_stacks = [2.0 * st for st in problem.stacks[k:]]
        self.rhs = 2.0 * problem.rhs

    def enter(self, x0, s0):
        """Iterates (x, x_nonneg, s, s_nonneg) from a start point in the
        complex convention."""
        k, d = self.k, self.n // 2
        return (realify(np.reshape(x0[:k], (k, d, d))),
                [np.asarray(v, dtype=float).copy() for v in x0[k:]],
                realify(np.reshape(s0[:k], (k, d, d))),
                [2.0 * np.asarray(v, dtype=float) for v in s0[k:]])

    def leave(self, x, xn, s, sn):
        """The complex convention's x and s blocks, in block order."""
        return ([unrealify(b) for b in x] + [v.copy() for v in xn],
                [unrealify(b) for b in s] + [0.5 * v for v in sn])

    def apply(self, x, xn):
        psd = (self.flats @ x.reshape(len(x), self.n * self.n, 1))[:, :, 0]
        return sum([*psd, *(f @ v for f, v in zip(self.nn_stacks, xn))], np.zeros(self.m))

    def adjoint(self, vec):
        """A^T vec: a stack broadcasting over the PSD blocks, and the nonneg list."""
        psd = (vec @ self.flats).reshape(len(self.flats), self.n, self.n)
        return psd, [vec @ a for a in self.nn_stacks]

    def schur(self, w, wn):
        """M = A(W A^T(.) W) for the NT matrices w (stacked) and wn (nonneg)."""
        m = self.m
        t = w[:, None] @ self.stack @ w[:, None]
        psd = self.flats @ t.reshape(len(w), m, self.n * self.n).swapaxes(1, 2)
        nonneg = ((a * (v * v)) @ a.T for a, v in zip(self.nn_stacks, wn))
        return sum([*psd, *nonneg], np.zeros((m, m)))

    def add_scaled(self, vec, w, rd, wn, rdn):
        """vec += A(W R W), block by block, in place."""
        t = w @ rd @ w
        psd = (self.flats @ t.reshape(len(t), self.n * self.n, 1))[:, :, 0]
        for part in [*psd, *(f @ (v * v * r) for f, v, r in zip(self.nn_stacks, wn, rdn))]:
            vec += part


class _UnitDiagonalRows:
    """Rows E_jj on one complex Hermitian PSD block of size d, kept complex as
    a stack of one: A(X) = Re diag X, A^T y = diag y, and M_ij =
    <E_ii, W E_jj W> = W_ij W_ji = |W_ij|^2, so M = |W| o |W|.  No factor 2
    enters."""

    half = 1.0

    def __init__(self, problem: ConicProblem):
        self.dtype = np.complex128
        self.n = problem.blocks[0][1]
        self.cost = problem.cost[0][None]
        self.nn_costs = []
        self.rhs = problem.rhs

    def enter(self, x0, s0):
        return (np.array(x0[0], dtype=np.complex128)[None], [],
                np.array(s0[0], dtype=np.complex128)[None], [])

    def leave(self, x, xn, s, sn):
        return [x[0]], [s[0]]

    def apply(self, x, xn):
        return np.diag(x[0]).real

    def adjoint(self, vec):
        return np.diag(vec)[None], []

    def schur(self, w, wn):
        w = w[0]
        return w.real * w.real + w.imag * w.imag

    def add_scaled(self, vec, w, rd, wn, rdn):
        """vec += Re diag(W R W), which needs only the diagonal of W R W."""
        vec += np.einsum("ij,ji->i", w[0] @ rd[0], w[0]).real


def solve(problem: ConicProblem, *, tol: float = 1e-8, max_iter: int = 200,
          start: tuple | None = None) -> ConicSolution:
    """Solve a problem to relative residuals, gap and complementarity <= tol.

    start is an optional strictly interior point (x blocks, y, s blocks) in
    the complex convention; identity / zero when None.  A feasible start keeps
    every iterate feasible, so weak duality holds along the whole path.
    A solve that does not reach OPTIMAL returns, with its status and
    iteration count, the iterate whose largest stopping residual was
    smallest, and that iterate's values; callers check it themselves.
    """
    m = problem.rhs.size
    rows = _UnitDiagonalRows(problem) if problem.unit_diagonal else _StackedRows(problem)
    c, cn, rhs, half, n = rows.cost, rows.nn_costs, rows.rhs, rows.half, rows.n

    nu = float(len(c) * n + sum(v.size for v in cn))
    cnorm = np.sqrt(sum(_inners(c, c) + [_inner(v, v) for v in cn]))
    bnorm = float(np.linalg.norm(rhs))

    if start is None:
        x = np.repeat(np.eye(n, dtype=rows.dtype)[None], len(c), axis=0)
        s = x.copy()
        xn = [np.ones(v.size) for v in cn]
        sn = [np.ones(v.size) for v in cn]
        y = np.zeros(m)
    else:
        x0, y0, s0 = start
        x, xn, s, sn = rows.enter(x0, s0)
        y = np.asarray(y0, dtype=float).copy()

    history = []
    for it in count():
        pobj = sum(_inners(c, x) + [_inner(v, w) for v, w in zip(cn, xn)])
        dobj = float(rhs @ y)
        rp = rhs - rows.apply(x, xn)
        aty, atyn = rows.adjoint(y)
        rd = c - aty - s
        rdn = [v - at - w for v, at, w in zip(cn, atyn, sn)]
        compl = sum(_inners(x, s) + [float(v @ w) for v, w in zip(xn, sn)])
        mu = compl / nu

        p_ext, d_ext = half * pobj, half * dobj
        gap_rel = abs(p_ext - d_ext) / (1.0 + abs(p_ext))
        rp_rel = float(np.linalg.norm(rp)) / (1.0 + bnorm)
        rd_rel = np.sqrt(sum(_inners(rd, rd) + [_inner(v, v) for v in rdn])) / (1.0 + cnorm)
        compl_rel = half * compl / (1.0 + abs(p_ext))
        history.append({"iteration": it, "primal": p_ext, "dual": d_ext, "gap": gap_rel})
        worst = max(rp_rel, rd_rel, gap_rel, compl_rel)
        if it == 0 or worst < best[0]:
            best = (worst, x, xn, s, sn, y, p_ext, d_ext, gap_rel)

        # every exit breaks here or below, before the update: the returned
        # iterate is the one these values were computed from
        if rp_rel <= tol and rd_rel <= tol and gap_rel <= tol and compl_rel <= tol:
            status = SolveStatus.OPTIMAL
            break
        if it >= max_iter:
            status = SolveStatus.MAX_ITER
            break

        nt = _nt_scaling(x, s)
        if nt is None:
            status = SolveStatus.NUMERICAL_FAILURE
            break
        r, rinv, w, lam, lxs = nt
        wn = [np.sqrt(v / u) for v, u in zip(xn, sn)]

        schur = rows.schur(w, wn)
        # an overflowed iterate: numpy factors inf or nan entries into nan
        lm = _chol(schur[None], 1.0, SCHUR_JITTER) if np.isfinite(schur).all() else None
        if lm is None:
            status = SolveStatus.NUMERICAL_FAILURE
            break
        lm = lm[0]

        def newton(sigma_mu, corr, corrn):
            rhs_sym = -_diag_stack(lam * lam)
            if sigma_mu:
                rhs_sym = rhs_sym + sigma_mu * np.eye(n)
            if corr is not None:
                rhs_sym = rhs_sym - corr
            k = r @ (rhs_sym * (2.0 / (lam[:, :, None] + lam[:, None, :]))) @ _h(r)
            kn = []
            for v, u, e in zip(xn, sn, corrn):
                num = sigma_mu - v * u
                if e is not None:
                    num = num - e
                kn.append(num / u)
            vec = rp - rows.apply(k, kn)
            rows.add_scaled(vec, w, rd, wn, rdn)
            dy = np.linalg.solve(lm.T, np.linalg.solve(lm, vec))
            atdy, atdyn = rows.adjoint(dy)
            ds = rd - atdy
            dx = k - w @ ds @ w
            dx = 0.5 * (dx + _h(dx))
            ds = 0.5 * (ds + _h(ds))
            dsn = [v - at for v, at in zip(rdn, atdyn)]
            dxn = [kk - v ** 2 * u for kk, v, u in zip(kn, wn, dsn)]
            return dx, dxn, dy, ds, dsn

        def max_steps(dx, dxn, ds, dsn):
            """(ap, ad), or None when the step-length test breaks down."""
            steps = _max_step_psd(lxs, np.concatenate([dx, ds]))  # x's, then s's
            if steps is None:
                return None
            ap = min([np.inf, *steps[:len(dx)], *map(_max_step_nonneg, xn, dxn)])
            ad = min([np.inf, *steps[len(dx):], *map(_max_step_nonneg, sn, dsn)])
            return ap, ad

        dxa, dxna, _, dsa, dsna = newton(0.0, None, [None] * len(xn))
        steps = max_steps(dxa, dxna, dsa, dsna)
        if steps is None:
            status = SolveStatus.NUMERICAL_FAILURE
            break
        ap_aff, ad_aff = min(1.0, steps[0]), min(1.0, steps[1])
        compl_aff = sum(_inners(x + ap_aff * dxa, s + ad_aff * dsa)
                        + [float((v + ap_aff * dv) @ (u + ad_aff * du))
                           for v, dv, u, du in zip(xn, dxna, sn, dsna)])
        sigma = float(np.clip((max(compl_aff, 0.0) / nu / mu) ** 3, 0.0, 1.0)) if mu > 0 else 0.0

        dxh = rinv @ dxa @ _h(rinv)
        dsh = _h(r) @ dsa @ r
        corr = 0.5 * (dxh @ dsh + dsh @ dxh)
        dx, dxn, dy, ds, dsn = newton(sigma * mu, corr, [v * u for v, u in zip(dxna, dsna)])
        steps = max_steps(dx, dxn, ds, dsn)
        if steps is None:
            status = SolveStatus.NUMERICAL_FAILURE
            break
        ap = min(1.0, FRACTION_TO_BOUNDARY * steps[0])
        ad = min(1.0, FRACTION_TO_BOUNDARY * steps[1])
        if max(ap, ad) < 1e-14:
            status = SolveStatus.NUMERICAL_FAILURE
            break
        x = x + ap * dx
        s = s + ad * ds
        x = 0.5 * (x + _h(x))
        s = 0.5 * (s + _h(s))
        xn = [v + ap * dv for v, dv in zip(xn, dxn)]
        sn = [v + ad * dv for v, dv in zip(sn, dsn)]
        y = y + ad * dy

    if status is not SolveStatus.OPTIMAL:
        _, x, xn, s, sn, y, p_ext, d_ext, gap_rel = best
    x_out, s_out = rows.leave(x, xn, s, sn)
    return ConicSolution(
        status=status,
        x=x_out,
        y=y.copy(),
        s=s_out,
        primal_value=p_ext,
        dual_value=d_ext,
        gap=gap_rel,
        iterations=it,
        history=history,
    )


def solve_or_raise(problem: ConicProblem, **options) -> ConicSolution:
    """solve, raising SolverError unless the status is OPTIMAL."""
    sol = solve(problem, **options)
    if sol.status is not SolveStatus.OPTIMAL:
        raise SolverError(f"solve ended with status {sol.status.value}", solution=sol)
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
    pairs = a[np.triu_indices(d, 1)]
    out = np.empty(d * d)
    out[:d] = np.diag(a).real
    out[d::2] = 2.0 * pairs.real
    out[d + 1::2] = 2.0 * pairs.imag
    return out


def hermitian_from_coords(y, d: int) -> np.ndarray:
    """Hermitian matrix sum_i y_i basis_i (inverse map used for dual reads)."""
    y = np.asarray(y, dtype=float)
    return np.tensordot(y, hermitian_basis(d), axes=1)

"""Block-inequality assembly for the invariance, decrease, and containment
conditions, plus the pointwise invariant-set decrease scalar.

Layout conventions (generated from each subsystem's coupling map, never
hard-coded to a fixed subsystem count):

    invariance:  [ d | x_i | x_j (sorted j) | slack(n_x) ]        "<= 0"
    decrease:    [ d | x_i | x_j (sorted j) | slack(n_u) | slack(n_x) ]  "< 0"
    containment: [[xi, x'], [x, X^{-1} xi]]                        ">= 0"

All blocks are affine in (xi, gains) for fixed shape matrices, and the
reduced forms' only non-affine parts, [E theta]'(Lam (x) X)[E theta] with
Lam = [[1, 1], [1, n]] and k'Mk, are matrix-convex, so vertex enforcement
over every (model rule, controller rule) pair covers the blended matrices
(synthesis.verify_certificate states the lemma; its membership-grid sweep
re-checks it). The vertices of one subsystem and family assemble as one
stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (SingularBlockError, is_psd, min_eig, quad_form,
                     sym_matrix)
from .plant import (LargeScaleSystem, Subsystem, blend, blend_gains,
                    step_closed_loop)


@dataclass
class FixedParams:
    """Offline-stage constants shared by every assembled condition."""

    X: list                 # per-subsystem shape matrices, positive definite
    lam: list               # per-subsystem decay weights, each in (0, 1)
    N_const: list           # per-subsystem xi/eta^2 constants, positive
    M: list                 # per-subsystem input-weight matrices (n_u x n_u)
    tau: list               # per-subsystem disturbance-budget weights
    Q: np.ndarray           # state stage weight, PSD
    R: np.ndarray           # nominal input stage weight, PD
    alpha: float = 2.0      # coupling majorization constant, >= 2

    @property
    def n_subsystems(self) -> int:
        return len(self.X)

    def q_mat(self, i: int) -> np.ndarray:
        """State weight for subsystem i (Q may be shared or a per-subsystem list)."""
        return self.Q[i] if isinstance(self.Q, (list, tuple)) else self.Q

    def r_mat(self, i: int) -> np.ndarray:
        """Input weight for subsystem i (R may be shared or a per-subsystem list)."""
        return self.R[i] if isinstance(self.R, (list, tuple)) else self.R

    def validate(self):
        """Check every constant, raising ValueError for the first bad one in
        a fixed order: X, lam, N_const, tau, M, then Q and R per subsystem
        (a shared Q or R once). Each matrix family is judged with one
        stacked eigensolve per shape (_raise_first_failure)."""
        n = self.n_subsystems
        for name, seq in (("lam", self.lam), ("N_const", self.N_const),
                          ("M", self.M), ("tau", self.tau)):
            if len(seq) != n:
                raise ValueError(f"{name} must have one entry per subsystem")
        _raise_first_failure(lambda: (
            (_is_pd, x, f"X[{i}] must be positive definite")
            for i, x in enumerate(self.X)))
        for i, lam in enumerate(self.lam):
            if not 0.0 < lam < 1.0:
                raise ValueError(f"lam[{i}] must lie in (0, 1), got {lam}")
        for i, nc in enumerate(self.N_const):
            if nc <= 0:
                raise ValueError(f"N_const[{i}] must be positive")
        for i, tau in enumerate(self.tau):
            if tau <= 0:
                raise ValueError(f"tau[{i}] must be positive")
        _raise_first_failure(self._m_q_r_checks)
        if self.alpha < 2.0:
            raise ValueError(f"alpha must be >= 2, got {self.alpha}")

    def _m_q_r_checks(self):
        """(test, matrix, message) for M, then Q and R per subsystem in
        turn; a shared Q or R is the same matrix for every subsystem, so it
        is judged once, where subsystem 0 judges it."""
        for i, m in enumerate(self.M):
            yield is_psd, m, f"M[{i}] must be positive semidefinite"
        shared_q = not isinstance(self.Q, (list, tuple))
        shared_r = not isinstance(self.R, (list, tuple))
        for i in range(self.n_subsystems):
            if i == 0 or not shared_q:
                yield is_psd, self.q_mat(i), "Q must be positive semidefinite"
            if i == 0 or not shared_r:
                yield _is_pd, self.r_mat(i), "R must be positive definite"


def _is_pd(a):
    """Positive definite: the smallest eigenvalue (of each matrix of a
    stack) is above 0."""
    return min_eig(a) > 0.0


def _raise_first_failure(checks):
    """Raise ValueError(message) for the first (test, matrix, message) that
    checks() yields whose test fails.

    The matrices of one test and shape are judged as one stack, so each
    test and shape costs one eigensolve. When the matrices are not all
    finite and square (or cannot be read as float arrays, or checks()
    itself raises), they are judged one by one in order instead, so the
    exception raised is the one the first offending check raises."""
    try:
        items = list(checks())
        arrays = [np.asarray(m, dtype=float) for _, m, _ in items]
        groups = {}
        for k, ((test, _, _), a) in enumerate(zip(items, arrays)):
            groups.setdefault((test, a.shape), []).append(k)
        failed = [k for (test, _), ks in groups.items()
                  for k, ok in zip(ks, test(np.stack([arrays[k] for k in ks])))
                  if not ok]
    except (ValueError, TypeError, IndexError):
        failed = None
    if failed is None:
        for test, m, message in checks():
            if not test(m):
                raise ValueError(message)
    elif failed:
        raise ValueError(items[min(failed)][2])


@dataclass
class DecisionVars:
    """Online-stage decision variables: per-rule gains and set sizes xi."""

    gains: list             # gains[i][m] -> (n_u, n_x)
    xi: list                # per-subsystem positive reals

    def validate(self):
        for i, xi in enumerate(self.xi):
            if xi <= 0:
                raise ValueError(f"xi[{i}] must be positive, got {xi}")


def _format_key(origin: str, subsystem: int, vertex) -> str:
    tag = f"{origin}[i={subsystem}"
    if vertex is not None:
        l, m = vertex
        if l is not None:
            tag += f",l={l}"
        if m is not None:
            tag += f",m={m}"
    return tag + "]"


@dataclass(frozen=True)
class LMIInstance:
    """One assembled condition with enough metadata to re-identify it."""

    matrix: np.ndarray
    origin: str                      # invariance | decrease | containment
    sense: str                       # nsd | nsd_strict | psd
    subsystem: int
    # (model rule, controller rule) when vertexed; one pair per matrix of a
    # vertex stack
    vertex: tuple | None = None
    coupling_keys: tuple = ()
    slot_dims: tuple = ()
    strict_basis: np.ndarray | None = field(default=None, compare=False)

    @property
    def key(self) -> str:
        """Identifier of the instance; a vertex stack keys its family, as a
        blended stack does (`keys` names each matrix)."""
        stacked = self.matrix.ndim == 3
        return _format_key(self.origin, self.subsystem,
                           None if stacked else self.vertex)

    @property
    def keys(self) -> list:
        """One key per matrix: [key] for one matrix, each (l, m) pair's key
        for a vertex stack, and the family key repeated for a blended one."""
        if self.matrix.ndim == 2:
            return [self.key]
        if self.vertex is None:
            return [self.key] * len(self.matrix)
        return [_format_key(self.origin, self.subsystem, v)
                for v in self.vertex]

    def test_matrix(self) -> np.ndarray:
        """Matrix the sense is judged on: strict instances are compressed
        onto the complement of structural coupling kernels (each matrix of
        a stacked instance on its own)."""
        if self.strict_basis is None:
            return self.matrix
        return sym_matrix(self.strict_basis.T @ self.matrix @ self.strict_basis)


def _vertex_pairs(l, m):
    """Index arrays (P,) of the vertex pairs (l[p], m[p]); integers l, m
    are the P = 1 case."""
    ls, ms = np.atleast_1d(l), np.atleast_1d(m)
    if np.ndim(l) != np.ndim(m) or ls.ndim != 1 or ls.shape != ms.shape:
        raise ValueError("l and m must be two integers or two sequences of "
                         f"equal length, got shapes {np.shape(l)} and "
                         f"{np.shape(m)}")
    return ls, ms


def theta_vertex(sub: Subsystem, gains_i, l, m) -> np.ndarray:
    """Closed-loop vertex matrix A_l + B_l k_m; equal-length index
    sequences l, m give the stack (P, n_x, n_x) of the pairs' matrices."""
    ls, ms = _vertex_pairs(l, m)
    a = np.array([sub.rules[j].A for j in ls])
    b = np.array([sub.rules[j].B for j in ls])
    theta = a + b @ np.array([gains_i[j] for j in ms])
    return theta if np.ndim(l) else theta[0]


def _range_basis(g: np.ndarray, rtol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the row space of g (complement of its kernel)."""
    _, s, vt = np.linalg.svd(g)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((g.shape[1], 0))
    rank = int(np.sum(s > rtol * s[0]))
    return vt[:rank].T


def _coupling_blocks(system: LargeScaleSystem, params: FixedParams, i: int):
    sub = system.subsystems[i]
    keys = tuple(sorted(sub.couplings))
    gs = [sub.couplings[j] for j in keys]
    dims = [system.subsystems[j].n_x for j in keys]
    x_i = params.X[i]
    root_alpha = np.sqrt(params.alpha)
    n = system.n_subsystems
    # state-block coupling load: N sqrt(alpha) sum_j g' X_j g
    load = np.zeros((sub.n_x, sub.n_x))
    for j, g in zip(keys, gs):
        if g.shape[0] != g.shape[1]:
            raise ValueError(
                f"subsystem {i}: coupling to {j} is {g.shape}; the state-block "
                "load g' X_j g needs coupled subsystems with equal state dims")
        load = load + g.T @ params.X[j] @ g
    load = n * root_alpha * load
    return keys, gs, dims, x_i, root_alpha, load


def _place(mat, row_ofs, col_ofs, block):
    r, c = block.shape[-2:]
    mat[..., row_ofs:row_ofs + r, col_ofs:col_ofs + c] = block
    mat[..., col_ofs:col_ofs + c, row_ofs:row_ofs + r] = block.swapaxes(-1, -2)


def _strict_basis_for(dims_head, gs, dims_coupling, dims_tail):
    """Compression basis onto the row space of the stacked coupling map
    [g_1 g_2 ...]; None when that map has full column rank.

    The assembled conditions touch the coupling slots only through the summed
    contribution sum_j g_j x_j, so any stacked direction in the kernel of the
    horizontal concatenation is an exact zero eigendirection of the whole
    matrix.  Judging strictness on the compressed matrix removes those
    structural zeros; they satisfy the conditions with equality by
    construction.  Note a subsystem with several individually full-rank
    couplings still has a joint kernel whenever the stacked map is wide."""
    if not gs:
        return None
    basis = _range_basis(np.hstack(gs))
    if basis.shape[1] == basis.shape[0]:
        return None
    blocks = [np.eye(d) for d in dims_head] + [basis] + [np.eye(d) for d in dims_tail]
    total_rows = sum(b.shape[0] for b in blocks)
    total_cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((total_rows, total_cols))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def _condition_matrices(system, params, i, family, theta, e_mu, k_eff, xi_i,
                        reduced):
    """Invariance or decrease matrices of subsystem i, stacked (P, size,
    size), for stacks of closed-loop matrices theta (P, n_x, n_x),
    disturbance maps e_mu (P, n_x, n_d) and gains k_eff (P, n_u, n_x; only
    decrease reads them). The coupling load, the g'X blocks and the strict
    basis depend on neither the gains nor xi and are built once per call.
    Returns (matrices, coupling keys, slot dims, strict basis)."""
    sub = system.subsystems[i]
    keys, gs, dims, x_i, root_alpha, load = _coupling_blocks(system, params, i)
    n = system.n_subsystems
    n_d, n_x, n_u = sub.n_d, sub.n_x, sub.n_u
    decrease = family == "decrease"
    if decrease:
        d_coef = xi_i * params.tau[i]
        state_block = load - x_i + xi_i * params.q_mat(i)
        tail = [n_u, n_x]
    else:
        d_coef = xi_i * params.lam[i] * params.N_const[i]
        state_block = load - (1.0 - params.lam[i]) * x_i
        tail = [n_x]
    if reduced:
        tail = []

    slot_dims = [n_d, n_x] + dims + tail
    size = sum(slot_dims)
    mat = np.zeros((theta.shape[0], size, size))
    ofs = np.concatenate(([0], np.cumsum(slot_dims))).astype(int)
    theta_t = theta.swapaxes(-1, -2)

    xe = x_i @ e_mu
    mat[:, :n_d, :n_d] = e_mu.swapaxes(-1, -2) @ xe - d_coef * np.eye(n_d)
    _place(mat, ofs[1], 0, theta_t @ xe)
    if reduced:
        state_block = state_block + n * (theta_t @ x_i @ theta)
        if decrease:
            state_block = state_block + \
                k_eff.swapaxes(-1, -2) @ params.M[i] @ k_eff
    mat[:, ofs[1]:ofs[2], ofs[1]:ofs[2]] = state_block
    gx = [g.T @ x_i for g in gs]
    for a, g_a in enumerate(gs):
        ra = ofs[2 + a]
        _place(mat, ra, 0, g_a.T @ xe)
        _place(mat, ra, ofs[1], (1.0 - root_alpha) * (gx[a] @ theta))
        for b in range(a, len(gs)):
            rb = ofs[2 + b]
            block = -(params.alpha - 1.0) * (gx[b] @ g_a)
            mat[:, rb:rb + dims[b], ra:ra + dims[a]] = block
            mat[:, ra:ra + dims[a], rb:rb + dims[b]] = block.T
    if not reduced:
        if decrease:
            m_row = ofs[-3]
            _place(mat, m_row, ofs[1], params.M[i] @ k_eff)
            mat[:, m_row:m_row + n_u, m_row:m_row + n_u] = -params.M[i]
        last = ofs[-2]
        _place(mat, last, ofs[1], x_i @ theta)
        mat[:, last:, last:] = -(1.0 / n) * x_i
    basis = _strict_basis_for([n_d, n_x], gs, dims, tail)
    return (sym_matrix(0.5 * (mat + mat.swapaxes(-1, -2))), keys,
            tuple(slot_dims), basis)


_FAMILY_SENSE = {"invariance": "nsd", "decrease": "nsd_strict"}


def _vertex_instance(system, params, dv, i, l, m, family, reduced):
    ls, ms = _vertex_pairs(l, m)
    sub = system.subsystems[i]
    mats, keys, slot_dims, basis = _condition_matrices(
        system, params, i, family, theta_vertex(sub, dv.gains[i], ls, ms),
        np.array([sub.rules[j].E for j in ls]),
        np.array([dv.gains[i][j] for j in ms]), dv.xi[i], reduced)
    stacked = np.ndim(l) == 1
    return LMIInstance(matrix=mats if stacked else mats[0], origin=family,
                       sense=_FAMILY_SENSE[family], subsystem=i,
                       vertex=tuple(zip(ls.tolist(), ms.tolist()))
                       if stacked else (l, m),
                       coupling_keys=keys, slot_dims=slot_dims,
                       strict_basis=basis)


def _blended_instance(system, params, dv, i, w, h, family, reduced):
    w = np.asarray(w, dtype=float)
    h = np.asarray(h, dtype=float)
    a, b, e = blend(system.subsystems[i], np.atleast_2d(w))
    k = blend_gains(dv.gains[i], np.atleast_2d(h))
    mats, keys, slot_dims, basis = _condition_matrices(
        system, params, i, family, a + b @ k, e, k, dv.xi[i], reduced)
    return LMIInstance(matrix=mats[0] if w.ndim == h.ndim == 1 else mats,
                       origin=family, sense=_FAMILY_SENSE[family],
                       subsystem=i, vertex=None, coupling_keys=keys,
                       slot_dims=slot_dims, strict_basis=basis)


def assemble_invariance(system: LargeScaleSystem, params: FixedParams,
                        dv: DecisionVars, i: int, l, m,
                        reduced: bool = False) -> LMIInstance:
    """Invariant-set condition at vertex (model rule l, controller rule m).

    Equal-length integer sequences l, m give one instance whose matrix is
    the stack (P, size, size) of the P vertices (l[p], m[p]), each equal to
    its own single-vertex assembly, and whose `keys` name them; the
    coupling load and strict basis are built once for the whole stack.
    `reduced` folds the trailing slack row into the state block via its Schur
    complement (the scalar-expansion form used by the oracle tests).
    """
    return _vertex_instance(system, params, dv, i, l, m, "invariance",
                            reduced)


def assemble_invariance_blended(system, params, dv, i, w, h,
                                reduced: bool = False) -> LMIInstance:
    """Invariance condition with membership-blended matrices.

    Weights w (n_rules,) and h (n_controller_rules,) give one matrix;
    stacks w (P, n_rules) and h (P, n_controller_rules) give one instance
    whose matrix is the stack (P, size, size) of the P blends, each equal
    to its own single-weight assembly."""
    return _blended_instance(system, params, dv, i, w, h, "invariance",
                             reduced)


def assemble_decrease(system: LargeScaleSystem, params: FixedParams,
                      dv: DecisionVars, i: int, l, m,
                      reduced: bool = False) -> LMIInstance:
    """Cost-decrease condition at vertex (l, m); sense is strict. Index
    sequences give a vertex stack, as for assemble_invariance."""
    return _vertex_instance(system, params, dv, i, l, m, "decrease", reduced)


def assemble_decrease_blended(system, params, dv, i, w, h,
                              reduced: bool = False) -> LMIInstance:
    """Cost-decrease condition with membership-blended matrices; weight
    stacks as for assemble_invariance_blended."""
    return _blended_instance(system, params, dv, i, w, h, "decrease",
                             reduced)


def xi_slope(params: FixedParams, inst: LMIInstance) -> np.ndarray:
    """Constant xi-derivative of an invariance or decrease instance's test
    matrix, at any vertex or blend and in either form: -lam N I on the
    disturbance block for invariance; -tau I there and +Q on the state block
    for decrease; compressed by the instance's strict basis."""
    i = inst.subsystem
    n_d, n_x = inst.slot_dims[:2]
    size = sum(inst.slot_dims)
    slope = np.zeros((size, size))
    if inst.origin == "invariance":
        slope[:n_d, :n_d] = -params.lam[i] * params.N_const[i] * np.eye(n_d)
    elif inst.origin == "decrease":
        slope[:n_d, :n_d] = -params.tau[i] * np.eye(n_d)
        slope[n_d:n_d + n_x, n_d:n_d + n_x] = params.q_mat(i)
    else:
        raise ValueError(f"{inst.origin} conditions have no xi pencil")
    if inst.strict_basis is None:
        return slope
    return sym_matrix(inst.strict_basis.T @ slope @ inst.strict_basis)


def containment_size(x_mat: np.ndarray, x) -> float:
    """Smallest set size whose set {x' (X/xi) x <= xi} holds x: sqrt(x' X x)."""
    x = np.asarray(x, dtype=float)
    return float(np.sqrt(x @ x_mat @ x))


def shape_inverse(x_mat: np.ndarray) -> np.ndarray:
    """X^{-1} for the containment block; raises SingularBlockError when X is
    singular to working precision."""
    eigs = np.linalg.eigvalsh(sym_matrix(x_mat))
    scale = max(1.0, float(np.max(np.abs(eigs))))
    if float(np.min(np.abs(eigs))) <= 1e-12 * scale:
        raise SingularBlockError("shape matrix is singular; containment undefined")
    return np.linalg.solve(x_mat, np.eye(x_mat.shape[0]))


def assemble_containment(x: np.ndarray, xi_i: float, x_mat: np.ndarray,
                         subsystem: int = 0,
                         x_inv: np.ndarray | None = None) -> LMIInstance:
    """State-containment certificate [[xi, x'], [x, X^{-1} xi]] >= 0,
    equivalent to x' (X/xi) x <= xi. `x_inv` is shape_inverse(x_mat) when
    the caller already has it."""
    if x_inv is None:
        x_inv = shape_inverse(x_mat)
    x = np.asarray(x, dtype=float)
    mat = np.empty((x.size + 1, x.size + 1))
    mat[0, 0] = xi_i
    _place(mat, 1, 0, x[:, None])
    mat[1:, 1:] = xi_i * x_inv
    mat = sym_matrix(mat)
    return LMIInstance(matrix=mat, origin="containment", sense="psd",
                       subsystem=subsystem)


def check_rpi_pointwise(system: LargeScaleSystem, params: FixedParams,
                        dv: DecisionVars, x_all, d_all, mu_bar: float = 0.5,
                        mode: str = "true_plant", rho_bar: float | None = None) -> float:
    """Summed one-step decrease scalar of the invariant-set condition.

    Negative or zero means the normalized set-membership functions decayed as
    certified. Uses the implied admissible radius eta^2 = xi / N_const.
    """
    x_next = step_closed_loop(system, dv.gains, x_all, d_all, mu_bar, mode, rho_bar)
    return rpi_decrease_scalar(params, dv.xi, x_all, d_all, x_next)


def rpi_decrease_scalar(params: FixedParams, xi, x_all, d_all, x_next):
    """check_rpi_pointwise's scalar for an already computed step
    x_all -> x_next under disturbances d_all, at set sizes xi. States and
    disturbances stacked as (P, n) give the P samples' scalars as (P,)."""
    total = 0.0
    for i in range(len(xi)):
        xi_i = xi[i]
        p_i = params.X[i] / xi_i
        v_now = quad_form(x_all[i], p_i)
        v_next = quad_form(x_next[i], p_i)
        inv_eta2 = params.N_const[i] / xi_i
        total += (v_next - v_now) / xi_i - params.lam[i] * (
            quad_form(d_all[i]) * inv_eta2 - v_now / xi_i)
    return total

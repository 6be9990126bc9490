"""Block-inequality assembly for the invariance, decrease, and containment
conditions, plus the pointwise invariant-set decrease scalar.

Layout conventions (generated from each subsystem's coupling map, never
hard-coded to a fixed subsystem count):

    invariance:  [ d | x_i | x_j (sorted j) | slack(n_x) ]        "<= 0"
    decrease:    [ d | x_i | x_j (sorted j) | slack(n_u) | slack(n_x) ]  "< 0"
    containment: [[xi, x'], [x, X^{-1} xi]]                        ">= 0"

All blocks are affine in (xi, gains) for fixed shape matrices: the slack
rows carry X theta and M k linearly. Folding them into the head by their
Schur complement, linalg.schur_reduce(matrix, size - tail) with tail n_x
for invariance and n_u + n_x for decrease, leaves as the only non-affine
parts [E theta]'(Lam (x) X)[E theta] with Lam = [[1, 1], [1, n]] and k'Mk,
which are matrix-convex, so vertex enforcement over every (model rule,
controller rule) pair covers the blended matrices
(synthesis.verify_certificate states the lemma; its membership-grid sweep
re-checks it). The vertices of one subsystem and family assemble as one
stack.

Layout. Everything in subsystem i's invariance and decrease matrices that
depends on neither the gains nor xi is held by one _Layout(system, params,
i). Its X-free half, built once on the Subsystem, is the sorted coupling
keys, the stacked g blocks and the row-space basis of the coupling map
[g_1 g_2 ...] from one SVD (each family's strict basis only adds its
identity tail); the layout adds the slot dims, g'X_i, the constant
coupling block -(alpha - 1) g'X_i g and the load n sqrt(alpha) sum_j
g_j'X_j g_j. Its `stack` emits either family, for a whole stack of
vertices or blends, from a constant template plus a handful of batched
products, and symmetrizes once. Every entry is the one a
block-by-block assembly computes, by the same products in the same order;
factors of 1/2 move only where scaling by them is exact (the tests keep
that assembly as a reference). Each public assemble_* call builds exactly
one layout: the four assemblers and LMIInstance.test_matrix are the names
the benchmark's layer tracer (perfbench/tracer.py) binds, so sharing the X
half across calls would need a layout argument on those functions, or a
tracer that binds the layout instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .linalg import (InvalidMatrixError, SingularBlockError, inv_sqrt, is_psd,
                     min_eig, quad_form, sym_matrix)
from .plant import (LargeScaleSystem, Subsystem, _as_gains, _frozen,
                    _is_finite, _shown, _verdict_kept, blend, blend_gains)


@dataclass(frozen=True)
class FixedParams:
    """Offline-stage constants shared by every assembled condition: a value
    as the plant is (read-only float copies and tuples; a changed one is a
    new object, made with dataclasses.replace), whose groups of equal-shape
    X_i and tables of X are built once, on first use. validate() is an
    explicit call, and a passing verdict is kept on the value."""

    X: tuple                # per-subsystem shape matrices, positive definite
    lam: tuple              # per-subsystem decay weights, each in (0, 1)
    N_const: tuple          # per-subsystem xi/eta^2 constants, positive
    M: tuple                # per-subsystem input-weight matrices (n_u x n_u)
    tau: tuple              # per-subsystem disturbance-budget weights
    Q: np.ndarray           # state stage weight, PSD
    R: np.ndarray           # nominal input stage weight, PD
    alpha: float = 2.0      # coupling majorization constant, >= 2

    def __post_init__(self):
        for name in ("lam", "N_const", "tau"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in ("X", "M", "Q", "R"):
            v = getattr(self, name)
            shared = name in ("Q", "R") and not isinstance(v, (list, tuple))
            object.__setattr__(self, name, _frozen(v) if shared else tuple(map(_frozen, v)))

    def __deepcopy__(self, memo):   # numpy's deep copy would be writable
        return replace(self)        # fresh read-only copies, no tables yet

    @cached_property
    def x_groups(self) -> tuple:
        """The groups of equal-shape X_i, in the order of their first
        members: a tuple of subsystem indices each. Every table of X, the
        containment sizes and the containment blocks are made per group."""
        groups = {}
        for i, x in enumerate(self.X):
            groups.setdefault(x.shape, []).append(i)
        return tuple(map(tuple, groups.values()))

    @cached_property
    def x_stacks(self) -> tuple:
        """Per group of x_groups: its X_i stacked, read-only (k, n, n)."""
        return tuple(_frozen([self.X[i] for i in members])
                     for members in self.x_groups)

    def group_stacks(self, per_subsystem) -> list:
        """Per group of x_groups: its members' entries of per_subsystem (a
        state per subsystem, say) stacked as one float array."""
        return [np.array([per_subsystem[i] for i in members], dtype=float)
                for members in self.x_groups]

    def ungroup(self, per_group) -> list:
        """Per subsystem: its entry of per_group, one sequence per group of
        x_groups with one entry per member (group_stacks undone)."""
        out = [None] * self.n_subsystems
        for members, entries in zip(self.x_groups, per_group):
            for i, entry in zip(members, entries):
                out[i] = entry
        return out

    def _x_table(self, table) -> tuple:
        """Per group of x_groups, read-only table(stack), from one call of
        table on the group's stack (k, n, n). A stacked LAPACK call runs per
        matrix, so each entry is that of X_i's own call."""
        return tuple(_frozen(table(stack)) for stack in self.x_stacks)

    @cached_property
    def x_eigs(self) -> tuple:
        """Per subsystem: X_i's eigenvalues, ascending."""
        return tuple(self.ungroup(
            self._x_table(lambda x: np.linalg.eigvalsh(sym_matrix(x)))))

    @cached_property
    def x_inv_stacks(self) -> tuple:
        """Per group of x_groups: its X_i^{-1} = solve(X_i, I) stacked."""
        return self._x_table(lambda x: np.linalg.solve(x, np.eye(x.shape[-1])))

    @cached_property
    def x_inv(self) -> tuple:
        """Per subsystem: X_i^{-1}, a view of its group's x_inv_stacks."""
        return tuple(self.ungroup(self.x_inv_stacks))

    @cached_property
    def x_inv_sqrt(self) -> tuple:
        """Per subsystem: X_i^{-1/2}, mapping the unit ball onto x' X_i x <= 1."""
        return tuple(self.ungroup(self._x_table(inv_sqrt)))

    @cached_property
    def shape_inverses(self) -> tuple:
        """x_inv_stacks for the containment blocks, once no X_i is singular
        to working precision: the one place that test runs. SingularBlockError
        when one is (no containment block is defined then)."""
        for eigs in self.x_eigs:
            scale = max(1.0, float(np.max(np.abs(eigs))))
            if float(np.min(np.abs(eigs))) <= 1e-12 * scale:
                raise SingularBlockError(
                    "shape matrix is singular; containment undefined")
        return self.x_inv_stacks

    @property
    def n_subsystems(self) -> int:
        return len(self.X)

    def q_mat(self, i: int) -> np.ndarray:
        """State weight for subsystem i (Q may be shared or a per-subsystem list)."""
        return self.Q[i] if isinstance(self.Q, (list, tuple)) else self.Q

    def r_mat(self, i: int) -> np.ndarray:
        """Input weight for subsystem i (R may be shared or a per-subsystem list)."""
        return self.R[i] if isinstance(self.R, (list, tuple)) else self.R

    @_verdict_kept
    def validate(self):
        """Check every constant, raising ValueError for the first bad one in
        a fixed order: the entry counts (lam, N_const, M, tau, then a
        per-subsystem Q or R), X, lam, N_const, tau, M, then Q and R per
        subsystem (a shared Q or R once). Each matrix family is judged with one
        stacked eigensolve per shape (_raise_first_failure)."""
        n = self.n_subsystems
        for name, seq in (("lam", self.lam), ("N_const", self.N_const),
                          ("M", self.M), ("tau", self.tau),
                          ("Q", self.Q), ("R", self.R)):
            # a shared Q or R is one matrix, not a tuple
            if isinstance(seq, tuple) and len(seq) != n:
                raise ValueError(f"{name} must have one entry per subsystem")
        _raise_first_failure(lambda: (
            (_is_pd, x, f"X[{i}] must be positive definite")
            for i, x in enumerate(self.X)))
        for i, lam in enumerate(self.lam):
            if not 0.0 < lam < 1.0:
                raise ValueError(f"lam[{i}] must lie in (0, 1), "
                                 f"got {_shown(lam)}")
        for name, seq in (("N_const", self.N_const), ("tau", self.tau)):
            for i, v in enumerate(seq):
                if v <= 0:
                    raise ValueError(f"{name}[{i}] must be positive")
                if not _is_finite(v):
                    raise ValueError(f"{name}[{i}] must be finite, "
                                     f"got {_shown(v)}")
        _raise_first_failure(self._m_q_r_checks)
        if self.alpha < 2.0:
            raise ValueError(f"alpha must be >= 2, got {_shown(self.alpha)}")
        if not _is_finite(self.alpha):
            raise ValueError(f"alpha must be finite, got {_shown(self.alpha)}")

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


@dataclass(frozen=True)
class DecisionVars:
    """Online-stage decision variables: per-rule gains and set sizes xi, a
    value as FixedParams is. Another certificate's gains (or an evaluator's)
    are kept uncopied; validate() is an explicit call, since the synthesis
    models assemble at xi = 0."""

    gains: tuple            # gains[i][m] -> (n_u, n_x)
    xi: tuple               # per-subsystem positive reals

    def __post_init__(self):
        object.__setattr__(self, "gains", _as_gains(self.gains))
        object.__setattr__(self, "xi", tuple(self.xi))

    def validate(self):
        if len(self.gains) != len(self.xi):
            raise ValueError(f"gains must have one list per set size: "
                             f"{len(self.gains)} for {len(self.xi)} sizes")
        for i, xi in enumerate(self.xi):
            if xi <= 0:
                raise ValueError(f"xi[{i}] must be positive, got {_shown(xi)}")
            if not _is_finite(xi):
                raise ValueError(f"xi[{i}] must be finite, got {_shown(xi)}")


def _format_key(origin: str, subsystem: int, vertex) -> str:
    tag = f"{origin}[i={subsystem}"
    if vertex is not None:
        l, m = vertex
        if l is not None:
            tag += f",l={l}"
        if m is not None:
            tag += f",m={m}"
    return tag + "]"


def vertex_keys(origin: str, subsystem: int, pairs) -> list:
    """The keys of a vertex stack's matrices, one per pair (l, m)."""
    return [_format_key(origin, subsystem, v) for v in pairs]


@dataclass(frozen=True)
class LMIInstance:
    """One assembled condition with enough metadata to re-identify it."""

    matrix: np.ndarray
    origin: str                      # invariance | decrease | containment
    subsystem: int | tuple           # a shape group's indices for a
                                     # stacked containment instance
    # (model rule, controller rule) when vertexed; one pair per matrix of a
    # vertex stack
    vertex: tuple | None = None
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
        for a vertex stack, each member's key for a shape group's
        containment stack, and the family key repeated for a blended one."""
        if self.matrix.ndim == 2:
            return [self.key]
        if isinstance(self.subsystem, tuple):
            return [_format_key(self.origin, i, None) for i in self.subsystem]
        if self.vertex is None:
            return [self.key] * len(self.matrix)
        return vertex_keys(self.origin, self.subsystem, self.vertex)

    def test_matrix(self) -> np.ndarray:
        """Matrix the condition is judged on: strict instances are compressed
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
    theta, _, _ = _vertex_stacks(sub, gains_i, *_vertex_pairs(l, m))
    return theta if np.ndim(l) else theta[0]


def _vertex_stacks(sub: Subsystem, gains_i, ls, ms):
    """(theta, E, k) stacks of the vertex pairs (ls[p], ms[p])."""
    rules = [sub.rules[j] for j in ls]
    k = np.array([gains_i[j] for j in ms])
    return (np.array([r.A for r in rules]) + np.array([r.B for r in rules]) @ k,
            np.array([r.E for r in rules]), k)


class _Layout:
    """Subsystem i's block layout: every part of its invariance and
    decrease matrices that depends on neither the gains nor xi (module
    docstring, "Layout"). `stack` emits either family."""

    def __init__(self, system: LargeScaleSystem, params: FixedParams, i: int):
        sub = system.subsystems[i]
        self.i, self.params, self.n = i, params, system.n_subsystems
        self.n_d, self.n_x, self.n_u = sub.n_d, sub.n_x, sub.n_u
        keys = sub.coupling_keys
        for j in keys:
            g = sub.couplings[j]
            if g.shape[0] != g.shape[1]:
                raise ValueError(
                    f"subsystem {i}: coupling to {j} is {g.shape}; the "
                    "state-block load g' X_j g needs coupled subsystems with "
                    "equal state dims")
        # so every coupling slot is n_x wide, and the couplings stack
        nc, n_x, x_i = len(keys), sub.n_x, params.X[i]
        self.coupling_dims = (n_x,) * nc
        g = sub.coupling_stack
        self.gt = g.swapaxes(-1, -2)                   # g_a' per slot a
        self.gx = self.gt @ x_i                        # g_a' X_i
        self.gx_weight = 1.0 - np.sqrt(params.alpha)   # of g_a' X_i theta
        # -(alpha - 1) g_b' X_i g_a in slot (b, a): below the diagonal, and
        # at half weight on it (see stack)
        slot = np.arange(nc)
        weight = np.greater.outer(slot, slot) + 0.5 * np.eye(nc)
        blocks = -(params.alpha - 1.0) * (self.gx[:, None] @ g[None])
        self.coupling = (weight[:, :, None, None] * blocks).swapaxes(
            1, 2).reshape(nc * n_x, nc * n_x)
        # state-block coupling load: n sqrt(alpha) sum_j g' X_j g
        x_j = np.array([params.X[j] for j in keys]).reshape(nc, n_x, n_x)
        self.load = self.n * np.sqrt(params.alpha) * (
            self.gt @ x_j @ g).sum(axis=0)
        self.basis = sub.coupling_basis     # of both families' strict bases

    def slot_dims(self, family: str) -> tuple:
        """[d | x_i | x_j (sorted j) | slack tail]: the tail is (n_u, n_x)
        for decrease and (n_x,) for invariance."""
        tail = (self.n_u, self.n_x) if family == "decrease" else (self.n_x,)
        return (self.n_d, self.n_x) + self.coupling_dims + tail

    def strict_basis(self, family: str):
        """Compression onto the row space of the stacked coupling map
        [g_1 g_2 ...]; None when that map has full column rank.

        The conditions touch the coupling slots only through the summed
        contribution sum_j g_j x_j, so any stacked direction in the kernel
        of the concatenation is an exact zero eigendirection of the whole
        matrix. Judging strictness on the compressed matrix removes those
        structural zeros; they satisfy the conditions with equality by
        construction. A subsystem with several individually full-rank
        couplings still has a joint kernel whenever the stacked map is
        wide."""
        if self.basis is None:
            return None
        head = self.n_d + self.n_x
        size = sum(self.slot_dims(family))
        c, r = self.basis.shape
        cols = size - c + r
        out = np.zeros((size, cols))
        out.flat[:head * (cols + 1):cols + 1] = 1.0     # I on d, x_i
        out[head:head + c, head:head + r] = self.basis
        out.flat[(head + c) * cols + head + r::cols + 1] = 1.0  # I on tail
        return out

    def stack(self, family, theta, e_mu, k_eff, xi_i):
        """Invariance or decrease matrices of the subsystem, stacked (P,
        size, size), for stacks of closed-loop matrices theta (P, n_x,
        n_x), disturbance maps e_mu (P, n_x, n_d) and gains k_eff (P, n_u,
        n_x; only decrease reads them).

        A constant template (the xi terms, the state block, the coupling
        slots, the slack diagonal) plus the products Xe, e'Xe, theta'Xe,
        g'Xe, (1 - sqrt alpha) g'X theta, Mk and X theta fill the block
        lower triangle, each diagonal block at half weight; adding the
        transpose then mirrors every off-diagonal block and averages each
        diagonal block with its own transpose."""
        p, i, n_d, n_x = self.params, self.i, self.n_d, self.n_x
        x_i, decrease = p.X[i], family == "decrease"
        size, head = sum(self.slot_dims(family)), n_d + n_x
        cpl = slice(head, head + len(self.coupling))
        tmpl = np.zeros((size, size))
        if decrease:
            d_coef = xi_i * p.tau[i]
            state = self.load - x_i + xi_i * p.q_mat(i)
        else:
            d_coef = xi_i * p.lam[i] * p.N_const[i]
            state = self.load - (1.0 - p.lam[i]) * x_i
        tmpl.flat[:n_d * (size + 1):size + 1] = -0.5 * d_coef  # d block
        tmpl[n_d:head, n_d:head] = 0.5 * state
        tmpl[cpl, cpl] = self.coupling
        if decrease:
            tmpl[cpl.stop:-n_x, cpl.stop:-n_x] = -0.5 * p.M[i]
        tmpl[-n_x:, -n_x:] = -0.5 / self.n * x_i

        mat = np.empty((len(theta), size, size))
        mat[:] = tmpl
        # the coupling slots' rows, (P, slot, n_x, size): a view of mat
        rows = mat[:, cpl].reshape(len(theta), len(self.gt), n_x, size)
        theta_t = theta.swapaxes(-1, -2)
        xe = x_i @ e_mu
        mat[:, :n_d, :n_d] += 0.5 * (e_mu.swapaxes(-1, -2) @ xe)
        mat[:, n_d:head, :n_d] = theta_t @ xe
        rows[..., :n_d] = self.gt @ xe[:, None]
        rows[..., n_d:head] = self.gx_weight * (self.gx @ theta[:, None])
        if decrease:
            mat[:, cpl.stop:-n_x, n_d:head] = p.M[i] @ k_eff
        mat[:, -n_x:, n_d:head] = x_i @ theta
        mat = mat + mat.swapaxes(-1, -2)
        if not np.isfinite(mat).all():
            raise InvalidMatrixError("matrix entries must be finite")
        return mat

    def instance(self, family, mats, vertex=None) -> LMIInstance:
        """The LMIInstance of matrices `mats` this layout stacked."""
        return LMIInstance(matrix=mats, origin=family, subsystem=self.i,
                           vertex=vertex, slot_dims=self.slot_dims(family),
                           strict_basis=self.strict_basis(family))


def _vertex_instance(system, params, dv, i, l, m, family):
    ls, ms = _vertex_pairs(l, m)
    layout = _Layout(system, params, i)
    mats = layout.stack(family, *_vertex_stacks(system.subsystems[i],
                                                dv.gains[i], ls, ms),
                        dv.xi[i])
    if np.ndim(l):
        return layout.instance(family, mats,
                               tuple(zip(ls.tolist(), ms.tolist())))
    return layout.instance(family, mats[0], (l, m))


def _weight_pairs(w, h):
    """Weights (w, h) as float arrays: two vectors (one blend) or two
    stacks (P, n_rules) and (P, n_controller_rules) of P blends."""
    w, h = np.asarray(w, dtype=float), np.asarray(h, dtype=float)
    if w.ndim != h.ndim or w.ndim not in (1, 2) or \
            w.shape[:-1] != h.shape[:-1]:
        raise ValueError("w and h must be two weight vectors or two weight "
                         "stacks of equal length, got shapes "
                         f"{w.shape} and {h.shape}")
    return w, h


def _blended_instance(system, params, dv, i, w, h, family):
    w, h = _weight_pairs(w, h)
    a, b, e = blend(system.subsystems[i], np.atleast_2d(w))
    k = blend_gains(dv.gains[i], np.atleast_2d(h))
    layout = _Layout(system, params, i)
    mats = layout.stack(family, a + b @ k, e, k, dv.xi[i])
    return layout.instance(family, mats if w.ndim == 2 else mats[0])


def assemble_invariance(system: LargeScaleSystem, params: FixedParams,
                        dv: DecisionVars, i: int, l, m) -> LMIInstance:
    """Invariant-set condition at vertex (model rule l, controller rule m).

    Equal-length integer sequences l, m give one instance whose matrix is
    the stack (P, size, size) of the P vertices (l[p], m[p]), each equal to
    its own single-vertex assembly, and whose `keys` name them; the
    coupling load and strict basis are built once for the whole stack.
    """
    return _vertex_instance(system, params, dv, i, l, m, "invariance")


def assemble_invariance_blended(system, params, dv, i, w, h) -> LMIInstance:
    """Invariance condition with membership-blended matrices.

    Weights w (n_rules,) and h (n_controller_rules,) give one matrix;
    stacks w (P, n_rules) and h (P, n_controller_rules) give one instance
    whose matrix is the stack (P, size, size) of the P blends, each equal
    to its own single-weight assembly."""
    return _blended_instance(system, params, dv, i, w, h, "invariance")


def assemble_decrease(system: LargeScaleSystem, params: FixedParams,
                      dv: DecisionVars, i: int, l, m) -> LMIInstance:
    """Cost-decrease condition at vertex (l, m); sense is strict. Index
    sequences give a vertex stack, as for assemble_invariance."""
    return _vertex_instance(system, params, dv, i, l, m, "decrease")


def assemble_decrease_blended(system, params, dv, i, w, h) -> LMIInstance:
    """Cost-decrease condition with membership-blended matrices; weight
    stacks as for assemble_invariance_blended."""
    return _blended_instance(system, params, dv, i, w, h, "decrease")


def xi_slope(params: FixedParams, inst: LMIInstance) -> np.ndarray:
    """Constant xi-derivative of an invariance or decrease instance's test
    matrix, at any vertex or blend: -lam N I on the disturbance block for
    invariance; -tau I there and +Q on the state block for decrease;
    compressed by the instance's strict basis. The slack tail has no xi
    term, so the Schur fold of the full form has the same slope on its
    head."""
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


def containment_size(x_mat: np.ndarray, x):
    """Smallest set size whose set {x' (X/xi) x <= xi} holds x: sqrt(x' X x).
    A shape group's stacked X (k, n, n) and states (k, n) give its members'
    k sizes, each bit for bit that of its own call."""
    size = np.sqrt(quad_form(x, x_mat))
    return size if size.ndim else float(size)


def containment_sizes(params: FixedParams, x_all) -> list:
    """Per subsystem: the containment_size of its state x_all[i], from one
    stacked call per group of equal-shape X_i."""
    return params.ungroup(
        containment_size(x_mat, x).tolist()
        for x_mat, x in zip(params.x_stacks, params.group_stacks(x_all)))


def assemble_containment(params: FixedParams, i, x, xi_i) -> LMIInstance:
    """State-containment certificate [[xi, x'], [x, X_i^{-1} xi]] >= 0 of
    subsystem i, equivalent to x' (X_i/xi) x <= xi; X_i^{-1} is the
    checked params.shape_inverses.

    A group of params.x_groups as i, with its members' states stacked (k,
    n) and their k set sizes, gives one instance whose matrix is the stack
    (k, n + 1, n + 1) of the members' blocks, each equal to its own
    single-subsystem assembly, and whose `keys` name the members."""
    inverses = params.shape_inverses    # raises when an X_i is singular
    single = isinstance(i, (int, np.integer))
    if single:
        inv, xi = params.x_inv[i], np.array([xi_i], dtype=float)
        x = np.asarray(x, dtype=float)[None]
    else:
        i = tuple(i)
        try:
            inv = inverses[params.x_groups.index(i)]
        except ValueError:
            raise ValueError(f"{i} is no shape group of the constants; "
                             f"expected one of {params.x_groups}") from None
        xi, x = np.asarray(xi_i, dtype=float), np.asarray(x, dtype=float)
    size = x.shape[-1] + 1
    mat = np.empty((len(xi), size, size))
    mat[:, 0, 0] = xi
    mat[:, 0, 1:] = mat[:, 1:, 0] = x
    mat[:, 1:, 1:] = xi[:, None, None] * inv
    mat = sym_matrix(mat)
    return LMIInstance(matrix=mat[0] if single else mat,
                       origin="containment", subsystem=i)


def rpi_decrease_scalar(params: FixedParams, xi, x_all, d_all, x_next):
    """Summed one-step decrease scalar of the invariant-set condition, for a
    computed step x_all -> x_next under disturbances d_all, at set sizes xi.

    Negative or zero means the normalized set-membership functions decayed as
    certified. Uses the implied admissible radius eta^2 = xi / N_const.
    States and disturbances stacked as (P, n) give the P samples' scalars
    as (P,)."""
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

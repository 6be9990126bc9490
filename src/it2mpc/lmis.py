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
re-checks it). Every invariance and decrease assembler takes a layout group
as a tuple of members, and stacks (vertex index sequences or weight
stacks) shared by them; containment takes a group of equal-shape X_i and
its states. Each returns one LMIInstance of a stack of matrices with a
leading member axis; a margin's key comes from _format_key alone.

Layout. A layout group is a plant shape group (LargeScaleSystem.
layout_groups, by the grouping rule of the step's shape groups) split
further by the shape of its members' strict basis, so its members share the
template, the slot dims and the basis's shape. Everything in their
invariance and decrease matrices that depends on neither the gains nor xi
is held by one _Layout(system, params, members). Its X-free half, built once
on each Subsystem, is the sorted coupling keys, the stacked g blocks and the
row-space basis of the coupling map [g_1 g_2 ...] from one SVD (each
family's strict basis only adds its identity tail); the layout stacks them
over the members and adds the slot dims, g'X_i, the constant coupling block
-(alpha - 1) g'X_i g and the load n sqrt(alpha) sum_j g_j'X_j g_j, with the
members' constants. Its `stack` emits either family for every member at
once, for a whole stack of vertices or blends, from a constant template
plus a handful of batched products, and symmetrizes once; its `xi_slope`
is either family's constant xi column, compressed as the test matrices
are. Every entry is
the one a block-by-block assembly of its own subsystem computes, by the
same products in the same order: each stacked product is one BLAS call per
matrix with the operands of that matrix, so a group's stack equals its
members' one-member stacks bit for bit; factors of 1/2 move only where
scaling by them is exact (the tests keep that assembly as a reference). A
layout is built once per system and constants and kept on the constants
(FixedParams._layouts), so the four assemblers, the names the benchmark's
layer tracer (perfbench/tracer.py) binds, share it: a certificate check
builds one layout per layout group, not one per assembly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .linalg import (InvalidMatrixError, SingularBlockError, inv_sqrt, is_psd,
                     min_eig, quad_form, singular, sym_matrix)
from .plant import (LargeScaleSystem, _as_gains, _frozen, _is_finite, _shown,
                    _split_rules, _verdict_kept, blend, blend_gains)


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
        if any(map(singular, self.x_eigs)):
            raise SingularBlockError(
                "shape matrix is singular; containment undefined")
        return self.x_inv_stacks

    @cached_property
    def _layouts(self) -> dict:
        """lmis's layouts at these constants: {members: (system, _Layout)},
        for the system each group was last assembled for (lmis._layout)."""
        return {}

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
    """The key of a condition row, vertex (l, m) or None: every margin's."""
    tag = f"{origin}[i={subsystem}"
    if vertex is not None:
        l, m = vertex
        tag += f",l={l},m={m}"
    return tag + "]"


def _compress(mats, basis):
    """sym_matrix(B' M B) for every matrix M of a stack (S, ..., size, size)
    by its member's basis B of a stack (S, size, cols); mats when basis is
    None."""
    if basis is None:
        return mats
    basis = basis.reshape(basis.shape[:1] + (1,) * (mats.ndim - 3)
                          + basis.shape[1:])
    return sym_matrix(basis.swapaxes(-1, -2) @ mats @ basis)


@dataclass(frozen=True)
class LMIInstance:
    """One assembled stack of conditions, with its members, family and
    slot layout."""

    # the stack: (S, P, size, size) over the members s and the pairs or
    # blends p of an invariance or decrease stack; (k, size, size) over the
    # members of a containment stack
    matrix: np.ndarray
    origin: str                      # invariance | decrease | containment
    subsystem: tuple                 # the members, in stack order
    slot_dims: tuple = ()
    # (S, size, cols): each member's compression, or None for none
    strict_basis: np.ndarray | None = field(default=None, compare=False)

    def test_matrix(self) -> np.ndarray:
        """Matrices the conditions are judged on: strict instances are
        compressed onto the complement of structural coupling kernels (each
        matrix of the stack on its own, by its member's basis)."""
        return _compress(self.matrix, self.strict_basis)


def _vertex_pairs(l, m):
    """Index arrays (P,) of the vertex pairs (l[p], m[p])."""
    ls, ms = np.asarray(l), np.asarray(m)
    if ls.ndim != 1 or ls.shape != ms.shape:
        raise ValueError("l and m must be two index sequences of equal "
                         f"length, got shapes {ls.shape} and {ms.shape}")
    return ls, ms


class _Layout:
    """The block layout of a group of one layout (system.layout_groups):
    every part of its members' invariance and decrease matrices that
    depends on neither the gains nor xi (module docstring, "Layout"), with a
    leading member axis. `stack` emits either family."""

    def __init__(self, system: LargeScaleSystem, params: FixedParams,
                 members: tuple):
        subs = self.subs = [system.subsystems[i] for i in members]
        sub = subs[0]
        self.members, self.n = members, system.n_subsystems
        self.n_d, self.n_x, self.n_u = sub.n_d, sub.n_x, sub.n_u
        for i, s in zip(members, subs):
            for j in s.coupling_keys:
                g = s.couplings[j]
                if g.shape[0] != g.shape[1]:
                    raise ValueError(
                        f"subsystem {i}: coupling to {j} is {g.shape}; the "
                        "state-block load g' X_j g needs coupled subsystems "
                        "with equal state dims")
        # so every coupling slot is n_x wide, and the couplings stack
        nc, n_x = len(sub.coupling_keys), sub.n_x
        self.coupling_dims = (n_x,) * nc
        x_i = self.x = np.array([params.X[i] for i in members])
        g = np.array([s.coupling_stack for s in subs])  # (S, nc, n_x, n_x)
        self.gt = g.swapaxes(-1, -2)                   # g_a' per slot a
        self.gx = self.gt @ x_i[:, None]               # g_a' X_i
        self.gx_weight = 1.0 - np.sqrt(params.alpha)   # of g_a' X_i theta
        # -(alpha - 1) g_b' X_i g_a in slot (b, a): below the diagonal, and
        # at half weight on it (see stack)
        slot = np.arange(nc)
        weight = np.greater.outer(slot, slot) + 0.5 * np.eye(nc)
        blocks = -(params.alpha - 1.0) * (self.gx[:, :, None] @ g[:, None])
        self.coupling = (weight[:, :, None, None] * blocks).swapaxes(
            2, 3).reshape(len(subs), nc * n_x, nc * n_x)
        # state-block coupling load: n sqrt(alpha) sum_j g' X_j g
        x_j = np.array([[params.X[j] for j in s.coupling_keys]
                        for s in subs]).reshape(g.shape)
        self.load = self.n * np.sqrt(params.alpha) * (
            self.gt @ x_j @ g).sum(axis=1)
        # of both families' strict bases; its shape is the group's
        self.basis = None if sub.coupling_basis is None else np.array(
            [s.coupling_basis for s in subs])
        # the members' constants, each read as the member's own float
        self.lam, self.n_const, self.tau = (
            np.array([seq[i] for i in members], dtype=float)
            for seq in (params.lam, params.N_const, params.tau))
        self.q = np.array([params.q_mat(i) for i in members])
        self.m = np.array([params.M[i] for i in members])

    def slot_dims(self, family: str) -> tuple:
        """[d | x_i | x_j (sorted j) | slack tail]: the tail is (n_u, n_x)
        for decrease and (n_x,) for invariance."""
        tail = (self.n_u, self.n_x) if family == "decrease" else (self.n_x,)
        return (self.n_d, self.n_x) + self.coupling_dims + tail

    def strict_basis(self, family: str):
        """Per member (S, size, cols), the compression onto the row space of
        its stacked coupling map [g_1 g_2 ...]; None when that map has full
        column rank.

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
        _, c, r = self.basis.shape
        cols = size - c + r
        out = np.zeros((len(self.basis), size, cols))
        diag = np.arange(head)
        out[:, diag, diag] = 1.0                        # I on d, x_i
        out[:, head:head + c, head:head + r] = self.basis
        tail = np.arange(size - head - c)
        out[:, head + c + tail, head + r + tail] = 1.0  # I on the tail
        return out

    def _gains(self, gains) -> np.ndarray:
        """The members' gains (a _Gains) stacked (S, n_gains, n_u, n_x)."""
        return gains.stacked(self.members, len(gains[self.members[0]]))

    def vertex_stacks(self, gains, ls, ms):
        """(theta, E, k) stacks (S, P, ...) of the members at the vertex
        pairs (ls[p], ms[p]): A_l + B_l K_m, E_l and K_m."""
        sub = self.subs[0]
        rows = np.stack([s.rule_rows for s in self.subs])[:, ls]
        a, b, e = _split_rules(rows, sub.n_x, sub.n_u, sub.n_d)
        k = self._gains(gains)[:, ms]
        return a + b @ k, e, k

    def blended_stacks(self, gains, w, h):
        """(theta, E, k) stacks (S, P, ...) of the members at the weight
        pairs (w[p], h[p])."""
        a, b, e = blend(self.subs, w)
        k = blend_gains(self._gains(gains), h)
        return a + b @ k, e, k

    def stack(self, family, theta, e_mu, k_eff, xi):
        """Invariance or decrease matrices of the members, stacked (S, P,
        size, size), for stacks (S, P, ...) of closed-loop matrices theta
        (n_x, n_x), disturbance maps e_mu (n_x, n_d) and gains k_eff (n_u,
        n_x; only decrease reads them), at the members' set sizes xi (S,).

        A constant template (the xi terms, the state block, the coupling
        slots, the slack diagonal) plus the products Xe, e'Xe, theta'Xe,
        g'Xe, (1 - sqrt alpha) g'X theta, Mk and X theta fill the block
        lower triangle, each diagonal block at half weight; adding the
        transpose then mirrors every off-diagonal block and averages each
        diagonal block with its own transpose."""
        n_d, n_x, x = self.n_d, self.n_x, self.x
        decrease = family == "decrease"
        size, head = sum(self.slot_dims(family)), n_d + n_x
        cpl = slice(head, head + self.coupling.shape[-1])
        n_s, n_p = theta.shape[:2]
        tmpl = np.zeros((n_s, size, size))
        if decrease:
            d_coef = xi * self.tau
            state = self.load - x + xi[:, None, None] * self.q
        else:
            d_coef = xi * self.lam * self.n_const
            state = self.load - (1.0 - self.lam)[:, None, None] * x
        diag = np.arange(n_d)
        tmpl[:, diag, diag] = (-0.5 * d_coef)[:, None]     # d block
        tmpl[:, n_d:head, n_d:head] = 0.5 * state
        tmpl[:, cpl, cpl] = self.coupling
        if decrease:
            tmpl[:, cpl.stop:-n_x, cpl.stop:-n_x] = -0.5 * self.m
        tmpl[:, -n_x:, -n_x:] = -0.5 / self.n * x

        mat = np.empty((n_s, n_p, size, size))
        mat[:] = tmpl[:, None]
        # the coupling slots' rows, (S, P, slot, n_x, size): a view of mat
        rows = mat[:, :, cpl].reshape(n_s, n_p, len(self.coupling_dims),
                                      n_x, size)
        theta_t = theta.swapaxes(-1, -2)
        xe = x[:, None] @ e_mu
        mat[:, :, :n_d, :n_d] += 0.5 * (e_mu.swapaxes(-1, -2) @ xe)
        mat[:, :, n_d:head, :n_d] = theta_t @ xe
        rows[..., :n_d] = self.gt[:, None] @ xe[:, :, None]
        rows[..., n_d:head] = self.gx_weight * (self.gx[:, None]
                                                @ theta[:, :, None])
        if decrease:
            mat[:, :, cpl.stop:-n_x, n_d:head] = self.m[:, None] @ k_eff
        mat[:, :, -n_x:, n_d:head] = x[:, None] @ theta
        mat = mat + mat.swapaxes(-1, -2)
        if not np.isfinite(mat).all():
            raise InvalidMatrixError("matrix entries must be finite")
        return mat

    def xi_slope(self, family) -> np.ndarray:
        """Constant xi-derivative of the members' test matrices (S, size,
        size), at any vertex or blend: -lam N I on the disturbance block for
        invariance; -tau I there and +Q on the state block for decrease;
        compressed by each member's strict basis. The slack tail has no xi
        term, so the Schur fold of the full form has the same slope on its
        head."""
        n_d, head = self.n_d, self.n_d + self.n_x
        size = sum(self.slot_dims(family))
        slope = np.zeros((len(self.members), size, size))
        if family == "decrease":
            coef = self.tau
            slope[:, n_d:head, n_d:head] = self.q
        else:
            coef = self.lam * self.n_const
        slope[:, :n_d, :n_d] = -coef[:, None, None] * np.eye(n_d)
        return _compress(slope, self.strict_basis(family))

    def instance(self, family, mats) -> LMIInstance:
        """The LMIInstance of matrices `mats` this layout stacked."""
        return LMIInstance(matrix=mats, origin=family, subsystem=self.members,
                           slot_dims=self.slot_dims(family),
                           strict_basis=self.strict_basis(family))


def _layout(system: LargeScaleSystem, params: FixedParams,
            members) -> _Layout:
    """The layout of `members`, a tuple of subsystem indices of one group
    of system.layout_groups: built once per system and constants, and kept
    on the constants (FixedParams._layouts) for the system last assembled."""
    held = params._layouts.get(members) if isinstance(members, tuple) \
        else None
    if held is not None and held[0] is system:
        return held[1]
    if not (isinstance(members, tuple) and members and any(
            set(members) <= set(group) for group in system.layout_groups)):
        raise ValueError(f"{members!r} is no group of one layout; expected a "
                         "tuple of subsystem indices within one group of "
                         f"system.layout_groups, {system.layout_groups}")
    layout = _Layout(system, params, members)
    params._layouts[members] = (system, layout)
    return layout


def _xi(dv: DecisionVars, members) -> np.ndarray:
    """The members' set sizes, (S,) floats."""
    return np.array([dv.xi[i] for i in members], dtype=float)


def _vertex_instance(system, params, dv, members, l, m, family):
    ls, ms = _vertex_pairs(l, m)
    layout = _layout(system, params, members)
    return layout.instance(family, layout.stack(
        family, *layout.vertex_stacks(dv.gains, ls, ms), _xi(dv, members)))


def _weight_pairs(w, h):
    """Weight stacks (P, n_rules) and (P, n_controller_rules) of P blends,
    as float arrays."""
    w, h = np.asarray(w, dtype=float), np.asarray(h, dtype=float)
    if w.ndim != 2 or h.ndim != 2 or len(w) != len(h):
        raise ValueError("w and h must be two weight stacks of equal "
                         f"length, got shapes {w.shape} and {h.shape}")
    return w, h


def _blended_instance(system, params, dv, members, w, h, family):
    w, h = _weight_pairs(w, h)
    layout = _layout(system, params, members)
    return layout.instance(family, layout.stack(
        family, *layout.blended_stacks(dv.gains, w, h), _xi(dv, members)))


def assemble_invariance(system: LargeScaleSystem, params: FixedParams,
                        dv: DecisionVars, members, l, m) -> LMIInstance:
    """Invariant-set conditions of the members (a tuple of subsystem
    indices within one group of system.layout_groups) at the vertices
    (model rule l[p], controller rule m[p]) of equal-length index sequences
    l, m: one instance whose matrix is the stack (S, P, size, size) of the
    S members' P vertices; the layout is built once for the whole stack."""
    return _vertex_instance(system, params, dv, members, l, m, "invariance")


def assemble_invariance_blended(system, params, dv, members, w,
                                h) -> LMIInstance:
    """Invariance conditions of the members with membership-blended
    matrices: weight stacks w (P, n_rules) and h (P, n_controller_rules),
    shared by the members, give one instance whose matrix is the stack (S,
    P, size, size) of the S members' P blends."""
    return _blended_instance(system, params, dv, members, w, h, "invariance")


def assemble_decrease(system: LargeScaleSystem, params: FixedParams,
                      dv: DecisionVars, members, l, m) -> LMIInstance:
    """Cost-decrease conditions at the vertices (l[p], m[p]); sense is
    strict. A vertex stack, as for assemble_invariance."""
    return _vertex_instance(system, params, dv, members, l, m, "decrease")


def assemble_decrease_blended(system, params, dv, members, w,
                              h) -> LMIInstance:
    """Cost-decrease conditions with membership-blended matrices; weight
    stacks as for assemble_invariance_blended."""
    return _blended_instance(system, params, dv, members, w, h, "decrease")


def containment_sizes(params: FixedParams, x_all) -> list:
    """Per subsystem: the smallest set size whose set {x' (X_i/xi) x <= xi}
    holds its state x_all[i], sqrt(x' X_i x), from one stacked call per
    group of equal-shape X_i, each bit for bit its own one-member call."""
    return params.ungroup(
        np.sqrt(quad_form(x, x_mat)).tolist()
        for x_mat, x in zip(params.x_stacks, params.group_stacks(x_all)))


def assemble_containment(params: FixedParams, members, x, xi) -> LMIInstance:
    """State-containment certificates [[xi_i, x_i'], [x_i, X_i^{-1} xi_i]]
    >= 0, each equivalent to x_i' (X_i/xi_i) x_i <= xi_i, of the members of
    a group of params.x_groups, from their states stacked (k, n) and their
    k set sizes: one instance whose matrix is the stack (k, n + 1, n + 1)
    of the members' blocks. X_i^{-1} is the checked params.shape_inverses."""
    inverses = params.shape_inverses    # raises when an X_i is singular
    if not isinstance(members, tuple) or members not in params.x_groups:
        raise ValueError(f"{members!r} is no shape group of the constants; "
                         "expected a group of params.x_groups (a tuple of "
                         f"subsystem indices), one of {params.x_groups}")
    inv = inverses[params.x_groups.index(members)]
    xi, x = np.asarray(xi, dtype=float), np.asarray(x, dtype=float)
    size = x.shape[-1] + 1
    mat = np.empty((len(xi), size, size))
    mat[:, 0, 0] = xi
    mat[:, 0, 1:] = mat[:, 1:, 0] = x
    mat[:, 1:, 1:] = xi[:, None, None] * inv
    return LMIInstance(matrix=sym_matrix(mat), origin="containment",
                       subsystem=members)


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

"""Finite-dimensional verification lab for superquadratic operator inequalities.

Setting: operators are d x d Hermitian PSD matrices on l2 with standard-basis
kernels, so every Berezin transform is a diagonal entry and every positive
unital map is read through the diagonal of its image.  The module provides

* a small catalog of scalar functions (powers, negative constants, custom),
* functional calculus and positive maps (identity / pinching / compression),
* slack computations for the pointwise superquadratic bound, the scalar and
  operator Popoviciu inequalities, the single-operator refinement and its
  intermediate bound, the Berezin set mapping identity, and the derivative
  form of the Berezin-number proposition,
* a seeded randomized harness with per-trial RNG streams.

Slacks are reported as (left side) - (right side) of the claimed "LHS >= RHS"
inequality, so nonnegative (up to roundoff) means the inequality holds.
"""
from __future__ import annotations

import collections
import dataclasses
from typing import Callable, Sequence

import numpy as np

from .kernels import as_size

__all__ = [
    "ScalarFunction",
    "PositiveMap",
    "MappingReport",
    "TrialReport",
    "SLACK_TOL",
    "superquadratic_pointwise_check",
    "scalar_popoviciu_check",
    "functional_calculus",
    "abs_op",
    "berezin_mapping_check",
    "random_psd",
    "random_isometry",
    "run_trials",
    "parse_function",
    "TRIAL_CHECKS",
    "CHECK_REQUIRES",
    "checks_for",
]

HERMITIAN_TOL = 1e-12
PSD_EIG_TOL = -1e-12
UNITAL_TOL = 1e-12
CONDITION18_TOL = 1e-10

# Operator-inequality slacks below this are genuine violations, not roundoff.
SLACK_TOL = -1e-9


# ---------------------------------------------------------------------------
# scalar function catalog
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ScalarFunction:
    """A scalar function together with the hypothesis flags the checks need.

    ``derivative`` is f'.  It is also the constant chooser C_x of the
    superquadratic definition f(y) >= f(x) + C_x (y - x) + f(|y - x|): for
    a differentiable superquadratic f with f(0) = f'(0) = 0, C_x = f'(x)
    (Abramovich, Jameson and Sinnamon 2004), and for a negative constant
    both are 0.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray] | None = None
    superquadratic: bool = False
    nonnegative: bool = False
    convex: bool = False

    @property
    def differentiable(self) -> bool:
        return self.derivative is not None

    def __call__(self, t):
        out = self.fn(np.asarray(t, dtype=float))
        return float(out) if np.ndim(out) == 0 else out

    @classmethod
    def power(cls, p: float) -> "ScalarFunction":
        """f(t) = t**p on [0, inf), p >= 1.

        Superquadratic and nonnegative for p >= 2 (with f(0) = f'(0) = 0);
        convex for all p >= 1.
        """
        p = float(p)
        if not np.isfinite(p):
            raise ValueError(f"power exponent must be finite, got {p}")
        if p < 1.0:
            raise ValueError("power catalog requires p >= 1")

        def fn(t, p=p):
            base = t if p == int(p) else np.clip(t, 0.0, None)
            return np.power(base, p)

        def deriv(t, p=p):
            base = t if p - 1 == int(p - 1) else np.clip(t, 0.0, None)
            return p * np.power(base, p - 1.0)

        return cls(
            name=f"power:{p:g}",
            fn=fn,
            derivative=deriv,
            superquadratic=p >= 2.0,
            nonnegative=True,
            convex=True,
        )

    @classmethod
    def neg_const(cls, c: float = 1.5) -> "ScalarFunction":
        """f identically -c with c in [1, 2]: superquadratic with C_x = 0."""
        c = float(c)
        if not (1.0 <= c <= 2.0):
            raise ValueError("neg_const catalog requires c in [1, 2]")
        return cls(
            name=f"neg-const:{c:g}",
            fn=lambda t, c=c: np.full_like(np.asarray(t, dtype=float), -c),
            derivative=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            superquadratic=True,
            nonnegative=False,
            convex=True,
        )


def parse_function(text: str) -> ScalarFunction:
    """Parse CLI shorthand: 'power:2', 'power:2.5', 'neg-const', 'neg-const:1.25'."""
    head, _, arg = text.strip().partition(":")
    if head not in ("power", "neg-const", "neg_const"):
        raise ValueError(f"unknown function spec: {text!r}")
    if head == "power" and not arg:
        raise ValueError("power requires an exponent, e.g. power:2")
    try:
        value = float(arg) if arg else 1.5
    except ValueError as exc:
        raise ValueError(f"cannot parse function spec {text!r}: {exc}") from None
    return ScalarFunction.power(value) if head == "power" else ScalarFunction.neg_const(value)


# ---------------------------------------------------------------------------
# scalar inequalities
# ---------------------------------------------------------------------------

def superquadratic_pointwise_check(f: ScalarFunction, x, y):
    """Slack of the defining bound f(y) >= f(x) + C_x (y - x) + f(|y - x|).

    Vectorized over arrays of nonnegative x, y; >= -1e-12 for every
    superquadratic catalog function.
    """
    _require(f, "eq1")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return f(y) - f(x) - f.derivative(x) * (y - x) - f(np.abs(y - x))


def scalar_popoviciu_check(f: ScalarFunction, x, y, z):
    """Slack of the three-point convexity inequality.

    RHS - LHS of
        2/3 [f((x+y)/2) + f((y+z)/2) + f((x+z)/2)]
            <= f((x+y+z)/3) + (f(x)+f(y)+f(z))/3,
    vectorized; equality at f(t) = t.
    """
    _require(f, "eq2")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    rhs = f((x + y + z) / 3.0) + (f(x) + f(y) + f(z)) / 3.0
    lhs = (2.0 / 3.0) * (f((x + y) / 2.0) + f((y + z) / 2.0) + f((x + z) / 2.0))
    return rhs - lhs


# ---------------------------------------------------------------------------
# operators, functional calculus, positive maps
# ---------------------------------------------------------------------------

def _adjoint(M: np.ndarray) -> np.ndarray:
    return M.conj().swapaxes(-1, -2)


def _diagonal(M: np.ndarray) -> np.ndarray:
    return np.diagonal(M, axis1=-2, axis2=-1)


def _diagonal_part(M: np.ndarray) -> np.ndarray:
    """M with its off-diagonal entries set to zero."""
    out = np.zeros_like(M)
    ix = np.arange(M.shape[-1])
    out[..., ix, ix] = M[..., ix, ix]
    return out


def _times_eye(s, d: int) -> np.ndarray:
    """s I for a scalar s, or the stack of s_i I for an array s."""
    return np.multiply.outer(s, np.eye(d))


def _stack_note(bad: np.ndarray) -> str:
    """Where the first True of a per-matrix mask sits; empty for one operator."""
    return "" if bad.ndim == 0 else f" (matrix {int(np.argmax(bad))} of the stack)"


def _unstacked(x):
    """A 0-d result as the Python scalar that one operator gives."""
    return np.asarray(x).item() if np.ndim(x) == 0 else x


def _as_hermitian(A) -> np.ndarray:
    M = np.asarray(A, dtype=complex)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2]:
        raise ValueError("operator must be a square matrix or a (k, d, d) stack of them")
    defect = np.max(np.abs(M - _adjoint(M)), axis=(-2, -1))
    bad = defect > HERMITIAN_TOL
    if np.any(bad):
        raise ValueError(f"operator is not Hermitian within 1e-12{_stack_note(bad)}")
    return 0.5 * (M + _adjoint(M))


def _eigh(A: np.ndarray):
    try:
        return np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise RuntimeError(f"eigensolver failed to converge: {exc}") from exc


def _recompose(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """U diag(w) U* for eigenvectors U = v, made exactly Hermitian."""
    out = (v * w[..., None, :]) @ _adjoint(v)
    return 0.5 * (out + _adjoint(out))


def functional_calculus(A, f: ScalarFunction | Callable) -> np.ndarray:
    """f(A) = U diag(f(lambda_i)) U* for PSD Hermitian A.

    A may be one d x d matrix or a (k, d, d) stack; a stack gives each
    matrix's f(A), bit for bit.  Eigenvalues below -1e-12 raise "operator
    not positive" (naming the first such matrix of a stack); tiny negative
    roundoff is clamped to 0 so catalog functions stay on their [0, inf)
    domain.
    """
    M = _as_hermitian(A)
    w, v = _eigh(M)
    low = w[..., 0]
    bad = low < PSD_EIG_TOL
    if np.any(bad):
        raise ValueError(
            f"operator not positive{_stack_note(bad)} "
            f"(min eigenvalue {low.flat[int(np.argmax(bad))]:.3e})"
        )
    w = np.clip(w, 0.0, None)
    return _recompose(v, np.asarray(f(w), dtype=float))


def abs_op(A) -> np.ndarray:
    """Operator absolute value |A| via eigenvalue absolute values.

    Defined for any Hermitian A, one matrix or a (k, d, d) stack (no
    positivity requirement): this is what restores positivity in
    expressions like |X - sI|.
    """
    w, v = _eigh(_as_hermitian(A))
    return _recompose(v, np.abs(w))


_MAP_KINDS = ("identity", "pinching", "compression")


@dataclasses.dataclass(frozen=True, eq=False)
class PositiveMap:
    """A unital positive linear map: identity, pinching, or compression.

    ``diagonal`` takes one matrix or a (k, d, d) stack.  A compression may carry
    one isometry per matrix of a stack: V is then (k, d, m).  An unknown
    kind, a V given to another kind, and a compression whose V is no
    isometry are refused at construction; as Phi(I) = V*V, every map is then
    unital.  Equality and hashing go by identity: the ndarray field ``V`` is
    unhashable and compares elementwise.
    """

    kind: str
    V: np.ndarray | None = None  # (d, m) or (k, d, m) isometry columns, m <= d

    def __post_init__(self) -> None:
        if self.kind not in _MAP_KINDS:
            raise ValueError(f"unknown map kind: {self.kind!r}")
        if self.kind != "compression":
            if self.V is not None:
                raise ValueError(f"{self.kind!r} map takes no V")
            return
        V = np.asarray(self.V, dtype=complex)
        if V.ndim not in (2, 3) or V.shape[-1] > V.shape[-2]:
            raise ValueError("V must be d x m with m <= d, or a (k, d, m) stack")
        gram_defect = np.max(np.abs(_adjoint(V) @ V - np.eye(V.shape[-1])))
        if gram_defect > UNITAL_TOL:
            raise ValueError(
                f"compression requires V*V = I (defect {gram_defect:.3e})"
            )
        object.__setattr__(self, "V", V)

    @classmethod
    def identity(cls) -> "PositiveMap":
        return cls("identity")

    @classmethod
    def pinching(cls) -> "PositiveMap":
        """A |-> the diagonal part of A (the pinching along singletons)."""
        return cls("pinching")

    @classmethod
    def compression(cls, V) -> "PositiveMap":
        """A |-> V* A V for an isometry V (columns orthonormal), or a stack."""
        return cls("compression", V=V)

    def diagonal(self, X) -> np.ndarray:
        """The complex diagonal of Phi(X), which holds every Berezin scalar.

        A pinching keeps X's diagonal, so it reads the identity's, in place.
        """
        X = np.asarray(X, dtype=complex)
        if self.kind != "compression":
            return _diagonal(X)
        d = X.shape[-1]
        if self.V.shape[-2] != d:
            raise ValueError(
                f"dimension mismatch: map expects dimension {self.V.shape[-2]}, got {d}"
            )
        return _diagonal(_adjoint(self.V) @ X @ self.V)


# ---------------------------------------------------------------------------
# operator inequalities
# ---------------------------------------------------------------------------
#
# Each check takes one operator (a float slack) or (k, d, d) stacks with one
# index mu per matrix (an array of k slacks).  Both run the same code, so a
# stack's slacks equal the per-matrix slacks bit for bit.

def _berezin_of_map(phi: PositiveMap, X, mu):
    """(Phi(X))~(mu): the mu-th diagonal entry, with one mu per matrix of a stack."""
    diag = phi.diagonal(X)
    mu = np.broadcast_to(mu, diag.shape[:-1])
    return _unstacked(np.take_along_axis(diag, mu[..., None], axis=-1)[..., 0].real)


def _f_abs_term(f, phi, X, s, mu):
    """(Phi(f(|X - s I|)))~(mu) -- the recurring correction term."""
    shifted = X - _times_eye(s, X.shape[-1])
    return _berezin_of_map(phi, functional_calculus(abs_op(shifted), f), mu)


# The slacks below take A already Hermitian and its f(A): run_trials computes
# both once per stack for every check.  Their callers have checked f's
# hypotheses, and every PositiveMap is unital by construction.

def _popoviciu_slack(f, phi, A, B, C, mu, fA):
    """Slack (LHS - RHS) of the three-operator Popoviciu refinement, exactly
    as displayed: the 2/3 bracket of pair terms and the 1/3 bracket of six
    correction terms (three operator f-terms at the paired Berezin scalars,
    three scalar f(|...|) terms at the sixth-difference combinations).
    """
    B, C = _as_hermitian(B), _as_hermitian(C)
    if not (A.shape == B.shape == C.shape):
        raise ValueError("dimension mismatch among the three operators")
    fB, fC = functional_calculus(B, f), functional_calculus(C, f)
    lhs = _berezin_of_map(phi, (fA + fB + fC) / 3.0, mu) + f(
        _berezin_of_map(phi, (A + B + C) / 3.0, mu)
    )

    s_bc = _berezin_of_map(phi, (B + C) / 2.0, mu)
    s_ab = _berezin_of_map(phi, (A + B) / 2.0, mu)
    s_ac = _berezin_of_map(phi, (A + C) / 2.0, mu)
    pair = (2.0 / 3.0) * (f(s_ab) + f(s_bc) + f(s_ac))

    corr = (1.0 / 3.0) * (
        _f_abs_term(f, phi, A, s_bc, mu)
        + f(abs(_berezin_of_map(phi, (2.0 * A - B - C) / 6.0, mu)))
        + _f_abs_term(f, phi, C, s_ab, mu)
        + f(abs(_berezin_of_map(phi, (2.0 * C - A - B) / 6.0, mu)))
        + _f_abs_term(f, phi, B, s_ac, mu)
        + f(abs(_berezin_of_map(phi, (2.0 * B - A - C) / 6.0, mu)))
    )
    return _unstacked(lhs - pair - corr)


def _intermediate_slack(f, phi, T, x, mu, fT):
    """Slack of the intermediate pointwise-to-operator bound

        (Phi(f(T)))~(mu) >= f(x) + C_x (Phi(T - xI))~(mu)
                            + (Phi(f(|T - xI|)))~(mu)

    for PSD T and scalar x >= 0 (one x per matrix of a stack).  This is the
    single-point engine behind the refinement corollaries; it is a true
    inequality for every superquadratic catalog function.
    """
    x = np.asarray(x, dtype=float)
    lhs = _berezin_of_map(phi, fT, mu)
    linear = f.derivative(x) * _berezin_of_map(phi, T - _times_eye(x, T.shape[-1]), mu)
    return _unstacked(lhs - f(x) - linear - _f_abs_term(f, phi, T, x, mu))


def _c1_slack(f, phi, A, mu, fA):
    """Slack of the single-operator refinement

        -f(0) >= f((Phi(A))~(mu)) - (Phi(f(A)))~(mu)
                 + (Phi(f(|A - (Phi(A))~(mu) I|)))~(mu).
    """
    a = _berezin_of_map(phi, A, mu)
    rhs = f(a) - _berezin_of_map(phi, fA, mu) + _f_abs_term(f, phi, A, a, mu)
    return _unstacked(-f(0.0) - rhs)


# ---------------------------------------------------------------------------
# mapping identity and the derivative proposition
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class MappingReport:
    """Outcome of the Berezin set mapping check f(Ber(Phi(A))) = Ber(Phi(f(A))).

    For a (k, d, d) stack every field has a leading axis of length k, and
    ``condition18_failing`` holds one tuple of indices per matrix.
    """

    failing: np.ndarray  # where condition (18) fails
    identity_checked: bool | np.ndarray
    identity_max_dev: float | np.ndarray
    lhs_values: np.ndarray  # f applied to diag of Phi(A)
    rhs_values: np.ndarray  # diag of Phi(f(A))

    @property
    def condition18_failing(self) -> tuple:
        """The indices where condition (18) fails."""
        indices = tuple(tuple(int(i) for i in np.flatnonzero(row))
                        for row in self.failing.reshape(-1, self.failing.shape[-1]))
        return indices[0] if self.failing.ndim == 1 else indices

    @property
    def condition18_pass_rate(self) -> float | np.ndarray:
        """The share of indices where condition (18) holds."""
        failing = self.failing
        return _unstacked(1.0 - np.count_nonzero(failing, axis=-1) / failing.shape[-1])


def berezin_mapping_check(f: ScalarFunction, phi: PositiveMap, A) -> MappingReport:
    """Check condition (18) f((Phi(A))~(mu)) >= (Phi(f(A)))~(mu) at every index,
    and assert the mapping identity only when it holds everywhere.

    When (18) fails at any index the identity is not asserted; the failing
    indices are reported instead.
    """
    H = _as_hermitian(A)
    return _mapping_report(f, phi, H, functional_calculus(H, f))


def _mapping_report(f, phi, A, fA) -> MappingReport:
    lhs = np.asarray(f(np.real(phi.diagonal(A))), dtype=float)
    rhs = np.real(phi.diagonal(fA))
    failing = lhs < rhs - CONDITION18_TOL
    fails = np.any(failing, axis=-1)
    max_dev = np.where(fails, np.inf, np.max(np.abs(lhs - rhs), axis=-1))
    return MappingReport(failing, _unstacked(~fails), _unstacked(max_dev), lhs, rhs)


def _ber_sup_slack(g, phi: PositiveMap, A):
    """ber(Phi(g(A))) - sup_mu g((Phi(A))~(mu)) for A already Hermitian.

    At g = f' this is the slack of the derivative form of the Berezin-number
    proposition

        ber(Phi(f'(A))) >= sup_mu f'((Phi(A))~(mu))

    for nonnegative superquadratic f with f(0) = f'(0) = 0 and f' convex,
    for one operator or a (k, d, d) stack.
    """
    diag = np.real(phi.diagonal(A))
    # abs, not real: a compression's diagonal keeps a roundoff imaginary part
    ber = np.max(np.abs(phi.diagonal(functional_calculus(A, g))), axis=-1)
    return _unstacked(ber - np.max(g(diag), axis=-1))


# ---------------------------------------------------------------------------
# randomized harness
# ---------------------------------------------------------------------------

def _gaussians(rng, d: int) -> np.ndarray:
    """A complex Gaussian d x d draw from a Generator, or draws already made.

    Draws already made are a (d, d) matrix or a (k, d, d) stack of them.
    """
    if isinstance(rng, np.random.Generator):
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    G = np.asarray(rng, dtype=complex)
    if G.ndim not in (2, 3) or G.shape[-2:] != (d, d):
        raise ValueError(f"expected ({d}, {d}) Gaussian draws, got shape {G.shape}")
    return G


def random_psd(rng, dim: int) -> np.ndarray:
    """Seeded random PSD matrix with spectrum scaled into [0, 10].

    G G* + 1e-6 I for a complex Gaussian G keeps the matrix comfortably
    positive; the rescaling pins the top eigenvalue at 10 so every
    trial exercises the full catalog domain.  ``rng`` is a Generator, or
    the Gaussians G themselves: a (k, dim, dim) stack of them gives the
    (k, dim, dim) stack of matrices, each bit for bit as if drawn alone.
    """
    G = _gaussians(rng, dim)
    A = G @ _adjoint(G) + 1e-6 * np.eye(dim)
    top = np.linalg.eigvalsh(A)[..., -1]
    return A * (10.0 / top)[..., None, None]


def random_isometry(rng, d: int, m: int) -> np.ndarray:
    """First m columns of the Q factor of a random complex Gaussian.

    ``rng`` is a Generator or the Gaussians themselves, as for random_psd.
    """
    q, _ = np.linalg.qr(_gaussians(rng, d))
    return q[..., :m]


TRIAL_CHECKS = ("eq1", "eq2", "eq4", "eq5", "eq16", "eq21", "mapping")

# The ScalarFunction flags each check's hypotheses need, read through
# checks_for and _require alone.  The eq21 flags give f(0) = f'(0) = 0 and a
# convex f' on [0, inf).
CHECK_REQUIRES = {
    "eq1": ("superquadratic",),
    "eq2": ("convex",),
    "eq4": ("superquadratic",),
    "eq5": ("superquadratic",),
    "eq16": ("superquadratic",),
    "eq21": ("superquadratic", "nonnegative", "differentiable"),
    "mapping": (),
}


def _require(f: ScalarFunction, check: str) -> None:
    """Raise unless f has every flag that ``CHECK_REQUIRES[check]`` names."""
    missing = [flag for flag in CHECK_REQUIRES[check] if not getattr(f, flag)]
    if missing:
        raise ValueError(
            f"check {check!r} requires a {' '.join(missing)} function; "
            f"{f.name} violates: {missing[0]}"
        )


def checks_for(f: ScalarFunction, requested: Sequence[str] | None = None) -> tuple[str, ...]:
    """The checks to run on f: every requested one, each of which must have
    its hypotheses met, or by default every trial check whose hypotheses f
    meets."""
    if requested:
        for check in requested:
            _require(f, check)
        return tuple(requested)
    return tuple(c for c in TRIAL_CHECKS
                 if all(getattr(f, flag) for flag in CHECK_REQUIRES[c]))

# Trials of one dimension are evaluated in stacks of (k, d, d) complex
# matrices of at most this many bytes (32 trials at d = 8).  A check keeps a
# few dozen such stacks alive, so this bounds the harness's memory whatever
# the trial count; larger stacks saved little time and added megabytes.
_STACK_BYTES = 2**15


def _map_dim(map_kind: str, d: int) -> int:
    return max(1, d // 2) if map_kind == "compression" else d


def _draw_stack(rngs, map_kind: str, checks, d: int) -> dict:
    """The stacked inputs of trials of dimension d, each drawn from its own
    stream after the dimension, always in this order: the compression's
    Gaussian, the kernel index, A's Gaussian, then the inputs of eq1, eq2,
    eq4 (B's and C's Gaussians) and eq5."""
    draws = collections.defaultdict(list)
    for rng in rngs:
        if map_kind == "compression":
            draws["isometry"].append(_gaussians(rng, d))
        draws["mu"].append(int(rng.integers(_map_dim(map_kind, d))))
        draws["A"].append(_gaussians(rng, d))
        if "eq1" in checks:
            draws["eq1"].append(rng.uniform(0.0, 10.0, size=2))
        if "eq2" in checks:
            draws["eq2"].append(rng.uniform(0.0, 10.0, size=3))
        if "eq4" in checks:
            draws["B"].append(_gaussians(rng, d))
            draws["C"].append(_gaussians(rng, d))
        if "eq5" in checks:
            draws["eq5"].append(rng.uniform(0.0, 10.0))
    return {key: np.array(values) for key, values in draws.items()}


def _psd_stack(draws: np.ndarray, diag_only: bool) -> np.ndarray:
    A = random_psd(draws, draws.shape[-1])
    return _diagonal_part(A) if diag_only else A


@dataclasses.dataclass(frozen=True)
class TrialReport:
    """Randomized-harness outcome for one (function, map) configuration."""

    seed: int
    trials: int
    dims: tuple[int, ...]
    function: str
    map: str
    min_slacks: dict
    argmin_trial: dict
    skipped: tuple[str, ...]
    condition18_pass_rate: float | None

    def min_slack(self) -> float:
        if not self.min_slacks:
            raise ValueError(f"no check applied to {self.function}: {self.skipped}")
        return min(self.min_slacks.values())

    def worst_check(self) -> str:
        return min(self.min_slacks, key=self.min_slacks.get)

    def to_json_dict(self) -> dict:
        worst = self.worst_check() if self.min_slacks else None
        return {
            "schema": 1,
            "seed": self.seed,
            "trials": self.trials,
            "dims": list(self.dims),
            "function": self.function,
            "map": self.map,
            "min_slack": self.min_slack() if self.min_slacks else None,
            "argmin_trial": self.argmin_trial[worst] if worst else None,
            "argmin_check": worst,
            "condition18_pass_rate": self.condition18_pass_rate,
            "per_check_min_slack": dict(self.min_slacks),
            "skipped_checks": list(self.skipped),
        }


def run_trials(
    f: ScalarFunction,
    map_kind: str = "identity",
    checks: Sequence[str] = ("eq4", "eq16"),
    trials: int = 1000,
    dims: Sequence[int] = (2, 3, 4, 5, 6, 7, 8),
    seed: int = 42,
    diag_only: bool = False,
) -> TrialReport:
    """Run seeded randomized trials of the selected operator checks.

    Per-trial RNG streams are derived from the root seed with SeedSequence,
    so results are reproducible and independent of any execution order.  The
    report records the minimum slack per check and which trial attained it.

    Each stream first draws its trial's dimension.  Trials of equal
    dimension then draw the rest of their inputs (see ``_draw_stack``) and
    are evaluated together, each check once per stack of at most
    ``_STACK_BYTES``, which gives every trial the slack it would get alone,
    bit for bit.  A check whose hypotheses f does not meet is refused, with
    the message of ``checks_for``.

    The "mapping" check is special: condition (18) is a runtime-checked
    hypothesis, not an inequality, so trials where it fails contribute only
    to the pass rate; trials where it holds record the (negated) identity
    deviation as the slack.  ``diag_only`` restricts inputs to diagonal
    matrices, the regime where (18) holds with equality.
    """
    checks = tuple(checks)
    for c in checks:
        if c not in TRIAL_CHECKS:
            raise ValueError(f"unknown check {c!r}; choose from {TRIAL_CHECKS}")
    if map_kind not in _MAP_KINDS:
        raise ValueError(f"unknown map kind: {map_kind!r}")
    dims = tuple(as_size(d, "dimension", 1) for d in dims)
    if not dims:
        raise ValueError("dims must be one or more dimensions, got ()")
    for c in checks:
        _require(f, c)
    trials = as_size(trials, "trials", 0)
    seed = as_size(seed, "seed", 0)
    root = np.random.SeedSequence(seed)

    # Per check, the least recorded slack as (slack, trial), and the earliest
    # non-finite one as (trial, slack): mapping records none where condition
    # (18) fails on finite values.  Overflow and invalid operations warn
    # nothing here; they leave non-finite recorded slacks, rejected by name
    # below.  Stacks arrive out of trial order, so equal slacks go to the
    # earliest trial; within a stack the trials ascend.
    least, non_finite = {}, {}

    def record(check, ix, values):
        values = np.asarray(values, dtype=float)
        finite = np.isfinite(values)
        if not finite.all():
            j = int(np.argmax(~finite))
            non_finite[check] = min(non_finite.get(check, (trials, 0.0)), (int(ix[j]), values[j]))
        elif values.size:
            j = int(np.argmin(values))
            least[check] = min(least.get(check, (np.inf, trials)), (float(values[j]), int(ix[j])))

    uses_fA = any(c in checks for c in ("eq4", "eq5", "eq16", "mapping"))

    def evaluate(d: int, batch) -> int:
        """Record the slacks of one stack of (trial, stream) pairs of
        dimension d; return how many of them meet condition (18)."""
        ix = np.array([t for t, _ in batch])
        g = _draw_stack([rng for _, rng in batch], map_kind, checks, d)
        V = None
        if map_kind == "compression":
            V = random_isometry(g["isometry"], d, _map_dim(map_kind, d))
        phi = PositiveMap(map_kind, V)
        A = _as_hermitian(_psd_stack(g["A"], diag_only))
        fA = functional_calculus(A, f) if uses_fA else None
        mu = g["mu"]
        if "eq1" in checks:
            x, y = np.ascontiguousarray(g["eq1"].T)
            record("eq1", ix, superquadratic_pointwise_check(f, x, y))
        if "eq2" in checks:
            x, y, z = np.ascontiguousarray(g["eq2"].T)
            record("eq2", ix, scalar_popoviciu_check(f, x, y, z))
        if "eq4" in checks:
            B, C = (_psd_stack(g[key], diag_only) for key in ("B", "C"))
            record("eq4", ix, _popoviciu_slack(f, phi, A, B, C, mu, fA))
        if "eq5" in checks:
            record("eq5", ix, _intermediate_slack(f, phi, A, g["eq5"], mu, fA))
        if "eq16" in checks:
            record("eq16", ix, _c1_slack(f, phi, A, mu, fA))
        if "eq21" in checks:
            record("eq21", ix, _ber_sup_slack(f.derivative, phi, A))
        if "mapping" not in checks:
            return 0
        mp = _mapping_report(f, phi, A, fA)
        # (18) decided on values that overflowed is no failed hypothesis
        sane = np.isfinite(mp.lhs_values).all(-1) & np.isfinite(mp.rhs_values).all(-1)
        kept = mp.identity_checked | ~sane
        record("mapping", ix[kept], -mp.identity_max_dev[kept])
        return int(np.count_nonzero(mp.identity_checked))

    # Streams wait in one batch per dimension and a batch is evaluated as
    # soon as it fills a stack, so memory stays bounded whatever the trial
    # count.  Stream t is root.spawn's child t, made only when it is needed.
    cond18_pass = 0
    pending = collections.defaultdict(list)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence(root.entropy, spawn_key=(t,)))
            d = dims[int(rng.integers(len(dims)))]
            pending[d].append((t, rng))
            if len(pending[d]) == max(1, _STACK_BYTES // (16 * d * d)):
                cond18_pass += evaluate(d, pending.pop(d))
        for d, batch in sorted(pending.items()):
            cond18_pass += evaluate(d, batch)

    for c in checks:
        if c in non_finite:
            t, value = non_finite[c]
            raise ValueError(
                f"check {c} gave a non-finite slack ({value}) at trial {t} "
                f"for {f.name}: a value overflowed or was undefined"
            )
    argmin = {c: least[c][1] if c in least else -1 for c in checks}
    mins = {c: least[c][0] for c in checks if c in least}
    pass_rate = cond18_pass / trials if "mapping" in checks and trials else None
    skipped = tuple(c for c in checks if c not in mins)
    return TrialReport(
        seed=seed,
        trials=trials,
        dims=dims,
        function=f.name,
        map=map_kind,
        min_slacks=mins,
        argmin_trial=argmin,
        skipped=skipped,
        condition18_pass_rate=pass_rate,
    )

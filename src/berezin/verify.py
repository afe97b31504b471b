"""Named verification suites: each re-derives a published identity or bound
and reports the worst deviation against a pinned threshold.

Every suite returns a list of CheckResult rows; a row fails when its measured
deviation exceeds the threshold.  Two checks fail by design and are kept
failing on purpose, because the identities they test are stated in a stronger
form than actually holds (see the README's known-failing section):

* ``blaschke / real-axis-fourth-power-identity`` — on the real axis the
  Bergman Blaschke transform matches the SECOND power of (1 - r|alpha|^2),
  not the fourth.
* ``inequalities / three-operator-refinement-as-displayed`` — the displayed
  three-operator refinement has negative slack for power functions; its
  single-operator specialization (also checked here) is the true bound.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import closed_form as cf
from . import geometry
from . import inequalities as ineq
from . import kernels
from . import matrix_oracle as oracle
from . import symbols

__all__ = ["CheckResult", "SUITES", "run_suite"]

# Root seed for every randomized check below; fixed so runs are reproducible.
_SEED = 1729


@dataclasses.dataclass(frozen=True)
class CheckResult:
    """One verification check: measured deviation against a pinned threshold."""

    suite: str
    name: str
    deviation: float
    threshold: float
    detail: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "deviation", float(self.deviation))
        object.__setattr__(self, "threshold", float(self.threshold))

    @property
    def passed(self) -> bool:
        return self.deviation <= self.threshold

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "check": self.name,
            "passed": self.passed,
            "deviation": self.deviation,
            "threshold": self.threshold,
            "detail": self.detail,
        }


def _bool_check(suite: str, name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(suite, name, 0.0 if ok else 1.0, 0.5, detail)


def _sample(space, symbol, grid=None) -> np.ndarray:
    grid = grid or cf.PolarGrid.regular()
    return cf.sample_range(space, symbol, grid).values


# ---------------------------------------------------------------------------
# closed-form suites
# ---------------------------------------------------------------------------

def suite_hardy_elliptic() -> list[CheckResult]:
    s = "hardy-elliptic"
    out = []
    vals = _sample(kernels.HARDY, symbols.elliptic(1.0))
    out.append(CheckResult(s, "constant-at-alpha-1", float(np.max(np.abs(vals - 1.0))), 1e-12))

    segment = cf.sample_range(kernels.HARDY, symbols.elliptic(-0.5), cf.PolarGrid.regular())
    re, im = segment.values.real, segment.values.imag
    out.append(CheckResult(s, "real-segment-imaginary-part", float(np.max(np.abs(im))), 1e-12))
    out.append(
        CheckResult(
            s,
            "real-segment-in-unit-interval",
            float(max(np.max(re) - 1.0, -np.min(re))),
            1e-12,
            f"min={np.min(re):.6e} max={np.max(re):.6e}",
        )
    )
    out.append(
        CheckResult(
            s,
            "real-segment-reaches-0.01",
            float(max(0.0, np.min(re) - 0.01)),
            0.0,
            f"min={np.min(re):.6e}",
        )
    )
    rep = geometry.classify_range(segment)
    out.append(_bool_check(s, "real-segment-verdict-convex", rep.verdict == "CONVEX", rep.verdict))

    grid = segment.grid
    for alpha in (-0.5, 0.3, 0.25 + 0.25j, 0.8j):
        vals = (segment.values if alpha == -0.5
                else _sample(kernels.HARDY, symbols.elliptic(alpha), grid))
        dev_theta = float(np.max(np.abs(vals - vals[:, :1])))
        r2 = grid.r_values[:, None] ** 2
        formula = (1.0 - r2) / (1.0 - alpha * r2)
        dev_formula = float(np.max(np.abs(vals - formula)))
        out.append(
            CheckResult(s, f"angle-independence-alpha={alpha}", dev_theta, 1e-12)
        )
        out.append(
            CheckResult(s, f"radial-closed-form-alpha={alpha}", dev_formula, 1e-12)
        )
    return out


def suite_bergman_elliptic() -> list[CheckResult]:
    s = "bergman-elliptic"
    out = []
    mesh = cf.PolarGrid.regular().mesh()
    # sample_range gives these mesh values bit for bit, so the segment and
    # angle checks below reuse them
    bergman = {}
    for alpha in (-0.5, 0.25 + 0.25j):
        symb = symbols.elliptic(alpha)
        bergman[alpha] = cf.bergman_transform(symb, mesh)
        hard = cf.hardy_transform(symb, mesh)
        out.append(
            CheckResult(
                s,
                f"square-of-hardy-alpha={alpha}",
                float(np.max(np.abs(bergman[alpha] - hard**2))),
                1e-15,
            )
        )
    vals = _sample(kernels.BERGMAN, symbols.elliptic(1.0))
    out.append(CheckResult(s, "constant-at-alpha-1", float(np.max(np.abs(vals - 1.0))), 1e-12))

    vals = bergman[-0.5]
    out.append(CheckResult(s, "real-segment-imaginary-part", float(np.max(np.abs(vals.imag))), 1e-12))
    out.append(
        CheckResult(
            s,
            "real-segment-in-unit-interval",
            float(max(np.max(vals.real) - 1.0, -np.min(vals.real))),
            1e-12,
        )
    )
    vals = bergman[0.25 + 0.25j]
    out.append(
        CheckResult(s, "angle-independence", float(np.max(np.abs(vals - vals[:, :1]))), 1e-12)
    )
    return out


def suite_blaschke() -> list[CheckResult]:
    s = "blaschke"
    out = []
    rng = np.random.default_rng(_SEED)

    # Real/imaginary decomposition against direct evaluation, 50x50 grid
    # per random alpha.
    rr = np.linspace(0.0, 0.98, 50)
    tt = np.linspace(0.0, 2.0 * np.pi, 50, endpoint=False)
    z = rr[:, None] * np.exp(1j * tt)[None, :]
    worst = 0.0
    for _ in range(20):
        alpha = rng.uniform(0.05, 0.95) * np.exp(2j * np.pi * rng.uniform())
        symb = symbols.blaschke(alpha)
        direct = cf.bergman_transform(symb, z)
        re, im = cf.blaschke_real_imag(alpha, z)
        worst = max(worst, float(np.max(np.abs(direct - (re + 1j * im)))))
    out.append(CheckResult(s, "real-imag-decomposition", worst, 1e-12, "20 random alpha"))

    # Conjugation symmetry: the reflected points reproduce the conjugate values.
    worst = 0.0
    for _ in range(20):
        alpha = rng.uniform(0.05, 0.95) * np.exp(2j * np.pi * rng.uniform())
        symb = symbols.blaschke(alpha)
        u = rng.uniform(size=(40, 2))  # 40 (r, theta) pairs, drawn pair by pair
        z = 0.98 * u[:, 0] * np.exp(2j * np.pi * u[:, 1])
        q = cf.conjugation_partner(alpha, z)
        dev = np.abs(cf.bergman_transform(symb, q) - np.conj(cf.bergman_transform(symb, z)))
        worst = max(worst, float(np.max(dev)))
    out.append(CheckResult(s, "conjugation-symmetry", worst, 1e-12))

    # Real-axis identity, exactly as published with the fourth power.  The
    # correct exponent is two; this check measures the published form and is
    # expected to fail (see module docstring).
    r = np.linspace(0.0, 0.99, 50)
    worst4 = worst2 = 0.0
    for alpha in (0.3, 0.5, 0.7j):
        vals = cf.bergman_transform(symbols.blaschke(alpha), r * alpha)
        base = 1.0 - r * abs(alpha) ** 2
        worst4 = max(worst4, float(np.max(np.abs(vals - base**4))))
        worst2 = max(worst2, float(np.max(np.abs(vals - base**2))))
    out.append(
        CheckResult(
            s,
            "real-axis-fourth-power-identity",
            worst4,
            1e-12,
            "published exponent 4; measured transform matches exponent 2",
        )
    )
    out.append(CheckResult(s, "real-axis-second-power-identity", worst2, 1e-12))

    vals = _sample(kernels.BERGMAN, symbols.blaschke(0.0))
    out.append(CheckResult(s, "constant-at-alpha-0", float(np.max(np.abs(vals - 1.0))), 1e-12))

    # Boundary limits along rays that avoid arg(alpha), where the limit is 0
    # for alpha != 0; for alpha = 0 the transform is identically 1.
    worst = 0.0
    for alpha, theta in ((0.3, 2.0), (0.5, 1.0), (0.7j, 2.5)):
        lim = cf.boundary_limit(kernels.BERGMAN, symbols.blaschke(alpha), theta)
        worst = max(worst, abs(lim))
    lim0 = cf.boundary_limit(kernels.BERGMAN, symbols.blaschke(0.0), 1.0)
    worst = max(worst, abs(lim0 - 1.0))
    out.append(CheckResult(s, "boundary-limits", worst, 1e-3))

    sample = cf.sample_range(kernels.BERGMAN, symbols.blaschke(0.5), cf.PolarGrid.regular())
    rep = geometry.classify_range(sample)
    out.append(
        _bool_check(s, "bergman-alpha-0.5-not-convex", rep.verdict == "NOT_CONVEX", rep.verdict)
    )
    return out


def suite_automorphism_b0() -> list[CheckResult]:
    s = "automorphism-b0"
    out = []
    grid = cf.PolarGrid.regular()
    mesh = grid.mesh()
    worst = 0.0
    for a in (np.exp(1j * np.pi / 8), 1j, np.exp(3j * np.pi / 4), 1.0):
        auto = cf.hardy_transform(symbols.automorphism(a, 0.0), mesh)
        elli = cf.hardy_transform(symbols.elliptic(a**2), mesh)
        worst = max(worst, float(np.max(np.abs(auto - elli))))
    out.append(CheckResult(s, "reduces-to-elliptic-square", worst, 1e-12))

    vals = cf.hardy_transform(symbols.automorphism(np.exp(1j * np.pi / 8), 0.0), mesh)
    out.append(CheckResult(s, "modulus-at-most-one", float(np.max(np.abs(vals)) - 1.0), 1e-12))

    auto = symbols.automorphism(1.25, 0.75)
    series = symbols.symbol_series(auto, 16)
    taylor = oracle.composition_matrix(kernels.HARDY, auto, 16).entries[:, 1]
    out.append(CheckResult(s, "series-matches-taylor", float(np.max(np.abs(series - taylor))), 1e-14))

    sweep = cf.PolarGrid.regular(2000, 8, 0.998)
    ok = True
    detail = []
    for a in (1.0, -1.0, 1j, -1j):
        rep = geometry.classify_range(
            cf.sample_range(kernels.HARDY, symbols.automorphism(a, 0.0), sweep)
        )
        ok = ok and rep.verdict == "CONVEX"
        detail.append(f"a={a}: {rep.verdict}")
    out.append(_bool_check(s, "convex-at-fourth-roots", ok, "; ".join(detail)))
    return out


def suite_model() -> list[CheckResult]:
    s = "model"
    out = []
    grid = cf.PolarGrid.regular(400, 64, 0.9999)
    worst_gap = 0.0
    worst_over = 0.0
    for n in range(2, 9):
        ber = oracle.model_berezin_range(n, grid).berezin_number()
        target = (n - 1) / n
        worst_gap = max(worst_gap, target - ber)
        worst_over = max(worst_over, ber - target)
    out.append(CheckResult(s, "berezin-number-near-(n-1)/n", worst_gap, 2e-3, "n=2..8"))
    out.append(CheckResult(s, "berezin-number-below-(n-1)/n", worst_over, 1e-12))

    small = cf.PolarGrid.regular(50, 16, 0.99)
    worst = 0.0
    for n in (2, 3, 5):
        mat_vals = oracle.model_berezin_range(n, small).values
        closed = cf.model_transform(n, small.mesh())
        worst = max(worst, float(np.max(np.abs(mat_vals - closed))))
    out.append(CheckResult(s, "matrix-matches-closed-form", worst, 1e-12))

    vals = oracle.model_berezin_range(1, small).values
    out.append(CheckResult(s, "n-equals-1-is-zero", float(np.max(np.abs(vals))), 1e-15))
    return out


def suite_matrix_diag() -> list[CheckResult]:
    s = "matrix-diag"
    out = []
    set_a = oracle.l2_berezin_set(np.array([[1.0, 0.0], [0.0, 2.0]]))
    out.append(
        _bool_check(s, "two-point-berezin-set", np.array_equal(set_a, [1.0, 2.0]), f"{set_a}")
    )
    set_c = oracle.l2_berezin_set(np.array([[1.5, 1.0], [0.0, 1.5]]))
    out.append(
        _bool_check(s, "constant-diagonal-berezin-set", np.array_equal(set_c, [1.5]), f"{set_c}")
    )

    verdict = geometry.finite_set_verdict(np.array([[1.0, 0.0], [2.0, 0.0]]))
    out.append(_bool_check(s, "distinct-diagonal-not-convex", verdict == "NOT_CONVEX", verdict))
    verdict = geometry.finite_set_verdict(np.array([[1.5, 0.0], [1.5, 0.0]]))
    out.append(_bool_check(s, "constant-diagonal-convex", verdict == "CONVEX", verdict))

    boundary = oracle.numerical_range_boundary(np.diag([1.0, 2.0]), 180)
    on_axis = float(np.max(np.abs(boundary[:, 1])))
    in_range = float(max(np.max(boundary[:, 0]) - 2.0, 1.0 - np.min(boundary[:, 0])))
    out.append(CheckResult(s, "numerical-range-of-diag-1-2", max(on_axis, in_range), 1e-9))
    return out


def suite_oracle() -> list[CheckResult]:
    s = "oracle"
    out = []
    rng = np.random.default_rng(_SEED)
    ws = (rng.uniform(0.05, 0.8, size=100) * np.exp(2j * np.pi * rng.uniform(size=100)))
    catalog = [
        symbols.elliptic(0.5),
        symbols.elliptic(0.25 + 0.25j),
        symbols.blaschke(0.5),
        symbols.blaschke(0.3j),
        symbols.automorphism(1.25, 0.75),
    ]
    worst_256 = 0.0
    worst_512 = 0.0
    for space in (kernels.HARDY, kernels.BERGMAN):
        for symb in catalog:
            closed = cf.transform(space, symb, ws)
            # One build per pair: its leading block is the N = 256 build, bit for bit.
            op = oracle.composition_matrix(space, symb, 512)
            dev = [float(np.max(np.abs(oracle.berezin_grid(m, space, ws) - closed)))
                   for m in (oracle.OperatorMatrix(op.entries[:256, :256], space), op)]
            del op  # freed before the next pair's build, which would otherwise overlap it
            worst_256, worst_512 = max(worst_256, dev[0]), max(worst_512, dev[1])
    out.append(CheckResult(s, "closed-form-vs-matrix-N256", worst_256, 1e-8, "|w| <= 0.8"))
    out.append(
        CheckResult(
            s,
            "truncation-error-monotone",
            worst_512 - worst_256,
            1e-14,
            f"N512={worst_512:.3e} N256={worst_256:.3e}",
        )
    )
    return out


def suite_inequalities() -> list[CheckResult]:
    s = "inequalities"
    out = []
    rng = np.random.default_rng(_SEED)
    x = rng.uniform(0.0, 10.0, size=10_000)
    y = rng.uniform(0.0, 10.0, size=10_000)
    z = rng.uniform(0.0, 10.0, size=10_000)

    worst = 0.0
    for f in (ineq.ScalarFunction.power(2), ineq.ScalarFunction.power(3), ineq.ScalarFunction.neg_const()):
        slack = ineq.superquadratic_pointwise_check(f, x, y)
        worst = max(worst, -float(np.min(slack)))
    out.append(CheckResult(s, "pointwise-superquadratic", worst, 1e-12))

    worst = 0.0
    for f in (ineq.ScalarFunction.power(2), ineq.ScalarFunction.power(3)):
        slack = ineq.scalar_popoviciu_check(f, x, y, z)
        worst = max(worst, -float(np.min(slack)))
    out.append(CheckResult(s, "scalar-three-point", worst, 1e-12))
    eq = ineq.scalar_popoviciu_check(ineq.ScalarFunction.power(1), x, y, z)
    out.append(CheckResult(s, "scalar-three-point-equality-at-linear", float(np.max(np.abs(eq))), 1e-12))

    worst16 = 0.0
    worst5 = 0.0
    worst21 = 0.0
    worst4 = 0.0
    for f in (ineq.ScalarFunction.power(2), ineq.ScalarFunction.power(3)):
        for map_kind in ("identity", "pinching", "compression"):
            rep = ineq.run_trials(
                f, map_kind, checks=("eq4", "eq5", "eq16", "eq21"), trials=200, seed=_SEED
            )
            worst4 = max(worst4, -rep.min_slacks["eq4"])
            worst5 = max(worst5, -rep.min_slacks["eq5"])
            worst16 = max(worst16, -rep.min_slacks["eq16"])
            worst21 = max(worst21, -rep.min_slacks["eq21"])
    out.append(CheckResult(s, "single-operator-refinement", worst16, 1e-9, "200 trials x 6 configs"))
    out.append(CheckResult(s, "intermediate-pointwise-bound", worst5, 1e-9))
    out.append(CheckResult(s, "derivative-proposition", worst21, 1e-9))
    # The displayed three-operator refinement; expected to fail (see module
    # docstring).  Its single-operator specialization above is the true bound.
    out.append(
        CheckResult(
            s,
            "three-operator-refinement-as-displayed",
            worst4,
            1e-9,
            "displayed form; negative slack is reproducible at every seed",
        )
    )

    rep = ineq.run_trials(
        ineq.ScalarFunction.power(2),
        "identity",
        checks=("mapping",),
        trials=100,
        seed=_SEED,
        diag_only=True,
    )
    out.append(
        CheckResult(
            s,
            "diagonal-mapping-identity",
            -rep.min_slacks["mapping"],
            1e-10,
            f"condition-18 pass rate {rep.condition18_pass_rate}",
        )
    )

    mp = ineq.berezin_mapping_check(
        ineq.ScalarFunction.power(2),
        ineq.PositiveMap.identity(),
        np.array([[2.0, 1.0], [1.0, 2.0]]),
    )
    out.append(
        _bool_check(
            s,
            "condition-18-counter-case",
            0 in mp.condition18_failing,
            f"failing indices {mp.condition18_failing}",
        )
    )
    return out


SUITES = {
    "hardy-elliptic": suite_hardy_elliptic,
    "bergman-elliptic": suite_bergman_elliptic,
    "blaschke": suite_blaschke,
    "automorphism-b0": suite_automorphism_b0,
    "model": suite_model,
    "matrix-diag": suite_matrix_diag,
    "oracle": suite_oracle,
    "inequalities": suite_inequalities,
}


def run_suite(name: str) -> list[CheckResult]:
    """Run one named suite; raises KeyError for unknown names."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name]()

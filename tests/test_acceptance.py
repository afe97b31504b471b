"""Acceptance suite: one test per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line per
criterion.  Two checks assert identities in their stated-but-too-strong form
and fail by design; their assertion messages carry the measured
counterexamples (see README, "Known-failing checks").
"""

import functools

import numpy as np
import pytest

import berezin.closed_form as cf
import berezin.inequalities as ineq
import berezin.matrix_oracle as mo
import berezin.symbols as sym
from berezin.geometry import (
    classify_range,
    finite_set_verdict,
    hausdorff_distance,
    hull_signed_depth,
)
from berezin.inequalities import PositiveMap, ScalarFunction
from berezin.kernels import BERGMAN, HARDY

DEFAULT_GRID = cf.PolarGrid.regular()

# Sweep grid for criterion 3: radii uniform in r^2 with enough resolution
# that the steepest real-alpha segment (|d value / d r^2| up to ~9.3 near
# r_max for alpha = 0.9 on the Hardy space) keeps consecutive-value gaps
# under the 10*tol segment-coverage threshold with a 2x margin.
SWEEP_GRID = cf.PolarGrid.regular(2000, 8, 0.998)

POWER2 = ScalarFunction.power(2)
POWER3 = ScalarFunction.power(3)
NEG_CONST = ScalarFunction.neg_const()

ORACLE_CATALOG = (
    ("elliptic(0.5)", sym.elliptic(0.5)),
    ("elliptic(0.25+0.25i)", sym.elliptic(0.25 + 0.25j)),
    ("blaschke(0.5)", sym.blaschke(0.5)),
    ("blaschke(0.3i)", sym.blaschke(0.3j)),
    ("automorphism(1.25,0.75)", sym.automorphism(1.25, 0.75)),
)


def classify(space, symbol, grid=SWEEP_GRID):
    return classify_range(cf.sample_range(space, symbol, grid))


def test_criterion_01_constant_ranges():
    for space, symbol in ((HARDY, sym.elliptic(1.0)), (BERGMAN, sym.blaschke(0.0))):
        sample = cf.sample_range(space, symbol, DEFAULT_GRID)
        np.testing.assert_allclose(sample.values, 1.0, atol=1e-12)


def test_criterion_02_real_segment_range():
    sample = cf.sample_range(HARDY, sym.elliptic(-0.5), DEFAULT_GRID)
    vals = sample.values.ravel()
    assert np.max(np.abs(vals.imag)) <= 1e-12
    assert np.all(vals.real > 0.0) and np.all(vals.real <= 1.0)
    assert np.min(vals.real) <= 0.01
    report = classify(HARDY, sym.elliptic(-0.5), DEFAULT_GRID)
    assert report.verdict == "CONVEX"


def test_criterion_03_verdict_sweeps():
    non_real = (
        0.25 + 0.25j, -0.25 + 0.25j, 0.5j, -0.5j,
        0.3 - 0.4j, -0.3 - 0.4j, 0.1 + 0.6j, 0.35 + 0.35j,
    )
    for space in (HARDY, BERGMAN):
        for alpha in np.linspace(-1.0, 1.0, 21):
            report = classify(space, sym.elliptic(alpha))
            assert report.verdict == "CONVEX", (space.kind, alpha, report.verdict)
        for alpha in non_real:
            report = classify(space, sym.elliptic(alpha))
            assert report.verdict == "NOT_CONVEX", (space.kind, alpha, report.verdict)
        for k in range(16):
            a = np.exp(2j * np.pi * k / 16)
            report = classify(space, sym.automorphism(a, 0.0))
            expected = "CONVEX" if k % 4 == 0 else "NOT_CONVEX"
            assert report.verdict == expected, (space.kind, k, report.verdict)


def test_criterion_04_decomposition_and_conjugation():
    rng = np.random.default_rng(41)
    r = np.linspace(0.01, 0.97, 50)
    theta = np.linspace(0.0, 2.0 * np.pi, 50, endpoint=False)
    z = r[:, None] * np.exp(1j * theta)[None, :]
    for _ in range(20):
        alpha = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        re, im = cf.blaschke_real_imag(alpha, z)
        direct = cf.bergman_transform(sym.blaschke(alpha), z)
        np.testing.assert_allclose(re + 1j * im, direct, atol=1e-12, rtol=0.0)
    for alpha in (0.3 + 0.4j, -0.5j, 0.6):
        symbol = sym.blaschke(alpha)
        points = np.outer([0.2, 0.55, 0.9], np.exp(1j * np.array([0.0, 1.1, 2.7, 4.4])))
        partners = cf.conjugation_partner(alpha, points)
        lhs = cf.bergman_transform(symbol, partners)
        rhs = np.conj(cf.bergman_transform(symbol, points))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_criterion_04_real_axis_identity_as_stated():
    r = np.linspace(0.0, 0.999, 50)
    worst = 0.0
    for alpha in (0.3, 0.5, 0.7j):
        vals = cf.bergman_transform(sym.blaschke(alpha), r * alpha)
        second = (1.0 - r * abs(alpha) ** 2) ** 2
        worst = max(worst, float(np.max(np.abs(vals - second))))
        fourth = (1.0 - r * abs(alpha) ** 2) ** 4
        np.testing.assert_allclose(
            vals,
            fourth,
            atol=1e-12,
            rtol=0.0,
            err_msg=(
                "stated on-axis identity uses exponent 4, but the transform "
                "itself has exponent 2: along z = r*alpha the imaginary part "
                "of conj(alpha)*z vanishes, the decomposition normalizer "
                "reduces to 1/(1 - |z|^2), and the value collapses to "
                "((1 - r|alpha|^2)/(1 - r^2|alpha|^2))^2 * (1 - r^2|alpha|^2)^2 "
                f"= (1 - r|alpha|^2)^2 (matched to {worst:.1e} here); the "
                "fourth power deviates by up to ~0.25 on these alphas"
            ),
        )


def test_criterion_04_boundary_limits():
    for alpha, theta in ((0.3, 2.0), (0.5, 1.0), (0.7j, 2.5)):
        limit = cf.boundary_limit(BERGMAN, sym.blaschke(alpha), theta)
        assert abs(limit) <= 1e-3, (alpha, theta, limit)
    limit = cf.boundary_limit(BERGMAN, sym.blaschke(0.0), 1.234)
    assert abs(limit - 1.0) <= 1e-3


def test_criterion_05_oracle_agreement():
    rng = np.random.default_rng(5)
    radii = 0.8 * np.sqrt(rng.uniform(size=100))
    ws = radii * np.exp(2j * np.pi * rng.uniform(size=100))
    for space, closed in ((HARDY, cf.hardy_transform), (BERGMAN, cf.bergman_transform)):
        for label, symbol in ORACLE_CATALOG:
            exact = closed(symbol, ws)
            err = {}
            for N in (256, 512):
                op = mo.composition_matrix(space, symbol, N)
                approx = mo.berezin_grid(op, space, ws)
                err[N] = float(np.max(np.abs(approx - exact)))
            assert err[256] <= 1e-8, (space.kind, label, err[256])
            assert err[512] <= err[256] + 1e-14, (space.kind, label, err)


def test_criterion_06_numerical_range_containment():
    radii = np.linspace(0.15, 0.8, 10)
    ws = (radii[:, None] * np.exp(2j * np.pi * np.arange(10) / 10)[None, :]).ravel()
    symbols = (
        sym.elliptic(0.5),
        sym.elliptic(0.25 + 0.25j),
        sym.blaschke(0.5),
        sym.automorphism(1.25, 0.75),
    )
    for space in (HARDY, BERGMAN):
        for symbol in symbols:
            op = mo.composition_matrix(space, symbol, 64)
            boundary = mo.numerical_range_boundary(op, directions=180)
            vals = mo.berezin_grid(op, space, ws)
            pts = np.column_stack([vals.real, vals.imag])
            depth = hull_signed_depth(boundary, pts)
            assert float(depth.min()) >= -1e-6, (space.kind, symbol.label, depth.min())


def test_criterion_07_model_berezin_numbers():
    grid = cf.PolarGrid.regular(400, 64, 0.9999)
    for n in range(2, 9):
        ber = mo.model_berezin_range(n, grid).berezin_number()
        target = (n - 1) / n
        assert target - 2e-3 <= ber <= target, (n, ber, target)


def test_criterion_07_model_range_fills_half_disk():
    # both grids uniform in r: uniform-in-r^2 radii leave a hole around the
    # origin larger than the 1e-2 budget
    angles = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    grid = cf.PolarGrid(np.linspace(0.0, 0.9999, 1500), angles)
    sampled = mo.model_berezin_range(2, grid).points()
    disk_radii = np.linspace(0.0, 0.5, 750)
    disk = (disk_radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    disk_pts = np.column_stack([disk.real, disk.imag])
    dist = hausdorff_distance(sampled, disk_pts)
    assert dist <= 1e-2, dist


def test_criterion_08_finite_matrix_verdicts():
    rng = np.random.default_rng(8)
    for trial in range(100):
        d = 2 + trial % 5
        M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if trial % 2 == 1:
            np.fill_diagonal(M, complex(rng.standard_normal(), rng.standard_normal()))
        values = mo.l2_berezin_set(M)
        pts = np.column_stack([values.real, values.imag])
        verdict = finite_set_verdict(pts)
        constant_diag = values.size == 1
        assert (verdict == "CONVEX") == constant_diag, (trial, verdict)
    pair_a = mo.l2_berezin_set(np.array([[1.0, 0.0], [0.0, 2.0]]))
    np.testing.assert_array_equal(pair_a, [1.0, 2.0])
    pair_c = mo.l2_berezin_set(np.array([[1.5, 1.0], [0.0, 1.5]]))
    np.testing.assert_array_equal(pair_c, [1.5])


@functools.lru_cache(maxsize=None)
def _refinement_report(power: float, map_kind: str):
    return ineq.run_trials(
        ScalarFunction.power(power),
        map_kind=map_kind,
        checks=("eq4", "eq16"),
        trials=1000,
        dims=(2, 3, 4, 5, 6, 7, 8),
        seed=42,
    )


HARNESS_COMBOS = tuple(
    (p, m) for p in (2.0, 3.0) for m in ("identity", "pinching", "compression")
)


def test_criterion_09_pointwise_and_three_point_slacks():
    rng = np.random.default_rng(9)
    x, y, z = rng.uniform(0.0, 10.0, size=(3, 10_000))
    for f in (POWER2, POWER3, NEG_CONST):
        pointwise = ineq.superquadratic_pointwise_check(f, x, y)
        assert float(pointwise.min()) >= -1e-12, f.name
        three_point = ineq.scalar_popoviciu_check(f, x, y, z)
        assert float(three_point.min()) >= -1e-12, f.name
    linear = ineq.scalar_popoviciu_check(ScalarFunction.power(1), x, y, z)
    assert float(np.max(np.abs(linear))) <= 1e-12


def test_criterion_09_single_operator_refinement():
    for power, map_kind in HARNESS_COMBOS:
        report = _refinement_report(power, map_kind)
        slack = report.min_slacks["eq16"]
        assert slack >= -1e-9, (power, map_kind, slack)


def test_criterion_09_three_operator_refinement_as_stated():
    worst = {}
    for power, map_kind in HARNESS_COMBOS:
        worst[(power, map_kind)] = _refinement_report(power, map_kind).min_slacks["eq4"]
    min_slack = min(worst.values())
    assert min_slack >= -1e-9, (
        "the three-operator refinement in its displayed form is false for "
        "strictly superquadratic functions: already for 1x1 operators it "
        "reads as the three-point convexity bound plus an extra correction "
        "sum, and with f(t)=t^2 the slack equals -(2/9)*[(x-y)^2 + (y-z)^2 "
        "+ (x-z)^2] (e.g. scalars (1,2,3): lhs 26/3, three-point rhs 25/3, "
        "correction 5/3, slack -4/3); with A=B=C it collapses to the "
        "single-operator refinement, which passes above. measured min "
        f"slack per (power, map): {worst}"
    )


def test_criterion_09_convex_branch():
    for power, map_kind in HARNESS_COMBOS:
        report = ineq.run_trials(
            ScalarFunction.power(power),
            map_kind=map_kind,
            checks=("eq21",),
            trials=500,
            dims=(2, 3, 4, 5, 6, 7, 8),
            seed=42,
        )
        slack = report.min_slacks["eq21"]
        assert slack >= -1e-9, (power, map_kind, slack)


def test_criterion_10_mapping_identity():
    rng = np.random.default_rng(10)
    pinching = PositiveMap.pinching()
    for f in (POWER2, POWER3):
        for _ in range(50):
            d = int(rng.integers(2, 9))
            A = np.diag(rng.uniform(0.0, 10.0, size=d))
            report = ineq.berezin_mapping_check(f, pinching, A)
            assert report.condition18_pass_rate == 1.0
            assert report.identity_checked
            assert report.identity_max_dev <= 1e-10
            assert report.sets_equal
    counter = np.array([[2.0, 1.0], [1.0, 2.0]])
    report = ineq.berezin_mapping_check(POWER2, pinching, counter)
    assert 0 in report.condition18_failing
    assert not report.identity_checked

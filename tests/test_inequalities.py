import dataclasses

import numpy as np
import pytest

from berezin import inequalities as ineq


# ---------------------------------------------------------------------------
# scalar function catalog
# ---------------------------------------------------------------------------

def test_power_catalog_flags():
    f = ineq.ScalarFunction.power(2)
    assert f.superquadratic and f.nonnegative and f.convex and f.differentiable
    assert f.name == "power:2"
    g = ineq.ScalarFunction.power(1.5)
    assert not g.superquadratic
    assert g.convex
    with pytest.raises(ValueError):
        ineq.ScalarFunction.power(0.5)


def test_neg_const_catalog():
    f = ineq.ScalarFunction.neg_const()
    np.testing.assert_allclose(f(3.7), -1.5)
    np.testing.assert_allclose(f.derivative(2.0), 0.0)
    assert f.superquadratic and not f.nonnegative
    with pytest.raises(ValueError):
        ineq.ScalarFunction.neg_const(0.5)


def test_differentiable_function_needs_a_derivative():
    plain = ineq.ScalarFunction("square", fn=np.square, superquadratic=True, nonnegative=True)
    assert not plain.differentiable
    assert ineq.ScalarFunction("square", fn=np.square, derivative=lambda t: 2 * t).differentiable
    with pytest.raises(TypeError):
        ineq.ScalarFunction("square", fn=np.square, differentiable=True)


def test_parse_function():
    assert ineq.parse_function("power:2").name == "power:2"
    assert ineq.parse_function(" power:2.5 ").name == "power:2.5"
    assert ineq.parse_function("neg-const").name == "neg-const:1.5"
    assert ineq.parse_function("neg-const:1.25").name == "neg-const:1.25"
    with pytest.raises(ValueError):
        ineq.parse_function("power")
    with pytest.raises(ValueError):
        ineq.parse_function("cosh:1")


@pytest.mark.parametrize("spec", ["power:abc", "neg-const:x", "power:2:3"])
def test_parse_function_names_an_unparsable_spec(spec):
    with pytest.raises(ValueError, match=f"^cannot parse function spec '{spec}': "):
        ineq.parse_function(spec)


# ---------------------------------------------------------------------------
# scalar inequalities
# ---------------------------------------------------------------------------

def test_pointwise_superquadratic_bound():
    rng = np.random.default_rng(61)
    x = rng.uniform(0, 10, 10_000)
    y = rng.uniform(0, 10, 10_000)
    for f in (
        ineq.ScalarFunction.power(2),
        ineq.ScalarFunction.power(3),
        ineq.ScalarFunction.neg_const(),
    ):
        slack = ineq.superquadratic_pointwise_check(f, x, y)
        assert float(np.min(slack)) >= -1e-12


def test_pointwise_power2_slack_is_exactly_zero():
    # for f(t) = t^2 the defining bound holds with equality
    rng = np.random.default_rng(62)
    x = rng.uniform(0, 10, 1000)
    y = rng.uniform(0, 10, 1000)
    slack = ineq.superquadratic_pointwise_check(ineq.ScalarFunction.power(2), x, y)
    np.testing.assert_allclose(slack, 0.0, atol=1e-11)


def test_scalar_three_point_bound_and_linear_equality():
    rng = np.random.default_rng(63)
    x, y, z = (rng.uniform(0, 10, 10_000) for _ in range(3))
    for f in (ineq.ScalarFunction.power(2), ineq.ScalarFunction.power(3)):
        slack = ineq.scalar_popoviciu_check(f, x, y, z)
        assert float(np.min(slack)) >= -1e-12
    eq = ineq.scalar_popoviciu_check(ineq.ScalarFunction.power(1), x, y, z)
    np.testing.assert_allclose(eq, 0.0, atol=1e-12)


def test_scalar_three_point_worked_example():
    f = ineq.ScalarFunction.power(2)
    slack = ineq.scalar_popoviciu_check(f, 0.0, 0.0, 3.0)
    np.testing.assert_allclose(slack, 1.0, atol=1e-14)


# ---------------------------------------------------------------------------
# operator plumbing
# ---------------------------------------------------------------------------

def test_functional_calculus_diagonalizes():
    a = np.diag([1.0, 4.0])
    out = ineq.functional_calculus(a, ineq.ScalarFunction.power(2))
    np.testing.assert_allclose(out, np.diag([1.0, 16.0]), atol=1e-13)


def test_functional_calculus_rejects_non_psd():
    with pytest.raises(ValueError, match="positive"):
        ineq.functional_calculus(np.diag([1.0, -0.5]), ineq.ScalarFunction.power(2))


def test_functional_calculus_rejects_non_hermitian():
    with pytest.raises(ValueError):
        ineq.functional_calculus(np.array([[0.0, 1.0], [0.0, 0.0]]), ineq.ScalarFunction.power(2))


def test_abs_op_of_hermitian():
    a = np.array([[0.0, 2.0], [2.0, 0.0]])
    np.testing.assert_allclose(ineq.abs_op(a), np.array([[2.0, 0.0], [0.0, 2.0]]), atol=1e-12)


def test_positive_map_diagonals_and_unitality():
    rng = np.random.default_rng(64)
    a = ineq.random_psd(rng, 4)

    def unitality_defect(phi, m=4):
        return np.max(np.abs(phi.diagonal(np.eye(4)) - np.ones(m)))

    ident = ineq.PositiveMap.identity()
    np.testing.assert_array_equal(ident.diagonal(a), np.diag(a))
    assert unitality_defect(ident) <= 1e-12

    pinch = ineq.PositiveMap.pinching()
    np.testing.assert_array_equal(pinch.diagonal(a), np.diag(a))
    assert unitality_defect(pinch) <= 1e-12

    v = ineq.random_isometry(rng, 4, 2)
    comp = ineq.PositiveMap.compression(v)
    np.testing.assert_allclose(comp.diagonal(a), np.diag(v.conj().T @ a @ v), atol=1e-13)
    assert unitality_defect(comp, 2) <= 1e-12
    with pytest.raises(ValueError, match="^dimension mismatch: map expects dimension 4, got 3$"):
        comp.diagonal(np.eye(3))


def test_singleton_pinching_extracts_diagonal():
    a = np.array([[1.0, 5.0], [5.0, 2.0]])
    pinch = ineq.PositiveMap.pinching()
    np.testing.assert_array_equal(pinch.diagonal(a), [1.0, 2.0])


def test_compression_requires_isometry():
    v = np.ones((3, 2))
    with pytest.raises(ValueError):
        ineq.PositiveMap.compression(v)


def test_non_isometric_compression_is_rejected_at_construction():
    with pytest.raises(ValueError, match=r"requires V\*V = I"):
        ineq.PositiveMap("compression", V=2 * np.eye(2))
    with pytest.raises(ValueError, match="V must be"):
        ineq.PositiveMap("compression")


@pytest.mark.parametrize("kind, V, message", [
    ("bogus", None, "unknown map kind: 'bogus'"),
    ("identity", np.eye(2), "'identity' map takes no V"),
    ("pinching", np.eye(2), "'pinching' map takes no V"),
])
def test_positive_map_refuses_an_unknown_kind_or_a_stray_isometry(kind, V, message):
    with pytest.raises(ValueError) as err:
        ineq.PositiveMap(kind, V=V)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# operator inequalities
# ---------------------------------------------------------------------------

def test_three_operator_check_scalar_closed_form():
    """On 1x1 operators the displayed three-term refinement reduces to a
    scalar identity with slack -(2/9) * sum of squared pairwise differences
    for f(t) = t^2 -- negative whenever the three scalars differ.  This
    pins down, in the smallest possible case, why the displayed form is
    not a valid inequality."""
    f = ineq.ScalarFunction.power(2)
    phi = ineq.PositiveMap.identity()
    one = lambda t: np.array([[float(t)]])
    for a, b, c in ((1.0, 2.0, 3.0), (0.0, 1.0, 5.0), (2.0, 2.0, 2.0)):
        slack = popoviciu_operator_check(f, phi, one(a), one(b), one(c), 0)
        expected = -(2.0 / 9.0) * ((a - b) ** 2 + (b - c) ** 2 + (a - c) ** 2)
        np.testing.assert_allclose(slack, expected, atol=1e-12)


def test_three_operator_check_equal_inputs_power():
    # A = B = C collapses the pair terms; slack reduces to the one-operator
    # refinement slack, which is nonnegative
    rng = np.random.default_rng(65)
    f = ineq.ScalarFunction.power(2)
    phi = ineq.PositiveMap.identity()
    for _ in range(20):
        a = ineq.random_psd(rng, 4)
        slack = popoviciu_operator_check(f, phi, a, a, a, 1)
        single = corollary_c1_check(f, phi, a, 1)
        np.testing.assert_allclose(slack, single, atol=1e-9)
        assert slack >= -1e-9


def test_three_operator_check_rejects_non_superquadratic():
    f = ineq.ScalarFunction.power(1.5)
    phi = ineq.PositiveMap.identity()
    a = np.eye(2)
    with pytest.raises(ValueError, match="superquadratic"):
        popoviciu_operator_check(f, phi, a, a, a, 0)


def test_intermediate_refinement_nonnegative():
    rng = np.random.default_rng(66)
    phi = ineq.PositiveMap.pinching()
    for f in (ineq.ScalarFunction.power(2), ineq.ScalarFunction.power(3)):
        for _ in range(50):
            t = ineq.random_psd(rng, 3)
            x = float(rng.uniform(0, 10))
            assert intermediate_refinement_check(f, phi, t, x, 0) >= -1e-9


def test_corollary_refinement_nonnegative_and_tight_at_scalars():
    rng = np.random.default_rng(67)
    f = ineq.ScalarFunction.power(2)
    phi = ineq.PositiveMap.identity()
    for _ in range(50):
        a = ineq.random_psd(rng, 3)
        assert corollary_c1_check(f, phi, a, 0) >= -1e-9
    # scalar multiple of the identity: everything collapses, slack 0
    slack = corollary_c1_check(f, phi, 3.0 * np.eye(2), 0)
    np.testing.assert_allclose(slack, 0.0, atol=1e-12)


def test_mapping_identity_on_diagonals():
    f = ineq.ScalarFunction.power(3)
    phi = ineq.PositiveMap.identity()
    a = np.diag([0.5, 2.0, 1.0])
    report = ineq.berezin_mapping_check(f, phi, a)
    assert report.condition18_failing == ()
    assert report.identity_checked and report.identity_max_dev <= 1e-10
    np.testing.assert_allclose(report.lhs_values, [0.125, 8.0, 1.0], atol=1e-12)


def test_mapping_counter_case_fails_condition():
    report = ineq.berezin_mapping_check(
        ineq.ScalarFunction.power(2),
        ineq.PositiveMap.identity(),
        np.array([[2.0, 1.0], [1.0, 2.0]]),
    )
    assert 0 in report.condition18_failing
    assert not report.identity_checked
    assert report.condition18_pass_rate < 1.0


def _ber_sup_reference(g, phi, a):
    """ber(Phi(g(A))) - sup_mu g((Phi(A))~(mu)) for one operator: the slack of
    P1 (nonnegative superquadratic f) and of P3 (convex f with f(0) = 0) at
    g = f, and of the derivative form (eq21) at g = f'."""
    ber = np.max(np.abs(phi.diagonal(ineq.functional_calculus(a, g))))
    return ber - np.max(g(np.real(phi.diagonal(a))))


def test_berezin_number_propositions_hold():
    rng = np.random.default_rng(69)
    phi = ineq.PositiveMap.pinching()
    a = ineq.random_psd(rng, 4)
    f = ineq.ScalarFunction.power(2)
    assert _ber_sup_reference(f, phi, a) >= -1e-9  # P1
    eq21 = derivative_proposition_check(f, phi, a)
    assert eq21 == _ber_sup_reference(f.derivative, phi, a) and eq21 >= -1e-9
    # convex with f(0) = 0 but not superquadratic: P3 alone applies
    assert _ber_sup_reference(ineq.ScalarFunction.power(1.5), phi, a) >= -1e-9


# ---------------------------------------------------------------------------
# randomized harness
# ---------------------------------------------------------------------------

def test_random_psd_properties():
    rng = np.random.default_rng(70)
    for dim in (2, 5, 8):
        a = ineq.random_psd(rng, dim)
        np.testing.assert_allclose(a, a.conj().T, atol=1e-13)
        eigs = np.linalg.eigvalsh(a)
        assert eigs.min() > 0
        np.testing.assert_allclose(eigs.max(), 10.0, atol=1e-9)


def test_random_isometry_property():
    rng = np.random.default_rng(71)
    v = ineq.random_isometry(rng, 6, 3)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(3), atol=1e-12)


def test_run_trials_reproducible():
    f = ineq.ScalarFunction.power(2)
    rep1 = ineq.run_trials(f, "pinching", checks=("eq16",), trials=50, seed=99)
    rep2 = ineq.run_trials(f, "pinching", checks=("eq16",), trials=50, seed=99)
    assert rep1.min_slacks == rep2.min_slacks
    assert rep1.argmin_trial == rep2.argmin_trial


def test_run_trials_true_checks_stay_nonnegative():
    f = ineq.ScalarFunction.power(2)
    for map_kind in ("identity", "pinching", "compression"):
        rep = ineq.run_trials(
            f, map_kind, checks=("eq1", "eq2", "eq5", "eq16", "eq21"),
            trials=100, seed=5,
        )
        assert rep.min_slack() >= -1e-9, (map_kind, rep.min_slacks)


def test_run_trials_displayed_three_operator_form_goes_negative():
    # the reproducible witness that the displayed three-operator form is
    # not an inequality: see test_three_operator_check_scalar_closed_form
    f = ineq.ScalarFunction.power(2)
    rep = ineq.run_trials(f, "identity", checks=("eq4",), trials=100, seed=5)
    assert rep.min_slacks["eq4"] < -1.0


def test_run_trials_mapping_diag_only():
    f = ineq.ScalarFunction.power(2)
    rep = ineq.run_trials(
        f, "identity", checks=("mapping",), trials=50, seed=5, diag_only=True
    )
    assert rep.condition18_pass_rate == 1.0
    assert rep.min_slacks["mapping"] >= -1e-10


def test_run_trials_skipped_checks_recorded():
    # 2 x 2 trials fail condition (18), so the mapping check records none.
    f = ineq.ScalarFunction.power(2)
    rep = ineq.run_trials(f, "identity", checks=("mapping",), trials=10, dims=(2,), seed=5)
    assert rep.skipped == ("mapping",)
    with pytest.raises(ValueError):
        rep.min_slack()


def _unmet_cases():
    """(function, check) for every trial check but mapping and each function
    here that lacks one of its flags."""
    functions = [ineq.ScalarFunction.power(1.5), ineq.ScalarFunction.neg_const(),
                 ineq.ScalarFunction("bent", fn=np.abs)]
    return [pytest.param(f, c, id=f"{f.name}-{c}")
            for c in ineq.TRIAL_CHECKS if c != "mapping"
            for f in functions if c not in ineq.checks_for(f)]


def _per_call_check(f, check):
    phi = ineq.PositiveMap.identity()
    a = np.eye(2)
    calls = {
        "eq1": lambda: ineq.superquadratic_pointwise_check(f, 1.0, 2.0),
        "eq2": lambda: ineq.scalar_popoviciu_check(f, 1.0, 2.0, 3.0),
        "eq4": lambda: popoviciu_operator_check(f, phi, a, a, a, 0),
        "eq5": lambda: intermediate_refinement_check(f, phi, a, 1.0, 0),
        "eq16": lambda: corollary_c1_check(f, phi, a, 0),
        "eq21": lambda: derivative_proposition_check(f, phi, a),
    }
    return calls[check]()


@pytest.mark.parametrize("f, check", _unmet_cases())
def test_unmet_hypotheses_raise_the_cli_message(f, check):
    with pytest.raises(ValueError) as cli_error:
        ineq.checks_for(f, [check])
    message = str(cli_error.value)
    assert message.startswith(f"check {check!r} requires a ")
    with pytest.raises(ValueError) as trials_error:
        ineq.run_trials(f, "identity", checks=(check,), trials=3)
    assert str(trials_error.value) == message
    with pytest.raises(ValueError) as check_error:
        _per_call_check(f, check)
    assert str(check_error.value) == message


def test_checks_for_defaults_to_every_check_whose_hypotheses_hold():
    assert ineq.checks_for(ineq.ScalarFunction.power(2)) == ineq.TRIAL_CHECKS
    assert ineq.checks_for(ineq.ScalarFunction.power(1.5)) == ("eq2", "mapping")
    assert ineq.checks_for(ineq.ScalarFunction.neg_const()) == (
        "eq1", "eq2", "eq4", "eq5", "eq16", "mapping")
    assert ineq.checks_for(ineq.ScalarFunction.power(2), ["eq16"]) == ("eq16",)


def test_run_trials_memory_does_not_grow_with_the_trial_count():
    import tracemalloc

    def peak(trials):
        tracemalloc.start()
        try:
            ineq.run_trials(ineq.ScalarFunction.power(2), "identity", ("eq16",),
                            trials=trials, dims=(8,), seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(400)  # first-call caches are no per-trial cost
    small = peak(400)
    assert (peak(2400) - small) / 2000 < 1


@pytest.mark.parametrize("p, check", [(400, "eq4"), (400, "eq16"), (400, "mapping"),
                                      (308, "mapping")])  # only f(A) overflows: (18) "fails"
def test_run_trials_rejects_a_non_finite_slack_by_name(p, check):
    # t**p overflows; the check ran, so its non-finite slack is no "not recorded" one.
    with pytest.raises(ValueError, match=rf"check {check} gave a non-finite slack .* power:{p}"):
        ineq.run_trials(ineq.ScalarFunction.power(p), "identity", checks=(check,), trials=40)


def test_trial_report_json_shape():
    import json

    f = ineq.ScalarFunction.power(3)
    rep = ineq.run_trials(f, "compression", checks=("eq16",), trials=20, seed=12)
    payload = rep.to_json_dict()
    text = json.dumps(payload, sort_keys=True)
    back = json.loads(text)
    assert back["schema"] == 1
    assert back["function"] == "power:3"
    assert back["map"] == "compression"
    assert back["per_check_min_slack"].keys() == {"eq16"}


def test_run_trials_rejects_unknown_check():
    with pytest.raises(ValueError):
        ineq.run_trials(ineq.ScalarFunction.power(2), checks=("eq99",), trials=5)


# ---------------------------------------------------------------------------
# stacked harness against the per-trial loop
# ---------------------------------------------------------------------------

# One call per check, the per-trial reference for run_trials: each refuses
# an f that lacks the check's hypotheses, makes its operator Hermitian and
# computes f(A), then calls the slack that run_trials calls on whole stacks.

def popoviciu_operator_check(f, phi, A, B, C, mu):
    ineq._require(f, "eq4")
    H = ineq._as_hermitian(A)
    return ineq._popoviciu_slack(f, phi, H, B, C, mu, ineq.functional_calculus(H, f))


def intermediate_refinement_check(f, phi, T, x, mu):
    ineq._require(f, "eq5")
    H = ineq._as_hermitian(T)
    return ineq._intermediate_slack(f, phi, H, x, mu, ineq.functional_calculus(H, f))


def corollary_c1_check(f, phi, A, mu):
    ineq._require(f, "eq16")
    H = ineq._as_hermitian(A)
    return ineq._c1_slack(f, phi, H, mu, ineq.functional_calculus(H, f))


def derivative_proposition_check(f, phi, A):
    ineq._require(f, "eq21")
    return ineq._ber_sup_slack(f.derivative, phi, ineq._as_hermitian(A))


def _reference_run_trials(f, map_kind, checks, trials, dims, seed, diag_only=False):
    """The per-trial harness loop that run_trials replaced, kept as a reference:
    one stream per trial, each check evaluated on that trial's 2-D inputs."""
    root = np.random.SeedSequence(seed)
    streams = [np.random.default_rng(s) for s in root.spawn(int(trials))]
    mins = {c: np.inf for c in checks}
    argmin = {c: -1 for c in checks}
    cond18_pass = 0
    cond18_total = 0

    def record(check, slack, trial):
        if slack < mins[check]:
            mins[check] = slack
            argmin[check] = trial

    for t, rng in enumerate(streams):
        d = int(dims[int(rng.integers(len(dims)))])
        if map_kind == "identity":
            phi = ineq.PositiveMap.identity()
        elif map_kind == "pinching":
            phi = ineq.PositiveMap.pinching()
        else:
            phi = ineq.PositiveMap.compression(ineq.random_isometry(rng, d, max(1, d // 2)))
        mu = int(rng.integers(max(1, d // 2) if map_kind == "compression" else d))
        A = ineq.random_psd(rng, d)
        if diag_only:
            A = np.diag(np.diag(A))

        if "eq1" in checks:
            x, y = rng.uniform(0.0, 10.0, size=2)
            record("eq1", float(ineq.superquadratic_pointwise_check(f, x, y)), t)
        if "eq2" in checks:
            x, y, z = rng.uniform(0.0, 10.0, size=3)
            record("eq2", float(ineq.scalar_popoviciu_check(f, x, y, z)), t)
        if "eq4" in checks:
            B = ineq.random_psd(rng, d)
            C = ineq.random_psd(rng, d)
            if diag_only:
                B = np.diag(np.diag(B))
                C = np.diag(np.diag(C))
            record("eq4", popoviciu_operator_check(f, phi, A, B, C, mu), t)
        if "eq5" in checks:
            x = float(rng.uniform(0.0, 10.0))
            record("eq5", intermediate_refinement_check(f, phi, A, x, mu), t)
        if "eq16" in checks:
            record("eq16", corollary_c1_check(f, phi, A, mu), t)
        if "eq21" in checks:
            record("eq21", derivative_proposition_check(f, phi, A), t)
        if "mapping" in checks:
            mp = ineq.berezin_mapping_check(f, phi, A)
            cond18_total += 1
            if not mp.condition18_failing:
                cond18_pass += 1
                record("mapping", -float(mp.identity_max_dev), t)

    pass_rate = cond18_pass / cond18_total if cond18_total else None
    skipped = tuple(c for c in checks if not np.isfinite(mins[c]))
    mins = {c: float(v) for c, v in mins.items() if np.isfinite(v)}
    return mins, argmin, skipped, pass_rate


_DIM_SETS = [(2,), (8,), (2, 3, 4, 5, 6, 7, 8)]


@pytest.mark.parametrize("map_kind", ["identity", "pinching", "compression"])
@pytest.mark.parametrize("spec", ["power:2", "power:3", "power:2.5", "neg-const"])
def test_run_trials_equals_per_trial_loop(spec, map_kind):
    f = ineq.parse_function(spec)
    for checks in [(c,) for c in ineq.checks_for(f)] + [ineq.checks_for(f)]:
        for dims in _DIM_SETS:
            for diag_only in (False, True):
                rep = ineq.run_trials(f, map_kind, checks, 24, dims, 3, diag_only)
                want = _reference_run_trials(f, map_kind, checks, 24, dims, 3, diag_only)
                got = (rep.min_slacks, rep.argmin_trial, rep.skipped,
                       rep.condition18_pass_rate)
                assert got == want, (checks, dims, diag_only)


@pytest.mark.parametrize("spec", ["power:2", "power:3", "power:2.5", "neg-const"])
def test_pinching_reports_what_the_identity_reports(spec):
    # Every check reads Phi(X) through its diagonal, which the pinching keeps,
    # so the two maps differ only in the report's name.
    f = ineq.parse_function(spec)
    for checks in [(c,) for c in ineq.checks_for(f)] + [ineq.checks_for(f)]:
        for dims in _DIM_SETS:
            for diag_only in (False, True):
                pinched, plain = (ineq.run_trials(f, kind, checks, 24, dims, 3, diag_only)
                                  for kind in ("pinching", "identity"))
                assert pinched.map == "pinching"
                assert dataclasses.replace(pinched, map="identity") == plain, (
                    checks, dims, diag_only)
    rng = np.random.default_rng(75)
    S = rng.standard_normal((6, 5, 5)) + 1j * rng.standard_normal((6, 5, 5))
    assert (ineq.PositiveMap.pinching().diagonal(S).tobytes()
            == ineq.PositiveMap.identity().diagonal(S).tobytes())


def test_run_trials_pins_roundoff_minima_at_full_size():
    # For f(t) = t^2 the slacks of eq16 and eq5 are pure roundoff, so these
    # minima and argmins move with any change to the floating-point
    # operations; the values are those of the per-trial loop.
    f = ineq.ScalarFunction.power(2)
    mixed = ineq.run_trials(f, "identity", ("eq16",), 1000, (2, 3, 4, 5, 6, 7, 8), 42)
    assert mixed.argmin_trial == {"eq16": 694}
    assert mixed.min_slacks == {"eq16": -1.8829382497642655e-13}
    eight = ineq.run_trials(f, "identity", ("eq16", "eq5"), 1000, (8,), 42)
    assert eight.argmin_trial == {"eq16": 213, "eq5": 213}
    assert eight.min_slacks == {"eq16": -1.4566126083082054e-13,
                                "eq5": -2.6290081223123707e-13}
    # A compression reads off-diagonal entries too.
    comp = ineq.run_trials(ineq.ScalarFunction.power(3), "compression",
                           ineq.TRIAL_CHECKS, 200, (2, 3, 4, 5, 6, 7, 8), 7)
    assert comp.min_slacks == {
        "eq1": 0.0011874910240023263, "eq2": 0.03420806927583442,
        "eq4": -152.09802491835342, "eq5": 0.5575098732689661,
        "eq16": 0.4488239902233899, "eq21": 0.11290410853217736,
    }
    assert comp.argmin_trial == {"eq1": 70, "eq2": 27, "eq4": 191, "eq5": 73,
                                 "eq16": 137, "eq21": 43, "mapping": -1}


def test_run_trials_mapping_records_only_trials_meeting_condition18():
    # 1 x 1 trials meet condition (18) with equality and 2 x 2 ones fail it,
    # so unrecorded trials sit between recorded ones.
    f = ineq.ScalarFunction.power(2)
    rep = ineq.run_trials(f, "identity", ("mapping",), 20, (1, 2), 5)
    assert (rep.min_slacks, rep.argmin_trial, rep.skipped, rep.condition18_pass_rate) == (
        _reference_run_trials(f, "identity", ("mapping",), 20, (1, 2), 5))
    assert rep.condition18_pass_rate == 0.4


def test_run_trials_zero_trials_skips_every_check():
    rep = ineq.run_trials(ineq.ScalarFunction.power(2), "identity", ("eq16", "mapping"), 0)
    assert rep.min_slacks == {}
    assert rep.argmin_trial == {"eq16": -1, "mapping": -1}
    assert rep.skipped == ("eq16", "mapping")
    assert rep.condition18_pass_rate is None


def test_run_trials_rejects_unknown_map():
    with pytest.raises(ValueError, match="unknown map kind"):
        ineq.run_trials(ineq.ScalarFunction.power(2), "transpose", trials=5)


def test_run_trials_rejects_a_negative_trial_count():
    with pytest.raises(ValueError, match="^trials must be >= 0, got -1$"):
        ineq.run_trials(ineq.ScalarFunction.power(2), "identity", ("eq16",), trials=-1)


@pytest.mark.parametrize("dims, message", [
    ((), r"dims must be one or more dimensions, got \(\)"),
    ((0,), "dimension must be >= 1, got 0"),
    ((3, -1), "dimension must be >= 1, got -1"),
], ids=["dims0", "dims1", "dims2"])
def test_run_trials_rejects_empty_or_non_positive_dims(dims, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ineq.run_trials(ineq.ScalarFunction.power(2), dims=dims, trials=5)


def test_run_trials_sizes_must_be_integers():
    f = ineq.ScalarFunction.power(2)
    with pytest.raises(ValueError, match="^trials must be an integer, got 2.5$"):
        ineq.run_trials(f, "identity", ("eq16",), trials=2.5)
    with pytest.raises(ValueError, match="^dimension must be an integer, got 2.5$"):
        ineq.run_trials(f, "identity", ("eq16",), trials=3, dims=(2.5,))
    with pytest.raises(ValueError, match="^seed must be an integer, got 2.5$"):
        ineq.run_trials(f, "identity", ("eq16",), trials=3, seed=2.5)
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        ineq.run_trials(f, "identity", ("eq16",), trials=3, seed=-1)
    want = ineq.run_trials(f, "identity", ("eq16",), trials=3, dims=(2, 3), seed=5)
    got = ineq.run_trials(f, "identity", ("eq16",), trials=np.int64(3),
                          dims=(np.int32(2), np.int64(3)), seed=np.int64(5))
    assert got.to_json_dict() == want.to_json_dict()


def _gaussian(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


@pytest.mark.parametrize("d", [1, 2, 5, 8])
def test_stacked_operators_equal_per_matrix_bit_for_bit(d):
    f = ineq.ScalarFunction.power(2.5)
    seeds = range(9)
    G = np.stack([_gaussian(np.random.default_rng(s), d) for s in seeds])
    psd = ineq.random_psd(G, d)
    one_by_one = [ineq.random_psd(np.random.default_rng(s), d) for s in seeds]
    assert np.array_equal(psd, np.stack(one_by_one))

    shifted = psd - 5.0 * np.eye(d)
    assert np.array_equal(ineq.functional_calculus(psd, f),
                          np.stack([ineq.functional_calculus(a, f) for a in psd]))
    assert np.array_equal(ineq.abs_op(shifted), np.stack([ineq.abs_op(a) for a in shifted]))

    V = ineq.random_isometry(G, d, max(1, d // 2))
    single = [ineq.random_isometry(np.random.default_rng(s), d, max(1, d // 2)) for s in seeds]
    assert np.array_equal(V, np.stack(single))
    phi = ineq.PositiveMap.compression(V)
    singles = [ineq.PositiveMap.compression(v) for v in V]
    assert np.array_equal(phi.diagonal(psd),
                          np.stack([one.diagonal(a) for one, a in zip(singles, psd)]))
    mu = np.arange(len(psd)) % V.shape[-1]
    assert np.array_equal(ineq._berezin_of_map(phi, psd, mu),
                          [ineq._berezin_of_map(one, a, i) for one, a, i in zip(singles, psd, mu)])


def test_stacked_checks_equal_per_matrix_calls():
    f = ineq.ScalarFunction.power(3)
    # a unitary compression: a unital map that mixes every entry
    phi = ineq.PositiveMap.compression(ineq.random_isometry(np.random.default_rng(74), 4, 4))
    rng = np.random.default_rng(72)
    A, B, C = (np.stack([ineq.random_psd(rng, 4) for _ in range(5)]) for _ in range(3))
    mu = np.array([0, 1, 2, 3, 1])
    x = rng.uniform(0.0, 10.0, size=5)

    eq4 = popoviciu_operator_check(f, phi, A, B, C, mu)
    eq5 = intermediate_refinement_check(f, phi, A, x, mu)
    eq16 = corollary_c1_check(f, phi, A, mu)
    eq21 = derivative_proposition_check(f, phi, A)
    mp = ineq.berezin_mapping_check(f, phi, A)
    for i in range(5):
        assert eq4[i] == popoviciu_operator_check(f, phi, A[i], B[i], C[i], mu[i])
        assert eq5[i] == intermediate_refinement_check(f, phi, A[i], x[i], mu[i])
        assert eq16[i] == corollary_c1_check(f, phi, A[i], mu[i])
        assert eq21[i] == derivative_proposition_check(f, phi, A[i])
        single = ineq.berezin_mapping_check(f, phi, A[i])
        assert mp.condition18_failing[i] == single.condition18_failing
        assert mp.condition18_pass_rate[i] == single.condition18_pass_rate
        assert mp.identity_checked[i] == single.identity_checked
        assert mp.identity_max_dev[i] == single.identity_max_dev


def test_single_operator_results_keep_python_scalars():
    f = ineq.ScalarFunction.power(2)
    phi = ineq.PositiveMap.identity()
    a = ineq.random_psd(np.random.default_rng(73), 3)
    assert type(corollary_c1_check(f, phi, a, 1)) is float
    assert type(intermediate_refinement_check(f, phi, a, 2.0, 0)) is float
    assert type(popoviciu_operator_check(f, phi, a, a, a, 2)) is float
    assert type(derivative_proposition_check(f, phi, a)) is float
    mp = ineq.berezin_mapping_check(f, phi, np.diag([1.0, 2.0]))
    assert mp.condition18_failing == ()
    assert type(mp.identity_checked) is bool and type(mp.identity_max_dev) is float


def test_non_psd_stack_names_first_failing_matrix():
    stack = np.stack([np.eye(2), np.diag([1.0, -0.5]), np.diag([-2.0, 1.0])])
    with pytest.raises(ValueError, match=r"not positive \(matrix 1 of the stack\)"):
        ineq.functional_calculus(stack, ineq.ScalarFunction.power(2))
    skew = np.stack([np.eye(2), np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(ValueError, match=r"Hermitian.*\(matrix 2 of the stack\)"):
        ineq.abs_op(skew)


def test_power_rejects_non_finite_exponent():
    for p in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="power exponent must be finite"):
            ineq.ScalarFunction.power(p)


def test_run_trials_split_into_small_stacks_equals_per_trial_loop(monkeypatch):
    # 1024 bytes: one trial per stack at d = 8, sixteen at d = 2.
    monkeypatch.setattr(ineq, "_STACK_BYTES", 1024)
    dims = (2, 3, 4, 5, 6, 7, 8)
    for spec, map_kind in (("power:2", "identity"), ("power:3", "compression")):
        f = ineq.parse_function(spec)
        rep = ineq.run_trials(f, map_kind, ineq.TRIAL_CHECKS, 60, dims, 11)
        want = _reference_run_trials(f, map_kind, ineq.TRIAL_CHECKS, 60, dims, 11)
        assert (rep.min_slacks, rep.argmin_trial, rep.skipped,
                rep.condition18_pass_rate) == want


def test_run_trials_computes_f_of_a_once_per_stack(monkeypatch):
    # eq4, eq5, eq16 and mapping share one f(A) per stack: 8 trials at d = 3
    # are one stack, which needs f(A), eq4's f(B), f(C) and its three
    # f(|X - sI|) terms, and one such term each for eq5 and eq16.
    calls = []
    original = ineq.functional_calculus
    monkeypatch.setattr(ineq, "functional_calculus",
                        lambda A, f: calls.append(A.shape) or original(A, f))
    ineq.run_trials(ineq.ScalarFunction.power(2), "compression",
                    ("eq4", "eq5", "eq16", "mapping"), trials=8, dims=(3,), seed=1)
    assert calls == [(8, 3, 3)] * 8


def test_positive_map_hashes_and_compares_by_identity():
    V = ineq.random_isometry(np.random.default_rng(0), 4, 2)
    phi = ineq.PositiveMap.compression(V)
    twin = ineq.PositiveMap.compression(V.copy())
    assert hash(phi) == hash(phi)
    assert phi == phi
    assert phi != twin
    assert len({phi, twin, ineq.PositiveMap.identity()}) == 3

"""Seeded op lists for the four benchmark workloads.

Every workload is a list of strata.  A stratum is a pool of ops of about the
same cost; one round of a workload draws one op from every stratum and
shuffles them.  Drawing by stratum keeps the work of a run nearly the same
for every seed, while the seed still decides which parameters run and in
which order.  Every op in every pool has a recorded expected outcome in
``reference.json``, so the seed never produces an op the benchmark cannot
check.

An op is a dict:

* ``argv``: arguments of one ``python -m berezin`` call (CLI workloads), or
* ``call``: one library case run by the in-process runner (``oracle``),

plus ``key`` (its name in the reference), ``check`` (how its output is
compared) and, for CLI ops, ``files`` (outputs that are hashed).
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("range-sweep", "oracle", "ineq", "verify")

VERIFY_SUITES = (
    "hardy-elliptic",
    "bergman-elliptic",
    "blaschke",
    "automorphism-b0",
    "model",
    "matrix-diag",
    "oracle",
    "inequalities",
)

SPACES = ("hardy", "bergman")

# Nominal seconds of one round on a 2-core machine at the seed commit.  The
# number of rounds in a run is fixed from these and --seconds alone, never
# from a clock, so a faster program does the same work in less time and
# every run of a workload has the same number of ops.
ROUND_SECONDS = {"range-sweep": 9.5, "oracle": 5.5, "ineq": 6.5, "verify": 11.0}


def _cli(argv, check, files=()):
    return {
        "key": "cli " + " ".join(argv),
        "argv": list(argv),
        "check": check,
        "files": list(files),
    }


def _range(space, symbol, *params):
    stem = f"range_{space}_{symbol}"
    argv = ["range", "--space", space, "--symbol", symbol, *params]
    return _cli(argv, "lines", [stem + ".csv", stem + ".json", stem + ".svg"])


def _sweep(space, symbol, alphas, *params):
    argv = ["sweep", "--space", space, "--symbol", symbol, f"--alphas={alphas}", *params]
    return _cli(argv, "lines", [f"sweep_{space}_{symbol}.json"])


def _ineq(*params):
    return _cli(["ineq", *params], "ineq")


def _verify(suite):
    return _cli(["verify", "--suite", suite, "--json", "verify.json"], "verify", ["verify.json"])


def _lib(call):
    return {"key": "lib " + json.dumps(call, sort_keys=True), "call": call, "check": "oracle"}


# Symbols for the oracle, as (kind, parameters) with complex numbers as
# [re, im] pairs so that an op stays plain JSON.  The Taylor series of the
# Blaschke factor with alpha = 0.3i decays into subnormal numbers, which makes
# its composition matrix several times slower to build than the others'; it
# has strata of its own so that every round does the same work.
_DENSE_SYMBOLS = (
    {"symbol": "blaschke", "alpha": [0.5, 0.0]},
    {"symbol": "automorphism", "a": [1.25, 0.0], "b": [0.75, 0.0]},
    {"symbol": "elliptic", "alpha": [0.25, 0.25]},
)
_SUBNORMAL_SYMBOL = {"symbol": "blaschke", "alpha": [0.0, 0.3]}


def _oracle_points(space, symbol, n, point_seed):
    """composition_matrix at order n, then berezin_grid at 100 points, |w| <= 0.8."""
    return _lib(
        {"fn": "oracle_points", "space": space, **symbol, "N": n,
         "points": {"seed": point_seed, "count": 100, "r_max": 0.8}}
    )


def _oracle_grid(space, symbol, n, r_steps, theta_steps):
    """composition_matrix, then berezin_grid on a whole polar grid out to r 0.99."""
    return _lib(
        {"fn": "oracle_grid", "space": space, **symbol, "N": n,
         "grid": {"r_steps": r_steps, "theta_steps": theta_steps, "r_max": 0.99}}
    )


def _model_range(n, r_steps, theta_steps):
    return _lib(
        {"fn": "model_range", "n": n,
         "grid": {"r_steps": r_steps, "theta_steps": theta_steps, "r_max": 0.99}}
    )


def _numerical_range(n, directions):
    return _lib({"fn": "numerical_range", "n": n, "directions": directions})


def _range_sweep_strata():
    def both(make, params):
        return [make(space, *p) for space in SPACES for p in params]

    return [
        # complex elliptic parameters: thin curved REGION2D, NOT_CONVEX
        both(_range, [("elliptic", f"--alpha={a}") for a in ("0.5i", "0.3+0.4i", "-0.2+0.6i", "0.1+0.1i")]),
        # real elliptic parameters and rotations: SEGMENT (thin-set gap test,
        # either verdict) or POINT, and the rotation sweep
        both(_range, [("elliptic", f"--alpha={a}") for a in ("-0.5", "0.5", "-0.8", "0.9", "1")]
             + [("automorphism", f"--a={a}") for a in ("1", "-1", "i", "-i")])
        + both(_sweep, [("automorphism", "1,i,-1,-i")]),
        # Blaschke factors and automorphisms with b != 0: REGION2D with the
        # 51k-point coverage test
        both(_range, [("blaschke", f"--alpha={a}") for a in ("0.5", "0.3i", "0.2+0.2i", "-0.7i")]
             + [("automorphism", f"--a={a}", f"--b={b}")
                for a, b in (("1.25", "0.75"), ("1.025", "0.225"), ("2.6", "2.4"), ("1.25", "0.75i"))]),
        # a coarse tolerance puts coverage between the thresholds: INCONCLUSIVE
        # or NOT_CONVEX
        both(_range, [("blaschke", f"--alpha={a}", f"--tol={t}") for a in ("0.5", "0.3i") for t in ("0.02", "0.05")]),
        # elliptic sweeps on the default 2000x8 grid: segments, a point, one curve
        both(_sweep, [("elliptic", "-1,-0.5,0,0.5,1,i"), ("elliptic", "-0.9,-0.3,0.3,0.9,-0.6,0.5i")]),
        # Hardy Blaschke sweeps, two REGION2D coverage tests each.  Every one
        # includes alpha = +-0.5, the largest peak RSS of the workload, so
        # that peak_rss_mb does not depend on the seed.
        [_sweep("hardy", "blaschke", a) for a in ("0.5,0.3i", "-0.5,0.2+0.2i", "0.3i,-0.5", "0.2+0.2i,0.5")],
    ]


def _oracle_strata():
    dense_512 = [_oracle_points(sp, sym, 512, seed)
                 for sp in SPACES for sym in _DENSE_SYMBOLS for seed in (12, 13)]
    subnormal_512 = [_oracle_points(sp, _SUBNORMAL_SYMBOL, 512, seed)
                     for sp in SPACES for seed in (12, 13)]
    # elliptic symbols give a diagonal matrix; keep the build-bound ops dense
    dense_1024 = [_oracle_points(sp, sym, 1024, seed)
                  for sp in SPACES for sym in _DENSE_SYMBOLS[:2] for seed in (11,)]
    grid_256 = [_oracle_grid(sp, sym, 256, 200, 256)
                for sp in SPACES for sym in (*_DENSE_SYMBOLS, _SUBNORMAL_SYMBOL)]
    # Two strata of the mid-cost subnormal builds put the median op of a run
    # inside one cluster of latencies rather than in a gap between two.
    return [
        [_model_range(n, 200, 256) for n in (2, 3, 5, 8)],
        dense_512,
        [_numerical_range(n, 180) for n in (62, 63, 64, 65)],
        subnormal_512,
        subnormal_512,
        dense_1024,
        grid_256,
    ]


def _ineq_pool(check_args, dim_args, functions, trials=()):
    """Six (function, map, seed) combinations for one (checks, dimension) stratum."""
    maps = ("identity", "pinching", "compression")
    seeds = ("42", "7")
    pool = []
    for i in range(6):
        f = functions[i % len(functions)]
        m = maps[i % len(maps)]
        s = seeds[(i // 3) % 2]
        pool.append(_ineq("--f", f, "--map", m, "--seed", s, *trials, *dim_args, *check_args))
    return pool


def _ineq_strata():
    every_f = ("power:2", "power:3", "power:2.5", "neg-const")
    nonneg_f = ("power:2", "power:3", "power:2.5")
    strata = []
    # The default check set (eq4 included, which exits 1 by design for the
    # power functions) in each dimension regime.  500 trials instead of the
    # default 1000 bring these ops to about the cost of the single-check ops
    # below, so that the median op falls inside one cluster of latencies.
    for dim_args in (("--dim", "2"), ("--dim", "8"), ()):
        strata.append(_ineq_pool((), dim_args, every_f, ("--trials", "500")))
    # Single checks with the default 1000 trials: the dimension regime is
    # part of the draw.
    dims = (("--dim", "2"), ("--dim", "8"), ())
    for check_args, functions in (
        (("--check", "eq16"), every_f),
        (("--check", "eq5"), every_f),
        (("--check", "eq21"), nonneg_f),
        (("--diag-only",), every_f),
    ):
        pool = []
        for dim_args in dims:
            pool += _ineq_pool(check_args, dim_args, functions)[:2]
        strata.append(pool)
    return strata


def _verify_strata():
    return [[_verify(s)] for s in VERIFY_SUITES]


def _smoke_strata():
    """Tiny ops: every workload end to end in a few seconds."""
    return {
        "range-sweep": [
            [_range("hardy", "elliptic", "--alpha=0.5i", "--r-steps=6", "--theta-steps=8")],
            [_sweep("bergman", "elliptic", "-0.5,0.5i", "--r-steps=40", "--theta-steps=4")],
        ],
        "oracle": [
            [_oracle_points("hardy", _DENSE_SYMBOLS[0], 32, 12)],
            [_oracle_grid("bergman", _DENSE_SYMBOLS[1], 16, 6, 8)],
            [_model_range(3, 6, 8)],
            [_numerical_range(4, 12)],
        ],
        "ineq": [
            [_ineq("--trials", "20", "--dim", "2", "--check", "eq16")],
            [_ineq("--trials", "20", "--f", "power:3", "--map", "compression")],
        ],
        "verify": [[_verify("matrix-diag")], [_verify("model")]],
    }


def strata(workload: str, smoke: bool = False) -> list[list[dict]]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if smoke:
        return _smoke_strata()[workload]
    return {
        "range-sweep": _range_sweep_strata,
        "oracle": _oracle_strata,
        "ineq": _ineq_strata,
        "verify": _verify_strata,
    }[workload]()


def rounds_for(workload: str, seconds: float, smoke: bool = False) -> int:
    if smoke:
        return 1
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def generate(workload: str, seed: int, seconds: float, smoke: bool = False) -> list[dict]:
    """The run's op list: ``rounds_for`` rounds, each one op per stratum, shuffled."""
    pools = strata(workload, smoke)
    rng = random.Random(f"{workload}/{seed}")
    ops = []
    for _ in range(rounds_for(workload, seconds, smoke)):
        batch = [rng.choice(pool) for pool in pools]
        rng.shuffle(batch)
        ops += batch
    return ops


def catalogue() -> list[dict]:
    """Every op any seed can draw, full size and smoke, without duplicates."""
    seen = {}
    for smoke in (False, True):
        for w in WORKLOADS:
            for pool in strata(w, smoke):
                for op in pool:
                    seen.setdefault(op["key"], op)
    return list(seen.values())

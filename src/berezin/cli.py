"""Command-line surface: range sampling, convexity sweeps, verification
suites, and the randomized inequality harness.

Exit codes: 0 success, 1 check/inequality failure, 2 invalid parameters,
3 unwritable output path.  Outputs are deterministic for a fixed
configuration and seed, and all files are written atomically.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import closed_form as cf
from . import geometry
from . import inequalities as ineq
from . import kernels
from . import output
from . import symbols
from . import verify as verify_mod

__all__ = ["main", "parse_complex", "RunConfig"]

_SPACES = {"hardy": kernels.HARDY, "bergman": kernels.BERGMAN}


def parse_complex(text: str) -> complex:
    """Parse 'a+bi', 'a-bi', 'bi', 'a' (plus bare 'i'/'-i'), any whitespace."""
    t = "".join(text.split())
    if not t:
        raise ValueError("empty complex literal")
    try:
        if not t.endswith("i"):
            return complex(float(t), 0.0)
        body = t[:-1]
        re_part, im_part = "", body
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "eE":
                re_part, im_part = body[:k], body[k:]
                break
        if im_part in ("", "+"):
            im_val = 1.0
        elif im_part == "-":
            im_val = -1.0
        else:
            im_val = float(im_part)
        return complex(float(re_part) if re_part else 0.0, im_val)
    except ValueError as exc:
        raise ValueError(f"cannot parse complex literal {text!r}") from exc


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Validated knobs shared by the sampling commands."""

    r_steps: int = 200
    theta_steps: int = 256
    r_max: float = 0.998
    tolerance: float | None = None
    trials: int = 1000
    seed: int = 42

    def __post_init__(self) -> None:
        if not (0.0 < self.r_max < 1.0):
            raise ValueError("r_max must lie in (0, 1)")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.r_steps < 2 or self.theta_steps < 1:
            raise ValueError("grid must have at least 2 radii and 1 angle")

    def grid(self) -> cf.PolarGrid:
        return cf.PolarGrid.regular(self.r_steps, self.theta_steps, self.r_max)

    def grid_payload(self) -> dict:
        """The "grid" entry of a range or sweep report."""
        return {"r_steps": self.r_steps, "theta_steps": self.theta_steps, "r_max": self.r_max}


def _build_symbol(kind: str, alpha=None, a=None, b=None) -> symbols.SymbolSpec:
    """The symbol of one kind from its complex literals; only the literals
    that the kind uses are parsed."""
    if kind == "elliptic":
        if alpha is None:
            raise symbols.SymbolError("elliptic symbol needs --alpha")
        return symbols.elliptic(parse_complex(alpha))
    if kind == "blaschke":
        if alpha is None:
            raise symbols.SymbolError("blaschke symbol needs --alpha")
        return symbols.blaschke(parse_complex(alpha))
    if kind == "automorphism":
        if a is None:
            raise symbols.SymbolError("automorphism symbol needs --a (and optional --b)")
        return symbols.automorphism(parse_complex(a), parse_complex(b) if b is not None else 0.0)
    raise symbols.SymbolError(f"unknown symbol kind {kind!r}")


def _label(value: complex) -> str:
    re, im = value.real, value.imag
    if im == 0:
        return f"{re:g}"
    if re == 0:
        return f"{im:g}i"
    return f"{re:g}{im:+g}i"


def _grid_config(args) -> RunConfig:
    """The RunConfig of a range or sweep run, from its grid options."""
    return RunConfig(
        r_steps=args.r_steps,
        theta_steps=args.theta_steps,
        r_max=args.r_max,
        tolerance=args.tol,
    )


def cmd_range(args) -> int:
    config = _grid_config(args)
    space = _SPACES[args.space]
    symbol = _build_symbol(args.symbol, args.alpha, args.a, args.b)
    sample = cf.sample_range(space, symbol, config.grid())
    report = geometry.classify_range(sample, tol=config.tolerance)

    stem = f"range_{args.space}_{args.symbol}"
    csv_path = args.csv or f"{stem}.csv"
    json_path = args.json or f"{stem}.json"
    svg_path = args.svg or f"{stem}.svg"
    payload = {
        "space": args.space,
        "symbol": symbol.label,
        "grid": config.grid_payload(),
        "berezin_number": sample.berezin_number(),
        "report": report.to_json_dict(),
    }
    output.write_csv(csv_path, sample)
    output.write_json(json_path, payload)
    output.write_svg(svg_path, sample.points(), title=f"{args.space} {symbol.label}")
    print(
        f"{args.space} {symbol.label}: verdict {report.verdict} "
        f"(shape {report.shape.tag}, ber {sample.berezin_number():.6f})"
    )
    print(f"wrote {csv_path}, {json_path}, {svg_path}")
    return 0


def cmd_sweep(args) -> int:
    config = _grid_config(args)
    tokens = [token.strip() for token in args.alphas.split(",") if token.strip()]
    if not tokens:
        raise ValueError(f"--alphas names no parameter value: {args.alphas!r}")
    space = _SPACES[args.space]
    grid = config.grid()
    # Every symbol is built before any is sampled, so an invalid list prints
    # nothing but the error; for automorphism the token is a, with b = 0.
    built = [_build_symbol(args.symbol, alpha=token, a=token) for token in tokens]
    entries = []
    for symbol in built:
        value = symbol.a if symbol.kind == "automorphism" else symbol.alpha
        sample = cf.sample_range(space, symbol, grid)
        report = geometry.classify_range(sample, tol=config.tolerance)
        entries.append(
            {
                "alpha": _label(value),
                "verdict": report.verdict,
                "shape": report.shape.tag,
                "coverage_ratio": report.coverage_ratio,
                "max_gap": report.max_gap,
            }
        )
        print(f"alpha={_label(value)}: {report.verdict} ({report.shape.tag})")
    payload = {
        "space": args.space,
        "symbol": args.symbol,
        "grid": config.grid_payload(),
        "entries": entries,
    }
    json_path = args.json or f"sweep_{args.space}_{args.symbol}.json"
    output.write_json(json_path, payload)
    print(f"wrote {json_path}")
    return 0


def cmd_verify(args) -> int:
    names = verify_mod.suite_names() if args.all else [args.suite]
    all_results = []
    for name in names:
        for res in verify_mod.run_suite(name):
            all_results.append(res)
            mark = "PASS" if res.passed else "FAIL"
            extra = f"  [{res.detail}]" if res.detail else ""
            print(
                f"[{res.suite}] {res.name}: {mark} "
                f"(deviation {res.deviation:.3e}, threshold {res.threshold:.1e})"
                f"{extra}"
            )
    failures = [r for r in all_results if not r.passed]
    if args.json:
        output.write_json(
            args.json,
            {
                "suites": names,
                "checks": [r.to_json_dict() for r in all_results],
                "failed": len(failures),
            },
        )
    print(f"{len(all_results) - len(failures)}/{len(all_results)} checks passed")
    if failures:
        print(
            json.dumps(
                {
                    "schema": 1,
                    "failures": [r.to_json_dict() for r in failures],
                },
                sort_keys=True,
            )
        )
        return 1
    return 0


def _checks_for(f: ineq.ScalarFunction, requested) -> tuple[str, ...]:
    if requested:
        for name in requested:
            missing = [h for h in ineq.CHECK_REQUIRES[name] if not getattr(f, h)]
            if missing:
                raise ValueError(
                    f"check {name!r} requires a {' '.join(missing)} function; "
                    f"{f.name} violates: {missing[0]}"
                )
        return tuple(requested)
    return tuple(
        name
        for name in ineq.TRIAL_CHECKS
        if all(getattr(f, h) for h in ineq.CHECK_REQUIRES[name])
    )


def cmd_ineq(args) -> int:
    config = RunConfig(trials=args.trials, seed=args.seed)
    f = ineq.parse_function(args.f)
    if args.diag_only and not args.check:
        # diagonal mode exists to exercise the mapping identity; the
        # inequality checks have their own full-matrix harness runs
        checks = ("mapping",)
    else:
        checks = _checks_for(f, args.check)
    if args.dim is not None and args.dim < 1:
        raise ValueError(f"--dim must be >= 1, got {args.dim}")
    dims = (args.dim,) if args.dim is not None else (2, 3, 4, 5, 6, 7, 8)
    report = ineq.run_trials(
        f,
        map_kind=args.map,
        checks=checks,
        trials=config.trials,
        dims=dims,
        seed=config.seed,
        diag_only=args.diag_only,
    )
    payload = report.to_json_dict()
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.json:
        output.write_json(args.json, payload)
    if report.min_slacks and report.min_slack() < ineq.SLACK_TOL:
        print(
            f"violation: {report.worst_check()} min slack "
            f"{report.min_slack():.6e} < {ineq.SLACK_TOL:.1e}",
            file=sys.stderr,
        )
        return 1
    return 0


def _add_grid_options(parser, r_steps: int, theta_steps: int) -> None:
    parser.add_argument("--r-steps", type=int, default=r_steps)
    parser.add_argument("--theta-steps", type=int, default=theta_steps)
    parser.add_argument("--r-max", type=float, default=0.998)
    parser.add_argument("--tol", type=float, default=None,
                        help="classification tolerance (default: scale-based)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="berezin",
        description="Berezin-range sampling, convexity analysis, and "
        "inequality verification on disk function spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_range = sub.add_parser("range", help="sample one Berezin range and classify it")
    p_range.add_argument("--space", choices=sorted(_SPACES), required=True)
    p_range.add_argument(
        "--symbol", choices=("elliptic", "automorphism", "blaschke"), required=True
    )
    p_range.add_argument("--alpha", help='complex literal, e.g. "0.25+0.25i"')
    p_range.add_argument("--a", help="automorphism numerator coefficient")
    p_range.add_argument("--b", help="automorphism offset coefficient (default 0)")
    _add_grid_options(p_range, 200, 256)
    p_range.add_argument("--csv")
    p_range.add_argument("--json")
    p_range.add_argument("--svg")
    p_range.set_defaults(fn=cmd_range)

    p_sweep = sub.add_parser("sweep", help="classify ranges over a parameter list")
    p_sweep.add_argument("--space", choices=sorted(_SPACES), required=True)
    p_sweep.add_argument(
        "--symbol", choices=("elliptic", "automorphism", "blaschke"), default="elliptic"
    )
    p_sweep.add_argument(
        "--alphas",
        required=True,
        help='comma-separated complex literals; for automorphism these are '
        'the "a" values with b = 0',
    )
    _add_grid_options(p_sweep, 2000, 8)
    p_sweep.add_argument("--json")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    group = p_verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--suite", choices=verify_mod.suite_names())
    group.add_argument("--all", action="store_true")
    p_verify.add_argument("--json")
    p_verify.set_defaults(fn=cmd_verify)

    p_ineq = sub.add_parser("ineq", help="randomized operator-inequality harness")
    p_ineq.add_argument("--f", default="power:2", help="power:P or neg-const[:C]")
    p_ineq.add_argument(
        "--map", choices=("identity", "pinching", "compression"), default="identity"
    )
    p_ineq.add_argument("--trials", type=int, default=1000)
    p_ineq.add_argument("--dim", type=int, default=None,
                        help="fix one dimension (default: draw from 2..8)")
    p_ineq.add_argument("--seed", type=int, default=42)
    p_ineq.add_argument("--diag-only", action="store_true")
    p_ineq.add_argument(
        "--check",
        action="append",
        choices=ineq.TRIAL_CHECKS,
        help="restrict to specific checks (repeatable; default: all that "
        "the function's hypotheses support)",
    )
    p_ineq.add_argument("--json")
    p_ineq.set_defaults(fn=cmd_ineq)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (symbols.SymbolError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

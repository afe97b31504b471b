"""Command-line surface: range sampling, convexity sweeps, verification
suites, and the randomized inequality harness.

Exit codes: 0 success, 1 check/inequality failure, 2 invalid parameters or
a request too large to allocate, 3 unwritable output path.  Outputs are
deterministic for a fixed configuration and seed, and all files are written
atomically.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

# Each command imports the package modules it runs, and nothing else; help
# and usage lines load numpy only to list the --suite, --check or --map
# choices.

__all__ = ["main", "parse_complex"]

_SPACES = ("bergman", "hardy")
_SYMBOLS = ("elliptic", "automorphism", "blaschke")


def parse_complex(text: str) -> complex:
    """Parse 'a+bi', 'a-bi', 'bi', 'a' (plus bare 'i'/'-i'), any whitespace."""
    t = "".join(text.split())
    if not t:
        raise ValueError("empty complex literal")
    try:
        # Python's complex literal with i for j; complex() also reads j, J and
        # parentheses, which this syntax does not have.
        if any(c in t for c in "jJ()"):
            raise ValueError(t)
        return complex(t[:-1] + "j") if t.endswith("i") else complex(float(t), 0.0)
    except ValueError as exc:
        raise ValueError(f"cannot parse complex literal {text!r}") from exc


def _build_symbol(kind: str, alpha=None, a=None, b=None):
    """The symbol of one kind from its complex literals; only the literals
    that the kind uses are parsed."""
    from . import symbols
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


def _grid_payload(args) -> dict:
    """The "grid" entry of a range or sweep report."""
    return {"r_steps": args.r_steps, "theta_steps": args.theta_steps, "r_max": args.r_max}


def cmd_range(args) -> int:
    from . import closed_form as cf, geometry, kernels, output
    grid = cf.PolarGrid.regular(args.r_steps, args.theta_steps, args.r_max)
    space = kernels.SpaceSpec(args.space)
    symbol = _build_symbol(args.symbol, args.alpha, args.a, args.b)
    sample = cf.sample_range(space, symbol, grid)
    report = geometry.classify_range(sample, tol=args.tol)

    stem = f"range_{args.space}_{args.symbol}"
    csv_path = args.csv or f"{stem}.csv"
    json_path = args.json or f"{stem}.json"
    svg_path = args.svg or f"{stem}.svg"
    ber = sample.berezin_number()
    payload = {
        "space": args.space,
        "symbol": symbol.label,
        "grid": _grid_payload(args),
        "berezin_number": ber,
        "report": report.to_json_dict(),
    }
    output.write_csv(csv_path, sample)
    output.write_json(json_path, payload)
    output.write_svg(svg_path, sample.points(), title=f"{args.space} {symbol.label}")
    print(
        f"{args.space} {symbol.label}: verdict {report.verdict} "
        f"(shape {report.shape.tag}, ber {ber:.6f})"
    )
    print(f"wrote {csv_path}, {json_path}, {svg_path}")
    return 0


def cmd_sweep(args) -> int:
    from . import closed_form as cf, geometry, kernels, output
    grid = cf.PolarGrid.regular(args.r_steps, args.theta_steps, args.r_max)
    tokens = [token.strip() for token in args.alphas.split(",") if token.strip()]
    if not tokens:
        raise ValueError(f"--alphas names no parameter value: {args.alphas!r}")
    space = kernels.SpaceSpec(args.space)
    # Every symbol is built before any is sampled, so an invalid list prints
    # nothing but the error; for automorphism the token is a, with b = 0.
    built = [_build_symbol(args.symbol, alpha=token, a=token) for token in tokens]
    entries = []
    for symbol in built:
        value = symbol.a if symbol.kind == "automorphism" else symbol.alpha
        sample = cf.sample_range(space, symbol, grid)
        report = geometry.classify_range(sample, tol=args.tol)
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
        "grid": _grid_payload(args),
        "entries": entries,
    }
    json_path = args.json or f"sweep_{args.space}_{args.symbol}.json"
    output.write_json(json_path, payload)
    print(f"wrote {json_path}")
    return 0


def cmd_verify(args) -> int:
    from . import verify as verify_mod
    names = list(verify_mod.SUITES) if args.all else [args.suite]
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
        from . import output
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


def cmd_ineq(args) -> int:
    from . import inequalities as ineq
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    f = ineq.parse_function(args.f)
    if args.diag_only and not args.check:
        # diagonal mode exists to exercise the mapping identity; the
        # inequality checks have their own full-matrix harness runs
        checks = ("mapping",)
    else:
        checks = ineq.checks_for(f, args.check)
    if args.dim is not None and args.dim < 1:
        raise ValueError(f"--dim must be >= 1, got {args.dim}")
    dims = {"dims": (args.dim,)} if args.dim is not None else {}
    report = ineq.run_trials(
        f,
        map_kind=args.map,
        checks=checks,
        trials=args.trials,
        seed=args.seed,
        diag_only=args.diag_only,
        **dims,
    )
    payload = report.to_json_dict()
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.json:
        from . import output
        output.write_json(args.json, payload)
    if report.min_slacks and report.min_slack() < ineq.SLACK_TOL:
        print(
            f"violation: {report.worst_check()} min slack "
            f"{report.min_slack():.6e} < {ineq.SLACK_TOL:.1e}",
            file=sys.stderr,
        )
        return 1
    return 0


class _OwnedChoices:
    """The choices of an option, read from the module that defines them only
    when argparse tests a value or prints the list.  Set them on the action
    that add_argument returns: add_argument formats its choices once."""

    def __init__(self, module: str, name: str):
        self.module, self.name = module, name

    def _values(self):
        return getattr(importlib.import_module(f"{__package__}.{self.module}"), self.name)

    def __contains__(self, value) -> bool:
        return value in self._values()

    def __iter__(self):
        return iter(self._values())


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
    p_range.add_argument("--space", choices=_SPACES, required=True)
    p_range.add_argument("--symbol", choices=_SYMBOLS, required=True)
    p_range.add_argument("--alpha", help='complex literal, e.g. "0.25+0.25i"')
    p_range.add_argument("--a", help="automorphism numerator coefficient")
    p_range.add_argument("--b", help="automorphism offset coefficient (default 0)")
    _add_grid_options(p_range, 200, 256)
    p_range.add_argument("--csv")
    p_range.add_argument("--json")
    p_range.add_argument("--svg")
    p_range.set_defaults(fn=cmd_range)

    p_sweep = sub.add_parser("sweep", help="classify ranges over a parameter list")
    p_sweep.add_argument("--space", choices=_SPACES, required=True)
    p_sweep.add_argument("--symbol", choices=_SYMBOLS, default="elliptic")
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
    group.add_argument("--suite").choices = _OwnedChoices("verify", "SUITES")
    group.add_argument("--all", action="store_true")
    p_verify.add_argument("--json")
    p_verify.set_defaults(fn=cmd_verify)

    p_ineq = sub.add_parser("ineq", help="randomized operator-inequality harness")
    p_ineq.add_argument("--f", default="power:2", help="power:P or neg-const[:C]")
    p_ineq.add_argument("--map", default="identity").choices = _OwnedChoices(
        "inequalities", "_MAP_KINDS")
    p_ineq.add_argument("--trials", type=int, default=1000)
    p_ineq.add_argument("--dim", type=int, default=None,
                        help="fix one dimension (default: draw from 2..8)")
    p_ineq.add_argument("--seed", type=int, default=42)
    p_ineq.add_argument("--diag-only", action="store_true")
    p_ineq.add_argument(
        "--check",
        action="append",
        help="restrict to specific checks (repeatable; default: all that "
        "the function's hypotheses support)",
    ).choices = _OwnedChoices("inequalities", "TRIAL_CHECKS")
    p_ineq.add_argument("--json")
    p_ineq.set_defaults(fn=cmd_ineq)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

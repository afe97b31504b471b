"""Compare two checkouts with the same benchmark code, in alternating pairs.

    python3 bench/compare.py --base ../parent --head . [--workload oracle]

Each of the 10 pairs runs ``bench/run.py`` from this directory once in each
checkout with the same seed; which side runs first alternates from pair to
pair, and every pair has its own seed (1000 to 1009).  For every workload
and end-to-end metric the table gives each side's median and quartiles, the
pairs the head won, and a verdict:

* ``gain``: the head wins at least 9 of 10 pairs (ties count for neither),
  the medians differ by more than the base's interquartile range, and no
  more ops fail than on the base;
* ``unresolved``: the spread of either side is wider than the metric's
  bound and not every head run beats every base run;
* ``regression``: the head's median is worse than the base's by more than
  the bound;
* ``within bound`` otherwise.

Running it with ``--base`` and ``--head`` on the same checkout shows whether
two sets of runs of one program agree within the bounds.

The ``op_tail_pooled`` row pools every op of a side's runs and takes the
highest op-latency percentile with at least ten ops beyond it (p92 to p96 over
the 120 to 280 ops of ten runs).  It is one number per side, so it has no pairs
to win: its verdict is ``regression`` when the head's pooled tail is worse by
more than ``op_tail_s``'s bound and ``within bound`` otherwise.  A tail gain is
claimed on the paired ``op_tail_s`` row.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

WIN_SHARE = 0.9
PAIRS = 10
FIRST_SEED = 1000
TAIL_BEYOND = 10


def load_benchmark() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_once(checkout, workload, seed, seconds):
    """One untraced run in ``checkout``: (result line, op latencies)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed in {checkout}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    latencies = []
    for line in lines:
        if line.startswith("# provenance "):
            digest = json.loads(line[len("# provenance "):])["source_sha256"]
            path = os.path.join(HERE, "results",
                                f"{workload}_seed{seed}_trace0_{digest[:12]}.json")
            with open(path, encoding="utf-8") as handle:
                latencies = [r["seconds"] for r in json.load(handle)["ops"] if not r["problems"]]
    return result, latencies


def pooled_tail(latencies):
    """The highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, samples beyond).  With TAIL_BEYOND or fewer
    samples no such percentile exists and the maximum is returned with 0.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


def spread(values):
    q1, q3 = run.quartiles(values)
    return q1, q3, (q3 - q1) / statistics.median(values)


def verdict(base, head, bound, lower_is_better, base_failed, head_failed):
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (b - h) > 0)
    b_med, h_med = statistics.median(base), statistics.median(head)
    b_q1, b_q3, b_spread = spread(base)
    _, _, h_spread = spread(head)
    gain = sign * (b_med - h_med)
    all_better = all(sign * (b - h) > 0 for b in base for h in head)
    if wins >= WIN_SHARE * len(base) and gain > b_q3 - b_q1 and head_failed <= base_failed:
        return wins, "gain"
    if max(b_spread, h_spread) > bound and not all_better:
        return wins, "unresolved"
    if -gain > bound * b_med:
        return wins, "regression"
    return wins, "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="checkout of the parent commit")
    parser.add_argument("--head", required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)

    bench = load_benchmark()
    seconds = bench["run_seconds"]
    sides = {"base": os.path.abspath(args.base), "head": os.path.abspath(args.head)}
    print(f"{'workload':12} {'metric':12} {'base median [q1, q3]':>30} "
          f"{'head median [q1, q3]':>30} {'wins':>6}  verdict")
    for workload in args.workload or workloads.WORKLOADS:
        values = {side: {} for side in sides}
        failed = {side: 0 for side in sides}
        pooled = {side: [] for side in sides}
        for i in range(PAIRS):
            seed = FIRST_SEED + i
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                result, latencies = run_once(sides[side], workload, seed, seconds)
                failed[side] += result["failed"]
                pooled[side] += latencies
                for name, m in result["metrics"].items():
                    values[side].setdefault(name, []).append(m["value"])
        for metric in bench["end_to_end"]:
            name = metric["name"]
            base, head = values["base"][name], values["head"][name]
            wins, call = verdict(base, head, metric["bound"], metric["better"] == "lower",
                                 failed["base"], failed["head"])
            cells = []
            for side_values in (base, head):
                q1, q3, _ = spread(side_values)
                cells.append(f"{statistics.median(side_values):.4g} [{q1:.4g}, {q3:.4g}]")
            print(f"{workload:12} {name:12} {cells[0]:>30} {cells[1]:>30} "
                  f"{wins:>3}/{len(base):<2}  {call}")
        cells, tails = [], []
        for side in sides:
            tail, pct, beyond = pooled_tail(pooled[side])
            tails.append(tail)
            cells.append(f"p{pct:.1f} {tail:.4g} ({beyond}/{len(pooled[side])} beyond)")
        bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "op_tail_s")
        call = "regression" if tails[1] > tails[0] * (1 + bound) else "within bound"
        print(f"{workload:12} {'op_tail_pooled':12} {cells[0]:>30} {cells[1]:>30} {'-':>6}  {call}")
        print(f"{workload:12} failed ops: base {failed['base']}, head {failed['head']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

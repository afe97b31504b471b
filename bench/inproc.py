"""In-process runner: runs an op list inside one interpreter.

Used for the ``oracle`` workload (library calls need a process to live in)
and for every traced run.  CLI ops call ``berezin.cli.main(argv)`` directly,
with the working directory switched to the run's work directory.

Usage (the list is a JSON file written by run.py):

    python3 bench/inproc.py --ops OPS.json --workdir DIR --out OUT.json \
        --op-timeout SECONDS [--trace SPANS.jsonl]

Untraced, every op runs once.  Traced, the list runs three times in the
same process: untraced (this pass also pays every first-call cost), traced,
and untraced again.  The traced pass minus the last pass is the tracing
overhead.  Only the timed part of an op is traced: its root span
``harness.op`` covers exactly the seconds the op reports, so the layers' self
times plus the harness's own add up to the traced wall time.

An op still running after ``--op-timeout`` seconds is interrupted (Python
code is interrupted at once, a running C call when it returns) and counts as
failed, as does one that took longer without being interrupted.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

# Closed-form cross-check of the oracle: at points whose kernel tail norm
# |(1 - P_N) k_w| is below CROSS_TAIL the truncated quadratic form must agree
# with the closed form within CROSS_TOL, the threshold of the oracle suite.
CROSS_TAIL = 1e-10
CROSS_TOL = 1e-8
EXACT_TOL = 1e-12
SAMPLES = 64


class OpTimeout(Exception):
    pass


def _interrupt(signum, frame):
    raise OpTimeout


class Timed:
    """Times the measured part of an op.  Traced, it is the op's root span,
    and the tracer records spans only inside it."""

    def __init__(self, tracer=None, index=None):
        self.tracer, self.index = tracer, index
        self.seconds = math.nan

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.op = self.index
            self._span = self.tracer.begin("harness.op", "harness")
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._t0
        if self.tracer is not None:
            self.tracer.end(self._span)
            self.tracer.op = None
        return False


def _complex(pair):
    return complex(pair[0], pair[1])


def _symbol(berezin, call):
    sym = berezin.symbols
    if call["symbol"] == "elliptic":
        return sym.elliptic(_complex(call["alpha"]))
    if call["symbol"] == "blaschke":
        return sym.blaschke(_complex(call["alpha"]))
    return sym.automorphism(_complex(call["a"]), _complex(call["b"]))


def _tail_norm(np, space, ws, N):
    """|(1 - P_N) k̂_w| for the Hardy and Bergman normalized kernels."""
    s = np.abs(ws) ** 2
    tail = np.abs(ws) ** N
    if space == "bergman":
        tail = tail * np.sqrt(N + 1 - N * s)
    return tail


def _sample(np, values):
    flat = np.asarray(values).ravel()
    idx = np.linspace(0, flat.size - 1, min(SAMPLES, flat.size)).astype(int)
    return [[float(v.real), float(v.imag)] for v in flat[idx]]


def run_lib(berezin, call, timed):
    """One library case: its outcome.  Inputs are built and checked outside ``timed``."""
    import numpy as np

    cf, mo, ker = berezin.closed_form, berezin.matrix_oracle, berezin.kernels
    fn = call["fn"]
    if "grid" in call:
        g = call["grid"]
        grid = cf.PolarGrid.regular(g["r_steps"], g["theta_steps"], g["r_max"])
    if fn in ("oracle_points", "oracle_grid"):
        space = {"hardy": ker.HARDY, "bergman": ker.BERGMAN}[call["space"]]
        symbol = _symbol(berezin, call)
        N = call["N"]
        if fn == "oracle_points":
            p = call["points"]
            rng = np.random.default_rng(p["seed"])
            r = p["r_max"] * np.sqrt(rng.uniform(size=p["count"]))
            ws = r * np.exp(2j * np.pi * rng.uniform(size=p["count"]))
            transform = cf.hardy_transform if call["space"] == "hardy" else cf.bergman_transform

            def closed_form():
                return transform(symbol, ws)
        else:
            ws = grid.mesh()

            def closed_form():
                return cf.sample_range(space, symbol, grid).values
        with timed:
            op = mo.composition_matrix(space, symbol, N)
            values = mo.berezin_grid(op, space, ws)
            closed = closed_form()
        mask = _tail_norm(np, call["space"], ws, N) < CROSS_TAIL
        dev = float(np.max(np.abs(values - closed)[mask])) if mask.any() else 0.0
        cross = {"points": int(mask.sum()), "max_dev": dev, "threshold": CROSS_TOL}
    elif fn == "model_range":
        n = call["n"]
        mesh = grid.mesh()
        with timed:
            values = mo.model_berezin_range(n, grid).values
            closed = cf.model_transform(n, mesh)
        cross = {"points": int(values.size), "max_dev": float(np.max(np.abs(values - closed))),
                 "threshold": EXACT_TOL}
    elif fn == "numerical_range":
        n = call["n"]
        matrix = mo.model_operator_matrix(n)
        with timed:
            boundary = mo.numerical_range_boundary(matrix, call["directions"])
        values = boundary[:, 0] + 1j * boundary[:, 1]
        # W of the n-dimensional shift is the disk of radius cos(pi / (n + 1)).
        radius = math.cos(math.pi / (n + 1))
        cross = {"points": int(values.size),
                 "max_dev": float(np.max(np.abs(np.abs(values) - radius))), "threshold": EXACT_TOL}
    else:
        raise ValueError(f"unknown library case {fn!r}")
    return {"sample": _sample(np, values), "cross": cross}


def run_cli(berezin, argv, workdir, timed):
    """One CLI op in this process: (exit, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                with timed:
                    code = berezin.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
    finally:
        os.chdir(here)
    return code, out.getvalue(), err.getvalue()


def run_op(berezin, op, workdir, timeout, tracer=None, index=None):
    """Run one op; return (seconds, outcome).  A crash or a timeout is a failed outcome."""
    timed = Timed(tracer, index)
    signal.signal(signal.SIGALRM, _interrupt)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        if "call" in op:
            outcome = run_lib(berezin, op["call"], timed)
        else:
            code, stdout, stderr = run_cli(berezin, op["argv"], workdir, timed)
            outcome = {"exit": code, "stdout": stdout, "stderr": stderr}
    except OpTimeout:
        outcome = {"error": f"timed out after {timeout:g} s"}
    except Exception:  # noqa: BLE001 - a crashing op is a failed op, not a crashed run
        outcome = {"error": "crashed: " + traceback.format_exc(limit=3)}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if timed.seconds > timeout and "error" not in outcome:
        outcome = {"error": f"timed out: took {timed.seconds:.1f} s, limit {timeout:g} s"}
    if "argv" in op and "error" not in outcome:
        outcome["files"], outcome["verify_json"] = checks.collect_files(op, workdir)
    return timed.seconds, outcome


def run_pass(berezin, ops, workdir, reference, timeout, tracer=None):
    records = []
    for i, op in enumerate(ops):
        seconds, outcome = run_op(berezin, op, workdir, timeout, tracer, i)
        records.append({
            "key": op["key"],
            "seconds": seconds,
            "outcome": outcome if "call" in op else {"exit": outcome.get("exit")},
            "problems": checks.problems(op, outcome, reference),
        })
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--op-timeout", type=float, required=True,
                        help="seconds after which an op is interrupted and failed")
    parser.add_argument("--trace", help="write spans here (JSON lines) and trace a second pass")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import berezin
    import berezin.cli  # noqa: F401
    import_s = time.perf_counter() - t0

    with open(args.ops, encoding="utf-8") as handle:
        ops = json.load(handle)
    # Absent only while record_reference.py records the first reference.
    reference = checks.load_reference() if os.path.exists(checks.REFERENCE) else {}
    result = {"import_s": import_s}
    result["untraced"] = run_pass(berezin, ops, args.workdir, reference, args.op_timeout)
    if args.trace:
        # Imported only now: it imports numpy, which cli.import_s must include.
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install(berezin)
        try:
            trace_t0 = time.perf_counter()
            result["traced"] = run_pass(berezin, ops, args.workdir, reference, args.op_timeout,
                                         tracer)
        finally:
            tracer.restore()
        result["untraced_after"] = run_pass(berezin, ops, args.workdir, reference, args.op_timeout)
        tracer.write_jsonl(args.trace, trace_t0)
        metrics = tracing.layer_metrics(tracer, workloads.VERIFY_SUITES)
        result["layers"] = {k: list(v) for k, v in metrics.items()}
        result["counts"] = tracer.counts
        result["spans"] = len(tracer.spans)
        result["hook_s"] = tracer.hook_s
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

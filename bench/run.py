"""Benchmark of the berezin command line and library, one workload per run.

Run from the root of a checkout (the directory holding ``src/berezin``):

    python3 bench/run.py --workload range-sweep --seed 1 --seconds 20 --trace 0

Workloads (why each exists is in workloads.py and README.md):

* ``range-sweep``: ``range`` and ``sweep`` subprocesses (geometry, output, import);
* ``oracle``: library calls in one runner process (matrix_oracle, kernels);
* ``ineq``: ``ineq`` subprocesses (inequalities, eigendecompositions);
* ``verify``: one ``verify --suite`` subprocess per suite (every layer).

Ops run one at a time in a closed loop: one client, the next op starts when
the previous one has finished.  ``--trace 0`` measures the end-to-end metrics
with nothing patched; ``--trace 1`` replays the first round of the same op
list in one process (untraced to warm up, traced, untraced again) and
reports per-layer metrics.  Every op's output is checked against ``reference.json``.  The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics; a result file with provenance goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
OP_TIMEOUT_S = 60.0
# Every run ends well inside the 180 s a run may take; ops that would start
# after this budget are counted as failed instead of run.
RUN_BUDGET_S = 165.0
# Interpreter start and import of the in-process runner, beyond its ops.
RUNNER_START_S = 30.0
# Time a traced op may spend outside every layer's spans: the timer reads
# and span bookkeeping around it.
UNTRACED_PER_OP_S = 1e-3

class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return self.end - time.monotonic()


def spawn(cmd, cwd, env, timeout, stdout, stderr):
    """Run one child to completion: (exit code, seconds, peak RSS in MB, timed out).

    The child is reaped with os.wait4, so its own ru_maxrss is read rather
    than the running maximum over all children.  A child still running after
    ``timeout`` is killed through its pidfd and its exit code is negative.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, stderr=stderr)
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
        timed_out = not ready
        if timed_out:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0, timed_out


def child_env(root: str) -> dict:
    """The caller's environment with the checkout's src first on the path.

    BLAS and BEREZIN_THREADS settings pass through unchanged.
    """
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env, workdir, deadline):
    """One fresh interpreter running ``python -m berezin --help``: (seconds, RSS, problem)."""
    out_path = os.path.join(workdir, "help.out")
    with open(out_path, "wb") as out:
        code, seconds, maxrss, timed_out = spawn(
            [sys.executable, "-m", "berezin", "--help"], workdir, env,
            min(OP_TIMEOUT_S, deadline.left()), out, subprocess.DEVNULL)
    with open(out_path, encoding="utf-8", errors="replace") as handle:
        text = handle.read()
    ok = code == 0 and not timed_out and text.startswith("usage: berezin")
    return seconds, maxrss, None if ok else f"--help exit {code}"


def run_cli_op(op, env, workdir, timeout):
    """One ``python -m berezin`` op: (outcome, seconds, peak RSS in MB, timed out)."""
    out_path, err_path = os.path.join(workdir, "op.out"), os.path.join(workdir, "op.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        code, seconds, maxrss, timed_out = spawn(
            [sys.executable, "-m", "berezin", *op["argv"]], workdir, env, timeout, out, err)
    with open(out_path, encoding="utf-8", errors="replace") as handle:
        stdout = handle.read()
    files, report = checks.collect_files(op, workdir)
    outcome = {"exit": code, "stdout": stdout, "files": files, "verify_json": report}
    return outcome, seconds, maxrss, timed_out


def run_cli_ops(ops, env, workdir, reference, deadline):
    records = []
    for op in ops:
        left = deadline.left()
        if left <= 0:
            records.append({"key": op["key"], "seconds": None, "maxrss_mb": None,
                            "problems": ["not run: run budget spent"]})
            continue
        outcome, seconds, maxrss, timed_out = run_cli_op(op, env, workdir, min(OP_TIMEOUT_S, left))
        if timed_out:
            found = [f"timed out after {seconds:.1f} s"]
        else:
            found = checks.problems(op, outcome, reference)
        records.append({"key": op["key"], "exit": outcome["exit"], "seconds": seconds,
                        "maxrss_mb": maxrss, "problems": found})
    return records


def run_inproc(ops, env, workdir, deadline, trace_path=None):
    """The in-process runner on ``ops``: (its JSON result or None, peak RSS, problem)."""
    ops_path = os.path.join(workdir, "ops.json")
    out_path = os.path.join(workdir, "inproc.json")
    with open(ops_path, "w", encoding="utf-8") as handle:
        json.dump(ops, handle)
    cmd = [sys.executable, os.path.join(HERE, "inproc.py"), "--ops", ops_path,
           "--workdir", workdir, "--out", out_path, "--op-timeout", str(OP_TIMEOUT_S)]
    passes = 1
    if trace_path:
        cmd += ["--trace", trace_path]
        passes = 3
    # The runner times out each op itself; this limit catches an op stuck in
    # a C call that never returns.
    limit = min(deadline.left(), passes * len(ops) * OP_TIMEOUT_S + RUNNER_START_S)
    err_path = os.path.join(workdir, "inproc.err")
    with open(err_path, "wb") as err:
        code, _, maxrss, timed_out = spawn(cmd, workdir, env, limit, subprocess.DEVNULL, err)
    if timed_out or code != 0:
        with open(err_path, encoding="utf-8", errors="replace") as handle:
            tail = handle.read()[-2000:]
        return None, maxrss, f"runner exit {code}{' (timed out)' if timed_out else ''}: {tail}"
    with open(out_path, encoding="utf-8") as handle:
        return json.load(handle), maxrss, None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def source_digest(root: str) -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "berezin")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


_VERSIONS = r"""
import ctypes, glob, json, os, platform, sys
import numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
for path in glob.glob(os.path.join(libs, "*openblas*")):
    lib = ctypes.CDLL(path)
    for fn in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
               "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(lib, fn):
            getter = getattr(lib, fn)
            getter.restype = ctypes.c_int
            threads = getter()
            break
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version"), "blas_threads": threads}))
"""


def provenance(root, env, args, ops, rounds) -> dict:
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        git = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = git.stdout.strip() or None
    versions = subprocess.run([sys.executable, "-c", _VERSIONS], env=env,
                              capture_output=True, text=True, check=False)
    try:
        libs = json.loads(versions.stdout)
    except ValueError:
        libs = {"error": versions.stderr[-500:]}
    return {
        "git_commit": commit,
        "source_sha256": source_digest(root),
        **libs,
        "nproc": os.cpu_count(),
        "BEREZIN_THREADS": os.environ.get("BEREZIN_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "trace": args.trace,
        "ops": len(ops),
        "rounds": rounds,
    }


def untraced(args, root, env, workdir, reference, ops, deadline):
    # The set-up samples are spread evenly from before the first op to after
    # the last, so that their median sees the same machine as the ops do.
    repeats = 2 if args.smoke else SETUP_REPEATS
    blocks = [ops] if args.workload == "oracle" else [[op] for op in ops]
    slots = [round(i * len(blocks) / (repeats - 1)) for i in range(repeats)]
    setup, rss, setup_problems, records = [], [], [], []
    for i in range(len(blocks) + 1):
        for _ in range(slots.count(i)):
            seconds, maxrss, problem = measure_setup(env, workdir, deadline)
            setup.append(seconds)
            rss.append(maxrss)
            if problem:
                setup_problems.append(problem)
        if i == len(blocks):
            break
        if args.workload == "oracle":
            result, maxrss, problem = run_inproc(blocks[i], env, workdir, deadline)
            rss.append(maxrss)
            if result is None:
                records += [{"key": op["key"], "seconds": None, "problems": [problem]}
                            for op in blocks[i]]
            else:
                records += [{k: v for k, v in r.items() if k != "outcome"}
                            for r in result["untraced"]]
        else:
            records += run_cli_ops(blocks[i], env, workdir, reference, deadline)
            rss += [r["maxrss_mb"] for r in records[-1:] if r.get("maxrss_mb") is not None]
    latencies = [r["seconds"] for r in records if not r["problems"]]
    failed = sum(1 for r in records if r["problems"])
    detail = {"setup_samples_s": setup, "setup_problems": setup_problems}
    if not latencies:
        return records, failed, {}, detail
    q1, q3 = quartiles(latencies)
    # op_tail_s is the slowest of the run's 12-28 ops.  Over ten seeds on a
    # 2-vCPU VM it spread less than the runs' p90 did (IQR/median 0.07-0.16
    # against 0.08-0.24), which lies on the slope between the slowest few
    # ops.  compare.py pools the ops of all runs of a side for a tail with
    # ten ops beyond it.
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(latencies), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (max(latencies), "s"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    detail.update({
        "op_q1_s": q1, "op_q3_s": q3, "op_count": len(latencies),
        "failed_ops_ratio": failed / len(records),
    })
    return records, failed, metrics, detail


def traced(args, root, env, workdir, reference, ops, deadline):
    """Per-layer metrics from the in-process replay of the first round."""
    first_round = ops[: len(workloads.strata(args.workload, args.smoke))]
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    spans = os.path.join(HERE, "results", f"spans_{args.workload}_seed{args.seed}.jsonl")
    result, _, problem = run_inproc(first_round, env, workdir, deadline, spans)
    if result is None:
        records = [{"key": op["key"], "problems": [problem]} for op in first_round]
        return records, len(records), {}, {}
    records = result["untraced"] + result["traced"] + result["untraced_after"]
    for r in records:
        r.pop("outcome", None)
    failed = sum(1 for r in records if r["problems"])

    def pass_wall(name):
        return sum(r["seconds"] for r in result[name] if not r["problems"])

    plain = pass_wall("untraced_after")
    wall = pass_wall("traced")
    layers = result["layers"]
    accounted = sum(v for k, (v, _) in layers.items()
                    if k.endswith("self_s") and k != "harness.self_s")
    metrics = {
        "cli.import_s": (result["import_s"], "s"),
        **{k: tuple(v) for k, v in layers.items()},
        "trace.untraced_wall_s": (plain, "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_s": (wall - plain, "s"),
        "trace.overhead_ratio": ((wall - plain) / plain if plain else 0.0, "ratio"),
        "trace.accounted_s": (accounted, "s"),
        "trace.spans": (result["spans"], "count"),
    }
    # Every timed second of a traced op lies in its root span, so what no
    # layer's self time covers is the harness's and the tracer's own work: it
    # must stay within the tracing overhead, measured (traced minus untraced
    # pass) plus the time the counters took.
    unaccounted = wall - accounted
    allowed = (abs(wall - plain) + result["hook_s"]
               + UNTRACED_PER_OP_S * len(result["traced"]))
    counts = result["counts"]
    detail = {
        "spans_file": os.path.relpath(spans, root),
        "accounting": {"unaccounted_s": unaccounted, "allowed_s": allowed,
                       "counter_hooks_s": result["hook_s"],
                       "ok": abs(unaccounted) <= allowed},
    }
    if args.workload == "verify":
        # Known counts of one round of all suites at the seed commit:
        # 21701 eigh and 3700 eigvalsh calls in inequalities, 16 hull builds.
        detail["sanity"] = {
            "eigh calls in the inequalities suite": counts.get("linalg.eigh.calls.inequalities"),
            "eigvalsh calls in the inequalities suite": counts.get("linalg.eigvalsh.calls.inequalities"),
            "hull builds": counts.get("geometry.convex_hull.calls"),
        }
    return records, failed, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="target length of the measured part of a run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: check every workload end to end in seconds")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "berezin", "cli.py")):
        print("error: no berezin source at ./src/berezin; run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        reference = checks.load_reference()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {checks.REFERENCE}: {exc}", file=sys.stderr)
        return 2

    deadline = Deadline(RUN_BUDGET_S)
    ops = workloads.generate(args.workload, args.seed, args.seconds, args.smoke)
    rounds = workloads.rounds_for(args.workload, args.seconds, args.smoke)
    env = child_env(root)
    workdir = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        run = traced if args.trace else untraced
        records, failed, metrics, detail = run(args, root, env, workdir, reference, ops, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    prov = provenance(root, env, args, ops, rounds)
    result = {
        "provenance": prov,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
        "detail": detail,
        "ops": records,
        "attempted": len(records),
        "failed": failed,
    }
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}_{prov['source_sha256'][:12]}.json"
    with open(os.path.join(HERE, "results", name), "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)

    report(args, prov, result)
    correct = failed == 0 and bool(metrics) and not detail.get("setup_problems")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


def report(args, prov, result) -> None:
    """Human-readable lines ahead of the JSON result line."""
    print(f"# {args.workload} seed {args.seed}: {prov['ops']} ops in {prov['rounds']} round(s), "
          f"trace {args.trace}{', smoke' if args.smoke else ''}")
    print("# provenance " + json.dumps(prov))
    detail = result["detail"]
    for name, m in result["metrics"].items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {len(detail['setup_samples_s'])} fresh interpreters)"
        elif name == "op_p50_s":
            note = f"  (q1 {detail['op_q1_s']:.4f}, q3 {detail['op_q3_s']:.4f}, n={detail['op_count']})"
        elif name == "op_tail_s":
            note = f"  (p100: the slowest of {detail['op_count']} ops, none beyond)"
        print(f"{name} {m['value']:.6g} {m['unit']}{note}")
    if "failed_ops_ratio" in detail:
        print(f"failed_ops_ratio {detail['failed_ops_ratio']:.6g} ratio "
              f"({result['failed']}/{result['attempted']})")
    if "accounting" in detail:
        a = detail["accounting"]
        print(f"# accounting: {'ok' if a['ok'] else 'NOT ok'}: layer self times leave "
              f"{a['unaccounted_s']:.6f} s of trace.wall_s unaccounted, allowed "
              f"{a['allowed_s']:.6f} s (|trace.overhead_s| + {a['counter_hooks_s']:.6f} s "
              f"of counters + {UNTRACED_PER_OP_S:g} s per op)")
    for check, value in detail.get("sanity", {}).items():
        print(f"# sanity: {check} = {value}")
    for r in result["ops"]:
        if r["problems"]:
            print(f"# FAILED {r['key']}: {'; '.join(r['problems'])}")


if __name__ == "__main__":
    sys.exit(main())

"""Record the expected outcome of every op any seed can draw.

Run once from the root of a checkout of the commit whose outputs are the
reference, then commit the rewritten ``bench/reference.json``:

    python3 bench/record_reference.py

CLI ops run as ``python -m berezin`` subprocesses, library ops in one
in-process runner, exactly as the benchmark runs them.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "berezin", "cli.py")):
        print("error: run from the root of a checkout", file=sys.stderr)
        return 2
    env = run.child_env(root)
    workdir = os.path.join(HERE, "work", f"record-{os.getpid()}")
    os.makedirs(workdir)
    ops = workloads.catalogue()
    reference = {}
    deadline = run.Deadline(3600.0)
    try:
        lib_ops = [op for op in ops if "call" in op]
        result, _, problem = run.run_inproc(lib_ops, env, workdir, deadline)
        if result is None:
            print(f"error: {problem}", file=sys.stderr)
            return 1
        for op, record in zip(lib_ops, result["untraced"]):
            reference[op["key"]] = checks.expected(op, record["outcome"])
        for op in ops:
            if "argv" not in op:
                continue
            outcome, seconds, _, _ = run.run_cli_op(op, env, workdir, run.OP_TIMEOUT_S)
            reference[op["key"]] = checks.expected(op, outcome)
            print(f"{seconds:6.2f} s  exit {outcome['exit']}  {op['key']}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(checks.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump({"ops": reference}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(reference)} ops in {os.path.relpath(checks.REFERENCE, root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

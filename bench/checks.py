"""Expected outcomes of benchmark ops, and the comparison against them.

``reference.json`` holds one expected outcome per op key, recorded once at
the seed commit by ``record_reference.py``.  What is compared depends on the
op:

* ``lines`` (range, sweep): exit code, every stdout line, and the sha256 of
  every CSV/JSON/SVG file the op writes;
* ``ineq``: exit code, and from the printed JSON report ``argmin_trial``,
  ``argmin_check``, ``skipped_checks``, ``condition18_pass_rate`` exactly and
  ``per_check_min_slack`` within SLACK_RTOL;
* ``verify``: exit code, and per check of the JSON report its pass/fail and
  its pinned threshold;
* ``oracle`` (library calls): 64 sampled values within ORACLE_ATOL, and the
  op's own cross-check against the closed form or the known answer.

The by-design failures (eq4 in ``ineq``; the ``blaschke`` and
``inequalities`` suites in ``verify``) are expected outcomes: their exit
code 1 is recorded and required.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

SLACK_RTOL = 1e-9
ORACLE_ATOL = 1e-9


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)["ops"]


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def collect_files(op: dict, workdir: str) -> tuple[dict, dict | None]:
    """Hash and remove the files a CLI op wrote; also return verify's JSON."""
    hashes, report = {}, None
    for name in op.get("files", ()):
        path = os.path.join(workdir, name)
        if not os.path.exists(path):
            hashes[name] = None
            continue
        hashes[name] = sha256_file(path)
        if op["check"] == "verify":
            with open(path, encoding="utf-8") as handle:
                report = json.load(handle)
        os.unlink(path)
    return hashes, report


def _ineq_fields(stdout: str) -> dict:
    report = json.loads(stdout)
    return {
        "per_check_min_slack": report["per_check_min_slack"],
        "argmin_trial": report["argmin_trial"],
        "argmin_check": report["argmin_check"],
        "skipped_checks": report["skipped_checks"],
        "condition18_pass_rate": report["condition18_pass_rate"],
    }


def _verify_fields(report: dict) -> dict:
    return {
        c["check"]: {"passed": c["passed"], "threshold": c["threshold"]}
        for c in report["checks"]
    }


def expected(op: dict, outcome: dict) -> dict:
    """The reference entry recorded from one outcome at the seed commit."""
    check = op["check"]
    if check == "oracle":
        return {"sample": outcome["sample"], "cross_points": outcome["cross"]["points"]}
    entry = {"exit": outcome["exit"]}
    if check == "lines":
        entry["stdout"] = outcome["stdout"].splitlines()
        entry["files"] = outcome["files"]
    elif check == "ineq":
        entry.update(_ineq_fields(outcome["stdout"]))
    elif check == "verify":
        entry["checks"] = _verify_fields(outcome["verify_json"])
    return entry


def problems(op: dict, outcome: dict, reference: dict) -> list[str]:
    """Every way ``outcome`` differs from the reference; empty means correct."""
    if outcome.get("error"):
        return [outcome["error"]]
    ref = reference.get(op["key"])
    if ref is None:
        return ["no reference outcome for this op"]
    check = op["check"]
    if check == "oracle":
        return _oracle_problems(outcome, ref)
    found = []
    if outcome["exit"] != ref["exit"]:
        found.append(f"exit {outcome['exit']}, expected {ref['exit']}")
    try:
        if check == "lines":
            if outcome["stdout"].splitlines() != ref["stdout"]:
                found.append("stdout differs")
            for name, digest in ref["files"].items():
                if outcome["files"].get(name) != digest:
                    found.append(f"{name}: sha256 differs")
        elif check == "ineq":
            found += _ineq_problems(_ineq_fields(outcome["stdout"]), ref)
        elif check == "verify":
            if outcome["verify_json"] is None:
                found.append("no verify JSON report")
            elif _verify_fields(outcome["verify_json"]) != ref["checks"]:
                found.append("verify checks differ in pass/fail or threshold")
    except (ValueError, KeyError, TypeError) as exc:
        found.append(f"unreadable output: {exc!r}")
    return found


def _ineq_problems(got: dict, ref: dict) -> list[str]:
    found = [
        f"{key} {got[key]!r}, expected {ref[key]!r}"
        for key in ("argmin_trial", "argmin_check", "skipped_checks", "condition18_pass_rate")
        if got[key] != ref[key]
    ]
    slacks, want = got["per_check_min_slack"], ref["per_check_min_slack"]
    if set(slacks) != set(want):
        found.append(f"checks {sorted(slacks)}, expected {sorted(want)}")
    else:
        for name, value in want.items():
            if abs(slacks[name] - value) > SLACK_RTOL * max(1.0, abs(value)):
                found.append(f"min slack of {name} {slacks[name]!r}, expected {value!r}")
    return found


def _oracle_problems(outcome: dict, ref: dict) -> list[str]:
    found = []
    cross = outcome["cross"]
    if cross["points"] != ref["cross_points"]:
        found.append(f"cross-check over {cross['points']} points, expected {ref['cross_points']}")
    if not cross["max_dev"] <= cross["threshold"]:
        found.append(f"cross-check deviation {cross['max_dev']:.3e} > {cross['threshold']:.1e}")
    sample, want = outcome["sample"], ref["sample"]
    if len(sample) != len(want):
        return found + ["sampled value count differs"]
    worst = max(math.hypot(a[0] - b[0], a[1] - b[1]) for a, b in zip(sample, want))
    if not worst <= ORACLE_ATOL:
        found.append(f"sampled values deviate by {worst:.3e} > {ORACLE_ATOL:.0e}")
    return found

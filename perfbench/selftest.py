"""Self-test of the benchmark at tiny sizes, with injected faults.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Checks that a clean tiny run fails nothing and prints every metric named in
BENCHMARK.json with its unit, traced and untraced; that an injected stage
error and an injected wrong AP are counted as failed operations rather
than crashing the run; and that the benchmark exits non-zero without a
result where the sspq sources are missing. Exits 1 on the first miss.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run  # pins BLAS threads before NumPy loads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(trace: int, seed: int = 0) -> dict:
    args = argparse.Namespace(workload="selftest", seed=seed, seconds=0.0, trace=trace)
    with contextlib.redirect_stdout(io.StringIO()):
        return run.run(args)


def _expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def _check_metrics(result: dict, section: str) -> None:
    for spec in SPEC[section]:
        got = result["metrics"].get(spec["name"])
        _expect(got is not None and got["unit"] == spec["unit"],
                f"{section} metric {spec['name']} printed in {spec['unit']}")


@contextlib.contextmanager
def _patched(module, attr, replacement):
    original = getattr(module, attr)
    setattr(module, attr, replacement)
    try:
        yield
    finally:
        setattr(module, attr, original)


def main() -> int:
    run._import_sspq()
    import sspq.cli
    import sspq.evaluation

    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(trace)
        _expect(result["failed"] == 0 and result["correct"], f"clean run, trace {trace}, fails nothing")
        _check_metrics(result, section)

    def broken_training(*args, **kwargs):
        raise RuntimeError("injected stage error")

    with _patched(sspq.cli, "train_query_model", broken_training):
        result = _run(0, seed=1)
    _expect(result["failed"] > 0 and not result["correct"], "injected stage error is a failed operation")
    _check_metrics(result, "end_to_end")

    original_ap = sspq.evaluation.average_precision

    def wrong_ap(*args, **kwargs):
        return 0.5 * original_ap(*args, **kwargs)

    with _patched(sspq.evaluation, "average_precision", wrong_ap):
        result = _run(0, seed=2)
    _expect(result["failed"] > 0 and not result["correct"], "injected wrong AP is a failed operation")

    bare = run.RUN_DIR / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [*SPEC["command"], "--workload", "paper-default", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    _expect(proc.returncode != 0 and not (lines and lines[-1].startswith("{")),
            f"without sources: exit {proc.returncode} and no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Traced run: calls ``nogo_lab.cli.main(argv)`` in this process.

Usage: python3 trace_child.py SPEC.json RESULT.json

SPEC holds ``warmup`` (one argv), ``passes`` and ``budget_s``.  Each pass
holds two lists of argv, ``untraced`` and ``traced``, on the same inputs in
separate files; they run without and with the spans of :mod:`spans`, so the
difference is the tracing overhead.  Passes continue while another pair
fits in the budget; at least one pair runs.
RESULT gets, per pass, each command's exit code or exception and seconds,
and the traced pass's spans.
"""

from __future__ import annotations

import json
import sys
import time

import spans
from nogo_lab import cli


def run(argv: list[str]) -> dict:
    start = time.perf_counter()
    code, crash = None, None
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # the interpreter would print a traceback and exit 1
        code, crash = 1, f"{type(exc).__name__}: {exc}"
    return {"code": code, "crash": crash, "seconds": time.perf_counter() - start}


def traced_pass(tracer: spans.Tracer, argvs: list[list[str]]) -> list[dict]:
    tracer.install()
    try:
        return [run(argv) for argv in argvs]
    finally:
        tracer.uninstall()


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    start = time.perf_counter()
    run(spec["warmup"])
    results = []
    for index, argvs in enumerate(spec["passes"]):
        pair_start = time.perf_counter()
        tracer = spans.Tracer()
        # Alternate which run of the pair goes first, so neither always
        # meets the pass's inputs cold.
        if index % 2:
            traced = traced_pass(tracer, argvs["traced"])
            untraced = [run(argv) for argv in argvs["untraced"]]
        else:
            untraced = [run(argv) for argv in argvs["untraced"]]
            traced = traced_pass(tracer, argvs["traced"])
        results.append({"untraced": untraced, "traced": traced, "trace": tracer.dump()})
        now = time.perf_counter()
        if now - start + (now - pair_start) > spec["budget_s"]:
            break
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])

"""Outside-in span tracing of the sscx CLI, and the arithmetic on its spans.

Run as a script, it wraps the public functions of sscx's modules from the
outside and then runs the CLI with the remaining arguments:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS verify-fiber --n 4

The wrappers are installed in import order: on ``sscx.exactlinalg`` first,
then on ``sscx.weights`` and ``sscx.fiber``, then on ``sscx.complexes``, and
only then is ``sscx.cli`` imported.  Every ``from .x import name`` and the
CLI's dispatch table therefore bind the wrapped names, so the program gains
no flag and no private name is patched.  The ``functools.cache`` objects are
wrapped from outside, so a cache hit still does no work, and their hit and
miss counts come from the original objects' ``cache_info()``.

A span is ``(name, start, end, parent, count)``: ``parent`` is the index of
the enclosing span or -1, and ``count`` is the nnz of the matrix a call takes
or returns where ``COUNTS`` names one, else 0.  Spans stay in memory and are
written to SPANS, in ``marshal`` format, when the CLI returns.  Pool workers
forked by ``--jobs`` record nothing; their cost shows only in the parent's
rusage.
"""

from __future__ import annotations

import importlib
import marshal
import os
import sys
import time
from collections import defaultdict

# Modules in the order their wrappers are installed: each is imported only
# after every module it imports names from has been wrapped.
MODULES = ("exactlinalg", "weights", "fiber", "complexes")


def _nnz_of_arg(args, result):
    return len(args[0].entries)


def _nnz_of_solve(args, result):
    basis, targets = args
    return sum(map(len, basis.vectors)) + sum(map(len, targets))


def _nnz_of_result(args, result):
    return len(result[0].entries)


COUNTS = {
    "exactlinalg.rank": _nnz_of_arg,
    "exactlinalg.kernel": _nnz_of_arg,
    "exactlinalg.solve_in_basis": _nnz_of_solve,
    "fiber.structure_map": _nnz_of_result,
}

# Leaf helpers called once per weyl_dim_gl / bbw_pushforward call: a span
# costs more than their bodies, so their time stays in the caller's.
UNTRACED = frozenset({"weights.dominant", "weights.rho"})


class Recorder:
    """In-memory span log of one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = [-1]
        self.on = True
        self.caches: dict[str, object] = {}

    def stop(self) -> None:
        self.on = False

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        count = COUNTS.get(name)

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1]
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, 0)
            if count is not None:
                spans[idx] = (name, start, end, parent, count(args, result))
            return result

        if hasattr(fn, "cache_info"):
            self.caches[name] = fn
        return traced

    def wrap_module(self, module) -> None:
        """Replace every public function defined in ``module`` by its wrapper."""
        layer = module.__name__.rsplit(".", 1)[-1]
        for attr, obj in list(vars(module).items()):
            if (
                attr.startswith("_")
                or isinstance(obj, type)
                or not callable(obj)
                or getattr(obj, "__module__", None) != module.__name__
                or f"{layer}.{attr}" in UNTRACED
            ):
                continue
            setattr(module, attr, self.wrap(f"{layer}.{attr}", obj))

    def dump(self, path: str) -> None:
        caches = {}
        for name, fn in self.caches.items():
            info = fn.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses}
        with open(path, "wb") as fh:
            marshal.dump({"spans": self.spans, "caches": caches}, fh)


def install(rec: Recorder):
    """Wrap the sscx layers outside-in and return the imported ``sscx.cli``."""
    for layer in MODULES:
        module = importlib.import_module(f"sscx.{layer}")
        rec.wrap_module(module)
        if layer == "exactlinalg":
            cls = module.SparseRationalMatrix
            cls.__matmul__ = rec.wrap("exactlinalg.matmul", cls.__matmul__)
    return importlib.import_module("sscx.cli")


def load(path: str) -> dict:
    """The spans and cache counts a traced run wrote."""
    with open(path, "rb") as fh:
        return marshal.load(fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one process nest without overlap, so the children's durations
    are exactly the part of the parent's interval they cover.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds and summed count."""
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0}
    )
    for (name, start, end, parent, count), own in zip(spans, self_times(spans)):
        row = out[name]
        row["calls"] += 1
        row["self_s"] += own
        row["count"] += count
        # a recursive call (structure_map's "d") is already inside its caller
        if parent < 0 or spans[parent][0] != name:
            row["s"] += end - start
    return out


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    cli = install(rec)
    os.register_at_fork(after_in_child=rec.stop)
    code = rec.wrap("cli.run", cli.run)(cli_args)
    rec.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Run one CLI job in process with the program's layers wrapped from outside.

    python3 perfbench/trace_job.py SPANS.jsonl SUMMARY.json -- <cli argv>

The program's stdout and exit code are exactly those of
`python -m pargroupoid.cli <cli argv>`. The public functions of each layer
are wrapped from this file, so nothing under src/ changes: each call records
a span (name, start, end, parent) and the counts set up in install(). Spans go
to SPANS.jsonl, one JSON object a line, with self time = span - child spans.
Per-layer totals go to SUMMARY.json. A layer's time is inclusive: nested
calls of the same layer are counted once, through the outermost one.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from collections import Counter
from typing import Any, Callable


class Tracer:
    """Spans kept in memory and written out once the job has finished."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[tuple] = []
        self.stack: list[list] = []      # [span id, name, start ns, child ns]
        self.depth: Counter = Counter()  # open spans per name
        self.inclusive_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing: list[str] = []

    def wrap(self, name: str, fn: Callable,
             before: Callable | None = None,
             after: Callable | None = None) -> Callable:
        """A traced fn. before(args, kwargs) -> state; after(state, args, kwargs,
        result, duration_ns) records counts once the call returns."""
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            span_id = len(self.spans) + len(self.stack)
            parent = self.stack[-1][0] if self.stack else None
            frame = [span_id, name, clock(), 0]
            self.stack.append(frame)
            self.depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.stack.pop()
                self.depth[name] -= 1
                duration = end - frame[2]
                self_time = duration - frame[3]
                if self.stack:
                    self.stack[-1][3] += duration
                if not self.depth[name]:
                    self.inclusive_ns[name] += duration
                self.self_ns[name] += self_time
                self.spans.append((span_id, parent, name, frame[2], end, self_time))
            if after is not None:
                after(state, args, kwargs, result, duration)
            return result

        return traced

    def write_spans(self, path: str) -> None:
        with open(path, "w") as f:
            for span_id, parent, name, start, end, self_time in sorted(self.spans):
                f.write(json.dumps({"job": self.job, "id": span_id, "parent": parent,
                                    "name": name, "start_ns": start, "end_ns": end,
                                    "self_ns": self_time}) + "\n")


def _replace_everywhere(original: Callable, wrapped: Callable) -> None:
    """Point every pargroupoid module attribute bound to original at wrapped,
    so names imported with `from .x import f` are traced too."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("pargroupoid"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap each layer's entry points; a missing one is listed, not fatal."""
    from pargroupoid import (cli, group, groupoid, partial_rep, semialgebra,
                             semiring, structure)

    counts = tracer.counts
    seen_algebras: weakref.WeakSet = weakref.WeakSet()

    def function(module, attr: str, name: str, before=None, after=None) -> None:
        original = getattr(module, attr, None)
        if original is None:
            tracer.missing.append(f"{module.__name__}.{attr}")
            return
        _replace_everywhere(original, tracer.wrap(name, original, before, after))

    def method(cls, attr: str, name: str, before=None, after=None) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            tracer.missing.append(f"{cls.__module__}.{cls.__name__}.{attr}")
            return
        setattr(cls, attr, tracer.wrap(name, original, before, after))

    def count(key: str, amount: Callable[..., int] = lambda *a: 1):
        def after(state, args, kwargs, result, duration):
            counts[key] += amount(args, kwargs, result)
        return after

    # cli
    function(cli, "_emit", "cli.emit")

    # group
    function(group, "make_group", "group.make_group")
    function(group, "subgroups", "group.subgroups",
             after=count("group.subgroup_count", lambda a, k, r: len(r)))
    function(group, "stabilizer_of_subset", "group.stabilizer",
             after=count("group.stabilizer_calls"))

    # groupoid
    method(groupoid.Gamma, "__init__", "groupoid.gamma_build",
           after=count("groupoid.arrows", lambda a, k, r: a[0].size))
    function(groupoid, "connected_components", "groupoid.components")

    # semialgebra: convolution, the lazy product table, matrices, differences
    def mul_before(args, kwargs):
        x, y = args
        alg = x.algebra
        first = isinstance(alg, semialgebra.GammaAlgebra) and alg not in seen_algebras
        if first:
            seen_algebras.add(alg)
        return first, len(x.coeffs) * len(y.coeffs)

    def mul_after(state, args, kwargs, result, duration):
        first, pairs = state
        counts["semialgebra.mul_calls"] += 1
        counts["semialgebra.mul_pairs"] += pairs
        counts["semialgebra.mul_terms_out"] += len(result.coeffs)
        if tracer.depth["partial_rep.extend"]:
            counts["partial_rep.extend_mul_calls"] += 1
        if first:
            tracer.inclusive_ns["semialgebra.first_mul"] += duration

    method(semialgebra.AlgebraElement, "__mul__", "semialgebra.mul",
           before=mul_before, after=mul_after)
    method(semialgebra.GammaAlgebra, "_build_rows", "semialgebra.table_build")
    method(semialgebra.MatrixElement, "__mul__", "semialgebra.matrix_mul",
           after=count("semialgebra.matrix_mul_calls"))
    function(semialgebra, "delta_extension", "semialgebra.delta_split")
    function(semialgebra, "delta_extension_inverse", "semialgebra.delta_split")

    # semiring
    function(semiring, "check_semiring_laws", "semiring.laws")

    # partial_rep
    function(partial_rep, "extend_to_gamma_hom", "partial_rep.extend")
    function(partial_rep, "_lift", "partial_rep.lift_lower")
    function(partial_rep, "_lower", "partial_rep.lift_lower")
    function(partial_rep, "verify_partial_rep", "partial_rep.relations")
    function(partial_rep, "verify_factorization", "partial_rep.factorization")
    function(partial_rep, "span_generation", "partial_rep.span",
             after=count("partial_rep.span_products", lambda a, k, r: r.products))

    # structure
    # Subsets walked are read off the results: every subset containing e is a
    # vertex of one component (sum of c * m) and one census entry.
    def enumeration_after(state, args, kwargs, result, duration):
        counts["structure.enumeration_calls"] += 1
        counts["structure.subsets_walked"] += sum(m * c for (_, m), c in result.items())

    function(structure, "multiplicity_enumeration", "structure.enumeration",
             after=enumeration_after)
    function(structure, "multiplicity_recursion", "structure.recursion")
    function(structure, "component_to_matrix_iso", "structure.component_iso",
             after=count("structure.components_verified",
                         lambda a, k, r: int(k.get("verify", a[2] if len(a) > 2 else True))))
    function(structure, "stabilizer_census", "structure.census",
             after=count("structure.subsets_walked", lambda a, k, r: sum(r.values())))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: trace_job.py SPANS.jsonl SUMMARY.json -- <cli argv>",
              file=sys.stderr)
        return 2
    spans_path, summary_path, cli_argv = argv[0], argv[1], argv[3:]
    start = time.perf_counter_ns()
    from pargroupoid import cli
    import_ns = time.perf_counter_ns() - start

    tracer = Tracer(" ".join(cli_argv))
    install(tracer)
    run = tracer.wrap("cli.run", cli.run)
    try:
        code = run(cli_argv)
    finally:
        sys.stdout.flush()
    tracer.write_spans(spans_path)
    summary: dict[str, Any] = {
        "import_ns": import_ns,
        "inclusive_ns": dict(tracer.inclusive_ns),
        "self_ns": dict(tracer.self_ns),
        "counts": dict(tracer.counts),
        "spans": len(tracer.spans),
        "missing": tracer.missing,
    }
    with open(summary_path, "w") as f:
        json.dump(summary, f, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Spans and work counters around fk3hh's public entry points.

The wrappers are installed from outside the program, by assigning to class
and module attributes after import; nothing in fk3hh knows about them.  Each
wrapped call opens a span on an in-memory stack.  A span's self time is its
duration minus the time of the spans it encloses, so the self times of all
spans add up to the time covered by top-level spans.

fk3core.mul_words is deliberately not wrapped: it runs in inner loops, where
a wrapper would cost more than the call.  For the same reason the first
fk3core.mul_table() call is timed as an explicit span, not wrapped (every
mul_words call goes through mul_table).
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from collections import defaultdict

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, start, time of enclosed spans]
        self.stats = defaultdict(lambda: defaultdict(int))
        self.top_s = 0.0  # total duration of spans that have no parent
        self.seen = defaultdict(dict)  # kind -> {key: object}

    def _enter(self, name):
        self.stack.append([name, clock(), 0.0])

    def _exit(self):
        name, start, inner = self.stack.pop()
        total = clock() - start
        st = self.stats[name]
        st["calls"] += 1
        st["self_s"] += total - inner
        if self.stack:
            self.stack[-1][2] += total
        else:
            self.top_s += total
        return st

    @contextlib.contextmanager
    def span(self, name):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def wrap(self, name, fn, count=None):
        """fn inside a span; count(stats, args, result) runs after it ends."""
        self.stats[name]  # reported even if never called
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                st = self._exit()
            if count is not None:
                count(st, args, result)
            return result
        return wrapper

    def patch_method(self, cls, attr, name, count=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, count)))
        else:
            setattr(cls, attr, self.wrap(name, raw, count))

    def patch_function(self, module, attr, name, count=None):
        """Replace the function in every fk3hh module that bound it."""
        orig = getattr(module, attr)
        wrapped = self.wrap(name, orig, count)
        for modname, mod in list(sys.modules.items()):
            if modname == "fk3hh" or modname.startswith("fk3hh."):
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)

    def distinct(self, kind, key, obj=None):
        """Count key once per kind; holding obj keeps its id from reuse."""
        self.seen[kind].setdefault(key, obj)


def _nnz(vec):
    return len(vec) if isinstance(vec, dict) else sum(1 for x in vec if x)


def install(tr):
    """Wrap the public entry points of every layer of fk3hh."""
    from fk3hh import (cli, cohomology, cupring, exactmath, homology,
                       ncgroebner, report, resolution)

    SparseMat = exactmath.SparseMat

    def rank(st, args, r):
        st["nnz_in"] += args[0].nnz()
        st["pivots"] += r
        tr.distinct("rank", id(args[0]), args[0])

    def matrix_in(st, args, _):
        st["nnz_in"] += args[0].nnz()

    def span_in(st, args, _):
        vectors = args[2] if len(args) > 2 else ()
        if isinstance(vectors, (list, tuple)):
            st["nnz_in"] += sum(_nnz(v) for v in vectors)

    def factor_in(st, args, _):
        st["nnz_in"] += args[1].nnz()

    def solve_many(st, args, sols):
        st["nnz_in"] += args[0].nnz() + sum(_nnz(b) for b in args[1])
        st["systems"] += len(sols)
        st["inconsistent"] += sum(1 for s in sols if s is None)

    def solve_one(st, args, sol):
        st["nnz_in"] += _nnz(args[1])
        st["systems"] += 1
        st["inconsistent"] += sol is None

    def reduce_in(st, args, _):
        st["nnz_in"] += _nnz(args[1])

    def matrix_out(st, _, mat):
        st["nnz_out"] += mat.nnz()

    def stratum(st, args, _):
        k, n, elem = args[1], args[2], args[3]
        if k >= 2 and elem:
            tr.distinct("strata", (k, n))

    def lift(st, args, _):
        tr.distinct("lifts", id(args[0]), args[0])

    def normal_form(st, _, r):
        st["zero"] += not r

    def written(st, _, paths):
        st["bytes"] += sum(os.path.getsize(p) for p in paths)

    tr.patch_method(SparseMat, "rank", "exactmath.rank", rank)
    tr.patch_method(SparseMat, "rref", "exactmath.rref", matrix_in)
    tr.patch_method(exactmath.Subspace, "span", "exactmath.rref", span_in)
    tr.patch_method(exactmath.LinearSolver, "__init__", "exactmath.factor",
                    factor_in)
    tr.patch_method(SparseMat, "solve_many", "exactmath.solve", solve_many)
    tr.patch_method(exactmath.LinearSolver, "solve", "exactmath.solve",
                    solve_one)
    tr.patch_method(exactmath.Subspace, "reduce", "exactmath.reduce", reduce_in)

    res = resolution.BimoduleResolution
    tr.patch_method(res, "delta_block", "resolution.delta_block", matrix_out)
    tr.patch_method(res, "delta_elem", "resolution.delta_elem")
    tr.patch_method(res, "stratum_elem", "resolution.stratum", stratum)
    tr.patch_method(res, "koszul_block", "resolution.koszul_block")

    tr.patch_method(homology.HomologyComplex, "matrix", "homology.matrix",
                    matrix_out)
    co = cohomology.CohomologyComplex
    tr.patch_method(co, "matrix", "cohomology.matrix", matrix_out)
    tr.patch_method(co, "cocycle_basis", "cohomology.cocycle_basis")
    tr.patch_method(co, "class_coordinates", "cohomology.class_coordinates")
    tr.patch_method(co, "is_zero_class", "cohomology.is_zero_class")

    tr.patch_method(cupring.ChainLift, "ensure", "cupring.ensure", lift)
    tr.patch_method(cupring.ChainLift, "apply", "cupring.apply")
    ring = cupring.CupRing
    tr.patch_method(ring, "compose_with_lift", "cupring.compose")
    tr.patch_method(ring, "evaluate_cochain", "cupring.evaluate_cochain")
    tr.patch_method(ring, "evaluate_word", "cupring.evaluate_word")

    tr.patch_method(ncgroebner.GBasis, "__init__", "ncgroebner.gbasis")
    tr.patch_function(ncgroebner, "normal_form", "ncgroebner.normal_form",
                      normal_form)
    tr.patch_function(ncgroebner, "buchberger_complete", "ncgroebner.complete")
    tr.patch_function(ncgroebner, "interreduce", "ncgroebner.interreduce")
    tr.patch_function(ncgroebner, "standard_words",
                      "ncgroebner.standard_words")

    tr.patch_function(report, "write_outputs", "report.write_outputs", written)
    tr.patch_function(cli, "main", "cli")


def _share(part, whole):
    return part / whole if whole else 0.0


def metrics(tr):
    """Every quantity of every wrapped span, zero where a layer never ran."""
    out = {}
    for name, st in tr.stats.items():
        for key in ("calls", "self_s", *st):
            out[f"{name}.{key}"] = st[key]
    for key in ("exactmath.rank.nnz_in", "exactmath.rank.pivots",
                "exactmath.rref.nnz_in", "exactmath.factor.nnz_in",
                "exactmath.solve.nnz_in", "exactmath.reduce.nnz_in",
                "resolution.delta_block.nnz_out", "homology.matrix.nnz_out",
                "cohomology.matrix.nnz_out", "report.write_outputs.bytes"):
        out.setdefault(key, 0)
    out["exactmath.rank.distinct_share"] = _share(
        len(tr.seen["rank"]), out["exactmath.rank.calls"])
    out["exactmath.solve.inconsistent_share"] = _share(
        out.pop("exactmath.solve.inconsistent", 0),
        out.pop("exactmath.solve.systems", 0))
    out["ncgroebner.normal_form.zero_share"] = _share(
        out.pop("ncgroebner.normal_form.zero", 0),
        out["ncgroebner.normal_form.calls"])
    out["ncgroebner.index_builds"] = out["ncgroebner.gbasis.calls"]
    out["resolution.stratum.strata_solved"] = len(tr.seen["strata"])
    out["cupring.ensure.stages_solved"] = sum(
        len(lift.stages) for lift in tr.seen["lifts"].values())
    return out

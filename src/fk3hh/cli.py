"""Command-line driver: hh <command> [options].

Commands recompute their objects from scratch, verify them against the
published closed formulas, write machine/human-readable tables under the
output directory, and exit 0 only when every requested check passes
(1 on a verification failure, 2 on usage errors, among them a --max-n that
leaves an empty degree range, a cup degree beyond --max-n, a --gb-bound
below the longest relation word or cyclic homology asked of a prime field,
rejected before any work or output; 3 on an internal error of the engine).

Every check prints a [pass]/[FAIL] line; a run closes with one line, "all
checks passed" or the count of failures and the path of <out>/failures.json
(each record: command, check, detail).  hh verify-all runs every command,
cyclic over Q only, even after a failed check, and writes each one's
tables under <out>/<command>/ as that command alone writes them to --out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import ncgroebner as ncg
from . import paperdata
from .cohomology import CohomologyComplex
from .cupring import GENERATOR_BIDEGREES, CupRing, _bidegree
from .exactmath import FieldError, field_from_name
from .homology import HomologyComplex, exactness_defects
from .report import FORMATS, UsageError, write_outputs
from .resolution import BimoduleResolution


def _load_config_file(path, known):
    """key = value lines; a key must be in `known` (see _config_keys)."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"bad config line {line!r}")
            k, v = line.split("=", 1)
            k = k.strip().replace("_", "-")
            if k not in known:
                raise UsageError(f"unknown config key {k!r}")
            out[k] = v.strip()
    return out


def _config_keys(parser):
    """Every long option of any subcommand, without its dashes."""
    keys = set()
    for action in parser._actions:
        for sp in (getattr(action, "choices", None) or {}).values():
            for opt in sp._actions:
                keys.update(o[2:] for o in opt.option_strings
                            if o.startswith("--") and o != "--help")
    return keys


def _parser():
    p = argparse.ArgumentParser(prog="hh", description=__doc__)
    p.add_argument("--config", help="flat key=value config file; flags override")
    sub = p.add_subparsers(dest="command")

    def common(sp):
        sp.add_argument("--field", default=None,
                        help="q (default) or prime:<p> with p >= 5")
        sp.add_argument("--max-n", type=int, default=None)
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--formats", default=None,
                        help="comma list of json,csv,markdown")

    sp = sub.add_parser("homology", help="Hochschild homology dims and series")
    common(sp)
    sp.add_argument("--verify-representatives", action="store_true")
    sp = sub.add_parser("cohomology", help="Hochschild cohomology dims/series")
    common(sp)
    sp = sub.add_parser("cyclic", help="cyclic homology series (char 0)")
    common(sp)
    sp = sub.add_parser("cup", help="cup products: relations and generators")
    common(sp)
    sp.add_argument("--gen-degree", type=int, default=None,
                    help="span check bound (default 8)")
    sp.add_argument("--commutativity-degree", type=int, default=None,
                    help="graded-commutativity sweep bound (default 7)")
    sp = sub.add_parser("gb", help="noncommutative basis completion")
    common(sp)
    sp.add_argument("--gb-bound", type=int, default=None)
    sp.add_argument("--verify-printed", action="store_true")
    sp = sub.add_parser("resolution", help="resolution validity checks "
                        "(default --max-n 40)")
    common(sp)
    sp = sub.add_parser("verify-all", help="run every verification (with "
                        "--verify-representatives and --verify-printed, and "
                        "the cup checks with --max-n 16, span to degree 12 "
                        "and commutativity to 9)")
    common(sp)
    sp.add_argument("--gb-bound", type=int, default=None)
    return p


def _merge(args, cfg, key, default):
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    if key in cfg:
        raw = cfg[key]
        if default is None:
            return raw
        try:
            return type(default)(raw)
        except ValueError:
            raise UsageError(f"bad value {raw!r} for {key}") from None
    return default


_ON, _OFF = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def _flag(args, cfg, key):
    """An on/off option: on when its flag is given or its config value is
    in _ON, off when that value is in _OFF (either in any case); any other
    config value is a usage error."""
    raw = cfg.get(key, "0")
    if raw.lower() not in _ON + _OFF:
        raise UsageError(f"bad value {raw!r} for {key}; use 1/0, true/false, "
                         "yes/no or on/off")
    return getattr(args, key.replace("-", "_"), False) or raw.lower() in _ON


def _max_n(args, cfg, default, least=0):
    """The requested top degree; a range below `least` is a usage error."""
    max_n = _merge(args, cfg, "max-n", default)
    if max_n < least:
        raise UsageError(f"--max-n must be at least {least}, got {max_n}")
    return max_n


class Runner:
    """The check log of one hh run, with the field and formats it asks for.
    Tables go to `out`: --out, or <out>/<command> in a step of hh
    verify-all; failures.json always goes to --out."""

    def __init__(self, args, cfg):
        self.field = field_from_name(_merge(args, cfg, "field", "q"))
        self.root = self.out = _merge(args, cfg, "out", "out")
        self.report = os.path.join(self.root, "failures.json")
        fmts = _merge(args, cfg, "formats", "json,csv,markdown")
        self.formats = tuple(f.strip() for f in fmts.split(","))
        bad = [f for f in self.formats if f not in FORMATS]
        if bad:
            raise UsageError(f"unknown format(s) {bad}; choose from {FORMATS}")
        self.command = args.command
        self.failures = []

    def step(self, command, handler, *args):
        """handler(self, *args) as the step `command` of hh verify-all: its
        failures name that command and its tables go to <out>/<command>."""
        self.command = command
        self.out = os.path.join(self.root, command)
        handler(self, *args)

    def check(self, label, ok, detail=""):
        print(f"[{'pass' if ok else 'FAIL'}] {label}" +
              (f": {detail}" if detail and not ok else ""))
        if not ok:  # written at once, so that a later fault keeps it
            self.failures.append({"command": self.command, "check": label,
                                  "detail": str(detail)})
            os.makedirs(self.root, exist_ok=True)
            with open(self.report, "w", encoding="utf-8") as fh:
                json.dump({"failures": self.failures}, fh, indent=1,
                          sort_keys=True)
        return ok

    def finish(self):
        if self.failures:
            print(f"{len(self.failures)} check(s) failed; report at "
                  f"{self.report}")
            return 1
        print("all checks passed")
        return 0


def _bigraded(r, args, cfg, name):
    """The body of hh homology and hh cohomology (`name`): the (n, m) grid,
    the totals and the Hilbert series of the complex to --max-n, checked
    against paperdata's closed formulas, and written to the dims table of
    `name` and to "hilbert"."""
    max_n = _max_n(args, cfg, 60)
    verify_reps = name == "homology" and _flag(args, cfg,
                                                "verify-representatives")
    complex_cls, table, total, formula = {
        "homology": (HomologyComplex, "hh-dims",
                     paperdata.homology_total_formula,
                     paperdata.homology_series_formula),
        "cohomology": (CohomologyComplex, "hhco-dims",
                       paperdata.cohomology_total_formula,
                       paperdata.cohomology_series_formula)}[name]
    cx = complex_cls(r.field)
    grid, totals = cx.dims(max_n)
    series = {n: {} for n in range(max_n + 1)}  # each hilbert_series(n)
    for (n, m), d in grid.items():
        series[n][m - cx.step * n] = d
    r.check(f"{name} totals match the closed formula",
            all(totals[n] == total(n) for n in totals))
    r.check(f"{name} series match the closed formulas",
            all(series[n] == formula(n) for n in series))
    if verify_reps:
        reports = (paperdata.verify_homology_representatives(cx, n, m)
                   for n in range(min(max_n, 13) + 1) for m in range(5))
        bad = [rep for rep in reports if not rep["ok"]]
        r.check("published homology representatives verify", not bad, bad)
    write_outputs(r.out, table, {"grid": grid, "totals": totals}, r.formats)
    write_outputs(r.out, "hilbert", {"series": series}, r.formats)


def cmd_homology(r, args, cfg):
    _bigraded(r, args, cfg, "homology")


def cmd_cohomology(r, args, cfg):
    _bigraded(r, args, cfg, "cohomology")


def cmd_cyclic(r, args, cfg):
    max_n = _max_n(args, cfg, 12)
    if r.field.characteristic != 0:
        raise UsageError("cyclic homology needs characteristic zero")
    gs = HomologyComplex(r.field).cyclic_series(max_n)
    ok = all(gs[n] == paperdata.cyclic_series_formula(n)
             for n in range(max_n + 1))
    r.check("cyclic series match the closed formulas", ok)
    write_outputs(r.out, "cyclic", {"series": dict(enumerate(gs))}, r.formats)


# hh cup's default bounds, and the wider ones hh verify-all checks
CUP_DEFAULTS = {"gen-degree": 8, "commutativity-degree": 7, "max-n": 12}
VERIFY_ALL_CUP = {"gen-degree": 12, "commutativity-degree": 9, "max-n": 16}
# the on/off checks of hh homology and hh gb, which hh verify-all turns on
VERIFY_ALL_FLAGS = ("verify-representatives", "verify-printed")


def _cup_degrees(args, cfg, defaults, rels):
    """(gen_degree, comm_degree, max_n) of hh cup, with the cup degrees
    whose lifts would run past the resolution rejected.

    A lift of a degree-m cocycle to stage k needs the resolution to degree
    k + m, and ChainLift raises beyond max_n; each requested bound, the top
    degree of the relations rels and that of the pairwise product table is
    such a k + m."""
    gen_degree = _merge(args, cfg, "gen-degree", defaults["gen-degree"])
    comm_degree = _merge(args, cfg, "commutativity-degree",
                         defaults["commutativity-degree"])
    max_n = _merge(args, cfg, "max-n", defaults["max-n"])
    rel_degree = max(_bidegree(w)[0] for p in rels for w in p)
    top_gen = max(d for d, _ in GENERATOR_BIDEGREES.values())
    for name, least, top in (("--gen-degree", 1, gen_degree),
                             ("--commutativity-degree", 0, comm_degree),
                             ("the relations' degree", 0, rel_degree),
                             ("the product table's degree", 0, 2 * top_gen)):
        if top < least:
            raise UsageError(f"{name} must be at least {least}, got {top}")
        if top > max_n:
            raise UsageError(f"{name} {top} needs the resolution to degree "
                             f"{top}, beyond --max-n {max_n}")
    return gen_degree, comm_degree, max_n


def cmd_cup(r, args, cfg, defaults=CUP_DEFAULTS):
    alg = ncg.ring_algebra(r.field)
    comm_rels = ncg.load_commutation_relations(alg)
    ideal_rels = ncg.load_ideal_relations(alg)
    gen_degree, comm_degree, max_n = _cup_degrees(
        args, cfg, defaults, comm_rels + ideal_rels)
    ring = CupRing(r.field, max_n=max_n)
    relrep = {}
    rep = ring.verify_relations(comm_rels)
    relrep["commutation"] = rep
    r.check("97 commutation relations vanish", rep["ok"], rep["failures"])
    rep = ring.verify_relations(ideal_rels)
    relrep["ideal"] = rep
    r.check("63 ideal relations vanish", rep["ok"], rep["failures"])
    os.makedirs(r.out, exist_ok=True)
    with open(os.path.join(r.out, "cup-relations.json"), "w",
              encoding="utf-8") as fh:
        json.dump(relrep, fh, indent=1, sort_keys=True)
    rep = ring.verify_graded_commutativity(comm_degree)
    r.check(f"graded commutativity to total degree {comm_degree}",
            rep["ok"], rep["failures"])
    rep = ring.verify_generating_set(gen_degree)
    r.check(f"generator span to degree {gen_degree}", rep["ok"], rep)
    minrep = ring.verify_minimality()
    r.check("no generator is a product of the others", all(minrep.values()),
            minrep)
    table = ring.multiplication_table()
    write_outputs(r.out, "cup-table", {"pairs": table}, r.formats)


def _ring_relations(field):
    """The ring algebra over field and the 160 relations presenting HH^*."""
    alg = ncg.ring_algebra(field)
    return alg, ncg.load_commutation_relations(alg) + ncg.load_ideal_relations(alg)


def _gb_bound(args, cfg, rels):
    """The completion's word-length bound; one below the longest relation
    word would truncate the input itself, a usage error."""
    bound = _merge(args, cfg, "gb-bound", 6)
    least = max(len(w) for p in rels for w in p)
    if bound < least:
        raise UsageError(f"--gb-bound must be at least {least}, the longest "
                         f"relation word, got {bound}")
    return bound


def cmd_gb(r, args, cfg):
    alg, rels = _ring_relations(r.field)
    bound = _gb_bound(args, cfg, rels)
    verify_printed = _flag(args, cfg, "verify-printed")
    gb = ncg.buchberger_complete(alg, rels, degree_bound=bound)
    r.check("completion is untruncated", not gb.truncated)
    r.check("reduced basis has 184 elements", len(gb) == 184, len(gb))
    if verify_printed:
        pub = ncg.load_published_basis(alg)
        ok = sorted(map(tuple, gb.lead_words())) == \
            sorted(tuple(ncg.lead_word(p)) for p in pub)
        r.check("leading words equal the published ones", ok)
        pub_basis = ncg.GBasis(alg, pub)
        ok = all(ncg.normal_form(p, gb) == {} for p in pub) and \
            all(ncg.normal_form(p, pub_basis) == {} for p in gb.polys)
        r.check("mutual reduction vanishes", ok)
    top = 20  # the degree to which the standard words count HH^*
    counts, by_len = {}, {}  # by bidegree, and by length
    for w in ncg.standard_words(gb, up_to_hom_degree=top):
        bd = alg.word_bidegree(w)
        counts[bd] = counts.get(bd, 0) + 1
        by_len[len(w)] = by_len.get(len(w), 0) + 1
    r.check("46 standard words of length 2", by_len.get(2) == 46, by_len)
    r.check("68 standard words of length 3", by_len.get(3) == 68, by_len)
    r.check("88 distinct standard words of length 4 (the published list "
            "prints one of its 89 tokens twice)", by_len.get(4) == 88, by_len)
    cox = CohomologyComplex(r.field)
    ok = all({d: c for (h, d), c in counts.items() if h == n}
             == cox.hilbert_series(n) for n in range(top + 1))
    r.check("bigraded standard words equal cohomology dims to degree "
            f"{top}", ok)
    write_outputs(r.out, "gb-summary", {
        "input": len(rels), "basis": len(gb),
        "std_words": {k: by_len.get(k, 0) for k in (2, 3, 4)},
    }, r.formats)


def cmd_resolution(r, args, cfg):
    max_n = _max_n(args, cfg, 40, least=1)
    # P is exact in degrees 0..n exactly when P (x)_A k is (homology.py)
    bad = []
    for n, defect in enumerate(exactness_defects(r.field, max_n)):
        if defect:
            bad.append(n)
        if n:
            r.check(f"exactness by rank at degree {n}", not bad,
                    f"P (x)_A k is not exact at degrees {bad}")
    res = BimoduleResolution(r.field, max_n=max_n + 1)
    ok = all(not res.minimality_violations(n) for n in range(1, max_n + 1))
    r.check("minimality (differential entries in the augmentation ideal)", ok)
    bad = res.square_zero_defects()
    r.check(f"delta^2 = 0 (d^2 = 0 and d f + f d = 0 on every generator to "
            f"degree {res.max_n})", not bad, f"fails at degrees {bad}")


def cmd_verify_all(r, args, cfg):
    rels = _ring_relations(r.field)[1]
    _gb_bound(args, cfg, rels)  # a bad bound fails before any work,
    _cup_degrees(args, cfg, VERIFY_ALL_CUP, rels)  # so do bad cup degrees
    for key in VERIFY_ALL_FLAGS:  # and so does a bad on/off value
        _flag(args, cfg, key)
    cfg = {**cfg, **dict.fromkeys(VERIFY_ALL_FLAGS, "1")}
    r.step("homology", cmd_homology, args, cfg)
    r.step("cohomology", cmd_cohomology, args, cfg)
    r.step("cup", cmd_cup, args, cfg, VERIFY_ALL_CUP)
    r.step("gb", cmd_gb, args, cfg)
    r.step("resolution", cmd_resolution, args, cfg)
    if r.field.characteristic == 0:
        r.step("cyclic", cmd_cyclic, args, cfg)


def main(argv=None):
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command is None:
        parser.print_help()
        return 2
    cfg = {}
    if args.config:
        try:
            cfg = _load_config_file(args.config, _config_keys(parser))
        except (OSError, UsageError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    handlers = {
        "homology": cmd_homology,
        "cohomology": cmd_cohomology,
        "cyclic": cmd_cyclic,
        "cup": cmd_cup,
        "gb": cmd_gb,
        "resolution": cmd_resolution,
        "verify-all": cmd_verify_all,
    }
    try:
        r = Runner(args, cfg)
        handlers[args.command](r, args, cfg)
    except (FieldError, UsageError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # an engine fault, not a bad request
        import traceback  # only here: importing it costs a fifth of start-up
        traceback.print_exc()
        print("internal error", file=sys.stderr)
        return 3
    return r.finish()


if __name__ == "__main__":
    sys.exit(main())

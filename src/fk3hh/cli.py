"""Command-line driver: hh <command> [options].

Commands recompute their objects from scratch, verify them against the
published closed formulas, write machine/human-readable tables under the
output directory, and exit 0 only when every requested check passes
(1 on a verification failure, 2 on usage errors, among them a --max-n that
leaves an empty degree range, rejected before any work or output).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import cohomology as cohomod
from . import homology as homod
from . import ncgroebner as ncg
from .cohomology import CohomologyComplex
from .cupring import CupRing
from .exactmath import FieldError, field_from_name
from .homology import HomologyComplex, verify_representatives, NotTranscribed
from .report import UsageError, write_outputs
from .resolution import BimoduleResolution


def _load_config_file(path):
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"bad config line {line!r}")
            k, v = line.split("=", 1)
            out[k.strip().replace("_", "-")] = v.strip()
    return out


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
    sp.add_argument("--lift-horizon", type=int, default=None)
    sp.add_argument("--gen-degree", type=int, default=None,
                    help="span check bound (default 8)")
    sp.add_argument("--commutativity-degree", type=int, default=None,
                    help="graded-commutativity sweep bound (default 7)")
    sp = sub.add_parser("gb", help="noncommutative basis completion")
    common(sp)
    sp.add_argument("--gb-bound", type=int, default=None)
    sp.add_argument("--verify-printed", action="store_true")
    sp = sub.add_parser("resolution", help="resolution validity checks")
    common(sp)
    sp = sub.add_parser("verify-all", help="run every verification")
    common(sp)
    sp.add_argument("--lift-horizon", type=int, default=None)
    sp.add_argument("--gb-bound", type=int, default=None)
    return p


def _merge(args, cfg, key, default):
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    if key in cfg:
        raw = cfg[key]
        return type(default)(raw) if default is not None else raw
    return default


def _max_n(args, cfg, default, least=0):
    """The requested top degree; a range below `least` is a usage error."""
    max_n = _merge(args, cfg, "max-n", default)
    if max_n < least:
        raise UsageError(f"--max-n must be at least {least}, got {max_n}")
    return max_n


class Runner:
    def __init__(self, args, cfg):
        self.field = field_from_name(_merge(args, cfg, "field", "q"))
        self.out = _merge(args, cfg, "out", "out")
        fmts = _merge(args, cfg, "formats", "json,csv,markdown")
        self.formats = tuple(f.strip() for f in fmts.split(","))
        self.failures = []

    def check(self, label, ok, detail=""):
        print(f"[{'pass' if ok else 'FAIL'}] {label}" +
              (f": {detail}" if detail and not ok else ""))
        if not ok:
            self.failures.append({"check": label, "detail": str(detail)})
        return ok

    def finish(self):
        if self.failures:
            os.makedirs(self.out, exist_ok=True)
            path = os.path.join(self.out, "failures.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"failures": self.failures}, fh, indent=1,
                          sort_keys=True)
            print(f"{len(self.failures)} check(s) failed; report at {path}")
            return 1
        print("all checks passed")
        return 0


def cmd_homology(args, cfg):
    r = Runner(args, cfg)
    max_n = _max_n(args, cfg, 19)
    cx = HomologyComplex(r.field, max_n=max_n)
    grid, totals = cx.homology_dims(max_n)
    ok = all(totals[n] == homod.total_dim_formula(n) for n in range(max_n + 1))
    r.check("homology totals match the closed formula", ok)
    series = {n: cx.hilbert_series(n) for n in range(max_n + 1)}
    ok = all(series[n] == homod.hilbert_series_formula(n)
             for n in range(max_n + 1))
    r.check("homology series match the closed formulas", ok)
    if getattr(args, "verify_representatives", False):
        bad = []
        for n in range(min(max_n, 13) + 1):
            for m in range(0, 5):
                try:
                    rep = verify_representatives(cx, "H", n, m)
                except NotTranscribed:
                    continue
                if not rep["ok"]:
                    bad.append(rep)
        r.check("published homology representatives verify", not bad, bad)
    write_outputs(r.out, "hh-dims", {"grid": grid, "totals": totals},
                  r.formats)
    write_outputs(r.out, "hilbert", {"series": series}, r.formats)
    return r.finish()


def cmd_cohomology(args, cfg):
    r = Runner(args, cfg)
    max_n = _max_n(args, cfg, 20)
    cx = CohomologyComplex(r.field, max_n=max_n)
    grid, totals = cx.cohomology_dims(max_n)
    ok = all(totals[n] == cohomod.total_dim_formula(n)
             for n in range(max_n + 1))
    r.check("cohomology totals match the closed formula", ok)
    series = {n: cx.hilbert_series(n) for n in range(max_n + 1)}
    ok = all(series[n] == cohomod.hilbert_series_formula(n)
             for n in range(max_n + 1))
    r.check("cohomology series match the closed formulas", ok)
    write_outputs(r.out, "hhco-dims", {"grid": grid, "totals": totals},
                  r.formats)
    write_outputs(r.out, "hilbert", {"series": series}, r.formats)
    return r.finish()


def cmd_cyclic(args, cfg):
    r = Runner(args, cfg)
    max_n = _max_n(args, cfg, 12)
    if r.field.characteristic != 0:
        print("cyclic homology needs characteristic zero", file=sys.stderr)
        return 2
    cx = HomologyComplex(r.field, max_n=max_n)
    gs = cx.cyclic_series(max_n)
    ok = all(gs[n] == homod.cyclic_series_formula(n)
             for n in range(max_n + 1))
    r.check("cyclic series match the closed formulas", ok)
    write_outputs(r.out, "cyclic", {"series": dict(enumerate(gs))}, r.formats)
    return r.finish()


def cmd_cup(args, cfg):
    r = Runner(args, cfg)
    horizon = _merge(args, cfg, "lift-horizon", 7)
    gen_degree = _merge(args, cfg, "gen-degree", 8)
    comm_degree = _merge(args, cfg, "commutativity-degree", 7)
    max_n = _merge(args, cfg, "max-n", 12)
    ring = CupRing(r.field, max_n=max_n, lift_horizon=horizon)
    alg = ncg.ring_algebra(r.field)
    relrep = {}
    rep = ring.verify_relations(ncg.load_commutation_relations(alg))
    relrep["commutation"] = rep
    r.check("97 commutation relations vanish", rep["ok"], rep["failures"])
    rep = ring.verify_relations(ncg.load_ideal_relations(alg))
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
    return r.finish()


def cmd_gb(args, cfg):
    r = Runner(args, cfg)
    bound = _merge(args, cfg, "gb-bound", 6)
    alg = ncg.ring_algebra(r.field)
    rels = ncg.load_commutation_relations(alg) + ncg.load_ideal_relations(alg)
    gb = ncg.buchberger_complete(alg, rels, degree_bound=bound)
    r.check("completion is untruncated", not gb.truncated)
    r.check("reduced basis has 184 elements", len(gb) == 184, len(gb))
    if getattr(args, "verify_printed", False) or "verify-printed" in cfg:
        pub = ncg.load_published_basis(alg)
        ok = sorted(map(tuple, gb.lead_words())) == \
            sorted(tuple(ncg.lead_word(p)) for p in pub)
        r.check("leading words equal the published ones", ok)
        pub_basis = ncg.GBasis(alg, pub)
        ok = all(ncg.normal_form(p, gb) == {} for p in pub) and \
            all(ncg.normal_form(p, pub_basis) == {} for p in gb.polys)
        r.check("mutual reduction vanishes", ok)
    counts = ncg.standard_word_counts(gb, up_to_hom_degree=20)
    words = ncg.standard_words(gb, up_to_hom_degree=16)
    by_len = {}
    for w in words:
        by_len[len(w)] = by_len.get(len(w), 0) + 1
    r.check("46 standard words of length 2", by_len.get(2) == 46, by_len)
    r.check("68 standard words of length 3", by_len.get(3) == 68, by_len)
    r.check("88 distinct standard words of length 4 (the published list "
            "prints one of its 89 tokens twice)", by_len.get(4) == 88, by_len)
    cox = CohomologyComplex(r.field, max_n=20)
    ok = True
    for n in range(0, 21):
        gbrow = {d: c for (h, d), c in counts.items() if h == n}
        if gbrow != cox.hilbert_series(n):
            ok = False
    r.check("bigraded standard words equal cohomology dims to degree 20", ok)
    write_outputs(r.out, "gb-summary", {
        "input": len(rels), "basis": len(gb),
        "std_words": {k: by_len.get(k, 0) for k in (2, 3, 4)},
    }, r.formats)
    return r.finish()


def cmd_resolution(args, cfg):
    r = Runner(args, cfg)
    max_n = _max_n(args, cfg, 12, least=1)
    res = BimoduleResolution(r.field, max_n=max_n + 1)
    for n in range(1, max_n + 1):
        ok = res.exactness_defect(n) == 0
        r.check(f"exactness by rank at degree {n}", ok)
    ok = all(not res.minimality_violations(n) for n in range(1, max_n + 1))
    r.check("minimality (differential entries in the augmentation ideal)", ok)
    return r.finish()


def cmd_verify_all(args, cfg):
    rc = 0
    for fn in (cmd_homology, cmd_cohomology, cmd_cup, cmd_gb, cmd_resolution):
        rc = max(rc, fn(args, cfg))
    if rc == 0 and field_from_name(
            _merge(args, cfg, "field", "q")).characteristic == 0:
        rc = max(rc, cmd_cyclic(args, cfg))
    return rc


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
            cfg = _load_config_file(args.config)
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
        return handlers[args.command](args, cfg)
    except (FieldError, UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

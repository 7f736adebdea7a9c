"""Presentation: deterministic rendered tables.

Every emitted document is byte-deterministic for a fixed configuration:
dictionaries are sorted, scalars are rendered as exact integer or num/den
strings, and no timestamps enter the payloads.
"""

from __future__ import annotations

import json
import os


TABLE_KINDS = ("hh-dims", "hhco-dims", "hilbert", "cyclic", "cup-table",
               "gb-summary")
FORMATS = ("json", "csv", "markdown")


class UsageError(ValueError):
    pass


def _scalar(x) -> str:
    return str(x)


def _series_str(poly: dict) -> str:
    return " ".join(f"{e}:{_scalar(c)}" for e, c in sorted(poly.items()))


def emit_table(kind: str, fmt: str, payload: dict) -> str:
    """Render one of the known table kinds in json, csv or markdown."""
    if kind not in TABLE_KINDS:
        raise UsageError(f"unknown table kind {kind!r}")
    if fmt not in FORMATS:
        raise UsageError(f"unknown format {fmt!r}")
    if kind in ("hh-dims", "hhco-dims"):
        return _emit_dims(kind, fmt, payload)
    if kind in ("hilbert", "cyclic"):
        return _emit_series(kind, fmt, payload)
    if kind == "cup-table":
        return _emit_cup(fmt, payload)
    return _emit_gb(fmt, payload)


def _emit_dims(kind, fmt, payload):
    grid = payload["grid"]
    totals = payload["totals"]
    ns = sorted(totals)
    ms = sorted({m for (_, m) in grid})
    if fmt == "json":
        doc = {
            "kind": kind,
            "schema": 1,
            "rows": [
                {"m": m, "dims": [grid.get((n, m), 0) for n in ns]}
                for m in ms
            ],
            "columns": ns,
            "totals": [totals[n] for n in ns],
        }
        return json.dumps(doc, sort_keys=True, indent=1) + "\n"
    if fmt == "csv":
        lines = ["m\\n," + ",".join(str(n) for n in ns)]
        for m in ms:
            lines.append(f"{m}," + ",".join(str(grid.get((n, m), 0)) for n in ns))
        lines.append("total," + ",".join(str(totals[n]) for n in ns))
        return "\n".join(lines) + "\n"
    lines = ["| m\\n | " + " | ".join(str(n) for n in ns) + " |",
             "|" + "---|" * (len(ns) + 1)]
    for m in ms:
        lines.append(f"| {m} | " +
                     " | ".join(str(grid.get((n, m), 0)) for n in ns) + " |")
    lines.append("| total | " + " | ".join(str(totals[n]) for n in ns) + " |")
    return "\n".join(lines) + "\n"


def _emit_series(kind, fmt, payload):
    series = payload["series"]
    ns = sorted(series)
    if fmt == "json":
        doc = {
            "kind": kind,
            "schema": 1,
            "series": {str(n): {str(e): _scalar(c)
                                for e, c in sorted(series[n].items())}
                       for n in ns},
        }
        return json.dumps(doc, sort_keys=True, indent=1) + "\n"
    if fmt == "csv":
        lines = ["n,exponent,coefficient"]
        for n in ns:
            for e, c in sorted(series[n].items()):
                lines.append(f"{n},{e},{_scalar(c)}")
        return "\n".join(lines) + "\n"
    lines = ["| n | series (exponent:coefficient) |", "|---|---|"]
    for n in ns:
        lines.append(f"| {n} | {_series_str(series[n])} |")
    return "\n".join(lines) + "\n"


def _emit_cup(fmt, payload):
    pairs = payload["pairs"]
    keys = sorted(pairs)
    if fmt == "json":
        doc = {
            "kind": "cup-table",
            "schema": 1,
            "products": {
                f"{i},{j}": {str(k): _scalar(v)
                             for k, v in sorted(pairs[(i, j)].items())}
                for (i, j) in keys
            },
        }
        return json.dumps(doc, sort_keys=True, indent=1) + "\n"
    if fmt == "csv":
        lines = ["i,j,class_index,coefficient"]
        for (i, j) in keys:
            if not pairs[(i, j)]:
                lines.append(f"{i},{j},,0")
            for k, v in sorted(pairs[(i, j)].items()):
                lines.append(f"{i},{j},{k},{_scalar(v)}")
        return "\n".join(lines) + "\n"
    lines = ["| i | j | class |", "|---|---|---|"]
    for (i, j) in keys:
        body = " + ".join(f"{_scalar(v)}*e{k}"
                          for k, v in sorted(pairs[(i, j)].items())) or "0"
        lines.append(f"| {i} | {j} | {body} |")
    return "\n".join(lines) + "\n"


def _emit_gb(fmt, payload):
    doc = {
        "kind": "gb-summary",
        "schema": 1,
        "input": payload["input"],
        "basis": payload["basis"],
        "std_words": {str(k): v for k, v in sorted(payload["std_words"].items())},
    }
    if fmt == "json":
        return json.dumps(doc, sort_keys=True, indent=1) + "\n"
    if fmt == "csv":
        lines = ["key,value", f"input,{doc['input']}", f"basis,{doc['basis']}"]
        for k, v in sorted(payload["std_words"].items()):
            lines.append(f"std_words_{k},{v}")
        return "\n".join(lines) + "\n"
    lines = ["| key | value |", "|---|---|",
             f"| input | {doc['input']} |", f"| basis | {doc['basis']} |"]
    for k, v in sorted(payload["std_words"].items()):
        lines.append(f"| std_words[{k}] | {v} |")
    return "\n".join(lines) + "\n"


def write_outputs(out_dir, kind, payload, formats=FORMATS):
    """Write out/<kind>.<fmt> for the requested formats; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for fmt in formats:
        ext = {"json": "json", "csv": "csv", "markdown": "md"}[fmt]
        path = os.path.join(out_dir, f"{kind}.{ext}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(emit_table(kind, fmt, payload))
        paths.append(path)
    return paths

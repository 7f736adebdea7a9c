"""One iteration of a benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py '<request json>'

The request holds `src` (the directory that contains the fk3hh package),
`mode` (setup, run or trace), `commands` (hh argument lists, run one after
another through fk3hh.cli.main) and `result` (where to write the measurement
as JSON).  The commands' own output goes to this process's standard output.

setup: import fk3hh and make the first fk3core.mul_table() call.
run:   set up, then time the commands (wall and process CPU time).
trace: import, install the tracer, then run set-up and the commands traced.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main(request):
    req = json.loads(request)
    src = os.path.abspath(req["src"])
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import fk3hh.cli  # imports every engine module, as the hh entry point does
    from fk3hh import fk3core
    import_s = time.perf_counter() - t0
    if not os.path.abspath(fk3hh.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"fk3hh was imported from {fk3hh.cli.__file__}")
    out = {"import_s": import_s}
    if req["mode"] == "trace":
        import tracer
        tr = tracer.Tracer()
        tracer.install(tr)
        start = time.perf_counter()
        with tr.span("fk3core.mul_table"):
            fk3core.mul_table()
        out["mul_table_s"] = time.perf_counter() - start
        out["rc"] = [fk3hh.cli.main(argv) for argv in req["commands"]]
        out["wall_s"] = time.perf_counter() - start
        out["uncovered_s"] = out["wall_s"] - tr.top_s
        out["layers"] = tracer.metrics(tr)
    else:
        fk3core.mul_table()
        out["setup_s"] = time.perf_counter() - t0
        if req["mode"] == "run":
            w0, c0 = time.perf_counter(), time.process_time()
            out["rc"] = [fk3hh.cli.main(argv) for argv in req["commands"]]
            out["wall_s"] = time.perf_counter() - w0
            out["cpu_s"] = time.process_time() - c0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.flush()
    with open(req["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1])

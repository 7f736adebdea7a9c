"""Benchmark of the fk3hh engine through its public CLI entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the engine is imported from src/, and
scratch output goes to .bench_work/.  `--help` lists the workloads and the
metrics with their units.

Every iteration runs the workload's hh command(s) through fk3hh.cli.main in
a fresh interpreter.  Iterations run one at a time (a closed loop with a
single client); another starts only if it is expected to end within
--seconds, so there is always at least one.  Before them, several fresh
interpreters only import fk3hh and build the FK(3) multiplication table, to
time set-up.

--trace 0 prints the end-to-end metrics: medians over the iterations.
--trace 1 keeps time for one traced iteration after the untraced ones and
prints the per-layer metrics of tracer.py instead.

Every iteration is checked: each [pass]/[FAIL] line the CLI prints, each
command's exit code, and the sha256 of each table it writes (compared with
reference.json, recorded at the seed commit) count as one operation.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEADLINE_S = 165.0  # the whole run, so that it ends within 180 s
SETUP_SAMPLES = 11


def choose_prime(seed):
    """The prime of dims-fp: 10^4 < p < 10^6, drawn from the seed."""
    rng = random.Random(seed)
    while True:
        p = rng.randrange(10 ** 4 + 1, 10 ** 6)
        if all(p % q for q in range(2, int(p ** 0.5) + 1)):
            return p


def commands(workload, seed):
    """(hh argument lists, prime or None) of a workload at a seed.

    Only dims-fp depends on the seed; the other workloads run the paper's
    fixed inputs over Q.
    """
    if workload == "dims-fp":
        p = choose_prime(seed)
        field = ["--max-n", "100", "--field", f"prime:{p}"]
        return [["homology", *field], ["cohomology", *field]], p
    fixed = {
        "resolution-q": [["resolution", "--max-n", "12"]],
        "cup-q": [["cup"]],
        "gb-q": [["gb", "--verify-printed"]],
    }
    return fixed[workload], None


def spawn(mode, cmds, tag, deadline):
    """Run child.py in a fresh interpreter and wait for it to end."""
    d = WORK / tag
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    outdirs = [d / f"{i}-{argv[0]}" for i, argv in enumerate(cmds)]
    req = {
        "src": str(SRC), "mode": mode, "result": str(d / "result.json"),
        "commands": [argv + ["--out", str(o)] for argv, o in zip(cmds, outdirs)],
    }
    # a fixed hash seed makes set and dict orders, and so the counts, repeat
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(req)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
        stdout, stderr = proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        stdout, stderr = "", "timed out"
    try:
        with open(req["result"], encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        result = None
    return {"stdout": stdout, "stderr": stderr, "result": result,
            "outdirs": outdirs}


def digest_dir(path):
    path = Path(path)
    if not path.is_dir():
        return {}
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(path.iterdir())}


def score(it, ref):
    """(attempted, failed, problems) over the operations of one iteration.

    ref holds, per command, the number of checks it prints and the sha256
    of every table it writes.  A check that is expected but never printed,
    and a table that is missing or unexpected, count as failed.
    """
    lines = it["stdout"].splitlines()
    passed = sum(line.startswith("[pass]") for line in lines)
    problems = [line for line in lines if line.startswith("[FAIL]")]
    missing = max(0, sum(c["checks"] for c in ref) - passed - len(problems))
    if missing:
        problems.append(f"{missing} expected check(s) never ran")
    attempted = passed + len(problems)
    failed = len(problems)
    rcs = (it["result"] or {}).get("rc", [])
    if it["result"] is None:
        problems.append("no result: " + it["stderr"].strip()[-300:])
    for i, c in enumerate(ref):
        rc = rcs[i] if i < len(rcs) else None
        attempted += 1
        if rc != 0:
            failed += 1
            problems.append(f"command {i} exited with {rc}")
        got = digest_dir(it["outdirs"][i])
        for name in sorted(set(c["tables"]) | set(got)):
            attempted += 1
            if c["tables"].get(name) != got.get(name):
                failed += 1
                problems.append(f"table {name} of command {i} does not "
                                "match its reference")
    return attempted, failed, problems


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def measure(workload, seed, seconds, trace):
    """One benchmark run; returns (result line, environment, problems)."""
    cmds, prime = commands(workload, seed)
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)[workload]
    deadline = time.monotonic() + DEADLINE_S
    env = {
        "workload": workload, "seed": seed, "prime": prime,
        "seed_changes_inputs": prime is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "cpu": cpu_model(),
        "loadavg_before": os.getloadavg(),
    }
    attempted = failed = 0
    problems = []

    def account(it):
        nonlocal attempted, failed
        a, f, p = score(it, ref)
        attempted, failed = attempted + a, failed + f
        problems.extend(p)

    setup = []
    for _ in range(SETUP_SAMPLES):
        res = spawn("setup", [], f"{workload}/setup", deadline)["result"]
        attempted += 1
        if res is None:
            failed += 1
            problems.append("set-up failed")
        else:
            setup.append(res["setup_s"])
    samples = []
    t0 = time.monotonic()
    while True:
        start = time.monotonic()
        it = spawn("run", cmds, f"{workload}/run", deadline)
        account(it)
        if it["result"]:
            samples.append(it["result"])
            setup.append(it["result"]["setup_s"])
            print("# iteration {}: wall {:.3f} s, cpu {:.3f} s, rss {:.1f} MiB"
                .format(len(samples), it["result"]["wall_s"],
                        it["result"]["cpu_s"], it["result"]["peak_rss_mb"]))
        now = time.monotonic()
        took = now - start
        reserve = took if trace else 0.0
        if now - t0 + took + reserve > seconds or \
                now + took + reserve > deadline:
            break
    if not samples or not setup:
        raise RuntimeError("no iteration completed: " + "; ".join(problems))
    wall = statistics.median(s["wall_s"] for s in samples)
    values = {
        "wall_s": wall,
        "cpu_s": statistics.median(s["cpu_s"] for s in samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "setup_s": statistics.median(setup),
    }
    if trace:
        it = spawn("trace", cmds, f"{workload}/trace", deadline)
        account(it)
        res = it["result"]
        if res is None or "layers" not in res:
            raise RuntimeError("the traced iteration failed: "
                               + "; ".join(problems))
        values = dict(res["layers"])
        values.update({
            "setup.import_s": res["import_s"],
            "fk3core.mul_table_s": res["mul_table_s"],
            "trace.wall_s": res["wall_s"],
            "trace.uncovered_s": res["uncovered_s"],
            "trace.overhead_s": res["wall_s"] - res["mul_table_s"] - wall,
        })
    env["loadavg_after"] = os.getloadavg()
    spec = load_spec()
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    line = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    return line, env, problems


def describe(spec):
    """The workloads and metrics, for --help."""
    with open(HERE / "metrics.json", encoding="utf-8") as fh:
        why = json.load(fh)
    out = ["workloads:"]
    out += [f"  {w['name']:<14} {w['why']}" for w in spec["workloads"]]
    for key, title in (("end_to_end", "end-to-end metrics (--trace 0)"),
                       ("per_layer", "per-layer metrics (--trace 1)")):
        out.append(title + ":")
        for m in spec[key]:
            out.append(f"  {m['name']} [{m['unit']}, {m['better']} is better]"
                       f": {why[m['name']]}")
    out.append("also printed: fail_ratio [ratio]: failed / attempted "
               "operations, 0 when every check, exit code and table passes")
    return "\n".join(out)


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0],
        epilog=describe(spec),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure iterations for this long (at least one)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "fk3hh" / "cli.py").is_file():
        print(f"no fk3hh sources under {SRC}", file=sys.stderr)
        return 2
    try:
        line, env, problems = measure(args.workload, args.seed,
                                      args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("# environment " + json.dumps(env))
    for problem in problems:
        print(f"# problem: {problem}")
    for name, m in line["metrics"].items():
        print(f"{name:<36} {m['value']!r:>24} {m['unit']}")
    fail_ratio = line["failed"] / line["attempted"]
    print(f"{'fail_ratio':<36} {fail_ratio!r:>24} ratio "
          f"({line['failed']}/{line['attempted']})")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

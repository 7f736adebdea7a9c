"""Self-tests of the benchmark's own accounting.

    python3 perfbench/selftest.py [WORKLOAD ...]

- Failure accounting: `hh gb --gb-bound 3` (a truncated completion) fails 4
  of its 6 checks and exits 1, so the harness must report fail_ratio > 0;
  a tampered reference digest must count as exactly one failed operation.
- Catalogue: every metric of BENCHMARK.json has a line in metrics.json.
- Without the engine's sources the benchmark exits non-zero, printing no
  result.
- Exact repeats: two traced iterations of each named workload (default: all
  four) give identical work counts and outputs that match the reference.
- Time accounting: in each traced iteration, the self times of all spans
  plus the uncovered remainder add up to the traced wall.

Takes about two minutes for all four workloads; exits 0 when all pass.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time

import run

failures = []


def check(label, ok, detail=""):
    print(f"[{'pass' if ok else 'FAIL'}] {label}" + ("" if ok else f": {detail}"))
    if not ok:
        failures.append(label)


def reference(workload):
    with open(run.HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)[workload]


def failure_accounting(deadline):
    ref = reference("gb-q")
    it = run.spawn("run", [["gb", "--gb-bound", "3"]], "selftest/gb3", deadline)
    attempted, failed, _ = run.score(it, ref)
    check("gb --gb-bound 3 fails 4 of 6 checks",
          (it["stdout"].count("[FAIL]"), it["stdout"].count("[pass]")) == (4, 2),
          it["stdout"])
    check("gb --gb-bound 3 exits 1", (it["result"] or {}).get("rc") == [1],
          it["result"])
    check("gb --gb-bound 3 gives fail_ratio > 0", failed / attempted > 0,
          (failed, attempted))

    it = run.spawn("run", run.commands("gb-q", 0)[0], "selftest/gb", deadline)
    attempted, failed, problems = run.score(it, ref)
    check("gb-q matches its reference", failed == 0, problems)
    tampered = copy.deepcopy(ref)
    name = sorted(tampered[0]["tables"])[0]
    tampered[0]["tables"][name] = "0" * 64
    got = run.score(it, tampered)
    check("a tampered digest is one failed operation",
          got[:2] == (attempted, 1), got)


def catalogue():
    spec = run.load_spec()
    with open(run.HERE / "metrics.json", encoding="utf-8") as fh:
        why = json.load(fh)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check("every metric has one line in metrics.json",
          sorted(names) == sorted(why), set(names) ^ set(why))


def without_sources():
    bare = run.WORK / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "gb-q",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    check("without sources it exits non-zero and prints no result",
          proc.returncode != 0 and not proc.stdout.strip(),
          (proc.returncode, proc.stdout))


def repeats(workload, deadline):
    ref = reference(workload)
    cmds, _ = run.commands(workload, 1)
    runs = []
    for attempt in range(2):
        it = run.spawn("trace", cmds, f"selftest/{workload}-{attempt}",
                       deadline)
        _, failed, problems = run.score(it, ref)
        check(f"{workload}: traced outputs match the reference", failed == 0,
              problems)
        res = it["result"]
        runs.append(res)
        covered = sum(v for name, v in res["layers"].items()
                      if name.endswith(".self_s"))
        total = covered + res["uncovered_s"]
        check(f"{workload}: self times + uncovered = traced wall "
              f"({res['wall_s']:.3f} s)",
              abs(total - res["wall_s"]) <= 1e-9 * max(1.0, res["wall_s"]),
              (total, res["wall_s"]))
    counts = [{k: v for k, v in r["layers"].items() if not k.endswith("_s")}
              for r in runs]
    differ = {k: (v, counts[1].get(k)) for k, v in counts[0].items()
              if counts[1].get(k) != v}
    check(f"{workload}: work counts repeat exactly", not differ, differ)


def main(argv):
    workloads = argv or [w["name"] for w in run.load_spec()["workloads"]]
    deadline = time.monotonic() + 3600
    try:
        catalogue()
        without_sources()
        failure_accounting(deadline)
        for w in workloads:
            repeats(w, deadline)
    finally:
        shutil.rmtree(run.WORK / "selftest", ignore_errors=True)
    print(f"{len(failures)} self-test(s) failed" if failures
          else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The benchmark workloads, run in-process against their recorded outputs.

Each workload's hh commands (from perfbench/run.py, dims-fp at prime:10007)
run through fk3hh.cli.main and are scored as run.py scores them against
perfbench/reference.json, which is only read: exit code 0, no [FAIL] line,
at least the recorded number of [pass] lines (the reference predates the
resolution's delta^2 = 0 check, so `hh resolution` prints one more), and
the sha256 of every table equal to its recorded one, with no table missing
or extra.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from fk3hh import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text("utf-8"))

_spec = importlib.util.spec_from_file_location("perfbench_run",
                                               PERFBENCH / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


@pytest.mark.parametrize("workload", sorted(REFERENCE))
def test_workload_matches_its_reference(workload, tmp_path, capsys):
    cmds, prime = bench.commands(workload, seed=0)
    for i, (argv, ref) in enumerate(zip(cmds, REFERENCE[workload],
                                        strict=True)):
        if prime is not None:
            argv = [a.replace(f"prime:{prime}", "prime:10007") for a in argv]
        out = tmp_path / f"{i}-{argv[0]}"
        rc = cli.main(argv + ["--out", str(out)])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0, (workload, argv)
        assert not [ln for ln in lines if ln.startswith("[FAIL]")]
        assert sum(ln.startswith("[pass]") for ln in lines) >= ref["checks"]
        assert bench.digest_dir(out) == ref["tables"], (workload, argv)


def test_tracer_installs_on_the_engine(tmp_path):
    # tracer.py wraps methods through each class's own __dict__, so a
    # wrapped name that moved or is only inherited breaks a traced run
    req = {"src": str(PERFBENCH.parent / "src"), "mode": "trace",
           "result": str(tmp_path / "result.json"),
           "commands": [["homology", "--max-n", "4", "--out",
                         str(tmp_path / "o")]]}
    subprocess.run([sys.executable, str(PERFBENCH / "child.py"),
                    json.dumps(req)], capture_output=True, timeout=120)
    res = json.loads((tmp_path / "result.json").read_text("utf-8"))
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text("utf-8"))
    layers = {m["name"] for m in spec["per_layer"]} - {
        "setup.import_s", "fk3core.mul_table_s", "trace.wall_s",
        "trace.uncovered_s", "trace.overhead_s"}  # from the child's timings
    assert res["rc"] == [0]
    assert layers <= set(res["layers"]) and len(res["layers"]) == 70

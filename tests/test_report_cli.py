import json
import os

import pytest

from fk3hh import cli, paperdata
from fk3hh import ncgroebner as ncg
from fk3hh.report import UsageError, emit_table, write_outputs


def test_emit_table_kinds_and_formats():
    payload = {"grid": {(0, 0): 1, (1, 1): 3}, "totals": {0: 6, 1: 9}}
    for fmt in ("json", "csv", "markdown"):
        text = emit_table("hh-dims", fmt, payload)
        assert "6" in text and "9" in text
    with pytest.raises(UsageError):
        emit_table("nope", "json", payload)
    with pytest.raises(UsageError):
        emit_table("hh-dims", "yaml", payload)


def test_emit_deterministic():
    payload = {"series": {2: {3: 4, 4: 2, 6: 1}}}
    a = emit_table("cyclic", "json", payload)
    b = emit_table("cyclic", "json", {"series": {2: {6: 1, 4: 2, 3: 4}}})
    assert a == b
    doc = json.loads(a)
    assert doc["series"]["2"] == {"3": "4", "4": "2", "6": "1"}


def test_gb_summary_payload():
    text = emit_table("gb-summary", "json", {
        "input": 160, "basis": 184, "std_words": {2: 46, 3: 68, 4: 88}})
    doc = json.loads(text)
    assert doc["input"] == 160 and doc["basis"] == 184
    assert doc["std_words"] == {"2": 46, "3": 68, "4": 88}


def test_write_outputs(tmp_path):
    paths = write_outputs(str(tmp_path), "gb-summary",
                          {"input": 160, "basis": 184, "std_words": {2: 46}})
    names = sorted(os.path.basename(p) for p in paths)
    assert names == ["gb-summary.csv", "gb-summary.json", "gb-summary.md"]


def test_cli_homology_small(tmp_path, capsys):
    rc = cli.main(["homology", "--max-n", "6", "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[pass]" in out and "FAIL" not in out
    assert (tmp_path / "o" / "hh-dims.json").exists()


def test_cli_cyclic_refuses_prime(tmp_path):
    rc = cli.main(["cyclic", "--field", "prime:10007",
                   "--out", str(tmp_path / "o")])
    assert rc == 2


def test_cli_bad_field(tmp_path):
    rc = cli.main(["homology", "--field", "prime:6",
                   "--out", str(tmp_path / "o")])
    assert rc == 2


def test_cli_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "hh.cfg"
    cfgfile.write_text("max-n = 5\nout = " + str(tmp_path / "from_cfg") + "\n")
    rc = cli.main(["--config", str(cfgfile), "homology"])
    assert rc == 0
    assert (tmp_path / "from_cfg" / "hh-dims.json").exists()
    # flags override the file
    rc = cli.main(["--config", str(cfgfile), "homology",
                   "--out", str(tmp_path / "flag_wins")])
    assert rc == 0
    assert (tmp_path / "flag_wins" / "hh-dims.json").exists()


@pytest.mark.parametrize("line", ["bogus = 1", "lift-horizon = 99",
                                  "lift_horizon = 99", "help = 1"])
def test_cli_config_rejects_unknown_keys(tmp_path, capsys, line):
    cfgfile = tmp_path / "hh.cfg"
    cfgfile.write_text("max-n = 5\n" + line + "\n")
    out = tmp_path / "o"
    rc = cli.main(["--config", str(cfgfile), "homology", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "unknown config key" in captured.err
    assert "[pass]" not in captured.out
    assert not out.exists()


def test_cli_config_knows_every_subcommand_option(tmp_path, capsys):
    # keys of any subcommand are accepted, also by another subcommand,
    # and underscores stand for dashes
    keys = cli._config_keys(cli._parser())
    assert {"field", "max-n", "out", "formats", "gen-degree",
            "commutativity-degree", "gb-bound", "verify-printed",
            "verify-representatives"} == keys
    cfgfile = tmp_path / "hh.cfg"
    cfgfile.write_text("max_n = 4\ngb-bound = 6\nverify_representatives = 1"
                       "\nout = " + str(tmp_path / "o") + "\n")
    assert cli.main(["--config", str(cfgfile), "homology"]) == 0
    assert "[pass] published homology representatives verify" in \
        capsys.readouterr().out


@pytest.mark.parametrize("value,on", [
    ("0", False), ("false", False), ("No", False), ("OFF", False),
    ("1", True), ("TRUE", True), ("yes", True), ("On", True)])
def test_cli_config_flag_values(tmp_path, capsys, value, on):
    cfgfile = tmp_path / "hh.cfg"
    cfgfile.write_text(f"verify-representatives = {value}\n")
    rc = cli.main(["--config", str(cfgfile), "homology", "--max-n", "4",
                   "--out", str(tmp_path / "o")])
    assert rc == 0
    assert ("representatives verify" in capsys.readouterr().out) == on


def test_cli_config_false_flag_skips_printed_basis(tmp_path, capsys):
    (tmp_path / "hh.cfg").write_text("verify-printed = 0\n")
    assert cli.main(["--config", str(tmp_path / "hh.cfg"), "gb",
                     "--out", str(tmp_path / "o")]) == 0
    assert "leading words" not in capsys.readouterr().out


@pytest.mark.parametrize("value", ["maybe", "2", ""])
@pytest.mark.parametrize("command,key", [
    ("homology", "verify-representatives"), ("gb", "verify-printed"),
    ("verify-all", "verify-representatives"), ("verify-all", "verify-printed")])
def test_cli_config_rejects_bad_flag_values(tmp_path, capsys, command, key,
                                            value):
    out = tmp_path / "o"
    cfgfile = tmp_path / "hh.cfg"
    cfgfile.write_text(f"{key} = {value}\n")
    rc = cli.main(["--config", str(cfgfile), command, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "usage error" in captured.err and "[pass]" not in captured.out
    assert not out.exists()


def test_verify_all_runs_printed_basis_and_representative_checks(
        tmp_path, capsys, monkeypatch):
    # the cup and resolution commands are stubbed out here, and so is the
    # cup's degree check, which rejects --max-n 4 up front
    monkeypatch.setattr(cli, "cmd_cup", lambda r, args, cfg, defaults: None)
    monkeypatch.setattr(cli, "_cup_degrees", lambda *args: None)
    monkeypatch.setattr(cli, "cmd_resolution", lambda r, args, cfg: None)
    rc = cli.main(["verify-all", "--max-n", "4", "--out", str(tmp_path / "o")])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    for label in ("published homology representatives verify",
                  "leading words equal the published ones",
                  "mutual reduction vanishes"):
        assert f"[pass] {label}" in lines


def break_cohomology_series(monkeypatch):
    """Make one closed-formula term of the cohomology series wrong."""
    series = paperdata.cohomology_series_formula
    monkeypatch.setattr(paperdata, "cohomology_series_formula", lambda n: (
        {**series(n), 0: series(n).get(0, 0) + 1} if n == 3 else series(n)))


def test_verify_all_reports_the_failures_of_every_subcommand(
        tmp_path, capsys, monkeypatch):
    # one closed-formula term of the cohomology series is wrong, and the
    # published basis lacks one element, so one lead word is missing; the
    # cup command and its degree check are stubbed out, as --max-n 4 is
    # below what the cup checks need
    break_cohomology_series(monkeypatch)
    published = ncg.load_published_basis
    monkeypatch.setattr(ncg, "load_published_basis",
                        lambda alg: published(alg)[1:])
    monkeypatch.setattr(cli, "cmd_cup", lambda r, args, cfg, defaults: None)
    monkeypatch.setattr(cli, "_cup_degrees", lambda *args: None)
    out = tmp_path / "o"
    rc = cli.main(["verify-all", "--max-n", "4", "--out", str(out)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    failed = [line[len("[FAIL] "):] for line in lines
              if line.startswith("[FAIL] ")]
    assert "cohomology series match the closed formulas" in failed
    assert "leading words equal the published ones" in failed
    last = max(i for i, line in enumerate(lines) if line.startswith("[FAIL]"))
    assert "all checks passed" not in lines
    assert "[pass] exactness by rank at degree 4" in lines  # resolution ran
    # and so did cyclic, the last command, after the failures
    assert lines.index("[pass] cyclic series match the closed formulas") > \
        last
    closing = [line for line in lines if not line.startswith("[")]
    assert closing == [lines[-1]] == [
        f"{len(failed)} check(s) failed; report at {out / 'failures.json'}"]
    records = json.loads((out / "failures.json").read_text())["failures"]
    assert [r["check"] for r in records] == failed
    assert [r["command"] for r in records] == \
        ["cohomology"] + ["gb"] * (len(failed) - 1)


def test_verify_all_keeps_a_failure_through_a_later_internal_error(
        tmp_path, capsys, monkeypatch):
    # a cohomology check fails, then the completion of hh gb raises: the
    # run is an internal error, and failures.json still lists the failure
    break_cohomology_series(monkeypatch)

    def broken(*args, **kwargs):
        raise ValueError("completion broke")

    monkeypatch.setattr(ncg, "buchberger_complete", broken)
    monkeypatch.setattr(cli, "cmd_cup", lambda r, args, cfg, defaults: None)
    monkeypatch.setattr(cli, "_cup_degrees", lambda *args: None)
    out = tmp_path / "o"
    rc = cli.main(["verify-all", "--max-n", "4", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 3
    assert "internal error" in captured.err
    assert "[FAIL] cohomology series match the closed formulas" in \
        captured.out.splitlines()
    records = json.loads((out / "failures.json").read_text())["failures"]
    assert records == [{"command": "cohomology", "check": "cohomology series "
                        "match the closed formulas", "detail": ""}]


# each closed-formula check: the command that prints it, at its default
# bound, and the paperdata formula that it reads
FORMULA_CHECKS = [
    ("homology", "homology_total_formula",
     "homology totals match the closed formula"),
    ("homology", "homology_series_formula",
     "homology series match the closed formulas"),
    ("cohomology", "cohomology_total_formula",
     "cohomology totals match the closed formula"),
    ("cohomology", "cohomology_series_formula",
     "cohomology series match the closed formulas"),
    ("cyclic", "cyclic_series_formula",
     "cyclic series match the closed formulas"),
]


@pytest.mark.parametrize("command, formula, label", FORMULA_CHECKS,
                         ids=[f for _, f, _ in FORMULA_CHECKS])
def test_every_closed_formula_check_can_fail(command, formula, label,
                                             tmp_path, capsys, monkeypatch):
    # one formula is wrong at n = 5, within every default bound: its check
    # fails, the command's other checks pass, and the run exits 1
    right = getattr(paperdata, formula)

    def wrong(n):
        value = right(n)
        if n != 5:
            return value
        if isinstance(value, int):
            return value + 1
        return {**value, 0: value.get(0, 0) + 1}

    monkeypatch.setattr(paperdata, formula, wrong)
    rc = cli.main([command, "--out", str(tmp_path / "o")])
    checks = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("[")]
    assert rc == 1
    assert checks == [f"[{'FAIL' if other == label else 'pass'}] {other}"
                      for c, _, other in FORMULA_CHECKS if c == command]


# the commands of hh verify-all that write tables, each with the options
# that it runs them with (hh resolution writes none)
VERIFY_ALL_TABLES = {
    "homology": ["--verify-representatives"],
    "cohomology": [],
    "cup": ["--max-n", "16", "--gen-degree", "12",
            "--commutativity-degree", "9"],
    "gb": ["--verify-printed"],
    "cyclic": [],
}


def files(path):
    """{relative path: bytes} of every file under path."""
    return {p.relative_to(path): p.read_bytes() for p in path.rglob("*")
            if p.is_file()}


def test_verify_all_over_q_closes_once_with_every_table(tmp_path, capsys):
    # the whole run, unstubbed: every check passes, the run closes once,
    # and each command's tables under <out>/<command> are those that the
    # command writes alone with verify-all's options; so both hilbert
    # tables, of homology and of cohomology, are kept
    out = tmp_path / "all"
    assert cli.main(["verify-all", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("[pass] ") for line in lines) == 61
    assert len(lines) == 62 and lines[-1] == "all checks passed"
    assert sorted(p.name for p in out.iterdir()) == sorted(VERIFY_ALL_TABLES)
    for command, flags in VERIFY_ALL_TABLES.items():
        alone = tmp_path / command
        assert cli.main([command, *flags, "--out", str(alone)]) == 0
        assert files(out / command) == files(alone), command
    assert (out / "homology" / "hilbert.json").read_bytes() != \
        (out / "cohomology" / "hilbert.json").read_bytes()


def test_cli_homology_and_cohomology_to_degree_200(tmp_path, capsys):
    # the closed formulas hold through the affine template far above where
    # the assembled matrices are compared with it
    for argv in (["homology"], ["cohomology", "--field", "prime:10007"]):
        rc = cli.main([*argv, "--max-n", "200", "--out", str(tmp_path / "o")])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0, argv
        checks = [line for line in lines if line.startswith("[")]
        assert len(checks) == 2 and all(
            line.startswith("[pass] ") for line in checks), argv


def test_cli_representative_check_can_fail(tmp_path, capsys, monkeypatch):
    # one wrong coefficient in one published family fails the check:
    # 2 a|gamma_1 + c|alpha_1 for a|gamma_1 + c|alpha_1 at (1, 1)
    reps_m1 = paperdata._homology_reps_m1
    wrong = paperdata._elem((0, "a", "g", 1, 2), (0, "c", "a", 1))
    monkeypatch.setattr(paperdata, "_homology_reps_m1", lambda n: (
        [wrong] + reps_m1(n)[1:] if n == 1 else reps_m1(n)))
    rc = cli.main(["homology", "--max-n", "6", "--verify-representatives",
                   "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "[FAIL] published homology representatives verify" in \
        capsys.readouterr().out


def test_cli_outputs_deterministic(tmp_path):
    rc1 = cli.main(["homology", "--max-n", "5", "--out", str(tmp_path / "a")])
    rc2 = cli.main(["homology", "--max-n", "5", "--out", str(tmp_path / "b")])
    assert rc1 == rc2 == 0
    for name in ("hh-dims.json", "hh-dims.csv", "hh-dims.md", "hilbert.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("command,max_n", [
    ("homology", -1), ("cohomology", -1), ("cyclic", -1), ("resolution", 0)])
def test_cli_rejects_empty_degree_range(tmp_path, capsys, command, max_n):
    out = tmp_path / "o"
    rc = cli.main([command, "--max-n", str(max_n), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "[pass]" not in captured.out and "all checks passed" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--gen-degree", "14"], ["--commutativity-degree", "13"],
    ["--commutativity-degree", "-1"], ["--gen-degree", "0"], ["--max-n", "7"]])
def test_cli_cup_rejects_degrees_beyond_resolution(tmp_path, capsys, flags):
    out = tmp_path / "o"
    rc = cli.main(["cup", *flags, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "usage error" in captured.err and "Traceback" not in captured.err
    assert "[pass]" not in captured.out
    assert not out.exists()


def test_verify_all_rejects_cup_degrees_before_any_work(tmp_path, capsys):
    # verify-all's cup checks need the resolution to degree 16; a lower
    # --max-n is a bad request, refused before homology or cohomology runs
    out = tmp_path / "o"
    rc = cli.main(["verify-all", "--max-n", "4", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "usage error" in captured.err and "--max-n 4" in captured.err
    assert "[pass]" not in captured.out and "[FAIL]" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("command,bound", [
    ("gb", "-1"), ("gb", "2"), ("verify-all", "-1"), ("verify-all", "2")])
def test_cli_rejects_gb_bound_below_relation_length(tmp_path, capsys,
                                                     command, bound):
    # the longest relation word has length 3; a lower bound is a bad request,
    # refused before any check runs, not a failed verification
    out = tmp_path / "o"
    rc = cli.main([command, "--gb-bound", bound, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "usage error" in captured.err and "--gb-bound" in captured.err
    assert "[pass]" not in captured.out and "[FAIL]" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("formats", ["json,xml", ""])
@pytest.mark.parametrize("command", [
    "homology", "cohomology", "cyclic", "cup", "gb", "resolution",
    "verify-all"])
def test_cli_rejects_unknown_formats(tmp_path, capsys, command, formats):
    # an unknown table format is a bad request, refused before any check
    # runs or any table is written, not an internal error
    out = tmp_path / "o"
    rc = cli.main([command, "--formats", formats, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "usage error" in captured.err and "Traceback" not in captured.err
    assert "[pass]" not in captured.out and "[FAIL]" not in captured.out
    assert not out.exists()
    cfgfile = tmp_path / "hh.cfg"
    cfgfile.write_text(f"formats = {formats}\nout = {out}\n")
    assert cli.main(["--config", str(cfgfile), command]) == 2
    assert not out.exists()


def test_cli_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("cochain is not bihomogeneous")

    monkeypatch.setattr(cli, "HomologyComplex", broken)
    rc = cli.main(["homology", "--max-n", "2", "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "internal error" in err and "usage error" not in err
    cfgfile = tmp_path / "hh.cfg"
    cfgfile.write_text("max-n = two\n")  # a bad value stays a usage error
    assert cli.main(["--config", str(cfgfile), "homology"]) == 2
    assert cli.main(["homology", "--field", "prime:abc"]) == 2


def test_cli_resolution_certificate_to_degree_40(tmp_path, capsys):
    rc = cli.main(["resolution", "--max-n", "40", "--out", str(tmp_path / "o")])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert [line for line in lines if "exactness by rank" in line] == \
        [f"[pass] exactness by rank at degree {n}" for n in range(1, 41)]
    assert "[pass] minimality (differential entries in the augmentation " \
        "ideal)" in lines
    assert "[pass] delta^2 = 0 (d^2 = 0 and d f + f d = 0 on every " \
        "generator to degree 41)" in lines
    assert not any(line.startswith("[FAIL]") for line in lines)

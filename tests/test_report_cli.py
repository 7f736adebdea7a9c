import json
import os

import pytest

from fk3hh import cli
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

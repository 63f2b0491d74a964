"""Command line driver: listing, integration runs, verification reports."""

import json
import re

import pytest

from painlab.cli import main


def test_list_shows_all_systems(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.strip().splitlines() if l.strip()]
    assert len(lines) == 18  # header + 17 systems
    assert any("21,21,21,21,111" in l for l in lines)


def test_integrate_writes_csv(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(["integrate", "--system", "11,11,11,11", "--seed", "5",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "path_parameter,re_q1,im_q1,re_p1,im_p1"
    assert len(lines) > 5


def test_integrate_requires_known_system(capsys):
    assert main(["integrate", "--system", "not,a,system"]) == 2
    assert "unknown system" in capsys.readouterr().err


def test_integrate_missing_parameter_fails(tmp_path, capsys):
    code = main(["integrate", "--system", "11,11,11,11",
                 "--params", '{"alpha0": [0.1, 0.0]}',
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "missing parameters" in capsys.readouterr().err


def test_verify_writes_report_and_reflects_status(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "counts", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["results"][0]["name"] == "counts"
    assert "seed" in report


def test_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["verify", "symplectic", "--seed", "7", "--out", str(a)])
    main(["verify", "symplectic", "--seed", "7", "--out", str(b)])

    def normalized(p):
        # identical modulo the wall-clock duration fields
        return re.sub(r'"seconds": [0-9.]+', '"seconds": T', p.read_text())

    assert normalized(a) == normalized(b)


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "report": str(tmp_path / "r.json")}))
    out = tmp_path / "override.json"
    code = main(["--config", str(cfg), "verify", "counts",
                 "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["seed"] == 3


def test_env_seed_override(tmp_path, monkeypatch):
    monkeypatch.setenv("PAINLAB_SEED", "99")
    out = tmp_path / "r.json"
    main(["verify", "counts", "--out", str(out)])
    assert json.loads(out.read_text())["seed"] == 99


@pytest.mark.parametrize("flags", [
    ["--params", "{bad json"],
    ["--params", "[1, 2]"],
    ["--params", '{"alpha0": "x"}'],
    # every alpha 1: the exponent trace relation is violated
    ["--params", '{"alpha0": 1, "alpha1": 1, "alpha2": 1, "alpha3": 1, '
                 '"alpha4": 1}'],
    ["--t-end", "[1,"],
], ids=["malformed-json", "not-an-object", "non-numeric", "trace-relation",
        "malformed-t-end"])
def test_integrate_bad_input_is_one_error_line(tmp_path, capsys, flags):
    code = main(["integrate", "--system", "11,11,11,11", *flags,
                 "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()

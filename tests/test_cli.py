"""Command line driver: listing, integration runs, verification reports."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from painlab import cli, integrator, verify
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


# a flow so stiff that an explicit step must stay tiny
STIFF = ('{"alpha0": 1e6, "alpha1": 0, "alpha2": 0.5, "alpha3": 0, '
         '"alpha4": -1e6}')
ABSENT = object()  # --config names a file that does not exist


@pytest.mark.parametrize("flags,config", [
    (["--params", "{bad json"], None),
    (["--params", "[1, 2]"], None),
    (["--params", '{"alpha0": "x"}'], None),
    # every alpha 1: the exponent trace relation is violated
    (["--params", '{"alpha0": 1, "alpha1": 1, "alpha2": 1, "alpha3": 1, '
                  '"alpha4": 1}'], None),
    (["--t-end", "[1,"], None),
    # far enough that the squared length of the leg overflows
    (["--system", "21,111,111,111", "--t-end", "[1e200, 0]"], None),
    (["--t-end", "[1, 2, 3]"], None),
    (["--time-index", "3"], None),
    (["--time-index", "0"], None),
    (["--rel-tol", "0"], None),
    # an infinite tolerance would switch error control off
    (["--rel-tol", "inf"], None),
    ([], '{"rel_tol": 1e400}'),
    (["--rel-tol", "1"], None),
    (["--rel-tol", "1e300"], None),
    (["--params", STIFF], None),
    (["--out", "{tmp}"], None),
    # verify, not integrate: the bad --out is caught before any check runs
    (["verify", "all", "--out", "{tmp}/missing/r.json"], None),
    ([], ABSENT),
    ([], "{bad json"),
    ([], "[1, 2]"),
    ([], '{"state": {"q": [0.1], "t": [2.0]}}'),
    ([], '{"state": {"q": [0.1, 0.2], "p": [0.1], "t": [2.0]}}'),
    ([], '{"state": {"q": [0.1], "p": [0.1], "t": [1.0]}}'),
    (["--seed", "-1"], None),
    ([], '{"seed": "x"}'),
    ([], '{"seed": 1.5}'),
    (["PAINLAB_SEED=abc", "verify", "counts"], None),
    (["integrate", "--system", "11,11,11,11"], '{"out": 1}'),
    (["verify", "counts"], '{"report": 5}'),
], ids=["malformed-json", "not-an-object", "non-numeric", "trace-relation",
        "malformed-t-end", "huge-t-end", "t-end-three-entries",
        "time-index-too-large", "time-index-zero",
        "rel-tol-zero", "rel-tol-inf", "config-rel-tol-overflow",
        "rel-tol-one", "rel-tol-huge",
        "integrator-stall", "unwritable-out",
        "verify-unwritable-out",
        "config-missing", "config-malformed", "config-not-an-object",
        "config-state-without-p", "config-state-wrong-length",
        "config-state-time-one", "negative-seed", "config-seed-string",
        "config-seed-float", "env-seed-not-an-integer", "config-out-number",
        "config-report-number"])
def test_integrate_bad_input_is_one_error_line(tmp_path, capsys, monkeypatch,
                                               flags, config):
    monkeypatch.setattr(integrator, "MAX_SEGMENT_STEPS", 300)
    cfg = tmp_path / "cfg.json"
    if isinstance(config, str):
        cfg.write_text(config)
    head = [] if config is None else ["--config", str(cfg)]
    flags = [f.replace("{tmp}", str(tmp_path)) for f in flags]
    if flags and flags[0].startswith("PAINLAB_SEED="):
        # a leading NAME=value sets the environment, as in a shell
        monkeypatch.setenv("PAINLAB_SEED", flags.pop(0).split("=", 1)[1])
    if flags[:1] == ["verify"]:
        monkeypatch.setattr(verify, "run_checks", None)  # must not be called
    if flags[:1] in (["verify"], ["integrate"]):
        argv = flags
    else:
        argv = ["integrate", "--system", "11,11,11,11",
                "--out", str(tmp_path / "x.csv"), *flags]
    code = main(head + argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()
    if "[1e200, 0]" in flags:
        # a step failure names its segment's length, which says what is wrong
        assert " on segment 0 (length 1e+200) at s=" in err


def test_nan_parameter_violates_the_trace_relation(tmp_path, capsys):
    # a NaN residual compares false against the tolerance, so it must be
    # rejected explicitly rather than end in a step underflow
    params = ('{"alpha0": NaN, "alpha1": 0, "alpha2": 0.5, "alpha3": 0, '
              '"alpha4": 0.5}')
    code = main(["integrate", "--system", "11,11,11,11", "--params", params,
                 "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 2 and err.count("\n") == 1
    assert err.startswith("error: ") and "trace relation violated" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("flags,config,message", [
    (["--t-end", "NaN"], None, "t_end (nan+0j) is not finite"),
    (["--t-end", "[0, Infinity]"], None, "t_end infj is not finite"),
    # a NaN time passes any "distance <= tol" collision test, and its
    # default t_end is NaN too
    ([], '{"state": {"q": [0.1], "p": [0.1], "t": [NaN]}}',
     "bad state or t_end: times ((nan+0j),) collide or are not finite"),
], ids=["NaN", "[0, Infinity]", "config-state-time-nan"])
def test_non_finite_t_end_is_rejected_before_integrating(
        tmp_path, capsys, monkeypatch, flags, config, message):
    monkeypatch.setattr(cli, "integrate_time", None)  # must not be called
    head = []
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        head = ["--config", str(cfg)]
    code = main(head + ["integrate", "--system", "11,11,11,11", *flags,
                        "--out", str(tmp_path / "x.csv")])
    assert code == 2 and capsys.readouterr().err == f"error: {message}\n"


def test_module_entry_point_runs_the_cli(tmp_path):
    # python -m painlab from a source checkout, without an installed script
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = tmp_path / "report.json"
    run = subprocess.run([sys.executable, "-m", "painlab", "verify", "counts",
                          "--out", str(out)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("PASS counts")
    assert json.loads(out.read_text())["passed"] is True

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gpt_lab import __version__
from gpt_lab.cli import RunConfig, main


def run(tmp_path, name, *argv):
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


def test_gamma_table_output(tmp_path):
    data = run(tmp_path, "g.csv", "gamma-table", "--n", "12", "--jobs", "1")
    lines = data.decode().splitlines()
    assert lines[0] == f"# gpt-lab v{__version__} gamma-table"
    assert lines[1] == "n,i,theta,gamma_numeric,gamma_closed_form,entropic_bound"
    assert len(lines) == 2 + 5  # i = 1..5 for the 12-gon
    n, i, theta, num, clo, ent = lines[2].split(",")
    assert (n, i) == ("12", "1")
    assert float(theta) == pytest.approx(math.pi / 6)
    assert float(num) == pytest.approx(float(clo), abs=1e-9)
    assert "." in theta  # '.' decimal separator regardless of locale


def test_mixing_sweep_output(tmp_path):
    data = run(tmp_path, "m.csv", "mixing-sweep", "--jobs", "2")
    lines = data.decode().splitlines()
    assert lines[1] == "n,entropy_form_1,entropy_form_2,difference,verdict"
    rows = [ln.split(",") for ln in lines[2:]]
    assert rows[0][0] == "3" and rows[0][-1] == "consistent"
    assert rows[-1][0] == "inf" and rows[-1][-1] == "consistent"
    square = next(r for r in rows if r[0] == "4")
    assert square[-1] == "inconsistent"
    assert float(square[3]) == pytest.approx(math.log(2.0), abs=1e-9)


def test_mur_properties_json(tmp_path):
    data = run(tmp_path, "mur.json", "mur-properties", "--seed", "1",
               "--config", _cfg(tmp_path, {"trials": 5}))
    header, body = data.decode().split("\n", 1)
    assert header.startswith("# gpt-lab v")
    doc = json.loads(body)
    assert doc["seed"] == 1
    names = [r["theory"] for r in doc["results"]]
    assert names == sorted(names)
    for r in doc["results"]:
        assert r["violations"] == []


def _cfg(tmp_path, payload):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(payload))
    return str(p)


def test_config_file_with_flag_override(tmp_path):
    cfg = _cfg(tmp_path, {"n": 8, "seed": 7})
    a = run(tmp_path, "a.csv", "gamma-table", "--config", cfg)
    b = run(tmp_path, "b.csv", "gamma-table", "--n", "8")
    assert a == b  # seed does not affect the table; n taken from config
    c = run(tmp_path, "c.csv", "gamma-table", "--config", cfg, "--n", "6")
    assert c != a  # flag wins over the config file


def test_byte_reproducibility_across_jobs(tmp_path):
    base = run(tmp_path, "r1.json", "mur-properties", "--seed", "3", "--jobs", "1",
               "--config", _cfg(tmp_path, {"trials": 4}))
    again = run(tmp_path, "r2.json", "mur-properties", "--seed", "3", "--jobs", "4",
                "--config", _cfg(tmp_path, {"trials": 4}))
    assert base == again


def test_incompat_scan_small(tmp_path):
    cfg = _cfg(tmp_path, {"t_steps": 2, "grid": 96})
    data = run(tmp_path, "s.json", "incompat-scan", "--config", cfg,
               "--t-min", "0.715", "--t-max", "1.0", "--jobs", "2")
    header, body = data.decode().split("\n", 1)
    doc = json.loads(body)
    assert [r["chi_incomp"] for r in doc["rows"]] == [3, 2]
    assert all(r["chi_comp"] == 3 for r in doc["rows"])
    assert 1 / math.sqrt(2) < doc["t0"]["estimate"] < 1.0


def test_log_env_rejected(tmp_path, monkeypatch):
    monkeypatch.setenv("GPT_LAB_LOG", "chatty")
    with pytest.raises(SystemExit):
        main(["gamma-table", "--n", "5"])


def test_debug_log_leaves_output_unchanged(tmp_path):
    # the joint-LP debug lines go to stderr, never into the output
    cfg = _cfg(tmp_path, {"trials": 4})
    code = "import sys; from gpt_lab.cli import main; sys.exit(main(sys.argv[1:]))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for level in ("error", "debug"):
        env = {**os.environ, "GPT_LAB_LOG": level,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        r = subprocess.run(
            [sys.executable, "-c", code, "mur-properties", "--seed", "3", "--jobs", "1",
             "--config", cfg], env=env, capture_output=True, check=True)
        outs.append(r)
    assert outs[0].stdout == outs[1].stdout
    assert b"joint LP: " not in outs[0].stderr
    assert b"joint LP: " in outs[1].stderr


def test_bad_t_range_rejected():
    with pytest.raises(ValueError):
        RunConfig(command="incompat-scan", t_min=0.5)


@pytest.mark.parametrize(
    "payload, argv, field",
    [
        ({"grid": 0}, ["incompat-scan"], "grid"),
        ({"trials": 0}, ["mur-properties"], "trials"),
        ({"granularity": 0}, ["mixing-sweep"], "granularity"),
        ({}, ["mur-properties", "--eps", "0"], "eps"),
        ({}, ["mur-properties", "--eps", "0.5", "1.5"], "eps"),
        ({"gird": 96}, ["incompat-scan"], "gird"),
        ({"grid": "x"}, ["incompat-scan"], "grid"),
        ({"grid": True}, ["incompat-scan"], "grid"),
        ({"trials": 2.5}, ["mur-properties"], "trials"),
        ({"tol": "1e-3"}, ["incompat-scan"], "tol"),
        ({"eps": 0.5}, ["mur-properties"], "eps"),
        ({"eps": [0.5, "1"]}, ["mur-properties"], "eps"),
        ({"out": 3}, ["gamma-table"], "out"),
        ([8], ["gamma-table"], "JSON object"),
        (None, ["gamma-table"], "missing.json"),
    ],
)
def test_bad_config_rejected(tmp_path, capsys, payload, argv, field):
    # like a bad flag: one usage line and exit code 2, no traceback; a
    # payload of None names a config file that does not exist
    path = str(tmp_path / "missing.json") if payload is None else _cfg(tmp_path, payload)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", path, "--jobs", "1"])
    assert exc.value.code == 2
    assert field in capsys.readouterr().err


BENCH_CONFIG = Path(__file__).resolve().parents[1] / "bench" / "cli_config.json"


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["incompat-scan"],
         "140ab45b0d9c510e8bff8fd5db50c773848634d2ada860c47bb88510f0705198"),
        (["mur-properties", "--seed", "0"],
         "8bd29e2c2c4a038cde5622582a443864286f6669388b645880f9f9870cdb94a5"),
    ],
    ids=["incompat-scan", "mur-properties"],  # stable across re-pins
)
def test_bench_cli_config_output_pinned(tmp_path, argv, digest):
    data = run(tmp_path, "out", *argv, "--config", str(BENCH_CONFIG), "--jobs", "1")
    got = hashlib.sha256(data).hexdigest()
    assert got == digest, (
        f"{argv[0]} output changed ({digest} -> {got}); if the change is "
        "intended, update the pin and record both hashes in CHANGES.md")

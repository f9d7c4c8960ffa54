import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from betalab import cli
from betalab import operators as ops
from betalab.ensembles import load_sample
from betalab.equilibrium import EquilibriumData
from betalab.transport import TransportMap


def run_cli(argv, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_header(payload: dict) -> dict:
    out = dict(payload)
    hdr = dict(out.get("header", {}))
    hdr.pop("created", None)
    out["header"] = hdr
    return out


def test_equilibrium_outputs(tmp_path, capsys):
    code, _, err = run_cli(
        ["equilibrium", "--kind", "gaussian", "-o", str(tmp_path), "--prefix", "gs"], capsys
    )
    assert code == 0, err
    payload = json.loads((tmp_path / "gs.equilibrium.json").read_text())
    assert payload["header"]["tool"].startswith("betalab")
    assert abs(payload["robin_constant"] + 1.0) < 1e-9
    csv_lines = (tmp_path / "gs.density.csv").read_text().strip().splitlines()
    assert csv_lines[0].split(",") == ["x", "density", "cdf"]
    assert len(csv_lines) == 402


def test_equilibrium_idempotent_modulo_timestamp(tmp_path, capsys):
    args = ["equilibrium", "--kind", "even-quartic", "--g", "0.1", "-o", str(tmp_path)]
    assert run_cli(args, capsys)[0] == 0
    first_json = json.loads((tmp_path / "run.equilibrium.json").read_text())
    first_csv = (tmp_path / "run.density.csv").read_bytes()
    assert run_cli(args, capsys)[0] == 0
    second_json = json.loads((tmp_path / "run.equilibrium.json").read_text())
    second_csv = (tmp_path / "run.density.csv").read_bytes()
    assert strip_header(first_json) == strip_header(second_json)
    assert first_csv == second_csv


def test_transport_outputs(tmp_path, capsys):
    code, _, err = run_cli(
        ["transport", "--kind", "even-quartic", "--g", "0.1", "-o", str(tmp_path)], capsys
    )
    assert code == 0, err
    payload = json.loads((tmp_path / "run.transport.json").read_text())
    assert payload["residual_max"] < 1e-7
    assert payload["overlap_max"] < 1e-8
    lines = (tmp_path / "run.residual.csv").read_text().strip().splitlines()
    assert lines[0].split(",") == ["x", "zeta", "zeta_prime", "residual"]


def test_csv_rows_match_pointwise_calls(tmp_path, capsys):
    args = ["--kind", "even-quartic", "--g", "0.3", "-o", str(tmp_path)]
    assert run_cli(["equilibrium", *args], capsys)[0] == 0
    assert run_cli(["transport", *args], capsys)[0] == 0
    eq = EquilibriumData.from_dict(json.loads((tmp_path / "run.equilibrium.json").read_text()))
    tmap = TransportMap.from_dict(json.loads((tmp_path / "run.transport.json").read_text()), eq)

    rows = (tmp_path / "run.density.csv").read_text().strip().splitlines()[1:]
    want = [f"{x:.6f},{eq.density(x):.12e},{eq.cdf(x):.12e}" for x in map(float, np.linspace(-2.0, 2.0, 401))]
    assert rows == want

    rows = (tmp_path / "run.residual.csv").read_text().strip().splitlines()[1:]
    want = []
    for x in map(float, ops.cheb_grid(257).nodes):
        z, zp = tmap.value(x), tmap.derivative(x)
        res = zp * eq.density(z) - float(ops.semicircle_density(x))
        want.append(f"{x:.12e},{z:.12e},{zp:.12e},{res:.3e}")
    assert rows == want


def test_spectrum_outputs(tmp_path, capsys):
    code, _, err = run_cli(
        ["spectrum", "--kind", "even-quartic", "--g", "0.1", "-o", str(tmp_path)], capsys
    )
    assert code == 0, err
    payload = json.loads((tmp_path / "run.spectrum.json").read_text())
    assert payload["contractive"] is True
    assert payload["tail"] < 1e-12
    lines = (tmp_path / "run.spectrum.csv").read_text().strip().splitlines()
    assert lines[0].split(",") == ["k", "eta"]
    top = float(lines[1].split(",")[1])
    assert abs(top - 0.1984524) < 1e-5


def test_sample_roundtrip(tmp_path, capsys):
    code, out, err = run_cli(
        [
            "sample", "--kind", "gaussian", "--n", "16", "--count", "8",
            "--seed", "5", "-o", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0, err
    s = load_sample(tmp_path / "run.samples.bin")
    assert s.n == 16 and s.count == 8 and s.kind == "gaussian-tridiagonal"
    assert f"health: mean_tries {s.diagnostics['mean_tries']:.3f}" in out.splitlines()

    code, out, err = run_cli(
        [
            "sample", "--kind", "even-quartic", "--n", "6", "--count", "16",
            "--seed", "5", "--prefix", "mc", "-o", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0, err
    d = load_sample(tmp_path / "mc.samples.bin").diagnostics
    assert d["sweeps"] > d["burn_in_sweeps"]
    health = (
        f"health: acceptance {d['acceptance_rate']:.3f}, iat {d['iat']:.2f}, "
        f"thin {d['thin']}, flagged {str(d['flagged']).lower()}"
    )
    assert health in out.splitlines()


def test_sampler_kind_conflict(tmp_path, capsys):
    code, _, err = run_cli(
        [
            "sample", "--kind", "even-quartic", "--sampler", "gaussian",
            "--n", "8", "--count", "4", "-o", str(tmp_path),
        ],
        capsys,
    )
    assert code == 2
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "invalid-spec"


def test_config_file_and_env_dir(tmp_path, capsys, monkeypatch):
    cfgdir = tmp_path / "from-env"
    cfgdir.mkdir()
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[potential]\nkind = gaussian\n\n[ensemble]\nn = 12\ncount = 6\nseed = 2\n"
    )
    monkeypatch.setenv("BETALAB_OUT", str(cfgdir))
    code, _, err = run_cli(["sample", "--config", str(cfg)], capsys)
    assert code == 0, err
    s = load_sample(cfgdir / "run.samples.bin")
    assert s.n == 12 and s.count == 6 and s.seed == 2


def test_flag_beats_env(tmp_path, capsys, monkeypatch):
    envdir = tmp_path / "env"
    flagdir = tmp_path / "flag"
    envdir.mkdir()
    flagdir.mkdir()
    monkeypatch.setenv("BETALAB_OUT", str(envdir))
    code, _, _ = run_cli(
        ["sample", "--kind", "gaussian", "--n", "8", "--count", "4", "-o", str(flagdir)],
        capsys,
    )
    assert code == 0
    assert (flagdir / "run.samples.bin").exists()
    assert not (envdir / "run.samples.bin").exists()


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    # the [equilibrium] node counts are retired: the solver's defaults
    # resolve every potential the CLI accepts
    for text, name in [
        ("[ensemble]\nwalkers = 12\n", "walkers"),
        ("[equilibrium]\ncontour-nodes = 512\n", "equilibrium"),
        ("[equilibrium]\ngrid-nodes = 256\n", "equilibrium"),
    ]:
        cfg.write_text(text)
        code, _, err = run_cli(["sample", "--config", str(cfg)], capsys)
        assert code == 2
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "invalid-spec"
        assert name in record["message"]


def test_unknown_config_section_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad2.ini"
    cfg.write_text("[mystery]\nx = 1\n")
    code, _, err = run_cli(["sample", "--config", str(cfg)], capsys)
    assert code == 2


def test_config_text_takes_the_default_type(tmp_path, capsys):
    cfg = tmp_path / "typed.ini"
    cfg.write_text("[potential]\ng = 0.3\n\n[ensemble]\nn = 12\nsampler = mcmc\n")
    loaded = cli._load_config(str(cfg))
    assert loaded["potential"]["g"] == 0.3 and loaded["ensemble"]["n"] == 12
    assert loaded["ensemble"]["sampler"] == "mcmc"
    for sec, keys in cli._load_config(None).items():
        for key, val in keys.items():
            assert type(loaded[sec][key]) is type(val), (sec, key)
    cfg.write_text("[ensemble]\nn = 1.5\n")
    code, _, err = run_cli(["sample", "--config", str(cfg)], capsys)
    assert code == 2
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "invalid-spec"
    assert "[ensemble] n" in record["message"]


def test_invalid_beta_exits_two(tmp_path, capsys):
    code, _, err = run_cli(
        ["sample", "--kind", "gaussian", "--beta", "-1", "--n", "8", "--count", "4",
         "-o", str(tmp_path)],
        capsys,
    )
    assert code == 2
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "invalid-spec"


def test_degenerate_potential_exits_one(tmp_path, capsys):
    code, _, err = run_cli(
        ["equilibrium", "--kind", "even-quartic", "--g", "1.0", "-o", str(tmp_path)], capsys
    )
    assert code == 1
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "not-generic"


def test_clt_small_run(tmp_path, capsys):
    code, _, err = run_cli(
        [
            "clt", "--kind", "gaussian", "--n", "60", "--count", "400",
            "--seed", "3", "-o", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0, err
    payload = json.loads((tmp_path / "run.clt.json").read_text())
    names = {row["name"] for row in payload["reports"]}
    assert names == {"lambda", "lambda2", "cos"}
    for row in payload["reports"]:
        assert abs(row["z_mean"]) < 3.0 and abs(row["z_var"]) < 3.0
    lines = (tmp_path / "run.clt.csv").read_text().strip().splitlines()
    assert len(lines) == 4
    # a second report command with the same prefix keeps the first report
    code, _, err = run_cli(["verify", "--kind", "gaussian", "-o", str(tmp_path)], capsys)
    assert code == 0, err
    assert (tmp_path / "run.verify.json").exists()
    assert json.loads((tmp_path / "run.clt.json").read_text()) == payload


def test_bulk_small_run(tmp_path, capsys):
    code, out, err = run_cli(
        [
            "bulk", "--kind", "even-quartic", "--g", "0.1", "--n", "120",
            "--count", "260", "--seed", "2", "--halfwidth", "0.2", "-o", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0, err
    payload = json.loads((tmp_path / "run.bulk.json").read_text())
    assert payload["passed"] is True
    assert payload["ks_distance"] < payload["noise_floor"] + 0.02
    lines = (tmp_path / "run.gaps.csv").read_text().strip().splitlines()
    assert lines[0].split(",") == ["which", "gap"]
    assert len(lines) > 100


def test_verify_gaussian_passes(tmp_path, capsys):
    code, out, err = run_cli(["verify", "--kind", "gaussian", "-o", str(tmp_path)], capsys)
    assert code == 0, err
    lines = [ln for ln in out.strip().splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) == 10
    assert all(ln.startswith("PASS") for ln in lines)
    payload = json.loads((tmp_path / "run.verify.json").read_text())
    assert payload["passed"] is True


def test_verify_quartic_passes_every_check(tmp_path, capsys):
    # the linearization check uses every kept mode; three alone miss by 1.8e-3
    code, out, err = run_cli(["verify", "--g", "0.5", "-o", str(tmp_path)], capsys)
    assert code == 0, err
    lines = [ln for ln in out.strip().splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) == 10
    assert all(ln.startswith("PASS") for ln in lines), lines
    assert json.loads((tmp_path / "run.verify.json").read_text())["passed"] is True


def test_verify_checks_match_the_benchmark_gate(tmp_path, capsys, monkeypatch):
    # the benchmark gates each verify certificate by its own copy of the
    # tolerance table; the CLI must list exactly those checks, with those
    # tolerances
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    code, _, err = run_cli(["verify", "--g", "0.1", "-o", str(tmp_path)], capsys)
    assert code == 0, err
    checks = json.loads((tmp_path / "run.verify.json").read_text())["checks"]
    assert {c["name"]: c["tolerance"] for c in checks} == workloads.TOLERANCES
    assert len(checks) == 10 and all(c["passed"] for c in checks)


def test_module_entry_point_runs_verify(tmp_path):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "betalab.cli", "verify", "--kind", "gaussian", "-o", str(tmp_path), "--prefix", "mod"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "verify: all checks passed" in proc.stdout
    assert json.loads((tmp_path / "mod.verify.json").read_text())["passed"] is True

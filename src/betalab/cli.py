"""Command-line driver: config parsing, subcommands, artifact persistence.

Subcommands cover the pipeline stages: ``equilibrium``, ``transport``,
``spectrum``, ``sample``, ``clt``, ``bulk``, and ``verify``. Every run is
driven by a flat INI config (sections per module) merged with command-line
overrides; the fully resolved config is recorded in each JSON artifact's
header so outputs are self-describing. CSV outputs carry no timestamps,
and the JSON timestamp lives only in the header block, so reruns are
byte-identical apart from that one field.

Exit codes: 0 success, 1 numerical failure, 2 config/usage error. Failures
write a machine-readable record to standard error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys
import time

import numpy as np

from . import ensembles as ens
from . import operators as ops
from . import universality as uni
from .equilibrium import MASS_TOL, V_RESIDUAL_TOL, solve_equilibrium
from .errors import BetalabError, NumericalError, UsageError
from .potentials import make_potential
from .transport import OVERLAP_TOL, RESIDUAL_TOL, solve_transport

# The config schema: every section and key with its default, whose type
# converts the INI text.
_DEFAULTS = {
    "potential": {"kind": "even-quartic", "g": 0.1, "coeffs": "", "eps": 0.2},
    "operators": {"kernel-nodes": 256},
    "ensemble": {
        "beta": 2.0,
        "n": 200,
        "count": 1000,
        "seed": 0,
        "sampler": "auto",
        "chains": 64,
    },
    "clt": {"h": "lambda,lambda2,cos"},
    "bulk": {"center": 0.0, "halfwidth": 0.1},
    "output": {"dir": ".", "prefix": "run"},
}

# The command-line overrides, in help order: each flag sets the config key
# of its own name, and the key's default type converts the flag's text.
_OVERRIDES = [
    ("prefix", "output", "output file prefix"),
    ("kind", "potential", "potential kind: gaussian | even-quartic | polynomial"),
    ("g", "potential", "quartic coupling"),
    ("eps", "potential", "domain margin beyond the reference interval"),
    ("beta", "ensemble", "inverse-temperature parameter"),
    ("n", "ensemble", "eigenvalues per configuration"),
    ("count", "ensemble", "number of configurations"),
    ("seed", "ensemble", "sampler seed"),
    ("sampler", "ensemble", "auto | gaussian | mcmc"),
    ("center", "bulk", "bulk window center"),
    ("halfwidth", "bulk", "bulk window half-width"),
]


def _load_config(path: str | None) -> dict:
    cfg = {sec: dict(keys) for sec, keys in _DEFAULTS.items()}
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise UsageError("invalid-spec", f"config file not found: {path}")
    for sec in parser.sections():
        if sec not in cfg:
            raise UsageError("invalid-spec", f"unknown config section [{sec}]")
        for key, val in parser.items(sec):
            if key not in cfg[sec]:
                raise UsageError("invalid-spec", f"unknown config key [{sec}] {key}")
            try:
                cfg[sec][key] = type(_DEFAULTS[sec][key])(val)
            except ValueError as exc:
                raise UsageError("invalid-spec", f"bad value for [{sec}] {key}: {val!r}") from exc
    return cfg


def _apply_overrides(cfg: dict, args) -> dict:
    for key, sec, _ in _OVERRIDES:
        val = getattr(args, key, None)
        if val is not None:
            cfg[sec][key] = val
    env_dir = os.environ.get("BETALAB_OUT")
    if env_dir:
        cfg["output"]["dir"] = env_dir
    if getattr(args, "out", None) is not None:
        cfg["output"]["dir"] = args.out
    return cfg


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


def _header(cfg: dict) -> dict:
    return {
        "tool": "betalab",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "config": _jsonable(cfg),
    }


def _out_path(cfg: dict, suffix: str) -> str:
    outdir = cfg["output"]["dir"]
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, f"{cfg['output']['prefix']}{suffix}")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, fieldnames, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        writer.writerows(rows)


def _potential(cfg: dict):
    pc = cfg["potential"]
    kind = pc["kind"]
    if kind == "gaussian":
        return make_potential("gaussian", eps=pc["eps"])
    if kind == "even-quartic":
        return make_potential("even-quartic", eps=pc["eps"], g=pc["g"])
    if kind == "polynomial":
        text = pc["coeffs"].replace(",", " ")
        try:
            coeffs = [float(tok) for tok in text.split()]
        except ValueError as exc:
            raise UsageError("invalid-spec", f"bad coeffs: {pc['coeffs']!r}") from exc
        if not coeffs:
            raise UsageError("invalid-spec", "polynomial kind needs non-empty coeffs")
        return make_potential("polynomial", eps=pc["eps"], coeffs=coeffs)
    raise UsageError(
        "invalid-spec", f"unsupported potential kind for the CLI: {kind!r}"
    )


def _equilibrium(cfg: dict):
    return solve_equilibrium(_potential(cfg))


def _spectrum(cfg: dict, tmap):
    grid = ops.cheb_grid(cfg["operators"]["kernel-nodes"], tmap.eq.interval)
    return ops.eigendecompose(ops.kernel_matrix(tmap, grid), grid)


def _sample(cfg: dict, eq):
    ec = cfg["ensemble"]
    sampler = ec["sampler"]
    if sampler not in ("auto", "gaussian", "mcmc"):
        raise UsageError("invalid-spec", f"unknown sampler {sampler!r}")
    if sampler == "auto":
        sampler = "gaussian" if cfg["potential"]["kind"] == "gaussian" else "mcmc"
    eps = cfg["potential"]["eps"]
    window = (-(2.0 + 0.5 * eps), 2.0 + 0.5 * eps)
    if sampler == "gaussian":
        if cfg["potential"]["kind"] != "gaussian":
            raise UsageError(
                "invalid-spec", "the tridiagonal sampler is exact only for kind=gaussian"
            )
        return ens.sample_gaussian(ec["n"], ec["beta"], ec["count"], seed=ec["seed"], window=window)
    return ens.sample_mcmc(
        eq.potential,
        ec["n"],
        ec["beta"],
        ec["count"],
        seed=ec["seed"],
        eq=eq,
        window=window,
        chains=ec["chains"],
    )


_H_BANK = {
    "lambda": lambda x: x,
    "lambda2": lambda x: x * x,
    "cos": np.cos,
}


def cmd_equilibrium(cfg: dict) -> int:
    eq = _equilibrium(cfg)
    payload = {"header": _header(cfg)}
    payload.update(eq.to_dict())
    _write_json(_out_path(cfg, ".equilibrium.json"), payload)
    xs = np.linspace(-2.0, 2.0, 401)
    _write_csv(
        _out_path(cfg, ".density.csv"),
        ["x", "density", "cdf"],
        [(f"{x:.6f}", f"{d:.12e}", f"{c:.12e}") for x, d, c in zip(xs, eq.density(xs), eq.cdf(xs))],
    )
    print(
        f"equilibrium: margin {eq.genericity_margin:.6f}, robin {eq.robin_constant:.6f}, "
        f"residual {eq.v_residual:.2e}"
    )
    return 0


def cmd_transport(cfg: dict) -> int:
    eq = _equilibrium(cfg)
    tmap = solve_transport(eq)
    payload = {"header": _header(cfg)}
    payload.update(tmap.to_dict())
    _write_json(_out_path(cfg, ".transport.json"), payload)
    xs = ops.cheb_grid(257).nodes
    zs, zps = tmap.value_and_derivative(xs)
    res = zps * eq.density(zs) - ops.semicircle_density(xs)
    rows = [(f"{x:.12e}", f"{z:.12e}", f"{zp:.12e}", f"{r:.3e}") for x, z, zp, r in zip(xs, zs, zps, res)]
    _write_csv(_out_path(cfg, ".residual.csv"), ["x", "zeta", "zeta_prime", "residual"], rows)
    print(f"transport: residual {tmap.residual_max:.2e}, overlap {tmap.overlap_max:.2e}")
    return 0


def cmd_spectrum(cfg: dict) -> int:
    eq = _equilibrium(cfg)
    tmap = solve_transport(eq)
    spec = _spectrum(cfg, tmap)
    cm = ops.contraction_matrices(spec)
    _write_csv(
        _out_path(cfg, ".spectrum.csv"),
        ["k", "eta"],
        [(k, f"{spec.eigenvalues[k]:.15e}") for k in range(spec.stored)],
    )
    payload = {
        "header": _header(cfg),
        "etas": spec.eigenvalues[: spec.stored],
        "truncation": spec.truncation,
        "decay_rate": spec.decay_rate,
        "tail": spec.tail,
        "norm_plus": cm.norm_plus,
        "norm_minus": cm.norm_minus,
        "contractive": cm.contractive,
    }
    _write_json(_out_path(cfg, ".spectrum.json"), payload)
    print(
        f"spectrum: M {spec.truncation}, decay {spec.decay_rate:.3f}, "
        f"norms ({cm.norm_plus:.4f}, {cm.norm_minus:.4f})"
    )
    return 0


def cmd_sample(cfg: dict) -> int:
    eq = _equilibrium(cfg)
    sample = _sample(cfg, eq)
    path = _out_path(cfg, ".samples.bin")
    ens.save_sample(sample, path)
    print(
        f"sample: {sample.count} configs of n={sample.n} at beta={sample.beta} "
        f"({sample.kind}) -> {path}"
    )
    d = sample.diagnostics
    if "mean_tries" in d:
        print(f"health: mean_tries {d['mean_tries']:.3f}")
    else:
        print(
            f"health: acceptance {d['acceptance_rate']:.3f}, iat {d['iat']:.2f}, "
            f"thin {d['thin']}, flagged {str(d['flagged']).lower()}"
        )
    return 0


def cmd_clt(cfg: dict) -> int:
    eq = _equilibrium(cfg)
    sample = _sample(cfg, eq)
    names = [tok.strip() for tok in cfg["clt"]["h"].split(",") if tok.strip()]
    reports = []
    for name in names:
        if name not in _H_BANK:
            raise UsageError(
                "invalid-spec", f"unknown test function {name!r} (have {sorted(_H_BANK)})"
            )
        reports.append(uni.clt_report(sample, _H_BANK[name], eq, name=name))
    payload = {
        "header": _header(cfg),
        "reports": [
            {
                "name": r.name,
                "emp_mean": r.emp_mean,
                "pred_mean": r.pred_mean,
                "z_mean": r.z_mean,
                "emp_var": r.emp_var,
                "pred_var": r.pred_var,
                "z_var": r.z_var,
                "normality_p": r.normality_p,
                "count": r.count,
                "passed": r.passed(),
            }
            for r in reports
        ],
    }
    _write_json(_out_path(cfg, ".clt.json"), payload)
    _write_csv(
        _out_path(cfg, ".clt.csv"),
        ["name", "emp_mean", "pred_mean", "z_mean", "emp_var", "pred_var", "z_var", "normality_p"],
        [
            (
                r.name,
                f"{r.emp_mean:.8e}",
                f"{r.pred_mean:.8e}",
                f"{r.z_mean:.3f}",
                f"{r.emp_var:.8e}",
                f"{r.pred_var:.8e}",
                f"{r.z_var:.3f}",
                f"{r.normality_p:.4f}",
            )
            for r in reports
        ],
    )
    bad = [r.name for r in reports if not r.passed()]
    for r in reports:
        print(
            f"clt[{r.name}]: mean {r.emp_mean:+.4f} vs {r.pred_mean:+.4f} (z {r.z_mean:+.2f}), "
            f"var {r.emp_var:.4f} vs {r.pred_var:.4f} (z {r.z_var:+.2f})"
        )
    if bad:
        raise NumericalError("clt-mismatch", f"fluctuation outside 3 SE for: {', '.join(bad)}")
    return 0


def cmd_bulk(cfg: dict) -> int:
    eq = _equilibrium(cfg)
    sample = _sample(cfg, eq)
    ec = cfg["ensemble"]
    center = cfg["bulk"]["center"]
    halfwidth = cfg["bulk"]["halfwidth"]
    ref_eq = solve_equilibrium(make_potential("gaussian", eps=cfg["potential"]["eps"]))
    ref = ens.sample_gaussian(
        ec["n"], ec["beta"], ec["count"], seed=ec["seed"] + 1, window=sample.window
    )
    dist = uni.universality_distance(sample, eq, center, ref, ref_eq, 0.0, halfwidth)
    gaps_v = uni.unfold_gaps(sample, eq, center, halfwidth)
    gaps_r = uni.unfold_gaps(ref, ref_eq, 0.0, halfwidth)
    rows = [("sample", f"{g:.10e}") for g in gaps_v] + [("reference", f"{g:.10e}") for g in gaps_r]
    _write_csv(_out_path(cfg, ".gaps.csv"), ["which", "gap"], rows)
    payload = {
        "header": _header(cfg),
        "center": center,
        "halfwidth": halfwidth,
        "ks_distance": dist.ks_distance,
        "noise_floor": dist.noise_floor,
        "phi_z": dist.phi_z,
        "gaps_sample": dist.gaps_a,
        "gaps_reference": dist.gaps_b,
        "passed": dist.passed(),
    }
    _write_json(_out_path(cfg, ".bulk.json"), payload)
    print(
        f"bulk: ks {dist.ks_distance:.4f} (floor {dist.noise_floor:.4f}), "
        f"max |phi z| {np.max(np.abs(dist.phi_z)):.2f}, passed {dist.passed()}"
    )
    if not dist.passed():
        raise NumericalError(
            "universality-mismatch",
            f"local statistics differ: ks {dist.ks_distance:.4f} vs floor {dist.noise_floor:.4f}",
        )
    return 0


def cmd_verify(cfg: dict) -> int:
    checks = []

    def check(name, value, tol):
        ok = value < tol
        checks.append((name, float(value), float(tol), ok))
        print(f"{'PASS' if ok else 'FAIL'} {name}: {value:.3e} (tol {tol:.1e})")

    eq = _equilibrium(cfg)
    check("equilibrium-residual", eq.v_residual, V_RESIDUAL_TOL)
    check("equilibrium-mass", abs(eq.mass - 1.0), MASS_TOL)
    tmap = solve_transport(eq)
    check("transport-residual", tmap.residual_max, RESIDUAL_TOL)
    check("transport-overlap", tmap.overlap_max, OVERLAP_TOL)

    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10):
        c = rng.standard_normal(7) / np.arange(1.0, 8.0) ** 2
        worst = max(worst, ops.rank_one_identity_residual(lambda x, c=c: ops.cheb_val(c, x, ops.SIGMA)))
    check("inversion-identity", worst, ops.INVERSION_TOL)

    worst = 0.0
    for _ in range(10):
        deg = int(rng.integers(2, 11))
        pc = rng.standard_normal(deg + 1)
        poly = np.polynomial.Polynomial(pc)
        form = ops.cov_form(poly)
        worst = max(worst, form.rel_discrepancy)
    check("route-agreement", worst, ops.ROUTE_TOL)

    spec = _spectrum(cfg, tmap)
    cm = ops.contraction_matrices(spec)
    check("contraction-norm", max(cm.norm_plus, cm.norm_minus), ops.CONTRACTION_TOL)
    check("deformation-constancy", ops.deformation_residual(eq, tmap).residual, ops.DEFORMATION_TOL)

    beta = cfg["ensemble"]["beta"]
    cfgs = ens.sample_gaussian(8, 2.0, 50, seed=5, window=(-2.05, 2.05)).configs
    hid = uni.hamiltonian_identity_residual(eq, tmap, spec, beta, cfgs)
    check("energy-identity", hid.residual, uni.ENERGY_TOL)
    lin = uni.linearization_check(eq, tmap, spec, beta, lambda c: (c * c).sum(axis=1), n=2)
    check("linearization", lin.rel_discrepancy, uni.DISCREPANCY_TOL)

    payload = {
        "header": _header(cfg),
        "checks": [
            {"name": n, "value": v, "tolerance": t, "passed": ok} for n, v, t, ok in checks
        ],
        "passed": all(ok for *_, ok in checks),
    }
    _write_json(_out_path(cfg, ".verify.json"), payload)
    if not payload["passed"]:
        raise NumericalError(
            "verification-failure",
            "failed: " + ", ".join(n for n, *_, ok in checks if not ok),
        )
    print("verify: all checks passed")
    return 0


_COMMANDS = {
    "equilibrium": cmd_equilibrium,
    "transport": cmd_transport,
    "spectrum": cmd_spectrum,
    "sample": cmd_sample,
    "clt": cmd_clt,
    "bulk": cmd_bulk,
    "verify": cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file (sections per module)")
    common.add_argument("-o", "--out", help="output directory (overrides config and BETALAB_OUT)")
    for key, sec, text in _OVERRIDES:
        common.add_argument(f"--{key}", type=type(_DEFAULTS[sec][key]), help=text)

    parser = argparse.ArgumentParser(
        prog="betalab",
        description="Log-gas ensembles: equilibrium measures, transport maps, "
        "kernel spectra, samplers, and fluctuation reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common], help=f"run the {name} stage")
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _apply_overrides(_load_config(args.config), args)
        if cfg["ensemble"]["beta"] <= 0:
            raise UsageError(
                "invalid-spec", f"beta must be positive, got {cfg['ensemble']['beta']}"
            )
        return _COMMANDS[args.command](cfg)
    except BetalabError as exc:
        json.dump(exc.record(), sys.stderr)
        sys.stderr.write("\n")
        return 2 if isinstance(exc, UsageError) else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

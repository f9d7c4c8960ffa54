"""betalab benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {spectral_sweep,verify,sampling} \\
        --seed N --seconds S --trace {0,1}

Each pass of the workload runs in a fresh single-process interpreter
(``worker.py``) and imports betalab from this checkout's ``src``, so every
pass pays the first-call costs a CLI run pays. Passes repeat until the
next one would end after ``--seconds``; at least two always run.

``--trace 0`` prints the end-to-end metrics as medians over the passes.
A reference interpreter that imports only numpy and scipy is timed before
the first pass and after every pass; ``wall_norm`` is a pass's wall time
divided by the mean of the two reference times around it, which takes the
shared host's drifting speed out of the figure.
``setup_s`` is the median start-up time of the passes' interpreters,
topped up to three samples with interpreters that only import
``betalab.cli``. ``--trace 1`` alternates untraced and traced passes and
prints the per-layer metrics from the traced passes' spans, the tracing
overhead and the import-time breakdown of ``betalab.cli``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (operations of one pass) and ``metrics``. The
full record of the run, spans included, is written to
``perfbench/out/``. The metric table lives in ``spec.py`` and must match
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from spec import END_TO_END, PER_LAYER, STATS, TRACED, WORKLOADS
from tracer import layer_busy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_PASSES = 2
SETUP_SAMPLES = 3
PROBE = "import time, betalab.cli; print(time.monotonic())"
# Fixed third-party start-up, no betalab: -I ignores PYTHONPATH, so no change
# to the program under test can change it. It does the same kind of work as
# betalab's own start-up (loading numpy and scipy), which tracks the host's
# speed closely.
REFERENCE = ["-I", "-c", "import numpy, scipy.linalg, scipy.integrate, scipy.stats"]
RUN_LIMIT_S = 170.0  # every child is stopped before the run reaches this


class BenchError(Exception):
    pass


def check_spec() -> None:
    """BENCHMARK.json must list exactly the metrics this program prints."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, rows in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in bench[key]]
        if listed != rows:
            raise BenchError(f"BENCHMARK.json {key} does not match spec.py")
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        raise BenchError("BENCHMARK.json workloads do not match spec.py")


class Runner:
    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def child(self, argv: list[str]) -> subprocess.CompletedProcess:
        budget = RUN_LIMIT_S - (time.monotonic() - self.started)
        if budget <= 0:
            raise BenchError("run time limit reached")
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=budget
        )
        if proc.returncode != 0:
            raise BenchError(f"{argv[0]} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        return proc

    def setup_sample(self) -> float:
        """Seconds from starting an interpreter until `import betalab.cli` completes."""
        t0 = time.monotonic()
        return float(self.child(["-c", PROBE]).stdout.split()[-1]) - t0

    def reference(self) -> float:
        """Seconds the REFERENCE interpreter takes, start to exit."""
        t0 = time.monotonic()
        self.child(REFERENCE)
        return time.monotonic() - t0

    def one_pass(self, traced: bool, index: int) -> dict:
        a = self.args
        run_id = f"{a.workload}-seed{a.seed}-pass{index}"
        t0 = time.monotonic()
        proc = self.child([str(HERE / "worker.py"), a.workload, str(a.seed), str(int(traced)), run_id, str(OUT)])
        rec = json.loads(proc.stdout.splitlines()[-1])
        rec["setup_s"] = rec.pop("imported_at") - t0
        rec["duration_s"] = time.monotonic() - t0
        return rec

    def passes(self, pattern: tuple[bool, ...]) -> list[dict]:
        """Repeat `pattern` (traced flags), at least MIN_PASSES times, until the
        next pass would overrun --seconds.

        A reference interpreter runs before the first pass and after every
        pass; each pass's `reference_s` is the mean of the two around it.
        """
        start = time.monotonic()
        done: list[dict] = []
        refs = [self.reference()]
        while True:
            done.append(self.one_pass(pattern[len(done) % len(pattern)], len(done)))
            refs.append(self.reference())
            elapsed = time.monotonic() - start
            mean = elapsed / len(done)
            if len(done) >= MIN_PASSES and elapsed + mean > self.args.seconds:
                break
        for rec, before, after in zip(done, refs, refs[1:]):
            rec["reference_s"] = (before + after) / 2
        return done

    def import_breakdown(self) -> dict:
        """The `cli.import_*` metrics from `python -X importtime -c "import betalab.cli"`."""
        entries = []
        for line in self.child(["-X", "importtime", "-c", "import betalab.cli"]).stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].rstrip()
            entries.append((len(name) - len(name.lstrip()), int(parts[1]), name.strip()))
        return {
            "cli.import_s": _family_us(entries, "betalab.cli") / 1e6,
            "cli.import_scipy_stats_s": _family_us(entries, "scipy.stats") / 1e6,
            "cli.import_scipy_integrate_s": _family_us(entries, "scipy.integrate") / 1e6,
        }


def _family_us(entries, package: str) -> int:
    """Cumulative microseconds of `package` and its submodules, each nested import once.

    importtime lists a module after everything it imported, indented one
    level less, so an entry's importer is the next entry with less indent.
    """
    def member(name: str) -> bool:
        return name == package or name.startswith(package + ".")

    total = 0
    for i, (depth, cumulative, name) in enumerate(entries):
        if member(name):
            importer = next((e for e in entries[i + 1 :] if e[0] < depth), None)
            if importer is None or not member(importer[2]):
                total += cumulative
    return total


def _consistent(passes: list[dict]) -> bool:
    """Every pass of one seed must attempt the same operations with the same verdicts."""
    verdicts = [[(name, ok) for name, _, _, ok in p["ops"]] for p in passes]
    return all(v == verdicts[0] for v in verdicts)


def end_to_end(runner: Runner) -> tuple[list[dict], dict]:
    if not (SRC / "betalab" / "__pycache__").is_dir():
        runner.setup_sample()  # compiles the bytecode cache once, untimed
    passes = runner.passes((False,))
    setup = [p["setup_s"] for p in passes]
    while len(setup) < SETUP_SAMPLES:
        setup.append(runner.setup_sample())
    metrics = {
        "wall_norm": median(p["wall_s"] / p["reference_s"] for p in passes),
        "setup_s": median(setup),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
        "pass_share": 1.0 - passes[0]["failed"] / passes[0]["attempted"],
        "cert_digits": median(p["cert_digits"] for p in passes),
    }
    return passes, metrics


def per_layer(runner: Runner) -> tuple[list[dict], dict]:
    imports = runner.import_breakdown()
    passes = runner.passes((False, True))
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    busy = [layer_busy(p["spans"]) for p in traced]
    metrics = {}
    for fn in TRACED:
        metrics[f"{fn}_s"] = median(b.get(fn, (0.0, 0))[0] for b in busy)
    for fn in TRACED:
        metrics[f"{fn}_calls"] = busy[0].get(fn, (0.0, 0))[1]
    for name, _, _ in STATS:
        metrics[name] = traced[0]["stats"][name]
    traced_wall = median(p["wall_s"] for p in traced)
    metrics.update(imports)
    metrics["pass.wall_s"] = median(p["wall_s"] for p in plain)
    metrics["pass.reference_s"] = median(p["reference_s"] for p in passes)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - metrics["pass.wall_s"]
    metrics["trace.coverage"] = median(sum(t for t, _ in b.values()) / p["wall_s"] for b, p in zip(busy, traced))
    if metrics["trace.coverage"] < 0.9:
        print(f"warning: betalab-call spans cover only {metrics['trace.coverage']:.1%} of the traced pass",
              file=sys.stderr)
    return passes, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    # On SIGTERM, unwind: subprocess.run then kills and reaps the running worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        check_spec()
        if not (SRC / "betalab" / "__init__.py").is_file():
            raise BenchError(f"no betalab sources under {SRC}")
        OUT.mkdir(exist_ok=True)
        runner = Runner(args)
        passes, metrics = (per_layer if args.trace else end_to_end)(runner)
        spec = PER_LAYER if args.trace else END_TO_END
        if list(metrics) != [name for name, _, _ in spec]:
            raise BenchError("computed metrics do not match spec.py")
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    environment = {
        **passes[0]["environment"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    units = {name: unit for name, unit, _ in spec}
    result = {
        "correct": _consistent(passes),
        "attempted": passes[0]["attempted"],
        "failed": passes[0]["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {"environment": environment, "result": result, "passes": passes}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    bad = [name for name, _, _, ok in passes[0]["ops"] if not ok]
    if bad:
        print(f"failed operations ({len(bad)} of {passes[0]['attempted']}): {', '.join(bad)}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"passes {len(passes)}; environment {json.dumps(environment)}")
    print(json.dumps(result))
    return 0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "unknown")
    except OSError:
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())

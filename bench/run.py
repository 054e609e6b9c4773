#!/usr/bin/env python3
"""Dispatch-pipeline benchmark.

    python3 bench/run.py --workload tcl100-r2-eval --seed 1 --seconds 30 --trace 0

Runs one workload (see ``bench/README.md``) from the root of a source
checkout, one process per repetition.  It makes at least two repetitions
(one pair when tracing), then keeps starting more while the next one is
expected to end within ``--seconds``.  Prints the inputs, the environment,
every metric by name and unit, the program's outputs and any failed
operation, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each end-to-end
metric is the median over the repetitions.

With ``--trace 0`` the metrics are the ``end_to_end`` ones of
``BENCHMARK.json``.  With ``--trace 1`` every repetition is a pair, one
untraced and one with the layer wrappers installed, and the metrics are the
``per_layer`` ones: medians of the traced repetitions, plus the tracing
overhead (traced minus untraced median) of every end-to-end metric.

Generated inputs, span files and a full result file per run go to
``.bench_out/`` in the checkout.  Exits 2 without a result when the checkout
lacks the program's sources.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
BENCH_DIR = Path(__file__).resolve().parent

#: a run must end within 180 s; no repetition may start after this
DEADLINE_S = 170.0
#: an untraced run makes at least this many repetitions, even past
#: ``--seconds``, so that no end-to-end metric rests on a single repetition;
#: a traced run, whose metrics have no bound, stops after one pair when the
#: next would overrun
MIN_REPS = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: end-to-end time -> the phases it sums; reserve-backed dispatch is a mode of
#: the CLI's `solve`, so its calls count in `solve_s`
E2E_PHASES = {"setup_s": ("setup",), "solve_s": ("solve", "reserve"),
              "evaluate_s": ("evaluate",)}
E2E_NAMES = (*E2E_PHASES, "peak_rss_mb")
FLEET_UNITS = 1000

# workload -> fixture directory, or None for the generated fleet
WORKLOAD_INPUTS = {"fleet1000-r1": None, "tcl100-r2-eval": "synthetic_100tcl"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _missing_sources(workload: str) -> list[str]:
    needed = [ROOT / "src" / "gesdispatch" / "__init__.py", ROOT / "BENCHMARK.json"]
    fixture = WORKLOAD_INPUTS[workload]
    if fixture is None:
        needed.append(ROOT / "scripts" / "generate_fixtures.py")
    else:
        needed.append(ROOT / "fixtures" / fixture / "scenario.yaml")
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _unit_count(directory: Path) -> int:
    with open(directory / "units.csv", newline="") as fh:
        return sum(1 for _ in csv.DictReader(fh))


def _generate_fleet(seed: int) -> Path:
    sys.path.insert(0, str(ROOT / "scripts"))
    import generate_fixtures

    path = Path(tempfile.mkdtemp(prefix=f"fleet1000-seed{seed}-", dir=OUT))
    generate_fixtures.make_100tcl(path, n_units=FLEET_UNITS, seed=seed)
    return path


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment() -> tuple[dict, dict]:
    """The environment record, and the process environment for repetitions
    with every BLAS thread count capped at the number of usable cores."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in THREAD_VARS:
        value = env.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            env[var] = str(nproc)
    record = {
        "nproc": nproc,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "threads": {var: env[var] for var in THREAD_VARS},
    }
    return record, env


def _run_rep(args, inputs: dict, traced: bool, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "rep.py"), "--workload", args.workload,
           "--inputs", inputs["path"], "--units", str(inputs["units"]),
           "--seed", str(args.seed), "--trace", str(int(traced))]
    if traced:
        cmd += ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz")]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("no time left for a repetition")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"repetition exceeded the {DEADLINE_S:.0f} s run limit") from None
    if proc.returncode != 0:
        raise BenchError(f"repetition exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _e2e(rep: dict) -> dict[str, float]:
    out = {name: sum(rep["phases"][p] for p in phases) for name, phases in E2E_PHASES.items()}
    out["peak_rss_mb"] = rep["peak_rss_mb"]
    return out


def _medians(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def _layer_medians(reps: list[dict]) -> dict:
    out = {}
    for name in reps[0]["layers"]:
        values = [r["layers"][name] for r in reps]
        out[name] = None if None in values else statistics.median(values)
    return out


def measure(args, inputs: dict, env: dict) -> dict:
    """Repetitions (pairs when tracing), at least MIN_REPS untraced ones,
    until the next would overrun ``--seconds``."""
    min_reps = 1 if args.trace else MIN_REPS
    deadline = time.monotonic() + DEADLINE_S
    start = time.perf_counter()
    plain, traced = [], []
    while True:
        t0 = time.perf_counter()
        plain.append(_run_rep(args, inputs, False, env, deadline))
        if args.trace:
            traced.append(_run_rep(args, inputs, True, env, deadline))
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if time.monotonic() + last > deadline:
            break
        if len(plain) >= min_reps and elapsed + last > args.seconds:
            break
    return {"plain": plain, "traced": traced, "measured_s": time.perf_counter() - start}


def summarize(args, spec: dict, reps: dict) -> dict:
    plain, traced = reps["plain"], reps["traced"]
    every = plain + traced
    e2e = _medians([_e2e(r) for r in plain])
    if args.trace:
        traced_e2e = _medians([_e2e(r) for r in traced])
        values = _layer_medians(traced)
        values.update({f"overhead.{k}": traced_e2e[k] - e2e[k] for k in e2e})
        missing = sorted({t for r in traced for t in r["missing_targets"]})
        wanted = spec["per_layer"]
    else:
        values, missing, wanted = e2e, [], spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        entry = {"value": value, "unit": m["unit"]}
        if value is None:
            entry["absent"] = "wrap target gone: " + ", ".join(missing)
        metrics[m["name"]] = entry
    failed = sum(r["failed"] for r in every)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in every),
        "failed": failed,
        "metrics": metrics,
        "failures": [f for r in every for f in r["failures"]],
        "outputs": plain[-1]["outputs"],
        "phase_s": _medians([r["phases"] for r in plain]),
        "self_s": _medians([r["self_s"] for r in traced]) if traced else {},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_INPUTS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = _missing_sources(args.workload)
    if missing:
        print(f"not a source checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    environment, env = _environment()

    fixture = WORKLOAD_INPUTS[args.workload]
    inputs = _generate_fleet(args.seed) if fixture is None else ROOT / "fixtures" / fixture
    try:
        input_record = {"path": str(inputs.relative_to(ROOT)), "sha256": _digest(inputs),
                        "units": _unit_count(inputs)}
        reps = measure(args, input_record, env)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if fixture is None:
            shutil.rmtree(inputs, ignore_errors=True)
    result = summarize(args, spec, reps)

    n = len(reps["plain"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {n}  measured {reps['measured_s']:.1f} s")
    print(f"inputs   {input_record['path']}  units {input_record['units']}  "
          f"sha256 {input_record['sha256']}")
    print("env      " + json.dumps(environment))
    for name, m in result["metrics"].items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"metric   {name:42s} {value:>12s} {m['unit']}")
    for phase, value in result["phase_s"].items():
        print(f"phase    {phase:42s} {value:12.6g} s")
    for key, value in sorted(result["self_s"].items(), key=lambda kv: -kv[1]):
        print(f"self     {key:42s} {value:12.6g} s")
    for out in result["outputs"]:
        print("output   " + json.dumps(out))
    for failure in result["failures"]:
        print(f"FAILED   {failure}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "inputs": input_record, "environment": environment,
              "repetitions": reps, **result}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"record   {path.relative_to(ROOT)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run one repetition of a benchmark workload and print one JSON object.

`bench/run.py` starts this script once per repetition, so the peak resident
memory it reports (`ru_maxrss`, a high-water mark) belongs to that
repetition alone.  With ``--trace 1`` the layer wrappers are installed, the
per-layer metrics are added to the output, and the spans are written to
``--spans`` as gzipped JSON rows.

    python3 bench/rep.py --workload tcl100-r2-eval --inputs fixtures/synthetic_100tcl \
        --seed 1 --units 100
"""

from __future__ import annotations

import argparse
import gzip
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--units", required=True, type=int, help="rows of the inputs' units.csv")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import gesdispatch

    if Path(gesdispatch.__file__).resolve().parent != ROOT / "src" / "gesdispatch":
        print(f"gesdispatch imported from {gesdispatch.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    import tracing
    import workloads

    run_workload = workloads.WORKLOADS[args.workload]
    rec = tracing.Recorder()
    ops = workloads.Ops(rec, workloads.load_expected(args.workload))
    if args.trace:
        with tracing.traced(rec) as (present, missing):
            run_workload(ops, args.inputs, args.seed, args.units)
    else:
        run_workload(ops, args.inputs, args.seed, args.units)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        "phases": rec.phase_seconds(),
        "peak_rss_mb": peak_rss_mb,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures,
        "outputs": ops.outputs,
    }
    if args.trace:
        out["layers"] = tracing.layer_metrics(rec, present)
        out["missing_targets"] = missing
        out["self_s"] = rec.self_seconds()
        if args.spans is not None:
            with gzip.open(args.spans, "wt") as fh:
                json.dump(rec.dump(), fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

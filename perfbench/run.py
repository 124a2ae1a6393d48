"""Run one benchmark workload with one seed, in this process.

    python3 perfbench/run.py --workload wide_graph_train --seed 1 --seconds 10 --trace 0

onigraph is imported from ``src/`` of the checkout this file sits in. The
BLAS thread count is pinned before numpy loads. Standard output carries
one JSON line of run metadata and, last, the result object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``. Spans of a traced run and checkpoints go to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
# One BLAS thread on every host: on the 2-vCPU reference host a second
# OpenBLAS thread spun on the other vCPU (31 s of CPU for 18 s of wall
# time at desk size) and made run-to-run timings noisier.
BLAS_THREADS = 1


def _git_revision(root: Path) -> str:
    """HEAD of the checkout read from ``.git`` directly; "unknown" when the
    checkout is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def with_units(result: dict, declared: list[dict]) -> dict:
    """Keep the declared metrics, each as ``{"value", "unit"}``; a declared
    metric the run did not measure, or measured as NaN, fails the run."""
    measured = {k: float(v) for k, v in result["metrics"].items() if math.isfinite(v)}
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
    return {
        "correct": result["correct"] and not missing,
        "attempted": result["attempted"] + 1,
        "failed": result["failed"] + bool(missing),
        "metrics": {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
            for m in declared
            if m["name"] in measured
        },
    }


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--seconds",
        type=float,
        required=True,
        help="length of the measuring window; training is a fixed step budget",
    )
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if sys.flags.optimize:
        print("run without -O: the library's finiteness assert must stay on", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "onigraph" / "__init__.py").is_file():
        print(f"no onigraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read {spec_path}: {exc}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import numpy as np
    import onigraph
    import workloads

    if Path(onigraph.__file__).resolve().parent != ROOT / "src" / "onigraph":
        print(f"imported onigraph from {onigraph.__file__}, not from this checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    result, info = workloads.run_workload(
        workloads.WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        bool(args.trace),
        ROOT / ".perfbench_out",
    )
    result = with_units(result, spec["per_layer" if args.trace else "end_to_end"])
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        git_revision=_git_revision(ROOT),
        python=platform.python_version(),
        numpy=np.__version__,
        blas=f"{blas.get('name', '?')} {blas.get('version', '?')}",
        blas_threads=BLAS_THREADS,
        nproc=len(os.sched_getaffinity(0)),
    )
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

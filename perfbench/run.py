"""Benchmark of the repro package: one workload per run, one JSON line out.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload suite|engine|serve|queue \\
        --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the checkout the script lives in;
nothing is installed or built.  With ``--trace 0`` the result carries the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` the per-layer
ones, from a traced pass.  The last line of standard output is the result
object; the line before it is the environment fingerprint.  Everything the
run writes lives in ``.perfbench-tmp/`` of the checkout and is removed at
the end.  See ``perfbench/README.md`` for the workloads and metrics.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _workloads():
    from engine_workload import EngineWorkload
    from queue_workload import QueueWorkload
    from serve_workload import ServeWorkload
    from suite_workload import SuiteWorkload

    return {w.name: w for w in (SuiteWorkload, EngineWorkload, ServeWorkload, QueueWorkload)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still unwinds: servers stop, workers are reaped and
    # the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"  # queue workers inherit it

    import harness

    workloads = _workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose {sorted(workloads)}", file=sys.stderr)
        return 2
    result = harness.run_workload(workloads[args.workload], args.seed, args.seconds, bool(args.trace))
    wanted = config["per_layer"] if args.trace else config["end_to_end"]
    values = result["metrics"]
    missing = [metric["name"] for metric in wanted if metric["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    result["metrics"] = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in wanted
    }
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps({"fingerprint": harness.fingerprint()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The repository benchmark: one command, four seeded workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload screen --seed 1 --seconds 15 --trace 0

``--workload`` is one of ``screen``, ``clean``, ``serve`` and ``sql`` (see
``BENCHMARK.json`` for why each exists). The program is imported from the
checkout's ``src/`` and sees only the inputs generated from ``--seed``.

Every run sets up its inputs several times (``setup_s`` is the median),
measures for ``--seconds``, then checks that every answer is exact. Human
readable lines come first, including each workload's own metrics
(``counts_pts_per_s``, ``clean_steps_per_min``, ``query_p50_ms``,
``sql_join_p50_ms``, ...); the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones, the same five for
every workload:

=============  ==========================================================
``setup_s``    median set-up time: data generation, registration, warm-up
``peak_rss_mb`` peak RSS of the process doing the work (the server for
               ``serve`` and ``sql``)
``op_p50_ms``  geometric mean over the workload's operation classes of
               each class's median latency: ms per point of a batch for
               ``screen`` ((bank, 4-label) x (counts, certain_label));
               mean ms per step of an episode for ``clean``; read and
               PATCH latency from the due time for ``serve``; select, join,
               group and decline for ``sql``
``op_tail_ms`` the same over each class's highest percentile with at
               least ten samples beyond it (the median on short runs)
``ops_per_s``  points, steps, completed requests or SQL queries per second
=============  ==========================================================

Timings are scaled by the speed probe (``harness.SpeedProbe``) to the
reference core's time, because the shared host's cores switch speed by
~1.4x for seconds at a time; the unscaled figures are printed alongside.

With ``--trace 1`` the run measures half its time untraced and half
traced: benchmark-side spans around every layer call, the server's span
trees from ``/debug/traces`` for ``serve`` and ``sql``, and replays of each
layer's public functions on the same inputs. The metrics are then the
per-layer ones (a layer the workload does not reach reads 0) and the spans
are written to ``.perfbench_traces/``.

Exit codes: 0 success; 2 no program to benchmark (``src/repro`` missing);
3 a wrong answer (no result is printed).
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("screen", "clean", "serve", "sql")


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import ``repro`` from it."""
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        print(f"no program to benchmark: {package} is missing", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if pathlib.Path(repro.__file__).resolve() != package.resolve():
        print(f"imported repro from {repro.__file__}, not from {package}", file=sys.stderr)
        raise SystemExit(2)


def _metrics(spec: dict, measured: dict, key: str, default_missing: bool) -> dict:
    """The JSON ``metrics`` object: every metric ``spec[key]`` names."""
    out = {}
    for metric in spec[key]:
        name = metric["name"]
        if name in measured:
            value = measured[name][0]
        elif default_missing:
            value = 0.0  # this workload does not reach the layer
        else:
            raise RuntimeError(f"workload did not measure end-to-end metric {name!r}")
        if math.isnan(value) and default_missing:
            value = 0.0
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name!r} is not finite: {value}")
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    spec = _load_spec()
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    from harness import ExactnessError, pin_to_one_cpu, write_spans

    pin_to_one_cpu()
    module = __import__({"sql": "sqlload"}.get(args.workload, args.workload))
    try:
        result = module.run(args.seed, args.seconds, bool(args.trace))
    except ExactnessError as exc:
        print(f"EXACTNESS CHECK FAILED ({args.workload}, seed {args.seed}): {exc}",
              file=sys.stderr)
        return 3

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    for line in result.report:
        print(line)
    if args.trace:
        print(f"spans: {write_spans(result.spans, args.workload, args.seed)}")
        print("per-layer:")
        for name, (value, unit) in sorted(result.layers.items()):
            print(f"  {name:<34} {value:>14.4f} {unit}")
        metrics = _metrics(spec, result.layers, "per_layer", default_missing=True)
    else:
        print("end-to-end:")
        for name, (value, unit) in result.end_to_end.items():
            print(f"  {name:<34} {value:>14.4f} {unit}")
        metrics = _metrics(spec, result.end_to_end, "end_to_end", default_missing=False)
    print(json.dumps({
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""betasieve benchmark: one workload, timed, checked, reported.

    python3 perfbench/run.py --workload wide_exact --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  The timed operations run in a
child process (``workloads.py``) that imports only the package under
``src/``; this process measures set-up time, checks every operation's
outputs with ``checks.py`` and prints one JSON object as its last line:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``table_s``, ``setup_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones, read
from spans recorded around betasieve's public functions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("wide_exact", "power_study", "grid_plot")
SETUP_SAMPLES = 5     # fresh processes timed before the workload, and as many after it
WORKER_TIMEOUT_S = 150


def fresh_process_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def setup_samples(count: int) -> list[float]:
    """Wall time of fresh interpreters that import betasieve.cli and exit."""
    samples = []
    for _ in range(count):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import betasieve.cli"], env=fresh_process_env(),
                       cwd=ROOT, check=True)
        samples.append(perf_counter() - start)
    return samples


def tail_percentile(times: list[float]) -> tuple[float, float, int] | None:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it: (p, value, samples beyond)."""
    ordered = sorted(times)
    best = None
    for p in (90.0, 99.0, 99.9):
        beyond = int(len(ordered) * (1.0 - p / 100.0))
        if beyond >= 10:
            best = (p, ordered[len(ordered) - beyond - 1], beyond)
    return best


def check_outputs(workload: str, records: list[dict]) -> tuple[list[str], int, dict]:
    """Check every operation that did not fail: (failures, near-tie verdicts, {"pairs", "max_err"})."""
    import checks

    good = [r for r in records if "error" not in r]
    if workload == "power_study":
        return checks.check_campaigns(good)
    import jsonschema
    sys.path.insert(0, str(SRC))
    from betasieve.report import report_schema

    schema = report_schema()
    validator = jsonschema.validators.validator_for(schema)(schema)
    failures, near_ties, pairs, max_err = [], 0, 0, 0.0
    for position, rec in enumerate(good):
        name = f"op {rec['op']} ({Path(rec['table']).name})"
        try:
            report = json.loads(Path(rec["report"]).read_text(encoding="utf-8"))
            found, near, info = checks.check_report(name, report, rec["table"], rec["exit"], validator,
                                                    full_schema=position == 0)
            if "plot" in rec:
                found += checks.check_plot(name, rec["plot"], report, report["grid_step"])
        except (OSError, ValueError, LookupError, TypeError) as exc:  # malformed output fails the check
            found, near, info = [f"{name}: unreadable output: {exc!r}"], False, {}
        failures += found
        near_ties += near
        pairs += info.get("pairs", 0)
        max_err = max(max_err, info.get("max_err", 0.0))
    return failures, near_ties, {"pairs": pairs, "max_err": max_err}


def print_layers(result: dict) -> None:
    traced, untraced = result["traced_times"], result["times"]
    ops = len(traced)
    op_mean = sum(traced) / ops
    print(f"{'span':<38}{'calls/op':>12}{'total/op s':>13}{'self/op s':>12}{'self share':>11}")
    self_sum = 0.0
    for name, (calls, total, self_time) in sorted(result["layers"].items(), key=lambda kv: -kv[1][2]):
        self_sum += self_time / ops
        print(f"{name:<38}{calls / ops:>12.1f}{total / ops:>13.6f}{self_time / ops:>12.6f}"
              f"{self_time / ops / op_mean:>11.1%}")
    print(f"sum of self times per op {self_sum:.6f} s; traced op mean {op_mean:.6f} s "
          f"(median {statistics.median(traced):.6f} s); untraced op mean {sum(untraced) / len(untraced):.6f} s "
          f"(median {statistics.median(untraced):.6f} s) on the same {ops} inputs; "
          f"tracing overhead {result['metrics']['trace.overhead_pct']:.1f}% of the median")
    for name, value in result["metrics"].items():
        print(f"  {name} = {value:.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "betasieve" / "__init__.py").is_file():
        print(f"error: no betasieve package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    out = HERE / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    setup = []
    if not args.trace:
        setup_samples(1)  # first import writes the bytecode cache; users start from a warm one
        setup += setup_samples(SETUP_SAMPLES)
    config = {"out": str(out), "seed": args.seed, "seconds": args.seconds,
              "workload": args.workload, "trace": args.trace}
    try:
        subprocess.run([sys.executable, str(HERE / "workloads.py"), json.dumps(config)],
                       env=fresh_process_env(), cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: workload process failed: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        setup += setup_samples(SETUP_SAMPLES)

    result = json.loads((out / "worker.json").read_text(encoding="utf-8"))
    with open(out / "ops.jsonl", encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    failures, near_ties, info = check_outputs(args.workload, records)
    for message in failures[:20]:
        print(f"CHECK FAILED: {message}")
    errors = [r for r in records if "error" in r]
    for rec in errors[:5]:
        print(f"OPERATION FAILED: op {rec['op']}: {rec['error']}")
    print(f"{args.workload}: {len(records)} operations, {len(errors)} failed; {info['pairs']} overlaps "
          f"checked against the oracle, largest difference {info['max_err']:.3e}; "
          f"{near_ties} verdicts agree only within the oracle tolerance; {len(failures)} check failures")

    times = result["times"]
    if args.trace:
        print_layers(result)
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in result["metrics"].items()}
    else:
        tail = tail_percentile(times)
        print(f"table_s median {statistics.median(times):.6f} s over {len(times)} operations"
              + (f"; p{tail[0]:g} {tail[1]:.6f} s with {tail[2]} samples beyond it" if tail else ""))
        print(f"setup_s median {statistics.median(setup):.4f} s of {len(setup)} fresh processes: "
              + " ".join(f"{s:.4f}" for s in setup))
        metrics = {
            "table_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] * 1024 / 1e6, "unit": "MB"},
        }
    print(json.dumps({"correct": not failures, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name == "report.bytes":
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

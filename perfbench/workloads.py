"""The timed process: one workload's operations, run for a fixed time.

``run.py`` starts this file as ``python3 perfbench/workloads.py CONFIG``
with the checkout's ``src/`` on ``PYTHONPATH``.  The process imports only
betasieve, numpy and the standard library, so its peak resident set is the
program's and not the checks' oracle (scipy), which runs in ``run.py``
after this process has exited.

An operation is one table (or one campaign) taken from its input to its
outputs.  Inputs are derived from the workload seed and the operation's
input index alone, written before the operation's clock starts, and every
output the checks need is written after it stops.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from betasieve import cli, detection, synth
from betasieve.synth import Arm, CampaignSpec

import tracing

WIDE_ROWS = 100
GRID_ROWS = 100
WARMUP_ROWS = 20
TRIALS_DECADES = (2.0, 5.0)   # log10 of the smallest and largest trial count
BIAS = 0.3                    # how far the one biased row's theta sits from the shared one
CAMPAIGN_ARMS = (Arm(200),) * 4 + (Arm(200, bias_theta=0.9),)
WARMUP_INDEX = 1 << 31        # input index of the untimed warm-up operation


def table_rows(seed: int, index: int, k: int) -> list[tuple[str, int, int]]:
    """A k-row table: one shared theta, one biased row, trial counts over three decades.

    Trial counts are stratified on the log scale (one draw per 1/k of the
    range) and strictly increasing before the rows are shuffled, so no two
    rows share a posterior and every table has the same spread of
    posterior widths, which keeps the cost of one table nearly constant.
    """
    rng = np.random.default_rng([seed, index])
    theta = rng.uniform(0.25, 0.75)
    lo, hi = TRIALS_DECADES
    exponents = lo + (hi - lo) * (np.arange(k) + rng.random(k)) / k
    trials = [int(n) for n in np.round(10.0 ** exponents)]
    for i in range(1, k):
        trials[i] = max(trials[i], trials[i - 1] + 1)
    thetas = np.full(k, theta)
    thetas[rng.integers(k)] = theta + BIAS if theta < 0.5 else theta - BIAS
    events = [int(n) for n in rng.binomial(trials, thetas)]
    order = rng.permutation(k)
    return [(f"r{pos:03d}", events[i], trials[i]) for pos, i in enumerate(order)]


def campaign_spec(seed: int, index: int) -> CampaignSpec:
    """Criterion-5 traffic: four theta = 0.5 arms and one theta = 0.9 arm, n = 200 each."""
    state = np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)
    return CampaignSpec(0.5, CAMPAIGN_ARMS, int(state[0]))


def write_table(rows, path: Path) -> None:
    lines = ["label,events,trials"] + [f"{label},{events},{trials}" for label, events, trials in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TableWorkload:
    """`betasieve detect` in-process, one CSV table per operation."""

    def __init__(self, out: Path, seed: int, rows: int, grid: bool) -> None:
        self.out, self.seed, self.rows, self.grid = out, seed, rows, grid
        for sub in ("tables", "reports", "plots"):
            (out / sub).mkdir(exist_ok=True)

    def prepare(self, op: int, index: int) -> dict:
        table = self.out / "tables" / f"t{index}.csv"
        if not table.exists():
            k = WARMUP_ROWS if index == WARMUP_INDEX else self.rows
            write_table(table_rows(self.seed, index, k), table)
        record = {"op": op, "input": index, "table": str(table),
                  "report": str(self.out / "reports" / f"op{op}.json")}
        args = ["detect", record["table"], "--out", record["report"]]
        if self.grid:
            record["plot"] = str(self.out / "plots" / f"op{op}.csv")
            args += ["--method", "grid", "--plot-data", record["plot"]]
        record["args"] = args
        return record

    @staticmethod
    def run(record: dict) -> None:
        try:
            cli.main(record["args"], prog_name="betasieve")
        except SystemExit as exc:
            record["exit"] = exc.code or 0

    @staticmethod
    def finish(record: dict) -> dict:
        del record["args"]
        if record.get("exit") not in (0, 3):
            record["error"] = f"exit code {record.get('exit')}"
        return record


class CampaignWorkload:
    """`synth.generate`, then `similarity_list` and `detect` on its pairs, one campaign per operation."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self, op: int, index: int) -> dict:
        return {"op": op, "input": index, "spec": campaign_spec(self.seed, index)}

    @staticmethod
    def run(record: dict) -> None:
        obs_set = synth.generate(record["spec"])
        pairs = detection.similarity_list(obs_set)
        record["result"] = (obs_set, pairs, detection.detect(obs_set, pairs=pairs))

    @staticmethod
    def finish(record: dict) -> dict:
        spec = record.pop("spec")
        record["seed"] = spec.seed
        if "error" in record:
            return record
        obs_set, pairs, outcome = record.pop("result")
        record.update(
            labels=list(obs_set.labels),
            events=[o.events for o in obs_set.observations],
            trials=[o.trials for o in obs_set.observations],
            pairs=[[ps.i, ps.j, ps.value] for ps in pairs],
            outliers=[o.label for o in outcome.outliers],
            kept=[o.label for o in outcome.kept],
            fragmented=outcome.fragmented,
            trace=[{"checklist": [[ps.i, ps.j] for ps in rnd.checklist.entries], "removed": rnd.removed}
                   for rnd in outcome.trace],
        )
        return record


def run_phase(workload, log, inputs, seconds=None, tracer=None, root=None) -> list[float]:
    """Run operations on `inputs` (input indices) until `seconds` or the inputs run out.

    Returns the wall time of each operation, failed ones included.  With a
    `tracer`, each operation runs inside a span named `root`.
    """
    run = workload.run if tracer is None else tracer.span(root, workload.run)
    times = []
    deadline = None if seconds is None else perf_counter() + seconds
    for index in inputs:
        record = workload.prepare(log.count, index)
        if tracer is not None:
            tracer.op = record["op"]
        start = perf_counter()
        try:
            run(record)
        except Exception as exc:  # a crashed operation is counted as failed; the run goes on
            record["error"] = f"{type(exc).__name__}: {exc}"
            record.pop("result", None)
        times.append(perf_counter() - start)
        log.write(workload.finish(record))
        if deadline is not None and perf_counter() >= deadline:
            break
    return times


class OpLog:
    """Operation records as JSON lines, for run.py to check once timing is over."""

    def __init__(self, path: Path) -> None:
        self.handle = open(path, "w", encoding="utf-8")
        self.count = 0
        self.failed = 0

    def write(self, record: dict) -> None:
        if "error" in record:
            self.failed += 1
        self.handle.write(json.dumps(record) + "\n")
        self.count += 1


def layer_metrics(table: dict, tracer: tracing.Tracer, ops: int, overhead: float) -> dict[str, float]:
    """Per-operation (or per-pair) figures of each layer from the traced phase's `table`."""

    def self_s(name: str) -> float:
        return table.get(name, (0, 0.0, 0.0))[2]

    exact = tracer.calls("similarity.overlap_exact")
    grid = tracer.calls("similarity.overlap_grid")
    pairs = exact + grid
    overlap = ("similarity.overlap_exact", "similarity.overlap_grid")
    special = sum(row[2] for name, row in table.items() if name.startswith("special_functions."))
    return {
        "cli.detect_s": self_s("cli.detect") / ops,
        "cli.plot_s": self_s("cli.plot") / ops,
        "cli.plot_rows": tracer.count("cli.plot_rows") / ops,
        "formats.read_s": self_s("formats.read") / ops,
        "synth.generate_s": self_s("synth.generate") / ops,
        "detection.similarity_list_s": self_s("detection.similarity_list") / ops,
        "similarity.pairs": pairs / ops,
        "detection.detect_s": self_s("detection.detect") / ops,
        "detection.rounds": tracer.count("detection.rounds") / ops,
        "similarity.overlap_exact_us": 1e6 * self_s("similarity.overlap_exact") / exact if exact else 0.0,
        "similarity.crossings_per_pair": tracer.count("similarity.crossings") / exact if exact else 0.0,
        "similarity.overlap_grid_us": 1e6 * self_s("similarity.overlap_grid") / grid if grid else 0.0,
        "special_functions.log_gamma_calls_per_pair":
            tracer.count("special_functions.log_gamma", overlap) / pairs if pairs else 0.0,
        "special_functions.beta_cdf_calls_per_pair":
            tracer.count("special_functions.beta_cdf", overlap) / pairs if pairs else 0.0,
        "special_functions.self_s": special / ops,
        "report.build_s": self_s("report.build") / ops,
        "report.bytes": tracer.count("report.bytes") / ops,
        "trace.overhead_pct": 100.0 * overhead,
    }


def main(config: dict) -> None:
    out = Path(config["out"])
    seed, seconds, workload_name = config["seed"], config["seconds"], config["workload"]
    if workload_name == "power_study":
        workload = CampaignWorkload(seed)
        root_name, warmup = "bench.campaign", range(WARMUP_INDEX, WARMUP_INDEX + 20)
    else:
        workload = TableWorkload(out, seed, WIDE_ROWS if workload_name == "wide_exact" else GRID_ROWS,
                                 grid=workload_name == "grid_plot")
        root_name, warmup = "cli.detect", [WARMUP_INDEX]

    warmup_log = OpLog(out / "warmup.jsonl")
    run_phase(workload, warmup_log, warmup)
    warmup_log.handle.close()
    log = OpLog(out / "ops.jsonl")
    # Tracing splits the time: untraced operations first, then the same inputs traced.
    untraced_seconds = seconds / 2 if config["trace"] else seconds
    times = run_phase(workload, log, range(10**9), untraced_seconds)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"times": times, "peak_rss_kb": peak_rss_kb}

    if config["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = run_phase(workload, log, range(len(times)), tracer=tracer, root=root_name)
        overhead = statistics.median(traced) / statistics.median(times) - 1.0
        tracer.write(out / "spans.csv")
        layers = tracer.self_times()
        result.update(
            traced_times=traced,
            layers=layers,
            metrics=layer_metrics(layers, tracer, len(traced), overhead),
        )
    log.handle.close()
    result.update(attempted=log.count, failed=log.failed)
    (out / "worker.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))

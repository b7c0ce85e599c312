"""In-memory span tracer wrapped around betasieve's public functions.

Spans are recorded from outside the package: :func:`install` replaces
module attributes at the places where callers look the functions up
(``betasieve.cli.read_observations``, ``betasieve.detection.overlap_exact``,
``betasieve.similarity.beta_cdf``, ...), so nothing under ``src/`` changes.

Three kinds of wrapper:

* a *span* records (name, start, end, parent span, operation) and is kept
  for the span file;
* a *leaf* is a call into ``special_functions`` from another layer; there
  are ~15 per overlap pair, so each one is timed and counted against the
  enclosing span instead of being stored;
* a *counter* only counts calls (or crossings), attributed to the
  innermost open span, for the calls-per-pair ratios.

A span's self time is its duration minus the time covered by its child
spans and leaves.  The workload runs in one thread, so children never
overlap and that covered time is a plain sum.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, OP, CHILD, ID = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.op = -1
        self.leaf_calls: dict[tuple[str, str], int] = defaultdict(int)
        self.leaf_time: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[tuple[str, str], int] = defaultdict(int)

    def span(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            record = [name, 0.0, 0.0, parent[ID] if parent else -1, self.op, 0.0, len(spans)]
            spans.append(record)
            stack.append(record)
            record[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[CHILD] += end - record[START]

        return wrapper

    def leaf(self, name: str, fn):
        stack, calls, times = self.stack, self.leaf_calls, self.leaf_time

        def wrapper(*args):
            start = perf_counter()
            result = fn(*args)
            elapsed = perf_counter() - start
            top = stack[-1]
            top[CHILD] += elapsed
            key = (name, top[NAME])
            calls[key] += 1
            times[key] += elapsed
            return result

        return wrapper

    def counter(self, name: str, fn, size=None):
        stack, counts = self.stack, self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[(name, stack[-1][NAME] if stack else "")] += 1 if size is None else size(result)
            return result

        return wrapper

    def counting_generator(self, name: str, fn):
        stack, counts = self.stack, self.counts

        def wrapper(*args):
            key = (name, stack[-1][NAME])
            for item in fn(*args):
                counts[key] += 1
                yield item

        return wrapper

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds), spans and leaves alike."""
        table: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for record in self.spans:
            duration = record[END] - record[START]
            row = table[record[NAME]]
            row[0] += 1
            row[1] += duration
            row[2] += duration - record[CHILD]
        for (name, _parent), calls in self.leaf_calls.items():
            elapsed = self.leaf_time[(name, _parent)]
            row = table[name]
            row[0] += calls
            row[1] += elapsed
            row[2] += elapsed
        return {name: tuple(row) for name, row in table.items()}

    def count(self, name: str, within: tuple[str, ...] = ()) -> int:
        """Calls or items counted under `name`, optionally only inside spans named `within`."""
        total = 0
        for (counted, parent), n in list(self.counts.items()) + list(self.leaf_calls.items()):
            if counted == name and (not within or parent in within):
                total += n
        return total

    def calls(self, name: str) -> int:
        return sum(1 for record in self.spans if record[NAME] == name)

    def write(self, path) -> None:
        """One row per span: name, start, end (seconds), parent row, operation."""
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["id", "name", "start_s", "end_s", "parent", "op", "child_s"])
            for record in self.spans:
                writer.writerow([record[ID], record[NAME], repr(record[START]), repr(record[END]),
                                 record[PARENT], record[OP], repr(record[CHILD])])


def install(tracer: Tracer) -> None:
    """Wrap betasieve's layer boundaries with `tracer`; irreversible for the process."""
    from betasieve import cli, detection, report, similarity, special_functions, synth

    cli.read_observations = tracer.span("formats.read", cli.read_observations)
    cli.similarity_list = tracer.span("detection.similarity_list", cli.similarity_list)
    detection.similarity_list = tracer.span("detection.similarity_list", detection.similarity_list)
    cli.run_detection = tracer.span(
        "detection.detect", tracer.counter("detection.rounds", cli.run_detection, _rounds))
    detection.detect = tracer.span(
        "detection.detect", tracer.counter("detection.rounds", detection.detect, _rounds))
    cli.build_report = tracer.span("report.build", cli.build_report)
    # the report is ASCII JSON, so its length in characters is its size in bytes
    report.Report.to_json = tracer.span(
        "report.build", tracer.counter("report.bytes", report.Report.to_json, len))
    cli.emit_plot_data = tracer.span("cli.plot", cli.emit_plot_data)
    cli.plot_data_rows = tracer.counting_generator("cli.plot_rows", cli.plot_data_rows)
    synth.generate = tracer.span("synth.generate", synth.generate)
    detection.overlap_exact = tracer.span("similarity.overlap_exact", detection.overlap_exact)
    detection.overlap_grid = tracer.span("similarity.overlap_grid", detection.overlap_grid)
    similarity.crossing_points = tracer.counter("similarity.crossings", similarity.crossing_points, len)

    for name in ("beta_cdf", "log_beta", "log_beta_pdf"):
        setattr(similarity, name, tracer.leaf(f"special_functions.{name}", getattr(similarity, name)))
    cli.log_beta_pdf = tracer.leaf("special_functions.log_beta_pdf", cli.log_beta_pdf)
    special_functions.log_gamma = tracer.counter("special_functions.log_gamma", special_functions.log_gamma)


def _rounds(outcome) -> int:
    return len(outcome.trace)

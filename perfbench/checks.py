"""Correctness checks on a run's outputs, made apart from the program.

The oracle half of this file does not import betasieve.  Exact overlaps
come from scipy's incomplete beta function between density crossings
found here by bisection in logit space; grid overlaps repeat the left
Riemann sum on scipy log-densities; plot densities come from
``scipy.stats.beta.pdf``; verdicts come from a straight-line cascade over
the oracle values.  The property checks read only the program's outputs.

Every function returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import csv
import math
from itertools import combinations

import numpy as np
from scipy import special, stats

#: Largest |program - oracle| accepted for one exact overlap.  The largest
#: difference seen on the benchmark's inputs is about 2e-10, at trial
#: counts near 1e5, where the program's log_beta loses digits to
#: cancellation; the bound leaves a factor of 50 above that.
EXACT_TOL = 1e-8
#: Largest |program - oracle| accepted for one grid overlap (a sum of 999
#: terms); the largest difference seen is about 2e-10, from the same shapes.
GRID_TOL = 1e-8
#: Relative tolerance on one plot-data density.
DENSITY_RTOL = 1e-7
#: Share of power_study campaigns in which the theta = 0.9 arm must be the first removal.
POWER_SHARE = 0.99
#: Similarity entries put through the JSON schema in a report not validated in full.
SCHEMA_SAMPLE = 100
FRAGMENT_FLOOR = 3

_LOGIT_EDGE = 700.0   # |logit t| probed; exp(-700) is the smallest t searched for a crossing


def posterior_shapes(events, trials) -> tuple[np.ndarray, np.ndarray]:
    """Beta(N + 1, n - N + 1) shapes under the uniform prior."""
    events = np.asarray(events, dtype=float)
    trials = np.asarray(trials, dtype=float)
    return events + 1.0, trials - events + 1.0


def exact_overlaps(a1, b1, a2, b2) -> np.ndarray:
    """Overlap of Beta(a1, b1) and Beta(a2, b2), elementwise over arrays of pairs.

    The log-density difference d(t) has at most one turning point, at
    t* = du / (du + dv) when du and dv share a sign, so each side of it
    holds at most one crossing.  Crossings are bisected in u = logit(t),
    and between crossings the smaller density's CDF increment (from
    ``scipy.special.betainc``/``betaincc``) is the shared area.
    """
    a1, b1, a2, b2 = (np.asarray(x, dtype=float) for x in (a1, b1, a2, b2))
    du, dv = a1 - a2, b1 - b2
    dc = special.betaln(a2, b2) - special.betaln(a1, b1)

    def diff_u(u):
        return dc - du * np.logaddexp(0.0, -u) - dv * np.logaddexp(0.0, u)

    with np.errstate(divide="ignore", invalid="ignore"):
        turning = (du * dv > 0.0)
        u_turn = np.where(turning, np.log(np.abs(du)) - np.log(np.abs(dv)), _LOGIT_EDGE)
    u_turn = np.clip(u_turn, -_LOGIT_EDGE, _LOGIT_EDGE)
    left = _bisect(diff_u, np.full_like(du, -_LOGIT_EDGE), u_turn, np.ones_like(turning))
    right = _bisect(diff_u, u_turn, np.full_like(du, _LOGIT_EDGE), turning)

    cuts = np.sort(np.stack([np.zeros_like(du), left, right, np.ones_like(du)], axis=1), axis=1)
    total = np.zeros_like(du)
    for s in range(3):
        lo, hi = cuts[:, s], cuts[:, s + 1]
        live = np.isfinite(hi) & (hi > lo)
        lo, hi = np.where(live, lo, 0.25), np.where(live, hi, 0.75)
        mid = 0.5 * (lo + hi)
        first_smaller = dc + du * np.log(mid) + dv * np.log1p(-mid) < 0.0
        a = np.where(first_smaller, a1, a2)
        b = np.where(first_smaller, b1, b2)
        c_lo = special.betainc(a, b, lo)
        inc = np.where(c_lo < 0.5, special.betainc(a, b, hi) - c_lo,
                       special.betaincc(a, b, lo) - special.betaincc(a, b, hi))
        total += np.where(live, inc, 0.0)
    same = (du == 0.0) & (dv == 0.0)
    return np.where(same, 1.0, np.clip(total, 0.0, 1.0))


def _bisect(f, lo, hi, valid) -> np.ndarray:
    """Sign-change root of f in each [lo, hi] where `valid`, as t = expit(u); NaN where none."""
    f_lo, f_hi = f(lo), f(hi)
    found = valid & (lo < hi) & (np.sign(f_lo) * np.sign(f_hi) < 0.0)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        same_side = np.sign(f_mid) == np.sign(f_lo)
        lo = np.where(same_side, mid, lo)
        f_lo = np.where(same_side, f_mid, f_lo)
        hi = np.where(same_side, hi, mid)
    return np.where(found, special.expit(0.5 * (lo + hi)), np.nan)


def grid_points(step: float) -> np.ndarray:
    """The multiples of `step` strictly inside (0, 1)."""
    points = np.arange(1, math.ceil(1.0 / step) + 1) * step
    return points[points < 1.0]


def grid_overlaps(alpha, beta, step: float) -> np.ndarray:
    """k x k matrix of left Riemann sums of min(p_i, p_j) over the step grid."""
    points = grid_points(step)
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    logpdf = stats.beta.logpdf(points[None, :], alpha[:, None], beta[:, None])
    k = len(alpha)
    out = np.ones((k, k))
    for i in range(k - 1):
        row = np.exp(np.minimum(logpdf[i], logpdf[i + 1:])).sum(axis=1) * step
        out[i, i + 1:] = out[i + 1:, i] = np.clip(row, 0.0, 1.0)
    return out


def midpoint_count(step: float) -> int:
    """How many midpoints (m + 0.5) * step lie inside (0, 1)."""
    count = 0
    while (count + 0.5) * step < 1.0:
        count += 1
    return count


def cascade(value: np.ndarray) -> tuple[list[int], bool, list[float]]:
    """Straight-line screening over a k x k similarity matrix.

    Each round sorts the survivors' pairs, takes the n - 1 smallest, and
    removes the one observation found in every pair valued at or below the
    checklist boundary.  It stops when nobody is found or three remain;
    at three it nominates once more and appends the rest in input order.
    Returns (outlier indices in order, fragmented, each decision's margin:
    the gap between the checklist boundary and the next pair's value).
    """
    members = list(range(len(value)))
    removed: list[int] = []
    margins: list[float] = []
    while True:
        n = len(members)
        ranked = sorted((value[i, j], i, j) for i, j in combinations(members, 2))
        boundary = ranked[n - 2][0]
        margins.append(ranked[n - 1][0] - boundary if len(ranked) > n - 1 else math.inf)
        eligible = [(i, j) for v, i, j in ranked if v <= boundary]
        found = [m for m in members if all(m in pair for pair in eligible)]
        nominee = found[0] if len(found) == 1 else None
        if n == FRAGMENT_FLOOR:
            tail = [m for m in members if m != nominee]
            return removed + ([nominee] if nominee is not None else []) + tail, True, margins
        if nominee is None:
            return removed, False, margins
        removed.append(nominee)
        members.remove(nominee)


def verdict_agrees(value: np.ndarray, outliers: list[int], fragmented: bool, tol: float):
    """Compare a program verdict with the cascade over oracle values.

    Returns (agrees, near_tie).  Where the two first part ways, the
    decision counts as agreeing when its oracle margin is under 2 * tol:
    each value may be off by tol, so such a checklist is a tie within the
    oracle's accuracy.
    """
    expected, expected_fragmented, margins = cascade(value)
    if expected == outliers and expected_fragmented == fragmented:
        return True, False
    split = next((r for r, (a, b) in enumerate(zip(expected, outliers)) if a != b),
                 min(len(expected), len(outliers)))
    near = split < len(margins) and margins[split] < 2.0 * tol
    return near, near


def matrix(k: int, pairs) -> np.ndarray:
    """k x k symmetric matrix from (i, j, value) triples; 1 on the diagonal."""
    out = np.ones((k, k))
    for i, j, v in pairs:
        out[i, j] = out[j, i] = v
    return out


def compare_values(name: str, program: np.ndarray, oracle: np.ndarray, tol: float) -> list[str]:
    err = np.abs(program - oracle)
    worst = int(np.argmax(err)) if err.size else 0
    if err.size and not err[worst] <= tol:
        bad = int(np.sum(~(err <= tol)))
        return [f"{name}: {bad} values off the oracle by more than {tol:g}; worst {err[worst]:.3e} "
                f"at pair {worst} (program {program[worst]!r}, oracle {oracle[worst]!r})"]
    return []


def check_properties(name: str, labels: list[str], kept: list[str], outliers: list[str],
                     fragmented: bool, rounds: list[tuple[list[tuple[int, int]], str | None]]) -> list[str]:
    """Method properties of one verdict, from the program's own outputs."""
    failures = []
    if sorted(kept + outliers) != sorted(labels) or len(set(kept + outliers)) != len(labels):
        failures.append(f"{name}: kept and outliers do not partition the table")
    removals = 0
    for number, (checklist, removed) in enumerate(rounds):
        if removed is None:
            continue
        removals += 1
        index = labels.index(removed)
        if not all(index in pair for pair in checklist):
            failures.append(f"{name}: round {number} removed {removed}, which misses a checklist pair")
    if fragmented != (removals == len(labels) - FRAGMENT_FLOOR):
        failures.append(f"{name}: fragmented={fragmented} but {removals} removals at k={len(labels)}")
    return failures


def read_table(path) -> tuple[list[str], list[int], list[int]]:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    return [r["label"] for r in rows], [int(r["events"]) for r in rows], [int(r["trials"]) for r in rows]


def check_report(name: str, report: dict, table_path, exit_code: int, validator,
                 full_schema: bool = True) -> tuple[list[str], bool, dict]:
    """One `detect` table: schema, values, verdict and properties.

    Returns (failures, whether the verdict agreed only within the
    tolerance, {"pairs", "max_err"}).  Without `full_schema`, only the
    first SCHEMA_SAMPLE similarity entries go through the schema, which
    takes most of a second for a full 100-row report; every entry's
    indices, labels and value are checked below regardless.
    """
    labels, events, trials = read_table(table_path)
    k = len(labels)
    alpha, beta = posterior_shapes(events, trials)
    validated = report if full_schema else dict(report, similarities=report["similarities"][:SCHEMA_SAMPLE])
    failures = [f"{name}: schema: {error.message}" for error in validator.iter_errors(validated)][:3]
    posteriors = report["posteriors"]
    if [p["label"] for p in posteriors] != labels or not (
            np.array_equal([p["alpha"] for p in posteriors], alpha)
            and np.array_equal([p["beta"] for p in posteriors], beta)):
        failures.append(f"{name}: posteriors differ from Beta(N + 1, n - N + 1) of the table")
    sims = report["similarities"]
    expected_pairs = list(combinations(range(k), 2))
    if [(s["i"], s["j"]) for s in sims] != expected_pairs:
        return failures + [f"{name}: similarities are not the {len(expected_pairs)} pairs in (i, j) order"], False, {}
    if any(s["label_i"] != labels[s["i"]] or s["label_j"] != labels[s["j"]] for s in sims):
        failures.append(f"{name}: similarity labels do not match the table's rows")
    program = np.array([s["value"] for s in sims])
    first, second = np.array(expected_pairs).T
    if report["method"] == "grid":
        tol = GRID_TOL
        oracle = grid_overlaps(alpha, beta, report["grid_step"])[first, second]
    else:
        tol = EXACT_TOL
        oracle = exact_overlaps(alpha[first], beta[first], alpha[second], beta[second])
    failures += compare_values(name, program, oracle, tol)

    det = report["detection"]
    index = {label: i for i, label in enumerate(labels)}
    agrees, near = verdict_agrees(matrix(k, zip(first, second, oracle)),
                                  [index.get(lab, -1) for lab in det["outliers"]], det["fragmented"], tol)
    if not agrees:
        failures.append(f"{name}: verdict {det['outliers']} (fragmented={det['fragmented']}) "
                        f"differs from the cascade over oracle values")
    rounds = [([(e["i"], e["j"]) for e in r["checklist"]], r["removed"]) for r in det["trace"]]
    failures += check_properties(name, labels, det["kept"], det["outliers"], det["fragmented"], rounds)
    if (exit_code == 3) != det["fragmented"]:
        failures.append(f"{name}: exit code {exit_code} with fragmented={det['fragmented']}")
    return failures, near, {"pairs": len(program), "max_err": float(np.max(np.abs(program - oracle)))}


def check_plot(name: str, plot_path, report: dict, step: float) -> list[str]:
    """Plot-data rows: one midpoint curve per observation, scipy densities, outlier flags."""
    outliers = set(report["detection"]["outliers"])
    shapes = {p["label"]: (p["alpha"], p["beta"]) for p in report["posteriors"]}
    count = midpoint_count(step)
    with open(plot_path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        if next(reader, None) != ["label", "theta", "density", "is_outlier"]:
            return [f"{name}: plot data lacks its header"]
        rows = list(reader)
    failures = []
    if len(rows) != count * len(shapes):
        failures.append(f"{name}: {len(rows)} plot rows, expected {count} midpoints x {len(shapes)} curves")
    labels = [row[0] for row in rows]
    theta = np.array([float(row[1]) for row in rows])
    density = np.array([float(row[2]) for row in rows])
    midpoints = (np.arange(count) + 0.5) * step
    alpha, beta = np.array(list(shapes.values())).T
    oracle = stats.beta.pdf(midpoints[None, :], alpha[:, None], beta[:, None])
    for pos, label in enumerate(shapes):
        block = slice(pos * count, (pos + 1) * count)
        if labels[block] != [label] * count or not np.allclose(theta[block], midpoints, rtol=0, atol=1e-15):
            failures.append(f"{name}: curve {pos} is not {label} over the {count} midpoints")
            break
        flags = {row[3] for row in rows[block]}
        if flags != {"true" if label in outliers else "false"}:
            failures.append(f"{name}: {label} is flagged {sorted(flags)}")
        if not np.allclose(density[block], oracle[pos], rtol=DENSITY_RTOL, atol=1e-300):
            failures.append(f"{name}: {label} densities differ from scipy.stats.beta.pdf")
    return failures


def check_campaigns(records: list[dict]) -> tuple[list[str], int, dict]:
    """power_study: every campaign's overlaps, verdict and properties, and the detection rate."""
    failures, ordered = [], []
    a1, b1, a2, b2, program = [], [], [], [], []
    for rec in records:
        alpha, beta = posterior_shapes(rec["events"], rec["trials"])
        if [(i, j) for i, j, _ in rec["pairs"]] != list(combinations(range(len(alpha)), 2)):
            failures.append(f"campaign op {rec['op']}: pairs are not in (i, j) order")
            continue
        ordered.append(rec)
        for i, j, v in rec["pairs"]:
            a1.append(alpha[i]); b1.append(beta[i]); a2.append(alpha[j]); b2.append(beta[j]); program.append(v)
    oracle = exact_overlaps(a1, b1, a2, b2)
    program = np.array(program)
    failures += compare_values("power_study", program, oracle, EXACT_TOL)

    near_ties = first_biased = 0
    cursor = 0
    for rec in ordered:
        k = len(rec["labels"])
        n_pairs = k * (k - 1) // 2
        values = oracle[cursor:cursor + n_pairs]
        cursor += n_pairs
        pairs = combinations(range(k), 2)
        index = {label: i for i, label in enumerate(rec["labels"])}
        agrees, near = verdict_agrees(matrix(k, ((i, j, v) for (i, j), v in zip(pairs, values))),
                                      [index.get(lab, -1) for lab in rec["outliers"]], rec["fragmented"],
                                      EXACT_TOL)
        near_ties += near
        if not agrees:
            failures.append(f"campaign op {rec['op']} (seed {rec['seed']}): verdict {rec['outliers']} "
                            f"differs from the cascade over oracle values")
        rounds = [([tuple(p) for p in r["checklist"]], r["removed"]) for r in rec["trace"]]
        failures += check_properties(f"campaign op {rec['op']}", rec["labels"], rec["kept"],
                                     rec["outliers"], rec["fragmented"], rounds)
        first_biased += bool(rec["outliers"]) and rec["outliers"][0] == rec["labels"][-1]
    if records and first_biased < POWER_SHARE * len(records):
        failures.append(f"power_study: the theta = 0.9 arm is the first removal in only "
                        f"{first_biased}/{len(records)} campaigns (needs {POWER_SHARE:.0%})")
    info = {"pairs": len(program), "max_err": float(np.max(np.abs(program - oracle))) if len(program) else 0.0,
            "first_biased": first_biased}
    return failures, near_ties, info

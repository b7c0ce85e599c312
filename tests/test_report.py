"""Report assembly, JSON round-trip, and schema conformance."""
import copy
import json
import re
from pathlib import Path
from statistics import median

import jsonschema
import pytest

from betasieve import __version__
from betasieve.detection import detect, similarity_list
from betasieve.errors import InputFormatError, ValidationError
from betasieve.posterior import Observation
from betasieve.report import (
    POOLING_NOTE,
    Report,
    build_report,
    cohesion_summary,
    pooled_posterior,
    report_schema,
)
from betasieve.similarity import PairSimilarity
from betasieve.special_functions import BetaParams

from helpers import make_set

MIXED = ([15, 11, 7, 29, 100], [30, 20, 15, 60, 200])
PLANTED = ([50, 51, 49, 50, 180], [100, 100, 100, 100, 200])
CONCORDANT = ([50, 49, 51, 50, 48], [100, 100, 100, 100, 100])
FRAGMENTED = ([50, 51, 49, 95], [100, 100, 100, 100])
GOLDEN = Path(__file__).parent / "data" / "reports"

# Every object the report schema defines, by its path in a report (0 for an
# array's first item), and the place an error on it names.
SCHEMA_OBJECTS = {
    (): "report",
    ("observations", 0): "entry 0",
    ("posteriors", 0): "posterior entry 0",
    ("similarities", 0): "similarity entry 0",
    ("cohesion",): "cohesion",
    ("detection",): "detection",
    ("detection", "trace", 0): "round 0",
    ("detection", "trace", 0, "checklist", 0): "round 0 checklist entry 0",
    ("detection", "trace", 0, "checklist_counts"): "round 0 checklist_counts",
    ("pooled",): "pooled",
}
# Every array the report schema defines, by the same paths, and its place.
SCHEMA_ARRAYS = {
    ("observations",): "observations",
    ("posteriors",): "posteriors",
    ("similarities",): "similarities",
    ("detection", "kept"): "detection.kept",
    ("detection", "outliers"): "detection.outliers",
    ("detection", "warnings"): "detection.warnings",
    ("detection", "trace"): "detection.trace",
    ("detection", "trace", 0, "surviving"): "round 0 surviving",
    ("detection", "trace", 0, "checklist"): "round 0 checklist",
    ("warnings",): "warnings",
}


def _schemas(schema, kind, path=()):
    """{path: schema} for every `kind` ("object" or "array") under `schema`, arrays entered at item 0."""
    found = {}
    for option in schema.get("oneOf", [schema]):
        if option.get("type") == kind:
            found[path] = option
        if option.get("type") == "object":
            for name, sub in option.get("properties", {}).items():
                found.update(_schemas(sub, kind, path + (name,)))
        elif option.get("type") == "array":
            found.update(_schemas(option["items"], kind, path + (0,)))
    return found


def _leaves(node, path=()):
    """(path, value) of every scalar in a JSON value."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [leaf for key, child in items for leaf in _leaves(child, path + (key,))]
    return [(path, node)]


def _edits(value):
    """Another value of the leaf's type, then a value of another type."""
    if isinstance(value, bool):
        return [not value, int(value)]
    if isinstance(value, int):
        return [value + 1, str(value)]
    if isinstance(value, float):
        return [value / 2, str(value)]
    if isinstance(value, str):
        return [value + "x", 5]
    return ["x", 0]  # null


def _report(events, trials, method="exact", grid_step=0.001, pooled=False, allow=False):
    s = make_set(events, trials, allow_duplicates=allow)
    sims = similarity_list(s, method=method, grid_step=grid_step)
    outcome = detect(s, method=method, grid_step=grid_step, pairs=sims)
    return build_report(s, outcome, sims, method, grid_step, pooled)


class TestBuildReport:
    def test_basic_fields(self):
        rep = _report(*MIXED)
        assert rep.tool_version == __version__
        assert rep.method == "exact"
        assert rep.grid_step is None  # only recorded for the grid method
        assert [o.label for o in rep.observations] == ["s0", "s1", "s2", "s3", "s4"]
        assert rep.posteriors[0] == BetaParams(16, 16)
        assert rep.posteriors[4] == BetaParams(101, 101)
        assert len(rep.similarities) == 10
        assert rep.pooled is None

    def test_grid_step_recorded_for_grid(self):
        rep = _report(*MIXED, method="grid", grid_step=0.005)
        assert rep.method == "grid"
        assert rep.grid_step == 0.005

    def test_cohesion_matches_similarities(self):
        rep = _report(*MIXED)
        values = [ps.value for ps in rep.similarities]
        assert rep.cohesion.min == min(values)
        assert rep.cohesion.max == max(values)
        assert rep.cohesion.median == pytest.approx(median(values))

    def test_pooled_posterior_requested(self):
        rep = _report(*CONCORDANT, pooled=True, allow=True)
        # all five kept: alpha = 248 + 1, beta = 500 - 248 + 1
        assert rep.pooled is not None
        assert rep.pooled.alpha == 249.0
        assert rep.pooled.beta == 253.0
        assert rep.pooled.note == POOLING_NOTE

    def test_pooled_omitted_when_fragmented(self):
        rep = _report(*FRAGMENTED, pooled=True)  # exact method fragments
        assert rep.outcome.fragmented is True
        assert rep.pooled is None
        assert any("pooled posterior omitted" in w for w in rep.warnings)

    def test_duplicate_warning_reaches_report(self):
        rep = _report(*PLANTED, method="grid", allow=True)
        assert any("duplicate posteriors retained" in w for w in rep.warnings)


class TestSerialization:
    @pytest.mark.parametrize("kwargs", [
        {},
        {"method": "grid", "grid_step": 0.001},
        {"pooled": True},
    ])
    def test_json_round_trip_lossless(self, kwargs):
        rep = _report(*MIXED, **kwargs)
        data = json.loads(rep.to_json())
        assert Report.from_dict(data) == rep

    def test_round_trip_fragmented(self):
        rep = _report(*FRAGMENTED, pooled=True)
        data = json.loads(rep.to_json())
        assert Report.from_dict(data) == rep

    @pytest.mark.parametrize("entry, message", [
        ({"label": "s2", "events": 7}, "entry 2: missing fields: trials"),
        ({"label": "s2", "events": 99, "trials": 15}, "entry 2: events must lie in [0, trials]"),
        ({"label": "s2", "events": 7, "trials": 15, "prior_alpha": -1.0, "prior_beta": 1.0},
         "entry 2: alpha must be a finite positive real"),
        ({"label": "s2", "events": 7, "trials": 15, "extra": 1}, "entry 2: unknown fields: extra"),
    ])
    def test_malformed_observation_cites_entry(self, entry, message):
        data = json.loads(_report(*MIXED).to_json())
        data["observations"][2] = entry
        with pytest.raises(InputFormatError, match="^" + re.escape(message)):
            Report.from_dict(data)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["posteriors"].__setitem__(0, {"label": "s0", "alpha": 99.0, "beta": 2.0}),
         "posterior entry 0 alpha: 99.0 where the evidence gives 16.0"),
        (lambda d: d["posteriors"][1].__setitem__("label", "s4"),
         "posterior entry 1 label: 's4' where the evidence gives 's1'"),
        (lambda d: d["posteriors"].pop(), "posteriors: length 4 where the evidence gives 5"),
        (lambda d: d["posteriors"][3].pop("beta"), "posterior entry 3: missing fields: beta"),
        (lambda d: d["detection"]["kept"].__setitem__(1, "zz"),
         "detection.kept entry 1: 'zz' where the evidence gives 's1'"),
        (lambda d: d["detection"]["outliers"].append("zz"), "detection.outliers: length 1 where the evidence gives 0"),
        (lambda d: d["similarities"][3].pop("value"), "similarity entry 3: missing fields: value"),
        (lambda d: d["similarities"][3].__setitem__("value", 1.5), "similarity entry 3: similarity must lie in [0, 1]"),
        (lambda d: d["detection"]["trace"][0]["checklist"][2].pop("j"),
         "round 0 checklist entry 2: missing fields: j"),
        pytest.param(lambda d: d["cohesion"].pop("max"), "cohesion: missing fields: max", id="cohesion-without-max"),
        pytest.param(lambda d: d["pooled"].__setitem__("extra", 1), "pooled: unknown fields: extra",
                     id="pooled-extra-key"),
        pytest.param(lambda d: d.pop("tool_version"), "report: missing fields: tool_version",
                     id="no-tool-version"),
        pytest.param(lambda d: d["detection"]["trace"][0]["surviving"].__setitem__(2, "zz"),
                     "round 0 surviving entry 2: 'zz' where the evidence gives 's2'", id="round-unknown-survivor"),
        pytest.param(lambda d: d["detection"]["trace"][0].__setitem__("removed", "zz"),
                     "round 0 removed: 'zz' where the evidence gives None", id="round-unknown-removal"),
        pytest.param(lambda d: d["detection"]["trace"][0]["checklist_counts"].__setitem__("zz", 0),
                     "round 0 checklist_counts: unknown fields: zz", id="round-unknown-count"),
        pytest.param(lambda d: d["similarities"].__setitem__(1, dict(d["similarities"][0])),
                     "similarities: pair list of length 10 does not match a set of 5 observations",
                     id="repeated-pair"),
        pytest.param(lambda d: d["similarities"].pop(4),
                     "similarities: pair list of length 9 does not match a set of 5 observations",
                     id="missing-pair"),
        pytest.param(lambda d: d["similarities"][3].__setitem__("label_i", "s2"),
                     "similarity entry 3 label_i: 's2' where the evidence gives 's0'", id="wrong-label-i"),
        pytest.param(lambda d: d["similarities"][9].__setitem__("j", 7),
                     "similarities: pair list of length 10 does not match a set of 5 observations",
                     id="j-out-of-range"),
        pytest.param(lambda d: d["similarities"][0].__setitem__("j", 1.0),
                     "similarity entry 0: 'float' object cannot be interpreted as an integer",
                     id="float-index"),
        pytest.param(lambda d: d["detection"]["kept"].__setitem__(0, ["s0"]),
                     "detection.kept entry 0: ['s0'] where the evidence gives 's0'", id="unhashable-label"),
        pytest.param(lambda d: d.__setitem__("method", "foo"), "method: must be 'exact' or 'grid', got 'foo'",
                     id="unknown-method"),
        pytest.param(lambda d: d.update(method="grid", grid_step=0.5),
                     "grid_step: step must lie in (0, 0.01], got 0.5", id="grid-step-too-large"),
        pytest.param(lambda d: d.update(method="grid", grid_step=-1),
                     "grid_step: step must lie in (0, 0.01], got -1.0", id="grid-step-negative"),
        pytest.param(lambda d: d.update(method="grid", grid_step="0.001"),
                     "grid_step: '0.001' where the evidence gives 0.001", id="grid-step-string"),
        pytest.param(lambda d: d.__setitem__("grid_step", 0.001),
                     "grid_step: 0.001 where the evidence gives None", id="exact-with-grid-step"),
        pytest.param(lambda d: d.__setitem__("tool_version", 5), "tool_version: must be a string, got 5",
                     id="tool-version-not-string"),
        pytest.param(lambda d: d["cohesion"].__setitem__("min", 0.99),
                     "cohesion min: 0.99 where the evidence gives 0.45", id="cohesion-min"),
        pytest.param(lambda d: d["detection"]["trace"][0]["checklist"][0].__setitem__("j", 9),
                     "round 0 checklist entry 0 j: 9 where the evidence gives 4", id="checklist-pair-0-9"),
        pytest.param(lambda d: d["detection"]["kept"].__setitem__(1, "s0"),
                     "detection.kept entry 1: 's0' where the evidence gives 's1'", id="kept-twice"),
        pytest.param(lambda d: d.__setitem__("warnings", [5, None]),
                     "warnings: length 2 where the evidence gives 0", id="warnings-not-strings"),
        pytest.param(lambda d: d["detection"].__setitem__("fragmented", "yes"),
                     "detection.fragmented: 'yes' where the evidence gives False", id="fragmented-string"),
        pytest.param(lambda d: d["detection"].__setitem__("fragmented", 0),
                     "detection.fragmented: 0 where the evidence gives False", id="fragmented-number"),
        pytest.param(lambda d: d["detection"].__setitem__("warnings", [{}]),
                     "detection.warnings: length 1 where the evidence gives 0", id="detection-warning-object"),
        pytest.param(lambda d: d["pooled"].__setitem__("alpha", 99.0),
                     "pooled alpha: 99.0 where the evidence gives 163.0", id="pooled-alpha"),
        pytest.param(lambda d: d["observations"][1].__setitem__("label", "s0"),
                     "observations: labels must be unique within a set; 's0' appears more than once",
                     id="duplicate-label"),
        pytest.param(lambda d: d.update(observations=d["observations"][:3], similarities=d["similarities"][:3]),
                     "observations: need at least 4 observations, got 3", id="too-few-observations"),
    ])
    def test_malformed_report_cites_entry(self, edit, message):
        # the same check as the observation entries above, for the rest of the report
        data = json.loads(_report(*MIXED, pooled=True).to_json())
        edit(data)
        with pytest.raises(InputFormatError, match="^" + re.escape(message)):
            Report.from_dict(data)

    def test_every_leaf_is_checked(self):
        """Each value of a report, changed or retyped, is named, except those no loader can check."""
        report = json.loads((GOLDEN / "mixed_scales.csv.exact.json").read_text(encoding="utf-8"))["report"]
        assert report["pooled"] is not None
        # Without recomputing the overlaps, a similarity outside every checklist
        # that sets no cohesion figure could take any value, and so could the
        # tool version: such a change leaves the report self-consistent.
        checklisted = {(e["i"], e["j"]) for rnd in report["detection"]["trace"] for e in rnd["checklist"]}
        values = sorted(s["value"] for s in report["similarities"])
        cohesion = {values[0], values[(len(values) - 1) // 2], values[len(values) // 2], values[-1]}
        free = {("tool_version",)} | {
            ("similarities", pos, "value") for pos, s in enumerate(report["similarities"])
            if (s["i"], s["j"]) not in checklisted and s["value"] not in cohesion}
        leaves = [(path, value) for path, value in _leaves(report) if path not in free]
        assert len(leaves) == len(_leaves(report)) - 4
        for path, value in leaves:
            for new in _edits(value):
                data = copy.deepcopy(report)
                holder = data
                for key in path[:-1]:
                    holder = holder[key]
                holder[path[-1]] = new
                try:
                    Report.from_dict(data)
                except InputFormatError as exc:
                    assert re.match(r"[a-z_.]+( [a-z_]+| \d+)*: ", str(exc)), (path, new, str(exc))
                else:
                    pytest.fail(f"{path} set to {new!r} loads")

    @pytest.mark.parametrize("path, place", SCHEMA_OBJECTS.items(), ids=[
        "/".join(map(str, path)) or "report" for path in SCHEMA_OBJECTS])
    def test_every_schema_object_is_checked(self, path, place):
        """A required field dropped, an unknown one added, or a list in the object's place."""
        edits = [(lambda obj, key, name=name: obj[key].pop(name), "")
                 for name in _schemas(report_schema(), "object")[path].get("required", [])]
        edits += [(lambda obj, key: obj[key].__setitem__("extra", 1), "unknown fields: extra$"),
                  (lambda obj, key: obj.__setitem__(key, []), "must be an object$")]
        data = _report(*MIXED, pooled=True).to_dict()
        for edit, problem in edits:
            holder = box = [copy.deepcopy(data)]  # the report as item 0, so the root has a holder too
            *parents, last = (0, *path)
            for key in parents:
                holder = holder[key]
            edit(holder, last)
            with pytest.raises(InputFormatError, match=f"^{re.escape(place)}: {problem}"):
                Report.from_dict(box[0])

    def test_schema_objects_are_all_listed(self):
        assert set(_schemas(report_schema(), "object")) == set(SCHEMA_OBJECTS)

    @pytest.mark.parametrize("path, place", SCHEMA_ARRAYS.items(), ids=[
        "/".join(map(str, path)) for path in SCHEMA_ARRAYS])
    def test_every_schema_array_is_checked(self, path, place):
        """A scalar in an array's place is named, not a TypeError from iterating it."""
        data = _report(*MIXED, pooled=True).to_dict()
        *parents, last = path
        holder = data
        for key in parents:
            holder = holder[key]
        holder[last] = 5
        with pytest.raises(InputFormatError, match=f"^{re.escape(place)}: must be an array$"):
            Report.from_dict(data)

    def test_schema_arrays_are_all_listed(self):
        assert set(_schemas(report_schema(), "array")) == set(SCHEMA_ARRAYS)

    def test_dict_carries_labels_in_similarities(self):
        entry = _report(*MIXED).to_dict()["similarities"][0]
        assert entry["label_i"] == "s0" and entry["label_j"] == "s1"
        assert set(entry) == {"i", "j", "label_i", "label_j", "value"}

    def test_detection_block(self):
        det = _report(*PLANTED, method="grid", allow=True).to_dict()["detection"]
        assert det["fragmented"] is False
        assert det["outliers"] == ["s4"]
        assert det["kept"] == ["s0", "s1", "s2", "s3"]
        assert len(det["trace"]) == 2
        assert det["trace"][0]["removed"] == "s4"


class TestSchema:
    def test_schema_loads(self):
        schema = report_schema()
        assert schema["type"] == "object"

    @pytest.mark.parametrize("kwargs", [
        {},
        {"method": "grid", "grid_step": 0.001},
        {"pooled": True},
        {"pooled": True, "allow": True, "method": "grid"},
    ])
    def test_reports_validate(self, kwargs):
        rep = _report(*MIXED, **kwargs)
        jsonschema.validate(rep.to_dict(), report_schema())

    def test_fragmented_report_validates(self):
        rep = _report(*FRAGMENTED)
        jsonschema.validate(rep.to_dict(), report_schema())

    def test_schema_rejects_missing_method(self):
        data = _report(*MIXED).to_dict()
        del data["method"]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(data, report_schema())


class TestHelpers:
    def test_cohesion_summary(self):
        sims = [PairSimilarity(0, 1, 0.2), PairSimilarity(0, 2, 0.8), PairSimilarity(1, 2, 0.5)]
        c = cohesion_summary(sims)
        assert (c.min, c.median, c.max) == (0.2, 0.5, 0.8)

    def test_pooled_posterior_uniform_prior_sum(self):
        pooled = pooled_posterior([Observation("a", 3, 10), Observation("b", 4, 12)])
        assert pooled.alpha == 8.0
        assert pooled.beta == 16.0

    def test_pooled_posterior_empty(self):
        with pytest.raises(ValidationError, match="empty"):
            pooled_posterior([])

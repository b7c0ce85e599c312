"""Report assembly, JSON round-trip, and schema conformance."""
import json
import re
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
        with pytest.raises(InputFormatError, match=re.escape(message)):
            Report.from_dict(data)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["posteriors"].__setitem__(0, {"label": "s0", "alpha": 99.0, "beta": 2.0}),
         "posterior entry 0: 's0' Beta(99.0, 2.0) does not match observation 's0', whose posterior is "
         "BetaParams(alpha=16.0, beta=16.0)"),
        (lambda d: d["posteriors"][1].__setitem__("label", "s4"),
         "posterior entry 1: 's4' Beta(12.0, 10.0) does not match observation 's1'"),
        (lambda d: d["posteriors"].pop(), "4 posterior entries for 5 observations"),
        (lambda d: d["posteriors"][3].pop("beta"), "posterior entry 3: missing fields: beta"),
        (lambda d: d["detection"]["kept"].__setitem__(1, "zz"), "detection.kept entry 1: unknown label 'zz'"),
        (lambda d: d["detection"]["outliers"].append("zz"), "detection.outliers entry 0: unknown label 'zz'"),
        (lambda d: d["similarities"][3].pop("value"), "similarity entry 3: missing fields: value"),
        (lambda d: d["similarities"][3].__setitem__("value", 1.5), "similarity entry 3: similarity must lie in [0, 1]"),
        (lambda d: d["detection"]["trace"][0]["checklist"][2].pop("j"),
         "round 0 checklist entry 2: missing fields: j"),
    ])
    def test_malformed_report_cites_entry(self, edit, message):
        # the same check as the observation entries above, for the rest of the report
        data = json.loads(_report(*MIXED).to_json())
        edit(data)
        with pytest.raises(InputFormatError, match=re.escape(message)):
            Report.from_dict(data)

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

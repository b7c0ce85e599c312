"""Observation table parsing/serialization and campaign loading."""
import json
from pathlib import Path

import pytest

from betasieve.errors import InputFormatError, ValidationError
from betasieve.formats import (
    detect_format,
    parse_observations,
    read_campaign,
    read_observations,
    render_observations,
    write_observations,
)
from betasieve.posterior import Observation, UNIFORM_PRIOR
from betasieve.special_functions import BetaParams

from helpers import make_set

DATA = Path(__file__).parent / "data"

CSV_PLAIN = """label,events,trials
a,15,30
b,11,20
c,7,15
d,29,60
e,100,200
"""

CSV_PRIORS = """label,events,trials,prior_alpha,prior_beta
a,15,30,1.0,1.0
b,11,20,2,3
c,7,15,,
d,29,60,1.0,1.0
"""


class TestDetectFormat:
    def test_explicit_wins(self):
        assert detect_format("table.json", "csv") == "csv"

    def test_extension_inference(self):
        assert detect_format("obs.json") == "json"
        assert detect_format("OBS.JSON") == "json"
        assert detect_format("obs.csv") == "csv"
        assert detect_format("obs.txt") == "csv"

    def test_unknown_explicit(self):
        with pytest.raises(InputFormatError, match="format"):
            detect_format("x.csv", "tsv")


class TestParseCsv:
    def test_plain_three_columns(self):
        s = parse_observations(CSV_PLAIN, "csv")
        assert s.k == 5
        assert s.observations[0] == Observation("a", 15, 30)
        assert s.observations[0].prior == UNIFORM_PRIOR

    def test_prior_columns(self):
        s = parse_observations(CSV_PRIORS, "csv")
        assert s.observations[1].prior == BetaParams(2, 3)
        # empty prior cells fall back to the uniform prior
        assert s.observations[2].prior == UNIFORM_PRIOR

    def test_blank_lines_skipped(self):
        s = parse_observations(CSV_PLAIN.replace("c,7,15\n", "c,7,15\n\n"), "csv")
        assert s.k == 5

    def test_whitespace_tolerated(self):
        s = parse_observations("label,events,trials\na, 15 ,30\nb,11,20\nc,7,15\nd,29,60\n", "csv")
        assert s.observations[0].events == 15

    def test_missing_header(self):
        with pytest.raises(InputFormatError, match="empty input"):
            parse_observations("", "csv")

    def test_wrong_header(self):
        with pytest.raises(InputFormatError, match="line 1: expected header"):
            parse_observations("name,N,n\na,1,2\n", "csv")

    def test_wrong_field_count_cites_line(self):
        text = "label,events,trials\na,15,30\nb,11\nc,7,15\nd,29,60\n"
        with pytest.raises(InputFormatError, match="line 3: expected 3 fields"):
            parse_observations(text, "csv")

    def test_non_integer_cites_line_and_field(self):
        text = CSV_PLAIN.replace("b,11,20", "b,eleven,20")
        with pytest.raises(InputFormatError, match="line 3: events must be an integer"):
            parse_observations(text, "csv")

    def test_events_above_trials_cites_line(self):
        text = CSV_PLAIN.replace("b,11,20", "b,25,20")
        with pytest.raises(InputFormatError, match="line 3"):
            parse_observations(text, "csv")

    def test_prior_must_come_in_pairs(self):
        text = "label,events,trials,prior_alpha,prior_beta\na,1,2,2.0,\nb,1,3,,\nc,2,3,,\nd,2,4,,\n"
        with pytest.raises(InputFormatError, match="line 2: prior_alpha and prior_beta"):
            parse_observations(text, "csv")

    def test_bad_prior_value_cites_line(self):
        text = "label,events,trials,prior_alpha,prior_beta\na,1,2,0.0,1.0\nb,1,3,,\nc,2,3,,\nd,2,4,,\n"
        with pytest.raises(InputFormatError, match="line 2"):
            parse_observations(text, "csv")


class TestParseJson:
    def test_plain(self):
        s = parse_observations(json.dumps([
            {"label": "a", "events": 15, "trials": 30},
            {"label": "b", "events": 11, "trials": 20},
            {"label": "c", "events": 7, "trials": 15},
            {"label": "d", "events": 29, "trials": 60},
        ]), "json")
        assert s.k == 4

    def test_prior_fields(self):
        s = parse_observations(json.dumps([
            {"label": "a", "events": 15, "trials": 30, "prior_alpha": 2, "prior_beta": 3},
            {"label": "b", "events": 11, "trials": 20},
            {"label": "c", "events": 7, "trials": 15},
            {"label": "d", "events": 29, "trials": 60},
        ]), "json")
        assert s.observations[0].prior == BetaParams(2, 3)

    def test_not_json(self):
        with pytest.raises(InputFormatError, match="not valid JSON"):
            parse_observations("label,events\n", "json")

    def test_not_an_array(self):
        with pytest.raises(InputFormatError, match="expected a JSON array"):
            parse_observations("{}", "json")

    def test_entry_not_object(self):
        with pytest.raises(InputFormatError, match="entry 1: must be an object"):
            parse_observations('[{"label":"a","events":1,"trials":2}, 5]', "json")

    def test_unknown_field_cites_entry(self):
        rows = [{"label": "a", "events": 1, "trials": 2, "weight": 3}]
        with pytest.raises(InputFormatError, match="entry 0: unknown fields: weight"):
            parse_observations(json.dumps(rows), "json")

    def test_missing_field_cites_entry(self):
        rows = [{"label": "a", "events": 1}]
        with pytest.raises(InputFormatError, match="entry 0: missing fields"):
            parse_observations(json.dumps(rows), "json")

    def test_prior_xor_rejected(self):
        rows = [{"label": "a", "events": 1, "trials": 2, "prior_alpha": 2.0}]
        with pytest.raises(InputFormatError, match="entry 0: prior_alpha and prior_beta"):
            parse_observations(json.dumps(rows), "json")

    def test_float_counts_rejected(self):
        rows = [{"label": "a", "events": 1.0, "trials": 2}]
        with pytest.raises(InputFormatError, match="entry 0"):
            parse_observations(json.dumps(rows), "json")


class TestRoundTrip:
    def _sample_set(self):
        return make_set([15, 11, 7, 29], [30, 20, 15, 60])

    def _prior_set(self):
        obs = [
            Observation("a", 15, 30),
            Observation("b", 11, 20, prior=BetaParams(2.5, 3.0)),
            Observation("c", 7, 15, prior=BetaParams(0.1 + 0.2, 1e-300)),
            Observation("d", 29, 60),
        ]
        return make_set([15, 11, 7, 29], [30, 20, 15, 60]), obs

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_parse_render_identity(self, fmt):
        s = self._sample_set()
        assert parse_observations(render_observations(s, fmt), fmt) == s

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_prior_survives_round_trip(self, fmt):
        from betasieve.posterior import validate_set
        _, obs = self._prior_set()
        s = validate_set(obs)
        assert parse_observations(render_observations(s, fmt), fmt) == s

    @pytest.mark.parametrize("name,fmt", [("obs.csv", "csv"), ("obs.json", "json")])
    def test_file_round_trip(self, tmp_path, name, fmt):
        s = self._sample_set()
        path = tmp_path / name
        write_observations(s, path)
        assert read_observations(path) == s

    def test_duplicates_flag_passes_through(self):
        text = render_observations(
            make_set([5, 5, 3, 4], [10, 10, 9, 8], allow_duplicates=True), "csv")
        with pytest.raises(ValidationError):
            parse_observations(text, "csv")
        s = parse_observations(text, "csv", allow_duplicates=True)
        assert len(s.warnings) == 1

    def test_fixture_files_agree(self):
        csv_set = read_observations(DATA / "mixed_scales.csv")
        json_set = read_observations(DATA / "mixed_scales.json")
        assert csv_set == json_set


class TestReadCampaign:
    def test_fixture(self):
        spec = read_campaign(DATA / "campaign_biased.json")
        assert spec.seed == 42
        assert len(spec.arms) == 5
        assert spec.arms[4].bias_theta == 0.9

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(InputFormatError, match="not valid JSON"):
            read_campaign(path)

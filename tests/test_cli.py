"""Command-line surface: exit codes, JSON payloads, determinism."""

import hashlib
import json

import pytest

from onevar.cli import main

BOT_MODEL = {
    "factors": [{"worlds": 1, "edges": [[0, 0]]},
                {"worlds": 1, "edges": [[0, 0]]}],
    "valuation": {},
    "point": [0, 0],
}

CHAIN_MODEL = {
    "factors": [{"worlds": 2, "edges": [[0, 0], [0, 1], [1, 1]]},
                {"worlds": 1, "edges": [[0, 0]]}],
    "valuation": {"p1": [[0, 0]]},
    "point": [0, 0],
}

# a second factor of three worlds, so a world's column is not its first
# coordinate and a wrong stride moves points
GRID_MODEL = {
    "factors": [{"worlds": 2, "edges": [[0, 0], [0, 1], [1, 1]]},
                {"worlds": 3, "edges": [[0, 0], [0, 1], [1, 1], [1, 2],
                                        [2, 2]]}],
    "valuation": {"p1": [[0, 0], [0, 1], [1, 2]], "p2": [[1, 1], [0, 2]]},
    "point": [0, 1],
}


@pytest.fixture
def model_file(tmp_path):
    def write(doc, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTranslate:
    def test_bottom(self, capsys):
        code, out, err = run(capsys, "translate", "F", "--expand")
        assert code == 0
        doc = json.loads(out)
        assert doc["reduction"].endswith("-> F")
        assert doc["metrics"]["reduction"]["dag_size"] > 1

    def test_metrics_block(self, capsys):
        code, out, _ = run(capsys, "translate", "p1")
        doc = json.loads(out)
        metrics = doc["metrics"]["reduction"]
        assert set(metrics) == {"tree_size", "dag_size", "modal_depth"}
        assert doc["reduction_dag"][-1]["kind"] == "imp"

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "translate", "p1 ->")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("extra", [(), ("--expand",)],
                             ids=["shared", "expanded"])
    def test_many_variables(self, capsys, extra):
        # p300 puts 301 nested ladder probes into the reduction
        code, out, _ = run(capsys, "translate", "p300", *extra)
        assert code == 0
        assert json.loads(out)["reduction_dag"][-1]["kind"] == "imp"

    @pytest.mark.parametrize("text", ["~" * 1500 + "p1",
                                      "(" * 1500 + "p1" + ")" * 1500],
                             ids=["negations", "parentheses"])
    def test_deep_nesting_exits_2(self, capsys, text):
        code, _, err = run(capsys, "translate", text)
        assert code == 2
        assert "nested too deeply" in err

    def test_shared_form_is_default(self, capsys):
        code, out, _ = run(capsys, "translate", "p1")
        doc = json.loads(out)
        assert "reduction" not in doc
        assert "reduction_dag" in doc


class TestCheck:
    def test_false_verdict_exits_1(self, capsys, model_file):
        code, out, _ = run(capsys, "check", model_file(BOT_MODEL), "F")
        assert code == 1
        assert json.loads(out)["verdict"] is False

    def test_tautology_exits_0(self, capsys, model_file):
        code, out, _ = run(capsys, "check", model_file(BOT_MODEL),
                           "p1 | ~p1")
        assert code == 0
        assert json.loads(out)["verdict"] is True

    def test_sat_set_matches_flagged_output(self, capsys, model_file):
        code, out, _ = run(capsys, "check", model_file(CHAIN_MODEL), "p1",
                           "--sat-set")
        doc = json.loads(out)
        assert doc["sat_set"] == [[0, 0]]

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = run(capsys, "check", str(path), "F")
        assert code == 2

    @pytest.mark.parametrize("change", [
        {"valuation": {"p1": [5]}},
        {"valuation": {"p1": 5}},
        {"valuation": []},
        {"point": 5},
        {"point": ["x", 0]},
        {"factors": [{"worlds": 1, "edges": [[0, 0]], "labels": [1]},
                     {"worlds": 1, "edges": [[0, 0]]}]},
        {"factors": [{"worlds": 1, "edges": [[0, 0]], "labels": {"a": "x"}},
                     {"worlds": 1, "edges": [[0, 0]]}]},
        # names that alias a variable: "p01" would read as p1
        {"valuation": {"p1": [], "p01": [[0, 0]]}},
        {"valuation": {"p\u0661": [[0, 0]]}},
        # numbers that are not integers, once truncated by int()
        {"factors": [{"worlds": 1.9, "edges": [[0, 0]]},
                     {"worlds": 1, "edges": [[0, 0]]}]},
        {"factors": [{"worlds": 1, "edges": [[0, 0.5]]},
                     {"worlds": 1, "edges": [[0, 0]]}]},
        {"factors": [{"worlds": 2, "edges": [[0, 0], [1, 1]],
                      "labels": {"a": True}},
                     {"worlds": 1, "edges": [[0, 0]]}]},
        {"valuation": {"p1": [[0.5, 0]]}},
        {"point": [0, 0.0]},
        {"point": [False, 0]},
    ], ids=["coordinate-not-list", "coordinates-not-list", "valuation-list",
            "point-int", "point-text", "labels-list", "label-text",
            "name-leading-zero", "name-non-ascii-digit", "worlds-float",
            "edge-float", "label-bool", "coordinate-float", "point-float",
            "point-bool"])
    def test_malformed_model_exits_2(self, capsys, model_file, change):
        code, out, err = run(capsys, "check",
                             model_file({**BOT_MODEL, **change}), "F")
        assert code == 2
        assert out == "" and err.startswith("error: ")


class TestSearch:
    def test_found_exits_1(self, capsys):
        code, out, _ = run(capsys, "search", "p1 -> [1]p1",
                           "--max-worlds", "2")
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "found"
        assert doc["model"]["factors"][0]["worlds"] == 2

    def test_none_within_bounds_exits_0(self, capsys):
        code, out, _ = run(capsys, "search", "[1]p1 -> p1",
                           "--max-worlds", "2")
        assert code == 0
        assert json.loads(out)["status"] == "none-within-bounds"

    def test_zero_budget_exits_2(self, capsys):
        code, _, err = run(capsys, "search", "p1", "--max-worlds", "0")
        assert code == 2

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_nonpositive_valuation_budget_exits_2(self, capsys, value):
        code, _, err = run(capsys, "search", "p1", "--max-valuations", value)
        assert code == 2
        assert "--max-valuations" in err

    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_bad_time_limit_exits_2(self, capsys, value):
        code, _, err = run(capsys, "search", "p1", "--time-limit", value)
        assert code == 2
        assert "--time-limit" in err

    def test_checker_disagreement_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr("onevar.search.check_naive", lambda *args: True)
        code, _, err = run(capsys, "search", "p1 -> [1]p1",
                           "--max-worlds", "2")
        assert code == 3
        assert "disagree" in err

    def test_deterministic_given_seed(self, capsys):
        runs = []
        for _ in range(2):
            _, out, _ = run(capsys, "search", "p1 -> [2]p1",
                            "--max-worlds", "2", "--seed", "5")
            runs.append(out)
        assert runs[0] == runs[1]


class TestTransferExtract:
    def test_transfer_fixture_exits_0(self, capsys, model_file, tmp_path):
        out_path = tmp_path / "transfer.json"
        code, out, err = run(capsys, "transfer", model_file(CHAIN_MODEL),
                             "p1 -> [1]p1", "--out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["checks"]["refutes-reduction"] is True
        assert doc["report"]["marker_exactness"]["passed"] is True

    def test_round_trip_through_files(self, capsys, model_file, tmp_path):
        transfer_out = tmp_path / "transferred.json"
        code, _, _ = run(capsys, "transfer", model_file(CHAIN_MODEL),
                         "p1 -> [1]p1", "--out", str(transfer_out))
        assert code == 0
        counter = json.loads(transfer_out.read_text())["model"]
        counter_path = model_file(counter, "counter.json")
        code, out, _ = run(capsys, "extract", counter_path, "p1 -> [1]p1")
        assert code == 0
        doc = json.loads(out)
        assert doc["checks"]["refutes-source"] is True
        assert doc["report"]["kept_points_marked"]["passed"] is True

    def test_grid_round_trip_pinned(self, capsys, model_file):
        # stdout of both surgeries with their reports, pinned; with three
        # columns a stride error in either surgery changes it
        formula = "p1 -> [2]p1 | [1]p2"
        code, out, _ = run(capsys, "transfer", model_file(GRID_MODEL),
                           formula)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "d4606cb24b9780a7d3ce8962ec62e9640611f74bc1cde487cb918c4424979324")
        counter_path = model_file(json.loads(out)["model"], "counter.json")
        code, out, _ = run(capsys, "extract", counter_path, formula)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "46fc7bc2c2a9ec25192fa9a529d91f088812c58a5d325b99009cc9d949fa26a5")
        # extraction gives back the source valuation
        assert json.loads(out)["model"]["valuation"] == {
            "p1": [[0, 0], [0, 1], [1, 2]], "p2": [[0, 2], [1, 1]]}

    def test_non_countermodel_exits_2(self, capsys, model_file):
        code, _, err = run(capsys, "transfer", model_file(BOT_MODEL),
                           "p1 | ~p1")
        assert code == 2

    def test_miscalibrated_variant_exits_3(self, capsys, model_file):
        code, _, err = run(capsys, "transfer", model_file(BOT_MODEL), "p1",
                           "--variant", "plain")
        assert code == 3
        assert "internal check failure" in err

    def test_guardless_model_extract_exits_2(self, capsys, model_file):
        code, _, _ = run(capsys, "extract", model_file(BOT_MODEL), "p1")
        assert code == 2


class TestCalibrate:
    def test_writes_report(self, capsys, tmp_path):
        out_path = tmp_path / "calibration.json"
        code, _, err = run(capsys, "calibrate", "--classes", "T,T",
                           "--max-worlds", "2", "--out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["selected"] == "composite+rung0+shield"
        assert "selected composite+rung0+shield" in err


class TestSuite:
    def test_small_corpus(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("# comment\nF\np1 -> [2]p1\n[1]p1 -> p1\n")
        code, out, _ = run(capsys, "suite", "--corpus", str(corpus),
                           "--max-worlds", "2", "--reduction-worlds", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert len(doc["rows"]) == 3


class TestBench:
    def test_csv_shape(self, capsys, tmp_path):
        out_path = tmp_path / "bench.csv"
        code, _, _ = run(capsys, "bench", "--max-depth", "3",
                         "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0].startswith("depth,")
        assert len(lines) == 4

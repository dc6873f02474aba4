"""Command-line smoke tests: thin-wrapper behavior and exit codes only."""

from __future__ import annotations

import csv
import gc
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pri.cli import build_parser, main
from pri.config import parse_config, read_lines
from pri.corpus import (
    Advert,
    CategorySet,
    Interaction,
    ResultPage,
    SessionTrace,
    parse_capture,
    parse_corpus,
    save_capture,
)
from pri.detector import (
    DetectorConfig,
    TopicBaseline,
    parse_baselines,
    save_baselines,
)
from pri.errors import PriError, ValidationError
from pri.estimator import PriModel, parse_model, save_model
from pri.probes import parse_ambiguity_csv
from pri.reports import read_bundle_bytes, write_bundle
from pri.runner import CampaignConfig
from pri.scripts import parse_script
from pri.simulator import parse_prior_knowledge

# 100,000 nested arrays: past the JSON decoder's recursion limit.
_DEEP_RECORD = "[" * 100_000

# More digits than int() converts (4,300 from Python 3.10.7 on).
_LONG_INT = "9" * 5000

TOY_CORPUS = str(resources.files("pri") / "data" / "examples" / "toy_corpus.txt")
SRC = Path(__file__).parent.parent / "src"

# The seed-11 mini campaign's report tables, as tests/test_reports.py pins them.
PINNED = Path(__file__).parent / "data" / "mini_campaign_seed11"


@pytest.fixture(scope="module")
def cli_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "bundle"
    assert main(["campaign", "--seed", "41", "--out", str(out),
                 "--train", "1", "--test", "1"]) == 0
    return out


@pytest.fixture(scope="module")
def toy_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "model.txt"
    assert main(["train", "--corpus", TOY_CORPUS, "--out", str(path)]) == 0
    return path


class TestTrain:
    def test_model_file_holds_exact_rationals(self, toy_model):
        text = toy_model.read_text()
        assert text.startswith("#pri-model v1\n")
        assert "5/12" in text
        model = parse_model(text.splitlines())
        assert model.categories.sensitive == ("prostate",)

    def test_missing_corpus_names_the_path(self, tmp_path, capsys):
        code = main(["train", "--corpus", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "m.txt")])
        assert code == 1
        assert "nope.txt" in capsys.readouterr().err

    def test_empty_corpus_is_a_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing here\n")
        code = main(["train", "--corpus", str(empty),
                     "--out", str(tmp_path / "m.txt")])
        assert code == 2
        assert "empty corpus" in capsys.readouterr().err

    @pytest.mark.parametrize("label, flags", [
        ("pay,day", []),
        ("pay=day", []),
        ("x,y", ["--catchall", "x,y"]),
    ])
    def test_label_the_model_file_cannot_hold_is_a_data_error(
            self, tmp_path, capsys, label, flags):
        # The model file joins labels with ',' and '='; such a label would
        # train a model that `pri score` then rejects.
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(f"{label}\tCheap payday loans fast\n"
                          "payday\tHoliday packages cinema\n", encoding="utf-8")
        out = tmp_path / "m.txt"
        code = main(["train", "--corpus", str(corpus), "--out", str(out),
                     *flags])
        assert code == 2
        assert f"category label {label!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("payday quick loans, no checks", "missing tab separator"),
        ("\tquick loans, no checks", "unknown label ''"),
    ])
    def test_line_naming_no_label_is_reported_by_line(
            self, tmp_path, capsys, line, message):
        # Labels inferred from the corpus skip such a line, so it is a
        # line error rather than a bad label.
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("payday\tCheap payday loans fast\n"
                          "other\tHoliday packages cinema\n"
                          f"{line}\n", encoding="utf-8")
        out = tmp_path / "m.txt"
        code = main(["train", "--corpus", str(corpus), "--out", str(out)])
        assert code == 2
        assert f"corpus line 3: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, flags, message", [
        ("payday\t  ", [], "corpus line 3: empty advert text"),
        ("gambling\tBet now", ["--categories", "payday"],
         "corpus line 3: unknown label 'gambling'"),
    ])
    def test_bad_corpus_line_is_reported_by_line(
            self, tmp_path, capsys, line, flags, message):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("payday\tCheap payday loans fast\n"
                          "other\tHoliday packages cinema\n"
                          f"{line}\n", encoding="utf-8")
        out = tmp_path / "m.txt"
        code = main(["train", "--corpus", str(corpus), "--out", str(out),
                     *flags])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_categories_flag_naming_the_corpus_labels_changes_nothing(
            self, toy_model, tmp_path):
        out = tmp_path / "m.txt"
        assert main(["train", "--corpus", TOY_CORPUS, "--out", str(out),
                     "--categories", "prostate"]) == 0
        assert out.read_bytes() == toy_model.read_bytes()

    def test_categories_flag_naming_nothing_is_a_usage_error(
            self, tmp_path, capsys):
        code = main(["train", "--corpus", TOY_CORPUS,
                     "--out", str(tmp_path / "m.txt"), "--categories", " , "])
        assert code == 1
        assert "--categories names no entries" in capsys.readouterr().err


class TestScore:
    def test_golden_advert_scores_as_csv(self, toy_model, tmp_path):
        page = ResultPage(
            links=(),
            adverts=(Advert("patient choose safer treatment here"),),
        )
        trace = SessionTrace("g-prostate-00", "prostate", (
            Interaction(step=1, query="symptoms and causes", page=page,
                        clicked=(), is_probe=True),
        ))
        capture = tmp_path / "one.capture"
        save_capture([trace], capture)
        out = tmp_path / "scores.csv"
        assert main(["score", "--model", str(toy_model),
                     "--capture", str(capture), "--out", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["session", "step", "category", "score"]
        assert ["g-prostate-00", "1", "prostate", "0.32"] in rows
        assert ["g-prostate-00", "1", "other", "0.08"] in rows

    def test_deeply_nested_record_is_a_data_error(self, toy_model, tmp_path,
                                                  capsys):
        capture = tmp_path / "deep.capture"
        capture.write_text(f"#pri-capture v1\n{_DEEP_RECORD}\n")
        code = main(["score", "--model", str(toy_model),
                     "--capture", str(capture)])
        assert code == 2
        assert "capture line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["model-id", "capture-step",
                                       "capture-clicked"])
    def test_overlong_integer_is_a_data_error(self, toy_model, tmp_path,
                                              capsys, where):
        model = tmp_path / "model.txt"
        model.write_text(_MODEL_HEAD + f"dict\t{_LONG_INT}\tfoo\n")
        step, clicked = ((_LONG_INT, "") if where == "capture-step"
                         else ("1", _LONG_INT))
        capture = tmp_path / "long.capture"
        capture.write_text(
            '#pri-capture v1\n{"adverts":["a b"],"clicked":[' + clicked
            + '],"is_probe":false,"links":[],"query":"q","session_id":"s",'
            '"step":' + step + ',"topic":"prostate"}\n')
        if where == "model-id":
            save_capture([], capture)
        else:
            model = toy_model
        code = main(["score", "--model", str(model),
                     "--capture", str(capture)])
        assert code == 2
        expected = "model line 4" if where == "model-id" else "capture line 2"
        assert expected in capsys.readouterr().err

    def test_topic_changing_within_a_session_is_a_data_error(
            self, cli_bundle, tmp_path, capsys):
        lines = (cli_bundle / "test.capture").read_text().splitlines()
        record = json.loads(lines[2])
        record["topic"] = "divorce"
        lines[2] = json.dumps(record)
        capture = tmp_path / "mixed.capture"
        capture.write_text("".join(line + "\n" for line in lines))
        code = main(["score", "--model", str(cli_bundle / "model.txt"),
                     "--capture", str(capture)])
        assert code == 2
        assert (f"capture line 3: conflicting topic for session "
                f"{record['session_id']}" in capsys.readouterr().err)

    def test_out_in_a_missing_directory_is_a_usage_error(
            self, toy_model, tmp_path, capsys):
        capture = tmp_path / "empty.capture"
        save_capture([], capture)
        code = main(["score", "--model", str(toy_model),
                     "--capture", str(capture),
                     "--out", str(tmp_path / "nowhere" / "scores.csv")])
        assert code == 1
        assert "nowhere" in capsys.readouterr().err


class TestDetect:
    def test_bundle_replays_to_a_verdict_per_session(self, cli_bundle, capsys):
        assert main(["detect", "--model", str(cli_bundle / "model.txt"),
                     "--capture", str(cli_bundle / "test.capture"),
                     "--baselines", str(cli_bundle / "baselines.txt")]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0] == ["session", "topic", "sensitive", "detected_topics"]
        assert len(rows) == 1 + 12

    def test_bundle_replays_the_same_rows_in_capture_order(
            self, cli_bundle, capsys):
        assert main(["detect", "--model", str(cli_bundle / "model.txt"),
                     "--capture", str(cli_bundle / "test.capture"),
                     "--baselines", str(cli_bundle / "baselines.txt")]) == 0
        printed = capsys.readouterr().out.splitlines()
        bundled = (cli_bundle / "sessions.csv").read_text(
            encoding="utf-8").splitlines()
        assert printed[0] == bundled[0]
        assert sorted(printed[1:]) == sorted(bundled[1:])
        # detect keeps the capture's order, by session id; the bundle lists
        # the sensitive topics sorted, then the catch-all.
        printed_ids = [row.split(",")[0] for row in printed[1:]]
        bundled_ids = [row.split(",")[0] for row in bundled[1:]]
        assert printed_ids == sorted(printed_ids)
        assert bundled_ids[-1] == "test-other-00"
        assert printed_ids != bundled_ids

    def test_baseline_source_is_required(self, cli_bundle, capsys):
        code = main(["detect", "--model", str(cli_bundle / "model.txt"),
                     "--capture", str(cli_bundle / "test.capture")])
        assert code == 1
        assert "--baselines" in capsys.readouterr().err

    def test_short_session_is_named(self, cli_bundle, capsys):
        code = main(["detect", "--model", str(cli_bundle / "model.txt"),
                     "--capture", str(cli_bundle / "test.capture"),
                     "--baselines", str(cli_bundle / "baselines.txt"),
                     "--probe-count", "99"])
        assert code == 2
        first = parse_capture(read_lines(cli_bundle / "test.capture"))[0]
        assert capsys.readouterr().err == (
            f"error: session {first.session_id}: incomplete session: "
            f"{len(first.probes)} probe verdicts, need 99\n")

    def test_probe_count_1_judges_each_session_on_its_first_probe(
            self, cli_bundle, tmp_path, capsys):
        # Cut every session after its first probe: with --probe-count 1
        # the verdicts are the same, and by default they are not.
        traces = parse_capture(read_lines(cli_bundle / "test.capture"))
        first_only = []
        for trace in traces:
            end = next(i for i, it in enumerate(trace.interactions)
                       if it.is_probe)
            first_only.append(trace._replace(
                interactions=trace.interactions[:end + 1]))
        cut = tmp_path / "first-probe.capture"
        save_capture(first_only, cut)

        def detect(capture, *flags):
            assert main(["detect", "--model", str(cli_bundle / "model.txt"),
                         "--capture", str(capture),
                         "--baselines", str(cli_bundle / "baselines.txt"),
                         *flags]) == 0
            return capsys.readouterr().out

        whole = detect(cli_bundle / "test.capture", "--probe-count", "1")
        assert whole == detect(cut, "--probe-count", "1")
        assert whole != detect(cli_bundle / "test.capture")

    def test_calibration_session_of_an_unknown_topic_is_a_data_error(
            self, cli_bundle, tmp_path, capsys):
        training = _session_relabelled_zzz(cli_bundle, tmp_path)["--capture"]
        code = main(["detect", "--model", str(cli_bundle / "model.txt"),
                     "--capture", str(cli_bundle / "test.capture"),
                     "--calibrate", str(training)])
        assert code == 2
        assert ("session test-anorexia-00: unknown topic 'zzz'"
                in capsys.readouterr().err)


_MODEL_HEAD = "#pri-model v1\ncategories\ta\ncatchall\tother\n"

# name -> (records after the header lines, expected error text)
_MALFORMED_MODELS = {
    "non-integer-dict-id": (
        "dict\tx\tfoo\nstat\t0\t1/1\ta=1/1\n", "bad term id 'x'"),
    "non-integer-stat-id": (
        "dict\t0\tfoo\nstat\tx\t1/1\ta=1/1\n", "bad term id 'x'"),
    "duplicate-dict-id": (
        "dict\t0\tfoo\ndict\t0\tbar\nstat\t0\t1/1\ta=1/1\n",
        "duplicate term id 0"),
    "duplicate-term": (
        "dict\t0\tfoo\ndict\t1\tfoo\nstat\t0\t1/1\ta=1/1\n",
        "duplicate term 'foo'"),
    "non-dense-ids": (
        "dict\t1\tfoo\nstat\t1\t1/1\ta=1/1\n", "not dense from 0"),
    "undeclared-stat-category": (
        "dict\t0\tfoo\nstat\t0\t1/1\ta=1/2,zzz=1/2\n",
        "undeclared categories ['zzz']"),
    "undeclared-empty-category": (
        "empty\tzzz\ndict\t0\tfoo\nstat\t0\t1/1\ta=1/1\n",
        "undeclared categories ['zzz']"),
    "duplicate-stat": (
        "dict\t0\tfoo\nstat\t0\t1/1\ta=1/1\nstat\t0\t1/1\ta=1/1\n",
        "duplicate stat"),
    "duplicate-stat-category": (
        "dict\t0\tfoo\nstat\t0\t1/1\ta=1/2,a=1/2\n", "duplicate category"),
    "zero-total": (
        "dict\t0\tfoo\nstat\t0\t0/1\ta=1/1,other=-1/1\n",
        "total must be positive"),
    "negative-weight": (
        "dict\t0\tfoo\nstat\t0\t1/1\ta=2/1,other=-1/1\n", "negative weight"),
    "zero-denominator": (
        "dict\t0\tfoo\nstat\t0\t3/0\ta=1/1\n", "bad rational '3/0'"),
    "negative-denominator-total": (
        "dict\t0\tfoo\nstat\t0\t1/-2\ta=1/2\n",
        "model line 5: total must be positive"),
    "two-field-stat": (
        "dict\t0\tfoo\nstat\t0\t1/1\n", "model line 5: malformed stat line"),
    "second-categories": (
        "categories\tb\n", "model line 4: second categories line"),
    "second-catchall": (
        "catchall\tother\n", "model line 4: second catchall line"),
    "second-empty": (
        "empty\ta\nempty\ta\n", "model line 5: second empty line"),
}


class TestMalformedModel:
    @pytest.mark.parametrize("name", sorted(_MALFORMED_MODELS))
    def test_malformed_record_is_a_data_error(self, tmp_path, capsys, name):
        records, message = _MALFORMED_MODELS[name]
        model = tmp_path / "model.txt"
        model.write_text(_MODEL_HEAD + records, encoding="utf-8")
        capture = tmp_path / "empty.capture"
        save_capture([], capture)
        code = main(["score", "--model", str(model), "--capture", str(capture)])
        assert code == 2
        assert message in capsys.readouterr().err


class TestProbeSelect:
    def test_medical_group_accepts_the_default(self, capsys):
        assert main(["probe-select", "--topics",
                     "anorexia,diabetes,prostate"]) == 0
        assert capsys.readouterr().out == "symptoms and causes\n"

    def test_finance_group_rejects_both_bundled_probes(self, capsys):
        code = main(["probe-select", "--topics", "payday,bankrupt,gambling"])
        assert code == 2
        err = capsys.readouterr().err
        assert "too narrowing" in err
        assert "shares keyword terms" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_min_ratio_is_a_data_error(self, value, capsys):
        # NaN compares false with every ratio: unchecked, it passes any probe.
        code = main(["probe-select", "--topics", "payday,bankrupt,gambling",
                     "--min-ratio", value])
        assert code == 2
        assert "min_ratio must be finite" in capsys.readouterr().err

    def test_capture_mode_ranks_page_terms(self, cli_bundle, capsys):
        assert main(["probe-select", "--capture",
                     str(cli_bundle / "test.capture"), "--top", "3"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0] == ["rank", "term", "tf"]
        assert len(rows) == 4

    def test_capture_mode_writes_ranked_rows(self, tmp_path, capsys):
        page = ResultPage(links=(), adverts=(Advert("help help advice"),))
        capture = tmp_path / "one.capture"
        save_capture([SessionTrace("s", "other", (
            Interaction(1, "q", page, (), False),))], capture)
        assert main(["probe-select", "--capture", str(capture)]) == 0
        assert capsys.readouterr().out == "rank,term,tf\n1,help,2\n2,advic,1\n"

    def test_probes_naming_nothing_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "probe.txt"
        code = main(["probe-select", "--topics", "anorexia", "--probes", ";;",
                     "--out", str(out)])
        assert code == 1
        assert "--probes names no entries" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_ambiguity_row_names_its_line(self, tmp_path, capsys):
        survey = tmp_path / "survey.csv"
        survey.write_text("topic,probe,n_topic,n_topic_probe\n"
                          "anorexia,symptoms and causes,10,5\n"
                          "payday,help and advice,x,5\n", encoding="utf-8")
        code = main(["probe-select", "--topics", "anorexia",
                     "--ambiguity", str(survey)])
        assert code == 2
        assert ("ambiguity CSV line 3: result counts must be integers, "
                "not 'x' and '5'") in capsys.readouterr().err

    def test_oversized_ambiguity_field_is_a_data_error(self, tmp_path, capsys):
        survey = tmp_path / "big.csv"
        survey.write_text("topic,probe,n_topic,n_topic_probe\n"
                          f"anorexia,{'x' * 131073},10,5\n", encoding="utf-8")
        code = main(["probe-select", "--topics", "anorexia",
                     "--ambiguity", str(survey)])
        assert code == 2
        assert "line 2: field larger than field limit" in capsys.readouterr().err

    def test_some_mode_is_required(self, capsys):
        assert main(["probe-select"]) == 1

    def test_both_modes_at_once_is_a_usage_error(self, cli_bundle, capsys):
        code = main(["probe-select", "--capture",
                     str(cli_bundle / "test.capture"), "--topics", "payday"])
        assert code == 1
        assert "separate modes" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--topics", "payday", "--probes", "foo bar"],
         "no ambiguity counts for ('payday', 'foo bar')"),
        (["--capture", "B/test.capture", "--top", "0"],
         "top_k must be positive"),
        (["--topics", "anorexia", "--ambiguity", "SURVEY"],
         "probe result count cannot be negative"),
        # Every row is checked when read, also one the group never uses.
        (["--topics", "anorexia", "--ambiguity", "UNUSED"],
         "topic result count must be positive"),
    ])
    def test_bad_input_is_a_data_error(self, cli_bundle, tmp_path, capsys,
                                       flags, message):
        survey = tmp_path / "survey.csv"
        survey.write_text("topic,probe,n_topic,n_topic_probe\n"
                          "anorexia,symptoms and causes,10,-1\n",
                          encoding="utf-8")
        unused = tmp_path / "unused.csv"
        unused.write_text("topic,probe,n_topic,n_topic_probe\n"
                          "anorexia,symptoms and causes,10,5\n"
                          "payday,help and advice,0,5\n", encoding="utf-8")
        paths = {"B/test.capture": cli_bundle / "test.capture",
                 "SURVEY": survey, "UNUSED": unused}
        code = main(["probe-select",
                     *(str(paths.get(flag, flag)) for flag in flags)])
        assert code == 2
        assert message in capsys.readouterr().err


class TestSimulate:
    SCRIPT = """\
! topic: prostate
! keywords: prostate, cancer, male
! probe: symptoms and causes
symptoms and causes
prostate cancer signs
! wait 5
male prostate screening
symptoms and causes
"""

    def test_same_seed_writes_identical_captures(self, tmp_path):
        script = tmp_path / "s.script"
        script.write_text(self.SCRIPT)
        a, b = tmp_path / "a.capture", tmp_path / "b.capture"
        for out in (a, b):
            assert main(["simulate", "--script", str(script), "--engine",
                         "google_like", "--seed", "9", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().startswith("#pri-capture v1\n")
        assert "sim-prostate-00" in a.read_text()

    def test_script_without_topic_is_rejected(self, tmp_path, capsys):
        script = tmp_path / "s.script"
        script.write_text("! probe: symptoms and causes\nsymptoms and causes\n")
        code = main(["simulate", "--script", str(script), "--engine",
                     "google_like", "--seed", "9",
                     "--out", str(tmp_path / "x.capture")])
        assert code == 2
        assert "topic" in capsys.readouterr().err

    def test_script_topic_the_engine_lacks_is_rejected(self, tmp_path, capsys):
        script = tmp_path / "s.script"
        script.write_text(self.SCRIPT.replace("! topic: prostate",
                                              "! topic: zzz"))
        out = tmp_path / "x.capture"
        code = main(["simulate", "--script", str(script), "--engine",
                     "google_like", "--seed", "9", "--out", str(out)])
        assert code == 2
        assert ("session sim-zzz-00: topic 'zzz' is not an engine category"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_unknown_engine_is_a_usage_error(self, tmp_path, capsys):
        script = tmp_path / "s.script"
        script.write_text(self.SCRIPT)
        code = main(["simulate", "--script", str(script), "--engine",
                     "altavista", "--seed", "9",
                     "--out", str(tmp_path / "x.capture")])
        assert code == 1
        assert "altavista" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "soon"])
    def test_bad_wait_is_a_data_error(self, tmp_path, capsys, value):
        script = tmp_path / "s.script"
        script.write_text(self.SCRIPT.replace("! wait 5", f"! wait {value}"))
        out = tmp_path / "x.capture"
        code = main(["simulate", "--script", str(script), "--engine",
                     "google_like", "--seed", "9", "--out", str(out)])
        assert code == 2
        assert f"line 6: bad wait duration {value!r}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "campaign"])
def test_engine_file_cannot_set_a_seed(tmp_path, capsys, command):
    # The seed is the run's --seed (for a campaign, each session's derived
    # seed), never an engine setting.
    engine = tmp_path / "seeded.cfg"
    engine.write_text("adaptation_lag = 1\nseed = 3\n", encoding="utf-8")
    script = tmp_path / "s.script"
    script.write_text(TestSimulate.SCRIPT, encoding="utf-8")
    out = tmp_path / "out"
    if command == "simulate":
        argv = ["simulate", "--script", str(script), "--out", str(out)]
    else:
        argv = ["campaign", "--out", str(out), "--train", "1", "--test", "1"]
    assert main(argv + ["--engine", str(engine), "--seed", "9"]) == 2
    assert "unknown engine setting 'seed'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("setting, message", [
    ("seed = 3", "unknown engine setting 'seed'"),
    ("click_boost = x", "bad value for click_boost: 'x'"),
])
@pytest.mark.parametrize("route", ["simulate", "campaign", "campaign-config"])
def test_engine_file_errors_name_the_file(tmp_path, capsys, route, setting,
                                          message):
    engine = tmp_path / "engine.cfg"
    engine.write_text(f"adaptation_lag = 1\n{setting}\n", encoding="utf-8")
    script = tmp_path / "s.script"
    script.write_text(TestSimulate.SCRIPT, encoding="utf-8")
    campaign = tmp_path / "campaign.cfg"
    campaign.write_text(f"engine = {engine}\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = {
        "simulate": ["simulate", "--script", str(script),
                     "--engine", str(engine)],
        "campaign": ["campaign", "--train", "1", "--test", "1",
                     "--engine", str(engine)],
        "campaign-config": ["campaign", "--train", "1", "--test", "1",
                            "--config", str(campaign)],
    }[route]
    assert main(argv + ["--seed", "9", "--out", str(out)]) == 2
    assert f"error: {engine}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "campaign"])
def test_overflowing_click_boost_is_a_data_error(tmp_path, capsys, command):
    # Enough clicks at this boost overflow a category weight to inf.
    engine = tmp_path / "boost.cfg"
    engine.write_text("click_boost = 1e10\n", encoding="utf-8")
    script = tmp_path / "s.script"
    script.write_text(TestSimulate.SCRIPT.replace(
        "male prostate screening\n", "prostate cancer signs\n" * 60),
        encoding="utf-8")
    out = tmp_path / "out"
    if command == "simulate":
        argv = ["simulate", "--script", str(script), "--out", str(out)]
    else:
        argv = ["campaign", "--out", str(out), "--train", "1", "--test", "1"]
    assert main(argv + ["--engine", str(engine), "--seed", "1"]) == 2
    assert "click_boost" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "campaign"])
def test_overflowing_prior_knowledge_is_a_data_error(tmp_path, capsys, command):
    # Each weight is finite, but their sum overflows to inf.
    engine = tmp_path / "prior.cfg"
    engine.write_text("prior_knowledge = payday:1e308,other:1e308\n",
                      encoding="utf-8")
    script = tmp_path / "s.script"
    script.write_text(TestSimulate.SCRIPT, encoding="utf-8")
    out = tmp_path / "out"
    if command == "simulate":
        argv = ["simulate", "--script", str(script), "--out", str(out)]
    else:
        argv = ["campaign", "--out", str(out), "--train", "1", "--test", "1"]
    assert main(argv + ["--engine", str(engine), "--seed", "1"]) == 2
    assert "prior_knowledge" in capsys.readouterr().err
    assert not out.exists()


class TestCampaign:
    def test_bundle_has_every_artifact(self, cli_bundle):
        names = sorted(p.name for p in cli_bundle.iterdir())
        assert names == sorted([
            "model.txt", "baselines.txt", "train.capture", "test.capture",
            "sessions.csv", "confusion.csv", "heatmap.csv", "lag.csv",
            "summary.md",
        ])

    def test_seed_is_mandatory(self, tmp_path, capsys):
        code = main(["campaign", "--out", str(tmp_path / "b")])
        assert code == 1
        assert "--seed" in capsys.readouterr().err

    def test_probe_count_above_min_probes_fails_before_simulating(
            self, tmp_path, capsys):
        out = tmp_path / "b"
        code = main(["campaign", "--seed", "5", "--out", str(out),
                     "--train", "1", "--test", "1", "--probe-count", "6"])
        assert code == 2
        assert "session_probe_count 6 exceeds 5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("probe, topics", [
        ("payday loans", "bankrupt, payday"),
        ("help and advice", "gambling, payday"),
    ])
    def test_revealing_probe_fails_before_simulating(
            self, tmp_path, capsys, probe, topics):
        out = tmp_path / "b"
        code = main(["campaign", "--seed", "5", "--out", str(out),
                     "--train", "2", "--test", "2", "--probe", probe])
        assert code == 2
        assert (f"probe {probe!r} shares keyword terms with {topics}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_negative_adaptation_lag_fails_before_simulating(
            self, tmp_path, capsys):
        out = tmp_path / "b"
        code = main(["campaign", "--seed", "5", "--out", str(out),
                     "--train", "1", "--test", "1", "--adaptation-lag", "-1"])
        assert code == 2
        assert "adaptation_lag" in capsys.readouterr().err
        assert not out.exists()

    def test_flags_override_the_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "campaign.cfg"
        cfg.write_text("test_sessions_per_topic = 2\n"
                       "train_sessions_per_topic = 1\n"
                       "clicks = off\n")
        out = tmp_path / "b"
        assert main(["campaign", "--seed", "5", "--out", str(out),
                     "--config", str(cfg), "--test", "1"]) == 0
        stdout = capsys.readouterr().out
        assert "sensitive detection rate" in stdout
        # 12 topics x 1 test session: the flag beat the file's 2.
        sessions = {row.split(",")[0] for row
                    in (out / "sessions.csv").read_text().splitlines()[1:]}
        assert len(sessions) == 12

    @pytest.mark.parametrize("where", ["campaign", "included"])
    def test_config_engine_path_is_relative_to_its_file(
            self, tmp_path, monkeypatch, capsys, where):
        # The file that sets ``engine`` sits next to the engine file; the
        # command runs from the parent of its directory.
        home = tmp_path / ("dir" if where == "campaign" else "shared")
        home.mkdir(exist_ok=True)
        (home / "eng.cfg").write_text("ads_per_page = 2\n", encoding="utf-8")
        (home / "base.cfg").write_text("engine = eng.cfg\n", encoding="utf-8")
        (tmp_path / "dir").mkdir(exist_ok=True)
        (tmp_path / "dir" / "campaign.cfg").write_text(
            "engine = eng.cfg\n" if where == "campaign"
            else "include ../shared/base.cfg\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["campaign", "--seed", "1", "--train", "1", "--test", "1",
                     "--config", "dir/campaign.cfg", "--out", "b"]) == 0
        assert "ads_per_page=2," in (tmp_path / "b" / "summary.md").read_text()

    def test_config_engine_preset_is_not_a_path(self, tmp_path, monkeypatch,
                                                capsys):
        (tmp_path / "dir").mkdir()
        (tmp_path / "dir" / "bing_like").write_text("seed = 1\n",
                                                    encoding="utf-8")
        (tmp_path / "dir" / "campaign.cfg").write_text(
            "engine = bing_like\n", encoding="utf-8")
        (tmp_path / "dir" / "lost.cfg").write_text(
            "engine = missing.cfg\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["campaign", "--seed", "1", "--train", "1", "--test", "1",
                     "--config", "dir/campaign.cfg", "--out", "b"]) == 0
        assert "ads_per_page=3," in (tmp_path / "b" / "summary.md").read_text()
        assert main(["campaign", "--seed", "1", "--config", "dir/lost.cfg",
                     "--out", "c"]) == 1
        missing = tmp_path.resolve() / "dir" / "missing.cfg"
        assert f"unknown engine {str(missing)!r}" in capsys.readouterr().err

    def test_empty_engine_setting_is_a_data_error(self, tmp_path, capsys):
        (tmp_path / "dir").mkdir()
        cfg = tmp_path / "dir" / "empty.cfg"
        cfg.write_text("engine =\n", encoding="utf-8")
        out = tmp_path / "e"
        assert main(["campaign", "--seed", "1", "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert (f"error: {cfg}: bad value for engine: ''"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "campaign"])
    @pytest.mark.parametrize("engine", ["", "DIR"])
    def test_engine_naming_no_file_is_a_usage_error(self, tmp_path, capsys,
                                                   command, engine):
        engine = str(tmp_path) if engine == "DIR" else engine
        script = tmp_path / "s.script"
        script.write_text(TestSimulate.SCRIPT, encoding="utf-8")
        out = tmp_path / "out"
        argv = (["simulate", "--script", str(script)] if command == "simulate"
                else ["campaign"])
        assert main(argv + ["--engine", engine, "--seed", "1",
                            "--out", str(out)]) == 1
        assert (f"error: unknown engine {engine!r}: not one of google_like, "
                "bing_like and no such file" in capsys.readouterr().err)
        assert not out.exists()


# name -> (campaign --config text, expected error text)
_MALFORMED_CONFIGS = {
    "non-integer-train": ("train_sessions_per_topic = x\n",
                          "bad value for train_sessions_per_topic: 'x'"),
    "fractional-probe-count": ("session_probe_count = 2.5\n",
                               "bad value for session_probe_count: '2.5'"),
    "non-float-sigma": ("sigma_multiplier = abc\n",
                        "bad value for sigma_multiplier: 'abc'"),
    "clicks-not-on-off": ("clicks = maybe\n", "bad value for clicks: 'maybe'"),
    "misspelt-key": ("sigma_multiplyer = 2\n",
                     "unknown campaign setting 'sigma_multiplyer'"),
    "removed-epsilon": ("epsilon = abc\n",
                        "unknown campaign setting 'epsilon'"),
    "engine-key": ("adaptation_lag = 2\n",
                   "unknown campaign setting 'adaptation_lag'"),
    "zero-test-sessions": ("test_sessions_per_topic = 0\n",
                           "test_sessions_per_topic must be at least 1"),
    "nan-sigma": ("sigma_multiplier = nan\n",
                  "sigma_multiplier must be positive and finite"),
    "probe-count-above-min-probes": ("session_probe_count = 6\n",
                                     "session_probe_count 6 exceeds 5"),
    "revealing-probe": ("probe = payday loans\n",
                        "shares keyword terms with bankrupt, payday"),
    "include-cycle": ("include campaign.cfg\n",
                      "configuration include cycle at"),
}


class TestMalformedConfig:
    @pytest.mark.parametrize("name", sorted(_MALFORMED_CONFIGS))
    def test_malformed_setting_is_a_data_error(self, tmp_path, capsys, name):
        text, message = _MALFORMED_CONFIGS[name]
        cfg = tmp_path / "campaign.cfg"
        cfg.write_text(text, encoding="utf-8")
        code = main(["campaign", "--seed", "5", "--out", str(tmp_path / "b"),
                     "--config", str(cfg)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "b").exists()


class TestReport:
    def test_text_format(self, cli_bundle, capsys):
        assert main(["report", "--model", str(cli_bundle / "model.txt"),
                     "--baselines", str(cli_bundle / "baselines.txt"),
                     "--capture", str(cli_bundle / "test.capture")]) == 0
        out = capsys.readouterr().out
        assert "Detection summary" in out
        assert "sensitive detection rate" in out

    def test_csv_format(self, cli_bundle, capsys):
        assert main(["report", "--model", str(cli_bundle / "model.txt"),
                     "--baselines", str(cli_bundle / "baselines.txt"),
                     "--capture", str(cli_bundle / "test.capture"),
                     "--format", "csv"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0] == ["table", "row", "column", "value"]

    def test_unknown_format_is_a_usage_error(self, cli_bundle, capsys):
        code = main(["report", "--model", str(cli_bundle / "model.txt"),
                     "--baselines", str(cli_bundle / "baselines.txt"),
                     "--capture", str(cli_bundle / "test.capture"),
                     "--format", "xml"])
        assert code == 1

    def test_empty_capture_is_a_data_error(self, cli_bundle, tmp_path, capsys):
        empty = tmp_path / "empty.capture"
        save_capture([], empty)
        flags = ["--model", str(cli_bundle / "model.txt"),
                 "--baselines", str(cli_bundle / "baselines.txt"),
                 "--capture", str(empty)]
        assert main(["report"] + flags) == 2
        assert "holds no sessions" in capsys.readouterr().err
        # detect lists the sessions it judged: none, under the header.
        assert main(["detect"] + flags) == 0
        assert capsys.readouterr().out == (
            "session,topic,sensitive,detected_topics\n")


@pytest.mark.parametrize("command", ["detect", "report"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_sigma_multiplier_is_a_data_error(cli_bundle, capsys,
                                                     command, value):
    code = main([command, "--model", str(cli_bundle / "model.txt"),
                 "--baselines", str(cli_bundle / "baselines.txt"),
                 "--capture", str(cli_bundle / "test.capture"),
                 "--sigma-multiplier", value])
    assert code == 2
    assert "sigma_multiplier must be positive and finite" in capsys.readouterr().err


# name -> (topic records after the header lines, expected error text)
_MALFORMED_BASELINES = {
    "nan-mean": ("other\tnan\t0.5\t4\n",
                 "line 3: mean and sigma must be finite"),
    "infinite-sigma": ("other\t0.5\tinf\t4\n",
                       "line 3: mean and sigma must be finite"),
    "negative-sigma": ("other\t0.5\t-1.0\t4\n", "line 3: negative sigma"),
    "count-one": ("other\t0.5\t0.1\t1\n", "line 3: count must be at least 2"),
    "all-three": ("a\t0.5\t0.1\t4\nother\tnan\t-1.0\t0\n",
                  "line 4: mean and sigma must be finite"),
    "duplicate-topic": ("other\t0.5\t0.1\t4\nother\t0.9\t0.2\t3\ncatchall\tzzz\n",
                        "line 4: duplicate topic 'other'"),
    "second-catchall": ("other\t0.5\t0.1\t4\ncatchall\tzzz\n",
                        "line 4: second catchall line"),
}


class TestMalformedBaselines:
    @pytest.mark.parametrize("name", sorted(_MALFORMED_BASELINES))
    def test_malformed_record_is_a_data_error(self, cli_bundle, tmp_path,
                                              capsys, name):
        records, message = _MALFORMED_BASELINES[name]
        baselines = tmp_path / "baselines.txt"
        baselines.write_text("#pri-baselines v1\ncatchall\tother\n" + records,
                             encoding="utf-8")
        code = main(["report", "--model", str(cli_bundle / "model.txt"),
                     "--baselines", str(baselines),
                     "--capture", str(cli_bundle / "test.capture")])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_zero_sigma_is_accepted(self):
        # The catch-all's own probes all score alike, so its sigma is 0.
        baseline = parse_baselines(["#pri-baselines v1", "other\t0.5\t0.0\t2"])
        assert baseline.per_topic["other"].sigma == 0.0


def _without_payday(bundle, tmp_path):
    lines = (bundle / "baselines.txt").read_text(encoding="utf-8").splitlines()
    path = tmp_path / "baselines.txt"
    path.write_text("".join(line + "\n" for line in lines
                            if not line.startswith("payday\t")),
                    encoding="utf-8")
    return {"--baselines": path}


def _only_other_and_zzz(bundle, tmp_path):
    path = tmp_path / "baselines.txt"
    path.write_text("#pri-baselines v1\ncatchall\tother\n"
                    "other\t0.5\t0.0\t8\nzzz\t0.5\t0.1\t8\n", encoding="utf-8")
    return {"--baselines": path}


def _session_relabelled_zzz(bundle, tmp_path):
    traces = parse_capture(read_lines(bundle / "test.capture"))
    first = traces[0]
    path = tmp_path / "test.capture"
    save_capture([SessionTrace(first.session_id, "zzz", first.interactions),
                  *traces[1:]], path)
    return {"--capture": path}


# case -> (replaces one input of the bundle, expected error text)
_DISAGREEING_INPUTS = {
    "baselines-without-payday": (
        _without_payday,
        "baselines topics differ from the model's: missing payday; "
        "extra none"),
    "baselines-of-other-and-zzz": (
        _only_other_and_zzz,
        "baselines topics differ from the model's: missing anorexia, "
        "bankrupt, diabetes, disabled, divorce, gambling, gay, location, "
        "payday, prostate, unemployed; extra zzz"),
    "capture-session-zzz": (
        _session_relabelled_zzz,
        "session test-anorexia-00: unknown topic 'zzz'"),
}


class TestInputsAgree:
    """Model, baselines and capture must name the same topics."""

    @pytest.mark.parametrize("case", sorted(_DISAGREEING_INPUTS))
    def test_disagreeing_inputs_are_a_data_error(self, cli_bundle, tmp_path,
                                                 capsys, case):
        replace, message = _DISAGREEING_INPUTS[case]
        inputs = {"--model": cli_bundle / "model.txt",
                  "--baselines": cli_bundle / "baselines.txt",
                  "--capture": cli_bundle / "test.capture",
                  **replace(cli_bundle, tmp_path)}
        code = main(["report", *(str(part) for flag_value in inputs.items()
                                 for part in flag_value)])
        assert code == 2
        assert message in capsys.readouterr().err


_IDS = ("0", "1", "x", "-1", "")
_VALUES = ("1/2", "3/0", "0/1", "-1/3", "2", "x", "", "1e999", "nan", "-inf",
           "0.5", "-1")
_BUCKETS = ("", "a=1/2", "other=1/2", "a=1/1,other=0/1", "a=-1/2", "a=x",
            "zzz=1/1", "a=1/0", "=", ",")
_any = st.sampled_from(_IDS + _VALUES + _BUCKETS)
# Free-form records, plus records shaped like each kind of line so that
# drawn values reach the checks behind the field count.
_record = st.one_of(
    st.tuples(st.sampled_from(("dict", "stat", "categories", "catchall",
                               "empty", "other", "a", "")),
              st.lists(_any, max_size=4)),
    st.tuples(st.just("dict"),
              st.tuples(st.sampled_from(_IDS), st.sampled_from(("foo", "bar")))),
    st.tuples(st.just("stat"),
              st.tuples(st.sampled_from(_IDS), st.sampled_from(_VALUES),
                        st.sampled_from(_BUCKETS))),
    st.tuples(st.sampled_from(("a", "other")),
              st.tuples(st.sampled_from(_VALUES), st.sampled_from(_VALUES),
                        st.sampled_from(_IDS + ("2", "5")))),
).map(lambda record: "\t".join((record[0], *record[1])))


_WORDS = ("", "a", "other", "p", "x y", "payday loans", "0", "1", "-1", "nan",
          "1e999", "\u00e9", '"', "=", ":", ",", "\t", "\x00")
_word = st.sampled_from(_WORDS)
# Free-form lines come out the way str.splitlines yields them: no line
# boundary character inside a line.
_free_line = st.text(max_size=12).map(lambda text: "".join(text.splitlines()))
_json_value = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats() | _word,
    lambda children: st.lists(children, max_size=2), max_leaves=4)
_CAPTURE_KEYS = ("session_id", "topic", "step", "query", "is_probe", "links",
                 "adverts", "clicked")
_capture_record = st.one_of(
    st.fixed_dictionaries(
        {"session_id": st.sampled_from(("a", "b")), "step": st.integers(-1, 3),
         "query": _word, "is_probe": st.booleans(),
         "links": st.lists(st.lists(_word, min_size=2, max_size=2), max_size=2),
         "adverts": st.lists(_word, max_size=2),
         "clicked": st.lists(st.integers(-1, 2), max_size=2)},
        optional={"topic": _word}),
    st.dictionaries(st.sampled_from(_CAPTURE_KEYS), _json_value, max_size=8),
    _json_value,
).map(json.dumps)


def _joined(heads, separators):
    return st.tuples(st.sampled_from(heads), st.sampled_from(separators),
                     _word).map("".join)


def parse_corpus_of_a(lines):
    return parse_corpus(lines, CategorySet(("a",)))


def parse_prior_knowledge_of(lines):
    return parse_prior_knowledge(",".join(lines))


# Line shapes per parser, each mixed with free-form lines.
_LINES = {
    parse_baselines: _record,
    parse_model: _record,
    parse_capture: _capture_record,
    parse_corpus_of_a: _joined(_WORDS, ("\t", "")),
    parse_config: _joined(("", "include", "#", "a", "seed"), (" = ", "=", " ")),
    parse_script: _joined(("", "!", "! probe:", "! topic:", "! keywords:",
                           "! wait", "! bogus"), ("", " ")),
    parse_ambiguity_csv: st.lists(
        _word | st.sampled_from(("topic", "probe", "n_topic", "n_topic_probe")),
        max_size=5).map(",".join),
    parse_prior_knowledge_of: _joined(_WORDS, (":", "", "::")),
}
# Pinned inputs, each appended to every parser's prelude:
# one data row with a field past the csv module's default size limit, and
# a record nested past the JSON decoder's recursion limit.
_PINNED_LINES = {
    "oversized-field": "a," + "x" * 131073 + ",1,1",
    "deep-record": _DEEP_RECORD,
}


# A valid prelude lets the drawn records reach the checks past the header.
@pytest.mark.parametrize("parse, prelude", [
    (parse_baselines, ["#pri-baselines v1", "catchall\tother"]),
    (parse_model, ["#pri-model v1", "categories\ta", "dict\t0\tfoo"]),
    (parse_capture, ["#pri-capture v1"]),
    (parse_corpus_of_a, ["# corpus", "a\tcancer risk"]),
    (parse_config, ["seed = 1"]),
    (parse_script, ["! probe: p", "! topic: a"]),
    (parse_ambiguity_csv, ["topic,probe,n_topic,n_topic_probe", "a,p,10,5"]),
    (parse_prior_knowledge_of, ["a:1"]),
])
@given(data=st.data())
# st.data() cannot be drawn from in an explicit example, so a pinned input
# arrives as its name in _PINNED_LINES and is appended to the prelude.
@example(data="oversized-field")
@example(data="deep-record")
@settings(max_examples=300, deadline=None)
def test_parsers_raise_only_validation_errors(parse, prelude, data):
    if isinstance(data, str):
        lines = prelude + [_PINNED_LINES[data]]
    else:
        head = data.draw(st.sampled_from([prelude, prelude, prelude[:1], ["#junk"]]))
        lines = head + data.draw(st.lists(_LINES[parse] | _free_line, max_size=6))
    try:
        parse(lines)
    except ValidationError:
        pass


class TestTopLevel:
    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for name in ("train", "score", "detect", "probe-select",
                     "simulate", "campaign", "report"):
            assert name in out

    @pytest.mark.parametrize("command, flags", [
        ("campaign", ("--train", "--test", "--sigma-multiplier", "--probe-count")),
        ("detect", ("--sigma-multiplier", "--probe-count")),
    ])
    def test_help_shows_the_config_defaults(self, capsys, command, flags):
        campaign, detector = CampaignConfig(), DetectorConfig()
        defaults = {
            "--train": campaign.train_sessions_per_topic,
            "--test": campaign.test_sessions_per_topic,
            "--sigma-multiplier": detector.sigma_multiplier,
            "--probe-count": detector.session_probe_count,
        }
        assert defaults == {"--train": 3, "--test": 10,
                            "--sigma-multiplier": 3, "--probe-count": 5}
        assert main([command, "--help"]) == 0
        # Unwrapped; the usage line shows each flag as "[--flag METAVAR]".
        text = " ".join(capsys.readouterr().out.split())
        for flag in flags:
            metavar = flag[2:].replace("-", "_").upper()
            entry = text.split(f" {flag} {metavar} ")[1].split(" --")[0]
            assert f"(default {defaults[flag]:g}" in entry, entry

    @pytest.mark.parametrize("command", [
        "train", "score", "detect", "probe-select", "simulate", "campaign",
        "report"])
    def test_a_named_subcommand_has_the_full_parsers_flags(self, capsys,
                                                           command):
        # main builds only the subcommand its command line names.
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        full = capsys.readouterr().out
        assert main([command, "--help"]) == 0
        assert capsys.readouterr().out == full

    def test_no_subcommand_is_a_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        assert main(["annoy"]) == 1
        assert "annoy" in capsys.readouterr().err

    def test_main_leaves_the_callers_collector_alone(self, capsys):
        before = gc.get_threshold()
        assert main(["--help"]) == 0
        assert gc.get_threshold() == before

    def test_the_installed_command_starts_through_run(self):
        pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text()
        assert re.findall(r'^pri = "(.*)"$', pyproject, re.M) == ["pri.cli:run"]

    def test_run_raises_the_gc_threshold_for_python_m(self, tmp_path):
        # ``python -m pri.cli`` goes through run as well.  The process ends
        # without running exit hooks, so the command itself reads the
        # threshold: a spy on the reader ``train`` calls prints it.
        code = ("import gc, runpy, sys\n"
                f"sys.path.insert(0, {str(SRC)!r})\n"
                "import pri.config\n"
                "read_lines = pri.config.read_lines\n"
                "def spy(path):\n"
                "    print(gc.get_threshold())\n"
                "    return read_lines(path)\n"
                "pri.config.read_lines = spy\n"
                f"sys.argv = ['pri', 'train', '--corpus', {TOY_CORPUS!r},\n"
                f"            '--out', {str(tmp_path / 'm.txt')!r}]\n"
                "runpy.run_module('pri.cli', run_name='__main__')\n")
        done = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["(100000, 50, 100)"]

    @pytest.mark.parametrize("command", ["detect", "report", "campaign"])
    def test_epsilon_flag_is_gone(self, cli_bundle, tmp_path, command, capsys):
        # It was parsed but never read; the flag is now unknown.
        if command == "campaign":
            flags = ["--seed", "5", "--out", str(tmp_path / "b")]
        else:
            flags = ["--model", str(cli_bundle / "model.txt"),
                     "--baselines", str(cli_bundle / "baselines.txt"),
                     "--capture", str(cli_bundle / "test.capture")]
        assert main([command, *flags, "--epsilon", "0.1"]) == 1
        assert "unrecognized arguments: --epsilon" in capsys.readouterr().err


def pri_env() -> dict[str, str]:
    """The environment with ``src`` on the path and ``PYTHONUNBUFFERED``
    removed, so a command's standard output is block-buffered as in a
    pipe."""
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def pri_process(argv: list[str], redirect: str = "",
                **options) -> subprocess.CompletedProcess:
    """``python -m pri.cli ARGV`` in a new process, which ends through
    ``run``; a shell applies ``redirect``, such as ``>&-``, first."""
    options.setdefault("stdout", subprocess.PIPE)
    command = [sys.executable, "-m", "pri.cli", *argv]
    if redirect:
        command = ["sh", "-c", f'exec "$@" {redirect}', "sh", *command]
    return subprocess.run(command, env=pri_env(), stderr=subprocess.PIPE,
                          text=True, **options)


class TestRunInAProcess:
    """``run`` flushes, then ends the process without interpreter teardown."""

    @staticmethod
    def argv(command: str, bundle: Path) -> list[str]:
        return {
            "score": ["score", "--model", str(bundle / "model.txt"),
                      "--capture", str(bundle / "test.capture")],
            "detect": ["detect", "--model", str(bundle / "model.txt"),
                       "--baselines", str(bundle / "baselines.txt"),
                       "--capture", str(bundle / "test.capture")],
        }[command]

    @pytest.mark.parametrize("command", ["detect", "score"])
    def test_piped_output_equals_mains(self, cli_bundle, capsys, command):
        argv = self.argv(command, cli_bundle)
        assert main(argv) == 0
        expected = capsys.readouterr().out
        done = pri_process(argv)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == expected

    @pytest.mark.parametrize("argv, code", [
        (["probe-select", "--topics", "anorexia,diabetes,prostate"], 0),
        (["annoy"], 1),
        (["probe-select", "--topics", "anorexia", "--min-ratio", "nan"], 2),
    ])
    def test_exit_codes_propagate(self, argv, code, capsys):
        expected = main(argv)
        assert expected == code
        done = pri_process(argv)
        assert done.returncode == code
        assert (done.stdout, done.stderr) == capsys.readouterr()

    # score's rows overflow the output buffer, so its write fails inside
    # main; detect's few rows wait in the buffer for run's flush.
    @pytest.mark.parametrize("command", ["score", "detect"])
    def test_a_closed_stdout_exits_1(self, cli_bundle, command):
        read, write = os.pipe()
        os.close(read)
        try:
            done = pri_process(self.argv(command, cli_bundle), stdout=write)
        finally:
            os.close(write)
        assert done.returncode == 1
        assert done.stderr == "error: [Errno 32] Broken pipe\n"


class TestOutputMatrix:
    """Each command run with one of its outputs unwritable.

    An output that cannot be written exits 1 with an ``error:`` line.  A
    standard output the process started without is one, for a command that
    prints; a closed standard error is no error at all.
    """

    # command -> (argv, in which B/ is the campaign bundle and SCRIPT a
    # query script; the --out it writes in a case that names none)
    COMMANDS = {
        "train": (["train", "--corpus", TOY_CORPUS], "model.txt"),
        "score": (["score", "--model", "B/model.txt",
                   "--capture", "B/test.capture"], None),
        "detect": (["detect", "--model", "B/model.txt",
                    "--baselines", "B/baselines.txt",
                    "--capture", "B/test.capture"], None),
        "report": (["report", "--model", "B/model.txt",
                    "--baselines", "B/baselines.txt",
                    "--capture", "B/test.capture"], None),
        "probe-select": (["probe-select", "--topics",
                          "anorexia,diabetes,prostate"], None),
        "simulate": (["simulate", "--script", "SCRIPT", "--engine",
                      "google_like", "--seed", "9"], "s.capture"),
        # cli_bundle's campaign, so a finished bundle equals that one
        "campaign": (["campaign", "--seed", "41", "--train", "1",
                      "--test", "1"], "bundle"),
    }
    PRINTS = ("score", "detect", "report", "probe-select", "campaign")

    def argv(self, command, cli_bundle, tmp_path):
        """The command's argv, with a query script written under tmp_path."""
        script = tmp_path / "s.script"
        script.write_text(TestSimulate.SCRIPT, encoding="utf-8")
        return [str(cli_bundle / arg[2:]) if arg.startswith("B/")
                else str(script) if arg == "SCRIPT" else arg
                for arg in self.COMMANDS[command][0]]

    @pytest.mark.parametrize("case", ["stdout-closed", "stdout-full",
                                      "out-full", "out-under-file",
                                      "stderr-closed"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_unwritable_outputs_exit_1(self, cli_bundle, toy_model, tmp_path,
                                       capsys, command, case):
        if "full" in case and not os.path.exists("/dev/full"):
            pytest.skip("this system has no /dev/full")
        blocker = tmp_path / "a-file"
        blocker.write_text("", encoding="utf-8")
        argv = self.argv(command, cli_bundle, tmp_path)
        default_out = self.COMMANDS[command][1]
        out = {"out-full": "/dev/full",
               "out-under-file": str(blocker / "out")}.get(
            case, default_out and str(tmp_path / default_out))
        if out:
            argv += ["--out", out]
        prints = command in self.PRINTS
        expected = {"stdout-closed": prints, "stdout-full": prints,
                    "out-full": 1, "out-under-file": 1,
                    "stderr-closed": 0}[case]

        if case == "stdout-full":
            with open("/dev/full", "w", encoding="utf-8") as full:
                done = pri_process(argv, stdout=full)
        else:
            done = pri_process(argv, {"stdout-closed": ">&-",
                                      "stderr-closed": "2>&-"}.get(case, ""))

        assert done.returncode == expected
        if expected:
            assert re.search("^error: ", done.stderr, re.MULTILINE)
        else:
            assert done.stderr == ""
        # Python then has no sys.stdout, and a command's files are whole.
        if case == "stdout-closed" and prints:
            assert "error: cannot write to standard output" in done.stderr
        if case == "stdout-closed" and command == "train":
            assert Path(out).read_bytes() == toy_model.read_bytes()
        if case == "stdout-closed" and command == "campaign":
            assert read_bundle_bytes(out) == read_bundle_bytes(cli_bundle)
        if case == "stderr-closed":
            assert main(argv) == 0
            assert done.stdout == capsys.readouterr().out

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_an_empty_out_is_standard_output(self, cli_bundle, tmp_path,
                                             monkeypatch, capsys, command):
        """An empty ``--out`` is standard output for a command that prints.
        Where ``--out`` names the file or directory a command writes, an
        empty one is a usage error that writes nothing."""
        argv = self.argv(command, cli_bundle, tmp_path)
        workdir = tmp_path / "workdir"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        if self.COMMANDS[command][1]:
            assert main(argv + ["--out", ""]) == 1
            printed, error = capsys.readouterr()
            assert (printed, error) == (
                "", "error: argument --out: must name a path, not be empty\n")
            assert list(workdir.iterdir()) == []
            return
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert main(argv + ["--out", ""]) == 0
        assert capsys.readouterr().out == printed != ""


# Valid text on lines 1 and 2; line 3 holds a byte UTF-8 never produces.
_NOT_UTF8 = b"# one\n# two\nbad \xff byte\n"

# name -> argv; BAD is the non-UTF-8 file, B/ the campaign bundle, OUT a
# path to write, SCRIPT a valid query script and INCLUDER a settings file
# whose one line includes BAD.
_NOT_UTF8_COMMANDS = {
    "train-corpus": ["train", "--corpus", "BAD", "--out", "OUT"],
    "score-model": ["score", "--model", "BAD", "--capture", "B/test.capture"],
    "score-capture": ["score", "--model", "B/model.txt", "--capture", "BAD"],
    "detect-model": ["detect", "--model", "BAD", "--capture", "B/test.capture",
                     "--baselines", "B/baselines.txt"],
    "detect-capture": ["detect", "--model", "B/model.txt", "--capture", "BAD",
                       "--baselines", "B/baselines.txt"],
    "detect-baselines": ["detect", "--model", "B/model.txt",
                         "--capture", "B/test.capture", "--baselines", "BAD"],
    "detect-calibrate": ["detect", "--model", "B/model.txt",
                         "--capture", "B/test.capture", "--calibrate", "BAD"],
    "report-model": ["report", "--model", "BAD", "--baselines",
                     "B/baselines.txt", "--capture", "B/test.capture"],
    "report-baselines": ["report", "--model", "B/model.txt", "--baselines",
                         "BAD", "--capture", "B/test.capture"],
    "report-capture": ["report", "--model", "B/model.txt", "--baselines",
                       "B/baselines.txt", "--capture", "BAD"],
    "simulate-script": ["simulate", "--script", "BAD", "--engine",
                        "google_like", "--seed", "9", "--out", "OUT"],
    "simulate-engine": ["simulate", "--script", "SCRIPT", "--engine", "BAD",
                        "--seed", "9", "--out", "OUT"],
    "probe-select-ambiguity": ["probe-select", "--topics", "anorexia",
                               "--ambiguity", "BAD"],
    "campaign-config": ["campaign", "--seed", "5", "--out", "OUT",
                        "--config", "BAD"],
    "campaign-engine": ["campaign", "--seed", "5", "--out", "OUT",
                        "--engine", "BAD"],
    "campaign-include": ["campaign", "--seed", "5", "--out", "OUT",
                         "--config", "INCLUDER"],
}


class TestInputFiles:
    """Every file a command reads goes through ``read_lines``."""

    @pytest.mark.parametrize("name", sorted(_NOT_UTF8_COMMANDS))
    def test_non_utf8_bytes_are_a_data_error_naming_the_line(
            self, cli_bundle, tmp_path, capsys, name):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(_NOT_UTF8)
        script = tmp_path / "s.script"
        script.write_text(TestSimulate.SCRIPT, encoding="utf-8")
        includer = tmp_path / "includer.cfg"
        includer.write_text("include bad.txt\n", encoding="utf-8")
        paths = {"BAD": bad, "OUT": tmp_path / "out", "SCRIPT": script,
                 "INCLUDER": includer}
        argv = [str(cli_bundle / arg[2:]) if arg.startswith("B/")
                else str(paths.get(arg, arg))
                for arg in _NOT_UTF8_COMMANDS[name]]
        assert main(argv) == 2
        assert f"{bad} line 3: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["model", "baselines", "capture"])
    def test_zero_byte_file_is_a_data_error(self, cli_bundle, tmp_path,
                                            capsys, kind):
        inputs = {"model": cli_bundle / "model.txt",
                  "baselines": cli_bundle / "baselines.txt",
                  "capture": cli_bundle / "test.capture",
                  kind: tmp_path / "empty"}
        inputs[kind].write_bytes(b"")
        code = main(["report", *(part for name, path in inputs.items()
                                 for part in (f"--{name}", str(path)))])
        assert code == 2
        assert f"empty {kind} file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["score", "campaign"])
    def test_missing_file_is_a_usage_error(self, cli_bundle, tmp_path,
                                           capsys, command):
        missing = str(tmp_path / "nope.txt")
        if command == "score":
            argv = ["score", "--model", missing,
                    "--capture", str(cli_bundle / "test.capture")]
        else:
            argv = ["campaign", "--seed", "5", "--out", str(tmp_path / "b"),
                    "--config", missing]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "cannot read" in err and "nope.txt" in err

    @given(data=st.binary(max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_read_lines_returns_lines_or_a_package_error(self, tmp_path_factory,
                                                         data):
        path = tmp_path_factory.getbasetemp() / "input.txt"
        path.write_bytes(data)
        try:
            lines = read_lines(path)
        except PriError as exc:
            assert f"{path} line " in str(exc)
        else:
            assert lines == data.decode("utf-8").splitlines()


def _misc(label):
    return "misc" if label == "other" else label


@pytest.fixture(scope="module")
def renamed_bundles(mini_campaign, tmp_path_factory):
    """The seed-11 mini bundle, and a copy whose catch-all is ``misc``."""
    original = tmp_path_factory.mktemp("other")
    write_bundle(mini_campaign, original)
    renamed = tmp_path_factory.mktemp("misc")
    model = mini_campaign.model
    # Rows hold their weights in label order, where the catch-all stays last.
    save_model(PriModel(
        CategorySet(model.categories.sensitive, "misc"),
        model.dictionary,
        model.rows,
        model.empty_categories,
    ), renamed / "model.txt")
    baseline = mini_campaign.baseline
    save_baselines(TopicBaseline(
        {_misc(t): stats for t, stats in baseline.per_topic.items()}, "misc"),
        renamed / "baselines.txt")
    save_capture([SessionTrace(trace.session_id, _misc(trace.topic_label),
                               trace.interactions)
                  for trace in mini_campaign.test_traces],
                 renamed / "test.capture")
    return original, renamed


def _inputs(bundle, baselines=None):
    return ["--model", str(bundle / "model.txt"),
            "--baselines", str(baselines or bundle / "baselines.txt"),
            "--capture", str(bundle / "test.capture")]


class TestCatchallFromTheModel:
    @pytest.mark.parametrize("format, pinned", [("text", "report.txt"),
                                                 ("csv", "report.csv")])
    def test_renamed_catchall_reports_the_same_bytes(self, renamed_bundles,
                                                     capsys, format, pinned):
        expected = (PINNED / pinned).read_text(encoding="utf-8")
        for bundle in renamed_bundles:
            assert main(["report", *_inputs(bundle), "--format", format]) == 0
            assert capsys.readouterr().out == expected

    def test_renamed_catchall_detects_the_same_sessions(self, renamed_bundles,
                                                        capsys):
        outputs = []
        for bundle in renamed_bundles:
            assert main(["detect", *_inputs(bundle)]) == 0
            outputs.append(capsys.readouterr().out)
        assert ",misc," in outputs[1]
        assert outputs[1] == outputs[0].replace(",other,", ",misc,")

    @pytest.mark.parametrize("command", ["detect", "report"])
    def test_baselines_with_another_catchall_are_a_data_error(
            self, renamed_bundles, capsys, command):
        original, renamed = renamed_bundles
        code = main([command, *_inputs(original, renamed / "baselines.txt")])
        assert code == 2
        assert ("baselines catch-all 'misc' differs from the model's 'other'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["detect", "report"])
    def test_catchall_flag_is_gone(self, renamed_bundles, capsys, command):
        original, _ = renamed_bundles
        assert main([command, *_inputs(original), "--catchall", "other"]) == 1
        assert "unrecognized arguments: --catchall" in capsys.readouterr().err

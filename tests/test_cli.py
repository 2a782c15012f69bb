"""Subcommand behaviour, exit codes, and config precedence."""

import dataclasses
import json
import os
from pathlib import Path

import pytest
import yaml

from cryptic_prover import lexfiles
from cryptic_prover.cli import CliConfig, build_parser, main, resolve_config
from cryptic_prover.core import Clue, Pattern
from cryptic_prover.notation import parse_wordplay
from cryptic_prover.oracles import seed_lexicon
from cryptic_prover.verifier import ProofStatus, verify_text

CAMERA_PROOF = lexfiles.seed_path("fixtures/proofs/camera.proof")
RUDE_PROOF = lexfiles.seed_path("fixtures/proofs/rude.proof")
WORKED = lexfiles.seed_path("fixtures/worked_examples.yaml")
GOLDEN_ANNOTATIONS = Path(__file__).parent / "golden" / "notation" / "annotations.txt"


@pytest.fixture(autouse=True)
def sandbox(tmp_path, monkeypatch):
    """Run every command from a scratch directory so writes are contained."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CRYPTIC_PROVER_CONFIG", raising=False)
    monkeypatch.delenv("CRYPTIC_PROVER_SAMPLES", raising=False)
    monkeypatch.delenv("CRYPTIC_PROVER_API_KEY", raising=False)
    return tmp_path


def clue_file(tmp_path, count=1):
    """The first ``count`` clues of the first worked-examples puzzle."""
    with open(WORKED, encoding="utf-8") as fh:
        document = next(yaml.safe_load_all(fh))
    document["clues"] = document["clues"][:count]
    path = tmp_path / "clues.yaml"
    path.write_text(yaml.safe_dump(document, allow_unicode=True), encoding="utf-8")
    return path


class TestParse:
    def test_annotation_prints_tree_and_letters(self, capsys):
        assert main(["parse", "BAN (outlaw) + KING (leader)"]) == 0
        out = capsys.readouterr().out
        assert "Sequence" in out
        assert "letters: BANKING" in out

    def test_bad_annotation_exits_two_with_diagnostic(self, capsys):
        assert main(["parse", "((("]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_file_mode_prints_one_result_per_line(self, tmp_path, capsys):
        path = tmp_path / "wordplays.txt"
        path.write_text("(corset)* (*shredded)\nCAME (arrived) + RA (artist)\n")
        assert main(["parse", "--file", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("CORSET\t")
        assert lines[1].startswith("CAMERA\t")

    def test_file_mode_errors_name_their_line_and_later_lines_still_parse(
        self, tmp_path, capsys
    ):
        path = tmp_path / "wordplays.txt"
        path.write_text("O in V\n\nRA (artist\n(corset)* (*shredded)\n", encoding="utf-8")
        assert main(["parse", "--json", "--file", str(path)]) == 2
        captured = capsys.readouterr()
        errors = captured.err.splitlines()
        assert errors[0].startswith("parse error: line 1: container cannot split its outer part")
        assert errors[1].startswith("parse error: line 3: unclosed parenthesis")
        assert len(errors) == 2
        assert json.loads(captured.out)["letters"] == "CORSET"

    def test_file_lines_end_at_newline_only(self, tmp_path, capsys):
        path = tmp_path / "wordplays.txt"
        path.write_text("CAME (arrived\u2028) + RA (artist)\r\n", encoding="utf-8")
        assert main(["parse", "--file", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.endswith("letters: CAMERA\n")
        assert captured.err == ""

    def test_json_mode_is_machine_parseable(self, capsys):
        assert main(["parse", "--json", "O (nothing) with VICE (wickedness) around it (about)"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["letters"] == "VOICE"
        assert payload["tree"]["kind"] == "Container"

    def test_no_input_is_a_usage_error(self, capsys):
        assert main(["parse"]) == 2

    def test_every_json_tree_node_is_named_by_its_class(self, capsys):
        def check(tree, node):
            assert tree["kind"] == type(node).__name__
            for field in dataclasses.fields(node):
                value = getattr(node, field.name)
                pairs = zip(tree[field.name], value) if isinstance(value, tuple) else [
                    (tree[field.name], value)
                ]
                for child_tree, child in pairs:
                    if dataclasses.is_dataclass(child):
                        check(child_tree, child)

        assert main(["parse", "--json", "--file", str(GOLDEN_ANNOTATIONS)]) == 0
        payloads = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(payloads) == 40
        for payload in payloads:
            check(payload["tree"], parse_wordplay(payload["annotation"]))

    def test_text_tree_shows_a_deletions_position(self, capsys):
        assert main(["parse", "BAN[a]NA"]) == 0
        assert capsys.readouterr().out == (
            "Deletion (removed='A', start=3)\n  Literal (letters='BANANA')\nletters: BANNA\n"
        )


class TestVerify:
    def test_proved_file_exits_zero(self, capsys):
        assert main(["verify", str(CAMERA_PROOF)]) == 0
        assert capsys.readouterr().out.strip() == "PROVED"

    def test_failed_file_exits_one_with_the_report(self, capsys):
        assert main(["verify", str(RUDE_PROOF)]) == 1
        out = capsys.readouterr().out
        assert "AssertionError: assert is_synonym('assistant', 'ASS')" in out
        assert "left side evaluates to 'RUDASS'" in out

    def test_malformed_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.proof"
        path.write_text("this is not a proof\n")
        assert main(["verify", str(path)]) == 2
        assert "ParseError" in capsys.readouterr().out

    def test_lines_end_at_newline_only(self, tmp_path, capsys):
        script = CAMERA_PROOF.read_bytes() + b"# note\rassert 'QQ' == 'ZZ'\n"
        path = tmp_path / "camera.proof"
        path.write_bytes(script)
        assert verify_text(script.decode("utf-8"), seed_lexicon()).status is ProofStatus.PROVED
        assert main(["verify", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "PROVED"

    def test_missing_file_is_a_file_error(self, capsys):
        assert main(["verify", "no-such.proof"]) == 2
        assert "file error" in capsys.readouterr().err

    def test_json_reports_status_and_failures(self, capsys):
        assert main(["verify", "--json", str(RUDE_PROOF)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "FAILED"
        assert [f["index"] for f in payload["failures"]] == [2, 3]
        assert payload["report"]


class TestFormalize:
    ARGS = [
        "formalize",
        "--clue", "arrived with an artist, to get optical device",
        "--pattern", "6",
        "--answer", "CAMERA",
        "--definition", "arrived with an artist, to get {optical device}",
        "--wordplay", "CAME (arrived) + RA (artist, short form)",
    ]

    def test_mock_generator_proves_the_gold_annotation(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "assert 'CAME' + 'RA' == 'CAMERA'" in out
        assert "rewrites_used: 0" in out

    def test_unprovable_request_exits_one(self, capsys):
        args = list(self.ARGS)
        args[args.index("--wordplay") + 1] = "CINEMA (optical device)"
        args[args.index("--answer") + 1] = "CINEMA"
        assert main(args) == 1
        assert "rewrites_used: FAIL" in capsys.readouterr().out

    def test_transcript_lands_under_the_output_dir(self, tmp_path, capsys):
        assert main(self.ARGS + ["--transcript", "camera.jsonl"]) == 0
        saved = tmp_path / "runs" / "camera.jsonl"
        header, record = map(json.loads, saved.read_text(encoding="utf-8").splitlines())
        assert set(header) == {"prefix"}
        assert (record["candidate"], record["sample_index"], record["status"]) == (
            "CAMERA", 0, "PROVED"
        )

    def test_live_generator_requires_the_api_key(self, capsys):
        args = self.ARGS + ["--generator", "live"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "config error" in err

    def test_json_mode(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rewrites_used"] == 0
        assert payload["script"].startswith("proof answer='CAMERA'")


class TestConfiguredSignifiers:
    """An indicators file named in the config reaches the parser and the mock."""

    HIDDEN = "[fo]UND ERMINE D[eer] (conceals)"

    @pytest.fixture
    def config(self, tmp_path):
        (tmp_path / "extra.tsv").write_text("SUBSTRING\tconceals\n", encoding="utf-8")
        seed = [str(path) for path in lexfiles.seed_lexicon_files()["indicators"]]
        path = tmp_path / "config.yaml"
        path.write_text(json.dumps({"indicators": seed + ["extra.tsv"]}), encoding="utf-8")
        return str(path)

    def test_parse_reads_the_configured_signifiers(self, config, capsys):
        assert main(["--config", config, "parse", "--json", self.HIDDEN]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tree"]["kind"] == "Hidden"
        assert payload["letters"] == "UNDERMINED"

    def test_mock_generator_parses_with_the_configured_signifiers(self, config, capsys):
        args = [
            "--config", config,
            "formalize",
            "--clue", "Found ermine, deer conceals damaged",
            "--pattern", "10",
            "--answer", "UNDERMINED",
            "--wordplay", self.HIDDEN,
            "--definition", "Found ermine, deer conceals {damaged}",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "assert action_type('conceals', Action.SUBSTRING)" in out
        assert "rewrites_used: 0" in out


class TestCandidates:
    def test_ranked_words_with_similarities(self, capsys):
        assert main(["candidates", "--span", "escort", "--pattern", "6",
                     "--exclude", "ESCORT", "-k", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        word, similarity = lines[0].split("\t")
        assert word == "SHIELD"
        assert float(similarity) > 0

    def test_bad_pattern_exits_two(self, capsys):
        assert main(["candidates", "--span", "x", "--pattern", "6,"]) == 2
        assert "bad pattern" in capsys.readouterr().err

    def test_unmatchable_pattern_exits_two(self, capsys):
        assert main(["candidates", "--span", "x", "--pattern", "99"]) == 2
        assert "no candidates" in capsys.readouterr().err

    def test_json_mode(self, capsys):
        assert main(["candidates", "--span", "escort", "--pattern", "6",
                     "--json", "-k", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["word"] for entry in payload] == ["ESCORT", "SHIELD"]


class TestExperiment:
    def test_mock_run_reports_full_true_positives(self, tmp_path, capsys):
        clues = clue_file(tmp_path, count=2)
        assert main(["experiment", "--clues", str(clues), "--samples", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"] == 8
        for row in payload["table"]:
            assert row["true_pos"] == 100 and row["false_neg"] == 0
        assert (tmp_path / "runs" / "results.jsonl").exists()

    def test_resume_reuses_the_results_file(self, tmp_path, capsys):
        clues = clue_file(tmp_path)
        base = ["experiment", "--clues", str(clues), "--samples", "2"]
        assert main(base) == 0
        results = tmp_path / "runs" / "results.jsonl"
        before = results.read_bytes()
        assert main(base + ["--resume"]) == 0
        assert results.read_bytes() == before

    def test_transcripts_directory_is_populated(self, tmp_path, capsys):
        clues = clue_file(tmp_path, count=2)
        assert main(["experiment", "--clues", str(clues), "--samples", "1",
                     "--transcripts", "attempts"]) == 0
        # One file per clue.
        assert len(list((tmp_path / "runs" / "attempts").glob("*.jsonl"))) == 2

    @pytest.mark.parametrize(
        "urls, problem",
        [
            (["https://x.test/p.q", "https://x.test/p-q"],
             "clue ids 'p.q#0' and 'p-q#0' give the same transcript file name"),
            (["https://x.test/p.q", "https://x.test/p.q"],
             "every clue needs a unique non-empty clue_id"),
        ],
        ids=["colliding", "duplicate"],
    )
    def test_clue_ids_that_would_share_a_transcript_are_an_input_error(
        self, tmp_path, capsys, urls, problem
    ):
        document = yaml.safe_load(clue_file(tmp_path).read_text(encoding="utf-8"))
        clues = tmp_path / "twins.yaml"
        clues.write_text(
            yaml.safe_dump_all([{**document, "url": url} for url in urls]), encoding="utf-8"
        )
        out = tmp_path / "out"
        code = main(["--output-dir", str(out), "experiment", "--clues", str(clues),
                     "--transcripts", "tr"])
        assert code == 2
        assert capsys.readouterr().err == f"input error: {clues}: {problem}\n"
        assert list(out.rglob("*")) == []

    def test_a_clue_without_a_gold_answer_is_an_input_error(self, tmp_path, capsys):
        clues = clue_file(tmp_path)
        document = yaml.safe_load(clues.read_text(encoding="utf-8"))
        del document["clues"][0]["answer"]
        clues.write_text(yaml.safe_dump(document, allow_unicode=True), encoding="utf-8")
        assert main(["experiment", "--clues", str(clues)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {clues}: clue ")
        assert err.endswith(" has no gold answer\n") and err.count("\n") == 1

    def test_results_cannot_escape_the_output_dir(self, tmp_path, capsys):
        clues = clue_file(tmp_path)
        assert main(["experiment", "--clues", str(clues),
                     "--results", "../escape.jsonl"]) == 2
        assert "refusing to write outside" in capsys.readouterr().err
        assert not (tmp_path / "escape.jsonl").exists()

    def test_empty_clue_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert main(["experiment", "--clues", str(path)]) == 2

    def test_rewrite_cap_is_validated(self, tmp_path, capsys):
        clues = clue_file(tmp_path)
        assert main(["experiment", "--clues", str(clues), "--rewrite-cap", "9"]) == 2
        assert "rewrite cap" in capsys.readouterr().err


class TestMalformedInputFiles:
    """A bad JSON-lines input is one stderr line naming the file and line, exit 2."""

    def assert_input_error(self, capsys, path, line):
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert f"{path}: line {line}: malformed record" in err
        return err

    def test_tabulate(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        assert main(["tabulate", str(path)]) == 2
        self.assert_input_error(capsys, path, 1)

    def test_experiment_annotations_missing_a_key(self, tmp_path, capsys):
        clues = clue_file(tmp_path)
        path = tmp_path / "annotations.jsonl"
        entry = {"clue_id": "x", "candidate": "ESCORT", "definition": "d", "wordplay": "w"}
        path.write_text("\n" + json.dumps(entry) + "\n")
        assert main(["experiment", "--clues", str(clues), "--annotations", str(path)]) == 2
        err = self.assert_input_error(capsys, path, 2)
        assert "missing key 'sample_index'" in err

    def test_experiment_resume(self, tmp_path, capsys):
        clues = clue_file(tmp_path)
        base = ["experiment", "--clues", str(clues), "--samples", "1"]
        assert main(base) == 0
        results = tmp_path / "runs" / "results.jsonl"
        results.write_text("not json\n" + results.read_text())
        capsys.readouterr()
        assert main(base + ["--resume"]) == 2
        self.assert_input_error(capsys, results, 1)

    def test_experiment_replay_generator(self, tmp_path, capsys):
        # An attempt line where the header belongs: line 1 lacks the prefix.
        clues = clue_file(tmp_path)
        path = tmp_path / "transcript.jsonl"
        path.write_text('{"prompt_tail": "p", "response": "r"}\n')
        assert main(["experiment", "--clues", str(clues), "--generator", "replay",
                     "--replay", str(path)]) == 2
        err = self.assert_input_error(capsys, path, 1)
        assert "missing key 'prefix'" in err


class TestUnreadableInputFiles:
    """A text input file that cannot be read is one stderr line naming the file
    and line, exit 2."""

    def assert_input_error(self, capsys, path, line, problem):
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {path}: line {line}: {problem}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "key, content, line, problem, argv",
        [
            ("thesaurus", b"# one column\nsolo\n", 2,
             "expected two TAB-separated columns", ["parse", "X (y)"]),
            ("indicators", b"mixed\n", 1, "expected ACTION<TAB>phrase", ["parse", "X (y)"]),
            ("wordlist", b"ape\n\xff\n", 2, "not UTF-8: byte 0xff", ["parse", "X (y)"]),
            ("embeddings", b"2 16\nfoo 1 2\n", 2, "expected 16 values for 'foo', got 2",
             ["candidates", "--span", "guard", "--pattern", "6"]),
            ("embeddings", b"5 2\nape 1 0\n", 1, "header says 5 vectors, the file has 1",
             ["candidates", "--span", "guard", "--pattern", "6"]),
        ],
    )
    def test_configured_file(self, tmp_path, capsys, key, content, line, problem, argv):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(content)
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump({key: ["bad.txt"] if key == "indicators" else "bad.txt"}))
        assert main(["--config", str(config), *argv]) == 2
        self.assert_input_error(capsys, bad, line, problem)

    @pytest.mark.parametrize("command", [["parse", "--file"], ["verify"]])
    def test_file_named_by_the_command(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"X (y)\n\xff\n")
        assert main([*command, str(bad)]) == 2
        self.assert_input_error(capsys, bad, 2, "not UTF-8: byte 0xff")


class TestMalformedYamlFiles:
    """A bad puzzle or config file is one stderr line naming the file, exit 2.

    libyaml and the pure-Python loader word their errors differently, so
    only the file, the line and the exit code are checked.
    """

    def one_line_error(self, capsys, prefix):
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1
        return err

    def test_clue_file_with_an_unterminated_quoted_scalar(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("title: t\nurl: u\nauthor: a\nclues:\n- pattern: '1'\n  clue: '{x} y\n")
        assert main(["experiment", "--clues", str(path)]) == 2
        err = self.one_line_error(capsys, "input error: ")
        assert f"{path}: line 7: " in err and "from line 6" in err

    def test_clue_missing_its_pattern(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("title: t\nurl: u\nauthor: a\nclues:\n- clue: '{x} y'\n")
        assert main(["experiment", "--clues", str(path)]) == 2
        err = self.one_line_error(capsys, "input error: ")
        assert f"{path}: clue 0 of 't': missing key 'pattern'" in err

    def test_config_file_with_a_syntax_error(self, tmp_path, capsys):
        path = tmp_path / "config.yaml"
        path.write_text("output_dir: out\nsamples: [2\n")
        assert main(["--config", str(path), "tabulate", "results.jsonl"]) == 2
        err = self.one_line_error(capsys, "config error: ")
        assert f"{path}: line 3: " in err


class TestTabulate:
    def test_tabulates_a_results_file(self, tmp_path, capsys):
        clues = clue_file(tmp_path)
        main(["experiment", "--clues", str(clues), "--samples", "1"])
        capsys.readouterr()
        assert main(["tabulate", str(tmp_path / "runs" / "results.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "COMPLETED_PROOFS" in out and "100%" in out

    def test_missing_results_file_exits_two(self, capsys):
        assert main(["tabulate", "nowhere.jsonl"]) == 2

    def test_json_rows(self, tmp_path, capsys):
        clues = clue_file(tmp_path)
        main(["experiment", "--clues", str(clues), "--samples", "1"])
        capsys.readouterr()
        assert main(["tabulate", "--json", str(tmp_path / "runs" / "results.jsonl")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {row["method"] for row in payload} == {
            "COMPLETED_PROOFS", "FASTEST_SOLVE", "MEAN_SOLVE_TIME"
        }


class TestConfigPrecedence:
    def run_experiment_records(self, tmp_path, capsys, global_args=(), extra_args=()):
        clues = clue_file(tmp_path)
        code = main([*global_args, "experiment", "--clues", str(clues),
                     "--json", *extra_args])
        assert code == 0
        return json.loads(capsys.readouterr().out)["records"]

    def test_config_file_overrides_defaults(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text("samples: 2\n")
        records = self.run_experiment_records(
            tmp_path, capsys, global_args=["--config", str(config)]
        )
        assert records == 4

    def test_environment_beats_the_config_file(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "config.yaml"
        config.write_text("samples: 2\n")
        monkeypatch.setenv("CRYPTIC_PROVER_SAMPLES", "3")
        records = self.run_experiment_records(
            tmp_path, capsys, global_args=["--config", str(config)]
        )
        assert records == 6

    def test_flags_beat_everything(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "config.yaml"
        config.write_text("samples: 2\n")
        monkeypatch.setenv("CRYPTIC_PROVER_SAMPLES", "3")
        records = self.run_experiment_records(
            tmp_path,
            capsys,
            global_args=["--config", str(config)],
            extra_args=["--samples", "1"],
        )
        assert records == 2

    def test_config_file_from_the_environment(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "config.yaml"
        config.write_text("samples: 2\n")
        monkeypatch.setenv("CRYPTIC_PROVER_CONFIG", str(config))
        assert self.run_experiment_records(tmp_path, capsys) == 4

    def test_unknown_config_keys_are_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text("sampels: 2\n")
        assert main(["--config", str(config), "parse", "X (y)"]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_a_key_that_is_not_a_string_is_unknown(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text("1: x\nsampels: 2\n")
        assert main(["--config", str(config), "parse", "X (y)"]) == 2
        assert "unknown config keys: 1, sampels" in capsys.readouterr().err

    def test_missing_config_file_exits_two(self, capsys):
        assert main(["--config", "nope.yaml", "parse", "X (y)"]) == 2
        assert "config file not found" in capsys.readouterr().err

    def test_missing_referenced_file_is_a_startup_error(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text("embeddings: missing.txt\n")
        assert main(["--config", str(config), "parse", "X (y)"]) == 2
        assert "missing embeddings file" in capsys.readouterr().err

    def test_config_file_paths_resolve_relative_to_the_file(self, tmp_path, capsys):
        nested = tmp_path / "conf"
        nested.mkdir()
        vectors = nested / "tiny.txt"
        vectors.write_text("1 2\nape 1 0\n")
        config = nested / "config.yaml"
        config.write_text("embeddings: tiny.txt\n")
        assert main(["--config", str(config), "parse", "X (y)"]) == 0

    def test_output_dir_flag_moves_all_writes(self, tmp_path, capsys):
        clues = clue_file(tmp_path)
        assert main(["--output-dir", "elsewhere", "experiment",
                     "--clues", str(clues), "--samples", "1"]) == 0
        assert (tmp_path / "elsewhere" / "results.jsonl").exists()
        assert not (tmp_path / "runs").exists()


# field: (value in a config file or the environment, flag, resolved value).
# A path read from a config file resolves relative to that file.
CONFIG_SETTINGS = {
    "thesaurus": ("t.tsv", (), Path("t.tsv")),
    "abbreviations": ("a.tsv", (), Path("a.tsv")),
    "indicators": (["i1.tsv", "i2.tsv"], (), (Path("i1.tsv"), Path("i2.tsv"))),
    "homophones": ("h.tsv", (), Path("h.tsv")),
    "wordlist": ("w.txt", (), Path("w.txt")),
    "embeddings": ("e.txt", (), Path("e.txt")),
    "output_dir": ("out", ("--output-dir", "out"), Path("out")),
    "generator": ("live", ("--generator", "live"), "live"),
    "replay": ("r.jsonl", ("--replay", "r.jsonl"), Path("r.jsonl")),
    "endpoint": ("http://localhost:8080/v1", (), "http://localhost:8080/v1"),
    "model": ("m-1", (), "m-1"),
    "api_key_env": ("MY_KEY", (), "MY_KEY"),
    "temperature": (0.5, (), 0.5),
    "samples": (3, ("--samples", "3"), 3),
    "rewrite_cap": (2, ("--rewrite-cap", "2"), 2),
}


class TestResolvedConfig:
    """Each CliConfig field set by a config file, the environment and a flag."""

    @pytest.fixture
    def files(self, tmp_path):
        """Every file a setting names, in the working directory and in ``conf``."""
        (tmp_path / "conf").mkdir()
        for directory in (tmp_path, tmp_path / "conf"):
            for name in ("t.tsv", "a.tsv", "i1.tsv", "i2.tsv", "h.tsv", "w.txt",
                         "e.txt", "r.jsonl"):
                (directory / name).write_text("")
        return tmp_path

    def resolve(self, argv=(), env=None):
        flags = list(argv)
        global_flags = flags[:2] if flags[:1] == ["--output-dir"] else []
        args = build_parser().parse_args(
            [*global_flags, "experiment", "--clues", "c.yaml", *flags[len(global_flags):]]
        )
        return resolve_config(args, env or {})

    def expected(self, field, value):
        defaults = CliConfig(
            **lexfiles.seed_lexicon_files(),
            embeddings=lexfiles.seed_path("fixtures/embeddings_16d.txt"),
            output_dir=Path("runs"),
        )
        return dataclasses.replace(defaults, **{field: value})

    def test_every_field_is_covered(self):
        assert set(CONFIG_SETTINGS) == {f.name for f in dataclasses.fields(CliConfig)}

    def test_defaults(self, files):
        assert self.resolve() == self.expected("samples", 5)

    @pytest.mark.parametrize("line", ["indicators: i1.tsv\n", "indicators:\n"])
    def test_indicators_must_be_a_list(self, files, capsys, line):
        (files / "conf" / "config.yaml").write_text(line)
        assert main(["--config", "conf/config.yaml", "parse", "X (y)"]) == 2
        assert capsys.readouterr().err.startswith("config error: indicators must be a list")

    def test_readme_lists_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Configuration\n", 1)[1]
        block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
        assert set(yaml.safe_load(block)) == {f.name for f in dataclasses.fields(CliConfig)}

    @pytest.mark.parametrize("field", CONFIG_SETTINGS)
    def test_config_file(self, files, field):
        value, _, resolved = CONFIG_SETTINGS[field]
        config = files / "conf" / "config.yaml"
        config.write_text(yaml.safe_dump({field: value}))
        if isinstance(resolved, tuple):
            resolved = tuple(Path("conf") / p for p in resolved)
        elif isinstance(resolved, Path):
            resolved = Path("conf") / resolved
        assert self.resolve(env={"CRYPTIC_PROVER_CONFIG": "conf/config.yaml"}) == (
            self.expected(field, resolved)
        )

    @pytest.mark.parametrize("field", CONFIG_SETTINGS)
    def test_environment(self, files, field):
        value, _, resolved = CONFIG_SETTINGS[field]
        raw = os.pathsep.join(value) if isinstance(value, list) else str(value)
        env = {"CRYPTIC_PROVER_" + field.upper(): raw}
        assert self.resolve(env=env) == self.expected(field, resolved)

    @pytest.mark.parametrize(
        "field", [field for field, setting in CONFIG_SETTINGS.items() if setting[1]]
    )
    def test_flag(self, files, field):
        _, flag, resolved = CONFIG_SETTINGS[field]
        assert self.resolve(flag) == self.expected(field, resolved)

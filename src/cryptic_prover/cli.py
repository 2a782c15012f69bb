"""Command-line front end: parse, verify, formalize, candidates, experiment.

Configuration resolves in the conventional order: command-line flags
beat environment variables (``CRYPTIC_PROVER_*``) beat the YAML config
file (``--config`` or ``CRYPTIC_PROVER_CONFIG``) beat the packaged seed
data.  Every file a resolved config references must exist, and every
file a subcommand writes lands under the configured output directory.

Exit codes: 0 success (verify: PROVED), 1 a verification or proving
failure, 2 usage, parse, or configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import NewType, Optional, Sequence, Union

import yaml

from cryptic_prover import dataset, lexfiles, notation
from cryptic_prover.candidates import (
    EmptyCandidateSet,
    closest_candidates,
    load_embeddings,
)
from cryptic_prover.core import Clue, Pattern, PatternError
from cryptic_prover.evalharness import (
    ClueSetError,
    FileAnnotationSource,
    GoldAnnotationSource,
    compare_records,
    load_records,
    render_table,
    run_experiment,
    tabulate,
)
from cryptic_prover.formalize import (
    FAIL,
    MAX_GENERATOR_CALLS,
    CompilerBackedMock,
    GeneratorTranscript,
    HttpChatGenerator,
    ProofRequest,
    ScriptedReplayMock,
    prove_with_rewrites,
    save_transcript,
)
from cryptic_prover.notation import ParseError, parse_wordplay, surface_letters
from cryptic_prover.oracles import Lexicon
from cryptic_prover.verifier import (
    ProofStatus,
    definable,
    render_failure_report,
    verify_text,
)

ENV_PREFIX = "CRYPTIC_PROVER_"

InputFile = NewType("InputFile", Path)
"""A configured path that must name an existing file."""


class ConfigError(ValueError):
    """Bad or unusable configuration; reported on stderr with exit 2."""


def _seed_file(key: str):
    return dataclasses.field(default_factory=lambda: lexfiles.seed_lexicon_files()[key])


@dataclass(frozen=True)
class CliConfig:
    """The resolved configuration; its fields are the whole config schema.

    Each field is a config file key, an environment variable
    ``CRYPTIC_PROVER_<FIELD>`` and, for some, a flag of the same name.
    ``resolve_config`` reads each value as its field's type.
    """

    thesaurus: InputFile = _seed_file("thesaurus")
    abbreviations: InputFile = _seed_file("abbreviations")
    indicators: tuple[InputFile, ...] = _seed_file("indicators")
    homophones: InputFile = _seed_file("homophones")
    wordlist: InputFile = _seed_file("wordlist")
    embeddings: InputFile = dataclasses.field(
        default_factory=lambda: lexfiles.seed_path("fixtures/embeddings_16d.txt")
    )
    output_dir: Path = Path("runs")
    generator: str = "mock"
    replay: Optional[InputFile] = None
    endpoint: str = ""
    model: str = ""
    api_key_env: str = ENV_PREFIX + "API_KEY"
    temperature: Optional[float] = None
    samples: int = 5
    rewrite_cap: int = MAX_GENERATOR_CALLS - 1

    def __post_init__(self):
        if self.samples < 1:
            raise ConfigError(f"samples must be at least 1, got {self.samples}")
        if not 0 <= self.rewrite_cap < MAX_GENERATOR_CALLS:
            raise ConfigError(
                f"rewrite cap must be 0..{MAX_GENERATOR_CALLS - 1}, got {self.rewrite_cap}"
            )
        for key, hint in typing.get_type_hints(CliConfig).items():
            value = getattr(self, key)
            if value is None or InputFile not in (hint, *typing.get_args(hint)):
                continue
            for path in value if isinstance(value, tuple) else (value,):
                if not path.is_file():
                    raise ConfigError(f"missing {key} file: {path}")

    def lexicon(self) -> Lexicon:
        return Lexicon.from_files(
            abbreviations=self.abbreviations,
            thesaurus=self.thesaurus,
            indicators=self.indicators,
            homophones=self.homophones,
            wordlist=self.wordlist,
        )

    def make_generator(self, lexicon: Lexicon):
        """The configured generator; the mock parses wordplay with ``lexicon``."""
        if self.generator == "mock":
            return CompilerBackedMock(lexicon=lexicon)
        if self.generator == "replay":
            if self.replay is None:
                raise ConfigError("generator 'replay' needs a transcript (--replay)")
            return ScriptedReplayMock.from_transcript(self.replay)
        if self.generator == "live":
            if not self.endpoint or not self.model:
                raise ConfigError("generator 'live' needs an endpoint and a model")
            if not os.environ.get(self.api_key_env, ""):
                raise ConfigError(
                    f"generator 'live' is disabled: set {self.api_key_env}"
                )
            return HttpChatGenerator(
                self.endpoint,
                self.model,
                api_key_env=self.api_key_env,
                temperature=self.temperature,
            )
        raise ConfigError(f"unknown generator {self.generator!r}")

    def out_path(self, name: Union[str, Path]) -> Path:
        """Resolve a write target under the output directory, never outside."""
        root = self.output_dir.resolve()
        target = Path(name)
        target = (target if target.is_absolute() else root / target).resolve()
        if not target.is_relative_to(root):
            raise ConfigError(f"refusing to write outside {root}: {target}")
        target.parent.mkdir(parents=True, exist_ok=True)
        return target


def _load_config_file(path: Path) -> dict:
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.load(path.read_bytes(), Loader=dataset.YAML_LOADER) or {}
    except yaml.YAMLError as error:
        raise ConfigError(dataset.yaml_problem(path, error)) from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file must hold a mapping: {path}")
    unknown = set(raw) - {field.name for field in dataclasses.fields(CliConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(map(str, unknown)))}")
    return raw


def _coerce(key: str, hint, raw, base: Path):
    """``raw``, the value set for ``key``, as the field type ``hint``.

    Paths are taken relative to ``base``.  An optional field set to null
    or to the empty string is unset.
    """
    if type(None) in typing.get_args(hint):
        if raw is None or raw == "":
            return None
        hint = typing.get_args(hint)[0]
    if typing.get_origin(hint) is tuple:
        if not isinstance(raw, list):
            raise ConfigError(f"{key} must be a list, got {raw!r}")
        return tuple(_coerce(key, typing.get_args(hint)[0], item, base) for item in raw)
    if raw is None or isinstance(raw, (list, dict)):
        raise ConfigError(f"{key} must be a single value, got {raw!r}")
    if hint in (Path, InputFile):
        return base / str(raw)
    try:
        return hint(raw)
    except ValueError:
        raise ConfigError(f"{key} must be {hint.__name__}, got {raw!r}") from None


def resolve_config(args: argparse.Namespace, env=os.environ) -> CliConfig:
    """Defaults, then config file, then environment, then flags.

    Paths in the config file are relative to the file; those from the
    environment or flags are relative to the working directory.  A list
    in the environment is ``os.pathsep``-separated.
    """
    hints = typing.get_type_hints(CliConfig)
    settings = {}  # key -> (raw value, directory its paths are relative to)
    config_path = getattr(args, "config", None) or env.get(ENV_PREFIX + "CONFIG")
    if config_path:
        base = Path(config_path).parent
        for key, raw in _load_config_file(Path(config_path)).items():
            settings[key] = (raw, base)
    for key, hint in hints.items():
        raw = env.get(ENV_PREFIX + key.upper())
        if raw is not None:
            if typing.get_origin(hint) is tuple:
                raw = [part for part in raw.split(os.pathsep) if part]
            settings[key] = (raw, Path())
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = (flag, Path())
    return CliConfig(
        **{key: _coerce(key, hints[key], raw, base) for key, (raw, base) in settings.items()}
    )


# -- output helpers ----------------------------------------------------------


def _emit_json(payload) -> None:
    print(json.dumps(payload, ensure_ascii=False, sort_keys=True))


def _node_dict(node) -> dict:
    """A wordplay tree as JSON values: each node a dict whose ``kind`` is its class name."""
    out = {"kind": type(node).__name__}
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        if dataclasses.is_dataclass(value):
            value = _node_dict(value)
        elif isinstance(value, tuple):
            value = [
                _node_dict(item) if dataclasses.is_dataclass(item) else item
                for item in value
            ]
        out[field.name] = value
    return out


def _tree_lines(tree: dict, depth=0) -> list[str]:
    """A ``_node_dict`` tree as text: a node's set fields, then its children indented."""
    detail, children = [], []
    for key, value in tree.items():
        if isinstance(value, dict):
            children.append(value)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            children.extend(value)
        elif key != "kind" and value not in ("", [], None) and value is not False:
            shown = tuple(value) if isinstance(value, list) else value
            detail.append(f"{key}={shown!r}")
    lines = ["  " * depth + tree["kind"] + (f" ({', '.join(detail)})" if detail else "")]
    for child in children:
        lines.extend(_tree_lines(child, depth + 1))
    return lines


# -- subcommands -------------------------------------------------------------


def cmd_parse(config: CliConfig, args) -> int:
    annotations = []  # (line number in --file, or None; annotation)
    if args.file:
        lines = enumerate(lexfiles.read_lines(args.file), start=1)
        annotations = [(number, line) for number, line in lines if line.strip()]
    if args.annotation:
        annotations.append((None, args.annotation))
    if not annotations:
        print("nothing to parse: give an annotation or --file", file=sys.stderr)
        return 2

    lexicon = config.lexicon()
    status = 0
    for number, annotation in annotations:
        try:
            node = parse_wordplay(annotation, lexicon)
        except ParseError as error:
            where = "" if number is None else f"line {number}: "
            print(f"parse error: {where}{error}", file=sys.stderr)
            status = 2
            continue
        letters = surface_letters(node)
        if args.json:
            _emit_json(
                {
                    "annotation": annotation,
                    "letters": letters,
                    "notation": notation.render_wordplay(node, lexicon),
                    "tree": _node_dict(node),
                }
            )
        elif len(annotations) > 1:
            print(f"{letters}\t{notation.render_wordplay(node, lexicon)}")
        else:
            print("\n".join(_tree_lines(_node_dict(node))))
            print(f"letters: {letters}")
    return status


def cmd_verify(config: CliConfig, args) -> int:
    outcome = verify_text(lexfiles.read_text(args.proof), config.lexicon())
    report = (
        "" if outcome.status is ProofStatus.PROVED else render_failure_report(outcome)
    )
    if args.json:
        _emit_json(
            {
                "status": outcome.status.name,
                "failures": [
                    {"index": f.index, "message": f.message, "hint": f.hint}
                    for f in outcome.failures
                ],
                "lints": [
                    {"kind": l.kind.name, "severity": l.severity.name, "detail": l.detail}
                    for l in outcome.lints
                ],
                "report": report,
            }
        )
    elif outcome.status is ProofStatus.PROVED:
        print("PROVED")
    else:
        print(report, end="")
    if outcome.status is ProofStatus.PROVED:
        return 0
    return 1 if outcome.status is ProofStatus.FAILED else 2


def cmd_formalize(config: CliConfig, args) -> int:
    try:
        pattern = Pattern.parse(args.pattern)
    except PatternError as error:
        print(f"bad pattern: {error}", file=sys.stderr)
        return 2
    clue = Clue(surface=args.clue, pattern=pattern)
    try:
        request = ProofRequest(
            clue=clue,
            candidate_answer=args.answer,
            definition=args.definition or args.clue,
            wordplay=args.wordplay,
        )
    except ValueError as error:
        print(f"bad request: {error}", file=sys.stderr)
        return 2

    lexicon = config.lexicon()
    generator = config.make_generator(lexicon)
    if definable(request.clue.surface, request.candidate_answer, lexicon):
        transcript = prove_with_rewrites(
            request, generator, lexicon, max_calls=config.rewrite_cap + 1
        )
    else:
        # NO_DEFINITION_CHECK would fail every reply, so no generator call is made.
        reason = (
            "definition pre-check: no clue-edge span is a synonym of "
            f"{request.candidate_answer!r}, so no proof of it can pass NO_DEFINITION_CHECK"
        )
        transcript = GeneratorTranscript((), FAIL, failure_reason=reason)
    if args.transcript:
        save_transcript([(request, transcript)], config.out_path(args.transcript))

    final = transcript.attempts[-1].response if transcript.attempts else ""
    if args.json:
        _emit_json(
            {
                "rewrites_used": transcript.rewrites_used,
                "attempts": len(transcript.attempts),
                "failure_reason": transcript.failure_reason,
                "script": final,
            }
        )
    else:
        if final:
            print(final, end="" if final.endswith("\n") else "\n")
        print(f"rewrites_used: {transcript.rewrites_used}")
        if transcript.failure_reason:
            print(f"reason: {transcript.failure_reason}")
    return 0 if transcript.solved else 1


def cmd_candidates(config: CliConfig, args) -> int:
    try:
        pattern = Pattern.parse(args.pattern)
    except PatternError as error:
        print(f"bad pattern: {error}", file=sys.stderr)
        return 2
    table = load_embeddings(config.embeddings)
    wordlist = lexfiles.load_wordlist(config.wordlist)
    try:
        ranked = closest_candidates(
            args.span, pattern, args.exclude, table, wordlist, k=args.k
        )
    except (EmptyCandidateSet, ValueError) as error:
        print(f"no candidates: {error}", file=sys.stderr)
        return 2
    if args.json:
        _emit_json(
            [{"word": word, "similarity": similarity} for word, similarity in ranked]
        )
    else:
        for word, similarity in ranked:
            print(f"{word}\t{similarity:.4f}")
    return 0


def cmd_experiment(config: CliConfig, args) -> int:
    documents = dataset.load_puzzles(args.clues)
    clues = [clue for document in documents for clue in document.clues]
    if not clues:
        print("no clues in the input file", file=sys.stderr)
        return 2

    annotations = (
        FileAnnotationSource.load(args.annotations) if args.annotations else
        GoldAnnotationSource()
    )
    results_path = config.out_path(args.results)
    transcripts_dir = (
        config.out_path(args.transcripts) if args.transcripts else None
    )
    lexicon = config.lexicon()
    try:
        records = run_experiment(
            clues,
            generator=config.make_generator(lexicon),
            lexicon=lexicon,
            table=load_embeddings(config.embeddings),
            wordlist=lexfiles.load_wordlist(config.wordlist),
            samples_per_candidate=config.samples,
            annotations=annotations,
            results_path=results_path,
            transcripts_dir=transcripts_dir,
            resume=args.resume,
            max_workers=args.workers,
            max_generator_calls=config.rewrite_cap + 1,
        )
    except ClueSetError as error:
        raise dataset.SchemaError(f"{args.clues}: {error}") from None
    rows = tabulate(compare_records(records))
    if args.json:
        _emit_json(
            {
                "records": len(records),
                "results_path": str(results_path),
                "table": [row.as_dict() for row in rows],
            }
        )
    else:
        print(f"{len(records)} records -> {results_path}")
        print(render_table(rows), end="")
    return 0


def cmd_tabulate(config: CliConfig, args) -> int:
    records = load_records(args.results)
    if not records:
        print("no records in the results file", file=sys.stderr)
        return 2
    rows = tabulate(compare_records(records))
    if args.json:
        _emit_json([row.as_dict() for row in rows])
    else:
        print(render_table(rows), end="")
    return 0


# -- argument plumbing -------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cryptic-prover",
        description="Parse cryptic wordplay, compile and verify proofs, "
        "and run the gold-vs-decoy provability experiment.",
    )
    parser.add_argument("--config", help="YAML config file")
    parser.add_argument("--output-dir", dest="output_dir", help="directory all writes go under")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a wordplay annotation")
    p.add_argument("annotation", nargs="?", help="annotation text")
    p.add_argument("--file", help="file of annotations, one per line")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_parse)

    p = sub.add_parser("verify", help="verify a proof script file")
    p.add_argument("proof", help="path to a .proof script")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("formalize", help="generate and verify a proof for one clue")
    p.add_argument("--clue", required=True, help="clue surface text")
    p.add_argument("--pattern", required=True, help="answer pattern, e.g. 6 or 3,4")
    p.add_argument("--answer", required=True, help="candidate answer")
    p.add_argument("--wordplay", required=True, help="wordplay annotation")
    p.add_argument("--definition", help="annotated definition (defaults to the clue)")
    p.add_argument("--generator", choices=["mock", "replay", "live"])
    p.add_argument("--replay", help="transcript file for the replay generator")
    p.add_argument("--transcript", help="save the attempt transcript (under the output dir)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_formalize)

    p = sub.add_parser("candidates", help="nearest pattern-fitting decoy words")
    p.add_argument("--span", required=True, help="definition span text")
    p.add_argument("--pattern", required=True)
    p.add_argument("--exclude", default="", help="ground-truth answer to exclude")
    p.add_argument("-k", type=int, default=5, help="how many candidates")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_candidates)

    p = sub.add_parser("experiment", help="run the provability experiment")
    p.add_argument("--clues", required=True, help="YAML puzzle file with gold answers")
    p.add_argument("--samples", type=int, help="samples per candidate")
    p.add_argument("--rewrite-cap", dest="rewrite_cap", type=int)
    p.add_argument("--generator", choices=["mock", "replay", "live"])
    p.add_argument("--replay", help="transcript file for the replay generator")
    p.add_argument("--annotations", help="JSONL of pre-generated annotations")
    p.add_argument("--results", default="results.jsonl", help="results file name")
    p.add_argument("--transcripts", help="directory name for attempt transcripts")
    p.add_argument("--resume", action="store_true", help="keep finished records")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_experiment)

    p = sub.add_parser("tabulate", help="summarize a results file")
    p.add_argument("results", help="JSONL results file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_tabulate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        return args.handler(config, args)
    except ConfigError as error:
        print(f"config error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"file error: {error}", file=sys.stderr)
        return 2
    except (lexfiles.InputError, dataset.SchemaError) as error:
        print(f"input error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

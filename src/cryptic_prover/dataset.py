"""Reading annotated puzzle files.

A puzzle file is a YAML stream; each document is one puzzle with ``title``,
``url``, ``author`` and a ``clues`` list.  Each clue entry carries:

* ``clue``     - surface text with the definition span(s) wrapped in braces
* ``pattern``  - the answer enumeration, as a string such as ``'8'`` or ``'3,4'``
* ``ad``       - ``A`` (across) or ``D`` (down); defaults to across
* ``answer``   - the gold answer, when known
* ``wordplay`` - community-notation wordplay annotation, when known

Unknown keys on a clue entry are ignored.  A file that is not valid YAML,
or does not have this shape, raises ``SchemaError`` naming the file.

Clues get stable identifiers of the form ``<url-slug>#<index>`` so that
experiment records can be resumed and joined across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any
from urllib.parse import urlparse

import yaml

from cryptic_prover.core import Clue, DefinitionSpan, Direction, Pattern, PatternError

# libyaml's loader builds the same objects as the pure-Python one (both use
# the Python resolver and constructor) and parses several times faster.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_DOC_KEYS = ("title", "url", "author", "clues")
_REQUIRED_CLUE_KEYS = ("clue", "pattern")


class SchemaError(ValueError):
    """A puzzle file does not match the expected shape."""


class UnbalancedBraces(ValueError):
    """A definition annotation has stray or nested braces."""


def extract_definition(annotated: str) -> tuple[list[DefinitionSpan], str]:
    """Split a brace-annotated clue into its spans and plain surface.

    Returned span offsets index into the plain surface, so re-inserting
    braces at those offsets reproduces ``annotated`` exactly.
    """
    spans: list[DefinitionSpan] = []
    plain: list[str] = []
    open_at: int | None = None
    for ch in annotated:
        if ch == "{":
            if open_at is not None:
                raise UnbalancedBraces(f"nested '{{' in {annotated!r}")
            open_at = len(plain)
        elif ch == "}":
            if open_at is None:
                raise UnbalancedBraces(f"unmatched '}}' in {annotated!r}")
            end = len(plain)
            text = "".join(plain[open_at:end])
            spans.append(DefinitionSpan(open_at, end, text))
            open_at = None
        else:
            plain.append(ch)
    if open_at is not None:
        raise UnbalancedBraces(f"unclosed '{{' in {annotated!r}")
    return spans, "".join(plain)


@dataclass(frozen=True)
class PuzzleDocument:
    title: str
    url: str
    author: str
    clues: tuple[Clue, ...]


def _url_slug(url: str) -> str:
    path = urlparse(url).path.rstrip("/")
    if "/" in path:
        slug = path.rsplit("/", 1)[1]
    else:
        slug = path
    return slug or urlparse(url).netloc or "puzzle"


def _clue_from_entry(entry: Any, index: int, slug: str, doc_title: str) -> Clue:
    where = f"clue {index} of {doc_title!r}"
    if not isinstance(entry, dict):
        raise SchemaError(f"{where}: expected a mapping, got {type(entry).__name__}")
    for key in _REQUIRED_CLUE_KEYS:
        if key not in entry:
            raise SchemaError(f"{where}: missing key {key!r}")
    annotated = entry["clue"]
    if not isinstance(annotated, str):
        raise SchemaError(f"{where}: 'clue' must be a string")
    try:
        spans, surface = extract_definition(annotated)
    except ValueError as exc:  # unbalanced braces, or an empty '{}' span
        raise SchemaError(f"{where}: {exc}") from exc
    try:
        pattern = Pattern.parse(str(entry["pattern"]))
    except PatternError as exc:
        raise SchemaError(f"{where}: {exc}") from exc
    ad = entry.get("ad", "A")
    try:
        direction = Direction.from_letter(ad)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc
    answer = entry.get("answer")
    if answer is not None and not isinstance(answer, str):
        raise SchemaError(f"{where}: 'answer' must be a string")
    wordplay = entry.get("wordplay")
    if wordplay is not None and not isinstance(wordplay, str):
        raise SchemaError(f"{where}: 'wordplay' must be a string")
    try:
        return Clue(
            surface=surface,
            pattern=pattern,
            direction=direction,
            gold_answer=answer,
            gold_definition=annotated if spans else None,
            gold_wordplay=wordplay,
            clue_id=f"{slug}#{index}",
        )
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _document_from_mapping(raw: Any, doc_index: int) -> PuzzleDocument:
    if not isinstance(raw, dict):
        raise SchemaError(f"document {doc_index}: expected a mapping")
    for key in _DOC_KEYS:
        if key not in raw:
            raise SchemaError(f"document {doc_index}: missing key {key!r}")
    unknown = set(raw) - set(_DOC_KEYS)
    if unknown:
        raise SchemaError(f"document {doc_index}: extra key {sorted(unknown)[0]!r}")
    clues_raw = raw["clues"]
    if not isinstance(clues_raw, list):
        raise SchemaError(f"document {doc_index}: 'clues' must be a list")
    title = str(raw["title"])
    slug = _url_slug(str(raw["url"]))
    clues = tuple(
        _clue_from_entry(entry, i, slug, title) for i, entry in enumerate(clues_raw)
    )
    return PuzzleDocument(title=title, url=str(raw["url"]), author=str(raw["author"]), clues=clues)


def yaml_problem(path: str | Path, error: yaml.YAMLError) -> str:
    """One line naming ``path`` and, for a syntax error, the line it was found on."""
    mark = getattr(error, "problem_mark", None)
    if mark is None:
        return f"{path}: {' '.join(str(error).split())}"
    detail = f"{path}: line {mark.line + 1}: {error.problem}"
    if error.context and error.context_mark:
        detail += f" ({error.context} from line {error.context_mark.line + 1})"
    return detail


def load_puzzles(path: str | Path) -> list[PuzzleDocument]:
    """Load every puzzle document from a YAML file."""
    try:
        raw_docs = [
            d for d in yaml.load_all(Path(path).read_bytes(), Loader=YAML_LOADER)
            if d is not None
        ]
    except yaml.YAMLError as error:
        raise SchemaError(yaml_problem(path, error)) from None
    try:
        return [_document_from_mapping(raw, i) for i, raw in enumerate(raw_docs)]
    except SchemaError as error:
        raise SchemaError(f"{path}: {error}") from None


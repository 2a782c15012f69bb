"""Parse and render the compact wordplay notation used by crossword solvers.

Solvers annotate how a cryptic answer is assembled with a terse, loosely
standardised dialect.  The conventions this module understands:

* CAPS letters are the letters that end up in the answer, in order.
* ``(corset)* (*shredded)`` marks an anagram and its signifier word.
* ``(LAGER)< (<returned)`` marks a reversal and its signifier.
* ``[c]RAVEN`` / ``ELVE[s]`` mark deleted leading/trailing letters; an
  internal ``AB[c]DE`` marks an internal deletion.  The node keeps where
  the brackets put the removed letters (``start``), so ``BAN[a]NA`` is
  ``BANNA``.
* ``D[one]`` keeps only the initial letter of a clue word.
* ``[fo]UND ERMINE D[eer] (hides)`` marks an answer hidden across words;
  the node keeps the index in the host's letters where the brackets put
  it (``start``), so ``[a]AA A[aa]`` takes ``AA`` + ``A``.
* ``WORD (gloss)`` records the clue phrase the letters came from; a
  ``short form`` note marks an abbreviation rather than a synonym.
* ``"pair" (twins, "we hear")`` marks a homophone, its origin phrase and
  the spoken-word signifier.
* ``X in Y`` / ``Y around X`` mark one fragment inside another; a slash
  in the outer letters (``V/ICE``) marks where they split.
* ``DD`` on its own marks a double definition.
* ``+`` joins fragments; parenthesised ``i.e. ...`` notes, ``X = ...``
  expansions and CAPS mentions are commentary and carry no structure.

``parse_wordplay`` builds a ``WordplayNode`` tree from an annotation,
``render_wordplay`` produces the canonical spelling of a tree, and
``resolve`` checks a tree against an answer (``None`` when its letters
cannot account for it), permuting anagrams, spelling out homophones and
searching container split points as needed.

Each node kind's rules are defined once, here, and every reader uses
them: ``indicator_action`` (the action a node's indicator must signify;
a deletion's follows from its ``start``), ``deletion_split`` (the letters
a deletion keeps before, removes and keeps after), ``hidden_pieces``
(which letters of each host word a hidden answer takes) and
``surface_letters``.  The last two slice at the node's ``start``; nothing
searches for a position the annotation already stated.  The parser, the
renderer, the resolver and ``formalize.compile_wordplay`` all read these.

The parser has four layers.  ``_tokenize`` splits the text into words,
parenthesised groups, quotes and sigils.  Word shapes become units, and
``_classify_group`` reads a group as commentary, a nested annotation, or
glosses, abbreviation markers and signifiers.  ``_assemble`` attaches each
group to its unit: a gloss rewrites the leaf (``_rewrite_leaf``) and a
signifier fills the empty indicator of a node whose action it suits.
``_resolve_structure`` joins the units at container connectors.

Which bare phrases are signifiers (``(hides)``, ``around``) and which
short glosses are abbreviations comes from an ``oracles.Lexicon``:
``parse_wordplay(annotation, lexicon)`` and ``render_wordplay(node,
lexicon)`` take the lexicon the proofs are checked against, and default
to the packaged ``seed_lexicon()``.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from typing import Callable, Optional, Union

from cryptic_prover.core import ActionKind, normalize_letters, phonetic_key
from cryptic_prover.oracles import Lexicon, seed_lexicon


class ParseError(ValueError):
    """Annotation text that does not follow the notation.

    ``position`` is the character offset where parsing stopped and
    ``matched_prefix`` is the annotation text that parsed cleanly.
    """

    def __init__(self, message: str, text: str = "", position: int = 0):
        self.position = position
        self.matched_prefix = text[:position]
        super().__init__(
            f"{message} at position {position} (parsed prefix {self.matched_prefix!r})"
        )


def _require_caps(letters: str, what: str) -> None:
    if not letters or normalize_letters(letters) != letters:
        raise ValueError(f"{what} must be nonempty A-Z letters, got {letters!r}")


@dataclass(frozen=True)
class Literal:
    letters: str

    def __post_init__(self):
        _require_caps(self.letters, "Literal letters")


@dataclass(frozen=True)
class SynonymOf:
    phrase: str
    letters: str

    def __post_init__(self):
        _require_caps(self.letters, "SynonymOf letters")
        if not self.phrase.strip():
            raise ValueError("SynonymOf phrase must be nonempty")


@dataclass(frozen=True)
class AbbrevOf:
    phrase: str
    letters: str

    def __post_init__(self):
        _require_caps(self.letters, "AbbrevOf letters")
        if not self.phrase.strip():
            raise ValueError("AbbrevOf phrase must be nonempty")


@dataclass(frozen=True)
class Anagram:
    source: "WordplayNode"
    indicator: str


@dataclass(frozen=True)
class Reversal:
    source: "WordplayNode"
    indicator: str


@dataclass(frozen=True)
class Deletion:
    """``removed`` taken out of the source's letters at index ``start``."""

    source: "WordplayNode"
    removed: str
    start: int
    indicator: str

    def __post_init__(self):
        _require_caps(self.removed, "Deletion removed letters")
        deletion_split(self)


@dataclass(frozen=True)
class Initials:
    phrases: tuple[str, ...]
    indicator: str

    def __post_init__(self):
        if not self.phrases or not all(p.strip() for p in self.phrases):
            raise ValueError("Initials needs at least one nonempty phrase")
        for phrase in self.phrases:
            for word in phrase.split():
                if not normalize_letters(word):
                    raise ValueError(f"Initials word {word!r} has no letters")


@dataclass(frozen=True)
class Hidden:
    """``letters`` found at index ``start`` of the host's letters.

    Only a run the brackets can write is accepted: inside a one-word host
    with a bracketed letter on each side (``[w]ASTE[r]``), or across a
    longer host from its first word to its last (``[fo]UND ERMINE D[eer]``).
    """

    host_text: str
    indicator: str
    letters: str
    start: int

    def __post_init__(self):
        _require_caps(self.letters, "Hidden letters")
        host = normalize_letters(self.host_text)
        end = self.start + len(self.letters)
        if self.start < 0 or host[self.start : end] != self.letters:
            raise ValueError(
                f"{self.letters!r} is not at index {self.start} of {self.host_text!r}"
            )
        words = [normalize_letters(word) for word in self.host_text.split()]
        if len(words) == 1:
            writable = 0 < self.start and end < len(host)
        else:
            writable = self.start <= len(words[0]) and end >= len(host) - len(words[-1])
        if not writable:
            raise ValueError(
                f"{self.letters!r} at index {self.start} of {self.host_text!r} "
                "cannot be written with brackets"
            )


@dataclass(frozen=True)
class Container:
    outer: "WordplayNode"
    inner: "WordplayNode"
    indicator: str
    outer_split: int = 1
    inserted: bool = False

    def __post_init__(self):
        span = len(surface_letters(self.outer))
        if not 1 <= self.outer_split <= span - 1:
            raise ValueError(
                f"outer_split {self.outer_split} is not a split of {span} letters"
            )


@dataclass(frozen=True)
class Homophone:
    sounds_like: str
    indicator: str
    letters: str = ""
    origin: str = ""

    def __post_init__(self):
        if not self.sounds_like.strip():
            raise ValueError("Homophone sounds_like must be nonempty")
        if not self.letters:
            object.__setattr__(self, "letters", normalize_letters(self.sounds_like))
        _require_caps(self.letters, "Homophone letters")


@dataclass(frozen=True)
class DoubleDefinition:
    pass


@dataclass(frozen=True)
class Sequence:
    parts: tuple["WordplayNode", ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("Sequence needs at least two parts")
        for part in self.parts:
            if isinstance(part, Sequence):
                raise ValueError("Sequence parts must not nest; flatten them")
            if isinstance(part, DoubleDefinition):
                raise ValueError("a double definition stands alone")


WordplayNode = Union[
    Literal,
    SynonymOf,
    AbbrevOf,
    Anagram,
    Reversal,
    Deletion,
    Initials,
    Hidden,
    Container,
    Homophone,
    DoubleDefinition,
    Sequence,
]


# --------------------------------------------------------------------------
# Node rules: what each node kind signifies and which letters it takes.

_NODE_ACTION = {
    Anagram: ActionKind.ANAGRAM,
    Reversal: ActionKind.REVERSE,
    Initials: ActionKind.INITIALS,
    Hidden: ActionKind.SUBSTRING,
    Homophone: ActionKind.HOMOPHONE,
}


def indicator_action(node: WordplayNode) -> Optional[ActionKind]:
    """The action a node's indicator must signify.

    ``None`` for nodes without an indicator (leaves, sequences, double
    definitions) and for inner deletions, which no ``ActionKind`` names.
    A deletion at the start of its source removes first letters, one
    at the end last letters.
    """
    if isinstance(node, Deletion):
        before, _, after = deletion_split(node)
        if not before:
            return ActionKind.REMOVE_FIRST
        return None if after else ActionKind.REMOVE_LAST
    if isinstance(node, Container):
        return ActionKind.GOES_INSIDE if node.inserted else ActionKind.GOES_OUTSIDE
    return _NODE_ACTION.get(type(node))


def deletion_split(node: Deletion) -> tuple[str, str, str]:
    """The source letters as (kept before, removed, kept after), cut at ``start``.

    ValueError when the removed letters are not at ``start``, or when
    nothing would remain.
    """
    s = surface_letters(node.source)
    r = node.removed
    end = node.start + len(r)
    if len(r) >= len(s):
        raise ValueError(f"cannot delete {r!r} from {s!r}: nothing would remain")
    if node.start < 0 or s[node.start : end] != r:
        raise ValueError(f"{r!r} is not at index {node.start} of {s!r}")
    return s[: node.start], r, s[end:]


def hidden_pieces(node: Hidden) -> list[tuple[str, str, str]]:
    """Per host word, its letters before, inside and after the hidden answer."""
    start, end = node.start, node.start + len(node.letters)
    pieces = []
    offset = 0
    for norm in map(normalize_letters, node.host_text.split()):
        lo = min(max(start - offset, 0), len(norm))
        hi = min(max(end - offset, 0), len(norm))
        pieces.append((norm[:lo], norm[lo:hi], norm[hi:]))
        offset += len(norm)
    return pieces


def surface_letters(node: WordplayNode) -> str:
    """The answer letters a node contributes, before any permuting action.

    Anagram sources are reported unpermuted and a homophone reports its
    recorded letters; ``resolve`` handles matching those against an
    answer.  A double definition contributes no letters of its own.
    """
    if isinstance(node, (Literal, SynonymOf, AbbrevOf)):
        return node.letters
    if isinstance(node, Anagram):
        return surface_letters(node.source)
    if isinstance(node, Reversal):
        return surface_letters(node.source)[::-1]
    if isinstance(node, Deletion):
        before, _, after = deletion_split(node)
        return before + after
    if isinstance(node, Initials):
        return "".join(
            normalize_letters(word)[:1]
            for phrase in node.phrases
            for word in phrase.split()
        )
    if isinstance(node, Hidden):
        return node.letters
    if isinstance(node, Container):
        outer = surface_letters(node.outer)
        k = node.outer_split
        return outer[:k] + surface_letters(node.inner) + outer[k:]
    if isinstance(node, Homophone):
        return node.letters
    if isinstance(node, DoubleDefinition):
        return ""
    if isinstance(node, Sequence):
        return "".join(surface_letters(p) for p in node.parts)
    raise TypeError(f"not a wordplay node: {node!r}")


# --------------------------------------------------------------------------
# Tokenizer


@dataclass(frozen=True)
class _Token:
    kind: str  # WORD GROUP DQUOTE SQUOTE STAR LT PLUS MINUS
    text: str
    pos: int


_WORD_RE = re.compile(r"(?:\[[A-Za-z'’]+\]|[A-Za-z][A-Za-z'’/]*)+")
_SEG_RE = re.compile(r"\[([A-Za-z'’]+)\]|([A-Za-z'’/]+)")
_SIGILS = {"*": "STAR", "<": "LT", "+": "PLUS", "-": "MINUS"}


def _tokenize(text: str, full: str, base: int = 0) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace() or ch == ",":
            i += 1
            continue
        if ch == "(":
            depth = 1
            j = i + 1
            while j < n and depth:
                if text[j] == "(":
                    depth += 1
                elif text[j] == ")":
                    depth -= 1
                j += 1
            if depth:
                raise ParseError("unclosed parenthesis", full, base + i)
            tokens.append(_Token("GROUP", text[i + 1 : j - 1], base + i))
            i = j
            continue
        if ch in "\"“”":
            j = i + 1
            while j < n and text[j] not in "\"“”":
                j += 1
            if j >= n:
                raise ParseError("unclosed double quote", full, base + i)
            tokens.append(_Token("DQUOTE", text[i + 1 : j], base + i))
            i = j + 1
            continue
        if ch in "'’":
            j = i + 1
            while j < n and text[j] not in "'’":
                j += 1
            if j >= n:
                raise ParseError("unclosed quote", full, base + i)
            tokens.append(_Token("SQUOTE", text[i + 1 : j], base + i))
            i = j + 1
            continue
        if ch in _SIGILS:
            tokens.append(_Token(_SIGILS[ch], ch, base + i))
            i += 1
            continue
        if ch.isalpha() or ch == "[":
            m = _WORD_RE.match(text, i)
            if m:
                tokens.append(_Token("WORD", m.group(), base + i))
                i = m.end()
                continue
        raise ParseError(f"unexpected character {ch!r}", full, base + i)
    return tokens


def _segments(word_text: str) -> list[tuple[str, str]]:
    return [
        ("brkt", m.group(1)) if m.group(1) is not None else ("bare", m.group(2))
        for m in _SEG_RE.finditer(word_text)
    ]


def _is_caps(segment_text: str) -> bool:
    clean = re.sub(r"['’/]", "", segment_text)
    return bool(clean) and clean.isupper()


# --------------------------------------------------------------------------
# Item layer: units, plain words and container signifiers


@dataclass
class _Unit:
    node: WordplayNode
    pos: int
    split_marker: Optional[int] = None


@dataclass
class _Word:
    text: str
    pos: int


@dataclass
class _CSig:
    text: str
    pos: int


_Item = Union[_Unit, _Word, _CSig]

_ABBREV_MARKERS = {"short form", "abbreviation", "abbrev", "abbr", "for short", "short for"}
_GLUE_WORDS = {"of", "to", "on", "a", "an", "the", "and", "it", "is", "for"}
_CONTAINER_ACTIONS = {ActionKind.GOES_INSIDE, ActionKind.GOES_OUTSIDE}
# The actions a prefixed signifier names: ``(*shredded)`` an anagram,
# ``(<returned)`` a reversal and ``(-dropped)`` any deletion, whose
# ``indicator_action`` is None when it is inner.
_PREFIX_ACTIONS = {
    "*": {ActionKind.ANAGRAM},
    "<": {ActionKind.REVERSE},
    "-": {ActionKind.REMOVE_FIRST, ActionKind.REMOVE_LAST, None},
}


def _rewrite_leaf(
    node: WordplayNode, rewrite: Callable[[WordplayNode], Optional[WordplayNode]]
) -> Optional[WordplayNode]:
    """Rewrite the leaf under any anagram, reversal or deletion; None if ``rewrite`` declines."""
    if isinstance(node, (Anagram, Reversal, Deletion)):
        sub = _rewrite_leaf(node.source, rewrite)
        return dataclasses.replace(node, source=sub) if sub is not None else None
    return rewrite(node)


def _wrap_gloss(node: WordplayNode, phrase: str, abbrev: bool, lexicon: Lexicon) -> Optional[WordplayNode]:
    """Attach an origin gloss to the innermost bare Literal, if there is one."""

    def gloss(leaf: WordplayNode) -> Optional[WordplayNode]:
        if isinstance(leaf, Literal):
            if abbrev or (len(leaf.letters) <= 3 and leaf.letters in lexicon.short_forms(phrase)):
                return AbbrevOf(phrase, leaf.letters)
            return SynonymOf(phrase, leaf.letters)
        if isinstance(leaf, Homophone) and not leaf.origin and not abbrev:
            return dataclasses.replace(leaf, origin=phrase)
        return None

    return _rewrite_leaf(node, gloss)


# --------------------------------------------------------------------------
# Group classification


@dataclass
class _Group:
    kind: str  # "commentary" | "unit" | "parts"
    parts: list[tuple] = dataclasses.field(default_factory=list)
    node: Optional[WordplayNode] = None
    pos: int = 0


def _classify_group(token: _Token, lexicon: Lexicon, full: str) -> _Group:
    content = token.text.strip()
    if content == "DD":
        raise ParseError("unexpected DD marker", full, token.pos)
    if "(" in content:
        node = _assemble(_tokenize(content, full, token.pos + 1), full, lexicon)
        return _Group("unit", node=node, pos=token.pos)

    raw_parts = [p.strip() for p in content.split(",") if p.strip()]
    if not raw_parts:
        raise ParseError("empty parentheses", full, token.pos)
    if raw_parts[0].casefold().startswith("i.e."):
        return _Group("commentary", pos=token.pos)

    roles: list[tuple] = []
    for part in raw_parts:
        part = re.split(r"\s*=\s*", part, maxsplit=1)[0].strip()
        if not part:
            continue
        if part[0] in "\"“”" and part[-1] in "\"“”" and len(part) >= 3:
            roles.append(("sig", part[1:-1], {ActionKind.HOMOPHONE}))
            continue
        if part[0] in _PREFIX_ACTIONS:
            roles.append(("sig", part[1:].strip(), _PREFIX_ACTIONS[part[0]]))
            continue
        if any(_is_caps(w) for w in part.split()):
            roles.append(("commentary", part))
            continue
        actions = lexicon.actions(part)
        if actions:
            roles.append(("sig", part, set(actions)))
            continue
        if part.casefold() in _ABBREV_MARKERS:
            roles.append(("abbrev", part))
            continue
        roles.append(("gloss", part))
    if all(role[0] == "commentary" for role in roles):
        return _Group("commentary", pos=token.pos)
    return _Group("parts", parts=roles, pos=token.pos)


def _container_sig(group: _Group) -> Optional[str]:
    """The text of a group whose one live part signifies only containment."""
    live = [r for r in group.parts if r[0] != "commentary"]
    if len(live) == 1 and live[0][0] == "sig" and live[0][2] <= _CONTAINER_ACTIONS:
        return live[0][1]
    return None


def _apply_group(
    unit: _Unit, group: _Group, lexicon: Lexicon, items: list[_Item], boundary: int = -1
) -> bool:
    """Try to attach every live part of a group to a unit; commit only if all fit."""
    node = unit.node
    glossed = False
    abbrev = any(r[0] == "abbrev" for r in group.parts)
    for role in group.parts:
        kind = role[0]
        if kind in ("commentary", "abbrev"):
            continue
        if kind == "gloss":
            if glossed:
                continue  # later glosses are commentary
            wrapped = _wrap_gloss(node, role[1], abbrev, lexicon)
            if wrapped is None:
                return False
            node = wrapped
            glossed = True
            continue
        # A signifier: ("sig", text, the actions it may signify).
        text, wanted = role[1], role[2]
        if ActionKind.INITIALS in wanted and isinstance(node, Initials) and node.indicator == "":
            node = _merge_initials_run(unit, node, text, items, boundary)
            continue
        # It fills an empty indicator slot of a node whose action it suits.
        if indicator_action(node) not in wanted or getattr(node, "indicator", None) != "":
            return False
        node = dataclasses.replace(node, indicator=text)
    if abbrev and not glossed:
        marked = _rewrite_leaf(
            node,
            lambda syn: AbbrevOf(syn.phrase, syn.letters) if isinstance(syn, SynonymOf) else None,
        )
        if marked is None:
            return False
        node = marked
    unit.node = node
    return True


def _merge_initials_run(
    unit: _Unit, node: Initials, indicator: str, items: list[_Item], boundary: int
) -> Initials:
    """Fold adjacent initial-letter units into one node when a signifier lands."""
    phrases = list(node.phrases)
    while (
        len(items) >= 2
        and len(items) - 2 >= boundary
        and items[-1] is unit
        and isinstance(items[-2], _Unit)
        and isinstance(items[-2].node, Initials)
        and items[-2].node.indicator == ""
    ):
        phrases = list(items[-2].node.phrases) + phrases
        del items[-2]
    return Initials(tuple(phrases), indicator)


# --------------------------------------------------------------------------
# Word-token shapes


def _word_item(token: _Token, full: str) -> _Item:
    segs = _segments(token.text)
    kinds = [k for k, _ in segs]
    texts = [t for _, t in segs]

    if kinds == ["bare"]:
        seg = texts[0]
        if not _is_caps(seg):
            return _Word(token.text, token.pos)
        split_marker = None
        if "/" in seg:
            head, _, tail = seg.partition("/")
            if "/" in tail or not head or not tail:
                raise ParseError("malformed split marker", full, token.pos)
            split_marker = len(normalize_letters(head))
        return _Unit(Literal(normalize_letters(seg)), token.pos, split_marker)

    for kind, seg in segs:
        if kind == "bare" and not _is_caps(seg):
            raise ParseError(
                f"expected capitals next to brackets in {token.text!r}", full, token.pos
            )
    caps = [normalize_letters(t) for t in texts]

    if kinds == ["bare", "brkt"] and len(caps[0]) == 1 and len(caps[1]) > 1:
        return _Unit(Initials(((texts[0] + texts[1]).lower(),), ""), token.pos)
    if kinds in (["brkt", "bare"], ["bare", "brkt"], ["bare", "brkt", "bare"]):
        cut = kinds.index("brkt")
        deletion = Deletion(Literal("".join(caps)), caps[cut], len("".join(caps[:cut])), "")
        return _Unit(deletion, token.pos)
    if kinds == ["brkt", "bare", "brkt"]:
        host = "".join(texts).lower()
        return _Unit(Hidden(host, "", caps[1], len(caps[0])), token.pos)
    raise ParseError(f"unrecognized word shape {token.text!r}", full, token.pos)


def _try_hidden_run(
    tokens: list[_Token], start: int, lexicon: Lexicon, full: str
) -> Optional[tuple[_Unit, int]]:
    """Detect multi-word hidden answers and merged CAPS phrases.

    Returns the unit and the index just past the consumed tokens.
    """
    run: list[list[tuple[str, str]]] = []
    j = start
    while j < len(tokens) and tokens[j].kind == "WORD":
        segs = _segments(tokens[j].text)
        has_brkt = any(k == "brkt" for k, _ in segs)
        bare = [t for k, t in segs if k == "bare"]
        if not all(_is_caps(t) for t in bare) or not (has_brkt or bare):
            break
        run.append(segs)
        j += 1
    if len(run) < 2:
        return None

    shape_ok = True
    for wi, segs in enumerate(run):
        for si, (kind, _) in enumerate(segs):
            if kind != "brkt":
                continue
            leading = wi == 0 and si == 0
            trailing = wi == len(run) - 1 and si == len(segs) - 1
            if not (leading or trailing):
                shape_ok = False
    has_brackets = any(k == "brkt" for segs in run for k, _ in segs)
    next_is_substring_sig = False
    if j < len(tokens) and tokens[j].kind == "GROUP":
        next_is_substring_sig = ActionKind.SUBSTRING in lexicon.actions(tokens[j].text)

    if shape_ok and (has_brackets or next_is_substring_sig):
        words = ["".join(t for _, t in segs).lower() for segs in run]
        letters = "".join(
            normalize_letters(t) for segs in run for k, t in segs if k == "bare"
        )
        if not letters:
            raise ParseError("hidden words carry no capitals", full, tokens[start].pos)
        kind, text = run[0][0]
        offset = len(normalize_letters(text)) if kind == "brkt" else 0
        return _Unit(Hidden(" ".join(words), "", letters, offset), tokens[start].pos), j
    if not has_brackets:
        letters = "".join(normalize_letters(t) for segs in run for _, t in segs)
        return _Unit(Literal(letters), tokens[start].pos), j
    return None


# --------------------------------------------------------------------------
# Assembly


def _operand_node(content: str, full: str, base: int, lexicon: Lexicon) -> WordplayNode:
    tokens = _tokenize(content, full, base)
    if not tokens:
        raise ParseError("empty operand", full, base)
    if all(t.kind == "WORD" for t in tokens):
        letters = normalize_letters("".join(t.text for t in tokens))
        if not letters:
            raise ParseError("operand has no letters", full, base)
        return Literal(letters)
    return _assemble(tokens, full, lexicon)


def _is_double_definition(text: str, tokens: list[_Token]) -> bool:
    if text.strip().casefold() in ("dd", "double definition"):
        return True
    dd_groups = [t for t in tokens if t.kind == "GROUP" and t.text.strip() == "DD"]
    others = [t for t in tokens if t not in dd_groups]
    return len(dd_groups) == 1 and all(
        t.kind == "WORD" and all(not _is_caps(s) for k, s in _segments(t.text) if k == "bare")
        for t in others
    )


def _assemble(tokens: list[_Token], full: str, lexicon: Lexicon) -> WordplayNode:
    items: list[_Item] = []
    pending: list[_Group] = []
    # A "+" closes the fragment before it: groups and quotes that follow
    # belong to the next fragment and must not attach backwards.
    boundary = -1

    def previous_unit() -> Optional[_Unit]:
        """The unit a group, quote or removal note attaches back to, if any."""
        if items and len(items) != boundary and isinstance(items[-1], _Unit):
            return items[-1]
        return None

    def new_unit(unit: _Unit) -> None:
        for group in pending:
            if not _apply_group(unit, group, lexicon, items):
                raise ParseError("signifier does not fit what follows it", full, group.pos)
        pending.clear()
        items.append(unit)

    i = 0
    while i < len(tokens):
        token = tokens[i]
        if token.kind == "WORD":
            found = _try_hidden_run(tokens, i, lexicon, full)
            if found:
                unit, i = found
                new_unit(unit)
                continue
            item = _word_item(token, full)
            if isinstance(item, _Unit):
                new_unit(item)
            else:
                items.append(item)
            i += 1
            continue
        if token.kind == "GROUP":
            nxt = tokens[i + 1] if i + 1 < len(tokens) else None
            if nxt is not None and nxt.kind in ("STAR", "LT"):
                source = _operand_node(token.text, full, token.pos + 1, lexicon)
                node = (Anagram if nxt.kind == "STAR" else Reversal)(source, "")
                new_unit(_Unit(node, token.pos))
                i += 2
                continue
            group = _classify_group(token, lexicon, full)
            if group.kind == "commentary":
                i += 1
                continue
            if group.kind == "unit":
                new_unit(_Unit(group.node, token.pos))
                i += 1
                continue
            sig = _container_sig(group)
            if sig is not None:
                items.append(_CSig(sig, token.pos))
                i += 1
                continue
            last = previous_unit()
            if last is not None and _apply_group(last, group, lexicon, items, boundary):
                i += 1
                continue
            if all(r[0] in ("sig", "commentary") for r in group.parts):
                pending.append(group)
                i += 1
                continue
            raise ParseError("gloss does not attach to anything", full, token.pos)
        if token.kind == "DQUOTE":
            last = previous_unit()
            if last is not None and isinstance(last.node, Literal):
                last.node = Homophone(token.text, "", letters=last.node.letters)
                last.split_marker = None
            else:
                new_unit(_Unit(Homophone(token.text, ""), token.pos))
            i += 1
            continue
        if token.kind == "MINUS":
            nxt = tokens[i + 1] if i + 1 < len(tokens) else None
            last = previous_unit()
            if nxt is None or nxt.kind != "SQUOTE":
                raise ParseError("expected quoted letters after '-'", full, token.pos)
            if last is None or not isinstance(last.node, Deletion):
                raise ParseError("removal note without a deletion", full, token.pos)
            if normalize_letters(nxt.text) != last.node.removed:
                raise ParseError(
                    f"removal note {nxt.text!r} does not match deleted letters "
                    f"{last.node.removed!r}",
                    full,
                    nxt.pos,
                )
            i += 2
            continue
        if token.kind == "PLUS":
            boundary = len(items)
            i += 1
            continue
        if token.kind == "SQUOTE":
            raise ParseError("quoted letters without a preceding '-'", full, token.pos)
        raise ParseError(f"dangling {token.text!r}", full, token.pos)

    if pending:
        raise ParseError("dangling signifier group", full, pending[0].pos)
    return _resolve_structure(items, full, lexicon)


def _resolve_structure(items: list[_Item], full: str, lexicon: Lexicon) -> WordplayNode:
    """Turn the flat item list into a tree, resolving container phrases."""
    nodes: list[tuple[WordplayNode, Optional[int]]] = []

    def next_unit(start: int) -> tuple[_Unit, int]:
        k = start
        while k < len(items):
            item = items[k]
            if isinstance(item, _Unit):
                return item, k + 1
            if isinstance(item, _Word) and item.text.casefold() in _GLUE_WORDS:
                k += 1
                continue
            break
        raise ParseError("expected wordplay after connector", full, pos_of(start))

    def pos_of(index: int) -> int:
        return items[index].pos if index < len(items) else (items[-1].pos if items else 0)

    i = 0
    while i < len(items):
        item = items[i]
        if isinstance(item, _Unit):
            nodes.append((item.node, item.split_marker))
            i += 1
            continue
        if isinstance(item, _CSig):
            if nodes and isinstance(nodes[-1][0], Container):
                container, _ = nodes[-1]
                nodes[-1] = (dataclasses.replace(container, indicator=item.text), None)
                i += 1
                continue
            raise ParseError("container signifier without a container", full, item.pos)

        # A plain word: try multi-word connector phrases, longest first.
        phrase = None
        actions: frozenset[ActionKind] = frozenset()
        span = 0
        for width in (3, 2, 1):
            if i + width > len(items):
                continue
            window = items[i : i + width]
            if not all(isinstance(w, _Word) for w in window):
                continue
            candidate = " ".join(w.text for w in window).casefold()
            found = lexicon.actions(candidate)
            if found & _CONTAINER_ACTIONS:
                phrase, actions, span = " ".join(w.text for w in window), found, width
                break
        if phrase is not None:
            # "L around R" wraps L around R and "L in R" puts L inside R.  In
            # "R L around it", "it" is the operand before L.
            inserted = ActionKind.GOES_OUTSIDE not in actions
            after = i + span
            wraps_it = (
                not inserted
                and after < len(items)
                and isinstance(items[after], _Word)
                and items[after].text.casefold() == "it"
            )
            if wraps_it and len(nodes) < 2:
                raise ParseError("nothing for the container to wrap", full, item.pos)
            if not nodes:
                raise ParseError("container connector without left operand", full, item.pos)
            if wraps_it:
                right, i = nodes.pop(-2), after + 1
            else:
                right_unit, i = next_unit(after)
                right = (right_unit.node, right_unit.split_marker)
            left = nodes.pop()
            (outer, marker), (inner, _) = (right, left) if inserted else (left, right)
            try:
                container = Container(outer, inner, phrase, marker or 1, inserted)
            except ValueError as error:  # an outer part too short to wrap anything
                message = f"container cannot split its outer part: {error}"
                raise ParseError(message, full, item.pos) from None
            nodes.append((container, None))
            continue
        fold = item.text.casefold()
        if fold == "with" or fold in _GLUE_WORDS:
            i += 1
            continue
        raise ParseError(f"unresolved word {item.text!r}", full, item.pos)

    plain = [node for node, _ in nodes]
    if not plain:
        raise ParseError("annotation assembles no letters", full, 0)
    if len(plain) == 1:
        return plain[0]
    return Sequence(tuple(plain))


def parse_wordplay(annotation: str, lexicon: Optional[Lexicon] = None) -> WordplayNode:
    """Parse a wordplay annotation into its node tree.

    ``lexicon`` says which phrases are signifiers (``Lexicon.actions``) and
    which short glosses are abbreviations (``Lexicon.short_forms``); it
    should be the lexicon the resulting proof is verified against.
    ``None`` means the packaged ``seed_lexicon()``.
    """
    if not annotation or not annotation.strip():
        raise ParseError("empty annotation", annotation, 0)
    if lexicon is None:
        lexicon = seed_lexicon()
    tokens = _tokenize(annotation, annotation)
    if _is_double_definition(annotation, tokens):
        return DoubleDefinition()
    return _assemble(tokens, annotation, lexicon)


# --------------------------------------------------------------------------
# Rendering


def _leaf_text(node: WordplayNode, letters: Optional[str] = None) -> str:
    shown = letters if letters is not None else node.letters
    if isinstance(node, Literal):
        return shown
    if isinstance(node, SynonymOf):
        return f"{shown} ({node.phrase})"
    if isinstance(node, AbbrevOf):
        return f"{shown} ({node.phrase}, short form)"
    raise TypeError(f"not a leaf: {node!r}")


def _render_deletion(node: Deletion) -> str:
    before, removed, after = deletion_split(node)
    body = f"{before}[{removed.lower()}]{after}"
    if isinstance(node.source, (SynonymOf, AbbrevOf)):
        body = _leaf_text(node.source, body)
    if node.indicator:
        body += f" (-{node.indicator})"
    return body


def _render_initials(node: Initials) -> str:
    words = []
    for phrase in node.phrases:
        for word in phrase.split():
            head = normalize_letters(word)[:1]
            tail = word[len(head) :] if len(word) > len(head) else ""
            words.append(f"{head}[{tail}]" if tail else head)
    text = " ".join(words)
    if node.indicator:
        text += f" ({node.indicator})"
    return text


def _render_hidden(node: Hidden) -> str:
    rendered = []
    for before, taken, after in hidden_pieces(node):
        if not taken:
            rendered.append(f"[{(before + after).lower()}]")
        else:
            rendered.append(
                (f"[{before.lower()}]" if before else "")
                + taken
                + (f"[{after.lower()}]" if after else "")
            )
    text = " ".join(rendered)
    if node.indicator:
        text += f" ({node.indicator})"
    return text


def _render_container(node: Container, lexicon: Lexicon) -> str:
    if isinstance(node.outer, (Literal, SynonymOf, AbbrevOf)) and node.outer_split != 1:
        letters = node.outer.letters
        marked = letters[: node.outer_split] + "/" + letters[node.outer_split :]
        outer_text = _leaf_text(node.outer, marked)
    else:
        outer_text = render_wordplay(node.outer, lexicon)
    inner_text = render_wordplay(node.inner, lexicon)
    if node.indicator and indicator_action(node) in lexicon.actions(node.indicator):
        connector = node.indicator
    else:
        connector = "in" if node.inserted else "around"
    if node.inserted:
        text = f"{inner_text} {connector} {outer_text}"
    else:
        text = f"{outer_text} {connector} {inner_text}"
    if node.indicator and node.indicator != connector:
        text += f" ({node.indicator})"
    return text


def _render_homophone(node: Homophone) -> str:
    text = f'"{node.sounds_like}"'
    if node.letters != normalize_letters(node.sounds_like):
        text = f"{node.letters} {text}"
    notes = []
    if node.origin:
        notes.append(node.origin)
    if node.indicator:
        notes.append(f'"{node.indicator}"')
    if notes:
        text += f" ({', '.join(notes)})"
    return text


def render_wordplay(node: WordplayNode, lexicon: Optional[Lexicon] = None) -> str:
    """Render a node tree in canonical notation; parse_wordplay inverts it.

    A container connector is written inline only when ``lexicon`` (``None``
    means ``seed_lexicon()``) knows it, so parse with the same lexicon.
    """
    if lexicon is None:
        lexicon = seed_lexicon()
    if isinstance(node, (Literal, SynonymOf, AbbrevOf)):
        return _leaf_text(node)
    if isinstance(node, Anagram):
        text = f"({render_wordplay(node.source, lexicon)})*"
        return f"{text} (*{node.indicator})" if node.indicator else text
    if isinstance(node, Reversal):
        text = f"({render_wordplay(node.source, lexicon)})<"
        return f"{text} (<{node.indicator})" if node.indicator else text
    if isinstance(node, Deletion):
        return _render_deletion(node)
    if isinstance(node, Initials):
        return _render_initials(node)
    if isinstance(node, Hidden):
        return _render_hidden(node)
    if isinstance(node, Container):
        return _render_container(node, lexicon)
    if isinstance(node, Homophone):
        return _render_homophone(node)
    if isinstance(node, DoubleDefinition):
        return "DD"
    if isinstance(node, Sequence):
        return " + ".join(render_wordplay(p, lexicon) for p in node.parts)
    raise TypeError(f"not a wordplay node: {node!r}")


# --------------------------------------------------------------------------
# Resolution against an answer


@dataclass(frozen=True)
class Resolved:
    """A node matched against the exact letters it contributes to an answer."""

    node: WordplayNode
    letters: str
    parts: tuple["Resolved", ...] = ()
    split: Optional[int] = None


def _candidate_lengths(part: WordplayNode, available: int) -> list[int]:
    if isinstance(part, Homophone):
        return list(range(1, available + 1))
    span = len(surface_letters(part))
    return [span] if span <= available else []


def _resolve(node: WordplayNode, target: str) -> Optional[Resolved]:
    if isinstance(node, (Literal, SynonymOf, AbbrevOf, Initials, Hidden)):
        return Resolved(node, target) if surface_letters(node) == target else None
    if isinstance(node, Anagram):
        src = surface_letters(node.source)
        if sorted(src) == sorted(target) and target:
            sub = _resolve(node.source, src)
            if sub is not None:
                return Resolved(node, target, (sub,))
        return None
    if isinstance(node, Reversal):
        sub = _resolve(node.source, target[::-1])
        return Resolved(node, target, (sub,)) if sub is not None else None
    if isinstance(node, Deletion):
        if surface_letters(node) != target:
            return None
        src = surface_letters(node.source)
        sub = _resolve(node.source, src)
        return Resolved(node, target, (sub,)) if sub is not None else None
    if isinstance(node, Homophone):
        found = node.letters == target or (
            bool(target) and phonetic_key(node.letters) == phonetic_key(target)
        )
        return Resolved(node, target) if found else None
    if isinstance(node, DoubleDefinition):
        return Resolved(node, target) if target else None
    if isinstance(node, Container):
        splits = dict.fromkeys([node.outer_split, *range(1, len(target))])
        for split in splits:
            for middle in range(1, len(target) - split + 1):
                tail = len(target) - split - middle
                if tail < 1:
                    continue
                outer = _resolve(node.outer, target[:split] + target[split + middle :])
                inner = _resolve(node.inner, target[split : split + middle])
                if outer is not None and inner is not None:
                    return Resolved(node, target, (outer, inner), split=split)
        return None
    if isinstance(node, Sequence):
        memo: dict[tuple[int, int], Optional[tuple[Resolved, ...]]] = {}

        def walk(idx: int, offset: int) -> Optional[tuple[Resolved, ...]]:
            if idx == len(node.parts):
                return () if offset == len(target) else None
            key = (idx, offset)
            if key in memo:
                return memo[key]
            answer: Optional[tuple[Resolved, ...]] = None
            for span in _candidate_lengths(node.parts[idx], len(target) - offset):
                sub = _resolve(node.parts[idx], target[offset : offset + span])
                if sub is None:
                    continue
                rest = walk(idx + 1, offset + span)
                if rest is not None:
                    answer = (sub,) + rest
                    break
            memo[key] = answer
            return answer

        found = walk(0, 0)
        return Resolved(node, target, found) if found is not None else None
    raise TypeError(f"not a wordplay node: {node!r}")


def resolve(node: WordplayNode, answer: str) -> Optional[Resolved]:
    """Match a tree against an answer, choosing anagram spellings, homophone
    spellings and container split points; None when the letters cannot work."""
    return _resolve(node, normalize_letters(answer))

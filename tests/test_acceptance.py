"""Acceptance suite: ten numbered criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
printed criterion lines).  Each criterion states its tolerance inline;
time budgets are module constants.  The brute-force checks deliberately
re-derive their answers with local arithmetic instead of calling the
library code they are checking.
"""

import random
import time
import unicodedata
from pathlib import Path

import numpy as np
import pytest

from cryptic_prover import dataset, lexfiles, notation
from cryptic_prover.candidates import load_embeddings, write_pseudo_embeddings
from cryptic_prover.core import ActionKind, normalize_letters
from cryptic_prover.evalharness import (
    FAIL,
    Method,
    Outcome,
    SolveRecord,
    classify,
    compare_records,
    run_experiment,
    score_fastest,
    score_mean,
    tabulate,
)
from cryptic_prover.formalize import (
    CompilerBackedMock,
    ProofRequest,
    ScriptedReplayMock,
    compile_wordplay,
    prove_with_rewrites,
)
from cryptic_prover.notation import (
    Anagram,
    DoubleDefinition,
    Homophone,
    parse_wordplay,
    resolve,
    surface_letters,
)
from cryptic_prover.oracles import seed_lexicon
from cryptic_prover.verifier import (
    LintKind,
    ProofStatus,
    render_failure_report,
    render_proof,
    verify,
    verify_text,
)

ROUND_TRIP_BUDGET_S = 1.0
ORACLE_BUDGET_S = 10.0
EXPERIMENT_BUDGET_S = 30.0

GOLDEN_RUDE = lexfiles.seed_path("fixtures/proofs/rude.proof")


@pytest.fixture(scope="module")
def lexicon():
    return seed_lexicon()


@pytest.fixture(scope="module")
def worked():
    docs = dataset.load_puzzles(lexfiles.seed_path("fixtures/worked_examples.yaml"))
    return [clue for doc in docs for clue in doc.clues]


@pytest.fixture(scope="module")
def eight_clues():
    docs = dataset.load_puzzles(lexfiles.seed_path("fixtures/worked_examples.yaml"))
    return docs[0].clues


def request_for(clue):
    return ProofRequest(
        clue=clue,
        candidate_answer=clue.gold_answer,
        definition=clue.gold_definition,
        wordplay=clue.gold_wordplay,
    )


def _letters_are_determinate(node) -> bool:
    """Whether the annotation pins its output letters exactly.

    Anagrams permute, homophones respell, and double definitions carry
    no letters, so those trees are checked by resolution instead.
    """
    if isinstance(node, (Anagram, Homophone, DoubleDefinition)):
        return False
    children = []
    for name in ("source", "inner", "outer"):
        child = getattr(node, name, None)
        if child is not None:
            children.append(child)
    children.extend(getattr(node, "parts", ()) or ())
    return all(_letters_are_determinate(child) for child in children)


def test_criterion_01_worked_examples_round_trip(worked):
    started = time.perf_counter()
    determinate = 0
    for clue in worked:
        node = parse_wordplay(clue.gold_wordplay)
        answer = normalize_letters(clue.gold_answer)
        assert resolve(node, answer) is not None, clue.gold_answer
        if _letters_are_determinate(node):
            assert surface_letters(node) == answer
            determinate += 1
    elapsed = time.perf_counter() - started
    assert elapsed < ROUND_TRIP_BUDGET_S
    print(
        f"criterion 1: PASS - {len(worked)}/10 wordplays parse and account for the "
        f"answer ({determinate} letter-exact) in {elapsed:.3f}s < {ROUND_TRIP_BUDGET_S}s"
    )


def test_criterion_02_end_to_end_proving(worked, lexicon):
    proved = 0
    for clue in worked:
        node = parse_wordplay(clue.gold_wordplay)
        outcome = verify(compile_wordplay(node, request_for(clue)), lexicon)
        assert outcome.status is ProofStatus.PROVED, clue.gold_answer
        proved += 1
    print(f"criterion 2: PASS - compiled proofs verify PROVED {proved}/10")


def test_criterion_03_failure_fidelity(lexicon):
    outcome = verify_text(GOLDEN_RUDE.read_text(encoding="utf-8"), lexicon)
    assert outcome.status is ProofStatus.FAILED
    messages = [failure.message for failure in outcome.failures]
    assert "assert is_synonym('assistant', 'ASS')" in messages
    assert "assert 'RUD' + 'ASS' == 'RUDE'" in messages

    report = render_failure_report(outcome)
    assertion_lines = [
        line for line in report.splitlines() if line.startswith("AssertionError: ")
    ]
    assert len(assertion_lines) == len(outcome.failures) == 2
    golden = Path(__file__).parent / "golden" / "rude_failure_report.txt"
    assert report == golden.read_text(encoding="utf-8")
    print(
        "criterion 3: PASS - RUDE proof fails with both marked failures and "
        "one AssertionError line per failure"
    )


def test_criterion_04_hint_fidelity(lexicon):
    verdict = lexicon.is_abbreviation("an Artist", "RA")
    assert not verdict.ok
    joined = "; ".join(verdict.near_misses)
    assert (
        "'RA' is an abbreviation for : artist, artillery, Royal Artillery, "
        "gunners, painter" in joined
    )

    action = lexicon.action_type("goes crazy", ActionKind.ANAGRAM)
    assert not action.ok
    assert any("crazy" in note for note in action.near_misses)
    print(
        "criterion 4: PASS - 'RA' hint lists the five expansions verbatim; "
        "'goes crazy' hint suggests the sub-phrase 'crazy'"
    )


def test_criterion_05_rewrite_loop_bound(worked, lexicon):
    clue = next(c for c in worked if c.gold_answer == "CAMERA")
    request = request_for(clue)

    always_failing = CompilerBackedMock(fail_first=10**6)
    transcript = prove_with_rewrites(request, always_failing, lexicon)
    assert len(transcript.attempts) == 6
    assert always_failing.calls == 6
    assert transcript.rewrites_used == "FAIL"

    good = render_proof(compile_wordplay(parse_wordplay(clue.gold_wordplay), request))
    bad = good + "assert 'QQ' == 'ZZ'\n"
    scripted = ScriptedReplayMock([bad, bad, bad, good])
    transcript = prove_with_rewrites(request, scripted, lexicon)
    assert transcript.rewrites_used == 3
    print(
        "criterion 5: PASS - always-failing mock stops at exactly 6 attempts "
        "with FAIL; succeed-on-attempt-3 replay reports rewrites_used == 3"
    )


def test_criterion_06_cheat_lints(lexicon):
    no_asterts = (
        'proof answer="CAMERA" clue="x" pattern="6"\n'
        "definition: {x}\n"
    )
    outcome = verify_text(no_asterts, lexicon)
    assert outcome.status is not ProofStatus.PROVED
    assert any(lint.kind is LintKind.NO_ASSERTIONS for lint in outcome.lints)

    negated = (
        'proof answer="CAMERA" clue="x" pattern="6"\n'
        "assert not is_synonym('optical device', 'LENSES')\n"
    )
    outcome = verify_text(negated, lexicon)
    assert outcome.status is not ProofStatus.PROVED
    assert any(lint.kind is LintKind.NEGATED_ASSERT_CHEAT for lint in outcome.lints)
    print(
        "criterion 6: PASS - zero-assertion and negated-predicate proofs are "
        "non-PROVED with NO_ASSERTIONS and NEGATED_ASSERT_CHEAT"
    )


def _plain_letters(text: str) -> str:
    decomposed = unicodedata.normalize("NFKD", text).upper()
    return "".join(ch for ch in decomposed if "A" <= ch <= "Z")


def test_criterion_07_oracle_equivalence(lexicon):
    started = time.perf_counter()
    rng = random.Random(20260815)
    alphabet = "abcdefghijklmnopqrstuvwxyz"

    agreements = 0
    for _ in range(1000):
        word = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 9)))
        style = rng.random()
        if style < 0.4:
            other = "".join(rng.sample(word, len(word)))
        elif style < 0.6:
            other = word
        elif style < 0.8:
            position = rng.randrange(len(word))
            other = word[:position] + rng.choice(alphabet) + word[position + 1 :]
        else:
            other = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 9)))
        left, right = _plain_letters(word), _plain_letters(other)
        brute = sorted(left) == sorted(right) and left != right
        assert bool(lexicon.is_anagram(word, other)) == brute
        agreements += 1
    assert agreements == 1000

    from cryptic_prover.candidates import closest_candidates
    from cryptic_prover.core import Pattern, pattern_matches

    table = load_embeddings(lexfiles.seed_path("fixtures/embeddings_16d.txt"))
    wordlist = lexfiles.load_wordlist(lexfiles.seed_path("lexicon/wordlist.txt"))
    vocabulary = sorted(table.vectors)
    lengths = sorted({len(word) for word in wordlist})

    def scan_embed(phrase):
        found = [
            table.vectors[token]
            for token in phrase.casefold().split()
            if token in table.vectors
        ]
        return np.mean(found, axis=0) if found else np.zeros(table.dimension)

    def scan_cosine(u, v):
        scale = float(np.sqrt(np.dot(u, u)) * np.sqrt(np.dot(v, v)))
        return float(np.dot(u, v)) / scale if scale else 0.0

    queries = 0
    while queries < 100:
        span = " ".join(
            rng.choice(vocabulary) for _ in range(rng.choice([1, 1, 2]))
        )
        if rng.random() < 0.1:
            span = "zzzz qqqq vvvv"
        pattern = Pattern.parse(str(rng.choice(lengths)))
        exclude = rng.choice(sorted(wordlist))
        pool = [
            word
            for word in sorted(wordlist)
            if pattern_matches(word, pattern) and word != exclude
        ]
        if not pool:
            continue
        span_vec = scan_embed(span)
        expected = min(
            pool, key=lambda word: (-scan_cosine(span_vec, scan_embed(word)), word)
        )
        got = closest_candidates(span, pattern, exclude, table, wordlist, k=1)[0][0]
        assert got == expected
        queries += 1

    elapsed = time.perf_counter() - started
    assert elapsed < ORACLE_BUDGET_S
    print(
        "criterion 7: PASS - is_anagram matches brute force 1000/1000; "
        f"closest_candidates matches the exhaustive scan {queries}/100 "
        f"in {elapsed:.2f}s < {ORACLE_BUDGET_S}s"
    )


def test_criterion_08_scoring_math():
    assert score_mean([1, FAIL, 2]) == 3.0
    assert score_fastest([FAIL, FAIL]) == 6

    def records_scoring(clue_id, truth_score, decoy_score, method):
        # Realize an exact score for each candidate under the method.
        def runs(score, truth):
            if method is Method.COMPLETED_PROOFS:
                values = [0] * score + [FAIL] * (6 - score)
            else:
                values = [FAIL] if score == 6 else [score]
            return [
                SolveRecord(
                    clue_id=clue_id,
                    candidate="GOLD" if truth else "FAKE",
                    is_ground_truth=truth,
                    sample_index=i,
                    rewrites=value,
                    reason="x" if value == FAIL else "",
                )
                for i, value in enumerate(values)
            ]

        return runs(truth_score, True) + runs(decoy_score, False)

    flips = {
        Outcome.TRUE_POS: Outcome.FALSE_NEG,
        Outcome.DRAW: Outcome.DRAW,
        Outcome.FALSE_NEG: Outcome.TRUE_POS,
    }
    checked = 0
    for method in Method:
        for truth_score in range(7):
            for decoy_score in range(7):
                straight = classify(
                    records_scoring("q#1", truth_score, decoy_score, method), method
                ).outcome
                swapped = classify(
                    records_scoring("q#1", decoy_score, truth_score, method), method
                ).outcome
                assert swapped is flips[straight]
                checked += 1
    assert checked == 3 * 49
    print(
        "criterion 8: PASS - score_mean([1, FAIL, 2]) == 3.0 exactly; "
        "score_fastest([FAIL, FAIL]) == 6; classify antisymmetric on all "
        "147 (method, gt, decoy) score combinations"
    )


def _run_fixture_experiment(eight_clues, lexicon, results_path):
    table = load_embeddings(lexfiles.seed_path("fixtures/embeddings_16d.txt"))
    wordlist = lexfiles.load_wordlist(lexfiles.seed_path("lexicon/wordlist.txt"))
    return run_experiment(
        eight_clues,
        generator=CompilerBackedMock(),
        lexicon=lexicon,
        table=table,
        wordlist=wordlist,
        samples_per_candidate=5,
        results_path=results_path,
    )


def test_criterion_09_desk_scale_experiment(tmp_path, eight_clues, lexicon):
    started = time.perf_counter()
    records = _run_fixture_experiment(eight_clues, lexicon, tmp_path / "results.jsonl")
    elapsed = time.perf_counter() - started

    assert elapsed < EXPERIMENT_BUDGET_S
    assert len(records) == 8 * 2 * 5
    rows = {row.method: row for row in tabulate(compare_records(records))}
    completed = rows[Method.COMPLETED_PROOFS]
    assert completed.true_pos >= 75
    assert completed.false_neg == 0
    print(
        f"criterion 9: PASS - 8-clue experiment finished offline in "
        f"{elapsed:.2f}s < {EXPERIMENT_BUDGET_S}s with COMPLETED_PROOFS "
        f"TP {completed.true_pos}% >= 75% and FN {completed.false_neg}% == 0%"
    )


def test_criterion_10_determinism(tmp_path, eight_clues, lexicon):
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    _run_fixture_experiment(eight_clues, lexicon, first)
    _run_fixture_experiment(eight_clues, lexicon, second)
    assert first.read_bytes() == second.read_bytes()

    table_a = tmp_path / "vectors_a.txt"
    table_b = tmp_path / "vectors_b.txt"
    wordlist = lexfiles.load_wordlist(lexfiles.seed_path("lexicon/wordlist.txt"))
    write_pseudo_embeddings(wordlist, table_a)
    write_pseudo_embeddings(wordlist, table_b)
    assert table_a.read_bytes() == table_b.read_bytes()

    outcome = verify_text(GOLDEN_RUDE.read_text(encoding="utf-8"), lexicon)
    assert render_failure_report(outcome) == render_failure_report(
        verify_text(GOLDEN_RUDE.read_text(encoding="utf-8"), lexicon)
    )
    print(
        "criterion 10: PASS - consecutive experiment runs, embedding fixture "
        "writes, and failure reports are byte-identical"
    )

"""Embedding table loading, cosine ranking, and the decoy picker."""

import logging
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cryptic_prover import lexfiles
from cryptic_prover.candidates import (
    DimensionMismatch,
    EmbeddingTable,
    EmptyCandidateSet,
    FormatError,
    closest_candidates,
    cosine,
    load_embeddings,
    pseudo_embedding,
    write_pseudo_embeddings,
)
from cryptic_prover.core import Pattern, normalize_letters, pattern_matches

FIXTURE = lexfiles.seed_path("fixtures/embeddings_16d.txt")
WORDLIST = lexfiles.seed_path("lexicon/wordlist.txt")


@pytest.fixture(scope="module")
def table():
    return load_embeddings(FIXTURE)


@pytest.fixture(scope="module")
def wordlist():
    return lexfiles.load_wordlist(WORDLIST)


def write_table(tmp_path, text):
    path = tmp_path / "vectors.txt"
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadEmbeddings:
    def test_three_line_file_of_four_dim_vectors(self, tmp_path):
        path = write_table(
            tmp_path,
            "3 4\nape 1 0 0 0\nbee 0 1 0 0\ncat 0 0 1 0\n",
        )
        table = load_embeddings(path)
        assert len(table.vectors) == 3
        assert table.dimension == 4

    def test_lookup_is_case_folded(self, tmp_path):
        path = write_table(tmp_path, "1 2\nCamera 1 0\n")
        table = load_embeddings(path)
        assert list(table.vectors) == ["camera"]
        assert np.array_equal(table.embed_phrase("CAMERA"), np.array([1.0, 0.0]))

    def test_short_line_is_a_dimension_mismatch_with_line_number(self, tmp_path):
        path = write_table(tmp_path, "2 4\nape 1 0 0 0\nbee 0 1 0\n")
        with pytest.raises(DimensionMismatch, match="line 3"):
            load_embeddings(path)

    def test_missing_header_is_a_format_error(self, tmp_path):
        path = write_table(tmp_path, "")
        with pytest.raises(FormatError, match="header") as info:
            load_embeddings(path)
        assert info.value.line == 1

    def test_word_count_header_must_be_numeric(self, tmp_path):
        path = write_table(tmp_path, "lots 4\nape 1 0 0 0\n")
        with pytest.raises(FormatError, match="line 1"):
            load_embeddings(path)

    @pytest.mark.parametrize(
        "text, found",
        [("5 2\nape 1 0\n", 1), ("1 2\nape 1 0\nape 0 1\n", 2), ("2 2\n\n", 0)],
        ids=["truncated", "duplicates-count", "empty"],
    )
    def test_header_count_must_match_the_vector_lines(self, tmp_path, text, found):
        count = text.split()[0]
        path = write_table(tmp_path, text)
        with pytest.raises(FormatError, match=f"header says {count} vectors, the file has "
                           f"{found} vector lines") as info:
            load_embeddings(path)
        assert info.value.line == 1

    def test_non_numeric_value_is_a_format_error(self, tmp_path):
        path = write_table(tmp_path, "1 2\nape one 0\n")
        with pytest.raises(FormatError, match="'ape'") as info:
            load_embeddings(path)
        assert info.value.line == 2

    def test_duplicates_keep_first_and_warn(self, tmp_path, caplog):
        path = write_table(tmp_path, "2 2\nape 1 0\nape 0 1\n")
        with caplog.at_level(logging.WARNING):
            table = load_embeddings(path)
        assert np.array_equal(table.vectors["ape"], np.array([1.0, 0.0]))
        assert "duplicate" in caplog.text

    def test_blank_lines_are_skipped(self, tmp_path):
        path = write_table(tmp_path, "2 2\nape 1 0\n\nbee 0 1\n")
        assert len(load_embeddings(path).vectors) == 2

    def test_lines_end_at_newline_only(self, tmp_path):
        # U+2028 is whitespace inside a line, not a line break.
        path = write_table(tmp_path, "2 2\r\nape 1\u20280\r\nbee 0 1\n")
        table = load_embeddings(path)
        assert np.array_equal(table.vectors["ape"], np.array([1.0, 0.0]))
        assert len(table.vectors) == 2

    def test_packaged_fixture_loads(self, table):
        assert len(table.vectors) == 50
        assert table.dimension == 16

    def test_table_rejects_mixed_dimensions(self):
        with pytest.raises(DimensionMismatch):
            EmbeddingTable(
                dimension=2,
                vectors={"ape": np.array([1.0, 0.0]), "bee": np.array([1.0])},
            )

    def test_out_of_vocabulary_vector_is_none(self, table):
        assert table.vectors.get("zyzzyva") is None


class TestEmbedPhrase:
    def test_mean_of_token_vectors(self):
        table = EmbeddingTable(
            dimension=2,
            vectors={"hot": np.array([1.0, 0.0]), "dog": np.array([0.0, 1.0])},
        )
        assert np.allclose(table.embed_phrase("hot dog"), [0.5, 0.5])

    def test_unknown_tokens_are_ignored(self):
        table = EmbeddingTable(dimension=2, vectors={"hot": np.array([1.0, 0.0])})
        assert np.allclose(table.embed_phrase("scalding hot"), [1.0, 0.0])

    def test_fully_out_of_vocabulary_phrase_is_zero(self):
        table = EmbeddingTable(dimension=3, vectors={})
        assert np.array_equal(table.embed_phrase("optical device"), np.zeros(3))

    def test_punctuation_does_not_block_tokens(self):
        table = EmbeddingTable(dimension=1, vectors={"deer": np.array([2.0])})
        assert np.allclose(table.embed_phrase("ermine, deer!"), [2.0])


class TestCosine:
    def test_identical_vectors_score_one(self):
        x = np.array([0.3, -1.2, 4.0])
        assert cosine(x, x) == pytest.approx(1.0)

    def test_opposite_vectors_score_minus_one(self):
        x = np.array([0.3, -1.2, 4.0])
        assert cosine(x, -x) == pytest.approx(-1.0)

    def test_orthogonal_basis_vectors_score_zero(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_zero_vector_scores_zero_by_convention(self):
        assert cosine(np.zeros(4), np.ones(4)) == 0.0

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            cosine(np.ones(3), np.ones(4))

    @given(
        st.lists(st.floats(-100, 100), min_size=2, max_size=8),
        st.lists(st.floats(-100, 100), min_size=2, max_size=8),
    )
    def test_bounded_and_symmetric(self, a, b):
        size = min(len(a), len(b))
        u, v = np.array(a[:size]), np.array(b[:size])
        value = cosine(u, v)
        assert -1.0 <= value <= 1.0
        assert value == pytest.approx(cosine(v, u))


class TestClosestCandidates:
    def test_k_must_be_positive(self, table, wordlist):
        with pytest.raises(ValueError, match="at least 1"):
            closest_candidates("escort", Pattern.parse("6"), "", table, wordlist, k=0)

    def test_unmatchable_pattern_is_an_empty_candidate_set(self, table, wordlist):
        with pytest.raises(EmptyCandidateSet, match="'99'"):
            closest_candidates("escort", Pattern.parse("99"), "", table, wordlist)

    def test_excluding_the_only_fit_is_an_empty_candidate_set(self, table):
        with pytest.raises(EmptyCandidateSet, match="excluded"):
            closest_candidates(
                "escort", Pattern.parse("6"), "CAMERA", table, ["CAMERA"]
            )

    def test_exclusion_removes_the_global_argmax(self):
        table = EmbeddingTable(
            dimension=2,
            vectors={
                "alpha": np.array([1.0, 0.0]),
                "bravo": np.array([0.0, 1.0]),
                "north": np.array([1.0, 0.0]),
            },
        )
        ranked = closest_candidates(
            "north", Pattern.parse("5"), "ALPHA", table, ["ALPHA", "BRAVO"]
        )
        assert ranked[0][0] == "BRAVO"

    def test_in_vocabulary_span_ranks_itself_first(self, table, wordlist):
        ranked = closest_candidates("escort", Pattern.parse("6"), "", table, wordlist)
        assert ranked[0][0] == "ESCORT"
        assert ranked[0][1] == pytest.approx(1.0)

    def test_zero_span_falls_back_to_lexicographic_order(self, table, wordlist):
        ranked = closest_candidates(
            "qwxzv nonsense", Pattern.parse("6"), "", table, wordlist, k=3
        )
        sixes = sorted(w for w in wordlist if len(w) == 6)
        assert [word for word, _ in ranked] == sixes[:3]
        assert all(similarity == 0.0 for _, similarity in ranked)

    def test_results_are_sorted_and_filtered(self, table, wordlist):
        ranked = closest_candidates(
            "escort guards", Pattern.parse("6"), "ESCORT", table, wordlist, k=10
        )
        similarities = [s for _, s in ranked]
        assert similarities == sorted(similarities, reverse=True)
        for word, _ in ranked:
            assert pattern_matches(word, Pattern.parse("6"))
            assert word != "ESCORT"

    def test_k_beyond_the_pool_returns_the_whole_pool(self, table):
        ranked = closest_candidates(
            "escort", Pattern.parse("6"), "", table, ["CAMERA", "ESCORT"], k=99
        )
        assert len(ranked) == 2

    def test_top_one_agrees_with_an_exhaustive_scan(self, table, wordlist):
        rng = random.Random(20260815)
        vocabulary = sorted(table.vectors)
        lengths = sorted({len(word) for word in wordlist})
        for _ in range(100):
            n_tokens = rng.choice([1, 1, 2])
            span = " ".join(rng.choice(vocabulary) for _ in range(n_tokens))
            if rng.random() < 0.1:
                span = "qqqq zzzz"  # out of vocabulary on purpose
            pattern = Pattern.parse(str(rng.choice(lengths)))
            exclude = rng.choice(sorted(wordlist))

            pool = [
                normalize_letters(w)
                for w in sorted(wordlist)
                if pattern_matches(w, pattern)
                and normalize_letters(w) != normalize_letters(exclude)
            ]
            if not pool:
                continue
            span_vec = table.embed_phrase(span)
            best = min(
                pool, key=lambda w: (-cosine(span_vec, table.embed_phrase(w)), w)
            )

            ranked = closest_candidates(span, pattern, exclude, table, wordlist)
            assert ranked[0][0] == best


def brute_force(span, pattern, exclude, table, wordlist, k):
    """The word-by-word scan the indexed search must reproduce exactly."""
    fits = {normalize_letters(w) for w in wordlist if pattern_matches(w, pattern)}
    if not fits:
        raise EmptyCandidateSet("no fit")
    pool = fits - {normalize_letters(exclude)}
    if not pool:
        raise EmptyCandidateSet("excluded")
    span_vec = table.embed_phrase(span)
    scored = [(word, cosine(span_vec, table.embed_phrase(word))) for word in pool]
    return sorted(scored, key=lambda pair: (-pair[1], pair[0]))[:k]


def outcome(search, *args):
    try:
        return search(*args)
    except EmptyCandidateSet as error:
        return type(error)


# Few distinct small-integer vectors, so duplicates and exact ties are common.
small_vectors = st.sampled_from(
    [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0), (2.0, 2.0, 0.0),
     (-1.0, 0.0, 1.0), (0.0, 0.0, 0.0), (1.0, -2.0, 1.0)]
)
# Entries may carry accents, capitals and punctuation that normalise away.
entries = st.text(alphabet="abcáBC -'", min_size=1, max_size=5)


class TestIndexedSearchMatchesAScan:
    @given(
        vectors=st.dictionaries(
            st.text(alphabet="abc", min_size=1, max_size=4), small_vectors, max_size=12
        ),
        wordlist=st.lists(entries, max_size=15),
        span_tokens=st.lists(st.sampled_from(["a", "bca", "cc", "zz"]), max_size=3),
        total=st.integers(1, 4),
        k=st.integers(1, 6),
        data=st.data(),
    )
    def test_agrees_with_a_brute_force_scan(
        self, vectors, wordlist, span_tokens, total, k, data
    ):
        table = EmbeddingTable(
            dimension=3, vectors={w: np.array(v) for w, v in vectors.items()}
        )
        # Half the time the excluded word is in the pool, often at the argmax.
        in_pool = wordlist and data.draw(st.booleans())
        exclude = data.draw(st.sampled_from(wordlist) if in_pool else entries)
        args = (" ".join(span_tokens), Pattern((total,)), exclude, table, wordlist, k)
        assert outcome(closest_candidates, *args) == outcome(brute_force, *args)

    def test_scores_equal_cosine_bit_for_bit(self, table, wordlist):
        vocabulary = sorted(table.vectors)
        spans = vocabulary + [f"{a} {b}" for a, b in zip(vocabulary, vocabulary[1:])]
        for span in spans:
            pattern = Pattern((len(span.split()[0]),))
            args = (span, pattern, span, table, wordlist, 5)
            assert closest_candidates(*args) == brute_force(*args)

    def test_duplicate_vectors_tie_lexicographically(self):
        same = np.array([1.0, 2.0])
        table = EmbeddingTable(
            dimension=2,
            vectors={"hat": same, "cat": same, "bat": same, "sun": -same},
        )
        words = ["SUN", "HAT", "CAT", "BAT"]
        ranked = closest_candidates("hat", Pattern.parse("3"), "", table, words, k=3)
        assert [word for word, _ in ranked] == ["BAT", "CAT", "HAT"]
        assert len({similarity for _, similarity in ranked}) == 1

    def test_out_of_vocabulary_words_score_zero(self):
        table = EmbeddingTable(
            dimension=2,
            vectors={"up": np.array([1.0, 0.0]), "no": np.array([-1.0, 0.0])},
        )
        words = ["up", "no", "qz"]
        ranked = closest_candidates("up", Pattern.parse("2"), "UP", table, words, k=5)
        assert ranked == [("QZ", 0.0), ("NO", -1.0)]

    def test_entries_that_normalise_alike_are_one_candidate(self):
        table = EmbeddingTable(dimension=2, vectors={"cafe": np.array([1.0, 0.0])})
        words = ["Café", "cafe", "CAFE", "tree"]
        ranked = closest_candidates("cafe", Pattern.parse("4"), "", table, words, k=5)
        assert ranked == [("CAFE", 1.0), ("TREE", 0.0)]
        with pytest.raises(EmptyCandidateSet, match="excluded"):
            closest_candidates("cafe", Pattern.parse("4"), "café", table, words[:3])

    def test_a_new_wordlist_is_not_served_a_stale_index(self):
        table = EmbeddingTable(
            dimension=2,
            vectors={"ape": np.array([1.0, 0.0]), "bee": np.array([0.9, 0.1])},
        )
        three, five = Pattern.parse("3"), Pattern.parse("5")
        old, new = ["APE", "BEE"], ["BEE", "COW", "HORSE"]
        assert closest_candidates("ape", three, "", table, old)[0][0] == "APE"
        assert closest_candidates("ape", three, "", table, new)[0][0] == "BEE"
        assert closest_candidates("ape", five, "", table, new)[0][0] == "HORSE"
        with pytest.raises(EmptyCandidateSet, match="'5'"):
            closest_candidates("ape", five, "", table, old)

    def test_threads_sharing_a_table_across_two_wordlists_agree(self, wordlist):
        def search(table, span, words):
            return closest_candidates(span, Pattern((len(span),)), "", table, words, k=3)

        lists = (wordlist, wordlist[::2])
        spans = sorted(load_embeddings(FIXTURE).vectors)
        jobs = [(span, lists[i % 2]) for i, span in enumerate(spans * 4)]
        reference = load_embeddings(FIXTURE)
        expected = [search(reference, span, words) for span, words in jobs]
        shared = load_embeddings(FIXTURE)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(search, shared, span, words) for span, words in jobs]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == expected

    def test_a_one_shot_iterator_is_a_wordlist_too(self, table, wordlist):
        six = Pattern.parse("6")
        expected = closest_candidates("escort", six, "", table, wordlist, k=3)
        ranked = closest_candidates("escort", six, "", table, iter(wordlist), k=3)
        assert ranked == expected


class TestPseudoEmbeddings:
    def test_values_are_deterministic_and_bounded(self):
        first = pseudo_embedding("camera")
        second = pseudo_embedding("CAMERA")
        assert np.array_equal(first, second)
        assert first.shape == (16,)
        assert np.all(first >= -1.0) and np.all(first <= 1.0)

    def test_different_words_differ(self):
        assert not np.array_equal(pseudo_embedding("pare"), pseudo_embedding("pair"))

    def test_writer_output_ignores_input_order(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        write_pseudo_embeddings(["HOT", "dog", "Dog"], a)
        write_pseudo_embeddings(["dog", "hot"], b)
        assert a.read_bytes() == b.read_bytes()

    def test_packaged_fixture_regenerates_byte_identically(self, tmp_path, wordlist):
        fresh = tmp_path / "regenerated.txt"
        write_pseudo_embeddings(wordlist, fresh)
        assert fresh.read_bytes() == FIXTURE.read_bytes()


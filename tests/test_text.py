"""Tokenization rules, lexical reports, and correlation machinery."""

from __future__ import annotations

import random
import re
import sys
import tracemalloc
import unicodedata
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from metadiv.accumulation import every
from metadiv.diversity import FrequencyDistribution, richness
from metadiv.fitting import ModelKind
from metadiv.synthetic import zipf_corpus, zipf_probabilities, zipf_true_diversity
import metadiv.text
from metadiv.text import _BLOCK_CHARS, _EDGE, _SPACE_RE, _Fold, lexical_report, pearson_r, tokenize

# ASCII word characters, the token joiners, whitespace (U+001C U+0085 U+00A0
# U+2028 U+3000 only str.split() breaks on), characters whose casefold
# expands (İ ῶ ǰ ß ﬁ) or whose lower() depends on position (Σ), combining
# marks (U+0301, U+0342), digits (٣ decimal, ² not), numerals that are no
# letter (Ⅻ ①) and one that is (五), and the edge punctuation tokenize strips.
_TOKENIZER_ALPHABET = ("aZq09_'’- \t\n\x1c\x85\xa0\u2028\u3000İῶǰßΣﬁ\u0301\u0342٣²Ⅻ①五"
                       + _EDGE)

_WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]


def _per_match_tokens(text: str) -> tuple[str, ...]:
    """Reference tokenizer: letter test, casefold and NFC once per match of
    word characters and U+0300-U+036F marks in the NFC text."""
    return tuple(
        unicodedata.normalize("NFC", m.group(0).casefold())
        for m in re.finditer(r"[\w\u0300-\u036f]+(?:['’-][\w\u0300-\u036f]+)*",
                             unicodedata.normalize("NFC", text))
        if any(ch.isalpha() for ch in m.group(0))
    )


class TestTokenize:
    def test_plain_words(self):
        assert tokenize("Los pazos de Ulloa.") == ("los", "pazos", "de", "ulloa")

    def test_casefold_and_punctuation(self):
        tokens = tokenize("¡Hola, HOLA!")
        assert tokens == ("hola", "hola")
        assert len(set(tokens)) == 1

    def test_numbers_dropped(self):
        assert tokenize("1492") == ()

    def test_a_token_needs_an_alphabetic_character(self):
        # ² ½ ① Ⅻ are word characters but no letters; 五 is both
        assert tokenize("² ½ ① Ⅻ 1492 1.5 10,000") == ()
        assert tokenize("五 x² Ⅻa") == ("五", "x²", "ⅻa")

    def test_several_tokens_in_one_chunk(self):
        assert tokenize("ayer—hoy, y/o 7-a 1.5x") == ("ayer", "hoy", "y", "o", "7-a", "5x")

    @pytest.mark.parametrize("space", _WHITESPACE, ids=lambda ch: f"U+{ord(ch):04X}")
    def test_every_whitespace_character_separates_tokens(self, space):
        # The block end search starts before, at and past the space, or the
        # whole text is one block.
        for block_chars in (1, 2, 3, _BLOCK_CHARS):
            with mock.patch.object(metadiv.text, "_BLOCK_CHARS", block_chars):
                assert tokenize(f"Ab{space}cd") == ("ab", "cd")

    def test_block_ends_are_found_at_every_whitespace_character(self):
        every_code_point = "".join(map(chr, range(sys.maxunicode + 1)))
        assert _SPACE_RE.findall(every_code_point) == _WHITESPACE

    @given(st.text(alphabet=_TOKENIZER_ALPHABET, max_size=200), st.integers(1, 8))
    def test_blocks_give_the_tokens_of_the_whole_text(self, text, block_chars):
        whole = tokenize(text)
        with mock.patch.object(metadiv.text, "_BLOCK_CHARS", block_chars):
            assert tokenize(text) == whole == _per_match_tokens(text)

    @pytest.mark.parametrize("block_chars, text, tokens", [
        pytest.param(2, "a " + "x" * 20 + "-yz b", ("a", "x" * 20 + "-yz", "b"),
                     id="chunk-over-many-blocks"),
        pytest.param(2, "Hola—mundo,adiós", ("hola", "mundo", "adiós"), id="no-whitespace"),
        pytest.param(4, "el ayer—hoy de", ("el", "ayer", "hoy", "de"), id="block-edge-inside-chunk"),
        pytest.param(1, "ayer—hoy y ayer—hoy", ("ayer", "hoy", "y", "ayer", "hoy"),
                     id="two-token-chunk-again-in-a-later-block"),
        pytest.param(3, unicodedata.normalize("NFD", "Ñandú comió piñones"),
                     ("ñandú", "comió", "piñones"), id="nfd"),
    ])
    def test_block_edges(self, block_chars, text, tokens):
        with mock.patch.object(metadiv.text, "_BLOCK_CHARS", block_chars):
            assert tokenize(text) == tokens

    def test_equal_words_in_different_blocks_are_one_object(self):
        with mock.patch.object(metadiv.text, "_BLOCK_CHARS", 1):
            tokens = tokenize("hola Hola hola, (hola) Hola")
        assert tokens == ("hola",) * 5
        assert tokens[0] is tokens[2] is tokens[3]
        assert tokens[1] is tokens[4]

    def test_an_already_folded_word_is_its_own_token(self):
        word = "".join(["ho", "la"])  # not the interned literal
        fold = _Fold()
        assert fold[word] is word
        assert fold["Hola"] == word and fold["Hola"] is not word

    def test_edge_punctuation_holds_no_token_character(self):
        assert not [ch for ch in _EDGE if re.fullmatch(r"[\w\u0300-\u036f]", ch)]

    def test_internal_apostrophe_and_hyphen_kept(self):
        assert tokenize("the well-known d'Artagnan") == (
            "the",
            "well-known",
            "d'artagnan",
        )

    def test_edge_punctuation_stripped(self):
        assert tokenize("--dijo; (claro)...") == ("dijo", "claro")

    def test_no_whitespace_or_empty_tokens(self):
        tokens = tokenize("a\tb\nc  d–e")
        assert all(tok and not any(ch.isspace() for ch in tok) for tok in tokens)

    def test_decomposed_accents_read_as_composed(self):
        text = "El año pasado, Ñandú comió piñones en Perú."
        tokens = ("el", "año", "pasado", "ñandú", "comió", "piñones", "en", "perú")
        assert tokenize(unicodedata.normalize("NFD", text)) == tokenize(text) == tokens

    @pytest.mark.parametrize("word, token", [
        ("İstanbul", "i\u0307stanbul"),  # no composed form of i and U+0307
        ("ῶ", "\u1ff6"),                 # folds to ω and U+0342, composed again
        ("ǰ", "\u01f0"),                 # folds to j and U+030C, composed again
    ])
    def test_folded_marks_stay_in_the_word(self, word, token):
        assert tokenize(word) == (token,)
        assert tokenize(token) == (token,)

    def test_marks_outside_the_diacritical_block_end_a_word(self):
        # U+0483, a Cyrillic titlo, is a combining mark too
        assert tokenize("x\u0483y") == ("x", "y")

    @given(st.text(max_size=400))
    def test_idempotent_on_own_output(self, text):
        once = tokenize(text)
        twice = tokenize(" ".join(once))
        assert twice == once

    @given(st.text(alphabet=_TOKENIZER_ALPHABET, max_size=200))
    def test_equals_per_match_reference(self, text):
        assert tokenize(text) == _per_match_tokens(text)

    def test_case_variants_fold_together(self):
        toks = tokenize("Hola hola HOLA ¡hola! Straße STRASSE strasse " * 50)
        assert len(toks) == 350
        assert len(set(toks)) == 2

    @given(st.text(max_size=400))
    def test_type_count_equals_richness(self, text):
        tokens = tokenize(text)
        dist = FrequencyDistribution.from_events(tokens)
        assert len(set(tokens)) == richness(dist)


class TestTokenizeMemory:
    def test_peak_independent_of_text_length(self):
        # 200 distinct chunks: bare, capitalized with a comma, in brackets,
        # and two-token compounds, which take the flattening step.
        chunks = [(f"pal{i}", f"Pal{i},", f"(pal{i})", f"ayer—pal{i}")[i % 4] for i in range(200)]
        rng = random.Random(5)

        def peak(n_chunks: int) -> int:
            text = " ".join(rng.choices(chunks, k=n_chunks))
            tracemalloc.start()
            try:
                tokens = tokenize(text)
                # The token tuple grows with the text, over-allocated by up
                # to a quarter while it grows.
                return tracemalloc.get_traced_memory()[1] - 5 * sys.getsizeof(tokens) // 4
            finally:
                tracemalloc.stop()

        # Holding a string per chunk of the whole text read 8.1 MB at 100k
        # chunks and 16.1 MB at 200k; building a second full token tuple
        # read 0.8 and 1.4 MB.
        for n_chunks in (100_000, 200_000):
            assert peak(n_chunks) < 1 << 20


class TestLexicalReport:
    def test_degenerate_single_word(self):
        report = lexical_report(("lorem",) * 1000, "degenerate", order=1.0, checkpoints=every(50))
        assert report.n_tokens == 1000
        assert report.n_types == 1
        assert report.observed_diversity == pytest.approx(1.0)
        assert report.extrapolated_diversity == pytest.approx(1.0, abs=1e-3)
        assert report.holdout_ranking() is None  # nothing beyond the training limit
        assert not hasattr(report, "ranking")  # ranked only on request

    def test_empty_document_rejected(self):
        for tokens in ((), iter(())):
            with pytest.raises(ValueError, match="^document contains no tokens$"):
                lexical_report(tokens, "empty")

    @pytest.mark.parametrize("order", [-1.0, float("nan")])
    def test_bad_order_rejected_before_a_token_is_read(self, order):
        def tokens():
            raise AssertionError("a token was read")
            yield "never"

        with pytest.raises(ValueError, match="^diversity order must be finite and >= 0"):
            lexical_report(tokens(), "bad", order=order)

    def test_order_is_reported_as_float(self):
        report = lexical_report(("lorem",) * 1000, "int", order=2, checkpoints=every(50))
        assert type(report.order) is float and report.order == 2.0

    def test_any_iterable_of_tokens(self):
        tokens = zipf_corpus(2_000, 80, seed=5)
        checkpoints = every(10)
        whole = lexical_report(tokens, "z", checkpoints=checkpoints)
        streamed = lexical_report(iter(tokens), "z", checkpoints=checkpoints)
        assert streamed == whole
        assert streamed.holdout_ranking(500) == whole.holdout_ranking(500)
        assert streamed.n_tokens == whole.n_tokens == 2_000
        assert (streamed.vocabulary_curve, streamed.diversity_curve) == (
            whole.vocabulary_curve, whole.diversity_curve)

    def test_zipf_corpus_extrapolation_close_to_true_value(self, zipf_tokens):
        report = lexical_report(zipf_tokens, "zipf", order=1.0)
        true_d = zipf_true_diversity(5000, 1.0)
        assert abs(report.extrapolated_diversity - true_d) / true_d < 0.10
        assert report.holdout_ranking() is not None

    def test_power_law_self_consistency(self, novel_like_tokens):
        # Fitted C, alpha reproduce the final vocabulary size within 15%.
        report = lexical_report(novel_like_tokens, "novel-like", order=1.0)
        c = report.power_law.params["C"]
        alpha = report.power_law.params["alpha"]
        predicted_types = c * report.n_tokens**alpha
        assert abs(predicted_types - report.n_types) / report.n_types < 0.15

    def test_m4_asymptote_stable_across_sample_sizes(self, zipf_tokens):
        estimates = []
        for fraction in (0.25, 0.5, 1.0):
            prefix = zipf_tokens[: int(len(zipf_tokens) * fraction)]
            report = lexical_report(prefix, "p")
            estimates.append(report.extrapolated_diversity)
        spread = (max(estimates) - min(estimates)) / min(estimates)
        assert spread < 0.15

    @pytest.mark.parametrize("train_limit, ranked", [(30, None), (40, 4), (400, None)])
    def test_ranking_needs_four_training_points_and_a_holdout(self, train_limit, ranked):
        # Checkpoints every 10 tokens: 3 training points at 30, 4 at 40, and
        # none past 400 to hold out.
        tokens = zipf_corpus(400, 60, seed=3)
        ranking = lexical_report(tokens, "z", checkpoints=every(10)).holdout_ranking(train_limit)
        assert (None if ranking is None else len(ranking)) == ranked


class TestSyntheticZipf:
    def test_probabilities_normalized(self):
        p = zipf_probabilities(5000, 1.0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert p[0] == pytest.approx(p[99] * 100.0)
        with pytest.raises(ValueError, match="at least one type"):
            zipf_probabilities(0)

    def test_corpus_is_reproducible(self):
        a = zipf_corpus(500, 50, 1.0, seed=3)
        b = zipf_corpus(500, 50, 1.0, seed=3)
        assert a == b

    def test_true_diversity_between_one_and_types(self):
        d = zipf_true_diversity(5000, 1.0)
        assert 1.0 < d < 5000.0
        # heavier tails concentrate mass and lower the effective number
        assert zipf_true_diversity(5000, 1.5) < d


class TestPearson:
    def test_exact_positive_linearity(self):
        assert pearson_r((1, 2, 3), (2, 4, 6)) == pytest.approx(1.0)

    def test_exact_negative_linearity(self):
        assert pearson_r((1, 2, 3), (3, 2, 1)) == pytest.approx(-1.0)

    def test_constant_sequence_rejected(self):
        with pytest.raises(ValueError):
            pearson_r((1, 2, 3), (5, 5, 5))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pearson_r((1, 2, 3), (1, 2))

    def test_matches_numpy(self):
        rng = np.random.default_rng(5)
        xs = rng.normal(size=40)
        ys = 0.3 * xs + rng.normal(size=40)
        assert pearson_r(xs, ys) == pytest.approx(np.corrcoef(xs, ys)[0, 1], abs=1e-12)

    def test_weak_correlation_detected_as_weak(self):
        rng = np.random.default_rng(11)
        xs = rng.uniform(1e3, 1e5, size=60)
        ys = rng.normal(100.0, 5.0, size=60)  # diversity unrelated to length
        assert abs(pearson_r(xs, ys)) < 0.3


class TestCompareOnZipf:
    def test_m4_not_worse_than_m1_m2(self, zipf_diversity_curve):
        from metadiv.fitting import compare_models

        ranking = compare_models(zipf_diversity_curve, train_limit=10_000)
        position = {rm.kind: i for i, rm in enumerate(ranking)}
        assert position[ModelKind.M4] <= position[ModelKind.M1]
        assert position[ModelKind.M4] <= position[ModelKind.M2]

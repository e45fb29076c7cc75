"""Tokenization and per-document lexical-diversity reports.

A document is reduced to a tuple of surface word forms (no stemming or
lemmatization); the report combines the observed end-of-text diversity with
the power-law fit of the vocabulary growth and the extrapolated asymptote of
the diversity growth, so texts of different lengths can be compared.
"""

from __future__ import annotations

import re
import unicodedata
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import partial
from itertools import chain, filterfalse

from .accumulation import AccumulationCurve, every, growth_curves
from .accumulation import diversity_growth, vocabulary_growth  # noqa: F401  perfbench/spans.py wraps them here
from .fitting import (FitResult, InsufficientDataError, ModelKind, RankedModel, compare_models,
                      fit_model, fit_power_law)

__all__ = ["LexicalReport", "tokenize", "lexical_report", "pearson_r"]

# A token is a run of word characters and Combining Diacritical Marks
# (U+0300-U+036F), optionally chained by internal apostrophes or hyphens;
# leading/trailing punctuation is never captured.  Other marks end a word:
# a class of every Mn/Mc/Me code point more than doubles the time of the
# pass over the text.
_WORD = r"[\w\u0300-\u036f]+"
_TOKEN_RE = re.compile(f"{_WORD}(?:['’-]{_WORD})*")
# Punctuation stripped off both ends of a whitespace chunk before it is taken
# whole.  It holds no word character and no U+0300-U+036F mark, so what is
# left of "(word)," is exactly the one match of _TOKEN_RE in it.
_EDGE = "!\"#$%&'()*+,-./:;<=>?@[\\]^`{|}~¡¦§«¬¶·»¿‐‑‒–—―‘’‚‛“”„‟†‡•…‰′″‹›"

# tokenize splits the text this many characters at a time, extended to the
# next whitespace, which _SPACE_RE finds: its \s is exactly str.isspace().
_BLOCK_CHARS = 32 * 1024
_SPACE_RE = re.compile(r"\s")

DEFAULT_TRAIN_LIMIT = 10_000


@dataclass(frozen=True)
class LexicalReport:
    """Per-document summary: size, observed diversity and fits.

    Values are kept unrounded; ``metadiv.cli`` chooses the printed fields
    and their precision.  The holdout model ranking is fitted only when
    :meth:`holdout_ranking` is called.
    """

    source_id: str
    n_tokens: int
    n_types: int
    order: float
    observed_diversity: float
    power_law: FitResult
    saturating: FitResult
    vocabulary_curve: AccumulationCurve
    diversity_curve: AccumulationCurve

    @property
    def extrapolated_diversity(self) -> float:
        return self.saturating.params["D"]

    def holdout_ranking(self, train_limit: int = DEFAULT_TRAIN_LIMIT) -> list[RankedModel] | None:
        """``compare_models`` on the diversity curve, trained on n <= ``train_limit``.

        ``None`` when the curve has too few points on either side of the limit.
        """
        try:
            return compare_models(self.diversity_curve, train_limit)
        except InsufficientDataError:
            return None


def tokenize(text: str) -> tuple[str, ...]:
    """Split text into case-folded word tokens in NFC, in text order.

    The text is NFC-normalized first, so a word reads the same whether its
    accents are composed or not, and split at whitespace one block of about
    ``_BLOCK_CHARS`` characters at a time; a block ends at whitespace, so no
    chunk is cut.  Each distinct chunk is tokenized once, in the block where
    it first appears.  A chunk that is all letters and digits, once the
    punctuation at its ends is stripped, is one word; any other chunk goes
    through the token pattern, which keeps internal apostrophes and
    hyphens.  Tokens must contain a letter (a character for which
    ``str.isalpha()`` is true), so bare numbers such as ``1492`` or ``²``
    and punctuation runs are dropped.  A word that case-folding leaves as
    it is is its own token.  Tokenizing the tokens again gives them back.

    Only one block's chunk strings are held at a time, beside one string
    per distinct chunk in the table, so what grows with the length of the
    text is the text itself and the token tuple.
    """
    text = unicodedata.normalize("NFC", text)
    # The token of each distinct chunk (None for no token, the token for one,
    # else a tuple of them), the chunks that hold two or more tokens, and the
    # word table are kept across blocks.
    block_tokens = partial(_block_tokens, {}, set(), _Fold())
    return tuple(chain.from_iterable(map(block_tokens, _blocks(text))))


def _blocks(text: str) -> Iterator[str]:
    """The text cut at the first whitespace at or after every ``_BLOCK_CHARS`` characters."""
    start = 0
    while start < len(text):
        space = _SPACE_RE.search(text, start + _BLOCK_CHARS)
        end = space.start() if space else len(text)
        yield text[start:end]
        start = end


def _block_tokens(found: dict[str, str | tuple[str, ...] | None], several: set[str],
                  fold: _Fold, block: str) -> Iterable[str]:
    """The tokens of one block, tokenizing the chunks not yet in ``found``."""
    chunks = block.split()
    # No token spans whitespace, so each distinct chunk is tokenized once.
    # Text order reads the chunks where split() wrote them; a set's hash
    # order made tokenize about 10 % slower.
    for chunk in filterfalse(found.__contains__, dict.fromkeys(chunks)):
        word = chunk.strip(_EDGE)
        if word.isalnum():
            found[chunk] = fold[word]
        else:
            words = tuple(filter(None, map(fold.__getitem__, _TOKEN_RE.findall(word))))
            found[chunk] = words[0] if len(words) == 1 else words or None
            if len(words) > 1:  # such as "ayer—hoy"
                several.add(chunk)
    tokens = filter(None, map(found.__getitem__, chunks))
    if several.isdisjoint(chunks):
        return tokens
    # Flattening costs a step per token, so only blocks with such a chunk take it.
    return chain.from_iterable((t,) if type(t) is str else t for t in tokens)


class _Fold(dict):
    """The token of each word looked up, or None for a word without a letter.

    Each distinct word is folded once, so the tokens of equal words are one
    object, which the growth kernel's dictionary finds by identity.  A word
    that case-folding and NFC leave unchanged is its own token, so no equal
    copy is kept.  Case-folding can decompose a letter (ῶ folds to ω and
    U+0342), so the folded word is composed again; it is never empty.
    """

    def __missing__(self, word: str) -> str | None:
        token = None
        # isalpha() settles most words without building a map: about 5 of the
        # 70 ms tokenize takes on the lexdiv-zipf texts.
        if word.isalpha() or any(map(str.isalpha, word)):
            token = unicodedata.normalize("NFC", word.casefold())
            if token == word:
                token = word
        self[word] = token
        return token


def lexical_report(
    tokens: Iterable[str],
    source_id: str,
    order: float = 1.0,
    checkpoints: Iterable[int] = every(100),
) -> LexicalReport:
    """Build the lexical-diversity report for one document.

    ``tokens`` may be any iterable: the growth pass reads it once, and its
    last checkpoint gives the token count.  Fits the power law to the
    vocabulary-growth curve and the M4 model to the diversity-growth curve.
    """
    vocab, div = growth_curves(tokens, checkpoints, order)
    if not vocab.points:
        raise ValueError("document contains no tokens")

    return LexicalReport(
        source_id=source_id,
        n_tokens=vocab.points[-1][0],
        n_types=int(vocab.points[-1][1]),
        order=float(order),
        observed_diversity=div.points[-1][1],
        power_law=fit_power_law(vocab),
        saturating=fit_model(div, ModelKind.M4),
        vocabulary_curve=vocab,
        diversity_curve=div,
    )


def pearson_r(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient of two equally long sequences.

    Raises ``ValueError`` for unequal lengths, n < 2 or a constant sequence.
    """
    import statistics  # imported here: no other command needs it at start-up

    r = statistics.correlation(xs, ys)
    return max(-1.0, min(1.0, r))  # rounding can carry |r| past 1

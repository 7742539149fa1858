"""The tokenizer's two paths (a byte table for text that is ASCII once
lowercased, the regex otherwise) give the declared regex's tokens, and the
index builds that use them match the one-token-at-a-time oracles."""

from __future__ import annotations

import random
import string

import numpy as np
import pytest

from icr.corpus import Passage
from icr.dense_index import HashEmbeddingProvider
from icr.sparse_index import build_sparse_index, tokenize

from .oracles import oracle_hash_embedding, oracle_sparse_postings, oracle_tokenize
from .support import csr_postings

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# Characters where a tokenizer shortcut could part from the regex: the
# Kelvin sign lowercases to ASCII "k", dotted capital I to two characters
# ("i" and a combining dot), "ß" stays one; Arabic-Indic one and superscript
# two are alphanumeric; NBSP and the ideographic space are not; NUL, "_",
# tab and the ASCII separators \x1c-\x1f split tokens without being spaces
# to every splitter.
SPECIALS = ["\u212a", "\u0130", "\u00df", "\u0661", "\u00b2", "\u00a0", "\u3000", "\x00", "_", "\t",
            "\x1c", "\x1d", "\x1e", "\x1f"]
ASCII = [chr(c) for c in range(128)]
ASCII_HEAVY = list(string.ascii_letters + string.digits + string.punctuation + " \n\r\x0b\x0c") + SPECIALS


def test_tokenize_special_characters():
    assert tokenize("\u212aELVIN 42\u212a") == ["kelvin", "42k"]  # ASCII once lowercased
    # the combining dot of a lowercased dotted capital I is not alphanumeric
    assert tokenize("Stra\u00dfe \u0130stanbul") == ["stra\u00dfe", "i", "stanbul"]
    assert tokenize("x\u00b2 \u0661\u0662") == ["x\u00b2", "\u0661\u0662"]
    assert tokenize("a\u00a0b\u3000c\x00d_e\tf\x1cg\x1fh") == list("abcdefgh")


@hypothesis.settings(max_examples=500, deadline=None, database=None)
@hypothesis.given(st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from(ASCII)),
    st.text(alphabet=st.sampled_from(ASCII + ["\u212a"])),
    st.text(alphabet=st.sampled_from(ASCII_HEAVY)),
))
def test_tokenize_equals_the_regex_on_the_lowercased_text(text):
    assert tokenize(text) == oracle_tokenize(text)


def _mixed_script_texts(seed: int, n: int) -> list[str]:
    """Texts of a few shared words, some spelled with the special characters,
    so ASCII and non-ASCII passages share terms (the Kelvin sign's "kelvin"
    is ASCII "kelvin")."""
    rng = random.Random(seed)
    words = ["kelvin", "\u212aelvin", "KELVIN", "stra\u00dfe", "\u0130zmir", "x\u00b2", "\u0661\u0662",
             "a_b", "caf\u00e9", "CAF\u00c9", "bm25", "k1"]
    seps = [" ", "\u00a0", "\u3000", "\x00", "\t", "\x1c", "-", ", "]
    texts = []
    for _ in range(n):
        k = rng.randint(0, 12)
        texts.append("".join(rng.choice(words) + rng.choice(seps) for _ in range(k)))
    return texts


def test_mixed_script_collection_equals_the_oracles():
    texts = _mixed_script_texts(5, 150)
    assert any(t.isascii() for t in texts) and not all(t.isascii() for t in texts)
    index = build_sparse_index([Passage(f"p{i}", t) for i, t in enumerate(texts)])
    terms, offsets, ords, tfs, doc_lengths = oracle_sparse_postings(texts)
    assert list(index.terms.items()) == list(terms.items())
    assert "kelvin" in terms and "\u212aelvin" not in terms
    got_ords, got_tfs = csr_postings(index)
    for name, got, want in (
        ("offsets", index.offsets, offsets),
        ("ords", got_ords, ords),
        ("tfs", got_tfs, tfs),
        ("doc_lengths", index.doc_lengths, doc_lengths),
    ):
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    for dim in (1, 7, 64):
        got = HashEmbeddingProvider(dim=dim).embed_batch(texts)
        assert np.array_equal(got, oracle_hash_embedding(texts, dim))

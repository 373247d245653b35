"""Hypothesis property tests — the LuceneTestCase randomized-testing
discipline (SURVEY §5): codec round-trips, analyzer algebra, geohash
bounds, and quantization monotonicity hold for ARBITRARY inputs, not
just the fixtures."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lucene_solr_ray.index.encode import (delta_decode, delta_encode,
                                          grouped_delta_decode,
                                          grouped_delta_encode,
                                          varint_decode, varint_encode)

u64s = st.lists(st.integers(min_value=0, max_value=2**63 - 1),
                min_size=0, max_size=200)


@settings(max_examples=200, deadline=None)
@given(u64s)
def test_varint_roundtrip(vals):
    v = np.asarray(vals, dtype=np.int64)
    assert varint_decode(varint_encode(v)).tolist() == vals


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**40),
                min_size=1, max_size=200))
def test_delta_roundtrip_sorted(vals):
    v = np.asarray(sorted(vals), dtype=np.int64)
    assert delta_decode(delta_encode(v)).tolist() == sorted(vals)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=0, max_value=2**30),
                         min_size=1, max_size=20),
                min_size=1, max_size=20))
def test_grouped_delta_roundtrip(groups):
    flat = np.asarray([x for g in groups for x in sorted(g)],
                      dtype=np.int64)
    counts = np.asarray([len(g) for g in groups], dtype=np.int64)
    enc = grouped_delta_encode(flat, counts)
    assert grouped_delta_decode(enc, counts).tolist() == flat.tolist()


@settings(max_examples=150, deadline=None)
@example('𝙰')  # U+1D670: category Lu with NO lowercase mapping — survives
@example('឴')  # KHMER VOWEL INHERENT AQ: lone SA-class Mn token
@example('⼀')  # U+2F00 KANGXI RADICAL ONE: Script=Han symbol, So
@example('⺀')  # U+2E80 CJK RADICAL REPEAT: Script=Han symbol, So
@given(st.text(max_size=300))
def test_analyzer_terms_wellformed(text):
    from lucene_solr_ray.analysis.analyzer import token_terms

    terms = token_terms(text)
    assert terms == token_terms(text)  # deterministic
    for t in terms:
        assert t and len(t) <= 255
        # uax29 default: every emitted token carries at least one
        # letter/digit (punctuation-only segments are dropped), and
        # lowercasing is idempotent — the invariant LowerCaseFilter
        # actually guarantees.  444 codepoints (mathematical
        # alphanumerics, U+1D400-U+1D7CA) are category Lu with no
        # lowercase mapping; str.lower() and Java Character.toLowerCase
        # both return them unchanged, so 'no isupper() survives' is too
        # strong.
        # ... EXCEPT <SOUTHEAST_ASIAN> segments: LineBreak=Complex_Context
        # runs are emitted whole (the JFlex ComplexContextEx+ rule), and
        # lone SA-class combining marks like U+17B4 KHMER VOWEL INHERENT
        # AQ are category Mn (isalnum() False) yet legitimately tokens —
        # the reference's StandardTokenizer emits them identically.
        # ... and Script=Han symbols: the grammar's HanEx is
        # \p{Script:Han}, not Han letters only, so radicals such as
        # U+2F00 (category So, isalnum() False) are emitted as one
        # <IDEOGRAPHIC> token each (StandardTokenizerImpl.jflex:59,190).
        from lucene_solr_ray.analysis.uax29 import HAN, SEA, _table
        wb, _ = _table()
        cp = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32)
        assert (any(c.isalnum() for c in t) or (wb[cp] == SEA).all()
                or (wb[cp] == HAN).all())
        assert t == t.lower()


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=32,
                                      max_codepoint=126), max_size=120),
       st.text(alphabet=st.characters(min_codepoint=32,
                                      max_codepoint=126), max_size=120))
def test_analyzer_concat_with_space_is_concat_of_tokens(a, b):
    """Whitespace is always a boundary for the ascii tokenizer, so
    tokenizing around an inserted space composes."""
    from lucene_solr_ray.analysis.analyzer import token_terms

    assert token_terms(a + " " + b) == token_terms(a) + token_terms(b)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-90, max_value=90, allow_nan=False),
       st.floats(min_value=-180, max_value=179.999999, allow_nan=False))
def test_geohash_roundtrip_error_bound(lat, lon):
    """12-char geohash: decode lands within the cell (< ~2e-8 deg of
    lat error, < ~4e-8 lon); prefixes decode to coarser cells that
    still contain the point."""
    from lucene_solr_ray.state.geohash import geohash_decode, geohash_encode

    gh = geohash_encode(lat, lon, precision=12)
    dl, dn = geohash_decode(gh)
    assert abs(dl - lat) < 1e-6 and abs(dn - lon) < 1e-6
    # prefix property: the 6-char cell shares its prefix
    gh6 = geohash_encode(lat, lon, precision=6)
    assert gh.startswith(gh6)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1e6,
                          allow_nan=False), min_size=2, max_size=50))
def test_quantize_monotone(scores):
    from lucene_solr_ray.pipelines.queries import quantize_score

    v = np.asarray(scores, dtype=np.float64)
    q = quantize_score(v)
    order = np.argsort(v)
    assert np.all(np.diff(q[order]) >= 0)  # order-preserving


@settings(max_examples=150, deadline=None)
@given(st.floats(min_value=-90, max_value=90, allow_nan=False),
       st.floats(min_value=-180, max_value=180, allow_nan=False),
       st.floats(min_value=-90, max_value=90, allow_nan=False),
       st.floats(min_value=-180, max_value=180, allow_nan=False))
def test_haversine_metric_properties(a1, o1, a2, o2):
    from lucene_solr_ray.ops.geo import EARTH_RADIUS_M, haversine_m

    d = haversine_m(a1, o1, a2, o2)
    assert 0.0 <= d <= np.pi * EARTH_RADIUS_M + 1e-6
    assert d == haversine_m(a2, o2, a1, o1)  # symmetric
    assert haversine_m(a1, o1, a1, o1) == 0.0

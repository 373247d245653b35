"""Driver-facing query registry: Ray pipelines + matching DuckDB oracle SQL.

Each entry runs the REAL engine (Ray Data index build → searcher) over the
driver's parquet tables and has an ANSI-SQL twin that DuckDB executes over
the same tables. Fulltext scoring uses the engine's ``exact64`` mode whose
float64 evaluation order is reproduced verbatim in the SQL (see
search.bm25.score_exact64); scores are quantized identically on both sides
(``floor(score*10000+0.5)`` as BIGINT) so value hashes match bit-for-bit.

The tokenizer parity contract (engine `analysis.analyzer` ⟷ SQL
``regexp_extract_all(lower(text), '[a-z0-9]+')`` + length/stopword filters)
is tested in tests/test_analyzer.py.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..analysis.stopwords import stopwords_sql_list
from ..index.segment import INDEX_FORMAT_VERSION as FORMAT_VERSION
from ..index.segment import KW_SEP as _KW_SEP
from ..search.bm25 import quantize_score

INDEX_CACHE_ROOT = "/tmp/lsr_index_cache"

K1_SQL = "1.2"
B_SQL = "0.75"

# ---------------------------------------------------------------------------
# shared SQL fragments
# ---------------------------------------------------------------------------

_STOPLIST = stopwords_sql_list()


def _tok_ctes(table: str = "documents", text_col: str = "text") -> str:
    """CTEs: tok (term+position per doc), clean (post-stop), dl, stats.
    Positions are indices in the pre-stop, post-length-filter stream —
    identical to the engine's Lucene position semantics."""
    return f"""
tok AS (
  SELECT doc_id, unnest(toks) AS term, unnest(range(len(toks))) AS pos
  FROM (SELECT doc_id,
               list_filter(regexp_extract_all(lower({text_col}), '[a-z0-9]+'),
                           t -> length(t) <= 255) AS toks
        FROM {table})
),
clean AS (SELECT doc_id, term, pos FROM tok WHERE term NOT IN {_STOPLIST}),
dl AS (SELECT doc_id, count(*) AS dl FROM clean GROUP BY doc_id),
stats AS (SELECT (SELECT count(*) FROM {table}) AS n_docs,
                 (SELECT count(*) FROM clean) AS sum_dl)
"""


def _bm25_expr(tf: str, dl: str, df: str, n: str = "s.n_docs",
               sumdl: str = "s.sum_dl") -> str:
    """The exact64 BM25 expression — same shape/associativity as
    search.bm25.score_exact64."""
    return (f"ln(1 + ({n} - {df} + 0.5) / ({df} + 0.5)) "
            f"* ({tf} * ({K1_SQL} + 1)) "
            f"/ ({tf} + {K1_SQL} * ((1 - {B_SQL}) + ({B_SQL} * {dl}) "
            f"/ (CAST({sumdl} AS DOUBLE) / {n})))")


_QUANT = "CAST(floor({expr} * 10000 + 0.5) AS BIGINT)"


# ---------------------------------------------------------------------------
# index cache
# ---------------------------------------------------------------------------

_memo: dict[str, str] = {}


def documents_index(sf_dir: str) -> str:
    """Build (once) the fulltext index over <sf_dir>/documents.parquet via
    the Ray Data pipeline; cached on disk keyed by path + format version."""
    from ..index.build import build_index
    from ..index.manifest import load_manifest

    key = hashlib.sha256(f"{sf_dir}|v{FORMAT_VERSION}".encode()).hexdigest()[:12]
    out = os.path.join(INDEX_CACHE_ROOT, f"docs-{key}")
    if out in _memo:
        return out
    try:
        load_manifest(out)
        _memo[out] = out
        return out
    except FileNotFoundError:
        pass
    except ValueError:
        # unstamped/mismatched format in a /tmp cache dir — disposable
        import shutil

        shutil.rmtree(out, ignore_errors=True)
    import ray.data as rd

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text", "lang", "source",
                                  "n_chars"])
    build_index(ds, out, content_col="text", batch_rows=256,
                keyword_cols=("lang", "source"),
                # n_chars = NUMERIC doc values; lang also stored as
                # SORTED (string) doc values for DocValuesRangeQuery
                store_cols=("n_chars", "lang"))
    _memo[out] = out
    return out


def _searcher(sf_dir: str):
    from ..search.searcher import IndexSearcher

    return IndexSearcher(documents_index(sf_dir), mode="exact64")


def _topk_table(result: pa.Table) -> pa.Table:
    scores = np.asarray(result["score"], dtype=np.float64)
    return pa.table({
        "doc_id": result["doc_id"],
        "score_q": pa.array(quantize_score(scores), type=pa.int64()),
        "rank": result["rank"],
    })


# ---------------------------------------------------------------------------
# fulltext query family (engine + SQL twins)
# ---------------------------------------------------------------------------

def _sql_topk(scored_cte: str, k: int) -> str:
    return f"""
SELECT doc_id,
       {_QUANT.format(expr='score')} AS score_q,
       CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank
FROM {scored_cte}
ORDER BY score DESC, doc_id ASC
LIMIT {k}
"""


def ft_term_sql(term: str, k: int) -> str:
    return f"""
WITH {_tok_ctes()},
tf AS (SELECT doc_id, count(*) AS tf FROM clean WHERE term = '{term}'
       GROUP BY doc_id),
dfx AS (SELECT count(*) AS df FROM tf),
scored AS (
  SELECT tf.doc_id AS doc_id,
         {_bm25_expr('tf.tf', 'dl.dl', 'dfx.df')} AS score
  FROM tf JOIN dl USING (doc_id), dfx, stats s
)
{_sql_topk('scored', k)}
"""


def ft_bool_sql(must: list[str], should: list[str], must_not: list[str],
                msm: int, k: int) -> str:
    scoring = list(must) + list(should)
    inlist = ", ".join(f"'{t}'" for t in scoring)
    add_terms = " + ".join(
        f"COALESCE(max(CASE WHEN term = '{t}' THEN sc END), 0)"
        for t in scoring)
    must_cnt = (" AND ".join(
        f"COALESCE(max(CASE WHEN term = '{t}' THEN 1 END), 0) = 1"
        for t in must) or "TRUE")
    should_cnt = ("+".join(
        f"COALESCE(max(CASE WHEN term = '{t}' THEN 1 END), 0)"
        for t in should) or "0")
    notp = ""
    if must_not:
        nl = ", ".join(f"'{t}'" for t in must_not)
        notp = (f"AND doc_id NOT IN (SELECT DISTINCT doc_id FROM clean "
                f"WHERE term IN ({nl}))")
    msm_pred = f"AND ({should_cnt}) >= {msm}" if (should and msm > 0) else ""
    return f"""
WITH {_tok_ctes()},
per AS (SELECT doc_id, term, count(*) AS tf FROM clean
        WHERE term IN ({inlist}) GROUP BY doc_id, term),
dfs AS (SELECT term, count(*) AS df FROM per GROUP BY term),
cs AS (SELECT per.doc_id, per.term,
              {_bm25_expr('per.tf', 'dl.dl', 'dfs.df')} AS sc
       FROM per JOIN dfs USING (term) JOIN dl USING (doc_id), stats s),
scored AS (
  SELECT doc_id, {add_terms} AS score
  FROM cs
  GROUP BY doc_id
  HAVING {must_cnt} {msm_pred}
),
scored2 AS (SELECT * FROM scored WHERE TRUE {notp})
{_sql_topk('scored2', k)}
"""


def ft_common_terms_sql(terms: list[str], max_df_ratio: float,
                        k: int) -> str:
    """Twin of search_common_terms: the df split is DYNAMIC — a term is
    exempt from the MUST requirement iff its df > ratio·N, computed in
    the query itself, so the twin tracks the engine's split at any
    scale factor."""
    inlist = ", ".join(f"'{t}'" for t in terms)
    add_terms = " + ".join(
        f"COALESCE(max(CASE WHEN term = '{t}' THEN sc END), 0)"
        for t in terms)
    must_pred = " AND ".join(
        f"(COALESCE(max(CASE WHEN term = '{t}' THEN 1 END), 0) = 1 "
        f"OR COALESCE((SELECT df FROM dfs WHERE term = '{t}'), 0) "
        f"> {max_df_ratio!r} * (SELECT n_docs FROM stats))"
        for t in terms)
    return f"""
WITH {_tok_ctes()},
per AS (SELECT doc_id, term, count(*) AS tf FROM clean
        WHERE term IN ({inlist}) GROUP BY doc_id, term),
dfs AS (SELECT term, count(*) AS df FROM per GROUP BY term),
cs AS (SELECT per.doc_id, per.term,
              {_bm25_expr('per.tf', 'dl.dl', 'dfs.df')} AS sc
       FROM per JOIN dfs USING (term) JOIN dl USING (doc_id), stats s),
scored AS (
  SELECT doc_id, {add_terms} AS score
  FROM cs
  GROUP BY doc_id
  HAVING {must_pred}
)
{_sql_topk('scored', k)}
"""


def ft_phrase_sql(t1: str, t2: str, k: int) -> str:
    return f"""
WITH {_tok_ctes()},
dfs AS (SELECT term, count(DISTINCT doc_id) AS df FROM clean
        WHERE term IN ('{t1}', '{t2}') GROUP BY term),
pf AS (SELECT a.doc_id, count(*) AS pf
       FROM clean a JOIN clean b
         ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
       WHERE a.term = '{t1}' AND b.term = '{t2}'
       GROUP BY a.doc_id),
idf AS (SELECT ln(1 + (s.n_docs - d1.df + 0.5) / (d1.df + 0.5))
             + ln(1 + (s.n_docs - d2.df + 0.5) / (d2.df + 0.5)) AS v
        FROM stats s,
             (SELECT df FROM dfs WHERE term = '{t1}') d1,
             (SELECT df FROM dfs WHERE term = '{t2}') d2),
scored AS (
  SELECT pf.doc_id AS doc_id,
         idf.v * (pf.pf * ({K1_SQL} + 1))
           / (pf.pf + {K1_SQL} * ((1 - {B_SQL}) + ({B_SQL} * dl.dl)
              / (CAST(s.sum_dl AS DOUBLE) / s.n_docs))) AS score
  FROM pf JOIN dl USING (doc_id), idf, stats s
)
{_sql_topk('scored', k)}
"""


def ft_term_stats_sql(terms: list[str]) -> str:
    inlist = ", ".join(f"'{t}'" for t in terms)
    return f"""
WITH {_tok_ctes()}
SELECT term, count(DISTINCT doc_id) AS df, count(*) AS ttf
FROM clean WHERE term IN ({inlist})
GROUP BY term ORDER BY term
"""


def ft_collection_stats_sql() -> str:
    return f"""
WITH {_tok_ctes()}
SELECT n_docs, sum_dl FROM stats
"""


def ft_top_terms_sql(n: int) -> str:
    return f"""
WITH {_tok_ctes()}
SELECT term, count(DISTINCT doc_id) AS df
FROM clean GROUP BY term
ORDER BY df DESC, term ASC LIMIT {n}
"""


# ---------------------------------------------------------------------------
# engine callables
# ---------------------------------------------------------------------------

HOT, HOT2, MID, RARE, ABSENT = "table", "customer", "vector", "dup", "zzzmissing"
STATS_TERMS = ["table", "customer", "vector", "dup", "stream", "window"]


def _q_term(term, k=10):
    def run(sf_dir):
        return _topk_table(_searcher(sf_dir).search(
            {"type": "term", "term": term}, k=k))
    return run


def _q_ltr_features(t_a=None, t_b=None):
    """LTR TRAINING-DATA extraction (the feature-logging side of
    solr/contrib/ltr — FeatureLogger/SolrFeature: ft_ltr_rerank
    consumes a model, this emits the per-(query, doc) feature matrix
    that trains it): for every doc matching either term, the raw
    features (tf_a, tf_b, dl) and the per-term exact64 BM25 scores,
    quantized. All postings decode through the same liveDocs-aware
    path as queries."""

    def run(sf_dir):
        a = t_a or MID
        b = t_b or HOT
        s = _searcher(sf_dir)

        def tf_of(term, docs):
            p = s._decode_term_global(term)
            if p is None:
                return np.zeros(len(docs), dtype=np.int64)
            d, tf = p[0], p[1]
            idx = np.clip(np.searchsorted(d, docs), 0, len(d) - 1)
            return np.where(d[idx] == docs, tf[idx], 0) \
                .astype(np.int64)

        def sc_of(term, docs):
            d, sc = s.eval_node({"type": "term", "term": term})
            if len(d) == 0:
                return np.zeros(len(docs), dtype=np.float64)
            idx = np.clip(np.searchsorted(d, docs), 0, len(d) - 1)
            return np.where(d[idx] == docs, sc[idx], 0.0)

        pa_ = s._decode_term_global(a)
        pb = s._decode_term_global(b)
        docs = np.unique(np.concatenate(
            [p[0] for p in (pa_, pb) if p is not None]
            or [np.array([], dtype=np.int64)]))
        ids, dls = s._global_dl()
        dl = dls[np.clip(np.searchsorted(ids, docs), 0,
                         max(len(ids) - 1, 0))]
        return pa.table({
            "doc_id": pa.array(docs, type=pa.int64()),
            "tf_a": pa.array(tf_of(a, docs), type=pa.int64()),
            "tf_b": pa.array(tf_of(b, docs), type=pa.int64()),
            "dl": pa.array(dl.astype(np.int64), type=pa.int64()),
            "score_a_q": pa.array(quantize_score(sc_of(a, docs)),
                                  type=pa.int64()),
            "score_b_q": pa.array(quantize_score(sc_of(b, docs)),
                                  type=pa.int64()),
        })

    return run


def ft_ltr_features_sql(t_a=None, t_b=None) -> str:
    a = t_a or MID
    b = t_b or HOT
    qa = _QUANT.format(
        expr=_bm25_expr("COALESCE(tfa.tf, 0)", "dl.dl", "dfa.df"))
    qb = _QUANT.format(
        expr=_bm25_expr("COALESCE(tfb.tf, 0)", "dl.dl", "dfb.df"))
    return f"""
WITH {_tok_ctes()},
tfa AS (SELECT doc_id, count(*) AS tf FROM clean WHERE term = '{a}'
        GROUP BY doc_id),
dfa AS (SELECT count(*) AS df FROM tfa),
tfb AS (SELECT doc_id, count(*) AS tf FROM clean WHERE term = '{b}'
        GROUP BY doc_id),
dfb AS (SELECT count(*) AS df FROM tfb),
docs AS (SELECT doc_id FROM tfa UNION SELECT doc_id FROM tfb)
SELECT docs.doc_id,
       CAST(COALESCE(tfa.tf, 0) AS BIGINT) AS tf_a,
       CAST(COALESCE(tfb.tf, 0) AS BIGINT) AS tf_b,
       CAST(dl.dl AS BIGINT) AS dl,
       {qa} AS score_a_q,
       {qb} AS score_b_q
FROM docs
LEFT JOIN tfa USING (doc_id)
LEFT JOIN tfb USING (doc_id)
JOIN dl USING (doc_id), dfa, dfb, stats s
ORDER BY docs.doc_id
"""


RRF_K = 60  # Cormack et al. 2009 reciprocal-rank-fusion constant


def _q_hybrid_rrf(term=MID, k=10, depth=20):
    """Hybrid retrieval: BM25 top-``depth`` for ``term`` fused with
    cosine top-``depth`` for query vector 0 (vec_id is doc_id-aligned)
    by reciprocal-rank fusion: rrf = Σ 1/(RRF_K + rank), absent list
    contributes 0. Both component rankings are the already-oracle-paired
    engines (exact64 BM25 topk + ann brute), so the fusion is pure
    integer-rank arithmetic over bit-identical inputs; the final order
    is (quantized rrf desc, doc_id asc)."""

    def run(sf_dir):
        import pandas as pd

        from ..ops.ann import ann_brute_topk

        bm = _topk_table(_searcher(sf_dir).search(
            {"type": "term", "term": term}, k=depth)).to_pandas()
        vec = ann_brute_topk(sf_dir, k=depth, n_queries=1).to_pandas()
        fused = (bm[["doc_id", "rank"]].rename(columns={"rank": "bm25_rank"})
                 .merge(vec[["nid", "rank"]]
                        .rename(columns={"nid": "doc_id",
                                         "rank": "vec_rank"}),
                        on="doc_id", how="outer"))
        bmr = fused["bm25_rank"].fillna(0).astype("int64").to_numpy()
        vr = fused["vec_rank"].fillna(0).astype("int64").to_numpy()
        # same expression shape + addition order as the SQL twin:
        # COALESCE(1.0/(K+bm), 0) + COALESCE(1.0/(K+vec), 0)
        rrf = (np.where(bmr > 0, 1.0 / (RRF_K + bmr), 0.0)
               + np.where(vr > 0, 1.0 / (RRF_K + vr), 0.0))
        out = pd.DataFrame({
            "doc_id": fused["doc_id"].astype("int64"),
            "rrf_q": np.floor(rrf * 1_000_000 + 0.5).astype(np.int64),
            "bm25_rank": bmr, "vec_rank": vr,
        }).sort_values(["rrf_q", "doc_id"], ascending=[False, True]) \
          .head(k).reset_index(drop=True)
        out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    return run


def ft_hybrid_rrf_sql(term=MID, k=10, depth=20) -> str:
    return f"""
WITH {_tok_ctes()},
tf AS (SELECT doc_id, count(*) AS tf FROM clean WHERE term = '{term}'
       GROUP BY doc_id),
dfx AS (SELECT count(*) AS df FROM tf),
bm_scored AS (
  SELECT tf.doc_id AS doc_id,
         {_bm25_expr('tf.tf', 'dl.dl', 'dfx.df')} AS score
  FROM tf JOIN dl USING (doc_id), dfx, stats s),
bm AS (SELECT doc_id, r FROM (
         SELECT doc_id, CAST(row_number() OVER (
                  ORDER BY score DESC, doc_id ASC) AS BIGINT) AS r
         FROM bm_scored) WHERE r <= {depth}),
vq AS (SELECT vec_id AS qid,
              list_transform(embedding, x -> CAST(x AS DOUBLE)) AS qe
       FROM embeddings WHERE vec_id < 1),
vb AS (SELECT vec_id AS nid,
              list_transform(embedding, x -> CAST(x AS DOUBLE)) AS be
       FROM embeddings),
v_scored AS (
  SELECT nid, CAST(floor(list_cosine_similarity(qe, be) * 1000000 + 0.5)
                   AS BIGINT) AS sq
  FROM vq, vb WHERE qid <> nid),
vec AS (SELECT nid, r FROM (
          SELECT nid, CAST(row_number() OVER (
                   ORDER BY sq DESC, nid ASC) AS BIGINT) AS r
          FROM v_scored) WHERE r <= {depth}),
fused AS (
  SELECT COALESCE(bm.doc_id, vec.nid) AS doc_id,
         COALESCE(1.0 / ({RRF_K} + bm.r), 0)
           + COALESCE(1.0 / ({RRF_K} + vec.r), 0) AS rrf,
         COALESCE(bm.r, 0) AS bm25_rank,
         COALESCE(vec.r, 0) AS vec_rank
  FROM bm FULL OUTER JOIN vec ON vec.nid = bm.doc_id)
SELECT doc_id, CAST(floor(rrf * 1000000 + 0.5) AS BIGINT) AS rrf_q,
       bm25_rank, vec_rank,
       CAST(row_number() OVER (
         ORDER BY floor(rrf * 1000000 + 0.5) DESC, doc_id ASC) AS BIGINT)
         AS rank
FROM fused
ORDER BY rrf_q DESC, doc_id ASC LIMIT {k}
"""


def _q_bool(must=(), should=(), must_not=(), msm=0, k=10):
    def run(sf_dir):
        return _topk_table(_searcher(sf_dir).search(
            {"type": "bool", "must": list(must), "should": list(should),
             "must_not": list(must_not), "min_should_match": msm}, k=k))
    return run


def _q_phrase(t1, t2, k=10):
    def run(sf_dir):
        return _topk_table(_searcher(sf_dir).search(
            {"type": "phrase", "terms": [t1, t2]}, k=k))
    return run


def _q_term_stats(terms):
    def run(sf_dir):
        s = _searcher(sf_dir)
        st = s.term_stats(terms)
        rows = sorted((t, v[0], v[1]) for t, v in st.items() if v[0] > 0)
        return pa.table({
            "term": pa.array([r[0] for r in rows], type=pa.string()),
            "df": pa.array([r[1] for r in rows], type=pa.int64()),
            "ttf": pa.array([r[2] for r in rows], type=pa.int64()),
        })
    return run


def _q_collection_stats():
    def run(sf_dir):
        s = _searcher(sf_dir)
        return pa.table({"n_docs": pa.array([s.num_docs], type=pa.int64()),
                         "sum_dl": pa.array([s.sum_dl], type=pa.int64())})
    return run


def _q_top_terms(n=20):
    def run(sf_dir):
        """HighFreqTerms analogue as a Ray Data pipeline over segment term
        dictionaries (lucene/misc/.../HighFreqTerms.java): read only
        (term, df) columns, partial-aggregate per segment file, then a tiny
        groupby-sum + sort + limit."""
        import glob

        import ray.data as rd

        import pyarrow.compute as _pc

        idx = documents_index(sf_dir)
        files = glob.glob(os.path.join(idx, "segments", "*", "postings.parquet"))
        ds = rd.read_parquet(files, columns=["term", "df"])
        # keyword-field terms ("lang:en") are not corpus terms
        ds = ds.map_batches(
            lambda t: t.filter(_pc.invert(
                _pc.match_substring(t["term"], _KW_SEP))),
            batch_format="pyarrow")
        # vocab-cardinality sum via key-complete partitions (the
        # Aggregate-operator cliff); scrubbed before the sort
        from ..ops.temporal import grouped_fold

        agg = grouped_fold(ds, ["term"], {"sum(df)": ("df", "sum")},
                           scrub=True)
        out = agg.sort(["sum(df)", "term"], descending=[True, False]).limit(n)
        t = out.to_pandas()
        return pa.table({"term": pa.array(t["term"], type=pa.string()),
                         "df": pa.array(t["sum(df)"], type=pa.int64())})
    return run


def _q_terms_component(prefix: str | None = None,
                       regex: str | None = None,
                       mincount: int = 1, limit: int = 20):
    """TermsComponent (solr:handler/component/TermsComponent.java):
    field term enumeration with df counts, filtered by terms.prefix /
    terms.regex / terms.mincount, sorted count desc then term asc. Same
    distributed shape as HighFreqTerms: prune to (term, df) columns,
    filter inside map_batches, tiny groupby-sum + sort + limit."""
    def run(sf_dir):
        import glob

        import ray.data as rd

        idx = documents_index(sf_dir)
        files = glob.glob(os.path.join(idx, "segments", "*",
                                       "postings.parquet"))
        ds = rd.read_parquet(files, columns=["term", "df"])

        def keep(t: pa.Table) -> pa.Table:
            m = pc.invert(pc.match_substring(t["term"], _KW_SEP))
            if prefix is not None:
                m = pc.and_(m, pc.starts_with(t["term"], prefix))
            if regex is not None:
                m = pc.and_(m, pc.match_substring_regex(
                    t["term"], f"^(?:{regex})$"))
            return t.filter(m)

        from ..ops.temporal import grouped_fold

        agg = grouped_fold(
            ds.map_batches(keep, batch_format="pyarrow"),
            ["term"], {"sum(df)": ("df", "sum")}, scrub=True)
        if mincount > 1:
            agg = agg.map_batches(
                lambda t: t.filter(pc.greater_equal(t["sum(df)"],
                                                    mincount)),
                batch_format="pyarrow")
        out = agg.sort(["sum(df)", "term"],
                       descending=[True, False]).limit(limit)
        t = out.to_pandas()
        return pa.table({"term": pa.array(t["term"], type=pa.string()),
                         "df": pa.array(t["sum(df)"], type=pa.int64())})
    return run


def _terms_component_sql(prefix: str | None, regex: str | None,
                         mincount: int, limit: int) -> str:
    conds = []
    if prefix is not None:
        conds.append(f"term LIKE '{prefix}%'")
    if regex is not None:
        conds.append(f"regexp_full_match(term, '{regex}')")
    where = (" WHERE " + " AND ".join(conds)) if conds else ""
    return f"""
WITH {_tok_ctes()},
t AS (SELECT term, count(DISTINCT doc_id) AS df FROM clean{where}
      GROUP BY term HAVING count(DISTINCT doc_id) >= {mincount})
SELECT term, df FROM t ORDER BY df DESC, term ASC LIMIT {limit}
"""


def _q_suggest_infix(fragment, n=10):
    """AnalyzingInfixSuggester over the documents corpus: suggestions
    keyed on any analyzed token starting with the fragment, weighted by
    the n_chars doc value (per-doc suggestion weight)."""
    def run(sf_dir):
        s = _searcher(sf_dir)
        return s.suggest_infix(fragment, n=n)
    return run


def _suggest_infix_sql(fragment: str, n: int) -> str:
    return f"""
WITH {_tok_ctes()},
m AS (SELECT DISTINCT doc_id FROM clean WHERE term LIKE '{fragment}%')
SELECT m.doc_id AS doc_id, d.n_chars AS weight
FROM m JOIN documents d USING (doc_id)
ORDER BY weight DESC, doc_id ASC LIMIT {n}
"""


def _q_word_breaks(word, min_part=2, n=5):
    """WordBreakSpellChecker.suggestWordBreaks over the documents index:
    all two-way splits of a run-on word whose halves are both dictionary
    terms, ranked by combined df."""
    def run(sf_dir):
        return _searcher(sf_dir).suggest_word_breaks(
            word, min_part=min_part, n=n)
    return run


def _word_breaks_sql(word: str, min_part: int, n: int) -> str:
    return f"""
WITH {_tok_ctes()},
t AS (SELECT term, count(DISTINCT doc_id) AS df FROM clean
      GROUP BY term),
sp AS (SELECT i, substr('{word}', 1, CAST(i AS INT)) AS l,
              substr('{word}', CAST(i AS INT) + 1) AS r
       FROM generate_series({min_part},
                            {len(word) - min_part}) g(i)),
m AS (SELECT sp.i, sp.l, sp.r, tl.df + tr.df AS freq
      FROM sp JOIN t tl ON tl.term = sp.l
              JOIN t tr ON tr.term = sp.r)
SELECT l AS "left", r AS "right", CAST(freq AS BIGINT) AS freq
FROM m ORDER BY freq DESC, i ASC LIMIT {n}
"""


def _q_word_combos(words, n=5):
    """WordBreakSpellChecker.suggestWordCombinations: adjacent query
    words whose concatenation is a dictionary term."""
    def run(sf_dir):
        return _searcher(sf_dir).suggest_word_combinations(
            list(words), n=n)
    return run


def _word_combos_sql(words: list[str], n: int) -> str:
    vals = ", ".join(f"('{a}{b}', {i})"
                     for i, (a, b) in enumerate(zip(words, words[1:])))
    return f"""
WITH {_tok_ctes()},
t AS (SELECT term, count(DISTINCT doc_id) AS df FROM clean
      GROUP BY term),
c(comb, i) AS (VALUES {vals})
SELECT comb AS combination, CAST(i AS BIGINT) AS at,
       CAST(df AS BIGINT) AS df
FROM c JOIN t ON t.term = c.comb
ORDER BY df DESC, i ASC LIMIT {n}
"""


def _q_suggest_blended(fragment, n=10):
    """BlendedInfixSuggester: infix match, weight blended with the
    reciprocal of the first match position."""
    def run(sf_dir):
        t = _searcher(sf_dir).suggest_blended_infix(fragment, n=n)
        scores = np.asarray(t["score"], dtype=np.float64)
        return pa.table({
            "doc_id": t["doc_id"],
            "score_q": pa.array(quantize_score(scores), type=pa.int64()),
            "rank": pa.array(np.arange(1, t.num_rows + 1),
                             type=pa.int64()),
        })
    return run


def _suggest_blended_sql(fragment: str, n: int) -> str:
    return f"""
WITH {_tok_ctes()},
m AS (SELECT doc_id, min(pos) AS mp FROM clean
      WHERE term LIKE '{fragment}%' GROUP BY doc_id),
scored AS (SELECT m.doc_id AS doc_id,
                  d.n_chars * (1.0 / (1.0 + mp)) AS score
           FROM m JOIN documents d USING (doc_id))
{_sql_topk('scored', n)}
"""


REL_FACET_PREFIX_SQL = """
SELECT event_type, count(*) AS cnt FROM events
WHERE event_type LIKE 'p%' GROUP BY event_type ORDER BY event_type
"""

REL_GROUP_NGROUPS_SQL = """
SELECT count(*) AS ngroups,
       CAST(count(*) FILTER (WHERE cnt >= 2) AS BIGINT) AS matching
FROM (SELECT count(*) AS cnt FROM orders GROUP BY o_custkey)
"""


def ft_dedup_exact_sql() -> str:
    return """
SELECT min(doc_id) AS keep_id, count(*) AS n
FROM documents GROUP BY text ORDER BY keep_id
"""


def ft_jaccard_pairs_sql(threshold: float) -> str:
    """Exhaustive-pair oracle for both the MinHash-LSH and the exact
    n-gram-Jaccard engines (shingle contract documented in ops.dedup)."""
    return f"""
WITH toks AS (
  SELECT doc_id, list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                             t -> length(t) <= 255) AS tk
  FROM documents),
sh AS (SELECT doc_id,
              list_distinct([tk[i] || ' ' || tk[i+1] || ' ' || tk[i+2]
                             for i in range(1, len(tk) - 1)]) AS s
       FROM toks WHERE len(tk) >= 3),
pairs AS (
  SELECT a.doc_id AS a, b.doc_id AS b,
         len(list_intersect(a.s, b.s)) AS inter,
         len(a.s) + len(b.s) - len(list_intersect(a.s, b.s)) AS uni
  FROM sh a JOIN sh b ON a.doc_id < b.doc_id)
SELECT a, b,
       CAST(floor(CAST(inter AS DOUBLE) / uni * 10000 + 0.5) AS BIGINT) AS j_q
FROM pairs WHERE CAST(inter AS DOUBLE) / uni >= {threshold}
ORDER BY a, b
"""


def dedup_apply_sql(threshold: float) -> str:
    """Twin of ops.dedup.dedup_apply: the clusters CTE (same as
    dedup_clusters_sql), then the corpus minus every non-minimum
    cluster member."""
    return f"""
WITH RECURSIVE toks AS (
  SELECT doc_id, list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                             t -> length(t) <= 255) AS tk
  FROM documents),
sh AS (SELECT doc_id,
              list_distinct([tk[i] || ' ' || tk[i+1] || ' ' || tk[i+2]
                             for i in range(1, len(tk) - 1)]) AS s
       FROM toks WHERE len(tk) >= 3),
pairs AS (
  SELECT a.doc_id AS a, b.doc_id AS b
  FROM sh a JOIN sh b ON a.doc_id < b.doc_id
  WHERE CAST(len(list_intersect(a.s, b.s)) AS DOUBLE)
        / (len(a.s) + len(b.s) - len(list_intersect(a.s, b.s)))
        >= {threshold}),
edges AS (SELECT a AS u, b AS v FROM pairs
          UNION SELECT b, a FROM pairs),
reach(u, v) AS (
  SELECT u, v FROM edges
  UNION
  SELECT r.u, e.v FROM reach r JOIN edges e ON r.v = e.u),
closure AS (SELECT u, v FROM reach UNION SELECT u, u FROM edges),
dropped AS (SELECT u AS doc_id FROM closure GROUP BY u
            HAVING min(v) < u)
SELECT doc_id, n_chars FROM documents
WHERE doc_id NOT IN (SELECT doc_id FROM dropped)
ORDER BY doc_id
"""


def pretrain_report_sql(threshold: float, n: int,
                        jaccard: float) -> str:
    """Twin of ops.pretrain.pretrain_corpus_report: every gate's
    existing twin logic composed into one conjunctive report."""
    from ..ops.quality_filters import (EVAL_MOD, EVAL_REMAINDER,
                                       MAX_DUP3GRAM_FRAC,
                                       MAX_MEAN_WORD_LEN,
                                       MAX_SYMBOL_RATIO,
                                       MAX_TOP2GRAM_FRAC, MAX_WORDS,
                                       MIN_MEAN_WORD_LEN,
                                       MIN_STOP_HITS, MIN_WORDS,
                                       STOP_SET)

    gstops = ", ".join(f"'{s}'" for s in STOP_SET)
    leads = " || ' ' || ".join(
        ["term"] + [f"lead(term, {i}) OVER w" for i in range(1, n)])
    return f"""
WITH RECURSIVE toksl AS (
  SELECT doc_id, list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                             t -> length(t) <= 255) AS tk
  FROM documents),
sh AS (SELECT doc_id,
              list_distinct([tk[i] || ' ' || tk[i+1] || ' ' || tk[i+2]
                             for i in range(1, len(tk) - 1)]) AS s
       FROM toksl WHERE len(tk) >= 3),
prs AS (
  SELECT a.doc_id AS a, b.doc_id AS b
  FROM sh a JOIN sh b ON a.doc_id < b.doc_id
  WHERE CAST(len(list_intersect(a.s, b.s)) AS DOUBLE)
        / (len(a.s) + len(b.s) - len(list_intersect(a.s, b.s)))
        >= {jaccard}),
edges AS (SELECT a AS u, b AS v FROM prs
          UNION SELECT b, a FROM prs),
reach(u, v) AS (
  SELECT u, v FROM edges
  UNION
  SELECT r.u, e.v FROM reach r JOIN edges e ON r.v = e.u),
closure AS (SELECT u, v FROM reach UNION SELECT u, u FROM edges),
dropped AS (SELECT u AS doc_id FROM closure GROUP BY u
            HAVING min(v) < u),
tokens AS (SELECT doc_id, unnest(tk) AS term,
                  unnest(range(len(tk))) AS pos
           FROM toksl),
g AS (SELECT doc_id, {leads} AS gram,
             lead(term, {n - 1}) OVER w IS NOT NULL AS ok
      FROM tokens WINDOW w AS (PARTITION BY doc_id ORDER BY pos)),
ev AS (SELECT DISTINCT gram FROM g
       WHERE ok AND doc_id % {EVAL_MOD} = {EVAL_REMAINDER}),
contam AS (SELECT DISTINCT doc_id FROM g
           WHERE ok AND doc_id % {EVAL_MOD} <> {EVAL_REMAINDER}
                 AND gram IN (SELECT gram FROM ev)),
gbase AS (
  SELECT doc_id,
         len(list_filter(regexp_extract_all(text, '\\S+'),
                         w -> length(w) > 0)) AS n_words,
         length(regexp_replace(text, '\\s', '', 'g')) AS nonspace,
         length(regexp_replace(text, '[a-zA-Z0-9\\s]', '', 'g'))
           AS symbols,
         length(text) AS total_chars
  FROM documents),
gst AS (SELECT doc_id, count(DISTINCT term) AS distinct_stops
        FROM tokens WHERE term IN ({gstops}) GROUP BY doc_id),
gm AS (
  SELECT b.doc_id,
         (b.n_words >= {MIN_WORDS} AND b.n_words <= {MAX_WORDS}
          AND (CASE WHEN b.n_words > 0
               THEN CAST(b.nonspace AS DOUBLE) / b.n_words
               ELSE 0 END) >= {MIN_MEAN_WORD_LEN}
          AND (CASE WHEN b.n_words > 0
               THEN CAST(b.nonspace AS DOUBLE) / b.n_words
               ELSE 0 END) <= {MAX_MEAN_WORD_LEN}
          AND (CASE WHEN b.total_chars > 0
               THEN CAST(b.symbols AS DOUBLE) / b.total_chars
               ELSE 0 END) < {MAX_SYMBOL_RATIO}
          AND COALESCE(s.distinct_stops, 0) >= {MIN_STOP_HITS})
           AS gop
  FROM gbase b LEFT JOIN gst s ON s.doc_id = b.doc_id),
tot AS (SELECT doc_id, length(array_to_string(tk, '')) AS tot
        FROM toksl),
g2 AS (SELECT doc_id, unnest([tk[i] || ' ' || tk[i+1]
                              for i in range(1, len(tk))]) AS g
       FROM toksl WHERE len(tk) >= 2),
c2 AS (SELECT doc_id, g, count(*) AS c FROM g2 GROUP BY 1, 2),
top2 AS (SELECT doc_id, c * (length(g) - 1) AS covered
         FROM (SELECT doc_id, g, c, row_number() OVER
                 (PARTITION BY doc_id ORDER BY c DESC, g ASC) AS rn
               FROM c2)
         WHERE rn = 1),
g3 AS (SELECT doc_id, unnest([tk[i] || ' ' || tk[i+1] || ' ' || tk[i+2]
                              for i in range(1, len(tk) - 1)]) AS g
       FROM toksl WHERE len(tk) >= 3),
c3 AS (SELECT doc_id, g, count(*) AS c FROM g3 GROUP BY 1, 2),
dup3 AS (SELECT doc_id, sum(c * (length(g) - 2)) AS covered
         FROM c3 WHERE c >= 2 GROUP BY doc_id),
rep AS (
  SELECT t.doc_id,
         ((CASE WHEN t.tot > 0
            THEN CAST(COALESCE(a.covered, 0) AS DOUBLE) / t.tot
            ELSE 0 END) <= {MAX_TOP2GRAM_FRAC}
          AND (CASE WHEN t.tot > 0
            THEN CAST(COALESCE(b.covered, 0) AS DOUBLE) / t.tot
            ELSE 0 END) <= {MAX_DUP3GRAM_FRAC}) AS rep_ok
  FROM tot t LEFT JOIN top2 a ON a.doc_id = t.doc_id
             LEFT JOIN dup3 b ON b.doc_id = t.doc_id),
lagg AS (SELECT doc_id, count(*) AS nt,
                count(*) FILTER (term IN {_STOPLIST}) AS ns
         FROM tokens GROUP BY doc_id)
SELECT d.source,
       count(*) FILTER (
         d.doc_id % {EVAL_MOD} <> {EVAL_REMAINDER}
         AND COALESCE(gm.gop, FALSE)
         AND COALESCE(rep.rep_ok, FALSE)
         AND COALESCE(CAST(l.ns AS DOUBLE) / l.nt >= {threshold}, FALSE)
         AND d.doc_id NOT IN (SELECT doc_id FROM contam)
         AND d.doc_id NOT IN (SELECT doc_id FROM dropped)
       ) AS kept,
       count(*) AS total
FROM documents d
LEFT JOIN gm ON gm.doc_id = d.doc_id
LEFT JOIN rep ON rep.doc_id = d.doc_id
LEFT JOIN lagg l ON l.doc_id = d.doc_id
GROUP BY d.source
ORDER BY d.source
"""


def substring_dup_sql(k: int) -> str:
    """Twin of ops.dedup.substring_dup_pairs: distinct k-token windows
    per doc (same tokenizer contract as the shingle oracle), pairs =
    docs sharing a window, n_shared = distinct shared windows."""
    gram = " || ' ' || ".join(f"tk[i+{j}]" for j in range(k)) \
        .replace("tk[i+0]", "tk[i]")
    return f"""
WITH toks AS (
  SELECT doc_id, list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                             t -> length(t) <= 255) AS tk
  FROM documents),
gr AS (SELECT doc_id,
              list_distinct([{gram}
                             for i in range(1, len(tk) - {k - 2})]) AS g
       FROM toks WHERE len(tk) >= {k}),
flat AS (SELECT doc_id, unnest(g) AS gram FROM gr)
SELECT a.doc_id AS a, b.doc_id AS b, count(*) AS n_shared
FROM flat a JOIN flat b ON a.gram = b.gram AND a.doc_id < b.doc_id
GROUP BY 1, 2
ORDER BY a, b
"""


def chunk_windows_sql(chunk_tokens: int, stride: int) -> str:
    """Twin of ops.text.chunk_documents: window j covers tokens
    [j·stride+1, j·stride+chunk] (1-based slice, inclusive), exists iff
    j·stride < n_tokens; chunk_sha hashes the space-joined window."""
    return f"""
WITH toks AS (
  SELECT doc_id, list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                             t -> length(t) <= 255) AS tk
  FROM documents),
js AS (SELECT doc_id, tk,
              unnest(range(0, len(tk), {stride})) AS start
       FROM toks WHERE len(tk) > 0),
ch AS (SELECT doc_id, start // {stride} AS chunk_id,
              tk[start + 1 : least(start + {chunk_tokens}, len(tk))] AS c
       FROM js)
SELECT doc_id, chunk_id, len(c) AS n_tokens,
       sha256(array_to_string(c, ' ')) AS chunk_sha
FROM ch
ORDER BY doc_id, chunk_id
"""


def significant_terms_sql(fg_term: str, n: int, min_fg: int) -> str:
    """Twin of ops.text.significant_terms: distinct (doc, term) pairs,
    foreground = docs containing fg_term, score = one float64 division
    of integer products (same shape as the engine)."""
    return f"""
WITH {_tok_ctes()},
dt AS (SELECT DISTINCT doc_id, term FROM clean),
fg AS (SELECT DISTINCT doc_id FROM dt WHERE term = '{fg_term}'),
tot AS (SELECT (SELECT count(*) FROM fg) AS fg_total,
               (SELECT count(*) FROM documents) AS bg_total),
per AS (SELECT term, count(*) AS bg_df,
               count(*) FILTER (doc_id IN (SELECT doc_id FROM fg))
                 AS fg_df
        FROM dt GROUP BY term)
SELECT term, fg_df, bg_df,
       CAST(floor((fg_df * CAST(t.bg_total AS DOUBLE))
                  / (bg_df * CAST(t.fg_total AS DOUBLE))
                  * 10000 + 0.5) AS BIGINT) AS score_q
FROM per, tot t WHERE fg_df >= {min_fg}
ORDER BY score_q DESC, term ASC LIMIT {n}
"""


def pii_redact_sql() -> str:
    """Twin of ops.text.pii_redact: the SAME RE2 patterns applied in the
    same order (counts taken on the progressively-redacted text, exactly
    like the engine), sha256 of the final text."""
    from ..ops.text import PII_PATTERNS

    prev = "s0"
    ctes = ["s0 AS (SELECT doc_id, text AS t, 0 AS c FROM documents)"]
    for i, (name, pat) in enumerate(PII_PATTERNS, 1):
        ctes.append(
            f"s{i} AS (SELECT doc_id, "
            f"regexp_replace(t, '{pat}', '<{name}>', 'g') AS t, "
            f"c + length(regexp_extract_all(t, '{pat}')) AS c "
            f"FROM {prev})")
        prev = f"s{i}"
    return ("WITH " + ",\n".join(ctes) + f"""
SELECT doc_id, CAST(c AS BIGINT) AS n_redactions,
       sha256(t) AS clean_sha
FROM {prev} ORDER BY doc_id
""")


def stratified_sample_sql(rate_pct: int, threshold: float = 0.05) -> str:
    """Twin of ops.text.stratified_sample: the same splitmix-style mix
    (128-bit intermediate for the wrapping multiply) and the same
    stopword-ratio stratum."""
    mul = 0xFF51AFD7ED558CCD
    return f"""
WITH {_TOK_KEEPSTOP_CTE},
agg AS (SELECT doc_id, count(*) AS n,
               count(*) FILTER (term IN {_STOPLIST}) AS ns
        FROM tok GROUP BY doc_id),
lang AS (SELECT d.doc_id,
                CASE WHEN COALESCE(CAST(a.ns AS DOUBLE) / a.n, 0)
                          >= {threshold}
                     THEN 'en' ELSE 'other' END AS lang
         FROM documents d LEFT JOIN agg a USING (doc_id)),
mixed AS (SELECT doc_id, lang,
          xor(CAST((CAST(xor(CAST(doc_id AS UBIGINT),
                             CAST(doc_id AS UBIGINT) >> 33) AS HUGEINT)
                    * {mul}) % 18446744073709551616 AS UBIGINT),
              CAST((CAST(xor(CAST(doc_id AS UBIGINT),
                             CAST(doc_id AS UBIGINT) >> 33) AS HUGEINT)
                    * {mul}) % 18446744073709551616 AS UBIGINT) >> 33)
            AS h
          FROM lang)
SELECT lang,
       CAST(count(*) FILTER (h % 100 < {rate_pct}) AS BIGINT) AS kept,
       count(*) AS total
FROM mixed GROUP BY lang ORDER BY lang
"""


def dedup_clusters_sql(threshold: float) -> str:
    """Oracle twin of ops.dedup.dedup_clusters: the exhaustive Jaccard
    pair list (same contract as the minhash oracle) closed transitively
    with a recursive CTE; cluster = min doc_id of the component."""
    return f"""
WITH RECURSIVE toks AS (
  SELECT doc_id, list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                             t -> length(t) <= 255) AS tk
  FROM documents),
sh AS (SELECT doc_id,
              list_distinct([tk[i] || ' ' || tk[i+1] || ' ' || tk[i+2]
                             for i in range(1, len(tk) - 1)]) AS s
       FROM toks WHERE len(tk) >= 3),
pairs AS (
  SELECT a.doc_id AS a, b.doc_id AS b
  FROM sh a JOIN sh b ON a.doc_id < b.doc_id
  WHERE CAST(len(list_intersect(a.s, b.s)) AS DOUBLE)
        / (len(a.s) + len(b.s) - len(list_intersect(a.s, b.s)))
        >= {threshold}),
edges AS (SELECT a AS u, b AS v FROM pairs
          UNION SELECT b, a FROM pairs),
reach(u, v) AS (
  SELECT u, v FROM edges
  UNION
  SELECT r.u, e.v FROM reach r JOIN edges e ON r.v = e.u),
closure AS (SELECT u, v FROM reach UNION SELECT u, u FROM edges)
SELECT u AS doc_id, CAST(min(v) AS BIGINT) AS cluster
FROM closure GROUP BY u ORDER BY doc_id
"""


def dedup_rep_quality_sql(threshold: float) -> str:
    """Twin of ops.dedup.dedup_rep_quality: the dedup_clusters closure
    + the text_quality aggregates over clustered docs only + a
    row_number pick on the identical (ttr desc, tokens desc, id)
    order."""
    return f"""
WITH RECURSIVE toks AS (
  SELECT doc_id, list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                             t -> length(t) <= 255) AS tk
  FROM documents),
sh AS (SELECT doc_id,
              list_distinct([tk[i] || ' ' || tk[i+1] || ' ' || tk[i+2]
                             for i in range(1, len(tk) - 1)]) AS s
       FROM toks WHERE len(tk) >= 3),
pairs AS (
  SELECT a.doc_id AS a, b.doc_id AS b
  FROM sh a JOIN sh b ON a.doc_id < b.doc_id
  WHERE CAST(len(list_intersect(a.s, b.s)) AS DOUBLE)
        / (len(a.s) + len(b.s) - len(list_intersect(a.s, b.s)))
        >= {threshold}),
edges AS (SELECT a AS u, b AS v FROM pairs
          UNION SELECT b, a FROM pairs),
reach(u, v) AS (
  SELECT u, v FROM edges
  UNION
  SELECT r.u, e.v FROM reach r JOIN edges e ON r.v = e.u),
closure AS (SELECT u, v FROM reach UNION SELECT u, u FROM edges),
clusters AS (SELECT u AS doc_id, min(v) AS cluster
             FROM closure GROUP BY u),
q AS (SELECT c.cluster, t.doc_id, len(t.tk) AS n_tokens,
             CAST(floor(CAST(len(list_distinct(t.tk)) AS DOUBLE)
                        / len(t.tk) * 10000 + 0.5) AS BIGINT) AS ttr_q
      FROM clusters c JOIN toks t USING (doc_id)),
pick AS (SELECT cluster, doc_id AS rep_doc_id, ttr_q,
                row_number() OVER (PARTITION BY cluster
                                   ORDER BY ttr_q DESC, n_tokens DESC,
                                            doc_id ASC) AS rn
         FROM q),
sz AS (SELECT cluster, count(*) AS n_members FROM clusters
       GROUP BY cluster)
SELECT CAST(p.cluster AS BIGINT) AS cluster,
       CAST(p.rep_doc_id AS BIGINT) AS rep_doc_id,
       CAST(sz.n_members AS BIGINT) AS n_members,
       CAST(p.ttr_q AS BIGINT) AS rep_ttr_q
FROM pick p JOIN sz USING (cluster)
WHERE p.rn = 1 ORDER BY cluster
"""


_TOK_KEEPSTOP_CTE = """
tok AS (
  SELECT doc_id, unnest(toks) AS term
  FROM (SELECT doc_id,
               list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                           t -> length(t) <= 255) AS toks
        FROM documents)
)
"""


def text_langid_sql(threshold: float = 0.05) -> str:
    return f"""
WITH {_TOK_KEEPSTOP_CTE},
agg AS (SELECT doc_id, count(*) AS n,
               count(*) FILTER (term IN {_STOPLIST}) AS ns
        FROM tok GROUP BY doc_id)
SELECT d.doc_id,
       COALESCE(agg.n, 0) AS n_tokens,
       COALESCE(agg.ns, 0) AS n_stop,
       CAST(floor(COALESCE(CAST(agg.ns AS DOUBLE) / agg.n, 0) * 10000 + 0.5)
            AS BIGINT) AS stop_ratio_q,
       COALESCE(CAST(agg.ns AS DOUBLE) / agg.n >= {threshold}, FALSE) AS is_en
FROM documents d LEFT JOIN agg USING (doc_id)
ORDER BY d.doc_id
"""


def text_quality_sql() -> str:
    return f"""
WITH {_TOK_KEEPSTOP_CTE},
agg AS (
  SELECT doc_id, count(*) AS n_tokens, count(DISTINCT term) AS n_unique,
         CAST(floor(CAST(sum(length(term)) AS DOUBLE) / count(*) * 10000 + 0.5)
              AS BIGINT) AS mean_len_q,
         CAST(floor(CAST(count(DISTINCT term) AS DOUBLE) / count(*) * 10000
                    + 0.5) AS BIGINT) AS ttr_q
  FROM tok GROUP BY doc_id)
SELECT d.doc_id, COALESCE(agg.n_tokens, 0) AS n_tokens,
       COALESCE(agg.n_unique, 0) AS n_unique,
       COALESCE(agg.mean_len_q, 0) AS mean_len_q,
       COALESCE(agg.ttr_q, 0) AS ttr_q
FROM documents d LEFT JOIN agg USING (doc_id)
ORDER BY d.doc_id
"""


def text_token_totals_sql() -> str:
    return f"""
WITH {_TOK_KEEPSTOP_CTE}
SELECT count(*) AS total_tokens, count(DISTINCT term) AS distinct_terms
FROM tok
"""


def unicode_token_stats_sql() -> str:
    """Twin of ops.text.unicode_token_stats: the identical per-codepoint
    transliteration via translate(), then the SAME two RE2 patterns the
    unicode tokenizer runs in Arrow (Han isolation + letter/number-run
    extraction). sum() is cast back from HUGEINT."""
    from ..ops.text import HAN_CH, TRANSLIT_FROM, TRANSLIT_TO

    return f"""
WITH t0 AS (
  SELECT doc_id,
         regexp_replace(translate(lower(text),
                                  '{TRANSLIT_FROM}', '{TRANSLIT_TO}'),
                        '([\\p{{Han}}])', ' \\1 ', 'g') AS s
  FROM documents),
tok AS (
  SELECT doc_id, unnest(regexp_extract_all(s, '[\\p{{L}}\\p{{N}}]+')) AS term
  FROM t0),
keep AS (SELECT doc_id, term FROM tok WHERE length(term) <= 255),
agg AS (
  SELECT doc_id, count(*) AS n_tokens,
         count(DISTINCT term) AS n_unique,
         count(*) FILTER (WHERE term = '{HAN_CH}') AS n_ideo,
         sum(length(term)) AS sum_len
  FROM keep GROUP BY doc_id)
SELECT d.doc_id,
       CAST(COALESCE(agg.n_tokens, 0) AS BIGINT) AS n_tokens,
       CAST(COALESCE(agg.n_unique, 0) AS BIGINT) AS n_unique,
       CAST(COALESCE(agg.n_ideo, 0) AS BIGINT) AS n_ideo,
       CAST(COALESCE(agg.sum_len, 0) AS BIGINT) AS sum_len
FROM documents d LEFT JOIN agg USING (doc_id)
ORDER BY d.doc_id
"""


def _regex_token_totals_sql(pattern_sql: str) -> str:
    """Twin of token_totals(mode="whitespace"/"bpe"): the identical
    regex runs in RE2."""
    return f"""
WITH tok AS (
  SELECT unnest(regexp_extract_all(text, '{pattern_sql}')) AS term
  FROM documents)
SELECT count(*) AS total_tokens, count(DISTINCT term) AS distinct_terms
FROM tok
"""


def _q_multiterm(qtype, param, k=10, **extra):
    def run(sf_dir):
        q = {"type": qtype, "param": param} | extra
        return _topk_table(_searcher(sf_dir).search(q, k=k))
    return run


def _q_dismax(terms, tiebreaker, k=10):
    def run(sf_dir):
        return _topk_table(_searcher(sf_dir).search(
            {"type": "dismax", "terms": terms, "tiebreaker": tiebreaker}, k=k))
    return run


def _q_span_near(terms, slop, k=20):
    def run(sf_dir):
        return _topk_table(_searcher(sf_dir).search(
            {"type": "span_near", "terms": terms, "slop": slop}, k=k))
    return run


def _doc_texts(sf_dir: str, doc_ids: list[int]) -> dict[int, str]:
    """ONE batched id-filter scan for all requested docs (stored-field
    fetch; never a scan per doc)."""
    import pyarrow.dataset as pads

    dset = pads.dataset(os.path.join(sf_dir, "documents.parquet"))
    t = dset.to_table(filter=pads.field("doc_id").isin(doc_ids),
                      columns=["doc_id", "text"])
    return dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))


def _doc_text(sf_dir: str, doc_id: int) -> str:
    return _doc_texts(sf_dir, [doc_id])[doc_id]


def _q_term_vector(doc_id=0):
    """TermVectorsComponent (solr:handler/component/
    TermVectorComponent.java:60; core:index/TermVectorsReader): the
    per-doc term→tf vector. Computed by re-analyzing the stored field
    with the index analyzer — the reference's fallback when vectors
    aren't stored — so it is exactly the postings' view of the doc."""
    def run(sf_dir):
        from ..analysis.analyzer import analyze_batch

        text = _doc_text(sf_dir, doc_id)
        r = analyze_batch(pa.array([text]))
        terms = r.terms.to_pylist()
        import collections

        tf = collections.Counter(terms)
        keys = sorted(tf)
        return pa.table({
            "term": pa.array(keys, type=pa.string()),
            "tf": pa.array([tf[t] for t in keys], type=pa.int64()),
        })
    return run


def _term_vector_sql(doc_id: int) -> str:
    return f"""
WITH {_tok_ctes()}
SELECT term, count(*) AS tf FROM clean WHERE doc_id = {doc_id}
GROUP BY term ORDER BY term
"""


def _q_term_vector_positions(doc_id=0):
    """tv.positions (TermVectorComponent with positions=true): the
    per-doc term → ordered position list, the full stored-vector view.
    Positions are the Lucene pre-stop stream indices, rendered as a
    comma string so the value-hash comparison stays scalar."""
    def run(sf_dir):
        from ..analysis.analyzer import analyze_batch

        text = _doc_text(sf_dir, doc_id)
        r = analyze_batch(pa.array([text]))
        by_term: dict[str, list[int]] = {}
        for t, p in zip(r.terms.to_pylist(), r.positions.tolist()):
            by_term.setdefault(t, []).append(int(p))
        keys = sorted(by_term)
        return pa.table({
            "term": pa.array(keys, type=pa.string()),
            "tf": pa.array([len(by_term[t]) for t in keys],
                           type=pa.int64()),
            "positions": pa.array(
                [",".join(map(str, sorted(by_term[t]))) for t in keys],
                type=pa.string()),
        })
    return run


def _term_vector_positions_sql(doc_id: int) -> str:
    return f"""
WITH {_tok_ctes()}
SELECT term, count(*) AS tf,
       string_agg(CAST(pos AS VARCHAR), ',' ORDER BY pos) AS positions
FROM clean WHERE doc_id = {doc_id}
GROUP BY term ORDER BY term
"""


def _q_more_like_this(doc_id=0, k=10, max_terms=5):
    """MoreLikeThis over the documents table (rows-only check — term
    selection involves float tf·idf ranking not replicated in SQL)."""
    def run(sf_dir):
        s = _searcher(sf_dir)
        text = _doc_text(sf_dir, doc_id)
        return _topk_table(s.search_more_like_this(text, k=k,
                                                   max_terms=max_terms))
    return run


def _mlt_sql(seed: int, max_terms: int, k: int) -> str:
    """Twin of the FULL MoreLikeThis query (selection + bool-OR scoring):
    the selection CTE reuses ft_mlt_terms' tf·idf_exact64 ranking; the
    scoring half is ft_bool_sql's BM25 shape, with the float addition
    order pinned to the engine's clause order (score desc, term asc)
    via an ordered aggregate."""
    idf = "ln(1 + (s.n_docs - df + 0.5) / (df + 0.5))"
    return f"""
WITH {_tok_ctes()},
seedtf AS (SELECT term, count(*) AS f FROM clean WHERE doc_id = {seed}
           GROUP BY term),
gdf AS (SELECT term, count(DISTINCT doc_id) AS df FROM clean
        GROUP BY term),
sel AS (SELECT term,
               row_number() OVER (ORDER BY f * {idf} DESC, term ASC)
                 AS r
        FROM seedtf JOIN gdf USING (term), stats s
        QUALIFY r <= {max_terms}),
per AS (SELECT doc_id, term, count(*) AS tf FROM clean
        WHERE term IN (SELECT term FROM sel) GROUP BY doc_id, term),
cs AS (SELECT per.doc_id AS doc_id, sel.r AS r,
              {_bm25_expr('per.tf', 'dl.dl', 'gdf.df')} AS sc
       FROM per JOIN sel USING (term) JOIN gdf USING (term)
            JOIN dl USING (doc_id), stats s),
scored AS (SELECT doc_id, sum(sc ORDER BY r) AS score FROM cs
           GROUP BY doc_id)
{_sql_topk('scored', k)}
"""


def _q_mlt_terms(doc_id=0, max_terms=5):
    """mlt.interestingTerms=details: the MLT term selection itself,
    exposed with boosts — oracle-paired (pure tf·idf_exact64, the same
    ln shape as the BM25 twin)."""
    def run(sf_dir):
        s = _searcher(sf_dir)
        return s.mlt_interesting_terms(_doc_text(sf_dir, doc_id),
                                       max_terms=max_terms)
    return run


def _mlt_terms_sql(doc_id: int, max_terms: int) -> str:
    return f"""
WITH {_tok_ctes()},
qt AS (SELECT unnest(list_filter(regexp_extract_all(lower(text),
                                                    '[a-z0-9]+'),
                                 t -> length(t) <= 255)) AS term
       FROM documents WHERE doc_id = {doc_id}),
qtf AS (SELECT term, count(*) AS f FROM qt
        WHERE term NOT IN {_STOPLIST} GROUP BY term),
dfs AS (SELECT term, count(DISTINCT doc_id) AS df FROM clean
        GROUP BY term),
scored AS (SELECT q.term AS term,
                  q.f * ln(1 + (s.n_docs - d.df + 0.5) / (d.df + 0.5))
                    AS score,
                  d.df AS df
           FROM qtf q JOIN dfs d USING (term), stats s)
SELECT term, CAST(floor(score * 10000 + 0.5) AS BIGINT) AS score_q,
       CAST(df AS BIGINT) AS df
FROM scored ORDER BY score DESC, term ASC LIMIT {max_terms}
"""


def _q_free_text_suggest(context, n=10):
    """FreeTextSuggester (lucene/suggest/.../analyzing/
    FreeTextSuggester.java): n-gram language-model completion — given
    the typed context word, suggest next words by corpus BIGRAM
    frequency (the separator-token bigram model; the reference's
    backoff tiers collapse to one here because the context is a single
    whole word). One streaming pair-emit pass + a tiny groupby."""
    def run(sf_dir):
        import ray.data as rd

        from ..analysis import analyze_batch

        def pairs(batch: pa.Table) -> pa.Table:
            ab = analyze_batch(batch["text"], keep_stopwords=True)
            toks = np.asarray(ab.terms)
            if len(toks) < 2:
                return pa.table({"nxt": pa.array([], type=pa.string())})
            same_doc = ab.doc_idx[1:] == ab.doc_idx[:-1]
            is_ctx = (toks[:-1] == context) & same_doc
            return pa.table({"nxt": pa.array(toks[1:][is_ctx])})

        ds = (rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                              columns=["doc_id", "text"])
              .map_batches(pairs, batch_format="pyarrow")
              .groupby("nxt").count())
        parts = [b for b in ds.iter_batches(batch_format="pyarrow",
                                            batch_size=None)
                 if b.num_rows > 0]
        if not parts:
            return pa.table({"term": pa.array([], type=pa.string()),
                             "weight": pa.array([], type=pa.int64())})
        t = pa.concat_tables(parts, promote_options="default")
        df = t.to_pandas().rename(columns={"nxt": "term",
                                           "count()": "weight"})
        df["weight"] = df["weight"].astype("int64")
        df = df.sort_values(["weight", "term"],
                            ascending=[False, True]).head(n)
        return pa.Table.from_pandas(df.reset_index(drop=True),
                                    preserve_index=False)
    return run


def _free_text_suggest_sql(context: str, n: int) -> str:
    return f"""
WITH {_tok_ctes()},
nxt AS (SELECT doc_id, term,
               lead(term, 1) OVER (PARTITION BY doc_id ORDER BY pos)
                 AS nx
        FROM tok)
SELECT nx AS term, count(*) AS weight
FROM nxt WHERE term = '{context}' AND nx IS NOT NULL
GROUP BY nx ORDER BY weight DESC, term ASC LIMIT {n}
"""


def _q_highlight(term="table", k=3):
    """Top-k hits with a highlighted snippet (rows-only check)."""
    def run(sf_dir):
        from ..search.highlight import highlight

        s = _searcher(sf_dir)
        t = s.search({"type": "term", "term": term}, k=k)
        texts = _doc_texts(sf_dir, t["doc_id"].to_pylist())
        snips = [highlight(texts[d], [term])
                 for d in t["doc_id"].to_pylist()]
        return pa.table({
            "doc_id": t["doc_id"],
            "rank": t["rank"],
            "snippet": pa.array(snips, type=pa.string()),
        })
    return run


def _highlight_sql(term: str, k: int = 3, window: int = 40) -> str:
    """Byte-exact twin of ft_highlight: top-k BM25 docs for the term,
    then the FIRST standalone lowercase-alnum-run match of the term in
    each stored text (the tokenizer-offset discipline of
    search.highlight.highlight), wrapped with the same ±window chars
    and '...' flags. The char scan joins a shared 1..max(len) series —
    bounded by k docs × text length."""
    L = len(term)
    return f"""
WITH {_tok_ctes()},
tf AS (SELECT doc_id, count(*) AS tf FROM clean WHERE term = '{term}'
       GROUP BY doc_id),
dfx AS (SELECT count(DISTINCT doc_id) AS df FROM clean
        WHERE term = '{term}'),
scored AS (
  SELECT tf.doc_id AS doc_id,
         {_bm25_expr('tf.tf', 'dl.dl', 'dfx.df')} AS score
  FROM tf JOIN dl USING (doc_id), stats s, dfx
),
topk AS (
  SELECT d.doc_id AS doc_id, d.text AS text,
         CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC)
              AS BIGINT) AS rank
  FROM scored JOIN documents d USING (doc_id)
  ORDER BY score DESC, doc_id ASC LIMIT {k}
),
series AS (SELECT unnest(range(1, (SELECT max(length(text)) + 1
                                   FROM topk))) AS i),
firsts AS (
  SELECT t.doc_id AS doc_id, min(series.i) AS i
  FROM topk t JOIN series
    ON series.i + {L} - 1 <= length(t.text)
  WHERE lower(substr(t.text, series.i, {L})) = '{term}'
    AND (series.i = 1 OR NOT regexp_matches(
           lower(substr(t.text, series.i - 1, 1)), '[a-z0-9]'))
    AND (series.i + {L} > length(t.text) OR NOT regexp_matches(
           lower(substr(t.text, series.i + {L}, 1)), '[a-z0-9]'))
  GROUP BY t.doc_id
)
SELECT t.doc_id AS doc_id, t.rank AS rank,
       (CASE WHEN f.i > {window + 1} THEN '...' ELSE '' END)
       || substr(t.text, greatest(1, f.i - {window}),
                 f.i - greatest(1, f.i - {window}))
       || '<em>' || substr(t.text, f.i, {L}) || '</em>'
       || substr(t.text, f.i + {L},
                 least(length(t.text), f.i + {L} - 1 + {window})
                 - (f.i + {L} - 1))
       || (CASE WHEN f.i + {L} - 1 + {window} < length(t.text)
                THEN '...' ELSE '' END) AS snippet
FROM topk t LEFT JOIN firsts f USING (doc_id)
ORDER BY t.rank
"""


def _q_highlight_passages(terms, k=3):
    """Top-k hits with PostingsHighlighter-style multi-passage
    snippets. Oracle-paired: the whole passage pipeline — char-scan
    token spans, greedy segmentation, the float32 PassageScorer —
    rebuilds in SQL (_highlight_passages_sql), so the snippets are
    byte-equal."""
    def run(sf_dir):
        from ..search.highlight import highlight_passages

        s = _searcher(sf_dir)
        t = s.search({"type": "bool", "should": terms,
                      "min_should_match": 1}, k=k)
        texts = _doc_texts(sf_dir, t["doc_id"].to_pylist())
        snips = [highlight_passages(texts[d], terms)
                 for d in t["doc_id"].to_pylist()]
        return pa.table({
            "doc_id": t["doc_id"],
            "rank": t["rank"],
            "snippet": pa.array(snips, type=pa.string()),
        })
    return run


def _highlight_passages_sql(terms: list[str], k: int = 3,
                            pivot: int = 87, max_passages: int = 3) -> str:
    """Twin of ft_highlight_passages: top-k bool-OR BM25 docs, then the
    PostingsHighlighter passage pipeline rebuilt in SQL — token spans
    via a char-scan series (the [A-Za-z0-9]+ discipline), stop/length
    filtering, greedy ~pivot-char passage segmentation as a WITH
    RECURSIVE jump walk, and the float32 PassageScorer reproduced in
    pure FLOAT arithmetic (DuckDB FLOAT ops == numpy float32; the
    per-term fold over sorted terms becomes a left-assoc sum of
    COALESCE(...) pulls — adding +0.0f for absent terms is exact).
    Snippets are byte-assembled exactly like the engine (gap/<em>-hit
    segments per hit, '...'-joined passages in offset order). topk and
    surv are MATERIALIZED: DuckDB would otherwise re-run them at every
    reference under the recursive walk."""
    inlist = ", ".join(f"'{t}'" for t in sorted(set(terms)))
    clause_sum = " + ".join(
        f"COALESCE(max(CASE WHEN term = '{t}' THEN sc END), 0)"
        for t in terms)
    f32 = "CAST({} AS FLOAT)"
    wtf_sum = " + ".join(
        f"COALESCE(max(CASE WHEN h.term = '{t}' THEN h.wtf END), "
        f"{f32.format(0)})"
        for t in sorted(set(terms)))
    return f"""
WITH RECURSIVE {_tok_ctes()},
per AS (SELECT doc_id, term, count(*) AS tf FROM clean
        WHERE term IN ({inlist}) GROUP BY doc_id, term),
dfs AS (SELECT term, count(*) AS df FROM per GROUP BY term),
cs AS (SELECT per.doc_id, per.term,
              {_bm25_expr('per.tf', 'dl.dl', 'dfs.df')} AS sc
       FROM per JOIN dfs USING (term) JOIN dl USING (doc_id), stats s),
scored AS (SELECT doc_id, {clause_sum} AS score FROM cs GROUP BY doc_id),
topk AS MATERIALIZED (
  SELECT d.doc_id AS doc_id, d.text AS text,
         CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC)
              AS BIGINT) AS rank
  FROM scored JOIN documents d USING (doc_id)
  ORDER BY score DESC, doc_id ASC LIMIT {k}
),
series AS (SELECT unnest(range(1, (SELECT max(length(text)) + 1
                                   FROM topk))) AS i),
chars AS (SELECT t.doc_id, s.i,
                 regexp_matches(lower(substr(t.text, s.i, 1)),
                                '[a-z0-9]') AS a
          FROM topk t JOIN series s ON s.i <= length(t.text)),
marked AS (SELECT doc_id, i, a,
                  CASE WHEN a AND NOT COALESCE(lag(a) OVER
                       (PARTITION BY doc_id ORDER BY i), FALSE)
                       THEN 1 ELSE 0 END AS startflag
           FROM chars),
tokpos AS (SELECT doc_id, i,
                  sum(startflag) OVER (PARTITION BY doc_id ORDER BY i)
                    AS tok_id
           FROM marked WHERE a),
tokens AS (SELECT tp.doc_id, tp.tok_id, min(tp.i) AS s1, max(tp.i) AS e1
           FROM tokpos tp GROUP BY tp.doc_id, tp.tok_id),
surv AS MATERIALIZED (SELECT tk.doc_id,
                lower(substr(t.text, tk.s1, tk.e1 - tk.s1 + 1)) AS term,
                tk.s1, tk.e1,
                row_number() OVER (PARTITION BY tk.doc_id
                                   ORDER BY tk.s1) AS ord
         FROM tokens tk JOIN topk t USING (doc_id)
         WHERE tk.e1 - tk.s1 + 1 <= 255
           AND lower(substr(t.text, tk.s1, tk.e1 - tk.s1 + 1))
               NOT IN {_STOPLIST}),
jmp AS (SELECT a.doc_id, a.ord, min(b.ord) AS nxt
        FROM surv a LEFT JOIN surv b
          ON b.doc_id = a.doc_id AND b.e1 >= a.s1 + {pivot} - 1
        GROUP BY a.doc_id, a.ord),
prec AS (
  SELECT doc_id, 1 AS pno, CAST(1 AS BIGINT) AS i
  FROM (SELECT DISTINCT doc_id FROM surv)
  UNION ALL
  SELECT p.doc_id, p.pno + 1, j.nxt
  FROM prec p JOIN jmp j ON j.doc_id = p.doc_id AND j.ord = p.i
  WHERE j.nxt IS NOT NULL
),
prange AS (SELECT p.doc_id, p.pno, p.i AS i0,
                  COALESCE(j.nxt - 1, (SELECT max(ord) FROM surv s2
                                       WHERE s2.doc_id = p.doc_id)) AS i1
           FROM prec p LEFT JOIN jmp j
             ON j.doc_id = p.doc_id AND j.ord = p.i),
pspan AS (SELECT pr.doc_id, pr.pno, min(s.s1) - 1 AS pstart,
                 max(s.e1) AS pend
          FROM prange pr JOIN surv s
            ON s.doc_id = pr.doc_id AND s.ord BETWEEN pr.i0 AND pr.i1
          GROUP BY pr.doc_id, pr.pno),
hits AS (SELECT pr.doc_id, pr.pno, s.term, s.s1, s.e1
         FROM prange pr JOIN surv s
           ON s.doc_id = pr.doc_id AND s.ord BETWEEN pr.i0 AND pr.i1
         WHERE s.term IN ({inlist})),
ttfq AS (SELECT doc_id, term, count(*) AS c FROM surv
         WHERE term IN ({inlist}) GROUP BY doc_id, term),
wq AS (SELECT tt.doc_id, tt.term,
              (CAST(1.2 AS FLOAT) + CAST(1 AS FLOAT))
              * CAST(ln(CAST(1 AS FLOAT)
                        + ((CAST(1 AS FLOAT)
                            + CAST(length(t.text) AS FLOAT)
                              / CAST({pivot}.0 AS FLOAT))
                           + CAST(0.5 AS FLOAT))
                          / (CAST(tt.c AS FLOAT) + CAST(0.5 AS FLOAT)))
                 AS FLOAT) AS w
       FROM ttfq tt JOIN topk t USING (doc_id)),
hterm AS (SELECT h.doc_id, h.pno, h.term, count(*) AS f
          FROM hits h GROUP BY h.doc_id, h.pno, h.term),
hwtf AS (SELECT ht.doc_id, ht.pno, ht.term,
                wq.w * (CAST(ht.f AS FLOAT)
                        / (CAST(ht.f AS FLOAT)
                           + CAST(1.2 AS FLOAT)
                             * ((CAST(1 AS FLOAT) - CAST(0.75 AS FLOAT))
                                + CAST(0.75 AS FLOAT)
                                  * (CAST(sp.pend - sp.pstart AS FLOAT)
                                     / CAST({pivot}.0 AS FLOAT)))))
                  AS wtf
         FROM hterm ht
         JOIN wq ON wq.doc_id = ht.doc_id AND wq.term = ht.term
         JOIN pspan sp ON sp.doc_id = ht.doc_id AND sp.pno = ht.pno),
pscore AS (SELECT h.doc_id, h.pno,
                  ({wtf_sum})
                  * (CAST(1 AS FLOAT)
                     + CAST(1 AS FLOAT)
                       / CAST(ln(CAST({pivot} AS DOUBLE)
                                 + CAST(sp.pstart AS DOUBLE)) AS FLOAT))
                    AS score
           FROM hwtf h JOIN pspan sp
             ON sp.doc_id = h.doc_id AND sp.pno = h.pno
           GROUP BY h.doc_id, h.pno, sp.pstart),
sel AS (SELECT ps.doc_id, ps.pno, sp.pstart, sp.pend
        FROM pscore ps JOIN pspan sp
          ON sp.doc_id = ps.doc_id AND sp.pno = ps.pno
        QUALIFY row_number() OVER (PARTITION BY ps.doc_id
                                   ORDER BY ps.score DESC,
                                            sp.pstart ASC)
                <= {max_passages}),
hitseg AS (SELECT sel.doc_id, sel.pno, sel.pstart, sel.pend, h.s1, h.e1,
                  COALESCE(lag(h.e1) OVER (PARTITION BY sel.doc_id,
                                                        sel.pno
                                           ORDER BY h.s1),
                           sel.pstart) AS cur
           FROM sel JOIN hits h
             ON h.doc_id = sel.doc_id AND h.pno = sel.pno),
frag AS (SELECT hs.doc_id, hs.pstart,
  string_agg(
    substr(t.text, hs.cur + 1, (hs.s1 - 1) - hs.cur)
    || '<em>' || substr(t.text, hs.s1, hs.e1 - hs.s1 + 1) || '</em>',
    '' ORDER BY hs.s1)
  || substr(any_value(t.text), max(hs.e1) + 1, hs.pend - max(hs.e1))
    AS fragment
  FROM hitseg hs JOIN topk t USING (doc_id)
  GROUP BY hs.doc_id, hs.pno, hs.pstart, hs.pend)
SELECT t.doc_id AS doc_id, t.rank AS rank,
       (SELECT string_agg(f.fragment, '...' ORDER BY f.pstart)
        FROM frag f WHERE f.doc_id = t.doc_id) AS snippet
FROM topk t
ORDER BY t.rank
"""


_SORT_EXPR_JS = "floor(value * 100 + 0.5) * 7 + user_id % 5"


def _q_sort_by_expr(k=500):
    """Sort by a compiled expression (lucene/expressions
    Expression.getSortField + SimpleBindings — the sort-binding half of
    the module; the scoring half is ft_expr_*): the SAME parsed AST adds
    a per-batch sort key in a streamed map_batches, then a distributed
    sort consumes it."""
    def run(sf_dir):
        import ray.data as rd

        from ..search.functionquery import evaluate, parse_js_expr

        node = parse_js_expr(_SORT_EXPR_JS)

        def add_key(batch: pa.Table) -> pa.Table:
            fields = {
                "value": np.asarray(batch["value"], dtype=np.float64),
                "user_id": np.asarray(batch["user_id"],
                                      dtype=np.float64),
            }
            key = np.asarray(evaluate(node, fields),
                             dtype=np.float64).astype(np.int64)
            return batch.append_column("sort_key",
                                       pa.array(key, type=pa.int64()))

        ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                             columns=["event_id", "user_id", "value"])
        out = (ds.map_batches(add_key, batch_format="pyarrow")
               .sort(["sort_key", "event_id"],
                     descending=[True, False]).limit(k))
        df = out.to_pandas()[["event_id", "sort_key"]]
        return pa.Table.from_pandas(df, preserve_index=False)
    return run


def _sort_by_expr_sql(k: int) -> str:
    return f"""
SELECT event_id,
       CAST(floor(value * 100 + 0.5) * 7 + user_id % 5 AS BIGINT)
         AS sort_key
FROM events
ORDER BY sort_key DESC, event_id ASC
LIMIT {k}
"""


def _q_highlight_fvh(phrase, k=3):
    """FastVectorHighlighter-style snippets: the phrase match is
    wrapped as one unit. Oracle-paired: every step is integer logic,
    so the de-nesting and fragment-grouping scans unroll as
    precomputed-jump recursions in SQL (_highlight_fvh_sql) and the
    snippets are byte-equal."""
    def run(sf_dir):
        from ..search.highlight import highlight_fvh

        s = _searcher(sf_dir)
        t = s.search({"type": "phrase", "terms": phrase}, k=k)
        texts = _doc_texts(sf_dir, t["doc_id"].to_pylist())
        snips = [highlight_fvh(texts[d], [phrase, [phrase[0]]])
                 for d in t["doc_id"].to_pylist()]
        return pa.table({
            "doc_id": t["doc_id"],
            "rank": t["rank"],
            "snippet": pa.array(snips, type=pa.string()),
        })
    return run


def _highlight_fvh_sql(phrase: list[str], k: int = 3,
                       frag_char_size: int = 100,
                       max_frags: int = 2) -> str:
    """Twin of ft_highlight_fvh — every step is integer logic, so the
    whole FastVectorHighlighter analogue rebuilds in SQL: phrase top-k
    (the ft_phrase twin), char-scan token spans, phrase/term matches as
    surviving-adjacency joins, longest-first de-nesting AND greedy
    fragment grouping as precomputed-jump WITH RECURSIVE walks
    (each jump depends only on the current row, so both sequential
    scans unroll), integer boost sums, and byte-exact <b>-wrapped
    fragment assembly. topk, surv, minfo, djmp and flat are each read
    by several later CTEs; DuckDB inlines a CTE at every reference, so
    unmaterialized the plan re-ran both recursive walks and the
    tokenization under them once per path and went out of memory at
    sf0.01. MATERIALIZED changes only the evaluation, not the rows."""
    t1, t2 = phrase[0], phrase[1]
    margin = frag_char_size // 6
    return f"""
WITH RECURSIVE {_tok_ctes()},
dfs AS (SELECT term, count(DISTINCT doc_id) AS df FROM clean
        WHERE term IN ('{t1}', '{t2}') GROUP BY term),
pf AS (SELECT a.doc_id, count(*) AS pf
       FROM clean a JOIN clean b
         ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
       WHERE a.term = '{t1}' AND b.term = '{t2}'
       GROUP BY a.doc_id),
idf AS (SELECT ln(1 + (s.n_docs - d1.df + 0.5) / (d1.df + 0.5))
             + ln(1 + (s.n_docs - d2.df + 0.5) / (d2.df + 0.5)) AS v
        FROM stats s,
             (SELECT df FROM dfs WHERE term = '{t1}') d1,
             (SELECT df FROM dfs WHERE term = '{t2}') d2),
scored AS (
  SELECT pf.doc_id AS doc_id,
         idf.v * (pf.pf * ({K1_SQL} + 1))
           / (pf.pf + {K1_SQL} * ((1 - {B_SQL}) + ({B_SQL} * dl.dl)
              / (CAST(s.sum_dl AS DOUBLE) / s.n_docs))) AS score
  FROM pf JOIN dl USING (doc_id), idf, stats s
),
topk AS MATERIALIZED (
  SELECT d.doc_id AS doc_id, d.text AS text,
         CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC)
              AS BIGINT) AS rank
  FROM scored JOIN documents d USING (doc_id)
  ORDER BY score DESC, doc_id ASC LIMIT {k}
),
series AS (SELECT unnest(range(1, (SELECT max(length(text)) + 1
                                   FROM topk))) AS i),
chars AS (SELECT t.doc_id, s.i,
                 regexp_matches(lower(substr(t.text, s.i, 1)),
                                '[a-z0-9]') AS a
          FROM topk t JOIN series s ON s.i <= length(t.text)),
marked AS (SELECT doc_id, i, a,
                  CASE WHEN a AND NOT COALESCE(lag(a) OVER
                       (PARTITION BY doc_id ORDER BY i), FALSE)
                       THEN 1 ELSE 0 END AS startflag
           FROM chars),
tokpos AS (SELECT doc_id, i,
                  sum(startflag) OVER (PARTITION BY doc_id ORDER BY i)
                    AS tok_id
           FROM marked WHERE a),
tokens AS (SELECT tp.doc_id, tp.tok_id, min(tp.i) AS s1, max(tp.i) AS e1
           FROM tokpos tp GROUP BY tp.doc_id, tp.tok_id),
surv AS MATERIALIZED (SELECT tk.doc_id,
                lower(substr(t.text, tk.s1, tk.e1 - tk.s1 + 1)) AS term,
                tk.s1, tk.e1,
                row_number() OVER (PARTITION BY tk.doc_id
                                   ORDER BY tk.s1) AS ord
         FROM tokens tk JOIN topk t USING (doc_id)
         WHERE tk.e1 - tk.s1 + 1 <= 255
           AND lower(substr(t.text, tk.s1, tk.e1 - tk.s1 + 1))
               NOT IN {_STOPLIST}),
minfo AS MATERIALIZED (SELECT doc_id, s0, e0, boost,
                 row_number() OVER (PARTITION BY doc_id
                                    ORDER BY s0 ASC, e0 DESC, boost DESC)
                   AS rid
          FROM (
            SELECT a.doc_id, a.s1 - 1 AS s0, b.e1 AS e0, 2 AS boost
            FROM surv a JOIN surv b
              ON b.doc_id = a.doc_id AND b.ord = a.ord + 1
            WHERE a.term = '{t1}' AND b.term = '{t2}'
            UNION ALL
            SELECT doc_id, s1 - 1 AS s0, e1 AS e0, 1 AS boost
            FROM surv WHERE term = '{t1}')),
djmp AS MATERIALIZED (SELECT a.doc_id, a.rid, min(b.rid) AS nxt
         FROM minfo a LEFT JOIN minfo b
           ON b.doc_id = a.doc_id AND b.rid > a.rid AND b.s0 >= a.e0
         GROUP BY a.doc_id, a.rid),
drec AS (
  SELECT doc_id, CAST(1 AS BIGINT) AS rid, 1 AS kidx
  FROM (SELECT DISTINCT doc_id FROM minfo)
  UNION ALL
  SELECT d.doc_id, j.nxt, d.kidx + 1
  FROM drec d JOIN djmp j ON j.doc_id = d.doc_id AND j.rid = d.rid
  WHERE j.nxt IS NOT NULL
),
flat AS MATERIALIZED (SELECT d.doc_id, d.kidx, m.s0, m.e0, m.boost
         FROM drec d JOIN minfo m
           ON m.doc_id = d.doc_id AND m.rid = d.rid),
maxk AS (SELECT doc_id, max(kidx) AS mk FROM flat GROUP BY doc_id),
gj AS (SELECT f.doc_id, f.kidx, f.e0,
              greatest(0, f.s0 - {margin}) AS fs,
              least(length(t.text),
                    greatest(0, f.s0 - {margin}) + {frag_char_size}) AS fe
       FROM flat f JOIN topk t USING (doc_id)),
gjmp AS (SELECT g.doc_id, g.kidx, g.fs, g.fe, g.e0, mx.mk,
                min(b.kidx) AS nxt
         FROM gj g
         JOIN maxk mx ON mx.doc_id = g.doc_id
         LEFT JOIN flat b
           ON b.doc_id = g.doc_id AND b.kidx >= g.kidx AND b.e0 > g.fe
         GROUP BY g.doc_id, g.kidx, g.fs, g.fe, g.e0, mx.mk),
gnx AS (SELECT doc_id, kidx,
               -- match longer than the fragment: take it whole, then
               -- restart at the very next match
               CASE WHEN nxt = kidx
                    THEN (CASE WHEN kidx + 1 <= mk THEN kidx + 1 END)
                    ELSE nxt END AS nxt,
               CASE WHEN nxt = kidx THEN kidx ELSE COALESCE(nxt, mk + 1) - 1
                    END AS i1,
               fs,
               CASE WHEN nxt = kidx THEN e0 ELSE fe END AS fe
        FROM gjmp),
grec AS (
  SELECT doc_id, 1 AS fno, CAST(1 AS BIGINT) AS i
  FROM (SELECT DISTINCT doc_id FROM flat)
  UNION ALL
  SELECT g.doc_id, g.fno + 1, x.nxt
  FROM grec g JOIN gnx x ON x.doc_id = g.doc_id AND x.kidx = g.i
  WHERE x.nxt IS NOT NULL
),
fragdef AS (SELECT g.doc_id, g.fno, x.fs, x.fe, g.i AS i0, x.i1
            FROM grec g JOIN gnx x
              ON x.doc_id = g.doc_id AND x.kidx = g.i),
fragsel AS (SELECT fd.doc_id, fd.fno, fd.fs, fd.fe, fd.i0, fd.i1
            FROM fragdef fd JOIN flat f
              ON f.doc_id = fd.doc_id AND f.kidx BETWEEN fd.i0 AND fd.i1
            GROUP BY fd.doc_id, fd.fno, fd.fs, fd.fe, fd.i0, fd.i1
            QUALIFY row_number() OVER (PARTITION BY fd.doc_id
                                       ORDER BY sum(f.boost) DESC,
                                                fd.fs ASC, fd.fno ASC)
                    <= {max_frags}),
hitseg AS (SELECT fs.doc_id, fs.fno, fs.fs, fs.fe, f.s0, f.e0,
                  COALESCE(lag(f.e0) OVER (PARTITION BY fs.doc_id,
                                                        fs.fno
                                           ORDER BY f.s0),
                           fs.fs) AS cur
           FROM fragsel fs JOIN flat f
             ON f.doc_id = fs.doc_id AND f.kidx BETWEEN fs.i0 AND fs.i1),
fragtxt AS (SELECT hs.doc_id, hs.fs,
  string_agg(
    substr(t.text, hs.cur + 1, hs.s0 - hs.cur)
    || '<b>' || substr(t.text, hs.s0 + 1, hs.e0 - hs.s0) || '</b>',
    '' ORDER BY hs.s0)
  || substr(any_value(t.text), max(hs.e0) + 1, hs.fe - max(hs.e0))
    AS fragment
  FROM hitseg hs JOIN topk t USING (doc_id)
  GROUP BY hs.doc_id, hs.fno, hs.fs, hs.fe)
SELECT t.doc_id AS doc_id, t.rank AS rank,
       (SELECT string_agg(f.fragment, '...' ORDER BY f.fs)
        FROM fragtxt f WHERE f.doc_id = t.doc_id) AS snippet
FROM topk t
ORDER BY t.rank
"""


def _q_drill_sideways(term, drills):
    """DrillSideways (lucene/facet/.../DrillSideways.java:63): facet
    counts per dimension where each dimension's counts are computed
    over the base query plus every OTHER dimension's drill-down filter
    — so the UI can show what the user would get by switching this
    dimension's selection. Dims are keyword fields; counts come from
    keyword postings intersections (no stored-field scan)."""
    def run(sf_dir):
        s = _searcher(sf_dir)
        p = s._decode_term_global(term)
        base = p[0] if p is not None else np.empty(0, dtype=np.int64)
        fdocs = {f: s.filter_docs(f, v) for f, v in drills.items()}
        dims, vals, cnts = [], [], []
        for dim in drills:
            cand = base
            for f in drills:
                if f != dim:
                    cand = np.intersect1d(cand, fdocs[f],
                                          assume_unique=True)
            for t in sorted(s.expand_terms(
                    "prefix", f"{dim}{_KW_SEP}")):
                val = t.split(_KW_SEP, 1)[1]
                pd_ = s._decode_term_global(t)
                if pd_ is None:
                    continue
                c = len(np.intersect1d(cand, pd_[0],
                                       assume_unique=True))
                if c:
                    dims.append(dim)
                    vals.append(val)
                    cnts.append(c)
        return pa.table({
            "dim": pa.array(dims, type=pa.string()),
            "value": pa.array(vals, type=pa.string()),
            "count_docs": pa.array(cnts, type=pa.int64()),
        })
    return run


def _drill_sideways_sql(term, drills) -> str:
    parts = []
    for dim in drills:
        others = " AND ".join(f"d.{f} = '{v}'"
                              for f, v in drills.items() if f != dim)
        where = f"AND {others}" if others else ""
        parts.append(f"""
  SELECT '{dim}' AS dim, d.{dim} AS value, count(*) AS count_docs
  FROM documents d JOIN base USING (doc_id)
  WHERE TRUE {where}
  GROUP BY d.{dim}""")
    union = "\nUNION ALL".join(parts)
    return f"""
WITH {_tok_ctes()},
base AS (SELECT DISTINCT doc_id FROM clean WHERE term = '{term}')
SELECT dim, value, count_docs FROM ({union})
ORDER BY dim, value
"""


def _q_filtered(term, field, value, k=10):
    """Scored query + keyword-field FILTER clause (StringField +
    BooleanClause.FILTER: restricts matches, contributes no score)."""
    def run(sf_dir):
        return _topk_table(_searcher(sf_dir).search(
            {"type": "bool", "must": [term], "filters": [(field, value)]},
            k=k))
    return run


def _q_result_facet(term, field):
    """Facet counts over a query's result set (SimpleFacets)."""
    def run(sf_dir):
        return _searcher(sf_dir).facet_counts_for_query(
            {"type": "term", "term": term}, field)
    return run


def _filtered_sql(term: str, field: str, value: str, k: int) -> str:
    return f"""
WITH {_tok_ctes()},
tf AS (SELECT doc_id, count(*) AS tf FROM clean WHERE term = '{term}'
       GROUP BY doc_id),
dfx AS (SELECT count(*) AS df FROM tf),
scored AS (
  SELECT tf.doc_id AS doc_id,
         {_bm25_expr('tf.tf', 'dl.dl', 'dfx.df')} AS score
  FROM tf JOIN dl USING (doc_id) JOIN documents d USING (doc_id),
       dfx, stats s
  WHERE d.{field} = '{value}'
)
{_sql_topk('scored', k)}
"""


def _result_facet_sql(term: str, field: str) -> str:
    return f"""
WITH {_tok_ctes()},
matched AS (SELECT DISTINCT doc_id FROM clean WHERE term = '{term}')
SELECT d.{field} AS {field}, count(*) AS cnt
FROM matched JOIN documents d USING (doc_id)
GROUP BY d.{field} ORDER BY d.{field}
"""


def _q_terms_set(terms, k=10):
    """TermsQuery: constant-score set membership over many exact terms."""
    def run(sf_dir):
        return _topk_table(_searcher(sf_dir).search(
            {"type": "terms_set", "terms": terms}, k=k))
    return run


def _q_graph_terms(terms, max_doc_freq=100, k=10):
    """GraphTermsQuery: terms-set with a docFreq ceiling — hub terms
    drop out of the frontier (solr:query/GraphTermsQueryParserPlugin)."""
    def run(sf_dir):
        return _topk_table(_searcher(sf_dir).search_graph_terms(
            terms, k=k, max_doc_freq=max_doc_freq))
    return run


def _graph_terms_sql(terms, max_doc_freq=100, k=10) -> str:
    inlist = ", ".join(f"'{t}'" for t in terms)
    return f"""
WITH {_tok_ctes()},
dfs AS (SELECT term, count(DISTINCT doc_id) AS df FROM clean
        WHERE term IN ({inlist}) GROUP BY term),
keep AS (SELECT term FROM dfs WHERE df <= {max_doc_freq}),
matched AS (SELECT DISTINCT doc_id FROM clean
            WHERE term IN (SELECT term FROM keep))
SELECT doc_id, CAST(10000 AS BIGINT) AS score_q,
       CAST(row_number() OVER (ORDER BY doc_id ASC) AS BIGINT) AS rank
FROM matched ORDER BY doc_id ASC LIMIT {k}
"""


def _q_common_terms(terms, k=10):
    """CommonTermsQuery: df-split required/optional clauses; the SQL
    twin (ft_common_terms_sql) recomputes the split dynamically."""
    def run(sf_dir):
        return _topk_table(_searcher(sf_dir).search(
            {"type": "common_terms", "terms": terms}, k=k))
    return run


def _q_suggest(prefix, n=10):
    def run(sf_dir):
        return _searcher(sf_dir).suggest_prefix(prefix, n)
    return run


def _q_suggest_fst(prefix, n=10):
    """Completion via the real FST (state/fst.py) — must equal the
    prefix-scan suggester, so it shares ft_suggest's oracle."""
    def run(sf_dir):
        return _searcher(sf_dir).suggest_prefix_fst(prefix, n)
    return run


def _q_function_boost(term, a=100.0, k=10):
    """FunctionQuery boost (solr ValueSourceParser `recip`/`boost`):
    score = bm25(term) · a/(a + dl)."""
    def run(sf_dir):
        s = _searcher(sf_dir)
        t = s.search({"type": "term", "term": term}, k=s.num_docs)
        docs = np.asarray(t["doc_id"], dtype=np.int64)
        base = np.asarray(t["score"], dtype=np.float64)
        ids, dls = s._global_dl()
        dl = dls[np.searchsorted(ids, docs)].astype(np.float64)
        score = base * (a / (a + dl))
        order = np.lexsort((docs, -score))[:k]
        return pa.table({
            "doc_id": pa.array(docs[order], type=pa.int64()),
            "score_q": pa.array(quantize_score(score[order]), type=pa.int64()),
            "rank": pa.array(np.arange(1, len(order) + 1), type=pa.int64()),
        })
    return run


def _lev_full(a: str, b: str) -> int:
    """Plain full Levenshtein (no cutoff band — strdist needs the exact
    distance, and it runs once per unique value)."""
    if a == b:
        return 0
    if not a or not b:
        return max(len(a), len(b))
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


class _ExprCtx:
    """Index-backed value-source context (solr ValueSourceParser
    termfreq/docfreq/totaltermfreq/numdocs/maxdoc) bound to a searcher
    and the candidate doc array — postings decode via the same
    liveDocs-aware path every query uses."""

    def __init__(self, searcher, docs: np.ndarray):
        self.s, self.docs = searcher, docs

    def _postings(self, term: str):
        return self.s._decode_term_global(term)

    def termfreq(self, field: str, term: str) -> np.ndarray:
        p = self._postings(term)
        if p is None:
            return np.zeros(len(self.docs), dtype=np.float64)
        d, tf = p[0], p[1]
        idx = np.clip(np.searchsorted(d, self.docs), 0, len(d) - 1)
        return np.where(d[idx] == self.docs, tf[idx], 0) \
            .astype(np.float64)

    def docfreq(self, field: str, term: str) -> int:
        p = self._postings(term)
        return 0 if p is None else len(p[0])

    def totaltermfreq(self, field: str, term: str) -> int:
        p = self._postings(term)
        return 0 if p is None else int(p[1].sum())

    def numdocs(self) -> int:
        return self.s.num_docs

    def maxdoc(self) -> int:
        return self.s.num_docs

    def query(self, term: str) -> np.ndarray:
        """QueryValueSource (lucene/queries/.../function/valuesource/
        QueryValueSource.java): the subquery's score per candidate doc,
        0 where it doesn't match. Term subqueries only — the quoted
        string is analyzed as one term."""
        d, sc = self.s.eval_node({"type": "term", "term": term})
        if len(d) == 0:
            return np.zeros(len(self.docs), dtype=np.float64)
        idx = np.clip(np.searchsorted(d, self.docs), 0, len(d) - 1)
        return np.where(d[idx] == self.docs, sc[idx], 0.0) \
            .astype(np.float64)

    def strdist(self, field: str, const: str, *,
                measure: str = "edit") -> np.ndarray:
        """StrDistanceFunction per candidate doc: 'edit' =
        1 - levenshtein/max(len); 'jarowinkler' = the float32-exact
        JaroWinklerDistance. String fields are KEYWORD postings here, so
        the values are UNINVERTED — enumerate the field's terms, one
        distance per unique value, postings assign it to docs (Lucene's
        UninvertingReader / FieldCache discipline). Docs without the
        field keep similarity 0."""
        from ..search.strdistance import jaro_winkler_distance

        sims = np.zeros(len(self.docs), dtype=np.float64)
        from ..index.segment import KW_SEP as _sep

        for t in self.s.expand_terms("prefix", f"{field}{_sep}"):
            v = t.split(_sep, 1)[1]
            p = self.s._decode_term_global(t)
            if p is None or not len(p[0]):
                continue
            if measure == "jarowinkler":
                sim = jaro_winkler_distance(v, const)
            else:
                sim = 1.0 - _lev_full(v, const) \
                    / float(max(len(v), len(const)) or 1)
            idx = np.clip(np.searchsorted(p[0], self.docs),
                          0, len(p[0]) - 1)
            sims = np.where(p[0][idx] == self.docs, sim, sims)
        return sims

    def _ordinals(self, field: str):
        ids, vals = self.s.global_doc_values(field)
        uniq = np.unique(vals)
        pos = np.searchsorted(ids, self.docs)
        return uniq, (np.searchsorted(uniq, vals[pos]) + 1)

    def ord(self, field: str) -> np.ndarray:
        """OrdFieldSource (lucene/queries/.../valuesource/
        OrdFieldSource.java): 1-based ordinal of the doc's value in the
        sorted DISTINCT value set (dense rank)."""
        _, o = self._ordinals(field)
        return o.astype(np.float64)

    def rord(self, field: str) -> np.ndarray:
        """ReverseOrdFieldSource — the reverse ordinal."""
        uniq, o = self._ordinals(field)
        return (len(uniq) - o + 1).astype(np.float64)


def _q_expr_boost(term, expr_str, k=10, syntax="func"):
    """Compiled ValueSource expression boost (lucene/expressions
    JavascriptCompiler + solr ValueSourceParser registry): score =
    bm25(term) · expr(doc values, index stats). The SAME parsed AST
    evaluates in numpy here and emits the DuckDB twin
    (search/functionquery.py)."""
    def run(sf_dir):
        from ..search.functionquery import (evaluate, expr_fields,
                                            parse_expr, parse_js_expr)

        node = (parse_js_expr if syntax == "js" else
                parse_expr)(expr_str)
        s = _searcher(sf_dir)
        t = s.search({"type": "term", "term": term}, k=s.num_docs)
        docs = np.asarray(t["doc_id"], dtype=np.int64)
        base = np.asarray(t["score"], dtype=np.float64)
        fields = {}
        for f in expr_fields(node):
            ids, vals = (s._global_dl() if f == "dl"
                         else s.global_doc_values(f))
            fields[f] = vals[np.searchsorted(ids, docs)].astype(np.float64)
        score = base * evaluate(node, fields, _ExprCtx(s, docs))
        order = np.lexsort((docs, -score))[:k]
        return pa.table({
            "doc_id": pa.array(docs[order], type=pa.int64()),
            "score_q": pa.array(quantize_score(score[order]),
                                type=pa.int64()),
            "rank": pa.array(np.arange(1, len(order) + 1), type=pa.int64()),
        })
    return run


def _expr_boost_sql(term: str, expr_str: str, k: int,
                    combine: str = "product",
                    syntax: str = "func") -> str:
    """SQL twin for expression scoring over the candidates of a term
    query: ``combine="product"`` = bm25 × expr (function boost);
    ``combine="expr_only"`` = the expression IS the score (the LTR
    linear-model shape)."""
    from ..search.functionquery import (canonical, expr_index_calls,
                                        parse_expr, parse_js_expr,
                                        to_sql)

    node = (parse_js_expr if syntax == "js" else parse_expr)(expr_str)
    col_of = {"dl": "dl.dl", "n_chars": "d.n_chars"}
    joins, seen = [], {}
    for call in expr_index_calls(node):
        key = canonical(call)
        if key in seen:
            continue
        f = call.value
        if f in ("numdocs", "maxdoc"):
            col_of[key] = "s.n_docs"
        elif f == "termfreq":
            alias = f"tfq{len(joins)}"
            t2 = call.args[1].value
            joins.append(
                f"LEFT JOIN (SELECT doc_id, count(*) AS tf FROM clean "
                f"WHERE term = '{t2}' GROUP BY doc_id) {alias} "
                f"ON {alias}.doc_id = tf.doc_id")
            col_of[key] = f"COALESCE({alias}.tf, 0)"
        elif f in ("ord", "rord"):
            alias = f"ordj{len(joins)}"
            fld = call.args[0].value
            direc = "" if f == "ord" else " DESC"
            joins.append(
                f"LEFT JOIN (SELECT doc_id, dense_rank() OVER "
                f"(ORDER BY {fld}{direc}) AS v FROM documents) {alias} "
                f"ON {alias}.doc_id = tf.doc_id")
            col_of[key] = f"{alias}.v"
        elif f == "query":
            alias = f"qj{len(joins)}"
            t2 = call.args[0].value
            joins.append(
                f"LEFT JOIN (SELECT t2.doc_id, "
                f"{_bm25_expr('t2.tf', 'dl.dl', 'df2.df')} AS score "
                f"FROM (SELECT doc_id, count(*) AS tf FROM clean "
                f"WHERE term = '{t2}' GROUP BY doc_id) t2 "
                f"JOIN dl USING (doc_id), "
                f"(SELECT count(DISTINCT doc_id) AS df FROM clean "
                f"WHERE term = '{t2}') df2, stats s) {alias} "
                f"ON {alias}.doc_id = tf.doc_id")
            col_of[key] = f"COALESCE({alias}.score, 0)"
        elif f == "strdist":
            fld = call.args[0].value
            const = call.args[1].value
            measure = call.args[2].value if len(call.args) > 2 else "edit"
            if measure == "jarowinkler":
                # float32-exact JaroWinklerDistance rebuilt in SQL over
                # the DISTINCT field values (strdistance_sql.py)
                from ..search.strdistance_sql import jaro_winkler_value_sql

                alias = f"jw{len(joins)}"
                inner = jaro_winkler_value_sql(
                    f"(SELECT DISTINCT {fld} AS val FROM documents)",
                    const)
                joins.append(f"LEFT JOIN ({inner}) {alias} "
                             f"ON {alias}.val = d.{fld}")
                col_of[key] = f"{alias}.jw"
            else:
                col_of[key] = (
                    f"(1 - CAST(levenshtein(d.{fld}, '{const}') AS DOUBLE) "
                    f"/ greatest(length(d.{fld}), length('{const}')))")
        elif f == "docfreq":
            t2 = call.args[1].value
            col_of[key] = (f"(SELECT count(DISTINCT doc_id) FROM clean "
                           f"WHERE term = '{t2}')")
        else:   # totaltermfreq / ttf
            t2 = call.args[1].value
            col_of[key] = (f"(SELECT count(*) FROM clean "
                           f"WHERE term = '{t2}')")
        seen[key] = True
    expr_sql = to_sql(node, col_of)
    score_sql = f"{_bm25_expr('tf.tf', 'dl.dl', 'dfx.df')} * {expr_sql}" \
        if combine == "product" else expr_sql
    return f"""
WITH {_tok_ctes()},
tf AS (SELECT doc_id, count(*) AS tf FROM clean WHERE term = '{term}'
       GROUP BY doc_id),
dfx AS (SELECT count(*) AS df FROM tf),
scored AS (
  SELECT tf.doc_id AS doc_id,
         {score_sql} AS score
  FROM tf JOIN dl USING (doc_id)
          JOIN documents d ON d.doc_id = tf.doc_id
          {' '.join(joins)}, dfx, stats s
)
{_sql_topk('scored', k)}
"""


def _external_boost_file(sf_dir: str) -> str:
    """ExternalFileField source (solr:schema/ExternalFileField.java:43,
    FileFloatSource): per-doc floats living OUTSIDE the index, reloaded
    without reindexing. Derived deterministically from doc_id and
    materialized as a real sidecar parquet so the engine path actually
    exercises file-based lookup."""
    import pyarrow.parquet as pq

    key = hashlib.sha256(f"{sf_dir}|extff|v{FORMAT_VERSION}".encode()) \
        .hexdigest()[:12]
    path = os.path.join(INDEX_CACHE_ROOT, f"extff-{key}.parquet")
    if not os.path.exists(path):
        src = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                            columns=["doc_id"])
        d = np.sort(np.asarray(src["doc_id"], dtype=np.int64))
        boost = 1.0 + (d % 7).astype(np.float64) / 10.0
        os.makedirs(INDEX_CACHE_ROOT, exist_ok=True)
        pq.write_table(pa.table({"doc_id": pa.array(d, type=pa.int64()),
                                 "boost": pa.array(boost,
                                                   type=pa.float64())}),
                       path)
    return path


def _q_external_boost(term, k=10):
    """score = bm25(term) · boost(doc) with boosts read from the external
    sidecar file (missing docs default to 1.0, FileFloatSource
    semantics)."""
    def run(sf_dir):
        import pyarrow.parquet as pq

        s = _searcher(sf_dir)
        t = s.search({"type": "term", "term": term}, k=s.num_docs)
        docs = np.asarray(t["doc_id"], dtype=np.int64)
        base = np.asarray(t["score"], dtype=np.float64)
        ext = pq.read_table(_external_boost_file(sf_dir))
        eids = np.asarray(ext["doc_id"], dtype=np.int64)
        eb = np.asarray(ext["boost"], dtype=np.float64)
        idx = np.clip(np.searchsorted(eids, docs), 0, len(eids) - 1)
        boost = np.where(eids[idx] == docs, eb[idx], 1.0)
        score = base * boost
        order = np.lexsort((docs, -score))[:k]
        return pa.table({
            "doc_id": pa.array(docs[order], type=pa.int64()),
            "score_q": pa.array(quantize_score(score[order]),
                                type=pa.int64()),
            "rank": pa.array(np.arange(1, len(order) + 1), type=pa.int64()),
        })
    return run


def _external_boost_sql(term: str, k: int) -> str:
    """Twin recomputes the sidecar formula inline (the file itself is
    derived from doc_id, so the algebra is identical)."""
    return f"""
WITH {_tok_ctes()},
tf AS (SELECT doc_id, count(*) AS tf FROM clean WHERE term = '{term}'
       GROUP BY doc_id),
dfx AS (SELECT count(*) AS df FROM tf),
scored AS (
  SELECT tf.doc_id AS doc_id,
         {_bm25_expr('tf.tf', 'dl.dl', 'dfx.df')}
           * (1.0 + (tf.doc_id % 7) / 10.0) AS score
  FROM tf JOIN dl USING (doc_id), dfx, stats s
)
{_sql_topk('scored', k)}
"""


def _q_elevation(term, n_elevated=2, k=10):
    """QueryElevationComponent (solr:handler/component/
    QueryElevationComponent.java:74): configured docs pin to the top in
    config order (here: the n lowest matching doc ids — a deterministic
    stand-in for elevate.xml), organic BM25 order follows."""
    def run(sf_dir):
        s = _searcher(sf_dir)
        t = s.search({"type": "term", "term": term}, k=s.num_docs)
        docs = np.asarray(t["doc_id"], dtype=np.int64)
        scores = np.asarray(t["score"], dtype=np.float64)
        elev = np.sort(docs)[:n_elevated]
        is_e = np.isin(docs, elev)
        e_order = np.argsort(docs[is_e])
        o_idx = np.flatnonzero(~is_e)
        o_order = o_idx[np.lexsort((docs[o_idx], -scores[o_idx]))]
        order = np.concatenate(
            [np.flatnonzero(is_e)[e_order], o_order])[:k]
        return pa.table({
            "doc_id": pa.array(docs[order], type=pa.int64()),
            "score_q": pa.array(quantize_score(scores[order]),
                                type=pa.int64()),
            "rank": pa.array(np.arange(1, len(order) + 1), type=pa.int64()),
        })
    return run


def _elevation_sql(term: str, n_elevated: int, k: int) -> str:
    return f"""
WITH {_tok_ctes()},
tf AS (SELECT doc_id, count(*) AS tf FROM clean WHERE term = '{term}'
       GROUP BY doc_id),
dfx AS (SELECT count(*) AS df FROM tf),
scored AS (
  SELECT tf.doc_id AS doc_id,
         {_bm25_expr('tf.tf', 'dl.dl', 'dfx.df')} AS score
  FROM tf JOIN dl USING (doc_id), dfx, stats s
),
elev AS (SELECT doc_id FROM scored ORDER BY doc_id ASC LIMIT {n_elevated}),
ranked AS (
  SELECT s.doc_id, s.score,
         CASE WHEN s.doc_id IN (SELECT doc_id FROM elev)
              THEN 1 ELSE 0 END AS is_e
  FROM scored s)
SELECT doc_id, {_QUANT.format(expr='score')} AS score_q,
       CAST(row_number() OVER (
         ORDER BY is_e DESC,
                  CASE WHEN is_e = 1 THEN doc_id END ASC,
                  score DESC, doc_id ASC) AS BIGINT) AS rank
FROM ranked
ORDER BY is_e DESC, CASE WHEN is_e = 1 THEN doc_id END ASC,
         score DESC, doc_id ASC
LIMIT {k}
"""


def _multiterm_sql(term_pred: str, k: int) -> str:
    """CONSTANT_SCORE_REWRITE twin: matching docs score 1.0, rank by
    doc_id asc."""
    return f"""
WITH {_tok_ctes()},
matched AS (SELECT DISTINCT doc_id FROM clean WHERE {term_pred})
SELECT doc_id, CAST(10000 AS BIGINT) AS score_q,
       CAST(row_number() OVER (ORDER BY doc_id ASC) AS BIGINT) AS rank
FROM matched ORDER BY doc_id ASC LIMIT {k}
"""


def _dismax_sql(terms: list[str], tiebreaker: float, k: int) -> str:
    inlist = ", ".join(f"'{t}'" for t in terms)
    cols = ", ".join(
        f"COALESCE(max(CASE WHEN term = '{t}' THEN sc END), 0) AS s{i}"
        for i, t in enumerate(terms))
    greatest = "GREATEST(" + ", ".join(f"s{i}" for i in range(len(terms))) + ")"
    total = " + ".join(f"s{i}" for i in range(len(terms)))
    return f"""
WITH {_tok_ctes()},
per AS (SELECT doc_id, term, count(*) AS tf FROM clean
        WHERE term IN ({inlist}) GROUP BY doc_id, term),
dfs AS (SELECT term, count(*) AS df FROM per GROUP BY term),
cs AS (SELECT per.doc_id, per.term,
              {_bm25_expr('per.tf', 'dl.dl', 'dfs.df')} AS sc
       FROM per JOIN dfs USING (term) JOIN dl USING (doc_id), stats s),
piv AS (SELECT doc_id, {cols} FROM cs GROUP BY doc_id),
scored AS (SELECT doc_id,
                  {greatest} + {tiebreaker} * (({total}) - {greatest}) AS score
           FROM piv)
{_sql_topk('scored', k)}
"""


def _span_near_sql(t1: str, t2: str, slop: int, k: int) -> str:
    return f"""
WITH {_tok_ctes()},
spans AS (
  SELECT a.doc_id, count(*) AS n
  FROM clean a JOIN clean b
    ON a.doc_id = b.doc_id AND b.pos > a.pos AND b.pos <= a.pos + {slop}
  WHERE a.term = '{t1}' AND b.term = '{t2}'
  GROUP BY a.doc_id),
scored AS (SELECT doc_id, CAST(n AS DOUBLE) AS score FROM spans)
{_sql_topk('scored', k)}
"""


def _q_xml(xml_str, k=10):
    """XML query DSL through search.xmlparser (queryparser/xml/
    CoreParser.java builder registry)."""
    def run(sf_dir):
        return _topk_table(_searcher(sf_dir).search_xml(xml_str, k=k))
    return run


def _q_surround(qstr, k=20):
    """Surround-parser query (W/N distance operators + AND/OR/NOT,
    lucene/queryparser/.../surround/)."""
    def run(sf_dir):
        return _topk_table(_searcher(sf_dir).search_surround(qstr, k=k))
    return run


def _span_near_unordered_sql(t1: str, t2: str, slop: int, k: int) -> str:
    """Twin of the surround N operator: pairs within the window in
    EITHER order (1 ≤ |Δpos| ≤ slop), counted once per t1 occurrence."""
    return f"""
WITH {_tok_ctes()},
spans AS (
  SELECT a.doc_id, count(*) AS n
  FROM clean a JOIN clean b
    ON a.doc_id = b.doc_id AND b.pos <> a.pos
   AND b.pos >= a.pos - {slop} AND b.pos <= a.pos + {slop}
  WHERE a.term = '{t1}' AND b.term = '{t2}'
  GROUP BY a.doc_id),
scored AS (SELECT doc_id, CAST(n AS DOUBLE) AS score FROM spans)
{_sql_topk('scored', k)}
"""


def _surround_expand_sql(op1: str, op2: str, slop: int, k: int,
                         ordered: bool = True) -> str:
    """Twin of a surround distance op with multi-expansion operands
    (prefix/wildcard SimpleTerms inside a DistanceQuery): each operand
    becomes a LIKE predicate over the token stream — the same match set
    as the engine's term-dictionary expansion."""
    def cond(alias: str, op: str) -> str:
        if op.endswith("*") and "*" not in op[:-1] and "?" not in op:
            return f"{alias}.term LIKE '{op[:-1]}%'"
        if "*" in op or "?" in op:
            pat = op.replace("*", "%").replace("?", "_")
            return f"{alias}.term LIKE '{pat}'"
        return f"{alias}.term = '{op}'"
    win = (f"b.pos > a.pos AND b.pos <= a.pos + {slop}" if ordered else
           f"b.pos <> a.pos AND b.pos >= a.pos - {slop} "
           f"AND b.pos <= a.pos + {slop}")
    return f"""
WITH {_tok_ctes()},
spans AS (
  SELECT a.doc_id, count(*) AS n
  FROM clean a JOIN clean b
    ON a.doc_id = b.doc_id AND {win}
  WHERE {cond('a', op1)} AND {cond('b', op2)}
  GROUP BY a.doc_id),
scored AS (SELECT doc_id, CAST(n AS DOUBLE) AS score FROM spans)
{_sql_topk('scored', k)}
"""


def _q_multi_phrase(slots, k=10):
    def run(sf_dir):
        return _topk_table(_searcher(sf_dir).search_multi_phrase(slots, k=k))
    return run


def _multi_phrase_sql(slots, k: int) -> str:
    """Twin of search_multi_phrase for 2-position multi-phrases: start
    positions where slot-0 ∋ token(p) and slot-1 ∋ token(p+1); idf summed
    over the flattened term list in engine order (scalar subqueries keep
    the float addition order identical)."""
    assert len(slots) == 2
    flat = [t for s in slots for t in s]

    def df_sub(t: str) -> str:
        return f"(SELECT count(DISTINCT doc_id) FROM clean WHERE term = '{t}')"

    idf = " + ".join(
        f"ln(1 + (s.n_docs - {df_sub(t)} + 0.5) / ({df_sub(t)} + 0.5))"
        for t in flat)
    in0 = ", ".join(f"'{t}'" for t in slots[0])
    in1 = ", ".join(f"'{t}'" for t in slots[1])
    return f"""
WITH {_tok_ctes()},
pf AS (SELECT a.doc_id, count(*) AS pf
       FROM clean a JOIN clean b
         ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
       WHERE a.term IN ({in0}) AND b.term IN ({in1})
       GROUP BY a.doc_id),
scored AS (
  SELECT pf.doc_id AS doc_id,
         ({idf}) * (pf.pf * ({K1_SQL} + 1))
           / (pf.pf + {K1_SQL} * ((1 - {B_SQL}) + ({B_SQL} * dl.dl)
              / (CAST(s.sum_dl AS DOUBLE) / s.n_docs))) AS score
  FROM pf JOIN dl USING (doc_id), stats s
)
{_sql_topk('scored', k)}
"""


def _q_automaton(steps, k=10):
    def run(sf_dir):
        return _topk_table(
            _searcher(sf_dir).search_term_automaton(steps, k=k))
    return run


def _automaton_sql(steps, k: int) -> str:
    """Twin of search_term_automaton for linear step lists: a join chain
    over the concrete steps' position offsets; idf summed over the
    flattened concrete terms in engine order."""
    concrete = [(off, slot) for off, slot in enumerate(steps)
                if slot != "*"]
    flat = [t for _, slot in concrete for t in slot]

    def df_sub(t: str) -> str:
        return f"(SELECT count(DISTINCT doc_id) FROM clean WHERE term = '{t}')"

    idf = " + ".join(
        f"ln(1 + (s.n_docs - {df_sub(t)} + 0.5) / ({df_sub(t)} + 0.5))"
        for t in flat)
    base_off = concrete[0][0]
    joins, conds = [], []
    for i, (off, slot) in enumerate(concrete):
        inlist = ", ".join(f"'{t}'" for t in slot)
        conds.append(f"t{i}.term IN ({inlist})")
        if i > 0:
            joins.append(
                f"JOIN clean t{i} ON t{i}.doc_id = t0.doc_id "
                f"AND t{i}.pos = t0.pos + {off - base_off}")
    return f"""
WITH {_tok_ctes()},
pf AS (SELECT t0.doc_id, count(*) AS pf
       FROM clean t0 {' '.join(joins)}
       WHERE {' AND '.join(conds)}
       GROUP BY t0.doc_id),
scored AS (
  SELECT pf.doc_id AS doc_id,
         ({idf}) * (pf.pf * ({K1_SQL} + 1))
           / (pf.pf + {K1_SQL} * ((1 - {B_SQL}) + ({B_SQL} * dl.dl)
              / (CAST(s.sum_dl AS DOUBLE) / s.n_docs))) AS score
  FROM pf JOIN dl USING (doc_id), stats s
)
{_sql_topk('scored', k)}
"""


def _automaton_nfa_cycle_sql(k: int = 10) -> str:
    """Twin of the cyclic general-NFA driver query — the language
    ``fast (scan fast)* table`` (states 4, accept {3}, cycle 1→2→1).
    Unbounded repetition maps to a WITH RECURSIVE reach relation
    (doc, start, q) = "state 1, about to consume position q"; a start
    position accepts when `table` sits at q. freq = accepting starts;
    idf sums the four concrete transition labels in engine order;
    scored like MultiPhraseQuery (the _automaton_sql tail)."""
    def df_sub(t: str) -> str:
        return (f"(SELECT count(DISTINCT doc_id) FROM clean "
                f"WHERE term = '{t}')")

    idf = " + ".join(
        f"ln(1 + (s.n_docs - {df_sub(t)} + 0.5) / ({df_sub(t)} + 0.5))"
        for t in ["fast", "scan", "fast", "table"])
    return f"""
WITH RECURSIVE {_tok_ctes()},
fastp AS (SELECT doc_id, pos FROM clean WHERE term = 'fast'),
scanp AS (SELECT doc_id, pos FROM clean WHERE term = 'scan'),
tablep AS (SELECT doc_id, pos FROM clean WHERE term = 'table'),
reach(doc_id, start, q) AS (
  SELECT doc_id, pos AS start, pos + 1 AS q FROM fastp
  UNION
  SELECT r.doc_id, r.start, r.q + 2 AS q
  FROM reach r
  JOIN scanp sc ON sc.doc_id = r.doc_id AND sc.pos = r.q
  JOIN fastp f2 ON f2.doc_id = r.doc_id AND f2.pos = r.q + 1
),
accepted AS (SELECT DISTINCT r.doc_id, r.start
             FROM reach r JOIN tablep t
               ON t.doc_id = r.doc_id AND t.pos = r.q),
pf AS (SELECT doc_id, count(*) AS pf FROM accepted GROUP BY doc_id),
scored AS (
  SELECT pf.doc_id AS doc_id,
         ({idf}) * (pf.pf * ({K1_SQL} + 1))
           / (pf.pf + {K1_SQL} * ((1 - {B_SQL}) + ({B_SQL} * dl.dl)
              / (CAST(s.sum_dl AS DOUBLE) / s.n_docs))) AS score
  FROM pf JOIN dl USING (doc_id), stats s
)
{_sql_topk('scored', k)}
"""


def _fingerprint_sql() -> str:
    """Twin of text_fingerprint (md5 mode): fp = Σ h_i·B^(n-1-i) mod
    M=2^61-1 — Horner unrolled into per-position contributions against
    a recursive powers-of-B table; every product runs in HUGEINT then
    reduces mod M, exactly like the engine's Mersenne folds."""
    from ..ops.text import FP_BASE, FP_MOD

    return f"""
WITH RECURSIVE {_tok_ctes()},
mx AS (SELECT max(dl) AS m FROM dl),
pows(k, v) AS (
  SELECT 0 AS k, CAST(1 AS UBIGINT) AS v
  UNION ALL
  SELECT k + 1, CAST((CAST(v AS HUGEINT) * {FP_BASE}) % {FP_MOD}
                     AS UBIGINT)
  FROM pows, mx WHERE k + 1 < mx.m
),
seq AS (SELECT doc_id, term,
               row_number() OVER (PARTITION BY doc_id ORDER BY pos)
                 - 1 AS rn
        FROM clean),
contrib AS (SELECT seq.doc_id AS doc_id,
                   (CAST(md5_number_lower(seq.term) % {FP_MOD}
                         AS HUGEINT) * pows.v) % {FP_MOD} AS c
            FROM seq JOIN dl USING (doc_id)
            JOIN pows ON pows.k = dl.dl - 1 - seq.rn),
fps AS (SELECT doc_id, CAST(sum(c) % {FP_MOD} AS BIGINT) AS fp
        FROM contrib GROUP BY doc_id)
SELECT d.doc_id AS doc_id, COALESCE(f.fp, 0) AS fp
FROM documents d LEFT JOIN fps f USING (doc_id)
ORDER BY d.doc_id
"""


def _pack_sequences_sql(window: int) -> str:
    """Twin of ops.text.pack_sequences: the same concat-and-chunk
    window report from a window-function prefix sum — all integers."""
    return f"""
WITH {_TOK_KEEPSTOP_CTE},
counts AS (SELECT doc_id, count(*) AS n FROM tok GROUP BY doc_id),
pref AS (SELECT doc_id, n,
                COALESCE(sum(n) OVER (ORDER BY doc_id
                  ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                  0) AS s
         FROM counts),
spans AS (SELECT p.doc_id AS doc_id, p.n AS n, p.s AS s, w.w AS seq_id,
                 least(p.s + p.n, (w.w + 1) * {window})
                   - greatest(p.s, w.w * {window}) AS overlap
          FROM pref p
          JOIN (SELECT unnest(range(0,
                  (SELECT CAST(ceil(sum(n) / CAST({window} AS DOUBLE))
                          AS BIGINT) FROM counts))) AS w) w
            ON w.w BETWEEN p.s // {window}
                   AND (p.s + p.n - 1) // {window}
          WHERE p.n > 0)
SELECT seq_id,
       min(doc_id) AS first_doc,
       -- s is monotone in doc_id, so min(s) belongs to min(doc_id)
       CAST(greatest(0, seq_id * {window} - min(s)) AS BIGINT)
         AS first_off,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(overlap) AS BIGINT) AS n_tokens
FROM spans GROUP BY seq_id ORDER BY seq_id
"""


def _hll_sql(table: str = "events", column: str = "user_id") -> str:
    """Twin of sketch_hll_users: the ENTIRE HLL pipeline in SQL —
    splitmix64 (the stratified-sample HUGEINT wrap pattern), 12-bit
    register index, rank = 52 − floor(log2(w)) (exact: w < 2^53, same
    libm log2 both sides), per-register max, then the Flajolet
    estimator with the linear-counting correction. Duplicate keys are
    idempotent under register max, so DISTINCT first. The only
    cross-side float risk is the 4096-term harmonic sum's association
    (numpy is pairwise, SQL sequential) — absorbed by the final
    integer rounding."""
    M64 = 18446744073709551616
    A, B, C = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    W = (1 << 52) - 1

    def wrap_mul(t: str, k: int) -> str:
        # (t·k) mod 2^64 with a 32-bit split so no HUGEINT product
        # exceeds 2^97 (a full 64×64 product overflows int128)
        return (f"CAST((((CAST({t} >> 32 AS HUGEINT) * {k & 0xFFFFFFFF})"
                f" % 4294967296) * 4294967296"
                f" + CAST({t} & 4294967295 AS HUGEINT) * {k})"
                f" % {M64} AS UBIGINT)")

    return f"""
WITH u AS (SELECT DISTINCT CAST({column} AS UBIGINT) AS x FROM {table}),
z1 AS (SELECT CAST((CAST(x AS HUGEINT) + {A}) % {M64} AS UBIGINT) AS z
       FROM u),
z2 AS (SELECT {wrap_mul('xor(z, z >> 30)', B)} AS z FROM z1),
z3 AS (SELECT {wrap_mul('xor(z, z >> 27)', C)} AS z FROM z2),
h AS (SELECT xor(z, z >> 31) AS h FROM z3),
reg AS (SELECT CAST(h >> 52 AS BIGINT) AS idx,
               max(CASE WHEN (h & {W}) = 0 THEN 53
                        ELSE 52 - CAST(floor(log2(
                               CAST(h & {W} AS DOUBLE))) AS BIGINT)
                   END) AS rho
        FROM h GROUP BY idx),
agg AS (SELECT sum(pow(2.0, -rho)) AS s, count(*) AS nobs FROM reg),
est AS (SELECT (0.7213 / (1.0 + 1.079 / 4096)) * 4096 * 4096
                 / (s + (4096 - nobs)) AS e,
               4096 - nobs AS zeros
        FROM agg)
SELECT CAST(floor((CASE WHEN e <= 2.5 * 4096 AND zeros > 0
                        THEN 4096 * ln(4096 / CAST(zeros AS DOUBLE))
                        ELSE e END) + 0.5) AS BIGINT) AS approx_distinct
FROM est
"""


def _simhash_sql(max_hamming: int = 3) -> str:
    """Twin of dedup_simhash (md5 mode): per-term 64-bit hashes via
    md5_number_lower (bit-identical to the engine's low-8-md5-bytes
    little-endian), the Charikar bit-majority per doc over tf-weighted
    ±1 contributions (stopwords KEPT — the tok CTE), signatures
    re-assembled with bit_or, then the same 4×16-bit pigeonhole
    banding self-join with bit_count hamming."""
    return f"""
WITH {_tok_ctes()},
per AS (SELECT doc_id, term, count(*) AS tf FROM tok
        GROUP BY doc_id, term),
h AS (SELECT doc_id, tf, md5_number_lower(term) AS hv FROM per),
bits AS (SELECT doc_id, b.b AS b,
                sum(tf * (CASE WHEN (hv >> b.b) & 1 = 1
                               THEN 1 ELSE -1 END)) AS s
         FROM h CROSS JOIN (SELECT unnest(range(64)) AS b) b
         GROUP BY doc_id, b.b),
sig AS (SELECT doc_id,
               bit_or(CASE WHEN s > 0
                           THEN (CAST(1 AS UBIGINT) << b)
                           ELSE CAST(0 AS UBIGINT) END) AS sig
        FROM bits GROUP BY doc_id),
chunks AS (SELECT doc_id, sig, c.c AS c,
                  (sig >> (16 * c.c)) & 65535 AS val
           FROM sig CROSS JOIN (SELECT unnest(range(4)) AS c) c),
pairs AS (SELECT DISTINCT a.doc_id AS a, b.doc_id AS b,
                 CAST(bit_count(xor(a.sig, b.sig)) AS BIGINT) AS hamming
          FROM chunks a JOIN chunks b
            ON a.c = b.c AND a.val = b.val AND a.doc_id < b.doc_id
          WHERE bit_count(xor(a.sig, b.sig)) <= {max_hamming})
SELECT a, b, hamming FROM pairs ORDER BY a, b
"""


def _q_span_first(term, end, k=20):
    def run(sf_dir):
        return _topk_table(_searcher(sf_dir).search_span_first(term, end, k=k))
    return run


def _span_first_sql(term: str, end: int, k: int) -> str:
    return f"""
WITH {_tok_ctes()},
spans AS (SELECT doc_id, count(*) AS n FROM clean
          WHERE term = '{term}' AND pos < {end} GROUP BY doc_id),
scored AS (SELECT doc_id, CAST(n AS DOUBLE) AS score FROM spans)
{_sql_topk('scored', k)}
"""


def _q_span_not(include, exclude, dist, k=20):
    def run(sf_dir):
        return _topk_table(
            _searcher(sf_dir).search_span_not(include, exclude, dist, k=k))
    return run


def _span_not_sql(include: str, exclude: str, dist: int, k: int) -> str:
    return f"""
WITH {_tok_ctes()},
spans AS (
  SELECT a.doc_id, count(*) AS n FROM clean a
  WHERE a.term = '{include}' AND NOT EXISTS (
    SELECT 1 FROM clean b
    WHERE b.doc_id = a.doc_id AND b.term = '{exclude}'
      AND abs(b.pos - a.pos) <= {dist})
  GROUP BY a.doc_id),
scored AS (SELECT doc_id, CAST(n AS DOUBLE) AS score FROM spans)
{_sql_topk('scored', k)}
"""


def _q_span_or(terms, k=20):
    def run(sf_dir):
        return _topk_table(_searcher(sf_dir).search_span_or(terms, k=k))
    return run


def _span_or_sql(terms: list[str], k: int) -> str:
    inlist = ", ".join(f"'{t}'" for t in terms)
    return f"""
WITH {_tok_ctes()},
spans AS (SELECT doc_id, count(*) AS n FROM clean
          WHERE term IN ({inlist}) GROUP BY doc_id),
scored AS (SELECT doc_id, CAST(n AS DOUBLE) AS score FROM spans)
{_sql_topk('scored', k)}
"""


def _q_span_containing(b1, b2, little, slop, k=20):
    def run(sf_dir):
        return _topk_table(_searcher(sf_dir).search_span_containing(
            b1, b2, little, slop, k=k))
    return run


def _span_containing_sql(b1: str, b2: str, little: str, slop: int,
                         k: int) -> str:
    """Twin of search_span_containing: ordered (b1,b2) pairs within slop
    that contain a little occurrence, counted per doc."""
    return f"""
WITH {_tok_ctes()},
big AS (SELECT a.doc_id AS doc_id, a.pos AS p1, b.pos AS p2
        FROM clean a JOIN clean b ON a.doc_id = b.doc_id
        WHERE a.term = '{b1}' AND b.term = '{b2}'
          AND b.pos - a.pos BETWEEN 1 AND {slop}),
spans AS (SELECT doc_id, count(*) AS n FROM big
          WHERE EXISTS (SELECT 1 FROM clean l
                        WHERE l.doc_id = big.doc_id
                          AND l.term = '{little}'
                          AND l.pos BETWEEN big.p1 AND big.p2)
          GROUP BY doc_id),
scored AS (SELECT doc_id, CAST(n AS DOUBLE) AS score FROM spans)
{_sql_topk('scored', k)}
"""


def _q_span_within(b1, b2, little, slop, k=20):
    def run(sf_dir):
        return _topk_table(_searcher(sf_dir).search_span_within(
            b1, b2, little, slop, k=k))
    return run


def _span_within_sql(b1: str, b2: str, little: str, slop: int,
                     k: int) -> str:
    """Twin of search_span_within: little occurrences inside an ordered
    (b1,b2) span, counted per doc."""
    return f"""
WITH {_tok_ctes()},
lit AS (SELECT doc_id, pos FROM clean WHERE term = '{little}'),
spans AS (SELECT doc_id, count(*) AS n FROM lit
          WHERE EXISTS (SELECT 1 FROM clean a JOIN clean b
                          ON a.doc_id = b.doc_id
                        WHERE a.doc_id = lit.doc_id
                          AND a.term = '{b1}' AND b.term = '{b2}'
                          AND b.pos - a.pos BETWEEN 1 AND {slop}
                          AND lit.pos BETWEEN a.pos AND b.pos)
          GROUP BY doc_id),
scored AS (SELECT doc_id, CAST(n AS DOUBLE) AS score FROM spans)
{_sql_topk('scored', k)}
"""


def _q_span_position_range(term, start, end, k=20):
    def run(sf_dir):
        return _topk_table(_searcher(sf_dir).search_span_position_range(
            term, start, end, k=k))
    return run


def _span_position_range_sql(term: str, start: int, end: int,
                             k: int) -> str:
    return f"""
WITH {_tok_ctes()},
spans AS (SELECT doc_id, count(*) AS n FROM clean
          WHERE term = '{term}' AND pos >= {start} AND pos < {end}
          GROUP BY doc_id),
scored AS (SELECT doc_id, CAST(n AS DOUBLE) AS score FROM spans)
{_sql_topk('scored', k)}
"""


# ---- geo point family (sandbox GeoPointInBBox/Distance/InPolygon over
# key-derived deterministic coordinates; ops/geo.py) ----

_GEO_POLY = [(0.0, 0.0), (40.0, 20.0), (10.0, 60.0), (-30.0, 45.0),
             (-20.0, 5.0)]


def _q_geo_bbox(sf_dir):
    from ..ops.geo import geo_bbox

    return geo_bbox(sf_dir, min_lat=10.0, max_lat=60.0,
                    min_lon=-30.0, max_lon=40.0)


def _geo_bbox_sql() -> str:
    from ..ops.geo import latlon_sql

    return f"""
WITH pts AS ({latlon_sql()})
SELECT key, CAST(floor(lat * 1000 + 0.5) AS BIGINT) AS lat_md,
       CAST(floor(lon * 1000 + 0.5) AS BIGINT) AS lon_md
FROM pts
WHERE lat >= 10.0 AND lat <= 60.0 AND lon >= -30.0 AND lon <= 40.0
ORDER BY key LIMIT 50
"""


def _q_geo_distance(sf_dir):
    from ..ops.geo import geo_distance

    return geo_distance(sf_dir, center_lat=10.0, center_lon=20.0,
                        radius_m=2500000.0)


def _geo_distance_sql() -> str:
    from ..ops.geo import latlon_sql

    d = ("2 * 6371008.7714 * asin(least(1, sqrt((("
         "1 - cos(lat * pi() / 180 - 10.0 * pi() / 180))"
         " + cos(lat * pi() / 180) * cos(10.0 * pi() / 180)"
         " * (1 - cos((lon - 20.0) * pi() / 180))) / 2)))")
    return f"""
WITH pts AS ({latlon_sql()}),
cand AS (SELECT key, {d} AS d FROM pts)
SELECT key, CAST(floor(d * 100 + 0.5) AS BIGINT) AS dist_cm
FROM cand WHERE d <= 2500000.0
ORDER BY dist_cm, key LIMIT 50
"""


def _q_geo_bbox_bkd(sf_dir):
    """geo_bbox served from the BKD point index (index/bkd.py) — same
    exact predicate, leaf-pruned reads; shares geo_bbox's oracle."""
    import tempfile

    from ..ops.geo import geo_bbox_bkd

    idx = tempfile.mkdtemp(prefix="bkd_drv_")
    return geo_bbox_bkd(sf_dir, min_lat=10.0, max_lat=60.0,
                        min_lon=-30.0, max_lon=40.0, index_dir=idx)


def _q_geo_bbox_rpt(sf_dir):
    from ..ops.geo import geo_bbox_rpt

    return geo_bbox_rpt(sf_dir, min_lat=10.0, max_lat=60.0,
                        min_lon=-30.0, max_lon=40.0, precision=3)


def _q_geo_sort(sf_dir, k=50):
    """sort=geodist() asc (solr:search/function/distance/
    GeoDistValueSourceParser + the sort binding): every point ranked by
    haversine distance to the query point — no radius cut, pure
    distance sort. Streaming per-batch distance column + distributed
    sort."""
    import math

    import ray.data as rd

    from ..ops.geo import derive_latlon, haversine_m

    def add_dist(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch["c_custkey"], dtype=np.int64)
        lat, lon = derive_latlon(keys)
        d = np.empty(len(keys), dtype=np.int64)
        for i in range(len(keys)):
            d[i] = int(math.floor(
                haversine_m(float(lat[i]), float(lon[i]), 10.0, 20.0)
                * 100.0 + 0.5))
        return pa.table({"key": pa.array(keys, type=pa.int64()),
                         "dist_cm": pa.array(d, type=pa.int64())})

    ds = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey"])
    out = (ds.map_batches(add_dist, batch_format="pyarrow")
           .sort(["dist_cm", "key"]).limit(k))
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


def _geo_sort_sql(k: int) -> str:
    from ..ops.geo import latlon_sql

    d = ("2 * 6371008.7714 * asin(least(1, sqrt((("
         "1 - cos(lat * pi() / 180 - 10.0 * pi() / 180))"
         " + cos(lat * pi() / 180) * cos(10.0 * pi() / 180)"
         " * (1 - cos((lon - 20.0) * pi() / 180))) / 2)))")
    return f"""
WITH pts AS ({latlon_sql()})
SELECT key, CAST(floor({d} * 100 + 0.5) AS BIGINT) AS dist_cm
FROM pts
ORDER BY dist_cm ASC, key ASC LIMIT {k}
"""


def _q_geo_heatmap(sf_dir):
    from ..ops.geo import geo_heatmap

    return geo_heatmap(sf_dir, min_lat=-60.0, max_lat=60.0,
                       min_lon=-120.0, max_lon=120.0, rows=8, cols=8)


def _geo_heatmap_sql() -> str:
    from ..ops.geo import latlon_sql

    return f"""
WITH pts AS ({latlon_sql()}),
cells AS (SELECT
    CAST(floor((lat - -60.0) / ((60.0 - -60.0) / 8)) AS BIGINT) AS r,
    CAST(floor((lon - -120.0) / ((120.0 - -120.0) / 8)) AS BIGINT) AS c
  FROM pts
  WHERE lat >= -60.0 AND lat < 60.0 AND lon >= -120.0 AND lon < 120.0)
SELECT r AS cell_row, c AS cell_col, count(*) AS n
FROM cells GROUP BY r, c ORDER BY r, c
"""


def _q_geo_polygon(sf_dir):
    from ..ops.geo import geo_polygon

    return geo_polygon(sf_dir, _GEO_POLY)


def _geo_polygon_sql() -> str:
    from ..ops.geo import latlon_sql

    n = len(_GEO_POLY)
    cases = []
    for e in range(n):
        yi, xi = _GEO_POLY[e]
        yj, xj = _GEO_POLY[(e + 1) % n]
        cases.append(
            f"CASE WHEN (({yi!r} > y) != ({yj!r} > y)) AND "
            f"x < ({xj!r} - {xi!r}) * (y - {yi!r}) / ({yj!r} - {yi!r})"
            f" + {xi!r} THEN 1 ELSE 0 END")
    total = " + ".join(cases)
    ys = [p[0] for p in _GEO_POLY]
    xs = [p[1] for p in _GEO_POLY]
    return f"""
WITH pts AS ({latlon_sql()}),
cand AS (SELECT key, lat AS y, lon AS x FROM pts
         WHERE lat >= {min(ys)!r} AND lat <= {max(ys)!r}
           AND lon >= {min(xs)!r} AND lon <= {max(xs)!r})
SELECT key FROM cand WHERE ({total}) % 2 = 1
ORDER BY key LIMIT 50
"""


def _q_blended(terms, k=10):
    def run(sf_dir):
        return _topk_table(_searcher(sf_dir).search_blended(terms, k=k))
    return run


def _blended_sql(terms: list[str], k: int) -> str:
    """Twin of search_blended: every clause scored against the blended
    (max) df, summed per doc in term order via an explicit pivot."""
    inlist = ", ".join(f"'{t}'" for t in terms)
    cols = ", ".join(
        f"COALESCE(max(CASE WHEN term = '{t}' THEN sc END), 0) AS s{i}"
        for i, t in enumerate(terms))
    total = " + ".join(f"s{i}" for i in range(len(terms)))
    return f"""
WITH {_tok_ctes()},
per AS (SELECT doc_id, term, count(*) AS tf FROM clean
        WHERE term IN ({inlist}) GROUP BY doc_id, term),
dfb AS (SELECT max(df) AS df
        FROM (SELECT term, count(*) AS df FROM per GROUP BY term)),
cs AS (SELECT per.doc_id, per.term,
              {_bm25_expr('per.tf', 'dl.dl', 'dfb.df')} AS sc
       FROM per JOIN dl USING (doc_id), dfb, stats s),
piv AS (SELECT doc_id, {cols} FROM cs GROUP BY doc_id),
scored AS (SELECT doc_id, {total} AS score FROM piv)
{_sql_topk('scored', k)}
"""


def _q_dv_numbers(field, values, k=10):
    """DocValuesNumbersQuery: numeric doc-values set membership."""
    def run(sf_dir):
        return _topk_table(_searcher(sf_dir).search_dv_numbers(
            field, values, k=k))
    return run


def _dv_numbers_sql(field: str, values, k: int) -> str:
    inlist = ", ".join(str(v) for v in values)
    return f"""
SELECT doc_id, CAST(10000 AS BIGINT) AS score_q,
       CAST(row_number() OVER (ORDER BY doc_id ASC) AS BIGINT) AS rank
FROM documents WHERE {field} IN ({inlist})
ORDER BY doc_id ASC LIMIT {k}
"""


def _q_dv_terms(field, values, k=10):
    """DocValuesTermsQuery: keyword doc-values set membership."""
    def run(sf_dir):
        return _topk_table(_searcher(sf_dir).search_dv_terms(
            field, values, k=k))
    return run


def _dv_terms_sql(field: str, values, k: int) -> str:
    inlist = ", ".join(f"'{v}'" for v in values)
    return f"""
SELECT doc_id, CAST(10000 AS BIGINT) AS score_q,
       CAST(row_number() OVER (ORDER BY doc_id ASC) AS BIGINT) AS rank
FROM documents WHERE {field} IN ({inlist})
ORDER BY doc_id ASC LIMIT {k}
"""


def _q_maxscore(qstr, tie, k=10):
    """{!maxscore} (MaxScoreQParserPlugin): flat classic disjunction
    scored max() + tie, through the local-params front door."""
    def run(sf_dir):
        from ..search.localparams import resolve_query

        return _topk_table(_searcher(sf_dir).search(
            resolve_query(qstr), k=k))
    return run


def _q_collapse_qparser(term, field, k=10):
    """{!collapse field=...}: best-scoring doc per doc-values group."""
    def run(sf_dir):
        from ..search.localparams import resolve_query

        q = resolve_query(f"{{!collapse field={field}}}")
        q["q"] = {"type": "term", "term": term}
        return _topk_table(_searcher(sf_dir).search(q, k=k))
    return run


def _collapse_sql(term: str, field: str, k: int) -> str:
    """Twin: BM25 per doc, then the (score desc, doc asc) head of each
    group of the doc-values field."""
    return f"""
WITH {_tok_ctes()},
tf AS (SELECT doc_id, count(*) AS tf FROM clean
       WHERE term = '{term}' GROUP BY doc_id),
dfx AS (SELECT count(*) AS df FROM tf),
base AS (SELECT tf.doc_id AS doc_id,
                {_bm25_expr('tf.tf', 'dl.dl', 'dfx.df')} AS score
         FROM tf JOIN dl ON tf.doc_id = dl.doc_id, dfx, stats s),
g AS (SELECT b.doc_id, b.score, d.{field} AS grp FROM base b
      JOIN documents d ON b.doc_id = d.doc_id),
scored AS (SELECT doc_id, score FROM g
           QUALIFY row_number() OVER (PARTITION BY grp
                    ORDER BY score DESC, doc_id ASC) = 1)
{_sql_topk('scored', k)}
"""


def _q_urp_pipeline(sf_dir):
    """Update-request-processor chain as a driver pipeline
    (solr:update/processor/*): a five-mutator chain streams the
    documents table through map_batches; every mutator has an exact
    SQL rendering so the whole chain is oracle-paired."""
    import ray.data as rd

    from ..ops import update_processors as U

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text", "lang", "source"])
    chain = U.chain(
        U.concat_fields("src_lang", ["source", "lang"], sep="/"),
        U.field_length("text", "text_len"),
        U.clone_field("text", "text_head"),
        U.truncate_field("text_head", 16),
        U.count_field_values("text", "n_tokens"),
        U.regex_replace("lang", "^en$", "english"),
    )
    out = ds.map_batches(chain, batch_format="pyarrow").map_batches(
        lambda b: b.select(["doc_id", "src_lang", "text_len",
                            "text_head", "n_tokens", "lang"]),
        batch_format="pyarrow")
    t = pa.concat_tables(
        [b for b in out.iter_batches(batch_format="pyarrow",
                                     batch_size=None) if b.num_rows],
        promote_options="default")
    return t.sort_by("doc_id")


URP_PIPELINE_SQL = """
SELECT doc_id,
       source || '/' || lang AS src_lang,
       CAST(length(text) AS BIGINT) AS text_len,
       substr(text, 1, 16) AS text_head,
       CAST(len(regexp_extract_all(lower(text), '[a-z0-9]+')) AS BIGINT)
           AS n_tokens,
       regexp_replace(lang, '^en$', 'english') AS lang
FROM documents ORDER BY doc_id
"""


_ANALYTICS_EX = {
    "qty_count": "count(l_quantity)", "qty_sum": "sum(l_quantity)",
    "qty_mean": "mean(l_quantity)", "qty_stddev": "stddev(l_quantity)",
    "qty_median": "median(l_quantity)", "qty_unique": "unique(l_quantity)",
    "qty_p25": "percentile(25, l_quantity)", "qty_min": "min(l_quantity)",
    "qty_max": "max(l_quantity)",
    # value-source math: dyadic constant keeps every aggregate exact
    "qty_boost": "sum(mult(l_quantity, const_num(2.5)))",
}
_ANALYTICS_FEX = {
    "qty_count": "count(l_quantity)", "qty_mean": "mean(l_quantity)",
    "qty_median": "median(l_quantity)",
    "qty_p75": "percentile(75, l_quantity)",
}


def _q_analytics_stats(sf_dir):
    """AnalyticsComponent whole-collection statistics (solr/contrib/
    analytics `olap` request: statistic(valuesource) expressions)."""
    from ..ops.analytics import analytics_stats

    return analytics_stats(sf_dir, table="lineitem",
                           expressions=_ANALYTICS_EX)


def _q_analytics_facet(sf_dir):
    """AnalyticsComponent FieldFacetRequest: per-facet-value stats."""
    from ..ops.analytics import analytics_field_facet

    return analytics_field_facet(sf_dir, table="lineitem",
                                 facet_field="l_returnflag",
                                 expressions=_ANALYTICS_FEX)


def _analytics_stats_oracle() -> str:
    from ..ops.analytics import analytics_stats_sql

    return analytics_stats_sql(table="lineitem",
                               expressions=_ANALYTICS_EX)


def _analytics_facet_oracle() -> str:
    from ..ops.analytics import analytics_field_facet_sql

    return analytics_field_facet_sql(table="lineitem",
                                     facet_field="l_returnflag",
                                     expressions=_ANALYTICS_FEX)


_GEO3D_PATH = [(10.0, 20.0), (30.0, 60.0), (20.0, 100.0)]


def _q_geo3d_circle(sf_dir):
    """Geo3D GeoCircle membership (lucene/spatial3d, SPHERE model)."""
    from ..ops.geo3d import geo3d_circle

    return geo3d_circle(sf_dir, center_lat=10.0, center_lon=20.0,
                        cutoff_deg=25.0)


def _q_geo3d_path(sf_dir):
    """Geo3D GeoPath membership (lucene/spatial3d, SPHERE model)."""
    from ..ops.geo3d import geo3d_path

    return geo3d_path(sf_dir, points=_GEO3D_PATH, cutoff_deg=8.0)


def _q_geo3d_circle_wgs84(sf_dir):
    """Geo3D GeoCircle on the WGS84 PlanetModel (PlanetModel.java:30-37
    ellipsoid scaling; magnitude-normalized arcs)."""
    from ..ops.geo3d import geo3d_circle

    return geo3d_circle(sf_dir, center_lat=10.0, center_lon=20.0,
                        cutoff_deg=25.0, model="wgs84")


def _q_geo3d_path_wgs84(sf_dir):
    """Geo3D GeoPath on the WGS84 PlanetModel."""
    from ..ops.geo3d import geo3d_path

    return geo3d_path(sf_dir, points=_GEO3D_PATH, cutoff_deg=8.0,
                      model="wgs84")


def _geo3d_circle_oracle() -> str:
    from ..ops.geo3d import geo3d_circle_sql

    return geo3d_circle_sql(center_lat=10.0, center_lon=20.0,
                            cutoff_deg=25.0)


def _geo3d_path_oracle() -> str:
    from ..ops.geo3d import geo3d_path_sql

    return geo3d_path_sql(points=_GEO3D_PATH, cutoff_deg=8.0)


def _geo3d_circle_wgs84_oracle() -> str:
    from ..ops.geo3d import geo3d_circle_sql

    return geo3d_circle_sql(center_lat=10.0, center_lon=20.0,
                            cutoff_deg=25.0, model="wgs84")


def _geo3d_path_wgs84_oracle() -> str:
    from ..ops.geo3d import geo3d_path_sql

    return geo3d_path_sql(points=_GEO3D_PATH, cutoff_deg=8.0,
                          model="wgs84")


def _q_dv_range(field, lo, hi, k=10):
    """DocValuesRangeQuery.newBytesRefRange: lexicographic range over
    SORTED string doc values, constant score."""
    def run(sf_dir):
        return _topk_table(_searcher(sf_dir).search_dv_range(
            field, lo, hi, k=k))
    return run


def _dv_range_sql(field: str, lo: str, hi: str, k: int) -> str:
    return f"""
SELECT doc_id, CAST(10000 AS BIGINT) AS score_q,
       CAST(row_number() OVER (ORDER BY doc_id ASC) AS BIGINT) AS rank
FROM documents WHERE {field} >= '{lo}' AND {field} <= '{hi}'
ORDER BY doc_id ASC LIMIT {k}
"""


def _q_classify(method, n_docs=20):
    """KNN / NaiveBayes classifier over the index (lucene/classification):
    predict each probe doc's lang from index stats alone. Rows-only
    (accuracy-bounded in tests/test_classify.py)."""
    def run(sf_dir):
        import pyarrow.parquet as pq

        from ..search.classify import classify_table

        s = _searcher(sf_dir)
        t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                          columns=["doc_id", "text", "lang"])
        order = np.argsort(np.asarray(t["doc_id"], dtype=np.int64))
        t = t.take(pa.array(order[:n_docs]))
        pred = classify_table(s, t["text"].to_pylist(), method=method)
        return pa.table({
            "doc_id": t["doc_id"],
            "lang": t["lang"],
            "predicted": pred["predicted"],
        })
    return run


def _q_classify_perceptron(n_train=100, n_probe=20):
    """BooleanPerceptronClassifier over the index (lucene/classification/
    BooleanPerceptronClassifier.java): ttf-seeded weights, one online
    pass over the first n_train docs (label: lang == 'en'), then
    deterministic predictions for the next n_probe. Oracle-paired: the
    arithmetic is pure integers (ttf seeds, ±tf updates, 2·out ≥ Σdf
    threshold), so the whole online pass runs in SQL as a WITH
    RECURSIVE carry of the per-step update signs dotted against a
    precomputed doc-pair gram matrix (_classify_perceptron_sql). The
    raw integer ``output`` per probe pins all 100 sequential steps."""
    def run(sf_dir):
        import pyarrow.parquet as pq

        from ..analysis.analyzer import token_terms
        from ..search.classify import BooleanPerceptron

        s = _searcher(sf_dir)
        t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                          columns=["doc_id", "text", "lang"])
        order = np.argsort(np.asarray(t["doc_id"], dtype=np.int64))
        train = t.take(pa.array(order[:n_train]))
        probe = t.take(pa.array(order[n_train:n_train + n_probe]))
        p = BooleanPerceptron(s)
        labels = [v == "en" for v in train["lang"].to_pylist()]
        p.train(train["text"].to_pylist(), labels)
        preds, outs = [], []
        for x in probe["text"].to_pylist():
            out = p._output(token_terms(x))
            preds.append(out >= p.threshold)
            outs.append(int(out))  # integer-valued by construction
        return pa.table({
            "doc_id": probe["doc_id"],
            "lang": probe["lang"],
            "predicted_en": pa.array(preds, type=pa.bool_()),
            "output": pa.array(outs, type=pa.int64()),
        })
    return run


def _classify_perceptron_sql(n_train: int = 100, n_probe: int = 20) -> str:
    """Twin of ft_classify_perceptron: the online pass is sequential
    mutable state, but every quantity is an integer, so it unrolls
    exactly — w_t = ttf(t) + Σ_j mod_j·tf(j,t) means the step-i output
    is base_i + Σ_{j<i} mod_j·G(j,i) with G the train-doc gram matrix
    (Σ_t tf_j·tf_i over shared terms; every probe/train token is corpus
    vocabulary by construction, so the index-vocab mask is a no-op).
    A WITH RECURSIVE carries the mod list (list_dot_product against the
    sliced per-step gram row decides each update); `out ≥ sum_df/2.0`
    is the exact integer test 2·out ≥ sum_df. DuckDB crashes on
    empty-list list_dot_product, hence the i=0 guard."""
    n_all = n_train + n_probe
    return f"""
WITH RECURSIVE {_tok_ctes()},
ranked AS (SELECT doc_id, lang, row_number() OVER (ORDER BY doc_id) AS r
           FROM documents),
train AS (SELECT doc_id, (lang = 'en') AS correct, r FROM ranked
          WHERE r <= {n_train}),
probe AS (SELECT doc_id, lang, r FROM ranked
          WHERE r > {n_train} AND r <= {n_all}),
ttfs AS (SELECT term, count(*) AS ttf FROM clean GROUP BY term),
sdf AS (SELECT count(*) AS sum_df
        FROM (SELECT DISTINCT doc_id, term FROM clean)),
tfv AS (SELECT doc_id, term, count(*) AS tf FROM clean
        WHERE doc_id IN (SELECT doc_id FROM ranked WHERE r <= {n_all})
        GROUP BY doc_id, term),
pbase AS (SELECT t.doc_id, sum(t.tf * f.ttf)::BIGINT AS base
          FROM tfv t JOIN ttfs f USING (term) GROUP BY t.doc_id),
gram AS (SELECT a.doc_id AS d1, b.doc_id AS d2, sum(a.tf * b.tf)::BIGINT AS g
         FROM tfv a JOIN tfv b USING (term)
         WHERE a.doc_id IN (SELECT doc_id FROM train)
         GROUP BY a.doc_id, b.doc_id),
glist AS (SELECT tgt.doc_id,
                 list(coalesce(g.g, 0) ORDER BY tr.r) AS gl
          FROM (SELECT doc_id FROM ranked WHERE r <= {n_all}) tgt
          CROSS JOIN train tr
          LEFT JOIN gram g ON g.d1 = tr.doc_id AND g.d2 = tgt.doc_id
          GROUP BY tgt.doc_id),
steps AS (SELECT tr.r, tr.correct, b.base, gl.gl
          FROM train tr JOIN pbase b USING (doc_id)
          JOIN glist gl USING (doc_id)),
rec AS (
  SELECT 0 AS i, CAST([] AS BIGINT[]) AS mods
  UNION ALL
  SELECT r.i + 1,
         list_append(r.mods, CASE
           WHEN s.correct AND NOT (2 * (s.base + CASE WHEN r.i = 0 THEN 0
                ELSE list_dot_product(r.mods, s.gl[1:r.i])::BIGINT END)
                >= (SELECT sum_df FROM sdf)) THEN 1
           WHEN (NOT s.correct) AND (2 * (s.base + CASE WHEN r.i = 0 THEN 0
                ELSE list_dot_product(r.mods, s.gl[1:r.i])::BIGINT END)
                >= (SELECT sum_df FROM sdf)) THEN -1
           ELSE 0 END)
  FROM rec r JOIN steps s ON s.r = r.i + 1
),
final AS (SELECT mods FROM rec WHERE i = {n_train})
SELECT p.doc_id, p.lang,
       2 * (b.base + list_dot_product(f.mods, gl.gl)::BIGINT)
         >= (SELECT sum_df FROM sdf) AS predicted_en,
       b.base + list_dot_product(f.mods, gl.gl)::BIGINT AS output
FROM probe p JOIN pbase b USING (doc_id) JOIN glist gl USING (doc_id), final f
ORDER BY p.r
"""


def _classify_knn_sql(n_probe: int, max_terms: int = 5,
                      k: int = 10) -> str:
    """Twin of ft_classify_knn (KNearestNeighborClassifier.assignClass):
    per probe doc — MLT term selection (tf·idf_exact64 top-5), BM25
    bool-OR neighbors (ordered float sum, the proven MLT twin shape,
    PARTITIONed per probe), then the majority lang among the top-k
    neighbors with ties class asc."""
    idf = "ln(1 + (s.n_docs - df + 0.5) / (df + 0.5))"
    return f"""
WITH {_tok_ctes()},
probes AS (SELECT doc_id AS probe FROM documents
           ORDER BY doc_id LIMIT {n_probe}),
seedtf AS (SELECT c.doc_id AS probe, c.term, count(*) AS f
           FROM clean c JOIN probes ON c.doc_id = probes.probe
           GROUP BY c.doc_id, c.term),
gdf AS (SELECT term, count(DISTINCT doc_id) AS df FROM clean
        GROUP BY term),
sel AS (SELECT probe, term,
               row_number() OVER (PARTITION BY probe
                 ORDER BY f * {idf} DESC, term ASC) AS r
        FROM seedtf JOIN gdf USING (term), stats s
        QUALIFY r <= {max_terms}),
per AS (SELECT sel.probe AS probe, c.doc_id AS doc_id, c.term AS term,
               sel.r AS r, count(*) AS tf
        FROM clean c JOIN sel ON c.term = sel.term
        GROUP BY sel.probe, c.doc_id, c.term, sel.r),
cs AS (SELECT per.probe AS probe, per.doc_id AS doc_id, per.r AS r,
              {_bm25_expr('per.tf', 'dl.dl', 'gdf.df')} AS sc
       FROM per JOIN gdf USING (term) JOIN dl USING (doc_id), stats s),
scored AS (SELECT probe, doc_id, sum(sc ORDER BY r) AS score
           FROM cs GROUP BY probe, doc_id),
neigh AS (SELECT probe, doc_id,
                 row_number() OVER (PARTITION BY probe
                   ORDER BY score DESC, doc_id ASC) AS nr
          FROM scored QUALIFY nr <= {k}),
votes AS (SELECT neigh.probe AS probe, d.lang AS lang,
                 count(*) AS n
          FROM neigh JOIN documents d USING (doc_id)
          GROUP BY neigh.probe, d.lang),
best AS (SELECT probe, lang AS predicted,
                row_number() OVER (PARTITION BY probe
                  ORDER BY n DESC, lang ASC) AS vr
         FROM votes QUALIFY vr = 1)
SELECT p.probe AS doc_id, d.lang AS lang, b.predicted AS predicted
FROM probes p JOIN documents d ON d.doc_id = p.probe
JOIN best b ON b.probe = p.probe
ORDER BY p.probe
"""


def _classify_nb_sql(n_probe: int) -> str:
    """Twin of ft_classify_nb (SimpleNaiveBayesClassifier): per probe and
    class, score = ln(prior) + Σ_w f·ln((tf_wc+1)/(tokens_c+V)) with the
    engine's float addition order reproduced exactly — the prior enters
    the ordered sum as the r=0 row (0.0 + ln_prior ≡ ln_prior), then
    terms ascending (the engine iterates sorted(tf_text))."""
    return f"""
WITH {_tok_ctes()},
probes AS (SELECT doc_id AS probe FROM documents
           ORDER BY doc_id LIMIT {n_probe}),
ptf AS (SELECT c.doc_id AS probe, c.term AS term, count(*) AS f
        FROM clean c JOIN probes ON c.doc_id = probes.probe
        GROUP BY c.doc_id, c.term),
classes AS (SELECT lang, count(*) AS cnt FROM documents GROUP BY lang),
ctok AS (SELECT d.lang AS lang, COALESCE(sum(dl.dl), 0) AS ntok
         FROM documents d LEFT JOIN dl ON dl.doc_id = d.doc_id
         GROUP BY d.lang),
vocab AS (SELECT count(DISTINCT term) AS v FROM clean),
cwf AS (SELECT d.lang AS lang, c.term AS term, count(*) AS tf_wc
        FROM clean c JOIN documents d USING (doc_id)
        GROUP BY d.lang, c.term),
parts AS (
  SELECT ptf.probe AS probe, cl.lang AS lang, 1 AS is_term,
         ptf.term AS ord_term,
         ptf.f * ln((COALESCE(cwf.tf_wc, 0) + 1)
                    / (ctok.ntok + vocab.v)) AS sc
  FROM ptf CROSS JOIN classes cl
  LEFT JOIN cwf ON cwf.lang = cl.lang AND cwf.term = ptf.term
  JOIN ctok ON ctok.lang = cl.lang, vocab
  UNION ALL
  SELECT probes.probe, cl.lang, 0 AS is_term, '' AS ord_term,
         ln(cl.cnt / s.n_docs) AS sc
  FROM probes CROSS JOIN classes cl, stats s
),
scores AS (SELECT probe, lang,
                  sum(sc ORDER BY is_term, ord_term) AS score
           FROM parts GROUP BY probe, lang),
best AS (SELECT probe, lang AS predicted,
                row_number() OVER (PARTITION BY probe
                  ORDER BY score DESC, lang ASC) AS vr
         FROM scores QUALIFY vr = 1)
SELECT p.probe AS doc_id, d.lang AS lang, b.predicted AS predicted
FROM probes p JOIN documents d ON d.doc_id = p.probe
JOIN best b ON b.probe = p.probe
ORDER BY p.probe
"""


def _q_suggest_weighted(prefix, n=10, context=("lang", "en")):
    """NRTSuggester with per-doc weights (n_chars doc value) and a
    context filter — the fork's signature completion surface."""
    def run(sf_dir):
        return _searcher(sf_dir).suggest_completion(
            prefix, n=n, weight_field="n_chars",
            context_field=context[0], context_value=context[1])
    return run


def _suggest_weighted_sql(prefix: str, n: int, field: str,
                          value: str) -> str:
    return f"""
WITH {_tok_ctes()},
cand AS (SELECT DISTINCT doc_id, term FROM clean
         WHERE term LIKE '{prefix}%'),
j AS (SELECT cand.term, cand.doc_id, d.n_chars AS weight
      FROM cand JOIN documents d USING (doc_id)
      WHERE d.{field} = '{value}')
SELECT term, doc_id, CAST(weight AS BIGINT) AS weight FROM j
ORDER BY weight DESC, term ASC, doc_id ASC LIMIT {n}
"""


def _suggest_sql(prefix: str, n: int) -> str:
    return f"""
WITH {_tok_ctes()}
SELECT term, count(*) AS weight FROM clean
WHERE term LIKE '{prefix}%'
GROUP BY term ORDER BY weight DESC, term ASC LIMIT {n}
"""


def _q_suggest_fuzzy(prefix, n=10, max_edits=1):
    """FuzzySuggester (lucene/suggest/.../analyzing/FuzzySuggester.java):
    typo-tolerant completion — dictionary terms whose prefix is within
    max_edits of the typed prefix, ttf-weighted."""
    def run(sf_dir):
        return _searcher(sf_dir).suggest_fuzzy(prefix, n=n,
                                               max_edits=max_edits)
    return run


def _suggest_fuzzy_sql(prefix: str, n: int, max_edits: int) -> str:
    plen = len(prefix)
    cuts = range(max(1, plen - max_edits), plen + max_edits + 1)
    lev = ", ".join(f"levenshtein('{prefix}', substr(term, 1, {L}))"
                    for L in cuts)
    return f"""
WITH {_tok_ctes()}
SELECT term, count(*) AS weight FROM clean
GROUP BY term HAVING least({lev}) <= {max_edits}
ORDER BY weight DESC, term ASC LIMIT {n}
"""


def _q_spellcheck_collate(query, max_edits=2):
    """SpellCheckCollator: corrected full query + verification hits."""
    def run(sf_dir):
        return _searcher(sf_dir).spellcheck_collate(query,
                                                    max_edits=max_edits)
    return run


def _spellcheck_collate_sql(words: list[str], bad: str,
                            max_edits: int) -> str:
    """Twin for a query with exactly ONE out-of-vocabulary word
    (``bad``): top suggestion by (distance asc, df desc, term asc),
    then the collated conjunction's hit count."""
    kept = [w for w in words if w != bad]
    before = " ".join(words[:words.index(bad)])
    after = " ".join(words[words.index(bad) + 1:])
    pre = f"'{before} ' || " if before else ""
    post = f" || ' {after}'" if after else ""
    in_list = ", ".join(f"'{w}'" for w in kept)
    return f"""
WITH {_tok_ctes()},
tdict AS (SELECT term, count(DISTINCT doc_id) AS df FROM clean
          GROUP BY term),
sug AS (SELECT term FROM tdict
        WHERE term <> '{bad}' AND levenshtein('{bad}', term)
              <= {max_edits}
        ORDER BY levenshtein('{bad}', term) ASC, df DESC, term ASC
        LIMIT 1),
hits AS (SELECT count(*) AS h FROM (
  SELECT doc_id FROM clean
  WHERE term IN ({in_list}) OR term = (SELECT term FROM sug)
  GROUP BY doc_id HAVING count(DISTINCT term) = {len(words)}))
SELECT {pre}(SELECT term FROM sug){post} AS collation,
       (SELECT CAST(h AS BIGINT) FROM hits) AS hits
"""


def _function_boost_sql(term: str, a: float, k: int) -> str:
    return f"""
WITH {_tok_ctes()},
tf AS (SELECT doc_id, count(*) AS tf FROM clean WHERE term = '{term}'
       GROUP BY doc_id),
dfx AS (SELECT count(*) AS df FROM tf),
scored AS (
  SELECT tf.doc_id AS doc_id,
         {_bm25_expr('tf.tf', 'dl.dl', 'dfx.df')} * ({a} / ({a} + dl.dl))
           AS score
  FROM tf JOIN dl USING (doc_id), dfx, stats s
)
{_sql_topk('scored', k)}
"""


# ---------------------------------------------------------------------------
# parsed-query family (classic QueryParser front door) + sloppy phrase
# ---------------------------------------------------------------------------

def _q_parsed(qstr, k=10, default_operator="OR"):
    """Classic-syntax query string through search.queryparser → the tree
    evaluator (QueryParserBase.java:60-65 semantics)."""
    def run(sf_dir):
        return _topk_table(_searcher(sf_dir).search_parsed(
            qstr, k=k, default_operator=default_operator))
    return run


def _q_localparams(qs, k=10):
    """A query through the local-params front door (QParser plugin
    routing, solr:search/{Bool,Field,Switch}QParserPlugin.java): the
    string resolves to a structured node the searcher executes."""
    def run(sf_dir):
        from ..search.localparams import resolve_query

        return _topk_table(_searcher(sf_dir).search(resolve_query(qs),
                                                    k=k))
    return run


def _q_boost_qparser(qs, k=10):
    """{!boost b=<valuesource>}<subquery> (BoostQParserPlugin): resolve
    the marker, then score = subquery × expression via the shared
    expression machinery."""
    def run(sf_dir):
        from ..search.localparams import resolve_query

        node = resolve_query(qs)
        assert node["type"] == "boost_expr"
        sub = node["q"]
        assert sub["type"] == "term"
        return _q_expr_boost(sub["term"], node["b"], k=k)(sf_dir)
    return run


def _bool_qparser_sql(must: str, should: str, must_not: str,
                      lang: str, k: int) -> str:
    """Twin of the {!bool} driver query: must+should scored, must_not
    excluded, the keyword FILTER clause constrains without scoring."""
    return f"""
WITH {_tok_ctes()},
per AS (SELECT doc_id, term, count(*) AS tf FROM clean
        WHERE term IN ('{must}', '{should}') GROUP BY doc_id, term),
dfs AS (SELECT term, count(*) AS df FROM per GROUP BY term),
cs AS (SELECT per.doc_id, per.term,
              {_bm25_expr('per.tf', 'dl.dl', 'dfs.df')} AS sc
       FROM per JOIN dfs USING (term) JOIN dl USING (doc_id), stats s),
scored AS (
  SELECT doc_id,
         COALESCE(max(CASE WHEN term = '{must}' THEN sc END), 0)
         + COALESCE(max(CASE WHEN term = '{should}' THEN sc END), 0)
           AS score
  FROM cs GROUP BY doc_id
  HAVING COALESCE(max(CASE WHEN term = '{must}' THEN 1 END), 0) = 1
),
scored2 AS (
  SELECT scored.* FROM scored
  JOIN documents d USING (doc_id)
  WHERE d.lang = '{lang}'
    AND doc_id NOT IN (SELECT DISTINCT doc_id FROM clean
                       WHERE term = '{must_not}')
)
{_sql_topk('scored2', k)}
"""


def _q_complex_phrase(body, k=10):
    """Phrase with embedded wildcards/alternations through
    search.complexphrase (ComplexPhraseQueryParser.java:47-70)."""
    def run(sf_dir):
        return _topk_table(
            _searcher(sf_dir).search_complex_phrase(body, k=k))
    return run


def _q_simple(qstr, k=10):
    """SimpleQueryParser syntax through search.simpleparser → the tree
    evaluator (simple/SimpleQueryParser.java never-throwing grammar)."""
    def run(sf_dir):
        return _topk_table(_searcher(sf_dir).search_simple(qstr, k=k))
    return run


def _q_phrase_slop(t1, t2, slop, k=10):
    def run(sf_dir):
        return _topk_table(_searcher(sf_dir).search(
            {"type": "phrase", "terms": [t1, t2], "slop": slop}, k=k))
    return run


def ft_phrase_slop_sql(t1: str, t2: str, slop: int, k: int) -> str:
    """Sloppy-phrase twin: phraseFreq = Σ 1/(|Δpos−1|+1) over in-window
    pairs, computed as an integer numerator over L = lcm(1..slop+1) so
    both sides do ONE float division (bit-identical; see
    searcher._sloppy_phrase_all)."""
    import math

    L = math.lcm(*range(1, slop + 2))
    return f"""
WITH {_tok_ctes()},
dfs AS (SELECT term, count(DISTINCT doc_id) AS df FROM clean
        WHERE term IN ('{t1}', '{t2}') GROUP BY term),
pairs AS (SELECT a.doc_id, abs(b.pos - a.pos - 1) AS dist
          FROM clean a JOIN clean b ON a.doc_id = b.doc_id
          WHERE a.term = '{t1}' AND b.term = '{t2}'
            AND abs(b.pos - a.pos - 1) <= {slop}),
num AS (SELECT doc_id, sum({L} // (dist + 1)) AS numq
        FROM pairs GROUP BY doc_id),
idf AS (SELECT ln(1 + (s.n_docs - d1.df + 0.5) / (d1.df + 0.5))
             + ln(1 + (s.n_docs - d2.df + 0.5) / (d2.df + 0.5)) AS v
        FROM stats s,
             (SELECT df FROM dfs WHERE term = '{t1}') d1,
             (SELECT df FROM dfs WHERE term = '{t2}') d2),
scored AS (
  SELECT num.doc_id AS doc_id,
         idf.v * ((CAST(numq AS DOUBLE) / {L}) * ({K1_SQL} + 1))
           / ((CAST(numq AS DOUBLE) / {L}) + {K1_SQL} * ((1 - {B_SQL})
              + ({B_SQL} * dl.dl)
              / (CAST(s.sum_dl AS DOUBLE) / s.n_docs))) AS score
  FROM num JOIN dl USING (doc_id), idf, stats s
)
{_sql_topk('scored', k)}
"""


def _parsed_grouped_sql(k: int) -> str:
    """Twin of 'table AND (vector OR customer)': summation parenthesized
    exactly as the nested bool evaluates it — s_table + (s_vector +
    s_customer)."""
    return f"""
WITH {_tok_ctes()},
per AS (SELECT doc_id, term, count(*) AS tf FROM clean
        WHERE term IN ('table', 'vector', 'customer')
        GROUP BY doc_id, term),
dfs AS (SELECT term, count(*) AS df FROM per GROUP BY term),
cs AS (SELECT per.doc_id, per.term,
              {_bm25_expr('per.tf', 'dl.dl', 'dfs.df')} AS sc
       FROM per JOIN dfs USING (term) JOIN dl USING (doc_id), stats s),
piv AS (SELECT doc_id,
               COALESCE(max(CASE WHEN term = 'table' THEN sc END), 0) AS s_t,
               COALESCE(max(CASE WHEN term = 'vector' THEN sc END), 0) AS s_v,
               COALESCE(max(CASE WHEN term = 'customer' THEN sc END), 0) AS s_c,
               max(CASE WHEN term = 'table' THEN 1 ELSE 0 END) AS p_t,
               max(CASE WHEN term = 'vector' THEN 1 ELSE 0 END) AS p_v,
               max(CASE WHEN term = 'customer' THEN 1 ELSE 0 END) AS p_c
        FROM cs GROUP BY doc_id),
scored AS (SELECT doc_id, s_t + (s_v + s_c) AS score FROM piv
           WHERE p_t = 1 AND (p_v = 1 OR p_c = 1))
{_sql_topk('scored', k)}
"""


def _parsed_phrase_prefix_sql(k: int) -> str:
    """Twin of 'cust* OR \"fast table\"': constant-score prefix clause +
    exact-phrase BM25, summed in clause order."""
    return f"""
WITH {_tok_ctes()},
pre AS (SELECT DISTINCT doc_id FROM clean WHERE term LIKE 'cust%'),
dfs AS (SELECT term, count(DISTINCT doc_id) AS df FROM clean
        WHERE term IN ('fast', 'table') GROUP BY term),
pf AS (SELECT a.doc_id, count(*) AS pf
       FROM clean a JOIN clean b
         ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
       WHERE a.term = 'fast' AND b.term = 'table'
       GROUP BY a.doc_id),
idf AS (SELECT ln(1 + (s.n_docs - d1.df + 0.5) / (d1.df + 0.5))
             + ln(1 + (s.n_docs - d2.df + 0.5) / (d2.df + 0.5)) AS v
        FROM stats s,
             (SELECT df FROM dfs WHERE term = 'fast') d1,
             (SELECT df FROM dfs WHERE term = 'table') d2),
ph AS (SELECT pf.doc_id,
              idf.v * (pf.pf * ({K1_SQL} + 1))
                / (pf.pf + {K1_SQL} * ((1 - {B_SQL}) + ({B_SQL} * dl.dl)
                   / (CAST(s.sum_dl AS DOUBLE) / s.n_docs))) AS psc
       FROM pf JOIN dl USING (doc_id), idf, stats s),
cand AS (SELECT doc_id FROM pre UNION SELECT doc_id FROM ph),
scored AS (
  SELECT c.doc_id,
         (CASE WHEN pre.doc_id IS NOT NULL THEN 1.0 ELSE 0.0 END)
           + COALESCE(ph.psc, 0.0) AS score
  FROM cand c LEFT JOIN pre USING (doc_id) LEFT JOIN ph USING (doc_id))
{_sql_topk('scored', k)}
"""


def _parsed_field_sql(term: str, field: str, value: str, k: int) -> str:
    """Twin of '{field}:{value} AND {term}': keyword clause scores a
    constant 1.0 (the engine's StringField discipline), added before the
    BM25 term score."""
    return f"""
WITH {_tok_ctes()},
tf AS (SELECT doc_id, count(*) AS tf FROM clean WHERE term = '{term}'
       GROUP BY doc_id),
dfx AS (SELECT count(*) AS df FROM tf),
scored AS (
  SELECT tf.doc_id AS doc_id,
         1.0 + ({_bm25_expr('tf.tf', 'dl.dl', 'dfx.df')}) AS score
  FROM tf JOIN dl USING (doc_id) JOIN documents d USING (doc_id),
       dfx, stats s
  WHERE d.{field} = '{value}'
)
{_sql_topk('scored', k)}
"""


def _parsed_not_sql(term: str, not_term: str, k: int) -> str:
    return f"""
WITH {_tok_ctes()},
tf AS (SELECT doc_id, count(*) AS tf FROM clean WHERE term = '{term}'
       GROUP BY doc_id),
dfx AS (SELECT count(*) AS df FROM tf),
scored AS (
  SELECT tf.doc_id AS doc_id,
         {_bm25_expr('tf.tf', 'dl.dl', 'dfx.df')} AS score
  FROM tf JOIN dl USING (doc_id), dfx, stats s
  WHERE tf.doc_id NOT IN (SELECT DISTINCT doc_id FROM clean
                          WHERE term = '{not_term}')
)
{_sql_topk('scored', k)}
"""


# ---------------------------------------------------------------------------
# analyzer-chain variants (stemmer / synonyms) + spellcheck
# ---------------------------------------------------------------------------

SYNONYMS = {"group": "batch"}  # canonical-form map (SynonymFilter)


def documents_index_variant(sf_dir: str, tag: str, term_transform=None,
                            stream_transform=None, stopwords=None) -> str:
    """A documents index built with a configured analyzer chain
    (PorterStemFilter / SynonymFilter term stages, NGram/Shingle stream
    stages); cached per variant."""
    from ..index.build import build_index
    from ..index.manifest import load_manifest

    key = hashlib.sha256(
        f"{sf_dir}|{tag}|v{FORMAT_VERSION}".encode()).hexdigest()[:12]
    out = os.path.join(INDEX_CACHE_ROOT, f"docs-{tag}-{key}")
    if out in _memo:
        return out
    try:
        load_manifest(out)
        _memo[out] = out
        return out
    except FileNotFoundError:
        pass
    except ValueError:
        import shutil

        shutil.rmtree(out, ignore_errors=True)
    import ray.data as rd

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    build_index(ds, out, content_col="text", batch_rows=256,
                term_transform=term_transform,
                stream_transform=stream_transform, stopwords=stopwords)
    _memo[out] = out
    return out


def _q_explain_term(term, k=10):
    """IndexSearcher.explain parity: the top-k is re-scored DOC BY DOC
    through the Explanation tree (search/explain.py) — the oracle pairs
    against the plain BM25 SQL twin, so a hash match proves
    explain(q, doc).value == score(q, doc) against an external engine
    (Lucene's CheckHits.verifyExplanation as a driver check)."""
    def run(sf_dir):
        from ..search.explain import explain

        s = _searcher(sf_dir)
        t = s.search({"type": "term", "term": term}, k=k)
        docs = t["doc_id"].to_pylist()
        vals = np.array([explain(s, {"type": "term", "term": term},
                                 d)["value"] for d in docs])
        return pa.table({
            "doc_id": pa.array(docs, type=pa.int64()),
            "score_q": pa.array(quantize_score(vals), type=pa.int64()),
            "rank": t["rank"] if "rank" in t.column_names else
            pa.array(np.arange(1, len(docs) + 1), type=pa.int64()),
        })
    return run


def payload_store_for(sf_dir: str) -> str:
    """The payload-store sidecar (the .pay-file analogue) over the
    documents corpus; built once per sf_dir, hive-bucketed by term."""
    from ..search.payload import build_payload_store

    key = hashlib.sha256(
        f"{sf_dir}|payload|v{FORMAT_VERSION}".encode()).hexdigest()[:12]
    out = os.path.join(INDEX_CACHE_ROOT, f"payload-{key}")
    if out in _memo:
        return out
    if os.path.exists(os.path.join(out, "payload_meta.done")):
        _memo[out] = out
        return out
    import ray.data as rd

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    build_payload_store(ds, out)
    _memo[out] = out
    return out


def _payload_topk(t: pa.Table, k: int) -> pa.Table:
    scores = np.asarray(t["score"], dtype=np.float64)
    docs = np.asarray(t["doc_id"], dtype=np.int64)
    order = np.lexsort((docs, -scores))[:k]
    return pa.table({
        "doc_id": pa.array(docs[order], type=pa.int64()),
        "score_q": pa.array(quantize_score(scores[order]),
                            type=pa.int64()),
        "rank": pa.array(np.arange(1, len(order) + 1), type=pa.int64()),
    })


def _q_payload_score(term, func="sum", k=10):
    """PayloadScoreQuery(SpanTermQuery, PayloadFunction,
    includeSpanScore=false): per-doc fold of the payloads at the term's
    positions (queries/.../payloads/PayloadScoreQuery.java,
    SumPayloadFunction). Payloads enter through the
    DelimitedPayloadTokenFilter rendering round-trip."""
    def run(sf_dir):
        from ..search.payload import payload_score

        store = payload_store_for(sf_dir)
        return _payload_topk(payload_score(store, term, func), k)
    return run


def _q_payload_span(term, func="avg", k=10):
    """PayloadScoreQuery with includeSpanScore=true: exact64 BM25 span
    score × the payload fold (a single-term span's sloppyFreq == tf)."""
    def run(sf_dir):
        from ..search.payload import payload_score

        store = payload_store_for(sf_dir)
        s = _searcher(sf_dir)
        return _payload_topk(
            payload_score(store, term, func, searcher=s,
                          include_span_score=True), k)
    return run


def _payload_score_sql(term: str, func: str, k: int) -> str:
    from ..search.payload import demo_payload_expr

    agg = {"sum": "sum({e})", "min": "min({e})", "max": "max({e})",
           "avg": "sum({e}) / count(*)"}[func].format(
               e=demo_payload_expr("pos"))
    return f"""
WITH {_tok_ctes()},
scored AS (SELECT doc_id, {agg} AS score FROM tok
           WHERE term = '{term}' GROUP BY doc_id)
{_sql_topk('scored', k)}
"""


def _payload_span_sql(term: str, func: str, k: int) -> str:
    from ..search.payload import demo_payload_expr

    agg = {"sum": "sum({e})", "min": "min({e})", "max": "max({e})",
           "avg": "sum({e}) / count(*)"}[func].format(
               e=demo_payload_expr("pos"))
    return f"""
WITH {_tok_ctes()},
tf AS (SELECT doc_id, count(*) AS tf FROM clean WHERE term = '{term}'
       GROUP BY doc_id),
dfx AS (SELECT count(*) AS df FROM tf),
pay AS (SELECT doc_id, {agg} AS pay FROM tok WHERE term = '{term}'
        GROUP BY doc_id),
scored AS (
  SELECT tf.doc_id AS doc_id,
         ({_bm25_expr('tf.tf', 'dl.dl', 'dfx.df')}) * pay.pay AS score
  FROM tf JOIN dl USING (doc_id) JOIN pay USING (doc_id), dfx, stats s
)
{_sql_topk('scored', k)}
"""


def _q_synonym_term(term, k=10):
    """Term query over an index whose analyzer maps synonyms to their
    canonical form (synonym/SynonymFilter.java as a chain stage)."""
    def run(sf_dir):
        from ..analysis.filters import make_synonym_transform
        from ..search.searcher import IndexSearcher

        idx = documents_index_variant(
            sf_dir, "syn", make_synonym_transform(SYNONYMS))
        s = IndexSearcher(idx, mode="exact64")
        return _topk_table(s.search({"type": "term", "term": term}, k=k))
    return run


def _q_stemmed_term(word, k=10):
    """Term query over a Porter-stemmed index (PorterStemFilter); the
    query word is stemmed with the same chain. Oracle-paired: the twin
    re-implements the full Porter algorithm in SQL (analysis/porter_sql)."""
    def run(sf_dir):
        from ..analysis.filters import porter_stem
        from ..search.searcher import IndexSearcher

        idx = documents_index_variant(sf_dir, "stem", porter_stem)
        s = IndexSearcher(idx, mode="exact64")
        return _topk_table(s.search(
            {"type": "term", "term": porter_stem(word)}, k=k))
    return run


def _q_snowball_term(word, k=10):
    """Term query over a Snowball-English (Porter2) stemmed index
    (snowball/SnowballFilter.java + EnglishStemmer); the query word is
    stemmed with the same chain. Oracle-paired: the twin re-implements
    full Porter2 in SQL (analysis/snowball_sql)."""
    def run(sf_dir):
        from ..analysis.snowball import snowball_english
        from ..search.searcher import IndexSearcher

        idx = documents_index_variant(sf_dir, "snow", snowball_english)
        s = IndexSearcher(idx, mode="exact64")
        return _topk_table(s.search(
            {"type": "term", "term": snowball_english(word)}, k=k))
    return run


def _q_phonetic_term(word, k=10):
    """Term query over a Double-Metaphone phonetic index
    (phonetic/DoubleMetaphoneFilter.java): the misspelled query word
    matches docs spelling it right because both encode to the same
    code ('tabel' and 'table' → TPL). Oracle-paired: the full primary
    Double Metaphone runs in SQL as a WITH RECURSIVE state machine
    (analysis/metaphone_sql.py)."""
    def run(sf_dir):
        from ..analysis.metaphone import double_metaphone_transform
        from ..search.searcher import IndexSearcher

        idx = documents_index_variant(sf_dir, "dmph",
                                      double_metaphone_transform)
        s = IndexSearcher(idx, mode="exact64")
        return _topk_table(s.search(
            {"type": "term", "term": double_metaphone_transform(word)},
            k=k))
    return run


def _q_kstem_term(word, k=10):
    """Term query over a KStem index whose validating lexicon is the
    corpus's own term dictionary (en/KStemFilter.java with
    lexicon_from_index — the honest stand-in for the bundled word
    list). Oracle-paired: lexicon gating is candidate generation +
    semi-join + arg_min in SQL (analysis/kstem_sql)."""
    def run(sf_dir):
        from ..analysis.kstem import kstem_transform, lexicon_from_index
        from ..search.searcher import IndexSearcher

        lex = lexicon_from_index(documents_index(sf_dir))
        t = kstem_transform(lexicon=lex)
        idx = documents_index_variant(sf_dir, "kstem", t)
        s = IndexSearcher(idx, mode="exact64")
        return _topk_table(s.search({"type": "term", "term": t(word)},
                                    k=k))
    return run


def _q_lm_dirichlet(term, mu=2000.0, k=10):
    """Term query scored with LMDirichletSimilarity (Dirichlet-smoothed
    language model, core:search/similarities/LMDirichletSimilarity.java)
    over exact doc lengths; float64 end-to-end so the SQL twin is
    bit-equal."""
    def run(sf_dir):
        from ..search.similarity import lm_dirichlet_scores

        s = _searcher(sf_dir)
        p = s._decode_term_global(term)
        if p is None:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "score_q": pa.array([], type=pa.int64()),
                             "rank": pa.array([], type=pa.int64())})
        docs, tfs = p[0], p[1]
        ids, dls = s._global_dl()
        dl = dls[np.searchsorted(ids, docs)]
        ttf = s.term_stats([term])[term][1]
        score = lm_dirichlet_scores(tfs, dl, ttf, s.sum_dl, mu=mu)
        order = np.lexsort((docs, -score))[:k]
        return pa.table({
            "doc_id": pa.array(docs[order], type=pa.int64()),
            "score_q": pa.array(quantize_score(score[order]),
                                type=pa.int64()),
            "rank": pa.array(np.arange(1, len(order) + 1),
                             type=pa.int64()),
        })
    return run


def _lm_dirichlet_sql(term: str, mu: float, k: int) -> str:
    return f"""
WITH {_tok_ctes()},
tf AS (SELECT doc_id, count(*) AS tf FROM clean WHERE term = '{term}'
       GROUP BY doc_id),
ttfx AS (SELECT count(*) AS ttf FROM clean WHERE term = '{term}'),
raw AS (
  SELECT tf.doc_id AS doc_id,
         ln(1 + tf.tf / ({mu!r} * (ttfx.ttf
                                   / CAST(s.sum_dl AS DOUBLE))))
         + ln({mu!r} / (dl.dl + {mu!r})) AS score
  FROM tf JOIN dl USING (doc_id), ttfx, stats s
),
-- LMDirichletSimilarity.java:70 clamps the negative case to 0
scored AS (SELECT doc_id,
                  CASE WHEN score > 0 THEN score ELSE 0 END AS score
           FROM raw)
{_sql_topk('scored', k)}
"""


def _q_lm_jelinek_mercer(term, lam=0.7, k=10):
    """Term query scored with LMJelinekMercerSimilarity
    (core:search/similarities/LMJelinekMercerSimilarity.java); float64
    over exact doc lengths, like the Dirichlet twin."""
    def run(sf_dir):
        from ..search.similarity import lm_jelinek_mercer_scores

        s = _searcher(sf_dir)
        p = s._decode_term_global(term)
        if p is None:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "score_q": pa.array([], type=pa.int64()),
                             "rank": pa.array([], type=pa.int64())})
        docs, tfs = p[0], p[1]
        ids, dls = s._global_dl()
        dl = dls[np.searchsorted(ids, docs)]
        ttf = s.term_stats([term])[term][1]
        score = lm_jelinek_mercer_scores(tfs, dl, ttf, s.sum_dl,
                                         lam=lam)
        order = np.lexsort((docs, -score))[:k]
        return pa.table({
            "doc_id": pa.array(docs[order], type=pa.int64()),
            "score_q": pa.array(quantize_score(score[order]),
                                type=pa.int64()),
            "rank": pa.array(np.arange(1, len(order) + 1),
                             type=pa.int64()),
        })
    return run


def _lm_jelinek_mercer_sql(term: str, lam: float, k: int) -> str:
    return f"""
WITH {_tok_ctes()},
tf AS (SELECT doc_id, count(*) AS tf FROM clean WHERE term = '{term}'
       GROUP BY doc_id),
ttfx AS (SELECT count(*) AS ttf FROM clean WHERE term = '{term}'),
scored AS (
  SELECT tf.doc_id AS doc_id,
         -- CAST: DuckDB parses bare 0.7 as DECIMAL, whose (1 - λ)
         -- differs in the last bit from float64 1.0-0.7
         ln(1 + ((1 - CAST({lam!r} AS DOUBLE)) * tf.tf / dl.dl)
                / (CAST({lam!r} AS DOUBLE)
                   * (ttfx.ttf / CAST(s.sum_dl AS DOUBLE)))) AS score
  FROM tf JOIN dl USING (doc_id), ttfx, stats s
)
{_sql_topk('scored', k)}
"""


def _q_dfr_inl2(term, c=1.0, k=10):
    """Term query scored with DFR I(n)L2 (DFRSimilarity with
    BasicModelIn/AfterEffectL/NormalizationH2); float64 over exact doc
    lengths."""
    def run(sf_dir):
        from ..search.similarity import dfr_inl2_scores

        s = _searcher(sf_dir)
        p = s._decode_term_global(term)
        if p is None:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "score_q": pa.array([], type=pa.int64()),
                             "rank": pa.array([], type=pa.int64())})
        docs, tfs = p[0], p[1]
        ids, dls = s._global_dl()
        dl = dls[np.searchsorted(ids, docs)]
        df = s.term_stats([term])[term][0]
        score = dfr_inl2_scores(tfs, dl, df, s.num_docs, s.sum_dl, c=c)
        order = np.lexsort((docs, -score))[:k]
        return pa.table({
            "doc_id": pa.array(docs[order], type=pa.int64()),
            "score_q": pa.array(quantize_score(score[order]),
                                type=pa.int64()),
            "rank": pa.array(np.arange(1, len(order) + 1),
                             type=pa.int64()),
        })
    return run


def _dfr_inl2_sql(term: str, c: float, k: int) -> str:
    return f"""
WITH {_tok_ctes()},
tf AS (SELECT doc_id, count(*) AS tf FROM clean WHERE term = '{term}'
       GROUP BY doc_id),
dfx AS (SELECT count(DISTINCT doc_id) AS df FROM clean
        WHERE term = '{term}'),
tfn AS (
  SELECT tf.doc_id AS doc_id,
         tf.tf * (ln(1 + {c!r} * (CAST(s.sum_dl AS DOUBLE) / s.n_docs)
                     / dl.dl) / ln(2)) AS tfn,
         s.n_docs AS n_docs
  FROM tf JOIN dl USING (doc_id), stats s
),
scored AS (
  SELECT doc_id,
         (tfn * (ln((n_docs + 1) / (dfx.df + 0.5)) / ln(2)))
           * (1 / (tfn + 1)) AS score
  FROM tfn, dfx
)
{_sql_topk('scored', k)}
"""


def _q_ib(term, dist="ll", c=1.0, k=10):
    """Term query scored with IBSimilarity — LL·DF·H2 or SPL·TTF·H2
    (core:search/similarities/IBSimilarity.java); float64 over exact
    doc lengths."""
    def run(sf_dir):
        from ..search.similarity import ib_ll_scores, ib_spl_scores

        s = _searcher(sf_dir)
        p = s._decode_term_global(term)
        if p is None:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "score_q": pa.array([], type=pa.int64()),
                             "rank": pa.array([], type=pa.int64())})
        docs, tfs = p[0], p[1]
        ids, dls = s._global_dl()
        dl = dls[np.searchsorted(ids, docs)]
        df, ttf = s.term_stats([term])[term]
        if dist == "ll":
            score = ib_ll_scores(tfs, dl, df, s.num_docs, s.sum_dl, c=c)
        else:
            score = ib_spl_scores(tfs, dl, ttf, s.num_docs, s.sum_dl,
                                  c=c)
        order = np.lexsort((docs, -score))[:k]
        return pa.table({
            "doc_id": pa.array(docs[order], type=pa.int64()),
            "score_q": pa.array(quantize_score(score[order]),
                                type=pa.int64()),
            "rank": pa.array(np.arange(1, len(order) + 1),
                             type=pa.int64()),
        })
    return run


def _ib_sql(term: str, dist: str, c: float, k: int) -> str:
    stat = ("(SELECT count(DISTINCT doc_id) FROM clean "
            f"WHERE term = '{term}')") if dist == "ll" else \
        f"(SELECT count(*) FROM clean WHERE term = '{term}')"
    if dist == "ll":
        score = "-ln((lam) / (tfn + (lam)))"
    else:
        # DistributionSPL.java:35-37 clamps λ == 1 to 0.99
        score = ("-ln((pow(lam2, tfn / (tfn + 1)) - lam2) / (1 - lam2))")
    return f"""
WITH {_tok_ctes()},
tf AS (SELECT doc_id, count(*) AS tf FROM clean WHERE term = '{term}'
       GROUP BY doc_id),
tfn AS (
  SELECT tf.doc_id AS doc_id,
         tf.tf * (ln(1 + {c!r} * (CAST(s.sum_dl AS DOUBLE) / s.n_docs)
                     / dl.dl) / ln(2)) AS tfn,
         ({stat} + 1) / (s.n_docs + 1) AS lam
  FROM tf JOIN dl USING (doc_id), stats s
),
clamped AS (SELECT doc_id, tfn,
                   CASE WHEN lam = 1 THEN CAST(0.99 AS DOUBLE)
                        ELSE lam END AS lam2, lam
            FROM tfn),
scored AS (SELECT doc_id, {score} AS score FROM clamped)
{_sql_topk('scored', k)}
"""


def _classic_scores64(s, docs, tfs):
    """ClassicSimilarity in the float64 exact-dl oracle mode:
    (1 + ln(N/(df+1)))² · sqrt(tf) · (1/sqrt(dl))."""
    import math

    ids, dls = s._global_dl()
    dl = dls[np.searchsorted(ids, docs)].astype(np.float64)
    tf64 = tfs.astype(np.float64)
    return docs, dl, tf64


def _q_classic_tfidf(term, k=10):
    """Term query scored with ClassicSimilarity (core:search/
    similarities/ClassicSimilarity.java — the pre-6 TF-IDF default);
    float64 over exact doc lengths (the searcher-integrated float32
    norm-byte variant is pytest-covered)."""
    def run(sf_dir):
        import math

        s = _searcher(sf_dir)
        p = s._decode_term_global(term)
        if p is None:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "score_q": pa.array([], type=pa.int64()),
                             "rank": pa.array([], type=pa.int64())})
        docs, dl, tf64 = _classic_scores64(s, p[0], p[1])
        df = s.term_stats([term])[term][0]
        idf = 1.0 + math.log(s.num_docs / (df + 1.0))
        score = np.empty(len(docs), dtype=np.float64)
        for i in range(len(score)):
            score[i] = (idf * idf) * math.sqrt(tf64[i]) \
                * (1.0 / math.sqrt(dl[i]))
        order = np.lexsort((docs, -score))[:k]
        return pa.table({
            "doc_id": pa.array(docs[order], type=pa.int64()),
            "score_q": pa.array(quantize_score(score[order]),
                                type=pa.int64()),
            "rank": pa.array(np.arange(1, len(order) + 1),
                             type=pa.int64()),
        })
    return run


def _classic_expr(tf: str, dl: str, df: str) -> str:
    idf = f"(1 + ln(s.n_docs / ({df} + 1.0)))"
    return f"({idf} * {idf}) * sqrt({tf}) * (1 / sqrt({dl}))"


def _classic_tfidf_sql(term: str, k: int) -> str:
    return f"""
WITH {_tok_ctes()},
tf AS (SELECT doc_id, count(*) AS tf FROM clean WHERE term = '{term}'
       GROUP BY doc_id),
dfx AS (SELECT count(DISTINCT doc_id) AS df FROM clean
        WHERE term = '{term}'),
scored AS (
  SELECT tf.doc_id AS doc_id,
         {_classic_expr('tf.tf', 'dl.dl', 'dfx.df')} AS score
  FROM tf JOIN dl USING (doc_id), stats s, dfx
)
{_sql_topk('scored', k)}
"""


def _q_multi_sim(term, k=10):
    """MultiSimilarity (core:search/similarities/MultiSimilarity.java:
    78-83): the combined score is the SUM of the sub-similarities —
    here BM25(exact64) + Classic(float64 exact dl)."""
    def run(sf_dir):
        import math

        s = _searcher(sf_dir)
        t = s.search({"type": "term", "term": term}, k=s.num_docs)
        docs = np.asarray(t["doc_id"], dtype=np.int64)
        bm25 = np.asarray(t["score"], dtype=np.float64)
        p = s._decode_term_global(term)
        pdocs, ptfs = p[0], p[1]
        # align postings arrays to the search result's doc order
        pos = np.searchsorted(pdocs, docs)
        tfs = ptfs[pos]
        _, dl, tf64 = _classic_scores64(s, docs, tfs)
        df = s.term_stats([term])[term][0]
        idf = 1.0 + math.log(s.num_docs / (df + 1.0))
        score = np.empty(len(docs), dtype=np.float64)
        for i in range(len(score)):
            score[i] = bm25[i] + (idf * idf) * math.sqrt(tf64[i]) \
                * (1.0 / math.sqrt(dl[i]))
        order = np.lexsort((docs, -score))[:k]
        return pa.table({
            "doc_id": pa.array(docs[order], type=pa.int64()),
            "score_q": pa.array(quantize_score(score[order]),
                                type=pa.int64()),
            "rank": pa.array(np.arange(1, len(order) + 1),
                             type=pa.int64()),
        })
    return run


def _multi_sim_sql(term: str, k: int) -> str:
    return f"""
WITH {_tok_ctes()},
tf AS (SELECT doc_id, count(*) AS tf FROM clean WHERE term = '{term}'
       GROUP BY doc_id),
dfx AS (SELECT count(DISTINCT doc_id) AS df FROM clean
        WHERE term = '{term}'),
scored AS (
  SELECT tf.doc_id AS doc_id,
         {_bm25_expr('tf.tf', 'dl.dl', 'dfx.df')}
         + {_classic_expr('tf.tf', 'dl.dl', 'dfx.df')} AS score
  FROM tf JOIN dl USING (doc_id), stats s, dfx
)
{_sql_topk('scored', k)}
"""


def _q_sweetspot(term, ln_min=30, ln_max=60, k=10):
    """Term query scored with SweetSpotSimilarity (misc:
    SweetSpotSimilarity.java): Classic TF-IDF with a plateau length
    norm; float64 over exact doc lengths."""
    def run(sf_dir):
        from ..search.similarity import sweetspot_scores

        s = _searcher(sf_dir)
        p = s._decode_term_global(term)
        if p is None:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "score_q": pa.array([], type=pa.int64()),
                             "rank": pa.array([], type=pa.int64())})
        docs, tfs = p[0], p[1]
        ids, dls = s._global_dl()
        dl = dls[np.searchsorted(ids, docs)]
        df = s.term_stats([term])[term][0]
        score = sweetspot_scores(tfs, dl, df, s.num_docs,
                                 ln_min=ln_min, ln_max=ln_max)
        order = np.lexsort((docs, -score))[:k]
        return pa.table({
            "doc_id": pa.array(docs[order], type=pa.int64()),
            "score_q": pa.array(quantize_score(score[order]),
                                type=pa.int64()),
            "rank": pa.array(np.arange(1, len(order) + 1),
                             type=pa.int64()),
        })
    return run


def _sweetspot_sql(term: str, ln_min: int, ln_max: int, k: int) -> str:
    idf = f"(1 + ln(s.n_docs / (dfx.df + 1.0)))"
    norm = (f"1 / sqrt(0.5 * (abs(dl.dl - {ln_min}) + abs(dl.dl - {ln_max})"
            f" - {ln_max - ln_min}) + 1.0)")
    return f"""
WITH {_tok_ctes()},
tf AS (SELECT doc_id, count(*) AS tf FROM clean WHERE term = '{term}'
       GROUP BY doc_id),
dfx AS (SELECT count(DISTINCT doc_id) AS df FROM clean
        WHERE term = '{term}'),
scored AS (
  SELECT tf.doc_id AS doc_id,
         {idf} * {idf} * sqrt(tf.tf) * ({norm}) AS score
  FROM tf JOIN dl USING (doc_id), stats s, dfx
)
{_sql_topk('scored', k)}
"""


# The DFR matrix combos exposed on the driver surface: together they
# exercise basic models P/G/Ine/D/I(F) (In is ft_dfr_inl2), after-effects
# L and B, and normalizations H1/H2/H3/Z (DFRSimilarity.java:110-114).
# BasicModelBE is pytest-covered only — the reference's own javadoc warns
# it is numerically unstable and recommends Ine instead.
_DFR_COMBOS = {
    "pl2":   dict(basic_model="p",   after_effect="l", normalization="h2"),
    "gb1":   dict(basic_model="g",   after_effect="b", normalization="h1"),
    "ineb3": dict(basic_model="ine", after_effect="b", normalization="h3"),
    "dz":    dict(basic_model="d",   after_effect="l", normalization="z"),
    "ifb2":  dict(basic_model="if",  after_effect="b", normalization="h2"),
}


def _q_dfr_matrix(term, combo, k=10):
    """Term query scored through the pluggable DFR matrix
    (core:search/similarities/DFRSimilarity.java, BasicModel*.java,
    AfterEffect*.java, Normalization*.java); float64 over exact doc
    lengths like the other similarity-family twins."""
    def run(sf_dir):
        from ..search.similarity import dfr_scores

        s = _searcher(sf_dir)
        p = s._decode_term_global(term)
        if p is None:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "score_q": pa.array([], type=pa.int64()),
                             "rank": pa.array([], type=pa.int64())})
        docs, tfs = p[0], p[1]
        ids, dls = s._global_dl()
        dl = dls[np.searchsorted(ids, docs)]
        df, ttf = s.term_stats([term])[term]
        score = dfr_scores(tfs, dl, df, ttf, s.num_docs, s.sum_dl,
                           **_DFR_COMBOS[combo])
        order = np.lexsort((docs, -score))[:k]
        return pa.table({
            "doc_id": pa.array(docs[order], type=pa.int64()),
            "score_q": pa.array(quantize_score(score[order]),
                                type=pa.int64()),
            "rank": pa.array(np.arange(1, len(order) + 1),
                             type=pa.int64()),
        })
    return run


def _dfr_matrix_sql(term: str, combo: str, k: int = 10) -> str:
    """SQL twin of :func:`_q_dfr_matrix` — every sub-expression spelled
    with the same shape/associativity as dfr_scores (log2 = ln/ln(2),
    integer stats left to DuckDB's float `/`, fractional literals only
    where float64-exact)."""
    spec = _DFR_COMBOS[combo]
    avg = "(CAST(sum_dl AS DOUBLE) / n_docs)"
    norm = spec["normalization"]
    if norm == "h1":
        tfn = f"tf * {avg} / dl"
    elif norm == "h2":
        tfn = f"tf * (ln(1 + 1.0 * {avg} / dl) / ln(2))"
    elif norm == "h3":
        tfn = ("(tf + 800.0 * ((ttf + 1) / CAST(sum_dl + 1 AS DOUBLE)))"
               " / (dl + 800.0) * 800.0")
    elif norm == "z":
        tfn = f"tf * pow({avg} / dl, CAST(0.30 AS DOUBLE))"
    else:
        tfn = "CAST(tf AS DOUBLE)"
    bm_name = spec["basic_model"]
    if bm_name == "in":
        bm = "tfn * (ln((n_docs + 1) / (df + 0.5)) / ln(2))"
    elif bm_name == "ine":
        bm = ("tfn * (ln((n_docs + 1) / "
              "((n_docs * (1 - pow((n_docs - 1) / CAST(n_docs AS DOUBLE),"
              " ttf))) + 0.5)) / ln(2))")
    elif bm_name == "if":
        bm = "tfn * (ln(1 + (n_docs + 1) / (ttf + 0.5)) / ln(2))"
    elif bm_name == "g":
        lam = "((ttf + 1) / CAST(n_docs + ttf + 1 AS DOUBLE))"
        bm = (f"(ln({lam} + 1) / ln(2))"
              f" + tfn * (ln((1 + {lam}) / {lam}) / ln(2))")
    elif bm_name == "p":
        lam = "((ttf + 1) / CAST(n_docs + 1 AS DOUBLE))"
        bm = (f"tfn * (ln(tfn / {lam}) / ln(2))"
              f" + ({lam} + 1 / (12 * tfn) - tfn) * (1 / ln(2))"
              f" + 0.5 * (ln(2 * pi() * tfn) / ln(2))")
    elif bm_name == "d":
        F = "(ttf + 1 + tfn)"
        phi = f"(tfn / {F})"
        p0 = "(1 / CAST(n_docs + 1 AS DOUBLE))"
        bm = (f"(({phi} * (ln({phi} / {p0}) / ln(2))"
              f" + (1 - {phi}) * (ln((1 - {phi}) / (1 - {p0})) / ln(2)))"
              f" * {F})"
              f" + 0.5 * (ln(1 + 2 * pi() * tfn * (1 - {phi})) / ln(2))")
    else:
        raise ValueError(f"no SQL twin for basic model {bm_name!r}")
    ae_name = spec["after_effect"]
    if ae_name == "l":
        ae = "1 / (tfn + 1)"
    else:
        ae = "(ttf + 2) / ((df + 1) * (tfn + 1))"
    return f"""
WITH {_tok_ctes()},
tf AS (SELECT doc_id, count(*) AS tf FROM clean WHERE term = '{term}'
       GROUP BY doc_id),
st AS (SELECT count(DISTINCT doc_id) AS df, count(*) AS ttf FROM clean
       WHERE term = '{term}'),
base AS (
  SELECT tf.doc_id AS doc_id, tf.tf AS tf, dl.dl AS dl,
         st.df AS df, st.ttf AS ttf, s.n_docs AS n_docs,
         s.sum_dl AS sum_dl
  FROM tf JOIN dl USING (doc_id), stats s, st
),
tfnx AS (SELECT doc_id, df, ttf, n_docs, sum_dl, {tfn} AS tfn FROM base),
scored AS (SELECT doc_id, ({bm}) * ({ae}) AS score FROM tfnx)
{_sql_topk('scored', k)}
"""


def _q_rerank(base_term, rerank_term, rerank_docs=50, weight=2.0, k=10):
    """ReRankQuery (solr:search/ReRankQParserPlugin.java:48,
    ReRankCollector): run the base query, take its top ``rerank_docs``
    by (score desc, doc asc), add weight · rerank-query score to those,
    then return the final top-k."""
    def run(sf_dir):
        s = _searcher(sf_dir)
        t = s.search({"type": "term", "term": base_term}, k=s.num_docs)
        docs = np.asarray(t["doc_id"], dtype=np.int64)
        base = np.asarray(t["score"], dtype=np.float64)
        cut = np.lexsort((docs, -base))[:rerank_docs]
        docs, base = docs[cut], base[cut]
        order0 = np.argsort(docs)
        docs, base = docs[order0], base[order0]
        d2, s2 = s.eval_node({"type": "term", "term": rerank_term})
        if len(d2):
            idx = np.clip(np.searchsorted(d2, docs), 0, len(d2) - 1)
            add = np.where(d2[idx] == docs, s2[idx], 0.0)
        else:
            add = np.zeros(len(docs))
        score = base + weight * add
        order = np.lexsort((docs, -score))[:k]
        return pa.table({
            "doc_id": pa.array(docs[order], type=pa.int64()),
            "score_q": pa.array(quantize_score(score[order]),
                                type=pa.int64()),
            "rank": pa.array(np.arange(1, len(order) + 1),
                             type=pa.int64()),
        })
    return run


def _rerank_sql(base_term: str, rerank_term: str, rerank_docs: int,
                weight: float, k: int) -> str:
    return f"""
WITH {_tok_ctes()},
tf AS (SELECT doc_id, count(*) AS tf FROM clean
       WHERE term = '{base_term}' GROUP BY doc_id),
dfx AS (SELECT count(*) AS df FROM tf),
base AS (
  SELECT tf.doc_id AS doc_id,
         {_bm25_expr('tf.tf', 'dl.dl', 'dfx.df')} AS score
  FROM tf JOIN dl USING (doc_id), dfx, stats s),
topn AS (SELECT doc_id, score FROM base
         ORDER BY score DESC, doc_id ASC LIMIT {rerank_docs}),
tf2 AS (SELECT doc_id, count(*) AS tf FROM clean
        WHERE term = '{rerank_term}' GROUP BY doc_id),
df2 AS (SELECT count(*) AS df FROM tf2),
re AS (
  SELECT tf2.doc_id AS doc_id,
         {_bm25_expr('tf2.tf', 'dl.dl', 'df2.df')} AS score
  FROM tf2 JOIN dl USING (doc_id), df2, stats s),
scored AS (
  SELECT topn.doc_id AS doc_id,
         topn.score + {weight!r} * COALESCE(re.score, 0) AS score
  FROM topn LEFT JOIN re ON re.doc_id = topn.doc_id
)
{_sql_topk('scored', k)}
"""


def _q_minimal_stem(word, k=10):
    """Term query over an EnglishMinimalStem index (en/
    EnglishMinimalStemFilter.java — the Harman S-stemmer): the query
    word is stemmed with the same chain. Unlike Porter, the S-stemmer
    is small enough to express in SQL, so this one is oracle-paired."""
    def run(sf_dir):
        from ..analysis.filters import english_minimal_stem
        from ..search.searcher import IndexSearcher

        idx = documents_index_variant(sf_dir, "mstem",
                                      english_minimal_stem)
        s = IndexSearcher(idx, mode="exact64")
        return _topk_table(s.search(
            {"type": "term", "term": english_minimal_stem(word)}, k=k))
    return run


#: EnglishMinimalStemmer.java:24 as one SQL CASE over a token column
_SSTEM_CASE = """CASE
  WHEN length({t}) < 3 OR substr({t}, length({t}), 1) <> 's' THEN {t}
  WHEN substr({t}, length({t})-1, 1) IN ('u', 's') THEN {t}
  WHEN substr({t}, length({t})-1, 1) = 'e' THEN
    CASE WHEN length({t}) > 3 AND substr({t}, length({t})-2, 1) = 'i'
              AND substr({t}, length({t})-3, 1) NOT IN ('a', 'e')
         THEN substr({t}, 1, length({t})-3) || 'y'
         WHEN substr({t}, length({t})-2, 1) IN ('i', 'a', 'o', 'e')
         THEN {t}
         ELSE substr({t}, 1, length({t})-1) END
  ELSE substr({t}, 1, length({t})-1) END"""


def _minimal_stem_sql(word: str, k: int) -> str:
    from ..analysis.filters import english_minimal_stem

    q = english_minimal_stem(word)
    stem = _SSTEM_CASE.format(t="term")
    return f"""
WITH {_tok_ctes()},
stemmed AS (SELECT doc_id, {stem} AS term FROM clean),
tf AS (SELECT doc_id, count(*) AS tf FROM stemmed WHERE term = '{q}'
       GROUP BY doc_id),
dfx AS (SELECT count(*) AS df FROM tf),
scored AS (
  SELECT tf.doc_id AS doc_id,
         {_bm25_expr('tf.tf', 'dl.dl', 'dfx.df')} AS score
  FROM tf JOIN dl USING (doc_id), dfx, stats s
)
{_sql_topk('scored', k)}
"""


def _q_edge_ngram(gram, k=10, min_gram=2, max_gram=4):
    """Term query over an edge-ngram index (ngram/EdgeNGramTokenFilter):
    the query gram matches every token it prefixes; dl/norms count the
    expanded gram stream, exactly as the post-filter indexing chain."""
    def run(sf_dir):
        from ..analysis.filters import edge_ngram_stream
        from ..search.searcher import IndexSearcher

        idx = documents_index_variant(
            sf_dir, "edge", stream_transform=edge_ngram_stream(min_gram,
                                                               max_gram))
        s = IndexSearcher(idx, mode="exact64")
        return _topk_table(s.search({"type": "term", "term": gram}, k=k))
    return run


def _edge_ngram_sql(gram: str, k: int, min_gram: int, max_gram: int) -> str:
    """Twin: tf('g') = tokens with prefix g and length >= |g|; dl = total
    gram count per doc; collection stats over the expanded stream."""
    g = len(gram)
    return f"""
WITH {_tok_ctes()},
dle AS (SELECT doc_id,
               sum(CASE WHEN length(term) >= {min_gram}
                   THEN least(length(term), {max_gram}) - {min_gram} + 1
                   ELSE 0 END) AS dl
        FROM clean GROUP BY doc_id),
statse AS (SELECT (SELECT count(*) FROM documents) AS n_docs,
                  (SELECT sum(dl) FROM dle) AS sum_dl),
tf AS (SELECT doc_id, count(*) AS tf FROM clean
       WHERE length(term) >= {g} AND substr(term, 1, {g}) = '{gram}'
       GROUP BY doc_id),
dfx AS (SELECT count(*) AS df FROM tf),
scored AS (
  SELECT tf.doc_id AS doc_id,
         {_bm25_expr('tf.tf', 'dle.dl', 'dfx.df', 's.n_docs', 's.sum_dl')}
           AS score
  FROM tf JOIN dle USING (doc_id), dfx, statse s
)
{_sql_topk('scored', k)}
"""


def _q_shingle(t1, t2, k=10):
    """Term query for the 2-shingle "<t1> <t2>" over a shingle index
    (shingle/ShingleFilter, outputUnigrams=true) built WITHOUT stopwords
    so positional adjacency has no gaps (see shingle_stream docstring)."""
    def run(sf_dir):
        from ..analysis.filters import shingle_stream
        from ..search.searcher import IndexSearcher

        idx = documents_index_variant(
            sf_dir, "shingle", stream_transform=shingle_stream(),
            stopwords=frozenset())
        s = IndexSearcher(idx, mode="exact64")
        return _topk_table(s.search(
            {"type": "term", "term": f"{t1} {t2}"}, k=k))
    return run


def _shingle_sql(t1: str, t2: str, k: int) -> str:
    """Twin over the no-stopword stream: dl = unigrams + adjacent pairs;
    tf = count of (t1, t2) adjacent pairs."""
    return f"""
WITH {_tok_ctes()},
cnt AS (SELECT doc_id, count(*) AS n FROM tok GROUP BY doc_id),
dle AS (SELECT doc_id, n + CASE WHEN n > 0 THEN n - 1 ELSE 0 END AS dl
        FROM cnt),
statse AS (SELECT (SELECT count(*) FROM documents) AS n_docs,
                  (SELECT sum(dl) FROM dle) AS sum_dl),
tf AS (SELECT a.doc_id, count(*) AS tf
       FROM tok a JOIN tok b
         ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
       WHERE a.term = '{t1}' AND b.term = '{t2}'
       GROUP BY a.doc_id),
dfx AS (SELECT count(*) AS df FROM tf),
scored AS (
  SELECT tf.doc_id AS doc_id,
         {_bm25_expr('tf.tf', 'dle.dl', 'dfx.df', 's.n_docs', 's.sum_dl')}
           AS score
  FROM tf JOIN dle USING (doc_id), dfx, statse s
)
{_sql_topk('scored', k)}
"""


def _synonym_term_sql(term: str, k: int) -> str:
    """Twin: the synonym map applied as a CASE rewrite inside the token
    CTE, then the ordinary one-term BM25."""
    cases = " ".join(f"WHEN term = '{a}' THEN '{b}'"
                     for a, b in SYNONYMS.items())
    return f"""
WITH {_tok_ctes()},
syn AS (SELECT doc_id, CASE {cases} ELSE term END AS term, pos
        FROM clean),
tf AS (SELECT doc_id, count(*) AS tf FROM syn WHERE term = '{term}'
       GROUP BY doc_id),
dfx AS (SELECT count(*) AS df FROM tf),
scored AS (
  SELECT tf.doc_id AS doc_id,
         {_bm25_expr('tf.tf', 'dl.dl', 'dfx.df')} AS score
  FROM tf JOIN dl USING (doc_id), dfx, stats s
)
{_sql_topk('scored', k)}
"""


def _stemmed_term_sql(word: str, k: int) -> str:
    """Twin: the FULL Porter stemmer expressed as generated DuckDB SQL
    (analysis/porter_sql.py) applied to the distinct vocabulary of the
    token stream — including the query word itself, so the SQL side
    stems both corpus and query with zero Python help — then the
    ordinary one-term BM25 over the stemmed stream (doc lengths are
    unchanged: the stemmer is a 1:1 term transform)."""
    from ..analysis.porter_sql import porter_ctes

    return f"""
WITH {_tok_ctes()},
vocab AS (SELECT DISTINCT term FROM clean UNION SELECT '{word}'),
{porter_ctes('vocab')},
stemmed AS (SELECT c.doc_id, s.stem AS term, c.pos
            FROM clean c JOIN stems s USING (term)),
tf AS (SELECT doc_id, count(*) AS tf FROM stemmed
       WHERE term = (SELECT stem FROM stems WHERE term = '{word}')
       GROUP BY doc_id),
dfx AS (SELECT count(*) AS df FROM tf),
scored AS (
  SELECT tf.doc_id AS doc_id,
         {_bm25_expr('tf.tf', 'dl.dl', 'dfx.df')} AS score
  FROM tf JOIN dl USING (doc_id), dfx, stats s
)
{_sql_topk('scored', k)}
"""


def _snowball_term_sql(word: str, k: int) -> str:
    """Twin: the full Snowball-English (Porter2) stemmer in generated
    DuckDB SQL (analysis/snowball_sql.py) — y-marking, R1/R2 regions,
    exceptional forms, short-syllable rule — applied to the distinct
    vocabulary plus the query word, then the one-term BM25."""
    from ..analysis.snowball_sql import snowball_ctes

    return f"""
WITH {_tok_ctes()},
vocab AS (SELECT DISTINCT term FROM clean UNION SELECT '{word}'),
{snowball_ctes('vocab')},
stemmed AS (SELECT c.doc_id, s.stem AS term, c.pos
            FROM clean c JOIN stems s USING (term)),
tf AS (SELECT doc_id, count(*) AS tf FROM stemmed
       WHERE term = (SELECT stem FROM stems WHERE term = '{word}')
       GROUP BY doc_id),
dfx AS (SELECT count(*) AS df FROM tf),
scored AS (
  SELECT tf.doc_id AS doc_id,
         {_bm25_expr('tf.tf', 'dl.dl', 'dfx.df')} AS score
  FROM tf JOIN dl USING (doc_id), dfx, stats s
)
{_sql_topk('scored', k)}
"""


def _kstem_term_sql(word: str, k: int) -> str:
    """Twin: KStem with the corpus-term-dictionary lexicon in generated
    DuckDB SQL (analysis/kstem_sql.py). The lexicon the engine builds
    via kstem.lexicon_from_index IS the distinct post-stop vocabulary,
    so in SQL it's one CTE; corpus terms stem to themselves (real words
    are never modified) and the query word runs the candidate cascade
    against the same lexicon."""
    from ..analysis.kstem_sql import kstem_ctes

    return f"""
WITH {_tok_ctes()},
klex AS (SELECT DISTINCT term FROM clean),
kwords AS (SELECT term FROM klex UNION SELECT '{word}'),
{kstem_ctes('kwords', 'klex')},
stemmed AS (SELECT c.doc_id, s.stem AS term, c.pos
            FROM clean c JOIN kstems s USING (term)),
tf AS (SELECT doc_id, count(*) AS tf FROM stemmed
       WHERE term = (SELECT stem FROM kstems WHERE term = '{word}')
       GROUP BY doc_id),
dfx AS (SELECT count(*) AS df FROM tf),
scored AS (
  SELECT tf.doc_id AS doc_id,
         {_bm25_expr('tf.tf', 'dl.dl', 'dfx.df')} AS score
  FROM tf JOIN dl USING (doc_id), dfx, stats s
)
{_sql_topk('scored', k)}
"""


def _phonetic_term_sql(word: str, k: int) -> str:
    """Twin: Double Metaphone (primary code) as a generated WITH
    RECURSIVE walk over character positions (analysis/metaphone_sql.py)
    applied to the distinct vocabulary plus the query word — the SQL
    side encodes corpus and query with zero Python help — then the
    ordinary one-term BM25 over the code stream (the filter is a 1:1
    term transform, so doc lengths are unchanged; an empty code keeps
    the term, matching double_metaphone_transform)."""
    from ..analysis.metaphone_sql import metaphone_ctes

    return f"""
WITH RECURSIVE {_tok_ctes()},
mwords AS (SELECT DISTINCT term FROM clean UNION SELECT '{word}'),
{metaphone_ctes('mwords')},
coded AS (SELECT c.doc_id, m.code AS term, c.pos
          FROM clean c JOIN mcodes m USING (term)),
tf AS (SELECT doc_id, count(*) AS tf FROM coded
       WHERE term = (SELECT code FROM mcodes WHERE term = '{word}')
       GROUP BY doc_id),
dfx AS (SELECT count(*) AS df FROM tf),
scored AS (
  SELECT tf.doc_id AS doc_id,
         {_bm25_expr('tf.tf', 'dl.dl', 'dfx.df')} AS score
  FROM tf JOIN dl USING (doc_id), dfx, stats s
)
{_sql_topk('scored', k)}
"""


def _wd_index(sf_dir: str) -> str:
    """Index over ``text || ' ' || source`` with WordDelimiterFilter
    (miscellaneous/WordDelimiterFilter.java): the srcNN source tags are
    the corpus's only mixed alnum tokens, so appending them to the text
    stream exercises real letter↔digit splitting."""
    from ..analysis.filters import word_delimiter_stream
    from ..index.build import build_index
    from ..index.manifest import load_manifest

    key = hashlib.sha256(
        f"{sf_dir}|wd|v{FORMAT_VERSION}".encode()).hexdigest()[:12]
    out = os.path.join(INDEX_CACHE_ROOT, f"docs-wd-{key}")
    if out in _memo:
        return out
    try:
        load_manifest(out)
        _memo[out] = out
        return out
    except FileNotFoundError:
        pass
    except ValueError:
        import shutil

        shutil.rmtree(out, ignore_errors=True)
    import pyarrow.compute as pc
    import ray.data as rd

    def combine(b: pa.Table) -> pa.Table:
        wd = pc.binary_join_element_wise(b["text"], b["source"], " ")
        return pa.table({"doc_id": b["doc_id"], "wd_text": wd})

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text", "source"])
    ds = ds.map_batches(combine, batch_format="pyarrow")
    build_index(ds, out, content_col="wd_text", batch_rows=256,
                stream_transform=word_delimiter_stream())
    _memo[out] = out
    return out


def _q_word_delimiter(term, k=10):
    """Term query over the WordDelimiterFilter index: number/word parts
    of mixed tokens are independently searchable ("13" hits src13)."""
    def run(sf_dir):
        from ..search.searcher import IndexSearcher

        s = IndexSearcher(_wd_index(sf_dir), mode="exact64")
        return _topk_table(s.search({"type": "term", "term": term}, k=k))
    return run


def _word_delimiter_sql(term: str, k: int) -> str:
    """Twin: tokenize ``text || ' ' || source``, stop-filter the ORIGINAL
    tokens (parts never reintroduce a stopword), then explode each token
    into its letter/digit runs; dl and collection stats count the
    exploded stream."""
    return f"""
WITH {_tok_ctes(text_col="text || ' ' || source")},
parts AS (SELECT doc_id,
                 unnest(regexp_extract_all(term, '[a-z]+|[0-9]+'))
                   AS part
          FROM clean),
dle AS (SELECT doc_id, count(*) AS dl FROM parts GROUP BY doc_id),
statse AS (SELECT (SELECT count(*) FROM documents) AS n_docs,
                  (SELECT count(*) FROM parts) AS sum_dl),
tf AS (SELECT doc_id, count(*) AS tf FROM parts WHERE part = '{term}'
       GROUP BY doc_id),
dfx AS (SELECT count(*) AS df FROM tf),
scored AS (
  SELECT tf.doc_id AS doc_id,
         {_bm25_expr('tf.tf', 'dle.dl', 'dfx.df', 's.n_docs', 's.sum_dl')}
           AS score
  FROM tf JOIN dle USING (doc_id), dfx, statse s
)
{_sql_topk('scored', k)}
"""


def _q_spellcheck(word, n=5):
    def run(sf_dir):
        return _searcher(sf_dir).spellcheck(word, n=n)
    return run


def _spellcheck_sql(word: str, max_edits: int, n: int) -> str:
    return f"""
WITH {_tok_ctes()},
cand AS (SELECT term, count(DISTINCT doc_id) AS df FROM clean
         GROUP BY term),
scored AS (SELECT term AS suggestion,
                  levenshtein(term, '{word}') AS dist, df
           FROM cand
           WHERE levenshtein(term, '{word}') <= {max_edits}
             AND term <> '{word}')
SELECT suggestion, CAST(dist AS BIGINT) AS dist, CAST(df AS BIGINT) AS df
FROM scored ORDER BY dist ASC, df DESC, suggestion ASC LIMIT {n}
"""


# ---------------------------------------------------------------------------
# numeric doc values: range filter + sort-by-field
# ---------------------------------------------------------------------------

def _q_numeric_range(field, lo, hi, k=10):
    """NumericRangeQuery over a numeric doc-values column
    (core:search/NumericRangeQuery.java:167, constant-score rewrite)."""
    def run(sf_dir):
        return _topk_table(_searcher(sf_dir).search(
            {"type": "numeric_range", "field": field, "lo": lo, "hi": hi},
            k=k))
    return run


def _q_numeric_range_bkd(field, lo, hi, k=10):
    """ft_numeric_range served from a 1-D BKD point layout
    (index/bkd.bkd_write_1d — core:util/bkd/BKDWriter.java's
    dimensional-points direction): leaf-pruned reads + exact filter,
    bit-identical to the doc-values path and sharing its oracle. The
    layout builds once per corpus (cached like the fulltext index);
    the pruning ratio is asserted so the entry actually exercises the
    skip machinery."""
    def run(sf_dir):
        import ray.data as rd

        from ..index.bkd import bkd_query_range, bkd_write_1d, load_index

        key = hashlib.sha256(
            f"{sf_dir}|bkd1d-{field}|v{FORMAT_VERSION}".encode()) \
            .hexdigest()[:12]
        out = os.path.join(INDEX_CACHE_ROOT, f"bkd1d-{key}")
        try:
            idx = load_index(out)
        except FileNotFoundError:
            ds = rd.read_parquet(
                os.path.join(sf_dir, "documents.parquet"),
                columns=["doc_id", field])
            idx = bkd_write_1d(ds, out, col=field, leaf_points=64)
        res, n_read, n_total = bkd_query_range(idx, lo, hi,
                                               columns=["doc_id", field])
        assert n_total > 1 and n_read < n_total, \
            (n_read, n_total)  # the range must actually prune leaves
        docs = np.sort(res.to_pandas()["doc_id"].to_numpy(np.int64))[:k]
        return pa.table({
            "doc_id": pa.array(docs, type=pa.int64()),
            "score_q": pa.array(np.full(len(docs), 10000, np.int64)),
            "rank": pa.array(np.arange(1, len(docs) + 1,
                                       dtype=np.int64)),
        })
    return run


def _q_sort_by_field(term, field, k=10, descending=True):
    """Sort/TopFieldCollector: matches of a term query ranked by a
    numeric doc value (core:search/SortField.java:38-89)."""
    def run(sf_dir):
        return _searcher(sf_dir).search_sort_by_field(
            {"type": "term", "term": term}, field, k=k,
            descending=descending)
    return run


def _numeric_range_sql(field: str, lo, hi, k: int) -> str:
    return f"""
SELECT doc_id, CAST(10000 AS BIGINT) AS score_q,
       CAST(row_number() OVER (ORDER BY doc_id ASC) AS BIGINT) AS rank
FROM documents
WHERE {field} >= {lo} AND {field} <= {hi}
ORDER BY doc_id ASC LIMIT {k}
"""


def _sort_by_field_sql(term: str, field: str, k: int) -> str:
    return f"""
WITH {_tok_ctes()},
matched AS (SELECT DISTINCT doc_id FROM clean WHERE term = '{term}')
SELECT d.doc_id, d.{field} AS {field},
       CAST(row_number() OVER (ORDER BY d.{field} DESC, d.doc_id ASC)
            AS BIGINT) AS rank
FROM matched JOIN documents d USING (doc_id)
ORDER BY d.{field} DESC, d.doc_id ASC LIMIT {k}
"""


def _sketch_hll(sf_dir: str) -> pa.Table:
    """HLL cardinality of events.user_id (solr HLLAgg; partial register
    sketches merged element-wise — see ops.sketches)."""
    from ..ops.sketches import hll_count_distinct

    return hll_count_distinct(sf_dir, "events", "user_id")


def _q_dih_full_import(sf_dir: str) -> pa.Table:
    """DataImportHandler full-import (solr/contrib/dataimporthandler,
    DocBuilder.doFullDump) from a DuckDB source database: stage the
    documents table into a .duckdb file, run the partitioned
    SqlEntityProcessor scan (range predicates on doc_id, every task a
    read-only Arrow fetch), then roll the imported Dataset up per lang
    — row-exactness of the import is what the oracle checks."""
    import os

    import duckdb

    from ..dataimport import SqlEntity, read_sql_entity

    db = os.path.join("/tmp", "dih_src_" +
                      os.path.basename(os.path.normpath(sf_dir)) + ".duckdb")
    if os.path.exists(db):
        os.remove(db)
    con = duckdb.connect(db)
    src = os.path.join(sf_dir, "documents.parquet")
    con.execute("CREATE TABLE docs AS SELECT doc_id, lang, source, n_chars "
                f"FROM read_parquet('{src}')")
    con.close()
    ent = SqlEntity(query="SELECT * FROM docs", pk="doc_id")
    ds = read_sql_entity(db, ent, partition_col="doc_id", num_partitions=8)
    from ray.data.aggregate import Count, Sum

    df = ds.groupby("lang").aggregate(Count(), Sum("n_chars")).to_pandas()
    df = df.rename(columns={"count()": "cnt", "sum(n_chars)": "chars"})
    df["cnt"] = df["cnt"].astype("int64")
    df["chars"] = df["chars"].astype("int64")
    return pa.Table.from_pandas(
        df.sort_values("lang").reset_index(drop=True), preserve_index=False)


DIH_FULL_IMPORT_SQL = """
SELECT lang, COUNT(*) AS cnt, SUM(n_chars) AS chars
FROM documents GROUP BY lang ORDER BY lang
"""


def _q_tika_pdf_roundtrip(sf_dir: str) -> pa.Table:
    """Tika/ExtractingRequestHandler over PDFs (solr/contrib/extraction;
    PDFBox delegate role): every documents.text row is rendered as a
    real Flate-compressed PDF inside the first map_batches stage
    (worker-side synthesis — doc_id rides in the /Info /Title), then
    ops.extract.extract_batch parses the binaries back with the native
    ISO-32000 parser in ops.pdf. The oracle asserts the text survives
    the PDF container byte-for-byte (the corpus has no runs of
    whitespace, so the extractor's normalization is the identity).
    The final to_pandas collects the RESULT TABLE because the driver
    contract compares it; a production run of this pipeline ends in
    write_parquet instead and never materializes on the driver."""
    import ray.data as rd

    from ..ops.extract import extract_batch

    def synth(batch: pa.Table) -> pa.Table:
        import zlib

        from ..util import tune_allocator

        tune_allocator()
        paths, blobs = [], []
        for did, txt in zip(batch["doc_id"].to_pylist(),
                            batch["text"].to_pylist()):
            body = (txt or "").encode("latin-1", "replace") \
                .replace(b"\\", b"\\\\").replace(b"(", b"\\(") \
                .replace(b")", b"\\)")
            content = zlib.compress(b"BT 36 770 Td (" + body + b") Tj ET")
            objs = (
                (1, b"<< /Type /Catalog /Pages 2 0 R >>"),
                (2, b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>"),
                (3, b"<< /Type /Page /Parent 2 0 R /Contents 4 0 R >>"),
                (4, b"<< /Filter /FlateDecode /Length %d >>\nstream\n"
                    % len(content) + content + b"\nendstream"),
                (5, b"<< /Title (%d) >>" % did),
            )
            pdf = b"%PDF-1.4\n" + b"".join(
                b"%d 0 obj\n%s\nendobj\n" % (n, ob) for n, ob in objs
            ) + b"trailer\n<< /Root 1 0 R /Info 5 0 R >>\n%%EOF\n"
            paths.append(f"{did}.pdf")
            blobs.append(pdf)
        return pa.table({"path": pa.array(paths, pa.string()),
                         "bytes": pa.array(blobs, pa.large_binary())})

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    out = (docs
           .map_batches(synth, batch_format="pyarrow")
           .map_batches(lambda t: extract_batch(t, on_error="raise"),
                        batch_format="pyarrow")
           .map_batches(lambda t: pa.table({
               "doc_id": pc.cast(t["title"], pa.int64()),
               "content": pc.cast(t["content"], pa.string())}),
               batch_format="pyarrow"))
    df = out.to_pandas()
    return pa.Table.from_pandas(
        df.sort_values("doc_id").reset_index(drop=True),
        preserve_index=False)


TIKA_PDF_ROUNDTRIP_SQL = """
SELECT doc_id, text AS content FROM documents ORDER BY doc_id
"""


def _q_tika_pdf_aes256_roundtrip(sf_dir: str) -> pa.Table:
    """AES-256 (V5 R6, ISO 32000-2) flavor of the encrypted PDF
    round-trip: hardened-hash /U validation and /UE key unwrap computed
    ONCE on the driver; each worker-synthesized PDF encrypts its
    content stream and /Info title with the file key (/AESV3 — no
    per-object keys in V5). Same byte-exactness oracle."""
    import ray.data as rd

    from ..ops.extract import extract_batch
    from ..ops.pdf import encrypt_object_bytes, make_standard_crypt_v5

    crypt = make_standard_crypt_v5(r=6)
    key = crypt["key"]
    hexes = {k: crypt[k].hex() for k in ("O", "U", "OE", "UE")}

    def synth(batch: pa.Table) -> pa.Table:
        import zlib

        from ..util import tune_allocator

        tune_allocator()
        enc_dict = (
            b"<< /Filter /Standard /V 5 /R 6 /Length 256 /P -3904"
            b" /O <" + hexes["O"].encode() + b"> /U <"
            + hexes["U"].encode() + b"> /OE <" + hexes["OE"].encode()
            + b"> /UE <" + hexes["UE"].encode() + b">"
            b" /CF << /StdCF << /CFM /AESV3 /AuthEvent /DocOpen"
            b" /Length 32 >> >> /StmF /StdCF /StrF /StdCF >>")
        paths, blobs = [], []
        for did, txt in zip(batch["doc_id"].to_pylist(),
                            batch["text"].to_pylist()):
            body = (txt or "").encode("latin-1", "replace")                 .replace(b"\\", b"\\\\").replace(b"(", b"\\(")                 .replace(b")", b"\\)")
            content = encrypt_object_bytes(
                key, 4, 0,
                zlib.compress(b"BT 36 770 Td (" + body + b") Tj ET"),
                "AESV3")
            title = encrypt_object_bytes(key, 5, 0, b"%d" % did,
                                         "AESV3")
            objs = (
                (1, b"<< /Type /Catalog /Pages 2 0 R >>"),
                (2, b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>"),
                (3, b"<< /Type /Page /Parent 2 0 R /Contents 4 0 R >>"),
                (4, b"<< /Filter /FlateDecode /Length %d >>\nstream\n"
                    % len(content) + content + b"\nendstream"),
                (5, b"<< /Title <" + title.hex().encode() + b"> >>"),
                (6, enc_dict),
            )
            pdf = b"%PDF-2.0\n" + b"".join(
                b"%d 0 obj\n%s\nendobj\n" % (n, ob) for n, ob in objs
            ) + (b"trailer\n<< /Root 1 0 R /Info 5 0 R"
                 b" /Encrypt 6 0 R >>\n%%EOF\n")
            paths.append(f"{did}.pdf")
            blobs.append(pdf)
        return pa.table({"path": pa.array(paths, pa.string()),
                         "bytes": pa.array(blobs, pa.large_binary())})

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    out = (docs
           .map_batches(synth, batch_format="pyarrow")
           .map_batches(lambda t: extract_batch(t, on_error="raise"),
                        batch_format="pyarrow")
           .map_batches(lambda t: pa.table({
               "doc_id": pc.cast(t["title"], pa.int64()),
               "content": pc.cast(t["content"], pa.string())}),
               batch_format="pyarrow"))
    df = out.to_pandas()
    return pa.Table.from_pandas(
        df.sort_values("doc_id").reset_index(drop=True),
        preserve_index=False)


def _q_tika_pdf_encrypted_roundtrip(sf_dir: str) -> pa.Table:
    """Encrypted flavor of the PDF extraction round-trip: every
    documents.text row renders as a standard-security-handler PDF
    (ISO 32000-1 §7.6, RC4 V2/R3, EMPTY user password — the common
    crawler case) inside the synth stage; ops.pdf decrypts with the
    derived file key and per-object keys, and the same byte-exactness
    oracle applies. The /Encrypt parameters are computed once on the
    driver (a few constant bytes) and captured by the stage closure."""
    import ray.data as rd

    from ..ops.extract import extract_batch
    from ..ops.pdf import encrypt_object_bytes, make_standard_crypt

    id0 = b"\x13\x57fixture-id\x9b\xdf"
    crypt = make_standard_crypt(r=3, v=2, length_bits=128, id0=id0)
    key, o_hex, u_hex = crypt["key"], crypt["O"].hex(), crypt["U"].hex()

    def synth(batch: pa.Table) -> pa.Table:
        import zlib

        from ..util import tune_allocator

        tune_allocator()
        enc_dict = (
            b"<< /Filter /Standard /V 2 /R 3 /Length 128 /P -3904"
            b" /O <" + o_hex.encode() + b"> /U <" + u_hex.encode()
            + b"> >>")
        paths, blobs = [], []
        for did, txt in zip(batch["doc_id"].to_pylist(),
                            batch["text"].to_pylist()):
            body = (txt or "").encode("latin-1", "replace") \
                .replace(b"\\", b"\\\\").replace(b"(", b"\\(") \
                .replace(b")", b"\\)")
            content = encrypt_object_bytes(
                key, 4, 0,
                zlib.compress(b"BT 36 770 Td (" + body + b") Tj ET"),
                "V2")
            title = encrypt_object_bytes(key, 5, 0,
                                         b"%d" % did, "V2")
            objs = (
                (1, b"<< /Type /Catalog /Pages 2 0 R >>"),
                (2, b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>"),
                (3, b"<< /Type /Page /Parent 2 0 R /Contents 4 0 R >>"),
                (4, b"<< /Filter /FlateDecode /Length %d >>\nstream\n"
                    % len(content) + content + b"\nendstream"),
                (5, b"<< /Title <" + title.hex().encode() + b"> >>"),
                (6, enc_dict),
            )
            pdf = b"%PDF-1.4\n" + b"".join(
                b"%d 0 obj\n%s\nendobj\n" % (n, ob) for n, ob in objs
            ) + (b"trailer\n<< /Root 1 0 R /Info 5 0 R /Encrypt 6 0 R"
                 b" /ID [<" + id0.hex().encode() + b"> <"
                 + id0.hex().encode() + b">] >>\n%%EOF\n")
            paths.append(f"{did}.pdf")
            blobs.append(pdf)
        return pa.table({"path": pa.array(paths, pa.string()),
                         "bytes": pa.array(blobs, pa.large_binary())})

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    out = (docs
           .map_batches(synth, batch_format="pyarrow")
           .map_batches(lambda t: extract_batch(t, on_error="raise"),
                        batch_format="pyarrow")
           .map_batches(lambda t: pa.table({
               "doc_id": pc.cast(t["title"], pa.int64()),
               "content": pc.cast(t["content"], pa.string())}),
               batch_format="pyarrow"))
    df = out.to_pandas()
    return pa.Table.from_pandas(
        df.sort_values("doc_id").reset_index(drop=True),
        preserve_index=False)


def _q_tika_docx_roundtrip(sf_dir: str) -> pa.Table:
    """OOXML flavor of the extraction round-trip: every documents.text
    row rendered as a real docx (stdlib zipfile; doc_id in
    docProps/core.xml dc:title) inside map_batches, parsed back by the
    zip-container extractor. Same byte-exactness oracle."""
    import ray.data as rd

    from ..ops.extract import extract_batch

    def synth(batch: pa.Table) -> pa.Table:
        import io
        import zipfile
        from xml.sax.saxutils import escape

        from ..util import tune_allocator

        tune_allocator()
        paths, blobs = [], []
        for did, txt in zip(batch["doc_id"].to_pylist(),
                            batch["text"].to_pylist()):
            buf = io.BytesIO()
            with zipfile.ZipFile(buf, "w",
                                 zipfile.ZIP_DEFLATED) as zf:
                zf.writestr(
                    "word/document.xml",
                    '<w:document xmlns:w="u"><w:body><w:p><w:r>'
                    '<w:t xml:space="preserve">'
                    + escape(txt or "")
                    + "</w:t></w:r></w:p></w:body></w:document>")
                zf.writestr(
                    "docProps/core.xml",
                    '<cp:coreProperties xmlns:cp="c" xmlns:dc="d">'
                    f"<dc:title>{did}</dc:title></cp:coreProperties>")
            paths.append(f"{did}.docx")
            blobs.append(buf.getvalue())
        return pa.table({"path": pa.array(paths, pa.string()),
                         "bytes": pa.array(blobs, pa.large_binary())})

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    out = (docs
           .map_batches(synth, batch_format="pyarrow")
           .map_batches(lambda t: extract_batch(t, on_error="raise"),
                        batch_format="pyarrow")
           .map_batches(lambda t: pa.table({
               "doc_id": pc.cast(t["title"], pa.int64()),
               "content": pc.cast(t["content"], pa.string())}),
               batch_format="pyarrow"))
    df = out.to_pandas()
    return pa.Table.from_pandas(
        df.sort_values("doc_id").reset_index(drop=True),
        preserve_index=False)


def _q_tika_media_extract(sf_dir: str) -> pa.Table:
    """Embedded-media extraction end-to-end (the Tika
    EmbeddedDocumentExtractor role — the media analogue of the PDF text
    round-trip): every documents.text row is rendered inside the first
    map_batches stage as a PDF whose single page carries a
    Flate-compressed 16-wide /DeviceGray Image XObject of the text's
    ASCII bytes (space-padded to the last row);
    ops.extract.extract_media_dataset (actor-pool MediaExtractStage →
    ops.pdf.pdf_images) pulls the raster back out as interleaved rgb8,
    and a final stage reduces every image to integer features: width,
    height, and the red-channel pixel sum (== the gray byte sum, since
    gray replicates to RGB). The oracle recomputes all three integers
    from the text alone — byte-exact extraction is the only way the
    sums can match."""
    import ray.data as rd

    from ..ops.extract import extract_media_dataset

    W = 16

    def synth(batch: pa.Table) -> pa.Table:
        import zlib

        from ..util import tune_allocator

        tune_allocator()
        ids, blobs = [], []
        for did, txt in zip(batch["doc_id"].to_pylist(),
                            batch["text"].to_pylist()):
            raw = (txt or "").encode("latin-1", "replace")
            h = max(1, -(-len(raw) // W))
            raw = raw + b" " * (W * h - len(raw))
            content = zlib.compress(raw)
            objs = (
                (1, b"<< /Type /Catalog /Pages 2 0 R >>"),
                (2, b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>"),
                (3, b"<< /Type /Page /Parent 2 0 R /Resources "
                    b"<< /XObject << /Im0 4 0 R >> >> >>"),
                (4, b"<< /Subtype /Image /Width %d /Height %d "
                    b"/ColorSpace /DeviceGray /BitsPerComponent 8 "
                    b"/Filter /FlateDecode /Length %d >>\nstream\n"
                    % (W, h, len(content)) + content + b"\nendstream"),
            )
            pdf = b"%PDF-1.4\n" + b"".join(
                b"%d 0 obj\n%s\nendobj\n" % (n, ob) for n, ob in objs
            ) + b"trailer\n<< /Root 1 0 R >>\n%%EOF\n"
            ids.append(did)
            blobs.append(pdf)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "payload": pa.array(blobs, pa.large_binary())})

    def feats(batch: pa.Table) -> pa.Table:
        sums = [int(np.frombuffer(p, np.uint8)[0::3].sum(dtype=np.int64))
                for p in batch["payload"].to_pylist()]
        return pa.table({
            "doc_id": pc.cast(batch["item_id"], pa.int64()),
            "img_w": pc.cast(batch["width"], pa.int64()),
            "img_h": pc.cast(batch["height"], pa.int64()),
            "px_sum": pa.array(sums, pa.int64()),
        })

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    media = extract_media_dataset(
        docs.map_batches(synth, batch_format="pyarrow"),
        id_col="doc_id", payload_col="payload")
    df = media.map_batches(feats, batch_format="pyarrow").to_pandas()
    return pa.Table.from_pandas(
        df.sort_values("doc_id").reset_index(drop=True),
        preserve_index=False)


TIKA_MEDIA_EXTRACT_SQL = """
WITH s AS (
  SELECT d.doc_id, length(d.text) AS n, coalesce(c.tsum, 0) AS tsum
  FROM documents d LEFT JOIN (
    SELECT doc_id, sum(ord(substring(text, i, 1))) AS tsum
    FROM (SELECT doc_id, text,
                 unnest(range(1, length(text) + 1)) AS i
          FROM documents)
    GROUP BY doc_id) c USING (doc_id)
)
SELECT doc_id, CAST(16 AS BIGINT) AS img_w,
       CAST(greatest(1, (n + 15) // 16) AS BIGINT) AS img_h,
       CAST(tsum + 32 * (16 * greatest(1, (n + 15) // 16) - n)
            AS BIGINT) AS px_sum
FROM s ORDER BY doc_id
"""


def _q_video_frame_sample(sf_dir: str) -> pa.Table:
    """VideoFrameSampleStage end-to-end over worker-synthesized AVIs
    (the sample-before-decode plan that matters at 100 TB): every
    documents.text row becomes a 3-frame DIB AVI whose frame ``k``
    grays each ASCII byte ``b`` to ``(b + 17k) mod 256`` (space-padded
    16-wide raster, same shape as the media-extract twin); the stage
    parses the container index, decodes ONLY the every-2nd sampled
    frames (k = 0, 2) to rgb8, and a final stage reduces each sampled
    frame to its red-channel pixel sum. The oracle recomputes the sums
    from the text alone."""
    import ray.data as rd

    from ..ops.multimodal import VideoFrameSampleStage

    W, N_FRAMES = 16, 3

    def synth(batch: pa.Table) -> pa.Table:
        import struct

        from ..util import tune_allocator

        tune_allocator()

        def chunk(fourcc: bytes, body: bytes) -> bytes:
            pad = b"\x00" if len(body) % 2 else b""
            return fourcc + struct.pack("<I", len(body)) + body + pad

        def lst(ltype: bytes, body: bytes) -> bytes:
            return chunk(b"LIST", ltype + body)

        ids, blobs = [], []
        for did, txt in zip(batch["doc_id"].to_pylist(),
                            batch["text"].to_pylist()):
            raw = (txt or "").encode("latin-1", "replace")
            h = max(1, -(-len(raw) // W))
            base = np.frombuffer(raw + b" " * (W * h - len(raw)),
                                 np.uint8).reshape(h, W)
            frames = []
            for k in range(N_FRAMES):
                g = (base.astype(np.uint16) + 17 * k).astype(np.uint8)
                # bottom-up BGR rows; stride W*3 = 48 is 4-aligned
                bgr = np.repeat(g[::-1, :, None], 3, axis=2)
                frames.append(chunk(b"00db", bgr.tobytes()))
            avih = struct.pack("<14I", 40000, 0, 0, 0, N_FRAMES, 0, 1,
                               0, W, h, 0, 0, 0, 0)
            strh = (b"vids" + b"DIB " + struct.pack("<IHHIIIIIIIII",
                    0, 0, 0, 0, 1, 25, 0, N_FRAMES, 0, 0, 0, 0))
            strf = struct.pack("<IiiHHIIiiII", 40, W, h, 1, 24, 0,
                               W * h * 3, 0, 0, 0, 0)
            hdrl = lst(b"hdrl", chunk(b"avih", avih)
                       + lst(b"strl", chunk(b"strh", strh)
                             + chunk(b"strf", strf)))
            movi = lst(b"movi", b"".join(frames))
            body = b"AVI " + hdrl + movi
            ids.append(did)
            blobs.append(b"RIFF" + struct.pack("<I", len(body)) + body)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "bytes": pa.array(blobs, pa.large_binary())})

    def feats(batch: pa.Table) -> pa.Table:
        sums = [int(np.frombuffer(p, np.uint8)[0::3].sum(dtype=np.int64))
                for p in batch["frame_rgb8"].to_pylist()]
        return pa.table({
            "doc_id": batch["doc_id"],
            "frame_idx": batch["frame_idx"],
            "n_frames": batch["n_frames"],
            "img_w": batch["width"],
            "img_h": batch["height"],
            "px_sum": pa.array(sums, pa.int64()),
        })

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    out = (docs.map_batches(synth, batch_format="pyarrow")
           .map_batches(VideoFrameSampleStage, batch_format="pyarrow",
                        batch_size=16, concurrency=(1, 4),
                        fn_constructor_kwargs={"every": 2, "count": None})
           .map_batches(feats, batch_format="pyarrow"))
    df = out.to_pandas()
    return pa.Table.from_pandas(
        df.sort_values(["doc_id", "frame_idx"]).reset_index(drop=True),
        preserve_index=False)


VIDEO_FRAME_SAMPLE_SQL = """
WITH s AS (
  SELECT d.doc_id, length(d.text) AS n, k.k,
         coalesce(c.tsum, 0) AS tsum
  FROM documents d
  CROSS JOIN (VALUES (0), (2)) AS k(k)
  LEFT JOIN (
    SELECT doc_id, k.k,
           sum((ord(substring(text, i, 1)) + 17 * k.k) % 256) AS tsum
    FROM (SELECT doc_id, text,
                 unnest(range(1, length(text) + 1)) AS i
          FROM documents)
    CROSS JOIN (VALUES (0), (2)) AS k(k)
    GROUP BY doc_id, k.k) c ON c.doc_id = d.doc_id AND c.k = k.k
)
SELECT doc_id, CAST(k AS BIGINT) AS frame_idx,
       CAST(3 AS BIGINT) AS n_frames,
       CAST(16 AS BIGINT) AS img_w,
       CAST(greatest(1, (n + 15) // 16) AS BIGINT) AS img_h,
       CAST(tsum + ((32 + 17 * k) % 256)
                   * (16 * greatest(1, (n + 15) // 16) - n)
            AS BIGINT) AS px_sum
FROM s ORDER BY doc_id, frame_idx
"""


STREAM_ROLLUP_EXPR = ('rollup(search(lineitem, q="*:*", '
                      'fl="l_returnflag,l_quantity"), '
                      'over="l_returnflag", sum(l_quantity), count(*))')
STREAM_JOIN_EXPR = ('top(n=10, select(innerJoin('
                    'search(orders, q="*:*", '
                    'fl="o_orderkey,o_custkey,o_totalprice"), '
                    'search(customer, q="c_mktsegment:BUILDING", '
                    'fl="c_custkey,c_mktsegment"), '
                    'on="o_custkey=c_custkey"), '
                    '"o_orderkey", "o_custkey", "o_totalprice"), '
                    'sort="o_orderkey asc")')


_LTR_FEATURES = {
    "originalScore": None,  # filled per first-pass term below
    "docLenBoost": "recip(dl,1,100,100)",
    "lengthNorm": "div(n_chars,1000)",
}
_LTR_WEIGHTS = {"originalScore": 0.7, "docLenBoost": 0.2,
                "lengthNorm": 0.1}


def _ltr_model(term: str):
    from ..search.ltr import LTRModel

    feats = dict(_LTR_FEATURES)
    feats["originalScore"] = f"query('{term}')"
    return LTRModel("demo_linear", feats, _LTR_WEIGHTS)


def _q_ltr_rerank(term, k=10, rerank_docs=100_000):
    """LTR two-pass rerank (solr/contrib/ltr LinearModel): first-pass
    BM25, linear feature model rescoring the candidates. The model
    round-trips through its JSON store form before scoring — the
    managed-resource path is exercised, not just the math."""
    def run(sf_dir):
        from ..search.ltr import LTRModel, ltr_rerank

        model = LTRModel.from_json(_ltr_model(term).to_json())
        s = _searcher(sf_dir)
        docs, score = ltr_rerank(s, term, model, _ExprCtx,
                                 rerank_docs=rerank_docs, k=k)
        return pa.table({
            "doc_id": pa.array(docs, type=pa.int64()),
            "score_q": pa.array(quantize_score(score), type=pa.int64()),
            "rank": pa.array(np.arange(1, len(docs) + 1),
                             type=pa.int64()),
        })
    return run


def _ltr_rerank_sql(term: str, k: int) -> str:
    return _expr_boost_sql(term, _ltr_model(term).scoring_expr(), k,
                           combine="expr_only")


def _q_frange(expr_str, lo, hi, k=10):
    """{!frange} FunctionRangeQuery (solr:search/FunctionRangeQuery,
    ValueSourceRangeFilter): match docs whose value-source value lies in
    [lo, hi], constant score, doc order."""
    def run(sf_dir):
        from ..search.functionquery import (evaluate, expr_fields,
                                            parse_expr)

        node = parse_expr(expr_str)
        s = _searcher(sf_dir)
        ids, dls = s._global_dl()
        docs = ids
        fields = {}
        for f in expr_fields(node):
            if f == "dl":
                fields[f] = dls.astype(np.float64)
            else:
                fids, vals = s.global_doc_values(f)
                fields[f] = vals[np.searchsorted(fids, docs)] \
                    .astype(np.float64)
        v = np.broadcast_to(
            np.asarray(evaluate(node, fields, _ExprCtx(s, docs)),
                       dtype=np.float64), docs.shape)
        sel = docs[(v >= lo) & (v <= hi)]
        sel = np.sort(sel)[:k]
        return pa.table({
            "doc_id": pa.array(sel, type=pa.int64()),
            "score_q": pa.array(np.full(len(sel), 10000, dtype=np.int64)),
            "rank": pa.array(np.arange(1, len(sel) + 1), type=pa.int64()),
        })
    return run


def _frange_sql(expr_str: str, lo: float, hi: float, k: int) -> str:
    from ..search.functionquery import parse_expr, to_sql

    expr_sql = to_sql(parse_expr(expr_str),
                      {"dl": "dl.dl", "n_chars": "d.n_chars"})
    return f"""
WITH {_tok_ctes()},
scored AS (
  SELECT d.doc_id AS doc_id, 1.0 AS score
  FROM documents d JOIN dl ON dl.doc_id = d.doc_id
  WHERE ({expr_sql}) >= {lo} AND ({expr_sql}) <= {hi}
)
{_sql_topk('scored', k)}
"""


_FACET_NOW = "2024-02-15T00:00:00"


def _q_date_range_facet(start, end, gap):
    """facet.range over a timestamp column with DateMathParser bounds
    (solr:util/DateMathParser.java; NOW pinned for determinism)."""
    def run(sf_dir):
        from datetime import datetime

        from ..ops.datemath import date_range_facet

        return date_range_facet(sf_dir, start=start, end=end, gap=gap,
                                now=datetime.fromisoformat(_FACET_NOW))
    return run


def _date_range_facet_sql(start: str, end: str, gap: str) -> str:
    from datetime import datetime

    from ..ops.datemath import parse_date_math

    now = datetime.fromisoformat(_FACET_NOW)
    t0 = parse_date_math(start, now=now)
    t1 = parse_date_math(end, now=now)
    bounds = [t0]
    while bounds[-1] < t1:
        bounds.append(parse_date_math("NOW" + gap, now=bounds[-1]))
    vals = ", ".join(
        f"('{a.isoformat()}', TIMESTAMP '{a}', TIMESTAMP '{b}')"
        for a, b in zip(bounds, bounds[1:]))
    return f"""
WITH b(bucket_start, lo, hi) AS (VALUES {vals})
SELECT bucket_start, count(*) AS cnt
FROM b JOIN events e ON e.ts >= b.lo AND e.ts < b.hi
GROUP BY bucket_start ORDER BY bucket_start
"""


def _q_gather_nodes(roots):
    """nodes(...) graph stream: customers → orders → suppliers."""
    def run(sf_dir):
        from ..ops.graph import gather_suppliers

        return gather_suppliers(sf_dir, roots)
    return run


def _q_bpe_train(sf_dir: str):
    """Distributed BPE training, bounded to 12 merges for the driver
    run (ops/bpe.py; Sennrich et al. 2016)."""
    from ..ops.bpe import bpe_train

    return bpe_train(sf_dir, n_merges=12)


def _q_shortest_path(src, dst):
    """shortestPath(...) over the bipartite customer–supplier graph."""
    def run(sf_dir):
        from ..ops.graph import shortest_path_hops

        return shortest_path_hops(sf_dir, src, dst)
    return run


def _q_cluster_docs(k=8):
    """Document clustering (solr/contrib/clustering ClusteringComponent
    surface): k-means over the embedding column, term-salience labels."""
    def run(sf_dir):
        from ..ops.cluster import cluster_documents

        return cluster_documents(sf_dir, k=k)
    return run


def _q_stream_expr(expr):
    """Solr streaming expression front door (/stream) compiled onto Ray
    Data (ops.streaming_expr)."""
    def run(sf_dir):
        from ..ops.streaming_expr import run_stream_expr

        t = run_stream_expr(expr, sf_dir)
        if t.num_columns == 0:
            return t
        df = t.to_pandas().sort_values(t.column_names[0]) \
            .reset_index(drop=True)
        return pa.Table.from_pandas(df, preserve_index=False)
    return run


def _q_sql(stmt):
    """Parallel SQL front door (/sql, SQLHandler.java:65): the SQL
    subset compiles onto the streaming-expression Stream tree exactly
    like SQLTupleStreamParser maps SQL onto TupleStreams
    (SQLHandler.java:124-147), then executes as a lazy Ray Dataset."""
    def run(sf_dir):
        from ..ops.sql import run_sql

        return run_sql(stmt, sf_dir)
    return run


# the oracle twin of each Parallel SQL query IS the statement itself —
# the engine's SQL dialect is an ANSI subset, so DuckDB runs the same
# text; matching results validate parser + compiler + executor at once
SQL_GROUP_BY = (
    "SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty, "
    "count(*) AS cnt FROM lineitem WHERE l_quantity > 25 "
    "GROUP BY l_returnflag, l_linestatus HAVING sum(l_quantity) > 100 "
    "ORDER BY l_returnflag ASC, l_linestatus ASC LIMIT 10")
SQL_SELECT_ORDER = (
    "SELECT o_orderkey, o_custkey, o_totalprice FROM orders "
    "WHERE o_totalprice > 100000 AND NOT o_orderpriority = '1-URGENT' "
    "ORDER BY o_totalprice DESC, o_orderkey ASC LIMIT 20")
SQL_DISTINCT = (
    "SELECT DISTINCT l_returnflag, l_linestatus FROM lineitem "
    "ORDER BY l_returnflag, l_linestatus")
SQL_STATS = (
    "SELECT count(*) AS cnt, min(o_totalprice) AS min_price, "
    "max(o_totalprice) AS max_price FROM orders "
    "WHERE o_orderpriority = '1-URGENT' OR o_orderpriority = '2-HIGH'")


STREAM_FACET_EXPR = ('facet(orders, q="*:*", buckets="o_orderpriority", '
                     'bucketSorts="count(*) desc", bucketSizeLimit=10, '
                     'count(*), max(o_totalprice))')

STREAM_FACET_SQL = """
WITH f AS (SELECT o_orderpriority, count(*) AS count_rows,
                  max(o_totalprice) AS max_o_totalprice
           FROM orders GROUP BY o_orderpriority
           ORDER BY count_rows DESC LIMIT 10)
SELECT o_orderpriority, count_rows, max_o_totalprice
FROM f ORDER BY o_orderpriority
"""

STREAM_ROLLUP_SQL = """
SELECT l_returnflag, CAST(sum(l_quantity) AS DOUBLE) AS sum_l_quantity,
       count(*) AS count_rows
FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
"""

STREAM_JOIN_SQL = """
SELECT o_orderkey, o_custkey, o_totalprice
FROM orders JOIN customer ON o_custkey = c_custkey
WHERE c_mktsegment = 'BUILDING'
ORDER BY o_orderkey ASC LIMIT 10
"""

STREAM_HAVING_EXPR = ('having(rollup(search(lineitem, q="*:*", '
                      'fl="l_returnflag,l_quantity"), '
                      'over="l_returnflag", sum(l_quantity), count(*)), '
                      'and(gt(count_rows, 100), '
                      'not(eq(l_returnflag, "N"))))')

STREAM_HAVING_SQL = """
SELECT l_returnflag, CAST(sum(l_quantity) AS DOUBLE) AS sum_l_quantity,
       count(*) AS count_rows
FROM lineitem GROUP BY l_returnflag
HAVING count(*) > 100 AND l_returnflag <> 'N'
ORDER BY l_returnflag
"""

STREAM_COMPLEMENT_EXPR = ('complement(search(customer, q="*:*", '
                          'fl="c_custkey"), search(orders, '
                          'q="o_orderpriority:1-URGENT", '
                          'fl="o_custkey"), on="c_custkey=o_custkey")')

STREAM_COMPLEMENT_SQL = """
SELECT c_custkey FROM customer
WHERE c_custkey NOT IN (SELECT o_custkey FROM orders
                        WHERE o_orderpriority = '1-URGENT')
ORDER BY c_custkey
"""

STREAM_STATS_EXPR = ('stats(search(lineitem, q="*:*", '
                     'fl="l_quantity"), sum(l_quantity), '
                     'min(l_quantity), max(l_quantity), '
                     'avg(l_quantity), count(*))')

STREAM_STATS_SQL = """
SELECT CAST(sum(l_quantity) AS DOUBLE) AS sum_l_quantity,
       CAST(min(l_quantity) AS DOUBLE) AS min_l_quantity,
       CAST(max(l_quantity) AS DOUBLE) AS max_l_quantity,
       CAST(avg(l_quantity) AS DOUBLE) AS avg_l_quantity,
       count(*) AS count_rows
FROM lineitem
"""


def build_queries() -> dict:
    from ..ops import ann as A
    from ..ops import dedup as D
    from ..ops import joins as J
    from ..ops import quality_filters as QF
    from ..ops import relational as R
    from ..ops import temporal as TMP
    from ..ops import text as T
    from ..ops.pretrain import pack_sequences, pretrain_corpus_report

    training = {
        "dedup_exact": D.exact_dedup,
        "dedup_minhash_lsh": D.minhash_lsh_pairs,
        "dedup_ngram_jaccard": D.ngram_jaccard_pairs,
        "dedup_substring": D.substring_dup_pairs,
        "dedup_apply": D.dedup_apply,
        "dedup_rep_quality": D.dedup_rep_quality,
        # md5 hash mode so the 64-bit bitwise twin can reproduce the
        # signatures (md5_number_lower); blake2b stays the library default
        "dedup_simhash": lambda sf_dir: D.simhash_pairs(sf_dir,
                                                        hash="md5"),
        "dedup_clusters": D.dedup_clusters,
        "dedup_c4_lines": D.c4_line_dedup,
        "text_langid": T.lang_id,
        "text_quality": T.quality_score,
        "text_significant_terms": T.significant_terms,
        "text_pii_redact": T.pii_redact,
        "text_stratified_sample": T.stratified_sample,
        "text_chunk_windows": T.chunk_documents,
        "text_token_totals": T.token_totals,
        "text_token_totals_ws": lambda sf: T.token_totals(
            sf, mode="whitespace"),
        "text_token_totals_bpe": lambda sf: T.token_totals(
            sf, mode="bpe"),
        "text_unicode_tokens": T.unicode_token_stats,
        "text_uax29_tokens": T.uax29_token_stats,
        # md5 hash mode for the recursive-powers twin (blake2b default)
        "text_fingerprint": lambda sf_dir: T.fingerprint(sf_dir,
                                                         hash="md5"),
        "text_pack_sequences": lambda sf_dir: T.pack_sequences(sf_dir),
        # oracle-paired since round 4: the BFD histogram fold unrolls
        # in SQL (WITH RECURSIVE over the capacity-histogram state —
        # ops/pretrain.binpack_sql); tests/test_pretrain additionally
        # pins it against a brute per-piece BFD and the uniform closed
        # form
        "text_binpack": __import__(
            "lucene_solr_ray.ops.pretrain",
            fromlist=["binpack_sequences"]).binpack_sequences,
        "ann_brute_cosine": A.ann_brute_topk,
        "ann_filtered_cosine": A.ann_filtered_topk,
        "ann_maxsim": A.ann_maxsim_topk,
        # product quantization. ann_pq_cosine = the deterministic
        # sample-codebook construction (first-ks subvectors ARE the
        # centroids): REAL quantization, fully oracle-paired
        # (ann_pq_sample_sql). The Lloyd-trained variant stays under
        # ann_pq_kmeans (iterative — rows-only, pytest recall-bounded);
        # the ks→∞ limit is the oracle-paired degenerate twin
        "ann_pq_cosine": lambda sf: A.ann_pq_topk(sf,
                                                  codebook="sample"),
        "ann_pq_kmeans": A.ann_pq_topk,
        "ann_pq_exact": lambda sf: A.ann_pq_topk(sf, exact=True),
        "ann_hard_negatives": A.ann_hard_negatives,
        "ft_hybrid_rrf": _q_hybrid_rrf(),
        "ann_ivf_cosine": A.ann_ivf_topk,          # approximate (no SQL twin)
        # full probe (nprobe = nlist) degenerates to exhaustive search,
        # so the IVF machinery itself pairs with the brute oracle
        "ann_ivf_full_probe": lambda sf: A.ann_ivf_topk(sf, nprobe=8),
        # 0 hyperplane bits → one bucket → the LSH machinery must also
        # reproduce exhaustive search exactly
        "ann_lsh_degenerate": lambda sf: A.ann_lsh_topk(sf, n_bits=0,
                                                        n_tables=1),
        "ann_lsh_cosine": A.ann_lsh_topk,          # approximate (no SQL twin)
        "ann_ivf_persisted": A.ann_ivf_persisted_topk,  # rows-only; ==ivf
        "dedup_embedding_cosine": A.embedding_near_dup_pairs,
    }

    rel = {
        "rel_rollup_pricing": R.rollup_pricing_summary,
        "rel_facet_counts": R.facet_counts,
        "rel_query_facets": R.query_facets,
        "rel_interval_facet": R.interval_facet,
        "rel_json_facet": R.json_facet_nested,
        "rel_range_facet": R.range_facet,
        "rel_pivot_facet": R.pivot_facet,
        "rel_stats_component": R.stats_component,
        "rel_semi_join": R.semi_join,
        "rel_anti_join": R.anti_join,
        "rel_grouping_topk": R.grouping_top_k,
        "rel_sorted_export": R.sorted_export_top,
        "rel_sort_by_expr": _q_sort_by_expr(),
        "rel_cursor_page": R.cursor_page,
        "rel_unique_stream": R.unique_stream,
        "rel_windowed_rollup": R.windowed_rollup,
        "rel_asof_join": TMP.asof_join,
        "rel_session_windows": TMP.session_windows,
        "rel_range_band": TMP.range_band_rollup,
        "rel_hopping_window": TMP.hopping_window_rollup,
        "rel_json_field": R.json_field_rollup,
        "rel_funnel": TMP.funnel_depths,
        "rel_cohort_retention": TMP.cohort_retention,
        "rel_window_enrich": TMP.window_enrich,
        "rel_event_dedup": TMP.event_window_dedup,
        "rel_ewma": TMP.ewma_per_user,
        "rel_attribution": TMP.attribution_join,
        "rel_timeseries_daily": TMP.timeseries_daily,
        # incremental view maintenance: the oracle-parity check IS the
        # incremental==batch invariant (two-step refresh schedule)
        "rel_ivm_rollup": __import__(
            "lucene_solr_ray.ops.ivm",
            fromlist=["ivm_rollup"]).ivm_rollup,
        # Z-order layout: the curve-position query (the clustered
        # write + file-pruning path is layout.zorder_write, pytest'd)
        "rel_zorder_curve": __import__(
            "lucene_solr_ray.ops.layout",
            fromlist=["zorder_events"]).zorder_events,
        # entity resolution: metaphone blocking + integer Levenshtein
        "rel_entity_match": __import__(
            "lucene_solr_ray.ops.entity",
            fromlist=["entity_match_pairs"]).entity_match_pairs,
        "rel_cube": R.cube_rollup,
        "rel_rollup_hierarchy": R.rollup_hierarchy,
        "rel_skyline": R.skyline,
        "rel_table_stats": R.table_stats,
        "rel_mad_outliers": R.mad_outliers,
        "rel_skew_report": R.skew_report,
        "text_train_split": T.train_split,
        "text_weighted_sample": T.weighted_sample,
        "text_balanced_sample": T.balanced_sample,
        "text_capped_sample": T.capped_sample,
        "code_secrets_scan": __import__(
            "lucene_solr_ray.ops.code",
            fromlist=["secrets_scan"]).secrets_scan,
        "code_line_filters": __import__(
            "lucene_solr_ray.ops.code",
            fromlist=["line_filters"]).line_filters,
        "graph_pagerank": __import__(
            "lucene_solr_ray.ops.graph",
            fromlist=["pagerank"]).pagerank,
        "graph_label_prop": __import__(
            "lucene_solr_ray.ops.graph",
            fromlist=["label_propagation"]).label_propagation,
        "graph_type_cooccur": __import__(
            "lucene_solr_ray.ops.graph",
            fromlist=["type_cooccurrence"]).type_cooccurrence,
        "code_license_rollup": __import__(
            "lucene_solr_ray.ops.code",
            fromlist=["license_rollup"]).license_rollup,
        "code_pseudonymize": __import__(
            "lucene_solr_ray.ops.code",
            fromlist=["pseudonymize_rollup"]).pseudonymize_rollup,
        "rel_join_rollup": R.join_rollup,
        "rel_hierarchical_facet": R.hierarchical_facet,
        "rel_assoc_facet": R.association_facet,
        "rel_percentiles": R.percentiles,
        "rel_stats_extended": R.stats_extended,
        "sketch_hll_users": _sketch_hll,
        # theta/KMV: k=64 is the real sketch (rows-only, pytest
        # error-bounded); k ≥ |users| degenerates to exact counts and
        # pairs with the DISTINCT/INTERSECT oracle
        "sketch_theta_users": __import__(
            "lucene_solr_ray.ops.sketches",
            fromlist=["theta_users_by_type"]).theta_users_by_type,
        "sketch_theta_exact": lambda sf: __import__(
            "lucene_solr_ray.ops.sketches",
            fromlist=["theta_users_by_type"]).theta_users_by_type(
                sf, k=1 << 20),
        "sketch_hdr_quantiles": __import__(
            "lucene_solr_ray.ops.sketches",
            fromlist=["hdr_quantiles"]).hdr_quantiles,
        # Count-Min point-frequency sketch: like hdr, oracle-paired
        # OUTRIGHT at the real width (the twin rebuilds the identical
        # d×w integer table from the shared md5 bucket hash)
        "sketch_cms_users": __import__(
            "lucene_solr_ray.ops.sketches",
            fromlist=["cms_user_counts"]).cms_user_counts,
        # Misra-Gries heavy hitters: the real summary (k=32, rows-only,
        # pytest-bounded) and the k ≥ vocab degenerate exact twin
        "sketch_topk_terms": __import__(
            "lucene_solr_ray.ops.sketches",
            fromlist=["topk_terms"]).topk_terms,
        "sketch_topk_exact": lambda sf: __import__(
            "lucene_solr_ray.ops.sketches",
            fromlist=["topk_terms"]).topk_terms(sf, k=1 << 16),
        "embed_gram_matrix": __import__(
            "lucene_solr_ray.ops.linalg",
            fromlist=["gram_matrix"]).gram_matrix,
        # rows-only: iterative power method (the k-means discipline);
        # tests/test_linalg.py pins it against np.linalg.eigh
        "embed_pca_power": __import__(
            "lucene_solr_ray.ops.linalg",
            fromlist=["pca_power"]).pca_power,
        "rel_sampled_facet": R.sampled_facet,
        "stream_expr_rollup": _q_stream_expr(STREAM_ROLLUP_EXPR),
        "stream_expr_join_top": _q_stream_expr(STREAM_JOIN_EXPR),
        "stream_expr_having": _q_stream_expr(STREAM_HAVING_EXPR),
        "stream_expr_complement": _q_stream_expr(STREAM_COMPLEMENT_EXPR),
        "stream_expr_stats": _q_stream_expr(STREAM_STATS_EXPR),
        "stream_expr_facet": _q_stream_expr(STREAM_FACET_EXPR),
        "sql_group_by": _q_sql(SQL_GROUP_BY),
        "sql_select_order": _q_sql(SQL_SELECT_ORDER),
        "sql_distinct": _q_sql(SQL_DISTINCT),
        "sql_stats": _q_sql(SQL_STATS),
        # rows-only: k-means clustering (Carrot2 ClusteringComponent
        # analogue) has no SQL twin; fixture-verified in test_cluster
        "cluster_docs": _q_cluster_docs(),
        "dih_full_import": _q_dih_full_import,
        "tika_pdf_roundtrip": _q_tika_pdf_roundtrip,
        "tika_pdf_encrypted_roundtrip": _q_tika_pdf_encrypted_roundtrip,
        "tika_pdf_aes256_roundtrip": _q_tika_pdf_aes256_roundtrip,
        "tika_docx_roundtrip": _q_tika_docx_roundtrip,
        "tika_media_extract": _q_tika_media_extract,
        "video_frame_sample": _q_video_frame_sample,
        "rel_block_join_parent": J.block_join_parent,
        "rel_block_join_facet": J.block_join_facet,
        "rel_block_join_child": J.block_join_child,
        "rel_join_score": J.terms_including_score,
        "rel_join_score_avg":
            lambda sf: J.terms_including_score_mode(sf, "avg"),
        "rel_join_score_total":
            lambda sf: J.terms_including_score_mode(sf, "total"),
        "rel_collapse_expand": J.collapse_expand,
        "rel_auto_join": J.auto_join_rollup,
    }
    return training | rel | {
        "ft_term_hot": _q_term(HOT),
        "ft_term_mid": _q_term(MID),
        "ft_term_rare": _q_term(RARE, k=100),
        "ft_bool_and": _q_bool(must=[HOT, HOT2]),
        "ft_bool_or_msm": _q_bool(should=[HOT, MID, RARE], msm=2),
        "ft_bool_not": _q_bool(must=[MID], must_not=[RARE]),
        "ft_phrase": _q_phrase("fast", "table"),
        "ft_term_stats": _q_term_stats(STATS_TERMS),
        "ft_collection_stats": _q_collection_stats(),
        "ft_top_terms": _q_top_terms(20),
        "ft_prefix": _q_multiterm("prefix", "s"),
        "ft_wildcard": _q_multiterm("wildcard", "s*m"),
        "ft_regexp": _q_multiterm("regexp", "^(ba|cu)"),
        "ft_term_range": _q_multiterm("range", ("batch", "customer")),
        "ft_fuzzy": _q_multiterm("fuzzy", "tble", max_edits=1),
        "ft_dismax": _q_dismax(["table", "customer", "vector"], 0.3),
        "ft_span_near": _q_span_near(["fast", "table"], 3),
        "ft_suggest": _q_suggest("s"),
        "ft_suggest_fst": _q_suggest_fst("s"),
        "ft_suggest_fuzzy": _q_suggest_fuzzy("vectr"),
        "ft_function_boost": _q_function_boost("table"),
        "ft_more_like_this": _q_more_like_this(0),
        "ft_mlt_terms": _q_mlt_terms(0),
        "ft_suggest_free_text": _q_free_text_suggest("fast"),
        "ft_frange": _q_frange("recip(dl,1,100,100)", 0.6, 0.65),
        "rel_date_range_facet": _q_date_range_facet(
            "NOW/DAY-30DAYS", "NOW/DAY", "+5DAYS"),
        "ft_term_vector": _q_term_vector(0),
        "ft_term_vector_positions": _q_term_vector_positions(0),
        "ft_highlight": _q_highlight("table"),
        "ft_highlight_fvh": _q_highlight_fvh(["fast", "table"]),
        "ft_highlight_passages": _q_highlight_passages(
            ["table", "scan"]),
        "ft_filter_lang": _q_filtered("table", "lang", "en"),
        "ft_facet_lang": _q_result_facet("table", "lang"),
        "ft_drill_sideways": _q_drill_sideways(
            "table", {"lang": "en", "source": "src5"}),
        "ft_terms_set": _q_terms_set(["dup", "vector", "stream"]),
        "ft_graph_terms": _q_graph_terms(
            ["table", "vector", "dup", "stream"]),
        "ft_common_terms": _q_common_terms(["table", "dup"]),
        "ft_parsed_bool": _q_parsed("+table +customer vector"),
        "ft_parsed_grouped": _q_parsed("table AND (vector OR customer)"),
        "ft_parsed_phrase_prefix": _q_parsed('cust* OR "fast table"'),
        "ft_parsed_field": _q_parsed("lang:en AND table"),
        "ft_parsed_not": _q_parsed("table -dup"),
        "ft_phrase_slop": _q_phrase_slop("fast", "table", 2),
        "ft_numeric_range": _q_numeric_range("n_chars", 250, 350),
        "ft_numeric_range_bkd": _q_numeric_range_bkd("n_chars", 250,
                                                     350),
        "ft_sort_by_field": _q_sort_by_field("table", "n_chars"),
        "ft_spellcheck": _q_spellcheck("ort"),
        "ft_spellcheck_collate": _q_spellcheck_collate("fast tble scan"),
        "ft_synonym_term": _q_synonym_term("batch"),
        "ft_minimal_stem": _q_minimal_stem("tables"),
        "ft_lm_dirichlet": _q_lm_dirichlet("table"),
        "ft_lm_jelinek_mercer": _q_lm_jelinek_mercer("table"),
        "ft_dfr_inl2": _q_dfr_inl2("table"),
        "ft_sweet_spot": _q_sweetspot("table"),
        "ft_classic_tfidf": _q_classic_tfidf("table"),
        "ft_multi_sim": _q_multi_sim("table"),
        "ft_dfr_pl2": _q_dfr_matrix("table", "pl2"),
        "ft_dfr_gb1": _q_dfr_matrix("table", "gb1"),
        "ft_dfr_ineb3": _q_dfr_matrix("table", "ineb3"),
        "ft_dfr_dz": _q_dfr_matrix("table", "dz"),
        "ft_dfr_ifb2": _q_dfr_matrix("table", "ifb2"),
        "ft_ib_ll": _q_ib("table", dist="ll"),
        "ft_ib_spl": _q_ib("table", dist="spl"),
        "ft_rerank": _q_rerank("table", "vector"),
        "ft_stemmed_term": _q_stemmed_term("query"),
        "ft_snowball_term": _q_snowball_term("queries"),
        "ft_phonetic_term": _q_phonetic_term("tabel"),
        "ft_kstem_term": _q_kstem_term("tables"),
        "ft_payload_sum": _q_payload_score("table", "sum"),
        "ft_payload_span": _q_payload_span("table", "avg"),
        "ft_explain_term": _q_explain_term(MID),
        "ft_terms_component": _q_terms_component(prefix="ta",
                                                 mincount=2),
        "ft_suggest_infix": _q_suggest_infix("tab"),
        "ft_word_breaks": _q_word_breaks("fasttable"),
        "ft_word_combos": _q_word_combos(["ta", "ble", "scan"]),
        "ft_ltr_rerank": _q_ltr_rerank("table"),
        "ft_ltr_features": _q_ltr_features(),
        "ft_suggest_blended": _q_suggest_blended("tab"),
        "rel_facet_prefix": R.facet_prefix_counts,
        "rel_group_ngroups": R.group_ngroups,
        "graph_gather_nodes": _q_gather_nodes([1, 2, 3]),
        "graph_shortest_path": _q_shortest_path(1, 2),
        "text_gopher_rules": QF.gopher_rules,
        "text_repetition": QF.repetition_metrics,
        # the composite: every gate + dedup in one streaming pass
        "pipeline_pretrain": pretrain_corpus_report,
        # GPT-style concat-and-chunk placement (distributed prefix sum)
        "pipeline_pack_sequences": pack_sequences,
        "text_contamination": QF.contamination_hits,
        # constant-memory Bloom variant: oracle-paired OUTRIGHT (the
        # twin rebuilds the identical filter, false positives included)
        "text_bloom_decontam": QF.bloom_contamination_hits,
        "text_unigram_lm": QF.unigram_logprob,
        "text_bigram_lm": QF.bigram_logprob,
        # DSIR hashed-unigram importance weights (target/source ratio)
        "text_dsir_weights": QF.dsir_weights,
        # distributed BPE training (rows-only: iterative argmax is not
        # SQL-expressible; pinned by the pure-Python reference twin in
        # tests/test_bpe.py)
        "bpe_train_merges": _q_bpe_train,
        "text_mixture_rebalance": QF.mixture_rebalance,
        "ft_multi_phrase": _q_multi_phrase([["fast", "slow"], ["table"]]),
        "ft_span_first": _q_span_first("scan", 20),
        "ft_span_not": _q_span_not("table", "slow", 2),
        "ft_span_or": _q_span_or(["fast", "slow"]),
        "ft_span_containing": _q_span_containing("fast", "table", "scan", 6),
        "ft_span_within": _q_span_within("fast", "table", "scan", 6),
        "ft_span_position_range": _q_span_position_range("scan", 5, 15),
        "geo_bbox": _q_geo_bbox,
        "ft_maxscore": _q_maxscore("{!maxscore tie=0.3}table OR customer OR vector", 0.3),
        "ft_collapse": _q_collapse_qparser("table", "lang"),
        "urp_pipeline": _q_urp_pipeline,
        "analytics_stats": _q_analytics_stats,
        "analytics_facet": _q_analytics_facet,
        "geo3d_circle": _q_geo3d_circle,
        "geo3d_path": _q_geo3d_path,
        "geo3d_circle_wgs84": _q_geo3d_circle_wgs84,
        "geo3d_path_wgs84": _q_geo3d_path_wgs84,
        "geo_distance": _q_geo_distance,
        "geo_polygon": _q_geo_polygon,
        "geo_heatmap": _q_geo_heatmap,
        "geo_bbox_rpt": _q_geo_bbox_rpt,
        "geo_bbox_bkd": _q_geo_bbox_bkd,
        "geo_sort_distance": _q_geo_sort,
        "ft_blended_term": _q_blended(["fast", "slow", "rapid"]),
        "ft_edge_ngram": _q_edge_ngram("tab"),
        "ft_shingle": _q_shingle("fast", "table"),
        "ft_expr_boost": _q_expr_boost(
            "table", "product(recip(dl,1,100,100),sqrt(n_chars))"),
        "ft_expr_math": _q_expr_boost(
            "customer",
            "if(mod(n_chars,2),sqrt(dl),recip(dl,1,50,50))"),
        "ft_expr_dist": _q_expr_boost(
            "vector", "recip(dist(1,dl,n_chars,40,300),1,500,500)"),
        "ft_expr_termfreq": _q_expr_boost(
            "table",
            "product(sum(1,termfreq(text,'vector')),recip(dl,1,100,100))"),
        "ft_expr_query": _q_expr_boost(
            "table", "sum(1,query('vector'))"),
        "ft_expr_ord": _q_expr_boost(
            "customer", "div(ord(n_chars),sum(rord(n_chars),1))"),
        "ft_expr_strdist": _q_expr_boost(
            "table", "sum(1,strdist(lang,'en',edit))"),
        # Lucene's JaroWinklerDistance is float32 with an uncapped
        # prefix and min(0.1, 1/maxlen) scaling — DuckDB's standard
        # jaro_winkler cannot twin it, but a WITH RECURSIVE rebuild in
        # pure FLOAT arithmetic can (search/strdistance_sql.py)
        "ft_expr_strdist_jw": _q_expr_boost(
            "table", "sum(1,strdist(lang,'en',jarowinkler))"),
        # lucene/expressions JavascriptCompiler syntax — same AST,
        # infix front-end
        "ft_expr_js": _q_expr_boost(
            "table", "1 + sqrt(n_chars) * 0.25 - dl % 7", syntax="js"),
        "ft_external_boost": _q_external_boost("table"),
        "ft_elevation": _q_elevation("table"),
        "ft_suggest_weighted": _q_suggest_weighted("s"),
        "ft_dv_numbers": _q_dv_numbers("n_chars", [250, 300, 350]),
        "ft_dv_terms": _q_dv_terms("lang", ["de", "fr"]),
        "ft_dv_range": _q_dv_range("lang", "de", "es"),
        "ft_classify_knn": _q_classify("knn"),
        "ft_classify_nb": _q_classify("nb"),
        "ft_classify_perceptron": _q_classify_perceptron(),
        # rows-only: k-means is not SQL-expressible; threshold matches
        # dedup_embedding_cosine's corpus-calibrated 0.45
        "dedup_semdedup": lambda sf_dir: __import__(
            "lucene_solr_ray.ops.ann", fromlist=["semdedup"]).semdedup(
                sf_dir, threshold=0.45),
        "ft_bool_qparser": _q_localparams(
            "{!bool must='{!term}table' should='{!term}fast' "
            "must_not='{!term}slow' filter='{!term f=lang}en'}"),
        "ft_switch_qparser": _q_localparams(
            "{!switch case.a='{!term}table' default='{!term}scan'}a"),
        "ft_field_qparser": _q_localparams("{!field f=text}Fast Table"),
        "ft_boost_qparser": _q_boost_qparser(
            "{!boost b=recip(dl,1,100,100)}{!term}table"),
        "ft_term_automaton": _q_automaton([["fast", "slow"], "*",
                                           ["scan"]]),
        # cyclic general NFA — "fast (scan fast)* table"; the unbounded
        # repetition pairs with a WITH RECURSIVE twin (and the
        # randomized pytest still covers arbitrary NFAs)
        "ft_term_automaton_nfa": _q_automaton(
            {"states": 4, "accept": [3],
             "transitions": [[0, 1, "fast"], [1, 2, "scan"],
                             [2, 1, "fast"], [1, 3, "table"]]}),
        "ft_edismax": _q_edismax(
            "spark src13 merge scan -window",
            qf=(("text", 1.0), ("source", 1.5)),
            mm="2<75%", tie=0.3, pf=0.5),
        "ft_word_delimiter": _q_word_delimiter("13"),
        "ft_simple_parsed": _q_simple("table + (vector | customer)"),
        "ft_simple_not": _q_simple("table -dup"),
        "ft_complex_phrase": _q_complex_phrase("(fast slow) tab*"),
        "ft_surround_w": _q_surround("key 2w order"),
        "ft_surround_n": _q_surround("fast 3n table"),
        "ft_surround_expand": _q_surround("key 2w ord*"),
        "ft_surround_expand_n": _q_surround("ta* 3n scan"),
        "ft_xml_parsed": _q_xml(
            '<BooleanQuery>'
            '<Clause occurs="must"><TermQuery>table</TermQuery></Clause>'
            '<Clause occurs="must"><TermQuery>customer</TermQuery></Clause>'
            '<Clause occurs="should"><TermQuery>vector</TermQuery></Clause>'
            '</BooleanQuery>'),
    }


def build_oracle_sql() -> dict:
    from ..ops import quality_filters as QF
    from ..ops.ann import ann_brute_sql, embedding_near_dup_sql
    from ..ops.dedup import JACCARD_THRESHOLD, c4_line_dedup_sql

    training = {
        "dedup_exact": ft_dedup_exact_sql(),
        "dedup_minhash_lsh": ft_jaccard_pairs_sql(JACCARD_THRESHOLD),
        "dedup_ngram_jaccard": ft_jaccard_pairs_sql(JACCARD_THRESHOLD),
        "dedup_substring": substring_dup_sql(8),
        "dedup_apply": dedup_apply_sql(JACCARD_THRESHOLD),
        "dedup_rep_quality": dedup_rep_quality_sql(JACCARD_THRESHOLD),
        "dedup_clusters": dedup_clusters_sql(JACCARD_THRESHOLD),
        "dedup_c4_lines": c4_line_dedup_sql(),
        "text_langid": text_langid_sql(),
        "text_quality": text_quality_sql(),
        "text_significant_terms": significant_terms_sql("vector", 20, 3),
        "text_pii_redact": pii_redact_sql(),
        "text_stratified_sample": stratified_sample_sql(20),
        "text_chunk_windows": chunk_windows_sql(64, 48),
        "text_token_totals": text_token_totals_sql(),
        "text_token_totals_ws": _regex_token_totals_sql(r"\S+"),
        "text_token_totals_bpe": _regex_token_totals_sql(
            __import__("lucene_solr_ray.ops.text",
                       fromlist=["BPE_PRETOKEN_PAT"])
            .BPE_PRETOKEN_PAT.replace("'", "''")),
        "text_unicode_tokens": unicode_token_stats_sql(),
        # the conformant uax29 DEFAULT provably coincides with the
        # letter/number-run twin on the transliterated corpus
        "text_uax29_tokens": unicode_token_stats_sql(),
        "ann_brute_cosine": ann_brute_sql(),
        "ann_filtered_cosine": __import__(
            "lucene_solr_ray.ops.ann",
            fromlist=["ann_filtered_sql"]).ann_filtered_sql(),
        "ann_maxsim": __import__(
            "lucene_solr_ray.ops.ann",
            fromlist=["ann_maxsim_sql"]).ann_maxsim_sql(),
        "ann_pq_exact": __import__(
            "lucene_solr_ray.ops.ann",
            fromlist=["ann_pq_exact_sql"]).ann_pq_exact_sql(),
        "ann_hard_negatives": __import__(
            "lucene_solr_ray.ops.ann",
            fromlist=["ann_hard_negatives_sql"]).ann_hard_negatives_sql(),
        "ft_hybrid_rrf": ft_hybrid_rrf_sql(),
        "ann_ivf_full_probe": ann_brute_sql(),
        "ann_pq_cosine": __import__(
            "lucene_solr_ray.ops.ann",
            fromlist=["ann_pq_sample_sql"]).ann_pq_sample_sql(),
        "text_binpack": __import__(
            "lucene_solr_ray.ops.pretrain",
            fromlist=["binpack_sql"]).binpack_sql(),
        "ann_lsh_degenerate": ann_brute_sql(),
        "dedup_embedding_cosine": embedding_near_dup_sql(),
        # The 5 remaining rows-only entries are ALL approximate-ANN /
        # clustering by construction: ann_ivf_* / ann_lsh / cluster_docs
        # / dedup_semdedup (k-means with order-sensitive float means, or
        # seeded-RNG hyperplanes); each carries a pytest recall bound
        # AND a degeneracy oracle pair (full-probe IVF / 0-bit LSH ==
        # exhaustive search). Everything sequential or float32 is now
        # paired: Porter/Porter2/KStem/Double Metaphone via
        # analysis/*_sql.py, the perceptron via integer unrolling
        # (_classify_perceptron_sql), JaroWinkler + the
        # PostingsHighlighter passage scorer via pure-FLOAT SQL (DuckDB
        # FLOAT arithmetic is bit-identical to numpy float32), and the
        # FVH highlighter via precomputed-jump recursions
        # (_highlight_fvh_sql).
    }
    from . import relational_sql as RS

    rel = {
        "rel_rollup_pricing": RS.ROLLUP_PRICING_SUMMARY,
        "rel_facet_counts": RS.FACET_COUNTS,
        "rel_query_facets": RS.QUERY_FACETS,
        "rel_interval_facet": RS.INTERVAL_FACET,
        "rel_json_facet": RS.JSON_FACET_NESTED,
        "rel_range_facet": RS.RANGE_FACET,
        "rel_pivot_facet": RS.PIVOT_FACET,
        "rel_stats_component": RS.STATS_COMPONENT,
        "rel_semi_join": RS.SEMI_JOIN,
        "rel_anti_join": RS.ANTI_JOIN,
        "rel_grouping_topk": RS.GROUPING_TOP_K,
        "rel_sorted_export": RS.SORTED_EXPORT_TOP,
        "rel_sort_by_expr": _sort_by_expr_sql(500),
        "rel_cursor_page": RS.CURSOR_PAGE,
        "rel_unique_stream": RS.UNIQUE_STREAM,
        "rel_windowed_rollup": RS.WINDOWED_ROLLUP,
        "rel_asof_join": __import__(
            "lucene_solr_ray.ops.temporal",
            fromlist=["asof_join_sql"]).asof_join_sql(),
        "rel_session_windows": __import__(
            "lucene_solr_ray.ops.temporal",
            fromlist=["session_windows_sql"]).session_windows_sql(),
        "rel_range_band": __import__(
            "lucene_solr_ray.ops.temporal",
            fromlist=["range_band_rollup_sql"]).range_band_rollup_sql(),
        "rel_hopping_window": __import__(
            "lucene_solr_ray.ops.temporal",
            fromlist=["hopping_window_rollup_sql"]).hopping_window_rollup_sql(),
        "text_weighted_sample": __import__(
            "lucene_solr_ray.ops.text",
            fromlist=["weighted_sample_sql"]).weighted_sample_sql(),
        "text_balanced_sample": __import__(
            "lucene_solr_ray.ops.text",
            fromlist=["balanced_sample_sql"]).balanced_sample_sql(),
        "text_capped_sample": __import__(
            "lucene_solr_ray.ops.text",
            fromlist=["capped_sample_sql"]).capped_sample_sql(),
        "code_secrets_scan": __import__(
            "lucene_solr_ray.ops.code",
            fromlist=["secrets_scan_sql"]).secrets_scan_sql(),
        "code_line_filters": __import__(
            "lucene_solr_ray.ops.code",
            fromlist=["line_filters_sql"]).line_filters_sql(),
        "graph_pagerank": __import__(
            "lucene_solr_ray.ops.graph",
            fromlist=["pagerank_sql"]).pagerank_sql(),
        "graph_label_prop": __import__(
            "lucene_solr_ray.ops.graph",
            fromlist=["label_propagation_sql"]).label_propagation_sql(),
        "graph_type_cooccur": __import__(
            "lucene_solr_ray.ops.graph",
            fromlist=["type_cooccurrence_sql"]).type_cooccurrence_sql(),
        "code_license_rollup": __import__(
            "lucene_solr_ray.ops.code",
            fromlist=["license_rollup_sql"]).license_rollup_sql(),
        "code_pseudonymize": __import__(
            "lucene_solr_ray.ops.code",
            fromlist=["pseudonymize_rollup_sql"]).pseudonymize_rollup_sql(),
        "sketch_theta_exact": __import__(
            "lucene_solr_ray.ops.sketches",
            fromlist=["theta_users_exact_sql"]).theta_users_exact_sql(),
        "sketch_hdr_quantiles": __import__(
            "lucene_solr_ray.ops.sketches",
            fromlist=["hdr_quantiles_sql"]).hdr_quantiles_sql(),
        "sketch_cms_users": __import__(
            "lucene_solr_ray.ops.sketches",
            fromlist=["cms_user_counts_sql"]).cms_user_counts_sql(),
        "sketch_topk_exact": __import__(
            "lucene_solr_ray.ops.sketches",
            fromlist=["topk_terms_exact_sql"]).topk_terms_exact_sql(),
        "embed_gram_matrix": __import__(
            "lucene_solr_ray.ops.linalg",
            fromlist=["gram_matrix_sql"]).gram_matrix_sql(),
        "rel_json_field": __import__(
            "lucene_solr_ray.ops.relational",
            fromlist=["json_field_rollup_sql"]).json_field_rollup_sql(),
        "rel_funnel": __import__(
            "lucene_solr_ray.ops.temporal",
            fromlist=["funnel_depths_sql"]).funnel_depths_sql(),
        "rel_cohort_retention": __import__(
            "lucene_solr_ray.ops.temporal",
            fromlist=["cohort_retention_sql"]).cohort_retention_sql(),
        "rel_window_enrich": __import__(
            "lucene_solr_ray.ops.temporal",
            fromlist=["window_enrich_sql"]).window_enrich_sql(),
        "rel_zorder_curve": __import__(
            "lucene_solr_ray.ops.layout",
            fromlist=["zorder_events_sql"]).zorder_events_sql(),
        "rel_event_dedup": __import__(
            "lucene_solr_ray.ops.temporal",
            fromlist=["event_window_dedup_sql"]).event_window_dedup_sql(),
        "rel_ewma": __import__(
            "lucene_solr_ray.ops.temporal",
            fromlist=["ewma_per_user_sql"]).ewma_per_user_sql(),
        "rel_attribution": __import__(
            "lucene_solr_ray.ops.temporal",
            fromlist=["attribution_join_sql"]).attribution_join_sql(),
        "rel_ivm_rollup": __import__(
            "lucene_solr_ray.ops.ivm",
            fromlist=["ivm_rollup_sql"]).ivm_rollup_sql(),
        "rel_timeseries_daily": __import__(
            "lucene_solr_ray.ops.temporal",
            fromlist=["timeseries_daily_sql"]).timeseries_daily_sql(),
        "rel_entity_match": __import__(
            "lucene_solr_ray.ops.entity",
            fromlist=["entity_match_pairs_sql"]).entity_match_pairs_sql(),
        "rel_cube": __import__(
            "lucene_solr_ray.ops.relational",
            fromlist=["cube_rollup_sql"]).cube_rollup_sql(),
        "rel_rollup_hierarchy": __import__(
            "lucene_solr_ray.ops.relational",
            fromlist=["rollup_hierarchy_sql"]).rollup_hierarchy_sql(),
        "rel_skyline": __import__(
            "lucene_solr_ray.ops.relational",
            fromlist=["skyline_sql"]).skyline_sql(),
        "rel_table_stats": __import__(
            "lucene_solr_ray.ops.relational",
            fromlist=["table_stats_sql"]).table_stats_sql(),
        "rel_mad_outliers": __import__(
            "lucene_solr_ray.ops.relational",
            fromlist=["mad_outliers_sql"]).mad_outliers_sql(),
        "rel_skew_report": __import__(
            "lucene_solr_ray.ops.relational",
            fromlist=["skew_report_sql"]).skew_report_sql(),
        "text_train_split": __import__(
            "lucene_solr_ray.ops.text",
            fromlist=["train_split_sql"]).train_split_sql(),
        "rel_join_rollup": RS.JOIN_ROLLUP,
        "rel_hierarchical_facet": RS.HIERARCHICAL_FACET,
        "rel_assoc_facet": __import__(
            "lucene_solr_ray.ops.relational",
            fromlist=["ASSOCIATION_FACET_SQL"]).ASSOCIATION_FACET_SQL,
        "rel_percentiles": RS.PERCENTILES,
        "rel_stats_extended": RS.STATS_EXTENDED,
        "rel_sampled_facet": RS.SAMPLED_FACET,
        "stream_expr_rollup": STREAM_ROLLUP_SQL,
        "stream_expr_join_top": STREAM_JOIN_SQL,
        "stream_expr_having": STREAM_HAVING_SQL,
        "stream_expr_complement": STREAM_COMPLEMENT_SQL,
        "stream_expr_stats": STREAM_STATS_SQL,
        "stream_expr_facet": STREAM_FACET_SQL,
        "sql_group_by": SQL_GROUP_BY,
        "sql_select_order": SQL_SELECT_ORDER,
        "sql_distinct": SQL_DISTINCT,
        "sql_stats": SQL_STATS,
        "dih_full_import": DIH_FULL_IMPORT_SQL,
        "tika_pdf_roundtrip": TIKA_PDF_ROUNDTRIP_SQL,
        "tika_pdf_encrypted_roundtrip": TIKA_PDF_ROUNDTRIP_SQL,
        "tika_pdf_aes256_roundtrip": TIKA_PDF_ROUNDTRIP_SQL,
        "tika_docx_roundtrip": TIKA_PDF_ROUNDTRIP_SQL,
        "tika_media_extract": TIKA_MEDIA_EXTRACT_SQL,
        "video_frame_sample": VIDEO_FRAME_SAMPLE_SQL,
        "rel_block_join_parent": RS.BLOCK_JOIN_PARENT,
        "rel_block_join_facet": RS.BLOCK_JOIN_FACET,
        "rel_block_join_child": RS.BLOCK_JOIN_CHILD,
        "rel_join_score": RS.TERMS_INCLUDING_SCORE,
        "rel_join_score_avg": RS.JOIN_SCORE_AVG,
        "rel_join_score_total": RS.JOIN_SCORE_TOTAL,
        "rel_collapse_expand": RS.COLLAPSE_EXPAND,
        "rel_auto_join": __import__(
            "lucene_solr_ray.ops.joins",
            fromlist=["auto_join_rollup_sql"]).auto_join_rollup_sql(),
        # sketch_hll_users: no SQL twin (HLL approximate by construction);
        # tests/test_sketches.py bounds the error vs the exact count
    }
    return training | rel | {
        "ft_term_hot": ft_term_sql(HOT, 10),
        "ft_term_mid": ft_term_sql(MID, 10),
        "ft_term_rare": ft_term_sql(RARE, 100),
        "ft_bool_and": ft_bool_sql([HOT, HOT2], [], [], 0, 10),
        "ft_bool_or_msm": ft_bool_sql([], [HOT, MID, RARE], [], 2, 10),
        "ft_bool_not": ft_bool_sql([MID], [], [RARE], 0, 10),
        "ft_common_terms": ft_common_terms_sql(["table", "dup"], 0.5, 10),
        "ft_phrase": ft_phrase_sql("fast", "table", 10),
        "ft_term_stats": ft_term_stats_sql(STATS_TERMS),
        "ft_collection_stats": ft_collection_stats_sql(),
        "ft_top_terms": ft_top_terms_sql(20),
        "ft_prefix": _multiterm_sql("term LIKE 's%'", 10),
        "ft_wildcard": _multiterm_sql("term LIKE 's%m'", 10),
        "ft_regexp": _multiterm_sql("regexp_matches(term, '^(ba|cu)')", 10),
        "ft_term_range": _multiterm_sql(
            "term >= 'batch' AND term < 'customer'", 10),
        "ft_fuzzy": _multiterm_sql("levenshtein('tble', term) <= 1", 10),
        "ft_dismax": _dismax_sql(["table", "customer", "vector"], 0.3, 10),
        "ft_span_near": _span_near_sql("fast", "table", 3, 20),
        "ft_suggest": _suggest_sql("s", 10),
        # FST traversal must equal the prefix scan — shared oracle
        "ft_suggest_fst": _suggest_sql("s", 10),
        "ft_suggest_fuzzy": _suggest_fuzzy_sql("vectr", 10, 1),
        "ft_function_boost": _function_boost_sql("table", 100.0, 10),
        "ft_term_vector": _term_vector_sql(0),
        "ft_term_vector_positions": _term_vector_positions_sql(0),
        "ft_filter_lang": _filtered_sql("table", "lang", "en", 10),
        "ft_facet_lang": _result_facet_sql("table", "lang"),
        "ft_drill_sideways": _drill_sideways_sql(
            "table", {"lang": "en", "source": "src5"}),
        "ft_terms_set": _multiterm_sql(
            "term IN ('dup', 'vector', 'stream')", 10),
        "ft_graph_terms": _graph_terms_sql(
            ["table", "vector", "dup", "stream"]),
        "ft_parsed_bool": ft_bool_sql(["table", "customer"], ["vector"],
                                      [], 0, 10),
        "ft_parsed_grouped": _parsed_grouped_sql(10),
        "ft_parsed_phrase_prefix": _parsed_phrase_prefix_sql(10),
        "ft_parsed_field": _parsed_field_sql("table", "lang", "en", 10),
        "ft_parsed_not": _parsed_not_sql("table", "dup", 10),
        "ft_phrase_slop": ft_phrase_slop_sql("fast", "table", 2, 10),
        "ft_numeric_range": _numeric_range_sql("n_chars", 250, 350, 10),
        "ft_numeric_range_bkd": _numeric_range_sql("n_chars", 250, 350,
                                                   10),
        "ft_sort_by_field": _sort_by_field_sql("table", "n_chars", 10),
        "ft_spellcheck": _spellcheck_sql("ort", 2, 5),
        "ft_spellcheck_collate": _spellcheck_collate_sql(
            ["fast", "tble", "scan"], "tble", 2),
        "ft_synonym_term": _synonym_term_sql("batch", 10),
        "ft_minimal_stem": _minimal_stem_sql("tables", 10),
        "ft_payload_sum": _payload_score_sql("table", "sum", 10),
        "ft_payload_span": _payload_span_sql("table", "avg", 10),
        "ft_explain_term": ft_term_sql(MID, 10),
        "ft_terms_component": _terms_component_sql("ta", None, 2, 20),
        "ft_suggest_infix": _suggest_infix_sql("tab", 10),
        "ft_word_breaks": _word_breaks_sql("fasttable", 2, 5),
        "ft_word_combos": _word_combos_sql(["ta", "ble", "scan"], 5),
        "ft_ltr_rerank": _ltr_rerank_sql("table", 10),
        "ft_ltr_features": ft_ltr_features_sql(),
        "ft_suggest_blended": _suggest_blended_sql("tab", 10),
        "ft_mlt_terms": _mlt_terms_sql(0, 5),
        # round-1 rows-only, now fully paired: selection + ordered-sum
        # BM25 scoring in one twin
        "ft_more_like_this": _mlt_sql(0, 5, 10),
        # round-1 rows-only classifiers, now exact twins (per-probe MLT
        # neighbors / ordered-sum NB log-likelihoods + majority rules)
        "ft_classify_knn": _classify_knn_sql(20),
        "ft_classify_nb": _classify_nb_sql(20),
        "ft_classify_perceptron": _classify_perceptron_sql(100, 20),
        "ft_term_automaton_nfa": _automaton_nfa_cycle_sql(10),
        "dedup_simhash": _simhash_sql(),
        "text_fingerprint": _fingerprint_sql(),
        # the whole sketch reproduced in SQL — approximate vs the TRUE
        # count, but deterministic and bit-matched vs the engine
        "sketch_hll_users": _hll_sql(),
        "text_pack_sequences": _pack_sequences_sql(128),
        # byte-exact presentation twin: char-scan first-token match
        "ft_highlight": _highlight_sql("table"),
        "ft_highlight_passages": _highlight_passages_sql(["table", "scan"]),
        "ft_highlight_fvh": _highlight_fvh_sql(["fast", "table"]),
        "ft_suggest_free_text": _free_text_suggest_sql("fast", 10),
        "ft_frange": _frange_sql("recip(dl,1,100,100)", 0.6, 0.65, 10),
        "rel_date_range_facet": _date_range_facet_sql(
            "NOW/DAY-30DAYS", "NOW/DAY", "+5DAYS"),
        "rel_facet_prefix": REL_FACET_PREFIX_SQL,
        "rel_group_ngroups": REL_GROUP_NGROUPS_SQL,
        "graph_gather_nodes": """
SELECT DISTINCT l_suppkey AS node, CAST(2 AS BIGINT) AS level
FROM orders JOIN lineitem ON l_orderkey = o_orderkey
WHERE o_custkey IN (1, 2, 3)
ORDER BY node
""",
        "graph_shortest_path": """
WITH RECURSIVE
e AS (SELECT DISTINCT o_custkey AS c, l_suppkey AS s
      FROM orders JOIN lineitem ON l_orderkey = o_orderkey),
bfs(kind, node, d) AS (
  SELECT 'c', 1, 0
  UNION
  SELECT CASE WHEN b.kind = 'c' THEN 's' ELSE 'c' END,
         CASE WHEN b.kind = 'c' THEN e.s ELSE e.c END,
         b.d + 1
  FROM bfs b JOIN e ON (b.kind = 'c' AND e.c = b.node)
                    OR (b.kind = 's' AND e.s = b.node)
  WHERE b.d < 8
)
SELECT (min(d) IS NOT NULL) AS found,
       CAST(COALESCE(min(d), -1) AS BIGINT) AS hops
FROM bfs WHERE kind = 'c' AND node = 2
""",
        "text_gopher_rules": QF.gopher_rules_sql(),
        "text_repetition": QF.repetition_metrics_sql(),
        "pipeline_pretrain": pretrain_report_sql(
            0.05, 4, JACCARD_THRESHOLD),
        # twin of ops.pretrain.pack_sequences: the same \S+ RE2 token
        # count, a window prefix sum over (n_tokens + 1 EOS) in doc_id
        # order, seq_len=128 integer-division pack windows
        "pipeline_pack_sequences": r"""
WITH t AS (
  SELECT doc_id,
         CAST(coalesce(len(regexp_extract_all(text, '\S+')), 0)
              AS BIGINT) AS n_tokens
  FROM documents),
o AS (
  SELECT doc_id, n_tokens,
         CAST(coalesce(SUM(n_tokens + 1) OVER (ORDER BY doc_id
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
              AS BIGINT) AS start_off
  FROM t)
SELECT doc_id, n_tokens, start_off,
       start_off // 128 AS pack_first,
       (start_off + GREATEST(n_tokens, 1) - 1) // 128 AS pack_last
FROM o ORDER BY doc_id
""",
        "text_contamination": QF.contamination_sql(),
        "text_bloom_decontam": QF.bloom_contamination_sql(),
        "text_unigram_lm": QF.unigram_logprob_sql(),
        "text_dsir_weights": QF.dsir_weights_sql(),
        "text_bigram_lm": QF.bigram_logprob_sql(),
        "text_mixture_rebalance": QF.mixture_rebalance_sql(),
        "ft_lm_dirichlet": _lm_dirichlet_sql("table", 2000.0, 10),
        "ft_lm_jelinek_mercer": _lm_jelinek_mercer_sql("table", 0.7, 10),
        "ft_dfr_inl2": _dfr_inl2_sql("table", 1.0, 10),
        "ft_sweet_spot": _sweetspot_sql("table", 30, 60, 10),
        "ft_classic_tfidf": _classic_tfidf_sql("table", 10),
        "ft_multi_sim": _multi_sim_sql("table", 10),
        "ft_dfr_pl2": _dfr_matrix_sql("table", "pl2"),
        "ft_dfr_gb1": _dfr_matrix_sql("table", "gb1"),
        "ft_dfr_ineb3": _dfr_matrix_sql("table", "ineb3"),
        "ft_dfr_dz": _dfr_matrix_sql("table", "dz"),
        "ft_dfr_ifb2": _dfr_matrix_sql("table", "ifb2"),
        "ft_ib_ll": _ib_sql("table", "ll", 1.0, 10),
        "ft_ib_spl": _ib_sql("table", "spl", 1.0, 10),
        "ft_rerank": _rerank_sql("table", "vector", 50, 2.0, 10),
        "ft_multi_phrase": _multi_phrase_sql([["fast", "slow"], ["table"]],
                                             10),
        "ft_span_first": _span_first_sql("scan", 20, 20),
        "ft_span_not": _span_not_sql("table", "slow", 2, 20),
        "ft_span_or": _span_or_sql(["fast", "slow"], 20),
        "ft_span_containing": _span_containing_sql("fast", "table", "scan",
                                                   6, 20),
        "ft_span_within": _span_within_sql("fast", "table", "scan", 6, 20),
        "ft_span_position_range": _span_position_range_sql("scan", 5, 15,
                                                           20),
        "geo_bbox": _geo_bbox_sql(),
        "ft_maxscore": _dismax_sql(["table", "customer", "vector"], 0.3, 10),
        "ft_collapse": _collapse_sql("table", "lang", 10),
        "urp_pipeline": URP_PIPELINE_SQL,
        "analytics_stats": _analytics_stats_oracle(),
        "analytics_facet": _analytics_facet_oracle(),
        "geo3d_circle": _geo3d_circle_oracle(),
        "geo3d_path": _geo3d_path_oracle(),
        "geo3d_circle_wgs84": _geo3d_circle_wgs84_oracle(),
        "geo3d_path_wgs84": _geo3d_path_wgs84_oracle(),
        "geo_distance": _geo_distance_sql(),
        "geo_polygon": _geo_polygon_sql(),
        "geo_heatmap": _geo_heatmap_sql(),
        # the RPT cover+verify must equal the exact box filter, so it
        # shares geo_bbox's oracle verbatim
        "geo_bbox_rpt": _geo_bbox_sql(),
        # BKD leaf pruning + the same exact predicate == the box filter
        "geo_bbox_bkd": _geo_bbox_sql(),
        "geo_sort_distance": _geo_sort_sql(50),
        "ft_bool_qparser": _bool_qparser_sql("table", "fast", "slow",
                                             "en", 10),
        "ft_switch_qparser": ft_term_sql("table", 10),
        "ft_field_qparser": ft_phrase_sql("fast", "table", 10),
        "ft_boost_qparser": _expr_boost_sql("table",
                                            "recip(dl,1,100,100)", 10),
        "ft_blended_term": _blended_sql(["fast", "slow", "rapid"], 10),
        "ft_edge_ngram": _edge_ngram_sql("tab", 10, 2, 4),
        "ft_shingle": _shingle_sql("fast", "table", 10),
        "ft_expr_boost": _expr_boost_sql(
            "table", "product(recip(dl,1,100,100),sqrt(n_chars))", 10),
        "ft_expr_math": _expr_boost_sql(
            "customer",
            "if(mod(n_chars,2),sqrt(dl),recip(dl,1,50,50))", 10),
        "ft_expr_dist": _expr_boost_sql(
            "vector", "recip(dist(1,dl,n_chars,40,300),1,500,500)", 10),
        "ft_expr_termfreq": _expr_boost_sql(
            "table",
            "product(sum(1,termfreq(text,'vector')),recip(dl,1,100,100))",
            10),
        "ft_expr_query": _expr_boost_sql(
            "table", "sum(1,query('vector'))", 10),
        "ft_expr_ord": _expr_boost_sql(
            "customer", "div(ord(n_chars),sum(rord(n_chars),1))", 10),
        "ft_expr_strdist": _expr_boost_sql(
            "table", "sum(1,strdist(lang,'en',edit))", 10),
        "ft_expr_strdist_jw": _expr_boost_sql(
            "table", "sum(1,strdist(lang,'en',jarowinkler))", 10),
        "ft_expr_js": _expr_boost_sql(
            "table", "1 + sqrt(n_chars) * 0.25 - dl % 7", 10,
            syntax="js"),
        "ft_external_boost": _external_boost_sql("table", 10),
        "ft_elevation": _elevation_sql("table", 2, 10),
        "ft_suggest_weighted": _suggest_weighted_sql("s", 10, "lang", "en"),
        "ft_dv_numbers": _dv_numbers_sql("n_chars", [250, 300, 350], 10),
        "ft_dv_terms": _dv_terms_sql("lang", ["de", "fr"], 10),
        "ft_dv_range": _dv_range_sql("lang", "de", "es", 10),
        "ft_term_automaton": _automaton_sql([["fast", "slow"], "*",
                                             ["scan"]], 10),
        "ft_edismax": _edismax_sql(
            ["spark", "src13", "merge", "scan"], "window",
            "source", 1.5, "2<75%", 0.3, 0.5, 10),
        "ft_word_delimiter": _word_delimiter_sql("13", 10),
        "ft_simple_parsed": _parsed_grouped_sql(10),
        "ft_simple_not": _parsed_not_sql("table", "dup", 10),
        # the wildcard slot expands to exactly {table} over this corpus,
        # so the MultiPhrase twin is the oracle
        "ft_complex_phrase": _multi_phrase_sql([["fast", "slow"],
                                                ["table"]], 10),
        "ft_surround_w": _span_near_sql("key", "order", 2, 20),
        "ft_surround_n": _span_near_unordered_sql("fast", "table", 3, 20),
        "ft_surround_expand": _surround_expand_sql("key", "ord*", 2, 20,
                                                   ordered=True),
        "ft_surround_expand_n": _surround_expand_sql("ta*", "scan", 3, 20,
                                                     ordered=False),
        # the XML DSL reduces to the same tree as "+table +customer vector"
        "ft_xml_parsed": ft_bool_sql(["table", "customer"], ["vector"],
                                     [], 0, 10),
        # The stemmers ARE SQL-expressible after all
        # (analysis/{porter,snowball,kstem}_sql.py):
        "ft_stemmed_term": _stemmed_term_sql("query", 10),
        "ft_snowball_term": _snowball_term_sql("queries", 10),
        "ft_kstem_term": _kstem_term_sql("tables", 10),
        # ... and so is Double Metaphone (analysis/metaphone_sql.py):
        "ft_phonetic_term": _phonetic_term_sql("tabel", 10),
    }


def _q_edismax(q, qf, mm, tie, pf, k=10):
    """ExtendedDisMax front door (solr:search/ExtendedDismaxQParser.java):
    lenient parse, per-word DisMax across qf (text BM25 ⊕ keyword
    constant-score), mm spec, bigram (pf2) phrase boosts."""
    def run(sf_dir):
        return _topk_table(_searcher(sf_dir).search_edismax(
            q, qf=qf, mm=mm, tie=tie, pf_boost=pf, k=k))
    return run


def _edismax_sql(words, not_word, kw_field, kw_boost, mm_spec, tie,
                 pf_boost, k):
    """DuckDB twin of the edismax driver query: per-word DisMax
    greatest/sum over 0-defaulted field scores, mm count over matched
    clauses, left-to-right clause-sum + bigram phrase boosts — the same
    float64 shapes as search/edismax.py (see its parity contract)."""
    from ..search.edismax import calculate_min_should_match

    mm_n = calculate_min_should_match(mm_spec, len(words))
    all_terms = ", ".join(f"'{w}'" for w in (list(words) + [not_word]))
    c_cols = ",\n        ".join(
        f"COALESCE(max(CASE WHEN term = '{w}' THEN sc END), 0) AS c{i}"
        for i, w in enumerate(words))
    kw = {i: f"(CASE WHEN d.{kw_field} = '{w}' THEN {kw_boost} "
            f"ELSE 0 END)" for i, w in enumerate(words)}
    clause_cols = ",\n         ".join(
        f"greatest(COALESCE(b.c{i}, 0), {kw[i]}) + {tie} * "
        f"((COALESCE(b.c{i}, 0) + {kw[i]}) "
        f"- greatest(COALESCE(b.c{i}, 0), {kw[i]})) AS s{i},\n         "
        f"(COALESCE(b.c{i}, 0) > 0 OR {kw[i]} > 0) AS m{i}"
        for i in range(len(words)))
    m_sum = " + ".join(f"CAST(m{i} AS BIGINT)" for i in range(len(words)))
    s_sum = " + ".join(f"s{i}" for i in range(len(words)))
    # bigram phrase-boost CTEs (pf2); a bigram with an unindexed term
    # yields zero rows and COALESCEs to 0
    pf_ctes, pf_adds, pf_joins = [], [], []
    for i, (w1, w2) in enumerate(zip(words, words[1:])):
        pf_ctes.append(f"""
pfc{i} AS (SELECT a.doc_id, count(*) AS pfreq
           FROM clean a JOIN clean b
             ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
           WHERE a.term = '{w1}' AND b.term = '{w2}'
           GROUP BY a.doc_id),
pfi{i} AS (SELECT ln(1 + (s.n_docs - d1.df + 0.5) / (d1.df + 0.5))
                + ln(1 + (s.n_docs - d2.df + 0.5) / (d2.df + 0.5)) AS v
           FROM stats s,
                (SELECT count(DISTINCT doc_id) AS df FROM clean
                 WHERE term = '{w1}' HAVING count(*) > 0) d1,
                (SELECT count(DISTINCT doc_id) AS df FROM clean
                 WHERE term = '{w2}' HAVING count(*) > 0) d2),
pfs{i} AS (SELECT p.doc_id,
                  i.v * (p.pfreq * ({K1_SQL} + 1))
                    / (p.pfreq + {K1_SQL} * ((1 - {B_SQL})
                       + ({B_SQL} * dl.dl)
                       / (CAST(s.sum_dl AS DOUBLE) / s.n_docs))) AS ph
           FROM pfc{i} p JOIN dl USING (doc_id), pfi{i} i, stats s)""")
        pf_adds.append(f"{pf_boost} * COALESCE(pfs{i}.ph, 0)")
        pf_joins.append(f"LEFT JOIN pfs{i} ON pfs{i}.doc_id = cl.doc_id")
    pf_block = ("," + ",".join(pf_ctes)) if pf_ctes else ""
    return f"""
WITH {_tok_ctes()},
per AS (SELECT doc_id, term, count(*) AS tf FROM clean
        WHERE term IN ({all_terms}) GROUP BY doc_id, term),
dfs AS (SELECT term, count(*) AS df FROM per GROUP BY term),
cs AS (SELECT per.doc_id, per.term,
              {_bm25_expr('per.tf', 'dl.dl', 'dfs.df')} AS sc
       FROM per JOIN dfs USING (term) JOIN dl USING (doc_id), stats s),
byc AS (SELECT doc_id,
        {c_cols},
        COALESCE(max(CASE WHEN term = '{not_word}' THEN 1 END), 0) = 1
          AS text_not
        FROM cs GROUP BY doc_id),
cl AS (SELECT d.doc_id,
         {clause_cols},
         (COALESCE(b.text_not, FALSE) OR d.{kw_field} = '{not_word}')
           AS has_not
       FROM documents d LEFT JOIN byc b ON b.doc_id = d.doc_id){pf_block},
scored AS (
  SELECT cl.doc_id, ({s_sum}){"".join(" + " + a for a in pf_adds)} AS score
  FROM cl {" ".join(pf_joins)}
  WHERE NOT cl.has_not AND ({m_sum}) >= {mm_n}
)
{_sql_topk('scored', k)}
"""


def flagship_entry():
    """Flagship pipeline on sf0.001: build the fulltext index via Ray Data,
    run a representative query mix, return the merged top-k table."""
    sf = "/root/testdata/sf0.001"
    tables = []
    for name in ("ft_term_hot", "ft_bool_and", "ft_phrase"):
        t = build_queries()[name](sf)
        tables.append(t.append_column("query", pa.array([name] * t.num_rows)))
    return pa.concat_tables(tables)

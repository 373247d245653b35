"""Double Metaphone (primary code) as generated DuckDB SQL — the
oracle twin of ``analysis.metaphone.double_metaphone_transform``.

The encoder is a while-loop state machine over character positions; in
SQL it becomes a WITH RECURSIVE walk carrying ``(i, prim, nent)`` per
word, where every Python if/elif branch is one ordered CASE row and the
three per-step decisions (first emission, second emission, advance) are
three parallel CASE chains over the same ordered conditions.

Two subtleties the state encodes exactly:

- the 4-symbol cap counts list ENTRIES, not characters (an entry may be
  2 chars like ``KS`` or the EMPTY string from ``add_alt("", ...)``),
  so ``nent`` is tracked separately from ``prim`` and the final code is
  ``left(prim, 4)``;
- the W branch can emit TWICE in one iteration (the word-initial
  ``A`` and then the ``WICZ/WITZ`` → ``TS``), hence the second
  emission slot with its own remaining-capacity guard.

Python-to-SQL index mapping: the SQL ``i`` is 1-based, Python's is
0-based; ``_at(s, py_i + d)`` → ``substr(s, i + d, 1)`` (guarded for
negative offsets, where Python returns ``""``). Only the primary code
is produced: the loop may run longer while the secondary is unfilled,
but those iterations cannot change the primary (``add`` is guarded), so
stopping at ``nent >= 4`` is primary-equivalent.

Scope: ASCII letters (the engine's tokens); the Ç/Ñ branches never
arise after the ``[^A-Z ]`` strip.
"""

from __future__ import annotations

_V = "('A', 'E', 'I', 'O', 'U', 'Y')"
_SLAVO = "(contains(s, 'W') OR contains(s, 'K') OR contains(s, 'CZ'))"


def _at(d: int) -> str:
    """_at(s, py_i + d): one char at offset d from the cursor."""
    if d >= 0:
        return f"substr(s, i + {d}, 1)"
    return (f"(CASE WHEN i - {-d} >= 1 THEN substr(s, i - {-d}, 1) "
            f"ELSE '' END)")


def _has(d: int, *opts: str) -> str:
    """_contains(s, py_i + d, len, *opts): cursor-relative window."""
    L = len(opts[0])
    lst = ", ".join(f"'{o}'" for o in opts)
    if d >= 0:
        return f"substr(s, i + {d}, {L}) IN ({lst})"
    return f"(i - {-d} >= 1 AND substr(s, i - {-d}, {L}) IN ({lst}))"


def _abs(py_start: int, *opts: str) -> str:
    """_contains(s, <absolute py start>, len, *opts)."""
    L = len(opts[0])
    lst = ", ".join(f"'{o}'" for o in opts)
    return f"substr(s, {py_start + 1}, {L}) IN ({lst})"


def _adv2_if(nxt: str, *chars: str) -> str:
    lst = ", ".join(f"'{c}'" for c in chars)
    return f"CASE WHEN {nxt} IN ({lst}) THEN 2 ELSE 1 END"


def _rows():
    """Ordered (cond, emit1, emit2, adv) rows — the Python elif chain
    flattened; emit None = no entry, '' = an EMPTY entry."""
    R = []

    def r(cond, e1, adv, e2=None):
        R.append((cond, e1, e2, adv))

    at1 = _at(1)
    # vowels
    r(f"substr(s, i, 1) IN {_V} AND i = 1", "A", "1")
    r(f"substr(s, i, 1) IN {_V}", None, "1")
    # B
    r("substr(s, i, 1) = 'B'", "P", _adv2_if(at1, "B"))
    # C
    C = "substr(s, i, 1) = 'C'"
    r(f"{C} AND i > 2 AND {_at(-2)} NOT IN {_V} AND {_has(-1, 'ACH')} "
      f"AND {_at(2)} != 'I' AND ({_at(2)} != 'E' "
      f"OR {_has(-2, 'BACHER', 'MACHER')})", "K", "2")
    r(f"{C} AND i = 1 AND {_has(0, 'CAESAR')}", "S", "2")
    r(f"{C} AND {_has(0, 'CHIA')}", "K", "2")
    CH = f"{C} AND {_has(0, 'CH')}"
    r(f"{CH} AND i > 1 AND {_has(0, 'CHAE')}", "K", "2")
    r(f"{CH} AND i = 1 AND ({_has(1, 'HARAC', 'HARIS')} "
      f"OR {_has(1, 'HOR', 'HYM', 'HIA', 'HEM')}) "
      f"AND NOT {_abs(0, 'CHORE')}", "K", "2")
    r(f"{CH} AND ({_abs(0, 'VAN ', 'VON ')} OR {_abs(0, 'SCH')} "
      f"OR {_has(-2, 'ORCHES', 'ARCHIT', 'ORCHID')} "
      f"OR {_has(2, 'T', 'S')} "
      f"OR ((i = 1 OR {_at(-1)} IN ('A', 'O', 'U', 'E')) "
      f"AND ({_at(2)} IN ('L', 'R', 'N', 'M', 'B', 'H', 'F', 'V', 'W', "
      f"' ') OR i > length(s) - 2)))", "K", "2")
    r(f"{CH} AND i > 1 AND {_abs(0, 'MC')}", "K", "2")
    r(f"{CH} AND i > 1", "X", "2")
    r(f"{CH}", "X", "2")
    r(f"{C} AND {_has(0, 'CZ')} AND NOT {_has(-2, 'WICZ')}", "S", "2")
    r(f"{C} AND {_has(1, 'CIA')}", "X", "3")
    CC = (f"{C} AND {_has(0, 'CC')} "
          f"AND NOT (i = 2 AND substr(s, 1, 1) = 'M')")
    CCIEH = (f"{CC} AND {_has(2, 'I', 'E', 'H')} "
             f"AND NOT {_has(2, 'HU')}")
    r(f"{CCIEH} AND ((i = 2 AND {_at(-1)} = 'A') "
      f"OR {_has(-1, 'UCCEE', 'UCCES')})", "KS", "3")
    r(f"{CCIEH}", "X", "3")
    r(f"{CC}", "K", "2")
    r(f"{C} AND {_has(0, 'CK', 'CG', 'CQ')}", "K", "2")
    r(f"{C} AND {_has(0, 'CI', 'CE', 'CY')}", "S", "2")
    r(f"{C}", "K",
      f"CASE WHEN {_has(1, ' C', ' Q', ' G')} THEN 3 "
      f"WHEN {at1} IN ('C', 'K', 'Q') AND NOT {_has(1, 'CE', 'CI')} "
      f"THEN 2 ELSE 1 END")
    # D
    D = "substr(s, i, 1) = 'D'"
    # NB: the engine's ``_at`` returns "" past the end and Python's
    # ``"" in "IEY"`` is True, so a word-FINAL DG takes the J branch
    # (same quirk in SC and in the G E/I/Y test below).
    r(f"{D} AND {_has(0, 'DG')} AND ({_at(2)} IN ('I', 'E', 'Y') "
      f"OR i + 2 > length(s))", "J", "3")
    r(f"{D} AND {_has(0, 'DG')}", "TK", "2")
    r(f"{D} AND {_has(0, 'DT', 'DD')}", "T", "2")
    r(f"{D}", "T", "1")
    # F
    r("substr(s, i, 1) = 'F'", "F", _adv2_if(at1, "F"))
    # G
    G = "substr(s, i, 1) = 'G'"
    GH = f"{G} AND {at1} = 'H'"
    r(f"{GH} AND i > 1 AND {_at(-1)} NOT IN {_V}", "K", "2")
    r(f"{GH} AND i = 1 AND {_at(2)} = 'I'", "J", "2")
    r(f"{GH} AND i = 1", "K", "2")
    r(f"{GH} AND ((i > 2 AND {_at(-2)} IN ('B', 'H', 'D')) "
      f"OR (i > 3 AND {_at(-3)} IN ('B', 'H', 'D')) "
      f"OR (i > 4 AND {_at(-4)} IN ('B', 'H')))", None, "2")
    r(f"{GH} AND i > 3 AND {_at(-1)} = 'U' "
      f"AND {_at(-3)} IN ('C', 'G', 'L', 'R', 'T')", "F", "2")
    r(f"{GH} AND i > 1 AND {_at(-1)} != 'I'", "K", "2")
    r(f"{GH}", None, "2")
    GN = f"{G} AND {at1} = 'N'"
    r(f"{GN} AND i = 2 AND substr(s, 1, 1) IN {_V} AND NOT {_SLAVO}",
      "KN", "2")
    r(f"{GN} AND NOT {_has(2, 'EY')} AND {at1} != 'Y' "
      f"AND NOT {_SLAVO}", "N", "2")
    r(f"{GN}", "KN", "2")
    r(f"{G} AND {_has(1, 'LI')} AND NOT {_SLAVO}", "KL", "2")
    r(f"{G} AND i = 1 AND ({at1} = 'Y' "
      f"OR {_has(1, 'ES', 'EP', 'EB', 'EL', 'EY', 'IB', 'IL', 'IN', 'IE', 'EI', 'ER')})",
      "K", "2")
    r(f"{G} AND ({_has(1, 'ER')} OR {at1} = 'Y') "
      f"AND NOT {_abs(0, 'DANGER', 'RANGER', 'MANGER')} "
      f"AND {_at(-1)} NOT IN ('E', 'I') AND NOT {_has(-1, 'RGY', 'OGY')}",
      "K", "2")
    GEIY = (f"{G} AND ({at1} IN ('E', 'I', 'Y') OR i = length(s) "
            f"OR {_has(-1, 'AGGI', 'OGGI')})")
    r(f"{GEIY} AND ({_abs(0, 'VAN ', 'VON ')} OR {_abs(0, 'SCH')} "
      f"OR {_has(1, 'ET')})", "K", "2")
    r(f"{GEIY}", "J", "2")
    r(f"{G}", "K", _adv2_if(at1, "G"))
    # H
    r(f"substr(s, i, 1) = 'H' AND (i = 1 OR {_at(-1)} IN {_V}) "
      f"AND {at1} IN {_V}", "H", "2")
    r("substr(s, i, 1) = 'H'", None, "1")
    # J
    J = "substr(s, i, 1) = 'J'"
    JOSE = f"({_has(0, 'JOSE')} OR {_abs(0, 'SAN ')})"
    advj = _adv2_if(at1, "J")
    r(f"{J} AND {JOSE} AND ((i = 1 AND ({_at(4)} = ' ' "
      f"OR length(s) = 4)) OR {_abs(0, 'SAN ')})", "H", "1")
    r(f"{J} AND {JOSE}", "J", "1")
    r(f"{J} AND i = 1", "J", advj)
    r(f"{J} AND {_at(-1)} IN {_V} AND NOT {_SLAVO} "
      f"AND {at1} IN ('A', 'O')", "J", advj)
    r(f"{J} AND i = length(s)", "J", advj)
    r(f"{J} AND {at1} NOT IN ('L', 'T', 'K', 'S', 'N', 'M', 'B', 'Z') "
      f"AND {_at(-1)} NOT IN ('S', 'K', 'L')", "J", advj)
    r(f"{J}", None, advj)
    # K
    r("substr(s, i, 1) = 'K'", "K", _adv2_if(at1, "K"))
    # L (the spanish add_alt('L','') still puts L in the primary)
    r(f"substr(s, i, 1) = 'L' AND {at1} = 'L'", "L", "2")
    r("substr(s, i, 1) = 'L'", "L", "1")
    # M
    r("substr(s, i, 1) = 'M'", "M",
      f"CASE WHEN ({_has(-1, 'UMB')} AND (i = length(s) - 1 "
      f"OR {_has(2, 'ER')})) OR {at1} = 'M' THEN 2 ELSE 1 END")
    # N
    r("substr(s, i, 1) = 'N'", "N", _adv2_if(at1, "N"))
    # P
    r(f"substr(s, i, 1) = 'P' AND {at1} = 'H'", "F", "2")
    r("substr(s, i, 1) = 'P'", "P", _adv2_if(at1, "P", "B"))
    # Q
    r("substr(s, i, 1) = 'Q'", "K", _adv2_if(at1, "Q"))
    # R (french final -ier: empty primary ENTRY)
    advr = _adv2_if(at1, "R")
    r(f"substr(s, i, 1) = 'R' AND i = length(s) AND NOT {_SLAVO} "
      f"AND {_has(-2, 'IE')} AND NOT {_has(-4, 'ME', 'MA')}", "", advr)
    r("substr(s, i, 1) = 'R'", "R", advr)
    # S
    S = "substr(s, i, 1) = 'S'"
    r(f"{S} AND {_has(-1, 'ISL', 'YSL')}", None, "1")
    r(f"{S} AND i = 1 AND {_has(0, 'SUGAR')}", "X", "1")
    SH = f"{S} AND {_has(0, 'SH')}"
    r(f"{SH} AND {_has(1, 'HEIM', 'HOEK', 'HOLM', 'HOLZ')}", "S", "2")
    r(f"{SH}", "X", "2")
    r(f"{S} AND ({_has(0, 'SIO', 'SIA')} OR {_has(0, 'SIAN')})",
      "S", "3")
    r(f"{S} AND ((i = 1 AND {at1} IN ('M', 'N', 'L', 'W')) "
      f"OR {at1} = 'Z')", "S", _adv2_if(at1, "Z"))
    SC = f"{S} AND {_has(0, 'SC')}"
    SCH6 = (f"{SC} AND {_at(2)} = 'H' "
            f"AND {_has(3, 'OO', 'ER', 'EN', 'UY', 'ED', 'EM')}")
    r(f"{SCH6} AND {_has(3, 'ER', 'EN')}", "X", "3")
    r(f"{SCH6}", "SK", "3")
    r(f"{SC} AND {_at(2)} = 'H'", "X", "3")
    r(f"{SC} AND ({_at(2)} IN ('I', 'E', 'Y') OR i + 2 > length(s))",
      "S", "3")
    r(f"{SC}", "SK", "3")
    r(f"{S} AND i = length(s) AND {_has(-2, 'AI', 'OI')}", "", "1")
    r(f"{S}", "S", _adv2_if(at1, "S", "Z"))
    # T
    T = "substr(s, i, 1) = 'T'"
    r(f"{T} AND ({_has(0, 'TION')} OR {_has(0, 'TIA', 'TCH')})",
      "X", "3")
    TH = f"{T} AND ({_has(0, 'TH')} OR {_has(0, 'TTH')})"
    r(f"{TH} AND ({_has(2, 'OM', 'AM')} OR {_abs(0, 'VAN ', 'VON ')} "
      f"OR {_abs(0, 'SCH')})", "T", "2")
    r(f"{TH}", "0", "2")
    r(f"{T}", "T", _adv2_if(at1, "T", "D"))
    # V
    r("substr(s, i, 1) = 'V'", "F", _adv2_if(at1, "V"))
    # W — the one branch with a possible SECOND emission per step
    W = "substr(s, i, 1) = 'W'"
    r(f"{W} AND {_has(0, 'WR')}", "R", "2")
    WPRE = (f"i = 1 AND ({at1} IN {_V} OR {_has(0, 'WH')})")
    WEND = (f"((i = length(s) AND {_at(-1)} IN {_V}) "
            f"OR {_has(-1, 'EWSKI', 'EWSKY', 'OWSKI', 'OWSKY')} "
            f"OR {_abs(0, 'SCH')})")
    WICZ = _has(0, "WICZ", "WITZ")
    r(f"{W} AND {WPRE} AND {WEND}", "A", "1", e2="")
    r(f"{W} AND {WPRE} AND {WICZ}", "A", "4", e2="TS")
    r(f"{W} AND {WPRE}", "A", "1")
    r(f"{W} AND {WEND}", "", "1")
    r(f"{W} AND {WICZ}", "TS", "4")
    r(f"{W}", None, "1")
    # X
    advx = _adv2_if(at1, "C", "X")
    r(f"substr(s, i, 1) = 'X' AND NOT (i = length(s) "
      f"AND ({_has(-3, 'IAU', 'EAU')} OR {_has(-2, 'AU', 'OU')}))",
      "KS", advx)
    r("substr(s, i, 1) = 'X'", None, advx)
    # Z
    r(f"substr(s, i, 1) = 'Z' AND {at1} = 'H'", "J", "2")
    r("substr(s, i, 1) = 'Z'", "S", _adv2_if(at1, "Z"))
    return R


def _case(rows, pick, default):
    whens = " ".join(f"WHEN {c} THEN {pick(c, e1, e2, adv)}"
                     for c, e1, e2, adv in rows)
    return f"CASE {whens} ELSE {default} END"


def _lit(e):
    return "NULL" if e is None else f"'{e}'"


def metaphone_ctes(words: str = "mwords") -> str:
    """CTE chain ``<words>(term) -> mcodes(term, code)`` implementing
    double_metaphone_transform (primary code; empty code keeps the
    term, so digit-bearing tokens pass through). mcodes is
    MATERIALIZED so a caller that reads it twice runs the recursive
    walk once."""
    rows = _rows()
    e1 = _case(rows, lambda c, a, b, v: _lit(a), "NULL")
    e2 = _case(rows, lambda c, a, b, v: _lit(b), "NULL")
    adv = _case(rows, lambda c, a, b, v: f"({v})", "1")
    return f"""
dm0 AS (SELECT term,
               regexp_replace(upper(term), '[^A-Z ]', '', 'g') AS s
        FROM {words}),
dm1 AS (SELECT term, s,
  CASE WHEN substr(s, 1, 2) IN ('GN', 'KN', 'PN', 'WR', 'PS') THEN 2
       WHEN substr(s, 1, 1) = 'X' THEN 2 ELSE 1 END AS i,
  CASE WHEN substr(s, 1, 1) = 'X' THEN 'S' ELSE '' END AS prim,
  CASE WHEN substr(s, 1, 1) = 'X' THEN 1 ELSE 0 END AS nent
  FROM dm0),
dmr AS (
  SELECT term, s, i, prim, nent FROM dm1
  UNION ALL
  SELECT term, s,
         i + ({adv}) AS i,
         prim || COALESCE({e1}, '')
              || (CASE WHEN ({e2}) IS NOT NULL AND nent
                       + (CASE WHEN ({e1}) IS NULL THEN 0 ELSE 1 END) < 4
                  THEN ({e2}) ELSE '' END) AS prim,
         nent + (CASE WHEN ({e1}) IS NULL THEN 0 ELSE 1 END)
              + (CASE WHEN ({e2}) IS NULL THEN 0 ELSE 1 END) AS nent
  FROM dmr WHERE i <= length(s) AND nent < 4
),
mcodes AS MATERIALIZED (SELECT term,
  CASE WHEN left(arg_max(prim, i), 4) = '' THEN term
       ELSE left(arg_max(prim, i), 4) END AS code
  FROM dmr GROUP BY term)
"""

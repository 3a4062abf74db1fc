"""Input/result file formats. All vertex labels are 1-based in I/O."""

from __future__ import annotations

import json
import os

from . import masks
from .complexes import SimplicialComplex
from .double import BigradedRankTable
from .errors import ParseError, ResourceLimit


def complex_from_dict(doc: dict, max_m: int | None = None) -> SimplicialComplex:
    """The complex a document describes.

    A document whose m exceeds ``max_m`` is refused before any facet is
    expanded, because the closure of one facet on f vertices has 2**f faces.
    ``max_m`` is None for no cap, or an int as for ``CohomologyEngine``;
    anything else raises ``ValueError``.
    """
    if max_m is not None and not masks.is_int(max_m):
        raise ValueError(f"a vertex cap must be an int, got {max_m!r}")
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    m = doc.get("m")
    facets = doc.get("facets")
    if not masks.is_int(m) or m < 1:
        raise ParseError('"m" must be a positive integer')
    if not isinstance(facets, list) or not all(
        isinstance(f, list) and all(masks.is_int(v) for v in f) for f in facets
    ):
        raise ParseError('"facets" must be a list of integer vertex lists')
    if max_m is not None and m > max_m:
        raise ResourceLimit(f"m = {m} exceeds the cap {max_m}")
    return SimplicialComplex.from_facets(m, facets)


def load_complex(path: str | os.PathLike, max_m: int | None = None) -> SimplicialComplex:
    """Read a complex document; ``max_m`` is as in ``complex_from_dict``."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, bytes not UTF-8, nesting too deep
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    return complex_from_dict(doc, max_m)


def complex_to_dict(K: SimplicialComplex, meta: dict | None = None) -> dict:
    doc = {
        "m": K.m,
        "facets": [list(masks.vertices(f)) for f in K.facets],
    }
    if meta:
        doc["meta"] = meta
    return doc


def bidegree_key(neg_k: int, two_l: int) -> str:
    return f"({neg_k},{two_l})"


def table_to_json_dict(table: BigradedRankTable) -> dict:
    return {
        bidegree_key(neg_k, two_l): r
        for (neg_k, two_l), r in sorted(table.entries.items())
    }


def result_document(m: int, char: int, h: BigradedRankTable, hh: BigradedRankTable | None = None) -> dict:
    """The result of ``h``/``hh`` over Q (``char`` 0) or GF(char)."""
    doc: dict = {"m": m, "field": f"GF({char})" if char else "Q", "h": table_to_json_dict(h)}
    if hh is not None:
        doc["hh"] = table_to_json_dict(hh)
        doc["hh_total"] = hh.total()
        doc["hh_rows"] = {str(p): r for p, r in hh.rows().items()}
        doc["euler_hh"] = hh.euler_characteristic()
    return doc


def render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_table_csv(table: BigradedRankTable) -> str:
    lines = ["k,l,rank"]
    for (neg_k, two_l), r in sorted(table.entries.items(), key=lambda e: (-e[0][0], e[0][1])):
        lines.append(f"{-neg_k},{two_l // 2},{r}")
    return "\n".join(lines) + "\n"


def render_table_pretty(table: BigradedRankTable, title: str) -> str:
    lines = [title, "bidegree   rank"]
    for (neg_k, two_l), r in sorted(table.entries.items()):
        lines.append(f"{bidegree_key(neg_k, two_l):<10} {r}")
    lines.append(f"total      {table.total()}")
    return "\n".join(lines) + "\n"

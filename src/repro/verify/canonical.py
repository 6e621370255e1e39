"""Canonical, text-diffable form of a :class:`~repro.core.results.SearchResult`.

Two implementations are *conformant* when their canonical forms are equal:
every reported alignment must match on score, bit score, E-value,
coordinates, subject identifier and the rendered alignment strings — the
paper's "identical output" claim, made mechanical. Alignments are re-sorted under
a total order here, so engines are free to break score ties differently
without that counting as a divergence (no current engine does, but the
canonical form should not depend on it).

The text rendering doubles as the golden-snapshot payload
(:mod:`repro.verify.golden`): stable line-oriented output that diffs
cleanly under ``git diff``.
"""

from __future__ import annotations

import hashlib
from operator import attrgetter
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.results import Alignment, ExtensionArray, SearchResult

#: Bump when the canonical rendering changes incompatibly (golden
#: snapshots embed it, so stale snapshots fail loudly instead of silently
#: comparing different schemas). 2: every gapped alignment carries its
#: extension's score and endpoints (phase 4 walks phase 3's recorded
#: path instead of re-solving the bounding box).
CANONICAL_VERSION = 2


#: Every :class:`~repro.core.results.Alignment` field, in canonical sort
#: order: the comparison key, the process payload and
#: :func:`first_divergence`'s report all read this one list.
#: ``subject_identifier`` sorts last, so it only orders alignments that
#: agree on everything :func:`canonical_text` renders.
_ALIGNMENT_FIELDS = (
    "score", "seq_id", "query_start", "query_end", "subject_start", "subject_end",
    "bit_score", "evalue", "identities", "positives", "gaps",
    "aligned_query", "aligned_subject", "midline", "subject_identifier",
)
_field_values = attrgetter(*_ALIGNMENT_FIELDS)
#: Key positions whose value is transformed (score negated, floats repr'd).
_SCORE = _ALIGNMENT_FIELDS.index("score")
_BIT_SCORE = _ALIGNMENT_FIELDS.index("bit_score")
_EVALUE = _ALIGNMENT_FIELDS.index("evalue")


def _alignment_key(a: "Alignment") -> tuple:
    """Total order + equality key of one alignment."""
    key = list(_field_values(a))
    key[_SCORE] = -key[_SCORE]
    key[_BIT_SCORE] = repr(key[_BIT_SCORE])
    key[_EVALUE] = repr(key[_EVALUE])
    return tuple(key)


def canonical_alignments(result: "SearchResult") -> tuple[tuple, ...]:
    """The result's alignments as a sorted tuple of comparable keys."""
    return tuple(sorted(_alignment_key(a) for a in result.alignments))


def results_equal(a: "SearchResult", b: "SearchResult") -> bool:
    """Whether two results are conformant (identical canonical form)."""
    return canonical_alignments(a) == canonical_alignments(b)


def canonical_text(result: "SearchResult") -> str:
    """Line-oriented canonical rendering (golden-snapshot payload).

    Floats are rendered with :func:`repr`, so the text is exactly as
    strict as the tuple form — a one-ulp E-value drift is a diff. The
    subject identifier is compared (:func:`results_equal`) but not
    rendered, so the text and :func:`result_digest` do not carry it.
    """
    lines = [f"alignments={len(result.alignments)}"]
    for key in canonical_alignments(result):
        (nscore, seq_id, qs, qe, ss, se, bit, ev, idn, pos, gaps, aq, asub, mid, _) = key
        lines.append(
            f"seq={seq_id} score={-nscore} bits={bit} evalue={ev} "
            f"q={qs}-{qe} s={ss}-{se} ident={idn} pos={pos} gaps={gaps}"
        )
        lines.append(f"  Q {aq}")
        lines.append(f"  | {mid}")
        lines.append(f"  S {asub}")
    return "\n".join(lines) + "\n"


def result_digest(result: "SearchResult") -> str:
    """Short content hash of the canonical text (log-friendly identity)."""
    return hashlib.sha256(canonical_text(result).encode()).hexdigest()[:16]


# -- process-boundary payloads ---------------------------------------------
#
# The process-pool executor ships results between worker and parent as
# plain-builtin payloads instead of pickled result objects. Floats cross
# as repr() strings — exactly as strict as the canonical tuple form, so
# decode(encode(r)) has an identical canonical form and digest (the
# conformance matrix's ``process`` variant proves it hit for hit).

#: Scalar counters carried alongside the alignments.
_RESULT_COUNTERS = (
    "query_length", "db_sequences", "db_residues", "num_hits", "num_seeds",
    "num_ungapped_extensions", "num_gapped_extensions", "num_reported",
)


def alignments_to_payload(alignments) -> list[dict]:
    """Alignments as plain dicts (floats repr-encoded), order preserved."""
    out = []
    for a in alignments:
        d = {name: getattr(a, name) for name in _ALIGNMENT_FIELDS}
        d["bit_score"] = repr(a.bit_score)
        d["evalue"] = repr(a.evalue)
        out.append(d)
    return out


def alignments_from_payload(payload: list[dict]) -> list:
    """Rebuild :class:`~repro.core.results.Alignment` objects exactly."""
    from repro.core.results import Alignment

    return [
        Alignment(**{**d, "bit_score": float(d["bit_score"]), "evalue": float(d["evalue"])})
        for d in payload
    ]


def extensions_to_payload(extensions: "ExtensionArray") -> list[list[int]]:
    """Extension stream as six aligned plain-int columns.

    The sweep workers ship phase-2 survivors back to the parent in
    columnar form — one list per :class:`~repro.core.results.ExtensionArray`
    field, plain builtins, order preserved. All-integer columns cross a
    pickle boundary exactly, so ``extensions_from_payload`` is a perfect
    inverse (the conformance matrix's batched-process variants prove it
    row for row).
    """
    return extensions.to_columns()


def extensions_from_payload(columns: list[list[int]]) -> "ExtensionArray":
    """Inverse of :func:`extensions_to_payload`."""
    from repro.core.results import ExtensionArray

    return ExtensionArray.from_columns(columns)


def result_to_payload(result: "SearchResult") -> dict:
    """The result as picklable builtins, exactly reconstructible."""
    return {
        "canonical_version": CANONICAL_VERSION,
        "counters": {name: getattr(result, name) for name in _RESULT_COUNTERS},
        "alignments": alignments_to_payload(result.alignments),
    }


def result_from_payload(payload: dict) -> "SearchResult":
    """Inverse of :func:`result_to_payload`.

    ``result_from_payload(result_to_payload(r))`` equals ``r`` field for
    field: repr-round-tripped floats are bit-exact, alignment order is
    preserved, and :func:`result_digest` is unchanged.
    """
    from repro.core.results import SearchResult

    version = payload.get("canonical_version")
    if version != CANONICAL_VERSION:
        raise ValueError(
            f"result payload has canonical version {version!r}, "
            f"this process expects {CANONICAL_VERSION} (mixed worker builds?)"
        )
    return SearchResult(
        alignments=alignments_from_payload(payload["alignments"]),
        **payload["counters"],
    )


def payload_to_bytes(payload: dict) -> bytes:
    """Deterministic byte serialization of a canonical result payload.

    Stable JSON (sorted keys, compact separators), so two payloads are
    byte-identical exactly when :func:`result_to_payload` produced equal
    dicts — the serving layer's cache stores and serves these bytes, and
    the cache-correctness tests compare hit and cold-path responses with
    ``==`` on the raw bytes.
    """
    import json

    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def payload_from_bytes(data: bytes) -> dict:
    """Inverse of :func:`payload_to_bytes` (feed to :func:`result_from_payload`)."""
    import json

    return json.loads(data)


def first_divergence(oracle: "SearchResult", other: "SearchResult") -> str | None:
    """Describe the first point where ``other`` departs from ``oracle``.

    Returns ``None`` when the results are conformant; otherwise a short
    human-readable locator (count mismatch, or the first differing
    alignment with the fields that differ).
    """
    ka, kb = canonical_alignments(oracle), canonical_alignments(other)
    if ka == kb:
        return None
    if len(ka) != len(kb):
        only_oracle = set(ka) - set(kb)
        only_other = set(kb) - set(ka)
        return (
            f"alignment count differs: oracle {len(ka)} vs {len(kb)} "
            f"({len(only_oracle)} missing, {len(only_other)} unexpected)"
        )
    for i, (a, b) in enumerate(zip(ka, kb)):
        if a != b:
            diffs = []
            for j, field in enumerate(_ALIGNMENT_FIELDS):
                if a[j] == b[j]:
                    continue
                # The key holds -score; report the real score.
                va, vb = (-a[j], -b[j]) if j == _SCORE else (a[j], b[j])
                diffs.append(f"{field}: {va!r} != {vb!r}")
            return f"alignment #{i} differs ({'; '.join(diffs)})"
    return "canonical forms differ"  # unreachable, kept for safety

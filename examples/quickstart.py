#!/usr/bin/env python
"""Quickstart: search a protein database with cuBLASTP.

Builds a small synthetic database with planted homologs of the query,
runs a cuBLASTP search, and prints the alignments BLAST-style — then
verifies (as the paper promises) that the sequential FSA-BLAST reference
returns exactly the same thing.

Run:  python examples/quickstart.py
"""

from repro import CuBlastp, FsaBlast, WorkloadSpec, generate_database, generate_query
from repro.engine import compile_query


def main() -> None:
    # A 60-sequence database in which ~30 % of subjects share mutated
    # copies of a small domain library with our query.
    spec = WorkloadSpec(
        name="quickstart",
        num_sequences=60,
        mean_length=200,
        homolog_fraction=0.3,
        seed=2014,
        emulated_residues=100_000_000,  # score statistics at real-db scale
    )
    db = generate_database(spec)
    query = generate_query(250, spec)

    print(f"database: {db.stats()}")
    print(f"query:    {len(query)} residues\n")

    # Compile the query once (encode, neighbourhood, PSSM): any
    # engine can run the compiled form — here cuBLASTP, and the CPU
    # reference below for the identity check, with zero rebuild.
    compiled = compile_query(query)
    searcher = CuBlastp()
    result, report = searcher.run_with_report(compiled, db)

    print(f"phase counts: {result.summary()}")
    print(
        f"modelled GPU kernel time: {report.gpu.critical_ms:.3f} ms, "
        f"end-to-end {report.overall_ms:.3f} ms "
        f"({report.overlap_saved_ms:.3f} ms hidden by the CPU/GPU pipeline)\n"
    )

    for a in result.alignments[:5]:
        print(
            f">{a.subject_identifier}  score={a.score}  "
            f"bits={a.bit_score:.1f}  E={a.evalue:.2e}  "
            f"identities={a.identities}/{a.length}"
        )
        # BLAST-style three-line alignment rendering.
        width = 60
        for start in range(0, a.length, width):
            q_line = a.aligned_query[start : start + width]
            m_line = a.midline[start : start + width]
            s_line = a.aligned_subject[start : start + width]
            print(f"  Query  {q_line}")
            print(f"         {m_line}")
            print(f"  Sbjct  {s_line}")
        print()

    # The paper's closing claim, verified live: identical output to the
    # sequential CPU reference.
    reference = FsaBlast().run(compiled, db)
    assert [(a.seq_id, a.score) for a in result.alignments] == [
        (a.seq_id, a.score) for a in reference.alignments
    ]
    print("output identical to FSA-BLAST: OK")


if __name__ == "__main__":
    main()

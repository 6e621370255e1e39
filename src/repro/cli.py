"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``search``
    BLASTP-search a FASTA database with a FASTA query (or a literal
    sequence), printing the pairwise report or tabular output. Chooses
    the cuBLASTP engine by default; ``--engine`` selects a baseline.
``makedb``
    Generate a synthetic database (the workload generator) as FASTA, for
    trying the tool without real data.
``db build`` / ``db inspect`` / ``db stamp``
    Convert a FASTA database to the versioned binary format (mmap-loaded,
    no re-encoding on open), print a saved database's header and
    statistics, and bump (or set) the header's content-version stamp —
    the generation counter the serving layer's result cache keys on.
``serve``
    Run the always-on HTTP search service: concurrent requests coalesce
    into executor batches, results are cached by
    ``(query, db-version, params)``, overload sheds with 429 (see
    :mod:`repro.serve` and docs/SERVING.md).
``profile``
    Run a search and print the simulated GPU kernel profiles and the
    end-to-end breakdown (the Fig. 19 view for your own inputs).
``verify``
    Differential conformance: generate seeded workloads and check every
    engine and execution path against the reference oracle, hit for hit
    (see :mod:`repro.verify` and docs/TESTING.md).
``lint``
    Static analysis: run the reprolint AST rules that encode this
    repo's determinism and simulator invariants (see
    :mod:`repro.analysis` and docs/ANALYSIS.md).

Database arguments everywhere accept either a FASTA file or a saved
binary database; binary paths open through the process-wide
:class:`~repro.io.store.DatabaseStore` (resident, mmap-backed).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core import SearchParams
from repro.cublastp import CuBlastp, CuBlastpConfig, ExtensionMode
from repro.engine import ENGINE_NAMES, BatchExecutor, Engine, make_engine
from repro.io import (
    FastaRecord,
    SequenceDatabase,
    generate_database,
    get_default_store,
    read_fasta_file,
    write_fasta,
)
from repro.io import storage
from repro.io.report import format_pairwise, write_tabular
from repro.io.workloads import WorkloadSpec


def _load_database(arg: str) -> SequenceDatabase:
    """Resolve a database argument: binary store path or FASTA file."""
    if storage.sniff_format(arg) == "binary":
        return get_default_store().open(arg)
    records = read_fasta_file(arg)
    if not records:
        raise SystemExit(f"error: {arg}: no FASTA records")
    return SequenceDatabase.from_records(records)


def _load_queries(arg: str) -> list[tuple[str, str]]:
    """Resolve a query argument: (multi-record) FASTA path or literal string."""
    path = Path(arg)
    if path.exists():
        records = read_fasta_file(path)
        if not records:
            raise SystemExit(f"error: {arg}: no FASTA records")
        return [(r.identifier, r.sequence) for r in records]
    if all(c.isalpha() for c in arg) and len(arg) >= 6:
        return [("query", arg.upper())]
    raise SystemExit(f"error: {arg}: not a file and not a residue string")


def _load_query(arg: str) -> tuple[str, str]:
    """First query of the argument (single-query commands)."""
    return _load_queries(arg)[0]


def _build_params(args: argparse.Namespace) -> SearchParams:
    return SearchParams(
        evalue=args.evalue,
        threshold=args.threshold,
        two_hit_window=args.window,
        max_alignments=args.max_alignments,
        effective_db_residues=args.effective_db_size,
    )


def _make_engine(args: argparse.Namespace) -> Engine:
    """Build the Engine-protocol instance the arguments select."""
    params = _build_params(args)
    config = None
    if args.engine == "cublastp":
        config = CuBlastpConfig(
            extension_mode=ExtensionMode(getattr(args, "extension", "window")),
            num_bins=getattr(args, "bins", 128),
            cpu_threads=args.threads,
        )
    return make_engine(args.engine, params, config=config, threads=args.threads)


def cmd_search(args: argparse.Namespace) -> int:
    queries = _load_queries(args.query)
    db = _load_database(args.database)
    engine = _make_engine(args)
    # The executor keeps the database resident, runs ``--jobs`` searches
    # concurrently, and streams outcomes back in input order — so the
    # printed report is identical for every jobs value.
    executor = BatchExecutor(
        engine,
        jobs=args.jobs,
        backend=getattr(args, "backend", "thread"),
        mode="db-sweep" if getattr(args, "batch_mode", False) else "per-query",
    )
    if executor.jobs_clamped:
        print(
            f"note: --jobs {executor.requested_jobs} clamped to "
            f"{executor.jobs} (host cores)",
            file=sys.stderr,
        )
    first_tabular = True
    failed = 0
    for outcome in executor.stream(queries, db):
        if outcome.error is not None:
            failed += 1
            print(f"error: query {outcome.query_id}: {outcome.error}", file=sys.stderr)
            continue
        if args.outfmt == "tabular":
            write_tabular(outcome.query_id, outcome.result, sys.stdout, header=first_tabular)
            first_tabular = False
        else:
            sys.stdout.write(format_pairwise(outcome.query_id, outcome.result))
            if len(queries) > 1:
                sys.stdout.write("\n" + "=" * 70 + "\n\n")
    return 1 if failed else 0


def cmd_makedb(args: argparse.Namespace) -> int:
    spec = WorkloadSpec(
        name=args.name,
        num_sequences=args.sequences,
        mean_length=args.mean_length,
        homolog_fraction=args.homologs,
        seed=args.seed,
    )
    db = generate_database(spec)
    records = [
        FastaRecord(db.identifier(i), "", db.sequence_str(i)) for i in range(len(db))
    ]
    write_fasta(records, args.output)
    print(f"wrote {len(db)} sequences ({int(db.codes.size):,} residues) to {args.output}")
    return 0


def cmd_db_build(args: argparse.Namespace) -> int:
    if storage.sniff_format(args.input) == "binary":
        db = SequenceDatabase.load(args.input)
    else:
        records = read_fasta_file(args.input)
        if not records:
            raise SystemExit(f"error: {args.input}: no FASTA records")
        db = SequenceDatabase.from_records(records)
    db.save(args.output)
    st = db.stats()
    print(
        f"wrote {args.output}: {st.num_sequences} sequences, "
        f"{st.total_residues:,} residues "
        f"(format v{storage.FORMAT_VERSION}, mmap-loadable)"
    )
    return 0


def cmd_db_inspect(args: argparse.Namespace) -> int:
    if storage.sniff_format(args.database) != "binary":
        raise SystemExit(f"error: {args.database}: not a saved database")
    head = storage.read_header(args.database)
    print(f"{args.database}: repro binary database")
    print(f"  format version  {head['version']}")
    print(f"  db version      {head['db_version']}")
    print(f"  file size       {head['file_bytes']:,} B")
    print(f"  codes section   {head['codes_len']:,} B @ {head['off_codes']}")
    print(f"  offsets section {(head['num_sequences'] + 1) * 8:,} B @ {head['off_offsets']}")
    db = get_default_store().open(args.database)
    st = db.stats()
    print(f"  sequences       {st.num_sequences:,}")
    print(f"  residues        {st.total_residues:,}")
    print(f"  length          min {st.min_length} / mean {st.mean_length:.1f} / max {st.max_length}")
    if args.identifiers:
        for i in range(min(args.identifiers, len(db))):
            print(f"    [{i}] {db.identifier(i)} ({int(db.lengths[i])} aa)")
    return 0


def cmd_db_stamp(args: argparse.Namespace) -> int:
    if storage.sniff_format(args.database) != "binary":
        raise SystemExit(f"error: {args.database}: not a binary database")
    old = storage.read_db_version(args.database)
    new = storage.stamp_db_version(args.database, args.set)
    print(f"{args.database}: db_version {old} -> {new}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import SearchService, serve_forever

    # Binary paths pass through as paths — the header's version stamp
    # keys the result cache and workers mmap the file directly. FASTA
    # loads in-memory (stamp 0: caching works, invalidation has no file
    # stamp to watch).
    if storage.sniff_format(args.database) == "binary":
        db = args.database
    else:
        db = _load_database(args.database)
    engine = _make_engine(args)
    service = SearchService(
        db,
        engine=engine,
        backend=args.backend,
        jobs=args.jobs,
        mode=args.mode,
        window_ms=args.window_ms,
        max_batch=args.max_batch,
        max_pending=args.max_pending,
        cache_capacity=args.cache_capacity,
    )
    service.start()
    print(
        f"serving {args.database} on http://{args.host}:{args.port} "
        f"(engine={args.engine}, backend={args.backend}, jobs={service.executor.jobs}, "
        f"mode={args.mode}, window={args.window_ms}ms, db_version={service.db_version})",
        flush=True,
    )
    try:
        asyncio.run(serve_forever(service, args.host, args.port))
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.engine import EventLog

    query_id, query = _load_query(args.query)
    db = _load_database(args.database)
    engine = _make_engine(args)
    events = EventLog()
    result, report = engine.run_with_report(engine.compile(query), db, events=events)
    print(f"query {query_id} vs {args.database}: {result.summary()}\n")
    print(f"{'kernel':<22} {'ms':>9} {'gld':>6} {'div':>6} {'occ':>6}")
    for name, prof in report.gpu.profiles.items():
        print(
            f"{name:<22} {prof.elapsed_ms():>9.4f} "
            f"{prof.global_load_efficiency:>6.0%} "
            f"{prof.divergence_overhead:>6.0%} {prof.occupancy:>6.0%}"
        )
    # The stage table is read off the phase-event stream the search
    # emitted — the same numbers the report carries, one schema for all
    # engines.
    print(f"\n{'stage':<22} {'ms':>9}  share")
    for stage, ms in events.breakdown(engine=CuBlastp.name).items():
        print(f"{stage:<22} {ms:>9.4f}  {ms / report.serial_ms:>5.0%}")
    print(
        f"\npipelined end-to-end {report.overall_ms:.4f} ms "
        f"(overlap hides {report.overlap_saved_ms:.4f} ms)"
    )
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="cuBLASTP reproduction: protein sequence search on a simulated GPU",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_param_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--evalue", type=float, default=10.0)
        p.add_argument("--threshold", type=int, default=11, help="neighbourhood T")
        p.add_argument("--window", type=int, default=40, help="two-hit window A")
        p.add_argument("--max-alignments", type=_positive_int, default=500)
        p.add_argument(
            "--effective-db-size",
            type=_positive_int,
            default=None,
            help="evaluate E-values as if the database had this many residues",
        )
        p.add_argument("--threads", type=int, default=4, help="CPU threads (model)")

    def add_search_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("query", help="query FASTA file or literal residue string")
        p.add_argument("database", help="database FASTA file")
        add_param_args(p)

    p_search = sub.add_parser("search", help="run a BLASTP search")
    add_search_args(p_search)
    p_search.add_argument("--engine", choices=sorted(ENGINE_NAMES), default="cublastp")
    p_search.add_argument(
        "--extension", choices=[m.value for m in ExtensionMode], default="window"
    )
    p_search.add_argument("--bins", type=int, default=128, help="bins per warp")
    p_search.add_argument("--outfmt", choices=["pairwise", "tabular"], default="pairwise")
    p_search.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="concurrent multi-query searches (results stay in input order)",
    )
    p_search.add_argument(
        "--backend",
        choices=BatchExecutor.BACKENDS,
        default="thread",
        help="worker pool flavour: threads share the GIL (cheap, limited "
        "scaling); processes re-open the database via mmap and scale the "
        "hot phases across cores",
    )
    p_search.add_argument(
        "--batch-mode",
        action="store_true",
        help="batch-first db-sweep: one blocked database pass serves the "
        "whole query batch through a merged multi-query index (results "
        "identical to the per-query default); with --backend process, "
        "workers own database blocks instead of queries",
    )
    p_search.set_defaults(func=cmd_search)

    p_db = sub.add_parser("db", help="manage saved binary databases")
    db_sub = p_db.add_subparsers(dest="db_command", required=True)
    p_build = db_sub.add_parser(
        "build", help="convert FASTA to the binary format"
    )
    p_build.add_argument("input", help="FASTA file")
    p_build.add_argument("output", help="output binary database path")
    p_build.set_defaults(func=cmd_db_build)
    p_inspect = db_sub.add_parser("inspect", help="print a saved database's header and stats")
    p_inspect.add_argument("database", help="saved database path")
    p_inspect.add_argument(
        "--identifiers",
        type=int,
        default=0,
        metavar="N",
        help="also list the first N sequence identifiers",
    )
    p_inspect.set_defaults(func=cmd_db_inspect)
    p_stamp = db_sub.add_parser(
        "stamp",
        help="bump (or set) the content-version stamp in a binary database "
        "header — serving caches key on it, so a bump invalidates them",
    )
    p_stamp.add_argument("database", help="saved binary database path")
    p_stamp.add_argument(
        "--set",
        type=int,
        default=None,
        metavar="N",
        help="set the stamp to N instead of incrementing",
    )
    p_stamp.set_defaults(func=cmd_db_stamp)

    p_serve = sub.add_parser("serve", help="run the always-on HTTP search service")
    p_serve.add_argument("database", help="database FASTA file or saved binary path")
    add_param_args(p_serve)
    p_serve.add_argument("--engine", choices=sorted(ENGINE_NAMES), default="cublastp")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8713)
    p_serve.add_argument(
        "--backend",
        choices=BatchExecutor.BACKENDS,
        default="thread",
        help="executor backend for coalesced batches (process keeps a warm "
        "worker pool across coalescing windows)",
    )
    p_serve.add_argument("--jobs", type=_positive_int, default=1)
    p_serve.add_argument(
        "--mode",
        choices=BatchExecutor.MODES,
        default="db-sweep",
        help="batch scheduling mode (db-sweep: one database pass per "
        "coalesced batch)",
    )
    p_serve.add_argument(
        "--window-ms",
        type=float,
        default=20.0,
        help="coalescing window: a batch closes at latest this long after "
        "its first arrival; a free dispatcher holds it only when the arrival "
        "rate predicts a companion within the window",
    )
    p_serve.add_argument(
        "--max-batch", type=_positive_int, default=32, help="requests per batch at most"
    )
    p_serve.add_argument(
        "--max-pending",
        type=_positive_int,
        default=256,
        help="admission bound on queued+executing requests (past it: 429)",
    )
    p_serve.add_argument(
        "--cache-capacity",
        type=int,
        default=1024,
        help="result-cache entries (0 disables caching)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_makedb = sub.add_parser("makedb", help="generate a synthetic FASTA database")
    p_makedb.add_argument("output", help="output FASTA path")
    p_makedb.add_argument("--sequences", type=int, default=400)
    p_makedb.add_argument("--mean-length", type=int, default=250)
    p_makedb.add_argument("--homologs", type=float, default=0.05)
    p_makedb.add_argument("--seed", type=int, default=20140519)
    p_makedb.add_argument("--name", default="synthdb")
    p_makedb.set_defaults(func=cmd_makedb)

    p_profile = sub.add_parser("profile", help="print simulated GPU profiles")
    add_search_args(p_profile)
    p_profile.set_defaults(func=cmd_profile, engine="cublastp")

    from repro.analysis.cli import add_lint_parser
    from repro.verify.cli import add_verify_parser

    add_verify_parser(sub)
    add_lint_parser(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())

"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

``chase``      materialise the chase of a database under TGDs
``certain``    certain answers of an OMQ over a database (open world)
``evaluate``   plain (closed-world) UCQ evaluation
``rewrite``    UCQ_k rewriting of a CQS (the Thm 5.10 meta problem)
``classify``   report the syntactic classes of a TGD file
``clique``     solve p-Clique by CQ evaluation (the Thm 4.1 reduction)
``serve``      multi-tenant async query service on a TCP socket
``load``       seeded load storm against an in-process service

The three evaluation commands construct one :class:`repro.Engine` session
and share its knobs: ``--no-cache`` disables the session chase cache (one
CLI invocation usually chases once, so the cache matters when a command
chases repeatedly — e.g. a multi-disjunct certain-answer run).
``--parallelism N`` is deprecated: the chase runs serially, and N > 1
only warns.

Checkpoint/resume: ``chase`` and ``certain`` accept ``--checkpoint-dir
DIR``.  A run cut short by ``--timeout``/``--max-atoms`` (exit status 3)
then leaves a resumable ``*.checkpoint.json`` in DIR; ``chase``
additionally snapshots every ``--checkpoint-every K`` completed levels, so
even a crashed process leaves a recent checkpoint behind.  Re-run the same
command with ``--resume DIR/<file>.checkpoint.json`` (and a fresh budget)
to continue where the previous run stopped instead of starting over.

Databases, queries, and TGDs are given as files (or inline with ``-e``) in
the textual syntax of :mod:`repro.queries.parser` / :mod:`repro.tgds.parser`:

.. code-block:: text

    # db.txt                 # sigma.txt                 # q.txt
    Emp(ada)                 Emp(x) -> Person(x)         q(x) :- Person(x)
    Mgr(grace)               Mgr(x) -> Emp(x)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .chase import chase, resume_chase
from .cqs import CQS, is_uniformly_ucq_k_equivalent
from .datamodel.io import load_checkpoint, save_checkpoint
from .engine import Engine
from .governance import Budget
from .governance.checkpoint import CheckpointError, validate_tgds
from .storage import StorageError
from .omq import OMQ, certain_answers
from .options import BACKENDS
from .queries import parse_database, parse_ucq
from .tgds import classify, is_weakly_acyclic, parse_tgds

__all__ = ["main", "EXIT_BUDGET_TRIP"]

#: Exit status for a run cut short by ``--timeout`` / ``--max-atoms``: the
#: printed answers are sound but possibly incomplete.
EXIT_BUDGET_TRIP = 3


def _read(value: str, inline: bool) -> str:
    if inline:
        return value
    return Path(value).read_text()


def _budget_from(args: argparse.Namespace) -> Budget | None:
    """A Budget from --timeout / --max-atoms, or None when neither is set."""
    if args.timeout is None and args.max_atoms is None:
        return None
    return Budget(deadline=args.timeout, max_atoms=args.max_atoms)


def _parallelism_arg(value: str) -> int:
    """``--parallelism N``: any N >= 1 is accepted (the flag is deprecated)."""
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {value!r}"
        ) from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _add_parallelism_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--parallelism",
        type=_parallelism_arg,
        default=1,
        metavar="N",
        help="deprecated and ignored: the chase runs serially "
        "(N > 1 warns)",
    )


def _engine_from(args: argparse.Namespace, tgds) -> Engine:
    """One Engine session per CLI invocation, from the shared flags."""
    return Engine(
        tgds,
        budget=_budget_from(args),
        cache=not args.no_cache,
        parallelism=args.parallelism,
        plan=None if getattr(args, "plan", "auto") == "off" else "auto",
        backend=getattr(args, "backend", "chase"),
    )


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline; on expiry print the sound partial result "
        f"and exit with status {EXIT_BUDGET_TRIP}",
    )
    parser.add_argument(
        "--max-atoms",
        type=int,
        default=None,
        metavar="N",
        help="stop once the materialised instance holds N atoms "
        f"(sound partial result, exit status {EXIT_BUDGET_TRIP})",
    )


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    _add_parallelism_flag(parser)
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the session chase cache",
    )
    parser.add_argument(
        "--plan",
        default="auto",
        choices=["auto", "off"],
        help="join-ordering policy for homomorphism searches: 'auto' "
        "(default) compiles cached join plans from instance statistics, "
        "'off' keeps per-node dynamic ordering; answers are identical",
    )
    parser.add_argument(
        "--backend",
        default="chase",
        choices=BACKENDS,
        help="evaluation backend: 'chase' (default, every fragment), "
        "'datalog' (semi-naive saturation; full or guarded Σ), 'sql' "
        "(SQLite pushdown; linear single-head or full Σ), or 'auto' "
        "(fragment-aware, never unsound)",
    )


def _add_checkpoint_flags(
    parser: argparse.ArgumentParser, *, periodic: bool = False
) -> None:
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="directory for resumable checkpoints: a budget trip (exit "
        f"status {EXIT_BUDGET_TRIP}) writes one there, ready for --resume",
    )
    if periodic:
        parser.add_argument(
            "--checkpoint-every",
            type=int,
            default=None,
            metavar="K",
            help="with --checkpoint-dir: also snapshot every K completed "
            "chase levels, so a crash loses at most K levels of work",
        )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="CHECKPOINT",
        help="continue from a checkpoint file written by a previous run "
        "(the TGDS argument must be the same ontology)",
    )


def _add_io_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-e",
        "--inline",
        action="store_true",
        help="treat the DATABASE/QUERY/TGDS arguments as literal text, not paths",
    )


class _ResumeFailed(Exception):
    """Internal: --resume could not load; carries the one-line diagnostic."""


def _load_resume(args: argparse.Namespace):
    """Load ``--resume``'s checkpoint, or raise :class:`_ResumeFailed`.

    A corrupt or wrong-kind file becomes a one-line diagnostic (exit
    status 2), never a traceback: the durable loader's
    :class:`~repro.storage.CorruptArtifactError` already names the path
    and the damage, and a missing file or a checkpoint-format refusal
    reads the same way.
    """
    try:
        return load_checkpoint(args.resume)
    except FileNotFoundError:
        raise _ResumeFailed(f"--resume: no such checkpoint: {args.resume}")
    except (StorageError, CheckpointError) as exc:
        raise _ResumeFailed(f"--resume: {exc}")


def _checkpoint_sink(args: argparse.Namespace, name: str):
    """(path, on_checkpoint callback) for --checkpoint-dir, or (None, None)."""
    if getattr(args, "checkpoint_dir", None) is None:
        return None, None
    path = Path(args.checkpoint_dir) / f"{name}.checkpoint.json"

    def on_checkpoint(ck, _path=path):
        save_checkpoint(ck, _path)

    return path, on_checkpoint


def cmd_chase(args: argparse.Namespace) -> int:
    db = parse_database(_read(args.database, args.inline))
    tgds = parse_tgds(_read(args.tgds, args.inline))
    budget = _budget_from(args)
    ckpt_path, on_checkpoint = _checkpoint_sink(args, "chase")
    checkpoint_every = args.checkpoint_every if on_checkpoint else None
    if args.resume is not None:
        try:
            checkpoint = _load_resume(args)
            validate_tgds(checkpoint, tgds)
        except (_ResumeFailed, CheckpointError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        kwargs = {"parallelism": args.parallelism}
        if args.max_level is not None:
            kwargs["max_level"] = args.max_level
        result = resume_chase(
            checkpoint,
            budget=budget,
            checkpoint_every=checkpoint_every,
            on_checkpoint=on_checkpoint,
            **kwargs,
        )
    elif args.max_level is not None or on_checkpoint is not None:
        # A level-bounded prefix is not chase(D, Σ) and must not populate
        # (or be served from) the cache; and the cache layer does not
        # thread periodic snapshots — call the engine function directly.
        result = chase(
            db,
            tgds,
            max_level=args.max_level,
            budget=budget,
            parallelism=args.parallelism,
            checkpoint_every=checkpoint_every,
            on_checkpoint=on_checkpoint,
        )
    else:
        result = _engine_from(args, tgds).chase(db)
    for atom in sorted(result.instance, key=str):
        print(atom)
    print(
        f"# {len(result.instance)} atoms, terminated={result.terminated}, "
        f"max level {result.max_level}",
        file=sys.stderr,
    )
    if budget is not None and result.trip_reason in ("deadline", "atom budget"):
        if ckpt_path is not None and result.checkpoint is not None:
            save_checkpoint(result.checkpoint, ckpt_path)
            print(
                f"# checkpoint written to {ckpt_path}; re-run with "
                f"--resume {ckpt_path} and a fresh budget to continue",
                file=sys.stderr,
            )
        print(
            f"# BUDGET TRIPPED ({result.trip_reason}): the atoms above are a "
            "sound chase prefix, not the full chase "
            f"[{result.stats.summary()}]",
            file=sys.stderr,
        )
        return EXIT_BUDGET_TRIP
    return 0


def cmd_certain(args: argparse.Namespace) -> int:
    db = parse_database(_read(args.database, args.inline))
    tgds = parse_tgds(_read(args.tgds, args.inline))
    query = parse_ucq(_read(args.query, args.inline))
    engine = _engine_from(args, tgds)
    ckpt_path, _ = _checkpoint_sink(args, "certain")
    if args.resume is not None:
        try:
            checkpoint = _load_resume(args)
        except _ResumeFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        answer = engine.resume(checkpoint, query=query, database=db)
    else:
        from .datalog import BackendUnsupported

        try:
            answer = engine.certain_answers(query, db, strategy=args.strategy)
        except BackendUnsupported as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    for row in sorted(answer.answers, key=str):
        print(row)
    print(
        f"# {len(answer.answers)} answers via {answer.strategy} "
        f"(complete={answer.complete}; {answer.detail})",
        file=sys.stderr,
    )
    if answer.trip is not None:
        if ckpt_path is not None and answer.checkpoint is not None:
            save_checkpoint(answer.checkpoint, ckpt_path)
            print(
                f"# checkpoint written to {ckpt_path}; re-run with "
                f"--resume {ckpt_path} and a fresh budget to continue",
                file=sys.stderr,
            )
        print(
            f"# BUDGET TRIPPED ({answer.trip}): the answers above are sound "
            "certain answers, the remainder is unknown "
            f"[{answer.stats.summary()}]",
            file=sys.stderr,
        )
        return EXIT_BUDGET_TRIP
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    db = parse_database(_read(args.database, args.inline))
    query = parse_ucq(_read(args.query, args.inline))
    engine = _engine_from(args, [])
    answer = engine.evaluate(query, db)
    for row in sorted(answer.answers, key=str):
        print(row)
    print(f"# {len(answer.answers)} answers", file=sys.stderr)
    if answer.trip is not None:
        print(
            f"# BUDGET TRIPPED ({answer.trip}): the answers above are sound, "
            f"the remainder is unknown [{answer.stats.summary()}]",
            file=sys.stderr,
        )
        return EXIT_BUDGET_TRIP
    return 0


def cmd_rewrite(args: argparse.Namespace) -> int:
    tgds = parse_tgds(_read(args.tgds, args.inline))
    query = parse_ucq(_read(args.query, args.inline))
    spec = CQS(tgds, query)
    verdict = is_uniformly_ucq_k_equivalent(spec, args.k)
    if not verdict or verdict.witness is None:
        print(f"# not uniformly UCQ_{args.k}-equivalent", file=sys.stderr)
        return 1
    for cq in verdict.witness:
        print(cq)
    print(f"# {len(verdict.witness)} disjunct(s) of treewidth ≤ {args.k}", file=sys.stderr)
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    tgds = parse_tgds(_read(args.tgds, args.inline))
    labels = sorted(classify(tgds))
    if is_weakly_acyclic(tgds):
        labels.append("weakly-acyclic")
    print(", ".join(labels))
    return 0


def cmd_clique(args: argparse.Namespace) -> int:
    from .benchgen import erdos_renyi
    from .reductions import clique_via_cq

    graph = erdos_renyi(args.vertices, args.probability, seed=args.seed)
    reduction = clique_via_cq(graph, args.k)
    decided = reduction.decide_by_evaluation()
    truth = reduction.ground_truth()
    print(
        f"G(n={args.vertices}, p={args.probability}, seed={args.seed}): "
        f"{args.k}-clique = {decided} (|D*| = {len(reduction.database)}, "
        f"brute force agrees: {decided == truth})"
    )
    return 0 if decided == truth else 2


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the JSON-lines TCP front door until interrupted."""
    import asyncio

    from .serve import QueryService, ServiceConfig, serve_tcp

    config = ServiceConfig(
        deadline=args.deadline,
        max_workers=args.workers,
        soft_queue=args.soft_queue,
        hard_queue=args.hard_queue,
        cache_spill_dir=args.spill_dir,
        parallelism=args.parallelism,
    )
    tenants = []
    for spec in args.tenant:
        name, _, path = spec.partition("=")
        if not name or not path:
            raise SystemExit(f"--tenant expects NAME=TGDS_FILE, got {spec!r}")
        tenants.append((name, parse_tgds(Path(path).read_text())))

    async def run() -> None:
        async with QueryService(config) as svc:
            for name, tgds in tenants:
                svc.register(name, tgds)
            server = await serve_tcp(svc, args.host, args.port)
            # The bound port, not the requested one: --port 0 asks for any.
            port = server.sockets[0].getsockname()[1]
            print(
                f"repro serve: {len(tenants)} tenant(s) on "
                f"{args.host}:{port} (deadline {config.deadline}s)",
                flush=True,
            )
            async with server:
                await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_load(args: argparse.Namespace) -> int:
    """The load-generator client: storm, assert invariants, emit JSON."""
    import json

    from .serve import ServiceConfig, run_load

    config = ServiceConfig(
        deadline=args.deadline,
        max_workers=args.workers,
        soft_queue=args.soft_queue,
        hard_queue=args.hard_queue,
    )
    report = run_load(
        args.requests,
        seed=args.seed,
        config=config,
        adversarial_fraction=args.adversarial,
        ramp=args.ramp,
    )
    payload = report.as_dict()
    if args.out is not None:
        Path(args.out).write_text(json.dumps(payload, indent=2, default=str))
    print(
        json.dumps(
            {k: payload[k] for k in ("requests", "outcomes", "latency",
                                     "answers_per_second", "hung", "ok")},
            indent=2,
            default=str,
        )
    )
    return 0 if report.ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chase", help="materialise chase(D, Σ)")
    p.add_argument("database")
    p.add_argument("tgds")
    p.add_argument("--max-level", type=int, default=None)
    _add_budget_flags(p)
    _add_engine_flags(p)
    _add_checkpoint_flags(p, periodic=True)
    _add_io_flags(p)
    p.set_defaults(fn=cmd_chase)

    p = sub.add_parser("certain", help="certain answers of (S, Σ, q) over D")
    p.add_argument("database")
    p.add_argument("tgds")
    p.add_argument("query")
    p.add_argument("--strategy", default="auto",
                   choices=["auto", "chase", "rewrite", "guarded", "bounded"])
    _add_budget_flags(p)
    _add_engine_flags(p)
    _add_checkpoint_flags(p)
    _add_io_flags(p)
    p.set_defaults(fn=cmd_certain)

    p = sub.add_parser("evaluate", help="closed-world UCQ evaluation")
    p.add_argument("database")
    p.add_argument("query")
    _add_budget_flags(p)
    _add_engine_flags(p)
    _add_io_flags(p)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("rewrite", help="UCQ_k rewriting of (Σ, q)")
    p.add_argument("tgds")
    p.add_argument("query")
    p.add_argument("-k", type=int, default=1)
    _add_io_flags(p)
    p.set_defaults(fn=cmd_rewrite)

    p = sub.add_parser("classify", help="syntactic classes of a TGD set")
    p.add_argument("tgds")
    _add_io_flags(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("clique", help="p-Clique via CQ evaluation")
    p.add_argument("-k", type=int, default=3)
    p.add_argument("--vertices", type=int, default=10)
    p.add_argument("--probability", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_clique)

    p = sub.add_parser(
        "serve", help="multi-tenant async query service (JSON-lines TCP)"
    )
    p.add_argument(
        "--tenant",
        action="append",
        default=[],
        metavar="NAME=TGDS_FILE",
        help="register a tenant with the ontology in TGDS_FILE (repeatable)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)
    p.add_argument("--deadline", type=float, default=2.0,
                   help="per-request wall clock (seconds)")
    p.add_argument("--workers", type=int, default=8)
    p.add_argument("--soft-queue", type=int, default=32,
                   help="queue depth at which requests shed with degraded answers")
    p.add_argument("--hard-queue", type=int, default=64,
                   help="queue depth at which requests are rejected")
    p.add_argument("--spill-dir", default=None,
                   help="directory for the cache's evict-to-checkpoint spill tier")
    _add_parallelism_flag(p)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "load", help="seeded load storm + soundness harness (in-process)"
    )
    p.add_argument("--requests", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--deadline", type=float, default=1.0)
    p.add_argument("--workers", type=int, default=8)
    p.add_argument("--soft-queue", type=int, default=32)
    p.add_argument("--hard-queue", type=int, default=64)
    p.add_argument("--adversarial", type=float, default=0.1,
                   help="fraction of adversarially expensive requests")
    p.add_argument("--ramp", type=float, default=2.0,
                   help="stagger client starts over this many seconds")
    p.add_argument("--out", default=None, metavar="JSON",
                   help="write the full LoadReport to this file")
    p.set_defaults(fn=cmd_load)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

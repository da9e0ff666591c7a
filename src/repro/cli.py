"""Command-line interface.

Subcommands:

* ``mine`` — mine frequent item-sets / rules from a ``.dat`` file
  (serial by default; ``--algorithm`` selects a parallel formulation on
  the simulated cluster).
* ``generate`` — emit a synthetic Quest-style database to a ``.dat``
  file.
* ``experiment`` — run one of the paper's table/figure reproductions
  and print its table.
* ``serve`` — start the always-on rule-serving daemon (mine once,
  answer basket queries forever, re-mine in the background).
* ``query`` — talk to a running daemon: basket queries, stats,
  re-mine triggers, shutdown.

Examples::

    repro-mine generate --transactions 1000 --out db.dat
    repro-mine mine db.dat --min-support 0.01 --min-confidence 0.8
    repro-mine mine db.dat --algorithm HD --processors 16
    repro-mine experiment table2

Serving rules (mine → serve → query → live re-mine)::

    repro-mine serve db.dat --min-support 0.01 --min-confidence 0.6 \\
        --port 7911 &
    repro-mine query --port 7911 3 17 42        # basket -> suggestions
    repro-mine query --port 7911 --remine --wait  # atomic model swap
    repro-mine query --port 7911 --stats          # QPS, p50/p99, generation
    repro-mine query --port 7911 --shutdown

Scaling to millions of transactions (generate once, mine many times)::

    repro-mine generate --transactions 1000000 --generate-to big.packed
    repro-mine mine --attach big.packed --algorithm native-cd \\
        --two-phase --block-budget 2000000 --checkpoint-dir ckpt
    repro-mine mine --attach big.packed --algorithm native-cd \\
        --two-phase --block-budget 2000000 --checkpoint-dir ckpt --resume
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .cluster.machine import CRAY_T3E, IBM_SP2
from .core.apriori import Apriori
from .core.rules import generate_rules
from .data.corpus import t15_i6
from .data.io import read_dat, write_dat
from .data.quest import generate
from .experiments.registry import EXPERIMENTS, run_experiment
from .core.kernels import KERNELS, validate_kernel
from .faults import FaultSpec
from .parallel.base import SIMULATED_KERNELS
from .parallel.native import NATIVE_KERNELS, validate_data_plane
from .parallel.runner import ALGORITHMS, make_miner, mine_parallel

__all__ = ["main", "build_parser"]

_MACHINES = {"t3e": CRAY_T3E, "sp2": IBM_SP2}


def _fault_spec_arg(text: str) -> FaultSpec:
    """argparse ``type=`` callback: parse --fault-spec at the CLI edge.

    A malformed spec becomes an argparse usage error instead of a raw
    ValueError traceback from deep inside miner construction.
    """
    try:
        return FaultSpec.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _kernel_arg(text: str) -> str:
    """argparse ``type=`` callback: validate --kernel at the CLI edge."""
    try:
        return validate_kernel(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _kernels_for(algorithm: Optional[str]) -> Sequence[str]:
    """The kernels ``algorithm`` counts with (``None``: serial Apriori)."""
    if algorithm is None:
        return KERNELS
    if algorithm.startswith("native"):
        return NATIVE_KERNELS
    return SIMULATED_KERNELS


def _check_kernel(
    parser: argparse.ArgumentParser,
    kernel: Optional[str],
    algorithm: Optional[str],
) -> None:
    """Usage error (exit 2) for a --kernel the chosen miner cannot run."""
    if kernel is None:
        return
    try:
        validate_kernel(kernel, _kernels_for(algorithm))
    except ValueError as exc:
        parser.error(f"--kernel with --algorithm {algorithm}: {exc}")


def _data_plane_arg(text: str) -> str:
    """argparse ``type=`` callback: validate --data-plane at the CLI edge."""
    try:
        return validate_data_plane(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _positive_int(text: str) -> int:
    """argparse ``type=`` callback: a strictly positive integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-mine",
        description=(
            "Association-rule mining: serial Apriori and the CD/DD/IDD/HD "
            "parallel formulations on a simulated message-passing machine."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="mine a .dat transaction file")
    mine.add_argument(
        "database",
        nargs="?",
        default=None,
        help=(
            "path to a .dat transaction file (omit when mining a packed "
            "store with --attach)"
        ),
    )
    mine.add_argument(
        "--attach",
        default=None,
        metavar="STORE",
        help=(
            "mine a packed store file (written by 'generate "
            "--generate-to') by mapping it read-only instead of loading "
            "a .dat file into RAM; native algorithms only — with "
            "--data-plane mmap (the default here) the workers map the "
            "attached file directly, so the database is never copied"
        ),
    )
    mine.add_argument("--min-support", type=float, default=0.01)
    mine.add_argument(
        "--min-confidence",
        type=float,
        default=None,
        help="also derive rules at this confidence",
    )
    mine.add_argument(
        "--algorithm",
        choices=sorted(ALGORITHMS),
        default=None,
        help=(
            "parallel formulation (omit for serial Apriori; the "
            "'native-cd'/'native-idd'/'native-hd' modes run real worker "
            "processes instead of the simulated machine; 'native' is an "
            "alias for 'native-cd')"
        ),
    )
    mine.add_argument("--processors", type=int, default=4)
    mine.add_argument(
        "--machine", choices=sorted(_MACHINES), default="t3e"
    )
    mine.add_argument("--max-k", type=int, default=None)
    mine.add_argument(
        "--kernel",
        type=_kernel_arg,
        default=None,
        metavar="{reference,fast,fast-np}",
        help=(
            "counting kernel: 'reference' (instrumented object hash "
            "tree), 'fast' (flat-array tree + triangular pass-2 "
            "counter) or 'fast-np' (numpy-vectorized bitmap counting); "
            "serial Apriori runs all three, the simulated formulations "
            "'reference' and 'fast', the native-* pool only 'fast-np' "
            "(its default); counts are bit-identical — omit to keep "
            "each algorithm's default"
        ),
    )
    mine.add_argument(
        "--data-plane",
        type=_data_plane_arg,
        default=None,
        metavar="{shared,mmap}",
        help=(
            "native pool only: 'shared' (default; packed transactions "
            "in shared memory, binary candidate broadcast, shared "
            "count vectors) or 'mmap' (the packed store written once "
            "to a file and mapped read-only by every worker — the "
            "out-of-core plane); results are identical"
        ),
    )
    mine.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help=(
            "native pool, mmap plane only: directory the packed store "
            "file is written to (default: the system temp directory)"
        ),
    )
    mine.add_argument(
        "--block-budget",
        type=_positive_int,
        default=None,
        metavar="ITEMS",
        help=(
            "native pool only: stream each worker's "
            "store range through counting in blocks of at most this "
            "many items (out-of-core passes over databases larger "
            "than RAM)"
        ),
    )
    mine.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help=(
            "native pool only: journal every completed pass durably to "
            "this directory so a killed coordinator can be rerun with "
            "--resume"
        ),
    )
    mine.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume an interrupted mine from --checkpoint-dir's "
            "journal; the output is bit-identical to an uninterrupted "
            "run"
        ),
    )
    mine.add_argument(
        "--two-phase",
        action="store_true",
        help=(
            "native-cd only: SON/partition two-phase counting — each "
            "worker first mines its own blocks at locally-scaled "
            "support (phase 1), then the pool counts only the union of "
            "those locally-frequent sets exactly (phase 2); results "
            "are bit-identical to single-phase Apriori, but no pass "
            "ever materializes the full candidate set, which bounds "
            "candidate memory on huge databases"
        ),
    )
    mine.add_argument(
        "--switch-threshold",
        type=int,
        default=None,
        metavar="M",
        help=(
            "HD / native-hd only: the paper's m — minimum candidates "
            "worth one more grid row (default 50000)"
        ),
    )
    mine.add_argument(
        "--fault-spec",
        type=_fault_spec_arg,
        default=None,
        metavar="SPEC",
        help=(
            "inject deterministic failures, e.g. "
            "'kill@0:k2,delay@1:k3:0.5,refuse-spawn:2' — real worker "
            "failures under the native algorithms, simulated processor "
            "failures (kill events) under the other formulations"
        ),
    )
    mine.add_argument(
        "--recv-timeout",
        type=float,
        default=30.0,
        help="native pool: seconds before a silent worker is declared dead",
    )
    mine.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="native pool: respawn attempts per failed worker",
    )
    mine.add_argument(
        "--top", type=int, default=20, help="item-sets/rules to print"
    )
    mine.add_argument(
        "--report",
        action="store_true",
        help="print a per-pass run report instead of raw item-sets",
    )

    gen = sub.add_parser("generate", help="generate a synthetic database")
    gen.add_argument("--transactions", type=int, required=True)
    gen.add_argument("--items", type=int, default=1000)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None, help="output .dat path")
    gen.add_argument(
        "--generate-to",
        default=None,
        metavar="STORE",
        help=(
            "stream the database straight into a packed store file "
            "with constant RAM (never materializing the transactions "
            "in memory); the file is byte-identical to packing the "
            "in-memory database and is minable with 'mine --attach'"
        ),
    )
    gen.add_argument(
        "--progress-every",
        type=_positive_int,
        default=100_000,
        metavar="N",
        help=(
            "with --generate-to: print a progress line every N "
            "generated transactions (default 100000)"
        ),
    )

    serve = sub.add_parser(
        "serve", help="start the always-on rule-serving daemon"
    )
    serve.add_argument(
        "database",
        nargs="?",
        default=None,
        help=(
            "path to a .dat transaction file to mine and serve (omit "
            "when serving a packed store via --attach or a checkpoint "
            "journal via --from-journal)"
        ),
    )
    serve.add_argument(
        "--attach",
        default=None,
        metavar="STORE",
        help=(
            "serve a packed store file: every (re-)mine attaches it "
            "read-only and runs the native pool against it on the mmap "
            "plane"
        ),
    )
    serve.add_argument(
        "--from-journal",
        default=None,
        metavar="DIR",
        help=(
            "serve the result recorded in a checkpoint journal "
            "(written by 'mine --checkpoint-dir') without mining at all"
        ),
    )
    serve.add_argument("--min-support", type=float, default=0.01)
    serve.add_argument(
        "--min-confidence",
        type=float,
        default=0.5,
        help="rule-derivation threshold for every model generation",
    )
    serve.add_argument("--max-k", type=int, default=None)
    serve.add_argument(
        "--kernel",
        type=_kernel_arg,
        default=None,
        metavar="{reference,fast,fast-np}",
        help=(
            "counting kernel for the (re-)mines; with --attach only the "
            "native pool's 'fast-np' (the default)"
        ),
    )
    serve.add_argument(
        "--algorithm",
        choices=("native-cd", "native-idd", "native-hd", "native"),
        default="native-cd",
        help=(
            "with --attach: the native formulation each re-mine runs "
            "(default native-cd)"
        ),
    )
    serve.add_argument(
        "--processors",
        type=_positive_int,
        default=2,
        help="with --attach: worker processes per re-mine",
    )
    serve.add_argument(
        "--two-phase",
        action="store_true",
        help="with --attach: SON two-phase counting for the re-mines",
    )
    serve.add_argument(
        "--block-budget",
        type=_positive_int,
        default=None,
        metavar="ITEMS",
        help="with --attach: stream counting passes in blocks",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=7911,
        help="listen port (0 binds an ephemeral port; it is printed)",
    )
    serve.add_argument(
        "--remine-every",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "re-mine the source and swap the model in atomically every "
            "SECONDS seconds (omit to re-mine only on 'query --remine')"
        ),
    )

    query = sub.add_parser(
        "query", help="query a running rule-serving daemon"
    )
    query.add_argument(
        "basket",
        nargs="*",
        type=int,
        help="basket items to get suggestions for",
    )
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument("--port", type=int, default=7911)
    query.add_argument(
        "--top", type=_positive_int, default=10, help="suggestions to print"
    )
    query.add_argument(
        "--stats",
        action="store_true",
        help="print the daemon's stats snapshot instead of querying",
    )
    query.add_argument(
        "--remine",
        action="store_true",
        help="trigger a background re-mine (atomic model swap)",
    )
    query.add_argument(
        "--wait",
        action="store_true",
        help="with --remine: block until the swap (or failure) happened",
    )
    query.add_argument(
        "--ping",
        action="store_true",
        help="round-trip a ping and print the model generation",
    )
    query.add_argument(
        "--shutdown",
        action="store_true",
        help="ask the daemon to exit cleanly",
    )
    query.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        help="socket timeout in seconds",
    )

    exp = sub.add_parser("experiment", help="run a paper experiment")
    exp.add_argument("name", choices=sorted(EXPERIMENTS))
    exp.add_argument(
        "--chart",
        action="store_true",
        help="render an ASCII chart in addition to the table",
    )
    exp.add_argument(
        "--logx",
        action="store_true",
        help="log-scale the chart x axis (for processor sweeps)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "mine":
        native = args.algorithm is not None and args.algorithm.startswith(
            "native"
        )
        if (args.database is None) == (args.attach is None):
            parser.error(
                "exactly one input is required: a .dat database path, "
                "or --attach STORE for a packed store file"
            )
        if args.attach is not None and not native:
            parser.error(
                "--attach requires a native algorithm (native-cd, "
                "native-idd or native-hd): only the native pool can "
                "mine a mapped packed store in place"
            )
        _check_kernel(parser, args.kernel, args.algorithm)
        if args.two_phase and args.algorithm not in ("native", "native-cd"):
            parser.error(
                "--two-phase only applies to --algorithm native-cd "
                "(SON phase 1 runs on the count-distribution pool)"
            )
        if args.data_plane is not None and not native:
            parser.error(
                "--data-plane only applies to the native algorithms "
                "(the simulated formulations have no worker processes)"
            )
        if args.store_dir is not None and (
            not native or (args.data_plane or "shared") != "mmap"
        ):
            parser.error(
                "--store-dir only applies to the native algorithms on "
                "--data-plane mmap (no other plane writes a store file)"
            )
        if args.block_budget is not None and not native:
            parser.error(
                "--block-budget only applies to the native algorithms "
                "(the simulated formulations have no packed store to "
                "stream)"
            )
        if args.checkpoint_dir is not None and not native:
            parser.error(
                "--checkpoint-dir only applies to the native algorithms "
                "(the simulated formulations complete in-process)"
            )
        if args.resume and args.checkpoint_dir is None:
            parser.error(
                "--resume requires --checkpoint-dir (there is no "
                "journal to resume from)"
            )
        if args.switch_threshold is not None and args.algorithm not in (
            "HD", "native-hd",
        ):
            parser.error(
                "--switch-threshold only applies to --algorithm HD or "
                "native-hd (the other formulations have no grid to size)"
            )
        return _cmd_mine(args)
    if args.command == "generate":
        if args.out is None and args.generate_to is None:
            parser.error(
                "at least one destination is required: --out FILE.dat "
                "(plain text) and/or --generate-to STORE (packed store "
                "file, streamed with constant RAM)"
            )
        return _cmd_generate(args)
    if args.command == "serve":
        inputs = [args.database, args.attach, args.from_journal]
        if sum(value is not None for value in inputs) != 1:
            parser.error(
                "exactly one model source is required: a .dat database "
                "path, --attach STORE, or --from-journal DIR"
            )
        if not 0.0 < args.min_confidence <= 1.0:
            parser.error(
                f"--min-confidence must be in (0, 1], got "
                f"{args.min_confidence}"
            )
        if args.remine_every is not None and args.remine_every <= 0:
            parser.error("--remine-every must be positive")
        if args.attach is None and (
            args.two_phase or args.block_budget is not None
        ):
            parser.error(
                "--two-phase and --block-budget only apply with "
                "--attach (they configure the native re-mines)"
            )
        if args.attach is not None:
            _check_kernel(parser, args.kernel, args.algorithm)
        return _cmd_serve(args)
    if args.command == "query":
        actions = sum(
            (
                bool(args.basket),
                args.stats,
                args.remine,
                args.ping,
                args.shutdown,
            )
        )
        if actions != 1:
            parser.error(
                "exactly one action is required: basket items to query, "
                "--stats, --remine, --ping, or --shutdown"
            )
        if args.wait and not args.remine:
            parser.error("--wait only applies with --remine")
        return _cmd_query(args)
    return _cmd_experiment(args)


def _cmd_mine(args: argparse.Namespace) -> int:
    store = None
    if args.attach is not None:
        from .core.mmapdb import MmapPackedDB

        try:
            store = MmapPackedDB.attach(args.attach)
        except (FileNotFoundError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        db = store
        print(
            f"attached {len(db)} transactions "
            f"({db.total_items} items) from {args.attach}"
        )
    else:
        db = read_dat(args.database)
        print(f"loaded {len(db)} transactions from {args.database}")
    kernel_kwargs = {} if args.kernel is None else {"kernel": args.kernel}
    if args.algorithm is None:
        result = Apriori(
            args.min_support, max_k=args.max_k, **kernel_kwargs
        ).mine(db)
        frequent = result.frequent
        num_transactions = result.num_transactions
        print(f"serial Apriori: {len(frequent)} frequent item-sets")
        if args.report:
            from .reporting import format_report

            print(format_report(result))
            return 0
    elif args.algorithm.startswith("native"):
        extra_kwargs: dict = {}
        if args.switch_threshold is not None:
            extra_kwargs["switch_threshold"] = args.switch_threshold
        if args.two_phase:
            extra_kwargs["two_phase"] = True
            extra_kwargs["progress"] = print
        # An attached store defaults to the mmap plane: the workers
        # then map the store file itself instead of copying it.
        default_plane = "mmap" if store is not None else "shared"
        miner = make_miner(
            args.algorithm,
            args.min_support,
            args.processors,
            kernel=args.kernel,
            max_k=args.max_k,
            recv_timeout=args.recv_timeout,
            max_retries=args.max_retries,
            faults=args.fault_spec,
            data_plane=args.data_plane or default_plane,
            store_dir=args.store_dir,
            block_budget=args.block_budget,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            **extra_kwargs,
        )
        try:
            result = miner.mine(db)
        finally:
            if store is not None:
                store.close()
        frequent = result.frequent
        num_transactions = result.num_transactions
        if args.resume and miner.last_resume_k:
            print(
                f"resumed from checkpoint after pass {miner.last_resume_k}"
            )
        label = args.algorithm.partition("-")[2].upper() or "CD"
        print(
            f"native {label} on "
            f"{miner.last_pool_size or args.processors} worker "
            f"processes ({miner.data_plane} data plane): "
            f"{len(frequent)} frequent item-sets"
        )
        for record in miner.fault_log:
            print(
                f"  pass {record.k}: worker {record.worker} "
                f"{record.failure} -> {record.action} "
                f"({record.attempts} spawn attempt(s))"
            )
        if args.report:
            from .reporting import format_report

            print(format_report(result))
            return 0
    else:
        sim_kwargs = {}
        if args.switch_threshold is not None:
            sim_kwargs["switch_threshold"] = args.switch_threshold
        result = mine_parallel(
            args.algorithm,
            db,
            args.min_support,
            args.processors,
            machine=_MACHINES[args.machine],
            max_k=args.max_k,
            faults=args.fault_spec,
            kernel=args.kernel,
            **sim_kwargs,
        )
        frequent = result.frequent
        num_transactions = result.num_transactions
        print(
            f"{args.algorithm} on {args.processors} simulated processors "
            f"({_MACHINES[args.machine].name}): {len(frequent)} frequent "
            f"item-sets, response time {result.total_time:.4f}s (simulated)"
        )
        if args.report:
            from .reporting import format_report

            print(format_report(result))
            return 0
    ranked = sorted(frequent.items(), key=lambda kv: (-kv[1], kv[0]))
    for itemset, count in ranked[: args.top]:
        support = count / max(1, num_transactions)
        print(f"  {itemset}  count={count}  support={support:.4f}")
    if args.min_confidence is not None:
        rules = generate_rules(frequent, num_transactions, args.min_confidence)
        print(f"{len(rules)} rules at confidence >= {args.min_confidence}")
        for rule in rules[: args.top]:
            print(f"  {rule}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    config = t15_i6(args.transactions, seed=args.seed, num_items=args.items)
    if args.generate_to is not None:
        from .data.quest import generate_to_file

        def _progress(written: int, total: int) -> None:
            print(
                f"generated {written}/{total} transactions "
                f"({100.0 * written / max(1, total):.0f}%)"
            )

        path = generate_to_file(
            config,
            args.generate_to,
            progress=_progress,
            progress_every=args.progress_every,
        )
        size = path.stat().st_size
        print(
            f"wrote packed store {path} "
            f"({size} bytes, {args.transactions} transactions) — "
            f"mine it with: repro-mine mine --attach {path} "
            f"--algorithm native-cd"
        )
        if args.out is None:
            return 0
    db = generate(config)
    write_dat(db, args.out)
    stats = db.stats()
    print(
        f"wrote {stats.num_transactions} transactions "
        f"({stats.num_items} distinct items, avg length "
        f"{stats.avg_length:.1f}) to {args.out}"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from .serve import DatFileSource, JournalSource, RuleServer, StoreSource

    if args.attach is not None:
        source = StoreSource(
            args.attach,
            args.min_support,
            processors=args.processors,
            algorithm=args.algorithm,
            max_k=args.max_k,
            kernel=args.kernel,
            two_phase=args.two_phase,
            block_budget=args.block_budget,
        )
    elif args.from_journal is not None:
        source = JournalSource(args.from_journal)
    else:
        source = DatFileSource(
            args.database,
            args.min_support,
            max_k=args.max_k,
            kernel=args.kernel,
        )
    server = RuleServer(
        source,
        min_confidence=args.min_confidence,
        host=args.host,
        port=args.port,
        remine_every=args.remine_every,
    )
    try:
        server.start()
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def _terminate(signum, frame) -> None:
        # SIGTERM/SIGINT: unblock the wait loop; the finally below does
        # the orderly stop (drain listener, join the re-mine worker).
        server.request_shutdown()

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)
    host, port = server.address
    print(
        f"serving rules on {host}:{port} "
        f"(generation {server.index.generation}, "
        f"{server.index.num_rules} rules from {source.describe()}; "
        f"min_confidence={args.min_confidence})",
        flush=True,
    )
    try:
        server.wait_for_shutdown_request()
    finally:
        server.stop()
        snapshot = server.stats.snapshot()
        print(
            f"shut down cleanly after {snapshot['queries']} queries "
            f"({snapshot['failed_queries']} failed), "
            f"generation {server.index.generation}",
            flush=True,
        )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from .serve import RuleClient, ServerError

    client = RuleClient(args.host, args.port, timeout=args.timeout)
    try:
        with client:
            if args.ping:
                generation = client.ping()
                print(f"ok (generation {generation})")
            elif args.stats:
                stats = client.stats()
                print(f"generation:         {stats.generation}")
                print(f"model:              {stats.model}")
                print(f"uptime_seconds:     {stats.uptime_seconds:.1f}")
                print(f"queries:            {stats.queries}")
                print(f"failed_queries:     {stats.failed_queries}")
                print(f"query_p50_ms:       {stats.query_p50_ms:.3f}")
                print(f"query_p99_ms:       {stats.query_p99_ms:.3f}")
                print(f"remines:            {stats.remines}")
                print(f"remine_failures:    {stats.remine_failures}")
                print(f"remine_in_progress: {stats.remine_in_progress}")
                print(f"last_remine_error:  {stats.last_remine_error}")
            elif args.remine:
                reply = client.remine(wait=args.wait)
                if reply.get("status") == "busy":
                    print("re-mine already in progress")
                elif reply.get("last_remine_error") and args.wait:
                    print(
                        f"re-mine failed (still serving generation "
                        f"{reply['generation']}): "
                        f"{reply['last_remine_error']}"
                    )
                else:
                    print(
                        f"re-mine {'done' if args.wait else 'started'} "
                        f"(generation {reply['generation']})"
                    )
            elif args.shutdown:
                generation = client.shutdown()
                print(f"daemon shut down (generation {generation})")
            else:
                reply = client.query(args.basket, top=args.top)
                print(
                    f"generation {reply.generation}: "
                    f"{len(reply.suggestions)} suggestion(s) for basket "
                    f"{reply.basket}"
                )
                for s in reply.suggestions:
                    print(
                        f"  {s.item}  confidence={s.confidence:.3f} "
                        f"support={s.support:.3f} "
                        f"via {{{', '.join(map(str, s.antecedent))}}}"
                    )
    except ServerError as exc:
        print(f"server error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(
            f"cannot reach daemon at {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    result = run_experiment(args.name)
    print(result.to_table())
    if args.chart:
        from .experiments.plotting import render_chart

        print()
        print(render_chart(result, logx=args.logx))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: ``python -m repro``.

Seven subcommands drive the experiment API end to end:

* ``list-programs`` — the available Perfect Club program models and the
  machine presets they can run on.
* ``list-archs`` — the paper's three machine presets with their canonical
  machine specs; ``--schema`` adds every machine field, its valid range and each
  preset's full field values.
* ``run`` — simulate one (program, architecture, latency) cell.  The
  architecture may be an inline machine spec (``dva@lanes=2,ports=2``).
* ``sweep`` — execute a declarative grid and print per-cell summaries plus a
  Figure 5-style speedup table.  ``--axis name=v1,v2,...`` (repeatable) adds
  machine-parameter sweep axes crossed with the latency axis.  Sweeps are
  incremental by default: completed cells are persisted in the result store
  (``~/.cache/repro``, overridable via ``--store-dir`` or ``REPRO_CACHE_DIR``)
  and never re-simulated; ``--no-store`` opts out.
* ``figures`` — run the paper's headline grid and write the Figure 5,
  Figure 6 and Section 7 artifacts as CSV files (also store-backed).
* ``cache`` — inspect and manage the result store: ``stats``, ``gc``
  (eviction by age and/or size), ``verify`` (re-simulate stored cells row
  by row and diff them with their payloads), ``clear``.
* ``serve`` — run the long-lived sweep service: an asyncio HTTP daemon whose
  JSON API answers warm cells from the store in microseconds, deduplicates
  identical in-flight cells across clients, and streams per-cell progress
  (see :mod:`repro.service`).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.common.errors import ReproError

# Each handler imports what it runs, so building the parser (and ``--help``)
# loads no simulator, program model or service code.
if TYPE_CHECKING:  # pragma: no cover
    from repro.core.experiment import CellProgress, SweepResult
    from repro.store import ResultStore


_STORE_DIR_HELP = (
    "result-store directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)"
)


def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    """The store on/off switch and location flag shared by sweeping commands."""
    parser.add_argument(
        "--store",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="cache completed cells in the persistent result store so "
        "interrupted or repeated runs never re-simulate them "
        "(--no-store disables)",
    )
    parser.add_argument(
        "--store-dir", default=None, help=_STORE_DIR_HELP
    )


def _positive_int(text: str) -> int:
    """An argparse type: a positive integer."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _port(text: str) -> int:
    """An argparse type: a TCP port number, 0-65535."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"expected a port number 0-65535, got {text!r}")
    return value


def _axis_pair(text: str) -> Tuple[str, str]:
    """An argparse type: one ``--axis name=v1,v2,...`` as its ``(name, "v1,v2,...")`` pair."""
    name, eq, values = text.partition("=")
    if not eq or not name.strip():
        raise argparse.ArgumentTypeError(
            f"malformed sweep axis {text!r} (expected name=v1,v2,...)"
        )
    return name, values


def _store_from_args(args: argparse.Namespace) -> Optional[ResultStore]:
    """The :class:`ResultStore` the command should use, or ``None`` when off."""
    if not args.store:
        return None
    from repro.store import ResultStore

    return ResultStore(args.store_dir)


def build_parser() -> argparse.ArgumentParser:
    """The full ``python -m repro`` argparse tree.

    Public so tooling can introspect the real interface —
    ``scripts/gen_cli_docs.py`` renders ``docs/cli.md`` from exactly this
    parser, and CI fails when the two drift apart.
    """
    from repro.core.config import PROGRAM_NAMES
    from repro.core.registry import architecture_names

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduction of 'Decoupled Vector Architectures' "
            "(Espasa & Valero, HPCA 1996)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list-programs", help="list the available benchmark program models"
    )
    list_parser.set_defaults(handler=_cmd_list_programs)

    archs_parser = subparsers.add_parser(
        "list-archs", help="list the paper's three machine presets"
    )
    archs_parser.add_argument(
        "--schema",
        action="store_true",
        help="print every machine field with its valid range and each "
        "preset's full MachineSpec",
    )
    archs_parser.set_defaults(handler=_cmd_list_archs)

    run_parser = subparsers.add_parser(
        "run", help="simulate one program on one architecture"
    )
    run_parser.add_argument("--program", required=True, help="benchmark program name")
    run_parser.add_argument(
        "--arch",
        default="dva",
        help=f"architecture ({', '.join(architecture_names())}) "
        "or an inline spec like dva@lanes=2,ports=2,bypass=off",
    )
    run_parser.add_argument(
        "--latency", type=int, default=1, help="memory latency in cycles"
    )
    run_parser.add_argument(
        "--scale", type=float, default=1.0, help="trace scale factor"
    )
    run_parser.set_defaults(handler=_cmd_run)

    sweep_parser = subparsers.add_parser(
        "sweep", help="run a (programs x latencies x architectures) grid"
    )
    sweep_parser.add_argument(
        "--programs", required=True, help="comma-separated program names"
    )
    sweep_parser.add_argument(
        "--latencies",
        default="",
        help="comma-separated memory latencies (or give the latency axis "
        "as --axis latency=v1,v2,...)",
    )
    sweep_parser.add_argument(
        "--arch",
        default="ref,dva",
        help="comma-separated architectures, preset names or inline specs "
        "(default: ref,dva)",
    )
    sweep_parser.add_argument(
        "--axis",
        action="append",
        type=_axis_pair,
        default=[],
        metavar="NAME=V1,V2,...",
        help="extra sweep axis over a machine field, e.g. --axis lanes=1,2,4 "
        "--axis ports=1,2 (repeatable; crossed with the latency axis)",
    )
    sweep_parser.add_argument(
        "--scale", type=float, default=1.0, help="trace scale factor"
    )
    sweep_parser.add_argument(
        "--jobs", type=_positive_int, default=1, help="worker processes (1 = serial)"
    )
    sweep_parser.add_argument(
        "--output", help="write the full sweep result as JSON to this path"
    )
    sweep_parser.add_argument(
        "--progress",
        action="store_true",
        help="print one line per finished cell (done/total, cached vs "
        "simulated) so long sweeps are observable",
    )
    _add_store_arguments(sweep_parser)
    sweep_parser.set_defaults(handler=_cmd_sweep)

    figures_parser = subparsers.add_parser(
        "figures", help="reproduce the paper's figure/table artifacts as CSV"
    )
    figures_parser.add_argument(
        "--programs",
        default=",".join(PROGRAM_NAMES),
        help="comma-separated program names (default: all six)",
    )
    figures_parser.add_argument(
        "--latencies",
        default="1,10,50,100",
        help="comma-separated memory latencies (default: the paper's sweep)",
    )
    figures_parser.add_argument(
        "--scale", type=float, default=1.0, help="trace scale factor"
    )
    figures_parser.add_argument(
        "--jobs", type=_positive_int, default=1, help="worker processes (1 = serial)"
    )
    figures_parser.add_argument(
        "--out-dir", default="figures", help="directory to write the CSV files into"
    )
    _add_store_arguments(figures_parser)
    figures_parser.set_defaults(handler=_cmd_figures)

    cache_parser = subparsers.add_parser(
        "cache", help="inspect and manage the persistent result store"
    )
    cache_subparsers = cache_parser.add_subparsers(dest="cache_command", required=True)

    stats_parser = cache_subparsers.add_parser(
        "stats", help="entry counts and sizes of the store (refreshes the index)"
    )
    stats_parser.add_argument(
        "--store-dir", default=None, help=_STORE_DIR_HELP
    )
    stats_parser.add_argument(
        "--json", action="store_true", help="print the statistics as JSON"
    )
    stats_parser.set_defaults(handler=_cmd_cache_stats)

    gc_parser = cache_subparsers.add_parser(
        "gc",
        help="evict old entries and reclaim space "
        "(stale format versions are always removed)",
    )
    gc_parser.add_argument(
        "--store-dir", default=None, help=_STORE_DIR_HELP
    )
    gc_parser.add_argument(
        "--max-age-days", type=float, default=None,
        help="evict entries written longer ago than this many days",
    )
    gc_parser.add_argument(
        "--max-bytes", type=int, default=None,
        help="evict oldest entries until the store fits this many bytes",
    )
    gc_parser.add_argument(
        "--dry-run", action="store_true",
        help="report what would be evicted without deleting anything",
    )
    gc_parser.set_defaults(handler=_cmd_cache_gc)

    verify_parser = cache_subparsers.add_parser(
        "verify",
        help="re-simulate stored cells without the fast-forward and diff them "
        "with their stored results (exit 1 on any difference)",
    )
    verify_parser.add_argument(
        "--store-dir", default=None, help=_STORE_DIR_HELP
    )
    verify_parser.add_argument(
        "--sample", type=_positive_int, default=None, metavar="N",
        help="check N entries spread over the store instead of all of them",
    )
    verify_parser.set_defaults(handler=_cmd_cache_verify)

    clear_parser = cache_subparsers.add_parser(
        "clear", help="delete every cached result (all format versions)"
    )
    clear_parser.add_argument(
        "--store-dir", default=None, help=_STORE_DIR_HELP
    )
    clear_parser.set_defaults(handler=_cmd_cache_clear)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the sweep service: an HTTP JSON API over the result store "
        "(warm cells answer from the store, concurrent identical requests "
        "share one simulation, progress streams as server-sent events)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="interface to bind"
    )
    serve_parser.add_argument(
        "--port", type=_port, default=8023, help="TCP port to bind (0 = ephemeral)"
    )
    serve_parser.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker processes that simulate cold cells (the server process "
        "itself never simulates)",
    )
    serve_parser.add_argument(
        "--store-dir", default=None, help=_STORE_DIR_HELP
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Library-level :class:`~repro.common.errors.ReproError` failures and
    :class:`OSError` failures (an output path that cannot be written)
    become exit code 2 with a one-line message, matching argparse's own
    behaviour for unparseable input.  A reader that closes stdout early
    (``repro sweep ... | head -2``) ends the command quietly with exit
    code 1, as the Python documentation's note on SIGPIPE recommends.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Later flushes (at exit too) go to /dev/null instead of failing again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ReproError, OSError) as exc:
        parser.exit(2, f"error: {exc}\n")
        return 2  # pragma: no cover - parser.exit raises SystemExit


# -- subcommand handlers ---------------------------------------------------------------


def _cmd_list_programs(args: argparse.Namespace) -> int:
    from repro.core.registry import architecture_names
    from repro.workloads.perfect_club import load_program, program_names

    for name in program_names():
        model = load_program(name)
        print(f"{name:8s} {model.description}")
    print(f"\narchitectures: {', '.join(architecture_names())}")
    return 0


def _cmd_list_archs(args: argparse.Namespace) -> int:
    from repro.core.figures import format_table
    from repro.core.machine import FIELDS
    from repro.core.registry import PRESETS

    width = max(len(name) for name in PRESETS)
    for name, (spec, description) in PRESETS.items():
        print(f"{name:{width}s}  {spec.to_string():24s}  {description}")
    if not args.schema:
        return 0

    print("\nmachine fields (spec-string keys; aliases in parentheses):")
    rows = [
        {
            "key": info.key,
            "aliases": info.attribute if info.attribute != info.key else "-",
            "type": info.kind,
            "range": info.range_text,
            "default": info.default if info.kind != "bool"
            else ("on" if info.default else "off"),
            "families": ",".join(info.families),
            "description": info.description,
        }
        for info in FIELDS
    ]
    print(format_table(rows))

    print("\npresets (fields that differ from the defaults above; the rest run at them):")
    for name, (spec, _) in PRESETS.items():
        fields = ", ".join(
            f"{attr}={value}" for attr, value in spec.overrides().items()
        ) or "-"
        print(f"  {name:{width}s}  family={spec.family}  {fields}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.core.experiment import Runner, SweepSpec

    # The one-cell sweep it names, validated like any grid before its trace is built.
    spec = SweepSpec((args.program,), (args.latency,), (args.arch,), args.scale)
    [result] = Runner().run(spec)
    print(json.dumps(result.summary(), indent=2))
    return 0


def _print_progress(event: "CellProgress") -> None:
    """One ``--progress`` line per finished cell, on stderr.

    Progress goes to stderr so scripts that parse the sweep's stdout (the
    summary table, ``--output`` confirmations) are unaffected.
    """
    source = "cached" if event.from_store else "simulated"
    print(
        f"[{event.done}/{event.total}] {event.program} "
        f"lat={event.latency} {event.architecture}: {source} "
        f"({event.cached} cached, {event.simulated} simulated)",
        file=sys.stderr,
    )


def _print_store_line(sweep: SweepResult, store: Optional[ResultStore]) -> None:
    if store is None:
        return
    print(
        f"store: {sweep.cached_count} cached, {sweep.simulated_count} "
        f"simulated ({store.root})"
    )


def _summary_rows(sweep: SweepResult) -> List[dict]:
    return [
        {
            "program": result.program,
            "latency": result.latency,
            "arch": result.architecture,
            "total_cycles": result.total_cycles,
            "instructions": result.instructions,
            "traffic_bytes": result.memory_traffic_bytes,
        }
        for result in sweep
    ]


def _print_speedup_table(sweep: SweepResult) -> None:
    from repro.core.figures import format_table, speedup_table

    baseline = "ref"
    labels = sweep.architecture_labels()
    targets = [name for name in labels if name != baseline]
    if baseline not in labels or not targets:
        print("\n(speedup table needs 'ref' plus at least one other architecture)")
        return
    for target in targets:
        print(f"\nFigure 5 — {target.upper()} speedup over REF:")
        print(format_table(speedup_table(sweep, target=target)))


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core.experiment import Runner, SweepSpec
    from repro.core.figures import format_table

    spec = SweepSpec(
        programs=args.programs,
        latencies=args.latencies,
        architectures=args.arch,
        scale=args.scale,
        axes=args.axis,
    )
    store = _store_from_args(args)
    progress = _print_progress if args.progress else None
    # Opened before any cell runs, so a path that cannot be written fails first.
    with open(args.output, "w") if args.output else contextlib.nullcontext() as output:
        sweep = Runner(jobs=args.jobs, store=store).run(spec, progress=progress)
        if output is not None:
            json.dump(sweep.to_json(), output, indent=2)
    shape = (f"{len(sweep.spec.programs)} programs x "
             f"{len(sweep.spec.latencies)} latencies x "
             f"{len(sweep.spec.architectures)} architectures")
    for name, values in sweep.spec.axes:
        shape += f" x {len(values)} {name}"
    print(f"sweep: {len(sweep)} cells ({shape})")
    _print_store_line(sweep, store)
    print()
    print(format_table(_summary_rows(sweep)))
    _print_speedup_table(sweep)
    if args.output:
        print(f"\nwrote {args.output}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.core import figures
    from repro.core.experiment import Runner, SweepSpec

    spec = SweepSpec(
        programs=args.programs,
        latencies=args.latencies,
        architectures=("ref", "dva", "dva-nobypass"),
        scale=args.scale,
    )
    store = _store_from_args(args)
    os.makedirs(args.out_dir, exist_ok=True)  # before any cell runs
    sweep = Runner(jobs=args.jobs, store=store).run(spec)
    _print_store_line(sweep, store)

    artifacts = {
        "figure5_speedup.csv": figures.speedup_table(sweep),
        "figure5_speedup_nobypass.csv": figures.speedup_table(sweep, target="dva-nobypass"),
        "figure6_avdq_occupancy.csv": figures.queue_occupancy_rows(sweep),
        "section7_bypass.csv": figures.bypass_traffic_table(sweep),
    }
    for filename, rows in artifacts.items():
        path = os.path.join(args.out_dir, filename)
        figures.write_csv(rows, path)
        print(f"wrote {path} ({len(rows)} rows)")

    sweep_path = os.path.join(args.out_dir, "sweep.json")
    with open(sweep_path, "w") as handle:
        json.dump(sweep.to_json(), handle, indent=2)
    print(f"wrote {sweep_path}")
    return 0


# -- cache management ------------------------------------------------------------------


def _cache_store(args: argparse.Namespace) -> ResultStore:
    from repro.store import ResultStore, default_store_root

    return ResultStore(args.store_dir if args.store_dir else default_store_root())


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    store = _cache_store(args)
    stats = store.stats(refresh_index=True)
    if args.json:
        print(json.dumps(stats, indent=2))
        return 0
    print(f"store:     {stats['root']} (format v{stats['format']})")
    print(f"entries:   {stats['entry_count']}")
    print(f"size:      {stats['total_bytes']} bytes")
    by_architecture = stats["by_architecture"]
    assert isinstance(by_architecture, dict)
    for name in sorted(by_architecture):
        print(f"  {name:24s} {by_architecture[name]} entries")
    stale = stats["stale_version_dirs"]
    assert isinstance(stale, list)
    if stale:
        print(f"stale format versions: {', '.join(stale)} (run 'repro cache gc')")
    return 0


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    store = _cache_store(args)
    report = store.gc(
        max_age_days=args.max_age_days,
        max_bytes=args.max_bytes,
        dry_run=args.dry_run,
    )
    verb = "would evict" if args.dry_run else "evicted"
    print(
        f"{verb} {report['evicted']} entries ({report['evicted_bytes']} bytes); "
        f"kept {report['kept']} ({report['kept_bytes']} bytes)"
    )
    removed = report["stale_version_dirs_removed"]
    assert isinstance(removed, list)
    if removed:
        what = "stale version dirs" if not args.dry_run else "stale version dirs to remove"
        print(f"{what}: {', '.join(removed)}")
    orphans = report["orphaned_tmp_files"]
    if orphans:
        what = "orphaned tmp files removed" if not args.dry_run else "orphaned tmp files to remove"
        print(f"{what}: {orphans}")
    return 0


def _cmd_cache_verify(args: argparse.Namespace) -> int:
    from repro.core.experiment import verify_store

    checks = verify_store(_cache_store(args), sample=args.sample)
    counts = {outcome: 0 for outcome in ("identical", "different", "stale")}
    for check in checks:
        counts[check.outcome] += 1
        if check.outcome == "different":
            print(f"different: {check.cell}: {check.detail}")
    print(
        f"verified {len(checks)} entries: {counts['identical']} identical, "
        f"{counts['different']} different, {counts['stale']} stale"
    )
    return 1 if counts["different"] else 0


def _cmd_cache_clear(args: argparse.Namespace) -> int:
    store = _cache_store(args)
    removed = store.clear()
    print(f"cleared {removed} entries from {store.root}")
    return 0


# -- the sweep service -----------------------------------------------------------------


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import serve

    serve(
        host=args.host,
        port=args.port,
        store=args.store_dir,
        jobs=args.jobs,
    )
    return 0

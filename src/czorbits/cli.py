"""Command-line interface.

Subcommands: generate, orbits, graph, synth, lookup, verify. Exit codes:
0 success, 1 verification failure, 2 usage error, 3 input-format error
(including missing or corrupt table files and a table directory that cannot
be created, read or written), 4 matrix not in the group.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from czorbits.errors import (
    CliffordError,
    InputFormatError,
    NotInGroupError,
    VerificationError,
)
from czorbits.graph import to_dot, to_json
from czorbits.io import format_circuit, format_orbit_summary, orbit_map_records
from czorbits.io import parse_matrix, write_atomic
from czorbits.synth import evaluate
from czorbits.workspace import Workspace, atlas_dir, build_workspace, ensure_tables, write_tables


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--out-dir",
        metavar="DIR",
        default=None,
        help="table directory (default: $CLIFFORD_ATLAS_DIR or ./atlas)",
    )
    p.add_argument(
        "--no-regen",
        action="store_true",
        help="fail instead of regenerating missing table files",
    )


def _add_matrix_source(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "matrix",
        nargs="?",
        metavar="FILE",
        help="matrix text file, or - for standard input",
    )
    p.add_argument(
        "--element",
        type=int,
        metavar="ID",
        default=None,
        help="pick the group element with this table id instead of a file",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by `main`."""
    parser = argparse.ArgumentParser(
        prog="czorbits",
        description=(
            "Exact two-qubit Clifford group tables, local-Clifford orbits, "
            "CZ connectivity, and CZ-optimal synthesis."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write the three group table files")
    _add_common(p)

    p = sub.add_parser("orbits", help="write and print the orbit partition")
    _add_common(p)

    p = sub.add_parser("graph", help="print the CZ connectivity graph")
    _add_common(p)
    p.add_argument("--format", choices=("dot", "json"), default="dot")

    p = sub.add_parser("synth", help="decompose a group element into gates")
    _add_common(p)
    _add_matrix_source(p)
    p.add_argument(
        "--time-order",
        action="store_true",
        help="print gates in application order instead of product order",
    )
    p.add_argument(
        "--verify",
        action="store_true",
        help="re-evaluate the circuit and require exact equality",
    )

    p = sub.add_parser("lookup", help="membership, orbit, and layer of a matrix")
    _add_common(p)
    _add_matrix_source(p)

    p = sub.add_parser("verify", help="run every structural check and report")
    _add_common(p)

    return parser


def _resolve(args, parser: argparse.ArgumentParser, ws: Workspace) -> int:
    """The queried element's id, from --element ID or FILE."""
    if (args.matrix is None) == (args.element is None):
        parser.error("provide exactly one of FILE or --element ID")
    if args.element is not None:
        try:
            return ws.c2._check_id(args.element)
        except ValueError as exc:
            parser.error(f"--element: {exc}")
    if args.matrix == "-":
        text = sys.stdin.read()
    else:
        path = Path(args.matrix)
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputFormatError(f"cannot read {path}: {exc}") from None
    m = parse_matrix(text)
    eid = ws.c2.contains(m)
    if eid is not None:
        return eid
    # every element is unitary, so only a miss needs the exact product
    if not m.is_unitary():
        raise NotInGroupError("matrix is not unitary")
    raise NotInGroupError("matrix is unitary but not an element of the group")


@functools.cache
def _commands() -> dict[str, argparse.ArgumentParser]:
    """The subparser `build_parser` made for each command name."""
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


@functools.cache
def _actions(command: str) -> tuple[dict, argparse.Action | None, dict]:
    """The `command` subparser's actions as `_scan` reads them: each option
    string of a `store_const`/`store_true` or one-value `store` action, the
    positional (a command has at most one, with `nargs="?"`, and no action
    is required), and every dest's default."""
    options, positional, defaults = {}, None, {}
    for action in _commands()[command]._actions:
        if action.default is not argparse.SUPPRESS:
            defaults[action.dest] = action.default
        if not action.option_strings:
            positional = action
        elif isinstance(action, argparse._StoreConstAction) or (
            isinstance(action, argparse._StoreAction) and action.nargs is None
        ):
            options.update(dict.fromkeys(action.option_strings, action))
    return options, positional, defaults


def _value(action: argparse.Action, token: str):
    """`token` through the action's own type and choices, as argparse takes it."""
    value = token if action.type is None else action.type(token)
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"{value!r} is not a choice")
    return value


def _scan(command: str, tokens: list[str]) -> argparse.Namespace | None:
    """`tokens` in one exact pass over the command's actions: the positional
    as the first token only, then each option at most once by its exact
    string, a `store` option with the next token as its value; None for any
    other token, a value starting with "-" or one its type or choices reject."""
    options, positional, defaults = _actions(command)
    values, given, words = dict(defaults), set(), iter(tokens)
    try:
        if positional is not None and tokens and not tokens[0].startswith("-"):
            values[positional.dest] = _value(positional, next(words))
        for word in words:
            action = options.get(word)
            if action is None or action.dest in given:
                return None
            given.add(action.dest)
            if action.nargs == 0:
                values[action.dest] = action.const
                continue
            value = next(words, "-")  # a missing value declines as a dash does
            if value.startswith("-"):
                return None
            values[action.dest] = _value(action, value)
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        return None
    return argparse.Namespace(command=command, **values)


def _parse(argv: list[str]) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`. A command's argv that `_scan` takes
    whole is read off its subparser's actions with no argparse pass; any other
    argv goes to the full parser, so help and usage errors print as it prints
    them."""
    if argv and argv[0] in _commands():
        args = _scan(argv[0], argv[1:])
        if args is not None:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    parser = build_parser()
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    out = sys.stdout

    try:
        ws = build_workspace()
        table_dir = atlas_dir(args.out_dir)

        try:
            if args.command == "generate":
                written = write_tables(ws, table_dir)
            else:
                ensure_tables(
                    ws,
                    table_dir,
                    no_regen=args.no_regen,
                    validate=(args.command == "verify"),
                )
            if args.command == "orbits":
                table_dir.mkdir(parents=True, exist_ok=True)
                write_atomic(table_dir / "orbit_map.txt", orbit_map_records(ws.atlas))
                summary = format_orbit_summary(ws.atlas, ws.c2)
                write_atomic(table_dir / "orbit_summary.txt", summary.encode())
        except OSError as exc:
            raise InputFormatError(f"table directory {table_dir}: {exc}") from None

        if args.command == "generate":
            for path in written:
                out.write(f"wrote {path}\n")
            return 0

        if args.command == "orbits":
            out.write(summary)
            return 0

        if args.command == "graph":
            if args.format == "dot":
                out.write(to_dot(ws.graph, ws.atlas))
            else:
                out.write(to_json(ws.graph, ws.atlas, ws.bijection))
            return 0

        if args.command == "synth":
            eid = _resolve(args, parser, ws)
            circuit = ws.synthesizer.synthesize_id(eid)
            if args.verify and evaluate(circuit) != ws.c2.element(eid):
                raise VerificationError("circuit does not reproduce the input")
            out.write(format_circuit(circuit, time_order=args.time_order))
            return 0

        if args.command == "lookup":
            eid = _resolve(args, parser, ws)
            oid = ws.atlas.orbit_of[eid]
            out.write(f"element {eid}\n")
            out.write(f"orbit O{oid}\n")
            out.write(f"reference-label O{ws.bijection[oid]}\n")
            out.write(f"layer {ws.atlas.layer(oid)}\n")
            return 0

        if args.command == "verify":
            from czorbits.verify import run_verification  # only this command pays its import

            report = run_verification(ws)
            for line in report.lines():
                out.write(line + "\n")
            return 0 if report.overall else 1

    except CliffordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code

    raise AssertionError("unhandled command")


if __name__ == "__main__":
    sys.exit(main())

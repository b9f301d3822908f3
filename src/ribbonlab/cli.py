"""
Command line surface: ``ribbonlab <subcommand> ...``.

Output is deterministic text on stdout. Exit codes: 0 success, 1 input or
usage error, 2 search Unknown, 3 search Refuted.

Each invocation runs one command, so this module imports only ``ribbon``
at load time and each command branch (and each ``gen`` helper) imports
the modules it runs: ``validate``, ``canon`` and ``genus`` load
``ribbon`` alone, ``quandle`` and ``color`` add ``quandle``, ``alex``
adds ``alexander``, ``apply`` and ``gen`` add ``moves``, and ``search``
adds ``moves``, ``quandle`` and ``search``.  Interpreter start and
imports dominate a command's time; the package docstring gives each
module's import cost.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .ribbon import (
    Handle,
    RibbonData,
    SignedLetter,
    _cancelling,
    _decimal,
    _reading,
    canonical_form,
    genus,
    parse_ribbon,
    serialize,
)

__all__ = ["run", "main", "generate"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# example generators


def _random_data(bases: int, handles: int, max_len: int, seed: int) -> RibbonData:
    import random

    if bases < 1:
        raise ValueError("random: need at least one base")
    if handles < bases - 1:
        raise ValueError("random: need at least bases-1 handles for connectivity")
    if max_len < 0:
        raise ValueError("random: word length must be >= 0")
    rng = random.Random(seed)
    ends = []
    for i in range(2, bases + 1):
        ends.append((rng.randint(1, i - 1), i))
    for _ in range(handles - (bases - 1)):
        ends.append((rng.randint(1, bases), rng.randint(1, bases)))
    built = []
    for start, end in ends:
        length = rng.randint(0, max_len)
        word = tuple(
            SignedLetter(rng.randint(1, bases), rng.choice((1, -1))) for _ in range(length)
        )
        built.append(Handle(start, end, word))
    return RibbonData(2, bases, tuple(built))


def _stable_move_pool(data: RibbonData, rng: random.Random):
    from .moves import CancelDelete, CancelInsert, ReverseHandle, slides

    moves = slides(data)
    n = len(data.handles)
    for i in range(1, n + 1):
        moves.append(ReverseHandle(i))
    for i, h in enumerate(data.handles, start=1):
        moves.append(
            CancelInsert(i, rng.randint(0, len(h.word)), rng.randint(1, data.base_count), rng.choice((1, -1)))
        )
        for pos in range(len(h.word) - 1):
            if _cancelling(h.word[pos], h.word[pos + 1]):
                moves.append(CancelDelete(i, pos))
    return moves


def _scramble(data: RibbonData, rng: random.Random, steps: int) -> RibbonData:
    from .moves import apply_move

    # no pool is empty: a caller asking for steps passes a record with a handle, and moves keep the count
    for _ in range(steps):
        data = apply_move(data, rng.choice(_stable_move_pool(data, rng)))
    return data


def generate(spec: str) -> RibbonData:
    """Build named example data.

    Specs: ``unknot``, ``spun-trefoil``, ``torus:<g>``,
    ``stabilized:<k>:<seed>`` (k stabilizations then a seeded scramble of
    slides, reversals and free cancellations), and
    ``random:<b>:<h>:<len>:<seed>`` (connected by construction: a spanning
    tree of handles first, then extras, then random crossing words).
    Arguments are plain decimals: an optional ``-`` and ASCII digits.
    """
    import random

    from .moves import apply_stabilize

    parts = spec.split(":")
    kind = parts[0]

    def intargs(n):
        if len(parts) != n + 1:
            raise ValueError(f"generator '{kind}' takes {n} arguments")
        try:
            return [_decimal(p) for p in parts[1:]]
        except ValueError:
            raise ValueError(f"non-integer argument in generator spec '{spec}'") from None

    if kind == "unknot":
        intargs(0)
        return RibbonData(2, 1, ())
    if kind == "spun-trefoil":
        intargs(0)
        word = (SignedLetter(2, -1), SignedLetter(1, -1))
        return RibbonData(2, 2, (Handle(1, 2, word),))
    if kind == "torus":
        (g,) = intargs(1)
        if g < 0:
            raise ValueError("torus: genus must be >= 0")
        return RibbonData(2, 1, tuple(Handle(1, 1, ()) for _ in range(g)))
    if kind == "stabilized":
        k, seed = intargs(2)
        if k < 0:
            raise ValueError("stabilized: count must be >= 0")
        data = RibbonData(2, 1, ())
        for _ in range(k):
            rng_target = random.Random(f"{seed}:{data.base_count}").randint(1, data.base_count)
            data = apply_stabilize(data, rng_target)
        return _scramble(data, random.Random(seed), 3 * k)
    if kind == "random":
        b, h, max_len, seed = intargs(4)
        return _random_data(b, h, max_len, seed)
    raise ValueError(f"unknown generator spec '{spec}'")


# ---------------------------------------------------------------------------
# helpers


def _load_data(path: str) -> RibbonData:
    return parse_ribbon(Path(path).read_text(encoding="utf-8"))


def _load_quandle(spec: str) -> FiniteQuandle:
    from .quandle import builtin_quandle, parse_quandle

    built = builtin_quandle(spec)
    if built is not None:
        return built
    q = parse_quandle(Path(spec).read_text(encoding="utf-8"), name=Path(spec).name)
    # the verdict ``count_colorings`` reads too, computed once per table
    problems = q._axiom_problems
    if problems:
        raise ValueError(f"quandle file {spec} violates axioms: {problems[0]}")
    return q


def _op_word(operators) -> str:
    return " ".join(f"g{g}" if e > 0 else f"~g{g}" for g, e in operators)


def _free_word(letters) -> str:
    return " ".join(f"g{x}" if x > 0 else f"g{-x}^-1" for x in letters)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ribbonlab", description="ribbon presentation workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check structural invariants")
    p.add_argument("file")

    p = sub.add_parser("canon", help="print the canonical form")
    p.add_argument("file")

    p = sub.add_parser("genus", help="print the presented genus")
    p.add_argument("file")

    p = sub.add_parser("quandle", help="print the presented quandle (or group)")
    p.add_argument("file")
    p.add_argument("--group", action="store_true")

    p = sub.add_parser("color", help="count colorings over a finite quandle")
    p.add_argument("file")
    p.add_argument("--quandle", required=True, metavar="FILE|dihedral:m|trivial:m")
    p.add_argument("--list", action="store_true", dest="list_all")

    p = sub.add_parser("alex", help="print the Alexander polynomial")
    p.add_argument("file")

    p = sub.add_parser("apply", help="apply a move script")
    p.add_argument("file")
    p.add_argument("--script", required=True)

    p = sub.add_parser("search", help="search for an equivalence certificate")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument(
        "--depth",
        type=int,
        required=True,
        help="breadth-first levels of both sides together; each side is reduced first and a "
        "script may start with part of that reduction, so scripts can be longer, and an "
        "UNKNOWN state count includes the reduction paths",
    )
    p.add_argument("--weak", type=int, required=True)
    p.add_argument("--states", type=int, default=100_000)
    p.add_argument("--stats", action="store_true", help="print search statistics as JSON on stderr")

    p = sub.add_parser("gen", help="emit generated example data")
    p.add_argument("spec")

    return parser


def run(argv, out=None) -> int:
    """Dispatch one invocation; returns the exit code."""
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return 1

    try:
        if args.command == "validate":
            _load_data(args.file)  # the parser refuses every problem validate reports
            print("ok", file=out)
            return 0

        if args.command == "canon":
            print(serialize(canonical_form(_load_data(args.file))), end="", file=out)
            return 0

        if args.command == "genus":
            print(genus(_load_data(args.file)), file=out)
            return 0

        if args.command == "quandle":
            from .quandle import group_presentation, quandle_presentation

            pres = (group_presentation if args.group else quandle_presentation)(_load_data(args.file))
            print(f"generators {pres.generators}", file=out)
            for i, rel in enumerate(pres.relations, start=1):
                line = f"rel {i}: g{rel.end} = g{rel.start}"
                if args.group and rel.conjugator:
                    line = f"rel {i}: g{rel.end} = W^-1 g{rel.start} W, W = {_free_word(rel.conjugator)}"
                elif not args.group and rel.operators:
                    line += f" ^ {_op_word(rel.operators)}"
                print(line, file=out)
            return 0

        if args.command == "color":
            from .quandle import count_colorings, list_colorings

            data = _load_data(args.file)
            q = _load_quandle(args.quandle)
            if args.list_all:
                found = list_colorings(data, q)
                print(len(found), file=out)
                for assignment in found:
                    print(" ".join(str(v) for v in assignment), file=out)
            else:
                print(count_colorings(data, q), file=out)
            return 0

        if args.command == "alex":
            from .alexander import alexander_polynomial

            print(alexander_polynomial(_load_data(args.file)), file=out)
            return 0

        if args.command == "apply":
            from .moves import apply_script, parse_script

            data = _load_data(args.file)
            script = parse_script(Path(args.script).read_text(encoding="utf-8"))
            print(serialize(apply_script(data, script)), end="", file=out)
            return 0

        if args.command == "search":
            from .moves import _successors
            from .search import Equivalent, Refuted, _steps_info, search_equiv, serialize_outcome

            a = _load_data(args.file_a)
            b = _load_data(args.file_b)
            stats = {} if args.stats else None
            outcome = search_equiv(a, b, args.depth, args.weak, args.states, stats=stats)
            print(serialize_outcome(outcome), end="", file=out)
            if stats is not None:
                import json  # only here, so other calls do not pay its import

                stats["caches"] = {
                    name: {"hits": info.hits, "misses": info.misses}
                    for name, info in (
                        ("handle_readings", _reading.cache_info()),
                        ("successors", _successors.cache_info()),
                    )
                }
                stats["caches"]["reduction_steps"] = dict(_steps_info)
                print(json.dumps(stats), file=sys.stderr)
            if isinstance(outcome, Equivalent):
                return 0
            if isinstance(outcome, Refuted):
                return 3
            return 2

        if args.command == "gen":
            print(serialize(generate(args.spec)), end="", file=out)
            return 0

    # RibbonFormatError, ScriptFormatError and MoveError are ValueErrors
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

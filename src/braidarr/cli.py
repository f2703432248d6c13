"""Command line surface.

Every subcommand prints deterministic output for fixed inputs: polynomials in
descending-power ASCII, JSON with sorted keys, no timestamps.  A verb hands
its JSON value, table lines and CSV rows to :func:`_emit`, which prints the
form ``--output`` names (``poset`` reads it too, to run one form's closure).
The names ``--method``, ``enumerate`` and ``biject`` accept are the keys of
``ROUTES``, ``ENUMERATIONS`` and ``BIJECTIONS``.
Exit codes: 0 success, 1 a ``verify`` disagreement or a closed stdout, 2 a
usage or domain error, a size refusal or a route's failed self-check.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from typing import Callable, Iterable, NamedTuple, Sequence

from . import arrangements, numbers, partitions, paths, poset, sketches
from .arrangements import ADDITIVE, ArrangementSpec, parse_preset
from .numbers import IntPolynomial, zaslavsky

TABLE1_ROWS = [
    (2, 1, 10),
    (2, 2, 14),
    (3, 1, 84),
    (3, 2, 180),
    (3, 3, 312),
    (4, 1, 1008),
    (4, 2, 3432),
    (4, 3, 8160),
    (4, 4, 15960),
]


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # one "error:" line, as for every failure
        raise UsageError(message)


class Route(NamedTuple):
    """One ``--method``: ``chi(spec, moduli)``, and ``regions(family, n, m)``
    where it counts a preset's regions outright rather than as ``zaslavsky(chi)``."""

    chi: Callable[[ArrangementSpec, list[int] | None], IntPolynomial]
    regions: Callable[[str, int, int], int] | None = None


# Table entries look the library function up when called, not at import, so
# a function rebound after import (the benchmark's tracer does this) runs.

ROUTES: dict[str, Route] = {
    "ff": Route(lambda spec, moduli: arrangements.charpoly_ff(spec, moduli)),
    "closed": Route(lambda spec, moduli: _closed_charpoly(spec),
                    lambda family, n, m: _closed_regions(family, n, m)),
    "poset": Route(lambda spec, moduli: poset.rank_sums(spec)[1]),
}

# Each builds its table, after the size guard, and returns its text lazily,
# a chunk of lines joined by newlines at a time.
ENUMERATIONS: dict[str, Callable[[int, int], Iterable[str]]] = {
    "sketches": lambda n, m: sketches.sketch_chunks(n, m),
    "paths": lambda n, m: paths.path_chunks(n, m),
    "partitions": lambda n, m: partitions.partition_chunks(n, m),
}

# Each returns an object with ``to_text``, except the witness: a tuple of points.
BIJECTIONS: dict[str, Callable[[str, int | None], object]] = {
    "sketch-to-path": lambda text, m: paths.sketch_to_path(_parse_valid_sketch(text), m),
    "path-to-sketch": lambda text, m: paths.path_to_sketch(
        paths.DecoratedDyckPath.parse(text, m)
    ),
    "sketch-to-partition": lambda text, m: partitions.sketch_to_partition(
        _parse_valid_sketch(text), m
    ),
    "partition-to-sketch": lambda text, m: partitions.partition_to_sketch(
        partitions.DecoratedNonNestingPartition.parse(text, m)
    ),
    "sketch-to-witness": lambda text, m: sketches.witness_point(_parse_valid_sketch(text, m)),
}


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``braidarr ... | head``).  Point stdout at
        # devnull so the flush at exit cannot raise again, and exit 1 with no
        # traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


def run(argv: Sequence[str] | None = None) -> int:
    """Run ``argv``'s verb, parsed by its own parser if ``argv`` starts with it."""
    parser, verbs = _build_parser()
    try:
        if argv and argv[0] in verbs:
            args = verbs[argv[0]].parse_args(argv[1:])
        else:
            args = parser.parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # -h
        return int(exc.code or 0)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser and each verb's parser by name, built once: parsing
    keeps no state in a parser.  The full parser hands a verb's arguments to
    the verb's parser, so either route prints the same usage, help and errors."""
    parser = _Parser(
        prog="braidarr",
        description="Characteristic polynomials, region counts, and bijections "
        "for refinements of the braid arrangement.",
    )
    sub = parser.add_subparsers(required=True)

    for verb, text in (
        ("charpoly", "characteristic polynomial of a target"),
        ("regions", "number of regions of a target"),
    ):
        p = sub.add_parser(verb, help=text)
        _add_target_args(p)
        p.add_argument("--method", choices=ROUTES, default="ff")
        _add_output_arg(p)
        p.add_argument("--moduli", help="comma separated modulus override for ff")
        p.set_defaults(handler=_cmd_route, verb=verb)

    p = sub.add_parser("enumerate", help="list sketches, paths, or partitions")
    p.add_argument("kind", choices=ENUMERATIONS)
    _add_size_args(p)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("biject", help="translate one object into another")
    p.add_argument("direction", choices=BIJECTIONS)
    p.add_argument("text", help="object in its text format")
    p.add_argument("--m", type=int, help="rise parameter when not inferable")
    _add_output_arg(p)
    p.set_defaults(handler=_cmd_biject)

    p = sub.add_parser("stats", help="statistics over enumerations")
    p.add_argument("statistic", choices=("compartments",))
    _add_size_args(p)
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("verify", help="run built-in verification suites")
    p.add_argument("suite", choices=("table1",))
    _add_output_arg(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("poset", help="dump the intersection poset")
    _add_target_args(p)
    _add_output_arg(p, default="json")
    p.set_defaults(handler=_cmd_poset)

    return parser, sub.choices


def _add_target_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("target", nargs="?", help="preset like A:3,2 or Gamma:2,1")
    p.add_argument("--spec", help="JSON spec file instead of a preset")


def _add_size_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    _add_output_arg(p)


def _add_output_arg(p: argparse.ArgumentParser, default: str = "table") -> None:
    p.add_argument("--output", choices=("table", "json", "csv"), default=default)


def _emit(
    output: str,
    data: Callable[[], object] | None,
    lines: Iterable[str | Iterable[str]],
    csv: tuple[str, Iterable[str]] | None = None,
) -> None:
    """Print a result in the ``output`` format, computing only that form.

    ``data`` returns the JSON value, ``lines`` is the table form and ``csv``
    a header with its rows.  A result without a JSON form (``data`` None) or
    a CSV form (``csv`` None) prints its table form instead.  Python's limit
    on the digits of an int's str (4300, from 3.10.7) guards parsing input; it
    is lifted only while exact results are formatted here, lazily, and printed.
    Each table item (a line, an enumeration's chunk of lines, or the pieces
    of one long line, such as a poset's JSON) is written, then its newline
    apart: a long write cut short by a reader closing stdout raises nothing,
    and the newline raises at the next flush.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if output == "json" and data is not None:
            print(json.dumps(data(), sort_keys=True))
            return
        if output == "csv" and csv is not None:
            header, rows = csv
            lines = itertools.chain((header,), rows)
        for line in lines:
            sys.stdout.writelines([line] if isinstance(line, str) else line)
            sys.stdout.write("\n")
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _resolve_spec(args: argparse.Namespace) -> tuple[ArrangementSpec, str]:
    """The target's spec and name.  A preset's spec lists no pair until a
    route reads it, after that route's size guard."""
    if args.spec and args.target:
        raise UsageError("give either a preset target or --spec, not both")
    if args.spec:
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read {args.spec!r}: {exc.strerror}") from None
        except RecursionError:
            raise UsageError(f"cannot parse {args.spec!r}: JSON nested too deeply") from None
        return ArrangementSpec.from_json_dict(data), args.spec
    if not args.target:
        raise UsageError("missing target; expected a preset like A:3,2 or --spec")
    return ArrangementSpec.preset(args.target), args.target


def _parse_moduli(raw: str | None) -> list[int] | None:
    if raw is None:
        return None
    try:
        return [int(part) for part in raw.split(",")]
    except ValueError:
        raise UsageError(f"bad --moduli value {raw!r}") from None


def _closed_charpoly(spec: ArrangementSpec) -> IntPolynomial:
    """The A or C closed form of a spec whose every pair has the shifts
    [-m, m]: one set of 2m + 1 shifts of absolute value at most m = ``m_max``.

    With n = 1 there are no pair hyperplanes, so every target is uniform,
    and both closed forms are independent of m (t - 1 with the coordinate
    hyperplane, t without).  Expanding n roots takes about n^2 D digit steps.
    """
    n, m = spec.n, max(spec.m_max, 1)
    uniform = n == 1 or len(spec.uniform_shifts or ()) == 2 * m + 1
    if not uniform or spec.flavor != ADDITIVE and not spec.include_coordinate_hyperplanes:
        raise UsageError("no closed form for this spec; closed applies to A and C presets")
    _check_closed(n, m, lambda digits: n * n * digits)
    closed = numbers.charpoly_C_closed if spec.flavor == ADDITIVE else numbers.charpoly_A_closed
    return closed(n, m)


def _closed_regions(family: str, n: int, m: int) -> int:
    """The paper's region count of the preset ``family:n,m``, also for B,
    Gamma and Delta, which have no closed chi.  A, B and C form a product of
    about n factors, n D digit steps; Gamma sums n + 1 powers of D^1.585
    steps each (Karatsuba), and Delta two such sums."""
    sums = {"Gamma": 1, "Delta": 2}.get(family, 0)
    _check_closed(n, m, lambda d: sums * n * d**math.log2(3) if sums else n * d)
    if family == "C":
        return math.factorial(n) * numbers.raney(n, m, 1)
    formulas = {"A": numbers.regions_A_closed, "B": numbers.regions_B_closed,
                "Gamma": numbers.regions_Gamma_closed, "Delta": numbers.regions_Delta_closed}
    return formulas[family](n, m)


def _check_closed(n: int, m: int, steps: Callable[[float], float]) -> None:
    """Refuse a closed formula whose ``steps(D)`` break the work budget,
    before any arithmetic.  D = n log10(n (m + 1) + 2) bounds the digits of
    every value formed, a product of at most n factors of n (m + 1) + 2 or
    less; the n D digits held at most fit the memory budget when the work
    does.  Process CPU on a 2-vCPU x86-64 machine, m = 1, with printing: chi
    of A at n = 1500 1.2-1.5 s for 1.2e10 steps, n = 3000 8.5 s for 1.0e11;
    regions of A at n = 50000 1.6-2.2 s for 1.25e10, 200000 33 s for 2.2e11;
    of Gamma at n = 2000 0.4-0.7 s for 2.6e9, n = 5000 5.4 s for 3.3e10."""
    size = min(n, arrangements.WORK_BUDGET)  # a larger n breaks the budget by n^2 alone
    digits = size * math.log10(size * (m + 1) + 2)
    context = f"the closed form for n={n}, m={m}"
    arrangements.check_budgets(context, 0, steps(digits), "digit steps")


def _cmd_route(args: argparse.Namespace) -> int:
    """``charpoly`` or ``regions``, as ``args.verb`` says, by ``args.method``."""
    spec, target = _resolve_spec(args)
    moduli = _parse_moduli(args.moduli)
    if moduli is not None and args.method != "ff":
        raise UsageError("--moduli applies to --method ff only")
    route, head = ROUTES[args.method], {"target": target, "method": args.method}
    if args.verb == "charpoly":
        p = route.chi(spec, moduli)
        _emit(
            args.output,
            lambda: head | {"polynomial": p.to_text(), "coefficients": list(p.coefficients)},
            map(IntPolynomial.to_text, [p]),
            ("power,coefficient", (f"{k},{c}" for k, c in enumerate(p.coefficients))),
        )
        return 0
    if route.regions is None:
        count = zaslavsky(route.chi(spec, moduli), spec.n)
    elif args.spec:
        raise UsageError(f"--method {args.method} for regions needs a preset target")
    else:
        count = route.regions(*parse_preset(target))
    csv = ("target,regions", (f"{target},{c}" for c in [count]))
    _emit(args.output, lambda: head | {"regions": count}, map(str, [count]), csv)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    chunks = ENUMERATIONS[args.kind](args.n, args.m)
    lines = (line for chunk in chunks for line in chunk.split("\n"))  # json and csv only
    _emit(
        args.output,
        lambda: list(lines),
        chunks,
        ("index,item", (f'{index},"{line}"' for index, line in enumerate(lines))),
    )
    return 0


def _parse_valid_sketch(text: str, m: int | None = None) -> sketches.Sketch:
    """The sketch of ``text``; a given ``m`` must be its m (see ``Sketch.rise``)."""
    sketch = sketches.Sketch.parse(text)
    if not sketches.is_valid_sketch(sketch):
        raise UsageError(f"not a valid sketch: {text!r}")
    if m is not None:
        sketch.rise(m)
    return sketch


def _cmd_biject(args: argparse.Namespace) -> int:
    result = BIJECTIONS[args.direction](args.text, args.m)
    if isinstance(result, tuple):
        # A witness is JSON in every format, keys in "sign, exp" order: no sort_keys.
        _emit(args.output, None, [json.dumps([lp.to_json_dict() for lp in result])])
    else:
        text = result.to_text()
        _emit(args.output, lambda: {"direction": args.direction, "result": text}, [text])
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    distribution = paths.compartment_distribution(args.n, args.m)
    _emit(
        args.output,
        lambda: {"distribution": distribution},
        (f"{j} {count}" for j, count in enumerate(distribution)),
        ("compartments,count", (f"{j},{count}" for j, count in enumerate(distribution))),
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    rows, lines, csv_rows = [], [], []
    for n, m, expected_regions in TABLE1_ROWS:
        spec = ArrangementSpec.preset(f"A:{n},{m}")
        # The poset column stops at n = 3 only to keep this call cheap, as the
        # ff_count benchmark workload runs it: the four n = 4 rows would add
        # about 0.04 s CPU to its 0.015 s (in-process, 2-vCPU x86-64).
        polys = {method: route.chi(spec, None) for method, route in ROUTES.items()
                 if method != "poset" or n <= 3}
        closed = polys["closed"]
        count = zaslavsky(closed, n)
        ok = all(p == closed for p in polys.values()) and count == expected_regions
        texts = {method: p.to_text() for method, p in polys.items()}
        rows.append({"n": n, "m": m, "poset": None, **texts, "regions": count,
                     "expected_regions": expected_regions, "ok": ok})
        status = "OK" if ok else "FAIL"
        lines.append(f"n={n} m={m} chi={texts['closed']} regions={count} {status}")
        csv_rows.append(f"{n},{m},{count},{expected_regions},{status}")
    all_ok = all(row["ok"] for row in rows)
    _emit(
        args.output,
        lambda: {"rows": rows, "ok": all_ok},
        lines,
        ("n,m,regions,expected_regions,ok", csv_rows),
    )
    return 0 if all_ok else 1


def _cmd_poset(args: argparse.Namespace) -> int:
    """The whole poset as one JSON line of rendered pieces, or its flats per
    dimension and chi (int64 sums, so formatted at once), from the closure."""
    spec, target = _resolve_spec(args)
    if args.output == "json":
        _emit(args.output, None, [poset.build_poset(spec).json_chunks(target)])
        return 0
    counts, chi = poset.rank_sums(spec)
    dims = [f"dim {spec.n - rank}: {count}" for rank, count in enumerate(counts)]
    _emit(args.output, None, [f"flats: {sum(counts)}", *dims, f"charpoly: {chi.to_text()}"])
    return 0


if __name__ == "__main__":
    main()

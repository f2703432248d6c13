"""Command line surface.

Every subcommand prints deterministic output for fixed inputs: polynomials in
descending-power ASCII, JSON with sorted keys, no timestamps.  Exit codes:
0 success, 1 verification failure, 2 usage or input-domain error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

from . import numbers, partitions, paths, poset, sketches
from .arrangements import (
    ADDITIVE,
    MULTIPLICATIVE,
    ArrangementSpec,
    charpoly_ff,
)
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


def main() -> None:
    sys.exit(run(sys.argv[1:]))


def run(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidarr",
        description="Characteristic polynomials, region counts, and bijections "
        "for refinements of the braid arrangement.",
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("charpoly", help="characteristic polynomial of a target")
    _add_target_args(p)
    p.add_argument("--method", choices=("ff", "closed", "poset"), default="ff")
    _add_output_arg(p)
    p.add_argument("--moduli", help="comma separated modulus override for ff")
    p.set_defaults(handler=_cmd_charpoly)

    p = sub.add_parser("regions", help="number of regions of a target")
    _add_target_args(p)
    p.add_argument("--method", choices=("ff", "closed", "poset"), default="ff")
    _add_output_arg(p)
    p.add_argument("--moduli")
    p.set_defaults(handler=_cmd_regions)

    p = sub.add_parser("enumerate", help="list sketches, paths, or partitions")
    p.add_argument("kind", choices=("sketches", "paths", "partitions"))
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--limit", type=int, default=sketches.ENUMERATION_LIMIT)
    _add_output_arg(p)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("biject", help="translate one object into another")
    p.add_argument(
        "direction",
        choices=(
            "sketch-to-path",
            "path-to-sketch",
            "sketch-to-partition",
            "partition-to-sketch",
            "sketch-to-witness",
        ),
    )
    p.add_argument("text", help="object in its text format")
    p.add_argument("--m", type=int, help="rise parameter when not inferable")
    _add_output_arg(p)
    p.set_defaults(handler=_cmd_biject)

    p = sub.add_parser("stats", help="statistics over enumerations")
    p.add_argument("statistic", choices=("compartments",))
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--limit", type=int, default=sketches.ENUMERATION_LIMIT)
    _add_output_arg(p)
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("verify", help="run built-in verification suites")
    p.add_argument("suite", choices=("table1",))
    _add_output_arg(p)
    p.add_argument("--json", action="store_true", help="alias for --output json")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("poset", help="dump the intersection poset")
    _add_target_args(p)
    _add_output_arg(p, default="json")
    p.set_defaults(handler=_cmd_poset)

    return parser


def _add_target_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("target", nargs="?", help="preset like A:3,2 or Gamma:2,1")
    p.add_argument("--spec", help="JSON spec file instead of a preset")


def _add_output_arg(p: argparse.ArgumentParser, default: str = "table") -> None:
    p.add_argument("--output", choices=("table", "json", "csv"), default=default)


def _resolve_spec(args: argparse.Namespace) -> tuple[ArrangementSpec, str]:
    if args.spec and args.target:
        raise UsageError("give either a preset target or --spec, not both")
    if args.spec:
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read {args.spec!r}: {exc.strerror}") from None
        return ArrangementSpec.from_json_dict(data), args.spec
    if not args.target:
        raise UsageError("missing target; expected a preset like A:3,2 or --spec")
    return ArrangementSpec.preset(args.target), args.target


def _parse_moduli(args: argparse.Namespace) -> list[int] | None:
    raw = getattr(args, "moduli", None)
    if not raw:
        return None
    try:
        return [int(part) for part in raw.split(",")]
    except ValueError:
        raise UsageError(f"bad --moduli value {raw!r}") from None


def _charpoly_by_method(
    spec: ArrangementSpec, method: str, moduli: list[int] | None
) -> IntPolynomial:
    if method == "ff":
        return charpoly_ff(spec, moduli)
    if method == "closed":
        preset = _closed_form_of(spec)
        if preset is None:
            raise UsageError(
                "no closed form for this spec; closed applies to A and C presets"
            )
        return preset
    built = poset.build_poset(spec)
    return poset.charpoly_from_poset(built, spec.n)


def _closed_form_of(spec: ArrangementSpec) -> IntPolynomial | None:
    """Closed form when the spec is a uniform [-m, m] preset.

    With n = 1 there are no pair hyperplanes, and both closed forms are
    independent of m (t - 1 with the coordinate hyperplane, t without).
    """
    n = spec.n
    m = spec.m_max
    if n == 1:
        m = 1
    if m == 0:
        return None
    full = frozenset(range(-m, m + 1))
    uniform = all(
        spec.pair_shifts.get((i, j)) == full
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    )
    if not uniform:
        return None
    if spec.flavor == ADDITIVE:
        return numbers.charpoly_C_closed(n, m)
    if spec.flavor == MULTIPLICATIVE and spec.include_coordinate_hyperplanes:
        return numbers.charpoly_A_closed(n, m)
    return None


def _cmd_charpoly(args: argparse.Namespace) -> int:
    spec, target = _resolve_spec(args)
    p = _charpoly_by_method(spec, args.method, _parse_moduli(args))
    if args.output == "json":
        print(
            json.dumps(
                {
                    "target": target,
                    "method": args.method,
                    "polynomial": p.to_text(),
                    "coefficients": list(p.coefficients),
                },
                sort_keys=True,
            )
        )
    elif args.output == "csv":
        print("power,coefficient")
        for power, coefficient in enumerate(p.coefficients):
            print(f"{power},{coefficient}")
    else:
        print(p.to_text())
    return 0


def _cmd_regions(args: argparse.Namespace) -> int:
    spec, target = _resolve_spec(args)
    if args.method == "closed":
        count = _closed_regions_of(args, spec)
    else:
        p = _charpoly_by_method(spec, args.method, _parse_moduli(args))
        count = zaslavsky(p, spec.n)
    if args.output == "json":
        print(
            json.dumps(
                {"target": target, "method": args.method, "regions": count},
                sort_keys=True,
            )
        )
    elif args.output == "csv":
        print("target,regions")
        print(f"{target},{count}")
    else:
        print(count)
    return 0


def _closed_regions_of(args: argparse.Namespace, spec: ArrangementSpec) -> int:
    if not args.target or ":" not in (args.target or ""):
        raise UsageError("--method closed for regions needs a preset target")
    family, params = args.target.split(":")
    n_text, m_text = params.split(",")
    n, m = int(n_text), int(m_text)
    formulas = {
        "A": numbers.regions_A_closed,
        "B": numbers.regions_B_closed,
        "Gamma": numbers.regions_Gamma_closed,
        "Delta": numbers.regions_Delta_closed,
    }
    if family in formulas:
        return formulas[family](n, m)
    if family == "C":
        return math.factorial(n) * numbers.raney(n, m, 1)
    raise UsageError(f"no closed region formula for {args.target!r}")


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.kind == "sketches":
        items = [s.to_text() for s in sketches.enumerate_sketches(args.n, args.m, args.limit)]
    elif args.kind == "paths":
        items = [
            d.to_text() for d in paths.enumerate_decorated_paths(args.n, args.m, args.limit)
        ]
    else:
        items = [
            partitions.sketch_to_partition(s).to_text()
            for s in sketches.enumerate_sketches(args.n, args.m, args.limit)
        ]
    if args.output == "json":
        print(json.dumps(items))
    elif args.output == "csv":
        print("index,item")
        for index, item in enumerate(items):
            print(f'{index},"{item}"')
    else:
        for item in items:
            print(item)
    return 0


def _parse_valid_sketch(text: str) -> sketches.Sketch:
    sketch = sketches.Sketch.parse(text)
    if not sketches.is_valid_sketch(sketch):
        raise UsageError(f"not a valid sketch: {text!r}")
    return sketch


def _cmd_biject(args: argparse.Namespace) -> int:
    direction = args.direction
    if direction == "sketch-to-path":
        result = paths.sketch_to_path(_parse_valid_sketch(args.text)).to_text()
    elif direction == "path-to-sketch":
        decorated = paths.DecoratedDyckPath.parse(args.text, args.m)
        result = paths.path_to_sketch(decorated).to_text()
    elif direction == "sketch-to-partition":
        result = partitions.sketch_to_partition(_parse_valid_sketch(args.text)).to_text()
    elif direction == "partition-to-sketch":
        parsed = partitions.DecoratedNonNestingPartition.parse(args.text, args.m)
        result = partitions.partition_to_sketch(parsed).to_text()
    else:
        point = sketches.witness_point(_parse_valid_sketch(args.text))
        result = json.dumps([lp.to_json_dict() for lp in point])
    if args.output == "json" and direction != "sketch-to-witness":
        print(json.dumps({"direction": direction, "result": result}, sort_keys=True))
    else:
        print(result)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    distribution = paths.compartment_distribution(args.n, args.m, args.limit)
    if args.output == "json":
        print(json.dumps({"distribution": distribution}, sort_keys=True))
    elif args.output == "csv":
        print("compartments,count")
        for j, count in enumerate(distribution):
            print(f"{j},{count}")
    else:
        for j, count in enumerate(distribution):
            print(f"{j} {count}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    output = "json" if args.json else args.output
    rows = []
    all_ok = True
    for n, m, expected_regions in TABLE1_ROWS:
        closed = numbers.charpoly_A_closed(n, m)
        ff = charpoly_ff(ArrangementSpec.preset(f"A:{n},{m}"))
        poset_poly = None
        if n <= 3:
            built = poset.build_poset(ArrangementSpec.preset(f"A:{n},{m}"))
            poset_poly = poset.charpoly_from_poset(built, n)
        count = zaslavsky(closed, n)
        ok = (
            closed == ff
            and (poset_poly is None or poset_poly == closed)
            and count == expected_regions
        )
        all_ok &= ok
        rows.append(
            {
                "n": n,
                "m": m,
                "closed": closed.to_text(),
                "ff": ff.to_text(),
                "poset": poset_poly.to_text() if poset_poly is not None else None,
                "regions": count,
                "expected_regions": expected_regions,
                "ok": ok,
            }
        )
    if output == "json":
        print(json.dumps({"rows": rows, "ok": all_ok}, sort_keys=True))
    elif output == "csv":
        print("n,m,regions,expected_regions,ok")
        for row in rows:
            print(
                f"{row['n']},{row['m']},{row['regions']},"
                f"{row['expected_regions']},{'OK' if row['ok'] else 'FAIL'}"
            )
    else:
        for row in rows:
            status = "OK" if row["ok"] else "FAIL"
            print(
                f"n={row['n']} m={row['m']} chi={row['closed']} "
                f"regions={row['regions']} {status}"
            )
    return 0 if all_ok else 1


def _cmd_poset(args: argparse.Namespace) -> int:
    spec, target = _resolve_spec(args)
    built = poset.build_poset(spec)
    if args.output == "json":
        data = built.to_json_dict()
        data["target"] = target
        print(json.dumps(data, sort_keys=True))
    else:
        by_dim: dict[int, int] = {}
        for node in built.nodes:
            by_dim[node.flat.dimension] = by_dim.get(node.flat.dimension, 0) + 1
        print(f"flats: {len(built)}")
        for dim in sorted(by_dim, reverse=True):
            print(f"dim {dim}: {by_dim[dim]}")
        p = poset.charpoly_from_poset(built, spec.n)
        print(f"charpoly: {p.to_text()}")
    return 0


if __name__ == "__main__":
    main()

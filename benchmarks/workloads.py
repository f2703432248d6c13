"""Workload inputs and their oracles.

A workload is a list of CLI calls, each with an oracle that judges the call's
exit code and output without using the route the call exercises: counts come
from the closed forms in ``braidarr.numbers``, poset dumps are also pinned by
sha256 of stdout, bijections are checked by round trips, and witness points by
re-deriving their order here.  Oracles run after the pass, outside any timed
region.

Why each workload exists:

* ``ff_count``: the finite-field kernel in its three shapes (multiplicative
  with coordinate planes, without them, additive) plus ``verify table1``,
  whose 47 small-q count calls are dominated by per-call overhead.
* ``poset_dump``: intersection-poset closure, containment, Moebius and Hasse
  edges; no finite-field work.
* ``combinatorics``: bulk enumeration of sketches, paths and partitions, and
  a seeded stream of bijection and witness calls on sketches past the
  exhaustive limit, one in twenty of them malformed.
"""
from __future__ import annotations

import gc
import hashlib
import io
import json
import random
import time
from collections import deque
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from braidarr import numbers, sketches

# sha256 of stdout at the commit that introduced the benchmark; poset output
# must stay byte-identical.
PINNED_STDOUT = {
    "poset A:4,2": "767386efe246a0789ecaf956c3d178948d2affafcbd49b8b9f4d042d1cc1b150",
    "poset B:4,2": "a2b0a29f7670b02eb3d68e96da81fa65ceb6407a0d6a2147d17367e1b3385431",
    "poset Gamma:4,3": "f65d19466862d19b27f13c32360ae69ba675eeba82bd9c3ad2ba0d15b99cbf65",
    "charpoly Delta:4,3 --method poset": "d10f87326b62ceed49c42a6aaf5e6a5f716988d842b9bc71285ab6b48e4e3fe6",
    "poset A:2,1": "c5aa6153bf22fbc70453bd972440728ef0b263875de0fd6d630a1a04fecbc6c3",
    "poset B:2,2": "3b5c1c3fc852154dd74029e0ed9778526577d2ef1be551b6af52a1ef1188e5b7",
    "poset Gamma:3,1": "496c6339a6de56b949e67e23a5db7a2ff8cfddf3ba8bd4d581803397256c23a0",
    "charpoly Delta:3,1 --method poset": "2db00a49711388bf3eadb2b53b5b25a76eea1cc9fe0065ca4224f3e492717652",
}

TABLE1 = [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (4, 4)]

MALFORMED_RATE = 0.05
BIJECT_DIRECTIONS = ("sketch-to-path", "sketch-to-partition", "sketch-to-witness")

# Per workload: the full size the benchmark measures and a tiny size for the
# smoke test.  ff: dimension of the count targets; poset: (A, B, Gamma, Delta)
# presets; combinatorics: bulk sizes and stream length.
SIZES = {
    "full": {
        "ff_n": 5,
        "poset": ("A:4,2", "B:4,2", "Gamma:4,3", "Delta:4,3"),
        "sketches_n": 6,
        "bulk_n": 5,
        "stream": 288,
    },
    "tiny": {
        "ff_n": 3,
        "poset": ("A:2,1", "B:2,2", "Gamma:3,1", "Delta:3,1"),
        "sketches_n": 3,
        "bulk_n": 3,
        "stream": 24,
    },
}


@dataclass
class Outcome:
    rc: int | None
    out: str
    err: str
    error: str | None
    seconds: float
    cpu_seconds: float


Check = Callable[[Outcome], "str | None"]


@dataclass
class Call:
    """One ``cli.run`` invocation.

    ``check`` returns None when the outcome is right, else the reason.
    ``follow`` builds a call from this call's stdout; it runs next when this
    call exits 0.  ``malformed`` marks an input the program should reject.
    """

    argv: list[str]
    check: Check
    follow: Callable[[str], "Call"] | None = None
    malformed: bool = False


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failed_wellformed: int = 0
    reasons: list[str] = field(default_factory=list)


def build(workload: str, seed: int, size: str = "full") -> list[Call]:
    """The calls of one pass, determined by ``workload``, ``seed`` and ``size``."""
    rng = random.Random(f"{workload}:{seed}")
    s = SIZES[size]
    if workload == "ff_count":
        calls = _ff_calls(s["ff_n"])
    elif workload == "poset_dump":
        calls = _poset_calls(*s["poset"])
    elif workload == "combinatorics":
        calls = _bulk_calls(s["sketches_n"], s["bulk_n"])
        calls += _stream_calls(rng, s["stream"])
        return calls
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(calls)
    return calls


def inputs_digest(calls: Sequence[Call]) -> str:
    h = hashlib.sha256()
    for call in calls:
        h.update("\0".join(call.argv).encode() + b"\n")
    return h.hexdigest()


def run_pass(
    calls: Sequence[Call],
    run: Callable[[list[str]], int],
    between: Callable[[], None] = lambda: None,
) -> list[tuple[Call, Outcome]]:
    """Run every call once with stdout and stderr captured.

    Only ``run`` itself is inside the timed region.  An exception escaping
    ``run`` is recorded as the call's outcome and the pass goes on.  Before
    each call the garbage of earlier calls is collected and what survives is
    frozen out of the cyclic collector, so a call's collections scan only the
    objects it made, as in a fresh CLI process; then ``between()`` runs,
    outside the timed region.
    """
    results = []
    queue = deque(calls)
    while queue:
        call = queue.popleft()
        gc.collect()
        gc.freeze()
        between()
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        with redirect_stdout(out), redirect_stderr(err):
            start, cpu_start = time.perf_counter(), time.process_time()
            try:
                rc = run(list(call.argv))
            except Exception as exc:  # counted as a failed call
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
            cpu_seconds = time.process_time() - cpu_start
        outcome = Outcome(rc, out.getvalue(), err.getvalue(), error, seconds, cpu_seconds)
        results.append((call, outcome))
        if call.follow is not None and rc == 0 and error is None:
            queue.appendleft(call.follow(outcome.out))
    return results


def check_pass(results: Sequence[tuple[Call, Outcome]]) -> Tally:
    """Apply every oracle; a failing or crashing oracle counts one failure."""
    tally = Tally()
    for call, outcome in results:
        tally.attempted += 1
        try:
            reason = call.check(outcome)
        except Exception as exc:  # a crashing oracle is a failed call, not an abort
            reason = f"oracle raised {type(exc).__name__}: {exc}"
        if reason is not None:
            tally.failed += 1
            if not call.malformed:
                tally.failed_wellformed += 1
            if len(tally.reasons) < 20:
                tally.reasons.append(f"{' '.join(call.argv)[:120]}: {reason}")
    return tally


# ---------------------------------------------------------------- oracles


def _ok(judge: Callable[[str], "str | None"]) -> Check:
    """Exit 0, nothing on stderr, and ``judge(stdout)`` passes."""

    def check(o: Outcome) -> str | None:
        if o.error is not None:
            return f"raised {o.error}"
        if o.rc != 0:
            return f"exit {o.rc}: {o.err.strip()[:200]}"
        if o.err:
            return f"unexpected stderr {o.err[:200]!r}"
        return judge(o.out)

    return check


def _rejected(o: Outcome) -> str | None:
    """Malformed input: exit 2 with a one-line message and no stdout."""
    if o.error is not None:
        return f"raised {o.error}"
    if o.rc != 2:
        return f"exit {o.rc} for a malformed input"
    if o.out:
        return f"printed {o.out[:120]!r} for a malformed input"
    lines = o.err.splitlines()
    if len(lines) != 1 or not lines[0].startswith("error: "):
        return f"message is not one 'error:' line: {o.err[:200]!r}"
    return None


def _equals(expected: str) -> Callable[[str], "str | None"]:
    def judge(out: str) -> str | None:
        got = out.rstrip("\n")
        return None if got == expected else f"got {got[:200]!r}, expected {expected[:200]!r}"

    return judge


def _checked(argv: list[str], judge: Callable[[str], "str | None"]) -> Call:
    """A call that must exit 0 with output passing ``judge`` and, when pinned,
    matching the pinned sha256."""
    pin = PINNED_STDOUT.get(" ".join(argv))

    def pinned(out: str) -> str | None:
        reason = judge(out)
        if reason is None and pin is not None:
            digest = hashlib.sha256(out.encode()).hexdigest()
            if digest != pin:
                reason = f"stdout sha256 {digest} differs from the pinned output"
        return reason

    return Call(argv, _ok(pinned))


def parse_poly(text: str) -> list[int]:
    """Coefficients (index = power) of the CLI's ``t^2 - 5*t + 4`` format."""
    coeffs: dict[int, int] = {}
    sign = 1
    for token in text.split():
        if token in ("+", "-"):
            sign = 1 if token == "+" else -1
            continue
        if token.startswith("-"):
            sign, token = -1, token[1:]
        mag_text, _, var = token.rpartition("*") if "*" in token else ("", "", token)
        if not var.startswith("t"):
            mag_text, var = var, ""
        power = 0 if not var else 1 if var == "t" else int(var.removeprefix("t^"))
        coeffs[power] = sign * int(mag_text or 1)
        sign = 1
    return [coeffs.get(p, 0) for p in range(max(coeffs, default=-1) + 1)]


def _poset_chi(out: str) -> list[int]:
    """Coefficients of the sum of mu(X) t^dim(X) over a dumped poset."""
    data = json.loads(out)
    coeffs = [0] * (data["n"] + 1)
    for flat in data["flats"]:
        coeffs[flat["dim"]] += flat["mu"]
    return coeffs


def _regions(coeffs: Sequence[int]) -> int:
    """(-1)^n chi(-1), the region count of an arrangement with polynomial chi."""
    n = len(coeffs) - 1
    return (-1) ** n * sum(c * (-1) ** p for p, c in enumerate(coeffs))


REGION_FORMULAS = {
    "A": numbers.regions_A_closed,
    "B": numbers.regions_B_closed,
    "Gamma": numbers.regions_Gamma_closed,
    "Delta": numbers.regions_Delta_closed,
}


def _chi_judge(preset: str, parse: Callable[[str], list[int]]) -> Callable[[str], "str | None"]:
    """The polynomial ``parse`` reads must be monic of degree n with the
    closed-form region count; it must equal the closed form where there is one
    (A), and vanish at 1 where coordinate planes make the arrangement central."""
    family, params = preset.split(":")
    n, m = (int(v) for v in params.split(","))
    regions = REGION_FORMULAS[family](n, m)
    closed = list(numbers.charpoly_A_closed(n, m).coefficients) if family == "A" else None

    def judge(out: str) -> str | None:
        chi = parse(out)
        if closed is not None and chi != closed:
            return f"chi {chi} differs from the closed form {closed}"
        if len(chi) != n + 1 or chi[-1] != 1:
            return f"chi {chi} is not monic of degree {n}"
        if family in ("A", "Gamma") and sum(chi):
            return f"chi {chi} does not vanish at 1"
        got = _regions(chi)
        return None if got == regions else f"{got} regions, expected {regions}"

    return judge


def _ff_calls(n: int) -> list[Call]:
    chi_c2 = numbers.charpoly_C_closed(n, 2)
    json_c2 = {
        "coefficients": list(chi_c2.coefficients),
        "method": "ff",
        "polynomial": chi_c2.to_text(),
        "target": f"C:{n},2",
    }
    table1 = "\n".join(
        f"n={k} m={m} chi={numbers.charpoly_A_closed(k, m).to_text()} "
        f"regions={numbers.regions_A_closed(k, m)} OK"
        for k, m in TABLE1
    )
    regions_c4 = _regions(numbers.charpoly_C_closed(n, 4).coefficients)
    return [
        _checked(["regions", f"A:{n},1"], _equals(str(numbers.regions_A_closed(n, 1)))),
        _checked(["regions", f"B:{n},1"], _equals(str(numbers.regions_B_closed(n, 1)))),
        _checked(["regions", f"Delta:{n},1"], _equals(str(numbers.regions_Delta_closed(n, 1)))),
        _checked(["charpoly", f"Gamma:{n},1"], _chi_judge(f"Gamma:{n},1", parse_poly)),
        _checked(["regions", f"C:{n},4"], _equals(str(regions_c4))),
        _checked(
            ["charpoly", f"C:{n},2", "--output", "json"],
            lambda out: None if json.loads(out) == json_c2 else f"got {out.strip()!r}",
        ),
        _checked(["verify", "table1"], _equals(table1)),
    ]


def _poset_calls(a: str, b: str, gamma: str, delta: str) -> list[Call]:
    dumps = [_checked(["poset", p], _chi_judge(p, _poset_chi)) for p in (a, b, gamma)]
    return dumps + [_checked(["charpoly", delta, "--method", "poset"], _chi_judge(delta, parse_poly))]


def _distinct_lines(count: int) -> Callable[[str], "str | None"]:
    def judge(out: str) -> str | None:
        lines = out.splitlines()
        if len(lines) != count:
            return f"{len(lines)} objects, expected {count}"
        if len(set(lines)) != count:
            return "objects repeat"
        return None

    return judge


def _bulk_calls(sketches_n: int, n: int) -> list[Call]:
    count = numbers.regions_A_closed(n, 1)
    distribution = "\n".join(
        f"{j} {abs(c)}" for j, c in enumerate(numbers.charpoly_A_closed(n, 1).coefficients)
    )
    return [
        _checked(
            ["enumerate", "sketches", str(sketches_n), "1"],
            _distinct_lines(numbers.regions_A_closed(sketches_n, 1)),
        ),
        _checked(["enumerate", "paths", str(n), "1"], _distinct_lines(count)),
        _checked(["enumerate", "partitions", str(n), "1"], _distinct_lines(count)),
        _checked(["stats", "compartments", str(n), "1"], _equals(distribution)),
    ]


def _random_sketch(rng: random.Random, n: int, m: int) -> str:
    """Sketch of a random point off every hyperplane, made by point_to_sketch."""
    while True:
        point = tuple(
            sketches.LogPoint(rng.choice((-1, 1)), Fraction(rng.randrange(10**6), 997))
            for _ in range(n)
        )
        try:
            return sketches.point_to_sketch(point, m).to_text()
        except sketches.OnHyperplane:
            continue


def _malform(rng: random.Random, text: str) -> str:
    """An invalid but parseable sketch: an exponent pair swapped, a letter
    repeated, or a letter moved across the zero."""
    tokens = text.split()
    letters = [i for i, t in enumerate(tokens) if t != "0"]
    kind = rng.choice(("swap", "repeat", "cross"))
    if kind == "swap":
        sub = tokens[rng.choice(letters)].split("^")[0]
        a, b = tokens.index(f"{sub}^0"), tokens.index(f"{sub}^1")
        tokens[a], tokens[b] = tokens[b], tokens[a]
    elif kind == "repeat":
        a, b = rng.sample(letters, 2)
        tokens[a] = tokens[b]
    else:
        index = rng.choice(letters)
        zero = tokens.index("0")
        token = tokens.pop(index)
        if index < zero:
            tokens.append(token)
        else:
            tokens.insert(0, token)
    return " ".join(tokens)


def _witness_judge(text: str, m: int) -> Callable[[str], "str | None"]:
    """The witness's values 2^k x_i, ordered here from the JSON coordinates,
    must spell the sketch: negative coordinates by descending exponent,
    positive ones by ascending exponent, no two equal."""

    def judge(out: str) -> str | None:
        negatives, positives = [], []
        for i, coord in enumerate(json.loads(out), start=1):
            exp = Fraction(coord["exp"])
            for k in range(m + 1):
                (negatives if coord["sign"] < 0 else positives).append((exp + k, f"{i}^{k}"))
        negatives.sort(key=lambda e: -e[0])
        positives.sort(key=lambda e: e[0])
        for side in (negatives, positives):
            if len({e for e, _ in side}) != len(side):
                return "witness lies on a hyperplane"
        got = " ".join([t for _, t in negatives] + ["0"] + [t for _, t in positives])
        return None if got == text else f"witness orders as {got!r}"

    return judge


def _stream_calls(rng: random.Random, length: int) -> list[Call]:
    """Sketches for n = 1..8 and m = 1..3 in turn, so every seed has the same
    mix of sizes; the points and the malformed positions are random."""
    calls = []
    for item in range(length):
        n, m = 1 + item % 8, 1 + item // 8 % 3
        text = _random_sketch(rng, n, m)
        if rng.random() < MALFORMED_RATE:
            direction = rng.choice(BIJECT_DIRECTIONS)
            calls.append(Call(["biject", direction, _malform(rng, text)], _rejected, malformed=True))
            continue
        calls.extend(_biject_calls(text, m))
    return calls


def _biject_calls(text: str, m: int) -> list[Call]:
    """Path and partition round trips and a witness; each return trip takes
    the forward call's stdout as its input."""
    partition = " ".join("|" if t == "0" else t.split("^")[0] for t in text.split())
    to_path = _checked(
        ["biject", "sketch-to-path", text],
        lambda out: None if out.count("|") == 1 else f"no single mark in {out!r}",
    )
    to_path.follow = lambda out: _checked(["biject", "path-to-sketch", out.strip()], _equals(text))
    to_partition = _checked(["biject", "sketch-to-partition", text], _equals(partition))
    to_partition.follow = lambda out: _checked(
        ["biject", "partition-to-sketch", out.strip()], _equals(text)
    )
    return [to_path, to_partition, _checked(["biject", "sketch-to-witness", text], _witness_judge(text, m))]

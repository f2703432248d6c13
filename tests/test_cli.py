import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from braidarr import arrangements, cli, numbers, poset, sketches
from braidarr.arrangements import ArrangementSpec
from braidarr.cli import run
from braidarr.numbers import (
    IntPolynomial,
    charpoly_A_closed,
    charpoly_C_closed,
    regions_A_closed,
    regions_B_closed,
    zaslavsky,
)
from test_poset import check_rendered

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def capture(capsys):
    def invoke(*argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def assert_rejected(code, out, err):
    """Exit 2 with no output and a single error line."""
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def spec_file(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


A21_JSON = '"polynomial": "t^2 - 5*t + 4", "target": "A:2,1"}\n'

# Exact stdout of one call per verb and format.  biject and poset have no csv
# form and print their table form; the witness is a raw JSON list whose keys
# keep their "sign, exp" order.
GOLDEN = [
    ("charpoly A:2,1 --method ff --output table", "t^2 - 5*t + 4\n"),
    (
        "charpoly A:2,1 --method ff --output json",
        '{"coefficients": [4, -5, 1], "method": "ff", ' + A21_JSON,
    ),
    ("charpoly A:2,1 --method ff --output csv", "power,coefficient\n0,4\n1,-5\n2,1\n"),
    ("charpoly A:2,1 --method closed --output table", "t^2 - 5*t + 4\n"),
    (
        "charpoly A:2,1 --method closed --output json",
        '{"coefficients": [4, -5, 1], "method": "closed", ' + A21_JSON,
    ),
    ("charpoly A:2,1 --method closed --output csv", "power,coefficient\n0,4\n1,-5\n2,1\n"),
    ("regions A:2,1 --method ff --output table", "10\n"),
    (
        "regions A:2,1 --method ff --output json",
        '{"method": "ff", "regions": 10, "target": "A:2,1"}\n',
    ),
    ("regions A:2,1 --method ff --output csv", "target,regions\nA:2,1,10\n"),
    ("regions A:2,1 --method closed --output table", "10\n"),
    (
        "regions A:2,1 --method closed --output json",
        '{"method": "closed", "regions": 10, "target": "A:2,1"}\n',
    ),
    ("regions A:2,1 --method closed --output csv", "target,regions\nA:2,1,10\n"),
    ("enumerate sketches 1 1 --output table", "0 1^0 1^1\n1^1 1^0 0\n"),
    ("enumerate sketches 1 1 --output json", '["0 1^0 1^1", "1^1 1^0 0"]\n'),
    (
        "enumerate sketches 1 1 --output csv",
        'index,item\n0,"0 1^0 1^1"\n1,"1^1 1^0 0"\n',
    ),
    ("enumerate partitions 1 1 --output table", "| 1 1\n1 1 |\n"),
    ("enumerate partitions 1 1 --output json", '["| 1 1", "1 1 |"]\n'),
    ("enumerate partitions 1 1 --output csv", 'index,item\n0,"| 1 1"\n1,"1 1 |"\n'),
    ("stats compartments 2 1 --output csv", "compartments,count\n0,4\n1,5\n2,1\n"),
    (
        "verify table1 --output csv",
        "n,m,regions,expected_regions,ok\n2,1,10,10,OK\n2,2,14,14,OK\n"
        "3,1,84,84,OK\n3,2,180,180,OK\n3,3,312,312,OK\n4,1,1008,1008,OK\n"
        "4,2,3432,3432,OK\n4,3,8160,8160,OK\n4,4,15960,15960,OK\n",
    ),
    (
        ["biject", "sketch-to-path", "0 1^0 1^1", "--output", "json"],
        '{"direction": "sketch-to-path", "result": "| U1 D"}\n',
    ),
    (
        ["biject", "sketch-to-witness", "0 1^0 1^1", "--output", "json"],
        '[{"sign": 1, "exp": "0"}]\n',
    ),
    (
        "poset A:2,1 --output table",
        "flats: 7\ndim 2: 1\ndim 1: 5\ndim 0: 1\ncharpoly: t^2 - 5*t + 4\n",
    ),
    (
        "poset A:2,1 --output csv",
        "flats: 7\ndim 2: 1\ndim 1: 5\ndim 0: 1\ncharpoly: t^2 - 5*t + 4\n",
    ),
]


@pytest.mark.parametrize(
    "argv, expected",
    GOLDEN,
    ids=[argv if isinstance(argv, str) else " ".join(argv) for argv, _ in GOLDEN],
)
def test_golden_stdout(capture, argv, expected):
    code, out, err = capture(*(argv.split() if isinstance(argv, str) else argv))
    assert (code, out, err) == (0, expected, "")


# sha256 of the exact stdout of larger enumerations and posets, which pins
# their order; the poset values are the benchmark's pins.
ENUMERATION_SHA256 = {
    "enumerate sketches 4 1": "9a39247f0170486bed9c1ecc7a5e7dd2aa25bfc6794d717dba37e9d9a2d33d69",
    "enumerate paths 3 2 --output csv": (
        "6c4a11db7f6f5f1ff86b9778c076bf4ff2d7f30bda9b4eeff11aef4dc3b9d089"
    ),
    "enumerate partitions 4 1 --output json": (
        "e745b7d31611743e428db7f30c6a1412938e0a7e44c0014e4abcc111f695da38"
    ),
    "stats compartments 4 1": "f692f34081acce76e67b05aca8e36d463e9c4bd95e47932c951715f4729ad75c",
    # the benchmark's bulk sizes
    "enumerate paths 5 1": "e579332549a432217612dc110472f4c75934563ae44dea5329f992b80e41c455",
    "enumerate partitions 5 1 --output csv": (
        "a5fd00ec6da0546181d2787ede618bc17829fb69f979c9b8dc70120c2e9ae8f2"
    ),
    "stats compartments 5 1 --output json": (
        "130ed8e62b7277d16205d596983e19af22f1b9b47e4125239dbd0a1a03eb30e5"
    ),
    "poset A:4,2": "767386efe246a0789ecaf956c3d178948d2affafcbd49b8b9f4d042d1cc1b150",
    "poset B:2,2": "3b5c1c3fc852154dd74029e0ed9778526577d2ef1be551b6af52a1ef1188e5b7",
    "poset Gamma:3,1": "496c6339a6de56b949e67e23a5db7a2ff8cfddf3ba8bd4d581803397256c23a0",
    "charpoly Delta:3,1 --method poset": (
        "2db00a49711388bf3eadb2b53b5b25a76eea1cc9fe0065ca4224f3e492717652"
    ),
    # taken from the object enumeration: the benchmark's oracle checks only
    # the number of distinct lines of n = 6; two-digit exponents; n = 0
    "enumerate sketches 6 1": "27415c5c6cb2a3060d8526678b27907adb4cd9654c283b6e0aa10378d60ab3d4",
    "enumerate sketches 1 11 --output csv": (
        "f274fe81024714444cd295f6b123c80f9fca7406a949957e108384ed512c2b18"
    ),
    "enumerate partitions 0 1": "9a39916cc6b59141ccbe5dea6c5382faaddc2c684d216911e7ccfa0a09942690",
    "enumerate partitions 3 2 --output json": (
        "56eb1fde72ed9b57d6e473ed906d7094463e861811791e4da181e685f933f7f0"
    ),
    # past the old (m+1) n <= 12 rule, taken under its --limit override
    "enumerate partitions 3 4": "8090f469eff9c1ea7226f94d64b0ae583fda82590287f68140ad48b698683f68",
    "enumerate paths 4 3 --output csv": (
        "803099174d9b50f07c5fa5af9c8141d268f23a849caf38a69944d4ad595a4b61"
    ),
    "enumerate sketches 5 2 --output json": (
        "9a82209eb71cad8c41b0a40bd34da42ea0e9f0c03048cb84245b11573e902804"
    ),
    # past the benchmark's sizes, taken from the flat-at-a-time closure
    "poset A:4,4": "ac088d64b46a15b1ca8d5471cda7aa97ee769dd2f0173cac6497a4aeff75e22f",
    "poset A:5,1": "7e675f0e28bfbf0b9bf1654d0758046990b8cc0adad552511955f785a4840b39",
    "poset Delta:4,4": "1de8e77672b099bb8cbdf1e5652dbebe2f720f2ab8ed86283faae02fece97cea",
    "poset A:5,2 --output table": (
        "70a16602f29f0bad4991072c62964c497ad0e236a637b9b9e7fe04bb34aaa2cb"
    ),
    # 72 planes, more than 64, and offsets up to ±22; no coordinate planes
    "poset A:3,11": "8dd2066e1656c8e075aa5469d8e7a221a4b3557c46fc5d4b58e34fcf391414f4",
    "poset B:5,1": "3f214d71fc94b51698c47ee9ae5bc25943596fbc6ed310093d6644c48f96acc0",
    # taken from the dict dump, before the JSON was rendered from the arrays:
    # the benchmark's largest dump, and one of 2.4 MB in several chunks
    "poset Gamma:4,3": "f65d19466862d19b27f13c32360ae69ba675eeba82bd9c3ad2ba0d15b99cbf65",
    "poset A:5,2": "4701bbd7af4bd6c80ae8ea8ea8c38f1d4df3b45af433ee6cc8ffdaad2b386c2e",
    # taken from the object enumeration of paths: n = 6; n = 0; a long line;
    # and the compartments from the walk over every labelling
    "enumerate paths 6 1": "208a1588ff4dd89084f9852dd2e6a3129a0adb3fbf461206ecf44baf9afe63dd",
    "enumerate paths 0 1 --output csv": (
        "6036493227ac48202e1d04be272b19f9fef32e3e360ec0aae50fb3b87cef7cad"
    ),
    "enumerate paths 1 12": "6c47305db00d576d72d32d06e34c88627dd49b4e925bee584f3085916419ed66",
    "enumerate paths 5 2 --output json": (
        "bd4ac1ca9757a21cc65a83d17b57c15868ce08f5857b4b40a770a1eb36f7a03f"
    ),
    "stats compartments 6 1 --output csv": (
        "3412c9f9bc0e43ecb2c6e3ae9e5aa867eee8e1f94838440929499c9909e7fbb7"
    ),
    "stats compartments 5 4": "2a500255715d4be2ed36fdb2770a523316546fb245d8be7912e8b4fe7025d28d",
    # taken from the side table with a left and a right row per word: the
    # largest admitted n(m+1) + 1 at n = 5; csv and json; two-thousand-letter
    # lines
    "enumerate sketches 5 4": "f4a483dba263e7574a009986293c8c1c14251198392a0721401f788b84b61cb4",
    "enumerate partitions 5 4 --output csv": (
        "577b43b13e4a03c390e99d0f1969aa98216dc9678e35fe203f2df0b784e0a8a6"
    ),
    "enumerate sketches 4 3 --output json": (
        "3d36a1423e777a1d88d664b3990562e0cd81e3d782c63651008940e5e83bbc7b"
    ),
    "enumerate sketches 2 1000": "07a511c145a193d1e7ce1e98996ff6be8f8dfd6b6c0fda896acf224dd4c49db9",
}


@pytest.mark.parametrize("argv", sorted(ENUMERATION_SHA256))
def test_enumeration_stdout_sha256(capture, argv):
    code, out, err = capture(*argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATION_SHA256[argv]


# sha256 of the stdout of every enumeration in every form at (6, 1) and
# (5, 2), taken when each line was printed as its own str; the table form now
# writes a chunk of lines at a time, and json and csv split the chunks.
ENUMERATION_FORMS_SHA256 = {
    "sketches 6 1 table": "27415c5c6cb2a3060d8526678b27907adb4cd9654c283b6e0aa10378d60ab3d4",
    "sketches 6 1 json": "48f77cfef162f4a043d9c1538f43060446d4dff2ce8b789a5584cc73371124f5",
    "sketches 6 1 csv": "2b9c2e11d60383ede6cfe4581a39b4d20ca0d64d7a779ddd57c64382f6acdf22",
    "sketches 5 2 table": "01d40b1774d13231d3d5f020eaa731482550de347be1ff453d66a915a274fc05",
    "sketches 5 2 json": "9a82209eb71cad8c41b0a40bd34da42ea0e9f0c03048cb84245b11573e902804",
    "sketches 5 2 csv": "1a7079f3cb6dc5bd17ed40b3262de0f76e5e855039bde910e20b64659707ab7b",
    "paths 6 1 table": "208a1588ff4dd89084f9852dd2e6a3129a0adb3fbf461206ecf44baf9afe63dd",
    "paths 6 1 json": "18f88288e27727bf33bcfdf018481236a197b276b25c98fbc2616e8acd3d0e1b",
    "paths 6 1 csv": "8a4bedeed2e2e872625a27ab54448fc10f88a40ce5cd3bd80122ff5801f670f5",
    "paths 5 2 table": "be0b542990554ac909e575fa0abfb8d00b4885e8f3c93cb5f3be725a896962ed",
    "paths 5 2 json": "bd4ac1ca9757a21cc65a83d17b57c15868ce08f5857b4b40a770a1eb36f7a03f",
    "paths 5 2 csv": "6c1c0a667af3ff2eda03892cd1a80064ed84ddde751bd0a612d6808083a69035",
    "partitions 6 1 table": "a642592159b3b167ac4e4e9f5b2bdc241052c34eff4c058464e313fdcd8317dc",
    "partitions 6 1 json": "fa7797acf58e768b187d5427faa9d43377244016014d36296a9f693cde5f3962",
    "partitions 6 1 csv": "c8479c8a8abbacc2fa4fcb7d466a2051dd51a60b2b13a985e816398dbb5e38da",
    "partitions 5 2 table": "c6311d1adebd97e597ea7f7fcc89b7ac6db08ae2d1d1d63596d2e303de503462",
    "partitions 5 2 json": "8b22224c5349662e338c039ef242dafc48614e2dcb7db0480249d807a17f1a61",
    "partitions 5 2 csv": "c753b550ed1ffd9203e295e51ce288a6c43d2e4f6483f2b1a638f86b96aaa1aa",
}


@pytest.mark.parametrize("args", sorted(ENUMERATION_FORMS_SHA256))
def test_enumeration_forms_sha256(capture, args):
    kind, n, m, output = args.split()
    code, out, err = capture("enumerate", kind, n, m, "--output", output)
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest, err) == (0, ENUMERATION_FORMS_SHA256[args], "")


CHUNKED_ARGVS = [
    ("enumerate", kind, "3", "1", "--output", output)
    for kind in ("sketches", "partitions", "paths") for output in ("table", "json", "csv")
] + [("poset", "B:3,2", "--output", "table")]
PROJECTED = [
    ArrangementSpec.preset("B:3,1"),
    ArrangementSpec(3, arrangements.MULTIPLICATIVE, {(1, 3): [-1, 2], (2, 3): [0]}, True),
]


@pytest.mark.parametrize("chunk", [1, 7, arrangements.CHUNK_WORDS])
def test_one_chunk_size_reaches_every_loop(capture, monkeypatch, chunk):
    """Patching ``CHUNK_WORDS`` alone resizes every chunked loop, the ff
    kernel's and those of ``index_chunks``, and changes no output; at 1 the
    JSON dump yields one piece per flat and one per cover."""
    expected = ([capture(*argv) for argv in CHUNKED_ARGVS],
                [sketches.regions_by_projection(spec) for spec in PROJECTED])
    chi = arrangements.charpoly_ff(ArrangementSpec.preset("A:4,1"))
    monkeypatch.setattr(arrangements, "CHUNK_WORDS", chunk)
    assert ([capture(*argv) for argv in CHUNKED_ARGVS],
            [sketches.regions_by_projection(spec) for spec in PROJECTED]) == expected
    assert arrangements.charpoly_ff(ArrangementSpec.preset("A:4,1")) == chi
    spec = ArrangementSpec.preset("A:3,1")
    built = poset.build_poset(spec)
    check_rendered(built, spec, "A:3,1")
    if chunk == 1:  # the lists' openers and the closing text are the other three
        assert len(list(built.json_chunks("A:3,1"))) == len(built) + len(built.edges) + 3


# The methods when the grid was pinned; a new method gets its own pin.
GRID_METHODS = ("ff", "closed", "poset")
GRID_SHA256 = "5244d4994c9afff4c1b1263b098cdd1c0507677aff6690c4a86d3ec4cb12720e"


def test_route_grid_pinned(capture):
    """One sha256 over (exit code, stdout, stderr) of both verbs, every
    method, every preset family at (3,1) and (2,2) and every output; and
    ``regions`` is ``zaslavsky`` of ``charpoly`` wherever both answer."""
    assert set(GRID_METHODS) <= set(cli.ROUTES)
    digest, answers = hashlib.sha256(), {}
    for method, family, size, verb, output in itertools.product(
        GRID_METHODS, sorted(arrangements.PRESETS), ("3,1", "2,2"),
        ("charpoly", "regions"), ("table", "json", "csv"),
    ):
        argv = (verb, f"{family}:{size}", "--method", method, "--output", output)
        result = capture(*argv)
        digest.update(json.dumps([argv, *result]).encode())
        if output == "json" and result[0] == 0:
            answers[verb, method, family, size] = json.loads(result[1])
    assert digest.hexdigest() == GRID_SHA256
    checked = 0
    for (verb, method, family, size), data in answers.items():
        if verb == "charpoly" and ("regions", method, family, size) in answers:
            chi = IntPolynomial(data["coefficients"])
            regions = answers["regions", method, family, size]["regions"]
            assert regions == zaslavsky(chi, int(size[0]))
            checked += 1
    assert checked == 22  # ff: 10, poset: 8 (no C), closed: 4 (A and C)


class TestCharpoly:
    def test_poset_method(self, capture):
        code, out, _ = capture("charpoly", "A:2,1", "--method", "poset")
        assert code == 0
        assert out.strip() == "t^2 - 5*t + 4"

    def test_all_methods_agree(self, capture):
        outputs = set()
        for method in ("ff", "closed", "poset"):
            code, out, _ = capture("charpoly", "A:3,2", "--method", method)
            assert code == 0
            outputs.add(out.strip())
        assert outputs == {"t^3 - 18*t^2 + 89*t - 72"}

    def test_json_output(self, capture):
        code, out, _ = capture("charpoly", "C:2,1", "--method", "closed", "--output", "json")
        assert code == 0
        data = json.loads(out)
        assert data["coefficients"] == [0, -3, 1]
        assert data["polynomial"] == "t^2 - 3*t"

    def test_csv_output(self, capture):
        code, out, _ = capture("charpoly", "A:2,1", "--method", "closed", "--output", "csv")
        assert code == 0
        assert out.splitlines() == ["power,coefficient", "0,4", "1,-5", "2,1"]

    def test_unknown_preset(self, capture):
        code, _, err = capture("charpoly", "Q:2,1")
        assert code == 2
        assert "preset" in err

    def test_held_out_refusal(self, capture, monkeypatch):
        # a route's failed self-check exits 2, like a domain error
        count = arrangements.count_complement_points
        monkeypatch.setattr(
            arrangements, "count_complement_points", lambda spec, q: count(spec, q) + (q == 19)
        )
        code, out, err = capture("charpoly", "A:3,1")
        assert_rejected(code, out, err)
        assert err.startswith("error: held-out check failed at q=19")

    def test_closed_single_coordinate(self, capture):
        code, out, _ = capture("charpoly", "A:1,3", "--method", "closed")
        assert code == 0
        assert out.strip() == "t - 1"

    def test_closed_error_precedence(self, capture, tmp_path):
        bad, good = tmp_path / "bad.json", tmp_path / "good.json"
        bad.write_text("[2]")
        good.write_text(json.dumps({"n": 2, "flavor": "A"}))
        cases = [
            (("A:2,1", "--spec", str(bad)), "give either a preset target or --spec"),
            (("--spec", str(bad)), "spec must be a JSON object"),
            (("--spec", str(good), "--moduli", "x"), "bad --moduli value"),
            (("--spec", str(good)), "no closed form"),
            ((), "missing target"),
            (("Q:2,1", "--moduli", "x"), "bad preset"),
            (("B:2,1", "--moduli", "x"), "bad --moduli value"),
            (("B:2,1",), "no closed form"),
        ]
        for argv, message in cases:
            code, out, err = capture("charpoly", *argv, "--method", "closed")
            assert_rejected(code, out, err)
            assert message in err

    @pytest.mark.parametrize("flavor", ["A", "C"])
    def test_closed_with_a_huge_shift(self, capture, traced_peak, tmp_path, flavor):
        # uniformity is read from the number of shifts, not from [-m, m] built
        spec = spec_file(tmp_path, {"n": 2, "flavor": flavor, "shifts": {"1,2": [10**6]}})
        argv = ("charpoly", "--spec", spec, "--method", "closed")
        (code, out, err), peak = traced_peak(capture, *argv)
        assert_rejected(code, out, err)
        assert "no closed form" in err
        assert peak < 10**6

    def test_closed_spec_by_shift_count(self, capture, tmp_path):
        uniform = {"n": 2, "flavor": "A", "coords": True, "shifts": {"1,2": [1, 0, -1, 1]}}
        argv = ("charpoly", "--spec", spec_file(tmp_path, uniform), "--method", "closed")
        assert capture(*argv) == (0, "t^2 - 5*t + 4\n", "")
        # three shifts, but m = 2 asks for five
        sparse = {"n": 2, "flavor": "C", "shifts": {"1,2": [-2, 0, 2]}}
        argv = ("charpoly", "--spec", spec_file(tmp_path, sparse), "--method", "closed")
        code, out, err = capture(*argv)
        assert_rejected(code, out, err)
        assert "no closed form" in err

    def test_closed_without_formula(self, capture):
        code, _, err = capture("charpoly", "B:2,1", "--method", "closed")
        assert code == 2

    def test_moduli_override(self, capture):
        code, out, _ = capture("charpoly", "A:2,1", "--moduli", "11,13,19,29")
        assert code == 0
        assert out.strip() == "t^2 - 5*t + 4"
        # 2 has order 3 mod 7, above n m_max = 2
        assert capture("charpoly", "A:2,1", "--moduli", "7,11,13,17") == (0, out, "")

    @pytest.mark.parametrize(
        "target, moduli, reason",
        [
            ("A:3,1", "7,11,13,17,19", "2 has order 3 mod 7, not above n*m_max = 3"),
            ("A:3,1", "341,11,13,17,19", "it is not an odd prime"),
            ("A:3,1", "3,11,13,17,19", "it is below least_modulus = 5"),
            ("C:2,1", "2,3,4,5", "it is below least_modulus = 3"),
        ],
        ids=["order", "pseudoprime", "multiplicative-bound", "additive-bound"],
    )
    def test_inadmissible_override_says_why(self, capture, target, moduli, reason):
        code, out, err = capture("charpoly", target, "--moduli", moduli)
        assert_rejected(code, out, err)
        # the first modulus listed is the one refused
        q = moduli.split(",")[0]
        assert err == f"error: override modulus {q} is inadmissible: {reason}\n"

    def test_moduli_override_without_planes_at_n_2(self, capture, tmp_path):
        # a count pins x1 and takes q steps at n = 2; priced at q^2, these
        # four moduli were refused as past the work budget
        spec = spec_file(tmp_path, {"n": 2, "flavor": "C"})
        moduli = "100000,100001,100002,100003"
        assert capture("charpoly", "--spec", spec, "--moduli", moduli) == (0, "t^2\n", "")

    def test_empty_moduli_override(self, capture):
        # it was read as no override, and the planned moduli were used
        code, out, err = capture("charpoly", "A:2,1", "--moduli", "")
        assert_rejected(code, out, err)
        assert err == "error: bad --moduli value ''\n"

    @pytest.mark.parametrize("verb", ["charpoly", "regions"])
    @pytest.mark.parametrize("method", ["closed", "poset"])
    def test_moduli_refused_off_ff(self, capture, verb, method):
        # it was ignored, and the method's answer printed with exit 0
        code, out, err = capture(verb, "A:3,1", "--method", method, "--moduli", "5,7,11,13,17")
        assert_rejected(code, out, err)
        assert err == "error: --moduli applies to --method ff only\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("charpoly", "A:2,1", "--moduli", ",".join(
                str(10**16 + k) for k in (61, 69, 79, 99))),
            ("charpoly", "A:2,1", "--moduli", ",".join(
                str(10**30 + k) for k in (57, 99, 201, 323))),
            # the sixth modulus breaks the kernel price before any admissibility
            # test or count
            ("regions", "A:3,1", "--moduli", f"5,11,13,19,29,{10**30 + 57}"),
            # n = 1 is priced at w q^0 steps, so its weights' q entries refuse it
            ("charpoly", "A:1,1", "--moduli", ",".join(
                str(10**30 + k) for k in (57, 99, 201))),
        ],
        ids=["17-digit", "31-digit", "unused-31-digit", "n-1-31-digit"],
    )
    def test_huge_moduli_refused_before_admissibility(self, capture, argv):
        # admissibility tests q for primality and factors q - 1 by trial
        # division, unbounded on these
        start = time.process_time()
        code, out, err = capture(*argv)
        assert_rejected(code, out, err)
        assert "kernel budget" in err
        assert time.process_time() - start < 1

    def test_spec_file(self, capture, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            json.dumps(
                {"n": 2, "flavor": "A", "coords": True, "shifts": {"1,2": [-1, 0, 1]}}
            )
        )
        code, out, _ = capture("charpoly", "--spec", str(spec_file))
        assert code == 0
        assert out.strip() == "t^2 - 5*t + 4"

    def test_spec_and_target_conflict(self, capture, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text("{}")
        code, _, err = capture("charpoly", "A:2,1", "--spec", str(spec_file))
        assert code == 2

    def test_spec_missing_file(self, capture, tmp_path):
        assert_rejected(*capture("charpoly", "--spec", str(tmp_path / "absent.json")))

    def test_spec_top_level_list(self, capture, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text("[2]")
        assert_rejected(*capture("charpoly", "--spec", str(spec_file)))

    def test_spec_past_the_point_budget(self, capture, tmp_path):
        spec = spec_file(tmp_path, {"n": 10**6, "flavor": "C"})
        code, out, err = capture("charpoly", "--spec", spec)
        assert_rejected(code, out, err)
        assert "budget" in err

    def test_spec_without_n(self, capture, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"flavor": "A", "coords": True}))
        code, out, err = capture("charpoly", "--spec", str(spec_file))
        assert_rejected(code, out, err)
        assert "'n'" in err

    @pytest.mark.parametrize(
        "spec",
        [
            {"n": [2], "flavor": "A"},
            {"n": 2, "flavor": "A", "shifts": [1]},
            {"n": 2, "flavor": "A", "shifts": {"1,2": 3}},
            {"n": 2, "flavor": ["A"]},
        ],
    )
    def test_spec_wrong_type_is_no_traceback(self, capture, tmp_path, spec):
        assert_rejected(*capture("charpoly", "--spec", spec_file(tmp_path, spec)))

    @pytest.mark.parametrize("verb", ["charpoly", "regions", "poset"])
    def test_spec_unknown_key_is_named(self, capture, tmp_path, verb):
        # "coord" was read as no "coords": charpoly printed t^2 - t, not
        # t^2 - 3*t + 2
        spec = {"n": 2, "flavor": "A", "coord": True, "shifts": {"1,2": [0]}}
        code, out, err = capture(verb, "--spec", spec_file(tmp_path, spec))
        assert_rejected(code, out, err)
        assert "unknown spec key 'coord'" in err

    @pytest.mark.parametrize("verb", ["charpoly", "regions", "poset"])
    def test_spec_nested_too_deeply_is_no_traceback(self, capture, tmp_path, verb):
        # 5,000 nested lists overflow json.load's recursion: a RecursionError
        path = tmp_path / "spec.json"
        path.write_text('{"n": ' + "[" * 5000 + "]" * 5000 + "}")
        code, out, err = capture(verb, "--spec", str(path))
        assert_rejected(code, out, err)
        assert err == f"error: cannot parse {str(path)!r}: JSON nested too deeply\n"

    @pytest.mark.parametrize("key", ["1,2,3", "a,b", "1,", "12"])
    def test_spec_bad_key_is_named(self, capture, tmp_path, key):
        spec = {"n": 3, "flavor": "A", "shifts": {key: [1]}}
        code, out, err = capture("charpoly", "--spec", spec_file(tmp_path, spec))
        assert_rejected(code, out, err)
        assert f"bad shifts key {key!r}" in err

    @pytest.mark.parametrize("key,pair", [("2,1", "(2, 1)"), ("1,4", "(1, 4)")])
    def test_spec_pair_out_of_order_or_range(self, capture, tmp_path, key, pair):
        # "2,1" is in range, only reversed: the refusal once read "out of
        # range for n=3", as if 2 or 1 exceeded 3
        spec = {"n": 3, "flavor": "A", "shifts": {key: [1]}}
        code, out, err = capture("charpoly", "--spec", spec_file(tmp_path, spec))
        assert_rejected(code, out, err)
        assert err == f"error: pair {pair} out of range: need 1 <= i < j <= 3\n"

    @pytest.mark.parametrize("again", ["01,2", " 1, 2"])
    def test_spec_repeated_pair_is_named(self, capture, tmp_path, again):
        # read one after the other, the second key's shifts replaced the
        # first's: t^2 - 3*t + 2, one plane short of {"1,2": [0, 1]}
        spec = {"n": 2, "flavor": "A", "coords": True, "shifts": {"1,2": [0], again: [1]}}
        code, out, err = capture("charpoly", "--spec", spec_file(tmp_path, spec))
        assert_rejected(code, out, err)
        assert f"shifts keys '1,2' and {again!r} name the same pair" in err

    def test_spec_coords_string(self, capture, tmp_path):
        # "false" is a true value in Python: read as a bool it added the
        # coordinate planes and printed t^2 - 3*t + 2 instead of t^2 - t
        spec = {"n": 2, "flavor": "A", "coords": "false", "shifts": {"1,2": [0]}}
        code, out, err = capture("charpoly", "--spec", spec_file(tmp_path, spec))
        assert_rejected(code, out, err)
        assert "coords" in err

    @pytest.mark.parametrize(
        "spec",
        [
            {"n": 2.7, "flavor": "A", "coords": True},
            {"n": True, "flavor": "A", "coords": True},
            {"n": 2, "flavor": "A", "shifts": {"1,2": "01"}},
            {"n": 2, "flavor": "A", "shifts": {"1,2": [1.5]}},
            {"n": 2, "flavor": "A", "shifts": {"1,2": [True]}},
        ],
    )
    def test_spec_value_is_not_coerced(self, capture, tmp_path, spec):
        assert_rejected(*capture("charpoly", "--spec", spec_file(tmp_path, spec)))


class TestRegions:
    def test_gamma_ff(self, capture):
        code, out, _ = capture("regions", "Gamma:2,1")
        assert code == 0
        assert out.strip() == "8"

    def test_closed_method(self, capture):
        for target, expected in [
            ("A:3,3", "312"),
            ("B:2,1", "6"),
            ("Delta:2,1", "4"),
            ("C:2,1", "4"),
        ]:
            code, out, _ = capture("regions", target, "--method", "closed")
            assert code == 0
            assert out.strip() == expected

    def test_poset_method(self, capture):
        code, out, _ = capture("regions", "B:2,1", "--method", "poset")
        assert code == 0
        assert out.strip() == "6"

    @pytest.mark.parametrize("argv", [("regions", "C:7,1"), ("charpoly", "A:6,1")])
    def test_sorted_plan_past_the_old_ceiling(self, capture, argv):
        # 11 s and 7 s of CPU on a 2-vCPU x86-64 machine with every ordering
        # of x2..xn counted; 0.2-0.3 s with one increasing tuple per ordering
        start = time.process_time()
        code, out, err = capture(*argv)
        assert time.process_time() - start < 5
        assert (code, err) == (0, "")
        assert (code, out, err) == capture(*argv, "--method", "closed")

    @pytest.mark.parametrize("output", ["table", "json", "csv"])
    def test_count_past_the_str_digits_limit(self, capture, output):
        # about 6,600 digits, past the 4,300 that str() of an int allows
        limit = sys.get_int_max_str_digits()
        code, out, err = capture("regions", "A:2000,1", "--method", "closed", "--output", output)
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            count = regions_A_closed(2000, 1)
            assert len(str(count)) > 4300
            assert out == {
                "table": f"{count}\n",
                "csv": f"target,regions\nA:2000,1,{count}\n",
                "json": f'{{"method": "closed", "regions": {count}, "target": "A:2000,1"}}\n',
            }[output]
        finally:
            sys.set_int_max_str_digits(limit)

    def test_closed_error_precedence(self, capture, tmp_path):
        # a conflict, then a bad spec file, then a spec given to closed
        bad, good = tmp_path / "bad.json", tmp_path / "good.json"
        bad.write_text("[2]")
        good.write_text(json.dumps({"n": 2, "flavor": "A"}))
        cases = [
            (("A:2,1", "--spec", str(bad)), "give either a preset target or --spec"),
            (("--spec", str(bad)), "spec must be a JSON object"),
            (("--spec", str(good), "--moduli", "x"), "bad --moduli value"),
            (("--spec", str(good)), "needs a preset target"),
            ((), "missing target"),
            (("Q:2,1", "--moduli", "x"), "bad preset"),
            (("B:2,1", "--moduli", "x"), "bad --moduli value"),
            (("A:2,1", "--moduli", "abc"), "bad --moduli value"),
        ]
        for argv, message in cases:
            code, out, err = capture("regions", *argv, "--method", "closed")
            assert_rejected(code, out, err)
            assert message in err


class TestOversized:
    """Targets far past a route's guard are refused from their preset's
    (n, m) or their moduli, before a preset's O(n^2) pairs or a q x q block
    exist."""

    @pytest.fixture
    def no_spec(self, monkeypatch):
        listed = ArrangementSpec.pair_shifts.fget

        def refuse(spec):
            if spec.uniform_shifts is not None:
                raise AssertionError("listed the O(n^2) pairs of an oversized preset")
            return listed(spec)

        monkeypatch.setattr(ArrangementSpec, "pair_shifts", property(refuse))

    @pytest.mark.parametrize(
        "argv",
        [
            ("regions", "A:1000,1"),
            ("charpoly", "B:1000,1", "--method", "ff"),
            ("regions", "A:1000,1", "--method", "poset"),
            ("poset", "A:1000,1"),
            ("poset", "C:1000,1"),
            ("charpoly", "B:1000,1", "--method", "closed"),
            ("charpoly", "Delta:1000,1", "--method", "closed"),
        ],
    )
    def test_preset_refused_before_its_spec(self, capture, no_spec, argv):
        assert_rejected(*capture(*argv))

    def test_moduli_read_before_the_guard(self, capture, tmp_path, no_spec):
        # a preset's --moduli is read where a spec file's is, before the guard
        spec = spec_file(tmp_path, {"n": 1000, "flavor": "A", "coords": True})
        for target in (("A:1000,1",), ("--spec", spec)):
            for method in ("ff", "poset"):
                code, out, err = capture("regions", *target, "--method", method, "--moduli", "x")
                assert_rejected(code, out, err)
                assert err == "error: bad --moduli value 'x'\n"

    def test_closed_regions_build_no_spec(self, capture, no_spec):
        code, out, _ = capture("regions", "A:1000,1", "--method", "closed")
        assert code == 0
        assert int(out) == regions_A_closed(1000, 1)

    @pytest.mark.parametrize(
        "argv",
        [
            ("poset", "A:100000,1"),
            ("regions", "B:100000,1"),
            ("charpoly", "A:100000,1", "--method", "poset"),
        ],
    )
    def test_huge_preset_refused_at_once(self, capsys, traced_peak, no_spec, argv):
        # its 5 * 10^9 pairs would take hundreds of GB
        cli._build_parser()
        start = time.process_time()
        code, peak = traced_peak(run, list(argv))
        assert time.process_time() - start < 0.5
        assert_rejected(code, *capsys.readouterr())
        assert peak < 2**20

    @pytest.mark.parametrize("verb", ["charpoly", "regions"])
    def test_closed_of_a_huge_m_lists_no_shifts(self, capsys, traced_peak, no_spec, verb):
        # a preset's shifts stay a range: listed, 2 * 10^6 + 1 take about 100 MB
        cli._build_parser()
        code, peak = traced_peak(run, [verb, "A:2,1000000", "--method", "closed"])
        closed = {"charpoly": charpoly_A_closed(2, 10**6).to_text(),
                  "regions": regions_A_closed(2, 10**6)}[verb]
        assert (code, *capsys.readouterr()) == (0, f"{closed}\n", "")
        assert peak < 2**20

    @pytest.mark.parametrize(
        "target, expected",
        [
            ("A:3,2", "t^3 - 18*t^2 + 89*t - 72"),
            ("C:3,1", charpoly_C_closed(3, 1).to_text()),
            ("A:40,3", charpoly_A_closed(40, 3).to_text()),
            # no pairs: uniform whatever the shifts, and the A form with m = 1
            ("Gamma:1,2", "t - 1"),
        ],
        ids=["A:3,2", "C:3,1", "A:40,3", "Gamma:1,2"],
    )
    def test_closed_charpoly_builds_no_spec(self, capture, no_spec, target, expected):
        assert capture("charpoly", target, "--method", "closed") == (0, expected + "\n", "")

    @pytest.mark.parametrize(
        "verb, target",
        [
            # unguarded: 8.5 s for 18 MB, 33 s for 1.1 MB, 5.4 s for 18,494 digits
            ("charpoly", "A:3000,1"),
            ("regions", "A:200000,1"),
            ("regions", "Gamma:5000,1"),
            ("regions", "Delta:4000,1"),
            ("charpoly", "C:10000000000000000000000,1"),
            ("regions", "B:10000000000000000000000,1"),
        ],
    )
    def test_closed_past_the_work_budget(self, capture, no_spec, verb, target):
        cli._build_parser()
        start = time.process_time()
        code, out, err = capture(verb, target, "--method", "closed")
        assert time.process_time() - start < 0.1
        assert_rejected(code, out, err)
        assert "digit steps, the work budget" in err

    @pytest.mark.parametrize(
        "verb, target, formula, value",
        [
            ("charpoly", "A:1500,1", "charpoly_A_closed", IntPolynomial([0, 1])),
            ("charpoly", "C:1500,1", "charpoly_C_closed", IntPolynomial([0, 1])),
            ("regions", "A:50000,1", "regions_A_closed", 7),
            ("regions", "B:50000,1", "regions_B_closed", 7),
            ("regions", "Gamma:2000,1", "regions_Gamma_closed", 7),
            ("regions", "Delta:2000,1", "regions_Delta_closed", 7),
        ],
    )
    def test_closed_within_the_work_budget(self, capture, monkeypatch, verb, target, formula,
                                           value):
        # the guard admits these; each formula itself takes about a second
        monkeypatch.setattr(numbers, formula, lambda n, m: value)
        assert capture(verb, target, "--method", "closed") == (0, f"{value}\n", "")

    @pytest.mark.parametrize(
        "argv",
        [
            # passes a q^n <= 10^9 rule, but one 31601^2 block is 8 GB
            ("charpoly", "C:2,1", "--moduli", "31601,31602,31603,31604"),
            # fits a work budget, but its blocks are 88 GB
            ("regions", "A:3,35000"),
        ],
    )
    def test_block_past_the_memory_budget(self, capture, monkeypatch, argv):
        ones = np.ones

        def bounded_ones(shape, *args, **kwargs):
            # stands in for the allocation, which would take gigabytes
            if math.prod(np.atleast_1d(shape)) > 10**8:
                raise MemoryError(f"asked for an array of shape {shape}")
            return ones(shape, *args, **kwargs)

        monkeypatch.setattr(np, "ones", bounded_ones)
        assert_rejected(*capture(*argv))

    @pytest.mark.parametrize(
        "argv",
        [
            ("poset", "A:5,30"),
            ("charpoly", "A:5,30", "--method", "poset"),
            ("regions", "A:5,10", "--method", "poset"),
        ],
    )
    def test_poset_rank_past_the_memory_budget(self, capture, monkeypatch, argv):
        """The closure stops before the rank whose cut breaks the budget: every
        rank it does cut fits, and the refused rank is never cut."""
        cut_pairs = Counter()
        cut = poset._cut

        def spy(code, key, ijk):
            root, _ = code.decode(key)
            rank = root.shape[1] - int((root[0] == np.arange(root.shape[1])).sum())
            cut_pairs[rank] += len(key) * len(ijk)
            return cut(code, key, ijk)

        monkeypatch.setattr(poset, "_cut", spy)
        code, out, err = capture(*argv)
        assert_rejected(code, out, err)
        assert "memory budget" in err
        assert f"rank {max(cut_pairs) + 1} (" in err
        assert max(cut_pairs.values()) * poset.CUT_ENTRIES <= arrangements.MEMORY_BUDGET

    def test_huge_shift_refused_by_the_poset_key(self, capture, tmp_path):
        spec = {"n": 2, "flavor": "A", "shifts": {"1,2": [10**30]}}
        code, out, err = capture("poset", "--spec", spec_file(tmp_path, spec))
        assert_rejected(code, out, err)
        assert f"offsets reach {10**30}," in err

    def test_huge_n_spec_refused_at_once(self, capture, tmp_path):
        path = spec_file(tmp_path, {"n": 10**6, "flavor": "A", "coords": True})
        start = time.process_time()
        assert_rejected(*capture("poset", "--spec", path))
        assert time.process_time() - start < 0.5


class TestParserReuse:
    """``run`` builds its parser once per process; no call's options or
    failure reach the next call."""

    def test_one_parser(self):
        assert cli._build_parser() is cli._build_parser()

    def test_output_returns_to_its_default(self, capture):
        code, out, err = capture("enumerate", "sketches", "2", "1", "--output", "json")
        assert (code, err) == (0, "")
        items = json.loads(out)
        assert capture("enumerate", "sketches", "2", "1") == (0, "\n".join(items) + "\n", "")

    def test_good_call_after_a_parse_error(self, capture):
        code, out, err = capture("enumerate", "sketches", "two", "1")
        assert (code, out) == (2, "")
        assert "invalid int value" in err
        assert capture("regions", "A:2,1") == (0, "10\n", "")

    def test_moduli_are_planned_again(self, capture, monkeypatch):
        counted = []
        count = arrangements.count_complement_points

        def recording(spec, q):
            counted.append(q)
            return count(spec, q)

        monkeypatch.setattr(arrangements, "count_complement_points", recording)
        expected = (0, charpoly_A_closed(3, 1).to_text() + "\n", "")
        assert capture("charpoly", "A:3,1", "--moduli", "53,59,61,67,83") == expected
        assert counted == [53, 59, 61, 67, 83]
        counted.clear()
        assert capture("charpoly", "A:3,1") == expected
        assert counted == list(arrangements.plan_moduli(ArrangementSpec.preset("A:3,1")))


class TestEnumerate:
    def test_sketches(self, capture):
        code, out, _ = capture("enumerate", "sketches", "1", "1")
        assert code == 0
        assert out.splitlines() == ["0 1^0 1^1", "1^1 1^0 0"]

    def test_paths_count(self, capture):
        code, out, _ = capture("enumerate", "paths", "2", "1")
        assert code == 0
        assert len(out.splitlines()) == 10

    def test_partitions_json(self, capture):
        code, out, _ = capture("enumerate", "partitions", "1", "1", "--output", "json")
        assert code == 0
        assert json.loads(out) == ["| 1 1", "1 1 |"]

    def test_guard_message(self, capture):
        # 7,207,200 lines of 15 letters, 4 entries each, and 14 letters of
        # the alphabet, 24 entries each
        code, _, err = capture("enumerate", "sketches", "7", "1")
        assert code == 2
        assert "would hold 432432336 int64 entries" in err and "memory budget" in err
        code, _, err = capture("enumerate", "sketches", "9", "2")
        assert code == 2
        assert "work budget" in err

    @pytest.mark.parametrize("output", ["table", "json", "csv"])
    @pytest.mark.parametrize("kind", sorted(cli.ENUMERATIONS))
    def test_refusal_prints_no_line(self, capture, kind, output):
        assert_rejected(*capture("enumerate", kind, "7", "1", "--output", output))
        assert_rejected(*capture("enumerate", kind, "-1", "1", "--output", output))

    def test_limit_override(self, capture):
        # the budgets admit what --limit was needed for, and the option is gone
        code, out, _ = capture("enumerate", "sketches", "1", "12")
        assert code == 0
        assert len(out.splitlines()) == 2
        assert capture("enumerate", "sketches", "1", "12", "--limit", "26")[0] == 2

    @pytest.mark.parametrize("n,m", [("1000000", "1"), ("1", "1000000000")])
    def test_huge_size_refused_at_once(self, capture, n, m):
        start = time.process_time()
        assert_rejected(*capture("enumerate", "sketches", n, m))
        assert time.process_time() - start < 0.5

    @pytest.mark.parametrize("kind", sorted(cli.ENUMERATIONS))
    def test_size_zero_with_a_huge_m(self, capture, traced_peak, kind):
        # one empty object, and no table of letters with subscript 0
        (code, out, _), peak = traced_peak(capture, "enumerate", kind, "0", "1000000")
        assert code == 0 and len(out.splitlines()) == 1
        assert peak < 10**6

    @pytest.mark.parametrize(
        "kind,n,m,output",
        # 87,360 lines of 16 letters; 2 lines of 100,002 letters, whose
        # alphabet of 100,001 letters is most of the peak
        [("paths", 5, 2, "json"), ("sketches", 1, 100000, "table")],
    )
    def test_peak_memory_within_the_letter_entries(self, capture, traced_peak, kind, n, m, output):
        alphabet = n * (m + 1)
        letters = regions_A_closed(n, m) * (alphabet + 1)
        argv = ("enumerate", kind, str(n), str(m), "--output", output)
        (code, out, _), peak = traced_peak(capture, *argv)
        lines = json.loads(out) if output == "json" else out.splitlines()
        assert code == 0 and len(lines) == regions_A_closed(n, m)
        assert peak < (sketches.LETTER_ENTRIES * letters + sketches.ALPHABET_ENTRIES * alphabet) * 8

    @pytest.mark.parametrize("n,m", [(1, 2000), (2, 1000)])
    def test_long_words(self, capture, n, m):
        # a word of n (m+1) letters is walked without a frame per step
        for kind in sorted(cli.ENUMERATIONS):
            code, out, _ = capture("enumerate", kind, str(n), str(m))
            assert code == 0 and out.count("\n") == regions_A_closed(n, m)
        code, out, _ = capture("stats", "compartments", str(n), str(m), "--output", "json")
        assert code == 0 and sum(json.loads(out)["distribution"]) == regions_A_closed(n, m)

    @pytest.mark.parametrize("output", ["table", "json", "csv"])
    @pytest.mark.parametrize("m", ["1", "3"])
    def test_partitions_of_size_zero(self, capture, output, m):
        # the empty sketch has no letters to read m from
        partitions = capture("enumerate", "partitions", "0", m, "--output", output)
        assert partitions[0] == 0
        assert partitions == capture("enumerate", "paths", "0", m, "--output", output)

    def test_deterministic(self, capture):
        first = capture("enumerate", "sketches", "2", "2")
        second = capture("enumerate", "sketches", "2", "2")
        assert first == second


class TestBiject:
    def test_sketch_to_path(self, capture):
        code, out, _ = capture("biject", "sketch-to-path", "0 1^0 1^1")
        assert code == 0
        assert out.strip() == "| U1 D"

    def test_path_to_sketch(self, capture):
        code, out, _ = capture(
            "biject", "path-to-sketch", "U3 D U1 D D D | U5 D D U4 U2 D D D D"
        )
        assert code == 0
        assert out.strip() == (
            "3^2 3^1 1^2 3^0 1^1 1^0 0 5^0 5^1 5^2 4^0 2^0 4^1 2^1 4^2 2^2"
        )

    def test_sketch_to_partition(self, capture):
        code, out, _ = capture(
            "biject",
            "sketch-to-partition",
            "3^2 3^1 1^2 3^0 1^1 1^0 0 5^0 5^1 5^2 4^0 2^0 4^1 2^1 4^2 2^2",
        )
        assert code == 0
        assert out.strip() == "3 3 1 3 1 1 | 5 5 5 4 2 4 2 4 2"

    def test_partition_to_sketch(self, capture):
        code, out, _ = capture(
            "biject", "partition-to-sketch", "1 1 | 2 2", "--m", "1"
        )
        assert code == 0
        assert out.strip() == "1^1 1^0 0 2^0 2^1"

    def test_letter_past_the_str_digits_limit(self, capture):
        # printing lifts the limit on the digits of an int's str; parsing keeps it
        start = time.process_time()
        code, out, err = capture("biject", "sketch-to-path", "0 1^" + "9" * 5000)
        assert time.process_time() - start < 0.5
        assert_rejected(code, out, err)
        assert err.startswith("error: bad sketch letter '1^999")

    def test_witness_json(self, capture):
        code, out, _ = capture("biject", "sketch-to-witness", "0 1^0 1^1")
        assert code == 0
        data = json.loads(out)
        assert data[0]["sign"] == 1

    def test_bad_input(self, capture):
        code, _, err = capture("biject", "sketch-to-path", "nonsense")
        assert code == 2

    def test_repeated_letter_to_path(self, capture):
        code, out, err = capture("biject", "sketch-to-path", "1^0 1^0 0")
        assert_rejected(code, out, err)
        assert "not a valid sketch" in err

    def test_invalid_sketch_to_partition(self, capture):
        # exponents in the wrong order: would print "1 1 |", whose inverse is
        # the different sketch "1^1 1^0 0"
        assert_rejected(*capture("biject", "sketch-to-partition", "1^0 1^1 0"))

    @pytest.mark.parametrize(
        "direction, text, message",
        [
            ("path-to-sketch", "U1 D | Ux D", "bad path token 'Ux'"),
            ("path-to-sketch", "U D |", "bad path token 'U'"),
            ("partition-to-sketch", "1 1 | x", "bad partition label 'x'"),
            ("partition-to-sketch", "1 1.0 |", "bad partition label '1.0'"),
        ],
    )
    def test_bad_token_is_named(self, capture, direction, text, message):
        assert capture("biject", direction, text) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "direction, text, message",
        [
            ("path-to-sketch", "D U1 |", "negative prefix sum"),
            ("path-to-sketch", "U1 D U1 D |", "labels must be distinct positive integers"),
            ("path-to-sketch", "U1 | D", "mark 1 is not an x-axis point"),
            ("path-to-sketch", "U2 D |", "decorated path labels must be exactly 1..n"),
            ("path-to-sketch", "U1 |", "m must be positive, got 0"),
            ("sketch-to-path", "1^0 0", "not a valid sketch: '1^0 0'"),
            ("sketch-to-partition", "1^0 0", "not a valid sketch: '1^0 0'"),
            ("sketch-to-witness", "1^0 0", "not a valid sketch: '1^0 0'"),
            ("sketch-to-path", "0 1^0 2^0", "not a valid sketch: '0 1^0 2^0'"),
            ("sketch-to-partition", "0 1^0 2^0", "not a valid sketch: '0 1^0 2^0'"),
            ("sketch-to-witness", "0 1^0 2^0", "not a valid sketch: '0 1^0 2^0'"),
            ("partition-to-sketch", "| 2 1 1 2", "nesting arcs"),
            (
                "partition-to-sketch",
                "1 1 | 1 2 2",
                "a block must lie entirely on one side of the red line",
            ),
        ],
    )
    def test_invalid_structure_is_named(self, capture, direction, text, message):
        """Text that tokenises but is no sketch (m >= 1 included), path or
        partition is refused."""
        assert capture("biject", direction, text) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("direction", ["sketch-to-path", "sketch-to-partition"])
    def test_empty_sketch_takes_m(self, capture, direction):
        assert capture("biject", direction, "0", "--m", "2") == (0, "| \n", "")

    @pytest.mark.parametrize("m", ["0", "-5"])
    @pytest.mark.parametrize(
        "direction, text",
        [
            ("sketch-to-path", "0"),
            ("sketch-to-partition", "0"),
            ("sketch-to-witness", "0"),
            ("path-to-sketch", "|"),
            ("partition-to-sketch", "|"),
        ],
    )
    def test_empty_object_refuses_m_below_one(self, capture, direction, text, m):
        assert capture("biject", direction, text, "--m", m) == (
            2, "", f"error: m must be positive, got {m}\n"
        )

    @pytest.mark.parametrize(
        "direction", ["sketch-to-path", "sketch-to-partition", "sketch-to-witness"]
    )
    def test_sketch_m_must_agree(self, capture, direction):
        # "0 1^0 1^1" has m = 1, so --m 5 contradicts it rather than choosing m
        code, out, err = capture("biject", direction, "0 1^0 1^1", "--m", "5")
        assert_rejected(code, out, err)
        assert "m=5" in err and "m=1" in err
        assert capture("biject", direction, "0 1^0 1^1", "--m", "1") == capture(
            "biject", direction, "0 1^0 1^1"
        )

    @pytest.mark.parametrize("direction", ["sketch-to-path", "sketch-to-partition"])
    def test_empty_sketch_without_m(self, capture, direction):
        code, out, err = capture("biject", direction, "0")
        assert_rejected(code, out, err)
        assert "empty sketch" in err

    def test_empty_witness_without_m(self, capture):
        assert capture("biject", "sketch-to-witness", "0") == (0, "[]\n", "")
        assert capture("biject", "sketch-to-witness", "0", "--m", "3") == (0, "[]\n", "")

    @pytest.mark.parametrize(
        "direction, text",
        [
            # one subscript, m = 3999: 4,000 letters on one side
            ("sketch-to-path", "0 " + " ".join(f"1^{k}" for k in range(4000))),
            # one block of 16,000 points, m = 15999
            ("partition-to-sketch", "| " + " ".join(["1"] * 16000)),
            # 8,000 blocks of two points, in order
            ("partition-to-sketch", " ".join(f"{i} {i}" for i in range(1, 8001)) + " |"),
            # 5,000 subscripts, every (i, 0) before every (i, 1): 3 s of CPU
            # when the witness solve relaxed its edges in word order
            ("sketch-to-witness", " ".join(["0"] + [f"{i}^{k}" for k in (0, 1) for i in range(1, 5001)])),
        ],
        ids=["sketch-4000", "partition-16000", "partition-8000-blocks", "witness-5000"],
    )
    def test_long_object_in_linear_time(self, capture, direction, text):
        # one walk per side; comparing all pairs of letters or arcs took seconds
        start = time.process_time()
        code, out, err = capture("biject", direction, text)
        assert (code, err) == (0, "")
        assert time.process_time() - start < 0.5

    def test_infeasible_witness(self, capture):
        # subscript 1 on both sides of the zero
        assert_rejected(*capture("biject", "sketch-to-witness", "2^0 1^0 0 1^1 2^1"))


class TestStats:
    def test_compartments_table(self, capture):
        code, out, _ = capture("stats", "compartments", "2", "1")
        assert code == 0
        assert out.splitlines() == ["0 4", "1 5", "2 1"]

    def test_compartments_json(self, capture):
        code, out, _ = capture("stats", "compartments", "3", "1", "--output", "json")
        assert code == 0
        assert json.loads(out)["distribution"] == [30, 41, 12, 1]


class TestVerify:
    def test_table1(self, capture):
        code, out, _ = capture("verify", "table1")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 9
        assert all(line.endswith("OK") for line in lines)

    def test_table1_json(self, capture):
        code, out, _ = capture("verify", "table1", "--output", "json")
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True
        assert len(data["rows"]) == 9
        regions = [row["regions"] for row in data["rows"]]
        assert regions == [10, 14, 84, 180, 312, 1008, 3432, 8160, 15960]
        for row in data["rows"]:
            assert row["closed"] == row["ff"]
            if row["n"] <= 3:
                assert row["poset"] == row["closed"]


class TestPoset:
    def test_A52_matches_closed_form(self, capture):
        code, out, err = capture("charpoly", "A:5,2", "--method", "poset")
        assert (code, err) == (0, "")
        assert out == charpoly_A_closed(5, 2).to_text() + "\n"

    def test_B61(self, capture, monkeypatch):
        """n = 6, which the old n <= 5 rule refused, so the table's sha256 is
        taken from the budget-guarded closure.  The two calls share one
        closure of the poset's ranks."""
        built = {}
        sums = poset.rank_sums

        def build_once(spec):
            text = json.dumps(spec.to_json_dict())
            if text not in built:
                built[text] = sums(spec)
            return built[text]

        monkeypatch.setattr(poset, "rank_sums", build_once)
        code, out, err = capture("regions", "B:6,1", "--method", "poset")
        assert (code, out, err) == (0, f"{regions_B_closed(6, 1)}\n", "")
        code, out, err = capture("poset", "B:6,1", "--output", "table")
        assert (code, err) == (0, "")
        digest = "69e22d98e96904b9e5440b8d6f46c5dda832ac5919ffcb004a3f838e2366ebc1"
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert len(built) == 1

    def test_offsets_past_the_key_exit_2(self, capture, tmp_path):
        spec = {"n": 5, "flavor": "A", "shifts": {"1,2": [400], "2,3": [300]}}
        code, out, err = capture("poset", "--spec", spec_file(tmp_path, spec))
        assert_rejected(code, out, err)
        assert "shifts are too large" in err

    def test_json_dump(self, capture):
        code, out, _ = capture("poset", "A:2,1")
        assert code == 0
        data = json.loads(out)
        assert len(data["flats"]) == 7
        assert sum(f["mu"] for f in data["flats"]) == 0
        assert data["target"] == "A:2,1"

    def test_table_summary(self, capture):
        code, out, _ = capture("poset", "A:2,1", "--output", "table")
        assert code == 0
        assert "flats: 7" in out
        assert "charpoly: t^2 - 5*t + 4" in out

    def test_json_dump_of_a_quoted_spec_path(self, capture, tmp_path):
        """The target, a path with a quote, a backslash and a non-ASCII
        letter, is escaped as ``json.dumps`` escapes it."""
        path = tmp_path / 'a "quoted"\\spec é.json'
        path.write_text(json.dumps({"n": 3, "flavor": "A", "shifts": {"1,2": [-2], "2,3": [1]}}))
        code, out, err = capture("poset", "--spec", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out)["target"] == str(path)
        assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"

    def test_json_dump_past_the_memory_budget(self, capture, monkeypatch):
        # the dump of A:2,1 prints 7 * 7 + 2 * 10 numbers; the table form is
        # not counted
        monkeypatch.setattr(poset, "DUMP_ENTRIES", arrangements.MEMORY_BUDGET // 69 + 1)
        code, out, err = capture("poset", "A:2,1")
        assert_rejected(code, out, err)
        assert "the poset's JSON dump would hold" in err
        assert capture("poset", "A:2,1", "--output", "table")[0] == 0


def run_through_full_parser(argv):
    """``run`` as it was when every argv went through the full parser."""
    try:
        args = cli._build_parser()[0].parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["frobnicate"],
        ["frobnicate", "-h"],
        ["--output", "json", "regions", "A:2,1"],
        *([verb, "-h"] for verb in cli._build_parser()[1]),
        ["biject"],
        ["biject", "sketch-to-path"],
        ["biject", "sketch-to-path", "0 1^0 1^1"],
        ["biject", "sketch-to-path", "0 1^0 1^1", "extra"],
        ["biject", "sketch-to-path", "--", "0 1^0 1^1"],
        ["biject", "sketch-to-path", "--", "-1^0 0"],
        ["biject", "sketch-to-nowhere", "0 1^0 1^1"],
        ["biject", "sketch-to-witness", "0", "--m", "x"],
        ["biject", "sketch-to-witness", "0", "--m", "2", "--output", "json"],
        ["regions", "A:2,1", "--output", "json"],
        ["enumerate", "sketches", "2", "1", "-h"],
        ["verify", "table1"],
        ["verify", "table2"],
    ],
    ids=" ".join,
)
def test_parsing_unchanged(capsys, argv):
    """The verb's own parser gives the same code, stdout and stderr as the
    full parser that hands it the verb's arguments."""
    expected = (run_through_full_parser(argv), *capsys.readouterr())
    assert (run(argv), *capsys.readouterr()) == expected


class TestUsage:
    def test_closed_stdout_is_no_traceback(self):
        """A reader that stops after one line ends the program with exit 1
        and nothing on stderr.  The output is larger than a pipe's buffer, so
        the program is still writing when the pipe closes."""
        self._close_after_first_bytes(["enumerate", "sketches", "5", "1"], b"0 1^0 1^1")

    def test_closed_stdout_on_partition_stream(self):
        self._close_after_first_bytes(["enumerate", "partitions", "5", "1"], b"| 1 1 2 2")

    def test_closed_stdout_on_poset_dump(self):
        """The dump is one JSON line of 2.4 MB, written a chunk at a time."""
        first = b'{"flats": [{"components": [[[1, 0]], [[2, 0]], [[3, 0]]'
        self._close_after_first_bytes(["poset", "A:5,2"], first)

    @staticmethod
    def _close_after_first_bytes(argv, first):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-c", "from braidarr.cli import main; main()", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.read(len(first)) == first
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
        assert b"Traceback" not in err and err == b""

    @pytest.mark.parametrize(
        "argv",
        [
            ("bogus",),
            ("charpoly", "A:2,1", "--moduli", "-5,13"),
            ("enumerate", "sketches", "x", "1"),
            ("enumerate", "sketches", "1", "12", "--limit", "26"),
        ],
    )
    def test_parse_error_is_one_line(self, capture, argv):
        assert_rejected(*capture(*argv))

    def test_help_exits_zero(self, capture):
        code, out, err = capture("enumerate", "-h")
        assert code == 0 and out.startswith("usage: braidarr enumerate") and err == ""

    def test_no_arguments(self, capture):
        assert_rejected(*capture())

    def test_unknown_subcommand(self, capture):
        assert_rejected(*capture("frobnicate"))


# JSON values of the wrong type for every spec field, plus null and bools,
# which are right for some fields.
WRONG_TYPES = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2),
)


def valid_or_wrong(valid):
    """``valid``, or one time in eight a value of the wrong type; the simplest
    choice is valid."""
    return st.integers(0, 7).flatmap(lambda r: WRONG_TYPES if r == 7 else valid)


# n and flavor are always present (a spec without n has its own test).  The
# bias toward valid values makes most examples well-typed, so that they reach
# the parser of "i,j" keys and the arrangement code behind it.
SPECS = st.fixed_dictionaries(
    {
        "n": valid_or_wrong(st.integers(-1, 3)),
        "flavor": valid_or_wrong(st.sampled_from(["A", "C"])),
    },
    optional={
        "coords": valid_or_wrong(st.booleans()),
        "shifts": valid_or_wrong(
            st.dictionaries(
                st.one_of(
                    st.sampled_from(["1,2", "1,3", "2,3"]),
                    st.sampled_from(["1,2,3", "a,b", "1,", ",", "12"]),
                    st.text(max_size=4),
                ),
                valid_or_wrong(st.lists(st.integers(-2, 2), max_size=3)),
                max_size=3,
            )
        ),
    },
)


def well_typed(spec):
    shifts = spec.get("shifts")
    return (
        type(spec.get("n")) is int
        and spec.get("flavor") in ("A", "C")
        and type(spec.get("coords", False)) is bool
        and (
            shifts is None
            or isinstance(shifts, dict)
            and all(
                isinstance(values, list) and all(type(v) is int for v in values)
                for values in shifts.values()
            )
        )
    )


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=SPECS)
def test_random_spec_never_escapes(capsys, tmp_path, spec):
    """Any spec JSON exits 0 or 2, never with a traceback; exit 2 prints one
    error line, and exit 0 only happens for a well-typed spec."""
    code = run(["charpoly", "--spec", spec_file(tmp_path, spec)])
    out, err = capsys.readouterr()
    event(f"exit {code}")
    event("well-typed" if well_typed(spec) else "wrong type")
    assert code in (0, 2)
    if code == 2:
        assert_rejected(code, out, err)
        # a malformed "i,j" key is named, not reported by int() or unpacking
        assert "unpack" not in err and "invalid literal" not in err
    else:
        assert well_typed(spec)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.one_of(st.sampled_from(["1,2", "2,1", "1,2,3", "a,b", "1,"]), st.text(max_size=5)))
def test_random_shifts_key(capsys, tmp_path, key):
    """Any "i,j" key of a well-typed spec runs, or exits 2 naming the key or
    the pair that is out of range."""
    spec = {"n": 3, "flavor": "A", "shifts": {key: [1]}}
    code = run(["charpoly", "--spec", spec_file(tmp_path, spec)])
    out, err = capsys.readouterr()
    event(f"exit {code}")
    assert code in (0, 2)
    if code == 2:
        assert_rejected(code, out, err)
        assert f"bad shifts key {key!r}" in err or "out of range" in err

import json

import pytest

from braidarr.cli import run


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

    def test_closed_single_coordinate(self, capture):
        code, out, _ = capture("charpoly", "A:1,3", "--method", "closed")
        assert code == 0
        assert out.strip() == "t - 1"

    def test_closed_without_formula(self, capture):
        code, _, err = capture("charpoly", "B:2,1", "--method", "closed")
        assert code == 2

    def test_moduli_override(self, capture):
        code, out, _ = capture("charpoly", "A:2,1", "--moduli", "11,13,19,29")
        assert code == 0
        assert out.strip() == "t^2 - 5*t + 4"

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

    def test_spec_without_n(self, capture, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"flavor": "A", "coords": True}))
        code, out, err = capture("charpoly", "--spec", str(spec_file))
        assert_rejected(code, out, err)
        assert "'n'" in err


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
        code, _, err = capture("enumerate", "sketches", "9", "2")
        assert code == 2
        assert "limit" in err

    def test_limit_override(self, capture):
        code, out, _ = capture("enumerate", "sketches", "1", "12", "--limit", "26")
        assert code == 0
        assert len(out.splitlines()) == 2

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
        code, out, _ = capture("verify", "table1", "--json")
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


class TestUsage:
    def test_no_arguments(self, capture):
        code, _, _ = capture()
        assert code == 2

    def test_unknown_subcommand(self, capture):
        code, _, _ = capture("frobnicate")
        assert code == 2

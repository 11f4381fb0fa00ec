import json
import os

import pytest

import majpat.cli
from majpat.cli import main
from majpat.enumeration import MajTable

DATA = os.path.join(os.path.dirname(__file__), "data", "a008302.txt")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, out, _ = run(capsys, "table", "--max-n", "4", "--max-maj", "3")
        assert code == 0 and out.startswith("n,")

    def test_verdict_failure_is_one(self, capsys):
        code, out, _ = run(capsys, "degree", "--patterns", "123", "--maj", "2",
                           "--max-n", "4", "--window", "1", "--algorithm", "brute")
        assert code == 1
        assert json.loads(out)["verdict"] == "mismatch"

    def test_invalid_input_is_two(self, capsys):
        code, _, err = run(capsys, "table", "--max-n", "4", "--patterns", "120")
        assert code == 2 and "majpat" in err

    def test_resource_ceiling_is_three(self, capsys):
        code, _, err = run(capsys, "table", "--max-n", "9", "--max-nodes", "50")
        assert code == 3 and "resource" in err.lower()

    def test_node_ceiling_does_not_depend_on_parallelism(self, capsys):
        # The full n <= 7 walk spends 1! + ... + 7! = 5913 nodes.
        for limit, want in (("5913", 0), ("5912", 3)):
            results = [run(capsys, "table", "--max-n", "7", "--max-nodes", limit,
                           "--parallelism", p) for p in ("1", "2")]
            assert [code for code, _, _ in results] == [want, want], limit
            assert results[0][1] == results[1][1]

    def test_bad_parallelism_env_is_two(self, capsys, monkeypatch):
        monkeypatch.setenv("MAJPAT_PARALLELISM", "x")
        code, _, err = run(capsys, "table", "--max-n", "3")
        assert code == 2 and "MAJPAT_PARALLELISM" in err and err.count("\n") == 1

    def test_negative_node_ceiling_is_two(self, capsys, monkeypatch):
        code, _, err = run(capsys, "table", "--max-n", "3", "--max-nodes", "-5")
        assert code == 2 and "node ceiling" in err and err.count("\n") == 1
        monkeypatch.setenv("MAJPAT_MAX_NODES", "-1")
        code, _, err = run(capsys, "cores", "--maj", "3")
        assert code == 2 and "node ceiling" in err and err.count("\n") == 1

    def test_deep_core_is_three_with_one_line(self, capsys):
        # The signature walk recurses once per coordinate, and the column
        # of 321 at m = 1000 has a core of length 999.
        code, out, err = run(capsys, "degree", "--patterns", "321", "--maj", "1000",
                             "--max-nodes", "3000000")
        assert code == 3 and out == ""
        assert err == "majpat: resource limit: Python recursion depth exhausted\n"

    def test_out_of_memory_is_three_with_one_line(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(majpat.cli, "verify_monotonicity", exhausted)
        code, out, err = run(capsys, "verify-monotonic", "--patterns", "2134", "--n", "9")
        assert code == 3 and out == ""
        assert err == "majpat: resource limit: memory exhausted\n"

    @pytest.mark.parametrize("argv", [
        ("table", "--max-n", "6", "--algorithm", "both"),
        ("verify-monotonic", "--patterns", "2134", "--n", "5"),
    ])
    def test_one_node_ceiling_per_run(self, capsys, argv):
        # Each run's walks spend this many nodes together, one node per
        # child built and per unit or pair counted wherever signatures are
        # counted from masks.  The table spends brute 873 and cores 834: 153
        # core-tree nodes (among them the 60 descent children of the 24
        # cores of length 4, whose units they are), 81 signature walk nodes
        # for the 10 cores of length <= 3, 240 pairs read off those
        # children's masks and one per unit profile of the 120 cores of
        # length 5 (360).  verify-monotonic spends the brute table at n + 1
        # only, and reads its sources off that walk: 1 + 2 + 6 + 23 + 103 =
        # 135 nodes built and 415 units counted at n = 6, maj <= 10.
        total = {"table": 1707, "verify-monotonic": 550}[argv[0]]
        code, _, err = run(capsys, *argv, "--max-nodes", str(total - 1))
        assert code == 3 and "resource" in err.lower()
        code, _, _ = run(capsys, *argv, "--max-nodes", str(total))
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ("cores", "--maj", "3", "--parallelism", "2"),
        ("cores", "--maj", "3", "--algorithm", "cores"),
        ("cores", "--maj", "3", "--core-limit", "5"),
        ("verify-monotonic", "--patterns", "2134", "--n", "3", "--parallelism", "2"),
        ("verify-monotonic", "--patterns", "2134", "--n", "3", "--algorithm", "brute"),
        ("degree", "--maj", "2", "--parallelism", "2"),
        ("check-oeis", "--file", DATA, "--max-n", "3", "--patterns", "132"),
    ])
    def test_flags_a_command_does_not_read_are_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        assert err.startswith("majpat: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [("table", "--max-n", "x"), ("bogus",)])
    def test_bad_flag_values_are_two_with_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("majpat: ") and err.count("\n") == 1

    @pytest.mark.parametrize("parallelism", ["1", "2"])
    def test_node_ceiling_counts_the_capped_last_level(self, capsys, parallelism):
        # maj_table(8, 10, 1324) spends one node per counted permutation,
        # 4329 in all; max_maj 10 cuts part of the last level.
        argv = ("table", "--patterns", "1324", "--max-n", "8", "--max-maj", "10",
                "--parallelism", parallelism)
        code, out, _ = run(capsys, *argv)
        total = sum(int(c) for line in out.splitlines()[1:] for c in line.split(",")[1:] if c)
        assert code == 0 and total == 4329
        code, _, _ = run(capsys, *argv, "--max-nodes", str(total))
        assert code == 0
        code, _, err = run(capsys, *argv, "--max-nodes", str(total - 1))
        assert code == 3 and "resource" in err.lower()


class TestTable:
    def test_known_cells_csv(self, capsys):
        code, out, _ = run(capsys, "table", "--patterns", "1324", "--max-n", "7",
                           "--max-maj", "12", "--format", "csv", "--algorithm", "both")
        assert code == 0
        lines = out.splitlines()
        assert lines[5].split(",")[:7] == ["5", "1", "4", "6", "12", "16", "19"]
        assert lines[7].split(",")[-1] == "303"

    def test_csv_and_json_value_identical(self, capsys):
        args = ("--patterns", "3412,1324", "--max-n", "6", "--max-maj", "5")
        code, csv_out, _ = run(capsys, "table", *args, "--format", "csv")
        assert code == 0
        code, json_out, _ = run(capsys, "table", *args, "--format", "json")
        assert code == 0
        parsed = MajTable.from_json_obj(json.loads(json_out))
        max_maj, rows = MajTable.rows_from_csv(csv_out)
        assert parsed.max_maj == max_maj and parsed.rows == rows
        assert parsed.patterns.texts() == ["1324", "3412"]

    def test_two_pattern_cell(self, capsys):
        code, out, _ = run(capsys, "table", "--patterns", "3412,1324",
                           "--max-n", "8", "--max-maj", "5", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["schema"] == 1
        assert obj["rows"][6]["counts"][5] == 20

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "t.csv"
        code, out, _ = run(capsys, "table", "--max-n", "3", "--output", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("n,")

    def test_parallelism_matches_serial(self, capsys):
        base = ("table", "--patterns", "132", "--max-n", "7")
        code, serial, _ = run(capsys, *base)
        code2, parallel, _ = run(capsys, *base, "--parallelism", "2")
        assert code == code2 == 0 and serial == parallel


class TestDegree:
    def test_match_report(self, capsys):
        code, out, _ = run(capsys, "degree", "--patterns", "1324", "--maj", "3",
                           "--max-n", "13")
        assert code == 0
        obj = json.loads(out)
        assert obj["prediction"] == {"kind": "exact", "degree": 2}
        assert obj["detected"]["degree"] == 2
        assert obj["verdict"] == "match"

    def test_zero_sequence(self, capsys):
        code, out, _ = run(capsys, "degree", "--patterns", "123", "--maj", "4")
        assert code == 0
        obj = json.loads(out)
        assert obj["prediction"]["kind"] == "zero_sequence"
        assert obj["verdict"] == "match"

    def test_empty_set_leading_coefficient(self, capsys):
        code, out, _ = run(capsys, "degree", "--maj", "2", "--max-n", "10")
        assert code == 0
        obj = json.loads(out)
        assert obj["prediction"] == {"kind": "exact", "degree": 2}
        assert obj["detected"]["polynomial"][-1] == [1, 2]

    def test_reaches_maj_ten_by_default(self, capsys):
        code, out, _ = run(capsys, "degree", "--patterns", "1324", "--maj", "10")
        assert code == 0
        assert json.loads(out)["verdict"] == "match"

    def test_inconclusive_is_exit_zero(self, capsys):
        code, out, _ = run(capsys, "degree", "--patterns", "1324", "--maj", "3",
                           "--max-n", "6")
        assert code == 0
        assert json.loads(out)["detected"] == {"inconclusive": True}


class TestVerifyMonotonic:
    def test_verified_with_tallies(self, capsys):
        code, out, _ = run(capsys, "verify-monotonic", "--patterns", "1324",
                           "--n", "6", "--max-maj", "12")
        assert code == 0
        obj = json.loads(out)
        assert obj["verified"] is True
        assert sum(obj["cases"].values()) == sum(v[0] for v in obj["counts"].values())

    def test_increasing_pattern_rejected(self, capsys):
        code, _, err = run(capsys, "verify-monotonic", "--patterns", "123", "--n", "4")
        assert code == 2 and "increasing" in err

    def test_negative_max_maj_is_two(self, capsys):
        code, out, err = run(capsys, "verify-monotonic", "--patterns", "2134", "--n", "5",
                             "--max-maj", "-3")
        assert code == 2 and out == ""
        assert "max_maj" in err and err.count("\n") == 1

    def test_multi_pattern_rejected(self, capsys):
        code, _, err = run(capsys, "verify-monotonic", "--patterns", "132,231", "--n", "4")
        assert code == 2 and "one pattern" in err


class TestCores:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "cores", "--maj", "2")
        assert code == 0
        assert out.splitlines() == ["12  maj+=2  minimal-profiles: (1,0,0) (0,1,0)"]

    def test_json_listing(self, capsys):
        code, out, _ = run(capsys, "cores", "--maj", "3", "--patterns", "1324",
                           "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["schema"] == 1
        names = [c["core"] for c in obj["cores"]]
        assert names == ["21", "123"]


class TestCheckOeis:
    def test_match(self, capsys):
        code, out, _ = run(capsys, "check-oeis", "--file", DATA, "--max-n", "6")
        assert code == 0 and out.startswith("match: 41 entries")

    def test_mismatch_is_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1\n1\n1\n1\n999\n")
        code, out, _ = run(capsys, "check-oeis", "--file", str(bad), "--max-n", "3")
        assert code == 1 and "MISMATCH at (n=3, m=1)" in out

    def test_short_file_is_exit_one(self, capsys, tmp_path):
        short = tmp_path / "short.txt"
        short.write_text("1\n1\n1\n")
        code, out, _ = run(capsys, "check-oeis", "--file", str(short), "--max-n", "3")
        assert code == 1 and "too short" in out

    def test_parse_error_has_line_number(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1\n1\nx7\n")
        code, _, err = run(capsys, "check-oeis", "--file", str(bad), "--max-n", "3")
        assert code == 2 and ":3:" in err

    def test_missing_file_is_exit_two(self, capsys):
        code, _, err = run(capsys, "check-oeis", "--file", "/nonexistent", "--max-n", "3")
        assert code == 2

    def test_bfile_two_column_form(self, capsys, tmp_path):
        bfile = tmp_path / "b.txt"
        rows = [1, 1, 1, 1, 2, 2, 1]
        bfile.write_text("".join(f"{i} {v}\n" for i, v in enumerate(rows, 1)))
        code, out, _ = run(capsys, "check-oeis", "--file", str(bfile), "--max-n", "3")
        assert code == 0


def test_env_override_for_max_nodes(capsys, monkeypatch):
    monkeypatch.setenv("MAJPAT_MAX_NODES", "40")
    code, _, err = run(capsys, "table", "--max-n", "9")
    assert code == 3

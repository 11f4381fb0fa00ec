import json
import os
import signal
import subprocess
import sys

import pytest

import majpat.asymptotics
import majpat.cli
import majpat.enumeration
from majpat.cli import main
from majpat.enumeration import PatternSet, _triangle, maj_table
from majpat.errors import InvalidInputError, ResourceLimitError
from majpat.oeis import diff_triangle, rows_holding
from oracles import oracle_mahonian

DATA = os.path.join(os.path.dirname(__file__), "data", "a008302.txt")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def peak_rss(*argv):
    """Run majpat in a child process: (exit code, peak RSS in kB, stdout, stderr).

    A child's peak RSS starts at the RSS of the process that started it,
    here the whole test session, so the run is started and measured by a
    small interpreter.
    """
    measure = (
        "import json, os, subprocess, sys\n"
        "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE,"
        " stderr=subprocess.PIPE)\n"
        "_, status, usage = os.wait4(proc.pid, 0)\n"
        "print(json.dumps([os.waitstatus_to_exitcode(status), usage.ru_maxrss,"
        " proc.stdout.read().decode(), proc.stderr.read().decode()]))\n")
    src = os.path.dirname(os.path.dirname(majpat.cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    probe = subprocess.run([sys.executable, "-c", measure, sys.executable, "-m", "majpat.cli",
                            *argv], env=env, capture_output=True, text=True, check=True)
    return json.loads(probe.stdout)


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

    def test_bad_window_is_two_before_the_column_walk(self, capsys):
        for maj in ("4", "40"):
            code, _, err = run(capsys, "degree", "--patterns", "1324", "--maj", maj,
                               "--window", "0", "--max-nodes", "1000")
            assert code == 2 and "window must be >= 1" in err, maj

    def test_short_series_is_two_before_the_column_walk(self, capsys):
        # Three counts are too short for the default window of 3, on both
        # paths, under a ceiling that no walk fits.
        for algorithm in ("cores", "brute"):
            code, _, err = run(capsys, "degree", "--patterns", "1324", "--maj", "60",
                               "--max-n", "3", "--max-nodes", "0", "--algorithm", algorithm)
            assert code == 2, algorithm
            assert err == "majpat: series of length 3 is too short for window 3\n", algorithm

    def test_columns_past_the_last_row_count_against_the_ceiling(self, capsys):
        # Row 3 spans m = 0 .. 3; the 999,997 columns past it cost a node
        # each before any walk, so nothing is written.
        code, out, err = run(capsys, "table", "--max-n", "3", "--max-maj", "1000000",
                             "--max-nodes", "100")
        assert code == 3 and out == "" and "search node budget" in err

    def test_failed_witness_self_check_is_one(self, capsys, monkeypatch):
        monkeypatch.setattr(majpat.asymptotics, "co_layered",
                            lambda positions, length: tuple(range(1, length + 1)))
        code, _, err = run(capsys, "degree", "--patterns", "1243", "--maj", "6")
        assert code == 1 and "verification failed: core construction failed" in err

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

    def test_negative_node_ceiling_is_two(self, capsys):
        code, _, err = run(capsys, "table", "--max-n", "3", "--max-nodes", "-5")
        assert code == 2 and "node ceiling" in err and err.count("\n") == 1

    def test_deep_core_is_three_with_one_line(self, capsys):
        # The signature walk recurses once per coordinate, and the column
        # of 321 at m = 1000 has a core of length 999.
        code, out, err = run(capsys, "degree", "--patterns", "321", "--maj", "1000",
                             "--max-nodes", "3000000")
        assert code == 3 and out == ""
        assert err == "majpat: resource limit: Python recursion depth exhausted\n"

    def test_node_ceiling_bounds_memory(self):
        # A column as tall as 1,000,000 lets the walk go deep, but 2,000
        # nodes stop it early, and the memory it holds follows the depth it
        # reached, not the height of the column.
        code, maxrss, out, err = peak_rss("degree", "--patterns", "1324", "--maj", "1000000",
                                          "--max-nodes", "2000")
        assert code == 3 and out == ""
        assert err.startswith("majpat: resource limit: search node budget")
        assert maxrss < 40 * 1024  # kilobytes

    def test_signature_walk_holds_no_signature_list(self):
        # The 1432 column at m = 7 has about 850,000 avoiding signatures;
        # each is counted into its core's histogram, not kept.
        code, maxrss, out, _ = peak_rss("degree", "--patterns", "1432", "--maj", "7")
        assert code == 0 and json.loads(out)["maj"] == 7
        assert maxrss < 40 * 1024  # kilobytes

    def test_missing_output_directory_is_two_before_the_walk(self, capsys, tmp_path):
        # The output is opened before any work: the walk would exceed its
        # ceiling (exit 3), but the path is refused first.
        target = tmp_path / "missing" / "x"
        code, out, err = run(capsys, "table", "--patterns", "1324", "--max-n", "10",
                             "--max-nodes", "1", "--output", str(target))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and str(target) in err

    def test_failed_run_leaves_its_output_empty(self, capsys, tmp_path):
        # As with a shell redirection, the output is created before the walk
        # that then exceeds its ceiling.
        target = tmp_path / "x"
        code, out, _ = run(capsys, "table", "--patterns", "1324", "--max-n", "10",
                           "--max-nodes", "1", "--output", str(target))
        assert code == 3 and out == "" and target.read_text() == ""

    def test_cores_listing_holds_no_copy_of_its_output(self, tmp_path):
        # The m = 19 column of 1324 has 8,961 cores; each line is formatted
        # from the core's sites as it is written.  The output goes to a
        # file, since the stdout pipe is read only after the child exits.
        target = tmp_path / "c.txt"
        code, maxrss, out, err = peak_rss("cores", "--patterns", "1324", "--maj", "19",
                                          "--output", str(target))
        assert (code, out, err) == (0, "", "")
        assert target.read_text().count("  maj+=19  ") == 8961
        assert maxrss < 30 * 1024  # kilobytes

    def test_out_of_memory_is_three_with_one_line(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(majpat.cli, "verify_monotonicity", exhausted)
        code, out, err = run(capsys, "verify-monotonic", "--patterns", "2134", "--n", "9")
        assert code == 3 and out == ""
        assert err == "majpat: resource limit: memory exhausted\n"

    @pytest.mark.parametrize("end,message", [
        ("killed", "a worker process ended without its result (exit -9)"),
        ("unpicklable", "a worker process ended without its result (exit 1)"),
        (MemoryError(), "memory exhausted"),
        (RecursionError("maximum recursion depth exceeded"), "Python recursion depth exhausted"),
        (ResourceLimitError("the share's own ceiling"), "the share's own ceiling"),
    ], ids=["killed", "unpicklable", "memory", "recursion", "ceiling"])
    def test_worker_that_fails_is_three_with_one_line(self, capsys, monkeypatch, end, message):
        # A forked child that is killed (as by the out-of-memory killer), or
        # that cannot send its result, exits without one; one that raises
        # sends its exception, which the caller raises again with the same
        # type and message.
        caller = os.getpid()
        walk_share = majpat.enumeration._walk_share

        def share(*args):
            if os.getpid() != caller:
                if end == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                if end == "unpicklable":
                    return (lambda: None), 0
                raise end
            return walk_share(*args)

        monkeypatch.setattr(majpat.enumeration, "_walk_share", share)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        code, out, err = run(capsys, "table", "--patterns", "1324", "--max-n", "8",
                             "--parallelism", "2")
        assert code == 3 and out == ""
        assert err == f"majpat: resource limit: {message}\n"

    @pytest.mark.parametrize("argv", [
        ("table", "--max-n", "6", "--algorithm", "both"),
        ("verify-monotonic", "--patterns", "2134", "--n", "5"),
        ("verify-monotonic", "--patterns", "2134", "--n", "5", "--max-maj", "1015"),
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
        # 135 nodes built and 415 units counted at n = 6, maj <= 10.  At
        # --max-maj 1015 the walk runs to row 6's last maj, 15, in 648 nodes,
        # and the 1000 cells past it cost one node each.
        total = {"both": 1707, "5": 550, "1015": 1648}[argv[-1]]
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
        obj = json.loads(json_out)
        header, *lines = csv_out.splitlines()
        assert header.split(",")[1:] == [str(m) for m in range(obj["max_maj"] + 1)]
        assert [[int(c) for c in line.split(",") if c] for line in lines] == \
            [[r["n"], *r["counts"]] for r in obj["rows"]]
        assert obj["patterns"] == ["1324", "3412"]

    def test_two_pattern_cell(self, capsys):
        code, out, _ = run(capsys, "table", "--patterns", "3412,1324",
                           "--max-n", "8", "--max-maj", "5", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["schema"] == 1
        assert obj["rows"][6]["counts"][5] == 20

    def test_output_file(self, capsys, tmp_path):
        # Each command writes to --output exactly the bytes it prints without it.
        target = tmp_path / "out"
        for argv in (("table", "--max-n", "3"),
                     ("table", "--patterns", "1324", "--max-n", "5", "--format", "json"),
                     ("degree", "--patterns", "1324", "--maj", "3"),
                     ("verify-monotonic", "--patterns", "2134", "--n", "4"),
                     ("cores", "--patterns", "1324", "--maj", "5"),
                     ("cores", "--patterns", "1324", "--maj", "5", "--format", "json"),
                     ("check-oeis", "--file", DATA, "--max-n", "4")):
            code, printed, _ = run(capsys, *argv)
            assert code == 0 and printed, argv
            assert run(capsys, *argv, "--output", str(target)) == (0, "", ""), argv
            assert target.read_bytes() == printed.encode(), argv

    def test_pattern_longer_than_one_function_of_loops(self, capsys):
        # Every permutation of length <= 5 avoids a 24-letter pattern, whose
        # compiled searches nest more loops than one function holds.
        long = ",".join(str(v) for v in (2, 1, *range(3, 25))) + ";"
        code, out, _ = run(capsys, "table", "--patterns", long, "--max-n", "5",
                           "--algorithm", "both")
        assert code == 0
        assert out == run(capsys, "table", "--max-n", "5")[1]

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

    def test_non_utf8_file_is_exit_two_with_one_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"1\n\xff\n")
        code, out, err = run(capsys, "check-oeis", "--file", str(bad), "--max-n", "3")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and str(bad) in err and "UTF-8" in err

    def test_missing_file_is_exit_two(self, capsys):
        code, _, err = run(capsys, "check-oeis", "--file", "/nonexistent", "--max-n", "3")
        assert code == 2

    def test_output_that_is_the_file_is_refused(self, capsys, tmp_path):
        # Opening --output truncates it, so the file it would read is refused
        # before that, by its own path and through a symlink, and left whole.
        ref = tmp_path / "ref.txt"
        with open(DATA, "rb") as fh:
            data = fh.read()
        ref.write_bytes(data)
        (tmp_path / "link.txt").symlink_to(ref)
        for output in ("ref.txt", "link.txt"):
            code, out, err = run(capsys, "check-oeis", "--file", str(ref), "--max-n", "4",
                                 "--output", str(tmp_path / output))
            assert (code, out, err.count("\n")) == (2, "", 1), output
            assert "--file" in err and ref.read_bytes() == data, output

    def test_bfile_two_column_form(self, capsys, tmp_path):
        bfile = tmp_path / "b.txt"
        rows = [1, 1, 1, 1, 2, 2, 1]
        bfile.write_text("".join(f"{i} {v}\n" for i, v in enumerate(rows, 1)))
        code, out, _ = run(capsys, "check-oeis", "--file", str(bfile), "--max-n", "3")
        assert code == 0

    def test_rows_past_the_file_are_counted_not_computed(self, capsys):
        # The file ends with row 6, so no row past it is walked: row 12 alone
        # has 12! leaves, far over the ceiling.  Its cells still count.
        for max_n, cells in (("9", 88), ("12", 257)):
            code, out, _ = run(capsys, "check-oeis", "--file", DATA, "--max-n", max_n,
                               "--max-nodes", "10000")
            assert (code, out) == (1, f"file too short: {cells} cells unmatched after 41 matches\n")

    def test_diff_agrees_with_the_recurrence(self):
        # Each table holds the rows that hold a file entry, as check-oeis builds it.
        rows = oracle_mahonian(10)
        flat = [c for row in rows for c in row]
        cells = [(n, m) for n, row in enumerate(rows, 1) for m in range(len(row))]
        upto = [sum(map(len, rows[:n])) for n in range(11)]
        tables = {}

        def diff(file, max_n):
            table_n = min(max_n, rows_holding(len(file)))
            if table_n not in tables:
                tables[table_n] = maj_table(table_n, _triangle(table_n), PatternSet())
            got = diff_triangle(tables[table_n], file, max_n)
            return got.matched, got.mismatch, got.missing_cells

        for length in range(upto[8] + 1):
            for max_n in range(1, 11):
                matched = min(length, upto[max_n])
                assert diff(flat[:length], max_n) == (matched, None, upto[max_n] - matched)
        for wrong in (0, 1, 5, 40, upto[8] - 1):
            for length in (wrong + 1, upto[8]):
                file = flat[:length]
                file[wrong] += 1
                for max_n in range(1, 11):
                    if wrong < upto[max_n]:
                        expected = (wrong, (*cells[wrong], flat[wrong], file[wrong]), 0)
                    else:
                        expected = (upto[max_n], None, 0)
                    assert diff(file, max_n) == expected

    def test_a_table_short_of_the_file_is_refused(self):
        table = maj_table(2, 1, PatternSet())
        assert rows_holding(4) == 3 and rows_holding(3) == 2 and rows_holding(0) == 1
        assert diff_triangle(table, [1, 1, 1], 5).missing_cells == 4 + 7 + 11
        with pytest.raises(InvalidInputError):
            diff_triangle(table, [1, 1, 1, 1], 5)


def test_environment_sets_no_run_value(capsys, monkeypatch):
    # Only --max-nodes and --parallelism set the ceiling and the shares.
    monkeypatch.delenv("MAJPAT_MAX_NODES", raising=False)
    monkeypatch.delenv("MAJPAT_PARALLELISM", raising=False)
    plain = run(capsys, "table", "--max-n", "5")
    monkeypatch.setenv("MAJPAT_MAX_NODES", "1")
    monkeypatch.setenv("MAJPAT_PARALLELISM", "x")
    assert run(capsys, "table", "--max-n", "5") == plain and plain[0] == 0

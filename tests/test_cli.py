"""Command-line contract: formats, exit codes, seeding."""

import json

import pytest

from kumsim import blocklang, cli
from kumsim.kum_recognizer import DEGREE_BOUND

import helpers


def out_of(capsys):
    return capsys.readouterr().out


def test_gen_positive_line_is_member(capsys):
    assert cli.main(["gen", "2", "--count", "1", "--seed", "7"]) == 0
    lines = out_of(capsys).splitlines()
    assert len(lines) == 1
    assert blocklang.member(lines[0])


def test_gen_negative_kind_fails_member(capsys):
    assert cli.main(["gen", "2", "--kind", "value-mismatch",
                     "--seed", "7"]) == 0
    (line,) = out_of(capsys).splitlines()
    assert not blocklang.member(line)


def test_gen_infeasible_kind_is_usage_error(capsys):
    assert cli.main(["gen", "1", "--kind", "value-mismatch",
                     "--seed", "7"]) == 2
    assert out_of(capsys) == ""  # message goes to stderr


def test_gen_count_below_one_is_usage_error(capsys):
    for count in ("0", "-2"):
        assert cli.main(["gen", "3", "--count", count]) == 2, count
        assert out_of(capsys) == ""


def test_gen_seed_determinism(capsys):
    cli.main(["gen", "3", "--count", "5", "--seed", "42"])
    a = out_of(capsys)
    cli.main(["gen", "3", "--count", "5", "--seed", "42"])
    b = out_of(capsys)
    cli.main(["gen", "3", "--count", "5", "--seed", "43"])
    c = out_of(capsys)
    assert a == b
    assert a != c


def test_run_machine_and_oracle_verdicts_agree(tmp_path, capsys):
    src = tmp_path / "lines.txt"
    src.write_text("0@1@0@1#00#10#\n0@1@0@1#00#01#\nnot-even-close\n")
    assert cli.main(["run", str(src), "--machine", "kum"]) == 0
    kum_rows = [r.split("\t") for r in out_of(capsys).splitlines()]
    assert cli.main(["run", str(src), "--machine", "oracle"]) == 0
    ora_rows = [r.split("\t") for r in out_of(capsys).splitlines()]
    assert [r[0] for r in kum_rows] == ["accept", "reject:format",
                                        "reject:bad-alphabet"]
    assert [r[0] for r in ora_rows] == ["accept", "reject", "reject"]
    for kr, orr in zip(kum_rows, ora_rows):
        assert kr[0].split(":")[0] == orr[0]
        assert int(kr[1]) >= 0 and int(kr[2]) >= 0
        assert orr[1] == "0" and orr[2] == "0"
    # the full accepting run does real, padded work
    assert int(kum_rows[0][1]) > 0 and int(kum_rows[0][2]) > 0


def test_run_reads_stdin(monkeypatch, capsys):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("@#0#0#\n"))
    assert cli.main(["run", "-", "--machine", "smm"]) == 0
    (row,) = out_of(capsys).splitlines()
    assert row.startswith("accept\t")


def test_run_missing_file_is_usage_error(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "nope.txt")]) == 2


def test_input_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    src = tmp_path / "bad.txt"
    src.write_bytes(b"@#0#0#\n\xff\n")
    for command in ("run", "stats"):
        assert cli.main([command, str(src)]) == 2, command
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("kumsim: "), (command, err)


def test_profile_header_and_flat_max_gap(capsys):
    assert cli.main(["profile", "--machine", "kum", "--n-min", "2",
                     "--n-max", "5", "--per-n", "3", "--seed", "1"]) == 0
    rows = out_of(capsys).splitlines()
    assert rows[0] == ("n,input_len,verdict,total_steps,max_gap,mean_gap,"
                       "node_count,max_degree,max_in_degree")
    body = [r.split(",") for r in rows[1:]]
    assert len(body) == 12
    assert {r[4] for r in body} == {str(helpers.MACHINES["kum"].cadence)}
    assert all(int(r[7]) <= DEGREE_BOUND for r in body)  # max_degree column
    # rows already sorted by (n, case index)
    assert [int(r[0]) for r in body] == sorted(int(r[0]) for r in body)


def test_profile_all_equal_smm_in_degree(capsys):
    assert cli.main(["profile", "--machine", "smm", "--kind", "all-equal",
                     "--n-min", "2", "--n-max", "6", "--per-n", "1",
                     "--seed", "3"]) == 0
    body = [r.split(",") for r in out_of(capsys).splitlines()[1:]]
    for row in body:
        assert int(row[8]) == 2 ** int(row[0])  # max_in_degree = 2^n


def test_profile_oracle_rows_are_zero(capsys):
    assert cli.main(["profile", "--machine", "oracle", "--n-min", "2",
                     "--n-max", "3", "--per-n", "2", "--seed", "5"]) == 0
    body = [r.split(",") for r in out_of(capsys).splitlines()[1:]]
    for row in body:
        assert row[2] == "accept"
        assert row[3:] == ["0", "0", "0.000000", "0", "0", "0"]


def test_profile_threshold_violation_exits_1(capsys):
    assert cli.main(["profile", "--machine", "kum", "--n-min", "2",
                     "--n-max", "2", "--per-n", "1", "--seed", "1",
                     "--realtime-c", "1"]) == 1


def test_profile_wrong_verdict_exits_1(monkeypatch, capsys):
    monkeypatch.setitem(cli.MACHINES, "kum", helpers.broken_kum_builder)
    assert cli.main(["profile", "--machine", "kum", "--n-min", "3",
                     "--n-max", "4", "--per-n", "2", "--seed", "1",
                     "--realtime-c", "100"]) == 1
    body = [r.split(",") for r in out_of(capsys).splitlines()[1:]]
    assert {r[2] for r in body} == {"reject:format"}
    # a fault is a wrong verdict even where it rejects a non-member
    monkeypatch.setitem(cli.MACHINES, "kum", helpers.faulting_kum_builder)
    assert cli.main(["profile", "--machine", "kum", "--kind",
                     "value-mismatch", "--n-min", "2", "--n-max", "3",
                     "--per-n", "2"]) == 1
    body = [r.split(",") for r in out_of(capsys).splitlines()[1:]]
    assert {r[2] for r in body} == {"reject:machine-fault"}


def test_profile_output_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    flags = ["profile", "--machine", "smm", "--n-min", "2", "--n-max", "4",
             "--per-n", "4", "--seed", "9"]
    assert cli.main(flags + ["-o", str(a)]) == 0
    assert cli.main(flags + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_fuzz_zero_cases_is_usage_error(capsys):
    for flags in (["--cases", "0"], ["--cases", "1", "--max-n", "0"]):
        assert cli.main(["fuzz"] + flags) == 2, flags


def test_fuzz_broken_machine_prints_reproducer(monkeypatch, capsys):
    monkeypatch.setitem(cli.MACHINES, "kum", helpers.broken_kum_builder)
    assert cli.main(["fuzz", "--machines", "kum", "--cases", "200",
                     "--seed", "11", "--max-n", "4"]) == 1
    lines = out_of(capsys).splitlines()
    assert lines[0].startswith("mismatch\t")
    # last line is the raw offending input, replayable as-is
    assert blocklang.member(lines[-1])


def test_fuzz_machine_fault_on_non_member_is_a_mismatch(monkeypatch,
                                                        capsys):
    # every verdict of this build agrees with the oracle on acceptance;
    # the rejects it reaches by faulting must still fail the sweep
    monkeypatch.setitem(cli.MACHINES, "kum", helpers.faulting_kum_builder)
    assert cli.main(["fuzz", "--machines", "kum", "--cases", "3000",
                     "--seed", "2026"]) == 1
    lines = out_of(capsys).splitlines()
    assert lines[0].startswith("mismatch\t")
    assert lines[0].endswith("\toracle=reject\tgot=reject:machine-fault")
    assert not blocklang.member(lines[-1])


def test_stats_json_per_line(tmp_path, capsys):
    src = tmp_path / "lines.txt"
    inst = blocklang.encode(blocklang.gen_all_equal(3))
    src.write_text(inst + "\n")
    assert cli.main(["stats", str(src), "--machine", "smm"]) == 0
    (row,) = out_of(capsys).splitlines()
    stats = json.loads(row)
    assert stats["max_in_degree"] == 8
    assert set(stats) == {"node_count", "max_degree", "max_in_degree"}
    assert cli.main(["stats", str(src), "--machine", "kum"]) == 0
    assert json.loads(out_of(capsys))["max_degree"] <= DEGREE_BOUND
    assert cli.main(["stats", str(src), "--machine", "oracle"]) == 0
    assert out_of(capsys) == "{}\n"

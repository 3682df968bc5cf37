import json
import os
import tempfile

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from apolar import relation_space_dim_formula
from apolar.cli import (
    RunConfig,
    _summarize,
    emit_report,
    main,
    read_form_file,
    read_tuple_file,
    run_suite,
    trial_seeds,
)


def run_main(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_trial_seeds_are_deterministic():
    assert trial_seeds(42, 3) == trial_seeds(42, 3)
    assert trial_seeds(42, 3) != trial_seeds(43, 3)


def test_identities_small_run_exits_zero(capsys):
    code, out, err = run_main(
        ["identities", "--max-p", "3", "--max-r", "3", "--max-n", "6",
         "--max-m", "4", "--max-nd", "3"],
        capsys,
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records and all(r["pass"] for r in records)
    assert {r["identity_id"] for r in records} >= {"A1", "A2", "A3", "AUX788"}
    assert "failed: 0" in err


@pytest.mark.parametrize("flag", ["--max-p", "--max-r", "--max-n", "--max-m", "--max-nd"])
def test_negative_identity_range_is_a_usage_error(capsys, flag):
    ranges = {"--max-p": 3, "--max-r": 3, "--max-n": 6, "--max-m": 4, "--max-nd": 3}

    def args(value):
        return ["identities"] + [str(x) for item in {**ranges, flag: value}.items() for x in item]

    code, out, err = run_main(args(-3), capsys)
    assert (code, out, err) == (2, "", f"error: {flag} must be nonnegative\n")
    # Zero is an empty range, not an error.
    code, out, err = run_main(args(0), capsys)
    assert code == 0 and "failed: 0" in err


def test_tangent_output_is_reproducible(tmp_path, capsys):
    args = ["tangent", "--n", "2", "--d", "2", "--trials", "3", "--seed", "7"]
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    records = [json.loads(line) for line in first.read_text().splitlines()]
    assert [r["trial"] for r in records] == [0, 1, 2]
    assert all(r["tangent_dim"] == r["expected_N"] == 3 for r in records)


@pytest.mark.parametrize(
    "suite, n, d", [("tangent", 2, 2), ("relations", 4, 2), ("koszul", 3, 3)]
)
def test_parallel_run_matches_serial(tmp_path, capsys, suite, n, d):
    args = [suite, "--n", str(n), "--d", str(d), "--trials", "4", "--seed", "3"]
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    assert main(args + ["--jobs", "1", "--out", str(serial)]) == 0
    assert main(args + ["--jobs", "3", "--out", str(parallel)]) == 0
    capsys.readouterr()
    assert serial.read_bytes() == parallel.read_bytes()


def test_zero_trials_gives_empty_output(capsys):
    code, out, err = run_main(
        ["tangent", "--n", "2", "--d", "2", "--trials", "0"], capsys
    )
    assert code == 0
    assert out == ""


@pytest.mark.parametrize("command", ["tangent", "relations", "koszul"])
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_is_a_usage_error(capsys, command, seed):
    # Read mod 2^64, -1 would repeat seed 2^64 - 1 and 2^64 would repeat 0.
    args = [command, "--n", "3", "--d", "3", "--trials", "1", "--seed", str(seed)]
    code, out, err = run_main(args, capsys)
    assert (code, out, err) == (2, "", "error: --seed must lie in [0, 2^64)\n")


def test_seeds_at_both_ends_of_64_bits_are_accepted(capsys):
    for seed in (0, 2**64 - 1):
        args = ["tangent", "--n", "2", "--d", "2", "--trials", "1", "--seed", str(seed)]
        assert run_main(args, capsys)[0] == 0


def test_relations_out_of_band_is_a_usage_error(capsys):
    code, out, err = run_main(
        ["relations", "--n", "2", "--d", "3", "--trials", "1"], capsys
    )
    assert code == 2
    assert "error:" in err
    # The CLI and the library state the band with the same condition text.
    with pytest.raises(ValueError) as library:
        relation_space_dim_formula(2, 3)
    condition = str(library.value).removeprefix("need ")
    assert condition and condition in err


def test_stratify_square_form(tmp_path, capsys):
    path = tmp_path / "form.txt"
    path.write_text("2 2\ny1^2\n")
    code, out, err = run_main(["stratify", str(path)], capsys)
    assert code == 0
    (record,) = [json.loads(line) for line in out.splitlines()]
    assert record["in_Z"] is True
    assert record["in_URes"] is False
    assert record["hilbert"] == [1, 1, 1]


@pytest.mark.parametrize(
    "text",
    ["2 2\ny1^3\n", "1 3\ny1^2\n", "2 2\n0\n", "2 2\n5\n"],
    ids=["wrong-degree", "one-variable", "zero-form", "constant"],
)
def test_stratify_bad_form_is_an_input_error(tmp_path, capsys, text):
    path = tmp_path / "form.txt"
    path.write_text(text)
    code, out, err = run_main(["stratify", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_assoc_power_tuple(tmp_path, capsys):
    path = tmp_path / "tuple.txt"
    path.write_text("2 2\nx1^2\nx2^2\n")
    code, out, err = run_main(["assoc", str(path)], capsys)
    assert code == 0
    (record,) = [json.loads(line) for line in out.splitlines()]
    assert record["associated_form"] == "1/2*y1*y2"


def test_assoc_degenerate_tuple_reports_error(tmp_path, capsys):
    path = tmp_path / "tuple.txt"
    path.write_text("2 2\nx1^2\nx1*x2\n")
    code, out, err = run_main(["assoc", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_zero_denominator_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "tuple.txt"
    path.write_text("2 2\nx1^2\n1/0*x2^2\n")
    code, out, err = run_main(["assoc", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_missing_file_reports_error(capsys):
    code, out, err = run_main(["stratify", "/nonexistent/f.txt"], capsys)
    assert code == 2
    assert "error:" in err


def test_koszul_runs_the_full_band(capsys):
    code, out, err = run_main(
        ["koszul", "--n", "3", "--d", "4", "--trials", "1", "--seed", "1"], capsys
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["rho"] for r in records] == [4, 5]
    assert all(r["pass"] for r in records)


def test_koszul_empty_band_emits_nothing(capsys):
    code, out, err = run_main(
        ["koszul", "--n", "2", "--d", "2", "--trials", "2", "--seed", "1"], capsys
    )
    assert code == 0
    assert out == ""


def test_csv_summary(tmp_path, capsys):
    out_path = tmp_path / "r.jsonl"
    csv_path = tmp_path / "r.csv"
    main(
        ["tangent", "--n", "2", "--d", "2", "--trials", "2",
         "--out", str(out_path), "--csv", str(csv_path)]
    )
    capsys.readouterr()
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "suite,records,passed,failed"
    assert lines[1] == "tangent,2,2,0"


def test_summary_and_csv_agree_per_suite(tmp_path, capsys):
    # Two suites out of order, one record without a check, one failure.
    records = [
        {"suite": "b", "pass": True},
        {"suite": "a", "form": "x1"},
        {"suite": "b", "pass": False},
        {"suite": "a", "pass": True},
    ]
    assert _summarize(records) == 1
    assert capsys.readouterr().err == (
        "a: 2 records\nb: 2 records\nchecks: 3, passed: 2, failed: 1\n"
        'FAIL {"suite": "b", "pass": false}\n'
    )
    csv_path = tmp_path / "r.csv"
    emit_report(records, str(tmp_path / "r.jsonl"), str(csv_path))
    assert csv_path.read_bytes() == b"suite,records,passed,failed\r\na,2,1,0\r\nb,2,1,1\r\n"


def test_summarize_counts_failures_and_echoes_params(capsys):
    records = [
        {"suite": "identities", "identity_id": "A1", "params": [9, 9], "pass": True},
        {"suite": "identities", "identity_id": "A2", "params": [5, 1], "pass": False},
    ]
    assert _summarize(records) == 1
    err = capsys.readouterr().err
    assert "FAIL" in err and "[5, 1]" in err


def test_emit_report_without_checks(capsys):
    emit_report([{"suite": "assoc", "n": 2, "d": 2, "associated_form": "0"}])
    out = capsys.readouterr().out
    assert json.loads(out)["suite"] == "assoc"


# Text that a line cut could trip on: quotes, backslashes, newlines,
# non-ASCII, and the very text at which the report is cut into lines.
TRICKY_TEXT = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "\n", "\u00e9\u2211\U0001d54a", '}, {"suite": ', '", {"suite": "']),
)
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**200), 2**200),
    TRICKY_TEXT,
    st.lists(st.one_of(st.none(), st.booleans(), st.integers(), TRICKY_TEXT), max_size=4),
)
RECORDS = st.lists(
    st.builds(
        lambda suite, rest: {"suite": suite, **rest},
        TRICKY_TEXT,
        st.dictionaries(TRICKY_TEXT.filter(lambda key: key != "suite"), VALUES, max_size=4),
    ),
    max_size=5,
)


@given(RECORDS)
@example([])
@example([{"suite": 'a", {"suite": "b', "x": '}, {"suite": "c"}'}, {"suite": "\n"}])
def test_report_is_one_json_line_per_record(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "r.jsonl")
        emit_report(records, path)
        with open(path, encoding="utf-8", newline="") as handle:
            assert handle.read() == "".join(json.dumps(r) + "\n" for r in records)


@given(RECORDS, st.data())
def test_record_not_led_by_suite_is_refused_before_any_file_opens(records, data):
    stray = data.draw(st.sampled_from([{}, {"n": 1}, {"n": 1, "suite": "a"}]))
    records.insert(data.draw(st.integers(0, len(records))), stray)
    with tempfile.TemporaryDirectory() as tmp:
        out, table = os.path.join(tmp, "r.jsonl"), os.path.join(tmp, "r.csv")
        with pytest.raises(ValueError, match='first key is "suite"'):
            emit_report(records, out, table)
        assert os.listdir(tmp) == []


def test_read_tuple_file_validates_count(tmp_path):
    path = tmp_path / "tuple.txt"
    path.write_text("2 2\nx1^2\n")
    with pytest.raises(ValueError):
        read_tuple_file(str(path))


def test_read_form_file_validates_header(tmp_path):
    path = tmp_path / "form.txt"
    path.write_text("2\ny1^2\n")
    with pytest.raises(ValueError):
        read_form_file(str(path))


@pytest.mark.parametrize("header", ["a b", "2 1.5"])
def test_non_integer_header_names_the_file(tmp_path, capsys, header):
    path = tmp_path / "tuple.txt"
    path.write_text(f"{header}\nx1^2\nx2^2\n")
    code, out, err = run_main(["assoc", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: header must be two integers, got {header!r}\n"


def test_run_suite_dispatch_matches_main(tmp_path):
    cfg = RunConfig(command="tangent", n=2, d=2, trials=2, seed=11)
    records = run_suite(cfg)
    assert len(records) == 2
    assert all(r["suite"] == "tangent" for r in records)


IDENTITY_RANGES = ["--max-p", "--max-r", "--max-n", "--max-m", "--max-nd"]


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("tangent", "--trials", -1),
        ("relations", "--jobs", 0),
        ("koszul", "--seed", -1),
        ("tangent", "--seed", 2**64),
        ("tangent", "--n", 1),
        ("relations", "--n", 1),
        ("koszul", "--d", 1),
        ("tangent", "--coeff-bound", 0),
        ("tangent", "--coeff-bound", 2**63),
        *[("identities", flag, -1) for flag in IDENTITY_RANGES],
    ],
)
def test_run_suite_refuses_what_main_refuses(capsys, command, flag, value):
    # The library call raises the error that main reports as its one
    # usage-error line, so the two share one contract and one message.
    # With no trial to run, nothing but the contract can refuse the input.
    flags = {} if command == "identities" else {"--n": 4, "--d": 2, "--trials": 0}
    flags[flag] = value
    cfg = RunConfig(command, **{f[2:].replace("-", "_"): v for f, v in flags.items()})
    with pytest.raises(ValueError) as refused:
        run_suite(cfg)
    assert flag in str(refused.value)
    args = [command] + [str(x) for item in flags.items() for x in item]
    assert run_main(args, capsys) == (2, "", f"error: {refused.value}\n")


def test_internal_error_exits_3_with_one_line(monkeypatch, capsys):
    import apolar.cli as cli

    def broken(form):
        raise AssertionError("invariant broken")

    monkeypatch.setattr(cli, "tangent_dim", broken)
    code, out, err = run_main(["tangent", "--n", "2", "--d", "2", "--trials", "1"], capsys)
    assert code == 3
    assert out == ""
    assert err == "internal error: AssertionError: invariant broken\n"



@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_unwritable_report_path_is_an_input_error(tmp_path, capsys, flag):
    # Every destination is opened before any is written, so no record
    # reaches stdout, and an unwritable --csv leaves no --out file behind.
    target = tmp_path / "missing" / "report"
    args = ["tangent", "--n", "2", "--d", "2", "--trials", "1", flag, str(target)]
    code, out, err = run_main(args, capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert not target.exists()
    if flag == "--csv":
        report = tmp_path / "rep.jsonl"
        code, out, err = run_main(args + ["--out", str(report)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert not report.exists()


def test_unwritable_out_leaves_the_csv_path_as_it_was(tmp_path, capsys):
    # The CSV is opened first: when --out then fails, a CSV file the call
    # created is removed, and one that was there already keeps its bytes
    # until a run that writes both replaces them.
    csv_path = tmp_path / "ok.csv"
    args = ["tangent", "--n", "2", "--d", "2", "--trials", "1", "--csv", str(csv_path)]
    missing = ["--out", str(tmp_path / "missing" / "x.jsonl")]
    code, out, err = run_main(args + missing, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert not csv_path.exists()
    old = "an older and longer summary\n" * 3
    csv_path.write_text(old)
    assert run_main(args + missing, capsys)[0] == 2
    assert csv_path.read_text() == old
    assert run_main(args + ["--out", str(tmp_path / "r.jsonl")], capsys)[0] == 0
    assert csv_path.read_text().splitlines() == ["suite,records,passed,failed", "tangent,1,1,0"]


def test_coeff_bound_past_one_draw_is_an_input_error(capsys):
    """2^63 asks for 2^64 + 1 values, more than one 64-bit draw covers."""
    args = ["tangent", "--n", "2", "--d", "2", "--trials", "1", "--coeff-bound"]
    assert run_main(args + [str(2**63 - 1)], capsys)[0] == 0
    code, out, err = run_main(args + [str(2**63)], capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


def recording_pool(monkeypatch, cpus):
    """Stand in a Pool that records its size and maps in this process, and
    report `cpus` CPUs; no worker process starts."""
    import apolar.cli as cli

    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, worker, tasks):
            return [worker(t) for t in tasks]

    monkeypatch.setattr(cli, "Pool", RecordingPool)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    return sizes


# Four CPUs: the last case is bound by them, the others by the trial count.
@pytest.mark.parametrize("trials, jobs, size", [(2, 64, 2), (3, 2, 2), (6, 64, 4)])
def test_worker_pool_is_no_larger_than_the_trial_count(monkeypatch, capsys, trials, jobs, size):
    sizes = recording_pool(monkeypatch, 4)
    args = ["tangent", "--n", "2", "--d", "2", "--trials", str(trials), "--jobs", str(jobs)]
    code, out, err = run_main(args, capsys)
    assert code == 0
    assert sizes == [size]
    assert len(out.splitlines()) == trials


@pytest.mark.parametrize("cpus", [1, None])
def test_one_cpu_runs_the_trials_without_a_pool(monkeypatch, capsys, cpus):
    # os.cpu_count() is None when the count cannot be determined.
    sizes = recording_pool(monkeypatch, cpus)
    args = ["tangent", "--n", "2", "--d", "2", "--trials", "3", "--jobs", "5000"]
    code, out, err = run_main(args, capsys)
    assert code == 0
    assert sizes == []
    assert len(out.splitlines()) == 3


def test_cli_defaults_are_the_run_config_defaults():
    from apolar.cli import _build_parser, config_from_args

    args = _build_parser().parse_args(["tangent", "--n", "2", "--d", "2"])
    assert config_from_args(args) == RunConfig("tangent", n=2, d=2)
    args = _build_parser().parse_args(["identities"])
    assert config_from_args(args) == RunConfig("identities")


def test_main_calls_share_one_parser(monkeypatch, capsys):
    import argparse

    from apolar.cli import _build_parser

    used = []
    parse = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        used.append(self)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    for _ in range(2):
        assert run_main(["tangent", "--n", "2", "--d", "2", "--trials", "1"], capsys)[0] == 0
    assert len(used) == 2 and used[0] is used[1] is _build_parser()


def test_main_calls_leave_no_cyclic_garbage(tmp_path, capsys):
    import argparse
    import gc

    from apolar import FormTuple, Polynomial
    from apolar.ci import GradedQuotient

    args = ["tangent", "--n", "3", "--d", "5", "--coeff-bound", "5", "--trials", "1"]
    args += ["--out", str(tmp_path / "out.jsonl")]
    for seed in range(2):
        assert main([*args, "--seed", str(seed)]) == 0
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for seed in range(2, 7):
            assert main([*args, "--seed", str(seed)]) == 0
        gc.collect()
        kinds = (argparse.ArgumentParser, FormTuple, GradedQuotient, Polynomial)
        left = [type(x).__name__ for x in gc.garbage if isinstance(x, kinds)]
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
        if enabled:
            gc.enable()
    capsys.readouterr()
    assert left == []

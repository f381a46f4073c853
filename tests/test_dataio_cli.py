import contextlib
import csv
import hashlib
import io
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import format_csv, random_circuit
from qummsa import analysis
from qummsa import circuit as circuit_module
from qummsa import cli, dataio
from qummsa import simplify as simplify_module
from qummsa.analysis import failure_contour_grid
from qummsa.circuit import export_circuit, run_circuit
from qummsa.cli import main
from qummsa.dataio import load_database, parse_database, titanic_database
from qummsa.driver import Database
from qummsa.errors import DataError
from qummsa.grover_long import SearchParams, compute_params, run_grover_long
from qummsa.oracles import MarkedSet, build_multi_oracle
from qummsa.statevector import make_basis_state, make_superposition

EQ8_CSV = "label,value\na,0\nb,2\nc,3\n"


def test_titanic_fixture_shape(titanic):
    assert titanic.size == 36
    assert titanic.n == 6
    assert min(titanic.values) == 1
    assert max(titanic.values) == 63


def test_titanic_minimum_record(titanic):
    by_value = dict(zip(titanic.values, titanic.labels))
    assert by_value[1] == "Panula, Master. Eino Viljami"
    assert by_value[47] == "Gee, Mr. Arthur H"


def test_titanic_encodings_bit_exact(titanic):
    expected = {
        47: "101111", 62: "111110", 15: "001111", 7: "000111", 59: "111011",
        27: "011011", 9: "001001", 21: "010101", 12: "001100", 45: "101101",
        19: "010011", 28: "011100", 46: "101110", 29: "011101", 5: "000101",
        1: "000001", 63: "111111", 25: "011001", 41: "101001", 30: "011110",
        4: "000100", 44: "101100", 20: "010100", 43: "101011", 57: "111001",
        6: "000110", 13: "001101", 61: "111101", 60: "111100", 17: "010001",
        22: "010110", 14: "001110", 3: "000011", 31: "011111", 11: "001011",
        23: "010111",
    }
    assert set(titanic.values) == set(expected)
    for value in titanic.values:
        assert format(value, "06b") == expected[value]


def test_load_single_row():
    db = parse_database("label,value\nx,0\n")
    assert db.n == 1 and db.size == 1


def test_auto_qubit_count_prefers_tight_fit():
    assert parse_database("label,value\na,0\nb,1\nc,2\nd,3\n").n == 2
    assert parse_database("label,value\na,0\nb,63\n").n == 6


def test_duplicate_value_rejected():
    with pytest.raises(DataError, match="line 3.*duplicate value 7"):
        parse_database("label,value\na,7\nb,7\n")


def test_malformed_row_reports_line():
    with pytest.raises(DataError, match="line 3"):
        parse_database("label,value\na,1\nb,two\n")


@pytest.mark.parametrize(
    "text,message",
    [
        ('label,value\n"a\nb",1\nc,x\n', "line 4: value 'x' is not an integer"),
        ('label,value\n"a\nb",1\nc\r,x\n', "line 4: new-line character seen in unquoted field"),
        ('label,value\n"a\nb",1\nc,1\n', "line 4: duplicate value 1 (first seen on line 3)"),
    ],
)
def test_row_messages_name_physical_lines_after_a_quoted_newline(text, message):
    # the quoted label spans lines 2 and 3, so the next record sits on line 4
    with pytest.raises(DataError) as exc:
        parse_database(text)
    assert message in str(exc.value)


def test_bad_header_rejected():
    with pytest.raises(DataError, match="header"):
        parse_database("name,age\na,1\n")


def test_empty_file_rejected():
    with pytest.raises(DataError):
        parse_database("")
    with pytest.raises(DataError, match="no records"):
        parse_database("label,value\n")


def test_explicit_n_too_small():
    with pytest.raises(DataError, match="too small"):
        parse_database("label,value\na,12\n", n=2)


def test_negative_value_rejected():
    with pytest.raises(DataError, match="negative"):
        parse_database("label,value\na,-3\n")


def test_load_database_from_stream():
    db = load_database(io.StringIO(EQ8_CSV))
    assert db.values.tolist() == [0, 2, 3] and db.n == 2
    # a binary stream's bytes take the file's UTF-8 check, named by the stream
    for data in (EQ8_CSV.encode(), EQ8_CSV.encode("utf-8-sig")):
        assert load_database(io.BytesIO(data)) == db
    latin1 = io.BytesIO("label,value\nJos\xe9,3\n".encode("latin-1"))
    with pytest.raises(DataError, match=r"^<stream>: not UTF-8 text \(invalid continuation byte at byte 15\)$"):
        load_database(latin1)
    latin1.seek(0)
    latin1.name = "ages.csv"
    with pytest.raises(DataError, match=r"^ages\.csv: not UTF-8 text .* at byte 15\)$"):
        load_database(latin1)


def test_format_csv_stamp():
    # the CLI's one CSV writer: stamp, header, then rows given as fields or as text
    lines = list(cli._csv(["demo", "--x", "1"], ("a", "b"), [(1, "01"), "2,10\n", (3, 0.1)]))
    assert lines == ["# invocation: qummsa demo --x 1\n", "a,b\n", "1,01\n", "2,10\n", "3,0.1\n"]
    assert list(cli._csv(["demo"], ("a", "b"), [])) == ["# invocation: qummsa demo\n"]


# --- CLI ---------------------------------------------------------------------


def test_cli_sample_size(capsys):
    assert main(["sample-size", "--confidence", "0.95", "--error", "0.05"]) == 0
    assert capsys.readouterr().out.strip() == "385"


def test_cli_sample_size_other_cells(capsys):
    main(["sample-size", "--confidence", "0.99", "--error", "0.05"])
    assert capsys.readouterr().out.strip() == "664"
    main(["sample-size", "--confidence", "0.5", "--error", "0.1"])
    assert capsys.readouterr().out.strip() == "12"
    # Z^2 sigma^2 / E^2 rounds to 0: a sample still holds one value
    assert main(["sample-size", "--confidence", "0.5", "--error", "0.5", "--sigma2", "5e-324"]) == 0
    assert capsys.readouterr() == ("1\n", "")


def test_cli_build_oracle_then_simulate(tmp_path, capsys):
    oracle = tmp_path / "oracle.qc"
    dataset = tmp_path / "three.csv"
    dataset.write_text(EQ8_CSV)
    rc = main([
        "build-oracle", "--n", "2", "--marked", "2,3",
        "--phi", "1.5707963", "--simplify", "--out", str(oracle),
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["marked_count"] == 2
    assert report["n_two_qubit_equiv"] == 1  # one bare phase on the high qubit

    rc = main([
        "simulate", str(oracle), "--initial", f"db:{dataset}", "--grover-long",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    rows = [line.split(",") for line in out.splitlines() if line and not line.startswith("#")]
    probs = {int(r[0]): float(r[2]) for r in rows[1:]}
    assert probs[2] + probs[3] == pytest.approx(1 - 0.037, abs=1e-3)


def test_cli_simulate_plain_circuit(tmp_path, capsys):
    qc = tmp_path / "flip.qc"
    qc.write_text("qubits: 1\nX 0 | controls:\n")
    assert main(["simulate", str(qc), "--initial", "basis:0"]) == 0
    out = capsys.readouterr().out
    assert "1,1,1.0" in out


def test_cli_find_min_deterministic(tmp_path, capsys):
    dataset = tmp_path / "small.csv"
    dataset.write_text("label,value\na,9\nb,4\nc,12\nd,6\n")
    argv = ["find-min", str(dataset), "--c", "2", "--trials", "20", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second  # identical argv + seed -> byte-identical output
    payload = json.loads(first)
    assert payload["aggregate"]["target_value"] == 4
    assert payload["aggregate"]["target_frequency"] >= 0.8


def test_cli_find_max(tmp_path, capsys):
    dataset = tmp_path / "small.csv"
    dataset.write_text("label,value\na,9\nb,4\nc,12\nd,6\n")
    assert main(["find-max", str(dataset), "--trials", "10", "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["aggregate"]["target_value"] == 12


def test_cli_find_min_titanic_shortcut(capsys):
    assert main(["find-min", "titanic", "--trials", "5", "--seed", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["database"]["size"] == 36
    assert payload["aggregate"]["target_value"] == 1


def test_cli_baseline_dha(tmp_path, capsys):
    dataset = tmp_path / "small.csv"
    dataset.write_text("label,value\na,9\nb,4\nc,12\nd,6\n")
    assert main(["baseline-dha", str(dataset), "--trials", "5", "--seed", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["aggregate"]["target_value"] == 4
    assert payload["aggregate"]["mean_preparations"] > 0


def test_cli_failure_map(capsys):
    assert main(["failure-map", "--resolution", "10"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("# invocation: qummsa failure-map")
    assert lines[1] == "ratio_true,ratio_est,eps_gl"
    assert len(lines) == 2 + 100


def test_cli_failure_map_matches_repr_rendering(capsys):
    # the CSV the command writes row by row is the DictWriter rendering of
    # the grid, with every float as its repr
    assert main(["failure-map", "--resolution", "16"]) == 0
    out = capsys.readouterr().out
    axis, grid = failure_contour_grid(16)
    rows = [
        {"ratio_true": repr(float(rt)), "ratio_est": repr(float(re_)), "eps_gl": repr(float(grid[i, j]))}
        for i, rt in enumerate(axis)
        for j, re_ in enumerate(axis)
    ]
    expected = format_csv(rows, "qummsa failure-map --resolution 16")
    assert out.splitlines() == expected.splitlines()
    assert out == expected


@pytest.mark.parametrize("seed", range(4))
def test_cli_simulate_matches_dictwriter_rendering(seed, tmp_path, monkeypatch, capsys):
    # the rows the command streams are the DictWriter rendering of the
    # distribution, with every probability as its repr
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    circuit = random_circuit(n, int(rng.integers(0, 12)), rng)
    (tmp_path / "c.qc").write_text(export_circuit(circuit) + "\n")
    values = rng.choice(2**n, size=int(rng.integers(1, 2**n + 1)), replace=False).tolist()
    (tmp_path / "d.csv").write_text("label,value\n" + "".join(f"v{v},{v}\n" for v in values))
    k = int(rng.integers(2**n))
    starts = [
        ("uniform", make_superposition(n, range(2**n))),
        (f"basis:{k}", make_basis_state(n, k)),
        ("db:d.csv", make_superposition(n, values)),
    ]
    for initial, state in starts:
        argv = ["simulate", "c.qc", "--initial", initial]
        assert main(argv) == 0
        out = capsys.readouterr().out
        rows = [
            {"index": i, "bitstring": format(i, f"0{n}b"), "probability": f"{float(p)!r}"}
            for i, p in enumerate(run_circuit(circuit, state).probabilities())
        ]
        assert out == format_csv(rows, "qummsa " + " ".join(argv)), initial


def test_cli_failure_curves(capsys):
    assert main(["failure-curves", "--E", "0.05,0.15", "--points", "8", "--draws", "40"]) == 0
    out = capsys.readouterr().out
    header = out.splitlines()[1]
    assert "eps_gl_E0.05" in header and "eps_gl_E0.15" in header and "eps_qesa" in header


def test_cli_complexity(capsys):
    assert main(["complexity", "--nmin", "2^8", "--nmax", "2^12"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("log2_N,N,")
    assert len(lines) == 2 + 5  # k = 8..12


def test_cli_complexity_starts_at_nmin(capsys):
    assert main(["complexity", "--nmin", "3", "--nmax", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[1] for line in lines[2:]] == ["4", "8"]


def test_cli_complexity_without_rows_prints_the_stamp_only(capsys):
    # no power of two lies in [5, 7]: the stamp line, and no header
    assert main(["complexity", "--nmin", "5", "--nmax", "7"]) == 0
    assert capsys.readouterr().out == "# invocation: qummsa complexity --nmin 5 --nmax 7\n"


def test_cli_complexity_largest_size(capsys):
    # the last row below the refused --nmax 2^1023 is N = 2^1022, every column finite
    assert main(["complexity", "--nmin", "2^1022", "--nmax", str(2**1023 - 1)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and lines[2].startswith("1022,") and "inf" not in lines[2]


def test_cli_exit_codes(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    capsys.readouterr()

    assert main(["find-min", str(tmp_path / "missing.csv")]) == 2
    capsys.readouterr()

    bad = tmp_path / "dupe.csv"
    bad.write_text("label,value\na,7\nb,7\n")
    assert main(["find-min", str(bad)]) == 2


@pytest.mark.parametrize(
    "argv,code",
    [
        (["sample-size", "--confidence", "1.5", "--error", "0.05"], 1),
        (["complexity", "--eps", "1.0"], 1),
        (["failure-map", "--resolution", "5"], 1),
        (["baseline-dha", "titanic", "--lam", "2"], 1),
        (["build-oracle", "--n", "3", "--threshold-le", "9", "--phi", "1"], 2),
        (["failure-curves", "--E", "abc"], 1),
        (["failure-curves", "--E", "0"], 1),
        (["failure-curves", "--E", "2"], 1),
        (["failure-curves", "--E", ","], 1),
        (["failure-curves", "--sigma2", "-1"], 1),
        (["failure-curves", "--sigma2", "nan"], 1),
        (["sample-size", "--confidence", "0.95", "--error", "0.05", "--sigma2", "-1"], 1),
        (["sample-size", "--confidence", "0.95", "--error", "0.05", "--z", "-1"], 1),
        (["complexity", "--nmin", "0"], 1),
        (["complexity", "--nmin", "1024", "--nmax", "16"], 1),
        (["complexity", "--nmax", "-4"], 1),
        (["build-oracle", "--n", "3", "--marked", "1", "--phi", "nan"], 1),
        (["simulate", "two.qc", "--initial", "basis:x"], 2),
        (["simulate", "two.qc", "--initial", "basis:4"], 2),
        (["complexity", "--nmax", "2^1024"], 1),
        (["complexity", "--nmin", "2^1022", "--nmax", "2^1023"], 1),
        (["sample-size", "--confidence", "0.9", "--error", "0.01", "--sigma2", "1e308"], 1),
        (["sample-size", "--confidence", "0.9", "--error", "1e-200"], 1),
        (["find-min", "titanic", "--sample-size", "5"], 1),
        (["find-max", "titanic", "--strategy", "uniform", "--sample-size", "5"], 1),
        (["simulate", "two.qc", "--iterations", "2"], 1),
        (["failure-map", "--resolution", "2049"], 1),
        (["failure-curves", "--draws", "1000001"], 1),
        (["failure-curves", "--points", "100001"], 1),
        # 71 qubits: the uniform estimate tunes J = 15,580,417,902 at d0 = 5
        *((["find-min", "wide4.csv", "--seed", str(seed)], 0) for seed in range(1, 6)),
        (["simulate", "two.qc", "--initial", "basis:" + "9" * 5000], 2),
        (["simulate", "two.qc", "--initial", "basis:" + "0" * 5000 + "3"], 0),
        (["find-min", "titanic", "--seed", "-1"], 1),
        (["find-max", "titanic", "--seed", "-4"], 1),
        (["baseline-dha", "titanic", "--seed", "-2"], 1),
        (["failure-curves", "--seed", "-1"], 1),
        (["find-min", "."], 2),
        (["simulate", "."], 2),
        (["complexity", "--out", "."], 2),
        # a 200,000-character label is past csv.field_size_limit(), quoted or not
        (["find-min", "long.csv"], 2),
        (["find-min", "long-quoted.csv"], 2),
        # --n reaches the bundled dataset as it does a CSV path
        (["find-min", "titanic", "--n", "3"], 2),
        (["find-min", "titanic", "--n", "40", "--seed", "1"], 0),
        # h = Z^2 sigma^2 / E^2 past the 2^63 - 1 trials a binomial draw takes,
        # E^2 underflowing to 0, and Z^2 sigma^2 overflowing to inf
        (["failure-curves", "--E", "1e-10"], 1),
        (["failure-curves", "--sigma2", "1e20"], 1),
        (["failure-curves", "--E", "1e-300"], 1),
        (["failure-curves", "--sigma2", "1e308"], 1),
        # and the quotient rounding to 0, which once estimated a ratio of 1/0
        (["failure-curves", "--sigma2", "5e-324", "--confidence", "0.5", "--points", "2", "--draws", "2"], 0),
        # one --E value past cli.CURVES_MAX_ERRORS
        (["failure-curves", "--E", ",".join(f"{k / 1000}" for k in range(1, 34))], 1),
        # the uniform estimate 2/2^1100 rounds to 0.0, and tuning to it divided by 0
        (["find-min", "titanic", "--n", "1100"], 2),
        # --n past cli.QUBITS_MAX: 2^14285 was the widest cost report JSON could print
        (["build-oracle", "--n", "14286", "--marked", "1", "--phi", "1.0"], 1),
        (["build-oracle", "--n", "8192", "--marked", "1", "--phi", "1.0"], 0),
        (["find-max", "titanic", "--n", "8193"], 1),
        (["baseline-dha", "titanic", "--n", "100000"], 1),
        # one trial past cli.TRIALS_MAX
        (["find-min", "titanic", "--trials", "1000001"], 1),
        # one past cli.CONFIRMATIONS_MAX and cli.RETRY_CAP_MAX
        (["find-min", "titanic", "--c", "1001"], 1),
        (["find-max", "titanic", "--c", "1001"], 1),
        (["find-min", "titanic", "--retry-cap", "1001"], 1),
        (["find-max", "titanic", "--retry-cap", "1001"], 1),
        # one past cli.ITERATIONS_MAX, and the cap on a 2-qubit oracle
        (["simulate", "oracle.qc", "--grover-long", "--iterations", "10001"], 1),
        (["simulate", "oracle.qc", "--grover-long", "--iterations", "10000"], 0),
    ],
)
def test_cli_out_of_range_arguments(argv, code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "two.qc").write_text("qubits: 2\nX 0 | controls:\n")
    (tmp_path / "oracle.qc").write_text("qubits: 2\nPHASE(3.141592653589793) 0 | controls: +q1\n")
    (tmp_path / "wide4.csv").write_text(
        f"label,value\na,5\nb,{2**63 - 1}\nc,{2**63 + 1}\nd,{2**70}\n"
    )
    (tmp_path / "long.csv").write_text("label,value\na,1\n" + "b" * 200_000 + ",2\n")
    (tmp_path / "long-quoted.csv").write_text('label,value\na,1\n"' + "b" * 200_000 + '",2\n')
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    err = capsys.readouterr().err
    assert got == code
    assert "Traceback" not in err and ("error:" in err) == (code != 0)


@pytest.mark.parametrize(
    "argv",
    [["find-min", "titanic", "--sample-size", "5"], ["complexity", "--nmin", "1024", "--nmax", "16"]],
)
def test_cli_checks_after_parsing_show_the_command_usage(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert f"usage: qummsa {argv[0]} " in err
    assert f"qummsa {argv[0]}: error: " in err


def run_traced(argv):
    """Exit code and peak traced allocation (bytes) of one CLI call."""
    tracemalloc.start()
    try:
        try:
            code = main(argv)
        except SystemExit as exc:  # usage errors leave through argparse
            code = exc.code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, peak


def test_cli_refuses_a_huge_power_before_computing_it(capsys):
    # 3^10000000 has about 16 million bits; only its exponent is looked at
    code, peak = run_traced(["complexity", "--nmax", "3^10000000"])
    err = capsys.readouterr().err
    assert code == 1
    assert "an integer or 2^k in [1, 2^1023)" in err and "Traceback" not in err
    assert peak < 2**20


def test_cli_failure_map_streams_its_rows(tmp_path, capsys):
    # about 11 MB of CSV text, written one grid row at a time: what is held at
    # once is the 2 MiB grid and one row of text
    out = tmp_path / "map.csv"
    code, peak = run_traced(["failure-map", "--resolution", "512", "--out", str(out)])
    assert code == 0 and capsys.readouterr().out == ""
    assert peak < 16 * 2**20
    with out.open() as fh:
        assert sum(1 for _ in fh) == 2 + 512**2


def test_cli_failure_curves_hold_8_bytes_a_point_per_curve(tmp_path, capsys):
    # each --E value past the first adds one float column of --points values;
    # rows of dicts took about 220 B a point and curve
    def peak(errors):
        out = tmp_path / f"curves{len(errors)}.csv"
        argv = ["failure-curves", "--points", "5000", "--draws", "1", "--E", ",".join(errors),
                "--out", str(out)]
        code, traced = run_traced(argv)
        assert code == 0 and capsys.readouterr().out == ""
        return traced

    errors = [f"{k / 100}" for k in range(1, cli.CURVES_MAX_ERRORS + 1)]
    one = peak(errors[:1])
    assert peak(errors) - one <= 31 * 5000 * 16


def test_cli_failure_curves_refuses_too_many_errors(capsys):
    argv = ["failure-curves", "--E", ",".join(["0.1"] * (cli.CURVES_MAX_ERRORS + 1))]
    code, peak = run_traced(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert f"--E takes at most {cli.CURVES_MAX_ERRORS} values, got 33" in err and "Traceback" not in err
    assert peak < 2**20


def test_cli_failure_curves_computes_a_repeated_error_once(capsys):
    # only the printed curves: a repeated --E keeps its first column and its last stream
    argv = ["failure-curves", "--E", "0.1,0.2,0.1,0.1", "--points", "5", "--draws", "10"]
    with mock.patch.object(analysis, "sampled_failure_curve", wraps=analysis.sampled_failure_curve) as curve:
        assert main(argv) == 0
    assert curve.call_count == 2
    assert capsys.readouterr().out.splitlines()[1] == "ratio,eps_gl_E0.1,eps_gl_E0.2,qesa_t,eps_qesa"


def test_cli_trials_hold_a_row_a_trial(tmp_path, capsys):
    # the JSON is written as the encoder yields it, from one seed stream spawned
    # per trial: what each trial adds is its row; the whole text and a list of
    # seed sequences took about 1.9 KB a trial
    def peak(trials):
        out = tmp_path / f"dha{trials}.json"
        code, traced = run_traced(["baseline-dha", "titanic", "--trials", str(trials), "--out", str(out)])
        assert code == 0 and capsys.readouterr().out == ""
        return traced

    assert peak(2000) - peak(200) <= 1800 * 600


@settings(max_examples=100)
@given(st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
))
def test_json_chunks_join_to_json_dumps(obj):
    assert "".join(cli._json(obj)) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_cli_simulate_streams_its_rows(tmp_path, monkeypatch, capsys):
    # 2^16 rows, about 2.7 MB of CSV text: what is held at once is the state,
    # its probabilities as floats and one row of text, not a dict per row
    monkeypatch.chdir(tmp_path)
    assert main(["build-oracle", "--n", "16", "--threshold-le", "9000", "--phi", "1",
                 "--simplify", "--out", "o.qc"]) == 0
    capsys.readouterr()
    code, peak = run_traced(["simulate", "o.qc", "--out", "dist.csv"])
    assert code == 0 and capsys.readouterr().out == ""
    assert peak < 12 * 2**20
    with (tmp_path / "dist.csv").open() as fh:
        assert sum(1 for _ in fh) == 2 + 2**16


def test_cli_simplified_oracle_emits_only_its_cubes(tmp_path, monkeypatch, capsys):
    # the raw oracle of 65,534 indices is made from its cubes, so the only
    # gates built are the simplified output's, once, as it is written out;
    # the bytes were recorded when every raw gate was built (27.8 MiB peak)
    monkeypatch.chdir(tmp_path)
    argv = ["build-oracle", "--n", "16", "--threshold-ge", "2", "--phi", "1.0", "--simplify", "--out", "o.qc"]
    with (mock.patch.object(circuit_module, "emit_fragment", wraps=circuit_module.emit_fragment) as emit,
          mock.patch.object(simplify_module, "emit_fragment", side_effect=AssertionError("emitted"))):
        code, peak = run_traced(argv)
    assert code == 0
    output = simplify_module.simplify_all(build_multi_oracle(MarkedSet(16, frozenset(range(2, 2**16))), 1.0))
    assert [call.args for call in emit.call_args_list] == [(frag,) for frag in output.runs[0][1]]
    assert len(emit.call_args_list) == 15
    assert peak < 20 * 2**20
    assert hashlib.sha256((tmp_path / "o.qc").read_bytes()).hexdigest() == (
        "e0a5302c092cad103ba334ebca69d6cf7236854b19cd20f453f7299f036ef8f2")
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == (
        "c0582a9e7834e2207b4d0c68417fb73a2340eee82ce6f324a62f1ecb6c8a76bc")


@pytest.mark.parametrize(
    "flags", [["--threshold-ge", "0"], ["--threshold-le", str(2**40 - 1)]]
)
def test_cli_build_oracle_refuses_huge_threshold(flags, capsys):
    # 2^40 marked indices: refused before the marked set is listed
    code, peak = run_traced(["build-oracle", "--n", "40", *flags, "--phi", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "1099511627776 indices" in err and "Traceback" not in err
    assert peak < 2**20


@pytest.mark.parametrize(
    "flags,limit", [([], cli.SIMULATE_MAX_QUBITS), (["--grover-long"], cli.SIMULATE_MAX_QUBITS)]
)
def test_cli_simulate_refuses_huge_register(tmp_path, flags, limit, capsys):
    qc = tmp_path / "wide.qc"
    qc.write_text(f"qubits: {limit + 1}\nX 0 | controls:\n")
    code, peak = run_traced(["simulate", str(qc), *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert f"at most {limit} qubits" in err and "Traceback" not in err
    assert peak < 2**20


def test_cli_simulate_refuses_a_huge_qc_header_before_any_mask(tmp_path, capsys):
    # a mask is a Python int: this control alone would be a 125 GB shift
    qc = tmp_path / "huge.qc"
    qc.write_text("qubits: 1000000000000\nX 0 | controls: +q999999999999\n")
    code, peak = run_traced(["simulate", str(qc)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 1" in err and "Traceback" not in err
    assert peak < 2**20


@pytest.mark.parametrize(
    "text,line",
    [
        ("qubits: {big}\nX 0 | controls:\n", 1),
        ("qubits: 3\nX 0 | controls:\nX {big} | controls:\n", 3),
        ("qubits: 3\n\nH 1 | controls:\nX 0 | controls: +q1 -q{big}\n", 4),
    ],
    ids=["header", "target", "control"],
)
def test_cli_simulate_refuses_a_number_too_long_for_int(tmp_path, text, line, capsys):
    # 5,000 digits: past Python's int-string limit, refused before int() sees them
    qc = tmp_path / "long.qc"
    qc.write_text(text.format(big="9" * 5000))
    assert main(["simulate", str(qc)]) == 2
    err = capsys.readouterr().err
    assert f"line {line}: 5000-digit number is out of range" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command,name,text",
    [
        ("find-min", "latin1.csv", "label,value\nJos\xe9,3\n"),
        ("simulate", "latin1.qc", "# \xe9\nqubits: 1\nX 0 | controls:\n"),
    ],
    ids=["dataset", "circuit"],
)
def test_cli_refuses_a_file_that_is_not_utf8(tmp_path, command, name, text, capsys):
    # Latin-1 bytes: the file exists but is not UTF-8 text
    path = tmp_path / name
    path.write_bytes(text.encode("latin-1"))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: not UTF-8 text" in err and "Traceback" not in err


def test_cli_simulate_runs_at_its_qubit_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "SIMULATE_MAX_QUBITS", 3)
    qc = tmp_path / "flip.qc"
    qc.write_text("qubits: 3\nX 0 | controls:\n")
    assert main(["simulate", str(qc), "--initial", "basis:0"]) == 0
    assert "1,001,1.0" in capsys.readouterr().out
    qc.write_text("qubits: 4\nX 0 | controls:\n")
    assert main(["simulate", str(qc)]) == 2


def test_cli_simulate_uniform_initial_state_is_one_array():
    # the register make_superposition builds from range(2^n), without a set of 2^n ints
    for n in range(1, 13):
        want = make_superposition(n, range(2**n)).amps.tobytes()
        assert cli._initial_state("uniform", n).amps.tobytes() == want
    n = 16
    tracemalloc.start()
    try:
        state = cli._initial_state("uniform", n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.n == n and peak < 1.25 * 16 * 2**n, peak  # the 16 B amplitudes and a little more


def test_cli_simulate_grover_long_above_the_dense_cap(tmp_path, monkeypatch, capsys):
    # 13 qubits: one more than circuit_to_matrix lowers
    monkeypatch.chdir(tmp_path)
    n, d0, phi = 13, 3000, 1.1
    assert main(["build-oracle", "--n", str(n), "--threshold-le", str(d0), "--phi", str(phi),
                 "--simplify", "--out", "o.qc"]) == 0
    capsys.readouterr()
    assert main(["simulate", "o.qc", "--grover-long"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]  # after the stamp and the header
    probs = np.array([float(row.split(",")[2]) for row in rows])
    marked = MarkedSet(n, frozenset(range(d0 + 1)))
    tuned = compute_params(marked.size, 2**n)
    params = SearchParams(marked.size, 2**n, tuned.beta, phi, tuned.iterations)
    expected = run_grover_long(make_superposition(n, range(2**n)), marked, params, mode="rank1")
    np.testing.assert_allclose(probs, expected.probabilities(), rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "gates", ["H 0 | controls:\n", "X 0 | controls:\nX 0 | controls:\n"], ids=["H", "XX"]
)
def test_cli_simulate_grover_long_refuses_non_phase_circuits(tmp_path, gates, capsys):
    # H is not diagonal; X X is, but it is made of no phase fragment
    qc = tmp_path / "c.qc"
    qc.write_text("qubits: 2\n" + gates)
    assert main(["simulate", str(qc), "--grover-long"]) == 2
    err = capsys.readouterr().err
    assert "needs a diagonal (phase oracle) circuit" in err and "Traceback" not in err


def test_cli_build_oracle_threshold(tmp_path, capsys):
    out = tmp_path / "thr.qc"
    assert main([
        "build-oracle", "--n", "6", "--threshold-le", "47",
        "--phi", "1.2", "--simplify", "--out", str(out),
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["marked_count"] == 48
    assert report["n_two_qubit_equiv"] == 3
    text = out.read_text()
    assert text.startswith("qubits: 6\n")


# --- ingest: byte-order mark, fast path, pinned outputs ----------------------


def test_byte_order_mark_accepted(tmp_path, capsys):
    assert parse_database("\ufeff" + EQ8_CSV).values.tolist() == [0, 2, 3]
    assert load_database(io.StringIO("\ufeff" + EQ8_CSV)).values.tolist() == [0, 2, 3]
    dataset = tmp_path / "bom.csv"
    dataset.write_text(EQ8_CSV, encoding="utf-8-sig")
    assert load_database(dataset).values.tolist() == [0, 2, 3]
    assert main(["find-min", str(dataset), "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["aggregate"]["target_value"] == 0
    with pytest.raises(DataError, match="header"):  # one mark is stripped, not two
        parse_database("\ufeff\ufeff" + EQ8_CSV)


def test_overlong_field_names_its_line():
    label = "b" * (csv.field_size_limit() + 1)
    for text in (f"label,value\na,1\n{label},2\n", f'label,value\na,1\n"{label}",2\n'):
        with pytest.raises(DataError, match=r"^t\.csv: line 3: field larger than field limit"):
            parse_database(text, source="t.csv")
    # at the limit the field is read, by the column pass as by csv
    label = label[:-1]
    assert parse_database(f"label,value\na,1\n{label},2\n").labels == ("a", label)


def test_fields_wider_in_bytes_than_the_limit_go_to_csv(tmp_path):
    # a field of limit characters in more bytes (multi-byte text, or a last
    # field before a CRLF's \r) is read by csv; one character more is refused
    limit = csv.field_size_limit()
    for row, longer, end in (
        ("\u00e9" * limit + ",2", "\u00e9" * (limit + 1) + ",2", "\n"),
        ("\u4e2d" * limit + ",2", "\u4e2d" * (limit + 1) + ",2", "\n"),
        ("b," + " " * (limit - 1) + "2", "b," + " " * limit + "2", "\r\n"),
    ):
        text = f"label,value{end}a,1{end}{row}{end}"
        want = row_by_row_parse(text)
        dataset = tmp_path / "wide.csv"
        dataset.write_bytes(text.encode("utf-8"))
        for got in (parse_database(text), load_database(dataset)):
            assert (got.labels, got.values.tolist(), got.n) == (want.labels, want.values.tolist(), want.n)
        with pytest.raises(DataError, match=r"^t\.csv: line 3: field larger than field limit"):
            parse_database(f"label,value{end}a,1{end}{longer}{end}", source="t.csv")


def test_titanic_takes_n(capsys):
    assert titanic_database(40).n == 40
    assert titanic_database(40).values.tolist() == titanic_database().values.tolist()
    assert main(["find-min", "titanic", "--n", "40", "--trials", "2", "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["database"]["n"] == 40
    assert main(["find-min", "titanic", "--n", "3"]) == 2
    assert "n=3 too small" in capsys.readouterr().err


def _plain_csv(path, count, n, seed):
    values = np.random.default_rng(seed).choice(2**n, size=count, replace=False).tolist()
    path.write_text("label,value\n" + "".join(f"v{i},{v}\n" for i, v in enumerate(values)))
    return values


def test_plain_file_takes_the_column_pass(tmp_path, monkeypatch):
    dataset = tmp_path / "plain.csv"
    _plain_csv(dataset, 4096, 18, seed=2018)
    want = row_by_row_parse(dataset.read_text())

    def refuse(*args, **kwargs):
        raise AssertionError("a plain file went through csv.reader")

    monkeypatch.setattr(csv, "reader", refuse)
    got = load_database(dataset)
    assert (got.labels, got.values.tolist(), got.n) == (want.labels, want.values.tolist(), want.n)
    assert got.sorted_values.tolist() == want.sorted_values.tolist()
    assert got.values.dtype == np.int64


def test_large_plain_file_loads_in_bounded_memory(tmp_path):
    # 2^18 rows in 2^30: the csv.reader ingest peaked at 80 MiB, the str column
    # pass at 46 MiB (186 B a row) and held 112 B a row; the byte pass keeps the
    # bytes and two int64 columns, and leaves the labels unbuilt
    rows = 2**18
    dataset = tmp_path / "large.csv"
    values = _plain_csv(dataset, rows, 30, seed=7)
    tracemalloc.start()
    try:
        db = load_database(dataset)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert db.values.tolist() == values and db.n == 30
    assert peak < 64 * 2**20
    assert held <= 48 * rows and peak <= 100 * rows, (held / rows, peak / rows)
    assert len(db.labels) == rows and db.labels[-2:] == (f"v{rows - 2}", f"v{rows - 1}")


def test_rows_past_the_cap_are_refused_before_any_column(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(dataio, "ROWS_MAX", 3)
    dataset = tmp_path / "rows.csv"
    dataset.write_text("label,value\na,1\nb,2\nc,3\n")
    assert load_database(dataset).size == 3  # at the cap, with or without the final newline
    assert parse_database("label,value\na,1\nb,2\nc,3").size == 3
    monkeypatch.setattr(dataio, "_column_pass", mock.Mock(side_effect=AssertionError("columns allocated")))
    for text in ("label,value\na,1\nb,2\nc,3\nd,4\n", "label,value\na,1\n\n\n\n"):
        with pytest.raises(DataError, match=r"^t\.csv: 4 rows after the header; at most 3 are read$"):
            parse_database(text, source="t.csv")
    dataset.write_text("label,value\na,1\nb,2\nc,3\n\"d\",4")
    assert main(["find-min", str(dataset)]) == 2
    err = capsys.readouterr().err
    assert "4 rows after the header; at most 3 are read" in err and "Traceback" not in err


def row_by_row_parse(text, n=None, source="<string>"):
    """Reference: the row-by-row ingest, with no column pass and no byte-order-mark strip."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise DataError(f"{source}: empty file")
    header = [h.strip().lower() for h in rows[0]]
    if header != ["label", "value"]:
        raise DataError(f"{source}: line 1: expected header 'label,value', got {rows[0]!r}")
    records = []
    seen = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise DataError(f"{source}: line {lineno}: expected 2 fields, got {len(row)}")
        label, raw = row[0], row[1].strip()
        try:
            value = int(raw)
        except ValueError:
            raise DataError(f"{source}: line {lineno}: value {raw!r} is not an integer") from None
        if value < 0:
            raise DataError(f"{source}: line {lineno}: value {value} is negative")
        if value in seen:
            raise DataError(
                f"{source}: line {lineno}: duplicate value {value} "
                f"(first seen on line {seen[value]}); data values must be distinct"
            )
        seen[value] = lineno
        records.append((label, value))
    if not records:
        raise DataError(f"{source}: no records")
    max_value = max(v for _, v in records)
    needed = max(1, max_value.bit_length(), math.ceil(math.log2(len(records))))
    if n is None:
        n = needed
    elif n < needed:
        raise DataError(
            f"{source}: n={n} too small: {len(records)} records with max value "
            f"{max_value} need at least {needed} qubits"
        )
    return Database([label for label, _ in records], [value for _, value in records], n)


_INTS = st.one_of(
    st.integers(0, 300), st.integers(-5, -1), st.integers(2**63 - 2, 2**63 + 2),
    st.integers(2**70 - 3, 2**70),
)
_SPACES = st.sampled_from(["", " ", "\t", " \t"])
_LABELS = st.text(alphabet='ab ,"\t\x00\x0b\u2028', max_size=4).map(
    lambda text: '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"') else text
)
_PLAIN_LABELS = st.text(alphabet="ab \t\x00\x0b\u2028", max_size=4)  # no quoting: the column pass's files


# ways to write a value int() reads: plain, zero-padded, digit-grouped, Arabic-Indic digits
_SPELLINGS = [
    str, str, "00{}".format, "{:_}".format,
    lambda v: str(v).translate(str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))),
]


@st.composite
def csv_texts(draw):
    """A header and rows: half the texts hold only well-formed rows of distinct values."""
    if draw(st.booleans()):
        values = draw(st.lists(_INTS.filter(lambda v: v >= 0), unique=True, min_size=1, max_size=20))
        value_texts = [draw(st.sampled_from(_SPELLINGS))(v) for v in values]
    else:
        pool = draw(st.lists(_INTS, min_size=1, max_size=12))
        bad = ["x", "1.5", "", "0x10", "+7", "1_0", "  ", "--3", "007", "\u0663", "\x1c7"]
        value_texts = draw(st.lists(st.sampled_from([str(v) for v in pool] + bad), max_size=20))
    headers = ["label,value"] * 6 + ["Label , VALUE", "\ufefflabel,value", "name,age"]
    lines = [draw(st.sampled_from(headers))]
    labels = draw(st.sampled_from([_LABELS, _PLAIN_LABELS]))
    kinds = draw(st.sampled_from([["row"] * 8 + ["one field", "three fields", "blank"], ["row"]]))
    for raw in value_texts:
        kind = draw(st.sampled_from(kinds))
        label = draw(labels)
        if kind == "row":
            lines.append(f"{label},{draw(_SPACES)}{raw}{draw(_SPACES)}")
        elif kind == "one field":
            lines.append(label)
        elif kind == "three fields":
            lines.append(f"{label},{raw},z")
        else:
            lines.append(draw(st.sampled_from(["", "   "])))
    newline = draw(st.sampled_from(["\n", "\r\n", "mixed"]))
    if newline == "mixed":
        ends = st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines) - 1, max_size=len(lines) - 1)
        text = lines[0] + "".join(map(str.__add__, draw(ends), lines[1:]))
    else:
        text = newline.join(lines)
    text += draw(st.sampled_from(["", "\n", "\r\n", "\r"]))
    if draw(st.integers(0, 9)) == 0:  # a lone carriage return anywhere
        at = draw(st.integers(0, len(text)))
        text = text[:at] + "\r" + text[at:]
    return text


@settings(max_examples=400)
@given(csv_texts(), st.one_of(st.none(), st.integers(1, 72)))
def test_parse_database_matches_row_by_row(text, n):
    def outcome(parse, text):
        try:
            return parse(text, n=n, source="t.csv")
        except DataError as exc:
            return str(exc)

    got = outcome(parse_database, text)
    try:
        want = outcome(row_by_row_parse, text[1:] if text.startswith("\ufeff") else text)
    except csv.Error as exc:  # a lone carriage return: refused with the line it is on
        assert isinstance(got, str) and got.startswith("t.csv: line ") and got.endswith(f": {exc}")
        return
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert (got.labels, got.values.tolist(), got.n) == (want.labels, want.values.tolist(), want.n)
    assert got.sorted_values.tolist() == want.sorted_values.tolist() == sorted(got.values)


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(_PLAIN_LABELS, _SPACES, st.integers(0, 2**63 - 1), st.sampled_from(_SPELLINGS), _SPACES),
        min_size=1, max_size=20, unique_by=lambda row: row[2],
    ),
    st.lists(st.sampled_from(["\n", "\r\n"]), min_size=21, max_size=21),
    st.sampled_from(["", "\n", "\r\n"]),
)
def test_plain_texts_skip_csv_and_match_row_by_row(rows, ends, last):
    lines = [f"{label},{a}{spell(value)}{b}" for label, a, value, spell, b in rows]
    text = "label,value" + "".join(map(str.__add__, ends, lines)) + last
    want = row_by_row_parse(text)
    with mock.patch.object(csv, "reader", side_effect=AssertionError("read by csv.reader")):
        got = parse_database(text)
    assert (got.labels, got.values.tolist(), got.n) == (want.labels, want.values.tolist(), want.n)


# values of 17 to 20 digits and around 2^63 and 2^64, and the spellings int()
# reads that the digit pass leaves to it, and an empty field, which it refuses
_WIDE_INTS = st.one_of(
    st.integers(0, 999),
    st.integers(16, 19).flatmap(lambda k: st.integers(10**k, 10 ** (k + 1) - 1)),
    st.integers(2**63 - 3, 2**63 + 3), st.integers(2**64 - 3, 2**64 + 3),
)
_FIELD_SPELLINGS = [
    str, str, "00{}".format, "+{}".format, " {}".format, "{:_}".format, _SPELLINGS[-1], lambda v: "",
]
_BYTE_LABELS = st.text(alphabet="ab \x00\x0b\x1c\x7f\xe9\u4e2d\U0001f600", max_size=4)


@st.composite
def byte_pass_texts(draw):
    """Plain texts: any line ends, a byte-order mark or not, a final newline or not."""
    values = draw(st.lists(_WIDE_INTS, min_size=1, max_size=12))
    lines = [f"{draw(_BYTE_LABELS)},{draw(st.sampled_from(_FIELD_SPELLINGS))(v)}" for v in values]
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    text = "label,value" + "".join(map(str.__add__, ends, lines)) + draw(st.sampled_from(["", "\n", "\r\n"]))
    return draw(st.sampled_from(["", "\ufeff"])), text


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(byte_pass_texts(), st.one_of(st.none(), st.integers(1, 72)))
def test_byte_pass_matches_row_by_row(tmp_path, case, n):
    bom, text = case

    def outcome(parse):
        try:
            db = parse()
        except DataError as exc:
            return str(exc)
        return db.labels, db.values.tolist(), db.n

    dataset = tmp_path / "t.csv"
    dataset.write_bytes((bom + text).encode("utf-8"))
    want = outcome(lambda: row_by_row_parse(text, n, "t.csv"))
    # a file of values below 2^63 that loads is read without csv
    plain = not isinstance(want, str) and max(want[1]) < 2**63
    refuse = mock.patch.object(csv, "reader", side_effect=AssertionError("read by csv.reader"))
    with refuse if plain else contextlib.nullcontext():
        assert outcome(lambda: parse_database(bom + text, n, "t.csv")) == want
        assert outcome(lambda: load_database(dataset, n)) == outcome(
            lambda: parse_database(bom + text, n, str(dataset))
        )


def _cli_digest(argv, capsys) -> str:
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


def test_wide_values_pinned(tmp_path, monkeypatch, capsys):
    # a value of 2^70 needs an object array; recorded before the one-pass ingest
    monkeypatch.chdir(tmp_path)
    (tmp_path / "wide.csv").write_text(f"label,value\na,37\nb,{2**70}\nc,{2**70 - 5}\n")
    pins = [
        (["find-min", "wide.csv", "--strategy", "sampled", "--trials", "4", "--seed", "1"],
         "85c513ac97b5ccda70b60b7965908605649af63cc905d1beb9a21bdae8b1f0b4"),
        (["find-max", "wide.csv", "--trials", "4", "--seed", "2"],
         "3e41385fe96ac7ab22bd21b1d71962a8bba74aed765b49e5f71deae20f30b245"),
        (["baseline-dha", "wide.csv", "--trials", "4", "--seed", "3"],
         "5b0d87c47189642774ee3e37855aa171b513e72f238250d64b5100b808dc8370"),
    ]
    for argv, digest in pins:
        assert _cli_digest(argv, capsys) == digest, argv


def test_sparse_find_commands_pinned(tmp_path, monkeypatch, capsys):
    # 4096 seeded values in 2^18: census find-min, a 97-value sampled find-max
    # and the baseline; recorded before the one-pass ingest
    monkeypatch.chdir(tmp_path)
    values = np.random.default_rng(2018).choice(2**18, size=4096, replace=False).tolist()
    (tmp_path / "sparse.csv").write_text(
        "label,value\n" + "".join(f"v{i},{v}\n" for i, v in enumerate(values))
    )
    common = ["sparse.csv", "--n", "18"]
    pins = [
        (["find-min", *common, "--strategy", "sampled", "--trials", "3", "--seed", "11"],
         "64f8ea57dd8a5d65115c0b5a342068b8a766641c3516335d327fcf3e925c36e0"),
        (["find-max", *common, "--strategy", "sampled", "--sample-size", "97", "--trials", "3",
          "--seed", "12"],
         "cccd6310b5fc69b7b943e83529ac3e069bd8f90df6dd1334a16c096c0629e8e7"),
        (["baseline-dha", *common, "--trials", "3", "--seed", "13"],
         "1cc4f188056d6e16f705f6280bf3f9931deebfa8bc88c73d6a6e26a6433dd7ab"),
    ]
    for argv, digest in pins:
        assert _cli_digest(argv, capsys) == digest, argv


def test_titanic_find_commands_pinned(capsys):
    # the bundled dataset's labels are quoted and hold commas; recorded before
    # Database took label and value columns
    pins = [
        (["find-min", "titanic", "--strategy", "sampled", "--trials", "20", "--seed", "21"],
         "80be3fd1fac7d138fe927e1665ad5f0008bfcd2761d556dbde68b47d73c316db"),
        (["find-min", "titanic", "--trials", "20", "--seed", "22"],
         "4a94ba87718ba81c0b2eebdc4cd6778cec9df5d6194328e016ca086a29f60b30"),
        (["find-max", "titanic", "--strategy", "sampled", "--sample-size", "9", "--trials", "20",
          "--seed", "23"],
         "a962f849b450789eb21d537d8a2f12cc7ee41b3d37657489b3c138676c5cee8b"),
        (["baseline-dha", "titanic", "--trials", "20", "--seed", "24"],
         "13902b10d10332236953e032f81d1a8d2be7f44094d4f272c63440df430f2b4a"),
        # recorded before the JSON was written as the encoder yields it
        (["find-min", "titanic", "--trials", "3000", "--seed", "25"],
         "7ab27099b46295fcf6edae535f1deab8b0f83e146865d3c8baaac528a23355e8"),
        # 2/2^1075 is the smallest float, the uniform estimate tuned to at d0 = 1
        (["find-min", "titanic", "--n", "1075"],
         "118917fd0be005dff56783b9bd84c06d3322e23c3096d0daedc2f68311076775"),
    ]
    for argv, digest in pins:
        assert _cli_digest(argv, capsys) == digest, argv


def test_model_commands_pinned(capsys):
    # the closed-form model commands; failure-map and failure-curves
    # re-recorded when final_amplitudes became one closed form (their values
    # moved by at most 1.3e-15), the others recorded before their unused
    # options went
    pins = [
        (["failure-map", "--resolution", "20"],
         "bb9b20fcf15b0375c8d8d2e07713272e36a512aa2d675ec15625be6c8bda04f5"),
        # recorded before the shared tuning core: at resolution 256 the grid is
        # evaluated in blocks of 32,768 cells, at 20 in one of 400, and numpy
        # rounds the two sizes differently (see analysis._GRID_BLOCK_CELLS)
        (["failure-map", "--resolution", "256"],
         "959ef7e243a8be85e54ab637789f23788f64068ef48b1a4b4a99e789e0e2cc22"),
        (["failure-curves", "--points", "8", "--draws", "20", "--seed", "3"],
         "f047adf6a3ac6c58a86e07cccc3dd730dfaeef3258a29159830714e11cc46d27"),
        # recorded before the curves became columns: a repeated --E (its first
        # column, its last stream) and a curve of many blocks
        (["failure-curves", "--points", "60", "--draws", "1000", "--E", "0.01,0.2,0.01", "--seed", "5"],
         "89fb30c02cf5c4f9a4ff67494e6c68938ce34ea80c13684b450f2ec0367aeafd"),
        (["failure-curves", "--points", "2000", "--draws", "3", "--E", "0.004,0.3"],
         "c66bf620d1f6cd2108a643d1eb515daf71bf7ad15df0a4d5ce799cfae7690feb"),
        (["complexity", "--eps", "0.1", "--nmax", "2^20"],
         "68a19842d014c0bad07a808a8563a7044a59af2d991e1f6b894ea212e837b785"),
        (["sample-size", "--confidence", "0.9", "--error", "0.02", "--sigma2", "0.2"],
         "e1b619c6cf6794f7373ce7941c15b9b5aed00f556889b222105b1156900d7051"),
    ]
    for argv, digest in pins:
        assert _cli_digest(argv, capsys) == digest, argv


def test_oracle_commands_pinned(tmp_path, monkeypatch, capsys):
    # build-oracle (raw and --simplify) for --marked, --threshold-le and
    # --threshold-ge at n = 3..6, then simulate --grover-long on each oracle;
    # recorded before --grover-long read its oracle from the phase cubes
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.csv").write_text("label,value\na,0\nb,2\nc,3\nd,5\n")
    rng = np.random.default_rng(20190909)
    built, simulated = hashlib.sha256(), hashlib.sha256()

    def record(h, argv):
        assert main(argv) == 0, argv
        out, err = capsys.readouterr()
        h.update(f"{argv}\0{out}\0{err}\0".encode("utf-8"))
        return out

    for n in range(3, 7):
        size = int(rng.integers(1, 2**n))
        marked = ",".join(str(int(v)) for v in rng.choice(2**n, size=size, replace=False))
        kinds = [
            ["--marked", marked],
            ["--threshold-le", str(int(rng.integers(0, 2**n - 1)))],
            ["--threshold-ge", str(int(rng.integers(1, 2**n)))],
        ]
        phi = repr(float(rng.uniform(0.1, 3.1)))
        for k, kind in enumerate(kinds):
            for simplified in ([], ["--simplify"]):
                name = f"o{n}_{k}_{len(simplified)}.qc"
                argv = ["build-oracle", "--n", str(n), *kind, "--phi", phi, *simplified]
                text = record(built, argv)
                (tmp_path / name).write_text(text)
                for flags in ([], ["--initial", "basis:0"], ["--initial", "db:data.csv"],
                              ["--iterations", "2"]):
                    record(simulated, ["simulate", name, "--grover-long", *flags])
    assert built.hexdigest() == "da4e3e7663e0a3ea080726972969203ca09cf63bacdc246596f2c2f4c43afea0"
    assert simulated.hexdigest() == "0c0c7440dab376861a73e0d6c755df9b88e0b822bc5980cc6e713e706262b601"


@pytest.mark.parametrize(
    "n,size,seed,phi,digest",
    [
        (12, 1500, 20121500, "0.9", "41600056ba98755f94873c07902f5dd5c6423bb0df6d47d80020528f3ccb25ed"),
        (10, 400, 20100400, "2.1", "1f8ac129d039168adf26017ec3b15a3a0e6a446da5ac45e8d7c0e1324a0622fd"),
    ],
)
def test_large_simplified_oracles_pinned(n, size, seed, phi, digest, capsys):
    # build-oracle --simplify on runs of hundreds of fragments; recorded while
    # principle 3 still restarted its pair search after every fusion
    marked = ",".join(
        str(int(v)) for v in np.random.default_rng(seed).choice(2**n, size=size, replace=False)
    )
    argv = ["build-oracle", "--n", str(n), "--marked", marked, "--phi", phi, "--simplify"]
    assert _cli_digest(argv, capsys) == digest


def test_larger_oracle_simulations_pinned(tmp_path, monkeypatch, capsys):
    # simulate, plain and --grover-long, on a simplified n = 14 threshold oracle
    # and on a raw n = 10 --marked oracle, and plain on each oracle between two
    # layers of H; recorded before run_circuit applied phase runs as one diagonal
    monkeypatch.chdir(tmp_path)
    marked = ",".join(
        str(int(v)) for v in np.random.default_rng(20191010).choice(2**10, size=300, replace=False)
    )
    oracles = [
        ("t14.qc", ["--n", "14", "--threshold-le", "9000", "--phi", "2.5", "--simplify"],
         ["bbf5a4f94deb0a807094dd31c2ae958956fcc5f6a74672974b479db50904ba12",
          "e4f0013ae170f18d37fd91f848e545e93fa0b7007f6755dd74dedebfbd1d9073",
          "30d02d7cd58d269584d29f2f9568b0368ce0c9f25f44efce770dfb74ddb58a87"]),
        ("m10.qc", ["--n", "10", "--marked", marked, "--phi", "1.25"],
         ["df45ff34288a0d84e04e17cbe7f4f2ac9f90891d0a3c4994ed80edfa36b4b8d8",
          "4fdeae9adfd7b703536e7e2d02f0aeb2241d3b98d531ca2b232c325b881b339e",
          "83a238e124a7f7dadbff950c2a24fa4692cd1f2c955c52e6a18f9fdb78df80ca"]),
    ]
    for name, args, digests in oracles:
        assert main(["build-oracle", *args]) == 0
        header, *gates = [
            line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")
        ]
        (tmp_path / name).write_text("\n".join([header, *gates]) + "\n")
        had = [f"H {q} | controls:" for q in range(int(header.split(":")[1]))]
        (tmp_path / f"h{name}").write_text("\n".join([header, *had, *gates, *had]) + "\n")
        runs = [["simulate", name], ["simulate", name, "--grover-long"],
                ["simulate", f"h{name}", "--initial", "basis:3"]]
        for argv, digest in zip(runs, digests):
            assert _cli_digest(argv, capsys) == digest, argv

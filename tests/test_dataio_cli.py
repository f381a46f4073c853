import io
import json
import tracemalloc

import numpy as np
import pytest

from qummsa import cli
from qummsa.analysis import failure_contour_grid
from qummsa.circuit import DENSE_MAX_QUBITS
from qummsa.cli import main
from qummsa.dataio import format_csv, load_database, parse_database, titanic_database
from qummsa.errors import DataError

EQ8_CSV = "label,value\na,0\nb,2\nc,3\n"


def test_titanic_fixture_shape(titanic):
    assert titanic.size == 36
    assert titanic.n == 6
    assert min(titanic.values) == 1
    assert max(titanic.values) == 63


def test_titanic_minimum_record(titanic):
    by_value = {v: l for l, v in titanic.records}
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
    assert db.values == (0, 2, 3) and db.n == 2


def test_format_csv_stamp():
    text = format_csv([{"a": 1, "b": 2}], "qummsa demo --x 1")
    lines = text.splitlines()
    assert lines[0] == "# invocation: qummsa demo --x 1"
    assert lines[1] == "a,b"
    assert lines[2] == "1,2"


# --- CLI ---------------------------------------------------------------------


def test_cli_sample_size(capsys):
    assert main(["sample-size", "--confidence", "0.95", "--error", "0.05"]) == 0
    assert capsys.readouterr().out.strip() == "385"


def test_cli_sample_size_other_cells(capsys):
    main(["sample-size", "--confidence", "0.99", "--error", "0.05"])
    assert capsys.readouterr().out.strip() == "664"
    main(["sample-size", "--confidence", "0.5", "--error", "0.1"])
    assert capsys.readouterr().out.strip() == "12"


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
    true_axis, est_axis, grid = failure_contour_grid(16)
    rows = [
        {"ratio_true": repr(float(rt)), "ratio_est": repr(float(re_)), "eps_gl": repr(float(grid[i, j]))}
        for i, rt in enumerate(true_axis)
        for j, re_ in enumerate(est_axis)
    ]
    expected = format_csv(rows, "qummsa failure-map --resolution 16")
    assert out.splitlines() == expected.splitlines()
    assert out == expected


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
    ],
)
def test_cli_out_of_range_arguments(argv, code, capsys):
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    err = capsys.readouterr().err
    assert got == code
    assert "Traceback" not in err and "error:" in err


def run_traced(argv):
    """Exit code and peak traced allocation (bytes) of one CLI call."""
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, peak


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


@pytest.mark.parametrize("flags,limit", [([], cli.SIMULATE_MAX_QUBITS), (["--grover-long"], DENSE_MAX_QUBITS)])
def test_cli_simulate_refuses_huge_register(tmp_path, flags, limit, capsys):
    qc = tmp_path / "wide.qc"
    qc.write_text(f"qubits: {limit + 1}\nX 0 | controls:\n")
    code, peak = run_traced(["simulate", str(qc), *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert f"at most {limit} qubits" in err and "Traceback" not in err
    assert peak < 2**20


def test_cli_simulate_runs_at_its_qubit_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "SIMULATE_MAX_QUBITS", 3)
    qc = tmp_path / "flip.qc"
    qc.write_text("qubits: 3\nX 0 | controls:\n")
    assert main(["simulate", str(qc), "--initial", "basis:0"]) == 0
    assert "1,001,1.0" in capsys.readouterr().out
    qc.write_text("qubits: 4\nX 0 | controls:\n")
    assert main(["simulate", str(qc)]) == 2


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

import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cosetcodes import __version__, cli, cosets, cyclic, gf, tables, verify
from cosetcodes.cosets import _coset_by_walk
from cosetcodes.tables import TableRow, build_table

from test_partition import _ref_gap_stat, _ref_parity_class, q_m

SRC = Path(__file__).resolve().parents[1] / "src"

# published parameter rows, frozen as plain text
TABLE1_ROWS = [
    "[[24, 18, d >= 3]]_5", "[[24, 10, d >= 5]]_5",
    "[[48, 42, d >= 3]]_7", "[[48, 38, d >= 4]]_7", "[[48, 34, d >= 5]]_7",
    "[[48, 30, d >= 6]]_7", "[[48, 26, d >= 7]]_7",
    "[[63, 57, d >= 3]]_8", "[[63, 53, d >= 4]]_8", "[[63, 49, d >= 5]]_8",
    "[[63, 45, d >= 6]]_8", "[[63, 41, d >= 7]]_8",
    "[[80, 54, d >= 8]]_9", "[[80, 50, d >= 9]]_9",
    "[[120, 114, d >= 3]]_11", "[[120, 106, d >= 5]]_11",
    "[[120, 98, d >= 7]]_11", "[[120, 90, d >= 9]]_11",
    "[[120, 82, d >= 11]]_11",
    "[[168, 162, d >= 3]]_13", "[[168, 154, d >= 5]]_13",
    "[[168, 146, d >= 7]]_13", "[[168, 138, d >= 9]]_13",
    "[[168, 130, d >= 11]]_13", "[[168, 122, d >= 13]]_13",
]

TABLE2_ROWS = [
    "[[15, 9, d >= 3]]_4", "[[15, 5, d >= 4]]_4",
    "[[24, 18, d >= 3]]_5", "[[24, 14, d >= 4]]_5", "[[24, 10, d >= 5]]_5",
    "[[63, 57, d >= 3]]_8", "[[63, 53, d >= 4]]_8", "[[63, 49, d >= 5]]_8",
    "[[63, 45, d >= 6]]_8", "[[63, 41, d >= 7]]_8", "[[63, 37, d >= 8]]_8",
    "[[255, 244, d >= 3]]_4", "[[255, 236, d >= 4]]_4",
    "[[624, 613, d >= 3]]_5", "[[624, 605, d >= 4]]_5", "[[624, 597, d >= 5]]_5",
    "[[124, 102, d >= 5]]_5",
    "[[342, 320, d >= 5]]_7", "[[342, 314, d >= 6]]_7", "[[342, 308, d >= 7]]_7",
    "[[255, 242, d >= 3]]_4", "[[255, 234, d >= 4]]_4",
    "[[624, 611, d >= 3]]_5", "[[624, 603, d >= 4]]_5", "[[624, 595, d >= 5]]_5",
]

TABLE3_ROWS = [
    "(15, 8, 5; 1, dfree >= 9)_4", "(24, 15, 7; 1, dfree >= 11)_5",
    "(48, 35, 11; 1, dfree >= 15)_7", "(63, 48, 13; 1, dfree >= 17)_8",
    "(80, 63, 15; 1, dfree >= 19)_9", "(120, 99, 19; 1, dfree >= 23)_11",
    "(168, 143, 23; 1, dfree >= 27)_13", "(255, 224, 29; 1, dfree >= 33)_16",
    "(15, 7, 4; 1, dfree >= 9)_4", "(24, 14, 6; 1, dfree >= 11)_5",
    "(120, 98, 18; 1, dfree >= 23)_11", "(168, 142, 22; 1, dfree >= 27)_13",
    "(255, 223, 28; 1, dfree >= 33)_16",
    "(15, 5, 2; 1, dfree >= 9)_4",
    "(24, 12, 4; 1, dfree >= 11)_5", "(24, 10, 2; 1, dfree >= 11)_5",
    "(48, 32, 8; 1, dfree >= 15)_7", "(48, 30, 6; 1, dfree >= 15)_7",
    "(48, 28, 4; 1, dfree >= 15)_7", "(48, 26, 2; 1, dfree >= 15)_7",
    "(255, 221, 26; 1, dfree >= 33)_16", "(255, 219, 24; 1, dfree >= 33)_16",
    "(255, 213, 18; 1, dfree >= 33)_16", "(255, 209, 14; 1, dfree >= 33)_16",
    "(255, 203, 8; 1, dfree >= 33)_16", "(255, 197, 2; 1, dfree >= 33)_16",
    "(15, 8, 3; 1, dfree >= 8)_4",
    "(24, 15, 3; 1, dfree >= 9)_5", "(24, 15, 5; 1, dfree >= 10)_5",
    "(48, 35, 3; 1, dfree >= 11)_7", "(48, 35, 5; 1, dfree >= 12)_7",
    "(48, 35, 7; 1, dfree >= 13)_7", "(48, 35, 9; 1, dfree >= 14)_7",
]


def test_table1_rows_exact():
    rows = build_table(1)
    assert [r.text for r in rows] == TABLE1_ROWS


def test_table2_rows_exact():
    rows = build_table(2)
    assert [r.text for r in rows] == TABLE2_ROWS


def test_table3_rows_exact():
    rows = build_table(3)
    assert [r.text for r in rows] == TABLE3_ROWS
    assert all(r.mu == 1 for r in rows)


def test_table_regeneration_is_deterministic():
    a = [r.to_dict() for r in build_table(3)]
    b = [r.to_dict() for r in build_table(3)]
    assert a == b


def test_tables_build_only_the_generators_they_read(monkeypatch):
    # a code's parameters come from its cosets; its generator is built only
    # for the codes whose basis the oracle enumerates
    built, read = [], {}
    real_roots, real_basis = gf.poly_with_roots, cyclic.codeword_basis

    def roots(ext, q, exponents):
        built.append((ext, q, tuple(exponents)))
        return real_roots(ext, q, exponents)

    def basis(code):
        read.setdefault(id(code), code)
        return real_basis(code)

    monkeypatch.setattr(gf, "poly_with_roots", roots)
    monkeypatch.setattr(cyclic, "codeword_basis", basis)
    build_table(1)
    build_table(3)
    assert built == [] and read == {}
    build_table(2)
    assert built == [(c.ext, c.q, c.defining.exponents) for c in read.values()]
    assert 0 < len(built) <= 2


def test_tables_1_and_2_build_only_the_fields_they_read(monkeypatch):
    # a code's extension field is built on first read, by its generator or
    # its check matrices; tables 1 and 2 read them only for the codes whose
    # basis the oracle enumerates.  The codes are each row's outer and inner
    # codes and the duals that the oracle builds.
    codes, read = [], {}
    real_row, real_dual = tables._css_row, cyclic.dual_code
    real_basis = cyclic.codeword_basis

    def row(table, params, budget):
        codes.extend((params.outer, params.inner))
        return real_row(table, params, budget)

    def dual(code):
        codes.append(real_dual(code))
        return codes[-1]

    def basis(code):
        read.setdefault(id(code), code)
        return real_basis(code)

    monkeypatch.setattr(tables, "_css_row", row)
    monkeypatch.setattr(cyclic, "dual_code", dual)
    monkeypatch.setattr(cyclic, "codeword_basis", basis)
    build_table(1)
    build_table(2)
    assert len(codes) > 100 and read
    assert {id(c) for c in codes if "ext" in vars(c)} == set(read)


def test_build_table_rejects_unknown():
    with pytest.raises(ValueError):
        build_table(4)


# ---------------------------------------------------------------
# CLI
# ---------------------------------------------------------------

def test_cli_cosets_degenerate(capsys):
    assert cli.main(["cosets", "2", "1"]) == 0
    out = capsys.readouterr().out
    assert "1 cosets" in out
    assert "C_0 = {0}" in out


def test_cli_cosets_counts_lemma_block(capsys):
    assert cli.main(["cosets", "5", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith("14 cosets")
    assert "C_6 = {6}" in out


def test_cli_code(capsys):
    assert cli.main(["code", "5", "2", "0", "1", "2", "3"]) == 0
    out = capsys.readouterr().out
    assert "[24, 17, d >= 5]_5" in out


def test_cli_code_prints_the_generator_as_plain_ints(capsys):
    # x^2 + x + 2 over GF(3), the minimal polynomial of alpha in GF(9)
    outputs = {}
    for fmt in ("text", "json", "csv"):
        assert cli.main(["code", "3", "2", "1", "--format", fmt]) == 0
        outputs[fmt] = capsys.readouterr().out
    assert "generator coefficients (low to high): [2, 1, 1]\n" in outputs["text"]
    assert json.loads(outputs["json"])["rows"][0]["generator"] == [2, 1, 1]
    assert ',"[2, 1, 1]",' in outputs["csv"]
    code = cyclic.code_from_cosets(3, 2, [1])
    with pytest.raises(ValueError):
        code.generator[0] = 1


@pytest.mark.parametrize("argv,fmt", [
    (["cosets", "7", "2"], "text"),
    (["cosets", "7", "2"], "json"),
    (["cosets", "7", "2"], "csv"),
    (["cosets", "2", "16"], "text"),  # 4116 lines: more than one write
])
def test_cli_out_file_bytes_match_stdout(argv, fmt, tmp_path, capsysbinary):
    argv = argv + ["--properties", "--format", fmt]
    assert cli.main(argv) == 0
    stdout = capsysbinary.readouterr().out
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 0
    written = out.read_bytes()
    assert written.endswith(b"\n") and not written.endswith(b"\n\n")
    # CSV on stdout keeps a newline after the writer's final \r\n
    assert stdout == written + (b"\n" if fmt == "csv" else b"")
    if fmt == "text":
        q, m = int(argv[1]), int(argv[2])
        assert stdout.count(b"\n") == len(cosets.all_cosets(q, m)) + 1


def _render_cosets(q, m, properties, fmt, to_file):
    """The bytes `cosets q m` should print, from the orbit walk and the
    scalar reference functions."""
    n = q**m - 1
    rows = []
    for c in sorted({_coset_by_walk(q, n, x) for x in range(n)}, key=lambda c: c.rep):
        row = {"rep": c.rep, "cardinality": c.cardinality, "elements": list(c.elements)}
        if properties:
            row["gap"] = _ref_gap_stat(c)
            row["complement"] = _coset_by_walk(q, n, n - c.rep).rep
            if q % 2 == 1:
                row["parity"] = _ref_parity_class(c)
        rows.append(row)
    if fmt == "json":
        return json.dumps({"tool_version": __version__, "command": f"cosets {q} {m}",
                           "rows": rows, "discrepancies": []}, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue() + ("" if to_file else "\n")
    lines = [f"q={q}, m={m}, n={n}: {len(rows)} cosets"]
    for row in rows:
        line = f"C_{row['rep']} = {{{', '.join(map(str, row['elements']))}}}"
        if properties:
            gap = row["gap"]
            line += f"  gap={gap if gap is not None else '-'}"
            line += f"  complement=C_{row['complement']}"
            if "parity" in row:
                line += f"  parity={row['parity']}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def _check_cosets_bytes(q, m, properties, fmt):
    """`cosets q m` prints, and writes with --out, the scalar renderer's bytes."""
    argv = ["cosets", str(q), str(m), "--format", fmt] + ["--properties"] * properties
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert cli.main(argv) == 0
    assert stdout.getvalue() == _render_cosets(q, m, properties, fmt, to_file=False)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes().decode() == _render_cosets(
            q, m, properties, fmt, to_file=True)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("q,m,properties", [
    (7, 2, True),    # odd q: a parity column
    (4, 3, True),    # even q: no parity column
    (5, 1, True),    # m = 1: singletons only
    (2, 1, True),    # n = 1
    (3, 3, False),
])
def test_cli_cosets_bytes_match_scalar_renderer(q, m, properties, fmt):
    _check_cosets_bytes(q, m, properties, fmt)


# the listing writes each block's digits into byte images of its row
# templates: on random (q, m), q not necessarily a prime power, it prints
# what the scalar renderer prints
@settings(max_examples=60, deadline=None)
@given(q_m(), st.booleans(), st.sampled_from(["text", "json", "csv"]))
@example((6, 4), True, "text")
@example((10, 3), True, "json")
@example((15, 2), True, "csv")
@example((2, 10), False, "csv")
def test_cli_cosets_bytes_match_scalar_renderer_on_random_inputs(qm, properties, fmt):
    _check_cosets_bytes(*qm, properties, fmt)


# the listing computes gaps and complements per block of 4096 rows: 7,188
# cosets at (13, 4), an odd q with a parity column, and 4,115 at (2, 16),
# whose second block holds 19 rows
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("q,m", [(13, 4), (2, 16)])
def test_cli_cosets_bytes_match_scalar_renderer_past_one_block(q, m, fmt):
    _check_cosets_bytes(q, m, True, fmt)


# the listing steps through cosets._ROWS rows per block: with 1, 3 and 7
# rows the first block's separator, full middle blocks and a short last
# block all fall inside small partitions (44, 23 and 5 cosets)
@pytest.mark.parametrize("rows", [1, 3, 7])
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("q,m", [(5, 3), (4, 3), (3, 2)])
@pytest.mark.parametrize("properties", [True, False])
def test_cli_cosets_bytes_match_scalar_renderer_at_any_block(
        monkeypatch, rows, fmt, q, m, properties):
    monkeypatch.setattr(cosets, "_ROWS", rows)
    _check_cosets_bytes(q, m, properties, fmt)


def test_decimal_writes_every_value_below_the_cap():
    # every value a listing prints, 0 .. 999,999, and -1 for a field the row
    # lacks; the boundaries of the 0-byte padding are 0, 9, 10, 99, 100,
    # 10^4 and 10^5
    vals = np.arange(-1, 10**6, dtype=np.int32)
    digits = np.stack(cli._decimal(vals), axis=-1).view(np.uint8)
    assert digits.shape == (10**6 + 1, 6)
    assert not digits[0].any()
    # the 0 bytes are all in front of the digits, and each value has as many
    # digits as str() gives it
    nonzero = digits != 0
    assert (np.sort(nonzero, axis=1) == nonzero).all()
    assert (nonzero[1:].sum(axis=1) == np.char.str_len(vals[1:].astype(str))).all()
    assert digits[nonzero].tobytes() == "".join(map(str, range(10**6))).encode()


def test_cli_cosets_listing_peaks_below_three_mb(tmp_path):
    # the partition is cached, so the trace sees the listing alone: the row
    # images and one block of 4096 rows, its gaps, complements, field
    # columns and text, 2.0 MB.  The gaps of all 231,135 cosets at once
    # would take it to 7.6 MB, and the whole text as one buffer would add
    # 20 MB
    cosets.partition(31, 4)
    argv = ["cosets", "31", "4", "--properties", "--out", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 10**6, f"cosets 31 4 --properties peaked at {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("fmt,bound", [("text", 5e6), ("json", 7e6)])
def test_cli_cosets_listing_builds_no_partition_array(tmp_path, fmt, bound):
    # with no partition cached the trace sees the build of the 231,135 reps
    # too, 2.1 MB, and the listing reads its rows, cardinalities and
    # complements from them a block at a time: 3.1 MB (text) and 5.3 MB
    # (json).  Building owner and elements, 3.7 MB each, took it to 11.2
    # and 13.4 MB
    cosets._partition.cache_clear()
    argv = ["cosets", "31", "4", "--properties", "--format", fmt, "--out", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, f"cosets 31 4 --properties --format {fmt} peaked at {peak / 1e6:.1f} MB"
    assert not {"owner", "elements", "cards"} & vars(cosets.partition(31, 4)).keys()


# Runs its arguments as a child process and prints the child's wall time and
# peak RSS, so the peak is that child's alone.
_MEASURE = """
import resource, subprocess, sys, time
t0 = time.perf_counter()
subprocess.run(sys.argv[1:], check=True)
print(time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def _fresh_env():
    """The environment with src/ on PYTHONPATH and stdout block-buffered,
    as in a shell pipeline."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _run_fresh(argv):
    """Wall seconds and peak RSS in MB of `cosetcodes argv` in a fresh
    interpreter."""
    env = _fresh_env()
    done = subprocess.run([sys.executable, "-c", _MEASURE, sys.executable, "-m",
                           "cosetcodes.cli", *argv],
                          env=env, capture_output=True, text=True, check=True, timeout=120)
    elapsed, peak_kb = done.stdout.split()
    return float(elapsed), int(peak_kb) / 1024


# SHA-256 of each listing's --out file, recorded from the per-row generators
# and the standard writers that the block formatter replaced
@pytest.mark.parametrize("options,digest", [
    pytest.param(["--properties"],
                 "0e4e69a68734a23393c548c0158ed08be1456808ac9aebfafeb09ab94606b487", id="text"),
    pytest.param([],
                 "bd545cdbe858844b6f370799ad3f90ede6706c2510156d30211bd0f05888d93a",
                 id="text-without-properties"),
    pytest.param(["--properties", "--format", "json"],
                 "d63899051278ab6fbabf24dd29b560413f807e7c44d96c623341f758b420c0fd", id="json"),
    pytest.param(["--properties", "--format", "csv"],
                 "e034da37f0b384b33405b497de44e7cf12759a9d59d6813b87d9a277f234c398", id="csv"),
])
def test_cli_cosets_at_the_cap(options, digest, tmp_path):
    out = tmp_path / "out"
    elapsed, peak_mb = _run_fresh(["cosets", "31", "4", *options, "--out", str(out)])
    assert elapsed < 5.0, f"cosets 31 4 {' '.join(options)} took {elapsed:.2f}s"
    assert peak_mb < 150, f"cosets 31 4 {' '.join(options)} peaked at {peak_mb:.0f} MB"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_cli_code_at_the_field_cap(tmp_path):
    out = tmp_path / "out"
    elapsed, peak_mb = _run_fresh(["code", "2", "20", "1", "--out", str(out)])
    assert elapsed < 5.0, f"code 2 20 1 took {elapsed:.2f}s"
    # GF(2^20) holds each log/antilog table once
    assert peak_mb < 100, f"code 2 20 1 peaked at {peak_mb:.0f} MB"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "c7379e4bda19268b602c23fdd62661274d27cf3fdd40261d91ca47e3e7c96bcd")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_closed_pipe_exits_quietly(fmt):
    # `cosetcodes cosets 31 4 | head -n 1`: the reader takes one line of the
    # 231,135-row listing and closes the pipe
    proc = subprocess.Popen([sys.executable, "-m", "cosetcodes.cli", "cosets", "31", "4",
                             "--format", fmt], env=_fresh_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert first and err == "", err  # no traceback, nor any other line


def test_cli_closed_pipe_fails_quietly_at_the_final_flush():
    # a pipe closed before the first write: the three lines of `code` sit in
    # the stdout buffer until the flush after the command
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "cosetcodes.cli", "code", "3", "2", "1"],
                              env=_fresh_env(), stdout=write, stderr=subprocess.PIPE,
                              text=True, timeout=60)
    finally:
        os.close(write)
    assert done.returncode == 1 and done.stderr == ""


def test_cli_verify_cosets_up_to_27_4(tmp_path):
    out = tmp_path / "out.json"
    elapsed, _ = _run_fresh(["verify", "cosets", "--qmax", "27", "--mmax", "4",
                             "--format", "json", "--out", str(out)])
    assert elapsed < 2.0, f"verify cosets --qmax 27 --mmax 4 took {elapsed:.2f}s"
    rows = json.loads(out.read_text())["rows"]
    # recorded from the per-coset sweep that the array checks replaced
    assert len(rows) == 588
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
        "95c8e5d5ca4d4107882234b91a4cfdcbb391316db378ccee0b1a61e85f779951")


def test_cli_table_json_roundtrip(tmp_path):
    out_file = tmp_path / "t1.json"
    assert cli.main(["table", "1", "--format", "json",
                     "--out", str(out_file), "--budget", "0"]) == 0
    payload = json.loads(out_file.read_text())
    assert payload["command"] == "table 1"
    assert "tool_version" in payload and payload["discrepancies"] == []
    parsed = [TableRow(**d) for d in payload["rows"]]
    assert parsed == build_table(1, budget=cli.OracleBudget(max_enumeration=0))


def test_cli_table_csv(tmp_path):
    import csv as csvmod

    out_file = tmp_path / "t3.csv"
    assert cli.main(["table", "3", "--format", "csv", "--out", str(out_file)]) == 0
    with open(out_file, newline="") as fh:
        rows = list(csvmod.DictReader(fh))
    assert len(rows) == len(TABLE3_ROWS)
    assert rows[0]["text"] == TABLE3_ROWS[0]
    assert set(rows[0].keys()) == set(build_table(3)[0].to_dict().keys())


def test_cli_verify_cosets_passes(capsys):
    assert cli.main(["verify", "cosets", "--qmax", "5", "--mmax", "2"]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out


def test_cli_verify_cosets_ladder_at_m5(capsys):
    # m = 5 admits c >= q + 1 by the size bound alone; the ladder stops at q
    assert cli.main(["verify", "cosets", "--qmax", "9", "--mmax", "5"]) == 0
    assert "0 failures" in capsys.readouterr().out


def test_cli_verify_zero_budget_skips_oracle(capsys):
    assert cli.main(["verify", "css", "--budget", "0"]) == 0
    out = capsys.readouterr().out
    # every oracle check is skipped under a zero budget
    lines = [l for l in out.splitlines() if "distance-oracle" in l]
    assert lines and all("skipped" in l for l in lines)


def test_cli_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("budget = 0\n# comment\n")
    assert cli.main(["verify", "css", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if "distance-oracle" in l]
    assert lines and all("skipped" in l for l in lines)
    # flag overrides the config: a tiny budget still allows the smallest case
    assert cli.main(["verify", "cosets", "--config", str(cfg),
                     "--qmax", "3", "--mmax", "2"]) == 0


@pytest.mark.parametrize("text", [
    "nonsense = 1\n",
    "budget 5\n",
    "budget = abc\n",
    "budget = -5\n",  # as --budget -5 is
    "seed = -1\n",  # as --seed -1 is
    "modulus_cap = 100000000\n",  # the cap is cosets.MAX_MODULUS, not a key
    None,  # no such file
], ids=["unknown-key", "no-equals", "not-an-integer", "negative-budget",
        "negative-seed", "modulus-cap", "missing-file"])
def test_cli_rejects_bad_config(tmp_path, capsys, text):
    cfg = tmp_path / "cfg"
    if text is not None:
        cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "3", "--config", str(cfg)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "error: " in err
    assert "Traceback" not in err


def test_cli_verify_css_single_q_oracle_confirms(capsys):
    # with a budget covering 4^12 codewords, both length-15 instances are
    # oracle-confirmed
    assert cli.main(["verify", "css", "--q", "4",
                     "--budget", str(4**12)]) == 0
    out = capsys.readouterr().out
    confirmed = [l for l in out.splitlines()
                 if "distance-oracle (q=4, m=2)" in l]
    assert len(confirmed) == 2
    assert all(l.endswith("pass") for l in confirmed)


def test_cli_css_and_conv_single_instances(capsys):
    assert cli.main(["css", "--family", "ladder", "--q", "5",
                     "--m", "3", "--c", "5"]) == 0
    assert "[[124, 102, d >= 5]]_5" in capsys.readouterr().out
    # c = q is in range but warns: one line on stderr, the row on stdout
    assert cli.main(["css", "--family", "block", "--q", "3", "--c", "3"]) == 0
    out, err = capsys.readouterr()
    assert "[[8, 2, d >= 3]]_3" in out
    assert err.splitlines() == [
        "warning: c = q reproduces family_block_full; the stated range is c < q"]
    assert cli.main(["conv", "--family", "short-parent", "--q", "7",
                     "--i", "4"]) == 0
    assert "(48, 35, 9; 1, dfree >= 14)_7" in capsys.readouterr().out


def test_cli_verify_cyclic_catches_a_wrong_complement(monkeypatch, capsys):
    # a complement lookup that answers with the coset itself breaks the
    # complement criterion, while the negation criterion still holds on
    # every union that is disjoint from its negation
    monkeypatch.setattr(cosets.Partition, "complements",
                        lambda self: np.arange(len(self.reps)))
    assert cli.main(["verify", "cyclic", "--format", "json"]) == 1
    records = json.loads(capsys.readouterr().out)["discrepancies"]
    failed = [r for r in records if r["check"] == "dual-containing-criteria-agree"]
    assert failed and all(r["status"] == "fail" for r in failed)
    for r in failed:
        q, m, n = r["q"], r["m"], r["q"] ** r["m"] - 1
        match = re.fullmatch(
            r"criteria disagree on the union of cosets \[([\d, ]+)\] mod (\d+)",
            r["detail"])
        assert match and int(match.group(2)) == n
        reps = [int(x) for x in match.group(1).split(", ")]
        z = {x for c in reps for x in cosets.coset_of(q, m, c).elements}
        assert z.isdisjoint({-x % n for x in z})


def test_cli_verify_empty_grid_is_an_error(capsys):
    for argv in (["verify", "cosets", "--qmax", "2"],
                 ["verify", "all", "--mmax", "1"],
                 ["verify", "cosets", "--qmax", "0"],
                 ["verify", "cosets", "--mmax", "0"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert "checks" not in out
        assert len(err.splitlines()) == 1 and "error: empty coset grid" in err


def test_cli_coset_grid_defaults_are_9_and_3(capsys):
    assert cli.main(["verify", "cosets", "--format", "json"]) == 0
    default = capsys.readouterr().out
    assert cli.main(["verify", "cosets", "--qmax", "9", "--mmax", "3",
                     "--format", "json"]) == 0
    assert capsys.readouterr().out == default
    assert cli.main(["verify", "cosets", "--qmax", "9", "--mmax", "2",
                     "--format", "json"]) == 0
    assert capsys.readouterr().out != default


def test_cli_coset_grid_reaches_past_27(capsys):
    assert cli.main(["verify", "cosets", "--qmax", "32", "--mmax", "2",
                     "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {29, 31, 32} <= {row["q"] for row in payload["rows"]}
    assert payload["discrepancies"] == []


def _is_prime_power(q):
    try:
        gf.factor_prime_power(q)
    except ValueError:
        return False
    return True


def test_coset_grid_is_every_prime_power():
    assert verify.coset_grid(1000, 2)[0] == [q for q in range(3, 1001) if _is_prime_power(q)]


def test_cli_qmax_over_1000_is_a_usage_error(capsys):
    # for q > 1000, q^2 - 1 is over cosets.MAX_MODULUS: the grid would hold
    # only skipped pairs, so it is refused before it is built
    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "cosets", "--qmax", "1001"])
    elapsed = time.perf_counter() - t0
    assert exc.value.code == 2 and elapsed < 1.0
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and "error: --qmax 1001" in err


def test_cli_rejects_negative_budget(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "1", "--budget", "-5"])
    assert exc.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err


def test_cli_sweeps_do_not_import_numpy_ma():
    # numpy.ma costs about 13 ms per process to import; np.unique and
    # np.setdiff1d pull it in, and no command needs it
    script = (
        "import contextlib, io, sys\n"
        "from cosetcodes import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    assert cli.main(['verify', 'all']) == 0\n"
        "    assert cli.main(['cosets', '5', '2', '--properties']) == 0\n"
        "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout == "False\n"


def test_cli_verify_conv_does_not_import_numpy_random():
    # the sampled dual search draws from the standard library's random;
    # numpy.random's first generator imports secrets, hashlib and OpenSSL,
    # about 5 MB of peak RSS
    script = (
        "import contextlib, io, sys\n"
        "from cosetcodes import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', 'conv', '--format', 'json']) == 0\n"
        "print('numpy.random' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", script], env=_fresh_env(),
                          capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout == "False\n"


def test_cli_verify_all_never_builds_gf_343():
    # the ladder (7, 3, c) rows are all oracle-skipped, so nothing reads
    # their extension field; building GF(7^3) raised the command's peak RSS
    # by 2.6 MB.  A fresh interpreter, as make_field's cache is process-wide
    script = (
        "import contextlib, io\n"
        "from cosetcodes import cli, gf\n"
        "built, init = [], gf.FieldContext.__init__\n"
        "def record(self, p, e, defining):\n"
        "    built.append((p, e))\n"
        "    init(self, p, e, defining)\n"
        "gf.FieldContext.__init__ = record\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    assert cli.main(['verify', 'all', '--format', 'json']) == 0\n"
        "print((7, 3) in built, len(built))\n")
    done = subprocess.run([sys.executable, "-c", script], env=_fresh_env(),
                          capture_output=True, text=True, check=True, timeout=120)
    seven_cubed, count = done.stdout.split()
    assert seven_cubed == "False" and int(count) <= 15  # 21 fields when every code built its own


# the messages of some usage errors
USAGE_MESSAGES = {
    # the ladder bound q^ceil(m/2) - 1 needs m >= 1 (for m < 0 it is a
    # float), and so does a code: m is checked ahead of the field GF(q^m)
    "css --family ladder --q 4 --m -2 --c 3": "error: need m >= 1, got m=-2",
    "css --family ladder --q 4 --m 0 --c 3": "error: need m >= 1, got m=0",
    "code 4 0 1": "error: need m >= 1, got m=0",
    "code 3 0": "error: need m >= 1, got m=0",
    # the fields are built with the code, ahead of its generator
    "code 6 2 1": "error: 6 is not a prime power",
    "code 2 21 1": "error: field size 2^21 exceeds cap 1048576",
    "code 4 -1": "error: need m >= 1, got m=-1",
    # --q restricts the css and conv sweeps only
    "verify cosets --q 5": "error: --q restricts only css/conv, not verify cosets",
    "verify cyclic --q 5": "error: --q restricts only css/conv, not verify cyclic",
    # the CSS families need the partition, capped at n = 10^6
    "css --family block-even --q 4 --m 10 --c 3": "error: modulus 1048575 exceeds cap 1000000",
    # far past a cap (see PAST_THE_CAPS): a modulus of thousands of digits is
    # named by its power, and a ladder builds the field before its orbit walks
    "cosets 3 1000000": "error: modulus 3^1000000 - 1 exceeds cap 1000000",
    "cosets 3 5000": "error: modulus 3^5000 - 1 exceeds cap 1000000",
    "css --family ladder --q 3 --m 100000 --c 2": "error: field size 3^100000 exceeds cap 1048576",
    "css --family ladder --q 3 --m 1000000 --c 2":
        "error: field size 3^1000000 exceeds cap 1048576",
    "code 2 100000000 1": "error: field size 2^100000000 exceeds cap 1048576",
    # block-even builds its outer code, and so the field, before q^(m/2);
    # its own range check on m comes first
    "css --family block-even --q 3 --m 20000000 --c 3":
        "error: field size 3^20000000 exceeds cap 1048576",
    "css --family block-even --q 3 --m -4 --c 3": "error: need even m >= 2, got m=-4",
    "css --family block-even --q 3 --m 0 --c 3": "error: need even m >= 2, got m=0",
    # an output file that cannot be opened: a directory, a missing directory
    "cosets 4 2 --out .": "error: cannot write output file: ",
    "table 1 --out /nonexistent/x.json": "error: cannot write output file: ",
    # --qmax and --mmax size the coset grid, which only verify cosets and
    # verify all run; elsewhere they would be ignored
    "verify conv --qmax 3": "error: --qmax sizes only the coset grid, not verify conv",
    "verify css --mmax 2": "error: --mmax sizes only the coset grid, not verify css",
    "verify cyclic --qmax 9 --mmax 3":
        "error: --qmax sizes only the coset grid, not verify cyclic",
    # a seed is checked with the options, ahead of any sweep
    "verify conv --q 4 --seed -1": "error: argument --seed: must be >= 0, got -1",
    # a split family checks q is a prime power, then q >= 4, then i
    "conv --family short-parent --q 6 --i 1": "error: 6 is not a prime power",
    "conv --family split --q 3": "error: need q >= 4, got 3",
    "conv --family wider-head --q 4 --i 2": "error: need 1 <= i <= q-3, got i=2",
    # the conv families stop at q = 64, before a code is built
    "conv --family split --q 128": "error: need q <= 64 for the conv families, got 128",
    "conv --family wide-head --q 997": "error: need q <= 64 for the conv families, got 997",
    "verify conv --q 128": "error: need q <= 64 for the conv families, got 128",
    # a q past the field cap is refused before its trial division, which
    # takes sqrt(q) steps; verify css --q builds its fallback block(q, c)
    # instances one at a time, so the first one's refusal ends it
    "code 10000000000000061 2 1": "error: field size 10000000000000061 exceeds cap 1048576",
    "css --family block --q 10000000000000061 --c 3":
        "error: field size 10000000000000061 exceeds cap 1048576",
    "conv --family split --q 10000000000000061":
        "error: field size 10000000000000061 exceeds cap 1048576",
    "verify css --q 10000000000000061": "error: field size 10000000000000061 exceeds cap 1048576",
    "verify css --q 1000003": "error: field size 1000003^2 exceeds cap 1048576",
    # every grid q is at least 3, and 3^13 - 1 is over the modulus cap
    "verify cosets --mmax 13": "error: --mmax 13 is over 12, past which 3^m - 1 exceeds the cap",
}

# inputs far past a cap are rejected within 1 s, before the work the cap bounds
PAST_THE_CAPS = ("cosets 3 1000000", "cosets 3 5000",
                 "css --family ladder --q 3 --m 100000 --c 2",
                 "css --family ladder --q 3 --m 1000000 --c 2", "code 2 100000000 1",
                 "css --family block-even --q 3 --m 20000000 --c 3",
                 "conv --family split --q 128", "conv --family wide-head --q 997",
                 "verify conv --q 128", "code 10000000000000061 2 1",
                 "css --family block --q 10000000000000061 --c 3",
                 "conv --family split --q 10000000000000061",
                 "verify css --q 10000000000000061", "verify css --q 1000003",
                 "verify cosets --mmax 13")


@pytest.mark.parametrize("argv", [
    "css --family block --q 5",
    "css --family block-even --q 5",
    "css --family ladder --q 5 --m 3",
    "conv --family wider-head --q 5",
    "conv --family short-parent --q 5",
    "css --family block-full --q 6",
    "css --family block --q 5 --c 9",
    "cosets 1 2",
    "cosets 31 5",
    "verify css --q 6",
    "verify conv --q 3",
    "css --family block-full --q 5 --m 4",
    "conv --family split --q 5 --i 3",
    *USAGE_MESSAGES,
])
def test_cli_bad_input_is_one_line_usage_error(argv, capsys):
    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.split())
    elapsed = time.perf_counter() - t0
    assert exc.value.code == 2
    assert argv not in PAST_THE_CAPS or elapsed < 1.0, f"{argv} took {elapsed:.2f}s"
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "error: " in err
    assert "Traceback" not in err
    assert USAGE_MESSAGES.get(argv, "") in err


def test_cli_conv_split_q32_is_reduced_basic(capsys):
    assert cli.main(["conv", "--family", "split", "--q", "32", "--format", "json"]) == 0
    row, = json.loads(capsys.readouterr().out)["rows"]
    assert row["text"] == "(1023, 960, 61; 1, dfree >= 65)_32"
    assert row["reduced_basic"] is True


def test_cli_verify_css_unprinted_q_checks_block_family(capsys):
    # no printed CSS row has q = 3: block(3, 2) and block-full(3) are checked
    assert cli.main(["verify", "css", "--q", "3", "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)["rows"]
    assert [r["check"] for r in records] == [
        f"{family}-{check}" for family in ("css-block", "css-block-full")
        for check in ("dimension", "nested", "distance-bound", "distance-oracle")]
    assert all(r["status"] == "pass" and r["q"] == 3 for r in records)

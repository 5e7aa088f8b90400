import json
import re

import pytest

from cosetcodes import cli
from cosetcodes.tables import TableRow, build_table

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
    rows = build_table(1, budget=None)
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


def test_cli_table_json_roundtrip(tmp_path):
    out_file = tmp_path / "t1.json"
    assert cli.main(["table", "1", "--format", "json",
                     "--out", str(out_file), "--budget", "0"]) == 0
    payload = json.loads(out_file.read_text())
    assert payload["command"] == "table 1"
    assert "tool_version" in payload and payload["discrepancies"] == []
    parsed = [TableRow.from_dict(d) for d in payload["rows"]]
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
    "modulus_cap = 100000000\n",  # the cap is cosets.MAX_MODULUS, not a key
    None,  # no such file
], ids=["unknown-key", "no-equals", "not-an-integer", "negative-budget",
        "modulus-cap", "missing-file"])
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
    assert cli.main(["conv", "--family", "short-parent", "--q", "7",
                     "--i", "4"]) == 0
    assert "(48, 35, 9; 1, dfree >= 14)_7" in capsys.readouterr().out


def test_cli_verify_cyclic_catches_a_wrong_complement(monkeypatch, capsys):
    # a complement lookup that answers with the coset itself breaks the
    # complement criterion, while the negation criterion still holds on
    # every union that is disjoint from its negation
    from cosetcodes import cosets

    monkeypatch.setattr(cosets, "complementary", lambda c: c)
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
        assert exc.value.code != 0
        message = str(exc.value.code)
        assert "empty coset grid" in message and "\n" not in message
    assert "checks" not in capsys.readouterr().out


def test_cli_rejects_negative_budget(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "1", "--budget", "-5"])
    assert exc.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "css --family block --q 5",
    "css --family block-even --q 5",
    "css --family ladder --q 5 --m 3",
    "conv --family wider-head --q 5",
    "conv --family short-parent --q 5",
    "css --family block-full --q 6",
    "conv --family split --q 3",
    "css --family block --q 5 --c 9",
    "cosets 1 2",
    "cosets 31 5",
    "code 6 2 1",
    "verify css --q 6",
    "verify conv --q 3",
    "css --family block-full --q 5 --m 4",
    "conv --family split --q 5 --i 3",
])
def test_cli_bad_input_is_one_line_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.split())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "error: " in err
    assert "Traceback" not in err


def test_cli_verify_css_unprinted_q_checks_block_family(capsys):
    # no printed CSS row has q = 3: block(3, 2) and block-full(3) are checked
    assert cli.main(["verify", "css", "--q", "3", "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)["rows"]
    assert [r["check"] for r in records] == [
        f"{family}-{check}" for family in ("css-block", "css-block-full")
        for check in ("dimension", "nested", "distance-bound", "distance-oracle")]
    assert all(r["status"] == "pass" and r["q"] == 3 for r in records)

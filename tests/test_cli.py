import json
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from abprime import ModPoly, ab_failure_census_mod_p, count_operations
from abprime.cli import build_parser, compute_ratio, main

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_isprime_prime(capsys):
    code, out, _ = run(capsys, "isprime", "97", "--degree", "4", "--seed", "00")
    assert code == 0
    assert "PRIME" in out


def test_isprime_composite(capsys):
    code, out, _ = run(capsys, "isprime", "341", "--degree", "6", "--seed", "00")
    assert code == 1
    assert "COMPOSITE" in out


def test_isprime_unknown(capsys):
    code, out, _ = run(capsys, "isprime", "9", "--degree", "8",
                       "--fallback", "fail", "--seed", "00")
    assert code == 2
    assert "UNKNOWN" in out


def test_isprime_usage_error(capsys):
    code, _, _ = run(capsys, "isprime", "x")
    assert code == 64
    code, _, _ = run(capsys, "isprime", "0", "--seed", "00")
    assert code == 64


def test_isprime_json_schema(capsys):
    code, out, _ = run(capsys, "isprime", "341", "--degree", "6",
                       "--seed", "0a", "--json")
    assert code == 1
    obj = json.loads(out)
    assert obj["n"] == 341
    assert obj["outcome"] == "COMPOSITE"
    assert obj["seed"] == 0x0A
    assert obj["evidence"]["kind"] in ("mr_witness", "ab_polynomial", "divisor")


def test_isprime_reproducible(capsys):
    a = run(capsys, "isprime", "10007", "--degree", "4", "--seed", "beef", "--json")
    b = run(capsys, "isprime", "10007", "--degree", "4", "--seed", "beef", "--json")
    assert a == b


def test_construct_success(tmp_path, capsys):
    out_path = tmp_path / "f.poly"
    code, out, _ = run(capsys, "construct", "97", "--D", "15",
                       "--out", str(out_path))
    assert code == 0
    assert out.strip().startswith("degree ")
    f = ModPoly.from_line(out_path.read_text().strip())
    assert 15 <= f.degree < 30
    sidecar = (out_path.parent / (out_path.name + ".system")).read_text()
    rows = [tuple(map(int, line.split())) for line in sidecar.splitlines()]
    assert rows == sorted(rows)
    from abprime import is_period_pair
    for r, q in rows:
        assert is_period_pair(97, r, q)


def test_construct_composite(tmp_path, capsys):
    code, out, _ = run(capsys, "construct", "1001", "--D", "6",
                       "--out", str(tmp_path / "f.poly"))
    assert code == 1
    assert "factor" in out


def test_construct_size_guard(tmp_path, capsys):
    code, _, err = run(capsys, "construct", "9", "--D", "5",
                       "--out", str(tmp_path / "f.poly"))
    assert code == 64
    assert "need N > 2D" in err


def test_construct_not_found(tmp_path, capsys, monkeypatch):
    # the default search caps fill every desk-scale window, so exercise the
    # miss path by forcing the search to come up empty
    import abprime.pseudofield as pf
    monkeypatch.setattr(pf, "find_period_system", lambda *a, **k: None)
    code, out, _ = run(capsys, "construct", "97", "--D", "15",
                       "--out", str(tmp_path / "f.poly"))
    assert code == 3
    assert "no period system" in out


def test_census_mr(capsys):
    code, out, _ = run(capsys, "census", "mr", "341", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["failing"] == 50
    assert obj["fraction"] == "5/34"


def test_census_mr_domain_error(capsys):
    code, _, err = run(capsys, "census", "mr", "97")
    assert code == 64


def test_census_ab_p(tmp_path, capsys):
    poly = tmp_path / "f.poly"
    poly.write_text(ModPoly(15, [1, 0, 1]).to_line() + "\n")
    code, out, _ = run(capsys, "census", "ab-p", "15", "3", "--f", str(poly),
                       "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["failing"] == 3
    assert obj["total"] == 9


def test_census_ab_p_enumerates_once(tmp_path, capsys):
    poly = tmp_path / "f.poly"
    f = ModPoly(341, [1, 0, 1])
    poly.write_text(f.to_line() + "\n")
    with count_operations() as census_ops:
        ab_failure_census_mod_p(341, 11, f)
    with count_operations() as cli_ops:
        code, _, _ = run(capsys, "census", "ab-p", "341", "11", "--f", str(poly))
    assert code == 0
    assert cli_ops.poly_mults < 1.5 * census_ops.poly_mults


def test_census_ab_p_root_count_mismatch(tmp_path, capsys, monkeypatch):
    poly = tmp_path / "f.poly"
    poly.write_text(ModPoly(15, [1, 0, 1]).to_line() + "\n")
    monkeypatch.setattr("abprime.cli.root_count_in_extension", lambda n, p, f: 4)
    code, _, err = run(capsys, "census", "ab-p", "15", "3", "--f", str(poly))
    assert code == 5
    assert "root-count mismatch: 3 != 4" in err


def test_census_ab_p_work_cap_is_usage_error(tmp_path, capsys):
    poly = tmp_path / "f.poly"
    poly.write_text(ModPoly(997, [-2, 0, 1]).to_line() + "\n")
    code, out, err = run(capsys, "census", "ab-p", "993012", "997", "--f", str(poly))
    assert code == 64
    assert out == ""
    assert "exceeds the limit" in err


def test_census_ab_n(tmp_path, capsys):
    poly = tmp_path / "f.poly"
    poly.write_text(ModPoly(15, [2, 1, 1]).to_line() + "\n")
    code, out, _ = run(capsys, "census", "ab-n", "15", "--f", str(poly), "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["total"] == 225


def test_census_class(capsys):
    code, out, _ = run(capsys, "census", "class", "--kmax", "9", "--json")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [obj["n"] for obj in lines] == [21, 133, 341]


def test_census_jobs_is_usage_error(capsys):
    code, _, _ = run(capsys, "census", "mr", "341", "--jobs", "2")
    assert code == 64


def test_bench_schema(capsys):
    code, out, _ = run(capsys, "bench", "--bits", "8,12", "--seed", "01",
                       "--trials", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "bits,T_mr,T_ab,R_mr,R_ab"
    assert len(lines) == 3
    for line in lines[1:]:
        bits, t_mr, t_ab, r_mr, r_ab = line.split(",")
        assert int(bits) in (8, 12)
        assert int(t_mr) > 0 and int(t_ab) > 0
        assert float(r_mr) > 0 and float(r_ab) > 0


def test_bench_usage(capsys):
    code, _, _ = run(capsys, "bench", "--bits", "2")
    assert code == 64


def test_bench_rejects_nonpositive_trials(capsys):
    # a usage error leaves stdout empty, not a CSV header without rows;
    # deg f = ceil((bits-1)^c) must stay below every N of that size
    for argv in (["--bits", "8", "--seed", "01", "--trials", "0"],
                 ["--bits", "8", "--seed", "01", "--trials", "-1"],
                 ["--bits", "4", "--seed", "1"],
                 ["--bits", "6", "--c", "3"],
                 ["--bits", "8", "--c", "0"]):
        code, out, _ = run(capsys, "bench", *argv)
        assert code == 64, argv
        assert out == "", argv


def test_large_c_is_usage_error(capsys):
    # floor_log2(N)^c overflows a float: a usage error, not a traceback
    # under the COMPOSITE exit code
    for argv in (["isprime", "97", "--c", "1000"],
                 ["bench", "--bits", "64", "--c", "1000"]):
        code, out, err = run(capsys, *argv)
        assert code == 64, argv
        assert out == "", argv
        assert err.startswith("error: ") and "overflows" in err, argv


def test_compute_ratio():
    assert compute_ratio(1000, Fraction(-2)) == 500
    assert compute_ratio(847000, Fraction(-847)) == 1000
    assert compute_ratio(7, Fraction(-2)) == Fraction(7, 2)
    with pytest.raises(ValueError):
        compute_ratio(1000, Fraction(2))
    # the same wall time is worth far more accuracy per run at -847
    assert compute_ratio(10**6, Fraction(-2)) / \
        compute_ratio(10**6, Fraction(-847)) == Fraction(847, 2)


def test_no_subcommand_is_usage_error(capsys):
    assert run(capsys, *[])[0] == 64


def test_readme_cli_examples_parse():
    # every command shown in README's CLI block must be accepted by the parser
    text = README.read_text()
    block = text[text.index("## CLI"):]
    block = block[block.index("```sh"):]
    block = block[:block.index("```", 5)]
    lines = [line.split("#")[0] for line in block.splitlines()
             if line.startswith("abprime ")]
    assert len(lines) >= 8
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])

"""The batch front-end: subcommands, exit codes, JSON report determinism."""

import json

import pytest

from rankin.arith import euler_phi
from rankin.cli import build_parser, main
from rankin.cosets import sl2_order
from rankin.forms import bundled_path

F11 = str(bundled_path("f11.eigenform"))
G26 = str(bundled_path("g26.eigenform"))


def test_qexp_prints_constant_term(capsys):
    rc = main(["qexp", "--family", "F", "--k", "2", "--alpha", "1/5",
               "--prec", "10"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("(-1/12)")
    assert out.count("q^") >= 9


def test_verify_norm_relations_core(capsys):
    rc = main(["verify-norm-relations"])
    out = capsys.readouterr().out
    assert rc == 0
    for ident in ("sp-rewrite", "higher-rewrite", "pstab-formula",
                  "A-ell-congruence", "composite-norms-a", "composite-norms-b",
                  "corestriction-specialization", "twist-system"):
        assert f"[PASS] {ident}" in out


def test_verify_single_identity(capsys):
    rc = main(["verify-norm-relations", "--identity", "sp-rewrite"])
    out = capsys.readouterr().out
    assert rc == 0 and out.count("[PASS]") == 1


def test_unknown_identity_is_usage_error(capsys):
    rc = main(["verify-norm-relations", "--identity", "no-such-identity"])
    assert rc == 2


def test_example_parses_each_form_once(monkeypatch, capsys):
    import rankin.catalog
    import rankin.forms
    parse, parsed = rankin.forms.parse_eigenform, []

    def counting(text):
        parsed.append(text)
        return parse(text)

    monkeypatch.setattr(rankin.forms, "parse_eigenform", counting)
    rankin.catalog._load_form.cache_clear()
    assert main(["example-7-5"]) == 0
    capsys.readouterr()
    assert len(parsed) == 2


def test_dist_check(capsys):
    rc = main(["dist-check", "--m", "2", "--N", "5", "--c", "7",
               "--prec", "40"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("[PASS]") == 3


def test_hecke_check(capsys):
    rc = main(["hecke-check", "--level", "5", "--prime", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[PASS] hecke-square" in out and "[PASS] iwahori-table" in out


# (N, p) -> the (rep, multiplicity, degree) of the S' and <p^-1> R_p
# constituents that hecke-check --json reports
HECKE_CONSTITUENTS = {
    (5, 2): [("[4 0; 35 1]", 1, 6), ("[64 2; 190 6]", 3, 1)],
    (5, 3): [("[9 0; 65 1]", 1, 12), ("[189 3; 375 6]", 4, 1)],
    (7, 2): [("[4 0; 49 1]", 1, 6), ("[88 2; 350 8]", 3, 1)],
    (7, 3): [("[9 0; 91 1]", 1, 12), ("[261 3; 1302 15]", 4, 1)],
    (11, 3): [("[9 0; 143 1]", 1, 12), ("[405 3; 1617 12]", 4, 1)],
}


@pytest.mark.parametrize("N,p", sorted(HECKE_CONSTITUENTS))
def test_hecke_check_json_constituents(tmp_path, capsys, N, p):
    out = tmp_path / "hecke.json"
    assert main(["hecke-check", "--level", str(N), "--prime", str(p),
                 "--json", str(out)]) == 0
    capsys.readouterr()
    square, iwahori = json.loads(out.read_text())["entries"]
    assert (square["status"], iwahori["status"]) == ("PASS", "PASS")
    assert square["witness"] == [
        {"cell": cell, "rep": rep, "multiplicity": mult, "degree": degree}
        for cell, (rep, mult, degree)
        in zip(("S'", "<p^-1> R_p"), HECKE_CONSTITUENTS[N, p])]


def test_otsuki_check(capsys):
    rc = main(["otsuki-check", "--m", "4", "--ell", "3"])
    assert rc == 0


def test_euler_factor_subcommand(capsys):
    f = str(bundled_path("f11.eigenform"))
    g = str(bundled_path("g26.eigenform"))
    rc = main(["euler-factor", "--f", f, "--g", g, "--prime", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "local factor at 3" in out and "PASS" in out


def test_missing_data_file_exit_3(capsys):
    g = str(bundled_path("g26.eigenform"))
    rc = main(["euler-factor", "--f", "/no/such/file", "--g", g,
               "--prime", "3"])
    assert rc == 3


def test_corrupt_data_file_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.eigenform"
    bad.write_text("level=11 weight=2 charmod=11 field=t\n1: 1\n2: -2\n"
                   "3: -1\n4: 5\n")
    g = str(bundled_path("g26.eigenform"))
    rc = main(["euler-factor", "--f", str(bad), "--g", g, "--prime", "3"])
    assert rc == 3


def test_hecke_check_at_level_one(capsys):
    for p in (2, 3):
        rc = main(["hecke-check", "--level", "1", "--prime", str(p)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[PASS] hecke-square" in out and "[PASS] iwahori-table" in out


@pytest.mark.parametrize("damage", ["missing", "recursion"])
def test_example_bad_data_exit_3(tmp_path, capsys, damage):
    (tmp_path / "f11.eigenform").write_text(open(F11).read())
    if damage == "recursion":
        text = open(G26).read()
        assert "\n25: -4\n" in text
        (tmp_path / "g26.eigenform").write_text(text.replace("\n25: -4\n", "\n25: -3\n"))
    rc = main(["example-7-5", "--data", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err.startswith("data error: ") and captured.err.count("\n") == 1
    assert ("g26.eigenform" if damage == "missing" else "(5, 2)") in captured.err


@pytest.mark.parametrize("damage", ["missing", "corrupt"])
def test_verify_bad_data_exit_3(tmp_path, capsys, damage):
    # the entries that read the forms would otherwise FAIL with the error
    (tmp_path / "f11.eigenform").write_text(open(F11).read())
    if damage == "corrupt":
        (tmp_path / "g26.eigenform").write_text(
            open(G26).read().replace("\n25: -4\n", "\n25: -3\n"))
    rc = main(["verify-norm-relations", "--all", "--data", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err.startswith("data error: ") and captured.err.count("\n") == 1
    assert ("g26.eigenform" if damage == "missing" else "(5, 2)") in captured.err


G26_HEADER = "level=26 weight=2 charmod=26 field=t^2+1"


@pytest.mark.parametrize("header", [
    "level=abc weight=2 charmod=26 field=t^2+1",
    "level=26 weight=2.5 charmod=26 field=t^2+1",
    "level=26 weight=2 charmod=x field=t^2+1",
    "level=-26 weight=2 charmod=26 field=t^2+1",   # read as level -26: PASS
    "level=0 weight=2 charmod=26 field=t^2+1",     # read as level 0: FAIL
    "level=26 weight=2 charmod=26 field=t^2+1 level=7",
    "level=26 weight=2 charmod=26 field=t^2+1 conductor=13",
    "level=26 weight=2 charmod=26 field=t^2+1 extra",
    "level=26 weight=2 charmod=26",
])
def test_bad_header_exit_3(tmp_path, capsys, header):
    # the header holds level, weight, charmod and field once each and
    # nothing else, with level, weight and charmod positive integers
    text = open(G26).read()
    lineno = text.splitlines().index(G26_HEADER) + 1
    (tmp_path / "f11.eigenform").write_text(open(F11).read())
    (tmp_path / "g26.eigenform").write_text(text.replace(G26_HEADER, header))
    rc = main(["verify-norm-relations", "--identity", "weil-bounds",
               "--data", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err.startswith(f"data error: line {lineno}: ")
    assert captured.err.count("\n") == 1


def test_example_prints_the_minimal_polynomial_of_its_degree(tmp_path, capsys):
    # with f11 in place of g26 the ratio has a cubic minimal polynomial
    for name in ("f11.eigenform", "g26.eigenform"):
        (tmp_path / name).write_text(open(F11).read())
    rc = main(["example-7-5", "--data", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "ratio: x^3 + (13/17)x^2 + (-13/17)x + -1\n" in out


def test_json_report_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        rc = main(["verify-norm-relations", "--identity", "sp-rewrite",
                   "--identity", "twist-system", "--json", str(p)])
        assert rc == 0
        capsys.readouterr()
    reports = []
    for p in paths:
        rep = json.loads(p.read_text())
        assert rep["schema"] == 1
        for e in rep["entries"]:
            e.pop("ms")
        reports.append(json.dumps(rep, sort_keys=True))
    assert reports[0] == reports[1]


def test_example_subcommand(capsys):
    rc = main(["example-7-5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "x^4 + (6/17)x^3 + (-21/17)x^2 + (6/17)x + 1" in out
    assert "scan" in out and "[5]" in out


@pytest.mark.parametrize("argv", [
    ["dist-check", "--m", "2", "--N", "5", "--c", "5"],
    ["dist-check", "--m", "0", "--N", "5", "--c", "7"],
    ["dist-check", "--m", "2", "--N", "0", "--c", "7"],
    ["dist-check", "--m", "2", "--N", "5", "--c", "7", "--prec", "-2"],
    ["qexp", "--family", "F", "--k", "2", "--alpha", "0"],
    ["qexp", "--family", "F", "--k", "2", "--alpha", "1/5", "--prec", "-3"],
    ["qexp", "--family", "F", "--k", "2", "--alpha", "1/5", "--prec", "-1"],
    ["qexp", "--family", "E", "--k", "2", "--alpha", "1/100003", "--prec", "3"],
    ["dist-check", "--m", "2", "--N", "100003", "--c", "7", "--prec", "3"],
    ["dist-check", "--m", "1", "--N", "1009", "--c", "7", "--prec", "3"],
    ["hecke-check", "--level", "0", "--prime", "2"],
    ["hecke-check", "--level", "-3", "--prime", "2"],
    ["hecke-check", "--level", "5", "--prime", "0"],
    ["hecke-check", "--level", "5", "--prime", "4"],
    ["hecke-check", "--level", "200", "--prime", "3"],
    ["hecke-check", "--level", "5", "--prime", "1000000000000000003"],
    ["otsuki-check", "--m", "0"],
    ["otsuki-check", "--m", "4", "--ell", "2"],
    ["otsuki-check", "--ell", "4"],
    ["otsuki-check", "--ell", "7"],
    ["otsuki-check", "--ell", "1000000000000000003"],
    ["euler-factor", "--f", F11, "--g", G26, "--prime", "11"],
    ["euler-factor", "--f", F11, "--g", G26, "--prime", "4"],
    ["euler-factor", "--f", F11, "--g", G26, "--prime", "127"],
    ["verify-norm-relations", "--identity", "no-such-identity"],
])
def test_parameter_errors_exit_2(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert captured.err.count("\n") == 1


def test_size_bounds_that_reject_before_factoring():
    # hecke-check rejects N p^2 = m with m^3 > 2 * bound, otsuki-check
    # m * ell > 512, before the primality test of a possibly huge prime
    for n in range(1, 2001):
        assert sl2_order(n) > n ** 3 / 2
        assert euler_phi(n) ** 2 >= n / 2


def test_options_a_command_does_not_read_exit_2(tmp_path, capsys):
    out = tmp_path / "q.json"
    for argv in (["qexp", "--family", "F", "--k", "2", "--alpha", "1/5",
                  "--json", str(out)],
                 ["hecke-check", "--level", "5", "--prime", "2", "--prec", "7",
                  "--guard", "3", "--seed", "9", "--data", "/nonexistent"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


_REQUIRED = {
    "verify-norm-relations": [],
    "qexp": ["--k", "2"],
    "dist-check": ["--m", "2", "--N", "5", "--c", "7"],
    "hecke-check": ["--level", "5", "--prime", "2"],
    "euler-factor": ["--f", F11, "--g", G26, "--prime", "3"],
    "example-7-5": [],
    "otsuki-check": [],
}
_READS = {
    "verify-norm-relations": {"json", "prec", "seed", "data", "guard"},
    "qexp": {"prec"},
    "dist-check": {"json", "prec"},
    "example-7-5": {"json", "data"},
    "hecke-check": {"json"},
    "euler-factor": {"json"},
    "otsuki-check": {"json"},
}


@pytest.mark.parametrize("command", sorted(_REQUIRED))
@pytest.mark.parametrize("option", ["json", "prec", "seed", "data", "guard"])
def test_each_command_accepts_exactly_the_options_it_reads(command, option,
                                                           capsys):
    argv = [command, *_REQUIRED[command], f"--{option}", "1"]
    if option in _READS[command]:
        assert getattr(build_parser().parse_args(argv), option) in ("1", 1)
    else:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_zero_denominator_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["qexp", "--family", "F", "--k", "2", "--alpha", "1/0"])
    assert exc.value.code == 2


def test_dist_check_runs_requested_precision(monkeypatch, capsys):
    import rankin.siegel
    seen = []

    def record(alpha, beta, M, c, prec):
        seen.append(prec)
        return True, None

    monkeypatch.setattr(rankin.siegel, "distribution_check", record)
    rc = main(["dist-check", "--m", "2", "--N", "5", "--c", "7",
               "--prec", "250"])
    assert rc == 0
    assert seen == [250, 250, 250]


def test_precision_error_in_a_check_is_not_a_usage_error(monkeypatch):
    import rankin.siegel
    from rankin.qseries import PrecisionError

    def fail(*args):
        raise PrecisionError("coefficient beyond the window")

    monkeypatch.setattr(rankin.siegel, "distribution_check", fail)
    with pytest.raises(PrecisionError):
        main(["dist-check", "--m", "2", "--N", "5", "--c", "7"])

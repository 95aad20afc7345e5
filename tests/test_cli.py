"""Command line behavior: exit codes, text output, JSON reports."""

import json
import os
import subprocess
import sys

import pytest

from lgmirror import cli, critical, ladder, potentials
from lgmirror.cli import main, parse_pairs
from lgmirror.report import Report, Verdict


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- argument handling -----------------------------------------------------


def test_parse_pairs():
    assert parse_pairs("1,2") == ((1, 2),)
    assert parse_pairs("3,4;1,2") == ((3, 4), (1, 2))
    assert parse_pairs("1,2;1,2") == ((1, 2), (1, 2))
    assert parse_pairs(None) == ()
    assert parse_pairs("") == ()


def test_parse_pairs_rejects_garbage():
    with pytest.raises(Exception):
        parse_pairs("nope")


def test_missing_subcommand_is_an_argparse_error():
    with pytest.raises(SystemExit):
        main([])


def test_bad_pairs_flag_is_an_argparse_error():
    with pytest.raises(SystemExit):
        main(["charts", "--n", "4", "--pairs", "nope"])


def test_parser_is_built_once_and_not_at_import(capsys):
    cli.build_parser.cache_clear()
    argv = ["potential", "--model", "gr", "--n", "5", "--pairs", "1,2"]
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert cli.build_parser.cache_info().misses == 1
    assert first == second
    assert first[0] == 0 and "term-count" in first[1]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = "import lgmirror.cli as c; print(c.build_parser.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0"


def _fresh_python(*args) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


@pytest.mark.parametrize("module", ["lgmirror.cli", "lgmirror"])
def test_importing_the_package_loads_no_numeric_solver(module):
    probe = (
        f"import sys, {module}; "
        "print(sorted({'numpy', 'lgmirror.critical'} & set(sys.modules)))"
    )
    out = _fresh_python("-c", probe)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_critical_runs_from_a_fresh_process(tmp_path):
    path = tmp_path / "og15.json"
    out = _fresh_python("-m", "lgmirror.cli", "critical", "--model", "og15", "--json", str(path))
    assert out.returncode == 0, out.stderr
    assert json.loads(path.read_text())["passed"] is True


def test_missing_n_reports_cli_error(capsys):
    code, _, err = run(capsys, ["faces"])
    assert code == 2
    assert "--n" in err


def test_unknown_model_reports_cli_error(capsys):
    code, _, err = run(capsys, ["potential", "--model", "frog", "--n", "4"])
    assert code == 2
    assert "unknown model" in err
    for argv in (["critical", "--model", "frog"], ["verify", "koszul", "--model", "frog"]):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert "unknown model" in err
        assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["charts", "--n", "3"],
        ["potential", "--model", "gr", "--n", "3"],
        ["verify", "covering", "--n", "2"],
        ["verify", "covering", "--n", "3"],
        ["faces", "--n", "3"],
        ["verify", "cocycle", "--model", "gr", "--n", "3"],
        ["charts", "--n", "6", "--pairs", "1,2;2,3"],
        ["verify", "cocycle", "--model", "gr", "--n", "6", "--pairs", "9,10"],
        ["verify", "covering", "--n", "5", "--samples", "-3"],
        ["verify", "covering", "--n", "5", "--samples", "0"],
        # a series cut-off below 1
        ["expand", "--model", "og15", "--order", "0"],
        ["expand", "--model", "gr", "--order", "-3"],
        # flags the subcommand does not declare; argparse rejects them
        ["faces", "--n", "4", "--pairs", "9,10"],
        ["faces", "--n", "4", "--pairs", "1,2"],
        ["expand", "--model", "gr", "--n", "5"],
        ["critical", "--model", "og15", "--order", "3"],
        # a model the command does not serve, or an --n or --pairs it has none of
        ["verify", "koszul", "--model", "local"],
        ["verify", "koszul", "--model", "frog"],
        ["verify", "koszul", "--model", "gr", "--n", "9"],
        ["verify", "covering", "--model", "og15", "--n", "5"],
        ["verify", "cocycle", "--model", "og15", "--n", "9"],
        ["verify", "cocycle", "--model", "local", "--n", "9"],
        ["critical", "--model", "og15", "--n", "9"],
        ["rietsch", "--model", "og15", "--n", "9"],
        ["verify", "rietsch", "--model", "og15", "--n", "9", "--pairs", "1,2"],
        ["potential", "--model", "og15", "--n", "9", "--pairs", "1,2"],
        ["potential", "--model", "og14", "--n", "9", "--pairs", "1,2"],
        # --seed and --samples belong to verify covering alone
        ["verify", "cocycle", "--model", "local", "--seed", "7", "--samples", "3"],
        ["verify", "cocycle", "--model", "local", "--seed", "7"],
        ["verify", "transport", "--model", "og15", "--samples", "3"],
        ["verify", "rietsch", "--model", "gr", "--n", "4", "--pairs", "1,2", "--seed", "7"],
        ["verify", "koszul", "--model", "gr", "--samples", "3"],
        # potentials without a quantum parameter take no --q
        ["potential", "--model", "og15", "--q", "7"],
        ["potential", "--model", "og14", "--q", "7"],
        # a series cut-off at or below the series' lowest valuation
        ["expand", "--model", "gr", "--order", "1"],
        ["expand", "--model", "og15", "--order", "1"],
        ["expand", "--model", "og15", "--order", "2"],
        # a negative solver seed
        ["critical", "--model", "og15", "--seed", "-1"],
        # critical takes no quantum parameter; argparse rejects the flag
        ["critical", "--model", "og15", "--q", "1"],
        ["critical", "--model", "og15", "--q", "2"],
    ],
)
def test_invalid_size_or_pairs_exit_2(capsys, argv):
    try:
        code, out, err = run(capsys, argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        code, out, err = exc.code, captured.out, captured.err
        assert err.startswith("usage: ")
        assert "error: unrecognized arguments: " in err
    else:
        assert err.startswith("error: ")
    assert code == 2
    assert out == ""
    if "--seed" in argv:
        assert "seed" in err


# -- informational commands ------------------------------------------------


def test_faces_small_census(capsys):
    code, out, _ = run(capsys, ["faces", "--n", "4"])
    assert code == 0
    assert "39 faces, 2 Lagrangian" in out
    assert "T^4" in out
    assert "S^3 x S^1" in out


def test_faces_census_is_a_count_not_a_verdict(capsys, tmp_path):
    path = tmp_path / "faces.json"
    code, out, _ = run(capsys, ["faces", "--n", "4", "--json", str(path)])
    assert code == 0
    assert out.startswith("faces of the ladder polytope, n = 4: 39 faces, 2 Lagrangian\n")
    report = json.loads(path.read_text())
    assert report["artifacts"]["census"] == 39
    names = [v["name"] for r in report["reports"] for v in r["verdicts"]]
    assert names and "census" not in names


def test_charts_prints_bindings(capsys):
    code, out, _ = run(capsys, ["charts", "--n", "4", "--pairs", "1,2"])
    assert code == 0
    assert "u1 = p_1,3*p_2,3^-1" in out
    assert "quantum power 4" in out


def test_potential_counts_surgered_terms(capsys):
    code, out, _ = run(
        capsys, ["potential", "--model", "gr", "--n", "6", "--pairs", "2,3"]
    )
    assert code == 0
    assert "10 terms, surgery removes six and inserts four per pair" in out


def test_potential_torus_when_no_pairs(capsys):
    code, out, _ = run(capsys, ["potential", "--model", "gr", "--n", "4"])
    assert code == 0
    assert "6 terms" in out


def test_potential_og_models(capsys):
    code, out, _ = run(capsys, ["potential", "--model", "og15"])
    assert code == 0
    assert "3 terms, one per summand of the og(1,5) homogeneous potential" in out


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["potential", "--model", "og14"], "unknown model 'og14'"),
        (["charts", "--n", "6", "--pairs", "1,2;1,2"], "listed twice"),
        (["verify", "rietsch", "--model", "gr", "--n", "6", "--pairs", "1,2;1,2"], "listed twice"),
        (["potential", "--model", "gr", "--n", "6", "--pairs", "1,2;3,4;1,2"], "listed twice"),
    ],
)
def test_rejected_inputs_name_the_reason(capsys, argv, reason):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert reason in err


def test_a_report_without_verdicts_fails():
    assert not Report("t", ()).passed
    assert Report("t", (Verdict("v", True),)).passed


def test_potential_quantum_substitution_guard(capsys):
    code, _, err = run(capsys, ["potential", "--model", "gr", "--n", "4", "--q", "2"])
    assert code == 2
    assert "n-th root" in err
    code, out, _ = run(capsys, ["potential", "--model", "gr", "--n", "4", "--q", "1"])
    assert code == 0
    assert "T" not in out.split("\n")[1]


def test_rietsch_gr_term_count(capsys):
    code, out, _ = run(capsys, ["rietsch", "--model", "gr", "--n", "5"])
    assert code == 0
    assert "5 summands" in out


def test_rietsch_og15(capsys):
    code, out, _ = run(capsys, ["rietsch", "--model", "og15"])
    assert code == 0
    assert "p2^2" in out


def test_rietsch_quantum_value(capsys):
    code, out, _ = run(capsys, ["rietsch", "--model", "gr", "--n", "4", "--q", "3"])
    assert code == 0
    assert "q" not in out.split("\n")[1]


# -- verification commands -------------------------------------------------


def test_verify_rietsch_gr24(capsys):
    code, out, _ = run(
        capsys, ["verify", "rietsch", "--model", "gr", "--n", "4", "--pairs", "1,2"]
    )
    assert code == 0
    assert "floer-equals-homogeneous" in out


@pytest.mark.deadline(20)
def test_verify_rietsch_gr20_maximal_chart(capsys, deadline):
    pairs = ";".join(f"{i},{i + 1}" for i in range(1, 19, 2))
    code, out, _ = run(
        capsys, ["verify", "rietsch", "--model", "gr", "--n", "20", "--pairs", pairs]
    )
    assert code == 0
    assert "floer-equals-homogeneous" in out
    assert "PASS" in out


def test_verify_rietsch_og15(capsys):
    code, out, _ = run(capsys, ["verify", "rietsch", "--model", "og15"])
    assert code == 0


def _clear_facet_caches():
    for cached in (
        potentials._facet_terms,
        potentials._pushed_torus_terms,
        potentials._restricted_terms,
        potentials._restricted_checked,
    ):
        cached.cache_clear()


@pytest.fixture
def corrupt_facet(monkeypatch):
    """Replace one facet of the gr(2,6) moment polytope, everywhere it is read."""
    original = ladder.moment_inequalities

    def corrupt(k, facet):
        labels, ineqs, pinned = original(6)
        bad = ineqs[:k] + (facet(*ineqs[k]),) + ineqs[k + 1:]

        def patched(n):
            return (labels, bad, pinned) if n == 6 else original(n)

        for module in (ladder, cli, potentials):
            monkeypatch.setattr(module, "moment_inequalities", patched)
        _clear_facet_caches()

    yield corrupt
    _clear_facet_caches()


def _floor_up(c, b):
    return c, b + 1


def _top_down(c, b):
    return c, b - 1


def _negated(c, b):
    return tuple(-x for x in c), -b


# facet 3 is the top facet -x_{1,4} + 4, facet 11 the floor x_{2,1} + 2
@pytest.mark.parametrize(
    "k, facet",
    [(11, _floor_up), (3, _top_down)] + [(k, _negated) for k in (0, 3, 4, 7, 8, 11)],
)
def test_a_corrupted_facet_fails_the_verdicts(capsys, corrupt_facet, k, facet):
    corrupt_facet(k, facet)
    pairs = ["--pairs", "1,2;3,4"]
    code, out, err = run(capsys, ["verify", "rietsch", "--model", "gr", "--n", "6"] + pairs)
    assert code != 0
    assert "FAIL  floer-equals-homogeneous" in out or "T-power" in err
    # the monotone verdicts check every facet's distance from the point,
    # so they see the floor move even though no Lagrangian face lies on it
    code, out, _ = run(capsys, ["faces", "--n", "6"])
    assert code != 0 and "FAIL  monotone[" in out


def test_verify_cocycle_local_model(capsys):
    code, out, _ = run(capsys, ["verify", "cocycle", "--model", "local"])
    assert code == 0
    assert "roundtrip" in out


def test_verify_cocycle_og15(capsys):
    code, out, _ = run(capsys, ["verify", "cocycle", "--model", "og15"])
    assert code == 0


def test_verify_transport_product_atlas(capsys):
    code, out, _ = run(capsys, ["verify", "transport", "--model", "gr", "--n", "6"])
    assert code == 0
    assert "transport" in out


@pytest.mark.deadline(20)
def test_verify_transport_gr13(capsys, deadline):
    code, out, _ = run(capsys, ["verify", "transport", "--model", "gr", "--n", "13"])
    assert code == 0
    assert "ok: 128/128 checks" in out


@pytest.mark.parametrize("check", ["cocycle", "transport"])
def test_verify_gr24_reads_the_tree_atlas(capsys, tmp_path, check):
    path = tmp_path / "atlas.json"
    argv = ["verify", check, "--model", "gr", "--n", "4", "--json", str(path)]
    code, out, _ = run(capsys, argv)
    assert code == 0
    (report,) = json.loads(path.read_text())["reports"]
    assert report["title"] == f"{check}[gr(2,4)-tree]"
    if check == "transport":
        assert len(report["verdicts"]) == 8


def test_seed_echoed_only_where_read(capsys, tmp_path):
    path = tmp_path / "run.json"
    for argv, seed in [
        (["verify", "cocycle", "--model", "local"], None),
        (["verify", "covering", "--n", "5", "--samples", "5"], 42),
        (["verify", "covering", "--n", "5", "--samples", "5", "--seed", "7"], 7),
    ]:
        assert run(capsys, argv + ["--json", str(path)])[0] == 0
        assert json.loads(path.read_text())["inputs"].get("seed") == seed, argv


def test_verify_koszul_writes_cofactors(capsys, tmp_path):
    path = tmp_path / "koszul.json"
    code, out, _ = run(
        capsys, ["verify", "koszul", "--model", "gr", "--json", str(path)]
    )
    assert code == 0
    data = json.loads(path.read_text())
    assert data["schema"] == "run-report/1"
    assert data["artifacts"]["koszul"]["schema"] == "koszul/1"
    assert len(data["artifacts"]["koszul"]["cofactors"]) == 4
    assert data["artifacts"]["koszul"]["symbol"] == "s"


def test_verify_covering_seed_reproducible(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "covering", "--n", "5", "--samples", "40", "--seed", "9"]
    assert run(capsys, argv + ["--json", str(a)])[0] == 0
    assert run(capsys, argv + ["--json", str(b)])[0] == 0
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    assert da["reports"] == db["reports"]
    assert da["artifacts"] == db["artifacts"]


def test_verify_covering_n6(capsys):
    code, out, _ = run(
        capsys, ["verify", "covering", "--n", "6", "--samples", "25", "--seed", "1"]
    )
    assert code == 0
    assert "case-analysis" in out


def test_critical_og15_json(capsys, tmp_path):
    path = tmp_path / "crit.json"
    code, out, _ = run(capsys, ["critical", "--model", "og15", "--json", str(path)])
    assert code == 0
    data = json.loads(path.read_text())
    assert data["passed"] is True
    assert len(data["artifacts"]["points"]) == 4
    assert len(data["reports"]) == 2
    assert data["inputs"]["seed"] == 42
    assert list(data["timings"]) == ["atlas", "closed_form", "solve", "total"]


def test_critical_rejects_other_sizes(capsys):
    code, _, err = run(capsys, ["critical", "--model", "gr", "--n", "6"])
    assert code == 2
    assert "gr(2,4)" in err


def test_expand_gr_pattern(capsys):
    code, out, _ = run(capsys, ["expand", "--model", "gr", "--order", "10"])
    assert code == 0
    assert "T^1: -v*z0^-1" in out
    assert "T^9: -u^4*v^5*z0^-1" in out


def test_expand_og15_pattern(capsys):
    code, out, _ = run(capsys, ["expand", "--model", "og15", "--order", "5"])
    assert code == 0
    assert "T^2: -u^2*z0^-1" in out
    assert "T^4: -u^3*v*z0^-1" in out


def test_expand_longer_order_still_matches(capsys):
    code, out, _ = run(capsys, ["expand", "--model", "gr", "--order", "16"])
    assert code == 0
    assert "T^15" in out


def test_expand_empty_series_is_invalid_input(capsys, tmp_path):
    path = tmp_path / "expand.json"
    code, out, err = run(capsys, ["expand", "--model", "gr", "--order", "1", "--json", str(path)])
    assert code == 2
    assert out == ""
    assert err == "error: the series has no terms below the cut-off --order 1\n"
    assert not path.exists()


# -- report plumbing -------------------------------------------------------


def test_json_report_includes_timings(capsys, tmp_path):
    path = tmp_path / "faces.json"
    run(capsys, ["faces", "--n", "4", "--json", str(path)])
    data = json.loads(path.read_text())
    assert list(data["timings"]) == ["enumerate", "check", "total"]
    assert data["command"] == "faces"


def test_critical_solves_each_chart_once(capsys, monkeypatch):
    calls = []
    original = critical.solve

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(critical, "solve", counted)
    code, _, _ = run(capsys, ["critical", "--model", "gr", "--n", "4"])
    assert code == 0
    assert len(calls) == 4  # one solve per chart of the gr(2,4) atlas


def test_gr24_critical_via_cli(capsys):
    code, out, _ = run(capsys, ["critical", "--model", "gr", "--n", "4"])
    assert code == 0
    assert "6 deduplicated points" in out

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import altspectra
from altspectra import cayley, cli, verify
from altspectra.cli import emit, main
from altspectra.verify import CheckResult, VerificationReport


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gap_text_prints_the_number(capsys):
    code, out, _ = run(capsys, "gap", "--family", "CAG", "--n", "6")
    assert code == 0
    assert out.strip() == "24"


def test_gap_json(capsys):
    code, out, _ = run(capsys, "gap", "--family", "AG", "--n", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["gap"] == 2.0
    assert '"gap":2.0' in out


def test_verify_json_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--family", "AG", "--n", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["overall"] is True
    assert list(data) == ["family", "n", "seed", "block", "checks", "overall"]
    assert (data["seed"], data["block"]) == (42, 1)


def test_verify_output_is_byte_identical(capsys):
    args = ("verify", "--family", "EAG", "--n", "4", "--seed", "42", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_json_reparses_to_same_report(capsys):
    _, out, _ = run(capsys, "verify", "--family", "CAG", "--n", "4", "--format", "json")
    data = json.loads(out)
    assert emit(data, "json") == out


def test_csv_header(capsys):
    code, out, _ = run(capsys, "verify", "--family", "AG", "--n", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "name,predicted,observed,tolerance,pass"
    assert "\r" not in out


def test_csv_of_empty_checks_is_just_the_header():
    assert emit({"checks": []}, "csv") == "name,predicted,observed,tolerance,pass\n"


def test_csv_of_scalar_report_keeps_the_values(capsys):
    code, out, _ = run(capsys, "gap", "--family", "AG", "--n", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,predicted,observed,tolerance,pass"
    assert "gap,,2,," in lines


def test_emit_rounds_to_twelve_significant_digits():
    text = emit({"value": 1.23456789012345678}, "json")
    assert json.loads(text)["value"] == 1.23456789012


def test_spectrum_verb(capsys):
    code, out, _ = run(capsys, "spectrum", "--family", "CAG", "--n", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["integral"] is True
    assert data["lambda1"] == 8.0


@pytest.mark.parametrize(
    "source",
    [("--family", "AG"), ("--family", "CAG"), ("--gens", "(1,2,3),(1,3,2),(1,2,3,4,5),(1,5,4,3,2)")],
)
def test_spectrum_tol_bounds_only_the_residual(capsys, source):
    # Clusters, multiplicities and the integral flag keep their fixed
    # resolution: a fine or a coarse --tol prints the default bytes.  The
    # 3-cycle plus 5-cycle set has irrational eigenvalues, so not integral.
    argv = ("spectrum", *source, "--n", "6", "--format", "json")
    code, default, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(default)["integral"] is (source[0] == "--family")
    for tol in ("1e-13", "0.02", "0.5"):
        assert run(capsys, *argv, "--tol", tol) == (0, default, "")


def test_divisor_verb(capsys):
    code, out, _ = run(capsys, "divisor", "--family", "EAG", "--n", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["entries"][0] == [0, 2, 2, 2]
    assert data["eigenvalues"] == [6, 1, 1, -2]
    assert '"eigenvalues":[6,1,1,-2]' in out


def test_cut_verb(capsys):
    code, out, _ = run(capsys, "cut", "--family", "EAG", "--n", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ratio"] == "6"
    assert data["boundary"] == 72


def test_hmin_verb(capsys):
    code, out, _ = run(capsys, "hmin", "--family", "AG", "--n", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["h"] == "4/3"
    assert data["witness"] == [0, 1, 3, 5, 7, 9]


def test_decompose_verb(capsys):
    code, out, _ = run(capsys, "decompose", "--family", "EAG", "--n", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["overall"] is True


@pytest.mark.parametrize(
    "family,built",
    [
        ("AG", [("AG", 6), ("AG", 5)]),
        # The spanning AG_6 or EAG_6 is a view of the family graph's first rows.
        ("EAG", [("EAG", 6), ("EAG", 5)]),
        ("CAG", [("CAG", 6), ("CAG", 5)]),
    ],
)
def test_decompose_builds_each_graph_once(capsys, monkeypatch, family, built):
    calls = []
    build = verify.build_family

    def counted(family, n, **kwargs):
        calls.append((family, n))
        return build(family, n, **kwargs)

    monkeypatch.setattr(verify, "build_family", counted)
    code, _, _ = run(capsys, "decompose", "--family", family, "--n", "6")
    assert code == 0
    assert calls == built


def test_build_with_custom_generators(capsys):
    code, out, _ = run(
        capsys, "build", "--gens", "(1,2,3),(1,3,2)", "--n", "4", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 2
    assert data["connected"] is False


def test_gens_are_parsed_once_per_job(capsys, monkeypatch):
    calls = []
    parse = cli.parse_generator_list

    def counted(text, n):
        calls.append((text, n))
        return parse(text, n)

    monkeypatch.setattr(cli, "parse_generator_list", counted)
    gens = "(1,2,3),(1,3,2),(1,2,4),(1,4,2),(1,2,5),(1,5,2),(1,2,6),(1,6,2)"
    code, out, _ = run(capsys, "gap", "--gens", gens, "--n", "6")
    assert code == 0 and out.strip()
    assert calls == [(gens, 6)]


def test_build_export_edges(tmp_path, capsys):
    path = tmp_path / "edges.txt"
    code, out, err = run(
        capsys, "build", "--family", "AG", "--n", "4", "--export-edges", str(path), "--format", "json"
    )
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# family=AG n=4")
    assert "written" in err
    assert json.loads(out)["edges"] == len(lines) - 1


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_build_export_edges_to_an_unwritable_path_is_a_usage_error(tmp_path, capsys, where):
    path = tmp_path / "no" / "such" / "edges.txt" if where == "missing directory" else tmp_path
    code, out, err = run(capsys, "build", "--family", "AG", "--n", "4", "--export-edges", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("gap", "--n", "4"),  # no family or gens
        ("gap", "--family", "AG", "--gens", "(1,2,3)", "--n", "4"),  # both
        ("gap", "--family", "AG", "--n", "2"),  # n too small
        ("gap", "--family", "AG", "--n", "13"),  # n too large
        ("verify", "--gens", "(1,2,3),(1,3,2)", "--n", "4"),  # verify needs a family
        ("gap", "--gens", "(1,2,", "--n", "4"),  # malformed cycles
        ("gap", "--family", "AG", "--n", "11", "--block", "99"),  # bad block, big n
        ("cut", "--gens", "(1,2,3),(1,3,2)", "--n", "4"),  # cut needs a family
        ("verify", "--family", "AG", "--n", "5", "--tol", "inf"),  # infinite tolerance
        ("verify", "--family", "AG", "--n", "5", "--tol", "1e6"),  # tolerance past 1/2
        ("gap", "--family", "AG", "--n", "5", "--tol", "inf", "--format", "json"),
        ("gap", "--family", "AG", "--n", "5", "--tol", "nan"),  # not a number
        ("gap", "--family", "AG", "--n", "5", "--seed", "-1"),  # negative seed
        ("verify", "--family", "AG", "--n", "5", "--seed", "-3"),
        ("verify", "--family", "AG", "--n", "5", "--export-edges", "x"),  # build only
    ],
)
def test_usage_errors_exit_2_before_computation(capsys, monkeypatch, argv):
    def no_build(*args, **kwargs):
        raise AssertionError("a usage error must be reported before any graph is built")

    monkeypatch.setattr(cayley, "build_cayley", no_build)
    monkeypatch.setattr(cli, "build_cayley", no_build)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.strip()


def test_verify_runs_at_a_loose_tol_below_half(capsys):
    code, out, _ = run(capsys, "verify", "--family", "AG", "--n", "5", "--tol", "0.4", "--format", "json")
    assert code == 0
    assert json.loads(out)["overall"] is True


def test_loose_tol_raises_no_disconnected_warning(capsys):
    # lambda2 = 2 and degree 4 lie 2 apart, far outside the residual
    # interval of 0.4; any warning becomes an error here.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "verify", "--family", "AG", "--n", "4", "--tol", "0.4")
    assert code == 0
    assert err == ""


def test_library_warning_is_one_line_on_stderr(capsys):
    # (1,2,3) alone generates A_3 on 3 of the 5 points: a disconnected graph.
    code, out, err = run(capsys, "gap", "--gens", "(1,2,3),(1,3,2)", "--n", "5")
    assert code == 0
    assert err == "warning: second eigenvalue equals the degree; the graph is likely disconnected\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("decompose", "--family", "AG", "--n", "3"),
        ("decompose", "--family", "EAG", "--n", "3"),
        ("decompose", "--family", "CAG", "--n", "3"),
        ("divisor", "--family", "AG", "--n", "3"),
    ],
)
def test_handler_value_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "family,names",
    [
        ("AG", ["matchings", "subgraph_isomorphism"]),
        ("EAG", ["edge_decomposition", "subgraph_isomorphism"]),
        ("CAG", ["edge_decomposition", "subgraph_isomorphism"]),
    ],
)
def test_decompose_reports_the_structural_rows_of_verify(capsys, family, names):
    argv = ("--family", family, "--n", "6", "--block", "3", "--format", "json")
    checks = json.loads(run(capsys, "decompose", *argv)[1])["checks"]
    rows = {check["name"]: check for check in json.loads(run(capsys, "verify", *argv)[1])["checks"]}
    assert [check["name"] for check in checks] == names
    assert checks == [rows[name] for name in names]


def test_unknown_flag_exits_2(capsys):
    assert run(capsys, "gap", "--family", "AG", "--n", "4", "--bogus")[0] == 2


def test_cap_exceeded_exits_3(capsys):
    # Each message names what lifts its cap: --max-order, or nothing.
    for lifted_by, *argv in (
        ("--max-order", "spectrum", "--family", "AG", "--n", "7", "--max-order", "100"),
        ("--max-order", "cut", "--family", "AG", "--n", "5", "--max-order", "0"),
        # A raised graph cap still meets the enumeration cap above n = 10.
        ("fixed", "build", "--family", "AG", "--n", "11", "--max-order", "1000000000"),
        ("fixed", "cut", "--family", "CAG", "--n", "12", "--max-order", "1000000000"),
        # --max-order caps only the graph order: the work caps are fixed, and
        # every verb builds within it.
        ("fixed", "hmin", "--family", "AG", "--n", "5", "--max-order", "60"),
        ("fixed", "spectrum", "--family", "AG", "--n", "8", "--max-order", "20160"),
        ("--max-order", "decompose", "--family", "AG", "--n", "7", "--max-order", "100"),
        ("--max-order", "verify", "--family", "AG", "--n", "7", "--max-order", "100"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert "cap" in err and lifted_by in err


@pytest.mark.parametrize(
    "argv",
    [
        ("hmin", "--family", "AG", "--n", "5", "--max-order", "60"),
        ("spectrum", "--family", "AG", "--n", "8", "--max-order", "20160"),
        ("spectrum", "--family", "CAG", "--n", "10", "--max-order", "2000000"),
    ],
)
def test_fixed_caps_refuse_before_the_build(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("built a graph the fixed cap refuses")

    monkeypatch.setattr(cli, "build_family", refuse)
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert "cap" in err and "fixed" in err


def test_verify_leaves_numpy_ma_unimported():
    # A plain np.unique imports numpy.ma, about 17 ms of every CLI job, and
    # np.random.default_rng imports numpy.random with secrets, 15-22 ms more.
    script = (
        "import contextlib, io, sys\n"
        "from altspectra.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main([verb, '--family', f, '--n', '5'])\n"
        "             for verb in ('verify', 'gap') for f in ('AG', 'EAG', 'CAG')]\n"
        "print(codes, [m for m in ('numpy.ma', 'numpy.random', 'secrets') if m in sys.modules])\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.stdout == "[0, 0, 0, 0, 0, 0] []\n", result.stderr


def test_spectrum_stdout_does_not_depend_on_blas_threads():
    # The solve diagonalizes the k x k refinement quotient, k <= 28 here:
    # small enough that one and two BLAS threads print the same bytes.
    gens = (
        "(1,2,3),(1,3,2)",
        "(2,3,4),(2,4,3),(1,2)(3,4)",
        "(1,2,3),(1,3,2),(1,3,4),(1,4,3),(2,3,4),(2,4,3)",
    )
    argvs = [["spectrum", "--family", f, "--n", "7"] for f in ("AG", "EAG", "CAG")]
    argvs += [["spectrum", "--gens", g, "--n", "6", "--format", "json"] for g in gens]
    script = f"from altspectra.cli import main\nprint([main(argv) for argv in {argvs!r}])\n"
    src = str(Path(altspectra.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = [
        subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": threads},
            timeout=300,
        )
        for threads in ("1", "2")
    ]
    assert [r.stdout.splitlines()[-1] for r in outputs] == [str([0] * len(argvs))] * 2, outputs
    assert outputs[0].stdout == outputs[1].stdout


def test_verification_failure_exits_1(capsys, monkeypatch):
    import altspectra.cli as cli_mod

    def fake_verify(family, n, **kwargs):
        report = VerificationReport(family=family, n=n, seed=42, block=1)
        report.checks.append(
            CheckResult(
                name="forced", ref="r", predicted=1, observed=2,
                tolerance=None, passed=False, millis=0.0,
            )
        )
        return report

    monkeypatch.setattr(cli_mod, "verify_family", fake_verify)
    code, out, _ = run(capsys, "verify", "--family", "AG", "--n", "4", "--format", "json")
    assert code == 1
    assert json.loads(out)["overall"] is False

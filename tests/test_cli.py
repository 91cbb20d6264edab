import csv
import inspect
import itertools
import json
import math
import time
import warnings

import numpy as np
import pytest

from qflag import cli, hp1geom
from qflag.decomp import bruhat
from qflag.flags import random_ru
from qflag.hmat import Permutation, QMatrix, random_symplectic
from qflag.quat import Quaternion

from util import from_rows, random_invertible, reconstruct


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def inputs(tmp_path):
    """Paths of the matrix files that argv templates name in braces."""
    rng = np.random.default_rng(17)
    mats = {"g": random_invertible(3, rng), "ru": random_ru(3, rng), "k": random_symplectic(3, rng),
            "big": QMatrix.from_json({"rows": 1, "cols": 1, "entries": [[[1e308, 1e308, 0, 0]]]}),
            "rect": QMatrix.zeros(2, 3), "i2": QMatrix.identity(2), "i3": QMatrix.identity(3)}
    paths = {name: write_json(tmp_path / f"{name}.json", m.to_json()) for name, m in mats.items()}
    # 60 bytes that ask for 10^12 columns, which must fail before allocating them
    huge = {"rows": 1, "cols": 10 ** 12, "entries": [[[1, 0, 0, 0]]]}
    return paths | {"huge": write_json(tmp_path / "huge.json", huge)}


def test_suite_tolerances_come_from_one_table():
    # no suite takes a tolerance or a count of its own: they read the module's tables
    for name, fn in cli.SUITES.items():
        assert list(inspect.signature(fn).parameters) == ["n", "seed"], name


def test_qflag_seed_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QFLAG_SEED", "42")
    assert cli.main(["verify", "lambda"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 42
    monkeypatch.delenv("QFLAG_SEED")
    assert cli.main(["verify", "lambda"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 0
    # a malformed value is a usage error of the commands that take a seed, and only of those
    monkeypatch.setenv("QFLAG_SEED", "abc")
    assert cli.main(["verify", "lambda"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "--seed" in err and "Traceback" not in err
    inp = write_json(tmp_path / "m.json", QMatrix.identity(2).to_json())
    assert cli.main(["ddet", "--input", inp]) == 0
    assert json.loads(capsys.readouterr().out) == {"dieudonne_det": 1.0}


def test_decompose_identity(tmp_path, capsys):
    inp = write_json(tmp_path / "m.json", QMatrix.identity(2).to_json())
    assert cli.main(["decompose", "bruhat", "--input", inp]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["reconstruction_error"] == 0.0
    assert out["w"] == {"one_line": [1, 2]}
    assert QMatrix.from_json(out["U"]).frobenius() == pytest.approx(np.sqrt(2))


def test_decompose_closed_form_example(tmp_path, capsys):
    g = from_rows([[1, 0], [1, 1]])
    inp = write_json(tmp_path / "m.json", g.to_json())
    assert cli.main(["decompose", "bruhat", "--input", inp]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["w"] == {"one_line": [2, 1]}
    assert QMatrix.from_json(out["D"]).to_json() == QMatrix.diag([-1, 1]).to_json()
    assert out["reconstruction_error"] <= 1e-12


def test_decompose_iwasawa(tmp_path, capsys):
    rng = np.random.default_rng(0)
    g = random_invertible(3, rng)
    inp = write_json(tmp_path / "m.json", g.to_json())
    assert cli.main(["decompose", "iwasawa", "--input", inp]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["reconstruction_error"] <= 1e-9 * g.frobenius()


def test_malformed_input_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["decompose", "bruhat", "--input", str(bad)]) == 1
    assert cli.main(["decompose", "bruhat", "--input", str(tmp_path / "nope.json")]) == 1
    inp = write_json(tmp_path / "m.json", {"rows": 1, "cols": 1})
    assert cli.main(["ddet", "--input", inp]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("option", ["--input", "--out"])
def test_directory_path_exit_1(option, tmp_path, capsys):
    # IsADirectoryError, like any OSError on a path given, is a usage error
    inp = write_json(tmp_path / "m.json", QMatrix.identity(2).to_json())
    argv = {"--input": ["--input", str(tmp_path)], "--out": ["--input", inp, "--out", str(tmp_path)]}
    assert cli.main(["ddet", *argv[option]]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_non_integral_size_exit_1(tmp_path, capsys):
    entries = [[[1, 0, 0, 0]]]
    for rows, cols in [(True, 1), (1, 1.9), (True, 1.9)]:
        inp = write_json(tmp_path / "m.json", {"rows": rows, "cols": cols, "entries": entries})
        assert cli.main(["ddet", "--input", inp]) == 1
        assert "must be an integer, got" in capsys.readouterr().err


def test_singular_input_exit_2(tmp_path, capsys):
    inp = write_json(tmp_path / "m.json", from_rows([[1, 1], [1, 1]]).to_json())
    assert cli.main(["decompose", "bruhat", "--input", inp]) == 2
    capsys.readouterr()


def _draw(seed: int, index: int) -> QMatrix:
    """Draw ``index`` (0-based) of 2 x 2 matrices uniform in (-8.5e307, 8.5e307)."""
    rng = np.random.default_rng(seed)
    return QMatrix([rng.uniform(-8.5e307, 8.5e307, (2, 2, 4)) for _ in range(index + 1)][-1])


@pytest.mark.parametrize("kind, m", [
    ("bruhat", from_rows([[1e308, 1e308], [-1e308, 1e308]])),  # D overflows
    ("iwasawa", _draw(0, 46)),  # R overflows
], ids=["bruhat", "iwasawa"])
def test_non_finite_factor_exit_2(kind, m, tmp_path, capsys):
    # finite input, a factor past the float range: once Infinity and a NaN error, exit 0
    inp = write_json(tmp_path / "m.json", m.to_json())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["decompose", kind, "--input", inp]) == 2
    assert caught == []
    assert capsys.readouterr() == ("", f"error: {kind}: a factor is outside the float range\n")


@pytest.mark.filterwarnings("error")
def test_reconstruction_of_finite_factors_near_the_float_range_is_finite(tmp_path, capsys):
    # draw 10 of n x n matrices (n uniform in 2..5) uniform in (-8.5e307, 8.5e307): its
    # factors are finite, and U D P_w V overflows unless D is scaled down first
    rng = np.random.default_rng(1)
    for _ in range(11):
        g = QMatrix(rng.uniform(-8.5e307, 8.5e307, (int(rng.integers(2, 6)),) * 2 + (4,)))
    form = bruhat(g)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        reconstruct(form)
    inp = write_json(tmp_path / "m.json", g.to_json())
    assert cli.main(["decompose", "bruhat", "--input", inp]) == 0
    err = json.loads(capsys.readouterr().out)["reconstruction_error"]
    assert np.isfinite(err) and err <= 1e-12 * np.abs(g.data).max()  # ||G||_F overflows


def test_non_finite_result_exit_2(tmp_path, capsys, monkeypatch):
    # a NaN or an infinity that reaches the output is refused as JSON cannot hold it
    monkeypatch.setattr(cli.decomp, "dieudonne_det", lambda g: float("inf"))
    inp = write_json(tmp_path / "m.json", QMatrix.identity(2).to_json())
    assert cli.main(["ddet", "--input", inp]) == 2
    assert capsys.readouterr() == ("", "error: result is not finite\n")


def test_chart_boundary_exit_2(capsys):
    # at rho = 1e11 the South chart's denominator 1/sqrt(1 + rho^2) is below CHART_EPS
    argv = ["profile", "--rho-min", "1", "--rho-max", "1e11", "--steps", "2"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "chart" in captured.err and captured.out == ""


def test_ddet_out_of_float_range_exit_2(tmp_path, capsys):
    inp = write_json(tmp_path / "m.json", QMatrix.identity(3).scale(1e155).to_json())
    assert cli.main(["ddet", "--input", inp]) == 2
    captured = capsys.readouterr()
    assert "normal float range" in captured.err and captured.out == ""


def test_ddet(tmp_path, capsys):
    from qflag.quat import J, K

    inp = write_json(tmp_path / "m.json", QMatrix.diag([J, 2 * K]).to_json())
    assert cli.main(["ddet", "--input", inp]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dieudonne_det"] == pytest.approx(2.0, abs=1e-12)


def test_dress(tmp_path, capsys):
    g = write_json(tmp_path / "g.json", from_rows([[1, 0.8], [0, 1]]).to_json())
    k = write_json(tmp_path / "k.json", Permutation([1, 0]).matrix().to_json())
    assert cli.main(["dress", "--g", g, "--k", k]) == 0
    out = QMatrix.from_json(json.loads(capsys.readouterr().out))
    s = 1.0 / np.sqrt(1 + 0.64)
    expect = from_rows([[0.8 * s, s], [s, -0.8 * s]])
    assert (out - expect).frobenius() <= 1e-12


def test_dress_returns_k_whose_r_is_past_the_float_range(tmp_path, capsys):
    c = np.sqrt(0.5)
    g = write_json(tmp_path / "g.json",
                   from_rows([[0.92e308, 0.92e308], [0, 1.79e308]]).to_json())
    k = write_json(tmp_path / "k.json", from_rows([[c, -c], [c, c]]).to_json())
    assert cli.main(["dress", "--g", g, "--k", k]) == 0
    out = QMatrix.from_json(json.loads(capsys.readouterr().out))
    assert (out.conj_transpose() @ out - QMatrix.identity(2)).frobenius() <= 1e-12


def _near_max_dress_inputs(tmp_path, g22):
    c = np.sqrt(0.5)
    g = from_rows([[1.5e308, 1.5e308], [0, g22]])
    return ["dress", "--g", write_json(tmp_path / "g.json", g.to_json()),
            "--k", write_json(tmp_path / "k.json", from_rows([[c, -c], [c, c]]).to_json())]


def test_dress_of_a_g_whose_product_with_k_overflows(tmp_path, capsys):
    # G K is past the float range; K' of the scaled G that the RU check holds is not
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(_near_max_dress_inputs(tmp_path, 1e305)) == 0
    assert caught == []
    out, err = capsys.readouterr()
    assert err == ""
    k2 = QMatrix.from_json(json.loads(out))
    assert (k2.conj_transpose() @ k2 - QMatrix.identity(2)).frobenius() <= 1e-12


def test_dress_of_a_pivot_far_below_the_threshold_exit_2(tmp_path, capsys):
    # G22 = 1 is about 5e-309 of ||G||_F, far below PIVOT_RTOL: singular, not an overflow
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(_near_max_dress_inputs(tmp_path, 1.0)) == 2
    assert caught == []
    assert capsys.readouterr() == ("", "error: matrix is singular: QR breakdown\n")


@pytest.mark.parametrize("suite,n", [
    ("schouten", 2),
    ("lambda", 2),
    ("lambda", 3),
    ("spheroid", 2),
    ("spheroid", 3),
    ("hp1", 2),
    ("leaves", 3),
    ("dressing", 2),
    ("dressing", 3),
])
def test_verify_suites_pass(suite, n, capsys):
    assert cli.main(["verify", suite, "--n", str(n), "--seed", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True and report["seed"] == 0  # the seed given, for a rerun


def test_verify_lambda_n3_reports_nonzero(capsys):
    assert cli.main(["verify", "lambda", "--n", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["bracket_max_coeff"] > cli.LAMBDA_NONZERO


@pytest.mark.parametrize("bound, ok", [(np.nextafter(2.0, 0.0), True), (2.0, False)])
def test_verify_lambda_nonzero_edge(bound, ok, monkeypatch):
    # [Lambda_3, Lambda_3]'s largest coefficient is exactly 2: the suite counts it
    # nonzero only above LAMBDA_NONZERO
    monkeypatch.setattr(cli, "LAMBDA_NONZERO", bound)
    report = cli.suite_lambda(3, 0)
    assert report["bracket_max_coeff"] == 2.0 and report["ok"] is ok


@pytest.mark.parametrize("factor, ok", [(0.99, True), (1.01, False)])
def test_verify_hp1_north_coeff_edge(factor, ok, monkeypatch):
    # near the North pole the field is about 6|u|^2, so NORTH_COEFF_TOL passes a
    # field whose zero sits up to about 4e-6 off the pole in the chart
    shift = Quaternion(0.0, factor * math.sqrt(cli.NORTH_COEFF_TOL / 6.0))
    field = hp1geom.bruhat_field
    monkeypatch.setattr(hp1geom, "bruhat_field",
                        lambda p: field(hp1geom.ChartPoint(p.chart, p.coord + shift)))
    report = cli.suite_hp1(2, 0)
    assert report["north_coeff"] == pytest.approx(factor ** 2 * cli.NORTH_COEFF_TOL, rel=1e-6)
    assert report["ok"] is ok


def test_verify_unknown_suite_exit_1(capsys):
    assert cli.main(["verify", "nonsense"]) == 1
    capsys.readouterr()


def test_profile_csv(tmp_path):
    out = tmp_path / "p.csv"
    rc = cli.main(["profile", "--rho-min", "1", "--rho-max", "2", "--steps", "2",
                   "--directions", "2", "--seed", "0", "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["rho"] for r in rows] == ["1.0", "1.0", "2.0", "2.0"]
    ratios = sorted({float(r["expected_ratio"]) for r in rows})
    assert ratios == [pytest.approx(0.392), pytest.approx(0.5)]
    for r in rows:
        assert abs(float(r["ratio"]) - float(r["expected_ratio"])) <= 1e-6


def test_profile_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["profile", "--rho-min", "0.5", "--rho-max", "1.5", "--steps", "3",
            "--directions", "3", "--seed", "9"]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_profile_bad_range_exit_1(capsys):
    assert cli.main(["profile", "--rho-min", "2", "--rho-max", "1", "--steps", "5"]) == 1
    assert cli.main(["profile", "--rho-min", "0.5", "--rho-max", "1", "--steps", "1"]) == 1
    capsys.readouterr()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, bound", [
    (["profile", "--rho-min", "1", "--rho-max", "inf", "--steps", "2"], "rho-max < inf"),
    (["profile", "--rho-min", "1", "--rho-max", "2", "--steps", "2", "--directions", "0"],
     "directions >= 1"),
    (["verify", "schouten", "--n", "1"], "needs 2 <= n <= 6"),
    (["verify", "leaves", "--n", "0"], "needs 1 <= n <= 6"),
    (["verify", "dressing", "--n", "0"], "needs 1 <= n <= 32"),
    (["verify", "hp1", "--n", "7"], "needs 2 <= n <= 2"),
    (["ddet", "--input", "{huge}"], "each row must have `cols` entries"),
    (["leaf", "--word", "1 2 1", "--n", "100000"], "leaf needs 1 <= n <= 64"),
    (["profile", "--rho-min", "0.1", "--rho-max", "3", "--steps", "100000000"],
     "steps * directions <= 10000"),
    (["ddet", "--input", "{rect}"], "dieudonne_det requires a square matrix"),
    (["decompose", "bruhat", "--input", "{rect}"], "bruhat requires a square matrix"),
    (["decompose", "iwasawa", "--input", "{rect}"], "iwasawa requires a square matrix"),
    (["dress", "--g", "{i2}", "--k", "{i3}"], "shape mismatch in quaternionic matmul"),
], ids=["rho-max-inf", "directions-0", "schouten-n1", "leaves-n0", "dressing-n0", "hp1-n7",
        "cols-1e12", "leaf-n100000", "profile-steps1e8", "ddet-2x3", "bruhat-2x3", "iwasawa-2x3",
        "dress-2x2-3x3"])
def test_out_of_range_input_exit_1(argv, bound, inputs, capsys):
    start = time.perf_counter()
    assert cli.main([a.format(**inputs) for a in argv]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert bound in captured.err and captured.out == ""


@pytest.mark.parametrize("argv, work, inside", [
    (["leaf", "--word", "1", "--n", "64"], "flags.leaf_point", True),
    (["leaf", "--word", "1", "--n", "65"], "flags.leaf_point", False),
    (["profile", "--rho-min", "1", "--rho-max", "2", "--steps", "5000", "--directions", "2"],
     "hp1geom.radial_profile", True),
    (["profile", "--rho-min", "1", "--rho-max", "2", "--steps", "5001", "--directions", "2"],
     "hp1geom.radial_profile", False),
], ids=["leaf-n64", "leaf-n65", "profile-10000", "profile-10002"])
def test_size_bound_edge(argv, work, inside, monkeypatch, capsys):
    class Started(Exception):
        pass

    def start(*args):
        raise Started

    module, name = work.split(".")
    monkeypatch.setattr(getattr(cli, module), name, start)
    if inside:
        with pytest.raises(Started):
            cli.main(argv)
    else:
        assert cli.main(argv) == 1
        assert "error:" in capsys.readouterr().err


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv", [
    ["decompose", "bruhat", "--input", "{g}"],
    ["decompose", "iwasawa", "--input", "{g}"],
    ["decompose", "bruhat", "--input", "{big}"],
    ["decompose", "iwasawa", "--input", "{big}"],
    ["ddet", "--input", "{g}"],
    ["ddet", "--input", "{big}"],
    ["dress", "--g", "{ru}", "--k", "{k}"],
    ["leaf", "--word", "1 2 1", "--n", "3", "--seed", "5"],
    *(["verify", suite, "--n", str(max(2, cli.SUITE_N[suite][0])), "--seed", "3"]
      for suite in sorted(cli.SUITES)),
], ids=["bruhat", "iwasawa", "bruhat-big", "iwasawa-big", "ddet", "ddet-big", "dress", "leaf",
        *(f"verify-{suite}" for suite in sorted(cli.SUITES))])
def test_stdout_is_strict_json(argv, inputs, capsys):
    # NaN and +-Infinity are not JSON; json.dumps would print them silently
    assert cli.main([a.format(**inputs) for a in argv]) == 0
    json.loads(capsys.readouterr().out, parse_constant=_reject_constant)


@pytest.mark.parametrize("suite", sorted(cli.SUITES))
def test_verify_size_guard_starts_no_work(suite, monkeypatch, capsys):
    def work(*args):
        raise AssertionError("the suite started")

    monkeypatch.setitem(cli.SUITES, suite, work)
    least, most = cli.SUITE_N[suite]
    assert cli.main(["verify", suite, "--n", str(most + 1)]) == 1
    captured = capsys.readouterr()
    assert f"needs {least} <= n <= {most}" in captured.err and captured.out == ""


def test_leaf_command(tmp_path, capsys):
    assert cli.main(["leaf", "--word", "1 2 1", "--n", "3", "--seed", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["word"] == [1, 2, 1]
    assert out["signature"]["w"] == {"one_line": [3, 2, 1]}
    m = QMatrix.from_json(out["matrix"])
    assert (m.conj_transpose() @ m - QMatrix.identity(3)).frobenius() <= 1e-10


def test_output_file_option(tmp_path):
    inp = write_json(tmp_path / "m.json", QMatrix.identity(2).to_json())
    out = tmp_path / "r.json"
    assert cli.main(["ddet", "--input", inp, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["dieudonne_det"] == 1.0


def test_random_multivector_draws_without_listing_subsets(monkeypatch):
    def listing(*args):
        raise AssertionError("listed every subset")

    monkeypatch.setattr(cli, "combinations", listing, raising=False)
    monkeypatch.setattr(itertools, "combinations", listing)
    rng = np.random.default_rng(0)
    for grade in (1, 2, 3, 4):
        mv = cli._random_multivector(3, grade, rng)
        assert mv.grade == grade and len(mv.coeffs) == 4
        assert all(list(t) == sorted(set(t)) and t[-1] < 21 for t in mv.coeffs)
    # sp(1) has one 3-subset of its 3 basis elements
    assert len(cli._random_multivector(1, 3, rng).coeffs) == 1


def test_failed_report_is_written_and_exits_2(tmp_path, monkeypatch, capsys):
    report = {"suite": "lambda", "n": 2, "seed": 0, "ok": False}
    monkeypatch.setitem(cli.SUITES, "lambda", lambda n, seed: report)
    assert cli.main(["verify", "lambda"]) == 2
    assert json.loads(capsys.readouterr().out) == report
    out = tmp_path / "r.json"
    assert cli.main(["verify", "lambda", "--out", str(out)]) == 2
    assert json.loads(out.read_text()) == report and capsys.readouterr().out == ""

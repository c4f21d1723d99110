import importlib
import json
import math
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from nevanlab.cli import main

SMALL = ["--rmin", "2", "--rmax", "32", "--steps", "12", "--samples", "256"]

LINEAR_FAMILY = json.dumps({
    "template": "v*z",
    "params": [4, 8, 16, 32],
    "disc": {"center": "0", "radius": 1},
})


def test_expand_matches_hand_leibniz(capsys):
    assert main(["expand", "--n", "3", "--t", "2"]) == 0
    assert capsys.readouterr().out == "6*g*(g')^2 + 3*g^2*g''\n"


def test_expand_zero_order(capsys):
    assert main(["expand", "--n", "3", "--t", "0"]) == 0
    assert capsys.readouterr().out == "g^3\n"


def test_expand_json(capsys):
    assert main(["expand", "--n", "2", "--t", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"] == {"n": 2, "t": 2}
    assert payload["report"]["text"] == "2*(g')^2 + 2*g*g''"
    assert [["2", [0, 2]], ["2", [1, 0, 1]]] == payload["report"]["terms"]


def test_criteria_th1_example(capsys):
    rc = main(["criteria", "th1", "--n", "3", "--pairs", "3:1",
               "--q", "1", "--ell", "3"])
    assert rc == 0
    assert capsys.readouterr().out == "lhs=1/3 rhs=3/7 PASS\n"


def test_criteria_th1_failing(capsys):
    rc = main(["criteria", "th1", "--n", "2", "--pairs", "3:1",
               "--q", "1", "--ell", "2"])
    assert rc == 1
    assert capsys.readouterr().out == "lhs=1/2 rhs=1/3 FAIL\n"


def test_criteria_th2_boundary(capsys):
    rc = main(["criteria", "th2", "--n", "0", "--pairs", "2:1"])
    assert rc == 1
    assert "rhs=0 FAIL" in capsys.readouterr().out


def test_criteria_multiplicity_list(capsys):
    rc = main(["criteria", "th1", "--n", "3", "--pairs", "3:1",
               "--q", "2", "--ell", "3,inf"])
    out = capsys.readouterr().out
    assert rc == 0
    # sum of reciprocals 1/3 against (2*3 - 2 + 2*2)/(3 + 4) = 8/7
    assert out == "lhs=1/3 rhs=8/7 PASS\n"


def test_criteria_integer_reductions(capsys):
    assert main(["criteria", "cor1", "--n", "3", "--pairs", "3:1"]) == 0
    assert capsys.readouterr().out == "lhs=6 rhs=4 PASS\n"
    assert main(["criteria", "cor2", "--n", "0", "--pairs", "2:1"]) == 1
    assert capsys.readouterr().out == "lhs=2 rhs=3 FAIL\n"
    rc = main(["criteria", "cor1", "--n", "0", "--pairs", "2:1",
               "--format", "json"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"] == {"lhs": 2, "rhs": 4, "holds": False}


def test_characteristic_csv(capsys):
    rc = main(["characteristic", "--f", "z"] + SMALL)
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "r,m,N,Nbar,T"
    assert len(lines) == 13
    last = [float(x) for x in lines[-1].split(",")]
    assert last[0] == pytest.approx(32.0)
    assert last[4] == pytest.approx(math.log(32.0), abs=1e-9)


def test_characteristic_of_a_zero_beside_a_pole(capsys):
    # z/(z + 1e-15) has a simple pole and a simple zero 1e-15 apart, not a
    # cancelled pair: N(r) = log r, as for any degree-1 rational function
    assert main(["characteristic", "--f", "z/(z+1e-15)"] + SMALL) == 0
    rows = [[float(x) for x in line.split(",")]
            for line in capsys.readouterr().out.strip().splitlines()[1:]]
    assert rows and all(n == pytest.approx(math.log(r), abs=1e-12) for r, _, n, _, _ in rows)


def test_characteristic_json_config_echo(capsys):
    rc = main(["characteristic", "--f", "exp(z)", "--rmin", "2",
               "--rmax", "8", "--steps", "4", "--samples", "256",
               "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "characteristic"
    assert payload["config"]["samples"] == 256
    assert payload["config"]["f"] == "exp(z)"
    assert payload["report"]["columns"] == ["r", "m", "N", "Nbar", "T"]
    # without --samples the config echoes the library default
    assert main(["characteristic", "--f", "z", "--rmin", "2", "--rmax", "8",
                 "--steps", "4", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["samples"] == 4096
    assert main(["characteristic", "--f", "z", "--samples", "100"]) == 2


def test_characteristic_parse_error(capsys):
    rc = main(["characteristic", "--f", "z)("])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_a_polynomial_whose_eigenvalues_overflow_is_an_error_line(capsys):
    # its companion matrix has NaN eigenvalues: one error line, not a traceback
    argv = ["characteristic", "--f", "z^2+(1.57e308-8.99e307*i)*z+8.99e307", "--steps", "2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_non_literal_value_is_a_usage_error(capsys):
    # a sum of exponential parts is no complex value, and must not read as 0
    family = json.dumps({"template": "v*z", "params": [1, 2],
                         "disc": {"center": "exp(z)+1", "radius": 1}})
    for argv in (["verify", "fmt", "--f", "z^2", "--a", "exp(z)+1"],
                 ["marty", "--family", family]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: expected a complex literal, got 'exp(z)+1'\n"


def test_literal_out_of_range_is_a_usage_error(capsys):
    # 1e400 would enter a term as inf and fail far downstream
    family = json.dumps({"template": "1e400*v*z", "params": [4, 8],
                         "disc": {"center": "0", "radius": 1}})
    for argv in (["characteristic", "--f", "1e400*z"], ["marty", "--family", family]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: number out of range '1e400' (at position 0)\n"


@pytest.mark.parametrize("f, message", [
    ("1e300*1e300*z", "error: '*' overflows the double range (at position 5)\n"),
    ("1/(1e-300*z^3+1e300)",
     "error: the companion matrix overflows: the coefficients span more than the double range\n"),
    ("1e200*exp(z)*1e200", "error: '*' overflows the double range (at position 12)\n"),
    ("(1e300*z)^2",
     "error: the constant factor of the function overflows the double range\n"),
    ("(1e300*z)*(1e300*z)/((1e300*z+1)*(1e300*z+1))",
     "error: the constant factor of the function overflows the double range\n"),
])
def test_overflow_is_one_error_line(f, message):
    # an overflowing literal product, a polynomial whose coefficient ratio
    # overflows and a constant factor that canonicalizes to inf or NaN: exit 2
    # with one error line, no RuntimeWarning on stderr
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "nevanlab.cli",
         "characteristic", "--f", f], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    rc = main(["characteristic", "--f", "z", "--rmin", "2", "--rmax", "8",
               "--steps", "4", "--samples", "128", "--out", str(target)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert target.read_text().splitlines()[0] == "r,m,N,Nbar,T"


def test_verify_lemma3_rejects_zero_order_factor(capsys):
    rc = main(["verify", "lemma3", "--g", "(z^2-1)/z",
               "--spec", '{"n":0,"pairs":[[3,0]]}'])
    assert rc == 2
    assert "n_j >= 1 and t_j >= 1" in capsys.readouterr().err


def test_verify_lemma3_passes(capsys):
    rc = main(["verify", "lemma3", "--g", "z",
               "--spec", '{"n":1,"pairs":[[2,1]]}',
               "--values", "1,2"] + SMALL)
    captured = capsys.readouterr()
    assert rc == 0
    assert "lemma3: PASS" in captured.err
    lines = captured.out.strip().splitlines()
    assert lines[0] == "r,lhs,rhs,slack,normalized_slack"
    assert len(lines) == 13


def test_verify_smt_pass_and_precondition(capsys):
    rc = main(["verify", "smt", "--f", "z^2", "--values", "0,1,-1"] + SMALL)
    assert rc == 0
    assert "smt: PASS" in capsys.readouterr().err
    rc = main(["verify", "smt", "--f", "z^2", "--values", "0"] + SMALL)
    assert rc == 2


def test_verify_fmt_and_logderiv(capsys):
    rc = main(["verify", "fmt", "--f", "(z^2-1)/(z+3)", "--a", "1"] + SMALL)
    assert rc == 0
    assert "fmt: PASS" in capsys.readouterr().err
    rc = main(["verify", "logderiv", "--f", "(z-1)^5*exp(2*z)",
               "--rmin", "2", "--rmax", "64", "--steps", "16",
               "--samples", "512"])
    assert rc == 0
    assert "logderiv: PASS" in capsys.readouterr().err


@pytest.mark.parametrize("f", ["1/(z-2)", "z-2", "z^2+4", "1/(z-(1.2+1.6i))"])
def test_verify_fmt_with_a_point_on_the_first_grid_circle(f, capsys):
    # a pole of f or of 1/f on |z| = rmin = 2, at a = 0 where the bound is 0
    assert main(["verify", "fmt", "--f", f]) == 0
    assert "fmt: PASS" in capsys.readouterr().err


@pytest.mark.parametrize("f", ["z/z", "(2*z+2)/(z+1)", "exp(z)/exp(z)"])
def test_verify_refuses_a_constant_with_a_common_factor(f, capsys):
    # the canonical form keeps num and den unreduced, so their degrees are
    # no test of constancy; f - a is then identically zero
    for argv in (["verify", "fmt", "--f", f, "--a", "1"],
                 ["verify", "logderiv", "--f", f, "--k", "1"]):
        assert main(argv + SMALL) == 2
        assert capsys.readouterr().err == "error: f must be nonconstant\n"


def test_verify_fmt_json_verdict_is_exact(capsys):
    rc = main(["verify", "fmt", "--f", "(z^2-1)/(z+3)", "--a", "1",
               "--format", "json"] + SMALL)
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["config"]) == {"f", "a", "rmin", "rmax", "steps", "samples"}
    verdict = payload["report"]["verdict"]
    assert set(verdict) == {"form", "passed", "j1", "bound", "tol",
                            "worst_radius", "worst_deviation"}
    assert verdict["form"] == "exact"
    assert verdict["j1"] == payload["report"]["params"]["j1"]
    assert verdict["bound"] == payload["report"]["params"]["bound"] == math.log(2.0)


def test_verify_hinchliffe_json_report(capsys):
    rc = main(["verify", "hinchliffe", "--g", "z",
               "--spec", '{"n":1,"pairs":[[2,1]]}',
               "--format", "json"] + SMALL)
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "verify hinchliffe"
    assert payload["config"]["samples"] == 256
    assert payload["report"]["verdict"]["passed"] is True
    assert payload["report"]["verdict"]["policy"]["epsilon"] == 0.05


def test_marty_flags(capsys):
    fam = json.dumps({"template": "v*z", "params": [1, 4, 16, 64, 256],
                      "disc": {"center": "0", "radius": 1}})
    rc = main(["marty", "--family", fam, "--resolution", "11"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "NOT-NORMAL-EVIDENCE" in captured.err
    assert captured.out.splitlines()[0] == "v,max_spherical,argmax_re,argmax_im"

    fam = json.dumps({"template": "z + v", "params": [1, 4, 16, 64, 256],
                      "disc": {"center": "0", "radius": 1}})
    rc = main(["marty", "--family", fam, "--resolution", "11"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "NORMAL-CONSISTENT" in captured.err


def test_zalcman_converges_to_identity(capsys):
    rc = main(["zalcman", "--family", LINEAR_FAMILY, "--alpha", "0",
               "--zv", "0", "--rho", "1/v", "--limit", "z"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "zalcman: converged" in captured.err
    rows = captured.out.strip().splitlines()
    assert rows[0] == "v,rho,dist_prev,dist_limit,sharp0"
    assert all(row.split(",")[3] == "0.0" for row in rows[1:])


def test_zalcman_wrong_limit_fails(capsys):
    rc = main(["zalcman", "--family", LINEAR_FAMILY, "--alpha", "0",
               "--zv", "0", "--rho", "1/v", "--limit", "z + 1"])
    assert rc == 1
    assert "NOT converged" in capsys.readouterr().err


def test_zalcman_bad_rule(capsys):
    rc = main(["zalcman", "--family", LINEAR_FAMILY, "--alpha", "0",
               "--zv", "0", "--rho", "1/w"])
    assert rc == 2
    rc = main(["zalcman", "--family", LINEAR_FAMILY, "--alpha", "0",
               "--zv", "0", "--rho", "1j*v"])
    assert rc == 2
    assert "positive real" in capsys.readouterr().err


def _remark14_args(params, extras):
    fam = json.dumps({"template": "v*z", "params": params,
                      "disc": {"center": "0", "radius": 1}})
    return ["remark14", "--family", fam,
            "--main", '{"n":1,"pairs":[[2,1]]}',
            "--extras", json.dumps(extras),
            "--alpha", "1/3", "--zv", "0", "--rho", "v^(-3/2)"]


def test_remark14_extras_vanish(capsys):
    extras = [{"coeff": 1, "spec": {"n": 3, "pairs": [[1, 1]]}}]
    rc = main(_remark14_args([100, 10 ** 4, 10 ** 6, 10 ** 8], extras))
    captured = capsys.readouterr()
    assert rc == 0
    assert "remark14: PASS" in captured.err
    rows = captured.out.strip().splitlines()
    assert rows[0] == "v,main_dist_prev,extras_sup"
    sups = [float(r.split(",")[2]) for r in rows[1:]]
    assert sups[-1] < 1e-3
    assert all(b < a for a, b in zip(sups, sups[1:]))


def test_remark14_short_sweep_fails(capsys):
    extras = [{"coeff": 1, "spec": {"n": 3, "pairs": [[1, 1]]}}]
    rc = main(_remark14_args([100, 10 ** 4], extras))
    assert rc == 1
    assert "remark14: FAIL" in capsys.readouterr().err


def test_remark14_alpha_violation(capsys):
    extras = [{"coeff": 1, "spec": {"n": 1, "pairs": [[1, 1]]}}]
    rc = main(_remark14_args([100, 10 ** 4], extras))
    assert rc == 2
    assert "index" in capsys.readouterr().err


def test_growth_command_leaves_numpy_ma_unimported():
    # numpy.ma, which np.unique imports in numpy 2.x, adds about 1.2 MB to
    # the peak resident size of a growth run; characteristic with an exp
    # part sums most circles by their Fourier rows and some by the kernel
    code = ("import sys\n"
            "from nevanlab.cli import main\n"
            "main(['characteristic', '--f', '(z-0.5)^2*(z+0.3i)/(z+1.2)*exp(z^2)',\n"
            "      '--samples', '8192', '--format', 'json'])\n"
            "sys.exit(3 if 'numpy.ma' in sys.modules else 0)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["command"] == "characteristic"


# every name `import nevanlab` exports: the six submodules and what the
# package re-exports from them
EXPORTS = [
    "AlphaViolation", "BoundednessVerdict", "Canonical", "Const", "CriterionParams",
    "CriterionReport", "DEFAULT_SAMPLES", "DiffPolynomial", "DiffTerm", "Divisor", "Exp",
    "Expr", "ExtrasReport", "FamilySpec", "FunctionData", "INFINITE_MULTIPLICITY",
    "INFINITY", "IndeterminatePointError", "MartyReport", "MonomialSpec",
    "MultiplicityReport", "NevanlinnaReport", "NotNormalizableError", "ParseError", "Poly",
    "Polynomial", "QuadratureError", "RadialGrid", "RescaleReport", "RescalingSpec",
    "RootFindingError", "SlackSeries", "Var", "Verdict", "add", "alpha_index",
    "build_standard_monomial", "canonicalize", "characteristic_T", "check_fmt",
    "check_hinchliffe", "check_hinchliffe_multi", "check_holomorphic_criterion",
    "check_log_derivative", "check_meromorphic_criterion", "check_multiplicities",
    "check_smt", "chordal_distance", "compose_generalized", "compose_monomial",
    "counting_N", "counting_series", "degree_d", "differentiate", "diffpoly",
    "diffpoly_expression", "disc_grid", "div", "divisors", "evaluate", "evaluate_diffpoly",
    "evaluate_on_grid", "expand_power_derivative", "expressions", "fmt_boundedness_verdict",
    "generalized_polynomial", "holomorphic_reduction", "inequalities", "is_infinite",
    "marty_probe", "meromorphic_reduction", "mul", "nevanlinna", "normality", "parse",
    "parse_complex", "poly_roots", "polynomials", "pow_int", "print_diffpoly", "print_expr",
    "proximity_m", "radial_report", "rescale_extras_check", "rescaled_function",
    "rescaling_identity_values", "slack_verdict", "spherical_derivative",
    "substitute_affine", "unintegrated_counting", "weight_theta", "zalcman_rescale",
]


def test_package_import_is_lazy_and_exports_every_name():
    # `import nevanlab` loads no submodule; each exported name resolves on
    # first access, through getattr, dir() and a star import alike
    code = ("import json, sys\n"
            "import nevanlab\n"
            "loaded = [m for m in sys.modules if m.startswith('nevanlab.')]\n"
            "assert loaded == [], loaded\n"
            "names = json.loads(sys.argv[1])\n"
            "assert sorted(nevanlab.__all__) == names, nevanlab.__all__\n"
            "assert set(names) <= set(dir(nevanlab))\n"
            "star = {}\n"
            "exec('from nevanlab import *', star)\n"
            "for name in names:\n"
            "    value = getattr(nevanlab, name)\n"
            "    assert star[name] is value, name\n"
            "    assert vars(nevanlab)[name] is value, name\n"
            "try:\n"
            "    nevanlab.no_such_name\n"
            "except AttributeError as exc:\n"
            "    assert str(exc) == \"module 'nevanlab' has no attribute 'no_such_name'\"\n"
            "else:\n"
            "    raise AssertionError('no AttributeError')\n")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(EXPORTS)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


CORE = ["nevanlab.cli", "nevanlab.expressions", "nevanlab.polynomials"]
GROWTH = CORE + ["nevanlab.nevanlinna"]
# the paper's side: no circle quadrature (nevanlinna) behind a probe or a criterion
PROBES = CORE + ["nevanlab.diffpoly", "nevanlab.normality"]


@pytest.mark.parametrize("argv, modules", [
    (["characteristic", "--f", "z", "--steps", "2"], GROWTH),
    (["verify", "fmt", "--f", "(z^2-1)/(z+3)", "--a", "1", "--steps", "2"],
     GROWTH + ["nevanlab.inequalities"]),
    (["verify", "smt", "--f", "z^2", "--values", "0,1", "--steps", "2"],
     GROWTH + ["nevanlab.inequalities"]),
    (["marty", "--family", LINEAR_FAMILY, "--resolution", "5"], PROBES),
    (["zalcman", "--family", LINEAR_FAMILY, "--limit", "z", "--alpha", "0", "--zv", "0",
      "--rho", "1/v"], PROBES),
    (_remark14_args([100, 10 ** 4], []), PROBES),
    (["criteria", "th1", "--n", "3", "--pairs", "3:1"], PROBES),
    (["expand", "--n", "3", "--t", "2"],  # no grid flags: nevanlinna is never loaded
     CORE + ["nevanlab.diffpoly"]),
], ids=["characteristic", "verify fmt", "verify smt", "marty", "zalcman", "remark14",
        "criteria th1", "expand"])
def test_a_subcommand_loads_only_its_modules(argv, modules):
    code = ("import contextlib, io, json, sys\n"
            "from nevanlab.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    code = main(json.loads(sys.argv[1]))\n"
            "print(json.dumps([code, sorted(m for m in sys.modules "
            "if m.startswith('nevanlab.'))]))\n")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argv)],
                          capture_output=True, text=True)
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == [0, sorted(modules)]


def test_the_probe_api_loads_no_circle_quadrature():
    # spherical_derivative lives in expressions; nevanlinna binds the same
    # function for its public path
    code = ("import sys\n"
            "import nevanlab\n"
            "nevanlab.check_multiplicities, nevanlab.spherical_derivative\n"
            "assert 'nevanlab.nevanlinna' not in sys.modules, sorted(sys.modules)\n"
            "import nevanlab.expressions, nevanlab.nevanlinna\n"
            "assert nevanlab.nevanlinna.spherical_derivative is "
            "nevanlab.expressions.spherical_derivative\n"
            "assert nevanlab.spherical_derivative is nevanlab.expressions.spherical_derivative\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


def _pinned_texts():
    text = (pathlib.Path(__file__).resolve().parent / "cli_texts.txt").read_text(encoding="utf-8")
    parts = re.split(r"^\$ nevanlab (.*)\n", text, flags=re.M)
    return [(shlex.split(line), expected) for line, expected in zip(parts[1::2], parts[2::2])]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse words some texts differently in other Python "
                           "versions; tests/cli_texts.txt was written with 3.11")
@pytest.mark.parametrize("argv, expected", _pinned_texts(),
                         ids=[" ".join(argv) for argv, _ in _pinned_texts()])
def test_help_and_usage_texts_are_pinned(argv, expected, monkeypatch, capsys):
    # the subcommand parsers are built when selected; what they print
    # stays byte for byte what tests/cli_texts.txt holds
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    if "-h" in argv:
        assert (exc.value.code, out, err) == (0, expected, "")
    else:
        assert (exc.value.code, out, err) == (2, "", expected)


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "nevanlab.cli", "expand", "--n", "2",
         "--t", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2*g*g'"


@pytest.mark.parametrize("f", [
    "1/(z^3+1e300*z^2+1)",  # RootFindingError: the poles' residuals cannot be judged
    "exp(z^200)",  # QuadratureError: Re z^200 overflows on the circle
])
def test_refused_computation_is_an_error_line(f):
    proc = subprocess.run(
        [sys.executable, "-m", "nevanlab.cli", "characteristic", "--f", f],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


SPEC = '{"n":1,"pairs":[[2,1]]}'
RESCALE = ["--alpha", "0", "--zv", "0", "--rho", "1/v"]
EVERY_COMMAND = [
    ("characteristic", ["characteristic", "--f", "z"] + SMALL),
    ("verify fmt", ["verify", "fmt", "--f", "(z^2-1)/(z+3)", "--a", "1"]
     + SMALL),
    ("verify smt", ["verify", "smt", "--f", "z^2", "--values", "0,1,-1"]
     + SMALL),
    ("verify logderiv", ["verify", "logderiv", "--f", "(z-1)^5*exp(2*z)"]
     + SMALL),
    ("verify hinchliffe", ["verify", "hinchliffe", "--g", "z",
                           "--spec", SPEC] + SMALL),
    ("verify lemma3", ["verify", "lemma3", "--g", "z", "--spec", SPEC,
                       "--values", "1,2"] + SMALL),
    ("expand", ["expand", "--n", "3", "--t", "2"]),
    ("criteria th1", ["criteria", "th1", "--n", "3", "--pairs", "3:1"]),
    ("criteria th2", ["criteria", "th2", "--n", "0", "--pairs", "2:1"]),
    ("criteria cor1", ["criteria", "cor1", "--n", "3", "--pairs", "3:1"]),
    ("criteria cor2", ["criteria", "cor2", "--n", "0", "--pairs", "2:1"]),
    ("marty", ["marty", "--family", LINEAR_FAMILY, "--resolution", "7"]),
    ("zalcman", ["zalcman", "--family", LINEAR_FAMILY, "--limit", "z"]
     + RESCALE),
    ("remark14", _remark14_args([100, 10 ** 4], [])),
]


@pytest.mark.parametrize("command,argv", EVERY_COMMAND,
                         ids=[c for c, _ in EVERY_COMMAND])
def test_every_command_json_envelope_and_out(command, argv, tmp_path,
                                             capsys):
    for fmt in ([], ["--format", "json"]):
        rc = main(argv + fmt)
        assert rc in (0, 1)
        stdout = capsys.readouterr().out
        target = tmp_path / "report"
        assert main(argv + fmt + ["--out", str(target)]) == rc
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == stdout.encode("utf-8")
    payload = json.loads(stdout)
    assert set(payload) == {"command", "config", "report"}
    assert payload["command"] == command
    # one line, keys sorted, as the C encoder writes it with its defaults
    assert stdout == json.dumps(payload, sort_keys=True) + "\n"


@pytest.mark.parametrize("flag", ["--margin", "--epsilon", "--max-exceptional",
                                  "--tail-fraction"])
def test_verify_fmt_has_no_policy_flags(flag, capsys):
    # every verify subcommand takes grid and output flags only; the policy is fixed
    verify = [argv for command, argv in EVERY_COMMAND if command.startswith("verify ")]
    assert len(verify) == 5
    for argv in verify:
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, "0.5"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def _family_args(family):
    return ["marty", "--family", family, "--resolution", "5"]


MALFORMED = {
    "family empty": _family_args("{}"),
    "family list": _family_args("[1]"),
    "family disc": _family_args(
        '{"template":"v*z","params":[1,2],"disc":3}'),
    "family params": _family_args('{"template":"v*z","params":5}'),
    "family params bool": _family_args('{"template":"v*z","params":[true,2]}'),
    "family radius bool": _family_args(
        '{"template":"v*z","params":[1,2],"disc":{"radius":true}}'),
    "family radius nan": _family_args(
        '{"template":"v*z","params":[1,2],"disc":{"radius":NaN}}'),
    "family template": _family_args('{"template":5,"params":[1,2]}'),
    "spec pairs": ["verify", "hinchliffe", "--g", "z",
                   "--spec", '{"n":1,"pairs":5}'],
    "spec n bool": ["verify", "hinchliffe", "--g", "z",
                    "--spec", '{"n":true,"pairs":[[2,1]]}'],
    "extras coeff": _remark14_args(
        [100, 10 ** 4], [{"coeff": [1], "spec": {"n": 3, "pairs": [[1, 1]]}}]),
    "extras coeff bool": _remark14_args(
        [100, 10 ** 4], [{"coeff": True, "spec": {"n": 3, "pairs": [[1, 1]]}}]),
    "rule overflow": ["zalcman", "--family", LINEAR_FAMILY, "--alpha", "0",
                      "--zv", "0", "--rho", "10^400"],
    "rule bool": ["zalcman", "--family", LINEAR_FAMILY, "--alpha", "0",
                  "--zv", "0", "--rho", "True*v"],
}


@pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_payload_is_usage_error(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


# the probe reports (marty, zalcman, remark14) carry their CSV table inside
# the JSON dict, so only the growth reports may skip it in a JSON run
CSV_FREE_JSON = [("nevanlab.nevanlinna", "NevanlinnaReport"),
                 ("nevanlab.inequalities", "SlackSeries")]
REPORT_CLASSES = CSV_FREE_JSON + [("nevanlab.normality", "MartyReport"),
                                  ("nevanlab.normality", "RescaleReport"),
                                  ("nevanlab.normality", "ExtrasReport"),
                                  ("nevanlab.normality", "CriterionReport")]


@pytest.mark.parametrize("command,argv", EVERY_COMMAND,
                         ids=[c for c, _ in EVERY_COMMAND])
def test_only_the_selected_output_form_is_built(command, argv, monkeypatch,
                                                capsys):
    # a JSON run never formats the CSV table, and a CSV run never builds
    # the report dict
    def refuse(*args, **kwargs):
        raise AssertionError("built an output form that was not asked for")

    for fmt, unused, classes in ((["--format", "json"], "to_csv_text", CSV_FREE_JSON),
                                 ([], "to_json_dict", REPORT_CLASSES)):
        with monkeypatch.context() as patch:
            for module, name in classes:
                cls = getattr(importlib.import_module(module), name)
                if hasattr(cls, unused):
                    patch.setattr(cls, unused, refuse)
            assert main(argv + fmt) in (0, 1)
        assert capsys.readouterr().out

"""Command line front end.

Single binary with subcommands.  Tabular commands emit CSV by default; with
--format json every command emits one envelope {"command", "config",
"report"} on one line with sorted keys, the resolved configuration
included.  Exit codes: 0 success or PASS, 1 an inequality or convergence
check FAILED, 2 usage or precondition errors, and results the library
refuses to compute (RootFindingError, QuadratureError), each as one
"error:" line.
"""

import argparse
import ast
import functools
import json
import sys
from fractions import Fraction

# every subcommand runs expressions; handlers and grid flags import the rest they run
from .expressions import parse, parse_complex
from .polynomials import QuadratureError, RootFindingError


# ---------------------------------------------------------------------------
# small parsers for flag payloads


def _parse_values(text):
    vals = [parse_complex(chunk) for chunk in text.split(",") if chunk.strip()]
    if not vals:
        raise ValueError("expected a comma separated list of values")
    return tuple(vals)


def _parse_pairs(text):
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        left, sep, right = chunk.partition(":")
        if not sep:
            raise ValueError("pairs use the n:t format, e.g. 3:1,2:2")
        pairs.append((int(left), int(right)))
    if not pairs:
        raise ValueError("expected at least one n:t pair")
    return tuple(pairs)


def _parse_multiplicities(text, q):
    from .normality import INFINITE_MULTIPLICITY
    chunks = [c.strip() for c in text.split(",") if c.strip()]
    ells = tuple(INFINITE_MULTIPLICITY if c.lower() in ("inf", "infinity")
                 else int(c) for c in chunks)
    if len(ells) == 1 and q > 1:
        ells = ells * q
    if len(ells) != q:
        raise ValueError("need one multiplicity floor, or one per value")
    return ells


def _parse_spec_json(text):
    from .diffpoly import MonomialSpec
    return MonomialSpec.from_json_dict(json.loads(text))


def _parse_family_json(text):
    from .normality import FamilySpec
    return FamilySpec.from_json_dict(json.loads(text))


def _parse_extras_json(text):
    from .diffpoly import MonomialSpec
    payload = json.loads(text)
    if not isinstance(payload, list):
        raise ValueError("extras must be a JSON list")
    extras = []
    for item in payload:
        if not isinstance(item, dict) or set(item) != {"coeff", "spec"}:
            raise ValueError('each extra needs exactly "coeff" and "spec"')
        raw = item["coeff"]
        if isinstance(raw, str):
            try:
                coeff = parse_complex(raw)
            except ValueError:
                coeff = parse(raw)
        elif isinstance(raw, (int, float)) and not isinstance(raw, bool):
            coeff = complex(raw)
        else:
            raise ValueError('extra "coeff" must be a number or a string')
        extras.append((coeff, MonomialSpec.from_json_dict(item["spec"])))
    return tuple(extras)


_RULE_HINT = ("rules are arithmetic in v: numbers (j suffix for imaginary "
              "parts), v, + - * / ^, and parentheses")


def _eval_rule_node(node, v):
    if isinstance(node, ast.Expression):
        return _eval_rule_node(node.body, v)
    if isinstance(node, ast.Constant) and isinstance(
            node.value, (int, float, complex)) and not isinstance(node.value, bool):
        return complex(node.value)
    if isinstance(node, ast.Name) and node.id == "v":
        return complex(v)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                    (ast.UAdd, ast.USub)):
        inner = _eval_rule_node(node.operand, v)
        return inner if isinstance(node.op, ast.UAdd) else -inner
    if isinstance(node, ast.BinOp):
        left = _eval_rule_node(node.left, v)
        right = _eval_rule_node(node.right, v)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, ast.Div):
            return left / right
        if isinstance(node.op, ast.Pow):
            return left ** right
    raise ValueError(_RULE_HINT)


def _rule(text):
    # power syntax matches the expression grammar; ** also accepted
    pythonic = text.replace("^", "**")
    try:
        tree = ast.parse(pythonic, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"bad rule {text!r}: {exc.msg}")

    def apply(v):
        try:
            return _eval_rule_node(tree, float(v))
        except OverflowError:
            raise ValueError(f"bad rule {text!r}: overflow at v = {v}")

    apply(1.0)  # fail fast before the sweep
    return apply


def _real_rule(text):
    inner = _rule(text)

    def apply(v):
        val = inner(v)
        if abs(val.imag) > 1e-12 * (1.0 + abs(val)):
            raise ValueError("rho rule must produce positive real values")
        return val.real

    return apply


def _grid(args):
    from .nevanlinna import RadialGrid
    return RadialGrid.geometric(args.rmin, args.rmax, args.steps)


def _grid_config(args, **fields):
    return dict(fields, rmin=args.rmin, rmax=args.rmax, steps=args.steps,
                samples=args.samples)


def _word(ok):
    return "PASS" if ok else "FAIL"


# ---------------------------------------------------------------------------
# output: every command ends here


def _finish(args, command, config, report_dict, text, ok=True, status=None):
    """Write the report and the optional status line; return the exit code.

    report_dict and text are zero-argument callables, and only the form
    --format selects is built.  With --format json the report is the
    envelope {"command", "config", "report": report_dict()} on one line, keys
    sorted (the C encoder; indent would force the pure-Python one); otherwise
    it is text(), the command's CSV or text form.  It goes to --out PATH when
    given, else to stdout; the status line goes to stderr.
    """
    if args.format == "json":
        text = json.dumps({"command": command, "config": config,
                           "report": report_dict()}, sort_keys=True)
    else:
        text = text()
    if not text.endswith("\n"):
        text += "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if status is not None:
        print(status, file=sys.stderr)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# commands


def cmd_characteristic(args):
    from .nevanlinna import radial_report
    report = radial_report(parse(args.f), grid=_grid(args), samples=args.samples)
    return _finish(args, "characteristic", _grid_config(args, f=args.f),
                   report.to_json_dict, report.to_csv_text)


def _finish_series(args, name, series, verdict, config):
    return _finish(args, f"verify {name}", config,
                   lambda: series.to_json_dict(verdict), series.to_csv_text,
                   verdict.passed, f"{name}: {_word(verdict.passed)}")


def _finish_policy(args, name, series, **fields):
    """The tolerance-policy verdict of a series, through _finish_series."""
    from .inequalities import policy_json, slack_verdict
    config = _grid_config(args, policy=policy_json(), **fields)
    return _finish_series(args, name, series, slack_verdict(series), config)


def cmd_verify_fmt(args):
    from .inequalities import check_fmt, fmt_boundedness_verdict
    series = check_fmt(parse(args.f), parse_complex(args.a), grid=_grid(args),
                       samples=args.samples)
    return _finish_series(args, "fmt", series, fmt_boundedness_verdict(series),
                          _grid_config(args, f=args.f, a=args.a))


def cmd_verify_smt(args):
    from .inequalities import check_smt
    f, values = parse(args.f), _parse_values(args.values)
    series = check_smt(f, values, grid=_grid(args), samples=args.samples)
    return _finish_policy(args, "smt", series, f=args.f, values=args.values)


def cmd_verify_logderiv(args):
    from .inequalities import check_log_derivative
    f = parse(args.f)
    series = check_log_derivative(f, args.k, grid=_grid(args), samples=args.samples)
    return _finish_policy(args, "logderiv", series, f=args.f, k=args.k)


def cmd_verify_hinchliffe(args):
    from .diffpoly import build_standard_monomial
    from .inequalities import check_hinchliffe
    g = parse(args.g)
    p = build_standard_monomial(_parse_spec_json(args.spec))
    series = check_hinchliffe(g, p, grid=_grid(args), samples=args.samples)
    return _finish_policy(args, "hinchliffe", series, g=args.g, spec=args.spec)


def cmd_verify_lemma3(args):
    from .diffpoly import build_standard_monomial
    from .inequalities import check_hinchliffe_multi
    g = parse(args.g)
    p = build_standard_monomial(_parse_spec_json(args.spec))
    values = _parse_values(args.values)
    series = check_hinchliffe_multi(g, p, values, grid=_grid(args),
                                    samples=args.samples, entire=args.entire)
    return _finish_policy(args, "lemma3", series, g=args.g, spec=args.spec,
                          values=args.values, entire=args.entire)


def cmd_expand(args):
    from .diffpoly import (DiffPolynomial, DiffTerm, MonomialSpec,
                           build_standard_monomial, print_diffpoly)
    if args.n < 1:
        raise ValueError("--n must be a positive integer")
    if args.t < 0:
        raise ValueError("--t must be a nonnegative integer")
    if args.t == 0:
        p = DiffPolynomial((DiffTerm(1, (args.n,)),))
    else:
        p = build_standard_monomial(MonomialSpec(0, ((args.n, args.t),)))
    text = print_diffpoly(p)
    report = {"text": text,
              "terms": [[str(t.coefficient), list(t.exponents)]
                        for t in p.terms]}
    return _finish(args, "expand", {"n": args.n, "t": args.t},
                   lambda: report, lambda: text)


def cmd_criterion(args):
    from .normality import (CriterionParams, check_holomorphic_criterion,
                            check_meromorphic_criterion)
    criterion = (check_meromorphic_criterion if args.which == "th1"
                 else check_holomorphic_criterion)
    pairs = _parse_pairs(args.pairs)
    if args.q < 1:
        raise ValueError("--q must be at least 1")
    ells = _parse_multiplicities(args.ell, args.q)
    values = tuple(float(i + 1) for i in range(args.q))
    report = criterion(CriterionParams(args.n, pairs, values, ells))
    ok = report.applicable
    return _finish(args, f"criteria {args.which}",
                   {"n": args.n, "pairs": args.pairs, "q": args.q,
                    "ell": args.ell},
                   report.to_json_dict,
                   lambda: f"lhs={report.lhs} rhs={report.rhs} {_word(ok)}", ok)


def cmd_reduction(args):
    from .normality import holomorphic_reduction, meromorphic_reduction
    reduction = meromorphic_reduction if args.which == "cor1" else holomorphic_reduction
    lhs, rhs, holds = reduction(args.n, _parse_pairs(args.pairs))
    return _finish(args, f"criteria {args.which}",
                   {"n": args.n, "pairs": args.pairs},
                   lambda: {"lhs": lhs, "rhs": rhs, "holds": holds},
                   lambda: f"lhs={lhs} rhs={rhs} {_word(holds)}", holds)


def cmd_marty(args):
    from .normality import marty_probe
    family = _parse_family_json(args.family)
    report = marty_probe(family, resolution=args.resolution,
                         shrink=args.shrink)
    config = {"family": family.to_json_dict(),
              "resolution": args.resolution, "shrink": args.shrink}
    return _finish(args, "marty", config, report.to_json_dict,
                   report.to_csv_text, status=f"marty: {report.flag}")


def _rescaling(args, family):
    from .normality import RescalingSpec
    return RescalingSpec.from_rules(Fraction(args.alpha), family.params,
                                    _rule(args.zv), _real_rule(args.rho))


def cmd_zalcman(args):
    from .normality import zalcman_rescale
    family = _parse_family_json(args.family)
    rescaling = _rescaling(args, family)
    limit = parse(args.limit) if args.limit is not None else None
    report = zalcman_rescale(family, rescaling, limit=limit)
    config = {"family": family.to_json_dict(), "alpha": args.alpha,
              "zv": args.zv, "rho": args.rho, "limit": args.limit}
    word = "converged" if report.converged else "NOT converged"
    return _finish(args, "zalcman", config, report.to_json_dict,
                   report.to_csv_text, report.converged,
                   f"zalcman: {word}")


def cmd_remark14(args):
    from .normality import rescale_extras_check
    family = _parse_family_json(args.family)
    main = _parse_spec_json(args.main)
    extras = _parse_extras_json(args.extras) if args.extras else ()
    rescaling = _rescaling(args, family)
    report = rescale_extras_check(main, extras, family, rescaling)
    config = {"family": family.to_json_dict(), "main": args.main,
              "extras": args.extras, "alpha": args.alpha,
              "zv": args.zv, "rho": args.rho}
    ok = report.main_converged and report.extras_vanish
    return _finish(args, "remark14", config, report.to_json_dict,
                   report.to_csv_text, ok,
                   f"remark14: {_word(ok)} (main_converged="
                   f"{report.main_converged}, extras_vanish="
                   f"{report.extras_vanish})")


# ---------------------------------------------------------------------------
# argument wiring


class _Subcommands(argparse._SubParsersAction):
    """Subcommands whose parsers are built when argparse selects them.

    add_parser(name, help=..., add=add) lists the subcommand and its help
    line at once; the subcommand's parser is made, and add(parser) run, the
    first time argparse parses that subcommand (its -h included), so a run
    builds the parsers of the subcommands it names and of no other.  It
    fills the fields argparse's own add_parser fills (_choices_actions,
    _name_parser_map), so the enclosing parser's usage, help and choice
    errors read as with eager subparsers.
    """

    def add_parser(self, name, *, help, add):
        self._choices_actions.append(self._ChoicesPseudoAction(name, (), help))
        self._name_parser_map[name] = add

    def __call__(self, parser, namespace, values, option_string=None):
        name = values[0]  # argparse has checked that it is a choice
        add = self._name_parser_map[name]
        if not isinstance(add, argparse.ArgumentParser):
            sub = self._parser_class(prog=f"{self._prog_prefix} {name}")
            add(sub)
            self._name_parser_map[name] = sub
        super().__call__(parser, namespace, values, option_string)


def _add_output_flags(p, formats=("csv", "json")):
    p.add_argument("--format", choices=formats, default=formats[0],
                   help="output format (default %(default)s)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the report to PATH instead of stdout")


def _add_grid_flags(p):
    from .nevanlinna import DEFAULT_RMAX, DEFAULT_RMIN, DEFAULT_SAMPLES, DEFAULT_STEPS
    p.add_argument("--rmin", type=float, default=DEFAULT_RMIN,
                   help="smallest radius (default %(default)s)")
    p.add_argument("--rmax", type=float, default=DEFAULT_RMAX,
                   help="largest radius (default %(default)s)")
    p.add_argument("--steps", type=int, default=DEFAULT_STEPS,
                   help="number of radii (default %(default)s)")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                   help="circle quadrature samples, a power of two "
                        "(default %(default)s)")


def _characteristic_args(p):
    p.add_argument("--f", required=True, help="function expression")
    _add_grid_flags(p)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_characteristic)


def _verify_args(verify):
    vsub = verify.add_subparsers(dest="check", required=True,
                                 action=_Subcommands)
    vsub.add_parser("fmt", help="bounded difference of T(r,1/(f-a)) "
                                "and T(r,f)", add=_fmt_args)
    vsub.add_parser("smt", help="multi-value counting bound on "
                                "(q-1) T(r,f)", add=_smt_args)
    vsub.add_parser("logderiv",
                    help="smallness of m(r, f^(k)/f) against T(r,f)",
                    add=_logderiv_args)
    vsub.add_parser("hinchliffe",
                    help="single-value growth bound on T(r,g) from a "
                         "monomial in g and its derivatives",
                    add=_hinchliffe_args)
    vsub.add_parser("lemma3",
                    help="multi-value growth bound on T(r,g) from a "
                         "monomial in g and its derivatives",
                    add=_lemma3_args)


def _fmt_args(p):
    p.add_argument("--f", required=True, help="function expression")
    p.add_argument("--a", default="0", help="target value (default 0)")
    _add_grid_flags(p)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_verify_fmt)


def _smt_args(p):
    p.add_argument("--f", required=True, help="function expression")
    p.add_argument("--values", required=True,
                   help="comma separated target values, at least two")
    _add_grid_flags(p)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_verify_smt)


def _logderiv_args(p):
    p.add_argument("--f", required=True, help="function expression")
    p.add_argument("--k", type=int, default=1,
                   help="derivative order (default %(default)s)")
    _add_grid_flags(p)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_verify_logderiv)


def _add_monomial_flags(p):
    p.add_argument("--g", required=True, help="function expression")
    p.add_argument("--spec", required=True,
                   help='monomial JSON, e.g. {"n":1,"pairs":[[2,1]]}')


def _hinchliffe_args(p):
    _add_monomial_flags(p)
    _add_grid_flags(p)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_verify_hinchliffe)


def _lemma3_args(p):
    _add_monomial_flags(p)
    p.add_argument("--values", default="1",
                   help="comma separated nonzero target values "
                        "(default %(default)s)")
    p.add_argument("--entire", action="store_true",
                   help="use the pole-free variant with the larger "
                        "denominator")
    _add_grid_flags(p)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_verify_lemma3)


def _expand_args(p):
    p.add_argument("--n", type=int, required=True, help="power of g")
    p.add_argument("--t", type=int, required=True, help="derivative order")
    _add_output_flags(p, formats=("text", "json"))
    p.set_defaults(handler=cmd_expand)


def _criteria_args(criteria):
    csub = criteria.add_subparsers(dest="which", required=True,
                                   action=_Subcommands)
    csub.add_parser("th1", help="meromorphic criterion", add=_criterion_args)
    csub.add_parser("th2", help="holomorphic criterion", add=_criterion_args)
    csub.add_parser("cor1", help="meromorphic equal-multiplicity reduction",
                    add=_reduction_args)
    csub.add_parser("cor2", help="holomorphic equal-multiplicity reduction",
                    add=_reduction_args)


def _add_pairs_flags(p):
    p.add_argument("--n", type=int, required=True,
                   help="plain power of f in the monomial")
    p.add_argument("--pairs", required=True,
                   help="comma separated n:t factors, e.g. 3:1,2:2")


def _criterion_args(p):
    _add_pairs_flags(p)
    p.add_argument("--q", type=int, default=1,
                   help="number of target values (default %(default)s)")
    p.add_argument("--ell", default="inf",
                   help="zero multiplicity floors: one integer or "
                        "'inf', or a comma list of length q "
                        "(default %(default)s)")
    _add_output_flags(p, formats=("text", "json"))
    p.set_defaults(handler=cmd_criterion)


def _reduction_args(p):
    _add_pairs_flags(p)
    _add_output_flags(p, formats=("text", "json"))
    p.set_defaults(handler=cmd_reduction)


def _marty_args(p):
    p.add_argument("--family", required=True,
                   help='family JSON, e.g. {"template":"v*z",'
                        '"params":[1,2,4],"disc":{"center":"0","radius":1}}')
    p.add_argument("--resolution", type=int, default=21,
                   help="grid resolution per axis (default %(default)s)")
    p.add_argument("--shrink", type=float, default=0.8,
                   help="fraction of the disc radius probed "
                        "(default %(default)s)")
    _add_output_flags(p)
    p.set_defaults(handler=cmd_marty)


def _zalcman_args(p):
    p.add_argument("--family", required=True, help="family JSON")
    p.add_argument("--alpha", required=True,
                   help="zoom exponent, a rational like 1/3 or 0")
    p.add_argument("--zv", required=True,
                   help="recentering rule in v, e.g. '0' or '1/v'")
    p.add_argument("--rho", required=True,
                   help="zoom scale rule in v, e.g. '1/v'")
    p.add_argument("--limit", default=None,
                   help="optional expected limit expression in z")
    _add_output_flags(p)
    p.set_defaults(handler=cmd_zalcman)


def _remark14_args(p):
    p.add_argument("--family", required=True, help="family JSON")
    p.add_argument("--main", required=True,
                   help="main monomial JSON; its index fixes alpha")
    p.add_argument("--extras", default=None,
                   help='JSON list of {"coeff": c, "spec": {...}} extras')
    p.add_argument("--alpha", required=True,
                   help="zoom exponent, must equal the main term's index")
    p.add_argument("--zv", required=True, help="recentering rule in v")
    p.add_argument("--rho", required=True, help="zoom scale rule in v")
    _add_output_flags(p)
    p.set_defaults(handler=cmd_remark14)


@functools.cache
def build_parser():
    """The argparse parser, built once per process and shared by every call.

    A subcommand's parser is built when a command line names it
    (_Subcommands).
    """
    top = argparse.ArgumentParser(
        prog="nevanlab",
        description="Growth, value distribution, and normal family probes "
                    "for concrete meromorphic functions.")
    sub = top.add_subparsers(dest="command", required=True,
                             action=_Subcommands)
    sub.add_parser("characteristic",
                   help="radial table of m, N, Nbar, T for one function",
                   add=_characteristic_args)
    sub.add_parser("verify",
                   help="empirical inequality checks over a radial grid",
                   add=_verify_args)
    sub.add_parser("expand",
                   help="expanded form of (g^n)^(t) with exact coefficients",
                   add=_expand_args)
    sub.add_parser("criteria",
                   help="exact rational arithmetic for the normality "
                        "hypotheses",
                   add=_criteria_args)
    sub.add_parser("marty",
                   help="spherical derivative maxima across a one-parameter "
                        "family",
                   add=_marty_args)
    sub.add_parser("zalcman",
                   help="rescaled family g_v(xi) = rho^-alpha "
                        "f_v(z_v + rho xi) and its convergence",
                   add=_zalcman_args)
    sub.add_parser("remark14",
                   help="check that lower-index extra terms vanish under "
                        "the main-term rescaling",
                   add=_remark14_args)
    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # ParseError, NotNormalizableError, AlphaViolation and json.JSONDecodeError
    # are ValueErrors
    try:
        return args.handler(args)
    except (ValueError, ZeroDivisionError, RootFindingError,
            QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

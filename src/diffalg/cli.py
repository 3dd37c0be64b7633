"""Command-line front end.

Exit codes: 0 success (and positive verdicts), 1 negative mathematical
verdicts (containment fails, kernel obstructed or invalid), 2 usage or
parse errors (an input integer over Python's int-to-str digit limit
among them), 3 resource-budget errors (an output integer over that limit
among them).  Output is JSON with sorted keys, so identical invocations
produce byte-identical stdout.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import bounds
from .axioms import (atom_rho_text, compile_formula, containment_check,
                     counterexample_demo)
from .dpoly import print_poly
from .errors import ParseError, ResourceBudgetError, ContextError
from .files import load_ideal, load_kernel
from .indices import axiom_sizes, check_coordinates, gamma_set
from .kernels import (KernelValidationError, kernel_prolong_to,
                      kernel_validate, realization_bound)
from .prolong import prolong_delta, prolong_one

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _dumps(obj, pretty):
    if pretty:
        return json.dumps(obj, sort_keys=True, indent=2)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _error(kind, message, code):
    print(json.dumps({"error": kind, "message": message}, sort_keys=True))
    return code


def _cmd_bounds(args):
    value = bounds.bound_C(args.r, args.m, args.n)
    closed = bounds.closed_form(args.r, args.m, args.n)
    out = {"r": args.r, "m": args.m, "n": args.n, "value": value,
           "closed_form": closed,
           "closed_form_agrees": closed == value if closed is not None else None}
    return EXIT_OK, out


def _cmd_gamma(args):
    gs = gamma_set(args.m, args.r)
    return EXIT_OK, {"m": args.m, "r": args.r, "count": len(gs),
                     "elements": [list(xi) for xi in gs]}


def _cmd_axiom_shape(args):
    # the sizes alone: the coordinate maps are not built, only budgeted
    C, alpha, beta = axiom_sizes(args.n, args.m)
    check_coordinates("alpha(%d,%d)" % (args.n, args.m), alpha)
    return EXIT_OK, {"n": args.n, "m": args.m, "C": C, "alpha": alpha,
                     "beta": beta}


def _cmd_prolong_variety(args):
    ideal, _ = load_ideal(args.ideal_file)
    if args.k is not None:
        system = prolong_one(ideal, args.k)
    else:
        system = prolong_delta(ideal)
    return EXIT_OK, {
        "k": args.k if args.k is not None else "all",
        "generators": [print_poly(g) for g in system.generators],
    }


def _cmd_check_containment(args):
    ideal, _ = load_ideal(args.ideal_file)
    verdict = containment_check(ideal, args.shape)
    return (EXIT_OK if verdict.holds else EXIT_NEGATIVE), verdict.to_json()


def _cmd_kernel_check(args):
    kernel = load_kernel(args.kernel_file)
    report = kernel_validate(kernel)
    out = {"valid": report.valid, "violations": report.violations,
           "length": kernel.r, "realization_bound": realization_bound(kernel)}
    return (EXIT_OK if report.valid else EXIT_NEGATIVE), out


def _cmd_kernel_prolong(args):
    kernel = load_kernel(args.kernel_file)
    target = realization_bound(kernel) if args.to_bound else args.to
    try:
        result, info = kernel_prolong_to(kernel, target)
    except KernelValidationError as exc:
        return EXIT_NEGATIVE, {"status": "invalid",
                               "violations": exc.report.violations}
    out = {"status": result.status, "target_length": target}
    out.update(info)
    if result.status == "obstructed":
        out["witness"] = result.witness.to_json()
        return EXIT_NEGATIVE, out
    out["final_generators"] = [print_poly(g)
                               for g in result.next.ideal.reduced_gb]
    return EXIT_OK, out


def _cmd_compile_formula(args):
    with open(args.formula_file, "r", encoding="utf-8") as fh:
        text = fh.read().strip()
    compiled = compile_formula(text, args.m)
    f = compiled.formula
    out = {"t": f.t, "r": f.r, "m": f.m, "n": compiled.n,
           "algebraically_closed": compiled.algebraically_closed,
           "alpha": compiled.alpha, "beta": compiled.beta,
           "atoms": [atom_rho_text(p, rel) for p, rel in f.atoms()]}
    if compiled.resource_note:
        out["resource_note"] = compiled.resource_note
    return EXIT_OK, out


def _cmd_demo(args):
    report = counterexample_demo(args.mode)
    negative = report["kernel"]["status"] == "obstructed"
    return (EXIT_NEGATIVE if negative else EXIT_OK), report


@functools.cache
def build_parser():
    """The parser, built on the first run and reused by later runs."""
    parser = argparse.ArgumentParser(
        prog="diffalg",
        description="Exact machinery for prolongation varieties, "
                    "differential kernels and the geometric axiom checks.")
    parser.add_argument("--pretty", action="store_true",
                        help="indent the JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="the realization bound C_{r,m}^n")
    p.add_argument("r", type=int)
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("gamma", help="enumerate Gamma(r)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("axiom-shape", help="instance dimensions for (n, m)")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(func=_cmd_axiom_shape)

    p = sub.add_parser("prolong-variety",
                       help="prolongation generators of an ideal file")
    p.add_argument("ideal_file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--k", type=int, default=None)
    group.add_argument("--all", action="store_true")
    p.set_defaults(func=_cmd_prolong_variety)

    p = sub.add_parser("check-containment",
                       help="is W inside the prolongation of its projection")
    p.add_argument("ideal_file")
    p.add_argument("--shape", choices=("naive", "sharp"), required=True)
    p.set_defaults(func=_cmd_check_containment)

    p = sub.add_parser("kernel-check", help="validate a kernel file")
    p.add_argument("kernel_file")
    p.set_defaults(func=_cmd_kernel_check)

    p = sub.add_parser("kernel-prolong", help="prolong a kernel")
    p.add_argument("kernel_file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--to", type=int)
    group.add_argument("--to-bound", action="store_true")
    p.set_defaults(func=_cmd_kernel_prolong)

    p = sub.add_parser("compile-formula",
                       help="rewrite a differential formula algebraically")
    p.add_argument("formula_file")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_compile_formula)

    p = sub.add_parser("demo", help="built-in demonstrations")
    p.add_argument("what", choices=("counterexample",))
    p.add_argument("--mode", choices=("constants", "rational"),
                   default="constants")
    p.set_defaults(func=_cmd_demo)

    return parser


def run(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        code, out = args.func(args)
        text = _dumps(out, args.pretty)
    except ResourceBudgetError as exc:
        return _error("resource", str(exc), EXIT_RESOURCE)
    except (ParseError, ContextError, OSError, UnicodeDecodeError) as exc:
        return _error("usage", str(exc), EXIT_USAGE)
    except ValueError as exc:
        # only CPython's refusal to print an int of too many digits
        if "integer string conversion" not in str(exc):
            raise
        return _error("resource", "an output integer is over the %d-digit "
                      "int-to-str limit" % sys.get_int_max_str_digits(),
                      EXIT_RESOURCE)
    print(text)
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()

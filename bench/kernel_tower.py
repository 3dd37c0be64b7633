"""kernel-tower: iterated kernel prolongation on valid and obstructed kernels.

Kernels, lex Buchberger and saturation do nearly all the work here.  The
seed and the variant draw the nonzero scalars of every kernel, so inputs
differ between seeds and passes while each kernel keeps its shape and
hence its cost.

References, all known by construction:
- a graph kernel (every top derivative a polynomial in free lower ones)
  prolongs, and at length L its reduced basis has n * (|Gamma(L)| - 1)
  elements when r = 1, or n * (L - r + 1) elements when m = 1;
- the implicit kernel x x' = c is a graph over x' and counts the same;
- the commuting kernels below prolong; the two designed inconsistent ones
  obstruct, with a nonzero witness.
"""
from __future__ import annotations

import json
import math
import random

import textpoly as tp
from common import Job


def _nonzero(rng, span=3):
    return rng.choice([c for c in range(-span, span + 1) if c])


def _kernel_text(header, relations):
    return header + "\n" + "\n".join(relations) + "\n"


def _rational(rng):
    return _kernel_text("m=2 n=1 length=1 mode=rational", [
        "x1_[1,0] - %d*t1*x1_[0,0]" % rng.choice([1, -1]),
        "x1_[0,1] - %d*t2*x1_[0,0]" % rng.choice([1, -1])])


def _rotation(rng):
    a, c, lam = _nonzero(rng), _nonzero(rng), _nonzero(rng)
    return _kernel_text("m=2 n=2 length=1 mode=constants", [
        "x1_[1,0] - %d*x2_[0,0]" % a, "x2_[1,0] - %d*x1_[0,0]" % c,
        "x1_[0,1] - %d*x1_[0,0]" % lam, "x2_[0,1] - %d*x2_[0,0]" % lam])


def _riccati(rng):
    return _kernel_text("m=2 n=1 length=1 mode=constants", [
        "x1_[1,0] - %d*x1_[0,0]^2" % _nonzero(rng, 2),
        "x1_[0,1] - %d*x1_[0,0]^2" % _nonzero(rng, 2)])


# x' = c/x: the pivots are x, so every level builds a saturation basis


def _implicit_t1(rng):
    return _kernel_text("m=1 n=1 length=1 mode=rational", [
        "x1_[0]*x1_[1] - %d*t1" % _nonzero(rng)])


def _implicit_m2(rng):
    return _kernel_text("m=2 n=1 length=1 mode=constants", [
        "x1_[0,0]*x1_[1,0] - %d" % _nonzero(rng), "x1_[0,1]"])


def _implicit_n2(rng):
    return _kernel_text("m=1 n=2 length=1 mode=constants", [
        "x1_[0]*x1_[1] - x2_[0]", "x2_[1] - %d" % _nonzero(rng)])


def _counterexample(rng):
    return _kernel_text("m=2 n=1 length=1 mode=constants", [
        "x1_[1,0] - %d" % _nonzero(rng),
        "x1_[0,1] - %d*x1_[0,0]" % _nonzero(rng)])


def _inconsistent(rng):
    # D1 D2 x - D2 D1 x = b*x: the t1-derivative of the second relation
    return _kernel_text("m=2 n=1 length=1 mode=rational", [
        "x1_[1,0] - %d*t1*x1_[0,0]" % _nonzero(rng),
        "x1_[0,1] - %d*t1*x1_[0,0]" % _nonzero(rng)])


def _graph_count(n, length):
    """n * (|Gamma(length)| - 1) for m = 2."""
    return n * (math.comb(length + 2, 2) - 1)


# (name, text maker, target length, expected status, expected basis size,
# copies).  The largest jobs are kept near 0.4 s, and repeated instead of
# prolonged further (length 6 of the rational kernel alone takes three
# times as long as length 5): a run's per-job median then rests on many
# short samples, which other processes disturb less.
_FIXED = [
    ("rational-m2", _rational, 5, "prolonged", _graph_count(1, 5), 2),
    ("rotation-n2", _rotation, 3, "prolonged", _graph_count(2, 3), 2),
    ("riccati", _riccati, 5, "prolonged", _graph_count(1, 5), 2),
    # graphs over x' once x = c/x' is solved for
    ("implicit-t1", _implicit_t1, 6, "prolonged", 6, 1),
    ("implicit-m2", _implicit_m2, 4, "prolonged", _graph_count(1, 4), 1),
    ("implicit-n2", _implicit_n2, 4, "prolonged", None, 1),
    ("counterexample", _counterexample, 2, "obstructed", None, 1),
    ("inconsistent-t1", _inconsistent, 2, "obstructed", None, 1),
]


# Shapes of the m = 1 graph kernels: (mode, n, r, degree of each top
# relation's right-hand side, number of its terms), with the number of
# copies.  The monomials of a shape are drawn from a fixed stream and only
# the nonzero coefficients from the seed, so a seed changes the inputs but
# not the size of the work.  The two shapes cost about the same, and the
# median job of the workload falls among their copies, so job_ms_p50 does
# not hop between jobs of different cost.
_GRAPH_SHAPES = [(("rational", 2, 1, 1, 2), 5), (("constants", 2, 1, 3, 2), 5)]
_GRAPH_LEVELS = 4


def _graph_kernel(rng, shape_rng, mode, n, r, degree, terms):
    lower = [(i, (j,)) for i in range(1, n + 1) for j in range(r)]
    relations = []
    for i in range(1, n + 1):
        rhs = []
        for t in range(terms):
            # the first term carries the full degree, the rest lower ones
            d = degree if t == 0 else shape_rng.randint(0, degree - 1)
            factors = [shape_rng.choice(lower) for _ in range(d)]
            coeff = str(_nonzero(rng))
            if mode == "rational" and t == 0:
                coeff = "(%s + t1)" % coeff
            rhs.append("*".join([coeff] + [tp.var_text(v) for v in factors]))
        relations.append("x%d_[%d] - (%s)" % (i, r, " + ".join(rhs)))
    header = "m=1 n=%d length=%d mode=%s" % (n, r, mode)
    return _kernel_text(header, relations)


def specs(seed, variant=0):
    rng = random.Random("kernel-tower:%d:%d" % (seed, variant))
    out = []
    for name, make, target, status, size, copies in _FIXED:
        for copy in range(copies):
            out.append(("%s-%d" % (name, copy), make(rng), target, status,
                        size))
    for idx, ((mode, n, r, degree, terms), copies) in enumerate(_GRAPH_SHAPES):
        length = r + _GRAPH_LEVELS
        for copy in range(copies):
            shape_rng = random.Random("kernel-tower-shape:%d" % idx)
            text = _graph_kernel(rng, shape_rng, mode, n, r, degree, terms)
            out.append(("graph-%d-%d" % (idx, copy), text, length,
                        "prolonged", n * (length - r + 1)))
    return out


def build(api, seed, workdir, variant=0):
    render = _render(api)
    jobs = []
    for name, text, target, status, size in specs(seed, variant):
        def call(text=text, target=target):
            kernel = api.files.load_kernel_text(text)
            result, info = api.kernel_prolong_to(kernel, target)
            if result.status == "prolonged":
                # the final basis is computed lazily; it is part of the job
                result.next.ideal.reduced_gb
            return result, info

        jobs.append(Job(name, call, render, _checker(status, target, size)))
    return jobs


def _render(api):
    def render(outcome):
        result, info = outcome
        out = {"status": result.status, "final_length": info["final_length"]}
        if result.status == "prolonged":
            out["generators"] = [api.print_poly(g)
                                 for g in result.next.ideal.reduced_gb]
        else:
            out["witness"] = api.print_poly(result.witness.normal_form)
        return json.dumps(out, sort_keys=True)
    return render


def _checker(status, target, size):
    def check(out):
        if out["status"] != status:
            return "status %s, expected %s" % (out["status"], status)
        if status == "obstructed":
            return None if out["witness"] != "0" else "zero witness"
        if out["final_length"] != target:
            return "stopped at length %d" % out["final_length"]
        if size is not None and len(out["generators"]) != size:
            return "%d basis elements, expected %d" % (
                len(out["generators"]), size)
        return None
    return check

"""cli-batch: about 500 small seeded invocations of ``diffalg.cli.run``.

Per-call overhead dominates here: argparse, file parsing, ``print_poly``,
JSON output and block-order elimination on tiny ideals.  It is the only
workload with enough jobs for latency percentiles, and a change that speeds
up large bases but adds per-call set-up shows here as a regression.

Every job's input file is written to the work directory during set-up.
Each family below has a fixed count and a fixed shape per slot; the seed
draws the nonzero scalars, signs and roots, so inputs differ between seeds
while the size of the work does not.  Every expected verdict and exit code
is known by construction:

- bounds and axiom shapes equal the paper's closed forms;
- W = (f, D_1 f, ..., D_m f) over constants lies in the prolongation of
  its projection (naive shape holds); a point whose first derivative is a
  nonzero constant does not;
- a fully pinned jet (all derivatives zero up to level C) satisfies the
  sharp containment; one nonzero derivative breaks it;
- prolongation systems of a principal ideal have 1 + m (or 2) generators;
- linear kernels x' = a x are valid exactly when their second-level
  relations carry the products of the first-level scalars;
- graph kernels prolong with n * (|Gamma(L)| - 1) or n * (L - r + 1) basis
  elements, and the designed inconsistent kernels obstruct;
- a compiled formula's (t, r, n, alpha, beta) follow from its text and the
  closed forms.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random

import textpoly as tp
from common import Job


def _nonzero(rng, span=3):
    return rng.choice([c for c in range(-span, span + 1) if c])


def _unit(k, m):
    return tuple(1 if j == k - 1 else 0 for j in range(m))


def _gamma(m, level):
    """Multi-indices of length m and degree exactly ``level``."""
    if m == 1:
        return [(level,)]
    return [(a, level - a) for a in range(level, -1, -1)]


def closed_form_C(r, m, n):
    """C_{r,m}^n from the paper's closed forms (m = 1, m = 2, m = 3 n = 1)."""
    if m == 1:
        return r
    if m == 2:
        return (1 << n) * r
    return 3 * ((1 << r) - 1)


def _ideal_file(m, n, gamma, mode, polys):
    header = "m=%d n=%d gamma=%d mode=%s" % (m, n, gamma, mode)
    return header + "\n" + "\n".join(polys) + "\n"


def _kernel_file(m, n, length, mode, polys):
    header = "m=%d n=%d length=%d mode=%s" % (m, n, length, mode)
    return header + "\n" + "\n".join(polys) + "\n"


def _level0_poly(rng, shape, n, m):
    """A degree-2 polynomial in level-0 variables; monomials from ``shape``,
    nonzero coefficients from ``rng``."""
    zero = (0,) * m
    variables = [(i, zero) for i in range(1, n + 1)]
    f = {}
    for degree in (2, 1, 0):
        mono = tp.const(_nonzero(rng))
        for _ in range(degree):
            mono = tp.mul(mono, tp.var(*shape.choice(variables)))
        f = tp.add(f, mono)
    return f if any(f) else tp.var(1, zero)


def _json_check(code, test):
    """A check on (exit code, stdout JSON) built from ``test(data)``."""
    def check(out):
        if out["code"] != code:
            return "exit code %d, expected %d" % (out["code"], code)
        try:
            data = json.loads(out["stdout"])
        except ValueError:
            return "stdout is not JSON"
        return test(data)
    return check


def _expect(**want):
    def test(data):
        for key, value in want.items():
            if data.get(key) != value:
                return "%s=%r, expected %r" % (key, data.get(key), value)
        return None
    return test


# -- families: each returns (arguments, file text or None, check).  For a
# family with a command in FAMILIES, the arguments follow the command and
# its input file; otherwise they are the whole argv.


def fam_bounds(rng, shape):
    m = shape.choice([1, 1, 2, 2, 3])
    n = 1 if m == 3 else shape.randint(1, 4)
    r = rng.randint(0, 10 if m == 3 else 8)
    value = closed_form_C(r, m, n)
    return (["bounds", str(r), str(m), str(n)], None,
            _json_check(0, _expect(value=value, closed_form=value,
                                   closed_form_agrees=True)))


def fam_axiom_shape(rng, shape):
    m = shape.choice([1, 2])
    n = rng.randint(1, 3)
    C = closed_form_C(1, m, n)
    return (["axiom-shape", str(n), str(m)], None,
            _json_check(0, _expect(C=C, alpha=n * math.comb(C + m, m),
                                   beta=n * math.comb(C - 1 + m, m))))


def fam_naive_holds(rng, shape):
    n, m = shape.choice([1, 2]), shape.choice([1, 2])
    f = _level0_poly(rng, shape, n, m)
    polys = [f] + [tp.derive(f, k) for k in range(1, m + 1)]
    text = _ideal_file(m, n, 1, "constants", [tp.render(p) for p in polys])
    return (["--shape", "naive"], text,
            _json_check(0, _expect(holds=True, witnesses=[])))


def _has_witnesses(data):
    return None if data.get("witnesses") else "no witnesses"


def fam_naive_fails(rng, shape):
    n, m = shape.choice([1, 2]), shape.choice([1, 2])
    zero = (0,) * m
    x = tp.var(1, zero)
    polys = [tp.add(x, tp.const(rng.randint(-3, 3))),
             tp.add(tp.var(1, _unit(1, m)), tp.const(_nonzero(rng)))]
    text = _ideal_file(m, n, 1, "constants", [tp.render(p) for p in polys])
    return (["--shape", "naive"], text,
            _json_check(1, lambda d: _expect(holds=False)(d)
                        or _has_witnesses(d)))


def _pinned_jet(rng, shape, broken):
    """Coordinate i pinned to a constant with all derivatives up to level C
    zero, in the sharp ambient; ``broken`` sets one derivative nonzero.

    n = m = 2 (C = 4, 15 generators) costs about fifty small jobs, so it
    gets a small share of the slots."""
    if shape.random() < 0.15:
        n, m = 2, 2
    else:
        n, m = shape.choice([(1, 1), (1, 2), (2, 1)])
    C = closed_form_C(1, m, n)
    i = shape.randint(1, n)
    zero = (0,) * m
    indices = [xi for level in range(1, C + 1) for xi in _gamma(m, level)]
    bad = shape.choice(indices) if broken else None
    polys = [tp.add(tp.var(i, zero), tp.const(rng.randint(-3, 3)))]
    for xi in indices:
        c = _nonzero(rng) if xi == bad else 0
        polys.append(tp.add(tp.var(i, xi), tp.const(c)))
    return _ideal_file(m, n, C, "constants", [tp.render(p) for p in polys])


def fam_sharp_holds(rng, shape):
    return (["--shape", "sharp"], _pinned_jet(rng, shape, False),
            _json_check(0, _expect(holds=True, witnesses=[])))


def fam_sharp_fails(rng, shape):
    return (["--shape", "sharp"], _pinned_jet(rng, shape, True),
            _json_check(1, lambda d: _expect(holds=False)(d)
                        or _has_witnesses(d)))


def _principal(rng, shape):
    n, m = shape.choice([1, 2]), shape.choice([1, 2])
    mode = shape.choice(["constants", "rational"])
    f = tp.render(_level0_poly(rng, shape, n, m))
    if mode == "rational":
        f = "(%d + t%d)*(%s) + t1" % (_nonzero(rng), shape.randint(1, m), f)
    return m, _ideal_file(m, n, 0, mode, [f])


def _count(key, size):
    def test(data):
        got = len(data.get(key, []))
        return None if got == size else "%d %s, expected %d" % (got, key, size)
    return test


def fam_prolong_all(rng, shape):
    m, text = _principal(rng, shape)
    return (["--all"], text,
            _json_check(0, lambda d: _expect(k="all")(d)
                        or _count("generators", 1 + m)(d)))


def fam_prolong_k(rng, shape):
    m, text = _principal(rng, shape)
    k = shape.randint(1, m)
    return (["--k", str(k)], text,
            _json_check(0, lambda d: _expect(k=k)(d)
                        or _count("generators", 2)(d)))


def _linear_kernel(rng, shape, broken):
    """x' = a x (and x_[0,1] = c x) with their level-2 consequences."""
    m = shape.choice([1, 2])
    a = _nonzero(rng)
    c = _nonzero(rng)
    scal = {(1,): a} if m == 1 else {(1, 0): a, (0, 1): c}
    second = ({(2,): a * a} if m == 1 else
              {(2, 0): a * a, (1, 1): a * c, (0, 2): c * c})
    violations = 0
    if broken:
        xi = shape.choice(sorted(second))
        second[xi] += _nonzero(rng)
        # D_k of each first-level relation below xi sees the change
        violations = sum(1 for k in range(1, m + 1) if xi[k - 1] > 0)
    x = "x1_[%s]" % ",".join("0" * m)
    polys = ["x1_[%s] - %d*%s" % (",".join(map(str, xi)), s, x)
             for xi, s in list(scal.items()) + list(second.items())]
    return m, violations, _kernel_file(m, 1, 2, "constants", polys)


def fam_kernel_valid(rng, shape):
    m, _, text = _linear_kernel(rng, shape, False)
    return ([], text, _json_check(0, _expect(
        valid=True, violations=[], length=2,
        realization_bound=closed_form_C(2, m, 1))))


def fam_kernel_invalid(rng, shape):
    m, violations, text = _linear_kernel(rng, shape, True)
    return ([], text, _json_check(1, lambda d: _expect(
        valid=False, length=2, realization_bound=closed_form_C(2, m, 1))(d)
        or _count("violations", violations)(d)))


def _graph_kernel(rng, shape):
    """A length-1 graph kernel: m = 1 with polynomial right-hand sides, or
    the commuting linear m = 2 kernel x_[1,0] = a x, x_[0,1] = c x."""
    m = shape.choice([1, 1, 1, 2])
    if m == 2:
        polys = ["x1_[1,0] - %d*x1_[0,0]" % _nonzero(rng),
                 "x1_[0,1] - %d*x1_[0,0]" % _nonzero(rng)]
        return m, 1, _kernel_file(2, 1, 1, "constants", polys)
    n = shape.choice([1, 2])
    polys = [tp.render(tp.sub(tp.var(i, (1,)),
                              _level0_poly(rng, shape, n, 1)))
             for i in range(1, n + 1)]
    return m, n, _kernel_file(1, n, 1, "constants", polys)


def _graph_basis_size(m, n, length):
    return n * (math.comb(length + m, m) - 1)


def fam_kernel_prolong_to(rng, shape):
    m, n, text = _graph_kernel(rng, shape)
    return (["--to", "2"], text, _json_check(0, lambda d: _expect(
        status="prolonged", final_length=2, target_length=2,
        bound=closed_form_C(1, m, n))(d)
        or _count("final_generators", _graph_basis_size(m, n, 2))(d)))


def fam_kernel_prolong_bound(rng, shape):
    m, n, text = _graph_kernel(rng, shape)
    bound = closed_form_C(1, m, n)
    return (["--to-bound"], text, _json_check(0, lambda d: _expect(
        status="prolonged", final_length=bound, target_length=bound,
        bound=bound, realization_guaranteed=True)(d)
        or _count("final_generators", _graph_basis_size(m, n, bound))(d)))


def fam_kernel_obstructed(rng, shape):
    # D_2 of x_[1,0] - a gives x_[1,1] = 0, D_1 of x_[0,1] - b x gives a*b
    polys = ["x1_[1,0] - %d" % _nonzero(rng),
             "x1_[0,1] - %d*x1_[0,0]" % _nonzero(rng)]
    text = _kernel_file(2, 1, 1, "constants", polys)

    def test(data):
        err = _expect(status="obstructed")(data)
        if err is None and data["witness"]["normal_form"] == "0":
            return "zero witness"
        return err
    return (["--to", str(shape.randint(2, 3))], text, _json_check(1, test))


def _formula_var(i, xi):
    if not any(xi):
        return "x%d" % i
    return "d[%s]x%d" % (",".join(map(str, xi)), i)


def fam_compile_formula(rng, shape):
    m, t, r = shape.choice([1, 2]), shape.randint(1, 3), shape.randint(0, 2)
    levels = [xi for level in range(r + 1) for xi in _gamma(m, level)]
    # the first atom carries the largest index and the top derivative
    top = _gamma(m, r)[0]
    atoms = []
    for idx in range(shape.randint(2, 3)):
        if idx == 0:
            factors = [(t, top), (shape.randint(1, t), shape.choice(levels))]
        else:
            factors = [(shape.randint(1, t), shape.choice(levels))]
        body = "%d*%s" % (_nonzero(rng), "*".join(_formula_var(*f)
                                                  for f in factors))
        rel = shape.choice(["=", "!="])
        atoms.append("%s - %d %s 0" % (body, rng.randint(-3, 3), rel))
    text = atoms[0]
    for atom in atoms[1:]:
        text = "(%s) %s %s" % (text, shape.choice(["&", "|"]), atom)
    if shape.random() < 0.5:
        text = "!(%s)" % text
    want = {"t": t, "r": r, "m": m, "algebraically_closed": r == 0}
    if r == 0:
        want.update(n=t, alpha=None, beta=None)
    else:
        n = t * math.comb(r - 1 + m, m)
        C = closed_form_C(1, m, n)
        want.update(n=n, alpha=n * math.comb(C + m, m),
                    beta=n * math.comb(C - 1 + m, m))
    return (["--m", str(m)], text + "\n",
            _json_check(0, lambda d: _expect(**want)(d)
                        or _count("atoms", len(atoms))(d)))


def fam_large_input(rng, shape):
    text = _ideal_file(1, 2, 0, "rational", [
        "(x1_[0] %s x2_[0] + t1)^20 - %d"
        % (rng.choice("+-"), _nonzero(rng))])
    return (["--k", "1"], text, _json_check(0, _count("generators", 2)))


def _demo_check(data):
    if not data["containment"]["holds"]:
        return "naive containment fails"
    if data["kernel"]["status"] != "obstructed":
        return "kernel not obstructed"
    return None


# (family, command, count).  The command takes the input file first.
FAMILIES = [
    (fam_bounds, None, 60),
    (fam_axiom_shape, None, 40),
    (fam_naive_holds, "check-containment", 50),
    (fam_naive_fails, "check-containment", 30),
    (fam_sharp_holds, "check-containment", 30),
    (fam_sharp_fails, "check-containment", 20),
    (fam_prolong_all, "prolong-variety", 40),
    (fam_prolong_k, "prolong-variety", 40),
    (fam_kernel_valid, "kernel-check", 30),
    (fam_kernel_invalid, "kernel-check", 20),
    (fam_kernel_prolong_to, "kernel-prolong", 40),
    (fam_kernel_prolong_bound, "kernel-prolong", 20),
    (fam_kernel_obstructed, "kernel-prolong", 20),
    (fam_compile_formula, "compile-formula", 40),
    (fam_large_input, "prolong-variety", 4),
]
DEMOS = 10


def specs(seed, variant=0):
    """[(job name, argv, file text or None, check)] in a seeded order.

    A file argument is written as the placeholder ``{file}``.  The order
    depends on the seed only, so job i has the same shape in every variant.
    """
    rng = random.Random("cli-batch:%d:%d" % (seed, variant))
    out = []
    for family, command, count in FAMILIES:
        name = family.__name__[4:].replace("_", "-")
        for slot in range(count):
            shape = random.Random("cli-batch-shape:%s:%d" % (name, slot))
            args, text, check = family(rng, shape)
            argv = [command, "{file}"] + args if command else args
            out.append(("%s-%d" % (name, slot), argv, text, check))
    for slot in range(DEMOS):
        mode = ("constants", "rational")[slot % 2]
        out.append(("demo-%d" % slot,
                    ["demo", "counterexample", "--mode", mode], None,
                    _json_check(1, _demo_check)))
    random.Random("cli-batch-order:%d" % seed).shuffle(out)
    return out


def build(api, seed, workdir, variant=0):
    jobs = []
    for idx, (name, argv, text, check) in enumerate(specs(seed, variant)):
        if text is not None:
            path = os.path.join(workdir, "job-%03d.txt" % idx)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            argv = [path if a == "{file}" else a for a in argv]

        def call(argv=argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = api.cli.run(argv)
            return code, buf.getvalue()

        jobs.append(Job(name, call, _render, check))
    return jobs


def _render(outcome):
    code, stdout = outcome
    return json.dumps({"code": code, "stdout": stdout}, sort_keys=True)

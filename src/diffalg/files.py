"""Ideal and kernel file formats.

An ideal file starts with a header line of key=value pairs:

    m=<int> n=<int> gamma=<int> mode=<constants|rational>

followed by one polynomial per line in the dpoly grammar.  Blank lines and
lines starting with '#' are ignored.  A kernel file additionally carries
length=<r> in the header (gamma defaults to the length).  A header key
outside these five, or given twice, is an error.
"""
from __future__ import annotations

from .coeff import FieldMode
from .dpoly import Context, parse_poly
from .errors import FileFormatError, ParseError
from .groebner import IdealPresentation, MonomialOrder
from .indices import deg
from .kernels import KernelPresentation


def _parse_header(line):
    fields = {}
    for chunk in line.split():
        if "=" not in chunk:
            raise FileFormatError("bad header field %r" % chunk)
        key, _, value = chunk.partition("=")
        if key not in ("m", "n", "gamma", "length", "mode"):
            raise FileFormatError("unknown header key %r" % key)
        if key in fields:
            raise FileFormatError("header key %r given twice" % key)
        fields[key] = value
    return fields


def _read(text):
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise FileFormatError("empty file")
    return _parse_header(lines[0]), lines[1:]


def _context(fields, need_length=False):
    try:
        m = int(fields["m"])
        n = int(fields["n"])
        mode_kind = fields.get("mode", "constants")
        length = int(fields["length"]) if "length" in fields else None
        gamma = int(fields["gamma"]) if "gamma" in fields else length
    except (KeyError, ValueError) as exc:
        raise FileFormatError("bad or missing header field: %s" % exc)
    if need_length and length is None:
        raise FileFormatError("kernel file needs length=<r> in the header")
    if gamma is None:
        raise FileFormatError("header needs gamma=<int>")
    for key, value in (("length", length), ("gamma", gamma)):
        if (value or 0) < 0:
            raise FileFormatError("header %s=%d is negative" % (key, value))
    mode = FieldMode(mode_kind, m)
    return Context(n=n, m=m, mode=mode), gamma, length


def _parse_generators(lines, ctx, gamma):
    gens = []
    for lineno, text in enumerate(lines, start=2):
        try:
            g = parse_poly(text, ctx)
        except ParseError as exc:
            raise FileFormatError("line %d: %s" % (lineno, exc))
        for v in g.variables():
            if deg(v[1]) > gamma:
                raise FileFormatError(
                    "line %d: variable level %d exceeds gamma=%d"
                    % (lineno, deg(v[1]), gamma))
        gens.append(g)
    return gens


def load_ideal_text(text):
    """Parse an ideal file body; returns (IdealPresentation, header fields)."""
    fields, lines = _read(text)
    ctx, gamma, _ = _context(fields)
    gens = _parse_generators(lines, ctx, gamma)
    return IdealPresentation(ctx, gens), fields


def load_kernel_text(text):
    """Parse a kernel file body; returns a KernelPresentation."""
    fields, lines = _read(text)
    ctx, gamma, length = _context(fields, need_length=True)
    gens = _parse_generators(lines, ctx, min(gamma, length))
    return KernelPresentation(
        ctx=ctx, r=length,
        ideal=IdealPresentation(ctx, gens, MonomialOrder.lex()))


def load_ideal(path):
    with open(path, "r", encoding="utf-8") as fh:
        return load_ideal_text(fh.read())


def load_kernel(path):
    with open(path, "r", encoding="utf-8") as fh:
        return load_kernel_text(fh.read())

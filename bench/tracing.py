"""Per-layer spans for the apolar benchmark, recorded from outside the package.

`installed` swaps each public function named in TIMED for a wrapper, in every
apolar module namespace that holds it, so calls the package makes to itself
(tangent_dim -> stratify -> rank) are timed as well as the benchmark's own
calls.  Each call records one span: name, start, end, parent span and trial.
A layer's self time is its spans' durations minus the part covered by their
child spans.  Nothing under src/ changes; the originals are put back when the
traced run ends.

Functions that eliminate a matrix they build privately
(relation_space_dim_bruteforce, koszul_kernel_check, associated_form) are one
span each; after the trial their matrix is rebuilt here from the public poly
API, and its shape and entry width are recorded with the span, as they are
for each linalg.rank call.  The costliest rank is also probed with
rank_mod_prime.
"""
from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm
from time import perf_counter

import apolar.linalg as linalg
import apolar.poly as poly

TIMED = (
    "sampling.random_ci_tuple",
    "sampling.random_invertible_matrix",
    "ci.associated_form",
    "ci.roundtrip_span",
    "apolarity.stratify",
    "apolarity.apolar_hilbert",
    "apolarity.annihilator_polynomials",
    "poly.act_gl",
    "linalg.rank",
    "linalg.matrix_inverse",
    "linalg.determinant",
    "tangent.product_space_dim",
    "tangent.relation_space_dim_bruteforce",
    "tangent.koszul_kernel_check",
    "identities.check_a1",
    "identities.check_a2",
    "identities.check_a3",
    "identities.check_aux",
    "identities.check_dimt2_equals_n",
    "identities.check_delta_consistency",
    "cli.emit_report",
)
# Counted, not timed: one call per form drawn, n per sampling attempt.
COUNTED = ("sampling.random_form",)

PER_LAYER_UNITS = {
    **{name + "_s": "s" for name in TIMED},
    "linalg.rank_mod_prime_s": "s",
    "linalg.max_entry_bits": "bits",
    "linalg.rows": "count",
    "linalg.cols": "count",
    "sampling.random_ci_tuple_calls": "count",
    "sampling.useful_draw_frac": "fraction",
    "cli.report_bytes": "bytes",
    "trace.coverage": "fraction",
    "trace.overhead_frac": "fraction",
}


def _arguments(*names):
    """Capture the named leading arguments, passed by position or keyword."""

    def capture(args, kwargs):
        return tuple(args[i] if i < len(args) else kwargs[x] for i, x in enumerate(names))

    return capture


# What a span keeps of its arguments: the matrix it eliminates, rebuilt after
# the trial, or the variable count of a sampled tuple.
CAPTURES = {
    "linalg.rank": ("rows", _arguments("m")),
    "ci.associated_form": ("socle", _arguments("f")),
    "tangent.relation_space_dim_bruteforce": ("relation", _arguments("f")),
    "tangent.koszul_kernel_check": ("koszul", _arguments("f", "rho")),
    "sampling.random_ci_tuple": ("sample", _arguments("n")),
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent, trial].

    close_trial adds each closed trial's self time per span name to
    self_seconds, and its time inside top-level spans to covered_seconds, in
    the trial's reference-speed seconds.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.captured: dict[int, tuple] = {}
        self.counts: Counter = Counter()
        self.self_seconds: defaultdict[str, float] = defaultdict(float)
        self.covered_seconds = 0.0
        self.trial = -1
        self.trial_start = 0
        self._stack: list[int] = []

    def timed(self, name, fn, capture=None):
        spans, stack, captured = self.spans, self._stack, self.captured
        kind, capture = capture if capture else (None, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.trial]
            spans.append(span)
            if capture is not None:
                captured[index] = (kind, capture(args, kwargs))
            stack.append(index)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return traced

    def close_trial(self, scale: float) -> list[float]:
        """Add the spans since the last call to self_seconds and
        covered_seconds, with their durations multiplied by `scale`.

        Returns their self times in wall seconds, in span order.
        """
        first = self.trial_start
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= first:
                child[parent - first] += end - start
            else:
                # Top-level spans never overlap.
                self.covered_seconds += (end - start) * scale
        own = [end - start - inner for (_, start, end, _, _), inner in zip(spans, child)]
        for (name, _, _, _, _), seconds in zip(spans, own):
            self.self_seconds[name] += seconds * scale
        self.trial_start = len(self.spans)
        return own

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)


@contextmanager
def installed(tracer: Tracer):
    """Wrap TIMED and COUNTED functions in every loaded apolar module."""
    modules = [m for key, m in sys.modules.items() if key == "apolar" or key.startswith("apolar.")]
    swapped = []
    for qualname in TIMED + COUNTED:
        module_name, attr = qualname.split(".")
        original = getattr(sys.modules["apolar." + module_name], attr)
        if qualname in COUNTED:
            wrapper = tracer.counted(qualname, original)
        else:
            wrapper = tracer.timed(qualname, original, CAPTURES.get(qualname))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    swapped.append((module, key, original))
    try:
        yield tracer
    finally:
        for module, key, original in reversed(swapped):
            setattr(module, key, original)


def _primitive(coeffs) -> list[int]:
    """Coefficients scaled to coprime integers (rank and kernel unchanged)."""
    fracs = [Fraction(c) for c in coeffs]
    mult = lcm(*(f.denominator for f in fracs)) if fracs else 1
    ints = [int(f * mult) for f in fracs]
    content = 0
    for v in ints:
        content = gcd(content, v)
    return [v // content for v in ints] if content > 1 else ints


def _shifted_rows(polys, nvars: int, shift: int, degree: int) -> list[list[int]]:
    """Rows m * p for every degree-`shift` monomial m, columns in grlex."""
    col = poly.monomial_index(nvars, degree)
    rows = []
    for p in polys:
        terms = p.sorted_terms()
        ints = _primitive(c for _, c in terms)
        for m in poly.monomial_basis(nvars, shift):
            row = [0] * len(col)
            for (b, _), c in zip(terms, ints):
                row[col[tuple(x + y for x, y in zip(m, b))]] = c
            rows.append(row)
    return rows


def elimination_matrix(kind: str, data: tuple) -> list[list[int]]:
    """The integer matrix a captured span eliminated, rebuilt publicly."""
    if kind == "rows":
        rows = data[0].entries if isinstance(data[0], linalg.MatrixQ) else data[0]
        return [_primitive(row) for row in rows]
    if kind == "koszul":
        f, rho = data
        return _shifted_rows(f.forms, f.var_count, rho, rho + f.degree)
    f = data[0]
    n, d, s = f.var_count, f.degree, f.socle_degree
    if kind == "socle":
        return _shifted_rows(f.forms, n, s - d, s)
    products = [f.forms[i] * f.forms[j] for i in range(n) for j in range(i, n)]
    return _shifted_rows(products, n, s - 2 * d, s)


def finish_trial(tracer: Tracer, scale: float) -> tuple[int, tuple | None]:
    """Close the current trial, outside its timed region; `scale` turns its
    wall seconds into reference-speed seconds.

    Appends [rows, cols, max entry bits] of its matrix to each elimination
    span.  Returns the forms in the tuples the trial sampled, and (rows, cols,
    max entry bits, mod-p probe reference-speed seconds) of the `linalg.rank`
    call with the most self time, or else of the private elimination with the
    most self time, or None when it eliminated nothing.  Drops the captured
    arguments.
    """
    first = tracer.trial_start
    own = tracer.close_trial(scale)
    sampled_forms = 0
    costliest = None
    for index, (kind, data) in tracer.captured.items():
        if kind == "sample":
            sampled_forms += data[0]
            continue
        matrix = elimination_matrix(kind, data)
        shape = [len(matrix), len(matrix[0]) if matrix else 0,
                 max((abs(v).bit_length() for row in matrix for v in row), default=0)]
        tracer.spans[index].append(shape)
        key = (kind == "rows", own[index - first])
        if costliest is None or key > costliest[0]:
            costliest = (key, matrix, shape)
    tracer.captured.clear()
    if costliest is None:
        return sampled_forms, None
    _, matrix, shape = costliest
    start = perf_counter()
    linalg.rank_mod_prime(matrix)
    return sampled_forms, (*shape, (perf_counter() - start) * scale)

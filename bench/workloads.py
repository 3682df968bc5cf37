"""Workloads of the apolar benchmark.

Each workload turns the run seed into program inputs (CLI master seeds, or
tuple and matrix seeds), runs one trial at a time through the package's
public entry points, and checks every record exactly.  Expected values are the paper's
constants, or its closed forms evaluated here with math.comb; no check
compares a program value with another value the program derived from the
same expression.

The package modules are called through their module objects
(``sampling.random_ci_tuple``), never through names bound at import, so the
traced run's wrappers (tracing.py) see every call made here.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from functools import cached_property
from math import comb
from time import perf_counter

import apolar.apolarity as apolarity
import apolar.ci as ci
import apolar.cli as cli
import apolar.linalg as linalg
import apolar.poly as poly
import apolar.sampling as sampling
import apolar.tangent as tangent

# The report digests below were taken with this run seed; other seeds are
# checked by value only.
DEFAULT_SEED = 0
# sha256 of each trial's JSON-lines report at DEFAULT_SEED, by input index.
TANGENT_DIGESTS = {
    0: "d7ee6f4cbbfb435bbc5479f64bcffc730e8cb7b4cc939c97125e30e3e6da9879",
    1: "973b92c6a6e713cf3503b7da3e79c700e3e8378a976dbda2583d8ac480dd99d5",
    2: "4098cb300f029cc3fe0f25106000043005e72c6fbbc9d7dca740888574fb5f79",
    3: "fd89966023a12a5e330b73955016460a0287064bb45157301337f4bfafd0a2a1",
    4: "254d029ff015afda4fdc389cfcde2e690824dae73abd4cdd55e39882179efac9",
    5: "fe716af991280ff6f0b2da4446242786920bf5be2f26e0fd18d9ec7487df098b",
}
# sha256 of the identities report: its inputs do not depend on the seed.
IDENTITIES_DIGEST = "eca6109245241321226892b2bc5be0ab70cb41cd632ffd2b35b2eeee937eee3c"

# N = Kn - n^2 + 1, the tangent dimension at a point of U_Res.
EXPECTED_N = {(3, 3): 22, (3, 5): 55}
# dim R, the relation space of the shifted pairwise products.
EXPECTED_DIM_R = {(3, 3): 0, (3, 5): 0}
# Coefficients of (1 + u + ... + u^{d-1})^n.
EXPECTED_HILBERT = {
    (2, 2): (1, 2, 1),
    (2, 3): (1, 2, 3, 2, 1),
    (3, 2): (1, 3, 3, 1),
    (3, 3): (1, 3, 6, 7, 6, 3, 1),
}


def dim_forms(n: int, degree: int) -> int:
    return comb(n + degree - 1, n - 1) if degree >= 0 else 0


def relation_band(n: int, d: int) -> bool:
    """Where `apolar tangent` also reports both dim R routes."""
    return n >= 3 and (n > 3 or d >= 3) and n * (d - 1) >= 2 * d


def seed_stream(seed: int):
    """64-bit trial seeds drawn from the run seed."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(64)


@dataclass
class Outcome:
    """A trial's output, and when the program calls that made it started and
    ended (perf_counter seconds)."""

    start: float
    end: float
    output: object
    report_bytes: int = 0


@dataclass
class CliWorkload:
    """A trial is one in-process `apolar` invocation (`--jobs 1`) writing a
    JSON-lines report to a file inside the checkout."""

    name: str
    digests: dict[int, str] = field(default_factory=dict)
    inputs_per_run: int = 1

    def argv(self, trial_input) -> list[str]:
        raise NotImplementedError

    def expected(self, trial_input) -> list[dict]:
        """The records the trial must produce, in order, field by field."""
        raise NotImplementedError

    def records_per_trial(self, trial_input) -> int:
        return len(self.expected(trial_input))

    def run(self, trial_input, out_path: str) -> Outcome:
        argv = self.argv(trial_input) + ["--out", out_path]
        with open(out_path, "wb"):
            pass  # a trial that writes nothing must not be checked on an older report
        start = perf_counter()
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        end = perf_counter()
        with open(out_path, "rb") as handle:
            report = handle.read()
        return Outcome(start, end, (code, report), len(report))

    def check(self, index: int, trial_input, output, seed: int) -> tuple[int, bool]:
        """(failed records, digest matched) for one trial's output."""
        code, report = output
        want = self.expected(trial_input)
        digest = self.digest_for(index, seed)
        digest_ok = digest is None or hashlib.sha256(report).hexdigest() == digest
        got = [json.loads(line) for line in report.splitlines()]
        if code != 0 or len(got) != len(want):
            return len(want), digest_ok
        return sum(g != w for g, w in zip(got, want)), digest_ok

    def digest_for(self, index: int, seed: int) -> str | None:
        return self.digests.get(index) if seed == DEFAULT_SEED else None


@dataclass
class TangentWorkload(CliWorkload):
    n: int = 3
    d: int = 5
    coeff_bound: int = 5

    def inputs(self, seed: int):
        return seed_stream(seed)

    def argv(self, master_seed: int) -> list[str]:
        return [
            "tangent", "--n", str(self.n), "--d", str(self.d),
            "--coeff-bound", str(self.coeff_bound), "--trials", "1",
            "--seed", str(master_seed), "--jobs", "1",
        ]

    def expected(self, master_seed: int) -> list[dict]:
        n, d = self.n, self.d
        big_n = EXPECTED_N[(n, d)]
        ambient = dim_forms(n, n * (d - 1))
        dim_r = EXPECTED_DIM_R[(n, d)] if relation_band(n, d) else None
        return [{
            "suite": "tangent", "trial": 0, "seed": splitmix64_first(master_seed),
            "n": n, "d": d, "dim_ambient": ambient, "dim_product": ambient - big_n,
            "tangent_dim": big_n, "expected_N": big_n,
            "dim_R_bruteforce": dim_r, "dim_R_formula": dim_r, "pass": True,
        }]


@dataclass
class IdentitiesWorkload(CliWorkload):
    """The identity ranges are fixed, so every seed runs the same inputs and
    the report digest is checked on every run."""

    max_p: int = 40
    max_r: int = 40
    max_n: int = 30
    max_m: int = 40
    max_nd: int = 12
    digest: str = ""

    def inputs(self, seed: int):
        while True:
            yield None

    def argv(self, _input) -> list[str]:
        return [
            "identities", "--max-p", str(self.max_p), "--max-r", str(self.max_r),
            "--max-n", str(self.max_n), "--max-m", str(self.max_m),
            "--max-nd", str(self.max_nd),
        ]

    def digest_for(self, index: int, seed: int) -> str | None:
        return self.digest or None

    def expected(self, _input) -> list[dict]:
        return self._expected_records

    @cached_property
    def _expected_records(self) -> list[dict]:
        return [
            {"suite": "identities", "identity_id": ident, "params": list(params),
             "lhs": value, "rhs": value, "pass": True}
            for ident, params, value in self.identity_values()
        ]

    def identity_values(self):
        """(identity, params, value) in the CLI's order; both sides must
        equal the value."""
        for p in range(1, self.max_p + 1):
            for r in range(1, self.max_r + 1):
                yield "A1", (p, r), 1
                yield "A2", (p, r), comb(p + r - 1, p)
        for n in range(5, self.max_n + 1):
            for m in range(5, n + 2):
                yield "A3", (n, m), (-1) ** m * (m - 1) * comb(n + 1, m)
        for n in range(2, self.max_n + 1):
            for m in range(2, self.max_m + 1):
                yield "AUX788", (n, m), 0
                yield "AUX778", (n, m), 0
        for n in range(2, self.max_nd + 1):
            for d in range(2, self.max_nd + 1):
                s = n * (d - 1)
                big_n = dim_forms(n, d) * n - n * n + 1
                yield "DIMT2_EQ_N", (n, d), big_n
                if n >= 3 and (n > 3 or d >= 3):
                    # Conormal count: I/I^2 is free over S/I of rank n, so
                    # dim (I^2)_s = dim S_s - N (Bruns-Herzog 1.1), which is
                    # independent of the paper's alternating sum.
                    yield "DELTA_CONSISTENCY", (n, d), (
                        comb(n + 1, 2) * dim_forms(n, s - 2 * d) - dim_forms(n, s) + big_n
                    )


@dataclass
class SmallCiWorkload:
    """Library traffic shaped like acceptance criteria 4-8 on small tuples.

    A trial is one round over `shapes`, one tuple each.  Per-tuple times
    differ about thirtyfold between (2,2) and (3,3), so their median falls in
    a gap between shapes and hardly moves when every shape slows down; the
    time of a whole round does move.
    """

    name: str
    shapes: tuple[tuple[int, int], ...] = ((2, 2), (2, 3), (3, 2), (3, 3))
    inputs_per_run: int = 1

    def inputs(self, seed: int):
        stream = seed_stream(seed)
        while True:
            yield [(shape, next(stream), next(stream)) for shape in self.shapes]

    def records_per_trial(self, _round) -> int:
        return len(self.shapes)

    def run(self, tuples, out_path: str) -> Outcome:
        start = perf_counter()
        outputs = [self._one_tuple(n, d, tuple_seed, matrix_seed)
                   for (n, d), tuple_seed, matrix_seed in tuples]
        return Outcome(start, perf_counter(), outputs)

    @staticmethod
    def _one_tuple(n: int, d: int, tuple_seed: int, matrix_seed: int) -> dict:
        f = sampling.random_ci_tuple(n, d, tuple_seed)
        a = ci.associated_form(f)
        annihilates = all(poly.apply_polar(fi, a).is_zero for fi in f.forms)
        hilbert = apolarity.apolar_hilbert(a)
        stratum = apolarity.stratify(a, n, d)
        matrices = sampling.SplitMix64(matrix_seed)
        g1 = sampling.random_invertible_matrix(n, matrices)
        g2 = sampling.random_invertible_matrix(n, matrices)
        moved = ci.associated_form(poly.act_gl(g1, g2, f))
        scale = linalg.determinant(g1) * linalg.determinant(g2)
        pulled = poly.act_gl(linalg.matrix_inverse(g1).transpose(), None, a) * scale
        koszul = [
            tangent.koszul_kernel_check(f, rho) for rho in range(d, n * (d - 1) - d + 1)
        ]
        return {
            "n": n, "d": d, "annihilates": annihilates, "hilbert": hilbert,
            "stratum": (stratum.in_URes, stratum.hilbert, stratum.rank_d),
            "equivariant": moved == pulled, "roundtrip": ci.roundtrip_span(f),
            "koszul": koszul,
        }

    def check(self, index: int, tuples, outputs, seed: int) -> tuple[int, bool]:
        failed = 0
        for ((n, d), _, _), output in zip(tuples, outputs, strict=True):
            want_hilbert = EXPECTED_HILBERT[(n, d)]
            band = max(0, n * (d - 1) - 2 * d + 1)
            ok = (
                output["n"] == n and output["d"] == d
                and output["annihilates"] is True
                and output["hilbert"] == want_hilbert
                and output["stratum"] == (True, want_hilbert, dim_forms(n, d) - n)
                and output["equivariant"] is True
                and output["roundtrip"] is True
                and output["koszul"] == [True] * band
            )
            failed += not ok
        return failed, True


def splitmix64_first(seed: int) -> int:
    """First splitmix64 output for a master seed: the trial seed the CLI must
    report for its one trial."""
    mask = (1 << 64) - 1
    z = (seed + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def build(name: str):
    """The workload of that name at its benchmark size; BENCHMARK.json says
    why each was chosen."""
    if name == "tangent-3x5":
        return TangentWorkload(name, digests=TANGENT_DIGESTS, inputs_per_run=6)
    if name == "small-ci":
        return SmallCiWorkload(name, inputs_per_run=16)
    if name == "identities-default":
        return IdentitiesWorkload(name, digest=IDENTITIES_DIGEST)
    raise ValueError(f"unknown workload {name!r}")

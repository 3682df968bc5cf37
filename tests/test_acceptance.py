"""End-to-end acceptance gate.

Every check here is an exact integer or polynomial equality (no tolerances
anywhere).  Each test prints one summary line, ACCEPTANCE <ID> PASS or
ACCEPTANCE <ID> FAIL, so a log scrape shows the verdict per criterion.
"""
from apolar import (
    SplitMix64,
    act_gl,
    apply_polar,
    apolar_hilbert,
    associated_form,
    binom,
    check_a1,
    check_a2,
    check_a3,
    check_aux,
    check_dimt2_equals_n,
    ci_hilbert,
    determinant,
    expected_N,
    form_power_products,
    koszul_kernel_check,
    matrix_inverse,
    parse_polynomial,
    random_ci_tuple,
    random_form,
    random_invertible_matrix,
    relation_space_dim_bruteforce,
    relation_space_dim_formula,
    roundtrip_span,
    span_dim,
    stratify,
    tangent_dim,
)
from apolar.ci import GradedQuotient
from apolar.cli import trial_seeds
from bareiss_reference import bareiss_quotient_dims


def _conclude(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name} {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {name} failed"


def _guarded(name: str, compute) -> None:
    try:
        ok = compute()
    except BaseException:
        print(f"ACCEPTANCE {name} FAIL")
        raise
    _conclude(name, ok)


EXPECTED_N = {
    (3, 3): 22,
    (3, 4): 37,
    (3, 5): 55,
    (4, 2): 25,
    (4, 3): 65,
    (5, 2): 51,
}

RELATION_DIMS = {(3, 4): 0, (3, 5): 0, (4, 4): 20, (6, 2): 70}


def test_criterion_1_smoothness_dimension():
    def compute() -> bool:
        ok = True
        for (n, d), want in sorted(EXPECTED_N.items()):
            bound = 2 if (n, d) == (4, 3) else 5
            ok = ok and expected_N(n, d) == want
            for seed in trial_seeds(100 * n + d, 5):
                f = random_ci_tuple(n, d, seed, coeff_bound=bound)
                report = tangent_dim(associated_form(f))
                ok = ok and report.tangent_dim == want
        return ok

    _guarded("SMOOTHNESS_DIMENSION", compute)


def test_criterion_2_relation_space():
    def compute() -> bool:
        ok = True
        for (n, d), want in sorted(RELATION_DIMS.items()):
            bound = 2 if n >= 4 else 5
            ok = ok and relation_space_dim_formula(n, d) == want
            for seed in trial_seeds(200 + 10 * n + d, 3):
                f = random_ci_tuple(n, d, seed, coeff_bound=bound)
                ok = ok and relation_space_dim_bruteforce(f) == want
        return ok

    _guarded("RELATION_SPACE", compute)


def test_criterion_3_identity_suite():
    def compute() -> bool:
        ok = True
        for p in range(1, 41):
            for r in range(1, 41):
                ok = ok and check_a1(p, r).passed and check_a2(p, r).passed
        for n in range(5, 31):
            for m in range(5, n + 2):
                ok = ok and check_a3(n, m).passed
        for n in range(2, 31):
            for m in range(2, 41):
                plain, weighted = check_aux(n, m)
                ok = ok and plain.lhs == 0 and weighted.lhs == 0
        for n in range(2, 13):
            for d in range(2, 13):
                ok = ok and check_dimt2_equals_n(n, d).passed
        return ok

    _guarded("IDENTITY_SUITE", compute)


def test_criterion_4_associated_form_properties():
    def compute() -> bool:
        ok = True
        for idx, (n, d) in enumerate([(2, 2), (2, 3), (3, 2), (3, 3)]):
            matrices = SplitMix64(1000 + idx)
            for seed in trial_seeds(400 + idx, 25):
                f = random_ci_tuple(n, d, seed)
                a = associated_form(f)
                ok = ok and all(apply_polar(fi, a).is_zero for fi in f.forms)
                ok = ok and apolar_hilbert(a) == ci_hilbert(n, d)
                g1 = random_invertible_matrix(n, matrices)
                g2 = random_invertible_matrix(n, matrices)
                lhs = associated_form(act_gl(g1, g2, f))
                scale = determinant(g1) * determinant(g2)
                rhs = act_gl(matrix_inverse(g1).transpose(), None, a) * scale
                ok = ok and lhs == rhs
                ok = ok and roundtrip_span(f)
        return ok

    _guarded("ASSOCIATED_FORM_PROPERTIES", compute)


def _power_coefficients(n: int, d: int) -> tuple[int, ...]:
    """Coefficients of (1 + u + ... + u^{d-1})^n by direct convolution."""
    coeffs = [1]
    for _ in range(n):
        out = [0] * (len(coeffs) + d - 1)
        for i, a in enumerate(coeffs):
            for j in range(d):
                out[i + j] += a
        coeffs = out
    return tuple(coeffs)


def test_criterion_5_hilbert_function():
    def compute() -> bool:
        ok = True
        configs = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (3, 4), (5, 2)]
        for idx, (n, d) in enumerate(configs):
            target = _power_coefficients(n, d)
            assert sum(target) == d**n
            for seed in trial_seeds(500 + idx, 2):
                f = random_ci_tuple(n, d, seed)
                hf = GradedQuotient(f).hilbert()
                ok = ok and hf == target
                if n * (d - 1) <= 4:
                    exact = bareiss_quotient_dims(f, n * (d - 1) + 1)
                    ok = ok and exact == target + (0,)
        return ok

    _guarded("HILBERT_FUNCTION", compute)


def test_criterion_6_koszul_kernel():
    def compute() -> bool:
        ok = True
        for idx, (n, d) in enumerate([(3, 3), (4, 2), (3, 4)]):
            for seed in trial_seeds(600 + idx, 3):
                f = random_ci_tuple(n, d, seed)
                for rho in range(d, n * (d - 1) - d + 1):
                    ok = ok and koszul_kernel_check(f, rho)
        return ok

    _guarded("KOSZUL_KERNEL", compute)


def test_criterion_7_product_independence():
    def compute() -> bool:
        ok = True
        configs = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]
        for idx, (n, d) in enumerate(configs):
            for seed in trial_seeds(700 + idx, 3):
                f = random_ci_tuple(n, d, seed)
                for ell in (2, 3):
                    products = form_power_products(f, ell)
                    vectors = [p.coefficient_vector(ell * d) for p in products]
                    ok = ok and span_dim(vectors) == binom(n + ell - 1, ell)
                ok = ok and len(form_power_products(f, 2)) == n * (n + 1) // 2
        return ok

    _guarded("PRODUCT_INDEPENDENCE", compute)


def _flags_coherent(report) -> bool:
    if report.in_URes and not report.in_GorT:
        return False
    if report.in_GorT and not report.in_U:
        return False
    if report.in_U and not report.in_V:
        return False
    return report.in_URes == (report.in_U and not report.in_Z)


def test_criterion_8_stratification_coherence():
    def compute() -> bool:
        ok = True
        configs = [(2, 2), (2, 3), (3, 2), (3, 3)]
        for idx, (n, d) in enumerate(configs):
            for seed in trial_seeds(800 + idx, 2):
                f = random_ci_tuple(n, d, seed)
                report = stratify(associated_form(f), n, d)
                ok = ok and _flags_coherent(report) and report.in_URes
        square = stratify(parse_polynomial("y1^2", 2), 2, 2)
        ok = ok and square.in_Z and _flags_coherent(square)
        stream = SplitMix64(808)
        for n, d in configs:
            drawn = 0
            while drawn < 5:
                g = random_form(n, n * (d - 1), stream, 5)
                if g.is_zero:
                    continue
                drawn += 1
                ok = ok and _flags_coherent(stratify(g, n, d))
        return ok

    _guarded("STRATIFICATION_COHERENCE", compute)

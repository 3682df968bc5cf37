"""Command line driver for the verification suites.

Each subcommand builds a list of JSON-serializable result records, writes
them as JSON lines (stdout or --out), prints a human summary to stderr, and
exits 0 exactly when no record carries "pass": false.  Output depends only
on the configuration, so identical invocations produce identical bytes.

Exit codes: 0 all checks passed, 1 a check failed, 2 a usage or input
error, 3 an internal error (a failed invariant or any other unexpected
exception), reported as one "internal error: ..." line.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from multiprocessing import Pool

from .apolarity import stratify
from .ci import DegenerateTupleError, associated_form
from .identities import (
    check_a1,
    check_a2,
    check_a3,
    check_aux,
    check_delta_consistency,
    check_dimt2_equals_n,
)
from .poly import FormTuple, Polynomial, format_polynomial, parse_polynomial
from .sampling import SamplingError, SplitMix64, random_ci_tuple
from .tangent import (
    koszul_kernel_check,
    relation_space_dim_bruteforce,
    relation_space_dim_formula,
    tangent_dim,
)


@dataclass
class RunConfig:
    command: str
    n: int = 0
    d: int = 0
    trials: int = 0
    seed: int = 0
    coeff_bound: int = 5
    jobs: int = 1
    out: str | None = None
    csv_path: str | None = None
    path: str | None = None
    max_p: int = 40
    max_r: int = 40
    max_n: int = 30
    max_m: int = 40
    max_nd: int = 12


def trial_seeds(seed: int, trials: int) -> list[int]:
    """Per-trial seeds drawn from one stream, so trial j is reproducible in
    isolation and independent of how many workers run."""
    stream = SplitMix64(seed)
    return [stream.next_u64() for _ in range(trials)]


def _relation_band(n: int, d: int) -> bool:
    """Where both relation-space routes are defined."""
    return n >= 3 and (n > 3 or d >= 3) and n * (d - 1) >= 2 * d


def _tangent_trial(task: tuple[int, int, int, int, int]) -> dict:
    trial, trial_seed, n, d, bound = task
    f = random_ci_tuple(n, d, trial_seed, bound)
    report = tangent_dim(associated_form(f))
    if _relation_band(n, d):
        report = report.with_relations(
            relation_space_dim_bruteforce(f), relation_space_dim_formula(n, d)
        )
    ok = report.tangent_dim == report.expected_N
    if report.dim_R_bruteforce is not None:
        ok = ok and report.dim_R_bruteforce == report.dim_R_formula
    return {
        "suite": "tangent",
        "trial": trial,
        "seed": trial_seed,
        **report.to_json_dict(),
        "pass": ok,
    }


def _relations_trial(task: tuple[int, int, int, int, int]) -> dict:
    trial, trial_seed, n, d, bound = task
    f = random_ci_tuple(n, d, trial_seed, bound)
    brute = relation_space_dim_bruteforce(f)
    formula = relation_space_dim_formula(n, d)
    return {
        "suite": "relations",
        "trial": trial,
        "seed": trial_seed,
        "n": n,
        "d": d,
        "dim_R_bruteforce": brute,
        "dim_R_formula": formula,
        "pass": brute == formula,
    }


def _koszul_trial(task: tuple[int, int, int, int, int]) -> list[dict]:
    trial, trial_seed, n, d, bound = task
    f = random_ci_tuple(n, d, trial_seed, bound)
    records = []
    for rho in range(d, n * (d - 1) - d + 1):
        records.append(
            {
                "suite": "koszul",
                "trial": trial,
                "seed": trial_seed,
                "n": n,
                "d": d,
                "rho": rho,
                "pass": koszul_kernel_check(f, rho),
            }
        )
    return records


def _map_trials(worker, tasks: list[tuple], jobs: int) -> list:
    """Run trial workers, in order of trial index regardless of scheduling."""
    if jobs > 1 and len(tasks) > 1:
        with Pool(jobs) as pool:
            return pool.map(worker, tasks)
    return [worker(t) for t in tasks]


def _sampled_tasks(cfg: RunConfig) -> list[tuple[int, int, int, int, int]]:
    seeds = trial_seeds(cfg.seed, cfg.trials)
    return [(i, s, cfg.n, cfg.d, cfg.coeff_bound) for i, s in enumerate(seeds)]


def run_tangent(cfg: RunConfig) -> list[dict]:
    return _map_trials(_tangent_trial, _sampled_tasks(cfg), cfg.jobs)


def run_relations(cfg: RunConfig) -> list[dict]:
    if not _relation_band(cfg.n, cfg.d):
        raise ValueError(
            f"relations needs n >= 3 (d >= 3 when n = 3) and n(d-1) >= 2d; "
            f"got n={cfg.n} d={cfg.d}"
        )
    return _map_trials(_relations_trial, _sampled_tasks(cfg), cfg.jobs)


def run_koszul(cfg: RunConfig) -> list[dict]:
    nested = _map_trials(_koszul_trial, _sampled_tasks(cfg), cfg.jobs)
    return [record for batch in nested for record in batch]


def run_identities(cfg: RunConfig) -> list[dict]:
    results = []
    for p in range(1, cfg.max_p + 1):
        for r in range(1, cfg.max_r + 1):
            results.append(check_a1(p, r))
            results.append(check_a2(p, r))
    for n in range(5, cfg.max_n + 1):
        for m in range(5, n + 2):
            results.append(check_a3(n, m))
    for n in range(2, cfg.max_n + 1):
        for m in range(2, cfg.max_m + 1):
            results.extend(check_aux(n, m))
    for n in range(2, cfg.max_nd + 1):
        for d in range(2, cfg.max_nd + 1):
            results.append(check_dimt2_equals_n(n, d))
            if n >= 3 and (n > 3 or d >= 3):
                results.append(check_delta_consistency(n, d))
    return [{"suite": "identities", **r.to_json_dict()} for r in results]


def _read_poly_file(path: str) -> tuple[int, int, list[Polynomial]]:
    """Header line "n d", then one polynomial per nonblank line."""
    with open(path, encoding="utf-8") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"{path}: header must be two integers, got {lines[0]!r}")
    n, d = int(header[0]), int(header[1])
    polys = [parse_polynomial(text, n) for text in lines[1:]]
    return n, d, polys


def read_tuple_file(path: str) -> FormTuple:
    """A complete tuple: header "n d" and n degree-d forms."""
    n, d, polys = _read_poly_file(path)
    if len(polys) != n:
        raise ValueError(f"{path}: expected {n} forms, found {len(polys)}")
    return FormTuple(n, d, tuple(polys))


def read_form_file(path: str) -> tuple[int, int, Polynomial]:
    """A single form to stratify: header "n d" and one degree-n(d-1) form."""
    n, d, polys = _read_poly_file(path)
    if len(polys) != 1:
        raise ValueError(f"{path}: expected exactly one form, found {len(polys)}")
    return n, d, polys[0]


def run_stratify(cfg: RunConfig) -> list[dict]:
    n, d, form = read_form_file(cfg.path)
    report = stratify(form, n, d)
    return [
        {
            "suite": "stratify",
            "n": n,
            "d": d,
            "form": format_polynomial(form, "y"),
            **report.to_json_dict(),
        }
    ]


def run_assoc(cfg: RunConfig) -> list[dict]:
    f = read_tuple_file(cfg.path)
    form = associated_form(f)
    return [
        {
            "suite": "assoc",
            "n": f.var_count,
            "d": f.degree,
            "associated_form": format_polynomial(form, "y"),
        }
    ]


_RUNNERS = {
    "identities": run_identities,
    "tangent": run_tangent,
    "relations": run_relations,
    "koszul": run_koszul,
    "stratify": run_stratify,
    "assoc": run_assoc,
}


def run_suite(cfg: RunConfig) -> list[dict]:
    return _RUNNERS[cfg.command](cfg)


def emit_report(
    results: list[dict], out_path: str | None = None, csv_path: str | None = None
) -> None:
    """JSON lines to out_path or stdout; optional per-suite CSV summary."""
    payload = "".join(json.dumps(record) + "\n" for record in results)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)
    if csv_path:
        totals: dict[str, list[int]] = {}
        for record in results:
            row = totals.setdefault(record["suite"], [0, 0, 0])
            row[0] += 1
            if "pass" in record:
                row[1 if record["pass"] else 2] += 1
        with open(csv_path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["suite", "records", "passed", "failed"])
            for suite in sorted(totals):
                writer.writerow([suite, *totals[suite]])


def _summarize(results: list[dict]) -> int:
    checks = [r for r in results if "pass" in r]
    failures = [r for r in checks if not r["pass"]]
    by_suite: dict[str, int] = {}
    for record in results:
        by_suite[record["suite"]] = by_suite.get(record["suite"], 0) + 1
    for suite in sorted(by_suite):
        print(f"{suite}: {by_suite[suite]} records", file=sys.stderr)
    if checks:
        print(
            f"checks: {len(checks)}, passed: {len(checks) - len(failures)}, "
            f"failed: {len(failures)}",
            file=sys.stderr,
        )
    for record in failures:
        print(f"FAIL {json.dumps(record)}", file=sys.stderr)
    return len(failures)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apolar",
        description="verification suites for apolarity, associated forms, "
        "tangent space counts, and combinatorial identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(sp):
        sp.add_argument("--out", help="write JSON lines here instead of stdout")
        sp.add_argument("--csv", dest="csv_path", help="write a per-suite summary CSV")

    def add_sampling(sp):
        sp.add_argument("--n", type=int, required=True, help="number of variables")
        sp.add_argument("--d", type=int, required=True, help="degree of each form")
        sp.add_argument("--trials", type=int, default=5, help="sampled tuples")
        sp.add_argument("--seed", type=int, default=0, help="master seed")
        sp.add_argument(
            "--coeff-bound",
            type=int,
            default=5,
            help="coefficients drawn uniformly from [-bound, bound]",
        )
        sp.add_argument("--jobs", type=int, default=1, help="parallel workers")

    sp = sub.add_parser("identities", help="exhaustive combinatorial identity checks")
    sp.add_argument("--max-p", type=int, default=40)
    sp.add_argument("--max-r", type=int, default=40)
    sp.add_argument("--max-n", type=int, default=30)
    sp.add_argument("--max-m", type=int, default=40)
    sp.add_argument("--max-nd", type=int, default=12)
    add_output(sp)

    sp = sub.add_parser(
        "tangent", help="tangent dimension of sampled associated forms vs N"
    )
    add_sampling(sp)
    add_output(sp)

    sp = sub.add_parser(
        "relations", help="relation space dimension, brute force vs closed form"
    )
    add_sampling(sp)
    add_output(sp)

    sp = sub.add_parser(
        "koszul", help="syzygies in the middle degrees vs the Koszul ones"
    )
    add_sampling(sp)
    add_output(sp)

    sp = sub.add_parser("stratify", help="locate a form in the catalecticant strata")
    sp.add_argument("path", help="file: header 'n d', then one form of degree n(d-1)")
    add_output(sp)

    sp = sub.add_parser("assoc", help="associated form of a tuple read from a file")
    sp.add_argument("path", help="file: header 'n d', then n forms of degree d")
    add_output(sp)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {k: v for k, v in vars(args).items() if v is not None}
    return RunConfig(**fields)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = config_from_args(args)
    if cfg.command in ("tangent", "relations", "koszul"):
        if cfg.trials < 0:
            print("error: --trials must be nonnegative", file=sys.stderr)
            return 2
        if cfg.jobs < 1:
            print("error: --jobs must be positive", file=sys.stderr)
            return 2
    try:
        results = run_suite(cfg)
    except (OSError, ValueError, DegenerateTupleError, SamplingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    emit_report(results, cfg.out, cfg.csv_path)
    return 1 if _summarize(results) else 0


if __name__ == "__main__":
    sys.exit(main())

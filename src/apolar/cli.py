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
import os
import sys
from contextlib import ExitStack
from dataclasses import dataclass
from functools import cache
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
    RELATION_BAND,
    koszul_kernel_check,
    relation_band,
    relation_space_dim_bruteforce,
    relation_space_dim_formula,
    tangent_dim,
)


@dataclass
class RunConfig:
    """One run's settings; the defaults here are the command line's."""

    command: str
    n: int = 0
    d: int = 0
    trials: int = 5
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


def _relations_records(f: FormTuple) -> list[dict]:
    n, d = f.var_count, f.degree
    brute = relation_space_dim_bruteforce(f)
    formula = relation_space_dim_formula(n, d)
    record = {"n": n, "d": d, "dim_R_bruteforce": brute, "dim_R_formula": formula}
    return [{**record, "pass": brute == formula}]


def _tangent_records(f: FormTuple) -> list[dict]:
    """The tangent count, and both dim R routes where they are defined."""
    report = vars(tangent_dim(associated_form(f)))
    relations = {"dim_R_bruteforce": None, "dim_R_formula": None, "pass": True}
    if relation_band(f.var_count, f.degree):
        (relations,) = _relations_records(f)
    # relations repeats n and d, so its keys land after the report's.
    ok = report["tangent_dim"] == report["expected_N"] and relations["pass"]
    return [{**report, **relations, "pass": ok}]


def _koszul_records(f: FormTuple) -> list[dict]:
    n, d = f.var_count, f.degree
    return [
        {"n": n, "d": d, "rho": rho, "pass": koszul_kernel_check(f, rho)}
        for rho in range(d, n * (d - 1) - d + 1)
    ]


_SAMPLED_SUITES = {
    "tangent": _tangent_records,
    "relations": _relations_records,
    "koszul": _koszul_records,
}


def _sampled_trial(task: tuple[RunConfig, int, int]) -> list[dict]:
    """One trial: sample its tuple once and check it with the config's suite."""
    cfg, trial, seed = task
    f = random_ci_tuple(cfg.n, cfg.d, seed, cfg.coeff_bound)
    head = {"suite": cfg.command, "trial": trial, "seed": seed}
    return [{**head, **record} for record in _SAMPLED_SUITES[cfg.command](f)]


def run_sampled(cfg: RunConfig) -> list[dict]:
    """Every trial's records, in order of trial index regardless of how many
    workers run them."""
    if cfg.command == "relations" and not relation_band(cfg.n, cfg.d):
        raise ValueError(f"relations needs {RELATION_BAND}; got n={cfg.n} d={cfg.d}")
    tasks = [(cfg, i, s) for i, s in enumerate(trial_seeds(cfg.seed, cfg.trials))]
    workers = min(cfg.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with Pool(workers) as pool:
            batches = pool.map(_sampled_trial, tasks)
    else:
        batches = map(_sampled_trial, tasks)
    return [record for batch in batches for record in batch]


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
            if relation_band(n, d):
                results.append(check_delta_consistency(n, d))
    return [{"suite": "identities", **r.to_json_dict()} for r in results]


def _read_poly_file(path: str) -> tuple[int, int, list[Polynomial]]:
    """Header line "n d", then one polynomial per nonblank line."""
    with open(path, encoding="utf-8") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0].split()
    try:
        n, d = map(int, header)
    except ValueError:
        raise ValueError(f"{path}: header must be two integers, got {lines[0]!r}") from None
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
    text = format_polynomial(form, "y")
    return [{"suite": "stratify", "n": n, "d": d, "form": text, **vars(stratify(form, n, d))}]


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
    **dict.fromkeys(_SAMPLED_SUITES, run_sampled),
    "stratify": run_stratify,
    "assoc": run_assoc,
}


def run_suite(cfg: RunConfig) -> list[dict]:
    return _RUNNERS[cfg.command](cfg)


def emit_report(
    results: list[dict], out_path: str | None = None, csv_path: str | None = None
) -> None:
    """JSON lines to out_path or stdout; optional per-suite CSV summary.
    Both files are opened, the CSV first, before anything is written, so an
    unwritable path stops the call before any record is written.  The CSV is
    opened without truncating it and emptied once both are open; when
    out_path cannot be opened, a CSV file the call created is removed, and
    one that was there already is left as it was."""
    payload = "".join(json.dumps(record) + "\n" for record in results)
    with ExitStack() as files:
        out = sys.stdout
        if csv_path:
            created = not os.path.exists(csv_path)
            table = files.enter_context(open(csv_path, "a", encoding="utf-8", newline=""))
        if out_path:
            try:
                out = files.enter_context(open(out_path, "w", encoding="utf-8"))
            except OSError:
                files.close()
                if csv_path and created:
                    os.remove(csv_path)
                raise
        if csv_path:
            table.truncate(0)
        out.write(payload)
        if not csv_path:
            return
        writer = csv.writer(table)
        writer.writerow(["suite", "records", "passed", "failed"])
        for suite, row in _tally(results).items():
            writer.writerow([suite, *row])


def _tally(results: list[dict]) -> dict[str, list[int]]:
    """[records, passed, failed] per suite, in suite order."""
    totals: dict[str, list[int]] = {}
    for record in results:
        row = totals.setdefault(record["suite"], [0, 0, 0])
        row[0] += 1
        if "pass" in record:
            row[1 if record["pass"] else 2] += 1
    return dict(sorted(totals.items()))


def _summarize(results: list[dict]) -> int:
    totals = _tally(results)
    for suite, (records, _, _) in totals.items():
        print(f"{suite}: {records} records", file=sys.stderr)
    passed = sum(row[1] for row in totals.values())
    failed = sum(row[2] for row in totals.values())
    if passed + failed:
        print(f"checks: {passed + failed}, passed: {passed}, failed: {failed}", file=sys.stderr)
    for record in results:
        if "pass" in record and not record["pass"]:
            print(f"FAIL {json.dumps(record)}", file=sys.stderr)
    return failed


_IDENTITY_RANGES = ("--max-p", "--max-r", "--max-n", "--max-m", "--max-nd")


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing leaves it unchanged, and an
    argparse parser is a reference cycle that only a full collection would
    free, so it is built once rather than per main call."""
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
        sp.add_argument("--trials", type=int, help="sampled tuples")
        sp.add_argument("--seed", type=int, help="master seed")
        sp.add_argument(
            "--coeff-bound", type=int, help="coefficients drawn uniformly from [-bound, bound]"
        )
        sp.add_argument("--jobs", type=int, help="parallel workers, at most one per CPU")

    sp = sub.add_parser("identities", help="exhaustive combinatorial identity checks")
    for flag in _IDENTITY_RANGES:
        sp.add_argument(flag, type=int)
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
    """The parsed flags over RunConfig's defaults, the only copy of them."""
    fields = {k: v for k, v in vars(args).items() if v is not None}
    return RunConfig(**fields)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = config_from_args(args)
    if cfg.command in _SAMPLED_SUITES:
        if cfg.trials < 0:
            print("error: --trials must be nonnegative", file=sys.stderr)
            return 2
        if cfg.jobs < 1:
            print("error: --jobs must be positive", file=sys.stderr)
            return 2
        # SplitMix64 reads its seed mod 2^64, so a seed outside [0, 2^64)
        # would repeat the report of the one inside that it wraps to.
        if not 0 <= cfg.seed < 1 << 64:
            print("error: --seed must lie in [0, 2^64)", file=sys.stderr)
            return 2
    if cfg.command == "identities":
        for flag in _IDENTITY_RANGES:
            if getattr(cfg, flag[2:].replace("-", "_")) < 0:
                print(f"error: {flag} must be nonnegative", file=sys.stderr)
                return 2
    try:
        results = run_suite(cfg)
        emit_report(results, cfg.out, cfg.csv_path)
    except (OSError, ValueError, DegenerateTupleError, SamplingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 1 if _summarize(results) else 0


if __name__ == "__main__":
    sys.exit(main())

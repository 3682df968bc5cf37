"""Golden transcripts: each subcommand's report, compared byte for byte.

The files under tests/golden/ hold the reports of the runs below.  A change
that means to keep every output must leave them matching; regenerate them
only in a change that means to alter output, never in the same change as a
refactor.
"""
import gzip
from pathlib import Path

import pytest

from apolar.cli import main

GOLDEN = Path(__file__).parent / "golden"

INPUTS = {
    "square.txt": "2 2\ny1^2\n",
    "monomial.txt": "3 3\ny1^2*y2^2*y3^2\n",
    "cubic.txt": "3 2\n953/6396*y1^3 - 27/4264*y1^2*y2 + 515/2132*y1^2*y3"
    " + 9/2132*y1*y2^2 + 6/533*y1*y2*y3 + 565/4264*y1*y3^2 + 417/123656*y2^3"
    " + 69/123656*y2^2*y3 - 441/123656*y2*y3^2 + 9539/370968*y3^3\n",
    "tuple32.txt": "3 2\n-x1^2 + 3*x1*x3 - 3*x2^2 - 2*x3^2\n"
    "-2*x1^2 - 3*x1*x2 + 2*x1*x3 - x2*x3 + 3*x3^2\n-2*x1*x2 + x2^2 - 3*x2*x3\n",
    "tuple23.txt": "2 3\n1/2*x1^3 - x1*x2^2\nx2^3 + 3*x1^2*x2\n",
}

SAMPLED = ["--trials", "2", "--seed", "5"]

CASES = {
    "tangent_3x3.jsonl": ["tangent", "--n", "3", "--d", "3", *SAMPLED],
    "tangent_3x4.jsonl": ["tangent", "--n", "3", "--d", "4", *SAMPLED],
    "relations_3x3.jsonl": ["relations", "--n", "3", "--d", "3", *SAMPLED],
    "relations_4x2.jsonl": ["relations", "--n", "4", "--d", "2", *SAMPLED],
    "koszul_3x3.jsonl": ["koszul", "--n", "3", "--d", "3", *SAMPLED],
    "identities.jsonl.gz": ["identities"],
    "stratify_square.jsonl": ["stratify", "square.txt"],
    "stratify_monomial.jsonl": ["stratify", "monomial.txt"],
    "stratify_cubic.jsonl": ["stratify", "cubic.txt"],
    "assoc_tuple32.jsonl": ["assoc", "tuple32.txt"],
    "assoc_tuple23.jsonl": ["assoc", "tuple23.txt"],
}


def run_case(argv: list[str], workdir: Path) -> bytes:
    """Run one subcommand with its input files written into workdir."""
    for name, text in INPUTS.items():
        (workdir / name).write_text(text)
    argv = [str(workdir / a) if a in INPUTS else a for a in argv]
    out = workdir / "report.jsonl"
    assert main(argv + ["--out", str(out)]) == 0
    return out.read_bytes()


def read_golden(name: str) -> bytes:
    path = GOLDEN / name
    if name.endswith(".gz"):
        return gzip.decompress(path.read_bytes())
    return path.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_transcript(name, tmp_path, capsys):
    assert run_case(CASES[name], tmp_path) == read_golden(name)

"""Golden reports: canonical CLI output pinned byte for byte.

Each file under tests/golden/ is the stdout of

    ainfbar <argv> --format json --no-cache

for the argv listed below.  A refactor must leave every file unchanged;
changing one is a declared behaviour change.
"""

import pathlib

import pytest

from ainfbar import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"

SD_TORUS = "semidirect(torus(3,1,2), inversion)"
SD_COLIMIT = "colimit(semidirect(torus(3,inf,2), inversion))"

CASES = {
    "cohomology-z3-d6": ["cohomology", "--spec", "cyclic(3^1)", "--max-degree", "6"],
    "cohomology-z2-d5": ["cohomology", "--spec", "cyclic(2^1)", "--max-degree", "5"],
    "cohomology-z4-d5": ["cohomology", "--spec", "cyclic(2^2)", "--max-degree", "5"],
    "cohomology-z5-d4": ["cohomology", "--spec", "cyclic(5^1)", "--max-degree", "4"],
    "cohomology-z9-d4": ["cohomology", "--spec", "cyclic(3^2)", "--max-degree", "4"],
    "transfer-z3-d5-a4": ["transfer", "--spec", "cyclic(3^1)",
                          "--max-degree", "5", "--max-arity", "4"],
    "transfer-z2-d4-a4": ["transfer", "--spec", "cyclic(2^1)",
                          "--max-degree", "4", "--max-arity", "4"],
    "transfer-z4-d4-a4": ["transfer", "--spec", "cyclic(2^2)",
                          "--max-degree", "4", "--max-arity", "4"],
    "transfer-z5-d3-a5": ["transfer", "--spec", "cyclic(5^1)",
                          "--max-degree", "3", "--max-arity", "5"],
    "transfer-z9-d4-a3": ["transfer", "--spec", "cyclic(3^2)",
                          "--max-degree", "4", "--max-arity", "3"],
    "transfer-torus312-d3-a3": ["transfer", "--spec", "torus(3,1,2)",
                                "--max-degree", "3", "--max-arity", "3"],
    "transfer-sdtorus312-d3-a3": ["transfer", "--spec", SD_TORUS,
                                  "--max-degree", "3", "--max-arity", "3"],
    "transfer-sdtorus212z3-d3-a3": ["transfer", "--spec",
                                    "semidirect(torus(2,1,2), Z3:[[0,1],[1,1]])",
                                    "--max-degree", "3", "--max-arity", "3"],
    "restriction-z9-d4": ["restriction", "--spec", "cyclic(3^2)", "--max-degree", "4"],
    "restriction-z4-d4": ["restriction", "--spec", "cyclic(2^2)", "--max-degree", "4"],
    "restriction-sdz9-d3": ["restriction", "--spec", "semidirect(cyclic(3^2), inversion)",
                            "--max-degree", "3"],
    "certificate-z3-d4": ["certificate", "--spec", "cyclic(3^1)", "--max-degree", "4"],
    "certificate-sdcolimit-d4": ["certificate", "--spec", SD_COLIMIT, "--max-degree", "4"],
    "invariants-sdcolimit-d6": ["invariants", "--spec", SD_COLIMIT, "--max-degree", "6"],
    "compare-sdtorus312-d3": ["compare", "--spec", SD_TORUS, "--max-degree", "3"],
    "splitting-sdtorus312-d3": ["splitting", "--spec", SD_TORUS, "--max-degree", "3"],
    "transfer-z2xz4-d4-a3": ["transfer", "--spec", "cyclic(2^1) x cyclic(2^2)",
                             "--max-degree", "4", "--max-arity", "3"],
    "transfer-z3xz9-d3-a3": ["transfer", "--spec", "cyclic(3^1) x cyclic(3^2)",
                             "--max-degree", "3", "--max-arity", "3"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    code, text, _ = cli.run_report(CASES[name] + ["--format", "json", "--no-cache"])
    assert code == 0
    assert text.encode("utf-8") == (GOLDEN / f"{name}.json").read_bytes()

"""Golden reports: canonical CLI output pinned byte for byte.

Each file under tests/golden/ is the stdout of

    ainfbar <argv> --format json --no-cache

for the argv listed below.  A refactor must leave every file unchanged;
changing one is a declared behaviour change.
"""

import hashlib
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


def test_cli_default_z9_transfer_report_is_pinned():
    # transfer at its CLI defaults, arity 4 and degree 6, on cyclic(3^2):
    # the largest report the golden specs reach, pinned by its SHA-256
    code, text, _ = cli.run_report(["transfer", "--spec", "cyclic(3^2)", "--no-cache"])
    assert code == 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "e2c3320f01384b9feb32e6a4cc5c385742ded76a874e1d094b2a336f88f5b311")


@pytest.mark.parametrize("argv,sha", [
    # transfer at its CLI defaults on torus(3,1,2)
    (["--spec", "torus(3,1,2)"],
     "eed4ba72f358fdbde57d01cc29319e7024789132592adfd7bb097d885ecef7ca"),
    # one class per degree up to 3, tabulated to arity 9
    (["--spec", "cyclic(3^1)", "--max-degree", "3", "--max-arity", "9"],
     "bc912b7cbfbfb76bf68b8d3c03f82c254b8d64bb8bc5612e6542bb1aa6f5cf94"),
], ids=["torus312-defaults", "z3-d3-a9"])
def test_long_transfer_reports_are_pinned(argv, sha):
    code, text, _ = cli.run_report(["transfer"] + argv + ["--no-cache"])
    assert code == 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sha


@pytest.mark.parametrize("spec,sha", [
    # two levels under a non-inversion action
    ("semidirect(torus(2,2,2), Z3:[[0,3],[1,3]])",
     "b0674a4cf2d7f8c2f411c3e69ebc40bb8046f8b0f77b798be829e3d3487f42a9"),
    # three levels, the 1458-dim algebra's lifts
    ("semidirect(torus(3,3,2), inversion)",
     "1a29a376de4b4e53d046c53d28e35f0e86d401b0c2ad46a7f866be72400679e5"),
    # one level under a Z3 action over p = 5
    ("semidirect(torus(5,1,2), Z3:[[0,-1],[1,-1]])",
     "6c3393cc0400f3a6382ecf7ffc1150c2f69f8f88152a76ecfec1dc16bb5d2f0a"),
], ids=["sd222-z3", "sd332-inversion", "sd512-z3"])
def test_splitting_reports_are_pinned(spec, sha):
    code, text, _ = cli.run_report(["splitting", "--spec", spec, "--no-cache"])
    assert code == 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sha

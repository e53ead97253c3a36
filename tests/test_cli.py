"""End-to-end checks of the command line pipeline.

Reports must be byte-identical across reruns, survive cache corruption,
and signal failures through exit codes rather than tracebacks.
"""

import json
import os

import pytest

from ainfbar import cli


def run(argv):
    return cli.run_report(list(argv))


def cache_files(root):
    return sorted(f for f in os.listdir(root) if f.endswith(".json"))


class TestDeterminism:

    def test_rerun_is_byte_identical_and_hits_cache(self, tmp_path):
        argv = ["transfer", "--spec", "cyclic(3^1)", "--max-degree", "5",
                "--max-arity", "3", "--cache-dir", str(tmp_path)]
        code1, text1, meta1 = run(argv)
        code2, text2, meta2 = run(argv)
        assert code1 == code2 == 0
        assert text1 == text2
        assert meta1["misses"] == 1 and meta1["hits"] == 0
        assert meta2["hits"] == 1 and meta2["misses"] == 0

    def test_no_cache_still_deterministic(self, tmp_path):
        argv = ["cohomology", "--spec", "cyclic(2^2)", "--max-degree", "4",
                "--no-cache", "--cache-dir", str(tmp_path)]
        _, text1, meta1 = run(argv)
        _, text2, _ = run(argv)
        assert text1 == text2
        assert meta1 == {"elapsed": meta1["elapsed"], "hits": 0, "misses": 0}
        assert cache_files(tmp_path) == []

    def test_corrupted_cache_entry_is_recomputed_and_repaired(self, tmp_path):
        argv = ["cohomology", "--spec", "cyclic(3^1)", "--max-degree", "4",
                "--cache-dir", str(tmp_path)]
        _, text1, _ = run(argv)
        (name,) = cache_files(tmp_path)
        path = tmp_path / name
        path.write_text("{ not json")
        code, text2, meta = run(argv)
        assert code == 0 and text2 == text1
        assert meta["misses"] == 1
        wrapper = json.loads(path.read_text())
        assert wrapper["payload"]["command"] == "cohomology"

    def test_tampered_payload_fails_checksum(self, tmp_path):
        argv = ["cohomology", "--spec", "cyclic(3^1)", "--max-degree", "4",
                "--cache-dir", str(tmp_path)]
        _, text1, _ = run(argv)
        (name,) = cache_files(tmp_path)
        path = tmp_path / name
        wrapper = json.loads(path.read_text())
        wrapper["payload"]["dims"][0] = 7
        path.write_text(json.dumps(wrapper))
        _, text2, meta = run(argv)
        assert text2 == text1
        assert meta["misses"] == 1 and meta["hits"] == 0

    def test_entry_from_other_sources_is_a_miss(self, tmp_path, monkeypatch):
        argv = ["cohomology", "--spec", "cyclic(3^1)", "--max-degree", "4",
                "--cache-dir", str(tmp_path)]
        fresh = run(argv + ["--no-cache"])[1]
        monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)
        run(argv)
        (name,) = cache_files(tmp_path)
        stale = json.loads(fresh)
        stale["dims"][0] = 7
        wrapper = {"digest": cli._digest(cli.canonical_json(stale)),
                   "payload": stale}
        (tmp_path / name).write_text(cli.canonical_json(wrapper))
        assert run(argv)[1] != fresh
        monkeypatch.undo()
        code, text, meta = run(argv)
        assert code == 0 and text == fresh
        assert meta["misses"] == 1 and meta["hits"] == 0
        assert len(cache_files(tmp_path)) == 2

    def test_different_arity_means_different_cache_entry(self, tmp_path):
        base = ["transfer", "--spec", "cyclic(2^1)", "--max-degree", "4",
                "--cache-dir", str(tmp_path)]
        run(base + ["--max-arity", "2"])
        run(base + ["--max-arity", "3"])
        assert len(cache_files(tmp_path)) == 2


class TestPayloads:

    def test_cohomology_payload_shape(self, tmp_path):
        _, text, _ = run(["cohomology", "--spec", "cyclic(5^1)",
                          "--max-degree", "4", "--cache-dir", str(tmp_path)])
        payload = json.loads(text)
        assert payload["command"] == "cohomology"
        assert payload["config"] == {"maxDegree": 4, "p": 5,
                                     "spec": "cyclic(5^1)"}
        assert payload["dims"] == [1, 1, 1, 1, 1]
        first = payload["classes"][1]
        assert first == {"cohDegree": 1, "intDegree": [1, 1],
                         "label": "h1:1/5#0"}

    def test_transfer_payload_lists_sorted_nonzero_entries(self, tmp_path):
        _, text, _ = run(["transfer", "--spec", "cyclic(3^1)",
                          "--max-degree", "5", "--max-arity", "3",
                          "--cache-dir", str(tmp_path)])
        payload = json.loads(text)
        tensors = payload["operations"]
        assert [t["arity"] for t in tensors] == [2, 3]
        triple = [e for e in tensors[1]["entries"]
                  if e["inputs"] == ["h1:1/3#0"] * 3]
        assert triple == [{"inputs": ["h1:1/3#0"] * 3,
                           "output": "h2:1#0", "coeff": 2}]
        for t in tensors:
            assert all(e["coeff"] != 0 for e in t["entries"])
            keys = [(e["inputs"], e["output"]) for e in t["entries"]]
            assert keys == sorted(keys)

    def test_restriction_payload(self, tmp_path):
        _, text, _ = run(["restriction", "--spec", "cyclic(3^2)",
                          "--max-degree", "3", "--cache-dir", str(tmp_path)])
        payload = json.loads(text)
        assert payload["lowSpec"] == "cyclic(3^1)"
        sources = {e["source"] for e in payload["map"]}
        assert "h1:1/3^2#0" not in sources
        assert {"source": "h2:1#0", "target": "h2:1#0",
                "coeff": 1} in payload["map"]

    def test_restriction_reports_the_lower_action_reduced(self, tmp_path):
        _, text, _ = run(["restriction", "--spec",
                          "semidirect(torus(3,2,2), Z4:[[0,-1],[1,0]])",
                          "--max-degree", "1", "--cache-dir", str(tmp_path)])
        payload = json.loads(text)
        assert payload["config"]["spec"] == "semidirect(torus(3,2,2), Z4:[[0,8],[1,0]])"
        assert payload["lowSpec"] == "semidirect(torus(3,1,2), Z4:[[0,2],[1,0]])"

    def test_certificate_payload(self, tmp_path):
        _, text, _ = run(["certificate", "--spec", "colimit(cyclic(3^inf))",
                          "--max-degree", "6", "--cache-dir", str(tmp_path)])
        payload = json.loads(text)
        assert payload["verdict"] == "certified-formal"
        assert payload["violators"] == []
        assert "i = 2" in payload["derivation"]

    def test_compare_payload_agrees(self, tmp_path):
        code, text, _ = run(["compare", "--spec",
                             "semidirect(cyclic(3^1), inversion)",
                             "--max-degree", "5", "--cache-dir", str(tmp_path)])
        payload = json.loads(text)
        assert code == 0
        assert payload["agree"] is True
        assert payload["barDims"] == payload["invariantDims"] == [1, 0, 0, 1, 1, 0]

    def test_splitting_payload(self, tmp_path):
        _, text, _ = run(["splitting", "--spec",
                          "semidirect(cyclic(3^2), inversion)",
                          "--cache-dir", str(tmp_path)])
        payload = json.loads(text)
        assert payload["depth"] == 2 and payload["rank"] == 1
        level1 = payload["levels"][0]
        assert level1 == {"level": 1, "lifts": [[[[1], 1], [[2], 1]]]}

    def test_invariants_payload(self, tmp_path):
        _, text, _ = run(["invariants", "--spec",
                          "colimit(semidirect(torus(3,inf,2), inversion))",
                          "--max-degree", "8", "--cache-dir", str(tmp_path)])
        payload = json.loads(text)
        assert payload["dims"] == [1, 0, 0, 0, 3, 0, 0, 0, 5]
        gens = {tuple(v[0] for v in g["vector"]) for g in payload["generators"]}
        assert gens == {("x1^2",), ("x1*x2",), ("x2^2",)}

    def test_reports_end_with_single_newline(self, tmp_path):
        _, text, _ = run(["cohomology", "--spec", "cyclic(3^1)",
                          "--max-degree", "3", "--cache-dir", str(tmp_path)])
        assert text.endswith("\n") and not text.endswith("\n\n")
        json.loads(text)


class TestCliSurface:

    def test_text_format_renders_nested_payload(self, tmp_path, capsys):
        code = cli.main(["certificate", "--spec", "cyclic(3^1)",
                         "--max-degree", "4", "--format", "text",
                         "--cache-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert 'verdict: "not-applicable"' in captured.out
        assert "violators:" in captured.out
        assert "cache hits" in captured.err

    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = cli.main(["cohomology", "--spec", "cyclic(3^1)",
                         "--max-degree", "3", "--cache-dir", str(tmp_path),
                         "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 0 and captured.out == ""
        payload = json.loads(target.read_text())
        assert payload["dims"] == [1, 1, 1, 1]

    def test_out_flag_replaces_existing_file_whole(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        target.write_text("old report\n" * 10000)
        argv = ["cohomology", "--spec", "cyclic(3^1)", "--max-degree", "3",
                "--no-cache"]
        assert cli.main(argv) == 0
        stdout = capsys.readouterr().out
        assert cli.main(argv + ["--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text() == stdout
        assert os.listdir(tmp_path) == ["report.json"]

    def test_failed_out_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        target = tmp_path / "report.json"
        target.write_text("old report\n")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            cli.main(["cohomology", "--spec", "cyclic(3^1)", "--max-degree",
                      "3", "--no-cache", "--out", str(target)])
        assert target.read_text() == "old report\n"
        assert os.listdir(tmp_path) == ["report.json"]

    def test_bad_spec_exits_2_with_structured_error(self, tmp_path, capsys):
        code = cli.main(["cohomology", "--spec", "cyclic(6^1)",
                         "--cache-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        err = json.loads(captured.err)
        assert err["error"]["code"] == "spec-error"

    def test_prime_mismatch_exits_2(self, tmp_path, capsys):
        code = cli.main(["cohomology", "--spec", "cyclic(3^1)", "--p", "5",
                         "--cache-dir", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "3" in err["error"]["message"]

    def test_budget_exhaustion_exits_3_naming_the_degree(self, tmp_path, capsys):
        code = cli.main(["cohomology", "--spec", "cyclic(3^2)",
                         "--max-degree", "6", "--budget", "10",
                         "--cache-dir", str(tmp_path)])
        assert code == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "budget-exceeded"
        assert err["budget"] == 10 and err["degree"] >= 1
        assert err["needed"] > err["budget"]

    def test_colimit_rejected_where_finite_level_needed(self, tmp_path, capsys):
        for command in ("cohomology", "compare", "restriction"):
            code = cli.main([command, "--spec", "colimit(cyclic(3^inf))",
                             "--max-degree", "4", "--cache-dir", str(tmp_path)])
            assert code == 2, command
            capsys.readouterr()

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate", "--spec", "cyclic(3^1)"])
        assert exc.value.code == 2

    def test_verify_subcommand_is_wired(self):
        parser = cli.build_parser()
        args = parser.parse_args(["verify"])
        assert args.command == "verify"

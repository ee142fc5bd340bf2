import json

import pytest

from pardom import make_family, parse_edge_list, parse_family
from pardom.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_kv(text):
    pairs = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        pairs.setdefault(key, []).append(value)
    return {k: v[0] if len(v) == 1 else v for k, v in pairs.items()}


class TestSolve:
    def test_path6_half(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--family", "path:6", "--p", "1/2")
        assert code == 0
        doc = parse_kv(out)
        assert doc["cardinality"] == "1"
        assert doc["threshold"] == "3"
        assert doc["n"] == "6"

    def test_spider_binary_search(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve", "--family", "spider:8", "--p", "1/2", "--method", "binary-search",
        )
        doc = parse_kv(out)
        assert doc["cardinality"] == "1"
        assert doc["covered"] == "9"
        assert doc["n"] == "17"
        assert doc["threshold"] == "9"
        assert doc["method"] == "binary-search"

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--family", "cycle:12", "--p", "1/2", "--json"
        )
        doc = json.loads(out)
        assert doc["cardinality"] == 2
        assert doc["p"] == "1/2"
        assert doc["witness"] == sorted(doc["witness"])

    def test_oracle_method(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--family", "path:6", "--p", "1/2", "--method", "oracle"
        )
        assert parse_kv(out)["method"] == "oracle"

    def test_p_zero(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--family", "cycle:5", "--p", "0/1")
        doc = parse_kv(out)
        assert doc["cardinality"] == "0"
        assert doc["witness"] == ""

    def test_gamma_command(self, capsys):
        code, out, _ = run_cli(capsys, "gamma", "--family", "spider:8")
        doc = parse_kv(out)
        assert doc["cardinality"] == "8"
        assert doc["p"] == "1/1"

    def test_invalid_proportion(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--family", "path:6", "--p", "3/2")
        assert code == 1
        assert "error:" in err

    def test_oracle_capacity_diagnostic(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--family", "grid:5,5", "--p", "1/2", "--method", "oracle"
        )
        assert code == 1
        assert "n <= 24" in err


class TestGenAndInput:
    def test_round_trip(self, capsys, tmp_path):
        path = tmp_path / "grid.edges"
        code, out, _ = run_cli(capsys, "gen", "--family", "grid:2,12", "--output", str(path))
        assert code == 0
        text = path.read_text()
        assert parse_edge_list(text) == make_family(parse_family("grid:2,12"))

    def test_solve_from_file(self, capsys, tmp_path):
        path = tmp_path / "p6.edges"
        run_cli(capsys, "gen", "--family", "path:6", "--output", str(path))
        code, out, _ = run_cli(capsys, "solve", "--input", str(path), "--p", "1/2")
        assert parse_kv(out)["cardinality"] == "1"

    def test_unwritable_output(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "x.edges"
        code, out, err = run_cli(capsys, "gen", "--family", "cycle:5", "--output", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert not target.exists()

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--input", "/nonexistent.edges", "--p", "1/2")
        assert code == 1 and "error:" in err

    def test_missing_source(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--p", "1/2")
        assert code == 1
        assert "no graph given" in err


class TestClosedForm:
    def test_grid_2_12(self, capsys):
        code, out, _ = run_cli(capsys, "closed-form", "--family", "grid:2,12")
        doc = parse_kv(out)
        assert doc["value"] == "3"
        assert len(doc["witness"].split()) == 3
        assert doc["construction"] == "disjoint-pattern"

    def test_cycle(self, capsys):
        code, out, _ = run_cli(capsys, "closed-form", "--family", "cycle:12", "--json")
        doc = json.loads(out)
        assert doc["value"] == 2

    def test_ratio(self, capsys):
        code, out, _ = run_cli(capsys, "closed-form", "--family", "grid:16,16", "--ratio")
        doc = parse_kv(out)
        assert doc["gamma_half"] == "26"
        assert doc["gamma_reference"] == "60"
        assert doc["ratio"] == "13/30"

    def test_ratio_rejects_non_grid(self, capsys):
        code, _, err = run_cli(capsys, "closed-form", "--family", "cycle:30", "--ratio")
        assert code == 1


class TestAudit:
    def test_family_audit(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "--family", "path:6", "--ps", "1/2,1/1")
        assert code == 0
        assert "all_hold yes" in out

    def test_spider_includes_disjointness(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "--family", "spider:8", "--ps", "1/2")
        assert "disjoint-from-gamma-set" in out
        assert "all_hold yes" in out

    def test_sampled_audit_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "audit", "--sample", "8", "--seed", "3", "--ps", "1/2,1/1", "--json"
        )
        doc = json.loads(out)
        assert doc["all_hold"] is True
        assert doc["seed"] == 3
        assert all(c["holds"] in (True, None) for c in doc["checks"])

    def test_star_hypothesis_gating(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "--family", "multipartite:1,4", "--ps", "1/2")
        assert "hypothesis=unmet" in out
        assert "verdict=none" in out


class TestBench:
    def test_table(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bench", "--family", "cycle:12", "--family", "path:18",
            "--p", "1/2", "--repeat", "2",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[-2].startswith("cycle:12 12 2 ")
        assert lines[-1].startswith("path:18 18 3 ")

    def test_needs_family(self, capsys):
        code, _, err = run_cli(capsys, "bench")
        assert code == 1

    @pytest.mark.parametrize("repeat", ["0", "-1"])
    def test_repeat_must_be_positive(self, capsys, repeat):
        code, out, err = run_cli(capsys, "bench", "--family", "cycle:12", "--repeat", repeat)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--family", "grid:3,5", "--p", "1/2", "--json"),
            ("solve", "--family", "grid:3,5", "--p", "1/2"),
            ("audit", "--sample", "9", "--seed", "11", "--ps", "1/3,1/2,1/1", "--json"),
            ("closed-form", "--family", "torus:3,5", "--json"),
            ("gen", "--family", "spider:4"),
            ("big-gamma", "--family", "path:6", "--p", "1/2"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second
        assert first  # nonempty


class TestBigGammaCommand:
    def test_p6(self, capsys):
        code, out, _ = run_cli(capsys, "big-gamma", "--family", "path:6", "--p", "1/2")
        doc = parse_kv(out)
        assert doc["cardinality"] == "2"
        assert doc["witness"] == "0 5"

    def test_capacity(self, capsys):
        code, _, err = run_cli(capsys, "big-gamma", "--family", "grid:5,6", "--p", "1/2")
        assert code == 1 and "n <= 24" in err

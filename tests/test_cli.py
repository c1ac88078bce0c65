"""Tests for the command-line harness (run in-process via main(argv))."""

import csv
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from linkcert import (
    DistanceMatrix,
    cli,
    dump_instance,
    gen_random_euclidean,
    gen_random_metric,
)


def run_cli(*args):
    return cli.main([str(a) for a in args])


@pytest.fixture
def euclidean_instance(tmp_path):
    assert run_cli("--out-dir", tmp_path, "generate", "euclidean",
                   "--n", 8, "--dim", 2) == 0
    return tmp_path / "euclidean_n8_d2_s0.json"


@pytest.fixture
def non_metric_specimen(tmp_path):
    """(instance, target) paths: no metric structure at all, so the long
    edges cannot be certified against the target [[0, 1], [2, 3]]."""
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps(
        {"n": 4, "dist": [2.0, 1.0, 1000.0, 1000.0, 1000.0, 2.0]}))
    target = tmp_path / "bad_target.json"
    target.write_text(json.dumps([[0, 1], [2, 3]]))
    return inst, target


class TestGenerate:
    def test_euclidean(self, tmp_path, capsys):
        assert run_cli("--out-dir", tmp_path, "generate", "euclidean",
                       "--n", 6, "--dim", 3) == 0
        out = json.loads(capsys.readouterr().out)
        data = json.loads(open(out["instance"]).read())
        assert data["n"] == 6
        assert len(data["dist"]) == 15

    def test_metric(self, tmp_path, capsys):
        assert run_cli("--out-dir", tmp_path, "--seed", 4, "generate",
                       "metric", "--n", 7) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n"] == 7

    def test_adversary_with_sidecar(self, tmp_path, capsys):
        assert run_cli("--out-dir", tmp_path, "generate", "adversary",
                       "--k", 4, "--B", 50, "--eps", 1) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n"] == 7
        sidecar = json.loads(open(out["sidecar"]).read())
        assert sidecar["k"] == 4
        assert len(sidecar["target"]) == 4

    def test_adversary_near_the_float_limit_is_quiet(self, tmp_path):
        """d_out = 1.6e308, so the metric check's sums overflow; the verdict
        stands (no finite distance exceeds inf) and nothing reaches stderr."""
        proc = subprocess.run(
            [sys.executable, "-m", "linkcert.cli", "--out-dir", str(tmp_path),
             "generate", "adversary", "--k", "3", "--B", "8e307", "--eps", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stderr == ""
        out = json.loads(proc.stdout)
        assert out["d_out"] == 1.6e308
        assert json.loads(Path(out["instance"]).read_text())["n"] == 5

    def test_adversary_requires_k(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("--out-dir", tmp_path, "generate", "adversary")
        assert exc.value.code == 2

    def test_seed_changes_instance(self, tmp_path):
        run_cli("--out-dir", tmp_path, "generate", "euclidean", "--n", 6)
        run_cli("--out-dir", tmp_path, "--seed", 1, "generate", "euclidean",
                "--n", 6)
        d0 = json.loads((tmp_path / "euclidean_n6_d2_s0.json").read_text())
        d1 = json.loads((tmp_path / "euclidean_n6_d2_s1.json").read_text())
        assert d0["dist"] != d1["dist"]


def written_files(out_dir: Path) -> list[Path]:
    return [p for p in out_dir.rglob("*") if p.is_file()] if out_dir.exists() else []


class TestBadArguments:
    """Arguments that numpy or ``math`` would reject exit 2 with a message
    naming them, and no file is written."""

    @pytest.mark.parametrize("k, B", [(3, "inf"), (4, "1e308"), (3, "nan")])
    def test_adversary_base_distance(self, tmp_path, capsys, k, B):
        out = tmp_path / "out"
        assert run_cli("--out-dir", out, "generate", "adversary",
                       "--k", k, "--B", B) == 2
        assert capsys.readouterr().err.startswith("error: B")
        assert written_files(out) == []

    @pytest.mark.parametrize("argv", [
        pytest.param(["generate", "euclidean", "--n", 5], id="euclidean"),
        pytest.param(["generate", "metric", "--n", 5], id="metric"),
        pytest.param(["inequalities", "--samples", 10, "--i-max", 10],
                     id="inequalities"),
    ])
    def test_negative_seed(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run_cli("--out-dir", out, "--seed", -1, *argv) == 2
        assert "seed" in capsys.readouterr().err
        assert written_files(out) == []

    def test_negative_seed_in_sweep_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[grid]\nns = 5\nseeds = -1\n")
        out = tmp_path / "out"
        assert run_cli("--out-dir", out, "sweep", "--config", cfg) == 2
        assert "seed" in capsys.readouterr().err
        assert written_files(out) == []

    @pytest.mark.parametrize("argv", [
        pytest.param(["generate", "adversary", "--k", 3, "--B", "inf"], id="generate"),
        pytest.param(["run", "--method", "CL", "--k", 99, "--instance"], id="run"),
        pytest.param(["certify", "--k", 99, "--instance"], id="certify"),
        pytest.param(["certify", "--k", 2, "--target", "/nonexistent.json",
                      "--instance"], id="certify-target"),
        pytest.param(["inequalities", "--samples", 0], id="inequalities"),
    ])
    def test_rejected_call_creates_no_out_dir(self, tmp_path, euclidean_instance,
                                              capsys, argv):
        if argv[-1] == "--instance":
            argv = [*argv, euclidean_instance]
        out = tmp_path / "fresh" / "out"
        assert run_cli("--out-dir", out, *argv) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


class TestRun:
    def test_dendrogram_and_scores(self, tmp_path, euclidean_instance, capsys):
        assert run_cli("--out-dir", tmp_path, "run", "--instance",
                       euclidean_instance, "--method", "CL", "--k", 3) == 0
        out = json.loads(capsys.readouterr().out)
        merges = json.loads(open(out["dendrogram"]).read())
        assert len(merges) == 7
        assert [m["iteration"] for m in merges] == list(range(1, 8))
        blocks = json.loads(open(out["clustering"]).read())
        assert sorted(x for b in blocks for x in b) == list(range(8))
        assert set(out["scores"]) == {"max-diam", "avg-diam", "max-avg",
                                      "max-radius"}

    def test_method_is_validated(self, tmp_path, euclidean_instance):
        with pytest.raises(SystemExit) as exc:
            run_cli("--out-dir", tmp_path, "run", "--instance",
                    euclidean_instance, "--method", "ward")
        assert exc.value.code == 2

    def test_missing_instance_is_usage_error(self, tmp_path):
        assert run_cli("--out-dir", tmp_path, "run", "--instance",
                       tmp_path / "nope.json", "--method", "CL") == 2

    @pytest.mark.parametrize("dist", ["abc", ["a", 1, 2]])
    def test_non_numeric_distances_are_usage_error(self, tmp_path, dist, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 3, "dist": dist}))
        assert run_cli("--out-dir", tmp_path, "run", "--instance", path,
                       "--method", "CL") == 2
        assert "list of numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [
        {"n": 3, "dist": [1, 1, 1], "labels": 5},
        {"n": True, "dist": []},
        {"n": 3, "dist": [10 ** 400, 1, 1]},
        # CL cuts {0, 1} | {2, 3}: finite diameters whose sum overflows
        {"n": 4, "dist": [1e308, 1.5e308, 1.5e308, 1.5e308, 1.5e308, 1e308]},
    ])
    def test_malformed_instance_is_usage_error(self, tmp_path, data, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert run_cli("--out-dir", tmp_path, "run", "--instance", path,
                       "--method", "CL", "--k", 2) == 2
        assert capsys.readouterr().err.startswith("error: ")


OVERFLOW_INSTANCE = {"n": 4, "dist": [1e308] * 6}  # finite, but the pair sums are not


class TestOverflow:
    """Scores whose float64 sum overflows exit 2; nothing written says Infinity."""

    @pytest.mark.parametrize("command", [
        ["run", "--method", "CL", "--k", 2],
        ["certify", "--k", 2],
    ])
    def test_max_avg_overflow_is_usage_error(self, tmp_path, capsys, command):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(OVERFLOW_INSTANCE))
        out_dir = tmp_path / "out"
        assert run_cli("--out-dir", out_dir, command[0], "--instance", path,
                       *command[1:]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "overflows float64" in captured.err
        assert "Infinity" not in captured.out
        assert not out_dir.exists()   # the call is rejected before any write

    def test_failed_run_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(OVERFLOW_INSTANCE))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert run_cli("--out-dir", out_dir, "run", "--instance", path,
                       "--method", "CL", "--k", 2) == 2
        assert "overflows float64" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("k", [[], ["--k", 2]], ids=["no-k", "k2"])
    def test_al_cross_sum_overflow_is_usage_error(self, tmp_path, capsys, k):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(OVERFLOW_INSTANCE))
        out_dir = tmp_path / "out"
        assert run_cli("--out-dir", out_dir, "run", "--instance", path,
                       "--method", "AL", *k) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "overflows float64" in captured.err
        assert not out_dir.exists()


class TestCertify:
    def test_green_path_with_oracle_targets(self, tmp_path, euclidean_instance,
                                            capsys):
        assert run_cli("--out-dir", tmp_path, "certify", "--instance",
                       euclidean_instance, "--k", 3) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["certificates"]["alg1"]["ok"]
        assert report["certificates"]["alg2"]["ok"]
        assert report["certificates"]["alg1"]["failed"] == 0
        assert report["oracle"]["opt_dm"] <= report["achieved"]["max-diam"]
        assert (tmp_path / "euclidean_n8_d2_s0.CL.k3.alg1_trace.json").exists()
        assert (tmp_path / "euclidean_n8_d2_s0.CL.k3.alg2_trace.json").exists()
        assert (tmp_path / "euclidean_n8_d2_s0.CL.k3.report.json").exists()

    def test_bounds_in_report(self, tmp_path, euclidean_instance, capsys):
        run_cli("--out-dir", tmp_path, "certify", "--instance",
                euclidean_instance, "--k", 2)
        report = json.loads(capsys.readouterr().out)
        # k=2: avg exponent log2(3), dm factor exactly 2k-2 = 2
        assert report["bounds"]["factor_dm"] == 2.0
        assert report["bounds"]["avg_based"] == pytest.approx(
            3.0 * report["oracle"]["opt_av"], rel=1e-12)
        assert report["achieved"]["max-diam"] <= report["bounds"]["avg_based"]

    def test_file_target(self, tmp_path, capsys):
        run_cli("--out-dir", tmp_path, "generate", "adversary", "--k", 4,
                "--B", 50, "--eps", 1)
        capsys.readouterr()
        code = run_cli("--out-dir", tmp_path, "certify",
                       "--instance", tmp_path / "adversary_k4_B50_eps1.json",
                       "--k", 4, "--target",
                       tmp_path / "adversary_k4_B50_eps1.target.json")
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["certificates"]["alg1"]["ok"]
        assert report["certificates"]["alg2"]["ok"]

    @pytest.mark.parametrize("blocks", [
        [["a"]], [[None]], [0, 1, 2], [[0, 1, 2, 3], [4, 5, 6, 7.7]],
        [[0, 1, 2, 3], [4, 5, 6, 7.0]],
    ])
    def test_malformed_target_is_usage_error(self, tmp_path, euclidean_instance,
                                             blocks, capsys):
        target = tmp_path / "t.json"
        target.write_text(json.dumps(blocks))
        assert run_cli("--out-dir", tmp_path, "certify", "--instance",
                       euclidean_instance, "--k", 2, "--target", target) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_target_k_mismatch_is_usage_error(self, tmp_path, euclidean_instance):
        target = tmp_path / "t.json"
        target.write_text(json.dumps([[i] for i in range(8)]))
        assert run_cli("--out-dir", tmp_path, "certify", "--instance",
                       euclidean_instance, "--k", 3, "--target", target) == 2

    def test_failing_instance_exits_3_with_manifest(self, tmp_path,
                                                    non_metric_specimen):
        inst, target = non_metric_specimen
        assert run_cli("--out-dir", tmp_path, "certify", "--instance", inst,
                       "--k", 2, "--target", target) == 3
        manifest = json.loads((tmp_path / "failures.json").read_text())
        assert manifest["command"] == "certify"
        assert any(f["assertion"] == "p4" for f in manifest["failures"])

    def test_growth_failure_is_reported_once(self, tmp_path, non_metric_specimen):
        # the graph replay asserts each family's growth bound at creation;
        # the bound check must not report the same family a second time
        inst, target = non_metric_specimen
        assert run_cli("--out-dir", tmp_path, "certify", "--instance", inst,
                       "--k", 2, "--target", target) == 3
        manifest = json.loads((tmp_path / "failures.json").read_text())
        growth = [f for f in manifest["failures"]
                  if f["assertion"] == "family-growth-bound"]
        assert len(growth) == 1, growth

    @pytest.mark.parametrize("method", ["AL", "MM"])
    def test_zero_opt_av_is_still_bounded(self, tmp_path, capsys, method):
        # three coincident pairs: OPT_AV = 0 at k=3, so the avg-based bound is
        # 0 and the method's k-cut must score exactly 0 to pass
        D = DistanceMatrix.from_points([[0, 0], [0, 0], [5, 0], [5, 0],
                                        [0, 7], [0, 7]])
        inst = tmp_path / "dup.json"
        dump_instance(D, inst)
        assert run_cli("--out-dir", tmp_path, "certify", "--instance", inst,
                       "--k", 3, "--method", method) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["oracle"]["opt_av"] == 0.0
        assert report["bounds"]["avg_based"] == 0.0
        score = cli.METHOD_SCORES[method]
        assert report["achieved"][score] == 0.0

    def test_oracle_alias_is_not_a_target(self, tmp_path, euclidean_instance):
        # only the literal "oracle" selects oracle witnesses; anything else
        # is a clustering file path
        assert run_cli("--out-dir", tmp_path, "certify", "--instance",
                       euclidean_instance, "--k", 3, "--target", "oracle-av") == 2

    def test_oracle_guard_exits_4(self, tmp_path, euclidean_instance):
        assert run_cli("--out-dir", tmp_path, "--n-max-oracle", 7, "certify",
                       "--instance", euclidean_instance, "--k", 3) == 4


class TestOracle:
    def test_value_and_witness(self, tmp_path, euclidean_instance, capsys):
        assert run_cli("--out-dir", tmp_path, "oracle", "--instance",
                       euclidean_instance, "--k", 3, "--score", "max-diam") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["enumerated"] == 966  # S(8, 3)
        assert len(out["witness"]) == 3

    def test_guard(self, tmp_path, euclidean_instance):
        assert run_cli("--out-dir", tmp_path, "--n-max-oracle", 7, "oracle",
                       "--instance", euclidean_instance, "--k", 3,
                       "--score", "max-diam") == 4


class TestSweep:
    CONFIG = """\
[grid]
generators = euclidean
ns = 6 7
dims = 2
seeds = 0..1
ks = 2 3
methods = CL AL

[oracle]
enabled = true

[certificates]
enabled = true

[output]
csv = out.csv
"""

    def test_runs_and_is_deterministic(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(self.CONFIG)
        assert run_cli("--out-dir", tmp_path, "sweep", "--config", cfg) == 0
        first = (tmp_path / "out.csv").read_bytes()
        assert run_cli("--out-dir", tmp_path, "--workers", 3, "sweep",
                       "--config", cfg) == 0
        assert (tmp_path / "out.csv").read_bytes() == first

    def test_rows_and_precision(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(self.CONFIG)
        run_cli("--out-dir", tmp_path, "sweep", "--config", cfg)
        with open(tmp_path / "out.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 16  # 2 ns * 2 seeds * 2 methods * 2 ks
        for row in rows:
            # 17 significant digits survive the text round trip exactly
            v = float(row["max_diam"])
            assert f"{v:.17g}" == row["max_diam"]
            assert row["bound_ok"] == "true"
        cl_rows = [r for r in rows if r["method"] == "CL"]
        assert all(r["cert_ok"] == "true" for r in cl_rows)

    def test_all_methods_share_one_oracle_per_instance_and_k(self, tmp_path,
                                                              capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(self.CONFIG.replace("generators = euclidean",
                                           "generators = metric euclidean")
                                  .replace("ks = 2 3", "ks = 3 2")
                                  .replace("methods = CL AL", "methods = CL AL MM"))
        assert run_cli("--out-dir", tmp_path, "sweep", "--config", cfg) == 0
        with open(tmp_path / "out.csv") as fh:
            rows = list(csv.DictReader(fh))
        # 2 generators * 2 ns * 2 seeds * 3 methods * 2 ks
        assert len(rows) == 48
        keys = [(r["generator"], int(r["n"]), int(r["dim"] or 0), int(r["seed"]),
                 r["method"], int(r["k"])) for r in rows]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        optima = {}
        for key, row in zip(keys, rows):
            question = key[:4] + key[5:]  # (generator, n, dim, seed, k)
            optima.setdefault(question, set()).add((row["opt_av"], row["opt_dm"]))
        assert len(optima) == 16
        for values in optima.values():
            assert len(values) == 1
            (opt_av, opt_dm), = values
            assert opt_av and opt_dm

    def test_rows_agree_with_certify(self, tmp_path, capsys):
        """Each row's oracle, bound and certificate cells and its verdict are
        what `certify` reports for the same instance, method and k, down to
        the empty cells (None in the report) of SL and of k=1."""
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[grid]\ngenerators = euclidean metric\nns = 7\n"
                       "seeds = 0..1\nks = 1..4\nmethods = CL SL AL MM\n"
                       "[oracle]\nenabled = true\n"
                       "[certificates]\nenabled = true\n"
                       "[output]\ncsv = out.csv\n")
        assert run_cli("--out-dir", tmp_path, "sweep", "--config", cfg) == 0
        with open(tmp_path / "out.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 64  # 2 generators * 2 seeds * 4 methods * 4 ks
        for row in rows:
            seed, k, method = int(row["seed"]), int(row["k"]), row["method"]
            D = (gen_random_euclidean(7, int(row["dim"]), seed)
                 if row["generator"] == "euclidean" else gen_random_metric(7, seed))
            inst = tmp_path / f"{row['generator']}_s{seed}.json"
            dump_instance(D, inst)
            out = tmp_path / "certify" / f"{row['generator']}_s{seed}_{method}_k{k}"
            capsys.readouterr()
            code = run_cli("--out-dir", out, "certify", "--instance", inst,
                           "--k", k, "--method", method)
            report = json.loads(capsys.readouterr().out)
            assert code in (0, 3)
            failures = (json.loads((out / "failures.json").read_text())["failures"]
                        if code == 3 else [])
            certs = report["certificates"] or {}
            expected = {
                "opt_av": report["oracle"]["opt_av"],
                "opt_dm": report["oracle"]["opt_dm"],
                "bound_avg_based": report["bounds"]["avg_based"],
                "bound_dm_based": report["bounds"]["dm_based"],
                "bound_ok": None if method == "SL" else not any(
                    f["assertion"] == "method-bound" for f in failures),
                "cert_ok": all(c["ok"] for c in certs.values()) if certs else None,
            }
            for name in ("alg1", "alg2"):
                expected[f"cert_{name}_pass"] = certs.get(name, {}).get("passed")
                expected[f"cert_{name}_fail"] = certs.get(name, {}).get("failed")
            assert {c: row[c] for c in expected} == \
                {c: cli.fmt(v) for c, v in expected.items()}, (row, report)
            assert (row["bound_ok"] != "false" and row["cert_ok"] != "false") \
                == (code == 0)

    def test_bad_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[grid]\nmethods = ward\n")
        assert run_cli("--out-dir", tmp_path, "sweep", "--config", cfg) == 2

    @pytest.mark.parametrize("text, names", [
        pytest.param("[grid]\nks = x\n", "'ks'", id="ks = x"),
        pytest.param("[grid]\nns = 3..\n", "'ns'", id="ns = 3.."),
        pytest.param("[grid]\nks = 1..2..3\n", "'ks'", id="ks = 1..2..3"),
        pytest.param("[grid]\n[oracle]\nn_max = abc\n", "'n_max'",
                     id="n_max = abc"),
        pytest.param("[grid]\n[oracle]\nenabled = maybe\n", "'enabled'",
                     id="enabled = maybe"),
        pytest.param("[oracle]\nenabled = true\n", "[grid]", id="no [grid]"),
        pytest.param("ns = 6\n", "section header", id="no section header"),
    ])
    def test_bad_integer_list_is_usage_error(self, tmp_path, capsys, text, names):
        """A malformed config file exits 2 with a message naming the key."""
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(text)
        assert run_cli("--out-dir", tmp_path, "sweep", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert "sweep config" in err and names in err

    def test_single_point_instances(self, tmp_path, capsys):
        # n = 1 admits k = 1 only: an empty dendrogram whose one cut is {0}
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(self.CONFIG.replace("ns = 6 7", "ns = 1 2")
                                  .replace("ks = 2 3", "ks = 1..3"))
        assert run_cli("--out-dir", tmp_path, "sweep", "--config", cfg) == 0
        with open(tmp_path / "out.csv") as fh:
            rows = list(csv.DictReader(fh))
        # (1 k at n=1 + 2 ks at n=2) * 2 seeds * 2 methods
        assert len(rows) == 12
        single = [r for r in rows if r["n"] == "1"]
        assert len(single) == 4
        for row in single:
            assert row["k"] == "1"
            assert row["max_diam"] == row["opt_dm"] == row["opt_av"] == "0"
            assert row["bound_ok"] == "true"
        assert all(r["cert_ok"] == "true" for r in single if r["method"] == "CL")

    def test_certificates_require_oracle(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[grid]\nns = 6\n[certificates]\nenabled = true\n")
        assert run_cli("--out-dir", tmp_path, "sweep", "--config", cfg) == 2


class TestInequalities:
    def test_clean_run(self, tmp_path, capsys):
        assert run_cli("--out-dir", tmp_path, "inequalities",
                       "--samples", 500, "--i-max", 5000) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ineq_avg"]["failures"] == 0
        assert out["ineq_2"]["failures"] == 0
        assert out["alpha_sup"]["argmax"] == 4
        with open(tmp_path / "ineq_avg_extremes.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "linkcert.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "certify" in proc.stdout


class TestBenchmarkTracing:
    """The traced benchmark run patches ``linkcert.cli`` by name and reads
    work counts off the replays; a rename must fail here, not in a bench run."""

    def test_traced_certify(self, tmp_path, euclidean_instance, capsys,
                            monkeypatch):
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
        spec = importlib.util.spec_from_file_location("bench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, tracing)  # for @dataclass
        spec.loader.exec_module(tracing)
        original = cli.alg2_bound
        with tracing.traced(tracing.Tracer()) as tracer:
            assert cli.alg2_bound is not original
            assert run_cli("--out-dir", tmp_path, "certify", "--instance",
                           euclidean_instance, "--k", 3) == 0
        assert cli.alg2_bound is original
        names = {s.name for s in tracer.spans}
        assert {"family_certificates.alg1_trace", "family_certificates.alg1_bound",
                "graph_certificates.alg2_trace",
                "graph_certificates.alg2_bound"} <= names
        counts = tracer.counts()
        assert counts["families"] > 0 and counts["alg2_assertions"] > 0


class TestReadmeExamples:
    """README's `generate`, `oracle` and `certify` examples, run through
    ``cli.main``: the printed values in README must be what the commands print."""

    README = Path(__file__).resolve().parents[1] / "README.md"

    def test_oracle_and_certify_examples(self, tmp_path, capsys):
        text = self.README.read_text()
        block = text.split("linkcert oracle --instance out/euclidean_n10_d2_s7.json "
                           "--k 3 --score max-diam\n", 1)[1].split("```", 1)[0]
        documented = json.loads(" ".join(line.lstrip("# ")
                                          for line in block.splitlines()))
        oracle_line = re.search(r'"oracle":\s*(\{[^}]*\})', text).group(1)
        documented_opt = json.loads(oracle_line)

        assert run_cli("--out-dir", tmp_path, "--seed", 7, "generate",
                       "euclidean", "--n", 10, "--dim", 2) == 0
        instance = json.loads(capsys.readouterr().out)["instance"]
        assert run_cli("--out-dir", tmp_path, "oracle", "--instance", instance,
                       "--k", 3, "--score", "max-diam") == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == documented == {
            "score": "max-diam", "k": 3, "value": 0.5291373635527069,
            "witness": [[0, 8, 9], [1, 4, 5, 7], [2, 3, 6]], "enumerated": 9330}

        assert run_cli("--out-dir", tmp_path, "certify", "--instance", instance,
                       "--k", 3) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["oracle"] == documented_opt == {
            "opt_av": 0.2680115196006248, "opt_dm": 0.5291373635527069}

"""End-to-end runs of the command-line front end.

Each test invokes main() in-process with a temp working directory.  The
planted sample reused from the estimator tests keeps the SDP-backed paths
fast and deterministic.
"""

import json

import numpy as np
import pytest

from robustmoments.cli import main
from robustmoments.corruption import lower_bound_gap


@pytest.fixture()
def planted_csv(tmp_path):
    # eleven-row +-1 bulk plus one outlier at 100, the 1/12-corruption fixture
    col = np.array([1.0, -1.0] * 6)
    col[10] = 100.0
    path = tmp_path / "planted.csv"
    path.write_text("\n".join("%.1f" % v for v in col))
    return path


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return path


def run(args):
    return main([str(a) for a in args])


class TestGen:
    def test_json_output_shape_and_mask(self, tmp_path, capsys):
        model = write_json(
            tmp_path / "m.json",
            {"family": "Gaussian", "params": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}},
        )
        adv = write_json(
            tmp_path / "a.json", {"kind": "PointMass", "location": [50.0, 0.0]}
        )
        code = run(
            ["gen", "--model", model, "--n", 40, "--epsilon", 0.1,
             "--adversary", adv, "--seed", 3]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert np.asarray(out["data"]).shape == (40, 2)
        assert sum(out["corrupted_mask"]) == 4

    def test_csv_roundtrip(self, tmp_path):
        model = write_json(
            tmp_path / "m.json", {"family": "Gaussian", "params": {"mean": [1.0], "cov": [[1.0]]}}
        )
        out = tmp_path / "rows.csv"
        code = run(
            ["gen", "--model", model, "--n", 25, "--format", "csv", "--out", out]
        )
        assert code == 0
        data = np.loadtxt(out, delimiter=",", ndmin=2)
        assert data.shape == (25, 1)

    def test_epsilon_without_adversary_fails(self, tmp_path):
        model = write_json(
            tmp_path / "m.json", {"family": "Gaussian", "params": {"mean": [0.0], "cov": [[1.0]]}}
        )
        assert run(["gen", "--model", model, "--n", 10, "--epsilon", 0.1]) == 1

    def test_unknown_adversary_kind(self, tmp_path):
        model = write_json(
            tmp_path / "m.json", {"family": "Gaussian", "params": {"mean": [0.0], "cov": [[1.0]]}}
        )
        adv = write_json(tmp_path / "a.json", {"kind": "Nope"})
        code = run(
            ["gen", "--model", model, "--n", 10, "--epsilon", 0.1, "--adversary", adv]
        )
        assert code == 1


class TestEstimate:
    def test_planted_pipeline(self, tmp_path, planted_csv):
        out = tmp_path / "report.json"
        code = run(
            ["estimate", "--sample", planted_csv, "--epsilon", 1 / 12,
             "--C", 1, "--k", 4, "--out", out]
        )
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["mean_hat"][0] == pytest.approx(-1 / 12, abs=1e-3)
        assert rep["diagnostics"]["status"] == "Optimal"
        assert set(rep["higher_hats"]) == {"3", "4"}

    def test_infeasible_exits_2(self, tmp_path, capsys):
        rows = (np.random.default_rng(3).choice([-1.0, 1.0], size=12) * 100.0)
        sample = write_json(tmp_path / "s.json", {"data": rows[:, None].tolist()})
        code = run(
            ["estimate", "--sample", sample, "--epsilon", 1 / 12,
             "--C", 0.3, "--k", 4]
        )
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] in ("EstimationInfeasible", "IdentifiabilityError")

    def test_csv_format_rejected(self, planted_csv):
        code = run(
            ["estimate", "--sample", planted_csv, "--epsilon", 1 / 12,
             "--C", 1, "--k", 4, "--format", "csv"]
        )
        assert code == 1


class TestCheckSubgaussian:
    def test_certified_sample(self, tmp_path, capsys):
        rows = np.random.default_rng(0).standard_normal((30, 1))
        sample = write_json(tmp_path / "s.json", {"data": rows.tolist()})
        assert run(["check-subgaussian", "--sample", sample, "--C", 2, "--k", 4]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "Certified"

    def test_uncertifiable_exits_2(self, tmp_path, capsys):
        rows = np.random.default_rng(3).choice([-1.0, 1.0], size=12) * 100.0
        sample = write_json(tmp_path / "s.json", {"data": rows[:, None].tolist()})
        assert run(["check-subgaussian", "--sample", sample, "--C", 0.3, "--k", 4]) == 2
        assert json.loads(capsys.readouterr().out)["status"] == "NotCertifiable"


class TestLowerbound:
    def test_gap_and_pair(self, capsys):
        code = run(["lowerbound", "--kind", "Mean71", "--k", 4, "--epsilon", 0.1])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["gap"] == pytest.approx(lower_bound_gap("Mean71", 4, 0.1))
        members = [p["params"]["member"] for p in out["pair"]]
        assert members == [1, 2]

    def test_higher_moment_needs_r(self, capsys):
        code = run(
            ["lowerbound", "--kind", "HigherMoment72", "--k", 8,
             "--epsilon", 0.01, "--r", 2]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["gap"] > 0


class TestVerifyCert:
    @pytest.mark.parametrize("kind", ["Binomial", "AmGm", "PowerReduction"])
    def test_toolkit_kinds_verify(self, kind, capsys):
        assert run(["verify-cert", "--kind", kind, "--k", 4]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] is True and out["residual"] <= 1e-8

    def test_amgm_k8_exits_with_the_size_error(self, capsys):
        assert run(["verify-cert", "--kind", "AmGm", "--k", 8]) == 1
        assert "330 basis monomials exceeds the cap" in capsys.readouterr().err

    def test_interval_requires_delta(self, capsys):
        assert run(["verify-cert", "--kind", "IntervalFromPower", "--k", 2]) == 1
        code = run(
            ["verify-cert", "--kind", "IntervalFromPower", "--k", 2,
             "--delta", 0.005]
        )
        assert code == 0


class TestSweep:
    @pytest.fixture()
    def config(self, tmp_path):
        return write_json(
            tmp_path / "sweep.json",
            {
                "model": {
                    "family": "Gaussian",
                    "params": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
                },
                "adversary": {"kind": "PointMass", "location": [100.0, 0.0]},
                "epsilon_grid": [0.0, 0.1],
                "estimators": ["Empirical", "TrimmedMean(0.2)"],
                "trials": 2,
                "sample_size": 200,
                "seed": 7,
            },
        )

    def strip_runtime(self, csv_text):
        rows = [line.split(",") for line in csv_text.strip().splitlines()]
        drop = rows[0].index("runtime_ms")
        return [row[:drop] + row[drop + 1:] for row in rows]

    def test_csv_default_and_row_count(self, tmp_path, config):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--config", config, "--out", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("estimator,epsilon,trial")
        assert len(lines) == 1 + 2 * 2 * 2

    def test_workers_match_sequential(self, tmp_path, config):
        seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
        assert run(["sweep", "--config", config, "--out", seq]) == 0
        assert run(["sweep", "--config", config, "--out", par, "--workers", 2]) == 0
        assert self.strip_runtime(seq.read_text()) == self.strip_runtime(
            par.read_text()
        )

    def test_json_format(self, config, capsys):
        assert run(["sweep", "--config", config, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 8 and all(r["status"] == "ok" for r in rows)

    def test_json_format_in_any_spelling(self, config, capsys):
        # argparse also takes --format=json and the abbreviation --form
        for spelling in (["--format=json"], ["--form", "json"]):
            assert run(["sweep", "--config", config, *spelling]) == 0
            assert len(json.loads(capsys.readouterr().out)) == 8


class TestAppCommands:
    def test_gmm_single_component_is_sample_mean(self, tmp_path, capsys):
        rows = np.random.default_rng(2).standard_normal((50, 2)) + [1.0, -2.0]
        sample = write_json(tmp_path / "s.json", {"data": rows.tolist()})
        assert run(["gmm", "--sample", sample, "--q", 1]) == 0
        out = json.loads(capsys.readouterr().out)
        assert np.allclose(out["means_hat"][0], rows.mean(axis=0), atol=1e-9)

    def test_ica_small_run(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        Y = rng.choice([-1.0, 1.0], size=(8000, 2))
        sample = write_json(tmp_path / "s.json", {"data": Y.tolist()})
        truth = write_json(tmp_path / "A.json", [[1.0, 0.0], [0.0, 1.0]])
        code = run(
            ["ica", "--sample", sample, "--truth", truth, "--seed", 1]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["gamma_hat"] == pytest.approx(-2.0, abs=0.3)
        assert out["recovery_score"] >= 0.9

    def test_gmm_coincident_means_exit_2(self, tmp_path, capsys):
        rows = np.random.default_rng(4).standard_normal((500, 2))
        sample = write_json(tmp_path / "s.json", {"data": rows.tolist()})
        assert run(["gmm", "--sample", sample, "--q", 2]) == 2
        assert json.loads(capsys.readouterr().out)["status"] == "WhiteningError"


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()

import json

import numpy as np
import pytest

from multispec.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_TOO_LARGE,
    EXIT_VERIFICATION,
    run,
)


class TestCanopyVerify:
    def test_single_patch_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            ["canopy-verify", "--K", "3", "--L", "2", "--l", "2", "--out", str(out)]
        )
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["certificates_issued"] == 8  # (K-1) * 4 energies
        assert report["failures"] == []
        assert report["clusters_ge_2"] >= 3
        assert report["certified_total"] <= report["observed_total"]

    def test_self_test_trips(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            [
                "canopy-verify",
                "--K", "3", "--L", "2", "--l", "2",
                "--self-test",
                "--out", str(out),
            ]
        )
        # the negative control must be detected, which is reported as a
        # failure and therefore a verification exit
        assert code == EXIT_VERIFICATION
        report = json.loads(out.read_text())
        assert any("negative control tripped" in f for f in report["failures"])

    def test_deep_roots_reported_as_failures(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            ["canopy-verify", "--K", "3", "--L", "5", "--l", "2", "--out", str(out)]
        )
        assert code == EXIT_VERIFICATION
        report = json.loads(out.read_text())
        # 27 shallow roots pass, the depth-5 root yields 4 failing pairs
        assert len(report["failures"]) == 4
        passing = [e for e in report["per_pair"] if e["status"] == "pass"]
        assert len(passing) == 27 * 4

    def test_incompatible_depths_invalid(self):
        assert run(["canopy-verify", "--K", "3", "--L", "4", "--l", "2"]) == EXIT_INVALID

    def test_vertex_cap_env(self, monkeypatch):
        monkeypatch.setenv("MULTISPEC_VERTEX_CAP", "10")
        assert run(["canopy-verify", "--K", "3", "--L", "2", "--l", "2"]) == EXIT_TOO_LARGE

    def test_eig_cap_env(self, monkeypatch):
        monkeypatch.setenv("MULTISPEC_EIG_CAP", "5")
        assert run(["canopy-verify", "--K", "3", "--L", "2", "--l", "2"]) == EXIT_TOO_LARGE

    def test_report_reproducible(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            run(
                [
                    "canopy-verify",
                    "--K", "3", "--L", "2", "--l", "2",
                    "--seed", "9",
                    "--out", str(out),
                ]
            )
        ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
        ra["config"].pop("out"), rb["config"].pop("out")
        assert ra == rb


class TestCayleyVerify:
    def test_cyclic_group(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            [
                "cayley-verify",
                "--pieces", "4",
                "--group", "cyclic:2",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["kernel_dimension"] >= 2
        assert len(report["per_fiber"]) == 2
        assert all(c["holds"] for c in report["covariance"])

    def test_truncated_group_interior_only(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            [
                "cayley-verify",
                "--pieces", "4",
                "--group", "zbox:1:1",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert len(report["per_fiber"]) == 1  # only the central fiber
        assert report["covariance"] == []

    def test_bad_group_descriptor(self):
        assert run(["cayley-verify", "--pieces", "4", "--group", "zzz:1"]) == EXIT_INVALID


class TestAut:
    def test_rigid_instance(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            ["aut", "--pieces", "2", "--group", "cyclic:3", "--out", str(out)]
        )
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["anchor_stabilizer_order"] == 1
        assert report["aut_and_order"] == 1
        assert report["brute_order"] == 1


class TestSpectrum:
    def test_path_three(self, tmp_path, capsys):
        gf = tmp_path / "graph.txt"
        gf.write_text("3 2\n0 1\n1 2\n")
        out = tmp_path / "report.json"
        assert run(["spectrum", "--graph", str(gf), "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        expect = [-np.sqrt(2), 0.0, np.sqrt(2)]
        assert np.allclose(report["eigenvalues"], expect, atol=1e-10)

    def test_missing_file(self, tmp_path):
        assert run(["spectrum", "--graph", str(tmp_path / "nope.txt")]) == EXIT_INVALID


class TestDos:
    def test_small_run_json(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            [
                "dos",
                "--K", "3", "--L", "2", "--l", "2",
                "--bins", "10",
                "--realizations", "2",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        hist = report["histogram"]
        assert sum(hist["counts"]) == 2 * 13
        assert abs(sum(hist["normalized"]) - 1.0) < 1e-12

    def test_csv_output(self, tmp_path):
        out = tmp_path / "hist.csv"
        code = run(
            [
                "dos",
                "--K", "3", "--L", "2", "--l", "2",
                "--bins", "5",
                "--realizations", "1",
                "--format", "csv",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count,normalized"
        assert len(lines) == 6


class TestExample1:
    def test_three_paths_zero_energy(self, tmp_path):
        spec = {
            "junction_count": 1,
            "E0": 0.0,
            "pieces": [
                {"n": 3, "edges": [[0, 1], [1, 2]], "attach": [1]},
                {"n": 3, "edges": [[0, 1], [1, 2]], "attach": [1]},
                {"n": 3, "edges": [[0, 1], [1, 2]], "attach": [1]},
            ],
        }
        sf = tmp_path / "pieces.json"
        sf.write_text(json.dumps(spec))
        out = tmp_path / "report.json"
        assert run(["example1", "--pieces-spec", str(sf), "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["vertices"] == 10
        assert report["kernel_dimension"] == 3
        assert all(r <= 1e-10 for r in report["residuals"])

    def test_malformed_spec(self, tmp_path):
        sf = tmp_path / "pieces.json"
        sf.write_text(json.dumps({"junction_count": 1, "E0": 5.0, "pieces": []}))
        assert run(["example1", "--pieces-spec", str(sf)]) == EXIT_INVALID


def test_summary_goes_to_stdout(capsys, tmp_path):
    gf = tmp_path / "graph.txt"
    gf.write_text("2 1\n0 1\n")
    run(["spectrum", "--graph", str(gf)])
    captured = capsys.readouterr()
    assert "spectrum:" in captured.out


class TestCapsBeforeDensifying:
    """Size caps end in exit 3 with a one-line message, and no operator is
    densified on the way there."""

    @pytest.fixture(autouse=True)
    def no_densify(self, monkeypatch):
        from multispec.anderson import SiteOperator

        def refuse(self):
            raise AssertionError("operator densified before the cap check")

        monkeypatch.setattr(SiteOperator, "to_dense", refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ["canopy-verify", "--K", "3", "--L", "5", "--l", "2"],
            ["cayley-verify", "--pieces", "4", "--group", "cyclic:3"],
            ["dos", "--K", "3", "--L", "5", "--l", "2", "--realizations", "2"],
        ],
    )
    def test_eig_cap_env(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("MULTISPEC_EIG_CAP", "5")
        assert run(argv) == EXIT_TOO_LARGE
        err = capsys.readouterr().err
        assert err.startswith("error (size cap):") and err.count("\n") == 1

    def test_spectrum_cap_before_dense_adjacency(self, tmp_path, monkeypatch):
        import multispec.graph_core as graph_core

        def refuse(g):
            raise AssertionError("adjacency densified before the cap check")

        monkeypatch.setattr(graph_core, "adjacency_matrix", refuse)
        monkeypatch.setenv("MULTISPEC_EIG_CAP", "5")
        gf = tmp_path / "graph.txt"
        gf.write_text("6 5\n0 1\n1 2\n2 3\n3 4\n4 5\n")
        assert run(["spectrum", "--graph", str(gf)]) == EXIT_TOO_LARGE

    def test_default_cap_above_dense_size(self, capsys):
        # K=3, L=8: 9,841 vertices, over the default eig cap of 5,000
        assert run(["canopy-verify", "--K", "3", "--L", "8", "--l", "2"]) == EXIT_TOO_LARGE
        assert "exceeds eig cap 5000" in capsys.readouterr().err

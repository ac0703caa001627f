import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multispec

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


def test_canopy_verify_tau_sets_the_match_window(tmp_path):
    # every pair's eig_matches counts the oracle eigenvalues within --tau
    from multispec.anderson import (
        DisorderSpec,
        assemble_canopy_operator,
        sample_disorder,
    )
    from multispec.canopy import build_truncated_canopy, potential_roots

    from oracle import dense_operator

    out = tmp_path / "report.json"
    argv = ["canopy-verify", "--K", "3", "--L", "5", "--l", "2", "--tau", "0.5"]
    assert run([*argv, "--out", str(out)]) == EXIT_VERIFICATION
    t = build_truncated_canopy(3, 5)
    p = potential_roots(t, 2)
    op = assemble_canopy_operator(t, p, sample_disorder(DisorderSpec(seed=0), p.roots))
    oracle = np.linalg.eigvalsh(dense_operator(op))
    pairs = json.loads(out.read_text())["per_pair"]
    assert len(pairs) == 28 * 4
    for e in pairs:
        assert e["eig_matches"] == int(np.sum(np.abs(oracle - e["claimed"]) < 0.5))
    assert max(e["eig_matches"] for e in pairs) > 2  # wider than the default


class TestFailureBranches:
    """Each failure the CLI reports ends in exit 2 with a one-line text, a
    report failure or the one stderr line."""

    @staticmethod
    def _failures(argv, tmp_path):
        out = tmp_path / "report.json"
        assert run([*argv, "--out", str(out)]) == EXIT_VERIFICATION
        failures = json.loads(out.read_text())["failures"]
        assert failures and all("\n" not in f for f in failures)
        return failures

    def test_canopy_pair_without_matches(self, tmp_path, monkeypatch):
        import multispec.spectral as spectral

        solve = spectral.operator_spectrum

        def shifted(*args, **kwargs):
            return solve(*args, **kwargs) + 1

        monkeypatch.setattr(spectral, "operator_spectrum", shifted)
        argv = ["canopy-verify", "--K", "3", "--L", "2", "--l", "2"]
        failures = self._failures(argv, tmp_path)
        assert len(failures) == 4
        assert all(re.fullmatch(r"root 0 E \S+: only 0 matches", f) for f in failures)

    CAYLEY = ["cayley-verify", "--pieces", "4", "--group", "cyclic:6"]

    def test_cayley_rejected_fiber(self, tmp_path, monkeypatch):
        import multispec.spectral as spectral
        from multispec.errors import CertificateError

        issue = spectral.cayley_families

        def reject_first(*args, **kwargs):
            families = issue(*args, **kwargs)
            rejections = [CertificateError("forced rejection"), *families.rejections[1:]]
            return dataclasses.replace(families, rejections=rejections)

        monkeypatch.setattr(spectral, "cayley_families", reject_first)
        assert self._failures(self.CAYLEY, tmp_path) == ["fiber 0: forced rejection"]

    def test_cayley_too_few_matches(self, tmp_path, monkeypatch):
        import multispec.spectral as spectral

        count = spectral.cayley_window_counts

        def fewer(*args, **kwargs):
            return count(*args, **kwargs) - 1

        monkeypatch.setattr(spectral, "cayley_window_counts", fewer)
        failures = self._failures(self.CAYLEY, tmp_path)
        assert failures == [f"fiber {g}: only 1 matching eigenvalues" for g in range(6)]

    def test_cayley_covariance_broken(self, tmp_path, monkeypatch):
        import multispec.cli as cli

        check = cli.covariance_check

        def break_last(*args, **kwargs):
            checks = check(*args, **kwargs)
            return [*checks[:-1], (False, 0.25)]

        monkeypatch.setattr(cli, "covariance_check", break_last)
        failures = self._failures(self.CAYLEY, tmp_path)
        assert failures == ["covariance broken at g=5 (dev 0.25)"]

    def test_aut_brute_order_disagrees(self, tmp_path, monkeypatch, capsys):
        import multispec.cli as cli

        brute = SimpleNamespace(order=2)
        monkeypatch.setattr(cli, "brute_anderson_automorphisms", lambda cg, r: brute)
        out = tmp_path / "report.json"
        argv = ["aut", "--pieces", "2", "--group", "cyclic:3", "--out", str(out)]
        assert run(argv) == EXIT_VERIFICATION
        err = capsys.readouterr().err
        assert err == "error (verification): brute order 2 != structural 1\n"
        assert not out.exists()


    def test_canopy_core_value_not_enclosed(self, monkeypatch, capsys):
        # one core value 10 delta off: the tree inertia counts do not enclose
        # it within delta, so the spectrum, and the run, are refused
        import multispec.spectral as spectral

        solve = np.linalg.eigvalsh

        def nudged(M):
            values = solve(M)
            values[1] += 10 * spectral._solver_bound(M)
            return values

        monkeypatch.setattr(np.linalg, "eigvalsh", nudged)
        assert run(["canopy-verify", "--K", "3", "--L", "2", "--l", "2"]) == EXIT_VERIFICATION
        err = capsys.readouterr().err
        assert err.startswith("error (verification): core eigenvalues not enclosed")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("off, message", [
        (lambda below: below + 1, "not 0 and 13"),
        (lambda below: below + (np.arange(below.shape[-1]) == 0), "decrease"),
    ], ids=["every_count", "first_edge"])
    def test_dos_count_off_by_one(self, off, message, monkeypatch, capsys):
        import multispec.spectral as spectral

        count = spectral._tree_counts_below
        monkeypatch.setattr(spectral, "_tree_counts_below",
                            lambda op, s, v: tuple(map(off, count(op, s, v))))
        argv = ["dos", "--K", "3", "--L", "2", "--l", "2", "--realizations", "2"]
        assert run(argv) == EXIT_VERIFICATION
        err = capsys.readouterr().err
        assert err.startswith("error (verification): inertia counts") and message in err


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

    def test_brute_cap_read_at_call_time(self, tmp_path, monkeypatch):
        # cyclic:6 over the 32-vertex base has 192 vertices: under the
        # default brute cap, over a lowered one, which aut must honour
        import multispec.automorphism as automorphism

        monkeypatch.setattr(automorphism, "BRUTE_VERTEX_CAP", 191)
        out = tmp_path / "report.json"
        argv = ["aut", "--pieces", "4", "--group", "cyclic:6", "--out", str(out)]
        assert run(argv) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["brute_order"] is None and report["aut_and_order"] == 1

    def test_involutive_generators_refused(self, tmp_path, capsys):
        # 512 vertices, over the brute cap: swapping the junctions and
        # reversing every path in every fiber fixes H, so no order is claimed
        out = tmp_path / "report.json"
        argv = ["aut", "--pieces", "4", "--group", "product:2,2,2,2", "--out", str(out)]
        assert run(argv) == EXIT_VERIFICATION
        err = capsys.readouterr().err
        assert err.startswith("error (verification):") and err.count("\n") == 1
        assert "S = S^-1" in err and not out.exists()


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

    def test_csv_output(self, tmp_path, monkeypatch, capsys):
        # the CSV is written and the summary printed: no JSON is encoded
        monkeypatch.setattr(json, "dumps", lambda *a, **k: pytest.fail("encoded"))
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
        assert capsys.readouterr().out.startswith("dos K=3 L=2 l=2: 1 realizations")


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

    PIECE = {"n": 3, "edges": [[0, 1], [1, 2]], "attach": [1]}

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"pieces": [', "not JSON"),
            (json.dumps({"junction_count": 1, "pieces": [PIECE]}), "missing key 'E0'"),
            (json.dumps({"junction_count": 1, "E0": 0, "pieces": [{"n": 3, "attach": [1]}]}),
             "missing key 'edges'"),
            (json.dumps([PIECE]), "missing key 'pieces'"),
            (json.dumps({"junction_count": 1, "E0": "0", "pieces": [PIECE]}), "'E0'"),
            (json.dumps({"junction_count": 1.0, "E0": 0, "pieces": [PIECE]}), "'junction_count'"),
            (json.dumps({"junction_count": 1, "E0": 0, "pieces": [PIECE | {"n": "3"}]}), "'n'"),
            (json.dumps({"junction_count": 1, "E0": 0, "pieces": [PIECE | {"n": True}]}), "'n'"),
            (json.dumps({"junction_count": 1, "E0": 0, "pieces": [PIECE | {"edges": [[0, 1, 2]]}]}),
             "'edges'"),
            (json.dumps({"junction_count": 1, "E0": 0, "pieces": [PIECE | {"edges": [[0, 1.5]]}]}),
             "'edges'"),
            (json.dumps({"junction_count": 1, "E0": 0, "pieces": [PIECE | {"attach": 1}]}), "'attach'"),
            (json.dumps({"junction_count": 1, "E0": 0, "pieces": {"a": PIECE}}), "'pieces'"),
            (json.dumps({"junction_count": 1, "E0": 0, "pieces": [3]}), "missing key 'n'"),
        ],
    )
    def test_malformed_spec_one_line(self, text, message, tmp_path, capsys):
        sf = tmp_path / "pieces.json"
        sf.write_text(text)
        assert run(["example1", "--pieces-spec", str(sf)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error (invalid config):") and err.count("\n") == 1
        assert message in err

    def test_oversized_piece_hits_the_eig_cap(self, tmp_path, monkeypatch, capsys):
        # 60,000 vertices: exit 3 before any piece or the glued graph is
        # densified (this used to end in numpy's MemoryError)
        import multispec.graph_core as graph_core
        import multispec.spectral as spectral

        def refuse(g):
            raise AssertionError("graph densified before the cap check")

        monkeypatch.setattr(graph_core, "adjacency_matrix", refuse)
        monkeypatch.setattr(spectral, "adjacency_matrix", refuse)
        spec = {"junction_count": 1, "E0": 0.0, "pieces": [
            {"n": 60_000, "edges": [[v, v + 1] for v in range(59_999)], "attach": [0]}]}
        sf = tmp_path / "pieces.json"
        sf.write_text(json.dumps(spec))
        assert run(["example1", "--pieces-spec", str(sf)]) == EXIT_TOO_LARGE
        err = capsys.readouterr().err
        assert err == "error (size cap): dimension 60001 exceeds eig cap 5000\n"


def _example1_spec(glued, E0=0.0) -> dict:
    spec = glued.spec
    pieces = [
        {"n": g.vertex_count, "edges": [list(e) for e in g.edges], "attach": list(a)}
        for g, a in zip(spec.pieces, spec.attach_points)
    ]
    return {"junction_count": spec.junction_count, "E0": E0, "pieces": pieces}


class TestDenseOnlyForEigensolves:
    """Only the pieces' eigensolves densify a graph: the Cayley base and the
    glued graph are checked on CSR."""

    @pytest.fixture
    def densified(self, monkeypatch):
        import multispec.graph_core as graph_core
        import multispec.spectral as spectral

        seen = []
        dense = graph_core.adjacency_matrix

        def recording(g):
            seen.append(g)
            return dense(g)

        monkeypatch.setattr(graph_core, "adjacency_matrix", recording)
        monkeypatch.setattr(spectral, "adjacency_matrix", recording)
        return seen

    def test_cayley_verify(self, densified):
        from multispec.graph_core import prime_paths_graph

        assert run(["cayley-verify", "--pieces", "4", "--group", "cyclic:6"]) == EXIT_OK
        assert densified == list(prime_paths_graph(4, 2).spec.pieces)

    def test_example1(self, densified, tmp_path):
        from multispec.graph_core import prime_paths_graph

        glued = prime_paths_graph(4, 2)
        sf = tmp_path / "pieces.json"
        sf.write_text(json.dumps(_example1_spec(glued)))
        assert run(["example1", "--pieces-spec", str(sf)]) == EXIT_OK
        assert densified == list(glued.spec.pieces)


def test_example1_residuals_equal_dense_oracle(tmp_path):
    # the report's CSR residuals equal max |A v - E0 v| with the dense
    # adjacency, bit for bit, on 39 kernel vectors: prime paths with 1-10
    # pieces at scale 2 and 3 (a scale-3 path of even length has no
    # eigenvalue 0, so those specs exit 1) plus three 3-paths on one junction
    from multispec.graph_core import (
        GluedGraphSpec,
        adjacency_matrix,
        glue_subgraphs,
        path_graph,
        prime_paths_graph,
    )
    from multispec.spectral import junction_kernel_basis

    three = GluedGraphSpec((path_graph(3),) * 3, ((1,),) * 3, 1)
    instances = [prime_paths_graph(k, s) for s in (2, 3) for k in range(1, 11)]
    checked = 0
    for glued in [*instances, glue_subgraphs(three)]:
        sf, out = tmp_path / "pieces.json", tmp_path / "report.json"
        sf.write_text(json.dumps(_example1_spec(glued)))
        if run(["example1", "--pieces-spec", str(sf), "--out", str(out)]) != EXIT_OK:
            continue
        adj, E0 = adjacency_matrix(glued.graph), 0.0
        kernel = junction_kernel_basis(glued, E0)
        oracle = [float(np.max(np.abs(adj @ v - E0 * v))) for v in kernel]
        assert json.loads(out.read_text())["residuals"] == oracle
        checked += len(oracle)
    assert checked == 39


def test_summary_goes_to_stdout(capsys, tmp_path):
    gf = tmp_path / "graph.txt"
    gf.write_text("2 1\n0 1\n")
    run(["spectrum", "--graph", str(gf)])
    captured = capsys.readouterr()
    assert "spectrum:" in captured.out


class TestCapsBeforeDensifying:
    """Size caps end in exit 3 with a one-line message, and no operator is
    densified or solved on the way there."""

    @pytest.fixture(autouse=True)
    def no_solve(self, monkeypatch):
        import multispec.spectral as spectral

        def refuse(*args):
            raise AssertionError("operator solved before the cap check")

        for solve in ("_canopy_blocks", "_counts_below"):
            monkeypatch.setattr(spectral, solve, refuse)

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


class TestMalformedInput:
    """Malformed input ends in exit 1 with one line on stderr, never a
    traceback."""

    def _invalid(self, argv, capsys):
        assert run(argv) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error (invalid config):") and err.count("\n") == 1
        return err

    def test_vertex_cap_env_not_an_integer(self, monkeypatch, capsys):
        monkeypatch.setenv("MULTISPEC_VERTEX_CAP", "abc")
        argv = ["canopy-verify", "--K", "3", "--L", "2", "--l", "2"]
        assert "MULTISPEC_VERTEX_CAP" in self._invalid(argv, capsys)

    def test_eig_cap_env_not_an_integer(self, monkeypatch, capsys):
        monkeypatch.setenv("MULTISPEC_EIG_CAP", "abc")
        argv = ["dos", "--K", "3", "--L", "2", "--l", "2", "--realizations", "1"]
        assert "MULTISPEC_EIG_CAP" in self._invalid(argv, capsys)

    def test_edge_line_with_three_values(self, tmp_path, capsys):
        gf = tmp_path / "graph.txt"
        gf.write_text("3 2\n0 1 5\n1 2\n")
        assert "'0 1 5'" in self._invalid(["spectrum", "--graph", str(gf)], capsys)

    def test_edge_lines_beyond_header_count(self, tmp_path, capsys):
        gf = tmp_path / "graph.txt"
        gf.write_text("3 1\n0 1\n1 2\n")
        err = self._invalid(["spectrum", "--graph", str(gf)], capsys)
        assert "header declares 1 edges but 2 edge lines follow" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["canopy-verify", "--K", "abc", "--L", "2", "--l", "2"], "invalid int value"),
            (["canopy-verify", "--K", "3", "--L", "2"], "required: --l"),
            (["cayley-verify", "--pieces", "4", "--group", "cyclic:2", "--scale", "4"],
             "invalid choice"),
            ([], "required: command"),
        ],
    )
    def test_usage_error(self, argv, message, capsys):
        # argparse would exit 2, the verification-failure code, with a
        # multi-line usage text
        assert message in self._invalid(argv, capsys)

    @pytest.mark.parametrize(
        "command", [["canopy-verify", "--K", "3", "--L", "2", "--l", "2"],
                    ["cayley-verify", "--pieces", "4", "--group", "cyclic:2"]],
    )
    @pytest.mark.parametrize("tau", ["-1", "0", "nan", "inf", "abc"])
    def test_tau_not_finite_and_positive(self, command, tau, capsys):
        err = self._invalid([*command, "--tau", tau], capsys)
        assert f"argument --tau: must be finite and above 0, got '{tau}'" in err


def test_canopy_cores_solved_without_vectors(monkeypatch):
    # dos counts every realization's histogram by tree inertia, so its one
    # eigvalsh of a 94-vertex K=3, L=5 core is the band count's; neither dos
    # nor canopy-verify (213-vertex K=4, L=5 core) computes core eigenvectors
    import multispec.spectral as spectral

    values, vectors = [], []

    def spy(solve, seen):
        def recording(M, *args, **kwargs):
            seen.append(np.shape(M)[-1])
            return solve(M, *args, **kwargs)

        return recording

    monkeypatch.setattr(np.linalg, "eigvalsh", spy(np.linalg.eigvalsh, values))
    monkeypatch.setattr(np.linalg, "eigh", spy(np.linalg.eigh, vectors))
    monkeypatch.setattr(spectral, "eig_sym", spy(spectral.eig_sym, vectors))
    argv = ["dos", "--K", "3", "--L", "5", "--l", "2", "--realizations", "3"]
    assert run(argv) == EXIT_OK
    assert values == [94] and 94 not in vectors
    values.clear()
    argv = ["canopy-verify", "--K", "4", "--L", "5", "--l", "2"]
    assert run(argv) == EXIT_VERIFICATION  # the deep root, as pinned
    assert values == [213] and max(vectors, default=0) < 213


def test_cayley_verify_never_solves_the_operator_densely(monkeypatch):
    # cyclic:6 over the 32-vertex base: no spectrum of the 192-vertex
    # operator is solved, nor its whole anchor Schur complement (6 fibers x
    # 2 anchors, plus the 4 zero modes of a fiber kept as their own rows).
    # eig_sym sees only the pieces and the 30 non-anchor base vertices. Every
    # other eigh or eigvalsh sees one BFS level of the complement, {0},
    # {1, 5}, {2, 4} or {3}: the widest is 2 fibers x 2 anchors plus the 4
    # kept rows, which pad that level for every shift of the pass
    import multispec.spectral as spectral

    dims, levels, inside = [], [], []
    eig_sym, eigh, eigvalsh = spectral.eig_sym, np.linalg.eigh, np.linalg.eigvalsh

    def counting(M, *args, **kwargs):
        dims.append(np.asarray(M).shape[0])
        inside.append(M)
        try:
            return eig_sym(M, *args, **kwargs)
        finally:
            inside.pop()

    def level_counting(solve):
        def counted(M, *args, **kwargs):
            if not inside:
                levels.append(M.shape[-1])
            return solve(M, *args, **kwargs)

        return counted

    monkeypatch.setattr(spectral, "eig_sym", counting)
    monkeypatch.setattr(spectral, "operator_spectrum", lambda *a, **k: pytest.fail("solved"))
    monkeypatch.setattr(np.linalg, "eigh", level_counting(eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", level_counting(eigvalsh))
    assert run(["cayley-verify", "--pieces", "4", "--group", "cyclic:6"]) == EXIT_OK
    assert dims and max(dims) < 32
    assert levels and max(levels) < 6 * 2 + 4
    assert max(levels) == 2 * 2 + 4


def test_cayley_verify_loads_no_scipy_solver():
    # the counts need numpy's eigvalsh alone: scipy.linalg and
    # scipy.sparse.csgraph are never imported, in a fresh interpreter
    code = (
        "import sys\n"
        "from multispec.cli import run\n"
        "assert run(['cayley-verify', '--pieces', '4', '--group', 'cyclic:6']) == 0\n"
        "print([m for m in sys.modules if m.startswith(('scipy.linalg', 'scipy.sparse.csgraph'))])"
    )
    src = str(Path(multispec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.splitlines()[-1] == "[]"


def test_cayley_verify_builds_each_sparse_matrix_once(monkeypatch):
    # one operator for every fiber certificate and every covariance check;
    # the 32-vertex base CSR is built once for the junction kernel check and
    # once for the fiber certificates, however many fibers there are
    import multispec.anderson as anderson
    import multispec.cayley as cayley
    import multispec.graph_core as graph_core
    import multispec.spectral as spectral

    operators = []
    base_builds = []
    init, adjacency_sparse = anderson.SiteOperator.__init__, graph_core.adjacency_sparse

    def counting_init(self, *args, **kwargs):
        operators.append(self)
        init(self, *args, **kwargs)

    def counting_adjacency(g):
        if g.vertex_count == 32:
            base_builds.append(g)
        return adjacency_sparse(g)

    monkeypatch.setattr(anderson.SiteOperator, "__init__", counting_init)
    for module in (anderson, cayley, graph_core, spectral):
        monkeypatch.setattr(module, "adjacency_sparse", counting_adjacency, raising=False)
    for group in ("cyclic:3", "cyclic:9"):
        operators.clear()
        base_builds.clear()
        assert run(["cayley-verify", "--pieces", "4", "--group", group]) == EXIT_OK
        assert len(operators) == 1
        assert len(base_builds) == 2


def test_cayley_verify_checks_the_kernel_once(monkeypatch):
    # cyclic:9 has 9 interior fibers: the kernel vectors are checked against
    # the base graph once for the junction kernel and once for all fibers
    import multispec.spectral as spectral

    checked = []
    base = spectral.check_eigenvectors

    def counting(matrix, vectors, E, error, what):
        checked.append(what)
        return base(matrix, vectors, E, error, what)

    monkeypatch.setattr(spectral, "check_eigenvectors", counting)
    assert run(["cayley-verify", "--pieces", "4", "--group", "cyclic:9"]) == EXIT_OK
    assert checked == ["kernel vector", "base eigenvector"]


def test_canopy_verify_issues_every_family_in_one_call(monkeypatch, tmp_path):
    # one call for the 28 roots x 4 eigenpairs of K=3, L=5, l=2; the report
    # is the one the per-pair calls gave
    import multispec.spectral as spectral

    calls = []
    issue = spectral.canopy_families

    def counting(*args, **kwargs):
        calls.append(args[3])
        return issue(*args, **kwargs)

    monkeypatch.setattr(spectral, "canopy_families", counting)
    out = tmp_path / "report.json"
    argv = ["canopy-verify", "--K", "3", "--L", "5", "--l", "2", "--out", str(out)]
    assert run(argv) == EXIT_VERIFICATION
    assert len(calls) == 1 and len(calls[0]) == 28
    report = json.loads(out.read_text())
    assert report["certificates_issued"] == 27 * 4 * 2
    assert [e["patch_root"] for e in report["per_pair"]] == [
        x for x in calls[0] for _ in range(4)
    ]


@pytest.mark.parametrize("command", ["cayley-verify", "aut"])
def test_group_size_cap_before_group_is_built(command, monkeypatch, capsys):
    import multispec.cayley as cayley

    def refuse(self, *args):
        raise AssertionError("group built before the size cap check")

    monkeypatch.setattr(cayley.GroupSpec, "__init__", refuse)
    assert run([command, "--pieces", "4", "--group", "cyclic:8000"]) == EXIT_TOO_LARGE
    err = capsys.readouterr().err
    assert err.startswith("error (size cap):") and err.count("\n") == 1


def test_cached_parser_keeps_no_state(tmp_path, monkeypatch, capsys):
    # one parser serves every run in a process: a self-test run and a
    # rejected argv leave nothing behind, so a plain run writes the report a
    # fresh process writes, byte for byte
    from multispec.cli import build_parser

    assert build_parser() is build_parser()
    argv = ["canopy-verify", "--K", "3", "--L", "5", "--l", "2", "--out", "report.json"]
    (tmp_path / "here").mkdir()
    (tmp_path / "fresh").mkdir()
    monkeypatch.chdir(tmp_path / "here")
    assert run([*argv, "--self-test"]) == EXIT_VERIFICATION
    assert run(["canopy-verify", "--K", "3", "--L", "5", "--bogus"]) == EXIT_INVALID
    assert run(argv) == EXIT_VERIFICATION  # the deep root's 4 pairs fail
    here = (tmp_path / "here" / "report.json").read_bytes()
    report = json.loads(here)
    assert not report["config"]["self_test"]
    assert not [f for f in report["failures"] if f.startswith("self-test")]
    src = str(Path(multispec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "multispec.cli", *argv],
        cwd=tmp_path / "fresh", capture_output=True, text=True, env=env,
    )
    assert done.returncode == EXIT_VERIFICATION
    assert (tmp_path / "fresh" / "report.json").read_bytes() == here
    assert done.stdout == capsys.readouterr().out.splitlines(keepends=True)[-1]


@settings(max_examples=200, deadline=None)
@given(
    eigenvalues=st.lists(st.floats(-4.0, 4.0), max_size=30),
    targets=st.lists(st.floats(-4.0, 4.0), max_size=10),
    on=st.lists(st.integers(0, 29), max_size=6),
    tau=st.sampled_from([5e-324, 1e-300, 1e-15, 1e-7, 1e-3, 0.5, 10.0]),
)
def test_window_counts_use_the_exact_predicate(eigenvalues, targets, on, tau):
    # the bisection counts what abs(lambda - t) < tau counts pair by pair,
    # also for targets on, or one float off, an eigenvalue -+ tau
    from multispec.cli import _window_counts

    eigenvalues = np.sort(eigenvalues)
    edges = eigenvalues[[i for i in on if i < eigenvalues.size]]
    edges = np.concatenate([edges, edges + tau, edges - tau])
    targets = np.concatenate([targets, edges, np.nextafter(edges, np.inf)])
    want = [int(np.sum(np.abs(eigenvalues - t) < tau)) for t in targets]
    assert _window_counts(eigenvalues, targets, tau) == want

import dataclasses
import hashlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

import depolab.circuits
import depolab.cli
import depolab.statevector
from depolab import (
    Circuit,
    Gate,
    RandomizedCircuit,
    __version__,
    mixture_distribution,
    parse_circuit,
    random_circuit,
    serialize_circuit,
)
from depolab.cli import ExperimentConfig, main, run_experiment
from depolab.construction import mixture_checksum
from depolab.depol import SAMPLE_CAP, sorted_draws
from depolab.discrimination import check_copies, random_density_matrix
from depolab.errors import CapExceeded
from depolab.reports import render_json
from depolab.statevector import _BLOCK_BITS, check_width
from oracles import brute_checksum, per_fidelity_depolarize
from strategies import fidelities, gates, seeds

ROOT = Path(__file__).resolve().parents[1]
BELL = "qubits 2\nH 0\nCNOT 0 1\n"
PLUS = "qubits 1\nH 0\n"


@pytest.fixture
def bell_path(tmp_path):
    path = tmp_path / "bell.qc"
    path.write_text(BELL)
    return str(path)


@pytest.fixture
def plus_path(tmp_path):
    path = tmp_path / "plus.qc"
    path.write_text(PLUS)
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def masked_digest(config):
    """sha256 of config's rendered report, version and circuit path masked."""
    report = run_experiment(config)
    report["version"] = "pinned"
    if report["config"]["circuit_path"] is not None:
        report["config"]["circuit_path"] = "pinned"
    return hashlib.sha256(render_json(report).encode()).hexdigest()


@pytest.fixture
def pinned_path(tmp_path):
    # A seeded 5-qubit, 20-gate circuit shared by the certify and
    # discriminate pins.
    rng = np.random.Generator(np.random.Philox(key=13))
    path = tmp_path / "pinned.qc"
    path.write_text(serialize_circuit(random_circuit(5, 20, rng)))
    return str(path)


class TestSimulate:
    def test_bell(self, capsys, bell_path):
        code, report = run_cli(capsys, ["simulate", "--circuit", bell_path])
        assert code == 0
        assert report["version"] == __version__
        assert report["passed"] is True
        results = report["results"]
        assert results["width"] == 2
        assert results["gate_count"] == 2
        assert results["probabilities"] == pytest.approx([0.5, 0, 0, 0.5], abs=1e-12)
        assert results["zero_amplitude"]["re"] == pytest.approx(2**-0.5, abs=1e-12)

    def test_seed_echoed(self, capsys, bell_path):
        _, report = run_cli(capsys, ["simulate", "--circuit", bell_path, "--seed", "99"])
        assert report["config"]["seed"] == 99

    def test_pinned_report_with_a_negative_zero(self, tmp_path):
        # v0.9.0 skips I1 and applies X, S and T to one half only, so an
        # exact zero can change sign: this circuit's Re<0|C|0> printed 0 at
        # v0.8.0 and prints -0 now.  Every other byte of the report held.
        rng = np.random.Generator(np.random.Philox(key=10446))
        width, gate_count = int(rng.integers(1, 9)), int(rng.integers(0, 80))
        path = tmp_path / "pinned.qc"
        path.write_text(serialize_circuit(random_circuit(width, gate_count, rng)))
        report = run_experiment(ExperimentConfig(subcommand="simulate", circuit_path=str(path)))
        report["version"] = report["config"]["circuit_path"] = "pinned"
        text = render_json(report)
        assert '"re": -0,\n      "im": -0.24999999999999983' in text
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "aa97fda154014ed0924dfffc4e50e530ff9d10525fc591557592be9bccb05989"


class TestDepolarize:
    def test_tally_and_tv(self, capsys, bell_path):
        code, report = run_cli(
            capsys,
            ["depolarize", "--circuit", bell_path, "--fidelity", "0.5",
             "--seed", "7", "--samples", "20"],
        )
        assert code == 0
        entry = report["results"]["per_fidelity"][0]
        assert entry["fidelity"] == 0.5
        assert entry["probabilities"] == pytest.approx([0.375, 0.125, 0.125, 0.375])
        # outcome keys are bitstrings, qubit 0 leftmost; tallies are the
        # pinned Philox draws for seed 7
        assert entry["tally"] == {"00": 5, "10": 4, "01": 3, "11": 8}
        assert entry["empirical_tv"] >= 0.0

    def test_golden_report_digest(self, monkeypatch):
        # sha256 of the whole report as v0.8.0 rendered it, version masked:
        # probabilities, tallies and TVs of the same command must keep every byte.
        monkeypatch.chdir(ROOT)
        config = ExperimentConfig(
            subcommand="depolarize",
            circuit_path="circuits/ghz.qc",
            fidelity_grid=(0.25, 0.5, 0.9),
            seed=7,
            samples=100_000,
        )
        report = run_experiment(config)
        report["version"] = "pinned"
        digest = hashlib.sha256(render_json(report).encode()).hexdigest()
        assert digest == "0d070db4f2de2e221995f45ed135ba7378aa1102d94a3095cb5d02cfe6fbece5"

    def test_pinned_wide_tally(self, tmp_path):
        # perfbench's sample_tally layer at 17 qubits: a uniform distribution,
        # so 102,511 distinct outcomes per fidelity, in many rendered pieces.
        w = 17
        path = tmp_path / "layer.qc"
        path.write_text("\n".join([f"qubits {w}", *(f"H {q}" for q in range(w)),
                                   *(f"CNOT {q} {q + 1}" for q in range(0, w - 1, 2))]) + "\n")
        config = ExperimentConfig(subcommand="depolarize", circuit_path=str(path),
                                  fidelity_grid=(0.5, 1.0), seed=11, samples=200_000)
        digest = masked_digest(config)
        assert digest == "011da74f6d63ba9cdceae34fc7d197ddb9166739f9df1cbca03ad8f036355d24"

    def test_pinned_skewed_tally(self, tmp_path):
        # H T^k H on each of 10 qubits (k odd, seeded), then seeded CNOTs: a
        # product of (0.85, 0.15) coins, so at F = 1 the counts of 10**6 draws
        # run from 1 to 205,666 (1 to 6 digits); at F = 0 they are 863-1,089.
        rng = np.random.Generator(np.random.Philox(key=30))
        gates = []
        for q in range(10):
            k = int(rng.choice([1, 3, 5, 7]))
            gates += [Gate("H", (q,)), *[Gate("T", (q,))] * k, Gate("H", (q,))]
        for _ in range(10):
            gates.append(Gate("CNOT", tuple(map(int, rng.choice(10, size=2, replace=False)))))
        path = tmp_path / "skewed.qc"
        path.write_text(serialize_circuit(Circuit(10, gates)))
        config = ExperimentConfig(subcommand="depolarize", circuit_path=str(path),
                                  fidelity_grid=(0.0, 1.0), seed=30, samples=10**6)
        digest = masked_digest(config)
        assert digest == "43f7468183e21bf74bad7bae23a8935bc126d4f544984a6d616b41abe165ab17"

    def test_streamed_outputs_match_the_rendered_text(self, capsysbinary, monkeypatch, tmp_path):
        # The golden command through main: stdout and --out get, byte for
        # byte, the text render_json returns for the same config (the two
        # configs differ only in the echoed out_path).
        monkeypatch.chdir(ROOT)
        argv = ["depolarize", "--circuit", "circuits/ghz.qc", "--fidelity", "0.25,0.5,0.9",
                "--seed", "7", "--samples", "100000"]
        out = tmp_path / "report.json"
        for args, read in [(argv, lambda: capsysbinary.readouterr().out),
                           (argv + ["--out", str(out)], out.read_bytes)]:
            assert main(args) == 0
            config = depolab.cli._config_from_args(depolab.cli.build_parser().parse_args(args))
            assert read() == (render_json(run_experiment(config)) + "\n").encode()


@st.composite
def low_qubit_circuits(draw) -> Circuit:
    """A circuit of width 1-10 whose gates touch only its lowest qubits, so
    that with fewer than all of them every higher outcome has probability 0."""
    width = draw(st.integers(1, 10))
    active = draw(st.integers(1, width))
    return Circuit(width, tuple(draw(st.lists(gates(active), max_size=12))))


class TestDepolarizeGrid:
    """One draw set serves the whole fidelity grid; the reports are those of
    a fresh draw per fidelity."""

    @given(
        low_qubit_circuits(),
        st.lists(st.one_of(st.sampled_from([0.0, 1.0, 0.5]), fidelities), min_size=1, max_size=4),
        seeds,
        st.one_of(st.integers(1, 40), st.integers(1, 3000)),
    )
    # Fewer and more draws than outcomes at width 10, and F = 1 on a circuit
    # whose upper half of outcomes has probability 0 (the last-outcome fold).
    @example(Circuit(10, (Gate("H", (0,)), Gate("T", (0,)))), [0.0, 1.0, 0.25, 0.25], 5, 1000)
    @example(Circuit(10, (Gate("H", (3,)),)), [1.0, 0.0, 1.0], 8, 2000)
    @example(Circuit(1, ()), [1.0], 0, 1)
    @settings(max_examples=200)
    def test_matches_the_per_fidelity_route(self, circuit, grid, seed, samples):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "circuit.qc"
            path.write_text(serialize_circuit(circuit))
            config = ExperimentConfig(subcommand="depolarize", circuit_path=str(path),
                                      fidelity_grid=tuple(grid), seed=seed, samples=samples)
            report = run_experiment(config)
        expected = {**report, "results": per_fidelity_depolarize(config, circuit)}
        assert render_json(report) == render_json(expected)

    def test_tallies_render_without_outcome_string(self, monkeypatch):
        # F = 1 tallies two outcomes of GHZ and F = 0 all eight.  The labels
        # are made from each tally's arrays, never one outcome_string per
        # outcome, and they are the oracle's bit loop byte for byte.
        def refuse(index, width):
            raise AssertionError(f"outcome_string({index}, {width}) called")

        monkeypatch.setattr(depolab.circuits, "outcome_string", refuse)
        path = ROOT / "circuits" / "ghz.qc"
        config = ExperimentConfig(subcommand="depolarize", circuit_path=str(path),
                                  fidelity_grid=(1.0, 0.0, 0.5, 1.0), seed=3, samples=2000)
        report = run_experiment(config)
        expected = per_fidelity_depolarize(config, parse_circuit(path.read_text()))
        assert render_json(report) == render_json({**report, "results": expected})
        assert len(report["results"]["per_fidelity"][0]["tally"].outcomes) == 2


class TestCertify:
    def test_bell_half(self, capsys, bell_path):
        code, report = run_cli(capsys, ["certify", "--circuit", bell_path, "--fidelity", "0.5"])
        assert code == 0
        entry = report["results"]["per_fidelity"][0]
        assert entry["additive"]["theorem"] == "additive"
        assert entry["additive"]["achieved"] == pytest.approx(0.5, abs=1e-12)
        assert entry["additive"]["bound"] == 1.0
        assert entry["additive"]["passed"] is True
        assert entry["multiplicative"]["bound"] == 8.0
        assert entry["multiplicative"]["passed"] is True

    def test_high_fidelity_skips_multiplicative(self, capsys, bell_path):
        code, report = run_cli(capsys, ["certify", "--circuit", bell_path, "--fidelity", "0.9"])
        assert code == 0
        entry = report["results"]["per_fidelity"][0]
        assert "skipped" in entry["multiplicative"]
        assert entry["additive"]["passed"] is True

    def test_tiny_fidelity_passes(self, capsys):
        # The exact sum is 9e-17; forming p' rounds it to 1.39e-16, past
        # 2F = 1.2e-16 but inside the round-off allowance.
        argv = ["certify", "--circuit", str(ROOT / "circuits" / "ghz.qc"), "--fidelity", "6e-17"]
        code, report = run_cli(capsys, argv)
        assert code == 0
        assert report["results"]["per_fidelity"][0]["additive"]["passed"] is True

    def test_pinned_report(self, pinned_path):
        # Pinned at v0.10.0: both certificates, and the skipped one above 1/2.
        config = ExperimentConfig(
            subcommand="certify",
            circuit_path=pinned_path,
            fidelity_grid=(0.0, 0.03125, 0.25, 0.5, 0.9, 1.0),
        )
        digest = masked_digest(config)
        assert digest == "b3650e30358c47a4e458c09024dfd231929cc59df2524a7b3c0f48e67dd255ca"


class TestThm1:
    def test_fidelity_independent_spike(self, capsys, plus_path):
        code, report = run_cli(
            capsys, ["thm1", "--circuit", plus_path, "--fidelity", "0.1,0.5,0.9"]
        )
        assert code == 0
        results = report["results"]
        assert results["w"] == 1 and results["m"] == 1 and results["n"] == 2
        assert results["q"] == pytest.approx(0.5, abs=1e-12)
        for entry in results["per_fidelity"]:
            assert entry["p_acc_prime"] == pytest.approx(0.25, abs=1e-12)
        assert isinstance(results["mixture_checksum"], str)
        assert len(results["mixture_checksum"]) == 64

    def test_pinned_report(self, tmp_path):
        # v0.10.0 hashes the mixture's float64 bytes, not their .17g text;
        # every other byte of this report is as v0.9.0 rendered it.
        rng = np.random.Generator(np.random.Philox(key=12))
        path = tmp_path / "pinned.qc"
        path.write_text(serialize_circuit(random_circuit(4, 12, rng)))
        config = ExperimentConfig(
            subcommand="thm1", circuit_path=str(path), fidelity_grid=(0.25, 0.5, 0.9)
        )
        report = run_experiment(config)
        report["version"] = report["config"]["circuit_path"] = "pinned"
        text = render_json(report)
        assert '"mixture_checksum": "3e2fc23b76e1f30e940edea1c5f8ac831fac60db356873e169a4d034681cb512"' in text
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "8076ac1a5f782254648efef4489e0bbb9e4b9b0d89a887ef0d7671c1d599c49a"

    def test_checksum_null_past_the_branch_cap(self, capsys, tmp_path):
        # 21 steps is 2**21 branches, past BRANCH_CAP: the spikes still come out.
        path = tmp_path / "long.qc"
        path.write_text("qubits 1\n" + "H 0\n" * 21)
        code, report = run_cli(capsys, ["thm1", "--circuit", str(path)])
        assert code == 0
        assert report["results"]["m"] == 21
        assert report["results"]["mixture_checksum"] is None

    def test_v_simulated_once(self, capsys, monkeypatch, bell_path):
        # q = |<0|V|0>|**2 serves every fidelity of the grid.
        calls = []
        real_run = depolab.statevector.run
        monkeypatch.setattr(depolab.statevector, "run", lambda c: calls.append(c) or real_run(c))
        code, _ = run_cli(capsys, ["thm1", "--circuit", bell_path, "--fidelity", "0.1,0.5,0.9"])
        assert code == 0
        assert len(calls) == 1


class TestMixtureChecksum:
    # (w, gates): (5, 12) has 2**17 probabilities, m = 0 has no last step,
    # m = 1 no doubling, and a (17, 2) branch row is past 2**_BLOCK_BITS.
    @pytest.mark.parametrize("key", range(4))
    @pytest.mark.parametrize("shape", [(1, 1), (2, 5), (3, 8), (5, 12), (3, 0), (2, 1), (17, 2)])
    def test_matches_naive_oracle(self, key, shape):
        rng = np.random.Generator(np.random.Philox(key=key))
        rc = RandomizedCircuit(random_circuit(*shape, rng))
        assert mixture_checksum(rc) == brute_checksum(mixture_distribution(rc).probs)

    def test_peak_memory_is_half_the_branches(self):
        # The held 2**(w+m-1) amplitudes, plus the block buffer, the half
        # block of workspace its probabilities are squared into, and
        # numpy's fixed loop buffers (2 * np.getbufsize() complex items).
        w, m = 6, 14
        rc = RandomizedCircuit(random_circuit(w, m, np.random.Generator(np.random.Philox(key=3))))
        tracemalloc.start()
        try:
            mixture_checksum(rc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (1 << (w + m - 1)) * 16 + (24 << _BLOCK_BITS) + 32 * np.getbufsize() + 16384

    def test_sum_is_checked_on_both_routes(self, monkeypatch):
        # A kernel that grows every amplitude by 1e-6 breaks the unit sum
        # far past EXACT_TOL: the stream refuses it as Distribution does.
        real = depolab.statevector._apply_gate_inplace

        def drifting(amps, gate, scratch, flip):
            real(amps, gate, scratch, flip)
            amps *= 1 + 1e-6

        monkeypatch.setattr(depolab.statevector, "_apply_gate_inplace", drifting)
        rc = RandomizedCircuit(random_circuit(3, 6, np.random.Generator(np.random.Philox(key=1))))
        with pytest.raises(ValueError, match="probability sum"):
            mixture_distribution(rc)
        with pytest.raises(ValueError, match="probability sum"):
            mixture_checksum(rc)


class TestSbpGap:
    def test_reference_parameters_pass(self, capsys):
        code, report = run_cli(capsys, ["sbp-gap"])
        assert code == 0
        entry = report["results"]["per_fidelity"][0]
        assert entry["yes_lower"] == pytest.approx(49 / 4096, abs=1e-12)
        assert entry["no_upper"] == pytest.approx(51 / 65536, abs=1e-12)
        assert entry["sbp_ok"] is True

    def test_collapsed_gap_exits_one(self, capsys):
        code, report = run_cli(
            capsys,
            ["sbp-gap", "--r", "1", "--w", "1", "--m", "1", "--epsilon", "0.9"],
        )
        assert code == 1
        assert report["passed"] is False
        assert report["results"]["per_fidelity"][0]["sbp_ok"] is False

    @pytest.mark.parametrize("flag", ["--w", "--m", "--r"])
    def test_huge_parameter_reports(self, capsys, flag):
        _, base = run_cli(capsys, ["sbp-gap"])
        code, report = run_cli(capsys, ["sbp-gap", flag, "2000"])
        assert code == 0
        entry = report["results"]["per_fidelity"][0]
        assert entry[flag[2:]] == 2000
        if flag == "--m":
            # Both sides carry 2**-m, which cancels in the ratio.
            assert entry["yes_lower"] == entry["no_upper"] == 0.0
            assert entry["ratio"] == base["results"]["per_fidelity"][0]["ratio"]

    def test_pinned_report(self):
        # Pinned at v0.10.0, a grid whose smallest fidelity fails sbp_ok.
        config = ExperimentConfig(
            subcommand="sbp-gap", fidelity_grid=(0.001, 0.1, 0.5, 1.0), r=5, w=8, m=6, epsilon=0.25
        )
        digest = masked_digest(config)
        assert digest == "46646c9f33f09bc0652397167ef3a43064616d0a3d8b7e3cdc064b76072f7096"

    @pytest.mark.parametrize("argv", [["--r", "600", "--w", "2000"], ["--fidelity", "1e-320"]])
    def test_out_of_float_range_exits_two(self, capsys, argv):
        assert main(["sbp-gap", *argv]) == 2
        assert "float range" in capsys.readouterr().err


class TestDiscriminate:
    def test_circuit_source(self, capsys, plus_path):
        code, report = run_cli(
            capsys,
            ["discriminate", "--circuit", plus_path, "--fidelity", "0.5,0.0625", "--k", "2"],
        )
        assert code == 0
        results = report["results"]
        assert results["source"] == "circuit"
        assert results["k"] == 2
        for chain in results["chains"]:
            assert len(chain["links"]) == 5
            assert all(link["passed"] for link in chain["links"])

    def test_random_source(self, capsys):
        code, report = run_cli(
            capsys, ["discriminate", "--w", "1", "--seed", "5", "--k", "2"]
        )
        assert code == 0
        assert report["results"]["source"] == "random"
        assert report["results"]["width"] == 1

    @pytest.mark.parametrize(
        "source, digest",
        [
            ("circuit", "602c4c0023494f3fac6c5a1b29aed94fb703f68c363638cae988ff9c9691ee87"),
            ("random", "0c19cfc9a14dda60c0d79edeaeb03435b628c91bf189bfdf5ed2e73c8384d5dd"),
        ],
        ids=["circuit", "random"],
    )
    def test_pinned_report(self, pinned_path, source, digest):
        # Pinned at v0.10.0: k = 2 copies of the circuit's pure state, or of
        # a seeded full-rank 3-qubit density matrix.
        config = ExperimentConfig(
            subcommand="discriminate",
            circuit_path=pinned_path if source == "circuit" else None,
            fidelity_grid=(0.0625, 0.5, 1.0),
            seed=5,
            k=2,
            w=3,
        )
        assert masked_digest(config) == digest


class TestErrorPaths:
    def test_missing_file_exits_three_no_partial_report(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["simulate", "--circuit", str(tmp_path / "nope.qc"), "--out", str(out)]
        )
        assert code == 3
        assert not out.exists()
        assert "i/o error" in capsys.readouterr().err

    def test_parse_error_exits_three_with_line(self, capsys, tmp_path):
        path = tmp_path / "broken.qc"
        path.write_text("qubits 2\nCZ 0 1\n")
        assert main(["simulate", "--circuit", str(path)]) == 3
        assert "line 2" in capsys.readouterr().err

    def test_non_utf8_file_exits_three_with_line(self, capsys, tmp_path):
        path = tmp_path / "binary.qc"
        path.write_bytes(b"qubits 1\nH 0\n\xff\n")
        assert main(["simulate", "--circuit", str(path)]) == 3
        err = capsys.readouterr().err
        assert "circuit file error: line 3: not UTF-8" in err

    def test_render_error_exits_two(self, capsys, monkeypatch, bell_path):
        report = {"version": __version__, "passed": True, "results": {"x": math.inf}}
        monkeypatch.setattr(depolab.cli, "run_experiment", lambda config: report)
        assert main(["simulate", "--circuit", bell_path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error" in captured.err and "inf" in captured.err

    def test_render_error_leaves_out_file_alone(self, capsys, monkeypatch, tmp_path, bell_path):
        # The report is checked whole before --out is opened: opening it
        # with "w" would truncate an old report or create an empty file.
        report = {"version": __version__, "passed": True, "results": {"p": [0.5, math.nan]}}
        monkeypatch.setattr(depolab.cli, "run_experiment", lambda config: report)
        old, missing = tmp_path / "old.json", tmp_path / "missing.json"
        old.write_bytes(b'{"kept": 1}\n')
        for out in (old, missing):
            assert main(["simulate", "--circuit", bell_path, "--out", str(out)]) == 2
            assert "reports must not contain nan" in capsys.readouterr().err
        assert old.read_bytes() == b'{"kept": 1}\n'
        assert not missing.exists()

    def test_bad_key_leaves_out_file_alone(self, monkeypatch, tmp_path, bell_path):
        # A non-str key is a bug in the report, not a usage error: it
        # raises, and like a non-finite float it is found before --out is
        # opened, although the floats before it would already render.
        report = {"version": __version__, "passed": True,
                  "results": {"p": np.array([0.5, 0.5]), "tally": {"0": 3, 1: 2}}}
        monkeypatch.setattr(depolab.cli, "run_experiment", lambda config: report)
        old, missing = tmp_path / "old.json", tmp_path / "missing.json"
        old.write_bytes(b'{"kept": 1}\n')
        for out in (old, missing):
            with pytest.raises(TypeError, match="report keys must be strings, got 1"):
                main(["simulate", "--circuit", bell_path, "--out", str(out)])
        assert old.read_bytes() == b'{"kept": 1}\n'
        assert not missing.exists()

    def test_bad_flag_exits_two(self, bell_path):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--circuit", bell_path, "--fidelity", "abc"])
        assert exc.value.code == 2

    def test_out_of_range_fidelity_exits_two(self, capsys, bell_path):
        assert main(["certify", "--circuit", bell_path, "--fidelity", "1.5"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_bad_seed_exits_two(self, capsys, bell_path):
        assert main(["simulate", "--circuit", bell_path, "--seed", "-1"]) == 2

    def test_cap_exits_four(self, capsys, tmp_path):
        path = tmp_path / "wide.qc"
        path.write_text("qubits 25\n")
        assert main(["simulate", "--circuit", str(path)]) == 4
        assert "cap exceeded" in capsys.readouterr().err

    def test_tensor_power_cap_exits_four(self, capsys):
        assert main(["discriminate", "--w", "5", "--k", "5"]) == 4
        assert "2**28 bytes" in capsys.readouterr().err

    def test_sample_cap_exits_four(self, capsys, monkeypatch, bell_path):
        # The count is refused before the circuit is simulated.
        def simulated(_circuit):
            raise AssertionError("the circuit was simulated")

        monkeypatch.setattr(depolab.cli, "output_distribution", simulated)
        for samples in (SAMPLE_CAP + 1, 10**10):
            argv = ["depolarize", "--circuit", bell_path, "--samples", str(samples)]
            assert main(argv) == 4
            assert f"{8 * samples} bytes" in capsys.readouterr().err

    def test_width_refused_before_the_draws(self, capsys, monkeypatch, tmp_path):
        # 10**7 draws are 80 MB: a circuit past WIDTH_CAP exits 4 before them.
        # Past both caps, the message names the width cap.
        path = tmp_path / "wide.qc"
        path.write_text("qubits 30\nH 0\n")

        def drawn(*args):
            raise AssertionError("the draws were made before the width check")

        monkeypatch.setattr(depolab.cli, "sorted_draws", drawn)
        for samples in (10**7, SAMPLE_CAP + 1):
            argv = ["depolarize", "--circuit", str(path), "--samples", str(samples)]
            assert main(argv) == 4
            assert "circuit width 30 exceeds the cap" in capsys.readouterr().err

    def test_density_width_cap_exits_four(self, capsys):
        # A 12-qubit density matrix would need 2**28 bytes before any check.
        assert main(["discriminate", "--w", "12"]) == 4
        assert "2**28 bytes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--w", "11", "--k", "3"], "2**36 bytes"),
            # Past the density cap as well: the k-copy cap is named first.
            (["--w", "12", "--k", "2"], "2**27 bytes"),
            (["--circuit", "WIDE", "--k", "1"], "2**26 bytes"),
        ],
    )
    def test_power_cap_refused_before_the_state(self, capsys, monkeypatch, tmp_path, argv, message):
        # 23 qubits, 8 gates: simulating it would take seconds before the cap.
        path = tmp_path / "wide.qc"
        path.write_text("qubits 23\n" + "".join(f"H {q}\n" for q in range(8)))

        def refuse(*args):
            raise AssertionError("the state was built before the cap check")

        monkeypatch.setattr(depolab.cli, "run", refuse)
        monkeypatch.setattr(depolab.cli, "random_density_matrix", refuse)
        argv = [str(path) if a == "WIDE" else a for a in argv]
        assert main(["discriminate", *argv]) == 4
        assert message in capsys.readouterr().err

    def test_circuit_state_skips_the_density_cap(self, capsys, tmp_path):
        # A circuit's pure state is never densified: 12 qubits run, and only
        # POWER_CAP stops 2 copies (24 qubits, 2**27 bytes of eigenvalues).
        path = tmp_path / "twelve.qc"
        path.write_text("qubits 12\nH 0\n")
        assert main(["discriminate", "--circuit", str(path)]) == 0
        assert capsys.readouterr().err.startswith("# wall time")
        assert main(["discriminate", "--circuit", str(path), "--k", "2"]) == 4
        assert "2**27 bytes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, value, expected",
        [
            (argv, value, expected)
            for argv, big in (
                (["discriminate", "--w"], 4),
                (["discriminate", "--k"], 4),
                (["sbp-gap", "--r"], 0),
                (["sbp-gap", "--w"], 0),
                (["sbp-gap", "--m"], 0),
            )
            for value, expected in (("-1", 2), ("0", 2), ("40", big), ("2000", big))
        ],
    )
    def test_integer_flags_classified(self, capsys, argv, value, expected):
        try:
            code = main([*argv, value])
        except SystemExit as exc:  # argparse rejects the value
            code = exc.code
        err = capsys.readouterr().err
        assert code == expected
        if code == 2:
            assert f"argument {argv[1]}: value must be a positive integer, got {value}" in err
        if code == 4:
            assert "bytes" in err

    def test_missing_circuit_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])
        assert exc.value.code == 2


# check_cap's one message, whichever demand it refuses.
CAP_MESSAGE = re.compile(
    r"(?P<demand>.+) (?P<size>\d+) exceeds the cap of (?P<cap>\d+) (?P<unit>qubits|draws); "
    r"it needs (?P<need>2\*\*\d+|\d+) bytes"
)


def unreached(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} ran before the cap refused the request")

    return fail


class TestCapRefusal:
    @pytest.mark.parametrize(
        "make, expected",
        [
            (lambda: check_width(25), ("circuit width", 25, 24, "qubits", "2**29")),
            (lambda: sorted_draws(0, SAMPLE_CAP + 1),
             ("draw count", SAMPLE_CAP + 1, SAMPLE_CAP, "draws", 8 * (SAMPLE_CAP + 1))),
            (lambda: check_copies(5, 5), ("5-copy width", 25, 22, "qubits", "2**28")),
            (lambda: random_density_matrix(12, 0),
             ("12-qubit density matrix's entry width", 24, 22, "qubits", "2**28")),
            (lambda: mixture_checksum(RandomizedCircuit(Circuit(1, (Gate("H", (0,)),) * 21))),
             ("ancilla width", 21, 20, "qubits", "2**26")),
            (lambda: mixture_checksum(RandomizedCircuit(Circuit(5, (Gate("H", (0,)),) * 20))),
             ("total width", 25, 24, "qubits", "2**29")),
        ],
        ids=["width", "draws", "copies", "density", "branches", "total-width"],
    )
    def test_one_message_format(self, make, expected):
        with pytest.raises(CapExceeded) as exc:
            make()
        match = CAP_MESSAGE.fullmatch(str(exc.value))
        assert match is not None, str(exc.value)
        assert match.groups() == tuple(map(str, expected))

    @pytest.mark.parametrize(
        "argv, demand",
        [
            *(([name, "--circuit", "WIDE"], "circuit width 25")
              for name in ("simulate", "depolarize", "certify", "thm1", "discriminate")),
            (["depolarize", "--circuit", "BELL", "--samples", str(SAMPLE_CAP + 1)],
             f"draw count {SAMPLE_CAP + 1}"),
            (["discriminate", "--w", "12"], "12-qubit density matrix's entry width 24"),
            (["discriminate", "--w", "5", "--k", "5"], "5-copy width 25"),
        ],
        ids=["simulate", "depolarize", "certify", "thm1", "discriminate",
             "samples", "density", "copies"],
    )
    def test_refused_before_any_work(self, capsys, monkeypatch, tmp_path, bell_path, argv, demand):
        wide = tmp_path / "wide.qc"
        wide.write_text("qubits 25\nH 0\n")
        for name in ("run", "zero_overlap", "output_distribution"):
            monkeypatch.setattr(depolab.cli, name, unreached(name))
        # sorted_draws and random_density_matrix hold the draw and density
        # checks, so they may be entered; each starts its work with a Philox
        # stream, which no refused request may reach.
        monkeypatch.setattr(np.random, "Philox", unreached("a Philox stream"))
        paths = {"WIDE": str(wide), "BELL": bell_path}
        assert main([paths.get(a, a) for a in argv]) == 4
        prefix, _, message = capsys.readouterr().err.rstrip("\n").partition("cap exceeded: ")
        assert prefix == "depolab: "
        match = CAP_MESSAGE.fullmatch(message)
        assert match is not None, message
        assert f"{match['demand']} {match['size']}" == demand


@pytest.fixture(scope="module")
def long_path(tmp_path_factory):
    # 10**5 gates on one qubit: round-off moves the norm by about 1.8e-12,
    # past EXACT_TOL but far inside run's bound of 6 * eps per gate.
    circuit = random_circuit(1, 10**5, np.random.Generator(np.random.Philox(key=0)))
    path = tmp_path_factory.mktemp("long") / "long.qc"
    path.write_text(serialize_circuit(circuit))
    return str(path)


class TestRoundOffDrift:
    @pytest.mark.parametrize("subcommand", ["simulate", "certify", "discriminate"])
    def test_long_circuit_reports(self, capsys, long_path, subcommand):
        code, report = run_cli(capsys, [subcommand, "--circuit", long_path, "--fidelity", "0.5,1"])
        assert code == 0
        assert report["results"]["width"] == 1


class TestDefaults:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--circuit", "c.qc"],
            ["depolarize", "--circuit", "c.qc"],
            ["certify", "--circuit", "c.qc"],
            ["thm1", "--circuit", "c.qc"],
            ["sbp-gap"],
            ["discriminate"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_parser_defaults_are_the_config_defaults(self, argv):
        # ExperimentConfig is the one source of defaults; discriminate's
        # random-state width (2) is the parser's own.
        config = depolab.cli._config_from_args(depolab.cli.build_parser().parse_args(argv))
        expected = ExperimentConfig(subcommand=argv[0], circuit_path=(argv[2:] or [None])[0])
        if argv[0] == "discriminate":
            expected = dataclasses.replace(expected, w=2)
        assert config == expected


class TestImports:
    def test_private_names_from_other_modules(self):
        # The walk perfbench/traced_main.py wraps: every package function cli
        # binds from another module.  None may be private (ROADMAP item 11):
        # every check and stream cli needs has a public name.
        private = {
            name
            for name, obj in vars(depolab.cli).items()
            if inspect.isfunction(obj) and name.startswith("_")
            and obj.__module__.startswith("depolab.") and obj.__module__ != depolab.cli.__name__
        }
        assert private == set()


class TestReproducibility:
    def test_same_config_same_bytes(self, capsys, bell_path, tmp_path):
        out = tmp_path / "report.json"
        argv = [
            "certify", "--circuit", bell_path, "--fidelity", "0,0.3,0.5,0.7,1",
            "--seed", "42", "--out", str(out),
        ]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first
        capsys.readouterr()

    def test_run_experiment_is_pure(self, bell_path):
        config = ExperimentConfig(
            subcommand="certify", circuit_path=bell_path, fidelity_grid=(0.5,)
        )
        assert run_experiment(config) == run_experiment(config)


class TestEndToEnd:
    def test_module_invocation(self, tmp_path):
        path = tmp_path / "bell.qc"
        path.write_text(BELL)
        proc = subprocess.run(
            [sys.executable, "-m", "depolab", "certify", "--circuit", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["passed"] is True
        assert "wall time" in proc.stderr

    def test_wall_time_covers_rendering(self, capsys, monkeypatch, bell_path):
        render = depolab.cli.render_json

        def slow_render(report, out=None):
            time.sleep(0.2)
            return render(report, out)

        monkeypatch.setattr(depolab.cli, "render_json", slow_render)
        assert main(["simulate", "--circuit", bell_path]) == 0
        wall = capsys.readouterr().err.split("# wall time: ")[1].split()[0]
        assert float(wall) >= 0.2

    def test_perfbench_tracing_seam(self, tmp_path):
        # perfbench/traced_main.py wraps the functions cli imported, among
        # them render_json, which main must call by its module-level name;
        # a report rendered past the seam would leave the counts at 0.
        trace, out = tmp_path / "trace.json", tmp_path / "report.json"
        argv = ["depolarize", "--circuit", str(ROOT / "circuits" / "bell.qc"),
                "--fidelity", "0.5", "--samples", "100", "--out", str(out)]
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "traced_main.py"), str(trace), "--", *argv],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(trace.read_text(encoding="utf-8"))["metrics"]
        # Four probabilities, the fidelity, empirical_tv and the config's
        # fidelity_grid and epsilon; the tallies are labelled from their
        # arrays, with no outcome_string call.
        assert metrics["reports.floats_rendered"] == 8
        assert metrics["circuits.outcome_string_calls"] == 0
        traced = out.read_bytes()
        with redirect_stderr(io.StringIO()):
            assert main(argv) == 0
        assert out.read_bytes() == traced


# A fresh interpreter imports depolab and prints what it left in the
# environment and, where ctypes finds the symbol in the OpenBLAS that numpy
# bundles, the live width of its thread pool (null otherwise).
BLAS_CHILD = """
import ctypes, json, os
from pathlib import Path
import depolab
import numpy as np

def pool_width():
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None

print(json.dumps({"env": os.environ.get("OPENBLAS_NUM_THREADS"), "threads": pool_width()}))
"""


def child_env(blas_threads):
    """This environment with src on the path and OPENBLAS_NUM_THREADS set
    to blas_threads, or removed when it is None."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return env


def blas_after_import(blas_threads):
    proc = subprocess.run([sys.executable, "-c", BLAS_CHILD], env=child_env(blas_threads),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestBlasThreads:
    def test_import_pins_one_thread(self):
        seen = blas_after_import(None)
        assert seen["env"] == "1"
        if seen["threads"] is None:
            pytest.skip("OpenBLAS's get_num_threads is not reachable by ctypes here")
        assert seen["threads"] == 1

    def test_user_setting_wins(self):
        assert blas_after_import("2")["env"] == "2"

    def test_report_bytes_do_not_depend_on_the_default_pool(self):
        # A 512x512 density matrix: its eigensolve rounds differently on a
        # multi-threaded pool, so without the pin a host with two or more
        # cores printed other bytes here than with one thread.
        argv = [sys.executable, "-m", "depolab", "discriminate", "--w", "9", "--k", "2",
                "--fidelity", "0.25,0.5,0.9", "--seed", "1"]
        reports = [
            subprocess.run(argv, env=child_env(threads), capture_output=True, timeout=120)
            for threads in (None, "1")
        ]
        assert [proc.returncode for proc in reports] == [0, 0]
        assert reports[0].stdout == reports[1].stdout


# Whole command lines: a subcommand (or an unknown one), some of the flags
# it takes (--circuit always where it is required), maybe one flag from
# anywhere, each value drawn from a fixed pool of good and bad values.  The
# pools stay cheap: no --w 11 (a 4 s density matrix) and no sample count
# above 10**4 unless it is past SAMPLE_CAP.
FUZZ_INTS = ["-1", "0", "1", "2", "3", "12", "40", "2000", "2.5", "x", ""]
FUZZ_VALUES = {
    "--fidelity": ["nan", "inf", "-0", "1e-320", "", "0.5,", "2", "0.5", "0,0.25,1"],
    "--seed": ["-1", str(2**64), "x", "0", "7"],
    "--samples": FUZZ_INTS + [str(SAMPLE_CAP + 1)],
    "--k": FUZZ_INTS,
    "--r": FUZZ_INTS,
    "--w": FUZZ_INTS,
    "--m": FUZZ_INTS,
    "--epsilon": ["0.5", "0", "1", "nan", "x"],
}
_COMMON = ["--fidelity", "--seed", "--out"]
FUZZ_FLAGS = {
    "simulate": _COMMON,
    "depolarize": _COMMON + ["--samples"],
    "certify": _COMMON,
    "thm1": _COMMON,
    "sbp-gap": _COMMON + ["--r", "--w", "--m", "--epsilon"],
    "discriminate": _COMMON + ["--circuit", "--k", "--w"],
    "bogus": _COMMON,
}


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    files = {
        "good.qc": BELL.encode(),
        "unknown.qc": b"qubits 2\nCZ 0 1\n",
        "wide.qc": b"qubits 30\nH 0\n",
        "binary.qc": b"qubits 1\nH 0\n\xff\n",
    }
    for name, data in files.items():
        (root / name).write_bytes(data)
    circuits = [str(root / name) for name in files] + [str(root), str(root / "missing.qc")]
    outs = [str(root / "report.json"), str(root), str(root / "missing" / "report.json")]
    return {**FUZZ_VALUES, "--circuit": circuits, "--out": outs}


class TestCommandLineFuzz:
    @given(data=st.data())
    @settings(max_examples=300)
    def test_every_command_line_exits_zero_to_four(self, fuzz_paths, data):
        subcommand = data.draw(st.sampled_from(sorted(FUZZ_FLAGS)))
        flags = [] if subcommand in ("sbp-gap", "discriminate", "bogus") else ["--circuit"]
        flags += data.draw(st.lists(st.sampled_from(FUZZ_FLAGS[subcommand]), unique=True))
        flags += data.draw(st.lists(st.sampled_from(sorted(fuzz_paths)), max_size=1))
        argv = [subcommand]
        for flag in flags:
            argv += [flag, data.draw(st.sampled_from(fuzz_paths[flag]))]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
        assert code in range(5), (argv, code, err.getvalue())
        if code >= 2 or "--out" in argv:
            assert out.getvalue() == "", argv
        else:
            assert json.loads(out.getvalue())["passed"] is (code == 0)

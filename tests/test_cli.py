import io
import json
import math
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import depolab.cli
import depolab.statevector
from depolab import (
    __version__,
    build_randomized_circuit,
    mixture_distribution,
    random_circuit,
    serialize_circuit,
)
from depolab.cli import ExperimentConfig, _mixture_checksum, main, run_experiment
from depolab.depol import SAMPLE_CAP
from oracles import brute_checksum

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

    def test_v_simulated_once(self, capsys, monkeypatch, bell_path):
        # q = |<0|V|0>|**2 serves every fidelity of the grid.
        calls = []
        real_run = depolab.statevector.run
        monkeypatch.setattr(depolab.statevector, "run", lambda c: calls.append(c) or real_run(c))
        code, _ = run_cli(capsys, ["thm1", "--circuit", bell_path, "--fidelity", "0.1,0.5,0.9"])
        assert code == 0
        assert len(calls) == 1


class TestMixtureChecksum:
    # (w, gates): the last has 2**17 probabilities, two formatter chunks.
    @pytest.mark.parametrize("key", range(4))
    @pytest.mark.parametrize("shape", [(1, 1), (2, 5), (3, 8), (5, 12)])
    def test_matches_naive_oracle(self, key, shape):
        rng = np.random.Generator(np.random.Philox(key=key))
        rc = build_randomized_circuit(random_circuit(*shape, rng))
        assert _mixture_checksum(rc) == brute_checksum(mixture_distribution(rc).probs)


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

    def test_sample_cap_exits_four(self, capsys, bell_path):
        argv = ["depolarize", "--circuit", bell_path, "--samples", "10000000000"]
        assert main(argv) == 4
        assert "160000000000 bytes" in capsys.readouterr().err

    def test_density_width_cap_exits_four(self, capsys):
        # A 12-qubit density matrix would need 2**28 bytes before any check.
        assert main(["discriminate", "--w", "12"]) == 4
        assert "2**28 bytes" in capsys.readouterr().err

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

        def slow_render(report):
            time.sleep(0.2)
            return render(report)

        monkeypatch.setattr(depolab.cli, "render_json", slow_render)
        assert main(["simulate", "--circuit", bell_path]) == 0
        wall = capsys.readouterr().err.split("# wall time: ")[1].split()[0]
        assert float(wall) >= 0.2


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

"""Acceptance suite.

Eight criteria, one test each, every one printing a PASS line when it
holds (run with `pytest tests/test_acceptance.py -v -s` to see the lines).
Corpora are frozen by Philox seeds, so the suite checks the same inputs on
every platform and run.
"""

import time
from functools import lru_cache

import numpy as np
import pytest

from depolab import (
    RandomizedCircuit,
    __version__,
    additive_certificate,
    bound_chain,
    depolarize,
    depolarized_acceptance,
    mixture_distribution,
    multiplicative_certificate,
    output_distribution,
    random_circuit,
    random_density_matrix,
    run,
    sbp_thresholds,
    serialize_circuit,
    zero_overlap,
)
from depolab.cli import ExperimentConfig, run_experiment
from depolab.reports import render_json
from oracles import (
    bloch_grid_best,
    branch_bits,
    brute_amplitudes,
    brute_distribution,
    depolarize_density,
    maximally_mixed,
    random_density,
    realized_circuit,
)

CORPUS_SEED = 20260818


def _passed(label):
    print(f"\nACCEPTANCE {label}: PASS")


@lru_cache(maxsize=None)
def sampling_corpus():
    """200 circuits, widths cycling 2..10, gate counts 1..30."""
    rng = np.random.Generator(np.random.Philox(key=CORPUS_SEED))
    circuits = [
        random_circuit(2 + (i % 9), 1 + int(rng.integers(30)), rng) for i in range(200)
    ]
    return [(c, output_distribution(c)) for c in circuits]


def test_1_additive_certificates_on_random_circuits():
    """200 random circuits x F in {0, 0.1, ..., 1}: the additive
    certificate passes and its two routes agree to 1e-12, within a minute."""
    started = time.perf_counter()
    grid = [round(0.1 * i, 1) for i in range(11)]
    for circuit, dist in sampling_corpus():
        for f in grid:
            report = additive_certificate(dist, f)
            assert report.passed, (circuit, f)
            assert abs(report.achieved - report.scaled_ideal_l1) <= 1e-12, (circuit, f)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _passed("1 additive certificate suite")


def test_2_multiplicative_certificates_strict_per_outcome():
    """Same corpus, F in (0, 1/2]: the per-outcome relative-error bound
    holds strictly at every outcome, within a minute."""
    started = time.perf_counter()
    grid = [round(0.05 * i, 2) for i in range(1, 11)]
    for circuit, dist in sampling_corpus():
        uniform = 1.0 / (1 << dist.width)
        for f in grid:
            report = multiplicative_certificate(dist, f)
            assert report.passed, (circuit, f)
            noisy = depolarize(dist, f).probs
            eps = f * 2 ** (dist.width + 2)
            assert np.all(np.abs(noisy - uniform) < eps * noisy), (circuit, f)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _passed("2 multiplicative certificate suite")


def test_3_mixture_and_acceptance_links():
    """50 random primaries (w <= 5, m <= 10): the mixture's all-zeros entry
    is q/2**m, and the zero-overlap shortcut for the depolarized spike
    agrees with the full mixture route, both to 1e-12."""
    rng = np.random.Generator(np.random.Philox(key=CORPUS_SEED + 1))
    grid = [round(0.1 * i, 1) for i in range(11)]
    for i in range(50):
        circuit = random_circuit(1 + (i % 5), 1 + int(rng.integers(10)), rng)
        rc = RandomizedCircuit(circuit)
        mix = mixture_distribution(rc)
        q = abs(zero_overlap(circuit)) ** 2
        m, n = rc.ancilla_width, rc.total_width
        assert abs(mix.probs[0] - q / (1 << m)) <= 1e-12, circuit
        for f in grid:
            via_mixture = f * mix.probs[0] + (1 - f) / (1 << n)
            assert abs(depolarized_acceptance(rc, q, f) - via_mixture) <= 1e-12, (circuit, f)
    _passed("3 mixture / acceptance spike links")


def test_4_monte_carlo_branches_match_mixture():
    """One randomized circuit (w=2, m=6), 1e5 branch draws: at least 99%
    of the 256 mixture entries sit inside three-sigma binomial envelopes."""
    rng = np.random.Generator(np.random.Philox(key=CORPUS_SEED + 2))
    circuit = random_circuit(2, 6, rng)
    rc = RandomizedCircuit(circuit)
    mix = mixture_distribution(rc).probs
    draws = 100_000

    conditional_cdf = {}
    tally = np.zeros(256, dtype=np.int64)
    y_uniform = np.random.Generator(np.random.Philox(key=CORPUS_SEED + 3)).random(draws)
    for i in range(draws):
        bits = branch_bits(rc, seed=i)
        if bits not in conditional_cdf:
            alpha = sum(b << j for j, b in enumerate(bits))
            realized = realized_circuit(rc, bits)
            slice_probs = output_distribution(realized).probs[4 * alpha : 4 * alpha + 4]
            conditional_cdf[bits] = (alpha, np.cumsum(slice_probs))
        alpha, cdf = conditional_cdf[bits]
        y = min(int(np.searchsorted(cdf, y_uniform[i], side="right")), 3)
        tally[(alpha << 2) | y] += 1

    freq = tally / draws
    sigma = np.sqrt(mix * (1.0 - mix) / draws)
    inside = np.abs(freq - mix) <= 3.0 * sigma
    assert inside.mean() >= 0.99, f"only {inside.sum()}/256 entries inside"
    _passed("4 Monte Carlo branch sampling vs mixture")


def test_5_threshold_reference_values_and_monotonicity():
    """The (r=3, w=10, m=4, F=1/2, eps=1/2) thresholds match the known
    values to 1e-6 and the yes/no ratio never decreases in r or w."""
    report = sbp_thresholds(3, 10, 4, 0.5, 0.5)
    assert abs(report.yes_lower - 49 / 4096) <= 1e-6
    assert abs(report.no_upper - 51 / 65536) <= 1e-6
    assert abs(report.ratio - 784 / 51) <= 1e-6
    assert report.sbp_ok

    for f, eps in ((0.5, 0.5), (1.0, 0.1), (0.25, 0.0)):
        ratios = [sbp_thresholds(r, 10, 4, f, eps).ratio for r in range(1, 13)]
        assert all(a <= b for a, b in zip(ratios, ratios[1:])), (f, eps, "r sweep")
        ratios = [sbp_thresholds(3, w, 4, f, eps).ratio for w in range(1, 17)]
        assert all(a <= b for a, b in zip(ratios, ratios[1:])), (f, eps, "w sweep")
    _passed("5 threshold reference point and monotonicity")


def test_6_discrimination_chains_and_grid_optimality():
    """100 random densities (widths 1..3, pure and mixed) x F in
    {2**-1, 2**-4, 2**-8} x k in {1,2,3}: every chain link holds, the
    noise-scaling equality to 1e-10, and no Bloch-grid measurement beats
    the single-copy optimum by more than 1e-9.  Under two minutes."""
    started = time.perf_counter()
    fidelity_grid = (0.5, 0.0625, 0.00390625)
    for i in range(100):
        width = 1 + (i % 3)
        rank = 1 if i % 2 else None
        rho = random_density_matrix(width, seed=CORPUS_SEED + 10 + i, rank=rank)
        mat = random_density(width, CORPUS_SEED + 10 + i, rank)
        for f in fidelity_grid:
            for k in (1, 2, 3):
                report = bound_chain(rho, f, k)
                assert report.all_passed, (i, f, k)
                links = {link.name: link for link in report.links}
                assert abs(links["noise_scaling"].lhs - links["noise_scaling"].rhs) <= 1e-10
            if width == 1:
                rho1 = depolarize_density(mat, f)
                best = bloch_grid_best(maximally_mixed(1), rho1)
                single = bound_chain(rho, f, 1).p_correct
                assert best <= single + 1e-9, (i, f)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _passed("6 discrimination bound chains and grid optimality")


def test_7_engine_matches_dense_oracle():
    """100 random circuits (n <= 6): kernel amplitudes and probabilities
    match the explicit Kronecker-product unitary to 1e-10."""
    rng = np.random.Generator(np.random.Philox(key=CORPUS_SEED + 4))
    for i in range(100):
        circuit = random_circuit(1 + (i % 6), 1 + int(rng.integers(25)), rng)
        state = run(circuit)
        assert np.max(np.abs(state.amps - brute_amplitudes(circuit))) <= 1e-10, circuit
        dist = output_distribution(circuit)
        assert np.max(np.abs(dist.probs - brute_distribution(circuit))) <= 1e-10, circuit
    _passed("7 kernel vs dense-unitary oracle")


def test_8_reports_are_byte_identical(tmp_path):
    """Two runs of the same experiment config render byte-identical
    reports, version echo included."""
    bell = tmp_path / "bell.qc"
    rng = np.random.Generator(np.random.Philox(key=CORPUS_SEED + 5))
    bell.write_text(serialize_circuit(random_circuit(3, 8, rng)))
    configs = [
        ExperimentConfig(
            subcommand="certify",
            circuit_path=str(bell),
            fidelity_grid=(0.0, 0.3, 0.5, 0.7, 1.0),
            seed=42,
        ),
        ExperimentConfig(
            subcommand="depolarize", circuit_path=str(bell), seed=7, samples=5000
        ),
        ExperimentConfig(subcommand="thm1", circuit_path=str(bell)),
        ExperimentConfig(subcommand="sbp-gap", fidelity_grid=(0.5, 1.0)),
        ExperimentConfig(subcommand="discriminate", w=2, k=2, fidelity_grid=(0.5, 0.0625)),
    ]
    for config in configs:
        first = render_json(run_experiment(config)).encode()
        second = render_json(run_experiment(config)).encode()
        assert first == second, config.subcommand
        report = run_experiment(config)
        assert report["version"] == __version__
        assert report["config"]["seed"] == config.seed
    _passed("8 byte-identical reports")

"""Command-line experiment runner.

Subcommands map one-to-one onto the package's analyses:

* simulate      exact output distribution of a circuit file
* depolarize    depolarized distributions plus seeded tallies per fidelity
* certify       additive / multiplicative closeness-to-uniform certificates
* thm1          randomized ancilla construction: acceptance spike per fidelity
* sbp-gap       yes/no acceptance thresholds for given (r, w, m, F, eps)
* discriminate  k-copy discrimination bound chain

Every run emits a single JSON report (stdout, or --out PATH) that echoes
the full config and the package version; identical (config, version) gives
byte-identical reports.  Wall time goes to stderr so it never perturbs the
report bytes.

Exit codes: 0 every check in the report passed, 1 some check failed,
2 usage error, 3 I/O or circuit-file parse error, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from dataclasses import asdict, dataclass

from . import __version__
from .circuits import outcome_string, parse_circuit
from .construction import (
    build_randomized_circuit,
    depolarized_acceptance,
    mixture_distribution,
    sbp_thresholds,
)
from .depol import (
    additive_certificate,
    check_fidelity,
    check_positive_int,
    check_seed,
    depolarize,
    empirical_tv,
    multiplicative_certificate,
    sample,
)
from .discrimination import bound_chain, random_density_matrix
from .errors import CapExceeded, CircuitParseError
from .reports import render_floats, render_json
from .statevector import distribution_of, output_distribution, run, zero_overlap


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run depends on.  Echoed verbatim into the report."""

    subcommand: str
    circuit_path: str | None = None
    fidelity_grid: tuple[float, ...] = (0.5,)
    seed: int = 0
    samples: int = 10000
    k: int = 1
    r: int = 3
    w: int = 10
    m: int = 4
    epsilon: float = 0.5
    out_path: str | None = None


def _load_circuit(path: str):
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return parse_circuit(data.decode("utf-8"))
    except UnicodeDecodeError as err:
        # Number the bad byte's line the way parse_circuit numbers lines.
        line = len((data[: err.start].decode("utf-8") + ".").splitlines())
        raise CircuitParseError(line, f"not UTF-8 text: {err.reason}") from None


def _certificate_dict(report) -> dict:
    return {key: value for key, value in asdict(report).items() if value is not None}


def _run_simulate(config: ExperimentConfig) -> tuple[dict, bool]:
    circuit = _load_circuit(config.circuit_path)
    state = run(circuit)
    dist = distribution_of(state)
    amp = complex(state.amps[0])
    results = {
        "width": circuit.width,
        "gate_count": circuit.m,
        "zero_amplitude": {"re": amp.real, "im": amp.imag},
        "zero_probability": abs(amp) ** 2,
        "probabilities": dist.probs,
    }
    return results, True


def _run_depolarize(config: ExperimentConfig) -> tuple[dict, bool]:
    circuit = _load_circuit(config.circuit_path)
    ideal = output_distribution(circuit)
    entries = []
    for f in config.fidelity_grid:
        noisy = depolarize(ideal, f)
        tally = sample(noisy, config.seed, config.samples)
        entries.append(
            {
                "fidelity": f,
                "probabilities": noisy.probs,
                "tally": {outcome_string(z, noisy.width): c for z, c in tally.items()},
                "empirical_tv": empirical_tv(tally, noisy),
            }
        )
    results = {"width": circuit.width, "per_fidelity": entries}
    return results, True


def _run_certify(config: ExperimentConfig) -> tuple[dict, bool]:
    circuit = _load_circuit(config.circuit_path)
    ideal = output_distribution(circuit)
    entries = []
    all_passed = True
    for f in config.fidelity_grid:
        additive = additive_certificate(ideal, f)
        entry = {"fidelity": f, "additive": _certificate_dict(additive)}
        all_passed = all_passed and additive.passed
        if f <= 0.5:
            multiplicative = multiplicative_certificate(ideal, f)
            entry["multiplicative"] = _certificate_dict(multiplicative)
            all_passed = all_passed and multiplicative.passed
        else:
            entry["multiplicative"] = {
                "skipped": "the multiplicative certificate requires fidelity <= 1/2"
            }
        entries.append(entry)
    results = {"width": circuit.width, "per_fidelity": entries}
    return results, all_passed


def _mixture_checksum(rc) -> str | None:
    try:
        mix = mixture_distribution(rc)
    except CapExceeded:
        return None
    # sha256 of the mixture's .17g texts joined by commas, fed chunk by chunk.
    digest = hashlib.sha256()
    sep = ""
    for texts in render_floats(mix.probs):
        digest.update((sep + ",".join(texts)).encode("ascii"))
        sep = ","
    return digest.hexdigest()


def _run_thm1(config: ExperimentConfig) -> tuple[dict, bool]:
    circuit = _load_circuit(config.circuit_path)
    rc = build_randomized_circuit(circuit)
    q = abs(zero_overlap(circuit)) ** 2
    spikes = [
        {"fidelity": f, "p_acc_prime": depolarized_acceptance(rc, q, f)}
        for f in config.fidelity_grid
    ]
    results = {
        "w": rc.main_width,
        "m": rc.ancilla_width,
        "n": rc.total_width,
        "q": q,
        "per_fidelity": spikes,
        "mixture_checksum": _mixture_checksum(rc),
    }
    return results, True


def _run_sbp_gap(config: ExperimentConfig) -> tuple[dict, bool]:
    entries = []
    all_ok = True
    for f in config.fidelity_grid:
        report = sbp_thresholds(config.r, config.w, config.m, f, config.epsilon)
        entries.append(asdict(report))
        all_ok = all_ok and report.sbp_ok
    return {"per_fidelity": entries}, all_ok


def _run_discriminate(config: ExperimentConfig) -> tuple[dict, bool]:
    if config.circuit_path is not None:
        circuit = _load_circuit(config.circuit_path)
        rho = run(circuit)
        source = "circuit"
    else:
        rho = random_density_matrix(config.w, config.seed)
        source = "random"
    chains = []
    all_passed = True
    for f in config.fidelity_grid:
        report = bound_chain(rho, f, config.k)
        chains.append(
            {
                "fidelity": f,
                "p_correct": report.p_correct,
                "links": [asdict(link) for link in report.links],
            }
        )
        all_passed = all_passed and report.all_passed
    results = {"source": source, "width": rho.width, "k": config.k, "chains": chains}
    return results, all_passed


_RUNNERS = {
    "simulate": _run_simulate,
    "depolarize": _run_depolarize,
    "certify": _run_certify,
    "thm1": _run_thm1,
    "sbp-gap": _run_sbp_gap,
    "discriminate": _run_discriminate,
}


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute one subcommand and assemble the full report document."""
    runner = _RUNNERS.get(config.subcommand)
    if runner is None:
        raise ValueError(f"unknown subcommand {config.subcommand!r}")
    check_seed(config.seed)
    for f in config.fidelity_grid:
        check_fidelity(f)
    results, passed = runner(config)
    echo = asdict(config)
    echo["fidelity_grid"] = list(config.fidelity_grid)
    return {
        "version": __version__,
        "config": echo,
        "passed": passed,
        "results": results,
    }


def _parse_fidelity_grid(text: str) -> tuple[float, ...]:
    # split yields at least one token and float("") fails, so no grid is empty.
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad fidelity list {text!r}") from None


def _positive_int(text: str) -> int:
    """argparse type for counts and widths, so a bad value is a usage
    error that names its flag."""
    try:
        return check_positive_int("value", int(text))
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depolab",
        description="Exact sampling and verification for globally depolarized circuits",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, circuit_required=None):
        if circuit_required is not None:
            p.add_argument("--circuit", required=circuit_required, help="circuit file path")
        p.add_argument("--fidelity", type=_parse_fidelity_grid, default=(0.5,),
                       help="fidelity value or comma-separated grid (default 0.5)")
        p.add_argument("--seed", type=int, default=0, help="64-bit sampler seed (default 0)")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")

    p = sub.add_parser("simulate", help="exact output distribution of a circuit")
    common(p, circuit_required=True)

    p = sub.add_parser("depolarize", help="depolarized distributions and tallies")
    common(p, circuit_required=True)
    p.add_argument("--samples", type=_positive_int, default=10000,
                   help="tally size (default 10000)")

    p = sub.add_parser("certify", help="closeness-to-uniform certificates")
    common(p, circuit_required=True)

    p = sub.add_parser("thm1", help="randomized ancilla construction acceptance")
    common(p, circuit_required=True)

    p = sub.add_parser("sbp-gap", help="yes/no acceptance thresholds")
    common(p)
    p.add_argument("--r", type=_positive_int, default=3, help="promise-gap exponent (default 3)")
    p.add_argument("--w", type=_positive_int, default=10, help="main register width (default 10)")
    p.add_argument("--m", type=_positive_int, default=4, help="step count (default 4)")
    p.add_argument("--epsilon", type=float, default=0.5,
                   help="sampler relative error in [0, 1) (default 0.5)")

    p = sub.add_parser("discriminate", help="k-copy discrimination bound chain")
    common(p, circuit_required=False)
    p.add_argument("--k", type=_positive_int, default=1, help="number of copies (default 1)")
    p.add_argument("--w", type=_positive_int, default=2,
                   help="width of the seeded random state when no --circuit (default 2)")

    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    renamed = {"circuit": "circuit_path", "fidelity": "fidelity_grid", "out": "out_path"}
    return ExperimentConfig(**{renamed.get(k, k): v for k, v in vars(args).items()})


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)  # exits 2 on usage errors
    config = _config_from_args(args)
    started = time.perf_counter()
    try:
        report = run_experiment(config)
        payload = render_json(report) + "\n"
        if config.out_path is not None:
            with open(config.out_path, "w", encoding="utf-8") as handle:
                handle.write(payload)
        else:
            sys.stdout.write(payload)
            sys.stdout.flush()
        elapsed = time.perf_counter() - started
    except CircuitParseError as err:
        print(f"depolab: circuit file error: {err}", file=sys.stderr)
        return 3
    except CapExceeded as err:
        print(f"depolab: cap exceeded: {err}", file=sys.stderr)
        return 4
    except ValueError as err:
        print(f"depolab: usage error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"depolab: i/o error: {err}", file=sys.stderr)
        return 3
    print(f"# wall time: {elapsed:.3f} s", file=sys.stderr)
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

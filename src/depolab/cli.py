"""Command-line experiment runner.

_SUBCOMMANDS is the one registry, one runner per analysis:

* simulate      exact output distribution of a circuit file
* depolarize    depolarized distributions plus seeded tallies per fidelity
* certify       additive / multiplicative closeness-to-uniform certificates
* thm1          randomized ancilla construction: acceptance spike per fidelity
* sbp-gap       yes/no acceptance thresholds for given (r, w, m, F, eps)
* discriminate  k-copy discrimination bound chain

Every run emits one JSON report (stdout, or --out PATH) that echoes
the full config and the package version; identical (config, version) gives
byte-identical reports.  Wall time goes to stderr so it never perturbs the
report bytes.

Exit codes: 0 every check in the report passed, 1 some check failed,
2 usage error, 3 I/O or circuit-file parse error, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass

from . import __version__
from .circuits import parse_circuit
from .construction import (
    RandomizedCircuit,
    depolarized_acceptance,
    mixture_checksum,
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
    sorted_draws,
    tally,
)
from .discrimination import bound_chain, check_copies, random_density_matrix
from .errors import CapExceeded, CircuitParseError
from .reports import Tally, render_json
from .statevector import check_width, distribution_of, output_distribution, run, zero_overlap


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


def _run_simulate(config: ExperimentConfig, circuit) -> tuple[dict, bool]:
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


def _run_depolarize(config: ExperimentConfig, circuit) -> tuple[dict, bool]:
    draws = sorted_draws(config.seed, config.samples)  # one draw set serves the grid
    ideal = output_distribution(circuit)
    noisy = [depolarize(ideal, f) for f in config.fidelity_grid]
    tallies = [tally(dist, draws) for dist in noisy]
    del draws  # 8 bytes a draw: freed before the report is built
    entries = [
        {
            "fidelity": f,
            "probabilities": dist.probs,
            "tally": Tally(circuit.width, outcomes, counts),
            "empirical_tv": empirical_tv(outcomes, counts, dist),
        }
        for f, dist, (outcomes, counts) in zip(config.fidelity_grid, noisy, tallies)
    ]
    results = {"width": circuit.width, "per_fidelity": entries}
    return results, True


def _run_certify(config: ExperimentConfig, circuit) -> tuple[dict, bool]:
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


def _run_thm1(config: ExperimentConfig, circuit) -> tuple[dict, bool]:
    rc = RandomizedCircuit(circuit)
    q = abs(zero_overlap(circuit)) ** 2
    spikes = [
        {"fidelity": f, "p_acc_prime": depolarized_acceptance(rc, q, f)}
        for f in config.fidelity_grid
    ]
    try:
        checksum = mixture_checksum(rc)
    except CapExceeded:
        checksum = None
    results = {
        "w": rc.main_width,
        "m": rc.ancilla_width,
        "n": rc.total_width,
        "q": q,
        "per_fidelity": spikes,
        "mixture_checksum": checksum,
    }
    return results, True


def _run_sbp_gap(config: ExperimentConfig, _circuit) -> tuple[dict, bool]:
    entries = []
    all_ok = True
    for f in config.fidelity_grid:
        report = sbp_thresholds(config.r, config.w, config.m, f, config.epsilon)
        entries.append(asdict(report))
        all_ok = all_ok and report.sbp_ok
    return {"per_fidelity": entries}, all_ok


def _run_discriminate(config: ExperimentConfig, circuit) -> tuple[dict, bool]:
    # Refuse too many copies before the state is simulated or drawn.
    check_copies(config.w if circuit is None else circuit.width, config.k)
    if circuit is not None:
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


_SUBCOMMANDS = {
    "simulate": (_run_simulate, "exact output distribution of a circuit"),
    "depolarize": (_run_depolarize, "depolarized distributions and tallies"),
    "certify": (_run_certify, "closeness-to-uniform certificates"),
    "thm1": (_run_thm1, "randomized ancilla construction acceptance"),
    "sbp-gap": (_run_sbp_gap, "yes/no acceptance thresholds"),
    "discriminate": (_run_discriminate, "k-copy discrimination bound chain"),
}


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute one subcommand and assemble the full report document."""
    if config.subcommand not in _SUBCOMMANDS:
        raise ValueError(f"unknown subcommand {config.subcommand!r}")
    runner, _ = _SUBCOMMANDS[config.subcommand]
    check_seed(config.seed)
    for f in config.fidelity_grid:
        check_fidelity(f)
    # The one circuit load: each runner takes (config, circuit), None without a file.
    # Each simulates it whole, so its width is refused first, before draws or copies.
    circuit = None if config.circuit_path is None else _load_circuit(config.circuit_path)
    if circuit is not None:
        check_width(circuit.width)
    results, passed = runner(config, circuit)
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
    defaults = ExperimentConfig(subcommand="")
    parser = argparse.ArgumentParser(
        prog="depolab",
        description="Exact sampling and verification for globally depolarized circuits",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, text) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=text)
        if name != "sbp-gap":
            p.add_argument("--circuit", required=name != "discriminate", help="circuit file path")
        # A tuple default would print as "(0.5,)", so this help spells it out.
        p.add_argument("--fidelity", type=_parse_fidelity_grid, default=defaults.fidelity_grid,
                       help="fidelity value or comma-separated grid (default 0.5)")
        p.add_argument("--seed", type=int, default=defaults.seed,
                       help="64-bit sampler seed (default %(default)s)")
        p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.choices["depolarize"]
    p.add_argument("--samples", type=_positive_int, default=defaults.samples,
                   help="tally size (default %(default)s)")
    p = sub.choices["sbp-gap"]
    p.add_argument("--r", type=_positive_int, default=defaults.r,
                   help="promise-gap exponent (default %(default)s)")
    p.add_argument("--w", type=_positive_int, default=defaults.w,
                   help="main register width (default %(default)s)")
    p.add_argument("--m", type=_positive_int, default=defaults.m,
                   help="step count (default %(default)s)")
    p.add_argument("--epsilon", type=float, default=defaults.epsilon,
                   help="sampler relative error in [0, 1) (default %(default)s)")
    p = sub.choices["discriminate"]
    p.add_argument("--k", type=_positive_int, default=defaults.k,
                   help="number of copies (default %(default)s)")
    # The seeded random state is 2 qubits wide by default, not sbp-gap's w.
    p.add_argument("--w", type=_positive_int, default=2,
                   help="width of the seeded random state when no --circuit (default %(default)s)")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    renamed = {"circuit": "circuit_path", "fidelity": "fidelity_grid", "out": "out_path"}
    return ExperimentConfig(**{renamed.get(k, k): v for k, v in vars(args).items()})


@dataclass(frozen=True)
class _Output:
    """stdout, or the --out file, opened only when render_json writes: that
    is after it has checked the report, so a render error truncates nothing."""

    path: str | None

    def writelines(self, pieces) -> None:
        with (nullcontext(sys.stdout) if self.path is None
              else open(self.path, "w", encoding="utf-8")) as out:
            out.writelines(pieces)
            out.write("\n")
            out.flush()


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)  # exits 2 on usage errors
    config = _config_from_args(args)
    started = time.perf_counter()
    try:
        report = run_experiment(config)
        render_json(report, _Output(config.out_path))
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

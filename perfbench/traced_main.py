"""Run ``depolab.cli.main`` once with span-recording wrappers, from outside.

Usage (from the directory the CLI should run in)::

    python traced_main.py TRACE_OUT -- CLI_ARGS...

Before calling ``main(CLI_ARGS)`` this swaps every function that
``depolab.cli`` imported from another package module (``circuits``,
``statevector``, ``depol``, ``construction``, ``discrimination``,
``reports``) for a wrapper that records a span, plus ``run_experiment``
itself.  The package is not changed, so the CLI writes exactly the report
an untraced run writes.  Spans nest on a stack: a span's self time is its
duration minus its direct children's.  ``outcome_string`` is called once
per tallied outcome, so it is only counted, never timed; its time stays in
``cli.self_s``.

Counts are computed from the arguments of each call (gates, draws, branch
amplitudes, eigenproblem size) and from the report tree, so they repeat
exactly for the same inputs.  Byte counts are labelled as computed: they
assume every amplitude is read and written once per gate (16 + 16 bytes).

TRACE_OUT receives one JSON object: the per-layer metrics of this
invocation, per-function span totals, and the path depolab was imported
from.  The exit code is the CLI's.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

AMP_BYTES_PER_GATE = 32  # complex128 read + written once


class Tracer:
    """Spans and counters of one invocation, kept in memory."""

    def __init__(self):
        self.stack = []  # [name, start, child_seconds]
        self.funcs = {}  # name -> {"layer", "calls", "total_s", "self_s"}
        self.counts = {
            "statevector.gates_applied": 0,
            "statevector.bytes_computed": 0,
            "construction.branch_amps": 0,
            "depol.draws": 0,
            "discrimination.eig_dim": 0,
            "circuits.outcome_string_calls": 0,
        }
        self.rendered = None
        self.last_end = {}  # name -> end of its latest span

    def span(self, layer, name, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.stack.append([name, time.perf_counter(), 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                _, start, children = self.stack.pop()
                end = self.last_end[name] = time.perf_counter()
                elapsed = end - start
                if self.stack:
                    self.stack[-1][2] += elapsed
                rec = self.funcs.setdefault(
                    name, {"layer": layer, "calls": 0, "total_s": 0.0, "self_s": 0.0}
                )
                rec["calls"] += 1
                rec["total_s"] += elapsed
                rec["self_s"] += elapsed - children
            if count is not None:
                count(result, *args, **kwargs)
            return result

        return wrapper

    def counted(self, key, fn):
        """Count calls of a two-argument function without timing them."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(a, b):
            counts[key] += 1
            return fn(a, b)

        return wrapper

    # Counters, computed from the call's arguments after it returned.

    def count_circuit(self, _result, circuit, *_, **__):
        self.counts["statevector.gates_applied"] += circuit.m
        self.counts["statevector.bytes_computed"] += (
            AMP_BYTES_PER_GATE * (1 << circuit.width) * circuit.m
        )

    def count_branches(self, _result, rc, *_, **__):
        # Step j (1-based) advances 2**j branch states of 2**w amplitudes.
        self.counts["construction.branch_amps"] += (
            ((1 << (rc.ancilla_width + 1)) - 2) << rc.main_width
        )

    def count_draws(self, _result, _dist, _seed, count, *_, **__):
        self.counts["depol.draws"] += int(count)

    def count_eig_dim(self, _result, rho, _fidelity, k, *_, **__):
        dim = 1 << (int(k) * rho.width)
        self.counts["discrimination.eig_dim"] = max(self.counts["discrimination.eig_dim"], dim)

    def keep_report(self, _result, report, *_, **__):
        self.rendered = report

    def time_of(self, *names, key="total_s"):
        return sum((self.funcs[n][key] for n in names if n in self.funcs), 0.0)

    def layer_self(self, layer):
        return sum((r["self_s"] for r in self.funcs.values() if r["layer"] == layer), 0.0)


def install(cli, tracer: Tracer) -> None:
    """Replace cli's imported package functions (and run_experiment) by wrappers."""
    counters = {
        "output_distribution": tracer.count_circuit,
        "run": tracer.count_circuit,
        "zero_overlap": tracer.count_circuit,
        "mixture_distribution": tracer.count_branches,
        "sample": tracer.count_draws,
        "bound_chain": tracer.count_eig_dim,
        "render_json": tracer.keep_report,
    }
    for name, obj in list(vars(cli).items()):
        if not inspect.isfunction(obj):
            continue
        module = obj.__module__ or ""
        if not module.startswith("depolab.") or module == cli.__name__:
            continue
        layer = module.rsplit(".", 1)[1]
        if name == "outcome_string":
            setattr(cli, name, tracer.counted("circuits.outcome_string_calls", obj))
        else:
            setattr(cli, name, tracer.span(layer, name, obj, counters.get(name)))
    cli.run_experiment = tracer.span("cli", "run_experiment", cli.run_experiment)


def count_floats(tree) -> int:
    """Float leaves of a report tree, as render_json would print them.

    Children are grouped by type at C speed, so long lists of floats (the
    probability vectors) cost one pass, not one Python call per element.
    """
    import numpy as np

    if isinstance(tree, dict):
        tree = list(tree.values())
    elif not isinstance(tree, (list, tuple, np.ndarray)):
        return int(isinstance(tree, (float, np.floating)))
    total = 0
    for kind, n in Counter(map(type, tree)).items():
        if issubclass(kind, (float, np.floating)):
            total += n
        elif issubclass(kind, (dict, list, tuple, np.ndarray)):
            total += sum(count_floats(v) for v in tree if type(v) is kind)
    return total


def layer_metrics(tracer: Tracer, main_s: float, experiment_end: float, main_end: float) -> dict:
    t = tracer
    render_s = t.time_of("render_json")
    sv_self = t.layer_self("statevector")
    sample_s = t.time_of("sample")
    draws = t.counts["depol.draws"]
    sv_bytes = t.counts["statevector.bytes_computed"]
    branch_amps = t.counts["construction.branch_amps"]
    return {
        "cli.main_s": main_s,
        "cli.self_s": t.time_of("run_experiment", key="self_s"),
        "cli.emit_s": (main_end - experiment_end) - render_s,
        "reports.render_s": render_s,
        "reports.floats_rendered": count_floats(t.rendered),
        "statevector.self_s": sv_self,
        "statevector.gates_applied": t.counts["statevector.gates_applied"],
        "statevector.bytes_computed": sv_bytes,
        "statevector.gbps_computed": sv_bytes / sv_self / 1e9 if sv_self > 0 else 0.0,
        "construction.mixture_s": t.time_of("mixture_distribution"),
        "construction.branch_amps": branch_amps,
        "construction.batch_bytes_computed": AMP_BYTES_PER_GATE * branch_amps,
        "construction.acceptance_s": t.time_of("depolarized_acceptance"),
        "depol.sample_s": sample_s,
        "depol.draws": draws,
        "depol.ns_per_draw": sample_s / draws * 1e9 if draws else 0.0,
        "depol.empirical_tv_s": t.time_of("empirical_tv"),
        "depol.certificate_s": t.time_of("additive_certificate", "multiplicative_certificate"),
        "discrimination.chain_s": t.time_of("bound_chain"),
        "discrimination.density_s": t.time_of("random_density_matrix", "density_from_pure"),
        "discrimination.eig_dim": t.counts["discrimination.eig_dim"],
        "circuits.parse_s": t.time_of("parse_circuit"),
        "circuits.outcome_string_calls": t.counts["circuits.outcome_string_calls"],
    }


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: traced_main.py TRACE_OUT -- CLI_ARGS...", file=sys.stderr)
        return 2
    trace_out, argv = sys.argv[1], sys.argv[3:]

    import depolab
    import depolab.cli as cli

    tracer = Tracer()
    install(cli, tracer)
    start = time.perf_counter()
    code = cli.main(argv)
    main_end = time.perf_counter()
    experiment_end = tracer.last_end.get("run_experiment")
    if experiment_end is None or tracer.rendered is None:
        print("traced_main: the CLI returned before rendering a report", file=sys.stderr)
        return code or 1
    record = {
        "depolab_file": depolab.__file__,
        "metrics": layer_metrics(tracer, main_end - start, experiment_end, main_end),
        "functions": tracer.funcs,
    }
    with open(trace_out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

"""Per-layer tracing for the fdnoma benchmark.

`install()` wraps the layer functions in the namespaces where fdnoma looks
them up (`from .x import y` binds y in the importing module, so e.g.
`ln_bessel_k_int` is patched as `analytic.ln_bessel_k_int`).  Each wrapped
call records one span (name, start, end, parent) in memory; the spans are
written out once the pass has ended.  `specfn.ln_bessel_k_int` gets a
counter only, because it is called millions of times per pass.

Pool workers are forked, so spans recorded inside them are lost: with
workers > 1 the mcsim sampling spans and Gamma draw counts cover the parent
process only.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from time import perf_counter

SYSMODEL_FUNCS = ("derive_link_stats", "compute_theta", "compute_deltas")
SAMPLERS = {
    # name -> columns drawn per trial
    "sample_first_hop": lambda cfg: cfg.n_b,
    "sample_second_hop": lambda cfg: cfg.n_users,
    "sample_si_gain": lambda cfg: 1,
}


class Recorder:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def span(self, name: str, fn, on_call=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(v, x):
            counts[name] += 1
            return fn(v, x)

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def install(recorder: Recorder) -> None:
    """Patch every traced name; the process is one benchmark pass, so the
    patches are never undone."""
    from fdnoma import analytic, cli, mcsim

    def patch(module, attr, name, on_call=None):
        setattr(module, attr, recorder.span(name, getattr(module, attr), on_call))

    patch(cli, "run_sweep", "cli.run_sweep")
    patch(cli, "validate", "cli.validate")
    for attr in ("exact_outage", "phi_integral_log", "lower_bound_outage"):
        patch(analytic, attr, f"analytic.{attr}")
    analytic.ln_bessel_k_int = recorder.counter("specfn.ln_bessel_k_int",
                                                analytic.ln_bessel_k_int)
    for module in (analytic, mcsim):
        for attr in SYSMODEL_FUNCS:
            patch(module, attr, f"sysmodel.{attr}")

    def count_trials(cfg, snr_db, trials, *args, **kwargs):
        recorder.counts["mcsim.trials"] += trials

    patch(mcsim, "simulate_outage_all", "mcsim.simulate_outage_all", count_trials)
    for attr, columns in SAMPLERS.items():
        def count_draws(cfg, stats, rng, size=1, _columns=columns):
            recorder.counts["mcsim.gamma_draws"] += size * _columns(cfg)

        patch(mcsim, attr, f"mcsim.{attr}", count_draws)

    class CountingPool(mcsim.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            recorder.counts["mcsim.pools_created"] += 1
            super().__init__(*args, **kwargs)

    mcsim.ProcessPoolExecutor = CountingPool


def _hit_ratio(cached) -> float:
    info = cached.cache_info()
    total = info.hits + info.misses
    return info.hits / total if total else 0.0


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method); 0 without samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced pass (values only; units live in
    BENCHMARK.json)."""
    from fdnoma import analytic, specfn

    spans = recorder.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: Counter = Counter()
    total: Counter = Counter()
    self_time: Counter = Counter()
    exact_ms: list[float] = []
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_time[name] += end - start - child_time[i]
        if name == "analytic.exact_outage":
            exact_ms.append((end - start) * 1e3)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    sim_s = total["mcsim.simulate_outage_all"]
    sample_s = sum(total[f"mcsim.{attr}"] for attr in SAMPLERS)
    sys_names = [f"sysmodel.{attr}" for attr in SYSMODEL_FUNCS]
    counts = recorder.counts
    return {
        "cli.run_sweep.s": total["cli.run_sweep"],
        "cli.validate.s": total["cli.validate"],
        "cli.self_s": self_time["cli.run_sweep"] + self_time["cli.validate"],
        "analytic.exact_outage.calls": calls["analytic.exact_outage"],
        "analytic.exact_outage.s": total["analytic.exact_outage"],
        "analytic.exact_outage.ms_p50": _quantile(exact_ms, 50),
        "analytic.exact_outage.ms_p90": _quantile(exact_ms, 90),
        "analytic.exact_outage.self_s": self_time["analytic.exact_outage"],
        "analytic.phi_integral_log.calls": calls["analytic.phi_integral_log"],
        "analytic.phi_integral_log.s": total["analytic.phi_integral_log"],
        "analytic.phi_per_exact": ratio(calls["analytic.phi_integral_log"],
                                        calls["analytic.exact_outage"]),
        "analytic.lower_bound_outage.calls": calls["analytic.lower_bound_outage"],
        "analytic.lower_bound_outage.s": total["analytic.lower_bound_outage"],
        "analytic.first_hop_mixture.hit_ratio": _hit_ratio(analytic.first_hop_mixture),
        "specfn.ln_bessel_k_int.calls": counts["specfn.ln_bessel_k_int"],
        "specfn.ln_bessel_k_int.per_phi": ratio(counts["specfn.ln_bessel_k_int"],
                                                calls["analytic.phi_integral_log"]),
        "specfn.poly_power_coeffs.hit_ratio": _hit_ratio(specfn.poly_power_coeffs),
        "mcsim.simulate_outage_all.calls": calls["mcsim.simulate_outage_all"],
        "mcsim.simulate_outage_all.s": sim_s,
        "mcsim.trials": counts["mcsim.trials"],
        "mcsim.mtrials_per_s": ratio(counts["mcsim.trials"] / 1e6, sim_s),
        "mcsim.sample.s": sample_s,
        "mcsim.count.s": sim_s - sample_s,
        "mcsim.sample_share": ratio(sample_s, sim_s),
        "mcsim.gamma_draws": counts["mcsim.gamma_draws"],
        "mcsim.pools_created": counts["mcsim.pools_created"],
        "sysmodel.calls": sum(calls[n] for n in sys_names),
        "sysmodel.s": sum(total[n] for n in sys_names),
    }

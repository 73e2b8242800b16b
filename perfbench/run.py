"""probkit benchmark: one closed-loop caller, inputs generated from a seed.

    python3 perfbench/run.py --workload fit_glm --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40  # every workload, one table

Untraced (--trace 0): fresh-process set-ups timed in child processes, then
units of work (chains, CLI pipelines, model builds) back to back for
--seconds. Timings are in host-normalised seconds: the host's speed is read
from reference work done next to them (hostspeed.py). Traced (--trace 1):
a fixed number of units per workload, each run untraced and then again
under spans, so counts repeat exactly per seed and the untraced twin gives
the tracing overhead.

Every output is checked (see gates.py). The last stdout line is
{"correct", "attempted", "failed", "metrics"}; the line before it is the
full record (environment stamp, failure tally by type, every metric),
also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field

import checkout

checkout.use_source_tree()

import numpy as np  # noqa: E402

import gates  # noqa: E402
import hostspeed  # noqa: E402
import workloads as wl  # noqa: E402
from probkit import _kernels, cli, diagnostics, hmc  # noqa: E402
from probkit import rng as prng  # noqa: E402
from tracing import NullTracer, Tracer, patched  # noqa: E402

FITS = ("fit_glm", "fit_small")

# name -> unit. E2E are the gated end-to-end metrics, printed by every
# untraced run; PER_LAYER are printed by every traced fit workload.
BENCH = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
# Reported in the record and the `all` table, not gated: the minimum ESS of
# a 60-draw fit_glm chain spreads ±50% across seeds, and the failure ratio
# is 0 on healthy fits.
E2E_EXTRA = {"ess_per_s": "1/s", "fit_fail_ratio": "ratio"}
# Traced metrics of cli_lm only.
CLI_LAYER = {"cli.simulate_s": "s", "cli.fit_s": "s", "cli.diagnose_s": "s",
             "cli.chain_parallel_eff": "ratio"}
UNITS = {**E2E, **E2E_EXTRA, **PER_LAYER, **CLI_LAYER}


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def stamp() -> dict:
    """What the numbers depend on beyond the code: compare only equal stamps."""
    return {
        "have_numba": bool(_kernels.HAVE_NUMBA),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def peak_rss_mb() -> float:
    """High-water resident set of this process or any child it has reaped."""
    kb = max(resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024.0


class Meter:
    """Paces one run. Traced: a fixed number of units. Untraced: units until
    ``seconds`` pass (at least one), each preceded by a fresh-process set-up
    probe, so set-up samples spread over the whole run, and each timed on
    the host clock (hostspeed.py)."""

    def __init__(self, name: str, seed: int, sizes: dict, seconds: float, trace: bool):
        self.argv = [sys.executable, str(checkout.HERE / "setup_probe.py"), name, str(seed),
                     json.dumps(sizes)]
        self.seconds, self.trace, self.traced_units = seconds, trace, sizes["traced_units"]
        self.setups: list[tuple[float, float]] = []  # (wall s, reference import s just after)
        self.clock = hostspeed.Clock()
        self.timings: list[tuple[float, float]] = []  # per clocked call: (wall s, host-normalised s)

    def units(self):
        t_start = time.perf_counter()
        k = 0
        while (k < self.traced_units) if self.trace else (k == 0 or time.perf_counter() - t_start < self.seconds):
            if not self.trace:
                self.probe()
            yield k
            k += 1

    def clocked(self, fn):
        """``fn`` timed on the host clock, one timing per call (untraced runs)."""
        if self.trace:
            return fn

        def timed(*args, **kwargs):
            self.clock.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.timings.append(self.clock.stop())

        return timed

    def ticking(self, fn):
        """``fn`` reading the host's speed when due, inside a clocked call."""
        return fn if self.trace else self.clock.ticking(fn)

    def host_s(self, k: int, wall_s: float) -> float:
        """``wall_s`` spent in clocked call k, in host-normalised seconds."""
        if self.trace:
            return wall_s
        wall, norm = self.timings[k]
        return wall_s * ratio(norm, wall)

    def probe(self) -> None:
        proc = subprocess.run(self.argv, capture_output=True, text=True, timeout=170,
                              cwd=checkout.ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed ({proc.returncode}):\n{proc.stderr}")
        self.setups.append((json.loads(proc.stdout.splitlines()[-1])["setup_s"],
                            hostspeed.import_ref_s()))

    def setup_s(self, at_least: int) -> dict:
        """Median set-up time, host-normalised and wall, and the median
        reference import, topping up to ``at_least`` probes."""
        while len(self.setups) < at_least:
            self.probe()
        return {
            "setup_s": statistics.median(hostspeed.normalised(s, r, hostspeed.IMPORT_REF_S)
                                         for s, r in self.setups),
            "setup_wall_s": statistics.median(s for s, _ in self.setups),
            "host.import_ref_s": statistics.median(r for _, r in self.setups),
        }


def median_rate(fits, attr: str, seconds=None) -> float:
    """Median over units of work per second; a failed unit counts as zero.
    ``seconds`` replaces each unit's wall time (host-normalised time)."""
    if not fits:
        return 0.0
    seconds = seconds or [f.seconds for f in fits]
    return statistics.median(ratio(getattr(f, attr), s) for f, s in zip(fits, seconds))


def total_rate(fits, attr: str, seconds=None) -> float:
    """Work summed over units per second summed over units."""
    seconds = seconds or [f.seconds for f in fits]
    return ratio(sum(getattr(f, attr) for f in fits), sum(seconds))


@dataclass
class Tally:
    """Attempted units, failures by type, and whether every check passed."""

    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    correct: bool = True

    def unit(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.fail(error)

    def fail(self, kind: str) -> None:
        self.failed += 1
        self.failures[kind] += 1

    def check(self, kind: str, run) -> None:
        """A gate: False or an exception fails it, tallied by kind or type."""
        try:
            ok = run()
        except Exception as err:
            print(f"gate {kind} raised {type(err).__name__}: {err}", file=sys.stderr)
            self.fail(type(err).__name__)
            self.correct = False
            return
        if not ok:
            self.fail(f"check:{kind}")
            self.correct = False


# --- per-workload measurement ---------------------------------------------


def gradient_gate(model, inputs, tally: Tally) -> float:
    """Compiled vs interpreted at prior draws; returns reference s per node."""
    points = gates.prior_points(model, prng.chain_seed(inputs.seed, 1 << 20),
                                inputs.sizes["grad_points"])
    ref_seconds: list[float] = []
    for x in points:
        tally.check("gradient_vs_reference",
                    lambda: gates.gradient_matches_reference(model, x, ref_seconds))
    return ratio(sum(ref_seconds), len(ref_seconds) * len(model.tape))


def recompile_s(model) -> float:
    t0 = time.perf_counter()
    model.tape.compile()
    return time.perf_counter() - t0


def traced_hooks(tracer, model):
    """Wrap the sampler's gradient calls and normal draws for one block."""
    stack = ExitStack()
    stack.enter_context(patched(model, "value_and_gradient",
                                tracer.wrap("graph.vag", model.value_and_gradient)))
    stack.enter_context(patched(prng, "std_normal",
                                prng.Rand(tracer.wrap("rng.std_normal", prng.std_normal.run))))
    return stack


def posterior_gate(name: str, fits, tally: Tally) -> None:
    """Over the run's chains pooled: one short chain gives too rough a
    posterior (and its Monte Carlo error) to gate on, and one gate per run
    keeps a correct run's chance of a false failure vanishing."""
    ok = [f for f in fits if f.error is None]
    if not ok:
        return
    draws = np.vstack([f.draws for f in ok])
    if name == "fit_small":
        tally.check("coin_posterior", lambda: gates.coin_posterior_matches(draws))
        return
    ess = sum(f.min_ess for f in ok)
    tally.check("glm_recovery", lambda: gates.recovers(
        wl.GLM_TRUTH, draws.mean(axis=0), draws.std(axis=0, ddof=1), [ess] * draws.shape[1]))


def measure_fits(inputs, model, trace, tally, tracer, metrics, meter):
    fits, plain = [], []
    for k in meter.units():
        if trace:
            plain.append(wl.run_chain(model, inputs, k))
            with traced_hooks(tracer, model):
                fit = wl.run_chain(model, inputs, k,
                                   sample=tracer.wrap("hmc.sample", hmc.sample),
                                   summarize=tracer.wrap("diagnostics.summarize", diagnostics.summarize))
        else:
            with patched(model, "value_and_gradient", meter.ticking(model.value_and_gradient)):
                fit = wl.run_chain(model, inputs, k, sample=meter.clocked(hmc.sample))
        tally.unit(fit.error)
        fits.append(fit)
    transitions = sum(f.transitions for f in fits)
    min_ess = sum(f.min_ess for f in fits)
    # Sampling time as the host clock read it, without its own readings.
    wall_s = [t[0] for t in meter.timings] or None
    host_s = [t[1] for t in meter.timings] or None
    metrics["transitions_per_s"] = median_rate(fits, "transitions", host_s)
    metrics["transitions_per_wall_s"] = median_rate(fits, "transitions", wall_s)
    metrics["ess_per_s"] = total_rate(fits, "min_ess", host_s)
    if trace:
        tot = tracer.totals()
        vag = tot.get("graph.vag", {"calls": 0, "s": 0.0})
        normal = tot.get("rng.std_normal", {"calls": 0, "s": 0.0})
        sampler = tot.get("hmc.sample", {"s": 0.0, "self_s": 0.0})
        nodes = len(model.tape)
        ok = [f for f in fits if f.error is None]
        metrics.update({
            "graph.vag_calls": vag["calls"],
            "graph.vag_s": vag["s"],
            "graph.ns_per_node": ratio(vag["s"] * 1e9, vag["calls"] * nodes),
            "graph.domain_error_ratio": ratio(tracer.errors[("graph.vag", "GraphDomainError")], vag["calls"]),
            "hmc.sampling_s": sampler["s"],
            "hmc.self_s": sampler["self_s"],
            "hmc.transitions": transitions,
            "hmc.accept_ratio": ratio(sum(f.accept_count for f in ok), sum(f.proposal_count for f in ok)),
            "hmc.final_eps": statistics.median(f.final_eps for f in ok) if ok else 0.0,
            "hmc.min_ess": min_ess,
            "hmc.grad_evals_per_ess": ratio(vag["calls"], min_ess),
            "rng.normal_draws": normal["calls"],
            "rng.busy_s": normal["s"],
            "diagnostics.summarize_s": tot.get("diagnostics.summarize", {"s": 0.0})["s"],
            "trace.overhead_ratio": ratio(median_rate(plain, "transitions"), metrics["transitions_per_s"]),
        })
    return fits


def measure_cli(inputs, trace, tally, tracer, metrics, workdir, meter):
    pipelines = []
    for k in meter.units():
        if trace:
            with cli_hooks(tracer):
                pipe = wl.run_pipeline(inputs, k, workdir, tracer.span)
        else:
            pipe = meter.clocked(wl.run_pipeline)(inputs, k, workdir, tracer.span)
        for cmd in pipe.commands:
            if cmd.argv[0] != "fit" and cmd.error is not None:
                tally.fail(cmd.error)
        for fit, summary in pipe.fits:
            tally.unit(fit.error)
            if summary is not None:
                tally.check("lm_recovery", lambda: gates.recovers(
                    wl.LM_TRUTH.values(), [summary[p]["mean"] for p in wl.LM_TRUTH],
                    [summary[p]["sd"] for p in wl.LM_TRUTH], [summary[p]["ess"] for p in wl.LM_TRUTH]))
        pipelines.append(pipe)
    fits = [fit for pipe in pipelines for fit, _ in pipe.fits]
    host_s = [meter.host_s(k, fit.seconds) for k, pipe in enumerate(pipelines) for fit, _ in pipe.fits]
    metrics["transitions_per_s"] = median_rate(fits, "transitions", host_s)
    metrics["transitions_per_wall_s"] = median_rate(fits, "transitions")
    metrics["ess_per_s"] = total_rate(fits, "min_ess", host_s)
    if trace:
        tot = tracer.totals()

        def span_s(name):
            return tot.get(name, {"s": 0.0})["s"]

        fit_cmds = [c for p in pipelines for c in p.commands if c.argv[0] == "fit"]
        one = sum(c.seconds for c in fit_cmds if c.chains == 1)
        two = sum(c.seconds for c in fit_cmds if c.chains == 2)
        metrics.update({
            "cli.simulate_s": span_s("cli.simulate"),
            "cli.fit_s": span_s("cli.fit"),
            "cli.diagnose_s": span_s("cli.diagnose"),
            "cli.chain_parallel_eff": ratio(2.0 * one, two),
            "diagnostics.summarize_s": span_s("diagnostics.summarize"),
            "model.compile_model_s": span_s("model.compile_model"),
        })


def cli_hooks(tracer):
    """Span the layers `probkit.cli` calls into; the pool's workers go untraced."""
    compile_model = tracer.wrap("model.compile_model", cli.compile_model)

    def traced_compile(rv):
        model = compile_model(rv)
        model.value_and_gradient = tracer.wrap("graph.vag", model.value_and_gradient)
        return model

    stack = ExitStack()
    stack.enter_context(patched(cli, "compile_model", traced_compile))
    stack.enter_context(patched(cli, "sample", tracer.wrap("hmc.sample", cli.sample)))
    stack.enter_context(patched(cli, "summarize", tracer.wrap("diagnostics.summarize", cli.summarize)))
    return stack


def build_and_evaluate(inputs, k, tracer):
    """One build unit: compile the model, then evaluate it once at a prior draw."""
    t0 = time.perf_counter()
    with tracer.span("model.compile_model"):
        model = wl.build(inputs)
    compiled = time.perf_counter()
    point = gates.prior_points(model, prng.chain_seed(inputs.seed, k), 1)[0]
    with tracer.span("graph.vag"):
        value, _ = model.value_and_gradient(point)
    return model, point, value, compiled - t0, time.perf_counter() - compiled


def measure_builds(inputs, trace, tally, tracer, metrics, meter):
    builds = []
    for k in meter.units():
        try:
            model, point, value, compile_s, vag_s = meter.clocked(build_and_evaluate)(inputs, k, tracer)
        except Exception as err:  # a build that raises is a failed unit
            tally.unit(type(err).__name__)
            continue
        tally.unit(None)
        tally.check("mixture_oracle", lambda: gates.close(
            value, gates.mixture_log_density(inputs.rows, point)))
        builds.append((meter.host_s(k, compile_s + vag_s), compile_s, vag_s, len(model.tape)))
        model = None
        gc.collect()  # the tape sits in a reference cycle: free it so peak memory is per build
    if builds:
        nodes = builds[-1][3]
        metrics["build_s"] = statistics.median(b[0] for b in builds)
        metrics["build_wall_s"] = statistics.median(b[1] + b[2] for b in builds)
        if trace:
            metrics.update({
                "model.compile_model_s": statistics.median(b[1] for b in builds),
                "graph.vag_s": statistics.median(b[2] for b in builds),
                "graph.ns_per_node": statistics.median(b[2] for b in builds) * 1e9 / nodes,
            })


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: dict) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, full record)."""
    tracer = Tracer() if trace else NullTracer()
    tally = Tally()
    metrics: dict[str, float] = {}
    checkout.OUT.mkdir(exist_ok=True)
    meter = Meter(name, seed, sizes, seconds, trace)
    with tempfile.TemporaryDirectory(dir=checkout.OUT) as workdir:
        inputs = wl.prepare(name, seed, sizes, workdir)
        model = fits = None
        if name != "build_mixture":
            t0 = time.perf_counter()
            model = wl.build(inputs)
            metrics["model.compile_model_s"] = time.perf_counter() - t0
        if name in FITS:
            fits = measure_fits(inputs, model, trace, tally, tracer, metrics, meter)
        elif name == "cli_lm":
            measure_cli(inputs, trace, tally, tracer, metrics, workdir, meter)
        else:
            measure_builds(inputs, trace, tally, tracer, metrics, meter)
        if not trace:
            metrics.update(meter.setup_s(sizes["setup_reps"]))
        metrics["peak_rss_mb"] = peak_rss_mb()
        # Checks over pooled draws or through the interpreted reference run
        # after the memory reading: their memory is the benchmark's, not probkit's.
        if fits is not None:
            posterior_gate(name, fits, tally)
        if model is None:
            model = wl.build(inputs)
        metrics["graph.ref_ns_per_node"] = gradient_gate(model, inputs, tally) * 1e9
        metrics["graph.compile_s"] = recompile_s(model)
        metrics["graph.nodes"] = len(model.tape)
        metrics["model.nodes_per_obs"] = len(model.tape) / inputs.n_obs
        metrics["fit_fail_ratio"] = ratio(tally.failed, tally.attempted)
    if trace:
        tracer.write(checkout.OUT / f"spans-{name}-seed{seed}.json.gz")

    wanted = (PER_LAYER if name in FITS else {**PER_LAYER, **CLI_LAYER}) if trace else {**E2E, **E2E_EXTRA}
    shown = {k: {"value": metrics[k], "unit": UNITS[k]} for k in wanted if k in metrics}
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: v for k, v in shown.items() if trace or k in E2E},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "stamp": stamp(), "failures": dict(tally.failures),
        "metrics": shown, "other": {k: v for k, v in metrics.items() if k not in shown},
        "result": result,
    }
    return result, record


# --- every workload at once ------------------------------------------------


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Each workload in its own process (separate memory high-water marks)."""
    records = []
    for name in wl.NAMES:
        proc = subprocess.run(
            [sys.executable, str(checkout.HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900, cwd=checkout.ROOT,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"{name} exited {proc.returncode}")
        records.append(json.loads(proc.stdout.splitlines()[-2])["record"])
    print(f"stamp: {json.dumps(records[0]['stamp'])}")
    names = sorted({m for r in records for m in r["metrics"]})
    print(f"{'metric':<28}{'unit':<7}" + "".join(f"{r['workload']:>15}" for r in records))
    for m in names:
        cells = "".join(
            f"{r['metrics'][m]['value']:>15.6g}" if m in r["metrics"] else f"{'n/a':>15}"
            for r in records
        )
        print(f"{m:<28}{UNITS[m]:<7}{cells}")
    print(f"{'failures':<35}" + "".join(f"{sum(r['failures'].values()):>15}" for r in records))
    for r in records:
        if r["failures"]:
            print(f"  {r['workload']}: {r['failures']}")
    return {
        "correct": all(r["result"]["correct"] for r in records),
        "attempted": sum(r["result"]["attempted"] for r in records),
        "failed": sum(r["result"]["failed"] for r in records),
        "metrics": {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*wl.NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds, args.trace)))
        return 0
    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  wl.SIZES[args.workload])
    path = checkout.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

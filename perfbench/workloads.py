"""Inputs, models and units of work for the four benchmark workloads.

Every input comes from the workload seed through probkit's own generator,
so one seed names one dataset and one sequence of chain seeds. Only
probkit's public API is called; the CLI workloads go through
``probkit.cli.main`` exactly as a user would.

Why four workloads: each layer needs one where it matters.
  fit_glm        graph kernels dominate (≈100% of sampling time)
  fit_small      31-node graph, so hmc and rng per-transition overhead shows
  cli_lm         CSV I/O, the process pool, diagnostics, the exp transform
  build_mixture  tape appends and interning over ~580k nodes; set-up and memory
"""

from __future__ import annotations

import csv
import math
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from probkit import cli, rng
from probkit import distributions as dists
from probkit.diagnostics import summarize
from probkit.hmc import HmcConfig, sample
from probkit.model import compile_model, predictor, traverse

NAMES = ("fit_glm", "fit_small", "cli_lm", "build_mixture")

# Full sizes. With the pure-Python kernel fallback (numba absent) a fit_glm
# chain takes ≈ 5 s, a fit_small chain ≈ 0.6 s and a build_mixture build ≈ 4 s,
# so a run holds several units and reports their median. Units are short
# because the host's speed is read between them (hostspeed.py): the shorter
# the unit, the closer that reading is to the speed the unit ran at.
SIZES = {
    "fit_glm": dict(rows=300, warmup=30, iters=60, traced_units=2, grad_points=3, setup_reps=5),
    "fit_small": dict(warmup=200, iters=1000, traced_units=4, grad_points=3, setup_reps=5),
    "cli_lm": dict(rows=200, warmup=100, iters=200, traced_units=1, grad_points=3, setup_reps=5),
    "build_mixture": dict(rows=20000, traced_units=1, grad_points=1, setup_reps=5),
}

# Sizes for the benchmark's own smoke test: same code paths, under a second each.
TINY = {
    "fit_glm": dict(rows=30, warmup=30, iters=60, traced_units=2, grad_points=2, setup_reps=1),
    "fit_small": dict(warmup=50, iters=200, traced_units=2, grad_points=2, setup_reps=1),
    "cli_lm": dict(rows=20, warmup=20, iters=40, traced_units=1, grad_points=2, setup_reps=1),
    "build_mixture": dict(rows=200, traced_units=1, grad_points=1, setup_reps=1),
}

GLM_TRUTH = (0.3, 1.0, -0.7, 0.5, -0.4)  # intercept, then 4 covariate slopes
GLM_PRIOR_SD = 2.5
LM_TRUTH = {"alpha": 4.0, "beta": -1.5, "sigma": 0.5}  # `probkit simulate lm` defaults
LM_PRIOR_SD = 10.0  # `probkit fit` default
MIXTURE_TRUTH = dict(mus=[-2.0, 1.0, 3.0], thetas=[0.3, 0.2, 0.5], sigma=0.5)
COIN_POSTERIOR = (9.0, 7.0)  # Beta(3,3) prior, 6 successes in 10 trials


@dataclass
class Inputs:
    """Everything a workload needs before its first unit of work."""

    name: str
    seed: int
    sizes: dict
    rows: list = field(default_factory=list)
    n_obs: int = 0


# --- data -----------------------------------------------------------------


def glm_rows(seed: int, n: int) -> list[tuple[tuple[float, ...], int]]:
    """Logistic-regression rows: 4 standard-normal covariates, a 0/1 response."""
    state = int(seed)
    rows = []
    for _ in range(n):
        x = []
        for _ in range(4):
            state, z = rng.std_normal.run(state)
            x.append(z)
        eta = GLM_TRUTH[0] + sum(b * v for b, v in zip(GLM_TRUTH[1:], x))
        state, u = rng.rand_double.run(state)
        rows.append((tuple(x), 1 if u < 1.0 / (1.0 + math.exp(-eta)) else 0))
    return rows


def read_lm_csv(path: Path) -> list[tuple[float, float]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [(float(x), float(y)) for x, y in reader]


# --- models ---------------------------------------------------------------


def glm_model(rows):
    coefs = traverse(dists.Normal(0.0, GLM_PRIOR_SD).param(f"b{j}") for j in range(5))

    def likelihood(b):
        def link(x):
            eta = b[0] + b[1] * x[0] + b[2] * x[1] + b[3] * x[2] + b[4] * x[3]
            return dists.Binomial(eta.sigmoid(), 1)

        return predictor(link).fit(rows).map(lambda _: b)

    return coefs.flat_map(likelihood)


def coin_model():
    return dists.Beta(3.0, 3.0).param("p").flat_map(
        lambda p: dists.Binomial(p, 10).fit(6).map(lambda _: p)
    )


def prepare(name: str, seed: int, sizes: dict, workdir: Path | None = None) -> Inputs:
    """Generate a workload's inputs from its seed."""
    inputs = Inputs(name=name, seed=seed, sizes=sizes)
    if name == "fit_glm":
        inputs.rows = glm_rows(seed, sizes["rows"])
    elif name == "fit_small":
        inputs.rows = [6]
    elif name == "cli_lm":
        path = Path(workdir) / "lm.csv"
        code = cli.main(["simulate", "lm", "--n", str(sizes["rows"]), "--seed", str(seed),
                         "--out", str(path)])
        if code != 0:
            raise RuntimeError(f"probkit simulate lm exited {code}")
        inputs.rows = read_lm_csv(path)
    else:
        t = MIXTURE_TRUTH
        _, inputs.rows = cli.simulate_mixture(sizes["rows"], seed, t["mus"], t["thetas"], t["sigma"])
    inputs.n_obs = len(inputs.rows)
    return inputs


def build(inputs: Inputs):
    """Compile the workload's model over its inputs."""
    if inputs.name == "fit_glm":
        return compile_model(glm_model(inputs.rows))
    if inputs.name == "fit_small":
        return compile_model(coin_model())
    if inputs.name == "cli_lm":
        return compile_model(cli.build_model("lm", inputs.rows, LM_PRIOR_SD))
    return compile_model(cli.build_model("mixture", inputs.rows, None))


def first_evaluation(model):
    """The call that ends set-up: value and gradient at the origin."""
    return model.value_and_gradient(np.zeros(model.dim))


# --- units of work --------------------------------------------------------


@dataclass
class Fit:
    """One chain: its work, its time, and how it ended."""

    transitions: int = 0
    seconds: float = 0.0
    min_ess: float = 0.0
    accept_count: int = 0
    proposal_count: int = 0
    final_eps: float = 0.0
    error: str | None = None
    draws: np.ndarray | None = None


def chain_config(inputs: Inputs, k: int) -> HmcConfig:
    s = inputs.sizes
    return HmcConfig(warmup_iters=s["warmup"], sample_iters=s["iters"],
                     seed=rng.chain_seed(inputs.seed, k))


def run_chain(model, inputs: Inputs, k: int, sample=sample, summarize=summarize) -> Fit:
    """Sample chain k; a chain that raises contributes no work."""
    cfg = chain_config(inputs, k)
    t0 = time.perf_counter()
    try:
        chain = sample(model, cfg)
    except Exception as err:  # tallied by type; the fit itself is not retried
        return Fit(seconds=time.perf_counter() - t0, error=type(err).__name__)
    seconds = time.perf_counter() - t0
    summary = summarize(chain, max_lag=10)
    return Fit(
        transitions=cfg.warmup_iters + cfg.sample_iters,
        seconds=seconds,
        min_ess=min(p.ess for p in summary.params),
        accept_count=chain.accept_count,
        proposal_count=chain.proposal_count,
        final_eps=chain.final_eps,
        draws=chain.draws,
    )


def _read_summary(path: Path) -> dict[str, dict[str, float]]:
    with open(path, newline="") as fh:
        return {row["param"]: {k: float(v) for k, v in row.items() if k != "param"}
                for row in csv.DictReader(fh)}


@dataclass
class Command:
    """One `probkit` invocation through ``cli.main``."""

    argv: list
    chains: int = 0
    seconds: float = 0.0
    error: str | None = None  # exception type, or "exit:<code>"


def run_command(argv: list, span) -> Command:
    cmd = Command(argv=[str(a) for a in argv])
    t0 = time.perf_counter()
    try:
        with span(f"cli.{cmd.argv[0]}"):
            code = cli.main(cmd.argv)
        if code != 0:
            cmd.error = f"exit:{code}"
    except Exception as err:  # the CLI let an exception escape: a failure by type
        cmd.error = type(err).__name__
    cmd.seconds = time.perf_counter() - t0
    return cmd


@dataclass
class Pipeline:
    """The commands one session ran and, per chain, its Fit and summary rows."""

    commands: list = field(default_factory=list)
    fits: list = field(default_factory=list)  # per chain: (Fit, summary dict or None)


def run_pipeline(inputs: Inputs, k: int, workdir: Path, span) -> Pipeline:
    """simulate lm, fit lm --chains 1, fit lm --chains 2, diagnose: one user session."""
    s = inputs.sizes
    out = Pipeline()
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        tmp = Path(tmp)
        data = tmp / "lm.csv"
        out.commands.append(run_command(
            ["simulate", "lm", "--n", s["rows"], "--seed", inputs.seed, "--out", data], span))
        common = ["--data", data, "--warmup", s["warmup"], "--iters", s["iters"], "--thin", 1,
                  "--seed", rng.chain_seed(inputs.seed, k)]
        for chains in (1, 2):
            cmd = run_command(["fit", "lm", *common, "--chains", chains,
                               "--out", tmp / f"chains{chains}"], span)
            cmd.chains = chains
            out.commands.append(cmd)
            suffixes = [""] if chains == 1 else [f"_chain{i}" for i in range(chains)]
            for suffix in suffixes:
                fit = Fit(seconds=cmd.seconds / chains, error=cmd.error)
                summary = None
                if cmd.error is None:
                    summary = _read_summary(tmp / f"chains{chains}" / f"summary{suffix}.csv")
                    fit.transitions = s["warmup"] + s["iters"]
                    fit.min_ess = min(row["ess"] for row in summary.values())
                out.fits.append((fit, summary))
        draws = tmp / "chains1" / "draws.csv"
        if draws.exists():  # a failed fit leaves nothing to diagnose
            out.commands.append(run_command(
                ["diagnose", "--draws", draws, "--out", tmp / "diagnose.csv"], span))
    return out

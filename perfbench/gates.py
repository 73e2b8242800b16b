"""Correctness gates. Each returns True when the output is right.

The statistical gates compare against known answers with tolerances in
Monte Carlo standard errors (MCSE, the posterior sd over the square root
of the effective sample size) or posterior sds, wide enough that a correct
program fails them on a vanishing share of seeds.
"""

from __future__ import annotations

import math
import time

import numpy as np

from probkit import rng
from probkit.diagnostics import effective_sample_size
from probkit.graph import GraphDomainError

from workloads import COIN_POSTERIOR, MIXTURE_TRUTH

GRAD_REL_TOL = 1e-9
COIN_MCSE = 5.0  # |estimate - exact| allowed, in MCSE
RECOVERY_SD = 4.0  # |posterior mean - truth| allowed, in posterior sd (MC error folded in)


def close(a: float, b: float, rel: float = GRAD_REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def prior_points(model, seed: int, count: int):
    """``count`` ancestral prior draws in unconstrained space."""
    state = int(seed)
    points = []
    while len(points) < count:
        try:
            state, x = model.prior_draw_unconstrained(state)
        except ValueError:  # a draw on its support's edge; move the stream on
            state = rng.lcg_step(state)
            continue
        points.append(x)
    return points


def gradient_matches_reference(model, x, ref_seconds: list) -> bool:
    """Compiled value and gradient equal the interpreted ``Tape`` reference;
    a point off the density's domain must be refused by both, at one node.
    Appends the reference pass's time to ``ref_seconds``."""
    try:
        value, grad = model.value_and_gradient(x)
    except GraphDomainError as err:
        try:
            model.tape.forward_eval(list(map(float, x)))
        except GraphDomainError as ref_err:
            return ref_err.node == err.node
        return False
    t0 = time.perf_counter()
    ref_value = model.tape.forward_eval(list(map(float, x)))
    ref_grad = model.tape.backward()
    ref_seconds.append(time.perf_counter() - t0)
    return close(value, ref_value) and all(close(float(g), r) for g, r in zip(grad, ref_grad))


def coin_posterior_matches(draws) -> bool:
    """Mean and sd of p agree with the exact Beta(9, 7) posterior."""
    a, b = COIN_POSTERIOR
    mean = a / (a + b)
    sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
    x = np.asarray(draws, dtype=np.float64)[:, 0]
    se_mean = sd / math.sqrt(effective_sample_size(x))
    dev2 = (x - x.mean()) ** 2
    se_sd = float(dev2.std()) / math.sqrt(effective_sample_size(dev2)) / (2.0 * sd)
    return (abs(float(x.mean()) - mean) <= COIN_MCSE * se_mean
            and abs(float(x.std(ddof=1)) - sd) <= COIN_MCSE * se_sd)


def recovers(truth, means, sds, ess) -> bool:
    """Every generating value lies within RECOVERY_SD posterior sds of its
    posterior mean, the sd widened by the mean's own MCSE."""
    for t, m, s, e in zip(truth, means, sds, ess):
        if not abs(m - t) <= RECOVERY_SD * s * math.sqrt(1.0 + 1.0 / e):
            return False
    return True


def mixture_log_density(rows, x) -> float:
    """Independent numpy evaluation of the `mixture` CLI model's log density
    at unconstrained ``x`` = (log theta_raw_0..2, mu_0..2, log sigma)."""
    k = len(MIXTURE_TRUTH["mus"])
    u_raw, mus, u_sigma = np.asarray(x[:k]), np.asarray(x[k:2 * k]), float(x[2 * k])
    raw, sigma = np.exp(u_raw), math.exp(u_sigma)
    # Gamma(3, 1) on each raw weight, Normal(0, 1) on each mean, Exponential(3)
    # on sigma, plus the log-Jacobians of the exp maps.
    prior = float(np.sum(2.0 * u_raw - raw - math.lgamma(3.0) + u_raw))
    prior += float(np.sum(-0.5 * math.log(2.0 * math.pi) - 0.5 * mus**2))
    prior += math.log(3.0) - 3.0 * sigma + u_sigma
    y = np.asarray([r[0] for r in rows])[:, None]
    comp = (np.log(raw / raw.sum()) - 0.5 * np.log(2.0 * math.pi * sigma**2)
            - (y - mus) ** 2 / (2.0 * sigma**2))
    peak = comp.max(axis=1, keepdims=True)
    like = peak[:, 0] + np.log(np.exp(comp - peak).sum(axis=1))
    return prior + float(like.sum())

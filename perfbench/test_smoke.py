"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that counts repeat exactly for a seed, and that runs from different
environments are refused by compare.py.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

BENCH = json.loads((run.checkout.ROOT / "BENCHMARK.json").read_text())
GATED = [w["name"] for w in BENCH["workloads"]]

# Counts that depend only on the seed, never on timing.
EXACT = ("graph.vag_calls", "graph.nodes", "graph.domain_error_ratio", "hmc.transitions",
         "hmc.accept_ratio", "hmc.final_eps", "hmc.min_ess", "hmc.grad_evals_per_ess",
         "rng.normal_draws", "model.nodes_per_obs")


def tiny(name, trace, seed=5):
    return run.run_workload(name, seed, 0.0, trace, wl.TINY[name])


def test_benchmark_json_lists_known_workloads():
    assert set(GATED) <= set(wl.NAMES)


@pytest.mark.parametrize("name", GATED)
def test_gated_workloads_emit_every_metric_with_its_unit(name):
    for trace, spec in ((False, BENCH["end_to_end"]), (True, BENCH["per_layer"])):
        result, record = tiny(name, trace)
        assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in spec}
        for m in spec:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        if not trace:
            assert set(record["metrics"]) == set(run.E2E) | set(run.E2E_EXTRA)


@pytest.mark.parametrize("name", wl.NAMES)
def test_counts_repeat_exactly_per_seed(name):
    first, rec1 = tiny(name, True)
    second, rec2 = tiny(name, True)
    assert (first["attempted"], first["failed"], rec1["failures"]) == \
        (second["attempted"], second["failed"], rec2["failures"])
    counts = [k for k in EXACT if k in first["metrics"]]
    assert "graph.nodes" in counts
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}


def test_cli_lm_reports_every_end_to_end_metric_and_its_failures():
    result, record = tiny("cli_lm", False)
    assert set(record["metrics"]) == set(run.E2E) | set(run.E2E_EXTRA)
    assert record["metrics"]["fit_fail_ratio"]["value"] == result["failed"] / result["attempted"]
    assert sum(record["failures"].values()) == result["failed"]


def test_compare_refuses_different_stamps():
    _, record = tiny("fit_small", False)
    other = json.loads(json.dumps(record))
    other["stamp"]["have_numba"] = not record["stamp"]["have_numba"]
    with pytest.raises(compare.StampMismatch):
        compare.compare([record], [other], BENCH)
    assert compare.compare([record], [record], BENCH)

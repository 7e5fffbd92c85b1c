"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import srbetti  # noqa: E402
import srbetti.linalg  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, monkeypatch, capsys) -> dict:
    """A one-second run whose loop stops after one repetition."""
    monkeypatch.setattr(run, "min_ops", lambda tail: 1)
    argv = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.fixture
def restore_srbetti():
    """Undo the rebinding that Tracer.install does to the package."""
    saved = {
        name: dict(vars(mod)) for name, mod in sys.modules.items()
        if name == "srbetti" or name.startswith("srbetti.")
    }
    dd = srbetti.CochainComplex.check_dd_zero
    yield
    for name, attrs in saved.items():
        vars(sys.modules[name]).update(attrs)
    srbetti.CochainComplex.check_dd_zero = dd


def test_spec_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, _needs, _value in tracer.LAYER_METRICS
    ]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_prints_every_end_to_end_metric(name, monkeypatch, capsys):
    result = bench(name, 0, monkeypatch, capsys)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_traced_run_prints_every_layer_metric(monkeypatch, capsys):
    result = bench("tor-verify", 1, monkeypatch, capsys)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert None not in values.values()
    for layer in tracer.LAYERS:
        assert values[f"{layer}.self_s"] > 0, layer


def digests(name: str, seed: int, hashseed: str) -> list[str]:
    code = (
        "import sys, workloads as W; w = W.WORKLOADS[sys.argv[1]]; "
        "print([W.input_digest(W.input_complex(w, int(sys.argv[2]), k)) for k in range(10)])"
    )
    env = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{BENCH}", PYTHONHASHSEED=hashseed)
    out = subprocess.run([sys.executable, "-c", code, name, str(seed)], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    return out.stdout


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    assert digests(name, 11, "1") == digests(name, 11, "2")
    assert digests(name, 11, "1") != digests(name, 12, "1")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_wrong_rank_is_caught_by_the_oracles(name, monkeypatch):
    rank = srbetti.linalg.rank

    def off_by_one(M, f):
        return rank(M, f) + 1 if M.rows and M.cols else rank(M, f)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "srbetti" or mod_name.startswith("srbetti."):
            for key, value in list(vars(mod).items()):
                if value is rank:
                    monkeypatch.setattr(mod, key, off_by_one)
    workload = workloads.WORKLOADS[name]
    K = workloads.input_complex(workload, 1, 0)
    srbetti.reduced_cohomology_dims.cache_clear()
    try:
        rep = workloads.run_repetition(workload, K)
    finally:
        srbetti.reduced_cohomology_dims.cache_clear()  # holds wrong answers now
    metrics, _notes = run.end_to_end([rep], [0.1], workload.tail, len(workloads.ORDER))
    assert metrics["pass_ratio"]["value"] < 1  # fail_ratio > 0


def test_removed_function_makes_its_metrics_absent(monkeypatch, restore_srbetti):
    monkeypatch.delattr(srbetti.tor, "koszul_piece")
    t = tracer.Tracer()
    t.install()
    srbetti.betti_table(srbetti.rp2_complex(), srbetti.QQ)
    metrics = tracer.layer_metrics(tracer.merge([t.summary()], [1.0]), 1, 1.0)
    for name in ("tor.koszul_piece.calls", "tor.koszul_piece.self_s", "tor.piece_gens"):
        assert metrics[name]["value"] is None
    assert metrics["tor.self_s"]["value"] == 0
    assert metrics["betti.omega_visited"]["value"] == 64
    assert metrics["complexes.full_subcomplex.calls"]["value"] == 64


def test_oracles_accept_known_tables():
    K = srbetti.rp2_complex()  # β differs between ℚ and GF(2)
    tables = [srbetti.betti_table(K, srbetti.QQ), srbetti.betti_table(K, srbetti.GF2)]
    assert tables[0].entries != tables[1].entries
    assert workloads.check_hochster(K, tables) == [True, True]
    assert workloads.check_hochster(K, tables[::-1]) == [False, False]

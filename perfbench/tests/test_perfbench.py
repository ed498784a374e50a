"""Tests of the benchmark itself: seeded inputs, metric names, smoke runs
of every workload, and that corrupted results are counted as failures.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import core, inputs, oracles, run

UNIT_RE = r"^[A-Za-z0-9_/%.-]{1,16}$"


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a smoke size: one setup, few small inputs."""
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "IMPORT_PAIRS", 1)
    monkeypatch.setattr(inputs, "SCALE_NODES", (16, 17, 18))
    monkeypatch.setattr(inputs, "EXEC_SIZE", 16)


# ---------------------------------------------------------------- inputs


def test_same_seed_gives_same_inputs():
    def graphs(seed):
        return [
            sorted((e.src, e.dst, sorted(map(oracles.vec, e.vectors)))
                   for e in inputs.build_graph(spec).edges())
            for spec in inputs.scale_specs(seed)
        ]

    assert inputs.scale_specs(4) == inputs.scale_specs(4)
    assert graphs(4) == graphs(4)
    assert graphs(4) != graphs(5)
    keys = [k for k, _ in inputs.gallery_sources()]
    assert inputs.round_order(4, 2, keys) == inputs.round_order(4, 2, keys)
    assert sorted(inputs.round_order(4, 2, keys)) == sorted(keys)
    assert inputs.array_seed(4, "fig2") == inputs.array_seed(4, "fig2")
    assert inputs.array_seed(4, "fig2") != inputs.array_seed(5, "fig2")


def test_scale_graphs_are_stratified_by_size():
    specs = inputs.scale_specs(9)
    assert [s.nodes for s in specs] == list(inputs.SCALE_NODES)
    assert [s.edge_prob for s in specs] == [s.edge_prob for s in inputs.scale_specs(10)]


# --------------------------------------------------------------- metrics


def test_metric_names_and_units():
    names = [n for n, _, _, _ in core.E2E] + [n for n, _, _ in core.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert core.NAME_RE.match(name), name
    for _, unit, better, bound in core.E2E:
        assert re.match(UNIT_RE, unit)
        assert better in ("lower", "higher")
        assert 0 < bound <= 0.25
    for _, unit, better in core.PER_LAYER:
        assert re.match(UNIT_RE, unit)
        assert better in ("lower", "higher")
    bounds = {name: bound for name, _, _, bound in core.E2E}
    assert bounds["setup_s"] == max(bounds.values())
    assert set(core.E2E_MEANING) == set(core.WORKLOADS)


# ------------------------------------------------------------ smoke runs


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", core.WORKLOADS)
def test_smoke_run_has_no_failures(tiny, workload, trace):
    result = run.run(workload, seed=3, seconds=0.2, trace=trace)
    assert result["failed"] == 0, result["_summary"]["failures"]
    assert result["correct"] and result["attempted"] > 0
    metrics = result["metrics"]
    if trace:
        assert list(metrics) == [n for n, _, _ in core.PER_LAYER]
        assert (core.WORK / "traces" / f"{workload}-seed3.json").is_file()
    else:
        assert list(metrics) == [n for n, _, _, _ in core.E2E]
        assert all(m["value"] > 0 for m in metrics.values()), metrics
    assert "REPRO_FUSE_STORE" not in os.environ


# ------------------------------------------------------------ corruption


def test_perturbed_retiming_is_caught():
    from repro.fusion import fuse
    from repro.gallery.paper import figure2_mldg
    from repro.retiming import Retiming
    from repro.vectors import IVec

    g = figure2_mldg()
    res = fuse(g)
    assert oracles.fusion_problems(g, res) == []
    shifts = dict(res.retiming.as_dict())
    shifts["A"] = shifts["A"] - IVec(5, 0)  # A's out-edges go negative
    bad = dataclasses.replace(res, retiming=Retiming(shifts, dim=2))
    assert any("retimed graph differs" in p for p in oracles.fusion_problems(g, bad))
    # judged on its own, without the result's retimed graph: Theorem 3.1
    problems = oracles.retiming_problems(g, oracles.shifts_of(bad.retiming), "doall")
    assert any(p.startswith("Theorem 3.1") for p in problems)
    # a retiming that stays legal but serialises the row breaks Property 4.1
    assert any(
        p.startswith("Property 4.1")
        for p in oracles.retiming_problems(g, {"A": (0, 0)}, "doall")
    )


def test_corrupted_graph_fuse_raises_fail_ratio(tiny, monkeypatch):
    from repro.core.session import Session
    from repro.retiming import Retiming
    from repro.vectors import IVec

    real = Session.fuse

    def perturbed(self, g, **kw):
        res = real(self, g, **kw)
        shifts = {k: v + IVec(0, -3) if i == 0 else v
                  for i, (k, v) in enumerate(sorted(res.retiming.as_dict().items()))}
        return dataclasses.replace(res, retiming=Retiming(shifts, dim=2))

    monkeypatch.setattr(Session, "fuse", perturbed)
    result = run.run("compile-scale", seed=3, seconds=0.2, trace=False)
    assert result["failed"] > 0 and not result["correct"]


def test_flipped_output_cell_raises_fail_ratio(tiny, monkeypatch):
    import repro.core.backends as backends

    real = backends.execute_fused

    def flipped(name, *args, **kw):
        store = real(name, *args, **kw)
        if name == "numpy":
            arr = next(iter(store.arrays().values()))
            arr.flat[arr.size // 2] += 1.0
        return store

    monkeypatch.setattr(backends, "execute_fused", flipped)
    result = run.run("execute-gallery", seed=3, seconds=0.2, trace=False)
    assert result["failed"] > 0 and not result["correct"]


def test_forged_serve_response_is_caught():
    from repro.core.session import Session
    from repro.gallery.paper import figure2_code

    out = Session.isolated().fuse_program(figure2_code())
    expected = oracles.serve_reference(out, False)
    assert oracles.serve_problems(dict(expected, status="ok"), expected) == []
    forged = dict(expected, status="ok", retiming={k: [0, 0] for k in expected["retiming"]})
    assert oracles.serve_problems(forged, expected)
    assert oracles.serve_problems(dict(expected, status="degraded"), expected)


def test_forged_serve_response_raises_fail_ratio(tiny, monkeypatch):
    from perfbench import wl_serve

    real = wl_serve.Daemon.compile

    def forged(self, body):
        resp = real(self, body)
        resp["emitted"] = (resp.get("emitted") or "") + "\n! forged"
        return resp

    monkeypatch.setattr(wl_serve.Daemon, "compile", forged)
    result = run.run("serve-gallery", seed=3, seconds=0.2, trace=False)
    assert result["failed"] > 0 and not result["correct"]


# ----------------------------------------------------------- hermeticity


def test_hermetic_guard_sees_env_and_file_changes(tmp_path, monkeypatch):
    (tmp_path / "a.txt").write_text("x")
    guard = core.HermeticGuard(tmp_path)
    assert guard.problems() == []
    monkeypatch.setenv("REPRO_FUSE_STORE", str(tmp_path / "s.db"))
    (tmp_path / "a.txt").write_text("y")
    problems = guard.problems()
    assert any("environment" in p for p in problems)
    assert any("a.txt" in p for p in problems)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(core.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(core.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compile-gallery",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not Path(tmp_path / ".perfbench").exists()

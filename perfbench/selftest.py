"""Tests of the benchmark itself: generators, oracles, failure accounting
and the metric names it prints.

Not collected by a plain ``pytest`` run (the file name does not match
``test_*.py``), because two of the tests take tens of seconds.  Run with

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import coxvol  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from coxvol import volume  # noqa: E402


def _validated(shape: inputs.Shape):
    lp = coxvol.parse_polyhedron(shape.text())
    assert coxvol.validate(lp.base).passed
    return lp


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_loebell_counts_and_validate(n):
    shape = inputs.loebell(n)
    assert shape.counts == (4 * n, 6 * n, 2 * n + 2)
    sizes = sorted(len(f) for f in shape.faces)
    assert sizes == sorted([5] * (2 * n) + [n, n])
    for seed in range(3):
        relabeled = inputs.relabel(shape, random.Random(seed))
        assert relabeled.counts == shape.counts
        lp = _validated(relabeled)
        assert set(lp.labels.values()) == {2}


def test_relabel_changes_ids_not_structure():
    shape = inputs.loebell(5)
    a = inputs.relabel(shape, random.Random(1))
    b = inputs.relabel(shape, random.Random(1))
    assert a == b
    assert a.faces != shape.faces
    assert sorted(map(len, a.faces)) == sorted(map(len, shape.faces))


def test_lambert_inputs_validate():
    cube = inputs.from_coxvol(coxvol.load("lambert_cube"))
    for seed in range(3):
        shape = inputs.relabel(inputs.lambert(cube, (3, 5, 8)), random.Random(seed))
        lp = _validated(shape)
        assert sorted(lp.labels.values()) == [2] * 9 + [3, 5, 8]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_inputs_for_each_workload(workload):
    batches = workloads.inputs_for(workload, seed=7)
    assert batches == workloads.inputs_for(workload, seed=7)
    assert batches != workloads.inputs_for(workload, seed=8)
    assert len(batches) == workloads.VARIANTS[workload]
    # every batch holds the same kinds of input, each drawn afresh
    assert len({len(batch) for batch in batches}) == 1
    assert len({tuple(batch) for batch in batches}) == len(batches)


def test_host_speed_probe():
    assert hostspeed.slowdown(hostspeed.PROBE_REF_S) == 1.0
    times = [hostspeed.probe() for _ in range(20)]
    assert all(t > 0 for t in times)
    # the reference is a full-speed time on the machine the benchmark was
    # written on; any machine able to run the benchmark is within 20x of it
    assert 0.05 < hostspeed.slowdown(min(times)) < 20


def test_lobachevsky_oracle():
    # 3 lob(pi/3) is the volume of the regular ideal tetrahedron
    assert 3 * oracles.lob(math.pi / 3) == pytest.approx(1.0149416064096536, abs=1e-14)
    for x in (0.1, 0.7, 1.5, 2.9, -0.4):
        assert oracles.lob(x) == pytest.approx(coxvol.lob(x), abs=1e-14)


def test_closed_forms_reference_values():
    assert oracles.vesnin_loebell_volume(5) == pytest.approx(4.306207600731, abs=1e-12)
    assert oracles.kellerhals_lambert_volume(3, 3, 3) == pytest.approx(0.3244234492139, abs=1e-11)


def test_lambert_volumes_match_kellerhals_on_every_multiset():
    """All 56 label multisets from {3..8}: error within 1e-8 and within the
    volume's own error estimate."""
    cube = coxvol.load("lambert_cube")
    worst = 0.0
    for lmn in combinations_with_replacement(inputs.LAMBERT_LABELS, 3):
        labels = dict(cube.labels)
        labels.update(zip(inputs.LAMBERT_BAND_EDGES, lmn))
        res = volume.schlafli_volume(coxvol.LabeledPolyhedron(cube.base, labels))
        err = abs(res.volume - oracles.kellerhals_lambert_volume(*lmn))
        assert err <= res.error_estimate, lmn
        worst = max(worst, err)
    assert worst <= oracles.LAMBERT_TOL


def test_census_reference_values():
    batches = workloads.inputs_for("cube-census", seed=3)
    tally = run.Tally()
    run.run_batch(workloads.ops_for("cube-census", batches[:1], [])[0], tally)
    assert tally.attempted == 6
    assert tally.failures == {}


def test_injected_wrong_volume_is_a_failed_op(monkeypatch):
    batch = workloads.inputs_for("lambert-volume", 1)[0][:2]
    [ops] = workloads.ops_for("lambert-volume", [batch], [])
    real = volume.schlafli_volume

    def off_by_a_little(lp):
        res = real(lp)
        return volume.VolumeResult(res.volume + 1e-6, res.error_estimate, res.nodes)

    monkeypatch.setattr(volume, "schlafli_volume", off_by_a_little)
    tally = run.Tally()
    run.run_batch(ops, tally)
    assert tally.attempted == 2 and tally.failed == 2
    assert not tally.correct
    assert {key[1] for key in tally.failures} == {"volume"}


def test_injected_exception_is_a_failed_op(monkeypatch):
    from coxvol import census

    def broken(*args):
        raise RuntimeError("injected")

    monkeypatch.setattr(census, "cube_three_threes", broken)
    ops = workloads.ops_for("cube-census", workloads.inputs_for("cube-census", 1), [])[0]
    tally = run.Tally()
    run.run_batch([op for op in ops if op.name == "three-threes"], tally)
    [(name, stage, reason, known)] = tally.failures
    assert (name, stage, known) == ("three-threes", "census", None)
    assert reason == "RuntimeError: injected"
    assert not tally.correct


def test_known_defect_counts_but_keeps_run_correct():
    tally = run.Tally()
    op = workloads.Op("L(5)", lambda: None)
    tally.record(op, 0.1, workloads.OpFailure("volume", "0.0", workloads.LOEBELL_ZERO_VOLUME))
    assert tally.failed == 1 and tally.correct


def _run(*args, cwd=ROOT):
    out = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                         capture_output=True, text=True, timeout=600)
    return out


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(workloads.WORKLOADS) == [w["name"] for w in spec["workloads"]]
    out = _run("--workload", "cube-census", "--seed", "2", "--seconds", "0.1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    printed = {line.split()[0] for line in out.stdout.splitlines()[:-1]}
    assert {m["name"] for m in wanted} <= printed
    if trace == "0":
        assert {"goodput_ops_s", "fail_frac"} <= printed


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run("--workload", "lambert-volume", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert "{" not in out.stdout

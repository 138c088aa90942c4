"""The three benchmark workloads: their inputs, their ops and the oracle
checks on every op's output.

Each workload is split in two parts.  ``inputs_for`` generates the
seeded batches of inputs and parses and validates each one; it is the
timed set-up and assumes ``coxvol`` is importable.  ``ops_for`` turns
each batch of inputs into a batch of ops that the runner times; it
computes the reference values first, so oracle work never lands inside
an op's timing.

Every call into ``coxvol`` goes through a module attribute at call time
(``volume.schlafli_volume(...)``), so the traced run's wrappers see it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import inputs

WORKLOADS = {
    "lambert-volume": "Schlafli quadrature and warm-started continuation solves on "
                      "Lambert cubes; no Haken classification and no census.",
    "loebell-pipeline": "The full parse-to-volume pipeline on right-angled L(5..7); "
                        "circuit enumeration in classify dominates, realize is a cold solve.",
    "cube-census": "Vectorized admissibility screens, orbit canonicalization and exact "
                   "re-checks; the only workload with a large memory peak, no volume code.",
}

LAMBERT_BATCH = 4
LOEBELL_SIZES = (5, 6, 7)
# batches of inputs per run, each drawn afresh from the seed
VARIANTS = {"lambert-volume": 8, "loebell-pipeline": 8, "cube-census": 4}


class OpFailure(Exception):
    """An op's stage raised, or returned a value its oracle rejects."""

    def __init__(self, stage: str, reason: str, known: str | None = None):
        super().__init__(f"{stage}: {reason}")
        self.stage = stage
        self.reason = reason
        self.known = known


@dataclass(frozen=True)
class Input:
    name: str
    text: str
    meta: tuple = ()


@dataclass
class Op:
    name: str
    run: Callable[[], None]  # raises OpFailure when a stage fails its oracle


def stage(name: str, fn, *args):
    """Run one pipeline stage; any error of the program fails the op."""
    try:
        return fn(*args)
    except Exception as exc:  # the run carries on; the op records stage and reason
        raise OpFailure(name, f"{type(exc).__name__}: {exc}") from exc


def expect(stage_name: str, ok: bool, reason: str, known: str | None = None) -> None:
    if not ok:
        raise OpFailure(stage_name, reason, known)


# ---------------------------------------------------------------------------
# timed set-up: generate, parse and validate


def inputs_for(workload: str, seed: int) -> list[list[Input]]:
    """Generate the workload's batches of inputs and check each input
    passes ``validate``.

    There are ``VARIANTS`` batches, each drawn afresh from the seed, and
    the runner runs them in turn: a run's times then average over many
    label draws and relabelings, rather than resting on the one or two
    that its seed happens to pick.
    """
    import coxvol

    rng = random.Random(seed)
    cube = inputs.from_coxvol(coxvol.load("lambert_cube"))
    labels = list(inputs.LAMBERT_LABELS)
    batches = []
    for _ in range(VARIANTS[workload]):
        if workload == "lambert-volume":
            batch = []
            for _ in range(LAMBERT_BATCH):
                lmn = tuple(rng.choice(labels) for _ in range(3))
                shape = inputs.relabel(inputs.lambert(cube, lmn), rng)
                batch.append(Input(shape.name, shape.text(), lmn))
        elif workload == "loebell-pipeline":
            batch = [Input(f"L({n})", inputs.relabel(inputs.loebell(n), rng).text(), (n,))
                     for n in LOEBELL_SIZES]
        elif workload == "cube-census":
            batch = [Input(name, inputs.relabel(inputs.from_coxvol(coxvol.load(name)), rng).text())
                     for name in ("cube_all2", "triangular_prism")]
        else:
            raise ValueError(f"unknown workload {workload!r}")
        batches.append(batch)
    for inp in (inp for batch in batches for inp in batch):
        report = coxvol.validate(coxvol.parse_polyhedron(inp.text).base)
        if not report.passed:
            raise ValueError(f"generated input {inp.name} fails validate: {report.violations}")
    return batches


# ---------------------------------------------------------------------------
# ops


def ops_for(workload: str, batches: list[list[Input]], volume_errors: list) -> list[list[Op]]:
    """The batches of ops, one per batch of inputs; each volume op appends
    (abs error, error estimate) to ``volume_errors``."""
    make = {"lambert-volume": _lambert_ops, "loebell-pipeline": _loebell_ops,
            "cube-census": _census_ops}[workload]
    return [make(items, volume_errors) for items in batches]


def _check_volume(res, ref: float, tol: float, volume_errors: list, known: str | None = None):
    err = abs(res.volume - ref)
    volume_errors.append((err, res.error_estimate))
    expect("volume", err <= tol,
           f"volume {res.volume!r} differs from the closed form {ref!r} by {err:.3g} > {tol:g}",
           known)
    expect("volume", err <= res.error_estimate,
           f"error {err:.3g} exceeds the reported estimate {res.error_estimate:.3g}")


def _lambert_ops(items, volume_errors):
    import oracles
    from coxvol import poly_model, volume

    def make(inp, ref):
        def run():
            lp = stage("parse", poly_model.parse_polyhedron, inp.text)
            res = stage("volume", volume.schlafli_volume, lp)
            _check_volume(res, ref, oracles.LAMBERT_TOL, volume_errors)
        return Op(inp.name, run)

    return [make(inp, oracles.kellerhals_lambert_volume(*inp.meta)) for inp in items]


# At the commit that introduced the benchmark every L(n) volume fails this
# way: the default path of a right-angled polyhedron has no varying edges
# and ``schlafli_volume`` returns 0.0 with a 0.0 error estimate.  The
# failure counts; the tag only marks it as the recorded one.
LOEBELL_ZERO_VOLUME = "known: schlafli_volume returns 0.0 for right-angled L(n) (ROADMAP item 2)"


def _loebell_ops(items, volume_errors):
    import oracles
    from coxvol import andreev, haken, poly_model, realization, volume

    def make(inp, ref):
        def run():
            lp = stage("parse", poly_model.parse_polyhedron, inp.text)
            rep = stage("validate", poly_model.validate, lp.base)
            expect("validate", rep.passed, f"violations {rep.violations}")
            chk = stage("andreev", andreev.check, lp)
            expect("andreev", chk.outcome == "realizable-compact", f"outcome {chk.outcome}")
            verdict = stage("haken", haken.classify, lp.base)
            expect("haken", verdict.verdict == "Large", f"verdict {verdict.verdict}")
            real = stage("realize", realization.realize, lp)
            expect("realize", real.residual <= oracles.RESIDUAL_TOL,
                   f"residual {real.residual:.3g} > {oracles.RESIDUAL_TOL:g}")
            res = stage("volume", volume.schlafli_volume, lp)
            _check_volume(res, ref, oracles.LOEBELL_TOL, volume_errors,
                          LOEBELL_ZERO_VOLUME if res.volume == 0.0 else None)
        return Op(inp.name, run)

    return [make(inp, oracles.vesnin_loebell_volume(*inp.meta)) for inp in items]


def _census_ops(items, volume_errors):
    import oracles
    from coxvol import andreev, census, poly_model

    cube_text, prism_text = (inp.text for inp in items)

    def rows_op(name, text, max_label, regime, check_ml3=False):
        ref = oracles.CENSUS[name]

        def run():
            p = stage("parse", poly_model.parse_polyhedron, text).base
            rows = stage("census", census.enumerate_labelings, p, max_label, regime)
            expect("census", len(rows) == ref["orbits"], f"{len(rows)} orbits, expected {ref['orbits']}")
            if check_ml3:
                ml3 = sum(max(r.labels) <= 3 for r in rows)
                expect("census", ml3 == ref["orbits_ml3"],
                       f"{ml3} orbits with labels <= 3, expected {ref['orbits_ml3']}")
            digest = oracles.census_digest(rows)
            expect("census", digest == ref["digest"], f"row digest {digest}, expected {ref['digest']}")
        return Op(name, run)

    def three_threes():
        p = stage("parse", poly_model.parse_polyhedron, cube_text).base
        rep = stage("census", census.cube_three_threes, p)
        ref = oracles.THREE_THREES
        got = {"total": rep.total_candidates, "passing": len(rep.andreev_passing),
               "selected": len(rep.selected), "orbits": len(rep.orbits),
               "stabilizer": rep.stabilizer_order}
        expect("census", got == ref, f"three-threes {got}, expected {ref}")
        expect("census", set(rep.one_per_circuit) == set(rep.selected),
               "one-per-band placements differ from the selected set")

    def pyramid(convention):
        ref = oracles.PYRAMID[convention]

        def run():
            diff = stage("census", census.pyramid_census, 6, convention)
            got = {"admissible": sum(r.admissible for r in diff.published_rows),
                   "published": len(diff.published_rows), "extra": len(diff.extra_rows)}
            expect("census", got == ref, f"pyramid {convention} {got}, expected {ref}")
        return Op(f"pyramid-{convention}", run)

    return [
        rows_op("cube-ml4-strict", cube_text, 4, andreev.STRICT_COMPACT, check_ml3=True),
        rows_op("cube-ml3-ideal", cube_text, 3, andreev.ALLOW_IDEAL),
        rows_op("prism-ml5-strict", prism_text, 5, andreev.STRICT_COMPACT),
        Op("three-threes", three_threes),
        pyramid(census.AS_LISTED_CYCLIC),
        pyramid(census.ANY_ARRANGEMENT),
    ]

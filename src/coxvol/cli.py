"""Command-line entry point.

Every subcommand prints a deterministic text report whose last line is
machine parsable: ``RESULT <subcommand> <verdict> <key=value ...>``.
Exit codes: 0 success / realizable / Large, 1 admissibility rejection,
2 input error, 3 Small, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import andreev, census, corpus
from .circuits import DEFAULT_CIRCUIT_CAP, circuits_up_to, enumerate_circuits
from .haken import LARGE, classify
from .lobachevsky import ideal_tetrahedron_volume, lob
from .poly_model import LabeledPolyhedron, ParseError, parse_polyhedron, validate
from .realization import LabelingRejected, RealizationError, realize
from .volume import DEFAULT_TOL, VolumeError, schlafli_volume

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_INPUT = 2
EXIT_SMALL = 3
EXIT_NUMERICAL = 4

_REGIMES = {"strict": andreev.STRICT_COMPACT, "ideal": andreev.ALLOW_IDEAL}
_CONVENTIONS = {"listed": census.AS_LISTED_CYCLIC, "any": census.ANY_ARRANGEMENT}


def _read(path: str) -> LabeledPolyhedron:
    """Read a polyhedron file; bare corpus names fall back to the bundled data."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_polyhedron(fh.read())
    except FileNotFoundError:
        stem = path[:-6] if path.endswith(".apoly") else path
        if stem in corpus.CORPUS:
            return corpus.load(stem)
        raise


def _load(path: str) -> LabeledPolyhedron:
    """Read a polyhedron that passes validate; its first violation is an input error."""
    lp = _read(path)
    report = validate(lp.base)
    if not report.passed:
        v = report.violations[0]
        raise ValueError(f"fails validate: violation {v.rule}: {v.detail}")
    return lp


def _fmt(x: float, digits: int) -> str:
    return f"{x:.{digits}g}"


def _parse_angle(text: str) -> float:
    """Angles as plain floats or pi expressions like pi/6, 2*pi/7 or -pi/3."""
    s = text.strip().replace(" ", "")
    if "pi" in s:
        head, _, tail = s.partition("pi")
        if head in ("+", "-"):  # a bare sign stands for +-1
            head += "1"
        num, den = float(head.removesuffix("*") or 1.0), 1.0
        if tail:
            if not tail.startswith("/"):
                raise ValueError(f"cannot parse angle {text!r}")
            den = float(tail[1:])
            if den == 0:
                raise ValueError(f"zero denominator in angle {text!r}")
        return num * math.pi / den
    return float(s)


def _result(sub: str, verdict: str, **kv) -> None:
    items = " ".join(f"{k}={str(v).replace(' ', '-')}" for k, v in kv.items())
    print(f"RESULT {sub} {verdict}{' ' + items if items else ''}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    lp = _read(args.file)
    report = validate(lp.base)
    for w in lp.warnings:
        print(f"warning: {w}")
    for v in report.violations:
        print(f"violation {v.rule}: {v.detail}")
    verdict = "ok" if report.passed else "invalid"
    _result("validate", verdict, violations=len(report.violations))
    return EXIT_OK if report.passed else EXIT_INPUT


def _condition_status(c: andreev.ConditionResult) -> str:
    if not c.passed:
        return "fail"
    if c.note.startswith("vacuous"):
        return "vacuous"
    if c.informational:
        return "informational"
    return "pass"


def _cmd_check(args) -> int:
    lp = _load(args.file)
    report = andreev.check(lp, _REGIMES[args.regime])
    statuses = []
    for c in report.conditions:
        status = _condition_status(c)
        statuses.append(f"{c.condition}:{status}")
        line = f"condition {c.condition}: {status}"
        if c.note:
            line += f" ({c.note})"
        print(line)
        for w in c.witnesses:
            print(f"    witness: {w}")
    vertex_rows = {row.witness: row for row in andreev.constraints(lp.base)
                   if row.condition == andreev.VERTEX}
    for v in sorted(report.vertex_types):
        s = vertex_rows[v].angle_sum(lp.labels)
        print(f"vertex {v}: {report.vertex_types[v]} sum={s}*pi")
    print(f"verdict: {report.outcome}")
    kv = {"regime": report.regime}
    if statuses:
        kv["conditions"] = ",".join(statuses)
    if report.reason:
        kv["reason"] = report.reason
    _result("check", report.outcome, **kv)
    return EXIT_OK if report.realizable else EXIT_REJECTED


def _cmd_circuits(args) -> int:
    lp = _load(args.file)
    if args.k is not None:
        found = enumerate_circuits(lp.base, args.k)
    else:
        found = circuits_up_to(lp.base, args.cap)
    for c in found:
        print(c.format_line())
    _result("circuits", "ok", count=len(found),
            prismatic=sum(c.prismatic for c in found))
    return EXIT_OK


def _cmd_classify(args) -> int:
    lp = _load(args.file)
    verdict = classify(lp.base, cap=args.cap)
    print(f"verdict: {verdict.verdict}")
    print(f"witness kind: {verdict.witness_kind}")
    if verdict.witness is not None:
        print(verdict.witness.format_line())
    _result("classify", verdict.verdict,
            witness_kind=verdict.witness_kind, cap=verdict.cap, circuits=verdict.circuits)
    return EXIT_OK if verdict.verdict == LARGE else EXIT_SMALL


def _cmd_realize(args) -> int:
    lp = _load(args.file)
    regime = _REGIMES[args.regime] if args.regime else None
    try:
        r = realize(lp, regime=regime)
    except LabelingRejected as exc:
        print(f"error: {exc}")
        _result("realize", "rejected")
        return EXIT_REJECTED
    for fid in sorted(r.normals):
        coords = " ".join(_fmt(x, 17) for x in r.normals[fid])
        print(f"normal {fid}: {coords}")
    for v in sorted(r.vertices):
        vec, kind = r.vertices[v]
        coords = " ".join(_fmt(x, 17) for x in vec)
        print(f"vertex {v}: {kind} {coords}")
    print(f"residual: {_fmt(r.residual, 17)}")
    audit = " ".join(f"{k}={r.dof_audit[k]}" for k in
                     ("unknowns", "constraints", "gauge", "dof"))
    print(f"dof audit: {audit}")
    _result("realize", "ok", residual=_fmt(r.residual, 6),
            dof=r.dof_audit["dof"], iters=r.newton_iters)
    return EXIT_OK


def _cmd_volume(args) -> int:
    lp = _load(args.file)
    rep = andreev.check(lp, andreev.default_regime(lp.base))
    if not rep.realizable:
        print(f"error: labeling rejected ({rep.reason or rep.outcome})")
        _result("volume", "rejected", reason=rep.reason or rep.outcome)
        return EXIT_REJECTED
    res = schlafli_volume(lp, tol=args.tol)
    scale = 2.0 if args.doubled else 1.0  # the doubling convention: twice the true volume
    volume, error = scale * res.volume, scale * res.error_estimate
    print(f"volume: {_fmt(volume, 17)}")
    print(f"error estimate: {_fmt(error, 6)}")
    print(f"nodes: {res.nodes}")
    _result("volume", "ok", volume=_fmt(volume, 15),
            error=_fmt(error, 6), nodes=res.nodes, solves=res.solves,
            newton_iters=res.newton_iters, passes=res.passes,
            doubled=str(args.doubled).lower())
    return EXIT_OK


def _census_volume(p, labels):
    """A census row's volume, or the VolumeError or RealizationError that stopped it."""
    try:
        return schlafli_volume(LabeledPolyhedron(base=p, labels=dict(zip(p.edges, labels)))).volume
    except (VolumeError, RealizationError) as exc:
        return exc


def _cmd_census(args) -> int:
    lp = _load(args.file)
    rows = census.enumerate_labelings(lp.base, args.max_label, regime=_REGIMES[args.regime])
    # a row's volume, the error that stopped it, or None without --volumes
    vols = [_census_volume(lp.base, r.labels) if args.volumes else None for r in rows]
    edges = lp.base.edges
    if args.format == "tsv":
        print("labels\toutcome\tvertex_summary\thaken\tvolume")
        for r, v in zip(rows, vols):
            summary = ",".join(f"{k}:{r.vertex_summary[k]}"
                               for k in sorted(r.vertex_summary))
            vol = ("" if v is None else f"error:{type(v).__name__}" if isinstance(v, Exception)
                   else _fmt(v, 15))
            print(f"{','.join(map(str, r.labels))}\t{r.outcome}"
                  f"\t{summary}\t{r.haken}\t{vol}")
    else:
        print("edge order: " + " ".join(f"({a},{b})" for a, b in edges))
        for r, v in zip(rows, vols):
            line = (f"labels={','.join(map(str, r.labels))} outcome={r.outcome} "
                    f"haken={r.haken}")
            if isinstance(v, Exception):
                line += f" volume_error={type(v).__name__}\n    error: {v}"
            elif v is not None:
                line += f" volume={_fmt(v, 15)}"
            print(line)
    failures = sum(isinstance(v, Exception) for v in vols)
    counts = {"volume_failures": failures} if args.volumes else {}
    _result("census", "failed" if failures else "ok", rows=len(rows),
            max_label=args.max_label, regime=_REGIMES[args.regime], **counts)
    return EXIT_NUMERICAL if failures else EXIT_OK


def _cmd_pyramid_table(args) -> int:
    diff = census.pyramid_census(args.max_label,
                                 convention=_CONVENTIONS[args.convention],
                                 regime=_REGIMES[args.regime])
    print(census.format_pyramid_diff(diff))
    matched = sum(r.admissible for r in diff.published_rows)
    _result("pyramid-table", "ok", matched=matched,
            rows=len(diff.published_rows), extra=len(diff.extra_rows),
            convention=diff.convention, regime=diff.regime)
    return EXIT_OK


def _cmd_lob(args) -> int:
    theta = _parse_angle(args.theta)
    val = lob(theta)
    print(_fmt(val, 15))
    _result("lob", "ok", theta=_fmt(theta, 15), value=_fmt(val, 15))
    return EXIT_OK


def _cmd_idealtet(args) -> int:
    a, b, c = (_parse_angle(x) for x in (args.alpha, args.beta, args.gamma))
    val = ideal_tetrahedron_volume(a, b, c)
    print(_fmt(val, 15))
    _result("idealtet", "ok", value=_fmt(val, 15))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser: a usage error prints argparse's usage and
    message on stderr, as always, and ``RESULT <subcommand> input-error``
    on stdout, and exits 2."""

    def parse_known_args(self, args=None, namespace=None):
        # an argument the subcommand does not know is its usage error too
        ns, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error("unrecognized arguments: " + " ".join(extra))
        return ns, extra

    def error(self, message):
        self.print_usage(sys.stderr)
        _result(self.prog.rsplit(" ", 1)[-1], "input-error")
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="coxvol",
        description="Admissibility, classification, realization and volume "
                    "of right-angled-or-sharper labeled polyhedra.")
    sub = ap.add_subparsers(dest="subcommand", required=True,
                            parser_class=_SubcommandParser)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        return p

    p = add("validate", _cmd_validate, help="check the combinatorial axioms")
    p.add_argument("file")

    p = add("check", _cmd_check, help="run the admissibility conditions")
    p.add_argument("file")
    p.add_argument("--regime", choices=("strict", "ideal"), default="strict")

    p = add("circuits", _cmd_circuits, help="enumerate dual-cycle circuits")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=None, help="single circuit length")
    p.add_argument("--cap", type=int, default=DEFAULT_CIRCUIT_CAP)

    p = add("classify", _cmd_classify, help="Large/Small classification")
    p.add_argument("file")
    p.add_argument("--cap", type=int, default=DEFAULT_CIRCUIT_CAP)

    p = add("realize", _cmd_realize, help="solve for face planes and vertices")
    p.add_argument("file")
    p.add_argument("--regime", choices=("strict", "ideal"), default=None)

    p = add("volume", _cmd_volume, help="integrate the volume along a collapse path")
    p.add_argument("file")
    p.add_argument("--doubled", action="store_true")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p = add("census", _cmd_census, help="orbit census of admissible labelings")
    p.add_argument("file")
    p.add_argument("--max-label", type=int, required=True)
    p.add_argument("--regime", choices=("strict", "ideal"), default="strict")
    p.add_argument("--volumes", action="store_true")
    p.add_argument("--format", choices=("text", "tsv"), default="text")

    p = add("pyramid-table", _cmd_pyramid_table,
            help="diff the ideal-apex pyramid labelings against the published rows")
    p.add_argument("--convention", choices=("listed", "any"), default="listed")
    p.add_argument("--regime", choices=("strict", "ideal"), default="ideal")
    p.add_argument("--max-label", type=int, default=6)

    p = add("lob", _cmd_lob, help="evaluate the log-sine integral")
    p.add_argument("theta")

    p = add("idealtet", _cmd_idealtet, help="ideal tetrahedron volume")
    p.add_argument("alpha")
    p.add_argument("beta")
    p.add_argument("gamma")
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (OSError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        _result(args.subcommand, "input-error")
        return EXIT_INPUT
    except (VolumeError, RealizationError) as exc:
        print(f"error: {exc}")
        _result(args.subcommand, "failed")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

"""Closed-form and recorded reference values the benchmark checks against.

The Lobachevsky function here is evaluated by direct quadrature of its
defining integral, independently of ``coxvol.lobachevsky``.
"""

from __future__ import annotations

import hashlib
import math

from scipy.integrate import quad

LAMBERT_TOL = 1e-8
LOEBELL_TOL = 1e-8
RESIDUAL_TOL = 1e-10


def lob(theta: float) -> float:
    """Lobachevsky function -int_0^theta log|2 sin u| du.

    Odd and pi-periodic; on (0, pi) the log singularity at 0 is split off
    as int_0^x log u du = x log x - x, leaving a smooth integrand.
    """
    r = math.remainder(theta, math.pi)
    if r < 0:
        return -lob(-r)
    if r == 0.0:
        return 0.0
    smooth, _ = quad(lambda u: math.log(math.sin(u) / u) if u > 0 else 0.0,
                     0.0, r, epsabs=1e-14, epsrel=1e-12)
    return -(r * math.log(2.0) + (r * math.log(r) - r) + smooth)


def kellerhals_lambert_volume(l: int, m: int, n: int) -> float:
    """Volume of the Lambert cube with essential angles pi/l, pi/m, pi/n."""
    angles = (math.pi / l, math.pi / m, math.pi / n)
    tans = [math.tan(a) for a in angles]
    K = sum(t * t for t in tans) + 1.0
    L = tans[0] * tans[1] * tans[2]
    theta = math.atan(math.sqrt((K + math.sqrt(K * K + 4.0 * L * L)) / 2.0))
    s = sum(lob(a + theta) - lob(a - theta) for a in angles)
    return 0.25 * (s - lob(2.0 * theta) + 2.0 * lob(math.pi / 2 - theta))


def vesnin_loebell_volume(n: int) -> float:
    """Volume of the right-angled Loebell polyhedron L(n), n >= 5."""
    theta = math.pi / 2 - math.acos(1.0 / (2.0 * math.cos(math.pi / n)))
    return n / 2 * (2 * lob(theta) + lob(theta + math.pi / n)
                    + lob(theta - math.pi / n) + lob(math.pi / 2 - 2 * theta))


# Census outputs recorded at the commit that introduced the benchmark.
# The digest covers each row's sorted label multiset, outcome, vertex
# summary and Haken verdict, so it does not depend on vertex numbering.
# The strict cube census at max-label 3 (34 orbits) and the three-threes
# counts are the values the test suite pins; the rest were recorded.
CENSUS = {
    "cube-ml4-strict": {"orbits": 436, "digest": "d4b26d4444f22867", "orbits_ml3": 34},
    "cube-ml3-ideal": {"orbits": 111, "digest": "328c08191eaac501"},
    "prism-ml5-strict": {"orbits": 93, "digest": "8f76bd54b5de1982"},
}
THREE_THREES = {"total": 220, "passing": 56, "selected": 8, "orbits": 1, "stabilizer": 6}
PYRAMID = {
    "as-listed-cyclic": {"admissible": 17, "published": 17, "extra": 19},
    "any-arrangement": {"admissible": 17, "published": 17, "extra": 14},
}


def census_digest(rows) -> str:
    key = sorted((tuple(sorted(r.labels)), r.outcome,
                  tuple(sorted(r.vertex_summary.items())), r.haken) for r in rows)
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]

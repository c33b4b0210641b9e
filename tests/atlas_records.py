"""The atlas as it was built through AtlasPointR and AtlasPointC records,
frozen as an oracle for the wire rows that ``pwcert.atlas`` now builds where it
classifies each point: its JSON and DOT must match these byte for byte.  Each
point is classified by definition, not by the library: SL(2,R) layers come
from ladder_oracle.series_r, SL(2,C) reducibility from its closed form."""

from __future__ import annotations

import math
from fractions import Fraction

from pwcert.rationals import rat_str
from pwcert.verdict import record
from ladder_oracle import series_r

_PALETTE = (
    "blue", "green", "orange", "red", "purple", "cyan",
    "gold", "magenta", "brown", "darkgreen", "navy", "salmon",
)


@record
class AtlasPointR:
    sigma: str
    lam: Fraction
    reducible: bool
    layers: tuple[tuple[str, ...], ...]


def atlas_sl2r(lambda_max: Fraction) -> list[AtlasPointR]:
    """Verdicts on the half-integer grid |lambda| <= lambda_max, both parities."""
    points = []
    for sigma in "+-":
        lam = Fraction(-math.floor(2 * lambda_max), 2)
        while lam <= lambda_max:
            series = series_r(sigma, lam)
            if series is None:
                points.append(AtlasPointR(sigma, lam, False, ()))
            else:
                layers = tuple(tuple(layer) for layer in series[0])
                points.append(AtlasPointR(sigma, lam, True, layers))
            lam += Fraction(1, 2)
    return points


def atlas_sl2r_json(lambda_max: Fraction) -> dict:
    return {
        "group": "sl2r",
        "lambda_max": rat_str(lambda_max),
        "points": [
            {
                "sigma": p.sigma,
                "lambda": rat_str(p.lam),
                "reducible": p.reducible,
                "layers": [list(layer) for layer in p.layers],
            }
            for p in atlas_sl2r(lambda_max)
        ],
    }


@record
class AtlasPointC:
    sigma: int
    lam: int
    reducible: bool
    orbit: str | None  # shared id of the intertwiner orbit, if any


def _orbit_id(orbit: frozenset[tuple[int, int]]) -> str:
    s, l = min(orbit)
    return f"{s},{l}"


def atlas_sl2c(sigma_max: int, lambda_max: int) -> list[AtlasPointC]:
    """Verdicts and orbit grouping on the integer grid |sigma|, |lambda| <= bounds."""
    from pwcert.sl2c import diamond_orbit

    grid = [(sigma, lam) for sigma in range(-sigma_max, sigma_max + 1)
            for lam in range(-lambda_max, lambda_max + 1)]
    reducible = {(s, l) for s, l in grid if abs(l) > abs(s) and (abs(l) - abs(s)) % 2 == 0}
    orbit_of: dict[tuple[int, int], str] = {}
    for v in grid:
        if v in reducible:
            orbit = diamond_orbit(*v)
            oid = _orbit_id(orbit)
            for vertex in orbit:
                orbit_of.setdefault(vertex, oid)
    return [AtlasPointC(*v, v in reducible, orbit_of.get(v)) for v in grid]


def atlas_sl2c_json(sigma_max: int, lambda_max: int) -> dict:
    points = atlas_sl2c(sigma_max, lambda_max)
    orbits: dict[str, list[list[int]]] = {}
    for p in points:
        if p.orbit is not None:
            orbits.setdefault(p.orbit, []).append([p.sigma, p.lam])
    return {
        "group": "sl2c",
        "sigma_max": sigma_max,
        "lambda_max": lambda_max,
        "points": [
            {
                "sigma": p.sigma,
                "lambda": p.lam,
                "reducible": p.reducible,
                "orbit": p.orbit,
            }
            for p in points
        ],
        "orbits": {k: sorted(v) for k, v in sorted(orbits.items())},
    }


def atlas_sl2c_dot(sigma_max: int, lambda_max: int) -> str:
    """DOT graph of the grid; orbit members share a fill color."""
    points = atlas_sl2c(sigma_max, lambda_max)
    orbit_ids = sorted({p.orbit for p in points if p.orbit is not None})
    color = {oid: _PALETTE[i % len(_PALETTE)] for i, oid in enumerate(orbit_ids)}
    lines = [
        "graph atlas {",
        f'  label="sl2c atlas |sigma|<={sigma_max}, |lambda|<={lambda_max}";',
        "  node [shape=circle];",
    ]
    for p in sorted(points, key=lambda p: (p.sigma, p.lam)):
        name = f"v_{p.sigma}_{p.lam}".replace("-", "m")
        attrs = [f'label="H({p.sigma},{p.lam})"']
        if p.orbit is not None:
            attrs.append(f'style=filled, fillcolor={color[p.orbit]}, group="{p.orbit}"')
        elif p.reducible:
            attrs.append("style=filled, fillcolor=black, fontcolor=white")
        lines.append(f"  {name} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def atlas_sl2r_dot(lambda_max: Fraction) -> str:
    """DOT graph of the SL(2,R) grid, reducible points filled."""
    lines = [
        "graph atlas {",
        f'  label="sl2r atlas |lambda|<={rat_str(lambda_max)}";',
        "  node [shape=box];",
    ]
    for p in atlas_sl2r(lambda_max):
        tag = "p" if p.sigma == "+" else "m"
        name = f"v_{tag}_{rat_str(p.lam)}".replace("-", "m").replace("/", "_")
        attrs = [f'label="H({p.sigma},{rat_str(p.lam)})"']
        if p.reducible:
            attrs.append("style=filled, fillcolor=lightblue")
        lines.append(f"  {name} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"

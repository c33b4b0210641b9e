"""Classification atlases over parameter grids.

For SL(2,R): verdicts over the half-integer lambda grid for both parities.
For SL(2,C): verdicts over the integer (sigma, lambda) grid, with every
reducible point's four-vertex intertwiner orbit {(s,l), (-s,-l), (l,s),
(-l,-s)} collected into a group; vertices sharing an orbit share a group id
(the color classes of the reducibility picture).  DOT output is sorted and
therefore byte-stable.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .rationals import rat_str

_PALETTE = (
    "blue", "green", "orange", "red", "purple", "cyan",
    "gold", "magenta", "brown", "darkgreen", "navy", "salmon",
)


def atlas_sl2r(lambda_max: Fraction) -> list[dict]:
    """Verdicts on the half-integer grid |lambda| <= lambda_max, both parities,
    as the JSON points of atlas_sl2r_json."""
    from .sl2r import composition_series_r

    points = []
    for sigma in "+-":
        lam = Fraction(-math.floor(2 * lambda_max), 2)
        while lam <= lambda_max:
            row = composition_series_r(sigma, lam)
            points.append({"sigma": row["sigma"], "lambda": row["lambda"], "reducible": row["reducible"],
                           "layers": row.get("layers", [])})
            lam += Fraction(1, 2)
    return points


def atlas_sl2r_json(lambda_max: Fraction) -> dict:
    return {"group": "sl2r", "lambda_max": rat_str(lambda_max), "points": atlas_sl2r(lambda_max)}


def _orbit_id(orbit: tuple[tuple[int, int], ...]) -> str:
    s, l = min(orbit)
    return f"{s},{l}"


def atlas_sl2c(sigma_max: int, lambda_max: int) -> list[dict]:
    """Verdicts and orbit grouping on the integer grid |sigma|, |lambda| <= bounds,
    sorted by (sigma, lambda), as the JSON points of atlas_sl2c_json; "orbit" is
    the shared id of the intertwiner orbit, or None."""
    from .sl2c import diamond_orbit, reducibility_c

    grid = [(sigma, lam) for sigma in range(-sigma_max, sigma_max + 1)
            for lam in range(-lambda_max, lambda_max + 1)]
    reducible = {(s, l) for s, l in grid if reducibility_c(s, l)["reducible"]}
    orbit_of: dict[tuple[int, int], str] = {}
    for v in grid:
        if v in reducible:
            orbit = diamond_orbit(*v)
            oid = _orbit_id(orbit)
            for vertex in orbit:
                orbit_of.setdefault(vertex, oid)
    return [{"sigma": s, "lambda": l, "reducible": (s, l) in reducible, "orbit": orbit_of.get((s, l))}
            for s, l in grid]


def atlas_sl2c_json(sigma_max: int, lambda_max: int) -> dict:
    points = atlas_sl2c(sigma_max, lambda_max)
    orbits: dict[str, list[list[int]]] = {}
    for p in points:
        if p["orbit"] is not None:
            orbits.setdefault(p["orbit"], []).append([p["sigma"], p["lambda"]])
    return {
        "group": "sl2c",
        "sigma_max": sigma_max,
        "lambda_max": lambda_max,
        "points": points,
        "orbits": {k: sorted(v) for k, v in sorted(orbits.items())},
    }


def atlas_sl2c_dot(sigma_max: int, lambda_max: int) -> str:
    """DOT graph of the grid; orbit members share a fill color."""
    points = atlas_sl2c(sigma_max, lambda_max)
    orbit_ids = sorted({p["orbit"] for p in points if p["orbit"] is not None})
    color = {oid: _PALETTE[i % len(_PALETTE)] for i, oid in enumerate(orbit_ids)}
    lines = [
        "graph atlas {",
        f'  label="sl2c atlas |sigma|<={sigma_max}, |lambda|<={lambda_max}";',
        "  node [shape=circle];",
    ]
    for p in points:
        sigma, lam, orbit = p["sigma"], p["lambda"], p["orbit"]
        name = f"v_{sigma}_{lam}".replace("-", "m")
        attrs = [f'label="H({sigma},{lam})"']
        if orbit is not None:
            attrs.append(f'style=filled, fillcolor={color[orbit]}, group="{orbit}"')
        elif p["reducible"]:
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
        sigma, lam = p["sigma"], p["lambda"]
        tag = "p" if sigma == "+" else "m"
        name = f"v_{tag}_{lam}".replace("-", "m").replace("/", "_")
        attrs = [f'label="H({sigma},{lam})"']
        if p["reducible"]:
            attrs.append("style=filled, fillcolor=lightblue")
        lines.append(f"  {name} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"

"""The diamond's JSON row against the record-based diamond it replaced.

``pw classify --diamond`` prints the row through json.dumps(indent=2,
sort_keys=True), so equal strings here are equal bytes on stdout.
"""

import json
from fractions import Fraction

import pytest

from pwcert.sl2c import diamond, diamond_orbit, reducibility_c
import diamond_records as frozen

GRID = [(s, l) for s in range(-12, 13) for l in range(-12, 13)]


def dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def test_diamond_matches_the_records_at_every_reducible_point():
    reducible = [(s, l) for s, l in GRID if reducibility_c(s, l)["reducible"]]
    assert len(reducible) == 132
    for sigma, lam in reducible:
        want = dumps(frozen.diamond_to_json(frozen.diamond(sigma, lam)))
        assert dumps(diamond(sigma, lam)) == want, (sigma, lam)
        assert dumps(diamond(sigma, Fraction(lam))) == want, (sigma, lam)


def test_diamond_refuses_the_points_the_records_refused():
    for sigma, lam in [*GRID, (0, Fraction(5, 2)), (1, Fraction(-7, 3))]:
        if reducibility_c(sigma, lam)["reducible"]:
            continue
        for build in (diamond, frozen.diamond):
            with pytest.raises(ValueError, match=r"is not reducible"):
                build(sigma, lam)


def test_orbit_tuple_holds_the_frozen_orbit():
    for sigma, lam in GRID:
        orbit = diamond_orbit(sigma, lam)
        assert orbit == ((sigma, lam), (-sigma, -lam), (lam, sigma), (-lam, -sigma))
        assert frozenset(orbit) == frozen.diamond_orbit(sigma, lam)

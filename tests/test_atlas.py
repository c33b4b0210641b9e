"""The atlas's wire rows against the record-based atlas they replaced.

``pw atlas`` prints the JSON through json.dumps(indent=2, sort_keys=True) and
the DOT as it is, so equal strings here are equal bytes on stdout.
"""

import json
from fractions import Fraction

from pwcert import atlas
import atlas_records as frozen


def dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def test_sl2c_atlas_matches_the_records():
    grids = [(s, l) for s in range(13) for l in range(13)] + [(100, 100)]
    for sigma_max, lambda_max in grids:
        assert dumps(atlas.atlas_sl2c_json(sigma_max, lambda_max)) == dumps(
            frozen.atlas_sl2c_json(sigma_max, lambda_max)), (sigma_max, lambda_max)
        assert atlas.atlas_sl2c_dot(sigma_max, lambda_max) == frozen.atlas_sl2c_dot(
            sigma_max, lambda_max), (sigma_max, lambda_max)


def test_sl2r_atlas_matches_the_records():
    # Quarter steps put the bound on, between and halfway between the lattice points.
    for bound in [Fraction(k, 4) for k in range(25)] + [Fraction(1000)]:
        assert dumps(atlas.atlas_sl2r_json(bound)) == dumps(frozen.atlas_sl2r_json(bound)), bound
        assert atlas.atlas_sl2r_dot(bound) == frozen.atlas_sl2r_dot(bound), bound

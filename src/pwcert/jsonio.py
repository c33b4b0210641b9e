"""JSON encodings for every value that crosses the CLI boundary.

Rationals are strings ("p/q", or "p" when the denominator is 1) so that no
reader is tempted to parse them as floats.  Polynomial coefficients are
ascending.  All emitters sort keys, so serialized output is deterministic.

Result records (pwcert.verdict.record: the verdicts, the witnesses and the
generator coordinates) are written by one rule, `record_to_json`: a record is
an object of its fields in __record_fields__ order.  By exact type, a Fraction
is its rat_str, a tuple a list, a Poly its poly_to_json, and int, str, bool and
None are written as they are; a nested record is the same rule again, and
anything else is a TypeError.  witness_to_json adds the witness's kind to the
rule.  Every other result is built as the JSON row pw prints, a dict literal
where it is computed, with no record: the classification and box rows
(sl2r.composition_series_r, sl2r.box_picture_r, sl2c.reducibility_c), the
atlas (pwcert.atlas), the intertwiner diamond (pwcert.sl2c.diamond) and both
Level-2 reports (sl2r.level2_check_r, sl2c.level2_functional_check_c).  One
atlas call encodes up to 40,401 points (at SL(2,C) 100 x 100 the rule took
76-82 ms, the literals 22-24 ms, in a 0.7 s atlas_sl2c_json), one SL(2,R)
report at truncation 400 up to 40,200 checks (the rule took 324 ms after a
2.1 s check; 2-vCPU host).

A decoder reads each member through `_member`, so a missing or mistyped one is
a ValueError that names the JSON kind and the key.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Any

from .poly import Poly
from .rationals import digits_checked, rat, rat_str

if TYPE_CHECKING:  # annotations only: a function that needs one of these at run time imports it
    from .multipoly import MultiPoly
    from .sl2c import GeneratorCoords, WeightedDiagMap

# Each division of mpoly_div_in_var's chain lays a group of equal-degree fibers out densely to
# this degree.  A product of two such polynomials stays far below the 2**EXPONENT_BITS (65,536)
# at which multipoly refuses an exponent, so no exponent field of a monomial key carries.
MAX_EXPONENT = 10_000
MAX_KTYPE = 1_000  # q_{-1000,1000} prints 2,567 digits, 2,000 would pass Python's 4,300; pw q takes 0.6 s for it (2-vCPU host)
MAX_EXTEND_TARGET = 200  # extend_interpolate from x^2 + 5 at level 0: 0.17 s at 200, 1.0 s at 400 (2-vCPU host)
MAX_ATLAS_C = 100  # sigma_max and lambda_max of the sl2c atlas: 1.4 s and 5 MB at 100 x 100
MAX_ATLAS_R = 1_000  # lambda_max of the sl2r atlas: 0.5 s at 1,000, 33 s and 127 MB at 100,000
MAX_JSON_FILE = 2**24  # characters read from an @file: 128 times the 128 KiB Linux allows one inline argument


def poly_to_json(p: Poly) -> dict:
    return {"coeffs": [rat_str(c) for c in p.coeffs]}


def record_to_json(value: Any) -> dict:
    """The one rule for result records (see the module docstring)."""
    names = getattr(type(value), "__record_fields__", None)
    if names is None:
        raise TypeError(f"cannot encode {value!r}: not a record")
    return {name: _value_to_json(getattr(value, name)) for name in names}


_AS_IS = frozenset({bool, int, str, type(None)})


def _value_to_json(value: Any) -> Any:
    kind = type(value)  # exact types: isinstance on Fraction, an ABC, is slow when it fails
    if kind in _AS_IS:
        return value
    if kind is Fraction:
        return rat_str(value)
    if kind is tuple:
        return [_value_to_json(v) for v in value]
    if kind is Poly:
        return poly_to_json(value)
    return record_to_json(value)


def _member(data: Any, key: str, kind: str, of_type: type = object, what: str = "") -> Any:
    """data[key] of a JSON object, else ValueError("<kind> JSON needs <what or the member 'key'>")."""
    if isinstance(data, dict) and key in data and isinstance(data[key], of_type):
        return data[key]
    raise ValueError(f"{kind} JSON needs {what or f'the member {key!r}'}")


def _rat_from_json(value: Any) -> Fraction:
    """A JSON rational: a "p/q" string or an integer, never a float or a bool."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError(f"rationals must be strings or integers, got {value!r}")
    return rat(value)


def int_from_json(value: Any) -> int:
    """A JSON integer, or a string holding one; never a float, a bool or null."""
    if isinstance(value, str):
        digits_checked(value)  # a part past Python's int limit is pw's input-limit error, not this one
    if not isinstance(value, bool) and isinstance(value, (str, int)):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"expected an integer, got {value!r}")


def ktype_from_json(value: Any) -> int:
    """A K-type (or weight): a JSON integer of absolute value at most MAX_KTYPE."""
    n = int_from_json(value)
    if abs(n) > MAX_KTYPE:
        raise ValueError(f"K-types must be at most {MAX_KTYPE} in absolute value, got {n}")
    return n


def poly_from_json(data: dict) -> Poly:
    coeffs = _member(data, "coeffs", "polynomial", list, "a 'coeffs' list")
    return Poly([_rat_from_json(c) for c in coeffs])


def mpoly_to_json(p: MultiPoly) -> dict:
    return {
        "arity": p.arity,
        "terms": [
            {"exps": list(exps), "coeff": rat_str(c)} for exps, c in p.sorted_terms()
        ],
    }


def mpoly_from_json(data: dict) -> MultiPoly:
    from .multipoly import MultiPoly

    kind, shape = "multivariate polynomial", "a 'terms' list of objects with an 'exps' list"
    terms = _member(data, "terms", kind, list, shape)
    exps_lists = [_member(t, "exps", kind, list, shape) for t in terms]
    arity = int_from_json(_member(data, "arity", kind))
    parsed = {}
    for t, exps_list in zip(terms, exps_lists):
        exps = tuple(int_from_json(e) for e in exps_list)
        if exps in parsed:
            raise ValueError(f"multivariate polynomial JSON repeats the exponent vector {list(exps)}")
        parsed[exps] = _rat_from_json(_member(t, "coeff", "multivariate polynomial term"))
    top = max((e for exps in parsed for e in exps), default=0)
    if top > MAX_EXPONENT:
        raise ValueError(f"exponents must be at most {MAX_EXPONENT}, got {top}")
    return MultiPoly(arity, parsed)


def ratfunc_to_json(f: tuple[Poly, Poly]) -> dict:
    num, den = f
    return {"num": poly_to_json(num), "den": poly_to_json(den)}


def diag_map_to_json(m: WeightedDiagMap) -> dict:
    return {
        "n": m.src,
        "m": m.dst,
        "components": {str(k): poly_to_json(p) for k, p in sorted(m.components.items())},
    }


def diag_map_from_json(data: dict) -> WeightedDiagMap:
    from .sl2c import WeightedDiagMap

    comps = _member(data, "components", "weighted map", dict, "a 'components' object")
    comps = _polys_by_int(comps, int_from_json, "weighted map")
    return WeightedDiagMap(ktype_from_json(_member(data, "n", "weighted map")),
                           ktype_from_json(_member(data, "m", "weighted map")), comps)


def coords_from_json(data: dict) -> GeneratorCoords:
    from .sl2c import GeneratorCoords

    h = _member(data, "h", "generator coordinates", list, "an 'h' list")
    m = ktype_from_json(_member(data, "m", "generator coordinates"))
    return GeneratorCoords(m, tuple(poly_from_json(p) for p in h))


def psi_from_json(data: dict) -> dict[int, Poly]:
    """K-picture data: an object from K-type (or weight) to polynomial."""
    if not isinstance(data, dict):
        raise ValueError("psi JSON must be an object of polynomials")
    return _polys_by_int(data, ktype_from_json, "psi")


def _polys_by_int(data: dict, key_from_json, kind: str) -> dict[int, Poly]:
    """The polynomials of a JSON object keyed by integers; two keys that name one
    integer ("2" and "+2", "0" and "-0") are a ValueError, not a lost value."""
    polys = {}
    for k, v in data.items():
        n = key_from_json(k)
        if n in polys:
            first = next(j for j in data if key_from_json(j) == n)
            raise ValueError(f"{kind} JSON has two keys for {n}: {first!r} and {k!r}")
        polys[n] = poly_from_json(v)
    return polys


def ktype_vec_from_json(data: str) -> tuple[int, ...]:
    """A K-type vector: the comma-separated integers of pw's -n or -m."""
    return tuple(ktype_from_json(x) for x in data.split(","))


def witness_to_json(witness: Any) -> dict:
    """Encoder for the witness of the shared Reject (pwcert.verdict), from any checker."""
    return {"kind": type(witness).__name__, **record_to_json(witness)}

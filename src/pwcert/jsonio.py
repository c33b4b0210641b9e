"""JSON encodings for every value that crosses the CLI boundary.

Rationals are strings ("p/q", or "p" when the denominator is 1) so that no
reader is tempted to parse them as floats.  Polynomial coefficients are
ascending.  All emitters sort keys, so serialized output is deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Any

from .poly import Poly
from .rationals import rat, rat_str

if TYPE_CHECKING:  # annotations only: a function that needs one of these at run time imports it
    from .multipoly import MultiPoly
    from .ratfunc import RationalFunction
    from .sl2c import (
        GeneratorCoords,
        IntertwinerDiamond,
        Level2ReportC,
        ReducibilityC,
        WeightedDiagMap,
    )
    from .sl2r import BoxPictureR, CompositionSeriesR, IrreducibleR, Level2ReportR

MAX_EXPONENT = 10_000  # each fiber of a multipoly is a dense Poly of up to this degree
MAX_KTYPE = 1_000  # q_{-1000,1000} prints 2,567 digits, 2,000 would pass Python's 4,300; pw q takes 0.6 s for it (2-vCPU host)
MAX_EXTEND_TARGET = 200  # extend_interpolate from x^2 + 5 at level 0: 0.17 s at 200, 1.0 s at 400 (2-vCPU host)
MAX_ATLAS_C = 100  # sigma_max and lambda_max of the sl2c atlas: 1.4 s and 5 MB at 100 x 100
MAX_ATLAS_R = 1_000  # lambda_max of the sl2r atlas: 0.5 s at 1,000, 33 s and 127 MB at 100,000


def poly_to_json(p: Poly) -> dict:
    return {"coeffs": [rat_str(c) for c in p.coeffs]}


def _rat_from_json(value: Any) -> Fraction:
    """A JSON rational: a "p/q" string or an integer, never a float or a bool."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError(f"rationals must be strings or integers, got {value!r}")
    return rat(value)


def _int_from_json(value: Any) -> int:
    """A JSON integer, or a string holding one; never a float, a bool or null."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def ktype_from_json(value: Any) -> int:
    """A K-type (or weight): a JSON integer of absolute value at most MAX_KTYPE."""
    n = _int_from_json(value)
    if abs(n) > MAX_KTYPE:
        raise ValueError(f"K-types must be at most {MAX_KTYPE} in absolute value, got {n}")
    return n


def poly_from_json(data: dict) -> Poly:
    coeffs = data.get("coeffs") if isinstance(data, dict) else None
    if not isinstance(coeffs, list):
        raise ValueError("polynomial JSON needs a 'coeffs' list")
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

    terms = data.get("terms") if isinstance(data, dict) else None
    if not isinstance(terms, list) or not all(
        isinstance(t, dict) and isinstance(t.get("exps"), list) for t in terms
    ):
        raise ValueError("multivariate polynomial JSON needs a 'terms' list of objects with an 'exps' list")
    arity = _int_from_json(data.get("arity"))
    parsed = {}
    for t in terms:
        exps = tuple(_int_from_json(e) for e in t["exps"])
        if exps in parsed:
            raise ValueError(f"multivariate polynomial JSON repeats the exponent vector {list(exps)}")
        parsed[exps] = _rat_from_json(t["coeff"])
    top = max((e for exps in parsed for e in exps), default=0)
    if top > MAX_EXPONENT:
        raise ValueError(f"exponents must be at most {MAX_EXPONENT}, got {top}")
    return MultiPoly(arity, parsed)


def ratfunc_to_json(f: RationalFunction) -> dict:
    return {"num": poly_to_json(f.num), "den": poly_to_json(f.den)}


def ratfunc_from_json(data: dict) -> RationalFunction:
    from .ratfunc import RationalFunction

    return RationalFunction(poly_from_json(data["num"]), poly_from_json(data["den"]))


def diag_map_to_json(m: WeightedDiagMap) -> dict:
    return {
        "n": m.src,
        "m": m.dst,
        "components": {str(k): poly_to_json(p) for k, p in sorted(m.components.items())},
    }


def diag_map_from_json(data: dict) -> WeightedDiagMap:
    from .sl2c import WeightedDiagMap

    comps = data.get("components") if isinstance(data, dict) else None
    if not isinstance(comps, dict):
        raise ValueError("weighted map JSON needs a 'components' object")
    comps = {int(k): poly_from_json(v) for k, v in comps.items()}
    return WeightedDiagMap(ktype_from_json(data["n"]), ktype_from_json(data["m"]), comps)


def coords_to_json(c: GeneratorCoords) -> dict:
    # Coordinate polynomials are in the Casimir variable mu = lambda^2 + k^2.
    return {"m": c.m, "h": [poly_to_json(h) for h in c.h]}


def coords_from_json(data: dict) -> GeneratorCoords:
    from .sl2c import GeneratorCoords

    h = data.get("h") if isinstance(data, dict) else None
    if not isinstance(h, list):
        raise ValueError("generator coordinates JSON needs an 'h' list")
    return GeneratorCoords(_int_from_json(data["m"]), tuple(poly_from_json(p) for p in h))


def psi_from_json(data: dict) -> dict[int, Poly]:
    """K-picture data: an object from K-type (or weight) to polynomial."""
    if not isinstance(data, dict):
        raise ValueError("psi JSON must be an object of polynomials")
    return {ktype_from_json(k): poly_from_json(v) for k, v in data.items()}


def ktype_vec_from_json(data: dict | list | str) -> tuple[int, ...]:
    if isinstance(data, dict):
        data = data["ktypes"]
    elif isinstance(data, str):
        data = data.split(",")
    return tuple(ktype_from_json(x) for x in data)


def composition_series_to_json(s: CompositionSeriesR | IrreducibleR) -> dict:
    from .sl2r import IrreducibleR

    if isinstance(s, IrreducibleR):
        return {"sigma": s.sigma.value, "lambda": rat_str(s.lam), "reducible": False}
    return {
        "sigma": s.sigma.value,
        "lambda": rat_str(s.lam),
        "reducible": True,
        "layers": [[f.label for f in layer] for layer in s.layers],
        "proper_submodules": [w.label for w in s.proper_submodules],
    }


def reducibility_to_json(r: ReducibilityC) -> dict:
    out: dict[str, Any] = {
        "sigma": r.sigma,
        "lambda": rat_str(r.lam),
        "reducible": r.reducible,
    }
    if r.reducible:
        out.update(
            fm=r.fm,
            fn=r.fn,
            socle_is_R=r.socle_is_R,
            finite_dim_ktypes=list(r.finite_dim_ktypes),
            r_ktype_min=abs(int(r.lam)),
        )
    return out


def diamond_to_json(d: IntertwinerDiamond) -> dict:
    return {
        "vertices": {
            "right": list(d.right),
            "left": list(d.left),
            "top": list(d.top),
            "bottom": list(d.bottom),
        },
        "arrows": [
            {"name": a.name, "src": list(a.src), "dst": list(a.dst)} for a in d.arrows
        ],
    }


def box_picture_to_json(b: BoxPictureR) -> dict:
    return {
        "m": b.m,
        "lambda": rat_str(b.lam),
        "full": b.full,
        "layers": [
            [{"label": box.label, "highlighted": box.highlighted} for box in layer]
            for layer in b.layers
        ],
    }


def level2_report_r_to_json(r: Level2ReportR) -> dict:
    return {
        "m": r.m,
        "truncation": r.truncation,
        "passed": r.passed,
        "vanishing": [
            {
                "lambda": rat_str(c.lam),
                "ktype": c.ktype,
                "submodule": c.submodule,
                "value": rat_str(c.value),
                "ok": c.ok,
            }
            for c in r.vanishing
        ],
        "functional": [
            {"ktype": c.ktype, "sign": c.sign, "ok": c.ok} for c in r.functional
        ],
    }


def level2_report_c_to_json(r: Level2ReportC) -> dict:
    return {
        "n": r.n,
        "passed": r.passed,
        "partner": r.partner,
        "checks": [
            {"weight": c.weight, "ok": c.ok, "reason": c.reason} for c in r.checks
        ],
    }


def witness_to_json(witness: Any) -> dict:
    """Encoder for the witness of the shared Reject (pwcert.verdict), from any checker."""
    names = getattr(type(witness), "__record_fields__", None)
    if names is None:
        raise TypeError(f"cannot encode witness {witness!r}")
    out = {"kind": type(witness).__name__}
    for key in names:
        value = getattr(witness, key)
        out[key] = rat_str(value) if isinstance(value, Fraction) else value
    return out

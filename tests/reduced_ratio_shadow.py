"""The SL(2,C) Level-2 scalar shadow with every ratio held as a reduced
RationalFunction, frozen as an oracle for the cross-multiplied check in
``pwcert.sl2c``.  The candidate c-quotients are the hand-written half-ladders
of ``ladder_oracle``."""

from pwcert.poly import Poly
from pwcert.ratfunc import RationalFunction
from pwcert.sl2c import weights
from ladder_oracle import c_quotient_c_ladder


def candidate_ratios(n: int, j: int) -> list[tuple[int, RationalFunction]]:
    """The raising partner n + 2j and, when defined, the lowering partner
    n - 2j, each with its signed c-quotient c_m / c_n."""
    sign = -1 if j % 2 else 1
    candidates = [(n + 2 * j, sign * c_quotient_c_ladder(n + 2 * j, n))]
    if n - 2 * j >= 0:
        candidates.append((n - 2 * j, sign * c_quotient_c_ladder(n - 2 * j, n)))
    return candidates


def reduced_ratio_check(psi: dict[int, Poly], n: int) -> dict:
    """One shared reduced ratio psi_{-k}(-x) / psi_k(x) across the weights,
    matched against the candidates of its degree by equality of canonical forms."""
    wts = weights(n)
    for k in psi:
        if k not in wts:
            raise ValueError(f"weight {k} does not occur in K-type {n}")
    comp = {k: psi.get(k, Poly.zero()) for k in wts}

    checks = []
    ratio: RationalFunction | None = None
    for k in wts:
        a, b = comp[k], comp[-k]
        if a.is_zero and b.is_zero:
            continue
        if a.is_zero or b.is_zero:
            checks.append({"weight": k, "ok": False, "reason": "component vanishes on one side only"})
            continue
        if ratio is None:
            ratio = RationalFunction(b.reflect(), a)
        if b.reflect() * ratio.den != ratio.num * a:
            checks.append({"weight": k, "ok": False, "reason": "component ratio differs across weights"})
        else:
            checks.append({"weight": k, "ok": True, "reason": ""})

    partner: int | None = None
    if ratio is not None and all(c["ok"] for c in checks):
        if ratio == 1:
            partner = n
        else:
            j = max(ratio.num.degree, ratio.den.degree)
            for m, candidate in candidate_ratios(n, j):
                if ratio == candidate:
                    partner = m
                    break
            if partner is None:
                checks.append({"weight": 0, "ok": False, "reason": "shared ratio is not a c-quotient ladder"})
    passed = all(c["ok"] for c in checks)
    return {"n": n, "partner": partner, "checks": checks, "passed": passed}

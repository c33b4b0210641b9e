"""The intertwiner diamond as it was built through DiamondArrow and
IntertwinerDiamond records and encoded by jsonio.diamond_to_json, with the
orbit as the frozenset diamond_orbit returned, frozen as an oracle for the JSON
row that ``pwcert.sl2c.diamond`` now builds from its orbit tuple."""

from __future__ import annotations

from pwcert.jsonio import record_to_json
from pwcert.rationals import RatLike, rat
from pwcert.sl2c import reducibility_c
from pwcert.verdict import record

Vertex = tuple[int, int]  # (sigma, lambda) with integral lambda


@record
class DiamondArrow:
    name: str
    src: Vertex
    dst: Vertex


@record
class IntertwinerDiamond:
    right: Vertex
    left: Vertex
    top: Vertex
    bottom: Vertex
    arrows: tuple[DiamondArrow, ...]


def diamond(sigma: int, lam: RatLike) -> IntertwinerDiamond:
    if not reducibility_c(sigma, lam)["reducible"]:
        raise ValueError(f"(sigma, lambda) = ({sigma}, {lam}) is not reducible")
    lam_int = int(rat(lam))
    right: Vertex = (sigma, lam_int)
    left: Vertex = (-sigma, -lam_int)
    top: Vertex = (lam_int, sigma)
    bottom: Vertex = (-lam_int, -sigma)
    arrows = (
        DiamondArrow("L", bottom, right),
        DiamondArrow("L'", top, right),
        DiamondArrow("Lt", left, top),
        DiamondArrow("Lt'", left, bottom),
        DiamondArrow("J", right, left),
        DiamondArrow("J", top, bottom),
    )
    return IntertwinerDiamond(right=right, left=left, top=top, bottom=bottom, arrows=arrows)


def diamond_orbit(sigma: int, lam: int) -> frozenset[Vertex]:
    return frozenset({(sigma, lam), (-sigma, -lam), (lam, sigma), (-lam, -sigma)})


def diamond_to_json(d: IntertwinerDiamond) -> dict:
    vertices = record_to_json(d)
    arrows = vertices.pop("arrows")
    return {"vertices": vertices, "arrows": arrows}

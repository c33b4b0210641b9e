"""Deterministic DOT and fixed-width ASCII renderings of a box picture.

Both read the row of sl2r.box_picture_r that pw box --format json prints: "m",
"lambda" (already a rational string) and "layers", socle first, of boxes
{"label", "highlighted"}.  Widths derive from content only, so output is
byte-identical across runs and suitable for golden-file tests.  ASCII box
pictures put the socle at the bottom, matching the layering used for
composition series throughout; highlighted boxes are starred.
"""

from __future__ import annotations


def _cell(text: str, width: int) -> str:
    pad = width - len(text)
    left = pad // 2
    return " " * left + text + " " * (pad - left)


def box_ascii(picture: dict) -> str:
    """Fixed-width ASCII box picture; box width is set by the longest label."""
    layers = list(reversed(picture["layers"]))  # draw quotient on top, socle last
    labels = [[f"*{b['label']}*" if b["highlighted"] else b["label"] for b in layer]
              for layer in layers]
    ncols = max(len(layer) for layer in labels)
    cell_width = max(len(t) for layer in labels for t in layer) + 2
    total_inner = ncols * cell_width + (ncols - 1)

    def wall(nboxes: int) -> str:
        widths = _box_widths(nboxes, total_inner)
        return "+" + "+".join("-" * w for w in widths) + "+"

    def row(layer: list[str]) -> str:
        widths = _box_widths(len(layer), total_inner)
        return "|" + "|".join(_cell(t, w) for t, w in zip(layer, widths)) + "|"

    lines = [f"m={picture['m']}  lambda={picture['lambda']}"]
    for layer in labels:
        lines.append(wall(len(layer)))
        lines.append(row(layer))
    lines.append(wall(len(labels[-1])))
    return "\n".join(lines)


def _box_widths(nboxes: int, total_inner: int) -> list[int]:
    base = (total_inner - (nboxes - 1)) // nboxes
    widths = [base] * nboxes
    widths[-1] += (total_inner - (nboxes - 1)) - base * nboxes
    return widths


def box_dot(picture: dict) -> str:
    """DOT rendering: one cluster per layer, highlighted boxes filled blue."""
    lines = [
        "digraph box_picture {",
        f'  label="m={picture["m"]}, lambda={picture["lambda"]}";',
        "  rankdir=BT;",
        "  node [shape=box];",
    ]
    for i, layer in enumerate(picture["layers"]):
        name = "socle" if i == 0 else f"layer {i}"
        lines.append(f"  subgraph cluster_layer_{i} {{")
        lines.append(f'    label="{name}";')
        for j, box in enumerate(layer):
            attrs = f'label="{box["label"]}"'
            if box["highlighted"]:
                attrs += ", style=filled, fillcolor=blue"
            lines.append(f"    l{i}b{j} [{attrs}];")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"

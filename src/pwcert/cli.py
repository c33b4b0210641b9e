"""Command-line surface: every checker, generator and diagram emitter.

One subcommand per operation, JSON in/out for scripting.  Polynomial
arguments are inline JSON or @filename; rationals are strings like "-3/2" so
nothing is parsed as float.

Each handler returns the row it computes (a JSON-able dict, or the DOT or
ASCII text of box and atlas) and imports only the checker modules of its own
branch: start-up is most of a short call's time.  main alone writes the row,
to stdout or --out, and sets the exit code: 2 when the row's "accept" or
"passed" is false (a Reject, a failing report), 1 for usage, input and I/O
errors, else 0.  argparse converts no option: a handler reads its integer
options through jsonio, so a malformed one is the same one-line input error
as a malformed JSON integer.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import TYPE_CHECKING

from . import jsonio
from .errors import PwError
from .rationals import digits_checked, rat

if TYPE_CHECKING:
    from fractions import Fraction


class _UsageError(Exception):
    """An argparse usage error, worded `pw <command>: error: ...`."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; remap to 1 (2 means Reject here).

    Values like "-3/2" (rationals) and "-3,1" (K-type vectors) must parse as
    option values, so the negative-number matcher is widened accordingly
    (argparse sets it per instance, hence the override in __init__).
    No option may be abbreviated (`--ph` is not `--phi`), here or in a subparser.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+([,/.]-?\d+)*$")

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: error: {message}")


def _load_json_arg(value: str):
    """Inline JSON, or @file to read from disk, at most MAX_JSON_FILE characters of it."""
    try:
        if value.startswith("@"):
            with open(value[1:], "r", encoding="utf-8") as fh:
                text = fh.read(jsonio.MAX_JSON_FILE + 1)
            if len(text) > jsonio.MAX_JSON_FILE:
                raise ValueError(f"{value[1:]} holds more than {jsonio.MAX_JSON_FILE} characters")
            value = text
        return json.loads(value, object_pairs_hook=_unique_keys, parse_int=lambda s: int(digits_checked(s)))
    except RecursionError:  # json's scanner recurses once per nested array or object
        raise ValueError("JSON argument is nested too deeply") from None


def _unique_keys(pairs: list) -> dict:
    """A JSON object; a key given twice is a ValueError, where json would keep the last."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"JSON object has the key {key!r} twice")
        obj[key] = value
    return obj


def _emit(row: dict | str, out: str | None) -> None:
    """Write a JSON row, or text as it is, to stdout or the file out."""
    text = row if isinstance(row, str) else json.dumps(row, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _verdict(result, h_to_json) -> dict:
    """The row of an Accept, or of a Reject with its witness."""
    if not result.accepted:
        return {"accept": False, "witness": jsonio.witness_to_json(result.witness)}
    row = {"accept": True, "h": h_to_json(result.h)}
    if result.coords is not None:
        row["coords"] = jsonio.record_to_json(result.coords)
    return row


def _ktypes(*values) -> tuple[int | None, ...]:
    """K-type options as ints; an option not given stays None."""
    return tuple(None if v is None else jsonio.ktype_from_json(v) for v in values)


def _sigma_r(value: str) -> str:
    """+ or - for the spellings plus/Plus and minus/Minus; sl2r refuses any other sigma."""
    return {"plus": "+", "Plus": "+", "minus": "-", "Minus": "-"}.get(value, value)


def _lambda(value: str, command: str) -> Fraction:
    """--lambda, at most MAX_KTYPE in absolute value: its factors' K-types grow with it."""
    lam = rat(value)
    if abs(lam) > jsonio.MAX_KTYPE:
        raise ValueError(f"{command} needs |lambda| <= {jsonio.MAX_KTYPE}, got {value}")
    return lam


def _unread(args, *options: str) -> None:
    """An option that args.group does not read is an error, not silently dropped."""
    for option in options:
        if getattr(args, option.lstrip("-").replace("-", "_")) not in (None, False):
            raise ValueError(f"{args.command} --group {args.group} does not take {option}")


def build_parser() -> _Parser:
    parser = _Parser(prog="pw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, run) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--out", default=None, help="write output to FILE instead of stdout")
        p.set_defaults(run=run)
        return p

    p = add("q", "intertwining polynomial q_{n,m}", _cmd_q)
    p.add_argument("--group", required=True, choices=["sl2r", "sl2r-product", "sl2c"])
    p.add_argument("-n", required=True)
    p.add_argument("-m", required=True)

    p = add("cquot", "c-function quotient c_n / c_m", _cmd_cquot)
    p.add_argument("--group", required=True, choices=["sl2r", "sl2c"])
    p.add_argument("-n", required=True)
    p.add_argument("-m", required=True)

    p = add("check3", "spherical-function (Level-3) membership check", _cmd_check3)
    p.add_argument("--group", required=True, choices=["sl2r", "sl2c"])
    p.add_argument("-n")
    p.add_argument("-m")
    p.add_argument("--phi", required=True, help="polynomial JSON (sl2r) or weighted map JSON (sl2c); @file allowed")

    p = add("check3-product", "Level-3 check for SL(2,R)^d", _cmd_check3_product)
    p.add_argument("-n", required=True, help="comma-separated K-type vector")
    p.add_argument("-m", required=True, help="comma-separated K-type vector")
    p.add_argument("--phi", required=True, help="multivariate polynomial JSON; @file allowed")

    p = add("check2", "K-picture (Level-2) membership check", _cmd_check2)
    p.add_argument("--group", required=True, choices=["sl2r", "sl2c"])
    p.add_argument("-n", help="K-type (sl2c)")
    p.add_argument("-m", help="bundle K-type (sl2r)")
    p.add_argument("--truncation", help="K-type bound N (sl2r)")
    p.add_argument("--psi", required=True, help="JSON map K-type/weight -> polynomial; @file allowed")

    p = add("classify", "composition series / reducibility at (sigma, lambda)", _cmd_classify)
    p.add_argument("--group", required=True, choices=["sl2r", "sl2c"])
    p.add_argument("--sigma", required=True)
    p.add_argument("--lambda", dest="lam", required=True, help='rational string, e.g. "-3/2"')
    p.add_argument("--diamond", action="store_true", help="include the intertwiner diamond (sl2c)")

    p = add("box", "box picture with the minimal submodule highlighted (sl2r)", _cmd_box)
    p.add_argument("-m", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--format", choices=["json", "dot", "ascii"], default="json")

    p = add("atlas", "classification atlas over a parameter grid", _cmd_atlas)
    p.add_argument("--group", required=True, choices=["sl2r", "sl2c"])
    p.add_argument("--sigma-max", help="sl2c; 5 when not given")
    p.add_argument("--lambda-max", default="5")
    p.add_argument("--format", choices=["json", "dot"], default="json")

    p = add("decompose", "generator coordinates of a diagonal-algebra element (sl2c)", _cmd_decompose)
    p.add_argument("--phi", required=True, help="weighted map JSON with n = m; @file allowed")

    p = add("synthesize", "assemble a diagonal-algebra element from coordinates (sl2c)", _cmd_synthesize)
    p.add_argument("--coords", required=True, help="generator coordinates JSON; @file allowed")

    p = add("extend", "interpolation extension of an algebra element (sl2c)", _cmd_extend)
    p.add_argument("--h", required=True, help="weighted map JSON with n = m; @file allowed")
    p.add_argument("--target", required=True)

    p = add("verify-numeric", "numeric cross-validation of the exact formulas", _cmd_verify_numeric)
    p.add_argument("--seed", default=20240801)
    return parser


def _cmd_q(args) -> dict:
    if args.group == "sl2r":
        from .sl2r import q_poly_r

        return jsonio.poly_to_json(q_poly_r(*_ktypes(args.n, args.m)))
    if args.group == "sl2r-product":
        from .sl2r_product import q_product

        l, n = jsonio.ktype_vec_from_json(args.n), jsonio.ktype_vec_from_json(args.m)
        return jsonio.mpoly_to_json(q_product(l, n))
    from .sl2c import q_nm_c

    return jsonio.diag_map_to_json(q_nm_c(*_ktypes(args.n, args.m)))


def _cmd_cquot(args) -> dict:
    n, m = _ktypes(args.n, args.m)
    if args.group == "sl2r":
        from .sl2r import c_quotient_r as c_quotient
    else:
        from .sl2c import c_quotient_c as c_quotient
    return jsonio.ratfunc_to_json(c_quotient(n, m))


def _cmd_check3(args) -> dict:
    n, m = _ktypes(args.n, args.m)
    if args.group == "sl2r":
        from .sl2r import level3_check_r

        if n is None or m is None:
            raise ValueError("check3 --group sl2r needs -n and -m")
        phi = jsonio.poly_from_json(_load_json_arg(args.phi))
        return _verdict(level3_check_r(phi, n, m), jsonio.poly_to_json)
    from .sl2c import level3_check_c

    phi_map = jsonio.diag_map_from_json(_load_json_arg(args.phi))
    if n is not None and phi_map.src != n:
        raise ValueError(f"-n {n} does not match phi (n = {phi_map.src})")
    if m is not None and phi_map.dst != m:
        raise ValueError(f"-m {m} does not match phi (m = {phi_map.dst})")
    return _verdict(level3_check_c(phi_map), jsonio.diag_map_to_json)


def _cmd_check3_product(args) -> dict:
    from .sl2r_product import level3_check_product

    phi = jsonio.mpoly_from_json(_load_json_arg(args.phi))
    result = level3_check_product(phi, jsonio.ktype_vec_from_json(args.n),
                                  jsonio.ktype_vec_from_json(args.m))
    return _verdict(result, jsonio.mpoly_to_json)


def _cmd_check2(args) -> dict:
    n, m = _ktypes(args.n, args.m)
    truncation = None if args.truncation is None else jsonio.int_from_json(args.truncation)
    psi = jsonio.psi_from_json(_load_json_arg(args.psi))
    if args.group == "sl2r":
        from .sl2r import level2_check_r

        _unread(args, "-n")
        if m is None or truncation is None:
            raise ValueError("check2 --group sl2r needs -m and --truncation")
        return level2_check_r(psi, m, truncation)
    from .sl2c import level2_functional_check_c

    _unread(args, "-m", "--truncation")
    if n is None:
        raise ValueError("check2 --group sl2c needs -n")
    return level2_functional_check_c(psi, n)


def _cmd_classify(args) -> dict:
    lam = _lambda(args.lam, f"classify --group {args.group}")
    if args.group == "sl2r":
        from .sl2r import composition_series_r

        _unread(args, "--diamond")
        return composition_series_r(_sigma_r(args.sigma), lam)
    from .sl2c import diamond, reducibility_c

    sigma = jsonio.int_from_json(args.sigma)
    row = reducibility_c(sigma, lam)
    if args.diamond and row["reducible"]:
        row["diamond"] = diamond(sigma, lam)
    return row


def _cmd_box(args) -> dict | str:
    from .sl2r import box_picture_r

    picture = box_picture_r(jsonio.ktype_from_json(args.m), _lambda(args.lam, "box"))
    if args.format == "json":
        return picture
    from .render import box_ascii, box_dot

    return (box_dot if args.format == "dot" else box_ascii)(picture)


def _cmd_atlas(args) -> dict | str:
    from . import atlas as atlas_mod

    sigma_max = 5 if args.sigma_max is None else jsonio.int_from_json(args.sigma_max)
    lam_max = rat(args.lambda_max)
    if args.group == "sl2r":
        _unread(args, "--sigma-max")
        if lam_max < 0:
            raise ValueError(f"atlas --group sl2r needs --lambda-max >= 0, got {args.lambda_max}")
        if lam_max > jsonio.MAX_ATLAS_R:
            raise ValueError(f"atlas --group sl2r needs --lambda-max <= {jsonio.MAX_ATLAS_R}")
        emitter = atlas_mod.atlas_sl2r_json if args.format == "json" else atlas_mod.atlas_sl2r_dot
        return emitter(lam_max)
    if lam_max.denominator != 1:
        raise ValueError("sl2c atlas needs an integer --lambda-max")
    if min(sigma_max, lam_max) < 0:
        raise ValueError("atlas --group sl2c needs --sigma-max and --lambda-max >= 0")
    if max(sigma_max, lam_max) > jsonio.MAX_ATLAS_C:
        raise ValueError(f"atlas --group sl2c needs --sigma-max and --lambda-max <= {jsonio.MAX_ATLAS_C}")
    emitter = atlas_mod.atlas_sl2c_json if args.format == "json" else atlas_mod.atlas_sl2c_dot
    return emitter(sigma_max, int(lam_max))


def _cmd_decompose(args) -> dict:
    from .sl2c import free_module_decompose

    phi = jsonio.diag_map_from_json(_load_json_arg(args.phi))
    return jsonio.record_to_json(free_module_decompose(phi))


def _cmd_synthesize(args) -> dict:
    from .sl2c import synthesize

    coords = jsonio.coords_from_json(_load_json_arg(args.coords))
    return jsonio.diag_map_to_json(synthesize(coords))


def _cmd_extend(args) -> dict:
    from .sl2c import extend_interpolate

    target = jsonio.int_from_json(args.target)
    if target > jsonio.MAX_EXTEND_TARGET:
        raise ValueError(f"extend --target must be at most {jsonio.MAX_EXTEND_TARGET}, got {target}")
    h = jsonio.diag_map_from_json(_load_json_arg(args.h))
    return jsonio.diag_map_to_json(extend_interpolate(h, target))


def _cmd_verify_numeric(args) -> dict:
    from .numeric import verification_report

    return verification_report(seed=jsonio.int_from_json(args.seed))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        row = args.run(args)
        _emit(row, args.out)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (PwError, ValueError, OSError) as exc:
        print(f"pw: error: {exc}", file=sys.stderr)
        return 1
    return 2 if isinstance(row, dict) and row.get("accept", row.get("passed")) is False else 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

"""Command-line interface.

Subcommands build the objects of the library and verify them in one step:

* construct  -- the order basis for a discriminant and level
* split      -- the local matrix model at one place, with its certificate
* degeneracy -- the two level-raising embeddings at a prime
* psi        -- the isomorphism between two levels, with inclusion data
* chain      -- the chain intersection at a prime, three routes cross-checked
* verify     -- the full verification sweep over a grid of algebras

Exit codes: 0 success, 1 a verification check failed, 2 invalid parameters,
3 unsupported case (ramified place, non-dividing level, exhausted search),
4 insufficient working precision, 5 an internal error: any other exception,
reported on one line with its type, never as a traceback.  The working
precision is --precision q-adic digits, split.DEFAULT_PRECISION by default.
Output is plain text, or under --json one compact line of canonical JSON
with sorted keys (an indent would switch the json module to its pure-Python
encoder).  The line is written in fixed-size slices of the report, each one
call of the C encoder, with the same bytes as one encoding of the whole
payload, so memory no longer grows with the size of the JSON text.

A process started as ``python -m quatorder.cli`` or as the ``quatorder``
script runs ``run``, which exits without the interpreter's final garbage
collection; a caller of ``main`` keeps its collector as it was.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from .chains import DEFAULT_DEPTHS, verify_chain, verify_chain_family
from .degeneracy import degeneracy_bases, verify_degeneracy
from .errors import (
    InvalidParametersError,
    PrecisionLossError,
    QuatOrderError,
)
from .isomap import (
    build_psi,
    inclusion_coordinate_formulas,
    verify_psi,
    verify_psi_inclusion,
)
from .numth import INFINITE_PLACE
from .quat import AlgebraParams, hashimoto_basis, pretty
from .report import Report
from .split import DEFAULT_PRECISION, build_splitting, verify_splitting
from .verify import (
    ALL_SECTIONS,
    DEFAULT_DELTAS,
    DEFAULT_LEVELS,
    DEFAULT_PLACES,
    run_sweep,
)


def _parse_place(raw: str):
    if raw == INFINITE_PLACE:
        return INFINITE_PLACE
    if raw == "p":
        return "p"
    try:
        return int(raw)
    except ValueError:
        raise InvalidParametersError(
            f"place must be a prime, 'p', or '{INFINITE_PLACE}': {raw!r}"
        ) from None


def _parse_int_list(raw: str, what: str) -> tuple:
    try:
        return tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise InvalidParametersError(f"{what} must be comma-separated integers: {raw!r}") from None


def _emit(args, payload: dict, text_lines) -> None:
    """Print the text lines, or under --json the bytes of
    ``json.dumps(payload, sort_keys=True) + "\n"`` with the ``Report`` under
    "verification" (the last key in sorted order) in its JSON form, written
    chunk by chunk so that no encoding of the whole report is ever held."""
    if not args.json:
        for line in text_lines:
            print(line)
        return
    write = sys.stdout.write  # looked up per call: tests and benchmarks redirect it
    report = payload.get("verification")
    if report is None:
        write(json.dumps(payload, sort_keys=True) + "\n")
        return
    rest = {key: value for key, value in payload.items() if key != "verification"}
    assert all(key < "verification" for key in rest), "verification must sort last"
    write(json.dumps(rest, sort_keys=True)[:-1] + (", " if rest else "") + '"verification": ')
    for chunk in report.json_chunks():
        write(chunk)
    write("}\n")


def _entry_brief(e) -> str:
    """Compact display of one matrix entry from the JSON encoding."""
    if not isinstance(e, dict):
        return str(e)
    if "residue" in e:
        q, prec, res = e["q"], e["prec"], int(e["residue"])
        if res == 0:
            return "0"
        show = min(prec, 6)
        return f"{res % q**show}+O({q}^{show})"
    if "a" in e and "b" in e:
        a, b = _entry_brief(e["a"]), _entry_brief(e["b"])
        if b == "0":
            return a
        if a == "0":
            return f"({b})*th"
        return f"{a} + ({b})*th"
    return str(e)


def _matrix_brief(entries) -> str:
    ul, ur, ll, lr = (_entry_brief(e) for e in entries)
    return f"[[{ul}, {ur}], [{ll}, {lr}]]"


def _report_lines(report: Report):
    lines = []
    for c in report.checks:
        mark = "ok  " if c.ok else "FAIL"
        suffix = f"  ({c.witness})" if (not c.ok and c.witness) else ""
        lines.append(f"  {mark} {c.check_id}{suffix}")
    lines.append(_summary_line(report))
    return lines


def _summary_line(report: Report) -> str:
    n_fail = len(report.failures())
    return f"{len(report.checks)} checks, " + ("all pass" if n_fail == 0 else f"{n_fail} FAILED")


def _params_from_args(args) -> AlgebraParams:
    return AlgebraParams.create(args.delta, args.level, p=args.p)


def _cmd_construct(args) -> int:
    params = _params_from_args(args)
    basis = hashimoto_basis(params)
    payload = {
        "delta": params.delta,
        "level": params.level,
        "p": params.p,
        "a": params.a,
        "e4": pretty(basis[3]),
        "basis": [pretty(u) for u in basis],
    }
    _emit(args, payload, [
        f"delta={params.delta} level={params.level} p={params.p} a={params.a}",
        "basis: " + ", ".join(pretty(u) for u in basis),
    ])
    return 0


def _cmd_split(args) -> int:
    params = _params_from_args(args)
    place = _parse_place(args.place)
    if place == "p" and params.delta == 1:
        raise InvalidParametersError("the split algebra (delta = 1) has no splitting prime")
    place = params.p if place == "p" else place
    splitting = build_splitting(params, place, k=args.precision)
    sj = splitting.to_json()  # first: a model too large to print exits 2 before it is verified
    report = verify_splitting(splitting)
    payload = {"splitting": sj, "verification": report}
    lines = [
        f"delta={params.delta} level={params.level} p={params.p} place={place}",
        f"case: {splitting.case}   shape: {splitting.shape.describe()}",
    ]
    for name in ("i", "j", "k"):
        lines.append(f"  phi({name}) = {_matrix_brief(sj[name])}")
    lines += _report_lines(report)
    _emit(args, payload, lines)
    return 0 if report.passed else 1


def _cmd_degeneracy(args) -> int:
    params = _params_from_args(args)
    pair = degeneracy_bases(params, args.q, k=args.precision)
    report = verify_degeneracy(pair)
    pj = pair.to_json()
    payload = {"degeneracy": pj, "verification": report}
    lines = [
        f"delta={params.delta} level={params.level} p={params.p} q={args.q} case={pair.case}",
        "f basis: " + ", ".join(pj["f"]),
        "g basis: " + ", ".join(pj["g"]),
        f"constants: {pj['constants']}",
        f"det f = {pj['det_f']}, det g = {pj['det_g']}",
    ]
    lines += _report_lines(report)
    _emit(args, payload, lines)
    return 0 if report.passed else 1


def _cmd_psi(args) -> int:
    psi = build_psi(args.delta, args.src, args.dst, p=args.p)
    report = verify_psi(psi, seed=args.seed)
    pj = psi.to_json()
    payload = {"psi": pj}
    divisible = args.dst < args.src and args.src % args.dst == 0
    if divisible:
        report.extend(verify_psi_inclusion(psi))
        payload["inclusion_formulas"] = {
            name: str(value)
            for name, value in inclusion_coordinate_formulas(psi).items()
        }
    payload["verification"] = report
    lines = [
        f"delta={args.delta} levels {args.src} -> {args.dst} p={pj['p']}",
        f"beta = {pj['beta']}, delta = {pj['delta']}",
        "images: " + ", ".join(f"{g} -> {img}" for g, img in sorted(pj["images"].items())),
    ]
    if divisible:
        lines.append(f"inclusion formulas: {payload['inclusion_formulas']}")
    lines += _report_lines(report)
    _emit(args, payload, lines)
    return 0 if report.passed else 1


def _cmd_chain(args) -> int:
    depths = _parse_int_list(args.depths, "depths")
    cb, report = verify_chain(args.delta, args.q, p=args.p, depths=depths)
    cj = cb.to_json()
    payload = {"chain": cj}
    if args.family is not None:
        family = _parse_int_list(args.family, "family")
        fam_report = verify_chain_family(args.delta, family, p=args.p)
        report.extend(fam_report, prefix="family.")
        payload["family"] = sorted(set(family))
    payload["verification"] = report
    lines = [
        f"delta={args.delta} q={args.q} case={cj['case']} level={cj['level']}"
        + (f" aux_level={cj['aux_level']}" if "aux_level" in cj else ""),
        "basis: " + ", ".join(cj["basis"]),
        f"oracle depth {cj['oracle_depth']}, stabilized: {cj['stabilized']}",
    ]
    lines += _report_lines(report)
    _emit(args, payload, lines)
    return 0 if report.passed else 1


def _cmd_verify(args) -> int:
    deltas = _parse_int_list(args.deltas, "deltas")
    levels = _parse_int_list(args.levels, "levels")
    places = tuple(_parse_place(tok) for tok in args.places.split(",") if tok.strip())
    sections = tuple(tok.strip() for tok in args.sections.split(",") if tok.strip())
    for section in sections:
        if section not in ALL_SECTIONS:
            raise InvalidParametersError(
                f"unknown section {section!r}; choose from {', '.join(ALL_SECTIONS)}"
            )
    report = run_sweep(
        deltas=deltas, levels=levels, places=places,
        k=args.precision, seed=args.seed, sections=sections,
        inject_at_p_sign_flip=args.inject_at_p_sign_flip,
    )
    lines = []
    if not args.json:  # _emit would drop the lines
        for c in report.checks:
            if c.check_id.endswith(".coverage") or c.check_id.startswith("numth."):
                lines.append(f"  {'ok  ' if c.ok else 'FAIL'} {c.check_id}  {c.witness}")
        for c in report.failures():
            suffix = f"  ({c.witness})" if c.witness else ""
            lines.append(f"  FAIL {c.check_id}{suffix}")
        lines.append(_summary_line(report))
    _emit(args, {"verification": report}, lines)
    return 0 if report.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatorder",
        description="Exact orders in rational quaternion algebras: "
        "construction, local splittings, degeneracies, level isomorphisms, "
        "chain intersections, and their verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, level=True):
        sp.add_argument("--delta", type=int, required=True,
                        help="reduced discriminant of the algebra")
        if level:
            sp.add_argument("--level", type=int, default=1, help="order level (default 1)")
        sp.add_argument("--p", type=int, default=None,
                        help="splitting prime (default: smallest admissible)")
        sp.add_argument("--json", action="store_true", help="canonical JSON output")

    sp = sub.add_parser("construct", help="order basis for a discriminant and level")
    common(sp)
    sp.set_defaults(func=_cmd_construct)

    sp = sub.add_parser("split", help="local matrix model at one place")
    common(sp)
    sp.add_argument("--place", type=str, required=True,
                    help="prime, 'p' for the splitting prime, or 'inf'")
    sp.add_argument("--precision", type=int, default=DEFAULT_PRECISION,
                    help="q-adic working digits")
    sp.set_defaults(func=_cmd_split)

    sp = sub.add_parser("degeneracy", help="level-raising embeddings at a prime")
    common(sp)
    sp.add_argument("--q", type=int, required=True, help="prime to raise the level by")
    sp.add_argument("--precision", type=int, default=DEFAULT_PRECISION,
                    help="q-adic working digits")
    sp.set_defaults(func=_cmd_degeneracy)

    sp = sub.add_parser("psi", help="isomorphism between two levels")
    common(sp, level=False)
    sp.add_argument("--src", type=int, required=True, help="source level")
    sp.add_argument("--dst", type=int, required=True, help="destination level")
    sp.add_argument("--seed", type=int, default=0, help="seed for sample checks")
    sp.set_defaults(func=_cmd_psi)

    sp = sub.add_parser("chain", help="chain intersection at a prime")
    common(sp, level=False)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--depths", type=str, default=",".join(str(d) for d in DEFAULT_DEPTHS),
                    help="oracle depths, comma-separated")
    sp.add_argument("--family", type=str, default=None,
                    help="comma-separated primes for the family triviality check")
    sp.set_defaults(func=_cmd_chain)

    sp = sub.add_parser("verify", help="full verification sweep")
    sp.add_argument("--deltas", type=str, default=",".join(str(d) for d in DEFAULT_DELTAS))
    sp.add_argument("--levels", type=str, default=",".join(str(n) for n in DEFAULT_LEVELS))
    sp.add_argument("--places", type=str,
                    default=",".join(str(q) for q in DEFAULT_PLACES))
    sp.add_argument("--sections", type=str, default=",".join(ALL_SECTIONS))
    sp.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--inject-at-p-sign-flip", action="store_true",
                    help=argparse.SUPPRESS)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidParametersError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PrecisionLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except QuatOrderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a bug, which must not read as a failed certificate
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


def run() -> None:
    """Exit the process with ``main``'s code.  ``gc.freeze()`` first moves
    every live object out of the collector's reach, so finalization no
    longer walks and frees them one by one; it still flushes the streams
    and runs the atexit handlers."""
    try:
        raise SystemExit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()

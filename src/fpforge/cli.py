"""Command-line frontend: build, certify, decide, report.

All inputs are explicit flags (no environment configuration), reports are
deterministic for fixed inputs, and files are written atomically.  Exit
codes: 0 success, 1 domain error, 2 I/O, configuration or input format error.
:func:`main` may be called repeatedly in one process: it builds its parser
on the first call and reuses it; :func:`build_parser` returns a fresh one.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile

from . import complex_core, covers, groups, homology, sigma as sigma_mod, spectrum as spectrum_mod
from .complex_core import _json_field, _json_int_arrays, _json_list, _json_object, _json_text, _read_json
from .homology import RingSpec
from .sigma import BASE_ID, FAMILY_ID, SL_ID, example_registry
from .spherical_double import spherical_double

_CLOSURE_NOTE = (
    f"a complex whose facets could close to more than {complex_core._CLOSURE_CAP} simplices "
    "(the sum of 2^|facet| - 1) is refused with exit code 1"
)
COMPLEX_FORMAT = 'complex JSON: {"vertices": [0, 1, 2], "facets": [[0, 1, 2]]}; ' + _CLOSURE_NOTE
VOLTAGE_FORMAT = (
    'voltage JSON: {"base": <complex>, "degree": 2, '
    '"voltages": [{"edge": [2, 3], "perm": [2, 1]}]} (tree edges implied identity); ' + _CLOSURE_NOTE
)
GRAPH_FORMAT = 'graph JSON: {"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2], [0, 2]]}'
SPREADS_FORMAT = (
    'spreads JSON: {"spreads": [{"height": 2, "loops": [[0, 1, 2, 0]]}]}; spread relators that would hold more '
    f"than {groups._SPREAD_LETTER_CAP} letters in all (the sum of |height| * len(loop)) are refused with exit code 1"
)
SIGMA_FORMAT = 'sigma JSON: {"registry": {"entries": [...]}, "base_id": "L", "exceptions": [[3, "c"]], ...}'


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fpforge-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_double(args) -> int:
    L = complex_core.load_complex(args.complex)
    doubled = spherical_double(L)
    if args.out:
        _atomic_write(args.out, complex_core.dump_complex(doubled.complex))
    f = doubled.complex.f_vector()
    report = {"base_f_vector": list(L.f_vector()), "double_f_vector": list(f)}
    if args.report:
        _atomic_write(args.report, _json_text(report))
    print(f"double: f-vector {f}")
    return 0


def _cmd_cover(args) -> int:
    rings = [RingSpec.parse(r) for r in (args.ring or ["Z"])]
    voltage = covers.load_voltage(args.voltage)
    cover = covers.build_cover(voltage)
    if not covers.verify_covering(cover):
        raise covers.CoverError("built complex fails the covering verification")
    if args.out:
        _atomic_write(args.out, complex_core.dump_complex(cover.total))
    certificates = [homology.reduced_homology(cover.total, r).to_json_dict() for r in rings]
    f = cover.total.f_vector()
    report = {
        "degree": voltage.degree,
        "total_f_vector": list(f),
        "base_f_vector": list(voltage.base.f_vector()),
        "verified_covering": True,
        "homology": certificates,
    }
    if args.certificate:
        _atomic_write(args.certificate, _json_text(report))
    print(f"cover: degree {voltage.degree}, total f-vector {f}")
    for cert in certificates:
        print(f"cover: certificate over {cert['ring']} written")
    return 0


def _cmd_homology(args) -> int:
    K = complex_core.load_complex(args.complex)
    ring = RingSpec.parse(args.ring)
    summary = homology.reduced_homology(K, ring)
    text = homology.dump_summary(summary)
    if args.out:
        _atomic_write(args.out, text)
    print(str(summary))
    return 0


def _load_spreads(path: str | None) -> dict[int, list[list[int]]]:
    if not path:
        return {}
    data = _json_object(_read_json(path), "$")
    out: dict[int, list[list[int]]] = {}
    for i, item in enumerate(_json_list(data.get("spreads", []), "$.spreads")):
        at = f"$.spreads[{i}]"
        item = _json_object(item, at)
        height = _json_field(item, "height", at, int)
        out[height] = [list(lp) for lp in _json_int_arrays(_json_field(item, "loops", at), f"{at}.loops")]
    return out


def _cmd_present(args) -> int:
    L = complex_core.load_complex(args.complex)
    spreads = _load_spreads(args.spreads)
    pres = groups.deck_group_presentation(L, spreads)
    if args.out:
        _atomic_write(args.out, pres.to_text())
    if args.json:
        _atomic_write(args.json, groups.presentation_to_json(pres))
    ab = groups.abelianization(pres)
    print(
        f"present: {len(pres.generators)} generators, {len(pres.relators)} relators, "
        f"abelianization {ab}"
    )
    return 0


def _cmd_decide(args) -> int:
    spec = sigma_mod.load_sigma_spec(args.sigma)
    if args.finitely_presented:
        decide = sigma_mod.finitely_presented_decide
    else:
        if not args.ring or not args.k:
            raise ValueError("decide needs --ring and --k (or --finitely-presented)")
        k = args.k if args.k == "FP" else int(args.k)
        decide = functools.partial(sigma_mod.fp_decide, R=RingSpec.parse(args.ring), k=k)
    sigma_mod.check_referenced_entries(spec)
    verdict = decide(spec)
    if args.out:
        _atomic_write(args.out, _json_text(verdict.to_json_dict()))
    print(str(verdict))
    return 0


def _cmd_sigma(args) -> int:
    if args.builder == "constants":
        constants = sigma_mod.choose_constants(args.d, args.r_bounds, args.m)
        payload = {"constants": list(constants), "d": args.d}
        if args.out:
            _atomic_write(args.out, _json_text(payload))
        print(f"constants: {list(constants)}")
        return 0

    registry = sigma_mod.load_registry(args.registry) if args.registry else example_registry()
    member_ids = {p: f"{FAMILY_ID}{p}" for p in (3, 5, 7) if f"{FAMILY_ID}{p}" in registry}
    if args.builder == "field-example":
        spec = sigma_mod.sigma_field_example(registry, member_ids=member_ids)
    elif args.builder == "prime-set":
        primes = [int(p) for p in (args.primes or "").split(",") if p]
        spec = sigma_mod.sigma_prime_set(primes, registry, member_ids=member_ids)
    elif args.builder == "power-tower":
        fset = [int(x) for x in (args.f_set or "").split(",") if x]
        primes = [int(p) for p in (args.primes or "3").split(",") if p]
        constants = sigma_mod.choose_constants(args.d, args.r_bounds, args.m)
        spec = sigma_mod.sigma_power_tower(fset, constants, registry, primes, member_ids=member_ids)
    else:
        raise ValueError(f"unknown builder {args.builder!r}")
    if args.out:
        _atomic_write(args.out, sigma_mod.dump_sigma_spec(spec))
    print(f"sigma: built {args.builder} specification ({len(spec.registry)} registry entries)")
    return 0


def _cmd_spectrum(args) -> int:
    graph = spectrum_mod.load_graph(args.graph)
    report = spectrum_mod.taut_spectrum(graph, args.lmax, args.budget)
    if args.out:
        _atomic_write(args.out, _json_text(report.to_json_dict()))
    print(f"spectrum: taut lengths {report.spectrum}")
    return 0


def _cmd_subpres(args) -> int:
    full = groups.presentation_from_json(args.presentation)
    registry = sigma_mod.load_registry(args.registry) if args.registry else example_registry()
    t_indices = [int(i) for i in (args.retain or "").split(",") if i]
    for i in t_indices:
        if not 0 <= i < len(full.relators):
            raise ValueError(f"retained relator index {i} out of range")
    T = [full.relators[i] for i in t_indices]
    selection = sigma_mod.subpresentation_select(full, T, registry, args.base_id, args.cover_id)
    if args.out:
        _atomic_write(args.out, groups.presentation_to_json(selection.presentation))
    if args.sigma_out:
        _atomic_write(args.sigma_out, sigma_mod.dump_sigma_spec(selection.sigma))
    print(
        f"subpres: kept {len(selection.presentation.relators)} of {len(full.relators)} relators, "
        f"pinned heights {sorted(selection.retained_heights)}"
    )
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    """A fresh ``fpforge`` parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="fpforge",
        description="Flag complexes, doubles, covers, homology, presentations, and finiteness decisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("double", _cmd_double, help="spherical double of a complex", epilog=COMPLEX_FORMAT)
    p.add_argument("--complex", required=True, help="input complex JSON path")
    p.add_argument("--out", help="output complex JSON path")
    p.add_argument("--report", help="f-vector report JSON path")

    p = add("cover", _cmd_cover, help="build and certify a voltage cover", epilog=VOLTAGE_FORMAT)
    p.add_argument("--voltage", required=True, help="voltage assignment JSON path")
    p.add_argument("--out", help="total space complex JSON path")
    p.add_argument("--certificate", help="covering + homology certificate JSON path")
    p.add_argument("--ring", action="append", help="certificate ring (repeatable): Z, Q, or F<p>")

    p = add("homology", _cmd_homology, help="reduced homology certificate", epilog=COMPLEX_FORMAT)
    p.add_argument("--complex", required=True)
    p.add_argument("--ring", required=True, help="Z, Q, or F<p>")
    p.add_argument("--out", help="certificate JSON path")

    epilog = COMPLEX_FORMAT + "; " + SPREADS_FORMAT
    p = add("present", _cmd_present, help="edge/triangle presentation with spread powers", epilog=epilog)
    p.add_argument("--complex", required=True)
    p.add_argument("--spreads", help="spread loops JSON path")
    p.add_argument("--out", help="presentation text path")
    p.add_argument("--json", help="presentation JSON path (carries tags)")

    p = add("decide", _cmd_decide, help="finiteness-property decision", epilog=SIGMA_FORMAT)
    p.add_argument("--sigma", required=True, help="sigma specification JSON path")
    p.add_argument("--ring", help="Z, Q, or F<p>")
    p.add_argument("--k", help="degree bound (integer) or FP")
    p.add_argument("--finitely-presented", action="store_true", help="decide finite presentability instead")
    p.add_argument("--out", help="verdict JSON path")

    p = add("sigma", _cmd_sigma, help="specification builders")
    p.add_argument("--builder", required=True, choices=["field-example", "prime-set", "power-tower", "constants"])
    p.add_argument("--registry", help="registry JSON path (defaults to the built-in desk registry)")
    p.add_argument("--primes", help="comma-separated primes, e.g. 2,3")
    p.add_argument("--f-set", help="comma-separated naturals for the power-tower builder")
    p.add_argument("--d", type=int, default=2, help="complex dimension for the constants")
    p.add_argument("--m", type=int, default=1, help="how many constants")
    p.add_argument("--r-bounds", type=int, nargs="*", help="loop-length bounds per position")
    p.add_argument("--out", help="specification (or constants) JSON path")

    p = add("spectrum", _cmd_spectrum, help="taut loop length spectrum", epilog=GRAPH_FORMAT)
    p.add_argument("--graph", required=True, help="edge-list graph JSON path")
    p.add_argument("--lmax", type=int, required=True, help="longest loop length to decide")
    p.add_argument(
        "--budget",
        type=int,
        default=100_000,
        help="coset rows per level (default 100000); where no table completes and the level's Tietze "
        "reduction keeps a relator, also max(budget // 10, 100) derivation-search nodes per candidate",
    )
    p.add_argument("--out", help="report JSON path")

    p = add("subpres", _cmd_subpres, help="kernel-protecting subpresentation selection")
    p.add_argument("--presentation", required=True, help="full tagged presentation JSON path")
    p.add_argument("--retain", help="comma-separated relator indices to retain")
    p.add_argument("--registry", help="registry JSON path")
    p.add_argument("--base-id", default=BASE_ID)
    p.add_argument("--cover-id", default=SL_ID)
    p.add_argument("--out", help="subpresentation JSON path")
    p.add_argument("--sigma-out", help="induced sigma specification JSON path")

    return parser


@functools.cache  # main's parser: built on the first call, kept for the process
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"fpforge: i/o error: {exc}", file=sys.stderr)
        code = 2
    except complex_core.FormatError as exc:
        print(f"fpforge: format error: {exc}", file=sys.stderr)
        code = 2
    except (ValueError, AssertionError) as exc:
        print(f"fpforge: {exc}", file=sys.stderr)
        code = 1
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()

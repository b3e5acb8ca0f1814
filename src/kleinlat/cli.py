"""Command-line front end.

Exit codes: 0 on success, 1 when a mathematical verification fails, 2 for
usage or input errors.  All randomized checks accept --seed (default 0) and
are byte-reproducible for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .klein import KLattice, dim_vector
from .polys import F2Poly
from .quiver import LambdaRep, TubeId, TubeLabel, identify_tube, lattice_of, phi
from .tubes import s3_on_polynomial, s3_on_tube, syzygy, end_ring_check, tube_module_from_label
from .cohomology import CohomologyGroup, SumContext, canonical_form, verify_xi_iso
from .colattices import DualSumContext, co_canonical_form, verify_eta_iso
from .groups import ch_presentation, classify, cr_presentation
from . import verification


class UsageError(Exception):
    pass


def parse_tube_id(text: str) -> TubeId:
    """Parse a tube without a member: "special:1", "hom:t^2+t+1"."""
    kind, _, name = text.partition(":")
    if kind in ("special", "spec") and name:
        return TubeId.special(name)
    if kind in ("hom", "homogeneous") and name:
        return TubeId.homogeneous(F2Poly.from_string(name))
    raise UsageError(f"cannot parse tube {text!r}")


def parse_tube_label(text: str, j=None, m=None) -> TubeLabel:
    """Parse "special:1" / "hom:t^2+t+1" (with --j/--m) or "spec:1:j:m"."""
    parts = text.split(":")
    tube = parse_tube_id(":".join(parts[:2]))
    rest = parts[2:]
    if tube.kind == "special":
        if rest:
            j = int(rest[0])
            if len(rest) > 1:
                m = int(rest[1])
        if j is None or m is None:
            raise UsageError("special tubes need --j and --m")
        return TubeLabel(tube, int(j), int(m))
    if rest:
        m = int(rest[0])
    if m is None:
        raise UsageError("homogeneous tubes need --m")
    if j is not None:
        raise UsageError("homogeneous tubes take no branch index")
    return TubeLabel(tube, None, int(m))


def parse_summands(text: str) -> list[TubeLabel]:
    return [parse_tube_label(part) for part in text.split(",") if part]


def load_klattice(path: str) -> KLattice:
    with open(path) as fh:
        return KLattice.from_json(json.load(fh))


def emit(obj, args):
    out = json.dumps(obj, indent=2) if args.format == "json" else str(obj)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)


def degrees_of(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..")
        out = list(range(int(lo), int(hi) + 1))
    else:
        out = [int(x) for x in text.split(",")]
    if not out:
        raise UsageError(f"--degrees {text} names no degree: the checks would run on nothing")
    return out


def cmd_build_tube(args):
    label = parse_tube_label(args.tube, args.j, args.m)
    T = tube_module_from_label(label, with_chain=False)
    emit(T.lattice.to_json(), args)
    return 0


def cmd_phi(args):
    M = load_klattice(args.module)
    emit(phi(M).to_json(), args)
    return 0


def cmd_lattice_of(args):
    with open(args.rep) as fh:
        V = LambdaRep.from_json(json.load(fh))
    emit(lattice_of(V).to_json(), args)
    return 0


def cmd_dim(args):
    M = load_klattice(args.module)
    emit(dim_vector(M).to_json(), args)
    return 0


def cmd_cohomology(args):
    M = load_klattice(args.module)
    H = CohomologyGroup(M, args.degree)
    if args.format == "json":
        emit({"n": args.degree, "invariants": list(H.invariants)}, args)
    else:
        emit(",".join(str(d) for d in H.invariants) or "trivial", args)
    return 0


def cmd_xi_verify(args):
    label = parse_tube_label(args.tube, args.j, args.m)
    T = tube_module_from_label(label)
    results = {}
    ok = True
    for n in degrees_of(args.degrees):
        good = verify_xi_iso(T, n)
        results[str(n)] = good
        ok = ok and good
    emit({"tube": str(label), "xi_iso": results}, args)
    return 0 if ok else 1


def cmd_eta_verify(args):
    label = parse_tube_label(args.tube, args.j, args.m)
    T = tube_module_from_label(label)
    results = {}
    ok = True
    for n in degrees_of(args.degrees):
        good = verify_eta_iso(T, n, args.level)
        results[str(n)] = good
        ok = ok and good
    emit({"tube": str(label), "eta_iso": results, "level": args.level}, args)
    return 0 if ok else 1


def cmd_syzygy(args):
    M = load_klattice(args.module)
    Om = syzygy(M)
    payload = Om.to_json()
    payload["dim"] = dim_vector(Om).to_json()
    lab = identify_tube(phi(Om))
    payload["label"] = str(lab)
    emit(payload, args)
    return 0


def cmd_endring_check(args):
    label = parse_tube_label(args.tube, args.j, args.m)
    T = tube_module_from_label(label, with_chain=False)
    ok = end_ring_check(T)
    emit({"tube": str(label), "end_ring_matches": ok}, args)
    return 0 if ok else 1


def cmd_s3(args):
    if args.poly:
        f = F2Poly.from_string(args.poly)
        out = s3_on_polynomial(f, args.which)
        emit({"which": args.which, "poly": str(f), "image": str(out)}, args)
        return 0
    if args.m or args.tube.count(":") > 1:
        tube = parse_tube_label(args.tube, args.j, args.m).tube
    elif ":" in args.tube:
        tube = parse_tube_id(args.tube)
    else:
        tube = TubeId.special(args.tube)
    out = s3_on_tube(tube, args.which)
    emit({"which": args.which, "tube": str(tube), "image": str(out)}, args)
    return 0


def _sum_and_class(args, dual=False):
    labels = parse_summands(args.summands)
    summands = [tube_module_from_label(l) for l in labels]
    if dual:
        sc = DualSumContext(summands, args.degree, args.level)
    else:
        sc = SumContext(summands, args.degree)
    coords = [int(x) for x in args.coords.split(",")] if args.coords else []
    return summands, sc, sc.H.from_coords(coords)


def cmd_canonical(args):
    summands, sc, cls = _sum_and_class(args)
    cf = canonical_form(summands, cls, args.degree, context=sc)
    emit(
        {
            "data": cf.data.to_json(),
            "m0": [str(l) for l in cf.m0_labels],
            "positions": list(cf.positions),
        },
        args,
    )
    return 0


def cmd_co_canonical(args):
    summands, sc, cls = _sum_and_class(args, dual=True)
    cf = co_canonical_form(summands, cls, args.degree, args.level, context=sc)
    emit(
        {
            "data": cf.data.to_json(),
            "n0": [str(l) for l in cf.n0_labels],
            "positions": list(cf.positions),
        },
        args,
    )
    return 0


def cmd_present_cr(args):
    args.degree = 2
    summands, sc, cls = _sum_and_class(args)
    cf = canonical_form(summands, cls, 2, context=sc)
    pres = cr_presentation(cf.data, cf.m0_labels)
    if args.format == "json":
        emit(pres.to_json(), args)
    else:
        emit(pres.text(), args)
    return 0


def cmd_present_ch(args):
    args.degree = 2
    summands, sc, cls = _sum_and_class(args, dual=True)
    cf = co_canonical_form(summands, cls, 2, args.level, context=sc)
    pres = ch_presentation(cf.data, cf.n0_labels, args.level)
    if args.format == "json":
        emit(pres.to_json(), args)
    else:
        emit(pres.text(), args)
    return 0


def cmd_classify(args):
    labels1 = parse_summands(args.summands1)
    labels2 = parse_summands(args.summands2)
    s1 = [tube_module_from_label(l) for l in labels1]
    s2 = [tube_module_from_label(l) for l in labels2]
    sc1, sc2 = SumContext(s1, 2), SumContext(s2, 2)
    c1 = sc1.H.from_coords([int(x) for x in args.coords1.split(",")] if args.coords1 else [])
    c2 = sc2.H.from_coords([int(x) for x in args.coords2.split(",")] if args.coords2 else [])
    res = classify(s1, c1, s2, c2, context1=sc1, context2=sc2)
    emit(res.to_json(), args)
    return 0


def cmd_verify_all(args):
    if args.max_m < 1:
        raise UsageError(f"--max-m must be at least 1 (got {args.max_m}): the tube sweeps would be empty")
    degrees = tuple(degrees_of(args.degrees))
    results = verification.run_all(args.max_m, degrees, args.seed, fast=args.fast)
    all_ok = True
    for name, ok, detail in sorted(results):
        line = f"{'PASS' if ok else 'FAIL'}  {name}: {detail}"
        print(line)
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="kleinlat", description=__doc__)
    p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    p.add_argument("--format", choices=("json", "text"), default="json")
    sub = p.add_subparsers(dest="command", required=True)

    def tube_args(sp):
        sp.add_argument("--tube", required=True, help="special:LAM or hom:POLY")
        sp.add_argument("--j", type=int, default=None)
        sp.add_argument("--m", type=int, default=None)

    sp = sub.add_parser("build-tube", help="construct a tube member lattice")
    tube_args(sp)
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_build_tube)

    sp = sub.add_parser("phi", help="quiver representation of a lattice")
    sp.add_argument("-m", "--module", required=True)
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_phi)

    sp = sub.add_parser("lattice-of", help="lattice realizing a representation")
    sp.add_argument("-r", "--rep", required=True)
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_lattice_of)

    sp = sub.add_parser("dim", help="dimension vector of a lattice")
    sp.add_argument("-m", "--module", required=True)
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_dim)

    sp = sub.add_parser("cohomology", help="invariant factors of H^n")
    sp.add_argument("-m", "--module", required=True)
    sp.add_argument("-n", "--degree", type=int, required=True)
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_cohomology)

    sp = sub.add_parser("xi-verify", help="closed-form cocycles give a basis")
    tube_args(sp)
    sp.add_argument("--degrees", default="1..4")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_xi_verify)

    sp = sub.add_parser("eta-verify", help="dual closed-form cocycles give a basis")
    tube_args(sp)
    sp.add_argument("--degrees", default="1..4")
    sp.add_argument("--level", type=int, default=3)
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_eta_verify)

    sp = sub.add_parser("syzygy", help="kernel of the free cover")
    sp.add_argument("-m", "--module", required=True)
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_syzygy)

    sp = sub.add_parser("endring-check", help="endomorphism order equality")
    tube_args(sp)
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_endring_check)

    sp = sub.add_parser("s3", help="symmetric-group action on labels")
    sp.add_argument("--which", choices=("t2", "t3"), required=True)
    sp.add_argument("--tube", default="")
    sp.add_argument("--poly", default="")
    sp.add_argument("--j", type=int, default=None)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_s3)

    sp = sub.add_parser("canonical", help="standard data of a class")
    sp.add_argument("--summands", required=True, help="comma list, e.g. hom:t^2+t+1:2")
    sp.add_argument("--coords", default="")
    sp.add_argument("-n", "--degree", type=int, default=2)
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_canonical)

    sp = sub.add_parser("co-canonical", help="costandard data of a dual class")
    sp.add_argument("--summands", required=True)
    sp.add_argument("--coords", default="")
    sp.add_argument("-n", "--degree", type=int, default=2)
    sp.add_argument("--level", type=int, default=3)
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_co_canonical)

    sp = sub.add_parser("present-cr", help="crystallographic presentation")
    sp.add_argument("--summands", required=True)
    sp.add_argument("--coords", default="")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_present_cr)

    sp = sub.add_parser("present-ch", help="Chernikov presentation")
    sp.add_argument("--summands", required=True)
    sp.add_argument("--coords", default="")
    sp.add_argument("--level", type=int, default=3)
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_present_ch)

    sp = sub.add_parser("classify", help="isomorphism of two extensions")
    sp.add_argument("--summands1", required=True)
    sp.add_argument("--coords1", default="")
    sp.add_argument("--summands2", required=True)
    sp.add_argument("--coords2", default="")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("verify-all", help="run the full acceptance battery")
    sp.add_argument("--max-m", type=int, default=3)
    sp.add_argument("--degrees", default="1..4")
    sp.add_argument("--fast", action="store_true", help="reduced sweep sizes")
    sp.set_defaults(func=cmd_verify_all)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except AssertionError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Subcommands: betti, zk, color, quotient, tor, verify, sharp, corpus.
Exit status 0 when all requested checks pass, 1 on a failed check, 2 on
usage or input validation errors.  A check that raises (MismatchFound,
NotAComplex) and a validation error both print the module error name.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor

from .betti import betti_table, zk_cohomology_dims
from .bounds import all_bound_checks, sharpness_suite
from .coloring import (
    Partition,
    format_blocks,
    greedy_coloring,
    is_nondegenerate,
    minimum_coloring,
    parse_blocks,
    partition_to_json,
    trivial_partition,
)
from .complexes import (
    SimplicialComplex,
    complex_to_json,
    from_facets,
    mask_of,
    parse_complex,
    vertices_of,
)
from .corpus import random_complex
from .errors import MismatchFound, NotAComplex, SRBettiError
from .linalg import QQ, GF2, GF3, FieldSpec
from .tor import _unstabilized, quotient_cohomology_dims, tor_dims, verify_tor_threeway


def _add_input_args(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--in", dest="infile", metavar="PATH", help="complex file (text format)")
    g.add_argument("--facets", metavar="SPEC", help='inline facets, e.g. "1 2, 2 3, 3 4, 1 4"')
    p.add_argument("--m", type=int, default=None, help="vertex count (default: max vertex in --facets)")
    p.add_argument("--allow-isolated", action="store_true", help="add uncovered vertices as 0-faces")


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", dest="fmt", choices=("json", "text"), default="json")
    p.add_argument("--max-m", type=int, default=None, help="override the vertex cap")


def _add_partition_args(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--blocks", metavar="SPEC", help='inline partition blocks, e.g. "1 3 | 2 4"')
    g.add_argument("--blocks-file", metavar="PATH", help="partition file (blocks format)")
    g.add_argument("--greedy", action="store_true", help="greedy coloring (default)")
    g.add_argument("--minimum", action="store_true", help="exact minimum coloring")
    g.add_argument("--trivial", action="store_true", help="trivial partition (r = m)")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="srbetti", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("betti", help="multigraded Betti table")
    _add_input_args(p)
    _add_common_args(p)

    p = sub.add_parser("zk", help="moment-angle complex cohomology dimensions")
    _add_input_args(p)
    _add_common_args(p)

    p = sub.add_parser("color", help="partition search / nondegeneracy check")
    _add_input_args(p)
    _add_common_args(p)
    _add_partition_args(p)

    p = sub.add_parser("quotient", help="torus-quotient cohomology dimensions")
    _add_input_args(p)
    _add_common_args(p)
    _add_partition_args(p)

    p = sub.add_parser("tor", help="Tor table with stabilization flags")
    _add_input_args(p)
    _add_common_args(p)
    _add_partition_args(p)
    p.add_argument("--weight-bound", type=int, default=None)

    p = sub.add_parser("verify", help="three-way Tor verification plus all bound checks")
    _add_input_args(p)
    _add_common_args(p)
    _add_partition_args(p)
    p.add_argument("--weight-bound", type=int, default=None)

    p = sub.add_parser("sharp", help="sharpness suite for joins of simplex boundaries")
    _add_common_args(p)
    p.add_argument("--dims", type=int, nargs="+", required=True, metavar="N")

    p = sub.add_parser("corpus", help="seeded random complexes, verify over all")
    _add_common_args(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--corpus-max-m", type=int, default=6)
    p.add_argument("--density", type=float, default=0.4)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--weight-bound", type=int, default=None)

    for name in ("betti", "zk", "quotient", "tor", "verify", "sharp"):  # the ones that read it
        sub.choices[name].add_argument(
            "--field", default="q", help="coefficient field: q | f2 | f3 | fp:P"
        )
    return top


def _load_complex(args) -> SimplicialComplex:
    kwargs = {"allow_isolated": args.allow_isolated, "max_vertices": args.max_m}
    if args.infile:
        with open(args.infile, encoding="utf-8") as fh:
            return parse_complex(fh.read(), **kwargs)
    facets = []
    for part in args.facets.replace(";", ",").split(","):
        vs = [int(v) for v in part.split()]
        facets.append(mask_of(vs))
    m = args.m
    if m is None:
        m = max((max(vertices_of(f)) for f in facets if f), default=0)
    return from_facets(m, facets, **kwargs)


def _resolve_partition(args, K: SimplicialComplex) -> tuple[str, Partition]:
    if getattr(args, "blocks_file", None):
        with open(args.blocks_file, encoding="utf-8") as fh:
            return "file", parse_blocks(fh.read(), K.m)
    if getattr(args, "blocks", None):
        return "inline", parse_blocks(args.blocks, K.m)
    if getattr(args, "minimum", False):
        return "minimum", minimum_coloring(K)
    if getattr(args, "trivial", False):
        return "trivial", trivial_partition(K.m)
    return "greedy", greedy_coloring(K)


def _emit(payload: dict, text: str, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=False))
    else:
        print(text)


def _cmd_betti(args) -> int:
    K = _load_complex(args)
    f = FieldSpec.parse(args.field)
    table = betti_table(K, f)
    rows = table.to_json()
    text = "\n".join(
        f"i={row['i']} omega={row['omega']} beta={row['beta']}" for row in rows
    )
    _emit(
        {"complex": complex_to_json(K), "field": str(f), "entries": rows, "total": table.total()},
        text + f"\ntotal {table.total()}",
        args.fmt,
    )
    return 0


def _cmd_zk(args) -> int:
    K = _load_complex(args)
    f = FieldSpec.parse(args.field)
    dims = zk_cohomology_dims(K, f)
    rows = [{"q": q, "dim": d} for q, d in sorted(dims.items())]
    text = "\n".join(f"q={r['q']} dim={r['dim']}" for r in rows)
    _emit({"complex": complex_to_json(K), "field": str(f), "dims": rows}, text, args.fmt)
    return 0


def _cmd_color(args) -> int:
    K = _load_complex(args)
    source, alpha = _resolve_partition(args, K)
    nondeg = is_nondegenerate(K, alpha)
    payload = {
        "source": source,
        "partition": partition_to_json(alpha),
        "blocks": format_blocks(alpha),
        "r": alpha.r,
        "nondegenerate": nondeg,
    }
    text = f"{format_blocks(alpha)}\nr {alpha.r}\nnondegenerate {str(nondeg).lower()}"
    _emit(payload, text, args.fmt)
    return 0 if nondeg else 1


def _cmd_quotient(args) -> int:
    K = _load_complex(args)
    f = FieldSpec.parse(args.field)
    _, alpha = _resolve_partition(args, K)
    dims = quotient_cohomology_dims(K, alpha, f)
    rows = [{"q": q, "dim": d} for q, d in sorted(dims.items())]
    text = "\n".join(f"q={r['q']} dim={r['dim']}" for r in rows)
    _emit(
        {"complex": complex_to_json(K), "field": str(f), "blocks": format_blocks(alpha), "dims": rows},
        text,
        args.fmt,
    )
    return 0


def _cmd_tor(args) -> int:
    K = _load_complex(args)
    f = FieldSpec.parse(args.field)
    _, alpha = _resolve_partition(args, K)
    table = tor_dims(K, alpha, f, args.weight_bound)
    payload = {
        "complex": complex_to_json(K),
        "field": str(f),
        "blocks": format_blocks(alpha),
        **table.to_json(),
    }
    lines = [
        f"q={q} L={list(vertices_of(L))} dim={v}" for (q, L), v in table.sorted_items()
    ]
    _emit(payload, "\n".join(lines), args.fmt)
    return 0


def _cmd_verify(args) -> int:
    K = _load_complex(args)
    f = FieldSpec.parse(args.field)
    _, alpha = _resolve_partition(args, K)
    report = verify_tor_threeway(K, alpha, f, args.weight_bound)
    checks = all_bound_checks(K, alpha, f)
    ok = report.ok and all(r.verdict for r in checks.values())
    payload = {
        "complex": complex_to_json(K),
        "field": str(f),
        "blocks": format_blocks(alpha),
        "threeway": report.to_json(),
        "bounds": {name: r.to_json() for name, r in checks.items()},
        "pass": ok,
    }
    text_parts = []
    for rec in report.records:
        if rec.tor or rec.cellular or rec.hochster or not rec.ok:
            text_parts.append(
                f"L={list(vertices_of(rec.colors))} q={rec.q} tor={rec.tor} "
                f"cellular={rec.cellular} hochster={rec.hochster} "
                f"{'ok' if rec.ok else 'MISMATCH'}"
            )
    for name, r in checks.items():
        text_parts.append(r.to_text())
    text_parts.append("pass" if ok else "fail")
    _emit(payload, "\n".join(text_parts), args.fmt)
    return 0 if ok else 1


def _cmd_sharp(args) -> int:
    f = FieldSpec.parse(args.field)
    report = sharpness_suite(args.dims, f, max_vertices=args.max_m)
    _emit(report.to_json(), report.to_text(), args.fmt)
    return 0 if report.verdict else 1


def _corpus_member(task) -> dict:
    m, density, seed, weight_bound, max_m = task
    K = random_complex(m, density, seed, max_vertices=max_m)
    alpha = greedy_coloring(K)
    result = {"m": m, "density": density, "seed": seed, "fields": {}, "pass": True}
    for f in (QQ, GF2, GF3):
        report = verify_tor_threeway(K, alpha, f, weight_bound)
        checks = all_bound_checks(K, alpha, f)
        ok = report.ok and all(r.verdict for r in checks.values())
        result["fields"][str(f)] = {
            "pass": ok,
            "stabilized": report.all_stabilized,
            "unstabilized": _unstabilized(report.table.stabilized),
        }
        result["pass"] = result["pass"] and ok
    return result


def _cmd_corpus(args) -> int:
    if args.corpus_max_m < 4:
        raise ValueError(f"--corpus-max-m must be at least 4, got {args.corpus_max_m}")
    tasks = []
    for k in range(args.count):
        m = 4 + k % (args.corpus_max_m - 3)
        tasks.append((m, args.density, args.seed + k, args.weight_bound, args.max_m))
    jobs = min(args.jobs, len(tasks))  # the pool starts all its workers at once
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_corpus_member, tasks))
    else:
        results = [_corpus_member(t) for t in tasks]
    ok = all(r["pass"] for r in results)
    if args.fmt == "json":
        print(json.dumps({"members": results, "pass": ok}, indent=2))
    else:
        for r in results:
            print(
                f"m={r['m']} density={r['density']} seed={r['seed']} "
                f"{'pass' if r['pass'] else 'FAIL'}"
            )
        print("pass" if ok else "fail")
    return 0 if ok else 1


_COMMANDS = {
    "betti": _cmd_betti,
    "zk": _cmd_zk,
    "color": _cmd_color,
    "quotient": _cmd_quotient,
    "tor": _cmd_tor,
    "verify": _cmd_verify,
    "sharp": _cmd_sharp,
    "corpus": _cmd_corpus,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # warnings print as ``warning: <Category>: <message>``, without the source
    # line, whose number changes with every edit (format ignores extra fields)
    formatwarning = warnings.formatwarning
    warnings.formatwarning = "warning: {1.__name__}: {0}\n".format
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            return _COMMANDS[args.command](args)
    except (SRBettiError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (MismatchFound, NotAComplex)) else 2
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())

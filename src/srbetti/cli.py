"""Command-line entry point.

Subcommands: betti, zk, color, quotient, tor, verify, sharp, corpus.
Exit status 0 when all requested checks pass, 1 on a failed check, 2 on
usage or input validation errors.  A check that raises (MismatchFound,
NotAComplex) and a validation error both print the module error name.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from functools import lru_cache

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


def _add_field_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--field", default="q", help="coefficient field: q | f2 | f3 | fp:P")


def _add_weight_bound_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--weight-bound", type=int, default=None)


def _add_dims_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dims", type=int, nargs="+", required=True, metavar="N")


def _add_corpus_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--corpus-max-m", type=int, default=6)
    p.add_argument("--density", type=float, default=0.4)
    p.add_argument("--jobs", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="srbetti", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    for name, help_, groups, handler in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_)
        for add in groups:
            add(p)
        p.set_defaults(handler=handler)
    return top


_parser = lru_cache(maxsize=1)(build_parser)  # main's, one per process; it only reads it


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


_ESCAPE = json.encoder.encode_basestring_ascii
_LITERAL = {True: "true", False: "false", None: "null"}.__getitem__
_SCALARS = {str: _ESCAPE, int: int.__repr__, bool: _LITERAL, type(None): _LITERAL}
_ITEM = object()  # the key of every list item; its head is empty


def _dumps(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, in one pass: json indents in pure Python."""
    out: list[str] = []
    put = out.append
    heads = {_ITEM: ""}  # str key -> '"key": '

    def enc(o, nl: str) -> None:
        t = type(o)
        if (t is dict or t is list) and o:
            inner = nl + "  "
            sep, comma = ("{" if t is dict else "[") + inner, "," + inner
            for k, v in o.items() if t is dict else zip([_ITEM] * len(o), o):
                head = heads.get(k)
                if head is None:  # json escapes the key, or coerces one that is no str
                    head = json.dumps({k: 0})[1:-2]
                    if type(k) is str:
                        heads[k] = head
                scalar = _SCALARS.get(type(v))
                if scalar is not None:
                    put(sep + head + scalar(v))
                else:
                    put(sep + head)
                    enc(v, inner)
                sep = comma
            put(nl + ("}" if t is dict else "]"))
        else:  # an empty container, or a type no payload holds (float, tuple, ...)
            put(json.dumps(o, indent=2).replace("\n", nl))

    enc(obj, "\n")
    del enc  # enc refers to itself: a cycle that would keep every fragment until a gc pass
    return "".join(out)


# Each handler returns (payload, text, exit code): ``text`` renders the text
# view and is called only under ``--format text``.


def _head(args) -> tuple[SimplicialComplex, FieldSpec, Partition, dict]:
    """K, f, α and the payload head of quotient, tor and verify."""
    K = _load_complex(args)
    f = FieldSpec.parse(args.field)
    _, alpha = _resolve_partition(args, K)
    return K, f, alpha, {"complex": complex_to_json(K), "field": str(f), "blocks": format_blocks(alpha)}


def _dim_rows(dims: dict[int, int]):
    """The {q, dim} rows of zk and quotient, and their text view."""
    rows = [{"q": q, "dim": d} for q, d in sorted(dims.items())]
    return rows, lambda: "\n".join(f"q={r['q']} dim={r['dim']}" for r in rows)


def _checks(K: SimplicialComplex, alpha: Partition, f: FieldSpec, weight_bound: int | None):
    """verify's report, its bound checks and whether all of them pass."""
    report = verify_tor_threeway(K, alpha, f, weight_bound)
    checks = all_bound_checks(K, alpha, f)
    return report, checks, report.ok and all(r.verdict for r in checks.values())


def _cmd_betti(args):
    K = _load_complex(args)
    f = FieldSpec.parse(args.field)
    table = betti_table(K, f)
    rows = table.to_json()
    payload = {"complex": complex_to_json(K), "field": str(f), "entries": rows, "total": table.total()}
    return payload, lambda: "\n".join(
        f"i={row['i']} omega={row['omega']} beta={row['beta']}" for row in rows
    ) + f"\ntotal {payload['total']}", 0


def _cmd_zk(args):
    K = _load_complex(args)
    f = FieldSpec.parse(args.field)
    rows, text = _dim_rows(zk_cohomology_dims(K, f))
    return {"complex": complex_to_json(K), "field": str(f), "dims": rows}, text, 0


def _cmd_color(args):
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
    return payload, lambda: "\n".join(
        [payload["blocks"], f"r {alpha.r}", f"nondegenerate {str(nondeg).lower()}"]
    ), 0 if nondeg else 1


def _cmd_quotient(args):
    K, f, alpha, head = _head(args)
    rows, text = _dim_rows(quotient_cohomology_dims(K, alpha, f))
    return {**head, "dims": rows}, text, 0


def _cmd_tor(args):
    K, f, alpha, head = _head(args)
    table = tor_dims(K, alpha, f, args.weight_bound)
    return {**head, **table.to_json()}, lambda: "\n".join(
        f"q={q} L={list(vertices_of(L))} dim={v}" for (q, L), v in table.sorted_items()
    ), 0


def _cmd_verify(args):
    K, f, alpha, head = _head(args)
    report, checks, ok = _checks(K, alpha, f, args.weight_bound)
    payload = {
        **head,
        "threeway": report.to_json(),
        "bounds": {name: r.to_json() for name, r in checks.items()},
        "pass": ok,
    }

    def text() -> str:
        lines = [
            f"L={list(vertices_of(rec.colors))} q={rec.q} tor={rec.tor} "
            f"cellular={rec.cellular} hochster={rec.hochster} "
            f"{'ok' if rec.ok else 'MISMATCH'}"
            for rec in report.records
            if rec.tor or rec.cellular or rec.hochster or not rec.ok
        ]
        return "\n".join([*lines, *(r.to_text() for r in checks.values()), "pass" if ok else "fail"])

    return payload, text, 0 if ok else 1


def _cmd_sharp(args):
    report = sharpness_suite(args.dims, FieldSpec.parse(args.field), max_vertices=args.max_m)
    return report.to_json(), report.to_text, 0 if report.verdict else 1


def _corpus_member(task) -> dict:
    m, density, seed, weight_bound, max_m = task
    K = random_complex(m, density, seed, max_vertices=max_m)
    alpha = greedy_coloring(K)
    result = {"m": m, "density": density, "seed": seed, "fields": {}, "pass": True}
    for f in (QQ, GF2, GF3):
        report, _, ok = _checks(K, alpha, f, weight_bound)
        result["fields"][str(f)] = {
            "pass": ok,
            "stabilized": report.all_stabilized,
            "unstabilized": _unstabilized(report.table.stabilized),
        }
        result["pass"] = result["pass"] and ok
    return result


def _cmd_corpus(args):
    if args.corpus_max_m < 4:
        raise ValueError(f"--corpus-max-m must be at least 4, got {args.corpus_max_m}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if args.count < 1:  # no member checked is no pass
        raise ValueError(f"--count must be at least 1, got {args.count}")
    tasks = []
    for k in range(args.count):
        m = 4 + k % (args.corpus_max_m - 3)
        tasks.append((m, args.density, args.seed + k, args.weight_bound, args.max_m))
    jobs = min(args.jobs, len(tasks), os.cpu_count() or 1)  # the pool forks them all at once
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # imports multiprocessing: only here
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_corpus_member, tasks))
    else:
        results = [_corpus_member(t) for t in tasks]
    ok = all(r["pass"] for r in results)
    return {"members": results, "pass": ok}, lambda: "\n".join(
        [f"m={r['m']} density={r['density']} seed={r['seed']} {'pass' if r['pass'] else 'FAIL'}"
         for r in results] + ["pass" if ok else "fail"]
    ), 0 if ok else 1


_READS_K = (_add_input_args, _add_common_args)
_PARTITIONED = (*_READS_K, _add_partition_args)
# name, help, argument groups in --help order, handler
_SUBCOMMANDS = (
    ("betti", "multigraded Betti table", (*_READS_K, _add_field_arg), _cmd_betti),
    ("zk", "moment-angle complex cohomology dimensions", (*_READS_K, _add_field_arg), _cmd_zk),
    ("color", "partition search / nondegeneracy check", _PARTITIONED, _cmd_color),
    ("quotient", "torus-quotient cohomology dimensions", (*_PARTITIONED, _add_field_arg),
     _cmd_quotient),
    ("tor", "Tor table with stabilization flags",
     (*_PARTITIONED, _add_weight_bound_arg, _add_field_arg), _cmd_tor),
    ("verify", "three-way Tor verification plus all bound checks",
     (*_PARTITIONED, _add_weight_bound_arg, _add_field_arg), _cmd_verify),
    ("sharp", "sharpness suite for joins of simplex boundaries",
     (_add_common_args, _add_dims_arg, _add_field_arg), _cmd_sharp),
    ("corpus", "seeded random complexes, verify over all",
     (_add_common_args, _add_corpus_args, _add_weight_bound_arg), _cmd_corpus),
)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # warnings print as ``warning: <Category>: <message>``, without the source
    # line, whose number changes with every edit (format ignores extra fields)
    formatwarning = warnings.formatwarning
    warnings.formatwarning = "warning: {1.__name__}: {0}\n".format
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            payload, text, code = args.handler(args)
            print(_dumps(payload) if args.fmt == "json" else text())
            return code
    except (SRBettiError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (MismatchFound, NotAComplex)) else 2
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())

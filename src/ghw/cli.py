"""Command-line front end.

Subcommands wrap the library one-to-one and talk JSON on stdout.  Exit
codes are scriptable: 0 success, 1 bad arguments or any domain error,
2 enumeration budget exhausted.  Group arguments take the literal format
of parse_group; commands reading a group fall back to stdin when
--group is omitted.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import automorphisms, constructions, core, enumerate as enum_mod, graph as graph_mod
from .core import GhwError, ParseError, format_group, parse_group
from .enumerate import BudgetExhausted

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is reserved for budget
    # exhaustion here, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="ghw", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_census_opts(p):
        p.add_argument("--long", action="store_true",
                       help="allow long-running dimensions (6 and up)")
        p.add_argument("--budget", type=float, default=None,
                       help="time budget in seconds for long mode")
        p.add_argument("--workers", type=int, default=1,
                       help="process count for enumeration")

    p = sub.add_parser("enumerate", help="write one census as JSON lines")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    add_census_opts(p)

    p = sub.add_parser("table", help="per-dimension summary table")
    p.add_argument("--max-dim", type=int, required=True)
    add_census_opts(p)

    p = sub.add_parser("betti", help="Betti vector of one group")
    p.add_argument("--group", default=None)

    p = sub.add_parser("graph", help="build the cross-dimension graph")
    p.add_argument("--max-dim", type=int, required=True)
    p.add_argument("--dot", default=None, help="write DOT here")
    p.add_argument("--json", dest="json_path", default=None,
                   help="write the edge list here")
    add_census_opts(p)

    p = sub.add_parser("reduce", help="delete one coordinate")
    p.add_argument("--group", default=None)
    p.add_argument("--coordinate", type=int, required=True)
    p.add_argument("--functional", type=int, default=None,
                   help="index-two subgroup as a flip-mask functional "
                        "(default: kernel of the chosen cocycle coordinate)")

    p = sub.add_parser("realize", help="build a group from sign data")
    p.add_argument("--family", choices=("klein", "gamma"), default=None)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--flips", default=None,
                   help="comma-separated generator flip masks, "
                        "e.g. 6,5 for the didicosm signs")

    p = sub.add_parser("embed-exist", help="one dimension up, reduction-invertible")
    p.add_argument("--group", default=None)
    p.add_argument("--coordinate", type=int, default=None)

    p = sub.add_parser("embed-mono", help="gamma family monomorphism witness")
    p.add_argument("--group", default=None)

    p = sub.add_parser("semidirect", help="adjoin a total flip one dimension up")
    p.add_argument("--group", default=None)

    p = sub.add_parser("didicosm-witness", help="didicosm subgroup witness")
    p.add_argument("--group", default=None)

    p = sub.add_parser("out-order", help="outer automorphism order report")
    p.add_argument("--group", default=None)

    p = sub.add_parser("isomorphic", help="compare two groups")
    p.add_argument("--group", default=None)
    p.add_argument("--other", required=True)

    return top


def _read_group(args) -> core.GhwPresentation:
    text = args.group
    if text is None:
        text = sys.stdin.read()
    return parse_group(text)


def _gen_strings(gens) -> list[str]:
    return [f"{sv.to_string()}:{tc.to_string()}" for sv, tc in gens]


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def _census_opts(args) -> dict:
    return {"long_mode": args.long, "budget": args.budget,
            "workers": args.workers}


def cmd_enumerate(args) -> int:
    census = enum_mod.enumerate_census(args.dim, **_census_opts(args))
    text = enum_mod.census_to_jsonl(census)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_table(args) -> int:
    _emit(enum_mod.census_table(args.max_dim, **_census_opts(args)))
    return EXIT_OK


def cmd_betti(args) -> int:
    from .homology import betti_vector

    p = _read_group(args)
    _emit(list(betti_vector(p)))
    return EXIT_OK


def cmd_graph(args) -> int:
    g = graph_mod.build_graph(args.max_dim, **_census_opts(args))
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(graph_mod.dot_export(g))
    if args.json_path:
        with open(args.json_path, "w") as fh:
            fh.write(graph_mod.edges_json(g))
    _emit({
        "vertices": len(g.vertices),
        "edges": len(g.edges),
        "connected": g.is_connected(),
    })
    return EXIT_OK


def cmd_reduce(args) -> int:
    p = _read_group(args)
    q = constructions.reduce(p, args.functional, args.coordinate)
    _emit({
        "group": format_group(q),
        "key": enum_mod.canonical_key(q).hex(),
    })
    return EXIT_OK


def cmd_realize(args) -> int:
    if (args.family is None) == (args.flips is None):
        raise ValueError("give exactly one of --family or --flips")
    if args.family == "klein":
        p = constructions.klein_group(args.dim)
    elif args.family == "gamma":
        p = constructions.gamma_group(args.dim)
    else:
        masks = tuple(int(tok) for tok in args.flips.split(","))
        spec = constructions.RepresentationSpec(args.dim, masks)
        p = constructions.realize_representation(spec)
    out = {"group": format_group(p)}
    if isinstance(p, core.GhwPresentation):
        out["kind"] = "ghw"
        out["key"] = enum_mod.canonical_key(p).hex()
    else:
        out["kind"] = "diagonal"
        out["holonomy_rank"] = len(p.gens)
    _emit(out)
    return EXIT_OK


def cmd_embed_exist(args) -> int:
    p = _read_group(args)
    q = constructions.embed_up_exist(p, args.coordinate)
    _emit({
        "group": format_group(q),
        "key": enum_mod.canonical_key(q).hex(),
    })
    return EXIT_OK


def cmd_embed_mono(args) -> int:
    p = _read_group(args)
    w = constructions.embed_up_mono(p)
    _emit({
        "target": format_group(w.target),
        "images": _gen_strings(w.images),
        "escaped_translation_doubled": list(w.escaped.trans2),
        "normal": w.normal,
    })
    return EXIT_OK


def cmd_semidirect(args) -> int:
    p = _read_group(args)
    q = constructions.semidirect_minus_id(p)
    _emit({
        "group": format_group(q),
        "key": enum_mod.canonical_key(q).hex(),
    })
    return EXIT_OK


def cmd_didicosm_witness(args) -> int:
    p = _read_group(args)
    w = constructions.didicosm_witness(p)
    _emit({
        "first": _gen_strings([w.first])[0],
        "second": _gen_strings([w.second])[0],
        "lattice_rank": w.lattice_rank,
        "schreier_rows_doubled": [list(r) for r in w.schreier_rows],
    })
    return EXIT_OK


def cmd_out_order(args) -> int:
    p = _read_group(args)
    r = automorphisms.out_order(p)
    _emit({
        "h1_order": r.h1_order,
        "perm_stabilizer_order": r.perm_stabilizer_order,
        "n_alpha_quotient_order": r.n_alpha_quotient_order,
        "out_order": r.out_order,
        "bound": r.bound,
    })
    return EXIT_OK


def cmd_isomorphic(args) -> int:
    p = _read_group(args)
    q = parse_group(args.other)
    left = enum_mod.canonical_key(p)
    right = enum_mod.canonical_key(q)
    _emit({
        "isomorphic": left == right,
        "left_key": left.hex(),
        "right_key": right.hex(),
    })
    return EXIT_OK


_COMMANDS = {
    "enumerate": cmd_enumerate,
    "table": cmd_table,
    "betti": cmd_betti,
    "graph": cmd_graph,
    "reduce": cmd_reduce,
    "realize": cmd_realize,
    "embed-exist": cmd_embed_exist,
    "embed-mono": cmd_embed_mono,
    "semidirect": cmd_semidirect,
    "didicosm-witness": cmd_didicosm_witness,
    "out-order": cmd_out_order,
    "isomorphic": cmd_isomorphic,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse signals usage problems by raising; keep main returning
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except BudgetExhausted as exc:
        print(f"ghw: budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ParseError as exc:
        print(f"ghw: parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GhwError, ValueError, OSError) as exc:
        print(f"ghw: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

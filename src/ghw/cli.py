"""Command-line front end.

Subcommands wrap the library one-to-one and talk JSON on stdout; each is
declared once, in _parser, and its handler returns the reply main prints.
Exit codes are scriptable: 0 success, 1 bad arguments or any domain error,
2 enumeration budget exhausted. Group arguments take the literal format of
parse_group, read from stdin when --group is omitted; literals and
dimension flags stop at core.MAX_DIM.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from functools import cache, partial

from . import automorphisms, constructions, core, enumerate as enum_mod, graph as graph_mod
from .core import MAX_DIM, GhwError, ParseError, format_group, parse_group
from .enumerate import BudgetExhausted
from .homology import betti_vector

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


def _ascii_number(text: str, noun: str, digits_only: bool) -> str:
    """text when it is ASCII with no surrounding space and no underscore,
    all digits if digits_only, with at most core._INT_DIGITS significant
    digits, as integers in a group literal."""
    if (not text.isascii() or text != text.strip() or "_" in text
            or digits_only and not text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected {noun} of ASCII digits")
    if sum(c.isdigit() for c in text.lstrip("0")) > core._INT_DIGITS:
        raise argparse.ArgumentTypeError(
            f"{noun.split()[-1]} has more than {core._INT_DIGITS} digits")
    return text


def _natural(text: str) -> int:
    """The type of every integer flag."""
    return int(_ascii_number(text, "an integer", digits_only=True))


def _seconds(text: str) -> float:
    """The type of --budget; zero, negative and nan are refused later."""
    try:
        return float(_ascii_number(text, "a number", digits_only=False))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None


def _flip_masks(text: str) -> tuple[int, ...]:
    return tuple(_natural(tok) for tok in text.split(","))


def _dimension(text: str) -> int:
    """The type of every dimension flag: an integer in 2..MAX_DIM."""
    n = _natural(text)
    if not 2 <= n <= MAX_DIM:
        raise argparse.ArgumentTypeError(
            f"dimension {n} is outside 2..{MAX_DIM}; the cap is {MAX_DIM}")
    return n


def _with_group(handler, args):
    text = sys.stdin.read() if args.group is None else args.group
    return handler(parse_group(text), args)


@cache
def _parser() -> argparse.ArgumentParser:
    """The whole command table; argparse parsers are reusable, so one per process."""
    top = _Parser(prog="ghw", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, help, handler, reads_group=False):
        p = sub.add_parser(name, help=help)
        if reads_group:
            p.add_argument("--group", default=None)
            handler = partial(_with_group, handler)
        p.set_defaults(handler=handler)
        return p

    def census_opts(p):
        p.add_argument("--long", action="store_true",
                       help="allow long-running dimensions (6 and up)")
        p.add_argument("--budget", type=_seconds, default=None,
                       help="time budget in seconds for the census walk, "
                       "the invariant pass and the graph's reductions")

    p = command("enumerate", "write one census as JSON lines", cmd_enumerate)
    p.add_argument("--dim", type=_dimension, required=True)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    census_opts(p)

    p = command("table", "per-dimension summary table", cmd_table)
    p.add_argument("--max-dim", type=_dimension, required=True)
    census_opts(p)

    command("betti", "Betti vector of one group", cmd_betti, reads_group=True)

    p = command("graph", "build the cross-dimension graph", cmd_graph)
    p.add_argument("--max-dim", type=_dimension, required=True)
    p.add_argument("--dot", default=None, help="write DOT here")
    p.add_argument("--json", dest="json_path", default=None,
                   help="write the edge list here")
    census_opts(p)

    p = command("reduce", "delete one coordinate", cmd_reduce, reads_group=True)
    p.add_argument("--coordinate", type=_natural, required=True)
    p.add_argument("--functional", type=_natural, default=None,
                   help="index-two subgroup as a flip-mask functional "
                        "(default: kernel of the chosen cocycle coordinate)")

    p = command("realize", "build a group from sign data", cmd_realize)
    p.add_argument("--family", choices=("klein", "gamma"), default=None)
    p.add_argument("--dim", type=_dimension, required=True)
    p.add_argument("--flips", type=_flip_masks, default=None,
                   help="comma-separated generator flip masks, "
                        "e.g. 6,5 for the didicosm signs")

    p = command("embed-exist", "one dimension up, reduction-invertible",
                cmd_embed_exist, reads_group=True)
    p.add_argument("--coordinate", type=_natural, default=None)

    command("embed-mono", "gamma family monomorphism witness", cmd_embed_mono,
            reads_group=True)
    command("semidirect", "adjoin a total flip one dimension up",
            cmd_semidirect, reads_group=True)
    command("didicosm-witness", "didicosm subgroup witness",
            cmd_didicosm_witness, reads_group=True)
    command("out-order", "outer automorphism order report", cmd_out_order,
            reads_group=True)

    p = command("isomorphic", "compare two groups", cmd_isomorphic,
                reads_group=True)
    p.add_argument("--other", required=True)

    return top


def _keyed(q) -> dict:
    return {"group": format_group(q), "key": enum_mod.canonical_key(q).hex()}


def _census_opts(args) -> dict:
    return {"long_mode": args.long, "budget": args.budget}


def _write_rows(path, rows) -> None:
    """Write rows as they come to the file at path, or to stdout without
    one, so no whole export text is ever held."""
    with open(path, "w") if path else nullcontext(sys.stdout) as fh:
        fh.writelines(rows)


def cmd_enumerate(args) -> None:
    census = enum_mod.enumerate_census(args.dim, **_census_opts(args))
    _write_rows(args.out, map(enum_mod._entry_json, census.entries))


def cmd_table(args) -> list:
    return enum_mod.census_table(args.max_dim, **_census_opts(args))


def cmd_betti(p, args) -> list:
    return list(betti_vector(p))


def cmd_graph(args) -> dict:
    g = graph_mod.build_graph(args.max_dim, **_census_opts(args))
    if args.dot:
        _write_rows(args.dot, graph_mod._dot_rows(g))
    if args.json_path:
        _write_rows(args.json_path, graph_mod._edge_rows(g))
    return {
        "vertices": len(g.vertices),
        "edges": len(g.edges),
        "connected": g.is_connected(),
    }


def cmd_reduce(p, args) -> dict:
    return _keyed(constructions.reduce(p, args.functional, args.coordinate))


def cmd_realize(args) -> dict:
    if (args.family is None) == (args.flips is None):
        raise ValueError("give exactly one of --family or --flips")
    if args.family == "klein":
        p = constructions.klein_group(args.dim)
    elif args.family == "gamma":
        p = constructions.gamma_group(args.dim)
    else:
        spec = constructions.RepresentationSpec(args.dim, args.flips)
        p = constructions.realize_representation(spec)
    if isinstance(p, core.GhwPresentation):
        return {"group": format_group(p), "kind": "ghw",
                "key": enum_mod.canonical_key(p).hex()}
    return {"group": format_group(p), "kind": "diagonal",
            "holonomy_rank": len(p.gens)}


def cmd_embed_exist(p, args) -> dict:
    return _keyed(constructions.embed_up_exist(p, args.coordinate))


def cmd_embed_mono(p, args) -> dict:
    w = constructions.embed_up_mono(p)
    return {
        "target": format_group(w.target),
        "images": list(map(core._generator_text, w.images)),
        "escaped_translation_doubled": list(w.escaped.trans2),
        "normal": w.normal,
    }


def cmd_semidirect(p, args) -> dict:
    return _keyed(constructions.semidirect_minus_id(p))


def cmd_didicosm_witness(p, args) -> dict:
    w = constructions.didicosm_witness(p)
    return {
        "first": core._generator_text(w.first),
        "second": core._generator_text(w.second),
        "lattice_rank": w.lattice_rank,
        "schreier_rows_doubled": [list(r) for r in w.schreier_rows],
    }


def cmd_out_order(p, args) -> dict:
    return automorphisms.out_order(p)._asdict()


def cmd_isomorphic(p, args) -> dict:
    q = parse_group(args.other)
    left = enum_mod.canonical_key(p)
    right = enum_mod.canonical_key(q)
    return {
        "isomorphic": left == right,
        "left_key": left.hex(),
        "right_key": right.hex(),
    }


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse signals usage problems by raising; keep main returning
        return int(exc.code or 0)
    try:
        reply = args.handler(args)
        if reply is not None:
            print(json.dumps(reply, indent=2))
        return EXIT_OK
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

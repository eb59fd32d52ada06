"""Checks on the replies to the query stream.

Every check rests on something the generator knows about its own input,
computed with the benchmark's own group model, never on a value the
package computed for another query of the same kind.
"""

from __future__ import annotations

import json

from groups import cocycle, is_valid, out_bound, parse_literal, support_mask


class CheckFailed(Exception):
    """A reply that contradicts what the generator knows about its query."""


def expect(condition, what: str = "") -> None:
    # Not an assert: the gate must hold under python -O too.
    if not condition:
        raise CheckFailed(what)


def _valid_support_size(text: str, n: int) -> int:
    """Support size of a reply's group literal, after checking it is a valid
    group of dimension n."""
    dim, gens = parse_literal(text)
    expect(dim == n and is_valid(n, gens), text)
    return support_mask(n, gens).bit_count()


def _key_prefix(key_hex: str, n: int, k: int) -> None:
    # A key starts with the dimension and the support size.
    expect(bytes.fromhex(key_hex)[:2] == bytes([n, k]), key_hex)


def check_reply(q: dict, code, out: str, replies: dict) -> None:
    """Raise CheckFailed when the reply to q is wrong.

    replies maps each query id of the stream to its (exit code, stdout)
    pair, for the checks that compare with an earlier query.
    """
    if "repeat_of" in q:
        expect((code, out) == replies[q["repeat_of"]], "repeat differs")
        return
    kind = q["kind"]
    expect_exit = 1 if kind == "invalid" else q.get("expect_exit", 0)
    expect(code == expect_exit, f"exit {code}, expected {expect_exit}")
    if code != 0:
        expect(out == "", "a refused query printed a result")
        return
    obj = json.loads(out)
    n, k = q.get("n"), q.get("k")
    if kind == "isomorphic":
        expect(obj["isomorphic"] is q["expect"], "wrong verdict")
        expect((obj["left_key"] == obj["right_key"]) is q["expect"],
               "keys disagree with the verdict")
        _key_prefix(obj["left_key"], n, k)
        _key_prefix(obj["right_key"], n, q["other_k"])
    elif kind == "betti":
        b1 = 1 if k == 1 else 0
        expect(len(obj) == n + 1 and obj[0] == 1 and obj[1] == b1, "b0 or b1")
        expect(obj[n] == (1 if k == n else 0), "top Betti number")
        # A closed flat manifold has Euler characteristic 0.
        expect(sum((-1) ** i * b for i, b in enumerate(obj)) == 0,
               "Euler characteristic")
    elif kind == "out":
        b1 = 1 if k == 1 else 0
        expect(obj["bound"] == out_bound(n, b1), "bound")
        expect(0 < obj["out_order"] <= obj["bound"], "Out beyond its bound")
        expect(obj["h1_order"] == 1 << (n - b1), "|H^1|")
        expect(obj["n_alpha_quotient_order"] == 2 * obj["perm_stabilizer_order"],
               "quotient")
        expect(obj["out_order"] == obj["h1_order"] * obj["n_alpha_quotient_order"],
               "Out is not |H^1| times the quotient")
        if "same_out_as" in q:
            first = json.loads(replies[q["same_out_as"]][1])
            expect(obj["out_order"] == first["out_order"], "Out moved")
    elif kind == "embed":
        expect(_valid_support_size(obj["group"], n + 1) == k, "support moved")
        _key_prefix(obj["key"], n + 1, k)
    elif kind == "reduce_back":
        original = json.loads(replies[q["key_from"]][1])["left_key"]
        expect(obj["key"] == original, "reduce did not undo embed-exist")
        expect(_valid_support_size(obj["group"], n - 1) == k, "support moved")
    elif kind == "semidirect":
        dim, gens = parse_literal(obj["group"])
        expect(dim == n + 1 and is_valid(dim, gens), obj["group"])
        expect(support_mask(dim, gens) == 1 << n, "support is not the new coordinate")
        _key_prefix(obj["key"], n + 1, 1)
    elif kind == "didicosm":
        expect(obj["lattice_rank"] == 3, "lattice rank")
        dim, gens = parse_literal(q["literal"])
        table = cocycle(gens)
        for name in ("first", "second"):
            _, [(flips, halves)] = parse_literal(f"dim={n}; gens={obj[name]}")
            expect(table.get(flips) == halves, "witness not in the group")
    elif kind == "realize":
        expect(obj["kind"] == "ghw", "kind")
        got_k = _valid_support_size(obj["group"], n)
        if q["family"] == "klein":
            expect(got_k == 1, "Klein family support")
        _key_prefix(obj["key"], n, got_k)
    else:
        raise CheckFailed(f"unknown query kind {kind}")

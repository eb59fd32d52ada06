"""Seeded stream of single-group CLI queries, with the answer each must give.

The stream has a fixed composition: BLOCK lists how many queries of each
kind go into every block of 100, and each kind walks its list of
(dimension, support size) cells round-robin. The seed picks the groups,
their scrambles, which earlier literal a repeat copies, and the order.
So two seeds differ in their literals but not in how many queries of each
cost class they hold, which keeps the latency percentiles steady.

Shares per block of 100: 15 repeat an earlier literal verbatim and 3 are
malformed or invalid literals that must exit 1. Dimensions run from 4 to
8; dimension 8 only reaches commands that compute no dimension-8 key or
Out (betti, didicosm-witness and the invalid literals).

Each query is a dict of plain data:
  id      a stable number, unique in the stream; references hold ids
  argv    the argument vector for ghw.cli.main; a None entry is filled at
          run time with the "group" field of the reply to query `source`
  kind    the property checked on the reply (see checks.py)
  n, k    dimension and support size of the group, where one exists
  plus kind-specific fields (literals, expected flags, references).
"""

from __future__ import annotations

import itertools
import random

from groups import (embed_up, is_valid, literal, random_group, scramble,
                    span_basis, support_mask)

BLOCK_SIZE = 100
# 1100 queries, so one stream alone leaves ten distinct queries beyond p99.
BLOCKS = 11
POOL_SIZE = 6

# Cells per kind.  Out of dimension 7 with full support is left out: at
# about 0.5 s it would dominate the run and sit on the p99 boundary.
_CELLS_4_7 = [(n, k) for n in range(4, 8) for k in range(1, n + 1, 2)]
_CELLS_4_8 = [(n, k) for n in range(4, 9) for k in range(1, min(n, 7) + 1, 2)]
_CELLS = {
    "iso_same": _CELLS_4_7,
    "iso_b1": [(n, k) for n in range(4, 8) for k in range(3, n + 1, 2)],
    "out_pair": [c for c in _CELLS_4_7 if c != (7, 7)],
    "betti": _CELLS_4_8,
    "embed_chain": [(n, k) for n in range(4, 7) for k in range(1, n + 1, 2)],
    "semidirect": [(5, 5)],
    "didicosm_full": [(5, 5), (7, 7)],
    "didicosm_b1": [(n, 1) for n in range(4, 9)],
    "realize": [(fam, n) for n in range(4, 8) for fam in ("klein", "gamma")],
    "invalid": [(n, None) for n in range(4, 9)],
}

# Units per block; out_pair and embed_chain units hold 2 and 3 queries.
BLOCK = {
    "iso_same": 15,
    "iso_b1": 5,
    "out_pair": 6,
    "betti": 15,
    "embed_chain": 5,
    "semidirect": 5,
    "didicosm_full": 5,
    "didicosm_b1": 3,
    "realize": 7,
    "invalid": 3,
}
# Repeats per block, by the kind of unit they copy a query from.
REPEATS = {"iso_same": 4, "betti": 4, "out_pair": 3, "didicosm_full": 2,
           "realize": 2}

_UNIT_LEN = {"out_pair": 2, "embed_chain": 3}
# Fields that hold the id of an earlier query of the stream.
REFS = ("source", "key_from", "same_out_as", "repeat_of")
assert sum(BLOCK[k] * _UNIT_LEN.get(k, 1) for k in BLOCK) \
    + sum(REPEATS.values()) == BLOCK_SIZE


class _Pool:
    """POOL_SIZE random groups per (n, k) cell, drawn once per stream."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.cells: dict = {}

    def _fresh(self, n: int, k: int):
        if n < 8:
            return random_group(n, k, self.rng)
        # Direct sampling gets slow at dimension 8; lift a dimension-7 group.
        base = random_group(7, k, self.rng)
        sigma = support_mask(7, base)
        at = self.rng.choice([i + 1 for i in range(7) if sigma >> i & 1])
        up = embed_up(7, base, at)
        assert is_valid(8, up)
        return up

    def group(self, n: int, k: int):
        """A fresh scramble of one of the cell's pooled groups."""
        pool = self.cells.get((n, k))
        if pool is None:
            pool = self.cells[(n, k)] = [self._fresh(n, k)
                                         for _ in range(POOL_SIZE)]
        return scramble(n, self.rng.choice(pool), self.rng)


def _invalid_literal(n: int, pool: _Pool, rng: random.Random):
    """(how, literal) for a literal the engine must refuse: malformed text,
    torsion, or signs whose span holds the total flip."""
    k = rng.choice(range(1, min(n, 7) + 1, 2))
    gens = pool.group(n, k)
    how = rng.choice(("truncated", "bad_char", "short_gens", "torsion",
                      "even_support"))
    text = literal(n, gens)
    if how == "truncated":
        return how, text[: rng.randrange(len("dim=4; gens="), len(text) - 1)]
    if how == "bad_char":
        pos = rng.randrange(len("dim=4; gens="), len(text))
        return how, text[:pos] + "x" + text[pos + 1:]
    if how == "short_gens":
        return how, literal(n, gens[:-1])
    if how == "torsion":
        j = rng.randrange(len(gens))
        gens[j] = (gens[j][0], 0)   # that generator now has finite order
        return how, literal(n, gens)
    # An even support puts the total flip into the sign span.
    sigma = sum(1 << i for i in rng.sample(range(n), rng.choice((2, 4))))
    return how, literal(n, [(m, rng.randrange(1 << n))
                            for m in span_basis(n, sigma, rng)])


def _units(kind: str, cell, pool: _Pool, rng: random.Random) -> list[dict]:
    """One unit (one to three queries in order) of the given kind; a query
    refers to an earlier one of its unit by its offset (-1, -2)."""
    if kind == "iso_same":
        n, k = cell
        g = pool.group(n, k)
        a, b = literal(n, g), literal(n, scramble(n, g, rng))
        return [dict(kind="isomorphic", argv=["isomorphic", "--group", a,
                                              "--other", b],
                     n=n, k=k, other_k=k, expect=True)]
    if kind == "iso_b1":
        n, other_k = cell
        a = literal(n, pool.group(n, 1))
        b = literal(n, pool.group(n, other_k))
        if rng.random() < 0.5:
            return [dict(kind="isomorphic", argv=["isomorphic", "--group", a,
                                                  "--other", b],
                         n=n, k=1, other_k=other_k, expect=False)]
        return [dict(kind="isomorphic", argv=["isomorphic", "--group", b,
                                              "--other", a],
                     n=n, k=other_k, other_k=1, expect=False)]
    if kind == "out_pair":
        n, k = cell
        g = pool.group(n, k)
        first = dict(kind="out", argv=["out-order", "--group", literal(n, g)],
                     n=n, k=k)
        # The scramble must report the same Out as the query before it.
        second = dict(first, argv=["out-order", "--group",
                                   literal(n, scramble(n, g, rng))],
                      same_out_as=-1)
        return [first, second]
    if kind == "betti":
        n, k = cell
        return [dict(kind="betti",
                     argv=["betti", "--group", literal(n, pool.group(n, k))],
                     n=n, k=k)]
    if kind == "embed_chain":
        n, k = cell
        g = pool.group(n, k)
        a = literal(n, g)
        return [
            dict(kind="isomorphic",
                 argv=["isomorphic", "--group", a, "--other",
                       literal(n, scramble(n, g, rng))],
                 n=n, k=k, other_k=k, expect=True),
            dict(kind="embed", argv=["embed-exist", "--group", a], n=n, k=k,
                 literal=a),
            # Delete the new coordinate again; group filled in from the
            # embed-exist reply, key compared with the isomorphic reply.
            dict(kind="reduce_back",
                 argv=["reduce", "--group", None, "--coordinate", str(n + 1)],
                 n=n + 1, k=k, source=-1, key_from=-2),
        ]
    if kind == "semidirect":
        n, k = cell
        return [dict(kind="semidirect",
                     argv=["semidirect", "--group",
                           literal(n, pool.group(n, k))], n=n, k=k)]
    if kind in ("didicosm_full", "didicosm_b1"):
        n, k = cell
        a = literal(n, pool.group(n, k))
        return [dict(kind="didicosm", argv=["didicosm-witness", "--group", a],
                     n=n, k=k, literal=a, expect_exit=0 if k > 1 else 1)]
    if kind == "realize":
        family, n = cell
        return [dict(kind="realize",
                     argv=["realize", "--family", family, "--dim", str(n)],
                     n=n, family=family)]
    if kind == "invalid":
        n, _ = cell
        how, text = _invalid_literal(n, pool, rng)
        cmd = rng.choice(("betti", "out-order", "didicosm-witness"))
        return [dict(kind="invalid", argv=[cmd, "--group", text], n=n,
                     how=how)]
    raise ValueError(kind)


def generate(seed: int) -> list[dict]:
    """The query stream for a seed: BLOCKS * BLOCK_SIZE queries."""
    rng = random.Random(seed)
    pool = _Pool(rng)
    ids = itertools.count()
    turn = {kind: 0 for kind in _CELLS}
    stream: list[dict] = []
    for _ in range(BLOCKS):
        units = []
        for kind, count in BLOCK.items():
            for j in range(count):
                cells = _CELLS[kind]
                cell = cells[turn[kind] % len(cells)]
                turn[kind] += 1
                unit = _units(kind, cell, pool, rng)
                for i, q in enumerate(unit):
                    q["id"] = next(ids)
                    for ref in REFS:
                        if ref in q:
                            q[ref] = unit[i + q[ref]]["id"]
                # The first REPEATS[kind] units of a kind get copied, so the
                # repeats follow the same round-robin over cells.
                if j < REPEATS.get(kind, 0):
                    rng.choice(unit)["copy"] = True
                units.append(unit)
        rng.shuffle(units)
        block = [q for unit in units for q in unit]
        # A verbatim copy of each marked query goes to a random later spot.
        for marked in [q for q in block if q.pop("copy", False)]:
            src = next(i for i, q in enumerate(block) if q is marked)
            block.insert(rng.randrange(src + 1, len(block) + 1),
                         dict(marked, id=next(ids), repeat_of=marked["id"]))
        stream.extend(block)
    return stream

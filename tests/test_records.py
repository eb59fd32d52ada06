"""The record types: immutable tuples with the same repr, order and texts.

Records are typing.NamedTuple classes, so `import ghw` loads neither
dataclasses nor, with it, inspect.
"""

import os
import subprocess
import sys

import pytest

import ghw
from ghw.cli import main
from ghw.constructions import InvalidSpec, ReductionChoice, RepresentationSpec
from ghw.enumerate import cached_census
from ghw.graph import build_graph

DIDICOSM = "dim=3; gens=+--:HH0,-+-:0HH"


def test_import_loads_no_pool_and_no_dataclasses():
    """A fresh `import ghw, ghw.cli` loads only what a run executes: the
    census runs in one process, so nothing loads a process pool, and no
    record needs dataclasses or inspect."""
    heavy = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect")
    src = os.path.dirname(os.path.dirname(ghw.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, ghw, ghw.cli; "
            f"print([m for m in {heavy!r} if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


# The reprs the records had as frozen dataclasses.
REPRS = {
    "OutReport": "OutReport(h1_order=8, perm_stabilizer_order=6, "
                 "n_alpha_quotient_order=12, out_order=96, bound=96)",
    "ValidationReport": "ValidationReport(faithful=True, minus_id_free=True, "
                        "torsion_free=True, torsion_offender=None, "
                        "lattice_maximal=True, support=(1, 2, 3), "
                        "normalizing_permutation=(1, 2, 3), verdict=True, "
                        "reason=None)",
    "SnfResult": "SnfResult(diagonal=(2, 4), rank=2, left=((1, 0), (3, -1)), "
                 "right=((1, -2), (0, 1)))",
    "ReductionChoice": r"ReductionChoice(functional=1, coordinate=2, "
                       r"key=b'\x03\x01\n\x06\x00')",
    "DidicosmWitness": "DidicosmWitness(first=(SignVector(3, '+--'), "
                       "TranslationClass(3, 'HH0')), second=(SignVector(3, "
                       "'-+-'), TranslationClass(3, '0HH')), lattice_rank=3, "
                       "schreier_rows=((2, 0, 0), (-2, 2, 2), (0, 2, 0), "
                       "(0, -2, -2), (0, -2, 0)))",
    "MonoEmbedding": "MonoEmbedding(source=GhwPresentation.from_literal("
                     "'dim=3; gens=+--:HH0,-+-:0HH'), "
                     "target=GhwPresentation.from_literal("
                     "'dim=4; gens=+---:HH00,-+--:0HH0,--+-:00HH'), "
                     "images=((SignVector(4, '+---'), TranslationClass(4, "
                     "'HH00')), (SignVector(4, '-+--'), TranslationClass(4, "
                     "'0HH0'))), escaped=AffineMap(n=4, mask=1110, "
                     "trans2=(1, 1, 0, 4)), normal=False)",
    "Vertex": r"Vertex(dim=2, key=b'\x02\x01\x02\x00', name='K', beta1=1)",
    "Edge": r"Edge(upper=b'\x03\x01\n\x06\x00', lower=b'\x02\x01\x02\x00', "
            r"witness=ReductionChoice(functional=2, coordinate=1, "
            r"key=b'\x02\x01\x02\x00'), normal=True)",
    "CensusEntry": r"CensusEntry(n=2, gens=((2, 1),), key=b'\x02\x01\x02\x00', "
                   r"support=(1,), beta1=1, orientable=False, "
                   r"betti=(1, 1, 0), h1_order=2, out_order=4)",
    "RepresentationSpec": "RepresentationSpec(n=3, flip_masks=(6, 5))",
}


@pytest.fixture(scope="module")
def records():
    p = ghw.parse_group(DIDICOSM)
    graph = build_graph(3)
    return {
        "OutReport": ghw.out_order(p),
        "ValidationReport": ghw.validate_ghw(p),
        "SnfResult": ghw.smith_normal_form([[2, 4], [6, 8]]),
        "ReductionChoice": ghw.list_reductions(ghw.gamma_group(4))[0],
        "DidicosmWitness": ghw.didicosm_witness(p),
        "MonoEmbedding": ghw.embed_up_mono(ghw.gamma_group(3)),
        "Vertex": graph.vertices[0],
        "Edge": graph.edges[0],
        "CensusEntry": cached_census(2).entries[0],
        "RepresentationSpec": RepresentationSpec(3, (6, 5)),
    }


@pytest.mark.parametrize("name", sorted(REPRS))
def test_repr_unchanged(records, name):
    assert type(records[name]).__name__ == name
    assert repr(records[name]) == REPRS[name]


@pytest.mark.parametrize("name", sorted(REPRS))
def test_fields_are_read_only(records, name):
    record = records[name]
    field = REPRS[name].split("(", 1)[1].split("=", 1)[0]  # the first one
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def test_reduction_choices_sort_by_functional_coordinate_key():
    choices = [ReductionChoice(2, 1, b"\x00"), ReductionChoice(1, 3, b"\x00"),
               ReductionChoice(1, 2, b"\x01"), ReductionChoice(1, 2, b"\x00")]
    assert sorted(choices) == [choices[3], choices[2], choices[1], choices[0]]
    found = ghw.list_reductions(ghw.gamma_group(5))
    assert list(found) == sorted(
        found, key=lambda r: (r.functional, r.coordinate, r.key))


@pytest.mark.parametrize("n, masks, text", [
    (1, (), "dimension must be at least 2"),
    (3, (0,), "mask 0 out of range for dimension 3"),
    (3, (8,), "mask 8 out of range for dimension 3"),
    (3, (-1,), "mask -1 out of range for dimension 3"),
    (3, (6, 6), "sign vectors are not independent"),
    (3, (6, 5, 3), "sign vectors are not independent"),
    (2, (3,), "the total flip lies in the span"),
    (4, (0b0011, 0b1100), "the total flip lies in the span"),
])
def test_spec_refusal_texts(n, masks, text):
    with pytest.raises(InvalidSpec) as info:
        RepresentationSpec(n, masks)
    assert str(info.value) == text


def test_spec_replace_is_checked():
    spec = RepresentationSpec(3, (6,))
    assert spec._replace(flip_masks=(6, 5)) == RepresentationSpec(3, (6, 5))
    with pytest.raises(InvalidSpec, match="the total flip lies in the span"):
        spec._replace(flip_masks=(6, 1))


def test_spec_by_keyword_normalizes_sign_vectors():
    signs = tuple(s for s, _ in ghw.parse_group(DIDICOSM).gens)
    spec = RepresentationSpec(n=3, flip_masks=signs)
    assert spec == RepresentationSpec(3, (0b110, 0b101))
    assert spec.flip_masks == (0b110, 0b101)


def test_out_order_reply_bytes(capsys):
    assert main(["out-order", "--group", DIDICOSM]) == 0
    out = capsys.readouterr().out
    assert out == ('{\n  "h1_order": 8,\n  "perm_stabilizer_order": 6,\n'
                   '  "n_alpha_quotient_order": 12,\n  "out_order": 96,\n'
                   '  "bound": 96\n}\n')

"""Golden digests: the six published outputs, byte for byte.

The pins are the full sha256 of what `generate`, `orbits` and
`graph --format json` write. A refactor that changes the tables, the orbit
labels or the graph changes a digest, even when two builds of the new code
agree with each other.

The closure's discovery order is pinned too: the shortest word kept for each
C2 element and for each LC2 element, and the right-action table, are not
covered by the six outputs.
Nor are the circuits `synth` prints, nor LC2's factor pairs and the words
over C1's words on each wire that those circuits are spelled in; they are
pinned here as well.
"""

import hashlib

import numpy as np
import pytest

from czorbits import kernels
from czorbits.cli import main
from czorbits.graph import to_json
from czorbits.groups import build_c1, build_c2, build_lc2
from czorbits.io import format_circuit, format_orbit_map, format_orbit_summary, format_table

GOLDEN_SHA256 = {
    "c1.tbl": "aca831ea4868d206a7ab99673323ab359a775222df8561910f3fcf66b7166251",
    "lc2.tbl": "4522a55970e66fcb2594804238fb4d8b305794e7b5c936389382872c2a115c56",
    "c2.tbl": "bee768a808e40b5ec936b5d92f2a00865a57afd5da46af825b512097466a682b",
    "orbit_map.txt": "d6e982c5abacf75bf12efa300cd11ce6ac0daaa2700cac4b8aea738aa4cf3ad1",
    "orbit_summary.txt": "4127de000936f3421753a7751ff6f46ba0724098056d965d47506c087448a6e0",
    "graph.json": "b87524bc43635d21d933be3da9e9e284a0908788057f6de0c21768c3f6855b60",
}

# c2.word_of(e) as one line per element id e, its labels separated by single spaces
C2_WORDS_SHA256 = "0dd0d413a4668d9adc12f19af785df132dd2ae918c1aca7a1ec2344895e5d9a2"
# c2.right as little-endian int32, row-major (92160 x 5)
C2_RIGHT_SHA256 = "0b43e6dc7a7407fc1f7ae92e31c6f1372b281f44b41a51a002e212e3d0dd859b"
# lc2.pairs as one "ia ib" line per element id
LC2_PAIRS_SHA256 = "4a8cc635fef63f36a8250a6202f044aa0e5385c7f636cc483f41886fd7c19280"
# each lc2 pair (ia, ib) spelled c1.word_of(ia) on wire 1, then c1.word_of(ib)
# on wire 2 (labels suffixed 1 and 2), in the C2 words format
LC2_WORDS_SHA256 = "2666e681b83f945304a1a5e00045e7e51025ff03b6905831003e9feb4e9bebf9"
# lc2.word_of(e), LC2's own shortest words over H1, P1, H2 and P2, in the C2 words format
LC2_TREE_WORDS_SHA256 = "5b8207df63696dc67323fb38ef704ce1063cbecfd4c74127842a5fb89473bc02"
# format_circuit of every element's synthesis, ids 0..92159, concatenated
CIRCUITS_SHA256 = "58d505794fbc3b99c3be81c932f494883ff6994e0a20b051ced7cbe9ed18adbe"


def _words_text(words) -> str:
    return "".join(" ".join(word) + "\n" for word in words)


def _pair_words(lc2, c1):
    for ia, ib in lc2.pairs:
        yield [lbl + "1" for lbl in c1.word_of(ia)] + [lbl + "2" for lbl in c1.word_of(ib)]


def _output(ws, name: str) -> str:
    if name.endswith(".tbl"):
        return format_table(ws.table(name[: -len(".tbl")]))
    if name == "orbit_map.txt":
        return format_orbit_map(ws.atlas)
    if name == "orbit_summary.txt":
        return format_orbit_summary(ws.atlas, ws.c2)
    return to_json(ws.graph, ws.atlas, ws.bijection)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_output_matches_pinned_digest(ws, name):
    digest = hashlib.sha256(_output(ws, name).encode()).hexdigest()
    assert digest == GOLDEN_SHA256[name]


def test_cli_writes_the_pinned_bytes(ws, tmp_path, capsys):
    """The files `generate` and `orbits` write, read back from disk: the
    chunked write path must give the same bytes as the formatters."""
    for command in ("generate", "orbits"):
        assert main([command, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    for name in ("c1.tbl", "lc2.tbl", "c2.tbl", "orbit_map.txt", "orbit_summary.txt"):
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == GOLDEN_SHA256[name], name


def test_c2_words_match_pinned_digest(ws):
    words = map(ws.c2.word_of, range(len(ws.c2)))
    assert hashlib.sha256(_words_text(words).encode()).hexdigest() == C2_WORDS_SHA256


def test_c2_right_table_matches_pinned_digest(ws):
    raw = ws.c2.right.astype("<i4").tobytes()
    assert hashlib.sha256(raw).hexdigest() == C2_RIGHT_SHA256


def test_lc2_pairs_match_pinned_digest(ws):
    text = "".join(f"{ia} {ib}\n" for ia, ib in ws.lc2.pairs)
    assert hashlib.sha256(text.encode()).hexdigest() == LC2_PAIRS_SHA256


def test_lc2_words_match_pinned_digest(ws):
    text = _words_text(_pair_words(ws.lc2, ws.c1))
    assert hashlib.sha256(text.encode()).hexdigest() == LC2_WORDS_SHA256


def test_lc2_tree_words_match_pinned_digest(ws):
    words = map(ws.lc2.word_of, range(len(ws.lc2)))
    assert hashlib.sha256(_words_text(words).encode()).hexdigest() == LC2_TREE_WORDS_SHA256


def test_circuits_match_pinned_digest(ws):
    digest = hashlib.sha256()
    for eid in range(len(ws.c2)):
        digest.update(format_circuit(ws.synthesizer.synthesize_id(eid)).encode())
    assert digest.hexdigest() == CIRCUITS_SHA256


def test_build_without_the_batched_kernel_matches_the_pinned_tables(ws):
    """The closure builds C1, LC2 and C2 without the batched kernel; the
    tables equal the pinned fixture's, so every pin above holds for them."""

    def refuse(*args):
        raise AssertionError("the closure called mat_mul_batch")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "mat_mul_batch", refuse)
        c1, c2 = build_c1(), build_c2()
        tables = [c1, build_lc2(c1, c2), c2]
    for got, want in zip(tables, (ws.c1, ws.lc2, ws.c2)):
        assert np.array_equal(got.keys, want.keys)
        assert np.array_equal(got.right, want.right)
        assert np.array_equal(got.parent, want.parent)
        assert np.array_equal(got.label, want.label)
        assert got.book == want.book
    assert tables[1].pairs == ws.lc2.pairs

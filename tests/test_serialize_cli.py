import argparse
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import trifree
from trifree import cli, render, serialize
from trifree.cli import EXIT_VIOLATION
from trifree.encoding import encode, expand_tree
from trifree.game import MAX_K, SEARCH_LIMIT, first_fit, game_tree, run_game
from trifree.geometry import Rect, as_rat, lift, lowest
from trifree.graphs import intersection_graph, is_triangle_free
from trifree.independent import augment, build, level_law, seal
from trifree.render import render_family
from trifree.shapes import RectilinearShape, TransformedCopy, catalog
from trifree.uniform import augment_uniform, build_uniform
from trifree.verify import verify_family

from _oracles import (
    canonical_sha256,
    from_maps,
    rects_meet,
    replace,
    root_cut_x,
    scene_maps_ref,
)


# The CLI child imports trifree from wherever this process found it, so the
# suite also runs from a checkout where pytest's pythonpath setting is all
# that puts src/ on the path.
_SRC = str(Path(trifree.__file__).resolve().parents[1])


def _run_cli(*args, stdin=None, timeout=None):
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "trifree.cli", *args],
                          capture_output=True, text=True, input=stdin, timeout=timeout,
                          env={**os.environ, "PYTHONPATH": path})


@pytest.fixture(scope="module")
def family_file(tmp_path_factory, frame):
    level = build(2, frame)
    doc = serialize.level_to_doc(level, frame, augment(level, frame))
    path = tmp_path_factory.mktemp("fam") / "fam2.json"
    path.write_text(serialize.dumps(doc))
    return path


def test_independent_round_trip_bit_exact(frame):
    level = build(2, frame)
    aug = augment(level, frame)
    doc = serialize.level_to_doc(level, frame, aug)
    text = serialize.dumps(doc)
    loaded = serialize.doc_to_family(serialize.loads(text))
    assert loaded.copies == aug
    assert loaded.probes == level.probes
    assert serialize.dumps(serialize.level_to_doc(level, frame, aug)) == text


def test_uniform_round_trip_bit_exact(frame):
    level = build_uniform(2, Fraction(1, 2), frame)
    doc = serialize.level_to_doc(level, frame, augment_uniform(level, frame))
    text = serialize.dumps(doc)
    loaded = serialize.doc_to_family(serialize.loads(text))
    assert loaded.epsilon == Fraction(1, 2)
    assert [p.rect for p in loaded.probes] == [p.rect for p in level.probes]
    assert loaded.probes == level.probes
    assert verify_family(loaded) == []


def test_uniform_params_block_is_neither_read_nor_written(frame):
    level = build_uniform(2, Fraction(1, 2), frame)
    doc = serialize.level_to_doc(level, frame, augment_uniform(level, frame))
    # an old file's "params" block, here with nonsense values, is ignored
    old = json.loads(serialize.dumps(doc))
    old["params"] = {"s_min": "1", "s_max": "1", "m": "999", "eps1": "5",
                     "s": "0", "t": "-1"}
    assert verify_family(serialize.doc_to_family(old)) == []
    assert "params" not in doc


# SHA-256 of the ``build`` output of each family; any change to the
# construction, its order or its JSON shows up here.
_GOLDEN = [
    ("independent", "frame", 1, None, True,
     "f4140301ab07c7041693ec7a8a9c7fda7f7526777b7416537b6af3667e291aff"),
    ("independent", "frame", 1, None, False,
     "fa1257981ac19ef0839b59bf64e2a464532ada35908587a663086db7b67895cc"),
    ("independent", "frame", 2, None, True,
     "f749c8897045e9232ea181b3aa402ed7051b6033bf855de52c7dcea7198c7318"),
    ("independent", "frame", 2, None, False,
     "e4b3511747ab1c719a5297b6bce4b34caf2cbed7f1d74f878a3e3524ff82c7a8"),
    ("independent", "frame", 3, None, True,
     "1e34b02b84ab074703e340e5c72c216b4992b5fccf68f042d80d90742fae91a2"),
    ("independent", "frame", 3, None, False,
     "617003459f3452ee914a33190bcc2fc8ce91f18c6afcaa17b31783c05abfa127"),
    ("independent", "lshape", 1, None, True,
     "6fe8767613dc593595aeef9b1d66b98c5e090283b77d4acf1b6fc17a07979dd6"),
    ("independent", "lshape", 1, None, False,
     "65ac5bafe830e25fd3395f18f9a14394ae21207d0dc6f85f0c075789ad76fd08"),
    ("independent", "lshape", 2, None, True,
     "79e2fe6c7666767eace4fe1c6acebd8f27126190b7aa9441430ac5465a32cc27"),
    ("independent", "lshape", 2, None, False,
     "819d39d9ae29be62dc20286d6ce3ff1ab8f9f95ce8922b81bfaaea9e61b4ac01"),
    ("independent", "lshape", 3, None, True,
     "e1c07e90be66008be52e9c3406710f5819184cb7da55751ae7cb18b17f0629a4"),
    ("independent", "lshape", 3, None, False,
     "f5c1329c4379a8038902d3c12ba8b49e67aa5a95586a41b96b1a5a647e439ecd"),
    ("independent", "cross", 1, None, True,
     "524b8d15499ba7bec35e075919a4bfc2ccb52148df081d0f57de58fd05ffda84"),
    ("independent", "cross", 1, None, False,
     "1dfad6d390fc1747b6018435a292ede80dc46668be557910e57aa42a06e521c0"),
    ("independent", "cross", 2, None, True,
     "ba9022ad1302d995c7e198ee3a866d8b2af6a70d6044942f61834c2d1982cd7e"),
    ("independent", "cross", 2, None, False,
     "2353911e0acd9fbe783d8208cdc2d93ababa1e327788374b94e540226421c08b"),
    ("independent", "cross", 3, None, True,
     "7edc9d31020ffac2da1b553f00a8e7bbdbd2141a686ebab6e73ab656c71fd30f"),
    ("independent", "cross", 3, None, False,
     "f98412b62744d0d467e0392e2cf033a8d3bd13dca6401c431f8d2a1d30cfe59b"),
    ("independent", "frame", 4, None, True,
     "4307d6b07121cbd014fd03617df8b3c386f4b4a6ee01e5d47bf6340fa150696f"),
    ("independent", "frame", 4, None, False,
     "1f6dfd6704ed4017ce0349119aa33c0fa345300c716f805327cf01279ce99086"),
    ("independent", "lshape", 4, None, True,
     "fe7f8fc00d70565178609d0d49d7ea36b7323fd55a418495736dec227a93c21d"),
    ("independent", "lshape", 4, None, False,
     "611eff249a5e1d19b10d64040212fcdfa941173d75f53c04d70a69f1daec1484"),
    ("independent", "cross", 4, None, True,
     "19753b39f1ee5251030a632f6575cf44f2f9f64fb87700bfce226a6404a096a1"),
    ("independent", "cross", 4, None, False,
     "6d077fb245d2b634a941f3bfb6a2f4b8ad679ae984484729e1904a9e8e55a91c"),
    ("uniform", "frame", 1, "1/2", True,
     "cb663308948fa42b2acf92feae689aab518cd21c72046a03aea393dd23941596"),
    ("uniform", "frame", 1, "1/2", False,
     "d3085c74cf6e332a4c2c7bed63fda17f6f625c5b9f9545e450b7e6da3a4d7344"),
    ("uniform", "frame", 2, "1/2", True,
     "f10f3857155a071ab62cee62998b67f02b88959ed39b0e48c14a0bfbdf2d146b"),
    ("uniform", "frame", 2, "1/2", False,
     "4d5f99112272d701db868069bb05c3638b64bf204854133df6e221c59844439c"),
    ("uniform", "frame", 3, "1/2", True,
     "d7268f624575de97ef1e6b24b43ec5724f373d85055f3c8a73b8858f69fc9b84"),
    ("uniform", "frame", 3, "1/2", False,
     "60fcd2033e5c968a195973286e4a70e5a8c6cf4cad1d48c6e24aadde97f8070b"),
    ("uniform", "frame", 1, "5/8", True,
     "a08296e6bb3b48143405bc2381acab1faae28abe39484f99608609e0391e2809"),
    ("uniform", "frame", 1, "5/8", False,
     "510faeb39484fcb54f8a5860b48e58b697eceff505c614f8f8a1437789cada6b"),
    ("uniform", "frame", 2, "5/8", True,
     "84f3b8e8da7a2bf906cda41919ddee792b8a524182a8c563a929bb891c66af0a"),
    ("uniform", "frame", 2, "5/8", False,
     "f895bdd5fc289e28ecdedd0d221912718db1a237641ab37189ae98a43ceeb65c"),
    ("uniform", "frame", 3, "5/8", True,
     "162433e815107be34e726e31fd115cf474f23dda3529b2776043ad148d1ec628"),
    ("uniform", "frame", 3, "5/8", False,
     "099d4ccb342728fcc464d87c141ff685337f222142ac7ea0907914328e9a37b2"),
    # the outer embeds of these run on denominators of several hundred bits
    ("uniform", "frame", 3, "3/16", True,
     "f5cde1ba6c78fd5a23dc0157780f4f41a4270a94e0da842bf0298d2aa2e2a41c"),
    ("uniform", "frame", 3, "2/7", True,
     "afe93669781dfc3e2a93d11a15571be6c3fd64b39592f365d080088d4b5bdc57"),
    ("uniform", "frame", 3, "11/13", True,
     "fed68311a179377e89451682e603a6caf9107667425e1257fed086534e59ba64"),
    ("uniform", "frame", 3, "15/16", True,
     "c7df0c2bf96f12c5e3fd52a9aab95521ff7812490be453467e3713fd8d85e3ee"),
]


@pytest.mark.parametrize("mode, shape_name, k, epsilon, augmented, digest", _GOLDEN)
def test_build_output_is_byte_identical(mode, shape_name, k, epsilon, augmented, digest):
    shape = catalog()[shape_name]
    if mode == "independent":
        level = build(k, shape)
        extra = augment(level, shape) if augmented else None
    else:
        level = build_uniform(k, Fraction(epsilon), shape)
        extra = augment_uniform(level, shape) if augmented else None
    doc = serialize.level_to_doc(level, shape, extra)
    assert canonical_sha256(serialize.dumps(doc)) == digest


# The frame's shape block as ``dumps`` writes it: one line, no spaces.
_FRAME_SHAPE_LINE = (
    '"shape":{"name":"frame","segments":[{"o":"H","fixed":"0","lo":"0","hi":"1"},'
    '{"o":"H","fixed":"1","lo":"0","hi":"1"},{"o":"V","fixed":"0","lo":"0","hi":"1"},'
    '{"o":"V","fixed":"1","lo":"0","hi":"1"}],"features":{"bbox":{"x_lo":"0","x_hi":"1",'
    '"y_lo":"0","y_hi":"1"},"empty_rect":{"x_lo":"1/4","x_hi":"3/4","y_lo":"1/4",'
    '"y_hi":"3/4"},"left_stabber":[{"o":"H","fixed":"0","lo":"0","hi":"1/4"}],'
    '"right_stabber":[{"o":"V","fixed":"1","lo":"1/4","hi":"3/4"}],"w1":"1/4","w2":"1"},'
    '"anchor":null},')

_LAYOUT = {
    "build-k1-bare": (("build", "--k", "1", "--no-augment"), [
        "{",
        _FRAME_SHAPE_LINE,
        '"mode":"independent",',
        '"k":1,',
        '"augmented":false,',
        '"base_size":1,',
        '"copies":[',
        '{"sx":"1","sy":"1","tx":"0","ty":"0","lineage":"outer"}',
        '],',
        '"probes":[',
        '{"rect":{"x_lo":"1/4","x_hi":"1","y_lo":"1/4","y_hi":"3/4"},'
        '"root":{"x_lo":"1/4","x_hi":"3/4","y_lo":"1/4","y_hi":"3/4"},'
        '"root_cut_x":"3/4","pierced":[0]}',
        ']',
        "}"]),
    "game-k2-firstfit": (("game", "--k", "2"), [
        "{",
        '"k":2,',
        '"painter":"firstfit",',
        '"moves":[',
        '{"lo":"1/3","hi":"2/3","color":1},',
        '{"lo":"41/72","hi":"43/72","color":1},',
        '{"lo":"85/144","hi":"91/144","color":2},',
        '{"lo":"359/576","hi":"389/576","color":3}',
        '],',
        '"intervals":4,',
        '"colors_used":3,',
        '"certified_point":"59/96"',
        "}"]),
    "encode-k1": (("encode", "--k", "1"), [
        "{",
        _FRAME_SHAPE_LINE,
        '"mode":"encoded-frames",',
        '"k":1,',
        '"augmented":false,',
        '"copies":[',
        '{"sx":"1/3","sy":"1","tx":"1/3","ty":"0","lineage":"frame(node0)"},',
        '{"sx":"1/6","sy":"1/3","tx":"7/12","ty":"1/3","lineage":"frame(node1)"}',
        '],',
        '"probes":[],',
        '"tree":{"color_budget":2,"root":{"lo":"1/3","hi":"2/3","slot_lo":"0","slot_hi":"1",'
        '"children":[{"lo":"7/12","hi":"3/4","slot_lo":"1/3","slot_hi":"2/3","children":[]}]}}',
        "}"]),
}


@pytest.mark.parametrize("name", _LAYOUT)
def test_written_files_have_one_record_per_line(tmp_path, capsys, name):
    command, lines = _LAYOUT[name]
    path = tmp_path / "out.json"
    assert cli.main([*command, "--out", str(path)]) == 0
    capsys.readouterr()
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def _as_read(value):
    """``value`` as JSON reads it back: every tuple a list."""
    if isinstance(value, dict):
        return {k: _as_read(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_read(v) for v in value]
    return value


def _one_doc_of_each_kind(frame):
    level = build(2, frame)
    tree = expand_tree(2)
    return {"level": serialize.level_to_doc(level, frame, augment(level, frame)),
            "encoded": serialize.encoded_to_doc(tree, encode(tree), frame),
            "transcript": serialize.transcript_to_doc(run_game(3, first_fit), "firstfit")}


def test_written_text_reads_back_as_the_document(frame):
    for doc in _one_doc_of_each_kind(frame).values():
        assert json.loads(serialize.dumps(doc)) == _as_read(doc)


def test_indented_files_load_and_verify_as_written_ones(tmp_path, capsys, frame):
    docs = _one_doc_of_each_kind(frame)
    for kind in ("level", "encoded"):
        doc = docs[kind]
        old_text = json.dumps(doc, indent=2) + "\n"
        new = serialize.doc_to_family(serialize.loads(serialize.dumps(doc)))
        old = serialize.doc_to_family(serialize.loads(old_text))
        assert (new.copies, new.probes, new.tree_nodes) == (old.copies, old.probes,
                                                            old.tree_nodes)
        path = tmp_path / f"{kind}.json"
        path.write_text(old_text)
        assert cli.main(["verify", "--family", str(path)]) == 0
        assert capsys.readouterr().out.startswith(f"ok: {doc['mode']} family, k=2, ")


def test_encoded_files_with_branch_colorings_still_load(tmp_path, capsys, frame):
    tree = expand_tree(2)
    doc = serialize.encoded_to_doc(tree, encode(tree), frame)
    new = serialize.doc_to_family(serialize.loads(serialize.dumps(doc)))
    # earlier files also listed the terminal histories of the tree's walk
    old_doc = json.loads(serialize.dumps(doc))
    old_doc["tree"]["branch_colorings"] = [
        list(colors) for colors, pos in game_tree(2, 3).items() if not pos.legal]
    compact = serialize.dumps(old_doc)
    # the encoded k=2 file as it was written before the field was dropped
    assert canonical_sha256(compact) == \
        "870987e00bea23ce5b56336ecf747e42a94331f43e6ebec7d92d6b6b06eff678"
    for name, text in (("compact", compact), ("indented", json.dumps(old_doc, indent=2) + "\n")):
        old = serialize.doc_to_family(serialize.loads(text))
        assert (old.tree_nodes, old.copies, old.color_budget) == (
            new.tree_nodes, new.copies, new.color_budget)
        assert verify_family(old) == []
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        assert cli.main(["verify", "--family", str(path)]) == 0
        assert capsys.readouterr().out.startswith("ok: encoded-frames family, k=2, ")


_SIDES = ("x_lo", "x_hi", "y_lo", "y_hi")


def _preorder_docs(d):
    yield d
    for child in d["children"]:
        yield from _preorder_docs(child)


@pytest.mark.parametrize(
    "mode, shape_name, k, epsilon, augmented",
    [g[:5] for g in _GOLDEN if g[2] <= 3] + [("encoded-frames", "frame", 3, None, False)],
    ids=str)
def test_loader_agrees_with_the_fraction_lift(mode, shape_name, k, epsilon, augmented):
    """The loader builds copies and probes from the parsed ints; each lift
    must equal ``lift`` over the Fractions of its texts, a probe's cut must
    be its text's in lowest terms, and each stored Fraction ``as_rat`` of
    its text."""
    shape = catalog()[shape_name]
    if mode == "encoded-frames":
        tree = expand_tree(k)
        doc = serialize.encoded_to_doc(tree, encode(tree), shape)
    elif mode == "independent":
        level = build(k, shape)
        doc = serialize.level_to_doc(level, shape, augment(level, shape) if augmented else None)
    else:
        level = build_uniform(k, Fraction(epsilon), shape)
        doc = serialize.level_to_doc(level, shape,
                                     augment_uniform(level, shape) if augmented else None)
    doc = json.loads(serialize.dumps(doc))
    fam = serialize.doc_to_family(doc)
    for c, d in zip(fam.copies, doc["copies"], strict=True):
        t = from_maps(c.x_map, c.y_map)
        assert [t.sx, t.sy, t.tx, t.ty] == [as_rat(d[f]) for f in ("sx", "sy", "tx", "ty")]
        segs = [t.apply(s) for s in c.base.segments]
        den, ints = lift([v for s in segs for v in (s.fixed, s.lo, s.hi)])
        want = tuple((s.orientation, *ints[3 * i:3 * i + 3]) for i, s in enumerate(segs))
        xs = [v for o, f, lo, hi in want for v in ((lo, hi) if o == "H" else (f,))]
        ys = [v for o, f, lo, hi in want for v in ((f,) if o == "H" else (lo, hi))]
        assert (c.den, c.int_segs, c.int_box) == (den, want, (min(xs), max(xs), min(ys), max(ys)))
    for p, d in zip(fam.probes, doc["probes"], strict=True):
        for r, rd in ((p.rect, d["rect"]), (p.root, d["root"])):
            sides = [as_rat(rd[f]) for f in _SIDES]
            den, box = lift(sides)
            assert (r.den, r.int_box) == (den, tuple(box))
            assert [getattr(r, f) for f in _SIDES] == sides
        cut = as_rat(d["root_cut_x"])
        assert p.cut == (cut.numerator, cut.denominator) and root_cut_x(p) == cut
    assert fam.epsilon == (as_rat(doc["epsilon"]) if mode == "uniform" else None)
    if mode == "encoded-frames":
        for node, d in zip(fam.tree_nodes, _preorder_docs(doc["tree"]["root"]), strict=True):
            assert (node.interval.lo, node.interval.hi, *node.slot) == tuple(
                as_rat(d[f]) for f in ("lo", "hi", "slot_lo", "slot_hi"))


def _built_families():
    """(label, document, built copies, built probes) for bare and augmented
    levels k=1..3 of each catalog shape, uniform levels k=1..3 at two
    epsilons, bare and augmented, and encoded trees k=1..3."""
    for name in ("frame", "lshape", "cross"):
        shape = catalog()[name]
        for k in (1, 2, 3):
            level = build(k, shape)
            family = augment(level, shape)
            yield f"{name} k={k}", serialize.level_to_doc(level, shape), level.family, level.probes
            yield (f"{name} k={k} augmented", serialize.level_to_doc(level, shape, family),
                   family, level.probes)
    frame = catalog()["frame"]
    for eps in (Fraction(1, 2), Fraction(2, 7)):
        for k in (1, 2, 3):
            level = build_uniform(k, eps, frame)
            family = augment_uniform(level, frame)
            yield (f"uniform eps={eps} k={k}", serialize.level_to_doc(level, frame),
                   level.family, level.probes)
            yield (f"uniform eps={eps} k={k} augmented",
                   serialize.level_to_doc(level, frame, family), family, level.probes)
    for k in (1, 2, 3):
        tree = expand_tree(k)
        copies = encode(tree)
        yield f"encoded k={k}", serialize.encoded_to_doc(tree, copies, frame), copies, ()


@pytest.fixture(scope="module")
def built_families():
    return list(_built_families())


def _loaded(doc):
    return serialize.doc_to_family(serialize.loads(serialize.dumps(doc)))


def test_loaded_copies_and_probes_equal_the_built_ones(built_families):
    for label, doc, copies, probes in built_families:
        fam = _loaded(doc)
        assert len(fam.copies) == len(copies), label
        for got, want in zip(fam.copies, copies):
            assert got == want, label
            assert (got.den, got.int_box, got.int_segs, got.segments) == (
                want.den, want.int_box, want.int_segs, want.segments), label
        assert len(fam.probes) == len(probes), label
        for got, want in zip(fam.probes, probes):
            assert (got.rect, got.root, got.cut, got.pierced) == (
                want.rect, want.root, want.cut, want.pierced), label
            assert [(r.den, r.int_box) for r in (got.rect, got.root)] == [
                (r.den, r.int_box) for r in (want.rect, want.root)], label


def _ints_only(value):
    if isinstance(value, tuple):
        return all(_ints_only(v) for v in value)
    if type(value) is Rect:
        return not hasattr(value, "__dict__") and _ints_only((value.den, value.int_box))
    return type(value) in (int, str) or isinstance(value, RectilinearShape)


def test_copies_hold_no_fraction_or_transform(built_families):
    """Every copy that ``build``, ``augment``, ``build_uniform``, ``encode``
    and the loader make holds ints (and its lineage and base) only: it has
    no instance dict, and none of its fields is a Fraction."""
    for label, doc, copies, _ in built_families:
        for c in (*copies, *_loaded(doc).copies):
            assert not hasattr(c, "__dict__"), label
            for name in type(c).__slots__:
                value = getattr(c, name)
                assert not isinstance(value, Fraction), label
                assert _ints_only(value), (label, name, value)


def test_probes_hold_ints_only(built_families):
    """Every probe that ``build``, ``build_uniform`` and the loader make
    holds ints only: it has no instance dict, none of its fields is or
    holds a Fraction, and its rectangle and root are ``Rect``s whose slots
    hold ints."""
    for label, doc, _, probes in built_families:
        for p in (*probes, *_loaded(doc).probes):
            assert not hasattr(p, "__dict__"), label
            assert type(p.rect) is type(p.root) is Rect, label
            for name in type(p).__slots__:
                value = getattr(p, name)
                assert not isinstance(value, Fraction), label
                assert _ints_only(value), (label, name, value)


def _side_text(rng, v):
    """``v`` written as 'p', or as 'p/q' times a drawn factor, unreduced."""
    if v.denominator == 1 and rng.random() < 0.5:
        return str(v.numerator)
    m = rng.choice((1, 2, 3, 7, 2 ** 70))
    return f"{m * v.numerator}/{m * v.denominator}"


def test_probe_rectangles_load_to_the_fraction_lift():
    """A rectangle whose sides are written unreduced, negative or as
    integers loads to the ``lift`` of its Fractions; reversed sides are
    refused with ``Rect``'s own message."""
    rng = random.Random(3030)
    pair = serialize._rat_readers()[0]
    for _ in range(400):
        dens = [rng.choice((1, 2, 3, 6, 35, 2 ** 64 + 13)) for _ in range(4)]
        sides = [Fraction(rng.randint(-10 ** 6, 10 ** 6), d) for d in dens]
        if rng.random() < 0.75:
            sides = [*sorted(sides[:2]), *sorted(sides[2:])]
        texts = dict(zip(_SIDES, (_side_text(rng, v) for v in sides)))
        if sides[0] <= sides[1] and sides[2] <= sides[3]:
            den, box = lift(sides)
            r = serialize._rect_from_json(texts, pair)
            assert (r.den, r.int_box) == (den, tuple(box)), texts
            continue
        with pytest.raises(ValueError) as want:
            Rect(*sides)
        with pytest.raises(ValueError) as got:
            serialize._rect_from_json(texts, pair)
        assert str(got.value) == str(want.value)


def _times(m, text):
    """The rational ``text`` with numerator and denominator times ``m``."""
    p, _, q = text.partition("/")
    return f"{m * int(p)}/{m * int(q or 1)}"


def test_unreduced_probe_fields_load_to_equal_probes_and_verify(tmp_path, capsys):
    """A ``build --k 3`` file whose every probe rational is written
    unreduced, numerator and denominator times 2, loads to the same probes
    and verifies with exit 0."""
    path = tmp_path / "family.json"
    assert cli.main(["build", "--k", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    for p in doc["probes"]:
        for rect in (p["rect"], p["root"]):
            rect.update((f, _times(2, rect[f])) for f in _SIDES)
        p["root_cut_x"] = _times(2, p["root_cut_x"])
    assert all("/" in p["root_cut_x"] for p in doc["probes"])
    unreduced = tmp_path / "unreduced.json"
    unreduced.write_text(json.dumps(doc))
    assert serialize.doc_to_family(doc).probes == _loaded(json.loads(path.read_text())).probes
    assert cli.main(["verify", "--family", str(unreduced)]) == 0
    assert capsys.readouterr().out.startswith("ok: independent family, k=3, ")


@pytest.mark.parametrize("mode", ["independent", "uniform"])
def test_unreduced_copy_fields_load_to_equal_copies(tmp_path, capsys, mode):
    """A file whose every copy field is written unreduced, numerator and
    denominator times 3, loads to the same copies and verifies."""
    shape = catalog()["cross" if mode == "independent" else "frame"]
    if mode == "independent":
        level = build(3, shape)
        family = augment(level, shape)
    else:
        level = build_uniform(2, Fraction(2, 7), shape)
        family = augment_uniform(level, shape)
    doc = json.loads(serialize.dumps(serialize.level_to_doc(level, shape, family)))
    for c in doc["copies"]:
        for f in ("sx", "sy", "tx", "ty"):
            c[f] = _times(3, c[f])
    fam = serialize.doc_to_family(doc)
    assert fam.copies == family
    assert [(c.den, c.axes) for c in fam.copies] == [(c.den, c.axes) for c in family]
    assert verify_family(fam) == []
    path = tmp_path / "unreduced.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", "--family", str(path)]) == 0
    assert capsys.readouterr().out.startswith(f"ok: {mode} family, ")


def test_encoded_round_trip_and_verify(frame):
    for k, budget in ((1, None), (2, None), (3, None), (2, 2)):
        tree = expand_tree(k, budget)
        copies = encode(tree)
        doc = serialize.encoded_to_doc(tree, copies, frame)
        loaded = serialize.doc_to_family(serialize.loads(serialize.dumps(doc)))
        assert loaded.mode == "encoded-frames"
        assert loaded.copies == copies
        assert loaded.tree_nodes == tree.nodes()
        assert verify_family(loaded) == []


def test_verify_catches_each_kind_of_tamper(frame):
    level = build(2, frame)
    doc = serialize.level_to_doc(level, frame, augment(level, frame))
    # shift one copy
    bad = json.loads(serialize.dumps(doc))
    bad["copies"][1]["tx"] = "9/7"
    assert verify_family(serialize.doc_to_family(bad)) != []
    # lie about the pierced set
    bad = json.loads(serialize.dumps(doc))
    bad["probes"][0]["pierced"] = [0]
    assert verify_family(serialize.doc_to_family(bad)) != []
    # claim the wrong k
    bad = json.loads(serialize.dumps(doc))
    bad["k"] = 3
    assert verify_family(serialize.doc_to_family(bad)) != []


def test_verify_reports_tampered_uniform_root_cut(frame):
    level = build_uniform(2, Fraction(1, 2), frame)
    doc = json.loads(serialize.dumps(serialize.level_to_doc(level, frame)))
    assert verify_family(serialize.doc_to_family(doc)) == []
    probe = doc["probes"][0]
    probe["root_cut_x"] = str((Fraction(probe["root"]["x_lo"])
                               + Fraction(probe["root"]["x_hi"])) / 2)
    violations = verify_family(serialize.doc_to_family(doc))
    assert any(v.startswith("probe 0: root is not the left part") for v in violations)


def test_verify_reports_root_moved_off_its_probe(frame):
    level = build(2, frame)
    doc = json.loads(serialize.dumps(serialize.level_to_doc(level, frame)))
    rect = level.probes[0].rect
    # a copy far from probe 0's rectangle: only a check that also scans
    # around the root can see the root meet it
    i, far = next((i, c) for i, c in enumerate(level.family) if not rects_meet(c.bbox, rect))
    doc["probes"][0]["root"] = serialize.rect_to_json(far.bbox)
    violations = verify_family(serialize.doc_to_family(doc))
    assert "probe 0: root is not the left part of the probe at the cut line" in violations
    assert f"probe 0: root meets copy {i}" in violations


def test_verify_reports_shifted_encoded_frame(frame):
    tree = expand_tree(2)
    doc = json.loads(serialize.dumps(serialize.encoded_to_doc(tree, encode(tree), frame)))
    # frame 1 crosses its child, frame 2; moved far right, it meets nothing
    doc["copies"][1]["tx"] = "5"
    violations = verify_family(serialize.doc_to_family(doc))
    assert "encoded: frame 1 does not match its tree node" in violations
    assert "encoded: intersection law fails at nodes 1, 2: expected meet" in violations


def test_verify_reports_encoded_frames_meeting_off_branch(frame):
    tree = expand_tree(2)
    doc = json.loads(serialize.dumps(serialize.encoded_to_doc(tree, encode(tree), frame)))
    # frames 2 and 4 are siblings; laid on frame 2, frame 4 meets it and its
    # child, frame 3, and no longer crosses the root, frame 0
    doc["copies"][4].update({key: doc["copies"][2][key] for key in ("sx", "sy", "tx", "ty")})
    violations = verify_family(serialize.doc_to_family(doc))
    assert "encoded: frame 4 does not match its tree node" in violations
    assert [v for v in violations if "intersection law" in v] == [
        "encoded: intersection law fails at nodes 0, 4: expected meet",
        "encoded: intersection law fails at nodes 2, 4: expected disjoint",
        "encoded: intersection law fails at nodes 3, 4: expected disjoint"]


def test_verify_reports_bad_encoded_slots(frame):
    tree = expand_tree(2)
    text = serialize.dumps(serialize.encoded_to_doc(tree, encode(tree), frame))
    doc = json.loads(text)
    node = doc["tree"]["root"]["children"][0]
    node["children"].reverse()
    violations = verify_family(serialize.doc_to_family(doc))
    assert "encoded: child slots of node 1 fail to interleave" in violations
    doc = json.loads(text)
    doc["tree"]["root"]["children"][0]["children"][1]["slot_hi"] = "7/10"
    violations = verify_family(serialize.doc_to_family(doc))
    assert "encoded: slot of node 4 leaves its parent's slot" in violations


def test_loader_rejects_unknown_or_mismatched_shape(frame):
    level = build(1, frame)
    doc = serialize.level_to_doc(level, frame)
    bad = json.loads(serialize.dumps(doc))
    bad["shape"]["name"] = "blob"
    with pytest.raises(ValueError):
        serialize.doc_to_family(bad)
    bad = json.loads(serialize.dumps(doc))
    bad["shape"]["segments"][0]["hi"] = "2"
    with pytest.raises(ValueError):
        serialize.doc_to_family(bad)


def test_transcript_doc_shape():
    res = run_game(2, first_fit)
    doc = serialize.transcript_to_doc(res, "firstfit")
    assert doc["k"] == 2 and doc["painter"] == "firstfit"
    assert len(doc["moves"]) == res.intervals
    assert doc["colors_used"] == 3
    assert all(set(m) == {"lo", "hi", "color"} for m in doc["moves"])


def test_render_is_deterministic_and_scales(frame):
    level = build(2, frame)
    loaded = serialize.doc_to_family(
        serialize.loads(serialize.dumps(serialize.level_to_doc(level, frame))))
    a = render_family(loaded)
    b = render_family(loaded)
    assert a == b
    assert a.startswith("<?xml") and a.rstrip().endswith("</svg>")
    assert 'viewBox="0 0 1024 1024"' in a


def test_scene_maps_equal_the_hand_formula():
    rng = random.Random(20261021)
    scenes = [Rect(3, 3, -2, -2), Rect(0, 5, 1, 1), Rect(Fraction(1, 3), Fraction(1, 3), 0, 2)]
    for _ in range(200):
        x0, y0 = (Fraction(rng.randint(-50, 50), rng.randint(1, 40)) for _ in range(2))
        w, h = (Fraction(rng.randint(0, 60), rng.randint(1, 40)) for _ in range(2))
        scenes.append(Rect(x0, x0 + w, y0, y0 + h))
    for scene in scenes:
        assert render._scene_maps(scene) == tuple(map(lowest, scene_maps_ref(scene))), scene


# SHA-256 of ``render`` of each family: every probe and root is drawn
# through ``map_rect`` on the scene's two axis maps and every copy through
# ``rebase`` onto them, so a change to a mapped side shows.
_RENDER_GOLDEN = {
    "independent-k2-bare": (
        ("build", "--k", "2", "--no-augment"),
        "12d5f849b73115135f8e707e01400997e00ec6ace0d810ba80a4b1691a7c9d48"),
    "independent-k3-cross": (
        ("build", "--k", "3", "--shape", "cross"),
        "8fcee3812e1f5e7769da129447618ca73792d8744bcc29e692ef50b63b721e8a"),
    "uniform-k2-half": (
        ("build", "--mode", "uniform", "--k", "2", "--epsilon", "1/2"),
        "6ba793c1a6dacb764415ca7d9c772643e75bb3a9f11195c71bb8932b23445224"),
    "uniform-k3-3/16": (
        ("build", "--mode", "uniform", "--k", "3", "--epsilon", "3/16"),
        "d2d064ec0a70a96a6b6f7182f65de83eaa74f1f73a8b35edc73e57d416389a35"),
    "encoded-k2": (
        ("encode", "--k", "2"),
        "74b0440dadad2532a670fc73dbd7059e2170db43899d876a034186c63b03c983"),
}


@pytest.mark.parametrize("name", _RENDER_GOLDEN)
def test_render_output_is_byte_identical(tmp_path, name):
    command, digest = _RENDER_GOLDEN[name]
    fam, svg = tmp_path / "family.json", tmp_path / "family.svg"
    assert _run_cli(*command, "--out", str(fam)).returncode == 0
    assert _run_cli("render", "--family", str(fam), "--out", str(svg)).returncode == 0
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == digest


def test_cli_build_verify_chi(tmp_path):
    fam = tmp_path / "f.json"
    r = _run_cli("build", "--mode", "independent", "--shape", "frame",
                 "--k", "3", "--out", str(fam))
    assert r.returncode == 0
    doc = json.loads(fam.read_text())
    assert len(doc["copies"]) == 21  # augmented by default
    r = _run_cli("verify", "--family", str(fam))
    assert r.returncode == 0 and "ok" in r.stdout
    witness = tmp_path / "coloring.json"
    r = _run_cli("chi", "--family", str(fam), "--coloring-out", str(witness))
    assert r.returncode == 0 and "chi = 4" in r.stdout
    coloring = json.loads(witness.read_text())
    assert len(coloring) == 21
    assert sorted({c for c in coloring.values()}) == [1, 2, 3, 4]


def test_cli_build_no_augment_gives_bare_level(tmp_path):
    fam = tmp_path / "bare.json"
    r = _run_cli("build", "--k", "2", "--no-augment", "--out", str(fam))
    assert r.returncode == 0
    assert len(json.loads(fam.read_text())["copies"]) == 3


def test_cli_uniform_build_requires_epsilon(tmp_path):
    r = _run_cli("build", "--mode", "uniform", "--k", "1")
    assert r.returncode == 2
    r = _run_cli("build", "--mode", "independent", "--k", "1", "--epsilon", "1/2")
    assert r.returncode == 2
    r = _run_cli("build", "--mode", "uniform", "--k", "1", "--epsilon", "1/0")
    assert r.returncode == 2
    assert "error:" in r.stderr and "Traceback" not in r.stderr
    fam = tmp_path / "u.json"
    r = _run_cli("build", "--mode", "uniform", "--k", "2", "--epsilon", "1/2",
                 "--out", str(fam))
    assert r.returncode == 0
    assert json.loads(fam.read_text())["epsilon"] == "1/2"


@pytest.mark.parametrize("shape", ["lshape", "cross"])
def test_cli_uniform_build_refuses_a_shape_without_anchor(shape, tmp_path, capsys):
    # uniform mode can never build these; it exited 3 from inside the build before
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["build", "--mode", "uniform", "--shape", shape, "--k", "1",
                  "--epsilon", "1/2"])
    assert exit_info.value.code == 2
    assert "uniform mode needs a shape with an anchor: frame" in capsys.readouterr().err
    fam = tmp_path / "frame.json"
    assert cli.main(["build", "--mode", "uniform", "--shape", "frame", "--k", "1",
                     "--epsilon", "1/2", "--out", str(fam)]) == 0
    assert json.loads(fam.read_text())["shape"]["name"] == "frame"


def test_cli_builds_its_parser_once_per_process(tmp_path, monkeypatch):
    parser = cli._parser()
    assert cli._parser() is parser
    made = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    fam = tmp_path / "f.json"
    assert cli.main(["build", "--k", "1", "--out", str(fam)]) == 0
    assert cli.main(["verify", "--family", str(fam)]) == 0
    assert made == []


def test_cli_shared_parser_keeps_no_state_between_calls(tmp_path, monkeypatch):
    # the uniform reject-then-accept pair is in the anchor test above
    bare, full = tmp_path / "bare.json", tmp_path / "full.json"
    assert cli.main(["build", "--k", "2", "--no-augment", "--out", str(bare)]) == 0
    assert cli.main(["build", "--k", "2", "--out", str(full)]) == 0
    assert [len(json.loads(p.read_text())["copies"]) for p in (bare, full)] == [3, 5]
    chi = ["chi", "--family", str(full)]
    monkeypatch.setenv(cli.TIMEOUT_ENV, "abc")
    with pytest.raises(SystemExit) as exit_info:
        cli.main(chi)
    assert exit_info.value.code == 2
    monkeypatch.delenv(cli.TIMEOUT_ENV)
    assert cli.main(chi) == 0


def test_cli_verify_flags_mutation(tmp_path, family_file):
    doc = json.loads(family_file.read_text())
    doc["copies"][2]["tx"] = "1/7"
    mutated = tmp_path / "mutated.json"
    mutated.write_text(json.dumps(doc))
    r = _run_cli("verify", "--family", str(mutated))
    assert r.returncode == 3
    assert "VIOLATION" in r.stderr


def test_cli_verify_reports_a_triangle(tmp_path, family_file):
    doc = json.loads(family_file.read_text())
    # three copies on one spot pairwise meet
    for i in (1, 2):
        doc["copies"][i].update({key: doc["copies"][0][key] for key in ("sx", "sy", "tx", "ty")})
    tampered = tmp_path / "triangle.json"
    tampered.write_text(json.dumps(doc))
    r = _run_cli("verify", "--family", str(tampered))
    assert r.returncode == EXIT_VIOLATION
    assert "VIOLATION: family is not triangle-free" in r.stderr.splitlines()


def test_cli_invalid_flags_exit_two():
    assert _run_cli("build").returncode == 2
    assert _run_cli("frobnicate").returncode == 2
    assert _run_cli("game", "--k", "2", "--seed", "7").returncode == 2
    assert _run_cli("build", "--k", "0").returncode == 2
    assert _run_cli("verify", "--family", "/no/such/file").returncode == 2
    assert _run_cli("build", "--mode", "uniform", "--k", "1", "--epsilon", "2").returncode == 2
    assert _run_cli("build", "--mode", "uniform", "--k", "1", "--epsilon", "abc").returncode == 2
    assert _run_cli("encode", "--k", "2", "--budget", "0").returncode == 2


def test_cli_game_k_is_capped():
    # k=13 would play for minutes; k=3000 used to end in a RecursionError
    for k in ("13", "3000"):
        r = _run_cli("game", "--k", k, timeout=10)
        assert r.returncode == 2
        assert "--k" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("args", [
    ("encode", "--k", str(SEARCH_LIMIT + 1)),
    ("game", "--painter", "minimax", "--k", str(SEARCH_LIMIT + 1)),
], ids=["encode", "game-minimax"])
def test_cli_k_above_the_search_cap_is_a_usage_error(args):
    # both walk the game tree, which stops at SEARCH_LIMIT; they exited 3 before
    r = _run_cli(*args, timeout=10)
    assert r.returncode == 2
    assert "usage:" in r.stderr and "--k" in r.stderr
    assert "Traceback" not in r.stderr


def test_cli_encode_k4_is_b4_and_verifies(tmp_path):
    # B_4 of ROADMAP: 309 vertices, 1,059 edges, no triangle
    path = tmp_path / "enc4.json"
    r = _run_cli("encode", "--k", "4", "--out", str(path), timeout=120)
    assert r.returncode == 0, r.stderr
    # pinned on the Fraction implementation of the game, its search cap raised to 4
    assert canonical_sha256(path.read_text()) == \
        "4c9faadc140ffae194eca2e197c634d744568bb03c04f218e8ec72e7dc2fe64a"
    fam = serialize.doc_to_family(serialize.loads(path.read_text()))
    g = intersection_graph(fam.copies)
    assert len(fam.copies) == 309
    assert g.m == 1059
    assert is_triangle_free(g)
    r = _run_cli("verify", "--family", str(path), timeout=120)
    assert r.returncode == 0
    assert r.stdout.startswith("ok: encoded-frames family, k=4, 309 copies")


def test_cli_game_k_flag_reads_the_game_cap():
    assert cli._game_k(str(MAX_K)) == MAX_K
    with pytest.raises(argparse.ArgumentTypeError, match=rf"an integer in 1\.\.{MAX_K}"):
        cli._game_k(str(MAX_K + 1))


def test_cli_malformed_family_exits_three(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text('{"mode": "independent"}')
    r = _run_cli("verify", "--family", str(broken))
    assert r.returncode == 3
    assert "missing field" in r.stderr


def _set(*path_and_value):
    *path, key, value = path_and_value

    def tamper(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value
    return tamper


def _encoded_doc():
    tree = expand_tree(2)
    return json.loads(serialize.dumps(
        serialize.encoded_to_doc(tree, encode(tree), catalog()["frame"])))


def _uniform_doc(epsilon):
    frame = catalog()["frame"]
    level = build_uniform(2, Fraction(1, 2), frame)
    doc = json.loads(serialize.dumps(serialize.level_to_doc(level, frame)))
    doc["epsilon"] = epsilon
    return doc


def _sealed_at_wide_epsilon(doc):
    # one valid 3/2-probe: only the range of epsilon is wrong with the file
    frame = catalog()["frame"]
    copy = TransformedCopy(frame.name, frame.anchor.shape, lineage="outer")
    level = seal(1, [copy], [(frame.anchor.empty_square(Fraction(1, 2)), frozenset({0}))],
                 Fraction(3, 2))
    return json.loads(serialize.dumps(serialize.level_to_doc(level, frame)))


def _unrelated_grids(doc):
    # each copy on a grid of its own, about 133 bits, that no other shares
    for i, c in enumerate(doc["copies"]):
        c["tx"] = f"1/{10 ** 40 + 2 * i + 1}"


@pytest.mark.parametrize("tamper, marker", [
    (_set("copies", 0, "sx", 0.5), "error:"),
    (_set("k", "2"), "error:"),
    (_set("k", 40), "VIOLATION: size: k=40"),
    (lambda doc: [doc], "error:"),
    (_set("k", True), "error:"),
    (_set("k", 0), "error:"),
    (_set("probes", 0, "pierced", ["0"]), "error:"),
    (_set("base_size", "5"), "error:"),
    (_set("augmented", "yes"), "error:"),
    (_set("copies", 0, "lineage", 7), "error:"),
    (_set("copies", []), "error:"),
    (_set("base_size", -3), "error:"),
    (_set("probes", 0, "pierced", [999]), "error:"),
    (lambda doc: {**_encoded_doc(), "k": 1000000}, "VIOLATION: encoded: k=1000000"),
    (_set("copies", 0, "sx", "1/0"), "error:"),
    (_set("copies", 0, "ty", "1e10000000"), "error:"),
    (_set("copies", 0, "tx", "0.0"), "error:"),
    (_set("copies", 0, "tx", " 0 "), "error:"),
    (lambda doc: "[" * 200_000, "error:"),
    (_unrelated_grids, "error: copies and probes share no grid"),
    (lambda doc: _uniform_doc("0"), "error: epsilon must lie in (0,1): 0\n"),
    (lambda doc: _uniform_doc("1"), "error: epsilon must lie in (0,1): 1\n"),
    (lambda doc: _uniform_doc("3/2"), "error: epsilon must lie in (0,1): 3/2\n"),
    (lambda doc: _uniform_doc("-1/2"), "error: epsilon must lie in (0,1): -1/2\n"),
    (_sealed_at_wide_epsilon, "error: epsilon must lie in (0,1): 3/2\n"),
], ids=["float-coordinate", "string-k", "k40", "list-document", "bool-k", "zero-k",
        "string-pierced", "string-base-size", "string-augmented", "int-lineage",
        "empty-copies", "negative-base-size", "pierced-out-of-range", "encoded-huge-k",
        "zero-denominator", "exponent", "decimal-point", "padded", "deep-nesting",
        "unrelated-grids", "epsilon-zero", "epsilon-one", "epsilon-three-halves",
        "epsilon-negative", "sealed-at-epsilon-three-halves"])
def test_cli_malformed_family_fails_fast(tmp_path, family_file, tamper, marker):
    doc = json.loads(family_file.read_text())
    doc = tamper(doc) or doc
    path = tmp_path / "malformed.json"
    # a tamper that returns a string gives the file's text itself
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    # a document the loader rejects fails every command that reads it
    for command in ("verify", "chi") if marker.startswith("error:") else ("verify",):
        r = _run_cli(command, "--family", str(path), timeout=10)
        assert r.returncode == 3
        assert marker in r.stderr
        assert "Traceback" not in r.stderr


@pytest.mark.parametrize("fields, message", [
    ({"probes": [{"junk": 1}]}, "error: an encoded family must have no probes"),
    ({"augmented": True}, "error: an encoded family cannot be augmented"),
    ({"base_size": 2}, "error: base_size 2 is not the frame count 5 of an encoded family"),
    ({"probes": [{"junk": 1}], "augmented": True, "base_size": 2},
     "error: an encoded family must have no probes"),
], ids=["probes", "augmented", "base-size", "all-three"])
def test_cli_refuses_an_encoded_family_with_probes_or_a_base(tmp_path, capsys, fields, message):
    doc = {**_encoded_doc(), **fields}
    path = tmp_path / "encoded.json"
    path.write_text(json.dumps(doc))
    for command in ("verify", "chi"):
        assert cli.main([command, "--family", str(path)]) == EXIT_VIOLATION
        assert capsys.readouterr().err.splitlines() == [message]


def test_every_encoded_layout_still_loads(tmp_path, capsys):
    """What ``encode`` writes, with ``base_size`` equal to the frame count
    or without ``probes`` and ``augmented``, loads and verifies."""
    doc = _encoded_doc()
    without = {key: value for key, value in doc.items() if key not in ("probes", "augmented")}
    for variant in (doc, {**doc, "base_size": 5}, without):
        path = tmp_path / "encoded.json"
        path.write_text(json.dumps(variant))
        assert cli.main(["verify", "--family", str(path)]) == 0
        assert capsys.readouterr().out == "ok: encoded-frames family, k=2, 5 copies\n"


@pytest.mark.parametrize("tamper", [
    _set("copies", 0, "sx", True), _set("copies", 1, "ty", False),
    _set("probes", 0, "rect", "x_lo", True), _set("probes", 0, "root_cut_x", True),
], ids=["copy-sx", "copy-ty", "probe-rect", "probe-cut"])
def test_cli_refuses_a_boolean_rational(tmp_path, capsys, family_file, tamper):
    doc = json.loads(family_file.read_text())
    tamper(doc)
    path = tmp_path / "boolean.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", "--family", str(path)]) == EXIT_VIOLATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: family document has a malformed field: not an exact rational: ")
    assert "float" not in err[0]


def _last_repeat(doc, where):
    """The last place ``where(doc)`` lists whose text also sits at an
    earlier place, as (holder, key)."""
    places = where(doc)
    texts = [holder[key] for holder, key in places]
    return places[max(i for i, text in enumerate(texts) if text in texts[:i])]


def _probe_right_sides(doc):
    return [(p["rect"], "x_hi") for p in doc["probes"]]


def _copy_scales(doc):
    return [(c, "sx") for c in doc["copies"]]


def _not_rational(text):
    return f"error: not a rational 'p' or 'p/q' with q > 0: '{text}'"


# One occurrence of a text that repeats in the file is changed: the loader
# parses each distinct text once, and the changed one is a text of its own.
@pytest.mark.parametrize("where, value, marker", [
    (_probe_right_sides, "1/0", _not_rational("1/0")),
    (_probe_right_sides, "0.5", _not_rational("0.5")),
    (_probe_right_sides, "+1", _not_rational("+1")),
    (_probe_right_sides, "0", "error: rectangle sides reversed: Rect(x_lo=Fraction(10364, 26525), "
                              "x_hi=Fraction(0, 1), y_lo=Fraction(59, 128), "
                              "y_hi=Fraction(7383, 16000))"),
    (_probe_right_sides, "2", "VIOLATION: probe 7: probe does not touch the family's right side"),
    (_copy_scales, "1/0", _not_rational("1/0")),
    (_copy_scales, "0.5", _not_rational("0.5")),
    (_copy_scales, "+1", _not_rational("+1")),
    (_copy_scales, "0", "error: scale factors must be positive: sx=0, sy=1/800"),
    (_copy_scales, "2/25",
     "VIOLATION: augmented: diagonal 4 meets [0, 1, 10, 11], expected [0, 1, 11]"),
], ids=["x-hi-zero-denominator", "x-hi-decimal-point", "x-hi-plus-sign", "x-hi-reversed",
        "x-hi-moved", "scale-zero-denominator", "scale-decimal-point", "scale-plus-sign",
        "scale-zero", "scale-changed"])
def test_cli_reads_every_occurrence_of_a_repeated_text(tmp_path, frame, where, value, marker):
    level = build(3, frame)
    doc = json.loads(serialize.dumps(serialize.level_to_doc(level, frame, augment(level, frame))))
    holder, key = _last_repeat(doc, where)
    holder[key] = value
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    r = _run_cli("verify", "--family", str(path), timeout=10)
    assert r.returncode == 3
    assert marker in r.stderr.splitlines()
    assert "Traceback" not in r.stderr


@pytest.fixture
def digit_limit():
    """Python's default limit on the decimal digits of an int read or
    written as text, 4,300, whatever the environment set."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


def test_loader_refuses_a_decimal_past_the_digit_limit_with_its_own_message(
        tmp_path, capsys, frame, digit_limit):
    doc = serialize.level_to_doc(build(4, frame), frame)
    doc["copies"][0]["sx"] = "1" + "0" * 4999
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    for command in ("verify", "chi"):
        assert cli.main([command, "--family", str(path)]) == EXIT_VIOLATION
        assert capsys.readouterr().err.splitlines() == [
            "error: rational 10000000000000000000...00000000000000000000 has 5,000 decimal "
            "digits, more than the 4,300 that Python converts"]


def test_writer_refuses_a_decimal_past_the_digit_limit_with_its_own_message(digit_limit):
    big = 2 ** 15000  # 4,516 digits
    for ratio, shown in (((big, 1), "28179608796313976374...69151381708001509376"),
                         ((-3, big + 1), "-3/28179608796313976374...69151381708001509377")):
        with pytest.raises(ValueError) as err:
            serialize._ratio(*ratio)
        assert str(err.value) == (f"rational {shown} has 4,516 decimal digits, "
                                  "more than the 4,300 that Python converts")


@pytest.fixture(scope="module")
def bare_file(tmp_path_factory, frame):
    path = tmp_path_factory.mktemp("fam") / "bare2.json"
    path.write_text(serialize.dumps(serialize.level_to_doc(build(2, frame), frame)))
    return path


def _shrink_base(doc):
    # the pierced sets must stay inside the base, or the loader refuses the file
    doc["base_size"] -= 1
    for p in doc["probes"]:
        p["pierced"] = [i for i in p["pierced"] if i < doc["base_size"]]


def _drop_last_copy(doc):
    doc["copies"].pop()
    _shrink_base(doc)


def _cut_diagonals(doc):
    del doc["copies"][doc["base_size"]:]


# A base_size one less is refused by the loader, since the last base copy
# is pierced; one more puts the first diagonal in the base.
@pytest.mark.parametrize("source, tamper, marker", [
    ("bare", _drop_last_copy, "size: k=2 needs more than 2 base copies"),
    ("bare", _shrink_base, "size: base size 2, expected 3 in a bare family"),
    ("augmented", lambda doc: doc["probes"].pop(), "size: 1 probes, expected p_2 = 2"),
    ("augmented", lambda doc: doc["probes"].append(doc["probes"][0]),
     "probes 0 and 2 are not disjoint"),
    ("augmented", _set("base_size", 4), "size: 4 copies, expected s_2 = 3"),
    ("augmented", _cut_diagonals, "augmented: diagonal count differs from probe count"),
    ("uniform", _set("copies", 0, "sy", "2"),
     "uniform: copy with lineage 'outer' is not a homothet"),
], ids=["copy-dropped", "bare-base-size", "probe-dropped", "probe-repeated", "base-size-up",
        "diagonals-cut", "uniform-sy"])
def test_cli_verify_reports_a_broken_level(tmp_path, bare_file, family_file, uniform_file,
                                           source, tamper, marker):
    built = {"bare": bare_file, "augmented": family_file, "uniform": uniform_file}[source]
    doc = json.loads(built.read_text())
    tamper(doc)
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    r = _run_cli("verify", "--family", str(path), timeout=10)
    assert r.returncode == 3
    assert f"VIOLATION: {marker}" in r.stderr.splitlines()


def test_verify_prints_the_level_law_of_the_written_level(tmp_path, frame):
    level = build(2, frame)
    # probe 0 pierces copies 0 and 2; claim copy 0 alone
    bad = replace(level.probes[0], pierced=(0,))
    tampered = replace(level, probes=(bad,) + level.probes[1:])
    messages = level_law(tampered)
    assert messages
    path = tmp_path / "tampered.json"
    path.write_text(serialize.dumps(serialize.level_to_doc(tampered, frame)))
    r = _run_cli("verify", "--family", str(path), timeout=10)
    assert r.returncode == 3
    assert r.stderr.splitlines() == [f"VIOLATION: {m}" for m in messages]


@pytest.fixture(scope="module")
def uniform_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fam") / "uniform2.json"
    r = _run_cli("build", "--mode", "uniform", "--k", "2", "--epsilon", "1/2",
                 "--out", str(path))
    assert r.returncode == 0
    return path


@pytest.mark.parametrize("mode, tamper", [
    ("independent", _set("shape", "features", "w1", "999")),
    ("independent", _set("shape", "features", "empty_rect", "x_lo", "-5")),
    ("independent", _set("shape", "features", "left_stabber", 0, "hi", "1/2")),
    ("independent", _set("shape", "features", "right_stabber", [])),
    ("independent", _set("shape", "anchor", {"name": "frame"})),
    ("independent", _set("shape", "segments", 0, "hi", "2")),
    ("independent", lambda doc: doc["shape"].pop("features")),
    ("uniform", _set("shape", "anchor", None)),
    ("uniform", _set("shape", "features", {})),
    ("uniform", _set("shape", "segments", 0, "fixed", "1/3")),
], ids=["w1", "empty-rect", "left-stabber", "no-right-stabber", "anchor-added",
        "segment", "features-dropped", "uniform-anchor-dropped", "uniform-features-added",
        "uniform-segment"])
def test_cli_refuses_a_shape_block_that_is_not_the_catalog_entry(
        tmp_path, family_file, uniform_file, mode, tamper):
    source = family_file if mode == "independent" else uniform_file
    # the untouched file, as ``build`` writes it, verifies
    r = _run_cli("verify", "--family", str(source), timeout=30)
    assert r.returncode == 0 and r.stdout.startswith("ok")
    doc = json.loads(source.read_text())
    tamper(doc)
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    r = _run_cli("verify", "--family", str(path), timeout=30)
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr.splitlines() == ["error: shape does not match catalog entry 'frame'"]


def test_cli_game_firstfit_and_minimax(tmp_path):
    out = tmp_path / "t.json"
    r = _run_cli("game", "--k", "2", "--painter", "firstfit", "--out", str(out))
    assert r.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["colors_used"] == 3 and len(doc["moves"]) == 4
    r = _run_cli("game", "--k", "2", "--painter", "minimax", "--out", str(out))
    assert r.returncode == 0
    assert json.loads(out.read_text())["colors_used"] == 3


def test_cli_game_repl_plays_and_rejects_bad_stream(tmp_path):
    out = tmp_path / "r.json"
    r = _run_cli("game", "--k", "1", "--painter", "repl", "--out", str(out),
                 stdin="1\n2\n")
    assert r.returncode == 0
    assert json.loads(out.read_text())["colors_used"] == 2
    # stream ends mid-game: distinct exit code
    r = _run_cli("game", "--k", "1", "--painter", "repl", "--out", str(out),
                 stdin="1\n")
    assert r.returncode == 5


def test_cli_chi_timeout_exits_four(tmp_path, monkeypatch):
    fam = tmp_path / "f4.json"
    r = _run_cli("build", "--k", "4", "--out", str(fam))
    assert r.returncode == 0
    # the 309-vertex family cannot be closed in a tenth of a second
    r = _run_cli("chi", "--family", str(fam), "--timeout", "0.1")
    assert r.returncode == 4
    assert "chi in [" in r.stdout and "timed out" in r.stdout
    _assert_search_figures(r.stdout)
    monkeypatch.setenv("TRIFREE_TIMEOUT", "0.1")
    r = _run_cli("chi", "--family", str(fam), timeout=60)
    assert r.returncode == 4
    assert "chi in [" in r.stdout and "timed out" in r.stdout
    _assert_search_figures(r.stdout)


def _assert_search_figures(out):
    """A timed-out ``chi`` names the nodes its search explored and the
    seconds spent before the search: the load, the graph and the bounds."""
    match = re.search(r"^search explored (\d+) nodes after (\d+\.\d{3}) s of load, "
                      r"graph and bounds$", out, re.MULTILINE)
    assert match, out
    assert int(match.group(1)) > 0 and float(match.group(2)) > 0


def test_cli_chi_timeout_counts_from_the_start_of_the_command(tmp_path, monkeypatch):
    fam = tmp_path / "f4.json"
    assert cli.main(["build", "--k", "4", "--out", str(fam)]) == 0
    load, solve, timeouts = cli._load_family, cli.chromatic_number, []

    def slow_load(path):
        time.sleep(0.2)
        return load(path)

    def recorded(g, timeout=None):
        timeouts.append(timeout)
        return solve(g, timeout)

    monkeypatch.setattr(cli, "_load_family", slow_load)
    monkeypatch.setattr(cli, "chromatic_number", recorded)
    # the load alone outlasts the timeout, so the solver is left no time
    assert cli.main(["chi", "--family", str(fam), "--timeout", "0.1"]) == 4
    assert timeouts == [0]


@pytest.mark.parametrize("value", ["abc", "nan", "-1", "inf", "1e400"])
def test_cli_rejects_a_bad_timeout(value, family_file, monkeypatch):
    # --timeout nan never fired, and a bad TRIFREE_TIMEOUT crashed every command
    r = _run_cli("chi", "--family", str(family_file), f"--timeout={value}", timeout=10)
    assert r.returncode == 2
    assert "usage:" in r.stderr and "--timeout" in r.stderr
    assert "Traceback" not in r.stderr
    monkeypatch.setenv("TRIFREE_TIMEOUT", value)
    r = _run_cli("chi", "--family", str(family_file), timeout=10)
    assert r.returncode == 2
    assert "usage:" in r.stderr and "TRIFREE_TIMEOUT" in r.stderr
    assert "Traceback" not in r.stderr
    # the flag overrides the variable, and no other command reads it
    assert _run_cli("chi", "--family", str(family_file), "--timeout", "10").returncode == 0
    assert _run_cli("verify", "--family", str(family_file)).returncode == 0


def test_cli_encode_render_export(tmp_path):
    enc = tmp_path / "enc.json"
    r = _run_cli("encode", "--k", "2", "--out", str(enc))
    assert r.returncode == 0
    r = _run_cli("verify", "--family", str(enc))
    assert r.returncode == 0
    svg = tmp_path / "enc.svg"
    r = _run_cli("render", "--family", str(enc), "--out", str(svg))
    assert r.returncode == 0
    first = svg.read_bytes()
    _run_cli("render", "--family", str(enc), "--out", str(svg))
    assert svg.read_bytes() == first
    col = tmp_path / "g.col"
    r = _run_cli("export-dimacs", "--family", str(enc), "--out", str(col))
    assert r.returncode == 0
    lines = col.read_text().splitlines()
    assert any(line.startswith("p edge 5 ") for line in lines)
    assert sum(1 for line in lines if line.startswith("e ")) == int(
        next(line for line in lines if line.startswith("p ")).split()[3])

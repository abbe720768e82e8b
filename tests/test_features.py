import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import momix
from momix.cli import main
from momix.errors import (
    BadValue,
    DimMismatch,
    EmptyRegion,
    IoFailure,
    LengthMismatch,
    MissingBackground,
    NoValidPairs,
    UnknownSubject,
)
from momix.archive import load_descriptor, save_descriptors
from momix.features import (
    Directive,
    EditPlan,
    MotionDescriptor,
    PairOperator,
    compile_sources,
    extract_descriptors,
    load_plan,
    lsmm,
    motion_delta,
    plan_from_json,
    recompose,
    soft_blend,
)
from momix.masks import (
    BACKGROUND_ID,
    MaskEdit,
    background_pair_region,
    background_track,
    pair_region,
)
from momix.synth import BlobSpec, SceneSpec, render_scene
from momix.tensors import LatentVideo, MaskTrack, read_array, write_array, write_json

from test_cli import _pipeline_config


def test_lsmm_constant():
    frame = np.full((3, 4, 4), 2.0)
    region = np.zeros((4, 4), dtype=bool)
    region[1, 1] = region[2, 3] = True
    assert np.allclose(lsmm(frame, region), [2.0, 2.0, 2.0])


def test_lsmm_direct_oracle():
    frame = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    region = np.array([[True, True], [False, False]])
    got = lsmm(frame, region)
    # direct per-pixel oracle
    want = (1.0 + 2.0) / 2
    assert got.shape == (1,)
    assert got[0] == want


def test_lsmm_empty_region():
    with pytest.raises(EmptyRegion):
        lsmm(np.zeros((1, 2, 2)), np.zeros((2, 2), dtype=bool))


def _moving_blob_case():
    """1-channel 16x16, blob value 1.0 on zero texture, moves 2 px right."""
    n = 2
    spec = SceneSpec(
        n_frames=n, n_channels=1, height=16, width=16,
        blobs=(BlobSpec("A", ((8.0, 6.0), (8.0, 8.0)), 2.5, (1.0,)),),
        texture_amplitude=0.0,
    )
    return render_scene(spec)


def test_motion_delta_trivia():
    lat, tracks, _ = _moving_blob_case()
    z = lat.data
    assert np.allclose(motion_delta(z[0], z[0], tracks[0], [], 0, 0), 0.0)
    assert np.allclose(motion_delta(z[0], z[0], tracks[0], [], 0, 1), 0.0)


def test_motion_delta_brute_force_oracle():
    lat, tracks, _ = _moving_blob_case()
    z = lat.data
    got = motion_delta(z[0], z[1], tracks[0], [], 0, 1)
    # brute-force pixel enumeration over the union region
    region = tracks[0].frame(0) | tracks[0].frame(1)
    s0 = s1 = 0.0
    count = 0
    for r in range(16):
        for c in range(16):
            if region[r, c]:
                s0 += z[0, 0, r, c]
                s1 += z[1, 0, r, c]
                count += 1
    assert count > 0
    assert got.shape == (1,)
    assert abs(got[0] - (s0 / count - s1 / count)) < 1e-12


def test_motion_delta_uses_shared_region():
    lat, tracks, _ = _moving_blob_case()
    z = lat.data
    d_ij = motion_delta(z[0], z[1], tracks[0], [], 0, 1)
    d_ji = motion_delta(z[1], z[0], tracks[0], [], 1, 0)
    assert np.array_equal(d_ij, -d_ji)


def _scene(n=5, seed=3):
    return SceneSpec(
        n_frames=n, n_channels=3, height=32, width=32,
        blobs=(
            BlobSpec("A", tuple((10.0, 6.0 + 3.0 * f) for f in range(n)), 3.0, (0, 2.5, 0)),
            BlobSpec("B", tuple((6.0 + 3.0 * f, 16.0) for f in range(n)), 3.0, (0, 0, 2.5)),
        ),
        texture_seed=seed, texture_amplitude=0.6,
    )


def test_extract_descriptor_invariants():
    lat, tracks, _ = render_scene(_scene())
    descs = extract_descriptors(lat, tracks, timestep=2)
    assert sorted(d.source_id for d in descs) == ["A", "B", "background"]
    for d in descs:
        assert d.timestep == 2
        for i, j in d.valid_pairs:
            assert np.array_equal(d.delta(i, j), -d.delta(j, i))
        for i in range(d.n_frames):
            assert not d.has_pair(i, i)
            assert np.all(d.delta(i, i) == 0.0)


def test_extract_subject_absent_everywhere():
    lat, tracks, _ = render_scene(_scene())
    empty = MaskTrack(np.zeros((5, 32, 32), dtype=bool), subject_id="ghost")
    with pytest.raises(NoValidPairs):
        extract_descriptors(lat, list(tracks) + [empty], timestep=0)
    descs = extract_descriptors(lat, list(tracks) + [empty], timestep=0, strict=False)
    assert sorted(d.source_id for d in descs) == ["A", "B", "background"]


def test_global_mean_degeneracy():
    # an all-true mask makes the delta equal the global spatial mean difference
    rng = np.random.default_rng(0)
    z = rng.standard_normal((3, 2, 8, 8))
    full = MaskTrack(np.ones((3, 8, 8), dtype=bool), subject_id="all")
    got = motion_delta(z[0], z[2], full, [], 0, 2)
    want = z[0].mean(axis=(1, 2)) - z[2].mean(axis=(1, 2))  # independent oracle
    assert np.max(np.abs(got - want)) <= 1e-6


def test_disentangled_matches_isolated():
    # descriptors for one blob in a two-blob scene with disjoint trajectories
    # match the same blob rendered alone
    n = 5
    spec = SceneSpec(
        n_frames=n, n_channels=3, height=32, width=32,
        blobs=(
            BlobSpec("A", tuple((8.0, 6.0 + 3.0 * f) for f in range(n)), 3.0, (0, 2.5, 0)),
            BlobSpec("B", tuple((24.0, 22.0 - 3.0 * f) for f in range(n)), 3.0, (0, 0, 2.5)),
        ),
        texture_seed=3, texture_amplitude=0.6,
    )
    lat, tracks, _ = render_scene(spec)
    iso_spec = SceneSpec(
        n_frames=spec.n_frames, n_channels=3, height=32, width=32,
        blobs=(spec.blobs[0],), texture_seed=spec.texture_seed,
        texture_amplitude=spec.texture_amplitude,
    )
    iso_lat, iso_tracks, _ = render_scene(iso_spec)
    multi = {d.source_id: d for d in extract_descriptors(lat, tracks, timestep=0)}
    iso = extract_descriptors(iso_lat, iso_tracks, timestep=0)[0]
    # trajectories here are disjoint, so exclusion recovers the isolated values
    for i, j in iso.forward_pairs():
        if multi["A"].has_pair(i, j):
            assert np.max(np.abs(multi["A"].delta(i, j) - iso.delta(i, j))) <= 1e-6


def test_soft_blend_endpoints_and_oracle():
    s = np.array([2.0, 0.0])
    c = np.array([0.0, 2.0])
    out0 = soft_blend(s, c, 0.0)
    assert out0.tobytes() == s.tobytes()  # bit-exact at w_c = 0
    assert np.allclose(soft_blend(s, c, 1.0), [1.0, 1.0])
    assert np.allclose(soft_blend(s, s, 7.3), s)
    with pytest.raises(LengthMismatch):
        soft_blend(s, np.zeros(3), 1.0)
    with pytest.raises(BadValue):
        soft_blend(s, c, -0.1)


@pytest.mark.parametrize("w_c", [float("inf"), float("nan")])
def test_soften_weight_must_be_finite(w_c):
    # an infinite w_c used to reach sampling and fail there as a numeric error
    s = np.array([1.0, 0.0])
    for make in (lambda: Directive("soften", w_c=w_c), lambda: soft_blend(s, s, w_c)):
        with pytest.raises(BadValue, match="finite and non-negative"):
            make()


@pytest.mark.parametrize("kind", ["keep", "remove", "mask_edit"])
def test_only_soften_takes_a_w_c(kind):
    # a w_c on any other directive used to be accepted and never read
    edit = MaskEdit("shift", dx=1) if kind == "mask_edit" else None
    with pytest.raises(BadValue, match=f"a {kind} directive takes no w_c"):
        Directive(kind, w_c=1.0, edit=edit)


def test_soften_requires_its_w_c(tmp_path, capsys):
    # a soften without one used to take the plan-wide w_c, 0 unless the plan set it
    with pytest.raises(BadValue, match="soften directive requires a w_c"):
        Directive("soften")
    doc = {"subjects": {"A": {"op": "soften"}}}
    with pytest.raises(BadValue, match="soften directive requires a w_c"):
        plan_from_json(doc)
    cfg = dict(_pipeline_config(tmp_path), plan=doc)
    write_json(tmp_path / "cfg.json", cfg)
    assert main(["pipeline", str(tmp_path / "cfg.json")]) == 2
    assert "soften directive requires a w_c" in capsys.readouterr().err
    assert not Path(cfg["out_dir"]).exists()


@pytest.mark.parametrize("kind", ["keep", "remove", "soften"])
def test_only_mask_edit_takes_an_edit(kind):
    # an edit on any other directive used to be accepted and never read
    with pytest.raises(BadValue, match=f"a {kind} directive takes no edit"):
        Directive(kind, edit=MaskEdit("shift", dx=1))


def test_soft_blend_monotone_approach():
    rng = np.random.default_rng(1)
    s, c = rng.standard_normal(4), rng.standard_normal(4)
    dists = [np.linalg.norm(soft_blend(s, c, w) - c) for w in (0, 0.5, 1, 2, 4, 8, 1e6)]
    assert all(a >= b - 1e-12 for a, b in zip(dists, dists[1:]))


def _descriptors():
    lat, tracks, _ = render_scene(_scene())
    return extract_descriptors(lat, tracks, timestep=0)


def test_recompose_keep_identity():
    descs = _descriptors()
    out = recompose(descs, EditPlan())
    assert [d.source_id for d in out] == [d.source_id for d in descs]
    for a, b in zip(out, descs):
        for i, j in b.forward_pairs():
            assert np.array_equal(a.delta(i, j), b.delta(i, j))


def test_recompose_remove_copies_background():
    descs = _descriptors()
    bg = next(d for d in descs if d.source_id == "background")
    out = recompose(descs, EditPlan(directives={"A": Directive("remove")}))
    a = next(d for d in out if d.source_id == "A")
    assert a.valid_pairs == bg.valid_pairs
    for i, j in bg.forward_pairs():
        assert np.array_equal(a.delta(i, j), bg.delta(i, j))


def test_recompose_soften_oracle():
    descs = _descriptors()
    bg = next(d for d in descs if d.source_id == "background")
    sub = next(d for d in descs if d.source_id == "A")
    out = recompose(descs, EditPlan(directives={"A": Directive("soften", w_c=3.0)}))
    a = next(d for d in out if d.source_id == "A")
    for i, j in a.forward_pairs():
        want = (sub.delta(i, j) + 3.0 * bg.delta(i, j)) / 4.0
        assert np.allclose(a.delta(i, j), want)


def test_recompose_camera_only_and_errors():
    descs = _descriptors()
    out = recompose(descs, EditPlan(camera_only=True))
    assert [d.source_id for d in out] == ["background"]
    with pytest.raises(UnknownSubject):
        recompose(descs, EditPlan(directives={"C": Directive("keep")}))
    no_bg = [d for d in descs if d.source_id != "background"]
    with pytest.raises(MissingBackground):
        recompose(no_bg, EditPlan(directives={"A": Directive("remove")}))


def test_recompose_rejects_descriptors_of_different_frame_counts():
    # used to raise IndexError from the background's row table
    rng = np.random.default_rng(0)
    a = MotionDescriptor("A", 0, 5, [(0, 4), (1, 2)], rng.standard_normal((2, 2)))
    bg = MotionDescriptor(BACKGROUND_ID, 0, 3, [(0, 1), (1, 2)], rng.standard_normal((2, 2)))
    with pytest.raises(DimMismatch, match=r"different frame counts \[3, 5\]"):
        recompose([a, bg], EditPlan(directives={"A": Directive("soften", w_c=1.0)}))


def test_recompose_mask_edit_passthrough():
    descs = _descriptors()
    edit = MaskEdit("shift", dx=3, dy=0)
    out = recompose(descs, EditPlan(directives={"A": Directive("mask_edit", edit=edit)}))
    a_in = next(d for d in descs if d.source_id == "A")
    a_out = next(d for d in out if d.source_id == "A")
    for i, j in a_in.forward_pairs():
        assert np.array_equal(a_out.delta(i, j), a_in.delta(i, j))


def test_plan_json_round_trip(tmp_path):
    plan = EditPlan(
        directives={
            "A": Directive("soften", w_c=2.0),
            "B": Directive("mask_edit", edit=MaskEdit("scale", factor=2.0, anchor=(7.5, 7.5))),
        },
    )
    doc = {
        "subjects": {
            "A": {"op": "soften", "w_c": 2.0},
            "B": {"op": "mask_edit", "edit": {"kind": "scale", "dx": 0, "dy": 0, "factor": 2.0,
                                               "anchor": [7.5, 7.5]}},
        },
        "camera_only": False,
    }
    assert plan_from_json(doc) == plan
    write_json(tmp_path / "plan.json", doc)
    assert load_plan(tmp_path / "plan.json") == plan


@pytest.mark.parametrize(
    "doc, where",
    [
        ({"subject": {"A": {"op": "remove"}}}, "edit plan"),
        ({"subjects": {"A": {"op": "soften", "wc": 2.0}}}, "plan entry 'A'"),
        ({"subjects": {"A": {"op": "mask_edit", "edit": {"kind": "shift", "DX": 8}}}},
         "plan edit of 'A'"),
        ({"include_background": False}, "edit plan"),
        ({"w_c": 1.0}, "edit plan"),
    ],
    ids=["top-level", "subject", "edit", "include_background", "w_c"],
)
def test_plan_from_json_rejects_unknown_keys(doc, where):
    # each of these used to parse: to a keep-everything plan, a soften at the
    # plan-wide w_c, and a shift by 0; a background weight of 0 is what
    # include_background: false used to say, and each soften's own w_c what
    # the plan-wide w_c did
    with pytest.raises(BadValue, match=f"unknown {where} keys"):
        plan_from_json(doc)


def _shift(dx):
    return {"subjects": {"A": {"op": "mask_edit", "edit": {"kind": "shift", "dx": dx}}}}


def _scale(factor, anchor=(4.0, 4.0)):
    edit = {"kind": "scale", "factor": factor, "anchor": anchor}
    return {"subjects": {"A": {"op": "mask_edit", "edit": edit}}}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"camera_only": "false"}, "camera_only must be a JSON boolean"),
        ({"camera_only": 0}, "camera_only must be a JSON boolean"),
        (_shift(1.5), "dx must be a JSON integer"),
        (_shift("8"), "dx must be a JSON integer"),
        ({"subjects": {"A": {"op": "soften", "w_c": True}}}, "w_c must be a JSON number"),
        ({"subjects": {"A": {"op": "soften", "w_c": "2"}}}, "w_c must be a JSON number"),
        ({"subjects": {"A": {"op": "soften", "w_c": float("inf")}}}, "w_c must be finite"),
        (_scale("2"), "factor must be a JSON number"),
        (_scale(False), "factor must be a JSON number"),
        (_scale(float("nan")), "factor must be finite"),
        (_scale(2.0, ["7.5", True]), "anchor must be a JSON number"),
        (_scale(2.0, [7.5, True]), "anchor must be a JSON number"),
        (_scale(2.0, [7.5, float("inf")]), "anchor must be finite"),
        (_scale(2.0, [7.5]), "anchor must be a JSON array of 2 numbers"),
        (_scale(2.0, [7.5, 7.5, 7.5]), "anchor must be a JSON array of 2 numbers"),
        (_scale(2.0, "7.5"), "anchor must be a JSON array of 2 numbers"),
    ],
    ids=["camera_only-string", "camera_only-int", "dx-float",
         "dx-string", "w_c-bool", "directive-w_c-string", "directive-w_c-infinite",
         "factor-string", "factor-bool", "factor-nan", "anchor-string", "anchor-bool",
         "anchor-infinite", "anchor-short", "anchor-long", "anchor-not-array"],
)
def test_plan_from_json_rejects_mistyped_values(doc, message):
    # "false" used to parse as True, a shift by 1.5 as a shift by 1, "0.5" as 0.5,
    # and the anchor ["7.5", true] as (7.5, 1.0)
    with pytest.raises(BadValue, match=message):
        plan_from_json(doc)


def test_plan_from_json_reads_the_anchor_as_floats():
    edit = plan_from_json(_scale(2.0, [7, 7.5])).directives["A"].edit
    assert edit.anchor == (7.0, 7.5) and all(type(v) is float for v in edit.anchor)


def test_descriptor_archive_round_trip(tmp_path):
    descs = _descriptors()
    save_descriptors(descs, tmp_path)
    for d in descs:
        back = load_descriptor(tmp_path / f"{d.source_id}.json")
        assert back.source_id == d.source_id
        assert back.valid_pairs == d.valid_pairs
        for i, j in d.forward_pairs():
            # archive stores float32; loader must reproduce those bits
            assert np.array_equal(
                back.delta(i, j), d.delta(i, j).astype(np.float32).astype(np.float64)
            )


def test_descriptor_archive_is_one_tensor_and_compact_documents(tmp_path):
    descs = _descriptors()
    save_descriptors(descs, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["deltas.cmt", *(f"{d.source_id}.json" for d in descs)])
    stacked = np.concatenate([d.deltas for d in descs])
    assert np.array_equal(read_array(tmp_path / "deltas.cmt"), stacked.astype(np.float32))
    start = 0
    for d in descs:
        text = (tmp_path / f"{d.source_id}.json").read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        assert doc["rows"] == [start, start + len(d.pairs)]
        assert doc["valid_pairs"] == d.pairs.tolist()
        start += len(d.pairs)


def test_descriptor_array_layout():
    d = MotionDescriptor.from_forward_pairs(
        "s", 0, 3, {(1, 2): np.array([3.0, 4.0]), (0, 2): np.array([1.0, 2.0])}
    )
    assert d.forward_pairs() == [(0, 2), (1, 2)]
    assert d.deltas.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert d.valid_pairs == {(0, 2), (2, 0), (1, 2), (2, 1)}
    assert d.delta(2, 1).tolist() == [-3.0, -4.0]
    assert not d.has_pair(0, 1) and not d.has_pair(0, 0) and not d.has_pair(0, 3)
    assert d.rows_of([(0, 1), (1, 2), (0, 2)]).tolist() == [-1, 1, 0]
    with pytest.raises(KeyError):
        d.delta(0, 1)
    with pytest.raises(ValueError):
        d.deltas[0, 0] = 9.0  # read-only
    empty = MotionDescriptor.from_forward_pairs("s", 0, 3, {})
    assert empty.forward_pairs() == [] and empty.rows_of([(0, 1)]).tolist() == [-1]


@pytest.mark.parametrize(
    "pairs, n_rows, error",
    [
        ([(0, 2), (0, 1)], 2, BadValue),  # unsorted
        ([(0, 1), (0, 1)], 2, BadValue),  # duplicated
        ([(0, 3)], 1, BadValue),  # j out of range
        ([(-1, 1)], 1, BadValue),  # i out of range
        ([(1, 0)], 1, BadValue),  # not forward
        ([(1, 1)], 1, BadValue),  # diagonal
        ([(0, 1), (0, 2)], 1, DimMismatch),  # one delta row short
        ([(0, 1, 2)], 1, DimMismatch),  # not a pair
    ],
)
def test_descriptor_rejects_malformed_pairs(pairs, n_rows, error):
    with pytest.raises(error):
        MotionDescriptor("s", 0, 3, np.array(pairs), np.zeros((n_rows, 2)))


def test_descriptor_rejects_deltas_that_are_not_a_matrix():
    with pytest.raises(DimMismatch):
        MotionDescriptor("s", 0, 3, np.array([(0, 1)]), np.zeros(2))
    with pytest.raises(BadValue):
        MotionDescriptor.from_forward_pairs("s", 0, 3, {(2, 1): np.zeros(2)})


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda d: d.update(valid_pairs=d["valid_pairs"][1:]), "valid_pairs 9 pairs"),
        (lambda d: d.pop("valid_pairs"), "missing valid_pairs"),
        (lambda d: d.pop("rows"), "missing rows"),
        (lambda d: d.update(rows=[0, 10.0]), "rows must be [start, stop]"),
        (lambda d: d.update(rows=[2, 1]), "rows must be [start, stop]"),
        (lambda d: d.update(rows=[10**6, 10**6 + 10]), "rows must be [start, stop]"),
        (lambda d: d.update(tensor="A.cmt"), "keys ['tensor']"),
    ],
    ids=["pairs-short", "pairs-missing", "rows-missing", "rows-float", "rows-reversed",
         "rows-past-tensor", "tensor-unknown"],
)
def test_descriptor_archive_rejects_a_damaged_document(tmp_path, damage, message):
    descs = _descriptors()
    assert len(next(d for d in descs if d.source_id == "A").pairs) == 10
    save_descriptors(descs, tmp_path)
    doc = json.loads((tmp_path / "A.json").read_text())
    damage(doc)
    (tmp_path / "A.json").write_text(json.dumps(doc))
    with pytest.raises(BadValue, match=re.escape(message)):
        load_descriptor(tmp_path / "A.json")


def test_descriptor_archive_rejects_mismatched_tensor(tmp_path):
    descs = _descriptors()
    save_descriptors(descs, tmp_path)
    last = tmp_path / f"{descs[-1].source_id}.json"
    deltas = read_array(tmp_path / "deltas.cmt")
    write_array(tmp_path / "deltas.cmt", deltas[:-1])  # the last source's rows run past it
    with pytest.raises(BadValue, match=re.escape(f"stop <= {len(deltas) - 1}")):
        load_descriptor(last)
    write_array(tmp_path / "deltas.cmt", deltas.reshape(-1))
    with pytest.raises(DimMismatch, match="deltas must be"):
        load_descriptor(last)
    (tmp_path / "deltas.cmt").unlink()
    with pytest.raises(IoFailure, match="deltas.cmt"):
        load_descriptor(last)


def _shares_a_cell_outside_every_subject_row(op, tracks):
    # some cell that two subjects hold at one frame lies in no subject row at all
    shared = (tracks[0].data & tracks[1].data).any(axis=0).ravel()
    held = np.zeros_like(shared)
    for sid in op.source_ids():
        if sid != BACKGROUND_ID:
            for cells, _ in op.pairs[sid].values():
                held[cells] = True
    return bool((shared & ~held).any())


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(["random", "empty", "full", "copy"]), max_size=3),
    n_frames=st.integers(2, 4),
    legacy=st.booleans(),
    background=st.sampled_from(["none", "derived", "supplied"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(kinds=["random", "random"], n_frames=4, legacy=False, background="derived", seed=1)
@example(kinds=["random", "full"], n_frames=3, legacy=True, background="derived", seed=2)
@example(kinds=["empty"], n_frames=3, legacy=False, background="none", seed=3)  # no rows
# cells both subjects hold at some frame, so they lie in no subject row
@example(kinds=["random", "copy"], n_frames=3, legacy=False, background="none", seed=4)
# a background track that is not the complement of the subjects
@example(kinds=["random", "random"], n_frames=3, legacy=False, background="supplied", seed=5)
# legacy regions, with no cut, still read per-atom labels over every track
@example(kinds=["random", "copy", "random"], n_frames=4, legacy=True, background="derived",
         seed=6)
def test_pair_operator_matches_naive_loop(kinds, n_frames, legacy, background, seed):
    # oracle: one pair_region + lsmm per (source, i, j), as the regions are defined,
    # and the dense (rows, frames, cells) matrix W those regions make
    h, w, c = 5, 4, 2
    rng = np.random.default_rng(seed)
    tracks = []
    for k, kind in enumerate(kinds):
        if kind == "copy":  # the previous subject's masks, plus some cells of its own
            prev = tracks[-1].data if tracks else np.zeros((n_frames, h, w), dtype=bool)
            data = prev | (rng.random((n_frames, h, w)) < 0.3)
        elif kind == "random":
            data = rng.random((n_frames, h, w)) < 0.4
        else:
            data = np.full((n_frames, h, w), kind == "full")
        tracks.append(MaskTrack(data, subject_id=f"s{k}"))
    lat = LatentVideo(rng.standard_normal((n_frames, c, h, w)).astype(np.float32))
    if not tracks and background == "none":
        with pytest.raises(BadValue, match="must not be empty"):
            PairOperator({}, legacy_region=legacy)
        return
    if background == "supplied":
        bg = MaskTrack(rng.random((n_frames, h, w)) < 0.6, subject_id=BACKGROUND_ID)
        op = PairOperator({t.subject_id: t for t in tracks + [bg]}, legacy_region=legacy)
    else:
        bg = background_track(tracks, dims=(n_frames, h, w))
        op = (compile_sources(lat.shape, tracks, legacy_region=legacy) if background == "derived"
              else PairOperator({t.subject_id: t for t in tracks}, legacy_region=legacy))
    if (kinds, n_frames, legacy, background, seed) == (["random", "copy"], 3, False, "none", 4):
        assert _shares_a_cell_outside_every_subject_row(op, tracks)  # the example does its job

    rows, deltas, cells = [], [], {}
    dense = []
    for track in tracks + ([bg] if background != "none" else []):
        others = [] if legacy else [o for o in tracks if o is not track]
        for i in range(n_frames):
            for j in range(i + 1, n_frames):
                if track is bg:
                    region = background_pair_region(bg, i, j)
                else:
                    region = pair_region(track, others, i, j)
                if region.any():
                    rows.append((track.subject_id, i, j))
                    deltas.append(lsmm(lat.data[i], region) - lsmm(lat.data[j], region))
                    cells[rows[-1]] = np.flatnonzero(region)
                    row = np.zeros((n_frames, h * w))
                    row[i, region.ravel()] = 1.0 / region.sum()
                    row[j, region.ravel()] = -1.0 / region.sum()
                    dense.append(row)
    # empty regions never become rows; every row holds exactly its region
    assert op.rows == tuple(rows)
    for (sid, i, j), want in cells.items():
        got, area = op.pairs[sid][(i, j)]
        assert np.array_equal(got, want) and area == want.size
    assert sum(len(p) for p in op.pairs.values()) == len(rows)
    assert op.area.tolist() == [cells[r].size for r in rows]
    dense = np.reshape(dense, (len(rows), n_frames * h * w))
    applied = op.apply(lat.data)
    assert applied.shape == (len(rows), c)
    assert np.allclose(applied, np.reshape(deltas, (len(rows), c)), rtol=0, atol=1e-12)
    # float32 latents are read as they are: the same bytes as their float64 cast
    assert applied.tobytes() == op.apply(lat.data.astype(np.float64)).tobytes()
    y = rng.standard_normal(applied.shape)
    adjoint = op.adjoint(y).reshape(n_frames, c, h * w)
    assert np.allclose(adjoint, np.einsum("rn,rc->cn", dense, y).reshape(c, n_frames, -1)
                       .transpose(1, 0, 2), rtol=0, atol=1e-12)
    # Gram matrix: exactly symmetric, and W W^T
    gram = op.gram
    assert gram.shape == (len(rows), len(rows)) and np.array_equal(gram, gram.T)
    assert np.allclose(gram, dense @ dense.T, rtol=0, atol=1e-12)


_THREAD_PROBE = """
import hashlib
import numpy as np
from momix.features import PairOperator
from momix.tensors import MaskTrack

rng = np.random.default_rng(3)
f, c, h, w = 36, 3, 8, 8
masks = {sid: MaskTrack(rng.random((f, h, w)) < 0.5, subject_id=sid) for sid in ("a", "b")}
op = PairOperator(masks)
assert len(op.rows) >= 1000, len(op.rows)
latents = rng.standard_normal((f, c, h, w)).astype(np.float32)
coef = rng.standard_normal((len(op.rows), c))
print(hashlib.sha256(op.apply(latents).tobytes() + op.adjoint(coef).tobytes()).hexdigest())
"""


def test_pair_operator_bytes_do_not_depend_on_blas_threads():
    src = str(Path(momix.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        digests.add(done.stdout.strip())
    assert len(digests) == 1, digests

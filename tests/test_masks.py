import numpy as np
import pytest

from momix.errors import BadValue, DimMismatch, IndexOutOfRange
from momix.masks import (
    MaskEdit,
    apply_edit,
    background_pair_region,
    background_track,
    exclusive_region,
    pair_region,
    scale_mask,
    set_difference,
    shift_mask,
    union,
)
from momix.tensors import MaskTrack


def oracle_union(a, b):
    return np.array([bool(x) or bool(y) for x, y in zip(a.flat, b.flat)]).reshape(a.shape)


def oracle_diff(a, b):
    return np.array([bool(x) and not bool(y) for x, y in zip(a.flat, b.flat)]).reshape(a.shape)


def rand_mask(rng, shape=(8, 8), p=0.5):
    return rng.random(shape) < p


def test_union_trivia():
    e = np.zeros((3, 3), dtype=bool)
    assert not union(e, e).any()
    a = np.eye(3, dtype=bool)
    assert np.array_equal(union(a, a), a)


def test_union_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rand_mask(rng), rand_mask(rng)
        assert np.array_equal(union(a, b), oracle_union(a, b))


def test_union_dim_mismatch():
    with pytest.raises(DimMismatch):
        union(np.zeros((2, 2), bool), np.zeros((3, 3), bool))


def test_set_difference_trivia():
    rng = np.random.default_rng(1)
    a = rand_mask(rng)
    e = np.zeros_like(a)
    assert np.array_equal(set_difference(a, e), a)
    assert not set_difference(a, a).any()


def test_set_difference_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a, b = rand_mask(rng), rand_mask(rng)
        assert np.array_equal(set_difference(a, b), oracle_diff(a, b))


def test_exclusive_region():
    rng = np.random.default_rng(3)
    s = rand_mask(rng)
    assert np.array_equal(exclusive_region(s, []), s)
    full = np.ones_like(s)
    assert not exclusive_region(s, [full]).any()
    o1, o2 = rand_mask(rng), rand_mask(rng)
    got = exclusive_region(s, [o1, o2])
    want = s & ~(o1 | o2)
    assert np.array_equal(got, want)
    # per-pixel oracle
    for r in range(8):
        for c in range(8):
            assert got[r, c] == (s[r, c] and not (o1[r, c] or o2[r, c]))


def _track(rng, f=4, h=8, w=8, name="s", p=0.4):
    return MaskTrack(rng.random((f, h, w)) < p, subject_id=name)


def test_pair_region_same_frame_no_others():
    rng = np.random.default_rng(4)
    s = _track(rng)
    assert np.array_equal(pair_region(s, [], 1, 1), s.frame(1))


def test_pair_region_degenerates_to_plain_union():
    rng = np.random.default_rng(5)
    s = _track(rng)
    got = pair_region(s, [], 0, 2)
    assert np.array_equal(got, s.frame(0) | s.frame(2))


def test_pair_region_symmetry_and_oracle():
    rng = np.random.default_rng(6)
    s, o1, o2 = _track(rng, name="s"), _track(rng, name="o1"), _track(rng, name="o2")
    for i, j in [(0, 1), (1, 3), (2, 0)]:
        got = pair_region(s, [o1, o2], i, j)
        assert np.array_equal(got, pair_region(s, [o1, o2], j, i))
        for r in range(8):
            for c in range(8):
                occupied = (o1.frame(i)[r, c] or o2.frame(i)[r, c]
                            or o1.frame(j)[r, c] or o2.frame(j)[r, c])
                want = (s.frame(i)[r, c] or s.frame(j)[r, c]) and not occupied
                assert got[r, c] == want


def test_pair_region_bad_index():
    rng = np.random.default_rng(7)
    s = _track(rng)
    with pytest.raises(IndexOutOfRange):
        pair_region(s, [], 0, 4)


def test_background_track():
    with pytest.raises(DimMismatch):
        background_track([])
    bg = background_track([], dims=(2, 3, 3))
    assert bg.data.all() and bg.subject_id == "background"
    rng = np.random.default_rng(8)
    a, b = _track(rng, name="a"), _track(rng, name="b")
    got = background_track([a, b])
    assert np.array_equal(got.data, ~(a.data | b.data))
    full = MaskTrack(np.ones((2, 3, 3), bool), subject_id="x")
    assert not background_track([full]).data.any()


def test_background_pair_region_is_intersection():
    rng = np.random.default_rng(9)
    bg = _track(rng, name="background")
    got = background_pair_region(bg, 0, 3)
    assert np.array_equal(got, bg.frame(0) & bg.frame(3))


def assert_frame_by_frame(got, edit, track, *args):
    """``got`` must hold the bytes of ``edit`` applied to each frame of ``track`` and stacked."""
    want = np.stack([edit(frame, *args) for frame in track])
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_shift_identity_and_translation():
    rng = np.random.default_rng(10)
    t = _track(rng)
    same = apply_edit(t, MaskEdit("shift", dx=0, dy=0))
    assert np.array_equal(same.data, t.data)
    one = np.zeros((2, 9, 9), dtype=bool)
    one[:, 4, 4] = True
    moved = apply_edit(MaskTrack(one, subject_id="p"), MaskEdit("shift", dx=2, dy=0))
    assert moved.data[:, 4, 6].all()
    assert moved.data.sum() == 2
    # a frame or a track; any other rank is rejected
    for shape in ((9,), (1, 2, 9, 9)):
        with pytest.raises(DimMismatch, match="must be 2 or 3-D"):
            shift_mask(np.zeros(shape, bool), 1, 1)


def test_shift_clips_and_area_non_increasing():
    rng = np.random.default_rng(11)
    for _ in range(10):
        t = _track(rng)
        dx, dy = int(rng.integers(-9, 10)), int(rng.integers(-9, 10))
        shifted = apply_edit(t, MaskEdit("shift", dx=dx, dy=dy))
        assert_frame_by_frame(shifted.data, shift_mask, t.data, dy, dx)
        assert_frame_by_frame(shift_mask(t.data, dy, dx), shift_mask, t.data, dy, dx)
        assert shifted.data.sum() <= t.data.sum()
        back = apply_edit(shifted, MaskEdit("shift", dx=-dx, dy=-dy))
        assert not (back.data & ~t.data).any()
        # every pixel whose shifted position stayed in frame is restored
        survived = shift_mask_all(t.data, dy, dx)
        assert np.array_equal(back.data, survived)


def shift_mask_all(data, dy, dx):
    """Oracle: pixels of ``data`` whose (dy, dx) translation stays in frame."""
    f, h, w = data.shape
    out = np.zeros_like(data)
    for r in range(h):
        for c in range(w):
            if 0 <= r + dy < h and 0 <= c + dx < w:
                out[:, r, c] = data[:, r, c]
    return out


def test_scale_square_doubles():
    frame = np.zeros((16, 16), dtype=bool)
    frame[6:10, 6:10] = True  # centroid (7.5, 7.5)
    scaled = scale_mask(frame, 2.0, (7.5, 7.5))
    # independent rasterizer: the 8x8 square centered at the same point
    want = np.zeros((16, 16), dtype=bool)
    want[4:12, 4:12] = True
    ring = int(np.abs(scaled.astype(int) - want.astype(int)).sum())
    assert ring <= 2 * (8 * 4)  # at most a one-pixel ring of disagreement
    ratio = scaled.sum() / frame.sum()
    assert abs(ratio - 4.0) <= 4 * 8 * 4 / frame.sum()
    # the square, an empty frame and a random one, scaled in one call; a shrink
    # maps some cells to sources outside the frame
    track = np.stack([frame, np.zeros_like(frame), rand_mask(np.random.default_rng(13), (16, 16))])
    for factor, anchor in ((2.0, (7.5, 7.5)), (0.7, (3.0, 12.0))):
        assert_frame_by_frame(scale_mask(track, factor, anchor), scale_mask, track, factor, anchor)
        edited = apply_edit(MaskTrack(track), MaskEdit("scale", factor=factor, anchor=anchor))
        assert_frame_by_frame(edited.data, scale_mask, track, factor, anchor)


def test_scale_anchor_validation():
    frame = np.zeros((8, 8), dtype=bool)
    with pytest.raises(BadValue):
        scale_mask(frame, 2.0, (9.0, 0.0))
    with pytest.raises(BadValue):
        scale_mask(np.stack([frame, frame]), 2.0, (9.0, 0.0))
    # a frame or a track; any other rank is rejected
    for shape in ((8,), (1, 2, 8, 8)):
        with pytest.raises(DimMismatch, match="must be 2 or 3-D"):
            scale_mask(np.zeros(shape, bool), 2.0, (1.0, 1.0))
    with pytest.raises(BadValue):
        MaskEdit("scale", factor=0.0, anchor=(1.0, 1.0))
    with pytest.raises(BadValue):
        MaskEdit("scale", factor=2.0)  # anchor required


@pytest.mark.parametrize(
    "kind, unused",
    [("shift", {"factor": 2.0}), ("shift", {"anchor": (1.0, 1.0)}), ("scale", {"dx": 1}),
     ("scale", {"dy": -1})],
    ids=["shift-factor", "shift-anchor", "scale-dx", "scale-dy"],
)
def test_an_edit_takes_only_the_fields_its_kind_uses(kind, unused):
    # such a field used to be accepted and never read
    needed = {"factor": 2.0, "anchor": (1.0, 1.0)} if kind == "scale" else {}
    with pytest.raises(BadValue, match=f"a {kind} edit takes no"):
        MaskEdit(kind, **needed, **unused)


@pytest.mark.parametrize("factor", [float("inf"), float("nan")])
def test_scale_edit_rejects_a_non_finite_factor(factor):
    # an infinite factor used to scale every frame to its anchor cell
    with pytest.raises(BadValue, match="finite and positive"):
        MaskEdit("scale", factor=factor, anchor=(1.0, 1.0))


def test_scale_mask_tests_bounds_before_the_integer_cast(recwarn):
    # a factor of 1e-300 used to cast 1e300 to int, with a RuntimeWarning
    frame = np.ones((8, 8), dtype=bool)
    for mask in (frame, np.stack([frame, frame])):
        with pytest.raises(BadValue, match="2\\*\\*53"):
            scale_mask(mask, 1e-300, (3.5, 3.5))
        assert not scale_mask(mask, 1e-3, (3.5, 3.5)).any()
    assert not recwarn.list


def test_exhaustive_3x3_set_identities():
    # all 2^9 x 2^9 pairs at once, laid out as one giant cell-wise region
    all_masks = np.array([[(n >> k) & 1 for k in range(9)] for n in range(512)], bool)
    a = np.repeat(all_masks, 512, axis=0)
    b = np.tile(all_masks, (512, 1))
    assert np.array_equal(union(a, b), union(b, a))
    assert np.array_equal(union(a, union(a, b)), union(a, b))  # idempotence
    assert not set_difference(a, a).any()
    assert np.array_equal(set_difference(a, np.zeros_like(a)), a)


def test_random_64x64_set_identities():
    rng = np.random.default_rng(12)
    for _ in range(50):
        a, b, c = (rand_mask(rng, (64, 64)) for _ in range(3))
        assert np.array_equal(union(union(a, b), c), union(a, union(b, c)))
        assert np.array_equal(union(a, b), union(b, a))
        assert np.array_equal(union(a, a), a)
        assert not set_difference(a, a).any()
        assert np.array_equal(set_difference(a, np.zeros_like(a)), a)


import numpy as np
import pytest
from numpy.testing import assert_allclose

from liegroup_maps.core import (
    Ad6,
    ad6,
    hat3,
    hat6,
    is_rotation,
    pose_inverse,
    vee3,
    vee6,
)

RNG = np.random.default_rng(42)


def make_pose(rot, trans):
    pose = np.eye(4)
    pose[:3, :3] = rot
    pose[:3, 3] = trans
    return pose


def random_rotation():
    # QR of a Gaussian matrix, sign-fixed to det +1
    q, r = np.linalg.qr(RNG.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_hat3_cross_product():
    for _ in range(20):
        v, w = RNG.standard_normal(3), RNG.standard_normal(3)
        assert_allclose(hat3(v) @ w, np.cross(v, w), atol=1e-15)


def test_hat3_vee3_roundtrip():
    v = np.array([0.3, -1.2, 2.5])
    assert_allclose(vee3(hat3(v)), v)


def test_vee3_rejects_non_skew():
    with pytest.raises(ValueError, match="not skew"):
        vee3(np.eye(3))


def test_vee3_tolerates_roundoff_asymmetry():
    m = hat3([1.0, 2.0, 3.0])
    m[0, 1] += 1e-9
    assert_allclose(vee3(m), [1.0, 2.0, 3.0], atol=1e-9)


def test_hat6_vee6_roundtrip():
    screw = RNG.standard_normal(6)
    m = hat6(screw)
    assert m.shape == (4, 4)
    assert_allclose(m[3], 0.0)
    assert_allclose(vee6(m), screw)


def test_hat6_blocks():
    m = hat6([1, 2, 3, 4, 5, 6])
    assert_allclose(m[:3, :3], hat3([1, 2, 3]))
    assert_allclose(m[:3, 3], [4, 5, 6])


def test_vee6_rejects_nonzero_bottom_row():
    m = hat6(np.ones(6))
    m[3, 0] = 1e-6
    with pytest.raises(ValueError, match="bottom row"):
        vee6(m)


def test_ad6_is_matrix_commutator():
    for _ in range(10):
        a, b = RNG.standard_normal(6), RNG.standard_normal(6)
        bracket = hat6(a) @ hat6(b) - hat6(b) @ hat6(a)
        assert_allclose(ad6(a) @ b, vee6(bracket), atol=1e-13)


def test_Ad6_homomorphism():
    for _ in range(10):
        t1 = make_pose(random_rotation(), RNG.standard_normal(3))
        t2 = make_pose(random_rotation(), RNG.standard_normal(3))
        assert_allclose(Ad6(t1 @ t2), Ad6(t1) @ Ad6(t2), atol=1e-13)


def test_Ad6_conjugation():
    for _ in range(10):
        t = make_pose(random_rotation(), RNG.standard_normal(3))
        x = RNG.standard_normal(6)
        lhs = hat6(Ad6(t) @ x)
        rhs = t @ hat6(x) @ pose_inverse(t)
        assert_allclose(lhs, rhs, atol=1e-13)


def test_pose_accessors_and_inverse():
    rot = random_rotation()
    trans = np.array([0.4, -2.0, 1.1])
    pose = make_pose(rot, trans)
    assert_allclose(pose[:3, :3], rot)
    assert_allclose(pose[:3, 3], trans)
    assert_allclose(pose @ pose_inverse(pose), np.eye(4), atol=1e-14)
    assert_allclose(pose_inverse(pose) @ pose, np.eye(4), atol=1e-14)


_SHEARED_ROW = np.eye(4)
_SHEARED_ROW[3, 0] = 0.5
_NAN_TRANSLATION = np.eye(4)
_NAN_TRANSLATION[1, 3] = np.nan


@pytest.mark.parametrize("bad, message", [
    (_SHEARED_ROW, "bottom row of pose"),
    (np.diag([2.0, 2.0, 2.0, 1.0]), "pose must be finite and rigid"),
    (np.diag([1.0, 1.0, -1.0, 1.0]), "pose must be finite and rigid"),
    (_NAN_TRANSLATION, "pose must be finite and rigid"),
    (np.eye(3), "pose must be a 4x4 matrix"),
], ids=["bottom-row", "scaled", "reflection", "nan-translation", "3x3"])
def test_pose_inverse_rejects_a_non_rigid_pose(bad, message):
    # unchecked, each of these returned a matrix that is not the inverse
    with pytest.raises(ValueError, match=message):
        pose_inverse(bad)


def test_is_rotation():
    assert is_rotation(np.eye(3))
    assert is_rotation(random_rotation())
    reflection = np.diag([1.0, 1.0, -1.0])
    assert not is_rotation(reflection)
    assert not is_rotation(1.1 * np.eye(3))
    assert not is_rotation(np.full((3, 3), np.nan))


def test_shape_validation():
    with pytest.raises(ValueError):
        hat3([1.0, 2.0])
    with pytest.raises(ValueError):
        vee3(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        hat6([1.0, 2.0, 3.0])

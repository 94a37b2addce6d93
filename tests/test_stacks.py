import numpy as np
import pytest

from slcurv.linalg import (
    SingularMatrixError,
    complement_basis,
    det_inverse,
    determinant,
    frobenius_norm,
    jacobi_eigh,
)
from slcurv.slgroup import (
    fundamental_forms,
    gauss_map,
    gauss_map_preimage,
    random_sl,
    spherical_image_contains,
    sym_skew_decompose,
    weingarten_identity,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SEEDS = st.integers(0, 2**32 - 1)


def extreme_sl(n, k):
    """diag(2^k, 2^-k, 1, ..., 1) in SL(n): for k above about 480 the squares of its
    entries, and of its inverse's, sum past 2^960, off the norm's fast path."""
    return np.diag([2.0**k, 2.0**-k] + [1.0] * (n - 2))


def assert_slices_equal(stacked, single_calls):
    # every slice bitwise equal to the call on that matrix alone
    assert len(stacked) == len(single_calls)
    for got, want in zip(stacked, single_calls):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.integers(2, 8), st.lists(SEEDS, min_size=1, max_size=6))
def test_random_sl_slices_equal_single_seeds(n, seeds):
    a = random_sl(n, seeds)
    assert a.shape == (len(seeds), n, n)
    assert_slices_equal(a, [random_sl(n, s) for s in seeds])


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.integers(2, 8), st.lists(SEEDS, min_size=1, max_size=5), st.integers(0, 1000))
@hypothesis.example(2, [0], 481)
@hypothesis.example(8, [0, 1], 1000)
def test_linear_algebra_slices_equal_single_calls(n, seeds, k):
    # one matrix off the norm's fast range, and one scaled far below it
    a = np.concatenate([random_sl(n, seeds), [extreme_sl(n, k), np.ldexp(random_sl(n, 1), -k)]])
    assert_slices_equal(determinant(a), [determinant(m) for m in a])
    assert_slices_equal(frobenius_norm(a), [frobenius_norm(m) for m in a])
    dets, invs = det_inverse(a)
    singles = [det_inverse(m) for m in a]
    assert_slices_equal(dets, [d for d, _ in singles])
    assert_slices_equal(invs, [inv for _, inv in singles])
    # any number of leading axes
    grid = a.reshape(1, -1, n, n)
    assert determinant(grid).tobytes() == determinant(a).reshape(1, -1).tobytes()
    assert frobenius_norm(grid).tobytes() == frobenius_norm(a).reshape(1, -1).tobytes()


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.integers(2, 8), st.lists(SEEDS, min_size=1, max_size=5), st.integers(0, 1000))
@hypothesis.example(2, [0], 537)
@hypothesis.example(8, [3], 1000)
def test_gauss_maps_slices_equal_single_calls(n, seeds, k):
    a = np.concatenate([random_sl(n, seeds), [extreme_sl(n, k)]])
    images = gauss_map(a)
    assert_slices_equal(images, [gauss_map(m) for m in a])
    assert_slices_equal(gauss_map(a[None]), [images])
    # the extreme image's inverse has entries near 2^2k, which overflow for large k
    u = images[:-1]
    assert_slices_equal(gauss_map_preimage(u), [gauss_map_preimage(m) for m in u])


def test_underflowed_det_preimage_slices_equal_single_calls():
    # a member whose float det underflows to 0.0 among ordinary ones
    u = gauss_map(np.stack([random_sl(3, 4), extreme_sl(3, 400), random_sl(3, 5)]))
    assert determinant(u[1]) == 0.0
    assert_slices_equal(gauss_map_preimage(u), [gauss_map_preimage(m) for m in u])


def test_empty_stack():
    assert random_sl(3, []).shape == (0, 3, 3)
    assert gauss_map(np.empty((0, 3, 3))).shape == (0, 3, 3)
    assert frobenius_norm(np.empty((0, 3, 3))).shape == (0,)


def test_one_matrix_gives_floats():
    a = random_sl(3, 5)
    assert type(determinant(a)) is float
    assert type(det_inverse(a)[0]) is float
    assert type(frobenius_norm(a)) is float
    assert type(determinant(a[None])) is np.ndarray


def good_sl(n=3):
    return random_sl(n, 11)


def good_image(n=3):
    return gauss_map(random_sl(n, 11))


NAN = np.full((3, 3), np.nan)

# (function, a matrix that meets its precondition, a matrix that fails it)
BAD_MEMBERS = {
    "non-unimodular": (gauss_map, good_sl(), 2.0 * np.eye(3)),
    "singular": (det_inverse, good_sl(), np.zeros((3, 3))),
    "singular-gauss-map": (gauss_map, good_sl(), np.ones((3, 3))),
    "non-finite-inverse": (det_inverse, good_sl(), 1e-320 * np.eye(3)),
    "non-finite-determinant": (determinant, good_sl(), NAN),
    "non-finite-det-inverse": (det_inverse, good_sl(), NAN),
    "non-finite-gauss-map": (gauss_map, good_sl(), NAN),
    "non-finite-preimage": (gauss_map_preimage, good_image(), NAN),
    "non-unit-norm": (gauss_map_preimage, good_image(), np.eye(3)),
    "negative-det": (gauss_map_preimage, good_image(), -np.eye(3) / np.sqrt(3.0)),
    "negative-underflowed-det": (gauss_map_preimage, good_image(), -gauss_map(extreme_sl(3, 400))),
}


@pytest.mark.parametrize("fn, good, bad", list(BAD_MEMBERS.values()), ids=list(BAD_MEMBERS))
def test_bad_member_fails_as_alone(fn, good, bad):
    with pytest.raises(ValueError) as alone:
        fn(bad)
    with pytest.raises(ValueError) as stacked:
        fn(np.stack([good, bad, good]))
    assert type(stacked.value) is type(alone.value)
    assert str(stacked.value) == str(alone.value)


def test_first_bad_member_decides():
    # a singular matrix before a non-unimodular one, and the other way round
    singular, doubled = np.zeros((3, 3)), 2.0 * np.eye(3)
    with pytest.raises(SingularMatrixError):
        gauss_map(np.stack([good_sl(), singular, doubled]))
    with pytest.raises(ValueError, match="not 1") as info:
        gauss_map(np.stack([good_sl(), doubled, singular]))
    assert type(info.value) is ValueError


@pytest.mark.parametrize(
    "fn, base",
    [
        pytest.param(jacobi_eigh, np.eye(3), id="jacobi_eigh"),
        pytest.param(complement_basis, np.eye(3)[0], id="complement_basis"),
        pytest.param(weingarten_identity, np.diag([1.0, -1.0, 0.0]), id="weingarten_identity"),
        pytest.param(sym_skew_decompose, np.diag([1.0, -1.0, 0.0]), id="sym_skew_decompose"),
        pytest.param(fundamental_forms, np.diag([1.0, -1.0, 0.0]), id="fundamental_forms"),
        pytest.param(spherical_image_contains, np.eye(3) / np.sqrt(3.0), id="spherical_image_contains"),
    ],
)
def test_one_matrix_functions_reject_stacks(fn, base):
    fn(base)
    with pytest.raises(ValueError):
        fn(np.stack([base, base]))

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dfscreen
from dfscreen.projection import (
    DegenerateDataError,
    Point2D,
    ProjectionError,
    _top_components,
    project_2d,
    project_pca,
    read_points_jsonl,
    write_points_jsonl,
)
from dfscreen.rng import SplitMix64


def assert_unit_sign_canonical(components):
    for col in components.T:
        assert np.isclose(col @ col, 1.0, atol=1e-12)
        assert col[int(np.argmax(np.abs(col)))] > 0


def random_symmetric(n, seed):
    rng = SplitMix64(seed)
    a = np.array([[rng.random() - 0.5 for _ in range(n)] for _ in range(n)])
    return (a + a.T) / 2.0


class TestJacobi:
    """Eigenpairs from `_top_components` on random symmetric matrices.

    The class keeps the name of the rotation solver that PCA used before
    LAPACK's; the checks hold for any symmetric eigensolver.
    """

    @pytest.mark.parametrize("n,seed", [(2, 1), (3, 2), (5, 3), (8, 4), (12, 5)])
    def test_matches_lapack_eigenvalues(self, n, seed):
        a = random_symmetric(n, seed)
        components = _top_components(a, n)
        values = np.diag(components.T @ a @ components)
        expected = sorted(np.linalg.eigvalsh(a), reverse=True)
        assert np.allclose(values, expected, atol=1e-8)

    def test_eigenpairs_satisfy_definition(self):
        a = random_symmetric(6, 99)
        components = _top_components(a, 6)
        for i in range(6):
            v = components[:, i]
            assert np.allclose(a @ v, (v @ a @ v) * v, atol=1e-8)
            assert np.isclose(v @ v, 1.0, atol=1e-10)

    def test_vectors_orthogonal(self):
        a = random_symmetric(7, 123)
        components = _top_components(a, 7)
        gram = components.T @ components
        assert np.allclose(gram, np.eye(7), atol=1e-9)

    def test_diagonal_matrix_unchanged(self):
        d = np.diag([3.0, 1.0, 2.0])
        components = _top_components(d, 3)
        assert np.allclose(np.diag(components.T @ d @ components), [3.0, 2.0, 1.0])
        assert np.allclose(np.abs(components), np.eye(3)[:, [0, 2, 1]], atol=1e-12)

    def test_one_by_one(self):
        components = _top_components(np.array([[4.2]]), 1)
        assert components.shape == (1, 1)
        assert components[0, 0] == 1.0


class TestTopComponents:
    def test_diagonal_matrix_gives_axes_by_value(self):
        components = _top_components(np.diag([3.0, 1.0, 2.0]), 2)
        assert_unit_sign_canonical(components)
        assert np.array_equal(components, np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_repeated_top_eigenvalue(self, seed):
        # Q diag(2, 2, 1, 0.5) Q^T: the top two components may be any
        # orthonormal basis of the value-2 eigenspace, but each must be a
        # unit, sign-canonical eigenvector.
        rng = SplitMix64(seed)
        q, _ = np.linalg.qr(np.array([[rng.random() - 0.5 for _ in range(4)] for _ in range(4)]))
        cov = q @ np.diag([2.0, 2.0, 1.0, 0.5]) @ q.T
        cov = (cov + cov.T) / 2.0
        components = _top_components(cov, 2)
        assert_unit_sign_canonical(components)
        assert np.allclose(cov @ components, 2.0 * components, atol=1e-12)
        assert np.isclose(components[:, 0] @ components[:, 1], 0.0, atol=1e-12)

    def test_isotropic_matrix(self):
        components = _top_components(np.eye(3) * 0.5, 2)
        assert_unit_sign_canonical(components)
        assert np.isclose(components[:, 0] @ components[:, 1], 0.0, atol=1e-12)


class TestProjectPca:
    def test_line_data_lands_on_first_axis(self):
        # Points along y = 2x: all variance in one direction.
        vectors = [np.array([t, 2.0 * t, 0.0]) for t in (-2.0, -1.0, 0.0, 1.0, 2.0)]
        points = project_pca(vectors)
        ys = [p.y for p in points]
        assert max(abs(y) for y in ys) < 1e-8
        xs = [p.x for p in points]
        assert len(set(round(x, 6) for x in xs)) == 5

    def test_variance_ordering(self):
        rng = SplitMix64(17)
        vectors = [
            np.array([rng.random() * 10, rng.random(), rng.random() * 3])
            for _ in range(40)
        ]
        points = project_pca(vectors)
        var_x = np.var([p.x for p in points])
        var_y = np.var([p.y for p in points])
        assert var_x >= var_y

    def test_first_component_variance_matches_top_eigenvalue(self):
        rng = SplitMix64(29)
        x = np.array([[rng.random() * 5, rng.random(), rng.random() * 2] for _ in range(50)])
        points = project_pca(list(x))
        centered = x - x.mean(axis=0)
        top = max(np.linalg.eigvalsh(centered.T @ centered / (len(x) - 1)))
        sample_var = np.array([p.x for p in points]).var(ddof=1)
        assert np.isclose(sample_var, top, rtol=1e-8)

    def test_projection_is_centered(self):
        rng = SplitMix64(31)
        vectors = [np.array([rng.random() + 5, rng.random() - 3]) for _ in range(20)]
        points = project_pca(vectors)
        assert abs(np.mean([p.x for p in points])) < 1e-9
        assert abs(np.mean([p.y for p in points])) < 1e-9

    def test_sign_convention_dominant_coordinate_positive(self):
        # Spread along the x axis; the component could come out as +x or
        # -x from the eigensolver, the convention forces +x, so the point
        # at the positive end keeps a positive coordinate.
        vectors = [np.array([t, 0.01 * t * t]) for t in (-3.0, -1.0, 0.0, 1.0, 3.0)]
        points = project_pca(vectors)
        assert points[-1].x > 0

    def test_tied_eigenvalues_fall_back_to_axis_order(self):
        # Perfectly isotropic cross: covariance is a multiple of the
        # identity, so components must be the original axes in order.
        vectors = [
            np.array([1.0, 0.0]),
            np.array([-1.0, 0.0]),
            np.array([0.0, 1.0]),
            np.array([0.0, -1.0]),
        ]
        points = project_pca(vectors)
        assert points[0] == Point2D(1.0, 0.0)
        assert points[2] == Point2D(0.0, 1.0)

    def test_deterministic(self):
        rng = SplitMix64(37)
        vectors = [np.array([rng.random() for _ in range(6)]) for _ in range(25)]
        a = project_pca(vectors)
        b = project_pca([v.copy() for v in vectors])
        assert a == b

    @pytest.mark.parametrize("seed", [41, 43, 47])
    def test_spans_the_svd_subspace(self, seed):
        rng = SplitMix64(seed)
        scales = [7.0, 4.0, 2.0, 1.0, 0.5]
        x = np.array([[rng.random() * s for s in scales] for _ in range(60)])
        points = project_pca(list(x))
        projected = np.array([[p.x, p.y] for p in points])
        u, _, _ = np.linalg.svd(x - x.mean(axis=0), full_matrices=False)
        basis, _ = np.linalg.qr(projected)
        assert np.allclose(basis @ basis.T, u[:, :2] @ u[:, :2].T, atol=1e-10)

    def test_too_few_vectors(self):
        with pytest.raises(DegenerateDataError, match="degenerate data"):
            project_pca([np.array([1.0, 2.0]), np.array([3.0, 4.0])])

    def test_identical_vectors(self):
        with pytest.raises(DegenerateDataError, match="degenerate data"):
            project_pca([np.array([1.0, 2.0])] * 5)


class TestProject2d:
    def test_pca_dispatch(self):
        ids = ["a", "b", "c", "d"]
        vectors = [np.array([float(i), float(i % 2), 0.5]) for i in range(4)]
        out = project_2d(ids, vectors, method="pca")
        assert set(out) == set(ids)
        assert all(isinstance(p, Point2D) for p in out.values())

    def test_import_dispatch(self, tmp_path):
        path = str(tmp_path / "pts.jsonl")
        write_points_jsonl({"a": Point2D(1.5, -2.5), "b": Point2D(0.0, 3.0)}, path)
        out = project_2d(["a", "b"], method="import", import_path=path)
        assert out["a"] == Point2D(1.5, -2.5)

    def test_import_missing_id(self, tmp_path):
        path = str(tmp_path / "pts.jsonl")
        write_points_jsonl({"a": Point2D(0.0, 0.0)}, path)
        with pytest.raises(ProjectionError, match="'b'"):
            project_2d(["a", "b"], method="import", import_path=path)

    def test_unknown_method(self):
        with pytest.raises(ProjectionError, match="unknown projection method"):
            project_2d(["a"], [np.zeros(2)], method="umap")

    def test_length_mismatch(self):
        with pytest.raises(ProjectionError, match="mismatch"):
            project_2d(["a", "b"], [np.zeros(2)], method="pca")


@given(
    st.lists(
        st.tuples(
            st.floats(-1e6, 1e6, allow_nan=False),
            st.floats(-1e6, 1e6, allow_nan=False),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_points_file_round_trip(tmp_path_factory, coords):
    points = {f"id{i}": Point2D(x, y) for i, (x, y) in enumerate(coords)}
    path = str(tmp_path_factory.mktemp("pts") / "points.jsonl")
    write_points_jsonl(points, path)
    assert read_points_jsonl(path) == points


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
    reason="needs /proc/self/task and at least two cores",
)
@pytest.mark.parametrize("caller_value, one_thread", [(None, True), ("2", False)])
def test_blas_runs_on_one_thread_unless_the_caller_says_otherwise(
    caller_value, one_thread
):
    code = (
        "import os\n"
        "import dfscreen\n"
        "import numpy as np\n"
        "a = np.arange(3000 * 64, dtype=float).reshape(3000, 64)\n"
        "a.T @ a\n"
        "print(len(os.listdir('/proc/self/task')))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(dfscreen.__file__))
    if caller_value is not None:
        env["OPENBLAS_NUM_THREADS"] = caller_value
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    threads = int(proc.stdout)
    assert (threads == 1) if one_thread else (threads > 1)

"""Reduction of embedding vectors to two dimensions.

The default route is exact PCA: covariance with the 1/(n-1) divisor,
LAPACK symmetric eigendecomposition (``numpy.linalg.eigh``), top two
components, each with its largest-magnitude coordinate made positive.
The same input bytes give the same projected coordinates on the same
machine with the same numpy/BLAS/LAPACK; another BLAS or LAPACK may move
the coordinates in their last bits.
An import route loads coordinates computed elsewhere (e.g. UMAP run in a
notebook) from JSONL.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .jsonl import check_unique, read_jsonl, write_jsonl

if TYPE_CHECKING:
    import numpy as np


class ProjectionError(ValueError):
    pass


class DegenerateDataError(ProjectionError):
    """Raised when the input has no usable spread to project."""


class Point2D(NamedTuple):
    x: float
    y: float


def _top_components(cov: np.ndarray, count: int) -> np.ndarray:
    import numpy as np
    values, vectors = np.linalg.eigh(cov)
    # Largest eigenvalue first. Exact ties keep eigh's column order,
    # which is fixed for a given LAPACK build.
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    chosen = []
    for idx in order[:count]:
        vec = vectors[:, idx].copy()
        pivot = int(np.argmax(np.abs(vec)))
        if vec[pivot] < 0:
            vec = -vec
        chosen.append(vec)
    return np.column_stack(chosen)


def project_pca(vectors: np.ndarray | list[np.ndarray]) -> list[Point2D]:
    """Exact 2-D PCA of the given vectors (rows of an array), in input order."""
    import numpy as np
    if len(vectors) < 3:
        raise DegenerateDataError(
            f"degenerate data: need at least 3 vectors, got {len(vectors)}"
        )
    x = np.asarray(vectors, dtype=np.float64)
    centered = x - x.mean(axis=0)
    if not np.any(np.abs(centered) > 0):
        raise DegenerateDataError("degenerate data: all vectors identical")
    cov = centered.T @ centered / (x.shape[0] - 1)
    components = _top_components(cov, 2)
    projected = centered @ components
    return [Point2D(px, py) for px, py in projected.tolist()]


def project_2d(
    ids: list[str],
    vectors: np.ndarray | list[np.ndarray] | None = None,
    method: str = "pca",
    import_path: str | None = None,
) -> dict[str, Point2D]:
    """Map record ids to 2-D points, either by PCA or from a file."""
    if method == "pca":
        if vectors is None:
            raise ProjectionError("pca method needs vectors")
        if len(ids) != len(vectors):
            raise ProjectionError("ids and vectors length mismatch")
        points = project_pca(vectors)
        return dict(zip(ids, points))
    if method == "import":
        if import_path is None:
            raise ProjectionError("import method needs import_path")
        table = read_points_jsonl(import_path)
        missing = [rid for rid in ids if rid not in table]
        if missing:
            raise ProjectionError(
                f"no imported point for {len(missing)} record(s), "
                f"first missing: {missing[0]!r}"
            )
        return {rid: table[rid] for rid in ids}
    raise ProjectionError(f"unknown projection method {method!r}")


def write_points_jsonl(points: dict[str, Point2D], path: str) -> None:
    write_jsonl(path, ({"id": rid, "x": points[rid].x, "y": points[rid].y}
                       for rid in sorted(points)))


def read_points_jsonl(path: str, text: str | None = None) -> dict[str, Point2D]:
    """The points file at ``path``, parsed from ``text`` if given."""
    rows = read_jsonl(
        path, lambda row: (str(row["id"]), Point2D(float(row["x"]), float(row["y"]))),
        ProjectionError, "bad point row", text,
    )
    check_unique(path, (rid for rid, _ in rows), ProjectionError, "record id")
    return dict(rows)

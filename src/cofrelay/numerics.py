"""Dense complex linear algebra for small Hermitian systems.

Everything here operates on plain numpy arrays: vectors are 1-D complex
arrays, Hermitian matrices are square 2-D complex arrays constructed to be
conjugate-symmetric. Sizes are tiny (N <= 16), so all paths are dense.
"""

import numpy as np

from .errors import DimensionError, SolverFailureError


def hermitian(entries) -> np.ndarray:
    """Return a Hermitian matrix built from ``entries`` by symmetrizing.

    The (j, k) and conjugated (k, j) entries are averaged so the result is
    conjugate-symmetric exactly, not merely within round-off.
    """
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return 0.5 * (m + m.conj().T)


def is_hermitian(m: np.ndarray, atol: float = 1e-9) -> bool:
    m = np.asarray(m)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and np.allclose(m, m.conj().T, atol=atol)


def outer(v: np.ndarray) -> np.ndarray:
    """Rank-one Hermitian matrix v v^H."""
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


def eig_hermitian(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues real and sorted
    descending and eigenvectors as columns, unit norm and pairwise
    orthogonal. Each eigenvector's global phase is fixed so that its
    largest-magnitude entry is real non-negative, which makes the output a
    deterministic function of the input.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise SolverFailureError("eigendecomposition of a non-finite matrix")
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise SolverFailureError(f"eigendecomposition did not converge: {exc}") from exc
    # eigh returns ascending order; flip to descending (first occurrence wins ties).
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    for k in range(vecs.shape[1]):
        j = int(np.argmax(np.abs(vecs[:, k])))
        pivot = vecs[j, k]
        if abs(pivot) > 0:
            vecs[:, k] *= pivot.conj() / abs(pivot)
            vecs[j, k] = abs(vecs[j, k])  # kill residual imaginary round-off
    return vals, vecs


def trace_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Tr(A B) for Hermitian A, B of equal dimension; the result is real.

    An imaginary residue up to 1e-12 (relative) is discarded; anything larger
    indicates non-Hermitian inputs and raises.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"incompatible shapes {a.shape} and {b.shape}")
    t = np.sum(a * b.T)
    scale = max(1.0, abs(t))
    if abs(t.imag) > 1e-9 * scale:
        raise DimensionError("trace inner product has a non-negligible imaginary part; "
                             "inputs are not Hermitian")
    return float(t.real)


def real_embed(m) -> np.ndarray:
    """Real symmetric 2N x 2N embedding [[Re M, -Im M], [Im M, Re M]].

    The embedding carries each eigenvalue of the Hermitian input with
    multiplicity two, so PSD-ness and trace inner products (up to a factor
    of two) transfer to the real side.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    re, im = m.real, m.imag
    return np.block([[re, -im], [im, re]])


def complex_from_embedding(y: np.ndarray) -> np.ndarray:
    """Inverse of :func:`real_embed` composed with the symmetrizing projection.

    For an arbitrary real symmetric 2N x 2N matrix Y this returns the
    Hermitian N x N matrix whose embedding is the projection of Y onto the
    embedding subspace. Projection preserves PSD-ness and all trace inner
    products against embedded Hermitian matrices.
    """
    y = np.asarray(y, dtype=float)
    n2 = y.shape[0]
    if y.ndim != 2 or y.shape[0] != y.shape[1] or n2 % 2 != 0:
        raise DimensionError(f"expected an even-dimension square matrix, got shape {y.shape}")
    n = n2 // 2
    re = 0.5 * (y[:n, :n] + y[n:, n:])
    im = 0.5 * (y[n:, :n] - y[:n, n:])
    return hermitian(re + 1j * im)

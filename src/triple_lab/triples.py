"""Finite-dimensional triple systems and their operator calculus.

One model, the p-by-q complex matrices with

  {x, y, z} = (x y* z + z y* x)/2,   norm = largest singular value,

carries every ball the laboratory works on. Two shapes have their own
names: disc() is the 1-by-1 case, where {x, y, z} = x conj(y) z and the norm
is the modulus, and hilbert(n) is the n-by-1 case, where
{x, y, z} = ((x|y) z + (z|y) x)/2 and the norm is euclidean, with (x|y)
linear in x and conjugate-linear in y. A single row or column has one
non-zero singular value, so its triple norm is the euclidean norm of its
coordinates.

Elements are flat coordinate vectors in the canonical basis: matrix units,
row-major. Under that ordering vec(A Z B) = (A kron B^T) vec(Z), which
gives every operator below in closed form.

The box operator x [] y = {x, y, .} is linear and is represented by its
matrix in the canonical basis. The quadratic operator Q_x = {x, ., x} is
conjugate-linear; it is stored as the matrix of its linear part, to be
applied to conjugated coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UsageError
from .linalg import CMatrix, spectrum
from .sampling import SamplingBudget, gaussian_complex, stream


@dataclass(frozen=True)
class TripleModel:
    """The p-by-q complex matrices; disc() is (1, 1) and hilbert(n) is (n, 1)."""

    p: int
    q: int

    def __post_init__(self):
        for n in (self.p, self.q):
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
                raise UsageError(f"model dimensions must be integers, got {n!r}")
        p, q = int(self.p), int(self.q)
        if p < 1 or q < 1:
            raise UsageError(f"model dimensions must be >= 1, got ({p}, {q})")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.p, self.q)

    @property
    def coord_dim(self) -> int:
        return self.p * self.q

    @property
    def norm_kind(self) -> str:
        # a single row or column has one singular value, its euclidean norm
        return "euclidean" if min(self.p, self.q) == 1 else "spectral"

    def descriptor(self) -> str:
        if self.q == 1:
            return "disc" if self.p == 1 else f"hilbert:{self.p}"
        return f"matrix:{self.p}x{self.q}"

    def __str__(self):
        return self.descriptor()


def disc() -> TripleModel:
    return TripleModel(1, 1)


def hilbert(n: int) -> TripleModel:
    return TripleModel(n, 1)


def matrix(p: int, q: int) -> TripleModel:
    return TripleModel(p, q)


def parse_model(text: str) -> TripleModel:
    """Parse a model descriptor: "disc", "hilbert:N", "matrix:PxQ"."""
    t = text.strip().lower()
    if t == "disc":
        return disc()
    if t.startswith("hilbert:"):
        try:
            return hilbert(int(t.split(":", 1)[1]))
        except ValueError:
            raise UsageError(f"bad hilbert descriptor {text!r}, expected hilbert:N")
    if t.startswith("matrix:"):
        parts = t.split(":", 1)[1].split("x")
        if len(parts) == 2:
            try:
                return matrix(int(parts[0]), int(parts[1]))
            except ValueError:
                pass
        raise UsageError(f"bad matrix descriptor {text!r}, expected matrix:PxQ")
    raise UsageError(f"unknown model descriptor {text!r}")


@dataclass(frozen=True, eq=False)
class TripleElement:
    """An element of a model, as coordinates in the canonical basis."""

    model: TripleModel
    coords: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=np.complex128)
        if c.shape != (self.model.coord_dim,):
            raise UsageError(
                f"coords shape {c.shape} does not match model {self.model} "
                f"(expected ({self.model.coord_dim},))"
            )
        if not np.all(np.isfinite(c)):
            raise UsageError("coordinates must be finite")
        c = np.ascontiguousarray(c)
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    def as_matrix(self) -> np.ndarray:
        """The coordinates reshaped to the model's (p, q)."""
        return self.coords.reshape(self.model.shape)

    def __neg__(self) -> "TripleElement":
        return TripleElement(self.model, -self.coords)

    def __add__(self, other: "TripleElement") -> "TripleElement":
        if not isinstance(other, TripleElement) or other.model != self.model:
            return NotImplemented
        return TripleElement(self.model, self.coords + other.coords)

    def __sub__(self, other: "TripleElement") -> "TripleElement":
        if not isinstance(other, TripleElement) or other.model != self.model:
            return NotImplemented
        return TripleElement(self.model, self.coords - other.coords)

    def __repr__(self):
        return f"TripleElement({self.model}, norm={triple_norm(self):.6g})"


def element(model: TripleModel, coords) -> TripleElement:
    return TripleElement(model, np.asarray(coords, dtype=np.complex128).reshape(-1))


def zero(model: TripleModel) -> TripleElement:
    return TripleElement(model, np.zeros(model.coord_dim, dtype=np.complex128))


def basis_element(model: TripleModel, i: int) -> TripleElement:
    if not 0 <= i < model.coord_dim:
        raise UsageError(f"basis index {i} out of range for {model}")
    c = np.zeros(model.coord_dim, dtype=np.complex128)
    c[i] = 1.0
    return TripleElement(model, c)


def _require_same_model(*xs: TripleElement) -> TripleModel:
    m = xs[0].model
    for x in xs[1:]:
        if x.model != m:
            raise UsageError(f"model mismatch: {x.model} vs {m}")
    return m


def triple_product(x: TripleElement, y: TripleElement, z: TripleElement) -> TripleElement:
    """{x, y, z}: linear and symmetric in x, z; conjugate-linear in y."""
    m = _require_same_model(x, y, z)
    xm, ym, zm = x.as_matrix(), y.as_matrix(), z.as_matrix()
    ystar = ym.conj().T
    out = 0.5 * (xm @ ystar @ zm + zm @ ystar @ xm)
    return TripleElement(m, out.reshape(-1))


def triple_norm(x: TripleElement) -> float:
    """Largest singular value; the coordinates' euclidean norm on a row or column."""
    if x.model.norm_kind == "euclidean":
        return float(np.linalg.norm(x.coords))
    return float(np.linalg.norm(x.as_matrix(), 2))


def triple_norm_batch(model: TripleModel, coords: np.ndarray) -> np.ndarray:
    """Vectorized triple_norm over rows of an (n, coord_dim) array."""
    coords = np.asarray(coords, dtype=np.complex128)
    if model.norm_kind == "euclidean":
        return np.linalg.norm(coords, axis=1)
    return np.linalg.svd(coords.reshape(-1, *model.shape), compute_uv=False)[:, 0]


def box_rep(x: TripleElement, y: TripleElement) -> CMatrix:
    """Matrix of the linear operator z -> {x, y, z} in the canonical basis."""
    m = _require_same_model(x, y)
    return CMatrix.from_array(box_rep_batch(m, x.coords[None], y)[0])


def box_rep_batch(model: TripleModel, xs: np.ndarray, y: TripleElement) -> np.ndarray:
    """Box matrices for many left arguments at once.

    Returns an (n, d, d) array whose k-th slab is box_rep(xs[k], y):
    2 x [] y = (X Y* kron I) + (I kron (Y* X)^T) in row-major coordinates.
    """
    p, q = model.shape
    xm = np.asarray(xs, dtype=np.complex128).reshape(-1, p, q)
    yh = 0.5 * y.as_matrix().conj()
    out = np.zeros((len(xm), p, q, p, q), dtype=np.complex128)
    # writable diagonal views: out[n, i, j, k, j] and out[n, i, j, i, l]
    np.einsum("nijkj->nijk", out)[...] = np.einsum("nij,kj->nik", xm, yh)[:, :, None, :]
    np.einsum("nijil->nijl", out)[...] += np.einsum("nkj,kl->njl", xm, yh)[:, None]
    return out.reshape(-1, p * q, p * q)


@dataclass(frozen=True, eq=False)
class AntilinearRep:
    """Conjugate-linear operator stored as (matrix of linear part) o conj."""

    matrix: CMatrix

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix.entries @ np.conj(np.asarray(v, dtype=np.complex128))


def quadratic_rep(x: TripleElement) -> AntilinearRep:
    """Q_x: z -> {x, z, x}, conjugate-linear.

    {x, z, x} = X Z* X, whose (i, l) entry is sum_kj X_ij conj(Z_kj) X_kl, so
    the stored matrix has entry X_ij X_kl at row (i, l) and column (k, j).
    """
    xm = x.as_matrix()
    d = x.model.coord_dim
    return AntilinearRep(CMatrix.from_array(np.einsum("ij,kl->ilkj", xm, xm).reshape(d, d)))


def _kron_rep(left: np.ndarray, right: np.ndarray) -> CMatrix:
    """Matrix of Z -> left Z right: left kron right^T, without np.kron's overhead."""
    d = len(left) * len(right)
    return CMatrix.from_array(np.einsum("ik,lj->ijkl", left, right).reshape(d, d))


def _defect_powers(a: TripleElement, t: float) -> tuple[np.ndarray, np.ndarray]:
    """((I - A A*)^t, (I - A* A)^t) from one SVD of A; requires ||a|| < 1."""
    u, s, vh = np.linalg.svd(a.as_matrix())
    if s[0] >= 1.0:
        raise DomainError(f"Bergman operators need ||a|| < 1, got {s[0]:.6g}")
    f = np.ones(max(a.model.shape))
    f[: len(s)] = ((1.0 - s) * (1.0 + s)) ** t  # 1 - s^2, accurate as s -> 1
    return (u * f[: len(u)]) @ u.conj().T, (vh.conj().T * f[: len(vh)]) @ vh


def bergman_rep(x: TripleElement, y: TripleElement) -> CMatrix:
    """B(x, y) = id - 2 x [] y + Q_x Q_y as a plain (linear) matrix.

    B(x, y) z = (I - X Y*) Z (I - Y* X), so its matrix is
    (I - X Y*) kron (I - Y* X)^T.
    """
    m = _require_same_model(x, y)
    xm = x.as_matrix()
    ystar = y.as_matrix().conj().T
    return _kron_rep(np.eye(m.p) - xm @ ystar, np.eye(m.q) - ystar @ xm)


def bergman_sqrt(a: TripleElement) -> CMatrix:
    """B_a = B(a, a)^(1/2): Z -> (I - A A*)^(1/2) Z (I - A* A)^(1/2); needs ||a|| < 1."""
    return _kron_rep(*_defect_powers(a, 0.5))


def sample_coords(
    model: TripleModel, n: int, rng: np.random.Generator, norms=None
) -> np.ndarray:
    """(n, coord_dim) Gaussian coordinates, rows rescaled to given triple norms.

    norms may be a scalar, an (n,) array, or None to keep the raw draws.
    """
    xs = gaussian_complex(rng, (n, model.coord_dim))
    if norms is None:
        return xs
    target = np.broadcast_to(np.asarray(norms, dtype=np.float64), (n,))
    cur = triple_norm_batch(model, xs)
    cur = np.maximum(cur, 1e-300)
    return xs * (target / cur)[:, None]


def sample_element(model: TripleModel, rng: np.random.Generator, norm=None) -> TripleElement:
    return TripleElement(model, sample_coords(model, 1, rng, norm if norm is None else [norm])[0])


@dataclass(frozen=True, eq=False)
class OperatorNormEstimate:
    """Operator norm of a matrix acting on a model, in the triple norm.

    certified=True means exact (SVD on a euclidean-norm model). On the
    spectral-norm model the value is a sampled-plus-ascent lower bound and
    certified=False; witness attains the reported value.
    """

    estimate: float
    witness: TripleElement
    certified: bool
    samples_used: int


def op_norm_triple(
    op: CMatrix, model: TripleModel, budget: SamplingBudget | None = None
) -> OperatorNormEstimate:
    """sup ||op x|| / ||x|| over the model's triple norm."""
    if op.shape != (model.coord_dim, model.coord_dim):
        raise UsageError(f"operator shape {op.shape} does not match {model}")
    if model.norm_kind == "euclidean":
        # triple norm is euclidean on coordinates, so the sup is the largest
        # singular value and the top right singular vector attains it
        u, s, vh = np.linalg.svd(op.entries)
        witness = TripleElement(model, vh[0].conj())
        return OperatorNormEstimate(float(s[0]), witness, True, 0)

    budget = budget or SamplingBudget()
    rng = stream(budget.seed, 0x0B)
    xs = sample_coords(model, budget.samples, rng, 1.0)
    vals = triple_norm_batch(model, xs @ op.entries.T)
    k = int(np.argmax(vals))
    best_x, best = xs[k], float(vals[k])
    eta = 0.5
    for _ in range(budget.ascent_steps):
        d = gaussian_complex(rng, (budget.probes, model.coord_dim))
        cand = best_x[None, :] + eta * d
        cn = triple_norm_batch(model, cand)
        cand = cand / np.maximum(cn, 1e-300)[:, None]
        cv = triple_norm_batch(model, cand @ op.entries.T)
        j = int(np.argmax(cv))
        if float(cv[j]) > best:
            best, best_x = float(cv[j]), cand[j]
            eta = min(eta * 1.25, 1.0)
        else:
            eta = max(eta * 0.6, 1e-7)
    return OperatorNormEstimate(best, TripleElement(model, best_x), False, budget.samples)


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    worst_residual: float
    worst_trial: int
    threshold: float


@dataclass(frozen=True)
class AxiomReport:
    model_descriptor: str
    trials: int
    seed: int
    tol: float
    checks: tuple[AxiomCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def axiom_suite(
    model: TripleModel,
    trials: int = 1000,
    seed: int = 0,
    tol: float = 1e-10,
    opnorm_budget: SamplingBudget | None = None,
    opnorm_every: int = 16,
) -> AxiomReport:
    """Randomized verification of the algebraic structure.

    Per trial (unit-norm elements, so absolute residuals are relative):
      outer symmetry and linearity of the product, conjugate-linearity in
      the middle slot, the five-variable Jordan identity, reality and
      non-negativity of spec(x [] x), and the cube identity
      ||{x,x,x}|| = ||x||^3.

    The operator-norm axiom ||x [] x|| = ||x||^2 runs on every
    `opnorm_every`-th trial: it is exact on euclidean-norm models and a
    statistical lower bound on the spectral-norm model, where only the
    upper violation (estimate above ||x||^2) is held to `tol` and the
    lower gap gets a loose sanity threshold.
    """
    if trials < 1:
        raise UsageError("trials must be >= 1")
    names = [
        "outer-symmetry",
        "outer-linearity",
        "middle-conjugate-linearity",
        "jordan-identity",
        "box-spectrum-real-nonnegative",
        "cube-norm",
        "opnorm-square-upper",
        "opnorm-square-lower",
    ]
    worst = {n: (0.0, -1) for n in names}
    ob = opnorm_budget or SamplingBudget(samples=128, ascent_steps=16, probes=8, seed=seed)

    for t in range(trials):
        rng = stream(seed, 1, t)
        xs = sample_coords(model, 6, rng, 1.0)
        x, y, z, a, b, w = (TripleElement(model, c) for c in xs)
        lam = complex(*rng.normal(size=2))
        mu = complex(*rng.normal(size=2))

        def note(name, r):
            if r > worst[name][0]:
                worst[name] = (float(r), t)

        # {x,y,z} = {z,y,x}
        p_xyz = triple_product(x, y, z)
        p_zyx = triple_product(z, y, x)
        note("outer-symmetry", float(np.linalg.norm(p_xyz.coords - p_zyx.coords)))

        # additivity and homogeneity in the outer slot
        lhs = triple_product(element(model, lam * x.coords + mu * w.coords), y, z)
        rhs = lam * p_xyz.coords + mu * triple_product(w, y, z).coords
        note("outer-linearity", float(np.linalg.norm(lhs.coords - rhs)))

        # conjugate homogeneity in the middle slot
        lhs2 = triple_product(x, element(model, lam * y.coords), z)
        note(
            "middle-conjugate-linearity",
            float(np.linalg.norm(lhs2.coords - np.conj(lam) * p_xyz.coords)),
        )

        # {a,b,{x,y,z}} = {{a,b,x},y,z} - {x,{b,a,y},z} + {x,y,{a,b,z}}
        jl = triple_product(a, b, p_xyz)
        jr = (
            triple_product(triple_product(a, b, x), y, z).coords
            - triple_product(x, triple_product(b, a, y), z).coords
            + triple_product(x, y, triple_product(a, b, z)).coords
        )
        note("jordan-identity", float(np.linalg.norm(jl.coords - jr)))

        # spec(x [] x) must be real and >= 0
        sp = spectrum(box_rep(x, x), tol=1e-6)
        ev = sp.eigenvalues
        note("box-spectrum-real-nonnegative", max(float(np.max(np.abs(ev.imag))), float(max(0.0, -np.min(ev.real)))))

        # ||{x,x,x}|| = ||x||^3 with ||x|| = 1
        note("cube-norm", abs(triple_norm(triple_product(x, x, x)) - 1.0))

        if t % max(1, opnorm_every) == 0:
            est = op_norm_triple(box_rep(x, x), model, ob)
            note("opnorm-square-upper", max(0.0, est.estimate - 1.0))
            note("opnorm-square-lower", max(0.0, 1.0 - est.estimate))

    thresholds = {n: tol for n in names}
    thresholds["opnorm-square-lower"] = tol if model.norm_kind != "spectral" else 0.05
    checks = tuple(
        AxiomCheck(n, worst[n][0] <= thresholds[n], worst[n][0], worst[n][1], thresholds[n])
        for n in names
    )
    return AxiomReport(model.descriptor(), trials, seed, tol, checks)

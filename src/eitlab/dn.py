"""Dirichlet-to-Neumann operators for the model surface families.

Three backends: the analytic unit disk (diagonal Fourier symbol), simply
connected planar domains given by a polynomial conformal map of the disk,
and triangulated surfaces with one boundary circle (quadratic Lagrange
stiffness + Schur complement).  The last two assemble the same object,
the Dirichlet form on the arclength Fourier modes,
b_jk = <Lambda e_k, e_j> / L: the conformal backend pulls the modes back
to the disk, where the Dirichlet integral is the same, and forms it as one
real Gram of their cosine and sine parts there; the FEM backend contracts
the Schur complement with them; it reads that complement off the trailing
block of one sparse factorization of the stiffness matrix, boundary
ordered last and the interior ordered from its vertex graph.  b is the
operator for both: BoundaryOperator's constructor projects it to a real one.
All three backends return a BoundaryOperator.

All perturbed domains can be rescaled to perimeter 2*pi so that boundary
points of different surfaces are identified by arclength from the image of
theta = 0; the DN operator scales inversely with the length under such a
rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph
from scipy.spatial import Delaunay

from . import boundary as bc
from .boundary import BoundaryOperator
from .errors import (
    InterpolationUnderresolved,
    NonManifoldMesh,
    SingularInterior,
    UnivalenceViolated,
)

__all__ = [
    "dn_disk",
    "ConformalDomain",
    "dn_conformal",
    "TriMesh",
    "unit_disk_mesh",
    "make_one_holed_torus_mesh",
    "dn_fem",
    "load_off",
]

_TAIL_TOL = 1e-8        # dn_conformal: spectrum energy allowed past half the band,
                        # on 4N nodes and, where that fails, on 8N
_HOLE_RADIUS = 0.25     # make_one_holed_torus_mesh: radius of the hole circle
_TORUS_MIN_RESOLUTION = 8  # make_one_holed_torus_mesh: fewest radial bands


def dn_disk(n_modes: int, length: float = 2.0 * np.pi) -> BoundaryOperator:
    """DN map of the disk of perimeter `length`: symbol |n| * (2 pi / length)."""
    sym = np.abs(bc.mode_numbers(n_modes)) * (2.0 * np.pi / length)
    return bc.operator_from_symbol(sym, length)


@dataclass(frozen=True)
class ConformalDomain:
    """Image of the unit disk under z -> z + sum_k a_k z^k, k >= 2."""

    coeffs: tuple

    def __post_init__(self):
        a = tuple(complex(v) for v in self.coeffs)
        object.__setattr__(self, "coeffs", a)
        for i, v in enumerate(a):
            if not np.isfinite(v):
                raise ValueError(f"coefficient a_{i + 2} = {v} is not finite")
        k = np.arange(2, 2 + len(a))
        if len(a) and np.sum(k * np.abs(np.asarray(a))) >= 1.0:
            raise UnivalenceViolated(
                f"sum k|a_k| = {np.sum(k * np.abs(np.asarray(a))):.3f} >= 1")

    def map_derivative(self, theta: np.ndarray) -> np.ndarray:
        """Phi'(e^{i theta})."""
        z = np.exp(1j * np.asarray(theta))
        d = np.ones_like(z)
        for i, a in enumerate(self.coeffs):
            d = d + (i + 2) * a * z ** (i + 1)
        return d


def dn_conformal(domain: ConformalDomain, n_modes: int) -> BoundaryOperator:
    """DN map of the conformal image of the disk, scaled to perimeter 2 pi.

    The operator acts on N arclength nodes.  The Dirichlet integral is
    conformally invariant, so the Galerkin block of the arclength Fourier
    modes e_k is b = <Lambda_D E_k, E_j> / L with E_k = e_k(s(theta)) on
    the disk.  E_k = C_|k| + i sgn(k) S_|k| with the real C_k = cos(k u),
    S_k = sin(k u), u = 2 pi s / L, so only the N/2 + 1 non-negative modes
    are sampled, on 4N theta nodes, or on 8N when the 4N spectra fail their
    tail check (_gram_factor).  w^T w of the real Gram factor w is the
    Dirichlet form d on the C's and S's, and w is freed before b is
    gathered from d.  The correspondence enters only through u(theta); no
    theta(s) is read off the samples.  Raises InterpolationUnderresolved
    when on 8N nodes too the E_k spectra hold more than _TAIL_TOL = 1e-8 of
    their energy past half the band the nodes resolve, |p| >= 2N.
    """
    n = n_modes
    for fine in (4 * n, 8 * n):
        w, tail = _gram_factor(domain, n, fine)
        if tail <= _TAIL_TOL * n:
            break
        del w  # else alive beside the 8N factor
    else:
        raise InterpolationUnderresolved(
            f"boundary correspondence spectrum tail {tail / n:.2e} exceeds "
            f"{_TAIL_TOL:.1e}; increase N")

    # d = sum_p c_p |p| Re(conj(f_p) g_p) over the real and imaginary rows:
    # a syrk, so d is exactly symmetric and the gathered b exactly Hermitian.
    # w goes before the gather, which would otherwise hold it beside b
    d = w.T @ w
    del w
    # b_jk = d(C_j, C_k) + sg_j sg_k d(S_j, S_k)
    #        + i (sg_k d(C_j, S_k) - sg_j d(S_j, C_k)),  sg = sgn of the mode
    half = n // 2 + 1
    ms = bc.mode_numbers(n)
    ak, sg = np.abs(ms).astype(int), np.sign(ms)
    cs = sg * d[np.ix_(ak, half + ak)]
    b = (d[np.ix_(ak, ak)] + np.outer(sg, sg) * d[np.ix_(half + ak, half + ak)]
         + 1j * (cs - cs.T))
    return bc.BoundaryOperator(b, 2.0 * np.pi)


def _gram_factor(domain: ConformalDomain, n: int,
                 fine: int) -> tuple[np.ndarray, float]:
    """dn_conformal's real Gram factor w on `fine` theta nodes, and its tail.

    The tail is the E_k spectra's energy at |p| >= fine / 4, half the band
    the nodes resolve, summed over the N modes.  The modes are sampled a
    block at a time, at most _EVAL_BLOCK samples, one mode per row, in the
    order the real FFTs read them, and each block's disk spectra are written
    straight into the columns of w; no whole table of samples is held.
    """
    theta_f = np.arange(fine) * (2.0 * np.pi / fine)
    speed_f = np.abs(domain.map_derivative(theta_f))
    mean_speed = float(np.mean(speed_f))

    # periodic part of int_0^theta |Phi'|, vanishing at theta = 0.  The mean
    # is removed by construction: what is left of it is rounding, which J
    # discards and whose test would fail once ||speed - mean|| is that small
    dev = bc.from_samples(speed_f - mean_speed, 2.0 * np.pi)
    dev = bc.BoundaryFunction(np.r_[0.0, dev.coeffs[1:]], dev.length)
    per_f = bc.integrate_J(dev).values().real
    per_f = per_f - per_f[0]

    # u(theta): arclength on the image scaled to perimeter 2 pi
    u_f = theta_f + per_f / mean_speed
    half = n // 2 + 1

    # C_k = cos(k u) and S_k = sin(k u) for k = 0 .. N/2, taken to their real
    # spectra at p = 0 .. fine / 2 along the rows.  A real function's
    # spectrum at +-p is counted once from p >= 0: twice, except at p = 0
    # and the Nyquist p = fine / 2; likewise E_k and E_-k have the same tail
    # for 0 < k < N/2, and only E_0 and E_-N/2 stand alone.  Each block's
    # tail is summed, and its spectra, scaled for the Dirichlet form, go to
    # the columns [C_0 .. C_N/2, S_0 .. S_N/2] of w, real parts in the first
    # n_p rows and imaginary parts in the rest
    n_p = fine // 2 + 1
    twice_p, twice_k = _twice_inner(n_p), np.tile(_twice_inner(half), 2)
    scale = np.sqrt(twice_p * np.arange(n_p))
    w = np.empty((2 * n_p, 2 * half))
    tail = 0.0
    step = max(1, bc._EVAL_BLOCK // fine)
    for trig, c0 in ((np.cos, 0), (np.sin, half)):
        for k in range(0, half, step):
            cols = slice(c0 + k, c0 + min(k + step, half))
            tab = np.outer(np.arange(k, min(k + step, half)), u_f)
            trig(tab, out=tab)
            spec = np.fft.rfft(tab, axis=1)
            del tab  # else alive beside the block's tail terms
            spec /= fine
            power = np.abs(spec[:, fine // 4:])
            power *= power
            tail += twice_k[cols] @ power @ twice_p[fine // 4:]
            spec *= scale
            w[:n_p, cols] = spec.real.T
            w[n_p:, cols] = spec.imag.T
            del spec, power  # else alive beside the next block's table
    return w, tail


def _twice_inner(m: int) -> np.ndarray:
    """Weights 1, 2, ..., 2, 1 of length m."""
    c = np.full(m, 2.0)
    c[0] = c[-1] = 1.0
    return c


# ---------------------------------------------------------------------------
# triangulated surfaces


@dataclass
class TriMesh:
    """Triangulated surface with one boundary loop.

    `tri_lengths[f, i]` is the metric length of the edge opposite corner i of
    triangle f; assembling from lengths keeps the discretization purely
    intrinsic (flat-torus and conformally scaled metrics reuse the same code).
    """

    vertices: np.ndarray          # (V, d) reference positions
    triangles: np.ndarray         # (F, 3) vertex indices
    boundary_loop: np.ndarray     # ordered boundary vertex indices
    boundary_arclength: np.ndarray  # arclength position of each loop vertex
    tri_lengths: np.ndarray | None = None

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.triangles = np.asarray(self.triangles, dtype=int)
        self.boundary_loop = np.asarray(self.boundary_loop, dtype=int)
        self.boundary_arclength = np.asarray(self.boundary_arclength, dtype=float)
        if self.perimeter is None:
            la = self.boundary_arclength
            # default: uniform spacing, loop closes with the same gap
            self.perimeter = float(la[-1] + (la[1] - la[0])) if la.size > 1 else 0.0
        if self.tri_lengths is None:
            u, v = _edge_ends(self.triangles)
            self.tri_lengths = np.linalg.norm(self.vertices[u] - self.vertices[v], axis=2)
        self._validate()

    def _validate(self):
        # undirected edges keyed by their sorted vertex pair, lo * nv + hi
        nv = self.n_vertices
        a, b = self.triangles.ravel(), self.triangles[:, [1, 2, 0]].ravel()
        keys, counts = np.unique(np.minimum(a, b) * nv + np.maximum(a, b),
                                 return_counts=True)
        if np.any(counts > 2):
            raise NonManifoldMesh("an edge is shared by more than two triangles")
        loop, succ = self.boundary_loop, np.roll(self.boundary_loop, -1)
        loop_keys = np.unique(np.minimum(loop, succ) * nv + np.maximum(loop, succ))
        if not np.array_equal(keys[counts == 1], loop_keys):
            raise NonManifoldMesh("boundary edges do not form the declared single loop")
        self._n_edges = keys.size

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def euler_characteristic(self) -> int:
        return self.n_vertices - self._n_edges + self.triangles.shape[0]

    perimeter: float | None = None

    def min_angle_deg(self) -> float:
        a, b, c = (np.roll(self.tri_lengths, -i, axis=1) for i in range(3))
        cosang = np.clip((b ** 2 + c ** 2 - a ** 2) / (2 * b * c), -1, 1)
        return float(np.degrees(np.min(np.arccos(cosang))))

    def with_conformal_factor(self, rho: np.ndarray) -> "TriMesh":
        """Metric rho * g realized by scaling edge lengths by sqrt(rho) averaged
        over endpoints."""
        rho = np.asarray(rho, dtype=float)
        if np.any(rho < 1e-6):
            raise ValueError("conformal factor must be >= 1e-6")
        u, v = _edge_ends(self.triangles)
        scaled = self.tri_lengths * np.sqrt(0.5 * (rho[u] + rho[v]))
        return TriMesh(self.vertices, self.triangles, self.boundary_loop,
                       self.boundary_arclength, scaled, self.perimeter)


def _edge_ends(triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """End vertices of the edge opposite each corner, each shaped like triangles."""
    return triangles[:, [1, 2, 0]], triangles[:, [2, 0, 1]]


def unit_disk_mesh(resolution: int) -> TriMesh:
    """Delaunay mesh of the unit disk with 6*resolution boundary vertices."""
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    m = resolution
    pts = [np.zeros((1, 2))]
    for ring in range(1, m + 1):
        k = 6 * ring
        # odd rings turn half a step, but not the boundary ring, so that
        # arclength starts at theta = 0
        ang = 2.0 * np.pi * (np.arange(k) + 0.5 * (ring % 2 if ring < m else 0)) / k
        r = ring / m
        pts.append(np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1))
    p = np.concatenate(pts, axis=0)
    tri = Delaunay(p).simplices
    nb = 6 * m
    boundary = np.arange(p.shape[0] - nb, p.shape[0])
    arc = 2.0 * np.pi * np.arange(nb) / nb  # positions on the unit circle
    return TriMesh(p, tri, boundary, arc)


def make_one_holed_torus_mesh(resolution: int) -> TriMesh:
    """Flat torus [0,1]^2 with a hole of radius 1/4 at (1/2, 1/2); chi = -1.

    Built as radial bands between the hole circle and the square boundary,
    whose opposite edges are then identified.  Geometry (edge lengths) is
    taken from the cut square before identification, so the flat metric is
    exact including across the seam.
    """
    if resolution < _TORUS_MIN_RESOLUTION:
        raise ValueError(f"resolution must be >= {_TORUS_MIN_RESOLUTION}")
    nb = 8 * int(np.ceil(resolution / 2))  # divisible by 8: rays hit the corners
    n_layers = resolution
    ang = 2.0 * np.pi * np.arange(nb) / nb
    center = np.array([0.5, 0.5])
    circ = center + _HOLE_RADIUS * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    # ray exit points on the unit square boundary
    d = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    with np.errstate(divide="ignore"):
        tx = 0.5 / np.abs(d[:, 0])
        ty = 0.5 / np.abs(d[:, 1])
    t_exit = np.minimum(tx, ty)
    square = center + t_exit[:, None] * d

    coords = np.concatenate([(1.0 - tau) * circ + tau * square
                             for tau in np.arange(n_layers + 1) / n_layers])

    # two triangles (a, b, e) and (a, e, c) per band cell, layer by layer
    k = np.arange(nb)
    a = np.arange(n_layers)[:, None] * nb + k
    b = a - k + (k + 1) % nb
    c, e = a + nb, b + nb
    tris = np.stack([np.stack([a, b, e], axis=-1), np.stack([a, e, c], axis=-1)],
                    axis=2).reshape(-1, 3)

    # Laplacian smoothing of the free rings (in the cut square, where the
    # geometry is Euclidean); the hole circle and the square stay fixed.
    n_verts = coords.shape[0]
    u, v = tris.ravel(), tris[:, [1, 2, 0]].ravel()
    rows, cols = np.divmod(np.unique(np.concatenate([u * n_verts + v, v * n_verts + u])),
                           n_verts)
    adj = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n_verts, n_verts))
    deg = np.asarray(adj.sum(axis=1)).ravel()
    free = np.zeros(n_verts, dtype=bool)
    free[nb:n_layers * nb] = True
    for _ in range(30):
        avg = adj @ coords / deg[:, None]
        coords[free] += 0.6 * (avg[free] - coords[free])

    u, v = _edge_ends(tris)
    tri_lengths = np.linalg.norm(coords[u] - coords[v], axis=2)

    # identify square-boundary vertices: (x,0)~(x,1), (0,y)~(1,y), corners -> one.
    # Ray k leaves at angle 2 pi k / nb; with q = nb / 8, r = (k + q) mod 4q
    # is in (0, 2q) on the sides x = 0, 1 (angle theta ~ pi - theta), in
    # (2q, 4q) on y = 0, 1 (theta ~ -theta), and 0 or 2q at the corners;
    # each class keeps its smallest ray index
    q = nb // 8
    r = (k + q) % (4 * q)
    partner = np.where(r < 2 * q, (4 * q - k) % nb, (nb - k) % nb)
    partner[r % (2 * q) == 0] = q
    remap = np.arange(coords.shape[0])
    remap[n_layers * nb:] = n_layers * nb + np.minimum(k, partner)
    # compress indices
    used = np.unique(remap[tris])
    newid = -np.ones(coords.shape[0], dtype=int)
    newid[used] = np.arange(used.size)
    tris_new = newid[remap[tris]]
    verts_new = coords[used]
    boundary = newid[np.arange(nb)]  # the hole circle, ring 0
    arc = _HOLE_RADIUS * ang
    return TriMesh(verts_new, tris_new, boundary, arc, tri_lengths)


def _p2_stiffness(mesh: TriMesh) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray,
                                           np.ndarray]:
    """Quadratic Lagrange stiffness from intrinsic edge lengths.

    Each triangle is embedded in the plane from its three lengths; gradients
    of the six quadratic basis functions are integrated with the midpoint
    rule, which is exact for the quadratic integrands.  Returns the matrix
    on vertex plus edge-midpoint unknowns, the boundary node indices in loop
    order, their arclength coordinates, and the two endpoint vertices of
    each edge unknown (row j for node n_vertices + j).
    """
    l = mesh.tri_lengths
    t = mesh.triangles
    nv = mesh.n_vertices
    nt = t.shape[0]

    # global edge-midpoint numbering: one unknown per distinct edge, keyed
    # by its sorted vertex pair (lo * nv + hi) and numbered in order of first
    # appearance
    u, v = _edge_ends(t)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    edge_keys, first, inv = np.unique((lo * nv + hi).ravel(), return_index=True,
                                      return_inverse=True)
    by_first = np.argsort(first)
    edge_id = np.empty(edge_keys.size, dtype=int)
    edge_id[by_first] = nv + np.arange(edge_keys.size)
    mid = edge_id[inv].reshape(nt, 3)
    n_nodes = nv + edge_keys.size
    ends = np.stack(np.divmod(edge_keys[by_first], nv), axis=1)

    # planar embedding per triangle: p0=(0,0), p1=(l2,0), p2 from l1, l0
    l0, l1, l2 = l[:, 0], l[:, 1], l[:, 2]
    x2 = (l1 ** 2 + l2 ** 2 - l0 ** 2) / (2.0 * l2)
    y2_sq = l1 ** 2 - x2 ** 2
    if np.any(y2_sq <= 0):
        raise NonManifoldMesh("degenerate triangle (zero area)")
    y2 = np.sqrt(y2_sq)
    area = 0.5 * l2 * y2
    # gradients of barycentric coordinates, shape (nt, 3 funcs, 2)
    inv_det = 1.0 / (2.0 * area)
    g1 = np.stack([y2 * inv_det, -x2 * inv_det], axis=1)
    g2 = np.stack([np.zeros(nt), l2 * inv_det], axis=1)
    g0 = -g1 - g2
    gl = np.stack([g0, g1, g2], axis=1)

    # quadrature at the three edge midpoints, weight area/3 each.  Each basis
    # gradient there is a fixed combination of the barycentric gradients:
    # row (f, q) of `comb` gives basis function f's at quadrature point q
    quad_bary = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    comb = np.zeros((6, 3, 3))
    for q, lam in enumerate(quad_bary):
        for i in range(3):
            comb[i, q, i] = 4.0 * lam[i] - 1.0
        for k in range(3):  # midpoint of edge (k+1, k+2), opposite corner k
            i, j = (k + 1) % 3, (k + 2) % 3
            comb[3 + k, q, j] = 4.0 * lam[i]
            comb[3 + k, q, i] = 4.0 * lam[j]
    # g[t, f] holds f's gradients at the three points, so one batched
    # product sums the quadrature
    g = (comb.reshape(18, 3) @ gl).reshape(nt, 6, 6)
    k_loc = (area[:, None, None] / 3.0) * (g @ g.transpose(0, 2, 1))

    loc_ids = np.concatenate([t, mid], axis=1)
    rows = np.repeat(loc_ids, 6, axis=1).ravel()
    cols = np.tile(loc_ids, (1, 6)).ravel()
    k_mat = sp.csr_matrix((k_loc.ravel(), (rows, cols)), shape=(n_nodes, n_nodes))

    # boundary nodes: vertex, midpoint, vertex, midpoint, ... along the loop
    loop = mesh.boundary_loop
    arc = mesh.boundary_arclength
    nxt_v = np.roll(loop, -1)
    b_keys = np.minimum(loop, nxt_v) * nv + np.maximum(loop, nxt_v)
    pos = np.minimum(np.searchsorted(edge_keys, b_keys), edge_keys.size - 1)
    if np.any(edge_keys[pos] != b_keys):
        raise NonManifoldMesh("boundary loop edge missing from mesh")
    nxt_arc = np.append(arc[1:], arc[0] + mesh.perimeter)
    b_nodes = np.empty(2 * loop.size, dtype=int)
    b_arc = np.empty(2 * loop.size)
    b_nodes[0::2], b_nodes[1::2] = loop, edge_id[pos]
    b_arc[0::2], b_arc[1::2] = arc, 0.5 * (arc + nxt_arc)
    return k_mat, b_nodes, b_arc, ends


def _interior_order(k: sp.csr_matrix, bidx: np.ndarray,
                    ends: np.ndarray) -> np.ndarray:
    """Interior P2 nodes in elimination order, from the interior vertex graph.

    The interior vertices take SuperLU's minimum-degree ordering of their
    block of K, read off an incomplete factorization that keeps no entry;
    that block is about a quarter of K_II.  Each interior edge unknown goes
    immediately before the earlier of its two endpoints (stably, so edges
    sharing that endpoint keep their numbering); an edge whose endpoints
    both lie on the boundary goes after every interior vertex.  The triangle
    order only breaks those ties, so it moves the fill by under 1%.
    """
    interior = np.ones(k.shape[0], dtype=bool)
    interior[bidx] = False
    nv = k.shape[0] - ends.shape[0]
    iv = np.flatnonzero(interior[:nv])
    perm = spla.spilu(k[iv][:, iv].tocsc(), drop_tol=np.inf, fill_factor=1,
                      permc_spec="MMD_AT_PLUS_A").perm_c
    # vertex v has rank perm[j] if v = iv[j]; boundary vertices rank last
    rank = np.full(nv, iv.size)
    rank[iv] = perm
    # vertex keys are odd, edge keys even: an edge sorts just before its vertex
    key = np.concatenate([2 * rank + 1, 2 * rank[ends].min(axis=1)])
    nodes = np.flatnonzero(interior)
    return nodes[np.argsort(key[nodes], kind="stable")]


def dn_fem(mesh: TriMesh, n_modes: int = 128, rescale_to: float | None = None,
           order: int = 2) -> BoundaryOperator:
    """DN operator of a triangulated surface on N arclength nodes.

    The stiffness matrix is assembled from quadratic Lagrange elements; a
    metric rho * g is passed as mesh.with_conformal_factor(rho).  The
    co-normal functional is the nodal Schur complement
    S = K_BB - K_BI K_II^{-1} K_IB.  K is factored once, with the boundary
    nodes last and the identity added on the boundary block; the trailing
    block of the factors is then S + I, so S is read off without any solve.
    The interior is ordered from the interior vertex graph: a minimum-degree
    ordering of the interior vertices, with each edge unknown placed just
    before the earlier of its endpoints (_interior_order).  K and its
    bordered copy are released once factored, before the trailing block of
    the factors is copied out.  The
    coefficient block b = V^H S V / L over the columns V = exp(2 pi i m l / L)
    of the modes |m| <= min(N/2, boundary nodes / 4) is taken to its
    Hermitian part, so the operator is exactly symmetric in L2(Gamma, dl).
    On the full band b holds the Nyquist mode once, as +N/2, and is not the
    matrix of a real operator; the BoundaryOperator constructor projects it
    to one.
    `order` must be 2.  Raises SingularInterior when interior nodes
    cannot reach the boundary, when the factorization fails, or when it
    moves a boundary node out of the trailing block.
    """
    if order != 2:
        raise ValueError("dn_fem assembles P2 elements only")
    k, bidx, b_arc, ends = _p2_stiffness(mesh)
    # a component without boundary nodes makes K_II singular; SuperLU only
    # reports tiny pivots for it, so find such components on the pattern
    _, comp = csgraph.connected_components(k, directed=False)
    stranded = np.count_nonzero(~np.isin(comp, comp[bidx]))
    if stranded:
        raise SingularInterior(
            f"{stranded} interior nodes are not connected to the boundary")
    n_i, n_b = k.shape[0] - bidx.size, bidx.size

    try:
        elim = np.concatenate([_interior_order(k, bidx, ends), bidx])
        # boundary last, and I added on its block: S annihilates constants,
        # the shift makes the matrix SPD, so the diagonal pivots need no
        # search, and the trailing block of its factors is S + I
        bordered = k[elim][:, elim].tocsc() + sp.diags(
            np.r_[np.zeros(n_i), np.ones(n_b)], format="csc")
        lu = spla.splu(bordered, permc_spec="NATURAL", diag_pivot_thresh=0.0)
    except RuntimeError as exc:
        raise SingularInterior(str(exc)) from exc
    # the factors hold all that is needed of K; the copies of L and U below
    # are this call's memory peak
    del k, bordered
    # SuperLU composes the given order with a postorder of its elimination
    # tree, so S is read through the permutations it reports; a boundary
    # node moved out of the trailing block leaves no Schur complement there
    rows, cols = lu.perm_r[n_i:] - n_i, lu.perm_c[n_i:] - n_i
    if np.any(rows < 0) or np.any(cols < 0):
        raise SingularInterior(
            "the factorization moved a boundary node out of the trailing block")
    tail = lu.L[n_i:, n_i:].toarray() @ lu.U[n_i:, n_i:].toarray()
    schur = tail[np.ix_(rows, cols)] - np.eye(n_b)

    # boundary arclength, possibly rescaled
    scale = (rescale_to / mesh.perimeter) if rescale_to else 1.0
    arc, length = b_arc * scale, mesh.perimeter * scale
    # the Schur pairing <DN g, h> is similarity invariant; the 1/length in
    # the coefficient formula below produces the 1/scale decay of the DN map

    n = n_modes
    cap = min(n // 2, arc.size // 4)
    if cap >= n // 2:
        # full band: include the Nyquist mode once (as +N/2)
        ms = np.arange(-(n // 2) + 1, n // 2 + 1)
    else:
        ms = np.arange(-cap, cap + 1)
    v = np.exp(2j * np.pi * np.outer(arc, ms) / length)
    b = np.zeros((n, n), dtype=complex)
    b[np.ix_(ms % n, ms % n)] = v.conj().T @ (schur @ v) / length
    return bc.BoundaryOperator(0.5 * (b + b.conj().T), length)


def load_off(path: str) -> TriMesh:
    """Read an OFF file and build a TriMesh (boundary loop discovered).

    A malformed file raises NonManifoldMesh naming the fault.
    """
    with open(path) as fh:
        tokens = []
        for line in fh:
            line = line.split("#")[0].strip()
            if line:
                tokens.extend(line.split())
    if not tokens:
        raise NonManifoldMesh(f"empty OFF file {path}")
    if tokens[0] != "OFF":
        raise NonManifoldMesh("not an OFF file")
    try:
        nv, nf = int(tokens[1]), int(tokens[2])
        if min(nv, nf) < 0:
            raise ValueError(f"negative counts {nv} {nf}")
        body = tokens[4:]
        verts = np.array(body[:3 * nv], dtype=float).reshape(nv, 3)
        faces = np.array(body[3 * nv:3 * nv + 4 * nf], dtype=int).reshape(nf, 4)
    except (IndexError, ValueError) as exc:
        raise NonManifoldMesh(f"truncated or malformed OFF file {path}: {exc}") from exc
    if np.any(faces[:, 0] != 3):
        raise NonManifoldMesh("only triangle faces supported")
    faces = faces[:, 1:]
    if np.any((faces < 0) | (faces >= nv)):
        raise NonManifoldMesh(f"face index outside 0..{nv - 1}")
    loop = _boundary_loop(faces, nv)
    p = verts[loop]
    seg = np.linalg.norm(np.diff(np.vstack([p, p[:1]]), axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg[:-1])])
    return TriMesh(verts, faces, loop, arc, perimeter=arc[-1] + seg[-1])


def _boundary_loop(faces: np.ndarray, nv: int) -> np.ndarray:
    """Boundary vertices in the order the faces traverse them.

    Consistently oriented faces traverse each interior edge once each way,
    so an edge traversed twice in the same direction raises NonManifoldMesh.
    """
    a = faces.ravel()
    b = faces[:, [1, 2, 0]].ravel()
    _, n_dir = np.unique(a * nv + b, return_counts=True)
    if np.any(n_dir > 1):
        raise NonManifoldMesh("inconsistently oriented faces: an edge is "
                              "traversed twice in the same direction")
    keys = np.minimum(a, b) * nv + np.maximum(a, b)
    _, inv, n_und = np.unique(keys, return_inverse=True, return_counts=True)
    once = n_und[inv] == 1
    succ = dict(zip(a[once].tolist(), b[once].tolist()))
    if not succ:
        raise NonManifoldMesh("mesh has no boundary")
    start = next(iter(succ))
    loop = [start]
    cur = succ[start]
    while cur != start:
        loop.append(cur)
        cur = succ[cur]
        if len(loop) > len(succ):
            raise NonManifoldMesh("boundary is not a single loop")
    if len(loop) != len(succ):
        raise NonManifoldMesh("boundary has multiple loops")
    return np.asarray(loop, dtype=int)

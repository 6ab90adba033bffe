r"""Combinatorial tracing of closed curves through the pants triangulation.

Every vertex of the triangulation is a fixed point of a pants-curve
conjugate, and the edges incident to it form a bi-infinite fan swept by
the powers of its stabilizer.  A closed word is traced by walking its
axis through the triangulation with exact circle arithmetic: ordinary
steps cross one triangle at a time, and when the axis crosses a closed
leaf (so the walk enters an infinite spiral) the fan is jumped
analytically by locating the extreme crossing fan edge on the far side.

The two fan families at a vertex alternate around it in an order fixed
by the triangulation (``FAN_ORDER``), so the fan is one sequence of edges
indexed by m over both families.  The fan edges at the far vertex that
cross the axis are exactly those with m >= m_end, found by a monotone
walk from m = 0; the least of them is the exit edge and the next one is
the kept edge toward the leaf.  The mesh edges that cross the axis form
one run, and each mesh edge lies before it, on it or after it,
monotonically along the mesh: by its side of the axis when the leaf's
two ends lie on different sides, and by where its end on the axis's arc
of the leaf lies when they lie on one side.  So the run is walked
exactly in both cases, from the mesh anchor at the joining vertex
(k = 0), reading curve constants built once with the mesh.  Locating
the axis from a fan is one pass that returns the first separating fan
edge near k = 0, or else the first triangle on fan edge 0 to restart the
dual walk from.

Every group element the tracer makes or compares is one canonical
matrix: the primitive integer matrix on its projective line whose first
nonzero entry is positive (``fuchsian.canonical``), the form in which the
surface keeps its generators and evaluates its words.  The Moebius action
is projective, so each boundary point is the same exact rational as from
the det-1 matrix, equal lifts are equal tuples of ints, and a lift cache
hashes ints.  The slot matrices, their inverses, fixed points and
conjugators and the leaf-partner transfers are built once, with the
surface (``FuchsianSurfaceData.slots``).

The trace records the cyclic tuple sequence

    (pred edge class, edge class, succ edge class, Z/S type, winding count)

over the binodal edges (the pivot-switch edges), one period of the
deck action.  Winding counts are signed mesh-crossing numbers.  The mesh
of each pants curve is built once and transported equivariantly; its
anchor is fixed by the cross ratio of first lines based at the meet of
the curve's two osculating hyperplanes, which on the Fuchsian locus is
the classical boundary cross ratio to the power n-1.  The tracer
therefore builds no n-dimensional flag: n enters only through that
power.  Z/S labels follow the package's fixed positive orientation of
the boundary circle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .fuchsian import (
    boundary_cross_ratio,
    canonical_adj,
    canonical_mul,
    cyclic_order,
    fixed_points,
    in_arc,
    is_hyperbolic,
    mobius,
    separates,
    translation_length,
)
from .linalg import DegenerateError

EDGE_ENDS = {"ab": ("a", "b"), "ac": ("a", "c"), "cb": ("c", "b")}
#: the vertex letter of a triangle opposite each edge kind
_OPPOSITE_LETTER = {"ab": "c", "ac": "b", "cb": "a"}
#: fan families at each vertex letter: the two edge kinds through it, in the
#: order ``_fan_locate`` and the mesh search try them (at c not ``FAN_ORDER``'s)
VERTEX_FANS = {"a": ("ac", "ab"), "b": ("ab", "cb"), "c": ("ac", "cb")}
_SHARED_LETTER = {
    frozenset(("ab", "ac")): "a",
    frozenset(("ab", "cb")): "b",
    frozenset(("ac", "cb")): "c",
}
#: the two fan families at each vertex letter in their order around the
#: vertex: fan edge m at v is ``fan_edge(v, FAN_ORDER[letter][m % 2], m // 2)``.
#: T(g) holds ab(g), ac(g), cb(g) and T'(g) holds ab(g), ac(g A), cb(g B^-1),
#: with C = A^-1 B^-1, so the fans run ac(g), ab(g), ac(g A) at a;
#: ab(g), cb(g), ab(g B) at b; and cb(g), ac(g), cb(g C) at c.
FAN_ORDER = {"a": ("ac", "ab"), "b": ("ab", "cb"), "c": ("cb", "ac")}
#: ``_fan_locate`` looks for a separating fan edge with |k| below this
FAN_LOCATE_RADIUS = 8
#: steps ``_minimize_g`` takes along a fan family before it gives up; fixed
#: rather than ``depth_cap``, so the mesh does not depend on the cap
MESH_SEARCH_CAP = 64
_IDENTITY = ((1, 0), (0, 1))


class TraceError(RuntimeError):
    """Tracer failure: non-hyperbolic word or exhausted search depth."""


class _ClosedLeafHit(Exception):
    """Internal: the walk ran into the axis being a closed-leaf lift."""

    def __init__(self, curve):
        self.curve = curve


@dataclass(frozen=True)
class VertexLift:
    gamma: tuple
    pants: int
    letter: str


@dataclass(frozen=True)
class EdgeLift:
    """The lift gamma * (base edge ``kind`` of ``pants``).

    Two lifts are the same edge exactly when they are equal: an edge joins
    fixed points of two different curves, so no group element but the
    identity fixes it, and gamma is canonical.

    Its ends are named by the letters of ``kind``: the end named l is the
    vertex lift (gamma, pants, l) in both triangles that hold the edge, and
    two edges of one triangle share the end ``_SHARED_LETTER`` names.
    """

    gamma: tuple
    pants: int
    kind: str

    @property
    def edge_class(self):
        return (self.pants, self.kind)

    def end(self, letter):
        return VertexLift(self.gamma, self.pants, letter)

    def far_end(self, letter):
        """The end other than the one named by ``letter``."""
        l1, l2 = EDGE_ENDS[self.kind]
        return self.end(l2 if letter == l1 else l1)


def shared_letter(e1, e2):
    """The letter of the end shared by two edges of one triangle."""
    return _SHARED_LETTER[frozenset((e1.kind, e2.kind))]


@dataclass(frozen=True)
class TriangleLift:
    gamma: tuple
    pants: int
    prime: bool


@dataclass(frozen=True)
class PsiTuple:
    pred: tuple
    edge: tuple
    succ: tuple
    type: str
    t: int


@dataclass
class PsiEncoding:
    """Cyclic combinatorial description of a closed curve."""

    tuples: tuple
    closed_leaf_curve: int = None
    lifts: tuple = ()

    @property
    def is_closed_leaf(self):
        return self.closed_leaf_curve is not None


@dataclass(frozen=True)
class CountPair:
    r: int
    s: int


def r_and_s(psi):
    """r = number of binodal tuples, s = sum of max(0, |t|-2)."""
    if psi.is_closed_leaf or not psi.tuples:
        raise DegenerateError("empty encoding: the word is a closed-leaf power")
    r = len(psi.tuples)
    s = sum(max(0, abs(tp.t) - 2) for tp in psi.tuples)
    return CountPair(r=r, s=s)


def cyclic_equal(psi1, psi2):
    """Equality of encodings up to cyclic rotation; closed-leaf encodings
    are equal when their curves are."""
    t1, t2 = tuple(psi1.tuples), tuple(psi2.tuples)
    if psi1.is_closed_leaf or psi2.is_closed_leaf:
        return psi1.closed_leaf_curve == psi2.closed_leaf_curve
    if len(t1) != len(t2):
        return False
    return any(t1 == t2[k:] + t2[:k] for k in range(len(t2)))


def validate_psi(psi, decomp):
    """Necessary-condition checks; empty list means the encoding passes."""
    violations = []
    if psi.is_closed_leaf:
        return violations
    if not psi.tuples:
        violations.append("empty tuple list")
        return violations
    valid_ids = set(decomp.edge_ids())
    for i, tp in enumerate(psi.tuples):
        for label, ec in (("pred", tp.pred), ("edge", tp.edge), ("succ", tp.succ)):
            if ec not in valid_ids:
                violations.append(f"tuple {i}: {label} {ec} is not an edge class")
        if violations:
            continue
        if tp.pred[0] != tp.edge[0] or tp.succ[0] != tp.edge[0]:
            violations.append(f"tuple {i}: pred/succ leave the pants of the edge")
        if len({tp.pred[1], tp.edge[1], tp.succ[1]}) != 3:
            violations.append(f"tuple {i}: pred, edge, succ classes not distinct")
        if tp.type not in ("Z", "S"):
            violations.append(f"tuple {i}: unknown type {tp.type!r}")
    if violations:
        return violations
    m = len(psi.tuples)
    for i in range(m):
        cur, nxt = psi.tuples[i], psi.tuples[(i + 1) % m]
        out_letter = _SHARED_LETTER[frozenset((cur.edge[1], cur.succ[1]))]
        in_letter = _SHARED_LETTER[frozenset((nxt.pred[1], nxt.edge[1]))]
        out_curve = decomp.slot_curve(cur.edge[0], out_letter.upper())[0]
        in_curve = decomp.slot_curve(nxt.edge[0], in_letter.upper())[0]
        if out_curve != in_curve:
            violations.append(
                f"tuples {i}->{(i + 1) % m}: not joinable through a common curve"
            )
    return violations


@dataclass
class MeshSpec:
    """Anchor pair of one pants-curve mesh, whose ``g_value`` satisfies its
    defining inequality 1 <= g < exp(width), and the exact curve constants
    ``_winding`` reads on every call: the curve word's matrix w and its
    fixed points, which place mesh edge k = eta w^k (x, y) from k = 0."""

    word: str
    x_point: object
    y_point: object
    g_value: float
    width: float  # lambda_1 - lambda_n of the curve's holonomy
    w: tuple  # the curve word's canonical matrix
    rep: object  # repelling and attracting fixed points of w
    att: object


def _power(cache, k, s, s_inv):
    """g s^k, with ``cache`` holding g s^i over one range of i around 0:
    the range is extended to k by one multiplication per new power."""
    if k not in cache:
        step, base, m = (1, max(cache), s) if k > 0 else (-1, min(cache), s_inv)
        g = cache[base]
        for i in range(base + step, k + step, step):
            g = canonical_mul(g, m)
            cache[i] = g
    return cache[k]


class PsiTracer:
    """Traces closed words on a Fuchsian surface through the triangulation."""

    def __init__(self, surface, n=2, depth_cap=64):
        self.surface = surface
        self.decomp = surface.decomp
        self.n = n
        self.depth_cap = depth_cap
        self._points = {}
        self._meshes = {}
        self._fan_pow = {}

    # -- lift geometry -------------------------------------------------------

    def point(self, v):
        key = (v.gamma, v.pants, v.letter)
        if key not in self._points:
            base = self.surface.slots[v.pants, v.letter].rep
            self._points[key] = mobius(v.gamma, base)
        return self._points[key]

    def edge_points(self, e):
        return tuple(self.point(e.end(letter)) for letter in EDGE_ENDS[e.kind])

    def adjacent_triangles(self, e):
        g, j = e.gamma, e.pants
        if e.kind == "ab":
            return TriangleLift(g, j, False), TriangleLift(g, j, True)
        if e.kind == "ac":
            delta = canonical_mul(g, self.surface.slots[j, "a"].inv)
            return TriangleLift(g, j, False), TriangleLift(delta, j, True)
        delta = canonical_mul(g, self.surface.slots[j, "b"].mat)
        return TriangleLift(g, j, False), TriangleLift(delta, j, True)

    def triangle_vertices(self, tri):
        g, j = tri.gamma, tri.pants
        if not tri.prime:
            return tuple(VertexLift(g, j, l) for l in "abc")
        ga = canonical_mul(g, self.surface.slots[j, "a"].mat)
        return (VertexLift(g, j, "a"), VertexLift(g, j, "b"), VertexLift(ga, j, "c"))

    def triangle_edges(self, tri):
        g, j = tri.gamma, tri.pants
        if not tri.prime:
            return tuple(EdgeLift(g, j, k) for k in ("ab", "ac", "cb"))
        ga = canonical_mul(g, self.surface.slots[j, "a"].mat)
        gb = canonical_mul(g, self.surface.slots[j, "b"].inv)
        return (EdgeLift(g, j, "ab"), EdgeLift(ga, j, "ac"), EdgeLift(gb, j, "cb"))

    def fan_edge(self, v, kind, k):
        """k-th fan edge of the given family at vertex v."""
        cache = self._fan_pow.setdefault((v.gamma, v.pants, v.letter), {0: v.gamma})
        slot = self.surface.slots[v.pants, v.letter]
        return EdgeLift(_power(cache, k, slot.mat, slot.inv), v.pants, kind)

    def fan_edge_at(self, v, m):
        """m-th fan edge at vertex v, over both families in ``FAN_ORDER``."""
        return self.fan_edge(v, FAN_ORDER[v.letter][m % 2], m // 2)

    def leaf_endpoints(self, v):
        """The closed-leaf lift through vertex v: (v point, partner point)."""
        att = mobius(v.gamma, self.surface.slots[v.pants, v.letter].att)
        return self.point(v), att

    def partner_lift(self, v):
        """The vertex lift of the other pants sitting at the leaf partner."""
        slot = self.surface.slots[v.pants, v.letter]
        return VertexLift(canonical_mul(v.gamma, slot.transfer), *slot.partner)

    def curve_of_vertex(self, v):
        return self.decomp.slot_curve(v.pants, v.letter.upper())[0]

    def mesh_anchor(self, v):
        """Conjugator eta with stabilizer(v leaf) = eta w eta^-1, w the curve word."""
        return canonical_mul(v.gamma, self.surface.slots[v.pants, v.letter].conj)

    # -- mesh ------------------------------------------------------------------

    def mesh(self, curve_id):
        if curve_id in self._meshes:
            return self._meshes[curve_id]
        word = self.surface.curve_words[curve_id]
        w_mat = self.surface.matrix(word)
        rep, att = fixed_points(w_mat)
        # the aligned slot's vertex, moved back by its conjugator, sits at
        # rep(w); its leaf partner sits at att(w)
        ref = next(ref for ref in self.decomp.curves[curve_id] if ref.aligned)
        conj = self.surface.slots[ref.pants, ref.slot.lower()].conj
        rep_lift = VertexLift(canonical_adj(conj), ref.pants, ref.slot.lower())
        att_lift = self.partner_lift(rep_lift)
        assert self.point(rep_lift) == rep
        assert self.point(att_lift) == att

        # x: deterministic family choice at the repelling-side fan
        kind_x = min(VERTEX_FANS[rep_lift.letter])
        x_edge = self.fan_edge(rep_lift, kind_x, 0)
        x_point = self.point(x_edge.far_end(rep_lift.letter))

        def g_of(z_point):
            # the first-line cross ratio based at the meet of the two
            # osculating hyperplanes is the classical one to the power n-1
            cr = boundary_cross_ratio(att, x_point, z_point, rep)
            return abs(cr) ** (self.n - 1)

        best = None
        for kind in VERTEX_FANS[att_lift.letter]:
            y = self._minimize_g(att_lift, kind, g_of)
            if y is not None and (best is None or y[1] < best[1]):
                best = y
        if best is None:
            raise TraceError(f"no mesh candidate with g >= 1 on curve {curve_id}")
        y_point, g_val = best
        spec = MeshSpec(
            word=word,
            x_point=x_point,
            y_point=y_point,
            g_value=g_val,
            width=(self.n - 1) * translation_length(w_mat),
            w=w_mat,
            rep=rep,
            att=att,
        )
        self._meshes[curve_id] = spec
        return spec

    def _minimize_g(self, v, kind, g_of):
        """Smallest g >= 1 along one fan family; None if out of window."""
        pts = {}

        def far(k):
            if k not in pts:
                pts[k] = self.point(self.fan_edge(v, kind, k).far_end(v.letter))
            return pts[k]

        g0, g1 = g_of(far(0)), g_of(far(1))
        if g0 == g1:
            raise TraceError("mesh cross ratio is not monotone along the fan")
        step = 1 if g1 > g0 else -1
        # g is monotone in k; hop toward the g = 1 crossing, then refine
        k = 0
        guard = 0
        while g_of(far(k)) >= 1.0 and guard < MESH_SEARCH_CAP:
            k -= step
            guard += 1
        while g_of(far(k)) < 1.0 and guard < 2 * MESH_SEARCH_CAP:
            k += step
            guard += 1
        if guard >= 2 * MESH_SEARCH_CAP:
            return None
        return far(k), g_of(far(k))

    # -- walking the axis -------------------------------------------------------

    def trace(self, word):
        """The cyclic encoding of the conjugacy class of ``word``.

        The lift caches (vertex points and fan powers, keyed by group
        element) start empty for every word, so a long-lived tracer holds
        the lifts of one word at a time rather than of every word it saw.
        """
        self._points = {}
        self._fan_pow = {}
        x_mat = self.surface.matrix(word)
        if not is_hyperbolic(x_mat):
            raise TraceError(f"word {word!r} is not hyperbolic")
        xm, xp = fixed_points(x_mat)
        try:
            start = self._find_crossing_edge(xm, xp)
        except _ClosedLeafHit as hit:
            return PsiEncoding(tuples=(), closed_leaf_curve=hit.curve)
        return self._walk_period(start, x_mat, xm, xp)

    # helper predicates ----------------------------------------------------

    def _edge_separates(self, e, xm, xp):
        p, q = self.edge_points(e)
        return separates(p, q, xm, xp)

    def _guard_vertex(self, v, xm, xp):
        """Raise ``_ClosedLeafHit`` when the axis ends at vertex v."""
        p = self.point(v)
        if p == xm or p == xp:
            raise _ClosedLeafHit(self.curve_of_vertex(v))

    def _leaf_jump_target(self, v, xm, xp, other_point):
        """If the leaf at v separates both axis endpoints from our side,
        return the partner lift to jump to; else None.  Raises
        ``_ClosedLeafHit`` when the axis is this leaf."""
        rep, att = self.leaf_endpoints(v)
        if att == xm or att == xp:
            raise _ClosedLeafHit(self.curve_of_vertex(v))
        if separates(rep, att, xm, xp):
            return None
        if not separates(rep, att, xm, other_point):
            return None
        return self.partner_lift(v)

    def _find_crossing_edge(self, xm, xp):
        """Walk the dual graph toward the axis; return a separating edge.

        Raises ``_ClosedLeafHit`` when the axis is a closed-leaf lift.
        """
        tri = TriangleLift(_IDENTITY, 0, False)
        for _ in range(4 * self.depth_cap):
            verts = self.triangle_vertices(tri)
            for v in verts:
                self._guard_vertex(v, xm, xp)
            pts = [self.point(v) for v in verts]
            if cyclic_order(pts[0], pts[1], pts[2]) < 0:
                verts = (verts[0], verts[2], verts[1])
                pts = [pts[0], pts[2], pts[1]]
            arc_m = arc_p = None
            for i in range(3):
                if in_arc(xm, pts[i], pts[(i + 1) % 3]):
                    arc_m = i
                if in_arc(xp, pts[i], pts[(i + 1) % 3]):
                    arc_p = i
            if arc_m is None or arc_p is None:
                raise TraceError("axis endpoint coincides with a vertex")
            if arc_m != arc_p:
                for e in self.triangle_edges(tri):
                    if self._edge_separates(e, xm, xp):
                        return e
                raise TraceError("straddling triangle without separating edge")
            # step across the edge subtending the common arc
            u, w = verts[arc_m], verts[(arc_m + 1) % 3]
            exit_edge = self._opposite_edge(tri, verts[(arc_m + 2) % 3].letter)
            third = pts[(arc_m + 2) % 3]
            jumped = False
            for v in (u, w):
                target = self._leaf_jump_target(v, xm, xp, third)
                if target is not None:
                    res = self._fan_locate(target, xm, xp)
                    if isinstance(res, EdgeLift):
                        return res
                    tri = res
                    jumped = True
                    break
            if jumped:
                continue
            tri = self._other_triangle(exit_edge, tri)
        raise TraceError("axis search exceeded the configured depth")

    def _opposite_edge(self, tri, letter):
        """The edge of the triangle opposite its vertex named ``letter``."""
        return next(
            e for e in self.triangle_edges(tri) if _OPPOSITE_LETTER[e.kind] == letter
        )

    def _other_triangle(self, edge, tri):
        t1, t2 = self.adjacent_triangles(edge)
        return t2 if t1 == tri else t1

    def _fan_locate(self, v, xm, xp):
        """The first separating fan edge at v with |k| < FAN_LOCATE_RADIUS, in
        the order k = 0, 1, -1, 2, -2, ... (first family first); else the
        first triangle on fan edge (first family, 0), to reseed the dual walk.
        """
        kinds = VERTEX_FANS[v.letter]
        ks = [0] + [k for r in range(1, FAN_LOCATE_RADIUS) for k in (r, -r)]
        for k in ks:
            for kind in kinds:
                e = self.fan_edge(v, kind, k)
                self._guard_vertex(e.far_end(v.letter), xm, xp)
                if self._edge_separates(e, xm, xp):
                    return e
        tri = self.adjacent_triangles(self.fan_edge(v, kinds[0], 0))[0]
        for tv in self.triangle_vertices(tri):
            self._guard_vertex(tv, xm, xp)
        return tri

    # -- the period walk ----------------------------------------------------

    def _step(self, edge, xm, xp):
        """Next crossed edge and the pivot vertex shared with it."""
        for e in self.triangle_edges(self._far_triangle(edge, xp)):
            # the triangle holds one edge of each kind, ``edge`` among them
            if e.kind != edge.kind and self._edge_separates(e, xm, xp):
                return e, edge.end(shared_letter(edge, e))
        raise TraceError("walk lost the axis")  # pragma: no cover

    def _far_triangle(self, edge, xp):
        p, q = self.edge_points(edge)
        third = "abc".index(_OPPOSITE_LETTER[edge.kind])
        for tri in self.adjacent_triangles(edge):
            vp = self.point(self.triangle_vertices(tri)[third])
            if in_arc(vp, p, q) == in_arc(xp, p, q):
                return tri
        raise TraceError("no far triangle")  # pragma: no cover

    def _walk_period(self, start, x_mat, xm, xp):
        edge = start
        prev_edge = None
        prev_pivot = None
        events = []
        lifts = []
        stop_edge = None
        pending = None  # joining vertex lift of the open binodal stretch
        guard = 0
        while True:
            guard += 1
            if guard > 64 * self.depth_cap:
                raise TraceError("period walk exceeded the configured depth")
            nxt, pivot = self._step(edge, xm, xp)
            # both pivots are ends of ``edge``, named by their letters
            if prev_pivot is not None and pivot.letter != prev_pivot.letter:
                if stop_edge is None:
                    # first binodal edge anchors the period
                    stop_edge = EdgeLift(canonical_mul(x_mat, edge.gamma), edge.pants, edge.kind)
                else:
                    # a stretch closes here; the period's closing stretch
                    # belongs to its last tuple
                    events[-1] = replace(events[-1], t=self._winding(pending, xm, xp))
                    if edge == stop_edge:
                        return PsiEncoding(tuples=tuple(events), lifts=tuple(lifts))
                ztype = "Z" if in_arc(self.point(pivot), xp, xm) else "S"
                events.append(
                    PsiTuple(
                        pred=prev_edge.edge_class,
                        edge=edge.edge_class,
                        succ=nxt.edge_class,
                        type=ztype,
                        t=0,
                    )
                )
                lifts.append((prev_edge, edge, nxt, pivot))
                pending = pivot
            # spiral ahead?  jump the closed leaf at the current pivot, but
            # only when the crossing still lies ahead of the current edge
            rep, att = self.leaf_endpoints(pivot)
            if separates(rep, att, xm, xp):
                other = self.point(edge.far_end(pivot.letter))
                if separates(rep, att, other, xp):
                    prev_edge, edge, prev_pivot = self._leaf_jump(pivot, xm, xp)
                    continue
            prev_edge, edge, prev_pivot = edge, nxt, pivot

    def _leaf_jump(self, pivot, xm, xp):
        """Cross the closed leaf at the pivot and land on the far fan.

        The exit binodal edge is the least crossing fan edge m_end at the
        partner lift vp: the axis leaves the fan through the triangle
        between fan edges m_end - 1 and m_end, whose third side does not
        end at vp, so the pivot switches there, while from every later
        crossing edge the next crossing still ends at vp.  Returns (fan
        edge m_end + 1, the exit edge, vp) so the main walk resumes just
        before the exit binodal fires.
        """
        vp = self.partner_lift(pivot)
        m_end = self._crossing_window_end(vp, xm, xp)
        if m_end is None:
            raise TraceError("leaf jump found no crossing fan edge")
        return self.fan_edge_at(vp, m_end + 1), self.fan_edge_at(vp, m_end), vp

    def _crossing_window_end(self, vp, xm, xp):
        """The least m whose fan edge at vp crosses the axis; None within
        the depth.

        The far ends of the fan edges run monotonically around vp as m
        grows, from vp's point (m -> -oo) to the other end of vp's leaf
        (m -> +oo), and the axis crosses that leaf, so the crossing edges
        are exactly those with m >= m_end.  A monotone walk from m = 0,
        over at most 2 depth_cap fan edges, finds m_end.
        """

        def crossing(m):
            return self._edge_separates(self.fan_edge_at(vp, m), xm, xp)

        cap = 2 * self.depth_cap
        if not crossing(0):
            return next((m for m in range(1, cap) if crossing(m)), None)
        m = 0
        while crossing(m - 1):
            m -= 1
            if m < -cap:
                raise TraceError("crossing window end not found")
        return m

    def _winding(self, pending, xm, xp):
        """Signed mesh-crossing count for the stretch joined by ``pending``.

        The mesh edges eta w^k (x, y) that cross the axis form one run of
        consecutive k, and edge k lies before the run (-1), on it (0) or
        after it (+1), monotonically in k.  Edge k tends to eta rep(w) as
        k -> -oo and to eta att(w) as k -> +oo, the ends of the leaf at
        ``pending``.  When they read different sides of the axis, the axis
        crosses the leaf and the side of edge k gives its place.  When they
        read one side, both axis endpoints lie on one arc of the leaf; the
        end of edge k on that arc runs along it from eta rep(w) to eta
        att(w), and the place is whether it lies before xm or beyond it.
        One walk serves both: from the anchor eta itself (k = 0) to the run
        and along it, reading each k once and no float.  A run that reaches
        k = +-depth_cap raises ``TraceError``.
        """
        spec = self.mesh(self.curve_of_vertex(pending))
        eta = self.mesh_anchor(pending)
        w_inv = canonical_adj(spec.w)
        # eta w^k over one range of k around 0, and the edges and places read
        anchors = {0: eta}
        edges = {}
        places = {}
        lo, hi = mobius(eta, spec.rep), mobius(eta, spec.att)
        s_lo, s_hi = in_arc(lo, xm, xp), in_arc(hi, xm, xp)
        # on one side: whether the axis lies on the positive arc from lo to
        # hi, and the end of edge k (0: x, 1: y) that runs along that arc
        positive = in_arc(xm, lo, hi)
        moving = in_arc(spec.x_point, spec.rep, spec.att) != positive

        def mesh_edge(k):
            if k not in edges:
                g = _power(anchors, k, spec.w, w_inv)
                edges[k] = mobius(g, spec.x_point), mobius(g, spec.y_point)
            return edges[k]

        def place(k):
            if k not in places:
                u, w = mesh_edge(k)
                su = in_arc(u, xm, xp)
                if su != in_arc(w, xm, xp):
                    places[k] = 0
                elif s_lo != s_hi:
                    places[k] = -1 if su == s_lo else 1
                else:
                    p = (u, w)[moving]
                    before = in_arc(p, lo, xm) if positive else in_arc(p, xm, lo)
                    places[k] = -1 if before else 1
            return places[k]

        # the run sits at or next to the anchor: of the 3864 calls on the
        # bench pool words, 1730 have k = 0 on the run, 1483 a run 1 away,
        # 7 one 2 away and 644 no run.  From k = 0 a call reads 2.92 mesh
        # edges when the axis crosses the leaf and 3.19 when it does not
        cap = self.depth_cap
        k = 0
        while k < cap and place(k) < 0:
            k += 1
        while k > -cap and place(k) > 0:
            k -= 1
        if place(k) != 0:
            return 0
        k1, k2 = k, k
        while k1 > -cap and place(k1 - 1) == 0:
            k1 -= 1
        while k2 < cap and place(k2 + 1) == 0:
            k2 += 1
        if k1 == -cap or k2 == cap:
            raise TraceError("winding count exceeded the configured depth")
        count = k2 - k1 + 1
        # orientation: does increasing k move toward the attracting endpoint?
        u0, w0 = mesh_edge(k1)
        u1, _ = mesh_edge(k1 + 1)
        forward = in_arc(u1, u0, w0) == in_arc(xp, u0, w0)
        return count if forward else -count

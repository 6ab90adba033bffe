"""Workload ``trace``: the exact quadratic-irrational curve tracer.

One op traces a word with a ``PsiTracer(n=2)`` shared by the whole run,
then runs ``validate_psi``, ``r_and_s`` and ``length_lower_bound`` and
compares the bound against ``translation_length`` of the word.

Words come in three shares per schedule cycle:

* fresh cyclically reduced hyperbolic words of each length 2..12, drawn
  from a fixed pool per length in seeded order, checked against the
  recorded encodings exactly;
* conjugates y w y^-1 of the fresh word traced just before, checked
  with ``cyclic_equal`` against the encoding of w;
* closed-leaf words, powers and conjugates of a, c and abAB, checked to
  land on their pants curve.
"""

from __future__ import annotations

import random

from common import load_reference, seeded_rng, shuffled_cycle

LENGTHS = tuple(range(2, 13))
POOL_PER_LENGTH = 32
#: cost strata per word length and the order they are drawn in (bit
#: reversal, so any run of draws spreads over the cost range)
STRATA = 16
STRATUM_ORDER = (0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15)
LETTERS = "abcdABCD"
#: closed-leaf base words and the pants curve each one runs along
LEAF_WORDS = {"a": 0, "c": 1, "abAB": 2}
#: one schedule cycle: word lengths, conjugates and closed-leaf words
CYCLE = (2, 7, 3, "leaf", 8, "conj", 4, 9, 5, "conj", "leaf", 10, 6, 11, "conj", 12)


def invert(word):
    return word[::-1].swapcase()


def pool_words(surface, length):
    """The fixed pool of cyclically reduced hyperbolic words of one length."""
    from hitchin.fuchsian import is_hyperbolic

    rng = random.Random(7_000 + length)
    words = []
    while len(words) < POOL_PER_LENGTH:
        w = [rng.choice(LETTERS)]
        while len(w) < length:
            ch = rng.choice(LETTERS)
            if ch != invert(w[-1]):
                w.append(ch)
        word = "".join(w)
        if word[0] != invert(word[-1]) and is_hyperbolic(surface.matrix(word)):
            words.append(word)
    return words


def leaf_words():
    """(word, curve) for powers 1..3 of a and c, 1..2 of abAB, their
    inverses, and their conjugates by each letter."""
    out = []
    for leaf, curve in LEAF_WORDS.items():
        for power in range(1, 4 if len(leaf) == 1 else 3):
            for word in (leaf * power, invert(leaf * power)):
                out.append((word, curve))
                out += [(y + word + invert(y), curve) for y in LETTERS]
    return out


def encode(psi):
    return [[list(tp.pred), list(tp.edge), list(tp.succ), tp.type, tp.t] for tp in psi.tuples]


def decode(rows):
    from hitchin.tracer import PsiEncoding, PsiTuple

    return PsiEncoding(
        tuples=tuple(
            PsiTuple(pred=tuple(p), edge=tuple(e), succ=tuple(s), type=ty, t=t)
            for p, e, s, ty, t in rows
        )
    )


def length_constants(rec):
    """Surface, decomposition K and L at n=2 for the length bound."""
    from hitchin.degeneration import compute_K, compute_L
    from hitchin.fuchsian import fuchsian_invariants, genus2_surface
    from hitchin.pants import xi_forward

    with rec.span("fuchsian.genus2_surface"):
        surface = genus2_surface()
    with rec.span("fuchsian.fuchsian_invariants"):
        inv2 = fuchsian_invariants(surface, 2)
    with rec.span("pants.xi_forward"):
        params = xi_forward(surface.decomp, inv2, {c: (0.0,) for c in range(3)})
    k_val, _ = compute_K(surface.decomp, inv2)
    l_val = compute_L(params.boundary, 2)
    return surface, k_val, l_val


def trace_op(tracer, word, k_val, l_val, rec, kind="fresh"):
    """Trace and check one word; returns (ok, output, reason).

    ``kind`` tags the trace span, so closed-leaf words can be kept out of
    the time per binodal edge.
    """
    from hitchin.degeneration import length_lower_bound
    from hitchin.fuchsian import SurfaceError, translation_length
    from hitchin.linalg import DegenerateError
    from hitchin.tracer import TraceError, r_and_s, validate_psi

    try:
        with rec.span("tracer.PsiTracer.trace", tag=kind):
            psi = tracer.trace(word)
        with rec.span("tracer.validate_psi"):
            violations = validate_psi(psi, tracer.decomp)
        if psi.is_closed_leaf:
            return True, ("leaf", psi.closed_leaf_curve, violations), ""
        counts = r_and_s(psi)
        with rec.span("degeneration.length_lower_bound"):
            bound = length_lower_bound(counts, k_val, l_val)
        with rec.span("fuchsian.translation_length"):
            length = translation_length(tracer.surface.matrix(word))
    except (TraceError, SurfaceError, DegenerateError) as exc:
        return False, None, str(exc)
    return True, ("curve", encode(psi), counts.r, counts.s, bound, length, violations), ""


def _stratified_words(words, encodings, rng, offset):
    """Endless seeded draws from ``words``, one cost stratum at a time.

    Words are ranked by their binodal edge count in the reference (a
    closed-leaf word counts 0), which the trace cost follows, and cut into
    STRATA groups.  The groups are visited in a fixed low-discrepancy order
    (``STRATUM_ORDER`` rotated by ``offset``), and the seed picks the word
    within each group, so every run sees nearly the same spread of costs
    whatever the seed.
    """
    ranked = sorted(words, key=lambda w: (0 if isinstance(encodings[w], int) else len(encodings[w]), w))
    size = len(ranked) // STRATA
    groups = [shuffled_cycle(ranked[i * size : (i + 1) * size], rng) for i in range(STRATA)]
    while True:
        for i in range(STRATA):
            yield next(groups[STRATUM_ORDER[(i + offset) % STRATA]])


def op_stream(seed, surface, reference):
    """Endless ops (kind, word, reference word or curve id) fixed by the seed."""
    encodings = reference["encodings"]
    streams = {
        length: _stratified_words(
            pool_words(surface, length), encodings, seeded_rng(seed, 3, length), length
        )
        for length in LENGTHS
    }
    rng = seeded_rng(seed, 4)
    leaves = leaf_words()
    while True:
        for slot in CYCLE:
            if slot == "conj":
                # conjugate the fresh word just traced, so conjugates follow
                # the cost strata of the fresh words
                y = rng.choice(LETTERS)
                yield ("conj", y + base + invert(y), base)
            elif slot == "leaf":
                yield ("leaf", *rng.choice(leaves))
            else:
                base = next(streams[slot])
                yield ("fresh", base, base)


def layer_metrics(by_tag, results):
    curves = [out for _op, ok, out, _reason in results if ok and out[0] == "curve"]
    leaves = sum(1 for _op, ok, out, _reason in results if ok and out[0] == "leaf")
    edges = sum(out[2] for out in curves)
    trace_s = sum(
        s["self_s"]
        for (name, tag), s in by_tag.items()
        if name == "tracer.PsiTracer.trace" and tag != "leaf"
    )
    return {
        "tracer.binodal_edges": edges,
        "tracer.closed_leaf_words": leaves,
        "tracer.closed_leaf_share": leaves / len(results) if results else 0.0,
        "tracer.ms_per_binodal_edge": 1e3 * trace_s / edges if edges else 0.0,
    }


class TraceWorkload:
    #: ops in one schedule cycle of ``op_stream``
    cycle_ops = len(CYCLE)

    def __init__(self, seed, rec):
        from hitchin.tracer import PsiTracer

        from spans import NullRecorder

        self.seed = seed
        self.surface, self.k_val, self.l_val = length_constants(rec)
        self.tracer = PsiTracer(self.surface, n=2)
        with rec.span("tracer.PsiTracer.mesh"):
            for cid in range(self.surface.decomp.num_curves):
                self.tracer.mesh(cid)
        self.reference = load_reference("trace")
        trace_op(self.tracer, "a", self.k_val, self.l_val, NullRecorder(), "leaf")

    def ops(self):
        return op_stream(self.seed, self.surface, self.reference)

    def run(self, op, rec):
        return trace_op(self.tracer, op[1], self.k_val, self.l_val, rec, op[0])

    def check(self, op, ok, output, reason):
        """(op failed, regressions against the reference) for one word.

        A conjugate whose encoding is not a rotation of its base word's
        reproduces the reference, and passes, where the reference recorded
        the same mismatch for that base word and conjugating letter
        (``tracer.conj_mismatch`` counts these); anywhere else it is a
        regression.
        """
        from hitchin.tracer import cyclic_equal

        kind, word, expect = op
        if not ok:
            return True, [f"trace {word}: {reason}"]
        if output[-1]:
            return True, [f"trace {word}: validate_psi {output[-1]}"]
        # a closed-leaf reference is the curve id, any other an encoding
        ref = expect if kind == "leaf" else self.reference["encodings"].get(expect)
        if ref is None:
            return True, [f"trace {word}: no reference encoding for {expect}"]
        if isinstance(ref, int):
            if output[:2] != ("leaf", ref):
                return True, [f"trace {word}: expected closed leaf on curve {ref}, got {output[:2]}"]
            return False, []
        if output[0] != "curve":
            return True, [f"trace {word}: unexpected closed leaf {output[1]}"]
        _tag, rows, _r, _s, bound, length, _v = output
        problems = []
        if not bound <= length:
            problems.append(f"trace {word}: length bound {bound} exceeds translation length {length}")
        if kind == "fresh" and rows != ref:
            problems.append(f"trace {word}: encoding differs from the reference")
        if kind == "conj" and not cyclic_equal(decode(rows), decode(ref)):
            if word[0] not in self.reference["conj_mismatch"].get(expect, ""):
                problems.append(f"trace {word}: conjugate encoding is not a rotation of {expect}'s")
        return bool(problems), problems

    def final_checks(self):
        return []

    def extra_metrics(self):
        """Fuchsian kernel probes."""
        import extras

        return extras.fuchsian_probes(self.seed)

    def span_targets(self):
        # every span is opened by trace_op around its own public calls
        return ()

    def layer_metrics(self, by_tag, results):
        """``layer_metrics`` plus the conjugates whose encoding is not a
        rotation of their base word's (a tracer defect kept as recorded)."""
        from hitchin.tracer import cyclic_equal

        out = layer_metrics(by_tag, results)
        encodings = self.reference["encodings"]
        out["tracer.conj_mismatch"] = sum(
            1
            for (kind, _word, base), ok, output, _reason in results
            if kind == "conj"
            and ok
            and output[0] == "curve"
            and not cyclic_equal(decode(output[1]), decode(encodings[base]))
        )
        return out

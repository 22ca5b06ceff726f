"""Deterministic generators for the algebra families used in tests and `gen`.

Branch arrows are named a<i>_<j> (branch i, position j) so golden files
stay reproducible; linear quivers and cycles use a1, a2, ... along the
walk.  Random generation is a pure function of its seed.
"""

import random
from fractions import Fraction

from .errors import ValidationError
from .ideal import IdealSpec
from .linalg import QQ
from .quiver import PathExpr, Quiver

# Every family size above this is refused before anything is built.
MAX_SIZE = 1000
# Sizes multiply, so every family also refuses, before it builds the
# generators, a document with more arrow names than this: each arrow once
# and each arrow of every generator term.  A cycle has n + n * d names, an
# rsz document its arrows plus 2 * sum over v of in(v) * out(v).
MAX_NAMES = 100_000


def _check_size(what, *sizes):
    if max(sizes) > MAX_SIZE:
        raise ValidationError(f"{what} must be <= {MAX_SIZE}")


def _check_names(count):
    if count > MAX_NAMES:
        raise ValidationError(
            f"the document would hold {count} arrow names, more than {MAX_NAMES}")


class CanonicalSpec:
    """Weights n_1..n_t (t >= 2) and pairwise distinct nonzero lambdas."""

    def __init__(self, weights, lambdas):
        if len(weights) < 2 or any(n < 1 for n in weights):
            raise ValidationError("need at least two weights, all >= 1")
        if len(lambdas) != len(weights) - 2:
            raise ValidationError(
                f"{len(weights)} weights need exactly "
                f"{len(weights) - 2} lambdas"
            )
        values = [Fraction(l) for l in lambdas]
        if any(v == 0 for v in values):
            raise ValidationError("lambdas must be nonzero")
        if len(set(values)) != len(values):
            raise ValidationError("lambdas must be pairwise distinct")
        self.weights = weights
        self.lambdas = lambdas


def gen_linear(n, relations=()):
    """The linear quiver on n vertices with monomial generators.

    relations: iterable of (start, length) pairs, 1-based on arrows, so
    (1, 2) is the product of the first two arrows.
    """
    if n < 1:
        raise ValidationError("need at least one vertex")
    _check_size("vertex count", n)
    relations = sorted(relations)
    for start, length in relations:
        if length < 2 or start < 1 or start + length - 1 > n - 1:
            raise ValidationError(f"relation ({start}, {length}) does not fit in "
                                  f"the {n - 1} arrows of the linear quiver")
    _check_names(n - 1 + sum(length for _, length in relations))
    vertices = [str(i) for i in range(1, n + 1)]
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)]
    quiver = Quiver(vertices, arrows)
    generators = []
    for start, length in relations:
        path = quiver.path([f"a{i}" for i in range(start, start + length)])
        generators.append(PathExpr.from_path(path, QQ.one))
    return quiver, IdealSpec(generators)


def gen_cycle(n, d):
    """The oriented n-cycle with every length-d path as a generator."""
    if n < 1:
        raise ValidationError("need at least one vertex")
    if d < 2:
        raise ValidationError("generator length must be >= 2")
    _check_size("vertex count and generator length", n, d)
    _check_names(n + n * d)
    vertices = [str(i) for i in range(1, n + 1)]
    arrows = [(f"a{i}", str(i), str(i % n + 1)) for i in range(1, n + 1)]
    quiver = Quiver(vertices, arrows)
    generators = []
    for start in range(1, n + 1):
        names = [f"a{(start + k - 1) % n + 1}" for k in range(d)]
        path = quiver.path(names)
        generators.append(PathExpr.from_path(path, QQ.one))
    return quiver, IdealSpec(generators)


def _check_branches(lengths):
    if not lengths or any(n < 1 for n in lengths):
        raise ValidationError("branch lengths must all be >= 1")
    _check_size("branch lengths and the branch count", len(lengths), *lengths)


def _branch_quiver(lengths):
    """Toupie quiver with the given, checked branch lengths; returns branch arrow names."""
    vertices = ["0"]
    arrows = []
    branches = []
    for i, n in enumerate(lengths, start=1):
        previous = "0"
        names = []
        for j in range(1, n + 1):
            target = "w" if j == n else f"v{i}_{j}"
            if target != "w":
                vertices.append(target)
            name = f"a{i}_{j}"
            arrows.append((name, previous, target))
            names.append(name)
            previous = target
        branches.append(tuple(names))
    vertices.append("w")
    return Quiver(vertices, arrows), branches


def gen_canonical(spec: CanonicalSpec):
    """Canonical algebra: branch i minus lambda_i branch 2 minus branch 1 shape."""
    weights = spec.weights
    _check_branches(weights)
    _check_names(sum(weights) + sum(weights[0] + weights[1] + n for n in weights[2:]))
    quiver, branches = _branch_quiver(weights)
    generators = []
    one = QQ.one
    for i, lam in enumerate(spec.lambdas, start=3):
        expr = PathExpr({
            quiver.path(branches[0]): one,
            quiver.path(branches[1]): -QQ.coerce(Fraction(lam)),
            quiver.path(branches[i - 1]): -one,
        })
        generators.append(expr)
    return quiver, IdealSpec(generators)


def gen_toupie(lengths, monomial_relations=(), linear_relations=()):
    """General toupie algebra.

    monomial_relations: (branch, start, length) triples, 1-based.
    linear_relations: coefficient sequences over the branches; the
    commutative diamond is two branches with the single relation (1, -1).
    """
    _check_branches(lengths)
    monomial_relations = sorted(monomial_relations)
    for branch, start, length in monomial_relations:
        if not 1 <= branch <= len(lengths):
            raise ValidationError(f"no branch {branch}")
        if length < 2 or start < 1 or start + length - 1 > lengths[branch - 1]:
            raise ValidationError(
                f"monomial relation ({branch}, {start}, {length}) does not fit"
            )
    linear = []
    for coefficients in linear_relations:
        coefficients = list(coefficients)
        if len(coefficients) != len(lengths):
            raise ValidationError(
                f"linear relation needs {len(lengths)} coefficients, "
                f"got {len(coefficients)}"
            )
        values = [QQ.coerce(Fraction(coeff)) for coeff in coefficients]
        if not any(values):
            raise ValidationError("linear relation with all zero coefficients")
        linear.append(values)
    _check_names(sum(lengths) + sum(length for _, _, length in monomial_relations)
                 + sum(n for values in linear for n, value in zip(lengths, values) if value))
    quiver, branches = _branch_quiver(lengths)
    generators = []
    for branch, start, length in monomial_relations:
        path = quiver.path(list(branches[branch - 1][start - 1:start + length - 1]))
        generators.append(PathExpr.from_path(path, QQ.one))
    for values in linear:
        generators.append(PathExpr({quiver.path(names): value
                                    for names, value in zip(branches, values) if value}))
    return quiver, IdealSpec(generators)


def gen_radical_square_zero(quiver: Quiver):
    """The same quiver with every composable length-2 path as a generator."""
    _check_names(len(quiver.arrows) + 2 * sum(
        len(quiver.in_arrows[v]) * len(quiver.out_arrows[v]) for v in quiver.vertices))
    generators = []
    for a in quiver.arrows:
        for b in quiver.out_arrows[a.target]:
            path = quiver.path([a.name, b.name])
            generators.append(PathExpr.from_path(path, QQ.one))
    return quiver, IdealSpec(generators)


REGIMES = ("acyclic-monomial", "rsz", "string-quadratic")


def gen_random(seed, vertex_bound, arrow_bound, regime):
    """Seed-deterministic random instance for the requested regime.

    Always connected.  The generators are paths of length 2-4 with
    coefficient 1, on a quiver that is acyclic, or loop-free with every
    length-2 path killed in the rsz regime (directed 2-cycles may occur).
    So it always passes validate and compute_bound.
    """
    if regime not in REGIMES:
        raise ValidationError(f"unknown regime {regime!r}; choose from {REGIMES}")
    if vertex_bound < 2 or arrow_bound < 1:
        raise ValidationError("vertex bound must be >= 2 and arrow bound >= 1")
    _check_size("vertex and arrow bounds", vertex_bound, arrow_bound)
    rng = random.Random(f"{regime}/{vertex_bound}/{arrow_bound}/{seed}")
    for _ in range(200):
        built = _try_random(rng, vertex_bound, arrow_bound, regime)
        if built is not None:
            return built
    # A draw fails only when a spanning-tree anchor has no room left, which
    # a large vertex count makes likely.  This last draw picks each anchor
    # among the vertices with room, so it cannot fail.
    return _try_random(rng, vertex_bound, arrow_bound, regime, anchor_with_room=True)


def _try_random(rng, vertex_bound, arrow_bound, regime, anchor_with_room=False):
    # the spanning tree alone uses n - 1 arrows, so n respects both bounds
    n = rng.randint(2, min(vertex_bound, arrow_bound + 1))
    vertices = [str(i) for i in range(1, n + 1)]
    acyclic = regime != "rsz"
    max_degree = 2 if regime == "string-quadratic" else None

    arrows = []
    out_count = {v: 0 for v in vertices}
    in_count = {v: 0 for v in vertices}

    def room(source, target):
        if max_degree is None:
            return True
        return out_count[source] < max_degree and in_count[target] < max_degree

    def add(source, target):
        arrows.append((f"a{len(arrows) + 1}", source, target))
        out_count[source] += 1
        in_count[target] += 1

    # Spanning-tree attachment keeps the quiver connected.
    for i in range(1, n):
        new = vertices[i]
        if anchor_with_room:
            anchor = rng.choice([u for u in vertices[:i] if room(u, new)])
        else:
            anchor = vertices[rng.randrange(i)]
        if acyclic:
            source, target = anchor, new
        else:
            source, target = (anchor, new) if rng.random() < 0.5 else (new, anchor)
        if not room(source, target):
            return None
        add(source, target)

    total = rng.randint(n - 1, arrow_bound)
    for _ in range(total - (n - 1)):
        for _ in range(20):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            if acyclic and i > j:
                i, j = j, i
            source, target = vertices[i], vertices[j]
            if room(source, target):
                add(source, target)
                break

    quiver = Quiver(vertices, arrows)
    if regime == "rsz":
        return gen_radical_square_zero(quiver)
    if regime == "acyclic-monomial":
        candidates = [p for p in quiver.enumerate_paths(4) if len(p) >= 2]
        count = min(len(candidates), rng.randint(0, 3))
        chosen = sorted(rng.sample(range(len(candidates)), count))
        generators = [PathExpr.from_path(candidates[k], QQ.one) for k in chosen]
        return quiver, IdealSpec(generators)

    # string-quadratic: at every vertex, keep a random partial matching of
    # surviving in/out compositions and forbid the rest; this satisfies the
    # one-continuation condition on both sides by construction.
    generators = []
    for v in vertices:
        ins = [a for a in quiver.in_arrows[v]]
        outs = [a for a in quiver.out_arrows[v]]
        shuffled_outs = outs[:]
        rng.shuffle(shuffled_outs)
        allowed = set()
        for a, b in zip(ins, shuffled_outs):
            if rng.random() < 0.6:
                allowed.add((a.name, b.name))
        for a in ins:
            for b in outs:
                if (a.name, b.name) not in allowed:
                    generators.append(
                        PathExpr.from_path(quiver.path([a.name, b.name]), QQ.one)
                    )
    return quiver, IdealSpec(generators)

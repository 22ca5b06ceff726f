"""Hypothesis strategies for bound quivers.

`small_quivers` draws connected quivers with loops and parallel arrows,
and `renamed_quivers` the same with vertices and arrows declared out of
name order.
`random_algebras` draws `families.gen_random` instances, whose ideals are
monomial, over Q, F_2, F_3 and F_5.  `mixed_algebras` draws toupies with
monomial and linear relations, canonical algebras with rational lambdas
and grids of (possibly scaled) commutativity squares, over Q, F_5 and
F_7, with coefficients that p may divide, so a generator can be zero in
the drawn field.
"""

from fractions import Fraction

from hypothesis import strategies as st

from frobq.families import REGIMES, CanonicalSpec, gen_canonical, gen_random, gen_toupie
from frobq.ideal import IdealSpec
from frobq.linalg import QQ, PrimeField
from frobq.quiver import PathExpr, Quiver

FIELDS = (QQ, PrimeField(5), PrimeField(7))
MONOMIAL_FIELDS = (QQ, PrimeField(2), PrimeField(3), PrimeField(5))

# Nonzero over Q; 5, 7 and their multiples vanish over F_5 or F_7.
coefficients = st.one_of(st.integers(-3, 3).filter(bool),
                         st.sampled_from((5, -5, 7, -7, 10, 14, 35)))
# Denominators 2 and 3 stay invertible over F_5 and F_7.
rationals = st.builds(Fraction, coefficients, st.sampled_from((1, 2, 3)))


@st.composite
def toupies(draw):
    """A toupie with monomial relations inside branches and linear ones across them."""
    lengths = draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
    monomial = set()
    for _ in range(draw(st.integers(0, 2))):
        branch = draw(st.integers(1, len(lengths)))
        length = draw(st.integers(2, lengths[branch - 1]))
        start = draw(st.integers(1, lengths[branch - 1] - length + 1))
        monomial.add((branch, start, length))
    linear = draw(st.lists(st.lists(st.one_of(st.just(0), rationals), min_size=len(lengths),
                                    max_size=len(lengths)).filter(any), max_size=2))
    return gen_toupie(lengths, sorted(monomial), linear), bool(monomial)


@st.composite
def canonical_algebras(draw):
    weights = draw(st.lists(st.integers(2, 4), min_size=3, max_size=4))
    lambdas = draw(st.lists(rationals, min_size=len(weights) - 2, max_size=len(weights) - 2,
                            unique=True))
    return gen_canonical(CanonicalSpec(weights, lambdas))


@st.composite
def square_grids(draw):
    """An m x n grid of vertices; each drawn square says h*v = c v*h."""
    m, n = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    vertices = [f"{i},{j}" for i in range(m) for j in range(n)]
    arrows = [(f"h{i}{j}", f"{i},{j}", f"{i},{j + 1}") for i in range(m) for j in range(n - 1)]
    arrows += [(f"v{i}{j}", f"{i},{j}", f"{i + 1},{j}") for i in range(m - 1) for j in range(n)]
    q = Quiver(vertices, arrows)
    generators = []
    for i in range(m - 1):
        for j in range(n - 1):
            if draw(st.booleans()):
                c = draw(rationals)
                generators.append(PathExpr({q.path([f"h{i}{j}", f"v{i}{j + 1}"]): 1,
                                            q.path([f"v{i}{j}", f"h{i + 1}{j}"]): -c}))
    return q, IdealSpec(generators)


@st.composite
def small_quivers(draw):
    """A connected quiver on 1-4 vertices: a random spanning tree of
    arrows, then up to 4 more arrows, loops and parallel arrows allowed."""
    vertices = [str(i) for i in range(draw(st.integers(1, 4)))]
    ends = []
    for i in range(1, len(vertices)):
        j = draw(st.integers(0, i - 1))
        ends.append((vertices[i], vertices[j]) if draw(st.booleans())
                    else (vertices[j], vertices[i]))
    ends += draw(st.lists(st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)),
                          max_size=4))
    return Quiver(vertices, [(f"a{k}", s, t) for k, (s, t) in enumerate(ends)])


@st.composite
def renamed_quivers(draw):
    """A small_quivers draw that declares its vertices in shuffled order and
    whose arrows get their names in shuffled order, so that document order
    and name order differ."""
    quiver = draw(small_quivers())
    names = draw(st.permutations([f"a{k}" for k in range(len(quiver.arrows))]))
    return Quiver(draw(st.permutations(quiver.vertices)),
                  [(name, a.source, a.target) for name, a in zip(names, quiver.arrows)])


def random_algebras():
    """(quiver, ideal, field): gen_random(seed, 6, 8, regime) over a drawn field."""
    return st.builds(lambda seed, regime, field: (*gen_random(seed, 6, 8, regime), field),
                     st.integers(0, 10 ** 6), st.sampled_from(REGIMES),
                     st.sampled_from(MONOMIAL_FIELDS))


def mixed_algebras():
    """(quiver, ideal, field, toupie with a monomial relation?) over Q, F_5 or F_7."""
    toupie = toupies().map(lambda drawn: (*drawn[0], drawn[1]))
    other = st.one_of(canonical_algebras(), square_grids()).map(lambda qi: (*qi, False))
    return st.builds(lambda algebra, field: (algebra[0], algebra[1], field, algebra[2]),
                     st.one_of(toupie, other), st.sampled_from(FIELDS))


def has_zero_generator(ideal, field):
    """True when every coefficient of some generator vanishes in field;
    compute_basis refuses such an ideal."""
    return not all(any(map(field.coerce, g.terms.values())) for g in ideal.generators)

"""Quivers, paths and formal linear combinations of parallel paths.

A quiver is a finite directed multigraph; loops and parallel arrows are
allowed, but the underlying undirected graph must be connected.  Paths
compose left to right: in a product ``p * q`` the path ``p`` is walked
first, so consecutive arrows satisfy ``target(a_k) == source(a_{k+1})``.
Every value in this module is immutable and safe to share.
"""

from .errors import ValidationError, shorten

_set = object.__setattr__


class _Frozen:
    """Fields in ``__slots__`` that are set once; repr and pickling follow them.

    Not a frozen dataclass: importing ``dataclasses`` pulls in ``inspect``
    and ``ast``, which cost each process start more than this module does.
    Equality and hashing stay in each subclass, on its own fields.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Arrow(_Frozen):
    __slots__ = ("name", "source", "target")

    def __init__(self, name, source, target):
        _set(self, "name", name)
        _set(self, "source", source)
        _set(self, "target", target)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name == other.name and self.source == other.source
                and self.target == other.target)

    def __hash__(self):
        return hash((self.name, self.source, self.target))


class Path(_Frozen):
    """A composable arrow sequence; empty sequences are trivial paths e_v."""

    __slots__ = ("source", "target", "arrows")

    def __init__(self, source, target, arrows):
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "arrows", arrows)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.arrows == other.arrows and self.source == other.source
                and self.target == other.target)

    def __hash__(self):
        # Equal paths have equal arrows and source; in one quiver a nonempty
        # word fixes both ends, so leaving the ends out adds no collisions.
        return hash(self.arrows or self.source)

    def __len__(self):
        return len(self.arrows)

    @property
    def is_trivial(self):
        return not self.arrows

    def sort_key(self):
        """Canonical path order: length first, then arrow names lexicographically."""
        return (len(self.arrows), self.arrows)

    def __str__(self):
        if not self.arrows:
            return f"e_{self.source}"
        return "*".join(self.arrows)


class Quiver:
    """A finite connected quiver with named vertices and arrows."""

    def __init__(self, vertices, arrows):
        vertices = tuple(vertices)
        arrows = tuple(Arrow(*a) if not isinstance(a, Arrow) else a for a in arrows)
        seen = set()
        for i, v in enumerate(vertices):
            if not isinstance(v, str) or not v:
                raise ValidationError(f"vertex identifier must be a non-empty string: {v!r}")
            if v in seen:
                raise ValidationError(f"duplicate vertex identifier: {shorten(v)}", ("vertex", i))
            seen.add(v)
        names = set()
        for i, a in enumerate(arrows):
            if not isinstance(a.name, str) or not a.name:
                raise ValidationError(f"arrow identifier must be a non-empty string: {a.name!r}")
            if a.name in names:
                raise ValidationError(f"duplicate arrow identifier: {shorten(a.name)}",
                                      ("arrow", i, 0))
            names.add(a.name)
            if a.source not in seen:
                raise ValidationError(
                    f"arrow {shorten(a.name)}: unknown source vertex {shorten(a.source)}",
                    ("arrow", i, 1))
            if a.target not in seen:
                raise ValidationError(
                    f"arrow {shorten(a.name)}: unknown target vertex {shorten(a.target)}",
                    ("arrow", i, 2))
        self.vertices = vertices
        self.arrows = arrows
        self.arrow_by_name = {a.name: a for a in arrows}
        self.out_arrows = {v: [] for v in vertices}
        self.in_arrows = {v: [] for v in vertices}
        for a in arrows:
            self.out_arrows[a.source].append(a)
            self.in_arrows[a.target].append(a)
        self._check_connected()

    def _check_connected(self):
        if not self.vertices:
            raise ValidationError("quiver must have at least one vertex")
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            v = stack.pop()
            for a in self.out_arrows[v] + self.in_arrows[v]:
                for w in (a.source, a.target):
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        if len(seen) != len(self.vertices):
            missing = [v for v in self.vertices if v not in seen]
            raise ValidationError(
                f"quiver is not connected; unreachable vertices: {', '.join(missing)}"
            )

    def trivial_path(self, v):
        if v not in self.out_arrows:
            raise ValidationError(f"unknown vertex: {shorten(v)}")
        return Path(v, v, ())

    def path(self, arrow_names):
        """Build a Path from an arrow name sequence, checking composability."""
        arrow_names = tuple(arrow_names)
        if not arrow_names:
            raise ValidationError("cannot build a trivial path from an empty arrow list "
                                  "without a vertex; use trivial_path")
        arrows = []
        for name in arrow_names:
            a = self.arrow_by_name.get(name)
            if a is None:
                raise ValidationError(f"unknown arrow: {shorten(name)}")
            arrows.append(a)
        for left, right in zip(arrows, arrows[1:]):
            if left.target != right.source:
                raise ValidationError(
                    f"arrows do not compose: {shorten(left.name)} ends at "
                    f"{shorten(left.target)}, {shorten(right.name)} starts at "
                    f"{shorten(right.source)}"
                )
        return Path(arrows[0].source, arrows[-1].target, arrow_names)

    def has_path(self, p):
        """True when p's arrows are arrows of this quiver that compose from
        p.source to p.target; a trivial p needs a vertex of this quiver."""
        if p.is_trivial:
            return p.source == p.target and p.source in self.out_arrows
        at = p.source
        for name in p.arrows:
            a = self.arrow_by_name.get(name)
            if a is None or a.source != at:
                return False
            at = a.target
        return at == p.target

    def degrees(self, v):
        """(indegree, outdegree) of a vertex; a loop counts once in each."""
        if v not in self.out_arrows:
            raise ValidationError(f"unknown vertex: {shorten(v)}")
        return (len(self.in_arrows[v]), len(self.out_arrows[v]))

    def enumerate_paths(self, max_len):
        """All paths of length <= max_len in canonical order: length ascending,
        then lexicographic on the arrow names; downstream bases and pivots
        inherit it.  No layer is sorted: layer 1 is the arrows by name, and
        each later one extends the one before in order, each path by the
        arrows at its end by name.  A layer's paths share one length, so it
        is in sort_key order.
        """
        if max_len < 0:
            raise ValidationError("max_len must be >= 0")
        result = [self.trivial_path(v) for v in sorted(self.vertices)]
        arrows = sorted(self.arrows, key=lambda a: a.name)
        after = {v: [] for v in self.vertices}
        for a in arrows:
            after[a.source].append((a.name, a.target))
        layer = [Path(a.source, a.target, (a.name,)) for a in arrows] if max_len else []
        while layer:
            result += layer
            if len(layer[0].arrows) == max_len:
                break
            layer = [Path(p.source, target, p.arrows + (name,))
                     for p in layer for name, target in after[p.target]]
        return result


class PathExpr:
    """A finite linear combination of parallel paths.

    The zero expression has no terms.  Any nonzero expression must be
    parallel: all paths share one source and one target.
    """

    def __init__(self, terms):
        cleaned = {}
        for path, coeff in terms.items() if isinstance(terms, dict) else terms:
            if coeff == 0:
                continue
            if path in cleaned:
                coeff = cleaned[path] + coeff
                if coeff == 0:
                    del cleaned[path]
                    continue
            cleaned[path] = coeff
        if len(cleaned) > 1:  # one term is parallel and sorted already
            first = next(iter(cleaned))
            for p in cleaned:
                if p.source != first.source or p.target != first.target:
                    raise ValidationError(
                        f"non-parallel combination: {first} is {first.source}->"
                        f"{first.target} but {p} is {p.source}->{p.target}"
                    )
            cleaned = dict(sorted(cleaned.items(), key=lambda kv: kv[0].sort_key()))
        self.terms = cleaned

    @classmethod
    def from_path(cls, path, coeff):
        return cls({path: coeff})

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_monomial(self):
        return len(self.terms) == 1

    def source(self):
        return next(iter(self.terms)).source if self.terms else None

    def target(self):
        return next(iter(self.terms)).target if self.terms else None

    def __eq__(self, other):
        return isinstance(other, PathExpr) and self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for path, coeff in self.terms.items():
            parts.append(f"{coeff}*{path}" if coeff != 1 else str(path))
        return " + ".join(parts)

import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from frobq.errors import ValidationError
from frobq.ideal import longest_surviving_walk
from frobq.quiver import Arrow, Path, PathExpr, Quiver

from algebra_ops import compose
from strategies import renamed_quivers


def linear(n):
    vertices = [str(i) for i in range(1, n + 1)]
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)]
    return Quiver(vertices, arrows)


LOOP = Quiver(["p"], [("x", "p", "p")])
KRONECKER = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
CYCLE3 = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")])


class TestConstruction:
    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ValidationError):
            Quiver(["1", "1"], [])

    def test_duplicate_arrow_rejected(self):
        with pytest.raises(ValidationError):
            Quiver(["1", "2"], [("a", "1", "2"), ("a", "2", "1")])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValidationError):
            Quiver(["1"], [("a", "1", "7")])

    def test_disconnected_rejected(self):
        with pytest.raises(ValidationError, match="not connected"):
            Quiver(["1", "2", "3"], [("a", "1", "2")])

    def test_loops_and_parallel_arrows_allowed(self):
        Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2"), ("l", "2", "2")])

    def test_single_vertex_is_connected(self):
        Quiver(["p"], [])


class TestCompose:
    def test_chain(self):
        q = linear(3)
        p = compose(q.path(["a1"]), q.path(["a2"]))
        assert p == Path("1", "3", ("a1", "a2"))

    def test_mismatched_endpoints_give_none(self):
        q = Quiver(["1", "2", "3", "4"],
                   [("a", "1", "2"), ("m", "2", "3"), ("g", "3", "4")])
        assert compose(q.path(["a"]), q.path(["g"])) is None

    def test_trivial_paths_are_identities(self):
        q = linear(2)
        a = q.path(["a1"])
        assert compose(q.trivial_path("1"), a) == a
        assert compose(a, q.trivial_path("2")) == a

    @pytest.mark.parametrize("quiver", [linear(4), LOOP, CYCLE3])
    def test_associative_on_short_paths(self, quiver):
        paths = quiver.enumerate_paths(2)
        for p, q, r in itertools.product(paths, repeat=3):
            left = compose(p, q)
            right = compose(q, r)
            lhs = compose(left, r) if left is not None else None
            rhs = compose(p, right) if right is not None else None
            # Composability of the full triple must agree on both sides.
            if left is not None and right is not None:
                assert lhs == rhs


class TestTrivialPath:
    def test_length_zero(self):
        q = linear(3)
        e = q.trivial_path("2")
        assert len(e) == 0 and e.source == e.target == "2"

    def test_loop_vertex(self):
        assert LOOP.trivial_path("p").is_trivial

    def test_unknown_vertex(self):
        with pytest.raises(ValidationError, match="unknown vertex"):
            linear(3).trivial_path("7")


class TestHasPath:
    def test_valid_path(self):
        assert linear(4).has_path(Path("1", "4", ("a1", "a2", "a3")))

    def test_unknown_arrow(self):
        assert not linear(3).has_path(Path("1", "3", ("a1", "zz")))

    def test_arrows_that_do_not_compose(self):
        assert not linear(3).has_path(Path("1", "3", ("a2", "a1")))

    @pytest.mark.parametrize("source, target", [("2", "2"), ("1", "3"), ("2", "1")])
    def test_known_word_with_wrong_endpoints(self, source, target):
        assert not linear(3).has_path(Path(source, target, ("a1",)))

    def test_trivial_path_at_unknown_vertex(self):
        assert not linear(3).has_path(Path("7", "7", ()))
        assert linear(3).has_path(Path("2", "2", ()))

    def test_trivial_path_with_different_ends(self):
        assert not linear(3).has_path(Path("1", "2", ()))

    @pytest.mark.parametrize("quiver", [linear(4), LOOP, CYCLE3, KRONECKER])
    def test_every_enumerated_path(self, quiver):
        assert all(quiver.has_path(p) for p in quiver.enumerate_paths(3))


class TestValueSemantics:
    """Arrow and Path are immutable values: equal and hashed by their fields."""

    FIELDS = {Arrow: ("a", "1", "2"), Path: ("1", "3", ("a1", "a2"))}

    @pytest.mark.parametrize("cls", [Arrow, Path])
    def test_equal_fields_equal_objects(self, cls):
        fields = self.FIELDS[cls]
        assert cls(*fields) == cls(*fields)
        assert hash(cls(*fields)) == hash(cls(*fields))
        assert len({cls(*fields), cls(*fields)}) == 1

    @pytest.mark.parametrize("cls", [Arrow, Path])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_any_changed_field_is_unequal(self, cls, position):
        fields = list(self.FIELDS[cls])
        original = cls(*fields)
        fields[position] = ("b",) if isinstance(fields[position], tuple) else "9"
        assert cls(*fields) != original and not cls(*fields) == original

    @pytest.mark.parametrize("word", [(), ("a",), ("a", "b")])
    def test_equal_paths_built_apart_hash_equal(self, word):
        quiver = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
        built = quiver.path(word) if word else quiver.trivial_path("1")
        fresh = Path("1", built.target, tuple(list(word)))
        assert built == fresh and hash(built) == hash(fresh)
        assert {built: "x"}[fresh] == "x"

    def test_path_is_not_its_field_tuple(self):
        fields = self.FIELDS[Path]
        assert Path(*fields) != fields and fields != Path(*fields)
        assert Path(*fields) not in {fields: 1}

    def test_arrow_and_path_never_equal(self):
        assert Arrow("1", "2", "3") != Path("1", "2", "3")
        assert Path("1", "2", "3") != Arrow("1", "2", "3")

    @pytest.mark.parametrize("cls", [Arrow, Path])
    def test_fields_cannot_be_assigned(self, cls):
        value = cls(*self.FIELDS[cls])
        for name in value.__slots__ + ("other",):
            with pytest.raises(AttributeError):
                setattr(value, name, "x")
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert value == cls(*self.FIELDS[cls])

    @pytest.mark.parametrize("cls, text", [
        (Arrow, "Arrow(name='a', source='1', target='2')"),
        (Path, "Path(source='1', target='3', arrows=('a1', 'a2'))"),
    ])
    def test_repr_copy_and_pickle_follow_the_fields(self, cls, text):
        value = cls(*self.FIELDS[cls])
        assert repr(value) == text
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value

    def test_str_and_order(self):
        assert str(Path("1", "3", ("a1", "a2"))) == "a1*a2"
        assert str(Path("2", "2", ())) == "e_2"
        assert len(Path("1", "3", ("a1", "a2"))) == 2
        assert Path("1", "3", ("a1", "a2")).sort_key() == (2, ("a1", "a2"))
        assert Path("2", "2", ()).is_trivial and not Path("1", "2", ("a1",)).is_trivial


class TestEnumeratePaths:
    def test_linear_three_by_hand(self):
        q = linear(3)
        got = [str(p) for p in q.enumerate_paths(2)]
        assert got == ["e_1", "e_2", "e_3", "a1", "a2", "a1*a2"]

    def test_loop_powers(self):
        got = [str(p) for p in LOOP.enumerate_paths(3)]
        assert got == ["e_p", "x", "x*x", "x*x*x"]

    def test_kronecker_has_no_length_two(self):
        got = [str(p) for p in KRONECKER.enumerate_paths(2)]
        assert got == ["e_1", "e_2", "a", "b"]

    @pytest.mark.parametrize("quiver", [linear(5), KRONECKER, CYCLE3, LOOP])
    def test_no_duplicates_and_prefix_closed(self, quiver):
        paths = quiver.enumerate_paths(4)
        assert len(set(paths)) == len(paths)
        seen = set(paths)
        for p in paths:
            for k in range(len(p)):
                prefix_arrows = p.arrows[:k]
                if prefix_arrows:
                    prefix = quiver.path(prefix_arrows)
                else:
                    prefix = quiver.trivial_path(p.source)
                assert prefix in seen


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(quiver=renamed_quivers(), max_len=st.integers(0, 3))
def test_enumerate_paths_is_every_path_in_sort_key_order(quiver, max_len):
    paths = [Path(v, v, ()) for v in quiver.vertices]
    for length in range(1, max_len + 1):
        for word in itertools.product(quiver.arrows, repeat=length):
            if all(a.target == b.source for a, b in zip(word, word[1:])):
                paths.append(Path(word[0].source, word[-1].target,
                                  tuple(a.name for a in word)))
    # Trivial paths share one sort_key and come by vertex name.
    assert quiver.enumerate_paths(max_len) == sorted(paths, key=lambda p: (p.sort_key(),
                                                                            p.source))


class TestDegreesAndCycles:
    def test_linear_middle(self):
        assert linear(3).degrees("2") == (1, 1)

    def test_out_star(self):
        q = Quiver(["p", "q1", "q2"], [("a", "p", "q1"), ("b", "p", "q2")])
        assert q.degrees("p") == (0, 2)

    def test_loop_counts_once_each_side(self):
        assert LOOP.degrees("p") == (1, 1)

    def test_unknown_vertex(self):
        with pytest.raises(ValidationError):
            LOOP.degrees("zz")

    @pytest.mark.parametrize("quiver", [linear(4), KRONECKER, CYCLE3, LOOP])
    def test_degree_sums_count_arrows(self, quiver):
        indeg = sum(quiver.degrees(v)[0] for v in quiver.vertices)
        outdeg = sum(quiver.degrees(v)[1] for v in quiver.vertices)
        assert indeg == outdeg == len(quiver.arrows)

    def test_linear_acyclic(self):
        q = linear(5)
        assert longest_surviving_walk(q, ()) == 4

    def test_loop_cyclic(self):
        assert longest_surviving_walk(LOOP, ()) is None

    def test_oriented_cycle_cyclic(self):
        assert longest_surviving_walk(CYCLE3, ()) is None


class TestPathExpr:
    def test_parallel_enforced(self):
        q = linear(3)
        with pytest.raises(ValidationError, match="non-parallel"):
            PathExpr({q.path(["a1"]): 1, q.path(["a2"]): 1})

    def test_zero_is_empty(self):
        assert PathExpr({}).is_zero

    def test_cancellation(self):
        q = linear(3)
        p = q.path(["a1", "a2"])
        assert PathExpr([(p, 1), (p, -1)]).is_zero

import math

import pytest
from hypothesis import given, strategies as st

import seed_algorithms as seed

from helpers import cap, compose, cup, full_to_unit, is_function, is_partial_function, \
    is_surjective, is_total, pack_rel, product, product_alphabet, rel_equals, subset_as_copoint, \
    subset_as_point, rel, subset_of, transpose
from relmach.relcore import UNIT, UNIT_OBJ, Alphabet, MachineError, Obj, TypeMismatch, \
    comma_prefixed, identity, obj, pack_obj, pair_symbol, swap
from relmach.transducer import UniformRelationSample

B2 = Alphabet("2", ("0", "1"))
NOT = rel(obj(B2), obj(B2), {(("0",), ("1",)), (("1",), ("0",))})


def pairs(r):
    return set(r.pairs)


def test_alphabet_rejects_duplicates():
    with pytest.raises(MachineError):
        Alphabet("bad", ("x", "x"))


def test_compose_not_not_is_identity():
    assert rel_equals(compose(NOT, NOT), identity(obj(B2)))


def test_compose_empty_annihilates():
    empty = rel(obj(B2), obj(B2), set())
    assert compose(empty, NOT).pairs == frozenset()
    assert compose(NOT, empty).pairs == frozenset()


def test_compose_enumerates_middles():
    r = rel(obj(B2), obj(B2), {(("0",), ("0",)), (("0",), ("1",))})
    s = rel(obj(B2), obj(B2), {(("1",), ("0",))})
    assert pairs(compose(r, s)) == {(("0",), ("0",))}


def test_compose_type_mismatch():
    three = Alphabet("3", ("0", "1", "2"))
    with pytest.raises(TypeMismatch):
        compose(NOT, identity(obj(three)))


def test_product_identities():
    A = Alphabet("A", ("a",))
    assert rel_equals(product(identity(obj(B2)), identity(obj(A))), identity(obj(B2, A)))


def test_product_with_empty():
    empty = rel(obj(B2), obj(B2), set())
    assert product(NOT, empty).pairs == frozenset()


def test_product_not_not():
    got = pairs(product(NOT, NOT))
    assert got == {
        (("0", "0"), ("1", "1")),
        (("0", "1"), ("1", "0")),
        (("1", "0"), ("0", "1")),
        (("1", "1"), ("0", "0")),
    }


def test_transpose_examples():
    r = rel(obj(B2), obj(B2), {(("0",), ("1",))})
    assert pairs(transpose(r)) == {(("1",), ("0",))}
    assert rel_equals(transpose(identity(obj(B2))), identity(obj(B2)))
    r2 = rel(obj(B2), obj(B2), {(("0",), ("0",)), (("0",), ("1",))})
    assert rel_equals(transpose(transpose(r2)), r2)


def test_cup_cap_and_snake():
    A = Alphabet("A", ("a", "b"))
    assert pairs(cup(A)) == {((), ("a", "a")), ((), ("b", "b"))}
    # snake: (id × cap) ∘ (cup × id) = id
    lhs = compose(product(cup(A), identity(obj(A))), product(identity(obj(A)), cap(A)))
    assert rel_equals(lhs, identity(obj(A)))


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_snake_equations_all_sizes(size):
    A = Alphabet("A", tuple(f"x{i}" for i in range(size)))
    idA = identity(obj(A))
    left = compose(product(cup(A), idA), product(idA, cap(A)))
    right = compose(product(idA, cup(A)), product(cap(A), idA))
    assert rel_equals(left, idA)
    assert rel_equals(right, idA)


def test_full_to_unit():
    A = Alphabet("A", ("a", "b"))
    assert pairs(full_to_unit(obj(A))) == {(("a",), ()), (("b",), ())}


def test_predicates():
    assert is_function(NOT)
    assert not is_partial_function(rel(obj(B2), obj(B2), {(("0",), ("0",)), (("0",), ("1",))}))
    assert subset_of(rel(obj(B2), obj(B2), {(("0",), ("0",))}), identity(obj(B2)))
    assert is_total(identity(obj(B2)))
    assert is_surjective(identity(obj(B2)))
    assert not is_total(rel(obj(B2), obj(B2), {(("0",), ("0",))}))


def test_points_and_copoints():
    Q = Alphabet("Q", ("p", "q"))
    assert pairs(subset_as_point(Q, {"p"})) == {((), ("p",))}
    assert subset_as_copoint(Q, set()).pairs == frozenset()
    meet = compose(subset_as_point(Q, {"p", "q"}), subset_as_copoint(Q, {"q"}))
    assert pairs(meet) == {((), ())}
    with pytest.raises(MachineError):
        subset_as_point(Q, {"zz"})


def test_unit_wire_is_dropped():
    assert obj(UNIT, B2).flat == (B2,)
    assert list(obj(UNIT).tuples()) == [()]
    assert rel_equals(identity(obj(UNIT)), identity(UNIT_OBJ))


def test_pack_obj_and_rel():
    A = Alphabet("A", ("a", "b"))
    packed = pack_obj(obj(A, B2))
    assert packed.elements == ("(a,0)", "(a,1)", "(b,0)", "(b,1)")
    assert pack_obj(obj(A)) == A
    assert pack_obj(UNIT_OBJ) == UNIT
    r = rel(obj(A, B2), UNIT_OBJ, {(("a", "1"), ())})
    packed_r = pack_rel(r)
    assert pairs(packed_r) == {(("(a,1)",), ())}


def test_packed_names_with_commas_are_distinct():
    # "(a,b,c)" named both (a, "b,c") and ("a,b", c), a duplicate element
    A = Alphabet("A", ("a", "a,b"))
    B = Alphabet("B", ("b,c", "c"))
    packed = pack_obj(obj(A, B))
    assert packed.elements == ("(a,b\\,c)", "(a,c)", "(a\\,b,b\\,c)", "(a\\,b,c)")
    assert product_alphabet(A, B) == packed
    pair = pair_symbol(A, B)
    assert tuple(pair(x, y) for x in A.elements for y in B.elements) == packed.elements


@given(st.lists(st.lists(st.text("ab,\\", max_size=4), min_size=1, max_size=3, unique=True),
                min_size=2, max_size=3))
def test_packed_names_are_injective(elements):
    wires = tuple(Alphabet(f"W{i}", tuple(e)) for i, e in enumerate(elements))
    o = Obj(wires)
    packed = pack_obj(o)  # an Alphabet refuses a repeated element
    assert len(packed) == math.prod(map(len, elements))
    if not any(map(comma_prefixed, wires)):  # the names are those joined by commas
        assert packed.elements == tuple("(" + ",".join(t) + ")" for t in o.tuples())
    pair = pair_symbol(*wires[:2])
    assert tuple(pair(x, y) for x in elements[0] for y in elements[1]) == \
        product_alphabet(*wires[:2]).elements


# -- algebraic laws, on small random relations ------------------------------

alphabets = st.sampled_from([
    Alphabet("A", ("a",)),
    Alphabet("B", ("0", "1")),
    Alphabet("C", ("x", "y", "z")),
])


@st.composite
def relation(draw, dom=None, cod=None):
    dom = dom if dom is not None else obj(draw(alphabets))
    cod = cod if cod is not None else obj(draw(alphabets))
    space = [(x, y) for x in dom.tuples() for y in cod.tuples()]
    chosen = draw(st.sets(st.sampled_from(space))) if space else set()
    return rel(dom, cod, chosen)


@st.composite
def composable_triple(draw):
    a, b, c, d = (obj(draw(alphabets)) for _ in range(4))
    return draw(relation(a, b)), draw(relation(b, c)), draw(relation(c, d))


@given(composable_triple())
def test_compose_associative(rs):
    r, s, t = rs
    assert rel_equals(compose(compose(r, s), t), compose(r, compose(s, t)))


@given(relation())
def test_compose_unit_laws(r):
    assert rel_equals(compose(identity(r.dom), r), r)
    assert rel_equals(compose(r, identity(r.cod)), r)


@st.composite
def bifunctorial_quad(draw):
    a, b, c = (obj(draw(alphabets)) for _ in range(3))
    d, e, f = (obj(draw(alphabets)) for _ in range(3))
    return (draw(relation(a, b)), draw(relation(b, c)),
            draw(relation(d, e)), draw(relation(e, f)))


@given(bifunctorial_quad())
def test_bifunctoriality(rs):
    r1, r2, s1, s2 = rs
    lhs = product(compose(r1, r2), compose(s1, s2))
    rhs = compose(product(r1, s1), product(r2, s2))
    assert rel_equals(lhs, rhs)


@given(relation(), relation())
def test_swap_naturality(r, s):
    a = r.dom.flat[0] if r.dom.flat else UNIT
    b = s.dom.flat[0] if s.dom.flat else UNIT
    c = r.cod.flat[0] if r.cod.flat else UNIT
    d = s.cod.flat[0] if s.cod.flat else UNIT
    lhs = compose(product(r, s), swap(c, d))
    rhs = compose(swap(a, b), product(s, r))
    assert rel_equals(lhs, rhs)


@given(composable_triple())
def test_transpose_antihomomorphism(rs):
    r, s, _ = rs
    assert rel_equals(transpose(compose(r, s)), compose(transpose(s), transpose(r)))


@given(relation())
def test_transpose_involution(r):
    assert rel_equals(transpose(transpose(r)), r)


@st.composite
def bundle_relation(draw):
    """A relation between bundles of 0–3 wires, unit wires among them; one
    alphabet lists its symbols out of string order."""
    wires = st.sampled_from([UNIT, Alphabet("B", ("0", "1")), Alphabet("D", ("z", "b", "m"))])
    dom, cod = (obj(*draw(st.lists(wires, max_size=3))) for _ in range(2))
    return draw(relation(dom, cod))


@given(bundle_relation())
def test_sorted_pairs_keeps_the_per_symbol_index_order(r):
    assert r.sorted_pairs() == seed.sorted_pairs(r)


# Wires whose symbols hold commas and backslashes, listed out of string order.
ESCAPED = Alphabet("E", ("b\\", "a,b", "a", ",", "\\,"))


@st.composite
def repeated_word_relation(draw):
    """A relation between bundles of 1–3 wires (unit wires among them), its
    pairs drawn from a few words on each side, so words repeat."""
    wires = st.sampled_from([UNIT, B2, Alphabet("D", ("z", "b", "m")), ESCAPED])
    dom, cod = (obj(*draw(st.lists(wires, min_size=1, max_size=3))) for _ in range(2))
    words = [draw(st.lists(st.sampled_from(list(o.tuples())), min_size=1, max_size=4)) for o in (dom, cod)]
    chosen = draw(st.sets(st.tuples(st.sampled_from(words[0]), st.sampled_from(words[1])), max_size=12))
    return rel(dom, cod, chosen)


@given(repeated_word_relation())
def test_grouped_pair_order_is_the_per_pair_key_order(r):
    assert r.sorted_pairs() == seed.rel_sorted_pairs(r) == seed.sorted_pairs(r)


@given(st.data())
def test_grouped_sample_order_is_the_per_pair_key_order(data):
    """Samples with words of mixed lengths, several pairs per input word."""
    draw = data.draw
    a, b = ESCAPED, Alphabet("D", ("z", "b", "m"))
    lengths = st.integers(0, 3)
    inputs = draw(st.lists(lengths.flatmap(lambda k: st.tuples(*[st.sampled_from(a.elements)] * k)),
                           min_size=1, max_size=5))
    chosen = set()
    for w in inputs:
        outputs = draw(st.lists(st.tuples(*[st.sampled_from(b.elements)] * len(w)), max_size=3))
        chosen.update((w, v) for v in outputs)
    s = UniformRelationSample(a, b, 3, frozenset(chosen))
    assert s.sorted_pairs() == seed.sample_sorted_pairs(s)

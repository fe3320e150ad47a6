"""Weight tables built by SymFunc.from_weights and written by dump_symfunc.

from_weights checks its table in one loop over the keys. The reference
below is the plain key loop: one int() per element, one Fraction() and
one comparison per weight, every key in the mapping's order. On valid and
on corrupted mappings both must agree: an equal table with the same key
order and weight type, or the same exception type and message.

random_table and power_function build their tables unchecked, as valid by
construction; from_weights must keep each such table as it is.

dump_symfunc formats each distinct element and weight once. Its output is
pinned by sha256 digests of texts written by the per-key writer it
replaced, and every text must load back to the same weights.
"""

import hashlib
from fractions import Fraction
from itertools import combinations_with_replacement
from random import Random

import pytest

from hyperhom import fixtures as fx
from hyperhom.gadgets import power_function, relation_to_symfunc
from hyperhom.model import FormatError, SymFunc, dump_symfunc, load_symfunc, marginalize, prune_domain

# ---------------------------------------------------------------------------
# reference: the per-key loop


def ref_from_weights(q, r, weights):
    if q < 1:
        raise ValueError(f"domain size must be positive, got {q}")
    if r < 3:
        raise ValueError(f"arity must be at least 3, got {r}")
    table = {}
    for key, w in weights.items():
        k = tuple(sorted(int(z) for z in key))
        if len(k) != r:
            raise ValueError(f"key {k} has arity {len(k)}, expected {r}")
        if any(z < 0 or z >= q for z in k):
            raise ValueError(f"key {k} out of domain range 0..{q - 1}")
        w = Fraction(w)
        if w < 0:
            raise ValueError(f"negative weight {w} at {k}")
        if k in table:
            raise ValueError(f"duplicate key {k}")
        if w != 0:
            table[k] = w
    return SymFunc(q, r, table)


def outcome(build, q, r, weights):
    try:
        g = build(q, r, weights)
    except Exception as exc:  # the type is compared, so none is hidden
        return ("error", type(exc), str(exc))
    return ("ok", g.q, g.r, [(k, w, type(w)) for k, w in g.weights.items()])


def assert_agree(q, r, weights):
    got = outcome(SymFunc.from_weights, q, r, weights)
    assert got == outcome(ref_from_weights, q, r, weights), (q, r, weights)
    return got[0]


# ---------------------------------------------------------------------------
# seeded mappings


class Half(Fraction):
    """A Fraction subclass: from_weights converts it, as the loop does."""


BIG = 10**4400  # past int()'s default digit limit for str()


def _element(rng, z):
    """z as int() reads it: an int, a digit string, a float or a bool."""
    spellings = [z, z, str(z), float(z)]
    if z in (0, 1):
        spellings.append(bool(z))
    return rng.choice(spellings)


def _weight(rng):
    return rng.choice([
        Fraction(rng.randint(1, 9), rng.randint(1, 4)),
        Fraction(rng.randint(1, 9), rng.randint(1, 4)),
        Fraction(0),
        rng.randint(0, 5),
        rng.choice([0.5, 2.0, 0.0]),
        rng.choice(["3/4", "2", "0", " 7/2 "]),
        Half(rng.randint(0, 3), 2),
        Fraction(BIG, 3),
    ])


def valid_mapping(rng):
    """A table with keys spelled and ordered at random and weights of every
    accepted type, zeros included; no two keys sort alike."""
    q, r = rng.randint(1, 5), rng.randint(3, 4)
    pool = list(combinations_with_replacement(range(q), r))
    weights = {}
    for key in rng.sample(pool, rng.randint(0, min(len(pool), 12))):
        key = [_element(rng, z) for z in key]
        rng.shuffle(key)
        weights[tuple(key)] = _weight(rng)
    return q, r, weights


def _insert(weights, at, key, w):
    items = list(weights.items())
    items.insert(at, (key, w))
    return dict(items)


def corrupt(rng, q, r, weights):
    """One to three corruptions, each at a random place in the mapping."""
    for _ in range(rng.randint(1, 3)):
        items = list(weights.items())
        op = rng.choice(["arity", "range", "negative", "repeat", "zero-repeat",
                         "bad-element", "bad-weight", "not-a-key"])
        at = rng.randint(0, len(items))
        keys = [k for k, _ in items if isinstance(k, tuple) and k]
        key = list(rng.choice(keys)) if keys else [0] * r
        if op == "arity":
            key = key[:-1] if rng.random() < 0.5 else key + [0]
            weights = _insert(weights, at, tuple(key), Fraction(1))
        elif op == "range":
            key[rng.randrange(len(key))] = rng.choice([-1, q, q + 3, "-2"])
            weights = _insert(weights, at, tuple(key), Fraction(1))
        elif op == "negative":
            w = rng.choice([Fraction(-1, 2), -3, "-1/3", -0.25, Half(-1, 2), -Fraction(BIG)])
            weights = _insert(weights, at, tuple(key), w)
        elif op in ("repeat", "zero-repeat"):
            # the same multiset in another order: a repeat only once sorted
            rng.shuffle(key)
            w = Fraction(0) if op == "zero-repeat" else Fraction(5, 3)
            weights = _insert(weights, at, tuple(key), w)
        elif op == "bad-element":
            key[rng.randrange(len(key))] = rng.choice(["a", None, 1.5, float("nan"), "1_0"])
            weights = _insert(weights, at, tuple(key), Fraction(1))
        elif op == "bad-weight":
            w = rng.choice(["x", "1/0", None, float("nan"), float("inf"), "1.5e3"])
            weights = _insert(weights, at, tuple(key), w)
        else:
            weights = _insert(weights, at, rng.choice([5, "abc", ()]), Fraction(1))
    return weights


def test_from_weights_agrees_on_valid_mappings():
    for seed in range(400):
        q, r, weights = valid_mapping(Random(seed))
        assert assert_agree(q, r, weights) == "ok"


def test_from_weights_agrees_on_corrupted_mappings():
    kinds = set()
    for seed in range(1500):
        rng = Random(seed)
        q, r, weights = valid_mapping(rng)
        bad = corrupt(rng, q, r, weights)
        assert_agree(q, r, bad)
        got = outcome(ref_from_weights, q, r, bad)
        kinds.add("ok" if got[0] == "ok" else got[1])
    # every outcome the loop has was reached
    assert kinds == {"ok", ValueError, TypeError, ZeroDivisionError, OverflowError}


LISTED = {
    # name: (q, r, weights)
    "empty": (2, 3, {}),
    "q-zero": (0, 3, {(0, 0, 0): 1}),
    "r-two": (2, 2, {(0, 0): 1}),
    "short-key": (3, 3, {(0, 1, 2): 1, (0, 1): 1}),
    "long-key": (3, 3, {(0, 1, 2): 1, (0, 1, 2, 2): 1}),
    "out-of-range": (3, 3, {(0, 1, 2): 1, (0, 1, 3): 1}),
    "below-range": (3, 3, {(0, 1, 2): 1, (-1, 1, 2): 1}),
    "negative": (3, 3, {(0, 1, 2): 1, (1, 1, 1): Fraction(-1, 2)}),
    "negative-past-digit-limit": (3, 3, {(1, 1, 1): -Fraction(BIG)}),
    "repeat-once-sorted": (3, 3, {(0, 1, 2): 1, (2, 1, 0): 2}),
    "repeat-nonzero-then-zero": (3, 3, {(0, 1, 2): 1, (2, 0, 1): 0}),
    "repeat-zero-then-nonzero": (3, 3, {(0, 1, 2): 0, (2, 0, 1): 1}),  # no error
    "repeat-zero-then-zero": (3, 3, {(0, 1, 2): 0, (1, 2, 0): Fraction(0)}),  # no error
    "elements-as-str-float-bool": (4, 3, {("3", 2.0, True): 1, (False, "0", 0.0): 2}),
    "bad-element-after-arity-error": (3, 3, {(0, 1): 1, ("a", 1, 2): 1}),
    "arity-error-after-bad-element": (3, 3, {("a", 1, 2): 1, (0, 1): 1}),
    "weights-int-float-str-subclass": (3, 3, {(0, 0, 0): 2, (0, 0, 1): 0.5, (0, 0, 2): "3/4",
                                              (0, 1, 1): Half(1, 2), (1, 1, 1): Half(0)}),
    "bad-weight-str": (3, 3, {(0, 0, 0): 1, (0, 0, 1): "x"}),
    "zero-denominator": (3, 3, {(0, 0, 0): "1/0"}),
    "weight-none": (3, 3, {(0, 0, 0): None}),
    "weight-inf": (3, 3, {(0, 0, 0): float("inf")}),
    "key-not-iterable": (3, 3, {(0, 0, 0): 1, 5: 1}),
}


@pytest.mark.parametrize("name", LISTED)
def test_from_weights_agrees_on_listed_mappings(name):
    assert_agree(*LISTED[name])


@pytest.mark.parametrize("name", ["repeat-zero-then-nonzero", "repeat-zero-then-zero"])
def test_a_zero_weight_claims_no_key(name):
    q, r, weights = LISTED[name]
    assert outcome(SymFunc.from_weights, q, r, weights)[0] == "ok"


def dense_mapping(seed, q, r):
    """The mapping fixtures.random_table builds: about 70% of all keys."""
    rng = Random(seed)
    return {key: fx._random_rational(rng)
            for key in combinations_with_replacement(range(q), r) if rng.random() >= 0.3}


DENSE_CORRUPTIONS = {
    "valid": lambda items: items,
    "short-key-late": lambda items: items[:20000] + [((0, 1, 2), Fraction(1))] + items[20000:],
    "bad-element-after-short-key": lambda items: (
        items[:9000] + [((0, 1), Fraction(1))] + items[9000:20000] + [(("a", 1, 2, 3), 1)] + items[20000:]),
    "negative-late": lambda items: items[:15000] + [((4, 3, 2, 1), Fraction(-1))] + items[15000:],
    "repeat-of-the-first-key": lambda items: items + [(items[0][0][::-1], Fraction(1))],
    "zero-weights": lambda items: [(k, Fraction(0) if i % 7 == 0 else w) for i, (k, w) in enumerate(items)],
}


@pytest.mark.parametrize("name", DENSE_CORRUPTIONS)
def test_from_weights_agrees_on_dense_mappings(name):
    items = list(dense_mapping(1, 30, 4).items())
    weights = dict(DENSE_CORRUPTIONS[name](items))
    got = assert_agree(30, 4, weights)
    assert got == ("ok" if name in ("valid", "zero-weights") else "error")


def test_exact_fractions_are_kept_as_given():
    w, half = Fraction(3, 2), Half(1, 2)
    g = SymFunc.from_weights(2, 3, {(1, 0, 0): w, (1, 1, 1): 2})
    assert g.weights[(0, 0, 1)] is w
    g = SymFunc.from_weights(2, 3, {(0, 0, 0): half, (1, 1, 1): w})
    assert type(g.weights[(0, 0, 0)]) is Fraction and g.weights[(0, 0, 0)] == half


def assert_valid_as_built(g):
    checked = SymFunc.from_weights(g.q, g.r, g.weights)
    assert list(checked.weights.items()) == list(g.weights.items()), (g.q, g.r)


def test_unchecked_builders_make_valid_tables():
    rng = Random(35)
    shapes = [(rng.randint(1, 12), rng.choice((3, 4))) for _ in range(20)] + [(30, 3), (30, 4)]
    for q, r in shapes:
        assert_valid_as_built(fx.random_table(rng, q, r, rng.choice((0.0, 0.3, 0.8))))
    for _ in range(12):
        g = fx.random_tractable(rng, rng.randint(1, 10), rng.choice((3, 4)))
        for j in (2, 3):
            assert_valid_as_built(power_function(g, j))
    for q, r, message in ((0, 3, "domain size must be positive, got 0"), (2, 2, "arity must be at least 3, got 2")):
        with pytest.raises(ValueError, match=message):
            fx.random_table(rng, q, r)


# ---------------------------------------------------------------------------
# dump_symfunc


def _big():
    return SymFunc.from_weights(2, 3, {(0, 0, 0): Fraction(4**8000), (0, 1, 1): Fraction(3, 7**5000)})


WRITER_GOLDENS = {
    # name: (table, sha256 of the text the per-key writer gave)
    "random_table-q30-r4": (
        lambda: fx.random_table(Random(1), 30, 4),
        "e7e456c2ff31555ed7799a35f84e352447bcc00d0e92371fac8d6d38dc440bd5",
    ),
    "random_table-q60-r3": (
        lambda: fx.random_table(Random(1), 60, 3),
        "ab0439f515c603740e8bdfa9ae70a0513d1537e17b5e84934af0fc917faf1b25",
    ),
    "random_tractable": (
        lambda: fx.random_tractable(Random(1), 24, 3),
        "eeeae27a28553498daf06e70d6f0b7205905613e3829e1efb617d1f8dd62bc41",
    ),
    "structured_family-junk": (
        lambda: fx.structured_family(
            [(fx.group_from_factors(4, 2), 2, (Fraction(1), Fraction(3, 2)), 3, Fraction(5, 7))], r=3, junk=3),
        "0de3ce3e8fec3fe7844fe26e609d5e32e99b1d01ab7fb3138191fcf2d09eed1d",
    ),
    "power_function": (
        lambda: power_function(fx.mixed(), 3),
        "b632dee0f6412df573b56df48dbbae068a4caa6d47eedae5f8c86d18abe06342",
    ),
    "relation_to_symfunc": (
        lambda: relation_to_symfunc(frozenset({(0, 0, 1), (0, 1, 2), (1, 1, 1), (2, 2, 2)}), 3, 3),
        "6430cdf468ed2f6f384f94b8af4b7fc60ef9e9ecf2ad3328e560f719b4403f51",
    ),
    "past-the-digit-limit": (
        _big,
        "f9351e4b1f6a240da8ee676e7062781fd05de32c7708eb9864528083360d0841",
    ),
}


@pytest.mark.parametrize("name", WRITER_GOLDENS)
def test_dump_symfunc_matches_golden_digest(name):
    make, digest = WRITER_GOLDENS[name]
    g = make()
    text = dump_symfunc(g)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert load_symfunc(text).weights == g.weights


@pytest.mark.parametrize("g", [
    marginalize(fx.mixed(), 2),  # arity 2
    prune_domain(SymFunc.from_weights(2, 3, {})).func,  # q 0
], ids=["arity-two", "empty-domain"])
def test_dump_symfunc_refuses_tables_with_no_file_form(g):
    with pytest.raises(ValueError, match="no file form") as err:
        dump_symfunc(g)
    assert not isinstance(err.value, FormatError)

"""The text loaders against plain per-line references.

The loaders parse each distinct token once per call; load_symfunc checks
its body in column passes over chunks of lines. The references below parse
every token and literal of every line anew, in the check order the loaders
document. On valid and on corrupted texts both must agree: an equal object
with the same key order, or the same FormatError message and line number.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from hyperhom import model
from hyperhom.exactcore import format_rational, parse_rational
from hyperhom.fixtures import random_table
from hyperhom.model import (
    CspInstance,
    FormatError,
    Hypergraph,
    SymFunc,
    dump_symfunc,
    load_csp,
    load_hypergraph,
    load_instance,
    load_symfunc,
)

# ---------------------------------------------------------------------------
# references: one int() per token and one parse per literal, on every line


def _ref_content_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _ref_expect_header(lines, expected):
    try:
        lineno, line = next(lines)
    except StopIteration:
        raise FormatError(1, f"empty file, expected header {expected!r}") from None
    if line != expected:
        raise FormatError(lineno, f"expected header {expected!r}, got {line!r}")


def _ref_keyword_int(lines, keyword, text):
    """(line number, value) of the keyword's line; a missing one is
    reported at the line after the last line of the text."""
    try:
        lineno, line = next(lines)
    except StopIteration:
        raise FormatError(len(text.splitlines()) + 1, f"missing '{keyword} <int>' line") from None
    parts = line.split()
    if len(parts) != 2 or parts[0] != keyword:
        raise FormatError(lineno, f"expected '{keyword} <int>', got {line!r}")
    try:
        return lineno, int(parts[1])
    except ValueError:
        raise FormatError(lineno, f"bad integer {parts[1]!r}") from None


def ref_load_symfunc(text):
    lines = _ref_content_lines(text)
    _ref_expect_header(lines, "symfunc v1")
    q_line, q = _ref_keyword_int(lines, "q", text)
    r_line, r = _ref_keyword_int(lines, "r", text)
    if q < 1:
        raise FormatError(q_line, f"domain size must be positive, got {q}")
    if r < 3:
        raise FormatError(r_line, f"arity must be at least 3, got {r}")
    weights, zeros = {}, set()
    for lineno, line in lines:
        if "=" not in line:
            raise FormatError(lineno, f"expected '<z1> .. <zr> = <weight>', got {line!r}")
        left, _, right = line.partition("=")
        try:
            key = tuple(int(tok) for tok in left.split())
        except ValueError:
            raise FormatError(lineno, f"bad element list {left.strip()!r}") from None
        if len(key) != r:
            raise FormatError(lineno, f"key has {len(key)} elements, expected {r}")
        if any(z < 0 or z >= q for z in key):
            raise FormatError(lineno, f"element out of range 0..{q - 1} in {key}")
        if any(key[i] > key[i + 1] for i in range(r - 1)):
            raise FormatError(lineno, f"key {key} is not in non-decreasing order")
        try:
            w = parse_rational(right.strip())
        except ValueError as exc:
            raise FormatError(lineno, str(exc)) from None
        if w < 0:
            # format_rational, not str(): str() of a weight past 4300 digits
            # raised a plain ValueError instead of this FormatError
            raise FormatError(lineno, f"negative weight {format_rational(w)}")
        if key in weights or key in zeros:
            raise FormatError(lineno, f"duplicate key {key}")
        if w:
            weights[key] = w
        else:
            zeros.add(key)
    return SymFunc(q, r, weights)


def ref_load_hypergraph(text):
    lines = _ref_content_lines(text)
    _ref_expect_header(lines, "hypergraph v1")
    n_line, n = _ref_keyword_int(lines, "n", text)
    if n < 0:
        raise FormatError(n_line, f"vertex count must be nonnegative, got {n}")
    edges, seen, arity = [], set(), None
    for lineno, line in lines:
        parts = line.split()
        if parts[0] != "e":
            raise FormatError(lineno, f"expected 'e <v1> ..', got {line!r}")
        try:
            e = tuple(int(tok) for tok in parts[1:])
        except ValueError:
            raise FormatError(lineno, f"bad vertex list {line!r}") from None
        if len(e) < 1:
            raise FormatError(lineno, "empty edge")
        if any(e[i] >= e[i + 1] for i in range(len(e) - 1)):
            raise FormatError(lineno, f"edge {e} is not strictly increasing")
        if e[0] < 0 or e[-1] >= n:
            raise FormatError(lineno, f"edge {e} out of vertex range 0..{n - 1}")
        if arity is None:
            arity = len(e)
        elif len(e) != arity:
            raise FormatError(lineno, f"edge arity {len(e)} differs from {arity}")
        if e in seen:
            raise FormatError(lineno, f"duplicate edge {e}")
        seen.add(e)
        edges.append(e)
    return Hypergraph(n, tuple(edges))


def ref_load_csp(text):
    lines = _ref_content_lines(text)
    _ref_expect_header(lines, "csp v1")
    n_line, n = _ref_keyword_int(lines, "n", text)
    if n < 0:
        raise FormatError(n_line, f"variable count must be nonnegative, got {n}")
    scopes, equalities, arity = [], [], None
    for lineno, line in lines:
        parts = line.split()
        try:
            vs = tuple(int(tok) for tok in parts[1:])
        except ValueError:
            raise FormatError(lineno, f"bad vertex list {line!r}") from None
        if any(v < 0 or v >= n for v in vs):
            raise FormatError(lineno, f"variable out of range 0..{n - 1} in {line!r}")
        if parts[0] == "c":
            if len(vs) < 1:
                raise FormatError(lineno, "empty scope")
            if arity is None:
                arity = len(vs)
            elif len(vs) != arity:
                raise FormatError(lineno, f"scope arity {len(vs)} differs from {arity}")
            scopes.append(vs)
        elif parts[0] == "eq":
            if len(vs) != 2:
                raise FormatError(lineno, f"expected 'eq <u> <w>', got {line!r}")
            equalities.append((vs[0], vs[1]))
        else:
            raise FormatError(lineno, f"expected 'c ..' or 'eq ..', got {line!r}")
    return CspInstance(n, tuple(scopes), tuple(equalities))


# ---------------------------------------------------------------------------
# outcomes and corruptions


def outcome(load, text):
    try:
        x = load(text)
    except FormatError as exc:
        return ("error", exc.line, str(exc))
    if isinstance(x, SymFunc):
        return ("ok", x.q, x.r, list(x.weights.items()))
    return ("ok", x)  # dataclass equality compares the tuples in order


def assert_agree(new, ref, text):
    got, want = outcome(new, text), outcome(ref, text)
    assert got == want, text
    return got[0]


BIG = "1" + "0" * 4400  # past int()'s default digit limit
BAD_TOKENS = ["bad", "007", "+3", "1_0", "-1", "-0", "99", "1.0", "x7"]
BAD_WEIGHTS = ["0", "-1", "-3/4", "2/4", "1/0", "0/0", "x", "1/-2", "", BIG, "-" + BIG, BIG + "/3"]
VALID_WEIGHTS = ["1", "0", "2/4", "7/3", "0/5", "12", "007", BIG]


def _corrupt(draw, lines, header, line_ops):
    """Apply 1-3 corruptions to body lines (or, rarely, the header)."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(line_ops + ["dup", "comment", "blank", "header"]))
        if op == "header":
            i = draw(st.integers(0, header - 1))
            lines[i] = draw(st.sampled_from(["", "# c", lines[i] + " x", "q 0", "r 2", "n -1", "n x"]))
            continue
        if len(lines) == header:
            lines.append(lines[-1] if op == "dup" else "")
            continue
        i = draw(st.integers(header, len(lines) - 1))
        if op == "dup":
            lines.insert(draw(st.integers(i + 1, len(lines))), lines[i])
        elif op == "comment":
            lines.insert(i, "# " + lines[i])
            lines[i + 1] += " # trailing = 1"
        elif op == "blank":
            lines.insert(i, "   ")
        else:
            lines[i] = op(draw, lines[i])
    return "\n".join(lines) + "\n"


def _replace_token(draw, line):
    left, eq, right = line.partition("=")
    toks = left.split()
    if toks:
        toks[draw(st.integers(0, len(toks) - 1))] = draw(st.sampled_from(BAD_TOKENS))
    return " ".join(toks) + (" " + eq + right if eq else "")


def _swap_tokens(draw, line):
    left, eq, right = line.partition("=")
    toks = left.split()
    head = 1 if toks and not toks[0].lstrip("-").isdigit() else 0
    if len(toks) - head >= 2:
        i = draw(st.integers(head, len(toks) - 2))
        toks[i], toks[i + 1] = toks[i + 1], toks[i]
    return " ".join(toks) + (" " + eq + right if eq else "")


def _drop_token(draw, line):
    left, eq, right = line.partition("=")
    toks = left.split()
    if toks:
        del toks[draw(st.integers(0, len(toks) - 1))]
    return " ".join(toks) + (" " + eq + right if eq else "")


def _repeat_token(draw, line):
    left, eq, right = line.partition("=")
    toks = left.split()
    if toks:
        i = draw(st.integers(0, len(toks) - 1))
        toks.insert(i, toks[i])
    return " ".join(toks) + (" " + eq + right if eq else "")


def _replace_weight(draw, line):
    left, _, _ = line.partition("=")
    return left.rstrip() + " = " + draw(st.sampled_from(BAD_WEIGHTS))


def _drop_equals(draw, line):
    return line.replace("=", " ")


def _replace_keyword(draw, line):
    parts = line.split()
    return " ".join([draw(st.sampled_from(["x", "E", "C", "eq", "c", "e"]))] + parts[1:])


# ---------------------------------------------------------------------------
# symfunc


@st.composite
def symfunc_lines(draw):
    q, r = draw(st.integers(1, 5)), draw(st.integers(3, 4))
    keys = draw(st.lists(st.sampled_from(list(combinations_with_replacement(range(q), r))),
                         unique=True, max_size=12))
    lines = ["symfunc v1", f"q {q}", f"r {r}"]
    for key in keys:
        # a spelling int() accepts for the same element loads the same way
        toks = [draw(st.sampled_from([str(z), str(z), "0" + str(z), "+" + str(z)])) for z in key]
        lines.append(" ".join(toks) + " = " + draw(st.sampled_from(VALID_WEIGHTS)))
    return lines


SYMFUNC_OPS = [_replace_token, _swap_tokens, _drop_token, _repeat_token, _replace_weight, _drop_equals]


@settings(max_examples=300, deadline=None)
@given(symfunc_lines())
def test_symfunc_loader_agrees_on_valid_texts(lines):
    assert assert_agree(load_symfunc, ref_load_symfunc, "\n".join(lines) + "\n") == "ok"


@settings(max_examples=300, deadline=None)
@given(st.data(), symfunc_lines())
def test_symfunc_loader_agrees_on_corrupted_texts(data, lines):
    text = _corrupt(data.draw, lines, 3, SYMFUNC_OPS)
    assert_agree(load_symfunc, ref_load_symfunc, text)


def test_symfunc_loader_agrees_on_listed_corruptions():
    # each bad line is tried first and after a good line with the same
    # tokens, so both the first parse and the memoised path are exercised
    good = "0 1 2 = 1/2"
    bad_lines = [f"{tok} 1 2 = 1" for tok in BAD_TOKENS] + [
        "0 1 2 = 1",  # duplicate of the good line
        "2 1 0 = 1",  # unsorted
        "0 1 = 1",  # short
        "0 1 2 2 = 1",  # long
        "0 1 2 = 3/6",
        "0 1 2",
        "0 2 2 = 1 # comment",
        "",
    ] + [f"0 2 2 = {w}" for w in BAD_WEIGHTS] + [f"1 1 2 = {w}" for w in BAD_WEIGHTS]
    head = "symfunc v1\nq 3\nr 3\n"
    for bad in bad_lines:
        for body in ([bad], [good, bad], [good, bad, good.replace("1/2", "2/4")]):
            assert_agree(load_symfunc, ref_load_symfunc, head + "\n".join(body) + "\n")


@lru_cache(maxsize=None)
def dense_lines(seed):
    """The lines of a dumped random q=30, r=4 table: about 28 chunks."""
    return tuple(dump_symfunc(random_table(Random(seed), 30, 4)).splitlines())


def test_symfunc_loader_agrees_on_dense_tables():
    for seed in (1, 2):
        lines = dense_lines(seed)
        assert len(lines) > 20 * model._CHUNK
        assert assert_agree(load_symfunc, ref_load_symfunc, "\n".join(lines) + "\n") == "ok"


def _left(line):
    return line.partition("=")[0].split()


DENSE_CORRUPTIONS = {
    # name: (what the line at PAST becomes, whether the text stays valid)
    "bad-token": (lambda lines, line: " ".join(["x7"] + _left(line)[1:]) + " = 1", False),
    "unsorted": (lambda lines, line: " ".join(_left(line)[::-1]) + " = 1", False),
    "duplicate-of-line-4": (lambda lines, line: lines[3], False),
    "semicolon-token": (lambda lines, line: " ".join([";"] + _left(line)[1:]) + " = 1", False),
    "two-rows-on-a-line": (lambda lines, line: line + " ; " + lines[4], False),
    "semicolon-for-equals": (lambda lines, line: line.replace(" = ", " ; "), False),
    "short-key": (lambda lines, line: "1 = 2", False),
    "no-spaces-around-equals": (lambda lines, line: line.replace(" = ", "="), True),
    "zero-weight": (lambda lines, line: " ".join(_left(line)) + " = 0", True),
    "inline-comment": (lambda lines, line: line + " # note = 1", True),
    "blank-line-before": (lambda lines, line: "  \n" + line, True),
}
PAST = 3 + model._CHUNK + 500  # a body line in the second chunk


@pytest.mark.parametrize("name", DENSE_CORRUPTIONS)
def test_symfunc_loader_agrees_on_corrupted_dense_tables(name):
    corrupt, valid = DENSE_CORRUPTIONS[name]
    lines = list(dense_lines(1))
    assert len(set(_left(lines[PAST]))) > 1  # so reversing its key unsorts it
    lines[PAST] = corrupt(lines, lines[PAST])
    got = assert_agree(load_symfunc, ref_load_symfunc, "\n".join(lines) + "\n")
    assert got == ("ok" if valid else "error")


def _no_line_loop(monkeypatch):
    def refuse(*args):
        raise AssertionError("the line loop ran on valid text")

    monkeypatch.setattr(model, "_symfunc_lines", refuse)


@settings(max_examples=300, deadline=None)
@given(symfunc_lines())
def test_symfunc_valid_texts_skip_the_line_loop(lines):
    text = "\n".join(lines) + "\n"
    want = outcome(ref_load_symfunc, text)
    with pytest.MonkeyPatch.context() as mp:
        _no_line_loop(mp)
        assert outcome(load_symfunc, text) == want


def test_symfunc_valid_dense_tables_skip_the_line_loop(monkeypatch):
    texts = ["\n".join(dense_lines(seed)) + "\n" for seed in (1, 2)]
    for corrupt, valid in DENSE_CORRUPTIONS.values():
        if valid:
            lines = list(dense_lines(1))
            lines[PAST] = corrupt(lines, lines[PAST])
            texts.append("\n".join(lines) + "\n")
    wants = [outcome(ref_load_symfunc, text) for text in texts]
    _no_line_loop(monkeypatch)
    assert [outcome(load_symfunc, text) for text in texts] == wants


def test_symfunc_negative_weight_past_the_digit_limit_is_a_format_error():
    text = f"symfunc v1\nq 2\nr 3\n0 0 0 = 1\n0 0 1 = -{BIG}\n"
    got = outcome(load_symfunc, text)
    assert got == ("error", 5, f"line 5: negative weight -{BIG}")


# ---------------------------------------------------------------------------
# hypergraph


@st.composite
def hypergraph_lines(draw):
    n, k = draw(st.integers(0, 6)), draw(st.integers(1, 4))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(n), k)) or [()]),
                          unique=True, max_size=10))
    lines = ["hypergraph v1", f"n {n}"]
    lines.extend("e " + " ".join(map(str, e)) for e in edges if e)
    return lines


INSTANCE_OPS = [_replace_token, _swap_tokens, _drop_token, _repeat_token, _replace_keyword]


@settings(max_examples=300, deadline=None)
@given(hypergraph_lines())
def test_hypergraph_loader_agrees_on_valid_texts(lines):
    assert assert_agree(load_hypergraph, ref_load_hypergraph, "\n".join(lines) + "\n") == "ok"


@settings(max_examples=300, deadline=None)
@given(st.data(), hypergraph_lines())
def test_hypergraph_loader_agrees_on_corrupted_texts(data, lines):
    text = _corrupt(data.draw, lines, 2, INSTANCE_OPS)
    assert_agree(load_hypergraph, ref_load_hypergraph, text)


def test_hypergraph_loader_agrees_on_listed_corruptions():
    good = "e 0 1 2"
    bad_lines = [f"e {tok} 1 2" for tok in BAD_TOKENS] + [
        "e 0 1 2", "e 2 1 0", "e 0 0 1", "e 0 1", "e", "x 0 1 2", "e 0 1 3", "e 1 2 3 # c", "   ",
    ]
    for bad in bad_lines:
        for body in ([bad], [good, bad], [good, "e 1 2 3", bad]):
            text = "hypergraph v1\nn 4\n" + "\n".join(body) + "\n"
            assert_agree(load_hypergraph, ref_load_hypergraph, text)


# ---------------------------------------------------------------------------
# csp


@st.composite
def csp_lines(draw):
    n, k = draw(st.integers(0, 5)), draw(st.integers(1, 4))
    lines = ["csp v1", f"n {n}"]
    if n:
        vertex = st.integers(0, n - 1)
        for _ in range(draw(st.integers(0, 10))):
            if draw(st.booleans()):
                lines.append("c " + " ".join(str(draw(vertex)) for _ in range(k)))
            else:
                lines.append(f"eq {draw(vertex)} {draw(vertex)}")
    return lines


@settings(max_examples=300, deadline=None)
@given(csp_lines())
def test_csp_loader_agrees_on_valid_texts(lines):
    assert assert_agree(load_csp, ref_load_csp, "\n".join(lines) + "\n") == "ok"


@settings(max_examples=300, deadline=None)
@given(st.data(), csp_lines())
def test_csp_loader_agrees_on_corrupted_texts(data, lines):
    text = _corrupt(data.draw, lines, 2, INSTANCE_OPS)
    assert_agree(load_csp, ref_load_csp, text)


def test_csp_loader_agrees_on_listed_corruptions():
    good = "c 0 1 1"
    bad_lines = [f"c {tok} 1 1" for tok in BAD_TOKENS] + [
        "c 0 1 1", "c 1 0", "c", "eq 0", "eq 0 1 1", "eq 1 1", "x 0 1 1", "c 0 1 4", "eq 0 4",
        "c 2 2 2 # c", "",
    ]
    for bad in bad_lines:
        for body in ([bad], [good, bad], [good, "eq 0 1", bad]):
            assert_agree(load_csp, ref_load_csp, "csp v1\nn 4\n" + "\n".join(body) + "\n")


# ---------------------------------------------------------------------------
# header lines


HEADER_ERRORS = {
    # name: (loader, reference or None, text, line the error names)
    "symfunc-q": (load_symfunc, ref_load_symfunc, "# a table\n\nsymfunc v1\nq 0\nr 3\n", 4),
    "symfunc-r": (load_symfunc, ref_load_symfunc, "# a table\n\nsymfunc v1\nq 2\n\nr 2\n", 6),
    "symfunc-missing-r": (load_symfunc, ref_load_symfunc, "# a table\n\nsymfunc v1\nq 2\n# end\n", 6),
    "hypergraph-n": (load_hypergraph, ref_load_hypergraph, "# an instance\n\nhypergraph v1\nn -1\n", 4),
    "hypergraph-missing-n": (load_hypergraph, ref_load_hypergraph, "hypergraph v1\n", 2),
    "csp-n": (load_csp, ref_load_csp, "# an instance\n\ncsp v1\nn -1\n", 4),
    "csp-missing-n": (load_csp, ref_load_csp, "csp v1\n\n", 3),
    "instance-header": (load_instance, None, "# an instance\n\nsymfunc v1\nq 2\n", 3),
}


@pytest.mark.parametrize("name", HEADER_ERRORS)
def test_header_errors_name_their_own_line(name):
    load, ref, text, line = HEADER_ERRORS[name]
    got = outcome(load, text)
    assert got[:2] == ("error", line), got
    if ref is not None:
        assert outcome(ref, text) == got


# ---------------------------------------------------------------------------
# the token grammars README states


def test_integer_tokens_are_what_int_accepts():
    # a sign, underscores, leading zeros and any Unicode decimal digits
    g = load_symfunc("symfunc v1\nq 1_1\nr +3\n０ ٣ 007 = 1\n+0 0 1_0 = 2\n")
    assert (g.q, g.r, dict(g.weights)) == (11, 3, {(0, 3, 7): 1, (0, 0, 10): 2})
    assert load_hypergraph("hypergraph v1\nn ３\ne +0 ١ 0_2\n") == Hypergraph(3, ((0, 1, 2),))
    assert load_csp("csp v1\nn 0_3\nc ２ +0 ٢\n") == CspInstance(3, ((2, 0, 2),))
    with pytest.raises(FormatError, match="bad element list '0 0 0x1'"):
        load_symfunc("symfunc v1\nq 2\nr 3\n0 0 0x1 = 1\n")
    with pytest.raises(FormatError, match="bad integer '2.0'"):
        load_symfunc("symfunc v1\nq 2.0\nr 3\n")


def test_weight_literals_are_signed_digits_over_digits():
    # -?digits[/digits], Unicode decimal digits included
    g = load_symfunc("symfunc v1\nq 2\nr 3\n0 0 0 = ١/٢\n0 0 1 = 007\n0 1 1 = -0\n")
    assert dict(g.weights) == {(0, 0, 0): Fraction(1, 2), (0, 0, 1): 7}
    for literal in ("+1", "1_0", "1.0", "1e3", "1 / 2"):
        with pytest.raises(FormatError) as err:
            load_symfunc(f"symfunc v1\nq 2\nr 3\n0 0 0 = {literal}\n")
        assert str(err.value) == f"line 4: not a rational literal: {literal!r}"

import copy
import csv
import io
import itertools
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from incmeter import evaluation, model, nullrep
from incmeter.aspgen import emit_repair_program
from incmeter.conflicts import build_hypergraph
from incmeter.errors import InputError
from incmeter.evaluation import compare_values
from incmeter.model import (NULL, Atom, Comparison, Const, ConstraintSet,
                            DenialConstraint, Fact, FactIndex, Instance, Predicate, Var,
                            load_instance, parse_constraints, parse_schema)
from incmeter.measures import inc_deg_g3
from incmeter.updates import UpdateDelta, apply_update

from conftest import csv_sources
from oracles import consistent, restrict
from test_cli_golden import BUNDLES
from test_updates import _check_tables


def test_parse_schema_basics():
    schema = parse_schema("p(A)\nq(A, B)  # comment\n\n# full comment line\nr(A,C)\n")
    assert schema.predicate_names == ("p", "q", "r")
    assert schema.predicate("q").arity == 2
    assert schema.predicate("q").attributes == ("A", "B")
    assert "p" in schema and "nope" not in schema


def test_parse_schema_errors():
    with pytest.raises(InputError):
        parse_schema("p(A\n")
    with pytest.raises(InputError):
        parse_schema("p()\n")
    with pytest.raises(InputError):
        parse_schema("p(A)\np(B)\n")  # duplicate name
    with pytest.raises(InputError):
        parse_schema("p(A, A)\n")  # duplicate attribute
    err = None
    try:
        parse_schema("p(A)\nbroken line\n")
    except InputError as exc:
        err = exc
    assert err is not None and err.line == 2


def test_parse_dc_shapes():
    schema = parse_schema("p(A)\nq(A, B)\n")
    cs = parse_constraints(
        'dc c1 : !exists p(x), q(x, y)\n'
        'dc c2 : !exists q(x, y), x != y\n'
        'dc c3 : !exists q(x, "lit"), p(x)\n'
        'dc c4 : !exists p(Upper)\n', schema)
    assert len(cs) == 4
    c1, c2, c3, c4 = cs
    assert [a.predicate for a in c1.atoms] == ["p", "q"]
    assert c2.comparisons[0].op == "!="
    # quoted and bare uppercase tokens are constants, lowercase are variables
    assert c3.atoms[0].terms[1] == Const("lit")
    assert c4.atoms[0].terms[0] == Const("Upper")
    assert c1.atoms[1].terms[0] == Var("x")
    assert [len(c.atoms) for c in cs] == [2, 1, 2, 1]


def test_parse_dc_errors():
    schema = parse_schema("p(A)\nq(A, B)\n")
    with pytest.raises(InputError):
        parse_constraints("dc c : !exists nosuch(x)", schema)
    with pytest.raises(InputError):
        parse_constraints("dc c : !exists p(x, y)", schema)  # arity
    with pytest.raises(InputError):
        parse_constraints("dc c : !exists p(x), y != x2", schema)  # unsafe vars
    with pytest.raises(InputError):
        parse_constraints("dc c : !exists p(x), x < y, q(x, y)", schema)  # atom after cmp
    with pytest.raises(InputError):
        parse_constraints("dc c : p(x)", schema)  # missing !exists
    with pytest.raises(InputError):
        parse_constraints("fd c : p : A -> A", schema)  # dependent in determinant
    with pytest.raises(InputError):
        parse_constraints("fd c : q : A -> Nope", schema)
    with pytest.raises(InputError):
        parse_constraints("dc c : !exists p(x)\ndc c : !exists q(x, y)", schema)
    with pytest.raises(InputError):
        parse_constraints("nonsense", schema)


_SCHEMA = parse_schema("p(A)\nq(A, B)\nrel(A, B, C)\n")


def _parse(text):
    return lambda: parse_constraints(text, _SCHEMA)


@pytest.mark.parametrize("build,message,line,column", [
    pytest.param(_parse("dc c : !exists p(x) @"), "unexpected character '@'", 1, 21,
                 id="character"),
    pytest.param(_parse("dc c : !exists p(x), x < \u0663"),
                 "unexpected character '\u0663'", 1, 26, id="non-ascii-digit"),
    pytest.param(_parse("dc c : !exists p(x"), "unexpected end of line", 1, None,
                 id="end-of-line"),
    pytest.param(_parse("dc c : !exists p(,)"), "expected a term, got ','", 1, 18,
                 id="term"),
    pytest.param(_parse("dc c : !exists p(x), x y"),
                 "expected a comparison operator, got 'y'", 1, 24, id="operator"),
    pytest.param(_parse("dc c : !forall p(x)"),
                 "expected 'exists' after '!', got 'forall'", 1, 9, id="exists"),
    pytest.param(_parse("fd f : nosuch : A -> B"), "unknown predicate 'nosuch'", 1, 8,
                 id="fd-predicate"),
    pytest.param(_parse("fd f : rel : A -> B C"), "unexpected trailing input 'C'", 1, 21,
                 id="fd-trailing"),
    pytest.param(_parse("fd f : rel : A, A -> B"), "duplicate attribute in determinant",
                 1, None, id="fd-determinant"),
    # NULL is the blank a cell repair writes: no constraint may name it
    pytest.param(_parse("dc c : !exists q(x, NULL)"),
                 "constraint c: the value NULL is reserved", None, None, id="null-atom"),
    pytest.param(_parse('dc c : !exists q(x, y), y != "NULL"'),
                 "constraint c: the value NULL is reserved", None, None,
                 id="null-comparison"),
    pytest.param(lambda: DenialConstraint("d", (Atom("q", (Const(NULL), Var("y"))),)),
                 "constraint d: the value NULL is reserved", None, None, id="null-code"),
    pytest.param(lambda: Predicate("1p", ("A",)), "invalid predicate name '1p'",
                 None, None, id="predicate-name"),
    pytest.param(lambda: Predicate("p", ()), "predicate p has no attributes",
                 None, None, id="predicate-no-attributes"),
    pytest.param(lambda: Predicate("p", ("A", "b c")),
                 "invalid attribute name 'b c' in predicate p", None, None,
                 id="predicate-attribute"),
    # comment-only lines are skipped but still counted
    pytest.param(_parse("# a note\n   # another\nnonsense"),
                 "expected 'dc' or 'fd', got 'nonsense'", 3, 1, id="after-comments"),
])
def test_input_errors_report_message_and_place(build, message, line, column):
    with pytest.raises(InputError) as info:
        build()
    assert str(info.value).endswith(message)
    assert (info.value.line, info.value.column) == (line, column)


def test_fd_expansion_matches_manual_dc():
    schema = parse_schema("rel(A, B, C)\n")
    sugar = parse_constraints("fd f : rel : A -> B\n", schema)
    manual = parse_constraints(
        "dc f : !exists rel(x, y1, z1), rel(x, y2, z2), y1 != y2\n", schema)
    inst = load_instance({"rel": "A,B,C\na,b,c\na,d,c\ne,b,c\n"}, schema)
    assert not consistent(inst, sugar)
    assert not consistent(inst, manual)
    ok = load_instance({"rel": "A,B,C\na,b,c\na,b,d\ne,x,c\n"}, schema)
    assert consistent(ok, sugar)
    assert consistent(ok, manual)


def test_multi_attribute_determinant():
    schema = parse_schema("t(A, B, C)\n")
    cs = parse_constraints("fd f : t : A, B -> C\n", schema)
    bad = load_instance({"t": "A,B,C\na,b,c\na,b,d\n"}, schema)
    good = load_instance({"t": "A,B,C\na,b,c\na,x,d\n"}, schema)
    assert not consistent(bad, cs)
    assert consistent(good, cs)


def test_load_instance_tid_assignment_is_deterministic():
    schema = parse_schema("p(A)\nq(A, B)\nr(A, C)\n")
    sources = {"r": "A,C\na,c\n", "p": "A\na\ne\n", "q": "A,B\na,b\n"}
    inst = load_instance(sources, schema)
    # ascending predicate name, then row order, counting from 1
    assert [(f.tid, f.predicate, f.values) for f in inst.facts] == [
        (1, "p", ("a",)), (2, "p", ("e",)), (3, "q", ("a", "b")), (4, "r", ("a", "c"))]
    again = load_instance(sources, schema)
    assert inst.facts == again.facts
    # a blank line is skipped and takes no tid
    gapped = load_instance(dict(sources, p="A\na\n\ne\n"), schema)
    assert gapped.facts == inst.facts


def test_load_instance_checks_each_row_once(monkeypatch):
    schema = parse_schema("p(A)\nq(A, B)\nr(A, C)\n")
    sources = {"r": "A,C\na,c\n", "p": "A\na\ne\n", "q": "A,B\na,b\n"}
    calls = []
    post_init = Instance.__post_init__
    monkeypatch.setattr(Instance, "__post_init__",
                        lambda self: calls.append(1) or post_init(self))
    inst = load_instance(sources, schema, [2, 4])
    assert not calls
    # the same instance as a checked build, and load builds no index table
    fresh = Instance(schema, inst.facts, frozenset({2, 4}))
    assert inst == fresh and inst.tids == fresh.tids == (1, 2, 3, 4)
    assert [inst.fact(t) for t in inst.tids] == list(fresh.facts)
    assert inst._fact_index is None


def test_load_instance_accepts_bytes_and_streams():
    schema = parse_schema("p(A)\n")
    a = load_instance({"p": b"A\nx\n"}, schema)
    b = load_instance({"p": io.BytesIO(b"A\nx\n")}, schema)
    c = load_instance({"p": io.StringIO("A\nx\n")}, schema)
    assert a.facts == b.facts == c.facts


def test_load_instance_errors():
    schema = parse_schema("p(A)\nq(A, B)\n")
    with pytest.raises(InputError):
        load_instance({"zz": "A\nx\n"}, schema)
    with pytest.raises(InputError):
        load_instance({"p": "WRONG\nx\n"}, schema)
    with pytest.raises(InputError):
        load_instance({"q": "A,B\nx\n"}, schema)  # field count
    with pytest.raises(InputError):
        load_instance({"p": "A\nNULL\n"}, schema)  # reserved value
    with pytest.raises(InputError):
        load_instance({"p": "A\nx\nx\n"}, schema)  # duplicate row
    with pytest.raises(InputError):
        load_instance({"p": ""}, schema)  # missing header
    with pytest.raises(InputError):
        load_instance({"p": "A\nx\n"}, schema, endogenous_tids=[7])


@pytest.mark.parametrize("text, message", [
    ("A,B\na,b\nx\n", "line 3: q: fact q[2](x) has 1 values, q expects 2"),
    ("A,B\na,b\nc,NULL\n", "line 3: q: fact q[2](c, NULL) uses the reserved value NULL"),
    ("A,B\na,b\nc,d\na,b\n", "line 4: q: duplicate row q('a', 'b')"),
], ids=["arity", "reserved value", "duplicate row"])
def test_load_instance_gives_a_bad_row_the_row_checks_message_and_its_line(text, message):
    # a loaded row gets the check of a constructed row or an inserted delta row
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        load_instance({"q": text}, parse_schema("p(A)\nq(A, B)\n"))


def _rows_in_tid_order(sources):
    """(tid, predicate, values) of every data row, by the loader's tid rule."""
    rows = []
    for name in sorted(sources):
        for row in list(csv.reader(io.StringIO(sources[name])))[1:]:
            if row:
                rows.append((len(rows) + 1, name, tuple(row)))
    return rows


_BAD_ROWS = [
    pytest.param({"q": "A,B\na,b\nx\nc,d\n"},
                 "line 3: q: fact q[2](x) has 1 values, q expects 2",
                 "fact q[2](x) has 1 values, q expects 2", id="arity"),
    pytest.param({"q": "A,B\na,b\nc,NULL\nd,e\n"},
                 "line 3: q: fact q[2](c, NULL) uses the reserved value NULL",
                 "fact q[2](c, NULL) uses the reserved value NULL", id="null"),
    pytest.param({"q": "A,B\na,b\nc,d\na,b\n"},
                 "line 4: q: duplicate row q('a', 'b')",
                 "duplicate row q('a', 'b')", id="duplicate"),
    # two bad rows in one file: the first one is named, whatever its kind
    pytest.param({"q": "A,B\na,b\nNULL,c\nx\n"},
                 "line 3: q: fact q[2](NULL, c) uses the reserved value NULL",
                 "fact q[2](NULL, c) uses the reserved value NULL", id="null-then-arity"),
    pytest.param({"q": "A,B\na,b\nx\na,b\n"},
                 "line 3: q: fact q[2](x) has 1 values, q expects 2",
                 "fact q[2](x) has 1 values, q expects 2", id="arity-then-duplicate"),
    pytest.param({"q": "A,B\na,b\na,b\nx,y,z\n"},
                 "line 3: q: duplicate row q('a', 'b')",
                 "duplicate row q('a', 'b')", id="duplicate-then-arity"),
    pytest.param({"q": "A,B\nx,y,z\nc,NULL\n"},
                 "line 2: q: fact q[1](x, y, z) has 3 values, q expects 2",
                 "fact q[1](x, y, z) has 3 values, q expects 2", id="first-row"),
    # blank lines take no tid but keep the line count
    pytest.param({"q": "A,B\n\na,b\n\n\nc,NULL\n"},
                 "line 6: q: fact q[2](c, NULL) uses the reserved value NULL",
                 "fact q[2](c, NULL) uses the reserved value NULL", id="after-blank-lines"),
    # the second predicate's tids continue from the first's
    pytest.param({"p": "A\nx\ny\n", "q": "A,B\na,b\nz\n"},
                 "line 3: q: fact q[4](z) has 1 values, q expects 2",
                 "fact q[4](z) has 1 values, q expects 2", id="second-predicate"),
    pytest.param({"p": "A\nx\ny\n", "q": "A,B\na,b\nc,d\na,b\n"},
                 "line 4: q: duplicate row q('a', 'b')",
                 "duplicate row q('a', 'b')", id="second-predicate-duplicate"),
    pytest.param({"p": "A\nx\n\nx\n", "q": "A,B\nz\n"},
                 "line 4: p: duplicate row p('x',)",
                 "duplicate row p('x',)", id="first-predicate-wins"),
]


@pytest.mark.parametrize("sources, loaded, built", _BAD_ROWS)
def test_a_bad_row_gets_one_message_on_every_path(sources, loaded, built):
    """A loaded file, a constructed Instance and a derivation name the same row.

    The messages were recorded before rows were checked a relation at a time.
    """
    schema = parse_schema("p(A)\nq(A, B)\n")
    with pytest.raises(InputError) as info:
        load_instance(sources, schema)
    assert str(info.value) == loaded
    assert info.value.line == int(loaded.split(":")[0].removeprefix("line "))
    rows = _rows_in_tid_order(sources)
    facts = tuple(Fact(*row) for row in reversed(rows))  # checked in tid order
    with pytest.raises(InputError) as info:
        Instance(schema, facts)
    assert (str(info.value), info.value.line) == (built, None)
    with pytest.raises(InputError) as info:
        Instance(schema, ()).derive([(p, v) for _, p, v in rows], [])
    assert (str(info.value), info.value.line) == (built, None)


def _reference_load(csv_sources, schema, endogenous_tids=None):
    """load_instance as it was before it streamed the reader: every parsed
    row kept, and each nonblank row's line looked up in them."""
    unknown = set(csv_sources) - set(schema.predicate_names)
    if unknown:
        raise InputError(f"csv source for unknown predicate(s): {sorted(unknown)}")
    instance = object.__new__(Instance)
    instance.__dict__.update(schema=schema)
    facts = []
    for name in sorted(schema.predicate_names):
        if name not in csv_sources:
            continue
        pred = schema.predicate(name)
        text = csv_sources[name]
        rows = list(csv.reader(io.StringIO(text)))
        if not rows:
            raise InputError(f"{name}: empty csv, expected a header row")
        header = tuple(h.strip() for h in rows[0])
        if header != pred.attributes:
            raise InputError(
                f"{name}: header {header!r} does not match attributes {pred.attributes!r}")
        body = [tuple(r) for r in rows[1:] if r]
        batch = [Fact(tid, name, values) for tid, values in enumerate(body, len(facts) + 1)]
        instance._walk(batch, {}, lambda i, exc: InputError(
            f"{name}: {exc}", line=[k for k, row in enumerate(rows, 1) if row][i + 1]))
        facts += batch
    instance.__dict__.update(endogenous=frozenset(map(int, endogenous_tids or ())))
    return instance._index(dict(zip(itertools.count(1), facts)))


def _outcome(load, sources, schema):
    try:
        instance = load(sources, schema, [1])
    except InputError as exc:
        return str(exc), exc.line
    except csv.Error as exc:
        # the frozen loader lets csv's error out; load_instance refuses it as
        # bad input.  Here that is q's header, which a bare CR ends
        return f"line 1: q: malformed csv: {exc}", 1
    return instance.facts, instance.tids, instance.endogenous


# CRLF and bare CR line ends, blank lines, and quoted fields holding commas,
# quotes and line ends, which make a row span lines: the line of a bad row
# counts the rows read before it, blank ones included, not the physical lines
_LAYOUTS = [
    "A,B\r\na,b\r\nc,d\r\n",
    "A,B\r\n\r\na,b\r\n\r\n\r\nc,d",
    "A,B\ra,b\rc,d\r",
    'A,B\n"a,1","b\nc"\n"x""y",z\n',
    'A,B\r\n"a\r\nb",c\r\n\r\n"d,\n\ne",f\r\n',
    ' A , B \na , b\n\n\n',
    'A,B\n"a\nb",c\nx\n',
    'A,B\r\n"a\r\n\r\nb",c\r\n\r\nd,NULL\r\n',
    'A,B\n"a,b",c\n"a,b",c\n',
    'A,B\n"a\nb",c\n,,\n',
    'A,B\n"a\nb",c\n"",""\n"",""\n',
    "",
    "\n\nA,B\na,b\n",
    "A,C\na,b\n",
    # unquoted files, which the loader splits without csv.reader
    "A,B\nxNULLy,b\nNULLx,yNULL\n",
    "A,B\na,b\n\nc,NULL\n",
    "A,B\na,b\nc,d",
    "A,B\n,\na,\n,b\n",
    "A,B\na,b\n,\n  \t\n",
    "A,B\n",
    "A,B",
]


def test_loading_matches_the_reference_loader():
    schema = parse_schema("p(A)\nq(A, B)\n")
    cases = [param.values[0] for param in _BAD_ROWS]
    cases += [{"q": text} for text in _LAYOUTS]
    cases += [{"p": "A\r\nx\r\n\r\ny\r\n", "q": text} for text in _LAYOUTS]
    cases += [{"p": 'A\n"x\n\ny"\n\nx\ny\n"x\n\ny"\n', "q": "A,B\na,b\n"}]
    # whitespace rows, and a line past csv's field limit whose fields are not
    cases += [{"p": "A\n \n\t\nx\n"}, {"q": "A,B\na,b\n" + "y" * 99_999 + "," + "z" * 99_999}]
    for sources in cases:
        assert _outcome(load_instance, sources, schema) == \
            _outcome(_reference_load, sources, schema), sources


def test_a_nul_loads_as_a_value_where_csv_reads_it():
    """csv.reader reads a NUL as part of a value from Python 3.11 on, and
    refuses it before that; the loader does the same on each."""
    sources, schema = {"p": "A\nx\na\0b\n"}, parse_schema("p(A)\n")
    if sys.version_info >= (3, 11):
        assert load_instance(sources, schema).facts == (
            Fact(1, "p", ("x",)), Fact(2, "p", ("a\0b",)))
        return
    with pytest.raises(InputError) as info:
        load_instance(sources, schema)
    assert (str(info.value), info.value.line) == (
        "line 3: p: malformed csv: line contains NUL", 3)


def test_load_instance_refuses_a_field_past_csvs_size_limit():
    with pytest.raises(InputError) as info:
        load_instance({"p": "A\nx\n\n" + "y" * 140_000 + "\n"}, parse_schema("p(A)"))
    assert (str(info.value), info.value.line) == (
        "line 4: p: malformed csv: field larger than field limit (131072)", 4)


@pytest.mark.parametrize("source", [
    b"A\n\xff\n",
    io.BytesIO(b"A\n\xff\n"),
    io.TextIOWrapper(io.BytesIO(b"A\n\xff\n"), encoding="utf-8"),
], ids=["bytes", "binary stream", "text stream"])
def test_load_instance_refuses_a_source_that_is_not_utf8(source):
    with pytest.raises(InputError, match="^p: csv source is not UTF-8"):
        load_instance({"p": source}, parse_schema("p(A)"))


@pytest.mark.parametrize("tids, endogenous", [
    ([1, 2], {1, 2}),
    (["2", 1], {1, 2}),
    (["x"], "not a tid: 'x'"),
    ([1.5], "not a tid: 1.5"),
    (["1.0"], "not a tid: '1.0'"),
    ([" 1"], "not a tid: ' 1'"),
    ([True], "not a tid: True"),
    ([None], "not a tid: None"),
    (["1_0"], "not a tid: '1_0'"),
    (["+3"], "not a tid: '+3'"),
    (["\u0663"], "not a tid: '\u0663'"),  # ARABIC-INDIC DIGIT THREE
    (["9" * 5000], "tid of 5000 digits is too long"),  # past int()'s digit cap
])
def test_load_instance_endogenous_tids_are_ints_or_decimal_strings(tids, endogenous):
    schema = parse_schema("p(A)\n")
    if isinstance(endogenous, set):
        inst = load_instance({"p": "A\nx\ny\n"}, schema, endogenous_tids=tids)
        assert inst.endogenous == endogenous
        return
    with pytest.raises(InputError) as info:
        load_instance({"p": "A\nx\ny\n"}, schema, endogenous_tids=tids)
    assert str(info.value) == endogenous


def test_loading_building_and_deriving_give_one_instance(corpus):
    rng = random.Random(5)
    for item in corpus:
        schema, facts = item.instance.schema, item.instance.facts
        endogenous = frozenset(rng.sample([f.tid for f in facts], len(facts) // 2))
        loaded = load_instance(csv_sources(item.instance), schema, endogenous)
        built = Instance(schema, facts, endogenous)
        assert loaded == built
        assert (loaded.facts, loaded.tids, loaded.endogenous) == \
            (built.facts, built.tids, built.endogenous)
        assert all(type(f) is Fact for f in loaded.facts)
        # the same rows inserted a few at a time, from the empty instance and
        # from the loaded instance of a first few
        inserted, first = [(f.predicate, f.values) for f in facts], rng.randint(0, len(facts))
        for derived, rows in ((Instance(schema, ()), inserted), (load_instance(
                csv_sources(Instance(schema, facts[:first])), schema), inserted[first:])):
            while rows:
                k = rng.randint(1, 4)
                derived, rows = derived.derive(rows[:k], []), rows[k:]
            assert derived == Instance(schema, facts)
            assert derived.tids == loaded.tids
            assert [derived.fact(t) for t in derived.tids] == list(loaded.facts)


def test_a_loaded_instance_seeds_its_index_from_the_loaders_rows(corpus):
    """The first index of a loaded instance, built from the rows the loader
    kept, equals one built from its rows; so do the index that a derive
    hands on, built there or before it, and the one a reroot brings back."""
    rng = random.Random(7)
    for item in corpus:
        sources, schema = csv_sources(item.instance), item.instance.schema
        inst = load_instance(sources, schema)
        index, fresh = inst._live_index(), FactIndex(inst._rows())
        assert list(index._indexes.items()) == list(fresh._indexes.items())
        for built in (False, True):
            inst = load_instance(sources, schema)
            if built:
                inst._live_index()
            child = inst.derive([("s", ("fresh",))], rng.sample(inst.tids, min(2, len(inst))))
            _check_tables(child)
            _check_tables(inst)


def _loaded_bundles(corpus):
    """(schema, constraints, csv sources, endogenous tids) of the corpus and
    of the golden CLI bundles."""
    for item in corpus:
        yield item.instance.schema, item.constraints, csv_sources(item.instance), []
    for schema, constraints, sources, endogenous, *_ in BUNDLES.values():
        schema = parse_schema(schema)
        yield schema, parse_constraints(constraints, schema), sources, endogenous.split()


def test_a_loaded_instance_reads_as_before(corpus):
    """A loaded instance keeps plain rows, yet reads as the frozen loader's
    instance of Facts; no path of the package builds its facts."""
    for schema, constraints, sources, endogenous in _loaded_bundles(corpus):
        inst = load_instance(sources, schema, endogenous)
        ref = _reference_load(sources, schema, endogenous)
        build_hypergraph(inst, constraints)
        inc_deg_g3(inst, constraints)
        emit_repair_program(inst, constraints)
        nullrep._atv(inst)
        assert "facts" not in inst.__dict__
        assert [(inst.fact(t).tid, inst.fact(t).predicate, inst.fact(t).values)
                for t in inst.tids] == list(ref.facts)
        assert inst.facts == ref.facts and all(type(f) is Fact for f in inst.facts)
        assert (inst.tids, inst.endogenous, inst.declared) == \
            (ref.tids, ref.endogenous, ref.declared)
        assert inst == ref and hash(inst) == hash(ref)
        for again in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst)):
            assert again == ref and again.facts == ref.facts


def test_each_version_of_a_derive_chain_rereads_its_facts(corpus):
    rng = random.Random(11)
    for item in corpus[:100]:
        inst = load_instance(csv_sources(item.instance), item.instance.schema)
        versions, expected = [inst], [list(item.instance.facts)]
        for k in range(6):
            facts = expected[-1]
            gone = set(rng.sample([f.tid for f in facts], min(len(facts), rng.randint(0, 2))))
            top = max((f.tid for f in facts), default=0)
            versions.append(versions[-1].derive([("s", (f"v{k}",))], gone))
            expected.append([f for f in facts if f.tid not in gone]
                            + [Fact(top + 1, "s", (f"v{k}",))])
        order = list(range(len(versions)))
        rng.shuffle(order)
        for i in order + order[::-1]:  # each read moves the tid map to the version read
            assert [versions[i].fact(t) for t in versions[i].tids] == expected[i]
            assert all(type(versions[i].fact(t)) is Fact for t in versions[i].tids)
        for i in order:
            assert list(versions[i].facts) == expected[i]
            assert all(type(f) is Fact for f in versions[i].facts)


@pytest.mark.parametrize("apply", [
    lambda inst, rows: inst.check_delta(rows, []),
    lambda inst, rows: inst.derive(rows, []),
    lambda inst, rows: apply_update(inst, UpdateDelta(tuple(rows), frozenset())),
], ids=["check_delta", "derive", "apply_update"])
@pytest.mark.parametrize("values, kind", [
    (5, "int 5"), (None, "NoneType None"), (2.5, "float 2.5")])
def test_delta_values_that_are_no_sequence_are_refused_as_input(apply, values, kind):
    schema = parse_schema("p(A)\n")
    message = f"row p gives the {kind} for its values"
    with pytest.raises(InputError) as info:
        Instance(schema, (Fact(1, "p", values),))
    assert str(info.value) == message
    with pytest.raises(InputError) as info:
        apply(load_instance({"p": "A\na\n"}, schema), [("p", ("b",)), ("p", values)])
    assert str(info.value) == message


def test_check_delta_reads_one_shot_deletions_once():
    """A delete-and-reinsert of one row, its tid given by a generator, is
    accepted, as derive accepts it: the deleted row is no duplicate."""
    inst = load_instance({"p": "A\na\nb\n"}, parse_schema("p(A)\n"))
    assert inst.check_delta([("p", ("a",))], (t for t in [1])) == [Fact(3, "p", ("a",))]
    assert inst.derive([("p", ("a",))], (t for t in [1])).facts == (
        Fact(2, "p", ("b",)), Fact(3, "p", ("a",)))


def test_check_delta_reads_one_shot_deletions_past_a_link():
    """With a link to a child, one-shot deletions are compared with the
    link's delta, not asked for their length, and checked if they differ."""
    inst = load_instance({"p": "A\na\nb\n"}, parse_schema("p(A)\n"))
    child = inst.derive([("p", ("a",))], [1])
    assert inst._link[0] is child
    assert inst.check_delta([("p", ("a",))], (t for t in [1])) == [Fact(3, "p", ("a",))]
    assert inst.check_delta([("p", ("c",))], (t for t in [1, 2])) == [Fact(3, "p", ("c",))]
    with pytest.raises(InputError, match="duplicate row"):
        inst.check_delta([("p", ("a",))], (t for t in [2]))


def test_a_fact_is_an_immutable_named_tuple():
    f = Fact(2, "q", ("a", "b"))
    for name in Fact._fields:
        with pytest.raises(AttributeError):
            setattr(f, name, None)
    assert Fact._fields == ("tid", "predicate", "values")
    assert str(f) == "q[2](a, b)"
    assert repr(f) == "Fact(tid=2, predicate='q', values=('a', 'b'))"
    # facts order by tid first, then as before by predicate and values
    facts = [Fact(10, "a", ("a",)), f, Fact(1, "r", ("z",)), Fact(2, "p", ("b",))]
    assert [(g.tid, g.predicate) for g in sorted(facts)] == [(1, "r"), (2, "p"), (2, "q"),
                                                              (10, "a")]
    same = Fact(2, "q", ("a", "b"))
    assert f == same and hash(f) == hash(same) and f is not same
    assert f != Fact(2, "q", ("a", "c"))
    # a fact is its plain tuple, and unpacks as one
    assert f == (2, "q", ("a", "b")) and hash(f) == hash((2, "q", ("a", "b")))
    tid, predicate, values = f
    assert (tid, predicate, values) == (2, "q", ("a", "b"))


def test_missing_predicate_loads_empty():
    schema = parse_schema("p(A)\nq(A, B)\n")
    inst = load_instance({"p": "A\nx\n"}, schema)
    assert [(f.tid, f.predicate) for f in inst.facts] == [(1, "p")]
    assert len(inst) == 1


def test_instance_validation():
    schema = parse_schema("p(A)\n")
    cases = [
        ((Fact(1, "p", ("a",)), Fact(1, "p", ("b",))), (), "duplicate tid 1"),
        ((Fact(0, "p", ("a",)),), (), "tid must be a positive integer, got 0"),
        # the smallest invalid tid is reported, whatever the input order
        ((Fact(0, "p", ("a",)), Fact(-3, "p", ("b",))), (),
         "tid must be a positive integer, got -3"),
        ((Fact("a", "p", ("x",)), Fact(1, "p", ("y",))), (),
         "tid must be a positive integer, got 'a'"),
        ((Fact(1, "p", ("y",)), Fact(None, "p", ("x",))), (),
         "tid must be a positive integer, got None"),
        ((Fact(1, "p", ("a", "b")),), (), "fact p[1](a, b) has 2 values, p expects 1"),
        ((Fact(1, "nope", ("a",)),), (), "unknown predicate 'nope'"),
        ((Fact(1, "p", ("a",)), Fact(2, "p", ("NULL",))), (),
         "fact p[2](NULL) uses the reserved value NULL"),
        ((Fact(2, "p", ("a",)), Fact(1, "p", ("a",))), (), "duplicate row p('a',)"),
        ((Fact(1, "p", ("a",)),), (9,), "endogenous tids not present in instance: [9]"),
    ]
    for facts, endogenous, message in cases:
        with pytest.raises(InputError, match=re.escape(message) + r"\Z"):
            Instance(schema, facts, frozenset(endogenous))
    inst = Instance(schema, (Fact(2, "p", ("b",)), Fact(1, "p", ("a",))))
    assert inst.tids == (1, 2)  # normalized to tid order
    # a missing read computes a derived instance's facts and tids, and nothing else
    assert not hasattr(inst, "nope") and not hasattr(inst.derive([], [1]), "nope")


@pytest.mark.parametrize("facts, message", [
    pytest.param((Fact(1, "q", ("a", 2)),),
                 "row q('a', 2) has a value that is not a str", id="int"),
    pytest.param((Fact(1, "q", ("a", None)),),
                 "row q('a', None) has a value that is not a str", id="none"),
    # "ab" would be read as the row ("a", "b"), which fact 1 already holds
    pytest.param((Fact(1, "q", ("a", "b")), Fact(2, "q", "ab")),
                 "row q gives the str 'ab' for its values", id="str"),
    pytest.param((Fact(1, "q", ["a", "b"]),),
                 "row q gives the list ['a', 'b'] for its values", id="list"),
    pytest.param((Fact(1, "q", ("a", ["b"])),),
                 "row q('a', ['b']) has a value that is not a str", id="list-value"),
])
def test_an_instance_checks_values_as_a_delta_does(facts, message):
    """A constructed Instance refuses values that are not a tuple of strs
    with check_delta's message, whatever the facts' order; a delta reads a
    listed row as a tuple, so only the other rows are refused there too."""
    schema = parse_schema("q(A, B)\n")
    with pytest.raises(InputError) as info:
        Instance(schema, facts[::-1])
    assert str(info.value) == message
    if not isinstance(facts[-1].values, list):
        with pytest.raises(InputError) as info:
            Instance(schema, ()).check_delta([f[1:] for f in facts], [])
        assert str(info.value) == message


@pytest.mark.parametrize("facts, rows, message", [
    pytest.param((Fact(1, "p", 5), Fact(1, "p", ("a",))), None,
                 "row p gives the int 5 for its values", id="int-values-then-repeated-tid"),
    pytest.param((Fact(1, "q", ["a", "b"]), Fact(1, "q", ("c", "d"))), None,
                 "row q gives the list ['a', 'b'] for its values",
                 id="list-values-then-repeated-tid"),
    pytest.param((Fact(1, "p", ("a", None)), Fact(1, "p", ("b",))),
                 [("p", ("a", None)), ("p", ("b",)), ("p", ("b",))],
                 "row p('a', None) has a value that is not a str",
                 id="none-in-wrong-arity-then-duplicate"),
    pytest.param((Fact(1, ["p"], ("a",)),), [(["p"], ("a",))],
                 "unknown predicate ['p']", id="list-predicate"),
    pytest.param((Fact(2, "p", (5,)), Fact(1, "p", ("a", "b"))),
                 [("p", ("a", "b")), ("p", (5,))],
                 "fact p[1](a, b) has 2 values, p expects 1", id="arity-then-value"),
])
def test_the_first_bad_row_in_tid_order_is_named_whatever_its_kind(facts, rows, message):
    """Instance(...) and a delta refuse the first bad row in tid order, as
    the loader does; rows is the delta, None where a delta cannot hold the
    input: its tids are fresh and a listed row is read as a tuple."""
    schema = parse_schema("p(A)\nq(A, B)\n")
    with pytest.raises(InputError) as info:
        Instance(schema, facts)
    assert str(info.value) == message
    if rows is not None:
        with pytest.raises(InputError) as info:
            Instance(schema, ()).check_delta(rows, [])
        assert str(info.value) == message


def test_equal_values_under_two_predicates_are_two_rows():
    schema = parse_schema("q(A, B)\nr(A, B)\n")
    inst = load_instance({"q": "A,B\na,b\n", "r": "A,B\na,b\n"}, schema)
    assert Instance(schema, inst.facts) == inst
    child = inst.derive([("q", ("c", "d")), ("r", ("c", "d"))], [1])
    # a deleted row may come back; a live row of the other predicate is no clash
    assert len(child.derive([("q", ("a", "b"))], [])) == 4
    with pytest.raises(InputError, match=re.escape("duplicate row r('a', 'b')")):
        child.derive([("r", ("a", "b"))], [])


def test_effective_endogenous_defaults_to_everything():
    schema = parse_schema("p(A)\n")
    inst = Instance(schema, (Fact(1, "p", ("a",)), Fact(2, "p", ("b",))))
    assert inst.effective_endogenous() == {1, 2}
    part = Instance(schema, inst.facts, frozenset({2}))
    assert part.effective_endogenous() == {2}


def test_comparison_semantics():
    # equality is plain string equality
    assert compare_values("01", "=", "01")
    assert not compare_values("01", "=", "1")
    assert compare_values("01", "!=", "1")
    # order is numeric when both sides are integers, lexicographic otherwise
    assert compare_values("9", "<", "10")
    assert compare_values("10", "<", "9x")  # lexicographic fallback
    assert compare_values("-2", "<", "1")
    assert compare_values("b", ">", "a")
    assert compare_values("3", "<=", "3")
    # integers are ASCII digits: other scripts' digits compare as text
    assert compare_values("\u0663", ">", "10")
    assert str(Const("\u0663")) == '"\u0663"' and str(Const("-03")) == "-03"
    with pytest.raises(InputError):
        compare_values("1", "<>", "2")


def test_constraint_constructor_guards():
    with pytest.raises(InputError):
        DenialConstraint("c", ())
    with pytest.raises(InputError):
        DenialConstraint("c", (Atom("p", (Var("x"),)),),
                         (Comparison(Var("z"), "<", Var("x")),))
    with pytest.raises(InputError):
        Comparison(Var("x"), "~", Var("y"))
    with pytest.raises(InputError):
        ConstraintSet((DenialConstraint("c", (Atom("p", (Var("x"),)),)),
                       DenialConstraint("c", (Atom("q", (Var("x"),)),))))


def test_check_consistency(pqr, fd):
    _, cs, inst = pqr
    assert not consistent(inst, cs)
    assert consistent(restrict(inst, {2, 3, 4}), cs)
    assert consistent(restrict(inst, {1, 2}), cs)
    _, cs2, inst2 = fd
    assert not consistent(inst2, cs2)
    assert consistent(restrict(inst2, {1, 3}), cs2)
    assert consistent(restrict(inst2, {2}), cs2)


def test_a_constraint_pickled_under_another_hash_seed_equals_a_fresh_parse():
    schema, text = "p(A, B)\n", 'dc c : !exists p(x, y), p(x, z), y != z, z != "k"\n'
    code = ("import pickle, sys\n"
            "from incmeter.model import parse_constraints, parse_schema\n"
            f"cs = parse_constraints({text!r}, parse_schema({schema!r}))\n"
            "sys.stdout.buffer.write(pickle.dumps(cs.constraints[0]))\n")
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = str(Path(model.__file__).parents[1])
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          check=True)
    fresh = parse_constraints(text, parse_schema(schema)).constraints[0]
    for loaded in (pickle.loads(proc.stdout), pickle.loads(pickle.dumps(fresh))):
        # its hash is taken afresh here, so the join's plan cache finds the fresh one's plan
        assert loaded == fresh and hash(loaded) == hash(fresh)
        assert evaluation._plan(loaded, None) is evaluation._plan(fresh, None)


def test_constraint_str_reparses():
    schema = parse_schema("p(A)\nq(A, B)\n")
    cs = parse_constraints(
        'dc c1 : !exists p(x), q(x, y), x != "B 2", y >= 3\n', schema)
    round_trip = parse_constraints(str(cs.constraints[0]), schema)
    assert round_trip.constraints[0] == cs.constraints[0]

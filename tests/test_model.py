"""Shapes, tableaux, serialization, geometric transforms, and the contract
of the value types."""

import pickle
import sys
from copy import copy as shallow_copy, deepcopy

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_syt import corner_cells, is_syt, remove_cell, tableau_from_rows
from tabinv import (
    BlockPartition,
    BridgeReport,
    DistributionPolynomial,
    EquidistributionReport,
    Filling,
    InversionPathSet,
    LatticePath,
    Shape,
    ShapeError,
    Tableau,
    TableauError,
    bridge_check,
    cinv_statistic,
    conjugate,
    enumerate_syt,
    equidistribution_report,
    format_shape,
    forward_blocks,
    inversion_path_set,
    make_tableau,
    map_trace,
    parse_shape,
    parse_tableau_text,
    psi,
    render,
    rotate_complement,
    tableau_to_json_dict,
    tableau_to_text,
    validate_filling,
)
from tabinv.enumeration import ClassReport
from tabinv.inversion import MapStage, _Cascade


class TestShape:
    def test_parse_and_format_round_trip(self):
        for text in ["3,2", "4,4,2,1", "2,2/1", "3,3,1/2,1", "6,5,4,3,2,1/5,4,3,2,1"]:
            assert format_shape(parse_shape(text)) == text

    def test_straight_shape_properties(self):
        s = parse_shape("3,2")
        assert s.is_straight
        assert s.size == 5
        assert s.n_rows == 2
        assert s.width == 3
        assert s.cells() == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]

    def test_skew_shape_cells(self):
        s = parse_shape("2,2/1")
        assert not s.is_straight
        assert s.size == 3
        assert s.cells() == [(1, 2), (2, 1), (2, 2)]
        assert (1, 1) not in s
        assert (1, 2) in s

    def test_invalid_shapes_rejected(self):
        bad = ["2,3", "2,2/3", "3,1/1,2", "0", "-1,2", "3,2/2,2,1"]
        # Parts are ASCII decimal: no sign, underscore or other digits.
        for text in bad + ["+3,2", "3,\u0662", "1_0", "3,2/+1", "3,\u00b2"]:
            with pytest.raises(ShapeError):
                parse_shape(text)

    def test_whitespace_around_shape_parts_is_allowed(self):
        assert parse_shape(" 3, 2 / 1") == Shape((3, 2), (1,))

    def test_corner_cells(self):
        assert corner_cells(parse_shape("3,2")) == {(1, 3), (2, 2)}
        assert corner_cells(parse_shape("2,2/1")) == {(2, 2)}
        assert corner_cells(parse_shape("1")) == {(1, 1)}

    def test_remove_cell_keeps_validity(self):
        s = parse_shape("3,2")
        assert format_shape(remove_cell(s, (1, 3))) == "2,2"
        assert format_shape(remove_cell(s, (2, 2))) == "3,1"

    def test_conjugate_involution(self):
        s = parse_shape("4,2,1")
        assert format_shape(s.conjugate()) == "3,2,1,1"
        assert s.conjugate().conjugate() == s


class TestTableau:
    def test_contents_and_positions(self):
        t = tableau_from_rows([[1, 2, 4], [3, 5]])
        assert t.n == 5
        assert t.content((2, 2)) == 5
        assert t.positions()[4] == (1, 3)

    @pytest.mark.parametrize("cell", [(0, 1), (1, 0), (1, 1), (1, 4)])
    def test_content_of_a_cell_outside_the_shape_is_an_error(self, cell):
        # Row 0 and column 0 must not wrap round to the last row or column,
        # and an inner cell has no content.
        t = make_tableau(parse_shape("3,2/1"), [[None, 1, 2], [3, 4]])
        with pytest.raises(ValueError, match=rf"^cell \({cell[0]}, {cell[1]}\) is not a cell of shape 3,2/1$"):
            t.content(cell)

    def test_rejects_non_standard_fillings(self):
        with pytest.raises(TableauError):
            tableau_from_rows([[2, 1], [3, 4]])  # row not increasing
        with pytest.raises(TableauError):
            tableau_from_rows([[1, 3], [2, 2]])  # duplicate
        with pytest.raises(TableauError):
            tableau_from_rows([[3, 4], [1, 2]])  # column decreasing upward

    def test_replace_cannot_make_a_non_standard_tableau(self):
        t = make_tableau(Shape((2,)), [[1, 2]])
        with pytest.raises(TableauError, match=r"^duplicate content 2 at cells \(1,1\) and \(1,2\); row not"):
            t.replace({(1, 1): 2})

    def test_validate_filling_reports_violations(self):
        s = parse_shape("2,2")
        assert validate_filling(s, [[1, 2], [3, 4]]) == []
        assert validate_filling(s, [[1, 2], [4, 3]]) != []
        # Rows that do not fit the shape give Tableau's message for the
        # first fault alone, and no standardness pass runs on them.
        assert validate_filling(s, [[1, 2], [3, None]]) == ["placeholder/shape mismatch at cell (2,2)"]
        assert validate_filling(s, [[2, 1], [3]]) == ["row 2 has 1 entries, expected 2"]
        assert validate_filling(Shape((2,)), [[1, 2, 3]]) == ["row 1 has 3 entries, expected 2"]
        assert validate_filling(Shape((2,)), [[1, 2], [3]]) == ["expected 1 rows, got 2"]
        assert validate_filling(parse_shape("2,1/1"), ((9, 1), (2,))) == ["placeholder/shape mismatch at cell (1,1)"]

    def test_duplicate_content_names_both_cells_as_i_j(self):
        assert validate_filling(parse_shape("2,2"), [[1, 2], [3, 3]]) == [
            "duplicate content 3 at cells (2,1) and (2,2)",
            "row not increasing: cell (2,1)=3 vs (2,2)=3",
        ]

    def test_non_integer_content_is_a_violation(self):
        # A string next to an integer must not reach the order comparison.
        with pytest.raises(TableauError, match="content 'a' at cell \\(1,1\\) outside 1..2"):
            Tableau(Shape((2,)), [["a", 1]])
        assert validate_filling(parse_shape("2,1"), [[1, "b"], [3]]) == ["content 'b' at cell (1,2) outside 1..3"]

    def test_bool_content_is_a_violation(self):
        assert validate_filling(parse_shape("2"), [[True, 2]]) == ["content True at cell (1,1) outside 1..2"]
        with pytest.raises(TableauError):
            Tableau(Shape((2,)), [[True, 2]])

    def test_skew_tableau_construction(self):
        t = make_tableau(parse_shape("2,2/1"), [[None, 1], [2, 3]])
        assert t.content((1, 2)) == 1
        assert t.content((2, 1)) == 2

    def test_conjugate_transposes(self):
        t = tableau_from_rows([[1, 2, 4], [3, 5]])
        c = conjugate(t)
        assert format_shape(c.shape) == "2,2,1"
        assert c.content((3, 1)) == 4
        assert conjugate(c) == t

    def test_rotate_complement_example(self):
        t = tableau_from_rows([[1, 2], [3]])
        r = rotate_complement(t)
        assert format_shape(r.shape) == "2,2/1"
        assert r.content((1, 2)) == 1
        assert r.content((2, 1)) == 2
        assert r.content((2, 2)) == 3
        assert rotate_complement(r) == t

    def test_rotate_complement_flips_descents(self):
        from tabinv import descent_set

        t = tableau_from_rows([[1, 2, 5], [3, 4]])
        r = rotate_complement(t)
        n = t.n
        assert descent_set(r) == {n - i for i in descent_set(t)}


# A dict in the form `tableau_to_json_dict` writes, malformed, with the
# error and message of Shape or Tableau.
_MALFORMED_JSON = [
    ({"shape": [2], "rows": None}, TableauError, "rows are of type NoneType, not a list or a tuple"),
    ({"shape": [2], "rows": 5}, TableauError, "rows are of type int, not a list or a tuple"),
    ({"shape": [2], "rows": {"1": [1, 2]}}, TableauError, "rows are of type dict, not a list or a tuple"),
    ({"shape": [2], "rows": [5, 6]}, TableauError, "row 1 is of type int, not a list or a tuple"),
    ({"shape": [2], "rows": ["1 2"]}, TableauError, "row 1 is of type str, not a list or a tuple"),
    ({"shape": [2], "rows": [[1, 2], [3]]}, TableauError, "expected 1 rows, got 2"),
    ({"shape": ["2"], "rows": [[1, 2]]}, ShapeError, "outer parts must be positive integers, got ('2',)"),
    ({"shape": [True], "rows": [[1]]}, ShapeError, "outer parts must be positive integers, got (True,)"),
    ({"shape": [1, 2], "rows": [[1], [2, 3]]}, ShapeError, "outer parts not weakly decreasing: (1, 2)"),
    ({"shape": [2], "inner": [3], "rows": [[None, 1]]}, ShapeError, "inner (3,) not contained in outer (2,)"),
]


class TestSerialization:
    def test_text_round_trip(self):
        t = tableau_from_rows([[1, 2, 4], [3, 5]])
        assert parse_tableau_text(tableau_to_text(t)) == t

    def test_text_round_trip_skew(self):
        t = make_tableau(parse_shape("2,2/1"), [[None, 1], [2, 3]])
        text = tableau_to_text(t)
        assert text == "shape: 2,2/1\n. 1\n2 3\n"
        assert parse_tableau_text(text) == t

    def test_text_without_shape_header(self):
        t = parse_tableau_text("1 2 4\n3 5\n")
        assert format_shape(t.shape) == "3,2"

    def test_placeholder_mismatch_rejected(self):
        with pytest.raises(TableauError):
            parse_tableau_text("shape: 2,2\n. 1\n2 3\n")

    @pytest.mark.parametrize("text", ["\u0661 \u0662", "+1 2", "1_0 2", "1 \u00b2", "-1 2"])
    def test_text_contents_are_ascii_decimal(self, text):
        with pytest.raises(TableauError, match="bad token"):
            parse_tableau_text(text)

    def test_text_with_no_cells_is_rejected(self):
        with pytest.raises(TableauError, match="tableau has no cells"):
            parse_tableau_text(". .\n.\n")

    def test_placeholders_that_are_not_a_partition(self):
        with pytest.raises(TableauError, match=r"^the '\.' placeholders do not form a partition: \(0, 0, 1\)"):
            parse_tableau_text("1 2 3\n4 5\n. 6\n")

    @pytest.mark.parametrize(
        "d,error,message", _MALFORMED_JSON, ids=[f"d{i}-{case[1].__name__}" for i, case in enumerate(_MALFORMED_JSON)]
    )
    def test_malformed_json_dict(self, d, error, message):
        # JSON is output only; a dict in the shape `tableau_to_json_dict`
        # writes, but malformed, is rejected by Shape or by Tableau.
        with pytest.raises(error) as caught:
            Tableau(Shape(tuple(d["shape"]), tuple(d.get("inner", ()))), d["rows"])
        assert str(caught.value) == message

    def test_json_round_trip(self):
        t = make_tableau(parse_shape("3,3/1"), [[None, 1, 3], [2, 4, 5]])
        d = tableau_to_json_dict(t)
        assert Tableau(Shape(tuple(d["shape"]), tuple(d["inner"])), d["rows"]) == t

    def test_render_alignment(self):
        out = render(tableau_from_rows([[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]]))
        lines = out.splitlines()
        assert len(lines) == 2
        assert len(lines[0]) == len(lines[1])
        assert "10" in lines[0]  # top row printed first


_SMALL_SHAPES = [parse_shape(text) for text in ("1", "3", "2,1", "2,2", "3,1,1", "2,2/1", "3,2,1/2")]


@st.composite
def _small_fillings(draw):
    """A shape and rows: a permutation of 1..n on its cells and None on its
    inner cells; then at most two cells, inner or not, overwritten by None,
    a bool, "x", 2.0 or an integer from 0 to n+1; then at most two
    structural faults, an entry or a row added or dropped."""
    shape = draw(st.sampled_from(_SMALL_SHAPES))
    n = shape.size
    contents = iter(draw(st.permutations(range(1, n + 1))))
    rows = [
        [None if j <= shape.inner_at(i) else next(contents) for j in range(1, shape.outer[i - 1] + 1)]
        for i in range(1, shape.n_rows + 1)
    ]
    entry = st.one_of(st.none(), st.booleans(), st.sampled_from(["x", 2.0]), st.integers(0, n + 1))
    boxed = [(i, j) for i in range(1, shape.n_rows + 1) for j in range(1, shape.outer[i - 1] + 1)]
    for i, j in draw(st.lists(st.sampled_from(boxed), max_size=2)):
        rows[i - 1][j - 1] = draw(entry)
    for fault in draw(st.lists(st.sampled_from(["add entry", "drop entry", "add row", "drop row"]), max_size=2)):
        i = draw(st.integers(0, len(rows)))
        if fault == "add row":
            rows.insert(i, draw(st.lists(entry, max_size=3)))
        elif i < len(rows) and fault == "drop row":
            del rows[i]
        elif i < len(rows):
            k = draw(st.integers(0, len(rows[i])))
            if fault == "add entry":
                rows[i].insert(k, draw(entry))
            elif k < len(rows[i]):
                del rows[i][k]
    return shape, tuple(map(tuple, rows))


@settings(max_examples=500, derandomize=True, deadline=None)
@given(filling=_small_fillings())
@example(filling=(Shape((2, 2), (1,)), ((None, 1), (2, 3))))
@example(filling=(Shape((2,)), ((1, 2, 3),)))  # a row too long
@example(filling=(Shape((2,)), ((1, 2), (3,))))  # a row too many
@example(filling=(Shape((2, 1), (1,)), ((9, 1), (2,))))  # a number on an inner cell
@example(filling=(Shape((2,)), ({0: 1, 1: 2},)))  # a dict row, keyed by index
@example(filling=(Shape((2,)), [{1, 2}]))  # a set row
def test_a_filling_is_a_tableau_exactly_when_it_is_an_syt(filling):
    """validate_filling returns [] exactly when the rows are an SYT by the
    definition (`is_syt`), and Tableau constructs exactly then; otherwise
    its TableauError carries the same violations."""
    shape, rows = filling
    violations = validate_filling(shape, rows)
    assert (violations == []) == is_syt(shape, rows)
    try:
        t = Tableau(shape, rows)
    except TableauError as e:
        assert e.violations == violations != []
    else:
        assert violations == [] and t.rows == rows


def test_value_types_keep_their_contract(monkeypatch):
    """Every value type is a tuple of its fields that prints as its class
    with named fields and hashes as the plain tuple (when its fields hash);
    Shape, Tableau and DistributionPolynomial check their input however
    they are built; every one pickles back to its own class, and a Tableau
    pickles and copies with its fields alone."""
    t = tableau_from_rows([[1, 2], [3, 4]])
    u = tableau_from_rows([[1, 3, 4], [2, 5]])
    values = [
        Shape((3, 2), (1,)),
        t,
        tableau_from_rows([[2], [1, 3]], inner=(1,)),
        Filling(Shape((2, 1)), ((1, 3), (2,))),
        LatticePath((1, 1), "SW"),
        forward_blocks(u, 5),
        map_trace(t, True)[0],
        DistributionPolynomial((1, 0, 2)),
        equidistribution_report(Shape((2, 2), (1,))).classes[0],
        bridge_check((2, 1, 3)),
    ]
    unhashable = [
        inversion_path_set(tableau_from_rows([[1, 3], [2]])),
        equidistribution_report(Shape((2, 1))),
    ]
    poly = "DistributionPolynomial(coefficients=(0, 1, 1))"
    assert list(map(repr, values + unhashable)) == [
        "Shape(outer=(3, 2), inner=(1,))",
        "Tableau(shape=Shape(outer=(2, 2), inner=()), rows=((1, 2), (3, 4)))",
        "Tableau(shape=Shape(outer=(2, 2), inner=(1,)), rows=((None, 2), (1, 3)))",
        "Filling(shape=Shape(outer=(2, 1), inner=()), rows=((1, 3), (2,)))",
        "LatticePath(start=(1, 1), steps='SW')",
        "BlockPartition(k=5, anchor_side='above', blocks=(((1, 1),), ((2, 1), (1, 2), (1, 3))))",
        "MapStage(k=4, path=LatticePath(start=(1, 1), steps='WS'), blocks=(((1, 1),), ((1, 2), (2, 1))), "
        "result=Filling(shape=Shape(outer=(2, 2), inner=()), rows=((1, 3), (2, 4))))",
        "DistributionPolynomial(coefficients=(1, 0, 2))",
        f"ClassReport(stat_a='inv', stat_b='maj', pinned_cell=(2, 2), poly_a={poly}, poly_b={poly})",
        "BridgeReport(perm=(2, 1, 3), tableau_route=(2, 1, 3), direct_route=(2, 1, 3), foata_route=(2, 1, 3))",
        "InversionPathSet(paths={(1, 2): LatticePath(start=(1, 0), steps='W'), "
        "(2, 1): LatticePath(start=(0, 1), steps='S')}, exempt=(1, 1), pairs={((2, 1), (1, 1))})",
        "EquidistributionReport(shape=Shape(outer=(2, 1), inner=()), classes=["
        f"ClassReport(stat_a='inv', stat_b='maj', pinned_cell=None, poly_a={poly}, poly_b={poly}), "
        f"ClassReport(stat_a='cinv', stat_b='comaj', pinned_cell=None, poly_a={poly}, poly_b={poly})])",
    ]
    fields = {
        Shape: ("outer", "inner"),
        Filling: ("shape", "rows"),
        Tableau: ("shape", "rows"),
        LatticePath: ("start", "steps"),
        BlockPartition: ("k", "anchor_side", "blocks"),
        MapStage: ("k", "path", "blocks", "result"),
        InversionPathSet: ("paths", "exempt", "pairs"),
        _Cascade: ("steps", "start", "grid", "count"),
        DistributionPolynomial: ("coefficients",),
        ClassReport: ("stat_a", "stat_b", "pinned_cell", "poly_a", "poly_b"),
        EquidistributionReport: ("shape", "classes"),
        BridgeReport: ("perm", "tableau_route", "direct_route", "foata_route"),
    }
    for cls, names in fields.items():
        assert cls._fields == names, cls
    for value in values:
        copy = type(value)(*value)
        assert copy == value and hash(copy) == hash(value) == hash(tuple(value))
    # map --format json prints a stage's path as this dict.
    assert LatticePath((1, 1), "SW")._asdict() == {"start": (1, 1), "steps": "SW"}

    bad = [
        (lambda: Shape((2, 3)), ShapeError, "outer parts not weakly decreasing: (2, 3)"),
        (lambda: DistributionPolynomial((1, 0)), ValueError, "coefficients not in canonical form (trailing zero)"),
        (lambda: Tableau(Shape((2, 1)), ((1, 2), ())), TableauError, "row 2 has 0 entries, expected 1"),
        (lambda: Tableau(Shape((2, 2)), ((1, 2), (4, 3))), TableauError, "row not increasing: cell (2,1)=4 vs (2,2)=3"),
        (lambda: Shape._make([(2, 3), ()]), ShapeError, "outer parts not weakly decreasing: (2, 3)"),
        (lambda: Shape((3, 2))._replace(inner=(3, 3)), ShapeError, "inner (3, 3) not contained in outer (3, 2)"),
        (lambda: DistributionPolynomial._make([(1, 0)]), ValueError, "coefficients not in canonical form (trailing zero)"),
        (lambda: t._replace(rows=((1, 2), (4, 3))), TableauError, "row not increasing: cell (2,1)=4 vs (2,2)=3"),
    ]
    for build, error, message in bad:
        with pytest.raises(error) as caught:
            build()
        assert type(caught.value) is error and str(caught.value) == message
    for value in (Shape((2,)), t, DistributionPolynomial((1,))):
        for name in (value._fields[0], "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, ())

    # A --par worker receives its Shape by pickle.
    for value in values + unhashable:
        back = pickle.loads(pickle.dumps(value))
        assert type(back) is type(value) and back == value and repr(back) == repr(value)

    # The forward-cascade records stay behind: pickle and copy carry the fields alone.
    psi(t), cinv_statistic(t)
    assert t.__dict__
    assert pickle.dumps(t) == pickle.dumps(tableau_from_rows([[1, 2], [3, 4]]))
    for copied in (shallow_copy(t), deepcopy(t)):
        assert type(copied) is Tableau and copied == t and copied.__dict__ == {}

    # Construction looks __post_init__ up on the class when it runs, so
    # patching it there, as the benchmark's tracer does, takes effect.
    seen = []
    monkeypatch.setattr(Tableau, "__post_init__", lambda self: seen.append(self))
    assert Tableau(Shape((2,)), ((2, 1),)) in seen
    # Loading a pickle builds through the constructor, so it checks too.
    back = pickle.loads(pickle.dumps(t))
    assert seen[-1] is back


@pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in Python 3.13")
@pytest.mark.parametrize(
    "value, changes, error",
    [
        (Shape((3, 2)), {"inner": (3, 3)}, ShapeError),
        (tableau_from_rows([[1, 2], [3, 4]]), {"rows": ((1, 2), (4, 3))}, TableauError),
        (DistributionPolynomial((1,)), {"coefficients": (1, 0)}, ValueError),
    ],
    ids=["Shape", "Tableau", "DistributionPolynomial"],
)
def test_copy_replace_checks_like_replace(value, changes, error):
    import copy

    with pytest.raises(error) as by_replace:
        value._replace(**changes)
    with pytest.raises(error) as by_copy:
        copy.replace(value, **changes)
    assert type(by_copy.value) is type(by_replace.value) is error
    assert str(by_copy.value) == str(by_replace.value)
    assert type(copy.replace(value)) is type(value) and copy.replace(value) == value


_SMALL_SYT = [t for s in _SMALL_SHAPES for t in enumerate_syt(s)]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(t=st.sampled_from(_SMALL_SYT), data=st.data())
def test_list_and_tuple_rows_build_one_tableau(t, data):
    """The rows of an SYT given as any mix of lists and tuples build, by
    either constructor, a Tableau equal to the all-tuple one and hashing
    equal to it."""
    sequence = st.sampled_from([list, tuple])
    rows = data.draw(sequence)(data.draw(sequence)(row) for row in t.rows)
    for built in (Tableau(t.shape, rows), make_tableau(t.shape, rows)):
        assert built == t and hash(built) == hash(t)
        assert type(built.rows) is tuple and all(type(row) is tuple for row in built.rows)


_NOT_A_ROW = {
    "set": set,
    "dict by index": lambda row: dict(enumerate(row)),
    "dict by content": dict.fromkeys,
    "generator": lambda row: (v for v in row),
    "str": lambda row: " ".join(map(str, row)),
    "int": len,
}


@pytest.mark.parametrize("kind", _NOT_A_ROW)
@settings(max_examples=100, derandomize=True, deadline=None)
@given(t=st.sampled_from(_SMALL_SYT), data=st.data())
def test_rows_that_are_not_lists_or_tuples_are_rejected_alike(kind, t, data):
    """The rows of an SYT, or one of its rows, made a set, a dict (keyed by
    index or by content), a generator, a str or an int: both constructors
    raise the same TableauError, which names that fault alone, and
    validate_filling returns it."""
    wrap = _NOT_A_ROW[kind]
    where = data.draw(st.integers(0, len(t.rows)), label="row index, or all rows")

    def rows():  # a fresh one for each reader, as a generator reads once
        if where == len(t.rows):
            return wrap(t.rows)
        return [wrap(row) if i == where else list(row) for i, row in enumerate(t.rows)]

    fault, what = (rows(), "rows are") if where == len(t.rows) else (rows()[where], f"row {where + 1} is")
    expected = [f"{what} of type {type(fault).__name__}, not a list or a tuple"]
    assert validate_filling(t.shape, rows()) == expected
    for build in (Tableau, make_tableau):
        with pytest.raises(TableauError) as caught:
            build(t.shape, rows())
        assert caught.value.violations == expected
